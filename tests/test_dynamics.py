import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cplab import (
    DensityMatrix,
    GKSGenerator,
    LindbladGenerator,
    NoNegativeDirection,
    OperatorBasis,
    Superoperator,
    choi_matrix,
    construct_witness,
    evolution_map,
    gks_to_lindblad,
    is_completely_positive,
    lindblad_to_gks,
    standard_basis,
    superoperator_of,
    tensor_extension,
)
from cplab import dynamics, generator
from cplab.errors import (
    DimensionMismatch,
    InconsistentVerdict,
    InvalidState,
    NegativeTime,
    NonFinite,
    NotCompletelyPositive,
    ShapeMismatch,
    ZeroVector,
)
from cplab.linalg import POSITIVITY_TOL, _hermitian_margin, fro_norm, matrix_exp, min_eigenvalue

from helpers import (
    NotApplicable,
    apply_generator,
    coeff_at_cutoff,
    generator_matrix_kron,
    random_density,
    random_generator,
    random_hermitian,
    random_psd,
    random_traceless_hermitian,
    symmetric_case_witness,
    tensor_square_superop,
    transpose_superop,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SMINUS = (SX - 1j * SY) / 2.0


def _null_generator(d=2):
    n = d * d - 1
    return GKSGenerator(
        dim=d, hamiltonian=np.zeros((d, d)), coeff=np.zeros((n, n)), basis=standard_basis(d)
    )


class TestEvolutionMap:
    def test_time_zero_is_identity(self):
        g = random_generator(2, np.random.default_rng(0))
        np.testing.assert_array_equal(evolution_map(g, 0.0).matrix, np.eye(4))

    def test_null_generator_any_time(self):
        np.testing.assert_array_equal(evolution_map(_null_generator(), 2.7).matrix, np.eye(4))

    def test_semigroup_law(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            g = random_generator(int(rng.choice([2, 3, 4, 5, 6])), rng)
            s, t = rng.uniform(0, 1, size=2)
            lhs = evolution_map(g, s).matrix @ evolution_map(g, t).matrix
            rhs = evolution_map(g, s + t).matrix
            # Relative: at d = 6, ||e^{(s+t)L}||_F reaches ~4e7 and roundoff scales with it.
            assert fro_norm(lhs - rhs) <= 1e-9 * max(1.0, fro_norm(rhs))

    def test_negative_time_rejected(self):
        with pytest.raises(NegativeTime):
            evolution_map(_null_generator(), -0.1)

    def test_trace_and_hermiticity_preserved_under_evolution(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            d = int(rng.choice([2, 3, 4, 5, 6]))
            n = d * d - 1
            coeff = random_hermitian(n, rng)
            g = random_generator(d, rng, coeff=coeff / fro_norm(coeff))
            rho = random_density(d, rng)
            for t in (0.05, 0.7, 5.0):
                out = evolution_map(g, t).apply(rho)
                assert abs(np.trace(out) - 1.0) <= 1e-9
                assert fro_norm(out - out.conj().T) <= 1e-9

    def test_preservation_is_relative_for_strong_amplification(self):
        # A strongly non-CP generator amplifies states exponentially; trace
        # and Hermiticity errors then scale with the output norm.
        rng = np.random.default_rng(4)
        g = random_generator(3, rng, coeff=8.0 * random_hermitian(8, rng))
        rho = random_density(3, rng)
        out = evolution_map(g, 5.0).apply(rho)
        scale = max(1.0, fro_norm(out))
        assert abs(np.trace(out) - 1.0) <= 1e-9 * scale
        assert fro_norm(out - out.conj().T) <= 1e-9 * scale

    def test_continuity_at_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            d = int(rng.choice([2, 3, 4, 5, 6]))
            g = random_generator(d, rng)
            s = superoperator_of(g)
            rho = random_density(d, rng)
            diff = evolution_map(g, 1e-6).apply(rho) - rho
            trace_norm = np.sum(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)))
            assert trace_norm <= 1e-4 * (1.0 + fro_norm(s.matrix))


class TestTensorExtension:
    def test_null_generator(self):
        ext = tensor_extension(_null_generator())
        np.testing.assert_array_equal(ext.matrix, np.zeros((16, 16)))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_bitwise_equal_to_kron_formula(self, d):
        # The d^2 x d^2 operators F_a kron I and I kron F_a go through the same builder.
        g = random_generator(d, np.random.default_rng(13 + d))
        eye = np.eye(d)
        left = np.stack([np.kron(f, eye) for f in g.basis.elements])
        right = np.stack([np.kron(eye, f) for f in g.basis.elements])
        ref = generator_matrix_kron(np.kron(g.hamiltonian, eye), g.coeff, left)
        ref += generator_matrix_kron(np.kron(eye, g.hamiltonian), g.coeff, right)
        assert np.array_equal(tensor_extension(g).matrix, ref)

    def test_product_state_rule(self):
        rng = np.random.default_rng(10)
        for d in (2, 3, 4):
            g = random_generator(d, rng)
            rho_a = random_density(d, rng)
            rho_b = random_density(d, rng)
            lhs = tensor_extension(g).apply(np.kron(rho_a, rho_b))
            rhs = np.kron(apply_generator(g, rho_a), rho_b) + np.kron(
                rho_a, apply_generator(g, rho_b)
            )
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_factorized_evolution_as_superoperators(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 4):
            g = random_generator(d, rng)
            single = superoperator_of(g).matrix
            for t in (0.1, 0.6):
                lhs = scipy.linalg.expm(t * tensor_extension(g).matrix)
                rhs = tensor_square_superop(matrix_exp(t * single), d)
                assert fro_norm(lhs - rhs) <= 1e-9

    def test_product_state_evolution_factorizes(self):
        rng = np.random.default_rng(12)
        d = 2
        g = random_generator(d, rng)
        rho_a = random_density(d, rng)
        rho_b = random_density(d, rng)
        t = 0.4
        propagator = scipy.linalg.expm(t * tensor_extension(g).matrix)
        lhs = (propagator @ np.kron(rho_a, rho_b).reshape(-1, order="F")).reshape(
            d * d, d * d, order="F"
        )
        gamma = evolution_map(g, t)
        rhs = np.kron(gamma.apply(rho_a), gamma.apply(rho_b))
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestEvolve:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_state_of_neither_dimension_is_refused_before_exponentiating(self, d, monkeypatch):
        g = random_generator(d, np.random.default_rng(d))
        monkeypatch.setattr(dynamics, "matrix_exp", lambda *a: pytest.fail("exponentiated"))
        with pytest.raises(DimensionMismatch, match=f"state dimension {d + 1} is neither d={d} nor"):
            dynamics.evolve(g, np.eye(d + 1) / (d + 1), (0.3,))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_single_state_goes_through_each_propagators_apply(self, d):
        """Over a grid each state is ``Superoperator.apply`` of its propagator of the
        grid's one ``matrix_exp`` call; one time gives the bits of :func:`evolution_map`.
        A grid and one time evaluate the series with different block sizes, so the
        grid's states agree with the one-time ones to roundoff, not bitwise."""
        rng = np.random.default_rng(40 + d)
        g = random_generator(d, rng)
        rho = random_density(d, rng)
        times = np.geomspace(1e-3, 2.0, 5)
        states = dynamics.evolve(g, rho, times)
        props = matrix_exp(superoperator_of(g).matrix, times)
        assert states.shape == (5, d, d)
        for t, u, state in zip(times, props, states):
            assert np.array_equal(state, Superoperator(dim=d, matrix=u).apply(rho))
            one = evolution_map(g, t).apply(rho)
            assert np.array_equal(dynamics.evolve(g, rho, (t,))[0], one)
            np.testing.assert_allclose(state, one, atol=1e-9)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestNonFiniteCutoff:
    """A matrix whose Frobenius norm overflows gets a typed refusal, not a verdict:
    its cutoff would be infinite and pass every eigenvalue."""

    def test_verdict_on_a_huge_coefficient_matrix(self):
        g = GKSGenerator(
            dim=2, hamiltonian=np.zeros((2, 2)), coeff=1e200 * np.diag([1.0, 1.0, -1.0]),
            basis=standard_basis(2),
        )
        with pytest.raises(NonFinite, match="cutoff is not finite"):
            is_completely_positive(g)

    @pytest.mark.parametrize("t", [200.0, 400.0])
    def test_decision_on_an_evolved_state_that_overflows(self, t):
        """At t = 200 the state is finite with entries ~1e173 and its norm overflows;
        at t = 400 ``U M U^T`` itself overflows to inf and NaN."""
        g = GKSGenerator(
            dim=2, hamiltonian=np.zeros((2, 2)), coeff=np.diag([0.0, 0.0, -1.0]),
            basis=standard_basis(2),
        )
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        state = dynamics.evolve(g, np.outer(singlet, singlet), (t,))[0]
        with pytest.raises(NonFinite, match="cutoff is not finite"):
            _hermitian_margin(state)


class TestChoiMatrix:
    def test_identity_map(self):
        ident = Superoperator(dim=2, matrix=np.eye(4, dtype=complex))
        eigs = np.linalg.eigvalsh(choi_matrix(ident))
        np.testing.assert_allclose(eigs, [0.0, 0.0, 0.0, 2.0], atol=1e-14)

    def test_transpose_map(self):
        tau = Superoperator(dim=2, matrix=transpose_superop(2))
        choi = choi_matrix(tau)
        # Oracle: enumerate the images of the four matrix units directly.
        oracle = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[i, j] = 1.0
                oracle += np.kron(unit, unit.T)
        np.testing.assert_allclose(choi, oracle, atol=1e-15)
        np.testing.assert_allclose(np.linalg.eigvalsh(choi), [-1.0, 1.0, 1.0, 1.0], atol=1e-14)

    def test_reshuffle_identity(self):
        # choi_matrix reshuffles the superoperator's entries; the oracle is
        # the definition, the images of the matrix units under the map.
        rng = np.random.default_rng(20)
        d = 3
        s = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        m = Superoperator(dim=d, matrix=s)
        oracle = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[i, j] = 1.0
                oracle += np.kron(unit, m.apply(unit))
        np.testing.assert_array_equal(choi_matrix(m), oracle)

    def test_cp_generator_has_psd_choi(self):
        rng = np.random.default_rng(21)
        g = random_generator(2, rng, coeff=random_psd(3, rng))
        propagator = evolution_map(g, 0.3)
        choi = choi_matrix(propagator)
        assert min_eigenvalue(choi) >= -1e-9 * max(1.0, fro_norm(choi))


class TestIsCompletelyPositive:
    def test_depolarizing_is_cp(self):
        g = GKSGenerator(
            dim=2, hamiltonian=np.zeros((2, 2)), coeff=np.eye(3), basis=standard_basis(2)
        )
        verdict = is_completely_positive(g)
        assert verdict.is_cp
        assert verdict.min_coeff_eigenvalue == pytest.approx(1.0)
        assert verdict.min_choi_eigenvalue >= -verdict.tolerance

    def test_negative_direction_is_not_cp(self):
        g = GKSGenerator(
            dim=2,
            hamiltonian=np.zeros((2, 2)),
            coeff=np.diag([1.0, 1.0, -1.0]),
            basis=standard_basis(2),
        )
        verdict = is_completely_positive(g)
        assert not verdict.is_cp
        assert verdict.min_coeff_eigenvalue == pytest.approx(-1.0)
        assert verdict.min_choi_eigenvalue < -verdict.tolerance

    def test_lowering_operator_boundary_case(self):
        from cplab import LindbladGenerator, lindblad_to_gks

        lind = LindbladGenerator(dim=2, hamiltonian=np.zeros((2, 2)), jump_ops=(SMINUS,))
        g = lindblad_to_gks(lind, standard_basis(2))
        verdict = is_completely_positive(g)
        assert verdict.is_cp
        # Constructed coefficient matrix has eigenvalues {0, 0, 1}.
        assert verdict.min_coeff_eigenvalue == pytest.approx(0.0, abs=1e-10)

    def test_equivalence_on_random_batch(self):
        rng = np.random.default_rng(30)
        for _ in range(15):
            d = 2
            n = d * d - 1
            coeff = random_psd(n, rng) if rng.random() < 0.5 else random_hermitian(n, rng)
            g = random_generator(d, rng, coeff=coeff)
            verdict = is_completely_positive(g)
            assert verdict.is_cp == (np.linalg.eigvalsh(g.coeff)[0] >= -1e-9)

    def test_shifted_coefficients_up_to_d5_are_not_cp(self):
        # Coefficient matrices shifted to smallest eigenvalue -0.5 reach
        # ||C||_F of 23-52 at d = 4, 5; Choi spectra of exp(tL) sampled at
        # fixed times miss their negativity, the compressed Choi matrix of L
        # does not.
        rng = np.random.default_rng(7)
        for d, count in ((2, 40), (3, 40), (4, 40), (5, 10)):
            n = d * d - 1
            for _ in range(count):
                h = random_traceless_hermitian(d, rng)
                coeff = random_hermitian(n, rng)
                coeff -= (np.linalg.eigvalsh(coeff)[0] + 0.5) * np.eye(n)
                g = random_generator(d, rng, coeff=coeff, hamiltonian=h)
                verdict = is_completely_positive(g)
                assert not verdict.is_cp
                assert verdict.min_coeff_eigenvalue == pytest.approx(-0.5, abs=1e-12)
                assert verdict.min_choi_eigenvalue == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_rotated_basis_gives_the_same_verdict(self, d, monkeypatch):
        # F'_b = sum_a Q_ab F_a with a complex unitary Q and C' = Q^H C Q
        # describe the same generator; the rotated elements are not Hermitian.
        rng = np.random.default_rng(60 + d)
        n = d * d - 1
        std = standard_basis(d)
        mix = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        rotated = OperatorBasis(dim=d, elements=np.einsum("ab,aij->bij", mix, std.elements))
        pairs = []
        for coeff in (random_psd(n, rng), random_hermitian(n, rng)):
            g = random_generator(d, rng, coeff=coeff)
            g_rot = GKSGenerator(
                dim=d, hamiltonian=g.hamiltonian, coeff=mix.conj().T @ g.coeff @ mix, basis=rotated
            )
            s1, s2 = superoperator_of(g).matrix, superoperator_of(g_rot).matrix
            assert fro_norm(s1 - s2) <= 1e-12 * max(1.0, fro_norm(s1))
            pairs.append((g, g_rot))
        calls = []
        svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(dynamics.np.linalg, "svd", recording)
        for g, g_rot in pairs:
            verdict, rot = is_completely_positive(g), is_completely_positive(g_rot)
            assert verdict.is_cp == rot.is_cp
            bound = 1e-12 * max(1.0, fro_norm(g.coeff))
            for v in (verdict, rot):
                assert abs(v.min_choi_eigenvalue - v.min_coeff_eigenvalue) <= bound
        assert not calls

    def test_choi_cross_check_catches_a_wrong_superoperator(self, monkeypatch):
        # A superoperator built from 1.01 C moves the compressed Choi
        # spectrum by 1% of lambda_min(C), far beyond roundoff, whichever
        # side of the cutoff both eigenvalues fall on.
        build = generator._generator_matrix
        monkeypatch.setattr(
            generator, "_generator_matrix", lambda h, coeff, ops: build(h, 1.01 * coeff, ops)
        )
        rng = np.random.default_rng(1)
        for d in (2, 3, 4):
            for _ in range(10):
                with pytest.raises(InconsistentVerdict):
                    is_completely_positive(random_generator(d, rng))


def _assert_one_verdict(g, tol):
    """The verdict, both witness constructions and the conversion agree on C >= 0."""
    verdict = is_completely_positive(g, tol=tol)
    witness = construct_witness(g, rng=np.random.default_rng(0), tol=tol)
    assert isinstance(witness, NoNegativeDirection) == verdict.is_cp
    if verdict.is_cp:
        assert witness.min_coeff_eigenvalue == verdict.min_coeff_eigenvalue
    try:
        gks_to_lindblad(g, tol=tol)
        converts = True
    except NotCompletelyPositive:
        converts = False
    assert converts == verdict.is_cp
    shortcut = symmetric_case_witness(g, tol=tol)
    if not isinstance(shortcut, NotApplicable):
        assert isinstance(shortcut, NoNegativeDirection) == verdict.is_cp


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-6.0, 6.0),
    tol=st.sampled_from([0.0, POSITIVITY_TOL]),
    jumps=st.integers(0, 2),
    ulps=st.integers(-4, 4),
    real=st.booleans(),
)
def test_one_psd_decision(d, seed, log_scale, tol, jumps, ulps, real):
    """Near the cutoff and on rank-deficient C, at any scale of L, no verdict
    raises and none contradicts another.

    ``jumps = 0`` puts C within 4 ulps of the shift at which lambda_min(C)
    meets ``-eps_pos(C, tol)``; otherwise C comes from 1 or 2 jump operators.
    ``real`` makes C real, where the symmetric shortcut applies.
    """
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    n = d * d - 1
    hamiltonian = scale * random_traceless_hermitian(d, rng)
    if jumps == 0:
        c0 = scale * random_hermitian(n, rng)
        coeff = coeff_at_cutoff(c0.real if real else c0, tol, ulps)
        g = random_generator(d, rng, coeff=coeff, hamiltonian=hamiltonian)
    else:
        # Real symmetric jump operators give a real C over the Gell-Mann basis.
        ops = [np.sqrt(scale) * random_traceless_hermitian(d, rng) for _ in range(2 * jumps)]
        ops = [a.real if real else a + 1j * b for a, b in zip(ops[::2], ops[1::2])]
        lind = LindbladGenerator(dim=d, hamiltonian=hamiltonian, jump_ops=tuple(ops))
        g = lindblad_to_gks(lind, standard_basis(d))
    _assert_one_verdict(g, tol)


class TestDensityMatrix:
    def test_valid_state(self):
        rng = np.random.default_rng(40)
        rho = random_density(3, rng)
        state = DensityMatrix(dim=3, matrix=rho)
        assert state.dim == 3

    def test_from_pure_normalizes(self):
        state = DensityMatrix.from_pure([2.0, 0.0])
        np.testing.assert_allclose(state.matrix, [[1.0, 0.0], [0.0, 0.0]])

    def test_rejects_zero_vector(self):
        with pytest.raises(ZeroVector):
            DensityMatrix.from_pure([0.0, 0.0])

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidState):
            DensityMatrix(dim=2, matrix=np.eye(2))

    def test_rejects_negative_state(self):
        with pytest.raises(InvalidState):
            DensityMatrix(dim=2, matrix=np.diag([1.5, -0.5]))

    def test_ignores_writes_to_the_callers_matrix(self):
        rho = np.eye(2, dtype=complex) / 2
        state = DensityMatrix(dim=2, matrix=rho)
        rho[0, 0] = -5.0
        np.testing.assert_array_equal(state.matrix, np.eye(2) / 2)
        with pytest.raises(ValueError):
            state.matrix[0, 0] = -5.0
