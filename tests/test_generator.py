import functools

import numpy as np
import pytest

from cplab import (
    DensityMatrix,
    GKSGenerator,
    LindbladGenerator,
    NoNegativeDirection,
    OperatorBasis,
    Superoperator,
    WitnessCandidate,
    construct_witness,
    dynamics,
    generator,
    gks_to_lindblad,
    is_completely_positive,
    linalg,
    lindblad_to_gks,
    negativity_scan,
    standard_basis,
    superoperator_of,
    witness,
)
from cplab.errors import (
    InvalidDimension,
    NonFinite,
    NonHermitian,
    NonTraceless,
    NonTracelessJump,
    NotCompletelyPositive,
    ShapeMismatch,
)
from cplab.linalg import fro_norm

from helpers import (
    apply_generator,
    generator_matrix_kron,
    random_density,
    random_generator,
    random_hermitian,
    random_psd,
    random_traceless_hermitian,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
SMINUS = (SX - 1j * SY) / 2.0


def _naive_apply(h, coeff, elements, rho):
    """Term-by-term evaluation of the generator with explicit loops."""
    out = -1j * (h @ rho - rho @ h)
    n = coeff.shape[0]
    for a in range(n):
        for b in range(n):
            fa, fb_dag = elements[a], elements[b].conj().T
            sandwich = fa @ rho @ fb_dag
            product = fb_dag @ fa
            out += coeff[a, b] * (sandwich - 0.5 * (product @ rho + rho @ product))
    return out


def _null_generator(d=2):
    return GKSGenerator(
        dim=d,
        hamiltonian=np.zeros((d, d)),
        coeff=np.zeros((d * d - 1, d * d - 1)),
        basis=standard_basis(d),
    )


def _negative_generator():
    return GKSGenerator(2, np.zeros((2, 2)), np.diag([1.0, 1.0, -1.0]), standard_basis(2))


def _witness():
    return construct_witness(_negative_generator(), rng=np.random.default_rng(0))


def _scan():
    w = _witness()
    return negativity_scan(_negative_generator(), w.psi, w.phi)


#: Builders of every dataclass with a ``dim``, from d = 2 data and the given ``dim`` value.
DIM_HOLDERS = {
    "OperatorBasis": lambda d: OperatorBasis(d, standard_basis(2).elements),
    "GKSGenerator": lambda d: GKSGenerator(d, np.zeros((2, 2)), np.eye(3), standard_basis(2)),
    "LindbladGenerator": lambda d: LindbladGenerator(d, np.zeros((2, 2)), (SMINUS,)),
    "Superoperator": lambda d: Superoperator(d, np.eye(4)),
    "DensityMatrix": lambda d: DensityMatrix(d, np.eye(2) / 2),
}

#: Builders of equal-valued instances of every dataclass that holds arrays.
ARRAY_HOLDERS = {
    **{name: functools.partial(build, 2) for name, build in DIM_HOLDERS.items()},
    "WitnessCandidate": _witness,
    "NegativityScan": _scan,
}


class TestIdentityEquality:
    @pytest.mark.parametrize("build", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
    def test_equal_values_compare_by_identity(self, build):
        a, b = build(), build()
        assert a == a
        assert (a == b) is False
        assert a != b
        assert {a: "a", b: "b"}[a] == "a"

    def test_scalar_results_keep_value_equality(self):
        g = _negative_generator()
        assert is_completely_positive(g) == is_completely_positive(g)
        assert NoNegativeDirection(1.0) == NoNegativeDirection(1.0)


class TestIntegerDimension:
    @pytest.mark.parametrize("build", DIM_HOLDERS.values(), ids=DIM_HOLDERS.keys())
    @pytest.mark.parametrize("dim", [2.0, "2", None], ids=["float", "str", "none"])
    def test_non_integer_dim_raises_invalid_dimension(self, build, dim):
        with pytest.raises(InvalidDimension, match="integer dimension"):
            build(dim)

    @pytest.mark.parametrize("build", DIM_HOLDERS.values(), ids=DIM_HOLDERS.keys())
    def test_numpy_integer_dim_is_stored_as_int(self, build):
        assert type(build(np.int64(2)).dim) is int

    @pytest.mark.parametrize("name", ["GKSGenerator", "LindbladGenerator"])
    def test_generators_need_d_at_least_2(self, name):
        with pytest.raises(InvalidDimension, match="d >= 2"):
            DIM_HOLDERS[name](1)

    def test_states_and_superoperators_need_d_at_least_1(self):
        with pytest.raises(InvalidDimension, match="d >= 1"):
            Superoperator(0, np.eye(1))
        with pytest.raises(InvalidDimension, match="d >= 1"):
            DensityMatrix(0, np.eye(1))
        assert DensityMatrix.from_pure([1.0]).dim == 1


class TestApplyGenerator:
    def test_null_generator(self):
        rng = np.random.default_rng(0)
        rho = random_density(2, rng)
        out = apply_generator(_null_generator(), rho)
        np.testing.assert_allclose(out, np.zeros((2, 2)), atol=1e-15)

    def test_depolarizing_fixture(self):
        g = GKSGenerator(
            dim=2, hamiltonian=np.zeros((2, 2)), coeff=np.eye(3), basis=standard_basis(2)
        )
        rho = (np.eye(2) + SZ) / 2.0
        out = apply_generator(g, rho)
        np.testing.assert_allclose(out, -SZ, atol=1e-13)
        oracle = _naive_apply(g.hamiltonian, g.coeff, g.basis.elements, rho)
        np.testing.assert_allclose(out, oracle, atol=1e-13)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        for d in (2, 3):
            g = random_generator(d, rng)
            rho = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            oracle = _naive_apply(g.hamiltonian, g.coeff, g.basis.elements, rho)
            np.testing.assert_allclose(apply_generator(g, rho), oracle, atol=1e-12)

    def test_hamiltonian_only_on_maximally_mixed(self):
        rng = np.random.default_rng(2)
        d = 3
        g = random_generator(d, rng, coeff=np.zeros((8, 8)))
        out = apply_generator(g, np.eye(d) / d)
        np.testing.assert_allclose(out, np.zeros((d, d)), atol=1e-15)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.choice([2, 3, 4]))
            g = random_generator(d, rng)
            rho = random_hermitian(d, rng)
            out = apply_generator(g, rho)
            assert abs(np.trace(out)) <= 1e-10 * max(1.0, fro_norm(rho))
            assert fro_norm(out - out.conj().T) <= 1e-10 * max(1.0, fro_norm(out))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            apply_generator(_null_generator(), np.zeros((3, 3)))


class TestGeneratorValidation:
    def test_rejects_traced_hamiltonian(self):
        with pytest.raises(NonTraceless):
            GKSGenerator(
                dim=2, hamiltonian=np.eye(2), coeff=np.zeros((3, 3)), basis=standard_basis(2)
            )

    def test_rejects_non_hermitian_coeff(self):
        coeff = np.zeros((3, 3), dtype=complex)
        coeff[0, 1] = 1.0
        with pytest.raises(NonHermitian):
            GKSGenerator(
                dim=2, hamiltonian=np.zeros((2, 2)), coeff=coeff, basis=standard_basis(2)
            )

    def test_rejects_non_finite_coeff(self):
        with pytest.raises(NonFinite):
            GKSGenerator(
                dim=2,
                hamiltonian=np.zeros((2, 2)),
                coeff=np.diag([np.nan, 1.0, -1.0]),
                basis=standard_basis(2),
            )

    def test_rejects_basis_dimension_mismatch(self):
        with pytest.raises(ShapeMismatch):
            GKSGenerator(
                dim=3, hamiltonian=np.zeros((3, 3)), coeff=np.zeros((8, 8)), basis=standard_basis(2)
            )
        with pytest.raises(ShapeMismatch):
            lindblad_to_gks(LindbladGenerator(dim=2, hamiltonian=np.zeros((2, 2))), standard_basis(3))

    def test_rejects_traced_jump(self):
        with pytest.raises(NonTracelessJump):
            LindbladGenerator(dim=2, hamiltonian=np.zeros((2, 2)), jump_ops=(np.eye(2),))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_rejects_hamiltonian_whose_norm_overflows(self):
        h = np.array([[0.0, 1e200], [1e200, 0.0]])
        with pytest.raises(NonFinite, match="hamiltonian has a Frobenius norm that overflows"):
            GKSGenerator(dim=2, hamiltonian=h, coeff=np.eye(3), basis=standard_basis(2))
        with pytest.raises(NonFinite, match="hamiltonian has a Frobenius norm that overflows"):
            LindbladGenerator(dim=2, hamiltonian=h)


class TestReadOnlyCopies:
    """Generators and superoperators keep read-only copies of their validated arrays."""

    def test_gks_ignores_writes_to_the_callers_arrays(self):
        rng = np.random.default_rng(26)
        h, c = random_traceless_hermitian(3, rng), random_hermitian(8, rng)
        g = GKSGenerator(dim=3, hamiltonian=h, coeff=c, basis=standard_basis(3))
        h_before, c_before = h.copy(), c.copy()
        matrix_before = superoperator_of(g).matrix
        c[0, 1] = 5.0
        h[0, 1] = 7.0
        np.testing.assert_array_equal(g.coeff, c_before)
        np.testing.assert_array_equal(g.hamiltonian, h_before)
        np.testing.assert_array_equal(superoperator_of(g).matrix, matrix_before)
        with pytest.raises(ValueError):
            g.coeff[0, 1] = 5.0
        with pytest.raises(ValueError):
            g.hamiltonian[0, 1] = 7.0

    def test_lindblad_ignores_writes_to_the_callers_arrays(self):
        rng = np.random.default_rng(27)
        h = random_traceless_hermitian(3, rng)
        v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        v -= np.trace(v) / 3 * np.eye(3)
        l = LindbladGenerator(dim=3, hamiltonian=h, jump_ops=(v,))
        h_before, v_before = h.copy(), v.copy()
        matrix_before = superoperator_of(lindblad_to_gks(l, standard_basis(3))).matrix
        v[0, 1] = 5.0
        h[0, 1] = 7.0
        np.testing.assert_array_equal(l.jump_ops[0], v_before)
        np.testing.assert_array_equal(l.hamiltonian, h_before)
        rebuilt = superoperator_of(lindblad_to_gks(l, standard_basis(3))).matrix
        np.testing.assert_array_equal(rebuilt, matrix_before)
        with pytest.raises(ValueError):
            l.jump_ops[0][0, 1] = 5.0
        with pytest.raises(ValueError):
            l.hamiltonian[0, 1] = 7.0

    def test_superoperator_ignores_writes_to_the_callers_matrix(self):
        m = np.eye(4, dtype=complex)
        s = Superoperator(dim=2, matrix=m)
        m[0, 0] = np.nan
        np.testing.assert_array_equal(s.matrix, np.eye(4))
        with pytest.raises(ValueError):
            s.matrix[0, 0] = np.nan


def test_verdict_witness_and_convert_do_not_recheck_coeff(monkeypatch):
    """``C`` is validated once, when the generator is built: the verdict, the
    witness and the conversion never hand ``g.coeff`` to ``require_hermitian``."""
    seen = []
    original = linalg.require_hermitian

    def recording(m, *args, **kwargs):
        seen.append(m)
        return original(m, *args, **kwargs)

    rng = np.random.default_rng(28)
    n = 8
    negative = random_generator(3, rng, coeff=random_psd(n, rng) - 20.0 * np.eye(n))
    positive = random_generator(3, rng, coeff=random_psd(n, rng))
    for module in (linalg, generator, dynamics, witness):
        if hasattr(module, "require_hermitian"):
            monkeypatch.setattr(module, "require_hermitian", recording)

    assert not is_completely_positive(negative).is_cp
    assert isinstance(construct_witness(negative), WitnessCandidate)
    assert is_completely_positive(positive).is_cp
    assert isinstance(construct_witness(positive), NoNegativeDirection)
    gks_to_lindblad(positive)
    assert seen, "the patched require_hermitian was never reached"
    for g in (negative, positive):
        assert not any(isinstance(m, np.ndarray) and np.shares_memory(m, g.coeff) for m in seen)


class TestLindbladToGks:
    def test_single_lowering_operator(self):
        lind = LindbladGenerator(dim=2, hamiltonian=np.zeros((2, 2)), jump_ops=(SMINUS,))
        g = lindblad_to_gks(lind, standard_basis(2))
        expected = np.array(
            [[0.5, 0.5j, 0.0], [-0.5j, 0.5, 0.0], [0.0, 0.0, 0.0]], dtype=complex
        )
        np.testing.assert_allclose(g.coeff, expected, atol=1e-14)

    def test_no_jumps_gives_zero_coeff(self):
        lind = LindbladGenerator(dim=2, hamiltonian=np.zeros((2, 2)))
        g = lindblad_to_gks(lind, standard_basis(2))
        np.testing.assert_array_equal(g.coeff, np.zeros((3, 3)))

    def test_basis_element_jump_gives_unit_coeff(self):
        basis = standard_basis(3)
        lind = LindbladGenerator(dim=3, hamiltonian=np.zeros((3, 3)), jump_ops=(basis.elements[0],))
        g = lindblad_to_gks(lind, basis)
        expected = np.zeros((8, 8))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(g.coeff, expected, atol=1e-14)

    def test_coeff_is_psd(self):
        rng = np.random.default_rng(10)
        basis = standard_basis(3)
        jumps = []
        for _ in range(4):
            v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            jumps.append(v - np.trace(v) / 3 * np.eye(3))
        g = lindblad_to_gks(
            LindbladGenerator(dim=3, hamiltonian=np.zeros((3, 3)), jump_ops=tuple(jumps)),
            basis,
        )
        assert np.linalg.eigvalsh(g.coeff)[0] >= -1e-12

    def test_action_matches_direct_lindblad(self):
        rng = np.random.default_rng(11)
        d = 3
        basis = standard_basis(d)
        jumps = []
        for _ in range(3):
            v = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            jumps.append(v - np.trace(v) / d * np.eye(d))
        h = random_generator(d, rng).hamiltonian
        lind = LindbladGenerator(dim=d, hamiltonian=h, jump_ops=tuple(jumps))
        g = lindblad_to_gks(lind, basis)
        for _ in range(10):
            rho = random_hermitian(d, rng)
            direct = -1j * (h @ rho - rho @ h)
            for v in jumps:
                direct += v @ rho @ v.conj().T - 0.5 * (
                    v.conj().T @ v @ rho + rho @ v.conj().T @ v
                )
            np.testing.assert_allclose(apply_generator(g, rho), direct, atol=1e-10)


class TestGksToLindblad:
    def test_zero_coeff_gives_empty_jumps(self):
        assert gks_to_lindblad(_null_generator()).jump_ops == ()

    def test_rank_one_coeff_recovers_basis_element(self):
        basis = standard_basis(2)
        coeff = np.zeros((3, 3))
        coeff[0, 0] = 1.0
        g = GKSGenerator(dim=2, hamiltonian=np.zeros((2, 2)), coeff=coeff, basis=basis)
        lind = gks_to_lindblad(g)
        assert len(lind.jump_ops) == 1
        v = lind.jump_ops[0]
        overlap = abs(np.einsum("ij,ij->", basis.elements[0].conj(), v))
        assert overlap == pytest.approx(fro_norm(v), abs=1e-12)
        assert fro_norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_reproduces_coeff_and_action(self):
        rng = np.random.default_rng(20)
        for d in range(2, 7):
            n = d * d - 1
            coeff = random_psd(n, rng)
            g = random_generator(d, rng, coeff=coeff)
            lind = gks_to_lindblad(g)
            back = lindblad_to_gks(lind, g.basis)
            assert fro_norm(back.coeff - g.coeff) <= 1e-9 * max(1.0, fro_norm(g.coeff))
            for _ in range(5 if d <= 3 else 2):
                rho = random_hermitian(d, rng)
                np.testing.assert_allclose(
                    apply_generator(back, rho), apply_generator(g, rho), atol=1e-10
                )

    def test_rejects_negative_coeff(self):
        g = random_generator(2, np.random.default_rng(21), coeff=np.diag([1.0, 1.0, -1.0]))
        with pytest.raises(NotCompletelyPositive):
            gks_to_lindblad(g)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_conversion_matches_the_per_operator_formulas(d):
    """``C = V^T conj(V)`` is ``sum_r v_r v_r^dagger`` to a few ulps of ``||C||_F``, and
    the jumps of a rank-deficient ``C`` are ``sqrt(lambda_k) sum_a u_ak F_a`` to a few
    ulps of ``sqrt(||C||_F)``, their own scale; jumps and eigenvectors are complex."""
    rng = np.random.default_rng(50 + d)
    n, ulp = d * d - 1, np.finfo(float).eps
    basis = standard_basis(d)
    jumps = []
    for _ in range(2):
        v = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        jumps.append(v - np.trace(v) / d * np.eye(d))
    lind = LindbladGenerator(dim=d, hamiltonian=np.zeros((d, d)), jump_ops=tuple(jumps))
    g = lindblad_to_gks(lind, basis)
    ref = sum(np.outer(v, v.conj()) for v in map(basis.expansion_coefficients, jumps))
    assert fro_norm(g.coeff - ref) <= 4 * ulp * fro_norm(ref)

    g = random_generator(d, rng, coeff=random_psd(n, rng, rank=max(1, n // 3)))
    vals, vecs = np.linalg.eigh((g.coeff + g.coeff.conj().T) / 2)
    expected = [
        np.sqrt(lam) * sum(vecs[a, k] * basis.elements[a] for a in range(n))
        for k, lam in enumerate(vals)
        if lam > 1e-12 * max(1.0, vals[-1])
    ]
    got = gks_to_lindblad(g).jump_ops
    assert len(got) == len(expected) == max(1, n // 3)
    assert fro_norm(np.stack(got) - np.stack(expected)) <= 4 * ulp * np.sqrt(fro_norm(g.coeff))


class TestSuperoperator:
    def test_null_generator_gives_zero_matrix(self):
        s = superoperator_of(_null_generator())
        np.testing.assert_array_equal(s.matrix, np.zeros((4, 4)))

    def test_pure_hamiltonian_spectrum(self):
        rng = np.random.default_rng(30)
        d = 3
        g = random_generator(d, rng, coeff=np.zeros((8, 8)))
        s = superoperator_of(g)
        eigs = np.linalg.eigvals(s.matrix)
        assert np.max(np.abs(eigs.real)) <= 1e-12
        # Oracle: the commutator superoperator -i(I kron H - H^T kron I).
        h = g.hamiltonian
        oracle = -1j * (np.kron(np.eye(d), h) - np.kron(h.T, np.eye(d)))
        np.testing.assert_allclose(s.matrix, oracle, atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_consistency_with_apply(self, d):
        # Random traceless H and an indefinite complex C, against two
        # matrix-free evaluations of the generator.
        rng = np.random.default_rng(31 + d)
        g = random_generator(d, rng)
        assert np.linalg.eigvalsh(g.coeff)[0] < 0 < np.max(np.abs(g.coeff.imag))
        s = superoperator_of(g)
        for _ in range(5):
            rho = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            out = s.apply(rho)
            naive = _naive_apply(g.hamiltonian, g.coeff, g.basis.elements, rho)
            atol = 1e-12 * max(1.0, np.max(np.abs(naive)))
            np.testing.assert_allclose(out, naive, rtol=0, atol=atol)
            np.testing.assert_allclose(out, apply_generator(g, rho), rtol=0, atol=atol)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_bitwise_equal_to_kron_formula(self, d):
        g = random_generator(d, np.random.default_rng(36 + d))
        ref = generator_matrix_kron(g.hamiltonian, g.coeff, g.basis.elements)
        assert np.array_equal(superoperator_of(g).matrix, ref)

    def test_bitwise_equal_to_kron_formula_with_anti_hermitian_part(self):
        """A stored ``C`` with a ``1e-12`` anti-Hermitian part, inside the
        Hermiticity tolerance, is built from as it is."""
        rng = np.random.default_rng(35)
        n = 15
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g = random_generator(4, rng, coeff=random_hermitian(n, rng) + 1e-12 * (a - a.conj().T) / 2)
        assert np.max(np.abs(g.coeff - g.coeff.conj().T)) > 1e-13
        ref = generator_matrix_kron(g.hamiltonian, g.coeff, g.basis.elements)
        assert np.array_equal(superoperator_of(g).matrix, ref)

    def test_hermiticity_preserving_action(self):
        rng = np.random.default_rng(32)
        g = random_generator(3, rng)
        s = superoperator_of(g)
        rho = random_hermitian(3, rng)
        out = s.apply(rho)
        assert fro_norm(out - out.conj().T) <= 1e-10 * max(1.0, fro_norm(out))

    def test_shape_validation(self):
        with pytest.raises(ShapeMismatch):
            Superoperator(dim=2, matrix=np.zeros((3, 3)))


def test_basis_covariance():
    """Converting through two valid bases yields the same superoperator."""
    rng = np.random.default_rng(40)
    d = 3
    n = d * d - 1
    std = standard_basis(d)
    mix = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    rotated = np.einsum("ab,aij->bij", mix, std.elements)
    other = OperatorBasis(dim=d, elements=rotated)
    jumps = []
    for _ in range(2):
        v = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        jumps.append(v - np.trace(v) / d * np.eye(d))
    h = random_generator(d, rng).hamiltonian
    lind = LindbladGenerator(dim=d, hamiltonian=h, jump_ops=tuple(jumps))
    s1 = superoperator_of(lindblad_to_gks(lind, std)).matrix
    s2 = superoperator_of(lindblad_to_gks(lind, other)).matrix
    assert fro_norm(s1 - s2) <= 1e-9 * max(1.0, fro_norm(s1))
