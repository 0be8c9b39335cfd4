import numpy as np
import pytest
import scipy.linalg

from cplab import (
    GKSGenerator,
    NoNegativeDirection,
    NotApplicable,
    OperatorBasis,
    Superoperator,
    WitnessCandidate,
    bell_phi_matrix,
    construct_witness,
    direction_operator,
    negativity_scan,
    overlap_rate,
    similarity_to_transpose,
    standard_basis,
    symmetric_case_witness,
    tensor_extension,
)
from cplab.errors import (
    InvalidGrid,
    NonFinite,
    NotOrthogonal,
    TraceConditionViolated,
    ZeroVector,
)
from cplab.generator import _generator_matrix

from helpers import (
    overlap_rate_trace_form,
    random_generator,
    random_hermitian,
    random_psd,
    random_pure_vector,
)


def _neg_generator(d=2, entries=(1.0, 1.0, -1.0)):
    return GKSGenerator(
        dim=d,
        hamiltonian=np.zeros((d, d)),
        coeff=np.diag(entries).astype(complex),
        basis=standard_basis(d),
    )


def _random_orthogonal_pair(d, rng):
    """Coefficient matrices with Tr(Psi Phi^dagger) = 0."""
    phi_m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    psi_m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    cross = np.trace(psi_m @ phi_m.conj().T)
    psi_m = psi_m - cross / np.trace(phi_m @ phi_m.conj().T) * phi_m
    return phi_m, psi_m


class TestOverlapRate:
    def test_pure_hamiltonian_gives_zero(self):
        rng = np.random.default_rng(0)
        d = 3
        g = random_generator(d, rng, coeff=np.zeros((8, 8)))
        phi_m, psi_m = _random_orthogonal_pair(d, rng)
        value = overlap_rate(g, phi_m.reshape(-1), psi_m.reshape(-1))
        assert abs(value) <= 1e-10
        assert abs(overlap_rate_trace_form(g.coeff, g.basis, phi_m, psi_m)) <= 1e-15

    def test_null_generator_gives_zero(self):
        g = _neg_generator(entries=(0.0, 0.0, 0.0))
        phi_m, psi_m = _random_orthogonal_pair(2, np.random.default_rng(1))
        assert overlap_rate(g, phi_m.reshape(-1), psi_m.reshape(-1)) == pytest.approx(0.0, abs=1e-12)

    def test_diag_negative_direction_fixture(self):
        # Direction (0, 0, 1): W = sigma_z/(2 sqrt 2) is symmetric, so the
        # identity conjugates it into its transpose and Psi^dagger = W.
        g = _neg_generator()
        w_op = direction_operator([0.0, 0.0, 1.0], g.basis)
        phi_m = np.eye(2, dtype=complex)
        psi_m = w_op.conj().T
        value = overlap_rate(g, phi_m.reshape(-1), psi_m.reshape(-1))
        assert value < 0
        quad = -1.0  # w^dag C w for w = (0,0,1)
        assert np.sign(value) == np.sign(quad)
        trace_value = overlap_rate_trace_form(g.coeff, g.basis, phi_m, psi_m)
        assert value == pytest.approx(trace_value, abs=1e-12)

    def test_rejects_non_orthogonal_pair(self):
        g = _neg_generator()
        v = np.ones(4)
        with pytest.raises(NotOrthogonal):
            overlap_rate(g, v, v)

    def test_rejects_zero_vector(self):
        g = _neg_generator()
        with pytest.raises(ZeroVector):
            overlap_rate(g, np.ones(4), np.zeros(4))

    def test_rejects_non_finite_vectors(self):
        g = _neg_generator()
        psi = np.array([0.0, 1.0, -1.0, 0.0])
        phi = np.array([1.0, 0.0, 0.0, 1.0])
        with pytest.raises(NonFinite):
            overlap_rate(g, np.array([np.nan, 0.0, 0.0, 1.0]), psi)
        with pytest.raises(NonFinite):
            negativity_scan(g, np.array([np.nan, 1.0, -1.0, 0.0]), phi)
        with pytest.raises(NonFinite):
            negativity_scan(g, psi, np.array([np.inf, 0.0, 0.0, 1.0]))

    def test_unitary_part_independence(self):
        rng = np.random.default_rng(2)
        d = 3
        coeff = random_hermitian(8, rng)
        g1 = random_generator(d, rng, coeff=coeff)
        g2 = random_generator(d, rng, coeff=coeff)  # different Hamiltonian
        phi_m, psi_m = _random_orthogonal_pair(d, rng)
        v1 = overlap_rate(g1, phi_m.reshape(-1), psi_m.reshape(-1))
        v2 = overlap_rate(g2, phi_m.reshape(-1), psi_m.reshape(-1))
        assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1))


class TestTraceForm:
    def test_zero_coeff(self):
        rng = np.random.default_rng(3)
        g = random_generator(2, rng, coeff=np.zeros((3, 3)))
        phi_m, psi_m = _random_orthogonal_pair(2, rng)
        assert overlap_rate_trace_form(g.coeff, g.basis, phi_m, psi_m) == 0.0

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_direct_evaluation(self, d):
        rng = np.random.default_rng(30 + d)
        for _ in range(25):
            g = random_generator(d, rng)
            phi_m, psi_m = _random_orthogonal_pair(d, rng)
            direct = overlap_rate(g, phi_m.reshape(-1), psi_m.reshape(-1))
            traced = overlap_rate_trace_form(g.coeff, g.basis, phi_m, psi_m)
            assert abs(direct - traced) <= 1e-9 * (1.0 + abs(direct))

    def test_rejects_trace_condition_violation(self):
        g = _neg_generator()
        with pytest.raises(TraceConditionViolated):
            overlap_rate_trace_form(g.coeff, g.basis, np.eye(2), np.eye(2))


class TestConstructWitness:
    def test_diag_negative_direction(self):
        g = _neg_generator()
        candidate = construct_witness(g, rng=np.random.default_rng(4))
        assert isinstance(candidate, WitnessCandidate)
        assert candidate.value < 0
        assert candidate.quadratic_form == pytest.approx(-1.0)
        # Measured proportionality: the rate is exactly half the quadratic form.
        assert candidate.value == pytest.approx(0.5 * candidate.quadratic_form, abs=1e-10)

    def test_psd_coeff_gives_no_direction(self):
        rng = np.random.default_rng(5)
        g = random_generator(2, rng, coeff=random_psd(3, rng))
        result = construct_witness(g, rng=rng)
        assert isinstance(result, NoNegativeDirection)
        assert result.min_coeff_eigenvalue >= 0.0

    def test_bell_fixture_reproduces_fixed_matrices(self):
        # Traceless W with entries (alpha, beta, gamma) = (1, 2, 3).
        alpha, beta, gamma = 1.0, 2.0, 3.0
        w_op = np.array([[alpha, beta], [gamma, -alpha]], dtype=complex)
        phi_m = bell_phi_matrix()
        psi_dag = np.linalg.solve(phi_m, w_op)
        expected = np.sqrt(2.0) * np.array([[-gamma, alpha], [alpha, beta]], dtype=complex)
        np.testing.assert_allclose(psi_dag, expected, atol=1e-14)
        np.testing.assert_allclose(psi_dag @ phi_m, -w_op.T, atol=1e-14)

    def test_bell_fixture_pipeline_accepts_sign_flip(self):
        g = _neg_generator()
        rng = np.random.default_rng(6)
        solver_candidate = construct_witness(g, rng=rng)
        bell_candidate = construct_witness(g, rng=rng, phi_matrix=bell_phi_matrix())
        assert bell_candidate.transpose_sign == -1
        assert bell_candidate.value == pytest.approx(solver_candidate.value, abs=1e-10)
        assert bell_candidate.value < 0

    def test_scale_invariance_of_sign(self):
        g = _neg_generator()
        base = construct_witness(g, rng=np.random.default_rng(7))
        scaled_dir = 3.0 * np.exp(0.4j) * base.direction
        w_op = direction_operator(scaled_dir, g.basis)
        phi_m = similarity_to_transpose(w_op, rng=np.random.default_rng(8))
        psi_m = np.linalg.solve(phi_m, w_op).conj().T
        value = overlap_rate(g, phi_m.reshape(-1), psi_m.reshape(-1))
        assert value == pytest.approx(9.0 * base.value, rel=1e-9)

    def test_random_non_cp_generators_yield_negative_value(self):
        rng = np.random.default_rng(9)
        for d in (2, 3):
            for _ in range(10):
                coeff = random_hermitian(d * d - 1, rng)
                coeff -= (np.linalg.eigvalsh(coeff)[0] + 0.2) * np.eye(d * d - 1)
                g = random_generator(d, rng, coeff=coeff)
                candidate = construct_witness(g, rng=rng)
                assert isinstance(candidate, WitnessCandidate)
                assert candidate.value < 0
                assert candidate.value == pytest.approx(
                    0.5 * candidate.quadratic_form, rel=1e-8
                )

    @pytest.mark.parametrize("d", [16, 20])
    def test_similarity_solver_at_large_d(self, d):
        # |det| of a well-conditioned candidate of spectral norm 1 falls
        # below 1e-10 around d = 16; the solver's floor is on
        # sigma_min / sigma_max instead, so these witnesses are found.
        rng = np.random.default_rng(d)
        n = d * d - 1
        for _ in range(2):
            coeff = random_hermitian(n, rng)
            coeff -= (np.linalg.eigvalsh(coeff)[0] + 0.5) * np.eye(n)
            g = random_generator(d, rng, coeff=coeff, hamiltonian=np.zeros((d, d)))
            candidate = construct_witness(g, rng=rng)
            assert isinstance(candidate, WitnessCandidate)
            assert candidate.value == pytest.approx(-0.25, rel=1e-8)


class TestNegativityScan:
    def test_cp_generator_stays_positive(self):
        rng = np.random.default_rng(10)
        g = random_generator(2, rng, coeff=random_psd(3, rng))
        psi = random_pure_vector(4, rng)
        phi = random_pure_vector(4, rng)
        scan = negativity_scan(g, psi, phi)
        assert scan.first_negative_time is None
        assert np.all(scan.min_eigenvalues >= -1e-9)

    def test_witness_state_goes_negative(self):
        g = _neg_generator()
        candidate = construct_witness(g, rng=np.random.default_rng(11))
        scan = negativity_scan(g, candidate.psi, candidate.phi)
        assert scan.first_negative_time is not None
        assert scan.first_negative_time <= 1e-2
        # First-order behavior: the overlap starts at zero and dips negative.
        assert scan.overlap_values[0] < 0

    def test_derivative_matches_overlap_rate(self):
        g = _neg_generator()
        candidate = construct_witness(g, rng=np.random.default_rng(12))
        h = 1e-6
        scan = negativity_scan(g, candidate.psi, candidate.phi, t_grid=[0.0, h])
        psi_hat = candidate.psi / np.linalg.norm(candidate.psi)
        rate = overlap_rate(g, candidate.phi, psi_hat)
        finite_diff = (scan.overlap_values[1] - scan.overlap_values[0]) / h
        assert abs(finite_diff - rate) <= max(1e-4, 1e-3 * abs(rate))

    def test_product_states_stay_positive_under_cp_dynamics(self):
        rng = np.random.default_rng(13)
        g = random_generator(2, rng, coeff=random_psd(3, rng))
        psi = np.kron(random_pure_vector(2, rng), random_pure_vector(2, rng))
        phi = random_pure_vector(4, rng)
        scan = negativity_scan(g, psi, phi)
        assert scan.first_negative_time is None

    def test_invalid_grids_rejected(self):
        g = _neg_generator()
        psi = np.arange(1, 5, dtype=complex)
        phi = np.array([1.0, 0, 0, -1.0 / 4], dtype=complex)
        for grid in ([], [-0.1, 0.2], [0.3, 0.2], [0.1, 0.1]):
            with pytest.raises(InvalidGrid):
                negativity_scan(g, psi, phi, t_grid=grid)

    def test_non_finite_grids_rejected(self):
        g = _neg_generator()
        psi = np.arange(1, 5, dtype=complex)
        phi = np.array([1.0, 0, 0, -1.0 / 4], dtype=complex)
        for grid in ([np.nan], [0.0, np.nan, 1.0], [0.1, np.inf]):
            with pytest.raises(InvalidGrid):
                negativity_scan(g, psi, phi, t_grid=grid)


class TestSymmetricCaseWitness:
    def test_agrees_in_sign_with_general_construction(self):
        g = _neg_generator()
        shortcut = symmetric_case_witness(g)
        general = construct_witness(g, rng=np.random.default_rng(14))
        assert isinstance(shortcut, WitnessCandidate)
        assert shortcut.value < 0
        assert np.sign(shortcut.value) == np.sign(general.value)
        # Phi is the flat choice I/d expressed in the diagonalizing frame of
        # W, so d * Phi must be unitary.
        scaled = 2.0 * shortcut.phi_matrix
        np.testing.assert_allclose(scaled @ scaled.conj().T, np.eye(2), atol=1e-12)

    def test_psd_symmetric_gives_no_direction(self):
        rng = np.random.default_rng(15)
        coeff = random_psd(3, rng).real
        g = random_generator(2, rng, coeff=coeff)
        assert isinstance(symmetric_case_witness(g), NoNegativeDirection)

    def test_complex_coeff_not_applicable(self):
        rng = np.random.default_rng(16)
        coeff = random_hermitian(3, rng)
        coeff[0, 1] = 0.5j
        coeff[1, 0] = -0.5j
        g = random_generator(2, rng, coeff=coeff)
        result = symmetric_case_witness(g)
        assert isinstance(result, NotApplicable)
        assert "imaginary" in result.reason

    def test_non_hermitian_basis_not_applicable(self):
        rng = np.random.default_rng(17)
        d = 2
        std = standard_basis(d)
        mix = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        basis = OperatorBasis(dim=d, elements=np.einsum("ab,aij->bij", mix, std.elements))
        g = GKSGenerator(
            dim=d, hamiltonian=np.zeros((d, d)), coeff=np.diag([1.0, 1.0, -1.0]), basis=basis
        )
        result = symmetric_case_witness(g)
        assert isinstance(result, NotApplicable)
        assert "Hermiticity" in result.reason

    def test_random_real_negative_cases(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            coeff = random_hermitian(3, rng).real
            coeff = (coeff + coeff.T) / 2
            coeff -= (np.linalg.eigvalsh(coeff)[0] + 0.3) * np.eye(3)
            g = random_generator(2, rng, coeff=coeff)
            shortcut = symmetric_case_witness(g)
            general = construct_witness(g, rng=rng)
            assert np.sign(shortcut.value) == np.sign(general.value) == -1.0


def test_single_sided_extension_regression():
    """The one-sided doubled generator with the flat symmetric coefficient
    matrix reduces to the plain quadratic form of the direction."""
    rng = np.random.default_rng(19)
    d = 3
    g = random_generator(d, rng)
    eye = np.eye(d)
    ops_left = np.stack([np.kron(f, eye) for f in g.basis.elements])
    single = Superoperator(
        dim=d * d,
        matrix=_generator_matrix(np.kron(g.hamiltonian, eye), g.coeff, ops_left),
    )
    for _ in range(5):
        u = rng.standard_normal(d * d - 1) + 1j * rng.standard_normal(d * d - 1)
        w_op = d * np.tensordot(u, g.basis.elements, axes=1)
        phi = (np.eye(d) / d).reshape(-1)
        psi = w_op.conj().T.reshape(-1)
        assert abs(np.vdot(phi, psi)) <= 1e-12 * np.linalg.norm(psi)
        image = single.apply(np.outer(psi, psi.conj()))
        value = float(np.vdot(phi, image @ phi).real)
        expected = float(np.vdot(u, g.coeff @ u).real)
        assert value == pytest.approx(expected, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_doubled_dynamics_match_tensor_extension_reference(d):
    rng = np.random.default_rng(40 + d)
    coeff = random_hermitian(d * d - 1, rng)
    g = random_generator(d, rng, coeff=coeff / np.linalg.norm(coeff))
    psi = random_pure_vector(d * d, rng)
    phi = random_pure_vector(d * d, rng)
    phi -= np.vdot(psi, phi) * psi
    ext = tensor_extension(g)
    rho0 = np.outer(psi, psi.conj())
    expected_rate = np.vdot(phi, ext.apply(rho0) @ phi).real
    assert abs(overlap_rate(g, phi, psi) - expected_rate) <= 1e-12
    times = (0.0, 1e-3, 0.1, 1.0)
    scan = negativity_scan(g, psi, phi, t_grid=times)
    for idx, t in enumerate(times):
        rho_t = Superoperator(dim=d * d, matrix=scipy.linalg.expm(t * ext.matrix)).apply(rho0)
        herm = (rho_t + rho_t.conj().T) / 2.0
        assert abs(scan.min_eigenvalues[idx] - np.linalg.eigvalsh(herm)[0]) <= 1e-12
        assert abs(scan.overlap_values[idx] - np.vdot(phi, herm @ phi).real) <= 1e-12
