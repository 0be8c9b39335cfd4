import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cplab import (
    DensityMatrix,
    GKSGenerator,
    LindbladGenerator,
    Superoperator,
    construct_witness,
    hermitian_eig,
    lindblad_to_gks,
    matrix_exp,
    min_eigenvalue,
    similarity_to_transpose,
    standard_basis,
    superoperator_of,
)
from cplab.errors import NegativeTime, NonFinite, NonHermitian, NonSquare, ShapeMismatch
from cplab.linalg import fro_norm, unvec, vec
from cplab.witness import DEFAULT_SCAN_GRID

from helpers import (
    apply_generator,
    overlap_rate_trace_form,
    random_generator,
    random_hermitian,
    random_psd,
)

#: Times at which the kernel is checked against scipy's expm.
ORACLE_TIMES = tuple(sorted({0.0, 3.0, 10.0, *DEFAULT_SCAN_GRID}))


def _assert_matches_expm(m, times, rtol=1e-10):
    """``matrix_exp`` with and without ``times`` against scipy's expm."""
    stack = matrix_exp(m, times)
    assert stack.shape == (len(times), *m.shape)
    for t, out in zip(times, stack):
        ref = scipy.linalg.expm(t * m)
        assert fro_norm(out - ref) <= rtol * fro_norm(ref)
        assert fro_norm(matrix_exp(t * m) - ref) <= rtol * fro_norm(ref)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


class TestHermitianEig:
    def test_identity(self):
        vals, _ = hermitian_eig(np.eye(2))
        np.testing.assert_allclose(vals, [1.0, 1.0])

    def test_pauli_x_spectrum(self):
        vals, _ = hermitian_eig(SX)
        np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-14)

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            vals, _ = hermitian_eig(random_hermitian(5, rng))
            assert np.all(np.diff(vals) >= 0)

    def test_eigenvectors_unitary(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            _, v = hermitian_eig(random_hermitian(4, rng))
            assert fro_norm(v.conj().T @ v - np.eye(4)) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(NonSquare):
            hermitian_eig(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestMatrixExp:
    def test_zero_gives_exact_identity(self):
        out = matrix_exp(np.zeros((3, 3)))
        assert np.array_equal(out, np.eye(3))

    def test_diagonal(self):
        out = matrix_exp(np.diag([np.log(2.0), 0.0]))
        np.testing.assert_allclose(out, np.diag([2.0, 1.0]), atol=1e-14)

    def test_inverse_identity(self):
        rng = np.random.default_rng(21)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert fro_norm(matrix_exp(m) @ matrix_exp(-m) - np.eye(4)) <= 1e-9

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        s=st.floats(0.0, 1.0),
        t=st.floats(0.0, 1.0),
    )
    def test_additivity(self, seed, s, t):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = matrix_exp(s * m) @ matrix_exp(t * m)
        rhs = matrix_exp((s + t) * m)
        assert fro_norm(lhs - rhs) <= 1e-9

    def test_rejects_non_square(self):
        with pytest.raises(NonSquare):
            matrix_exp(np.zeros((2, 3)))

    def test_rejects_non_finite_matrix(self):
        with pytest.raises(NonFinite):
            matrix_exp(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("d", range(2, 9))
    def test_generator_grid_matches_expm(self, d):
        g = random_generator(d, np.random.default_rng(600 + d))
        _assert_matches_expm(superoperator_of(g).matrix, ORACLE_TIMES)

    def test_jordan_block_matches_expm(self):
        jordan = np.eye(6, k=1) - 0.5 * np.eye(6)
        _assert_matches_expm(jordan, ORACLE_TIMES)

    def test_grid_with_different_squaring_counts(self):
        rng = np.random.default_rng(61)
        g = random_generator(3, rng, coeff=random_psd(8, rng))
        base = superoperator_of(g).matrix
        times = (0.0, 1e-3, 0.05, 0.5, 4.0, 60.0)
        # theta_13 = 5.37: the first times need no squaring, the last one 10+.
        scaled = np.array(times) * np.linalg.norm(base, 1)
        assert scaled[1] < 5.37 and scaled[-1] > 2**10 * 5.37
        _assert_matches_expm(base, times)

    def test_huge_norm_stays_finite(self):
        # Cascaded decay to the ground state; the powers of 1e30 * L would
        # overflow without normalization.
        low = np.eye(3, k=1)
        lind = LindbladGenerator(dim=3, hamiltonian=np.zeros((3, 3)), jump_ops=(low,))
        base = superoperator_of(lindblad_to_gks(lind, standard_basis(3))).matrix
        ref = scipy.linalg.expm(1e30 * base)
        for out in (matrix_exp(1e30 * base), matrix_exp(base, (1e30,))[0]):
            assert np.all(np.isfinite(out))
            assert fro_norm(out - ref) <= 1e-10 * fro_norm(ref)

    def test_zero_matrix_gives_exact_identity_on_a_grid(self):
        stack = matrix_exp(np.zeros((3, 3)), ORACLE_TIMES)
        for out in stack:
            assert np.array_equal(out, np.eye(3))

    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
    def test_rejects_bad_times(self, bad):
        with pytest.raises(NegativeTime):
            matrix_exp(np.eye(2), (0.0, bad))


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0)

    def test_pauli_z(self):
        assert min_eigenvalue(SZ) == pytest.approx(-1.0)

    def test_rank_deficient_projector(self):
        proj = np.zeros((3, 3))
        proj[0, 0] = 1.0
        assert min_eigenvalue(proj) == pytest.approx(0.0, abs=1e-14)


def _similarity_residual(w, p):
    return fro_norm(np.linalg.solve(p, w @ p) - w.T) / max(1.0, fro_norm(w))


class TestSimilarityToTranspose:
    def test_symmetric_identity_is_valid(self):
        # For symmetric W the identity already satisfies the contract.
        rng = np.random.default_rng(31)
        w = rng.standard_normal((3, 3))
        w = w + w.T
        assert _similarity_residual(w, np.eye(3)) == 0.0
        p = similarity_to_transpose(w, rng=rng)
        assert _similarity_residual(w, p) <= 1e-8

    def test_jordan_block_fixture(self):
        w = np.array([[0.0, 1.0], [0.0, 0.0]])
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(np.linalg.inv(p) @ w @ p, w.T)
        solved = similarity_to_transpose(w)
        assert _similarity_residual(w, solved) <= 1e-8

    def test_repeated_eigenvalues(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            s = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            w = s @ np.diag([0.7, 0.7, -0.2]) @ np.linalg.inv(s)
            p = similarity_to_transpose(w, rng=rng)
            assert _similarity_residual(w, p) <= 1e-8

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_batch(self, d):
        rng = np.random.default_rng(330 + d)
        for _ in range(50):
            w = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            p = similarity_to_transpose(w, rng=rng)
            assert _similarity_residual(w, p) <= 1e-8
            assert abs(np.linalg.det(p)) > 1e-10

    def test_defective_jordan_construction(self):
        rng = np.random.default_rng(34)
        for d in (2, 3, 4):
            for _ in range(20):
                jordan = np.zeros((d, d), dtype=complex)
                lam = rng.standard_normal() + 1j * rng.standard_normal()
                for i in range(d):
                    jordan[i, i] = lam
                    if i + 1 < d:
                        jordan[i, i + 1] = 1.0
                s = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                w = s @ jordan @ np.linalg.inv(s)
                p = similarity_to_transpose(w, rng=rng)
                assert _similarity_residual(w, p) <= 1e-8

    def test_zero_matrix(self):
        p = similarity_to_transpose(np.zeros((3, 3)))
        np.testing.assert_array_equal(p, np.eye(3))

    def test_rejects_non_square(self):
        with pytest.raises(NonSquare):
            similarity_to_transpose(np.zeros((2, 3)))


def test_vec_unvec_round_trip():
    rng = np.random.default_rng(41)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_array_equal(unvec(vec(m)), m)
    # Column stacking: the first d entries are the first column.
    np.testing.assert_array_equal(vec(m)[:3], m[:, 0])


_B2 = standard_basis(2)
_Z2 = np.zeros((2, 2))
_G2 = GKSGenerator(2, _Z2, np.eye(3), _B2)
_NEG2 = GKSGenerator(2, _Z2, np.diag([1.0, 1.0, -1.0]), _B2)

#: name: (call passing the matrix under test to one entry point, its size at d = 2).
SHAPE_CHECKED = {
    "gks-hamiltonian": (lambda m: GKSGenerator(2, m, np.eye(3), _B2), 2),
    "gks-coeff": (lambda m: GKSGenerator(2, _Z2, m, _B2), 3),
    "lindblad-hamiltonian": (lambda m: LindbladGenerator(2, m), 2),
    "lindblad-jump-op": (lambda m: LindbladGenerator(2, _Z2, (m,)), 2),
    "superoperator-matrix": (lambda m: Superoperator(2, m), 4),
    "superoperator-apply": (lambda m: Superoperator(2, np.eye(4)).apply(m), 2),
    "apply-generator": (lambda m: apply_generator(_G2, m), 2),
    "density-matrix": (lambda m: DensityMatrix(2, m), 2),
    "expansion-coefficients": (lambda m: _B2.expansion_coefficients(m), 2),
    "overlap-rate-trace-form": (lambda m: overlap_rate_trace_form(np.eye(3), _B2, m, m), 2),
    "witness-phi-matrix": (lambda m: construct_witness(_NEG2, phi_matrix=m), 2),
}


@pytest.mark.parametrize("call, n", SHAPE_CHECKED.values(), ids=SHAPE_CHECKED.keys())
def test_matrix_shape_checks(call, n):
    """A square input of the wrong size raises ShapeMismatch; a non-square one raises
    NonSquare, which callers catching ShapeMismatch also catch."""
    with pytest.raises(ShapeMismatch) as wrong_size:
        call(np.zeros((n + 1, n + 1)))
    assert not isinstance(wrong_size.value, NonSquare)
    with pytest.raises(ShapeMismatch) as not_square:
        call(np.zeros((n, n + 1)))
    assert isinstance(not_square.value, NonSquare)
