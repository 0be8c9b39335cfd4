import ast
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cplab import (
    DensityMatrix,
    GKSGenerator,
    gks_to_lindblad,
    is_completely_positive,
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
from cplab.errors import (
    CplabError,
    InvalidTolerance,
    NegativeTime,
    NonFinite,
    NonHermitian,
    NonSquare,
    ShapeMismatch,
    SolverFailure,
)
from cplab import linalg
from cplab.linalg import POSITIVITY_TOL, eps_pos, fro_norm, require_hermitian, require_tolerance
from cplab.dynamics import evolve
from cplab.witness import DEFAULT_SCAN_GRID, negativity_scan

from helpers import (
    apply_generator,
    coeff_at_cutoff,
    overlap_rate_trace_form,
    random_generator,
    random_hermitian,
    random_psd,
    similarity_to_transpose_loop,
    transpose_commutant_basis_kron,
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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_rejects_non_hermitian_whose_norm_overflows(self):
        """The deviation is inf / inf = NaN, which ``dev > tol`` would let through."""
        with pytest.raises(NonHermitian, match="hamiltonian deviates from Hermiticity by nan"):
            linalg.require_hermitian(np.array([[0.0, 1e200], [0.0, 0.0]]), "hamiltonian")

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
        # theta_30 = 3.54: the first times need no squaring, the last one 10+.
        scaled = np.array(times) * np.linalg.norm(base, 1)
        assert scaled[1] < 3.54 and scaled[-1] > 2**10 * 3.54
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

    def test_overflow_names_the_first_time(self):
        """e^800 is beyond the float range: the squarings overflow without a
        warning, and NonFinite names the first time whose propagator did."""
        with pytest.raises(NonFinite, match=r"overflowed at t = 800 after 8 squarings"):
            matrix_exp(np.diag([1.0, -1.0]), (1.0, 800.0, 1e3))

    def test_lengths_1_to_40_reach_every_block_size(self):
        assert linalg._block_size(1) == 4 and linalg._block_size(30) == 31
        assert {linalg._block_size(c) for c in range(1, 41)} == {
            linalg._block_size(c) for c in range(1, 5000)
        }

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
        times=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    )
    # The first length at which each block size q = 4, 8, 11, 16, 31 is picked.
    @example(d=5, seed=1, times=[0.9])
    @example(d=4, seed=2, times=[0.1, 0.7])
    @example(d=3, seed=3, times=list(np.linspace(0.0, 1.0, 4)))
    @example(d=5, seed=4, times=list(np.geomspace(1e-4, 1.0, 6)))
    @example(d=2, seed=5, times=list(np.linspace(0.0, 1.0, 16)))
    def test_every_block_size_matches_expm(self, d, seed, times):
        """Every time list of length 1 to 40 matches scipy's expm, and each
        single-time call matches its entry of the grid.

        Times span the default scan grid, [0, 1].  Further out the squarings
        amplify roundoff: at t = 10 the two evaluations differ by up to
        1.5e-13 relative, twice the largest distance of either from scipy's expm.
        """
        base = superoperator_of(random_generator(d, np.random.default_rng(seed))).matrix
        stack = matrix_exp(base, times)
        for t, out in zip(times, stack):
            ref = scipy.linalg.expm(t * base)
            assert fro_norm(out - ref) <= 1e-10 * fro_norm(ref)
            assert fro_norm(matrix_exp(base, (t,))[0] - out) <= 1e-13 * fro_norm(out)

    def test_never_solves(self, monkeypatch):
        def no_solve(*args, **kwargs):
            pytest.fail("matrix_exp called np.linalg.solve")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        base = superoperator_of(random_generator(3, np.random.default_rng(62))).matrix
        for times in (DEFAULT_SCAN_GRID, (0.5,)):
            assert matrix_exp(base, times).shape == (len(times), 9, 9)


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0)

    def test_pauli_z(self):
        assert min_eigenvalue(SZ) == pytest.approx(-1.0)

    def test_rank_deficient_projector(self):
        proj = np.zeros((3, 3))
        proj[0, 0] = 1.0
        assert min_eigenvalue(proj) == pytest.approx(0.0, abs=1e-14)


def _outside_margin(m, tol):
    """``(lambda_min, cutoff)`` of the positivity core for one outside matrix."""
    return linalg._hermitian_margin(require_hermitian(m), tol)[:2]


class TestPsdMargin:
    """The positivity core's ``(lambda_min, cutoff)``, for one matrix checked by
    ``require_hermitian`` and for a stack."""

    @pytest.mark.parametrize("tol", [0.0, 1e-12, POSITIVITY_TOL, 1e-3])
    def test_matrix_is_min_eigenvalue_and_eps_pos_bitwise(self, tol):
        rng = np.random.default_rng(60)
        for d, scale in ((2, 0.1), (3, 1.0), (5, 40.0)):
            m = random_hermitian(d, rng, scale)
            low, cutoff = _outside_margin(m, tol)
            assert (type(low), type(cutoff)) == (float, float)
            assert low == min_eigenvalue(m)
            assert cutoff == eps_pos(m, tol)

    def test_stack_matches_matrix_calls(self):
        """The core's lambda_min, cutoff and symmetrized matrix of each stack member are the
        bits of the single-matrix call, also for members off Hermiticity by ~1e-12, where
        symmetrizing moves the spectrum."""
        rng = np.random.default_rng(61)
        for k in range(2, 17):
            stack = np.stack([random_hermitian(k, rng, scale) for scale in (0.05, 1.0, 7.0)])
            stack = stack + 1e-12 * (rng.standard_normal(stack.shape) + 1j * rng.standard_normal(stack.shape))
            lows, cutoffs, syms = linalg._hermitian_margin(stack, POSITIVITY_TOL)
            assert lows.shape == cutoffs.shape == (3,)
            for m, low, cutoff, sym in zip(stack, lows, cutoffs, syms):
                single_low, single_cutoff, single_sym = linalg._hermitian_margin(m, POSITIVITY_TOL)
                assert (type(single_low), type(single_cutoff)) == (float, float)
                assert (low, cutoff) == (single_low, single_cutoff)
                assert np.array_equal(sym, single_sym)
                assert cutoff == eps_pos(m, POSITIVITY_TOL)
            # The smallest matrix has norm below 1, so its cutoff is tol itself.
            assert cutoffs[0] == POSITIVITY_TOL

    def test_stack_is_not_a_matrix(self):
        """``require_hermitian`` and ``min_eigenvalue`` take one outside matrix; a stack is refused."""
        stack = np.stack([np.eye(2), np.eye(2)])
        for call in (require_hermitian, min_eigenvalue):
            with pytest.raises(NonSquare):
                call(stack)

    def test_nan_matrix_raises_non_finite(self):
        m = np.array([[np.nan, 0.0], [0.0, 1.0]])
        for call in (min_eigenvalue, linalg._hermitian_margin):
            with pytest.raises(NonFinite):
                call(m)

    @pytest.mark.parametrize("tol", [0.0, POSITIVITY_TOL])
    def test_agrees_with_coeff_at_cutoff(self, tol):
        """At d = 2 (C is 3x3) the decision flips between -1 and 0 ulps of the
        boundary shift, exactly where the reference bisection puts it."""
        for seed in range(5):
            c0 = random_hermitian(3, np.random.default_rng(62 + seed))
            verdicts = []
            for ulps in (-1, 0, 1):
                c = coeff_at_cutoff(c0, tol, ulps)
                low, cutoff = _outside_margin(c, tol)
                assert (low, cutoff) == (min_eigenvalue(c), eps_pos(c, tol))
                verdicts.append(low >= -cutoff)
            assert verdicts == [False, True, True]

    @pytest.mark.parametrize("tol", [0.0, POSITIVITY_TOL, 1e-3])
    def test_scan_matches_a_per_point_loop(self, tol):
        """The scan's one stacked comparison finds the grid time that a loop of
        ``min_eigenvalue`` and ``eps_pos`` over the same states finds."""
        rng = np.random.default_rng(63)
        times = np.geomspace(1e-4, 3.0, 12)
        for d in (2, 3, 3):
            n = d * d - 1
            coeff = random_hermitian(n, rng)
            g = random_generator(d, rng, coeff=coeff - (min_eigenvalue(coeff) + 0.5) * np.eye(n))
            w = construct_witness(g, rng=rng)
            psi = w.psi / np.linalg.norm(w.psi)
            herm = [(s + s.conj().T) / 2 for s in evolve(g, np.outer(psi, psi.conj()), times)]
            expected = next(
                (t for t, h in zip(times, herm) if min_eigenvalue(h) < -eps_pos(h, tol)), None
            )
            assert negativity_scan(g, w.psi, w.phi, times, tol).first_negative_time == expected


class TestRequireTolerance:
    @pytest.mark.parametrize("tol", [0, 0.0, 1e-300, POSITIVITY_TOL, np.float64(0.5), 0.9999999999999999])
    def test_accepts_finite_values_in_unit_interval(self, tol):
        assert require_tolerance(tol) == tol
        assert type(require_tolerance(tol)) is float

    @pytest.mark.parametrize("tol", [np.nan, -1e-9, 1.0, np.inf, -np.inf, "1e-9", None, True, 1j])
    def test_refuses_everything_else(self, tol):
        with pytest.raises(InvalidTolerance) as raised:
            require_tolerance(tol)
        assert isinstance(raised.value, CplabError) and isinstance(raised.value, ValueError)

    @pytest.mark.parametrize("tol", [np.nan, -1e-9, 1.0])
    def test_every_decision_refuses_a_bad_tolerance(self, tol):
        """On a CP generator (C = I, d = 2), an unchecked NaN tolerance gives is_cp False, a
        witness of value +0.5 and a conversion to 3 jumps, and -0.5 a negative scan time, so
        every reader of the tolerance refuses it."""
        g = GKSGenerator(dim=2, hamiltonian=np.zeros((2, 2)), coeff=np.eye(3), basis=standard_basis(2))
        bell = np.array([0.0, 1.0, -1.0, 0.0])
        calls = {
            "verdict": lambda: is_completely_positive(g, tol),
            "witness": lambda: construct_witness(g, tol=tol),
            "conversion": lambda: gks_to_lindblad(g, tol),
            "state": lambda: DensityMatrix(dim=2, matrix=np.eye(2) / 2, tol=tol),
            "scan": lambda: negativity_scan(g, bell, np.array([1.0, 0.0, 0.0, 1.0]), tol=tol),
            "margin": lambda: _outside_margin(np.eye(2), tol),
        }
        for call in calls.values():
            with pytest.raises(InvalidTolerance, match=r"tolerance must be in \[0, 1\)"):
                call()


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

    def test_retry_budget_exhausted(self, monkeypatch):
        # No candidate's sigma_min / sigma_max can exceed 1, so every draw is refused;
        # the batched solver stops after the same 64 draws as the one-at-a-time loop.
        monkeypatch.setattr("cplab.linalg._CONDITION_FLOOR", 1.0)
        w = np.array([[0.0, 1.0], [0.0, 0.0]])
        batched, looped = np.random.default_rng(35), np.random.default_rng(35)
        with pytest.raises(SolverFailure):
            similarity_to_transpose(w, rng=batched)
        with pytest.raises(SolverFailure):
            similarity_to_transpose_loop(w, looped)
        assert batched.bit_generator.state == looped.bit_generator.state

    @pytest.mark.parametrize("floor", [None, 0.1])
    @pytest.mark.parametrize("case", ["random", "sigma-plus", "jordan-3", "diag-1-1-2"])
    def test_matches_one_draw_at_a_time_loop(self, case, floor, monkeypatch):
        """Batched draws pick the loop's candidate and consume the generator identically,
        also under a floor of 0.1 that refuses part of most batches."""
        if floor is not None:
            monkeypatch.setattr("cplab.linalg._CONDITION_FLOOR", floor)
        rng = np.random.default_rng(36)
        if case == "random":
            ws = []
            for d in range(2, 9):
                for _ in range(4):
                    w = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                    ws.append(w - np.trace(w) / d * np.eye(d))
        else:
            ws = [{
                "sigma-plus": np.array([[0.0, 1.0], [0.0, 0.0]]),
                "jordan-3": np.eye(3, k=1),
                "diag-1-1-2": np.diag([1.0, 1.0, -2.0]),
            }[case]]
        for w in ws:
            basis = linalg._transpose_commutant_basis(w)
            assert np.array_equal(basis, transpose_commutant_basis_kron(w))
            seed = int(rng.integers(2**32))
            batched, looped = np.random.default_rng(seed), np.random.default_rng(seed)
            p = _solution_or_none(similarity_to_transpose, w, batched)
            ref = _solution_or_none(similarity_to_transpose_loop, w, looped)
            assert batched.bit_generator.state == looped.bit_generator.state
            assert (p is None) == (ref is None)
            if ref is not None:
                assert fro_norm(p - ref) <= 1e-12 * fro_norm(ref)

    def test_empty_nullspace_keeps_the_last_right_singular_vector(self, monkeypatch):
        """If roundoff left no singular value below the nullspace threshold, the basis
        is the one matrix built from the last right singular vector."""
        svd = np.linalg.svd
        seen = []

        def no_small_values(a):
            u, sing, vh = svd(a)
            seen.append(vh)
            return u, np.ones_like(sing), vh

        monkeypatch.setattr(np.linalg, "svd", no_small_values)
        w = np.array([[0.0, 1.0], [0.0, 0.0]])
        basis = linalg._transpose_commutant_basis(w)
        (vh,) = seen
        assert basis.shape == (1, 2, 2)
        assert np.array_equal(basis[0], vh[-1].conj().reshape(2, 2).T)


def _solution_or_none(solve, w, rng):
    try:
        return solve(w, rng)
    except SolverFailure:
        return None


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


SRC = Path(__file__).resolve().parents[1] / "src" / "cplab"


def _is_hermitian_part(node) -> bool:
    """Whether ``node`` is ``X + X.conj()`` transposed by ``.T``, ``.transpose(...)`` or
    ``.swapaxes(...)``, in either order of the terms."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    left, right = ast.unparse(node.left), ast.unparse(node.right)
    return any(
        re.fullmatch(rf"{re.escape(x)}\.conj\(\)\.(T|transpose\(.*\)|swapaxes\(.*\))", y)
        for x, y in ((left, right), (right, left))
    )


def test_only_linalg_decides_positivity():
    """Outside ``linalg.py`` no module calls ``eigvalsh`` or ``eps_pos`` or forms the
    Hermitian part ``X + X.conj().T`` (or with ``transpose``/``swapaxes``): every positivity
    decision and its symmetrization go through ``_hermitian_margin``, so a change to the
    cutoff or the eigenvalue routine is made in one place."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("eigvalsh", "eps_pos"):
                    offenders.append(f"{path.name}:{node.lineno} {name}")
            if _is_hermitian_part(node):
                offenders.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert len(list(SRC.glob("*.py"))) > 1
    assert not offenders


@pytest.mark.parametrize(
    "expr, found",
    [("x + x.conj().T", True), ("x.conj().T + x", True), ("s + s.conj().transpose(0, 2, 1)", True),
     ("s + s.conj().swapaxes(-1, -2)", True), ("x + y.conj().T", False), ("x - x.conj().T", False)],
)
def test_hermitian_part_is_recognized(expr, found):
    assert _is_hermitian_part(ast.parse(expr, mode="eval").body) is found
