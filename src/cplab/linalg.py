"""Dense complex linear algebra kernels.

Conventions used throughout the package:

* Matrices are plain ``numpy.ndarray`` of dtype complex128, row-major.
* Vectorization is column-stacking, ``vec(M)[i + d*j] = M[i, j]``, so that
  ``vec(A X B) = (B^T kron A) vec(X)``.
* Every matrix argument goes through ``require_square(m, name, dim)``:
  :class:`NonSquare` if not square, :class:`ShapeMismatch` if not ``dim x dim``.
* Hermiticity is checked relative to ``max(1, ||M||_F)`` with tolerance
  ``HERMITICITY_TOL``; every positivity cutoff is ``eps_pos(M, tol)``.
* :func:`matrix_exp` is numpy-only scaling and squaring with the [13/13]
  Pade approximant (N. J. Higham, "The scaling and squaring method for the
  matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26, 2005); it
  evaluates ``e^{tM}`` for a whole time grid from one set of powers of ``M``.
"""

from __future__ import annotations

import numpy as np

from .errors import NegativeTime, NonFinite, NonHermitian, NonSquare, ShapeMismatch, SolverFailure

#: Relative Hermiticity tolerance (single knob shared by all callers).
HERMITICITY_TOL = 1e-10

#: Relative positivity tolerance; absolute cutoff is eps_pos(M).
POSITIVITY_TOL = 1e-9

#: Residual tolerance of the similarity-to-transpose solver.
SIMILARITY_TOL = 1e-8

#: Floor on ``sigma_min / sigma_max`` for accepting a similarity candidate.
_CONDITION_FLOOR = 1e-10

#: Seed used when no RNG is supplied, keeping library calls deterministic.
DEFAULT_SEED = 0x5EED

#: Coefficients b_k / b_0 of the [13/13] Pade approximant to e^x; with
#: b_0 scaled to 1 the approximant at t = 0 solves I X = I, exactly.
_PADE13 = np.array([
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
    129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
    40840800, 960960, 16380, 182, 1,
]) / 64764752532480000

#: Largest ``||A||_1`` at which the [13/13] approximant's backward error
#: bound stays below the unit roundoff (Higham 2005).
_THETA13 = 5.371920351148152


def fro_norm(m: np.ndarray) -> float:
    """Frobenius norm as a plain float."""
    return float(np.linalg.norm(m))


def eps_pos(m: np.ndarray, tol: float = POSITIVITY_TOL) -> float:
    """Absolute positivity cutoff ``tol * max(1, ||m||_F)`` for verdicts about ``m``."""
    return tol * max(1.0, fro_norm(m))


def require_square(m, name: str = "matrix", dim: int | None = None) -> np.ndarray:
    """``m`` as a complex array: :class:`NonSquare` unless a nonempty square matrix,
    :class:`ShapeMismatch` unless ``dim x dim``, :class:`NonFinite` on NaN/Inf entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise NonSquare(f"{name} must be a nonempty square matrix, got shape {arr.shape}")
    if dim is not None and arr.shape != (dim, dim):
        raise ShapeMismatch(f"{name} must be {dim}x{dim}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFinite(f"{name} contains non-finite entries")
    return arr


def hermiticity_deviation(m: np.ndarray) -> float:
    """Relative deviation ``||M - M^dagger||_F / max(1, ||M||_F)``."""
    return fro_norm(m - m.conj().T) / max(1.0, fro_norm(m))


def require_hermitian(m, name: str = "matrix", dim: int | None = None) -> np.ndarray:
    """:func:`require_square`, and Hermitian within ``HERMITICITY_TOL`` (:class:`NonHermitian`)."""
    arr = require_square(m, name, dim)
    dev = hermiticity_deviation(arr)
    if dev > HERMITICITY_TOL:
        raise NonHermitian(
            f"{name} deviates from Hermiticity by {dev:.3e} (tol {HERMITICITY_TOL:.1e})"
        )
    return arr


def _symmetrized(m) -> np.ndarray:
    """``(M + M^dagger) / 2`` after :func:`require_hermitian`; keeps roundoff out of spectra."""
    arr = require_hermitian(m)
    return (arr + arr.conj().T) / 2.0


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """``(values, vectors)`` of a Hermitian matrix, like ``np.linalg.eigh``.

    Eigenvalues are ascending and the columns of ``vectors`` orthonormal.
    Deviations from Hermiticity beyond ``HERMITICITY_TOL`` raise
    :class:`NonHermitian`.
    """
    return np.linalg.eigh(_symmetrized(m))


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(np.linalg.eigvalsh(_symmetrized(m))[0])


def matrix_exp(m, times=None) -> np.ndarray:
    """``e^M``, or the stack ``e^{tM}`` over ``times`` (shape ``(T, n, n)``).

    Scaling and squaring with the [13/13] Pade approximant (Higham 2005).
    The powers ``N^0 .. N^13`` of ``N = M / 2^e``, with ``2^e`` the power of
    two at or above ``||M||_1``, are formed once, 13 matrix products for the
    whole grid.  Each time ``t`` is scaled by ``2^-s`` so that
    ``||t M||_1 / 2^s <= theta_13``; the Pade numerator and denominator are
    the odd and even power stacks contracted with ``b_k tau^k`` for
    ``tau = t 2^(e - s)``, and ``s`` squarings follow.  Normalizing keeps
    every power bounded by 1, so large ``||M||`` cannot overflow them.
    Times must be finite and nonnegative (:class:`NegativeTime`); ``t = 0``
    and ``M = 0`` give exactly the identity.
    """
    arr = require_square(m)
    if times is None:
        return matrix_exp(arr, (1.0,))[0]
    t = np.asarray(times, dtype=float).reshape(-1)
    bad = t[~(np.isfinite(t) & (t >= 0))]
    if bad.size:
        raise NegativeTime(f"evolution times must be finite and nonnegative, got {bad[0]}")
    n = arr.shape[0]
    norm = float(np.linalg.norm(arr, 1))
    if norm == 0.0:
        return np.tile(np.eye(n, dtype=complex), (t.size, 1, 1))

    # N = M / 2^e with 2^e >= ||M||_1: an exact scaling, so every power of N
    # is bounded by 1 and neither huge nor subnormal entries overflow.
    e = int(np.frexp(norm)[1])
    unit = np.ldexp(arr.real, -e) + 1j * np.ldexp(arr.imag, -e)
    even = np.empty((7, n, n), dtype=complex)
    even[0] = np.eye(n)
    even[1] = unit @ unit
    for k in range(2, 7):
        even[k] = even[k - 1] @ even[1]
    odd = unit @ even

    # s = ceil(log2(t ||M||_1 / theta_13)), floored at 0; tau = t 2^(e - s).
    with np.errstate(divide="ignore"):
        excess = np.log2(t) + np.log2(norm / _THETA13)
    squarings = np.where(excess > 0, np.ceil(excess), 0).astype(int)
    coeff = _PADE13 * np.ldexp(t, e - squarings)[:, None] ** np.arange(14)
    u = np.tensordot(coeff[:, 1::2], odd, axes=1)
    v = np.tensordot(coeff[:, 0::2], even, axes=1)
    out = np.linalg.solve(v - u, v + u)
    for step in range(squarings.max(initial=0)):
        active = squarings > step
        out[active] = out[active] @ out[active]
    return out


def _transpose_commutant_basis(w: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ``{X : W X = X W^T}`` as a stack of matrices.

    The equation is vectorized (column stacking) into
    ``(I kron W - W kron I) vec(X) = 0`` and the nullspace read off an SVD.
    The solution set is never empty: every square matrix is similar to its
    transpose, so it even contains invertible elements.
    """
    d = w.shape[0]
    eye = np.eye(d)
    system = np.kron(eye, w) - np.kron(w, eye)
    _, sing, vh = np.linalg.svd(system)
    null_rows = vh[sing <= max(sing[0], 1.0) * 1e-12]
    if null_rows.size == 0:
        # Guaranteed nonempty in exact arithmetic; keep the best candidate.
        null_rows = vh[-1:]
    return null_rows.conj().reshape(-1, d, d).transpose(0, 2, 1)


def similarity_to_transpose(w, rng: np.random.Generator | None = None) -> np.ndarray:
    """Invertible ``P`` with ``P^{-1} W P = W^T`` in the standard basis.

    Numerical Jordan forms are avoided: random complex combinations of the
    nullspace basis of ``W X = X W^T`` are generically invertible, so the
    solver samples up to 64 combinations and keeps the best-conditioned
    candidate whose ``sigma_min / sigma_max`` exceeds 1e-10 and whose
    residual satisfies ``||P^{-1} W P - W^T||_F <= SIMILARITY_TOL * max(1, ||W||_F)``.
    The candidate is returned scaled to spectral norm 1.
    """
    w_arr = require_square(w, "W")
    d = w_arr.shape[0]
    if not w_arr.any():
        return np.eye(d, dtype=complex)

    scale = max(1.0, fro_norm(w_arr))
    basis = _transpose_commutant_basis(w_arr)
    k = basis.shape[0]
    if rng is None:
        rng = np.random.default_rng(DEFAULT_SEED)

    target = w_arr.T
    best: np.ndarray | None = None
    best_sigma_min = 0.0
    valid_found = 0
    for _ in range(64):
        coeff = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        cand = np.tensordot(coeff, basis, axes=1)
        sigma = np.linalg.svd(cand, compute_uv=False)
        if sigma[0] <= 0.0:
            continue
        # |det| is a product of d singular values and shrinks geometrically
        # with d even for well-conditioned candidates; the ratio does not.
        sigma_min = sigma[-1] / sigma[0]
        if sigma_min <= _CONDITION_FLOOR:
            continue
        cand = cand / sigma[0]
        residual = fro_norm(np.linalg.solve(cand, w_arr @ cand) - target)
        if residual > SIMILARITY_TOL * scale:
            continue
        if sigma_min > best_sigma_min:
            best_sigma_min = sigma_min
            best = cand
        valid_found += 1
        # A handful of valid draws is enough to pick a well-conditioned one.
        if valid_found >= 8:
            break
    if best is None:
        raise SolverFailure(
            f"no invertible similarity found for a {d}x{d} matrix after the retry budget"
        )
    return best


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec` for square matrices."""
    arr = np.asarray(v).reshape(-1)
    if dim is None:
        dim = int(round(np.sqrt(arr.size)))
    if dim * dim != arr.size:
        raise NonSquare(f"cannot reshape length-{arr.size} vector into a square matrix")
    return arr.reshape(dim, dim, order="F")
