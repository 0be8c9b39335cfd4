"""Dense complex linear algebra kernels.

Conventions used throughout the package:

* Matrices are plain ``numpy.ndarray`` of dtype complex128, row-major.
* Vectorization is column-stacking, ``vec(M)[i + d*j] = M[i, j]``, so that
  ``vec(A X B) = (B^T kron A) vec(X)``.
* Every matrix argument goes through ``require_square(m, name, dim)``:
  :class:`NonSquare` if not square, :class:`ShapeMismatch` if not ``dim x dim``.
* Hermiticity is checked relative to ``max(1, ||M||_F)`` with tolerance
  ``HERMITICITY_TOL``.  One core, :func:`_hermitian_margin`, makes every positivity
  decision, ``lambda_min(M) >= -eps_pos(M, tol)``, for ``C``, a state or the states
  of a scan, on a matrix or a stack that its caller validated or computed; an
  outside matrix goes through :func:`require_hermitian` first, as in
  :func:`min_eigenvalue`.  A tolerance must be finite and in
  ``[0, 1)`` (:func:`require_tolerance`), and a matrix whose norm overflows or is
  NaN gets :class:`NonFinite`, not an infinite cutoff (:func:`eps_pos`).
* :func:`matrix_exp` is numpy-only scaling and squaring with the degree-30
  truncated Taylor series, whose backward error stays below the unit
  roundoff for ``||A||_1 <= theta_30 = 3.54`` (A. H. Al-Mohy and N. J. Higham,
  "Computing the action of the matrix exponential", SIAM J. Sci. Comput. 33,
  2011, Table 3.1).  It solves no linear system: the series is evaluated in
  Paterson-Stockmeyer form (SIAM J. Comput. 2, 1973) for a whole time grid
  from one set of powers of ``M``, with the block size that needs the fewest
  matrix products for the number of times.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    InvalidTolerance, NegativeTime, NonFinite, NonHermitian, NonSquare, ShapeMismatch, SolverFailure,
)

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

#: Degree of the truncated Taylor series in :func:`matrix_exp`.
_DEGREE = 30

#: Taylor coefficients ``1/k!`` for ``k = 0 .. _DEGREE``, each correctly rounded.
_INV_FACTORIAL = np.array([1 / math.factorial(k) for k in range(_DEGREE + 1)])

#: Largest ``||A||_1`` at which the degree-30 Taylor polynomial's backward
#: error bound stays below the unit roundoff (Al-Mohy & Higham 2011, Table 3.1).
_THETA30 = 3.5396663487436895


def fro_norm(m: np.ndarray) -> float:
    """Frobenius norm as a plain float, bitwise equal to ``np.linalg.norm(m)``.

    A complex array takes numpy's own fast path without its argument
    handling, ``sqrt(re . re + im . im)`` over the entries in memory order.
    """
    x = np.asarray(m).ravel(order="K")
    if x.dtype.kind != "c":
        return float(np.linalg.norm(x))
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def require_tolerance(tol) -> float:
    """``tol`` as a float if it is finite and in ``[0, 1)``, else :class:`InvalidTolerance`:
    a cutoff ``tol * max(1, ||M||_F)`` from ``tol >= 1`` would find every generator CP."""
    if isinstance(tol, bool) or not isinstance(tol, (float, int, np.floating, np.integer)):
        raise InvalidTolerance(f"tolerance must be a real number, got {tol!r}")
    value = float(tol)
    if not 0.0 <= value < 1.0:
        raise InvalidTolerance(f"tolerance must be in [0, 1), got {value!r}")
    return value


def eps_pos(m: np.ndarray, tol: float = POSITIVITY_TOL):
    """Positivity cutoff ``tol * max(1, ||m||_F)`` of a matrix (a float) or of each matrix of
    a stack (an array), by one formula, so that a member gets its own matrix's bits.
    A norm that overflows, or NaN entries, raise :class:`NonFinite`: an infinite
    cutoff would pass every eigenvalue."""
    tol = require_tolerance(tol)
    arr = np.asarray(m, dtype=complex)
    row, col = arr.reshape(arr.shape[:-2] + (1, -1)), arr.reshape(arr.shape[:-2] + (-1, 1))
    sq = (row.real @ col.real + row.imag @ col.imag)[..., 0, 0]
    if not (math.isfinite(sq) if arr.ndim == 2 else np.isfinite(sq).all()):
        raise NonFinite("positivity cutoff is not finite: the matrix norm overflows or is NaN")
    return tol * max(1.0, math.sqrt(sq)) if arr.ndim == 2 else tol * np.maximum(1.0, np.sqrt(sq))


def require_square(m, name: str = "matrix", dim: int | None = None) -> np.ndarray:
    """``m`` as a complex array: :class:`NonSquare` unless a nonempty square matrix,
    :class:`ShapeMismatch` unless ``dim x dim``, :class:`NonFinite` on NaN/Inf entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise NonSquare(f"{name} must be a nonempty square matrix, got shape {arr.shape}")
    if dim is not None and arr.shape != (dim, dim):
        raise ShapeMismatch(f"{name} must be {dim}x{dim}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFinite(f"{name} contains non-finite entries")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only copy of a validated array: later writes to the caller's
    array cannot reach the holder, and the holder's cannot be written."""
    out = arr.copy()
    out.flags.writeable = False
    return out


def hermiticity_deviation(m: np.ndarray) -> float:
    """Relative deviation ``||M - M^dagger||_F / max(1, ||M||_F)``."""
    return fro_norm(m - m.conj().T) / max(1.0, fro_norm(m))


def require_hermitian(m, name: str = "matrix", dim: int | None = None) -> np.ndarray:
    """:func:`require_square`, and Hermitian within ``HERMITICITY_TOL`` (:class:`NonHermitian`)."""
    arr = require_square(m, name, dim)
    dev = hermiticity_deviation(arr)
    if not dev <= HERMITICITY_TOL:  # a NaN deviation (inf / inf) is refused too
        raise NonHermitian(
            f"{name} deviates from Hermiticity by {dev:.3e} (tol {HERMITICITY_TOL:.1e})"
        )
    return arr


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """``(values, vectors)`` of a Hermitian matrix, like ``np.linalg.eigh``.

    Eigenvalues are ascending and the columns of ``vectors`` orthonormal.
    Deviations from Hermiticity beyond ``HERMITICITY_TOL`` raise
    :class:`NonHermitian`.
    """
    arr = require_hermitian(m)
    return np.linalg.eigh((arr + arr.conj().T) / 2.0)


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a Hermitian matrix: the ``lambda_min`` of :func:`_hermitian_margin`."""
    return _hermitian_margin(require_hermitian(m))[0]


def _hermitian_margin(arr: np.ndarray, tol: float = POSITIVITY_TOL):
    """The one positivity decision: ``(lambda_min, cutoff, sym)`` of a ``(k, k)`` matrix
    or an ``(n, k, k)`` stack that the caller validated or computed, unchecked.

    ``sym = (arr + arr^dagger) / 2`` is returned for work on the matrix decided
    on, ``lambda_min`` is its smallest eigenvalue and the cutoff ``eps_pos(arr, tol)``:
    PSD iff ``lambda_min >= -cutoff``.  A stack gives length-``n`` arrays of its
    members' own bits.  The cutoff is taken before ``eigvalsh``, so a matrix that
    is not finite raises :class:`NonFinite` before it reaches LAPACK.
    """
    sym = (arr + arr.conj().swapaxes(-1, -2)) / 2.0
    cutoff = eps_pos(arr, tol)
    low = np.linalg.eigvalsh(sym)[..., 0]
    return (float(low) if low.ndim == 0 else low), cutoff, sym


def _block_size(count: int) -> int:
    """Paterson-Stockmeyer block size for ``count`` times: the ``q`` in ``1 .. 31``
    (the first on a tie) that minimizes the matrix products, ``q - 1`` to form
    ``N^2 .. N^q`` once plus ``ceil(31/q) - 1`` Horner steps per time."""
    cost = [q - 1 + count * (-(-(_DEGREE + 1) // q) - 1) for q in range(1, _DEGREE + 2)]
    return 1 + cost.index(min(cost))


def matrix_exp(m, times=None) -> np.ndarray:
    """``e^M``, or the stack ``e^{tM}`` over ``times`` (shape ``(T, n, n)``).

    Scaling and squaring with the degree-30 truncated Taylor series
    (Al-Mohy & Higham 2011); no linear system is solved.  ``N = M / 2^e``,
    with ``2^e`` the power of two at or above ``||M||_1``, is an exact
    scaling, so every power of ``N`` is bounded by 1 and large ``||M||``
    cannot overflow them.  Each time ``t`` is scaled by ``2^-s`` so that
    ``||t M||_1 / 2^s <= theta_30``, and ``s`` squarings follow.  The
    coefficients ``tau^k / k!``, ``tau = t 2^(e - s)``, form one ``(T, 31)``
    table.  The polynomial is evaluated in Paterson-Stockmeyer form with
    block size ``q`` from :func:`_block_size`: ``N^0 .. N^q`` are formed once
    by batched doubling, the coefficient blocks are contracted with
    ``N^0 .. N^(q-1)`` in one matrix product, and Horner's rule in ``N^q``
    joins the blocks.  The 30-point scan grid takes ``q = 31``, all powers
    and no Horner step; one time takes ``q = 4``, 10 matrix products.
    Times must be finite and nonnegative (:class:`NegativeTime`); ``t = 0``
    and ``M = 0`` give exactly the identity.  A propagator that overflows
    while squaring raises :class:`NonFinite` naming its time.
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

    # s = ceil(log2(t ||M||_1 / theta_30)), floored at 0; tau = t 2^(e - s).
    e = int(np.frexp(norm)[1])
    with np.errstate(divide="ignore"):
        excess = np.log2(t) + np.log2(norm / _THETA30)
    squarings = np.where(excess > 0, np.ceil(excess), 0).astype(int)
    q = _block_size(t.size)
    blocks = -(-(_DEGREE + 1) // q)
    # Row i holds tau_i^k / k!, zero-padded to whole blocks of q coefficients.
    tau = np.ldexp(t, e - squarings)
    table = np.zeros((t.size, blocks * q))
    table[:, :_DEGREE + 1] = tau[:, None] ** np.arange(_DEGREE + 1) * _INV_FACTORIAL

    # N = M / 2^e with 2^e >= ||M||_1: an exact scaling, so every power of N
    # is bounded by 1 and neither huge nor subnormal entries overflow.
    # N^0 .. N^q by doubling; with one block (q = 31) N^31 is never used.
    top = min(q, _DEGREE)
    powers = np.empty((top + 1, n, n), dtype=complex)
    powers[0] = np.eye(n)
    powers[1] = np.ldexp(arr.real, -e) + 1j * np.ldexp(arr.imag, -e)
    k = 1
    while k < top:
        stop = min(2 * k, top)
        powers[k + 1:stop + 1] = powers[1:stop - k + 1] @ powers[k]
        k *= 2
    # Real coefficients times the interleaved real and imaginary parts: one real GEMM.
    poly = (table.reshape(-1, q) @ powers[:q].reshape(q, n * n).view(float)).view(complex)
    poly = poly.reshape(t.size, blocks, n, n)
    out = poly[:, -1]
    for j in range(blocks - 2, -1, -1):
        out = out @ powers[q] + poly[:, j]

    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(squarings.max(initial=0)):
            active = squarings > step
            out[active] = out[active] @ out[active]
    finite = np.isfinite(out.view(float)).all(axis=(1, 2))
    if not finite.all():
        first = int(np.argmin(finite))
        raise NonFinite(f"e^(tM) overflowed at t = {t[first]:g} after {squarings[first]} squarings")
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
    # Broadcast products with exact 0/1 entries: bitwise equal to the kron forms.
    system = (eye[:, None, :, None] * w[None, :, None, :]
              - w[:, None, :, None] * eye[None, :, None, :]).reshape(d * d, d * d)
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
    Draws come in batches of ``min(8 - valid, 64 - drawn)``, each tested
    with one stacked SVD, solve and norm, so the solver stops after the
    eighth valid draw, or after 64 draws, exactly as a one-at-a-time loop
    would: ``rng`` is consumed identically, and of the first eight valid
    draws the first with the largest ``sigma_min / sigma_max`` wins.
    The candidate is returned scaled to spectral norm 1.
    """
    w_arr = require_square(w, "W")
    d = w_arr.shape[0]
    if not w_arr.any():
        return np.eye(d, dtype=complex)

    scale = max(1.0, fro_norm(w_arr))
    basis = _transpose_commutant_basis(w_arr)
    k = basis.shape[0]
    flat = basis.reshape(k, d * d)
    if rng is None:
        rng = np.random.default_rng(DEFAULT_SEED)

    valid: list[np.ndarray] = []
    ratios: list[float] = []
    drawn = 0
    # A handful of valid draws is enough to pick a well-conditioned one.
    while len(valid) < 8 and drawn < 64:
        n = min(8 - len(valid), 64 - drawn)
        drawn += n
        # Row-major (n, 2, k): draw by draw, k real parts then k imaginary parts.
        z = rng.standard_normal((n, 2, k))
        # (n, 1, k) @ (k, d^2) forms each candidate by its own vector-matrix
        # product, so its rounding does not depend on the batch it came in.
        cand = ((z[:, 0] + 1j * z[:, 1])[:, None, :] @ flat).reshape(n, d, d)
        sigma = np.linalg.svd(cand, compute_uv=False)
        top = sigma[:, 0]
        # |det| is a product of d singular values and shrinks geometrically
        # with d even for well-conditioned candidates; the ratio does not.
        # A zero candidate gets ratio 0 and is refused like any singular one.
        ratio = sigma[:, -1] / np.where(top > 0.0, top, 1.0)
        ok = ratio > _CONDITION_FLOOR
        cand = cand[ok] / top[ok, None, None]
        residual = np.linalg.norm(np.linalg.solve(cand, w_arr @ cand) - w_arr.T, axis=(1, 2))
        good = residual <= SIMILARITY_TOL * scale
        valid.extend(cand[good])
        ratios.extend(ratio[ok][good])
    if not valid:
        raise SolverFailure(
            f"no invertible similarity found for a {d}x{d} matrix after the retry budget"
        )
    return valid[int(np.argmax(ratios))]
