"""Shared random-object builders and reference implementations for the test suite."""

from dataclasses import dataclass

import numpy as np

from cplab import (
    GKSGenerator,
    NoNegativeDirection,
    OperatorBasis,
    direction_operator,
    linalg,
    min_eigenvalue,
    standard_basis,
)
from cplab.errors import CplabError, SolverFailure
from cplab.linalg import POSITIVITY_TOL, eps_pos, fro_norm, require_square
from cplab.witness import _candidate_from_direction


class TraceConditionViolated(CplabError):
    """Tr(Psi Phi^dagger) = 0 precondition of :func:`overlap_rate_trace_form` failed."""


def random_hermitian(d, rng, scale=1.0):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (m + m.conj().T) / 2.0


def random_traceless_hermitian(d, rng, scale=1.0):
    h = random_hermitian(d, rng, scale)
    return h - np.trace(h) / d * np.eye(d)


def random_psd(n, rng, rank=None):
    rank = n if rank is None else rank
    b = rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n))
    return b.conj().T @ b


def random_generator(d, rng, coeff=None, hamiltonian=None):
    """Generator with random traceless Hermitian H and Hermitian C."""
    basis = standard_basis(d)
    n = d * d - 1
    if hamiltonian is None:
        hamiltonian = random_traceless_hermitian(d, rng)
    if coeff is None:
        coeff = random_hermitian(n, rng)
    return GKSGenerator(dim=d, hamiltonian=hamiltonian, coeff=coeff, basis=basis)


def coeff_at_cutoff(c0, tol, ulps=0):
    """``c0 + s I`` with ``s`` stepped ``ulps`` floats from the shift at which
    ``lambda_min(C)`` meets ``-eps_pos(C, tol)``, found by bisection down to
    adjacent floats; ``ulps < 0`` lies on the non-PSD side."""
    eye = np.eye(c0.shape[0])

    def excess(s):
        c = c0 + s * eye
        return min_eigenvalue(c) + eps_pos(c, tol)

    low = min_eigenvalue(c0)
    width = 1.0 + abs(low)
    lo, hi = -low - width, -low + width
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if excess(mid) < 0 else (lo, mid)
    s = hi
    for _ in range(abs(ulps)):
        s = np.nextafter(s, np.sign(ulps) * np.inf)
    return c0 + s * eye


def random_density(d, rng):
    """Full-rank random mixed state."""
    m = random_psd(d, rng)
    return m / np.trace(m)


def random_pure_vector(d, rng):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def pair_reorder_matrix(d):
    """Permutation aligning ``kron(vec(A), vec(B))`` with ``vec(A kron B)``.

    Column index convention: compound matrix element ``(i1 i2, j1 j2)`` sits
    at vec index ``(i1 d + i2) + d^2 (j1 d + j2)``; the kron of the two
    single-system vecs puts it at ``(i1 + d j1) d^2 + (i2 + d j2)``.
    """
    dd = d * d
    perm = np.zeros((dd * dd, dd * dd))
    for i1 in range(d):
        for i2 in range(d):
            for j1 in range(d):
                for j2 in range(d):
                    compound = (i1 * d + i2) + dd * (j1 * d + j2)
                    split = (i1 + d * j1) * dd + (i2 + d * j2)
                    perm[split, compound] = 1.0
    return perm


def tensor_square_superop(s, d):
    """Superoperator of the map ``m kron m`` given the superoperator of ``m``."""
    perm = pair_reorder_matrix(d)
    return perm.T @ np.kron(s, s) @ perm


def transpose_superop(d):
    """Superoperator of matrix transposition (column-stacking convention)."""
    t = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            t[i + d * j, j + d * i] = 1.0
    return t.astype(complex)


def apply_generator(g: GKSGenerator, rho) -> np.ndarray:
    """Evaluate the generator on a state without building its matrix."""
    arr = require_square(rho, "rho", g.dim)
    h = g.hamiltonian
    out = -1j * (h @ arr - arr @ h)
    f = g.basis.elements
    # sum_ab c_ab F_a rho F_b^dagger
    out += np.einsum("ab,aij,jk,blk->il", g.coeff, f, arr, f.conj(), optimize=True)
    # anticommutator part through G = sum_ab c_ab F_b^dagger F_a
    gmat = np.einsum("ab,bki,akj->ij", g.coeff, f.conj(), f, optimize=True)
    out -= 0.5 * (gmat @ arr + arr @ gmat)
    return out


def overlap_rate_trace_form(coeff, basis: OperatorBasis, phi_matrix, psi_matrix) -> float:
    """Trace-polynomial form of :func:`cplab.overlap_rate`.

    Valid whenever ``Tr(Psi Phi^dagger) = 0`` (the matrix statement of the
    orthogonality of the pair):

        sum_ab c_ab [ Tr(Psi Phi^+ F_a) Tr(Phi Psi^+ F_b^+)
                      + Tr((Phi^+ Psi)^T F_a) Tr((Psi^+ Phi)^T F_b^+) ]
    """
    c = np.asarray(coeff, dtype=complex)
    phi_m = require_square(phi_matrix, "phi_matrix", basis.dim)
    psi_m = require_square(psi_matrix, "psi_matrix", basis.dim)
    cross = complex(np.trace(psi_m @ phi_m.conj().T))
    if abs(cross) > 1e-10 * max(1.0, fro_norm(phi_m) * fro_norm(psi_m)):
        raise TraceConditionViolated(f"|Tr(Psi Phi^dagger)| = {abs(cross):.3e}, expected 0")
    f = basis.elements
    m1 = psi_m @ phi_m.conj().T
    m2 = phi_m @ psi_m.conj().T
    n1 = (phi_m.conj().T @ psi_m).T
    n2 = (psi_m.conj().T @ phi_m).T
    t1 = np.einsum("ij,aji->a", m1, f)
    s1 = np.einsum("ij,bij->b", m2, f.conj())
    t2 = np.einsum("ij,aji->a", n1, f)
    s2 = np.einsum("ij,bij->b", n2, f.conj())
    return float((t1 @ c @ s1 + t2 @ c @ s2).real)


def transpose_commutant_basis_kron(w):
    """``cplab.linalg._transpose_commutant_basis`` with the system built by ``np.kron``."""
    d = w.shape[0]
    eye = np.eye(d)
    _, sing, vh = np.linalg.svd(np.kron(eye, w) - np.kron(w, eye))
    null_rows = vh[sing <= max(sing[0], 1.0) * 1e-12]
    return null_rows.conj().reshape(-1, d, d).transpose(0, 2, 1)


def similarity_to_transpose_loop(w, rng):
    """One-draw-at-a-time reference for :func:`cplab.similarity_to_transpose`.

    Reads ``_CONDITION_FLOOR`` and ``SIMILARITY_TOL`` from ``cplab.linalg`` at
    call time, so a monkeypatched floor applies to both versions.
    """
    w_arr = require_square(w, "W")
    d = w_arr.shape[0]
    if not w_arr.any():
        return np.eye(d, dtype=complex)
    scale = max(1.0, fro_norm(w_arr))
    basis = transpose_commutant_basis_kron(w_arr)
    k = basis.shape[0]
    best, best_sigma_min, valid_found = None, 0.0, 0
    for _ in range(64):
        coeff = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        cand = np.tensordot(coeff, basis, axes=1)
        sigma = np.linalg.svd(cand, compute_uv=False)
        if sigma[0] <= 0.0:
            continue
        sigma_min = sigma[-1] / sigma[0]
        if sigma_min <= linalg._CONDITION_FLOOR:
            continue
        cand = cand / sigma[0]
        residual = fro_norm(np.linalg.solve(cand, w_arr @ cand) - w_arr.T)
        if residual > linalg.SIMILARITY_TOL * scale:
            continue
        if sigma_min > best_sigma_min:
            best_sigma_min, best = sigma_min, cand
        valid_found += 1
        if valid_found >= 8:
            break
    if best is None:
        raise SolverFailure(f"no invertible similarity found for a {d}x{d} matrix")
    return best


def generator_matrix_kron(h, coeff, ops):
    """``I kron K + conj(K) kron I + sum_b conj(A_b) kron X_b`` with ``np.kron``.

    Reference for ``cplab.generator._generator_matrix``: the jump sum is formed
    by the same matrix product, the two ``K`` terms by ``np.kron``, so the
    two must agree bitwise.
    """
    n, d = ops.shape[:2]
    x = np.tensordot(coeff, ops, axes=(0, 0))
    ops_bar = ops.conj()
    k = -1j * h - 0.5 * np.tensordot(ops_bar, x, axes=([0, 1], [0, 1]))
    jumps = ops_bar.reshape(n, d * d).T @ x.reshape(n, d * d)
    out = jumps.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    eye = np.eye(d)
    out += np.kron(eye, k) + np.kron(k.conj(), eye)
    return out


@dataclass(frozen=True)
class NotApplicable:
    """Hypotheses of :func:`symmetric_case_witness` are not met."""

    reason: str


def symmetric_case_witness(g: GKSGenerator, tol: float = POSITIVITY_TOL):
    """Witness via the fixed choice ``Phi = U U^T / d``, valid for the real case.

    Oracle for :func:`cplab.construct_witness`: with every basis element
    Hermitian and a real (symmetric) coefficient matrix, the negative
    direction can be taken real, ``W`` is Hermitian with eigenvectors ``U``,
    and ``Phi = U U^T / d`` conjugates ``W`` into ``+W^T``, so no similarity
    solve is needed.  Returns :class:`NotApplicable` when the hypotheses fail
    and ``NoNegativeDirection`` exactly when ``construct_witness`` does.
    """
    f = g.basis.elements
    herm_dev = float(np.max(np.abs(f - f.conj().transpose(0, 2, 1))))
    if herm_dev > 1e-10:
        return NotApplicable(reason=f"basis elements deviate from Hermiticity by {herm_dev:.3e}")
    imag_dev = float(np.max(np.abs(g.coeff.imag)))
    if imag_dev > 1e-10 * max(1.0, fro_norm(g.coeff)):
        return NotApplicable(reason=f"coefficient matrix has imaginary entries up to {imag_dev:.3e}")

    low, cutoff = min_eigenvalue(g.coeff), eps_pos(g.coeff, tol)
    if low >= -cutoff:
        return NoNegativeDirection(min_coeff_eigenvalue=low)
    # The real driver keeps the direction real.
    w = np.linalg.eigh(g.coeff.real)[1][:, 0].astype(complex)
    _, u = np.linalg.eigh(direction_operator(w, g.basis))
    return _candidate_from_direction(g, w, None, phi_matrix=(u @ u.T) / g.dim)
