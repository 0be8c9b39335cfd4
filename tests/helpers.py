"""Shared random-object builders for the test suite."""

import numpy as np

from cplab import GKSGenerator, OperatorBasis, min_eigenvalue, standard_basis
from cplab.errors import TraceConditionViolated
from cplab.linalg import eps_pos, fro_norm, require_square


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
