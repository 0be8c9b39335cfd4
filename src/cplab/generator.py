"""Dissipative semigroup generators and their matrix representations.

A generator acts on density matrices as

    L[rho] = -i [H, rho] + sum_ab c_ab (F_a rho F_b^dagger
                                        - 1/2 {F_b^dagger F_a, rho})

with traceless Hermitian ``H``, Hermitian coefficient matrix ``C = [c_ab]``
and an orthonormal traceless operator basis ``{F_a}``.  The equivalent jump
form uses operators ``V_r``; both directions of the conversion go through
the expansion of the jump operators over the basis.

Superoperators use column stacking: ``vec(A rho B) = (B^T kron A) vec(rho)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import OperatorBasis
from .errors import NonTraceless, NonTracelessJump, NotCompletelyPositive, ShapeMismatch
from .linalg import (
    HERMITICITY_TOL,
    POSITIVITY_TOL,
    eps_pos,
    fro_norm,
    hermitian_eig,
    min_eigenvalue,
    require_hermitian,
    require_square,
    unvec,
    vec,
)


def _require_traceless(m: np.ndarray, name: str, error=NonTraceless) -> np.ndarray:
    trace = abs(complex(np.trace(m)))
    if trace > HERMITICITY_TOL * max(1.0, fro_norm(m)):
        raise error(f"{name} has |trace| = {trace:.3e}, expected 0")
    return m


def _hamiltonian(h, dim: int) -> np.ndarray:
    """``h`` as a traceless Hermitian ``dim x dim`` matrix, or the typed error."""
    return _require_traceless(require_hermitian(h, "hamiltonian", dim), "hamiltonian")


@dataclass(frozen=True)
class GKSGenerator:
    """Generator in coefficient-matrix form.

    ``hamiltonian`` must be Hermitian and traceless; ``coeff`` Hermitian of
    size ``(d^2-1) x (d^2-1)``.  A trace component in ``hamiltonian`` is
    rejected rather than projected out, so caller bugs stay visible.
    """

    dim: int
    hamiltonian: np.ndarray
    coeff: np.ndarray
    basis: OperatorBasis

    def __post_init__(self):
        h = _hamiltonian(self.hamiltonian, self.dim)
        c = require_hermitian(self.coeff, "coeff", self.dim * self.dim - 1)
        if self.basis.dim != self.dim:
            raise ShapeMismatch(f"basis dimension {self.basis.dim} != generator dimension {self.dim}")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "coeff", c)


def _coeff_psd(g: GKSGenerator, tol: float) -> tuple[float, float]:
    """``(low, cutoff) = (lambda_min(C), eps_pos(C, tol))``; ``C`` is PSD iff ``low >= -cutoff``.
    The CP verdict, both witnesses and the jump-form conversion all gate on this."""
    return min_eigenvalue(g.coeff), eps_pos(g.coeff, tol)


@dataclass(frozen=True)
class LindbladGenerator:
    """Generator in jump-operator form; every ``V_r`` must be traceless."""

    dim: int
    hamiltonian: np.ndarray
    jump_ops: tuple = field(default_factory=tuple)

    def __post_init__(self):
        h = _hamiltonian(self.hamiltonian, self.dim)
        ops = []
        for r, op in enumerate(self.jump_ops):
            arr = require_square(op, f"jump_ops[{r}]", self.dim)
            ops.append(_require_traceless(arr, f"jump_ops[{r}]", error=NonTracelessJump))
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "jump_ops", tuple(ops))


@dataclass(frozen=True)
class Superoperator:
    """Matrix of a linear map on vectorized ``dim x dim`` matrices."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        arr = require_square(self.matrix, "superoperator matrix", self.dim * self.dim)
        object.__setattr__(self, "matrix", arr)

    def apply(self, rho) -> np.ndarray:
        arr = require_square(rho, "rho", self.dim)
        return unvec(self.matrix @ vec(arr), self.dim)


def lindblad_to_gks(l: LindbladGenerator, basis: OperatorBasis) -> GKSGenerator:
    """Expand jump operators over ``basis``; the resulting ``C`` is PSD."""
    if basis.dim != l.dim:
        raise ShapeMismatch(f"basis dimension {basis.dim} != generator dimension {l.dim}")
    n = l.dim * l.dim - 1
    coeff = np.zeros((n, n), dtype=complex)
    for op in l.jump_ops:
        v = basis.expansion_coefficients(op)
        coeff += np.outer(v, v.conj())
    return GKSGenerator(dim=l.dim, hamiltonian=l.hamiltonian, coeff=coeff, basis=basis)


def gks_to_lindblad(g: GKSGenerator, tol: float = POSITIVITY_TOL) -> LindbladGenerator:
    """Factor ``C`` and return the jump-operator form.

    The factorization goes through the Hermitian eigendecomposition rather
    than Cholesky, which fails on the semidefinite boundary.  A ``C`` that
    the CP verdict finds not PSD raises :class:`NotCompletelyPositive` (the
    conversion is undefined there); eigenvalues up to ``1e-12 *
    max(1, lambda_max)`` are dropped.
    """
    low, cutoff = _coeff_psd(g, tol)
    if low < -cutoff:
        raise NotCompletelyPositive(f"coefficient matrix has eigenvalue {low:.6e} < -{cutoff:.1e}")
    vals, vecs = hermitian_eig(g.coeff)
    drop = 1e-12 * max(1.0, float(vals[-1]))
    jump_ops = []
    for lam, col in zip(vals, vecs.T):
        if lam <= drop:
            continue
        v = np.sqrt(lam) * np.tensordot(col, g.basis.elements, axes=1)
        jump_ops.append(v)
    return LindbladGenerator(dim=g.dim, hamiltonian=g.hamiltonian, jump_ops=tuple(jump_ops))


def _generator_matrix(h: np.ndarray, coeff: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Column-stacking matrix of the generator with Hamiltonian ``h``,
    coefficients ``coeff`` and operators ``ops = {A_a}``.

    With ``X_b = sum_a c_ab A_a`` and ``K = -i h - 1/2 sum_b A_b^dagger X_b``
    the map is ``K rho + rho K^dagger + sum_b X_b rho A_b^dagger``, whose
    matrix is ``I kron K + conj(K) kron I + sum_b conj(A_b) kron X_b``.
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


def superoperator_of(g: GKSGenerator) -> Superoperator:
    """Matrix representation of the generator under column stacking."""
    mat = _generator_matrix(g.hamiltonian, g.coeff, g.basis.elements)
    return Superoperator(dim=g.dim, matrix=mat)
