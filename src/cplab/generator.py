"""Dissipative semigroup generators and their matrix representations.

A generator acts on density matrices as

    L[rho] = -i [H, rho] + sum_ab c_ab (F_a rho F_b^dagger
                                        - 1/2 {F_b^dagger F_a, rho})

with traceless Hermitian ``H``, Hermitian coefficient matrix ``C = [c_ab]``
and an orthonormal traceless operator basis ``{F_a}``.  The equivalent jump
form uses operators ``V_r``: ``C = V^T conj(V)`` for their basis expansions
``V``, and the jumps come from the kept eigenpairs of ``C`` in one product.

Superoperators use column stacking: ``vec(A rho B) = (B^T kron A) vec(rho)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import OperatorBasis, _require_dim
from .errors import NonFinite, NonTraceless, NonTracelessJump, NotCompletelyPositive, ShapeMismatch
from .linalg import (
    HERMITICITY_TOL,
    POSITIVITY_TOL,
    _frozen,
    _hermitian_margin,
    fro_norm,
    require_hermitian,
    require_square,
)


def _require_traceless(m: np.ndarray, name: str, error=NonTraceless) -> np.ndarray:
    trace = abs(complex(np.trace(m)))
    if trace > HERMITICITY_TOL * max(1.0, fro_norm(m)):
        raise error(f"{name} has |trace| = {trace:.3e}, expected 0")
    return m


def _hamiltonian(h, dim: int) -> np.ndarray:
    """``h`` as a traceless Hermitian ``dim x dim`` matrix of finite Frobenius norm, or the
    typed error: a norm that overflows would reach the verdict's Choi matrix as NaN."""
    arr = require_hermitian(h, "hamiltonian", dim)
    if not math.isfinite(fro_norm(arr)):
        raise NonFinite("hamiltonian has a Frobenius norm that overflows")
    return _require_traceless(arr, "hamiltonian")


@dataclass(frozen=True, eq=False)
class GKSGenerator:
    """Generator in coefficient-matrix form.

    ``hamiltonian`` must be Hermitian and traceless; ``coeff`` Hermitian of
    size ``(d^2-1) x (d^2-1)``.  A trace component in ``hamiltonian`` is
    rejected rather than projected out, so caller bugs stay visible.  Both
    are stored as read-only complex copies of the validated arrays, so the
    CP verdict, the witness and :func:`gks_to_lindblad` read ``coeff``
    without checking it again.  ``dim`` must be an integer >= 2 and is stored
    as an ``int``; generators compare by identity.
    """

    dim: int
    hamiltonian: np.ndarray
    coeff: np.ndarray
    basis: OperatorBasis

    def __post_init__(self):
        object.__setattr__(self, "dim", _require_dim(self.dim, 2, "generator"))
        h = _hamiltonian(self.hamiltonian, self.dim)
        c = require_hermitian(self.coeff, "coeff", self.dim * self.dim - 1)
        if self.basis.dim != self.dim:
            raise ShapeMismatch(f"basis dimension {self.basis.dim} != generator dimension {self.dim}")
        object.__setattr__(self, "hamiltonian", _frozen(h))
        object.__setattr__(self, "coeff", _frozen(c))


@dataclass(frozen=True, eq=False)
class LindbladGenerator:
    """Generator in jump-operator form; every ``V_r`` must be traceless.

    ``hamiltonian`` and each jump operator are stored as read-only complex
    copies of the validated arrays, and ``dim`` (an integer >= 2) as an ``int``.
    """

    dim: int
    hamiltonian: np.ndarray
    jump_ops: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "dim", _require_dim(self.dim, 2, "generator"))
        h = _hamiltonian(self.hamiltonian, self.dim)
        ops = []
        for r, op in enumerate(self.jump_ops):
            arr = require_square(op, f"jump_ops[{r}]", self.dim)
            ops.append(_frozen(_require_traceless(arr, f"jump_ops[{r}]", error=NonTracelessJump)))
        object.__setattr__(self, "hamiltonian", _frozen(h))
        object.__setattr__(self, "jump_ops", tuple(ops))


@dataclass(frozen=True, eq=False)
class Superoperator:
    """Matrix of a linear map on vectorized ``dim x dim`` matrices, stored as
    a read-only complex copy of the validated array; ``dim`` is stored as an ``int``."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", _require_dim(self.dim, 1, "superoperator"))
        arr = require_square(self.matrix, "superoperator matrix", self.dim * self.dim)
        object.__setattr__(self, "matrix", _frozen(arr))

    def apply(self, rho) -> np.ndarray:
        arr = require_square(rho, "rho", self.dim)
        return (self.matrix @ arr.reshape(-1, order="F")).reshape(self.dim, self.dim, order="F")


def lindblad_to_gks(l: LindbladGenerator, basis: OperatorBasis) -> GKSGenerator:
    """``C = V^T conj(V)``, where row ``r`` of ``V`` expands jump operator ``V_r`` over
    ``basis``: ``C = sum_r v_r v_r^dagger`` is PSD, and zero without jumps."""
    if basis.dim != l.dim:
        raise ShapeMismatch(f"basis dimension {basis.dim} != generator dimension {l.dim}")
    v = np.array([basis.expansion_coefficients(op) for op in l.jump_ops]).reshape(-1, basis.size)
    return GKSGenerator(dim=l.dim, hamiltonian=l.hamiltonian, coeff=v.T @ v.conj(), basis=basis)


def gks_to_lindblad(g: GKSGenerator, tol: float = POSITIVITY_TOL) -> LindbladGenerator:
    """Factor ``C`` and return the jump-operator form.

    The factorization is the Hermitian eigendecomposition of the same
    symmetrized ``C`` that the positivity test decides on, rather than
    Cholesky, which fails on the semidefinite boundary.  A ``C`` that
    the CP verdict finds not PSD raises :class:`NotCompletelyPositive` (the
    conversion is undefined there); eigenvalues up to ``1e-12 *
    max(1, lambda_max)`` are dropped.
    """
    low, cutoff, sym = _hermitian_margin(g.coeff, tol)
    if low < -cutoff:
        raise NotCompletelyPositive(f"coefficient matrix has eigenvalue {low:.6e} < -{cutoff:.1e}")
    vals, vecs = np.linalg.eigh(sym)
    keep = vals > 1e-12 * max(1.0, float(vals[-1]))
    d = g.dim
    # Jump k is sqrt(lambda_k) sum_a u_ak F_a: one product for every kept eigenvector.
    ops = np.sqrt(vals[keep])[:, None] * (vecs[:, keep].T @ g.basis.elements.reshape(-1, d * d))
    return LindbladGenerator(dim=d, hamiltonian=g.hamiltonian, jump_ops=tuple(ops.reshape(-1, d, d)))


def _generator_matrix(h: np.ndarray, coeff: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Column-stacking matrix of the generator with Hamiltonian ``h``,
    coefficients ``coeff`` and operators ``ops = {A_a}``.

    With ``X_b = sum_a c_ab A_a`` and ``K = -i h - 1/2 sum_b A_b^dagger X_b``
    the map is ``K rho + rho K^dagger + sum_b X_b rho A_b^dagger``, whose
    matrix is ``I kron K + conj(K) kron I + sum_b conj(A_b) kron X_b``.
    """
    n, d = ops.shape[:2]
    # Plain matrix products on reshaped stacks, the products np.tensordot forms.
    x = coeff.T @ ops.reshape(n, d * d)
    ops_bar = ops.conj()
    k = -1j * h - 0.5 * (ops_bar.reshape(n * d, d).T @ x.reshape(n * d, d))
    jumps = ops_bar.reshape(n, d * d).T @ x
    out = jumps.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    eye = np.eye(d)
    # I kron K + conj(K) kron I by broadcasting: exact 0/1 products, bitwise equal to np.kron.
    out += (eye[:, None, :, None] * k[None, :, None, :]
            + k.conj()[:, None, :, None] * eye[None, :, None, :]).reshape(d * d, d * d)
    return out


def superoperator_of(g: GKSGenerator) -> Superoperator:
    """Matrix representation of the generator under column stacking."""
    mat = _generator_matrix(g.hamiltonian, g.coeff, g.basis.elements)
    return Superoperator(dim=g.dim, matrix=mat)
