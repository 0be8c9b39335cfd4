"""Semigroup evolution, tensor-pair extension and complete positivity.

The one-parameter family ``exp(t L)`` realizes the dynamics of a generator
``L``; two identical, non-interacting copies evolve under the extension
``L kron I + I kron L``, whose exponential factorizes as
``exp(t L) kron exp(t L)``.  :func:`evolve` is the one function that applies
propagators to states: a single state through each propagator's
:meth:`Superoperator.apply`, a doubled one through that product on each
tensor factor, so only ``d^2 x d^2`` matrices are exponentiated, one time
grid per :func:`matrix_exp` call; :func:`tensor_extension` builds the
``d^4 x d^4`` generator itself as a reference.

Complete positivity is decided by the exact coefficient-matrix criterion,
``C`` PSD by the one positivity decision of :mod:`cplab.linalg`: the same
test that gates witness construction and the jump-form conversion, and
that :class:`DensityMatrix` and the negativity scan apply to states; each
refuses a tolerance outside ``[0, 1)``.  It is cross-checked by conditional
complete positivity: the Choi matrix of ``L`` compressed onto the
orthogonal complement of the maximally entangled vector, which the
``vec(F_a)`` of the generator's own basis span, is ``C`` up to roundoff, so
the two smallest eigenvalues must agree to ``1e-10 * ||Choi||_F``, or
:class:`InconsistentVerdict` is raised.

:func:`choi_matrix` returns the unnormalized Choi matrix
``sum_ij E_ij kron m[E_ij]`` over matrix units as a plain array, obtained
by reshuffling the superoperator's entries, so integer fixtures stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import _require_dim
from .errors import DimensionMismatch, InconsistentVerdict, InvalidState, ZeroVector
from .generator import GKSGenerator, Superoperator, _generator_matrix, superoperator_of
from .linalg import (
    POSITIVITY_TOL,
    _frozen,
    _hermitian_margin,
    fro_norm,
    matrix_exp,
    min_eigenvalue,
    require_hermitian,
    require_square,
)

#: Largest ``|Tr rho - 1|`` of a state, and the largest trace drift ``evolve`` accepts.
TRACE_TOL = 1e-10

#: Largest ``|lambda_min(compressed Choi) - lambda_min(C)|``, relative to
#: ``||Choi||_F``, that counts as roundoff; more means a bug.
_CHOI_AGREEMENT = 1e-10


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian state of trace 1 within ``TRACE_TOL``, positive semidefinite by
    :func:`psd_margin` at ``tol``.

    ``matrix`` is stored as a read-only complex copy of the validated array,
    and ``dim`` as an ``int``.
    """

    dim: int
    matrix: np.ndarray
    tol: float = POSITIVITY_TOL

    def __post_init__(self):
        object.__setattr__(self, "dim", _require_dim(self.dim, 1, "density matrix"))
        arr = require_hermitian(self.matrix, "density matrix", self.dim)
        trace = complex(np.trace(arr))
        if abs(trace - 1.0) > TRACE_TOL:
            raise InvalidState(f"density matrix trace is {trace:.12g}, expected 1")
        low, cutoff, _ = _hermitian_margin(arr, self.tol)
        if low < -cutoff:
            raise InvalidState(f"density matrix has eigenvalue {low:.3e} below -eps_pos")
        object.__setattr__(self, "matrix", _frozen(arr))

    @classmethod
    def from_pure(cls, vector, tol: float = POSITIVITY_TOL) -> "DensityMatrix":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        norm = fro_norm(v)
        if norm <= 0.0:
            raise ZeroVector("cannot build a state from the zero vector")
        v = v / norm
        return cls(dim=v.size, matrix=np.outer(v, v.conj()), tol=tol)


@dataclass(frozen=True)
class CPVerdict:
    """Outcome of the complete-positivity test.

    ``is_cp`` is ``min_coeff_eigenvalue >= -tolerance`` with ``tolerance``
    the cutoff ``eps_pos(C, tol)``.  ``min_choi_eigenvalue`` is the smallest
    eigenvalue of the Choi matrix of ``L`` compressed onto the orthogonal
    complement of the maximally entangled vector, equal to
    ``min_coeff_eigenvalue`` up to roundoff.
    """

    is_cp: bool
    min_choi_eigenvalue: float
    min_coeff_eigenvalue: float
    tolerance: float


def evolution_map(g: GKSGenerator, t: float) -> Superoperator:
    """The map ``exp(t L)`` as a superoperator; identity at ``t = 0``."""
    base = superoperator_of(g)
    return Superoperator(dim=g.dim, matrix=matrix_exp(base.matrix, (t,))[0])


def _split_factors(state: np.ndarray, d: int) -> np.ndarray:
    """Reorder a ``d^2 x d^2`` operator on ``C^d kron C^d`` so that rows index
    ``vec`` of the first factor and columns ``vec`` of the second; a product
    ``A kron B`` becomes ``vec(A) vec(B)^T``."""
    return state.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)


def _join_factors(split: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`_split_factors`, for one matrix or a stack of them."""
    return split.reshape(-1, d, d, d, d).transpose(0, 2, 4, 1, 3).reshape(split.shape)


def evolve(g: GKSGenerator, state, times) -> np.ndarray:
    """``exp(t L)[state]`` of a ``d x d`` state, or ``(exp(t L) kron exp(t L))[state]``
    of a ``d^2 x d^2`` one, stacked over ``times``.

    The ``d^2 x d^2`` propagators ``U`` of one copy come from one
    :func:`matrix_exp` call for the whole grid.  A single state goes through
    each ``Superoperator(d, U).apply``, so one time gives the bits of
    :func:`evolution_map`; a doubled state ``M`` becomes ``U M U^T`` in the
    layout of :func:`_split_factors`, equal to evolving under
    :func:`tensor_extension`.  Any other shape raises
    :class:`DimensionMismatch` before anything is exponentiated.
    """
    d = g.dim
    arr = require_square(state, "state")
    if arr.shape[0] not in (d, d * d):
        raise DimensionMismatch(f"state dimension {arr.shape[0]} is neither d={d} nor d^2={d * d}")
    props = matrix_exp(superoperator_of(g).matrix, times)
    if arr.shape[0] == d:
        return np.stack([Superoperator(dim=d, matrix=u).apply(arr) for u in props])
    split = _split_factors(arr, d)
    return _join_factors(props @ split @ props.transpose(0, 2, 1), d)


def tensor_extension(g: GKSGenerator) -> Superoperator:
    """Generator of two identical copies, ``L kron I + I kron L``.

    Reference implementation: library code evolves doubled states through
    :func:`evolve` instead of exponentiating this ``d^4 x d^4``
    matrix.

    Built directly from the extended operator sets ``F_a kron I`` and
    ``I kron F_a`` (same coefficient matrix), which realizes each one-sided
    term of the generator acting on one tensor factor only.
    """
    d = g.dim
    eye = np.eye(d)
    left = np.stack([np.kron(f, eye) for f in g.basis.elements])
    right = np.stack([np.kron(eye, f) for f in g.basis.elements])
    mat = _generator_matrix(np.kron(g.hamiltonian, eye), g.coeff, left)
    mat += _generator_matrix(np.kron(eye, g.hamiltonian), g.coeff, right)
    return Superoperator(dim=d * d, matrix=mat)


def choi_matrix(m: Superoperator) -> np.ndarray:
    """``sum_ij E_ij kron m[E_ij]`` over the matrix units ``E_ij``.

    Under column stacking this is a fixed reshuffle of the entries of
    ``m.matrix``, so no map is applied.
    """
    d = m.dim
    return m.matrix.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


def is_completely_positive(g: GKSGenerator, tol: float = POSITIVITY_TOL) -> CPVerdict:
    """Decide complete positivity of the semigroup generated by ``g``.

    The verdict is :func:`psd_margin` of ``C``, the same test that gates
    :func:`construct_witness` and :func:`gks_to_lindblad`; ``C`` was
    validated when ``g`` was built and is not checked again.  The Choi matrix
    of ``L``, compressed onto the orthogonal complement of the maximally
    entangled vector, has the same spectrum as ``C`` (conditional complete
    positivity): the column-stacked ``vec(F_a)`` of the generator's own basis
    span that complement, and in that frame the compressed matrix is ``C``
    entry by entry, up to roundoff.  Its smallest eigenvalue is reported as
    ``min_choi_eigenvalue``.  It makes no second decision at the cutoff: if it
    differs from ``lambda_min(C)`` by more than ``1e-10 * ||Choi||_F``, the
    verdict raises :class:`InconsistentVerdict`.
    """
    d, n = g.dim, g.basis.size
    min_coeff, cutoff, _ = _hermitian_margin(g.coeff, tol)
    choi = choi_matrix(superoperator_of(g))
    frame = g.basis.elements.transpose(0, 2, 1).reshape(n, d * d).T
    min_choi = min_eigenvalue(frame.conj().T @ choi @ frame)
    if abs(min_choi - min_coeff) > _CHOI_AGREEMENT * fro_norm(choi):
        raise InconsistentVerdict(
            f"coefficient matrix (min eig {min_coeff:.6e}) and compressed Choi matrix "
            f"(min eig {min_choi:.6e}) disagree beyond roundoff"
        )
    return CPVerdict(
        is_cp=min_coeff >= -cutoff,
        min_choi_eigenvalue=min_choi,
        min_coeff_eigenvalue=min_coeff,
        tolerance=cutoff,
    )
