"""Semigroup evolution, tensor-pair extension and complete positivity.

The one-parameter family ``exp(t L)`` realizes the dynamics of a generator
``L``; two identical, non-interacting copies evolve under the extension
``L kron I + I kron L``, whose exponential factorizes as
``exp(t L) kron exp(t L)``.  :func:`doubled_evolution` applies that product
to each tensor factor of a doubled state, so only ``d^2 x d^2`` matrices are
exponentiated, one time grid per :func:`matrix_exp` call;
:func:`tensor_extension` builds the ``d^4 x d^4`` generator itself as a
reference.

Complete positivity is decided by the exact coefficient-matrix criterion
(smallest eigenvalue of ``C`` against the cutoff ``eps_pos(C, tol)``), the
same test that gates witness construction and the jump-form conversion.
It is cross-checked by conditional complete positivity: the Choi matrix of
``L`` compressed onto the orthogonal complement of the maximally entangled
vector has spectrum ``spec(C)``, so the two smallest eigenvalues must agree
to roundoff, ``1e-10 * ||Choi||_F``, or :class:`InconsistentVerdict` is
raised.

:func:`choi_matrix` returns the unnormalized Choi matrix
``sum_ij E_ij kron m[E_ij]`` over matrix units as a plain array, obtained
by reshuffling the superoperator's entries, so integer fixtures stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentVerdict, InvalidState, ZeroVector
from .generator import GKSGenerator, Superoperator, _coeff_psd, _generator_matrix, superoperator_of
from .linalg import POSITIVITY_TOL, eps_pos, fro_norm, matrix_exp, min_eigenvalue, require_hermitian

#: Largest ``|lambda_min(compressed Choi) - lambda_min(C)|``, relative to
#: ``||Choi||_F``, that counts as roundoff; more means a bug.
_CHOI_AGREEMENT = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        arr = require_hermitian(self.matrix, "density matrix", self.dim)
        trace = complex(np.trace(arr))
        if abs(trace - 1.0) > 1e-10:
            raise InvalidState(f"density matrix trace is {trace:.12g}, expected 1")
        low = min_eigenvalue(arr)
        if low < -eps_pos(arr):
            raise InvalidState(f"density matrix has eigenvalue {low:.3e} below -eps_pos")
        object.__setattr__(self, "matrix", arr)

    @classmethod
    def from_pure(cls, vector) -> "DensityMatrix":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm <= 0.0:
            raise ZeroVector("cannot build a state from the zero vector")
        v = v / norm
        return cls(dim=v.size, matrix=np.outer(v, v.conj()))


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


def doubled_evolution(g: GKSGenerator, state, times) -> np.ndarray:
    """``(exp(t L) kron exp(t L))[state]`` for a ``d^2 x d^2`` state, stacked over ``times``.

    Equal to evolving under :func:`tensor_extension`, but only the
    ``d^2 x d^2`` propagators ``U`` of one copy are exponentiated, in one
    :func:`matrix_exp` call for the whole grid; each acts on both factors as
    ``U M U^T`` on the state ``M`` in the layout of :func:`_split_factors`.
    The result has shape ``(len(times), d^2, d^2)``.
    """
    d = g.dim
    props = matrix_exp(superoperator_of(g).matrix, times)
    split = _split_factors(np.asarray(state, dtype=complex), d)
    return _join_factors(props @ split @ props.transpose(0, 2, 1), d)


def tensor_extension(g: GKSGenerator) -> Superoperator:
    """Generator of two identical copies, ``L kron I + I kron L``.

    Reference implementation: library code evolves doubled states through
    :func:`doubled_evolution` instead of exponentiating this ``d^4 x d^4``
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

    The verdict is ``lambda_min(C) >= -eps_pos(C, tol)``, the same test
    that gates :func:`construct_witness` and :func:`gks_to_lindblad`.  The
    Choi matrix of ``L``, compressed onto the orthogonal complement of the
    maximally entangled vector, has the same spectrum as ``C`` (conditional
    complete positivity); its smallest eigenvalue is reported as
    ``min_choi_eigenvalue``.  It makes no second decision at the cutoff: if
    it differs from ``lambda_min(C)`` by more than ``1e-10 * ||Choi||_F``,
    the verdict raises :class:`InconsistentVerdict`.
    """
    d = g.dim
    min_coeff, cutoff = _coeff_psd(g, tol)
    choi = choi_matrix(superoperator_of(g))
    entangled = np.eye(d).reshape(1, d * d) / np.sqrt(d)
    # The rows of V^H after the first span the complement of ``entangled``.
    complement = np.linalg.svd(entangled)[2][1:].T
    min_choi = min_eigenvalue(complement.T @ choi @ complement)
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
