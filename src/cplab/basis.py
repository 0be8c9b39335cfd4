"""Orthonormal traceless operator bases.

The canonical basis is the generalized Gell-Mann family, ordered symmetric
pairs first, then antisymmetric pairs, then diagonal elements, each scaled
to unit Hilbert-Schmidt norm (``Tr F_a^dagger F_b = delta_ab``).  For d = 2
this reproduces the Pauli matrices divided by sqrt(2).  It depends only on
d, so :func:`standard_basis` builds it once per d and hands out that one
read-only basis.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, NonFinite, ShapeMismatch
from .linalg import _frozen, require_square

#: Trace / Gram deviations beyond this make :class:`OperatorBasis` refuse the elements.
BASIS_TOL = 1e-10

#: Dimensions whose standard basis stays built.  A verdict sweep cycles
#: through d = 2..6, so fewer slots would rebuild on every call; no bound
#: would keep every large basis ever built (d = 60 takes 207 MB).
_CACHED_DIMS = 8


def _require_dim(d, minimum: int, name: str) -> int:
    """``d`` as an ``int`` no smaller than ``minimum``; any integer type works
    (``operator.index``), and anything else raises :class:`InvalidDimension`."""
    try:
        d = operator.index(d)
    except TypeError:
        raise InvalidDimension(f"{name} needs an integer dimension, got {d!r}") from None
    if d < minimum:
        raise InvalidDimension(f"{name} needs d >= {minimum}, got {d}")
    return d


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """The d^2 - 1 traceless elements of an orthonormal operator basis.

    ``elements`` is a stack of shape ``(d^2 - 1, d, d)``; the implied final
    element completing the orthonormal set is ``I_d / sqrt(d)``.  It is stored
    as a read-only complex copy of the validated stack, so a later write to
    the caller's array cannot reach the basis, and one basis can be shared.
    ``dim`` is stored as an ``int``.  Bases compare by identity.
    """

    dim: int
    elements: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", _require_dim(self.dim, 2, "operator basis"))
        elems = np.asarray(self.elements, dtype=complex)
        n = self.dim * self.dim - 1
        if elems.shape != (n, self.dim, self.dim):
            raise ShapeMismatch(
                f"basis for d={self.dim} needs shape ({n}, {self.dim}, {self.dim}),"
                f" got {elems.shape}"
            )
        if not np.all(np.isfinite(elems)):
            raise NonFinite("basis elements contain non-finite entries")
        flat = elems.reshape(n, -1)
        max_trace = np.max(np.abs(np.einsum("aii->a", elems)))
        max_gram = np.max(np.abs(flat.conj() @ flat.T - np.eye(n)))
        if max(max_trace, max_gram) > BASIS_TOL:
            raise ShapeMismatch(
                "basis violates orthonormality/tracelessness: "
                f"max trace deviation {max_trace:.3e}, max Gram deviation {max_gram:.3e}"
            )
        object.__setattr__(self, "elements", _frozen(elems))

    @property
    def size(self) -> int:
        return self.elements.shape[0]

    def expansion_coefficients(self, k) -> np.ndarray:
        """Coefficients ``Tr(F_a^dagger K)`` of the traceless part of ``K``."""
        arr = require_square(k, "K", self.dim)
        return np.einsum("aij,ij->a", self.elements.conj(), arr)


def standard_basis(d: int) -> OperatorBasis:
    """Generalized Gell-Mann basis for dimension ``d`` (deterministic).

    Ordering: symmetric off-diagonal pairs (j < k lexicographic), then the
    antisymmetric partners, then the d - 1 diagonal elements.  ``d`` may be
    any integer type; it is normalized with ``operator.index``.  Each int
    ``d`` gets one shared basis with read-only elements, built on first use
    and kept for the last ``_CACHED_DIMS`` dimensions used; a ``d`` that is
    not an integer or is below 2 raises :class:`InvalidDimension` on every call.
    """
    return _gell_mann(_require_dim(d, 2, "operator basis"))


@functools.lru_cache(maxsize=_CACHED_DIMS)
def _gell_mann(d: int) -> OperatorBasis:
    """The basis of :func:`standard_basis`, built for an int ``d >= 2``."""
    elements = []
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            elements.append(sym / np.sqrt(2.0))
    for j in range(d):
        for k in range(j + 1, d):
            anti = np.zeros((d, d), dtype=complex)
            anti[j, k] = -1.0j
            anti[k, j] = 1.0j
            elements.append(anti / np.sqrt(2.0))
    for level in range(1, d):
        diag = np.zeros((d, d), dtype=complex)
        diag[np.arange(level), np.arange(level)] = 1.0
        diag[level, level] = -level
        elements.append(diag / np.sqrt(level * (level + 1)))
    return OperatorBasis(dim=d, elements=np.stack(elements))
