"""Orthonormal traceless operator bases.

The canonical basis is the generalized Gell-Mann family, ordered symmetric
pairs first, then antisymmetric pairs, then diagonal elements, each scaled
to unit Hilbert-Schmidt norm (``Tr F_a^dagger F_b = delta_ab``).  For d = 2
this reproduces the Pauli matrices divided by sqrt(2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, ShapeMismatch
from .linalg import as_complex_matrix

#: Trace / Gram deviations beyond this fail validation.
BASIS_TOL = 1e-10


@dataclass(frozen=True)
class OperatorBasis:
    """The d^2 - 1 traceless elements of an orthonormal operator basis.

    ``elements`` is a stack of shape ``(d^2 - 1, d, d)``; the implied final
    element completing the orthonormal set is ``I_d / sqrt(d)``.
    """

    dim: int
    elements: np.ndarray

    def __post_init__(self):
        elems = np.asarray(self.elements, dtype=complex)
        expected = self.dim * self.dim - 1
        if elems.shape != (expected, self.dim, self.dim):
            raise ShapeMismatch(
                f"basis for d={self.dim} needs shape ({expected}, {self.dim}, {self.dim}),"
                f" got {elems.shape}"
            )
        object.__setattr__(self, "elements", elems)
        report = validate_basis(self)
        if not report.passed:
            raise ShapeMismatch(
                "basis violates orthonormality/tracelessness: "
                f"max trace deviation {report.max_trace_deviation:.3e}, "
                f"max Gram deviation {report.max_gram_deviation:.3e}"
            )

    @property
    def size(self) -> int:
        return self.elements.shape[0]

    def expansion_coefficients(self, k) -> np.ndarray:
        """Coefficients ``Tr(F_a^dagger K)`` of the traceless part of ``K``."""
        arr = as_complex_matrix(k, "K")
        if arr.shape != (self.dim, self.dim):
            raise ShapeMismatch(f"K must be {self.dim}x{self.dim}, got {arr.shape}")
        return np.einsum("aij,ij->a", self.elements.conj(), arr)

    def reconstruct(self, trace: complex, coefficients: np.ndarray) -> np.ndarray:
        """Rebuild ``K`` from its trace and expansion coefficients."""
        out = np.tensordot(np.asarray(coefficients, dtype=complex), self.elements, axes=1)
        out += (trace / self.dim) * np.eye(self.dim)
        return out


@dataclass(frozen=True)
class BasisReport:
    """Diagnostics from :func:`validate_basis`."""

    max_trace_deviation: float
    max_gram_deviation: float
    passed: bool


def standard_basis(d: int) -> OperatorBasis:
    """Generalized Gell-Mann basis for dimension ``d`` (deterministic).

    Ordering: symmetric off-diagonal pairs (j < k lexicographic), then the
    antisymmetric partners, then the d - 1 diagonal elements.
    """
    if d < 2:
        raise InvalidDimension(f"operator basis needs d >= 2, got {d}")
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


def validate_basis(basis: OperatorBasis | np.ndarray, dim: int | None = None) -> BasisReport:
    """Report the worst trace and Gram-matrix deviations of a basis stack."""
    if isinstance(basis, OperatorBasis):
        elems, dim = basis.elements, basis.dim
    else:
        elems = np.asarray(basis, dtype=complex)
        if elems.ndim != 3 or elems.shape[1] != elems.shape[2]:
            raise ShapeMismatch(f"expected a stack of square matrices, got shape {elems.shape}")
        if dim is not None and elems.shape[1] != dim:
            raise ShapeMismatch(f"elements are {elems.shape[1]}x{elems.shape[2]}, expected d={dim}")
    traces = np.einsum("aii->a", elems)
    n, d = elems.shape[:2]
    flat = elems.reshape(n, d * d)
    gram = flat.conj() @ flat.T
    max_trace = float(np.max(np.abs(traces))) if traces.size else 0.0
    max_gram = float(np.max(np.abs(gram - np.eye(n)))) if traces.size else 0.0
    return BasisReport(
        max_trace_deviation=max_trace,
        max_gram_deviation=max_gram,
        passed=max_trace <= BASIS_TOL and max_gram <= BASIS_TOL,
    )
