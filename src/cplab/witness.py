"""Entangled witness states for non-CP semigroup generators.

Given a direction ``w`` in ``C^{d^2-1}``, the traceless operator
``W = 1/2 sum_a w_a F_a`` and any invertible ``P`` with ``P^{-1} W P = W^T``
define coefficient matrices ``Phi = P`` and ``Psi^dagger = P^{-1} W`` of an
orthogonal vector pair ``(phi, psi)`` in ``C^d kron C^d``.  The overlap
rate

    d/dt <phi| exp(t(L kron I + I kron L))[|psi><psi|] |phi>  at t = 0

then evaluates to exactly ``(w^dagger C w) / 2``, so the eigenvector of the
most negative eigenvalue of ``C`` certifies that the doubled dynamics loses
positivity in a neighborhood of ``t = 0``.  The coefficients ``w_a`` enter
``W`` without conjugation; this is the convention under which the rate is
the plain quadratic form of ``C`` (a conjugated contraction flips sign
guarantees once ``C`` has complex entries).

The sign freedom ``Psi^dagger Phi = -W^T`` (e.g. with the fixed d = 2
rotation ``Phi``) is invisible to the rate, which is quadratic in each
coefficient matrix; candidates carry the realized sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import OperatorBasis
from .dynamics import _join_factors, _split_factors, evolve
from .errors import (
    InconsistentVerdict,
    InvalidGrid,
    InvalidSimilarity,
    NonFinite,
    NotOrthogonal,
    ShapeMismatch,
    ZeroVector,
)
from .generator import GKSGenerator, superoperator_of
from .linalg import (
    POSITIVITY_TOL,
    SIMILARITY_TOL,
    _frozen,
    _hermitian_margin,
    fro_norm,
    require_square,
    similarity_to_transpose,
)

#: Default scan grid, read-only: the ``times`` of every default scan.  Negativity is
#: guaranteed only near t = 0, so the spacing is logarithmic.
DEFAULT_SCAN_GRID = _frozen(np.geomspace(1e-4, 1.0, 30))


@dataclass(frozen=True, eq=False)
class WitnessCandidate:
    """Certificate that the doubled dynamics fails positivity.

    ``phi``/``psi`` are stored unnormalized exactly as built from the
    coefficient matrices; positive rescaling cannot change any verdict.
    ``psi_matrix_dagger`` is ``Psi^dagger``, the right factor of ``W = Phi Psi^dagger``,
    and ``transpose_sign`` records whether ``Psi^dagger Phi`` realizes ``+W^T`` or ``-W^T``.
    """

    direction: np.ndarray
    direction_operator: np.ndarray
    phi_matrix: np.ndarray
    psi_matrix_dagger: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    value: float
    quadratic_form: float
    transpose_sign: int

    def __post_init__(self):
        w_op = self.direction_operator
        scale = max(1.0, fro_norm(w_op))
        _require_orthogonal(self.phi, self.psi)
        psi_dag = self.psi_matrix_dagger
        if fro_norm(self.phi_matrix @ psi_dag - w_op) > SIMILARITY_TOL * scale:
            raise InconsistentVerdict("phi_matrix @ psi_matrix_dagger does not reproduce W")
        signed = psi_dag @ self.phi_matrix
        if fro_norm(signed - self.transpose_sign * w_op.T) > SIMILARITY_TOL * scale:
            raise InconsistentVerdict("psi_matrix_dagger @ phi_matrix does not reproduce +-W^T")
        if abs(self.quadratic_form) > 1e-8 and np.sign(self.value) != np.sign(self.quadratic_form):
            raise InconsistentVerdict(
                f"overlap rate {self.value:.3e} and quadratic form "
                f"{self.quadratic_form:.3e} disagree in sign"
            )


@dataclass(frozen=True)
class NoNegativeDirection:
    """The coefficient matrix is PSD; no witness exists."""

    min_coeff_eigenvalue: float


@dataclass(frozen=True, eq=False)
class NegativityScan:
    """Evolution of the witness state over a time grid, as built by :func:`negativity_scan`."""

    times: np.ndarray
    min_eigenvalues: np.ndarray
    overlap_values: np.ndarray
    first_negative_time: float | None


def _require_grid(times) -> np.ndarray:
    t = np.asarray(tuple(times), dtype=float)
    if t.size == 0 or not np.all(np.isfinite(t) & (t >= 0)) or np.any(np.diff(t) <= 0):
        raise InvalidGrid("time grid must be nonempty, finite, nonnegative and strictly increasing")
    return t


def _require_orthogonal(phi, psi) -> None:
    overlap = abs(np.vdot(phi, psi))
    if overlap > 1e-10 * max(1.0, fro_norm(phi) * fro_norm(psi)):
        raise NotOrthogonal(f"|<phi|psi>| = {overlap:.3e}, pair must be orthogonal")


def _pair_vectors(phi, psi, dim_sq: int):
    phi_v = np.asarray(phi, dtype=complex).reshape(-1)
    psi_v = np.asarray(psi, dtype=complex).reshape(-1)
    if phi_v.size != dim_sq or psi_v.size != dim_sq:
        raise ShapeMismatch(
            f"pair vectors must have length {dim_sq}, got {phi_v.size} and {psi_v.size}"
        )
    if not (np.all(np.isfinite(phi_v)) and np.all(np.isfinite(psi_v))):
        raise NonFinite("pair vectors contain non-finite entries")
    if fro_norm(psi_v) <= 0.0 or fro_norm(phi_v) <= 0.0:
        raise ZeroVector("pair vectors must be nonzero")
    return phi_v, psi_v


def overlap_rate(g: GKSGenerator, phi, psi) -> float:
    """``<phi| (L kron I + I kron L)[|psi><psi|] |phi>`` for orthogonal vectors.

    This is the t = 0 derivative of the phi-overlap of the evolved
    projector; Hermiticity preservation makes it real.  The doubled
    generator acts on each tensor factor as ``S M + M S^T`` in the split
    layout of :func:`evolve`, with ``S`` the single-copy
    superoperator.
    """
    phi_v, psi_v = _pair_vectors(phi, psi, g.dim * g.dim)
    _require_orthogonal(phi_v, psi_v)
    return _overlap_rate(g, phi_v, psi_v)


def _overlap_rate(g: GKSGenerator, phi_v: np.ndarray, psi_v: np.ndarray) -> float:
    """:func:`overlap_rate` of complex vectors of length ``d^2``, unchecked."""
    d = g.dim
    base = superoperator_of(g).matrix
    split = _split_factors(np.outer(psi_v, psi_v.conj()), d)
    image = _join_factors(base @ split + split @ base.T, d)
    return float(np.vdot(phi_v, image @ phi_v).real)


def direction_operator(w, basis: OperatorBasis) -> np.ndarray:
    """``W = 1/2 sum_a w_a F_a`` (coefficients enter unconjugated)."""
    w_arr = np.asarray(w, dtype=complex).reshape(-1)
    if w_arr.size != basis.size:
        raise ShapeMismatch(f"direction must have length {basis.size}, got {w_arr.size}")
    d = basis.dim
    return 0.5 * (w_arr @ basis.elements.reshape(-1, d * d)).reshape(d, d)


def _candidate_from_direction(
    g: GKSGenerator,
    w: np.ndarray,
    rng: np.random.Generator | None,
    phi_matrix: np.ndarray | None,
) -> WitnessCandidate:
    w_op = direction_operator(w, g.basis)
    if phi_matrix is None:
        phi_m = similarity_to_transpose(w_op, rng=rng)
    else:
        phi_m = require_square(phi_matrix, "phi_matrix", g.dim)
    try:
        psi_dag = np.linalg.solve(phi_m, w_op)
    except np.linalg.LinAlgError:
        raise InvalidSimilarity("phi_matrix is singular") from None
    signed = psi_dag @ phi_m
    plus, minus = fro_norm(signed - w_op.T), fro_norm(signed + w_op.T)
    sign = 1 if plus <= minus else -1
    # The solver's P conjugates W into W^T by construction; an override may not.
    if phi_matrix is not None and min(plus, minus) > SIMILARITY_TOL * max(1.0, fro_norm(w_op)):
        raise InvalidSimilarity("phi_matrix does not conjugate W into +-W^T")
    phi_v = phi_m.reshape(-1)
    psi_v = psi_dag.conj().T.reshape(-1)
    value = _overlap_rate(g, phi_v, psi_v)
    quad = float(np.vdot(w, g.coeff @ w).real)
    return WitnessCandidate(
        direction=np.asarray(w, dtype=complex),
        direction_operator=w_op,
        phi_matrix=phi_m,
        psi_matrix_dagger=psi_dag,
        phi=phi_v,
        psi=psi_v,
        value=value,
        quadratic_form=quad,
        transpose_sign=sign,
    )


def construct_witness(
    g: GKSGenerator,
    rng: np.random.Generator | None = None,
    tol: float = POSITIVITY_TOL,
    phi_matrix=None,
):
    """Build a witness for the most negative direction of the coefficient matrix.

    Returns :class:`NoNegativeDirection` exactly when :func:`~cplab.linalg._hermitian_margin`
    finds ``C`` PSD at ``tol``, the test of :func:`is_completely_positive`;
    ``C`` is read as validated by the generator, and the direction is the
    first eigenvector of the symmetrized ``C`` that the test decided on.
    This is the library's one witness path.  ``phi_matrix`` overrides the
    similarity solver with a fixed coefficient matrix, as the CLI's
    ``--bell-fixture`` does with :func:`bell_phi_matrix`; one that is
    singular or does not conjugate ``W`` into ``+-W^T`` raises
    :class:`InvalidSimilarity`.  Ties between degenerate eigenvalues resolve
    to the first column of the ascending eigendecomposition.
    """
    low, cutoff, sym = _hermitian_margin(g.coeff, tol)
    if low >= -cutoff:
        return NoNegativeDirection(min_coeff_eigenvalue=low)
    w = np.linalg.eigh(sym)[1][:, 0]
    return _candidate_from_direction(g, w, rng, phi_matrix)


def bell_phi_matrix() -> np.ndarray:
    """Coefficient matrix of the d = 2 singlet, ``(|01> - |10>)/sqrt(2)``.

    As a fixed ``Phi`` it conjugates every traceless 2x2 ``W`` into
    ``-W^T``; the sign is not felt by the overlap rate.
    """
    return np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex) / np.sqrt(2.0)


def negativity_scan(
    g: GKSGenerator,
    psi,
    phi,
    t_grid=None,
    tol: float = POSITIVITY_TOL,
) -> NegativityScan:
    """Evolve ``|psi><psi|`` under the doubled dynamics over a time grid.

    ``psi`` is normalized before forming the projector; ``phi`` enters the
    overlap values unnormalized.  ``first_negative_time`` is the earliest
    grid time whose evolved state the one positivity decision,
    :func:`~cplab.linalg._hermitian_margin`, finds not PSD at ``tol``.
    Without ``t_grid`` the scan runs on :data:`DEFAULT_SCAN_GRID`, and
    ``times`` is that shared read-only array.
    """
    times = DEFAULT_SCAN_GRID if t_grid is None else _require_grid(t_grid)
    phi_v, psi_v = _pair_vectors(phi, psi, g.dim * g.dim)
    psi_v = psi_v / fro_norm(psi_v)
    states = evolve(g, np.outer(psi_v, psi_v.conj()), times)
    min_eigs, cutoffs, herm = _hermitian_margin(states, tol)
    overlaps = ((herm @ phi_v) @ phi_v.conj()).real
    negative = times[min_eigs < -cutoffs]
    return NegativityScan(
        times=times,
        min_eigenvalues=min_eigs,
        overlap_values=overlaps,
        first_negative_time=float(negative[0]) if negative.size else None,
    )
