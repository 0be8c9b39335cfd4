"""Exception types raised by cplab.

Every failure mode gets its own class so callers can catch precisely; all
inherit from :class:`CplabError`.
"""


class CplabError(Exception):
    """Base class for all cplab errors."""


class ShapeMismatch(CplabError):
    """Operands have incompatible shapes."""


class NonSquare(ShapeMismatch):
    """A square matrix was required."""


class NonFinite(CplabError, ValueError):
    """An input holds NaN or infinite entries."""


class NonHermitian(CplabError):
    """Hermiticity deviation exceeded tolerance."""


class SolverFailure(CplabError):
    """An internal solver exhausted its retry budget."""


class InvalidDimension(CplabError):
    """Dimension outside the supported range."""


class NonTraceless(CplabError):
    """An operator required to be traceless carries a nonzero trace."""


class NonTracelessJump(NonTraceless):
    """A jump operator carries a nonzero trace."""


class InvalidState(CplabError):
    """Matrix is not a valid density matrix."""


class NotCompletelyPositive(CplabError):
    """Requested operation is undefined for a non-CP generator."""


class InconsistentVerdict(CplabError):
    """The coefficient-matrix and Choi-spectrum criteria disagree."""


class NegativeTime(CplabError):
    """Evolution times must be finite and nonnegative."""


class NotOrthogonal(CplabError):
    """Vector pair violates the orthogonality precondition."""


class ZeroVector(CplabError):
    """A nonzero vector was required."""


class TraceConditionViolated(CplabError):
    """Tr(Psi Phi^dagger) = 0 precondition failed."""


class InvalidGrid(CplabError):
    """Time grid must be nonempty, finite, nonnegative and strictly increasing."""


class DimensionMismatch(CplabError):
    """State dimension is incompatible with the generator."""


class ConfigError(CplabError):
    """Configuration file is malformed; message names the offending field."""
