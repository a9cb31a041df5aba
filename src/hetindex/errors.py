"""Exception hierarchy.

Every error raised by this package derives from :class:`HetindexError`,
so callers can catch one type at the CLI boundary.  Errors that signal
bad user input (dimensions, parse failures, hypothesis violations) are
grouped under :class:`InvalidInput`; errors that signal a numerical
degeneracy that the algorithms cannot resolve (non-transversal
endpoints, irregular crossings) are grouped under :class:`Degeneracy`.
The split mirrors the CLI exit-code contract (2 vs 3).
"""

from __future__ import annotations


class HetindexError(Exception):
    """Base class for all package errors."""


class InvalidInput(HetindexError):
    """Input violates a precondition or a hypothesis check."""


class Degeneracy(HetindexError):
    """A quantity is too close to singular for a sign to be trusted."""


# -- linear algebra ----------------------------------------------------

class DimensionMismatch(InvalidInput):
    """Operands have incompatible shapes."""


class RankDeficient(InvalidInput):
    """Columns fail to be linearly independent at the working tolerance."""


class NotHyperbolic(InvalidInput):
    """A matrix has spectrum within 1e-8 of the imaginary axis."""


class GapTooLarge(InvalidInput):
    """Consecutive subspaces too far apart to align; refine the grid."""


# -- expression language ----------------------------------------------

class ParseError(InvalidInput):
    """Syntax error in an expression.

    Attributes
    ----------
    offset : int
        Byte offset of the offending token in the source text.
    expected : str
        Human-readable description of what was expected.
    """

    def __init__(self, message: str, offset: int, expected: str = ""):
        super().__init__(message)
        self.offset = offset
        self.expected = expected


class UnboundVariable(InvalidInput):
    """An expression references a variable absent from the environment."""


class DomainError(HetindexError):
    """Evaluation left the real domain (log/sqrt of a negative, x/0)."""


# -- integration / flow ------------------------------------------------

class IntegrationFailure(HetindexError):
    """The ODE integrator failed (step underflow or non-finite state)."""


class NotStabilized(InvalidInput):
    """S(lambda, t) has not settled to its limit at the horizon t_max."""


# -- index computations ------------------------------------------------

class DegenerateEndpoint(Degeneracy):
    """det of an endpoint pair matrix is numerically zero."""


class TailNotTransversal(Degeneracy):
    """Pair fails transversality on the unbounded tail samples."""


class BoundaryDegenerate(Degeneracy):
    """Boundary non-degeneracy condition for an orbit fails.

    Carries ``condition``, a short name of the failed check.
    """

    def __init__(self, message: str, condition: str = ""):
        super().__init__(message)
        self.condition = condition


class CannotClose(Degeneracy):
    """Loop closure failed at every plateau width tried."""


class NotClosed(InvalidInput):
    """A path expected to be a loop has distinct endpoints."""


# -- Lagrangian / Maslov ----------------------------------------------

class NotGraphical(Degeneracy):
    """No chart rotation renders both paths as symmetric-matrix graphs."""


class DegenerateForm(Degeneracy):
    """Crossing form has an eigenvalue numerically at zero."""


class IrregularCrossing(Degeneracy):
    """A crossing whose form is degenerate; reported with the instant.

    Attributes
    ----------
    instant : float
        Parameter value of the offending crossing.
    """

    def __init__(self, message: str, instant: float = float("nan")):
        super().__init__(message)
        self.instant = instant


# -- parity ------------------------------------------------------------

class InternalMismatch(HetindexError):
    """Two independent routes to the same value disagree (bug trap)."""


class UnstableTruncation(Degeneracy):
    """Doubling the truncation horizon or grid changes the answer."""


# -- bifurcation -------------------------------------------------------

class BranchResidualTooLarge(InvalidInput):
    """Supplied branch fails to solve the system at branch_tol."""


class HypothesisFailure(InvalidInput):
    """A standing assumption fails; carries the assumption name.

    Attributes
    ----------
    assumption : str
        Short tag of the failed hypothesis, e.g. ``"A1"``.
    """

    def __init__(self, message: str, assumption: str = ""):
        super().__init__(message)
        self.assumption = assumption


# -- configuration -----------------------------------------------------

class ConfigError(InvalidInput):
    """Configuration file fails schema validation or is inconsistent."""
