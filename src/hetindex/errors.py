"""Exception hierarchy.

Every error raised by this package derives from :class:`HetindexError`,
so callers can catch one type at the CLI boundary.  Errors that signal
bad user input (dimensions, parse failures, hypothesis violations) are
grouped under :class:`InvalidInput`; errors that signal a numerical
degeneracy that the algorithms cannot resolve (non-transversal
endpoints, irregular crossings) are grouped under :class:`Degeneracy`.
The split mirrors the CLI exit-code contract (2 vs 3).

The checkers that refuse malformed input live here too, at the bottom
of the import graph, so that every module applies one rule per kind of
input: ``_check_samples`` for a count, ``_check_positive`` for a finite
number > 0, ``_check_tolerances`` for an integrator's rtol and atol,
``_checked_grid`` for a sample grid and ``_checked_range`` for an
interval [a, b].  Each raises :class:`InvalidInput` naming the
parameter (the grid checker excepted: it speaks of "grid").
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class HetindexError(Exception):
    """Base class for all package errors."""


class InvalidInput(HetindexError, ValueError):
    """Input violates a precondition or a hypothesis check.

    Also a ValueError, so that a caller's ``except ValueError`` keeps
    catching bad arguments.
    """


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


# -- input checkers ----------------------------------------------------

def _check_samples(samples, least: int, name: str = "samples") -> None:
    """Refuse a count, the parameter ``name``, that is not an integer
    >= ``least``; a bool or a float, even an integral one, is refused."""
    if (isinstance(samples, bool) or not isinstance(samples, (int, np.integer))
            or samples < least):
        raise InvalidInput(
            f"{name} must be an integer >= {least}, got {samples!r}")


def _check_positive(value, name: str) -> None:
    """Refuse a ``name`` that is not a finite number > 0 (NaN included)."""
    if not 0 < value < np.inf:
        raise InvalidInput(f"{name} must be finite and > 0, got {value!r}")


def _check_tolerances(rtol: float, atol: float) -> None:
    """Refuse a NaN or infinite ``rtol`` or ``atol``, and a negative
    ``atol``; an rtol below the floor is raised to it later, as scipy
    does."""
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not np.isfinite(tol):
            raise InvalidInput(f"{name} must be finite, got {tol!r}")
    if atol < 0:
        raise InvalidInput(f"atol must not be negative, got {atol!r}")


def _checked_grid(grid: Sequence[float]) -> np.ndarray:
    """The grid as a float array: two or more finite, increasing samples."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise InvalidInput("grid must hold at least two samples")
    if not np.all(np.isfinite(grid)):
        raise InvalidInput("grid samples must be finite")
    if not np.all(np.diff(grid) > 0):
        raise InvalidInput("grid must be strictly increasing")
    return grid


def _checked_range(pair, name: str) -> tuple[float, float]:
    """The range ``name`` as floats (a, b): exactly two finite numbers
    with a < b."""
    try:
        ends = np.asarray(pair, dtype=float)
    except (TypeError, ValueError):
        ends = None
    if (ends is None or ends.shape != (2,)
            or not -np.inf < ends[0] < ends[1] < np.inf):
        raise InvalidInput(
            f"{name} must be two finite numbers a < b, got {pair!r}")
    return float(ends[0]), float(ends[1])
