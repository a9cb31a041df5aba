"""Linear nonautonomous families and their invariant subspace paths.

A family u'(t) = S(lambda, t) u(t) with hyperbolic asymptotic limits
S^- and S^+ carries, at every instant, a stable subspace E^s(t) (data
decaying as t -> +inf) and an unstable subspace E^u(t) (decaying as
t -> -inf).  This module evaluates the family, computes fundamental
solutions, checks the standing hypotheses (limits exist and are
hyperbolic, with the declared dimension split), and tracks the frames
of E^s and E^u along t and along lambda.

Frames are propagated under the flow with periodic re-orthonormalization
and Procrustes alignment (continuous-QR style); raw fundamental-solution
columns would collapse onto the dominant direction.  The direction of
integration is chosen so the tracked subspace is attracting: stable
frames are seeded at +T and integrated backward, unstable frames at -T
forward.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    DimensionMismatch,
    GapTooLarge,
    HypothesisFailure,
    IntegrationFailure,
    InvalidInput,
    NotHyperbolic,
    NotStabilized,
)
from .expr import MatrixExpr, compile_matrix
from .linalg import (
    Frame,
    SpectralSplit,
    gap_distance,
    orthonormalize,
    spectral_split,
)

__all__ = [
    "LinearFamily",
    "AsymptoticLimits",
    "SubspacePath",
    "HypothesisReport",
    "fundamental_solution",
    "asymptotic_limits",
    "invariant_subspace_path",
    "subspace_at",
    "subspaces_over_lambda",
    "path_from_sampler",
    "check_A1_A3",
]

_STAB_TOL = 1e-6
_DEFAULT_RTOL = 1e-9
_DEFAULT_ATOL = 1e-12
_LEG = 2.0          # re-orthonormalization interval for frame transport
_SEED_MARGIN = 5.0  # extra horizon beyond the furthest requested instant
_ESCALATION_CAP = 8
_MAX_DEPTH = 20     # halvings of one interval in midpoint refinement


@dataclass(frozen=True)
class LinearFamily:
    """Evaluator for a matrix family S(lambda, t).

    One broadcasting evaluator serves both :meth:`evaluate` (one point)
    and :meth:`evaluate_many` (arrays of lambda and t).  Expression
    families evaluate through :func:`~hetindex.expr.compile_matrix`,
    so a domain error raises ``DomainError`` while a genuine overflow
    passes through.

    Attributes
    ----------
    n : int
        Ambient dimension.
    k : int
        Declared unstable dimension, dim V^+(S^-).
    t_max : float
        Truncation horizon; limits are read off at +-t_max (escalated
        automatically when the family has not stabilized there).
    matrix : MatrixExpr or None
        The expression grid of an expression family.

    Each family keeps the results of :func:`asymptotic_limits`, which
    depend on the family and lambda only; a family made by
    ``dataclasses.replace`` starts with none.
    """

    n: int
    k: int
    t_max: float = 20.0
    matrix: MatrixExpr | None = None
    _eval: Callable = field(default=None, repr=False, compare=False)
    _limits: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0 <= self.k <= self.n):
            raise DimensionMismatch(f"k={self.k} outside 0..{self.n}")
        if not self.t_max > 0:
            raise InvalidInput("t_max must be positive")
        object.__setattr__(self, "_limits", {})

    @staticmethod
    def from_matrix_expr(m: MatrixExpr, k: int, t_max: float = 20.0) -> "LinearFamily":
        """Family from a grid of expressions in (lambda, t)."""
        if m.rows != m.cols:
            raise DimensionMismatch(f"matrix is {m.rows}x{m.cols}, not square")
        return LinearFamily(n=m.rows, k=k, t_max=t_max, matrix=m,
                            _eval=compile_matrix(m, ("lambda", "t")))

    @staticmethod
    def from_callable(f: Callable, n: int, k: int, t_max: float = 20.0,
                      batched: Callable | None = None) -> "LinearFamily":
        """Family from a Python callable (lam, t) -> (n, n) array.

        ``batched``, when given, is the family's evaluator: it takes
        broadcastable array arguments, returns broadcast(lam, t) +
        (n, n), and ``f`` is never called.  Without it, ``f`` is called
        once per (lambda, t) point.
        """
        if batched is None:
            batched = _pointwise(f, n)
        return LinearFamily(n=n, k=k, t_max=t_max, _eval=batched)

    def evaluate(self, lam: float, t: float) -> np.ndarray:
        """S(lambda, t) as an (n, n) array."""
        S = np.asarray(self._eval(lam, t), dtype=float)
        if S.shape != (self.n, self.n):
            raise DimensionMismatch(
                f"evaluator returned {S.shape}, expected {(self.n, self.n)}"
            )
        return S

    def evaluate_many(self, lam, t) -> np.ndarray:
        """Broadcast evaluation, shape broadcast(lam, t) + (n, n)."""
        return np.asarray(self._eval(lam, t), dtype=float)


def _pointwise(f: Callable, n: int) -> Callable:
    """Broadcasting evaluator calling ``f(lam, t)`` once per point."""
    def run(lam, t):
        if np.ndim(lam) == 0 and np.ndim(t) == 0:
            return f(lam, t)
        lam_b, t_b = np.broadcast_arrays(np.asarray(lam, float),
                                         np.asarray(t, float))
        out = np.empty(lam_b.shape + (n, n))
        for idx in np.ndindex(lam_b.shape):
            out[idx] = f(float(lam_b[idx]), float(t_b[idx]))
        return out

    return run


@dataclass(frozen=True)
class AsymptoticLimits:
    """Limit matrices of a family at one lambda, with their splittings.

    ``horizon`` is the instant where the limits were read off; it is
    t_max unless stabilization required escalation.
    """

    s_minus: np.ndarray
    s_plus: np.ndarray
    split_minus: SpectralSplit
    split_plus: SpectralSplit
    horizon: float


@dataclass(frozen=True)
class SubspacePath:
    """Subspace path: the samples taken so far, and its sampler.

    ``frames`` holds one frame per grid sample and ``sampler`` gives
    the frame at any parameter value, both in arbitrary orientation; a
    routine that reads a determinant sign orients them itself.
    """

    grid: np.ndarray
    frames: tuple
    sampler: Callable = field(repr=False, compare=False)

    def __post_init__(self):
        if not callable(self.sampler):
            raise InvalidInput("a subspace path needs a callable sampler")
        grid = _checked_grid(self.grid)
        if len(self.frames) != len(grid):
            raise DimensionMismatch("one frame per grid sample required")
        n, k = self.frames[0].n, self.frames[0].k
        for f in self.frames:
            if f.n != n or f.k != k:
                raise DimensionMismatch("frames change dimension along path")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "frames", tuple(self.frames))

    @property
    def n(self) -> int:
        return self.frames[0].n

    @property
    def k(self) -> int:
        return self.frames[0].k


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the sampled hypothesis checks for a family.

    ``violations`` holds (lambda, tag, message) triples; ``lam_range``
    is the interval the ``lambdas_checked`` samples cover; ``note``
    records that the check samples a lambda-grid and cannot certify
    uniformity.
    """

    ok: bool
    violations: tuple
    min_gap: float
    lambdas_checked: int
    lam_range: tuple
    note: str = "sampled, not uniform"


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


# -- midpoint refinement -----------------------------------------------

def _bisect(ts: list, samples: list, split: Callable, sample_mids: Callable,
            depths: list | None = None):
    """Breadth-first midpoint refinement of a sampled parameter grid.

    Each round tests only the intervals the previous round made (all of
    them in the first round).  Interval i is halved when its depth is
    below ``_MAX_DEPTH``, its midpoint lies strictly inside it (it may
    not at floating-point resolution) and ``split(samples[i],
    samples[i + 1])`` holds.  One call ``sample_mids(mids, lefts)``
    samples all midpoints of a round, ``lefts`` holding the sample at
    each midpoint's left neighbour.  ``depths`` gives the halvings that
    made each input interval (default all zero).

    Refines the lists in place and returns ``(ts, samples, depths)``.
    """
    if depths is None:
        depths = [0] * (len(ts) - 1)
    fresh = range(len(ts) - 1)
    while True:
        cut = {}
        for i in fresh:
            tm = 0.5 * (ts[i] + ts[i + 1])
            if (depths[i] < _MAX_DEPTH and ts[i] < tm < ts[i + 1]
                    and split(samples[i], samples[i + 1])):
                cut[i] = tm
        if not cut:
            return ts, samples, depths
        mids = sample_mids(list(cut.values()), [samples[i] for i in cut])
        # right to left, so the indices still to come stay valid
        for (i, tm), s in reversed(list(zip(cut.items(), mids))):
            ts.insert(i + 1, tm)
            samples.insert(i + 1, s)
            depths[i:i + 1] = [depths[i] + 1] * 2
        fresh = [i + rank + half for rank, i in enumerate(cut)
                 for half in (0, 1)]


def _too_wide(a: Frame, b: Frame) -> bool:
    """Consecutive path samples more than 0.4 apart in gap."""
    return gap_distance(a, b) > 0.4


# -- integration core --------------------------------------------------

def _solve_matrix_ode(rhs: Callable, t0: float, t1: float, y0: np.ndarray,
                      rtol: float, atol: float, dense_output: bool = False):
    """RK45 solve of a flattened matrix ODE; the final state is checked.

    The solver and the function it wraps form a reference cycle.  The
    solver reaches ``rhs`` only through a list emptied after the solve,
    so the cycle does not keep ``rhs``, or the family it closes over,
    alive until the cyclic garbage collector runs.
    """
    hold = [rhs]
    try:
        sol = solve_ivp(lambda t, y: hold[0](t, y), (t0, t1), y0.ravel(),
                        method="RK45", rtol=rtol, atol=atol,
                        dense_output=dense_output)
    finally:
        hold.clear()
    if not sol.success:
        raise IntegrationFailure(
            f"integration {t0} -> {t1} failed: {sol.message}"
        )
    if not np.all(np.isfinite(sol.y[:, -1])):
        raise IntegrationFailure(f"non-finite state reached at t={t1}")
    return sol


def fundamental_solution(fam: LinearFamily, lam: float, tau: float, t: float,
                         rtol: float = _DEFAULT_RTOL,
                         atol: float = _DEFAULT_ATOL) -> np.ndarray:
    """Fundamental solution gamma_{(lambda,tau)}(t) with gamma(tau) = I.

    Raises
    ------
    InvalidInput
        If tau or t lies outside [-t_max, t_max].
    IntegrationFailure
        On integrator breakdown.
    """
    T = fam.t_max
    if not (-T <= tau <= T and -T <= t <= T):
        raise InvalidInput(
            f"tau={tau}, t={t} outside the horizon [-{T}, {T}]"
        )
    n = fam.n
    if t == tau:
        return np.eye(n)

    def rhs(s, y):
        return (fam.evaluate(lam, s) @ y.reshape(n, n)).ravel()

    sol = _solve_matrix_ode(rhs, tau, t, np.eye(n), rtol, atol)
    return sol.y[:, -1].reshape(n, n)


def asymptotic_limits(fam: LinearFamily, lam: float,
                      delta: float = 1e-8) -> AsymptoticLimits:
    """Limit matrices S^-, S^+ with their spectral splittings.

    Reads the family off at +-T and checks it has settled:
    ||S(+-T) - S(+-T/2)|| <= 1e-6.  T starts at t_max and doubles until
    the check passes (a bounded number of times).

    The family keeps each result, keyed by (lambda, delta), and returns
    the same read-only object on a later call; a failure is not kept,
    so it raises on every call.

    Raises
    ------
    NotStabilized
        If the family keeps drifting at every horizon tried.
    NotHyperbolic
        If a limit matrix has spectrum near the imaginary axis.
    """
    key = (float(lam), delta)
    known = fam._limits.get(key)
    if known is not None:
        return known
    T = fam.t_max
    for _ in range(_ESCALATION_CAP):
        s_minus = fam.evaluate(lam, -T)
        s_plus = fam.evaluate(lam, T)
        drift = max(
            np.linalg.norm(s_minus - fam.evaluate(lam, -T / 2), 2),
            np.linalg.norm(s_plus - fam.evaluate(lam, T / 2), 2),
        )
        if drift <= _STAB_TOL:
            limits = AsymptoticLimits(
                s_minus=_frozen_copy(s_minus),
                s_plus=_frozen_copy(s_plus),
                split_minus=spectral_split(s_minus, delta),
                split_plus=spectral_split(s_plus, delta),
                horizon=T,
            )
            fam._limits[key] = limits
            return limits
        T *= 2.0
    raise NotStabilized(
        f"family still drifting {drift:.2e} at t = +-{T / 2:.0f} (lambda={lam})"
    )


def _frozen_copy(a: np.ndarray) -> np.ndarray:
    # a copy: an evaluator may hand back an array its caller still owns
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _leg_points(t_from: float, t_to: float) -> np.ndarray:
    legs = max(1, int(np.ceil(abs(t_to - t_from) / _LEG)))
    return np.linspace(t_from, t_to, legs + 1)


def _seed(fam: LinearFamily, lam: float, which: str,
          far: float) -> tuple[Frame, float, AsymptoticLimits]:
    """Seed frame at the attracting end, horizon beyond |far|."""
    limits = asymptotic_limits(fam, lam)
    T = max(limits.horizon, abs(far) + _SEED_MARGIN)
    if which == "stable":
        seed = limits.split_plus.v_minus
        return seed, T, limits
    if which == "unstable":
        seed = limits.split_minus.v_plus
        return seed, -T, limits
    raise InvalidInput(f"which must be 'stable' or 'unstable', got {which!r}")


def _check_declared_dims(fam: LinearFamily, limits: AsymptoticLimits):
    ku = limits.split_minus.v_plus.k
    ks = limits.split_plus.v_minus.k
    if ku != fam.k or ks != fam.n - fam.k:
        raise DimensionMismatch(
            f"spectral dims (unstable {ku}, stable {ks}) contradict "
            f"declared k={fam.k} in ambient {fam.n}"
        )


def subspace_at(fam: LinearFamily, lam: float, which: str, t: float,
                rtol: float = _DEFAULT_RTOL,
                atol: float = _DEFAULT_ATOL) -> Frame:
    """E^s(t) or E^u(t) at a single instant (frame orientation arbitrary).

    The one-lambda case of :func:`subspaces_over_lambda`.
    """
    return subspaces_over_lambda(fam, [lam], which, t, rtol, atol)[0]


def invariant_subspace_path(fam: LinearFamily, lam: float, which: str,
                            grid: Sequence[float],
                            rtol: float = _DEFAULT_RTOL,
                            atol: float = _DEFAULT_ATOL) -> SubspacePath:
    """Stable or unstable subspace path sampled on an increasing grid.

    Stable frames are seeded at v_minus(S^+) beyond the last grid point
    and transported backward; unstable frames at v_plus(S^-) forward,
    in one transport to the far grid end that keeps its dense output.
    Inside the transported span the sampler orthonormalizes that
    interpolant, within the integration tolerance of a fresh
    :func:`subspace_at`, which it calls outside the span.  The grid is
    refined as by :func:`path_from_sampler`; orientation is arbitrary.

    Raises
    ------
    InvalidInput
        If the grid is not one :func:`path_from_sampler` accepts.
    DimensionMismatch
        If the spectral dimensions contradict the declared k.
    GapTooLarge
        As :func:`path_from_sampler`.
    """
    grid = _checked_grid(grid)
    stable = which == "stable"
    seed, t0, limits = _seed(fam, lam, which, grid[-1] if stable else grid[0])
    _check_declared_dims(fam, limits)
    t_end = grid[0] if stable else grid[-1]
    _, legs = _transport_batched(fam, np.array([float(lam)]),
                                 seed.columns[None], t0, t_end, rtol, atol,
                                 dense=True)
    # in the direction of travel a leg serves the instants after its
    # start up to and including its end
    ahead = -1.0 if stable else 1.0
    ends = ahead * np.array([b for b, _ in legs])

    def sampler(t: float) -> Frame:
        if t == t0:
            return seed
        if ahead * t0 < ahead * t <= ahead * t_end and legs:
            y = legs[np.searchsorted(ends, ahead * t)][1](t)
            return orthonormalize(y.reshape(seed.n, seed.k))
        return subspace_at(fam, lam, which, t, rtol, atol)

    return path_from_sampler(sampler, grid)


def path_from_sampler(sampler: Callable, grid: Sequence[float]) -> SubspacePath:
    """Sample a subspace-valued function into a path.

    ``sampler(t)`` must return a Frame.  Midpoints are inserted
    wherever consecutive samples are more than 0.4 apart in gap, so a
    coarse grid over a fast rotation still resolves the path.  The
    frames are the raw samples, orientation arbitrary.

    Raises
    ------
    InvalidInput
        Unless the grid holds two or more finite, strictly increasing
        samples; ``sampler`` is then never called.
    GapTooLarge
        If samples still jump after 20 halvings of an interval, or at
        floating-point resolution, as a discontinuous subspace does.
    """
    pts = _checked_grid(grid).tolist()
    pts, raw, depths = _bisect(
        pts, [sampler(t) for t in pts],
        _too_wide,
        lambda ts, lefts: [sampler(t) for t in ts])
    # an interval is left wide only where refinement had to stop
    for i, depth in enumerate(depths):
        a, b = pts[i], pts[i + 1]
        stopped = depth >= _MAX_DEPTH or not a < 0.5 * (a + b) < b
        if stopped and _too_wide(raw[i], raw[i + 1]):
            raise GapTooLarge(f"subspace jumps by more than 0.4 in gap "
                              f"between t={a!r} and t={b!r}")
    return SubspacePath(grid=np.asarray(pts), frames=tuple(raw),
                        sampler=sampler)


# -- batched lambda sweeps ---------------------------------------------

def _transport_batched(fam: LinearFamily, lams: np.ndarray, seeds: np.ndarray,
                       t_from: float, t_to: float,
                       rtol: float, atol: float,
                       dense: bool = False) -> tuple[np.ndarray, list]:
    """Carry one frame per lambda under the flow, all lambdas at once.

    seeds has shape (m, n, k); all m systems ride in one solver call
    per leg, with batched QR and Procrustes alignment between legs.
    This keeps a 201-point lambda sweep at a handful of integrator
    calls.  Returns the final (m, n, k) frames and, with ``dense``,
    one ``(leg end, interpolant)`` pair per leg in the direction of
    travel (else none); an interpolant maps an instant of its leg to
    the raw (m, n, k) solution there, flattened.
    """
    m, n, k = seeds.shape
    Y = seeds.copy()
    legs: list = []
    if k == 0 or t_from == t_to:
        return Y, legs
    # a lone lambda goes in as a scalar: evaluators, numpy or Python,
    # run faster on it than on a length-1 array
    lam_arg = lams[0] if m == 1 else lams

    def rhs(s, y):
        S = fam.evaluate_many(lam_arg, s)
        return np.einsum("...ij,...jk->...ik", S, y.reshape(m, n, k)).ravel()

    pts = _leg_points(t_from, t_to)
    for a, b in zip(pts, pts[1:]):
        sol = _solve_matrix_ode(rhs, a, b, Y, rtol, atol, dense_output=dense)
        if dense:
            legs.append((b, sol.sol))
        Q, _ = np.linalg.qr(sol.y[:, -1].reshape(m, n, k))
        M = np.einsum("mji,mjk->mik", Q, Y)
        U, _, Vt = np.linalg.svd(M)
        Y = np.einsum("mij,mjk->mik", Q, U @ Vt)
    return Y, legs


# The benchmark's tracer (perfbench/tracing.py) also wraps transport
# under this earlier name; as one object under two names, each call is
# still counted once.
_transport_frame = _transport_batched


def subspaces_over_lambda(fam: LinearFamily, lams: Sequence[float], which: str,
                          t: float,
                          rtol: float = _DEFAULT_RTOL,
                          atol: float = _DEFAULT_ATOL) -> list[Frame]:
    """E^s(t) or E^u(t) for every lambda (frame orientation arbitrary).

    A caller that tracks a determinant sign across the sweep aligns the
    frames along lambda itself.
    """
    lams = np.asarray(lams, dtype=float)
    seeds = []
    t0 = None
    for lam in lams:
        seed, t0_cur, limits = _seed(fam, lam, which, t)
        _check_declared_dims(fam, limits)
        seeds.append(seed.columns)
        t0 = t0_cur if t0 is None else (max(t0, t0_cur) if t0_cur > 0
                                        else min(t0, t0_cur))
    cols, _ = _transport_batched(fam, lams, np.asarray(seeds), t0, t,
                                 rtol, atol)
    return [Frame(c) for c in cols]


# -- hypothesis checks -------------------------------------------------

def check_A1_A3(fam: LinearFamily, samples: int = 101,
                lam_range: tuple = (0.0, 1.0)) -> HypothesisReport:
    """Sampled check of the limit hypotheses over lambda in ``lam_range``.

    At each sampled lambda the limits must stabilize, both must be
    hyperbolic, and the limit dimensions must match the declared k:
    dim v_plus(S^-) = k and dim v_minus(S^+) = n - k.  The report can
    only speak for the sampled grid, hence its fixed note.
    """
    violations = []
    min_gap = np.inf
    for lam in np.linspace(*lam_range, samples):
        try:
            limits = asymptotic_limits(fam, lam)
        except NotStabilized as exc:
            violations.append((lam, "A1", str(exc)))
            continue
        except NotHyperbolic as exc:
            violations.append((lam, "A1", str(exc)))
            continue
        min_gap = min(min_gap, limits.split_minus.gap, limits.split_plus.gap)
        ku = limits.split_minus.v_plus.k
        ks = limits.split_plus.v_minus.k
        if ku != fam.k:
            violations.append(
                (lam, "A3", f"dim V^+(S^-) = {ku}, declared k = {fam.k}")
            )
        if ks != fam.n - fam.k:
            violations.append(
                (lam, "A3", f"dim V^-(S^+) = {ks}, expected {fam.n - fam.k}")
            )
    return HypothesisReport(
        ok=not violations,
        violations=tuple(violations),
        min_gap=float(min_gap) if np.isfinite(min_gap) else float("nan"),
        lambdas_checked=samples,
        lam_range=(float(lam_range[0]), float(lam_range[1])),
    )


def _require_A1_A3(fam: LinearFamily, samples: int,
                   lam_range: tuple) -> HypothesisReport:
    """:func:`check_A1_A3`, raising HypothesisFailure on its first violation."""
    hyp = check_A1_A3(fam, samples, lam_range)
    if not hyp.ok:
        lam_bad, tag, msg = hyp.violations[0]
        raise HypothesisFailure(
            f"assumption ({tag}) fails at lambda={lam_bad:.4g}: {msg}",
            assumption=tag,
        )
    return hyp
