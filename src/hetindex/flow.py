"""Linear nonautonomous families and their invariant subspace paths.

A family u'(t) = S(lambda, t) u(t) with hyperbolic asymptotic limits
S^- and S^+ carries, at every instant, a stable subspace E^s(t) (data
decaying as t -> +inf) and an unstable subspace E^u(t) (decaying as
t -> -inf).  This module evaluates the family, computes fundamental
solutions, checks the standing hypotheses (limits exist and are
hyperbolic, with the declared dimension split), and tracks the frames
of E^s and E^u along t and along lambda.

Frames are propagated under the flow and restarted every 2 time units
on their QR factor, signed so that R has a positive diagonal
(continuous-QR style); raw fundamental-solution columns would collapse
onto the dominant direction.  The direction of integration is chosen so
the tracked subspace is attracting: stable frames are seeded at +T and
integrated backward, unstable frames at -T forward.  A pair (E^u, E^s)
travels in one solve, the stable block in mirrored time, so both sides
share every S evaluation and one step control (the standard scheme for
Evans-function shooting: Humpherys, Sandstede & Zumbrun, Numer. Math.
103, 2006).

The integrator is the module's own Dormand-Prince 8(5,3) loop (DOP853),
scipy's method operation for operation, so ``rtol`` and ``atol`` keep
their meaning.  S does not depend on the state, so each step attempt
evaluates S once, at all its stage instants together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, ClassVar, NamedTuple, Sequence

import numpy as np

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
    _ORTHO_TOL,
    _gaps,
    _signed_qr,
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
    passes through, and every route rounds "^" as ``np.power``: each
    point of :meth:`evaluate_many` is bitwise its :meth:`evaluate` and
    its strict ``eval_matrix`` value.

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

    Raises
    ------
    DimensionMismatch
        If k lies outside 0..n.
    InvalidInput
        If t_max is not a finite number > 0, or the family has no
        evaluator (build it with ``from_matrix_expr`` or
        ``from_callable``).

    Each family keeps the spectral split of each distinct limit
    matrix, keyed by its shape and bytes, and nothing else; a family
    made by ``dataclasses.replace`` starts with none.
    """

    n: int
    k: int
    t_max: float = 20.0
    matrix: MatrixExpr | None = None
    _eval: Callable = field(default=None, repr=False, compare=False)
    _splits: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0 <= self.k <= self.n):
            raise DimensionMismatch(f"k={self.k} outside 0..{self.n}")
        _check_positive(self.t_max, "t_max")
        if not callable(self._eval):
            raise InvalidInput("a family needs an evaluator: build it with "
                               "from_matrix_expr or from_callable")
        object.__setattr__(self, "_splits", {})

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
    """Broadcasting evaluator calling ``f(lam, t)`` once per point.

    A point whose value is not (n, n) raises DimensionMismatch, rather
    than being broadcast into its slot.
    """
    def run(lam, t):
        if np.ndim(lam) == 0 and np.ndim(t) == 0:
            return f(lam, t)
        lam_b, t_b = np.broadcast_arrays(np.asarray(lam, float),
                                         np.asarray(t, float))
        out = np.empty(lam_b.shape + (n, n))
        for idx in np.ndindex(lam_b.shape):
            S = f(float(lam_b[idx]), float(t_b[idx]))
            if np.shape(S) != (n, n):
                raise DimensionMismatch(f"evaluator returned "
                                        f"{np.shape(S)}, expected {(n, n)}")
            out[idx] = S
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

    ``stack`` holds one frame per grid sample as a read-only (m, n, k)
    array, checked as :func:`path_from_sampler` checks a sampled stack.
    ``sampler`` takes a 1-d array of parameters and returns the
    (len, n, k) stack of frames there; :meth:`sample` calls it and
    checks its answer.  Frames come in arbitrary orientation; a routine
    that reads a determinant sign orients them itself.  ``frames``
    views the stack as a tuple of :class:`Frame`, built when first read.
    """

    grid: np.ndarray
    stack: np.ndarray
    sampler: Callable = field(repr=False, compare=False)

    def __post_init__(self):
        if not callable(self.sampler):
            raise InvalidInput("a subspace path needs a callable sampler")
        grid = _checked_grid(self.grid)
        stack = np.array(self.stack, dtype=float)
        _check_stack(stack, grid, None)
        stack.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "stack", stack)

    @cached_property
    def frames(self) -> tuple:
        return tuple(map(Frame._trusted, self.stack))

    def sample(self, ts) -> np.ndarray:
        """The sampler's (len(ts), n, k) stack at the parameters ``ts``."""
        return _sampled(self.sampler, np.asarray(ts, dtype=float),
                        self.stack.shape[1:])

    @property
    def n(self) -> int:
        return self.stack.shape[1]

    @property
    def k(self) -> int:
        return self.stack.shape[2]


def _check_stack(Y: np.ndarray, ts: np.ndarray, shape: tuple | None):
    """Refuse Y unless it is (len(ts), n, k), k <= n, of the given (n, k)
    if any, finite, with max |Y^T Y - I| <= 1e-10 on every member; the
    error names the first bad parameter."""
    if (Y.ndim != 3 or len(Y) != len(ts) or Y.shape[2] > Y.shape[1]
            or shape is not None and Y.shape[1:] != tuple(shape)):
        want = "(len(ts), n, k)" if shape is None else (len(ts), *shape)
        raise DimensionMismatch(f"frames of shape {Y.shape} sampled from "
                                f"t={float(ts[0])!r}, expected {want}")
    if not np.isfinite(Y).all():
        i = (~np.isfinite(Y).all(axis=(1, 2))).argmax()
        raise InvalidInput(f"frame sampled at t={float(ts[i])!r} "
                           f"has non-finite entries")
    k = Y.shape[2]
    defect = np.abs(np.swapaxes(Y, 1, 2) @ Y - np.eye(k))
    if k and not defect.max() <= _ORTHO_TOL:
        defect = defect.max(axis=(1, 2))
        i = (defect > _ORTHO_TOL).argmax()
        raise InvalidInput(
            f"frame sampled at t={float(ts[i])!r}: columns not "
            f"orthonormal (defect {defect[i]:.2e} > {_ORTHO_TOL})")


def _sampled(sampler: Callable, ts: np.ndarray,
             shape: tuple | None = None) -> np.ndarray:
    """``sampler(ts)`` as a float stack, checked by :func:`_check_stack`.

    A return that is not a real numeric array (a list of Frames, strings,
    complex values) is refused with InvalidInput naming the first instant.
    """
    out = sampler(ts)
    try:
        Y = np.asarray(out)
    except (TypeError, ValueError):     # a ragged sequence, say
        Y = np.empty(0, dtype=object)
    if Y.dtype.kind not in "iuf":
        raise InvalidInput(
            f"sampler returned {type(out).__name__} of dtype {Y.dtype} from "
            f"t={float(ts[0])!r}; a sampler maps ts to a (len(ts), n, k) "
            f"real stack")
    Y = Y.astype(float, copy=False)
    _check_stack(Y, ts, shape)
    return Y


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
    note: ClassVar[str] = "sampled, not uniform"


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


# -- midpoint refinement -----------------------------------------------

def _bisect(ts: np.ndarray, samples: tuple, split: Callable,
            sample_mids: Callable, depths: np.ndarray | None = None):
    """Breadth-first midpoint refinement of a sampled parameter grid.

    ``samples`` is a tuple of arrays, each holding one entry per grid
    sample along its first axis.  Each round tests only the intervals
    the previous round made (all of them in the first round).  Interval
    i is halved when its depth is below ``_MAX_DEPTH``, its midpoint
    lies strictly inside it (it may not at floating-point resolution)
    and the split predicate holds.  ``split(lefts, rights)`` gets the
    samples at the two ends of every such interval as two tuples of
    stacks, and returns one bool per interval.  One call
    ``sample_mids(mids, lefts)`` samples all midpoints of a round, with
    ``lefts`` the samples at their left neighbours, and returns a tuple
    of stacks laid out as ``samples``.  ``depths`` gives the halvings
    that made each input interval (default all zero).

    Returns the refined ``(ts, samples, depths)`` as new arrays.
    """
    ts = np.asarray(ts, dtype=float)
    # depth[i] counts the halvings that made the interval from sample i
    depth = np.zeros(len(ts), dtype=int)
    depth[:-1] = 0 if depths is None else depths
    fresh = np.arange(len(ts) - 1)
    while True:
        a, b = ts[fresh], ts[fresh + 1]
        mids = 0.5 * (a + b)
        open_ = (depth[fresh] < _MAX_DEPTH) & (a < mids) & (mids < b)
        cut, mids = fresh[open_], mids[open_]
        if len(cut):
            hit = np.asarray(split(tuple(s[cut] for s in samples),
                                   tuple(s[cut + 1] for s in samples)), bool)
            cut, mids = cut[hit], mids[hit]
        if not len(cut):
            return ts, samples, depth[:-1]
        new = sample_mids(mids, tuple(s[cut] for s in samples))
        depth[cut] += 1
        # each midpoint lies strictly inside its interval, so sorting
        # splices it in; the halved intervals are tested next round
        order = np.argsort(np.concatenate([ts, mids]))
        fresh = np.flatnonzero(np.isin(order, cut) | (order >= len(ts)))
        ts, depth, *samples = (np.concatenate([s, x])[order] for s, x in
                               zip((ts, depth, *samples),
                                   (mids, depth[cut], *new)))
        samples = tuple(samples)


def _refuse_unresolved(ts: np.ndarray, samples: tuple, depths: np.ndarray,
                       split: Callable, jump: str) -> None:
    """Raise GapTooLarge on the first interval of a ``_bisect`` result
    that ``split`` still holds on where halving had to stop: after
    ``_MAX_DEPTH`` halvings, or at floating-point resolution.  ``jump``
    says what the samples do there, for the message."""
    a, b = ts[:-1], ts[1:]
    mids = 0.5 * (a + b)
    stopped = np.flatnonzero((depths >= _MAX_DEPTH) | ~(a < mids)
                             | ~(mids < b))
    wide = stopped[split(tuple(s[stopped] for s in samples),
                         tuple(s[stopped + 1] for s in samples))]
    if len(wide):
        raise GapTooLarge(f"{jump} between t={float(a[wide[0]])!r} and "
                          f"t={float(b[wide[0]])!r}")


def _too_wide(lefts: tuple, rights: tuple) -> np.ndarray:
    """Consecutive path samples more than 0.4 apart in gap."""
    return _gaps(lefts[0], rights[0]) > 0.4


# -- integration core --------------------------------------------------
#
# Dormand-Prince 8(5,3) (Prince & Dormand 1981; Hairer, Norsett & Wanner,
# Solving ODEs I, sec. II.10) with the step control, initial-step rule
# and degree-7 dense output of scipy's DOP853, operation for operation,
# so that its states are bitwise those of scipy's ``DOP853`` solver.  The
# coefficients are scipy's, digit for digit: twelve stages, the last at
# t + h, whose derivative there is also the next step's first stage
# (FSAL), and three extra stages that only the dense output reads.


def _sparse(cols: int, rows: tuple) -> np.ndarray:
    """A (len(rows), cols) array, zero but for each row's {column: entry}."""
    out = np.zeros((len(rows), cols))
    for i, row in enumerate(rows):
        for j, a in row.items():
            out[i, j] = a
    return out


_C = np.array([0.0, 0.526001519587677318785587544488e-01,
               0.789002279381515978178381316732e-01,
               0.118350341907227396726757197510,
               0.281649658092772603273242802490,
               0.333333333333333333333333333333, 0.25,
               0.307692307692307692307692307692,
               0.651282051282051282051282051282, 0.6,
               0.857142857142857142857142857142, 1.0])
_C_EXTRA = np.array([0.1, 0.2, 0.777777777777777777777777777778])
_A_ALL = _sparse(16, (
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2,
     1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2,
     2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1,
     2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2,
     3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2,
     3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1,
     5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1,
     3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1,
     5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1,
     7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1,
     3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1,
     5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1,
     7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1,
     7: 2.27394870993505042818970056734e1, 8: 2.49360555267965238987089396762,
     9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444,
     5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1,
     9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1,
     11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2,
     6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1,
     8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1,
     10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2,
     5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2,
     7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4,
     11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4,
     13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1,
     5: -4.69762141536116384314449447206, 6: 7.68342119606259904184240953878,
     7: 4.06898981839711007970213554331, 8: 3.56727187455281109270669543021e-1,
     12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
))
_A, _B, _A_EXTRA = _A_ALL[:12, :12], _A_ALL[12, :12], _A_ALL[13:]
_E3 = np.append(_B, 0.0)
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1
_E5 = _sparse(13, (
    {0: 0.1312004499419488073250102996e-1,
     5: -0.1225156446376204440720569753e+1, 6: -0.4957589496572501915214079952,
     7: 0.1664377182454986536961530415e+1, 8: -0.3503288487499736816886487290,
     9: 0.3341791187130174790297318841, 10: 0.8192320648511571246570742613e-1,
     11: -0.2235530786388629525884427845e-1},
))[0]
_D = _sparse(16, (
    {0: -0.84289382761090128651353491142e+1,
     5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1,
     7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1,
     9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1,
     11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1,
     13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1,
     15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2,
     5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3,
     7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2,
     9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2,
     11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2,
     13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1,
     15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2,
     5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3,
     7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2,
     9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1,
     11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1,
     13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2,
     15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2,
     5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3,
     7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2,
     9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3,
     11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2,
     13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2,
     15: -0.14972683625798562581422125276e+3},
))
_DENSE_NODES = np.concatenate([_C[1:], _C_EXTRA])
_SAFETY = 0.9        # on the step factor from the error estimate
_MIN_FACTOR = 0.2    # least factor of a step size after a rejection
_MAX_FACTOR = 10     # greatest factor of a step size after an acceptance
_ERROR_EXPONENT = -1 / 8   # -1 / (order of the error estimator + 1)
_RTOL_FLOOR = 100 * np.finfo(float).eps


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _error_norm(K: np.ndarray, h: float, scale: np.ndarray) -> float:
    """The step's error norm from the fifth- and third-order estimates
    e5 and e3: |h| |e5|^2 / sqrt(N (|e5|^2 + 0.01 |e3|^2)), each scaled
    by ``scale`` and N its length."""
    err5 = np.dot(K.T, _E5) / scale
    err3 = np.dot(K.T, _E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


class _Dense:
    """Dense output of a transport: the degree-7 interpolant of each step.

    ``steps`` holds (t_old, t, y_old, F) per step in the direction of
    travel, over all legs of the transport, F the interpolant's seven
    coefficient rows.  An instant is read off the step that scipy's
    ``OdeSolution`` picks for it (at a step end, the earlier step), and
    the instants of one step together, as there.
    """

    def __init__(self, steps: list):
        self.steps = steps
        ends = [steps[0][0]] + [step[1] for step in steps]
        self.ascending = ends[-1] >= ends[0]
        self.ends = np.array(ends if self.ascending else ends[::-1])

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """The (len(y), len(t)) solution at the 1-d array of instants t."""
        order = np.argsort(t)
        t_sorted = t[order]
        last = len(self.steps) - 1
        seg = np.searchsorted(self.ends, t_sorted,
                              side="left" if self.ascending else "right")
        seg = np.clip(seg - 1, 0, last)
        if not self.ascending:
            seg = last - seg
        cuts = [0, *(np.flatnonzero(np.diff(seg)) + 1), len(seg)]
        ys = []
        for lo, hi in zip(cuts, cuts[1:]):
            t_old, t_new, y_old, F = self.steps[seg[lo]]
            x = ((t_sorted[lo:hi] - t_old) / (t_new - t_old))[:, None]
            y = np.zeros((hi - lo, len(y_old)))
            # nested in x and 1 - x alternately, from the highest row
            for i, f in enumerate(F[::-1]):
                y += f
                y *= x if i % 2 == 0 else 1 - x
            y += y_old
            ys.append(y.T)
        out = np.empty((len(ys[0]), len(t)))
        out[:, order] = np.hstack(ys)
        return out


def _check_tolerances(rtol: float, atol: float) -> None:
    """Refuse a NaN or infinite ``rtol`` or ``atol``, and a negative
    ``atol``; an rtol below the floor is raised to it later, as scipy
    does."""
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not np.isfinite(tol):
            raise InvalidInput(f"{name} must be finite, got {tol!r}")
    if atol < 0:
        raise InvalidInput(f"atol must not be negative, got {atol!r}")


def _dopri(fam: LinearFamily, lams: np.ndarray, Y0: np.ndarray,
           t0: float, t1: float, rtol: float, atol: float,
           dense: bool = False, first_step: float | None = None,
           mirrored: tuple | None = None):
    """Solve Y' = S(lambda, t) Y from Y(t0) = Y0 to t1, all lambdas at once.

    ``Y0`` is an (m, n, k) stack, one member per lambda of ``lams``.
    ``mirrored``, when given, is a pair (Z0, c): a second stack, (m, n,
    j), carried beside Y in mirrored time, Z' = -S(lambda, c - t) Z from
    Z(t0) = Z0, so that Z(t) is the solution of the family at the
    instant c - t.  All blocks ride in one flat state (Y's entries, then
    Z's) under one step control.  S does not depend on the state, so
    the stage instants of a step attempt are known once its size is: one
    evaluator call per attempt gives S at all of them, for every block,
    t + c h for the eleven nodes c of ``_C[1:]``.  The last node is 1,
    so that value also gives the derivative at t + h, which is the next
    step's first stage (FSAL).  With ``dense`` the same call covers the
    interpolant's three extra stages, t + c h for c in ``_C_EXTRA``.
    The first stage at t0 takes one more call, and the initial-step rule
    another unless ``first_step``, a step size no longer than |t1 - t0|,
    is given.

    Returns the flat final state; with ``dense`` the list of its steps as
    :class:`_Dense` holds them (else an empty list); and the step size
    that the controller proposes after the last step.

    As in scipy, an rtol below 100 machine epsilons is raised to that;
    a NaN or infinite tolerance, or a negative atol, is refused
    (InvalidInput) before S is evaluated.  Raises IntegrationFailure,
    naming the instant, when no step of ten float spacings or more meets
    the tolerances (a non-finite state or S ends there too), or when the
    final state is not finite.
    """
    _check_tolerances(rtol, atol)
    m, n, _ = Y0.shape
    # a lone lambda goes in as a scalar: evaluators, numpy or Python,
    # run faster on it than on a length-1 array
    lam_arg = lams[0] if m == 1 else lams
    Z0, c = (None, None) if mirrored is None else mirrored
    y = Y0.ravel() if Z0 is None else np.concatenate([Y0.ravel(), Z0.ravel()])

    def blocks(v: np.ndarray) -> list:
        """Views of the flat state ``v`` as its (m, n, .) blocks."""
        if Z0 is None:
            return [v.reshape(Y0.shape)]
        return [v[:Y0.size].reshape(Y0.shape), v[Y0.size:].reshape(Z0.shape)]

    def S_at(ts: np.ndarray) -> tuple:
        """S at each of ``ts`` for each block, (len(ts), n, n) or
        (len(ts), m, n, n); the mirrored block's is S at c - ts, negated,
        as its right-hand side reads it."""
        at = ts if Z0 is None else np.concatenate([ts, c - ts])
        S = fam.evaluate_many(lam_arg, at if m == 1 else at[:, None])
        want = (len(at), n, n) if m == 1 else (len(at), m, n, n)
        if S.shape != want:
            raise DimensionMismatch(f"evaluator returned {S.shape}, "
                                    f"expected {want}")
        return (S,) if Z0 is None else (S[:len(ts)], -S[len(ts):])

    rtol = max(rtol, _RTOL_FLOOR)
    direction = np.sign(t1 - t0)
    nodes = _DENSE_NODES if dense else _C[1:]
    stages = len(_C)
    t = t0
    # the step's stages, its final derivative, then the extra stages
    K = np.empty((stages + 1 + len(_C_EXTRA), y.size))
    # the state the right-hand side reads, and K's rows, as block views
    arg = np.empty(y.size)
    arg_blocks, K_blocks = blocks(arg), [blocks(row) for row in K]

    def rhs(S: tuple, s: int, out: list) -> None:
        """The derivative at ``arg``, each block's S at instant s, into
        the block views ``out``."""
        for Sb, a, o in zip(S, arg_blocks, out):
            np.einsum("...ij,...jk->...ik", Sb[s], a, out=o)

    def derivative(instant: float, state: np.ndarray) -> np.ndarray:
        """The derivative at ``state`` and ``instant``, as a new array."""
        arg[:] = state
        out = np.empty(y.size)
        rhs(S_at(np.array([instant])), 0, blocks(out))
        return out

    steps = []
    # a rejected trial may hold inf or NaN; only the outcome is checked
    with np.errstate(over="ignore", invalid="ignore"):
        f = derivative(t, y)
        if first_step is None:
            # the initial step (Hairer, Norsett & Wanner, sec. II.4)
            scale = atol + np.abs(y) * rtol
            d0, d1 = _rms(y / scale), _rms(f / scale)
            h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1,
                     abs(t1 - t0))
            f1 = derivative(t + h0 * direction, y + h0 * direction * f)
            d2 = _rms((f1 - f) / scale) / h0
            if d1 <= 1e-15 and d2 <= 1e-15:
                h1 = max(1e-6, h0 * 1e-3)
            else:
                h1 = (0.01 / max(d1, d2)) ** (1 / 8)
            h_abs = min(100 * h0, h1, abs(t1 - t0))
        else:
            h_abs = first_step

        while direction * (t - t1) < 0:
            min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if not h_abs >= min_step:     # NaN too
                    raise IntegrationFailure(
                        f"integration {t0} -> {t1} failed at t={t}: no step "
                        f"of ten float spacings or more meets the tolerances")
                t_new = t + h_abs * direction
                if direction * (t_new - t1) > 0:
                    t_new = t1
                h = t_new - t
                h_abs = np.abs(h)
                S = S_at(t + nodes * h)
                K[0] = f
                for s in range(1, stages):
                    dy = np.dot(K[:s].T, _A[s, :s]) * h
                    np.add(y, dy, out=arg)
                    rhs(S, s - 1, K_blocks[s])
                y_new = y + h * np.dot(K[:stages].T, _B)
                # the last node is 1: S there is S at t + h
                arg[:] = y_new
                rhs(S, stages - 2, K_blocks[stages])
                f_new = K[stages]
                scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
                err = _error_norm(K[:stages + 1], h, scale)
                if err < 1:
                    factor = _MAX_FACTOR if err == 0 else min(
                        _MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
                    h_abs *= min(1, factor) if rejected else factor
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
                rejected = True
            if dense:
                for s in range(stages + 1, len(K)):
                    dy = np.dot(K[:s].T, _A_EXTRA[s - stages - 1, :s]) * h
                    np.add(y, dy, out=arg)
                    rhs(S, s - 2, K_blocks[s])
                delta_y = y_new - y
                F = np.empty((7, y.size))
                F[0] = delta_y
                F[1] = h * f - delta_y
                F[2] = 2 * delta_y - h * (f_new + f)
                F[3:] = h * np.dot(_D, K)
                steps.append((t, t_new, y, F))
            # K's rows are overwritten by the next attempt
            t, y, f = t_new, y_new, f_new.copy()
    if not np.all(np.isfinite(y)):
        raise IntegrationFailure(f"non-finite state reached at t={t1}")
    return y, steps, h_abs


def fundamental_solution(fam: LinearFamily, lam: float, tau: float, t: float,
                         rtol: float = _DEFAULT_RTOL,
                         atol: float = _DEFAULT_ATOL) -> np.ndarray:
    """Fundamental solution gamma_{(lambda,tau)}(t) with gamma(tau) = I.

    One solve of the transport's integrator from the identity, without
    renormalization.

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
    y, _, _ = _dopri(fam, np.array([float(lam)]), np.eye(n)[None],
                     float(tau), float(t), rtol, atol)
    return y.reshape(n, n)


def asymptotic_limits(fam: LinearFamily, lam: float) -> AsymptoticLimits:
    """Limit matrices S^-, S^+ with their spectral splittings.

    Reads the family off at +-T and checks it has settled:
    ||S(+-T) - S(+-T/2)|| <= 1e-6.  T starts at t_max and doubles until
    the check passes (a bounded number of times).

    The one-lambda case of the private ``_limits_over_lambda``.  Each
    call evaluates the family afresh and returns read-only limit
    matrices.  The family keeps the split of each distinct limit
    matrix, so lambdas and calls that share a limit matrix share its
    split.

    Raises
    ------
    InvalidInput
        If lambda is not finite; nothing is evaluated then.
    NotStabilized
        If the family keeps drifting at every horizon tried.
    NotHyperbolic
        If a limit matrix fails the test of ``linalg.spectral_split``.
    """
    return _unwrap(_limits_over_lambda(fam, [lam])[0])


class _Failure(NamedTuple):
    """Why the limits at one lambda fail: the error to raise, and its message."""

    error: type
    message: str


def _unwrap(limits):
    """``limits``, unless it is a :class:`_Failure`, whose error is raised."""
    if isinstance(limits, _Failure):
        raise limits.error(limits.message)
    return limits


# S is read off at these multiples of the horizon T: the limits at -T
# and T, and the points at -T/2 and T/2 that they must have settled to
_PROBES = np.array([-1.0, 1.0, -0.5, 0.5])


def _limits_over_lambda(fam: LinearFamily, lams: Sequence[float]) -> list:
    """:func:`asymptotic_limits` at every lambda, as one entry per lambda.

    An entry is the lambda's AsymptoticLimits, or the :class:`_Failure`
    that :func:`asymptotic_limits` raises for it; a caller raises the
    first failure in grid order to act as a loop over lambda would.
    The finite lambdas are evaluated at all four probe instants in one
    call per horizon, and only the ones still drifting go on to the
    next horizon.  An error of the evaluator itself is raised for the
    whole call.
    """
    keys = np.array([float(lam) for lam in lams])
    finite = np.isfinite(keys)
    out = [None if ok else _Failure(InvalidInput,
                                    f"lambda must be finite, got {lam!r}")
           for lam, ok in zip(lams, finite)]
    todo = np.flatnonzero(finite)
    T = fam.t_max
    for _ in range(_ESCALATION_CAP):
        if not len(todo):
            return out
        S = fam.evaluate_many(keys[todo][:, None], T * _PROBES)
        if S.shape != (len(todo), len(_PROBES), fam.n, fam.n):
            raise DimensionMismatch(
                f"evaluator returned {S.shape}, expected "
                f"{(len(todo), len(_PROBES), fam.n, fam.n)}"
            )
        d = np.linalg.norm(S[:, :2] - S[:, 2:], 2, axis=(-2, -1))
        # max(d_minus, d_plus) as Python's max takes it, NaN included
        drift = np.where(d[:, 1] > d[:, 0], d[:, 1], d[:, 0])
        settled = drift <= _STAB_TOL
        for j in np.flatnonzero(settled):
            s_minus, s_plus = _frozen_copy(S[j, 0]), _frozen_copy(S[j, 1])
            try:
                out[todo[j]] = AsymptoticLimits(
                    s_minus=s_minus, s_plus=s_plus,
                    split_minus=_split(fam, s_minus),
                    split_plus=_split(fam, s_plus), horizon=T)
            except NotHyperbolic as exc:
                out[todo[j]] = _Failure(NotHyperbolic, str(exc))
        todo, drift = todo[~settled], drift[~settled]
        T *= 2.0
    for i, d in zip(todo, drift):
        out[i] = _Failure(
            NotStabilized, f"family still drifting {d:.2e} at "
                           f"t = +-{T / 2:.0f} (lambda={lams[i]})")
    return out


def _split(fam: LinearFamily, S: np.ndarray) -> SpectralSplit:
    """``spectral_split(S)``, once per distinct matrix of the family."""
    key = (S.shape, S.tobytes())
    split = fam._splits.get(key)
    if split is None:
        split = fam._splits[key] = spectral_split(S)
    return split


def _frozen_copy(a: np.ndarray) -> np.ndarray:
    # a copy: an evaluator may hand back an array its caller still owns
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _leg_points(t_from: float, t_to: float) -> np.ndarray:
    legs = max(1, int(np.ceil(abs(t_to - t_from) / _LEG)))
    return np.linspace(t_from, t_to, legs + 1)


def _reach(horizon: float, t: float) -> float:
    """|seed instant| of a transport to t: at least the limits' horizon,
    and ``_SEED_MARGIN`` beyond |t|."""
    return max(horizon, abs(t) + _SEED_MARGIN)


def _is_stable(which: str) -> bool:
    """Whether ``which`` names the stable side (InvalidInput unless it
    names a side)."""
    if which not in ("stable", "unstable"):
        raise InvalidInput(
            f"which must be 'stable' or 'unstable', got {which!r}")
    return which == "stable"


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
    The sampler reads that one interpolant at all requested instants at
    once and orthonormalizes them in one stacked QR, within the
    integration tolerance of a fresh :func:`subspace_at`.  The grid is
    refined as by :func:`path_from_sampler`; orientation is arbitrary.

    Raises
    ------
    InvalidInput
        If the grid is not one :func:`path_from_sampler` accepts; from
        the sampler, naming the instant, outside the transported span.
    DimensionMismatch
        If the spectral dimensions contradict the declared k.
    GapTooLarge
        As :func:`path_from_sampler`.
    """
    grid = _checked_grid(grid)
    stable = _is_stable(which)
    _check_tolerances(rtol, atol)
    return _dense_paths(fam, lam, asymptotic_limits(fam, lam), grid, stable,
                        False, rtol, atol)[0]


def _dense_paths(fam: LinearFamily, lam: float, limits: AsymptoticLimits,
                 grid: np.ndarray, stable: bool, pair: bool,
                 rtol: float, atol: float) -> tuple:
    """The path of E^s(t) (``stable``) or E^u(t) on ``grid``, and with
    ``pair`` that of the other side at -t, from one dense transport from
    +-reach (:func:`_reach` of the far grid end) to the near grid end, the
    other side in the mirrored block (c = 0, entries after the first's).
    The samplers share one interpolant read (:func:`_pair_samplers`), and
    refuse an instant outside the transported span (InvalidInput).
    """
    _check_declared_dims(fam, limits)
    reach = _reach(limits.horizon, grid[-1] if stable else grid[0])
    sides = (limits.split_plus.v_minus, limits.split_minus.v_plus)
    sides = sides if stable else sides[::-1]
    t0, t_end = (reach, grid[0]) if stable else (-reach, grid[-1])
    _, dense = _transport_batched(
        fam, np.array([float(lam)]), sides[0].columns[None], t0, t_end,
        rtol, atol, dense=True,
        mirror=(sides[1].columns[None], -t_end) if pair else None)
    lo, hi = sorted((float(t0), float(t_end)))
    n, ks = fam.n, [side.k for side in sides]

    def read(ts: np.ndarray) -> tuple:
        out = ~((lo <= ts) & (ts <= hi))
        if out.any():
            raise InvalidInput(f"t={float(ts[out.argmax()])!r} lies outside "
                               f"the transported span [{lo!r}, {hi!r}]")
        Y = dense(ts).T if dense else np.empty((len(ts), 0))
        return tuple(orthonormalize(Y[:, a:a + n * k].reshape(len(ts), n, k))
                     for a, k in zip((0, n * ks[0]), ks[:1 + pair]))

    return tuple(path_from_sampler(sampler, grid)
                 for sampler in _pair_samplers(read)[:1 + pair])


def _pair_samplers(joint: Callable) -> tuple:
    """The samplers of a pair's two paths from ``joint``, which maps ts
    to both stacks there.  They share a memo of the last ts, keyed on
    its bytes, so asking both at the same instants, as each refinement
    round does, makes one ``joint`` call."""
    memo = [None, None]

    def sampler(side: int, ts: np.ndarray) -> np.ndarray:
        key = np.asarray(ts, dtype=float).tobytes()
        if memo[0] != key:
            memo[:] = key, joint(ts)
        return memo[1][side]

    return partial(sampler, 0), partial(sampler, 1)


def path_from_sampler(sampler: Callable, grid: Sequence[float]) -> SubspacePath:
    """Sample a subspace-valued function into a path.

    ``sampler`` takes a 1-d array of parameters and returns an
    (len, n, k) array, one frame per parameter in arbitrary orientation.
    It is called for the grid, then once per refinement round for all
    its midpoints.  Midpoints are inserted wherever consecutive samples
    are more than 0.4 apart in gap (one stacked gap per round), so a
    coarse grid over a fast rotation still resolves the path.  The path
    keeps the raw samples.

    Raises
    ------
    InvalidInput
        Unless the grid holds two or more finite, strictly increasing
        samples; ``sampler`` is then never called.  Also, naming the
        parameter, for a sampled frame with a non-finite entry or with
        max |Y^T Y - I| > 1e-10.
    DimensionMismatch
        If a sampled stack is not (len, n, k) or changes (n, k).
    GapTooLarge
        If samples still jump after 20 halvings of an interval, or at
        floating-point resolution, as a discontinuous subspace does.
    """
    ts = _checked_grid(grid)
    F = _sampled(sampler, ts)
    shape = F.shape[1:]
    ts, (F,), depths = _bisect(
        ts, (F,), _too_wide,
        lambda mids, lefts: (_sampled(sampler, mids, shape),))
    _refuse_unresolved(ts, (F,), depths, _too_wide,
                       "subspace jumps by more than 0.4 in gap")
    return SubspacePath(grid=ts, stack=F, sampler=sampler)


# -- batched lambda sweeps ---------------------------------------------

def _transport_batched(fam: LinearFamily, lams: np.ndarray, seeds: np.ndarray,
                       t_from: float, t_to: float,
                       rtol: float, atol: float,
                       dense: bool = False,
                       mirror: tuple | None = None) -> tuple:
    """Carry one frame per lambda under the flow, all lambdas at once.

    seeds has shape (m, n, k), carried from t_from to t_to.  ``mirror``,
    when given, is a pair (seeds_s, t_end): a second (m, n, j) stack
    carried in the same solves in mirrored time, from the instant
    t_end + (t_to - t_from) to t_end (``_dopri``'s ``mirrored`` block,
    with c = t_end + t_to).  All blocks ride in one solve per leg of at
    most 2 time units, under one step control, and each solve evaluates
    S once per step attempt for all of them.  Between legs every block
    restarts on its QR factor, signed so that R has a positive diagonal:
    the restarted frame spans what was transported, keeps its
    orientation, and is continuous in lambda.  The step size is carried
    across legs: each leg after the first starts at the step the
    controller proposed at the end of the one before, capped at the
    leg's length, so only the first leg runs the initial-step rule.

    Returns the final (m, n, k) frames, or with ``mirror`` the pair of
    final stacks; and a :class:`_Dense` of the raw flat state over the
    steps of all legs, or None without ``dense`` or a solve.  A restart
    keeps each block's span: an orthonormalized reading is a frame of it.
    """
    Ys = [seeds.copy()] + ([] if mirror is None else [mirror[0].copy()])
    steps: list = []
    if any(Y.shape[2] for Y in Ys) and t_from != t_to:
        pts = _leg_points(t_from, t_to)
        c = None if mirror is None else mirror[1] + t_to
        h_abs = None
        for a, b in zip(pts, pts[1:]):
            first_step = None if h_abs is None else min(h_abs, abs(b - a))
            leg = (fam, lams, Ys[0], float(a), float(b), rtol, atol, dense,
                   first_step)
            y, sol, h_abs = (_dopri(*leg) if c is None
                             else _dopri(*leg, mirrored=(Ys[1], c)))
            steps += sol
            parts = np.split(y, np.cumsum([Y.size for Y in Ys[:-1]]))
            Ys = [_signed_qr(p.reshape(Y.shape))[0] if Y.shape[2] else Y
                  for p, Y in zip(parts, Ys)]
    return ((Ys[0] if mirror is None else tuple(Ys)),
            _Dense(steps) if steps else None)


# The benchmark's tracer (perfbench/tracing.py) also wraps transport
# under this earlier name; as one object under two names, each call is
# still counted once.
_transport_frame = _transport_batched


def subspaces_over_lambda(fam: LinearFamily, lams: Sequence[float], which: str,
                          t: float,
                          rtol: float = _DEFAULT_RTOL,
                          atol: float = _DEFAULT_ATOL) -> list[Frame]:
    """E^s(t) or E^u(t) for every lambda (frame orientation arbitrary).

    The limits of all lambdas come from one batched call; a failing
    lambda raises as :func:`asymptotic_limits` would, the first in grid
    order.  All lambdas then ride in one transport.  A caller that
    tracks a determinant sign across the sweep aligns the frames along
    lambda itself.

    Raises
    ------
    InvalidInput
        Unless ``lams`` is a non-empty 1-d sequence, ``which`` names a
        side, ``t`` is finite, and ``rtol`` and ``atol`` are finite with
        atol >= 0; nothing is evaluated then.
    """
    stable = _is_stable(which)
    return list(map(Frame._trusted, _subspace_stacks(
        fam, lams, None if stable else t, t if stable else None, rtol,
        atol)[stable]))


def _subspace_stacks(fam: LinearFamily, lams: Sequence[float],
                     t_u: float | None, t_s: float | None,
                     rtol: float = _DEFAULT_RTOL,
                     atol: float = _DEFAULT_ATOL) -> tuple:
    """(E^u(t_u), E^s(t_s)) at every lambda, as (len(lams), n, k) and
    (len(lams), n, n - k) stacks in arbitrary orientation; a side whose
    instant is None is neither seeded nor transported, and is None.

    One :func:`_limits_over_lambda` call seeds both sides, and a failing
    lambda raises as :func:`asymptotic_limits` would, the first in grid
    order.  E^u is seeded at v_plus(S^-) and carried forward from -T_u,
    E^s at v_minus(S^+) and carried backward from T_s, each T past every
    lambda's horizon and ``_SEED_MARGIN`` beyond its instant.  With both
    instants given, both sides travel in one transport, the stable one
    in mirrored time, so the two spans must be equal: where they differ
    the shorter side is seeded further out.  The frames are the final
    QR restarts, so orthonormal, and finite, since the solve raises on
    a non-finite state.

    Raises
    ------
    InvalidInput
        Unless ``lams`` is a non-empty 1-d sequence, each given instant
        is finite, and ``rtol`` and ``atol`` are finite with atol >= 0;
        nothing is evaluated then.
    """
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 1 or not len(lams):
        raise InvalidInput(f"lambdas must be a non-empty 1-d sequence, "
                           f"got shape {lams.shape}")
    for t in (t_u, t_s):
        if t is not None and not np.isfinite(t):
            raise InvalidInput(f"t must be finite, got {t!r}")
    _check_tolerances(rtol, atol)
    limits = []
    for L in _limits_over_lambda(fam, lams):
        limits.append(_unwrap(L))
        _check_declared_dims(fam, limits[-1])
    horizon = max(L.horizon for L in limits)
    seeds_u = np.array([L.split_minus.v_plus.columns for L in limits])
    seeds_s = np.array([L.split_plus.v_minus.columns for L in limits])
    if t_s is None:
        return _transport_batched(fam, lams, seeds_u, -_reach(horizon, t_u),
                                  t_u, rtol, atol)[0], None
    a_s = _reach(horizon, t_s)
    if t_u is None:
        return None, _transport_batched(fam, lams, seeds_s, a_s, t_s,
                                        rtol, atol)[0]
    # the longer span sets the start of both
    t_from = min(-_reach(horizon, t_u), t_u - (a_s - t_s))
    return _transport_batched(fam, lams, seeds_u, t_from, t_u, rtol, atol,
                              mirror=(seeds_s, t_s))[0]


# -- hypothesis checks -------------------------------------------------

def check_A1_A3(fam: LinearFamily, samples: int = 101,
                lam_range: tuple = (0.0, 1.0)) -> HypothesisReport:
    """Sampled check of the limit hypotheses over lambda in ``lam_range``.

    At each sampled lambda the limits must stabilize, both must be
    hyperbolic, and the limit dimensions must match the declared k:
    dim v_plus(S^-) = k and dim v_minus(S^+) = n - k.  The report can
    only speak for the sampled grid, hence its fixed note.

    Raises
    ------
    InvalidInput
        Unless ``samples`` is an integer >= 1; nothing is evaluated then.
    """
    _check_samples(samples, 1)
    violations = []
    min_gap = np.inf
    lams = np.linspace(*lam_range, samples)
    for lam, limits in zip(lams, _limits_over_lambda(fam, lams)):
        if (isinstance(limits, _Failure)
                and issubclass(limits.error, (NotStabilized, NotHyperbolic))):
            violations.append((lam, "A1", limits.message))
            continue
        limits = _unwrap(limits)
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
