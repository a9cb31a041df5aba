"""Z2-index of subspace path pairs and its derived invariants.

Given two subspace paths V (dim k) and W (dim n-k) on a common grid
with transversal ends, the index is 0 when det M(a) and det M(b) have
the same sign and 1 otherwise, where M(t) is the square matrix whose
columns are continuous frames of V(t) and W(t).  Everything else here
is bookkeeping to make that one determinant comparison trustworthy:
grid refinement to keep consecutive frames close, Procrustes chaining
to keep the frames continuous, and relative singular-value thresholds
to refuse an answer when an endpoint is numerically degenerate.  Paths
arrive as raw samples in arbitrary orientation; the chaining happens
here, where the signs are read.

On top of the core index the module builds the unbounded-interval
variants (restriction to a bounded core, stable under doubling the
tail horizon), the geometric parity of an orbit (index of the pair
t -> (E^s(t), E^u(-t)) on the half line), loop closure of a path pair,
and the orientability bit of the line bundle a closed loop drags
around the circle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BoundaryDegenerate,
    CannotClose,
    DegenerateEndpoint,
    DimensionMismatch,
    GapTooLarge,
    InternalMismatch,
    NotClosed,
    TailNotTransversal,
    _check_positive,
    _check_samples,
)
from .flow import (
    LinearFamily,
    SubspacePath,
    _bisect,
    _dense_paths,
    _refuse_unresolved,
    asymptotic_limits,
)
from .linalg import (
    DEGENERATE,
    _align_to,
    _chain,
    _complements,
    _gaps,
    _signed_dets,
    det_sign,
    orthonormalize,
    pair_matrix,
)

__all__ = [
    "SubspacePathPair",
    "IndexReport",
    "ClosedLoop",
    "z2_index",
    "z2_index_unbounded",
    "geometric_parity",
    "close_loop",
    "bundle_orientability",
]

_GAP_REFINE = 0.2


def _piecewise(ts: np.ndarray, shape: tuple, pieces) -> np.ndarray:
    """A (len(ts), n, k) stack from ``(mask, sampler)`` pieces covering
    ``ts``: each sampler is called once, on its own instants, if any."""
    out = np.empty((len(ts), *shape))
    for at, sampler in pieces:
        if at.any():
            out[at] = sampler(ts[at])
    return out


@dataclass(frozen=True)
class SubspacePathPair:
    """Two subspace paths on a common grid, dims k and n-k.

    Paths arriving on different grids over the same interval are merged
    onto the union grid; each path's sampler fills its missing frames.
    """

    V: SubspacePath
    W: SubspacePath

    def __post_init__(self):
        if self.V.n != self.W.n:
            raise DimensionMismatch(
                f"ambient dimensions {self.V.n} != {self.W.n}"
            )
        if self.V.k + self.W.k != self.V.n:
            raise DimensionMismatch(
                f"dims {self.V.k} + {self.W.k} != ambient {self.V.n}"
            )
        gv, gw = self.V.grid, self.W.grid
        if len(gv) == len(gw) and np.allclose(gv, gw, rtol=0.0,
                                              atol=1e-12):
            return
        if abs(gv[0] - gw[0]) > 1e-9 or abs(gv[-1] - gw[-1]) > 1e-9:
            raise DimensionMismatch("paths cover different intervals")
        union = np.union1d(gv, gw)
        union = union[np.concatenate([[True], np.diff(union) > 1e-12])]
        for name in ("V", "W"):
            # each path keeps its own frames; one sampler call fills in
            path = getattr(self, name)
            own = np.isin(union, path.grid)
            stack = _piecewise(union, path.stack.shape[1:], [
                (own, lambda _: path.stack[np.isin(path.grid, union)]),
                (~own, path.sample)])
            object.__setattr__(self, name,
                               SubspacePath(union, stack, path.sampler))

    @property
    def grid(self) -> np.ndarray:
        return self.V.grid

    @property
    def n(self) -> int:
        return self.V.n


@dataclass(frozen=True)
class IndexReport:
    """A Z2 value together with the evidence used to compute it.

    ``det_trace`` holds det M(t) at every (refined) grid sample;
    ``crossings`` the instants where its sign flips, located to the
    refinement resolution.
    """

    value: int
    grid: np.ndarray
    det_trace: np.ndarray
    crossings: tuple
    eps_trans: float
    refinement_depth: int

    def __post_init__(self):
        object.__setattr__(self, "grid", np.asarray(self.grid, float))
        object.__setattr__(self, "det_trace",
                           np.asarray(self.det_trace, float))


@dataclass(frozen=True)
class ClosedLoop:
    """Result of closing a path pair over the doubled interval.

    ``v_loop`` runs over [0, 2] with v_loop(0) = v_loop(2); ``epsilon``
    is the plateau width the closure used.
    """

    v_loop: SubspacePath
    epsilon: float


# -- core refinement pipeline ------------------------------------------

def _pair_dets(v: np.ndarray, w: np.ndarray, eps_trans: float) -> tuple:
    """(dets, signs) of the pair matrices [v_i | w_i] of two stacks."""
    return _signed_dets(np.concatenate([v, w], axis=2), eps_trans)


def _sign_crossings(ts: np.ndarray, signs: np.ndarray) -> tuple:
    """Midpoints between consecutive nondegenerate samples of unlike sign."""
    at = np.flatnonzero(signs != DEGENERATE)
    i = np.flatnonzero(signs[at[1:]] != signs[at[:-1]])
    return tuple((0.5 * (ts[at[i]] + ts[at[i + 1]])).tolist())


def _refine_pair(pair: SubspacePathPair, eps_trans: float):
    """Shared pipeline: refine spans, align chains, localize crossings.

    Returns (ts, dets, signs, depth_used) where ts is the refined grid
    and the det trace is computed on Procrustes-chained frames whose
    first frames keep the input orientation.
    """
    V, W = pair.V, pair.W

    # span refinement: no orientation needed, raw samples suffice
    def too_wide(lefts, rights):
        return ((_gaps(lefts[0], rights[0]) >= _GAP_REFINE)
                | (_gaps(lefts[1], rights[1]) >= _GAP_REFINE))

    ts, (v, w), depths = _bisect(
        pair.grid, (V.stack, W.stack), too_wide,
        lambda mids, lefts: (V.sample(mids), W.sample(mids)))
    _refuse_unresolved(ts, (v, w), depths, too_wide,
                       f"a path of the pair jumps by {_GAP_REFINE} or more "
                       f"in gap")

    # orientation sweep: chain Procrustes from the left end
    v, w = _chain(v), _chain(w)

    # crossing localization: bisect clean sign flips, chaining each
    # midpoint to its left neighbour
    def flips(lefts, rights):
        a, b = lefts[3], rights[3]
        return (a != DEGENERATE) & (b != DEGENERATE) & (a != b)

    def sample(mids, lefts):
        v = _align_to(lefts[0], V.sample(mids))
        w = _align_to(lefts[1], W.sample(mids))
        return (v, w, *_pair_dets(v, w, eps_trans))

    ts, (_, _, dets, signs), depths = _bisect(
        ts, (v, w, *_pair_dets(v, w, eps_trans)), flips, sample, depths)
    return ts, dets, signs, int(depths.max())


def _refuse_degenerate_ends(ends: np.ndarray, eps_trans: float) -> None:
    """The end rule: refuse a DEGENERATE sign among the (left, right)
    ``ends`` of a pair with DegenerateEndpoint, naming the end."""
    for sign, name in zip(ends, ("left", "right")):
        if sign == DEGENERATE:
            raise DegenerateEndpoint(f"{name} endpoint pair matrix "
                                     f"numerically singular "
                                     f"(eps_trans={eps_trans})")


def _core_ends(ts: np.ndarray, tail_T: float) -> np.ndarray:
    """Indices of the first and last samples with |t| <= tail_T."""
    inside = np.flatnonzero(np.abs(ts) <= tail_T + 1e-12)
    if len(inside) < 2:
        raise TailNotTransversal(
            f"fewer than two samples inside |t| <= {tail_T}")
    return inside[[0, -1]]


def _read_index(pair: SubspacePathPair, eps_trans: float,
                tail_T: float | None) -> IndexReport:
    """The index of ``pair`` read off the ends of its core.

    The core is the whole refined grid when ``tail_T`` is None, else
    the samples with |t| <= tail_T; then the tail samples beyond must
    be transversal with one det sign per side, and the value read at
    the ends of the core at 2 * tail_T (clamped to the grid) must be
    the same.
    """
    ts, dets, signs, depth = _refine_pair(pair, eps_trans)
    ends = [0, -1]
    if tail_T is not None:
        for side, mask in (("left", ts <= -tail_T), ("right", ts >= tail_T)):
            tail = signs[mask]
            if (tail == DEGENERATE).any():
                bad = ts[mask][(tail == DEGENERATE).argmax()]
                raise TailNotTransversal(
                    f"{side} tail sample at t={bad:.6g} is degenerate")
            if len(np.unique(tail)) > 1:
                raise TailNotTransversal(
                    f"det sign flips on the {side} tail (|t| >= {tail_T})")
        ends = _core_ends(ts, tail_T)
    _refuse_degenerate_ends(signs[ends], eps_trans)
    value = int(signs[ends].prod() < 0)
    if tail_T is not None and value != int(
            signs[_core_ends(ts, 2.0 * tail_T)].prod() < 0):
        raise TailNotTransversal(
            f"det sign flips where a tail meets the core (|t| = {tail_T})")
    return IndexReport(value=value, grid=ts, det_trace=dets,
                       crossings=_sign_crossings(ts, signs),
                       eps_trans=eps_trans, refinement_depth=depth)


def z2_index(pair: SubspacePathPair, eps_trans: float = 1e-6) -> IndexReport:
    """Z2-index of a subspace path pair with transversal ends.

    The value depends only on the determinant signs at the two ends,
    evaluated on a continuously chained frame pair; the interior det
    trace and the sign-change instants are diagnostics.

    Raises
    ------
    DegenerateEndpoint
        If det M at either end is within eps_trans (relative) of zero.
    GapTooLarge
        If a path of the pair still jumps by 0.2 or more in gap where
        halving had to stop (after 20 halvings of an interval, or at
        floating-point resolution), as at a discontinuity; the error
        names the interval.
    """
    return _read_index(pair, eps_trans, None)


def z2_index_unbounded(pair: SubspacePathPair, tail_T: float,
                       eps_trans: float = 1e-6) -> IndexReport:
    """Index of a pair over a half line or line, via a bounded core.

    The restriction to |t| <= tail_T carries the index provided the
    pair stays transversal on the tails; the computation checks the
    tail samples, evaluates the core restriction, and re-evaluates at
    2 * tail_T (clamped to the grid) to confirm the value has settled.
    With tail_T at or beyond max |t| the core is the whole grid and the
    report is that of :func:`z2_index`.

    Raises
    ------
    InvalidInput
        Unless tail_T is finite and > 0; nothing is refined then.
    TailNotTransversal
        If a tail sample is degenerate, the tail det sign flips, or the
        value read at 2 * tail_T differs: the sign flips where a tail
        meets the core.
    DegenerateEndpoint
        If det M at either end of the core is within eps_trans
        (relative) of zero, as at a half line's finite end.
    """
    _check_positive(tail_T, "tail_T")
    return _read_index(pair, eps_trans, tail_T)


def geometric_parity(fam: LinearFamily, lam: float, samples: int = 201,
                     eps_trans: float = 1e-6, rtol: float = 1e-9,
                     atol: float = 1e-12) -> IndexReport:
    """Geometric parity of the orbit: index of t -> (E^s(t), E^u(-t)).

    The pair lives on [0, T] with T the family horizon; the far end
    approximates the limit pair (V^-(S^+), V^+(S^-)), whose
    transversality is the boundary non-degeneracy condition.  The limits
    are read once, and one dense transport gives E^s(t) and E^u(-t).

    Raises
    ------
    InvalidInput
        Unless ``samples`` is an integer >= 2; nothing is evaluated then.
    BoundaryDegenerate
        If V^+(S^-) fails transversality to V^-(S^+), or E^s(0) fails
        transversality to E^u(0).
    """
    _check_samples(samples, 2)
    limits = asymptotic_limits(fam, lam)
    vp = limits.split_minus.v_plus      # V^+(S^-), dim k
    vm = limits.split_plus.v_minus      # V^-(S^+), dim n-k
    if det_sign(pair_matrix(vp, vm), eps_trans) == DEGENERATE:
        raise BoundaryDegenerate(
            "V^+(S^-) not transversal to V^-(S^+)",
            condition="limit transversality",
        )

    T = limits.horizon
    V, W = _dense_paths(fam, lam, limits, np.linspace(0.0, T, samples),
                        True, True, rtol, atol)
    # the paths start at t = 0 with E^s(0) and E^u(0)
    if _pair_dets(V.stack[:1], W.stack[:1], eps_trans)[1][0] == DEGENERATE:
        raise BoundaryDegenerate(
            "E^s(0) not transversal to E^u(0)",
            condition="origin transversality",
        )
    pair = SubspacePathPair(V=V, W=W)
    return z2_index_unbounded(pair, tail_T=T / 2.0, eps_trans=eps_trans)


# -- loop closure and orientability ------------------------------------

def _chart_segment(w_ref: np.ndarray, F0: np.ndarray,
                   F1: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Path s in [0, 1] from span(F0) to span(F1) through planes
    transversal to span(w_ref), as a sampler over arrays of s.

    Both endpoints are written as graphs over the complement of w_ref
    and the graph maps are interpolated linearly, so every intermediate
    plane is again a graph and cannot meet w_ref.  A Grassmann geodesic
    would not do here: it may leave the graph chart, and when it does
    the closing leg picks up index against the reference, silently
    breaking the loop identity.

    Raises numpy.linalg.LinAlgError when an endpoint is not a graph,
    i.e. not transversal to w_ref.
    """
    P = _complements(w_ref[None])[0]
    A0, A1 = (np.linalg.solve((P.T @ F).T, (w_ref.T @ F).T).T
              for F in (F0, F1))

    def at(s: np.ndarray) -> np.ndarray:
        s = s[:, None, None]
        return orthonormalize(P + w_ref @ ((1.0 - s) * A0 + s * A1))

    return at


def _sign_constant_along(v: np.ndarray, w: np.ndarray,
                         eps_trans: float) -> bool:
    """Transported det sign of sampled (v, w) pairs is defined and constant."""
    try:
        v, w = _chain(v), _chain(w)
    except GapTooLarge:
        return False
    signs = _pair_dets(v, w, eps_trans)[1]
    return signs[0] != DEGENERATE and bool(np.all(signs == signs[0]))


_PLATEAU = 0.05        # first plateau width tried by close_loop
_MAX_HALVINGS = 10     # narrowest plateau: _PLATEAU / 2**_MAX_HALVINGS


def close_loop(pair: SubspacePathPair,
               eps_trans: float = 1e-6) -> ClosedLoop:
    """Close a path pair into a V-loop over the doubled interval.

    The input (normalized to [0, 1]) is extended to [1, 2] against the
    reversed W-path W~(t) = W(2 - t): outside two plateaus of width
    epsilon the extension is the orthogonal complement of W~, which is
    transversal by construction; on the plateaus it is a graph-chart
    segment (see _chart_segment) joining V(1) and V(0) to that
    complement without ever meeting the local W~.  The whole extension
    is then audited by a transported determinant-sign check on a
    gap-refined grid; epsilon starts at 0.05 and is halved when an
    endpoint fails to be a graph over the plateau reference or the
    audit fails.  ``ClosedLoop.epsilon`` reports the width used.

    Raises
    ------
    DegenerateEndpoint
        If the input pair fails transversality at either end.
    CannotClose
        If every plateau width down to 0.05 / 2^10 fails.
    """
    grid = pair.grid
    a, b = grid[0], grid[-1]
    span = b - a
    V, W = pair.V, pair.W
    ends = _pair_dets(V.stack[[0, -1]], W.stack[[0, -1]], eps_trans)[1]
    _refuse_degenerate_ends(ends, eps_trans)

    norm_grid = (grid - a) / span
    v0, v1 = V.stack[0], V.stack[-1]
    m = len(grid)

    def w_at(us: np.ndarray) -> np.ndarray:
        # us in [0, 1], the normalized parameter
        return W.sample(a + us * span)

    def w_ext(ts: np.ndarray) -> np.ndarray:
        return w_at(2.0 - ts)

    eps = _PLATEAU
    for _ in range(_MAX_HALVINGS + 1):
        w_ref1, w_ref2 = w_at(np.array([1.0 - eps, eps]))
        try:
            plat1 = _chart_segment(w_ref1, v1, _complements(w_ref1[None])[0])
            plat2 = _chart_segment(w_ref2, _complements(w_ref2[None])[0], v0)
        except np.linalg.LinAlgError:
            # an input endpoint is not a graph over the plateau
            # reference; a narrower plateau moves the reference closer
            # to the endpoint's own partner, where transversality holds
            eps *= 0.5
            continue

        def v_ext(ts: np.ndarray) -> np.ndarray:
            # ts in [1, 2]
            first = ts <= 1.0 + eps
            last = ~first & (ts >= 2.0 - eps)
            return _piecewise(ts, v0.shape, [
                (first, lambda t: plat1((t - 1.0) / eps)),
                (last, lambda t: plat2((t - (2.0 - eps)) / eps)),
                (~(first | last), lambda t: _complements(w_ext(t)))])

        def sample(ts, lefts=None):
            return v_ext(ts), w_ext(ts)

        params = np.unique(np.concatenate([
            np.linspace(1.0, 2.0, max(m, 41)),
            1.0 + eps * np.linspace(0.0, 1.0, 17),
            2.0 - eps * np.linspace(0.0, 1.0, 17),
        ]))
        ext, (v_frames, w_frames), _ = _bisect(
            params, sample(params),
            lambda p, q: _gaps(p[0], q[0]) > 0.3, sample)
        if _sign_constant_along(v_frames, w_frames, eps_trans):

            def loop_sampler(ts: np.ndarray) -> np.ndarray:
                head = ts <= 1.0
                return _piecewise(ts, v0.shape, [
                    (head, lambda t: V.sampler(a + t * span)),
                    (~head, v_ext)])

            v_loop = SubspacePath(
                grid=np.concatenate([norm_grid, ext[1:]]),
                stack=np.concatenate([V.stack, v_frames[1:]]),
                sampler=loop_sampler)
            return ClosedLoop(v_loop=v_loop, epsilon=eps)
        eps *= 0.5
    raise CannotClose(
        f"transversal closure failed at every plateau width down to {eps * 2}"
    )


def bundle_orientability(loop: ClosedLoop | SubspacePath,
                         eps_trans: float = 1e-6) -> int:
    """First Stiefel-Whitney class of the bundle a closed loop pulls back.

    Accepts the result of :func:`close_loop` or any closed
    SubspacePath.  Transports a frame once around by stepwise
    alignment; the loop is orientable (returns 0) iff the return map
    last^T first has positive determinant.

    Raises
    ------
    NotClosed
        If the first and last subspaces differ by more than 1e-8 in gap.
    """
    if isinstance(loop, ClosedLoop):
        loop = loop.v_loop
    F = loop.stack
    gap = _gaps(F[:1], F[-1:])[0]
    if gap > 1e-8:
        raise NotClosed(f"loop endpoints {gap:.2e} apart in gap")
    s = det_sign(_chain(F)[-1].T @ F[0], eps_trans)
    if s == DEGENERATE:
        raise InternalMismatch("return map of a closed loop is singular")
    return 0 if s > 0 else 1
