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
from typing import Callable, Sequence

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
)
from .flow import (
    LinearFamily,
    SubspacePath,
    _bisect,
    asymptotic_limits,
    invariant_subspace_path,
)
from .linalg import (
    DEGENERATE,
    Frame,
    align_chain,
    align_frame,
    det_sign,
    gap_distance,
    orthogonal_complement,
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


def _held(path: SubspacePath) -> Callable[[float], Frame]:
    """The path as a function: its own frame at a grid instant, else
    the sampler's."""
    own = dict(zip(path.grid.tolist(), path.frames))
    return lambda t: own[t] if t in own else path.sampler(t)


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
            path = getattr(self, name)
            frames = tuple(map(_held(path), union.tolist()))
            object.__setattr__(self, name,
                               SubspacePath(union, frames, path.sampler))

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

    ``v_loop`` runs over [0, 2] with v_loop(0) = v_loop(2); ``w_tilde``
    is the reversed W-path on [1, 2] the closure stays transversal to.
    """

    v_loop: SubspacePath
    w_tilde: SubspacePath
    epsilon: float


# -- core refinement pipeline ------------------------------------------

def _traced(v: Frame, w: Frame, eps_trans: float) -> tuple:
    """A chained grid sample (v, w) with det M and its sign."""
    M = pair_matrix(v, w)
    return v, w, np.linalg.det(M), det_sign(M, eps_trans)


def _sign_crossings(ts, signs) -> tuple:
    out = []
    last = None
    for i, s in enumerate(signs):
        if s == DEGENERATE:
            continue
        if last is not None and s != signs[last]:
            out.append(float(0.5 * (ts[last] + ts[i])))
        last = i
    return tuple(out)


def _refine_pair(pair: SubspacePathPair, eps_trans: float):
    """Shared pipeline: refine spans, align chains, localize crossings.

    Returns (ts, dets, signs, depth_used) where ts is the refined grid
    and the det trace is computed on Procrustes-chained frames whose
    first frames keep the input orientation.
    """
    ts = list(map(float, pair.grid))
    pts = list(zip(pair.V.frames, pair.W.frames))
    vs, ws = pair.V.sampler, pair.W.sampler

    # span refinement: no orientation needed, raw samples suffice
    def too_wide(a, b):
        return (gap_distance(a[0], b[0]) >= _GAP_REFINE
                or gap_distance(a[1], b[1]) >= _GAP_REFINE)

    ts, pts, depths = _bisect(
        ts, pts, too_wide,
        lambda mids, lefts: [(vs(t), ws(t)) for t in mids])

    # orientation sweep: chain Procrustes from the left end
    v_raw, w_raw = zip(*pts)
    chain = [_traced(v, w, eps_trans)
             for v, w in zip(align_chain(v_raw), align_chain(w_raw))]

    # crossing localization: bisect clean sign flips, chaining each
    # midpoint to its left neighbour
    def flips(a, b):
        return DEGENERATE not in (a[3], b[3]) and a[3] != b[3]

    def sample(mids, lefts):
        return [_traced(align_frame(left[0], vs(t)),
                        align_frame(left[1], ws(t)), eps_trans)
                for t, left in zip(mids, lefts)]

    ts, chain, depths = _bisect(ts, chain, flips, sample, depths)

    _, _, dets, signs = zip(*chain)
    return np.asarray(ts), np.asarray(dets), list(signs), max(depths)


def z2_index(pair: SubspacePathPair, eps_trans: float = 1e-6) -> IndexReport:
    """Z2-index of a subspace path pair with transversal ends.

    The value depends only on the determinant signs at the two ends,
    evaluated on a continuously chained frame pair; the interior det
    trace and the sign-change instants are diagnostics.

    Raises
    ------
    DegenerateEndpoint
        If det M at either end is within eps_trans (relative) of zero.
    """
    ts, dets, signs, depth = _refine_pair(pair, eps_trans)
    if signs[0] == DEGENERATE or signs[-1] == DEGENERATE:
        which = "left" if signs[0] == DEGENERATE else "right"
        raise DegenerateEndpoint(
            f"{which} endpoint pair matrix numerically singular "
            f"(eps_trans={eps_trans})"
        )
    value = 0 if signs[0] * signs[-1] > 0 else 1
    return IndexReport(
        value=value,
        grid=ts,
        det_trace=dets,
        crossings=_sign_crossings(ts, signs),
        eps_trans=eps_trans,
        refinement_depth=depth,
    )


def _core_indices(ts: np.ndarray, tail_T: float) -> tuple[int, int]:
    inside = np.nonzero(np.abs(ts) <= tail_T + 1e-12)[0]
    if len(inside) < 2:
        raise TailNotTransversal(
            f"fewer than two samples inside |t| <= {tail_T}"
        )
    return int(inside[0]), int(inside[-1])


def z2_index_unbounded(pair: SubspacePathPair, tail_T: float,
                       eps_trans: float = 1e-6) -> IndexReport:
    """Index of a pair over a half line or line, via a bounded core.

    The restriction to |t| <= tail_T carries the index provided the
    pair stays transversal on the tails; the computation checks the
    tail samples, evaluates the core restriction, and re-evaluates at
    2 * tail_T (clamped to the grid) to confirm the value has settled.

    Raises
    ------
    TailNotTransversal
        If a tail sample is degenerate or the tail det sign flips.
    """
    ts, dets, signs, depth = _refine_pair(pair, eps_trans)

    for side, mask in (
        ("left", ts <= -tail_T),
        ("right", ts >= tail_T),
    ):
        idx = np.nonzero(mask)[0]
        tail_signs = [signs[i] for i in idx]
        if any(s == DEGENERATE for s in tail_signs):
            bad = ts[idx[[s == DEGENERATE for s in tail_signs].index(True)]]
            raise TailNotTransversal(
                f"{side} tail sample at t={bad:.6g} is degenerate"
            )
        if len(set(tail_signs)) > 1:
            raise TailNotTransversal(
                f"det sign flips on the {side} tail (|t| >= {tail_T})"
            )

    lo, hi = _core_indices(ts, tail_T)
    lo2, hi2 = _core_indices(ts, 2.0 * tail_T)
    value = 0 if signs[lo] * signs[hi] > 0 else 1
    value2 = 0 if signs[lo2] * signs[hi2] > 0 else 1
    if value != value2:
        raise InternalMismatch(
            "index changed when the tail horizon doubled despite "
            "constant tail signs"
        )
    return IndexReport(
        value=value,
        grid=ts,
        det_trace=dets,
        crossings=_sign_crossings(ts, signs),
        eps_trans=eps_trans,
        refinement_depth=depth,
    )


def geometric_parity(fam: LinearFamily, lam: float, samples: int = 201,
                     eps_trans: float = 1e-6, rtol: float = 1e-9,
                     atol: float = 1e-12) -> IndexReport:
    """Geometric parity of the orbit: index of t -> (E^s(t), E^u(-t)).

    The pair lives on [0, T] with T the family horizon; the far end
    approximates the limit pair (V^-(S^+), V^+(S^-)), whose
    transversality is the boundary non-degeneracy condition.

    Raises
    ------
    BoundaryDegenerate
        If V^+(S^-) fails transversality to V^-(S^+), or E^s(0) fails
        transversality to E^u(0).
    """
    limits = asymptotic_limits(fam, lam)
    vp = limits.split_minus.v_plus      # V^+(S^-), dim k
    vm = limits.split_plus.v_minus      # V^-(S^+), dim n-k
    if det_sign(pair_matrix(vp, vm), eps_trans) == DEGENERATE:
        raise BoundaryDegenerate(
            "V^+(S^-) not transversal to V^-(S^+)",
            condition="limit transversality",
        )

    T = limits.horizon
    grid = np.linspace(0.0, T, samples)
    V = invariant_subspace_path(fam, lam, "stable", grid, rtol, atol)
    U = invariant_subspace_path(fam, lam, "unstable", -grid[::-1],
                                rtol, atol)
    # reflect U's own grid: refinement may have densified it
    W = SubspacePath(grid=-U.grid[::-1], frames=U.frames[::-1],
                     sampler=lambda s: U.sampler(-s))
    # the paths start at t = 0 with E^s(0) and E^u(0)
    if det_sign(pair_matrix(V.frames[0], W.frames[0]),
                eps_trans) == DEGENERATE:
        raise BoundaryDegenerate(
            "E^s(0) not transversal to E^u(0)",
            condition="origin transversality",
        )
    pair = SubspacePathPair(V=V, W=W)
    return z2_index_unbounded(pair, tail_T=T / 2.0, eps_trans=eps_trans)


# -- loop closure and orientability ------------------------------------

def _chart_segment(w_ref: Frame, F0: Frame,
                   F1: Frame) -> Callable[[float], Frame]:
    """Path s in [0, 1] from span(F0) to span(F1) through planes
    transversal to span(w_ref).

    Both endpoints are written as graphs over the complement of w_ref
    and the graph maps are interpolated linearly, so every intermediate
    plane is again a graph and cannot meet w_ref.  A Grassmann geodesic
    would not do here: it may leave the graph chart, and when it does
    the closing leg picks up index against the reference, silently
    breaking the loop identity.

    Raises numpy.linalg.LinAlgError when an endpoint is not a graph,
    i.e. not transversal to w_ref.
    """
    P = orthogonal_complement(w_ref).columns
    Wc = w_ref.columns
    graphs = []
    for F in (F0, F1):
        X = P.T @ F.columns
        Y = Wc.T @ F.columns
        graphs.append(np.linalg.solve(X.T, Y.T).T)
    A0, A1 = graphs

    def at(s: float) -> Frame:
        A = (1.0 - s) * A0 + s * A1
        return orthonormalize(P + Wc @ A)

    return at


def _sign_constant_along(frames: Sequence[tuple],
                         eps_trans: float) -> bool:
    """Transported det sign of sampled (v, w) pairs is defined and constant."""
    v_raw, w_raw = zip(*frames)
    try:
        chain = zip(align_chain(v_raw), align_chain(w_raw))
    except GapTooLarge:
        return False
    signs = (det_sign(pair_matrix(v, w), eps_trans) for v, w in chain)
    s0 = next(signs)
    return s0 != DEGENERATE and all(s == s0 for s in signs)


def close_loop(pair: SubspacePathPair, epsilon: float = 0.05,
               max_halvings: int = 10,
               eps_trans: float = 1e-6) -> ClosedLoop:
    """Close a path pair into a V-loop over the doubled interval.

    The input (normalized to [0, 1]) is extended to [1, 2] against the
    reversed W-path W~(t) = W(2 - t): outside two plateaus of width
    epsilon the extension is the orthogonal complement of W~, which is
    transversal by construction; on the plateaus it is a graph-chart
    segment (see _chart_segment) joining V(1) and V(0) to that
    complement without ever meeting the local W~.  The whole extension
    is then audited by a transported determinant-sign check on a
    gap-refined grid; epsilon is halved when an endpoint fails to be a
    graph over the plateau reference or the audit fails.

    Raises
    ------
    DegenerateEndpoint
        If the input pair fails transversality at either end.
    CannotClose
        If every plateau width down to epsilon / 2^max_halvings fails.
    """
    grid = pair.grid
    a, b = grid[0], grid[-1]
    span = b - a
    V, W = pair.V, pair.W
    for t_end, name in ((a, "left"), (b, "right")):
        i = 0 if t_end == a else -1
        if det_sign(pair_matrix(V.frames[i], W.frames[i]),
                    eps_trans) == DEGENERATE:
            raise DegenerateEndpoint(f"{name} endpoint pair degenerate")

    norm_grid = (grid - a) / span
    v0, v1 = V.frames[0], V.frames[-1]
    m = len(grid)

    def w_at(u: float) -> Frame:
        # u in [0, 1] in normalized parameter
        return W.sampler(a + u * span)

    eps = epsilon
    for _ in range(max_halvings + 1):
        w_ref1 = w_at(1.0 - eps)
        w_ref2 = w_at(eps)
        try:
            plat1 = _chart_segment(w_ref1, v1,
                                   orthogonal_complement(w_ref1))
            plat2 = _chart_segment(w_ref2,
                                   orthogonal_complement(w_ref2), v0)
        except np.linalg.LinAlgError:
            # an input endpoint is not a graph over the plateau
            # reference; a narrower plateau moves the reference closer
            # to the endpoint's own partner, where transversality holds
            eps *= 0.5
            continue

        def v_ext(t: float) -> Frame:
            # t in [1, 2]
            if t <= 1.0 + eps:
                return plat1((t - 1.0) / eps)
            if t >= 2.0 - eps:
                return plat2((t - (2.0 - eps)) / eps)
            return orthogonal_complement(w_at(2.0 - t))

        def w_ext(t: float) -> Frame:
            return w_at(2.0 - t)

        def sample(ts, lefts=None):
            return [(v_ext(t), w_ext(t)) for t in ts]

        params = list(map(float, np.unique(np.concatenate([
            np.linspace(1.0, 2.0, max(m, 41)),
            1.0 + eps * np.linspace(0.0, 1.0, 17),
            2.0 - eps * np.linspace(0.0, 1.0, 17),
        ]))))
        ext, frames, _ = _bisect(
            params, sample(params),
            lambda p, q: gap_distance(p[0], q[0]) > 0.3, sample)
        if _sign_constant_along(frames, eps_trans):
            ext = np.asarray(ext)
            v_frames, w_frames = zip(*frames)
            loop_grid = np.concatenate([norm_grid, ext[1:]])

            def loop_sampler(t: float, _eps=eps) -> Frame:
                if t <= 1.0:
                    return V.sampler(a + t * span)
                return v_ext(t)

            v_loop = SubspacePath(grid=loop_grid,
                                  frames=V.frames + v_frames[1:],
                                  sampler=loop_sampler)
            w_tilde = SubspacePath(grid=ext, frames=w_frames,
                                   sampler=w_ext)
            return ClosedLoop(v_loop=v_loop, w_tilde=w_tilde, epsilon=eps)
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
    first, last = loop.frames[0], loop.frames[-1]
    if gap_distance(first, last) > 1e-8:
        raise NotClosed(
            f"loop endpoints {gap_distance(first, last):.2e} apart in gap"
        )
    ret = align_chain(loop.frames)[-1].columns.T @ first.columns
    s = det_sign(ret, eps_trans)
    if s == DEGENERATE:
        raise InternalMismatch("return map of a closed loop is singular")
    return 0 if s > 0 else 1
