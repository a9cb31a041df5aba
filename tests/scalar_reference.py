"""Frame-at-a-time reference for the stacked refinement pipeline.

Copies of ``flow._bisect``, ``flow.path_from_sampler`` and
``z2index._refine_pair`` as they read scalar samplers ``t -> Frame``,
one frame, gap and alignment at a time.  The stacked code must refine
to the same grids, signs and depths, with the same det traces.
"""

import importlib.util
import pathlib
import sys

import numpy as np

from hetindex import Frame, GapTooLarge, gap_distance
from hetindex.linalg import (
    DEGENERATE,
    _signed_dets,
    align_chain,
    align_frame,
    pair_matrix,
)

MAX_DEPTH = 20


def scalar(sampler):
    """The scalar view t -> Frame of an array sampler."""
    return lambda t: Frame(sampler(np.array([t]))[0])


def bisect(ts, samples, split, sample_mids, depths=None):
    if depths is None:
        depths = [0] * (len(ts) - 1)
    fresh = range(len(ts) - 1)
    while True:
        cut = {}
        for i in fresh:
            tm = 0.5 * (ts[i] + ts[i + 1])
            if (depths[i] < MAX_DEPTH and ts[i] < tm < ts[i + 1]
                    and split(samples[i], samples[i + 1])):
                cut[i] = tm
        if not cut:
            return ts, samples, depths
        mids = sample_mids(list(cut.values()), [samples[i] for i in cut])
        for (i, tm), s in reversed(list(zip(cut.items(), mids))):
            ts.insert(i + 1, tm)
            samples.insert(i + 1, s)
            depths[i:i + 1] = [depths[i] + 1] * 2
        fresh = [i + rank + half for rank, i in enumerate(cut)
                 for half in (0, 1)]


def refuse_unresolved(ts, samples, depths, split):
    """GapTooLarge where halving stopped with ``split`` still true."""
    for i, depth in enumerate(depths):
        a, b = ts[i], ts[i + 1]
        stopped = depth >= MAX_DEPTH or not a < 0.5 * (a + b) < b
        if stopped and split(samples[i], samples[i + 1]):
            raise GapTooLarge(f"jump between t={a!r} and t={b!r}")


def too_wide(a, b):
    return gap_distance(a, b) > 0.4


def path_from_sampler(sampler, grid):
    """(grid, frames) of the refined path, one sampler call per instant."""
    pts = np.asarray(grid, dtype=float).tolist()
    pts, raw, depths = bisect(pts, [sampler(t) for t in pts], too_wide,
                              lambda ts, lefts: [sampler(t) for t in ts])
    refuse_unresolved(pts, raw, depths, too_wide)
    return np.asarray(pts), raw


def traced(frames, eps_trans):
    dets, signs = _signed_dets(
        np.stack([pair_matrix(v, w) for v, w in frames]), eps_trans)
    return [(v, w, d, s) for (v, w), d, s
            in zip(frames, dets.tolist(), signs.tolist())]


def refine_pair(grid, v_frames, w_frames, vs, ws, eps_trans=1e-6):
    """(ts, dets, signs, depth) of a pair given as scalar samplers."""
    ts = list(map(float, grid))
    pts = list(zip(v_frames, w_frames))

    def wide(a, b):
        return (gap_distance(a[0], b[0]) >= 0.2
                or gap_distance(a[1], b[1]) >= 0.2)

    ts, pts, depths = bisect(
        ts, pts, wide, lambda mids, lefts: [(vs(t), ws(t)) for t in mids])
    refuse_unresolved(ts, pts, depths, wide)
    v_raw, w_raw = zip(*pts)
    chain = traced(list(zip(align_chain(v_raw), align_chain(w_raw))),
                   eps_trans)

    def flips(a, b):
        return DEGENERATE not in (a[3], b[3]) and a[3] != b[3]

    def sample(mids, lefts):
        return traced([(align_frame(left[0], vs(t)),
                        align_frame(left[1], ws(t)))
                       for t, left in zip(mids, lefts)], eps_trans)

    ts, chain, depths = bisect(ts, chain, flips, sample, depths)
    _, _, dets, signs = zip(*chain)
    return np.asarray(ts), np.asarray(dets), list(signs), max(depths)


def orbit_draw(index):
    """The benchmark's connecting family ``ORBIT_DRAWS[index]``, loaded
    from its source."""
    workloads = sys.modules.get("_bench_workloads")
    if workloads is None:
        path = (pathlib.Path(__file__).parents[1] / "perfbench"
                / "workloads.py")
        spec = importlib.util.spec_from_file_location("_bench_workloads",
                                                      path)
        workloads = importlib.util.module_from_spec(spec)
        # dataclasses look their module up in sys.modules
        sys.modules[spec.name] = workloads
        spec.loader.exec_module(workloads)
    return workloads.connecting_family(*workloads.ORBIT_DRAWS[index])
