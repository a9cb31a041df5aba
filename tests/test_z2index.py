"""Z2-index of path pairs, loop closure, geometric parity."""

import numpy as np
import pytest

from hetindex import (
    BoundaryDegenerate,
    DegenerateEndpoint,
    NotClosed,
    SubspacePathPair,
    TailNotTransversal,
    bundle_orientability,
    close_loop,
    gap_distance,
    geometric_parity,
    orthonormalize,
    path_from_sampler,
    z2_index,
    z2_index_unbounded,
)
from hetindex import flow
from hetindex.suites import poschl_teller_family


def line(theta):
    return orthonormalize(np.array([[np.cos(theta)], [np.sin(theta)]]))


def rotating(t):
    return line(t)


def fixed_vertical(t):
    return line(np.pi / 2)


def make_pair(vs, ws, a, b, points=101):
    grid = np.linspace(a, b, points)
    return SubspacePathPair(V=path_from_sampler(vs, grid),
                            W=path_from_sampler(ws, grid))


def test_rotating_line_full_sweep():
    rep = z2_index(make_pair(rotating, fixed_vertical, 0.0, np.pi))
    assert rep.value == 1
    assert len(rep.crossings) == 1
    assert abs(rep.crossings[0] - np.pi / 2) < 1e-2
    # det trace starts and ends with opposite signs
    assert rep.det_trace[0] * rep.det_trace[-1] < 0


def test_short_arc_index_zero():
    rep = z2_index(make_pair(rotating, fixed_vertical, 0.0, np.pi / 4))
    assert rep.value == 0
    assert rep.crossings == ()


def test_index_on_coarse_grid():
    rep = z2_index(make_pair(rotating, fixed_vertical, 0.0, np.pi, points=7))
    assert rep.value == 1
    # exact refinement output, recorded before the refinement loops
    # were merged into one helper; it must not move
    assert len(rep.grid) == 25
    assert rep.refinement_depth == 1
    assert rep.crossings == (np.pi / 2,)


def test_symmetry_of_pair():
    p = make_pair(rotating, fixed_vertical, 0.2, np.pi - 0.2)
    q = make_pair(fixed_vertical, rotating, 0.2, np.pi - 0.2)
    assert z2_index(p).value == z2_index(q).value


def test_concatenation_adds_mod2():
    mid = np.pi / 3
    left = z2_index(make_pair(rotating, fixed_vertical, 0.0, mid)).value
    right = z2_index(make_pair(rotating, fixed_vertical, mid, np.pi)).value
    whole = z2_index(make_pair(rotating, fixed_vertical, 0.0, np.pi)).value
    assert (left + right) % 2 == whole


def test_degenerate_endpoint_raises():
    with pytest.raises(DegenerateEndpoint):
        z2_index(make_pair(rotating, fixed_vertical, np.pi / 2, np.pi))


def test_pair_merges_different_grids():
    g1 = np.linspace(0.0, np.pi, 11)
    g2 = np.linspace(0.0, np.pi, 17)
    pair = SubspacePathPair(V=path_from_sampler(rotating, g1),
                            W=path_from_sampler(fixed_vertical, g2))
    assert len(pair.V.grid) == len(pair.W.grid)
    assert z2_index(pair).value == 1


def test_merged_grid_frames_are_samples():
    # the union grid takes each missing frame from the path's sampler;
    # a geodesic between V's neighbours would miss line(t**2) off its grid
    def vs(t):
        return line(t * t)

    pair = SubspacePathPair(
        V=path_from_sampler(vs, np.linspace(0.0, 1.0, 11)),
        W=path_from_sampler(fixed_vertical, np.linspace(0.0, 1.0, 17)))
    assert len(pair.grid) > 17
    for t, v, w in zip(pair.grid, pair.V.frames, pair.W.frames):
        assert np.array_equal(v.columns, vs(t).columns)
        assert np.array_equal(w.columns, fixed_vertical(t).columns)


def test_unbounded_index_settles():
    # V sweeps angle 0 to pi/2 through tanh, W fixed at 45 degrees;
    # one crossing, transversal tails on both sides
    def vs(t):
        return line(np.pi / 4 * (np.tanh(t) + 1.0))

    def ws(t):
        return line(np.pi / 4)

    pair = make_pair(vs, ws, -10.0, 10.0, points=201)
    rep = z2_index_unbounded(pair, tail_T=5.0)
    assert rep.value == 1
    assert rep.value == z2_index(pair).value


def test_unbounded_rejects_degenerate_tail():
    # W equals the forward limit of V, so the right tail never becomes
    # transversal
    def vs(t):
        return line(np.pi / 4 * (np.tanh(t) + 1.0))

    def ws(t):
        return line(np.pi / 2)

    pair = make_pair(vs, ws, -10.0, 10.0, points=201)
    with pytest.raises(TailNotTransversal):
        z2_index_unbounded(pair, tail_T=5.0)


def test_close_loop_structure():
    pair = make_pair(rotating, fixed_vertical, 0.0, np.pi / 4)
    loop = close_loop(pair)
    assert len(loop.v_loop.grid) == 232    # pinned, as above
    assert loop.v_loop.grid[0] == 0.0
    assert loop.v_loop.grid[-1] == 2.0
    assert gap_distance(loop.v_loop.frames[0], loop.v_loop.frames[-1]) < 1e-8
    assert 0.0 < loop.epsilon <= 0.05


def test_orientability_matches_index():
    full = make_pair(rotating, fixed_vertical, 0.0, np.pi)
    arc = make_pair(rotating, fixed_vertical, 0.0, np.pi / 4)
    assert bundle_orientability(close_loop(full)) == 1
    assert bundle_orientability(close_loop(arc)) == 0
    assert z2_index(full).value == 1
    assert z2_index(arc).value == 0


def test_orientability_rejects_open_path():
    open_path = path_from_sampler(rotating, np.linspace(0.0, 1.0, 21))
    with pytest.raises(NotClosed):
        bundle_orientability(open_path)


def test_geometric_parity_rejects_origin_nontransversality():
    # at lambda = 0.8 the bound state sech(t) lies in E^s(0) and E^u(0)
    with pytest.raises(BoundaryDegenerate) as info:
        geometric_parity(poschl_teller_family(), 0.8)
    assert info.value.condition == "origin transversality"


def test_geometric_parity_poschl_teller():
    fam = poschl_teller_family()
    assert geometric_parity(fam, 0.0, samples=81).value == 0
    rep = geometric_parity(fam, 1.0, samples=81)
    assert rep.value == 1
    assert len(rep.grid) == 98             # pinned, as above
    assert rep.refinement_depth == 16
    assert rep.crossings == (0.24655532836914062,)


def test_geometric_parity_transports_once_per_side(monkeypatch):
    # each path is one dense transport whose interpolants serve every
    # refinement midpoint; collecting grid frames in five refinement
    # rounds, each re-integrating from the seed, then one fresh
    # transport per later midpoint, made 36 calls here
    calls = []
    real = flow._transport_batched

    def counting(*args, **kwargs):
        calls.append(args[3:5])
        return real(*args, **kwargs)

    monkeypatch.setattr(flow, "_transport_batched", counting)
    rep = geometric_parity(poschl_teller_family(), 1.0, samples=81)
    assert rep.value == 1 and rep.refinement_depth == 16
    assert len(calls) <= 2
