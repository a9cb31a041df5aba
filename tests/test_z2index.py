"""Z2-index of path pairs, loop closure, geometric parity."""

import re

import numpy as np
import pytest

from hetindex import (
    BoundaryDegenerate,
    DegenerateEndpoint,
    GapTooLarge,
    InvalidInput,
    LinearFamily,
    NotClosed,
    SubspacePathPair,
    TailNotTransversal,
    bundle_orientability,
    close_loop,
    gap_distance,
    geometric_parity,
    path_from_sampler,
    z2_index,
    z2_index_unbounded,
)
from hetindex import flow, parity, suites, z2index
from hetindex.parity import decomposition_check
from hetindex.suites import poschl_teller_family
from scalar_reference import orbit_draw, refine_pair, scalar


def line(theta):
    """The lines at the angles ``theta``, an (m, 2, 1) stack of frames."""
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)[..., None]


def rotating(ts):
    return line(ts)


def fixed_vertical(ts):
    return line(np.full(len(ts), np.pi / 2))


def flipping(ts):
    # the rotating line, its orientation flipping many times per radian
    sign = np.where(np.sin(40.0 * ts) < 0.0, -1.0, 1.0)
    return sign[:, None, None] * line(ts)


def turning_limit_family():
    """S = (1 - w) A + w A^+(lambda), w = (1 + tanh t) / 2, A = diag(1, -1)
    and A^+ = 2 u u^T - I with u the line at angle pi lambda: V^-(S^+)
    turns half around over [0, 1] while V^+(S^-) stays put."""
    A = np.diag([1.0, -1.0])

    def batched(lam, t):
        u = line(np.pi * np.asarray(lam, dtype=float) + 0.0 * t)
        w = 0.5 * (1.0 + np.tanh(t))[..., None, None]
        return (1.0 - w) * A + w * (2.0 * u @ np.swapaxes(u, -1, -2)
                                    - np.eye(2))

    return flow.LinearFamily.from_callable(batched, n=2, k=1,
                                           batched=batched)


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
    def vs(ts):
        return line(ts * ts)

    pair = SubspacePathPair(
        V=path_from_sampler(vs, np.linspace(0.0, 1.0, 11)),
        W=path_from_sampler(fixed_vertical, np.linspace(0.0, 1.0, 17)))
    assert len(pair.grid) > 17
    for t, v, w in zip(pair.grid, pair.V.frames, pair.W.frames):
        assert np.array_equal(v.columns, vs(np.array([t]))[0])
        assert np.array_equal(w.columns, fixed_vertical([t])[0])


def test_unbounded_index_settles():
    # V sweeps angle 0 to pi/2 through tanh, W fixed at 45 degrees;
    # one crossing, transversal tails on both sides
    def vs(ts):
        return line(np.pi / 4 * (np.tanh(ts) + 1.0))

    def ws(ts):
        return line(np.full(len(ts), np.pi / 4))

    pair = make_pair(vs, ws, -10.0, 10.0, points=201)
    rep = z2_index_unbounded(pair, tail_T=5.0)
    assert rep.value == 1
    assert rep.value == z2_index(pair).value


def test_unbounded_rejects_degenerate_tail():
    # W equals the forward limit of V, so the right tail never becomes
    # transversal
    def vs(ts):
        return line(np.pi / 4 * (np.tanh(ts) + 1.0))

    def ws(ts):
        return line(np.full(len(ts), np.pi / 2))

    pair = make_pair(vs, ws, -10.0, 10.0, points=201)
    with pytest.raises(TailNotTransversal):
        z2_index_unbounded(pair, tail_T=5.0)


@pytest.mark.parametrize("tail_T", [np.nan, np.inf, -np.inf, 0.0, -1.0],
                         ids=["nan", "inf", "-inf", "zero", "negative"])
def test_unbounded_refuses_a_tail_horizon_not_finite_and_positive(
        tail_T, monkeypatch):
    # refused before any refinement, as the CLI schema refuses it: a
    # tail at 0 or below would read core samples as tail samples
    pair = make_pair(rotating, fixed_vertical, -3.0, 3.0)
    refined = []
    monkeypatch.setattr(z2index, "_refine_pair",
                        lambda *args: refined.append(args))
    with pytest.raises(InvalidInput, match="tail_T must be finite and > 0"):
        z2_index_unbounded(pair, tail_T=tail_T)
    assert refined == []


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
    # both sides ride in one dense transport, E^u in mirrored time,
    # whose interpolant serves every refinement midpoint, and the limits
    # are read once
    calls = []
    for name in ("_transport_batched", "_limits_over_lambda"):
        real = getattr(flow, name)

        def counting(*args, name=name, real=real, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(flow, name, counting)
    rep = geometric_parity(poschl_teller_family(), 1.0, samples=81)
    assert rep.value == 1 and rep.refinement_depth == 16
    assert sorted(calls) == ["_limits_over_lambda", "_transport_batched"]


def _rounds_and_calls(monkeypatch, owner, name, run) -> tuple:
    """[rounds, calls of ``owner.name``] of each ``_refine_pair`` call
    that ``run()`` makes, a round being one midpoint sampling, and what
    ``run()`` returns."""
    log, inside = [], []
    real_refine, real_bisect = z2index._refine_pair, z2index._bisect
    real = getattr(owner, name)

    def refine(pair, eps_trans):
        log.append([0, 0])
        inside.append(True)
        try:
            return real_refine(pair, eps_trans)
        finally:
            inside.pop()

    def bisect(ts, samples, split, sample_mids, depths=None):
        def counted(mids, lefts):
            log[-1][0] += 1
            return sample_mids(mids, lefts)

        return real_bisect(ts, samples, split, counted, depths)

    def counting(*args, **kwargs):
        if inside:
            log[-1][1] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(z2index, "_refine_pair", refine)
    monkeypatch.setattr(z2index, "_bisect", bisect)
    monkeypatch.setattr(owner, name, counting)
    result = run()
    return log, result


def test_orbit_pair_reads_its_interpolant_once_per_round(monkeypatch):
    # V and W sample the same midpoints from one read of the shared
    # dense output
    [(rounds, reads)], _ = _rounds_and_calls(
        monkeypatch, flow._Dense, "__call__",
        lambda: geometric_parity(poschl_teller_family(), 1.0, samples=81))
    assert rounds > 1 and reads == rounds


def test_limit_pair_reads_its_limits_once_per_round(monkeypatch):
    # the limits of S^+ turn with lambda, so the limit pair refines, and
    # each round reads V^-(S^+) and V^+(S^-) from one limits call
    log, rep = _rounds_and_calls(
        monkeypatch, parity, "_limits_over_lambda",
        lambda: decomposition_check(turning_limit_family(),
                                    np.linspace(0.0, 1.0, 5), samples=41))
    assert rep.holds and not rep.limits_lambda_independent
    assert rep.limit_term.value == 1 and rep.limit_term.crossings == (0.5,)
    rounds, calls = log[-1]           # the limit pair is indexed last
    assert rounds > 1 and calls == rounds


def _projectors(stack):
    return stack @ np.swapaxes(stack, 1, 2)


@pytest.mark.parametrize("family", [poschl_teller_family,
                                    lambda: orbit_draw(1)],
                         ids=["poschl-teller", "connecting-n3"])
def test_orbit_pair_is_the_one_sided_paths(family):
    # V(t) = E^s(t) and W(t) = E^u(-t) from the one mirrored solve agree
    # with the paths of two one-sided transports
    fam, lam = family(), 0.3
    limits = flow.asymptotic_limits(fam, lam)
    grid = np.linspace(0.0, limits.horizon, 41)
    V, W = flow._dense_paths(fam, lam, limits, grid, True, True,
                             1e-9, 1e-12)
    ts = np.union1d(V.grid, W.grid)
    e_s = flow.invariant_subspace_path(fam, lam, "stable", grid)
    e_u = flow.invariant_subspace_path(fam, lam, "unstable", -grid[::-1])
    for got, want in ((V.sample(ts), e_s.sample(ts)),
                      (W.sample(ts), e_u.sample(-ts))):
        assert np.abs(_projectors(got) - _projectors(want)).max() < 1e-7


@pytest.mark.parametrize("run", [
    lambda: suites.suite_properties(trials=2, seed=0),
    lambda: suites.suite_orientability(trials=10, seed=0),
    lambda: suites.suite_finite_parity(trials=3, seed=0),
    lambda: suites.suite_maslov_mod2(trials=1, seed=1),
    lambda: decomposition_check(poschl_teller_family(),
                                np.linspace(0.0, 1.0, 21), samples=41),
    lambda: decomposition_check(orbit_draw(0), np.linspace(0.0, 1.0, 21),
                                samples=41),
    lambda: decomposition_check(orbit_draw(1), np.linspace(0.0, 1.0, 21),
                                samples=41),
    lambda: z2_index(make_pair(flipping, fixed_vertical, 0.0, 3.0, 7)),
], ids=["rotation-homotopy-block-sum", "orientability", "graph",
        "maslov-graphs", "poschl-teller", "orbit-draw-0", "orbit-draw-1",
        "flipping-orientation"])
def test_refine_pair_matches_the_scalar_reference(run, monkeypatch):
    # every pair a suite or a decomposition indexes, refined by the
    # stacked pipeline and by one frame, gap and alignment at a time
    pairs = []
    real = z2index._refine_pair

    def spy(pair, eps_trans):
        pairs.append((pair, eps_trans))
        return real(pair, eps_trans)

    monkeypatch.setattr(z2index, "_refine_pair", spy)
    run()
    monkeypatch.undo()
    refined = 0
    for pair, eps_trans in pairs:
        ts, dets, signs, depth = real(pair, eps_trans)
        ref = refine_pair(pair.grid, pair.V.frames, pair.W.frames,
                          scalar(pair.V.sampler), scalar(pair.W.sampler),
                          eps_trans)
        assert np.array_equal(ts, ref[0])
        assert signs.tolist() == ref[2] and depth == ref[3]
        assert np.max(np.abs(dets - ref[1])) <= 1e-12
        refined += len(ts) > len(pair.grid)
    assert pairs and refined


def _stepped_well(depth):
    """q = 1 - depth [lambda > 0.5371] sech^2 t: E^s(0) and E^u(0) jump
    where the well switches on."""
    def batched(lam, t):
        lam, t = np.broadcast_arrays(np.asarray(lam, float),
                                     np.asarray(t, float))
        S = np.zeros(lam.shape + (2, 2))
        S[..., 0, 1] = 1.0
        S[..., 1, 0] = 1.0 - depth * (lam > 0.5371) / np.cosh(t) ** 2
        return S
    return LinearFamily.from_callable(batched, n=2, k=1, batched=batched)


def _refused_interval(exc) -> tuple:
    return tuple(float(x) for x in re.findall(r"t=([-+0-9.e]+)", str(exc)))


def test_a_pair_refuses_a_jump_it_cannot_resolve():
    # the V path turns by 0.3 rad at t = 0.5, a jump of 0.296 in gap: too
    # small for path_from_sampler (0.4) and for chaining (0.5) to refuse,
    # so only the pair's own refinement, stopped at 20 halvings, sees it
    def stepped(ts):
        return line(np.where(ts > 0.5, 0.3, 0.0))

    with pytest.raises(GapTooLarge, match="0.2 or more") as info:
        z2_index(make_pair(stepped, fixed_vertical, 0.0, 1.0, 11))
    a, b = _refused_interval(info.value)
    assert a <= 0.5 < b and b - a < 1e-5


@pytest.mark.parametrize("depth", [1.0, 1.3])
def test_a_lambda_pair_refuses_a_jump_it_cannot_resolve(depth):
    # E^s(0) and E^u(0) jump by 0.27 (depth 1) and 0.38 (depth 1.3) in
    # gap at lambda = 0.5371; the index across the jump used to read 0
    pair = parity.boundary_pair_over_lambda(_stepped_well(depth),
                                            np.linspace(0.0, 1.0, 11))
    with pytest.raises(GapTooLarge, match="0.2 or more") as info:
        z2_index(pair)
    a, b = _refused_interval(info.value)
    assert a <= 0.5371 < b and b - a < 1e-5
