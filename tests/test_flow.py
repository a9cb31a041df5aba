"""Linear families: transport, asymptotics, subspace paths, hypotheses."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from hetindex import (
    DomainError,
    Frame,
    GapTooLarge,
    InvalidInput,
    LinearFamily,
    NotHyperbolic,
    NotStabilized,
    SubspacePath,
    asymptotic_limits,
    check_A1_A3,
    fundamental_solution,
    gap_distance,
    invariant_subspace_path,
    orthonormalize,
    parse_matrix,
    path_from_sampler,
    subspace_at,
    subspaces_over_lambda,
)
from hetindex import flow
from hetindex.cli import DEMOS
from hetindex.expr import eval_matrix
from hetindex.suites import poschl_teller_family


def tanh_family():
    return LinearFamily.from_matrix_expr(
        parse_matrix([["-tanh(t)", "0"], ["0", "tanh(t)"]]), k=1)


def test_from_matrix_expr_shapes():
    fam = poschl_teller_family()
    assert fam.n == 2 and fam.k == 1
    S = fam.evaluate(0.8, 0.0)
    assert np.allclose(S, [[0.0, 1.0], [1.0 - 2.0, 0.0]])


def test_evaluate_many_broadcasts():
    fam = poschl_teller_family()
    lams = np.array([0.0, 0.5, 1.0])
    ts = np.linspace(-1, 1, 7)
    out = fam.evaluate_many(lams[:, None], ts[None, :])
    assert out.shape == (3, 7, 2, 2)
    assert np.allclose(out[1, 3], fam.evaluate(0.5, ts[3]))


def test_evaluators_equal_strict_interpreter():
    # the compiled evaluator must reproduce the strict reference exactly,
    # one point at a time and broadcast, on every demo family
    rng = np.random.default_rng(7)
    lams = rng.uniform(-0.5, 1.5, 1000)
    ts = rng.uniform(-40.0, 40.0, 1000)
    demos = [d["config"] for d in DEMOS.values()
             if d["config"]["kind"] == "linear-family"]
    assert len(demos) == 3
    for cfg in demos:
        m = parse_matrix(cfg["S"])
        fam = LinearFamily.from_matrix_expr(m, k=cfg["k"])
        strict = np.array([eval_matrix(m, {"lambda": lam, "t": t})
                           for lam, t in zip(lams, ts)])
        scalar = np.array([fam.evaluate(lam, t) for lam, t in zip(lams, ts)])
        assert np.array_equal(scalar, strict)
        assert np.array_equal(fam.evaluate_many(lams, ts), strict)


def sqrt_family():
    # real only for lambda >= 2, outside every sweep below
    return LinearFamily.from_matrix_expr(
        parse_matrix([["-1", "0"], ["0", "1 + sqrt(lambda - 2)"]]), k=1)


def test_domain_error_raised_by_batched_evaluation():
    fam = sqrt_family()
    with pytest.raises(DomainError) as strict:
        eval_matrix(fam.matrix, {"lambda": 0.0, "t": -1.0})
    with pytest.raises(DomainError) as batched:
        fam.evaluate_many(np.linspace(0.0, 1.0, 5)[:, None],
                          np.linspace(-1.0, 1.0, 3)[None, :])
    assert str(batched.value) == str(strict.value)
    with pytest.raises(DomainError):
        subspace_at(fam, 0.5, "stable", 0.0)


def test_overflow_passes_through_evaluation():
    # exp overflows to inf without a domain error: no exception, as the
    # strict interpreter would also return inf
    fam = LinearFamily.from_matrix_expr(
        parse_matrix([["exp(t^2)", "0"], ["0", "1"]]), k=1)
    assert np.isinf(fam.evaluate(0.0, 40.0)[0, 0])
    assert np.isinf(fam.evaluate_many([0.0, 1.0], 40.0)[:, 0, 0]).all()


def test_from_callable_matches_expr():
    fam = poschl_teller_family()

    def f(lam, t):
        q = 1.0 - 2.5 * lam / np.cosh(t) ** 2
        return np.array([[0.0, 1.0], [q, 0.0]])

    fam2 = LinearFamily.from_callable(f, n=2, k=1)
    for lam, t in ((0.0, 0.0), (0.8, 1.3), (1.0, -2.0)):
        assert np.allclose(fam.evaluate(lam, t), fam2.evaluate(lam, t))


def test_fundamental_solution_constant_family():
    S = np.array([[-1.0, 0.0], [0.0, 1.0]])
    fam = LinearFamily.from_callable(lambda lam, t: S, n=2, k=1, t_max=6.0)
    # gamma(tau) = I and gamma(t) = expm(S (t - tau)) for constant S
    G = fundamental_solution(fam, 0.0, tau=1.0, t=1.0)
    assert np.allclose(G, np.eye(2), atol=1e-9)
    G = fundamental_solution(fam, 0.0, tau=-2.0, t=3.0)
    assert np.allclose(G, expm(5.0 * S), atol=1e-6 * np.exp(5.0))


def test_fundamental_solution_cocycle():
    fam = poschl_teller_family()
    a, b, c = -4.0, 0.5, 3.0
    lam = 0.7
    g_ab = fundamental_solution(fam, lam, tau=a, t=b)
    g_bc = fundamental_solution(fam, lam, tau=b, t=c)
    g_ac = fundamental_solution(fam, lam, tau=a, t=c)
    assert np.max(np.abs(g_bc @ g_ab - g_ac)) < 1e-6


def test_fundamental_solution_rejects_out_of_range():
    fam = poschl_teller_family()
    with pytest.raises(InvalidInput):
        fundamental_solution(fam, 0.0, tau=0.0, t=fam.t_max + 1.0)


def test_family_rejects_nan_horizon():
    with pytest.raises(InvalidInput):
        LinearFamily(n=2, k=1, t_max=float("nan"))


def test_asymptotic_limits_tanh():
    lim = asymptotic_limits(tanh_family(), 0.0)
    assert np.allclose(lim.s_minus, np.diag([1.0, -1.0]), atol=1e-8)
    assert np.allclose(lim.s_plus, np.diag([-1.0, 1.0]), atol=1e-8)
    assert lim.split_plus.v_minus.k == 1
    assert lim.split_minus.v_plus.k == 1


def test_asymptotic_limits_rejects_drifting_family():
    fam = LinearFamily.from_matrix_expr(
        parse_matrix([["sin(t) - 2", "0"], ["0", "1"]]), k=1)
    with pytest.raises(NotStabilized):
        asymptotic_limits(fam, 0.0)


def test_subspace_at_diagonal_family():
    # decoupled system: the stable direction is e1 at every t
    fam = tanh_family()
    for t in (-2.0, 0.0, 1.5):
        F = subspace_at(fam, 0.0, "stable", t)
        v = F.columns.ravel()
        assert abs(abs(v[0]) - 1.0) < 1e-8 and abs(v[1]) < 1e-8


def test_unstable_subspace_against_quadrature():
    # x' = -x + sech(t) y, y' = y.  Solutions bounded backward satisfy
    # x0 = c y0 with c the integral of exp(2s) sech(s) over (-inf, 0],
    # so E^u(0) = span (c, 1).
    fam = LinearFamily.from_matrix_expr(
        parse_matrix([["-1", "sech(t)"], ["0", "1"]]), k=1)
    # exp(2s) sech(s) written to avoid cosh overflow as s -> -inf
    c, _ = quad(lambda s: 2.0 * np.exp(3.0 * s) / (1.0 + np.exp(2.0 * s)),
                -np.inf, 0.0)
    expect = orthonormalize(np.array([[c], [1.0]]))
    F = subspace_at(fam, 0.0, "unstable", 0.0)
    assert gap_distance(F, expect) < 1e-6


def test_invariant_subspace_path_chains():
    fam = poschl_teller_family()
    grid = np.linspace(-6.0, 6.0, 25)
    path = invariant_subspace_path(fam, 0.8, "stable", grid)
    for i in range(len(path.frames) - 1):
        assert gap_distance(path.frames[i], path.frames[i + 1]) <= 0.4
    # grid refinement must preserve the requested endpoints
    assert path.grid[0] == grid[0] and path.grid[-1] == grid[-1]
    F = subspace_at(fam, 0.8, "stable", float(grid[-1]))
    assert gap_distance(path.frames[-1], F) < 1e-6


@pytest.mark.parametrize("lam", [0.3, 0.8, 1.0])
@pytest.mark.parametrize("which,outside", [("stable", -9.0),
                                           ("unstable", 9.0)])
def test_invariant_path_sampler_against_fresh_transport(lam, which, outside):
    # the sampler reads the path's own dense output inside the
    # transported span and transports afresh only outside it
    fam = poschl_teller_family()
    grid = np.linspace(-6.0, 6.0, 25)
    path = invariant_subspace_path(fam, lam, which, grid)
    for t, F in zip(path.grid, path.frames):
        assert np.array_equal(F.columns, path.sampler(t).columns)
    rng = np.random.default_rng(7)
    for t in rng.uniform(grid[0], grid[-1], 15):
        fresh = subspace_at(fam, lam, which, float(t))
        assert gap_distance(path.sampler(float(t)), fresh) < 1e-6
    assert np.array_equal(path.sampler(outside).columns,
                          subspace_at(fam, lam, which, outside).columns)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_path_builders_refuse_non_finite_grid(bad, monkeypatch):
    # the grid is checked before anything is sampled or transported
    calls = []
    frame = orthonormalize(np.array([[1.0], [0.0]]))

    def counting(t):
        calls.append(t)
        return frame

    transports = []
    real = flow._transport_batched

    def counting_transport(*args, **kwargs):
        transports.append(args[3:5])
        return real(*args, **kwargs)

    monkeypatch.setattr(flow, "_transport_batched", counting_transport)
    with pytest.raises(InvalidInput):
        path_from_sampler(counting, [0.0, bad])
    with pytest.raises(InvalidInput):
        invariant_subspace_path(poschl_teller_family(), 0.5, "stable",
                                [0.0, bad])
    with pytest.raises(InvalidInput):
        SubspacePath(np.array([0.0, bad]), (frame, frame), counting)
    assert calls == [] and transports == []


def test_subspaces_over_lambda_continuity():
    fam = poschl_teller_family()
    lams = np.linspace(0.0, 1.0, 11)
    frames = subspaces_over_lambda(fam, lams, "unstable", 0.0)
    assert len(frames) == 11
    for a, b in zip(frames, frames[1:]):
        assert gap_distance(a, b) < 0.3


def test_transport_leaves_no_cycle_holding_the_family():
    # with the cyclic collector off, a family must be freed by reference
    # counting alone once its caller drops it after a transport
    enabled = gc.isenabled()
    gc.disable()
    try:
        fam = poschl_teller_family()
        F = subspace_at(fam, 0.8, "unstable", 0.0)
        assert F.k == 1 and fam._limits
        ref = weakref.ref(fam)
        del fam
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("lam,which,t", [
    (0.3, "stable", 0.0), (0.8, "unstable", -15.0), (1.0, "stable", 15.0)])
def test_subspace_at_is_the_one_lambda_sweep(lam, which, t):
    fam = poschl_teller_family()
    F = subspace_at(fam, lam, which, t)
    G, = subspaces_over_lambda(fam, [lam], which, t)
    assert np.array_equal(F.columns, G.columns)


def test_path_from_sampler_refines_coarse_grid():
    def line(t):
        return orthonormalize(np.array([[np.cos(t)], [np.sin(t)]]))

    path = path_from_sampler(line, np.linspace(0.0, np.pi, 5))
    assert len(path.grid) > 5
    for i in range(len(path.frames) - 1):
        assert gap_distance(path.frames[i], path.frames[i + 1]) <= 0.4


def test_path_from_sampler_keeps_raw_samples():
    # the sampler's orientation flips at t = 0.5; the path keeps each
    # sample as it came, orientation is chosen where signs are read
    def flipping(t):
        sign = 1.0 if t < 0.5 else -1.0
        return Frame(sign * np.array([[np.cos(t)], [np.sin(t)]]))

    path = path_from_sampler(flipping, np.linspace(0.0, 1.0, 11))
    for t, F in zip(path.grid, path.frames):
        assert np.array_equal(F.columns, flipping(t).columns)


def test_subspace_path_requires_a_sampler():
    grid = np.linspace(0.0, 1.0, 3)
    frames = tuple(orthonormalize(np.array([[1.0], [t]])) for t in grid)
    with pytest.raises(TypeError):
        SubspacePath(grid, frames)
    with pytest.raises(InvalidInput):
        SubspacePath(grid, frames, None)


def test_path_from_sampler_rejects_jump():
    # the subspace jumps at t = 0.5: halving never closes the gap, so the
    # depth cap must end the refinement and the capped interval be refused
    def jump(t):
        return orthonormalize(np.array([[1.0], [np.arctan(1e20 * (t - 0.5))]]))

    with pytest.raises(GapTooLarge):
        path_from_sampler(jump, np.linspace(0.0, 1.0, 11))


def test_check_hypotheses_poschl_teller():
    rep = check_A1_A3(poschl_teller_family(), samples=21)
    assert rep.ok
    assert rep.violations == ()
    assert rep.min_gap > 0.0


def test_check_hypotheses_flags_nonhyperbolic_lambda():
    # limit matrix diag(lambda - 0.5, 1) loses hyperbolicity at 0.5
    fam = LinearFamily.from_matrix_expr(
        parse_matrix([["lambda - 0.5", "0"], ["0", "1"]]), k=1)
    rep = check_A1_A3(fam, samples=21)
    assert not rep.ok
    lams = [v[0] for v in rep.violations]
    assert any(abs(l - 0.5) < 1e-12 for l in lams)


def test_asymptotic_limits_memo_returns_the_first_result():
    calls = []

    def S(lam, t):
        calls.append((lam, t))
        return np.diag([-np.tanh(t), np.tanh(t) + lam])

    fam = LinearFamily.from_callable(S, n=2, k=1)
    first = asymptotic_limits(fam, 0.25)
    evaluations = len(calls)
    assert evaluations > 0
    assert asymptotic_limits(fam, np.float64(0.25)) is first
    assert len(calls) == evaluations
    assert asymptotic_limits(fam, 0.5) is not first
    # another delta is another split
    assert asymptotic_limits(fam, 0.25, delta=1e-6) is not first


def test_asymptotic_limits_memo_keeps_no_failure():
    drifting = LinearFamily.from_matrix_expr(
        parse_matrix([["sin(t) - 2", "0"], ["0", "1"]]), k=1)
    centre = LinearFamily.from_matrix_expr(
        parse_matrix([["lambda - 0.5", "0"], ["0", "1"]]), k=1)
    for _ in range(2):
        with pytest.raises(NotStabilized):
            asymptotic_limits(drifting, 0.0)
        with pytest.raises(NotHyperbolic):
            asymptotic_limits(centre, 0.5)
    assert asymptotic_limits(centre, 0.0).split_minus.v_plus.k == 1


def test_asymptotic_limits_memo_is_per_family():
    fam = tanh_family()
    first = asymptotic_limits(fam, 0.0)
    longer = dataclasses.replace(fam, t_max=40.0)
    again = asymptotic_limits(longer, 0.0)
    assert again is not first
    assert again.horizon == 40.0 and first.horizon == 20.0
    assert asymptotic_limits(fam, 0.0) is first


def test_asymptotic_limits_are_read_only():
    owned = np.diag([1.0, -1.0])
    fam = LinearFamily.from_callable(lambda lam, t: owned, n=2, k=1)
    lim = asymptotic_limits(fam, 0.0)
    for a in (lim.s_minus, lim.s_plus, lim.split_minus.v_plus.columns,
              lim.split_plus.v_minus.columns):
        with pytest.raises(ValueError):
            a[0, 0] = 7.0
    # the evaluator's own array stays the caller's to write
    owned[0, 0] = 2.0
