"""Linear families: transport, asymptotics, subspace paths, hypotheses."""

import dataclasses
import gc
import warnings
import weakref

import numpy as np
import pytest
from scipy.integrate import DOP853, OdeSolution, quad
from scipy.linalg import expm

from hetindex import (
    DimensionMismatch,
    DomainError,
    Frame,
    GapTooLarge,
    IntegrationFailure,
    InvalidInput,
    LinearFamily,
    NonlinearFamily,
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
from hetindex import flow, maslov, parity, suites
from hetindex.cli import DEMOS
from hetindex.expr import eval_matrix
from hetindex.suites import poschl_teller_family
from scalar_reference import orbit_draw, scalar
from scalar_reference import path_from_sampler as scalar_path_from_sampler


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


@pytest.mark.parametrize("src", [
    "1 - lambda*sech(t)^3",
    "1 - lambda*sech(t)^1.5",
    "1 - lambda*cosh(t)^(-2.0)",
    "(1 + lambda^2)^0.5*sech(t)^2",
])
def test_three_evaluation_routes_are_bitwise_equal(src):
    # evaluate_many, evaluate one point at a time and the strict
    # eval_matrix all round "^" as np.power; a scalar "**" would take
    # the C library's pow and differ in the last bit at some points
    rng = np.random.default_rng(11)
    lams = rng.uniform(-2.0, 2.0, 100_000)
    ts = rng.uniform(-8.0, 8.0, 100_000)
    m = parse_matrix([["0", "1"], [src, "0"]])
    fam = LinearFamily.from_matrix_expr(m, k=1)
    many = fam.evaluate_many(lams, ts)
    one = np.array([fam.evaluate(lam, t) for lam, t in zip(lams, ts)])
    strict = np.array([eval_matrix(m, {"lambda": lam, "t": t})
                       for lam, t in zip(lams, ts)])
    assert np.array_equal(many, one)
    assert np.array_equal(many, strict)


def test_nonlinear_evaluation_is_pointwise_bitwise():
    cfg = DEMOS["cubic-schrodinger"]["config"]
    fam = NonlinearFamily.from_sources(cfg["g"], cfg["z_minus"],
                                       cfg["z_plus"])
    rng = np.random.default_rng(12)
    lams = rng.uniform(0.0, 1.0, 100_000)
    ts = rng.uniform(-8.0, 8.0, 100_000)
    zs = rng.uniform(-2.0, 2.0, (100_000, 2))
    one = np.array([fam.evaluate(lam, t, z)
                    for lam, t, z in zip(lams, ts, zs)])
    assert np.array_equal(fam.evaluate(lams, ts, zs), one)


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


def test_family_requires_an_evaluator():
    with pytest.raises(InvalidInput, match="from_matrix_expr or from_callable"):
        LinearFamily(2, 1)


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
    # transported span and refuses an instant outside it
    fam = poschl_teller_family()
    grid = np.linspace(-6.0, 6.0, 25)
    path = invariant_subspace_path(fam, lam, which, grid)
    for t, F in zip(path.grid, path.frames):
        assert np.array_equal(F.columns, path.sampler(np.array([t]))[0])
    rng = np.random.default_rng(7)
    ts = rng.uniform(grid[0], grid[-1], 15)
    for t, F in zip(ts, path.sample(ts)):
        fresh = subspace_at(fam, lam, which, float(t))
        assert gap_distance(Frame(F), fresh) < 1e-6
    with pytest.raises(InvalidInput, match=f"t={outside!r} lies outside"):
        path.sample(np.array([0.0, outside]))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_path_builders_refuse_non_finite_grid(bad, monkeypatch):
    # the grid is checked before anything is sampled or transported
    calls = []
    frame = np.array([[1.0], [0.0]])

    def counting(ts):
        calls.append(ts)
        return np.broadcast_to(frame, (len(ts), 2, 1))

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
        SubspacePath(np.array([0.0, bad]), np.stack([frame, frame]), counting)
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
        assert F.k == 1 and fam._splits
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


def lines(theta):
    """The lines at the angles ``theta``, an (m, 2, 1) stack of frames."""
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)[..., None]


def test_path_from_sampler_refines_coarse_grid():
    path = path_from_sampler(lines, np.linspace(0.0, np.pi, 5))
    assert len(path.grid) > 5
    for i in range(len(path.frames) - 1):
        assert gap_distance(path.frames[i], path.frames[i + 1]) <= 0.4


def test_path_from_sampler_keeps_raw_samples():
    # the sampler's orientation flips at t = 0.5; the path keeps each
    # sample as it came, orientation is chosen where signs are read
    def flipping(ts):
        return np.where(ts < 0.5, 1.0, -1.0)[:, None, None] * lines(ts)

    path = path_from_sampler(flipping, np.linspace(0.0, 1.0, 11))
    assert np.array_equal(path.stack, flipping(path.grid))


def test_subspace_path_requires_a_sampler():
    grid = np.linspace(0.0, 1.0, 3)
    stack = lines(grid)
    with pytest.raises(TypeError):
        SubspacePath(grid, stack)
    with pytest.raises(InvalidInput):
        SubspacePath(grid, stack, None)


def test_path_from_sampler_rejects_jump():
    # the subspace jumps at t = 0.5: halving never closes the gap, so the
    # depth cap must end the refinement and the capped interval be refused
    def jump(ts):
        return lines(np.arctan2(np.arctan(1e20 * (ts - 0.5)), 1.0))

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


def test_asymptotic_limits_failures_raise_on_every_call():
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


@pytest.mark.parametrize("value", [1.0, np.eye(3)], ids=["scalar", "3x3"])
def test_asymptotic_limits_refuse_a_misshapen_evaluator(value):
    fam = LinearFamily.from_callable(lambda lam, t: value, n=2, k=1)
    with pytest.raises(DimensionMismatch, match="evaluator returned"):
        asymptotic_limits(fam, 0.0)
    assert fam._splits == {}


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


# -- limits over lambda in one call ------------------------------------

def _loop_limits(fam, lam):
    """The per-lambda loop that ``_limits_over_lambda`` replaces: four
    scalar evaluations per horizon and one split per limit matrix."""
    key = float(lam)
    if not np.isfinite(key):
        raise InvalidInput(f"lambda must be finite, got {lam!r}")
    T = fam.t_max
    for _ in range(flow._ESCALATION_CAP):
        s_minus = fam.evaluate(lam, -T)
        s_plus = fam.evaluate(lam, T)
        drift = max(
            np.linalg.norm(s_minus - fam.evaluate(lam, -T / 2), 2),
            np.linalg.norm(s_plus - fam.evaluate(lam, T / 2), 2),
        )
        if drift <= flow._STAB_TOL:
            return flow.AsymptoticLimits(
                s_minus=np.array(s_minus), s_plus=np.array(s_plus),
                split_minus=flow.spectral_split(s_minus),
                split_plus=flow.spectral_split(s_plus), horizon=T)
        T *= 2.0
    raise NotStabilized(
        f"family still drifting {drift:.2e} at t = +-{T / 2:.0f} (lambda={lam})"
    )


def _assert_same_limits(got, want):
    assert got.horizon == want.horizon
    for a, b in ((got.s_minus, want.s_minus), (got.s_plus, want.s_plus)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    for a, b in ((got.split_minus, want.split_minus),
                 (got.split_plus, want.split_plus)):
        assert a.gap == b.gap
        for f, g in ((a.v_plus, b.v_plus), (a.v_minus, b.v_minus)):
            assert f.columns.tobytes() == g.columns.tobytes()


def _cubic_linearization():
    from hetindex import Branch, NonlinearFamily, linearize_along
    from hetindex.cli import resolve_config

    cfg = resolve_config(DEMOS["cubic-schrodinger"]["config"])
    nf = NonlinearFamily.from_sources(cfg["g"], cfg["z_minus"],
                                      cfg["z_plus"], t_max=cfg["t_max"],
                                      lam_range=tuple(cfg["lam_range"]))
    return linearize_along(nf, Branch.from_sources(cfg["branch"]))


def _slow_decay_family():
    # the sech(lambda t) entry settles later the smaller lambda is, so
    # the horizons over the grid run from 20 up to 1280
    return LinearFamily.from_matrix_expr(
        parse_matrix([["-tanh(t)", "sech(lambda*t)"], ["0", "tanh(t)"]]), k=1)


@pytest.mark.parametrize("make,lams", [
    (poschl_teller_family, np.linspace(0.0, 1.0, 201)),
    (_cubic_linearization, np.linspace(0.0, 1.0, 201)),
    (lambda: orbit_draw(0), np.linspace(0.0, 1.0, 101)),
    (lambda: orbit_draw(1), np.linspace(0.0, 1.0, 101)),
    (_slow_decay_family, np.linspace(0.0, 1.0, 41)),
], ids=["poschl-teller", "cubic", "orbit-draw-0", "orbit-draw-1",
        "slow-decay"])
def test_limits_over_lambda_equal_the_per_lambda_loop(make, lams):
    got = flow._limits_over_lambda(make(), lams)
    fam = make()
    for lam, limits in zip(lams, got):
        _assert_same_limits(limits, _loop_limits(fam, lam))
        assert not limits.s_minus.flags.writeable
        assert not limits.s_plus.flags.writeable


def test_limits_over_lambda_escalate_only_the_drifting_lambdas():
    lams = np.linspace(0.0, 1.0, 41)
    horizons = [L.horizon for L in flow._limits_over_lambda(
        _slow_decay_family(), lams)]
    assert horizons == [_loop_limits(_slow_decay_family(), lam).horizon
                        for lam in lams]
    assert horizons[0] == 20.0 and max(horizons) > 2 * min(horizons[1:])
    assert len(set(horizons)) >= 4


def test_repeated_sweeps_give_equal_limits_and_share_splits(monkeypatch):
    calls = []
    real = flow.spectral_split
    monkeypatch.setattr(flow, "spectral_split",
                        lambda S: calls.append(1) or real(S))
    fam = _slow_decay_family()
    lams = np.linspace(0.0, 1.0, 41)
    first = flow._limits_over_lambda(fam, lams)
    splits = len(calls)
    second = flow._limits_over_lambda(fam, lams)
    assert len(calls) == splits
    for a, b in zip(first, second):
        _assert_same_limits(a, b)
        assert a.split_minus is b.split_minus
        assert a.split_plus is b.split_plus
    # a family made by replace reads its limits at its own horizon
    longer = dataclasses.replace(fam, t_max=40.0)
    assert asymptotic_limits(longer, 0.0).horizon == 40.0
    assert asymptotic_limits(fam, 0.0).horizon == 20.0


def _mixed_failures_family():
    # lambda = 0.5 settles onto a non-hyperbolic limit; every other
    # lambda but 0 keeps drifting
    return LinearFamily.from_matrix_expr(parse_matrix(
        [["lambda - 0.5", "0"],
         ["0", "1 + lambda*(lambda - 0.5)*sin(t)"]]), k=1)


@pytest.mark.parametrize("lams", [
    [0.0, 0.5, 0.8], [0.0, 0.8, 0.5], [0.8, 0.0, 0.5], [0.0, np.nan, 0.5],
    [0.5, 0.0, np.inf]])
def test_limits_over_lambda_raise_the_loop_s_first_failure(lams):
    lams = np.asarray(lams)
    with pytest.raises(Exception) as want:
        for lam in lams:
            _loop_limits(_mixed_failures_family(), lam)
    fam = _mixed_failures_family()
    for call in (
            lambda: [flow._unwrap(x)
                     for x in flow._limits_over_lambda(fam, lams)],
            lambda: subspaces_over_lambda(fam, lams, "stable", 0.0)):
        with pytest.raises(Exception) as got:
            call()
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
    # only the split of lambda = 0, the one hyperbolic limit, is kept
    assert len(fam._splits) == 1


def test_check_hypotheses_reports_each_failing_lambda_as_the_loop_does():
    fam = _mixed_failures_family()
    rep = check_A1_A3(fam, samples=5)
    want = []
    for lam in np.linspace(0.0, 1.0, 5):
        try:
            _loop_limits(fam, lam)
        except (NotStabilized, NotHyperbolic) as exc:
            want.append((lam, "A1", str(exc)))
    assert rep.violations == tuple(want)
    assert [v[0] for v in rep.violations] == [0.25, 0.5, 0.75, 1.0]


@pytest.mark.parametrize("samples", [0, -3, 2.0, True, None])
def test_check_hypotheses_refuses_a_vacuous_sample_count(samples):
    calls = []

    def S(lam, t):
        calls.append((lam, t))
        return np.diag([-np.tanh(t), np.tanh(t)])

    fam = LinearFamily.from_callable(S, n=2, k=1)
    with pytest.raises(InvalidInput, match="samples"):
        check_A1_A3(fam, samples=samples)
    assert calls == [] and fam._splits == {}
    assert check_A1_A3(fam, samples=1).lambdas_checked == 1


def test_one_split_per_distinct_limit_matrix(monkeypatch):
    splits = []
    real = flow.spectral_split

    def counting(S):
        splits.append(np.array(S))
        return real(S)

    monkeypatch.setattr(flow, "spectral_split", counting)
    fam = poschl_teller_family()
    limits = flow._limits_over_lambda(fam, np.linspace(0.0, 1.0, 201))
    # S^- and S^+ are bitwise [[0, 1], [1, 0]] at every lambda
    assert len(splits) == 1
    assert {id(L.split_minus) for L in limits} == {id(L.split_plus)
                                                   for L in limits}
    # past lambda = 1.3 the (2, 1) entry rounds to 1 - 2^-53 instead
    check_A1_A3(fam, samples=201, lam_range=(0.0, 2.0))
    wide = flow._limits_over_lambda(fam, np.linspace(0.0, 2.0, 201))
    distinct = {L.s_minus.tobytes() for L in wide}
    distinct |= {L.s_plus.tobytes() for L in wide}
    assert len(splits) == len(distinct) == len(fam._splits) == 2
    # a family made by replace starts with no splits
    other = dataclasses.replace(fam)
    assert other._splits == {}
    flow._limits_over_lambda(other, [0.3])
    assert len(splits) == 3


def test_lambda_dependent_limits_get_their_own_splits(monkeypatch):
    splits = []
    real = flow.spectral_split
    monkeypatch.setattr(flow, "spectral_split",
                        lambda S: splits.append(1) or real(S))
    # S^- = diag(1 + lambda, -1), S^+ = [[-1, lambda], [lambda, 2]]
    fam = LinearFamily.from_matrix_expr(parse_matrix(
        [["tanh(-t) + lambda*(1 - tanh(t))/2", "lambda*(1 + tanh(t))/2"],
         ["lambda*(1 + tanh(t))/2", "(1 + 3*tanh(t))/2"]]), k=1)
    lams = np.linspace(0.0, 1.0, 11)
    got = flow._limits_over_lambda(fam, lams)
    assert len(splits) == 2 * len(lams)
    for lam, limits in zip(lams, got):
        _assert_same_limits(limits, _loop_limits(fam, lam))
        for S, split in ((limits.s_minus, limits.split_minus),
                         (limits.s_plus, limits.split_plus)):
            for V, sign in ((split.v_plus, 1.0), (split.v_minus, -1.0)):
                X = V.columns
                # invariant, with the eigenvalues of the right sign
                R = X.T @ S @ X
                assert np.allclose(S @ X, X @ R, atol=1e-12)
                assert np.all(sign * np.linalg.eigvals(R).real > 0)


# -- the stacked path builder against the frame-at-a-time reference ----

def _invariant_paths(fam, lam, grid):
    for which in ("stable", "unstable"):
        invariant_subspace_path(fam, lam, which, grid)


@pytest.mark.parametrize("run", [
    lambda: suites.suite_properties(trials=2, seed=0),
    lambda: suites.suite_finite_parity(trials=3, seed=0),
    lambda: suites.suite_maslov_mod2(trials=1, seed=1),
    lambda: _invariant_paths(poschl_teller_family(), 1.0,
                             np.linspace(-6.0, 6.0, 7)),
    lambda: _invariant_paths(orbit_draw(0), 0.5, np.linspace(0.0, 20.0, 6)),
    lambda: _invariant_paths(orbit_draw(1), 0.5, np.linspace(0.0, 20.0, 6)),
], ids=["rotation-homotopy-block-sum", "graph", "maslov-graphs",
        "poschl-teller-t", "orbit-draw-0-t", "orbit-draw-1-t"])
def test_path_from_sampler_matches_the_scalar_reference(run, monkeypatch):
    # every path a suite or an invariant path builds, rebuilt by the
    # stacked builder and by one sampler call, gap and frame at a time
    calls = []
    real = flow.path_from_sampler

    def spy(sampler, grid):
        calls.append((sampler, np.asarray(grid, dtype=float)))
        return real(sampler, grid)

    for module in (flow, suites, parity, maslov):
        monkeypatch.setattr(module, "path_from_sampler", spy)
    run()
    monkeypatch.undo()
    refined = 0
    for sampler, grid in calls:
        # and on three points of its span, which refinement must fill in
        for ts in (grid, np.linspace(grid[0], grid[-1], 3)):
            path = real(sampler, ts)
            ref_grid, ref_frames = scalar_path_from_sampler(scalar(sampler),
                                                            ts)
            assert np.array_equal(path.grid, ref_grid)
            ref = np.array([f.columns for f in ref_frames])
            assert np.abs(path.stack - ref).max(initial=0.0) <= 1e-14
            refined += len(path.grid) > len(ts)
    assert calls and refined


def _contract_breaker(defect):
    """A sampler of lines whose third call-order sample is broken."""
    calls = []

    def sampler(ts):
        calls.append(ts)
        Y = lines(ts)
        return defect(Y) if len(calls) == 1 else Y

    return sampler, calls


def _bad_at_third(value):
    def defect(Y):
        Y = Y.copy()
        Y[2, 1, 0] = value
        return Y
    return defect


@pytest.mark.parametrize("defect, error, match", [
    (lambda Y: Y[:-1], DimensionMismatch, "shape"),
    (lambda Y: Y[..., 0], DimensionMismatch, "shape"),
    (lambda Y: np.concatenate([Y] * 3, axis=2), DimensionMismatch, "shape"),
    (_bad_at_third(np.nan), InvalidInput, r"t=0\.5 has non-finite"),
    (_bad_at_third(np.inf), InvalidInput, r"t=0\.5 has non-finite"),
    (_bad_at_third(np.sin(0.5) + 2e-10), InvalidInput,
     r"t=0\.5: columns not orthonormal"),
], ids=["short", "2-d", "k>n", "nan", "inf", "orthonormality"])
def test_path_from_sampler_refuses_a_broken_stack(defect, error, match):
    # the grid's stack is checked before any refinement: one call only
    sampler, calls = _contract_breaker(defect)
    with pytest.raises(error, match=match):
        path_from_sampler(sampler, np.linspace(0.0, 1.0, 5))
    assert len(calls) == 1


@pytest.mark.parametrize("sampler", [
    lambda ts: [Frame(np.array([[1.0], [0.0]]))] * len(ts),
    lambda ts: lines(ts).astype(str),
    lambda ts: lines(ts).astype(complex),
    lambda ts: [[[1.0], [0.0]], [[1.0]]],
], ids=["frames", "strings", "complex", "ragged"])
def test_path_from_sampler_refuses_a_return_that_is_no_real_stack(sampler):
    # refused before any cast: no TypeError, ValueError or ComplexWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match=r"from t=0\.0; a sampler maps "
                           r"ts to a \(len\(ts\), n, k\) real stack$"):
            path_from_sampler(sampler, np.linspace(0.0, 1.0, 5))


def test_orthonormality_test_is_the_frame_test():
    # a defect within 1e-10 passes, as Frame lets it pass
    grid = np.linspace(0.0, 1.0, 5)
    Y = lines(grid)
    Y[2, 1, 0] += 4e-11
    Frame(Y[2])
    path = path_from_sampler(lambda ts: Y if len(ts) == 5 else lines(ts),
                             grid)
    assert np.array_equal(path.stack, Y)


def test_midpoint_stacks_are_checked_too():
    # a round's midpoints face the same checks as the grid
    def sampler(ts):
        Y = lines(4.0 * ts)
        if len(ts) < 5:
            Y[-1, 0, 0] = np.nan
        return Y

    with pytest.raises(InvalidInput, match="non-finite"):
        path_from_sampler(sampler, np.linspace(0.0, 1.0, 5))


def test_subspace_path_checks_its_stack():
    grid = np.linspace(0.0, 1.0, 3)
    Y = lines(grid)
    Y[1, 0, 0] = 2.0
    with pytest.raises(InvalidInput, match="orthonormal"):
        SubspacePath(grid, Y, lines)
    with pytest.raises(DimensionMismatch):
        SubspacePath(grid, lines(grid)[:2], lines)
    path = SubspacePath(grid, lines(grid), lines)
    assert not path.stack.flags.writeable
    assert all(not f.columns.flags.writeable for f in path.frames)
    assert path.frames is path.frames


# -- the Dormand-Prince loop against scipy's DOP853 --------------------

def test_tableau_is_scipys_dop853():
    # every written-out constant, shape, dtype and bits
    for mine, scipys in ((flow._C, DOP853.C), (flow._A, DOP853.A),
                         (flow._B, DOP853.B), (flow._E3, DOP853.E3),
                         (flow._E5, DOP853.E5), (flow._D, DOP853.D),
                         (flow._A_EXTRA, DOP853.A_EXTRA),
                         (flow._C_EXTRA, DOP853.C_EXTRA)):
        assert mine.dtype == scipys.dtype and mine.shape == scipys.shape
        assert mine.tobytes() == np.ascontiguousarray(scipys).tobytes()
    assert (flow._SAFETY, flow._MIN_FACTOR, flow._MAX_FACTOR) == (0.9, 0.2, 10)
    assert flow._ERROR_EXPONENT == -1 / (DOP853.error_estimator_order + 1)


def _scipy_dopri(fam, lams, Y0, t0, t1, rtol, atol, dense=False,
                 first_step=None, mirrored=None):
    """The oracle for ``flow._dopri``: scipy's ``DOP853`` solver, started
    at ``first_step`` when given and stepped by hand to t1, S evaluated
    once per right-hand side; with the list of its steps' interpolants
    (empty unless ``dense``; ``_merged`` joins them), and the step size
    it proposes at the end.  With ``mirrored`` = (Z0, c) the system is the
    two-block one, Y' = S(lambda, t) Y beside Z' = -S(lambda, c - t) Z,
    on the flat state (Y, Z)."""
    m, n, _ = Y0.shape
    lam_arg = lams[0] if m == 1 else lams

    def block(s, y):
        S = fam.evaluate_many(lam_arg, s)
        return np.einsum("...ij,...jk->...ik", S, y.reshape(m, n, -1)).ravel()

    if mirrored is None:
        rhs, y0 = block, Y0.ravel()
    else:
        Z0, c = mirrored

        def rhs(s, y):
            return np.concatenate([block(s, y[:Y0.size]),
                                   -block(c - s, y[Y0.size:])])

        y0 = np.concatenate([Y0.ravel(), Z0.ravel()])
    solver = DOP853(rhs, t0, y0, t1, rtol=rtol, atol=atol,
                    first_step=first_step)
    interpolants = []
    while solver.status == "running":
        assert solver.step() is None
        if dense:
            interpolants.append(solver.dense_output())
    return solver.y, interpolants, solver.h_abs


def _merged(interpolants):
    """One ``OdeSolution`` over the step interpolants of all legs, as
    ``solve_ivp`` builds one over the steps of a solve."""
    ts = [interpolants[0].t_old] + [step.t for step in interpolants]
    return OdeSolution(ts, interpolants)


def _one_sided(fam, lams, which, t):
    """E^s(t) or E^u(t) at every lambda of ``lams`` as one stack, each
    side carried alone."""
    return np.array([F.columns
                     for F in subspaces_over_lambda(fam, lams, which, t)])


ODE_FAMILIES = {"poschl-teller": poschl_teller_family,
                "connecting-n2": lambda: orbit_draw(0),
                "connecting-n3": lambda: orbit_draw(1)}


@pytest.mark.parametrize("t", [0.0, -15.0, 15.0])
@pytest.mark.parametrize("m", [1, 2, 201])
@pytest.mark.parametrize("family", ODE_FAMILIES)
def test_transport_is_bitwise_solve_ivp(family, m, t, monkeypatch):
    # stable frames travel backward, unstable ones forward, over several
    # legs each, every leg after the first started at the carried step
    fam = ODE_FAMILIES[family]()
    lams = np.linspace(0.0, 1.0, m) if m > 1 else np.array([0.37])
    got = [_one_sided(fam, lams, which, t)
           for which in ("stable", "unstable")]
    monkeypatch.setattr(flow, "_dopri", _scipy_dopri)
    want = [_one_sided(fam, lams, which, t)
            for which in ("stable", "unstable")]
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("family", ODE_FAMILIES)
def test_dense_path_samples_are_bitwise_solve_ivp(family, monkeypatch):
    fam = ODE_FAMILIES[family]()
    grid = np.linspace(-6.0, 6.0, 13)
    ts = np.concatenate([np.random.default_rng(3).uniform(-6.0, 6.0, 40),
                         grid])
    runs = []
    for dopri, dense in ((flow._dopri, flow._Dense), (_scipy_dopri, _merged)):
        monkeypatch.setattr(flow, "_dopri", dopri)
        monkeypatch.setattr(flow, "_Dense", dense)
        for which in ("stable", "unstable"):
            path = invariant_subspace_path(fam, 0.8, which, grid)
            runs.append((path.grid, path.stack, path.sample(ts)))
    half = len(runs) // 2
    for got, want in zip(runs[:half], runs[half:]):
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def _counting_poschl_teller(calls: list) -> LinearFamily:
    """The Poschl-Teller family, recording the instants of each call."""
    pt = poschl_teller_family()

    def counting(lam, t):
        calls.append(np.size(t))
        return pt.evaluate_many(lam, t)
    return LinearFamily.from_callable(None, n=2, k=1, batched=counting)


def test_one_evaluation_per_step_attempt(monkeypatch):
    # scipy's DOP853 evaluates S for each of its twelve right-hand sides
    # per attempt, plus one per leg for f(t0) and one for the first
    # leg's initial-step rule; the loop takes one call per attempt and
    # the same calls per leg
    calls = []
    fam = _counting_poschl_teller(calls)
    lams = np.linspace(0.0, 1.0, 201)
    seeds = _one_sided(fam, lams, "unstable", -20.0)
    counts = []
    for dopri in (flow._dopri, _scipy_dopri):
        monkeypatch.setattr(flow, "_dopri", dopri)
        calls.clear()
        flow._transport_batched(fam, lams, seeds, -20.0, 0.0, 1e-9, 1e-12)
        counts.append(len(calls))
    legs = len(flow._leg_points(-20.0, 0.0)) - 1
    attempts = (counts[1] - legs - 1) / 12
    assert attempts == int(attempts) > legs
    assert counts[0] == legs + 1 + attempts


def test_legs_after_the_first_start_at_the_carried_step(monkeypatch):
    # the first leg evaluates S at t0 and once for the initial-step rule,
    # one instant each; every later leg at t0 only, then once per attempt
    # at its eleven stage instants, starting at the step the previous leg
    # proposed, capped at the leg's length
    calls = []
    fam = _counting_poschl_teller(calls)
    lams = np.linspace(0.0, 1.0, 201)
    seeds = _one_sided(fam, lams, "unstable", -20.0)
    legs = []
    real = flow._dopri

    def recording(fam, lams, Y0, t0, t1, rtol, atol, dense, first_step):
        calls.clear()
        out = real(fam, lams, Y0, t0, t1, rtol, atol, dense, first_step)
        legs.append((t0, t1, first_step, out[2], list(calls)))
        return out

    monkeypatch.setattr(flow, "_dopri", recording)
    flow._transport_batched(fam, lams, seeds, -20.0, 0.0, 1e-9, 1e-12)
    assert len(legs) == len(flow._leg_points(-20.0, 0.0)) - 1 > 1
    (*_, first_step, _, sizes), *rest = legs
    assert first_step is None
    assert sizes[:2] == [1, 1] and set(sizes[2:]) == {11}
    for previous, (t0, t1, first_step, _, sizes) in zip(legs, rest):
        assert first_step == min(previous[3], abs(t1 - t0))
        assert sizes[0] == 1 and set(sizes[1:]) == {11}


def _positive_qr(Y):
    """Each member's QR factor, its columns signed so that R's diagonal
    is positive."""
    Q, R = np.linalg.qr(Y)
    signs = np.where(np.diagonal(R, axis1=1, axis2=2) < 0, -1.0, 1.0)
    return Q * signs[:, None, :]


def test_two_legs_are_one_solver_continued():
    # a two-leg transport is scipy's DOP853 stepped over the first leg,
    # each block restarted on its QR factor with a positive R diagonal,
    # then stepped on from the step it proposed.  In the three-dimensional
    # draw E^u has one column and E^s two, so the rule is not that of a
    # line; paired with E^u, E^s rides in mirrored time about 0
    fam = orbit_draw(1)
    lams = np.linspace(0.0, 1.0, 7)
    seeds_u = _one_sided(fam, lams, "unstable", -4.0)
    seeds_s = _one_sided(fam, lams, "stable", 4.0)
    for mirror in (None, (seeds_s, 0.0)):
        blocks = [seeds_u] if mirror is None else [seeds_u, seeds_s]
        h_abs = None
        for a, b in ((-4.0, -2.0), (-2.0, 0.0)):
            first_step = None if h_abs is None else min(h_abs, abs(b - a))
            y, _, h_abs = _scipy_dopri(
                fam, lams, blocks[0], a, b, 1e-9, 1e-12,
                first_step=first_step,
                mirrored=None if mirror is None else (blocks[1], 0.0))
            parts = np.split(y, [seeds_u.size])[:len(blocks)]
            blocks = [_positive_qr(p.reshape(B.shape))
                      for p, B in zip(parts, blocks)]
        got, _ = flow._transport_batched(fam, lams, seeds_u, -4.0, 0.0,
                                         1e-9, 1e-12, mirror=mirror)
        for a, b in zip(got if mirror else (got,), blocks):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("targets", [(0.0, 0.0), (-15.0, 15.0)],
                         ids=["t=0", "tau=15"])
@pytest.mark.parametrize("m", [1, 2, 201])
@pytest.mark.parametrize("family", ODE_FAMILIES)
def test_pair_transport_is_bitwise_dop853(family, m, targets, monkeypatch):
    # both sides in one solve: scipy's DOP853 stepped by hand on the
    # two-block system, E^u forward in t and E^s in mirrored time
    fam = ODE_FAMILIES[family]()
    lams = np.linspace(0.0, 1.0, m) if m > 1 else np.array([0.37])
    got = flow._subspace_stacks(fam, lams, *targets)
    monkeypatch.setattr(flow, "_dopri", _scipy_dopri)
    want = flow._subspace_stacks(fam, lams, *targets)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def _projectors(stack):
    return stack @ np.swapaxes(stack, 1, 2)


@pytest.mark.parametrize("family", ODE_FAMILIES)
def test_pair_with_unequal_spans_matches_one_sided_sweeps(family, monkeypatch):
    # at t = 1.5 the unstable side travels further than the stable one;
    # the stable side is seeded further out so the spans match, and
    # both subspaces are those of two one-sided sweeps
    fam = ODE_FAMILIES[family]()
    lams = np.linspace(0.0, 1.0, 11)
    calls = []
    real = flow._transport_batched

    def counting(*args, **kwargs):
        calls.append((args[3:5], kwargs.get("mirror") is not None))
        return real(*args, **kwargs)

    monkeypatch.setattr(flow, "_transport_batched", counting)
    e_u, e_s = flow._subspace_stacks(fam, lams, 1.5, 1.5)
    horizon = max(L.horizon for L in flow._limits_over_lambda(fam, lams))
    assert calls == [((-max(horizon, 6.5), 1.5), True)]
    for got, which in ((e_u, "unstable"), (e_s, "stable")):
        want = _one_sided(fam, lams, which, 1.5)
        assert np.abs(_projectors(got) - _projectors(want)).max() < 1e-9


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", [
    lambda fam, t: subspace_at(fam, 0.5, "stable", t),
    lambda fam, t: subspace_at(fam, 0.5, "unstable", t),
    lambda fam, t: subspaces_over_lambda(fam, [0.0, 1.0], "stable", t),
    lambda fam, t: subspaces_over_lambda(fam, [0.0, 1.0], "unstable", t),
    lambda fam, t: parity.boundary_pair_over_lambda(fam, [0.0, 1.0], t=t),
], ids=["at-stable", "at-unstable", "sweep-stable", "sweep-unstable",
        "pair"])
def test_non_finite_instant_is_refused(call, t):
    calls = []
    fam = _counting_poschl_teller(calls)
    with pytest.raises(InvalidInput, match="t must be finite"):
        call(fam, t)
    assert calls == []


@pytest.mark.parametrize("name", ["rtol", "atol"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", [
    lambda fam, tol: subspace_at(fam, 0.5, "stable", 0.0, **tol),
    lambda fam, tol: fundamental_solution(fam, 0.5, -1.0, 1.0, **tol),
    lambda fam, tol: invariant_subspace_path(fam, 0.5, "unstable",
                                             [-1.0, 1.0], **tol),
    lambda fam, tol: parity.operator_parity(fam, [0.0, 1.0], tau=6.0,
                                            N=200, **tol),
    lambda fam, tol: parity.boundary_pair_over_lambda(fam, [0.0, 1.0],
                                                      **tol),
], ids=["subspace_at", "fundamental", "invariant-path", "operator-parity",
        "pair"])
def test_non_finite_tolerance_is_refused(call, bad, name):
    calls = []
    fam = _counting_poschl_teller(calls)
    with pytest.raises(InvalidInput, match=f"{name} must be finite"):
        call(fam, {name: bad})
    assert calls == []


def _diverging_family():
    # y' = y / (1 - t): the solution 1 / (1 - t) blows up at t = 1
    def S(lam, t):
        with np.errstate(divide="ignore"):
            return np.array([[np.float64(1.0) / (1.0 - t)]])
    return LinearFamily.from_callable(S, n=1, k=0, t_max=5.0)


def _infinite_past_one_family():
    return LinearFamily.from_callable(
        lambda lam, t: np.array([[np.inf if t > 1.0 else 1.0]]),
        n=1, k=0, t_max=5.0)


@pytest.mark.parametrize("make", [_diverging_family,
                                  _infinite_past_one_family],
                         ids=["step-underflow", "non-finite-stages"])
def test_integration_failure_names_the_instant(make):
    with pytest.raises(IntegrationFailure, match=r"failed at t=0\.99"):
        fundamental_solution(make(), 0.0, tau=0.0, t=2.0)


def test_non_finite_start_raises_at_once():
    fam = LinearFamily.from_callable(lambda lam, t: np.eye(2), n=2, k=1)
    Y0 = np.array([[[np.nan], [1.0]]])
    with pytest.raises(IntegrationFailure, match=r"failed at t=-1\.0"):
        flow._dopri(fam, np.array([0.0]), Y0, -1.0, 1.0, 1e-9, 1e-12)


def test_tolerances_keep_their_meaning():
    # rtol is floored at 100 eps, as scipy floors it, and atol < 0 is
    # refused, as scipy refuses it
    fam = poschl_teller_family()
    floor = 100 * np.finfo(float).eps
    assert np.array_equal(fundamental_solution(fam, 0.5, -1.0, 1.0, rtol=0.0),
                          fundamental_solution(fam, 0.5, -1.0, 1.0,
                                               rtol=floor))
    with pytest.raises(InvalidInput, match="atol"):
        fundamental_solution(fam, 0.5, -1.0, 1.0, atol=-1e-12)


def test_integrator_evaluates_every_point_as_a_one_point_call():
    # the integrator reads S at several instants per evaluate_many call;
    # each value must be the one a call at that single point gives.  The
    # first two points are where squaring sech(t) and the C library's
    # pow round the Poschl-Teller entry 1 - 2.5 lambda sech(t)^2 apart
    rng = np.random.default_rng(7)
    lams = np.concatenate([[1.0, 1.3073664458427114],
                           rng.uniform(-0.5, 1.5, 500)])
    ts = np.concatenate([[-0.6517174421720151, 0.13284864976662192],
                         rng.uniform(-8.0, 8.0, 500)])
    demos = [d["config"] for d in DEMOS.values()
             if d["config"]["kind"] == "linear-family"]
    for fam in [LinearFamily.from_matrix_expr(parse_matrix(cfg["S"]),
                                              k=cfg["k"]) for cfg in demos]:
        one = np.array([fam.evaluate(lam, t) for lam, t in zip(lams, ts)])
        assert np.array_equal(fam.evaluate_many(lams, ts), one)
        assert np.array_equal(fam.evaluate_many(lams[0], ts),
                              [fam.evaluate(lams[0], t) for t in ts])
