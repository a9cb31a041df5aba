"""The randomized suites' own samplers and their tally."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

from hetindex import (
    BoundaryDegenerate,
    DegenerateEndpoint,
    GapTooLarge,
    InvalidInput,
    NotStabilized,
    suites,
)


def test_skew_expm_and_rotation_sampler_match_expm():
    # one eigendecomposition per K stands in for expm(t K) at every
    # sample, in the rotation sampler and the homotopy property alike
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n))
        K = suites._skew(rng, n, rng.uniform(0.5, 2.5))
        cols = suites._orthonormal(rng, n, k)
        rotation = suites._skew_expm(K)
        sample = suites._rotation_sampler(K, cols)
        ts = rng.uniform(-1.0, 2.0, size=20)
        for t, R, F in zip(ts, rotation(ts), sample(ts)):
            want = expm(t * K)
            worst = max(worst, np.abs(R - want).max(),
                        np.abs(F - want @ cols).max())
    assert worst < 1e-12


@pytest.mark.parametrize("suite, name, least", [
    (suites.suite_properties, "trials", 1),
    (suites.suite_finite_parity, "trials", 1),
    (suites.suite_maslov_mod2, "trials", 1),
    (suites.suite_orientability, "trials", 1),
    (suites.suite_decomposition, "extra_families", 0),
])
@pytest.mark.parametrize("count", ["below", -1, 2.5, 3.0, True, None])
def test_suite_counts_are_checked_before_any_draw(suite, name, least, count,
                                                  monkeypatch):
    # a count below its least would give a vacuous suite (trials=-1 once
    # gave total=-1), and a float, bool or None is no count
    if count == "below":
        count = least - 1

    def draw(*args, **kwargs):
        raise AssertionError("drew before checking the count")

    monkeypatch.setattr(np.random, "default_rng", draw)
    with pytest.raises(InvalidInput, match=f"^{name} must be an integer"):
        suite(**{name: count})


@pytest.mark.parametrize("suite, seeds", [
    (suites.suite_properties, range(5)),
    (suites.suite_orientability, range(20)),
], ids=["properties", "orientability"])
def test_rotation_pair_suites_pass_on_benchmark_seeds(suite, seeds):
    # the one-case calls of the benchmark's suites workload, whose pairs
    # come from rotation samplers: every case still passes
    for seed in seeds:
        result = suite(trials=1, seed=seed)
        for r in result if isinstance(result, list) else [result]:
            assert (r.passes, r.total) == (1, 1), (r.name, seed, r.failures)


_BENCHMARK_SEEDS = {
    "properties": (suites.suite_properties, range(5)),
    "maslov": (suites.suite_maslov_mod2, range(5)),
    "finite-parity": (suites.suite_finite_parity, range(20)),
    "orientability": (suites.suite_orientability, range(20)),
}

# every suite passes every one-case call of the benchmark's suites
# workload, with no failure recorded
_PINNED_NAMES = {
    "properties": ("property-I-reparametrization", "property-II-homotopy",
                   "property-III-additivity", "property-IV-symmetry",
                   "property-V-sum"),
    "maslov": ("maslov-mod2-agreement",),
    "finite-parity": ("finite-parity-two-routes",),
    "orientability": ("loop-orientability",),
}


@pytest.mark.parametrize("key", list(_BENCHMARK_SEEDS))
def test_suite_results_are_pinned_on_benchmark_seeds(key):
    suite, seeds = _BENCHMARK_SEEDS[key]
    want = [suites.SuiteResult(name=name, total=1, passes=1, failures=())
            for name in _PINNED_NAMES[key]]
    for seed in seeds:
        result = suite(trials=1, seed=seed)
        got = result if isinstance(result, list) else [result]
        assert got == want, (key, seed)


def _scripted(outcomes):
    """A stand-in that raises or returns the next of ``outcomes`` per call."""
    calls = iter(outcomes)

    def run(*args, **kwargs):
        out = next(calls)
        if isinstance(out, Exception):
            raise out
        return out
    return run


def test_a_package_error_fails_only_its_maslov_case(monkeypatch):
    # a DegenerateEndpoint is a bad draw and redraws; any other package
    # error is its case's failure, and the suite goes on
    agree = SimpleNamespace(agree=True)
    monkeypatch.setattr(suites, "mod2_compare", _scripted([
        GapTooLarge("jump"), DegenerateEndpoint("end"), agree, agree]))
    assert suites.suite_maslov_mod2(trials=3, seed=0) == suites.SuiteResult(
        name="maslov-mod2-agreement", total=3, passes=2,
        failures=((0, "GapTooLarge: jump"),))


def test_a_package_error_fails_only_its_decomposition_case(monkeypatch):
    # the Poschl-Teller case first, then the drawn families: a
    # BoundaryDegenerate redraws, a NotStabilized fails its case only
    holds = SimpleNamespace(holds=True)
    monkeypatch.setattr(suites, "decomposition_check", _scripted([
        NotStabilized("well"), BoundaryDegenerate("redraw"),
        NotStabilized("drawn"), holds]))
    assert suites.suite_decomposition(extra_families=2, seed=0) == (
        suites.SuiteResult(name="index-decomposition", total=3, passes=1,
                           failures=(("poschl-teller", "NotStabilized: well"),
                                     (0, "NotStabilized: drawn"))))
