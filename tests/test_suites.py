"""The randomized suites' own samplers."""

import numpy as np
import pytest
from scipy.linalg import expm

from hetindex import suites


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
        for t in rng.uniform(-1.0, 2.0, size=20):
            want = expm(t * K)
            worst = max(worst, np.abs(rotation(float(t)) - want).max(),
                        np.abs(sample(float(t)).columns - want @ cols).max())
    assert worst < 1e-12


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
