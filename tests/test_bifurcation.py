"""Nonlinear families, branch linearization, bifurcation detection."""

import numpy as np
import pytest

from hetindex import (
    Branch,
    BranchResidualTooLarge,
    InvalidInput,
    NonlinearFamily,
    check_restpoints,
    detect_bifurcation,
    linearize_along,
    validate_branch,
)

CUBIC_G = ["z2", "(1 - 2.5*lambda*sech(t)^2)*z1 + z1^3"]


def cubic_family(lam_range=(0.0, 1.0)):
    return NonlinearFamily.from_sources(CUBIC_G, z_minus=[0.0, 0.0],
                                        z_plus=[0.0, 0.0],
                                        lam_range=lam_range)


def zero_branch():
    return Branch.from_sources(["0", "0"])


def test_evaluate_scalar_and_batch():
    nf = cubic_family()
    out = nf.evaluate(0.8, 0.0, np.array([0.5, 0.0]))
    # g = (z2, q z1 + z1^3) with q = 1 - 2.5 lambda sech(t)^2
    assert np.allclose(out, [0.0, -1.0 * 0.5 + 0.125])
    z = np.zeros((7, 2))
    z[:, 0] = np.linspace(-1, 1, 7)
    batch = nf.evaluate(0.8, 0.0, z)
    assert batch.shape == (7, 2)
    assert np.allclose(batch[3], [0.0, 0.0])


def test_rejects_non_restpoint_limits():
    with pytest.raises(InvalidInput):
        NonlinearFamily.from_sources(CUBIC_G, z_minus=[1.0, 1.0],
                                     z_plus=[0.0, 0.0])


def test_jacobian_matches_hand_derivative():
    nf = cubic_family()
    for lam, t, z1 in ((0.0, 0.0, 0.3), (0.8, 1.2, -0.7), (1.0, -2.0, 0.0)):
        J = nf.jacobian(lam, t, np.array([z1, 0.1]))
        q = 1.0 - 2.5 * lam / np.cosh(t) ** 2
        expect = np.array([[0.0, 1.0], [q + 3.0 * z1 ** 2, 0.0]])
        assert np.max(np.abs(J - expect)) < 1e-6


def test_validate_branch_accepts_zero_branch():
    validate_branch(cubic_family(), zero_branch())


def test_validate_branch_rejects_non_solution():
    with pytest.raises(BranchResidualTooLarge):
        validate_branch(cubic_family(), Branch.from_sources(["1", "0"]))


def test_check_restpoints_cubic():
    rep = check_restpoints(cubic_family())
    assert rep.hyperbolic
    assert rep.k_minus == 1 and rep.k_plus == 1
    assert rep.violations == ()
    assert rep.residual_minus < 1e-8 and rep.residual_plus < 1e-8


def test_linearize_along_zero_branch():
    lf = linearize_along(cubic_family(), zero_branch())
    assert lf.n == 2 and lf.k == 1
    for lam, t in ((0.0, 0.0), (0.8, 0.0), (0.5, 1.7)):
        q = 1.0 - 2.5 * lam / np.cosh(t) ** 2
        S = lf.evaluate(lam, t)
        assert np.max(np.abs(S - [[0.0, 1.0], [q, 0.0]])) < 1e-5


def test_detect_bifurcation_cubic():
    verdict = detect_bifurcation(cubic_family(), zero_branch())
    assert verdict.bifurcates
    assert verdict.index == 1
    assert len(verdict.lam_candidates) == 1
    assert abs(verdict.lam_candidates[0] - 0.8) < 2e-3
    assert verdict.hypotheses.ok


def test_detect_bifurcation_half_range_inconclusive():
    verdict = detect_bifurcation(cubic_family(), zero_branch(),
                                 lam_range=(0.0, 0.5))
    assert not verdict.bifurcates
    assert verdict.index == 0
    assert verdict.lam_candidates == ()
    assert "inconclusive" in verdict.note
    # the index grid is in the caller's lambda
    grid = verdict.index_report.grid
    assert (grid[0], grid[-1]) == (0.0, 0.5)


def test_detect_bifurcation_respects_family_range():
    verdict = detect_bifurcation(cubic_family(lam_range=(0.0, 0.5)),
                                 zero_branch())
    assert not verdict.bifurcates
    assert verdict.lam_range == (0.0, 0.5)
