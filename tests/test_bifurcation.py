"""Nonlinear families, branch linearization, bifurcation detection."""

import numpy as np
import pytest

from hetindex import (
    Branch,
    BranchResidualTooLarge,
    DomainError,
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


# A front z1 = tanh(t) carrying a pulse z2 = sech(t)/2: both components
# of the branch vary in t, and D_z g along it depends on lambda and t.
FRONT_G = ["1 - z1^2",
           "-z1*z2 + lambda*z2*(z1^2 + z2^2 - tanh(t)^2 - 0.25*sech(t)^2)"]


def front_family():
    return NonlinearFamily.from_sources(FRONT_G, z_minus=[-1.0, 0.0],
                                        z_plus=[1.0, 0.0])


def front_branch():
    return Branch.from_sources(["tanh(t)", "0.5*sech(t)"])


def central_jacobian(nf, lam, t, z, step=1e-6):
    """D_z g by central differences: the oracle for the exact Jacobian."""
    z = np.asarray(z, dtype=float)
    J = np.empty((nf.n, nf.n))
    for j in range(nf.n):
        h = step * (1.0 + abs(z[j]))
        dz = np.zeros(nf.n)
        dz[j] = h
        J[:, j] = (nf.evaluate(lam, t, z + dz)
                   - nf.evaluate(lam, t, z - dz)) / (2.0 * h)
    return J


POINTS = ((0.0, 0.0), (0.8, 1.2), (1.0, -2.0), (0.3, 7.5), (0.55, -19.0))


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


def test_rejects_restpoint_where_g_is_undefined():
    # g(lambda, t, 0) = (0, sqrt(-1)) has no real value
    with pytest.raises(DomainError):
        NonlinearFamily.from_sources(["z2", "sqrt(z1 - 1)"], [0, 0], [0, 0])


def test_rejects_nan_horizon():
    with pytest.raises(InvalidInput):
        NonlinearFamily.from_sources(CUBIC_G, [0, 0], [0, 0],
                                     t_max=float("nan"))


def test_validate_branch_rejects_undefined_branch():
    # (sqrt(t), 0) solves no z' = (z2, z1) and has no value for t < 0
    nf = NonlinearFamily.from_sources(["z2", "z1"], [0, 0], [0, 0])
    with pytest.raises(DomainError):
        validate_branch(nf, Branch.from_sources(["sqrt(t)", "0"]))
    with pytest.raises(DomainError):
        detect_bifurcation(nf, Branch.from_sources(["sqrt(t)", "0"]))


def test_branch_evaluates_where_its_derivative_is_undefined():
    branch = Branch.from_sources(["sqrt(t)", "0"])
    assert np.array_equal(branch.evaluate(0.5, 4.0), [2.0, 0.0])
    assert np.array_equal(branch.evaluate(0.5, 0.0), [0.0, 0.0])
    with pytest.raises(DomainError):
        branch.derivative(0.5, 0.0)


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


@pytest.mark.parametrize("make", [
    lambda: (cubic_family(), zero_branch()),
    lambda: (front_family(), front_branch()),
], ids=["cubic", "front"])
def test_jacobian_and_linearization_match_central_differences(make):
    nf, branch = make()
    lf = linearize_along(nf, branch)
    assert lf.matrix is not None
    rng = np.random.default_rng(2)
    for lam, t in POINTS:
        on = branch.evaluate(lam, t)
        oracle = central_jacobian(nf, lam, t, on)
        tol = 1e-6 * (1.0 + np.max(np.abs(oracle)))
        assert np.max(np.abs(lf.evaluate(lam, t) - oracle)) < tol
        z = on + rng.normal(size=nf.n)
        oracle = central_jacobian(nf, lam, t, z)
        tol = 1e-6 * (1.0 + np.max(np.abs(oracle)))
        assert np.max(np.abs(nf.jacobian(lam, t, z) - oracle)) < tol
    # broadcast over lambda, t and the z batch
    lams = np.array([0.0, 0.5, 1.0])[:, None]
    ts = np.linspace(-3.0, 3.0, 4)[None, :]
    zs = branch.evaluate(lams, ts)
    J = nf.jacobian(lams, ts, zs)
    assert J.shape == (3, 4, nf.n, nf.n)
    assert np.allclose(J[2, 1], nf.jacobian(1.0, ts[0, 1], zs[2, 1]))
    assert np.allclose(lf.evaluate_many(lams, ts), J, rtol=0, atol=1e-15)


def test_branch_derivative_matches_central_difference():
    branch = front_branch()
    h = 1e-5
    for lam, t in POINTS:
        fd = (branch.evaluate(lam, t + h)
              - branch.evaluate(lam, t - h)) / (2 * h)
        assert np.max(np.abs(branch.derivative(lam, t) - fd)) < 1e-9
    ts = np.linspace(-4.0, 4.0, 9)
    assert np.allclose(branch.derivative(0.5, ts)[:, 0], np.cosh(ts) ** -2)


def test_front_branch_validates():
    validate_branch(front_family(), front_branch())
    with pytest.raises(BranchResidualTooLarge):
        validate_branch(front_family(),
                        Branch.from_sources(["tanh(t)", "0.6*sech(t)"]))


SQRT_G = ["z2", "z1 + sqrt(z1)"]


def sqrt_family():
    # d/dz1 sqrt(z1) = 0.5/sqrt(z1) has no value at the restpoint z1 = 0
    return NonlinearFamily.from_sources(SQRT_G, z_minus=[0.0, 0.0],
                                        z_plus=[0.0, 0.0])


def test_check_restpoints_reports_undefined_jacobian():
    rep = check_restpoints(sqrt_family())
    assert not rep.hyperbolic
    assert rep.k_minus is None and rep.k_plus is None
    assert len(rep.violations) == 22
    assert rep.violations[0].startswith(
        "z_minus: D_z g undefined at lambda=0:")
    assert "division by zero" in rep.violations[0]
    assert rep.violations[1].startswith("z_plus: D_z g undefined at lambda=0:")
    assert "lambda=0.1" in rep.violations[2]


def test_linearize_along_raises_domain_error():
    with pytest.raises(DomainError):
        linearize_along(sqrt_family(), zero_branch())


def test_detect_bifurcation_rejects_range_beyond_family():
    # x + abs(x) with x = abs(lambda - 0.5) - 0.5 vanishes on [0, 1] but
    # not at lambda = 1.5, where (0, 0) is no restpoint any more
    x = "(abs(lambda - 0.5) - 0.5)"
    g = [CUBIC_G[0], f"{CUBIC_G[1]} + {x} + abs({x})"]
    nf = NonlinearFamily.from_sources(g, z_minus=[0.0, 0.0],
                                      z_plus=[0.0, 0.0])
    assert np.allclose(nf.evaluate(1.5, 0.0, [0.0, 0.0]), [0.0, 1.0])
    with pytest.raises(InvalidInput) as exc:
        detect_bifurcation(nf, zero_branch(), lam_range=(0.0, 1.5))
    assert "[0, 1.5]" in str(exc.value) and "[0, 1]" in str(exc.value)
    with pytest.raises(InvalidInput):
        detect_bifurcation(cubic_family(lam_range=(0.2, 1.0)),
                           zero_branch(), lam_range=(0.0, 0.5))


@pytest.mark.parametrize("branch_tol", [float("nan"), -1e-6, 0.0,
                                        float("inf")])
@pytest.mark.parametrize("entry", [validate_branch, linearize_along,
                                   detect_bifurcation])
def test_bad_branch_tol_is_refused_before_evaluation(entry, branch_tol,
                                                     monkeypatch):
    # a NaN branch_tol was reported as a residual "exceeding nan"
    nf, branch = cubic_family(), zero_branch()

    def unevaluated(*args):
        raise AssertionError("evaluated before checking branch_tol")

    monkeypatch.setattr(Branch, "evaluate", unevaluated)
    monkeypatch.setattr(NonlinearFamily, "evaluate", unevaluated)
    with pytest.raises(InvalidInput, match="branch_tol"):
        entry(nf, branch, branch_tol=branch_tol)


@pytest.mark.parametrize("t_max", [float("inf"), -float("inf")])
def test_rejects_infinite_horizon(t_max):
    with pytest.raises(InvalidInput, match="t_max"):
        NonlinearFamily.from_sources(CUBIC_G, [0, 0], [0, 0], t_max=t_max)
