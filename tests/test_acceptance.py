"""Acceptance criteria, one printed pass/fail line per criterion.

Run with -s to see the lines as they complete:

    pytest tests/test_acceptance.py -s

The whole file takes a few minutes; the randomized suites dominate.
"""

import time

import numpy as np
import pytest

from hetindex import (
    LinearFamily,
    NonlinearFamily,
    Branch,
    detect_bifurcation,
    discretize,
    fundamental_solution,
    gap_distance,
    kernel_dimension,
    operator_parity,
    parse_matrix,
    subspace_at,
    verify_index_theorem,
)
from hetindex.cli import DEMOS
from hetindex.suites import (
    poschl_teller_family,
    suite_decomposition,
    suite_finite_parity,
    suite_maslov_mod2,
    suite_orientability,
    suite_properties,
)


def announce(num, ok, detail):
    print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def family_from_demo(name):
    cfg = DEMOS[name]["config"]
    return LinearFamily.from_matrix_expr(parse_matrix(cfg["S"]), k=cfg["k"])


@pytest.fixture(scope="module")
def pt_theorem():
    """The full-resolution index theorem run on the Poschl-Teller
    family; shared by criteria 1 and 9."""
    fam = poschl_teller_family()
    t0 = time.perf_counter()
    rep = verify_index_theorem(fam, lams=np.linspace(0.0, 1.0, 201),
                               tau=15.0, N=3000)
    return rep, time.perf_counter() - t0


def test_criterion_01_index_theorem_poschl_teller(pt_theorem):
    # the lone eigenvalue crossing of the depth family solves
    # (-1 + sqrt(1 + 10 lam)) / 2 = 1, i.e. lam* = 0.8 exactly
    lam_star = 0.8
    rep, elapsed = pt_theorem
    checks = {
        "parity is 1": rep.lhs == 1,
        "z2 over lambda is 1": rep.rhs == 1,
        "sides agree": rep.agree,
        "one parity flip": len(rep.parity.flips) == 1,
        "flip at lam*": abs(rep.parity.flips[0] - lam_star) <= 2e-3,
        "one index crossing": len(rep.index.crossings) == 1,
        "crossing at lam*": abs(rep.index.crossings[0] - lam_star) <= 2e-3,
        "under 60 s": elapsed < 60.0,
    }
    ok = all(checks.values())
    announce(1, ok, f"index theorem on the Poschl-Teller family "
                    f"({elapsed:.1f}s, flip at "
                    f"{rep.parity.flips[0] if rep.parity.flips else None})")
    assert ok, [k for k, v in checks.items() if not v]


def test_criterion_02_positive_potential_trivial():
    fam = family_from_demo("positive-potential")
    rep = verify_index_theorem(fam, lams=np.linspace(0.0, 1.0, 51),
                               tau=10.0, N=1000)
    ok = (rep.lhs == 0 and rep.rhs == 0 and rep.agree
          and rep.parity.flips == () and rep.index.crossings == ())
    announce(2, ok, "q = 1 + lambda sech^2: both sides 0, no flips")
    assert ok


def test_criterion_03_kernel_at_coincidence():
    # q = 1 - 2 sech^2 t is the depth family at lam = 0.8; its kernel
    # is spanned by sech t, and E^s(0) = E^u(0) along that solution
    fam = poschl_teller_family()
    krep = kernel_dimension(discretize(fam, 0.8, tau=15.0, N=3000))
    es = subspace_at(fam, 0.8, "stable", 0.0)
    eu = subspace_at(fam, 0.8, "unstable", 0.0)
    gap = gap_distance(es, eu)
    ok = (krep.dim == 1 and krep.relative[0] < 1e-6 and gap < 1e-4)
    announce(3, ok, f"kernel dim {krep.dim} (rel {krep.relative[0]:.1e}), "
                    f"subspace gap {gap:.1e}")
    assert ok, (krep.dim, krep.relative, gap)


def test_criterion_04_index_properties():
    results = suite_properties(trials=500, seed=0)
    ok = all(r.ok for r in results)
    detail = "; ".join(r.summary() for r in results)
    announce(4, ok, detail)
    assert ok, [r.failures[:3] for r in results if not r.ok]


def test_criterion_05_maslov_mod2():
    r = suite_maslov_mod2(trials=200, seed=0)
    announce(5, r.ok, r.summary())
    assert r.ok, r.failures[:5]


def test_criterion_06_finite_parity_two_routes():
    r = suite_finite_parity(trials=500, seed=0)
    announce(6, r.ok, r.summary())
    assert r.ok, r.failures[:5]


def test_criterion_07_loop_orientability():
    r = suite_orientability(trials=200, seed=0)
    announce(7, r.ok, r.summary())
    assert r.ok, r.failures[:5]


def test_criterion_08_decomposition():
    r = suite_decomposition(extra_families=20, seed=0)
    announce(8, r.ok, r.summary())
    assert r.ok, r.failures[:5]


def test_criterion_09_cocycle_and_doubling(pt_theorem):
    linear_demos = [name for name, entry in DEMOS.items()
                    if entry["config"].get("kind") == "linear-family"]
    failures = []

    for name in linear_demos:
        fam = family_from_demo(name)
        cfg = DEMOS[name]["config"]
        tau, N = float(cfg["tau"]), int(cfg["N"])

        # composition of solution operators over adjacent legs
        for lam in (0.0, 0.5, 1.0):
            for a, b, c in ((-3.0, 0.0, 2.0), (-1.0, 1.0, 4.0)):
                g_ab = fundamental_solution(fam, lam, tau=a, t=b)
                g_bc = fundamental_solution(fam, lam, tau=b, t=c)
                g_ac = fundamental_solution(fam, lam, tau=a, t=c)
                defect = float(np.max(np.abs(g_bc @ g_ab - g_ac)))
                if defect >= 1e-6:
                    failures.append(f"{name}: cocycle defect {defect:.1e} "
                                    f"at lam={lam}")

        # parity unchanged under tau- and N-doubling (checked inside
        # operator_parity; reuse the criterion-1 run for the big demo)
        if name == "poschl-teller":
            parity = pt_theorem[0].parity
        else:
            parity = operator_parity(
                fam, lams=np.linspace(0.0, 1.0, 11), tau=tau, N=N)
        if not (parity.stable_tau and parity.stable_N):
            failures.append(f"{name}: parity not stable under doubling")

        # endpoint kernel dimensions unchanged under doubling
        for lam in (0.0, 1.0):
            dims = set()
            for tau2, N2 in ((tau, N), (2 * tau, 2 * N), (tau, 2 * N)):
                dims.add(kernel_dimension(
                    discretize(fam, lam, tau=tau2, N=N2)).dim)
            if len(dims) != 1:
                failures.append(f"{name}: kernel dim drifts {dims} "
                                f"at lam={lam}")

    ok = not failures
    announce(9, ok, f"cocycle and doubling stability on "
                    f"{len(linear_demos)} linear-family demos")
    assert ok, failures


def test_criterion_10_cubic_bifurcation():
    cfg = DEMOS["cubic-schrodinger"]["config"]
    nf = NonlinearFamily.from_sources(cfg["g"], z_minus=cfg["z_minus"],
                                      z_plus=cfg["z_plus"],
                                      lam_range=tuple(cfg["lam_range"]))
    branch = Branch.from_sources(cfg["branch"])
    full = detect_bifurcation(nf, branch)
    half = detect_bifurcation(nf, branch, lam_range=(0.0, 0.5))
    checks = {
        "bifurcates": full.bifurcates,
        "index 1": full.index == 1,
        "candidate at 0.8": len(full.lam_candidates) == 1
                            and abs(full.lam_candidates[0] - 0.8) <= 2e-3,
        "half range index 0": half.index == 0 and not half.bifurcates,
        "half range inconclusive": "inconclusive" in half.note,
    }
    ok = all(checks.values())
    announce(10, ok, f"cubic demo: candidates {full.lam_candidates}, "
                     f"half-range note {half.note!r}")
    assert ok, [k for k, v in checks.items() if not v]
