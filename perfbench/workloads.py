"""The four verdict workloads: their inputs, one pass, and known answers.

A pass is a fixed list of verdict calls into the public API, made one
after another by a single caller (closed loop).  The seed fixes the
order of the calls in a pass; the set of calls is fixed so that every
seed does the same work and run-to-run spread stays within the bounds
(random draws vary in cost by a factor of five, see ``ORBIT_DRAWS``).

Each workload has a ``full`` size, used by the benchmark, and a
``smoke`` size, used only by the benchmark's own test.

On a shared two-core host the speed of this code wanders by a third or
more over seconds to minutes, so a run's median must span several
passes and tens of seconds.  Hence two choices.  ``theorem`` runs the
criterion-1 lambda grid, tau and doubling reruns at N = 1500 instead of
3000: the sparse LU calls stay the same in number (612) and ``parity``
still takes about two thirds of the time (five sixths at N = 3000), but
a pass takes 6-9 s instead of 16 s, so a 40 s run holds three to
five.  And BENCHMARK.json lists three of the four workloads: ``orbits``
runs by name but gates no change, because four workloads of 40 s do not
fit the time allowed for all runs; its layers, ``flow`` and ``expr``,
are still timed on ``bifurcate`` and ``theorem``.

hetindex is imported inside ``setup`` so that the set-up probe can time
the import of the package from a fresh process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

LAM_STAR = 0.8      # the Poschl-Teller and cubic families flip here
LAM_TOL = 2e-3


@dataclass(frozen=True)
class Judgement:
    problems: tuple          # empty when the verdict is right
    summary: tuple           # compared between untraced and traced passes
    lam_errors: tuple = ()   # |lambda* - 0.8| of every located flip


def _near(x: float) -> bool:
    return abs(x - LAM_STAR) <= LAM_TOL


def _resolved_demos():
    from hetindex import cli

    return {name: cli.resolve_config(entry["config"], origin=f"demo:{name}")
            for name, entry in cli.DEMOS.items()}


def _linear_family(cfg):
    from hetindex import expr, flow

    m = expr.parse_matrix(cfg["S"], variables=("t", "lambda"))
    return flow.LinearFamily.from_matrix_expr(m, k=cfg["k"],
                                              t_max=cfg["t_max"])


class Workload:
    name: str
    sizes: dict

    def setup(self, size: str) -> dict:
        """Resolve the demo configs and build the families (untimed here)."""
        raise NotImplementedError

    def ops(self, state: dict, seed: int) -> list[tuple[str, Callable]]:
        """The pass: (label, call) pairs in the seed's order."""
        calls = self._calls(state)
        order = np.random.default_rng(seed).permutation(len(calls))
        return [calls[i] for i in order]

    def _calls(self, state: dict) -> list[tuple[str, Callable]]:
        raise NotImplementedError

    def judge(self, label: str, result) -> Judgement:
        raise NotImplementedError


class Theorem(Workload):
    """verify_index_theorem on the Poschl-Teller family.

    The lambda grid and tau of criterion 1 (201 samples, tau 15) with
    the stability reruns on; N is half of criterion 1's 3000.
    """

    name = "theorem"
    # tau- and N-doubling stability reruns are on, as by default
    sizes = {
        "full": {"lam_samples": 201, "tau": 15.0, "N": 1500},
        "smoke": {"lam_samples": 21, "tau": 8.0, "N": 400},
    }

    def setup(self, size):
        cfg = _resolved_demos()["poschl-teller"]
        p = self.sizes[size]
        a, b = cfg["lam_range"]
        return {"fam": _linear_family(cfg),
                "lams": np.linspace(a, b, p["lam_samples"]), **p}

    def _calls(self, s):
        from hetindex import parity

        return [("poschl-teller", lambda: parity.verify_index_theorem(
            s["fam"], s["lams"], tau=s["tau"], N=s["N"]))]

    def judge(self, label, rep):
        flips, crossings = rep.parity.flips, rep.index.crossings
        problems = []
        if (rep.lhs, rep.rhs, rep.agree) != (1, 1, True):
            problems.append(f"parity {rep.lhs}, index {rep.rhs}, "
                            f"agree {rep.agree}; expected 1, 1, True")
        if len(flips) != 1 or not _near(flips[0]):
            problems.append(f"flips {flips}, expected one near {LAM_STAR}")
        if len(crossings) != 1 or not _near(crossings[0]):
            problems.append(f"crossings {crossings}, expected one near "
                            f"{LAM_STAR}")
        return Judgement(
            problems=tuple(problems),
            summary=(rep.lhs, rep.rhs, rep.agree, flips, crossings),
            lam_errors=tuple(abs(x - LAM_STAR) for x in flips + crossings))


def _orthogonal(rng, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _split_matrix(rng, n: int, k: int) -> np.ndarray:
    # symmetric with exactly k positive eigenvalues
    Q = _orthogonal(rng, n)
    d = rng.uniform(0.5, 1.5, size=n)
    d[k:] = -d[k:]
    return Q @ np.diag(d) @ Q.T


def connecting_family(draw: int, n: int, k: int):
    """S(lambda, t) = A^- w(-t) + A^+ w(t) + lambda sech(t) C.

    The random connecting family of the decomposition suite, drawn from
    a fixed generator.  Its limits do not depend on lambda.
    """
    from hetindex import flow

    rng = np.random.default_rng([draw, 505])
    Am, Ap = _split_matrix(rng, n, k), _split_matrix(rng, n, k)
    C = rng.standard_normal((n, n))

    def batched(lam, t):
        lam_b, t_b = np.broadcast_arrays(np.asarray(lam, float),
                                         np.asarray(t, float))
        w_p = 0.5 * (1.0 + np.tanh(t_b))[..., None, None]
        w_m = 0.5 * (1.0 + np.tanh(-t_b))[..., None, None]
        bump = (lam_b / np.cosh(t_b))[..., None, None]
        return Am * w_m + Ap * w_p + C * bump

    return flow.LinearFamily.from_callable(batched, n=n, k=k, t_max=20.0,
                                           batched=batched)


#: (draw, n, k) of the random families, one per dimension.  Draws vary
#: in cost from 2 s to 11 s (those whose index over lambda has a
#: crossing cost most), so a seeded draw would make the pass time depend
#: on the seed, and one slow draw would set every latency percentile.
#: These two cost about as much as Poschl-Teller, which carries the
#: crossings: one in lambda at 0.8 and one in t in its geometric parity.
ORBIT_DRAWS = ((2, 2, 1), (3, 3, 1))


class Orbits(Workload):
    """decomposition_check on Poschl-Teller and two connecting families."""

    name = "orbits"
    sizes = {
        "full": {"lam_samples": 101, "samples_pt": 151, "samples": 101,
                 "draws": ORBIT_DRAWS},
        "smoke": {"lam_samples": 21, "samples_pt": 41, "samples": 31,
                  "draws": ORBIT_DRAWS[:1]},
    }

    def setup(self, size):
        p = self.sizes[size]
        fams = [("poschl-teller", _linear_family(
            _resolved_demos()["poschl-teller"]), p["samples_pt"])]
        fams += [(f"random-{d}-n{n}k{k}", connecting_family(d, n, k),
                  p["samples"]) for d, n, k in p["draws"]]
        return {"fams": fams,
                "lams": np.linspace(0.0, 1.0, p["lam_samples"])}

    def _calls(self, s):
        from hetindex import parity

        return [(label, lambda fam=fam, m=m: parity.decomposition_check(
                    fam, lams=s["lams"], samples=m))
                for label, fam, m in s["fams"]]

    def judge(self, label, rep):
        terms = (rep.index_over_lambda.value, rep.geo_start.value,
                 rep.geo_end.value, rep.limit_term.value)
        problems = () if rep.holds else (
            f"{label}: decomposition violated, terms {terms}",)
        return Judgement(problems=problems,
                         summary=(rep.holds,) + terms
                         + (rep.index_over_lambda.crossings,))


class Suites(Workload):
    """Four randomized suites, one case per call, fixed case seeds."""

    name = "suites"
    # calls per suite in a pass: a property call (five cases) and a
    # Maslov case take about 0.25 s, the other two about 0.07 s, so the
    # Maslov and property calls make the slow tail of the latencies
    sizes = {
        "full": {"properties": 5, "maslov": 5, "finite": 20,
                 "orientability": 20},
        "smoke": {"properties": 1, "maslov": 1, "finite": 2,
                  "orientability": 2},
    }

    def setup(self, size):
        _resolved_demos()
        return dict(self.sizes[size])

    def _calls(self, s):
        from hetindex import suites

        fns = {"properties": lambda j: suites.suite_properties(
                   trials=1, seed=j),
               "maslov": lambda j: suites.suite_maslov_mod2(
                   trials=1, seed=j),
               "finite": lambda j: suites.suite_finite_parity(
                   trials=1, seed=j),
               "orientability": lambda j: suites.suite_orientability(
                   trials=1, seed=j)}
        return [(f"{key}-{j}", lambda fn=fn, j=j: fn(j))
                for key, fn in fns.items() for j in range(s[key])]

    def judge(self, label, result):
        results = result if isinstance(result, list) else [result]
        problems = tuple(f"{label}: {r.summary()} {r.failures[:3]}"
                         for r in results if not r.ok)
        return Judgement(problems=problems,
                         summary=tuple((r.name, r.passes, r.total)
                                       for r in results))


class Bifurcate(Workload):
    """detect_bifurcation on the cubic demo over [0, 1] and [0, 0.5]."""

    name = "bifurcate"
    sizes = {"full": {"samples": 201}, "smoke": {"samples": 41}}

    def setup(self, size):
        from hetindex import bifurcation

        demos = _resolved_demos()
        cfg = demos["cubic-schrodinger"]
        nf = bifurcation.NonlinearFamily.from_sources(
            cfg["g"], cfg["z_minus"], cfg["z_plus"], t_max=cfg["t_max"],
            lam_range=tuple(cfg["lam_range"]))
        return {"nf": nf,
                "branch": bifurcation.Branch.from_sources(cfg["branch"]),
                "half": tuple(
                    demos["cubic-schrodinger-halfrange"]["lam_range"]),
                **self.sizes[size]}

    def _calls(self, s):
        from hetindex import bifurcation

        def detect(lam_range):
            return lambda: bifurcation.detect_bifurcation(
                s["nf"], s["branch"], lam_range=lam_range,
                samples=s["samples"])

        return [("full", detect(None)), ("half", detect(s["half"]))]

    def judge(self, label, v):
        problems = []
        cands = v.lam_candidates
        if label == "full":
            if not (v.bifurcates and v.index == 1):
                problems.append(f"full range: index {v.index}, expected 1")
            if len(cands) != 1 or not _near(cands[0]):
                problems.append(f"candidates {cands}, expected one near "
                                f"{LAM_STAR}")
            errors = tuple(abs(c - LAM_STAR) for c in cands)
        else:
            if v.index != 0 or v.bifurcates or "inconclusive" not in v.note:
                problems.append(f"half range: index {v.index}, note "
                                f"{v.note!r}; expected 0, inconclusive")
            errors = ()
        return Judgement(problems=tuple(problems),
                         summary=(v.bifurcates, v.index, cands, v.note),
                         lam_errors=errors)


WORKLOADS = {w.name: w for w in (Theorem(), Orbits(), Suites(), Bifurcate())}
