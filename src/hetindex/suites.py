"""Randomized property suites, shared by the selftest command and tests.

Each suite draws a fixed number of random cases from a seeded
generator and checks one identity the library promises: the five
index properties (reparametrization, homotopy rel endpoints, path
additivity, symmetry, sum additivity), the Maslov mod-2 agreement,
the two finite-dimensional parity routes, loop orientability against
the index, and the three-term decomposition of the index over lambda.

Draws that violate a precondition (non-transversal endpoint, an
irregular crossing) are redrawn a bounded number of times; a genuine
identity violation is recorded as a failure, never redrawn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import block_diag, expm

from .errors import (
    BoundaryDegenerate,
    CannotClose,
    DegenerateEndpoint,
    HetindexError,
    InternalMismatch,
    IrregularCrossing,
    NotGraphical,
)
from .expr import parse_matrix
from .flow import LinearFamily, SubspacePath, path_from_sampler
from .linalg import DEGENERATE, Frame, det_sign, pair_matrix
from .maslov import graph_frame, mod2_compare
from .parity import decomposition_check, finite_parity
from .z2index import (
    SubspacePathPair,
    bundle_orientability,
    close_loop,
    z2_index,
)

__all__ = [
    "SuiteResult",
    "suite_properties",
    "suite_finite_parity",
    "suite_maslov_mod2",
    "suite_orientability",
    "suite_decomposition",
    "run_all",
    "poschl_teller_family",
]

_DRAW_TRIES = 40


@dataclass(frozen=True)
class SuiteResult:
    """Pass/fail tally of one property suite."""

    name: str
    total: int
    passes: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return self.passes == self.total

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return f"{self.name}: {self.passes}/{self.total} {status}"


def poschl_teller_family(depth: str = "2.5*lambda",
                         t_max: float = 20.0) -> LinearFamily:
    """The first-order system of -x'' + (1 - depth sech^2 t) x = 0.

    The default depth sweeps the well from flat to past the first
    bound-state threshold; with depth 2.5*lambda the exponent
    (-1 + sqrt(1 + 10 lambda))/2 reaches 1 exactly at lambda = 0.8.
    """
    q = f"1 - ({depth})*sech(t)^2"
    m = parse_matrix([["0", "1"], [q, "0"]])
    return LinearFamily.from_matrix_expr(m, k=1, t_max=t_max)


# -- random draw helpers -----------------------------------------------

def _orthonormal(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, k)))
    return Q * np.sign(np.diag(R))


def _skew(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    """Random skew-symmetric generator of operator norm ``scale``.

    Normalized so path speeds stay bounded independently of n; the
    grids used by the suites rely on that bound.
    """
    A = rng.standard_normal((n, n))
    K = (A - A.T) / 2.0
    norm = np.linalg.norm(K, 2)
    return scale * K / norm if norm > 0 else K


def _rotation_sampler(K: np.ndarray, cols: np.ndarray) -> Callable:
    def sample(t: float) -> Frame:
        return Frame(expm(t * K) @ cols)
    return sample


def _draw_rotation_pair(rng: np.random.Generator, n: int, k: int,
                        grid_points: int = 17):
    """A transversal-end pair of rotating subspace paths, or None."""
    for _ in range(_DRAW_TRIES):
        vs = _rotation_sampler(_skew(rng, n, rng.uniform(0.5, 2.5)),
                               _orthonormal(rng, n, k))
        ws = _rotation_sampler(_skew(rng, n, rng.uniform(0.5, 2.5)),
                               _orthonormal(rng, n, n - k))
        ends_ok = all(
            det_sign(pair_matrix(vs(t), ws(t))) != DEGENERATE
            for t in (0.0, 1.0)
        )
        if not ends_ok:
            continue
        grid = np.linspace(0.0, 1.0, grid_points)
        pair = SubspacePathPair(V=path_from_sampler(vs, grid),
                                W=path_from_sampler(ws, grid))
        return pair, vs, ws
    return None


def _pair_from_samplers(vs, ws, a: float, b: float,
                        points: int = 17) -> SubspacePathPair:
    grid = np.linspace(a, b, points)
    return SubspacePathPair(V=path_from_sampler(vs, grid),
                            W=path_from_sampler(ws, grid))


# -- the five index properties -----------------------------------------

def _prop_reparametrization(rng, pair, vs, ws) -> bool:
    c = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    denom = np.expm1(c)

    def phi(s: float) -> float:
        return float(np.expm1(c * s) / denom)

    warped = _pair_from_samplers(lambda s: vs(phi(s)),
                                 lambda s: ws(phi(s)), 0.0, 1.0,
                                 points=33)
    return z2_index(warped).value == z2_index(pair).value


def _prop_homotopy(rng, pair, vs, ws) -> bool:
    n = pair.n
    K = _skew(rng, n, rng.uniform(0.5, 1.5))

    def moved(t: float) -> Frame:
        # the rotation vanishes at both endpoints, so this is a
        # homotopy rel endpoints of the V-path
        angle = np.sin(np.pi * t) ** 2
        return Frame(expm(angle * K) @ vs(t).columns)

    deformed = _pair_from_samplers(moved, ws, 0.0, 1.0, points=33)
    return z2_index(deformed).value == z2_index(pair).value


def _prop_additivity(rng, pair, vs, ws) -> bool | None:
    c = None
    for _ in range(_DRAW_TRIES):
        cand = rng.uniform(0.25, 0.75)
        if det_sign(pair_matrix(vs(cand), ws(cand))) != DEGENERATE:
            c = cand
            break
    if c is None:
        return None
    whole = z2_index(pair).value
    left = z2_index(_pair_from_samplers(vs, ws, 0.0, c, 11)).value
    right = z2_index(_pair_from_samplers(vs, ws, c, 1.0, 11)).value
    return (left + right) % 2 == whole


def _prop_symmetry(rng, pair, vs, ws) -> bool:
    swapped = SubspacePathPair(V=pair.W, W=pair.V)
    return z2_index(swapped).value == z2_index(pair).value


def _prop_sum(rng, pair, vs, ws) -> bool | None:
    n2 = int(rng.integers(2, 5))
    k2 = int(rng.integers(1, n2))
    other = _draw_rotation_pair(rng, n2, k2)
    if other is None:
        return None
    _, vs2, ws2 = other

    def v_sum(t: float) -> Frame:
        return Frame(block_diag(vs(t).columns, vs2(t).columns))

    def w_sum(t: float) -> Frame:
        return Frame(block_diag(ws(t).columns, ws2(t).columns))

    summed = _pair_from_samplers(v_sum, w_sum, 0.0, 1.0)
    i1 = z2_index(_pair_from_samplers(vs, ws, 0.0, 1.0)).value
    i2 = z2_index(_pair_from_samplers(vs2, ws2, 0.0, 1.0)).value
    return z2_index(summed).value == (i1 + i2) % 2


_PROPERTIES = (
    ("property-I-reparametrization", _prop_reparametrization),
    ("property-II-homotopy", _prop_homotopy),
    ("property-III-additivity", _prop_additivity),
    ("property-IV-symmetry", _prop_symmetry),
    ("property-V-sum", _prop_sum),
)


def suite_properties(trials: int = 500, dims: Sequence[int] = (2, 3, 4, 5, 6),
                     seed: int = 0) -> list[SuiteResult]:
    """Check the five index properties on random rotating-path pairs."""
    results = []
    for ordinal, (name, prop) in enumerate(_PROPERTIES):
        rng = np.random.default_rng([seed, 101, ordinal])
        failures = []
        passes = 0
        for case in range(trials):
            n = int(rng.choice(dims))
            k = int(rng.integers(1, n))
            drawn = _draw_rotation_pair(rng, n, k)
            if drawn is None:
                failures.append((case, "no transversal draw"))
                continue
            try:
                verdict = prop(rng, *drawn)
            except HetindexError as exc:
                failures.append((case, f"{type(exc).__name__}: {exc}"))
                continue
            if verdict is None:
                failures.append((case, "no usable split point"))
            elif verdict:
                passes += 1
            else:
                failures.append((case, "identity violated"))
        results.append(SuiteResult(name=name, total=trials, passes=passes,
                                   failures=tuple(failures)))
    return results


# -- finite-dimensional parity -----------------------------------------

def suite_finite_parity(trials: int = 500, dims: Sequence[int] = (1, 2, 3, 4),
                        seed: int = 0) -> SuiteResult:
    """Determinant route against graph route on random matrix paths."""
    rng = np.random.default_rng([seed, 202])
    failures = []
    passes = 0
    for case in range(trials):
        m = int(rng.choice(dims))
        path = None
        for _ in range(_DRAW_TRIES):
            T0 = rng.standard_normal((m, m))
            T1 = rng.standard_normal((m, m))
            mid = rng.standard_normal((m, m)) * rng.uniform(0.0, 3.0)
            if (det_sign(T0) != DEGENERATE
                    and det_sign(T1) != DEGENERATE):
                path = lambda s, T0=T0, T1=T1, mid=mid: (
                    (1.0 - s) * T0 + s * T1 + s * (1.0 - s) * mid)
                break
        if path is None:
            failures.append((case, "no invertible-end draw"))
            continue
        try:
            finite_parity(path, samples=101)
        except InternalMismatch as exc:
            failures.append((case, str(exc)))
            continue
        except HetindexError as exc:
            failures.append((case, f"{type(exc).__name__}: {exc}"))
            continue
        passes += 1
    return SuiteResult(name="finite-parity-two-routes", total=trials,
                       passes=passes, failures=tuple(failures))


# -- Maslov mod 2 ------------------------------------------------------

def _trig_symmetric(rng, k: int) -> Callable:
    A0 = rng.standard_normal((k, k))
    A1 = rng.standard_normal((k, k))
    A2 = rng.standard_normal((k, k))
    A0, A1, A2 = ((M + M.T) / 2 for M in (A0, A1, A2))

    def A(t: float) -> np.ndarray:
        return A0 + A1 * np.sin(t) + A2 * np.cos(2.0 * t)
    return A


def suite_maslov_mod2(trials: int = 200, ks: Sequence[int] = (1, 2, 3),
                      seed: int = 0) -> SuiteResult:
    """Z2-index against Maslov index mod 2 on random Lagrangian pairs."""
    rng = np.random.default_rng([seed, 303])
    failures = []
    passes = 0
    for case in range(trials):
        k = int(rng.choice(ks))
        outcome = None
        for _ in range(_DRAW_TRIES):
            Af = _trig_symmetric(rng, k)
            Bf = _trig_symmetric(rng, k)
            span = float(rng.uniform(1.5, 3.0))
            try:
                rep = mod2_compare(
                    lambda t, Af=Af: graph_frame(Af(t)),
                    lambda t, Bf=Bf: graph_frame(Bf(t)),
                    interval=(0.0, span), samples=201,
                )
            except (DegenerateEndpoint, IrregularCrossing, NotGraphical):
                continue     # a bad draw, not a violation
            outcome = rep.agree
            break
        if outcome is None:
            failures.append((case, "no regular draw"))
        elif outcome:
            passes += 1
        else:
            failures.append((case, "z2 != maslov mod 2"))
    return SuiteResult(name="maslov-mod2-agreement", total=trials,
                       passes=passes, failures=tuple(failures))


# -- loop orientability ------------------------------------------------

def suite_orientability(trials: int = 200, dims: Sequence[int] = (2, 3, 4),
                        seed: int = 0) -> SuiteResult:
    """Orientability of the closed loop against the index of the pair."""
    rng = np.random.default_rng([seed, 404])
    failures = []
    passes = 0
    for case in range(trials):
        n = int(rng.choice(dims))
        k = int(rng.integers(1, n))
        drawn = _draw_rotation_pair(rng, n, k)
        if drawn is None:
            failures.append((case, "no transversal draw"))
            continue
        pair, _, _ = drawn
        try:
            value = z2_index(pair).value
            orient = bundle_orientability(close_loop(pair))
        except (CannotClose, HetindexError) as exc:
            failures.append((case, f"{type(exc).__name__}: {exc}"))
            continue
        if orient == value:
            passes += 1
        else:
            failures.append(
                (case, f"orientability {orient} != index {value}"))
    return SuiteResult(name="loop-orientability", total=trials,
                       passes=passes, failures=tuple(failures))


# -- decomposition of the index over lambda ----------------------------

def _random_split_matrix(rng, n: int, k: int) -> np.ndarray:
    # symmetric with exactly k positive eigenvalues
    Q = _orthonormal(rng, n, n)
    d = rng.uniform(0.5, 1.5, size=n)
    d[k:] = -d[k:]
    return Q @ np.diag(d) @ Q.T


def _random_connecting_family(rng, n: int, k: int) -> LinearFamily:
    """S(lambda, t) = A^- w(-t) + A^+ w(t) + lambda sech(t) C.

    The limits A^-/A^+ do not depend on lambda, so the limit term of
    the decomposition must vanish for these families.
    """
    Am = _random_split_matrix(rng, n, k)
    Ap = _random_split_matrix(rng, n, k)
    C = rng.standard_normal((n, n))

    def batched(lam, t):
        lam_b, t_b = np.broadcast_arrays(np.asarray(lam, float),
                                         np.asarray(t, float))
        w_p = 0.5 * (1.0 + np.tanh(t_b))[..., None, None]
        w_m = 0.5 * (1.0 + np.tanh(-t_b))[..., None, None]
        bump = (lam_b / np.cosh(t_b))[..., None, None]
        return Am * w_m + Ap * w_p + C * bump

    return LinearFamily.from_callable(batched, n=n, k=k, t_max=20.0,
                                      batched=batched)


def suite_decomposition(extra_families: int = 20, seed: int = 0,
                        include_poschl_teller: bool = True) -> SuiteResult:
    """Index over lambda == geo(S_0) + geo(S_1) + limit term, mod 2."""
    rng = np.random.default_rng([seed, 505])
    failures = []
    passes = 0
    total = 0
    lams = np.linspace(0.0, 1.0, 101)

    if include_poschl_teller:
        total += 1
        rep = decomposition_check(poschl_teller_family(), lams=lams,
                                  samples=151)
        if rep.holds:
            passes += 1
        else:
            failures.append(("poschl-teller", "decomposition violated"))

    for case in range(extra_families):
        total += 1
        done = False
        for _ in range(_DRAW_TRIES):
            n = int(rng.integers(2, 4))
            k = int(rng.integers(1, n))
            fam = _random_connecting_family(rng, n, k)
            try:
                rep = decomposition_check(fam, lams=lams, samples=101)
            except (BoundaryDegenerate, DegenerateEndpoint):
                continue     # nondegeneracy is a precondition of the draw
            if rep.holds:
                passes += 1
            else:
                failures.append((case, "decomposition violated"))
            done = True
            break
        if not done:
            failures.append((case, "no nondegenerate draw"))
    return SuiteResult(name="index-decomposition", total=total,
                       passes=passes, failures=tuple(failures))


def run_all(seed: int = 0) -> list[SuiteResult]:
    """Every suite at its contract-level trial counts."""
    results = list(suite_properties(seed=seed))
    results.append(suite_maslov_mod2(seed=seed))
    results.append(suite_finite_parity(seed=seed))
    results.append(suite_orientability(seed=seed))
    results.append(suite_decomposition(seed=seed))
    return results
