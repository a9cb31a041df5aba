"""Randomized property suites, shared by the selftest command and tests.

Each suite draws a fixed number of random cases from a seeded
generator and checks one identity the library promises: the five
index properties (reparametrization, homotopy rel endpoints, path
additivity, symmetry, sum additivity), the Maslov mod-2 agreement,
the two finite-dimensional parity routes, loop orientability against
the index, and the three-term decomposition of the index over lambda.

Draws that violate a precondition (non-transversal endpoint, an
irregular crossing) are redrawn a bounded number of times; a genuine
identity violation is recorded as a failure, never redrawn, and so is
any other package error a case raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BoundaryDegenerate,
    DegenerateEndpoint,
    HetindexError,
    InternalMismatch,
    IrregularCrossing,
    NotGraphical,
)
from .expr import parse_matrix
from .flow import LinearFamily, _check_samples, path_from_sampler
from .linalg import DEGENERATE, _signed_dets, det_sign
from .maslov import graph_path, mod2_compare
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
#: ambient (or Lagrangian half) dimensions the suites draw from
_PROPERTY_DIMS = (2, 3, 4, 5, 6)
_FINITE_DIMS = (1, 2, 3, 4)
_MASLOV_KS = (1, 2, 3)
_LOOP_DIMS = (2, 3, 4)


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


def _tally(name: str, labels: Sequence, case: Callable) -> SuiteResult:
    """Run ``case(label)`` once per label, in order, and tally the cases.

    A case returns None when it passes and its failure message when it
    fails; a package error it raises is its failure, recorded as
    ``"<Type>: <message>"``, and the suite goes on to the next case.
    """
    failures = []
    for label in labels:
        try:
            failure = case(label)
        except HetindexError as exc:
            failure = f"{type(exc).__name__}: {exc}"
        if failure is not None:
            failures.append((label, failure))
    return SuiteResult(name=name, total=len(labels),
                       passes=len(labels) - len(failures),
                       failures=tuple(failures))


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


def _skew_expm(K: np.ndarray) -> Callable:
    """ts -> the (len(ts), n, n) stack of expm(t K) for a skew-symmetric
    K, from one eigendecomposition iK = V diag(mu) V^H of the Hermitian
    iK, so that expm(t K) = Re(V diag(exp(-i mu t)) V^H)."""
    mu, V = np.linalg.eigh(1j * K)
    Vh = V.conj().T
    return lambda ts: np.real((V * np.exp(-1j * np.outer(ts, mu))[:, None, :])
                              @ Vh)


def _rotation_sampler(K: np.ndarray, cols: np.ndarray) -> Callable:
    rotation = _skew_expm(K)
    return lambda ts: rotation(ts) @ cols


def _transversal_at(vs, ws, ts) -> bool:
    """Whether the pair of samplers is transversal at every one of ``ts``."""
    signs = _signed_dets(np.concatenate([vs(ts), ws(ts)], axis=2), 1e-6)[1]
    return bool(np.all(signs != DEGENERATE))


def _draw_rotation_pair(rng: np.random.Generator, n: int, k: int):
    """A transversal-end pair of rotating subspace paths, or None."""
    for _ in range(_DRAW_TRIES):
        vs = _rotation_sampler(_skew(rng, n, rng.uniform(0.5, 2.5)),
                               _orthonormal(rng, n, k))
        ws = _rotation_sampler(_skew(rng, n, rng.uniform(0.5, 2.5)),
                               _orthonormal(rng, n, n - k))
        if _transversal_at(vs, ws, np.array([0.0, 1.0])):
            return _pair_from_samplers(vs, ws, 0.0, 1.0), vs, ws
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

    def phi(s: np.ndarray) -> np.ndarray:
        return np.expm1(c * s) / denom

    warped = _pair_from_samplers(lambda s: vs(phi(s)),
                                 lambda s: ws(phi(s)), 0.0, 1.0,
                                 points=33)
    return z2_index(warped).value == z2_index(pair).value


def _prop_homotopy(rng, pair, vs, ws) -> bool:
    n = pair.n
    rotation = _skew_expm(_skew(rng, n, rng.uniform(0.5, 1.5)))

    def moved(ts: np.ndarray) -> np.ndarray:
        # the rotation vanishes at both endpoints, so this is a
        # homotopy rel endpoints of the V-path
        return rotation(np.sin(np.pi * ts) ** 2) @ vs(ts)

    deformed = _pair_from_samplers(moved, ws, 0.0, 1.0, points=33)
    return z2_index(deformed).value == z2_index(pair).value


def _prop_additivity(rng, pair, vs, ws) -> bool | None:
    c = None
    for _ in range(_DRAW_TRIES):
        cand = rng.uniform(0.25, 0.75)
        if _transversal_at(vs, ws, np.array([cand])):
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
    pair2, vs2, ws2 = other

    def block_sum(f, g) -> Callable:
        def sample(ts: np.ndarray) -> np.ndarray:
            F, G = f(ts), g(ts)
            out = np.zeros((len(ts), F.shape[1] + G.shape[1],
                            F.shape[2] + G.shape[2]))
            out[:, :F.shape[1], :F.shape[2]] = F
            out[:, F.shape[1]:, F.shape[2]:] = G
            return out
        return sample

    v_sum, w_sum = block_sum(vs, vs2), block_sum(ws, ws2)

    summed = _pair_from_samplers(v_sum, w_sum, 0.0, 1.0)
    i1, i2 = z2_index(pair).value, z2_index(pair2).value
    return z2_index(summed).value == (i1 + i2) % 2


_PROPERTIES = (
    ("property-I-reparametrization", _prop_reparametrization),
    ("property-II-homotopy", _prop_homotopy),
    ("property-III-additivity", _prop_additivity),
    ("property-IV-symmetry", _prop_symmetry),
    ("property-V-sum", _prop_sum),
)


def suite_properties(trials: int = 500, seed: int = 0) -> list[SuiteResult]:
    """Check the five index properties on random rotating-path pairs."""
    _check_samples(trials, 1, "trials")
    results = []
    for ordinal, (name, prop) in enumerate(_PROPERTIES):
        rng = np.random.default_rng([seed, 101, ordinal])

        def case(_):
            n = int(rng.choice(_PROPERTY_DIMS))
            k = int(rng.integers(1, n))
            drawn = _draw_rotation_pair(rng, n, k)
            if drawn is None:
                return "no transversal draw"
            verdict = prop(rng, *drawn)
            if verdict is None:
                return "no usable split point"
            return None if verdict else "identity violated"

        results.append(_tally(name, range(trials), case))
    return results


# -- finite-dimensional parity -----------------------------------------

def suite_finite_parity(trials: int = 500, seed: int = 0) -> SuiteResult:
    """Determinant route against graph route on random matrix paths."""
    _check_samples(trials, 1, "trials")
    rng = np.random.default_rng([seed, 202])

    def case(_):
        m = int(rng.choice(_FINITE_DIMS))
        for _ in range(_DRAW_TRIES):
            T0 = rng.standard_normal((m, m))
            T1 = rng.standard_normal((m, m))
            mid = rng.standard_normal((m, m)) * rng.uniform(0.0, 3.0)
            if (det_sign(T0) != DEGENERATE
                    and det_sign(T1) != DEGENERATE):
                break
        else:
            return "no invertible-end draw"
        try:
            finite_parity(lambda s: (1.0 - s) * T0 + s * T1
                          + s * (1.0 - s) * mid, samples=101)
        except InternalMismatch as exc:
            return str(exc)
        return None

    return _tally("finite-parity-two-routes", range(trials), case)


# -- Maslov mod 2 ------------------------------------------------------

def _trig_symmetric(rng, k: int) -> Callable:
    A0 = rng.standard_normal((k, k))
    A1 = rng.standard_normal((k, k))
    A2 = rng.standard_normal((k, k))
    A0, A1, A2 = ((M + M.T) / 2 for M in (A0, A1, A2))

    def A(ts: np.ndarray) -> np.ndarray:
        ts = ts[:, None, None]
        return A0 + A1 * np.sin(ts) + A2 * np.cos(2.0 * ts)
    return graph_path(A)


def suite_maslov_mod2(trials: int = 200, seed: int = 0) -> SuiteResult:
    """Z2-index against Maslov index mod 2 on random Lagrangian pairs."""
    _check_samples(trials, 1, "trials")
    rng = np.random.default_rng([seed, 303])

    def case(_):
        k = int(rng.choice(_MASLOV_KS))
        for _ in range(_DRAW_TRIES):
            V = _trig_symmetric(rng, k)
            W = _trig_symmetric(rng, k)
            span = float(rng.uniform(1.5, 3.0))
            try:
                rep = mod2_compare(V, W, interval=(0.0, span), samples=201)
            except (DegenerateEndpoint, IrregularCrossing, NotGraphical):
                continue     # a bad draw, not a violation
            return None if rep.agree else "z2 != maslov mod 2"
        return "no regular draw"

    return _tally("maslov-mod2-agreement", range(trials), case)


# -- loop orientability ------------------------------------------------

def suite_orientability(trials: int = 200, seed: int = 0) -> SuiteResult:
    """Orientability of the closed loop against the index of the pair."""
    _check_samples(trials, 1, "trials")
    rng = np.random.default_rng([seed, 404])

    def case(_):
        n = int(rng.choice(_LOOP_DIMS))
        k = int(rng.integers(1, n))
        drawn = _draw_rotation_pair(rng, n, k)
        if drawn is None:
            return "no transversal draw"
        pair = drawn[0]
        value = z2_index(pair).value
        orient = bundle_orientability(close_loop(pair))
        return (None if orient == value
                else f"orientability {orient} != index {value}")

    return _tally("loop-orientability", range(trials), case)


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
        w_p = 0.5 * (1.0 + np.tanh(t))[..., None, None]
        w_m = 0.5 * (1.0 + np.tanh(-t))[..., None, None]
        bump = (lam / np.cosh(t))[..., None, None]
        return Am * w_m + Ap * w_p + C * bump

    return LinearFamily.from_callable(batched, n=n, k=k, t_max=20.0,
                                      batched=batched)


def suite_decomposition(extra_families: int = 20,
                        seed: int = 0) -> SuiteResult:
    """Index over lambda == geo(S_0) + geo(S_1) + limit term, mod 2."""
    _check_samples(extra_families, 0, "extra_families")
    rng = np.random.default_rng([seed, 505])
    lams = np.linspace(0.0, 1.0, 101)

    def case(label):
        if label == "poschl-teller":
            rep = decomposition_check(poschl_teller_family(), lams=lams,
                                      samples=151)
            return None if rep.holds else "decomposition violated"
        for _ in range(_DRAW_TRIES):
            n = int(rng.integers(2, 4))
            k = int(rng.integers(1, n))
            fam = _random_connecting_family(rng, n, k)
            try:
                rep = decomposition_check(fam, lams=lams, samples=101)
            except (BoundaryDegenerate, DegenerateEndpoint):
                continue     # nondegeneracy is a precondition of the draw
            return None if rep.holds else "decomposition violated"
        return "no nondegenerate draw"

    return _tally("index-decomposition",
                  ("poschl-teller", *range(extra_families)), case)


def run_all(seed: int = 0) -> list[SuiteResult]:
    """Every suite at its contract-level trial counts."""
    results = list(suite_properties(seed=seed))
    results.append(suite_maslov_mod2(seed=seed))
    results.append(suite_finite_parity(seed=seed))
    results.append(suite_orientability(seed=seed))
    results.append(suite_decomposition(seed=seed))
    return results
