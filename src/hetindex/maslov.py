"""Lagrangian crossings: crossing forms, Maslov index, mod-2 comparison.

The ambient space is R^{2k} with the standard symplectic form
omega(u, v) = <J u, v>, J = [[0, I], [-I, 0]], pairing coordinate i
with coordinate k + i.  A Lagrangian path is given either as a
callable t -> Frame or as a SubspacePath of Lagrangian frames.

Near a crossing both paths are rewritten as graphs of symmetric
matrices A(t), B(t) in a common chart; among the k + 1 standard chart
rotations exp(theta_m J), theta_m = m pi / (2(k+1)), at least one
renders any two given Lagrangians graphical.  The crossing form is
the derivative difference (B' - A') restricted to the kernel of
B(t0) - A(t0); regular crossings contribute their signature to the
Maslov index.  Irregular (degenerate-form) crossings raise: the
generic-position argument that removes them is a proof device, and
silently perturbing user input would falsify the reported index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .errors import (
    DegenerateEndpoint,
    DegenerateForm,
    DimensionMismatch,
    InvalidInput,
    IrregularCrossing,
    NotGraphical,
)
from .flow import SubspacePath, path_from_sampler
from .linalg import (
    DEGENERATE,
    Frame,
    align_chain,
    align_frame,
    det_sign,
    orthonormalize,
    pair_matrix,
)
from .z2index import IndexReport, SubspacePathPair, _held, z2_index

__all__ = [
    "symplectic_form_matrix",
    "is_lagrangian",
    "graph_frame",
    "graph_path",
    "CrossingData",
    "crossing_form",
    "crossing_census",
    "maslov_index",
    "Mod2Report",
    "mod2_compare",
]

_LAGRANGIAN_TOL = 1e-8
_CHART_GOOD = 0.2
_CHART_MIN = 1e-3
_FORM_TOL = 1e-8
_CROSS_TOL = 1e-7
_T_RESOLUTION = 1e-10


def symplectic_form_matrix(k: int) -> np.ndarray:
    """The matrix J of the standard symplectic form on R^{2k}."""
    J = np.zeros((2 * k, 2 * k))
    J[:k, k:] = np.eye(k)
    J[k:, :k] = -np.eye(k)
    return J


def is_lagrangian(F: Frame, tol: float = _LAGRANGIAN_TOL) -> bool:
    """Whether a k-frame in R^{2k} spans a Lagrangian subspace.

    Raises
    ------
    DimensionMismatch
        If the ambient dimension is odd or dim != ambient / 2.
    """
    if F.n % 2 != 0 or F.k != F.n // 2:
        raise DimensionMismatch(
            f"need a k-frame in R^(2k), got {F.k}-frame in R^{F.n}"
        )
    k = F.k
    X, Y = F.columns[:k], F.columns[k:]
    return float(np.max(np.abs(X.T @ Y - Y.T @ X))) <= tol


def graph_frame(A) -> Frame:
    """Frame of the graph {(x, Ax)} of a symmetric matrix A."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    k = A.shape[0]
    return orthonormalize(np.vstack([np.eye(k), A]))


def graph_path(A_fn: Callable[[float], np.ndarray]) -> Callable[[float], Frame]:
    """Lagrangian path t -> Gr(A(t)) from a symmetric matrix function."""
    return lambda t: graph_frame(A_fn(t))


def _chart_rotation(k: int, theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    R = np.zeros((2 * k, 2 * k))
    R[:k, :k] = c * np.eye(k)
    R[:k, k:] = s * np.eye(k)
    R[k:, :k] = -s * np.eye(k)
    R[k:, k:] = c * np.eye(k)
    return R


def _x_block_smin(F: Frame, R: np.ndarray) -> float:
    k = F.k
    X = (R.T @ F.columns)[:k]
    return float(np.linalg.svd(X, compute_uv=False)[-1])


def _select_chart(Fv: Frame, Fw: Frame) -> tuple[int, np.ndarray]:
    """First chart rotation that graphs both frames comfortably.

    Falls back to the best-scoring chart above a weak threshold; the
    pigeonhole over k + 1 rotations guarantees one of them works for
    exact Lagrangians, so failure indicates broken input.
    """
    k = Fv.k
    scores = []
    for m in range(k + 1):
        theta = m * np.pi / (2.0 * (k + 1))
        R = _chart_rotation(k, theta)
        score = min(_x_block_smin(Fv, R), _x_block_smin(Fw, R))
        if score > _CHART_GOOD:
            return m, R
        scores.append((score, m, R))
    score, m, R = max(scores)
    if score > _CHART_MIN:
        return m, R
    raise NotGraphical(
        f"no common graph chart; best X-block sigma_min = {score:.2e}"
    )


def _graph_matrix(F: Frame, R: np.ndarray) -> np.ndarray:
    k = F.k
    FC = R.T @ F.columns
    X, Y = FC[:k], FC[k:]
    A = Y @ np.linalg.inv(X)
    return 0.5 * (A + A.T)


def _as_sampler(path) -> Callable[[float], Frame]:
    if isinstance(path, SubspacePath):
        return path.sampler
    if callable(path):
        return path
    raise InvalidInput("path must be a SubspacePath or a callable t -> Frame")


@dataclass(frozen=True)
class CrossingData:
    """A crossing instant with its form restricted to the intersection.

    ``kernel`` holds an orthonormal basis of V(t0) /\\ W(t0) as ambient
    columns; ``form`` is the crossing form on that basis.
    """

    instant: float
    kernel: np.ndarray
    form: np.ndarray
    signature: int
    chart: int


def crossing_form(V, W, t0: float, h: float = 1e-5,
                  kernel_tol: float = 1e-6,
                  form_tol: float = _FORM_TOL) -> CrossingData:
    """Crossing form of two Lagrangian paths at a crossing instant.

    Both paths are rewritten as graphs of symmetric A(t), B(t) in a
    common chart; the form is the central-difference derivative of
    B - A restricted to the kernel of B(t0) - A(t0).

    Raises
    ------
    NotGraphical
        If no standard chart renders both paths graphical at t0.
    InvalidInput
        If t0 is not a crossing (trivial kernel).
    DegenerateForm
        If the restricted form has an eigenvalue within form_tol of 0.
    """
    vs, ws = _as_sampler(V), _as_sampler(W)
    Fv, Fw = vs(t0), ws(t0)
    if Fv.n != Fw.n or Fv.k != Fw.k:
        raise DimensionMismatch("paths have mismatched frame shapes")
    if not (is_lagrangian(Fv) and is_lagrangian(Fw)):
        raise InvalidInput("paths are not Lagrangian at t0")
    m, R = _select_chart(Fv, Fw)

    def AB(t: float) -> tuple[np.ndarray, np.ndarray]:
        return _graph_matrix(vs(t), R), _graph_matrix(ws(t), R)

    A0, B0 = _graph_matrix(Fv, R), _graph_matrix(Fw, R)
    Ap, Bp = AB(t0 + h)
    Am, Bm = AB(t0 - h)
    dA = (Ap - Am) / (2.0 * h)
    dB = (Bp - Bm) / (2.0 * h)

    D = B0 - A0
    w, P = np.linalg.eigh(D)
    scale = max(1.0, float(np.max(np.abs(w))))
    K = P[:, np.abs(w) <= kernel_tol * scale]
    if K.shape[1] == 0:
        raise InvalidInput(
            f"t0={t0} is not a crossing: ker(B - A) is trivial "
            f"(min |eig| = {np.min(np.abs(w)):.2e})"
        )
    form = K.T @ (dB - dA) @ K
    form = 0.5 * (form + form.T)
    mu = np.linalg.eigvalsh(form)
    if np.any(np.abs(mu) <= form_tol):
        raise DegenerateForm(
            f"crossing form at t0={t0} has eigenvalue "
            f"{float(np.min(np.abs(mu))):.2e} within {form_tol} of zero"
        )
    signature = int(np.sum(mu > 0) - np.sum(mu < 0))

    # lift kernel vectors back to ambient coordinates
    lifted = R @ np.vstack([K, A0 @ K])
    lifted /= np.linalg.norm(lifted, axis=0)
    return CrossingData(instant=t0, kernel=lifted, form=form,
                        signature=signature, chart=m)


def _pair_smin(v: Frame, w: Frame) -> float:
    return float(np.linalg.svd(pair_matrix(v, w), compute_uv=False)[-1])


def _locate_crossings(vs, ws, ts: np.ndarray, raw_v: list, raw_w: list,
                      cross_tol: float) -> list[float]:
    """Crossing instants from frames sampled once at the scan instants.

    The raw frames give the sigma_min dip scan; their alignment chains
    give the oriented det trace for sign-change bisection.
    """
    g = np.array([_pair_smin(v, w) for v, w in zip(raw_v, raw_w)])
    frames_v, frames_w = align_chain(raw_v), align_chain(raw_w)
    dets = np.array([np.linalg.det(pair_matrix(v, w))
                     for v, w in zip(frames_v, frames_w)])

    found: list[float] = []
    # the dip localizer is only accurate to ~sqrt(eps); a crossing seen
    # by both routes must collapse to one instant
    dedupe = 1e-6 * max(1.0, abs(ts[-1] - ts[0]))

    def register(t: float):
        for t_known in found:
            if abs(t - t_known) <= dedupe:
                return
        found.append(t)

    # sign flips: bisect the aligned det to the time resolution
    for i in range(len(ts) - 1):
        if dets[i] == 0.0:
            register(ts[i])
            continue
        if dets[i] * dets[i + 1] < 0.0:
            ref_v, ref_w = frames_v[i], frames_w[i]

            def f(t):
                M = pair_matrix(align_frame(ref_v, vs(t)),
                                align_frame(ref_w, ws(t)))
                return np.linalg.det(M)

            t_star = brentq(f, ts[i], ts[i + 1], xtol=_T_RESOLUTION)
            register(float(t_star))

    # interior dips without a sign flip (even-order crossings)
    for i in range(1, len(ts) - 1):
        if g[i] < 0.1 and g[i] <= g[i - 1] and g[i] <= g[i + 1]:
            res = minimize_scalar(
                lambda t: _pair_smin(vs(t), ws(t)),
                bounds=(ts[i - 1], ts[i + 1]), method="bounded",
                options={"xatol": _T_RESOLUTION},
            )
            if res.fun < cross_tol:
                register(float(res.x))

    return sorted(found)


def _interval(V, interval) -> tuple[float, float]:
    """The given interval, else the grid span of a SubspacePath."""
    if interval is not None:
        return interval
    if isinstance(V, SubspacePath):
        return float(V.grid[0]), float(V.grid[-1])
    raise InvalidInput("interval required for callable paths")


def crossing_census(V, W, interval: tuple[float, float] | None = None,
                    samples: int = 401, cross_tol: float = _CROSS_TOL,
                    eps_trans: float = 1e-6) -> tuple[CrossingData, ...]:
    """All interior crossings with their forms, in increasing order.

    Crossings are located by a determinant-sign scan with bisection
    plus a dip scan of sigma_min of the pair matrix (which catches
    even-order crossings the determinant cannot see).

    Raises
    ------
    DegenerateEndpoint
        If an endpoint is itself a crossing.
    IrregularCrossing
        If some crossing has a degenerate form; carries the instant.
    """
    vs, ws = _as_sampler(V), _as_sampler(W)
    ts = np.linspace(*_interval(V, interval), samples)
    raw_v = [vs(t) for t in ts]
    raw_w = [ws(t) for t in ts]
    for i, name in ((0, "left"), (-1, "right")):
        if det_sign(pair_matrix(raw_v[i], raw_w[i]),
                    eps_trans) == DEGENERATE:
            raise DegenerateEndpoint(f"{name} endpoint is a crossing")

    out = []
    for t_star in _locate_crossings(vs, ws, ts, raw_v, raw_w, cross_tol):
        try:
            out.append(crossing_form(vs, ws, t_star))
        except DegenerateForm as exc:
            raise IrregularCrossing(
                f"irregular crossing at t = {t_star!r}: {exc}",
                instant=t_star,
            ) from exc
    out.sort(key=lambda d: d.instant)
    return tuple(out)


def maslov_index(V, W, interval: tuple[float, float] | None = None,
                 samples: int = 401, cross_tol: float = _CROSS_TOL,
                 eps_trans: float = 1e-6) -> int:
    """Maslov index: sum of crossing-form signatures over the interior.

    Raises whatever :func:`crossing_census` raises.
    """
    census = crossing_census(V, W, interval=interval, samples=samples,
                             cross_tol=cross_tol, eps_trans=eps_trans)
    return sum(d.signature for d in census)


@dataclass(frozen=True)
class Mod2Report:
    """Side-by-side Z2-index and Maslov index of one Lagrangian pair.

    ``crossings`` holds the CrossingData census; unlike the det-trace
    flips in ``index_report`` it also lists signature-zero crossings.
    """

    z2: int
    maslov: int
    agree: bool
    crossings: tuple
    index_report: IndexReport | None = None


def mod2_compare(V, W, interval: tuple[float, float] | None = None,
                 samples: int = 401, eps_trans: float = 1e-6,
                 cross_tol: float = _CROSS_TOL) -> Mod2Report:
    """Compare the Z2-index with the Maslov index mod 2.

    Both sides are computed independently from one sampling of each
    path: the Z2-index from endpoint determinant signs on an aligned
    frame chain, the Maslov index from crossing-form signatures.
    """
    vs, ws = _as_sampler(V), _as_sampler(W)
    a, b = _interval(V, interval)
    grid = np.linspace(a, b, samples)
    pair = SubspacePathPair(
        V=path_from_sampler(vs, grid),
        W=path_from_sampler(ws, grid),
    )
    rep = z2_index(pair, eps_trans=eps_trans)

    # the census scans the instants of ``grid``: reuse the frames there
    census = crossing_census(_held(pair.V), _held(pair.W),
                             interval=(a, b), samples=samples,
                             cross_tol=cross_tol, eps_trans=eps_trans)
    mas = sum(d.signature for d in census)
    return Mod2Report(
        z2=rep.value,
        maslov=mas,
        agree=(rep.value == mas % 2),
        crossings=census,
        index_report=rep,
    )
