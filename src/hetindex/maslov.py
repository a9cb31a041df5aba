"""Lagrangian crossings: crossing forms, Maslov index, mod-2 comparison.

The ambient space is R^{2k} with the standard symplectic form
omega(u, v) = <J u, v>, J = [[0, I], [-I, 0]], pairing coordinate i
with coordinate k + i.  A Lagrangian path is a sampler ts -> (m, 2k, k),
as for ``path_from_sampler``, read over an interval that the caller
states.

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

from .errors import (
    DegenerateEndpoint,
    DegenerateForm,
    DimensionMismatch,
    InvalidInput,
    IrregularCrossing,
    NotGraphical,
    _check_positive,
    _check_samples,
    _checked_grid,
    _checked_range,
)
from .flow import (
    _sampled,
    path_from_sampler,
)
from .linalg import (
    DEGENERATE,
    Frame,
    _align_to,
    _chain,
    _signed_dets,
    orthonormalize,
)
from .z2index import IndexReport, SubspacePathPair, z2_index

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
_FD_STEP = 1e-5        # central-difference step of the crossing form
_KERNEL_TOL = 1e-6     # relative eigenvalue of B - A counted as kernel
_FORM_TOL = 1e-8
_CROSS_TOL = 1e-7
_T_RESOLUTION = 1e-10


def symplectic_form_matrix(k: int) -> np.ndarray:
    """The matrix J of the standard symplectic form on R^{2k}."""
    J = np.zeros((2 * k, 2 * k))
    J[:k, k:] = np.eye(k)
    J[k:, :k] = -np.eye(k)
    return J


def _symplectic_defect(F: np.ndarray) -> np.ndarray:
    """max |X^T Y - Y^T X| of each frame [X; Y] of an (m, 2k, k) stack."""
    k = F.shape[2]
    X, Y = F[:, :k], F[:, k:]
    D = np.swapaxes(X, 1, 2) @ Y - np.swapaxes(Y, 1, 2) @ X
    return np.abs(D).max(axis=(1, 2), initial=0.0)


def is_lagrangian(F: Frame) -> bool:
    """Whether a k-frame in R^{2k} spans a Lagrangian subspace, to
    ``_LAGRANGIAN_TOL`` (1e-8) in max |X^T Y - Y^T X|.

    Raises
    ------
    DimensionMismatch
        If the ambient dimension is odd or dim != ambient / 2.
    """
    if F.n % 2 != 0 or F.k != F.n // 2:
        raise DimensionMismatch(
            f"need a k-frame in R^(2k), got {F.k}-frame in R^{F.n}"
        )
    return bool(_symplectic_defect(F.columns[None])[0] <= _LAGRANGIAN_TOL)


def graph_frame(A):
    """Frame of the graph {(x, Ax)} of a (k, k) matrix A; for an
    (m, k, k) stack, the (m, 2k, k) array of their frames from one
    stacked QR.

    Raises
    ------
    DimensionMismatch
        If the matrices of A are not square.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[-1] != A.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got {A.shape}")
    return orthonormalize(np.concatenate(
        [np.broadcast_to(np.eye(A.shape[-1]), A.shape), A], axis=-2))


def graph_path(A_fn: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """Lagrangian path sampler ts -> (m, 2k, k) from a function that maps
    a 1-d array of instants to the (m, k, k) stack of symmetric A(t)."""
    return lambda ts: graph_frame(A_fn(ts))


def _chart_rotation(k: int, theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    R = np.zeros((2 * k, 2 * k))
    R[:k, :k] = c * np.eye(k)
    R[:k, k:] = s * np.eye(k)
    R[k:, :k] = -s * np.eye(k)
    R[k:, k:] = c * np.eye(k)
    return R


def _x_block_smin(F: np.ndarray, R: np.ndarray) -> float:
    k = F.shape[1]
    X = (R.T @ F)[:k]
    return float(np.linalg.svd(X, compute_uv=False)[-1])


def _select_chart(Fv: np.ndarray, Fw: np.ndarray) -> tuple[int, np.ndarray]:
    """First chart rotation that graphs both frames comfortably.

    Falls back to the best-scoring chart above a weak threshold; the
    pigeonhole over k + 1 rotations guarantees one of them works for
    exact Lagrangians, so failure indicates broken input.
    """
    k = Fv.shape[1]
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


def _graph_matrix(F: np.ndarray, R: np.ndarray) -> np.ndarray:
    k = F.shape[1]
    FC = R.T @ F
    X, Y = FC[:k], FC[k:]
    A = Y @ np.linalg.inv(X)
    return 0.5 * (A + A.T)


def _scan_instants(interval: tuple[float, float], samples: int) -> np.ndarray:
    _check_samples(samples, 2)
    # the ends are checked first: spacing out an infinite one warns
    return _checked_grid(np.linspace(*_checked_range(interval, "interval"),
                                     samples))


def _sample_pair(V: Callable, W: Callable, ts: np.ndarray) -> tuple:
    """Both paths' stacks at ``ts``, one call each, checked as by
    ``path_from_sampler``, then as k-frames in R^{2k} of one k and as
    Lagrangian; an error names the first bad instant."""
    Fv, Fw = _sampled(V, ts), _sampled(W, ts)
    if Fv.shape != Fw.shape or Fv.shape[1] != 2 * Fv.shape[2]:
        raise DimensionMismatch(
            f"need two paths of k-frames in R^(2k), got frames of shape "
            f"{Fv.shape[1:]} and {Fw.shape[1:]}")
    for name, F in (("V", Fv), ("W", Fw)):
        bad = _symplectic_defect(F) > _LAGRANGIAN_TOL
        if bad.any():
            raise InvalidInput(f"path {name} is not Lagrangian at "
                               f"t={float(ts[bad.argmax()])!r}")
    return Fv, Fw


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


def crossing_form(V, W, t0: float) -> CrossingData:
    """Crossing form of two Lagrangian paths at a crossing instant.

    Both paths are rewritten as graphs of symmetric A(t), B(t) in a
    common chart; the form is the central-difference derivative of
    B - A (step ``_FD_STEP``) restricted to the kernel of B(t0) - A(t0),
    its eigenvalues within ``_KERNEL_TOL`` of 0 relative to the largest.
    Each path is sampled once, at t0 - h, t0 and t0 + h.

    Raises
    ------
    NotGraphical
        If no standard chart renders both paths graphical at t0.
    InvalidInput
        If t0 is not a crossing (trivial kernel).
    DegenerateForm
        If the restricted form has an eigenvalue within _FORM_TOL of 0.
    """
    Fv, Fw = _sample_pair(V, W, np.array([t0 - _FD_STEP, t0,
                                          t0 + _FD_STEP]))
    m, R = _select_chart(Fv[1], Fw[1])
    Am, A0, Ap = (_graph_matrix(F, R) for F in Fv)
    Bm, B0, Bp = (_graph_matrix(F, R) for F in Fw)
    dA = (Ap - Am) / (2.0 * _FD_STEP)
    dB = (Bp - Bm) / (2.0 * _FD_STEP)

    D = B0 - A0
    w, P = np.linalg.eigh(D)
    scale = max(1.0, float(np.max(np.abs(w))))
    K = P[:, np.abs(w) <= _KERNEL_TOL * scale]
    if K.shape[1] == 0:
        raise InvalidInput(
            f"t0={t0} is not a crossing: ker(B - A) is trivial "
            f"(min |eig| = {np.min(np.abs(w)):.2e})"
        )
    form = K.T @ (dB - dA) @ K
    form = 0.5 * (form + form.T)
    mu = np.linalg.eigvalsh(form)
    if np.any(np.abs(mu) <= _FORM_TOL):
        raise DegenerateForm(
            f"crossing form at t0={t0} has eigenvalue "
            f"{float(np.min(np.abs(mu))):.2e} within {_FORM_TOL} of zero"
        )
    signature = int(np.sum(mu > 0) - np.sum(mu < 0))

    # lift kernel vectors back to ambient coordinates
    lifted = R @ np.vstack([K, A0 @ K])
    lifted /= np.linalg.norm(lifted, axis=0)
    return CrossingData(instant=t0, kernel=lifted, form=form,
                        signature=signature, chart=m)


def _locate_crossings(V, W, ts: np.ndarray, raw_v: np.ndarray,
                      raw_w: np.ndarray, cross_tol: float) -> list[float]:
    """Crossing instants from frames sampled once at the scan instants.

    ``raw_v`` and ``raw_w`` stack the frames of both paths there.  One
    stacked SVD of their pair matrices gives the sigma_min dip scan;
    their alignment chains give the oriented det trace, in one stacked
    determinant, for sign-change bisection.
    """
    from scipy.optimize import brentq, minimize_scalar  # census-only

    def at(path, t: float) -> np.ndarray:    # the localisers' one instant
        return _sampled(path, np.array([t]), raw_v.shape[1:])

    g = np.linalg.svd(np.concatenate([raw_v, raw_w], axis=2),
                      compute_uv=False)[:, -1]
    frames_v, frames_w = _chain(raw_v), _chain(raw_w)
    dets = np.linalg.det(np.concatenate([frames_v, frames_w], axis=2))

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
            ref_v, ref_w = frames_v[i][None], frames_w[i][None]

            def f(t):
                M = np.concatenate([_align_to(ref_v, at(V, t)),
                                    _align_to(ref_w, at(W, t))], axis=2)
                return np.linalg.det(M[0])

            t_star = brentq(f, ts[i], ts[i + 1], xtol=_T_RESOLUTION)
            register(float(t_star))

    def pair_smin(t: float) -> float:
        M = np.concatenate([at(V, t), at(W, t)], axis=2)
        return float(np.linalg.svd(M[0], compute_uv=False)[-1])

    # interior dips without a sign flip (even-order crossings)
    for i in range(1, len(ts) - 1):
        if g[i] < 0.1 and g[i] <= g[i - 1] and g[i] <= g[i + 1]:
            res = minimize_scalar(
                pair_smin, bounds=(ts[i - 1], ts[i + 1]), method="bounded",
                options={"xatol": _T_RESOLUTION},
            )
            if res.fun < cross_tol:
                register(float(res.x))

    return sorted(found)


def crossing_census(V, W, interval: tuple[float, float],
                    samples: int = 401, cross_tol: float = _CROSS_TOL,
                    eps_trans: float = 1e-6) -> tuple[CrossingData, ...]:
    """All interior crossings with their forms, in increasing order.

    Crossings are located by a determinant-sign scan with bisection
    plus a dip scan of sigma_min of the pair matrix (which catches
    even-order crossings the determinant cannot see).  The scan reads
    each path once, at the ``samples`` evenly spaced instants of
    ``interval``.  Here and in :func:`crossing_form` a sample is refused
    as by ``path_from_sampler``, then with DimensionMismatch unless both
    paths give k-frames in R^{2k} of one k, and with InvalidInput,
    naming the first instant, unless Lagrangian to ``_LAGRANGIAN_TOL``.

    Raises
    ------
    InvalidInput
        Unless ``cross_tol`` is a finite number > 0, ``samples`` is an
        integer >= 2, ``interval`` is two finite numbers a < b and the
        scan instants are strictly increasing; neither path is read
        then.
    DegenerateEndpoint
        If an endpoint is itself a crossing.
    IrregularCrossing
        If some crossing has a degenerate form; carries the instant.
    """
    _check_positive(cross_tol, "cross_tol")
    ts = _scan_instants(interval, samples)
    raw_v, raw_w = _sample_pair(V, W, ts)
    ends = np.concatenate([raw_v[[0, -1]], raw_w[[0, -1]]], axis=2)
    for sign, name in zip(_signed_dets(ends, eps_trans)[1],
                          ("left", "right")):
        if sign == DEGENERATE:
            raise DegenerateEndpoint(f"{name} endpoint is a crossing")

    out = []
    for t_star in _locate_crossings(V, W, ts, raw_v, raw_w, cross_tol):
        try:
            out.append(crossing_form(V, W, t_star))
        except DegenerateForm as exc:
            raise IrregularCrossing(
                f"irregular crossing at t = {t_star!r}: {exc}",
                instant=t_star,
            ) from exc
    out.sort(key=lambda d: d.instant)
    return tuple(out)


def maslov_index(V, W, interval: tuple[float, float],
                 samples: int = 401, cross_tol: float = _CROSS_TOL,
                 eps_trans: float = 1e-6) -> int:
    """Maslov index: sum of crossing-form signatures over the interior.

    Raises whatever :func:`crossing_census` raises, InvalidInput for a
    ``cross_tol`` that is not a finite number > 0 included.
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
    index_report: IndexReport


def mod2_compare(V, W, interval: tuple[float, float],
                 samples: int = 401, eps_trans: float = 1e-6,
                 cross_tol: float = _CROSS_TOL) -> Mod2Report:
    """Compare the Z2-index with the Maslov index mod 2.

    Both sides are computed independently: the Z2-index from endpoint
    determinant signs on an aligned frame chain over the samplers'
    paths, and the Maslov index from crossing-form signatures.  Past
    the checks below it raises what :func:`z2_index` and
    :func:`crossing_census` raise, the Z2 side first.

    Raises
    ------
    InvalidInput
        Unless ``cross_tol`` is a finite number > 0, ``samples`` is an
        integer >= 2 and ``interval`` is two finite numbers a < b;
        neither path is read then.
    """
    _check_positive(cross_tol, "cross_tol")
    grid = _scan_instants(interval, samples)
    pair = SubspacePathPair(V=path_from_sampler(V, grid),
                            W=path_from_sampler(W, grid))
    rep = z2_index(pair, eps_trans=eps_trans)
    census = crossing_census(V, W, interval=interval, samples=samples,
                             cross_tol=cross_tol, eps_trans=eps_trans)
    mas = sum(d.signature for d in census)
    return Mod2Report(
        z2=rep.value,
        maslov=mas,
        agree=(rep.value == mas % 2),
        crossings=census,
        index_report=rep,
    )
