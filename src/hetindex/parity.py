"""Parity of operator paths d/dt - S_lambda and the index theorem.

The parity of a path of boundary-value operators A_lambda is computed
two independent ways and cross-checked:

* finite-dimensional matrix paths T(s): endpoint determinant signs,
  against the Z2-index of the graph path (Gr(T(s)), R^m x 0);
* operator paths: a Crank-Nicolson discretization of d/dt - S on
  [-tau, tau] with spectral boundary rows (x(-tau) constrained to
  E^u(-tau), x(tau) to E^s(tau)), whose determinant sign is tracked
  over a lambda-grid with lambda-aligned boundary frames.

The determinant sign of the large sparse matrix comes from a pivoted
LU factorization (permutation parities times pivot signs); magnitudes
are discarded, so no overflow for any grid size.  The index-theorem
verifier compares the operator parity with the Z2-index of the
boundary-subspace pair lambda -> (E^s(0), E^u(0)), and the
decomposition checker splits that index into geometric parities of the
end families plus a limit-subspace term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from .errors import (
    DegenerateEndpoint,
    HypothesisFailure,
    InternalMismatch,
    UnstableTruncation,
)
from .flow import (
    HypothesisReport,
    LinearFamily,
    SubspacePath,
    asymptotic_limits,
    check_A1_A3,
    path_from_sampler,
    subspace_at,
    subspaces_over_lambda,
)
from .linalg import (
    DEGENERATE,
    Frame,
    align_chain,
    align_frame,
    det_sign,
    orthogonal_complement,
    orthonormalize,
    pair_matrix,
)
from .z2index import (
    IndexReport,
    SubspacePathPair,
    geometric_parity,
    z2_index,
)

__all__ = [
    "DiscretizedOperator",
    "ParityReport",
    "KernelReport",
    "TheoremReport",
    "DecompositionReport",
    "finite_parity",
    "discretize",
    "sparse_det_sign",
    "kernel_dimension",
    "operator_parity",
    "verify_index_theorem",
    "decomposition_check",
]


# -- finite-dimensional parity -----------------------------------------

def finite_parity(T_path: Callable[[float], np.ndarray],
                  samples: int = 201, eps_trans: float = 1e-6) -> int:
    """Parity of a path of m x m matrices on [0, 1] with invertible ends.

    Computed as 0 iff det T(0) and det T(1) share their sign, and
    independently as the Z2-index of the pair (Gr(T(s)), R^m x 0) in
    R^{2m}; the two routes must agree.

    Raises
    ------
    DegenerateEndpoint
        If T(0) or T(1) is numerically singular.
    InternalMismatch
        If the two routes disagree (internal bug trap).
    """
    T0 = np.atleast_2d(np.asarray(T_path(0.0), dtype=float))
    T1 = np.atleast_2d(np.asarray(T_path(1.0), dtype=float))
    m = T0.shape[0]
    s0, s1 = det_sign(T0, eps_trans), det_sign(T1, eps_trans)
    if s0 == DEGENERATE or s1 == DEGENERATE:
        raise DegenerateEndpoint("endpoint matrix numerically singular")
    det_route = 0 if s0 * s1 > 0 else 1

    lambda0 = orthonormalize(np.vstack([np.eye(m), np.zeros((m, m))]))

    def graph(s: float) -> Frame:
        T = np.atleast_2d(np.asarray(T_path(s), dtype=float))
        return orthonormalize(np.vstack([np.eye(m), T]))

    grid = np.linspace(0.0, 1.0, samples)
    pair = SubspacePathPair(
        V=path_from_sampler(graph, grid),
        W=path_from_sampler(lambda s: lambda0, grid),
    )
    graph_route = z2_index(pair, eps_trans=eps_trans).value
    if graph_route != det_route:
        raise InternalMismatch(
            f"determinant route ({det_route}) and graph route "
            f"({graph_route}) disagree"
        )
    return det_route


# -- discretized operators ---------------------------------------------

@dataclass(frozen=True)
class DiscretizedOperator:
    """Square matrix discretizing d/dt - S with spectral boundary rows.

    Row layout: (n - k) rows B_u^T x_0 = 0 on top, then N blocks of n
    midpoint rows (x_{i+1} - x_i)/h - S(t_{i+1/2}) (x_i + x_{i+1})/2,
    then k rows B_s^T x_N = 0, for (N + 1) n rows and columns total.
    """

    lam: float
    tau: float
    N: int
    matrix: sp.csc_matrix
    e_u: Frame
    e_s: Frame
    b_u: Frame
    b_s: Frame


def _operator_template(n: int, k: int, N: int):
    """Static COO index pattern shared by every lambda."""
    nbu = n - k
    rows = [np.repeat(np.arange(nbu), n)]
    cols = [np.tile(np.arange(n), nbu)]

    i_idx = np.arange(N)
    rr = np.broadcast_to(
        nbu + i_idx[:, None, None] * n + np.arange(n)[None, :, None],
        (N, n, n)).ravel()
    ccA = np.broadcast_to(
        i_idx[:, None, None] * n + np.arange(n)[None, None, :],
        (N, n, n)).ravel()
    rows += [rr, rr]
    cols += [ccA, ccA + n]

    rows.append(np.repeat(nbu + N * n + np.arange(k), n))
    cols.append(np.tile(N * n + np.arange(n), k))
    return np.concatenate(rows), np.concatenate(cols)


def _assemble(template, n: int, N: int, h: float, S_mid: np.ndarray,
              BuT: np.ndarray, BsT: np.ndarray) -> sp.csc_matrix:
    eye = np.eye(n) / h
    A_blk = -eye[None, :, :] - 0.5 * S_mid
    B_blk = eye[None, :, :] - 0.5 * S_mid
    data = np.concatenate([
        BuT.ravel(), A_blk.ravel(), B_blk.ravel(), BsT.ravel(),
    ])
    size = (N + 1) * n
    rows, cols = template
    return sp.csc_matrix((data, (rows, cols)), shape=(size, size))


def _operators(fam: LinearFamily, lams: Sequence[float], tau: float, N: int,
               b_u: Sequence[Frame], b_s: Sequence[Frame]):
    """Yield the operator at each of ``lams``, boundary rows from b_u, b_s.

    S is evaluated at all lambdas and midpoints in one call; the sparse
    matrices are assembled one at a time.
    """
    h = 2.0 * tau / N
    mids = -tau + h * (np.arange(N) + 0.5)
    S_all = fam.evaluate_many(np.asarray(lams, dtype=float)[:, None],
                              mids[None, :])
    template = _operator_template(fam.n, fam.k, N)
    for S, bu, bs in zip(S_all, b_u, b_s):
        yield _assemble(template, fam.n, N, h, S, bu.columns.T, bs.columns.T)


def discretize(fam: LinearFamily, lam: float, tau: float, N: int,
               boundary: tuple[Frame, Frame] | None = None
               ) -> DiscretizedOperator:
    """Crank-Nicolson discretization of d/dt - S(lambda, .) on [-tau, tau].

    ``boundary`` optionally supplies (E^u(-tau), E^s(tau)) frames, as a
    lambda-sweep must to keep them aligned; otherwise they are computed
    here.
    """
    if boundary is None:
        e_u = subspace_at(fam, lam, "unstable", -tau)
        e_s = subspace_at(fam, lam, "stable", tau)
    else:
        e_u, e_s = boundary
    b_u = orthogonal_complement(e_u)
    b_s = orthogonal_complement(e_s)
    M, = _operators(fam, [lam], tau, N, [b_u], [b_s])
    return DiscretizedOperator(lam=lam, tau=tau, N=N, matrix=M,
                               e_u=e_u, e_s=e_s, b_u=b_u, b_s=b_s)


def _perm_parity(p: np.ndarray) -> int:
    """Sign of the permutation i -> p[i], (-1)^(n - #cycles).

    The cycles are the weakly connected components of the graph with
    one edge i -> p[i], held as a CSR matrix with one entry per row.
    """
    p = np.asarray(p)
    n = len(p)
    graph = sp.csr_matrix((np.ones(n, dtype=np.int8), p, np.arange(n + 1)),
                          shape=(n, n))
    cycles = csgraph.connected_components(graph, connection="weak",
                                          return_labels=False)
    return -1 if (n - cycles) % 2 else 1


def sparse_det_sign(M: sp.spmatrix) -> int:
    """Sign of det of a sparse matrix via LU pivot signs.

    Product of the two permutation parities and the signs of the U
    diagonal; returns 0 when a pivot is exactly zero or the
    factorization reports singularity.
    """
    try:
        lu = spla.splu(M.tocsc())
    except RuntimeError:
        return 0
    diag = lu.U.diagonal()
    if np.any(diag == 0.0):
        return 0
    sign = _perm_parity(lu.perm_r) * _perm_parity(lu.perm_c)
    negs = int(np.sum(diag < 0.0))
    return sign * (-1 if negs % 2 else 1)


@dataclass(frozen=True)
class KernelReport:
    """Smallest singular values of a discretized operator.

    ``dim`` counts relative singular values below ``rel_tol``; the
    smallest few and sigma_max are retained as evidence.
    """

    dim: int
    smallest: tuple
    sigma_max: float
    rel_tol: float

    @property
    def relative(self) -> tuple:
        return tuple(s / self.sigma_max for s in self.smallest)


def _sigma_max_estimate(M: sp.spmatrix, iters: int = 30) -> float:
    """Largest singular value by power iteration on A^T A.

    A slight underestimate only tightens the relative kernel
    threshold; the kernel margin is orders of magnitude, so the
    handful of iterations is plenty.
    """
    rng = np.random.default_rng(0)
    v = rng.standard_normal(M.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = M.T @ (M @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return float(np.linalg.norm(M @ v))


def kernel_dimension(op: DiscretizedOperator, rel_tol: float = 1e-6,
                     count: int = 4) -> KernelReport:
    """Numerical kernel dimension via shift-inverted smallest squares.

    The smallest singular values come from a shift-invert eigensolve
    of A^T A with the inverse applied through one sparse LU of A.
    """
    M = op.matrix
    size = M.shape[0]
    count = min(count, size - 2)
    sigma_max = _sigma_max_estimate(M)
    lu = spla.splu(M)
    AtA = spla.LinearOperator(
        (size, size), matvec=lambda x: M.T @ (M @ x))
    OPinv = spla.LinearOperator(
        (size, size), matvec=lambda x: lu.solve(lu.solve(x, trans="T")))
    vals = spla.eigsh(AtA, k=count, sigma=0, OPinv=OPinv,
                      return_eigenvectors=False)
    smallest = tuple(sorted(float(np.sqrt(abs(v))) for v in vals))
    dim = int(np.sum(np.array(smallest) < rel_tol * sigma_max))
    return KernelReport(dim=dim, smallest=smallest, sigma_max=sigma_max,
                        rel_tol=rel_tol)


def _sigma_min_estimate(lu, size: int, iters: int = 6) -> float:
    """Smallest singular value estimate by inverse power iteration."""
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(size)
    v /= np.linalg.norm(v)
    mu = 0.0
    for _ in range(iters):
        w = lu.solve(lu.solve(v, trans="T"))
        mu = float(np.linalg.norm(w))
        v = w / mu
    return 1.0 / np.sqrt(mu) if mu > 0 else 0.0


# -- operator parity over a lambda sweep -------------------------------

@dataclass(frozen=True)
class ParityReport:
    """Determinant-sign trace of the discretized family over lambda.

    ``flips`` holds the localized sign-change instants lambda*;
    stability flags record whether re-runs at (2 tau, 2 N) and
    (tau, 2 N) reproduced the value (None when not attempted).  The
    value depends on the two endpoint signs only, so a re-run signs
    just its two endpoint operators, over boundary frames aligned
    along the whole lambda-grid.
    """

    value: int
    lams: np.ndarray
    det_signs: np.ndarray
    flips: tuple
    tau: float
    N: int
    endpoint_kernel_dims: tuple
    stable_tau: bool | None = None
    stable_N: bool | None = None
    sigma_mins: np.ndarray | None = None


def operator_parity(fam: LinearFamily, lams: Sequence[float] | None = None,
                    tau: float = 15.0, N: int = 3000,
                    kernel_rel_tol: float = 1e-6,
                    localize_tol: float = 1e-3,
                    stability: bool = True,
                    track_sigma: bool = False,
                    rtol: float = 1e-9, atol: float = 1e-12) -> ParityReport:
    """Parity of the operator path over a lambda-grid.

    Boundary frames are aligned along lambda before any determinant is
    taken; without that the per-lambda signs are meaningless.  The
    value compares the endpoint signs; interior flips are localized by
    bisection to ``localize_tol``.

    Raises
    ------
    DegenerateEndpoint
        If an endpoint operator has a nontrivial numerical kernel.
    UnstableTruncation
        If doubling tau or N changes the value (only when
        ``stability`` is set).
    """
    if lams is None:
        lams = np.linspace(0.0, 1.0, 201)
    lams = np.asarray(lams, dtype=float)
    frames = _boundary_frames(fam, lams, tau, rtol, atol)
    b_u, b_s = frames[2:]

    def factor(i: int, M: sp.csc_matrix):
        s = sparse_det_sign(M)
        sig = None
        if track_sigma and s != 0:
            sig = _sigma_min_estimate(spla.splu(M), M.shape[0])
        return s, sig, M if i in (0, len(lams) - 1) else None

    results = [factor(i, M) for i, M in
               enumerate(_operators(fam, lams, tau, N, b_u, b_s))]
    signs = np.array([r[0] for r in results], dtype=int)
    sigma = (np.array([r[1] if r[1] is not None else np.nan
                       for r in results])
             if track_sigma else None)

    end_dims = _check_endpoints(lams, tau, N, frames,
                                (results[0][2], results[-1][2]),
                                (signs[0], signs[-1]), kernel_rel_tol)
    value = 0 if signs[0] == signs[-1] else 1

    flips = _localize_flips(fam, lams, signs, tau, N, frames,
                            localize_tol, rtol, atol)

    stable_tau = stable_N = None
    if stability:
        # the (tau, 2N) re-run has the same frames: they depend on tau,
        # rtol and atol, not on N
        value_tau = _endpoint_value(
            fam, lams, 2.0 * tau, 2 * N,
            _boundary_frames(fam, lams, 2.0 * tau, rtol, atol),
            kernel_rel_tol)
        value_N = _endpoint_value(fam, lams, tau, 2 * N, frames,
                                  kernel_rel_tol)
        stable_tau = value_tau == value
        stable_N = value_N == value
        if not (stable_tau and stable_N):
            raise UnstableTruncation(
                f"parity {value} changed under doubling: "
                f"2tau -> {value_tau}, 2N -> {value_N}"
            )

    return ParityReport(value=value, lams=lams, det_signs=signs,
                        flips=tuple(flips), tau=tau, N=N,
                        endpoint_kernel_dims=tuple(end_dims),
                        stable_tau=stable_tau, stable_N=stable_N,
                        sigma_mins=sigma)


def _boundary_frames(fam: LinearFamily, lams: np.ndarray, tau: float,
                     rtol: float, atol: float) -> tuple:
    """(E^u(-tau), E^s(tau), B_u, B_s) per lambda, each aligned along lams.

    B_u and B_s are the complements whose transposes form the boundary
    rows.
    """
    e_u = subspaces_over_lambda(fam, lams, "unstable", -tau, rtol, atol)
    e_s = subspaces_over_lambda(fam, lams, "stable", tau, rtol, atol)
    b_u = align_chain([orthogonal_complement(f) for f in e_u])
    b_s = align_chain([orthogonal_complement(f) for f in e_s])
    return e_u, e_s, b_u, b_s


def _check_endpoints(lams: np.ndarray, tau: float, N: int, frames: tuple,
                     mats: tuple, signs: tuple,
                     kernel_rel_tol: float) -> tuple:
    """Kernel dimensions of the two endpoint operators ``mats``.

    Raises DegenerateEndpoint unless both kernels are trivial and both
    determinant ``signs`` are nonzero.
    """
    e_u, e_s, b_u, b_s = frames
    dims = []
    for i, M in zip((0, len(lams) - 1), mats):
        op = DiscretizedOperator(lam=float(lams[i]), tau=tau, N=N, matrix=M,
                                 e_u=e_u[i], e_s=e_s[i], b_u=b_u[i],
                                 b_s=b_s[i])
        dims.append(kernel_dimension(op, rel_tol=kernel_rel_tol).dim)
    if dims[0] != 0 or dims[-1] != 0:
        raise DegenerateEndpoint(
            f"endpoint operator kernel dims {tuple(dims)}; the path "
            "must start and end at invertible operators"
        )
    if signs[0] == 0 or signs[-1] == 0:
        raise DegenerateEndpoint("endpoint determinant sign is zero")
    return tuple(dims)


def _endpoint_value(fam: LinearFamily, lams: np.ndarray, tau: float, N: int,
                    frames: tuple, kernel_rel_tol: float) -> int:
    """Parity value of the (tau, N) operator path, from its two ends.

    ``frames`` come from ``_boundary_frames`` over all of ``lams``: the
    last operator's sign depends on that chain of alignments.  Only the
    two endpoint operators are assembled, checked as in
    ``operator_parity`` and signed; nothing else enters the value.
    """
    b_u, b_s = frames[2:]
    ends = (0, len(lams) - 1)
    mats = tuple(_operators(fam, lams[list(ends)], tau, N,
                            [b_u[i] for i in ends], [b_s[i] for i in ends]))
    signs = tuple(sparse_det_sign(M) for M in mats)
    _check_endpoints(lams, tau, N, frames, mats, signs, kernel_rel_tol)
    return 0 if signs[0] == signs[1] else 1


def _localize_flips(fam, lams, signs, tau, N, frames, localize_tol,
                    rtol=1e-9, atol=1e-12) -> list[float]:
    e_u, e_s, b_u, b_s = frames
    flips = []
    nz = [i for i, s in enumerate(signs) if s != 0]
    for i_zero, s in enumerate(signs):
        if s == 0 and 0 < i_zero < len(signs) - 1:
            flips.append(float(lams[i_zero]))
    for a_idx, b_idx in zip(nz, nz[1:]):
        if signs[a_idx] == signs[b_idx]:
            continue
        lo, hi = float(lams[a_idx]), float(lams[b_idx])
        s_lo = signs[a_idx]
        eu_lo, es_lo = e_u[a_idx], e_s[a_idx]
        bu_lo, bs_lo = b_u[a_idx], b_s[a_idx]
        while hi - lo > localize_tol:
            mid = 0.5 * (lo + hi)
            eu_m = align_frame(
                eu_lo, subspace_at(fam, mid, "unstable", -tau, rtol, atol))
            es_m = align_frame(
                es_lo, subspace_at(fam, mid, "stable", tau, rtol, atol))
            bu_m = align_frame(bu_lo, orthogonal_complement(eu_m))
            bs_m = align_frame(bs_lo, orthogonal_complement(es_m))
            M, = _operators(fam, [mid], tau, N, [bu_m], [bs_m])
            s_mid = sparse_det_sign(M)
            if s_mid == 0 or s_mid == s_lo:
                lo = mid
                eu_lo, es_lo, bu_lo, bs_lo = eu_m, es_m, bu_m, bs_m
            else:
                hi = mid
        flips.append(0.5 * (lo + hi))
    return sorted(flips)


# -- the index theorem and the decomposition ---------------------------

def boundary_pair_over_lambda(fam: LinearFamily, lams: Sequence[float],
                              t: float = 0.0, rtol: float = 1e-9,
                              atol: float = 1e-12) -> SubspacePathPair:
    """The pair lambda -> (E^s_lambda(t), E^u_lambda(t)) as subspace paths."""
    lams = np.asarray(lams, dtype=float)
    es = subspaces_over_lambda(fam, lams, "stable", t, rtol, atol)
    eu = subspaces_over_lambda(fam, lams, "unstable", t, rtol, atol)
    V = SubspacePath(
        grid=lams, frames=tuple(es),
        sampler=lambda lam: subspace_at(fam, lam, "stable", t, rtol, atol))
    W = SubspacePath(
        grid=lams, frames=tuple(eu),
        sampler=lambda lam: subspace_at(fam, lam, "unstable", t, rtol, atol))
    return SubspacePathPair(V=V, W=W)


@dataclass(frozen=True)
class TheoremReport:
    """Both sides of the index theorem with their full diagnostics."""

    lhs: int
    rhs: int
    agree: bool
    parity: ParityReport
    index: IndexReport
    hypotheses: HypothesisReport


def verify_index_theorem(fam: LinearFamily,
                         lams: Sequence[float] | None = None,
                         tau: float = 15.0, N: int = 3000,
                         hypothesis_samples: int = 101,
                         stability: bool = True,
                         track_sigma: bool = False,
                         rtol: float = 1e-9,
                         atol: float = 1e-12) -> TheoremReport:
    """Check parity(A_lambda) against the boundary-subspace Z2-index.

    Raises
    ------
    HypothesisFailure
        If the sampled limit hypotheses fail (names the assumption).
    """
    if lams is None:
        lams = np.linspace(0.0, 1.0, 201)
    lams = np.asarray(lams, dtype=float)
    hyp = check_A1_A3(fam, hypothesis_samples, (lams[0], lams[-1]))
    if not hyp.ok:
        lam_bad, tag, msg = hyp.violations[0]
        raise HypothesisFailure(
            f"assumption ({tag}) fails at lambda={lam_bad:.4g}: {msg}",
            assumption=tag,
        )
    parity = operator_parity(fam, lams, tau, N, stability=stability,
                             track_sigma=track_sigma,
                             rtol=rtol, atol=atol)
    index = z2_index(boundary_pair_over_lambda(fam, lams, rtol=rtol,
                                               atol=atol))
    return TheoremReport(lhs=parity.value, rhs=index.value,
                         agree=parity.value == index.value,
                         parity=parity, index=index, hypotheses=hyp)


@dataclass(frozen=True)
class DecompositionReport:
    """The index over lambda split into its three geometric terms."""

    index_over_lambda: IndexReport
    geo_start: IndexReport
    geo_end: IndexReport
    limit_term: IndexReport
    holds: bool
    limits_lambda_independent: bool


def decomposition_check(fam: LinearFamily,
                        lams: Sequence[float] | None = None,
                        samples: int = 201) -> DecompositionReport:
    """Verify index == geo(S_0) + geo(S_1) + limit-subspace term mod 2.

    When the asymptotic families do not depend on lambda the limit
    term is asserted to vanish.

    Raises
    ------
    BoundaryDegenerate
        If an end family fails boundary non-degeneracy.
    InternalMismatch
        If lambda-independent limits yield a nonzero limit term.
    """
    if lams is None:
        lams = np.linspace(0.0, 1.0, 201)
    lams = np.asarray(lams, dtype=float)

    total = z2_index(boundary_pair_over_lambda(fam, lams))
    geo0 = geometric_parity(fam, float(lams[0]), samples=samples)
    geo1 = geometric_parity(fam, float(lams[-1]), samples=samples)

    limits = [asymptotic_limits(fam, lam) for lam in lams]
    drift = max(
        max(np.linalg.norm(L.s_minus - limits[0].s_minus, 2) for L in limits),
        max(np.linalg.norm(L.s_plus - limits[0].s_plus, 2) for L in limits),
    )
    independent = drift <= 1e-9

    vm_frames = [L.split_plus.v_minus for L in limits]    # V^-(S^+)
    vp_frames = [L.split_minus.v_plus for L in limits]    # V^+(S^-)
    V = SubspacePath(grid=lams, frames=tuple(align_chain(vm_frames)),
                     sampler=lambda lam: asymptotic_limits(fam, lam)
                     .split_plus.v_minus)
    W = SubspacePath(grid=lams, frames=tuple(align_chain(vp_frames)),
                     sampler=lambda lam: asymptotic_limits(fam, lam)
                     .split_minus.v_plus)
    limit_term = z2_index(SubspacePathPair(V=V, W=W))
    if independent and limit_term.value != 0:
        raise InternalMismatch(
            "lambda-independent limits produced a nonzero limit term"
        )
    holds = total.value == (geo0.value + geo1.value + limit_term.value) % 2
    return DecompositionReport(
        index_over_lambda=total, geo_start=geo0, geo_end=geo1,
        limit_term=limit_term, holds=holds,
        limits_lambda_independent=independent,
    )
