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
    InternalMismatch,
    UnstableTruncation,
)
from .flow import (
    HypothesisReport,
    LinearFamily,
    SubspacePath,
    _bisect,
    _require_A1_A3,
    asymptotic_limits,
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


def discretize(fam: LinearFamily, lam: float, tau: float,
               N: int) -> DiscretizedOperator:
    """Crank-Nicolson discretization of d/dt - S(lambda, .) on [-tau, tau].

    The boundary frames are those a one-point lambda-sweep would use.
    """
    frames = _boundary_frames(fam, np.array([lam], dtype=float), tau)
    M, = _operators(fam, [lam], tau, N, *frames[2:])
    return DiscretizedOperator(lam, tau, N, M, *(f[0] for f in frames))


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


def _signed_lu(M: sp.spmatrix) -> tuple:
    """(sign of det M, sparse LU of M) for :func:`sparse_det_sign`."""
    try:
        lu = spla.splu(M.tocsc())
    except RuntimeError:
        return 0, None
    diag = lu.U.diagonal()
    if np.any(diag == 0.0):
        return 0, lu
    sign = _perm_parity(lu.perm_r) * _perm_parity(lu.perm_c)
    negs = int(np.sum(diag < 0.0))
    return sign * (-1 if negs % 2 else 1), lu


def sparse_det_sign(M: sp.spmatrix) -> int:
    """Sign of det of a sparse matrix via LU pivot signs.

    Product of the two permutation parities and the signs of the U
    diagonal; returns 0 when a pivot is exactly zero or the
    factorization reports singularity.
    """
    return _signed_lu(M)[0]


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

_LOCALIZE_TOL = 1e-3   # lambda-width to which a sign flip is bisected


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
                    stability: bool = True,
                    track_sigma: bool = False,
                    rtol: float = 1e-9, atol: float = 1e-12) -> ParityReport:
    """Parity of the operator path over a lambda-grid.

    Boundary frames are aligned along lambda before any determinant is
    taken; without that the per-lambda signs are meaningless.  The
    value compares the endpoint signs; interior flips are localized by
    bisection to a lambda-interval of width 1e-3.

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

    def factor(i: int, M: sp.csc_matrix):
        sig = None
        if not track_sigma:
            # the public route, counted as one LU by perfbench/tracing.py
            s = sparse_det_sign(M)
        else:
            s, lu = _signed_lu(M)      # one LU: sign and sigma_min
            if s != 0:
                sig = _sigma_min_estimate(lu, M.shape[0])
        return s, sig, M if i in (0, len(lams) - 1) else None

    results = [factor(i, M) for i, M in
               enumerate(_operators(fam, lams, tau, N, *frames[2:]))]
    signs = np.array([r[0] for r in results], dtype=int)
    sigma = (np.array([r[1] if r[1] is not None else np.nan
                       for r in results])
             if track_sigma else None)

    end_dims = _check_endpoints(lams, tau, N, frames,
                                (results[0][2], results[-1][2]),
                                (signs[0], signs[-1]))
    value = 0 if signs[0] == signs[-1] else 1

    flips = _localize_flips(fam, lams, signs, tau, N, frames, rtol, atol)

    stable_tau = stable_N = None
    if stability:
        # the (tau, 2N) re-run has the same frames: they depend on tau,
        # rtol and atol, not on N
        value_tau = _endpoint_value(
            fam, lams, 2.0 * tau, 2 * N,
            _boundary_frames(fam, lams, 2.0 * tau, rtol, atol))
        value_N = _endpoint_value(fam, lams, tau, 2 * N, frames)
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
                     rtol: float = 1e-9, atol: float = 1e-12) -> tuple:
    """(E^u(-tau), E^s(tau), B_u, B_s) per lambda.

    B_u and B_s are the complements whose transposes form the boundary
    rows; they are aligned along lams, since the operator signs depend
    on their orientation.  E^u and E^s are left as sampled.
    """
    e_u = subspaces_over_lambda(fam, lams, "unstable", -tau, rtol, atol)
    e_s = subspaces_over_lambda(fam, lams, "stable", tau, rtol, atol)
    b_u = align_chain([orthogonal_complement(f) for f in e_u])
    b_s = align_chain([orthogonal_complement(f) for f in e_s])
    return e_u, e_s, b_u, b_s


def _check_endpoints(lams: np.ndarray, tau: float, N: int, frames: tuple,
                     mats: tuple, signs: tuple) -> tuple:
    """Kernel dimensions of the two endpoint operators ``mats``.

    Raises DegenerateEndpoint unless both kernels are trivial and both
    determinant ``signs`` are nonzero.
    """
    dims = []
    for i, M in zip((0, len(lams) - 1), mats):
        op = DiscretizedOperator(float(lams[i]), tau, N, M,
                                 *(f[i] for f in frames))
        dims.append(kernel_dimension(op).dim)
    if dims[0] != 0 or dims[-1] != 0:
        raise DegenerateEndpoint(
            f"endpoint operator kernel dims {tuple(dims)}; the path "
            "must start and end at invertible operators"
        )
    if signs[0] == 0 or signs[-1] == 0:
        raise DegenerateEndpoint("endpoint determinant sign is zero")
    return tuple(dims)


def _endpoint_value(fam: LinearFamily, lams: np.ndarray, tau: float, N: int,
                    frames: tuple) -> int:
    """Parity value of the (tau, N) operator path, from its two ends.

    ``frames`` come from ``_boundary_frames`` over all of ``lams``: the
    last operator's sign depends on that chain of alignments.  Only the
    two endpoint operators are assembled, checked as in
    ``operator_parity`` and signed; nothing else enters the value.
    """
    ends = [0, len(lams) - 1]
    mats = tuple(_operators(fam, lams[ends], tau, N,
                            *([f[i] for i in ends] for f in frames[2:])))
    signs = tuple(sparse_det_sign(M) for M in mats)
    _check_endpoints(lams, tau, N, frames, mats, signs)
    return 0 if signs[0] == signs[1] else 1


def _localize_flips(fam, lams, signs, tau, N, frames,
                    rtol, atol) -> list[float]:
    """Sorted sign changes lambda*: interior zero-sign grid points, and
    each sign change between nonzero-sign grid points bisected to an
    interval of width ``_LOCALIZE_TOL``.  A sample is (lambda, sign,
    b_u, b_s); a zero-sign midpoint takes its left end's sign.
    """
    flips = [float(lams[i]) for i in range(1, len(lams) - 1)
             if signs[i] == 0]
    nz = [i for i, s in enumerate(signs) if s != 0]
    b_u, b_s = frames[2:]
    samples = [(float(lams[i]), signs[i], b_u[i], b_s[i]) for i in nz]

    def split(a, b) -> bool:
        return a[1] != b[1] and b[0] - a[0] > _LOCALIZE_TOL

    def sample_mids(mids, lefts):
        fresh = [
            (align_frame(left[2], orthogonal_complement(
                subspace_at(fam, lam, "unstable", -tau, rtol, atol))),
             align_frame(left[3], orthogonal_complement(
                 subspace_at(fam, lam, "stable", tau, rtol, atol))))
            for lam, left in zip(mids, lefts)]
        ops = _operators(fam, mids, tau, N, *zip(*fresh))
        return [(lam, sparse_det_sign(M) or left[1]) + f
                for lam, left, f, M in zip(mids, lefts, fresh, ops)]

    _, samples, _ = _bisect([s[0] for s in samples], samples, split,
                            sample_mids)
    flips += [0.5 * (a[0] + b[0]) for a, b in zip(samples, samples[1:])
              if a[1] != b[1]]
    return sorted(flips)


# -- the index theorem and the decomposition ---------------------------

def boundary_pair_over_lambda(fam: LinearFamily, lams: Sequence[float],
                              t: float = 0.0, rtol: float = 1e-9,
                              atol: float = 1e-12) -> SubspacePathPair:
    """The pair lambda -> (E^s_lambda(t), E^u_lambda(t)) as subspace paths."""
    lams = np.asarray(lams, dtype=float)

    def path(which: str) -> SubspacePath:
        frames = subspaces_over_lambda(fam, lams, which, t, rtol, atol)
        return SubspacePath(grid=lams, frames=tuple(frames), sampler=(
            lambda lam: subspace_at(fam, lam, which, t, rtol, atol)))

    return SubspacePathPair(V=path("stable"), W=path("unstable"))


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
    hyp = _require_A1_A3(fam, hypothesis_samples, (lams[0], lams[-1]))
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

    # V^-(S^+) and V^+(S^-) over lambda
    V = SubspacePath(lams, tuple(L.split_plus.v_minus for L in limits),
                     lambda lam: asymptotic_limits(fam, lam).split_plus.v_minus)
    W = SubspacePath(lams, tuple(L.split_minus.v_plus for L in limits),
                     lambda lam: asymptotic_limits(fam, lam).split_minus.v_plus)
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
