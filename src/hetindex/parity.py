"""Parity of operator paths d/dt - S_lambda and the index theorem.

The parity of a path of boundary-value operators A_lambda is computed
two independent ways and cross-checked:

* finite-dimensional matrix paths T(s): endpoint determinant signs,
  against the Z2-index of the graph path (Gr(T(s)), R^m x 0);
* operator paths: a Crank-Nicolson discretization of d/dt - S on
  [-tau, tau] with spectral boundary rows (x(-tau) constrained to
  E^u(-tau), x(tau) to E^s(tau)), whose determinant sign is tracked
  over a lambda-grid with lambda-aligned boundary frames.

The determinant signs of a sweep come from block elimination of the
block-bidiagonal matrix: the unstable frame E^u(-tau) is pushed through
the Crank-Nicolson (Cayley) steps of every lambda at once, with QR
renormalization, so magnitudes never overflow.  The Cayley factors of a
chunk of steps, and the signs of their determinants, come from one
Gauss-Jordan elimination with partial pivoting over the stack of all
lambdas and steps, each matrix entry held as one vector.  A pivoted
sparse LU (permutation parities times pivot signs) runs only on end
operators, whose invertibility it certifies, on a lambda with an exactly
singular Cayley factor, and with ``track_sigma``; it is also the public
``sparse_det_sign`` and the tests' oracle.  The index-theorem
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
    DimensionMismatch,
    InternalMismatch,
    UnstableTruncation,
    _check_positive,
    _check_samples,
    _checked_grid,
)
from .flow import (
    HypothesisReport,
    LinearFamily,
    SubspacePath,
    _bisect,
    _limits_over_lambda,
    _pair_samplers,
    _require_A1_A3,
    _subspace_stacks,
    _unwrap,
    path_from_sampler,
)
from .linalg import (
    DEGENERATE,
    Frame,
    _align_to,
    _chain,
    _complements,
    det_sign,
)
from .maslov import graph_frame
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
    InvalidInput
        Unless ``samples`` is an integer >= 2; T is not evaluated then.
    DimensionMismatch
        Naming the first sampled s at which T(s) is not square or not of
        the shape of T(0).
    DegenerateEndpoint
        If T(0) or T(1) is numerically singular.
    InternalMismatch
        If the two routes disagree (internal bug trap).
    """
    _check_samples(samples, 2)
    m = _square_at(T_path, 0.0).shape[0]
    lambda0 = np.vstack([np.eye(m), np.zeros((m, m))])

    def graph(ss: np.ndarray) -> np.ndarray:
        return graph_frame(np.array([_square_at(T_path, s, m)
                                     for s in ss.tolist()]))

    # sampled first, so that a change of shape is named where it starts
    grid = np.linspace(0.0, 1.0, samples)
    pair = SubspacePathPair(
        V=path_from_sampler(graph, grid),
        W=path_from_sampler(
            lambda ss: np.broadcast_to(lambda0, (len(ss), 2 * m, m)), grid),
    )
    s0, s1 = (det_sign(_square_at(T_path, s, m), eps_trans)
              for s in (0.0, 1.0))
    if s0 == DEGENERATE or s1 == DEGENERATE:
        raise DegenerateEndpoint("endpoint matrix numerically singular")
    det_route = 0 if s0 * s1 > 0 else 1
    graph_route = z2_index(pair, eps_trans=eps_trans).value
    if graph_route != det_route:
        raise InternalMismatch(
            f"determinant route ({det_route}) and graph route "
            f"({graph_route}) disagree"
        )
    return det_route


def _square_at(T_path: Callable, s: float, m: int | None = None) -> np.ndarray:
    """T_path(s) as a float matrix, refused unless it is square and, given
    ``m``, m x m."""
    T = np.atleast_2d(np.asarray(T_path(s), dtype=float))
    m = T.shape[0] if m is None else m
    if T.shape != (m, m):
        raise DimensionMismatch(
            f"T(s) at s={s!r} has shape {T.shape}, expected {(m, m)}")
    return T


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
               b_u: np.ndarray, b_s: np.ndarray):
    """Yield the operator at each of ``lams``, boundary rows from the
    (m, n, n - k) and (m, n, k) stacks b_u and b_s.

    S is evaluated at all lambdas and midpoints in one call; the sparse
    matrices are assembled one at a time.
    """
    h = 2.0 * tau / N
    mids = -tau + h * (np.arange(N) + 0.5)
    S_all = fam.evaluate_many(np.asarray(lams, dtype=float)[:, None],
                              mids[None, :])
    template = _operator_template(fam.n, fam.k, N)
    for S, bu, bs in zip(S_all, b_u, b_s):
        yield _assemble(template, fam.n, N, h, S, bu.T, bs.T)


def discretize(fam: LinearFamily, lam: float, tau: float,
               N: int) -> DiscretizedOperator:
    """Crank-Nicolson discretization of d/dt - S(lambda, .) on [-tau, tau].

    The boundary frames are those a one-point lambda-sweep would use.

    Raises
    ------
    InvalidInput
        If tau is not a finite number > 0 or N is not an integer >= 2.
    """
    _check_positive(tau, "tau")
    _check_samples(N, 2, "N")
    frames = _boundary_frames(fam, np.array([lam], dtype=float), tau)
    M, = _operators(fam, [lam], tau, N, *frames[2:])
    return DiscretizedOperator(lam, tau, N, M,
                               *(Frame._trusted(F[0]) for F in frames))


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


def _signed_lu(M: sp.spmatrix, sigma: bool = False) -> tuple:
    """(sign of det M, sigma_min estimate) from one sparse LU of M.

    sigma_min is NaN unless ``sigma`` is set and the sign is nonzero.
    The LU is dropped on return, before a caller assembles and factors
    its next operator.
    """
    try:
        lu = spla.splu(M.tocsc())
    except RuntimeError:
        return 0, np.nan
    diag = lu.U.diagonal()
    if np.any(diag == 0.0):
        return 0, np.nan
    sign = _perm_parity(lu.perm_r) * _perm_parity(lu.perm_c)
    negs = int(np.sum(diag < 0.0))
    return (sign * (-1 if negs % 2 else 1),
            _sigma_min_estimate(lu) if sigma else np.nan)


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

    ``dim`` counts relative singular values below ``rel_tol``, the
    module's ``_KERNEL_TOL``; the smallest few and sigma_max are kept.
    """

    dim: int
    smallest: tuple
    sigma_max: float
    rel_tol: float

    @property
    def relative(self) -> tuple:
        return tuple(s / self.sigma_max for s in self.smallest)


#: Relative singular value sigma_min / sigma_max below which an operator
#: counts as singular, in the kernel count and the endpoint test alike.
_KERNEL_TOL = 1e-6
_KERNEL_COUNT = 4       # smallest singular values kernel_dimension finds
_SIGMA_MAX_ITERS = 30   # power steps on A^T A
_SIGMA_MIN_ITERS = 6    # inverse power steps through one LU


def _sigma_max_estimate(M: sp.spmatrix) -> float:
    """Largest singular value by power iteration on A^T A.

    A slight underestimate only tightens the relative kernel
    threshold; the kernel margin is orders of magnitude, so the
    handful of iterations is plenty.
    """
    rng = np.random.default_rng(0)
    v = rng.standard_normal(M.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(_SIGMA_MAX_ITERS):
        w = M.T @ (M @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return float(np.linalg.norm(M @ v))


def kernel_dimension(op: DiscretizedOperator) -> KernelReport:
    """Numerical kernel dimension via shift-inverted smallest squares.

    The smallest singular values come from a shift-invert eigensolve
    of A^T A with the inverse applied through one sparse LU of A.  This
    is the kernel measurement (criteria 3 and 9) and the oracle the
    endpoint test of :func:`operator_parity` is checked against; that
    test itself reads sigma_min from the endpoint operator's one LU.
    """
    M = op.matrix
    size = M.shape[0]
    count = min(_KERNEL_COUNT, size - 2)
    sigma_max = _sigma_max_estimate(M)
    lu = spla.splu(M)
    AtA = spla.LinearOperator(
        (size, size), matvec=lambda x: M.T @ (M @ x))
    OPinv = spla.LinearOperator(
        (size, size), matvec=lambda x: lu.solve(lu.solve(x, trans="T")))
    vals = spla.eigsh(AtA, k=count, sigma=0, OPinv=OPinv,
                      return_eigenvectors=False)
    smallest = tuple(sorted(float(np.sqrt(abs(v))) for v in vals))
    dim = int(np.sum(np.array(smallest) < _KERNEL_TOL * sigma_max))
    return KernelReport(dim=dim, smallest=smallest, sigma_max=sigma_max,
                        rel_tol=_KERNEL_TOL)


def _sigma_min_estimate(lu) -> float:
    """Smallest singular value estimate by inverse power iteration.

    An upper bound on the true sigma_min: for a unit v, the norm of
    (A^T A)^-1 v never exceeds 1 / sigma_min^2.
    """
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(lu.shape[0])
    v /= np.linalg.norm(v)
    mu = 0.0
    for _ in range(_SIGMA_MIN_ITERS):
        w = lu.solve(lu.solve(v, trans="T"))
        mu = float(np.linalg.norm(w))
        v = w / mu
    return 1.0 / np.sqrt(mu) if mu > 0 else 0.0


def _factor_end(lam: float, M: sp.spmatrix) -> tuple:
    """:func:`_signed_lu` of an endpoint operator, which must be
    invertible, and its margin sigma_min / sigma_max.

    Raises DegenerateEndpoint unless the sign is nonzero and
    sigma_min > _KERNEL_TOL * sigma_max (NaN fails the test).
    """
    sign, sigma_min = _signed_lu(M, sigma=True)
    sigma_max = _sigma_max_estimate(M)
    if not sigma_min > _KERNEL_TOL * sigma_max:
        raise DegenerateEndpoint(
            f"endpoint operator at lambda={lam:g} is singular (det sign "
            f"{sign}, sigma_min {sigma_min:.3g}, sigma_max "
            f"{sigma_max:.3g}, threshold {_KERNEL_TOL:g} sigma_max); the "
            "path must start and end at invertible operators"
        )
    return sign, sigma_min, sigma_min / sigma_max


_BLOCK_STEPS = 32   # CN steps per S evaluation and QR renormalization


def _cayley_factors(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C = (I - H)^-1 (I + H) and sign det(I - H) for every member of an
    (..., n, n) stack H.

    Gauss-Jordan elimination with partial pivoting runs on [I - H | I + H]
    for all members at once.  Each matrix entry is held as one contiguous
    vector over the members, so a step is a few vector operations however
    many members there are.  The pivot of column c is the first largest
    |entry| on or below the diagonal, brought up by row swaps, and the
    sign is the product of the pivot signs and the parity of the swaps.
    A zero pivot divides by zero and the member's sign comes out NaN (or
    0), so a factor is singular where ``~(abs(sign) > 0)``; its C is then
    not finite.
    """
    *lead, n, _ = H.shape
    Ht = H.reshape(-1, n, n).transpose(1, 2, 0)
    A = np.empty((n, 2 * n, Ht.shape[2]))       # entry, then member
    np.negative(Ht, out=A[:, :n])
    A[:, n:] = Ht
    for i in range(n):
        A[i, i] += 1.0
        A[i, n + i] += 1.0
    sign = np.ones(Ht.shape[2])
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in range(n):
            for r in range(c + 1, n):
                up = np.flatnonzero(np.abs(A[r, c]) > np.abs(A[c, c]))
                if len(up):
                    A[c, c:, up], A[r, c:, up] = A[r, c:, up], A[c, c:, up]
                    sign[up] = -sign[up]
            sign *= np.sign(A[c, c])
            # column c is not read again, so only later columns are updated
            A[c, c + 1:] /= A[c, c]
            for r in range(n):
                if r != c:
                    A[r, c + 1:] -= A[r, c] * A[c, c + 1:]
    C = A[:, n:].transpose(2, 0, 1).reshape(*lead, n, n)
    return C, sign.reshape(lead)


def _block_signs(fam: LinearFamily, lams: np.ndarray, tau: float, N: int,
                 frames: tuple) -> np.ndarray:
    """Determinant signs of the operators at ``lams``, by block
    elimination of the block-bidiagonal Crank-Nicolson matrix:

        sign det M = (-1)^(k N n) prod_i sign det(I - h S_i / 2)
                     sign det[B_u E_u] sign det(B_s^T Phi E_u)

    Phi E_u is E^u(-tau) pushed through the Cayley steps
    Y <- (I - h S_i / 2)^-1 (I + h S_i / 2) Y, all lambdas at once as an
    (m, n, k) stack.  S is evaluated one chunk of steps at a time; one
    pivoted elimination over the chunk's (m, chunk, n, n) stack
    (:func:`_cayley_factors`) gives every Cayley factor and the sign of
    every det(I - h S_i / 2), and each chunk ends in a stacked QR whose
    R-diagonal signs enter the product.  A lambda with a singular factor
    is signed by the sparse LU of its operator instead.  ``frames`` is
    (E^u, E^s, B_u, B_s), each an (m, n, .) stack.
    """
    e_u, _, b_u, b_s = frames
    n, k = fam.n, fam.k
    h = 2.0 * tau / N
    sign = np.linalg.slogdet(np.concatenate([b_u, e_u], axis=2))[0]
    if k * N * n % 2:
        sign = -sign
    singular = np.zeros(len(lams), dtype=bool)
    Y = e_u
    for start in range(0, N, _BLOCK_STEPS):
        mids = -tau + h * (np.arange(start, min(start + _BLOCK_STEPS, N))
                           + 0.5)
        C, dets = _cayley_factors(
            0.5 * h * fam.evaluate_many(lams[:, None], mids[None, :]))
        bad = ~(np.abs(dets) > 0.0)
        if bad.any():
            # keep Y finite; these lambdas are signed by their LU below
            singular |= bad.any(axis=1)
            C[bad], dets[bad] = np.eye(n), 1.0
        sign *= np.prod(dets, axis=1)
        for j in range(C.shape[1]):
            Y = C[:, j] @ Y
        Y, R = np.linalg.qr(Y)
        sign *= np.prod(np.sign(np.diagonal(R, axis1=1, axis2=2)), axis=1)
    BsT = np.ascontiguousarray(np.swapaxes(b_s, 1, 2))
    signs = (sign * np.linalg.slogdet(BsT @ Y)[0]).astype(int)
    for i in np.flatnonzero(singular):
        M, = _operators(fam, lams[i:i + 1], tau, N, b_u[i:i + 1],
                        b_s[i:i + 1])
        signs[i] = _signed_lu(M)[0]
    return signs


# -- operator parity over a lambda sweep -------------------------------

_LOCALIZE_TOL = 1e-3   # lambda-width to which a sign flip is bisected
_HYPOTHESIS_SAMPLES = 101   # lambdas of verify_index_theorem's A1-A3 check


@dataclass(frozen=True)
class ParityReport:
    """Determinant-sign trace of the discretized family over lambda.

    ``flips`` holds the localized sign-change instants lambda*;
    stability flags record whether re-runs at (2 tau, 2 N) and
    (tau, 2 N) reproduced the value (None when not attempted).  The
    value depends on the two endpoint signs only, so a re-run signs
    just its two endpoint operators, over boundary frames aligned
    along the whole lambda-grid.

    ``det_signs`` come from block elimination.  ``endpoint_margins``
    holds sigma_min / sigma_max of the two end operators of the main
    sweep, read from their LUs; both exceed ``_KERNEL_TOL`` (1e-6),
    since an endpoint below it raises instead.  ``sigma_mins`` (with
    ``track_sigma``) holds the sigma_min estimate from each operator's
    LU, NaN where the LU sign is zero.
    """

    value: int
    lams: np.ndarray
    det_signs: np.ndarray
    flips: tuple
    tau: float
    N: int
    endpoint_margins: tuple
    stable_tau: bool | None
    stable_N: bool | None
    sigma_mins: np.ndarray | None


def operator_parity(fam: LinearFamily, lams: Sequence[float],
                    tau: float = 15.0, N: int = 3000,
                    stability: bool = True,
                    track_sigma: bool = False,
                    rtol: float = 1e-9, atol: float = 1e-12) -> ParityReport:
    """Parity of the operator path over a lambda-grid.

    Boundary frames are aligned along lambda before any determinant is
    taken; without that the per-lambda signs are meaningless.  The
    value compares the endpoint signs; interior flips are localized by
    bisection to a lambda-interval of width 1e-3.

    Every sign, of the grid and of the bisection midpoints, comes from
    block elimination (``_block_signs``).  A sparse LU factors only the
    two end operators of the sweep and of each doubling re-run, plus
    every operator with ``track_sigma``, and gives a sigma_min
    estimate by inverse iteration.  The endpoint invertibility test
    reads that estimate: a nonzero sign and sigma_min > 1e-6 sigma_max.
    :func:`kernel_dimension` is not run.

    Raises
    ------
    InvalidInput
        If ``lams`` is not a finite, strictly increasing grid of two or
        more samples, ``tau`` is not a finite number > 0, or ``N`` is
        not an integer >= 2.
    DegenerateEndpoint
        If an endpoint operator fails the invertibility test; the
        message names its sigma_min and sigma_max.
    InternalMismatch
        If the LU sign of an end operator of the sweep differs from its
        block-elimination sign (internal bug trap).
    UnstableTruncation
        If doubling tau or N changes the value (only when
        ``stability`` is set).
    """
    lams = _checked_grid(lams)
    _check_positive(tau, "tau")
    _check_samples(N, 2, "N")
    frames = _boundary_frames(fam, lams, tau, rtol, atol)
    signs = _block_signs(fam, lams, tau, N, frames)

    ends = (0, len(lams) - 1)
    factored = range(len(lams)) if track_sigma else ends
    ops = _operators(fam, lams[list(factored)], tau, N,
                     *(F[list(factored)] for F in frames[2:]))
    results = {i: _factor_end(lams[i], M) if i in ends
               else _signed_lu(M, sigma=True)
               for i, M in zip(factored, ops)}
    for i in ends:
        if results[i][0] != signs[i]:
            raise InternalMismatch(
                f"block elimination (sign {signs[i]}) and sparse LU (sign "
                f"{results[i][0]}) disagree on the endpoint operator at "
                f"lambda={lams[i]:g}"
            )
    sigma = (np.array([results[i][1] for i in factored]) if track_sigma
             else None)
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
                        endpoint_margins=tuple(results[i][2] for i in ends),
                        stable_tau=stable_tau, stable_N=stable_N,
                        sigma_mins=sigma)


def _boundary_frames(fam: LinearFamily, lams: np.ndarray, tau: float,
                     rtol: float = 1e-9, atol: float = 1e-12) -> tuple:
    """(E^u(-tau), E^s(tau), B_u, B_s), one (len(lams), n, .) stack each.

    E^u and E^s come from one transport of both sides, the stable one in
    mirrored time (``flow._subspace_stacks``); this pair is the operator
    route's own, apart from the Z2 pair of
    :func:`boundary_pair_over_lambda`.  B_u and B_s are the complements
    whose transposes form the boundary rows; they are aligned along
    lams, since the operator signs depend on their orientation.  E^u
    and E^s are left as sampled.
    """
    e_u, e_s = _subspace_stacks(fam, lams, -tau, tau, rtol, atol)
    return e_u, e_s, _chain(_complements(e_u)), _chain(_complements(e_s))


def _endpoint_value(fam: LinearFamily, lams: np.ndarray, tau: float, N: int,
                    frames: tuple) -> int:
    """Parity value of the (tau, N) operator path, from its two ends.

    ``frames`` come from ``_boundary_frames`` over all of ``lams``: the
    last operator's sign depends on that chain of alignments.  Only the
    two endpoint operators are assembled, checked as in
    ``operator_parity`` and signed; nothing else enters the value.
    """
    ends = [0, len(lams) - 1]
    mats = _operators(fam, lams[ends], tau, N, *(F[ends] for F in frames[2:]))
    s0, s1 = (_factor_end(lams[i], M)[0] for i, M in zip(ends, mats))
    return 0 if s0 == s1 else 1


def _localize_flips(fam, lams, signs, tau, N, frames,
                    rtol, atol) -> list[float]:
    """Sorted sign changes lambda*: interior zero-sign grid points, and
    each sign change between nonzero-sign grid points bisected to an
    interval of width ``_LOCALIZE_TOL``.  A sample is (lambda, sign,
    b_u, b_s), held as one stack each; each round samples its midpoints
    with one batched transport of both sides and signs them with one
    :func:`_block_signs` call over the E^u frames their B_u come from;
    a zero-sign midpoint takes its left end's sign.
    """
    flips = [float(lams[i]) for i in range(1, len(lams) - 1)
             if signs[i] == 0]
    nz = np.flatnonzero(signs)
    b_u, b_s = (F[nz] for F in frames[2:])

    def split(lefts, rights):
        return ((lefts[1] != rights[1])
                & (rights[0] - lefts[0] > _LOCALIZE_TOL))

    def sample_mids(mids, lefts):
        e_u, e_s = _subspace_stacks(fam, mids, -tau, tau, rtol, atol)
        b_u = _align_to(lefts[2], _complements(e_u))
        b_s = _align_to(lefts[3], _complements(e_s))
        signs = _block_signs(fam, mids, tau, N, (e_u, e_s, b_u, b_s))
        return mids, np.where(signs != 0, signs, lefts[1]), b_u, b_s

    lams, (_, signs, _, _), _ = _bisect(
        lams[nz], (lams[nz], signs[nz], b_u, b_s), split, sample_mids)
    flips += [float(0.5 * (a + b)) for a, b, sa, sb
              in zip(lams, lams[1:], signs, signs[1:]) if sa != sb]
    return sorted(flips)


# -- the index theorem and the decomposition ---------------------------

def boundary_pair_over_lambda(fam: LinearFamily, lams: Sequence[float],
                              t: float = 0.0, rtol: float = 1e-9,
                              atol: float = 1e-12) -> SubspacePathPair:
    """The pair lambda -> (E^s_lambda(t), E^u_lambda(t)) as subspace paths.

    The frames on ``lams``, and at each refinement round's midpoints,
    come from one transport of both sides, the stable one in mirrored
    time (``flow._subspace_stacks``); at t != 0 the side with the
    shorter span is seeded further out, so that the two spans match.
    ``lams`` is checked as by :func:`operator_parity`, and ``t`` must
    be finite, before any work.
    """
    lams = _checked_grid(lams)
    V, W = _pair_samplers(
        lambda ls: _subspace_stacks(fam, ls, t, t, rtol, atol)[::-1])
    return SubspacePathPair(V=SubspacePath(lams, V(lams), V),
                            W=SubspacePath(lams, W(lams), W))


@dataclass(frozen=True)
class TheoremReport:
    """Both sides of the index theorem with their full diagnostics."""

    lhs: int
    rhs: int
    agree: bool
    parity: ParityReport
    index: IndexReport
    hypotheses: HypothesisReport


def verify_index_theorem(fam: LinearFamily, lams: Sequence[float],
                         tau: float = 15.0, N: int = 3000,
                         stability: bool = True,
                         track_sigma: bool = False,
                         rtol: float = 1e-9,
                         atol: float = 1e-12) -> TheoremReport:
    """Check parity(A_lambda) against the boundary-subspace Z2-index.

    Raises
    ------
    InvalidInput
        If ``lams`` is not a finite, strictly increasing grid of two or
        more samples, ``tau`` is not a finite number > 0, or ``N`` is
        not an integer >= 2 (checked before any work).
    HypothesisFailure
        If the sampled limit hypotheses fail (names the assumption).
    """
    lams = _checked_grid(lams)
    _check_positive(tau, "tau")
    _check_samples(N, 2, "N")
    hyp = _require_A1_A3(fam, _HYPOTHESIS_SAMPLES, (lams[0], lams[-1]))
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


def decomposition_check(fam: LinearFamily, lams: Sequence[float],
                        samples: int = 201) -> DecompositionReport:
    """Verify index == geo(S_0) + geo(S_1) + limit-subspace term mod 2.

    When the asymptotic families do not depend on lambda the limit
    term is asserted to vanish.

    Raises
    ------
    InvalidInput
        Unless ``samples`` is an integer >= 2; nothing is evaluated then.
    BoundaryDegenerate
        If an end family fails boundary non-degeneracy.
    InternalMismatch
        If lambda-independent limits yield a nonzero limit term.
    """
    _check_samples(samples, 2)
    lams = np.asarray(lams, dtype=float)

    total = z2_index(boundary_pair_over_lambda(fam, lams))
    geo0 = geometric_parity(fam, float(lams[0]), samples=samples)
    geo1 = geometric_parity(fam, float(lams[-1]), samples=samples)

    limits = [_unwrap(x) for x in _limits_over_lambda(fam, lams)]
    drift = max(
        max(np.linalg.norm(L.s_minus - limits[0].s_minus, 2) for L in limits),
        max(np.linalg.norm(L.s_plus - limits[0].s_plus, 2) for L in limits),
    )
    independent = drift <= 1e-9

    # V^-(S^+) and V^+(S^-) over lambda
    def limit_frames(limits: list) -> tuple:
        return (np.array([L.split_plus.v_minus.columns for L in limits]),
                np.array([L.split_minus.v_plus.columns for L in limits]))

    V, W = _pair_samplers(lambda ls: limit_frames(
        [_unwrap(L) for L in _limits_over_lambda(fam, ls)]))
    v, w = limit_frames(limits)
    limit_term = z2_index(SubspacePathPair(V=SubspacePath(lams, v, V),
                                           W=SubspacePath(lams, w, W)))
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
