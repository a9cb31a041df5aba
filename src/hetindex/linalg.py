"""Subspace and frame arithmetic.

Subspaces of R^n are carried as orthonormal frames (n x k matrices with
orthonormal columns), not as projectors: determinant bookkeeping on
frame matrices is the whole game here, and projectors are derived on
demand.  The module provides canonical orthonormalization, the gap
metric, spectral splitting of hyperbolic matrices into stable/unstable
invariant subspaces, determinant-sign evaluation with a relative
degeneracy threshold, and Procrustes alignment of nearby frames.

The gap is the largest principal-angle sine, read from the residual
V - U(U^T V) (Bjorck & Golub 1973).  Alignment takes polar factors and
principal-angle cosines from one SVD (Higham 1986).

The kernels work on (m, n, k) stacks of frames in one LAPACK call each:
``orthonormalize``, ``_gaps``, ``_align_to``, ``_chain``, ``_complements``
and ``_signed_dets``.  The public one-frame functions are their m = 1
cases, and a stack of one matrix calls LAPACK directly: at n <= 6,
numpy's stacked wrapper costs more than the factorization, and both
give the same bits.

All operations are pure functions on immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dgeqrf, dgesdd, dorgqr

from .errors import (
    DimensionMismatch,
    GapTooLarge,
    InvalidInput,
    NotHyperbolic,
    RankDeficient,
)

__all__ = [
    "DEGENERATE",
    "Frame",
    "SpectralSplit",
    "orthonormalize",
    "gap_distance",
    "spectral_split",
    "pair_matrix",
    "det_sign",
    "align_frame",
    "align_chain",
    "orthogonal_complement",
]

#: Value returned by :func:`det_sign` when the sign cannot be trusted.
#: Chosen as integer 0 so products of signs propagate degeneracy.
DEGENERATE = 0

_ORTHO_TOL = 1e-10
_RANK_TOL = 1e-12
_HYPERBOLIC_TOL = 1e-8   # least min |Re mu| spectral_split accepts
#: Cosine of the largest principal angle at gap 0.5: sin = 0.5 there.
_ALIGN_COS = np.sqrt(0.75)


def _svals(M: np.ndarray) -> np.ndarray:
    """Singular values of an (m, r, c) stack of nonempty matrices,
    largest first."""
    if len(M) > 1:
        return np.linalg.svd(M, compute_uv=False)
    _, sigma, _, info = dgesdd(M[0], compute_uv=0)
    if info:
        raise np.linalg.LinAlgError("SVD did not converge")
    return sigma[None]


def _qr(B: np.ndarray) -> tuple:
    """Reduced QR factors (Q, R) of an (m, n, k) stack, k <= n."""
    if len(B) > 1:
        return np.linalg.qr(B)
    qr, tau, _, _ = dgeqrf(B[0])
    Q, _, _ = dorgqr(qr, tau)
    return Q[None], np.triu(qr[:B.shape[2]])[None]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Frame:
    """Orthonormal frame spanning a k-dimensional subspace of R^n.

    Parameters
    ----------
    columns : (n, k) ndarray
        Matrix with orthonormal columns; ``k`` may be 0 (the trivial
        subspace, represented by an ``(n, 0)`` array).

    Raises
    ------
    ValueError
        If ``columns`` is not 2-d, has more columns than rows, or its
        columns fail orthonormality at 1e-10.
    """

    columns: np.ndarray

    def __post_init__(self):
        cols = np.atleast_2d(np.asarray(self.columns, dtype=float))
        if cols.ndim != 2:
            raise ValueError("frame columns must form a 2-d array")
        n, k = cols.shape
        if k > n:
            raise ValueError(f"frame has more columns ({k}) than rows ({n})")
        if k > 0:
            defect = np.abs(cols.T @ cols - np.eye(k)).max()
            if not defect <= _ORTHO_TOL:
                raise ValueError(
                    f"columns not orthonormal (defect {defect:.2e} > {_ORTHO_TOL})"
                )
        object.__setattr__(self, "columns", _readonly(cols))

    @classmethod
    def _trusted(cls, cols: np.ndarray) -> "Frame":
        """Frame over columns orthonormal by construction, unvalidated."""
        frame = object.__new__(cls)
        object.__setattr__(frame, "columns", _readonly(cols))
        return frame

    @property
    def n(self) -> int:
        """Ambient dimension."""
        return self.columns.shape[0]

    @property
    def k(self) -> int:
        """Subspace dimension."""
        return self.columns.shape[1]

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the span, an (n, n) matrix."""
        return self.columns @ self.columns.T


@dataclass(frozen=True)
class SpectralSplit:
    """Invariant-subspace splitting of a hyperbolic matrix.

    Attributes
    ----------
    v_plus : Frame
        Invariant subspace for the spectrum with positive real part.
    v_minus : Frame
        Invariant subspace for the spectrum with negative real part.
    gap : float
        min |Re mu| over the spectrum; positive for hyperbolic input.
    """

    v_plus: Frame
    v_minus: Frame
    gap: float = field(default=0.0)

    def __post_init__(self):
        if self.v_plus.n != self.v_minus.n:
            raise DimensionMismatch("split frames live in different ambients")
        if self.v_plus.k + self.v_minus.k != self.v_plus.n:
            raise DimensionMismatch(
                "split dimensions do not exhaust the ambient space"
            )


def orthonormalize(basis):
    """Canonical orthonormal frame with the same column span.

    QR with the sign convention that the R factor has positive
    diagonal, which makes the representative deterministic.  An
    (m, n, k) stack of bases gives the (m, n, k) array of their frames
    from one stacked QR; an (n, k) basis, its one-matrix case, gives a
    Frame.

    Parameters
    ----------
    basis : (n, k) or (m, n, k) array_like
        Linearly independent columns.

    Raises
    ------
    InvalidInput
        If a basis has a non-finite entry.
    RankDeficient
        If the smallest singular value of a basis is <= 1e-12; it is
        read off the k x k R factor, which has the same singular values.
    """
    B = np.asarray(basis, dtype=float)
    stacked = B.ndim == 3
    B = B if stacked else np.atleast_2d(B)[None]
    if B.ndim != 3:
        raise DimensionMismatch("basis must be a 2-d array or a stack of them")
    m, n, k = B.shape
    if k > n:
        raise DimensionMismatch(f"more columns ({k}) than rows ({n})")
    if not np.isfinite(B).all():
        raise InvalidInput("basis has non-finite entries")
    if k == 0 or m == 0:
        Q = np.zeros((m, n, k))
    else:
        Q, R = _signed_qr(B)
        smin = _svals(R)[:, -1]
        low = smin <= _RANK_TOL
        if low.any():
            raise RankDeficient(f"smallest singular value "
                                f"{smin[low.argmax()]:.2e} <= {_RANK_TOL}")
    return Q if stacked else Frame._trusted(Q[0])


def _signed_qr(B: np.ndarray) -> tuple:
    """Reduced QR factors (Q, R) of an (m, n, k) stack, k >= 1, with Q's
    columns signed so that R's diagonal is positive (a zero diagonal
    entry counts as positive).  R is returned unsigned: its singular
    values are those of the signed factor."""
    Q, R = _qr(B)
    signs = np.sign(np.diagonal(R, axis1=1, axis2=2))
    signs[signs == 0] = 1.0
    return Q * signs[:, None, :], R


def _gaps(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Gap-metric distance of each pair of an (m, n, k) and an (m, n, j)
    stack of orthonormal frames, as :func:`gap_distance` defines it.

    Each pair is ordered by the bytes of its two frames before the
    residual is formed, so the result is bitwise symmetric in A and B.
    One stacked SVD reads every top singular value.
    """
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatch(
            f"ambient dimensions {A.shape[1]} != {B.shape[1]}")
    m, _, k = A.shape
    if k != B.shape[2]:
        return np.ones(m)
    if k == 0 or m == 0:
        return np.zeros(m)
    A = np.ascontiguousarray(A, dtype=float)
    B = np.ascontiguousarray(B, dtype=float)
    a = A.reshape(m, -1).view(np.uint8)
    b = B.reshape(m, -1).view(np.uint8)
    first = (a != b).argmax(axis=1)
    rows = np.arange(m)
    swap = (a[rows, first] > b[rows, first])[:, None, None]
    U, V = np.where(swap, B, A), np.where(swap, A, B)
    R = V - U @ (np.swapaxes(U, 1, 2) @ V)
    return _svals(R)[:, 0]


def gap_distance(U: Frame, V: Frame) -> float:
    """Gap-metric distance ||P_U - P_V|| in operator norm.

    Lies in [0, 1]; equals 0 iff the spans coincide, exactly 1 if the
    dimensions differ.  For equal dimensions it is the sine of the
    largest principal angle, the top singular value of the residual
    V - U(U^T V) (an n x k SVD in place of the n x n one of
    P_U - P_V).  The sine is never taken as sqrt(1 - cos^2), which
    cannot resolve gaps below about 1e-8.  Bitwise symmetric in its
    two arguments.  The one-pair case of the stacked ``_gaps``.

    Raises
    ------
    DimensionMismatch
        If the ambient dimensions differ.
    """
    return float(_gaps(U.columns[None], V.columns[None])[0])


def spectral_split(S) -> SpectralSplit:
    """Split R^n into invariant subspaces of S for Re > 0 and Re < 0.

    Uses an ordered real Schur decomposition twice, once per half
    plane, so each invariant subspace is read off the leading Schur
    vectors of its own reordering.

    Raises
    ------
    NotHyperbolic
        If some eigenvalue has |Re mu| <= ``_HYPERBOLIC_TOL`` (1e-8).
    """
    S = np.atleast_2d(np.asarray(S, dtype=float))
    n = S.shape[0]
    if S.shape != (n, n):
        raise DimensionMismatch(f"expected a square matrix, got {S.shape}")
    gap = float(np.min(np.abs(np.linalg.eigvals(S).real))) if n else 0.0
    if n and gap <= _HYPERBOLIC_TOL:
        raise NotHyperbolic(f"eigenvalue within {gap:.2e} of the imaginary "
                            f"axis (threshold {_HYPERBOLIC_TOL})")

    def invariant(sort) -> Frame:
        _, Z, sdim = sla.schur(S, output="real", sort=sort)
        if sdim == 0:
            return Frame(np.zeros((n, 0)))
        return orthonormalize(Z[:, :sdim])

    v_minus = invariant(lambda re, im: re < 0.0)
    v_plus = invariant(lambda re, im: re > 0.0)
    return SpectralSplit(v_plus=v_plus, v_minus=v_minus, gap=gap)


def pair_matrix(V: Frame, W: Frame) -> np.ndarray:
    """Square matrix [v_1 | ... | v_k | w_1 | ... | w_{n-k}].

    Raises
    ------
    DimensionMismatch
        If ambients differ or dim V + dim W != n.
    """
    if V.n != W.n:
        raise DimensionMismatch(f"ambient dimensions {V.n} != {W.n}")
    if V.k + W.k != V.n:
        raise DimensionMismatch(
            f"dim {V.k} + dim {W.k} != ambient {V.n}"
        )
    return np.hstack([V.columns, W.columns])


def _signed_dets(M: np.ndarray, eps_trans: float) -> tuple:
    """(dets, signs) of an (m, n, n) stack, checked as by :func:`det_sign`.

    One stacked SVD finds the degenerate matrices, whose sign is
    DEGENERATE; one stacked slogdet gives det = sign * exp(log|det|).
    """
    if not eps_trans > 0:
        raise InvalidInput(f"eps_trans must be positive, got {eps_trans!r}")
    if M.ndim != 3 or M.shape[1] != M.shape[2]:
        raise DimensionMismatch(f"expected a square matrix, got {M.shape[1:]}")
    if not np.isfinite(M).all():
        raise InvalidInput("matrix has non-finite entries")
    sign, logabs = np.linalg.slogdet(M)
    if M.shape[1] == 0:
        return sign, sign.astype(int)
    sigma = np.linalg.svd(M, compute_uv=False)
    dets = sign * np.exp(logabs)
    degenerate = sigma[:, -1] <= eps_trans * sigma[:, 0]
    return dets, np.where(degenerate, DEGENERATE, sign.astype(int))


def det_sign(M, eps_trans: float = 1e-6) -> int:
    """Sign of det M: +1, -1, or DEGENERATE (0).

    The degeneracy test is relative, sigma_min <= eps_trans * sigma_max,
    so the answer is scale-free.  The sign itself comes from a pivoted
    LU factorization (via slogdet), never from the determinant value.

    Raises
    ------
    InvalidInput
        If eps_trans is not positive, since a NaN would pass every
        matrix, or if M has a non-finite entry, which has no sign.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return int(_signed_dets(M[None], eps_trans)[1][0])


def _procrustes(M: np.ndarray) -> np.ndarray:
    """Orthogonal polar factors of products next^T prev, one or stacked.

    The same SVD gives the principal-angle cosines; GapTooLarge if a
    pair of frames is 0.5 or more apart in gap.
    """
    U, cos, Vt = np.linalg.svd(M)
    if np.any(cos[..., -1] <= _ALIGN_COS):
        raise GapTooLarge("consecutive frames further than 0.5 in gap metric")
    return U @ Vt


def _align_to(lefts: np.ndarray, nexts: np.ndarray) -> np.ndarray:
    """Each frame of ``nexts`` rotated within its span to sit closest to
    its partner in ``lefts``, two (m, n, k) stacks: one stacked SVD.

    Raises GapTooLarge if a pair is 0.5 or more apart in gap.
    """
    if nexts.shape[2] == 0:
        return nexts
    return nexts @ _procrustes(np.swapaxes(nexts, 1, 2) @ lefts)


def align_frame(prev: Frame, next: Frame) -> Frame:
    """Rotate ``next`` within its span to sit closest to ``prev``.

    Orthogonal Procrustes: returns next @ Q where Q is the orthogonal
    polar factor of next^T prev.  Composing aligned steps along a
    sampled path keeps det of pair matrices continuous.  The one-pair
    case of the stacked ``_align_to``.

    Raises
    ------
    GapTooLarge
        If gap_distance(prev, next) >= 0.5; refine the grid instead.
    DimensionMismatch
        If shapes disagree.
    """
    if prev.n != next.n or prev.k != next.k:
        raise DimensionMismatch(
            f"frames {prev.n}x{prev.k} and {next.n}x{next.k} incompatible"
        )
    return Frame._trusted(_align_to(prev.columns[None], next.columns[None])[0])


def _chain(F: np.ndarray) -> np.ndarray:
    """An (m, n, k) stack with each frame aligned to the previous aligned
    one; the first is kept.

    One stacked SVD of the products F_i^T F_{i-1} gives every polar
    factor P_i; the aligned frame i is F_i R_i with the running product
    R_i = P_i R_{i-1}, R_0 = I, since aligning to F_{i-1} R_{i-1}
    rotates the polar factor by R_{i-1}.

    Raises GapTooLarge if two consecutive frames are 0.5 or more apart.
    """
    if len(F) == 1 or F.shape[2] == 0:
        return F
    polar = _procrustes(np.swapaxes(F[1:], 1, 2) @ F[:-1])
    R = np.empty_like(polar)
    R[0] = polar[0]
    for i in range(1, len(polar)):
        R[i] = polar[i] @ R[i - 1]
    return np.concatenate([F[:1], F[1:] @ R])


def align_chain(frames: Sequence[Frame]) -> list[Frame]:
    """Align each frame to the previous aligned one; the first is kept.

    The chained frames vary continuously along a sampled path, which
    determinant-sign tracking over the path requires.  The frame-list
    case of the stacked ``_chain``.

    Raises
    ------
    GapTooLarge
        If two consecutive frames are 0.5 or more apart in gap.
    DimensionMismatch
        If the frames differ in shape.
    """
    first = frames[0]
    if any(f.n != first.n or f.k != first.k for f in frames):
        raise DimensionMismatch("frames change shape along the chain")
    if len(frames) == 1 or first.k == 0:
        return list(frames)
    chained = _chain(np.stack([f.columns for f in frames]))
    return [first] + [Frame._trusted(c) for c in chained[1:]]


def _complements(F: np.ndarray) -> np.ndarray:
    """Canonical frames of the orthogonal complements of an (m, n, k)
    stack: one stacked complete QR, then :func:`orthonormalize`."""
    m, n, k = F.shape
    if k == 0:
        return orthonormalize(np.broadcast_to(np.eye(n), (m, n, n)))
    if k == n:
        return np.zeros((m, n, 0))
    Q, _ = np.linalg.qr(F, mode="complete")
    return orthonormalize(Q[:, :, k:])


def orthogonal_complement(V: Frame) -> Frame:
    """Canonical (n-k)-frame spanning the orthogonal complement; the
    one-frame case of the stacked ``_complements``."""
    return Frame._trusted(_complements(V.columns[None])[0])
