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
principal-angle cosines from one SVD, stacked over a whole chain
(Higham 1986).  Frames built by orthonormalization and alignment are
orthonormal by construction and skip ``Frame`` validation.  Single
small QR and singular-value factorizations call LAPACK directly: at
n <= 6, numpy's per-call wrapper costs more than the factorization.

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
#: Cosine of the largest principal angle at gap 0.5: sin = 0.5 there.
_ALIGN_COS = np.sqrt(0.75)


def _singular_values(M: np.ndarray) -> np.ndarray:
    """Singular values of a nonempty matrix, largest first (gesdd)."""
    _, sigma, _, info = dgesdd(M, compute_uv=0)
    if info:
        raise np.linalg.LinAlgError("SVD did not converge")
    return sigma


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


def orthonormalize(basis) -> Frame:
    """Canonical orthonormal frame with the same column span.

    QR with the sign convention that the R factor has positive
    diagonal, which makes the representative deterministic.

    Parameters
    ----------
    basis : (n, k) array_like
        Linearly independent columns.

    Raises
    ------
    InvalidInput
        If ``basis`` has a non-finite entry.
    RankDeficient
        If the smallest singular value of ``basis`` is <= 1e-12; it is
        read off the k x k R factor, which has the same singular values.
    """
    B = np.atleast_2d(np.asarray(basis, dtype=float))
    if B.ndim != 2:
        raise DimensionMismatch("basis must be a 2-d array")
    n, k = B.shape
    if k > n:
        raise DimensionMismatch(f"more columns ({k}) than rows ({n})")
    if not np.isfinite(B).all():
        raise InvalidInput("basis has non-finite entries")
    if k == 0:
        return Frame._trusted(np.zeros((n, 0)))
    qr, tau, _, _ = dgeqrf(B)
    R = np.triu(qr[:k])
    smin = _singular_values(R)[-1]
    if smin <= _RANK_TOL:
        raise RankDeficient(f"smallest singular value {smin:.2e} <= {_RANK_TOL}")
    Q, _, _ = dorgqr(qr, tau)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Frame._trusted(Q * signs)


def gap_distance(U: Frame, V: Frame) -> float:
    """Gap-metric distance ||P_U - P_V|| in operator norm.

    Lies in [0, 1]; equals 0 iff the spans coincide, exactly 1 if the
    dimensions differ.  For equal dimensions it is the sine of the
    largest principal angle, the top singular value of the residual
    V - U(U^T V) (an n x k SVD in place of the n x n one of
    P_U - P_V).  The sine is never taken as sqrt(1 - cos^2), which
    cannot resolve gaps below about 1e-8.  Bitwise symmetric in its
    two arguments.

    Raises
    ------
    DimensionMismatch
        If the ambient dimensions differ.
    """
    if U.n != V.n:
        raise DimensionMismatch(f"ambient dimensions {U.n} != {V.n}")
    if U.k != V.k:
        return 1.0
    if U.k == 0:
        return 0.0
    if U.columns.tobytes() > V.columns.tobytes():
        U, V = V, U
    A, B = U.columns, V.columns
    return float(_singular_values(B - A @ (A.T @ B))[0])


def spectral_split(S, delta: float = 1e-8) -> SpectralSplit:
    """Split R^n into invariant subspaces of S for Re > 0 and Re < 0.

    Uses an ordered real Schur decomposition twice, once per half
    plane, so each invariant subspace is read off the leading Schur
    vectors of its own reordering.

    Parameters
    ----------
    S : (n, n) array_like
    delta : float
        Hyperbolicity threshold on min |Re mu|.

    Raises
    ------
    NotHyperbolic
        If some eigenvalue has |Re mu| <= delta.
    """
    S = np.atleast_2d(np.asarray(S, dtype=float))
    n = S.shape[0]
    if S.shape != (n, n):
        raise DimensionMismatch(f"expected a square matrix, got {S.shape}")
    gap = float(np.min(np.abs(np.linalg.eigvals(S).real))) if n else 0.0
    if n and gap <= delta:
        raise NotHyperbolic(
            f"eigenvalue within {gap:.2e} of the imaginary axis (delta={delta})"
        )

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
    if not eps_trans > 0:
        raise InvalidInput(f"eps_trans must be positive, got {eps_trans!r}")
    M = np.atleast_2d(np.asarray(M, dtype=float))
    n = M.shape[0]
    if M.shape != (n, n):
        raise DimensionMismatch(f"expected a square matrix, got {M.shape}")
    if not np.isfinite(M).all():
        raise InvalidInput("matrix has non-finite entries")
    if n == 0:
        return 1
    sigma = _singular_values(M)
    if sigma[-1] <= eps_trans * sigma[0]:
        return DEGENERATE
    sign, _ = np.linalg.slogdet(M)
    return int(sign)


def _procrustes(M: np.ndarray) -> np.ndarray:
    """Orthogonal polar factors of products next^T prev, one or stacked.

    The same SVD gives the principal-angle cosines; GapTooLarge if a
    pair of frames is 0.5 or more apart in gap.
    """
    U, cos, Vt = np.linalg.svd(M)
    if np.any(cos[..., -1] <= _ALIGN_COS):
        raise GapTooLarge("consecutive frames further than 0.5 in gap metric")
    return U @ Vt


def align_frame(prev: Frame, next: Frame) -> Frame:
    """Rotate ``next`` within its span to sit closest to ``prev``.

    Orthogonal Procrustes: returns next @ Q where Q is the orthogonal
    polar factor of next^T prev.  Composing aligned steps along a
    sampled path keeps det of pair matrices continuous.

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
    if next.k == 0:
        return next
    Q = _procrustes(next.columns.T @ prev.columns)
    return Frame._trusted(next.columns @ Q)


def align_chain(frames: Sequence[Frame]) -> list[Frame]:
    """Align each frame to the previous aligned one; the first is kept.

    The chained frames vary continuously along a sampled path, which
    determinant-sign tracking over the path requires.  One stacked SVD
    of the products F_i^T F_{i-1} gives every polar factor P_i; the
    aligned frame i is F_i R_i with the running product
    R_i = P_i R_{i-1}, R_0 = I, since aligning to F_{i-1} R_{i-1}
    rotates the polar factor by R_{i-1}.

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
    F = np.stack([f.columns for f in frames])
    polar = _procrustes(np.swapaxes(F[1:], 1, 2) @ F[:-1])
    out, R = [first], np.eye(first.k)
    for cols, P in zip(F[1:], polar):
        R = P @ R
        out.append(Frame._trusted(cols @ R))
    return out


def orthogonal_complement(V: Frame) -> Frame:
    """Canonical (n-k)-frame spanning the orthogonal complement."""
    n, k = V.n, V.k
    if k == 0:
        return orthonormalize(np.eye(n))
    if k == n:
        return Frame(np.zeros((n, 0)))
    Q, _ = np.linalg.qr(V.columns, mode="complete")
    return orthonormalize(Q[:, k:])
