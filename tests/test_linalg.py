"""Frames, spectral splits, determinant signs, alignment."""

import numpy as np
import pytest
from scipy.linalg import expm

from hetindex import (
    DimensionMismatch,
    Frame,
    GapTooLarge,
    InvalidInput,
    NotHyperbolic,
    RankDeficient,
    align_frame,
    det_sign,
    gap_distance,
    orthogonal_complement,
    orthonormalize,
    pair_matrix,
    spectral_split,
)
from hetindex.linalg import DEGENERATE, align_chain


def test_orthonormalize_columns_are_orthonormal():
    rng = np.random.default_rng(0)
    for _ in range(20):
        B = rng.normal(size=(5, 3))
        F = orthonormalize(B)
        assert np.allclose(F.columns.T @ F.columns, np.eye(3), atol=1e-12)


def test_orthonormalize_preserves_span():
    rng = np.random.default_rng(1)
    B = rng.normal(size=(6, 2))
    F = orthonormalize(B)
    # projection onto span(F) fixes the original columns
    P = F.columns @ F.columns.T
    assert np.allclose(P @ B, B, atol=1e-10)


def test_orthonormalize_is_idempotent_on_clean_input():
    F = orthonormalize(np.array([[3.0, 0.0], [0.0, 0.0], [0.0, 2.0]]))
    G = orthonormalize(F.columns)
    assert np.allclose(F.columns, G.columns, atol=1e-14)


def test_gap_distance_same_span_is_zero():
    A = orthonormalize(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))
    B = orthonormalize(np.array([[2.0, 0.0], [1.0, -1.0], [0.0, 0.0]]))
    assert gap_distance(A, B) < 1e-12


def test_gap_distance_rotated_line():
    # gap between span(e1) and a line at angle theta is sin(theta)
    e1 = orthonormalize(np.array([[1.0], [0.0]]))
    for theta in (0.1, 0.4, np.pi / 3):
        v = orthonormalize(np.array([[np.cos(theta)], [np.sin(theta)]]))
        assert abs(gap_distance(e1, v) - np.sin(theta)) < 1e-12


def test_gap_distance_orthogonal_is_one():
    e1 = orthonormalize(np.array([[1.0], [0.0]]))
    e2 = orthonormalize(np.array([[0.0], [1.0]]))
    assert abs(gap_distance(e1, e2) - 1.0) < 1e-12


def test_spectral_split_diagonal():
    split = spectral_split(np.diag([-1.0, 2.0]))
    assert split.v_plus.k == 1 and split.v_minus.k == 1
    assert np.allclose(np.abs(split.v_plus.columns.ravel()), [0.0, 1.0],
                       atol=1e-12)
    assert np.allclose(np.abs(split.v_minus.columns.ravel()), [1.0, 0.0],
                       atol=1e-12)


def test_spectral_split_triangular():
    # [[1, 5], [0, -1]]: eigenvector for -1 solves 2 x1 = -5 x2,
    # so v_minus spans (5, -2) / sqrt(29)
    split = spectral_split(np.array([[1.0, 5.0], [0.0, -1.0]]))
    v = split.v_minus.columns.ravel()
    expect = np.array([5.0, -2.0]) / np.sqrt(29.0)
    if v[0] < 0:
        v = -v
    assert np.allclose(v, expect, atol=1e-12)
    w = split.v_plus.columns.ravel()
    assert abs(abs(w[0]) - 1.0) < 1e-12 and abs(w[1]) < 1e-12


def test_spectral_split_dimensions_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        lam = rng.normal(size=n)
        lam[np.abs(lam) < 0.2] += np.sign(lam[np.abs(lam) < 0.2]) + 0.3
        Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        S = Q @ np.diag(lam) @ Q.T
        split = spectral_split(S)
        assert split.v_plus.k == int(np.sum(lam > 0))
        assert split.v_minus.k == int(np.sum(lam < 0))
        # each claimed subspace is invariant: S maps it into itself
        for F in (split.v_plus, split.v_minus):
            img = S @ F.columns
            P = F.columns @ F.columns.T
            assert np.allclose(P @ img, img, atol=1e-8)


def test_spectral_split_rejects_rotation():
    with pytest.raises(NotHyperbolic):
        spectral_split(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_spectral_split_rejects_near_zero_eigenvalue():
    with pytest.raises(NotHyperbolic):
        spectral_split(np.diag([1e-12, 1.0]), delta=1e-8)


def test_det_sign_basic():
    assert det_sign(np.eye(3)) == 1
    assert det_sign(np.diag([1.0, -1.0])) == -1
    assert det_sign(np.zeros((2, 2))) == DEGENERATE


def test_det_sign_is_scale_free():
    assert det_sign(1e-30 * np.eye(4)) == 1
    assert det_sign(1e+30 * np.diag([-1.0, 1.0, 1.0])) == -1


def test_det_sign_relative_threshold():
    # sigma_min / sigma_max below eps_trans reads as degenerate
    M = np.diag([1.0, 1e-8])
    assert det_sign(M, eps_trans=1e-6) == DEGENERATE
    assert det_sign(M, eps_trans=1e-10) == 1


@pytest.mark.parametrize("eps", [float("nan"), 0.0, -1e-6])
def test_det_sign_rejects_non_positive_threshold(eps):
    # a NaN threshold would read every matrix as transversal
    with pytest.raises(InvalidInput):
        det_sign([[1.0, 0.0], [0.0, 1e-30]], eps)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_det_sign_rejects_non_finite_matrix(bad):
    # LAPACK returns NaN singular values for an infinite entry, which
    # passed the degeneracy test and read as sign 1; NaN leaked LinAlgError
    with pytest.raises(InvalidInput):
        det_sign([[bad, 1.0], [0.0, 1.0]])


def test_align_frame_spans_next():
    rng = np.random.default_rng(3)
    prev = orthonormalize(rng.normal(size=(5, 2)))
    nxt = orthonormalize(prev.columns + 0.05 * rng.normal(size=(5, 2)))
    out = align_frame(prev, nxt)
    P = nxt.columns @ nxt.columns.T
    assert np.allclose(P @ out.columns, out.columns, atol=1e-10)
    # Procrustes factor against prev is symmetric positive definite
    G = out.columns.T @ prev.columns
    assert np.allclose(G, G.T, atol=1e-10)
    assert np.all(np.linalg.eigvalsh((G + G.T) / 2) > 0)


def test_align_frame_identity_when_same_frame():
    F = orthonormalize(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    out = align_frame(F, F)
    assert np.allclose(out.columns, F.columns, atol=1e-12)


def test_align_frame_rejects_large_gap():
    e1 = orthonormalize(np.array([[1.0], [0.0]]))
    e2 = orthonormalize(np.array([[0.0], [1.0]]))
    with pytest.raises(GapTooLarge):
        align_frame(e1, e2)


def _oracle_gap(U, V):
    """Projector-norm gap ||P_U - P_V||_2, the reference for the kernel."""
    return float(np.linalg.norm(U.projector() - V.projector(), 2))


def _random_pairs(seed, count, spread):
    """Equal-dimension frame pairs, n <= 6, a random distance apart."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, n + 1))
        U = orthonormalize(rng.normal(size=(n, k)))
        step = rng.uniform(0.0, spread) * rng.normal(size=(n, k))
        yield U, orthonormalize(U.columns + step)


def test_gap_distance_is_bitwise_symmetric():
    for U, V in _random_pairs(1, 20000, 2.0):
        assert gap_distance(U, V) == gap_distance(V, U)


def test_align_frame_rejects_exactly_the_oracle_large_gaps():
    raised = kept = 0
    for prev, nxt in _random_pairs(2, 3000, 1.2):
        gap = _oracle_gap(prev, nxt)
        if abs(gap - 0.5) <= 1e-12:
            continue
        if gap >= 0.5:
            with pytest.raises(GapTooLarge):
                align_frame(prev, nxt)
            raised += 1
        else:
            U, _, Vt = np.linalg.svd(nxt.columns.T @ prev.columns)
            out = align_frame(prev, nxt)
            assert np.array_equal(out.columns, nxt.columns @ (U @ Vt))
            kept += 1
    assert raised > 300 and kept > 300


def test_align_frame_rejects_shape_mismatch():
    a = orthonormalize(np.eye(3)[:, :1])
    b = orthonormalize(np.eye(4)[:, :1])
    with pytest.raises(DimensionMismatch):
        align_frame(a, b)


def test_orthogonal_complement():
    rng = np.random.default_rng(5)
    for n, k in ((4, 1), (5, 2), (6, 3)):
        F = orthonormalize(rng.normal(size=(n, k)))
        C = orthogonal_complement(F)
        assert C.columns.shape == (n, n - k)
        assert np.allclose(F.columns.T @ C.columns, 0.0, atol=1e-12)
        assert np.allclose(C.columns.T @ C.columns, np.eye(n - k),
                           atol=1e-12)


def test_pair_matrix_concatenates():
    V = orthonormalize(np.array([[1.0], [0.0]]))
    W = orthonormalize(np.array([[0.0], [1.0]]))
    M = pair_matrix(V, W)
    assert M.shape == (2, 2)
    assert det_sign(M) == 1


def test_pair_matrix_rejects_wrong_total_dimension():
    V = orthonormalize(np.eye(3)[:, :2])
    W = orthonormalize(np.eye(3)[:, :2])
    with pytest.raises(DimensionMismatch):
        pair_matrix(V, W)


def test_frame_carries_shape():
    F = Frame(columns=np.eye(4)[:, :2])
    assert F.n == 4 and F.k == 2


def test_frame_rejects_nan_columns():
    with pytest.raises(ValueError):
        Frame(np.full((2, 1), np.nan))


def test_frame_rejects_non_orthonormal_columns():
    with pytest.raises(ValueError):
        Frame(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        Frame(np.array([[1.0], [1e-4]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_orthonormalize_rejects_non_finite_basis(bad):
    B = np.eye(3)[:, :2]
    B[1, 1] = bad
    with pytest.raises(InvalidInput, match="non-finite"):
        orthonormalize(B)


def _basis_with_singular_values(seed, n, sigma):
    rng = np.random.default_rng(seed)
    k = len(sigma)
    Q1 = np.linalg.qr(rng.normal(size=(n, k)))[0]
    Q2 = np.linalg.qr(rng.normal(size=(k, k)))[0]
    return Q1 @ np.diag(sigma) @ Q2.T


@pytest.mark.parametrize("seed", range(5))
def test_orthonormalize_rank_test_reads_singular_values(seed):
    # the rank test runs on R, whose singular values are those of B
    with pytest.raises(RankDeficient):
        orthonormalize(_basis_with_singular_values(seed, 5, [1.0, 0.5, 1e-13]))
    F = orthonormalize(_basis_with_singular_values(seed, 5, [1.0, 0.5, 1e-11]))
    assert F.k == 3


def test_gap_distance_agrees_with_projector_oracle():
    for U, V in _random_pairs(3, 2000, 1.5):
        assert abs(gap_distance(U, V) - _oracle_gap(U, V)) <= 1e-13


def test_gap_distance_resolves_tiny_rotations():
    # sqrt(1 - cos^2) reads 0 below about 1e-8; the residual sine does not
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n))
        U = orthonormalize(rng.normal(size=(n, k)))
        K = rng.normal(size=(n, n))
        K = (K - K.T) / np.linalg.norm(K - K.T, 2)
        V = Frame(expm(1e-8 * K) @ U.columns)
        oracle = _oracle_gap(U, V)
        assert abs(gap_distance(U, V) - oracle) <= 1e-6 * oracle


@pytest.mark.parametrize("theta", [1e-8, 1e-12])
def test_gap_distance_is_the_largest_principal_sine(theta):
    # rotations in coordinate planes, under a signed row permutation,
    # keep the projector oracle exact down to the smallest angles
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n // 2 + 1))
        angles = theta * rng.uniform(0.5, 2.0, k)
        A = np.zeros((n, k))
        B = np.zeros((n, k))
        for i, a in enumerate(angles):
            A[i, i] = 1.0
            B[i, i], B[k + i, i] = np.cos(a), np.sin(a)
        perm = rng.permutation(n)
        signs = rng.choice([-1.0, 1.0], size=(n, 1))
        U, V = Frame(signs * A[perm]), Frame(signs * B[perm])
        gap = gap_distance(U, V)
        assert abs(gap - _oracle_gap(U, V)) <= 1e-6 * gap
        assert abs(gap - np.sin(angles.max())) <= 1e-6 * gap


def test_gap_distance_unequal_dimensions_is_exactly_one():
    rng = np.random.default_rng(6)
    for n in range(2, 7):
        U = orthonormalize(rng.normal(size=(n, 1)))
        V = orthonormalize(np.hstack([U.columns, rng.normal(size=(n, 1))]))
        assert gap_distance(U, V) == gap_distance(V, U) == 1.0
        empty = Frame(np.zeros((n, 0)))
        assert gap_distance(empty, U) == 1.0
        assert gap_distance(empty, empty) == 0.0


def _sequential_chain(frames):
    """Frame-by-frame Procrustes chain, the reference for align_chain."""
    out = [frames[0]]
    for f in frames[1:]:
        out.append(align_frame(out[-1], f))
    return out


def _random_chain(rng, length, jump=None):
    """A slowly turning frame chain, each frame in a random orientation.

    With ``jump`` set, the frame at that index turns to the orthogonal
    complement of the frame before it, a gap of 1.
    """
    n = int(rng.integers(2, 7))
    k = int(rng.integers(1, n))
    F = orthonormalize(rng.normal(size=(n, k)))
    frames = []
    for i in range(length):
        if i == jump:
            F = orthonormalize(np.linalg.qr(F.columns, mode="complete")[0]
                               [:, n - k:])
        else:
            F = orthonormalize(F.columns + 0.05 * rng.normal(size=(n, k)))
        Q = np.linalg.qr(rng.normal(size=(k, k)))[0]
        frames.append(Frame(F.columns @ Q))
    return frames


def test_align_chain_agrees_with_sequential_alignment():
    rng = np.random.default_rng(8)
    for _ in range(50):
        frames = _random_chain(rng, 65)
        fast, slow = align_chain(frames), _sequential_chain(frames)
        assert fast[0] is frames[0]
        for a, b in zip(fast, slow):
            assert np.max(np.abs(a.columns - b.columns)) <= 1e-13


def test_align_chain_rejects_the_jumps_sequential_alignment_rejects():
    rng = np.random.default_rng(9)
    for _ in range(50):
        frames = _random_chain(rng, 65, jump=int(rng.integers(1, 65)))
        with pytest.raises(GapTooLarge):
            _sequential_chain(frames)
        with pytest.raises(GapTooLarge):
            align_chain(frames)


def test_align_chain_edge_shapes():
    F = orthonormalize(np.eye(3)[:, :2])
    assert align_chain([F]) == [F]
    empty = [Frame(np.zeros((3, 0)))] * 3
    assert align_chain(empty) == empty
    with pytest.raises(DimensionMismatch):
        align_chain([F, orthonormalize(np.eye(3)[:, :1])])
