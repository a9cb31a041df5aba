"""Finite-dimensional parity, operator discretization, index theorem."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hetindex import (
    DegenerateEndpoint,
    DimensionMismatch,
    HypothesisFailure,
    InternalMismatch,
    InvalidInput,
    LinearFamily,
    UnstableTruncation,
    boundary_pair_over_lambda,
    decomposition_check,
    discretize,
    finite_parity,
    geometric_parity,
    kernel_dimension,
    operator_parity,
    parse_matrix,
    sparse_det_sign,
    verify_index_theorem,
    z2_index,
)
from hetindex import flow as flowmod
from hetindex import parity as paritymod
from hetindex.suites import poschl_teller_family


def positive_family():
    return LinearFamily.from_matrix_expr(
        parse_matrix([["0", "1"], ["1 + lambda*sech(t)^2", "0"]]), k=1)


def rotating_loop_family():
    # S^- = R diag(1, -1) R^T with R the rotation by pi*lambda, S^+ =
    # diag(1, -1): E^u(-tau) turns by pi over [0, 1] and S(1) = S(0).
    # The aligned B_u frame comes back reversed, so the last operator's
    # sign depends on the whole chain of alignments (value 1, flip at
    # lambda = 0.5, where sech(t) e_2 is a kernel solution).
    wm, wp = "(1 - tanh(t))/2", "(1 + tanh(t))/2"
    c, s = "cos(6.283185307179586*lambda)", "sin(6.283185307179586*lambda)"
    return LinearFamily.from_matrix_expr(parse_matrix([
        [f"{wm}*{c} + {wp}", f"{wm}*{s}"],
        [f"{wm}*{s}", f"-{wm}*{c} - {wp}"],
    ]), k=1)


# -- finite-dimensional model ------------------------------------------

def test_finite_parity_sign_change():
    assert finite_parity(lambda s: np.diag([1.0, 1.0 - 2.0 * s])) == 1


def test_finite_parity_constant():
    assert finite_parity(lambda s: np.eye(3)) == 0


def test_finite_parity_rotation():
    def T(s):
        c, w = np.cos(np.pi * s), np.sin(np.pi * s)
        return np.array([[c, -w], [w, c]])

    assert finite_parity(T) == 0


def test_finite_parity_rejects_singular_endpoint():
    with pytest.raises(DegenerateEndpoint):
        finite_parity(lambda s: np.diag([s, 1.0]))


@pytest.mark.parametrize("T, bad", [
    (lambda s: np.eye(2) if s < 0.5 else np.eye(3), 0.5),
    (lambda s: np.eye(2) if s < 1.0 else np.eye(3), 1.0),
    (lambda s: np.ones((2, 3)), 0.0),
], ids=["inside", "at-one", "not-square"])
def test_finite_parity_refuses_a_path_that_changes_shape(T, bad):
    with pytest.raises(DimensionMismatch, match=f"s={bad!r}"):
        finite_parity(T, samples=5)


# -- sparse determinant signs ------------------------------------------

def test_sparse_det_sign_basic():
    assert sparse_det_sign(sp.eye(5, format="csc")) == 1
    assert sparse_det_sign(sp.csc_matrix(np.diag([1.0, -1.0, 1.0]))) == -1
    assert sparse_det_sign(sp.csc_matrix(np.zeros((3, 3)))) == 0


def test_sparse_det_sign_permutation():
    # a transposition flips the sign, a 3-cycle does not
    P = np.eye(4)[[1, 0, 2, 3]]
    assert sparse_det_sign(sp.csc_matrix(P)) == -1
    P = np.eye(4)[[1, 2, 0, 3]]
    assert sparse_det_sign(sp.csc_matrix(P)) == 1


def test_sparse_det_sign_matches_dense():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        M = rng.normal(size=(n, n))
        want = int(np.sign(np.linalg.det(M)))
        assert sparse_det_sign(sp.csc_matrix(M)) == want


def _perm_parity_reference(p):
    """Cycle walk: each cycle of even length flips the sign."""
    seen = np.zeros(len(p), dtype=bool)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@pytest.mark.parametrize("n", [0, 1, 2, 7, 3002, 6002])
def test_perm_parity_matches_cycle_walk(n):
    rng = np.random.default_rng(n)
    perms = [np.arange(n)] + [rng.permutation(n) for _ in range(20)]
    if n >= 2:
        swap = np.arange(n)
        swap[[0, n - 1]] = swap[[n - 1, 0]]
        perms.append(swap)
    for p in perms:
        p = p.astype(np.int32)
        assert paritymod._perm_parity(p) == _perm_parity_reference(p)


def test_perm_parity_on_superlu_permutations():
    op = discretize(poschl_teller_family(), 0.5, tau=4.0, N=60)
    lu = spla.splu(op.matrix.tocsc())
    for p in (lu.perm_r, lu.perm_c):
        assert sorted(p) == list(range(op.matrix.shape[0]))
        assert paritymod._perm_parity(p) == _perm_parity_reference(p)


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.7, 0.79, 0.81, 0.9, 1.0])
def test_sparse_det_sign_matches_slogdet_on_operator(lam):
    # the kernel of the Poschl-Teller operator appears at lambda = 0.8,
    # where the sign changes; check it on both sides
    op = discretize(poschl_teller_family(), lam, tau=4.0, N=60)
    sign, _ = np.linalg.slogdet(op.matrix.toarray())
    assert sign != 0
    assert sparse_det_sign(op.matrix) == int(sign)


# -- block-elimination signs against the sparse LU ---------------------

def _block_and_lu_signs(fam, lams, tau, N):
    """(_block_signs, _signed_lu signs) of every operator of a sweep."""
    lams = np.asarray(lams, dtype=float)
    frames = paritymod._boundary_frames(fam, lams, tau, 1e-9, 1e-12)
    block = paritymod._block_signs(fam, lams, tau, N, frames)
    lu = [paritymod._signed_lu(M)[0]
          for M in paritymod._operators(fam, lams, tau, N, *frames[2:])]
    return block.tolist(), lu


def _negative_factors(fam, lams, tau, N):
    """Count of the Cayley factors of a sweep with det(I - h S/2) < 0,
    by LAPACK's slogdet."""
    h = 2.0 * tau / N
    mids = -tau + h * (np.arange(N) + 0.5)
    S = fam.evaluate_many(np.asarray(lams, dtype=float)[:, None],
                          mids[None, :])
    return int(np.sum(np.linalg.slogdet(np.eye(fam.n) - 0.5 * h * S)[0] < 0))


@pytest.mark.parametrize("N", [1500, 3000])
def test_block_signs_match_lu_on_theorem_grid(N):
    block, lu = _block_and_lu_signs(poschl_teller_family(),
                                    np.linspace(0.0, 1.0, 201), 15.0, N)
    assert block == lu
    assert block[0] == -block[-1] and 0 not in block


def test_block_signs_match_lu_with_two_flips():
    block, lu = _block_and_lu_signs(poschl_teller_family("8*lambda"),
                                    np.linspace(0.0, 1.0, 41), 8.0, 400)
    assert block == lu
    assert sum(a != b for a, b in zip(block, block[1:])) == 2


def test_block_signs_match_lu_on_positive_potential_demo():
    from hetindex.cli import DEMOS

    cfg = DEMOS["positive-potential"]["config"]
    block, lu = _block_and_lu_signs(
        LinearFamily.from_matrix_expr(parse_matrix(cfg["S"]), k=cfg["k"]),
        np.linspace(0.0, 1.0, cfg["lam_samples"]), cfg["tau"], cfg["N"])
    assert block == lu


def test_block_signs_match_lu_with_negative_factors():
    # at N = 6 the steps are so coarse that many factors I - h S/2 have
    # a negative determinant, and each one flips the product
    fam, lams = poschl_teller_family(), np.linspace(0.0, 1.0, 41)
    assert _negative_factors(fam, lams, 8.0, 6) > 0
    block, lu = _block_and_lu_signs(fam, lams, 8.0, 6)
    assert block == lu


@pytest.mark.parametrize("N", [301, 400, 5, 6],
                         ids=["odd-N", "even-N", "coarse-odd-N",
                              "coarse-even-N"])
@pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2),
                                  (4, 3)])
def test_block_signs_match_lu_on_connecting_families(n, k, N):
    # (n, k) = (3, 1) at odd N is the one case where (-1)^(k N n) is -1;
    # a wrong prefactor can pass every other case
    from hetindex.suites import _random_connecting_family

    fam = _random_connecting_family(np.random.default_rng([n + k, 505]),
                                    n, k)
    lams = np.linspace(-3.0, 3.0, 9)
    if N < 10:
        # coarse steps: some factors have det(I - h S/2) < 0
        assert _negative_factors(fam, lams, 8.0, N) > 0
    block, lu = _block_and_lu_signs(fam, lams, 8.0, N)
    assert block == lu


def test_block_signs_sign_a_singular_factor_by_lu(monkeypatch):
    # make I - h S/2 exactly singular at one step of one lambda: that
    # lambda, and only it, is signed by the sparse LU of its operator
    fam, tau, N = poschl_teller_family(), 8.0, 401
    lams = np.linspace(0.0, 1.0, 5)
    frames = paritymod._boundary_frames(fam, lams, tau, 1e-9, 1e-12)
    h = 2.0 * tau / N
    t_bad = -tau + h * 100.5
    real = flowmod.LinearFamily.evaluate_many

    def singular_step(self, lam, t):
        out = real(self, lam, t)
        lam_b, t_b = np.broadcast_arrays(lam, t)
        out[(lam_b == lams[2]) & (t_b == t_bad)] = np.diag([2.0 / h, 0.0])
        return out

    monkeypatch.setattr(flowmod.LinearFamily, "evaluate_many", singular_step)
    real_lu, lu_sizes = paritymod._signed_lu, []

    def counting_lu(M, sigma=False):
        lu_sizes.append(M.shape[0])
        return real_lu(M, sigma)

    monkeypatch.setattr(paritymod, "_signed_lu", counting_lu)
    block = paritymod._block_signs(fam, lams, tau, N, frames)
    assert lu_sizes == [(N + 1) * 2]
    lu = [real_lu(M)[0]
          for M in paritymod._operators(fam, lams, tau, N, *frames[2:])]
    assert block.tolist() == lu


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_cayley_factors_match_lapack(n):
    rng = np.random.default_rng([n, 20])
    H = 0.2 * rng.standard_normal((7, 5, n, n))
    if n > 1:
        # I - H swapping the first two coordinates: (0, 0) entry zero,
        # so the first pivot needs a row swap
        H[0, 0] = np.eye(n) - np.eye(n)[[1, 0, *range(2, n)]]
    C, sign = paritymod._cayley_factors(H)
    L = np.eye(n) - H
    assert C.shape == H.shape and sign.shape == H.shape[:2]
    np.testing.assert_allclose(C, np.linalg.solve(L, np.eye(n) + H),
                               rtol=0.0, atol=1e-12)
    assert np.array_equal(sign, np.linalg.slogdet(L)[0])
    if n > 1:
        assert sign[0, 0] == -1.0


def test_cayley_factors_flag_an_exactly_singular_factor():
    H = np.zeros((2, 3, 2, 2))
    H[1, 2] = np.diag([1.0, 0.0])        # I - H = diag(0, 1)
    C, sign = paritymod._cayley_factors(H)
    singular = ~(np.abs(sign) > 0)
    assert singular.tolist() == [[False] * 3, [False, False, True]]
    assert np.isnan(sign[1, 2])           # not 0: the pivot divides by 0
    assert np.array_equal(C[~singular], np.broadcast_to(np.eye(2), (5, 2, 2)))


def test_operator_parity_on_a_scalar_family():
    # n = 1, h = 3.2: at the t = 0 step, det(I - h S/2) = 3.2 lambda - 0.6
    # changes sign at lambda = 0.1875 while the operator stays
    # invertible, and 1 + h S/2 = 2.6 - 3.2 lambda makes it singular at
    # lambda = 0.8125
    fam = LinearFamily.from_matrix_expr(
        parse_matrix([["1 - 2*lambda*sech(t)^2"]]), k=1)
    lams = np.linspace(0.0, 1.0, 21)
    assert _negative_factors(fam, lams, 8.0, 5) > 0
    rep = operator_parity(fam, lams, tau=8.0, N=5, stability=False)
    lu = [paritymod._signed_lu(discretize(fam, lam, 8.0, 5).matrix)[0]
          for lam in lams]
    assert rep.det_signs.tolist() == lu
    assert rep.value == 1
    assert rep.flips == pytest.approx((0.8125,), abs=1e-3)


# -- discretized operator ----------------------------------------------

def test_discretize_shape_and_boundary_frames():
    fam = poschl_teller_family()
    op = discretize(fam, 0.0, tau=6.0, N=100)
    assert op.matrix.shape == (202, 202)
    assert op.b_u.columns.shape == (2, 1)
    assert op.b_s.columns.shape == (2, 1)
    # boundary rows annihilate the prescribed subspaces
    assert np.allclose(op.b_u.columns.T @ op.e_u.columns, 0.0, atol=1e-12)
    assert np.allclose(op.b_s.columns.T @ op.e_s.columns, 0.0, atol=1e-12)


def test_discretize_interior_consistency():
    # constant q = 1: x(t) = (cosh t, sinh t) solves x' = S x, so the
    # midpoint rows applied to its samples are O(h^2)
    S = np.array([[0.0, 1.0], [1.0, 0.0]])
    fam = LinearFamily.from_callable(lambda lam, t: S, n=2, k=1, t_max=4.0)
    tau, N = 1.0, 100
    op = discretize(fam, 0.0, tau=tau, N=N)
    grid = np.linspace(-tau, tau, N + 1)
    x = np.stack([np.cosh(grid), np.sinh(grid)], axis=1).ravel()
    res = op.matrix @ x
    interior = res[1:-1]
    assert np.max(np.abs(interior)) < 3e-4


def test_kernel_dimension_at_coincidence():
    # q = 1 - 2 sech^2 t has the explicit kernel solution sech t
    fam = poschl_teller_family()
    rep = kernel_dimension(discretize(fam, 0.8, tau=15.0, N=1500))
    assert rep.dim == 1
    assert rep.relative[0] < 1e-6
    assert rep.relative[1] > 1e-4


def test_kernel_dimension_away_from_coincidence():
    fam = poschl_teller_family()
    rep = kernel_dimension(discretize(fam, 0.3, tau=15.0, N=1500))
    assert rep.dim == 0
    assert rep.relative[0] > 1e-4


# -- operator parity over lambda ---------------------------------------

def test_operator_parity_poschl_teller():
    fam = poschl_teller_family()
    rep = operator_parity(fam, lams=np.linspace(0.0, 1.0, 21),
                          tau=8.0, N=400)
    assert rep.value == 1
    assert len(rep.flips) == 1
    assert abs(rep.flips[0] - 0.8) < 0.02
    assert rep.stable_tau and rep.stable_N


def test_operator_parity_localizes_two_flips_in_one_sweep():
    # depth 8 lambda crosses the thresholds 1 and 6 at lambda 1/4 and
    # 3/4: two intervals bisected in the same rounds, value 0
    rep = operator_parity(poschl_teller_family("8*lambda"),
                          np.linspace(0.0, 1.0, 41), tau=8.0, N=400)
    assert rep.value == 0
    assert rep.flips == (0.250390625, 0.750390625)


def test_operator_parity_no_flip():
    rep = operator_parity(positive_family(), lams=np.linspace(0.0, 1.0, 11),
                          tau=6.0, N=200)
    assert rep.value == 0
    assert rep.flips == ()


def test_operator_parity_rejects_degenerate_endpoint():
    fam = poschl_teller_family()
    lams = np.linspace(0.8, 1.0, 5)
    with pytest.raises(DegenerateEndpoint):
        operator_parity(fam, lams=lams, tau=15.0, N=1500, stability=False)
    # the doubling re-runs make the same check
    frames = paritymod._boundary_frames(fam, lams, 15.0, 1e-9, 1e-12)
    with pytest.raises(DegenerateEndpoint):
        paritymod._endpoint_value(fam, lams, 15.0, 3000, frames)


@pytest.mark.parametrize("family, lams, tau, N", [
    (poschl_teller_family, np.linspace(0.0, 1.0, 21), 8.0, 400),
    (positive_family, np.linspace(0.0, 1.0, 11), 6.0, 200),
    (rotating_loop_family, np.linspace(0.0, 1.0, 21), 8.0, 400),
])
def test_endpoint_value_matches_full_rerun(family, lams, tau, N):
    fam = family()
    for t, n in ((2.0 * tau, 2 * N), (tau, 2 * N)):
        frames = paritymod._boundary_frames(fam, lams, t, 1e-9, 1e-12)
        want = operator_parity(fam, lams, t, n, stability=False).value
        assert paritymod._endpoint_value(fam, lams, t, n, frames) == want


def test_unstable_truncation_names_both_doubled_values(monkeypatch):
    # flip the (2 tau, 2 N) re-run only, so the two values differ
    real = paritymod._endpoint_value
    tau = 8.0

    def flipped(fam, lams, t, N, frames):
        value = real(fam, lams, t, N, frames)
        return 1 - value if t == 2.0 * tau else value

    monkeypatch.setattr(paritymod, "_endpoint_value", flipped)
    with pytest.raises(UnstableTruncation) as info:
        operator_parity(poschl_teller_family(),
                        lams=np.linspace(0.0, 1.0, 21), tau=tau, N=400)
    assert "parity 1 changed under doubling" in str(info.value)
    assert "2tau -> 0, 2N -> 1" in str(info.value)


def test_operator_parity_tracks_sigma():
    rep = operator_parity(positive_family(), lams=np.linspace(0.0, 1.0, 5),
                          tau=6.0, N=200, track_sigma=True, stability=False)
    assert rep.sigma_mins is not None
    assert len(rep.sigma_mins) == 5
    assert all(s > 0 for s in rep.sigma_mins)


def test_track_sigma_factorizes_once_per_operator(monkeypatch):
    fam = poschl_teller_family()
    lams = np.linspace(0.0, 1.0, 21)
    real = spla.splu
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    counts = {}
    for track in (False, True):
        calls.clear()
        rep = operator_parity(fam, lams=lams, tau=8.0, N=400,
                              stability=False, track_sigma=track)
        counts[track] = len(calls)
    # signs come from block elimination: the LU runs on the two ends
    # only, or on every operator once when sigma_min is tracked
    assert counts == {False: 2, True: len(lams)}

    # the estimate is the one a fresh factorization of each operator gives
    b_u, b_s = paritymod._boundary_frames(fam, lams, 8.0, 1e-9, 1e-12)[2:]
    expect = [paritymod._sigma_min_estimate(real(M))
              for M in paritymod._operators(fam, lams, 8.0, 400, b_u, b_s)]
    assert np.array_equal(rep.sigma_mins, expect)


@pytest.mark.parametrize("tau, N", [(15.0, 1500), (30.0, 3000)])
def test_endpoint_test_agrees_with_kernel_dimension(tau, N):
    # kernel_dimension's eigensolve is the oracle for the endpoint test
    # read from the sign's LU.  Inverse iteration bounds sigma_min from
    # above, so the kernel (0.8) and near-threshold (0.8003) operators
    # are the ones that could slip through.
    fam = poschl_teller_family()
    for lam in (0.0, 0.3, 0.79, 0.8, 0.8003, 1.0):
        op = discretize(fam, lam, tau=tau, N=N)
        M, oracle = op.matrix, kernel_dimension(op)
        try:
            paritymod._factor_end(lam, M)
            singular = False
        except DegenerateEndpoint:
            singular = True
        assert singular == (oracle.dim > 0), lam
        _, sigma_min = paritymod._signed_lu(M, sigma=True)
        ratio = sigma_min / paritymod._sigma_max_estimate(M)
        assert ratio == pytest.approx(oracle.relative[0], rel=0.02), lam


def test_operator_parity_factors_only_endpoint_operators(monkeypatch):
    # sweep and bisection signs come from block elimination; the LU runs
    # once on each end operator of the sweep and of both doubling
    # re-runs, for the endpoint test, and no eigensolve runs
    def no_eigsh(*args, **kwargs):
        raise AssertionError("eigsh called")

    lus, ops = [], []
    real_splu, real_assemble = spla.splu, paritymod._assemble

    def counting_splu(M, *args, **kwargs):
        lus.append(M.shape[0])
        return real_splu(M, *args, **kwargs)

    def counting_assemble(*args, **kwargs):
        ops.append(1)
        return real_assemble(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", no_eigsh)
    monkeypatch.setattr(spla, "splu", counting_splu)
    monkeypatch.setattr(paritymod, "_assemble", counting_assemble)
    rep = operator_parity(poschl_teller_family(),
                          np.linspace(0.0, 1.0, 21), tau=8.0, N=400)
    assert rep.value == 1 and rep.stable_tau and rep.stable_N
    assert len(rep.flips) == 1
    assert sorted(lus) == [401 * 2] * 2 + [801 * 2] * 4
    assert len(ops) == 6


def test_endpoint_lu_sign_guards_block_signs(monkeypatch):
    # the endpoint LU is a free reference check on the block route
    real = paritymod._block_signs
    monkeypatch.setattr(paritymod, "_block_signs",
                        lambda *args: -real(*args))
    with pytest.raises(InternalMismatch, match="lambda=0"):
        operator_parity(poschl_teller_family(), np.linspace(0.0, 1.0, 21),
                        tau=8.0, N=400, stability=False)


_GRID = np.linspace(0.0, 1.0, 21)


@pytest.fixture
def transports(monkeypatch):
    """One entry per ``flow._transport_batched`` call."""
    calls = []
    real = flowmod._transport_batched

    def counting_transport(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(flowmod, "_transport_batched", counting_transport)
    return calls


@pytest.mark.parametrize("call", [
    lambda fam: operator_parity(fam, _GRID[::-1], tau=8.0, N=400),
    lambda fam: operator_parity(fam, [0.0, 0.9, 0.5, 1.0], tau=8.0, N=400),
    lambda fam: operator_parity(fam, [0.5], tau=8.0, N=400),
    lambda fam: operator_parity(fam, [0.0, np.nan, 1.0], tau=8.0, N=400),
    lambda fam: operator_parity(fam, _GRID, tau=0.0, N=400),
    lambda fam: operator_parity(fam, _GRID, tau=np.inf, N=400),
    lambda fam: operator_parity(fam, _GRID, tau=8.0, N=1),
    lambda fam: operator_parity(fam, _GRID, tau=8.0, N=400.0),
    lambda fam: discretize(fam, 0.3, tau=0.0, N=400),
    lambda fam: discretize(fam, 0.3, tau=8.0, N=1),
    lambda fam: verify_index_theorem(fam, _GRID[::-1], tau=8.0, N=400),
    lambda fam: boundary_pair_over_lambda(fam, _GRID[::-1]),
    lambda fam: boundary_pair_over_lambda(fam, [0.5]),
    lambda fam: decomposition_check(fam, _GRID[::-1]),
    lambda fam: decomposition_check(fam, [0.5]),
], ids=["decreasing", "unsorted", "one-lambda", "nan-lambda", "tau-0",
        "tau-inf", "N-1", "N-float", "discretize-tau-0", "discretize-N-1",
        "theorem-decreasing", "pair-decreasing", "pair-one-lambda",
        "decomposition-decreasing", "decomposition-one-lambda"])
def test_operator_route_refuses_malformed_input(call, transports):
    # refused before any boundary frame is transported
    with pytest.raises(InvalidInput):
        call(poschl_teller_family())
    assert transports == []


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", [
    lambda fam, lam: flowmod.asymptotic_limits(fam, lam),
    lambda fam, lam: flowmod.subspace_at(fam, lam, "stable", 0.0),
    lambda fam, lam: geometric_parity(fam, lam),
    lambda fam, lam: boundary_pair_over_lambda(fam, [0.0, lam]),
    lambda fam, lam: decomposition_check(fam, [0.0, lam]),
], ids=["limits", "subspace_at", "geometric", "boundary-pair",
        "decomposition"])
def test_non_finite_lambda_is_refused(call, lam, transports):
    fam = poschl_teller_family()
    with pytest.raises(InvalidInput):
        call(fam, lam)
    assert transports == []
    assert fam._splits == {}


@pytest.mark.parametrize("lams", [[], np.zeros((3, 2)), 0.5],
                         ids=["empty", "2-d", "scalar"])
def test_malformed_lambdas_are_refused(lams, transports):
    fam = poschl_teller_family()
    with pytest.raises(InvalidInput, match="1-d"):
        flowmod.subspaces_over_lambda(fam, lams, "stable", 0.0)
    assert transports == []
    assert fam._splits == {}


def _count_sweeps(monkeypatch) -> dict:
    """Counts of ``flow._limits_over_lambda`` calls, of
    ``flow._transport_batched`` calls, and of those transports that
    carry both sides."""
    counts = {"limits": 0, "transports": 0, "paired": 0}
    limits, transport = flowmod._limits_over_lambda, flowmod._transport_batched

    def counting_limits(*args, **kwargs):
        counts["limits"] += 1
        return limits(*args, **kwargs)

    def counting_transport(*args, **kwargs):
        counts["transports"] += 1
        counts["paired"] += kwargs.get("mirror") is not None
        return transport(*args, **kwargs)

    monkeypatch.setattr(flowmod, "_limits_over_lambda", counting_limits)
    monkeypatch.setattr(flowmod, "_transport_batched", counting_transport)
    return counts


@pytest.mark.parametrize("call", [
    lambda fam: boundary_pair_over_lambda(fam, _GRID),
    lambda fam: boundary_pair_over_lambda(fam, _GRID, t=1.5),
    lambda fam: paritymod._boundary_frames(fam, _GRID, 8.0),
], ids=["pair", "pair-t", "boundary-frames"])
def test_a_pair_sweep_is_one_limits_call_and_one_transport(call,
                                                           monkeypatch):
    counts = _count_sweeps(monkeypatch)
    call(poschl_teller_family())
    assert counts == {"limits": 1, "transports": 1, "paired": 1}


def test_each_flip_bisection_round_is_one_pair_sweep(monkeypatch):
    fam = poschl_teller_family("8*lambda")
    lams = np.linspace(0.0, 1.0, 41)
    frames = paritymod._boundary_frames(fam, lams, 8.0)
    signs = paritymod._block_signs(fam, lams, 8.0, 400, frames)
    counts = _count_sweeps(monkeypatch)
    rounds = []
    block_signs = paritymod._block_signs

    def counting(*args):
        rounds.append(1)
        return block_signs(*args)

    monkeypatch.setattr(paritymod, "_block_signs", counting)
    flips = paritymod._localize_flips(fam, lams, signs, 8.0, 400, frames,
                                      1e-9, 1e-12)
    assert flips == [0.250390625, 0.750390625]
    assert len(rounds) > 1
    assert counts == dict.fromkeys(("limits", "transports", "paired"),
                                   len(rounds))


def test_each_pair_refinement_round_is_one_pair_sweep(monkeypatch):
    # V and W sample each round's midpoints from one transport of both
    # sides: the grid and 19 rounds make 20 sweeps
    counts = _count_sweeps(monkeypatch)
    rep = z2_index(boundary_pair_over_lambda(poschl_teller_family(),
                                             np.linspace(0.0, 1.0, 3)))
    assert (rep.value, len(rep.grid), rep.refinement_depth) == (1, 26, 19)
    assert counts == {"limits": 20, "transports": 20, "paired": 20}


# -- the index theorem -------------------------------------------------

def test_boundary_pair_crossing_location():
    fam = poschl_teller_family()
    pair = boundary_pair_over_lambda(fam, np.linspace(0.0, 1.0, 41))
    rep = z2_index(pair)
    assert rep.value == 1
    assert len(rep.crossings) == 1
    assert abs(rep.crossings[0] - 0.8) < 2e-3


def test_verify_index_theorem_poschl_teller():
    fam = poschl_teller_family()
    rep = verify_index_theorem(fam, lams=np.linspace(0.0, 1.0, 21),
                               tau=8.0, N=400)
    assert rep.agree
    assert rep.lhs == 1 and rep.rhs == 1
    assert rep.hypotheses.ok
    assert rep.hypotheses.lam_range == (0.0, 1.0)


def test_verify_index_theorem_trivial_family():
    fam = LinearFamily.from_matrix_expr(
        parse_matrix([["-1", "0"], ["0", "1"]]), k=1)
    rep = verify_index_theorem(fam, lams=np.linspace(0.0, 1.0, 5),
                               tau=4.0, N=100)
    assert rep.agree and rep.lhs == 0 and rep.rhs == 0


def test_verify_index_theorem_rejects_bad_hypotheses():
    fam = LinearFamily.from_matrix_expr(
        parse_matrix([["lambda - 0.5", "0"], ["0", "1"]]), k=1)
    with pytest.raises(HypothesisFailure):
        verify_index_theorem(fam, lams=np.linspace(0.0, 1.0, 5),
                             tau=4.0, N=100)


def test_verify_index_theorem_checks_the_swept_range():
    # hyperbolicity is lost at lambda = 1.5, outside [0, 1] but inside
    # the sweep; the check must sample the sweep, not the unit interval
    fam = LinearFamily.from_matrix_expr(
        parse_matrix([["lambda - 1.5", "sech(t)"], ["0", "1"]]), k=1)
    with pytest.raises(HypothesisFailure) as info:
        verify_index_theorem(fam, lams=np.linspace(0.0, 2.0, 21),
                             tau=4.0, N=100)
    assert info.value.assumption == "A1"
    assert "lambda=1.5:" in str(info.value)


def test_decomposition_poschl_teller():
    rep = decomposition_check(poschl_teller_family(),
                              lams=np.linspace(0.0, 1.0, 21), samples=51)
    assert rep.holds
    assert rep.index_over_lambda.value == 1
    assert rep.geo_start.value == 0
    assert rep.geo_end.value == 1
    assert rep.limit_term.value == 0
    assert rep.limits_lambda_independent
