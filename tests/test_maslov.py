"""Crossing forms and the Maslov index against the Z2-index."""

import warnings

import numpy as np
import pytest

from hetindex import (
    DegenerateEndpoint,
    DimensionMismatch,
    InvalidInput,
    IrregularCrossing,
    crossing_census,
    crossing_form,
    graph_frame,
    graph_path,
    is_lagrangian,
    maslov_index,
    mod2_compare,
    orthonormalize,
    symplectic_form_matrix,
)
from hetindex import maslov as maslovmod


def line(slope):
    """Graph sampler of the 1 x 1 matrix slope * t."""
    return graph_path(lambda ts: slope * ts[:, None, None])


def constant(A):
    """Graph sampler of the constant matrix A."""
    A = np.asarray(A, dtype=float)
    return graph_path(lambda ts: np.broadcast_to(A, (len(ts), *A.shape)))


def test_symplectic_form_matrix():
    for k in (1, 2, 3):
        J = symplectic_form_matrix(k)
        assert J.shape == (2 * k, 2 * k)
        assert np.allclose(J.T, -J)
        assert np.allclose(J @ J, -np.eye(2 * k))
    J = symplectic_form_matrix(2)
    # coordinate i pairs with coordinate k + i
    assert J[0, 2] != 0.0 and J[1, 3] != 0.0


def test_graph_of_symmetric_matrix_is_lagrangian():
    A = np.array([[1.0, 0.3], [0.3, -2.0]])
    assert is_lagrangian(graph_frame(A))
    B = np.array([[1.0, 0.5], [-0.5, 1.0]])
    assert not is_lagrangian(graph_frame(B))


def test_coordinate_plane_lagrangian_or_not():
    e = np.eye(4)
    assert is_lagrangian(orthonormalize(e[:, [0, 1]]))
    assert not is_lagrangian(orthonormalize(e[:, [0, 2]]))


def test_graph_frame_spans_graph():
    F = graph_frame(np.array([[2.0]]))
    v = F.columns.ravel()
    expect = np.array([1.0, 2.0]) / np.sqrt(5.0)
    assert abs(abs(v @ expect) - 1.0) < 1e-12


def test_graph_frame_of_a_stack_is_the_frames_of_its_members():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((7, 3, 3))
    A = A + np.swapaxes(A, 1, 2)
    F = graph_frame(A)
    assert F.shape == (7, 6, 3)
    for Fi, Ai in zip(F, A):
        assert np.abs(Fi - graph_frame(Ai).columns).max() <= 1e-14


def test_graph_path_wraps_callable():
    path = graph_path(lambda ts: ts[:, None, None])
    F = path(np.array([3.0, -1.0]))
    assert F.shape == (2, 2, 1)
    for v, t in zip(F[:, :, 0], (3.0, -1.0)):
        expect = np.array([1.0, t]) / np.hypot(1.0, t)
        assert abs(abs(v @ expect) - 1.0) < 1e-12


def test_crossing_form_simple():
    data = crossing_form(line(1.0), line(-1.0), 0.0)
    assert data.signature == -1
    assert abs(data.instant) < 1e-12


def test_crossing_form_rejects_noncrossing():
    with pytest.raises(InvalidInput):
        crossing_form(line(1.0), line(-1.0), 0.5)


def test_maslov_single_crossing():
    assert maslov_index(line(1.0), line(-1.0), interval=(-1.0, 1.0)) == -1


def test_maslov_cubic():
    # B - A = t - t^3 crosses zero at -1, 0, 1 with slopes -2, 1, -2
    V = graph_path(lambda ts: (ts ** 3 - ts)[:, None, None])
    W = constant([[0.0]])
    assert maslov_index(V, W, interval=(-1.5, 1.5)) == -1
    rep = mod2_compare(V, W, interval=(-1.5, 1.5))
    assert rep.z2 == 1 and rep.maslov == -1 and rep.agree
    assert len(rep.crossings) == 3


def test_maslov_two_dimensional():
    V = graph_path(lambda ts: ts[:, None, None] * np.eye(2)
                   - np.diag([0.0, 0.5]))
    W = constant(np.zeros((2, 2)))
    assert maslov_index(V, W, interval=(-0.3, 0.8)) == -2
    rep = mod2_compare(V, W, interval=(-0.3, 0.8))
    assert rep.z2 == 0 and rep.agree


def test_maslov_signature_zero_crossing():
    # kernel dim 2 at t = 0 with indefinite form: det(B - A) = -t^2
    # never changes sign, only the sigma_min dip reveals the crossing
    V = graph_path(lambda ts: ts[:, None, None] * np.diag([1.0, -1.0]))
    W = constant(np.zeros((2, 2)))
    assert maslov_index(V, W, interval=(-1.0, 1.0)) == 0
    rep = mod2_compare(V, W, interval=(-1.0, 1.0))
    assert rep.z2 == 0 and rep.agree
    assert len(rep.crossings) == 1
    assert rep.crossings[0].signature == 0
    assert abs(rep.crossings[0].instant) < 1e-5


def test_maslov_rejects_tangential_crossing():
    V = graph_path(lambda ts: (ts ** 2)[:, None, None])
    with pytest.raises(IrregularCrossing):
        maslov_index(V, constant([[0.0]]), interval=(-1.0, 1.0))


def test_maslov_rejects_endpoint_crossing():
    with pytest.raises(DegenerateEndpoint):
        maslov_index(line(1.0), constant([[0.0]]), interval=(0.0, 1.0))


def _recording(calls, path):
    def run(ts):
        calls.append(ts)
        return path(ts)
    return run


def test_census_samples_each_scan_instant_once():
    # one call for the whole scan, then length-1 samples for brentq and
    # minimize_scalar and one three-instant sample per crossing form
    calls = {"v": [], "w": []}
    V = _recording(calls["v"],
                   graph_path(lambda ts: (ts ** 3 - ts)[:, None, None]))
    W = _recording(calls["w"], constant([[0.0]]))
    census = maslovmod.crossing_census(V, W, interval=(-1.5, 1.5),
                                       samples=101)
    assert len(census) == 3
    for seen in calls.values():
        assert all(isinstance(ts, np.ndarray) and ts.ndim == 1
                   for ts in seen)
        assert np.array_equal(seen[0], np.linspace(-1.5, 1.5, 101))
        assert [len(ts) for ts in seen[1:]].count(3) == 3
        assert all(len(ts) in (1, 3) for ts in seen[1:])


def test_mod2_compare_reads_each_path_in_two_grid_calls():
    # the Z2 side and the census each sample the grid in one call; the
    # rest are refinement, localisation and crossing-form samples
    calls = {"v": [], "w": []}
    V = _recording(calls["v"], line(1.0))
    W = _recording(calls["w"], line(-1.0))
    rep = mod2_compare(V, W, interval=(-1.0, 1.0), samples=101)
    assert rep.z2 == 1 and rep.agree and len(rep.crossings) == 1
    for seen in calls.values():
        assert all(isinstance(ts, np.ndarray) and ts.ndim == 1
                   for ts in seen)
        assert [len(ts) for ts in seen].count(101) <= 2
        assert all(len(ts) <= 3 for ts in seen if len(ts) != 101)


def test_the_frame_callable_adapters_are_gone():
    for name in ("_as_sampler", "_scan"):
        assert not hasattr(maslovmod, name)


def _skew_graph(ts):
    # [[2, 0.5 + t], [-0.5 - t, 3]] is symmetric only at t = -0.5
    A = np.empty((len(ts), 2, 2))
    A[:, 0, 0], A[:, 1, 1] = 2.0, 3.0
    A[:, 0, 1], A[:, 1, 0] = 0.5 + ts, -0.5 - ts
    return graph_frame(A)


@pytest.mark.parametrize("call", [
    maslovmod.crossing_census, maslov_index, mod2_compare],
    ids=["census", "index", "mod2"])
@pytest.mark.parametrize("interval,first_bad", [
    ((-1.0, 1.0), 0), ((-0.5, 1.0), 1)], ids=["at-start", "after-start"])
def test_a_path_that_is_not_lagrangian_is_refused(call, interval, first_bad):
    t = float(np.linspace(*interval, 401)[first_bad])
    W = constant(np.zeros((2, 2)))
    with pytest.raises(InvalidInput,
                       match=rf"path V is not Lagrangian at t={t!r}$"):
        call(_skew_graph, W, interval)
    with pytest.raises(InvalidInput,
                       match=rf"path W is not Lagrangian at t={t!r}$"):
        call(W, _skew_graph, interval)


def test_paths_of_mismatched_shapes_are_refused():
    with pytest.raises(DimensionMismatch):
        maslov_index(line(1.0), constant(np.zeros((2, 2))), (-1.0, 1.0))
    with pytest.raises(DimensionMismatch):
        crossing_form(line(1.0), constant(np.zeros((2, 2))), 0.0)


def test_a_sampled_frame_is_checked_as_path_from_sampler_does():
    def skewed(ts):
        F = line(1.0)(ts)
        F[ts > 0.5] *= 2.0
        return F

    t = np.linspace(-1.0, 1.0, 401)
    first = float(t[t > 0.5][0])
    with pytest.raises(InvalidInput,
                       match=rf"t={first!r}: columns not orthonormal"):
        maslov_index(skewed, line(-1.0), (-1.0, 1.0))


@pytest.mark.parametrize("sampler", [
    lambda ts: [graph_frame(np.array([[t]])) for t in ts],
    lambda ts: line(1.0)(ts).astype(str),
    lambda ts: line(1.0)(ts).astype(complex),
], ids=["frames", "strings", "complex"])
def test_a_return_that_is_no_real_stack_is_refused(sampler):
    # a list of Frames, as a t -> Frame path would give, strings and
    # complex frames are refused before any cast, naming the contract
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for V, W in ((sampler, line(-1.0)), (line(-1.0), sampler)):
            with pytest.raises(InvalidInput, match=r"from t=-1\.0; a "
                               r"sampler maps ts to a \(len\(ts\), n, k\) "
                               r"real stack$"):
                maslov_index(V, W, (-1.0, 1.0))


@pytest.mark.parametrize("call", [
    maslovmod.crossing_census, maslov_index, mod2_compare],
    ids=["census", "index", "mod2"])
@pytest.mark.parametrize("interval,samples", [
    ((-1.0, 1.0), 1), ((-1.0, 1.0), 0), ((1.0, -1.0), 401)],
    ids=["one-sample", "no-sample", "reversed"])
def test_census_refuses_a_malformed_scan_grid(call, interval, samples):
    calls = []
    V = _recording(calls, line(1.0))
    W = _recording(calls, line(-1.0))
    with pytest.raises(InvalidInput):
        call(V, W, interval, samples=samples)
    assert calls == []


@pytest.mark.parametrize("call", [
    maslovmod.crossing_census, maslov_index, mod2_compare],
    ids=["census", "index", "mod2"])
@pytest.mark.parametrize("interval", [
    (-1.0, np.inf), (np.nan, 1.0), (-np.inf, 1.0)],
    ids=["inf-end", "nan-start", "minus-inf-start"])
def test_census_refuses_a_non_finite_interval_end(call, interval):
    # checked before the ends are spaced out: np.linspace over an
    # infinite end warns, and the warning is an error under pytest here
    calls = []
    V = _recording(calls, line(1.0))
    W = _recording(calls, line(-1.0))
    with pytest.raises(InvalidInput, match="finite"):
        call(V, W, interval)
    assert calls == []


def _unread(ts):
    raise AssertionError("read a path before checking cross_tol")


@pytest.mark.parametrize("cross_tol", [float("nan"), 0.0, -1.0,
                                       float("inf")])
@pytest.mark.parametrize("entry", [crossing_census, maslov_index,
                                   mod2_compare])
def test_bad_cross_tol_is_refused_before_either_path_is_read(entry,
                                                              cross_tol):
    # a NaN, zero or negative cross_tol made the dip scan find nothing,
    # so a signature-zero crossing went unreported
    with pytest.raises(InvalidInput, match="cross_tol"):
        entry(_unread, _unread, interval=(-1.0, 1.0), cross_tol=cross_tol)
