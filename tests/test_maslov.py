"""Crossing forms and the Maslov index against the Z2-index."""

import numpy as np
import pytest

from hetindex import (
    DegenerateEndpoint,
    InvalidInput,
    IrregularCrossing,
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


def test_graph_path_wraps_callable():
    path = graph_path(lambda t: np.array([[t]]))
    F = path(3.0)
    v = F.columns.ravel()
    expect = np.array([1.0, 3.0]) / np.sqrt(10.0)
    assert abs(abs(v @ expect) - 1.0) < 1e-12


def test_crossing_form_simple():
    V = graph_path(lambda t: np.array([[t]]))
    W = graph_path(lambda t: np.array([[-t]]))
    data = crossing_form(V, W, 0.0)
    assert data.signature == -1
    assert abs(data.instant) < 1e-12


def test_crossing_form_rejects_noncrossing():
    V = graph_path(lambda t: np.array([[t]]))
    W = graph_path(lambda t: np.array([[-t]]))
    with pytest.raises(InvalidInput):
        crossing_form(V, W, 0.5)


def test_maslov_single_crossing():
    V = graph_path(lambda t: np.array([[t]]))
    W = graph_path(lambda t: np.array([[-t]]))
    assert maslov_index(V, W, interval=(-1.0, 1.0)) == -1


def test_maslov_cubic():
    # B - A = t - t^3 crosses zero at -1, 0, 1 with slopes -2, 1, -2
    V = graph_path(lambda t: np.array([[t ** 3 - t]]))
    W = graph_path(lambda t: np.array([[0.0]]))
    assert maslov_index(V, W, interval=(-1.5, 1.5)) == -1
    rep = mod2_compare(V, W, interval=(-1.5, 1.5))
    assert rep.z2 == 1 and rep.maslov == -1 and rep.agree
    assert len(rep.crossings) == 3


def test_maslov_two_dimensional():
    V = graph_path(lambda t: np.diag([t, t - 0.5]))
    W = graph_path(lambda t: np.zeros((2, 2)))
    assert maslov_index(V, W, interval=(-0.3, 0.8)) == -2
    rep = mod2_compare(V, W, interval=(-0.3, 0.8))
    assert rep.z2 == 0 and rep.agree


def test_maslov_signature_zero_crossing():
    # kernel dim 2 at t = 0 with indefinite form: det(B - A) = -t^2
    # never changes sign, only the sigma_min dip reveals the crossing
    V = graph_path(lambda t: np.diag([t, -t]))
    W = graph_path(lambda t: np.zeros((2, 2)))
    assert maslov_index(V, W, interval=(-1.0, 1.0)) == 0
    rep = mod2_compare(V, W, interval=(-1.0, 1.0))
    assert rep.z2 == 0 and rep.agree
    assert len(rep.crossings) == 1
    assert rep.crossings[0].signature == 0
    assert abs(rep.crossings[0].instant) < 1e-5


def test_maslov_rejects_tangential_crossing():
    V = graph_path(lambda t: np.array([[t ** 2]]))
    W = graph_path(lambda t: np.array([[0.0]]))
    with pytest.raises(IrregularCrossing):
        maslov_index(V, W, interval=(-1.0, 1.0))


def test_maslov_rejects_endpoint_crossing():
    V = graph_path(lambda t: np.array([[t]]))
    W = graph_path(lambda t: np.array([[0.0]]))
    with pytest.raises(DegenerateEndpoint):
        maslov_index(V, W, interval=(0.0, 1.0))


def test_census_samples_each_scan_instant_once(monkeypatch):
    # sampler calls: one per scan instant, plus one per brentq and
    # minimize evaluation and three per crossing form (t0, t0 +- h)
    calls = {"v": 0, "w": 0, "solver": 0, "form": 0}

    def counted(key, fn):
        def run(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return run

    def counting_solver(solve):
        def run(f, *args, **kwargs):
            return solve(counted("solver", f), *args, **kwargs)
        return run

    monkeypatch.setattr(maslovmod, "brentq",
                        counting_solver(maslovmod.brentq))
    monkeypatch.setattr(maslovmod, "minimize_scalar",
                        counting_solver(maslovmod.minimize_scalar))
    monkeypatch.setattr(maslovmod, "crossing_form",
                        counted("form", maslovmod.crossing_form))
    V = counted("v", graph_path(lambda t: np.array([[t ** 3 - t]])))
    W = counted("w", graph_path(lambda t: np.array([[0.0]])))
    census = maslovmod.crossing_census(V, W, interval=(-1.5, 1.5),
                                       samples=101)
    assert len(census) == 3
    assert calls["solver"] > 0 and calls["form"] == 3
    budget = 101 + calls["solver"] + 3 * calls["form"]
    assert calls["v"] <= budget and calls["w"] <= budget


def test_mod2_compare_samples_each_path_once():
    # the census scans the frames the Z2 side sampled; one pass over
    # 101 instants plus localization and forms, not two
    calls = {"v": 0, "w": 0}

    def counted(key, fn):
        def run(t):
            calls[key] += 1
            return fn(t)
        return run

    V = counted("v", graph_path(lambda t: np.array([[t]])))
    W = counted("w", graph_path(lambda t: np.array([[-t]])))
    rep = mod2_compare(V, W, interval=(-1.0, 1.0), samples=101)
    assert rep.z2 == 1 and rep.agree and len(rep.crossings) == 1
    assert calls["v"] <= 130 and calls["w"] <= 130


@pytest.mark.parametrize("call", [
    maslovmod.crossing_census, maslov_index, mod2_compare],
    ids=["census", "index", "mod2"])
@pytest.mark.parametrize("interval,samples", [
    ((-1.0, 1.0), 1), ((-1.0, 1.0), 0), ((1.0, -1.0), 401)],
    ids=["one-sample", "no-sample", "reversed"])
def test_census_refuses_a_malformed_scan_grid(call, interval, samples):
    calls = []

    def counted(fn):
        def run(t):
            calls.append(t)
            return fn(t)
        return run

    V = counted(graph_path(lambda t: np.array([[t]])))
    W = counted(graph_path(lambda t: np.array([[-t]])))
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

    def counted(fn):
        def run(t):
            calls.append(t)
            return fn(t)
        return run

    V = counted(graph_path(lambda t: np.array([[t]])))
    W = counted(graph_path(lambda t: np.array([[-t]])))
    with pytest.raises(InvalidInput, match="finite"):
        call(V, W, interval)
    assert calls == []
