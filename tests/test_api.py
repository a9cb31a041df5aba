"""Guard against knob creep in the public API.

Every parameter with a default of a public function or class is listed
below.  A new optional parameter fails this test until the same change
adds it to the list, so each one is a decision, not an accident.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

import numpy as np
import pytest

import hetindex

#: module.qualname(parameter) of every optional public parameter
OPTIONAL = {
    "bifurcation.NonlinearFamily(lam_range)",
    "bifurcation.NonlinearFamily(t_max)",
    "bifurcation.NonlinearFamily.from_sources(lam_range)",
    "bifurcation.NonlinearFamily.from_sources(t_max)",
    "bifurcation.detect_bifurcation(atol)",
    "bifurcation.detect_bifurcation(branch_tol)",
    "bifurcation.detect_bifurcation(eps_trans)",
    "bifurcation.detect_bifurcation(lam_range)",
    "bifurcation.detect_bifurcation(rtol)",
    "bifurcation.detect_bifurcation(samples)",
    "bifurcation.linearize_along(branch_tol)",
    "bifurcation.validate_branch(branch_tol)",
    "cli.cmd_demo(list_only)",
    "cli.main(argv)",
    "cli.resolve_config(origin)",
    "errors.BoundaryDegenerate(condition)",
    "errors.HypothesisFailure(assumption)",
    "errors.IrregularCrossing(instant)",
    "errors.ParseError(expected)",
    "expr.parse(variables)",
    "expr.parse_matrix(variables)",
    "flow.HypothesisReport(note)",
    "flow.LinearFamily(_eval)",
    "flow.LinearFamily(matrix)",
    "flow.LinearFamily(t_max)",
    "flow.LinearFamily.from_callable(batched)",
    "flow.LinearFamily.from_callable(t_max)",
    "flow.LinearFamily.from_matrix_expr(t_max)",
    "flow.check_A1_A3(lam_range)",
    "flow.check_A1_A3(samples)",
    "flow.fundamental_solution(atol)",
    "flow.fundamental_solution(rtol)",
    "flow.invariant_subspace_path(atol)",
    "flow.invariant_subspace_path(rtol)",
    "flow.subspace_at(atol)",
    "flow.subspace_at(rtol)",
    "flow.subspaces_over_lambda(atol)",
    "flow.subspaces_over_lambda(rtol)",
    "linalg.SpectralSplit(gap)",
    "linalg.det_sign(eps_trans)",
    "maslov.Mod2Report(index_report)",
    "maslov.crossing_census(cross_tol)",
    "maslov.crossing_census(eps_trans)",
    "maslov.crossing_census(samples)",
    "maslov.maslov_index(cross_tol)",
    "maslov.maslov_index(eps_trans)",
    "maslov.maslov_index(samples)",
    "maslov.mod2_compare(cross_tol)",
    "maslov.mod2_compare(eps_trans)",
    "maslov.mod2_compare(samples)",
    "parity.ParityReport(sigma_mins)",
    "parity.ParityReport(stable_N)",
    "parity.ParityReport(stable_tau)",
    "parity.boundary_pair_over_lambda(atol)",
    "parity.boundary_pair_over_lambda(rtol)",
    "parity.boundary_pair_over_lambda(t)",
    "parity.decomposition_check(samples)",
    "parity.finite_parity(eps_trans)",
    "parity.finite_parity(samples)",
    "parity.operator_parity(N)",
    "parity.operator_parity(atol)",
    "parity.operator_parity(rtol)",
    "parity.operator_parity(stability)",
    "parity.operator_parity(tau)",
    "parity.operator_parity(track_sigma)",
    "parity.verify_index_theorem(N)",
    "parity.verify_index_theorem(atol)",
    "parity.verify_index_theorem(rtol)",
    "parity.verify_index_theorem(stability)",
    "parity.verify_index_theorem(tau)",
    "parity.verify_index_theorem(track_sigma)",
    "suites.poschl_teller_family(depth)",
    "suites.poschl_teller_family(t_max)",
    "suites.run_all(seed)",
    "suites.suite_decomposition(extra_families)",
    "suites.suite_decomposition(seed)",
    "suites.suite_finite_parity(seed)",
    "suites.suite_finite_parity(trials)",
    "suites.suite_maslov_mod2(seed)",
    "suites.suite_maslov_mod2(trials)",
    "suites.suite_orientability(seed)",
    "suites.suite_orientability(trials)",
    "suites.suite_properties(seed)",
    "suites.suite_properties(trials)",
    "z2index.bundle_orientability(eps_trans)",
    "z2index.close_loop(eps_trans)",
    "z2index.geometric_parity(atol)",
    "z2index.geometric_parity(eps_trans)",
    "z2index.geometric_parity(rtol)",
    "z2index.geometric_parity(samples)",
    "z2index.z2_index(eps_trans)",
    "z2index.z2_index_unbounded(eps_trans)",
}

#: parameters no caller set, now module constants, and parameters no
#: caller omitted, now required
REMOVED = {
    "linalg.spectral_split(delta)",
    "flow.asymptotic_limits(delta)",
    "maslov.crossing_form(h)",
    "maslov.crossing_form(kernel_tol)",
    "maslov.crossing_form(form_tol)",
    "maslov.is_lagrangian(tol)",
    "parity.kernel_dimension(rel_tol)",
    "parity.kernel_dimension(count)",
    "parity.verify_index_theorem(hypothesis_samples)",
    "bifurcation.detect_bifurcation(hypothesis_samples)",
    "bifurcation.check_restpoints(lam_samples)",
    "suites.suite_properties(dims)",
    "suites.suite_finite_parity(dims)",
    "suites.suite_orientability(dims)",
    "suites.suite_maslov_mod2(ks)",
    "suites.suite_decomposition(include_poschl_teller)",
    "maslov.crossing_census(interval)",
    "maslov.maslov_index(interval)",
    "maslov.mod2_compare(interval)",
    "parity.decomposition_check(lams)",
    "parity.operator_parity(lams)",
    "parity.verify_index_theorem(lams)",
}


def _with_defaults(obj, qual: str) -> set:
    try:
        params = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):
        return set()
    return {f"{qual}({p.name})" for p in params
            if p.default is not inspect.Parameter.empty}


def optional_parameters() -> set:
    """Optional parameters of the public names of the package and of
    each of its modules (those in ``__all__`` where a module has one),
    with the public methods of the classes among them."""
    modules = [hetindex] + [importlib.import_module(f"hetindex.{m.name}")
                            for m in pkgutil.iter_modules(hetindex.__path__)]
    found = set()
    for mod in modules:
        names = getattr(mod, "__all__",
                        [n for n in vars(mod) if not n.startswith("_")])
        for name in names:
            obj = getattr(mod, name)
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if not obj.__module__.startswith("hetindex."):
                continue
            qual = (obj.__module__.removeprefix("hetindex.") + "."
                    + obj.__qualname__)
            found |= _with_defaults(obj, qual)
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if not attr.startswith("_") and inspect.isfunction(member):
                        found |= _with_defaults(member, f"{qual}.{attr}")
    return found


def test_optional_parameters_are_the_listed_ones():
    found = optional_parameters()
    assert sorted(found - OPTIONAL) == [], "new optional parameters"
    assert sorted(OPTIONAL - found) == [], "listed but gone"


def test_removed_parameters_stay_removed():
    assert not REMOVED & optional_parameters()


def test_no_module_imports_scipy_integrate():
    # the package runs its own Dormand-Prince loop; scipy's integrators
    # are the tests' oracle only
    src = pathlib.Path(hetindex.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                names += [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            assert not any(name == "scipy.integrate"
                           or name.startswith("scipy.integrate.")
                           for name in names), path.name


def test_one_power_rounding(monkeypatch):
    # S has one rounding: every "^" is np.power, so no second
    # (scalar-power) evaluation route is left in the package
    from hetindex import expr

    src = pathlib.Path(hetindex.__file__).parent
    gone = r"\b(_scalar_pow|_pointwise_matrix|_points|scalar_powers|_compile)\b"
    for path in sorted(src.glob("*.py")):
        assert not re.search(gone, path.read_text()), path.name
    sources = []

    def spy(source, ns):
        sources.append(source)
        return eval(source, ns)  # noqa: S307 - the codegen's own source

    monkeypatch.setattr(expr, "eval", spy, raising=False)
    expr.compile_matrix(expr.parse_matrix(
        [["t^3 - lambda^(-2.0)", "(1 + lambda^2)^0.5*sech(t)^2"]]),
        ("lambda", "t"))
    assert len(sources) == 2
    for source in sources:
        assert "**" not in source and "_pow(" in source


# -- sample counts -----------------------------------------------------

def _samples_calls(calls: list, monkeypatch) -> dict:
    """module.qualname -> f(samples), one per public ``samples``
    parameter; every evaluation of an input appends to ``calls``."""
    from hetindex import bifurcation, flow, maslov, parity, z2index

    def S(lam, t):
        calls.append((lam, t))
        return np.diag([-np.tanh(t), np.tanh(t)])

    def T(s):
        calls.append(s)
        return np.diag([1.0, 1.0 - 2.0 * s])

    def plane(ts):
        calls.append(ts)
        return hetindex.graph_frame(ts[:, None, None])

    fam = hetindex.LinearFamily.from_callable(S, n=2, k=1)
    monkeypatch.setattr(bifurcation, "linearize_along",
                        lambda *args, **kwargs: calls.append(args))
    nf = hetindex.NonlinearFamily.from_sources(
        ["z2", "z1"], z_minus=[0.0, 0.0], z_plus=[0.0, 0.0])
    branch = hetindex.Branch.from_sources(["0", "0"])
    lams = [0.0, 1.0]
    return {
        "bifurcation.detect_bifurcation":
            lambda n: bifurcation.detect_bifurcation(nf, branch, samples=n),
        "flow.check_A1_A3": lambda n: flow.check_A1_A3(fam, samples=n),
        "maslov.crossing_census":
            lambda n: maslov.crossing_census(plane, plane, (-1.0, 1.0), n),
        "maslov.maslov_index":
            lambda n: maslov.maslov_index(plane, plane, (-1.0, 1.0), n),
        "maslov.mod2_compare":
            lambda n: maslov.mod2_compare(plane, plane, (-1.0, 1.0), n),
        "parity.decomposition_check":
            lambda n: parity.decomposition_check(fam, lams, samples=n),
        "parity.finite_parity": lambda n: parity.finite_parity(T, samples=n),
        "z2index.geometric_parity":
            lambda n: z2index.geometric_parity(fam, 0.5, samples=n),
    }


def test_every_samples_parameter_has_a_refusal_case(monkeypatch):
    listed = {p.removesuffix("(samples)") for p in OPTIONAL
              if p.endswith("(samples)")}
    assert set(_samples_calls([], monkeypatch)) == listed


@pytest.mark.parametrize("samples", [2.5, True, np.float64(3.0), 0, None],
                         ids=["float", "bool", "integral-float", "zero",
                              "none"])
@pytest.mark.parametrize("name", [
    "bifurcation.detect_bifurcation", "flow.check_A1_A3",
    "maslov.crossing_census", "maslov.maslov_index", "maslov.mod2_compare",
    "parity.decomposition_check", "parity.finite_parity",
    "z2index.geometric_parity"])
def test_a_malformed_sample_count_is_refused_first(name, samples,
                                                   monkeypatch):
    calls = []
    call = _samples_calls(calls, monkeypatch)[name]
    with pytest.raises(hetindex.InvalidInput, match="samples"):
        call(samples)
    assert calls == []
