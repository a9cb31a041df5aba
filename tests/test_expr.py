"""Expression parsing, evaluation, and matrix compilation."""

import numpy as np
import pytest

from hetindex import (
    DomainError,
    ParseError,
    UnboundVariable,
    compile_matrix,
    evaluate,
    free_variables,
    parse,
    parse_matrix,
    pretty,
)
from hetindex.expr import (
    FUNCTIONS,
    Bin,
    Call,
    MatrixExpr,
    Neg,
    Num,
    Var,
    diff,
    eval_matrix,
    substitute,
)


def test_precedence():
    assert evaluate(parse("2+3*4^2"), {}) == 50.0
    assert evaluate(parse("2*3+4"), {}) == 10.0
    assert evaluate(parse("(2+3)*4"), {}) == 20.0


def test_power_is_right_associative():
    assert evaluate(parse("2^3^2"), {}) == 512.0


def test_unary_minus_binds_below_power():
    assert evaluate(parse("-2^2"), {}) == -4.0
    assert evaluate(parse("(-2)^2"), {}) == 4.0


def test_variables_and_env():
    e = parse("lambda*t + 1", variables=("lambda", "t"))
    assert evaluate(e, {"lambda": 2.0, "t": 3.0}) == 7.0


def test_functions():
    assert evaluate(parse("cos(0)"), {}) == 1.0
    assert abs(evaluate(parse("sech(0.7)"), {}) - 1.0 / np.cosh(0.7)) < 1e-15
    assert abs(evaluate(parse("exp(log(3))"), {}) - 3.0) < 1e-12
    assert "sech" in FUNCTIONS and "tanh" in FUNCTIONS


def test_parse_error_reports_offset():
    with pytest.raises(ParseError) as exc:
        parse("2+*3")
    assert exc.value.offset == 2


def test_parse_error_on_trailing_garbage():
    with pytest.raises(ParseError):
        parse("1 + 2 )")


def test_disallowed_variable_rejected_at_parse():
    with pytest.raises(ParseError):
        parse("t + lambda", variables=("t",))


def test_unbound_variable_at_evaluation():
    with pytest.raises(UnboundVariable):
        evaluate(parse("t + 1"), {})


def test_unknown_function_rejected():
    with pytest.raises((ParseError, UnboundVariable)):
        parse("frobnicate(1)")


def test_free_variables():
    e = parse("sin(t)*lambda + t", variables=("t", "lambda"))
    assert free_variables(e) == {"t", "lambda"}
    assert free_variables(parse("1+2")) == set()


def test_pretty_round_trip():
    rng = np.random.default_rng(11)
    sources = [
        "1 - 2.5*lambda*sech(t)^2",
        "-t^3 + sin(t)*cos(lambda)",
        "(t + lambda)/(1 + t^2)",
        "exp(-abs(t))",
    ]
    for src in sources:
        e = parse(src, variables=("t", "lambda"))
        back = parse(pretty(e), variables=("t", "lambda"))
        for _ in range(10):
            env = {"t": float(rng.normal()), "lambda": float(rng.uniform())}
            assert abs(evaluate(e, env) - evaluate(back, env)) < 1e-12


def test_parse_matrix_and_eval():
    m = parse_matrix([["0", "1"], ["1 - lambda*sech(t)^2", "0"]])
    A = eval_matrix(m, {"t": 0.0, "lambda": 1.0})
    assert A.shape == (2, 2)
    assert np.allclose(A, [[0.0, 1.0], [0.0, 0.0]])


def test_compile_matrix_vectorizes():
    m = parse_matrix([["t", "0"], ["0", "lambda"]])
    f = compile_matrix(m, ("lambda", "t"))
    t = np.array([0.0, 1.0, 2.0])
    out = f(0.5, t)
    assert out.shape == (3, 2, 2)
    assert np.allclose(out[:, 0, 0], t)
    assert np.allclose(out[:, 1, 1], 0.5)


def test_matrix_rejects_ragged_rows():
    with pytest.raises((ParseError, ValueError)):
        parse_matrix([["1", "0"], ["1"]])


# -- differentiation -----------------------------------------------------

DIFF_VARS = ("z1", "z2", "t")


def random_tree(rng, depth):
    """A random expression over DIFF_VARS, real and smooth on [-1.5, 1.5]^3.

    Arguments are guarded so every node keeps its domain: log and sqrt
    see 1 + u^2, tan sees atan(u)/2, a divisor is 2 + sin(u), and a
    base raised to a variable power is 1.5 + sin(u).
    """
    if depth == 0:
        if rng.uniform() < 0.7:
            return Var(DIFF_VARS[rng.integers(len(DIFF_VARS))])
        return Num(float(rng.choice([0.5, 1.0, 2.0, 2.5])))
    kinds = ("+", "-", "*", "/", "^", "^var", "neg") + FUNCTIONS
    kind = kinds[rng.integers(len(kinds))]
    u = random_tree(rng, depth - 1)
    if kind in ("+", "-", "*"):
        return Bin(kind, u, random_tree(rng, depth - 1))
    if kind == "/":
        return Bin("/", u, Bin("+", Num(2.0),
                               Call("sin", random_tree(rng, depth - 1))))
    if kind == "^":
        return Bin("^", u, Num(float(rng.integers(2, 4))))
    if kind == "^var":
        return Bin("^", Bin("+", Num(1.5), Call("sin", u)),
                   Call("tanh", random_tree(rng, depth - 1)))
    if kind == "neg":
        return Neg(u)
    if kind in ("log", "sqrt"):
        return Call(kind, Bin("+", Num(1.0), Bin("^", u, Num(2.0))))
    if kind == "tan":
        return Call("tan", Bin("/", Call("atan", u), Num(2.0)))
    if kind in ("exp", "sinh", "cosh"):
        return Call(kind, Call("tanh", u))
    return Call(kind, u)


def _nodes(e):
    yield e
    for child in (getattr(e, "operand", None), getattr(e, "left", None),
                  getattr(e, "right", None), getattr(e, "arg", None)):
        if child is not None:
            yield from _nodes(child)


def test_diff_against_central_differences():
    rng = np.random.default_rng(3)
    h = 1e-5
    covered = set()
    for _ in range(300):
        e = random_tree(rng, int(rng.integers(1, 5)))
        for var in DIFF_VARS:
            d = diff(e, var)
            for _ in range(3):
                env = {v: float(rng.uniform(-1.5, 1.5)) for v in DIFF_VARS}
                up, down = dict(env), dict(env)
                up[var] += h
                down[var] -= h
                fd = (evaluate(e, up) - evaluate(e, down)) / (2 * h)
                exact = evaluate(d, env)
                scale = 1.0 + abs(exact) + abs(evaluate(e, env))
                assert abs(exact - fd) <= 1e-6 * scale, (pretty(e), var, env)
        covered |= {n.func if isinstance(n, Call) else n.op
                    for n in _nodes(e) if isinstance(n, (Call, Bin))}
    assert covered >= set(FUNCTIONS) | set("+-*/^")


#: Nodes that leave the domain guarded by random_tree: each raises
#: DomainError for some real u (0 or a negative value).
UNGUARDED = (
    lambda u: Call("sqrt", u),
    lambda u: Call("log", u),
    lambda u: Bin("/", Num(1.0), u),
    lambda u: Bin("^", u, Num(0.5)),
    lambda u: Bin("^", u, Neg(Num(1.0))),
)


def unguard(rng, e):
    """``e`` with one random subtree u replaced by an unguarded node of u."""
    nodes = list(_nodes(e))
    target = nodes[rng.integers(len(nodes))]

    def rec(node):
        if node is target:
            return UNGUARDED[rng.integers(len(UNGUARDED))](node)
        if isinstance(node, Neg):
            return Neg(rec(node.operand))
        if isinstance(node, Bin):
            return Bin(node.op, rec(node.left), rec(node.right))
        if isinstance(node, Call):
            return Call(node.func, rec(node.arg))
        return node

    return rec(e)


def _strict_or_none(e, env):
    try:
        return evaluate(e, env)
    except DomainError:
        return None


def _compiled_or_none(e, env):
    f = compile_matrix(MatrixExpr(1, 1, ((e,),)), DIFF_VARS)
    try:
        return f(*(env[v] for v in DIFF_VARS))[0, 0]
    except DomainError:
        return None


def test_compile_matrix_matches_strict_evaluate():
    # inputs: ordinary values, exact zeros (1/u, log(u) and u^-1 fail
    # there) and huge ones (powers and products overflow)
    rng = np.random.default_rng(13)
    seen = {"finite": 0, "domain": 0, "overflow": 0, "nan": 0}
    covered = set()
    for _ in range(300):
        e = random_tree(rng, int(rng.integers(1, 5)))
        for tree in (e, unguard(rng, e)):
            covered |= {n.func if isinstance(n, Call) else n.op
                        for n in _nodes(tree) if isinstance(n, (Call, Bin))}
            for _ in range(4):
                env = {v: float(rng.choice([rng.uniform(-1.5, 1.5), 0.0,
                                            rng.choice([-1e200, 1e200])],
                                           p=[0.6, 0.2, 0.2]))
                       for v in DIFF_VARS}
                want = _strict_or_none(tree, env)
                got = _compiled_or_none(tree, env)
                where = (pretty(tree), env)
                if want is None:
                    seen["domain"] += 1
                    assert got is None, where
                elif np.isfinite(want):
                    seen["finite"] += 1
                    assert got is not None, where
                    assert abs(got - want) <= 1e-12 * abs(want), where
                elif np.isinf(want):
                    seen["overflow"] += 1
                    assert got == want, where
                else:
                    seen["nan"] += 1
                    assert got is not None and np.isnan(got), where
    assert covered >= set(FUNCTIONS) | set("+-*/^")
    assert min(seen["finite"], seen["domain"], seen["overflow"]) > 20, seen


@pytest.mark.parametrize("src", ["exp(-1/t)", "tanh(log(t))", "atan(1/t)",
                                 "sqrt(t - 1)^0", "1/0", "(-1)^0.5"])
def test_compile_matrix_finds_domain_error_behind_finite_value(src):
    f = compile_matrix(parse_matrix([[src]]), ("t",))
    with pytest.raises(DomainError):
        evaluate(parse(src), {"t": 0.0})
    with pytest.raises(DomainError):
        f(0.0)
    with pytest.raises(DomainError):
        f(np.array([0.5, 0.0, 2.0]))


def test_diff_pretty_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(300):
        e = random_tree(rng, int(rng.integers(1, 5)))
        for var in DIFF_VARS:
            d = diff(e, var)
            assert parse(pretty(d)) == d, pretty(d)
    # constant folding never leaves a negative literal behind
    d = diff(parse("z1^0.5 - 3*z1"), "z1")
    assert parse(pretty(d)) == d
    assert not any(isinstance(n, Num) and n.value < 0 for n in _nodes(d))


def test_diff_folds_identities():
    assert diff(parse("z1^3"), "z1") == parse("3*z1^2")
    assert diff(parse("lambda*z2"), "z1") == Num(0.0)
    assert diff(parse("sin(z1)"), "z1") == parse("cos(z1)")


def test_diff_of_abs_is_zero_at_zero():
    d = diff(parse("abs(z1)"), "z1")
    assert evaluate(d, {"z1": 0.0}) == 0.0
    assert evaluate(d, {"z1": -2.0}) == -1.0
    assert evaluate(diff(d, "z1"), {"z1": 0.3}) == 0.0


def test_diff_of_sqrt_at_zero_is_a_domain_error():
    d = diff(parse("sqrt(z1)"), "z1")
    with pytest.raises(DomainError):
        evaluate(d, {"z1": 0.0})
    f = compile_matrix(MatrixExpr(1, 1, ((d,),)), ("z1",))
    assert f(4.0)[0, 0] == 0.25
    with pytest.raises(DomainError):
        f(np.array([1.0, 0.0]))


def test_substitute_replaces_and_folds():
    e = parse("(1 - lambda*sech(t)^2)*z1 + 3*z1^2 + z2")
    out = substitute(e, {"z1": Num(0.0), "z2": parse("sin(t)")})
    assert out == parse("sin(t)")
    assert substitute(e, {}) == e
