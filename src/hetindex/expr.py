"""Small arithmetic expression language for configuration files.

Matrix families S(lambda, t), vector fields g(lambda, t, z) and branch
curves z(lambda, t) arrive as text.  This module parses that text into
immutable ASTs, evaluates them strictly (with real-domain checking),
and compiles grids of them to numpy-vectorized callables for hot loops
(:func:`compile_matrix`, which falls back on the strict evaluator
wherever a compiled entry is not finite).

Grammar (whitespace-insensitive)::

    expr   := term   (("+" | "-") term)*
    term   := unary  (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?
    atom   := NUMBER | FUNC "(" expr ")" | VAR | "(" expr ")"

so "^" is right-associative and binds tighter than unary minus, which
binds tighter than "*" and "/".  Variables are ``t``, ``lambda`` and
``z1`` ... ``zn``; which of them are legal depends on the context and
is enforced by the ``variables`` argument of the parse helpers.

:func:`diff` differentiates a tree symbolically and :func:`substitute`
replaces variables by expressions; both return ordinary trees, so their
results print, re-parse, evaluate and compile like parsed ones.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, ParseError, UnboundVariable

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "Bin",
    "Call",
    "MatrixExpr",
    "FUNCTIONS",
    "parse",
    "evaluate",
    "pretty",
    "free_variables",
    "diff",
    "substitute",
    "parse_matrix",
    "parse_vector",
    "eval_matrix",
    "compile_matrix",
]

FUNCTIONS = (
    "sin", "cos", "tan", "tanh", "sech", "cosh", "sinh",
    "exp", "log", "sqrt", "abs", "atan", "sign",
)

_VAR_RE = re.compile(r"^(t|lambda|z[1-9][0-9]*)$")
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


class Expr:
    """Base class for AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Bin(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


# -- tokenizer and parser ---------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str   # "num" | "ident" | "op" | "end"
    text: str
    offset: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            bad = len(src) - len(stripped)
            raise ParseError(
                f"unexpected character {src[bad]!r} at offset {bad}",
                offset=bad, expected="number, name or operator",
            )
        for kind in ("num", "ident", "op"):
            text = m.group(kind)
            if text is not None:
                tokens.append(_Token(kind, text, m.start(kind)))
                break
        pos = m.end()
    tokens.append(_Token("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: str):
        tok = self.peek()
        what = f"{tok.text!r}" if tok.kind != "end" else "end of input"
        raise ParseError(
            f"expected {expected}, got {what} at offset {tok.offset}",
            offset=tok.offset, expected=expected,
        )

    def expect_op(self, op: str):
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            self.fail(f"'{op}'")
        return self.advance()

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Bin(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Bin(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            node = Bin("^", node, self.unary())
        return node

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if tok.text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            if _VAR_RE.match(tok.text):
                return Var(tok.text)
            raise ParseError(
                f"unknown name {tok.text!r} at offset {tok.offset}",
                offset=tok.offset,
                expected="t, lambda, z<i> or a function name",
            )
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        self.fail("a number, name or '('")


def parse(src: str, variables: Iterable[str] | None = None) -> Expr:
    """Parse source text into an AST.

    Parameters
    ----------
    src : str
    variables : iterable of str, optional
        When given, any variable outside this set raises ParseError;
        use it to forbid z-variables outside vector-field contexts.

    Raises
    ------
    ParseError
        With the byte offset of the offending token.
    """
    p = _Parser(src)
    node = p.expr()
    tok = p.peek()
    if tok.kind != "end":
        p.fail("end of input or an operator")
    if variables is not None:
        allowed = set(variables)
        stray = sorted(free_variables(node) - allowed)
        if stray:
            raise ParseError(
                f"variable {stray[0]!r} not allowed here "
                f"(allowed: {', '.join(sorted(allowed))})",
                offset=0, expected="one of the allowed variables",
            )
    return node


def free_variables(e: Expr) -> set[str]:
    """Set of variable names referenced by the expression."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Neg):
        return free_variables(e.operand)
    if isinstance(e, Bin):
        return free_variables(e.left) | free_variables(e.right)
    if isinstance(e, Call):
        return free_variables(e.arg)
    return set()


# -- evaluation --------------------------------------------------------

def _sech(x):
    return 1.0 / np.cosh(x)


_NUMPY_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "tanh": np.tanh, "sech": _sech, "cosh": np.cosh, "sinh": np.sinh,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
    "abs": np.abs, "atan": np.arctan, "sign": np.sign,
}


def evaluate(e: Expr, env: dict[str, float]) -> float:
    """Strict scalar evaluation in IEEE doubles.

    Raises
    ------
    UnboundVariable
        If the expression references a name missing from ``env``.
    DomainError
        For log/sqrt of a negative number, division by zero, or a
        fractional power of a negative base; the message carries the
        variable bindings to ease debugging of config files.
    """
    def bindings() -> str:
        return ", ".join(f"{k}={v!r}" for k, v in sorted(env.items()))

    def rec(node: Expr) -> float:
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Var):
            try:
                return float(env[node.name])
            except KeyError:
                raise UnboundVariable(
                    f"variable {node.name!r} not bound (have: {bindings()})"
                ) from None
        if isinstance(node, Neg):
            return -rec(node.operand)
        if isinstance(node, Bin):
            a, b = rec(node.left), rec(node.right)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if node.op == "/":
                if b == 0.0:
                    raise DomainError(f"division by zero at {bindings()}")
                return a / b
            # "^"
            if a == 0.0 and b < 0.0:
                raise DomainError(f"zero to a negative power at {bindings()}")
            if a < 0.0 and b != round(b):
                raise DomainError(
                    f"fractional power of negative base at {bindings()}"
                )
            with np.errstate(over="ignore", invalid="ignore"):
                return float(np.power(np.float64(a), np.float64(b)))
        if isinstance(node, Call):
            x = rec(node.arg)
            if node.func == "log" and x <= 0.0:
                raise DomainError(f"log of non-positive value at {bindings()}")
            if node.func == "sqrt" and x < 0.0:
                raise DomainError(f"sqrt of negative value at {bindings()}")
            with np.errstate(over="ignore", invalid="ignore"):
                return float(_NUMPY_FUNCS[node.func](np.float64(x)))
        raise TypeError(f"not an Expr node: {node!r}")

    return rec(e)


# -- pretty printer ----------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def pretty(e: Expr) -> str:
    """Render the AST to text that re-parses to an identical AST."""
    def rec(node: Expr, ctx: int) -> str:
        if isinstance(node, Num):
            return repr(node.value)
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Call):
            return f"{node.func}({rec(node.arg, 0)})"
        if isinstance(node, Neg):
            p = _PREC["neg"]
            s = "-" + rec(node.operand, p)
            return f"({s})" if p < ctx else s
        if isinstance(node, Bin):
            p = _PREC[node.op]
            if node.op == "^":
                s = rec(node.left, p + 1) + "^" + rec(node.right, p)
            else:
                s = rec(node.left, p) + node.op + rec(node.right, p + 1)
            return f"({s})" if p < ctx else s
        raise TypeError(f"not an Expr node: {node!r}")

    return rec(e, 0)


# -- differentiation and substitution ----------------------------------

_ZERO = Num(0.0)
_ONE = Num(1.0)


def _is(node: Expr, value: float) -> bool:
    return isinstance(node, Num) and node.value == value


def _num(c: float) -> Expr:
    # the parser never makes a negative Num (nor -0.0, hence the abs),
    # so neither may we: pretty would print it as a Neg and the round
    # trip would change the tree
    return Neg(Num(-c)) if c < 0 else Num(abs(c))


def _neg(a: Expr) -> Expr:
    if _is(a, 0.0):
        return _ZERO
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def _bin(op: str, a: Expr, b: Expr) -> Expr:
    """Bin(op, a, b), folding identities of 0 and 1 and finite Num∘Num."""
    if isinstance(a, Num) and isinstance(b, Num):
        try:
            c = evaluate(Bin(op, a, b), {})
        except DomainError:
            c = np.nan
        if np.isfinite(c):
            return _num(c)
    if op == "+":
        if _is(a, 0.0):
            return b
        if _is(b, 0.0):
            return a
    elif op == "-":
        if _is(b, 0.0):
            return a
        if _is(a, 0.0):
            return _neg(b)
    elif op == "*":
        if _is(a, 0.0) or _is(b, 0.0):
            return _ZERO
        if _is(a, 1.0):
            return b
        if _is(b, 1.0):
            return a
    elif op == "/":
        if _is(a, 0.0):
            return _ZERO
        if _is(b, 1.0):
            return a
    elif op == "^":
        if _is(b, 0.0) or _is(a, 1.0):
            return _ONE
        if _is(b, 1.0):
            return a
    return Bin(op, a, b)


#: f'(u) for each f in FUNCTIONS, as an expression in u.
_DERIVATIVES = {
    "sin": lambda u: Call("cos", u),
    "cos": lambda u: _neg(Call("sin", u)),
    "tan": lambda u: _bin("+", _ONE, _bin("^", Call("tan", u), Num(2.0))),
    "tanh": lambda u: _bin("^", Call("sech", u), Num(2.0)),
    "sech": lambda u: _neg(_bin("*", Call("sech", u), Call("tanh", u))),
    "cosh": lambda u: Call("sinh", u),
    "sinh": lambda u: Call("cosh", u),
    "exp": lambda u: Call("exp", u),
    "log": lambda u: _bin("/", _ONE, u),
    "sqrt": lambda u: _bin("/", Num(0.5), Call("sqrt", u)),
    "abs": lambda u: Call("sign", u),
    "atan": lambda u: _bin("/", _ONE,
                           _bin("+", _ONE, _bin("^", u, Num(2.0)))),
    "sign": lambda u: _ZERO,
}


def diff(e: Expr, var: str) -> Expr:
    """Exact derivative of ``e`` with respect to the variable ``var``.

    The chain, product and quotient rules applied to the tree, with
    identities of 0 and 1 and finite constant operations folded.  A
    power ``a^b`` differentiates to ``b*a^(b-1)*a'`` when ``b`` does
    not depend on ``var`` and to ``a^b*(b'*log(a) + b*a'/a)`` when it
    does; ``abs`` differentiates to ``sign``, whose derivative is 0
    (so the derivative of ``abs`` at 0 is 0).  No domain is checked
    here: the derivative of ``sqrt(z1)`` is ``0.5/sqrt(z1)``, which
    the strict evaluator rejects at ``z1 = 0``.
    """
    if isinstance(e, Num):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.name == var else _ZERO
    if isinstance(e, Neg):
        return _neg(diff(e.operand, var))
    if isinstance(e, Bin):
        a, b = e.left, e.right
        da, db = diff(a, var), diff(b, var)
        if e.op in "+-":
            return _bin(e.op, da, db)
        if e.op == "*":
            return _bin("+", _bin("*", da, b), _bin("*", a, db))
        if e.op == "/":
            return _bin("-", _bin("/", da, b),
                        _bin("/", _bin("*", a, db), _bin("^", b, Num(2.0))))
        # "^"
        if var not in free_variables(b):
            return _bin("*", _bin("*", b, _bin("^", a, _bin("-", b, _ONE))),
                        da)
        return _bin("*", e, _bin("+", _bin("*", db, Call("log", a)),
                                  _bin("/", _bin("*", b, da), a)))
    if isinstance(e, Call):
        return _bin("*", _DERIVATIVES[e.func](e.arg), diff(e.arg, var))
    raise TypeError(f"not an Expr node: {e!r}")


def substitute(e: Expr, env: dict[str, Expr]) -> Expr:
    """``e`` with every variable named in ``env`` replaced by its expression.

    The rebuilt tree folds constants as :func:`diff` does, so a
    variable replaced by 0 drops out of sums and products.
    """
    if isinstance(e, Num):
        return e
    if isinstance(e, Var):
        return env.get(e.name, e)
    if isinstance(e, Neg):
        return _neg(substitute(e.operand, env))
    if isinstance(e, Bin):
        return _bin(e.op, substitute(e.left, env), substitute(e.right, env))
    if isinstance(e, Call):
        return Call(e.func, substitute(e.arg, env))
    raise TypeError(f"not an Expr node: {e!r}")


# -- compilation to numpy ----------------------------------------------

def _codegen(e: Expr, args: Sequence[str]) -> Callable:
    """One entry of :func:`compile_matrix` as a numpy lambda of ``args``."""
    names = {name: f"_a{i}" for i, name in enumerate(args)}
    stray = sorted(free_variables(e) - set(names))
    if stray:
        raise UnboundVariable(f"variable {stray[0]!r} not among {tuple(args)}")

    # constants are numpy scalars, so that arithmetic among them
    # follows numpy's IEEE rules (1/0 is inf, flagged) like the rest,
    # instead of raising or going complex as Python floats do
    consts = {}

    def gen(node: Expr) -> str:
        if isinstance(node, Num):
            name = f"_c{len(consts)}"
            consts[name] = np.float64(node.value)
            return name
        if isinstance(node, Var):
            return names[node.name]
        if isinstance(node, Neg):
            return f"(-{gen(node.operand)})"
        if isinstance(node, Bin):
            if node.op == "^":
                return f"_pow({gen(node.left)}, {gen(node.right)})"
            return f"({gen(node.left)}{node.op}{gen(node.right)})"
        if isinstance(node, Call):
            return f"_f_{node.func}({gen(node.arg)})"
        raise TypeError(f"not an Expr node: {node!r}")

    body = gen(e)
    arglist = ", ".join(names[name] for name in args)
    ns = {f"_f_{fname}": fn for fname, fn in _NUMPY_FUNCS.items()}
    # "^" is the ufunc, never "**": on a numpy scalar "**" calls the C
    # library's pow, whose last bit can differ from an array power's
    ns["_pow"] = np.power
    ns.update(consts)
    return eval(f"lambda {arglist}: {body}", ns)  # noqa: S307 - own codegen


# -- matrices and vectors of expressions -------------------------------

@dataclass(frozen=True)
class MatrixExpr:
    """Rectangular grid of expressions, one per matrix entry."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ValueError("entry grid does not match declared rows")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("entry grid is not rectangular")


def parse_matrix(entries, variables: Iterable[str] = ("t", "lambda")) -> MatrixExpr:
    """Parse a nested list of source strings into a MatrixExpr."""
    if not entries or not entries[0]:
        raise ParseError("empty matrix", offset=0, expected="matrix entries")
    rows = len(entries)
    cols = len(entries[0])
    parsed = []
    for i, row in enumerate(entries):
        if len(row) != cols:
            raise ParseError(
                f"row {i} has {len(row)} entries, expected {cols}",
                offset=0, expected="rectangular entry grid",
            )
        parsed.append(tuple(parse(src, variables) for src in row))
    return MatrixExpr(rows=rows, cols=cols, entries=tuple(parsed))


def parse_vector(entries, variables: Iterable[str]) -> tuple:
    """Parse a list of source strings into a tuple of Expr."""
    return tuple(parse(src, variables) for src in entries)


def eval_matrix(m: MatrixExpr, env: dict[str, float]) -> np.ndarray:
    """Entrywise strict evaluation into an (rows, cols) ndarray."""
    out = np.empty((m.rows, m.cols))
    for i, row in enumerate(m.entries):
        for j, e in enumerate(row):
            out[i, j] = evaluate(e, env)
    return out


def compile_matrix(m: MatrixExpr, args: Sequence[str]) -> Callable:
    """Compile entrywise; the result maps arrays to (..., rows, cols).

    Input arrays broadcast against each other; the matrix axes are
    appended last, so scalar inputs give a plain (rows, cols) matrix.
    A point whose matrix has a nan or inf entry is re-evaluated by the
    strict :func:`eval_matrix`, so a domain error raises
    ``DomainError`` while a genuine overflow passes through as inf.
    A call in which numpy flags a division by zero or an invalid
    operation re-evaluates every point strictly, since such a domain
    error can end in a finite value (``exp(-1/t)`` is 0 at t = 0).
    Every route rounds "^" as ``np.power``: an array call, a one-point
    call and :func:`evaluate` give the same bits at every point.
    """
    fns = [[_codegen(e, args) for e in row] for row in m.entries]

    def fill(out, arrays):
        for i, row in enumerate(fns):
            for j, fn in enumerate(row):
                out[..., i, j] = fn(*arrays)

    def run(*values) -> np.ndarray:
        # [()] turns 0-d input into numpy scalars, whose arithmetic is
        # the same and cheaper than that of 0-d arrays
        arrays = [np.asarray(v, dtype=float)[()] for v in values]
        shape = np.broadcast(*arrays).shape if arrays else ()
        out = np.empty(shape + (m.rows, m.cols))
        # one errstate per matrix: entering it costs more than a scalar entry
        try:
            with np.errstate(all="ignore", divide="raise", invalid="raise"):
                fill(out, arrays)
            if np.isfinite(out).all():
                return out
            bad = ~np.isfinite(out).all(axis=(-2, -1))
        except FloatingPointError:
            with np.errstate(all="ignore"):
                fill(out, arrays)
            bad = np.ones(shape, dtype=bool)
        for idx in map(tuple, np.argwhere(bad)):
            eval_matrix(m, {name: float(np.broadcast_to(a, shape)[idx])
                            for name, a in zip(args, arrays)})
        return out

    return run
