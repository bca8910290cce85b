"""Symbolic scalar expressions in configuration variables.

Supports the grammar +, -, *, /, integer powers, sin, cos and unary
negation, closed under exact differentiation. Expressions compare as
trees, and a tree of finite constants prints to text that parses back to
it; the only simplification performed is constant folding.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterator, Sequence

import numpy as np


class ExprError(ValueError):
    """Problem while parsing or evaluating an expression.  Raised by a
    compiled function, ``tree`` is the index of the first of its trees (in
    the order of :class:`Tables`; 0 for one tree) whose value needs the
    statement that failed."""

    tree: int | None = None


class ParseError(ExprError):
    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.pos = pos


class Expr:
    """Immutable expression node; its hash is computed once and kept, so a
    tree's hash takes time linear in its distinct nodes, shared or not."""

    __slots__ = ("_hash",)

    def eval(self, point: Sequence[float]) -> float:
        """Tree-walk evaluation: the reference :func:`compile_expr` is tested against."""
        raise NotImplementedError

    def diff(self, index: int) -> "Expr":
        """Exact partial derivative with respect to variable number ``index``."""
        raise NotImplementedError

    def variables(self) -> set[int]:
        """Indices of variables that occur in the tree."""
        return _variables([self])

    def __str__(self) -> str:
        return to_string(self)

    def __repr__(self) -> str:
        # the nodes' dataclasses take repr=False to keep it; clipped as
        # _node_error's messages are: an expansion can be exponentially long
        return f"{type(self).__name__}({to_string(_shown(self))})"


@dataclass(frozen=True, slots=True, repr=False)
class Const(Expr):
    value: float

    def eval(self, point: Sequence[float]) -> float:
        return self.value

    def diff(self, index: int) -> Expr:
        return Const(0.0)


@dataclass(frozen=True, slots=True, repr=False)
class Var(Expr):
    name: str
    index: int

    def eval(self, point: Sequence[float]) -> float:
        # a Python float, so that overflow raises whatever the input type
        return float(point[self.index])

    def diff(self, index: int) -> Expr:
        return Const(1.0 if index == self.index else 0.0)


@dataclass(frozen=True, slots=True, repr=False)
class Add(Expr):
    left: Expr
    right: Expr

    def eval(self, point: Sequence[float]) -> float:
        return self.left.eval(point) + self.right.eval(point)

    def diff(self, index: int) -> Expr:
        return add(self.left.diff(index), self.right.diff(index))


@dataclass(frozen=True, slots=True, repr=False)
class Sub(Expr):
    left: Expr
    right: Expr

    def eval(self, point: Sequence[float]) -> float:
        return self.left.eval(point) - self.right.eval(point)

    def diff(self, index: int) -> Expr:
        return sub(self.left.diff(index), self.right.diff(index))


@dataclass(frozen=True, slots=True, repr=False)
class Mul(Expr):
    left: Expr
    right: Expr

    def eval(self, point: Sequence[float]) -> float:
        return self.left.eval(point) * self.right.eval(point)

    def diff(self, index: int) -> Expr:
        return add(
            mul(self.left.diff(index), self.right),
            mul(self.left, self.right.diff(index)),
        )


@dataclass(frozen=True, slots=True, repr=False)
class Div(Expr):
    left: Expr
    right: Expr

    def eval(self, point: Sequence[float]) -> float:
        denom = self.right.eval(point)
        if denom == 0.0:
            raise ExprError(f"division by zero in {to_string(self)}")
        return self.left.eval(point) / denom

    def diff(self, index: int) -> Expr:
        # (u/v)' = u'/v - u v'/v^2; for a constant v the second term goes
        # before v*v is formed, which can underflow to 0
        quotient = div(self.left.diff(index), self.right)
        dv = self.right.diff(index)
        if _is_const(dv, 0.0):
            return quotient
        return sub(quotient, div(mul(self.left, dv), mul(self.right, self.right)))


@dataclass(frozen=True, slots=True, repr=False)
class Pow(Expr):
    base: Expr
    exponent: int

    def eval(self, point: Sequence[float]) -> float:
        b = self.base.eval(point)
        if b == 0.0 and self.exponent < 0:
            raise ExprError(f"division by zero in {to_string(self)}")
        return b ** self.exponent

    def diff(self, index: int) -> Expr:
        # d(u^k) = k u^(k-1) u'
        return mul(
            mul(Const(float(self.exponent)), powi(self.base, self.exponent - 1)),
            self.base.diff(index),
        )


@dataclass(frozen=True, slots=True, repr=False)
class Sin(Expr):
    arg: Expr

    def eval(self, point: Sequence[float]) -> float:
        return _trig(math.sin, self, point)

    def diff(self, index: int) -> Expr:
        return mul(cos(self.arg), self.arg.diff(index))


@dataclass(frozen=True, slots=True, repr=False)
class Cos(Expr):
    arg: Expr

    def eval(self, point: Sequence[float]) -> float:
        return _trig(math.cos, self, point)

    def diff(self, index: int) -> Expr:
        return neg(mul(sin(self.arg), self.arg.diff(index)))


@dataclass(frozen=True, slots=True, repr=False)
class Neg(Expr):
    arg: Expr

    def eval(self, point: Sequence[float]) -> float:
        return -self.arg.eval(point)

    def diff(self, index: int) -> Expr:
        return neg(self.arg.diff(index))


def _trig(fn: Callable[[float], float], node: Sin | Cos, point: Sequence[float]) -> float:
    """fn of the node's argument; an ExprError where that is infinite."""
    x = node.arg.eval(point)
    if math.isinf(x):
        raise ExprError(f"infinite argument in {to_string(node)}")
    return fn(x)


def _keep_hash(cls: type) -> None:
    """Make cls's hash of its fields computed at the first call and kept."""
    fields_hash = cls.__hash__

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", fields_hash(self))
            return self._hash

    cls.__hash__ = __hash__


for _cls in (Const, Var, Add, Sub, Mul, Div, Pow, Sin, Cos, Neg):
    _keep_hash(_cls)


def _operands(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, (Add, Sub, Mul, Div)):
        return e.left, e.right
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, (Sin, Cos, Neg)):
        return (e.arg,)
    return ()


def _variables(trees: Sequence[Expr]) -> set[int]:
    """Indices of the variables in the trees, each distinct node visited once."""
    seen, stack = {}, list(trees)
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen[id(e)] = e
            stack.extend(_operands(e))
    return {e.index for e in seen.values() if isinstance(e, Var)}


# Smart constructors with constant folding.

def _is_const(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b) and b.value != 0.0:
        if _is_const(a):
            return Const(a.value / b.value)
        if b.value == 1.0:
            return a
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return Const(0.0)
    return Div(a, b)


def powi(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return Const(1.0)
    if exponent == 1:
        return base
    if _is_const(base) and (base.value != 0.0 or exponent > 0):
        return Const(_pow_or_nan(base.value, exponent))
    return Pow(base, exponent)


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def sin(a: Expr) -> Expr:
    if _is_const(a):
        return Const(math.sin(a.value))
    return Sin(a)


def cos(a: Expr) -> Expr:
    if _is_const(a):
        return Const(math.cos(a.value))
    return Cos(a)


# Linear algebra on trees, through the smart constructors: the terms of
# constant zero entries fold away.

def total(terms: Sequence[Expr]) -> Expr:
    """The terms added left to right; 0 for none."""
    return reduce(add, terms, Const(0.0))


def quadratic(a: Sequence[Sequence[Expr]], u: Sequence[Expr]) -> Expr:
    """sum_ij a_ij u_i u_j."""
    r = range(len(u))
    return total([mul(mul(a[i][j], u[i]), u[j]) for i in r for j in r])


def ldl(a: Sequence[Sequence[Expr]]) -> tuple[list[list[Expr]], list[Expr]]:
    """(L, D) with a = L D L', L unit lower triangular (only its entries below
    the diagonal are set); a is symmetric, read on and below the diagonal."""
    n = len(a)
    l, ld, d = [[None] * n for _ in range(n)], [[None] * n for _ in range(n)], [None] * n
    for j in range(n):  # ld[i][j] is L_ij D_j
        d[j] = reduce(sub, [mul(ld[j][k], l[j][k]) for k in range(j)], a[j][j])
        for i in range(j + 1, n):
            ld[i][j] = reduce(sub, [mul(ld[i][k], l[j][k]) for k in range(j)], a[i][j])
            l[i][j] = div(ld[i][j], d[j])
    return l, d


def ldl_solve(l: list[list[Expr]], d: list[Expr], b: Sequence[Expr]) -> list[Expr]:
    """x with L D L' x = b."""
    n = len(b)
    y, x = [None] * n, [None] * n
    for i in range(n):
        y[i] = reduce(sub, [mul(l[i][k], y[k]) for k in range(i)], b[i])
    for i in reversed(range(n)):
        x[i] = reduce(sub, [mul(l[k][i], x[k]) for k in range(i + 1, n)], div(y[i], d[i]))
    return x


def matvec(a, v: Sequence[Expr]) -> list[Expr]:
    """a v as trees, for a matrix a (an array or nested lists) of numbers or
    trees: each row's terms in column order, those of constant zero entries
    folded away."""
    return [total([mul(x if isinstance(x, Expr) else Const(float(x)), v[k])
                   for k, x in enumerate(row)])
            for row in np.asarray(a, dtype=object).tolist()]


def inputs(start: int, *shape: int) -> list:
    """The entries x[start], x[start + 1], ... of a compiled function's
    input x, as variables in nested lists of the given shape, row by row."""
    count = math.prod(shape)
    return np.reshape(np.array([Var(f"x{k}", k) for k in range(start, start + count)],
                               dtype=object), shape).tolist()


# Tokenizer and recursive-descent parser.

_OPS = set("+-*/^()")


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            yield ("op", ch, i)
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tok = text[i:j]
            try:
                float(tok)
            except ValueError:
                raise ParseError(f"malformed number {tok!r}", text, i) from None
            yield ("num", tok, i)
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("name", text[i:j], i)
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", text, i)
    yield ("end", "", n)


class _Parser:
    def __init__(self, text: str, vars: Sequence[str], params: dict[str, float] | None):
        self.text = text
        self.vars = {name: i for i, name in enumerate(vars)}
        self.params = params or {}
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str) -> None:
        kind, val, at = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", self.text, at)

    def finite(self, e: Expr, at: int) -> Expr:
        """e; a ParseError at ``at`` where it is a constant that is not finite."""
        if isinstance(e, Const) and not math.isfinite(e.value):
            raise ParseError("constant is not finite", self.text, at)
        return e

    def parse(self) -> Expr:
        e = self.sum()
        kind, val, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", self.text, at)
        return e

    def sum(self) -> Expr:
        e = self.term()
        while self.peek()[1] in ("+", "-"):
            op, at = self.next()[1:]
            e = self.finite((add if op == "+" else sub)(e, self.term()), at)
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek()[1] in ("*", "/"):
            op, at = self.next()[1:]
            e = self.finite((mul if op == "*" else div)(e, self.unary()), at)
        return e

    def unary(self) -> Expr:
        if self.peek()[1] == "-":
            self.next()
            return neg(self.unary())
        if self.peek()[1] == "+":
            self.next()
            return self.unary()
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[1] != "^":
            return base
        self.next()
        sign = 1
        if self.peek()[1] == "-":
            self.next()
            sign = -1
        kind, val, at = self.next()
        if kind != "num" or not val.isdigit():
            raise ParseError("exponent must be a constant integer", self.text, at)
        return self.finite(powi(base, sign * int(val)), at)

    def atom(self) -> Expr:
        kind, val, at = self.next()
        if kind == "num":
            return self.finite(Const(float(val)), at)
        if val == "(":
            e = self.sum()
            self.expect(")")
            return e
        if kind == "name":
            if val in ("sin", "cos"):
                self.expect("(")
                arg = self.sum()
                self.expect(")")
                return sin(arg) if val == "sin" else cos(arg)
            if val in self.vars:
                return Var(val, self.vars[val])
            if val in self.params:
                return self.finite(Const(float(self.params[val])), at)
            raise ParseError(f"undeclared identifier {val!r}", self.text, at)
        raise ParseError(f"unexpected {val or 'end of input'!r}", self.text, at)


def parse(text: str, vars: Sequence[str], params: dict[str, float] | None = None) -> Expr:
    """Parse ``text`` over the declared variables.

    ``params`` maps extra identifiers (design constants) to numeric values,
    folded into the tree at parse time.
    """
    if not isinstance(text, str):
        raise ExprError(f"expected an expression string, got {text!r}")
    return _Parser(text, vars, params).parse()


# Printing with minimal parentheses: precedence sum=1, product=2, unary=3,
# power=4.  The parser groups chains of + and - (and of * and /) to the left,
# so a right operand of the same kind keeps its parentheses: str(e) parses
# back to e.

def _print(e: Expr, parent_prec: int, grouped: tuple[type, ...] = ()) -> str:
    """e as an operand at ``parent_prec``, parenthesized also where it is a
    sum or product of a kind in ``grouped``."""
    if isinstance(e, Const):
        v = e.value
        # abs first: int() raises on the inf or nan that differentiation folds
        s = repr(int(v)) if abs(v) < 1e16 and v == int(v) else repr(v)
        return f"({s})" if v < 0 and parent_prec > 1 else s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        s = f"{_print(e.left, 1)} + {_print(e.right, 1, (Add, Sub))}"
        return f"({s})" if parent_prec > 1 or isinstance(e, grouped) else s
    if isinstance(e, Sub):
        s = f"{_print(e.left, 1)} - {_print(e.right, 2)}"
        return f"({s})" if parent_prec > 1 or isinstance(e, grouped) else s
    if isinstance(e, Mul):
        s = f"{_print(e.left, 2)}*{_print(e.right, 2, (Mul, Div))}"
        return f"({s})" if parent_prec > 2 or isinstance(e, grouped) else s
    if isinstance(e, Div):
        s = f"{_print(e.left, 2)}/{_print(e.right, 3)}"
        return f"({s})" if parent_prec > 2 or isinstance(e, grouped) else s
    if isinstance(e, Neg):
        s = f"-{_print(e.arg, 3)}"
        return f"({s})" if parent_prec > 2 else s
    if isinstance(e, Pow):
        s = f"{_print(e.base, 5)}^{e.exponent}"
        return f"({s})" if parent_prec > 4 else s
    if isinstance(e, Sin):
        return f"sin({_print(e.arg, 0)})"
    if isinstance(e, Cos):
        return f"cos({_print(e.arg, 0)})"
    raise TypeError(f"unknown node {type(e).__name__}")


def to_string(e: Expr) -> str:
    return _print(e, 0)


# Code generation: one Python function per expression or nested table of
# expressions, with one temporary per unique non-leaf subtree.

_OP_CODE = {
    Add: "{} + {}", Sub: "{} - {}", Mul: "{} * {}", Div: "{} / {}",
    Sin: "_sin({})", Cos: "_cos({})", Neg: "-{}",
}


def _emit(
    e: Expr, temps: dict[Expr, str], body: list[tuple[str, Expr]], batch: bool = False
) -> str:
    """Operand naming ``e`` in generated code.

    Constants and variables are written inline; any other node is assigned
    to a temporary on first sight, appended to ``body`` as (code, node).
    The code is the same for both variants of compile_expr but for powers,
    which the batch variant takes through ``_pow``.
    """
    if isinstance(e, Const):
        s = repr(e.value)
        return f"({s})" if s.startswith("-") else s
    if isinstance(e, Var):
        return f"_x{e.index}"
    name = temps.get(e)
    if name is not None:
        return name
    args = [_emit(operand, temps, body, batch) for operand in _operands(e)]
    if isinstance(e, Pow):
        code = f"_pow({args[0]}, {e.exponent})" if batch else f"{args[0]} ** {e.exponent}"
    elif type(e) in _OP_CODE:
        code = _OP_CODE[type(e)].format(*args)
    else:
        raise TypeError(f"unknown node {type(e).__name__}")
    name = f"_t{len(body)}"
    temps[e] = name
    body.append((f"{name} = {code}", e))
    return name


def _flatten(tree, leaves: list[Expr]) -> tuple[int, ...]:
    """Append the expressions of a nested sequence to ``leaves``; return its shape."""
    if isinstance(tree, Expr):
        leaves.append(tree)
        return ()
    shapes = {_flatten(t, leaves) for t in tree}
    if len(shapes) > 1:
        raise ExprError("nested expressions must form a rectangular array")
    return (len(tree),) + (shapes.pop() if shapes else ())


# a message prints a node whole where its expansion (far larger than the tree
# where subtrees are shared) has at most _SHOWN nodes, else its top levels
_SHOWN, _SHOWN_DEPTH = 127, 6
_ELIDED = Var("...", -1)


def _fits(e: Expr, budget: int) -> int:
    """budget less e's expansion's node count, counted no further than < 0."""
    budget -= 1
    for operand in _operands(e):
        if budget < 0:
            break
        budget = _fits(operand, budget)
    return budget


def _clipped(e: Expr, depth: int) -> Expr:
    """e with each subtree ``depth`` levels below it replaced by '...'."""
    if not _operands(e):
        return e
    if depth == 0:
        return _ELIDED
    operands = [_clipped(operand, depth - 1) for operand in _operands(e)]
    return Pow(*operands, e.exponent) if isinstance(e, Pow) else type(e)(*operands)


def _shown(e: Expr) -> Expr:
    """e, or its top levels where its expansion has more than _SHOWN nodes."""
    return e if _fits(e, _SHOWN) >= 0 else _clipped(e, _SHOWN_DEPTH)


def _node_error(
    exc: ArithmeticError | ValueError, nodes: list[tuple[Expr, int] | None]
) -> ExprError:
    # the generated function holds one statement per line, so the line that
    # raised names the node, a divisor or a sin or cos of an infinite value,
    # and the first tree that needs it
    node, tree = nodes[exc.__traceback__.tb_lineno - 1]
    what = "division by zero" if isinstance(exc, ZeroDivisionError) else "infinite argument"
    error = ExprError(f"{what} in {to_string(_shown(node))}")
    error.tree = tree
    return error


def _pow_or_nan(v: float, k: int) -> float:
    try:
        return v ** k
    except ArithmeticError:
        return math.nan


def _pow_rows(base, k: int):
    """``base ** k`` per row with Python's float power, which the scalar variant
    uses and numpy's power does not round like; NaN where it raises."""
    if not isinstance(base, np.ndarray):
        return base ** k
    values = base.tolist()
    try:
        return np.array([v ** k for v in values], dtype=float)
    except ArithmeticError:
        return np.array([_pow_or_nan(v, k) for v in values], dtype=float)


def _generate(trees, batch: bool = False):
    """(shapes, temps, body, outs, owners, used) of the trees: each tree's
    shape, the temporaries and statements of _emit, the operand of each
    expression in order, the index of the tree whose expressions emitted
    each statement, and the indices of the variables read."""
    leaves: list[Expr] = []
    shapes = [_flatten(t, leaves) for t in trees]
    temps: dict[Expr, str] = {}
    body: list[tuple[str, Expr]] = []
    outs: list[str] = []
    owners: list[int] = []
    start = 0
    for j, shape in enumerate(shapes):
        size = math.prod(shape)
        outs += [_emit(e, temps, body, batch) for e in leaves[start:start + size]]
        owners += [j] * (len(body) - len(owners))
        start += size
    return shapes, temps, body, outs, owners, _variables(leaves)


def _per_tree(outs: list[str], shapes: list[tuple[int, ...]]):
    """(operands, shape) of each tree, from the operands of all in order."""
    start = 0
    for shape in shapes:
        size = math.prod(shape)
        yield outs[start:start + size], shape
        start += size


class Tables(tuple):
    """Trees, each an expression or a nested sequence of them, that
    compile_expr turns into one function returning a tuple of their values."""

    __slots__ = ()


def _value_code(outs: list[str], shape: tuple[int, ...]) -> str:
    """Generated code for the value of one tree from its outputs' operands."""
    if not shape:
        return outs[0]
    code = f"_array([{', '.join(outs)}])"
    return code + (f".reshape({shape})" if len(shape) > 1 else "")


def _result(parts: list[str], tables: bool) -> str:
    """Generated code for the tuple of the parts, or for the one part."""
    return f"({', '.join(parts)},)" if tables else parts[0]


def compile_expr(tree, batch: bool = False) -> Callable:
    """Compile an expression, or a nested sequence of them, to one evaluator,
    in time linear in the distinct nodes however often subtrees are shared.

    The generated function converts the coordinates it reads to float,
    evaluates every unique subtree once, and returns a float for a single
    expression or an ndarray of the nesting's shape; for :class:`Tables`, a
    tuple with each tree's value, computed as for that tree alone, with the
    subtrees the trees share evaluated once.  Division by zero, and sin or
    cos of an infinite value, raise :class:`ExprError` naming the
    subexpression (its top levels only, where it expands to many nodes).

    With ``batch`` the same generated statements run on numpy arrays: the
    function maps an (N, n) stack of points to ``(values, flagged)``, values
    of shape (N, *shape) (for :class:`Tables`, a tuple with each tree's) and
    one boolean row mask.  A row is flagged where any temporary is not
    finite.  A non-finite value reaches an output unless it is a denominator
    or the base of a non-positive power, so only those and the outputs are
    checked: for Tables, the union of what each tree alone checks, so the
    mask is the OR of their masks.  The flagged rows are a superset of those
    where the scalar function raises or returns inf or NaN: a zero
    denominator makes an infinite quotient, and a power the scalar variant
    overflows on is NaN, but a Python float ``*`` or ``+`` overflows to inf
    without raising, and a quotient by that inf is finite, so
    ``3.25/(q1*(1e200*(1e200 - q1)))`` is flagged at q1 = 0.459, where the
    scalar function returns 0.0.  Values in flagged rows are placeholders.  Each output
    is written as soon as it is computed, and each temporary deleted after
    its last use, so a call holds only the live temporaries' arrays.
    """
    tables = isinstance(tree, Tables)
    shapes, temps, body, outs, owners, used = _generate(tree if tables else (tree,), batch)
    # differentiation still folds to inf: d(q1*1e200*1e200)/dq1
    namespace = {"inf": math.inf, "nan": math.nan}
    if batch:
        lines = ["def _f(_q):", "    _q = _asarray(_q, dtype=float)", "    _n = len(_q)"]
        lines += [f"    _x{i} = _q[:, {i}]" for i in sorted(used)]
        # one array per tree, each C-contiguous as that tree's own would be
        lines += [f"    _o{j} = _empty((_n, {len(tree_outs)}))"
                  for j, (tree_outs, _) in enumerate(_per_tree(outs, shapes))]
        lines += ["    _flagged = _zeros(_n, dtype=bool)",
                  "    with _errstate(all='ignore'):", "        try:"]
        writes, tail = defaultdict(list), []
        for j, (tree_outs, _) in enumerate(_per_tree(outs, shapes)):
            for k, out in enumerate(tree_outs):
                (writes[out] if out.startswith("_t") else tail).append(f"_o{j}[:, {k}] = {out}")
        # each temporary is deleted after its last use, an output after it
        # is written, so that only the live ones hold memory
        last = {}
        for i, (_, node) in enumerate(body):
            for e in (node, *_operands(node)):
                if e in temps:
                    last[temps[e]] = i
        dead = defaultdict(list)
        for name, i in last.items():
            dead[i].append(name)
        for i, (code, node) in enumerate(body):
            lines.append(f"            {code}")
            checked = node.right if isinstance(node, Div) else node.base if (
                isinstance(node, Pow) and node.exponent <= 0) else None
            if checked is not None and not isinstance(checked, Const):
                lines.append(f"            _flagged |= ~_isfinite({_emit(checked, temps, body)})")
            lines += [f"            {write}" for write in writes[temps[node]]]
            if dead[i]:
                lines.append(f"            del {', '.join(dead[i])}")
        lines += [f"            {write}" for write in tail]
        values = [f"_o{j}.reshape((_n, *{shape}))" for j, shape in enumerate(shapes)]
        placeholders = [f"_full((_n, *{shape}), nan)" for shape in shapes]
        lines += [
            "        except ArithmeticError:",  # a constant subtree divides by zero
            f"            return {_result(placeholders, tables)}, _ones(_n, dtype=bool)",
            "    _flagged |= ~(" + " & ".join(
                f"_isfinite(_o{j}).all(axis=1)" for j in range(len(shapes))) + ")",
            f"    return {_result(values, tables)}, _flagged",
        ]
        namespace.update(
            _sin=np.sin, _cos=np.cos, _pow=_pow_rows, _asarray=np.asarray,
            _errstate=np.errstate, _empty=np.empty, _full=np.full, _ones=np.ones,
            _zeros=np.zeros, _isfinite=np.isfinite,
        )
    else:
        parts = [_value_code(tree_outs, shape) for tree_outs, shape in _per_tree(outs, shapes)]
        head = ["def _f(_q):"] + [f"    _x{i} = float(_q[{i}])" for i in sorted(used)]
        head += ["    try:"]
        lines = head + [f"        {code}" for code, _ in body] + [
            f"        return {_result(parts, tables)}",
            "    except (ZeroDivisionError, ValueError) as exc:",
            "        raise _node_error(exc, _nodes) from None",
        ]
        namespace.update(
            _sin=math.sin, _cos=math.cos, _array=np.array,
            _node_error=_node_error,
            _nodes=[None] * len(head) + [(node, j) for (_, node), j in zip(body, owners)],
        )
    exec(compile("\n".join(lines), "<expr>", "exec"), namespace)
    return namespace["_f"]


def _map(f: Callable, tree):
    """``f`` applied to each expression of a nested table, as nested lists."""
    return f(tree) if isinstance(tree, Expr) else [_map(f, t) for t in tree]


class Compiled:
    """An expression, a rectangular nested table of them, or :class:`Tables`
    of either, with its evaluators (compile_expr: linear in distinct nodes).

    Calling it on one point runs ``compile_expr(tree)``, compiled here;
    ``batch`` runs the batch variant, compiled on its first call and kept, so
    that owners which only evaluate single points never build it.
    """

    __slots__ = ("tree", "_fn", "_batch")

    def __init__(self, tree):
        self.tree, self._fn, self._batch = tree, compile_expr(tree), None

    def __call__(self, q: Sequence[float]):
        return self._fn(q)

    def batch(self, points) -> tuple[np.ndarray, np.ndarray]:
        """(N, n) stack of points -> ((N, *shape) values, or a tuple of each
        tree's for Tables; flagged rows)."""
        if self._batch is None:
            self._batch = compile_expr(self.tree, batch=True)
        return self._batch(points)

    def to_strings(self):
        return _map(str, self.tree)

    def diff(self, n: int) -> "Compiled":
        """The table of d/dq^k for k < n, with k as the first index."""
        return Compiled([_map(lambda e: e.diff(k), self.tree) for k in range(n)])
