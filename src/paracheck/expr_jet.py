"""Scalar-field expressions over chart coordinates and truncated Taylor-jet
arithmetic.

An expression is parsed once against a declared coordinate list (its tree is
cached by both, failed parses aside) and can then be evaluated as jets
(tests/fd_oracle.py keeps a plain numeric evaluator as an independent
oracle): truncated multivariate Taylor expansions

    coeffs[alpha] = (d^alpha f / alpha!)(center),   |alpha| <= order,

which carry exact partial derivatives (to floating-point rounding) of the
field at a point.  All higher geometry is built on these jets, so there is no
finite differencing anywhere in the main computation path.

A jet's order is its :class:`JetSpace`: every operation of a space works to
that space's order, :meth:`JetSpace.grad` returns all first partials as jets
of :attr:`JetSpace.lower` in one gather, and :meth:`JetSpace.restrict`
truncates a jet to a lower space.  Truncation is a slice because the
coefficients are listed by degree, so the order-k coefficients are a prefix
of the order-(k+1) ones.

Evaluation is vectorized: most helpers accept coefficient arrays of shape
``batch + (ncoeffs,)`` and broadcast over the leading axes.  A product is
one gather of the pair operands of :attr:`JetSpace.pair_table` and one dense
0/1 scatter matmul; an output row that is not finite is summed again by
target, so an inf or NaN product reaches no other coefficient.  Every
contraction is a jet matrix product (:meth:`JetSpace.matmul`): the same
gather, one batched matmul with the pair axis in the batch, and the same
scatter.  An operand whose derivative part is all zero (an order-0 jet, a
flat ambient's metric, a literal factor) is a constant: both multiply by its
values instead, with no pair table.  A function of one argument composes its
series by Horner's loop of products, or, when the argument's derivative part
is one coordinate x_i, writes it into the x_i^k coefficients, as the loop would.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence

import numpy as np

FUNCTIONS = ("exp", "ln", "sqrt", "sin", "cos")

# Deepest expression tree, and deepest nesting of parentheses, calls and
# unary minus, that parse_expr accepts: parsing and both evaluators recurse
# once per level (parsing five frames per parenthesis), so this keeps every
# accepted expression well inside Python's recursion limit.
MAX_DEPTH = 100


class ExprError(ValueError):
    """Base class for expression parse/evaluation failures."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ExprSyntaxError(ExprError):
    pass


class UnknownIdentifierError(ExprError):
    def __init__(self, name: str, position: int | None = None):
        self.name = name
        super().__init__(f"unknown identifier '{name}'", position)


class JetDomainError(ArithmeticError):
    """Arithmetic left the domain of a jet primitive (pole, ln/sqrt of a
    non-positive constant term).  Carries the offending sample point when the
    evaluation was given its points."""

    def __init__(self, message: str, point: tuple[float, ...] | None = None):
        self.point = point
        if point is not None:
            message = f"{message} at point {point}"
        super().__init__(message)


# --------------------------------------------------------------------------
# expression trees
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Neg:
    arg: "ScalarExpr"


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: "ScalarExpr"
    right: "ScalarExpr"


@dataclass(frozen=True)
class Pow:
    base: "ScalarExpr"
    exponent: float  # constant exponents only


@dataclass(frozen=True)
class Call:
    func: str  # one of FUNCTIONS
    arg: "ScalarExpr"


ScalarExpr = Num | Var | Neg | BinOp | Pow | Call


class _Tokenizer:
    def __init__(self, source: str):
        self.source = source
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.source) and self.source[self.pos].isspace():
            self.pos += 1

    def peek(self) -> tuple[str, str, int]:
        """Returns (kind, text, position) without consuming."""
        self._skip_ws()
        if self.pos >= len(self.source):
            return ("end", "", self.pos)
        start = self.pos
        ch = self.source[start]
        if ch.isdigit() or ch == ".":
            j = start
            seen_dot = False
            while j < len(self.source) and (self.source[j].isdigit() or (self.source[j] == "." and not seen_dot)):
                if self.source[j] == ".":
                    seen_dot = True
                j += 1
            if j < len(self.source) and self.source[j] in "eE":
                k = j + 1
                if k < len(self.source) and self.source[k] in "+-":
                    k += 1
                if k < len(self.source) and self.source[k].isdigit():
                    while k < len(self.source) and self.source[k].isdigit():
                        k += 1
                    j = k
            return ("number", self.source[start:j], start)
        if ch.isalpha() or ch == "_":
            j = start
            while j < len(self.source) and (self.source[j].isalnum() or self.source[j] == "_"):
                j += 1
            return ("ident", self.source[start:j], start)
        if ch in "+-*/^()":
            return ("op", ch, start)
        raise ExprSyntaxError(f"unexpected character {ch!r}", start)

    def take(self) -> tuple[str, str, int]:
        kind, text, pos = self.peek()
        self.pos = pos + len(text) if kind != "end" else pos
        return kind, text, pos


def _bounded(node: ScalarExpr, depth: int, pos: int) -> tuple[ScalarExpr, int]:
    if depth > MAX_DEPTH:
        raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", pos)
    return node, depth


def _number(text: str, pos: int) -> float:
    """The finite value of a number token; a token that is no number
    (".", "²") or overflows ("1e400") is a syntax error at the token."""
    try:
        value = float(text)
    except ValueError:
        raise ExprSyntaxError(f"malformed number {text!r}", pos) from None
    if not math.isfinite(value):
        raise ExprSyntaxError(f"number {text} is not finite", pos)
    return value


class _Parser:
    """Recursive descent for the grammar

        expr   := term (("+"|"-") term)*
        term   := factor (("*"|"/") factor)*
        factor := "-" factor | power
        power  := base ("^" signed-number)?
        base   := number | ident | "(" expr ")" | func "(" expr ")"

    Precedence is pow > unary minus > mul/div > add/sub, so "-x^2" means
    -(x^2).  Exponents must be numeric constants.  Each rule returns its
    node with the node's tree depth; a tree deeper than MAX_DEPTH, or input
    nested deeper than that, is a syntax error.
    """

    def __init__(self, source: str, coords: Sequence[str]):
        self.tok = _Tokenizer(source)
        self.coords = {name: i for i, name in enumerate(coords)}
        self.nesting = 0

    def parse(self) -> ScalarExpr:
        node, _ = self.expr()
        kind, text, pos = self.tok.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing token {text!r}", pos)
        return node

    def _nested(self, rule, pos: int) -> tuple[ScalarExpr, int]:
        # rule() one level down (parenthesis, call, unary minus), refused before the descent can exhaust the stack
        self.nesting += 1
        _bounded(None, self.nesting, pos)
        out = rule()
        self.nesting -= 1
        return out

    def expr(self) -> tuple[ScalarExpr, int]:
        node, depth = self.term()
        while True:
            kind, text, pos = self.tok.peek()
            if kind == "op" and text in "+-":
                self.tok.take()
                right, rdepth = self.term()
                node, depth = _bounded(BinOp(text, node, right), 1 + max(depth, rdepth), pos)
            else:
                return node, depth

    def term(self) -> tuple[ScalarExpr, int]:
        node, depth = self.factor()
        while True:
            kind, text, pos = self.tok.peek()
            if kind == "op" and text in "*/":
                self.tok.take()
                right, rdepth = self.factor()
                node, depth = _bounded(BinOp(text, node, right), 1 + max(depth, rdepth), pos)
            else:
                return node, depth

    def factor(self) -> tuple[ScalarExpr, int]:
        kind, text, pos = self.tok.peek()
        if kind == "op" and text == "-":
            self.tok.take()
            arg, depth = self._nested(self.factor, pos)
            return _bounded(Neg(arg), depth + 1, pos)
        return self.power()

    def power(self) -> tuple[ScalarExpr, int]:
        node, depth = self.base()
        kind, text, pos = self.tok.peek()
        if kind == "op" and text == "^":
            self.tok.take()
            node, depth = _bounded(Pow(node, self._exponent()), depth + 1, pos)
        return node, depth

    def _exponent(self) -> float:
        sign = 1.0
        kind, text, pos = self.tok.take()
        if kind == "op" and text == "-":
            sign = -1.0
            kind, text, pos = self.tok.take()
        if kind != "number":
            raise ExprSyntaxError("exponent must be a numeric constant", pos)
        return sign * _number(text, pos)

    def base(self) -> tuple[ScalarExpr, int]:
        kind, text, pos = self.tok.take()
        if kind == "number":
            return Num(_number(text, pos)), 1
        if kind == "ident":
            nk, nt, _ = self.tok.peek()
            if nk == "op" and nt == "(":
                if text not in FUNCTIONS:
                    raise UnknownIdentifierError(text, pos)
                self.tok.take()
                arg, depth = self._nested(self.expr, pos)
                self._expect(")")
                return _bounded(Call(text, arg), depth + 1, pos)
            if text not in self.coords:
                raise UnknownIdentifierError(text, pos)
            return Var(self.coords[text]), 1
        if kind == "op" and text == "(":
            out = self._nested(self.expr, pos)
            self._expect(")")
            return out
        raise ExprSyntaxError(f"expected a value, got {text!r}" if text else "unexpected end of input", pos)

    def _expect(self, op: str):
        kind, text, pos = self.tok.take()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)


def parse_expr(source: str, coords: Sequence[str], field: str | None = None) -> ScalarExpr:
    """Parse ``source`` against the declared coordinate names; a syntax error
    names ``field``, the entry that holds ``source``, when it is given."""
    try:
        return _parse(source, tuple(coords))
    except ExprError as e:
        if field:
            e.args = (f"{field}: {e}",)
        raise


@cache
def _parse(source: str, coords: tuple[str, ...]) -> ScalarExpr:
    """The tree of ``source`` over ``coords``, built once: trees are frozen, and a failed parse is not stored."""
    return _Parser(source, coords).parse()


# --------------------------------------------------------------------------
# jet spaces
# --------------------------------------------------------------------------


def _multi_indices(dim: int, order: int) -> list[tuple[int, ...]]:
    """Multi-indices of degree <= order, by degree, each degree in lexicographic order: the exponents of
    the degree-deg monomials, one per multiset of deg coordinates."""
    return [a for deg in range(order + 1)
            for a in sorted(tuple(c.count(i) for i in range(dim))
                            for c in itertools.combinations_with_replacement(range(dim), deg))]


class JetSpace:
    """Coefficient layout and arithmetic tables for jets of a fixed
    (dimension, order).  Instances are cached; use :meth:`get`."""

    def __init__(self, dim: int, order: int):
        self.dim = dim
        self.order = order
        self.indices = _multi_indices(dim, order)
        self.ncoeffs = len(self.indices)
        self.index_of = {alpha: i for i, alpha in enumerate(self.indices)}

    @classmethod
    @cache
    def get(cls, dim: int, order: int) -> "JetSpace":
        return cls(dim, order)

    # -- tables ------------------------------------------------------------

    @cached_property
    def pair_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(I, J, T) index triples with deg(I) + deg(J) <= order and
        indices[T] = indices[I] + indices[J], ordered by I, then J: the
        nonzero entries of the degree-sum mask, with T looked up on the summed
        exponents, so no Python loop runs over all ncoeffs^2 pairs."""
        alpha = np.array(self.indices)
        deg = alpha.sum(axis=1)
        I, J = np.nonzero(deg[:, None] + deg[None, :] <= self.order)
        return I, J, np.array([self.index_of[tuple(a)] for a in (alpha[I] + alpha[J]).tolist()])

    def mul_table(self, order: int):
        """:attr:`pair_table` named by its order, the space's own (perfbench's tracer reads it)."""
        if order != self.order:
            raise ValueError(f"a JetSpace of order {self.order} has no order-{order} pair table")
        return self.pair_table

    @cached_property
    def grad_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(SRC, FAC), each (dim, lower.ncoeffs): coefficient b of d/dx_i is
        FAC[i, b] * A[SRC[i, b]], the coefficient of b + e_i times (b_i + 1)."""
        low = self.lower.indices
        src = [[self.index_of[b[:i] + (b[i] + 1,) + b[i + 1:]] for b in low] for i in range(self.dim)]
        return np.array(src), np.array([[b[i] + 1 for b in low] for i in range(self.dim)], dtype=float)

    # -- constructors --------------------------------------------------------

    def constant(self, value, batch_shape: tuple[int, ...] = ()) -> np.ndarray:
        out = np.zeros(batch_shape + (self.ncoeffs,))
        out[..., 0] = value
        return out

    def coordinate(self, i: int, value) -> np.ndarray:
        out = self.constant(value, np.shape(value))
        if self.order >= 1:
            out[..., self.index_of[tuple(int(k == i) for k in range(self.dim))]] = 1.0
        return out

    def point_jets(self, points: np.ndarray) -> list[np.ndarray]:
        """Coordinate jets at a batch of points; points has shape (..., dim)."""
        points = np.asarray(points, dtype=float)
        return [self.coordinate(i, points[..., i]) for i in range(self.dim)]

    # -- arithmetic ----------------------------------------------------------

    @property
    def lower(self) -> "JetSpace":
        """The space one order down, where derivatives of this space's jets live."""
        if self.order == 0:
            raise ValueError("an order-0 jet has no derivative")
        return JetSpace.get(self.dim, self.order - 1)

    def restrict(self, A: np.ndarray) -> np.ndarray:
        """A jet of a higher-order space, truncated to this one."""
        return A[..., :self.ncoeffs]

    def mul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Truncated product of jet coefficient arrays, broadcasting over
        leading axes: one gather of the pair operands, one dense scatter
        matmul.  A constant operand (derivative part all zero; a NaN or inf
        there is not) multiplies by its values instead, so it never spreads
        0 * inf = NaN into coefficients whose exact value is finite."""
        if _is_constant(A):
            return A[..., :1] * B
        if _is_constant(B):
            return A * B[..., :1]
        I, J, _ = self.pair_table
        return self._scatter(A[..., I] * B[..., J])

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Jet matrix product (..., r, k, m) x (..., k, c, m) -> (..., r, c, m),
        broadcasting over leading axes: the pair operands are gathered, one
        batched matmul forms every pair's (r x k) @ (k x c) with the pair axis
        in the batch, and the products are scattered once.  The pair axis is
        moved by swapaxes views.  A constant operand, as in :meth:`mul`, takes
        one matmul of its values, the other operand's coefficients folded
        into its columns or rows, and spreads no 0 * inf = NaN either."""
        if _is_constant(A):
            ab = A[..., 0] @ B.reshape(B.shape[:-2] + (-1,))
            return ab.reshape(ab.shape[:-1] + B.shape[-2:])
        if _is_constant(B):
            ab = A.swapaxes(-1, -2).reshape(A.shape[:-3] + (-1, A.shape[-2])) @ B[..., 0]
            return ab.reshape(ab.shape[:-2] + (A.shape[-3], A.shape[-1], -1)).swapaxes(-1, -2)
        I, J, _ = self.pair_table
        ab = A[..., I].swapaxes(-1, -3).swapaxes(-1, -2) @ B[..., J].swapaxes(-1, -3).swapaxes(-1, -2)
        return self._scatter(ab.swapaxes(-3, -1).swapaxes(-3, -2))     # (..., pairs, r, c) -> (..., r, c, pairs)

    @cached_property
    def scatter_matrix(self) -> np.ndarray:
        """Dense 0/1 (pairs x ncoeffs) matrix; row k has its one 1 at the
        coefficient that pair k of :attr:`pair_table` adds into."""
        return (self.pair_table[2][:, None] == np.arange(self.ncoeffs)).astype(float)

    def _scatter(self, pairs: np.ndarray) -> np.ndarray:
        """Pair products summed into their coefficients by one matmul over the flattened batch.
        The matmul multiplies each product by the zeros of its row of the matrix too, and
        0 * inf = NaN, so when one sum of the output is not finite, the output rows that are not
        finite are summed again by target; every finite row keeps the matmul's bits."""
        flat = pairs.reshape(-1, pairs.shape[-1])
        out = flat @ self.scatter_matrix
        if not math.isfinite(np.add.reduce(out, axis=None)):
            rows = np.flatnonzero(~np.isfinite(out).all(axis=1))
            sums = np.zeros((self.ncoeffs, len(rows)))
            np.add.at(sums, self.pair_table[2], flat[rows].T)
            out[rows] = sums.T
        return out.reshape(pairs.shape[:-1] + (self.ncoeffs,))

    def grad(self, A: np.ndarray) -> np.ndarray:
        """Every first partial d/dx_i of A, jets of :attr:`lower`, by one
        gather of :attr:`grad_table`: shape (P, ...) + (ncoeffs,) ->
        (P, dim, ...) + (lower.ncoeffs,), the derivative axis at position 1."""
        src, fac = self.grad_table
        return _moveaxis(A[..., src] * fac, -2, 1)

    def gradient_values(self, A: np.ndarray) -> np.ndarray:
        """First partials at the center, shape batch + (dim,)."""
        return A[..., [self.index_of[tuple(int(k == i) for k in range(self.dim))] for i in range(self.dim)]]

    # -- analytic primitives ---------------------------------------------------

    def _compose(self, series: np.ndarray, A: np.ndarray) -> np.ndarray:
        """sum_k series[..., k] * (A - A0)^k by Horner's loop; or, when A - A0 is exactly one coordinate
        monomial x_i at every batch element, where each product and sum of that loop is exact (a factor
        1.0 or 0, one nonzero addend), by writing series[..., k] into the x_i^k coefficients."""
        H = A.copy()
        H[..., 0] = 0.0
        e = H.reshape(-1)[:self.ncoeffs]                       # the first batch element's A - A0
        c = np.flatnonzero(e)
        if len(c) == 1 and c[0] <= self.dim and e[c[0]] == 1.0 and not np.logical_or.reduce(H != e, axis=None):
            out = np.zeros(A.shape)
            out[..., [self.index_of[tuple(k * a for a in self.indices[c[0]])] for k in range(self.order + 1)]] = series
            return out
        out = self.constant(series[..., self.order], batch_shape=A.shape[:-1])
        for k in range(self.order - 1, -1, -1):
            out = self.mul(out, H)
            out[..., 0] += series[..., k]
        return out

    def reciprocal(self, A: np.ndarray, points=None) -> np.ndarray:
        a0 = A[..., 0]
        bad = a0 == 0
        if bad.any():
            raise JetDomainError("division by a jet with zero constant term", _locate(bad, points))
        ks = np.arange(self.order + 1)
        series = (-1.0) ** ks * a0[..., None] ** (-(ks + 1))
        return self._compose(series, A)

    def ln(self, A: np.ndarray, points=None) -> np.ndarray:
        a0 = A[..., 0]
        _check_positive(a0, "ln", points)
        series = np.empty(a0.shape + (self.order + 1,))
        series[..., 0] = np.log(a0)
        for k in range(1, self.order + 1):
            series[..., k] = (-1.0) ** (k - 1) / (k * a0**k)
        return self._compose(series, A)

    def exp(self, A: np.ndarray, points=None) -> np.ndarray:
        a0 = A[..., 0]
        ks = np.arange(self.order + 1)
        series = np.exp(a0)[..., None] / np.array([math.factorial(k) for k in ks])
        return self._compose(series, A)

    def sqrt(self, A: np.ndarray, points=None) -> np.ndarray:
        return self.power(A, 0.5, points, what="sqrt")

    def sin(self, A: np.ndarray, points=None) -> np.ndarray:
        return self._trig(A, np.sin)

    def cos(self, A: np.ndarray, points=None) -> np.ndarray:
        return self._trig(A, np.cos)

    def _trig(self, A, fn):
        a0 = A[..., 0]
        series = np.empty(a0.shape + (self.order + 1,))
        for k in range(self.order + 1):
            series[..., k] = fn(a0 + k * np.pi / 2) / math.factorial(k)
        return self._compose(series, A)

    def power(self, A: np.ndarray, exponent: float, points=None, what: str | None = None) -> np.ndarray:
        if float(exponent).is_integer():
            p = int(exponent)
            if p >= 0:
                out = self.constant(1.0, A.shape[:-1])
                base = A
                while p:
                    if p & 1:
                        out = self.mul(out, base)
                    p >>= 1
                    if p:
                        base = self.mul(base, base)
                return out
            return self.reciprocal(self.power(A, -p), points)
        a0 = A[..., 0]
        _check_positive(a0, what or f"non-integer power {exponent}", points)
        series = np.empty(a0.shape + (self.order + 1,))
        coef = 1.0
        for k in range(self.order + 1):
            series[..., k] = coef * a0 ** (exponent - k)
            coef *= (exponent - k) / (k + 1)
        return self._compose(series, A)


@cache
def _axis_order(ndim: int, source, destination) -> tuple[int, ...]:
    """The axis order np.moveaxis(x, source, destination) transposes an x of ``ndim`` axes by:
    the moved shape of an empty array whose axis lengths are their own indices."""
    return np.moveaxis(np.empty(tuple(range(ndim))), source, destination).shape


def _moveaxis(x: np.ndarray, source, destination) -> np.ndarray:
    """np.moveaxis(x, source, destination), the same view, as one transpose by the cached
    :func:`_axis_order`, without numpy's per-call axis normalization."""
    return x.transpose(_axis_order(x.ndim, source, destination))


def _is_constant(A: np.ndarray) -> bool:
    """Whether every derivative coefficient of the jets in A is zero (+-0.0; a NaN or inf is not):
    ``not A[..., 1:].any()``, by the ufunc's own reduce, without ndarray.any's Python wrapper."""
    return not np.logical_or.reduce(A[..., 1:], axis=None)


def _check_positive(a0: np.ndarray, what: str, points: np.ndarray | None):
    bad = ~(a0 > 0)
    if bad.any():
        raise JetDomainError(f"{what} of non-positive constant term", _locate(bad, points))


def _locate(bad_mask: np.ndarray, points: np.ndarray | None):
    if points is None:
        return None
    hits = np.argwhere(np.atleast_1d(bad_mask))
    if len(hits) == 0:
        return None
    points = np.asarray(points)
    row = int(hits[0][0])
    if points.ndim == 1:
        return tuple(float(c) for c in points)
    return tuple(float(c) for c in points[row % points.shape[0]])


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------


def eval_expr(expr: ScalarExpr, space: JetSpace, coord_jets: Sequence[np.ndarray],
              points: np.ndarray | None = None) -> np.ndarray:
    """Evaluate an expression tree on jet-valued coordinates.

    ``coord_jets`` may be the chart coordinate jets from
    :meth:`JetSpace.point_jets` or arbitrary jets (used when composing a field
    through an embedding).  Returns a coefficient array shaped like the
    inputs.
    """
    batch = np.broadcast_shapes(*(cj.shape[:-1] for cj in coord_jets)) if coord_jets else ()

    def rec(node) -> np.ndarray:
        if isinstance(node, Num):
            return space.constant(node.value, batch)
        if isinstance(node, Var):
            return np.broadcast_to(coord_jets[node.index], batch + (space.ncoeffs,)).copy()
        if isinstance(node, Neg):
            return -rec(node.arg)
        if isinstance(node, BinOp):
            a = rec(node.left)
            b = rec(node.right)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return space.mul(a, b)
            return space.mul(a, space.reciprocal(b, points))
        if isinstance(node, Pow):
            return space.power(rec(node.base), node.exponent, points)
        if isinstance(node, Call):
            return getattr(space, node.func)(rec(node.arg), points)
        raise TypeError(f"unknown node {node!r}")

    return rec(expr)
