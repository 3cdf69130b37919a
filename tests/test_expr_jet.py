"""Parser and jet-arithmetic tests, with finite differences and exact
polynomial expansion as the independent oracles."""

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paracheck.expr_jet import (
    BinOp,
    Call,
    ExprSyntaxError,
    JetDomainError,
    JetSpace,
    MAX_DEPTH,
    Num,
    UnknownIdentifierError,
    Var,
    _is_constant,
    _moveaxis,
    eval_expr,
    parse_expr,
)
from paracheck.models import _eval_grid
from paracheck.tensor_algebra import invert_jet_matrix

from fd_oracle import eval_expr_numeric, fd_partial


def _jet(expr, point, order):
    """The order-``order`` jet of ``expr`` at ``point``: its space and its
    coefficients (in one variable, coefficient k is the degree-k one)."""
    pts = np.array([point], dtype=float)
    space = JetSpace.get(pts.shape[1], order)
    return space, eval_expr(expr, space, space.point_jets(pts), points=pts)[0]


class TestParser:
    def test_nested_division(self):
        tree = parse_expr("1/(y*y)", ["x", "y"])
        assert isinstance(tree, BinOp) and tree.op == "/"
        assert tree.left == Num(1.0)
        assert tree.right == BinOp("*", Var(1), Var(1))

    def test_sum_of_product_and_call(self):
        tree = parse_expr("x*y + sin(x)", ["x", "y"])
        assert isinstance(tree, BinOp) and tree.op == "+"
        assert tree.left == BinOp("*", Var(0), Var(1))
        assert tree.right == Call("sin", Var(0))

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as exc:
            parse_expr("x*z", ["x", "y"])
        assert exc.value.name == "z"
        assert exc.value.position == 2

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr("x + * y", ["x", "y"])
        assert exc.value.position is not None

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("(x + y", ["x", "y"])

    def test_power_binds_tighter_than_unary_minus(self):
        assert eval_expr_numeric(parse_expr("-x^2", ["x"]), [3.0]) == -9.0

    def test_constant_exponent_only(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("x^y", ["x", "y"])

    def test_negative_exponent(self):
        assert eval_expr_numeric(parse_expr("y^-2", ["y"]), [2.0]) == 0.25

    def test_whitespace_insignificant(self):
        a = parse_expr("x * y+ sin( x )", ["x", "y"])
        b = parse_expr("x*y+sin(x)", ["x", "y"])
        assert a == b

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifierError):
            parse_expr("tan(x)", ["x"])

    @pytest.mark.parametrize("source,position,message", [
        (".", 0, "malformed number '.'"),
        ("x^.", 2, "malformed number '.'"),
        ("²", 0, "malformed number '²'"),
        ("1 + x*²", 6, "malformed number '²'"),
        ("1e400", 0, "number 1e400 is not finite"),
        ("x^1e400", 2, "number 1e400 is not finite"),
        ("x^-1e400", 3, "number 1e400 is not finite"),
    ])
    def test_number_token_that_is_no_finite_number_is_syntax_error(self, source, position, message):
        """A token the tokenizer reads as a number but float() refuses, or
        one that overflows, is a syntax error at that token, in a value
        and in an exponent alike."""
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr(source, ["x"], "phi[0]")
        assert exc.value.position == position
        assert str(exc.value) == f"phi[0]: {message} (at position {position})"

    @pytest.mark.parametrize("source", [
        "1/(y^2)" + "+0*x" * 1500,           # a flat sum: parsed in a loop, a 1500-deep tree
        "(" * 3000 + "x" + ")" * 3000,
        "-" * 3000 + "x",
        "sin(" * 3000 + "x" + ")" * 3000,
    ])
    def test_over_deep_expression_is_syntax_error(self, source):
        with pytest.raises(ExprSyntaxError, match=f"nests deeper than {MAX_DEPTH} levels"):
            parse_expr(source, ["x", "y"])

    def test_expressions_at_the_depth_bound_evaluate(self):
        """A sum of MAX_DEPTH terms, MAX_DEPTH nested parentheses and a
        MAX_DEPTH-deep chain of unary minuses parse and evaluate, numerically
        and as jets; one level more is refused."""
        space = JetSpace.get(1, 2)
        for make, value in (
            (lambda d: "+".join(["x"] * d), 0.5 * MAX_DEPTH),
            (lambda d: "(" * d + "x" + ")" * d, 0.5),
            (lambda d: "-" * (d - 1) + "x", 0.5 * (-1) ** (MAX_DEPTH - 1)),
        ):
            tree = parse_expr(make(MAX_DEPTH), ["x"])
            assert eval_expr_numeric(tree, [0.5]) == value
            assert eval_expr(tree, space, space.point_jets(np.array([0.5])))[0] == value
            with pytest.raises(ExprSyntaxError):
                parse_expr(make(MAX_DEPTH + 1), ["x"])


class TestJetEval:
    def test_inverse_square_against_finite_differences(self):
        # frozen from the central-difference oracle on y^-2 at y = 2
        f = lambda x: 1.0 / (x[0] * x[0])
        d1 = fd_partial(f, [2.0], 0, 1e-4)
        d2 = fd_partial(lambda x: fd_partial(f, x, 0, 1e-4), [2.0], 0, 1e-3)
        _, j = _jet(parse_expr("1/(y*y)", ["y"]), (2.0,), 2)
        assert j[0] == pytest.approx(0.25, abs=1e-12)
        assert j[1] == pytest.approx(d1, abs=1e-6)
        assert j[2] == pytest.approx(d2 / 2.0, abs=1e-6)
        assert tuple(j) == pytest.approx((0.25, -0.25, 0.1875))

    def test_bilinear(self):
        space, j = _jet(parse_expr("x*y", ["x", "y"]), (2.0, 3.0), 2)
        assert j[0] == 6.0
        assert list(space.gradient_values(j)) == [3.0, 2.0]
        assert j[space.index_of[(1, 1)]] == 1.0
        assert j[space.index_of[(2, 0)]] == 0.0
        assert j[space.index_of[(0, 2)]] == 0.0

    def test_pole_is_domain_error(self):
        with pytest.raises(JetDomainError):
            _jet(parse_expr("1/(y-1)", ["y"]), (1.0,), 2)

    def test_ln_of_nonpositive(self):
        with pytest.raises(JetDomainError):
            _jet(parse_expr("ln(x)", ["x"]), (-1.0,), 2)

    def test_sqrt_of_nonpositive(self):
        with pytest.raises(JetDomainError):
            _jet(parse_expr("sqrt(x)", ["x"]), (0.0,), 2)

    def test_domain_error_carries_point(self):
        with pytest.raises(JetDomainError) as exc:
            _jet(parse_expr("1/y", ["x", "y"]), (3.0, 0.0), 2)
        assert exc.value.point == (3.0, 0.0)

    def test_numeric_evaluator_domain_errors_match_jets(self):
        """A pole of a negative power and a fractional power of a negative
        value are domain errors for the numeric evaluator, as for jets."""
        for src, x in (("x^-1", 0.0), ("(x-3)^0.5", 1.0)):
            expr = parse_expr(src, ["x"])
            with pytest.raises(JetDomainError):
                eval_expr_numeric(expr, (x,))
            with pytest.raises(JetDomainError):
                _jet(expr, (x,), 1)

    def test_transcendental_derivatives_against_finite_differences(self):
        src = "exp(sin(x))*sqrt(y) + ln(y)*cos(x)"
        coords = ["x", "y"]
        pt = (0.7, 2.0)
        f = lambda x: eval_expr_numeric(parse_expr(src, coords), x)
        space, j = _jet(parse_expr(src, coords), pt, 3)
        for i in range(2):
            assert space.gradient_values(j)[i] == pytest.approx(fd_partial(f, list(pt), i, 1e-5), rel=1e-6)

    def test_derivative_accessor_scales_by_factorial(self):
        _, j = _jet(parse_expr("x^3", ["x"]), (2.0,), 3)
        assert j[3] * math.factorial(3) == pytest.approx(6.0)
        assert j[3] == pytest.approx(1.0)

    def test_jet_operator_overloads(self):
        space, a = _jet(parse_expr("x^2", ["x"]), (1.5,), 3)
        _, b = _jet(parse_expr("sin(x)", ["x"]), (1.5,), 3)
        c = space.mul(a, b) + space.constant(2.0)
        _, d = _jet(parse_expr("x^2*sin(x) + 2", ["x"]), (1.5,), 3)
        assert np.allclose(c, d)
        q = space.mul(a, space.reciprocal(b))
        _, r = _jet(parse_expr("x^2/sin(x)", ["x"]), (1.5,), 3)
        assert np.allclose(q, r, atol=1e-12)


# -- property tests ---------------------------------------------------------


def _poly_exprs(coords, max_deg):
    """Random polynomial as (expression string, {multi-index: coeff})."""
    scalars = st.integers(min_value=-4, max_value=4)

    def term(alpha):
        parts = []
        for name, a in zip(coords, alpha):
            parts.extend([name] * a)
        return "*".join(parts) if parts else "1"

    alphas = []

    def gen(prefix, rem, budget):
        if rem == 0:
            alphas.append(tuple(prefix))
            return
        for v in range(budget + 1):
            gen(prefix + [v], rem - 1, budget - v)

    gen([], len(coords), max_deg)

    @st.composite
    def poly(draw):
        coeffs = {}
        for alpha in alphas:
            c = draw(scalars)
            if c:
                coeffs[alpha] = float(c)
        if not coeffs:
            coeffs[(0,) * len(coords)] = 1.0
        src = " + ".join(f"{c}*{term(a)}" for a, c in sorted(coeffs.items()))
        return src, coeffs

    return poly()


def _poly_taylor_coeff(coeffs, alpha, point):
    """Exact Taylor coefficient of a polynomial at a point: differentiate
    term by term, divide by alpha!."""
    total = 0.0
    for beta, c in coeffs.items():
        if any(b < a for a, b in zip(alpha, beta)):
            continue
        v = c
        for x0, a, b in zip(point, alpha, beta):
            v *= math.comb(b, a) * x0 ** (b - a)
        total += v
    return total


@settings(max_examples=30, deadline=None)
@given(_poly_exprs(["x", "y"], 4), st.tuples(st.floats(-2, 2), st.floats(-2, 2)))
def test_polynomial_jets_match_exact_expansion(poly, point):
    src, coeffs = poly
    space, j = _jet(parse_expr(src, ["x", "y"]), point, 4)
    scale = max(1.0, max(abs(c) for c in coeffs.values())) * max(1.0, max(abs(p) for p in point)) ** 4
    for k, alpha in enumerate(space.indices):
        expected = _poly_taylor_coeff(coeffs, alpha, point)
        assert abs(j[k] - expected) <= 1e-12 * scale * 16


# wrappers that keep every argument inside its domain for any real u
_WRAPPERS = ("sqrt(2 + ({u})^2)", "ln(1 + ({u})^2)", "exp(0.1*({u}))", "sin({u})", "cos({u})",
             "(1 + ({u})^2)^-1.5", "(3 + ({u})^2)^0.75", "(1 + ({u})^2)^-2", "1/(2 + cos({u}))")


def _smooth_exprs(coords):
    """Polynomials from :func:`_poly_exprs` under nested analytic wrappers,
    products and sums."""
    leaves = _poly_exprs(coords, 3).map(lambda poly: poly[0])
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(st.sampled_from(_WRAPPERS), inner).map(lambda t: t[0].format(u=t[1])),
            st.tuples(inner, st.sampled_from(["+", "*"]), inner).map(lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
        ),
        max_leaves=4,
    )


@settings(max_examples=40, deadline=None)
@given(_smooth_exprs(["x", "y"]), st.tuples(st.floats(-1, 1), st.floats(-1, 1)))
def test_lower_order_jets_are_restrictions(src, point):
    """A jet's order is its space: at orders 0-3 the order-k jet, and its
    derivative, equal the order-(k+1) ones restricted to that order."""
    expr = parse_expr(src, ["x", "y"])
    pts = np.array([point])

    def jet(order):
        space = JetSpace.get(2, order)
        return space, eval_expr(expr, space, space.point_jets(pts), points=pts)

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))

    for k in range(4):
        (sk, jk), (sk1, jk1) = jet(k), jet(k + 1)
        assert close(jk, sk.restrict(jk1)), k
        if k:
            assert close(sk.grad(jk), sk.lower.restrict(sk1.grad(jk1))), k


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["exp(u)", "sin(u)", "cos(u)", "u*u + 3*u", "1/(u+4)"]),
    st.sampled_from(["x*y + 1", "sin(x) + 2", "x - y + 1.5"]),
    st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
)
def test_chain_rule_composition(f_src, g_src, point):
    """Jet of f(g(x, y)) via univariate jet substitution must equal the jet
    of the textually composed tree."""
    order = 4
    composed = f_src.replace("u", f"({g_src})")
    _, direct = _jet(parse_expr(composed, ["x", "y"]), point, order)
    space, jg = _jet(parse_expr(g_src, ["x", "y"]), point, order)
    _, jf_at = _jet(parse_expr(f_src, ["u"]), (jg[0],), order)
    # substitute: f(g) = sum_k f_k (g - g0)^k
    H = jg.copy()
    H[0] = 0.0
    out = space.constant(jf_at[order])
    for k in range(order - 1, -1, -1):
        out = space.mul(out, H)
        out[0] += jf_at[k]
    assert np.allclose(out, direct, atol=1e-10, rtol=1e-10)


def test_builtin_metric_entries_match_finite_differences(models):
    """First and second jet derivatives of every builtin metric entry agree
    with central differences (steps 1e-4 / 1e-3) within 1e-5 relative."""
    rng = np.random.default_rng(77)
    for name, model in models.items():
        lo = np.array([d[0] for d in model.domain])
        hi = np.array([d[1] for d in model.domain])
        pts = rng.uniform(lo, hi, size=(3, model.dim))
        for src_row in model.metric:
            for src in src_row:
                expr = parse_expr(src, model.coords)
                f = lambda x: eval_expr_numeric(expr, x)
                for pt in pts:
                    space, j = _jet(expr, pt, 2)
                    for i in range(model.dim):
                        fd1 = fd_partial(f, pt, i, 1e-4)
                        assert space.gradient_values(j)[i] == pytest.approx(fd1, rel=1e-5, abs=1e-7)
                        fd2 = fd_partial(lambda x: fd_partial(f, x, i, 1e-4), pt, i, 1e-3)
                        alpha = tuple(2 if k == i else 0 for k in range(model.dim))
                        assert 2 * j[space.index_of[alpha]] == pytest.approx(fd2, rel=1e-5, abs=1e-6)


def test_jet_space_is_cached():
    assert JetSpace.get(3, 4) is JetSpace.get(3, 4)


def test_order_zero_jet():
    space, j = _jet(parse_expr("sin(x)*x", ["x"]), (0.5,), 0)
    assert j[0] == pytest.approx(0.5 * math.sin(0.5))
    assert space.ncoeffs == 1


# --------------------------------------------------------------------------
# the product kernel
# --------------------------------------------------------------------------


def _add_at_product(space, A, B):
    """Reference truncated product: each pair product of the order's table
    added into its target coefficient one at a time, in table order.  Also
    returns 2 (n - 1) eps sum |p| per coefficient, n the most pairs of any
    target: a bound on the gap between two orders of summing the products."""
    I, J, T = space.pair_table
    A, B = np.broadcast_arrays(A, B)
    out, mag = np.zeros(A.shape), np.zeros(A.shape)
    np.add.at(out, (Ellipsis, T), A[..., I] * B[..., J])
    np.add.at(mag, (Ellipsis, T), np.abs(A[..., I] * B[..., J]))
    return out, 2 * max(np.bincount(T).max() - 1, 1) * np.finfo(float).eps * mag


_KERNEL_SHAPES = [((), ()), ((), (4,)), ((7,), (7,)), ((6, 1, 3, 4), (6, 2, 1, 4)), ((5, 1, 3), (1, 4, 3))]


@pytest.mark.parametrize("dim,order", [(3, 1), (3, 3), (3, 4), (5, 3)])
@pytest.mark.parametrize("shape_a,shape_b", _KERNEL_SHAPES)
def test_mul_matches_add_at_reference(dim, order, shape_a, shape_b):
    """The scatter matmul sums the same pair products as np.add.at.  At
    order 1 no target takes more than two of them, so the results are equal
    bit for bit; above, a BLAS matmul may sum in another order, and the two
    agree to the rounding bound of that order."""
    space = JetSpace.get(dim, order)
    rng = np.random.default_rng(dim * 10 + order)
    A = rng.standard_normal(shape_a + (space.ncoeffs,))
    B = rng.standard_normal(shape_b + (space.ncoeffs,))
    ref, bound = _add_at_product(space, A, B)
    got = space.mul(A, B)
    assert got.shape == ref.shape
    if order == 1:
        assert np.array_equal(got, ref)
    else:
        assert np.all(np.abs(got - ref) <= bound)


_MATMUL_SPACES = [(3, 0), (3, 1), (3, 2), (4, 1), (5, 3)]


@pytest.mark.parametrize("dim,order", _MATMUL_SPACES)
@pytest.mark.parametrize("shape_a,shape_b", [
    ((4, 9, 3), (4, 3, 1)),             # contract_with: rank-3 A against a vector
    ((4, 1, 3), (4, 3, 27)),            # contract_with: a covector against a rank-4 B
    ((4, 3, 3), (4, 3, 3)),             # invert_jet_matrix's Newton product
    ((2, 4, 3, 3), (2, 4, 3, 3)),       # the same with two batch axes
    ((4, 3, 4), (4, 4, 4)),             # evaluate_bundle: T @ g~^T
    ((4, 4, 4), (4, 4, 1)),             # evaluate_bundle: g~ N
    ((4, 1, 4), (4, 4, 1)),             # evaluate_bundle: g~(N, N)
    ((2, 1, 3, 4), (1, 5, 4, 2)),       # broadcast batch axes
])
def test_matmul_is_sum_of_products(dim, order, shape_a, shape_b):
    """matmul(A, B) sums the pair products of A's rows and B's columns before
    the scatter; it equals summing the scattered products."""
    space = JetSpace.get(dim, order)
    rng = np.random.default_rng(17)
    A = rng.standard_normal(shape_a + (space.ncoeffs,))
    B = rng.standard_normal(shape_b + (space.ncoeffs,))
    ref = np.sum(space.mul(A[..., :, :, None, :], B[..., None, :, :, :]), axis=-3)
    got = space.matmul(A, B)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim,order", _MATMUL_SPACES)
@pytest.mark.parametrize("n", [1, 3, 4])
def test_invert_jet_matrix_through_full_order(dim, order, n):
    """G X = I in every coefficient of the space, with G X formed by the
    mul-and-sum oracle, not by matmul."""
    space = JetSpace.get(dim, order)
    rng = np.random.default_rng(dim * 10 + order + n)
    G = 0.3 * rng.standard_normal((5, n, n, space.ncoeffs))
    G[..., 0] += 2 * np.eye(n)
    X = invert_jet_matrix(space, G)
    GX = np.sum(space.mul(G[..., :, :, None, :], X[..., None, :, :, :]), axis=-3)
    eye = np.zeros((n, n, space.ncoeffs))
    eye[..., 0] = np.eye(n)
    assert np.max(np.abs(GX - eye)) < 1e-12


@pytest.mark.parametrize("dim,order", [(3, 1), (3, 4), (5, 3)])
def test_scatter_matrix_rows_hold_one_one(dim, order):
    space = JetSpace.get(dim, order)
    S = space.scatter_matrix
    I, J, T = space.pair_table
    assert S.shape == (len(I), space.ncoeffs)
    assert set(np.unique(S)) == {0.0, 1.0}
    assert np.array_equal(S.sum(axis=1), np.ones(len(I)))
    assert np.array_equal(np.argmax(S, axis=1), T)
    assert space.scatter_matrix is S


@pytest.mark.parametrize("dim,order", [(1, 0), (3, 1), (3, 4), (5, 3)])
def test_pair_table_at_space_order(dim, order):
    """The pair table lists the pairs whose degrees sum to at most the
    space's order: comb(2 dim + order, order) of them.  ``mul_table`` names
    the same table at that order and has none at another."""
    space = JetSpace.get(dim, order)
    I, J, T = space.pair_table
    deg = np.array([sum(a) for a in space.indices])
    assert np.all(deg[I] + deg[J] <= order)
    assert np.array_equal(deg[T], deg[I] + deg[J])
    assert len(I) == math.comb(2 * dim + order, order)
    assert space.mul_table(order) is space.pair_table
    with pytest.raises(ValueError):
        space.mul_table(order + 1)


def _enumerated_indices(dim, order):
    """Reference multi-indices: every tuple of entries 0..deg, kept when it sums to deg."""
    return [a for deg in range(order + 1) for a in itertools.product(range(deg + 1), repeat=dim) if sum(a) == deg]


def _looped_pair_table(space):
    """Reference pair table: the double loop over every pair of coefficients."""
    I, J, T = [], [], []
    for i, a in enumerate(space.indices):
        for j, b in enumerate(space.indices):
            if sum(a) + sum(b) <= space.order:
                I.append(i)
                J.append(j)
                T.append(space.index_of[tuple(x + y for x, y in zip(a, b))])
    return np.array(I), np.array(J), np.array(T)


@pytest.mark.parametrize("dim", range(1, 8))
def test_tables_match_the_enumerations(dim):
    """The multi-indices and the pair table are entry for entry, and dtype
    for dtype, those of the exhaustive enumeration and the double loop."""
    for order in range(6):
        space = JetSpace(dim, order)
        assert space.indices == _enumerated_indices(dim, order)
        for got, want in zip(space.pair_table, _looped_pair_table(space)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def test_large_space_tables():
    """A 12-dimensional order-3 space has comb(15, 3) coefficients and
    comb(27, 3) pairs, built without walking (order + 1)^dim tuples."""
    space = JetSpace(12, 3)
    assert space.ncoeffs == math.comb(15, 3) == 455
    assert len(space.pair_table[0]) == math.comb(27, 3) == 2925


# --------------------------------------------------------------------------
# gradients and the order-0 products
# --------------------------------------------------------------------------


def _partial(space, A, i):
    """d/dx_i coefficient by coefficient: the jet of ``space.lower`` whose
    coefficient alpha - e_i is alpha_i times A's coefficient alpha."""
    low = space.lower
    out = np.zeros(A.shape[:-1] + (low.ncoeffs,))
    for k, alpha in enumerate(space.indices):
        if alpha[i]:
            out[..., low.index_of[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]]] = A[..., k] * alpha[i]
    return out


@pytest.mark.parametrize("dim,order", [(1, 1), (2, 3), (3, 1), (3, 4), (5, 2), (5, 4)])
@pytest.mark.parametrize("lead", [(4,), (4, 3), (2, 3, 5)])
def test_grad_is_the_stacked_partials(dim, order, lead):
    """grad gives every first partial, the derivative axis at position 1,
    equal bit for bit to the per-coordinate derivatives stacked there."""
    space = JetSpace.get(dim, order)
    A = np.random.default_rng(dim * 10 + order).standard_normal(lead + (space.ncoeffs,))
    want = np.stack([_partial(space, A, i) for i in range(dim)], axis=1)
    got = space.grad(A)
    assert got.shape == lead[:1] + (dim,) + lead[1:] + (space.lower.ncoeffs,)
    assert np.array_equal(got, want)


def test_grad_of_an_order_zero_jet_is_refused():
    with pytest.raises(ValueError, match="no derivative"):
        JetSpace.get(3, 0).grad(np.ones((2, 1)))


def _pair_route(space, A, B, matrix, by_target=False):
    """The pair-table product at any order: gather the pair operands, form
    their products (batched matmuls over the moved pair axis for a matrix
    product), and scatter them with the 0/1 matrix, or, ``by_target``, add
    each product into its own coefficient in pair order."""
    I, J, T = space.pair_table
    if matrix:
        prods = np.moveaxis(np.moveaxis(A[..., I], -1, -3) @ np.moveaxis(B[..., J], -1, -3), -3, -1)
    else:
        prods = A[..., I] * B[..., J]
    if by_target:
        out = np.zeros(prods.shape[:-1] + (space.ncoeffs,))
        np.add.at(out, (..., T), prods)
        return out
    return (prods.reshape(-1, len(I)) @ space.scatter_matrix).reshape(prods.shape[:-1] + (space.ncoeffs,))


def _with_zeros(rng, shape):
    """Normal draws with some entries set to +0.0 and some to -0.0."""
    X = rng.standard_normal(shape)
    X[rng.random(shape) < 0.2] = 0.0
    X[rng.random(shape) < 0.1] = -0.0
    return X


@pytest.mark.parametrize("dim", [1, 3, 5])
@pytest.mark.parametrize("shape_a,shape_b", _KERNEL_SHAPES)
def test_order_zero_mul_is_the_pair_route(dim, shape_a, shape_b):
    """At order 0, mul is A * B: equal to the pair-table route up to the sign of zero."""
    space = JetSpace.get(dim, 0)
    rng = np.random.default_rng(dim + len(shape_a) + len(shape_b))
    A, B = _with_zeros(rng, shape_a + (1,)), _with_zeros(rng, shape_b + (1,))
    got, want = space.mul(A, B), _pair_route(space, A, B, matrix=False)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dim,order", [(1, 0), (3, 0), (5, 0), (3, 1), (3, 2), (5, 3)])
@pytest.mark.parametrize("shape_a,shape_b", [
    ((4, 9, 3), (4, 3, 1)), ((4, 1, 3), (4, 3, 27)), ((2, 4, 3, 3), (2, 4, 3, 3)),
    ((2, 1, 3, 4), (1, 5, 4, 2)), ((3, 4), (6, 4, 2)),
])
def test_matmul_is_the_pair_route(dim, order, shape_a, shape_b):
    """matmul equals the pair-table route with np.moveaxis: at order 0 the
    values' matmul, above it the same gather, batched matmul and scatter
    through swapaxes views; equal up to the sign of zero."""
    space = JetSpace.get(dim, order)
    rng = np.random.default_rng(dim * 10 + order)
    A = _with_zeros(rng, shape_a + (space.ncoeffs,))
    B = _with_zeros(rng, shape_b + (space.ncoeffs,))
    got, want = space.matmul(A, B), _pair_route(space, A, B, matrix=True)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


# --------------------------------------------------------------------------
# the constant route
# --------------------------------------------------------------------------


def _constant_operands(space, rng, shape_a, shape_b, constant):
    """Operands from _with_zeros whose derivative parts are zeroed, keeping
    the signs, in A, B or both, as ``constant`` says."""
    A = _with_zeros(rng, shape_a + (space.ncoeffs,))
    B = _with_zeros(rng, shape_b + (space.ncoeffs,))
    for X, which in ((A, "A"), (B, "B")):
        if which in constant:
            X[..., 1:] *= 0.0
    return A, B


_CONSTANT_SPACES = [(1, 1), (3, 1), (3, 3), (3, 4), (5, 3)]
_CONSTANT_MATMUL_SHAPES = [
    ((4, 9, 3), (4, 3, 1)), ((4, 1, 3), (4, 3, 27)), ((2, 4, 3, 3), (2, 4, 3, 3)),
    ((2, 1, 3, 4), (1, 5, 4, 2)), ((3, 4), (6, 4, 2)),
    ((50, 3, 4), (50, 4, 4)),           # evaluate_bundle: T @ g~^T on the flat ambient
]


@pytest.mark.parametrize("dim,order", _CONSTANT_SPACES)
@pytest.mark.parametrize("shape_a,shape_b", _KERNEL_SHAPES)
@pytest.mark.parametrize("constant", ["A", "B", "AB"])
def test_mul_of_a_constant_is_the_pair_route(dim, order, shape_a, shape_b, constant):
    """With a constant operand, mul multiplies by its values and is equal
    bit for bit, up to the sign of zero, to the pair-table route."""
    space = JetSpace.get(dim, order)
    rng = np.random.default_rng([dim, order, len(shape_a), len(shape_b), len(constant)])
    A, B = _constant_operands(space, rng, shape_a, shape_b, constant)
    got, want = space.mul(A, B), _pair_route(space, A, B, matrix=False)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dim,order", _CONSTANT_SPACES)
@pytest.mark.parametrize("shape_a,shape_b", _CONSTANT_MATMUL_SHAPES)
@pytest.mark.parametrize("constant", ["A", "B", "AB"])
def test_matmul_of_a_constant_is_the_pair_route(dim, order, shape_a, shape_b, constant):
    """With a constant operand, matmul is one matmul of values against the
    other operand with its coefficients folded in.  Its inner sums may run
    in another order than the pair route's (numpy picks another kernel for
    a vector-shaped operand), so the two agree to 4 ulp of the largest
    entry."""
    space = JetSpace.get(dim, order)
    rng = np.random.default_rng([dim, order, len(shape_a), shape_b[-1], len(constant)])
    A, B = _constant_operands(space, rng, shape_a, shape_b, constant)
    got, want = space.matmul(A, B), _pair_route(space, A, B, matrix=True)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * np.max(np.abs(want))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("op", ["mul", "matmul"])
def test_a_non_finite_derivative_part_takes_the_pair_route(monkeypatch, bad, op):
    """An operand that is constant but for one NaN or inf derivative
    coefficient is not a constant: the product takes the pair table, and
    equals its route bit for bit on every finite output row and its target
    sums, NaNs included, on the others, which keep finite coefficients;
    made constant, it takes none."""
    space = JetSpace.get(3, 2)
    rng = np.random.default_rng(5)
    A, B = _constant_operands(space, rng, (4, 3, 3), (4, 3, 2) if op == "matmul" else (4, 3, 3), "A")
    scatters = {"n": 0}
    scatter = JetSpace._scatter

    def counted(self, pairs):
        scatters["n"] += 1
        return scatter(self, pairs)

    monkeypatch.setattr(JetSpace, "_scatter", counted)
    getattr(space, op)(A, B)
    assert scatters["n"] == 0
    A[1, 2, 0, 4] = bad
    with np.errstate(invalid="ignore"):                 # 0 * inf on the pair route
        got = getattr(space, op)(A, B)
        dense, by_target = (_pair_route(space, A, B, op == "matmul", by_target) for by_target in (False, True))
    assert scatters["n"] == 1
    finite_rows = np.isfinite(dense).all(axis=-1, keepdims=True)
    assert not finite_rows.all()
    assert np.array_equal(got, np.where(finite_rows, dense, by_target), equal_nan=True)
    assert np.isfinite(got[~finite_rows[..., 0]]).any()


@pytest.mark.parametrize("derivative", [0.0, -0.0, 1e-300, -5e-324, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("order", [0, 1, 3])
def test_is_constant_is_not_any(order, derivative):
    """_is_constant reads a jet's derivative part as ``not A[..., 1:].any()`` does: a signed zero is
    zero, a subnormal, NaN or inf is not, and an order-0 jet, with an empty derivative part, is
    constant."""
    space = JetSpace.get(3, order)
    A = np.zeros((4, 2, space.ncoeffs))
    A[..., 0] = -2.5
    A[3, 1, -1] = derivative
    assert _is_constant(A) is (not A[..., 1:].any()) is (order == 0 or derivative == 0.0)


def test_an_inf_coefficient_leaves_the_finite_coefficients_finite():
    """x0 at 1 with its x0^2 coefficient set to inf, times x1 at 2, in
    JetSpace(2, 2): only the x0^2 coefficient of the product is infinite,
    and the others are exact, the value 2 among them.  The dense scatter
    matmul alone gives NaN for all five."""
    space = JetSpace.get(2, 2)
    x0, x1 = space.point_jets(np.array([1.0, 2.0]))
    x0[space.index_of[(2, 0)]] = np.inf
    want = np.zeros(space.ncoeffs)
    for alpha, value in {(0, 0): 2.0, (0, 1): 1.0, (1, 0): 2.0, (1, 1): 1.0, (2, 0): np.inf}.items():
        want[space.index_of[alpha]] = value
    with np.errstate(invalid="ignore"):
        got = space.mul(x0, x1)
    assert np.array_equal(got, want)


# --------------------------------------------------------------------------
# axis moves
# --------------------------------------------------------------------------


@st.composite
def _axis_moves(draw):
    """(ndim, source, destination) for np.moveaxis: ndim 1 to 8, k distinct source and k distinct
    destination axes, each written as itself or as its negative form, and a single axis as an
    int or as a 1-tuple."""
    ndim = draw(st.integers(1, 8))
    k = draw(st.integers(1, ndim))

    def axes():
        picked = [a - ndim if draw(st.booleans()) else a for a in draw(st.permutations(range(ndim)))[:k]]
        return picked[0] if k == 1 and draw(st.booleans()) else tuple(picked)

    return ndim, axes(), axes()


@given(_axis_moves())
@settings(max_examples=400, deadline=None)
def test_moveaxis_is_numpys(move):
    """The cached-order transpose is np.moveaxis's view: the same shape and strides on the same
    memory (distinct axis lengths make the shape name the order)."""
    ndim, source, destination = move
    x = np.empty(tuple(range(2, 2 + ndim)))
    got, want = _moveaxis(x, source, destination), np.moveaxis(x, source, destination)
    assert (got.shape, got.strides) == (want.shape, want.strides)
    assert np.shares_memory(got, x)


def test_src_moves_no_axis_through_np_moveaxis():
    """Layout code in src/ moves axes with expr_jet._moveaxis, whose order is cached, not with
    np.moveaxis, which normalizes its axes in Python on every call; only _axis_order, which
    computes each cached order, calls it."""
    src = Path(__file__).resolve().parents[1] / "src" / "paracheck"
    calls = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for stmt in ast.parse(path.read_text()).body if getattr(stmt, "name", None) != "_axis_order"
             for node in ast.walk(stmt) if isinstance(node, ast.Attribute) and node.attr == "moveaxis"]
    assert calls == []


# --------------------------------------------------------------------------
# functions of one coordinate: the closed form against Horner's loop
# --------------------------------------------------------------------------


def _horner(space, series, A):
    """sum_k series[..., k] * (A - A0)^k by Horner's loop on JetSpace.mul, for every argument."""
    H = A.copy()
    H[..., 0] = 0.0
    out = space.constant(series[..., space.order], A.shape[:-1])
    for k in range(space.order - 1, -1, -1):
        out = space.mul(out, H)
        out[..., 0] += series[..., k]
    return out


def _closed_and_horner(src, coords, space, coord_jets, points):
    """The jets of ``src`` as evaluated, with the count of pair-table products they took, and the
    jets of the same evaluation with every series composed by :func:`_horner`."""
    expr = parse_expr(src, coords)
    products = {"n": 0}
    scatter = JetSpace._scatter

    def counted(self, pairs):
        products["n"] += 1
        return scatter(self, pairs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(JetSpace, "_scatter", counted)
        got = eval_expr(expr, space, coord_jets, points=points)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(JetSpace, "_compose", _horner)
        want = eval_expr(expr, space, coord_jets, points=points)
    return got, products["n"], want


# each function of one argument u, with the interval its sample coordinates are drawn from
_UNARY = {"exp({u})": (-5.0, 5.0), "ln({u})": (0.05, 4.0), "sqrt({u})": (0.05, 4.0), "sin({u})": (-4.0, 4.0),
          "cos({u})": (-4.0, 4.0), "1/{u}": (0.05, 4.0), "{u}^0.37": (0.05, 4.0)}


def _points(data, dim, interval, min_size=1):
    return np.array(data.draw(st.lists(st.tuples(*[st.floats(*interval)] * dim), min_size=min_size, max_size=4)))


@pytest.mark.parametrize("fn", list(_UNARY))
@pytest.mark.parametrize("dim", range(1, 6))
@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(data=st.data())
def test_function_of_a_coordinate_is_horners_loop_bit_for_bit(fn, dim, data):
    """exp, ln, sqrt, sin, cos, 1/x and x^0.37 of each chart coordinate, at orders 0-4, have the
    jets of Horner's loop (+0 and -0 equal), and form no pair-table product: the series is
    written into the x_i^k coefficients."""
    points = _points(data, dim, _UNARY[fn])
    coords = [f"x{i}" for i in range(dim)]
    for order in range(5):
        space = JetSpace.get(dim, order)
        for c in coords:
            got, products, want = _closed_and_horner(fn.format(u=c), coords, space, space.point_jets(points), points)
            assert np.array_equal(got, want), (order, c)
            assert products == 0


@pytest.mark.parametrize("fn", list(_UNARY))
@pytest.mark.parametrize("arg", ["2*{x}", "{x} + {y}", "{x}^2", "embedding", "first point"])
@settings(derandomize=True, database=None, deadline=None, max_examples=5)
@given(data=st.data())
def test_other_arguments_take_horners_loop(fn, arg, data):
    """An argument that is not one coordinate monomial at every point is composed by Horner's
    loop, bit for bit: 2x, x + y, x^2, x over the coordinate jets of an embedding
    (x0 + x0 x1 / 4, x1 + x1 x0 / 4), and x over jets that are the chart's at the first point
    only (twice its derivative part at the others)."""
    points = _points(data, 2, _UNARY[fn], min_size=2)
    coords = ["x0", "x1"]
    src = fn.format(u=f"({arg.format(x='x0', y='x1')})" if "{" in arg else "x0")
    for order in range(5):
        space = JetSpace.get(2, order)
        jets = space.point_jets(points)
        if arg == "embedding":
            jets = [eval_expr(parse_expr(f"{a} + {a}*{b}/4", coords), space, jets) for a, b in (coords, coords[::-1])]
        if arg == "first point":
            for j in jets:
                j[1:, 1:] *= 2
        got, _, want = _closed_and_horner(src, coords, space, jets, points)
        assert np.array_equal(got, want), order


@pytest.mark.parametrize("fn", ["exp({u})", "sin({u})", "cos({u})"])
@pytest.mark.parametrize("arg", ["x0^2", "x0*x1"])
def test_one_monomial_of_higher_degree_takes_horners_loop(fn, arg):
    """At the origin x0^2 and x0 x1 are one monomial with coefficient 1.0 at every point, but not
    of degree 1, so Horner's loop composes them, bit for bit."""
    points = np.zeros((3, 2))
    for order in range(5):
        space = JetSpace.get(2, order)
        got, _, want = _closed_and_horner(fn.format(u=f"({arg})"), ["x0", "x1"], space, space.point_jets(points),
                                          points)
        assert np.array_equal(got, want), order


@pytest.mark.parametrize("src,message", [
    ("exp(x)", "phi: not finite at point (800.0, -1.0)"),
    ("ln(y)", "phi[1]: ln of non-positive constant term at point (800.0, -1.0)"),
    ("sqrt(y)", "phi[1]: sqrt of non-positive constant term at point (800.0, -1.0)"),
    ("1/y", "phi[1]: division by a jet with zero constant term at point (0.5, 0.0)"),
])
def test_domain_errors_of_a_function_of_a_coordinate(src, message):
    """exp overflowing at one point, and ln, sqrt or 1/x of a coordinate at a point outside its
    domain, raise the same error, at the same point, with the closed form as with Horner's loop."""
    points = np.array([[0.5, 2.0], [800.0, -1.0], [0.5, 0.0]])
    space = JetSpace.get(2, 4)
    errors = []
    for compose in (JetSpace._compose, _horner):
        with pytest.MonkeyPatch.context() as mp, pytest.raises(JetDomainError) as err:
            mp.setattr(JetSpace, "_compose", compose)
            _eval_grid(["1", src], ["x", "y"], space, space.point_jets(points), points, "phi")
        errors.append(str(err.value))
    assert errors == [message, message]
