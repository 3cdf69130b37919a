"""Independent oracles.

This is the second route the jet pipeline is checked against: plain numeric
evaluation of the model expressions (no jets anywhere) and central
differences for every derivative.  Conventions mirror the engine's
definitions, but the code shares no derivative machinery with it.  One
oracle stays on jets: the Lie derivative by coordinate partials, which needs
no connection, against the engine's covariant route.
"""

import math
from typing import Sequence

import numpy as np

from paracheck.expr_jet import BinOp, Call, JetDomainError, Neg, Num, Pow, ScalarExpr, Var, parse_expr
from paracheck.tensor_algebra import TensorValue, contract_with, lowest_space

FD_STEP_FIRST = 1e-4
FD_STEP_SECOND = 1e-3


def eval_expr_numeric(expr: ScalarExpr, point: Sequence[float]) -> float:
    """Plain numeric evaluation (no jets)."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        return float(point[expr.index])
    if isinstance(expr, Neg):
        return -eval_expr_numeric(expr.arg, point)
    if isinstance(expr, BinOp):
        a = eval_expr_numeric(expr.left, point)
        b = eval_expr_numeric(expr.right, point)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if b == 0:
            raise JetDomainError("division by zero", tuple(point))
        return a / b
    if isinstance(expr, Pow):
        base = eval_expr_numeric(expr.base, point)
        if base == 0 and expr.exponent < 0:
            raise JetDomainError("division by zero", tuple(point))
        if base < 0 and not float(expr.exponent).is_integer():
            raise JetDomainError(f"non-integer power {expr.exponent} of a negative value", tuple(point))
        return base ** expr.exponent
    if isinstance(expr, Call):
        a = eval_expr_numeric(expr.arg, point)
        if expr.func == "ln":
            if a <= 0:
                raise JetDomainError("ln of non-positive value", tuple(point))
            return math.log(a)
        if expr.func == "sqrt" and a < 0:
            raise JetDomainError("sqrt of negative value", tuple(point))
        return getattr(math, expr.func)(a)
    raise TypeError(f"unknown node {expr!r}")


def metric_fn(model):
    exprs = [[parse_expr(s, model.coords) for s in row] for row in model.metric]

    def f(x):
        return np.array([[eval_expr_numeric(e, x) for e in row] for row in exprs])

    return f


def vector_fn(model, sources):
    exprs = [parse_expr(s, model.coords) for s in sources]

    def f(x):
        return np.array([eval_expr_numeric(e, x) for e in exprs])

    return f


def fd_partial(fn, x, i, h):
    xp = np.array(x, dtype=float)
    xm = xp.copy()
    xp[i] += h
    xm[i] -= h
    return (np.asarray(fn(xp)) - np.asarray(fn(xm))) / (2 * h)


def fd_christoffel(metric, x, h=FD_STEP_FIRST):
    n = len(x)
    ginv = np.linalg.inv(metric(x))
    dg = np.stack([fd_partial(metric, x, l, h) for l in range(n)])  # dg[l, i, j]
    gam = 0.5 * np.einsum('kl,ijl->kij', ginv, dg)
    gam += 0.5 * np.einsum('kl,jil->kij', ginv, dg)
    gam -= 0.5 * np.einsum('kl,lij->kij', ginv, dg)
    return gam


def fd_riemann(metric, x, h=FD_STEP_SECOND):
    n = len(x)
    dG = np.stack([fd_partial(lambda y: fd_christoffel(metric, y), x, i, h) for i in range(n)])
    gam = fd_christoffel(metric, x)
    R = np.einsum('iljk->lijk', dG) - np.einsum('jlik->lijk', dG)
    R += np.einsum('lim,mjk->lijk', gam, gam) - np.einsum('ljm,mik->lijk', gam, gam)
    return R


def fd_curvature_package(metric, x):
    """(g, ginv, Gamma, R^l_ijk, S, r) by finite differences only."""
    g = metric(x)
    ginv = np.linalg.inv(g)
    gam = fd_christoffel(metric, x)
    R = fd_riemann(metric, x)
    S = np.einsum('aajk->jk', R)
    r = float(np.einsum('jk,jk->', ginv, S))
    return g, ginv, gam, R, S, r


def fd_grad_vector_field(metric, field, x, h=FD_STEP_FIRST):
    """(nabla X)^a_i = d_i X^a + Gamma^a_{im} X^m by finite differences."""
    n = len(x)
    gam = fd_christoffel(metric, x)
    dX = np.stack([fd_partial(field, x, i, h) for i in range(n)], axis=1)  # [a, i]
    return dX + np.einsum('aim,m->ai', gam, field(x))


def signed_orthonormal_frame(g, rng, tries=50):
    """Gram-Schmidt with the indefinite inner product; returns (frame rows
    e_i, signs eps_i) with g(e_i, e_j) = eps_i delta_ij."""
    n = g.shape[0]
    for _ in range(tries):
        basis = rng.uniform(-1, 1, (n, n))
        frame = []
        signs = []
        ok = True
        for v in basis:
            w = v.copy()
            for e, s in zip(frame, signs):
                w = w - s * (e @ g @ w) * e
            q = w @ g @ w
            if abs(q) < 1e-4:
                ok = False
                break
            s = 1.0 if q > 0 else -1.0
            frame.append(w / np.sqrt(abs(q)))
            signs.append(s)
        if ok:
            return np.array(frame), np.array(signs)
    raise RuntimeError("could not build a signed orthonormal frame")


def lie_derivative_by_partials(T: TensorValue, X: TensorValue) -> TensorValue:
    """Lie derivative along X of a (0,1) form or (0,2) tensor in coordinates,
    with plain partials and no connection:

        (L_X T)_ij = X^k d_k T_ij + T_kj d_i X^k + T_ik d_j X^k,

    valid to one order below the lower of T's and X's orders.  For a
    torsion-free connection it equals the engine's covariant route."""
    space = lowest_space(T.space, X.space)
    out = space.lower
    T, X = T.as_jet(space), X.as_jet(space)
    n = T.dim
    first = contract_with(X, TensorValue(n, 0, T.q + 1, space.grad(T.components), out), 0, 0)
    gradX = TensorValue(n, 1, 1, np.swapaxes(space.grad(X.components), 1, 2), out)   # [a, i] = d_i X^a
    lie = first + contract_with(gradX, T, 0, 0)
    if T.q == 2:
        lie = lie + np.swapaxes(contract_with(gradX, T, 0, 1), 1, 2)
    return TensorValue(n, 0, T.q, lie, out)
