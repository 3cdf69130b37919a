"""Connection, curvature, and derivative operators from jet-valued metrics.

Conventions, fixed once and validated by the convention-lock tests:

    R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
    S(Y,Z)  = trace of X -> R(X,Y)Z   (componentwise S_jk = R^a_ajk)
    R(X,Y,Z,W) = g(R(X,Y)Z, W)

With these choices the model curvatures reproduce S(X,xi) = -(n-1) eta(X)
and R(X,Y)xi = eta(X) Y - eta(Y) X on the closed-form structures.

All operators take and return batched jet tensors, and a result's jet
space is the order it is valid to: each derivative costs one order, and an
operation on operands of different orders runs in the lowest operand space.
So Gamma is one order below g, curvature one below Gamma, and a covariant or
Lie derivative is valid to min(operand order - 1, Gamma's order); operands
are restricted to that order first, so no product is formed above it.  A
derivative of an order-0 jet raises :class:`InsufficientOrderError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr_jet import JetSpace
from .tensor_algebra import MetricAtPoint, TensorValue, contract_with, lowest_space


class InsufficientOrderError(ValueError):
    pass


def _lower(space: JetSpace, what: str) -> JetSpace:
    """The space of ``what``, one derivative below ``space``."""
    if space.order < 1:
        raise InsufficientOrderError(f"{what} needs jet order >= 1, have {space.order}")
    return space.lower


@dataclass
class ConnectionAtPoint:
    """Christoffel symbols Gamma^k_ij (symmetric in ij) as a batched jet
    (1,2) tensor, together with the metric they came from."""

    gamma: TensorValue
    metric: MetricAtPoint
    points: np.ndarray

    @property
    def space(self) -> JetSpace:
        return self.gamma.space

    @property
    def dim(self) -> int:
        return self.gamma.dim


@dataclass
class CurvatureAtPoint:
    """Curvature package at the sample points.

    ``riemann_ud`` holds R^l_{ijk} (slots l; i, j, k), ``riemann_dddd`` the
    classical R_{ijkl} = g(R(e_i,e_j)e_k, e_l).  ``dr`` and ``div_q`` are
    numeric covectors per point; the contracted Bianchi identity
    dr = 2 div Q ties them together and is asserted in the test suite.
    """

    riemann_ud: TensorValue
    riemann_dddd: TensorValue
    ricci: TensorValue
    ricci_op: TensorValue
    scalar: np.ndarray          # jet coefficients (P, ncoeffs)
    dr: np.ndarray              # values (P, n)
    div_q: np.ndarray           # values (P, n)


def christoffel(metric_jets: TensorValue, points: np.ndarray) -> ConnectionAtPoint:
    """Levi-Civita connection of a jet-valued metric.

    Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij), jet-valued one
    order below the metric jets; g is inverted only to that order.
    """
    space = metric_jets.space
    if space is None:
        raise ValueError("christoffel needs jet-valued metric components")
    lower = _lower(space, "christoffel")
    metric = MetricAtPoint.build(metric_jets.as_jet(lower))
    n = metric_jets.dim
    base = 1 if metric_jets.batched else 0
    G = metric_jets.components
    dg = np.stack([space.diff(G, i) for i in range(n)], axis=base)  # [P?, deriv, row, col, m]
    # sym[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    t1 = dg                                                                       # d_i g_{jl}: (i, j, l)
    t2 = np.moveaxis(dg, (base, base + 1, base + 2), (base + 1, base, base + 2))  # d_j g_{il}: axes (j, i, l)
    t3 = np.moveaxis(dg, (base, base + 1, base + 2), (base + 2, base, base + 1))  # d_l g_{ij}: axes (l, i, j)
    sym = t1 + t2 - t3  # axes [P?, i, j, l, m]
    symT = TensorValue(n, 0, 3, sym, lower, metric_jets.batched)
    # Gamma^k_{ij} = 1/2 g^{kl} sym_{ijl}
    comps = 0.5 * contract_with(metric.g_inv, symT, 1, 2)  # [P?, k, i, j, m]
    gamma = TensorValue(n, 1, 2, comps, lower, metric_jets.batched)
    return ConnectionAtPoint(gamma=gamma, metric=metric, points=np.asarray(points))


def curvature(conn: ConnectionAtPoint) -> CurvatureAtPoint:
    """Riemann, Ricci, scalar curvature, Ricci operator, dr, and div Q."""
    space = conn.space
    lower = _lower(space, "curvature")
    n = conn.dim
    batched = conn.gamma.batched
    base = 1 if batched else 0
    dG = np.stack([space.diff(conn.gamma.components, i) for i in range(n)], axis=base)  # [P?, i, l, j, k, m]
    term1 = np.moveaxis(dG, base, base + 1)                   # [l, i, j, k]: d_i Gamma^l_{jk}
    term2 = np.swapaxes(term1, base + 1, base + 2)            # d_j Gamma^l_{ik}
    gam = conn.gamma.as_jet(lower)
    gg = contract_with(gam, gam, 2, 0)                        # [l, i, j, k]: G^l_{im} G^m_{jk}
    gg2 = np.swapaxes(gg, base + 1, base + 2)
    R = term1 - term2 + gg - gg2
    riemann_ud = TensorValue(n, 1, 3, R, lower, batched)

    # classical (0,4): R_{ijkl} = g_{lm} R^m_{ijk}
    low = contract_with(conn.metric.g, riemann_ud, 1, 0)     # [l, i, j, k]
    riemann_dddd = TensorValue(n, 0, 4, np.moveaxis(low, base, base + 3), lower, batched)

    S = np.trace(R, axis1=base, axis2=base + 1)               # S_{jk} = R^a_{ajk}
    ricci = TensorValue(n, 0, 2, S, lower, batched)
    Q = contract_with(conn.metric.g_inv, ricci, 1, 0)         # Q^a_b = g^{am} S_{mb}
    ricci_op = TensorValue(n, 1, 1, Q, lower, batched)
    r = np.trace(Q, axis1=base, axis2=base + 1)               # scalar curvature jets
    dr = lower.gradient_values(r)

    # div Q_b = (nabla_a Q)^a_b, needs one more derivative of Q
    nablaQ = covariant_derivative(ricci_op, conn)
    div_q = np.trace(nablaQ.components[..., 0], axis1=base, axis2=base + 1)

    return CurvatureAtPoint(
        riemann_ud=riemann_ud,
        riemann_dddd=riemann_dddd,
        ricci=ricci,
        ricci_op=ricci_op,
        scalar=r,
        dr=dr,
        div_q=div_q,
    )


def covariant_derivative(T: TensorValue, conn: ConnectionAtPoint) -> TensorValue:
    """Levi-Civita covariant derivative; the direction becomes the first
    covariant slot, so (nabla T)(X, ...) = (nabla_X T)(...).

    The result is valid to min(T's order - 1, Gamma's order).
    """
    if T.space is None:
        raise ValueError("covariant_derivative needs jet-valued components")
    out = lowest_space(_lower(T.space, "covariant derivative"), conn.space)
    n = T.dim
    base = 1 if T.batched else 0
    # derivative axis first (after batch), moved into place at the end
    dT = np.stack([out.restrict(T.space.diff(T.components, i)) for i in range(n)], axis=base)
    gamma, T = conn.gamma.as_jet(out), T.as_jet(out)
    for s in range(T.p):
        term = contract_with(gamma, T, 2, s)                   # [a, i, (T minus s)]
        term = np.moveaxis(term, base + 1, base)               # [i, a, ...]
        term = np.moveaxis(term, base + 1, base + 1 + s)       # slot a into position s
        dT = dT + term
    for s in range(T.q):
        term = contract_with(gamma, T, 0, T.p + s)             # [i, b, (T minus p+s)]
        term = np.moveaxis(term, base + 1, base + 1 + T.p + s)
        dT = dT - term
    # direction axis becomes the first covariant slot
    dT = np.moveaxis(dT, base, base + T.p)
    return TensorValue(n, T.p, T.q + 1, dT, out, T.batched)


def lie_derivative(T: TensorValue, X: TensorValue, conn: ConnectionAtPoint,
                   via_partials: bool = False) -> TensorValue:
    """Lie derivative along X of a (0,1) form or (0,2) tensor, valid to
    min(T's order - 1, X's order - 1, Gamma's order).

    The default route is the covariant one,
    (L_X T)(Y,Z) = (nabla_X T)(Y,Z) + T(nabla_Y X, Z) + T(Y, nabla_Z X);
    ``via_partials`` switches to the coordinate form with plain partials,
    which must agree for a torsion-free connection (asserted in tests).
    """
    if (T.p, T.q) not in ((0, 1), (0, 2)):
        raise ValueError(f"lie_derivative supports valences (0,1) and (0,2), got ({T.p},{T.q})")
    out = lowest_space(_lower(T.space, "lie derivative"), _lower(X.space, "lie derivative"), conn.space)
    T, X = (V.as_jet(JetSpace.get(V.dim, out.order + 1)) for V in (T, X))
    n = T.dim
    base = 1 if T.batched else 0

    if via_partials:
        dT = np.stack([T.space.diff(T.components, i) for i in range(n)], axis=base)  # [k, slots...]
        first = contract_with(X, TensorValue(n, 0, T.q + 1, dT, out, T.batched), 0, 0)
        dX = np.stack([X.space.diff(X.components, i) for i in range(n)], axis=base)  # [i, a, m] = d_i X^a
        gradX = TensorValue(n, 1, 1, np.moveaxis(dX, base, base + 1), out, T.batched)  # [a, i]
    else:
        first = contract_with(X, covariant_derivative(T, conn), 0, 0)
        gradX = covariant_derivative(X, conn)  # (1,1): (nabla X)^a_i

    if T.q == 1:
        lie = first + contract_with(gradX, T, 0, 0)            # eta_a (grad X)^a_i -> [i]
    else:
        c1 = contract_with(gradX, T, 0, 0)                     # [i, j]: (gX)^k_i T_{kj}
        c2 = contract_with(gradX, T, 0, 1)                     # [j, i]: (gX)^k_j T_{ik}
        lie = first + c1 + np.swapaxes(c2, base, base + 1)
    return TensorValue(n, 0, T.q, lie, out, T.batched)
