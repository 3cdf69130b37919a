"""Connection, curvature, and derivative operators from jet-valued metrics.

Conventions, fixed once and validated by the convention-lock tests:

    R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
    S(Y,Z)  = trace of X -> R(X,Y)Z   (componentwise S_jk = R^a_ajk)
    R(X,Y,Z,W) = g(R(X,Y)Z, W)

With these choices the model curvatures reproduce S(X,xi) = -(n-1) eta(X)
and R(X,Y)xi = eta(X) Y - eta(Y) X on the closed-form structures.

All operators but the Lie derivative take and return jet tensors, and a
result's jet space is the order it is valid to: each derivative costs one
order, and an operation on operands of different orders runs in the lowest
operand space.  So Gamma is one order below g, curvature one below Gamma, and
a covariant derivative is valid to min(operand order - 1, Gamma's order);
operands are restricted to that order first, so no product is formed above
it.  A derivative of an order-0 jet raises :class:`InsufficientOrderError`.
A Lie derivative is values built from covariant derivatives the caller holds.
A metric whose jets have an all-zero derivative part (:meth:`JetSpace.mul`'s
test) gives a flat connection: Gamma, R and S are zeros in the same spaces and
nabla is the plain gradient, with no derivative or contraction of Gamma taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expr_jet import JetSpace, _is_constant, _moveaxis
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
    """Christoffel symbols Gamma^k_ij (symmetric in ij) as a jet (1,2)
    tensor, the metric they came from, and whether that metric is constant."""

    gamma: TensorValue
    metric: MetricAtPoint
    flat: bool

    @property
    def space(self) -> JetSpace:
        return self.gamma.space

    @property
    def dim(self) -> int:
        return self.gamma.dim


@dataclass
class CurvatureAtPoint:
    """Curvature package at the sample points.

    ``riemann_ud`` holds R^l_{ijk} (slots l; i, j, k) and ``ricci`` S_{jk};
    the rest is built on first read.  ``riemann_dddd`` is the classical
    R_{ijkl} = g(R(e_i,e_j)e_k, e_l).  ``dr`` and ``div_q`` are numeric
    covectors per point that read one derivative of the curvature jets, so
    they raise :class:`InsufficientOrderError` on order-0 ones; the
    contracted Bianchi identity dr = 2 div Q ties them together and is
    asserted in the test suite.
    """

    riemann_ud: TensorValue
    ricci: TensorValue
    connection: ConnectionAtPoint

    @property
    def space(self) -> JetSpace:
        return self.ricci.space

    @cached_property
    def riemann_dddd(self) -> TensorValue:
        low = contract_with(self.connection.metric.g, self.riemann_ud, 1, 0)   # [l, i, j, k]
        return TensorValue(self.ricci.dim, 0, 4, _moveaxis(low, 1, 4), self.space)

    @cached_property
    def ricci_op(self) -> TensorValue:
        """Q^a_b = g^{am} S_{mb}."""
        Q = contract_with(self.connection.metric.g_inv, self.ricci, 1, 0)
        return TensorValue(self.ricci.dim, 1, 1, Q, self.space)

    @cached_property
    def scalar(self) -> np.ndarray:
        """Jet coefficients of the scalar curvature, shape (P, ncoeffs)."""
        return self.ricci_op.components.trace(axis1=1, axis2=2)

    @cached_property
    def dr(self) -> np.ndarray:
        """Values of dr, shape (P, n)."""
        _lower(self.space, "dr")
        return self.space.gradient_values(self.scalar)

    @cached_property
    def nabla_ricci_op(self) -> TensorValue:
        """nabla Q, read by div Q and by the (nabla_Y Q) X display."""
        return covariant_derivative(self.ricci_op, self.connection)

    @cached_property
    def div_q(self) -> np.ndarray:
        """Values of div Q_b = (nabla_a Q)^a_b, shape (P, n)."""
        return self.nabla_ricci_op.components[..., 0].trace(axis1=1, axis2=2)


def christoffel(metric_jets: TensorValue) -> ConnectionAtPoint:
    """Levi-Civita connection of a jet-valued metric.

    Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij), jet-valued one
    order below the metric jets; g is inverted only to that order.  A
    constant metric gives Gamma = 0 and a flat connection.
    """
    space = metric_jets.space
    lower = _lower(space, "christoffel")
    metric = MetricAtPoint.build(metric_jets.as_jet(lower))
    n = metric_jets.dim
    flat = _is_constant(metric_jets.components)
    if flat:
        gamma = np.zeros((len(metric_jets.components),) + (n,) * 3 + (lower.ncoeffs,))
    else:
        dg = space.grad(metric_jets.components)             # [P, deriv, row, col, m]
        # sym[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
        t1 = dg                                             # d_i g_{jl}: (i, j, l)
        t2 = dg.swapaxes(1, 2)                              # d_j g_{il}: axes (j, i, l)
        t3 = _moveaxis(dg, (1, 2, 3), (3, 1, 2))            # d_l g_{ij}: axes (l, i, j)
        symT = TensorValue(n, 0, 3, t1 + t2 - t3, lower)
        # Gamma^k_{ij} = 1/2 g^{kl} sym_{ijl}
        gamma = 0.5 * contract_with(metric.g_inv, symT, 1, 2)
    return ConnectionAtPoint(TensorValue(n, 1, 2, gamma, lower), metric, flat)


def curvature(conn: ConnectionAtPoint) -> CurvatureAtPoint:
    """Riemann and Ricci of a connection, one order below it; zero if it is flat."""
    space = conn.space
    lower = _lower(space, "curvature")
    n = conn.dim
    if conn.flat:
        R = np.zeros((len(conn.gamma.components),) + (n,) * 4 + (lower.ncoeffs,))
    else:
        dG = space.grad(conn.gamma.components)                    # [P, i, l, j, k, m]
        term1 = _moveaxis(dG, 1, 2)                               # [l, i, j, k]: d_i Gamma^l_{jk}
        term2 = term1.swapaxes(2, 3)                              # d_j Gamma^l_{ik}
        gam = conn.gamma.as_jet(lower)
        gg = contract_with(gam, gam, 2, 0)                        # [l, i, j, k]: G^l_{im} G^m_{jk}
        R = term1 - term2 + gg - gg.swapaxes(2, 3)
    S = R.trace(axis1=1, axis2=2)                             # S_{jk} = R^a_{ajk}
    return CurvatureAtPoint(TensorValue(n, 1, 3, R, lower), TensorValue(n, 0, 2, S, lower), conn)


def covariant_derivative(T: TensorValue, conn: ConnectionAtPoint) -> TensorValue:
    """Levi-Civita covariant derivative; the direction becomes the first
    covariant slot, so (nabla T)(X, ...) = (nabla_X T)(...).

    The result is valid to min(T's order - 1, Gamma's order); along a flat
    connection it is the plain gradient.
    """
    out = lowest_space(_lower(T.space, "covariant derivative"), conn.space)
    n = T.dim
    # derivative axis first (after the sample axis), moved into place at the end
    dT = out.restrict(T.space.grad(T.components))
    gamma, T = conn.gamma.as_jet(out), T.as_jet(out)
    for s in range(0 if conn.flat else T.p):
        term = contract_with(gamma, T, 2, s)                   # [a, i, (T minus s)]
        term = _moveaxis(term, 2, 1)                           # [i, a, ...]
        term = _moveaxis(term, 2, 2 + s)                       # slot a into position s
        dT = dT + term
    for s in range(0 if conn.flat else T.q):
        term = contract_with(gamma, T, 0, T.p + s)             # [i, b, (T minus p+s)]
        term = _moveaxis(term, 2, 2 + T.p + s)
        dT = dT - term
    # direction axis becomes the first covariant slot
    return TensorValue(n, T.p, T.q + 1, _moveaxis(dT, 1, 1 + T.p), out)


def lie_derivative(T: np.ndarray, nabla_T: np.ndarray, X: np.ndarray, nabla_X: np.ndarray) -> np.ndarray:
    """Values of L_X T for a form T (P, n) or a (0,2) tensor T (P, n, n), from the values of X
    (P, n) and of nabla T and nabla X in :func:`covariant_derivative`'s layout: three value matmuls

        (L_X T)(Y,Z) = (nabla_X T)(Y,Z) + T(nabla_Y X, Z) + T(Y, nabla_Z X)

    for a torsion-free connection, checked in the tests against the coordinate form with plain partials."""
    P, n = X.shape
    dX = nabla_X.swapaxes(1, 2)                                         # [i, a]: (nabla_i X)^a
    lie = (X[:, None] @ nabla_T.reshape(P, n, -1)).reshape(T.shape) + (dX @ T.reshape(P, n, -1)).reshape(T.shape)
    if T.ndim == 3:
        lie = lie + (dX @ T.swapaxes(1, 2)).swapaxes(1, 2)              # T(Y, nabla_Z X)
    return lie
