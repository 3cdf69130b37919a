"""(eps)-almost paracontact metric structures and their pointwise checks.

A :class:`ParacontactStructure` bundles jet-valued (phi, xi, eta, g) over a
batch of sample points with the sign eps = g(xi, xi).  The three check
operations measure, over the samples and random test vectors, the residuals
of the structure axioms, of the defining covariant-derivative equations, and
of the curvature identities those equations force.  A request draws its
test vectors once, as one :class:`VectorPairs`, which builds on first read
the products its checks share: phi X, phi Y, phi^2 X, (nabla_X phi) Y, the
defining equation's right side and residual rho1, and R(X, Y).  The structure
caches nabla phi, nabla xi, nabla eta, its curvature and trace(phi) alike.

Each check hands its gaps, with the tensors entering each identity, to the
one recorder, :class:`report.StructureCheckResult`, beside the check table
:data:`report.CHECKS`; its residual rule, :func:`report.residual_norm`,
normalizes the max gap by (1 + max magnitude of those tensors), which keeps
the numbers comparable across models with very different metric scales.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .geometry_engine import ConnectionAtPoint, CurvatureAtPoint, christoffel, covariant_derivative, curvature
from .report import StructureCheckResult, residual_norm
from .tensor_algebra import TensorValue, contract_with, lowest_space


class ParacontactStructure:
    """Jet-valued structure tensors over a batch of sample points.  Each
    tensor's jet space is the order it was evaluated to: g to the order the
    requested suite reads, phi, xi and eta to at most one derivative.

    Only eps = +-1 is enforced here.  A chart's eta(xi) = 1 and g(xi, xi) =
    eps are checked where its fields are evaluated
    (:func:`models.evaluate_structure`); the geometric axioms, and an
    induced structure's, are what the check operations measure.
    """

    def __init__(self, points: np.ndarray, epsilon: int,
                 g: TensorValue, phi: TensorValue, xi: TensorValue, eta: TensorValue):
        if epsilon not in (1, -1):
            raise ValueError(f"epsilon must be +1 or -1, got {epsilon}")
        self.points = np.asarray(points)
        self.epsilon = int(epsilon)
        self.g = g
        self.phi = phi
        self.xi = xi
        self.eta = eta

    # -- numeric views ------------------------------------------------------

    @property
    def npoints(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.g.dim

    @property
    def g0(self) -> np.ndarray:
        return self.g.components[..., 0]

    @property
    def phi0(self) -> np.ndarray:
        return self.phi.components[..., 0]

    @property
    def xi0(self) -> np.ndarray:
        return self.xi.components[..., 0]

    @property
    def eta0(self) -> np.ndarray:
        return self.eta.components[..., 0]

    @cached_property
    def Phi(self) -> TensorValue:
        """The fundamental 2-form Phi_{ab} = g(phi e_a, e_b) as jets."""
        comps = contract_with(self.g, self.phi, 0, 0)  # g_{mb} phi^m_a -> [b, a]
        return TensorValue(self.dim, 0, 2, comps.swapaxes(1, 2), self.phi.space)

    @cached_property
    def Phi0(self) -> np.ndarray:
        return np.einsum('pma,pmb->pab', self.phi0, self.g0)

    @cached_property
    def ee0(self) -> np.ndarray:
        """Values of eta (x) eta, shape (P, n, n)."""
        return np.einsum('pa,pb->pab', self.eta0, self.eta0)

    @cached_property
    def trace_phi(self) -> np.ndarray:
        return np.einsum('paa->p', self.phi0)

    # -- cached geometry ------------------------------------------------------

    @cached_property
    def connection(self) -> ConnectionAtPoint:
        return christoffel(self.g)

    @cached_property
    def curvature(self) -> CurvatureAtPoint:
        return curvature(self.connection)

    def _nabla(self, T: TensorValue) -> np.ndarray:
        """Values of nabla T, with T restricted to at most the fields' order: all a Lie derivative along xi reads."""
        return covariant_derivative(T.as_jet(lowest_space(T.space, self.xi.space)),
                                    self.connection).components[..., 0]

    @cached_property
    def nabla_phi(self) -> np.ndarray:
        """Values of (nabla phi)^a_{ib} = (nabla_{e_i} phi)^a_b, shape (P, n, n, n)."""
        return self._nabla(self.phi)

    @cached_property
    def nabla_xi(self) -> np.ndarray:
        """Values of (nabla xi)^a_i = (nabla_{e_i} xi)^a, shape (P, n, n)."""
        return self._nabla(self.xi)

    @cached_property
    def nabla_eta(self) -> np.ndarray:
        """Values of (nabla eta)_{ib} = (nabla_{e_i} eta)_b, shape (P, n, n)."""
        return self._nabla(self.eta)


# -- vector application helpers ------------------------------------------------


def apply_op(op: np.ndarray, *vectors: np.ndarray) -> np.ndarray:
    """A (1,k) tensor op[p, a, b1, ..., bk] fed its first j bundles of vectors
    (P, V, n) (or (P, 1, n), broadcast): (P, V, n) at j = k, else the
    (P, V, n, n^(k-j)) operators on its open slots.  One matmul of the vectors'
    outer product against op's transpose; apply_op(phi, X) is phi X = X @ phi^T."""
    outer = vectors[0]
    for v in vectors[1:]:
        outer = outer[..., :, None] * v[..., None, :]
        outer = outer.reshape(outer.shape[:-2] + (-1,))
    (P, n), m = op.shape[:2], outer.shape[-1]
    out = outer @ op.reshape(P, n, m, -1).swapaxes(1, 2).reshape(P, m, -1)
    return out if len(vectors) == op.ndim - 2 else out.reshape(out.shape[:-1] + (n, -1))


def pair(g: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """g(X, Y) over bundles of vectors: (P,n,n), (P,V,n), (P,V,n) -> (P,V)."""
    return np.add.reduce((X @ g) * Y, axis=-1)


def form(eta: np.ndarray, X: np.ndarray) -> np.ndarray:
    return np.einsum('pa,pva->pv', eta, X)


class VectorPairs:
    """A request's random vector pairs (X, Y) = (v[2k], v[2k+1]) at the points
    of ``struct``, Z = Y shifted by one pair, and what the checks read of them,
    each built once, on first read: phi X, phi Y, phi^2 X, (nabla_X phi) Y, the
    para-Sasakian right side, rho1, and R(X, Y) as (P, V, n, n) operators.
    rho1 is the defining equation's residual at each point, its inputs lhs,
    rhs, X and Y: one scale for all points, so its max is the
    ``sasakian.defining-equation`` residual."""

    def __init__(self, struct: ParacontactStructure, vectors: np.ndarray):
        self.struct = struct
        self.X, self.Y = vectors[:, 0::2], vectors[:, 1::2]

    Z = cached_property(lambda self: np.roll(self.Y, 1, axis=1))
    phiX = cached_property(lambda self: apply_op(self.struct.phi0, self.X))
    phiY = cached_property(lambda self: apply_op(self.struct.phi0, self.Y))
    phi2X = cached_property(lambda self: apply_op(self.struct.phi0, self.phiX))
    grad_phi = cached_property(lambda self: apply_op(self.struct.nabla_phi, self.X, self.Y))
    rhs = cached_property(lambda self: para_sasakian_rhs(self))
    rho1 = cached_property(lambda self: residual_norm(self.grad_phi - self.rhs, self.grad_phi, self.rhs, self.X,
                                                      self.Y, axis=(1, 2)))
    R = cached_property(lambda self: apply_op(self.struct.curvature.riemann_ud.components[..., 0], self.X, self.Y))


# -- check operations ------------------------------------------------------------


def check_axioms(v: VectorPairs) -> StructureCheckResult:
    """Residuals of the seven structure axioms over the vector pairs."""
    s = v.struct
    eps = s.epsilon
    phi, xi, eta, g = s.phi0, s.xi0, s.eta0, s.g0
    X, Y, phiX, phiY, phi2X = v.X, v.Y, v.phiX, v.phiY, v.phi2X
    res = StructureCheckResult()

    gap = phi2X - X + form(eta, X)[..., None] * xi[:, None, :]
    res.add("structure.phi-squared", gap, X, phi2X)

    res.add("structure.eta-of-xi", np.einsum('pa,pa->p', eta, xi) - 1.0, xi, eta)
    res.add("structure.phi-of-xi", apply_op(phi, xi[:, None, :]), xi)
    res.add("structure.eta-after-phi", form(eta, phiX), X, eta)

    gap = pair(g, phiX, phiY) - pair(g, X, Y) + eps * form(eta, X) * form(eta, Y)
    res.add("structure.metric-compatibility", gap, pair(g, X, Y))

    gap = pair(g, X, phiY) - pair(g, phiX, Y)
    res.add("structure.phi-self-adjoint", gap, pair(g, X, phiY))

    gXxi = pair(g, X, xi[:, None])
    gap = gXxi - eps * form(eta, X)
    res.add("structure.metric-xi-eta", gap, gXxi)
    return res


def para_sasakian_rhs(v: VectorPairs) -> np.ndarray:
    """The right side -g(phi X, phi Y) xi - eps eta(Y) phi^2 X of the
    para-Sasakian defining equation over the pairs, (P, V, n): values only,
    so it serves structures whose index differs by point."""
    s = v.struct
    return (-pair(s.g0, v.phiX, v.phiY)[..., None] * s.xi0[:, None, :]
            - s.epsilon * form(s.eta0, v.Y)[..., None] * v.phi2X)


def check_para_sasakian(v: VectorPairs) -> StructureCheckResult:
    """Residuals of the defining covariant-derivative equations:

        (nabla_X phi) Y = -g(phi X, phi Y) xi - eps eta(Y) phi^2 X
        nabla xi = eps phi
        (nabla_X eta) Y = Phi(X, Y)

    plus the symmetry of Phi.
    """
    s = v.struct
    res = StructureCheckResult()
    res.add("sasakian.defining-equation", v.rho1)
    phi = s.phi0
    res.add("sasakian.grad-xi", s.nabla_xi - s.epsilon * phi, phi)
    Phi = s.Phi0
    res.add("sasakian.grad-eta", s.nabla_eta - Phi, Phi)
    res.add("sasakian.fundamental-form-symmetric", Phi - Phi.swapaxes(1, 2), Phi)
    return res


def check_ps_curvature_identities(v: VectorPairs) -> StructureCheckResult:
    """The four curvature identities of a para-Sasakian structure, evaluated
    over the vector triples (X, Y, Z), each R(X, Y) W one mat-vec of the
    pairs' R(X, Y).  Runs even when the defining equations fail."""
    s = v.struct
    eps = s.epsilon
    n = s.dim
    S = s.curvature.ricci.components[..., 0]
    phi, xi, eta, g = s.phi0, s.xi0, s.eta0, s.g0
    X, Y, Z, phiX, phiY = v.X, v.Y, v.Z, v.phiX, v.phiY
    res = StructureCheckResult()

    # R(X,Y)xi = eta(X) Y - eta(Y) X
    RXYxi = (v.R @ xi[:, None, :, None])[..., 0]
    tgt = form(eta, X)[..., None] * Y - form(eta, Y)[..., None] * X
    res.add("curvature.r-xy-xi", RXYxi - tgt, RXYxi, tgt, X, Y)

    # R(X,Y) phi Z expansion
    Phi = s.Phi0
    phiZ = apply_op(phi, Z)
    RXYphiZ = (v.R @ phiZ[..., None])[..., 0]
    phiRXYZ = apply_op(phi, (v.R @ Z[..., None])[..., 0])
    PhiYZ = pair(Phi, Y, Z)[..., None]
    PhiXZ = pair(Phi, X, Z)[..., None]
    etaX = form(eta, X)[..., None]
    etaY = form(eta, Y)[..., None]
    etaZ = form(eta, Z)[..., None]
    gYZ = pair(g, Y, Z)[..., None]
    gXZ = pair(g, X, Z)[..., None]
    xi_b = xi[:, None, :]
    rhs = (phiRXYZ + eps * PhiYZ * X - eps * PhiXZ * Y
           - 2 * eps * PhiYZ * etaX * xi_b + 2 * eps * PhiXZ * etaY * xi_b
           - eps * gYZ * phiX + eps * gXZ * phiY
           + 2 * etaY * etaZ * phiX - 2 * etaX * etaZ * phiY)
    res.add("curvature.r-xy-phi-z", RXYphiZ - rhs, RXYphiZ, rhs, X, Y, Z)

    # S(X, phi Y) = S(phi X, Y)
    gap = pair(S, X, phiY) - pair(S, phiX, Y)
    res.add("curvature.ricci-phi-symmetric", gap, pair(S, X, phiY))

    # S(X, xi) = -(n-1) eta(X)
    SXxi = pair(S, X, xi[:, None])
    gap = SXxi + (n - 1) * form(eta, X)
    res.add("curvature.ricci-xi", gap, SXxi)
    return res
