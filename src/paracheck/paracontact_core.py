"""(eps)-almost paracontact metric structures and their pointwise checks.

A :class:`ParacontactStructure` bundles jet-valued (phi, xi, eta, g) over a
batch of sample points with the sign eps = g(xi, xi).  The three check
operations measure, over the samples and random test vectors, the residuals
of the structure axioms, of the defining covariant-derivative equations, and
of the curvature identities those equations force.

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

    Basic invariants (eta(xi) = 1 and g(xi,xi) = eps, both to 1e-10) are
    enforced at construction, naming the first point where one fails; the
    geometric axioms are what the check operations measure, so they are
    deliberately not enforced here.
    """

    def __init__(self, points: np.ndarray, epsilon: int,
                 g: TensorValue, phi: TensorValue, xi: TensorValue, eta: TensorValue,
                 validate: bool = True):
        if epsilon not in (1, -1):
            raise ValueError(f"epsilon must be +1 or -1, got {epsilon}")
        self.points = np.asarray(points)
        self.epsilon = int(epsilon)
        self.g = g
        self.phi = phi
        self.xi = xi
        self.eta = eta
        if validate:
            self._validate_basic()

    def _validate_basic(self):
        xi = self.xi0
        for gap, invariant in ((np.einsum('pa,pa->p', self.eta0, xi) - 1.0, "eta(xi) = 1"),
                               (pair(self.g0, xi[:, None], xi[:, None])[:, 0] - self.epsilon,
                                "g(xi,xi) = eps (xi must not be lightlike)")):
            bad = np.flatnonzero(~(np.abs(gap) <= 1e-10))
            if bad.size:
                raise ValueError(f"structure invariant {invariant} violated at point "
                                 f"{tuple(self.points[bad[0]].tolist())}")

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
        return TensorValue(self.dim, 0, 2, np.swapaxes(comps, 1, 2), self.phi.space)

    @cached_property
    def Phi0(self) -> np.ndarray:
        return np.einsum('pma,pmb->pab', self.phi0, self.g0)

    @cached_property
    def ee0(self) -> np.ndarray:
        """Values of eta (x) eta, shape (P, n, n)."""
        return np.einsum('pa,pb->pab', self.eta0, self.eta0)

    def trace_phi(self) -> np.ndarray:
        return np.einsum('paa->p', self.phi0)

    # -- cached geometry ------------------------------------------------------

    @cached_property
    def connection(self) -> ConnectionAtPoint:
        return christoffel(self.g, self.points)

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
    """A (1,k) tensor op[p, a, b1, ..., bk] fed k bundles of vectors (P, V, n)
    (or (P, 1, n), broadcast): (P, V, n).  One matmul of the vectors' outer
    product against op's transpose; apply_op(phi, X) is phi X = X @ phi^T."""
    outer = vectors[0]
    for v in vectors[1:]:
        outer = outer[..., :, None] * v[..., None, :]
        outer = outer.reshape(outer.shape[:-2] + (-1,))
    return outer @ np.swapaxes(op.reshape(op.shape[:2] + (-1,)), 1, 2)


def pair(g: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """g(X, Y) over bundles of vectors: (P,n,n), (P,V,n), (P,V,n) -> (P,V)."""
    return np.sum((X @ g) * Y, axis=-1)


def form(eta: np.ndarray, X: np.ndarray) -> np.ndarray:
    return np.einsum('pa,pva->pv', eta, X)


# -- check operations ------------------------------------------------------------


def check_axioms(struct: ParacontactStructure, vectors: np.ndarray) -> StructureCheckResult:
    """Residuals of the seven structure axioms over random vector pairs.

    vectors has shape (npoints, nvectors, dim); pairs are consumed as
    (v[2k], v[2k+1]).
    """
    eps = struct.epsilon
    phi, xi, eta, g = struct.phi0, struct.xi0, struct.eta0, struct.g0
    X = vectors[:, 0::2]
    Y = vectors[:, 1::2]
    res = StructureCheckResult()

    phiX = apply_op(phi, X)
    phi2X = apply_op(phi, phiX)
    gap = phi2X - X + form(eta, X)[..., None] * xi[:, None, :]
    res.add("structure.phi-squared", gap, X, phi2X)

    res.add("structure.eta-of-xi", np.einsum('pa,pa->p', eta, xi) - 1.0, xi, eta)
    res.add("structure.phi-of-xi", apply_op(phi, xi[:, None, :]), xi)
    res.add("structure.eta-after-phi", form(eta, phiX), X, eta)

    phiY = apply_op(phi, Y)
    gap = pair(g, phiX, phiY) - pair(g, X, Y) + eps * form(eta, X) * form(eta, Y)
    res.add("structure.metric-compatibility", gap, pair(g, X, Y))

    gap = pair(g, X, phiY) - pair(g, phiX, Y)
    res.add("structure.phi-self-adjoint", gap, pair(g, X, phiY))

    gXxi = pair(g, X, xi[:, None])
    gap = gXxi - eps * form(eta, X)
    res.add("structure.metric-xi-eta", gap, gXxi)
    return res


def _defining_equation_terms(struct: ParacontactStructure, vectors: np.ndarray) -> tuple[np.ndarray, ...]:
    """The gap of the para-Sasakian defining equation
    (nabla_X phi) Y = -g(phi X, phi Y) xi - eps eta(Y) phi^2 X over the
    vector pairs (v[2k], v[2k+1]), then the tensors entering it: lhs, rhs, X, Y."""
    eps = struct.epsilon
    phi, xi, eta, g = struct.phi0, struct.xi0, struct.eta0, struct.g0
    X = vectors[:, 0::2]
    Y = vectors[:, 1::2]
    lhs = apply_op(struct.nabla_phi, X, Y)
    phiX = apply_op(phi, X)
    phi2X = apply_op(phi, phiX)
    rhs = -pair(g, phiX, apply_op(phi, Y))[..., None] * xi[:, None, :] - eps * form(eta, Y)[..., None] * phi2X
    return lhs - rhs, lhs, rhs, X, Y


def defining_equation_gap_per_point(struct: ParacontactStructure, vectors: np.ndarray) -> np.ndarray:
    """The residual of the para-Sasakian defining equation at each point: one
    scale for all points, so the max is the ``sasakian.defining-equation``
    residual."""
    return residual_norm(*_defining_equation_terms(struct, vectors), axis=(1, 2))


def check_para_sasakian(struct: ParacontactStructure, vectors: np.ndarray) -> StructureCheckResult:
    """Residuals of the defining covariant-derivative equations:

        (nabla_X phi) Y = -g(phi X, phi Y) xi - eps eta(Y) phi^2 X
        nabla xi = eps phi
        (nabla_X eta) Y = Phi(X, Y)

    plus the symmetry of Phi.
    """
    res = StructureCheckResult()
    res.add("sasakian.defining-equation", *_defining_equation_terms(struct, vectors))
    phi = struct.phi0
    res.add("sasakian.grad-xi", struct.nabla_xi - struct.epsilon * phi, phi)
    Phi = struct.Phi0
    res.add("sasakian.grad-eta", struct.nabla_eta - Phi, Phi)
    res.add("sasakian.fundamental-form-symmetric", Phi - np.swapaxes(Phi, 1, 2), Phi)
    return res


def check_ps_curvature_identities(struct: ParacontactStructure, vectors: np.ndarray) -> StructureCheckResult:
    """The four curvature identities of a para-Sasakian structure, evaluated
    over random vector triples.  Runs even when the defining equations fail."""
    eps = struct.epsilon
    n = struct.dim
    cur = struct.curvature
    R = cur.riemann_ud.components[..., 0]  # [p, l, i, j, k]
    S = cur.ricci.components[..., 0]
    phi, xi, eta, g = struct.phi0, struct.xi0, struct.eta0, struct.g0
    X = vectors[:, 0::2]
    Y = vectors[:, 1::2]
    Z = np.roll(Y, 1, axis=1)
    res = StructureCheckResult()

    # R(X,Y)xi = eta(X) Y - eta(Y) X
    RXYxi = apply_op(R, X, Y, xi[:, None])
    tgt = form(eta, X)[..., None] * Y - form(eta, Y)[..., None] * X
    res.add("curvature.r-xy-xi", RXYxi - tgt, RXYxi, tgt, X, Y)

    # R(X,Y) phi Z expansion
    Phi = struct.Phi0
    phiX = apply_op(phi, X)
    phiY = apply_op(phi, Y)
    phiZ = apply_op(phi, Z)
    RXYphiZ = apply_op(R, X, Y, phiZ)
    phiRXYZ = apply_op(phi, apply_op(R, X, Y, Z))
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
