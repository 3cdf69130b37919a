"""(eps)-almost paracontact metric structures and their pointwise checks.

A :class:`ParacontactStructure` bundles jet-valued (phi, xi, eta, g) over a
batch of sample points with the sign eps = g(xi, xi).  The three check
operations measure, over the samples and random test vectors, the residuals
of the structure axioms, of the defining covariant-derivative equations, and
of the curvature identities those equations force.

Residual convention: max over components of the identity gap, normalized by
(1 + max magnitude of the tensors entering the identity).  This keeps the
numbers comparable across models with very different metric scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry_engine import ConnectionAtPoint, CurvatureAtPoint, christoffel, covariant_derivative, curvature
from .report import FAIL, status_of
from .tensor_algebra import TensorValue, contract_with


def residual_norm(gap: np.ndarray, *inputs: np.ndarray) -> float:
    """Scale-stable residual: max |gap| / (1 + max input magnitude); a NaN
    in the gap or an input gives NaN."""
    if not gap.size:
        return 0.0
    peaks = [float(np.max(np.abs(x))) for x in inputs if x.size]
    if any(map(math.isnan, peaks)):
        return math.nan
    return float(np.max(np.abs(gap))) / (1.0 + max(peaks, default=0.0))


@dataclass
class IdentityResidual:
    """One record under its full ``suites.CHECKS`` id.  ``status`` is set
    only on a record with nothing measured (vacuous or not-applicable); a
    measured record's status follows from its row."""

    id: str
    residual: float
    detail: str = ""
    status: str | None = None

    @property
    def effective_status(self) -> str:
        """The status at tolerance scale 1."""
        from .suites import CHECKS   # suites imports this module

        row = CHECKS[self.id]
        return self.status or status_of(self.residual, row.tol, row.informational)

    @property
    def passed(self) -> bool:
        return self.effective_status != FAIL


@dataclass
class StructureCheckResult:
    """Records by id, with their statuses at tolerance scale 1."""

    checks: list[IdentityResidual] = field(default_factory=list)

    def add(self, cid: str, residual: float, detail: str = "", status: str | None = None):
        self.checks.append(IdentityResidual(cid, float(residual), detail, status))

    def get(self, cid: str) -> IdentityResidual:
        for c in self.checks:
            if c.id == cid:
                return c
        raise KeyError(cid)

    def residual(self, cid: str) -> float:
        return self.get(cid).residual

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_names(self) -> list[str]:
        return [c.id for c in self.checks if not c.passed]


class ParacontactStructure:
    """Jet-valued structure tensors over a batch of sample points.  Each
    tensor's jet space is the order it was evaluated to: g to the order the
    requested suite reads, phi, xi and eta to at most one derivative.

    Basic invariants (eta(xi) = 1 and g(xi,xi) = eps, both to 1e-10) are
    enforced at construction; the geometric axioms are what the check
    operations measure, so they are deliberately not enforced here.
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
        eta_xi = np.einsum('pa,pa->p', self.eta0, self.xi0)
        if np.max(np.abs(eta_xi - 1.0)) > 1e-10:
            raise ValueError("structure invariant eta(xi) = 1 violated")
        g_xi_xi = pair(self.g0, self.xi0[:, None], self.xi0[:, None])[:, 0]
        if np.max(np.abs(g_xi_xi - self.epsilon)) > 1e-10:
            raise ValueError("structure invariant g(xi,xi) = eps violated (xi must not be lightlike)")

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

    @property
    def Phi(self) -> TensorValue:
        """The fundamental 2-form Phi_{ab} = g(phi e_a, e_b) as jets."""
        comps = contract_with(self.g, self.phi, 0, 0)  # g_{mb} phi^m_a -> [b, a]
        return TensorValue(self.dim, 0, 2, np.swapaxes(comps, 1, 2), self.phi.space)

    @property
    def Phi0(self) -> np.ndarray:
        return np.einsum('pma,pmb->pab', self.phi0, self.g0)

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
        return covariant_derivative(T, self.connection).components[..., 0]

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
    res.add("structure.phi-squared", residual_norm(gap, X, phi2X))

    res.add("structure.eta-of-xi", residual_norm(np.einsum('pa,pa->p', eta, xi) - 1.0, xi, eta))
    res.add("structure.phi-of-xi", residual_norm(apply_op(phi, xi[:, None, :]), xi))
    res.add("structure.eta-after-phi", residual_norm(form(eta, phiX), X, eta))

    phiY = apply_op(phi, Y)
    gap = pair(g, phiX, phiY) - pair(g, X, Y) + eps * form(eta, X) * form(eta, Y)
    res.add("structure.metric-compatibility", residual_norm(gap, pair(g, X, Y)))

    gap = pair(g, X, phiY) - pair(g, phiX, Y)
    res.add("structure.phi-self-adjoint", residual_norm(gap, pair(g, X, phiY)))

    gXxi = pair(g, X, xi[:, None])
    gap = gXxi - eps * form(eta, X)
    res.add("structure.metric-xi-eta", residual_norm(gap, gXxi))
    return res


def defining_equation_gap_per_point(struct: ParacontactStructure, vectors: np.ndarray) -> np.ndarray:
    """Pointwise normalized residual of the para-Sasakian defining equation
    (nabla_X phi) Y = -g(phi X, phi Y) xi - eps eta(Y) phi^2 X over the
    vector pairs (v[2k], v[2k+1]); one scale for all points, so the max is
    the :func:`residual_norm` of the whole gap."""
    eps = struct.epsilon
    phi, xi, eta, g = struct.phi0, struct.xi0, struct.eta0, struct.g0
    X = vectors[:, 0::2]
    Y = vectors[:, 1::2]
    lhs = apply_op(struct.nabla_phi, X, Y)
    phiX = apply_op(phi, X)
    phi2X = apply_op(phi, phiX)
    rhs = -pair(g, phiX, apply_op(phi, Y))[..., None] * xi[:, None, :] - eps * form(eta, Y)[..., None] * phi2X
    scale = 1.0 + np.max([np.max(np.abs(x)) for x in (lhs, rhs, X, Y)])
    return np.max(np.abs(lhs - rhs), axis=(1, 2)) / scale


def check_para_sasakian(struct: ParacontactStructure, vectors: np.ndarray) -> StructureCheckResult:
    """Residuals of the defining covariant-derivative equations:

        (nabla_X phi) Y = -g(phi X, phi Y) xi - eps eta(Y) phi^2 X
        nabla xi = eps phi
        (nabla_X eta) Y = Phi(X, Y)

    plus the symmetry of Phi.
    """
    res = StructureCheckResult()
    res.add("sasakian.defining-equation", np.max(defining_equation_gap_per_point(struct, vectors)))
    phi = struct.phi0
    res.add("sasakian.grad-xi", residual_norm(struct.nabla_xi - struct.epsilon * phi, phi))
    Phi = struct.Phi0
    res.add("sasakian.grad-eta", residual_norm(struct.nabla_eta - Phi, Phi))
    res.add("sasakian.fundamental-form-symmetric", residual_norm(Phi - np.swapaxes(Phi, 1, 2), Phi))
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
    res.add("curvature.r-xy-xi", residual_norm(RXYxi - tgt, RXYxi, tgt, X, Y))

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
    res.add("curvature.r-xy-phi-z", residual_norm(RXYphiZ - rhs, RXYphiZ, rhs, X, Y, Z))

    # S(X, phi Y) = S(phi X, Y)
    gap = pair(S, X, phiY) - pair(S, phiX, Y)
    res.add("curvature.ricci-phi-symmetric", residual_norm(gap, pair(S, X, phiY)))

    # S(X, xi) = -(n-1) eta(X)
    SXxi = pair(S, X, xi[:, None])
    gap = SXxi + (n - 1) * form(eta, X)
    res.add("curvature.ricci-xi", residual_norm(gap, SXxi))
    return res
