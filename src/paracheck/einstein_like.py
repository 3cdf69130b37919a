"""Einstein-like decomposition of the Ricci tensor and its consequences.

The decomposition S = a g + b Phi + c eta(x)eta is fitted by rank-revealing
least squares over the sample points.  On both closed-form models Phi is
itself a combination of g and eta(x)eta, so the fit is rank 2 and (a, b, c)
is a one-parameter family; the fit reports the minimum-norm member plus the
nullspace direction rather than pretending the triple is unique, and every
downstream constraint is evaluated for family members t in {-1, 0, 1}.

Two of the published displays disagree with what substitution of the
verified intermediate identities yields (the eta(x)eta coefficient of the
trace-contraction decomposition, and the placement of eps in two Lie-
derivative right-hand sides).  For those, the re-derived form is normative
for pass/fail and the printed form is evaluated informationally; records for
the printed variants carry the ``printed-form-mismatch`` status when they
miss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry_engine import covariant_derivative, lie_derivative
from .paracontact_core import (
    ALGEBRAIC_TOL,
    ONE_DERIVATIVE_TOL,
    TWO_DERIVATIVE_TOL,
    ParacontactStructure,
    StructureCheckResult,
    residual_norm,
)
from .tensor_algebra import TensorValue, contract_with, lowest_space

RANK_THRESHOLD = 1e-10
DEGENERATE_C = 1e-8


@dataclass
class EinsteinLikeFit:
    """Minimum-norm (a, b, c) with the rank and nullspace of the fitting
    Gram system.  ``family`` rows are unit vectors spanning the solution
    family; empty when the fit is unique (rank 3)."""

    a: float
    b: float
    c: float
    residual: float
    gram_rank: int
    family: np.ndarray  # (k, 3)

    @property
    def min_norm(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])

    def members(self, ts=(-1.0, 0.0, 1.0)) -> list[np.ndarray]:
        """Family members min_norm + t * direction for each direction."""
        out = [self.min_norm]
        for v in self.family:
            for t in ts:
                if t != 0.0:
                    out.append(self.min_norm + t * v)
        return out


def fit_einstein_like(g: np.ndarray, Phi: np.ndarray, eta: np.ndarray, S: np.ndarray) -> EinsteinLikeFit:
    """Least-squares fit of S = a g + b Phi + c eta(x)eta over all sample
    points: g, Phi and S are (P, n, n) values, eta is (P, n).

    Rank comes from the singular values with a 1e-10 relative threshold; the
    returned solution is the minimum-norm one and ``family`` spans the
    nullspace.  Residual is the max componentwise reconstruction gap.
    """
    ee = np.einsum('pa,pb->pab', eta, eta)
    M = np.stack([g.ravel(), Phi.ravel(), ee.ravel()], axis=1)
    y = S.ravel()
    U, sv, Vt = np.linalg.svd(M, full_matrices=False)
    rank = int(np.sum(sv > RANK_THRESHOLD * sv[0]))
    coef = Vt[:rank].T @ ((U[:, :rank].T @ y) / sv[:rank])
    family = Vt[rank:]
    residual = float(np.max(np.abs(M @ coef - y)))
    return EinsteinLikeFit(a=float(coef[0]), b=float(coef[1]), c=float(coef[2]),
                           residual=residual, gram_rank=rank, family=family.copy())


# --------------------------------------------------------------------------
# consequence checks
# --------------------------------------------------------------------------


def _member_max(fit: EinsteinLikeFit, fn) -> tuple[float, str]:
    """Max residual of fn(a, b, c) over family members, with a short detail."""
    vals = [fn(*m) for m in fit.members()]
    return max(vals), f"max over {len(vals)} family member(s)"


def verify_coefficient_constraints(fit: EinsteinLikeFit, struct: ParacontactStructure) -> StructureCheckResult:
    """The algebraic consequences of the decomposition on any structure:

        S(phi X, Y) = a g(phi X, Y) + b g(phi X, phi Y)
        S(X, xi)    = (eps a + c) eta(X)
    """
    eps = struct.epsilon
    g, phi, eta, xi = struct.g0, struct.phi0, struct.eta0, struct.xi0
    S = struct.curvature.ricci.components[..., 0]
    Sphi = np.einsum('pmb,pma->pab', S, phi)        # S(phi e_a, e_b)
    gphi = np.einsum('pmb,pma->pab', g, phi)        # g(phi e_a, e_b)
    gphiphi = np.swapaxes(phi, 1, 2) @ g @ phi      # g(phi e_a, phi e_b)
    Sxi = np.einsum('pab,pb->pa', S, xi)
    res = StructureCheckResult()

    v, d = _member_max(fit, lambda a, b, c: residual_norm(Sphi - a * gphi - b * gphiphi, Sphi, g))
    res.add("ricci-phi-display", v, ONE_DERIVATIVE_TOL, d)

    v, d = _member_max(fit, lambda a, b, c: residual_norm(Sxi - (eps * a + c) * eta, Sxi, eta))
    res.add("ricci-xi-display", v, ONE_DERIVATIVE_TOL, d)
    return res


def verify_scalar_ode(fit: EinsteinLikeFit, struct: ParacontactStructure) -> StructureCheckResult:
    """The para-Sasakian consequences of the decomposition, ending in the
    scalar-curvature ODE:

        eps a + c = 1 - n
        r = n a + b trace(phi) + eps c
        (nabla_Y Q) X display
        (div Q) X = (eps (1-n) b + c trace(phi)) eta(X)
        r = b trace(phi) - eps (n-1)(c + n)
        dr = 2 (eps (1-n) b + c trace(phi)) eta
        b xi(r) - 2 c r = 2 eps (1-n)(b^2 - c^2 - c n)

    The theorem's statement announces two differential equations but displays
    exactly one; only the displayed equation is checked (recorded on the ode
    record's detail).
    """
    res = StructureCheckResult()
    eps = struct.epsilon
    n = struct.dim
    cur = struct.curvature
    g, phi, eta, xi = struct.g0, struct.phi0, struct.eta0, struct.xi0
    trphi = struct.trace_phi()
    r = cur.scalar[:, 0]
    dr = cur.dr
    divq = cur.div_q
    xir = np.einsum('pa,pa->p', dr, xi)

    v, d = _member_max(fit, lambda a, b, c: abs(eps * a + c - (1 - n)))
    res.add("eps-a-plus-c", v, ALGEBRAIC_TOL, d)
    v, d = _member_max(
        fit, lambda a, b, c: residual_norm(r - (n * a + b * trphi + eps * c), r))
    res.add("scalar-curvature-formula", v, ONE_DERIVATIVE_TOL, d)

    nablaQ = cur.nabla_ricci_op.components[..., 0]
    # [p, a, y(direction), x(argument)]
    eye = np.eye(n)

    def grad_q_gap(a, b, c):
        rhs = (-eps * b * np.einsum('px,ay->payx', eta, eye)
               + c * np.einsum('px,pay->payx', eta, phi)
               - np.einsum('pxy,pa->payx',
                           b * g - 2 * eps * b * np.einsum('px,py->pxy', eta, eta)
                           - eps * c * np.einsum('pmx,pmy->pxy', phi, g),
                           xi))
        return residual_norm(nablaQ - rhs, nablaQ, rhs)

    v, d = _member_max(fit, grad_q_gap)
    res.add("ricci-operator-derivative", v, TWO_DERIVATIVE_TOL, d)

    v, d = _member_max(fit, lambda a, b, c: residual_norm(
        divq - ((eps * (1 - n) * b + c * trphi) * eta.T).T, divq, eta))
    res.add("div-q-display", v, TWO_DERIVATIVE_TOL, d)

    v, d = _member_max(fit, lambda a, b, c: residual_norm(
        r - (b * trphi - eps * (n - 1) * (c + n)), r))
    res.add("scalar-curvature-constant", v, ONE_DERIVATIVE_TOL, d)

    v, d = _member_max(fit, lambda a, b, c: residual_norm(
        dr - 2 * ((eps * (1 - n) * b + c * trphi) * eta.T).T, dr, eta))
    res.add("dr-display", v, TWO_DERIVATIVE_TOL, d)

    v, d = _member_max(fit, lambda a, b, c: residual_norm(
        b * xir - 2 * c * r - 2 * eps * (1 - n) * (b**2 - c**2 - c * n), r))
    res.add("scalar-ode", v, ONE_DERIVATIVE_TOL,
            d + "; statement announces two differential equations, displays one; the displayed one is checked")
    return res


def verify_trace_formula(fit: EinsteinLikeFit, struct: ParacontactStructure) -> StructureCheckResult:
    """trace(phi) = eps (n-1) b / c for every family member with c away from
    zero; degenerate members are skipped, and the check is vacuous when all
    of them are."""
    res = StructureCheckResult()
    eps = struct.epsilon
    n = struct.dim
    trphi = struct.trace_phi()
    gaps = []
    skipped = 0
    for a, b, c in fit.members():
        if abs(c) < DEGENERATE_C:
            skipped += 1
            continue
        gaps.append(float(np.max(np.abs(trphi - eps * (n - 1) * b / c))))
    if not gaps:
        res.add("trace-phi-formula", 0.0, np.inf, "vacuous: every family member has c = 0", status="vacuous")
        return res
    detail = f"{len(gaps)} member(s) checked" + (f", {skipped} degenerate (c=0) skipped" if skipped else "")
    res.add("trace-phi-formula", max(gaps), ONE_DERIVATIVE_TOL, detail)
    return res


# --------------------------------------------------------------------------
# the trace-contraction tensor of phi o R
# --------------------------------------------------------------------------


@dataclass
class C11Tensor:
    """(0,2) contraction C(Y,Z) = trace of X -> phi R(X,Y) Z, jet-valued."""

    tensor: TensorValue  # (0,2) jets

    @property
    def values(self) -> np.ndarray:
        return self.tensor.components[..., 0]

    def symmetry_residual(self) -> float:
        v = self.values
        return residual_norm(v - np.swapaxes(v, 1, 2), v)


def compute_c11_phi_r(struct: ParacontactStructure) -> C11Tensor:
    R = struct.curvature.riemann_ud
    phiR = contract_with(struct.phi, R, 1, 0)  # [p, l, i, j, k, m]
    comps = np.trace(phiR, axis1=1, axis2=2)   # trace l = i -> [p, j, k, m]
    return C11Tensor(TensorValue(struct.dim, 0, 2, comps, lowest_space(struct.phi.space, R.space)))


def verify_c11_identities(c11: C11Tensor, struct: ParacontactStructure) -> StructureCheckResult:
    """Symmetry of the contraction and the S(Y, phi Z) display."""
    eps = struct.epsilon
    n = struct.dim
    g, eta = struct.g0, struct.eta0
    ee = np.einsum('pa,pb->pab', eta, eta)
    trphi = struct.trace_phi()[:, None, None]
    res = StructureCheckResult()
    res.add("c11-symmetric", c11.symmetry_residual(), ALGEBRAIC_TOL)
    S = struct.curvature.ricci.components[..., 0]
    SphiZ = np.einsum('pym,pmz->pyz', S, struct.phi0)   # S(Y, phi Z)
    rhs = c11.values + eps * (n - 2) * struct.Phi0 + (2 * ee - eps * g) * trphi
    res.add("s-phi-z-display", residual_norm(SphiZ - rhs, SphiZ, rhs), ONE_DERIVATIVE_TOL)
    return res


def verify_c11_decomposition(fit: EinsteinLikeFit, c11: C11Tensor,
                             struct: ParacontactStructure) -> StructureCheckResult:
    """The constant-coefficient decomposition of the contraction on a
    para-Sasakian structure (re-derived eta(x)eta coefficient normative,
    printed one informational), and parallelism along xi."""
    eps = struct.epsilon
    n = struct.dim
    g, eta = struct.g0, struct.eta0
    Phi = struct.Phi0
    ee = np.einsum('pa,pb->pab', eta, eta)
    C = c11.values
    res = StructureCheckResult()
    derived_gaps, printed_gaps = [], []
    skipped = 0
    for a, b, c in fit.members():
        if abs(c) < DEGENERATE_C:
            skipped += 1
            continue
        common = (b / c) * (c + n - 1) * g + (a - eps * (n - 2)) * Phi
        derived = common - (eps * b / c) * (c + 2 * (n - 1)) * ee
        printed = common - (eps / c) * (c + 2 * b * (n - 1)) * ee
        derived_gaps.append(residual_norm(C - derived, C, derived))
        printed_gaps.append(residual_norm(C - printed, C, printed))
    if not derived_gaps:
        for name in ("c11-decomposition-derived", "c11-decomposition-printed"):
            res.add(name, 0.0, np.inf, "vacuous: every family member has c = 0", status="vacuous")
    else:
        note = f", {skipped} degenerate member(s) skipped" if skipped else ""
        res.add("c11-decomposition-derived", max(derived_gaps), TWO_DERIVATIVE_TOL,
                "re-derived eta(x)eta coefficient -(eps b/c)(c + 2(n-1))" + note)
        printed = max(printed_gaps)
        res.add("c11-decomposition-printed", printed, TWO_DERIVATIVE_TOL,
                "printed eta(x)eta coefficient -(eps/c)(c + 2b(n-1)); informational" + note,
                status="printed-form-mismatch" if printed > TWO_DERIVATIVE_TOL else None)

    nabla_c11 = covariant_derivative(c11.tensor, struct.connection)
    par = np.einsum('piab,pi->pab', nabla_c11.components[..., 0], struct.xi0)
    res.add("c11-parallel-along-xi", residual_norm(par, C), TWO_DERIVATIVE_TOL)
    return res


def verify_lie_formulas(struct: ParacontactStructure) -> StructureCheckResult:
    """Lie derivatives along xi of eta, g and Phi.

    Normative forms (re-derived; they collapse to the printed ones at
    eps = +1):

        L_xi eta = 0
        L_xi g   = 2 eps Phi
        L_xi Phi = 2 eps (g - eps eta(x)eta)

    The printed variant with (g - eta(x)eta) is evaluated informationally.
    """
    eps = struct.epsilon
    conn = struct.connection
    g, eta = struct.g0, struct.eta0
    Phi = struct.Phi0
    ee = np.einsum('pa,pb->pab', eta, eta)
    res = StructureCheckResult()

    Leta = lie_derivative(struct.eta, struct.xi, conn).components[..., 0]
    res.add("lie-eta", residual_norm(Leta, eta), ALGEBRAIC_TOL)

    Lg = lie_derivative(struct.g, struct.xi, conn).components[..., 0]
    res.add("lie-g", residual_norm(Lg - 2 * eps * Phi, Lg, Phi), ONE_DERIVATIVE_TOL)

    LPhi = lie_derivative(struct.Phi, struct.xi, conn).components[..., 0]
    derived = 2 * eps * (g - eps * ee)
    printed = 2 * eps * (g - ee)
    res.add("lie-phi-form-derived", residual_norm(LPhi - derived, LPhi, derived), ONE_DERIVATIVE_TOL,
            "re-derived right side 2 eps (g - eps eta(x) eta)")
    pgap = residual_norm(LPhi - printed, LPhi, printed)
    res.add("lie-phi-form-printed", pgap, ONE_DERIVATIVE_TOL,
            "printed right side 2 eps (g - eta(x)eta); informational",
            status="printed-form-mismatch" if pgap > ONE_DERIVATIVE_TOL else None)
    return res


def verify_lie_ricci(fit: EinsteinLikeFit, struct: ParacontactStructure) -> StructureCheckResult:
    """L_xi S = 2 a eps Phi + 2 b eps (g - eps eta(x)eta) on a para-Sasakian
    structure."""
    eps = struct.epsilon
    g, Phi = struct.g0, struct.Phi0
    ee = np.einsum('pa,pb->pab', struct.eta0, struct.eta0)
    LS = lie_derivative(struct.curvature.ricci, struct.xi, struct.connection).components[..., 0]
    v, d = _member_max(fit, lambda a, b, c: residual_norm(
        LS - (2 * a * eps * Phi + 2 * b * eps * (g - eps * ee)), LS))
    res = StructureCheckResult()
    res.add("lie-ricci", v, TWO_DERIVATIVE_TOL, d)
    return res


def verify_lie_c11(fit: EinsteinLikeFit, c11: C11Tensor, struct: ParacontactStructure) -> StructureCheckResult:
    """On a para-Sasakian structure with constant trace(phi), the re-derived

        L_xi C11 = (2 eps b / c)(c + n - 1) Phi + 2 eps (a - eps(n-2))(g - eps eta(x)eta)

    and, informationally, the printed variant with (g - eta(x)eta)."""
    eps = struct.epsilon
    n = struct.dim
    g, Phi = struct.g0, struct.Phi0
    ee = np.einsum('pa,pb->pab', struct.eta0, struct.eta0)
    res = StructureCheckResult()
    LC = lie_derivative(c11.tensor, struct.xi, struct.connection).components[..., 0]
    dgaps, pgaps, skipped = [], [], 0
    for a, b, c in fit.members():
        if abs(c) < DEGENERATE_C:
            skipped += 1
            continue
        lead = (2 * eps * b / c) * (c + n - 1) * Phi
        dgaps.append(residual_norm(LC - (lead + 2 * eps * (a - eps * (n - 2)) * (g - eps * ee)), LC))
        pgaps.append(residual_norm(LC - (lead + 2 * eps * (a - eps * (n - 2)) * (g - ee)), LC))
    if not dgaps:
        for name in ("lie-c11-derived", "lie-c11-printed"):
            res.add(name, 0.0, np.inf, "vacuous: every family member has c = 0", status="vacuous")
        return res
    note = f", {skipped} degenerate member(s) skipped" if skipped else ""
    res.add("lie-c11-derived", max(dgaps), TWO_DERIVATIVE_TOL,
            "re-derived second factor (g - eps eta(x)eta)" + note)
    res.add("lie-c11-printed", max(pgaps), TWO_DERIVATIVE_TOL,
            "printed second factor (g - eta(x)eta); informational" + note,
            status="printed-form-mismatch" if max(pgaps) > TWO_DERIVATIVE_TOL else None)
    return res
