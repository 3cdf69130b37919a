"""Suite orchestration: run named check suites on a model or bundle and
assemble a deterministic report.

Suites: structure, sasakian, curvature, einstein, lie (chart models and
bundles, run on the induced structure for bundles), hypersurface (bundles
only), synthetic (standalone pointwise trials), all.

Every record carries an anchor string tying it to the section and display it
verifies, so reports can be audited line by line against the source text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import einstein_like as el
from . import hypersurface_lab as hl
from .models import ManifoldModel, evaluate_structure
from .paracontact_core import (
    ALGEBRAIC_TOL,
    ParacontactStructure,
    StructureCheckResult,
    check_axioms,
    check_para_sasakian,
    check_ps_curvature_identities,
)
from .report import FAIL, CheckRecord, CheckReport, new_report
from .sampling import derive_rng, random_vectors, sample_points

SUITES = ("structure", "sasakian", "curvature", "einstein", "lie", "hypersurface", "synthetic", "all")
HYPERSURFACE_SUBSETS = ("induced", "gauss", "characterization", "all")

PS_GATE_TOLERANCE = 1e-6

ANCHORS = {
    "structure.phi-squared": "§2 axioms: phi^2 = I - eta(x)xi",
    "structure.eta-of-xi": "§2 axioms: eta(xi) = 1",
    "structure.phi-of-xi": "§2 axioms: phi xi = 0",
    "structure.eta-after-phi": "§2 axioms: eta o phi = 0",
    "structure.metric-compatibility": "§2: g(phi X, phi Y) = g(X,Y) - eps eta(X)eta(Y)",
    "structure.phi-self-adjoint": "§2: g(X, phi Y) = g(phi X, Y)",
    "structure.metric-xi-eta": "§2: g(X, xi) = eps eta(X)",
    "sasakian.defining-equation": "§2: (nabla_X phi)Y = -g(phi X, phi Y) xi - eps eta(Y) phi^2 X",
    "sasakian.grad-xi": "§2: nabla xi = eps phi",
    "sasakian.grad-eta": "§2: Phi(X,Y) = (nabla_X eta) Y",
    "sasakian.fundamental-form-symmetric": "§2: Phi(X,Y) = Phi(Y,X)",
    "curvature.r-xy-xi": "§3 proof: R(X,Y) xi = eta(X) Y - eta(Y) X",
    "curvature.r-xy-phi-z": "§3 proof: R(X,Y) phi Z expansion",
    "curvature.ricci-phi-symmetric": "§3 proof: S(X, phi Y) = S(phi X, Y)",
    "curvature.ricci-xi": "§3 proof: S(X, xi) = -(n-1) eta(X)",
    "einstein.fit": "§3 Defn: S = a g + b Phi + c eta(x)eta",
    "einstein.fit-stability": "§3 Defn: a, b, c constant across disjoint sample halves",
    "einstein.ricci-phi-display": "§3 Prop: S(phi X, Y) = a g(phi X, Y) + b g(phi X, phi Y)",
    "einstein.ricci-xi-display": "§3 Prop: S(X, xi) = (eps a + c) eta(X)",
    "einstein.eps-a-plus-c": "§3 Prop: eps a + c = 1 - n",
    "einstein.scalar-curvature-formula": "§3 Prop: r = n a + b trace(phi) + eps c",
    "einstein.ricci-operator-derivative": "§3 Thm proof: (nabla_Y Q) X display",
    "einstein.div-q-display": "§3 Thm proof: (div Q) X = (eps(1-n) b + c trace(phi)) eta(X)",
    "einstein.scalar-curvature-constant": "§3 Thm proof: r = b trace(phi) - eps(n-1)(c+n)",
    "einstein.dr-display": "§3 Thm proof: dr = 2 (eps(1-n) b + c trace(phi)) eta",
    "einstein.scalar-ode": "§3 Thm: b xi(r) - 2 c r = 2 eps (1-n)(b^2 - c^2 - c n)",
    "einstein.trace-phi-formula": "§3 Thm: trace(phi) = eps (n-1) b / c",
    "einstein.c11-symmetric": "§3: C11(phi R)(Y,Z) = C11(phi R)(Z,Y)",
    "einstein.s-phi-z-display": "§3: S(Y, phi Z) = C11(phi R) + eps(n-2) Phi + (2 eta eta - eps g) trace(phi)",
    "einstein.c11-decomposition-derived": "§3 Thm: C11(phi R) = lin. comb. of g, Phi, eta(x)eta (re-derived coefficient)",
    "einstein.c11-decomposition-printed": "§3 Thm: C11(phi R) = lin. comb. of g, Phi, eta(x)eta (printed coefficient)",
    "einstein.c11-parallel-along-xi": "§3 Cor: C11(phi R) parallel along xi",
    "lie.lie-eta": "§3: L_xi eta = 0",
    "lie.lie-g": "§3: L_xi g = 2 eps Phi",
    "lie.lie-phi-form-derived": "§3: L_xi Phi = 2 eps (g - eps eta(x)eta) (re-derived)",
    "lie.lie-phi-form-printed": "§3: L_xi Phi = 2 eps (g - eta(x)eta) (printed)",
    "lie.lie-ricci": "§3 Thm: L_xi S = 2 a eps Phi + 2 b eps (g - eps eta(x)eta)",
    "lie.lie-c11-derived": "§3 Thm: L_xi C11(phi R) display (re-derived second factor)",
    "lie.lie-c11-printed": "§3 Thm: L_xi C11(phi R) display (printed second factor)",
    "hypersurface.ambient-j-squared": "§4: J^2 = I",
    "hypersurface.ambient-j-metric": "§4: g~(JX, JY) = g~(X, Y)",
    "hypersurface.ambient-j-parallel": "§4: (nabla~_X J) Y = 0",
    "hypersurface.jn-tangent": "§4: JN = xi tangent to the hypersurface",
    "hypersurface.epsilon-consistent": "§4: g~(N, N) = eps constant over the samples",
    "hypersurface.shape-self-adjoint": "§4: g(A X, Y) = g(X, A Y)",
    "hypersurface.weingarten-tangent": "§4: nabla~_X N is tangential",
    "hypersurface.induced-axioms": "§4 Prop: induced (phi, xi, eta, g) is an almost paracontact metric structure",
    "hypersurface.induced-grad-phi": "§4 Prop: (nabla_X phi) Y = eta(Y) A X + eps g(A X, Y) xi",
    "hypersurface.induced-grad-eta": "§4 Prop: (nabla_X eta) Y = -eps g(A X, phi Y)",
    "hypersurface.induced-grad-xi": "§4 Prop: nabla_X xi = -phi A X",
    "hypersurface.gauss-equation": "§4: Gauss equation R = R~|tan + eps (h wedge h)",
    "hypersurface.characterization-iff": "§4 Thm: para-Sasakian iff A = -eps I + eps eta(x)xi",
    "hypersurface.characterization-linear-solve": "§4 Thm proof: A recovered uniquely from the displays",
    "hypersurface.quasi-umbilical": "§4 Rem: h = alpha g + beta u(x)u with alpha=-1, beta=eps, u=eta",
    "synthetic.quasi-umbilical-exact": "§4 Rem: h = -g + eps eta(x)eta by substitution",
    "synthetic.gauss-vs-derived-display": "§4: Gauss reduction vs re-derived display (identically in k)",
    "synthetic.gauss-vs-printed-display": "§4: Gauss reduction vs printed display (identically in k)",
    "synthetic.k-vs-derived": "§4: k from R(X,Y)xi identity on the computed reduction (= -eps)",
    "synthetic.k-vs-printed": "§4: printed expectation k = 2 - eps",
    "synthetic.ricci-vs-derived-form": "§4: induced Ricci vs re-derived form",
    "synthetic.ricci-vs-printed-form": "§4 Thm: induced Ricci vs printed display",
    "synthetic.printed-chain-self-consistency": "§4: printed display at k = 2-eps contracts to the printed Ricci",
    "synthetic.eps-a-plus-c": "§3 Prop: eps a + c = 1 - n on the induced Ricci",
    "synthetic.einstein-like-fit": "§4 Thm: the induced Ricci is Einstein like",
}


@dataclass
class RunConfig:
    points: int = 100
    seed: int = 42
    tol_scale: float = 1.0
    vector_tuples: int = 20
    trials: int = 100          # synthetic suite
    epsilon: int = 1           # synthetic suite
    dim: int = 3               # synthetic suite
    perturb_a: float = 0.0     # synthetic negative control
    hypersurface_subset: str = "all"
    extra: dict = field(default_factory=dict)


def _merge(report: CheckReport, prefix: str, result: StructureCheckResult, tol_scale: float):
    for c in result.checks:
        cid = f"{prefix}.{c.name}"
        tol = c.tolerance * tol_scale
        status = c.status if c.status is not None else ("pass" if c.residual <= tol else FAIL)
        report.checks.append(CheckRecord(
            id=cid,
            anchor=ANCHORS.get(cid, ""),
            residual=float(min(c.residual, 1e300)),
            tolerance=float(tol) if np.isfinite(tol) else 0.0,
            status=status,
            detail=c.detail,
        ))
    return report


class _ModelContext:
    """What every suite of one request shares: the structure, the test
    vectors, the para-Sasakian gate (run once; the sasakian suite reports
    it), the trace(phi)-constancy gate, the Einstein-like fit and C11(phi R)."""

    def __init__(self, struct: ParacontactStructure, name: str, cfg: RunConfig):
        self.struct = struct
        rng = derive_rng(cfg.seed, name, "vectors")
        self.vectors = random_vectors(rng, struct.npoints, 2 * cfg.vector_tuples, struct.dim)
        self.ps_gate = check_para_sasakian(struct, self.vectors)
        self.is_ps = max(c.residual for c in self.ps_gate.checks) <= PS_GATE_TOLERANCE
        self.trphi_const = el.trace_phi_constant(struct)
        self.fit: el.EinsteinLikeFit | None = None

    @cached_property
    def c11(self) -> el.C11Tensor:
        return el.compute_c11_phi_r(self.struct)


def _run_structure(report, ctx, cfg):
    _merge(report, "structure", check_axioms(ctx.struct, ctx.vectors), cfg.tol_scale)


def _run_sasakian(report, ctx, cfg):
    _merge(report, "sasakian", ctx.ps_gate, cfg.tol_scale)


def _run_curvature(report, ctx, cfg):
    res = check_ps_curvature_identities(ctx.struct, ctx.vectors, warn_not_sasakian=not ctx.is_ps)
    _merge(report, "curvature", res, cfg.tol_scale)


def _fit_with_stability(ctx: _ModelContext) -> tuple[el.EinsteinLikeFit, StructureCheckResult]:
    samples = el.einstein_samples(ctx.struct)
    fit = el.fit_einstein_like(samples)
    res = StructureCheckResult()
    res.add("fit", fit.residual, el.TWO_DERIVATIVE_TOL,
            f"(a,b,c) = ({fit.a:+.9g}, {fit.b:+.9g}, {fit.c:+.9g}), rank {fit.gram_rank}, "
            f"{len(fit.family)} family direction(s)")
    if len(samples) >= 6:
        half_a = el.fit_einstein_like(samples[0::2])
        half_b = el.fit_einstein_like(samples[1::2])
        gap = float(np.max(np.abs(half_a.min_norm - half_b.min_norm)))
        if half_a.gram_rank != half_b.gram_rank:
            res.add("fit-stability", np.inf, 1e-6, "rank differs between sample halves")
        else:
            res.add("fit-stability", gap, 1e-6, "minimum-norm members of disjoint half fits agree")
    else:
        res.add("fit-stability", 0.0, np.inf, "too few samples to split", status="not-applicable")
    ctx.fit = fit
    return fit, res


def _run_einstein(report, ctx, cfg):
    fit, fit_res = _fit_with_stability(ctx)
    _merge(report, "einstein", fit_res, cfg.tol_scale)
    _merge(report, "einstein",
           el.verify_coefficient_constraints(fit, ctx.struct, ctx.is_ps), cfg.tol_scale)
    _merge(report, "einstein", el.verify_scalar_ode(fit, ctx.struct, ctx.is_ps), cfg.tol_scale)
    _merge(report, "einstein", el.verify_trace_formula(fit, ctx.struct, ctx.is_ps), cfg.tol_scale)
    _merge(report, "einstein",
           el.verify_c11_decomposition(fit, ctx.c11, ctx.struct, ctx.is_ps), cfg.tol_scale)


def _run_lie(report, ctx, cfg):
    if ctx.fit is None:
        try:
            ctx.fit = el.fit_structure(ctx.struct)
        except ValueError:
            ctx.fit = None
    # C11(phi R) is read only behind both gates
    c11 = ctx.c11 if ctx.is_ps and ctx.trphi_const else None
    _merge(report, "lie",
           el.verify_lie_formulas(ctx.fit, ctx.struct, ctx.is_ps, ctx.trphi_const, c11), cfg.tol_scale)


_MODEL_RUNNERS = {
    "structure": _run_structure,
    "sasakian": _run_sasakian,
    "curvature": _run_curvature,
    "einstein": _run_einstein,
    "lie": _run_lie,
}


def _run_hypersurface(report: CheckReport, data: hl.HypersurfaceData, ctx: _ModelContext,
                      cfg: RunConfig, subset: str):
    if subset in ("gauss", "all"):
        _merge(report, "hypersurface", hl.check_ambient(data.ambient), cfg.tol_scale)
        res = StructureCheckResult()
        res.add("gauss-equation", hl.gauss_consistency_residual(data), 1e-6)
        _merge(report, "hypersurface", res, cfg.tol_scale)
    if subset in ("induced", "all"):
        res = StructureCheckResult()
        res.add("jn-tangent", data.tangency_residual, 1e-8)
        res.add("weingarten-tangent", data.frame_residual, 1e-8)
        res.add("shape-self-adjoint", hl.shape_self_adjoint_residual(data), 1e-8)
        res.add("epsilon-consistent", data.epsilon_residual, ALGEBRAIC_TOL,
                f"max |g~(N,N) - eps| over the samples, eps = {data.shape.epsilon:+d}")
        _merge(report, "hypersurface", res, cfg.tol_scale)
        axioms = check_axioms(data.structure, ctx.vectors)
        agg = StructureCheckResult()
        agg.add("induced-axioms", max(c.residual for c in axioms.checks), 1e-9,
                "max over the seven structure axioms on the induced structure")
        _merge(report, "hypersurface", agg, cfg.tol_scale)
        _merge(report, "hypersurface",
               hl.verify_induced_derivatives(data, ctx.vectors), cfg.tol_scale)
    if subset in ("characterization", "all"):
        _merge(report, "hypersurface",
               hl.check_ps_characterization(data, ctx.vectors), cfg.tol_scale)
        _merge(report, "hypersurface",
               hl.quasi_umbilical_check(data.shape, data.structure), cfg.tol_scale)


def run_suite(target: ManifoldModel | hl.HypersurfaceBundle, suite: str, cfg: RunConfig | None = None) -> CheckReport:
    """Run one suite (or 'all') against a chart model or a bundle."""
    cfg = cfg or RunConfig()
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    if suite == "synthetic":
        return run_synthetic(cfg)

    name = target.name
    report = new_report(name, suite, cfg.seed, cfg.points)

    if isinstance(target, hl.HypersurfaceBundle):
        pts_rng = derive_rng(cfg.seed, name, "points")
        points = sample_points(target.embedding.domain, cfg.points, pts_rng)
        data = hl.evaluate_bundle(target, points, require_tangent=False)
        if data.tangency_residual > 1e-8 * cfg.tol_scale:
            # induced-structure hypothesis violated: report just that and stop
            res = StructureCheckResult()
            res.add("jn-tangent", data.tangency_residual, 1e-8,
                    "g~(JN, N) != 0: JN is not tangent, the induced structure does not exist")
            _merge(report, "hypersurface", res, cfg.tol_scale)
            _merge(report, "hypersurface", hl.check_ambient(data.ambient), cfg.tol_scale)
            report.sort()
            return report
        ctx = _ModelContext(data.structure, name, cfg)
        if suite == "hypersurface":
            _run_hypersurface(report, data, ctx, cfg, cfg.hypersurface_subset)
        elif suite == "all":
            for s in ("structure", "sasakian", "curvature", "einstein", "lie"):
                _MODEL_RUNNERS[s](report, ctx, cfg)
            _run_hypersurface(report, data, ctx, cfg, "all")
        else:
            _MODEL_RUNNERS[suite](report, ctx, cfg)
        report.sort()
        return report

    if suite == "hypersurface":
        raise ValueError(f"suite 'hypersurface' needs a bundle target, got chart model {name!r}")
    pts_rng = derive_rng(cfg.seed, name, "points")
    points = sample_points(target.domain, cfg.points, pts_rng)
    struct = evaluate_structure(target, points)
    ctx = _ModelContext(struct, name, cfg)
    if suite == "all":
        for s in ("structure", "sasakian", "curvature", "einstein", "lie"):
            _MODEL_RUNNERS[s](report, ctx, cfg)
    else:
        _MODEL_RUNNERS[suite](report, ctx, cfg)
    report.sort()
    return report


def run_synthetic(cfg: RunConfig) -> CheckReport:
    """The pointwise Gauss-equation suite at (epsilon, dim) with the
    configured trial count."""
    name = f"synthetic(eps={cfg.epsilon:+d}, n={cfg.dim})"
    report = new_report(name, "synthetic", cfg.seed, cfg.trials)
    outcome = hl.synthetic_gauss_check(cfg.epsilon, cfg.dim, cfg.trials, cfg.seed,
                                       perturb_a=cfg.perturb_a)
    _merge(report, "synthetic", outcome.result, cfg.tol_scale)
    report.sort()
    return report
