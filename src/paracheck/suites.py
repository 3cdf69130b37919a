"""Suite orchestration: run named check suites on a model or bundle and
assemble a deterministic report.

Suites: structure, sasakian, curvature, einstein, lie (chart models and
bundles, run on the induced structure for bundles), hypersurface (bundles
only), synthetic (standalone pointwise trials), all.

:data:`CHECKS` is the one place a record is declared.  Its row for an id
holds the anchor tying the record to the section and display it verifies,
so reports can be audited line by line against the source text; the
tolerance at scale 1; the gates it sits behind; and whether it is
informational, a published display that the re-derived record overrules.
The check functions only measure, adding records under their full ids.  The
runner here calls a gated group only when its gates hold and otherwise
reports each of its records ``not-applicable``, naming the gate that decided
it; :func:`_merge` gives every measured record the row's tolerance times
``--tol-scale`` and the status of :func:`report.status_of`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import einstein_like as el
from . import hypersurface_lab as hl
from .models import METRIC_ORDER, ManifoldModel, evaluate_structure
from .paracontact_core import (
    ParacontactStructure,
    StructureCheckResult,
    check_axioms,
    check_para_sasakian,
    check_ps_curvature_identities,
)
from .report import NOT_APPLICABLE, CheckRecord, CheckReport, new_report, status_of
from .sampling import derive_rng, random_vectors, sample_points

SUITES = ("structure", "sasakian", "curvature", "einstein", "lie", "hypersurface", "synthetic", "all")
HYPERSURFACE_SUBSETS = ("induced", "gauss", "characterization", "all")

# gate -> (what the run context measures for it, threshold); a gate holds
# when the measured value is at most the threshold
GATES = {
    "para-sasakian": ("defining-equation residual", 1e-6),
    "trace-phi-constant": ("spread of trace(phi) over the samples", 1e-7),
    "shape-characterized": ("max gap of A to -eps I + eps eta(x)xi", 1e-2),
}
PS = ("para-sasakian",)
PS_TRPHI = ("para-sasakian", "trace-phi-constant")
SHAPE = ("shape-characterized",)

# metric jet order each request kind reads: values for the axioms, Gamma values (order 1) for the para-Sasakian
# and induced displays, R values (2) for the curvature identities and the Gauss equation, a derivative of Ricci
# (3) for the Einstein-like and Lie displays; no gate reads above order 1
METRIC_ORDERS = {"structure": 0, "sasakian": 1, "curvature": 2, "einstein": METRIC_ORDER, "lie": METRIC_ORDER,
                 "all": METRIC_ORDER, "hypersurface induced": 1, "hypersurface characterization": 1,
                 "hypersurface gauss": 2, "hypersurface all": 2}


# tolerance tiers of the rows at scale 1, by the number of derivatives an
# identity reads: algebraic, one, two and three
ALG, D1, D2, D3 = 1e-9, 1e-8, 1e-7, 1e-6


class Check(NamedTuple):
    """One record id's row: its source anchor, its tolerance at scale 1, the
    gates it sits behind in the order they are decided, and whether it is
    informational."""

    anchor: str
    tol: float
    gates: tuple[str, ...] = ()
    informational: bool = False


CHECKS = {
    "structure.phi-squared": Check("§2 axioms: phi^2 = I - eta(x)xi", ALG),
    "structure.eta-of-xi": Check("§2 axioms: eta(xi) = 1", ALG),
    "structure.phi-of-xi": Check("§2 axioms: phi xi = 0", ALG),
    "structure.eta-after-phi": Check("§2 axioms: eta o phi = 0", ALG),
    "structure.metric-compatibility": Check("§2: g(phi X, phi Y) = g(X,Y) - eps eta(X)eta(Y)", ALG),
    "structure.phi-self-adjoint": Check("§2: g(X, phi Y) = g(phi X, Y)", ALG),
    "structure.metric-xi-eta": Check("§2: g(X, xi) = eps eta(X)", ALG),
    "sasakian.defining-equation": Check("§2: (nabla_X phi)Y = -g(phi X, phi Y) xi - eps eta(Y) phi^2 X", D1),
    "sasakian.grad-xi": Check("§2: nabla xi = eps phi", D1),
    "sasakian.grad-eta": Check("§2: Phi(X,Y) = (nabla_X eta) Y", D1),
    "sasakian.fundamental-form-symmetric": Check("§2: Phi(X,Y) = Phi(Y,X)", ALG),
    "curvature.r-xy-xi": Check("§3 proof: R(X,Y) xi = eta(X) Y - eta(Y) X", D2),
    "curvature.r-xy-phi-z": Check("§3 proof: R(X,Y) phi Z expansion", D2),
    "curvature.ricci-phi-symmetric": Check("§3 proof: S(X, phi Y) = S(phi X, Y)", D2),
    "curvature.ricci-xi": Check("§3 proof: S(X, xi) = -(n-1) eta(X)", D2),
    "einstein.fit": Check("§3 Defn: S = a g + b Phi + c eta(x)eta", D2),
    "einstein.fit-stability": Check("§3 Defn: a, b, c constant across disjoint sample halves", 1e-6),
    "einstein.ricci-phi-display": Check("§3 Prop: S(phi X, Y) = a g(phi X, Y) + b g(phi X, phi Y)", D1),
    "einstein.ricci-xi-display": Check("§3 Prop: S(X, xi) = (eps a + c) eta(X)", D1),
    "einstein.eps-a-plus-c": Check("§3 Prop: eps a + c = 1 - n", ALG, PS),
    "einstein.scalar-curvature-formula": Check("§3 Prop: r = n a + b trace(phi) + eps c", D1, PS),
    "einstein.ricci-operator-derivative": Check("§3 Thm proof: (nabla_Y Q) X display", D2, PS),
    "einstein.div-q-display": Check("§3 Thm proof: (div Q) X = (eps(1-n) b + c trace(phi)) eta(X)", D2, PS),
    "einstein.scalar-curvature-constant": Check("§3 Thm proof: r = b trace(phi) - eps(n-1)(c+n)", D1, PS),
    "einstein.dr-display": Check("§3 Thm proof: dr = 2 (eps(1-n) b + c trace(phi)) eta", D2, PS),
    "einstein.scalar-ode": Check("§3 Thm: b xi(r) - 2 c r = 2 eps (1-n)(b^2 - c^2 - c n)", D1, PS),
    "einstein.trace-phi-formula": Check("§3 Thm: trace(phi) = eps (n-1) b / c", D1, PS_TRPHI),
    "einstein.c11-symmetric": Check("§3: C11(phi R)(Y,Z) = C11(phi R)(Z,Y)", ALG),
    "einstein.s-phi-z-display":
        Check("§3: S(Y, phi Z) = C11(phi R) + eps(n-2) Phi + (2 eta eta - eps g) trace(phi)", D1),
    "einstein.c11-decomposition-derived":
        Check("§3 Thm: C11(phi R) = lin. comb. of g, Phi, eta(x)eta (re-derived coefficient)", D2, PS),
    "einstein.c11-decomposition-printed": Check(
        "§3 Thm: C11(phi R) = lin. comb. of g, Phi, eta(x)eta (printed coefficient)", D2, PS, informational=True),
    "einstein.c11-parallel-along-xi": Check("§3 Cor: C11(phi R) parallel along xi", D2, PS),
    "lie.lie-eta": Check("§3: L_xi eta = 0", ALG),
    "lie.lie-g": Check("§3: L_xi g = 2 eps Phi", D1),
    "lie.lie-phi-form-derived": Check("§3: L_xi Phi = 2 eps (g - eps eta(x)eta) (re-derived)", D1),
    "lie.lie-phi-form-printed": Check("§3: L_xi Phi = 2 eps (g - eta(x)eta) (printed)", D1, informational=True),
    "lie.lie-ricci": Check("§3 Thm: L_xi S = 2 a eps Phi + 2 b eps (g - eps eta(x)eta)", D2, PS),
    "lie.lie-c11-derived": Check("§3 Thm: L_xi C11(phi R) display (re-derived second factor)", D2, PS_TRPHI),
    "lie.lie-c11-printed":
        Check("§3 Thm: L_xi C11(phi R) display (printed second factor)", D2, PS_TRPHI, informational=True),
    "hypersurface.ambient-j-squared": Check("§4: J^2 = I", ALG),
    "hypersurface.ambient-j-metric": Check("§4: g~(JX, JY) = g~(X, Y)", ALG),
    "hypersurface.ambient-j-parallel": Check("§4: (nabla~_X J) Y = 0", D1),
    "hypersurface.jn-tangent": Check("§4: JN = xi tangent to the hypersurface", D1),
    "hypersurface.epsilon-consistent": Check("§4: g~(N, N) = eps constant over the samples", ALG),
    "hypersurface.shape-self-adjoint": Check("§4: g(A X, Y) = g(X, A Y)", D1),
    "hypersurface.weingarten-tangent": Check("§4: nabla~_X N is tangential", D1),
    "hypersurface.induced-axioms":
        Check("§4 Prop: induced (phi, xi, eta, g) is an almost paracontact metric structure", ALG),
    "hypersurface.induced-grad-phi": Check("§4 Prop: (nabla_X phi) Y = eta(Y) A X + eps g(A X, Y) xi", D2),
    "hypersurface.induced-grad-eta": Check("§4 Prop: (nabla_X eta) Y = -eps g(A X, phi Y)", D2),
    "hypersurface.induced-grad-xi": Check("§4 Prop: nabla_X xi = -phi A X", D2),
    "hypersurface.gauss-equation": Check("§4: Gauss equation R = R~|tan + eps (h wedge h)", D3),
    "hypersurface.characterization-iff": Check("§4 Thm: para-Sasakian iff A = -eps I + eps eta(x)xi", 0.5),
    "hypersurface.characterization-linear-solve": Check("§4 Thm proof: A recovered uniquely from the displays", D1),
    "hypersurface.quasi-umbilical":
        Check("§4 Rem: h = alpha g + beta u(x)u with alpha=-1, beta=eps, u=eta", ALG, SHAPE),
    "synthetic.quasi-umbilical-exact": Check("§4 Rem: h = -g + eps eta(x)eta by substitution", 1e-12),
    "synthetic.gauss-vs-derived-display":
        Check("§4: Gauss reduction vs re-derived display (identically in k)", 1e-10),
    "synthetic.gauss-vs-printed-display":
        Check("§4: Gauss reduction vs printed display (identically in k)", 1e-10, informational=True),
    "synthetic.k-vs-derived": Check("§4: k from R(X,Y)xi identity on the computed reduction (= -eps)", 1e-10),
    "synthetic.k-vs-printed": Check("§4: printed expectation k = 2 - eps", 1e-10, informational=True),
    "synthetic.ricci-vs-derived-form": Check("§4: induced Ricci vs re-derived form", 1e-10),
    "synthetic.ricci-vs-printed-form": Check("§4 Thm: induced Ricci vs printed display", 1e-10, informational=True),
    "synthetic.printed-chain-self-consistency":
        Check("§4: printed display at k = 2-eps contracts to the printed Ricci", 1e-10),
    "synthetic.eps-a-plus-c": Check("§3 Prop: eps a + c = 1 - n on the induced Ricci", 1e-10),
    "synthetic.einstein-like-fit": Check("§4 Thm: the induced Ricci is Einstein like", 1e-10),
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

    def __post_init__(self):
        if not 0.0 < self.tol_scale < math.inf:
            raise ValueError(f"--tol-scale must be a finite number > 0, got {self.tol_scale}")
        if not math.isfinite(self.perturb_a):
            raise ValueError(f"--perturb-a must be finite, got {self.perturb_a}")
        if self.dim > hl.SYNTHETIC_MAX_DIM:
            raise ValueError(f"--dim must be at most {hl.SYNTHETIC_MAX_DIM}, got {self.dim}")
        if self.hypersurface_subset not in HYPERSURFACE_SUBSETS:
            raise ValueError(f"unknown hypersurface subset {self.hypersurface_subset!r}")


def _merge(report: CheckReport, tol_scale: float, *results: StructureCheckResult):
    """Report each record with its CHECKS row: a measured one at the row's
    tolerance times ``tol_scale``, with a non-finite residual written as
    1e300; one with nothing measured at tolerance 0 with its own status."""
    for c in (c for result in results for c in result.checks):
        row = CHECKS[c.id]
        tol = 0.0 if c.status else row.tol * tol_scale
        report.checks.append(CheckRecord(
            id=c.id,
            anchor=row.anchor,
            residual=c.residual if c.residual <= 1e300 else 1e300,
            tolerance=tol,
            status=c.status or status_of(c.residual, tol, row.informational),
            detail=c.detail,
        ))


class _ModelContext:
    """What every suite of one request shares: the structure (and, for a
    bundle, its hypersurface data) and the test vectors; the axiom checks
    (the structure suite and the induced-axioms record report them), the
    para-Sasakian gate run (the sasakian suite reports it), the value
    measured for each gate, and the Einstein-like fit and C11(phi R), each
    built on first use."""

    def __init__(self, struct: ParacontactStructure, name: str, cfg: RunConfig,
                 data: hl.HypersurfaceData | None = None):
        self.struct = struct
        self.data = data
        rng = derive_rng(cfg.seed, name, "vectors")
        self.vectors = random_vectors(rng, struct.npoints, 2 * cfg.vector_tuples, struct.dim)

    @cached_property
    def axioms(self) -> StructureCheckResult:
        return check_axioms(self.struct, self.vectors)

    @cached_property
    def ps_gate(self) -> StructureCheckResult:
        return check_para_sasakian(self.struct, self.vectors)

    def measured(self, gate: str) -> float:
        if gate == "para-sasakian":
            return float(np.max([c.residual for c in self.ps_gate.checks]))
        if gate == "trace-phi-constant":
            trphi = self.struct.trace_phi()
            return float(np.max(np.abs(trphi - trphi[0])))
        return float(np.max(hl.shape_characterization_gap_per_point(self.struct, self.data.shape.A)))

    @cached_property
    def fit_inputs(self) -> tuple[np.ndarray, ...]:
        """(g, Phi, eta, S) values, one row per sample point in point order."""
        s = self.struct
        return s.g0, s.Phi0, s.eta0, s.curvature.ricci.components[..., 0]

    @cached_property
    def fit(self) -> el.EinsteinLikeFit:
        return el.fit_einstein_like(*self.fit_inputs)

    @cached_property
    def c11(self) -> el.C11Tensor:
        return el.compute_c11_phi_r(self.struct)

    def gates_hold(self, report: CheckReport, prefix: str, gates: tuple[str, ...]) -> bool:
        """True when every gate holds.  Otherwise adds one not-applicable
        record for each CHECKS row of ``prefix`` behind exactly ``gates``,
        its detail naming the first failing gate and its measured value."""
        for gate in gates:
            what, threshold = GATES[gate]
            value = self.measured(gate)
            if not value <= threshold:
                detail = f"gate {gate}: {what} {value:.3e} > {threshold:g}"
                report.checks.extend(CheckRecord(cid, row.anchor, 0.0, 0.0, NOT_APPLICABLE, detail)
                                     for cid, row in CHECKS.items()
                                     if row.gates == gates and cid.startswith(prefix + "."))
                return False
        return True


def _run_structure(report, ctx, cfg):
    _merge(report, cfg.tol_scale, ctx.axioms)


def _run_sasakian(report, ctx, cfg):
    _merge(report, cfg.tol_scale, ctx.ps_gate)


def _run_curvature(report, ctx, cfg):
    _merge(report, cfg.tol_scale, check_ps_curvature_identities(ctx.struct, ctx.vectors))


def _fit_with_stability(ctx: _ModelContext) -> StructureCheckResult:
    fit = ctx.fit
    res = StructureCheckResult()
    res.add("einstein.fit", fit.residual,
            f"(a,b,c) = ({fit.a:+.9g}, {fit.b:+.9g}, {fit.c:+.9g}), rank {fit.gram_rank}, "
            f"{len(fit.family)} family direction(s)")
    if ctx.struct.npoints >= 6:
        half_a, half_b = (el.fit_einstein_like(*(x[k::2] for x in ctx.fit_inputs)) for k in (0, 1))
        gap = float(np.max(np.abs(half_a.min_norm - half_b.min_norm)))
        if half_a.gram_rank != half_b.gram_rank:
            res.add("einstein.fit-stability", np.inf, "rank differs between sample halves")
        else:
            res.add("einstein.fit-stability", gap, "minimum-norm members of disjoint half fits agree")
    else:
        res.add("einstein.fit-stability", 0.0, "too few samples to split", status=NOT_APPLICABLE)
    return res


def _run_einstein(report, ctx, cfg):
    s, fit = ctx.struct, ctx.fit
    _merge(report, cfg.tol_scale, _fit_with_stability(ctx),
           el.verify_coefficient_constraints(fit, s), el.verify_c11_identities(ctx.c11, s))
    if ctx.gates_hold(report, "einstein", PS):
        _merge(report, cfg.tol_scale, el.verify_scalar_ode(fit, s), el.verify_c11_decomposition(fit, ctx.c11, s))
    if ctx.gates_hold(report, "einstein", PS_TRPHI):
        _merge(report, cfg.tol_scale, el.verify_trace_formula(fit, s))


def _run_lie(report, ctx, cfg):
    _merge(report, cfg.tol_scale, el.verify_lie_formulas(ctx.struct))
    if ctx.gates_hold(report, "lie", PS):
        _merge(report, cfg.tol_scale, el.verify_lie_ricci(ctx.fit, ctx.struct))
    if ctx.gates_hold(report, "lie", PS_TRPHI):
        _merge(report, cfg.tol_scale, el.verify_lie_c11(ctx.fit, ctx.c11, ctx.struct))


_MODEL_RUNNERS = {
    "structure": _run_structure,
    "sasakian": _run_sasakian,
    "curvature": _run_curvature,
    "einstein": _run_einstein,
    "lie": _run_lie,
}


def _run_hypersurface(report: CheckReport, ctx: _ModelContext, cfg: RunConfig, subset: str):
    data = ctx.data
    if subset in ("gauss", "all"):
        res = hl.check_ambient(data.ambient)
        res.add("hypersurface.gauss-equation", hl.gauss_consistency_residual(data))
        _merge(report, cfg.tol_scale, res)
    if subset in ("induced", "all"):
        res = StructureCheckResult()
        res.add("hypersurface.jn-tangent", data.tangency_residual)
        res.add("hypersurface.weingarten-tangent", data.frame_residual)
        res.add("hypersurface.shape-self-adjoint", hl.shape_self_adjoint_residual(data))
        res.add("hypersurface.epsilon-consistent", data.epsilon_residual,
                f"max |g~(N,N) - eps| over the samples, eps = {data.shape.epsilon:+d}")
        res.add("hypersurface.induced-axioms", np.max([c.residual for c in ctx.axioms.checks]),
                "max over the seven structure axioms on the induced structure")
        _merge(report, cfg.tol_scale, res, hl.verify_induced_derivatives(data, ctx.vectors))
    if subset in ("characterization", "all"):
        _merge(report, cfg.tol_scale, hl.check_ps_characterization(data, ctx.vectors))
        if ctx.gates_hold(report, "hypersurface", SHAPE):
            _merge(report, cfg.tol_scale, hl.quasi_umbilical_check(data.shape, data.structure))


def run_suite(target: ManifoldModel | hl.HypersurfaceBundle, suite: str, cfg: RunConfig | None = None) -> CheckReport:
    """Run one suite (or 'all') against a chart model or a bundle."""
    cfg = cfg or RunConfig()
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    if suite == "synthetic":
        return run_synthetic(cfg)

    if cfg.points < 1:
        raise ValueError(f"points must be >= 1, got {cfg.points}")
    name = target.name
    is_bundle = isinstance(target, hl.HypersurfaceBundle)
    if suite == "hypersurface" and not is_bundle:
        raise ValueError(f"suite 'hypersurface' needs a bundle target, got chart model {name!r}")
    order = METRIC_ORDERS[f"hypersurface {cfg.hypersurface_subset}" if suite == "hypersurface" else suite]
    report = new_report(name, suite, cfg.seed, cfg.points)
    points = sample_points(target.embedding.domain if is_bundle else target.domain, cfg.points,
                           derive_rng(cfg.seed, name, "points"))
    data = None
    if is_bundle:
        data = hl.evaluate_bundle(target, points, max(order, 1))     # the Weingarten map reads dN
        if not data.tangency_residual <= CHECKS["hypersurface.jn-tangent"].tol * cfg.tol_scale:
            # induced-structure hypothesis violated: report just that and stop
            res = hl.check_ambient(data.ambient)
            res.add("hypersurface.jn-tangent", data.tangency_residual,
                    "g~(JN, N) != 0: JN is not tangent, the induced structure does not exist")
            _merge(report, cfg.tol_scale, res)
            report.sort()
            return report
    ctx = _ModelContext(data.structure if is_bundle else evaluate_structure(target, points, order), name, cfg, data)
    if suite == "hypersurface":
        _run_hypersurface(report, ctx, cfg, cfg.hypersurface_subset)
    else:
        for s in _MODEL_RUNNERS if suite == "all" else (suite,):
            _MODEL_RUNNERS[s](report, ctx, cfg)
        if suite == "all" and is_bundle:
            _run_hypersurface(report, ctx, cfg, "all")
    report.sort()
    return report


def run_synthetic(cfg: RunConfig) -> CheckReport:
    """The pointwise Gauss-equation suite at (epsilon, dim) with the
    configured trial count."""
    name = f"synthetic(eps={cfg.epsilon:+d}, n={cfg.dim})"
    report = new_report(name, "synthetic", cfg.seed, cfg.trials)
    outcome = hl.synthetic_gauss_check(cfg.epsilon, cfg.dim, cfg.trials, cfg.seed,
                                       perturb_a=cfg.perturb_a)
    _merge(report, cfg.tol_scale, outcome.result)
    report.sort()
    return report
