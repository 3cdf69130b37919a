"""Suite orchestration: run named check suites on a model or bundle and
assemble a deterministic report.

Suites: structure, sasakian, curvature, einstein, lie (chart models and
bundles, run on the induced structure for bundles), hypersurface (bundles
only), all.  :func:`run_synthetic` runs the target-free synthetic trials.

Each record is declared once, as a row of :data:`report.CHECKS`, and the
check functions hand their gaps to the one recorder beside it,
:class:`report.StructureCheckResult`, which gives each record its row's
tolerance at scale 1 and its status.  :data:`REQUESTS` maps each request
kind to the metric jet order it reads and its ordered check groups, each a
CHECKS prefix, the gates its rows sit behind, and the check calls that
record them.  A request evaluates its fields only to that order (a bundle's
to at least 1, as its Weingarten map reads dN), so a field whose derivatives
overflow fails only in the suites that read them.  :data:`GATES` declares each gate once: what it measures, its
threshold, and the measurement on the request's shared context.
:func:`run_suite` runs one loop over the groups: it calls a group only when
its gates hold and otherwise reports each of its records ``not-applicable``,
naming the gate that decided it and its measured value; :func:`_merge` only
rescales each measured record's tolerance and status by ``--tol-scale``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import einstein_like as el
from . import hypersurface_lab as hl
from .models import METRIC_ORDER, ManifoldModel, evaluate_structure
from .paracontact_core import (ParacontactStructure, VectorPairs, check_axioms, check_para_sasakian,
                               check_ps_curvature_identities)
from .report import (CHECKS, NOT_APPLICABLE, PS, PS_TRPHI, SHAPE, VACUOUS, CheckReport,
                     StructureCheckResult, _max_abs, new_report, status_of)
from .sampling import SEED_MAX, derive_rng, random_vectors, sample_points

SUITES = ("structure", "sasakian", "curvature", "einstein", "lie", "hypersurface", "all")
HYPERSURFACE_SUBSETS = ("induced", "gauss", "characterization", "all")
VECTOR_TUPLES = 20     # random vector pairs per sample point

# gate -> (what it measures, threshold, the measurement on a request's _ModelContext); a gate holds when
# the measured value is at most the threshold
GATES = {
    "para-sasakian": ("largest sasakian.* residual", 1e-6,
                      lambda ctx: float(np.maximum.reduce([c.residual for c in ctx.ps_gate.checks]))),
    "trace-phi-constant": ("spread of trace(phi) over the samples", 1e-7,
                           lambda ctx: float(_max_abs((tr := ctx.struct.trace_phi) - tr[0]))),
    "shape-characterized": ("max gap of A to -eps I + eps eta(x)xi", 1e-2,
                            lambda ctx: float(np.maximum.reduce(ctx.data.shape_gap))),
}

@dataclass
class RunConfig:
    points: int = 100
    seed: int = 42
    tol_scale: float = 1.0
    trials: int = 100          # synthetic suite
    epsilon: int = 1           # synthetic suite
    dim: int = 3               # synthetic suite
    perturb_a: float = 0.0     # synthetic negative control
    hypersurface_subset: str = "all"

    def __post_init__(self):
        if self.points < 1:
            raise ValueError(f"points must be >= 1, got {self.points}")
        if not 0.0 < self.tol_scale < math.inf:
            raise ValueError(f"--tol-scale must be a finite number > 0, got {self.tol_scale}")
        if not math.isfinite(self.perturb_a):
            raise ValueError(f"--perturb-a must be finite, got {self.perturb_a}")
        if not 0 <= self.seed <= SEED_MAX:
            raise ValueError(f"--seed must lie in 0..{SEED_MAX}, got {self.seed}")
        if self.dim < 3:
            raise ValueError(f"--dim must be at least 3, got {self.dim}")
        if self.dim > hl.SYNTHETIC_MAX_DIM:
            raise ValueError(f"--dim must be at most {hl.SYNTHETIC_MAX_DIM}, got {self.dim}")
        if self.trials < 1:
            raise ValueError(f"--trials must be at least 1, got {self.trials}")
        if self.trials > hl.SYNTHETIC_MAX_TRIALS:
            raise ValueError(f"--trials must be at most {hl.SYNTHETIC_MAX_TRIALS}, got {self.trials}")
        if self.epsilon not in (1, -1):
            raise ValueError(f"synthetic check needs epsilon +1 or -1, got {self.epsilon}")
        if self.hypersurface_subset not in HYPERSURFACE_SUBSETS:
            raise ValueError(f"unknown hypersurface subset {self.hypersurface_subset!r}")


def _merge(report: CheckReport, tol_scale: float, *results: StructureCheckResult):
    """Add each result's records to the report, a measured one with its
    tolerance and status rescaled by ``tol_scale``."""
    for c in (c for result in results for c in result.checks):
        if tol_scale != 1.0 and c.status not in (VACUOUS, NOT_APPLICABLE):
            c.tolerance *= tol_scale
            c.status = status_of(c.residual, c.tolerance, CHECKS[c.id].informational)
        report.checks.append(c)


class _ModelContext:
    """What every suite of one request shares: the structure (and, for a
    bundle, its hypersurface data) and the test vector pairs with their
    products (:class:`paracontact_core.VectorPairs`); the axiom checks
    (the structure suite and the induced-axioms record report them), the
    para-Sasakian gate run (the sasakian suite reports it), and the
    Einstein-like fit and C11(phi R), each built on first use; and the value
    of each gate of :data:`GATES` measured on it, kept from its first
    measurement in ``gate_values``."""

    def __init__(self, struct: ParacontactStructure, name: str, cfg: RunConfig,
                 data: hl.HypersurfaceData | None = None):
        self.struct = struct
        self.data = data
        rng = derive_rng(cfg.seed, name, "vectors")
        self.pairs = VectorPairs(struct, random_vectors(rng, struct.npoints, 2 * VECTOR_TUPLES, struct.dim))
        self.gate_values: dict[str, float] = {}

    @cached_property
    def axioms(self) -> StructureCheckResult:
        return check_axioms(self.pairs)

    @cached_property
    def ps_gate(self) -> StructureCheckResult:
        return check_para_sasakian(self.pairs)

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
            what, threshold, measure = GATES[gate]
            if gate not in self.gate_values:
                self.gate_values[gate] = measure(self)
            value = self.gate_values[gate]
            if not value <= threshold:
                detail = f"gate {gate}: {what} {value:.3e} > {threshold:g}"
                res = StructureCheckResult()
                for cid, row in CHECKS.items():
                    if row.gates == gates and cid.startswith(prefix + "."):
                        res.add(cid, 0.0, detail=detail, status=NOT_APPLICABLE)
                report.checks.extend(res.checks)
                return False
        return True


def _fit_with_stability(ctx: _ModelContext) -> StructureCheckResult:
    fit = ctx.fit
    res = StructureCheckResult()
    res.add("einstein.fit", fit.residual, detail=f"(a,b,c) = ({fit.a:+.9g}, {fit.b:+.9g}, {fit.c:+.9g}), "
            f"rank {fit.gram_rank}, {len(fit.family)} family direction(s)")
    if ctx.struct.npoints >= 6:
        half_a, half_b = (el.fit_einstein_like(*(x[k::2] for x in ctx.fit_inputs)) for k in (0, 1))
        res.add("einstein.fit-stability", half_a.min_norm - half_b.min_norm if half_a.gram_rank == half_b.gram_rank
                else np.inf, detail=f"half-fit ranks {half_a.gram_rank} and {half_b.gram_rank}")
    else:
        res.add("einstein.fit-stability", 0.0, detail="too few samples to split", status=NOT_APPLICABLE)
    return res


# request kind -> (metric jet order, check groups in run order); a group is (CHECKS prefix, the gates of its
# rows, ctx -> the results recording them).  The orders: values for the axioms, Gamma values (order 1) for
# the para-Sasakian and induced displays, R values (2) for the curvature identities and the Gauss equation, a
# derivative of Ricci (3) for the Einstein-like and Lie displays; no gate reads above order 1.
REQUESTS = {
    "structure": (0, (("structure", (), lambda ctx: [ctx.axioms]),)),
    "sasakian": (1, (("sasakian", (), lambda ctx: [ctx.ps_gate]),)),
    "curvature": (2, (("curvature", (), lambda ctx: [check_ps_curvature_identities(ctx.pairs)]),)),
    "einstein": (METRIC_ORDER, (
        ("einstein", (), lambda ctx: [_fit_with_stability(ctx), el.verify_coefficient_constraints(ctx.fit, ctx.struct),
                                      el.verify_c11_identities(ctx.c11, ctx.struct)]),
        ("einstein", PS, lambda ctx: [el.verify_scalar_ode(ctx.fit, ctx.struct),
                                      el.verify_c11_decomposition(ctx.fit, ctx.c11, ctx.struct)]),
        ("einstein", PS_TRPHI, lambda ctx: [el.verify_trace_formula(ctx.fit, ctx.struct)]))),
    "lie": (METRIC_ORDER, (
        ("lie", (), lambda ctx: [el.verify_lie_formulas(ctx.struct)]),
        ("lie", PS, lambda ctx: [el.verify_lie_ricci(ctx.fit, ctx.struct)]),
        ("lie", PS_TRPHI, lambda ctx: [el.verify_lie_c11(ctx.fit, ctx.c11, ctx.struct)]))),
    "hypersurface gauss": (2, (
        ("hypersurface", (), lambda ctx: [hl.check_ambient(ctx.data.ambient), hl.check_gauss_equation(ctx.data)]),)),
    "hypersurface induced": (1, (
        ("hypersurface", (), lambda ctx: [hl.check_induced_frame(ctx.data, ctx.axioms),
                                          hl.verify_induced_derivatives(ctx.data, ctx.pairs)]),)),
    "hypersurface characterization": (1, (
        ("hypersurface", (), lambda ctx: [hl.check_ps_characterization(ctx.data, ctx.pairs)]),
        ("hypersurface", SHAPE, lambda ctx: [hl.quasi_umbilical_check(ctx.data.shape, ctx.data.structure)]))),
}
# "all" runs the five model suites' groups, "hypersurface all" the three subsets' groups
REQUESTS["all"] = (METRIC_ORDER, tuple(g for kind in SUITES[:5] for g in REQUESTS[kind][1]))
REQUESTS["hypersurface all"] = (2, tuple(g for subset in ("gauss", "induced", "characterization")
                                         for g in REQUESTS[f"hypersurface {subset}"][1]))


# arithmetic that overflows runs quietly: the recorder fails every non-finite residual
@np.errstate(over="ignore", invalid="ignore")
def run_suite(target: ManifoldModel | hl.HypersurfaceBundle, suite: str, cfg: RunConfig | None = None) -> CheckReport:
    """Run one suite (or 'all') against a chart model or a bundle."""
    cfg = cfg or RunConfig()
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    name = target.name
    is_bundle = isinstance(target, hl.HypersurfaceBundle)
    if suite == "hypersurface" and not is_bundle:
        raise ValueError("suite 'hypersurface' needs a bundle target, not a chart model")
    order, groups = REQUESTS[f"hypersurface {cfg.hypersurface_subset}" if suite == "hypersurface" else suite]
    report = new_report(name, suite, cfg.seed, cfg.points)
    points = sample_points(target.embedding.domain if is_bundle else target.domain, cfg.points,
                           derive_rng(cfg.seed, name, "points"))
    data = None
    if is_bundle:
        data = hl.evaluate_bundle(target, points, max(order, 1))     # the Weingarten map reads dN
        if not data.tangency_residual <= CHECKS["hypersurface.jn-tangent"].tol * cfg.tol_scale:
            # induced-structure hypothesis violated: report just that and stop
            res = hl.check_ambient(data.ambient)
            res.add("hypersurface.jn-tangent", data.tangency_residual, detail="JN not tangent")
            _merge(report, cfg.tol_scale, res)
            report.sort()
            return report
    ctx = _ModelContext(data.structure if is_bundle else evaluate_structure(target, points, order), name, cfg, data)
    if suite == "all" and is_bundle:
        groups += REQUESTS["hypersurface all"][1]
    for prefix, gates, results in groups:
        if ctx.gates_hold(report, prefix, gates):
            _merge(report, cfg.tol_scale, *results(ctx))
    report.sort()
    return report


@np.errstate(over="ignore", invalid="ignore")
def run_synthetic(cfg: RunConfig) -> CheckReport:
    """The pointwise Gauss-equation suite at (epsilon, dim) with the
    configured trial count."""
    name = f"synthetic(eps={cfg.epsilon:+d}, n={cfg.dim})"
    report = new_report(name, "synthetic", cfg.seed, cfg.trials)
    _merge(report, cfg.tol_scale,
           hl.synthetic_gauss_check(cfg.epsilon, cfg.dim, cfg.trials, cfg.seed, perturb_a=cfg.perturb_a))
    report.sort()
    return report
