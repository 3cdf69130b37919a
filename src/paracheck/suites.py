"""Suite orchestration: run named check suites on a model or bundle and
assemble a deterministic report.

Suites: structure, sasakian, curvature, einstein, lie (chart models and
bundles, run on the induced structure for bundles), hypersurface (bundles
only), synthetic (standalone pointwise trials), all.

Each record is declared once, as a row of :data:`report.CHECKS`, and the
check functions hand their gaps to the one recorder beside it,
:class:`report.StructureCheckResult`, which gives each record its row's
tolerance at scale 1 and its status.  The runner here calls a gated group
only when its gates hold and otherwise reports each of its records
``not-applicable``, naming the gate that decided it; :func:`_merge` only
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
from .paracontact_core import ParacontactStructure, check_axioms, check_para_sasakian, check_ps_curvature_identities
from .report import (CHECKS, NOT_APPLICABLE, PS, PS_TRPHI, SHAPE, VACUOUS, CheckRecord, CheckReport,
                     StructureCheckResult, new_report, status_of)
from .sampling import derive_rng, random_vectors, sample_points

SUITES = ("structure", "sasakian", "curvature", "einstein", "lie", "hypersurface", "synthetic", "all")
HYPERSURFACE_SUBSETS = ("induced", "gauss", "characterization", "all")
VECTOR_TUPLES = 20     # random vector pairs per sample point

# gate -> (what the run context measures for it, threshold); a gate holds
# when the measured value is at most the threshold
GATES = {
    "para-sasakian": ("defining-equation residual", 1e-6),
    "trace-phi-constant": ("spread of trace(phi) over the samples", 1e-7),
    "shape-characterized": ("max gap of A to -eps I + eps eta(x)xi", 1e-2),
}

# metric jet order each request kind reads: values for the axioms, Gamma values (order 1) for the para-Sasakian
# and induced displays, R values (2) for the curvature identities and the Gauss equation, a derivative of Ricci
# (3) for the Einstein-like and Lie displays; no gate reads above order 1
METRIC_ORDERS = {"structure": 0, "sasakian": 1, "curvature": 2, "einstein": METRIC_ORDER, "lie": METRIC_ORDER,
                 "all": METRIC_ORDER, "hypersurface induced": 1, "hypersurface characterization": 1,
                 "hypersurface gauss": 2, "hypersurface all": 2}


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
        if self.dim > hl.SYNTHETIC_MAX_DIM:
            raise ValueError(f"--dim must be at most {hl.SYNTHETIC_MAX_DIM}, got {self.dim}")
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
        self.vectors = random_vectors(rng, struct.npoints, 2 * VECTOR_TUPLES, struct.dim)

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
            detail=f"(a,b,c) = ({fit.a:+.9g}, {fit.b:+.9g}, {fit.c:+.9g}), rank {fit.gram_rank}, "
            f"{len(fit.family)} family direction(s)")
    if ctx.struct.npoints >= 6:
        half_a, half_b = (el.fit_einstein_like(*(x[k::2] for x in ctx.fit_inputs)) for k in (0, 1))
        if half_a.gram_rank != half_b.gram_rank:
            res.add("einstein.fit-stability", np.inf, detail="rank differs between sample halves")
        else:
            res.add("einstein.fit-stability", half_a.min_norm - half_b.min_norm,
                    detail="minimum-norm members of disjoint half fits agree")
    else:
        res.add("einstein.fit-stability", 0.0, detail="too few samples to split", status=NOT_APPLICABLE)
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
                detail=f"max |g~(N,N) - eps| over the samples, eps = {data.shape.epsilon:+d}")
        res.add("hypersurface.induced-axioms", np.max([c.residual for c in ctx.axioms.checks]),
                detail="max over the seven structure axioms on the induced structure")
        _merge(report, cfg.tol_scale, res, hl.verify_induced_derivatives(data, ctx.vectors))
    if subset in ("characterization", "all"):
        _merge(report, cfg.tol_scale, hl.check_ps_characterization(data, ctx.vectors))
        if ctx.gates_hold(report, "hypersurface", SHAPE):
            _merge(report, cfg.tol_scale, hl.quasi_umbilical_check(data.shape, data.structure))


# arithmetic that overflows runs quietly: the recorder fails every non-finite residual
@np.errstate(over="ignore", invalid="ignore")
def run_suite(target: ManifoldModel | hl.HypersurfaceBundle, suite: str, cfg: RunConfig | None = None) -> CheckReport:
    """Run one suite (or 'all') against a chart model or a bundle."""
    cfg = cfg or RunConfig()
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    if suite == "synthetic":
        return run_synthetic(cfg)

    name = target.name
    is_bundle = isinstance(target, hl.HypersurfaceBundle)
    if suite == "hypersurface" and not is_bundle:
        raise ValueError("suite 'hypersurface' needs a bundle target, not a chart model")
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
                    detail="g~(JN, N) != 0: JN is not tangent, the induced structure does not exist")
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


@np.errstate(over="ignore", invalid="ignore")
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
