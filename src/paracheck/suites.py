"""Suite orchestration: run named check suites on a model or bundle and
assemble a deterministic report.

A request is named once, by its kind, a :data:`REQUESTS` key that the
report's suite field names: structure, sasakian, curvature, einstein, lie
(run on the induced structure for bundles), all, and 'hypersurface <subset>'
(bundles only; ``check --suite hypersurface`` is 'hypersurface all').
:func:`run_synthetic` runs the target-free synthetic trials.

Each record is declared once, as a row of :data:`report.CHECKS`.  A request
builds one recorder beside it, :class:`report.StructureCheckResult` at the
request's ``--tol-scale``, and every check function takes that recorder
first and hands it its gaps; the recorder gives each record its row's
tolerance times the scale and its status, and the report is built once from
its records.  :data:`REQUESTS` maps each request kind to the metric jet
order it reads and its ordered check groups, each a CHECKS prefix, the gates
its rows sit behind, and the check calls that record them.  A request
evaluates its fields only to that order (a bundle's to at least 1, as its
Weingarten map reads dN), so a field whose derivatives overflow fails only
in the suites that read them.  :data:`GATES` declares each gate once: what
it measures, its threshold, and the measurement on the request's shared
context.  :func:`run_suite` runs one loop over the groups: it calls a group
only when its gates hold and otherwise records each of its rows
``not-applicable``, naming the gate that decided it and its measured value.
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
from .report import CHECKS, NOT_APPLICABLE, PS, PS_TRPHI, SHAPE, CheckReport, StructureCheckResult, _max_abs, new_report
from .sampling import SEED_MAX, derive_rng, random_vectors, sample_points

SUITES = ("structure", "sasakian", "curvature", "einstein", "lie", "hypersurface", "all")
HYPERSURFACE_SUBSETS = ("induced", "gauss", "characterization", "all")
VECTOR_TUPLES = 20     # random vector pairs per sample point

# gate -> (what it measures, threshold, the measurement on a request's _ModelContext); a gate holds when
# the measured value is at most the threshold
GATES = {
    "para-sasakian": ("largest sasakian.* residual", 1e-6,
                      lambda ctx: float(np.maximum.reduce([c.residual for c in ctx.ps_gate.records.values()]))),
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


class _ModelContext:
    """What every suite of one request shares: the structure (and, for a
    bundle, its hypersurface data) and the test vector pairs with their
    products (:class:`paracontact_core.VectorPairs`); the axiom checks
    (the structure suite and the induced-axioms record read them) and the
    para-Sasakian gate run (the sasakian suite reads it), each a recorder of
    its own at the request's scale whose records a group copies; the
    Einstein-like fit, and the values of C11(phi R) and of its covariant
    derivative, each built on first read, so a request whose para-Sasakian
    gate fails builds no nabla C11; and the value of each gate of
    :data:`GATES` measured on it, kept from its first measurement in
    ``gate_values``."""

    def __init__(self, struct: ParacontactStructure, name: str, cfg: RunConfig,
                 data: hl.HypersurfaceData | None = None):
        self.struct = struct
        self.data = data
        rng = derive_rng(cfg.seed, name, "vectors")
        self.pairs = VectorPairs(struct, random_vectors(rng, struct.npoints, 2 * VECTOR_TUPLES, struct.dim))
        self.tol_scale = cfg.tol_scale
        self.gate_values: dict[str, float] = {}

    def _shared(self, check) -> StructureCheckResult:
        """What ``check`` records on the pairs, in a recorder of its own at the request's scale."""
        res = StructureCheckResult(self.tol_scale)
        check(res, self.pairs)
        return res

    axioms = cached_property(lambda self: self._shared(check_axioms))
    ps_gate = cached_property(lambda self: self._shared(check_para_sasakian))

    @cached_property
    def fit_inputs(self) -> tuple[np.ndarray, ...]:
        """(g, Phi, eta, S) values, one row per sample point in point order."""
        s = self.struct
        return s.g0, s.Phi0, s.eta0, s.curvature.ricci.components[..., 0]

    @cached_property
    def fit(self) -> el.EinsteinLikeFit:
        return el.fit_einstein_like(*self.fit_inputs)

    c11_jets = cached_property(lambda self: el.compute_c11_phi_r(self.struct))
    c11 = cached_property(lambda self: self.c11_jets.components[..., 0])
    nabla_c11 = cached_property(lambda self: self.struct._nabla(self.c11_jets))

    def gates_hold(self, res: StructureCheckResult, prefix: str, gates: tuple[str, ...]) -> bool:
        """True when every gate holds.  Otherwise adds to ``res`` one
        not-applicable record for each CHECKS row of ``prefix`` behind exactly
        ``gates``, its detail naming the first failing gate and its measured
        value."""
        for gate in gates:
            what, threshold, measure = GATES[gate]
            if gate not in self.gate_values:
                self.gate_values[gate] = measure(self)
            value = self.gate_values[gate]
            if not value <= threshold:
                detail = f"gate {gate}: {what} {value:.3e} > {threshold:g}"
                for cid, row in CHECKS.items():
                    if row.gates == gates and cid.startswith(prefix + "."):
                        res.add(cid, 0.0, detail=detail, status=NOT_APPLICABLE)
                return False
        return True


def _fit_with_stability(res: StructureCheckResult, ctx: _ModelContext):
    fit = ctx.fit
    res.add("einstein.fit", fit.residual, detail=f"(a,b,c) = ({fit.a:+.9g}, {fit.b:+.9g}, {fit.c:+.9g}), "
            f"rank {fit.gram_rank}, {len(fit.family)} family direction(s)")
    if ctx.struct.npoints >= 6:
        half_a, half_b = (el.fit_einstein_like(*(x[k::2] for x in ctx.fit_inputs)) for k in (0, 1))
        res.add("einstein.fit-stability", half_a.min_norm - half_b.min_norm if half_a.gram_rank == half_b.gram_rank
                else np.inf, detail=f"half-fit ranks {half_a.gram_rank} and {half_b.gram_rank}")
    else:
        res.add("einstein.fit-stability", 0.0, detail="too few samples to split", status=NOT_APPLICABLE)


# request kind -> (metric jet order, check groups in run order); a group is (CHECKS prefix, the gates of its
# rows, (res, ctx) -> its check calls, each adding its records to the request's recorder res).  The orders:
# values for the axioms, Gamma values (order 1) for the para-Sasakian and induced displays, R values (2) for
# the curvature identities and the Gauss equation, a derivative of Ricci (3) for the Einstein-like and Lie
# displays; no gate reads above order 1.
REQUESTS = {
    "structure": (0, (("structure", (), lambda res, ctx: res.records.update(ctx.axioms.records)),)),
    "sasakian": (1, (("sasakian", (), lambda res, ctx: res.records.update(ctx.ps_gate.records)),)),
    "curvature": (2, (("curvature", (), lambda res, ctx: check_ps_curvature_identities(res, ctx.pairs)),)),
    "einstein": (METRIC_ORDER, (
        ("einstein", (), lambda res, ctx: (_fit_with_stability(res, ctx),
                                           el.verify_coefficient_constraints(res, ctx.fit, ctx.struct),
                                           el.verify_c11_identities(res, ctx.c11, ctx.struct))),
        ("einstein", PS, lambda res, ctx: (el.verify_scalar_ode(res, ctx.fit, ctx.struct), el.verify_c11_decomposition(
            res, ctx.fit, ctx.c11, ctx.nabla_c11, ctx.struct))),
        ("einstein", PS_TRPHI, lambda res, ctx: el.verify_trace_formula(res, ctx.fit, ctx.struct)))),
    "lie": (METRIC_ORDER, (
        ("lie", (), lambda res, ctx: el.verify_lie_formulas(res, ctx.struct)),
        ("lie", PS, lambda res, ctx: el.verify_lie_ricci(res, ctx.fit, ctx.struct)),
        ("lie", PS_TRPHI, lambda res, ctx: el.verify_lie_c11(res, ctx.fit, ctx.c11, ctx.nabla_c11, ctx.struct)))),
    "hypersurface gauss": (2, (
        ("hypersurface", (), lambda res, ctx: (hl.check_ambient(res, ctx.data.ambient),
                                               hl.check_gauss_equation(res, ctx.data))),)),
    "hypersurface induced": (1, (
        ("hypersurface", (), lambda res, ctx: (hl.check_induced_frame(res, ctx.data, ctx.axioms),
                                               hl.verify_induced_derivatives(res, ctx.data, ctx.pairs))),)),
    "hypersurface characterization": (1, (
        ("hypersurface", (), lambda res, ctx: hl.check_ps_characterization(res, ctx.data, ctx.pairs)),
        ("hypersurface", SHAPE, lambda res, ctx: hl.quasi_umbilical_check(res, ctx.data.h, ctx.data.structure)))),
}
# "all" runs the five model suites' groups, "hypersurface all" the three subsets' groups
REQUESTS["all"] = (METRIC_ORDER, tuple(g for kind in SUITES[:5] for g in REQUESTS[kind][1]))
REQUESTS["hypersurface all"] = (2, tuple(g for subset in ("gauss", "induced", "characterization")
                                         for g in REQUESTS[f"hypersurface {subset}"][1]))


# arithmetic that overflows runs quietly: the recorder fails every non-finite residual
@np.errstate(over="ignore", invalid="ignore")
def run_suite(target: ManifoldModel | hl.HypersurfaceBundle, kind: str, cfg: RunConfig | None = None) -> CheckReport:
    """Run request ``kind``, a :data:`REQUESTS` key, against a chart model or
    a bundle; the report's suite field names the kind."""
    cfg = cfg or RunConfig()
    if kind not in REQUESTS:
        raise ValueError(f"unknown suite {kind!r}; choose from {', '.join(REQUESTS)}")
    name = target.name
    is_bundle = isinstance(target, hl.HypersurfaceBundle)
    if kind.startswith("hypersurface") and not is_bundle:
        raise ValueError("suite 'hypersurface' needs a bundle target, not a chart model")
    order, groups = REQUESTS[kind]
    res = StructureCheckResult(cfg.tol_scale)
    points = sample_points(target.embedding.domain if is_bundle else target.domain, cfg.points,
                           derive_rng(cfg.seed, name, "points"))
    data = None
    if is_bundle:
        data = hl.evaluate_bundle(target, points, max(order, 1))     # the Weingarten map reads dN
        if not data.tangency_residual <= CHECKS["hypersurface.jn-tangent"].tol * cfg.tol_scale:
            # induced-structure hypothesis violated: report just that and stop
            hl.check_ambient(res, data.ambient)
            res.add("hypersurface.jn-tangent", data.tangency_residual, detail="JN not tangent")
            return new_report(name, kind, cfg.seed, cfg.points, res)
    ctx = _ModelContext(data.structure if is_bundle else evaluate_structure(target, points, order), name, cfg, data)
    if kind == "all" and is_bundle:
        groups += REQUESTS["hypersurface all"][1]
    for prefix, gates, checks in groups:
        if ctx.gates_hold(res, prefix, gates):
            checks(res, ctx)
    return new_report(name, kind, cfg.seed, cfg.points, res)


@np.errstate(over="ignore", invalid="ignore")
def run_synthetic(cfg: RunConfig) -> CheckReport:
    """The pointwise Gauss-equation suite at (epsilon, dim) with the
    configured trial count."""
    res = StructureCheckResult(cfg.tol_scale)
    hl.synthetic_gauss_check(res, cfg.epsilon, cfg.dim, cfg.trials, cfg.seed, perturb_a=cfg.perturb_a)
    return new_report(f"synthetic(eps={cfg.epsilon:+d}, n={cfg.dim})", "synthetic", cfg.seed, cfg.trials, res)
