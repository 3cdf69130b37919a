"""Check reports: the check table, the one recorder, and serialization.

:data:`CHECKS` is the one place a record is declared.  Its row for an id
holds the anchor tying the record to the section and display it verifies,
so reports can be audited line by line against the source text; the
tolerance at scale 1; the gates it sits behind; and whether it is
informational, a published display that the re-derived record overrules.
Every fixed word about a record is in its anchor: the display, the rule
its residual follows.  A record's detail holds only what its run measured
(member counts, fit coefficients, ranks, gate values) or a state it reached.

:class:`StructureCheckResult` is the one recorder.  A check hands it a gap
and the tensors entering the identity, and it records their
:func:`residual_norm`, max |gap| / (1 + max |input|), or max |gap| with no
inputs; a residual already reduced (a count) it records as it is.  It is the
one place a record's maximum is folded: an id added again (per fit family
member, synthetic block or structure axiom) keeps the larger residual by
``np.maximum``, so a NaN wins in either order.  Each record carries its
row's anchor, tolerance at scale 1, and the status of :func:`status_of`:

- a non-finite residual is ``fail``;
- a residual within tolerance is ``pass``;
- any other residual is ``printed-form-mismatch`` on an informational record
  (a published display that the re-derived normative record overrules) and
  ``fail`` on every other record.

A record with nothing measured is added once, with its own status and
tolerance 0: ``vacuous`` when every family member was degenerate,
``not-applicable`` when a gate declared in :data:`CHECKS` fails.  Only
``fail`` affects the exit code; an informational record never fails on a
finite residual.

Reports serialize to JSON deterministically: records sorted by id, keys
sorted, floats via repr, and a non-finite residual as 1e300, so the output
is strict JSON.  The ``engine_version`` and ``generated_at`` fields are the
only run-to-run variable parts.  :meth:`CheckReport.to_json` writes the
bytes of ``json.dumps(report.to_dict(), indent=2, sort_keys=True,
allow_nan=False)`` through json's C encoder, one call per record, since json
runs its pure-Python encoder whenever an indent is set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"
NOT_APPLICABLE = "not-applicable"
PRINTED_FORM_MISMATCH = "printed-form-mismatch"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

# tolerance tiers of the rows at scale 1, by the number of derivatives an
# identity reads: algebraic, one, two and three
ALG, D1, D2, D3 = 1e-9, 1e-8, 1e-7, 1e-6
# a least-squares system's rank counts its singular values above this fraction of the largest
# (tensor_algebra.min_norm_solve), a count that does not change when the system is rescaled
RANK_CUTOFF = 1e-10
# the gates a row sits behind, in the order they are decided; suites.GATES
# says what each one measures
PS = ("para-sasakian",)
PS_TRPHI = ("para-sasakian", "trace-phi-constant")
SHAPE = ("shape-characterized",)


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
    "einstein.fit": Check("§3 Defn: S = a g + b Phi + c eta(x)eta; its rank counts singular values above "
                          f"{RANK_CUTOFF:g} of the largest", D2),
    "einstein.fit-stability": Check("§3 Defn: a, b, c constant across disjoint sample halves: half fits of one rank "
                                    "and equal minimum-norm members", 1e-6),
    "einstein.ricci-phi-display": Check("§3 Prop: S(phi X, Y) = a g(phi X, Y) + b g(phi X, phi Y)", D1),
    "einstein.ricci-xi-display": Check("§3 Prop: S(X, xi) = (eps a + c) eta(X)", D1),
    "einstein.eps-a-plus-c": Check("§3 Prop: eps a + c = 1 - n", ALG, PS),
    "einstein.scalar-curvature-formula": Check("§3 Prop: r = n a + b trace(phi) + eps c", D1, PS),
    "einstein.ricci-operator-derivative": Check("§3 Thm proof: (nabla_Y Q) X display", D2, PS),
    "einstein.div-q-display": Check("§3 Thm proof: (div Q) X = (eps(1-n) b + c trace(phi)) eta(X)", D2, PS),
    "einstein.scalar-curvature-constant": Check("§3 Thm proof: r = b trace(phi) - eps(n-1)(c+n)", D1, PS),
    "einstein.dr-display": Check("§3 Thm proof: dr = 2 (eps(1-n) b + c trace(phi)) eta", D2, PS),
    "einstein.scalar-ode": Check("§3 Thm: b xi(r) - 2 c r = 2 eps (1-n)(b^2 - c^2 - c n), the one displayed of "
                                 "the two differential equations the statement announces", D1, PS),
    "einstein.trace-phi-formula": Check("§3 Thm: trace(phi) = eps (n-1) b / c", D1, PS_TRPHI),
    "einstein.c11-symmetric": Check("§3: C11(phi R)(Y,Z) = C11(phi R)(Z,Y)", ALG),
    "einstein.s-phi-z-display":
        Check("§3: S(Y, phi Z) = C11(phi R) + eps(n-2) Phi + (2 eta eta - eps g) trace(phi)", D1),
    "einstein.c11-decomposition-derived": Check("§3 Thm: C11(phi R) = lin. comb. of g, Phi, eta(x)eta, re-derived "
                                                "eta(x)eta coefficient -(eps b/c)(c + 2(n-1))", D2, PS),
    "einstein.c11-decomposition-printed": Check("§3 Thm: C11(phi R) = lin. comb. of g, Phi, eta(x)eta, printed "
                                                "eta(x)eta coefficient -(eps/c)(c + 2b(n-1))", D2, PS,
                                                informational=True),
    "einstein.c11-parallel-along-xi": Check("§3 Cor: C11(phi R) parallel along xi", D2, PS),
    "lie.lie-eta": Check("§3: L_xi eta = 0", ALG),
    "lie.lie-g": Check("§3: L_xi g = 2 eps Phi", D1),
    "lie.lie-phi-form-derived": Check("§3: L_xi Phi = 2 eps (g - eps eta(x)eta) (re-derived)", D1),
    "lie.lie-phi-form-printed": Check("§3: L_xi Phi = 2 eps (g - eta(x)eta) (printed)", D1, informational=True),
    "lie.lie-ricci": Check("§3 Thm: L_xi S = 2 a eps Phi + 2 b eps (g - eps eta(x)eta)", D2, PS),
    "lie.lie-c11-derived":
        Check("§3 Thm: L_xi C11(phi R) display, re-derived second factor (g - eps eta(x)eta)", D2, PS_TRPHI),
    "lie.lie-c11-printed": Check("§3 Thm: L_xi C11(phi R) display, printed second factor (g - eta(x)eta)", D2,
                                 PS_TRPHI, informational=True),
    "hypersurface.ambient-j-squared": Check("§4: J^2 = I", ALG),
    "hypersurface.ambient-j-metric": Check("§4: g~(JX, JY) = g~(X, Y)", ALG),
    "hypersurface.ambient-j-parallel": Check("§4: (nabla~_X J) Y = 0", D1),
    "hypersurface.jn-tangent": Check("§4: JN = xi tangent to the hypersurface; else no induced structure exists", D1),
    "hypersurface.epsilon-consistent": Check("§4: g~(N, N) = eps at every sample: max |g~(N,N) - eps|", ALG),
    "hypersurface.shape-self-adjoint": Check("§4: g(A X, Y) = g(X, A Y)", D1),
    "hypersurface.weingarten-tangent": Check("§4: nabla~_X N is tangential", D1),
    "hypersurface.induced-axioms": Check("§4 Prop: induced (phi, xi, eta, g) is an almost paracontact metric "
                                         "structure: max over the seven structure axioms", ALG),
    "hypersurface.induced-grad-phi": Check("§4 Prop: (nabla_X phi) Y = eta(Y) A X + eps g(A X, Y) xi", D2),
    "hypersurface.induced-grad-eta": Check("§4 Prop: (nabla_X eta) Y = -eps g(A X, phi Y)", D2),
    "hypersurface.induced-grad-xi": Check("§4 Prop: nabla_X xi = -phi A X", D2),
    "hypersurface.gauss-equation": Check("§4: Gauss equation R = R~|tan + eps (h wedge h)", D3),
    "hypersurface.characterization-iff":
        Check("§4 Thm: para-Sasakian iff A = -eps I + eps eta(x)xi; counts points violating the equivalence", 0.5),
    "hypersurface.characterization-linear-solve": Check("§4 Thm proof: A recovered uniquely (full rank) from the "
                                                        f"displays; rank counts singular values above {RANK_CUTOFF:g} "
                                                        "of the largest", D1),
    "hypersurface.quasi-umbilical": Check("§4 Rem: h = alpha g + beta u(x)u, alpha=-1, beta=eps, u=eta", ALG, SHAPE),
    "synthetic.quasi-umbilical-exact": Check("§4 Rem: h = -g + eps eta(x)eta on substituting the planted A", 1e-12),
    "synthetic.gauss-vs-derived-display": Check("§4: Gauss reduction vs re-derived display (k+eps)[gg] + k[PhiPhi] "
                                                "+ {eta-cross}, identically in k", 1e-10),
    "synthetic.gauss-vs-printed-display": Check("§4: Gauss reduction vs printed display (k-1)[gg] + k[PhiPhi] "
                                                "+ eps{eta-cross}, identically in k", 1e-10, informational=True),
    "synthetic.k-vs-derived":
        Check("§4: the k solving R(X,Y)xi = eta(X) Y - eta(Y) X on the computed reduction is -eps", 1e-10),
    "synthetic.k-vs-printed": Check("§4: printed expectation k = 2 - eps", 1e-10, informational=True),
    "synthetic.ricci-vs-derived-form": Check("§4: induced Ricci vs re-derived -eps trace(phi) Phi + (1-n) eta(x)eta",
                                             1e-10),
    "synthetic.ricci-vs-printed-form": Check("§4 Thm: induced Ricci vs printed ((2-eps)(n-2)-n) g + (2-eps) "
                                             "trace(phi) Phi + eps(4-eps-n) eta(x)eta", 1e-10, informational=True),
    "synthetic.printed-chain-self-consistency":
        Check("§4: printed display at k = 2-eps contracts to the printed Ricci", 1e-10),
    "synthetic.eps-a-plus-c": Check("§3 Prop: eps a + c = 1 - n on the fit of the induced Ricci", 1e-10),
    "synthetic.einstein-like-fit": Check("§4 Thm: the induced Ricci is an exact constant-coefficient "
                                         "combination of g, Phi, eta(x)eta", 1e-10),
}


def status_of(residual: float, tol: float, informational: bool) -> str:
    """The status of a measured record; see the module docstring."""
    if not math.isfinite(residual):
        return FAIL
    if residual <= tol:
        return PASS
    return PRINTED_FORM_MISMATCH if informational else FAIL


def residual_norm(gap: np.ndarray, *inputs: np.ndarray, axis=None):
    """The one residual rule: max |gap| / (1 + max |input|), the gap reduced
    over ``axis`` (all of it by default) and each input over all of it, so
    the max of the per-point values is the whole residual.  A NaN in the gap
    or an input gives NaN; an empty gap gives 0."""
    if not gap.size:
        return 0.0
    peaks = [float(_max_abs(x)) for x in inputs if x.size]
    scale = math.nan if any(map(math.isnan, peaks)) else 1.0 + max(peaks, default=0.0)
    worst = _max_abs(gap, axis)
    return float(worst) / scale if axis is None else worst / scale


def _max_abs(x, axis=None):
    """max |x| over ``axis``, all of x by default, NaN propagating: np.max(np.abs(x), axis) by the
    ufunc's own reduce, without numpy's Python-level wrapper."""
    return np.maximum.reduce(np.abs(x), axis=axis)


@dataclass
class CheckRecord:
    id: str
    anchor: str
    residual: float
    tolerance: float
    status: str
    detail: str = ""


@dataclass
class StructureCheckResult:
    """The one recorder: records by id, in the order first added, each at
    tolerance scale 1."""

    records: dict[str, CheckRecord] = field(default_factory=dict)
    checks = property(lambda self: list(self.records.values()))

    def add(self, cid: str, gap, *inputs: np.ndarray, detail: str = "", status: str | None = None):
        """Record ``cid`` with the :func:`residual_norm` of an array ``gap``
        and its ``inputs``, or with a residual ``gap`` already reduced, as it
        is; an id added again keeps the larger residual, its row's status for
        it and its first detail.  A ``status`` (vacuous or not-applicable)
        marks a record with nothing measured, at tolerance 0, added once."""
        row, old = CHECKS[cid], self.records.get(cid)
        residual = residual_norm(gap, *inputs) if isinstance(gap, np.ndarray) else float(gap)
        if old is not None:
            if status or old.status in (VACUOUS, NOT_APPLICABLE):
                raise ValueError(f"{cid}: a record with nothing measured is added once")
            residual, detail = float(np.maximum(old.residual, residual)), old.detail
        tol = 0.0 if status else row.tol
        self.records[cid] = CheckRecord(cid, row.anchor, residual, tol,
                                        status or status_of(residual, tol, row.informational), detail)

    def get(self, cid: str) -> CheckRecord:
        return self.records[cid]

    def residual(self, cid: str) -> float:
        return self.get(cid).residual


# json's C encoder for a record's fields and for the report's other fields: it runs only without an
# indent, so each item separator holds the newline and indent json.dumps(indent=2) writes at that
# level (an encoded string holds no raw newline: json escapes it)
_RECORD = json.JSONEncoder(sort_keys=True, allow_nan=False, separators=(",\n      ", ": ")).encode
_FIELDS = json.JSONEncoder(sort_keys=True, allow_nan=False, separators=(",\n  ", ": ")).encode


def _written(residual: float) -> float:
    """A residual as a report writes it: a non-finite one as 1e300."""
    return residual if residual <= 1e300 else 1e300


@dataclass
class CheckReport:
    model: str
    suite: str
    seed: int
    points: int
    engine_version: str
    generated_at: str
    checks: list[CheckRecord] = field(default_factory=list)

    def sort(self):
        self.checks.sort(key=lambda c: c.id)

    @property
    def exit_code(self) -> int:
        return EXIT_CHECK_FAILED if any(c.status == FAIL for c in self.checks) else EXIT_OK

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for c in self.checks:
            out[c.status] = out.get(c.status, 0) + 1
        return out

    def to_dict(self) -> dict:
        self.sort()
        return {
            "model": self.model,
            "suite": self.suite,
            "seed": self.seed,
            "points": self.points,
            "engine_version": self.engine_version,
            "generated_at": self.generated_at,
            "checks": [{**vars(c), "residual": _written(c.residual)} for c in self.checks],
        }

    def to_json(self) -> str:
        """The JSON report (see the module docstring): the encoded records in a list under
        "checks", the report's first key, then the other fields."""
        doc = self.to_dict()
        checks = doc.pop("checks")
        records = ",\n    ".join("{\n      " + _RECORD(r)[1:-1] + "\n    }" for r in checks)
        return ('{\n  "checks": ' + (f"[\n    {records}\n  ]" if checks else "[]") + ",\n  "
                + _FIELDS(doc)[1:-1] + "\n}")

    def to_text(self) -> str:
        self.sort()
        lines = [
            f"model:  {self.model}",
            f"suite:  {self.suite}   seed: {self.seed}   points: {self.points}",
            "",
        ]
        id_w = max((len(c.id) for c in self.checks), default=10)
        st_w = max((len(c.status) for c in self.checks), default=4)
        for c in self.checks:
            lines.append(
                f"  {c.id:<{id_w}}  {c.status:<{st_w}}  residual {_written(c.residual):.3e}"
                f"  (tol {c.tolerance:.1e})  {c.anchor}"
            )
            if c.detail:
                lines.append(f"  {'':<{id_w}}  {'':<{st_w}}  {c.detail}")
        counts = self.counts()
        summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        lines.append("")
        lines.append(f"result: {summary} -> exit {self.exit_code}")
        return "\n".join(lines)


def new_report(model: str, suite: str, seed: int, points: int) -> CheckReport:
    from . import __version__

    return CheckReport(
        model=model,
        suite=suite,
        seed=seed,
        points=points,
        engine_version=__version__,
        generated_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
