"""Check reports: named records with residuals, tolerances, and statuses.

:func:`status_of` is the one status rule of a measured record, applied to
its ``suites.CHECKS`` row (tolerance times the run's scale, informational
flag):

- a non-finite residual is ``fail``;
- a residual within tolerance is ``pass``;
- any other residual is ``printed-form-mismatch`` on an informational record
  (a published display that the re-derived normative record overrules) and
  ``fail`` on every other record.

A record with nothing measured carries its own status and tolerance 0:
``vacuous`` when every family member was degenerate, ``not-applicable`` when
a gate declared in ``suites.CHECKS`` fails.  Only ``fail`` affects the exit
code; an informational record never fails on a finite residual.

Reports serialize to JSON deterministically: records sorted by id, keys
sorted, floats via repr, and a non-finite residual as 1e300, so the output
is strict JSON.  The ``engine_version`` and ``generated_at`` fields are the
only run-to-run variable parts.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"
NOT_APPLICABLE = "not-applicable"
PRINTED_FORM_MISMATCH = "printed-form-mismatch"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def status_of(residual: float, tol: float, informational: bool) -> str:
    """The status of a measured record; see the module docstring."""
    if not math.isfinite(residual):
        return FAIL
    if residual <= tol:
        return PASS
    return PRINTED_FORM_MISMATCH if informational else FAIL


@dataclass
class CheckRecord:
    id: str
    anchor: str
    residual: float
    tolerance: float
    status: str
    detail: str = ""


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
            "checks": [asdict(c) for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)

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
                f"  {c.id:<{id_w}}  {c.status:<{st_w}}  residual {c.residual:.3e}"
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
