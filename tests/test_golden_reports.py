"""Golden reports: the exit code, every record's status and every residual of
a fixed set of CLI requests, compared against the files in ``tests/golden/``.

The requests cover every builtin target (E1, E2, E1n5, E2n5, N1, F0, E3a,
E3b, B1) under every ``check`` suite, the three hypersurface subsets and
``all`` on E3a and E3b, and the synthetic suite at eps = +-1, n in {3, 5}.
Statuses and exit codes must match exactly; residuals within 1e-12
absolute.  Sizes are small so the whole comparison stays fast: 10 points
for dim-3 targets, 6 for the dim-5 charts (enough for the fit-stability
split), 50 synthetic trials.

Regenerate the goldens only when the expected output really changes, and
never from inside pytest:

    python tests/test_golden_reports.py

``tests/golden/tolerances.json`` locks the tolerance of every record id these
requests measure, as dumped once from their reports before tolerances moved
into ``suites.CHECKS``; regenerating the goldens does not touch it.  Every
measured record must report exactly that tolerance, and every vacuous or
not-applicable record 0.0.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"
RESIDUAL_ATOL = 1e-12
SEED = 42

CHECK_SUITES = ("structure", "sasakian", "curvature", "einstein", "lie", "hypersurface",
                "synthetic", "all")
HYPERSURFACE_SUBSETS = ("induced", "gauss", "characterization", "all")
POINTS = {"E1": 10, "E2": 10, "E1n5": 6, "E2n5": 6, "N1": 10, "F0": 10,
          "E3a": 10, "E3b": 10, "B1": 10}
SYNTHETIC_TRIALS = 50


def cases() -> dict[str, dict[str, list[str]]]:
    """Golden file name -> {case name -> CLI argv}."""
    out: dict[str, dict[str, list[str]]] = {}
    for target, points in POINTS.items():
        group = {f"check-{suite}": ["check", target, "--suite", suite, "--points", str(points)]
                 for suite in CHECK_SUITES}
        if target in ("E3a", "E3b"):
            for subset in HYPERSURFACE_SUBSETS:
                group[f"hypersurface-{subset}"] = ["hypersurface", target, "--suite", subset,
                                                   "--points", str(points)]
        out[target] = group
    out["synthetic"] = {
        f"eps{eps}-n{n}": ["synthetic", "--epsilon", eps, "--dim", str(n),
                           "--trials", str(SYNTHETIC_TRIALS)]
        for eps in ("+1", "-1") for n in (3, 5)
    }
    return out


@functools.cache
def run_report(argv: tuple[str, ...]) -> tuple[int, list[dict]]:
    """Exit code and report records of one in-process CLI request."""
    from paracheck.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        code = main([*argv, "--seed", str(SEED), "--format", "json", "--out", str(out)])
        return code, json.loads(out.read_text())["checks"] if out.exists() else []


def run_case(argv: list[str]) -> dict:
    """Exit code, statuses and residuals of one in-process CLI request."""
    code, checks = run_report(tuple(argv))
    return {
        "exit": code,
        "status": {c["id"]: c["status"] for c in checks},
        "residual": {c["id"]: c["residual"] for c in checks},
    }


def _same_residual(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= RESIDUAL_ATOL


def differences(want: dict, got: dict) -> list[str]:
    problems = []
    if got["exit"] != want["exit"]:
        problems.append(f"exit {got['exit']}, golden {want['exit']}")
    for cid in sorted(set(want["status"]) | set(got["status"])):
        a, b = got["status"].get(cid), want["status"].get(cid)
        if a != b:
            problems.append(f"{cid}: status {a}, golden {b}")
    for cid, r in want["residual"].items():
        g = got["residual"].get(cid)
        if g is not None and not _same_residual(g, r):
            problems.append(f"{cid}: residual {g!r}, golden {r!r}")
    return problems


@pytest.mark.parametrize("target", sorted(cases()))
def test_golden_reports(target):
    golden = json.loads((GOLDEN_DIR / f"{target}.json").read_text())
    group = cases()[target]
    assert sorted(golden) == sorted(group), "golden file and case list disagree"
    problems = []
    for name, argv in group.items():
        problems += [f"{name}: {p}" for p in differences(golden[name]["report"], run_case(argv))]
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("target", sorted(cases()))
def test_tolerances_are_locked(target):
    locked = json.loads((GOLDEN_DIR / "tolerances.json").read_text())
    problems = []
    for name, argv in cases()[target].items():
        for c in run_report(tuple(argv))[1]:
            want = 0.0 if c["status"] in ("vacuous", "not-applicable") else locked.get(c["id"])
            if c["tolerance"] != want:
                problems.append(f"{name}: {c['id']} ({c['status']}): tolerance {c['tolerance']!r}, locked {want!r}")
    assert not problems, "\n".join(problems)


def regenerate():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for target, group in cases().items():
        data = {name: {"argv": argv, "report": run_case(argv)} for name, argv in group.items()}
        (GOLDEN_DIR / f"{target}.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {target}.json ({len(data)} cases)")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    regenerate()
