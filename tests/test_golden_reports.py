"""Golden reports: the exit code, every record's status and every residual of
a fixed set of CLI requests, compared against the files in ``tests/golden/``.

The requests cover every builtin target (E1, E2, E1n5, E2n5, N1, F0, E3a,
E3b, B1) under the seven ``check`` suites of CHECK_SUITES, the three
hypersurface subsets and ``all`` on E3a and E3b, the ``synthetic`` command at
eps = +-1, n in {3, 5}, and ``check --suite all`` on the test manifests of
``tests/fixtures/``: W1 is E1 with the x2 metric factor (1 + x1^2)^2 / y^2,
para-Sasakian but not Einstein-like, so the fit fails there and the rows
behind it are measured where they can fail; W2 is its eps = -1 twin, E2 with
the same factor.  Every request runs at seed 42 unless its argv names its own
seed, as W1's second case does (seed 7).  Statuses and exit codes must match
exactly; residuals within 1e-12 absolute.  Sizes are small so the whole
comparison stays fast: 10 points for dim-3 targets, 6 for the dim-5 charts
(enough for the fit-stability split), 50 synthetic trials.

Regenerate the goldens only when the expected output really changes, and
never from inside pytest, and only the targets whose output changed, so the
other files keep their bytes.  Within a file, a stored case whose new run
has the same exit code and statuses and every residual within 1e-12 keeps
its bytes too (``merge``):

    python tests/test_golden_reports.py [TARGET ...]

The golden files hold residuals only to 1e-12, so a claim that a change
leaves reports alone is checked against the parent commit instead: run every
golden case under this tree's ``src/`` and under ``DIR/src/`` (a checkout of
the parent, say from ``git archive``), print each case's exit-code and status
differences and its largest residual drift with the record id it is at, and
exit 1 on any exit or status difference or a drift above 1e-12.  Each case's
line also lists the record ids whose anchor or detail text differs, which
never changes the exit code:

    python tests/test_golden_reports.py --against DIR

``tests/golden/tolerances.json`` locks the tolerance of every record id these
requests measure, as dumped once from their reports before tolerances moved
into the check table, now ``report.CHECKS``; regenerating the goldens does
not touch it.  Every
measured record must report exactly that tolerance, and every vacuous or
not-applicable record 0.0.
"""

from __future__ import annotations

import dataclasses
import difflib
import functools
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_DIR = HERE / "golden"
RESIDUAL_ATOL = 1e-12
SEED = 42

CHECK_SUITES = ("structure", "sasakian", "curvature", "einstein", "lie", "hypersurface", "all")
HYPERSURFACE_SUBSETS = ("induced", "gauss", "characterization", "all")
POINTS = {"E1": 10, "E2": 10, "E1n5": 6, "E2n5": 6, "N1": 10, "F0": 10,
          "E3a": 10, "E3b": 10, "B1": 10}
SYNTHETIC_TRIALS = 50
MANIFESTS = {"W1": 10, "W2": 10}      # test manifest -> points of its check-all case


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
    for name, points in MANIFESTS.items():
        out[name] = {"check-all": ["check", f"tests/fixtures/{name}.json", "--suite", "all", "--points", str(points)]}
    out["W1"]["check-all-seed7"] = [*out["W1"]["check-all"], "--seed", "7"]
    return out


def runnable(argv) -> list[str]:
    """argv with a test manifest's path, stored relative to the repository
    root, made absolute, and with ``--seed SEED`` unless it names its own."""
    out = [str(ROOT / a) if a.startswith("tests/fixtures/") else a for a in argv]
    return out if "--seed" in out else [*out, "--seed", str(SEED)]


@functools.cache
def run_report(argv: tuple[str, ...]) -> tuple[int, list[dict]]:
    """Exit code and report records of one in-process CLI request."""
    from paracheck.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        code = main([*runnable(argv), "--format", "json", "--out", str(out)])
        return code, json.loads(out.read_text())["checks"] if out.exists() else []


def run_case(argv: list[str]) -> dict:
    """Exit code, statuses and residuals of one in-process CLI request."""
    code, checks = run_report(tuple(argv))
    return {
        "exit": code,
        "status": {c["id"]: c["status"] for c in checks},
        "residual": {c["id"]: c["residual"] for c in checks},
    }


def _drift(a: float, b: float) -> float:
    """|a - b|, 0 for two NaNs or equal values, inf for one NaN."""
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    return 0.0 if a == b else abs(a - b)


def largest_drift(here: dict, there: dict) -> tuple[float, str | None]:
    """The largest residual drift between two {id: residual} runs of a case,
    over the ids both measure, and the id it is at: None when nothing
    drifted, the first id in sorted order on a tie."""
    drift, at = 0.0, None
    for cid in sorted(here.keys() & there.keys()):
        if (d := _drift(here[cid], there[cid])) > drift:
            drift, at = d, cid
    return drift, at


def test_largest_drift_names_its_record():
    assert largest_drift({"a": 1.0, "b": 2.0, "c": math.nan, "d": 5.0},
                         {"a": 1.0, "b": 2.5, "c": math.nan, "e": 9.0}) == (0.5, "b")
    assert largest_drift({"a": 1.0, "b": 2.0}, {"a": 1.5, "b": 1.5}) == (0.5, "a")
    assert largest_drift({"a": 0.0, "b": math.nan}, {"a": 3.0, "b": 1.0}) == (math.inf, "b")
    assert largest_drift({"a": 1.0}, {"a": 1.0, "b": 2.0}) == (0.0, None)


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
        if g is not None and _drift(g, r) > RESIDUAL_ATOL:
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
def test_details_hold_no_fixed_text(target):
    """Each record is declared once: its fixed text lives in its CHECKS anchor, and its detail holds
    only what the run measured or a state it reached.  So no detail shares a run of 12 or more
    characters with its anchor, or says "informational", which the row's flag and the status carry."""
    problems = set()
    for argv in cases()[target].values():
        for c in run_report(tuple(argv))[1]:
            a, d = c["anchor"], c["detail"]
            run = difflib.SequenceMatcher(None, a, d, autojunk=False).find_longest_match(0, len(a), 0, len(d))
            if run.size >= 12 or "informational" in d:
                problems.add(f"{c['id']}: {d!r} repeats {a[run.a:run.a + run.size]!r}")
    assert not problems, "\n".join(sorted(problems))


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


def test_to_json_is_the_asdict_serialization(monkeypatch, tmp_path):
    """Every golden request's JSON report is byte for byte the report's
    dataclasses.asdict copy, dumped with the same options."""
    from paracheck import cli

    reports, emit = [], cli._emit
    monkeypatch.setattr(cli, "_emit", lambda report, fmt, out: reports.append(report) or emit(report, fmt, out))
    codes = [cli.main([*runnable(argv), "--format", "json", "--out", str(tmp_path / "report.json")])
             for group in cases().values() for argv in group.values()]
    assert len(reports) == sum(code != 2 for code in codes) > 70
    for report in reports:
        text = report.to_json()
        assert text == json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True, allow_nan=False)


def _written_reports():
    """Reports the goldens do not hold: one with no checks; non-finite residuals, which a report
    writes as 1e300; and a model name and details holding quotes, a backslash, a newline, a tab,
    a control character, non-ASCII text and a character outside the Basic Multilingual Plane."""
    from paracheck.report import NOT_APPLICABLE, StructureCheckResult, new_report

    empty = new_report("E1", "all", 42, 5)
    non_finite = new_report("E1n5", "einstein", 0, 6)
    res = StructureCheckResult()
    res.add("einstein.fit", math.inf, detail="rank differs")
    res.add("einstein.fit-stability", math.nan)
    res.add("einstein.eps-a-plus-c", 0.0, detail="gate", status=NOT_APPLICABLE)
    non_finite.checks = res.checks
    odd = new_report('W "1" \\ \u00e9', "structure", 7, 10)
    res = StructureCheckResult()
    res.add("structure.phi-squared", 1.5e-17, detail='a "quoted" word, a back\\slash,\na newline\tand a tab')
    res.add("structure.eta-of-xi", 2.0, detail="\x01 \u00a7 \u03c6\u00b2 = I \u2212 \u03b7\u2297\u03be, \U0001d524")
    odd.checks = res.checks
    return {"empty": empty, "non-finite": non_finite, "odd-text": odd}


@pytest.mark.parametrize("name", ["empty", "non-finite", "odd-text"])
def test_to_json_writes_what_json_dumps_writes(name):
    """The report writer's bytes are json.dumps(to_dict(), indent=2, sort_keys=True,
    allow_nan=False) also where the goldens reach nothing: no checks, non-finite residuals and
    text that JSON escapes."""
    report = _written_reports()[name]
    text = report.to_json()
    assert text == json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False)
    assert json.loads(text) == report.to_dict()
    if name == "non-finite":
        assert [c["residual"] for c in json.loads(text)["checks"]] == [0.0, 1e300, 1e300]


def merge(stored: dict, fresh: dict) -> dict:
    """The golden cases to write: the fresh ones, except that a stored case
    with the same argv whose report the fresh run matches (the same exit code
    and statuses, every residual within RESIDUAL_ATOL) stays as stored, so a
    regeneration rewrites only the cases whose output really changed."""
    return {name: stored[name] if name in stored and stored[name]["argv"] == case["argv"]
            and not differences(stored[name]["report"], case["report"]) else case
            for name, case in fresh.items()}


def test_regeneration_keeps_matching_cases():
    """merge keeps a stored case whose fresh run has the same exit code and
    statuses and residuals within RESIDUAL_ATOL, and takes the fresh case
    when any of them, or the argv, moved; a new case is added and a case no
    longer listed is dropped."""
    def case(argv="check E1", code=0, status="pass", residual=1e-15):
        return {"argv": [argv], "report": {"exit": code, "status": {"a": status, "b": "pass"},
                                           "residual": {"a": residual, "b": 2.0}}}

    stored = {"same": case(), "drift": case(), "moved": case(), "status": case(), "exit": case(),
              "argv": case(), "gone": case()}
    fresh = {"same": case(residual=1e-15), "drift": case(residual=1e-15 + RESIDUAL_ATOL / 2),
             "moved": case(residual=1e-15 + 2 * RESIDUAL_ATOL), "status": case(status="fail"),
             "exit": case(code=1), "argv": case(argv="check E2"), "new": case()}
    merged = merge(stored, fresh)
    assert sorted(merged) == sorted(fresh)
    for name in ("same", "drift"):
        assert merged[name] is stored[name], name
    for name in ("moved", "status", "exit", "argv", "new"):
        assert merged[name] is fresh[name], name


def test_regeneration_refuses_unknown_targets(monkeypatch, tmp_path):
    """regenerate exits non-zero naming every requested target that is not
    a golden target, before it runs a case or writes a file."""
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "GOLDEN_DIR", tmp_path / "golden")
    monkeypatch.setattr(module, "run_case", lambda argv: pytest.fail(f"ran {argv}"))
    with pytest.raises(SystemExit) as stop:
        regenerate(["W3", "E1", "e1"])
    assert str(stop.value).startswith("unknown golden targets: W3, e1 (targets: B1, E1, ")
    assert not (tmp_path / "golden").exists()


def regenerate(targets):
    """Write the golden file of each of ``targets``, by default of every
    target, keeping each stored case that still matches (``merge``).  A
    requested target with no golden cases exits non-zero, naming every such
    target, before any case runs or any file is written."""
    unknown = [t for t in targets if t not in cases()]
    if unknown:
        sys.exit(f"unknown golden targets: {', '.join(unknown)} (targets: {', '.join(sorted(cases()))})")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for target, group in cases().items():
        if targets and target not in targets:
            continue
        path = GOLDEN_DIR / f"{target}.json"
        stored = json.loads(path.read_text()) if path.exists() else {}
        data = merge(stored, {name: {"argv": argv, "report": run_case(argv)} for name, argv in group.items()})
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        kept = sum(data[name] is stored.get(name) for name in data)
        print(f"wrote {target}.json ({len(data)} cases, {kept} kept as stored)")


def collect(out: str):
    """Write every golden case's exit code, statuses and residuals, and each
    record's [anchor, detail] under "text", to ``out``, as ``{target: {case:
    run_case(argv) + text}}``."""
    data = {target: {name: {**run_case(argv), "text": {c["id"]: [c["anchor"], c["detail"]]
                                                       for c in run_report(tuple(argv))[1]}}
                     for name, argv in group.items()} for target, group in cases().items()}
    Path(out).write_text(json.dumps(data))


def against(other: Path) -> int:
    """Compare every golden case under this tree's ``src/`` with the same case
    under ``other/src/``, one line per case, naming the id of its largest
    residual drift and listing the ids whose anchor or detail text differs;
    then the largest drift of all, with its case and id; 1 on any exit or
    status difference or a residual drift above RESIDUAL_ATOL, else 0."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, src in enumerate((ROOT / "src", other / "src")):
            out = Path(tmp) / f"{i}.json"
            proc = subprocess.run([sys.executable, __file__, "--collect", str(src), str(out)],
                                  capture_output=True, text=True)     # exit-2 cases print their errors
            if proc.returncode:
                sys.exit(f"collecting under {src} failed:\n{proc.stderr}")
            runs.append(json.loads(out.read_text()))
    bad, worst, worst_at = 0, 0.0, ""
    for target, group in cases().items():
        for name in group:
            here, there = runs[0][target][name], runs[1][target][name]
            ids = sorted(set(here["status"]) | set(there["status"]))
            moved = [f"{cid} {there['status'].get(cid)} -> {here['status'].get(cid)}"
                     for cid in ids if here["status"].get(cid) != there["status"].get(cid)]
            if here["exit"] != there["exit"]:
                moved.insert(0, f"exit {there['exit']} -> {here['exit']}")
            drift, at = largest_drift(here["residual"], there["residual"])
            if drift > worst:
                worst, worst_at = drift, f" ({target} {name}: {at})"
            bad += bool(moved) or drift > RESIDUAL_ATOL
            texts = [cid for cid in ids if here["text"].get(cid) != there["text"].get(cid)]
            print(f"{target} {name}: exit {here['exit']}, {len(moved)} differences, drift {drift:.3g}"
                  + (f" at {at}" if at else "")
                  + "".join(f"\n    {m}" for m in moved)
                  + (f"\n    text differs: {', '.join(texts)}" if texts else ""))
    print(f"{bad} cases differ; largest residual drift {worst:.3g}{worst_at}")
    return int(bad > 0)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--collect"]:
        sys.path.insert(0, sys.argv[2])
        collect(sys.argv[3])
    elif sys.argv[1:2] == ["--against"]:
        sys.exit(against(Path(sys.argv[2]).resolve()))
    else:
        sys.path.insert(0, str(HERE.parent / "src"))
        regenerate(sys.argv[1:])
