"""Self-tests of the benchmark: tracer coverage, pin comparison, count
repeatability and the no-sources exit.  Run with

    python3 -m pytest -q perfbench/tests
"""

import copy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import pins  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

SEED = 3

# Each function named by a per-layer metric, with the workload that must call it.
HOME = {
    "chart-n5": [
        tracer.MUL, "expr_jet.eval_expr", "expr_jet.parse_expr",
        "tensor_algebra.contract_with", "tensor_algebra.invert_jet_matrix",
        "tensor_algebra.MetricAtPoint.build",
        "geometry_engine.christoffel", "geometry_engine.curvature",
        "geometry_engine.covariant_derivative", "geometry_engine.lie_derivative",
        "models.evaluate_structure", "paracontact_core.check_para_sasakian",
        "einstein_like.compute_c11_phi_r", "suites.run_suite", "report.CheckReport.to_json",
        "cli.main",
    ],
    "bundle-n3": [
        "hypersurface_lab.evaluate_bundle", "hypersurface_lab.check_ps_characterization",
        "hypersurface_lab.recover_shape_operator",
    ],
    "cli-sweep": ["hypersurface_lab.synthetic_gauss_check", "manifest.load_manifest"],
}


def traced_pass(workload: str, workdir: Path):
    loop = worker.Loop(workload, SEED, workdir, small=True, check=False)
    loop.one_pass()
    loop.one_pass(traced=True)
    loop.one_pass()
    return loop


@pytest.mark.parametrize("workload", list(HOME))
def test_listed_functions_are_called(workload, tmp_path):
    loop = traced_pass(workload, tmp_path)
    stats = tracer.span_stats(loop.tracer.names, loop.tracer.spans)
    missing = [f for f in HOME[workload] if stats[f]["calls"] == 0]
    assert not missing
    assert all(s is not None for s in loop.tracer.spans)
    assert {loop.table[s[4]]["pass"] for s in loop.tracer.spans} == {1}


def test_tracer_rebinds_name_imports_and_restores_them():
    import paracheck.hypersurface_lab as hl
    import paracheck.suites as su
    from paracheck import geometry_engine, paracontact_core

    before = (su.check_axioms, hl.christoffel, paracontact_core.christoffel)
    t = tracer.Tracer()
    t.install()
    try:
        assert su.check_axioms is paracontact_core.check_axioms
        assert su.check_axioms is not before[0]
        assert hl.christoffel is geometry_engine.christoffel is paracontact_core.christoffel
        assert hl.christoffel is not before[1]
    finally:
        t.uninstall()
    assert (su.check_axioms, hl.christoffel, paracontact_core.christoffel) == before


def test_counts_repeat_and_time_is_attributed(tmp_path):
    runs = [worker.run("bundle-n3", SEED, 0.0, True, tmp_path, small=True, check=False)
            for _ in range(2)]
    counts = [{k: v for k, v in r["layers"].items() if k.endswith(tracer.COUNT_SUFFIXES)} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["expr_jet.mul.calls"] > 0
    for r in runs:
        m = r["layers"]
        assert 0 <= m["trace.unattributed_s"] < 0.05 * m["trace.pass_s"]


@pytest.fixture
def pinned():
    pin = pins.load("bundle-n3")
    key = next(k for k in pin if k.startswith("check E3b"))
    want = pin[key]
    report = {"model": "E3b", "worst": {}, "checks": [
        {"id": cid, "status": st, "residual": want["residual"]["42"][cid], "gates": []}
        for cid, st in want["status"].items()]}
    return want, report


def test_pin_accepts_its_own_output_and_ignores_new_fields(pinned):
    want, report = pinned
    assert pins.compare(want, 42, want["exit"], report) == []
    assert pins.compare(want, 5, want["exit"], report) == []


def test_pin_flags_flipped_status(pinned):
    want, report = pinned
    bad = copy.deepcopy(report)
    c = next(c for c in bad["checks"] if c["status"] == "pass")
    c["status"] = "fail"
    assert any("status fail, pinned pass" in p for p in pins.compare(want, 5, want["exit"], bad))


def test_pin_flags_residual_drift_only_at_residual_seeds(pinned):
    want, report = pinned
    bad = copy.deepcopy(report)
    bad["checks"][0]["residual"] += 2e-12
    assert any("residual" in p for p in pins.compare(want, 42, want["exit"], bad))
    assert pins.compare(want, 5, want["exit"], bad) == []
    ok = copy.deepcopy(report)
    ok["checks"][0]["residual"] += 5e-13
    assert pins.compare(want, 42, want["exit"], ok) == []


def test_pin_flags_exit_code_exception_and_missing_pin(pinned):
    want, report = pinned
    assert any("exit code 2" in p for p in pins.compare(want, 42, 2, report))
    assert pins.compare(want, 42, None, None) == ["raised an exception"]
    assert pins.compare(None, 42, 0, report) == ["no pin for this request"]


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "chart-n5",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert p.returncode != 0
    assert p.stdout == ""
