"""Suite orchestration and the CLI: determinism, exit codes, report schema,
and the negative-control fixtures for every suite."""

import dataclasses
import json
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from paracheck import hypersurface_lab, suites
from paracheck.cli import build_parser, main
from paracheck.einstein_like import EinsteinLikeFit
from paracheck.manifest import save_manifest
from paracheck.models import METRIC_ORDER, evaluate_structure, get_model
from paracheck.hypersurface_lab import builtin_bundles, synthetic_gauss_check
from paracheck.report import (CHECKS, EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_OK, NOT_APPLICABLE, VACUOUS,
                              StructureCheckResult, new_report, status_of)
from paracheck.paracontact_core import ParacontactStructure
from paracheck.sampling import derive_rng, sample_points
from paracheck.suites import RunConfig, run_suite, run_synthetic

CFG = RunConfig(points=30, seed=7)


def _strip_variable_fields(report_json: str) -> str:
    doc = json.loads(report_json)
    doc.pop("engine_version", None)
    doc.pop("generated_at", None)
    return json.dumps(doc, sort_keys=True)


class TestRunSuite:
    def test_e1_all_exits_zero(self):
        """Every record pass or vacuous at seed 7 and 100 points."""
        report = run_suite(get_model("E1"), "all", RunConfig(points=100, seed=7))
        assert report.exit_code == EXIT_OK
        statuses = {c.status for c in report.checks}
        assert "fail" not in statuses and "not-applicable" not in statuses

    def test_e2_lie_has_exactly_two_printed_form_records(self):
        report = run_suite(get_model("E2"), "lie", CFG)
        assert report.exit_code == EXIT_OK
        mismatches = [c.id for c in report.checks if c.status == "printed-form-mismatch"]
        assert sorted(mismatches) == ["lie.lie-c11-printed", "lie.lie-phi-form-printed"]

    def test_n1_structure_fails(self):
        report = run_suite(get_model("N1"), "structure", CFG)
        assert report.exit_code == EXIT_CHECK_FAILED

    def test_unknown_suite(self):
        """Synthetic is no suite of a target: ``run_synthetic`` is its one entry."""
        for suite in ("everything", "synthetic"):
            with pytest.raises(ValueError, match="unknown suite"):
                run_suite(get_model("E1"), suite, CFG)

    @pytest.mark.parametrize("eps", [0, 2])
    def test_synthetic_epsilon_outside_pm1_is_refused(self, eps, monkeypatch):
        """The canonical metric's xi-xi entry is eps, so eps = 0 would make
        every drawn g degenerate: eps outside {+1, -1} is refused before any
        trial is seeded."""
        def unreachable(*args, **kwargs):
            raise AssertionError("derive_states was reached")

        monkeypatch.setattr(hypersurface_lab, "derive_states", unreachable)
        with pytest.raises(ValueError, match=f"epsilon \\+1 or -1, got {eps}"):
            run_synthetic(RunConfig(epsilon=eps, trials=2))

    def test_hypersurface_needs_bundle(self):
        with pytest.raises(ValueError, match="bundle"):
            run_suite(get_model("E1"), "hypersurface", CFG)

    def test_every_suite_has_a_failing_fixture(self):
        """Checks that can never fail are defects: each suite must reject at
        least one builtin (or synthetic) negative fixture."""
        failing = {
            "structure": run_suite(get_model("N1"), "structure", CFG),
            "sasakian": run_suite(get_model("N1"), "sasakian", CFG),
            "curvature": run_suite(get_model("F0"), "curvature", CFG),
            "einstein": run_suite(builtin_bundles()["E3b"], "einstein", CFG),
            "lie": run_suite(get_model("F0"), "lie", CFG),
            "hypersurface": run_suite(builtin_bundles()["B1"], "hypersurface", CFG),
            "synthetic": run_synthetic(RunConfig(seed=7, trials=3, epsilon=1, dim=3,
                                                 perturb_a=5e-3)),
        }
        for suite, report in failing.items():
            assert report.exit_code == EXIT_CHECK_FAILED, suite

    def test_f0_fails_r_identity_specifically(self):
        report = run_suite(get_model("F0"), "curvature", CFG)
        failed = {c.id for c in report.checks if c.status == "fail"}
        assert "curvature.r-xy-xi" in failed

    def test_bundle_all_runs_every_family(self):
        report = run_suite(builtin_bundles()["E3a"], "all", RunConfig(points=15, seed=7))
        prefixes = {c.id.split(".")[0] for c in report.checks}
        assert prefixes == {"structure", "sasakian", "curvature", "einstein", "lie", "hypersurface"}

    def test_hypersurface_subsets(self):
        for subset, expected_ids in [
            ("induced", {"hypersurface.jn-tangent", "hypersurface.induced-axioms"}),
            ("gauss", {"hypersurface.gauss-equation", "hypersurface.ambient-j-parallel"}),
            ("characterization", {"hypersurface.characterization-iff", "hypersurface.quasi-umbilical"}),
        ]:
            cfg = RunConfig(points=10, seed=7, hypersurface_subset=subset)
            report = run_suite(builtin_bundles()["E3b"], "hypersurface", cfg)
            ids = {c.id for c in report.checks}
            assert expected_ids <= ids, subset

    def test_every_record_has_an_anchor(self):
        for report in (run_suite(get_model("E1"), "all", CFG),
                       run_suite(builtin_bundles()["E3b"], "all", RunConfig(points=10, seed=7)),
                       run_synthetic(RunConfig(seed=7, trials=2, epsilon=-1, dim=3))):
            for c in report.checks:
                assert c.anchor, c.id
                assert c.id in CHECKS

    def test_check_table_matches_the_golden_reports(self):
        """Every id the golden requests emit is a CHECKS row, and every row
        is emitted by at least one of them."""
        from pathlib import Path

        emitted = set()
        for path in (Path(__file__).parent / "golden").glob("*.json"):
            if path.name == "tolerances.json":
                continue
            for case in json.loads(path.read_text()).values():
                emitted |= set(case["report"]["status"])
        assert emitted == set(CHECKS)

    def test_trace_phi_gate(self, monkeypatch):
        """A trace(phi) that drifts by 1e-6 over the samples turns off exactly
        the three records behind the trace-phi-constant gate."""
        trace_phi = ParacontactStructure.trace_phi.func
        monkeypatch.setattr(ParacontactStructure, "trace_phi",
                            property(lambda self: trace_phi(self) + np.linspace(0.0, 1e-6, self.npoints)))
        report = run_suite(get_model("E1"), "all", RunConfig(points=10, seed=7))
        gated = [c for c in report.checks if c.status == "not-applicable"]
        assert sorted(c.id for c in gated) == [
            "einstein.trace-phi-formula", "lie.lie-c11-derived", "lie.lie-c11-printed"]
        assert all(c.detail.startswith("gate trace-phi-constant: ") for c in gated)
        assert sorted(cid for cid, row in CHECKS.items() if "trace-phi-constant" in row.gates) == [
            "einstein.trace-phi-formula", "lie.lie-c11-derived", "lie.lie-c11-printed"]

    def test_checks_sorted_by_id(self):
        report = run_suite(get_model("E1"), "all", CFG)
        ids = [c.id for c in report.checks]
        assert ids == sorted(ids)


def _context(target: str) -> suites._ModelContext:
    """The run context of a request on a builtin chart or bundle, at the
    deepest metric order."""
    cfg = RunConfig(points=10, seed=7)
    if target.startswith("E3"):
        bundle = builtin_bundles()[target]
        pts = sample_points(bundle.embedding.domain, cfg.points, derive_rng(cfg.seed, target, "points"))
        data = hypersurface_lab.evaluate_bundle(bundle, pts, METRIC_ORDER)
        return suites._ModelContext(data.structure, target, cfg, data)
    model = get_model(target)
    pts = sample_points(model.domain, cfg.points, derive_rng(cfg.seed, target, "points"))
    return suites._ModelContext(evaluate_structure(model, pts, METRIC_ORDER), target, cfg)


class TestRequestTable:
    """``suites.REQUESTS`` agrees with the suites, the hypersurface subsets
    and the gates each ``CHECKS`` row declares."""

    MODEL_KINDS = ("structure", "sasakian", "curvature", "einstein", "lie")

    def test_kinds_are_the_request_kinds(self):
        assert set(suites.SUITES) == {*self.MODEL_KINDS, "all", "hypersurface"}
        assert set(suites.REQUESTS) == {*self.MODEL_KINDS, "all", *(
            f"hypersurface {s}" for s in suites.HYPERSURFACE_SUBSETS)}
        table = suites.REQUESTS
        assert table["all"][1] == tuple(g for k in self.MODEL_KINDS for g in table[k][1])
        assert table["hypersurface all"][1] == tuple(
            g for s in ("gauss", "induced", "characterization") for g in table[f"hypersurface {s}"][1])

    @pytest.mark.parametrize("target, kinds", [("E1", ("all",)), ("E3b", ("all", "hypersurface all"))])
    def test_each_group_records_the_rows_of_its_prefix_and_gates(self, target, kinds):
        """Called past their gates, each group records only rows under its
        prefix behind exactly its gates, and every non-synthetic row comes
        from exactly one group."""
        ctx = _context(target)
        owners: dict[str, int] = {}
        for prefix, gates, results in (g for k in kinds for g in suites.REQUESTS[k][1]):
            ids = [c.id for res in results(ctx) for c in res.checks]
            assert ids
            for cid in ids:
                assert cid.startswith(prefix + ".") and CHECKS[cid].gates == gates, (prefix, gates, cid)
                owners[cid] = owners.get(cid, 0) + 1
        if target == "E3b":
            assert owners == dict.fromkeys((cid for cid in CHECKS if not cid.startswith("synthetic.")), 1)

    @pytest.mark.parametrize("target", ["E1", "N1", "F0", "E3a", "E3b"])
    def test_every_gate_forced_open_measures_every_record(self, tmp_path, monkeypatch, target):
        monkeypatch.setattr(suites, "GATES", {g: (what, math.inf, measure)
                                             for g, (what, _, measure) in suites.GATES.items()})
        out = tmp_path / "report.json"
        code = main(["check", target, "--suite", "all", "--points", "10", "--seed", "7",
                     "--format", "json", "--out", str(out)])
        assert code in (EXIT_OK, EXIT_CHECK_FAILED)
        checks = {c["id"]: c for c in json.loads(out.read_text())["checks"]}
        assert not [cid for cid, c in checks.items() if c["status"] == "not-applicable"]
        if target == "E3b":
            assert checks["hypersurface.quasi-umbilical"]["status"] == "fail"


class TestDeterminism:
    def test_reports_byte_identical_modulo_variable_fields(self):
        a = run_suite(get_model("E1"), "curvature", RunConfig(points=20, seed=11))
        b = run_suite(get_model("E1"), "curvature", RunConfig(points=20, seed=11))
        assert _strip_variable_fields(a.to_json()) == _strip_variable_fields(b.to_json())

    def test_different_seed_changes_samples(self):
        a = run_suite(get_model("E1"), "einstein", RunConfig(points=20, seed=11))
        b = run_suite(get_model("E1"), "einstein", RunConfig(points=20, seed=12))
        ra = {c.id: c.residual for c in a.checks}
        rb = {c.id: c.residual for c in b.checks}
        assert any(ra[k] != rb[k] for k in ra)

    def test_synthetic_determinism(self):
        a = run_synthetic(RunConfig(seed=3, trials=5, epsilon=-1, dim=4))
        b = run_synthetic(RunConfig(seed=3, trials=5, epsilon=-1, dim=4))
        assert _strip_variable_fields(a.to_json()) == _strip_variable_fields(b.to_json())


class TestReportSchema:
    def test_json_fields(self):
        report = run_suite(get_model("E1"), "structure", CFG)
        doc = json.loads(report.to_json())
        assert set(doc) == {"model", "suite", "seed", "points", "engine_version",
                            "generated_at", "checks"}
        for c in doc["checks"]:
            assert set(c) == {"id", "anchor", "residual", "tolerance", "status", "detail"}
            assert c["status"] in {"pass", "fail", "vacuous", "not-applicable",
                                   "printed-form-mismatch"}

    def test_text_format_mentions_every_check(self):
        report = run_suite(get_model("E1"), "structure", CFG)
        text = report.to_text()
        for c in report.checks:
            assert c.id in text
        assert "exit 0" in text

    def test_tol_scale(self):
        tight = run_suite(get_model("N1"), "structure", RunConfig(points=10, seed=7, tol_scale=1.0))
        loose = run_suite(get_model("N1"), "structure", RunConfig(points=10, seed=7, tol_scale=1e9))
        assert tight.exit_code == EXIT_CHECK_FAILED
        assert loose.exit_code == EXIT_OK


class TestStatusRule:
    @pytest.mark.parametrize("residual,tol,informational,status", [
        (0.0, 1e-9, False, "pass"), (1e-9, 1e-9, False, "pass"), (2e-9, 1e-9, False, "fail"),
        (1e-9, 1e-9, True, "pass"), (2e-9, 1e-9, True, "printed-form-mismatch"),
        (math.nan, 1e-9, False, "fail"), (math.nan, 1e-9, True, "fail"),
        (math.inf, 1e300, False, "fail"), (math.inf, 1e300, True, "fail"), (-math.inf, 1e-9, True, "fail"),
    ])
    def test_status_of(self, residual, tol, informational, status):
        assert status_of(residual, tol, informational) == status

    @pytest.mark.parametrize("first,second,kept", [
        (1e-12, 3e-12, 3e-12), (3e-12, 1e-12, 3e-12), (math.nan, 1e-12, math.nan), (1e-12, math.nan, math.nan),
        (math.inf, math.nan, math.nan), (math.nan, math.inf, math.nan), (0.0, 0.0, 0.0),
    ])
    def test_a_repeated_id_keeps_the_larger_residual(self, first, second, kept):
        """An id added again is one record, in its first place, with the
        larger of its residuals, a NaN winning in either order, and its
        first detail; an array gap is reduced by residual_norm first."""
        res = StructureCheckResult()
        res.add("structure.phi-squared", first, detail="first")
        res.add("structure.eta-of-xi", 0.0)
        res.add("structure.phi-squared", second, detail="second")
        assert [c.id for c in res.checks] == ["structure.phi-squared", "structure.eta-of-xi"]
        c = res.get("structure.phi-squared")
        assert math.isnan(c.residual) if math.isnan(kept) else c.residual == kept
        assert type(c.residual) is float
        assert (c.detail, c.tolerance) == ("first", CHECKS["structure.phi-squared"].tol)
        res.add("structure.phi-squared", np.array([[2.0, -5.0]]), np.array([4.0]))
        folded = res.residual("structure.phi-squared")
        assert math.isnan(folded) if math.isnan(kept) else folded == 1.0

    @pytest.mark.parametrize("cid,small,large,status", [
        ("structure.phi-squared", 1e-10, 1e-6, "fail"),
        ("lie.lie-phi-form-printed", 1e-10, 1.0, "printed-form-mismatch"),
    ])
    def test_a_folded_record_takes_its_rows_status(self, cid, small, large, status):
        """The status follows the folded residual: pass while every residual
        is within tolerance, then fail, or printed-form-mismatch on an
        informational row, in either order."""
        for order in ((small, large), (large, small)):
            res = StructureCheckResult()
            res.add(cid, order[0])
            assert res.get(cid).status == ("pass" if order[0] == small else status)
            res.add(cid, order[1])
            assert (res.get(cid).status, res.residual(cid)) == (status, large)

    @pytest.mark.parametrize("status", [VACUOUS, NOT_APPLICABLE])
    def test_a_record_with_nothing_measured_is_added_once(self, status):
        """Folding into or from a vacuous or not-applicable record raises, and
        leaves the first record as it was."""
        for first, second in ((status, status), (status, None), (None, status)):
            res = StructureCheckResult()
            res.add("einstein.trace-phi-formula", 0.0, detail="first", status=first)
            before = dataclasses.replace(res.get("einstein.trace-phi-formula"))
            with pytest.raises(ValueError, match="^einstein.trace-phi-formula: a record with nothing measured"):
                res.add("einstein.trace-phi-formula", 0.0, detail="second", status=second)
            assert res.checks == [before]

    def test_record_with_nothing_measured_keeps_its_status_at_tolerance_zero(self):
        report = run_suite(get_model("E1"), "einstein", RunConfig(points=5, seed=7, tol_scale=1e3))
        (c,) = [c for c in report.checks if c.id == "einstein.fit-stability"]
        assert (c.status, c.residual, c.tolerance) == ("not-applicable", 0.0, 0.0)

    def test_informational_rows_are_the_printed_variants(self):
        assert sorted(cid for cid, row in CHECKS.items() if row.informational) == [
            "einstein.c11-decomposition-printed", "lie.lie-c11-printed", "lie.lie-phi-form-printed",
            "synthetic.gauss-vs-printed-display", "synthetic.k-vs-printed", "synthetic.ricci-vs-printed-form"]

    def test_informational_records_never_fail_at_a_tight_scale(self):
        """At eps = +1 the printed Lie displays agree with the re-derived ones;
        at --tol-scale 1e-9 both miss, and the printed ones report
        printed-form-mismatch, not fail."""
        report = run_suite(get_model("E1"), "lie", RunConfig(points=10, seed=42, tol_scale=1e-9))
        printed = {c.id: c.status for c in report.checks if CHECKS[c.id].informational}
        assert printed == {"lie.lie-c11-printed": "printed-form-mismatch",
                           "lie.lie-phi-form-printed": "printed-form-mismatch"}

    def test_printed_records_pass_within_a_loose_scale(self):
        """At eps = -1 the printed Lie displays miss by about 1 and 5; at
        --tol-scale 1e9 their tolerances are 10 and 100, so both pass."""
        report = run_suite(get_model("E2"), "lie", RunConfig(points=10, seed=42, tol_scale=1e9))
        printed = {c.id: (c.status, c.residual > 0.5) for c in report.checks if CHECKS[c.id].informational}
        assert printed == {"lie.lie-c11-printed": ("pass", True), "lie.lie-phi-form-printed": ("pass", True)}
        assert report.exit_code == EXIT_OK


def _strict_json(text: str) -> dict:
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def _json_run(tmp_path, *argv) -> tuple[int, dict]:
    """Exit code and strictly parsed JSON report of one in-process CLI request."""
    out = tmp_path / "report.json"
    code = main([*argv, "--format", "json", "--out", str(out)])
    return code, {c["id"]: c for c in _strict_json(out.read_text())["checks"]}


def _recorded_again(res, cid, residual):
    """``res`` with its ``cid`` record replaced by one the recorder makes from
    ``residual``."""
    del res.records[cid]
    res.add(cid, residual)
    return res


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
class TestNonFiniteResiduals:
    """A NaN or inf residual anywhere fails its record, exits 1, and is
    written as 1e300 in strict JSON; each reduction over residuals keeps it."""

    def test_chart_record(self, tmp_path, monkeypatch, bad):
        check = suites.check_ps_curvature_identities

        def broken(*args):
            return _recorded_again(check(*args), "curvature.ricci-xi", bad)

        monkeypatch.setattr(suites, "check_ps_curvature_identities", broken)
        code, checks = _json_run(tmp_path, "check", "E1", "--suite", "curvature", "--points", "5")
        assert code == EXIT_CHECK_FAILED
        assert checks["curvature.ricci-xi"]["status"] == "fail"
        assert checks["curvature.ricci-xi"]["residual"] == 1e300
        assert checks["curvature.r-xy-xi"]["status"] == "pass"

    def test_non_first_fit_family_member(self, tmp_path, monkeypatch, bad):
        members = EinsteinLikeFit.members
        monkeypatch.setattr(EinsteinLikeFit, "members",
                            lambda self: [m if k != 1 else np.full(3, bad) for k, m in enumerate(members(self))])
        code, checks = _json_run(tmp_path, "check", "E1", "--suite", "all", "--points", "6")
        assert code == EXIT_CHECK_FAILED
        for cid in ("einstein.ricci-xi-display", "einstein.scalar-ode", "einstein.trace-phi-formula",
                    "einstein.c11-decomposition-derived", "einstein.c11-decomposition-printed",
                    "lie.lie-ricci", "lie.lie-c11-printed"):
            assert (checks[cid]["status"], checks[cid]["residual"]) == ("fail", 1e300), cid

    def test_para_sasakian_gate_value(self, tmp_path, monkeypatch, bad):
        check = suites.check_para_sasakian

        def broken(*args):
            return _recorded_again(check(*args), "sasakian.grad-eta", bad)

        monkeypatch.setattr(suites, "check_para_sasakian", broken)
        code, checks = _json_run(tmp_path, "check", "E1", "--suite", "all", "--points", "6")
        assert code == EXIT_CHECK_FAILED
        assert (checks["sasakian.grad-eta"]["status"], checks["sasakian.grad-eta"]["residual"]) == ("fail", 1e300)
        gated = [cid for cid, row in CHECKS.items() if "para-sasakian" in row.gates]
        assert gated
        for cid in gated:
            assert checks[cid]["status"] == "not-applicable", cid
            assert checks[cid]["detail"].startswith(f"gate para-sasakian: largest sasakian.* residual {bad:.3e}")

    def test_synthetic_block(self, bad):
        report = new_report("synthetic", "synthetic", 42, 2)
        suites._merge(report, 1.0, synthetic_gauss_check(1, 3, 2, 42, perturb_a=bad))
        assert report.exit_code == EXIT_CHECK_FAILED
        checks = {c["id"]: c for c in _strict_json(report.to_json())["checks"]}
        # the printed chain's self-consistency does not read the planted operator
        assert checks.pop("synthetic.printed-chain-self-consistency")["status"] == "pass"
        assert {(c["status"], c["residual"]) for c in checks.values()} == {("fail", 1e300)}
        assert len(checks) == 9


def test_overflowing_synthetic_arithmetic_is_quiet():
    """--perturb-a 1e300 overflows the Gauss chain: the run fails and numpy
    warns of nothing (every numpy warning is an error here)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_synthetic(RunConfig(trials=5, perturb_a=1e300))
    assert report.exit_code == EXIT_CHECK_FAILED


def _cli(*args):
    proc = subprocess.run([sys.executable, "-m", "paracheck.cli", *args],
                          capture_output=True, text=True)
    return proc


# each subcommand's options: option strings -> (default, type, choices)
_RUN_OPTIONS = {("--seed",): (42, int, None), ("--tol-scale",): (1.0, float, None),
                ("--format",): ("text", None, ("json", "text")), ("--out",): (None, None, None)}
_CLI_OPTIONS = {
    "list-models": {},
    "check": {("--suite",): ("all", None, suites.SUITES), ("--points",): (100, int, None), **_RUN_OPTIONS},
    "hypersurface": {("--suite",): ("all", None, suites.HYPERSURFACE_SUBSETS), ("--points",): (100, int, None),
                     **_RUN_OPTIONS},
    "synthetic": {("--epsilon",): ("+1", None, ("+1", "-1", "1")), ("--dim",): (3, int, None),
                  ("--trials",): (100, int, None), ("--perturb-a",): (0.0, float, None), **_RUN_OPTIONS},
}


class TestCli:
    def test_each_subcommand_keeps_its_options_and_defaults(self):
        """The options shared by the run commands are declared once; each
        subcommand still takes the same option strings with the same
        defaults, types and choices."""
        sub = next(a for a in build_parser()._actions if a.choices and "check" in a.choices)
        assert set(sub.choices) == set(_CLI_OPTIONS)
        for command, parser in sub.choices.items():
            got = {tuple(a.option_strings): (a.default, a.type, a.choices and tuple(a.choices))
                   for a in parser._actions if a.option_strings and a.dest != "help"}
            assert got == _CLI_OPTIONS[command], command

    def test_list_models(self):
        proc = _cli("list-models")
        assert proc.returncode == 0
        for name in ("E1", "E2", "E3a", "E3b", "N1", "F0"):
            assert name in proc.stdout

    def test_check_pass_and_fail_exit_codes(self):
        assert _cli("check", "E1", "--suite", "structure", "--points", "10").returncode == 0
        assert _cli("check", "N1", "--suite", "structure", "--points", "10").returncode == 1

    def test_unknown_model_is_input_error(self):
        proc = _cli("check", "XX", "--suite", "structure")
        assert proc.returncode == EXIT_INPUT_ERROR
        assert "unknown model" in proc.stderr

    def test_malformed_manifest_position_diagnostic(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "m",\n "dim": }')
        proc = _cli("check", str(path), "--suite", "structure")
        assert proc.returncode == EXIT_INPUT_ERROR
        assert "line 2" in proc.stderr and "column" in proc.stderr

    def test_unwritable_report_path_is_input_error(self, tmp_path):
        out = tmp_path / "missing" / "r.json"
        proc = _cli("check", "E1", "--suite", "structure", "--points", "5", "--out", str(out))
        assert proc.returncode == EXIT_INPUT_ERROR
        assert "Traceback" not in proc.stderr
        assert str(out) in proc.stderr

    def test_directory_manifest_is_input_error(self, tmp_path):
        path = tmp_path / "x.json"
        path.mkdir()
        proc = _cli("check", str(path), "--suite", "structure")
        assert proc.returncode == EXIT_INPUT_ERROR
        assert "Traceback" not in proc.stderr
        assert str(path) in proc.stderr

    @pytest.mark.parametrize("target,field,value", [
        ("E1", ("domain",), 5), ("E1", ("coords",), 3), ("E3a", ("ambient",), 7),
        ("E3a", ("embedding", "domain"), [5, 6, 7]), ("E1", ("dim",), [3]),
    ])
    def test_wrong_json_type_manifest_is_input_error(self, tmp_path, target, field, value):
        """A manifest field of the wrong JSON type is a one-line input error
        naming the file."""
        path = tmp_path / "typed.json"
        save_manifest(builtin_bundles()[target] if target == "E3a" else get_model(target), path)
        doc = json.loads(path.read_text())
        parent = doc
        for key in field[:-1]:
            parent = parent[key]
        parent[field[-1]] = value
        path.write_text(json.dumps(doc))
        proc = _cli("check", str(path), "--suite", "structure", "--points", "5")
        assert proc.returncode == EXIT_INPUT_ERROR
        assert "Traceback" not in proc.stderr
        assert str(path) in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv,message", [
        (("check", "E1", "--suite", "einstein", "--points", "0"), "points must be >= 1"),
        (("check", "E1", "--suite", "einstein", "--points", "-3"), "points must be >= 1"),
        (("check", "E1", "--suite", "structure", "--tol-scale", "nan"), "--tol-scale must be a finite number > 0"),
        (("check", "E1", "--suite", "structure", "--tol-scale", "-1"), "--tol-scale must be a finite number > 0"),
        (("hypersurface", "E3a", "--tol-scale", "0"), "--tol-scale must be a finite number > 0"),
        (("synthetic", "--tol-scale", "inf"), "--tol-scale must be a finite number > 0"),
        (("synthetic", "--perturb-a", "nan"), "--perturb-a must be finite"),
        (("synthetic", "--perturb-a", "inf"), "--perturb-a must be finite"),
        (("check", "E1", "--suite", "hypersurface"), "error: E1: suite 'hypersurface' needs a bundle target, not a"),
        (("hypersurface", "E1"), "error: E1: suite 'hypersurface' needs a bundle target, not a"),
    ], ids=["points-0", "points-negative", "tol-scale-nan", "tol-scale-negative", "tol-scale-0",
            "tol-scale-inf", "perturb-a-nan", "perturb-a-inf", "hypersurface-on-chart",
            "hypersurface-command-on-chart"])
    def test_bad_run_option_is_input_error(self, argv, message):
        """A run option out of its range, or a suite the target cannot run,
        is a one-line input error: exit 2, no traceback."""
        proc = _cli(*argv)
        assert proc.returncode == EXIT_INPUT_ERROR
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_synthetic_is_no_check_suite(self):
        """``check --suite synthetic`` is argparse's invalid choice: exit 2,
        a usage line, and the valid suites."""
        proc = _cli("check", "E1", "--suite", "synthetic")
        assert proc.returncode == EXIT_INPUT_ERROR
        assert "Traceback" not in proc.stderr
        assert "invalid choice: 'synthetic'" in proc.stderr and "'hypersurface', 'all'" in proc.stderr

    def test_synthetic_dim_above_its_bound_is_input_error(self, monkeypatch, capsys):
        """--dim above SYNTHETIC_MAX_DIM is refused when the options are read,
        before any trial is drawn: exit 2 with one error line.  The
        synthetic check is replaced by one that fails if reached, so no
        large request ever runs."""
        def unreachable(*args, **kwargs):
            raise AssertionError("synthetic_gauss_check was reached")

        monkeypatch.setattr(hypersurface_lab, "synthetic_gauss_check", unreachable)
        bound = hypersurface_lab.SYNTHETIC_MAX_DIM
        assert bound == 40
        RunConfig(dim=bound)
        for dim in (bound + 1, 10 ** 9):
            assert main(["synthetic", "--dim", str(dim), "--trials", "2"]) == EXIT_INPUT_ERROR
            err = capsys.readouterr().err
            assert err == f"error: --dim must be at most {bound}, got {dim}\n"

    @pytest.mark.parametrize("argv", [("check", "E1", "--suite", "structure", "--points", "3"),
                                      ("hypersurface", "E3a", "--suite", "induced", "--points", "3"),
                                      ("synthetic", "--trials", "2")], ids=["check", "hypersurface", "synthetic"])
    def test_seed_outside_32_bits_is_input_error(self, argv, capsys):
        """A stream keeps its seed's low 32 bits, so a seed outside
        0..2^32 - 1 would write another seed's checks under its own seed
        field: each command refuses it with exit 2 naming the range, and
        takes both ends of the range."""
        for seed in (-1, 2 ** 32, 2 ** 32 + 42):
            assert main([*argv, "--seed", str(seed), "--format", "json"]) == EXIT_INPUT_ERROR
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: --seed must lie in 0..{2 ** 32 - 1}, got {seed}\n"
        for seed in (0, 2 ** 32 - 1):
            assert main([*argv, "--seed", str(seed), "--format", "json"]) in (0, 1)
            assert json.loads(capsys.readouterr().out)["seed"] == seed

    def test_synthetic_trials_above_their_bound_is_input_error(self, monkeypatch, capsys):
        """--trials above SYNTHETIC_MAX_TRIALS is refused when the options are
        read, before any array is allocated: exit 2 with one error line."""
        def unreachable(*args, **kwargs):
            raise AssertionError("synthetic_gauss_check was reached")

        monkeypatch.setattr(hypersurface_lab, "synthetic_gauss_check", unreachable)
        bound = hypersurface_lab.SYNTHETIC_MAX_TRIALS
        assert bound == 10 ** 6
        RunConfig(trials=bound)
        for trials in (bound + 1, 10 ** 13):
            assert main(["synthetic", "--trials", str(trials)]) == EXIT_INPUT_ERROR
            err = capsys.readouterr().err
            assert err == f"error: --trials must be at most {bound}, got {trials}\n"

    def test_manifest_domain_error_is_input_error(self, tmp_path):
        """A metric entry outside its domain at a request's sample point is
        an input error: exit 2 with a message naming the file."""
        path = tmp_path / "e1.json"
        save_manifest(get_model("E1"), path)
        doc = json.loads(path.read_text())
        doc["metric"][0] = "(x1-3)^0.5"
        path.write_text(json.dumps(doc))
        proc = _cli("check", str(path), "--suite", "structure", "--points", "10")
        assert proc.returncode == EXIT_INPUT_ERROR
        assert "Traceback" not in proc.stderr
        assert str(path) in proc.stderr

    @pytest.mark.parametrize("target,field,value,message", [
        ("E1", ("domain", 2), [0.5, 1e400], "domain[2]: must have finite bounds"),
        ("E1", ("domain", 0), [2.0, -2.0], "domain[0]: has lo > hi"),
        ("E3a", ("embedding", "domain", 1), ["-Infinity", 1.0], "embedding.domain[1]: must have finite bounds"),
        ("E1", ("metric", 0), "1/(y^2)" + "+0*x1" * 1500, "metric[0]: expression nests deeper than"),
        ("E1", ("metric", 0), "(" * 3000 + "1/(y^2)" + ")" * 3000, "metric[0]: expression nests deeper than"),
        ("E3a", ("embedding", "map", 0), "(" * 3000 + "s" + ")" * 3000,
         "embedding.map[0]: expression nests deeper than"),
    ], ids=["infinite-bound", "inverted-interval", "embedding-infinite-bound", "flat-sum", "deep-parentheses",
            "embedding-deep-parentheses"])
    def test_bad_domain_or_over_deep_expression_is_input_error(self, tmp_path, target, field, value, message):
        """A domain bound that is not finite or an inverted interval, and an
        expression nested past the parser's depth bound, are one-line input
        errors naming the manifest and the field: exit 2, no traceback."""
        path = tmp_path / "bad.json"
        save_manifest(builtin_bundles()[target] if target == "E3a" else get_model(target), path)
        doc = json.loads(path.read_text())
        parent = doc
        for key in field[:-1]:
            parent = parent[key]
        parent[field[-1]] = value
        path.write_text(json.dumps(doc).replace('"-Infinity"', "-Infinity"))
        proc = _cli("check", str(path), "--suite", "structure", "--points", "5")
        assert proc.returncode == EXIT_INPUT_ERROR
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: {path}: ")
        assert message in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_rank_deficient_bundle_manifest_is_input_error(self, tmp_path):
        """An embedding whose differential drops rank is found by the
        request's evaluation of the bundle: exit 2, no traceback."""
        path = tmp_path / "flat.json"
        save_manifest(builtin_bundles()["E3a"], path)
        doc = json.loads(path.read_text())
        doc["embedding"]["map"][1] = "0"  # F no longer depends on t
        path.write_text(json.dumps(doc))
        proc = _cli("hypersurface", str(path), "--suite", "induced", "--points", "10")
        assert proc.returncode == EXIT_INPUT_ERROR
        assert "Traceback" not in proc.stderr
        assert "rank-deficient" in proc.stderr
        assert f"{path}: embedding validation failed" in proc.stderr

    def test_singular_ambient_metric_manifest_is_input_error(self, tmp_path):
        """An ambient metric that is singular at the embedded points is named
        with the manifest's path and the first bad point: exit 2, no
        traceback."""
        path = tmp_path / "singular.json"
        save_manifest(builtin_bundles()["E3a"], path)
        doc = json.loads(path.read_text())
        doc["ambient"]["metric"][-1] = "0"  # last diagonal entry of g~
        path.write_text(json.dumps(doc))
        proc = _cli("hypersurface", str(path), "--suite", "all", "--points", "5")
        assert proc.returncode == EXIT_INPUT_ERROR
        assert "Traceback" not in proc.stderr
        assert f"{path}: ambient.metric: degenerate (smallest singular value" in proc.stderr
        assert "at point (" in proc.stderr

    @pytest.mark.parametrize("target,edits,suite,message", [
        ("E1", {("eta", 2): "1e307*sin(100*y)"}, "structure", "structure invariant eta(xi) = 1 violated at point ("),
        ("E1", {("metric", 0): "1/(y^2)+1e300*sin(1e8*x1)^2"}, "sasakian",
         "metric: degenerate (smallest singular value at most 1e-12 of the largest) at point ("),
        ("E2", {("metric", 0): "1/(y^2)+1e300*sin(1e8*x1)^2"}, "sasakian",
         "metric: degenerate (smallest singular value at most 1e-12 of the largest) at point ("),
        *[("E1", {("metric", 0): "0"}, suite,
           "metric: degenerate (smallest singular value at most 1e-12 of the largest) at point (")
          for suite in ("structure", "sasakian", "curvature", "einstein", "lie")],
        ("E3b", {("ambient", "metric", 5): "-1", ("ambient", "metric", 10): "-1"}, "structure",
         "embedding validation failed: normal causal character flips: g~(N,N) has sign +1 at point ("),
        ("E3a", {("ambient", "metric", 0): "u1"}, "structure", "ambient.metric: index 0 at point ("),
    ], ids=["eta-of-xi", "degenerate-metric", "degenerate-lorentzian-metric",
            *[f"degenerate-everywhere-{suite}" for suite in ("structure", "sasakian", "curvature", "einstein", "lie")],
            "normal-flips", "ambient-index-changes"])
    def test_request_time_input_error_names_file_and_point(self, tmp_path, capsys, target, edits, suite, message):
        """A mutant that loads, since the parser checks only what a manifest
        declares, and whose fields are finite at the request's samples, but
        fails there: exit 2 with one line naming the manifest and the point.
        The chart's metric is checked in every suite, also one that builds
        no connection: E1 with g_11 = 0 is degenerate everywhere.  On E2 the
        timelike eigenvalue is below 1e-12 of the largest; degeneracy is
        tested before the index, so the metric is named degenerate, not of
        the wrong index.  E3b in the ambient diag(1, -1, -1, 1), of index 2
        everywhere, has a normal that is spacelike at some samples and
        timelike at others; E3a with g~_11 = u1 has an ambient index that
        changes over the samples."""
        path = tmp_path / "mutant.json"
        save_manifest(builtin_bundles()[target] if target.startswith("E3") else get_model(target), path)
        doc = json.loads(path.read_text())
        for field, value in edits.items():
            parent = doc
            for key in field[:-1]:
                parent = parent[key]
            parent[field[-1]] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["check", str(path), "--suite", suite, "--points", "5"]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}") and len(err.strip().splitlines()) == 1, err

    @pytest.mark.parametrize("edits,message", [
        ({("metric", 4): "ln(x2)"}, "metric[4]: ln of non-positive constant term at point ("),
        ({("metric", 4): "sqrt(x2)"}, "metric[4]: sqrt of non-positive constant term at point ("),
        ({("metric", 4): "exp(x2)", ("domain", 1): [710.0, 720.0]}, "metric: not finite at point ("),
    ], ids=["ln", "sqrt", "exp-overflow"])
    def test_function_of_a_coordinate_outside_its_domain_is_input_error(self, tmp_path, capsys, edits, message):
        """E1 with g_22 = ln(x2) or sqrt(x2) over samples with x2 < 0, or exp(x2) over samples
        where it overflows, exits 2 with one line naming the manifest, the entry and the point."""
        path = tmp_path / "mutant.json"
        save_manifest(get_model("E1"), path)
        doc = json.loads(path.read_text())
        for (key, k), value in edits.items():
            doc[key][k] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["check", str(path), "--suite", "structure", "--points", "5"]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}") and len(err.strip().splitlines()) == 1, err

    def test_rescaled_metric_is_not_degenerate(self, tmp_path):
        """E1n5 with g scaled by 1e-3 (xi and eta rescaled to match) has
        det g below 1e-14 but is as well conditioned as E1n5: the structure
        suite passes, and the sasakian suite runs and fails, since a
        homothety of a para-Sasakian structure is not para-Sasakian."""
        path = tmp_path / "e1n5-scaled.json"
        save_manifest(get_model("E1n5"), path)
        doc = json.loads(path.read_text())
        for key, factor in (("metric", "0.001"), ("xi", "31.622776601683793"), ("eta", "0.03162277660168379")):
            doc[key] = [s if s == "0" else f"{factor}*({s})" for s in doc[key]]
        path.write_text(json.dumps(doc))
        proc = _cli("check", str(path), "--suite", "structure", "--points", "6", "--format", "json")
        assert proc.returncode == EXIT_OK
        assert [c["status"] for c in json.loads(proc.stdout)["checks"]] == ["pass"] * 7
        proc = _cli("check", str(path), "--suite", "sasakian", "--points", "6")
        assert proc.returncode == EXIT_CHECK_FAILED, proc.stderr

    def test_manifest_model_accepted(self, tmp_path):
        path = tmp_path / "e1.json"
        save_manifest(get_model("E1"), path)
        proc = _cli("check", str(path), "--suite", "structure", "--points", "10")
        assert proc.returncode == 0

    def test_json_output_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        proc = _cli("check", "E1", "--suite", "structure", "--points", "10",
                    "--format", "json", "--out", str(out))
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["model"] == "E1"
        assert doc["suite"] == "structure"

    def test_hypersurface_subcommand(self):
        proc = _cli("hypersurface", "E3b", "--suite", "characterization", "--points", "10")
        assert proc.returncode == 0
        proc = _cli("hypersurface", "E1", "--suite", "all")
        assert proc.returncode == EXIT_INPUT_ERROR

    def test_synthetic_subcommand(self):
        proc = _cli("synthetic", "--epsilon", "-1", "--dim", "3", "--trials", "5",
                    "--seed", "9", "--format", "json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        ids = {c["id"] for c in doc["checks"]}
        assert "synthetic.quasi-umbilical-exact" in ids

    def test_cli_repeated_runs_identical(self, tmp_path):
        a = _cli("check", "E1", "--suite", "sasakian", "--points", "15",
                 "--seed", "5", "--format", "json")
        b = _cli("check", "E1", "--suite", "sasakian", "--points", "15",
                 "--seed", "5", "--format", "json")
        assert _strip_variable_fields(a.stdout) == _strip_variable_fields(b.stdout)

    def test_one_process_writes_what_fresh_processes_do(self, tmp_path):
        """Requests served one after another by one process's main, which
        builds its parser once, write the bytes that a fresh process writes
        for each, apart from generated_at."""
        requests = [("check", "E1", "--suite", "structure", "--points", "5"),
                    ("hypersurface", "E3a", "--suite", "induced", "--points", "5"),
                    ("synthetic", "--dim", "4", "--trials", "5")]

        def text(path):
            return re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', path.read_text())

        fresh = []
        for k, argv in enumerate(requests):
            out = tmp_path / f"fresh{k}.json"
            assert _cli(*argv, "--seed", "5", "--format", "json", "--out", str(out)).returncode == EXIT_OK
            fresh.append(text(out))
        for k in (0, 1, 2, 0, 1):
            out = tmp_path / f"served{k}.json"
            assert main([*requests[k], "--seed", "5", "--format", "json", "--out", str(out)]) == EXIT_OK
            assert text(out) == fresh[k]
        assert build_parser() is build_parser()
