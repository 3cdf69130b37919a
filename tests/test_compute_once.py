"""Each geometric object of a request is built once, and only when a
requested check reads it: the connection of every metric, the axiom checks,
the para-Sasakian gate and C11(phi R).  Call counts are taken by rebinding
each function under every name the package imports it by."""

import functools
import sys

from paracheck import einstein_like, geometry_engine, hypersurface_lab, paracontact_core
from paracheck.cli import main
from paracheck.hypersurface_lab import get_bundle
from paracheck.manifest import save_manifest
from paracheck.models import get_model
from paracheck.suites import RunConfig, run_suite


def _count(monkeypatch, fn) -> dict:
    calls = {"n": 0}

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        calls["n"] += 1
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "paracheck" or name.startswith("paracheck.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is fn:
                monkeypatch.setattr(mod, attr, counted)
    return calls


def _counts(monkeypatch):
    return (_count(monkeypatch, geometry_engine.christoffel),
            _count(monkeypatch, paracontact_core.check_para_sasakian),
            _count(monkeypatch, einstein_like.compute_c11_phi_r))


def test_bundle_all_builds_ambient_and_induced_connection_once(monkeypatch):
    conn, gate, _ = _counts(monkeypatch)
    run_suite(get_bundle("E3a"), "all", RunConfig(points=10))
    assert conn["n"] == 2
    assert gate["n"] == 1


def test_chart_all_builds_connection_gate_and_c11_once(monkeypatch):
    conn, gate, c11 = _counts(monkeypatch)
    run_suite(get_model("E1"), "all", RunConfig(points=10))
    assert conn["n"] == 1
    assert gate["n"] == 1
    assert c11["n"] == 1


def test_structure_request_builds_no_connection_and_runs_no_gate(monkeypatch):
    conn, gate, _ = _counts(monkeypatch)
    run_suite(get_model("E1"), "structure", RunConfig(points=10))
    assert conn["n"] == 0
    assert gate["n"] == 0


def test_curvature_request_takes_no_covariant_derivative(monkeypatch):
    """The curvature identities read R and S only, so div Q, the one
    derivative of the curvature package, is not built."""
    nabla = _count(monkeypatch, geometry_engine.covariant_derivative)
    run_suite(get_model("E1"), "curvature", RunConfig(points=10))
    assert nabla["n"] == 0


def test_gauss_request_takes_one_covariant_derivative(monkeypatch):
    """The gauss subset reads nabla J~ and the curvature values of the
    ambient and induced metrics, neither curvature's div Q."""
    nabla = _count(monkeypatch, geometry_engine.covariant_derivative)
    run_suite(get_bundle("E3a"), "hypersurface", RunConfig(points=10, hypersurface_subset="gauss"))
    assert nabla["n"] == 1


def test_bundle_all_checks_the_axioms_once(monkeypatch):
    axioms = _count(monkeypatch, paracontact_core.check_axioms)
    run_suite(get_bundle("E3a"), "all", RunConfig(points=10))
    assert axioms["n"] == 1


def test_manifest_bundle_request_evaluates_the_bundle_once(monkeypatch, tmp_path):
    """Loading a bundle manifest parses it; the request's own evaluation
    is the only one."""
    path = tmp_path / "e3b.json"
    save_manifest(get_bundle("E3b"), path)
    evals = _count(monkeypatch, hypersurface_lab.evaluate_bundle)
    rc = main(["hypersurface", str(path), "--suite", "induced", "--points", "10",
               "--format", "json", "--out", str(tmp_path / "report.json")])
    assert rc == 0
    assert evals["n"] == 1
