"""Each geometric object of a request is built once, and only when a
requested check reads it: the connection of every metric, each covariant
derivative, the axiom checks, the para-Sasakian gate and C11(phi R); and
each distinct expression string of a field grid is parsed and evaluated
once per grid.  Call counts are taken by rebinding each function under
every name the package imports it by."""

import functools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paracheck import einstein_like, expr_jet, geometry_engine, hypersurface_lab, paracontact_core
from paracheck.cli import main
from paracheck.expr_jet import ExprSyntaxError, JetDomainError, JetSpace, eval_expr, parse_expr
from paracheck.hypersurface_lab import get_bundle
from paracheck.manifest import save_manifest
from paracheck.models import _eval_grid, evaluate_structure, get_model
from paracheck.sampling import derive_rng, sample_points
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


@pytest.mark.parametrize("name,count", [("E1", 8), ("N1", 5), ("E3a", 6)])
def test_all_request_takes_each_covariant_derivative_once(monkeypatch, name, count):
    """nabla phi, nabla xi and nabla eta (the para-Sasakian gate), nabla g and
    nabla Phi (L_xi g, L_xi Phi), on the para-Sasakian E1 also nabla Q (div Q),
    nabla C11 (parallel along xi, L_xi C11) and nabla S (L_xi S), and on the
    bundle E3a nabla J~: the Lie derivatives read nabla xi, nabla eta and
    nabla C11 from the structure and take no derivative themselves."""
    nabla = _count(monkeypatch, geometry_engine.covariant_derivative)
    target = get_bundle(name) if name == "E3a" else get_model(name)
    run_suite(target, "all", RunConfig(points=10))
    assert nabla["n"] == count


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


# sources over x0 and x1, finite with a finite jet on [-1, 1]^dim
POOL = ["0", "1", "-1.0", "x0", "x0*x1 - 2", "1/(2 + x1^2)", "exp(x0/3)", "sqrt(3 + x0)", "-sin(x1)*x0"]


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(st.data())
def test_a_grid_is_its_entries_evaluated_one_by_one(data):
    """A vector or matrix drawn from a few sources, so that entries repeat,
    has exactly the jets of evaluating every entry on its own, byte for
    byte."""
    dim, order = data.draw(st.integers(2, 4)), data.draw(st.integers(0, 3))
    matrix = data.draw(st.booleans())
    pool = data.draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=4, unique=True))
    flat = data.draw(st.lists(st.sampled_from(pool), min_size=dim * dim if matrix else dim,
                              max_size=dim * dim if matrix else dim))
    sources = [flat[i * dim:(i + 1) * dim] for i in range(dim)] if matrix else flat
    coords = [f"x{i}" for i in range(dim)]
    points = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).uniform(-1, 1, (4, dim))
    space = JetSpace.get(dim, order)
    coord_jets = space.point_jets(points)
    want = np.stack([eval_expr(parse_expr(s, coords), space, coord_jets, points=points) for s in flat], axis=1)
    want = want.reshape((4,) + ((dim, dim) if matrix else (dim,)) + (space.ncoeffs,))
    got = _eval_grid(sources, coords, space, coord_jets, points, "phi")
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("sources,error,match", [
    ([["0", "1/("], ["1/(", "y"]], ExprSyntaxError, r"^phi\[1\]: "),
    ([["0", "x", "y"], ["y +", "x", "1/("], ["0", "0", "0"]], ExprSyntaxError, r"^phi\[3\]: "),
    ([["0", "1/(x-x)"], ["y +", "y"]], JetDomainError, r"^phi\[1\]: division by a jet with zero constant term at point"),
    ([["0", "exp(1000)"], ["1/(", "y"]], JetDomainError, r"^phi: not finite at point \(0\.5, 1\.5, 0\.1\)$"),
])
def test_a_bad_grid_names_its_first_bad_entry(sources, error, match):
    """The first failing entry in row-major order decides the error, as
    when every entry was evaluated: a bad source repeated at entries 1 and
    3 is named at 1, two different ones at 3 and 5 at 3, and a domain or
    not-finite error at entry 1 comes before a syntax error at 2."""
    points = np.array([[0.5, 1.5, 0.1], [-0.5, 2.0, 0.3]])
    space = JetSpace.get(3, 1)
    with pytest.raises(error, match=match):
        _eval_grid(sources, ["x", "y", "z"], space, space.point_jets(points), points, "phi")


@pytest.mark.parametrize("name,distinct", [("E1n5", 8), ("E2n5", 9)])
def test_structure_evaluates_each_distinct_source_once(monkeypatch, name, distinct):
    """E1n5 has two distinct strings in each of g, phi, xi and eta; E2n5's
    metric has a third (its timelike -1/(y^2))."""
    model = get_model(name)
    evals = _count(monkeypatch, expr_jet.eval_expr)
    evaluate_structure(model, sample_points(model.domain, 5, derive_rng(1, name)))
    assert evals["n"] == distinct


@pytest.mark.parametrize("argv,most", [
    (["check", "E1", "--suite", "structure"], 16),
    (["hypersurface", "E3b", "--suite", "induced"], 20),
])
def test_manifest_request_parses_each_distinct_source_once_per_grid(monkeypatch, tmp_path, argv, most):
    """Loading parses or evaluates each distinct string of a grid once,
    and the request's evaluation once more: 8 + 8 for the E1 manifest."""
    path = tmp_path / f"{argv[1]}.json"
    save_manifest(get_bundle(argv[1]) if argv[0] == "hypersurface" else get_model(argv[1]), path)
    parses = _count(monkeypatch, expr_jet.parse_expr)
    rc = main([argv[0], str(path), *argv[2:], "--points", "10", "--format", "json",
               "--out", str(tmp_path / "report.json")])
    assert rc == 0
    assert parses["n"] <= most
