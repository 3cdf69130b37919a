"""Each geometric object of a request is built once, and only when a
requested check reads it: the connection of every metric, each covariant
derivative, the axiom checks, the para-Sasakian gate run, each gate's value,
C11(phi R) and its covariant derivative, trace(phi), the terms built from
the vector pairs ((nabla_X phi) Y, the para-Sasakian right side, rho1,
R(X, Y)), and a bundle's induced package, its h = eps g(A., .) and its
shape gap, its Weingarten map read off the frame inverse with no linear
solve; and
each distinct expression string of a field grid is parsed and evaluated
once per grid, its tree built once per process; each metric is checked once,
where it is evaluated, by one eigendecomposition; a jet product takes the
pair table only when neither operand is constant; and a constant metric
takes no connection work, nor a constant matrix a Newton step.  Call
counts are taken by rebinding each function under every name the package
imports it by."""

import functools
import json
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paracheck import (einstein_like, expr_jet, geometry_engine, hypersurface_lab, paracontact_core, report, suites,
                       tensor_algebra)
from paracheck.cli import main
from paracheck.expr_jet import ExprSyntaxError, JetDomainError, JetSpace, eval_expr, parse_expr
from paracheck.hypersurface_lab import builtin_bundles
from paracheck.manifest import save_manifest
from paracheck.models import _eval_grid, evaluate_structure, get_model
from paracheck.sampling import derive_rng, sample_points
from paracheck.suites import VECTOR_TUPLES, RunConfig, run_suite


def _count(monkeypatch, fn, when=lambda out, *args: True) -> dict:
    """Counts the calls of ``fn`` whose result and arguments satisfy ``when``."""
    calls = {"n": 0}

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls["n"] += bool(when(out, *args))
        return out

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
    run_suite(builtin_bundles()["E3a"], "all", RunConfig(points=10))
    assert conn["n"] == 2
    assert gate["n"] == 1


def test_chart_all_builds_connection_gate_and_c11_once(monkeypatch):
    conn, gate, c11 = _counts(monkeypatch)
    run_suite(get_model("E1"), "all", RunConfig(points=10))
    assert conn["n"] == 1
    assert gate["n"] == 1
    assert c11["n"] == 1


@pytest.mark.parametrize("argv,metrics", [
    (["check", "E1", "--suite", "structure"], 1),
    (["check", "E1", "--suite", "sasakian"], 1),
    (["check", "E3a", "--suite", "all"], 2),
])
def test_each_metric_is_checked_once(monkeypatch, tmp_path, argv, metrics):
    """Each metric's degeneracy and index are tested once, where it is
    evaluated, by one eigendecomposition: a chart's g at any jet order, a
    bundle's ambient g~ at F(points) and its induced g.  Building a
    connection tests neither again."""
    inertias = _count(monkeypatch, tensor_algebra.inertia)
    eigvalsh = np.linalg.eigvalsh
    eigs = {"n": 0}

    def counted(a, *args, **kwargs):
        eigs["n"] += 1
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert main([*argv, "--points", "10", "--format", "json", "--out", str(tmp_path / "report.json")]) in (0, 1)
    assert (inertias["n"], eigs["n"]) == (metrics, metrics)


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
    run_suite(builtin_bundles()["E3a"], "hypersurface gauss", RunConfig(points=10))
    assert nabla["n"] == 1


@pytest.mark.parametrize("name,count", [("E1", 8), ("N1", 5), ("E3a", 6)])
def test_all_request_takes_each_covariant_derivative_once(monkeypatch, name, count):
    """An all request reads count covariant derivatives: nabla phi, nabla xi
    and nabla eta (the para-Sasakian gate), nabla g and nabla Phi (L_xi g,
    L_xi Phi), on the para-Sasakian E1 also nabla Q (div Q), nabla C11
    (parallel along xi, L_xi C11) and nabla S (L_xi S), and on the bundle
    E3a nabla J~.  Each is taken once, save nabla Phi and nabla S, which the
    Lie records read off nabla phi and nabla Q (one per verify_lie_formulas,
    one per verify_lie_ricci): 6 taken on E1, 4 on N1, 5 on E3a."""
    nabla = _count(monkeypatch, geometry_engine.covariant_derivative)
    formulas = _count(monkeypatch, einstein_like.verify_lie_formulas)
    ricci = _count(monkeypatch, einstein_like.verify_lie_ricci)
    target = builtin_bundles()[name] if name == "E3a" else get_model(name)
    run_suite(target, "all", RunConfig(points=10))
    read_off = formulas["n"] + ricci["n"]
    assert read_off == (2 if name == "E1" else 1)
    assert nabla["n"] == count - read_off


@pytest.mark.parametrize("name,count", [("E1", 1), ("F0", 0), ("N1", 0)])
def test_all_request_builds_nabla_c11_only_behind_the_gate(monkeypatch, name, count):
    """nabla C11 is built on first read, once, by the groups behind the
    para-Sasakian gate; on F0 and N1 that gate fails, so none is built."""
    built, nabla = [], {"n": 0}
    compute = einstein_like.compute_c11_phi_r
    structure_nabla = paracontact_core.ParacontactStructure._nabla

    def kept(struct):
        built.append(compute(struct))
        return built[-1]

    def counted(self, T):
        nabla["n"] += any(T is c11 for c11 in built)
        return structure_nabla(self, T)

    monkeypatch.setattr(einstein_like, "compute_c11_phi_r", kept)
    monkeypatch.setattr(paracontact_core.ParacontactStructure, "_nabla", counted)
    run_suite(get_model(name), "all", RunConfig(points=10))
    assert (len(built), nabla["n"]) == (1, count)


def test_bundle_all_checks_the_axioms_once(monkeypatch):
    axioms = _count(monkeypatch, paracontact_core.check_axioms)
    run_suite(builtin_bundles()["E3a"], "all", RunConfig(points=10))
    assert axioms["n"] == 1


def _pair_builds(monkeypatch) -> tuple[Counter, dict, dict, dict]:
    """Counts what a request builds from its vector pairs: (nabla_X phi) Y,
    the apply_op of the (1,2) tensor nabla phi on the pairs, and R contracted
    with the pairs, an apply_op of the (1,3) tensor R; then the para-Sasakian
    right sides, the per-point residuals rho1 of the defining equation (a
    residual_norm of a gap over the pairs kept per point) and the per-point
    shape gaps of a bundle."""
    builds = Counter()

    def kind(out, op, *vectors):
        builds["grad-phi"] += op.ndim == 4 and vectors[0].shape[1] == VECTOR_TUPLES
        builds["R(X,Y)"] += op.ndim == 5
        return True

    _count(monkeypatch, paracontact_core.apply_op, kind)
    return (builds, _count(monkeypatch, paracontact_core.para_sasakian_rhs),
            _count(monkeypatch, report.residual_norm,
                   lambda out, gap, *inputs: np.ndim(out) == 1 and gap.shape[1:2] == (VECTOR_TUPLES,)),
            _count(monkeypatch, hypersurface_lab.shape_characterization_gap_per_point))


@pytest.mark.parametrize("name", ["E3a", "E3b"])
def test_bundle_all_builds_each_vector_pair_term_once(monkeypatch, name):
    """The para-Sasakian gate, the characterization's rho1, the shape
    recovery, the induced (nabla phi) display and the curvature identities
    share one (nabla_X phi) Y, one right side and one R(X, Y); the
    defining-equation record and the characterization share one rho1; the
    shape-characterized gate and rho2 share one shape gap."""
    builds, rhs, rho1, gap = _pair_builds(monkeypatch)
    run_suite(builtin_bundles()[name], "all", RunConfig(points=10))
    assert (builds["grad-phi"], rhs["n"], builds["R(X,Y)"], rho1["n"], gap["n"]) == (1, 1, 1, 1, 1)


def _builds(monkeypatch, prop) -> dict:
    """Counts the builds of the cached property ``prop`` of a class."""
    calls = {"n": 0}
    build = prop.func

    def counted(self):
        calls["n"] += 1
        return build(self)

    monkeypatch.setattr(prop, "func", counted)
    return calls


@pytest.mark.parametrize("target,builds", [pytest.param("B1", 0, id="B1"), pytest.param("E3a", 1, id="E3a"),
                                           pytest.param("E3b", 1, id="E3b")])
def test_bundle_all_builds_the_induced_package_and_h_on_first_read(monkeypatch, target, builds):
    """A bundle's induced package (one build_induced call: the structure, A
    and the frame residual) and h = eps g(A., .) are each built on first
    read, once; B1, whose JN is not tangent, reads neither."""
    induced = _builds(monkeypatch, hypersurface_lab.HypersurfaceData.induced)
    h = _builds(monkeypatch, hypersurface_lab.HypersurfaceData.h)
    run_suite(builtin_bundles()[target], "all", RunConfig(points=10))
    assert (induced["n"], h["n"]) == (builds, builds)


@pytest.mark.parametrize("target", [pytest.param("E3a", id="E3a"), pytest.param("E3b", id="E3b")])
def test_bundle_all_reads_the_weingarten_map_off_the_frame_inverse(monkeypatch, target):
    """The frame split's jet inverse of the frame (T_1 .. T_n, N) also gives
    the Weingarten map's coefficients, so no linear system is solved."""
    solve = np.linalg.solve
    solves = {"n": 0}

    def counted(*args, **kwargs):
        solves["n"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    run_suite(builtin_bundles()[target], "all", RunConfig(points=10))
    assert solves["n"] == 0


def test_chart_all_contracts_r_with_the_pairs_once(monkeypatch):
    """R(X, Y) xi, R(X, Y) phi Z and R(X, Y) Z are mat-vecs of one R(X, Y)."""
    builds, rhs, rho1, gap = _pair_builds(monkeypatch)
    run_suite(get_model("E1n5"), "all", RunConfig(points=6))
    assert (builds["grad-phi"], rhs["n"], builds["R(X,Y)"], rho1["n"], gap["n"]) == (1, 1, 1, 1, 0)


@pytest.mark.parametrize("name,measured", [
    ("E1", {"para-sasakian": 1, "trace-phi-constant": 1}),
    ("E3a", {"para-sasakian": 1, "shape-characterized": 1}),
])
def test_all_request_measures_each_gate_once(monkeypatch, name, measured):
    """A gate is measured once per request, however many check groups sit
    behind it: on E1 the para-Sasakian gate guards four groups and the
    trace(phi)-constancy gate two; on E3a the para-Sasakian gate, which
    fails, four, and the shape gate one."""
    counts = Counter()
    for gate, (what, threshold, measure) in list(suites.GATES.items()):
        def counted(ctx, gate=gate, measure=measure):
            counts[gate] += 1
            return measure(ctx)

        monkeypatch.setitem(suites.GATES, gate, (what, threshold, counted))
    run_suite(builtin_bundles()[name] if name == "E3a" else get_model(name), "all", RunConfig(points=10))
    assert counts == measured


def test_chart_all_takes_trace_phi_once(monkeypatch):
    """The trace-phi-constant gate, the scalar ODE, the trace formula and
    the C11 identities read one trace(phi)."""
    einsum = np.einsum
    traces = {"n": 0}

    def counted(subscripts, *operands, **kwargs):
        traces["n"] += subscripts == "paa->p"
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    run_suite(get_model("E1"), "all", RunConfig(points=10))
    assert traces["n"] == 1


def test_manifest_bundle_request_evaluates_the_bundle_once(monkeypatch, tmp_path):
    """Loading a bundle manifest parses it; the request's own evaluation
    is the only one."""
    path = tmp_path / "e3b.json"
    save_manifest(builtin_bundles()["E3b"], path)
    evals = _count(monkeypatch, hypersurface_lab.evaluate_bundle)
    rc = main(["hypersurface", str(path), "--suite", "induced", "--points", "10",
               "--format", "json", "--out", str(tmp_path / "report.json")])
    assert rc == 0
    assert evals["n"] == 1


@pytest.mark.parametrize("target,pair_products", [
    ("E1", 8), ("E2", 11), ("E1n5", 8), ("E2n5", 11), ("N1", 7), ("F0", 0),
    ("E3a", 0), ("E3b", 15), ("B1", 8),
])
def test_all_request_takes_the_pair_table_only_between_non_constants(monkeypatch, tmp_path, target, pair_products):
    """A jet product goes through the pair table (one JetSpace._scatter)
    only when neither operand is constant.  E3a's flat ambient g~ and J~,
    its linear embedding's frame and F0's flat chart are constants, so they
    take none; on the other targets the constants (ambient connections and
    curvatures, Newton steps on a constant metric, literal factors) take
    none either, nor does a function of one coordinate (the sin and cos of
    the E3b and B1 maps), which the counts lock at seed 42."""
    scatters = {"n": 0}
    scatter = JetSpace._scatter

    def counted(self, pairs):
        scatters["n"] += 1
        return scatter(self, pairs)

    monkeypatch.setattr(JetSpace, "_scatter", counted)
    main(["check", target, "--suite", "all", "--points", "5", "--seed", "42", "--format", "json",
          "--out", str(tmp_path / "report.json")])
    assert scatters["n"] == pair_products


@pytest.mark.parametrize("target,flat,constant", [
    ("F0", 1, 1), ("E3a", 2, 5), ("E3b", 1, 2), ("B1", 1, 2),
    ("E1", 0, 0), ("E2", 0, 0), ("E1n5", 0, 0), ("E2n5", 0, 0), ("N1", 0, 0),
])
def test_all_request_takes_the_flat_route_on_constant_metrics(monkeypatch, tmp_path, target, flat, constant):
    """A connection of a constant metric is flat, and a constant jet matrix
    is inverted by its seed.  The flat ambient of every bundle, F0's chart,
    E3a's induced metric and the rows and frame of its linear embedding are
    constant; the curved charts have none, which the counts lock at seed 42."""
    flats = _count(monkeypatch, geometry_engine.christoffel, lambda conn, *args: conn.flat)
    constants = _count(monkeypatch, tensor_algebra.invert_jet_matrix, lambda X, space, G: not G[..., 1:].any())
    main(["check", target, "--suite", "all", "--points", "5", "--seed", "42", "--format", "json",
          "--out", str(tmp_path / "report.json")])
    assert (flats["n"], constants["n"]) == (flat, constant)


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
    save_manifest(builtin_bundles()[argv[1]] if argv[0] == "hypersurface" else get_model(argv[1]), path)
    parses = _count(monkeypatch, expr_jet.parse_expr)
    rc = main([argv[0], str(path), *argv[2:], "--points", "10", "--format", "json",
               "--out", str(tmp_path / "report.json")])
    assert rc == 0
    assert parses["n"] <= most


@pytest.mark.parametrize("argv", [["check", "E1", "--suite", "structure"],
                                  ["hypersurface", "E3b", "--suite", "induced"]])
def test_a_request_run_twice_builds_one_parser_per_distinct_source(monkeypatch, tmp_path, argv):
    """Trees are cached by (source, coords): a manifest request run twice in one process builds
    one parser for each distinct source of each coordinate list, at the first load, and none
    after."""
    target = builtin_bundles()[argv[1]] if argv[0] == "hypersurface" else get_model(argv[1])
    path = tmp_path / f"{argv[1]}.json"
    save_manifest(target, path)
    doc = json.loads(path.read_text())
    grids = ([(doc["ambient"]["coords"], doc["ambient"][f]) for f in ("metric", "J")]
             + [(doc["embedding"]["coords"], doc["embedding"]["map"])] if argv[0] == "hypersurface"
             else [(doc["coords"], doc[f]) for f in ("metric", "phi", "xi", "eta")])
    distinct = {(s, tuple(coords)) for coords, grid in grids for s in grid}
    parsers = {"n": 0}

    class Counted(expr_jet._Parser):
        def __init__(self, *args):
            parsers["n"] += 1
            super().__init__(*args)

    expr_jet._parse.cache_clear()
    monkeypatch.setattr(expr_jet, "_Parser", Counted)
    for _ in range(2):
        assert main([argv[0], str(path), *argv[2:], "--points", "10", "--format", "json",
                     "--out", str(tmp_path / "report.json")]) == 0
    assert parsers["n"] == len(distinct)


def test_a_syntax_error_names_its_entry_on_every_request(tmp_path, capsys):
    """A failed parse is not cached: the same bad manifest, requested twice, is refused twice
    with the entry named."""
    path = tmp_path / "bad.json"
    save_manifest(get_model("E1"), path)
    doc = json.loads(path.read_text())
    doc["metric"][4] = "1/(y^2"
    path.write_text(json.dumps(doc))
    for _ in range(2):
        capsys.readouterr()
        assert main(["check", str(path), "--suite", "structure", "--points", "5"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: metric[4]: expected ')'")
