"""Manifest fuzz: mutants of the builtin E1 chart and E3b bundle manifests.

Every mutant, with one or two fields changed, runs as the CLI requests
``check --suite structure`` (jets of order 0) and ``check --suite all``
(order 3), and a bundle mutant also as ``hypersurface --suite all``, each in
this process: each must return 0, 1 or 2 and never raise.  Mutants of the
fields whose errors name their field (lengths, coordinate names, JSON types,
expression entries, domain bounds, any field that is not finite where it is
evaluated) must exit 2 from every request with one line
``error: <path>: <field>: ...`` and no warning.  The fuzz is derandomized,
so every run draws the same mutants.

Reference: MacIver et al., *Hypothesis: A new approach to property-based
testing*, JOSS 2019.
"""

from __future__ import annotations

import copy
import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paracheck.cli import main
from paracheck.hypersurface_lab import get_bundle
from paracheck.manifest import manifest_dict
from paracheck.models import get_model

BASES = {"E1": manifest_dict(get_model("E1")), "E3b": manifest_dict(get_bundle("E3b"))}
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# expressions that do not parse: a bad token, an open parenthesis, an
# unknown name, a non-finite literal or exponent, a number token that is no
# number, nesting past the parser's bound
BAD_EXPRESSIONS = ["1/(y^2", "y +", "q", "1e400", "inf", "nan", ")", "(" * 150 + "1" + ")" * 150,
                   ".", "2^1e400", "²"]
# expressions that overflow at some or all sample points
NOT_FINITE = ["exp(1000)", "exp(800)*y", "exp(1000*x1)", "1/(y^2)*exp(800)^2"]


def _paths(node, prefix=()):
    """Every path into a JSON document, containers and leaves."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _set(doc, path, value):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _requests(base: str) -> list[list[str]]:
    """The CLI requests a mutant of ``base`` runs as, before its path."""
    out = [["check", "--suite", "structure"], ["check", "--suite", "all"]]
    return out + [["hypersurface", "--suite", "all"]] if base == "E3b" else out


def _run(tmp_path, capsys, doc, request) -> tuple[int, str, str]:
    """Exit code and standard error of ``request`` on ``doc``, at 5 points."""
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main([request[0], str(path), *request[1:], "--points", "5"])
    return code, capsys.readouterr().err, str(path)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 20, 10 ** 20) | st.sampled_from([2 ** 63, -10 ** 400])
    | st.floats() | st.sampled_from(BAD_EXPRESSIONS) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


def _mutate(draw, doc):
    """Replace one field of ``doc`` by any JSON value, shorten or lengthen a
    list, give it a repeated first entry, or wrap a value in a list."""
    path = draw(st.sampled_from([p for p in _paths(doc) if p]))
    old = _get(doc, path)
    how = draw(st.sampled_from(["replace", "shorten", "lengthen", "repeat", "wrap"]))
    if how == "replace" or not isinstance(old, list) or not old:
        new = draw(json_values) if how != "wrap" else [old]
    elif how == "shorten":
        new = old[:-1]
    elif how == "lengthen":
        new = old + [copy.deepcopy(old[-1])]
    elif how == "repeat":
        new = [old[0]] + old[:-1] if len(old) > 1 else old + old
    else:
        new = [old]
    _set(doc, path, new)


@st.composite
def mutants(draw):
    """A base manifest name and a copy of it with one or two fields mutated."""
    base = draw(st.sampled_from(sorted(BASES)))
    doc = copy.deepcopy(BASES[base])
    for _ in range(draw(st.integers(1, 2))):
        _mutate(draw, doc)
    return base, doc


@FUZZ
@given(mutants())
def test_every_mutant_exits_0_1_or_2(tmp_path, capsys, mutant):
    base, doc = mutant
    for request in _requests(base):
        code, err, _ = _run(tmp_path, capsys, doc, request)
        assert code in (0, 1, 2), (request, err)
        if code == 2:
            assert err.startswith("error: ") and len(err.strip().splitlines()) == 1, (request, err)


def _targeted(draw):
    """(base, [(path, value)], field): a mutant of a field whose error names
    it, and the field its one error line must name."""
    e1 = BASES["E1"]
    kind = draw(st.sampled_from(["metric", "phi", "xi", "eta", "domain", "phi-type", "coords",
                                 "not-finite", "not-finite-field", "not-finite-bundle", "ambient",
                                 "embedding.map", "embedding.domain", "ambient.coords"]))
    if kind == "metric":           # an entry and its transpose, so the grid stays symmetric
        i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        bad = draw(st.sampled_from(BAD_EXPRESSIONS))
        field = f"metric[{3 * min(i, j) + max(i, j)}]"          # the first of the two, row-major
        return "E1", [(("metric", 3 * i + j), bad), (("metric", 3 * j + i), bad)], field
    if kind in ("phi", "xi", "eta"):
        k = draw(st.integers(0, len(e1[kind]) - 1))
        return "E1", [((kind, k), draw(st.sampled_from(BAD_EXPRESSIONS)))], f"{kind}[{k}]"
    if kind == "domain":
        k, end = draw(st.integers(0, 2)), draw(st.integers(0, 1))
        bad = draw(st.sampled_from([True, False, None, "1.0", float("inf"), float("nan"), 10 ** 400, [0.5]]))
        return "E1", [(("domain", k, end), bad)], f"domain[{k}]"
    if kind == "phi-type":
        return "E1", [(("phi",), draw(st.sampled_from([True, False, 3, "x", {}, [], ["0"] * 8])))], "phi"
    if kind == "coords":
        value = draw(st.sampled_from([["x1", "x2"], ["x1", "x2", "y", "z"], ["x1", "x1", "y"],
                                      ["x1", "x2", True]]))
        return "E1", [(("coords",), value)], "coords"
    if kind == "not-finite":
        k = draw(st.sampled_from([0, 4, 8]))
        return "E1", [(("metric", k), draw(st.sampled_from(["exp(1000)", "1/(y^2)*exp(800)^2"])))], "metric"
    if kind == "not-finite-field":
        field = draw(st.sampled_from(["phi", "xi", "eta"]))
        k = draw(st.integers(0, len(e1[field]) - 1))
        return "E1", [((field, k), draw(st.sampled_from(NOT_FINITE)))], field
    if kind == "not-finite-bundle":     # first evaluated by the request, not at load
        path, coord = draw(st.sampled_from([(("ambient", "metric"), "u1"), (("ambient", "J"), "v2"),
                                            (("embedding", "map"), "t")]))
        k = draw(st.integers(0, len(_get(BASES["E3b"], path)) - 1))
        bad = draw(st.sampled_from(["exp(1000)", f"exp(800)*{coord}"]))
        return "E3b", [(path + (k,), bad)], ".".join(path)
    if kind == "ambient":
        grid = draw(st.sampled_from(["metric", "J"]))
        k = draw(st.integers(0, 15))
        return "E3b", [(("ambient", grid, k), draw(st.sampled_from(BAD_EXPRESSIONS)))], f"ambient.{grid}[{k}]"
    if kind == "embedding.map":
        k = draw(st.integers(0, 3))
        return "E3b", [(("embedding", "map", k), draw(st.sampled_from(BAD_EXPRESSIONS)))], f"embedding.map[{k}]"
    if kind == "embedding.domain":
        k, end = draw(st.integers(0, 2)), draw(st.integers(0, 1))
        bad = draw(st.sampled_from([True, None, "0", float("-inf"), {}]))
        return "E3b", [(("embedding", "domain", k, end), bad)], f"embedding.domain[{k}]"
    coords = BASES["E3b"]["ambient"]["coords"]
    value = draw(st.sampled_from([coords[:3], coords + ["w"], [coords[0]] * 4, coords[:3] + [7]]))
    return "E3b", [(("ambient", "coords"), value)], "ambient.coords"


@FUZZ
@given(st.composite(_targeted)())
def test_a_named_field_mutant_exits_2_naming_it(tmp_path, capsys, case):
    base, edits, field = case
    doc = copy.deepcopy(BASES[base])
    for path, value in edits:
        _set(doc, path, value)
    for request in _requests(base):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err, path = _run(tmp_path, capsys, doc, request)
        assert code == 2, (request, err)
        assert err.startswith(f"error: {path}: {field}: ") and len(err.strip().splitlines()) == 1, (request, err)
        assert not caught, (request, [str(w.message) for w in caught])


@pytest.mark.parametrize("suite", ["structure", "sasakian", "curvature", "all"])
def test_finite_field_with_overflowing_derivative(tmp_path, capsys, suite):
    """phi[0] = 1e307 sin(100 y) is finite, so the load and the structure
    suite (values only) accept it; its y-derivative overflows, so every suite
    that reads a derivative exits 2 naming phi."""
    doc = copy.deepcopy(BASES["E1"])
    doc["phi"][0] = "1e307*sin(100*y)"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")      # the structure suite's arithmetic overflows
        code, err, path = _run(tmp_path, capsys, doc, ["check", "--suite", suite])
    if suite == "structure":
        assert code in (0, 1), err
    else:
        assert code == 2 and err.startswith(f"error: {path}: phi: not finite at point ("), err
        assert len(err.strip().splitlines()) == 1, err


def test_overflowing_check_arithmetic_is_quiet(tmp_path, capsys):
    """The structure suite's products of phi[0] = 1e307 sin(100 y) overflow;
    the report fails those records and exits 1, and numpy warns of
    nothing: every numpy warning is an error here."""
    doc = copy.deepcopy(BASES["E1"])
    doc["phi"][0] = "1e307*sin(100*y)"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err, _ = _run(tmp_path, capsys, doc, ["check", "--suite", "structure"])
    assert code == 1 and not err, err


# each base's own passing request: E3b, whose shape operator is not the
# para-Sasakian one, fails the chart suites by design
PASSING = {"E1": ["check", "--suite", "all"], "E3b": ["hypersurface", "--suite", "all"]}


@pytest.mark.parametrize("base", sorted(BASES))
def test_unmutated_bases_pass(tmp_path, capsys, base):
    code, err, _ = _run(tmp_path, capsys, copy.deepcopy(BASES[base]), PASSING[base])
    assert code == 0, err
