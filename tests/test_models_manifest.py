"""Builtin catalog validation and the manifest file format.

The parser checks what a manifest declares (shapes, syntax, metric grids
symmetric as written, intervals with lo <= hi); the request checks the
values its fields take at its own sample points (finite fields, the
declared metric index, eta(xi) = 1 and g(xi, xi) = eps)."""

import json
import math
import re
import warnings

import numpy as np
import pytest

from paracheck.cli import _run, main
from paracheck.hypersurface_lab import HypersurfaceBundle, builtin_bundles
from paracheck.manifest import ManifestError, load_manifest, manifest_dict, parse_manifest, save_manifest
from paracheck.models import ManifoldModel, builtin_models, evaluate_structure, get_model
from paracheck.sampling import derive_rng, sample_points
from paracheck.suites import RunConfig, run_suite


class TestBuiltins:
    def test_catalog_contents(self, models):
        assert set(models) == {"E1", "E1n5", "E2", "E2n5", "N1", "F0"}
        assert set(builtin_bundles()) == {"E3a", "E3b", "B1"}

    def test_all_builtin_models_validate(self, models):
        """Every builtin chart parses back from its manifest, and at sampled
        points has its declared index, eta(xi) = 1 and g(xi, xi) = eps."""
        for name, model in models.items():
            assert parse_manifest(manifest_dict(model)) == model, name
            evaluate_structure(model, sample_points(model.domain, 10, derive_rng(42, name, "points")), 0)

    def test_epsilon_and_index_declarations(self, models):
        assert models["E1"].epsilon == 1 and models["E1"].index == 0
        assert models["E2"].epsilon == -1 and models["E2"].index == 1
        assert models["E1n5"].dim == 5

    def test_get_model_unknown(self):
        with pytest.raises(KeyError):
            get_model("nope")


class TestModelValidation:
    @staticmethod
    def _doc(**overrides) -> dict:
        doc = dict(kind="model", name="T", dim=2, coords=["x", "y"], epsilon=1, index=0,
                   metric=["1", "0", "0", "1"], domain=[[-1.0, 1.0], [0.5, 2.0]])
        doc.update(overrides)
        return doc

    def test_asymmetric_metric_rejected(self):
        with pytest.raises(ManifestError, match=r"^<manifest>: metric: entry \(0,1\) is not symmetric as written: "
                                                r"'x' vs '0'$"):
            parse_manifest(self._doc(metric=["1", "x", "0", "1"]))

    def test_index_mismatch_rejected(self):
        """E2 declared Riemannian loads; its request fails at its first point."""
        doc = manifest_dict(get_model("E2"))
        doc["index"] = 0
        model = parse_manifest(doc)
        with pytest.raises(ValueError, match=r"^metric: index 1 at point \(.*\), not the declared 0$"):
            run_suite(model, "structure", RunConfig(points=5))

    def test_index_mismatch_names_first_point(self):
        """E1 with g_11 = x1 declared Riemannian: the error names the first
        of the request's points with x1 < 0, as plain floats."""
        model = get_model("E1")
        model.metric[0][0] = "x1"
        points = np.array([[0.5, 0.0, 1.0], [-0.25, 1.0, 2.0], [-1.0, 0.0, 1.0]])
        with pytest.raises(ValueError) as err:
            evaluate_structure(model, points, 0)
        assert str(err.value) == "metric: index 1 at point (-0.25, 1.0, 2.0), not the declared 0"

    def test_degenerate_metric_rejected_at_every_order(self):
        """E1 with g_11 = 0 is degenerate everywhere.  The metric is checked
        where it is evaluated, at every jet order, so a request that builds
        no connection (order 0) refuses it as one that does; the error names
        the field and the first point."""
        model = get_model("E1")
        model.metric[0][0] = "0"
        points = np.array([[0.5, 0.0, 1.0], [-0.25, 1.0, 2.0]])
        for order in range(4):
            with pytest.raises(ValueError) as err:
                evaluate_structure(model, points, order)
            assert str(err.value) == ("metric: degenerate (smallest singular value at most 1e-12 of the largest) "
                                      "at point (0.5, 0.0, 1.0)")

    def test_rescaled_metric_index_accepted(self):
        """The declared index holds at any scale: E2 with every metric entry
        scaled by 1e-13 (xi and eta rescaled to match) still has index 1, and
        its structure suite passes."""
        doc = manifest_dict(get_model("E2"))
        factor = math.sqrt(1e13)
        for key, scale in (("metric", 1e-13), ("xi", factor), ("eta", 1 / factor)):
            doc[key] = [s if s == "0" else f"{scale!r}*({s})" for s in doc[key]]
        report = run_suite(parse_manifest(doc), "structure", RunConfig(points=6))
        assert [c.status for c in report.checks] == ["pass"] * 7

    def test_empty_domain_rejected(self):
        with pytest.raises(ManifestError, match=r"domain\[1\]: has lo > hi: \[2.0, 0.5\]"):
            parse_manifest(self._doc(domain=[[-1.0, 1.0], [2.0, 0.5]]))

    def test_point_domain_interval_loads(self):
        """lo > hi is the one domain rule: a chart interval with lo == hi
        loads, as a bundle's does."""
        assert parse_manifest(self._doc(domain=[[-1.0, 1.0], [0.5, 0.5]])).domain[1] == (0.5, 0.5)

    def test_unknown_coordinate_in_expression(self):
        with pytest.raises(ManifestError, match=r"metric\[3\]: .*unknown identifier"):
            parse_manifest(self._doc(metric=["1", "0", "0", "1+z"]))

    def test_bad_epsilon(self):
        with pytest.raises(ManifestError, match="epsilon: must be 1 or -1, got 0"):
            parse_manifest(self._doc(epsilon=0))


class TestManifestRoundTrip:
    def test_model_round_trip(self, models, tmp_path):
        for name in ("E1", "E2", "N1", "F0"):
            path = tmp_path / f"{name}.json"
            save_manifest(models[name], path)
            loaded = load_manifest(path)
            assert loaded == models[name]

    def test_bundle_round_trip(self, tmp_path):
        for name in ("E3a", "E3b"):
            bundle = builtin_bundles()[name]
            path = tmp_path / f"{name}.json"
            save_manifest(bundle, path)
            loaded = load_manifest(path)
            assert isinstance(loaded, HypersurfaceBundle)
            assert loaded == bundle

    def test_old_curvature_constant_key_is_ignored(self, tmp_path):
        """A bundle manifest written when the ambient carried a curvature
        constant still loads, its key ignored like any unknown key, and its
        request reports what the builtin bundle does."""
        path = tmp_path / "E3a.json"
        save_manifest(builtin_bundles()["E3a"], path)
        doc = json.loads(path.read_text())
        doc["ambient"]["curvature_constant"] = "junk"
        path.write_text(json.dumps(doc))
        loaded = load_manifest(path)
        assert loaded == builtin_bundles()["E3a"]
        cfg = RunConfig(points=5, seed=3)
        got, want = run_suite(loaded, "all", cfg), run_suite(builtin_bundles()["E3a"], "all", cfg)
        assert [(c.id, c.status, c.residual) for c in got.checks] == [
            (c.id, c.status, c.residual) for c in want.checks]

    @staticmethod
    def _targets() -> dict:
        """The 9 builtins and a metric-only chart model."""
        e1 = builtin_models()["E1"]
        metric_only = ManifoldModel(name="G1", dim=3, coords=e1.coords, epsilon=1, index=0,
                                    metric=e1.metric, domain=e1.domain, description="E1's metric alone")
        return {**builtin_models(), **builtin_bundles(), "G1": metric_only}

    def test_manifest_dict_round_trips(self):
        targets = self._targets()
        assert len(targets) == 10
        for name, obj in targets.items():
            doc = manifest_dict(obj)
            assert parse_manifest(doc) == obj, name
            assert parse_manifest(json.loads(json.dumps(doc))) == obj, name

    def test_manifest_dict_writes_flat_grids_and_list_intervals(self):
        for name, obj in self._targets().items():
            doc = manifest_dict(obj)
            grids = ([doc["metric"], doc["phi"]] if doc["kind"] == "model"
                     else [doc["ambient"]["metric"], doc["ambient"]["J"]])
            rows = ([obj.metric, obj.phi] if doc["kind"] == "model" else [obj.ambient.metric, obj.ambient.J])
            for grid, want in zip(grids, rows):
                if want is None:
                    assert grid is None, name
                else:
                    assert grid == [s for row in want for s in row], name
            domain = doc["domain"] if doc["kind"] == "model" else doc["embedding"]["domain"]
            assert all(type(interval) is list and len(interval) == 2 for interval in domain), name

    def test_manifest_dict_writes_only_keys_the_loader_reads(self):
        """Each key written, nested ones by dotted path, is one the loader
        asks its document for."""
        read: set[str] = set()

        class Recording(dict):
            def __init__(self, doc, prefix=""):
                super().__init__({k: Recording(v, f"{prefix}{k}.") if isinstance(v, dict) else v
                                  for k, v in doc.items()})
                self.prefix = prefix

            def __getitem__(self, key):
                read.add(self.prefix + key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                read.add(self.prefix + key)
                return super().get(key, default)

        def keys(doc, prefix=""):
            for k, v in doc.items():
                yield prefix + k
                if isinstance(v, dict):
                    yield from keys(v, f"{prefix}{k}.")

        for name, obj in self._targets().items():
            read.clear()
            doc = manifest_dict(obj)
            assert parse_manifest(Recording(doc)) == obj
            assert set(keys(doc)) <= read, (name, set(keys(doc)) - read)

    def test_flat_row_major_metric_accepted(self, tmp_path):
        doc = manifest_dict(builtin_models()["E1"])
        assert isinstance(doc["metric"], list) and isinstance(doc["metric"][0], str)
        assert len(doc["metric"]) == 9
        model = parse_manifest(doc)
        assert model == builtin_models()["E1"]


class TestManifestErrors:
    def test_missing_file(self):
        with pytest.raises(ManifestError, match="not found"):
            load_manifest("/nonexistent/model.json")

    def test_json_error_carries_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "dim": 3,\n  "coords": [}')
        with pytest.raises(ManifestError, match=r"line 2, column"):
            load_manifest(path)

    def test_asymmetric_metric_manifest(self, tmp_path):
        doc = manifest_dict(builtin_models()["E1"])
        doc["metric"][1] = "x1"  # (0,1) entry, breaks symmetry vs (1,0)
        path = tmp_path / "asym.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="not symmetric"):
            load_manifest(path)

    def test_index_mismatch_manifest(self, tmp_path, capsys):
        """A declared index is checked by the request: the manifest loads,
        and a request exits 2 naming the file and the first point."""
        doc = manifest_dict(builtin_models()["E2"])
        doc["index"] = 0  # the metric is Lorentzian
        path = tmp_path / "numis.json"
        path.write_text(json.dumps(doc))
        assert load_manifest(path).index == 0
        assert main(["check", str(path), "--suite", "structure", "--points", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: metric: index 1 at point (") and "not the declared 0" in err

    def test_a_field_is_checked_only_at_the_request_points(self, tmp_path, capsys):
        """E1 with phi[0] = exp(1000 (x1 - 1)), which overflows only where
        x1 > 1.7098: the manifest loads, a request whose points all miss that
        part of the domain runs, and one whose points reach it exits 2
        naming phi and the point."""
        doc = manifest_dict(get_model("E1"))
        doc["phi"][0] = "exp(1000*(x1-1))"
        path = tmp_path / "part.json"
        path.write_text(json.dumps(doc))
        load_manifest(path)
        for points, reaches in ((5, False), (40, True)):
            x1 = sample_points(get_model("E1").domain, points, derive_rng(42, "E1", "points"))[:, 0]
            assert (np.max(x1) > 1.72 if reaches else np.max(x1) < 1.70), (points, np.max(x1))
            code = main(["check", str(path), "--suite", "structure", "--points", str(points), "--seed", "42"])
            err = capsys.readouterr().err
            if reaches:
                assert code == 2 and err.startswith(f"error: {path}: phi: not finite at point ("), err
            else:
                assert code in (0, 1) and not err, err

    def test_expression_error_positions(self, tmp_path):
        doc = manifest_dict(builtin_models()["E1"])
        doc["metric"][0] = "1/(y*"
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="position"):
            load_manifest(path)

    def test_wrong_entry_count(self):
        with pytest.raises(ManifestError, match="row-major"):
            parse_manifest({
                "kind": "model", "name": "t", "dim": 2, "coords": ["x", "y"],
                "epsilon": 1, "index": 0, "metric": ["1", "0", "0"],
                "domain": [[-1, 1], [-1, 1]],
            })

    def test_bundle_map_arity(self):
        doc = manifest_dict(builtin_bundles()["E3a"])
        doc["embedding"]["map"] = doc["embedding"]["map"][:3]
        with pytest.raises(ManifestError, match="embedding.map: must have 4 entries, got 3"):
            parse_manifest(doc)

    @pytest.mark.parametrize("target,path,value,field,at", [
        ("E1", ("coords",), ["x1", "x1", "y"], "coords", "load"),
        ("E1", ("xi",), ["0", "0", "y", "1"], "xi", "load"),
        ("E1", ("eta",), ["0", "1/y"], "eta", "load"),
        ("E2", ("index",), True, "index", "load"),
        ("E1", ("dim",), True, "dim", "load"),
        ("E3a", ("ambient", "coords"), ["u1", "u1", "v1", "v2"], "ambient.coords", "load"),
        ("E3a", ("embedding", "coords"), ["s", "s", "w"], "embedding.coords", "load"),
        ("E3a", ("embedding", "orientation"), True, "embedding.orientation", "load"),
        ("E3a", ("ambient", "coords"), ["u1", "u2", "v1"], "ambient.coords", "load"),
        ("E1", ("domain", 0), [True, 2.0], "domain[0]", "load"),
        ("E1", ("domain", 2), [0.5, 10 ** 400], "domain[2]", "load"),
        ("E1", ("phi",), True, "phi", "load"),
        ("E1", ("metric", 4), "1/(y^2", "metric[4]", "load"),
        ("E1", ("phi", 3), "x1 +", "phi[3]", "load"),
        ("E3a", ("ambient", "J", 5), "q", "ambient.J[5]", "load"),
        ("E1", ("metric", 0), "exp(1000)", "metric", "request"),
        ("E1", ("phi", 0), "exp(1000)", "phi", "request"),
        ("E1", ("xi", 2), "exp(800)*y", "xi", "request"),
        ("E1", ("eta", 2), "exp(1000*x1)", "eta", "request"),
        ("E1", ("metric", 0), ".", "metric[0]", "load"),
        ("E1", ("phi", 0), "x1^.", "phi[0]", "load"),
        ("E1", ("xi", 2), "y^1e400", "xi[2]", "load"),
        ("E1", ("eta", 2), "1/y)", "eta[2]", "load"),
        ("E1", ("epsilon",), 2, "epsilon", "load"),
        ("E3a", ("embedding", "orientation"), 3, "embedding.orientation", "load"),
        ("E3a", ("ambient", "metric", 1), "0.3", "ambient.metric", "load"),
    ], ids=["duplicate-coords", "xi-length", "eta-length", "index-true", "dim-true", "duplicate-ambient-coords",
            "duplicate-embedding-coords", "orientation-true", "ambient-coords-length", "domain-bound-true",
            "domain-bound-beyond-float", "phi-true", "metric-syntax", "phi-syntax", "ambient-J-unknown-name",
            "metric-not-finite", "phi-not-finite", "xi-not-finite", "eta-not-finite", "metric-lone-dot",
            "phi-exponent-dot", "xi-exponent-beyond-float", "eta-syntax", "epsilon-2", "orientation-3",
            "ambient-metric-asymmetric"])
    def test_shape_error_names_the_field(self, tmp_path, capsys, target, path, value, field, at):
        """A field of the wrong length or JSON type, with repeated coordinate
        names, holding true where an integer or a number belongs, with an
        expression that does not parse, a metric grid (chart or ambient)
        that is not symmetric as written, or a metric, phi, xi or eta that
        is not finite at a request's sample point is an input error naming
        the file and the field: the CLI exits 2 with one `error: <path>:
        <field>: ...` line and no warning.  Each is raised where its check
        runs: a not-finite value by the request (the manifest loads), every
        other row by load_manifest.  An index of true on the
        Lorentzian E2 would otherwise read as its index 1 and pass, and a
        domain bound of true as 1.0."""
        doc = manifest_dict(builtin_bundles()[target] if target == "E3a" else builtin_models()[target])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        file = tmp_path / "shape.json"
        file.write_text(json.dumps(doc))
        if at == "request":
            load_manifest(file)
        with pytest.raises(ManifestError, match=f"^{re.escape(str(file))}: {re.escape(field)}: "):
            if at == "load":
                load_manifest(file)
            else:
                _run(str(file), "structure", RunConfig(points=5))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["check", str(file), "--suite", "structure", "--points", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {file}: {field}: ") and len(err.strip().splitlines()) == 1
        assert not caught, [str(w.message) for w in caught]

    def test_unknown_kind(self):
        with pytest.raises(ManifestError, match="unknown manifest kind"):
            parse_manifest({"kind": "widget"})
