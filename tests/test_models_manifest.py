"""Builtin catalog validation and the manifest file format."""

import json
import re
import warnings

import numpy as np
import pytest

from paracheck.cli import main
from paracheck.hypersurface_lab import HypersurfaceBundle, builtin_bundles
from paracheck.manifest import ManifestError, load_manifest, manifest_dict, parse_manifest, save_manifest
from paracheck.models import (
    ManifoldModel,
    ModelValidationError,
    builtin_models,
    get_model,
    validate_model,
)
from paracheck.suites import RunConfig, run_suite


class TestBuiltins:
    def test_catalog_contents(self, models):
        assert set(models) == {"E1", "E1n5", "E2", "E2n5", "N1", "F0"}
        assert set(builtin_bundles()) == {"E3a", "E3b", "B1"}

    def test_all_builtin_models_validate(self, models):
        for model in models.values():
            validate_model(model)

    def test_epsilon_and_index_declarations(self, models):
        assert models["E1"].epsilon == 1 and models["E1"].index == 0
        assert models["E2"].epsilon == -1 and models["E2"].index == 1
        assert models["E1n5"].dim == 5

    def test_get_model_unknown(self):
        with pytest.raises(KeyError):
            get_model("nope")


class TestModelValidation:
    def _base(self, **overrides):
        doc = dict(
            name="T", dim=2, coords=["x", "y"], epsilon=1, index=0,
            metric=[["1", "0"], ["0", "1"]],
            domain=[(-1.0, 1.0), (0.5, 2.0)],
        )
        doc.update(overrides)
        return ManifoldModel(**doc)

    def test_asymmetric_metric_rejected(self):
        model = self._base(metric=[["1", "x"], ["0", "1"]])
        with pytest.raises(ModelValidationError, match="not symmetric"):
            validate_model(model)

    def test_index_mismatch_rejected(self):
        model = self._base(metric=[["1", "0"], ["0", "-1"]])  # Lorentzian, declared index 0
        with pytest.raises(ModelValidationError, match="inertia"):
            validate_model(model)

    def test_index_mismatch_names_first_point(self):
        """diag(1, x) declared Riemannian: the error names the first of the
        sampled points with x < 0, as plain floats."""
        model = self._base(metric=[["1", "0"], ["0", "x"]])
        pts = np.random.default_rng(4).uniform([-1.0, 0.5], [1.0, 2.0], size=(10, 2))
        first = np.flatnonzero(pts[:, 0] < 0)[0]
        assert first > 0
        with pytest.raises(ModelValidationError) as err:
            validate_model(model, rng=np.random.default_rng(4))
        x, y = (float(c) for c in pts[first])
        assert str(err.value) == f"T: declared index 0 but computed inertia 1 at point ({x!r}, {y!r})"

    def test_rescaled_metric_index_accepted(self):
        """The declared index holds at any scale: E2 with every metric
        entry scaled by 1e-13 still has index 1."""
        model = get_model("E2")
        model.metric = [[s if s == "0" else f"1e-13*({s})" for s in row] for row in model.metric]
        validate_model(model)

    def test_empty_domain_rejected(self):
        model = self._base(domain=[(-1.0, 1.0), (2.0, 0.5)])
        with pytest.raises(ModelValidationError, match="empty domain"):
            validate_model(model)

    def test_unknown_coordinate_in_expression(self):
        model = self._base(metric=[["1", "0"], ["0", "1+z"]])
        with pytest.raises(Exception, match="unknown identifier"):
            validate_model(model)

    def test_bad_epsilon(self):
        model = self._base(epsilon=0)
        with pytest.raises(ModelValidationError, match="epsilon"):
            validate_model(model)


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

    def test_index_mismatch_manifest(self, tmp_path):
        doc = manifest_dict(builtin_models()["E2"])
        doc["index"] = 0  # the metric is Lorentzian
        path = tmp_path / "numis.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="inertia"):
            load_manifest(path)

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

    @pytest.mark.parametrize("target,path,value,field", [
        ("E1", ("coords",), ["x1", "x1", "y"], "coords"),
        ("E1", ("xi",), ["0", "0", "y", "1"], "xi"),
        ("E1", ("eta",), ["0", "1/y"], "eta"),
        ("E2", ("index",), True, "index"),
        ("E1", ("dim",), True, "dim"),
        ("E3a", ("ambient", "coords"), ["u1", "u1", "v1", "v2"], "ambient.coords"),
        ("E3a", ("embedding", "coords"), ["s", "s", "w"], "embedding.coords"),
        ("E3a", ("embedding", "orientation"), True, "embedding.orientation"),
        ("E3a", ("ambient", "coords"), ["u1", "u2", "v1"], "ambient.coords"),
        ("E1", ("domain", 0), [True, 2.0], "domain[0]"),
        ("E1", ("domain", 2), [0.5, 10 ** 400], "domain[2]"),
        ("E1", ("phi",), True, "phi"),
        ("E1", ("metric", 4), "1/(y^2", "metric[4]"),
        ("E1", ("phi", 3), "x1 +", "phi[3]"),
        ("E3a", ("ambient", "J", 5), "q", "ambient.J[5]"),
        ("E1", ("metric", 0), "exp(1000)", "metric"),
        ("E1", ("phi", 0), "exp(1000)", "phi"),
        ("E1", ("xi", 2), "exp(800)*y", "xi"),
        ("E1", ("eta", 2), "exp(1000*x1)", "eta"),
        ("E1", ("metric", 0), ".", "metric[0]"),
        ("E1", ("phi", 0), "x1^.", "phi[0]"),
        ("E1", ("xi", 2), "y^1e400", "xi[2]"),
        ("E1", ("epsilon",), 2, "epsilon"),
        ("E3a", ("embedding", "orientation"), 3, "embedding.orientation"),
    ], ids=["duplicate-coords", "xi-length", "eta-length", "index-true", "dim-true", "duplicate-ambient-coords",
            "duplicate-embedding-coords", "orientation-true", "ambient-coords-length", "domain-bound-true",
            "domain-bound-beyond-float", "phi-true", "metric-syntax", "phi-syntax", "ambient-J-unknown-name",
            "metric-not-finite", "phi-not-finite", "xi-not-finite", "eta-not-finite", "metric-lone-dot",
            "phi-exponent-dot", "xi-exponent-beyond-float", "epsilon-2", "orientation-3"])
    def test_shape_error_names_the_field(self, tmp_path, capsys, target, path, value, field):
        """A field of the wrong length or JSON type, with repeated coordinate
        names, holding true where an integer or a number belongs, with an
        expression that does not parse, or a metric, phi, xi or eta that is
        not finite at a sample point is a load error naming the file and the
        field: the CLI exits 2 with one `error: <path>: <field>: ...` line
        and no warning.  An index of
        true on the Lorentzian E2 would otherwise read as its index 1 and
        pass, and a domain bound of true as 1.0."""
        doc = manifest_dict(builtin_bundles()[target] if target == "E3a" else builtin_models()[target])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        file = tmp_path / "shape.json"
        file.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match=f"^{re.escape(str(file))}: {re.escape(field)}: "):
            load_manifest(file)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["check", str(file), "--suite", "structure", "--points", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {file}: {field}: ") and len(err.strip().splitlines()) == 1
        assert not caught, [str(w.message) for w in caught]

    def test_unknown_kind(self):
        with pytest.raises(ManifestError, match="unknown manifest kind"):
            parse_manifest({"kind": "widget"})
