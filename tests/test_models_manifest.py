"""Builtin catalog validation and the manifest file format."""

import json

import numpy as np
import pytest

from paracheck.hypersurface_lab import HypersurfaceBundle, builtin_bundles, get_bundle
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
        with pytest.raises(KeyError):
            get_bundle("nope")


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
            bundle = get_bundle(name)
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
        save_manifest(get_bundle("E3a"), path)
        doc = json.loads(path.read_text())
        doc["ambient"]["curvature_constant"] = "junk"
        path.write_text(json.dumps(doc))
        loaded = load_manifest(path)
        assert loaded == get_bundle("E3a")
        cfg = RunConfig(points=5, seed=3)
        got, want = run_suite(loaded, "all", cfg), run_suite(get_bundle("E3a"), "all", cfg)
        assert [(c.id, c.status, c.residual) for c in got.checks] == [
            (c.id, c.status, c.residual) for c in want.checks]

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
        doc = manifest_dict(get_bundle("E3a"))
        doc["embedding"]["map"] = doc["embedding"]["map"][:3]
        with pytest.raises(ManifestError, match="component expressions"):
            parse_manifest(doc)

    def test_unknown_kind(self):
        with pytest.raises(ManifestError, match="unknown manifest kind"):
            parse_manifest({"kind": "widget"})
