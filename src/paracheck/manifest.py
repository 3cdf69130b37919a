"""Manifest files: a JSON document describing a chart model or a
hypersurface bundle.

Chart model document:

    {
      "kind": "model",
      "name": "E1", "dim": 3, "coords": ["x1", "x2", "y"],
      "epsilon": 1, "index": 0,
      "metric": ["1/(y^2)", "0", ...],          # row-major, dim*dim entries
      "phi":    [...],                          # optional, row-major
      "xi":     ["0", "0", "y"],                # optional
      "eta":    ["0", "0", "1/y"],              # optional
      "domain": [[-2.0, 2.0], [-2.0, 2.0], [0.5, 3.0]]
    }

Bundle document:

    {
      "kind": "bundle",
      "name": "E3b",
      "ambient":   {"dim": 4, "coords": [...], "metric": [...], "J": [...]},
      "embedding": {"coords": [...], "map": [...], "orientation": 1,
                    "domain": [[lo, hi], ...]}
    }

Loading validates everything a model declares: expression syntax against the
declared coordinates, metric symmetry as written, finite non-empty domain
intervals, and agreement of the declared index with the computed inertia at
ten sampled points.  A bundle is checked at load for its shape and expression syntax
only; the request's own evaluation of the bundle validates the embedding
(rank, domain, a lightlike normal) and fails with an input error naming the
file.  Errors name the file, the field (``<path>: xi: ...``) and positions
(JSON line/column, or the expression position) so a file diagnoses itself.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .expr_jet import JetDomainError
from .hypersurface_lab import AmbientProductModel, Embedding, HypersurfaceBundle
from .models import ManifoldModel, validate_model


class ManifestError(ValueError):
    pass


def _grid(flat, n, what: str) -> list[list[str]]:
    if isinstance(flat, list) and flat and isinstance(flat[0], list):
        rows = [[str(x) for x in row] for row in flat]
    else:
        if len(flat) != n * n:
            raise ManifestError(f"{what} must have {n * n} row-major entries, got {len(flat)}")
        rows = [[str(flat[i * n + j]) for j in range(n)] for i in range(n)]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ManifestError(f"{what} must be a {n}x{n} grid")
    return rows


_JSON_TYPES = {list: "array", dict: "object", int: "integer"}


def _require(doc: dict, field: str, kind: type | None = None):
    """doc's value at the last part of the dotted field, of JSON type kind if given."""
    key = field.rsplit(".", 1)[-1]
    if key not in doc:
        raise ManifestError(f"{field}: missing required field")
    if kind is not None and (not isinstance(doc[key], kind) or isinstance(doc[key], bool)):
        raise ManifestError(f"{field}: must be a JSON {_JSON_TYPES[kind]}, got {json.dumps(doc[key])}")
    return doc[key]


def _names(doc: dict, field: str) -> list[str]:
    names = [str(c) for c in _require(doc, field, list)]
    if len(set(names)) != len(names):
        raise ManifestError(f"{field}: coordinate names must be distinct, got {json.dumps(names)}")
    return names


def _vector(doc: dict, field: str, n: int) -> list[str] | None:
    if doc.get(field) is None:
        return None
    if len(_require(doc, field, list)) != n:
        raise ManifestError(f"{field}: must have {n} entries, got {len(doc[field])}")
    return [str(s) for s in doc[field]]


def _domain(raw, n: int, what: str) -> list[tuple[float, float]]:
    if len(raw) != n:
        raise ManifestError(f"{what} domain must give one [lo, hi] interval per coordinate")
    out = []
    for k, pair in enumerate(raw):
        if len(pair) != 2:
            raise ManifestError(f"{what} domain entry {k} must be [lo, hi]")
        lo, hi = float(pair[0]), float(pair[1])
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ManifestError(f"{what} domain entry {k} must have finite bounds, got [{lo}, {hi}]")
        if lo > hi:
            raise ManifestError(f"{what} domain entry {k} has lo > hi: [{lo}, {hi}]")
        out.append((lo, hi))
    return out


def parse_manifest(doc: dict, source: str = "<manifest>") -> ManifoldModel | HypersurfaceBundle:
    """The model or bundle a manifest document declares.  Every error is a
    :class:`ManifestError` naming ``source``: a missing field, a field of
    the wrong JSON type, a bad expression, or a failed model validation."""
    try:
        return _parse(doc, source)
    except (ValueError, TypeError, JetDomainError) as e:
        raise ManifestError(f"{source}: {e}") from e


def _parse(doc: dict, source: str) -> ManifoldModel | HypersurfaceBundle:
    kind = doc.get("kind", "bundle" if "ambient" in doc else "model")
    name = str(doc.get("name", Path(source).stem))
    if kind == "model":
        n = _require(doc, "dim", int)
        coords = _names(doc, "coords")
        model = ManifoldModel(
            name=name,
            dim=n,
            coords=coords,
            epsilon=_require(doc, "epsilon", int),
            index=_require(doc, "index", int),
            metric=_grid(_require(doc, "metric", list), n, "metric"),
            phi=_grid(doc["phi"], n, "phi") if doc.get("phi") is not None else None,
            xi=_vector(doc, "xi", n),
            eta=_vector(doc, "eta", n),
            domain=_domain(_require(doc, "domain", list), n, "model"),
            description=str(doc.get("description", "")),
        )
        validate_model(model)
        return model
    if kind == "bundle":
        amb_doc = _require(doc, "ambient", dict)
        emb_doc = _require(doc, "embedding", dict)
        N = _require(amb_doc, "ambient.dim", int)
        ambient = AmbientProductModel(
            dim=N,
            coords=_names(amb_doc, "ambient.coords"),
            metric=_grid(_require(amb_doc, "ambient.metric", list), N, "ambient metric"),
            J=_grid(_require(amb_doc, "ambient.J", list), N, "ambient J"),
        )
        coords = _names(emb_doc, "embedding.coords")
        emb_map = [str(s) for s in _require(emb_doc, "embedding.map", list)]
        if len(emb_map) != N:
            raise ManifestError(f"embedding map must have {N} component expressions, got {len(emb_map)}")
        if len(coords) != N - 1:
            raise ManifestError(f"embedding chart must have {N - 1} coordinates, got {len(coords)}")
        embedding = Embedding(
            coords=coords,
            map=emb_map,
            domain=_domain(_require(emb_doc, "embedding.domain", list), N - 1, "embedding"),
            orientation=_require(emb_doc, "embedding.orientation", int) if "orientation" in emb_doc else 1,
        )
        bundle = HypersurfaceBundle(name=name, ambient=ambient, embedding=embedding,
                                    description=str(doc.get("description", "")))
        for row in ambient.metric + ambient.J:
            for s in row:
                ambient.parsed(s)
        for s in embedding.map:
            embedding.parsed(s)
        return bundle
    raise ManifestError(f"unknown manifest kind {kind!r}")


def load_manifest(path: str | Path) -> ManifoldModel | HypersurfaceBundle:
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"manifest file not found: {path}")
    try:
        text = path.read_text()
    except OSError as e:        # a directory, an unreadable file
        raise ManifestError(f"{path}: cannot read the manifest: {e.strerror}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ManifestError(f"{path}: JSON parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object")
    return parse_manifest(doc, source=str(path))


def manifest_dict(obj: ManifoldModel | HypersurfaceBundle) -> dict:
    if isinstance(obj, ManifoldModel):
        doc = {
            "kind": "model",
            "name": obj.name,
            "dim": obj.dim,
            "coords": list(obj.coords),
            "epsilon": obj.epsilon,
            "index": obj.index,
            "metric": [s for row in obj.metric for s in row],
            "domain": [[lo, hi] for lo, hi in obj.domain],
            "description": obj.description,
        }
        if obj.phi is not None:
            doc["phi"] = [s for row in obj.phi for s in row]
        if obj.xi is not None:
            doc["xi"] = list(obj.xi)
        if obj.eta is not None:
            doc["eta"] = list(obj.eta)
        return doc
    if isinstance(obj, HypersurfaceBundle):
        return {
            "kind": "bundle",
            "name": obj.name,
            "description": obj.description,
            "ambient": {
                "dim": obj.ambient.dim,
                "coords": list(obj.ambient.coords),
                "metric": [s for row in obj.ambient.metric for s in row],
                "J": [s for row in obj.ambient.J for s in row],
            },
            "embedding": {
                "coords": list(obj.embedding.coords),
                "map": list(obj.embedding.map),
                "orientation": obj.embedding.orientation,
                "domain": [[lo, hi] for lo, hi in obj.embedding.domain],
            },
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def save_manifest(obj: ManifoldModel | HypersurfaceBundle, path: str | Path):
    Path(path).write_text(json.dumps(manifest_dict(obj), indent=2) + "\n")
