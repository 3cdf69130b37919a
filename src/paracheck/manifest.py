"""Manifest files: a JSON document describing a chart model or a
hypersurface bundle.

Chart model document:

    {
      "kind": "model",
      "name": "E1", "dim": 3, "coords": ["x1", "x2", "y"],
      "epsilon": 1, "index": 0,
      "metric": ["1/(y^2)", "0", ...],          # row-major, dim*dim entries
      "phi":    [...],                          # optional (null: absent), row-major
      "xi":     ["0", "0", "y"],                # optional (null: absent)
      "eta":    ["0", "0", "1/y"],              # optional (null: absent)
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

Loading checks what a document declares, for models and bundles alike: the JSON
type and length of every field, expression syntax against the declared
coordinates, every metric grid symmetric as written, and finite domain
intervals with lo <= hi.  The request checks the values it reads, at its own
points (``models.evaluate_structure``, ``hypersurface_lab.evaluate_bundle``):
finite fields; every metric it reads non-degenerate with one index (a chart's
g, of its declared index, in every suite; a bundle's ambient and induced
metrics); eta(xi) = 1 and g(xi, xi) = eps; a bundle's embedding rank and a
normal neither lightlike nor of changing causal character.  Errors name the
file, the field (``<path>: xi: ...``, ``<path>: metric[4]: ...`` for an entry)
and the JSON line/column, the expression position or the first failing point,
so a file diagnoses itself.

Writing reads the document off the dataclasses: :func:`manifest_dict` is
``kind`` plus ``dataclasses.asdict`` of the model or bundle, with each
expression grid written row-major and each domain interval as a list, so
every key written is a field the loader reads.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

from .expr_jet import JetDomainError, parse_expr
from .hypersurface_lab import AmbientProductModel, Embedding, HypersurfaceBundle
from .models import ManifoldModel


class ManifestError(ValueError):
    pass


_JSON_TYPES = {list: "array", dict: "object", int: "integer"}


def _require(doc: dict, field: str, kind: type | None = None):
    """doc's value at the last part of the dotted field, of JSON type kind if given."""
    key = field.rsplit(".", 1)[-1]
    if key not in doc:
        raise ManifestError(f"{field}: missing required field")
    if kind is not None and (not isinstance(doc[key], kind) or isinstance(doc[key], bool)):
        raise ManifestError(f"{field}: must be a JSON {_JSON_TYPES[kind]}, got {json.dumps(doc[key])}")
    return doc[key]


def _entries(doc: dict, field: str, n: int) -> list:
    """doc's JSON array at field, of exactly n entries."""
    entries = _require(doc, field, list)
    if len(entries) != n:
        raise ManifestError(f"{field}: must have {n} entries, got {len(entries)}")
    return entries


def _dim(doc: dict, field: str, least: int) -> int:
    n = _require(doc, field, int)
    if n < least:
        raise ManifestError(f"{field}: must be at least {least}, got {n}")
    return n


def _sign(doc: dict, field: str) -> int:
    s = _require(doc, field, int)
    if s not in (1, -1):
        raise ManifestError(f"{field}: must be 1 or -1, got {s}")
    return s


def _exprs(entries: list, field: str) -> list[str]:
    """Expression strings; a JSON number stands for itself."""
    for k, x in enumerate(entries):
        if not isinstance(x, (str, int, float)) or isinstance(x, bool):
            raise ManifestError(f"{field}[{k}]: must be an expression string, got {json.dumps(x)}")
    return [str(x) for x in entries]


def _names(doc: dict, field: str, n: int) -> list[str]:
    names = _entries(doc, field, n)
    if not all(isinstance(c, str) for c in names):
        raise ManifestError(f"{field}: coordinate names must be strings, got {json.dumps(names)}")
    if len(set(names)) != len(names):
        raise ManifestError(f"{field}: coordinate names must be distinct, got {json.dumps(names)}")
    return names


def _vector(doc: dict, field: str, n: int) -> list[str] | None:
    return None if doc.get(field) is None else _exprs(_entries(doc, field, n), field)


def _grid(doc: dict, field: str, n: int) -> list[list[str]]:
    """An n x n expression grid: n*n row-major entries, or n rows of n."""
    flat = _require(doc, field, list)
    if flat and isinstance(flat[0], list):
        if len(flat) != n or not all(isinstance(row, list) and len(row) == n for row in flat):
            raise ManifestError(f"{field}: must be a {n}x{n} grid")
        flat = [x for row in flat for x in row]
    elif len(flat) != n * n:
        raise ManifestError(f"{field}: must have {n * n} row-major entries, got {len(flat)}")
    flat = _exprs(flat, field)
    return [flat[i * n:(i + 1) * n] for i in range(n)]


def _parse_expressions(coords: list[str], fields: dict[str, list | None]):
    """Parse each distinct string of each expression vector or grid over
    ``coords`` once, at its first entry in row-major order, so that a syntax
    error names that entry (``metric[4]: ...``); an absent field is skipped."""
    for field, sources in fields.items():
        if sources is None:
            continue
        flat = [s for row in sources for s in row] if isinstance(sources[0], list) else sources
        seen = set()
        for k, s in enumerate(flat):
            if s not in seen:
                seen.add(s)
                parse_expr(s, coords, f"{field}[{k}]")


def _symmetric(grid: list[list[str]], field: str):
    """A metric grid must be symmetric as written, blanks aside."""
    for i, row in enumerate(grid):
        for j in range(i + 1, len(grid)):
            if row[j].replace(" ", "") != grid[j][i].replace(" ", ""):
                raise ManifestError(f"{field}: entry ({i},{j}) is not symmetric as written: "
                                    f"{row[j]!r} vs {grid[j][i]!r}")


def _domain(doc: dict, field: str, n: int) -> list[tuple[float, float]]:
    out = []
    for k, pair in enumerate(_entries(doc, field, n)):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)):
            raise ManifestError(f"{field}[{k}]: must be [lo, hi] of two JSON numbers, got {json.dumps(pair)}")
        if not all(abs(x) <= sys.float_info.max for x in pair):     # also an integer beyond the float range
            raise ManifestError(f"{field}[{k}]: must have finite bounds, got {json.dumps(pair)}")
        lo, hi = float(pair[0]), float(pair[1])
        if lo > hi:
            raise ManifestError(f"{field}[{k}]: has lo > hi: [{lo}, {hi}]")
        out.append((lo, hi))
    return out


def parse_manifest(doc: dict, source: str = "<manifest>") -> ManifoldModel | HypersurfaceBundle:
    """The model or bundle a manifest document declares.  Every error is a
    :class:`ManifestError` naming ``source``: a missing field, a field of
    the wrong JSON type or length, a bad expression, or a metric grid that
    is not symmetric as written."""
    try:
        return _parse(doc, source)
    except (ValueError, TypeError, JetDomainError) as e:
        raise ManifestError(f"{source}: {e}") from e


def _parse(doc: dict, source: str) -> ManifoldModel | HypersurfaceBundle:
    kind = doc.get("kind", "bundle" if "ambient" in doc else "model")
    name = str(doc.get("name", Path(source).stem))
    if kind == "model":
        n = _dim(doc, "dim", 1)
        model = ManifoldModel(
            name=name,
            dim=n,
            coords=_names(doc, "coords", n),
            epsilon=_sign(doc, "epsilon"),
            index=_require(doc, "index", int),
            metric=_grid(doc, "metric", n),
            phi=_grid(doc, "phi", n) if doc.get("phi") is not None else None,
            xi=_vector(doc, "xi", n),
            eta=_vector(doc, "eta", n),
            domain=_domain(doc, "domain", n),
            description=str(doc.get("description", "")),
        )
        _parse_expressions(model.coords, {"metric": model.metric, "phi": model.phi, "xi": model.xi, "eta": model.eta})
        _symmetric(model.metric, "metric")
        return model
    if kind == "bundle":
        amb_doc = _require(doc, "ambient", dict)
        emb_doc = _require(doc, "embedding", dict)
        N = _dim(amb_doc, "ambient.dim", 2)
        ambient = AmbientProductModel(
            dim=N,
            coords=_names(amb_doc, "ambient.coords", N),
            metric=_grid(amb_doc, "ambient.metric", N),
            J=_grid(amb_doc, "ambient.J", N),
        )
        embedding = Embedding(
            coords=_names(emb_doc, "embedding.coords", N - 1),
            map=_exprs(_entries(emb_doc, "embedding.map", N), "embedding.map"),
            domain=_domain(emb_doc, "embedding.domain", N - 1),
            orientation=_sign(emb_doc, "embedding.orientation") if "orientation" in emb_doc else 1,
        )
        _parse_expressions(ambient.coords, {"ambient.metric": ambient.metric, "ambient.J": ambient.J})
        _parse_expressions(embedding.coords, {"embedding.map": embedding.map})
        _symmetric(ambient.metric, "ambient.metric")
        return HypersurfaceBundle(name=name, ambient=ambient, embedding=embedding,
                                  description=str(doc.get("description", "")))
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


def _written(field: str, value):
    """A dataclass field as a manifest writes it: an expression grid row-major
    (flat), a domain interval as a list, anything else as it is."""
    if field in ("metric", "phi", "J") and value is not None:
        return [s for row in value for s in row]
    return [list(interval) for interval in value] if field == "domain" else value


def manifest_dict(obj: ManifoldModel | HypersurfaceBundle) -> dict:
    """The manifest document of a chart model or bundle, read off its
    dataclass fields; an absent phi, xi or eta is written null."""
    kind = {ManifoldModel: "model", HypersurfaceBundle: "bundle"}.get(type(obj))
    if kind is None:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return {"kind": kind, **dataclasses.asdict(obj, dict_factory=lambda items: {k: _written(k, v) for k, v in items})}


def save_manifest(obj: ManifoldModel | HypersurfaceBundle, path: str | Path):
    Path(path).write_text(json.dumps(manifest_dict(obj), indent=2) + "\n")
