"""An outside tracer for paracheck: spans around the public functions of
each ``paracheck`` module, installed without touching the package source.

Each wrapped function is rebound under every module-level name that refers
to it, because modules import functions by name (``suites`` binds
``check_axioms``, ``hypersurface_lab`` binds ``christoffel``); patching only
the defining module would miss those calls.  A few methods are wrapped at
class level.

A span is ``(name index, start, end, parent span, request id, batch, pairs)``;
``batch`` and ``pairs`` are set on ``JetSpace.mul`` spans only (broadcast
batch size and pair-table length).  Spans stay in memory until
:meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("expr_jet", "tensor_algebra", "geometry_engine", "models", "paracontact_core",
          "einstein_like", "hypersurface_lab", "suites", "report", "manifest", "cli")

METHODS = {
    "expr_jet": (("JetSpace", "mul"),),
    "tensor_algebra": (("MetricAtPoint", "build"),),
    "report": (("CheckReport", "to_json"), ("CheckReport", "to_text")),
}

# Functions of a layer that are not its check arithmetic: object builders and
# those with a metric of their own.  The layer's other functions make up
# ``<layer>.checks``.
NOT_CHECKS = {
    "paracontact_core": (),
    "einstein_like": ("compute_c11_phi_r",),
    "hypersurface_lab": ("jet_det", "evaluate_bundle", "induced_structure", "shape_operator",
                         "check_ps_characterization", "random_pointwise_structure",
                         "synthetic_gauss_check", "builtin_bundles", "get_bundle"),
}

MUL = "expr_jet.JetSpace.mul"
COUNT_SUFFIXES = (".calls", ".pair_products", ".pair_table_max")

_GEOMETRY = ("christoffel", "curvature", "covariant_derivative", "lie_derivative")


def public_functions(module) -> dict[str, object]:
    """Public functions defined in ``module`` (not imported into it)."""
    return {name: fn for name, fn in vars(module).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and fn.__module__ == module.__name__}


class Tracer:
    """Install with :meth:`install`, set :attr:`request` before each request,
    remove with :meth:`uninstall`.  Installing again reuses the same wrappers,
    so spans of several installs share one name table."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.request = -1
        self._stack: list[int] = []
        self._swaps: list[tuple] = []       # (owner, attribute, original, wrapper)

    def _wrap(self, name: str, fn, mul: bool = False):
        idx = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                batch = pairs = 0
                if mul:
                    batch, pairs = _mul_work(*args, **kwargs)
                spans[i] = (idx, t0, t1, parent, self.request, batch, pairs)

        return traced

    def _prepare(self):
        import importlib

        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"paracheck.{layer}")
            for fname, fn in public_functions(mod).items():
                wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
            for cname, mname in METHODS.get(layer, ()):
                cls = getattr(mod, cname)
                raw = cls.__dict__[mname]
                name = f"{layer}.{cname}.{mname}"
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw, mul=(name == MUL))
                self._swaps.append((cls, mname, raw, new))
        # every module-level alias in the package, re-exports included
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "paracheck" or mname.startswith("paracheck.")):
                continue
            for attr, val in vars(mod).items():
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._swaps.append((mod, attr, val, hit[1]))

    def install(self):
        if not self._swaps:
            self._prepare()
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)

    def dump(self, path: Path, requests: list[dict]):
        """Write the spans, with the request table, as one JSON document."""
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "request", "batch", "pairs"],
            "names": self.names,
            "requests": requests,
            "spans": self.spans,
        }))


def _mul_work(space, A, B, order=None):
    """(broadcast batch size, pair-table length) of one ``JetSpace.mul`` call."""
    order = space.order if order is None else order
    try:
        shape = np.broadcast_shapes(np.shape(A)[:-1], np.shape(B)[:-1])
    except ValueError:      # the call itself raised on these shapes
        return 0, 0
    return int(np.prod(shape, dtype=np.int64)), len(space.mul_table(order)[0])


def span_stats(names: list[str], spans: list[tuple], keep=None) -> dict[str, dict]:
    """calls / self_s / total_s / pair_products / pair_table_max per span
    name, over the spans whose request id satisfies ``keep`` (all spans if
    None); names without spans read as zeros.  Self time is
    a span's duration minus its direct children's durations; total time
    counts only spans with no enclosing span of the same name."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                                  "pair_products": 0, "pair_table_max": 0})
    for i, (idx, t0, t1, parent, req, batch, pairs) in enumerate(spans):
        if keep is not None and not keep(req):
            continue
        st = stats[names[idx]]
        st["calls"] += 1
        st["self_s"] += (t1 - t0) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != idx:
            p = spans[p][3]
        if p < 0:
            st["total_s"] += t1 - t0
        st["pair_products"] += batch * pairs
        st["pair_table_max"] = max(st["pair_table_max"], pairs)
    return stats


def _sum(stats, names, field):
    return sum(stats[n][field] for n in names)


def layer_metrics(stats: dict[str, dict], all_names: list[str]) -> dict[str, float]:
    """The per-layer metrics of one pass, from :func:`span_stats` output.
    Also ``<layer>.self_s`` for every layer, which with the unattributed
    time adds up to the traced pass time."""
    def get(name, field):
        return stats[name][field]

    m = {
        "expr_jet.mul.calls": get(MUL, "calls"),
        "expr_jet.mul.self_s": get(MUL, "self_s"),
        "expr_jet.mul.pair_products": get(MUL, "pair_products"),
        "expr_jet.mul.pair_table_max": get(MUL, "pair_table_max"),
        "expr_jet.eval_expr.calls": get("expr_jet.eval_expr", "calls"),
        "expr_jet.eval_expr.self_s": get("expr_jet.eval_expr", "self_s"),
        "expr_jet.parse_expr.calls": get("expr_jet.parse_expr", "calls"),
    }
    for f in ("contract_with", "invert_jet_matrix"):
        m[f"tensor_algebra.{f}.calls"] = get(f"tensor_algebra.{f}", "calls")
        m[f"tensor_algebra.{f}.self_s"] = get(f"tensor_algebra.{f}", "self_s")
    for f in _GEOMETRY:
        m[f"geometry_engine.{f}.calls"] = get(f"geometry_engine.{f}", "calls")
        m[f"geometry_engine.{f}.self_s"] = get(f"geometry_engine.{f}", "self_s")
    m["models.evaluate_structure.total_s"] = get("models.evaluate_structure", "total_s")
    m["paracontact_core.check_para_sasakian.calls"] = get(
        "paracontact_core.check_para_sasakian", "calls")
    m["einstein_like.compute_c11_phi_r.calls"] = get("einstein_like.compute_c11_phi_r", "calls")
    for layer, skip in NOT_CHECKS.items():
        checks = [n for n in all_names if n.startswith(layer + ".")
                  and n.split(".", 1)[1] not in skip]
        m[f"{layer}.checks.self_s"] = _sum(stats, checks, "self_s")
    m["hypersurface_lab.evaluate_bundle.total_s"] = get("hypersurface_lab.evaluate_bundle", "total_s")
    for f in ("check_ps_characterization", "recover_shape_operator", "synthetic_gauss_check"):
        m[f"hypersurface_lab.{f}.self_s"] = get(f"hypersurface_lab.{f}", "self_s")
    m["suites.run_suite.self_s"] = get("suites.run_suite", "self_s")
    m["report.serialize.self_s"] = _sum(
        stats, ("report.CheckReport.to_json", "report.CheckReport.to_text"), "self_s")
    m["manifest.load_manifest.total_s"] = get("manifest.load_manifest", "total_s")
    m["cli.main.self_s"] = get("cli.main", "self_s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = _sum(
            stats, [n for n in all_names if n.startswith(layer + ".")], "self_s")
    return m
