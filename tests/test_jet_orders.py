"""Each request evaluates its jets only to the metric order its suite reads,
declared in ``suites.REQUESTS``.  The declared orders give the same reports
as the deepest order, every order above the floor is needed (one below it
cannot evaluate the suite), and a request forms no jet product above its
order."""

import json
import math

import pytest

from paracheck import paracontact_core, suites
from paracheck.cli import main
from paracheck.expr_jet import JetSpace
from paracheck.geometry_engine import InsufficientOrderError
from paracheck.hypersurface_lab import builtin_bundles
from paracheck.models import METRIC_ORDER, get_model
from paracheck.suites import REQUESTS, RunConfig, run_suite

POINTS = {"E1": 10, "E2": 10, "E1n5": 6, "E2n5": 6, "N1": 10, "F0": 10, "E3a": 10, "E3b": 10, "B1": 10}
CHECK_SUITES = ("structure", "sasakian", "curvature", "einstein", "lie", "hypersurface", "all")


def requests() -> list[list[str]]:
    """Every builtin target under every jet-reading ``check`` suite, and the
    hypersurface subsets on E3a and E3b."""
    out = [["check", t, "--suite", s, "--points", str(p)] for t, p in POINTS.items() for s in CHECK_SUITES]
    out += [["hypersurface", t, "--suite", s, "--points", str(POINTS[t])]
            for t in ("E3a", "E3b") for s in ("induced", "gauss", "characterization", "all")]
    return out


def _run(tmp_path, argv) -> tuple[int, dict]:
    out = tmp_path / "report.json"
    out.unlink(missing_ok=True)
    code = main([*argv, "--format", "json", "--out", str(out)])
    checks = json.loads(out.read_text())["checks"] if out.exists() else []
    return code, {c["id"]: (c["status"], c["residual"]) for c in checks}


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("argv", requests(), ids=" ".join)
def test_declared_order_reports_match_the_deepest_order(tmp_path, monkeypatch, argv):
    code, checks = _run(tmp_path, argv)
    monkeypatch.setattr(suites, "REQUESTS", {k: (METRIC_ORDER, groups) for k, (_, groups) in REQUESTS.items()})
    deep_code, deep = _run(tmp_path, argv)
    assert code == deep_code
    assert {k: v[0] for k, v in checks.items()} == {k: v[0] for k, v in deep.items()}
    for cid, (_, r) in checks.items():
        r3 = deep[cid][1]
        assert (math.isnan(r) and math.isnan(r3)) or r == r3 or abs(r - r3) <= 1e-12, cid


def test_the_table_covers_every_request_kind():
    kinds = {s for s in suites.SUITES if s != "hypersurface"}
    kinds |= {f"hypersurface {s}" for s in suites.HYPERSURFACE_SUBSETS}
    assert set(REQUESTS) == kinds
    assert max(order for order, _ in REQUESTS.values()) == METRIC_ORDER
    with pytest.raises(ValueError, match="unknown hypersurface subset"):
        RunConfig(hypersurface_subset="shape")


def _floor(kind: str) -> int:
    """0 for a chart; 1 for a bundle, whose Weingarten map reads dN."""
    return 1 if kind.startswith("hypersurface") else 0


@pytest.mark.parametrize("kind", [k for k, (order, _) in REQUESTS.items() if order > _floor(k)])
def test_one_order_below_the_declared_order_cannot_evaluate(monkeypatch, kind):
    """Chart kinds run on E1, bundle subsets on E3b."""
    order, groups = REQUESTS[kind]
    monkeypatch.setitem(REQUESTS, kind, (order - 1, groups))
    if _floor(kind):
        target, suite = builtin_bundles()["E3b"], "hypersurface"
        cfg = RunConfig(points=5, hypersurface_subset=kind.split()[1])
    else:
        target, suite, cfg = get_model("E1"), kind, RunConfig(points=5)
    with pytest.raises(InsufficientOrderError):
        run_suite(target, suite, cfg)


def _product_orders(monkeypatch) -> set[int]:
    """Records the order of every JetSpace.mul and JetSpace.matmul call."""
    orders = set()
    for name in ("mul", "matmul"):
        fn = getattr(JetSpace, name)

        def spy(self, *args, _fn=fn):
            orders.add(self.order)
            return _fn(self, *args)

        monkeypatch.setattr(JetSpace, name, spy)
    return orders


@pytest.mark.parametrize("suite, order", [("structure", 0), ("sasakian", 1)])
def test_no_jet_product_above_the_suite_order(tmp_path, monkeypatch, suite, order):
    orders = _product_orders(monkeypatch)
    code, _ = _run(tmp_path, ["check", "E1", "--suite", suite, "--points", "5"])
    assert code == 0
    assert max(orders, default=0) == order


def test_failed_tangency_builds_no_induced_structure(tmp_path, monkeypatch):
    built = []
    init = paracontact_core.ParacontactStructure.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(paracontact_core.ParacontactStructure, "__init__", spy)
    code, checks = _run(tmp_path, ["check", "B1", "--suite", "all", "--points", "5"])
    assert code == 1
    assert checks["hypersurface.jn-tangent"][0] == "fail"
    assert not built
