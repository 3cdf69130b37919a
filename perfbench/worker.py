"""One workload run in a fresh process: a closed loop from one client.

The worker imports paracheck from ``src/`` of the checkout and runs one
first pass, then warm passes for ``--seconds`` and at least
``--min-requests`` requests.  A pass starts only if, at the pace of the
last one, it ends within ``--seconds``, so a run never overshoots by most
of a pass.  A request's latency is the wall time of its
``paracheck.cli.main`` call; checking its report against the pins, and one
slice of the reference kernel (``reference.py``) before each request, happen
outside that time.  With ``--trace 1`` warm passes alternate between
untraced and traced, so that slow drift of the host's speed cancels out of
the tracing overhead.

Results go to ``--result`` as JSON; ``run.py`` turns them into metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from workloads import SINGLE_THREAD, Request, requests, write_manifests  # noqa: E402

os.environ.update({k: "1" for k in SINGLE_THREAD})   # before numpy loads BLAS

import pins  # noqa: E402
import tracer as tracing  # noqa: E402
from reference import reference_slice  # noqa: E402

MAX_FAILURE_NOTES = 20


class Loop:
    """Runs passes of one workload and keeps latencies and failures."""

    def __init__(self, workload: str, seed: int, workdir: Path, small: bool = False,
                 check: bool = True):
        from paracheck import cli

        self.cli = cli
        self.seed = seed
        self.out = workdir / "report.json"
        write_manifests(workdir / "manifests")
        self.requests = requests(workload, workdir / "manifests", small)
        self.pins = pins.load(workload) if check else None
        self.table: list[dict] = []      # one row per request run: pass number, key
        self.npasses = 0
        self.traced_passes: list[int] = []
        self.reference: list[float] = []    # one reference slice per request
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = tracing.Tracer()

    def call(self, req: Request):
        """One timed request; returns (exit code or None if it raised, seconds)."""
        argv = [*req.argv, "--seed", str(self.seed), "--format", "json", "--out", str(self.out)]
        self.out.unlink(missing_ok=True)
        t0 = perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception:
            code = None
            if len(self.failures) < MAX_FAILURE_NOTES:
                traceback.print_exc()
        return code, perf_counter() - t0

    def report(self) -> dict | None:
        try:
            return json.loads(self.out.read_text())
        except (OSError, ValueError):
            return None

    def one_pass(self, traced: bool = False) -> list[float]:
        """Latencies of one pass, under the tracer if ``traced``."""
        pass_no = self.npasses
        self.npasses += 1
        if traced:
            self.traced_passes.append(pass_no)
            self.tracer.install()
        try:
            return [self.one_request(pass_no, req) for req in self.requests]
        finally:
            self.tracer.uninstall()

    def one_request(self, pass_no: int, req: Request) -> float:
        self.tracer.request = len(self.table)
        self.table.append({"pass": pass_no, "key": req.key})
        self.reference.append(reference_slice())
        code, dt = self.call(req)
        self.attempted += 1
        if self.pins is not None:
            problems = pins.compare(self.pins.get(req.key), self.seed, code, self.report())
            if problems:
                self.failed += 1
                if len(self.failures) < MAX_FAILURE_NOTES:
                    self.failures.append(f"{req.key}: {'; '.join(problems[:3])}")
        return dt

    def passes(self, seconds: float, min_requests: int = 1,
               modes: tuple[bool, ...] = (False,)) -> list[list[list[float]]]:
        """Rounds of passes for ``seconds``, and until each mode has at
        least ``min_requests`` requests.  A round runs one pass per entry of
        ``modes`` (traced or not) and starts only if, at the pace of the
        last round, it ends within ``seconds``.  Returns the pass latencies
        per mode."""
        need = math.ceil(min_requests / len(self.requests))
        out: list[list[list[float]]] = [[] for _ in modes]
        t0 = perf_counter()
        pace = 0.0
        while not out[0] or len(out[0]) < need or perf_counter() - t0 + pace <= seconds:
            t = perf_counter()
            for passes, traced in zip(out, modes):
                passes.append(self.one_pass(traced))
            pace = perf_counter() - t
        return out


def outputs(workload: str, seed: int):
    """(key, exit code, report) of every request of one pass; for pinning."""
    workdir = ROOT / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    loop = Loop(workload, seed, workdir, check=False)
    for req in loop.requests:
        code, _ = loop.call(req)
        yield req.key, code, loop.report()


def traced_metrics(loop: Loop, traced: list[list[float]], untraced: list[list[float]]) -> dict:
    """Per-layer metrics per traced pass: counts from the first traced pass,
    times as the mean over traced passes."""
    tr = loop.tracer
    n = len(traced)
    table = loop.table
    first = loop.traced_passes[0]
    all_stats = tracing.span_stats(tr.names, tr.spans)
    first_stats = tracing.span_stats(tr.names, tr.spans, lambda r: table[r]["pass"] == first)
    times = tracing.layer_metrics(all_stats, tr.names)
    counts = tracing.layer_metrics(first_stats, tr.names)
    m = {k: counts[k] if k.endswith(tracing.COUNT_SUFFIXES) else times[k] / n for k in times}
    traced_pass = sum(map(sum, traced)) / n
    m["trace.pass_s"] = traced_pass
    m["trace.unattributed_s"] = traced_pass - sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    m["trace.overhead_s"] = traced_pass - sum(map(sum, untraced)) / len(untraced)
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        min_requests: int = 1, small: bool = False, check: bool = True,
        spans_path: Path | None = None) -> dict:
    import numpy as np

    loop = Loop(workload, seed, workdir, small, check)
    first = loop.one_pass()
    res = {"requests_per_pass": len(loop.requests), "first_pass": first}
    if not trace:
        [res["warm"]] = loop.passes(seconds, min_requests)
    else:
        res["warm"], res["traced"] = loop.passes(seconds, min_requests, modes=(False, True))
        res["layers"] = traced_metrics(loop, res["traced"], res["warm"])
        if spans_path is not None:
            loop.tracer.dump(spans_path, loop.table)
    res.update(
        attempted=loop.attempted,
        failed=loop.failed,
        failures=loop.failures,
        reference=loop.reference,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        env={
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas(np),
        },
    )
    return res


def _blas(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="run one benchmark workload in this process")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--min-requests", type=int, default=1)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    args = p.parse_args(argv)
    spans = args.workdir / f"spans-{args.workload}.json" if args.trace else None
    res = run(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir,
              min_requests=args.min_requests, spans_path=spans)
    args.result.write_text(json.dumps(res))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
