"""paracheck benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload chart-n5 --seed 1 --seconds 15 --trace 0

Run from anywhere; the benchmark works on the checkout it sits in and
imports paracheck from its ``src/``.

``--trace 0`` reports the end-to-end metrics.  The run is split over
``WORKERS[workload]`` fresh worker processes, one after the other, each
preceded by SETUP_PROBES set-up probes, so set-up and first-pass times get
several samples, spread over the run like the warm passes.  Each worker runs
the workload as a closed loop from one client for its share of
``--seconds``.  Times are reported in reference seconds (``reference.py``).
``--trace 1`` runs one worker under the outside tracer and reports the
per-layer metrics in wall seconds.  Every request's report is checked
against the pins in ``perfbench/pins/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
show the same metrics as a table, with sample counts and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import NOMINAL_S  # noqa: E402
from workloads import (  # noqa: E402
    MIN_WARM_REQUESTS, SINGLE_THREAD, TAIL_PERCENTILE, WORKERS, WORKLOADS)

SETUP_PROBES = 3
DEADLINE_S = 170
PROBE = ("import sys; sys.path.insert(0, 'src'); import paracheck.cli; "
         "sys.stdout.write('ready\\n'); sys.stdout.flush()")

END_TO_END_UNITS = {
    "setup_s": "s", "first_pass_s": "s", "pass_s": "s",
    "request_s.p50": "s", "request_s.tail": "s", "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in SINGLE_THREAD})
    return env


def setup_seconds(env: dict) -> list[float]:
    """Launch-to-ready time of fresh interpreters importing paracheck.cli."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE) as p:
            line = p.stdout.readline()
            dt = perf_counter() - t0
            p.stdout.read()
            if p.wait(timeout=60) != 0 or line.strip() != b"ready":
                raise RuntimeError("set-up probe failed to import paracheck.cli")
        out.append(dt)
    return out


def run_worker(args, env: dict, workdir: Path, deadline: float, seconds: float,
               min_requests: int = 1) -> dict:
    result = workdir / "result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace),
           "--min-requests", str(min_requests), "--workdir", str(workdir),
           "--result", str(result)]
    with subprocess.Popen(cmd, cwd=ROOT, env=env) as p:
        try:
            code = p.wait(timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
            raise RuntimeError("worker ran past the deadline") from None
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    return json.loads(result.read_text())


def speed_factor(res: dict) -> float:
    """Reference seconds per wall second in one worker process."""
    return NOMINAL_S / statistics.median(res["reference"])


def end_to_end(results: list[dict], setup: list[list[float]]) -> tuple[dict, dict]:
    """Metric values over the workers' results, and the sample note printed
    beside each.  Times are in reference seconds: each worker's wall times,
    and the set-up probes run just before it, scaled by its speed factor."""
    factors = [speed_factor(r) for r in results]
    first = [sum(r["first_pass"]) * f for r, f in zip(results, factors)]
    warm = [[x * f for x in p] for r, f in zip(results, factors) for p in r["warm"]]
    lat = [x for p in warm for x in p]
    probes = [x * f for xs, f in zip(setup, factors) for x in xs]
    tail = statistics.quantiles(lat, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    vals = {
        "setup_s": statistics.median(probes),
        "first_pass_s": statistics.median(first),
        "pass_s": statistics.median(sum(p) for p in warm),
        "request_s.p50": statistics.median(lat),
        "request_s.tail": tail,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }
    notes = {
        "setup_s": f"median of {len(probes)} fresh interpreters",
        "first_pass_s": f"median of {len(first)} first passes, each in a fresh process",
        "pass_s": f"median of {len(warm)} warm passes",
        "request_s.p50": f"median of {len(lat)} warm requests",
        "request_s.tail": f"p{TAIL_PERCENTILE} of {len(lat)} warm requests, "
                          f"{sum(x > tail for x in lat)} beyond it",
        "peak_rss_mb": f"largest peak RSS of {len(results)} worker processes",
    }
    return vals, notes


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="paracheck benchmark: one workload")
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "paracheck" / "cli.py").is_file():
        print(f"error: no paracheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    workdir = ROOT / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    env = child_env()
    setup, results = [], []
    try:
        if args.trace:
            results.append(run_worker(args, env, workdir, deadline, args.seconds))
        else:
            n = WORKERS[args.workload]
            for _ in range(n):
                setup.append(setup_seconds(env))
                results.append(run_worker(args, env, workdir, deadline, args.seconds / n,
                                          math.ceil(MIN_WARM_REQUESTS / n)))
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    res = results[0]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)

    print(f"workload {args.workload}: {WORKLOADS[args.workload]}")
    print(f"  closed loop, 1 client, seed {args.seed}, {args.seconds} s of warm passes in "
          f"{len(results)} worker process(es), {res['requests_per_pass']} requests per pass")
    if args.trace:
        metrics = {k: {"value": v, "unit": "s" if k.endswith("_s") else "count"}
                   for k, v in res["layers"].items()}
        for k, m in metrics.items():
            print(f"  {k:<46} {m['value']:>14.6g} {m['unit']}")
        print(f"  per traced pass; {len(res['traced'])} traced and {len(res['warm'])} "
              f"untraced warm passes")
    else:
        vals, notes = end_to_end(results, setup)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in vals.items()}
        for k, m in metrics.items():
            print(f"  {k:<16} {m['value']:>12.6g} {m['unit']:<3} {notes[k]}")
        print("  times are reference seconds; wall seconds = reference seconds / speed factor, "
              "speed factor per worker " + ", ".join(f"{speed_factor(r):.3f}" for r in results))
    print(f"  fail_ratio       {failed / attempted:>12.6g}     "
          f"{failed} failed of {attempted} attempted")
    for note in [n for r in results for n in r["failures"]]:
        print(f"  failure: {note}")
    env_record = {"nproc": os.cpu_count(), "cpu": cpu_model(), **res["env"],
                  "seed": args.seed, "git_commit": git_commit()}
    print("env " + json.dumps(env_record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
