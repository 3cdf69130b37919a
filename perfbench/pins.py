"""Pinned expected output of every benchmark request, and the comparison.

For each request the pin holds the exit code and the record ids with their
statuses, which must match at every seed, and the residuals at the seeds in
``RESIDUAL_SEEDS``, which must match within ``RESIDUAL_ATOL`` absolute.
Other report fields are ignored, so fields that reports gain later do not
count as a difference.

Regenerate the pins (only when the expected output really changes) with::

    python3 perfbench/pins.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

PIN_DIR = Path(__file__).resolve().parent / "pins"
RESIDUAL_SEEDS = (0, 1, 42)
PIN_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7, 42)     # statuses must agree across all of them
RESIDUAL_ATOL = 1e-12


def load(workload: str) -> dict:
    return json.loads((PIN_DIR / f"{workload}.json").read_text())


def summarize(exit_code: int, report: dict) -> dict:
    """The pinned fields of one report: exit code, statuses, residuals."""
    checks = report["checks"]
    return {
        "exit": exit_code,
        "status": {c["id"]: c["status"] for c in checks},
        "residual": {c["id"]: c["residual"] for c in checks},
    }


def _same_residual(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= RESIDUAL_ATOL


def compare(pin: dict | None, seed: int, exit_code, report: dict | None) -> list[str]:
    """Differences between a request's output and its pin; empty when the
    output is correct.  ``exit_code`` is None when the request raised."""
    if pin is None:
        return ["no pin for this request"]
    if exit_code is None:
        return ["raised an exception"]
    problems = []
    if exit_code != pin["exit"]:
        problems.append(f"exit code {exit_code}, pinned {pin['exit']}")
    if report is None:
        return problems + ["no report written"]
    got = summarize(exit_code, report)
    if got["status"] != pin["status"]:
        for cid in sorted(set(got["status"]) | set(pin["status"])):
            a, b = got["status"].get(cid), pin["status"].get(cid)
            if a != b:
                problems.append(f"{cid}: status {a}, pinned {b}")
    want = pin["residual"].get(str(seed))
    if want is not None:
        for cid, r in want.items():
            g = got["residual"].get(cid)
            if g is None or not _same_residual(g, r):
                problems.append(f"{cid}: residual {g!r}, pinned {r!r}")
    return problems


def write():
    """Run every request at every seed in PIN_SEEDS; pin the exit code and
    statuses (failing if they differ between seeds) and the residuals at
    RESIDUAL_SEEDS."""
    import worker
    from workloads import WORKLOADS

    PIN_DIR.mkdir(exist_ok=True)
    for wl in WORKLOADS:
        pins: dict[str, dict] = {}
        for seed in PIN_SEEDS:
            for key, exit_code, report in worker.outputs(wl, seed):
                got = summarize(exit_code, report)
                pin = pins.setdefault(key, {"exit": got["exit"], "status": got["status"],
                                            "residual": {}})
                if (pin["exit"], pin["status"]) != (got["exit"], got["status"]):
                    sys.exit(f"{wl} {key}: exit code or statuses differ at seed {seed}")
                if seed in RESIDUAL_SEEDS:
                    pin["residual"][str(seed)] = got["residual"]
        (PIN_DIR / f"{wl}.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print(f"pinned {wl}: {len(pins)} requests, seeds {PIN_SEEDS}")


if __name__ == "__main__":
    write()
