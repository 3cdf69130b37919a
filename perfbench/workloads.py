"""The benchmark's workloads: each is one pass of paracheck CLI requests.

A request is one ``paracheck.cli.main`` call.  Every request also gets
``--seed <workload seed> --format json --out <report path>``, appended by
the worker.  Each request has a stable key, used to look up its pinned
output; the key never contains a file-system path.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# Warm requests a run measures at least, whatever --seconds says.  At 40
# requests, p75 keeps ten samples beyond it, so the tail is always p75.
MIN_WARM_REQUESTS = 40
TAIL_PERCENTILE = 75

# Fresh worker processes per end-to-end run, one after the other: each gives
# one first-pass sample.  cli-sweep's first pass is long, so it gets fewer.
WORKERS = {"chart-n5": 5, "bundle-n3": 5, "cli-sweep": 3}

# Sizes, smaller than the CLI default of 100 points so that a run, with
# several fresh processes and MIN_WARM_REQUESTS, fits in about 30 s: one
# E1n5 request at 100 points takes 12-17 s on two cores.  SWEEP_TRIALS keeps
# the synthetic requests at about a third of a cli-sweep pass.
CHART_N5_POINTS = 5
BUNDLE_N3_POINTS = 50
SWEEP_POINTS = 50
SWEEP_TRIALS = 400

# Environment variables that pin BLAS and OpenMP to one thread; set in every
# process that imports numpy.
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Reduced sizes for the self-tests.
SMALL = {"chart": 3, "bundle": 5, "sweep": 6, "trials": 20}

SWEEP_MODELS = ("E1", "E2", "N1", "F0")
SWEEP_SUITES = ("structure", "sasakian", "curvature", "einstein", "lie")
SWEEP_HYPERSURFACE = ("induced", "gauss", "characterization")
SWEEP_SYNTHETIC = (("+1", 3), ("+1", 5), ("-1", 3), ("-1", 5))


# Workload name -> why it is in the benchmark.
WORKLOADS = {
    "chart-n5": "check E1n5 and E2n5 --suite all: dim-5 order-4 jets, so the jet-product "
                "kernel does most of the work",
    "bundle-n3": "check E3a, E3b and B1 --suite all: bundle evaluation, repeated geometry "
                 "objects and per-point loops take a visible share",
    "cli-sweep": "27 small manifest, hypersurface and synthetic requests: per-call and "
                 "per-request fixed costs show, and synthetic runs only here",
}


@dataclass(frozen=True)
class Request:
    key: str
    argv: tuple[str, ...]


def requests(workload: str, manifest_dir: Path, small: bool = False) -> list[Request]:
    """One pass of ``workload``.  cli-sweep reads manifests from
    ``manifest_dir``; write them first with :func:`write_manifests`."""
    if workload == "chart-n5":
        pts = str(SMALL["chart"] if small else CHART_N5_POINTS)
        return [Request(f"check {m} --suite all --points {pts}",
                        ("check", m, "--suite", "all", "--points", pts))
                for m in ("E1n5", "E2n5")]
    if workload == "bundle-n3":
        pts = str(SMALL["bundle"] if small else BUNDLE_N3_POINTS)
        return [Request(f"check {b} --suite all --points {pts}",
                        ("check", b, "--suite", "all", "--points", pts))
                for b in ("E3a", "E3b", "B1")]
    if workload == "cli-sweep":
        pts = str(SMALL["sweep"] if small else SWEEP_POINTS)
        trials = str(SMALL["trials"] if small else SWEEP_TRIALS)
        out = [Request(f"check <{m}.json> --suite {s} --points {pts}",
                       ("check", str(manifest_dir / f"{m}.json"), "--suite", s, "--points", pts))
               for m in SWEEP_MODELS for s in SWEEP_SUITES]
        out += [Request(f"hypersurface <E3b.json> --suite {s} --points {pts}",
                        ("hypersurface", str(manifest_dir / "E3b.json"), "--suite", s,
                         "--points", pts))
                for s in SWEEP_HYPERSURFACE]
        out += [Request(f"synthetic --epsilon {e} --dim {d} --trials {trials}",
                        ("synthetic", "--epsilon", e, "--dim", str(d), "--trials", trials))
                for e, d in SWEEP_SYNTHETIC]
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def write_manifests(manifest_dir: Path) -> None:
    """The cli-sweep inputs: builtin targets saved as manifest files."""
    from paracheck.hypersurface_lab import builtin_bundles
    from paracheck.manifest import save_manifest
    from paracheck.models import builtin_models

    manifest_dir.mkdir(parents=True, exist_ok=True)
    models = builtin_models()
    for m in SWEEP_MODELS:
        save_manifest(models[m], manifest_dir / f"{m}.json")
    save_manifest(builtin_bundles()["E3b"], manifest_dir / "E3b.json")

