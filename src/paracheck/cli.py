"""Command-line interface.

    paracheck list-models
    paracheck check <model|manifest.json> --suite all [--points N] [--seed S]
                    [--tol-scale X] [--format json|text] [--out PATH]
    paracheck hypersurface <bundle|manifest.json> --suite induced|gauss|characterization|all
    paracheck synthetic --epsilon +1 --dim 3 --trials 100 --seed 42

Exit codes: 0 when no check failed, 1 when any check failed, 2 on
input/validation errors (unknown model or suite, malformed manifest).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .expr_jet import JetDomainError
from .hypersurface_lab import (SYNTHETIC_MAX_DIM, SYNTHETIC_MAX_TRIALS, HypersurfaceBundle, InducedStructureError,
                               builtin_bundles)
from .manifest import ManifestError, load_manifest
from .models import ManifoldModel, builtin_models
from .report import EXIT_INPUT_ERROR, CheckReport
from .suites import HYPERSURFACE_SUBSETS, SUITES, RunConfig, run_suite, run_synthetic


def _resolve(name: str) -> ManifoldModel | HypersurfaceBundle:
    models = builtin_models()
    bundles = builtin_bundles()
    if name in models:
        return models[name]
    if name in bundles:
        return bundles[name]
    if Path(name).exists() or name.endswith(".json"):
        return load_manifest(name)
    known = ", ".join(sorted(list(models) + list(bundles)))
    raise ManifestError(f"unknown model {name!r}: not a builtin ({known}) and no such file")


def _run(name: str, suite: str, cfg: RunConfig) -> CheckReport:
    """Run ``suite`` on the builtin or manifest ``name``; an embedding, a
    field, a metric or a structure that fails to evaluate or to validate, or
    a suite the target cannot run, is an input error naming ``name``."""
    target = _resolve(name)
    try:
        return run_suite(target, suite, cfg)
    except InducedStructureError as e:
        raise ManifestError(f"{name}: embedding validation failed: {e}") from e
    except (ValueError, JetDomainError) as e:
        raise ManifestError(f"{name}: {e}") from e


def _emit(report: CheckReport, fmt: str, out: str | None) -> int:
    text = report.to_json() if fmt == "json" else report.to_text()
    if out:
        try:
            Path(out).write_text(text + "\n")
        except OSError as e:
            raise ValueError(f"{out}: cannot write the report: {e.strerror}") from e
    else:
        print(text)
    return report.exit_code


def _common_run_args(p: argparse.ArgumentParser):
    """The options every run command shares."""
    p.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    p.add_argument("--tol-scale", type=float, default=1.0, help="multiply all tolerances")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out", help="write the report to this path instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every
    :func:`main` call, which only reads it."""
    p = argparse.ArgumentParser(prog="paracheck",
                                description="verification suites for (eps)-almost paracontact "
                                            "metric structures and their hypersurfaces")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list-models", help="list builtin chart models and hypersurface bundles")

    pc = sub.add_parser("check", help="run a check suite on a chart model or bundle")
    pc.add_argument("model", help="builtin name or manifest path")
    pc.add_argument("--suite", default="all", choices=SUITES)

    ph = sub.add_parser("hypersurface", help="run the hypersurface suite on a bundle")
    ph.add_argument("bundle", help="builtin bundle name or bundle-manifest path")
    ph.add_argument("--suite", default="all", choices=HYPERSURFACE_SUBSETS)
    for sp in (pc, ph):
        sp.add_argument("--points", type=int, default=100, help="sample points per suite (default 100)")
        _common_run_args(sp)

    ps = sub.add_parser("synthetic", help="pointwise Gauss-equation trials")
    ps.add_argument("--epsilon", default="+1", choices=("+1", "-1", "1"))
    ps.add_argument("--dim", type=int, default=3, help=f"structure dimension n, 3..{SYNTHETIC_MAX_DIM} (default 3)")
    ps.add_argument("--trials", type=int, default=100, help=f"random trials, 1..{SYNTHETIC_MAX_TRIALS} (default 100)")
    ps.add_argument("--perturb-a", type=float, default=0.0,
                    help="perturb the planted shape operator (negative control)")
    _common_run_args(ps)
    return p


def _cmd_list_models() -> int:
    models = builtin_models()
    bundles = builtin_bundles()
    print("chart models:")
    for name in sorted(models):
        m = models[name]
        print(f"  {name:6s} dim {m.dim}  eps {m.epsilon:+d}  index {m.index}  {m.description}")
    print("hypersurface bundles:")
    for name in sorted(bundles):
        b = bundles[name]
        print(f"  {name:6s} dim {b.dim}  {b.description}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-models":
            return _cmd_list_models()
        if args.command == "check":
            cfg = RunConfig(points=args.points, seed=args.seed, tol_scale=args.tol_scale)
            return _emit(_run(args.model, args.suite, cfg), args.format, args.out)
        if args.command == "hypersurface":
            cfg = RunConfig(points=args.points, seed=args.seed, tol_scale=args.tol_scale,
                            hypersurface_subset=args.suite)
            return _emit(_run(args.bundle, "hypersurface", cfg), args.format, args.out)
        if args.command == "synthetic":
            eps = 1 if args.epsilon in ("+1", "1") else -1
            cfg = RunConfig(seed=args.seed, tol_scale=args.tol_scale, trials=args.trials,
                            epsilon=eps, dim=args.dim, perturb_a=args.perturb_a)
            report = run_synthetic(cfg)
            return _emit(report, args.format, args.out)
        raise ValueError(f"unknown command {args.command!r}")
    # ValueError covers the manifest, model, expression and embedding errors
    except (ValueError, KeyError, JetDomainError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
