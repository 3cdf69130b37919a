"""paracheck: verification suites for (eps)-almost paracontact metric
geometry.

Exact-derivative jets drive a connection/curvature engine; builtin models
and hypersurface bundles exercise every identity of the structure theory at
sampled points, with residual reports and deterministic seeding.
"""

__version__ = "0.1.0"

from .expr_jet import JetSpace, parse_expr
from .models import ManifoldModel, builtin_models, evaluate_structure, get_model
from .paracontact_core import ParacontactStructure
from .report import CheckRecord, CheckReport, StructureCheckResult
from .suites import RunConfig, run_suite, run_synthetic

__all__ = [
    "JetSpace",
    "parse_expr",
    "ManifoldModel",
    "builtin_models",
    "evaluate_structure",
    "get_model",
    "ParacontactStructure",
    "StructureCheckResult",
    "CheckRecord",
    "CheckReport",
    "RunConfig",
    "run_suite",
    "run_synthetic",
]
