"""Builtin model catalog and evaluation of chart models into structures.

The closed-form fixtures:

  E1   upper half-space {y > 0}, g = y^-2 (sum dx_i^2 + dy^2), xi = y d/dy,
       eta = dy/y, phi = -(I - eta(x)xi), eps = +1  (para-Sasakian, curvature -1)
  E2   same chart with g = y^-2 (sum dx_i^2 - dy^2) and phi = +(I - eta(x)xi),
       eps = -1  (para-Sasakian, curvature +1)
  N1   E1 with phi scaled by 1.01: breaks the algebraic axioms (negative control)
  F0   flat chart with the formal (phi, xi, eta) of E1: passes the axioms but is
       not para-Sasakian and has R = 0 (negative control)

plus the hypersurface bundles defined in :mod:`paracheck.hypersurface_lab`
(E3a hyperplane, E3b cone, B1 sphere patch whose JN is not tangent).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr_jet import JetDomainError, JetSpace, _locate, eval_expr, parse_expr
from .paracontact_core import ParacontactStructure
from .tensor_algebra import TensorValue, inertia

# Deepest jet orders of a chart model's fields (suites.METRIC_ORDERS gives the g order of each request).
# The deepest check reads one derivative of Ricci (dr, div Q, nabla Q, L_xi S, nabla and L_xi of C11), so g
# needs order 3; phi, xi and eta enter at most one covariant or Lie derivative.
METRIC_ORDER = 3
FIELD_ORDER = 1


@dataclass
class ManifoldModel:
    """A chart model: coordinate names, expression-valued tensors, a sample
    domain box, and the declared metric index.

    Invariants checked by :func:`validate_model`: the metric expression grid
    is symmetric as written, the domain intervals are non-empty, every
    expression parses and is finite at sampled points, and the metric has
    the declared index there.
    """

    name: str
    dim: int
    coords: list[str]
    epsilon: int
    index: int
    metric: list[list[str]]
    domain: list[tuple[float, float]]
    phi: list[list[str]] | None = None
    xi: list[str] | None = None
    eta: list[str] | None = None
    description: str = ""

    @property
    def has_structure(self) -> bool:
        return self.phi is not None and self.xi is not None and self.eta is not None


class ModelValidationError(ValueError):
    pass


def validate_model(model: ManifoldModel, rng: np.random.Generator | None = None, checks_points: int = 10):
    """Raises ModelValidationError on any violated model invariant, and
    ExprError or JetDomainError, naming the field, on an entry that does not
    parse or is not finite at one of ``checks_points`` sampled points (the
    fields are evaluated there at order 0)."""
    n = model.dim
    if len(model.coords) != n:
        raise ModelValidationError(f"{model.name}: expected {n} coordinate names, got {len(model.coords)}")
    if len(model.metric) != n or any(len(row) != n for row in model.metric):
        raise ModelValidationError(f"{model.name}: metric must be an {n}x{n} expression grid")
    for i in range(n):
        for j in range(i + 1, n):
            if model.metric[i][j].replace(" ", "") != model.metric[j][i].replace(" ", ""):
                raise ModelValidationError(
                    f"{model.name}: metric entry ({i},{j}) is not symmetric as written: "
                    f"{model.metric[i][j]!r} vs {model.metric[j][i]!r}")
    if len(model.domain) != n:
        raise ModelValidationError(f"{model.name}: domain must give one interval per coordinate")
    for k, (lo, hi) in enumerate(model.domain):
        if not (hi > lo):
            raise ModelValidationError(f"{model.name}: empty domain interval for {model.coords[k]}")
    if model.epsilon not in (1, -1):
        raise ModelValidationError(f"{model.name}: epsilon must be +1 or -1")
    # every field finite at sample points, so a bad entry fails at load time
    # naming itself, and the declared index vs computed inertia there
    rng = np.random.default_rng(20240101) if rng is None else rng
    lo = np.array([d[0] for d in model.domain])
    hi = np.array([d[1] for d in model.domain])
    pts = rng.uniform(lo, hi, size=(checks_points, n))
    space = JetSpace.get(n, 0)
    coord_jets = space.point_jets(pts)
    for field, sources in (("phi", model.phi), ("xi", model.xi), ("eta", model.eta)):
        if sources is not None:
            _eval_grid(sources, model.coords, space, coord_jets, pts, field)
    g0 = _eval_grid(model.metric, model.coords, space, coord_jets, pts, "metric")[..., 0]
    bad = np.flatnonzero(inertia(g0) != model.index)
    if bad.size:
        raise ModelValidationError(
            f"{model.name}: declared index {model.index} but computed inertia {inertia(g0[bad[0]])} "
            f"at point {tuple(pts[bad[0]].tolist())}")


def _eval_grid(sources: list, coords: list[str], space: JetSpace, coord_jets: list[np.ndarray],
               points: np.ndarray, field: str) -> np.ndarray:
    """Jets of the vector or matrix ``field`` of expression strings over
    ``coords``, at the given coordinate jets (chart point jets, or jets of an
    embedding): shape (P,) + grid shape + (ncoeffs,).  Each distinct string
    is parsed and evaluated once, at its first entry in row-major order, and
    its jets fill every entry that repeats it.  A syntax or domain error
    names that entry, ``field[k]`` by row-major k; jets that are not finite
    raise JetDomainError ``field: not finite`` at the first such point."""
    grid = isinstance(sources[0], list)
    flat = [s for row in sources for s in row] if grid else sources
    first = {}
    with np.errstate(all="ignore"):
        for k, s in enumerate(flat):
            if s in first:
                continue
            try:
                first[s] = jets = eval_expr(parse_expr(s, coords, f"{field}[{k}]"), space, coord_jets, points=points)
            except JetDomainError as e:
                e.args = (f"{field}[{k}]: {e}",)
                raise
            if not np.isfinite(jets).all():
                raise JetDomainError(f"{field}: not finite", _locate(~np.isfinite(jets), points))
    jets = np.stack([first[s] for s in flat], axis=1)
    return jets.reshape(jets.shape[:1] + ((len(sources), -1) if grid else (-1,)) + jets.shape[2:])


def evaluate_structure(model: ManifoldModel, points: np.ndarray, order: int = METRIC_ORDER) -> ParacontactStructure:
    """Evaluate the model's tensors as jets at the given points: g to
    ``order``, phi, xi and eta to min(order, FIELD_ORDER)."""
    if not model.has_structure:
        raise ValueError(f"model {model.name} declares no (phi, xi, eta) structure")
    points = np.asarray(points, dtype=float)

    def jets(field, p, q, order):
        space = JetSpace.get(model.dim, order)
        comps = _eval_grid(getattr(model, field), model.coords, space, space.point_jets(points), points, field)
        return TensorValue(model.dim, p, q, comps, space)

    fo = min(order, FIELD_ORDER)
    return ParacontactStructure(points, model.epsilon, jets("metric", 0, 2, order),
                                jets("phi", 1, 1, fo), jets("xi", 1, 0, fo), jets("eta", 0, 1, fo))


# --------------------------------------------------------------------------
# builtin charts
# --------------------------------------------------------------------------


def _half_space_model(name: str, n: int, timelike_y: bool, phi_scale: float, epsilon: int,
                      description: str) -> ManifoldModel:
    coords = [f"x{i}" for i in range(1, n)] + ["y"]
    zero = "0"
    inv_y2 = "1/(y^2)"
    metric = [[zero] * n for _ in range(n)]
    for i in range(n - 1):
        metric[i][i] = inv_y2
    metric[n - 1][n - 1] = ("-" + inv_y2) if timelike_y else inv_y2
    sign = -phi_scale if not timelike_y else phi_scale
    # phi = sign * (I - eta (x) xi): diagonal sign on ker eta, 0 on xi
    phi = [[zero] * n for _ in range(n)]
    for i in range(n - 1):
        phi[i][i] = f"{sign}"
    phi[n - 1][n - 1] = "0"
    xi = [zero] * (n - 1) + ["y"]
    eta = [zero] * (n - 1) + ["1/y"]
    domain = [(-2.0, 2.0)] * (n - 1) + [(0.5, 3.0)]
    return ManifoldModel(
        name=name, dim=n, coords=coords, epsilon=epsilon,
        index=(1 if timelike_y else 0),
        metric=metric, phi=phi, xi=xi, eta=eta, domain=domain, description=description,
    )


def _flat_formal_model() -> ManifoldModel:
    n = 3
    coords = ["x1", "x2", "y"]
    metric = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    phi = [["-1" if i == j and i < n - 1 else "0" for j in range(n)] for i in range(n)]
    return ManifoldModel(
        name="F0", dim=n, coords=coords, epsilon=1, index=0,
        metric=metric, phi=phi, xi=["0", "0", "1"], eta=["0", "0", "1"],
        domain=[(-2.0, 2.0)] * n,
        description="flat chart with a formal structure: passes the algebraic axioms, "
                    "fails everything with a derivative in it (negative control)",
    )


def builtin_models() -> dict[str, ManifoldModel]:
    """Chart models by name.  Hypersurface bundles live in builtin_bundles()."""
    models = {}
    for n in (3, 5):
        suffix = "" if n == 3 else f"n{n}"
        models[f"E1{suffix}"] = _half_space_model(
            f"E1{suffix}", n, timelike_y=False, phi_scale=1.0, epsilon=1,
            description=f"hyperbolic upper half-space (n={n}), para-Sasakian with eps=+1",
        )
        models[f"E2{suffix}"] = _half_space_model(
            f"E2{suffix}", n, timelike_y=True, phi_scale=1.0, epsilon=-1,
            description=f"timelike-fiber upper half-space (n={n}), para-Sasakian with eps=-1",
        )
    models["N1"] = _half_space_model(
        "N1", 3, timelike_y=False, phi_scale=1.01, epsilon=1,
        description="E1 with phi scaled by 1.01 (negative control: axioms fail)",
    )
    models["F0"] = _flat_formal_model()
    return models


def get_model(name: str) -> ManifoldModel:
    models = builtin_models()
    if name not in models:
        raise KeyError(f"unknown model {name!r}; builtin: {', '.join(sorted(models))}")
    return models[name]
