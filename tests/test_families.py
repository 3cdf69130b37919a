"""The warped family W(p, q, eps): para-Sasakian charts whose Einstein-like
fit is unique (rank 3), so the rows behind the fit, lie.lie-ricci and
lie.lie-c11-* among them, are measured on one (a, b, c) and not on a family.

W(p, q, eps) has dimension n = p + q - 1 and coordinates
(a1 .. a(p-1), s, b1 .. b(q-1)).

    eps = +1: g = 1/2 e^(-2s) |da|^2 + ds^2 + 1/2 e^(2s) |db|^2, xi = -d_s, eta = -ds, index 0
    eps = -1: g = -1/2 e^(-2s) |da|^2 - ds^2 + 1/2 e^(2s) |db|^2, xi = d_s, eta = ds, index p

with phi = diag(I_(p-1), 0, -I_(q-1)) at both signs.  In closed form
trace(phi) = p - q and S = -eps trace(phi) Phi + (1 - n) eta(x)eta, so the fit
is (a, b, c) = (0, -eps (p - q), 1 - n); it has rank 3 unless p = 1 or q = 1,
where Phi is a combination of g and eta(x)eta.

tests/fixtures/W22p.json and W22m.json, which the golden reports read, are
W(2, 2, +1) and W(2, 2, -1) as ``warped_manifest`` writes them:

    PYTHONPATH=src python tests/test_families.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from paracheck.cli import main
from paracheck.einstein_like import fit_einstein_like
from paracheck.manifest import load_manifest
from paracheck.models import evaluate_structure
from paracheck.sampling import derive_rng, sample_points

POINTS, SEED = 20, 42
FIXTURES = Path(__file__).resolve().parent / "fixtures"
FIXTURE_SIGNS = {"W22p": 1, "W22m": -1}     # fixture -> eps of its W(2, 2, eps)
# the closed-form fit on every split p, q >= 2 up to n = 9; from n = 8 on a case samples POINTS // 2 points,
# which keeps the file near 4 s
FIRST = [(2, 2, 1), (2, 2, -1), (3, 2, 1), (3, 2, -1), (2, 3, 1), (2, 3, -1), (3, 3, 1), (4, 2, 1)]
SPLITS = FIRST + [(p, q, eps) for p in range(2, 10) for q in range(2, 11 - p) for eps in (1, -1)
                  if (p, q, eps) not in FIRST]


def warped_manifest(p: int, q: int, eps: int) -> dict:
    """The model manifest of W(p, q, eps)."""
    n = p + q - 1
    coords = [f"a{i}" for i in range(1, p)] + ["s"] + [f"b{i}" for i in range(1, q)]
    diag = ([f"{0.5 * eps}*exp(-2*s)"] * (p - 1) + [str(eps)] + ["0.5*exp(2*s)"] * (q - 1))
    metric = [diag[i] if i == j else "0" for i in range(n) for j in range(n)]
    phi_diag = ["1"] * (p - 1) + ["0"] + ["-1"] * (q - 1)
    phi = [phi_diag[i] if i == j else "0" for i in range(n) for j in range(n)]
    unit = [str(-eps) if c == "s" else "0" for c in coords]     # xi = -eps d_s, eta = -eps ds
    return {"kind": "model", "name": f"W({p},{q},{eps:+d})", "dim": n, "coords": coords,
            "epsilon": eps, "index": 0 if eps == 1 else p, "metric": metric,
            "domain": [[-0.5, 0.5] if c == "s" else [-1.0, 1.0] for c in coords],
            "description": "warped para-Sasakian chart of trace p - q", "phi": phi, "xi": unit, "eta": unit}


def _fit(path, points: int = POINTS):
    """The Einstein-like fit of the manifest at ``path``, on the points a request at SEED samples."""
    model = load_manifest(path)
    s = evaluate_structure(model, sample_points(model.domain, points, derive_rng(SEED, model.name, "points")))
    return fit_einstein_like(s.g0, s.Phi0, s.eta0, s.curvature.ricci.components[..., 0])


@pytest.mark.parametrize("p,q,eps", SPLITS)
def test_warped_chart_passes_with_its_closed_form_fit(tmp_path, p, q, eps):
    """Every record of ``check --suite all`` passes, and the fit is
    (0, -eps (p - q), 1 - n) at rank 3 to 1e-12."""
    n = p + q - 1
    points = POINTS if n < 8 else POINTS // 2
    path = tmp_path / "w.json"
    path.write_text(json.dumps(warped_manifest(p, q, eps)))
    assert main(["check", str(path), "--suite", "all", "--points", str(points), "--seed", str(SEED),
                 "--format", "json", "--out", str(tmp_path / "report.json")]) == 0
    fit = _fit(path, points)
    assert fit.gram_rank == 3
    assert np.max(np.abs(fit.min_norm - [0.0, -eps * (p - q), 1 - n])) <= 1e-12


def test_warped_chart_with_p_1_has_a_rank_2_fit(tmp_path):
    """At p = 1 phi = -(I - xi (x) eta) on ker eta, so Phi is a combination of g and eta(x)eta."""
    path = tmp_path / "w.json"
    path.write_text(json.dumps(warped_manifest(1, 3, 1)))
    assert _fit(path).gram_rank == 2


@pytest.mark.parametrize("name", list(FIXTURE_SIGNS))
def test_each_fixture_is_the_generated_manifest(name):
    assert json.loads((FIXTURES / f"{name}.json").read_text()) == warped_manifest(2, 2, FIXTURE_SIGNS[name])


if __name__ == "__main__":
    for name, eps in FIXTURE_SIGNS.items():
        (FIXTURES / f"{name}.json").write_text(json.dumps(warped_manifest(2, 2, eps), indent=2) + "\n")
