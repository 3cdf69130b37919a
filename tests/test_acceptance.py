"""Acceptance gate: every criterion at its stated tolerance, one pass/fail
line per criterion (run with -s to see the lines for passing tests too).

Where re-derivation contradicts a published display, the criterion is
adjudicated: the re-derived form must pass at its tolerance and the published
form must carry the status printed-form-mismatch (criterion 08 for the
eta(x)eta coefficient and the L_xi Phi placement, 10b and 10c for the
synthetic Gauss chain).  For criterion 10 the re-derivation is backed by the
symbolic oracle in test_sympy_oracle.py: the Gauss reduction yields k = -eps
and S = -eps trace(phi) Phi + (1-n) eta(x)eta, not the published k = 2 - eps
and its Ricci display.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from paracheck.einstein_like import (
    compute_c11_phi_r,
    fit_einstein_like,
    verify_c11_decomposition,
    verify_c11_identities,
    verify_scalar_ode,
    verify_trace_formula,
)
from paracheck.geometry_engine import lie_derivative
from paracheck.hypersurface_lab import (
    builtin_bundles,
    evaluate_bundle,
    shape_characterization_gap_per_point,
    synthetic_gauss_check,
)
from paracheck.models import evaluate_structure, get_model
from paracheck.paracontact_core import VectorPairs, check_axioms, check_para_sasakian
from paracheck.report import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR
from paracheck.sampling import derive_rng, random_vectors, sample_points
from paracheck.suites import RunConfig, run_suite, run_synthetic

from fd_oracle import fundamental_form_jets
from records import passed, recorded

SEED = 42
POINTS = 100
TUPLES = 20


def _fit(s):
    return fit_einstein_like(s.g0, s.Phi0, s.eta0, s.curvature.ricci.components[..., 0])


def _announce(cid: str, ok: bool, extra: str = ""):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'}{('  ' + extra) if extra else ''}")
    return ok


@pytest.fixture(scope="module")
def e1_100():
    m = get_model("E1")
    pts = sample_points(m.domain, POINTS, derive_rng(SEED, "E1", "acc-pts"))
    s = evaluate_structure(m, pts)
    vec = random_vectors(derive_rng(SEED, "E1", "acc-vec"), POINTS, 2 * TUPLES, 3)
    return s, vec


@pytest.fixture(scope="module")
def e2_100():
    m = get_model("E2")
    pts = sample_points(m.domain, POINTS, derive_rng(SEED, "E2", "acc-pts"))
    s = evaluate_structure(m, pts)
    vec = random_vectors(derive_rng(SEED, "E2", "acc-vec"), POINTS, 2 * TUPLES, 3)
    return s, vec


@pytest.fixture(scope="module")
def e3a_100():
    b = builtin_bundles()["E3a"]
    pts = sample_points(b.embedding.domain, POINTS, derive_rng(SEED, "E3a", "acc-pts"))
    return evaluate_bundle(b, pts)


@pytest.fixture(scope="module")
def e3b_100():
    b = builtin_bundles()["E3b"]
    pts = sample_points(b.embedding.domain, POINTS, derive_rng(SEED, "E3b", "acc-pts"))
    pts = np.vstack([[1.0, 0.0, 0.0], pts])
    return evaluate_bundle(b, pts)


@pytest.fixture(scope="module")
def synthetic_outcomes():
    return {
        (eps, n): recorded(synthetic_gauss_check, eps, n, trials=100, seed=SEED)
        for eps in (1, -1)
        for n in (3, 5)
    }


def test_criterion_01_structure_and_defining_equations(e1_100, e2_100):
    """E1 and E2 pass the full structure suite: seven axiom residuals below
    1e-9 and the three defining-equation residuals below 1e-8 at 100 points."""
    ok = True
    for s, vec in (e1_100, e2_100):
        axioms = recorded(check_axioms, VectorPairs(s, vec))
        ok &= len(axioms.records.values()) == 7 and max(c.residual for c in axioms.records.values()) < 1e-9
        ps = recorded(check_para_sasakian, VectorPairs(s, vec))
        three = [ps.records[f"sasakian.{name}"].residual for name in ("defining-equation", "grad-xi", "grad-eta")]
        ok &= max(three) < 1e-8
    assert _announce("1 (structure + defining equations)", ok)


def test_criterion_02_curvature_goldens_with_fd_oracle(e1_100, e2_100):
    """r = -6 / +6 within 1e-6 and S = -2g / +2g within 1e-7, with the
    independent finite-difference pipeline agreeing within 1e-4."""
    from fd_oracle import fd_curvature_package, metric_fn

    ok = True
    for (s, _), factor, r_expected, name in ((e1_100, -2.0, -6.0, "E1"), (e2_100, 2.0, 6.0, "E2")):
        cur = s.curvature
        ok &= bool(np.max(np.abs(cur.scalar[:, 0] - r_expected)) < 1e-6)
        ok &= bool(np.max(np.abs(cur.ricci.components[..., 0] - factor * s.g0)) < 1e-7)
        mfn = metric_fn(get_model(name))
        for k in (0, len(s.points) // 2):
            _, _, _, R_fd, S_fd, r_fd = fd_curvature_package(mfn, s.points[k])
            ok &= bool(np.max(np.abs(cur.ricci.components[k, ..., 0] - S_fd)) < 1e-4)
            ok &= abs(cur.scalar[k, 0] - r_fd) < 1e-4 * max(1.0, abs(r_fd))
    assert _announce("2 (curvature golden values + FD oracle)", ok)


def test_criterion_03_convention_lock(e1_100, e2_100):
    """S(Y,xi) - (1-n) eta(Y) and R(X,Y)xi - (eta(X)Y - eta(Y)X), both below
    1e-7 over 20 random vector tuples per point."""
    ok = True
    for s, vec in (e1_100, e2_100):
        S = s.curvature.ricci.components[..., 0]
        SYxi = np.einsum('pab,pva,pb->pv', S, vec, s.xi0)
        gap1 = SYxi - (1 - s.dim) * np.einsum('pa,pva->pv', s.eta0, vec)
        ok &= bool(np.max(np.abs(gap1)) < 1e-7)
        R = s.curvature.riemann_ud.components[..., 0]
        X, Y = vec[:, 0::2], vec[:, 1::2]
        RXYxi = np.einsum('plijk,pvi,pvj,pk->pvl', R, X, Y, s.xi0)
        tgt = (np.einsum('pa,pva->pv', s.eta0, X)[..., None] * Y
               - np.einsum('pa,pva->pv', s.eta0, Y)[..., None] * X)
        ok &= bool(np.max(np.abs(RXYxi - tgt)) < 1e-7)
    assert _announce("3 (convention lock)", ok)


def test_criterion_04_einstein_like_fit(e1_100):
    """Gram rank 2; minimum norm (-4/3, 2/3, -2/3) within 1e-8; family
    direction (1,1,-1) within 1e-8; eps a + c = -2 within 1e-9 for members
    t in {-1, 0, 1}."""
    s, _ = e1_100
    fit = _fit(s)
    ok = fit.gram_rank == 2
    ok &= bool(np.max(np.abs(fit.min_norm - np.array([-4 / 3, 2 / 3, -2 / 3]))) < 1e-8)
    assert len(fit.family) == 1
    d = fit.family[0] / np.linalg.norm(fit.family[0])
    ref = np.array([1.0, 1.0, -1.0]) / np.sqrt(3.0)
    ok &= bool(min(np.max(np.abs(d - ref)), np.max(np.abs(d + ref))) < 1e-8)
    for a, b, c in fit.members():
        ok &= abs(a + c - (-2.0)) < 1e-9
    assert _announce("4 (Einstein-like fit on E1)", ok)


def test_criterion_05_scalar_ode(e1_100):
    """b xi(r) - 2 c r and 2 eps (1-n)(b^2 - c^2 - c n) both equal -8 for the
    minimum-norm member within 1e-8; div Q components below 1e-7."""
    s, _ = e1_100
    fit = _fit(s)
    a, b, c = fit.min_norm
    r = s.curvature.scalar[:, 0]
    xir = np.einsum('pa,pa->p', s.curvature.dr, s.xi0)
    lhs = b * xir - 2 * c * r
    rhs = 2 * s.epsilon * (1 - 3) * (b**2 - c**2 - c * 3)
    ok = bool(np.max(np.abs(lhs - (-8.0))) < 1e-8)
    ok &= abs(rhs - (-8.0)) < 1e-8
    ok &= bool(np.max(np.abs(s.curvature.div_q)) < 1e-7)
    ok &= passed(recorded(verify_scalar_ode, fit, s))
    assert _announce("5 (scalar-curvature ODE on E1)", ok)


def test_criterion_06_trace_formula(e1_100):
    """trace(phi) = -2 and eps (n-1) b / c = -2 for every non-degenerate
    family member, residual below 1e-8."""
    s, _ = e1_100
    fit = _fit(s)
    trphi = s.trace_phi
    ok = bool(np.max(np.abs(trphi - (-2.0))) < 1e-12)
    checked = 0
    for a, b, c in fit.members():
        if abs(c) < 1e-8:
            continue
        checked += 1
        ok &= abs(1 * 2 * b / c - (-2.0)) < 1e-8
    ok &= checked >= 1
    ok &= passed(recorded(verify_trace_formula, fit, s))
    assert _announce("6 (trace formula on E1)", ok)


def test_criterion_07_c11_tensor(e1_100):
    """C11(phi R) = g + eta(x)eta within 1e-7; the S(Y, phi Z) display below
    1e-8; symmetry below 1e-9; parallel along xi below 1e-7."""
    s, _ = e1_100
    fit = _fit(s)
    c11 = compute_c11_phi_r(s)
    C = c11.components[..., 0]
    ee = np.einsum('pa,pb->pab', s.eta0, s.eta0)
    ok = bool(np.max(np.abs(C - s.g0 - ee)) < 1e-7)
    identities = recorded(verify_c11_identities, C, s)
    ok &= identities.records["einstein.s-phi-z-display"].residual < 1e-8
    res = recorded(verify_c11_decomposition, fit, C, s._nabla(c11), s)
    ok &= identities.records["einstein.c11-symmetric"].residual < 1e-9
    ok &= res.records["einstein.c11-parallel-along-xi"].residual < 1e-7
    assert _announce("7 (C11 contraction tensor on E1)", ok)


def test_criterion_08_discrepancy_adjudication(e1_100, e2_100):
    """E1: the re-derived eta(x)eta coefficient passes while the printed one
    misses by 1/3 on the eta(x)eta block (status printed-form-mismatch).
    E2: L_xi Phi matches 2 eps (g - eps eta(x)eta) and misses the printed
    2 eps (g - eta(x)eta) by componentwise 4 eta(x)eta."""
    s1, _ = e1_100
    fit = _fit(s1)
    c11 = compute_c11_phi_r(s1)
    C = c11.components[..., 0]
    res = recorded(verify_c11_decomposition, fit, C, s1._nabla(c11), s1)
    ok = res.records["einstein.c11-decomposition-derived"].residual < 1e-7
    ok &= res.records["einstein.c11-decomposition-printed"].status == "printed-form-mismatch"
    a, b, c = fit.min_norm
    g, eta = s1.g0, s1.eta0
    ee = np.einsum('pa,pb->pab', eta, eta)
    printed = ((b / c) * (c + 2) * g + (a - 1) * s1.Phi0 - (1 / c) * (c + 4 * b) * ee)
    gap = C - printed
    ok &= bool(np.max(np.abs(gap - (1.0 / 3.0) * ee)) < 1e-7)

    s2, _ = e2_100
    Phi = fundamental_form_jets(s2)
    LPhi = lie_derivative(Phi.components[..., 0], s2._nabla(Phi), s2.xi0, s2.nabla_xi)
    ee2 = np.einsum('pa,pb->pab', s2.eta0, s2.eta0)
    derived = 2 * (-1) * (s2.g0 - (-1) * ee2)
    printed2 = 2 * (-1) * (s2.g0 - ee2)
    ok &= bool(np.max(np.abs(LPhi - derived)) < 1e-8)
    ok &= bool(np.max(np.abs((LPhi - printed2) + 4.0 * ee2)) < 1e-7)
    assert _announce("8 (printed-form adjudication)", ok)


def test_criterion_09_hypersurface_suite(e3a_100, e3b_100):
    """E3a: all axioms with A = 0.  E3b: axioms, shape eigenvalues
    {-1/sqrt2, +1/sqrt2, 0} within 1e-6, the three induced-derivative
    displays below 1e-7, and the characterization iff with both sides false
    (rho1, rho2 > 10 tolerance)."""
    from paracheck.hypersurface_lab import verify_induced_derivatives

    ok = True
    vec_a = random_vectors(derive_rng(SEED, "E3a", "acc-vec"), e3a_100.structure.npoints, 2 * TUPLES, 3)
    ok &= passed(recorded(check_axioms, VectorPairs(e3a_100.structure, vec_a)))
    ok &= float(np.max(np.abs(e3a_100.A))) == 0.0

    vec_b = random_vectors(derive_rng(SEED, "E3b", "acc-vec"), e3b_100.structure.npoints, 2 * TUPLES, 3)
    pairs_b = VectorPairs(e3b_100.structure, vec_b)
    ok &= passed(recorded(check_axioms, pairs_b))
    eig = np.sort(np.linalg.eigvals(e3b_100.A[0]).real)
    ok &= bool(np.max(np.abs(eig - np.array([-1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)]))) < 1e-6)
    ind = recorded(verify_induced_derivatives, e3b_100, pairs_b)
    ok &= max(c.residual for c in ind.records.values()) < 1e-7
    tol = 1e-7
    rho1 = pairs_b.rho1
    rho2 = shape_characterization_gap_per_point(e3b_100.structure, e3b_100.A)
    ok &= bool(np.min(rho1) > 10 * tol and np.min(rho2) > 10 * tol)
    ok &= bool(np.all((rho1 <= tol) == (rho2 <= tol)))
    assert _announce("9 (hypersurface suite)", ok)


def test_criterion_10a_quasi_umbilical(synthetic_outcomes):
    """h = -g + eps eta(x)eta exact to 1e-12 across all four configurations,
    100 trials each."""
    ok = all(out.records["synthetic.quasi-umbilical-exact"].residual < 1e-12
             for out in synthetic_outcomes.values())
    assert _announce("10a (quasi-umbilical decomposition)", ok)


def test_criterion_10b_k_recovery(synthetic_outcomes):
    """The k recovered from R(X,Y)xi = eta(X)Y - eta(Y)X on the Gauss-equation
    reduction equals -eps within 1e-12 on every trial (4 x 100): k-vs-derived,
    the largest of |k + eps| and of the solve residual over the trials, is
    below 1e-12 and passes, and the published k = 2 - eps is reported
    printed-form-mismatch with residual |-eps - (2 - eps)| = 2 within 1e-12.

    The planted A = -eps I + eps eta(x)xi gives h(., xi) = 0, so the
    correction eps(h wedge h) vanishes on R(X,Y)xi and the ansatz alone must
    produce the identity: k eps (eta(Y)X - eta(X)Y) = eta(X)Y - eta(Y)X forces
    k = -eps.  k is a least-squares quotient, so it agrees with -eps to the
    last bits only, hence the 1e-12 of sibling criterion 10a."""
    ok = True
    for out in synthetic_outcomes.values():
        ok &= out.records["synthetic.k-vs-derived"].residual < 1e-12
        ok &= out.records["synthetic.k-vs-derived"].status == "pass"
        printed = out.records["synthetic.k-vs-printed"]
        ok &= printed.status == "printed-form-mismatch"
        ok &= abs(printed.residual - 2.0) < 1e-12
    assert _announce("10b (recovered k = -eps; printed 2 - eps adjudicated)", ok), (
        "expected k = -eps on every trial with k-vs-derived passing, and k-vs-printed "
        "marked printed-form-mismatch at residual 2"
    )


def test_criterion_10c_ricci_display(synthetic_outcomes):
    """The Ricci of the Gauss-equation reduction matches the re-derived form
    S = -eps trace(phi) Phi + (1-n) eta(x)eta within 1e-10 on all four
    configurations; the published display
    S = ((2-eps)(n-2) - n) g + (2-eps) trace(phi) Phi + eps(4-eps-n) eta(x)eta
    is reported printed-form-mismatch, and the published chain is
    self-consistent (its curvature display at k = 2 - eps contracts to its
    Ricci display) within 1e-10.

    No per-trial miss is asserted: the two forms coincide at eps = -1, n = 3,
    trace(phi) = 0, which some eps = -1, n = 3 trials draw."""
    ok = True
    for out in synthetic_outcomes.values():
        ok &= out.records["synthetic.ricci-vs-derived-form"].residual < 1e-10
        ok &= out.records["synthetic.ricci-vs-printed-form"].status == "printed-form-mismatch"
        ok &= out.records["synthetic.printed-chain-self-consistency"].residual < 1e-10
    assert _announce("10c (induced Ricci: derived form; printed display adjudicated)", ok), (
        "expected ricci-vs-derived-form below 1e-10, ricci-vs-printed-form marked "
        "printed-form-mismatch, and the printed chain self-consistent below 1e-10"
    )


def test_criterion_10_remaining_synthetic_invariants(synthetic_outcomes):
    """The portions of the synthetic check that do hold: the computed
    reduction matches the re-derived display identically in k, the recovered
    k is the same for every trial (every trial's k within 5e-13 of -eps, so
    any two within 1e-12), the computed Ricci is Einstein-like, and
    eps a + c = 1 - n."""
    ok = True
    for out in synthetic_outcomes.values():
        ok &= out.records["synthetic.gauss-vs-derived-display"].residual < 1e-10
        ok &= out.records["synthetic.k-vs-derived"].residual < 5e-13
        ok &= out.records["synthetic.einstein-like-fit"].residual < 1e-10
        ok &= out.records["synthetic.eps-a-plus-c"].residual < 1e-10
        ok &= out.records["synthetic.ricci-vs-derived-form"].residual < 1e-10
        ok &= out.records["synthetic.printed-chain-self-consistency"].residual < 1e-10
    assert _announce("10d (synthetic invariants that do hold)", ok)


def test_criterion_11_negative_controls():
    """N1 fails the structure suite (exit 1); F0 fails the R(X,Y)xi identity;
    a perturbed planted operator fails the quasi-umbilical check; every suite
    has at least one failing fixture."""
    cfg = RunConfig(points=30, seed=SEED)
    ok = run_suite(get_model("N1"), "structure", cfg).exit_code == EXIT_CHECK_FAILED
    f0_report = run_suite(get_model("F0"), "curvature", cfg)
    ok &= any(c.id == "curvature.r-xy-xi" and c.status == "fail" for c in f0_report.checks)
    perturbed = recorded(synthetic_gauss_check, 1, 3, trials=5, seed=SEED, perturb_a=5e-3)
    ok &= perturbed.records["synthetic.quasi-umbilical-exact"].residual > 1e-12
    per_suite = {
        "structure": run_suite(get_model("N1"), "structure", cfg).exit_code,
        "sasakian": run_suite(get_model("N1"), "sasakian", cfg).exit_code,
        "curvature": f0_report.exit_code,
        "einstein": run_suite(builtin_bundles()["E3b"], "einstein", cfg).exit_code,
        "lie": run_suite(get_model("F0"), "lie", cfg).exit_code,
        "hypersurface": run_suite(builtin_bundles()["B1"], "hypersurface all", cfg).exit_code,
        "synthetic": run_synthetic(RunConfig(seed=SEED, trials=3, epsilon=1, dim=3,
                                             perturb_a=5e-3)).exit_code,
    }
    ok &= all(code == EXIT_CHECK_FAILED for code in per_suite.values())
    assert _announce("11 (negative controls)", ok, extra=str(per_suite))


def test_criterion_12_determinism_and_interface(tmp_path):
    """Identical configs produce identical reports modulo engine-version and
    timestamp; a malformed manifest exits 2 with a position diagnostic."""
    def strip(doc_text):
        doc = json.loads(doc_text)
        doc.pop("engine_version", None)
        doc.pop("generated_at", None)
        return json.dumps(doc, sort_keys=True)

    cfg = RunConfig(points=40, seed=SEED)
    a = run_suite(get_model("E1"), "all", cfg).to_json()
    b = run_suite(get_model("E1"), "all", cfg).to_json()
    ok = strip(a) == strip(b)

    bad = tmp_path / "broken.json"
    bad.write_text('{"name": "m",\n "dim": }')
    proc = subprocess.run([sys.executable, "-m", "paracheck.cli", "check", str(bad)],
                          capture_output=True, text=True)
    ok &= proc.returncode == EXIT_INPUT_ERROR
    ok &= "line 2" in proc.stderr and "column" in proc.stderr
    assert _announce("12 (determinism + interface contract)", ok)


def test_runtime_budget():
    """Every suite completes in under 60 seconds at default sampling,
    including the five-dimensional models."""
    budget_ok = True
    timings = {}
    for name, suite in (("E1", "all"), ("E2", "all"), ("E3b", "all")):
        target = get_model(name) if name.startswith("E1") or name.startswith("E2") else builtin_bundles()[name]
        t0 = time.time()
        run_suite(target, suite, RunConfig(points=POINTS, seed=SEED))
        timings[f"{name}:{suite}"] = time.time() - t0
    t0 = time.time()
    run_suite(get_model("E1n5"), "all", RunConfig(points=POINTS, seed=SEED))
    timings["E1n5:all"] = time.time() - t0
    t0 = time.time()
    run_synthetic(RunConfig(seed=SEED, trials=100, epsilon=-1, dim=5))
    timings["synthetic(-1,5)"] = time.time() - t0
    budget_ok = all(dt < 60.0 for dt in timings.values())
    assert _announce("runtime (each suite < 60 s at 100 points)", budget_ok,
                     extra=str({k: f"{v:.1f}s" for k, v in timings.items()}))
