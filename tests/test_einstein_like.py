"""Einstein-like fit and every consequence: rank-aware least squares with
golden coefficients, the coefficient constraints, the scalar-curvature ODE,
the trace formula, the contraction-tensor decomposition with its two
coefficient variants, and the Lie-derivative displays."""

import numpy as np
import pytest

from paracheck.einstein_like import (
    compute_c11_phi_r,
    fit_einstein_like,
    verify_c11_decomposition,
    verify_c11_identities,
    verify_coefficient_constraints,
    verify_lie_c11,
    verify_lie_formulas,
    verify_lie_ricci,
    verify_scalar_ode,
    verify_trace_formula,
)
from paracheck.hypersurface_lab import evaluate_bundle, get_bundle
from paracheck.models import get_model
from paracheck.report import StructureCheckResult
from paracheck.sampling import derive_rng, sample_points
from paracheck.suites import RunConfig, run_suite

from pointwise import random_pointwise_structure

MIN_NORM_E1 = np.array([-4.0 / 3.0, 2.0 / 3.0, -2.0 / 3.0])
FAMILY_DIR = np.array([1.0, 1.0, -1.0]) / np.sqrt(3.0)


def _unit(v):
    return v / np.linalg.norm(v)


def _fit_inputs(s):
    """(g, Phi, eta, S) values of a structure, one row per sample point."""
    return s.g0, s.Phi0, s.eta0, s.curvature.ricci.components[..., 0]


def _fit(s):
    return fit_einstein_like(*_fit_inputs(s))


def _merged(*results):
    out = StructureCheckResult()
    for r in results:
        out.checks += r.checks
    return out


def _c11_records(fit, c11, s):
    """Every einstein record on C11(phi R) of a para-Sasakian structure."""
    return _merged(verify_c11_identities(c11, s), verify_c11_decomposition(fit, c11, s))


def _lie_records(fit, s):
    """Every lie record of a para-Sasakian structure with constant trace(phi)."""
    return _merged(verify_lie_formulas(s), verify_lie_ricci(fit, s),
                   verify_lie_c11(fit, compute_c11_phi_r(s), s))


class TestFit:
    def test_e1_golden_fit(self, e1):
        fit = _fit(e1)
        assert fit.gram_rank == 2
        assert fit.min_norm == pytest.approx(MIN_NORM_E1, abs=1e-9)
        assert fit.residual < 1e-9
        assert len(fit.family) == 1
        d = _unit(fit.family[0])
        assert min(np.max(np.abs(d - FAMILY_DIR)), np.max(np.abs(d + FAMILY_DIR))) < 1e-9

    def test_e2_fit(self, e2):
        fit = _fit(e2)
        assert fit.gram_rank == 2
        assert fit.min_norm == pytest.approx([4.0 / 3.0, 2.0 / 3.0, -2.0 / 3.0], abs=1e-9)

    def test_planted_rank3_recovery(self, rng):
        """S := 2 g + 5 Phi - eta(x)eta with Phi independent of g and
        eta(x)eta recovers the planted triple exactly."""
        draws = [random_pointwise_structure(rng, 4, 1, plus_dim=2) for _ in range(4)]
        g, phi, xi, eta = (np.stack(arrays) for arrays in zip(*draws))
        Phi = np.swapaxes(phi, 1, 2) @ g
        S = 2.0 * g + 5.0 * Phi - np.einsum('pa,pb->pab', eta, eta)
        fit = fit_einstein_like(g, Phi, eta, S)
        assert fit.gram_rank == 3
        assert len(fit.family) == 0
        assert fit.min_norm == pytest.approx([2.0, 5.0, -1.0], abs=1e-10)

    def test_cone_is_not_einstein_like(self):
        """The cone's Ricci scales like 1/t^2, so no constant triple fits;
        brute force over the stacked system bounds the best residual away
        from zero."""
        bundle = get_bundle("E3b")
        pts = sample_points(bundle.embedding.domain, 12, derive_rng(6, "E3b", "elpts"))
        data = evaluate_bundle(bundle, pts)
        fit = _fit(data.structure)
        assert fit.residual > 1e-3
        # independent brute force: normal equations on the stacked system
        rows = []
        rhs = []
        for g, Phi, eta, S in zip(*_fit_inputs(data.structure)):
            rows.append(np.column_stack([g.ravel(), Phi.ravel(), np.outer(eta, eta).ravel()]))
            rhs.append(S.ravel())
        M = np.vstack(rows)
        y = np.concatenate(rhs)
        best = np.linalg.solve(M.T @ M + 1e-14 * np.eye(3), M.T @ y)
        assert np.max(np.abs(M @ best - y)) > 1e-3

    def test_reconstruction_for_every_member(self, e1):
        """Every family member reproduces S within the reported residual."""
        fit = _fit(e1)
        g, Phi, eta, S = _fit_inputs(e1)
        ee = np.einsum('pa,pb->pab', eta, eta)
        for a, b, c in fit.members():
            assert np.max(np.abs(a * g + b * Phi + c * ee - S)) <= fit.residual + 1e-10

    def test_split_sample_stability(self, e1):
        fa, fb = (fit_einstein_like(*(x[k::2] for x in _fit_inputs(e1))) for k in (0, 1))
        assert fa.gram_rank == fb.gram_rank == 2
        assert np.max(np.abs(fa.min_norm - fb.min_norm)) < 1e-6


class TestCoefficientConstraints:
    def test_e1_constraint_arithmetic(self, e1):
        """eps a + c = -4/3 - 2/3 = -2 = 1 - n, and r = 3a + b tr(phi) + eps c
        = -6, for all family members."""
        fit = _fit(e1)
        assert verify_coefficient_constraints(fit, e1).passed
        res = verify_scalar_ode(fit, e1)
        assert res.passed
        assert res.residual("einstein.eps-a-plus-c") < 1e-9
        a, b, c = fit.min_norm
        assert a + c == pytest.approx(-2.0, abs=1e-9)
        assert 3 * a + b * (-2.0) + c == pytest.approx(-6.0, abs=1e-9)

    def test_e2_constraint(self, e2):
        fit = _fit(e2)
        assert verify_coefficient_constraints(fit, e2).passed
        res = verify_scalar_ode(fit, e2)
        assert res.passed
        assert res.residual("einstein.eps-a-plus-c") < 1e-8
        a, b, c = fit.min_norm
        assert -a + c == pytest.approx(-2.0, abs=1e-9)

    def test_gating_when_not_para_sasakian(self):
        report = run_suite(get_model("F0"), "einstein", RunConfig(points=20, seed=7))
        rec = {c.id: c for c in report.checks}
        for name in ("eps-a-plus-c", "scalar-curvature-formula"):
            assert rec[f"einstein.{name}"].status == "not-applicable"
            assert rec[f"einstein.{name}"].detail.startswith("gate para-sasakian: ")
        # the two algebraic displays hold for any exact fit
        assert rec["einstein.ricci-phi-display"].status == "pass"
        assert rec["einstein.ricci-xi-display"].status == "pass"


class TestScalarOde:
    def test_e1_ode_values(self, e1):
        """For the minimum-norm member b xi(r) - 2 c r = -8 and the right
        side 2 eps (1-n)(b^2 - c^2 - c n) = -8."""
        fit = _fit(e1)
        a, b, c = fit.min_norm
        r = float(e1.curvature.scalar[0, 0])
        xir = float(np.einsum('a,a->', e1.curvature.dr[0], e1.xi0[0]))
        lhs = b * xir - 2 * c * r
        rhs = 2 * 1 * (1 - 3) * (b**2 - c**2 - c * 3)
        assert lhs == pytest.approx(-8.0, abs=1e-8)
        assert rhs == pytest.approx(-8.0, abs=1e-12)
        res = verify_scalar_ode(fit, e1)
        assert res.passed
        assert res.residual("einstein.scalar-ode") < 1e-8

    def test_e1_div_q_coefficient_vanishes(self, e1):
        """eps(1-n) b + c tr(phi) = -2(2/3) + (-2/3)(-2) = 0, matching
        div Q = 0 on the constant-curvature model."""
        fit = _fit(e1)
        a, b, c = fit.min_norm
        assert (1 - 3) * b + c * (-2.0) == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(e1.curvature.div_q)) < 1e-7
        res = verify_scalar_ode(fit, e1)
        assert res.residual("einstein.div-q-display") < 1e-7

    def test_e2_ode(self, e2):
        fit = _fit(e2)
        res = verify_scalar_ode(fit, e2)
        assert res.passed

    def test_gated_when_not_para_sasakian(self):
        report = run_suite(get_model("F0"), "einstein", RunConfig(points=20, seed=7))
        ode = [c for c in report.checks if c.id.split(".")[1] in (
            "eps-a-plus-c", "scalar-curvature-formula", "ricci-operator-derivative",
            "div-q-display", "scalar-curvature-constant", "dr-display", "scalar-ode")]
        assert len(ode) == 7
        assert all(c.status == "not-applicable" for c in ode)
        assert all(c.detail.startswith("gate para-sasakian: defining-equation residual ") for c in ode)


class TestTraceFormula:
    def test_e1_golden(self, e1):
        """tr(phi) = -2 and eps(n-1) b / c = 2 (2/3)/(-2/3) = -2 for every
        member with c != 0."""
        fit = _fit(e1)
        assert e1.trace_phi()[0] == pytest.approx(-2.0, abs=1e-12)
        res = verify_trace_formula(fit, e1)
        assert res.passed
        assert res.residual("einstein.trace-phi-formula") < 1e-8

    def test_degenerate_member_skipped(self, e1):
        """The family member with t chosen so that b = c = 0 is excluded by
        the division guard."""
        fit = _fit(e1)
        # family direction (1,1,-1)/sqrt(3): t = -b*sqrt(3) makes b = c = 0
        t = -fit.b * np.sqrt(3.0)
        member = fit.min_norm + t * fit.family[0]
        assert member[1] == pytest.approx(0.0, abs=1e-12)
        assert member[2] == pytest.approx(0.0, abs=1e-12)
        res = verify_trace_formula(fit, e1)
        assert res.passed  # remaining members carry the check

    def test_vacuous_when_all_members_degenerate(self, f0):
        """On the flat formal model the fit family passes through c = 0 at
        the minimum-norm member (S = 0), so every checked member is
        degenerate and the check reports vacuous."""
        fit = _fit(f0)
        assert fit.min_norm == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
        res = verify_trace_formula(fit, f0)
        statuses = {c.status for c in res.checks}
        assert statuses <= {"vacuous", "pass"}

    def test_inconsistent_plant_fails(self, rng):
        """A rank-3 synthetic plant whose trace does not satisfy the formula
        must fail the check."""
        g, phi, xi, eta = random_pointwise_structure(rng, 4, 1, plus_dim=2)
        Phi = phi.T @ g
        a, b, c = 2.0, 5.0, -1.0
        S = a * g + b * Phi + c * np.outer(eta, eta)
        fit = fit_einstein_like(*(np.stack([x] * 3) for x in (g, Phi, eta, S)))

        class FakeStruct:
            dim = 4
            epsilon = 1

            def trace_phi(self):
                return np.array([float(np.trace(phi))] * 3)

        res = verify_trace_formula(fit, FakeStruct())
        # trace(phi) = 0 here while eps(n-1) b/c = -15, so the check fails
        assert not res.passed


class TestC11:
    def test_e1_c11_is_g_plus_eta_eta(self, e1):
        c11 = compute_c11_phi_r(e1)
        ee = np.einsum('pa,pb->pab', e1.eta0, e1.eta0)
        assert np.max(np.abs(c11.values - e1.g0 - ee)) < 1e-8

    def test_symmetry(self, e1, e2):
        for s in (e1, e2):
            assert verify_c11_identities(compute_c11_phi_r(s), s).residual("einstein.c11-symmetric") < 1e-9

    def test_s_phi_z_display(self, e1):
        res = verify_c11_identities(compute_c11_phi_r(e1), e1)
        assert res.residual("einstein.s-phi-z-display") < 1e-8

    def test_decomposition_adjudication_on_e1(self, e1):
        """Minimum-norm member: the re-derived coefficient reproduces
        C11 = g + eta(x)eta; the printed one misses by eps(1-b) = 1/3 on the
        eta(x)eta block."""
        fit = _fit(e1)
        c11 = compute_c11_phi_r(e1)
        res = verify_c11_decomposition(fit, c11, e1)
        assert res.residual("einstein.c11-decomposition-derived") < 1e-7
        assert res.get("einstein.c11-decomposition-printed").status == "printed-form-mismatch"
        a, b, c = fit.min_norm
        n, eps = 3, 1
        g, eta = e1.g0, e1.eta0
        ee = np.einsum('pa,pb->pab', eta, eta)
        common = (b / c) * (c + n - 1) * g + (a - eps * (n - 2)) * e1.Phi0
        printed = common - (eps / c) * (c + 2 * b * (n - 1)) * ee
        gap = c11.values - printed
        expected = eps * (1 - b) * ee  # = (1/3) eta(x)eta
        assert np.max(np.abs(gap - expected)) < 1e-8
        assert abs(eps * (1 - b) - 1.0 / 3.0) < 1e-12

    def test_derived_form_is_family_invariant(self, e1):
        fit = _fit(e1)
        c11 = compute_c11_phi_r(e1)
        n, eps = 3, 1
        g, eta = e1.g0, e1.eta0
        ee = np.einsum('pa,pb->pab', eta, eta)
        for a, b, c in fit.members():
            if abs(c) < 1e-8:
                continue
            derived = ((b / c) * (c + n - 1) * g + (a - eps * (n - 2)) * e1.Phi0
                       - (eps * b / c) * (c + 2 * (n - 1)) * ee)
            assert np.max(np.abs(c11.values - derived)) < 1e-8

    def test_parallel_along_xi(self, e1):
        fit = _fit(e1)
        res = verify_c11_decomposition(fit, compute_c11_phi_r(e1), e1)
        assert res.residual("einstein.c11-parallel-along-xi") < 1e-7


class TestLieFormulas:
    def test_e1_all_printed_forms_hold(self, e1):
        """At eps = +1 the printed and re-derived variants coincide, so
        everything passes."""
        fit = _fit(e1)
        res = _lie_records(fit, e1)
        assert res.passed
        assert all(c.status == "pass" for c in res.checks)
        assert max(c.residual for c in res.checks) < 1e-8

    def test_e2_printed_form_mismatches(self, e2):
        """At eps = -1: L_xi Phi = -2(g + eta(x)eta) matches the re-derived
        form and misses the printed one by exactly 4 eta(x)eta."""
        fit = _fit(e2)
        res = _lie_records(fit, e2)
        assert res.residual("lie.lie-phi-form-derived") < 1e-8
        assert res.get("lie.lie-phi-form-printed").status == "printed-form-mismatch"
        assert res.get("lie.lie-c11-printed").status == "printed-form-mismatch"
        from paracheck.geometry_engine import lie_derivative

        LPhi = lie_derivative(e2.Phi.components[..., 0], e2._nabla(e2.Phi), e2.xi0, e2.nabla_xi)
        ee = np.einsum('pa,pb->pab', e2.eta0, e2.eta0)
        printed = 2 * (-1) * (e2.g0 - ee)
        # the miss is exactly 4 eta(x)eta componentwise (derived - printed = -4 eta(x)eta)
        assert np.max(np.abs(LPhi - printed + 4.0 * ee)) < 1e-8

    def test_lie_eta_vanishes(self, e1, e2):
        for s in (e1, e2):
            res = verify_lie_formulas(s)
            assert res.residual("lie.lie-eta") < 1e-10

    def test_f0_fails_lie_g(self):
        report = run_suite(get_model("F0"), "lie", RunConfig(points=20, seed=7))
        status = {c.id: c.status for c in report.checks}
        assert status["lie.lie-g"] == "fail"
        for cid in ("lie.lie-ricci", "lie.lie-c11-derived", "lie.lie-c11-printed"):
            assert status[cid] == "not-applicable"
        assert all(c.detail.startswith("gate para-sasakian: ")
                   for c in report.checks if c.status == "not-applicable")


class TestRepresentationIndependence:
    def test_member_free_checks_do_not_depend_on_the_member(self, e1):
        """Checks stated without reference to (a, b, c) give identical
        residuals whatever member is chosen: they never consult the fit."""
        fit = _fit(e1)
        c11 = compute_c11_phi_r(e1)
        res1 = _c11_records(fit, c11, e1)
        shifted = type(fit)(a=fit.a + fit.family[0][0], b=fit.b + fit.family[0][1],
                            c=fit.c + fit.family[0][2], residual=fit.residual,
                            gram_rank=fit.gram_rank, family=fit.family)
        res2 = _c11_records(shifted, c11, e1)
        assert res1.residual("einstein.s-phi-z-display") == res2.residual("einstein.s-phi-z-display")
        assert res1.residual("einstein.c11-symmetric") == res2.residual("einstein.c11-symmetric")

    def test_family_invariance_of_constraints(self, e1, e2):
        """eps a + c, the ODE, and the trace formula hold for all members at
        t in {-1, 0, 1}."""
        for s in (e1, e2):
            fit = _fit(s)
            assert verify_scalar_ode(fit, s).residual("einstein.eps-a-plus-c") < 1e-9
            assert verify_scalar_ode(fit, s).residual("einstein.scalar-ode") < 1e-8
            assert verify_trace_formula(fit, s).passed
