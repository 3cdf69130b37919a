"""Structure-axiom and defining-equation checks: the closed-form models pass
at tight tolerances, the planted-defect models fail exactly where they
should."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paracheck.geometry_engine import covariant_derivative
from paracheck.models import evaluate_structure, get_model
from paracheck.paracontact_core import (
    ParacontactStructure,
    VectorPairs,
    apply_op,
    check_axioms,
    check_para_sasakian,
    check_ps_curvature_identities,
    form,
    pair,
)
from paracheck.report import CHECKS, StructureCheckResult, residual_norm
from paracheck.sampling import derive_rng, random_vectors, sample_points
from paracheck.hypersurface_lab import builtin_bundles, evaluate_bundle

from records import passed, recorded


_P, _V, _N = 4, 6, 5
_VALUE_HELPERS = {
    # name: (helper, the plain einsum it stages, operand shapes)
    "phi X": (apply_op, "pab,pvb->pva", [(_P, _N, _N), (_P, _V, _N)]),
    "(nabla_X phi) Y": (apply_op, "paib,pvi,pvb->pva", [(_P, _N, _N, _N), (_P, _V, _N), (_P, _V, _N)]),
    "R(X, Y) Z": (apply_op, "plijk,pvi,pvj,pvk->pvl", [(_P,) + (_N,) * 4] + [(_P, _V, _N)] * 3),
    "R(X, Y) xi": (lambda R, X, Y, xi: apply_op(R, X, Y, xi[:, None]), "plijk,pvi,pvj,pk->pvl",
                   [(_P,) + (_N,) * 4, (_P, _V, _N), (_P, _V, _N), (_P, _N)]),
    "g(X, Y)": (pair, "pab,pva,pvb->pv", [(_P, _N, _N), (_P, _V, _N), (_P, _V, _N)]),
    "g(X, xi)": (lambda g, X, xi: pair(g, X, xi[:, None]), "pab,pva,pb->pv", [(_P, _N, _N), (_P, _V, _N), (_P, _N)]),
}


@pytest.mark.parametrize("name", list(_VALUE_HELPERS))
def test_value_helpers_match_their_einsum(name):
    """Each staged value contraction equals the plain einsum string it
    replaces, within 1e-13 of the largest entry."""
    helper, subscripts, shapes = _VALUE_HELPERS[name]
    rng = np.random.default_rng(5)
    args = [rng.standard_normal(shape) for shape in shapes]
    ref = np.einsum(subscripts, *args)
    got = helper(*args)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestCheckAxioms:
    def test_e1_all_axioms_tight(self, e1, vectors):
        res = recorded(check_axioms, VectorPairs(e1, vectors(e1)))
        assert passed(res)
        assert max(c.residual for c in res.records.values()) < 1e-9

    def test_e2_all_axioms_tight(self, e2, vectors):
        res = recorded(check_axioms, VectorPairs(e2, vectors(e2)))
        assert passed(res)
        assert max(c.residual for c in res.records.values()) < 1e-9

    def test_n1_fails_with_expected_magnitude(self, n1, vectors):
        """phi scaled by 1.01 leaves a phi^2 gap of about (1.01)^2 - 1 ~ 0.02
        before normalization."""
        res = recorded(check_axioms, VectorPairs(n1, vectors(n1)))
        assert not passed(res)
        assert "structure.phi-squared" in [c.id for c in res.records.values() if c.status == "fail"]
        assert 5e-3 < res.records["structure.phi-squared"].residual < 5e-2

    def test_axiom_names_are_the_seven_displays(self, e1, vectors):
        res = recorded(check_axioms, VectorPairs(e1, vectors(e1)))
        assert [c.id for c in res.records.values()] == [f"structure.{name}" for name in (
            "phi-squared", "eta-of-xi", "phi-of-xi", "eta-after-phi",
            "metric-compatibility", "phi-self-adjoint", "metric-xi-eta",
        )]


class TestCheckParaSasakian:
    def test_e1_e2_defining_equations(self, e1, e2, vectors):
        for s in (e1, e2):
            res = recorded(check_para_sasakian, VectorPairs(s, vectors(s)))
            assert passed(res)
            assert max(c.residual for c in res.records.values()) < 1e-8

    def test_f0_fails(self, f0, vectors):
        res = recorded(check_para_sasakian, VectorPairs(f0, vectors(f0)))
        assert not passed(res)
        assert "sasakian.grad-xi" in [c.id for c in res.records.values() if c.status == "fail"]

    def test_n1_fails(self, n1, vectors):
        res = recorded(check_para_sasakian, VectorPairs(n1, vectors(n1)))
        assert not passed(res)

    def test_cone_induced_structure_is_not_para_sasakian(self):
        """The cone's shape operator has eigenvalues {0, +-1/(t sqrt 2)}, so
        the defining-equation residual is bounded well away from zero at
        every sample point."""
        bundle = builtin_bundles()["E3b"]
        pts = sample_points(bundle.embedding.domain, 40, derive_rng(4, "E3b", "core"))
        data = evaluate_bundle(bundle, pts)
        vec = random_vectors(derive_rng(4, "E3b", "corev"), 40, 40, 3)
        rho = VectorPairs(data.structure, vec).rho1
        assert float(np.min(rho)) > 0.1


class TestCurvatureIdentities:
    def test_e1_e2_all_four(self, e1, e2, vectors):
        for s in (e1, e2):
            res = recorded(check_ps_curvature_identities, VectorPairs(s, vectors(s)))
            assert passed(res)
            assert max(c.residual for c in res.records.values()) < 1e-7

    def test_flat_formal_fails_r_identity(self, f0, vectors):
        """R = 0 on the flat chart, so R(X,Y)xi = eta(X)Y - eta(Y)X cannot
        hold; the residual is the size of the right side."""
        res = recorded(check_ps_curvature_identities, VectorPairs(f0, vectors(f0)))
        assert "curvature.r-xy-xi" in [c.id for c in res.records.values() if c.status == "fail"]

    def test_closed_form_oracle_constant_curvature(self, e1, e2, vectors):
        """Substituting R(X,Y)Z = -eps (g(Y,Z)X - g(X,Z)Y), the closed form
        of the half-space curvature, must reproduce the engine's residuals."""
        for s in (e1, e2):
            cur = s.curvature
            R = cur.riemann_ud.components[..., 0]
            closed = -s.epsilon * (
                np.einsum('pjk,li->plijk', s.g0, np.eye(3))
                - np.einsum('pik,lj->plijk', s.g0, np.eye(3))
            )
            assert np.max(np.abs(R - closed)) < 1e-10


def _curvature_identities_by_three_contractions(res: StructureCheckResult, v: VectorPairs):
    """The four curvature identities with R(X, Y) xi, R(X, Y) phi Z and
    R(X, Y) Z each a contraction apply_op(R, X, Y, .) of its own: the
    reference for check_ps_curvature_identities, which shares one R(X, Y)."""
    s = v.struct
    eps, n = s.epsilon, s.dim
    R = s.curvature.riemann_ud.components[..., 0]
    S = s.curvature.ricci.components[..., 0]
    phi, xi, eta, g, Phi = s.phi0, s.xi0, s.eta0, s.g0, s.Phi0
    X, Y, Z = v.X, v.Y, np.roll(v.Y, 1, axis=1)
    phiX, phiY, phiZ = (apply_op(phi, W) for W in (X, Y, Z))
    RXYxi = apply_op(R, X, Y, xi[:, None])
    tgt = form(eta, X)[..., None] * Y - form(eta, Y)[..., None] * X
    res.add("curvature.r-xy-xi", RXYxi - tgt, RXYxi, tgt, X, Y)
    RXYphiZ = apply_op(R, X, Y, phiZ)
    PhiYZ, PhiXZ = pair(Phi, Y, Z)[..., None], pair(Phi, X, Z)[..., None]
    etaX, etaY, etaZ = (form(eta, W)[..., None] for W in (X, Y, Z))
    gYZ, gXZ = pair(g, Y, Z)[..., None], pair(g, X, Z)[..., None]
    xi_b = xi[:, None, :]
    rhs = (apply_op(phi, apply_op(R, X, Y, Z)) + eps * PhiYZ * X - eps * PhiXZ * Y
           - 2 * eps * PhiYZ * etaX * xi_b + 2 * eps * PhiXZ * etaY * xi_b
           - eps * gYZ * phiX + eps * gXZ * phiY
           + 2 * etaY * etaZ * phiX - 2 * etaX * etaZ * phiY)
    res.add("curvature.r-xy-phi-z", RXYphiZ - rhs, RXYphiZ, rhs, X, Y, Z)
    res.add("curvature.ricci-phi-symmetric", pair(S, X, phiY) - pair(S, phiX, Y), pair(S, X, phiY))
    SXxi = pair(S, X, xi[:, None])
    res.add("curvature.ricci-xi", SXxi + (n - 1) * form(eta, X), SXxi)


def test_shared_r_xy_matches_three_contractions():
    """On E1n5, the cone E3b and the negative controls N1 and F0, every
    curvature record and status computed from the pairs' one R(X, Y) equals
    the three-contraction reference within 1e-13 (residuals are already
    relative to the identity's scale), and each R(X, Y) W within 1e-13 of
    the largest entry, on passing and failing rows alike."""
    statuses = set()
    for name in ("E1n5", "E3b", "N1", "F0"):
        if name == "E3b":
            bundle = builtin_bundles()[name]
            pts = sample_points(bundle.embedding.domain, 12, derive_rng(42, name, "points"))
            struct = evaluate_bundle(bundle, pts, 2).structure
        else:
            model = get_model(name)
            struct = evaluate_structure(model, sample_points(model.domain, 12, derive_rng(42, name, "points")), 2)
        v = VectorPairs(struct, random_vectors(derive_rng(42, name, "vectors"), 12, 40, struct.dim))
        got, ref = (recorded(check, v).records.values()
                    for check in (check_ps_curvature_identities, _curvature_identities_by_three_contractions))
        assert [(c.id, c.status) for c in got] == [(c.id, c.status) for c in ref]
        for c, r in zip(got, ref):
            assert abs(c.residual - r.residual) <= 1e-13 * max(1.0, r.residual), (name, c.id)
        statuses |= {c.status for c in got}
        R = struct.curvature.riemann_ud.components[..., 0]
        for W in (struct.xi0[:, None], apply_op(struct.phi0, v.Z), v.Z):
            want = apply_op(R, v.X, v.Y, W)
            assert np.max(np.abs((v.R @ W[..., None])[..., 0] - want)) <= 1e-13 * np.max(np.abs(want)), name
    assert statuses == {"pass", "fail"}


class TestStructureInvariants:
    def test_phi_symmetry_of_fundamental_form(self, e1, e2):
        for s in (e1, e2):
            Phi = s.Phi0
            assert residual_norm(Phi - np.swapaxes(Phi, 1, 2), Phi) < 1e-9

    def test_grad_phi_along_xi_vanishes(self, e1, e2):
        """nabla_xi phi = 0 follows from the defining equation at X = xi."""
        for s in (e1, e2):
            nphi = covariant_derivative(s.phi, s.connection).components[..., 0]
            along_xi = np.einsum('paib,pi->pab', nphi, s.xi0)
            assert np.max(np.abs(along_xi)) < 1e-8

    def test_constructor_rejects_bad_epsilon(self, e1):
        with pytest.raises(ValueError):
            ParacontactStructure(e1.points, 2, e1.g, e1.phi, e1.xi, e1.eta)

    @pytest.mark.parametrize("xi_scale,eta_scale,invariant", [
        ("1", "2", "eta(xi) = 1"),
        ("2", "0.5", "g(xi,xi) = eps (xi must not be lightlike)"),
    ], ids=["unnormalized-eta", "xi-of-length-2"])
    def test_evaluate_structure_rejects_a_broken_invariant(self, xi_scale, eta_scale, invariant):
        """eta(xi) = 1 and g(xi, xi) = eps are checked where a chart's fields
        are evaluated, naming the first of the request's points."""
        model = get_model("E1")
        model.xi = [s if s == "0" else f"{xi_scale}*({s})" for s in model.xi]
        model.eta = [s if s == "0" else f"{eta_scale}*({s})" for s in model.eta]
        points = np.array([[0.5, 0.0, 1.0], [-1.0, 1.0, 2.0]])
        with pytest.raises(ValueError) as err:
            evaluate_structure(model, points, 0)
        assert str(err.value) == f"structure invariant {invariant} violated at point (0.5, 0.0, 1.0)"


class TestNegativeControlDiscipline:
    def test_every_check_operation_fails_on_some_negative_model(self, n1, f0, vectors):
        """A check that cannot fail is a defect: each of the three operations
        must reject at least one planted-defect fixture."""
        assert not passed(recorded(check_axioms, VectorPairs(n1, vectors(n1))))
        assert not passed(recorded(check_para_sasakian, VectorPairs(f0, vectors(f0))))
        assert not passed(recorded(check_ps_curvature_identities, VectorPairs(f0, vectors(f0))))

    def test_curvature_check_records_the_four_identities(self, e1, vectors):
        ids = [c.id for c in recorded(check_ps_curvature_identities, VectorPairs(e1, vectors(e1))).records.values()]
        assert sorted(ids) == ["curvature.r-xy-phi-z", "curvature.r-xy-xi", "curvature.ricci-phi-symmetric",
                               "curvature.ricci-xi"]


class TestOneResidualRule:
    """residual_norm is the one residual rule: the per-point form the
    characterization reads and the whole form a record reads are one rule."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), shape=st.sampled_from([(4, 3, 5), (1, 6, 2), (7, 1, 1)]),
           ninputs=st.integers(0, 3), axis=st.sampled_from([(1, 2), 1, 2, (0, 2)]))
    def test_max_of_per_point_values_is_the_whole_residual(self, seed, shape, ninputs, axis):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-8, 8, size=ninputs + 1)
        gap = scale[0] * rng.standard_normal(shape)
        inputs = [s * rng.standard_normal(shape[:rng.integers(1, 4)]) for s in scale[1:]]
        whole = residual_norm(gap, *inputs)
        per_point = residual_norm(gap, *inputs, axis=axis)
        assert np.max(per_point) == whole

    def test_nan_input_makes_every_per_point_value_nan(self, rng):
        gap = rng.standard_normal((5, 4, 3))
        x = rng.standard_normal((5, 3))
        x[3, 1] = np.nan
        assert np.isnan(residual_norm(gap, gap, x, axis=(1, 2))).all()
        assert np.isnan(residual_norm(gap, x))

    def test_defining_equation_per_point_max_is_its_record(self, e1, n1, f0, vectors):
        b = builtin_bundles()["E3b"]
        e3b = evaluate_bundle(b, sample_points(b.embedding.domain, 12, derive_rng(42, "E3b", "points"))).structure
        for s in (e1, n1, f0, e3b):
            vec = vectors(s)
            record = recorded(check_para_sasakian, VectorPairs(s, vec)).records["sasakian.defining-equation"].residual
            assert VectorPairs(s, vec).rho1.max() == record

    def test_record_without_inputs_reads_max_gap(self, rng):
        gap = rng.standard_normal((6, 3, 3))
        res = StructureCheckResult()
        res.add("hypersurface.quasi-umbilical", gap, detail="d")
        res.add("hypersurface.characterization-iff", np.sum(gap > 0))
        res.add("einstein.fit-stability", 0.0, detail="too few samples to split", status="not-applicable")
        quasi, iff, stability = res.records.values()
        assert quasi.residual == np.max(np.abs(gap))
        assert (quasi.anchor, quasi.tolerance, quasi.status, quasi.detail) == (
            CHECKS["hypersurface.quasi-umbilical"].anchor, 1e-9, "fail", "d")
        assert iff.residual == float(np.sum(gap > 0)) and iff.status == "fail"
        assert (stability.residual, stability.tolerance, stability.status) == (0.0, 0.0, "not-applicable")

    def test_phi0_and_eta_eta_are_computed_once(self, e1):
        assert e1.Phi0 is e1.Phi0
        assert e1.ee0 is e1.ee0
        assert np.array_equal(e1.ee0, np.einsum('pa,pb->pab', e1.eta0, e1.eta0))
