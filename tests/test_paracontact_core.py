"""Structure-axiom and defining-equation checks: the closed-form models pass
at tight tolerances, the planted-defect models fail exactly where they
should."""

import numpy as np
import pytest

from paracheck.geometry_engine import covariant_derivative
from paracheck.paracontact_core import (
    ParacontactStructure,
    apply_op,
    check_axioms,
    check_para_sasakian,
    check_ps_curvature_identities,
    pair,
    ps_curvature_gaps,
    residual_norm,
)
from paracheck.sampling import derive_rng, random_vectors, sample_points
from paracheck.hypersurface_lab import defining_equation_gap_per_point, evaluate_bundle, get_bundle


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
        res = check_axioms(e1, vectors(e1))
        assert res.passed
        assert max(c.residual for c in res.checks) < 1e-9

    def test_e2_all_axioms_tight(self, e2, vectors):
        res = check_axioms(e2, vectors(e2))
        assert res.passed
        assert max(c.residual for c in res.checks) < 1e-9

    def test_n1_fails_with_expected_magnitude(self, n1, vectors):
        """phi scaled by 1.01 leaves a phi^2 gap of about (1.01)^2 - 1 ~ 0.02
        before normalization."""
        res = check_axioms(n1, vectors(n1))
        assert not res.passed
        assert "phi-squared" in res.failed_names()
        assert 5e-3 < res.residual("phi-squared") < 5e-2

    def test_axiom_names_are_the_seven_displays(self, e1, vectors):
        res = check_axioms(e1, vectors(e1))
        assert [c.name for c in res.checks] == [
            "phi-squared", "eta-of-xi", "phi-of-xi", "eta-after-phi",
            "metric-compatibility", "phi-self-adjoint", "metric-xi-eta",
        ]


class TestCheckParaSasakian:
    def test_e1_e2_defining_equations(self, e1, e2, vectors):
        for s in (e1, e2):
            res = check_para_sasakian(s, vectors(s))
            assert res.passed
            assert max(c.residual for c in res.checks) < 1e-8

    def test_f0_fails(self, f0, vectors):
        res = check_para_sasakian(f0, vectors(f0))
        assert not res.passed
        assert "grad-xi" in res.failed_names()

    def test_n1_fails(self, n1, vectors):
        res = check_para_sasakian(n1, vectors(n1))
        assert not res.passed

    def test_cone_induced_structure_is_not_para_sasakian(self):
        """The cone's shape operator has eigenvalues {0, +-1/(t sqrt 2)}, so
        the defining-equation residual is bounded well away from zero at
        every sample point."""
        bundle = get_bundle("E3b")
        pts = sample_points(bundle.embedding.domain, 40, derive_rng(4, "E3b", "core"))
        data = evaluate_bundle(bundle, pts)
        vec = random_vectors(derive_rng(4, "E3b", "corev"), 40, 40, 3)
        rho = defining_equation_gap_per_point(data.structure, vec)
        assert float(np.min(rho)) > 0.1


class TestCurvatureIdentities:
    def test_e1_e2_all_four(self, e1, e2, vectors):
        for s in (e1, e2):
            res = check_ps_curvature_identities(s, vectors(s))
            assert res.passed
            assert max(c.residual for c in res.checks) < 1e-7

    def test_flat_formal_fails_r_identity(self, f0, vectors):
        """R = 0 on the flat chart, so R(X,Y)xi = eta(X)Y - eta(Y)X cannot
        hold; the residual is the size of the right side."""
        res = check_ps_curvature_identities(f0, vectors(f0))
        assert "r-xy-xi" in res.failed_names()

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

    def test_constructor_rejects_unnormalized_eta(self, e1):
        bad_eta = type(e1.eta)(e1.eta.dim, 0, 1, 2.0 * e1.eta.components, e1.eta.space)
        with pytest.raises(ValueError):
            ParacontactStructure(e1.points, 1, e1.g, e1.phi, e1.xi, bad_eta)


class TestNegativeControlDiscipline:
    def test_every_check_operation_fails_on_some_negative_model(self, n1, f0, vectors):
        """A check that cannot fail is a defect: each of the three operations
        must reject at least one planted-defect fixture."""
        assert not check_axioms(n1, vectors(n1)).passed
        assert not check_para_sasakian(f0, vectors(f0)).passed
        assert not check_ps_curvature_identities(f0, vectors(f0)).passed

    def test_gaps_exposed_for_suite_reuse(self, e1, vectors):
        gaps = ps_curvature_gaps(e1, vectors(e1))
        assert set(gaps) == {"r-xy-xi", "r-xy-phi-z", "ricci-phi-symmetric", "ricci-xi"}
