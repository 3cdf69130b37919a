"""Engine tests: golden Christoffels, curvature on the constant-curvature
models with the finite-difference pipeline as the oracle, covariant and Lie
derivative identities, the curvature invariants, and the flat route a
constant metric takes."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from paracheck.einstein_like import compute_c11_phi_r
from paracheck.expr_jet import JetSpace
from paracheck.geometry_engine import (
    InsufficientOrderError,
    christoffel,
    covariant_derivative,
    curvature,
    lie_derivative,
)
from paracheck.hypersurface_lab import builtin_bundles, evaluate_bundle
from paracheck.manifest import load_manifest
from paracheck.models import ManifoldModel, _eval_grid, _half_space_model, evaluate_structure, get_model
from paracheck.sampling import derive_rng, sample_points
from paracheck.tensor_algebra import TensorValue

from fd_oracle import (
    fd_christoffel,
    fd_curvature_package,
    fd_grad_vector_field,
    fundamental_form_jets,
    lie_derivative_by_partials,
    metric_fn,
    vector_fn,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _metric_jets(model, pts, order=4):
    space = JetSpace.get(model.dim, order)
    comps = _eval_grid(model.metric, model.coords, space, space.point_jets(pts), pts, "metric")
    return TensorValue(model.dim, 0, 2, comps, space)


def _lie(T, X, conn):
    """Values of L_X T from the values of T, X and their covariant derivatives."""
    return lie_derivative(T.components[..., 0], covariant_derivative(T, conn).components[..., 0],
                          X.components[..., 0], covariant_derivative(X, conn).components[..., 0])


def _half_plane_2d():
    return ManifoldModel(
        name="H2", dim=2, coords=["x", "y"], epsilon=1, index=0,
        metric=[["1/(y^2)", "0"], ["0", "1/(y^2)"]],
        domain=[(-2.0, 2.0), (0.5, 3.0)],
    )


class TestChristoffel:
    def test_half_plane_golden_values(self):
        """Hyperbolic plane at (0, 2): the three nonzero symbols are
        -1/y, 1/y, -1/y evaluated at y = 2, cross-checked against the
        finite-difference oracle."""
        model = _half_plane_2d()
        pts = np.array([[0.0, 2.0]])
        conn = christoffel(_metric_jets(model, pts))
        gam = conn.gamma.components[0, ..., 0]
        assert gam[0, 0, 1] == pytest.approx(-0.5, abs=1e-12)  # x_xy
        assert gam[1, 0, 0] == pytest.approx(0.5, abs=1e-12)   # y_xx
        assert gam[1, 1, 1] == pytest.approx(-0.5, abs=1e-12)  # y_yy
        fd = fd_christoffel(metric_fn(model), np.array([0.0, 2.0]))
        assert np.allclose(gam, fd, atol=1e-6)

    def test_flat_metric_vanishes(self):
        model = get_model("F0")
        pts = np.array([[0.3, -0.4, 1.1]])
        conn = christoffel(_metric_jets(model, pts))
        assert np.max(np.abs(conn.gamma.components)) == 0.0

    def test_e2_timelike_symbol(self):
        model = get_model("E2")
        pts = np.array([[0.3, -0.2, 1.0]])
        conn = christoffel(_metric_jets(model, pts))
        gam = conn.gamma.components[0, ..., 0]
        assert gam[2, 0, 0] == pytest.approx(-1.0, abs=1e-12)
        fd = fd_christoffel(metric_fn(model), pts[0])
        assert np.allclose(gam, fd, atol=1e-6)

    def test_symmetry_in_lower_slots(self, e1):
        gam = e1.connection.gamma.components
        assert np.max(np.abs(gam - np.swapaxes(gam, 2, 3))) == 0.0


class TestCurvature:
    @pytest.mark.parametrize("name,factor,r_expected", [("E1", -2.0, -6.0), ("E2", 2.0, 6.0)])
    def test_constant_curvature_goldens(self, name, factor, r_expected, models):
        s = evaluate_structure(models[name], sample_points(models[name].domain, 10,
                                                           derive_rng(1, name, "curv")))
        cur = s.curvature
        assert np.allclose(cur.scalar[:, 0], r_expected, atol=1e-10)
        S = cur.ricci.components[..., 0]
        assert np.max(np.abs(S - factor * s.g0)) < 1e-10

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    @pytest.mark.parametrize("family, sign", [("E1", -1), ("E2", 1)])
    def test_closed_form_curvature_by_dimension(self, family, sign, n):
        """The E1 and E2 families have constant curvature -1 and +1 at every
        dimension: R_ijkl = sign (g_jk g_il - g_ik g_jl), S = sign (n-1) g and
        r = sign n(n-1), and so dr = 0 and nabla Q = 0; each to 1e-12 of its
        scale, dr against n(n-1) and nabla Q against n-1, at 6 points."""
        model = _half_space_model(f"{family}n{n}", n, timelike_y=family == "E2", phi_scale=1.0, epsilon=-sign,
                                  description="")
        s = evaluate_structure(model, sample_points(model.domain, 6, derive_rng(3, family, n, "closed-form")))
        cur, g = s.curvature, s.g0
        R = sign * (np.einsum('pjk,pil->pijkl', g, g) - np.einsum('pik,pjl->pijkl', g, g))
        assert np.max(np.abs(cur.riemann_dddd.components[..., 0] - R)) <= 1e-12 * np.max(np.abs(R))
        S = sign * (n - 1) * g
        assert np.max(np.abs(cur.ricci.components[..., 0] - S)) <= 1e-12 * np.max(np.abs(S))
        assert np.max(np.abs(cur.scalar[:, 0] - sign * n * (n - 1))) <= 1e-12 * n * (n - 1)
        assert np.max(np.abs(cur.dr)) <= 1e-12 * n * (n - 1)
        assert np.max(np.abs(cur.nabla_ricci_op.components[..., 0])) <= 1e-12 * (n - 1)

    @pytest.mark.parametrize("name", ["E1", "E2"])
    def test_full_pipeline_matches_finite_differences(self, name, models):
        model = models[name]
        mfn = metric_fn(model)
        pts = sample_points(model.domain, 3, derive_rng(5, name, "fd"))
        s = evaluate_structure(model, pts)
        cur = s.curvature
        for k, pt in enumerate(pts):
            g, ginv, gam, R, S, r = fd_curvature_package(mfn, pt)
            scale = max(1.0, np.max(np.abs(R)))
            assert np.max(np.abs(s.connection.gamma.components[k, ..., 0] - gam)) < 1e-4 * scale
            assert np.max(np.abs(cur.riemann_ud.components[k, ..., 0] - R)) < 1e-4 * scale
            assert np.max(np.abs(cur.ricci.components[k, ..., 0] - S)) < 1e-4 * scale
            assert cur.scalar[k, 0] == pytest.approx(r, rel=1e-4)

    def test_generic_metric_matches_finite_differences(self):
        """A non-Einstein, off-diagonal metric keeps the oracle honest."""
        model = ManifoldModel(
            name="G", dim=3, coords=["x1", "x2", "y"], epsilon=1, index=0,
            metric=[["1/(y^2)", "0.05*x1*x2", "0"],
                    ["0.05*x1*x2", "1/(y^2) + 0.1*x1^2", "0"],
                    ["0", "0", "2/(y^2)"]],
            domain=[(-1.0, 1.0), (-1.0, 1.0), (0.7, 2.0)],
        )
        pts = sample_points(model.domain, 3, derive_rng(9, "gen", "fd"))
        conn = christoffel(_metric_jets(model, pts))
        cur = curvature(conn)
        mfn = metric_fn(model)
        for k, pt in enumerate(pts):
            g, ginv, gam, R, S, r = fd_curvature_package(mfn, pt)
            assert np.max(np.abs(cur.riemann_ud.components[k, ..., 0] - R)) < 1e-4 * max(1, np.abs(R).max())
            assert cur.scalar[k, 0] == pytest.approx(r, rel=1e-4, abs=1e-4)
        # contracted Bianchi on a genuinely non-Einstein metric
        assert np.max(np.abs(cur.dr - 2 * cur.div_q)) < 1e-7

    def test_flat_curvature_vanishes(self, f0):
        cur = f0.curvature
        assert np.max(np.abs(cur.riemann_ud.components)) == 0.0
        assert np.max(np.abs(cur.ricci.components)) == 0.0
        assert np.max(np.abs(cur.scalar)) == 0.0

    def test_riemann_symmetries(self, e1, e2):
        for s in (e1, e2):
            Rd = s.curvature.riemann_dddd.components[..., 0]
            assert np.max(np.abs(Rd + np.swapaxes(Rd, 1, 2))) < 1e-9   # antisym (ij)
            assert np.max(np.abs(Rd + np.swapaxes(Rd, 3, 4))) < 1e-9   # antisym (kl)
            assert np.max(np.abs(Rd - np.transpose(Rd, (0, 3, 4, 1, 2)))) < 1e-9  # pair
            S = s.curvature.ricci.components[..., 0]
            assert np.max(np.abs(S - np.swapaxes(S, 1, 2))) < 1e-9

    def test_first_bianchi(self, e1):
        R = e1.curvature.riemann_ud.components[..., 0]
        cyc = R + np.transpose(R, (0, 1, 3, 4, 2)) + np.transpose(R, (0, 1, 4, 2, 3))
        assert np.max(np.abs(cyc)) < 1e-8

    def test_contracted_bianchi(self, e1, e2):
        for s in (e1, e2):
            assert np.max(np.abs(s.curvature.dr - 2 * s.curvature.div_q)) < 1e-7

    def test_convention_lock(self, e1, e2, vectors):
        """S(Y, xi) = (1-n) eta(Y) and R(X,Y)xi = eta(X)Y - eta(Y)X pin the
        sign conventions."""
        for s in (e1, e2):
            vec = vectors(s)
            S = s.curvature.ricci.components[..., 0]
            SYxi = np.einsum('pab,pva,pb->pv', S, vec, s.xi0)
            target = (1 - s.dim) * np.einsum('pa,pva->pv', s.eta0, vec)
            assert np.max(np.abs(SYxi - target)) < 1e-8
            R = s.curvature.riemann_ud.components[..., 0]
            X, Y = vec[:, 0::2], vec[:, 1::2]
            RXYxi = np.einsum('plijk,pvi,pvj,pk->pvl', R, X, Y, s.xi0)
            t = (np.einsum('pa,pva->pv', s.eta0, X)[..., None] * Y
                 - np.einsum('pa,pva->pv', s.eta0, Y)[..., None] * X)
            assert np.max(np.abs(RXYxi - t)) < 1e-7

    def test_insufficient_order(self):
        model = _half_plane_2d()
        pts = np.array([[0.0, 2.0]])
        with pytest.raises(InsufficientOrderError):
            # order-1 metric jets give an order-0 connection, with no derivative left
            conn = christoffel(_metric_jets(model, pts, order=1))
            curvature(conn)

    @pytest.mark.parametrize("name", ["E1", "E2"])
    def test_invariants_at_hundred_points(self, name, models):
        """The full CurvatureAtPoint invariant set at 100 sample points."""
        model = models[name]
        pts = sample_points(model.domain, 100, derive_rng(21, name, "inv100"))
        s = evaluate_structure(model, pts)
        cur = s.curvature
        S = cur.ricci.components[..., 0]
        assert np.max(np.abs(S - np.swapaxes(S, 1, 2))) < 1e-9
        R = cur.riemann_ud.components[..., 0]
        cyc = R + np.transpose(R, (0, 1, 3, 4, 2)) + np.transpose(R, (0, 1, 4, 2, 3))
        assert np.max(np.abs(cyc)) < 1e-8
        Rd = cur.riemann_dddd.components[..., 0]
        assert np.max(np.abs(Rd + np.swapaxes(Rd, 1, 2))) < 1e-9
        assert np.max(np.abs(Rd + np.swapaxes(Rd, 3, 4))) < 1e-9
        assert np.max(np.abs(Rd - np.transpose(Rd, (0, 3, 4, 1, 2)))) < 1e-9
        assert np.max(np.abs(cur.dr - 2 * cur.div_q)) < 1e-7


class TestCovariantDerivative:
    def test_metric_parallel_on_all_builtins(self, models):
        for name, model in models.items():
            if model.dim > 3:
                continue
            pts = sample_points(model.domain, 6, derive_rng(3, name, "par"))
            g = _metric_jets(model, pts)
            conn = christoffel(g)
            ng = covariant_derivative(g, conn)
            assert np.max(np.abs(ng.components[..., 0])) < 1e-9, name

    def test_grad_xi_is_eps_phi(self, e1, e2):
        for s in (e1, e2):
            nxi = covariant_derivative(s.xi, s.connection)
            gap = nxi.components[..., 0] - s.epsilon * s.phi0
            assert np.max(np.abs(gap)) < 1e-9

    def test_grad_xi_matches_fd_oracle(self, models):
        model = models["E1"]
        mfn = metric_fn(model)
        xfn = vector_fn(model, model.xi)
        pts = sample_points(model.domain, 3, derive_rng(8, "E1", "gxi"))
        s = evaluate_structure(model, pts)
        nxi = covariant_derivative(s.xi, s.connection).components[..., 0]
        for k, pt in enumerate(pts):
            fd = fd_grad_vector_field(mfn, xfn, pt)
            assert np.max(np.abs(nxi[k] - fd)) < 1e-5

    def test_constant_scalar_field(self, e1):
        space = e1.g.space
        ones = TensorValue(3, 0, 0, space.constant(1.0, (e1.npoints,)), space)
        grad = covariant_derivative(ones, e1.connection)
        assert np.max(np.abs(grad.components)) == 0.0

    @pytest.mark.parametrize("name", ["E1n5", "N1", "W1", "E3b"])
    def test_lowering_commutes_with_nabla(self, models, name):
        """The Levi-Civita connection is metric-compatible, so the Lie checks
        read nabla Phi off nabla phi, (nabla_i Phi)_ab = g_mb (nabla_i phi)^m_a,
        and nabla S off nabla Q, (nabla_i S)_ab = g_am (nabla_i Q)^m_b: both
        against the covariant derivatives of Phi's and S's own jets, to 1e-13
        of the larger of max |T| and max |nabla T| (nabla S is 0 on E1n5 and
        N1), on a chart of dimension 5, a non-para-Sasakian one, a manifest
        and a bundle's induced structure."""
        if name == "E3b":
            bundle = builtin_bundles()[name]
            s = evaluate_bundle(bundle, sample_points(bundle.embedding.domain, 8, derive_rng(4, name))).structure
        else:
            model = load_manifest(FIXTURES / "W1.json") if name == "W1" else models[name]
            s = evaluate_structure(model, sample_points(model.domain, 8, derive_rng(4, name)))
        g, cur = s.g0, s.curvature
        Phi = fundamental_form_jets(s)
        pairs = ((np.einsum('pmia,pmb->piab', s.nabla_phi, g), Phi),
                 (np.einsum('pam,pmib->piab', g, cur.nabla_ricci_op.components[..., 0]), cur.ricci))
        for read_off, T in pairs:
            own = s._nabla(T)
            scale = max(np.max(np.abs(own)), np.max(np.abs(T.components[..., 0])))
            assert np.max(np.abs(read_off - own)) <= 1e-13 * scale, name



class TestFlatRoute:
    """A metric whose jets have an all-zero derivative part gives a flat
    connection: Gamma = 0, R = S = 0 and nabla = d, with no connection work
    and the jet spaces of the general route.  Only an exactly constant
    metric takes it."""

    @staticmethod
    def _model(g11, g22):
        return ManifoldModel(name="M", dim=3, coords=["x1", "x2", "y"], epsilon=1, index=0,
                             metric=[[g11, "0", "0"], ["0", g22, "0"], ["0", "0", "1"]],
                             domain=[(-1.0, 1.0), (-1.0, 1.0), (0.5, 2.0)])

    def test_vanishing_first_derivatives_keep_the_general_route(self):
        """g_22 = 1 + x1^2 at x1 = 0: every first derivative of g vanishes at
        every sample, so Gamma's values are zero, but R reads the second
        derivatives and must match the finite-difference oracle."""
        model = self._model("1", "1 + x1^2")
        pts = np.array([[0.0, 0.3, 1.0], [0.0, -0.5, 1.7], [0.0, 0.9, 0.6]])
        conn = christoffel(_metric_jets(model, pts))
        assert not conn.flat
        assert np.max(np.abs(conn.gamma.components[..., 0])) == 0.0
        R = curvature(conn).riemann_ud.components[..., 0]
        assert np.max(np.abs(R)) > 0.5
        for k, pt in enumerate(pts):
            assert np.max(np.abs(R[k] - fd_curvature_package(metric_fn(model), pt)[3])) < 1e-4

    def test_constant_up_to_rounding_keeps_the_general_route(self):
        """cos(x1)^2 + sin(x1)^2 is 1, but its jets carry rounding in their
        derivative part, so the test that picks the route does not fire."""
        pts = np.array([[1.7, 0.0, 1.0], [-2.2, 0.0, 1.5]])
        g = _metric_jets(self._model("cos(x1)^2 + sin(x1)^2", "1"), pts)
        assert g.components[..., 1:].any()
        conn = christoffel(g)
        assert not conn.flat
        assert np.max(np.abs(conn.gamma.components)) < 1e-14
        assert np.max(np.abs(curvature(conn).riemann_ud.components)) < 1e-14

    def test_constant_metric_gives_the_plain_gradient(self, f0):
        """Along F0's flat connection nabla T is the plain gradient, in the
        jet space the general route gives: the same components as that route
        over the same zero Gamma."""
        conn = f0.connection
        assert conn.flat and not np.any(conn.gamma.components)
        space = f0.g.space
        xs = space.point_jets(f0.points)
        T = TensorValue(3, 1, 1, np.stack([np.stack([space.mul(a, b) for b in xs], 1) for a in xs], 1), space)
        nabla = covariant_derivative(T, conn)
        assert nabla.space is conn.space
        assert np.array_equal(nabla.components, np.moveaxis(conn.space.restrict(space.grad(T.components)), 1, 2))
        general = covariant_derivative(T, dataclasses.replace(conn, flat=False))
        assert general.space is nabla.space
        assert np.array_equal(general.components, nabla.components)

    def test_flat_route_keeps_the_jet_orders(self, models):
        """Gamma one order below g, R one below Gamma, and an order-0
        connection has no curvature."""
        model = models["F0"]
        pts = np.array([[0.3, -0.4, 1.1]])
        conn = christoffel(_metric_jets(model, pts, order=2))
        assert conn.flat and conn.space.order == 1
        cur = curvature(conn)
        assert cur.riemann_ud.space.order == cur.ricci.space.order == 0
        assert not np.any(cur.riemann_ud.components) and not np.any(cur.ricci.components)
        with pytest.raises(InsufficientOrderError):
            curvature(christoffel(_metric_jets(model, pts, order=1)))
        with pytest.raises(InsufficientOrderError):
            christoffel(_metric_jets(model, pts, order=0))


class TestLieDerivative:
    def test_lie_eta_along_xi_vanishes(self, e1, e2):
        for s in (e1, e2):
            L = _lie(s.eta, s.xi, s.connection)
            assert np.max(np.abs(L)) < 1e-9

    def test_lie_g_along_xi(self, e1, e2):
        for s in (e1, e2):
            L = _lie(s.g, s.xi, s.connection)
            assert np.max(np.abs(L - 2 * s.epsilon * s.Phi0)) < 1e-8

    def test_translation_is_flat_killing_field(self, f0):
        space = f0.g.space
        X = np.zeros((f0.npoints, 3, space.ncoeffs))
        X[:, 0, 0] = 1.0  # d/dx1
        XT = TensorValue(3, 1, 0, X, space)
        L = _lie(f0.g, XT, f0.connection)
        assert np.max(np.abs(L)) == 0.0

    def test_covariant_and_partials_routes_agree(self, models, e1, e2):
        """The Lie checks' route (nabla T restricted to the fields' order, the
        structure's cached nabla xi) against plain partials, on every tensor
        whose Lie derivative along xi a check reads; and along the field
        (x^a)^2 d_a, which moves every one of them, so that no term of the
        route can stand in for another."""
        for s in (e1, e2, evaluate_structure(models["E1n5"], sample_points(
                models["E1n5"].domain, 6, derive_rng(5, "E1n5", "lie")))):
            space = s.xi.space
            sq = np.stack([space.mul(x, x) for x in space.point_jets(s.points)], axis=1)
            sq = TensorValue(s.dim, 1, 0, sq, space)
            for X, nabla_X in ((s.xi, s.nabla_xi), (sq, covariant_derivative(sq, s.connection).components[..., 0])):
                for T in (s.g, s.eta, fundamental_form_jets(s), s.curvature.ricci, compute_c11_phi_r(s)):
                    a = lie_derivative(T.components[..., 0], s._nabla(T), X.components[..., 0], nabla_X)
                    b = lie_derivative_by_partials(T, X).components[..., 0]
                    assert np.max(np.abs(a - b)) < 1e-10


class TestJetOrders:
    """Each field is evaluated to the order the checks read; a derived
    object's jet space is the order it is valid to."""

    def test_chart_model_orders(self, e1):
        assert e1.g.space.order == 3
        assert [t.space.order for t in (e1.phi, e1.xi, e1.eta)] == [1, 1, 1]
        assert e1.connection.space.order == 2
        cur = e1.curvature
        assert [t.space.order for t in (cur.riemann_ud, cur.ricci, cur.ricci_op)] == [1, 1, 1]
        assert covariant_derivative(e1.g, e1.connection).space.order == 2
        # a Lie derivative along xi is values: it reads nabla g only to xi's order, one below
        assert covariant_derivative(e1.g.as_jet(e1.xi.space), e1.connection).space.order == 0

    def test_bundle_orders(self):
        bundle = builtin_bundles()["E3a"]
        pts = sample_points(bundle.embedding.domain, 4, derive_rng(2, "E3a", "orders"))
        data = evaluate_bundle(bundle, pts)
        s = data.structure
        assert s.g.space.order == 3
        assert [t.space.order for t in (s.phi, s.xi, s.eta)] == [1, 1, 1]
        assert data.ambient.g.space.order == 2
        assert data.ambient.J.space.order == 1
        assert data.ambient.curvature.riemann_dddd.space.order == 0
        with pytest.raises(InsufficientOrderError):
            data.ambient.curvature.dr
