"""Engine tests: golden Christoffels, curvature on the constant-curvature
models with the finite-difference pipeline as the oracle, covariant and Lie
derivative identities, and the curvature invariants."""

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
from paracheck.hypersurface_lab import evaluate_bundle, get_bundle
from paracheck.models import ManifoldModel, _eval_grid, evaluate_structure, get_model
from paracheck.sampling import derive_rng, sample_points
from paracheck.tensor_algebra import TensorValue

from fd_oracle import (
    fd_christoffel,
    fd_curvature_package,
    fd_grad_vector_field,
    lie_derivative_by_partials,
    metric_fn,
    vector_fn,
)


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
        conn = christoffel(_metric_jets(model, pts), pts)
        gam = conn.gamma.components[0, ..., 0]
        assert gam[0, 0, 1] == pytest.approx(-0.5, abs=1e-12)  # x_xy
        assert gam[1, 0, 0] == pytest.approx(0.5, abs=1e-12)   # y_xx
        assert gam[1, 1, 1] == pytest.approx(-0.5, abs=1e-12)  # y_yy
        fd = fd_christoffel(metric_fn(model), np.array([0.0, 2.0]))
        assert np.allclose(gam, fd, atol=1e-6)

    def test_flat_metric_vanishes(self):
        model = get_model("F0")
        pts = np.array([[0.3, -0.4, 1.1]])
        conn = christoffel(_metric_jets(model, pts), pts)
        assert np.max(np.abs(conn.gamma.components)) == 0.0

    def test_e2_timelike_symbol(self):
        model = get_model("E2")
        pts = np.array([[0.3, -0.2, 1.0]])
        conn = christoffel(_metric_jets(model, pts), pts)
        gam = conn.gamma.components[0, ..., 0]
        assert gam[2, 0, 0] == pytest.approx(-1.0, abs=1e-12)
        fd = fd_christoffel(metric_fn(model), pts[0])
        assert np.allclose(gam, fd, atol=1e-6)

    def test_symmetry_in_lower_slots(self, e1):
        gam = e1.connection.gamma.components
        assert np.max(np.abs(gam - np.swapaxes(gam, 2, 3))) == 0.0

    def test_degenerate_metric_rejected(self):
        space = JetSpace.get(2, 4)
        pts = np.array([[1.0, 1.0]])
        comps = np.zeros((1, 2, 2, space.ncoeffs))
        comps[:, 0, 0, 0] = 1.0  # second row identically zero
        with pytest.raises(ValueError):
            christoffel(TensorValue(2, 0, 2, comps, space), pts)


class TestCurvature:
    @pytest.mark.parametrize("name,factor,r_expected", [("E1", -2.0, -6.0), ("E2", 2.0, 6.0)])
    def test_constant_curvature_goldens(self, name, factor, r_expected, models):
        s = evaluate_structure(models[name], sample_points(models[name].domain, 10,
                                                           derive_rng(1, name, "curv")))
        cur = s.curvature
        assert np.allclose(cur.scalar[:, 0], r_expected, atol=1e-10)
        S = cur.ricci.components[..., 0]
        assert np.max(np.abs(S - factor * s.g0)) < 1e-10

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
        conn = christoffel(_metric_jets(model, pts), pts)
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
            conn = christoffel(_metric_jets(model, pts, order=1), pts)
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
            conn = christoffel(g, pts)
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
                for T in (s.g, s.eta, s.Phi, s.curvature.ricci, compute_c11_phi_r(s).tensor):
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
        bundle = get_bundle("E3a")
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
