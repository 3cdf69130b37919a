"""Tensor value semantics: contraction (which also raises and lowers indices
against the metric), the metric package, the jet matrix inverse, the one
least-squares solver and its rank rule, and the frame-sum cross-validation
that justifies replacing signed orthonormal frame sums with index
contractions."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paracheck.einstein_like import fit_einstein_like
from paracheck.expr_jet import JetSpace, eval_expr, parse_expr
from paracheck.report import RANK_CUTOFF
from paracheck.tensor_algebra import (
    MetricAtPoint,
    TensorValue,
    check_metric,
    contract_with,
    inertia,
    invert_jet_matrix,
    min_norm_solve,
)

from fd_oracle import signed_orthonormal_frame


def _jets0(dim, p, q, values):
    """Numeric components at one sample point as an order-0 jet tensor."""
    return TensorValue(dim, p, q, np.asarray(values)[None, ..., None], JetSpace.get(dim, 0))


def _value(components):
    """The one sample point's values of order-0 jet components."""
    return components[0, ..., 0]


class TestContract:
    def test_trace_of_phi_on_e1(self, e1):
        assert e1.trace_phi[0] == pytest.approx(-2.0)

    def test_pairing_identity(self, rng):
        v = rng.uniform(-1, 1, 4)
        w = rng.uniform(-1, 1, 4)
        assert _value(contract_with(_jets0(4, 1, 0, v), _jets0(4, 0, 1, w), 0, 0)) == pytest.approx(v @ w)


class TestMetricConvert:
    """Lowering and raising as the geometry layer does it: contract_with
    against g or its inverse."""

    def test_lower_xi_gives_eps_eta(self, e1, e2):
        for s in (e1, e2):
            k = 2
            metric = MetricAtPoint.build(_jets0(s.dim, 0, 2, s.g0[k]))
            xi = _jets0(s.dim, 1, 0, s.xi0[k])
            low = _value(contract_with(metric.g, xi, 1, 0))
            assert low.shape == (s.dim,)
            assert np.allclose(low, s.epsilon * s.eta0[k], atol=1e-12)

    def test_raise_lower_roundtrip(self, rng):
        g = np.diag([2.0, -1.0, 0.5, 1.5])
        metric = MetricAtPoint.build(_jets0(4, 0, 2, g))
        t = rng.uniform(-1, 1, (4, 4, 4))
        low = contract_with(metric.g, _jets0(4, 2, 1, t), 1, 1)                    # [m, a, c]
        back = _value(contract_with(metric.g_inv, _jets0(4, 0, 3, _value(low)), 1, 0))   # [k, a, c]
        # lowering slot 1 puts the new covariant index first; raising it back
        # and moving it to slot 1 restores the original layout
        assert np.max(np.abs(np.moveaxis(back, 0, 1) - t)) < 1e-10


class TestMetricAtPoint:
    """The metric package: check_metric, the one test of a metric's
    degeneracy and index where it is evaluated, the inertia it counts, and
    the jet inverse MetricAtPoint builds."""

    def test_inverse_and_index(self, e2):
        check_metric(e2.g0, e2.points, "metric", 1)
        check_metric(e2.g0, e2.points, "metric")
        with pytest.raises(ValueError, match=r"^metric: index 1 at point \(.*\), not the declared 0$"):
            check_metric(e2.g0, e2.points, "metric", 0)
        metric = MetricAtPoint.build(e2.g)
        prod = np.einsum('pik,pkj->pij', e2.g0, metric.g_inv.components[..., 0])
        assert np.allclose(prod, np.broadcast_to(np.eye(3), prod.shape), atol=1e-10)

    def test_degenerate_rejected(self):
        """Degeneracy is tested before the index, whose count a degenerate
        matrix leaves undefined; the error names the field and the first
        degenerate point."""
        g = np.stack([np.eye(3), np.diag([1.0, 0.0, 1.0]), np.diag([1.0, 0.0, -1.0])])
        with pytest.raises(ValueError) as err:
            check_metric(g, np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]), "ambient.metric", 0)
        assert str(err.value) == ("ambient.metric: degenerate (smallest singular value at most 1e-12 of the "
                                  "largest) at point (2.0, 3.0)")

    def test_rescaled_metric_accepted(self):
        """Degeneracy is relative: 1e-6 g has det 2e-18 and is as well
        conditioned as g."""
        g = 1e-6 * np.diag([1.0, -1.0, 2.0])
        check_metric(g[None], np.zeros((1, 3)), "metric", 1)
        metric = MetricAtPoint.build(_jets0(3, 0, 2, g))
        assert np.allclose(_value(metric.g_inv.components), 1e6 * np.diag([1.0, -1.0, 0.5]))

    def test_inertia(self):
        assert inertia(np.diag([1.0, -2.0, 3.0])) == 1
        assert inertia(np.diag([-1.0, -2.0, 3.0])) == 2
        assert inertia(np.eye(4)) == 0

    def test_inertia_is_scale_relative(self):
        assert inertia(1e-13 * np.diag([1.0, -1.0, 1.0])) == 1
        assert inertia(1e13 * np.diag([1.0, -1.0, -1.0])) == 2

    def test_inertia_of_a_stack_counts_each_matrix(self, rng):
        """A stack (..., n, n) gives one count per matrix, each with its own
        scale-relative cutoff, equal to the count of that matrix alone."""
        stack = np.stack([1e-13 * np.diag([1.0, -1.0, 1.0]), 1e13 * np.diag([1.0, -1.0, -1.0]),
                          np.eye(3), -np.eye(3)])
        assert inertia(stack).tolist() == [1, 2, 0, 3]
        sym = rng.standard_normal((2, 5, 4, 4))
        sym = sym + np.swapaxes(sym, -1, -2)
        nus = inertia(sym)
        assert nus.shape == (2, 5)
        assert all(nus[i, j] == inertia(sym[i, j]) for i in range(2) for j in range(5))

    def test_index_not_constant_rejected(self):
        """diag(1, x) sampled on both sides of x = 0 has index 0 at x > 0
        and 1 at x < 0; with no declared index, the first point's is the
        one every point must have.  Only values are read, so a metric given
        as constants at each sample is checked as any other."""
        x = np.array([0.5, -0.25, 0.75, -1.0])
        g = np.zeros((x.size, 2, 2))
        g[:, 0, 0], g[:, 1, 1] = 1.0, x
        points = np.column_stack([x, 2 * x])
        with pytest.raises(ValueError) as err:
            check_metric(g, points, "induced metric")
        assert str(err.value) == "induced metric: index 1 at point (-0.25, -0.5), not the first point's 0"
        check_metric(g[::2], points[::2], "induced metric", 0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_values_rejected(self, bad):
        """Values that are not finite are refused before they are decomposed, with the field and
        the first point holding one, not with numpy's convergence error."""
        g = np.stack([np.eye(3), np.diag([1.0, 2.0, 3.0]), np.eye(3)])
        g[1, 0, 2] = g[1, 2, 0] = bad
        g[2, 1, 1] = bad
        with pytest.raises(ValueError) as err:
            check_metric(g, np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]), "induced metric", 0)
        assert str(err.value) == "induced metric: not finite at point (2.0, 3.0)"

    def test_inertia_of_a_degenerate_matrix(self):
        """A matrix whose smallest eigenvalue magnitude is at most 1e-12 of its largest, its
        smallest singular value, has no index: -1, at any scale."""
        stack = np.stack([np.diag([1.0, 0.0, -1.0]), 1e-20 * np.diag([1.0, 1e-13, -1.0]),
                          1e20 * np.diag([1.0, 1e-11, -1.0])])
        assert inertia(stack).tolist() == [-1, -1, 1]

    def test_src_takes_no_svd_outside_min_norm_solve(self):
        """A metric's degeneracy and index come from one eigendecomposition; the one SVD of the
        package is the least-squares solver's."""
        src = Path(__file__).resolve().parents[1] / "src" / "paracheck"
        calls = [f"{path.name}:{stmt.name}" for path in sorted(src.glob("*.py"))
                 for stmt in ast.parse(path.read_text()).body
                 for node in ast.walk(stmt) if isinstance(node, ast.Attribute) and node.attr == "svd"]
        assert calls == ["tensor_algebra.py:min_norm_solve"]

    def test_jet_matrix_inverse_exact_to_order(self, rng):
        space = JetSpace.get(2, 4)
        pts = np.column_stack([rng.uniform(0.5, 2, 4), rng.uniform(0.5, 2, 4)])
        cj = space.point_jets(pts)
        coords = ["x", "y"]
        G = np.zeros((4, 2, 2, space.ncoeffs))
        G[:, 0, 0] = eval_expr(parse_expr("1 + x*y", coords), space, cj)
        G[:, 0, 1] = G[:, 1, 0] = eval_expr(parse_expr("0.2*sin(x)", coords), space, cj)
        G[:, 1, 1] = eval_expr(parse_expr("2 + y^2", coords), space, cj)
        X = invert_jet_matrix(space, G)
        prod = np.zeros_like(G)
        a = np.expand_dims(G, -2)
        b = np.expand_dims(X, -4)
        prod = np.sum(space.mul(a, b), axis=-3)
        eye = np.zeros((2, 2, space.ncoeffs))
        eye[..., 0] = np.eye(2)
        assert np.max(np.abs(prod - eye)) < 1e-12


    @staticmethod
    def _constant(rng, space):
        """Jets of well-conditioned matrices over 6 points with a zero derivative part."""
        G = np.zeros((6, 3, 3, space.ncoeffs))
        G[..., 0] = rng.uniform(-1, 1, (6, 3, 3)) + 3 * np.eye(3)
        return G

    def test_constant_jet_matrix_inverse_is_its_value_inverse(self, rng):
        """A constant G takes no Newton step: its inverse is inv(G0) with a
        zero derivative part, and the Newton steps agree with it to rounding."""
        space = JetSpace.get(3, 3)
        G = self._constant(rng, space)
        X = invert_jet_matrix(space, G)
        assert np.array_equal(X[..., 0], np.linalg.inv(G[..., 0]))
        assert not X[..., 1:].any()
        eye = np.zeros((3, 3, space.ncoeffs))
        eye[..., 0] = np.eye(3)
        newton = X.copy()
        for _ in range(2):
            newton = space.matmul(newton, 2 * eye - space.matmul(G, newton))
        assert np.max(np.abs(newton - X)) < 1e-14 * np.max(np.abs(X))

    def test_nan_derivative_part_keeps_the_newton_steps(self, rng):
        """A NaN in G's derivative part is not a constant: the Newton steps
        run and carry it into X's derivative part at that point alone."""
        space = JetSpace.get(3, 3)
        G = self._constant(rng, space)
        G[2, 0, 1, 4] = np.nan
        X = invert_jet_matrix(space, G)
        assert np.isnan(X[2, ..., 1:]).any()
        rest = [0, 1, 3, 4, 5]
        assert np.allclose(X[rest], invert_jet_matrix(space, G[rest]), rtol=0, atol=1e-14)


class TestMinNormSolve:
    @staticmethod
    def _near_rank_two(rng, ratio):
        """Einstein-like fit inputs (g, Phi, eta, S) over 10 points of dim 3
        whose columns g, Phi, eta(x)eta have sigma_3 / sigma_1 = ratio: Phi is
        g + eta(x)eta plus a small part orthogonal to both."""
        g = rng.normal(size=(10, 3, 3))
        eta = rng.normal(size=(10, 3))
        ee = np.einsum('pa,pb->pab', eta, eta)
        base = np.stack([g.ravel(), ee.ravel()], axis=1)
        w = rng.normal(size=base.shape[0])
        w -= base @ np.linalg.lstsq(base, w, rcond=None)[0]
        cols = np.stack([g.ravel(), (g + ee).ravel(), ee.ravel()], axis=1)
        sv = np.linalg.svd(cols, compute_uv=False)
        # with w orthogonal to g and eta(x)eta, sigma_3 is delta |w| / sqrt(3) to first order
        delta = ratio * sv[0] * np.sqrt(3) / np.linalg.norm(w)
        Phi = g + ee + delta * w.reshape(g.shape)
        return g, Phi, eta, 2 * g - ee

    def test_rank_drops_singular_values_at_most_the_cutoff(self, rng):
        """sigma_3 / sigma_1 = 1e-12 lies below RANK_CUTOFF but far above
        lstsq's max(m, n) eps: both the solver and the fit count rank 2."""
        g, Phi, eta, S = self._near_rank_two(rng, 1e-12)
        cols = np.stack([g.ravel(), Phi.ravel(), np.einsum('pa,pb->pab', eta, eta).ravel()], axis=1)
        sv = np.linalg.svd(cols, compute_uv=False)
        assert sv[2] / sv[0] == pytest.approx(1e-12, rel=1e-3)
        assert sv[2] / sv[0] > 10 * max(cols.shape) * np.finfo(float).eps
        assert sv[2] / sv[0] < RANK_CUTOFF < sv[1] / sv[0]
        x, rank, Vt = min_norm_solve(cols[None], S.ravel()[None])
        assert rank.tolist() == [2] and x.shape == (1, 3) and Vt.shape == (1, 3, 3)
        fit = fit_einstein_like(g, Phi, eta, S)
        assert fit.gram_rank == 2 and fit.family.shape == (1, 3)
        np.testing.assert_allclose(abs(fit.family[0] @ Vt[0, 2]), 1.0)

    @pytest.mark.parametrize("scale", [1e-8, 1e8])
    def test_rank_does_not_change_with_scale(self, rng, scale):
        g, Phi, eta, S = self._near_rank_two(rng, 1e-12)
        cols = np.stack([g.ravel(), Phi.ravel(), np.einsum('pa,pb->pab', eta, eta).ravel()], axis=1)
        assert min_norm_solve(scale * cols[None], S.ravel()[None])[1].tolist() == [2]
        assert fit_einstein_like(scale * g, scale * Phi, np.sqrt(scale) * eta, S).gram_rank == 2

    def test_batch_entries_are_solved_independently(self, rng):
        rows = rng.normal(size=(4, 6, 3))
        rows[1, :, 2] = rows[1, :, 0] - rows[1, :, 1]         # one rank-2 system in the batch
        rhs = rng.normal(size=(4, 6))
        x, rank, Vt = min_norm_solve(rows, rhs)
        assert rank.tolist() == [3, 2, 3, 3]
        for b in range(4):
            np.testing.assert_allclose(x[b], np.linalg.lstsq(rows[b], rhs[b], rcond=None)[0], atol=1e-12)
        np.testing.assert_allclose(rows[1] @ Vt[1, 2], 0.0, atol=1e-12)


class TestFrameIndependence:
    def test_ricci_trace_matches_signed_frame_sums(self, e1, e2):
        """g^{ij} S_ij equals the signed frame sum over 10 random signed
        orthonormal frames, within 1e-8."""
        rng = np.random.default_rng(11)
        for s in (e1, e2):
            S = s.curvature.ricci.components[..., 0]
            ginv = np.linalg.inv(s.g0)
            for k in range(0, s.npoints, 7):
                contract_val = float(np.einsum('ij,ij->', ginv[k], S[k]))
                for _ in range(10):
                    frame, signs = signed_orthonormal_frame(s.g0[k], rng)
                    frame_sum = sum(
                        signs[i] * frame[i] @ S[k] @ frame[i] for i in range(s.dim)
                    )
                    assert frame_sum == pytest.approx(contract_val, abs=1e-8)

    def test_frame_completeness(self, e2):
        """sum_i eps_i e_i e_i^T = g^{-1} for signed orthonormal frames."""
        rng = np.random.default_rng(12)
        g = e2.g0[0]
        frame, signs = signed_orthonormal_frame(g, rng)
        recon = sum(signs[i] * np.outer(frame[i], frame[i]) for i in range(3))
        assert np.allclose(recon, np.linalg.inv(g), atol=1e-9)


class TestRandomTensorProperties:
    """Property checks over random tensors as order-0 jets."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 200))
    def test_raise_lower_inverse_pair(self, dim, seed):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.5, 2.0, dim) * rng.choice([-1.0, 1.0], dim)
        metric = MetricAtPoint.build(_jets0(dim, 0, 2, np.diag(w)))
        t = rng.uniform(-1, 1, (dim, dim))
        low = contract_with(metric.g, _jets0(dim, 1, 1, t), 1, 0)
        back = _value(contract_with(metric.g_inv, _jets0(dim, 0, 2, _value(low)), 1, 0))
        assert np.max(np.abs(back - t)) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 200))
    def test_product_then_full_contraction_is_pairing(self, dim, seed):
        rng = np.random.default_rng(seed)
        v = rng.uniform(-1, 1, dim)
        w = rng.uniform(-1, 1, dim)
        paired = _value(contract_with(_jets0(dim, 1, 0, v), _jets0(dim, 0, 1, w), 0, 0))
        assert paired == pytest.approx(v @ w)


class TestJetNumericCommutation:
    """Contracting jets and then taking values agrees with contracting the
    values directly."""

    def test_contract_commutes_with_value_extraction(self, e1):
        val_then_contract = np.einsum('pmb,pma->pba', e1.g0, e1.phi0)
        contract_then_value = contract_with(e1.g, e1.phi, 0, 0)[..., 0]
        assert np.allclose(val_then_contract, contract_then_value, atol=1e-14)

    def test_metric_convert_commutes_with_value_extraction(self, e1):
        metric_jets = MetricAtPoint.build(e1.g)
        low_jets = contract_with(metric_jets.g, e1.xi, 1, 0)[..., 0]
        low_vals = np.einsum('pam,pm->pa', e1.g0, e1.xi0)
        assert np.allclose(low_jets, low_vals, atol=1e-12)
