"""Hypersurface tests: induced structures, shape operators against the
finite-difference Weingarten oracle, the characterization theorem, the
quasi-umbilical decomposition, and the synthetic Gauss-equation trials."""

import dataclasses

import numpy as np
import pytest

from paracheck import hypersurface_lab
from paracheck.hypersurface_lab import (
    AmbientJets,
    AmbientProductModel,
    Embedding,
    HypersurfaceBundle,
    InducedStructureError,
    check_ambient,
    check_ps_characterization,
    evaluate_bundle,
    gauss_consistency_residual,
    get_bundle,
    pull_back,
    quasi_umbilical_check,
    recover_shape_operator,
    shape_self_adjoint_residual,
    synthetic_gauss_check,
    verify_induced_derivatives,
)
from paracheck.paracontact_core import ParacontactStructure, check_axioms
from paracheck.sampling import _seed, derive_rng, derive_states, random_vectors, sample_points
from paracheck.suites import RunConfig, run_suite
from paracheck.tensor_algebra import TensorValue

from pointwise import random_pointwise_structure


@pytest.fixture(scope="module")
def e3a_data():
    b = get_bundle("E3a")
    pts = sample_points(b.embedding.domain, 20, derive_rng(7, "E3a", "pts"))
    return evaluate_bundle(b, pts)


@pytest.fixture(scope="module")
def e3b_data():
    b = get_bundle("E3b")
    pts = sample_points(b.embedding.domain, 20, derive_rng(7, "E3b", "pts"))
    pts = np.vstack([[1.0, 0.0, 0.0], pts])  # reference chart point over (1,0,1,0)
    return evaluate_bundle(b, pts)


def _vectors(npoints, tag, dim=3, tuples=20):
    return random_vectors(derive_rng(7, tag, "v"), npoints, 2 * tuples, dim)


def _full_wedge(a, b):
    """Test-only full-tensor wedge: a (T, n, n, n, n) result in [x,y,z,w]."""
    return np.einsum('tyz,txw->txyzw', a, b) - np.einsum('txz,tyw->txyzw', a, b)


def _full_gauss_chain(epsilon, g, phi, xi, eta, ks, perturb_a):
    """Test-only oracle of hypersurface_lab._gauss_chain on full
    (T, n, n, n, n) tensors: the same chain with no x < y half."""
    T, n = g.shape[:2]
    Phi = np.swapaxes(phi, 1, 2) @ g
    ee = np.einsum('ta,tb->tab', eta, eta)
    xe = np.einsum('ta,tb->tab', xi, eta)
    A = -epsilon * np.eye(n) + epsilon * xe + perturb_a * xe
    h = epsilon * np.einsum('tma,tmb->tab', A, g)
    worst = {"quasi-umbilical-exact": np.max(np.abs(h + g - epsilon * ee))}
    Wgg, WPP = _full_wedge(g, g), _full_wedge(Phi, Phi)
    M1, M0 = Wgg + WPP, epsilon * _full_wedge(h, h)
    cross = -(_full_wedge(g, ee) + _full_wedge(ee, g))
    worst["gauss-vs-derived-display"] = worst["gauss-vs-printed-display"] = 0.0
    for k in ks:
        Rk = k * M1 + M0
        derived = (k + epsilon) * Wgg + k * WPP + cross
        printed = (k - 1) * Wgg + k * WPP + epsilon * cross
        worst["gauss-vs-derived-display"] = max(worst["gauss-vs-derived-display"], np.max(np.abs(Rk - derived)))
        worst["gauss-vs-printed-display"] = max(worst["gauss-vs-printed-display"], np.max(np.abs(Rk - printed)))
    lhs1 = np.einsum('txyzw,tz->txyw', M1, xi)
    lhs0 = np.einsum('txyzw,tz->txyw', M0, xi)
    target = np.einsum('tx,tyw->txyw', eta, g) - np.einsum('ty,txw->txyw', eta, g)
    av, bv = lhs1.reshape(T, -1), (target - lhs0).reshape(T, -1)
    k_solved = np.sum(av * bv, axis=1) / np.sum(av * av, axis=1)
    k_resid = np.max(np.abs(k_solved[:, None, None, None] * lhs1 + lhs0 - target), axis=(1, 2, 3))
    worst["k-vs-derived"] = max(np.max(np.abs(k_solved - (-epsilon))), np.max(k_resid))
    worst["k-vs-printed"] = np.max(np.abs(k_solved - (2 - epsilon)))
    ginv = np.linalg.inv(g)
    S = np.einsum('tiw,tijkw->tjk', ginv, k_solved[:, None, None, None, None] * M1 + M0)
    trphi = np.trace(phi, axis1=1, axis2=2)[:, None, None]
    S_printed = (((2 - epsilon) * (n - 2) - n) * g + (2 - epsilon) * trphi * Phi
                 + epsilon * (4 - epsilon - n) * ee)
    worst["ricci-vs-derived-form"] = np.max(np.abs(S - (-epsilon * trphi * Phi + (1 - n) * ee)))
    worst["ricci-vs-printed-form"] = np.max(np.abs(S - S_printed))
    Rp = ((2 - epsilon) - 1) * Wgg + (2 - epsilon) * WPP + epsilon * cross
    worst["printed-chain-self-consistency"] = np.max(np.abs(np.einsum('tiw,tijkw->tjk', ginv, Rp) - S_printed))
    cols = np.stack([g.reshape(T, -1), Phi.reshape(T, -1), ee.reshape(T, -1)], axis=2)
    coef, _ = hypersurface_lab._min_norm_solve(cols, S.reshape(T, -1))
    worst["einstein-like-fit"] = np.max(np.abs(np.einsum('tij,tj->ti', cols, coef) - S.reshape(T, -1)))
    worst["eps-a-plus-c"] = np.max(np.abs(epsilon * coef[:, 0] + coef[:, 2] - (1 - n)))
    return worst, k_solved, k_resid


class TestInducedStructure:
    def test_hyperplane_is_totally_geodesic(self, e3a_data):
        assert e3a_data.shape.epsilon == 1
        assert np.max(np.abs(e3a_data.shape.A)) == 0.0
        assert e3a_data.tangency_residual < 1e-12
        assert e3a_data.epsilon_residual < 1e-12

    def test_hyperplane_induced_axioms(self, e3a_data):
        res = check_axioms(e3a_data.structure, _vectors(e3a_data.points.shape[0], "E3a"))
        assert res.passed
        assert max(c.residual for c in res.checks) < 1e-9

    def test_cone_tangency_identity(self, e3b_data):
        """On |x| = |y| the normal is (x, -y)/|.| and J maps it to the radial
        direction, so g~(JN, N) = 0 identically."""
        assert e3b_data.tangency_residual < 1e-10
        assert e3b_data.shape.epsilon == 1
        assert e3b_data.epsilon_residual < 1e-12

    def test_cone_induced_axioms_and_radial_xi(self, e3b_data):
        res = check_axioms(e3b_data.structure, _vectors(e3b_data.points.shape[0], "E3b"))
        assert res.passed
        # xi is the radial direction: in the (t, a, b) chart xi ~ dt/sqrt(2)
        xi0 = e3b_data.structure.xi0
        expected = np.zeros_like(xi0)
        expected[:, 0] = 1.0 / np.sqrt(2.0)
        assert np.max(np.abs(np.abs(xi0) - expected)) < 1e-10

    def test_sphere_patch_jn_not_tangent(self):
        b = get_bundle("B1")
        pts = sample_points(b.embedding.domain, 5, derive_rng(7, "B1", "pts"))
        assert evaluate_bundle(b, pts).tangency_residual > 1e-8

    def test_lightlike_normal_reported(self):
        """A graph in a signature-(2,2) ambient whose normal becomes null is
        rejected as unsupported."""
        amb = AmbientProductModel(
            dim=4,
            coords=["u1", "u2", "v1", "v2"],
            metric=[["1", "0", "0", "0"], ["0", "1", "0", "0"],
                    ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]],
            J=[["0", "0", "1", "0"], ["0", "0", "0", "1"],
               ["1", "0", "0", "0"], ["0", "1", "0", "0"]],
        )
        # u1 = v1 graph: tangents e(u1)+e(v1), e(u2), e(v2); normal direction
        # e(u1) - e(v1) wrt the indefinite metric... g~(N,N) = 1 - 1 = 0
        emb = Embedding(coords=["s", "t", "w"], map=["s", "t", "s", "w"],
                        domain=[(-1.0, 1.0)] * 3)
        bundle = HypersurfaceBundle(name="null", ambient=amb, embedding=emb)
        pts = sample_points(emb.domain, 4, derive_rng(7, "null", "pts"))
        with pytest.raises(InducedStructureError, match="lightlike"):
            evaluate_bundle(bundle, pts)

    @pytest.mark.parametrize("factor", ["1e-5", "1e-3", "1e-2", pytest.param("1e3", marks=pytest.mark.xfail(
        strict=True, reason="jn-tangent is measured against the unnormalized normal, so it grows with |N|"))])
    def test_scaled_hyperplane_keeps_its_statuses(self, factor):
        """The rank and lightlike tests are scale-invariant: E3a's map times a
        constant is the same hyperplane, and the hypersurface suite reports
        E3a's statuses on it.  Absolute thresholds would call it
        rank-deficient at 1e-5 and lightlike at 1e-3 and 1e-2."""
        b = get_bundle("E3a")
        scaled = dataclasses.replace(b, embedding=dataclasses.replace(
            b.embedding, map=[f"{factor}*({m})" for m in b.embedding.map]))
        cfg = RunConfig(points=10)
        want = {c.id: c.status for c in run_suite(b, "hypersurface", cfg).checks}
        assert {c.id: c.status for c in run_suite(scaled, "hypersurface", cfg).checks} == want

    def test_scaled_cone_keeps_its_orientation(self):
        """The normal is oriented by a floor relative to its largest
        component: the cone's map times 1e-3 is the same cone in the flat
        ambient, with E3b's unit normal at every point.  The absolute floor
        flipped it at 8 of these 10 points."""
        b = get_bundle("E3b")
        scaled = dataclasses.replace(b, embedding=dataclasses.replace(
            b.embedding, map=[f"1e-3*({m})" for m in b.embedding.map]))
        pts = sample_points(b.embedding.domain, 10, derive_rng(1, "E3b", "points"))
        want, got = (evaluate_bundle(x, pts).shape.N for x in (b, scaled))
        assert np.max(np.abs(got - want)) < 1e-9

    def test_rank_drop_at_one_point_is_named(self):
        """The rank is tested per point: t^3 has a critical point at t = 0,
        which is named although the other point is regular."""
        b = get_bundle("E3a")
        emb = dataclasses.replace(b.embedding, map=[b.embedding.map[0], "t^3", *b.embedding.map[2:]])
        pts = np.array([[0.5, 1.0, 0.2], [0.25, 0.0, -0.5]])
        with pytest.raises(InducedStructureError, match=r"rank-deficient at point \(0\.25, 0\.0, -0\.5\)"):
            evaluate_bundle(dataclasses.replace(b, embedding=emb), pts)


class TestShapeOperator:
    def test_cone_eigenvalues_at_reference_point(self, e3b_data):
        eig = np.sort(np.linalg.eigvals(e3b_data.shape.A[0]).real)
        expected = np.array([-1.0 / np.sqrt(2.0), 0.0, 1.0 / np.sqrt(2.0)])
        assert np.max(np.abs(eig - expected)) < 1e-6

    def test_cone_zero_eigenvector_is_xi(self, e3b_data):
        Axi = np.einsum('pab,pb->pa', e3b_data.shape.A, e3b_data.structure.xi0)
        assert np.max(np.abs(Axi)) < 1e-9

    def test_self_adjointness(self, e3a_data, e3b_data):
        assert shape_self_adjoint_residual(e3a_data) < 1e-8
        assert shape_self_adjoint_residual(e3b_data) < 1e-8

    def test_h_is_eps_g_a(self, e3b_data):
        h = e3b_data.shape.h
        g = e3b_data.structure.g0
        A = e3b_data.shape.A
        assert np.max(np.abs(h - e3b_data.shape.epsilon * np.einsum('pma,pmb->pab', A, g))) < 1e-12

    def test_weingarten_matches_finite_differences(self):
        """Independent oracle: differentiate the explicit unit normal of the
        cone numerically and project; compare with the jet-built A."""
        b = get_bundle("E3b")
        pts = np.array([[1.0, 0.0, 0.0], [0.9, 0.7, 1.3], [1.4, 2.0, 0.5]])
        data = evaluate_bundle(b, pts)

        def emb_map(u):
            t, a, bb = u
            return np.array([t * np.cos(a), t * np.sin(a), t * np.cos(bb), t * np.sin(bb)])

        def normal(u):
            t, a, bb = u
            N = np.array([np.cos(a), np.sin(a), -np.cos(bb), -np.sin(bb)]) / np.sqrt(2)
            for comp in N:
                if abs(comp) > 1e-8:
                    return N if comp > 0 else -N
            return N

        h = 1e-6
        for k, u0 in enumerate(pts):
            T = np.zeros((3, 4))
            dN = np.zeros((3, 4))
            for a in range(3):
                up, um = u0.copy(), u0.copy()
                up[a] += h
                um[a] -= h
                T[a] = (emb_map(up) - emb_map(um)) / (2 * h)
                dN[a] = (normal(up) - normal(um)) / (2 * h)
            A_fd = np.zeros((3, 3))
            for a in range(3):
                coef, *_ = np.linalg.lstsq(T.T, -dN[a], rcond=None)
                A_fd[:, a] = coef
            assert np.max(np.abs(data.shape.A[k] - A_fd)) < 1e-5

    def test_graph_amplitude_continuity(self):
        """A graph hypersurface u2 = amp * f(s, t, w): A -> 0 with the
        amplitude."""
        amb = get_bundle("E3a").ambient
        norms = []
        for amp in (0.2, 0.1, 0.05):
            emb = Embedding(coords=["s", "t", "w"],
                            map=["s", f"{amp}*sin(s)*cos(w)", "t", "w"],
                            domain=[(-1.0, 1.0)] * 3)
            bundle = HypersurfaceBundle(name=f"graph{amp}", ambient=amb, embedding=emb)
            pts = sample_points(emb.domain, 8, derive_rng(7, "graph", "pts"))
            data = evaluate_bundle(bundle, pts)
            norms.append(float(np.max(np.abs(data.shape.A))))
        assert norms[0] > norms[1] > norms[2]
        assert norms[2] < 0.12


class TestInducedDerivatives:
    def test_hyperplane_trivial(self, e3a_data):
        res = verify_induced_derivatives(e3a_data, _vectors(e3a_data.points.shape[0], "E3a-ind"))
        assert res.passed
        assert max(c.residual for c in res.checks) < 1e-9

    def test_cone_displays(self, e3b_data):
        res = verify_induced_derivatives(e3b_data, _vectors(e3b_data.points.shape[0], "E3b-ind"))
        assert res.passed
        assert max(c.residual for c in res.checks) < 1e-7

    def test_wrong_epsilon_sign_detected(self, e3b_data):
        """Flipping the declared eps flips the sign of the (nabla eta)
        display's right side, so the check must fail."""
        s = e3b_data.structure

        class Flipped:
            structure = s
            shape = type(e3b_data.shape)(A=e3b_data.shape.A, N=e3b_data.shape.N,
                                         epsilon=-e3b_data.shape.epsilon, h=e3b_data.shape.h)

        res = verify_induced_derivatives(Flipped, _vectors(s.npoints, "E3b-flip"))
        assert "hypersurface.induced-grad-eta" in [c.id for c in res.checks if c.status == "fail"]


class TestAmbient:
    def test_flat_product_ambient(self, e3a_data):
        res = check_ambient(e3a_data.ambient)
        assert res.passed

    def test_curved_product_ambient_has_parallel_j(self):
        """Block-diagonal J over a product metric (flat R^2 times a curved
        half-plane factor) still has parallel J."""
        amb = AmbientProductModel(
            dim=4,
            coords=["u1", "u2", "v1", "v2"],
            metric=[["1", "0", "0", "0"], ["0", "1", "0", "0"],
                    ["0", "0", "1/(v2^2)", "0"], ["0", "0", "0", "1/(v2^2)"]],
            J=[["1", "0", "0", "0"], ["0", "1", "0", "0"],
               ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]],
        )
        rng = np.random.default_rng(5)
        pts = np.column_stack([rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6),
                               rng.uniform(-1, 1, 6), rng.uniform(0.5, 2.0, 6)])
        res = check_ambient(AmbientJets(amb, pts))
        assert res.passed
        assert res.residual("hypersurface.ambient-j-parallel") < 1e-8

    def test_gauss_equation_consistency(self, e3a_data, e3b_data):
        assert gauss_consistency_residual(e3a_data) < 1e-6
        assert gauss_consistency_residual(e3b_data) < 1e-6


class TestCharacterization:
    def test_cone_iff_both_sides_false(self, e3b_data):
        vec = _vectors(e3b_data.points.shape[0], "E3b-char")
        res = check_ps_characterization(e3b_data, vec)
        assert res.passed
        assert res.residual("hypersurface.characterization-iff") == 0.0

    def test_hyperplane_iff_both_sides_false(self, e3a_data):
        res = check_ps_characterization(e3a_data, _vectors(e3a_data.points.shape[0], "E3a-char"))
        assert res.passed

    def test_planted_operator_satisfies_defining_equation_exactly(self, rng):
        """Substituting A = -eps I + eps eta(x)xi into the induced (nabla phi)
        display reproduces the para-Sasakian right side pointwise."""
        for eps in (1, -1):
            g, phi, xi, eta = random_pointwise_structure(rng, 4, eps)
            A = -eps * np.eye(4) + eps * np.outer(xi, eta)
            X = rng.uniform(-1, 1, (6, 4))
            Y = rng.uniform(-1, 1, (6, 4))
            for x, y in zip(X, Y):
                display = eta @ y * (A @ x) + eps * (A @ x) @ g @ y * xi
                phix, phiy = phi @ x, phi @ y
                ps_rhs = -(phix @ g @ phiy) * xi - eps * (eta @ y) * (phi @ phix)
                assert np.max(np.abs(display - ps_rhs)) < 1e-12

    def test_constructive_inverse_recovers_planted_operator(self, rng):
        for eps in (1, -1):
            g, phi, xi, eta = random_pointwise_structure(rng, 3, eps)
            struct = _pointwise_structure(g, phi, xi, eta, eps)
            vec = random_vectors(rng, 1, 24, 3)
            A_hat, rank = recover_shape_operator(struct, vec)
            assert rank == 9
            target = -eps * np.eye(3) + eps * np.outer(xi, eta)
            assert np.max(np.abs(A_hat[0] - target)) < 1e-10
            # random structures stacked into one batch: every point's system
            # has rank n^2 and A_hat[p] is that point's own -eps I + eps eta(x)xi
            draws = [random_pointwise_structure(rng, 3, eps) for _ in range(6)]
            g, phi, xi, eta = (np.stack(t) for t in zip(*draws))
            struct = _pointwise_structure(g, phi, xi, eta, eps)
            A_hat, rank = recover_shape_operator(struct, random_vectors(rng, 6, 24, 3))
            assert rank == 9
            for p in range(6):
                target = -eps * np.eye(3) + eps * np.outer(xi[p], eta[p])
                assert np.max(np.abs(A_hat[p] - target)) < 1e-10


def _pointwise_structure(g, phi, xi, eta, eps):
    """Wrap numeric tensors, at one point or stacked over points, as a
    structure with constant jets."""
    from paracheck.expr_jet import JetSpace

    if np.ndim(xi) == 1:
        g, phi, xi, eta = (np.asarray(a)[None] for a in (g, phi, xi, eta))
    P, n = xi.shape
    space = JetSpace.get(n, 2)
    m = space.ncoeffs

    def lift(arr, p, q):
        comps = np.zeros(arr.shape + (m,))
        comps[..., 0] = arr
        return TensorValue(n, p, q, comps, space)

    return ParacontactStructure(np.zeros((P, n)), eps,
                                g=lift(g, 0, 2), phi=lift(phi, 1, 1),
                                xi=lift(xi, 1, 0), eta=lift(eta, 0, 1))


class TestQuasiUmbilical:
    def test_planted_operator_exact(self, rng):
        from paracheck.hypersurface_lab import ShapeData

        g, phi, xi, eta = random_pointwise_structure(rng, 4, -1)
        eps = -1
        A = -eps * np.eye(4) + eps * np.outer(xi, eta)
        struct = _pointwise_structure(g, phi, xi, eta, eps)
        h = eps * np.einsum('ma,mb->ab', A, g)
        shape = ShapeData(A=A[None], N=np.zeros((1, 5)), epsilon=eps, h=h[None])
        res = quasi_umbilical_check(shape, struct)
        assert res.passed
        assert res.residual("hypersurface.quasi-umbilical") < 1e-12

    def test_hyperplane_not_applicable(self):
        cfg = RunConfig(points=10, seed=7, hypersurface_subset="characterization")
        report = run_suite(get_bundle("E3a"), "hypersurface", cfg)
        rec = next(c for c in report.checks if c.id == "hypersurface.quasi-umbilical")
        assert rec.status == "not-applicable"
        assert rec.detail.startswith("gate shape-characterized: ")

    def test_perturbed_operator_fails(self, rng):
        from paracheck.hypersurface_lab import ShapeData

        g, phi, xi, eta = random_pointwise_structure(rng, 3, 1)
        A = -np.eye(3) + np.outer(xi, eta) + 5e-3 * np.outer(xi, eta)
        struct = _pointwise_structure(g, phi, xi, eta, 1)
        h = np.einsum('ma,mb->ab', A, g)
        shape = ShapeData(A=A[None], N=np.zeros((1, 4)), epsilon=1, h=h[None])
        res = quasi_umbilical_check(shape, struct)
        assert not res.passed


class TestSyntheticGauss:
    @pytest.mark.parametrize("eps,n", [(1, 3), (1, 5), (-1, 3), (-1, 5)])
    def test_trials(self, eps, n):
        out = synthetic_gauss_check(eps, n, trials=25, seed=42)
        res = out.result
        assert res.get("synthetic.quasi-umbilical-exact").residual < 1e-12
        assert res.get("synthetic.gauss-vs-derived-display").residual < 1e-10
        assert res.get("synthetic.gauss-vs-printed-display").status == "printed-form-mismatch"
        # the xi identity on the computed reduction forces k = -eps, every trial
        assert np.max(np.abs(out.k_recovered - (-eps))) < 1e-10
        assert res.get("synthetic.k-vs-printed").status == "printed-form-mismatch"
        assert abs(res.get("synthetic.k-vs-printed").residual - abs(-eps - (2 - eps))) < 1e-10
        assert res.get("synthetic.ricci-vs-derived-form").residual < 1e-10
        assert res.get("synthetic.printed-chain-self-consistency").residual < 1e-10
        assert res.get("synthetic.eps-a-plus-c").residual < 1e-10
        assert res.get("synthetic.einstein-like-fit").residual < 1e-10

    def test_axioms_of_random_structures(self, rng):
        for eps in (1, -1):
            for n in (3, 4, 5):
                g, phi, xi, eta = random_pointwise_structure(rng, n, eps)
                I = np.eye(n)
                assert np.max(np.abs(phi @ phi - (I - np.outer(xi, eta)))) < 1e-10
                assert eta @ xi == pytest.approx(1.0)
                assert np.max(np.abs(phi @ xi)) < 1e-12
                assert np.max(np.abs(eta @ phi)) < 1e-12
                assert np.max(np.abs(phi.T @ g @ phi - (g - eps * np.outer(eta, eta)))) < 1e-10
                assert xi @ g @ xi == pytest.approx(eps)

    def test_perturbed_negative_control(self):
        out = synthetic_gauss_check(1, 3, trials=5, seed=42, perturb_a=5e-3)
        assert out.result.get("synthetic.quasi-umbilical-exact").residual > 1e-12

    def test_k_input_restriction(self):
        out = synthetic_gauss_check(1, 3, trials=3, seed=1, k_input=2.0)
        assert out.result.get("synthetic.gauss-vs-derived-display").residual < 1e-10

    def test_trials_do_not_depend_on_their_block(self):
        """Trial t gives the same k and k residual, bit for bit, whether it
        runs alone in its draw block or chain block, or inside a full one:
        the request crosses a chain-block and a draw-block boundary."""
        draw_block = max(1, hypersurface_lab._BLOCK_ELEMENTS // 5 ** 3)
        chain_block = max(1, hypersurface_lab._BLOCK_ELEMENTS // 5 ** 4)
        assert 1 < chain_block < draw_block
        full = synthetic_gauss_check(-1, 5, trials=draw_block + chain_block + 3, seed=3)
        for m in (1, chain_block + 1, draw_block + 1):
            prefix = synthetic_gauss_check(-1, 5, trials=m, seed=3)
            assert np.array_equal(full.k_recovered[:m], prefix.k_recovered)
            assert np.array_equal(full.k_solve_residual[:m], prefix.k_solve_residual)

    @pytest.mark.parametrize("perturb_a", [0.0, 5e-3])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("eps", [1, -1])
    def test_half_chain_matches_full_tensor_oracle(self, eps, n, perturb_a):
        """The chain on the x < y half gives the display maxima of the full
        tensors bit for bit, and every other record, k and the k residual to
        1e-14; perturbing A makes the display residuals non-zero."""
        draws = [hypersurface_lab._draw_trial(derive_rng(11, "half-chain", eps + 1, n, t), n) for t in range(40)]
        drawn = hypersurface_lab._assemble_structures(draws, n, eps)
        ks = (0.0, 1.0, 2.0, 3.0)
        worst, k, k_resid = hypersurface_lab._gauss_chain(eps, *drawn, ks, perturb_a)
        ref_worst, ref_k, ref_resid = _full_gauss_chain(eps, *drawn, ks, perturb_a)
        assert worst.keys() == ref_worst.keys()
        if perturb_a:
            assert ref_worst["gauss-vs-derived-display"] > 1e-6
        for name in ("quasi-umbilical-exact", "gauss-vs-derived-display", "gauss-vs-printed-display"):
            assert worst[name] == ref_worst[name], name
        for name in worst:
            assert abs(worst[name] - ref_worst[name]) <= 1e-14, name
        assert np.max(np.abs(k - ref_k)) <= 1e-14
        assert np.max(np.abs(k_resid - ref_resid)) <= 1e-14

    def test_rejected_draws_are_redrawn_from_their_own_stream(self, monkeypatch):
        """With the |det g| floor raised, some draws are rejected, some of
        them twice or more.  Each trial's accepted (g, phi, xi, eta) is, bit
        for bit, the first draw above the floor from its own generator
        derive_rng(seed, "synthetic-gauss", eps + 1, n, t), as a per-trial
        loop gives it, at n = 3 and n = 5; a redraw that lost the
        generator's buffered 32-bit half would differ."""
        floor, eps, trials, seed = 0.5, 1, 60, 5
        monkeypatch.setattr(hypersurface_lab, "SYNTHETIC_DET_FLOOR", floor)
        chain, blocks = hypersurface_lab._gauss_chain, []

        def recording_chain(epsilon, g, phi, xi, eta, *rest):
            blocks.append((g, phi, xi, eta))
            return chain(epsilon, g, phi, xi, eta, *rest)

        monkeypatch.setattr(hypersurface_lab, "_gauss_chain", recording_chain)
        for n in (3, 5):
            expected, rejections = [], []
            for t in range(trials):
                rng = derive_rng(seed, "synthetic-gauss", eps + 1, n, t)
                rejections.append(0)
                while abs(np.linalg.det((drawn := random_pointwise_structure(rng, n, eps))[0])) <= floor:
                    rejections[-1] += 1
                expected.append(drawn)
            blocks.clear()
            out = synthetic_gauss_check(eps, n, trials, seed)
            assert max(rejections) >= 2
            assert 0 < out.resampled == sum(rejections)
            accepted = [np.concatenate(arrays) for arrays in zip(*blocks)]
            for t in range(trials):
                for want, got in zip(expected[t], accepted):
                    assert want.tobytes() == got[t].tobytes(), (n, t)
            assert out.result.passed, [c.id for c in out.result.checks if c.status == "fail"]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_seeded_generator_draws_as_derive_rng_does(self, n):
        """One generator set by _seed from a derive_states row draws a trial,
        and the trial after it, exactly as the trial's own derive_rng
        generator does: the same p and the same raw arrays, bit for bit."""
        bitgen = np.random.PCG64(0)
        reused = np.random.Generator(bitgen)
        for t, row in enumerate(derive_states(42, "synthetic-gauss", 2, n, counters=range(12))):
            own = derive_rng(42, "synthetic-gauss", 2, n, t)
            _seed(bitgen, row)
            for _ in range(2):
                (p, blocks, frame), (own_p, own_blocks, own_frame) = (
                    hypersurface_lab._draw_trial(r, n) for r in (reused, own))
                assert p == own_p and len(blocks) == len(own_blocks)
                for a, b in zip([*(x for blk in blocks for x in blk), *frame],
                                [*(x for blk in own_blocks for x in blk), *own_frame]):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 42, 1999])
    def test_signature_signs_draw_as_choice_does(self, seed):
        """The block signs are drawn as np.where(integers(0, 2, k) == 1,
        1.0, -1.0): the signs rng.choice([-1.0, 1.0], k) draws, leaving the
        generator in the same state, so the synthetic trials keep their
        numbers."""
        for k in range(1, 8):
            by_choice, by_integers = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                a = by_choice.choice([-1.0, 1.0], k)
                b = np.where(by_integers.integers(0, 2, k) == 1, 1.0, -1.0)
                assert np.array_equal(a, b)
                assert by_choice.bit_generator.state == by_integers.bit_generator.state

    def test_input_validation(self):
        with pytest.raises(ValueError):
            synthetic_gauss_check(1, 2, trials=1, seed=0)
        with pytest.raises(ValueError):
            synthetic_gauss_check(1, 3, trials=0, seed=0)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_pull_back_matches_its_einsum(n):
    """The Gauss check's staged pullback R(T_x, T_y, T_z, T_w) equals the
    five-operand einsum it replaces, within 1e-13 of the largest entry."""
    rng = np.random.default_rng(n)
    R = rng.standard_normal((4,) + (n + 1,) * 4)
    T = rng.standard_normal((4, n, n + 1))
    ref = np.einsum("pABCD,pxA,pyB,pzC,pwD->pxyzw", R, T, T, T, T)
    got = pull_back(R, T)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
