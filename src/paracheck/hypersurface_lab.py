"""Hypersurfaces of indefinite almost product Riemannian ambients.

Given an embedding chart into an ambient (n+1)-manifold carrying a product
structure J with g~(JX, JY) = g~(X, Y) and parallel J, this module derives
the induced structure (phi, xi, eta, g, eps) from the tangential/normal
split of J, the shape operator A from the Weingarten map (one jet inverse of
the frame serves both), and verifies, on the values of
:class:`HypersurfaceData`, the induced covariant-derivative displays, the
shape-operator characterization of para-Sasakian hypersurfaces, and the
Gauss-equation algebra.

The final-theorem verification is synthetic: a random tangent-space
structure is drawn, A = -eps I + eps eta(x)xi is planted, the ambient
almost-constant-curvature ansatz is pushed through the Gauss equation, and
the resulting displays are compared coefficient by coefficient.  Where the
published displays disagree with the computed reduction (they do: the gg
coefficient and the eta-cross prefactor, hence the recovered constant and
the final Ricci form), both variants are reported, with the re-derived one
normative.  Each block of trials adds its gaps to the one recorder, which
keeps each record's largest over the trials.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .expr_jet import JetSpace, _locate, _moveaxis
from .geometry_engine import ConnectionAtPoint, CurvatureAtPoint, christoffel, covariant_derivative, curvature
from .models import FIELD_ORDER, METRIC_ORDER, _eval_grid, _field_jets
from .paracontact_core import ParacontactStructure, VectorPairs, apply_op, form, pair
from .report import StructureCheckResult, _max_abs, residual_norm
from .sampling import _halves, _seed, derive_states
from .tensor_algebra import TensorValue, check_metric, invert_jet_matrix, min_norm_solve

# The ambient g~ is evaluated to at most order 2: the Gauss check reads R~
# values, and the Weingarten map and nabla J~ read Gamma~ values.
AMBIENT_METRIC_ORDER = 2
LIGHTLIKE_FLOOR = 1e-6
COMPONENT_SIGN_FLOOR = 1e-8
SYNTHETIC_MAX_DIM = 40         # synthetic memory grows as n^4: a request peaks near 91 MB RSS at n = 40
SYNTHETIC_MAX_TRIALS = 10 ** 6  # bounds run time: about 22 us a trial at n = 3 (22 s at the bound), 60 ms at n = 40
PS_POINT_THRESHOLD = 1e-7      # the characterization calls a point para-Sasakian when its rho is at most this
# synthetic trials are drawn and evaluated in blocks of max(1, _BLOCK_ELEMENTS // max(n**3, P**2)) trials,
# P = n(n-1)/2, so a block's draws, about 3 n^2 <= n^3 floats a trial, and the chain's largest arrays, the
# (trials, P, P) x < y, z < w quarters of curvature-shaped tensors, stay within 128 KB (n**3 is the larger
# term up to n = 5, P**2 from n = 6 on); _ricci's spread is 2n/(n-1) times a quarter
_BLOCK_ELEMENTS = 2 ** 14


class InducedStructureError(ValueError):
    pass


@dataclass
class AmbientProductModel:
    """Ambient chart: metric and product-structure expressions over the
    ambient coordinates."""

    dim: int
    coords: list[str]
    metric: list[list[str]]
    J: list[list[str]]


@dataclass
class Embedding:
    """Chart-to-ambient map with an orientation sign for the normal."""

    coords: list[str]
    map: list[str]
    domain: list[tuple[float, float]]
    orientation: int = 1


@dataclass
class HypersurfaceBundle:
    name: str
    ambient: AmbientProductModel
    embedding: Embedding
    description: str = ""

    @property
    def dim(self) -> int:
        return self.ambient.dim - 1


class AmbientJets:
    """The ambient g~ (jets of min(order, AMBIENT_METRIC_ORDER): the Gauss
    check reads R~ values, and the Weingarten map and nabla J~ read Gamma~
    values) and J~ (min(order, FIELD_ORDER): parallel J reads one derivative)
    at a batch of ambient points, with the Levi-Civita connection, the values
    of nabla J~ and the curvature; each is built on first use and kept."""

    def __init__(self, model: AmbientProductModel, points: np.ndarray, order: int = AMBIENT_METRIC_ORDER):
        self.model = model
        self.points = np.asarray(points, dtype=float)
        self.order = order

    @cached_property
    def g(self) -> TensorValue:
        return _field_jets(self.model, "metric", 0, 2, min(self.order, AMBIENT_METRIC_ORDER), self.points,
                           "ambient.metric")

    @cached_property
    def J(self) -> TensorValue:
        return _field_jets(self.model, "J", 1, 1, min(self.order, FIELD_ORDER), self.points, "ambient.J")

    @cached_property
    def connection(self) -> ConnectionAtPoint:
        return christoffel(self.g)

    @cached_property
    def nabla_J(self) -> np.ndarray:
        """Values of (nabla J~)^A_{CB} = (nabla_{e_C} J~)^A_B, shape (P, n+1, n+1, n+1)."""
        return covariant_derivative(self.J, self.connection).components[..., 0]

    @cached_property
    def curvature(self) -> CurvatureAtPoint:
        return curvature(self.connection)


@dataclass
class HypersurfaceData:
    """Everything evaluated along the embedding at a batch of chart points.
    The tangency of JN, the ambient jets, the tangent frame and the unit
    normal's g~(N, N) are measured at once.  The induced package exists only
    when JN is tangent: ``build_induced`` builds it on the first read of
    ``structure``, ``A`` or ``frame_residual``.  h = eps g(A., .) and
    ``shape_gap``, rho2 of the characterization, are each built on their own
    first read."""

    tangency_residual: float       # max |g~(JN, N)| over the samples
    ambient: AmbientJets           # g~ and J~ at F(points)
    tangent_frame: np.ndarray      # (P, n, n+1) values T_a^B = d_a F^B
    epsilon_residual: float        # max |g~(N, N) - eps| over the samples
    build_induced: Callable[[], tuple[ParacontactStructure, np.ndarray, float]]

    induced = cached_property(lambda self: self.build_induced())
    structure = property(lambda self: self.induced[0])          # the induced (phi, xi, eta, g, eps)
    A = property(lambda self: self.induced[1])                  # (P, n, n) values A^a_b of the shape operator
    frame_residual = property(lambda self: self.induced[2])     # max |normal part of the Weingarten derivative|
    h = cached_property(lambda self: self.structure.epsilon * np.einsum('pma,pmb->pab', self.A, self.structure.g0))
    shape_gap = cached_property(lambda self: shape_characterization_gap_per_point(self.structure, self.A))


# --------------------------------------------------------------------------
# the induced package
# --------------------------------------------------------------------------


def evaluate_bundle(bundle: HypersurfaceBundle, points: np.ndarray, order: int = METRIC_ORDER) -> HypersurfaceData:
    """Push the embedding through the jet pipeline: tangent frames, unit
    normal N, the tangency of JN and g~(N, N) against eps at once; on first
    read, the induced (phi, xi, eta, g) and the shape operator, whose
    Weingarten map reads the constant term of the split's frame inverse.  N's
    lowered form is the normal covector nu itself, with N's sign.  The
    embedding is evaluated to order ``order`` + 1 so that the induced g
    reaches ``order``; the normal, the frame split, phi, xi, eta and J~ are
    built at min(order, FIELD_ORDER), which the Weingarten map reads to order
    1, and the ambient jets at F(points) to ``order`` at most.

    The ambient metric at F(points) and the induced one must pass
    :func:`check_metric`, and the normal must be neither lightlike nor flip its
    causal character.  A JN that is not tangent is measured
    (``tangency_residual``), not rejected; the checks measure the induced axioms."""
    amb = bundle.ambient
    emb = bundle.embedding
    n = bundle.dim
    N1 = amb.dim
    points = np.asarray(points, dtype=float)
    P = points.shape[0]
    space = JetSpace.get(n, order + 1)
    gspace = space.lower
    fspace = JetSpace.get(n, min(order, FIELD_ORDER))

    # embedding jets and tangent frame T_a^B = d_a F^B, jets of gspace
    F = _eval_grid(emb.map, emb.coords, space, space.point_jets(points), points, "embedding.map")   # (P, N1, m)
    T_g = space.grad(F)                             # (P, n, N1, m)

    # ambient tensors along F, as chart jets
    F_jets = [gspace.restrict(F[:, B]) for B in range(N1)]
    g_amb_g = _eval_grid(amb.metric, amb.coords, gspace, F_jets, points, "ambient.metric")   # (P, N1, N1, m)
    J_amb = _eval_grid(amb.J, amb.coords, fspace, [fspace.restrict(f) for f in F_jets], points, "ambient.J")

    # from here on, jets of fspace
    T, g_amb = fspace.restrict(T_g), fspace.restrict(g_amb_g)

    # normal covector nu, the signed cofactor vector of the Jacobian rows; its values nu0 from the numeric
    # minors of T0, so the cost is polynomial in the ambient dimension
    T0 = T[..., 0]                                                    # (P, n, N1)
    minors = _moveaxis(T0[:, :, [[c for c in range(N1) if c != B] for B in range(N1)]], 2, 1)   # (P, N1, n, n)
    nu0 = (-1.0) ** (n + np.arange(N1)) * np.linalg.det(minors)
    # rank per point: |nu0| against Hadamard's bound, the product of the Jacobian rows' norms
    flat = ~(np.linalg.norm(nu0, axis=1) > 1e-12 * np.linalg.norm(T0, axis=2).prod(axis=1))
    if flat.any():
        raise InducedStructureError(f"embedding differential is rank-deficient at point {_locate(flat, points)}")
    # its jets: the last column of the jet inverse of the rows (T_1 .. T_n, nu0) annihilates every T_a and
    # pairs to 1 with nu0, so times |nu0|^2 it is a multiple of nu whose values are nu0 (jn-tangent reads
    # those values; every other use of nu is normalized, so the multiple cancels)
    rows = np.concatenate([T, fspace.constant(nu0[:, None], (P, 1, N1))], axis=1)   # (P, N1, N1, m)
    nu = invert_jet_matrix(fspace, rows)[:, :, n] * (nu0 ** 2).sum(axis=1)[:, None, None]
    check_metric(g_amb[..., 0], points, "ambient.metric")
    N_un = fspace.matmul(invert_jet_matrix(fspace, g_amb), nu[:, :, None])[:, :, 0]   # N^A = g~^{AB} nu_B

    # orientation: first component above COMPONENT_SIGN_FLOOR of the largest made positive; N_un and its
    # lowered form nu take the same sign
    vals = N_un[..., 0]
    big = np.abs(vals) > COMPONENT_SIGN_FLOOR * _max_abs(vals, 1)[:, None]
    flip = np.where(vals[np.arange(P), np.argmax(big, axis=1)] < 0, -1.0, 1.0)
    sign = (emb.orientation * flip)[:, None, None]
    N_un, N_low = N_un * sign, nu * sign

    # normalize to |g~(N, N)| = 1 and measure the tangency g~(N, JN) of JN = xi
    q = fspace.matmul(N_low[:, None], N_un[:, :, None])[:, 0, 0]     # g~(N, N) jets
    q0 = q[..., 0]
    # |g~(N, N)| relative to |N|^2 max |g~|, which bounds it up to a factor n + 1
    light = np.abs(q0) / ((N_un[..., 0] ** 2).sum(axis=1) * _max_abs(g_amb[..., 0], (1, 2)))
    if light.min() < LIGHTLIKE_FLOOR:
        k = int(np.argmin(light))
        raise InducedStructureError(
            f"lightlike normal direction (|g~(N,N)| = {abs(q0[k]):.2e}, {light[k]:.2e} of |N|^2 max|g~|) "
            f"at point {tuple(float(c) for c in points[k])}: unsupported")
    eps = int(np.sign(q0[0]))
    flips = np.sign(q0) != eps
    if flips.any():
        raise InducedStructureError(f"normal causal character flips: g~(N,N) has sign {-eps:+d} at point "
                                    f"{_locate(flips, points)}, {eps:+d} at the first")
    scale = fspace.reciprocal(fspace.sqrt(eps * q))
    N_hat = fspace.mul(N_un, scale[:, None, :])
    JN = fspace.matmul(J_amb, N_hat[:, :, None])[:, :, 0]
    tangency = float(_max_abs(fspace.matmul(N_low[:, None], JN[:, :, None])[:, 0, 0, 0]))
    N0 = N_hat[..., 0]
    eps_res = float(_max_abs(pair(g_amb[..., 0], N0[:, None], N0[:, None]) - eps))
    ambient = AmbientJets(amb, F[..., 0], order)

    def build_induced() -> tuple[ParacontactStructure, np.ndarray, float]:
        # induced metric g_ab = g~(T_a, T_b)
        T_low = gspace.matmul(T_g, g_amb_g.swapaxes(1, 2))         # (P, n, N1, m): g~(T_a, .)
        gT = gspace.matmul(T_low, T_g.swapaxes(1, 2))               # (P, n, n, m)
        check_metric(gT[..., 0], points, "induced metric")

        # frame matrix columns (T_1 .. T_n, N) and its jet inverse
        frame = np.concatenate([_moveaxis(T, 1, 2), N_hat[:, :, None, :]], axis=2)  # (P, N1, n+1, m)
        frame_inv = invert_jet_matrix(fspace, frame)

        # J N = xi (must be tangent), J T_a = phi^b_a T_b + eta_a N: the columns
        # (J N, J T_1 .. J T_n) in the frame (T_1 .. T_n, N)
        JT = fspace.matmul(T, J_amb.swapaxes(1, 2))                         # (P, n, N1, m): J T_a
        V = np.concatenate([JN[:, None], JT], axis=1)                       # (P, n+1, N1, m)
        x = fspace.matmul(V, frame_inv.swapaxes(1, 2))                      # (P, n+1, n+1, m)
        xi_c, phi_c, eta_c = x[:, 0, :n], x[:, 1:, :n].swapaxes(1, 2), x[:, 1:, n]

        structure = ParacontactStructure(
            points, eps,
            g=TensorValue(n, 0, 2, gT, gspace),
            phi=TensorValue(n, 1, 1, phi_c, fspace),
            xi=TensorValue(n, 1, 0, xi_c, fspace),
            eta=TensorValue(n, 0, 1, eta_c, fspace),
        )

        # shape operator: nabla~_{T_a} N = -A T_a, ambient Christoffels at F(p); the coefficients of W_a
        # in the frame are read off the constant term of the frame's jet inverse
        Gam_amb = ambient.connection.gamma.components[..., 0]        # (P, C, A, B)
        dN = fspace.gradient_values(N_hat)                 # (P, N1, n): d_a (N o F)^C
        W = np.einsum('pca->pac', dN) + apply_op(Gam_amb, T0, N0[:, None])   # Gamma~^C_AB T_a^A N^B
        x = frame_inv[..., 0] @ _moveaxis(W, 1, 2)         # (P, n+1, n): coeffs of W_a
        return structure, -x[:, :n, :], float(_max_abs(x[:, n, :]))     # A^b_a, the normal part

    return HypersurfaceData(tangency, ambient, T0, eps_res, build_induced)


# --------------------------------------------------------------------------
# ambient and induced checks
# --------------------------------------------------------------------------


def check_ambient(res: StructureCheckResult, ambient: AmbientJets):
    """J^2 = I, g~(JX,JY) = g~(X,Y), and parallel J at the ambient points."""
    J0 = ambient.J.components[..., 0]
    g0 = ambient.g.components[..., 0]
    JJ = np.einsum('pab,pbc->pac', J0, J0)
    res.add("hypersurface.ambient-j-squared", JJ - np.eye(ambient.model.dim), J0)
    pullback = J0.swapaxes(1, 2) @ g0 @ J0
    res.add("hypersurface.ambient-j-metric", pullback - g0, g0)
    res.add("hypersurface.ambient-j-parallel", ambient.nabla_J, J0)


def verify_induced_derivatives(res: StructureCheckResult, data: HypersurfaceData, v: VectorPairs):
    """The three induced covariant-derivative displays:

        (nabla_X phi) Y = eta(Y) A X + eps g(A X, Y) xi
        (nabla_X eta) Y = -eps g(A X, phi Y)
        nabla_X xi      = -phi A X
    """
    s = v.struct
    eps = s.epsilon
    A = data.A
    phi, xi, eta, g = s.phi0, s.xi0, s.eta0, s.g0
    X, Y = v.X, v.Y

    lhs = v.grad_phi
    AX = apply_op(A, X)
    rhs = form(eta, Y)[..., None] * AX + eps * pair(g, AX, Y)[..., None] * xi[:, None, :]
    res.add("hypersurface.induced-grad-phi", lhs - rhs, lhs, rhs, X, Y)

    lhs = pair(s.nabla_eta, X, Y)
    rhs = -eps * pair(g, AX, v.phiY)
    res.add("hypersurface.induced-grad-eta", lhs - rhs, lhs, rhs, X, Y)

    rhs_xi = -np.einsum('pam,pmi->pai', phi, A)
    res.add("hypersurface.induced-grad-xi", s.nabla_xi - rhs_xi, s.nabla_xi, rhs_xi)


def check_induced_frame(res: StructureCheckResult, data: HypersurfaceData, axioms: StructureCheckResult):
    """The induced frame: JN and the Weingarten map tangent, A self-adjoint,
    g~(N, N) = eps at every sample, and the worst of the structure ``axioms``
    checked on the induced structure."""
    res.add("hypersurface.jn-tangent", data.tangency_residual)
    res.add("hypersurface.weingarten-tangent", data.frame_residual)
    Alow = data.structure.epsilon * data.h                           # g(A., .)
    res.add("hypersurface.shape-self-adjoint", Alow - Alow.swapaxes(1, 2), Alow)
    res.add("hypersurface.epsilon-consistent", data.epsilon_residual, detail=f"eps = {data.structure.epsilon:+d}")
    for c in axioms.records.values():
        res.add("hypersurface.induced-axioms", c.residual)


def pull_back(R: np.ndarray, T: np.ndarray) -> np.ndarray:
    """R(T_x, T_y, T_z, T_w) of a covariant 4-tensor R (P, N, N, N, N) along frames T (P, n, N):
    four matmuls, each pulling back the first ambient slot and moving the new tangent slot last."""
    for _ in range(4):
        R = _moveaxis(T @ R.reshape(R.shape[:2] + (-1,)), 1, -1).reshape(R.shape[:1] + R.shape[2:] + T.shape[1:2])
    return R


def check_gauss_equation(res: StructureCheckResult, data: HypersurfaceData):
    """Intrinsic R against ambient R restricted plus the eps (h wedge h)
    correction, classical index order."""
    s = data.structure
    eps = s.epsilon
    h = data.h
    R_int = s.curvature.riemann_dddd.components[..., 0]
    R_amb = data.ambient.curvature.riemann_dddd.components[..., 0]
    R_res = pull_back(R_amb, data.tangent_frame)
    corr = eps * (np.einsum('pyz,pxw->pxyzw', h, h) - np.einsum('pxz,pyw->pxyzw', h, h))
    res.add("hypersurface.gauss-equation", R_int - R_res - corr, R_int, R_res, corr)


# --------------------------------------------------------------------------
# para-Sasakian characterization
# --------------------------------------------------------------------------


def characterized_shape(eps: int, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """The shape operator -eps I + eps eta(x)xi of a para-Sasakian
    hypersurface, (P, n, n) values A^a_b, from the values of xi and eta (P, n)."""
    return -eps * np.eye(xi.shape[-1])[None] + eps * np.einsum('pa,pb->pab', xi, eta)


def shape_characterization_gap_per_point(struct: ParacontactStructure, A: np.ndarray) -> np.ndarray:
    """The residual of A = -eps I + eps eta(x)xi at each point, normalized by A."""
    return residual_norm(A - characterized_shape(struct.epsilon, struct.xi0, struct.eta0), A, axis=(1, 2))


def recover_shape_operator(v: VectorPairs) -> tuple[np.ndarray, int]:
    """Solve the induced (nabla phi) display against the pairs' para-Sasakian
    right side as a linear system in A; at every point of any valid structure
    this has the unique solution -eps I + eps eta(x)xi.

    Returns (A_hat per point, min system rank over points).
    """
    struct, X, Y = v.struct, v.X, v.Y
    n = struct.dim
    P, V = X.shape[:2]
    if V * n < n * n:
        raise ValueError(f"need at least {n} vector pairs to determine A, got {V}")
    # row (v, l), unknown A^m_c:
    # eta(Y) A X + eps g(A X, Y) xi = -g(phi X, phi Y) xi - eps eta(Y) phi^2 X
    coef = (form(struct.eta0, Y)[:, :, None, None] * np.eye(n)
            + struct.epsilon * struct.xi0[:, None, :, None] * apply_op(struct.g0, Y)[:, :, None, :])
    rows = np.einsum('pvlm,pvc->pvlmc', coef, X).reshape(P, V * n, n * n)
    sol, rank, _ = min_norm_solve(rows, v.rhs.reshape(P, V * n))
    return sol.reshape(P, n, n), int(rank.min())


def check_ps_characterization(res: StructureCheckResult, data: HypersurfaceData, v: VectorPairs):
    """The equivalence "para-Sasakian iff A = -eps I + eps eta(x)xi", asserted
    pointwise, plus the constructive recovery of A from the displays."""
    s = data.structure
    rho1, rho2 = v.rho1, data.shape_gap
    # a point where either side is NaN violates the equivalence
    mismatch = np.isnan(rho1 + rho2) | ((rho1 <= PS_POINT_THRESHOLD) != (rho2 <= PS_POINT_THRESHOLD))
    res.add("hypersurface.characterization-iff", mismatch.sum(),
            detail=f"rho1 in [{rho1.min():.2e}, {rho1.max():.2e}], rho2 in [{rho2.min():.2e}, {rho2.max():.2e}]")

    A_hat, rank = recover_shape_operator(v)
    target = characterized_shape(s.epsilon, s.xi0, s.eta0)
    res.add("hypersurface.characterization-linear-solve", A_hat - target if rank == s.dim ** 2 else np.inf, A_hat,
            target, detail=f"linear system rank {rank} of {s.dim ** 2}")


def quasi_umbilical_check(res: StructureCheckResult, h: np.ndarray, struct: ParacontactStructure):
    """The quasi-umbilical decomposition h = -g + eps eta(x)eta (alpha = -1,
    beta = eps, u = eta) of the (P, n, n) values h, which holds when A is the
    characterized operator."""
    res.add("hypersurface.quasi-umbilical", h + struct.g0 - struct.epsilon * struct.ee0)


# --------------------------------------------------------------------------
# synthetic tangent-space models and the Gauss-equation adjudication
# --------------------------------------------------------------------------


def _rand_orth(Z: np.ndarray) -> np.ndarray:
    """Orthogonal QR factors of a stack of square matrices, column signs
    fixed so that each R has a positive diagonal."""
    Q, R = np.linalg.qr(Z)
    return Q * np.sign(np.diagonal(R, axis1=-2, axis2=-1))[..., None, :]


def _draw_block(rng: np.random.Generator, rows: np.ndarray, n: int) -> tuple:
    """The raw draws of one trial per derive_states row, each stream set by _seed.  Stream order: the +1
    eigenspace dimension p, then normal, uniform and integers for each nonempty block of ker eta
    (dimensions p and n-1-p), then normal, uniform, normal for the frame change L.  Row i of the block
    arrays holds trial i: p (T,), the block normals one after the other in Z (T, (n-1)^2), the raw
    uniforms of the weights and then of L in u (T, 2n-1), the sign bits in s (T, n-1) and L's two
    normals in F (T, 2, n, n).  Only the normals and L's uniforms are Generator calls: p, the weights
    and the signs are read from raw words by numpy's rules (_halves), p by Lemire's, a weight as
    (w >> 11) 2^-53 of a word w, a sign as the top bit h >> 31 of a 32-bit half, with the half numpy
    would buffer kept in `half`, empty at _seed and carried from one block of ker eta to the next."""
    T, bitgen = len(rows), rng.bit_generator
    p = np.zeros(T, dtype=np.int64)
    Z, u, F = np.empty((T, (n - 1) ** 2)), np.empty((T, 2 * n - 1)), np.empty((T, 2, n, n))
    words, signs = [], []      # n - 1 weight words and sign halves a trial, trial i's from i (n - 1) on
    for i, row in enumerate(rows):
        _seed(bitgen, row)
        _, (h,), half = _halves(bitgen, n, 1, None)
        p[i] = q = h * n >> 32
        for k, at in ((q, 0), (n - 1 - q, q * q)):
            if k:
                rng.standard_normal(out=Z[i, at:at + k * k])
                block_words, block_signs, half = _halves(bitgen, 2, k, half, lead=k)
                words += block_words
                signs += block_signs
        rng.standard_normal(out=F[i, 0])
        rng.random(out=u[i, n - 1:])
        rng.standard_normal(out=F[i, 1])
    u[:, :n - 1] = ((np.array(words, dtype=np.uint64) >> 11) * 2.0 ** -53).reshape(T, n - 1)
    return p, Z, u, (np.array(signs, dtype=np.int64) >> 31).reshape(T, n - 1), F


def _assemble_block(raw: tuple, n: int, epsilon: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One (g, phi, xi, eta) per _draw_block row, satisfying the structure axioms: built in the
    canonical frame (phi diagonal +-1 on ker eta, g block diagonal Q diag(w) Q^T with random
    signature) and conjugated by L.  The uniforms are scaled as rng.uniform(lo, hi) scales
    them, lo + (hi - lo) r, bit for bit.  One QR serves every block of size k, first or second,
    and one both factors of L; each matrix's QR and products read that matrix alone, so a
    trial's structure does not depend on the other trials drawn with it."""
    p, Z, u, s, F = raw
    T = len(p)
    w = (0.5 + (2.0 - 0.5) * u[:, :n - 1]) * np.where(s == 1, 1.0, -1.0)
    diag = np.arange(n)
    phi0 = np.zeros((T, n, n))
    phi0[:, diag, diag] = np.where(diag < p[:, None], 1.0, np.where(diag < n - 1, -1.0, 0.0))
    g0 = np.zeros((T, n, n))
    g0[:, -1, -1] = epsilon
    for k in range(1, n):
        # first blocks of size k start at 0, second ones at lo = n-1-k in g0 and w, at lo^2 in Z
        first, second, lo = np.flatnonzero(p == k), np.flatnonzero(p == n - 1 - k), n - 1 - k
        if first.size + second.size:
            Q = _rand_orth(np.concatenate([Z[first, :k * k], Z[second, lo * lo:lo * lo + k * k]]).reshape(-1, k, k))
            G = (Q * np.concatenate([w[first, :k], w[second, lo:]])[:, None, :]) @ Q.swapaxes(1, 2)
            g0[first, :k, :k], g0[second, lo:-1, lo:-1] = G[:first.size], G[first.size:]
    # generic but well-conditioned change of frame L = Q1 diag(d) Q2
    Q = _rand_orth(F.reshape(-1, n, n)).reshape(T, 2, n, n)
    L = (Q[:, 0] * (0.75 + (1.35 - 0.75) * u[:, None, n - 1:])) @ Q[:, 1]
    Linv = np.linalg.inv(L)
    # xi = L e_n and eta = e_n^T L^-1, since xi and eta are e_n in the canonical frame
    return Linv.swapaxes(1, 2) @ g0 @ Linv, L @ phi0 @ Linv, L[:, :, -1].copy(), Linv[:, -1, :].copy()


@cache
def _pair_table(n: int) -> tuple[np.ndarray, ...]:
    """xs, ys = np.triu_indices(n, 1), the P = n(n-1)/2 pairs x < y; their (P, n) one-hot rows X and Y;
    and the (n, n) tables at and sign: entry [z, w] of a pair antisymmetric in (z, w) is sign[z, w]
    times its quarter's entry at[z, w].  Built once per n; read-only, since every caller shares it."""
    xs, ys = np.triu_indices(n, 1)
    at = np.zeros((n, n), dtype=np.intp)
    at[xs, ys] = at[ys, xs] = np.arange(len(xs))
    table = xs, ys, np.eye(n)[xs], np.eye(n)[ys], at, np.sign(np.arange(n) - np.arange(n)[:, None])
    for a in table:
        a.flags.writeable = False
    return table


def _wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pattern a(Y,Z) b(X,W) - a(X,Z) b(Y,W) in classical order [x,y,z,w], per trial, on the quarter x < y,
    z < w: (T, n, n) operands, a (T, P, P) result, entry [p, q] at (xs[p], ys[p], xs[q], ys[q]).  As
    fl(p - q) = -fl(q - p) and products commute, the full pattern is antisymmetric in (x, y) and 0 at
    x = y, and wedge(a, b) at (w, z) is -wedge(b, a) at (z, w), bit for bit."""
    xs, ys = _pair_table(a.shape[-1])[:2]
    az, bw = a[:, :, xs], b[:, :, ys]
    return az[:, ys] * bw[:, xs] - az[:, xs] * bw[:, ys]


def _ricci(ginv_rows: np.ndarray, R: np.ndarray) -> np.ndarray:
    """S[j,k] = sum_{i,w} g^{iw} R[i,j,k,w] per trial, from the quarter R (T, P, P) of _wedge with its
    second pair spread to (T, P, n, n) and the g^-1 rows of each pair, ginv_rows[t, p, :, 0] = g^{xs[p] .}
    and ginv_rows[t, p, :, 1] = g^{ys[p] .}: as R[y,x] = -R[x,y], pair p = (x, y) adds sum_w g^{xw} R_p[k,w]
    to S[y,k] and subtracts sum_w g^{yw} R_p[k,w] from S[x,k]."""
    _, _, X, Y, at, sign = _pair_table(ginv_rows.shape[-2])
    spread = R[..., at]
    spread *= sign
    U = spread @ ginv_rows                                        # (T, P, n, 2)
    return Y.T @ U[..., 0] - X.T @ U[..., 1]


def _gauss_chain(res: StructureCheckResult, epsilon: int, g: np.ndarray, phi: np.ndarray, xi: np.ndarray,
                 eta: np.ndarray, perturb_a: float):
    """The synthetic Gauss chain on a block of trials (leading axis of g, phi, xi, eta).
    Adds each synthetic.* record's gaps on the block to ``res`` under its CHECKS id, at absolute
    scale (no inputs), so the recorder keeps each record's maximum over the blocks.  The
    recovered k per trial and its solve gap live only inside the block: both feed the two k
    records, and k the Ricci contraction.  Curvature-shaped arrays live on
    _wedge's quarter x < y, z < w; scaling and summing keep negated entries negated and zeros zero,
    so each maximum is the full one bit for bit.  The xi-contraction reads the quarter through the
    one-hot pair rows X and Y, both Ricci contractions through _ricci and one stack of g^-1 rows."""
    T, n = g.shape[:2]
    xs, ys, X, Y = _pair_table(n)[:4]
    Phi = phi.swapaxes(1, 2) @ g
    ee = np.einsum('ta,tb->tab', eta, eta)
    A = characterized_shape(epsilon, xi, eta)
    if perturb_a:
        A = A + perturb_a * np.einsum('ta,tb->tab', xi, eta)
    h = epsilon * np.einsum('tma,tmb->tab', A, g)
    res.add("synthetic.quasi-umbilical-exact", h + g - epsilon * ee)

    Wgg, WPP = _wedge(g, g), _wedge(Phi, Phi)
    M1 = Wgg + WPP                               # coefficient of k
    M0 = epsilon * _wedge(h, h)
    cross = -(_wedge(g, ee) + _wedge(ee, g))      # the eta-cross term
    # the reduction k M1 + M0 and both displays, (k + eps)[gg] + k[PhiPhi] + {eta-cross} and
    # (k - 1)[gg] + k[PhiPhi] + eps{eta-cross}, share the k-coefficient Wgg + WPP = M1, so each
    # display's gap is its constant term, the same at every k
    res.add("synthetic.gauss-vs-derived-display", M0 - epsilon * Wgg - cross)
    res.add("synthetic.gauss-vs-printed-display", M0 + Wgg - epsilon * cross)

    # solve R(X,Y)xi = eta(X) Y - eta(Y) X for k on the computed reduction: as M[p,w,z] =
    # -M[p,z,w], sum_z M[p,z,w] xi[z] is M @ B with B[q] = xi[xs[q]] e_ys[q] - xi[ys[q]] e_xs[q]
    B = xi[:, xs, None] * Y - xi[:, ys, None] * X
    lhs1, lhs0 = M1 @ B, M0 @ B
    target = eta[:, xs, None] * g[:, ys] - eta[:, ys, None] * g[:, xs]
    av = lhs1.reshape(T, -1)
    bv = (target - lhs0).reshape(T, -1)
    k_solved = (av * bv).sum(axis=1) / (av * av).sum(axis=1)
    res.add("synthetic.k-vs-derived", k_solved - (-epsilon))
    res.add("synthetic.k-vs-derived", k_solved[:, None, None] * lhs1 + lhs0 - target)
    res.add("synthetic.k-vs-printed", k_solved - (2 - epsilon))

    # Ricci of the computed reduction at the recovered k
    ginv = np.linalg.inv(g)
    ginv_rows = np.stack([ginv[:, xs], ginv[:, ys]], axis=-1)     # (T, P, n, 2), read by both Ricci calls
    S = _ricci(ginv_rows, k_solved[:, None, None] * M1 + M0)
    trphi = phi.trace(axis1=1, axis2=2)[:, None, None]
    S_derived = -epsilon * trphi * Phi + (1 - n) * ee
    S_printed = (((2 - epsilon) * (n - 2) - n) * g + (2 - epsilon) * trphi * Phi
                 + epsilon * (4 - epsilon - n) * ee)
    res.add("synthetic.ricci-vs-derived-form", S - S_derived)
    res.add("synthetic.ricci-vs-printed-form", S - S_printed)

    # internal consistency of the printed chain: contracting the printed
    # display at k = 2 - eps reproduces the printed Ricci display
    Rp = ((2 - epsilon) - 1) * Wgg + (2 - epsilon) * WPP + epsilon * cross
    res.add("synthetic.printed-chain-self-consistency", _ricci(ginv_rows, Rp) - S_printed)

    # Einstein-like fit of the computed Ricci and the coefficient constraint
    cols = np.stack([g.reshape(T, -1), Phi.reshape(T, -1), ee.reshape(T, -1)], axis=2)
    coef, _, _ = min_norm_solve(cols, S.reshape(T, -1))
    res.add("synthetic.einstein-like-fit", np.einsum('tij,tj->ti', cols, coef) - S.reshape(T, -1))
    res.add("synthetic.eps-a-plus-c", epsilon * coef[:, 0] + coef[:, 2] - (1 - n))


def synthetic_gauss_check(res: StructureCheckResult, epsilon: int, n: int, trials: int, seed: int,
                          perturb_a: float = 0.0):
    """Per trial: draw a random structure, plant A = -eps I + eps eta(x)xi,
    push the almost-constant-curvature ansatz

        R~(X,Y,Z,W) = k { g~ g~ terms + (J g~)(J g~) terms }

    through the Gauss equation R = R~|tan + eps (h wedge h), and compare.

    The computed reduction equals, identically in k,

        (k + eps)[gg] + k[PhiPhi] + {eta-cross}                  (derived)

    while the published display reads (k - 1)[gg] + k[PhiPhi] + eps{eta-cross};
    solving R(X,Y)xi = eta(X) Y - eta(Y) X on the computed reduction forces
    k = -eps (printed chain: k = 2 - eps).  Both chains are reported; the
    derived one is normative.  The quasi-umbilical form h = -g + eps eta(x)eta
    and the constraint eps a + c = 1 - n hold on both chains.  Each block's
    _gauss_chain adds its gaps to the request's recorder under their CHECKS
    ids, so each synthetic.* record is its maximum over the blocks; the display
    it compares is its anchor, and it carries no detail.

    The reduction and both displays share the k-coefficient [gg] + [PhiPhi],
    so each display record measures its constant term once, a gap that holds
    at every k.  Curvature-shaped tensors are held only on their x < y, z < w
    quarter, and the xi-contraction and both Ricci contractions read it.

    Trial t is the first draw of its own stream derive_rng(seed, "synthetic-gauss", eps + 1, n, t).
    None is degenerate: g = L^-T g0 L^-1, with |w| in [0.5, 2] and L's singular values in
    [0.75, 1.35], has its singular values in [0.5/1.35^2, 2/0.75^2].  The trials are drawn and
    evaluated in blocks, so no record depends on a block size.  Up to max(block,
    _BLOCK_ELEMENTS // 4) streams are seeded in one derive_states pass and drawn through one reused
    generator straight into the block arrays (_draw_block), from which _assemble_block builds every
    structure of the block at once; p, the ker-eta weights and the signs are read from raw words
    by numpy's own rules, bit for bit.  No array grows with the trial count: the recorder folds
    each block's maxima into the running ones.  RunConfig checks n >= 3, trials >= 1 and eps = +-1.
    """
    block = max(1, _BLOCK_ELEMENTS // max(n ** 3, (n * (n - 1) // 2) ** 2))
    # one derive_states call costs about as much at any length, so it seeds many blocks
    seed_block = block * max(1, _BLOCK_ELEMENTS // 4 // block)
    rng = np.random.Generator(np.random.PCG64(0))
    for start in range(0, trials, block):
        if start % seed_block == 0:
            states = derive_states(seed, "synthetic-gauss", epsilon + 1, n, counters=range(start, trials)[:seed_block])
        raw = _draw_block(rng, states[start % seed_block:][:block], n)
        _gauss_chain(res, epsilon, *_assemble_block(raw, n, epsilon), perturb_a)


# --------------------------------------------------------------------------
# builtin bundles
# --------------------------------------------------------------------------


def _flat_product_ambient() -> AmbientProductModel:
    coords = ["u1", "u2", "v1", "v2"]
    metric = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    J = [["0"] * 4 for _ in range(4)]
    J[0][0] = J[1][1] = "1"
    J[2][2] = J[3][3] = "-1"
    return AmbientProductModel(dim=4, coords=coords, metric=metric, J=J)


def builtin_bundles() -> dict[str, HypersurfaceBundle]:
    amb = _flat_product_ambient()
    inv_sqrt2 = "0.7071067811865476"
    bundles = {
        "E3a": HypersurfaceBundle(
            name="E3a",
            ambient=amb,
            embedding=Embedding(
                coords=["s", "t", "w"],
                map=[f"s*{inv_sqrt2}", "t", f"-s*{inv_sqrt2}", "w"],
                domain=[(-1.5, 1.5)] * 3,
                orientation=1,
            ),
            description="totally geodesic hyperplane in flat R^2 x R^2: induced structure "
                        "passes all axioms with A = 0",
        ),
        "E3b": HypersurfaceBundle(
            name="E3b",
            ambient=amb,
            embedding=Embedding(
                coords=["t", "a", "b"],
                map=["t*cos(a)", "t*sin(a)", "t*cos(b)", "t*sin(b)"],
                domain=[(0.6, 1.6), (0.15, 6.1), (0.15, 6.1)],
                orientation=1,
            ),
            description="cone |x| = |y| in flat R^2 x R^2: JN is tangent, the induced "
                        "structure passes the axioms, and the shape operator has "
                        "eigenvalues {0, +-1/(t sqrt 2)} so the hypersurface is not "
                        "para-Sasakian anywhere",
        ),
        "B1": HypersurfaceBundle(
            name="B1",
            ambient=amb,
            embedding=Embedding(
                coords=["a", "b", "c"],
                map=["cos(a)", "sin(a)*cos(b)", "sin(a)*sin(b)*cos(c)", "sin(a)*sin(b)*sin(c)"],
                domain=[(0.4, 1.2), (0.4, 1.2), (0.4, 1.2)],
                orientation=1,
            ),
            description="unit-sphere patch: g~(JN, N) != 0, so the induced-structure "
                        "hypothesis fails (negative control)",
        ),
    }
    return bundles
