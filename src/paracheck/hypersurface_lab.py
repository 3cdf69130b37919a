"""Hypersurfaces of indefinite almost product Riemannian ambients.

Given an embedding chart into an ambient (n+1)-manifold carrying a product
structure J with g~(JX, JY) = g~(X, Y) and parallel J, this module derives
the induced structure (phi, xi, eta, g, eps) from the tangential/normal
split of J, the shape operator A from the Weingarten map, and verifies the
induced covariant-derivative displays, the shape-operator characterization
of para-Sasakian hypersurfaces, and the Gauss-equation algebra.

The final-theorem verification is synthetic: a random tangent-space
structure is drawn, A = -eps I + eps eta(x)xi is planted, the ambient
almost-constant-curvature ansatz is pushed through the Gauss equation, and
the resulting displays are compared coefficient by coefficient.  Where the
published displays disagree with the computed reduction (they do: the gg
coefficient and the eta-cross prefactor, hence the recovered constant and
the final Ricci form), both variants are reported, with the re-derived one
normative.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .expr_jet import JetSpace
from .geometry_engine import ConnectionAtPoint, CurvatureAtPoint, christoffel, covariant_derivative, curvature
from .models import FIELD_ORDER, METRIC_ORDER, _eval_grid
from .paracontact_core import ParacontactStructure, apply_op, defining_equation_gap_per_point, form, pair
from .report import StructureCheckResult, residual_norm
from .sampling import _seed, derive_states
from .tensor_algebra import TensorValue, degenerate, invert_jet_matrix

# The ambient g~ is evaluated to at most order 2: the Gauss check reads R~
# values, and the Weingarten map and nabla J~ read Gamma~ values.
AMBIENT_METRIC_ORDER = 2
LIGHTLIKE_FLOOR = 1e-6
COMPONENT_SIGN_FLOOR = 1e-8
SYNTHETIC_DET_FLOOR = 1e-4     # a synthetic trial's g with |det g| at most this is redrawn
SYNTHETIC_MAX_DIM = 40         # synthetic memory grows as n^4: a request peaks near 173 MB at n = 40
PS_POINT_THRESHOLD = 1e-7      # the characterization calls a point para-Sasakian when its rho is at most this
# synthetic trials are drawn in blocks of max(1, _BLOCK_ELEMENTS // n**3), each evaluated in the fewest
# near-equal blocks of at most max(1, _BLOCK_ELEMENTS // n**4), so the chain's full (trials, n, n, n, n)
# arrays stay near 128 KB
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


@dataclass
class ShapeData:
    """Shape operator and second fundamental form at the sample points.

    Invariants: g(AX, Y) = g(X, AY) and h = eps g(A., .), both enforced by
    tests rather than construction."""

    A: np.ndarray        # (P, n, n) values, A^a_b
    N: np.ndarray        # (P, n+1) ambient components of the unit normal
    epsilon: int
    h: np.ndarray        # (P, n, n)


class AmbientJets:
    """The ambient g~ (jets of min(order, AMBIENT_METRIC_ORDER): the Gauss
    check reads R~ values, and the Weingarten map and nabla J~ read Gamma~
    values) and J~ (min(order, FIELD_ORDER): parallel J reads one derivative)
    at a batch of ambient points, with the Levi-Civita connection and
    curvature; each is built on first use and kept."""

    def __init__(self, model: AmbientProductModel, points: np.ndarray, order: int = AMBIENT_METRIC_ORDER):
        self.model = model
        self.points = np.asarray(points, dtype=float)
        self.order = order

    def _jets(self, field: str, p: int, q: int, order: int) -> TensorValue:
        space = JetSpace.get(self.model.dim, order)
        comps = _eval_grid(getattr(self.model, field), self.model.coords, space, space.point_jets(self.points),
                           self.points, f"ambient.{field}")
        return TensorValue(self.model.dim, p, q, comps, space)

    @cached_property
    def g(self) -> TensorValue:
        return self._jets("metric", 0, 2, min(self.order, AMBIENT_METRIC_ORDER))

    @cached_property
    def J(self) -> TensorValue:
        return self._jets("J", 1, 1, min(self.order, FIELD_ORDER))

    @cached_property
    def connection(self) -> ConnectionAtPoint:
        return christoffel(self.g, self.points)

    @cached_property
    def curvature(self) -> CurvatureAtPoint:
        return curvature(self.connection)


@dataclass
class HypersurfaceData:
    """Everything evaluated along the embedding at a batch of chart points.
    The tangency of JN and the ambient jets are measured at once; the induced
    package, which exists only when JN is tangent, is built by
    ``build_induced`` on the first read of any of its members: the induced
    ``structure``, the ``shape`` operator data, ``frame_residual`` (the normal
    part of the Weingarten derivative), ``epsilon_residual`` (max |g~(N, N) -
    eps| over the samples) and ``tangent_frame`` ((P, n, n+1) values T_a^B =
    d_a F^B)."""

    bundle: HypersurfaceBundle
    points: np.ndarray
    tangency_residual: float       # max |g~(JN, N)| over the samples
    ambient: AmbientJets           # g~ and J~ at F(points)
    build_induced: Callable[[], dict]

    @cached_property
    def induced(self) -> dict:
        return self.build_induced()

    structure = property(lambda self: self.induced["structure"])
    shape = property(lambda self: self.induced["shape"])
    frame_residual = property(lambda self: self.induced["frame_residual"])
    epsilon_residual = property(lambda self: self.induced["epsilon_residual"])
    tangent_frame = property(lambda self: self.induced["tangent_frame"])


# --------------------------------------------------------------------------
# jet linear algebra helpers
# --------------------------------------------------------------------------


def jet_det(space: JetSpace, M: np.ndarray) -> np.ndarray:
    """Determinant of a jet matrix (..., k, k, m) by cofactor expansion along the first row."""
    if M.shape[-2] == 1:
        return M[..., 0, 0, :]
    rest = np.delete(M, 0, axis=-3)
    return sum((-1.0) ** j * space.mul(M[..., 0, j, :], jet_det(space, np.delete(rest, j, axis=-2)))
               for j in range(M.shape[-2]))


# --------------------------------------------------------------------------
# the induced package
# --------------------------------------------------------------------------


def evaluate_bundle(bundle: HypersurfaceBundle, points: np.ndarray, order: int = METRIC_ORDER) -> HypersurfaceData:
    """Push the embedding through the jet pipeline: tangent frames, unit
    normal N and the tangency of JN at once; on first read, the induced (phi,
    xi, eta, g) and the shape operator.  The embedding is evaluated to order
    ``order`` + 1 so that the induced g reaches ``order``; the normal, the
    frame split, phi, xi, eta and J~ are built at min(order, FIELD_ORDER),
    which the Weingarten map reads to order 1, and the ambient jets at
    F(points) to ``order`` at most.

    A JN that is not tangent is measured (``tangency_residual``), not
    rejected, so the induced structure is not validated at construction."""
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

    # normal covector: cofactor cross product of the Jacobian rows
    nu = np.zeros((P, N1, fspace.ncoeffs))
    for B in range(N1):
        minor = np.delete(T, B, axis=2)            # (P, n, n, m)
        sign = -1.0 if (n + B) % 2 else 1.0
        nu[:, B] = sign * jet_det(fspace, minor)
    # rank per point: |nu| against Hadamard's bound, the product of the Jacobian rows' norms
    flat = ~(np.linalg.norm(nu[..., 0], axis=1) > 1e-12 * np.prod(np.linalg.norm(T[..., 0], axis=2), axis=1))
    if np.any(flat):
        raise InducedStructureError("embedding differential is rank-deficient "
                                    f"at point {tuple(float(c) for c in points[np.argmax(flat)])}")
    singular = degenerate(g_amb[..., 0])
    if np.any(singular):
        raise InducedStructureError("degenerate ambient metric (smallest singular value at most 1e-12 of the largest) "
                                    f"at point {tuple(float(c) for c in points[np.argmax(singular)])}")
    g_amb_inv = invert_jet_matrix(fspace, g_amb)
    N_un = fspace.matmul(g_amb_inv, nu[:, :, None])[:, :, 0]   # N^A = g~^{AB} nu_B

    # orientation: first component above COMPONENT_SIGN_FLOOR of the largest made positive
    vals = N_un[..., 0]
    big = np.abs(vals) > COMPONENT_SIGN_FLOOR * np.max(np.abs(vals), axis=1, keepdims=True)
    flip = np.where(vals[np.arange(P), np.argmax(big, axis=1)] < 0, -1.0, 1.0)
    N_un = N_un * (emb.orientation * flip)[:, None, None]

    # normalize to |g~(N, N)| = 1 and measure the tangency g~(N, JN) of JN = xi
    N_low = fspace.matmul(g_amb, N_un[:, :, None])[:, :, 0]
    q = fspace.matmul(N_low[:, None], N_un[:, :, None])[:, 0, 0]     # g~(N, N) jets
    q0 = q[..., 0]
    # |g~(N, N)| relative to |N|^2 max |g~|, which bounds it up to a factor n + 1
    light = np.abs(q0) / (np.sum(N_un[..., 0] ** 2, axis=1) * np.max(np.abs(g_amb[..., 0]), axis=(1, 2)))
    if np.min(light) < LIGHTLIKE_FLOOR:
        k = int(np.argmin(light))
        raise InducedStructureError(
            f"lightlike normal direction (|g~(N,N)| = {abs(q0[k]):.2e}, {light[k]:.2e} of |N|^2 max|g~|) "
            f"at point {tuple(float(c) for c in points[k])}: unsupported")
    signs = np.sign(q0)
    if len(set(signs.tolist())) != 1:
        raise InducedStructureError("normal causal character flips over the sample set")
    eps = int(signs[0])
    scale = fspace.reciprocal(fspace.sqrt(eps * q))
    N_hat = fspace.mul(N_un, scale[:, None, :])
    JN = fspace.matmul(J_amb, N_hat[:, :, None])[:, :, 0]
    tangency = float(np.max(np.abs(fspace.matmul(N_low[:, None], JN[:, :, None])[:, 0, 0, 0])))
    ambient = AmbientJets(amb, F[..., 0], order)

    def build_induced() -> dict:
        # induced metric g_ab = g~(T_a, T_b)
        T_low = gspace.matmul(T_g, np.swapaxes(g_amb_g, 1, 2))     # (P, n, N1, m): g~(T_a, .)
        gT = gspace.matmul(T_low, np.swapaxes(T_g, 1, 2))           # (P, n, n, m)

        # frame matrix columns (T_1 .. T_n, N) and its jet inverse
        frame = np.concatenate([np.moveaxis(T, 1, 2), N_hat[:, :, None, :]], axis=2)  # (P, N1, n+1, m)
        frame_inv = invert_jet_matrix(fspace, frame)

        # J N = xi (must be tangent), J T_a = phi^b_a T_b + eta_a N: the columns
        # (J N, J T_1 .. J T_n) in the frame (T_1 .. T_n, N)
        JT = fspace.matmul(T, np.swapaxes(J_amb, 1, 2))                     # (P, n, N1, m): J T_a
        V = np.concatenate([JN[:, None], JT], axis=1)                       # (P, n+1, N1, m)
        x = fspace.matmul(V, np.swapaxes(frame_inv, 1, 2))                  # (P, n+1, n+1, m)
        xi_c, phi_c, eta_c = x[:, 0, :n], np.swapaxes(x[:, 1:, :n], 1, 2), x[:, 1:, n]

        structure = ParacontactStructure(
            points, eps,
            g=TensorValue(n, 0, 2, gT, gspace),
            phi=TensorValue(n, 1, 1, phi_c, fspace),
            xi=TensorValue(n, 1, 0, xi_c, fspace),
            eta=TensorValue(n, 0, 1, eta_c, fspace),
            validate=False,
        )

        # shape operator: nabla~_{T_a} N = -A T_a, ambient Christoffels at F(p)
        Gam_amb = ambient.connection.gamma.components[..., 0]        # (P, C, A, B)

        N0 = N_hat[..., 0]
        eps_res = float(np.max(np.abs(pair(g_amb[..., 0], N0[:, None], N0[:, None]) - eps)))
        dN = fspace.gradient_values(N_hat)                 # (P, N1, n): d_a (N o F)^C
        T0 = T[..., 0]                                     # (P, n, N1)
        W = np.einsum('pca->pac', dN) + apply_op(Gam_amb, T0, N0[:, None])   # Gamma~^C_AB T_a^A N^B
        frame0 = frame[..., 0]
        x = np.linalg.solve(frame0, np.moveaxis(W, 1, 2))  # (P, n+1, n): coeffs of W_a
        A = -x[:, :n, :]                                   # A^b_a
        frame_res = float(np.max(np.abs(x[:, n, :])))
        g0 = gT[..., 0]
        h = eps * np.einsum('pma,pmb->pab', A, g0)
        return dict(structure=structure, shape=ShapeData(A=A, N=N0, epsilon=eps, h=h), frame_residual=frame_res,
                    epsilon_residual=eps_res, tangent_frame=T0)

    return HypersurfaceData(bundle, points, tangency, ambient, build_induced)


# --------------------------------------------------------------------------
# ambient and induced checks
# --------------------------------------------------------------------------


def check_ambient(ambient: AmbientJets) -> StructureCheckResult:
    """J^2 = I, g~(JX,JY) = g~(X,Y), and parallel J at the ambient points."""
    res = StructureCheckResult()
    J0 = ambient.J.components[..., 0]
    g0 = ambient.g.components[..., 0]
    JJ = np.einsum('pab,pbc->pac', J0, J0)
    res.add("hypersurface.ambient-j-squared", JJ - np.eye(ambient.model.dim), J0)
    pullback = np.swapaxes(J0, 1, 2) @ g0 @ J0
    res.add("hypersurface.ambient-j-metric", pullback - g0, g0)
    nJ = covariant_derivative(ambient.J, ambient.connection)
    res.add("hypersurface.ambient-j-parallel", nJ.components[..., 0], J0)
    return res


def verify_induced_derivatives(data: HypersurfaceData, vectors: np.ndarray) -> StructureCheckResult:
    """The three induced covariant-derivative displays:

        (nabla_X phi) Y = eta(Y) A X + eps g(A X, Y) xi
        (nabla_X eta) Y = -eps g(A X, phi Y)
        nabla_X xi      = -phi A X
    """
    s = data.structure
    eps = data.shape.epsilon
    A = data.shape.A
    phi, xi, eta, g = s.phi0, s.xi0, s.eta0, s.g0
    X = vectors[:, 0::2]
    Y = vectors[:, 1::2]
    res = StructureCheckResult()

    lhs = apply_op(s.nabla_phi, X, Y)
    AX = apply_op(A, X)
    rhs = form(eta, Y)[..., None] * AX + eps * pair(g, AX, Y)[..., None] * xi[:, None, :]
    res.add("hypersurface.induced-grad-phi", lhs - rhs, lhs, rhs, X, Y)

    lhs = pair(s.nabla_eta, X, Y)
    rhs = -eps * pair(g, AX, apply_op(phi, Y))
    res.add("hypersurface.induced-grad-eta", lhs - rhs, lhs, rhs, X, Y)

    rhs_xi = -np.einsum('pam,pmi->pai', phi, A)
    res.add("hypersurface.induced-grad-xi", s.nabla_xi - rhs_xi, s.nabla_xi, rhs_xi)
    return res


def shape_self_adjoint_residual(data: HypersurfaceData) -> float:
    A, g = data.shape.A, data.structure.g0
    Alow = np.einsum('pma,pmb->pab', A, g)
    return residual_norm(Alow - np.swapaxes(Alow, 1, 2), Alow)


def pull_back(R: np.ndarray, T: np.ndarray) -> np.ndarray:
    """R(T_x, T_y, T_z, T_w) of a covariant 4-tensor R (P, N, N, N, N) along frames T (P, n, N):
    four matmuls, each pulling back the first ambient slot and moving the new tangent slot last."""
    for _ in range(4):
        R = np.moveaxis(T @ R.reshape(R.shape[:2] + (-1,)), 1, -1).reshape(R.shape[:1] + R.shape[2:] + T.shape[1:2])
    return R


def gauss_consistency_residual(data: HypersurfaceData) -> float:
    """Intrinsic R against ambient R restricted plus the eps (h wedge h)
    correction, classical index order."""
    s = data.structure
    eps = data.shape.epsilon
    h = data.shape.h
    R_int = s.curvature.riemann_dddd.components[..., 0]
    R_amb = data.ambient.curvature.riemann_dddd.components[..., 0]
    R_res = pull_back(R_amb, data.tangent_frame)
    corr = eps * (np.einsum('pyz,pxw->pxyzw', h, h) - np.einsum('pxz,pyw->pxyzw', h, h))
    return residual_norm(R_int - R_res - corr, R_int, R_res, corr)


# --------------------------------------------------------------------------
# para-Sasakian characterization
# --------------------------------------------------------------------------


def characterized_shape(struct: ParacontactStructure) -> np.ndarray:
    """The shape operator -eps I + eps eta(x)xi of a para-Sasakian
    hypersurface, (P, n, n) values A^a_b."""
    eps = struct.epsilon
    return -eps * np.eye(struct.dim)[None] + eps * np.einsum('pa,pb->pab', struct.xi0, struct.eta0)


def shape_characterization_gap_per_point(struct: ParacontactStructure, A: np.ndarray) -> np.ndarray:
    """The residual of A = -eps I + eps eta(x)xi at each point, normalized by A."""
    return residual_norm(A - characterized_shape(struct), A, axis=(1, 2))


def _min_norm_solve(rows: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched minimum-norm least-squares solutions of rows x = rhs, with
    lstsq's default rank cutoff.  Returns (x, rank) per batch entry."""
    U, sv, Vt = np.linalg.svd(rows, full_matrices=False)
    kept = sv > sv[:, :1] * max(rows.shape[1:]) * np.finfo(float).eps
    inv = np.where(kept, 1.0 / np.where(kept, sv, 1.0), 0.0)
    return np.einsum('pji,pj->pi', Vt, inv * np.einsum('pkj,pk->pj', U, rhs)), kept.sum(axis=1)


def recover_shape_operator(struct: ParacontactStructure, vectors: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve the induced (nabla phi) display against the para-Sasakian right
    side as a linear system in A over the vector pairs; at every point of any
    valid structure this has the unique solution -eps I + eps eta(x)xi.

    Returns (A_hat per point, min system rank over points).
    """
    eps = struct.epsilon
    n = struct.dim
    phi, xi, eta, g = struct.phi0, struct.xi0, struct.eta0, struct.g0
    X = vectors[:, 0::2]
    Y = vectors[:, 1::2]
    P, V = X.shape[:2]
    if V * n < n * n:
        raise ValueError(f"need at least {n} vector pairs to determine A, got {V}")
    # row (v, l), unknown A^m_c:
    # eta(Y) A X + eps g(A X, Y) xi = -g(phi X, phi Y) xi - eps eta(Y) phi^2 X
    etaY = form(eta, Y)
    coef = etaY[:, :, None, None] * np.eye(n) + eps * xi[:, None, :, None] * apply_op(g, Y)[:, :, None, :]
    rows = np.einsum('pvlm,pvc->pvlmc', coef, X).reshape(P, V * n, n * n)
    phiX = apply_op(phi, X)
    rhs = (-pair(g, phiX, apply_op(phi, Y))[..., None] * xi[:, None, :]
           - eps * etaY[..., None] * apply_op(phi, phiX)).reshape(P, V * n)
    sol, rank = _min_norm_solve(rows, rhs)
    return sol.reshape(P, n, n), int(rank.min())


def check_ps_characterization(data: HypersurfaceData, vectors: np.ndarray) -> StructureCheckResult:
    """The equivalence "para-Sasakian iff A = -eps I + eps eta(x)xi", asserted
    pointwise, plus the constructive recovery of A from the displays."""
    s = data.structure
    res = StructureCheckResult()
    rho1 = defining_equation_gap_per_point(s, vectors)
    rho2 = shape_characterization_gap_per_point(s, data.shape.A)
    # a point where either side is NaN violates the equivalence
    mismatch = np.isnan(rho1 + rho2) | ((rho1 <= PS_POINT_THRESHOLD) != (rho2 <= PS_POINT_THRESHOLD))
    res.add("hypersurface.characterization-iff", np.sum(mismatch),
            detail=f"rho1 in [{rho1.min():.2e}, {rho1.max():.2e}], rho2 in [{rho2.min():.2e}, {rho2.max():.2e}]; "
            "residual counts points violating the equivalence")

    A_hat, rank = recover_shape_operator(s, vectors)
    target = characterized_shape(s)
    detail = f"linear system rank {rank} of {s.dim ** 2}"
    if rank < s.dim ** 2:
        res.add("hypersurface.characterization-linear-solve", np.inf, detail=detail + " (rank-deficient)")
    else:
        res.add("hypersurface.characterization-linear-solve", A_hat - target, A_hat, target, detail=detail)
    return res


def quasi_umbilical_check(shape: ShapeData, struct: ParacontactStructure) -> StructureCheckResult:
    """The quasi-umbilical decomposition h = -g + eps eta(x)eta (alpha = -1,
    beta = eps, u = eta), which holds when A is the characterized operator."""
    res = StructureCheckResult()
    res.add("hypersurface.quasi-umbilical", shape.h + struct.g0 - struct.epsilon * struct.ee0,
            detail="h = -g + eps eta(x)eta with alpha = -1, beta = eps, u = eta")
    return res


# --------------------------------------------------------------------------
# synthetic tangent-space models and the Gauss-equation adjudication
# --------------------------------------------------------------------------


def _rand_orth(Z: np.ndarray) -> np.ndarray:
    """Orthogonal QR factors of a stack of square matrices, column signs
    fixed so that each R has a positive diagonal."""
    Q, R = np.linalg.qr(Z)
    return Q * np.sign(np.diagonal(R, axis1=-2, axis2=-1))[..., None, :]


def _draw_trial(rng: np.random.Generator, n: int, plus_dim: int | None = None) -> tuple:
    """One trial's raw draws, in stream order: the +1 eigenspace dimension p
    (unless given), then normal, uniform and integers for each nonempty block
    of ker eta (dimensions p and n-1-p), then normal, uniform, normal for the
    frame change L.  The integers are the signs, still raw."""
    p = min(int(rng.integers(0, n)) if plus_dim is None else plus_dim, n - 1)
    blocks = [(rng.standard_normal((k, k)), rng.uniform(0.5, 2.0, k), rng.integers(0, 2, k))
              for k in (p, n - 1 - p) if k]
    return p, blocks, (rng.standard_normal((n, n)), rng.uniform(0.75, 1.35, n), rng.standard_normal((n, n)))


def _assemble_structures(draws: list[tuple], n: int,
                         epsilon: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One (g, phi, xi, eta) per _draw_trial draw, stacked on a leading trial
    axis and satisfying the structure axioms: built in the canonical frame (phi
    diagonal +-1 on ker eta, g block diagonal Q diag(w) Q^T with random
    signature) and conjugated by L.  The QRs, products and inverses run on the
    whole stack, the blocks grouped by p, so a trial's structure does not
    depend on the other trials drawn with it."""
    ps = np.array([d[0] for d in draws])
    T = len(ps)
    # each trial's blocks hold n - 1 weights between them, so one where signs all of them
    raw = [b for d in draws for b in d[1]]
    w = np.concatenate([b[1] for b in raw]) * np.where(np.concatenate([b[2] for b in raw]) == 1, 1.0, -1.0)
    w = w.reshape(T, n - 1)
    g0 = np.zeros((T, n, n))
    g0[:, -1, -1] = epsilon
    phi0 = np.zeros((T, n, n))
    for p in sorted(set(ps.tolist())):
        idx = np.flatnonzero(ps == p)
        phi0[idx] = np.diag([1.0] * p + [-1.0] * (n - 1 - p) + [0.0])
        for j, (lo, hi) in enumerate(b for b in ((0, p), (p, n - 1)) if b[1] > b[0]):
            Q = _rand_orth(np.stack([draws[t][1][j][0] for t in idx]))
            g0[idx, lo:hi, lo:hi] = (Q * w[idx, lo:hi][:, None, :]) @ np.swapaxes(Q, 1, 2)
    # generic but well-conditioned change of frame L = Q1 diag(d) Q2
    Z1, d, Z2 = (np.stack(f) for f in zip(*(trial[2] for trial in draws)))
    L = (_rand_orth(Z1) * d[:, None, :]) @ _rand_orth(Z2)
    Linv = np.linalg.inv(L)
    # xi = L e_n and eta = e_n^T L^-1, since xi and eta are e_n in the canonical frame
    return np.swapaxes(Linv, 1, 2) @ g0 @ Linv, L @ phi0 @ Linv, L[:, :, -1].copy(), Linv[:, -1, :].copy()


@cache
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1), built once per n; read-only, since every caller shares it."""
    xs, ys = np.triu_indices(n, 1)
    xs.flags.writeable = ys.flags.writeable = False
    return xs, ys


def _wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pattern a(Y,Z) b(X,W) - a(X,Z) b(Y,W) in classical order [x,y,z,w], per trial, on the pairs
    x = xs[p] < y = ys[p] of np.triu_indices(n, 1): (T, n, n) operands, a (T, n(n-1)/2, n, n) result.
    The full pattern is antisymmetric in (x, y) bit for bit, fl(p - q) = -fl(q - p), and 0 at x = y."""
    xs, ys = _pairs(a.shape[-1])
    return a[:, ys, :, None] * b[:, xs, None, :] - a[:, xs, :, None] * b[:, ys, None, :]


@dataclass
class SyntheticGaussOutcome:
    result: StructureCheckResult
    k_recovered: np.ndarray       # per trial, from the computed Gauss reduction
    k_solve_residual: np.ndarray  # lsq residual of the k fit per trial
    resampled: int


def _gauss_chain(epsilon: int, g: np.ndarray, phi: np.ndarray, xi: np.ndarray, eta: np.ndarray,
                 ks: tuple[float, ...], perturb_a: float) -> tuple[dict[str, float], np.ndarray, np.ndarray]:
    """The synthetic Gauss chain on a block of trials (leading axis of g, phi, xi, eta).
    Returns the block maximum of each record's residual, the recovered k per trial and the
    residual of its solve per trial.  Curvature-shaped arrays live on _wedge's x < y half;
    scaling and summing keep negated entries negated and zeros zero, so each maximum is the
    full one bit for bit.  Ricci rebuilds the full tensor with one signed gather.  Every maximum
    propagates NaN."""
    T, n = g.shape[:2]
    xs, ys = _pairs(n)
    pair_of = np.zeros((n, n), dtype=int)
    pair_of[xs, ys] = pair_of[ys, xs] = np.arange(xs.size)
    sign = np.sign(np.arange(n)[None, :] - np.arange(n)[:, None])[:, :, None, None]  # +1 where x < y
    Phi = np.swapaxes(phi, 1, 2) @ g
    ee = np.einsum('ta,tb->tab', eta, eta)
    xe = np.einsum('ta,tb->tab', xi, eta)
    A = -epsilon * np.eye(n) + epsilon * xe
    if perturb_a:
        A = A + perturb_a * xe
    h = epsilon * np.einsum('tma,tmb->tab', A, g)
    worst = {"quasi-umbilical-exact": np.max(np.abs(h + g - epsilon * ee))}

    Wgg, WPP = _wedge(g, g), _wedge(Phi, Phi)
    M1 = Wgg + WPP                               # coefficient of k
    M0 = epsilon * _wedge(h, h)
    cross = -(_wedge(g, ee) + _wedge(ee, g))      # the eta-cross term
    eps_cross = epsilon * cross
    worst["gauss-vs-derived-display"] = worst["gauss-vs-printed-display"] = 0.0
    for k in ks:
        Rk = k * M1 + M0
        kP = k * WPP
        derived = (k + epsilon) * Wgg + kP + cross
        printed = (k - 1) * Wgg + kP + eps_cross
        worst["gauss-vs-derived-display"] = np.maximum(worst["gauss-vs-derived-display"], np.max(np.abs(Rk - derived)))
        worst["gauss-vs-printed-display"] = np.maximum(worst["gauss-vs-printed-display"], np.max(np.abs(Rk - printed)))

    # solve R(X,Y)xi = eta(X) Y - eta(Y) X for k on the computed reduction
    lhs1 = np.einsum('tpzw,tz->tpw', M1, xi)
    lhs0 = np.einsum('tpzw,tz->tpw', M0, xi)
    target = eta[:, xs, None] * g[:, ys] - eta[:, ys, None] * g[:, xs]
    av = lhs1.reshape(T, -1)
    bv = (target - lhs0).reshape(T, -1)
    k_solved = np.sum(av * bv, axis=1) / np.sum(av * av, axis=1)
    k_resid = np.max(np.abs(k_solved[:, None, None] * lhs1 + lhs0 - target), axis=(1, 2))
    worst["k-vs-derived"] = np.maximum(np.max(np.abs(k_solved - (-epsilon))), np.max(k_resid))
    worst["k-vs-printed"] = np.max(np.abs(k_solved - (2 - epsilon)))

    # Ricci of the computed reduction at the recovered k
    ginv = np.linalg.inv(g)
    S = np.einsum('tiw,tijkw->tjk', ginv, (k_solved[:, None, None, None] * M1 + M0)[:, pair_of] * sign)
    trphi = np.trace(phi, axis1=1, axis2=2)[:, None, None]
    S_derived = -epsilon * trphi * Phi + (1 - n) * ee
    S_printed = (((2 - epsilon) * (n - 2) - n) * g + (2 - epsilon) * trphi * Phi
                 + epsilon * (4 - epsilon - n) * ee)
    worst["ricci-vs-derived-form"] = np.max(np.abs(S - S_derived))
    worst["ricci-vs-printed-form"] = np.max(np.abs(S - S_printed))

    # internal consistency of the printed chain: contracting the printed
    # display at k = 2 - eps reproduces the printed Ricci display
    Rp = ((2 - epsilon) - 1) * Wgg + (2 - epsilon) * WPP + epsilon * cross
    Sp = np.einsum('tiw,tijkw->tjk', ginv, Rp[:, pair_of] * sign)
    worst["printed-chain-self-consistency"] = np.max(np.abs(Sp - S_printed))

    # Einstein-like fit of the computed Ricci and the coefficient constraint
    cols = np.stack([g.reshape(T, -1), Phi.reshape(T, -1), ee.reshape(T, -1)], axis=2)
    coef, _ = _min_norm_solve(cols, S.reshape(T, -1))
    worst["einstein-like-fit"] = np.max(np.abs(np.einsum('tij,tj->ti', cols, coef) - S.reshape(T, -1)))
    worst["eps-a-plus-c"] = np.max(np.abs(epsilon * coef[:, 0] + coef[:, 2] - (1 - n)))
    return worst, k_solved, k_resid


def synthetic_gauss_check(epsilon: int, n: int, trials: int, seed: int,
                          k_input: float | None = None,
                          perturb_a: float = 0.0) -> SyntheticGaussOutcome:
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
    and the constraint eps a + c = 1 - n hold on both chains.

    Trial t draws from its own stream derive_rng(seed, "synthetic-gauss",
    eps + 1, n, t), redrawing while |det g| <= SYNTHETIC_DET_FLOOR; the
    trials are drawn and evaluated in blocks, so no record depends on a block size.
    A block's streams are seeded in one derive_states pass and drawn through one
    reused generator; a trial rejected k times is reseeded from its row and drawn
    k + 1 times, keeping the last draw, as its own generator would give it.
    """
    if n < 3:
        raise ValueError("synthetic check needs n >= 3")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ks = (0.0, 1.0, 2.0, 3.0) if k_input is None else (float(k_input),)
    k_values = np.zeros(trials)
    k_resid = np.zeros(trials)
    resampled = 0
    worst: dict[str, float] = {}
    draw_block, chain_block = (max(1, _BLOCK_ELEMENTS // n ** e) for e in (3, 4))
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)

    def draw(row: np.ndarray, times: int = 1) -> tuple:
        _seed(bitgen, row)
        return [_draw_trial(rng, n) for _ in range(times)][-1]

    for start in range(0, trials, draw_block):
        stop = min(start + draw_block, trials)
        rows = derive_states(seed, "synthetic-gauss", epsilon + 1, n, counters=range(start, stop))
        drawn = _assemble_structures([draw(row) for row in rows], n, epsilon)
        redraw = np.flatnonzero(np.abs(np.linalg.det(drawn[0])) <= SYNTHETIC_DET_FLOOR)
        times = 1
        while redraw.size:
            resampled += redraw.size
            times += 1
            again = _assemble_structures([draw(rows[i], times) for i in redraw], n, epsilon)
            for arr, new in zip(drawn, again):
                arr[redraw] = new
            redraw = redraw[np.abs(np.linalg.det(again[0])) <= SYNTHETIC_DET_FLOOR]
        parts = -(-(stop - start) // chain_block)
        cuts = [start + (stop - start) * j // parts for j in range(parts + 1)]
        for lo, hi in zip(cuts, cuts[1:]):
            block_worst, k_values[lo:hi], k_resid[lo:hi] = _gauss_chain(
                epsilon, *(a[lo - start:hi - start] for a in drawn), ks, perturb_a)
            for name, value in block_worst.items():
                worst[name] = np.maximum(worst.get(name, 0.0), value)

    res = StructureCheckResult()
    for name, detail in (
        ("quasi-umbilical-exact", "h = -g + eps eta(x)eta by substitution of the planted operator"),
        ("gauss-vs-derived-display", "computed reduction vs (k+eps)[gg] + k[PhiPhi] + {eta-cross}, k in {0,1,2,3}"),
        ("gauss-vs-printed-display",
         "computed reduction vs printed (k-1)[gg] + k[PhiPhi] + eps{eta-cross}; informational"),
        ("k-vs-derived", "unique k solving the xi identity on the computed reduction equals -eps"),
        ("k-vs-printed", "printed expectation k = 2 - eps; informational"),
        ("ricci-vs-derived-form", "S = -eps trace(phi) Phi + (1-n) eta(x)eta"),
        ("ricci-vs-printed-form", "printed S = ((2-eps)(n-2)-n) g + (2-eps) trace(phi) Phi "
                                  "+ eps(4-eps-n) eta(x)eta; informational"),
        ("printed-chain-self-consistency",
         "contracting the printed display at k = 2-eps reproduces the printed Ricci display"),
        ("eps-a-plus-c", "fitted coefficients of the computed Ricci satisfy eps a + c = 1 - n"),
        ("einstein-like-fit", "the computed Ricci is an exact constant-coefficient combination of g, Phi, eta(x)eta"),
    ):
        res.add(f"synthetic.{name}", worst[name], detail=detail)
    return SyntheticGaussOutcome(result=res, k_recovered=k_values, k_solve_residual=k_resid,
                                 resampled=resampled)


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


def get_bundle(name: str) -> HypersurfaceBundle:
    bundles = builtin_bundles()
    if name not in bundles:
        raise KeyError(f"unknown bundle {name!r}; builtin: {', '.join(sorted(bundles))}")
    return bundles[name]
