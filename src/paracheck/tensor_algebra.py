"""Dense typed-valence tensors at a point, numeric or jet-valued.

Slot convention: all contravariant (upper) slots come before all covariant
(lower) slots, so a (1,2) tensor T^k_{ij} is stored as components[k, i, j].
Jet-valued tensors append one trailing coefficient axis; an optional leading
batch axis vectorizes over sample points.  Contraction (which also raises and
lowers indices against g or its inverse) preserves this layout.

Frame sums never appear here: every trace the checks need is realized as an
index contraction against g or its inverse, which is frame-independent by
construction (the cross-validation against signed orthonormal frames lives in
the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .expr_jet import JetSpace


@dataclass
class TensorValue:
    """Dense tensor of valence (p contravariant, q covariant) in dimension
    ``dim``.  ``space`` is None for numeric entries; ``batched`` marks a
    leading sample axis shared by all operands of an operation."""

    dim: int
    p: int
    q: int
    components: np.ndarray
    space: JetSpace | None = None
    batched: bool = False

    @property
    def rank(self) -> int:
        return self.p + self.q

    @property
    def _base(self) -> int:
        return 1 if self.batched else 0

    def __post_init__(self):
        expected = self.rank + self._base + (1 if self.space is not None else 0)
        if self.components.ndim != expected:
            raise ValueError(
                f"component array has {self.components.ndim} axes, expected {expected} "
                f"for valence ({self.p},{self.q}), batched={self.batched}, jet={self.space is not None}"
            )

    # -- views ---------------------------------------------------------------

    def value(self) -> "TensorValue":
        """Numeric tensor of constant terms (identity for numeric tensors)."""
        if self.space is None:
            return self
        return TensorValue(self.dim, self.p, self.q, self.components[..., 0], None, self.batched)

    def as_jet(self, space: JetSpace) -> "TensorValue":
        """The tensor as jets of ``space``: a numeric tensor as constant
        jets, a jet tensor of a higher order restricted to it."""
        if self.space is space:
            return self
        if self.space is not None:
            return TensorValue(self.dim, self.p, self.q, space.restrict(self.components), space, self.batched)
        comps = np.zeros(self.components.shape + (space.ncoeffs,))
        comps[..., 0] = self.components
        return TensorValue(self.dim, self.p, self.q, comps, space, self.batched)


def lowest_space(*spaces: JetSpace | None) -> JetSpace | None:
    """The lowest-order jet space among ``spaces`` (None if all are numeric):
    an operation on jets of several orders is valid only to the lowest."""
    return min((s for s in spaces if s is not None), key=lambda s: s.order, default=None)


def _promote(a: TensorValue, b: TensorValue) -> tuple[TensorValue, TensorValue, JetSpace | None]:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    space = lowest_space(a.space, b.space)
    if space is not None:
        a, b = a.as_jet(space), b.as_jet(space)
    if a.batched != b.batched:
        # broadcast the unbatched operand across the sample axis
        if not a.batched:
            a = replace(a, components=a.components[None], batched=True)
        else:
            b = replace(b, components=b.components[None], batched=True)
    return a, b, space


def contract_with(A: TensorValue, B: TensorValue, slot_a: int, slot_b: int) -> np.ndarray:
    """Components of the contraction of slot ``slot_a`` of A with slot
    ``slot_b`` of B (absolute 0-based positions over the uppers-first layout);
    result axes are [batch] + (A slots minus slot_a) + (B slots minus slot_b)
    (+ coeff), jets of the lower of the two operands' spaces."""
    A, B, space = _promote(A, B)
    base = A._base
    ca = np.moveaxis(A.components, base + slot_a, -1 if space is None else -2)
    cb = np.moveaxis(B.components, base + slot_b, -1 if space is None else -2)
    fa = A.rank - 1
    fb = B.rank - 1
    for _ in range(fb):
        ca = np.expand_dims(ca, base + fa)
    for _ in range(fa):
        cb = np.expand_dims(cb, base)
    if space is None:
        return np.sum(ca * cb, axis=-1)
    return np.sum(space.mul(ca, cb), axis=-2)


# --------------------------------------------------------------------------
# metric data
# --------------------------------------------------------------------------


def inertia(sym: np.ndarray, tol_scale: float = 1e-12) -> int:
    """Count of negative eigenvalues of a symmetric matrix, those below
    -tol_scale times the largest magnitude: a count that does not change
    when the matrix is rescaled."""
    w = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    return int(np.sum(w < -tol_scale * np.max(np.abs(w))))


def invert_jet_matrix(space: JetSpace, G: np.ndarray) -> np.ndarray:
    """Inverse of a jet-valued square matrix, components (..., n, n, m).

    Seeds with the exact numeric inverse of the constant term, then Newton
    iterations X <- X (2I - G X); the error degree doubles each step, so
    ceil(log2(order+1)) steps reach exactness at the space's order.
    """
    G0 = G[..., 0]
    X0 = np.linalg.inv(G0)
    X = np.zeros_like(G)
    X[..., 0] = X0
    n = G.shape[-2]
    eye = np.zeros(G.shape[-3:])
    eye[..., 0] = np.eye(n)

    def mm(A, B):
        a = np.expand_dims(A, -2)       # (..., n, k, 1, m)
        b = np.expand_dims(B, -4)       # (..., 1, k, n, m)
        return np.sum(space.mul(a, b), axis=-3)

    steps = int(np.ceil(np.log2(space.order + 1)))
    for _ in range(steps):
        GX = mm(G, X)
        X = mm(X, 2 * eye - GX)
    return X


@dataclass
class MetricAtPoint:
    """Metric and its inverse at a point (or a batch of points), with the
    signature bookkeeping the indefinite checks need.

    Invariant: g . g_inv = identity within 1e-10 at the constant term, and g
    is non-degenerate: its smallest singular value exceeds 1e-12 times its
    largest, a test that does not change when g is rescaled."""

    g: TensorValue
    g_inv: TensorValue
    index: int

    @classmethod
    def build(cls, g: TensorValue) -> "MetricAtPoint":
        comps = g.components
        g0 = comps if g.space is None else comps[..., 0]
        sv = np.linalg.svd(g0, compute_uv=False)
        if np.any(sv[..., -1] <= 1e-12 * sv[..., 0]):
            raise ValueError("degenerate metric (smallest singular value of g at most 1e-12 of the largest)")
        ginv_comps = np.linalg.inv(comps) if g.space is None else invert_jet_matrix(g.space, comps)
        nus = {inertia(g0k) for g0k in g0.reshape((-1,) + g0.shape[-2:])}
        if len(nus) != 1:
            raise ValueError(f"metric index is not constant over the sample set: {sorted(nus)}")
        g_inv = TensorValue(g.dim, 2, 0, ginv_comps, g.space, g.batched)
        return cls(g=g, g_inv=g_inv, index=nus.pop())
