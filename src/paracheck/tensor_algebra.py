"""Dense typed-valence tensors of jets over a batch of sample points.

Components have shape (P,) + (dim,) * rank + (ncoeffs,): a leading sample
axis, the slots, and a trailing axis of jet coefficients.  Slot convention:
all contravariant (upper) slots come before all covariant (lower) slots, so
a (1,2) tensor T^k_{ij} is stored as components[:, k, i, j].  Contraction
(which also raises and lowers indices against g or its inverse) preserves
this layout.

Frame sums never appear here: every trace the checks need is realized as an
index contraction against g or its inverse, which is frame-independent by
construction (the cross-validation against signed orthonormal frames lives in
the test suite).  A metric's degeneracy and index come from one
eigendecomposition of its values; the one SVD is the least-squares solver's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr_jet import JetSpace, _is_constant, _locate, _moveaxis
from .report import RANK_CUTOFF, _max_abs


@dataclass
class TensorValue:
    """Dense tensor of valence (p contravariant, q covariant) in dimension
    ``dim``, as jets of ``space`` at each sample point."""

    dim: int
    p: int
    q: int
    components: np.ndarray
    space: JetSpace

    @property
    def rank(self) -> int:
        return self.p + self.q

    def __post_init__(self):
        if self.components.ndim != self.rank + 2:
            raise ValueError(
                f"component array has {self.components.ndim} axes, expected {self.rank + 2} "
                f"for valence ({self.p},{self.q})"
            )

    def as_jet(self, space: JetSpace) -> "TensorValue":
        """The tensor restricted to the lower-order ``space``."""
        if self.space is space:
            return self
        return TensorValue(self.dim, self.p, self.q, space.restrict(self.components), space)


def lowest_space(*spaces: JetSpace) -> JetSpace:
    """The lowest-order jet space among ``spaces``: an operation on jets of
    several orders is valid only to the lowest."""
    return min(spaces, key=lambda s: s.order)


def contract_with(A: TensorValue, B: TensorValue, slot_a: int, slot_b: int) -> np.ndarray:
    """Components of the contraction of slot ``slot_a`` of A with slot
    ``slot_b`` of B (absolute 0-based positions over the uppers-first layout);
    result axes are (P,) + (A slots minus slot_a) + (B slots minus slot_b)
    + (ncoeffs,), jets of the lower of the two operands' spaces.  One jet
    matrix product: A's free slots flattened to rows, B's to columns."""
    if A.dim != B.dim:
        raise ValueError(f"dimension mismatch: {A.dim} vs {B.dim}")
    space = lowest_space(A.space, B.space)
    A, B = A.as_jet(space), B.as_jet(space)
    n, m = A.dim, space.ncoeffs
    ca = _moveaxis(A.components, 1 + slot_a, -2)                    # (P, A free..., k, m)
    cb = _moveaxis(B.components, 1 + slot_b, 1)                     # (P, k, B free..., m)
    out = space.matmul(ca.reshape(len(ca), -1, n, m), cb.reshape(len(cb), n, -1, m))
    return out.reshape(out.shape[:1] + (n,) * (A.rank + B.rank - 2) + (m,))


# --------------------------------------------------------------------------
# metric data
# --------------------------------------------------------------------------


def inertia(sym: np.ndarray) -> np.ndarray:
    """Count of negative eigenvalues of each symmetric matrix of the stack
    (..., n, n), those below -1e-12 times its largest magnitude, or -1 where
    the matrix is degenerate, its smallest magnitude at most 1e-12 times its
    largest: tests that do not change when a matrix is rescaled.  One
    eigendecomposition of the symmetric part decides both, as the singular
    values of a symmetric matrix are its eigenvalues' magnitudes."""
    w = np.linalg.eigvalsh(0.5 * (sym + sym.swapaxes(-1, -2)))
    top = _max_abs(w, -1)
    nus = (w < -1e-12 * top[..., None]).sum(axis=-1)
    return np.where(np.minimum.reduce(np.abs(w), axis=-1) <= 1e-12 * top, -1, nus)


def check_metric(g0: np.ndarray, points: np.ndarray, field: str, index: int | None = None) -> None:
    """That the metric values g0 (P, n, n) at ``points`` are semi-Riemannian: finite, not degenerate,
    then of :func:`inertia` ``index``, or the first point's when none is declared.  A failure is a
    ValueError naming ``field`` and the first failing point."""
    nonfinite = ~np.isfinite(g0).all(axis=(-2, -1))
    if nonfinite.any():
        raise ValueError(f"{field}: not finite at point {_locate(nonfinite, points)}")
    nus = inertia(g0)
    singular = nus < 0
    if singular.any():
        raise ValueError(f"{field}: degenerate (smallest singular value at most 1e-12 of the largest) "
                         f"at point {_locate(singular, points)}")
    other = nus != (nus[0] if index is None else index)
    if other.any():
        raise ValueError(f"{field}: index {nus[np.argmax(other)]} at point {_locate(other, points)}, not the "
                         + (f"first point's {nus[0]}" if index is None else f"declared {index}"))


def min_norm_solve(rows: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-norm least-squares solutions of rows x = rhs, batched over the
    leading axis: rows (B, m, k) and rhs (B, m).  Each system's rank counts
    its singular values above RANK_CUTOFF times its largest.  Returns x (B, k),
    the ranks (B,) and Vt (B, min(m, k), k), whose rows past a system's rank
    span its solutions' family."""
    U, sv, Vt = np.linalg.svd(rows, full_matrices=False)
    kept = sv > RANK_CUTOFF * sv[:, :1]
    inv = np.where(kept, 1.0 / np.where(kept, sv, 1.0), 0.0)
    return np.einsum('pji,pj->pi', Vt, inv * np.einsum('pkj,pk->pj', U, rhs)), kept.sum(axis=1), Vt


def invert_jet_matrix(space: JetSpace, G: np.ndarray) -> np.ndarray:
    """Inverse of a jet-valued square matrix, components (..., n, n, m).

    Seeds with the exact numeric inverse of the constant term, then Newton
    iterations X <- X (2I - G X), each product one :meth:`JetSpace.matmul`;
    the error degree doubles each step, so ceil(log2(order+1)) steps reach
    exactness at the space's order.  A constant G (derivative part all zero,
    as in :meth:`JetSpace.mul`) takes no step: the seed is its exact inverse.
    """
    G0 = G[..., 0]
    X0 = np.linalg.inv(G0)
    X = np.zeros_like(G)
    X[..., 0] = X0
    n = G.shape[-2]
    eye = np.zeros(G.shape[-3:])
    eye[..., 0] = np.eye(n)
    steps = 0 if _is_constant(G) else int(np.ceil(np.log2(space.order + 1)))
    for _ in range(steps):
        X = space.matmul(X, 2 * eye - space.matmul(G, X))
    return X


@dataclass
class MetricAtPoint:
    """Metric and its jet inverse at the sample points, g . g_inv = identity
    within 1e-10 at the constant term; g passed :func:`check_metric` where it was evaluated."""

    g: TensorValue
    g_inv: TensorValue

    @classmethod
    def build(cls, g: TensorValue) -> "MetricAtPoint":
        """The metric at the samples and its jet inverse."""
        return cls(g=g, g_inv=TensorValue(g.dim, 2, 0, invert_jet_matrix(g.space, g.components), g.space))
