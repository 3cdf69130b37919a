"""Random tangent-space structures for the tests, and the per-trial reference
of the synthetic suite's draws: one trial drawn as a tuple of small arrays
(draw_trial) and assembled with the other trials grouped by p
(assemble_structures).  The suite draws and assembles whole blocks of trials
instead (hypersurface_lab._draw_block, _assemble_block); these two are the
oracle it is checked against, bit for bit."""

import numpy as np

from paracheck.hypersurface_lab import _rand_orth


def draw_trial(rng: np.random.Generator, n: int, plus_dim: int | None = None) -> tuple:
    """One trial's raw draws, in stream order: the +1 eigenspace dimension p
    (unless given), then normal, uniform and integers for each nonempty block
    of ker eta (dimensions p and n-1-p), then normal, uniform, normal for the
    frame change L.  The integers are the signs, still raw."""
    p = min(int(rng.integers(0, n)) if plus_dim is None else plus_dim, n - 1)
    blocks = [(rng.standard_normal((k, k)), rng.uniform(0.5, 2.0, k), rng.integers(0, 2, k))
              for k in (p, n - 1 - p) if k]
    return p, blocks, (rng.standard_normal((n, n)), rng.uniform(0.75, 1.35, n), rng.standard_normal((n, n)))


def assemble_structures(draws: list[tuple], n: int,
                        epsilon: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One (g, phi, xi, eta) per draw_trial draw, stacked on a leading trial
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


def random_pointwise_structure(rng, n, epsilon, plus_dim=None):
    """Random (g, phi, xi, eta) satisfying the structure axioms at a point.

    Built in the canonical frame (phi diagonal +-1 on ker eta, metric block
    diagonal) and conjugated by a random invertible map, so components are
    generic.  Returns numeric arrays (g, phi, xi, eta).
    """
    return tuple(a[0] for a in assemble_structures([draw_trial(rng, n, plus_dim)], n, epsilon))
