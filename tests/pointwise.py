"""Random tangent-space structures for the tests, built by the synthetic
suite's own draw and assembly steps."""

from paracheck.hypersurface_lab import _assemble_structures, _draw_trial


def random_pointwise_structure(rng, n, epsilon, plus_dim=None):
    """Random (g, phi, xi, eta) satisfying the structure axioms at a point.

    Built in the canonical frame (phi diagonal +-1 on ker eta, metric block
    diagonal) and conjugated by a random invertible map, so components are
    generic.  Returns numeric arrays (g, phi, xi, eta).
    """
    return tuple(a[0] for a in _assemble_structures([_draw_trial(rng, n, plus_dim)], n, epsilon))
