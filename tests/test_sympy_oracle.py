"""Symbolic oracles for the synthetic Gauss chain of criterion 10 and the W1 and W2 manifests.

Independent of the numeric pipeline (no `_wedge` or
`synthetic_gauss_check`): sympy builds the canonical frame of an
(eps)-almost paracontact structure at a point -- phi = diag(+1 (p times),
-1 (q times), 0), xi = e_n, eta = e^n, metric blockdiag(G+, G-, eps) with
symbolic symmetric blocks G+ and G- -- plants the characterized shape
operator A = -eps I + eps eta(x)xi, so h(X, Y) = eps g(AX, Y), and pushes the
almost-constant-curvature ansatz k (g ^ g + Phi ^ Phi) through the Gauss
equation R = R~ + eps (h ^ h), where (a ^ b)(X,Y,Z,W) = a(Y,Z) b(X,W) -
a(X,Z) b(Y,W).  Every identity below is exact in the block entries.

This is the evidence for the adjudication that criteria 10b and 10c follow:

- R(X,Y)xi = eta(X)Y - eta(Y)X has the unique solution k = -eps (the
  published chain uses k = 2 - eps);
- the Ricci contraction at k = -eps is -eps trace(phi) Phi + (1-n) eta(x)eta;
- the published display (k-1)[gg] + k[PhiPhi] + eps{eta-cross} at k = 2 - eps
  contracts to the published Ricci display, so the published chain is
  self-consistent but does not follow from the ansatz and shape operator;
- derived minus published Ricci is
  -((2-eps)(n-2)-n) g - 2 trace(phi) Phi + ((2-n) + eps(n-4)) eta(x)eta,
  which vanishes only at eps = -1, n = 3, trace(phi) = 0.

It is also the exact oracle for the W1 test manifest (tests/fixtures/W1.json,
E1 with the x2 metric factor (1 + x1^2)^2 / y^2): its para-Sasakian defining
equation holds identically, and its Ricci tensor is no constant combination
of g, Phi and eta(x)eta, so the Einstein-like fit fails there because W1 is
not Einstein-like.  The same exact Gamma, Riemann, Ricci, scalar curvature,
nabla phi and L_xi g of W1 and of E1, of their eps = -1 twins W2 and E2
(tests/fixtures/W2.json), and of the warped charts W(2, 2, +-1)
(tests/fixtures/W22p.json and W22m.json), check the chart pipeline's values
at dyadic points;
the exact Taylor coefficients of the builtin bundles' embedding maps check
their order-4 jets.
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from paracheck.expr_jet import JetSpace, eval_expr, parse_expr
from paracheck.geometry_engine import lie_derivative
from paracheck.hypersurface_lab import builtin_bundles
from paracheck.manifest import load_manifest
from paracheck.models import evaluate_structure, get_model

sp = pytest.importorskip("sympy")

FRAMES = [(1, 1), (2, 0), (2, 2), (3, 1)]  # (p, q): n = p + q + 1


def _sym_block(name: str, m: int):
    sym = {}
    for i in range(m):
        for j in range(i, m):
            sym[i, j] = sym[j, i] = sp.Symbol(f"{name}{i}{j}")
    return sp.Matrix(m, m, lambda i, j: sym[i, j])


def _frame(eps: int, p: int, q: int):
    """(g, phi, xi, eta, block symbols) in the canonical frame; eta is a row."""
    n = p + q + 1
    g = sp.diag(_sym_block("a", p), _sym_block("b", q), eps)
    phi = sp.diag(*([1] * p + [-1] * q + [0]))
    xi = sp.Matrix([0] * (n - 1) + [1])
    eta = sp.Matrix([[0] * (n - 1) + [1]])
    return g, phi, xi, eta, sorted(g.free_symbols, key=str)


def _kn(a, b):
    """(x, y, z, w) -> a(Y,Z) b(X,W) - a(X,Z) b(Y,W)."""
    return lambda x, y, z, w: a[y, z] * b[x, w] - a[x, z] * b[y, w]


def _eta_cross(g, e):
    """The {eta-cross} term of both displays, in the same (x, y, z, w) order."""
    return lambda x, y, z, w: (-g[y, z] * e[x] * e[w] - g[x, w] * e[y] * e[z]
                               + g[x, z] * e[y] * e[w] + g[y, w] * e[x] * e[z])


def _ricci(curv, ginv, n):
    """S(Y,Z) = sum_{i,w} g^{iw} R(e_i, Y, Z, e_w)."""
    return sp.Matrix(n, n, lambda j, k: sum(ginv[i, w] * curv(i, j, k, w)
                                            for i in range(n) for w in range(n)
                                            if ginv[i, w] != 0))


def _is_zero(M) -> bool:
    return all(sp.cancel(sp.expand(e)) == 0 for e in M)


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("p,q", FRAMES)
def test_gauss_chain_symbolic(eps, p, q, rng):
    g, phi, xi, eta, syms = _frame(eps, p, q)
    n = p + q + 1
    I = sp.eye(n)
    ee = eta.T * eta
    # the frame carries an (eps)-almost paracontact metric structure
    assert _is_zero(phi * phi - (I - xi * eta))
    assert _is_zero(phi.T * g * phi - (g - eps * ee))
    assert _is_zero(g * xi - eps * eta.T)

    Phi = phi.T * g                       # Phi(X, Y) = g(phi X, Y)
    A = -eps * I + eps * xi * eta         # A X = -eps X + eps eta(X) xi
    h = eps * A.T * g                     # h(X, Y) = eps g(AX, Y)
    assert _is_zero(h - (-g + eps * ee))
    assert _is_zero(h * xi)

    k = sp.Symbol("k")
    gg, PP, hh, cross = _kn(g, g), _kn(Phi, Phi), _kn(h, h), _eta_cross(g, eta)

    def gauss(kv):
        return lambda *i: kv * (gg(*i) + PP(*i)) + eps * hh(*i)

    # identically in k the reduction is (k + eps)[gg] + k[PhiPhi] + {eta-cross}
    assert all(sp.expand(gauss(k)(*i) - ((k + eps) * gg(*i) + k * PP(*i) + cross(*i))) == 0
               for i in itertools.product(range(n), repeat=4))

    # R(X,Y)xi = eta(X)Y - eta(Y)X, lowered: R(X,Y,xi,W) = eta(X)g(Y,W) - eta(Y)g(X,W)
    z = n - 1
    equations = [sp.expand(gauss(k)(x, y, z, w) - (eta[x] * g[y, w] - eta[y] * g[x, w]))
                 for x in range(n) for y in range(n) for w in range(n)]
    assert sp.linsolve(equations, [k]) == sp.FiniteSet((-eps,))

    ginv = sp.diag(g[:n - 1, :n - 1].inv(), sp.Integer(eps))
    trphi = phi.trace()
    S = _ricci(gauss(-eps), ginv, n)
    S_derived = -eps * trphi * Phi + (1 - n) * ee
    assert _is_zero(S - S_derived)

    kp = 2 - eps

    def printed(*i):
        return (kp - 1) * gg(*i) + kp * PP(*i) + eps * cross(*i)

    Sp = _ricci(printed, ginv, n)
    S_printed = (((2 - eps) * (n - 2) - n) * g + (2 - eps) * trphi * Phi
                 + eps * (4 - eps - n) * ee)
    assert _is_zero(Sp - S_printed)

    D = -((2 - eps) * (n - 2) - n) * g - 2 * trphi * Phi + ((2 - n) + eps * (n - 4)) * ee
    assert _is_zero(S - Sp - D)
    assert (D == sp.zeros(n, n)) == ((eps, n, trphi) == (-1, 3, 0))

    # the same difference at numeric blocks, through the uncancelled contractions,
    # as a scale-stable residual max |gap| / (1 + max |S| + max |Sp|)
    values = {s: float(v) for s, v in zip(syms, rng.uniform(-0.5, 0.5, len(syms)))}
    for i in range(n - 1):                # diagonally dominant, invertible blocks
        values[g[i, i]] += float(rng.choice([-2.0, 2.0]))
    S_num, Sp_num, D_num = (np.array(M.subs(values).evalf(), dtype=float) for M in (S, Sp, D))
    gap = S_num - Sp_num - D_num
    scale = 1.0 + np.max(np.abs(S_num)) + np.max(np.abs(Sp_num))
    assert np.max(np.abs(gap)) / scale < 5e-15


# --------------------------------------------------------------------------
# W1: para-Sasakian, not Einstein-like
# --------------------------------------------------------------------------

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _chart(path: Path, metric_xx2=None):
    """(coordinate symbols, g, phi, xi, eta, eps) of the manifest at
    ``path``, read from its JSON and parsed by sympy with exact rationals; eta
    is a row, and phi[a, b] is phi^a_b.  ``metric_xx2`` replaces the x2
    metric factor."""
    m = json.loads(path.read_text())
    n = m["dim"]
    coords = sp.symbols(m["coords"], real=True)
    names = dict(zip(m["coords"], coords))

    def parse(src):
        return sp.sympify(src.replace("^", "**"), locals=names, rational=True)

    metric = list(m["metric"])
    if metric_xx2 is not None:
        metric[n + 1] = metric_xx2
    g = sp.Matrix(n, n, [parse(s) for s in metric])
    phi = sp.Matrix(n, n, [parse(s) for s in m["phi"]])
    return coords, g, phi, sp.Matrix([parse(s) for s in m["xi"]]), sp.Matrix([[parse(s) for s in m["eta"]]]), m["epsilon"]


def _levi_civita(g, coords):
    """Gamma[k][i][j] = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)."""
    n, ginv = len(coords), g.inv()
    return [[[sp.cancel(sum(ginv[k, l] * (sp.diff(g[j, l], coords[i]) + sp.diff(g[i, l], coords[j])
                                          - sp.diff(g[i, j], coords[l])) for l in range(n)) / 2)
              for j in range(n)] for i in range(n)] for k in range(n)]


def _riemann(G, coords, l, i, j, k):
    """R^l_ijk = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik."""
    return (sp.diff(G[l][j][k], coords[i]) - sp.diff(G[l][i][k], coords[j])
            + sum(G[l][i][m] * G[m][j][k] - G[l][j][m] * G[m][i][k] for m in range(len(coords))))


def _ricci_of(G, coords):
    """S_jk = R^i_ijk."""
    n = len(coords)
    return sp.Matrix(n, n, lambda j, k: sp.cancel(sum(_riemann(G, coords, i, i, j, k) for i in range(n))))


def _nabla_phi(G, phi, coords):
    """N[k][i][j] = (nabla_i phi)^k_j = d_i phi^k_j + G^k_il phi^l_j - G^l_ij phi^k_l."""
    n = len(coords)
    return [[[sp.diff(phi[k, j], coords[i]) + sum(G[k][i][l] * phi[l, j] - G[l][i][j] * phi[k, l]
                                                  for l in range(n))
              for j in range(n)] for i in range(n)] for k in range(n)]


def _fit_equations(S, g, Phi, ee, coords):
    """The conditions on constants (a, b, c) for S = a g + b Phi + c eta(x)eta
    at every point: each monomial coefficient of each component's numerator."""
    a, b, c = sp.symbols("a b c")
    equations = []
    for entry in S - a * g - b * Phi - c * ee:
        numerator = sp.numer(sp.together(sp.expand(entry)))
        equations += sp.Poly(sp.expand(numerator), *coords).coeffs()
    return equations, [a, b, c]


@pytest.mark.parametrize("factor,einstein_like", [(None, False), ("1/(y^2)", True)])
def test_w1_is_para_sasakian_and_not_einstein_like(factor, einstein_like):
    """W1 satisfies (nabla_X phi) Y = -g(phi X, phi Y) xi - eps eta(Y) phi^2 X
    identically in (x1, x2, y), and its Ricci tensor is no constant
    combination a g + b Phi + c eta(x)eta: the conditions on (a, b, c) that
    every component's numerator, as a polynomial in x1 and y, imposes are
    inconsistent.  With E1's x2 factor 1/y^2 in its place the same chart is
    Einstein-like, so the system has a solution (the positive control)."""
    coords, g, phi, xi, eta, eps = _chart(FIXTURES / "W1.json", factor)
    n = len(coords)
    G = _levi_civita(g, coords)
    nabla_phi = _nabla_phi(G, phi, coords)
    gpp = phi.T * g * phi                                   # g(phi e_i, phi e_j)
    phi2 = phi * phi
    for i, j, k in itertools.product(range(n), repeat=3):
        rhs = -gpp[i, j] * xi[k] - eps * eta[j] * phi2[k, i]
        assert sp.cancel(nabla_phi[k][i][j] - rhs) == 0, (i, j, k)

    S = _ricci_of(G, coords)
    equations, unknowns = _fit_equations(S, g, phi.T * g, eta.T * eta, coords)
    solutions = sp.linsolve(equations, unknowns)
    assert (solutions != sp.EmptySet) == einstein_like


DYADIC_POINTS = [(sp.Rational(1, 2), sp.Rational(-3, 4), sp.Rational(5, 4)),
                 (sp.Rational(-3, 2), sp.Rational(1, 4), sp.Integer(2))]


@pytest.mark.parametrize("target", ["W1", "E1", "W2", "E2", "W22p", "W22m"])
def test_chart_pipeline_matches_the_exact_geometry(target):
    """The jet pipeline's Gamma^k_ij, R^l_ijk, S_jk, r, (nabla_i phi)^k_j and L_xi g of W1 and of
    its Einstein-like control E1 (W1's chart with the x2 factor 1/y^2), of their Lorentzian
    (eps = -1, index 1) twins W2 and E2, and of the warped charts W(2, 2, +1) and W(2, 2, -1)
    (W22p and W22m, index 2), equal the exact ones at dyadic points, to 1e-12 relative to the
    largest exact entry.  W1's x2 factor varies with x1, so an index slip that commutes with a
    conformally flat metric shows here; the warped charts' factors are exponentials of their
    middle coordinate.  The manifests load through the manifest parser, so the request's index
    check runs on indefinite charts too."""
    fixture = FIXTURES / ({"E1": "W1", "E2": "W2"}.get(target, target) + ".json")
    manifest = target.startswith("W")
    coords, g, phi, xi, *_ = _chart(fixture, None if manifest else "1/(y^2)")
    n = len(coords)
    G = _levi_civita(g, coords)
    S = _ricci_of(G, coords)
    exact = {"gamma": G, "riemann": [[[[sp.cancel(_riemann(G, coords, l, i, j, k)) for k in range(n)]
                                       for j in range(n)] for i in range(n)] for l in range(n)],
             "ricci": S.tolist(), "scalar": sp.cancel(sum(g.inv()[j, k] * S[j, k] for j in range(n) for k in range(n))),
             "nabla_phi": _nabla_phi(G, phi, coords),
             "lie_g": [[sum(xi[k] * sp.diff(g[i, j], coords[k]) + g[k, j] * sp.diff(xi[k], coords[i])
                            + g[i, k] * sp.diff(xi[k], coords[j]) for k in range(n)) for j in range(n)]
                       for i in range(n)]}
    struct = evaluate_structure(load_manifest(fixture) if manifest else get_model(target),
                                np.array(DYADIC_POINTS, dtype=float), 2)
    curv = struct.curvature
    got = {"gamma": struct.connection.gamma.components[..., 0], "riemann": curv.riemann_ud.components[..., 0],
           "ricci": curv.ricci.components[..., 0], "scalar": curv.scalar[..., 0], "nabla_phi": struct.nabla_phi,
           "lie_g": lie_derivative(struct.g0, struct.nabla_g, struct.xi0, struct.nabla_xi)}
    for p, point in enumerate(DYADIC_POINTS):
        at = dict(zip(coords, point))
        for name, tensor in exact.items():
            want = np.vectorize(lambda e: float(e.subs(at)), otypes=[float])(np.array(tensor, dtype=object))
            gap = np.max(np.abs(got[name][p] - want))
            assert gap <= 1e-12 * np.max(np.abs(want)), (target, name, point, gap)


# --------------------------------------------------------------------------
# the embedding maps of the builtin bundles
# --------------------------------------------------------------------------

BUNDLE_POINTS = {
    "E3a": [(0.5, -0.75, 1.25), (-1.25, 0.25, -0.5)],
    "E3b": [(1.0, 0.5, 2.25), (1.25, 3.0, 5.5)],
    "B1": [(0.5, 0.75, 1.0), (1.125, 0.625, 0.875)],
}


@pytest.mark.parametrize("name", list(BUNDLE_POINTS))
def test_embedding_jets_are_the_taylor_coefficients(name):
    """The order-4 jets of the E3a, E3b and B1 embedding maps, which a bundle's evaluation reads
    (the sin and cos of one coordinate written in closed form), equal the exact Taylor
    coefficients d^alpha F / alpha! at dyadic points of each domain, to 1e-12 relative to the
    largest exact coefficient of each component."""
    emb = builtin_bundles()[name].embedding
    coords = sp.symbols(emb.coords, real=True)
    space = JetSpace.get(len(coords), 4)
    points = np.array(BUNDLE_POINTS[name])
    for src in emb.map:
        got = eval_expr(parse_expr(src, emb.coords), space, space.point_jets(points), points=points)
        f = sp.sympify(src, locals=dict(zip(emb.coords, coords)), rational=True)
        for p, point in enumerate(BUNDLE_POINTS[name]):
            at = {c: sp.Rational(x) for c, x in zip(coords, point)}
            want = []
            for alpha in space.indices:
                d = f
                for c, a in zip(coords, alpha):
                    d = sp.diff(d, c, a) if a else d
                want.append(float(d.subs(at)) / math.prod(math.factorial(a) for a in alpha))
            gap = np.max(np.abs(got[p] - want))
            assert gap <= 1e-12 * np.max(np.abs(want)), (name, src, point, gap)
