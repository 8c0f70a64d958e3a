"""Gauss-Legendre panel rules shared by the solver, the diagnostics and the
geometry quadratures.

`gauss_legendre` is the plain 5-node rule on each of many intervals.
`fitted_rule` is the 8-node rule taken in y = e^{c (s - b)}, with c the
chord slope of an exponent G across the panel: it integrates e^{G(s)} f(s)
to near machine precision when G is smooth and grows by at most about 1
across the panel (so e^{G - chord} stays close to 1), however steep G is.
`partial_integrals` reuses a panel's node values to integrate from its
left end to each node, so a quantity defined by a running integral (Theta
= I / psi^{n-1}) is known at the nodes without evaluating anything again.
"""

import math

import numpy as np

# 5-node Gauss-Legendre rule on [-1, 1], in closed form; exact for degree
# 9, and the integrands are smooth inside a row interval.
_GL_X1 = math.sqrt(5.0 - 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
_GL_X2 = math.sqrt(5.0 + 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
_GL_W1 = (322.0 + 13.0 * math.sqrt(70.0)) / 900.0
_GL_W2 = (322.0 - 13.0 * math.sqrt(70.0)) / 900.0
_GL_NODES = np.array([-_GL_X2, -_GL_X1, 0.0, _GL_X1, _GL_X2])
_GL_WEIGHTS = np.array([_GL_W2, _GL_W1, 128.0 / 225.0, _GL_W1, _GL_W2])


def gauss_legendre(f, a, b):
    """Integral of f over each interval [a_i, b_i] by the 5-node rule.

    f is called once, on the (len(a), 5) array of all nodes.
    """
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES
    return half * (f(x) @ _GL_WEIGHTS)


def _partial_matrix(x, w):
    """M[i, j] with sum_j M[i, j] w_j f(x_j) = int_{-1}^{x_i} f for f of
    degree < len(x).

    The Lagrange basis of the nodes is expanded in Legendre polynomials by
    the rule's own discrete orthogonality, l_j = w_j sum_k (k + 1/2)
    P_k(x_j) P_k, and each P_k is integrated from -1 in closed form.
    """
    leg = np.polynomial.legendre
    deg = len(x) - 1
    P = leg.legvander(x, deg)
    Q = np.stack([leg.legval(x, leg.legint(np.eye(deg + 1)[k], lbnd=-1.0))
                  for k in range(deg + 1)], axis=1)
    return (Q * (np.arange(deg + 1) + 0.5)) @ P.T


def _gauss_nodes(n):
    """Nodes and weights of the n-node Gauss-Legendre rule, by Newton's
    method on P_n from the asymptotic node estimates (leggauss would load
    LAPACK for its eigenvalue solve)."""
    leg = np.polynomial.legendre
    c = np.eye(n + 1)[n]
    dc = leg.legder(c)
    x = -np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(6):
        x = x - leg.legval(x, c) / leg.legval(x, dc)
    return x, 2.0 / ((1.0 - x * x) * leg.legval(x, dc) ** 2)


_X8, _W8 = _gauss_nodes(8)
_U8 = 0.5 * (1.0 - _X8)  # distance of each node from the right end, in [0, 1]
_HALF_W8 = 0.5 * _W8
_PARTIAL8 = _partial_matrix(_X8, _W8)


def fitted_rule(a, b, dG):
    """8-node rule on each panel [a_i, b_i], fitted to the chord of G.

    dG_i = G(b_i) - G(a_i) >= 0. The rule is Gauss-Legendre in
    y = e^{c (s - b)}, c = dG / (b - a), on [e^{-dG}, 1]; with dG = 0 it is
    plain Gauss-Legendre in s. Returns the nodes s and weights wt, both
    (len(a), 8) and increasing in s, with sum(wt * f(s)) ~ int_a^b f ds.
    The rule is exact for f = e^{c s} times a polynomial of degree 15 in
    y, so for f = e^{G} it only has to resolve e^{G - chord}.
    """
    a = np.asarray(a, dtype=float)[:, None]
    b = np.asarray(b, dtype=float)[:, None]
    dG = np.maximum(np.asarray(dG, dtype=float), 1e-300)[:, None]
    h = -np.expm1(-dG)  # width of the panel in y
    width = b - a
    # in place from here on: lookups run this on 8 nodes per radius
    wt = h * _U8
    s = np.negative(wt)
    np.log1p(s, out=s)
    s *= width / dG
    s += b
    # ds = dy / (c y), and dy = (h / 2) dt on the reference interval
    np.subtract(1.0, wt, out=wt)
    np.reciprocal(wt, out=wt)
    wt *= width * (h / dG)
    wt *= _HALF_W8
    return s, wt


def partial_integrals(wf):
    """int_a^{s_i} f for every node s_i of a `fitted_rule` panel.

    wf is wt * f(s) on the (N, 8) nodes. Exact where f / y is a polynomial
    of degree 7 in y (the full rule: degree 15).
    """
    return wf @ _PARTIAL8.T
