"""The exponentially fitted 8-node rule behind every e^{E} integral of the
package: the geometry tables, the integrals of the solution and the
Sobolev norms.

`fitted_rule` is the 8-node Gauss-Legendre rule taken in y = e^{c (s - e)},
with c the chord slope of an exponent E across the panel and e the end
where E is larger (after Ixaru & Vanden Berghe, Exponential Fitting): it
integrates f e^{E} to near machine precision when f and E - chord are
smooth across the panel, however steep E is. `panel_integrals` integrates
f e^{E} between consecutive radii on it, one panel per interval unless E
bends away from its chord. `partial_integrals` reuses a panel's node
values to integrate from its left end to each node, so a quantity defined
by a running integral (Theta = I / psi^{n-1}) is known at the nodes
without evaluating anything again. `unit_growth_edges` lays out panels
across which an exponent grows by at most 1, the layout of the geometry
tables and of the Sobolev norms.
"""

import numpy as np

# a panel across which the exponent E grows by more than 1 is cut where E,
# read at the panel's nodes, departs from its chord by more than this. The
# rule's error is about tanh(dE/4)^16 times that departure, and at most
# about 2e-3 of it however steep the panel: 3e-15 at a growth of 1/2, the
# growth of each part of a cut panel, and 2e-10 at 1. Straight exponents
# stay one panel however steep, as on the oscillation's tails, whose
# exponents grow by up to 1e5 across a step and depart from their chords
# by up to 1e-6.
_BEND = 1e-5
# panels fitted and evaluated per call of the integrand, and per model
# call of the geometry tables (models.GeometryProfile._tabulate): bounds
# the (panels, 8) node arrays of one call; a profile lookup that a factor
# makes on a block's 4,096 nodes reads them in blocks of dense._BLOCK
# radii itself. 2048 was slower, and held 0.9 MB more at the Pohozaev
# audit's peak
_BLOCK = 512
# most panels one panel_integrals call or one unit_growth_edges layout
# lays out, 40 MB of nodes; the 6-stage oscillation's flux residual uses
# 1,742, and its geometry layout 144,430
_MAX_PANELS = 2 ** 20
_LOG_EPS = float(np.log(np.finfo(float).eps))


def panel_integrals(exponent, x, E, factor=None):
    """int_{x_k}^{x_{k+1}} f e^{E - c_k} for every interval k, on the
    fitted rule.

    exponent(s, k) returns E(s) - c_k at the radii s ((m, j) array) of the
    intervals k ((m,) array), c_k any constant of interval k; E holds the
    exponent at the radii x, without those constants. factor(s), if given,
    returns f at the radii s (else f = 1). Each interval is one panel of
    `fitted_rule`, fitted to the chord of E. Where E grows by more than 1
    across a panel and, read at the panel's nodes, departs from its chord
    by more than _BEND, the panel is cut into ceil(2 g) equal parts, g the
    larger of the growth and E's slope at the end where E is larger times
    the panel's width, and each part is taken as a panel again; parts
    where e^{E} stays below eps of the panel's largest value are left out.
    That decision reads only the panel's own values. An interval from the
    pole x = 0 is one panel of plain Gauss-Legendre. Panels go through
    exponent and factor in blocks of _BLOCK; more than _MAX_PANELS are
    refused (QuadratureFailure) before they are laid out.
    """
    if not len(x) - 1 <= _MAX_PANELS:
        _refuse(len(x) - 1)
    a, b = x[:-1], x[1:]
    with np.errstate(invalid="ignore"):
        dE = np.where(a > 0.0, np.diff(E), 0.0)
    return _cut_sums(exponent, factor, a, b, dE, np.arange(len(a)), len(a))


def _refuse(panels):
    from .models import QuadratureFailure  # models imports this module
    raise QuadratureFailure(f"{panels:.0f} panels asked for, more than {_MAX_PANELS}")


def _cut_sums(exponent, factor, a, b, dE, k, laid):
    """The integrals over the panels [a, b] of the intervals k, each cut
    where E bends away from its chord; `laid` panels are laid out so far."""
    out, parts = _fitted_sums(exponent, factor, a, b, dE, k)
    cut = np.nonzero(parts > 1)[0]
    if cut.size == 0:
        return out
    parts = parts[cut]
    laid += parts.sum() - cut.size
    if not laid <= _MAX_PANELS:
        _refuse(laid)
    # the edges of each cut panel's parts, from a to b, and E there
    kp = np.repeat(k[cut], parts + 1)
    start = np.cumsum(parts + 1) - (parts + 1)
    j = np.arange(len(kp)) - np.repeat(start, parts + 1)
    pts = np.repeat(a[cut], parts + 1) + np.repeat((b - a)[cut], parts + 1) * (
        j / np.repeat(parts, parts + 1))
    pts[start + parts] = b[cut]
    E_pts = np.concatenate([exponent(pts[blk, None], kp[blk])[:, 0]
                            for blk in _blocks(len(pts))])
    lo = np.delete(np.arange(len(pts)), start + parts)  # each part's left edge
    # a part where e^{E} stays below eps of its panel's largest edge value
    # cannot change the panel's sum, and is left out
    panel = np.repeat(np.arange(len(cut)), parts)
    top = np.maximum.reduceat(E_pts, start)[panel]
    keep = np.maximum(E_pts[lo], E_pts[lo + 1]) > top + _LOG_EPS
    lo, panel = lo[keep], panel[keep]
    sums = _cut_sums(exponent, factor, pts[lo], pts[lo + 1], np.diff(E_pts)[lo],
                     kp[lo], laid)
    out[cut] = np.bincount(panel, sums, len(cut))
    return out


def _blocks(size):
    return [slice(i, i + _BLOCK) for i in range(0, size, _BLOCK)]


def _fitted_sums(exponent, factor, a, b, dE, k):
    """The fitted rule's sum on each panel [a, b] of interval k, and the
    parts to cut each panel into (1 where it stays whole)."""
    sums, parts = np.empty(len(a)), np.ones(len(a), dtype=int)
    for blk in _blocks(len(a)):
        s, wt = fitted_rule(a[blk], b[blk], dE[blk])
        Es = exponent(s, k[blk])
        f = np.exp(Es)
        if factor is not None:
            f *= factor(s)
        sums[blk] = np.einsum("ij,ij->i", wt, f)
        wide = blk.start + np.nonzero(np.abs(dE[blk]) > 1.0)[0]
        if wide.size:
            i = wide - blk.start
            width = b[wide] - a[wide]
            dev = Es[i] - (dE[wide] / width)[:, None] * (s[i] - a[wide, None])
            bent = dev.max(axis=1) - dev.min(axis=1) > _BEND
            # the last two nodes lie next to the end where E is larger
            steep = (Es[i, -1] - Es[i, -2]) / (s[i, -1] - s[i, -2]) * width
            growth = np.maximum(np.abs(dE[wide]), np.abs(steep))
            parts[wide[bent]] = np.ceil(2.0 * growth[bent])
    return sums, parts


def unit_growth_edges(exponent, edges, growth=None):
    """Panel edges on which an exponent G grows by at most 1 across each
    panel, and G at them.

    Each panel of `edges` is cut into ceil(growth) equal parts (growth
    bounds G's growth across it; None leaves it whole), and every part
    across which G, read at its edges by exponent(r), still grows by more
    than 1 is cut again the same way. Where G reads non-finite the edges
    and G so far are returned, for the caller to refuse. A layout of more
    than _MAX_PANELS panels is refused (QuadratureFailure) before it is
    laid out.
    """
    if growth is None:
        growth = np.zeros(len(edges) - 1)
    while True:
        parts = np.maximum(np.ceil(growth), 1).astype(int)
        if not parts.sum() <= _MAX_PANELS:
            _refuse(parts.sum())
        first = np.repeat(np.cumsum(parts) - parts, parts)
        step = np.repeat(np.diff(edges) / parts, parts)
        edges = np.append(np.repeat(edges[:-1], parts)
                          + step * (np.arange(parts.sum()) - first), edges[-1])
        G = exponent(edges)
        if not np.all(np.isfinite(G)):
            return edges, G
        growth = np.diff(G)
        if growth.max() <= 1.0:
            return edges, G


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

    dG_i = G(b_i) - G(a_i). The rule is Gauss-Legendre in
    y = e^{c (s - e)}, c = dG / (b - a), on [e^{-|dG|}, 1], taken from the
    end e where G is larger (b, or a where dG has its sign bit set), so y
    never exceeds 1; with dG = 0 it is plain Gauss-Legendre in s. Returns
    the nodes s and weights wt, both (len(a), 8), with s increasing from b
    and decreasing from a, and sum(wt * f(s)) ~ int_a^b f ds.
    The rule is exact for f = e^{c s} times a polynomial of degree 15 in
    y, so for f = e^{G} it only has to resolve e^{G - chord}.
    """
    a = np.asarray(a, dtype=float)[:, None]
    b = np.asarray(b, dtype=float)[:, None]
    dG = np.asarray(dG, dtype=float)[:, None]
    g = np.maximum(np.abs(dG), 1e-300)
    h = -np.expm1(-g)  # width of the panel in y
    width = b - a
    # in place from here on: lookups run this on 8 nodes per radius
    wt = h * _U8
    s = np.negative(wt)
    np.log1p(s, out=s)
    s *= width / np.copysign(g, dG)
    s += np.where(np.signbit(dG), a, b)
    # ds = dy / (|c| y), and dy = (h / 2) dt on the reference interval
    np.subtract(1.0, wt, out=wt)
    np.reciprocal(wt, out=wt)
    wt *= width * (h / g)
    wt *= _HALF_W8
    return s, wt


def partial_integrals(wf):
    """int_a^{s_i} f for every node s_i of a `fitted_rule` panel.

    wf is wt * f(s) on the (N, 8) nodes. Exact where f / y is a polynomial
    of degree 7 in y (the full rule: degree 15).
    """
    return wf @ _PARTIAL8.T
