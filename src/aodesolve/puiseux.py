"""Truncated irreducible local parametrizations (places) of the curve.

For a center moved to the origin, the classical Newton polygon
recursion computes all branches z(y) with z(0) = 0.  Each polygon step
uses the rational substitution

    y = xi^v * y1^p,    z = y1^q * (xi^u + z1),    u*p - v*q = 1,

so coefficients stay in the tower generated by the characteristic
roots xi; ramification never requires adjoining radicals of xi.  One
leaf of the recursion corresponds to exactly one place (the t -> zeta*t
conjugates of a ramified branch all follow the same leaf), so places
are separated structurally, independent of the truncation order, and
each place extends its own tail on demand.
"""

from fractions import Fraction
from functools import cache, partial
from math import comb, gcd

from .errors import DegenerateInput, InsufficientPrecision, PointNotOnCurve
from .numbers import (AlgebraicNumber, as_alg, common_tower, common_tower_of, lift,
                      scalar_json)
from .poly import BiPoly, UniPoly, translate
from .series import TruncatedSeries, compose, horner, invert
from . import factor as _factor

_F0 = Fraction(0)
_F1 = Fraction(1)


def default_bound(F):
    """Coefficient count that always covers the singular part:
    2*(deg_y(F) - 1)*deg_z(F) + 1."""
    return 2 * (F.deg_y - 1) * F.deg_z + 1


# ---------------------------------------------------------------------------
# Newton polygon


class PolygonEdge:
    """One lower-hull edge relevant to expansions z(y) with z(0) = 0.

    slope is the Puiseux exponent q/p (positive); points are the
    supporting monomials as (deg_y, deg_z) pairs.
    """

    __slots__ = ("slope", "p", "q", "points")

    def __init__(self, slope, p, q, points):
        self.slope = slope
        self.p = p
        self.q = q
        self.points = points

    def __repr__(self):
        return "Edge(slope=%s, points=%s)" % (self.slope, self.points)


def newton_polygon(F):
    """Edges of the Newton polygon of F relevant to branches through
    the origin, i.e. of positive slope q/p (z ~ y^(q/p))."""
    if F.is_zero():
        raise DegenerateInput("zero polynomial")
    support = [(j, i) for (i, j) in F.terms]  # (z-degree, y-degree)
    if (0, 0) in support:
        raise DegenerateInput("F(0,0) != 0: no branch through the origin")
    if all(i >= 1 for (_, i) in support):
        raise DegenerateInput("F is divisible by y")
    pts = sorted(set(support))
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    edges = []
    for (j0, i0), (j1, i1) in zip(hull, hull[1:]):
        if i0 <= i1:
            continue  # slope >= 0: branches not vanishing at the origin
        dq, dp = i0 - i1, j1 - j0
        g = gcd(dq, dp)
        p, q = dp // g, dq // g
        on_edge = [(i, j) for (j, i) in pts
                   if (i0 - i) * dp == (j - j0) * dq and j0 <= j <= j1]
        edges.append(PolygonEdge(Fraction(dq, dp), p, q,
                                 sorted(on_edge, key=lambda ij: ij[1])))
    if not edges:
        raise DegenerateInput("no admissible Newton polygon edge")
    return edges


# ---------------------------------------------------------------------------
# branch expansion


def _bezout(p, q):
    """u in 1..q, v >= 0 with u*p - v*q = 1 (gcd(p, q) = 1)."""
    u = 1 if q == 1 else pow(p, -1, q)
    v = (u * p - 1) // q
    return u, v


def _char_poly(F, edge):
    coeffs = []
    (i0, j0) = min(edge.points, key=lambda ij: ij[1])
    kmax = (max(j for _, j in edge.points) - j0) // edge.p
    for k in range(kmax + 1):
        j = j0 + k * edge.p
        i = i0 - k * edge.q
        coeffs.append(F.coeff(i, j))
    return UniPoly(coeffs, "T")


def _transform(F, edge, u, v, xi):
    """F(xi^v y^p, y^q (xi^u + z)) divided by the full power of y."""
    p, q = edge.p, edge.q
    xipow = cache(lambda n: xi ** n)
    old = F.terms
    L = min(p * i + q * j for (i, j) in old)
    terms = {}
    for (i, j), c in old.items():
        base = p * i + q * j - L
        for k in range(j + 1):
            coeff = c * comb(j, k) * xipow(v * i + u * (j - k))
            key = (base, k)
            cur = terms.get(key)
            terms[key] = coeff if cur is None else cur + coeff
    return BiPoly(terms)


def _regular_tail(H, n):
    """The unique series z(y), z(0) = 0, with H(y, z(y)) = 0, computed
    to n+1 coefficients by Newton iteration; requires dH/dz(0,0) != 0.
    A step takes P, right to t^(k-1), to P - H(t, P) / H_z(t, P), right
    to t^m with m = min(2k, n + 1) - 1.  H(t, P) = O(t^k), so it is
    evaluated to order m and H_z(t, P) only to order m - k; each is
    series.horner in z on the columns of H read as series in t.
    It comes back exact when those coefficients solve H exactly; an
    identity holds at every point, so one nonzero H(1/3, P(1/3)) rules
    that out without the series check."""
    def at(F, P, m):
        return horner([TruncatedSeries(col.coeffs, m) for col in F.coeffs], P)

    Hz = H.diff_z()
    coeffs = [_F0]
    while len(coeffs) <= n:
        k, m = len(coeffs), min(2 * len(coeffs), n + 1) - 1
        P = TruncatedSeries(coeffs, m)
        upd = P - at(H, P, m) * invert(at(Hz, P.truncate(m - k), m - k))
        coeffs = list(upd.coeffs[:m + 1])
    t0 = Fraction(1, 3)
    if H.eval(t0, horner(coeffs[:n + 1], t0)) == 0:
        exact_poly = TruncatedSeries.exact(coeffs[:n + 1])
        if H.eval_series(TruncatedSeries.exact([_F0, _F1]), exact_poly).is_zero_series():
            return exact_poly
    return TruncatedSeries(coeffs[:n + 1], n)


def _expand(H, tower, cap, depth=0):
    """The branches of H through the origin, one (lam, e, Z, tower) per
    leaf of the polygon recursion: y = lam * t^e, z = Z(n) to order n,
    the leaf's tail (a Newton lift, or the exact 0 of z | H) wrapped in
    each polygon step on the way back up."""
    if depth > 64:
        raise ArithmeticError("Newton-Puiseux recursion failed to terminate")
    branches = []
    if H[0] == 0:
        # z | H: the branch terminates exactly with z = 0; the quotient
        # H / z cannot be divisible by z again (H is squarefree in z)
        branches.append((Fraction(1), 1, lambda n: TruncatedSeries.exact([]), tower))
        H = BiPoly.from_columns(H.coeffs[1:])
        if H[0] == 0:
            raise ArithmeticError("transformed polynomial divisible by z twice")
    if H.is_zero() or H.coeff(0, 0) != 0:
        return branches
    for edge in newton_polygon(H):
        p, q = edge.p, edge.q
        phi = _char_poly(H, edge)
        u, v = _bezout(p, q)
        for xi, mult in _factor.roots_by_factor(phi, tower, cap):
            t2 = xi.tower
            H1 = _transform(H, edge, u, v, xi)  # xi puts every coefficient in t2
            if mult == 1:
                subs = [(Fraction(1), 1, partial(_regular_tail, H1), t2)]
            else:
                subs = _expand(H1, t2, cap, depth + 1)
            for lam, e, Z, t3 in subs:
                Z = partial(_polygon_step, Z, xi ** u, lam ** q, e * q)
                branches.append(((xi ** v) * lam ** p, e * p, Z, t3))
    return branches


def _polygon_step(Z, c, s, k, n):
    """(Z(n) + c) * s * t^k: a polygon step applied to its child's tail."""
    return (Z(n) + TruncatedSeries.constant(c)).scale(s).shift(k)


# ---------------------------------------------------------------------------
# places


class Place:
    """A truncated irreducible local parametrization (A, B) with
    A = c0 + lam * t^e exactly and B = tail(n) certified to order n."""

    __slots__ = ("center", "e", "lam", "A", "B", "tower",
                 "center_multiplicity", "place_id", "tail")

    def __init__(self, center, e, lam, B, tower, center_multiplicity, place_id=None):
        self.center = center
        self.e = e
        self.lam = lam
        self.B = B
        self.tail = lambda n: B
        self.tower = tower
        c0 = center[0]
        self.A = TruncatedSeries.exact([c0] + [_F0] * (e - 1) + [lam])
        self.center_multiplicity = center_multiplicity
        self.place_id = place_id

    def extend(self, n):
        """This place, with B rebuilt from its tail unless known to order n."""
        self.B = self.B if self.B.known(n) else self.tail(n)
        return self

    @property
    def order(self):
        return min(self.e, self.ord_B())

    def ord_B(self):
        diff = self.B - TruncatedSeries.constant(self.center[1])
        o = diff.order()
        if o is None:
            if diff.is_zero_series():
                return float("inf")  # exactly constant second coordinate
            raise InsufficientPrecision(
                "order of B at the center is not certified at truncation %s"
                % self.B.trunc)
        return o

    def __repr__(self):
        return "Place(A=%s, B=%s)" % (self.A.render(), self.B.render())

    def to_json(self):
        tv = tangent_vector(self)
        return {
            "center": [scalar_json(self.center[0]), scalar_json(self.center[1])],
            "e": self.e,
            "A": self.A.to_json(),
            "B": self.B.to_json(),
            "order": self.order,
            "tangent": [scalar_json(tv[0]), scalar_json(tv[1])],
            "kind": ramification_kind(self),
        }


def tangent_vector(place):
    """Tangent direction of the branch at its center: (a_n, b_n) when
    the coordinate orders agree, else the lower-order side wins."""
    n = place.e
    m = place.ord_B()
    if n == m:
        return (place.lam, place.B[m])
    if n < m:
        return (place.lam, _F0)
    return (_F0, place.B[m])


def ramification_kind(place):
    """Classify the center: singular, z/y-ramification or none."""
    if place.center_multiplicity > 1:
        return "singular"
    n, m = place.e, place.ord_B()
    if n > m == 1:
        return "z_ramification"
    if m > n == 1:
        return "y_ramification"
    return "none"


def places_at(F, center, n, cap=_factor.DEFAULT_DEGREE_CAP):
    """All places of C(F) centered at the given point, one per
    equivalence class, each with at least n certified coefficients.

    The Duval bound (default_bound) guarantees that n covers the
    singular part; the branch separation itself is structural, so any
    n >= 1 yields correct places with shorter tails (see Place.extend).
    """
    c0, c1 = _unify_coords(*center, cap=cap)
    if F.eval(c0, c1) != 0:
        raise PointNotOnCurve("the point is not on the curve")
    tower = common_tower_of((c0, c1))
    G = translate(F, c0, c1)
    mult = G.min_total_degree()
    places, C1 = [], TruncatedSeries.constant(c1)
    for lam, e, Z, tw in _expand(G, tower, cap):
        lam, Z, tw = _normalize(lam, e, Z, tw, cap)
        B = lambda n, Z=Z: Z(n) + C1
        pl = Place((lift(c0, tw), lift(c1, tw)), e, lam, B(n), tw, mult)
        pl.tail = B
        places.append(pl)
    if len(places) > 1:  # a lone place needs no sort key
        places.sort(key=_place_sort_key)
    for idx, pl in enumerate(places):
        pl.place_id = "p%d" % idx
    total = sum(p.order for p in places)
    if total != mult:
        raise ArithmeticError(
            "place orders sum to %d but the center has multiplicity %d" % (total, mult))
    return places


def _unify_coords(c0, c1, cap=_factor.DEFAULT_DEGREE_CAP):
    """Lift the coordinates into one tower when they come from two."""
    if isinstance(c0, AlgebraicNumber) and isinstance(c1, AlgebraicNumber):
        if common_tower(c0.tower, c1.tower) is None:
            return _factor.lift_to_common(c0, c1, cap)
    return c0, c1


def _rescale(Z, rho):
    """n -> Z(n)(rho t)."""
    return lambda n: compose(Z(n), TruncatedSeries.exact([_F0, rho]))


def _normalize(lam, e, Z, tower, cap):
    """Absorb the leading coefficient of A = c0 + lam t^e when that is
    possible without leaving, or by minimally extending, the tower.

    Rational lam is always reduced to +-1 by adjoining the positive
    real e-th root of |lam|; irrational lam is absorbed only when the
    required rescaling already lies in the tower.
    """
    lam = lift(lam, tower)
    one = Fraction(1)
    if lam == 1:
        return lam, Z, tower
    targets = (one,) if e % 2 == 1 else (one, -one)
    for target in targets:
        c = target * lam.inverse()
        if _factor.no_eth_root(c, e, tower):
            continue
        pol = UniPoly([-c] + [_F0] * (e - 1) + [lift(one, tower)], "x")
        roots = _factor.roots_in_tower(pol, tower)
        if roots:
            rho = roots[-1][0]
            return lift(target, tower), _rescale(Z, rho), tower
    if lam.is_rational():
        lamq = lam.as_fraction()
        t2, r = _adjoin_positive_real_root(tower, abs(lamq), e, cap)
        rho = r.inverse()
        if e % 2 == 1 and lamq < 0:
            rho = -rho
        target = one if (e % 2 == 1 or lamq > 0) else -one
        # Z(0) = 0, and a factor rho^k puts every other coefficient in t2
        return lift(target, t2), _rescale(Z, rho), t2
    return lam, Z, tower


def _adjoin_positive_real_root(tower, radicand, e, cap):
    """Adjoin the positive real e-th root of a positive rational,
    pinned by its enclosure."""
    name = "sqrt(%s)" % radicand if e == 2 else "(%s)^(1/%d)" % (radicand, e)
    pol = UniPoly([-Fraction(radicand)] + [_F0] * (e - 1) + [_F1], "x")
    return _factor.pick_root(pol, tower,
                             lambda box, prec: box.im_lo <= 0 <= box.im_hi and box.re_lo > 0,
                             name=name, cap=cap)


def _place_sort_key(pl):
    key = [pl.e, pl.ord_B()]
    upto = min(6, len(pl.B.coeffs) - 1)
    for k in range(upto + 1):
        key.extend(as_alg(pl.B[k]).sort_key())
    return tuple(key)
