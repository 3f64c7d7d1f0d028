"""Power series solutions of F(y, y') = 0 through places of C(F).

A place (A, B) is a solution place iff ord(A') = ord(B); for such a
place the substitution S with A(S)' = B(S) is the unique series of
order one solving

    S' = (a_k + a_{k+1} S + ...)^(-1) (b_k + b_{k+1} S + ...),

and A(S) is the solution.  The Newton polygons alone fix the places at
a point, their e and ord(B), so ``classify`` counts the order-suitable
places of one pass at order 1, once per Galois orbit of critical
points, and ``solve_at`` extends the tails of that pass to the orders
it decides.  Away from the critical set V(F, z) u V(F, S_F) the
separant recursion gives the same series.
"""

from fractions import Fraction
from itertools import combinations

from .errors import (InsufficientPrecision, NotOrderSuitable, PointNotOnCurve,
                     SeparantVanishes)
from .numbers import QQ, common_tower, common_tower_of, inv, lift, orbit_key, scalar_json
from .poly import Point, separant, solve_system, univariate_slice, validate_input
from .puiseux import _unify_coords, default_bound, places_at
from .series import TruncatedSeries, compose, derivative
from . import factor as _factor

_F0 = Fraction(0)


class InitialTuple(Point):
    """The pair (y(0), y'(0)) a solution must start from."""


class SolutionTruncation:
    """A truncation of a formal power series solution, with provenance."""

    __slots__ = ("series", "center", "place_id", "repar")

    def __init__(self, series, center, place_id, repar):
        self.series = series
        self.center = center
        self.place_id = place_id
        self.repar = repar

    def __repr__(self):
        return "Solution(%s)" % self.series.render()

    def to_json(self):
        return {
            "center": self.center.to_json(),
            "series": self.series.to_json(),
            "place_id": self.place_id,
            "repar": self.repar.to_json() if self.repar is not None else None,
        }


class CriticalSet:
    """V(F, z) u V(F, S_F) with membership tags per point."""

    __slots__ = ("points",)

    def __init__(self, points):
        self.points = points  # [(Point, {"on_z_axis", "separant_zero"})]

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def plain_points(self):
        return [p for p, _ in self.points]

    def to_json(self):
        out = []
        for p, tags in self.points:
            rec = {"point": p.to_json(), "tags": sorted(tags)}
            if tags == {"on_z_axis"}:
                rec["non_solution_place"] = True
            out.append(rec)
        return out


class Classification:
    """Partition of C(F) by the number of non-constant solutions.

    ``buckets[i]`` lists the critical points with exactly i solutions
    for i != 1; the infinite class A_1 is the curve minus the critical
    set, plus the listed extra critical points.
    """

    __slots__ = ("buckets", "complement_of", "a1_extra", "constants")

    def __init__(self, buckets, complement_of, a1_extra, constants):
        self.buckets = buckets
        self.complement_of = complement_of
        self.a1_extra = a1_extra
        self.constants = constants

    def to_json(self):
        out = {}
        for i in sorted(self.buckets):
            out["A%d" % i] = [p.to_json() for p in self.buckets[i]]
        out["A1"] = {
            "complement_of": [p.to_json() for p in self.complement_of],
            "extra": [p.to_json() for p in self.a1_extra],
        }
        out["constants"] = [scalar_json(c) for c in self.constants]
        return out


# ---------------------------------------------------------------------------
# order suitability and reparametrization


def is_order_suitable(place):
    """ord(A') = ord(B): ord(A') = e - 1, and ord(B) is 0 off the z-axis.
    The center-form test (e = ord(B) + 1 on the axis, e = 1 off it) is
    the same comparison rearranged, so it needs no second check."""
    return place.e - 1 == (place.ord_B() if place.center[1] == 0 else 0)


def reparametrize(place, n):
    """The unique order-one series S with A'(S) S' = B(S), to order n.

    With psi(w) = (e*lam)^(-1) * sum_j B[k+j] w^j, S' = psi(S), so
    (i+1) s_{i+1} = sum_j psi_j C[j][i] for the power table
    C[j][i] = [t^i] S^j = sum_{m=1}^{i-j+1} s_m C[j-1][i-m], which
    needs only s_1..s_i: O(n^3) scalar products in all.
    """
    if not is_order_suitable(place):
        raise NotOrderSuitable("place is not order-suitable")
    e = place.e
    k = e - 1
    if not place.B.known(k + n - 1):
        raise InsufficientPrecision(
            "need %d certified coefficients of B, have %s" % (k + n - 1, place.B.trunc))
    scale = inv(place.lam * e)
    psi = [place.B[k + j] * scale for j in range(n)]
    s = [_F0, psi[0]]  # s1 = b_k / a_k
    C = [None, s]  # C[j][i] = [t^i] S^j, zero for i < j; C[1] is s itself
    for i in range(1, n):
        for j in range(2, i + 1):
            if j == len(C):
                C.append([_F0] * j)
            C[j].append(_dot(s[1:i - j + 2], C[j - 1][i - 1:j - 2:-1]))
        si = _dot(psi[1:i + 1], [C[j][i] for j in range(1, i + 1)])
        s.append(si * Fraction(1, i + 1))
    S = TruncatedSeries(s[:n + 1], n)
    if S.order() != 1:
        raise ArithmeticError("reparametrization is not of order one")
    return S


def _dot(xs, ys):
    """sum x*y over the pairs with no zero factor, from _F0."""
    acc = _F0
    for x, y in zip(xs, ys):
        if x != 0 and y != 0:
            acc = acc + x * y
    return acc


# ---------------------------------------------------------------------------
# Algorithm 1: solutions at an initial tuple


def solve_at(F, c, n=None, cap=_factor.DEFAULT_DEGREE_CAP):
    """All truncated non-constant solutions with initial tuple c.

    Each order-suitable place of one pass at order 1 extends its tail to
    its solution's order, which starts at max(n, mult + e), n = 2*mult + 2
    by default (mult the multiplicity, e the ramification index).
    Solutions that still agree are raised until they differ, as distinct
    order-suitable places give distinct solutions, but not past the
    highest start plus default_bound(F).
    """
    validate_input(F)
    c0, c1 = _unify_coords(*c, cap=cap)
    if F.eval(c0, c1) != 0:
        return []
    places = [p for p in places_at(F, (c0, c1), 1, cap=cap) if is_order_suitable(p)]
    if not places:
        return []
    mult = places[0].center_multiplicity
    n = 2 * mult + 2 if n is None else n
    orders = [max(n, mult + p.e) for p in places]
    limit = max(orders) + default_bound(F)
    while True:
        out = [_solution(p.extend(p.e + m - 2), m) for p, m in zip(places, orders)]
        clash = {k for i, j in combinations(range(len(out)), 2)
                 if out[i].series.agrees_with(out[j].series) for k in (i, j)}
        if not clash:
            return out
        orders = [m + (k in clash) for k, m in enumerate(orders)]
        if max(orders) > limit:
            raise ArithmeticError("solutions still coincide past order %d" % limit)


def _solution(place, m):
    """The solution through an order-suitable place, to order m."""
    S = reparametrize(place, m)
    if common_tower(common_tower_of(S.coeffs), place.tower) is None:
        raise ArithmeticError("reparametrization left the place tower")
    ytilde = compose(place.A, S)  # S is certified to m
    if ytilde[0] - place.center[0] != 0 or ytilde[1] - place.center[1] != 0:
        raise ArithmeticError("solution does not start at the initial tuple")
    return SolutionTruncation(ytilde, InitialTuple(*place.center), place.place_id, S)


# ---------------------------------------------------------------------------
# constants, critical set, classification


def constant_solutions(F, cap=_factor.DEFAULT_DEGREE_CAP):
    """First coordinates of C(F) on the line z = 0 (distinct values)."""
    validate_input(F)
    p = univariate_slice(F, "y", _F0)
    roots = _factor.all_roots(p, QQ, cap)
    return [r for r, _ in roots]


def critical_set(F, cap=_factor.DEFAULT_DEGREE_CAP):
    """V(F, z) u V(F, S_F), tagged by membership."""
    validate_input(F)
    S = separant(F)
    points = []
    # V(F, z): Res_z(F, z) = +-F(y, 0), so its points are the constants
    for y0 in constant_solutions(F, cap):
        p = Point(y0, lift(_F0, y0.tower))
        tags = {"on_z_axis", "separant_zero"} if S.eval(p.y, p.z) == 0 else {"on_z_axis"}
        points.append((p, tags))
    points += [(p, {"separant_zero"}) for p in solve_system(F, S, cap) if p.z != 0]
    points.sort(key=lambda pt: pt[0].sort_key())
    return CriticalSet(points)


def classify(F, *, cap=_factor.DEFAULT_DEGREE_CAP):
    """Algorithm 2: bucket every critical point by its number of
    non-constant solutions, the number of order-suitable places
    centered there, read from the structural pass at order 1; all
    other curve points carry exactly one.

    Conjugate points carry the same count, so the pass runs once per
    Galois orbit (see numbers.orbit_key), at the orbit's first point.
    """
    validate_input(F)
    crit = critical_set(F, cap)
    points = crit.plain_points()
    counts = {}
    buckets = {}
    a1_extra = []
    for p in points:
        key = orbit_key(*p)
        if key not in counts:
            counts[key] = sum(map(is_order_suitable, places_at(F, p, 1, cap=cap)))
        if counts[key] == 1:
            a1_extra.append(p)
        else:
            buckets.setdefault(counts[key], []).append(p)
    constants = [p.y for p, tags in crit if "on_z_axis" in tags]
    return Classification(buckets, points, a1_extra, constants)


# ---------------------------------------------------------------------------
# the direct method (separant recursion), used as an independent oracle


def direct_method(F, c, n):
    """Coefficients by the separant recursion; defined only where the
    separant does not vanish."""
    validate_input(F)
    c0, c1 = _unify_coords(*c)
    if F.eval(c0, c1) != 0:
        raise PointNotOnCurve("initial tuple is not on the curve")
    sf = separant(F).eval(c0, c1)
    if sf == 0:
        raise SeparantVanishes("separant vanishes at the initial tuple")
    inv_sf = inv(sf)
    coeffs = [c0, c1]
    for k in range(1, n):
        # with c_{k+1} = 0, the t^k coefficient of F(y, y') is affine in
        # c_{k+1} with slope (k+1) * S_F(c0, c1)
        ys = TruncatedSeries(coeffs + [_F0], k + 1)
        resid = F.eval_series(ys, derivative(ys))
        rho = resid[k]
        coeffs.append(-rho * inv_sf * Fraction(1, k + 1))
    ys = TruncatedSeries(coeffs[:n + 1], n)
    return SolutionTruncation(ys, InitialTuple(c0, c1), None, None)
