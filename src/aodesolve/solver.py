"""Power series solutions of F(y, y') = 0 through places of C(F).

A place (A, B) is a solution place iff ord(A') = ord(B); for such a
place the substitution S with A(S)' = B(S) is the unique series of
order one solving

    S' = (a_k + a_{k+1} S + ...)^(-1) (b_k + b_{k+1} S + ...),

and A(S) is the solution.  Away from the critical set V(F, z) u
V(F, S_F) the separant recursion provides an independent route to the
same series.
"""

from fractions import Fraction

from .errors import (InsufficientPrecision, NotOrderSuitable, PointNotOnCurve,
                     SeparantVanishes)
from .numbers import QQ, common_tower, common_tower_of, inv, lift, scalar_json
from .poly import (Point, multiplicity_at, separant, solve_system, univariate_slice,
                   validate_input)
from .puiseux import _unify_coords, places_at
from .series import TruncatedSeries, compose, derivative
from . import factor as _factor

_F0 = Fraction(0)
_F1 = Fraction(1)


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
    """ord(A') = ord(B), cross-checked against the center-form test."""
    e = place.e
    c1 = place.center[1]
    ord_Aprime = e - 1
    if c1 == 0:
        ord_B = place.ord_B()
    else:
        ord_B = 0
    suitable = ord_Aprime == ord_B
    # the equivalent characterization through the center must agree
    if c1 == 0:
        lemma = (e == place.ord_B() + 1)
    else:
        lemma = (e == 1)
    if suitable != lemma:
        raise ArithmeticError("order-suitability criteria disagree")
    return suitable


def reparametrize(place, n):
    """The unique order-one series S with A'(S) S' = B(S), to order n."""
    if not is_order_suitable(place):
        raise NotOrderSuitable("place is not order-suitable")
    e = place.e
    k = e - 1
    # psi(w) = (e*lam)^(-1) * sum_j B[k+j] w^j
    if not place.B.known(k + n - 1):
        raise InsufficientPrecision(
            "need %d certified coefficients of B, have %s" % (k + n - 1, place.B.trunc))
    scale = inv(place.lam * e)
    psi = [place.B[k + j] * scale for j in range(n)]
    s = [_F0, psi[0]]  # s1 = b_k / a_k
    for i in range(1, n):
        # (i+1) s_{i+1} = [t^i] psi(S)
        coeff = compose(TruncatedSeries.exact(psi[:i + 1]), TruncatedSeries(s, i))[i]
        s.append(coeff * Fraction(1, i + 1))
    S = TruncatedSeries(s[:n + 1], n)
    if S.order() != 1:
        raise ArithmeticError("reparametrization is not of order one")
    return S


# ---------------------------------------------------------------------------
# Algorithm 1: solutions at an initial tuple


def solve_at(F, c, n, cap=_factor.DEFAULT_DEGREE_CAP):
    """All truncated non-constant solutions with initial tuple c.

    Output order is max(n, multiplicity + ramification index) per
    solution, which separates distinct solutions.
    """
    validate_input(F)
    c0, c1 = _unify_coords(*c, cap=cap)
    if F.eval(c0, c1) != 0:
        return []
    mult = multiplicity_at(F, (c0, c1))
    # cheap probe: branch structure and leading orders decide suitability
    probe_n = mult + F.deg_z + 2
    probe = places_at(F, (c0, c1), probe_n, cap=cap)
    if not any(is_order_suitable(p) for p in probe):
        return []
    need = max(n, mult + max(p.e for p in probe)) + F.deg_z + 2
    full = probe if need <= probe_n else places_at(F, (c0, c1), need, cap=cap)
    out = []
    for place in full:
        if not is_order_suitable(place):
            continue
        m_out = max(n, mult + place.e)
        S = reparametrize(place, m_out)
        if common_tower(common_tower_of(S.coeffs), place.tower) is None:
            raise ArithmeticError("reparametrization left the place tower")
        ytilde = compose(place.A, S)  # S is certified to m_out
        if ytilde[0] - place.center[0] != 0 or ytilde[1] - place.center[1] != 0:
            raise ArithmeticError("solution does not start at the initial tuple")
        out.append(SolutionTruncation(ytilde, InitialTuple(place.center[0],
                                                           place.center[1]),
                                      place.place_id, S))
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            if out[i].series.agrees_with(out[j].series):
                raise ArithmeticError("solve_at produced coinciding truncations")
    return out


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


def classify(F, n, cap=_factor.DEFAULT_DEGREE_CAP, jobs=1):
    """Algorithm 2: bucket every critical point by its number of
    non-constant solutions; all other curve points carry exactly one.

    With jobs > 1 the critical points are processed in worker
    processes; the merge order is fixed by the point order either way.
    """
    validate_input(F)
    crit = critical_set(F, cap)
    points = crit.plain_points()
    counts = None
    if jobs > 1 and len(points) > 1:
        counts = _parallel_counts(F, points, n, cap, jobs)
    if counts is None:
        counts = [len(solve_at(F, p, n, cap=cap)) for p in points]
    buckets = {}
    a1_extra = []
    for p, count in zip(points, counts):
        if count == 1:
            a1_extra.append(p)
        else:
            buckets.setdefault(count, []).append(p)
    constants = [p.y for p, tags in crit if "on_z_axis" in tags]
    return Classification(buckets, points, a1_extra, constants)


def _count_at(arg):
    F, p, n, cap = arg
    return len(solve_at(F, p, n, cap=cap))


def _parallel_counts(F, points, n, cap, jobs):
    import concurrent.futures

    try:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_count_at, [(F, p, n, cap) for p in points]))
    except (OSError, ImportError):  # the pool could not start: run serially
        return None


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
