import hashlib
import io
import random
from fractions import Fraction as F

import pytest

from aodesolve.cli import main
from aodesolve.errors import DegenerateInput, PointNotOnCurve
from aodesolve.factor import adjoin_root, alg_eq
from aodesolve.numbers import QQ, AlgebraicNumber, common_tower_of
from aodesolve.parsing import parse_initial_tuple, parse_polynomial
from aodesolve.poly import BiPoly, UniPoly, multiplicity_at, translate
from aodesolve.puiseux import (default_bound, newton_polygon, places_at,
                               ramification_kind, tangent_vector)
from aodesolve.series import TruncatedSeries, derivative
from aodesolve.solver import critical_set, solve_at
from conftest import make_ex1, make_ex2, make_ex3


def brute_polygon_slopes(B):
    """Oracle: positive slopes q/p such that at least two support points
    minimize i + (q/p) j, by scanning all candidate point pairs."""
    pts = B.support()
    slopes = set()
    for a in pts:
        for b in pts:
            if a[1] == b[1] or a[0] == b[0]:
                if a[1] == b[1]:
                    continue
            s = F(a[0] - b[0], b[1] - a[1]) if b[1] != a[1] else None
            if s is None or s <= 0:
                continue
            val = a[0] + s * a[1]
            if all(i + s * j >= val for (i, j) in pts):
                slopes.add(s)
    return slopes


def test_newton_polygon_example1_translated():
    G = translate(make_ex1(), F(-1), F(0))
    edges = newton_polygon(G)
    assert len(edges) == 1
    e = edges[0]
    assert e.slope == F(1, 2)
    assert (1, 0) in e.points and (0, 2) in e.points
    assert brute_polygon_slopes(G) == {F(1, 2)}


def test_newton_polygon_node():
    # z^2 - y^2 (1 + y): slope-1 edge, two order-1 branches
    B = BiPoly({(0, 2): F(1), (2, 0): F(-1), (3, 0): F(-1)})
    edges = newton_polygon(B)
    assert [e.slope for e in edges] == [F(1)]
    assert brute_polygon_slopes(B) == {F(1)}


def test_newton_polygon_line():
    edges = newton_polygon(BiPoly({(0, 1): F(1), (1, 0): F(-1)}))
    assert [e.slope for e in edges] == [F(1)]


def test_newton_polygon_two_edges():
    G = translate(make_ex2(), F(0), F(1))
    edges = newton_polygon(G)
    assert sorted(e.slope for e in edges) == [F(1, 2), F(2)]
    assert brute_polygon_slopes(G) == {F(1, 2), F(2)}


def test_newton_polygon_degenerate():
    with pytest.raises(DegenerateInput):
        newton_polygon(BiPoly({(0, 0): F(1), (0, 1): F(1)}))  # F(0,0) != 0
    with pytest.raises(DegenerateInput):
        newton_polygon(BiPoly({(1, 1): F(1), (2, 0): F(1)}))  # y | F


def test_default_bound_values(ex1, ex2):
    assert default_bound(ex1) == 9
    assert default_bound(ex2) == 61
    assert default_bound(BiPoly({(0, 1): F(1), (2, 0): F(-1)})) == 3


def test_places_example1_origin(ex1):
    pls = places_at(ex1, (F(0), F(0)), 9)
    assert len(pls) == 2
    assert {p.e for p in pls} == {1}
    vals = sorted(_frac(p.B[1]) for p in pls)
    assert vals == [F(-1), F(1)]
    for p in pls:
        assert p.B[0] == 0
        assert p.order == 1
        assert ramification_kind(p) == "singular"
    assert sum(p.order for p in pls) == multiplicity_at(ex1, (F(0), F(0)))


def test_places_example1_ramified(ex1):
    pls = places_at(ex1, (F(-1), F(0)), 9)
    assert len(pls) == 1
    p = pls[0]
    assert p.e == 2 and p.lam == 1
    assert list(p.A.coeffs) == [F(-1), F(0), F(1)]
    assert p.B.is_exact()  # B terminates: t - t^3
    assert list(p.B.coeffs) == [F(0), F(1), F(0), F(-1)]
    assert ramification_kind(p) == "z_ramification"
    tv = tangent_vector(p)
    assert tv[0] == 0 and tv[1] == 1


def _frac(c):
    return c.as_fraction() if hasattr(c, "as_fraction") else F(c)


def test_places_example2_printed_forms(ex2):
    pls = places_at(ex2, (F(0), F(1)), 8)
    assert len(pls) == 4
    _, r2 = adjoin_root(QQ, UniPoly([F(-2), F(0), F(1)], "x"), name="sqrt(2)")
    unram = [p for p in pls if p.e == 1]
    ram = [p for p in pls if p.e == 2]
    assert len(unram) == 2 and len(ram) == 2
    # (t, 1 +- t^2/2 +- 3 t^4/16 + O(t^6))
    assert sorted(_frac(p.B[2]) for p in unram) == [F(-1, 2), F(1, 2)]
    for p in unram:
        sign = 1 if p.B[2] == F(1, 2) else -1
        assert p.B[1] == 0 and p.B[3] == 0
        assert p.B[4] == sign * F(3, 16)
    # (t^2, 1 + sqrt2 t + ...) and (-t^2, 1 - sqrt2 t + ...)
    assert sorted(_frac(p.lam) for p in ram) == [F(-1), F(1)]
    for p in ram:
        b1 = p.B[1]
        if p.lam == 1:
            assert alg_eq(b1, r2)
        else:
            assert alg_eq(b1, -r2)
    assert sum(p.order for p in pls) == 4


def test_places_residual_invariant(ex1, ex2):
    cases = [(ex1, (F(0), F(0)), 9), (ex1, (F(-1), F(0)), 9),
             (ex2, (F(0), F(1)), 10), (make_ex3(1), (F(0), F(1)), 6)]
    for Fp, c, n in cases:
        for p in places_at(Fp, c, n):
            resid = Fp.eval_series(p.A, p.B)
            o = resid.order()
            assert o is None or o > n


def test_places_irreducibility_invariant(ex1, ex2):
    from math import gcd
    for Fp, c in [(ex1, (F(0), F(0))), (ex1, (F(-1), F(0))), (ex2, (F(0), F(1)))]:
        for p in places_at(Fp, c, 9):
            g = p.e
            c1 = p.center[1]
            for k, coeff in enumerate(p.B.coeffs):
                if k == 0:
                    continue
                if not (coeff == 0 or (hasattr(coeff, "is_zero") and coeff.is_zero())):
                    g = gcd(g, k)
            assert g == 1


def test_places_determinism(ex2):
    a = places_at(ex2, (F(0), F(1)), 8)
    b = places_at(ex2, (F(0), F(1)), 8)
    assert len(a) == len(b)
    for p, q in zip(a, b):
        assert p.e == q.e and p.lam == q.lam
        assert p.B.coeffs == q.B.coeffs


def test_places_conjugate_freeness(ex2):
    import cmath
    pls = places_at(ex2, (F(0), F(1)), 8)
    for i in range(len(pls)):
        for j in range(i + 1, len(pls)):
            p, q = pls[i], pls[j]
            if p.e != q.e:
                continue
            # no root of unity zeta of order e maps B_p to B_q numerically
            e = p.e
            for k in range(e):
                zeta = cmath.exp(2j * cmath.pi * k / e)
                ok = True
                for idx in range(1, min(len(p.B.coeffs), len(q.B.coeffs), 6)):
                    bp = _cval(p.B[idx])
                    bq = _cval(q.B[idx])
                    if abs(bp * zeta**idx - bq) > 1e-6:
                        ok = False
                        break
                la = _cval(p.lam) * zeta**e
                if abs(la - _cval(q.lam)) > 1e-6:
                    ok = False
                assert not ok, "places %d and %d look conjugate" % (i, j)


def _cval(c):
    if hasattr(c, "complex"):
        return c.complex()
    return complex(F(c))


def test_tangent_vectors(ex2):
    pls = places_at(ex2, (F(0), F(1)), 6)
    _, r2 = adjoin_root(QQ, UniPoly([F(-2), F(0), F(1)], "x"), name="sqrt(2)")
    for p in pls:
        tv = tangent_vector(p)
        if p.e == 2:
            assert tv[0] == 0  # n > m: (0, b_m)
            expect = r2 if p.lam == 1 else -r2
            assert alg_eq(tv[1], expect)  # (0, sqrt(2)) for the printed P1
        else:
            assert tv[0] == 1 and tv[1] == 0  # n=1 < m=2: (a_n, 0)


def test_tangent_equal_orders(ex1):
    pls = places_at(ex1, (F(0), F(0)), 5)
    tvs = {( _cval(t[0]).real, _cval(t[1]).real) for t in map(tangent_vector, pls)}
    assert tvs == {(1.0, 1.0), (1.0, -1.0)}


def test_point_not_on_curve(ex1):
    with pytest.raises(PointNotOnCurve):
        places_at(ex1, (F(1), F(1)), 5)


def test_multiplicity_bookkeeping_two_routes(ex1, ex2):
    # route 1: translated lowest total degree; route 2: sum of place orders
    for Fp, c, expect in [(ex1, (F(0), F(0)), 2), (ex2, (F(0), F(1)), 4)]:
        assert multiplicity_at(Fp, c) == expect
        assert sum(p.order for p in places_at(Fp, c, 8)) == expect


def test_place_json(ex1):
    p = places_at(ex1, (F(-1), F(0)), 9)[0]
    rec = p.to_json()
    assert rec["e"] == 2 and rec["order"] == 1
    assert rec["kind"] == "z_ramification"
    assert rec["center"] == ["-1", "0"]


def test_places_repeated_characteristic_root():
    # (z^2 - y^3)^2 - y^7: the first polygon step has the double root
    # (T - 1)^2, so the expansion needs a second polygon step; the two
    # places are z = +- y^(3/2) (1 -+ y^(1/2))^(1/2)
    Fq = BiPoly({(0, 4): F(1), (3, 2): F(-2), (6, 0): F(1), (7, 0): F(-1)})
    pls = places_at(Fq, (F(0), F(0)), 12)
    assert len(pls) == 2
    assert all(p.e == 2 and p.ord_B() == 3 and p.order == 2 for p in pls)
    assert sum(p.order for p in pls) == multiplicity_at(Fq, (F(0), F(0)))
    # binomial(1/2) tail: 1 -+ u/2 - u^2/8 -+ u^3/16 - 5u^4/128
    for p in pls:
        s = 1 if _frac(p.B[4]) > 0 else -1
        expect = [F(0), F(0), F(0), F(1), s * F(1, 2), F(-1, 8),
                  s * F(1, 16), F(-5, 128)]
        assert [_frac(p.B[k]) for k in range(8)] == expect
        resid = Fq.eval_series(p.A, p.B)
        assert resid.order_lower_bound() > 12


def test_place_normalization_rational_rescale():
    # z^2 = 4y + y^2: the leading coefficient 4 is absorbed by the
    # in-tower rescaling t -> t/2, giving (t^2, 2t + ...)
    Fr = BiPoly({(0, 2): F(1), (1, 0): F(-4), (2, 0): F(-1)})
    pls = places_at(Fr, (F(0), F(0)), 8)
    assert len(pls) == 1
    p = pls[0]
    assert p.e == 2 and p.lam == 1
    assert _frac(p.B[1]) == 2 and _frac(p.B[3]) == F(1, 4)


def test_place_normalization_odd_e_negative_lam():
    # (y')^3 + 2y^2 at the origin: the leaf has y = -2 t^3, a negative
    # rational lam with e odd, so _normalize takes rho = -1/(2)^(1/3),
    # the negated real cube root, giving A = t^3 and B = -(2)^(1/3) t^2
    Fo = parse_polynomial("(y')^3 + 2*y^2")
    pls = places_at(Fo, (F(0), F(0)), 6)
    assert len(pls) == 1
    p = pls[0]
    assert p.e == 3 and p.lam == 1 and list(p.A.coeffs) == [F(0), F(0), F(0), F(1)]
    assert p.B[0] == 0 and p.B[1] == 0 and p.B[2] ** 3 == -2
    assert p.tower.height == 1
    box = p.tower.generator(0).box(20)
    assert box.re_lo > 0 and box.im_lo <= 0 <= box.im_hi
    sols = solve_at(Fo, (F(0), F(0)), 6)
    assert [s.series.render() for s in sols] == ["-2/27*t^3 + O(t^7)"]
    # B above has only an even power of t, so the sign of rho shows only
    # once a y^3 term puts t^5 into B: F must vanish up to the truncation
    for ode in ("(y')^3 + 2*y^2", "(y')^3 + 2*y^2 + 2*y^3"):
        Fo = parse_polynomial(ode)
        for p in places_at(Fo, (F(0), F(0)), 8):
            assert Fo.eval_series(p.A, p.B).order() is None
        for sol in solve_at(Fo, (F(0), F(0)), 8):
            s = sol.series
            assert Fo.eval_series(s, derivative(s)).order() is None


def test_y_ramification_kind():
    Fy = BiPoly({(0, 1): F(1), (3, 0): F(-1)})
    p = places_at(Fy, (F(0), F(0)), 6)[0]
    assert ramification_kind(p) == "y_ramification"
    assert p.e == 1 and p.ord_B() == 3


def test_place_at_irrational_ramified_center(ex2):
    # center (4 beta/9, gamma), beta^2 = 3, 27 gamma^2 - 54 gamma + 19 = 0:
    # one z-ramified place; the leading coefficient lam = -beta/3 is kept
    # (irrational), equivalent to the normalized form with first B
    # coefficient whose fourth power is 1/3  (i.e. 27^(1/4)/3).
    t1, beta = adjoin_root(QQ, UniPoly([F(-3), F(0), F(1)], "x"), name="beta")
    t2, gamma = adjoin_root(t1, UniPoly([F(19, 27), F(-2), F(1)], "x"),
                            name="gamma")
    from aodesolve.numbers import AlgebraicNumber
    beta = AlgebraicNumber(t2, beta.level, beta.rep)
    c0 = 4 * beta / 9
    assert ex2.eval(c0, gamma).is_zero()
    pls = places_at(ex2, (c0, gamma), 8)
    assert len(pls) == 1
    p = pls[0]
    assert p.e == 2 and ramification_kind(p) == "z_ramification"
    lam = p.lam
    assert (lam * lam - F(1, 3)).is_zero()   # lam = -beta/3
    assert lam.box(32).re_hi < 0
    assert alg_eq(p.B[1], lam)
    # rescaling t -> rho t with lam rho^2 = -1 gives b1' with b1'^4 = 1/3
    b1sq_scaled = -(p.B[1] * p.B[1]) / lam   # (b1 * rho)^2
    assert (b1sq_scaled * b1sq_scaled - F(1, 9) * 3).is_zero()


def test_rescaling_into_a_new_tower_keeps_coefficients_in_it():
    # every place of ((y')^2 - 2)^2 - 3y absorbs its rational leading
    # coefficient by adjoining a root in a new tower; at the centers
    # (0, +-sqrt(2)), Z(rho t) carries sqrt(2) there without a separate lift
    ode = "((y')^2 - 2)^2 - 3*y"
    Fo = parse_polynomial(ode)
    extended = 0
    for center, _tags in critical_set(Fo):
        for pl in places_at(Fo, center, 5):
            if pl.tower.height > common_tower_of(center).height:
                extended += 1
            for k, c in enumerate(pl.B.coeffs):
                if isinstance(c, AlgebraicNumber) and not c.is_rational():
                    assert c.tower.is_prefix_of(pl.tower)
                    assert k == 0 or c.tower == pl.tower
    assert extended == 3
    out, err = io.StringIO(), io.StringIO()
    assert main(["places", "--ode", ode, "--order", "5", "--format", "json"],
                out=out, err=err) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
        "84eeef714842700239e72a43e99e1f598fe7ceafe662228d21153f67a2eab336"


@pytest.mark.parametrize("n", [1, 5, 20])
def test_regular_tail_is_exact_only_when_it_solves_h(n):
    """A polynomial tail comes back exact, a non-polynomial one truncated
    at n, also when H vanishes on the whole line y = 1/3, where the
    scalar pre-check in _regular_tail cannot rule exactness out."""
    from aodesolve.puiseux import _regular_tail

    for text in ("(y' - 2*y)*(1 + y' + y^2)", "(1 - 3*y)*(y' - 2*y)*(1 + y')"):
        Z = _regular_tail(parse_polynomial(text), n)
        assert Z.trunc is None and Z.coeffs == (0, 2), text
    catalan = [0, 1, 1, 2, 5, 14, 42, 132]  # z = y + z^2
    for text in ("y' - y - (y')^2", "(1 - 3*y)*(y' - y - (y')^2)"):
        Z = _regular_tail(parse_polynomial(text), n)
        assert Z.trunc == n, text
        assert list(Z.coeffs[:8]) == catalan[:n + 1], text


@pytest.mark.parametrize("n", [1, 5, 20])
def test_place_tails_keep_their_exactness(ex1, n):
    """(t^2 - 1, t - t^3) at (-1, 0) is exact once its tail is long
    enough; the places t -> (t, +-t sqrt(1 + t)) at (0, 0) never are."""
    (ramified,) = places_at(ex1, (F(-1), F(0)), n)
    if n > 1:
        assert ramified.B.trunc is None and ramified.B.coeffs == (0, 1, 0, -1)
    else:
        assert ramified.B.trunc == 2 and ramified.B.coeffs == (0, 1, 0)
    for pl in places_at(ex1, (F(0), F(0)), n):
        assert pl.B.trunc == n + 1


@pytest.mark.parametrize("ode, at", [
    ("(y')^2 - y^3 - y^2", "-1, 0"),  # Ex1: the tail is exact from n = 5
    ("((y')^2 - 2)^2 - 3*y", "0, sqrt(2)"),  # rescaled into a new tower
    ("(y' - y)*(y' - y - y^2 + (y')^3)", "0, 0"),  # z | H below a polygon step
    ("((y'-1)^2 + y^2)^3 - 4*(y'-1)^2*y^2", "0, 1"),  # Ex2: two polygon edges
    ("((y')^2 - y)^2 - y^7", "0, 0"),  # a polygon step below a polygon step
])
def test_extended_places_match_a_pass_at_that_order(ode, at):
    """Places read at order 1 and extended to 5, then to 30, print what
    places_at prints at 30: a place keeps its tail's recipe, so extending
    it needs no second pass.  At 5 a tail already known that far is kept.
    (The third curve is reducible; places_at does not validate, and only
    such a curve has z | H after a polygon step, where the branch is
    exactly 0.)"""
    Fp = parse_polynomial(ode)
    c0, c1, _ = parse_initial_tuple(at)
    short, deep = places_at(Fp, (c0, c1), 1), places_at(Fp, (c0, c1), 30)
    for p, q in zip(short, deep):
        B = p.B
        assert p.extend(5).B.known(5) and p.B.agrees_with(q.B)
        assert p.B is B or not B.known(5)
    assert [p.extend(30).to_json() for p in short] == [q.to_json() for q in deep]


def _lift_by_coefficients(H, n):
    """Oracle for _regular_tail: z_k = -[t^k] H(t, z_<k) / H_z(0, 0),
    one coefficient at a time, through BiPoly.eval_series."""
    hz0 = H.diff_z().coeff(0, 0)
    tS, z = TruncatedSeries.exact([F(0), F(1)]), [F(0)]
    for k in range(1, n + 1):
        z.append(-H.eval_series(tS.truncate(k), TruncatedSeries(z, k))[k] / hz0)
    return z


def _random_tail_inputs(rng, scalars):
    """H(0, 0) = 0 and H_z(0, 0) != 0 in three shapes: dense; (z - p(y)) G
    with G(0, 0) != 0, whose tail is the polynomial p; and a dense H times
    (1 - 3y), which vanishes on the line of the scalar pre-check."""
    nonzero = [c for c in scalars if c != 0]

    def dense(dy, dz):
        terms = {(i, j): rng.choice(scalars) for i in range(dy + 1) for j in range(dz + 1)}
        terms[(0, 0)] = F(0)
        terms[(1, 0)], terms[(0, 1)] = rng.choice(nonzero), rng.choice(nonzero)  # z does not divide H
        return BiPoly(terms)

    p = BiPoly({(i, 0): rng.choice(nonzero) for i in range(1, rng.randint(2, 7))})
    G = BiPoly({(0, 0): rng.choice(nonzero), (1, 0): rng.choice(scalars),
                (0, 1): rng.choice(scalars), (2, 1): rng.choice(scalars)})
    return [dense(2, 2), dense(1, 3), (BiPoly.variable("z") - p) * G,
            BiPoly({(0, 0): F(1), (1, 0): F(-3)}) * dense(1, 2)]


@pytest.mark.parametrize("over", ["Q", "Q(sqrt(2))"])
def test_regular_tail_matches_coefficientwise_lifting(over):
    """Differential test of the Newton lift in _regular_tail, which reads
    H_z only to the precision each step needs, against lifting one
    coefficient at a time: equal coefficients, a truncated tail certified
    to exactly n, and an exact tail exactly when it solves H."""
    from aodesolve.puiseux import _regular_tail

    rng = random.Random(20 if over == "Q" else 21)
    scalars = [F(k) for k in range(-3, 4)] + [F(1, 2), F(-2, 3)]
    if over != "Q":
        _, r2 = adjoin_root(QQ, UniPoly([F(-2), F(0), F(1)], "x"), name="sqrt(2)")
        scalars += [r2, 1 - r2, r2 / 3]
    # a nonzero value at t0 = 2/7 rules an identity out before the exact check
    tS, t0 = TruncatedSeries.exact([F(0), F(1)]), F(2, 7)
    exact = []
    for H in _random_tail_inputs(rng, scalars):
        z = _lift_by_coefficients(H, 26)
        for n in (1, 2, 5, 6, 13, 26):
            Z = _regular_tail(H, n)
            assert [Z[k] for k in range(n + 1)] == z[:n + 1], (H, n)
            P = UniPoly(z[:n + 1], "t")
            solves = (H.eval(t0, P.eval(t0)) == 0
                      and H.eval_series(tS, TruncatedSeries.exact(z[:n + 1])).is_zero_series())
            assert (Z.trunc is None) == solves, (H, n)
            assert Z.trunc is None or Z.trunc == n, (H, n)
            exact.append(solves)
    assert any(exact) and not all(exact)
