import json
import random
from fractions import Fraction as F

import mpmath
import pytest

from aodesolve.enclosure import Box, _imul
from aodesolve.errors import DivisionByZero, ExtensionLimitExceeded
from aodesolve.factor import (adjoin_root, alg_eq, all_roots, lift_to_common, pick_root,
                              roots_by_factor, roots_in_tower)
from aodesolve.numbers import (QQ, AlgebraicNumber, common_tower, field_arith,
                               isolate_roots, lift, numeric_enclosure)
from aodesolve.poly import UniPoly


def _upoly(*coeffs):
    return UniPoly([F(c) for c in coeffs], "x")


@pytest.fixture(scope="module")
def sqrt2_tower():
    return adjoin_root(QQ, _upoly(-2, 0, 1), name="sqrt(2)")


@pytest.fixture(scope="module")
def two_level_tower(sqrt2_tower):
    t, r2 = sqrt2_tower
    t2, r3 = adjoin_root(t, _upoly(-3, 0, 1), name="sqrt(3)")
    return t2, AlgebraicNumber(t2, r2.level, r2.rep), r3


def test_adjoin_sqrt2(sqrt2_tower):
    t, r2 = sqrt2_tower
    assert t.degree() == 2
    assert r2 * r2 == 2
    box = r2.box(20)
    assert box.width() <= F(1, 2**20)
    assert abs(float(box.mid_re) - 2**0.5) < 1e-6


def test_adjoin_rational_root_keeps_tower():
    t, root = adjoin_root(QQ, _upoly(-1, 0, 1))
    assert t == QQ
    assert root == 1  # the lexicographically greatest root


def test_adjoin_sextic_generator():
    # alpha^6 + 3 alpha^4 - alpha^2 + 1 = 0
    t, a = adjoin_root(QQ, _upoly(1, 0, -1, 0, 3, 0, 1), name="alpha")
    assert t.degree() == 6
    assert (a**6 + 3 * a**4 - a**2 + 1).is_zero()


def test_field_arith_examples(sqrt2_tower):
    _, r2 = sqrt2_tower
    inv = field_arith(1, r2, "div")
    assert inv == r2 / 2  # rationalization: 1/sqrt2 = sqrt2/2
    assert field_arith(r2, r2, "mul") == 2
    assert field_arith(1 + r2, 1 + r2, "sub") == 0


def test_division_by_zero(sqrt2_tower):
    _, r2 = sqrt2_tower
    with pytest.raises(DivisionByZero):
        field_arith(r2, r2 - r2, "div")


def test_rational_operands_on_either_side(sqrt2_tower):
    _, r2 = sqrt2_tower
    assert 1 / r2 == r2 / 2
    assert str(F(1, 2) - r2) == "1/2 - sqrt(2)"
    assert r2 ** -2 == F(1, 2)
    with pytest.raises(DivisionByZero):
        r2 / 0


def test_operand_and_value_errors(sqrt2_tower):
    _, r2 = sqrt2_tower
    with pytest.raises(TypeError):
        r2 + 1.5
    with pytest.raises(TypeError):
        r2 * "a"
    _, r3 = adjoin_root(QQ, _upoly(-3, 0, 1), name="sqrt(3)")
    with pytest.raises(ArithmeticError, match="incompatible towers"):
        r3 + r2
    with pytest.raises(ValueError):
        r2.as_fraction()


def test_render_brackets_a_sum_coefficient(two_level_tower):
    _, r2, r3 = two_level_tower
    v = (1 + r2) * r3 + r2
    assert str(v) == "sqrt(2) + (1 + sqrt(2))*sqrt(3)"
    assert str(-(1 + r2) * r3) == "(-1 - sqrt(2))*sqrt(3)"


def test_field_axioms_randomized(two_level_tower):
    t, r2, r3 = two_level_tower
    rng = random.Random(42)

    def rand_elt():
        return (F(rng.randint(-5, 5), rng.randint(1, 4))
                + F(rng.randint(-5, 5), rng.randint(1, 4)) * r2
                + F(rng.randint(-5, 5), rng.randint(1, 4)) * r3
                + F(rng.randint(-5, 5), rng.randint(1, 4)) * r2 * r3)

    for _ in range(250):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if not x.is_zero():
            assert x * x.inverse() == 1


def test_canonical_form_different_routes(two_level_tower):
    t, r2, r3 = two_level_tower
    a = (r2 + r3) * (r2 - r3)  # = 2 - 3 = -1
    assert a == -1 and a.is_rational()
    b = (1 + r2) ** 2
    c = 3 + 2 * r2
    assert b == c and b.rep == c.rep


def test_minpoly_of_generator_is_zero(two_level_tower):
    t, r2, r3 = two_level_tower
    assert (r3 * r3 - 3).is_zero()
    assert (r2 * r2 - 2).is_zero()


def test_roots_in_tower_spec_examples():
    zsq = _upoly(0, 0, 1)
    roots = roots_in_tower(zsq, QQ)
    assert [(r, m) for r, m in roots] == [(AlgebraicNumber(QQ, 0, F(0)), 2)]

    gamma_poly = _upoly(F(19), F(-54), F(27))
    assert roots_in_tower(gamma_poly, QQ) == []

    t6, r6 = adjoin_root(QQ, _upoly(-6, 0, 1), name="sqrt(6)")
    roots = roots_in_tower(gamma_poly, t6)
    # oracle: quadratic formula gives 1 +- 2 sqrt(6) / 9; check by substitution
    expected = [1 - 2 * r6 / 9, 1 + 2 * r6 / 9]
    got = [r for r, _ in roots]
    assert len(got) == 2
    for r, e in zip(got, expected):
        assert alg_eq(r, e)
        assert (27 * r * r - 54 * r + 19).is_zero()


def test_all_roots_embeddings():
    p = _upoly(1, 0, -1, 0, 3, 0, 1)
    roots = all_roots(p, QQ)
    assert len(roots) == 6
    vals = [r.complex() for r, _ in roots]
    assert len({(round(v.real, 8), round(v.imag, 8)) for v in vals}) == 6
    for r, _ in roots:
        assert (r**6 + 3 * r**4 - r**2 + 1).is_zero()


def test_numeric_enclosure_examples(sqrt2_tower):
    b = numeric_enclosure(F(1, 2), 10)
    assert b.re_lo <= F(1, 2) <= b.re_hi and b.width() <= F(1, 2**10)

    _, r2 = sqrt2_tower
    b = r2.box(20)
    assert b.width() <= F(1, 2**20)

    t6, r6 = adjoin_root(QQ, _upoly(-6, 0, 1), name="sqrt(6)")
    val = 1 + 2 * r6 / 9
    b = numeric_enclosure(val, 10)
    assert b.width() <= F(1, 2**10)
    assert abs(float(b.mid_re) - 1.5443310539518174) < 1e-6


def test_enclosure_consistency(two_level_tower):
    # exact identity (r2*r3)^2 = 6: boxes must overlap
    t, r2, r3 = two_level_tower
    lhs = (r2 * r3) * (r2 * r3)
    assert lhs == 6
    assert lhs.box(40).contains_point(F(6), F(0))


def test_enclosure_refinement_monotone(sqrt2_tower):
    _, r2 = sqrt2_tower
    b1 = r2.box(16)
    b2 = r2.box(48)
    assert b2.width() <= b1.width()
    assert b1.intersects(b2)


def test_point_box_product_equals_the_interval_formula():
    # Box.__mul__ takes an exact product when both boxes are points
    rng = random.Random(42)
    for _ in range(200):
        a, b, c, d = (F(rng.randint(-60, 60), rng.randint(1, 40)) for _ in range(4))
        ac, bd, ad, bc = (_imul(x, x, y, y) for x, y in ((a, c), (b, d), (a, d), (b, c)))
        got = Box.exact(a, b) * Box.exact(c, d)
        assert (got.re_lo, got.re_hi, got.im_lo, got.im_hi) == (
            ac[0] - bd[1], ac[1] - bd[0], ad[0] + bc[0], ad[1] + bc[1])


def _from_roots(roots):
    """Ascending coefficients of the monic polynomial with these roots."""
    c = [F(1)]
    for r in roots:
        c = [F(0)] + c
        for k in range(len(c) - 1):
            c[k] -= r * c[k + 1]
    return c


def _isolation_cases():
    rng = random.Random(19)
    mignotte = [F(0)] * 21
    mignotte[20], mignotte[2], mignotte[1], mignotte[0] = F(1), F(-20000), F(400), F(-2)
    cases = [("wilkinson-20", QQ, 0, _from_roots([F(k) for k in range(1, 21)])),
             ("mignotte-20", QQ, 0, mignotte),
             ("close pair", QQ, 0, _from_roots([F(1), 1 + F(1, 10**30), F(3)])),
             ("x^30 - x - 1", QQ, 0, [F(-1), F(-1)] + [F(0)] * 28 + [F(1)])]
    for deg in range(2, 15):
        c = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg)]
        cases.append(("random degree %d" % deg, QQ, 0, c + [F(rng.choice([-3, -1, 1, 2]))]))
    gaussian, _ = adjoin_root(QQ, _upoly(1, 0, 1), name="i")
    # (x - 3)(x^2 + i x + 1/2 - i)(x - 1 - 2i): coefficients are reps a + b*i
    cases.append(("over Q(i)", gaussian, 1,
                  [(F(15, 2),), (F(-10), F(6)), (F(11, 2), F(1)), (F(-4), F(-1)), (F(1),)]))
    return cases


def _mpc_coeff(rep, level):
    re, im = (rep, F(0)) if level == 0 else (tuple(rep) + (F(0), F(0)))[:2]
    return mpmath.mpc(mpmath.mpf(re.numerator) / re.denominator,
                      mpmath.mpf(im.numerator) / im.denominator)


def test_isolate_roots_against_an_mpmath_oracle():
    """Each isolating box set has deg pairwise disjoint boxes, and the
    roots from mpmath.polyroots, Newton-polished at 100 digits, lie one in
    each box, within 10^-50: a box around an exact root is a point, and
    the oracle's rounded coefficients move the close pair by ~10^-70."""
    tol = F(1, 10**50)
    for name, tower, level, coeffs in _isolation_cases():
        deg = len(coeffs) - 1
        boxes = isolate_roots(tower, coeffs, level)
        assert len(boxes) == deg, name
        assert not any(boxes[i].intersects(boxes[j])
                       for i in range(deg) for j in range(i + 1, deg)), name
        with mpmath.workdps(40):
            roots = mpmath.polyroots([_mpc_coeff(c, level) for c in reversed(coeffs)],
                                     maxsteps=400, extraprec=100)
        hits = []
        with mpmath.workdps(100):
            cs = [_mpc_coeff(c, level) for c in reversed(coeffs)]
            for r in roots:
                for _ in range(100):  # linear at first near the close pair
                    p, dp = mpmath.polyval(cs, r, derivative=True)
                    step = p / dp
                    r -= step
                    if abs(step) < 1e-60:
                        break
                re, im = F(mpmath.nstr(r.real, 90)), F(mpmath.nstr(r.imag, 90))
                hits.append([k for k, b in enumerate(boxes)
                             if b.re_lo - tol <= re <= b.re_hi + tol
                             and b.im_lo - tol <= im <= b.im_hi + tol])
        assert sorted(hits) == [[k] for k in range(deg)], name


def test_cross_tower_lift():
    _, r2 = adjoin_root(QQ, _upoly(-2, 0, 1), name="sqrt(2)")
    _, r3 = adjoin_root(QQ, _upoly(-3, 0, 1), name="sqrt(3)")
    a, b = lift_to_common(r2, r3)  # incompatible towers: lifted explicitly
    s = a + b
    assert ((s * s - 5) ** 2) == 24


def test_operators_do_not_lift_across_towers():
    _, r2 = adjoin_root(QQ, _upoly(-2, 0, 1), name="sqrt(2)")
    _, r3 = adjoin_root(QQ, _upoly(-3, 0, 1), name="sqrt(3)")
    with pytest.raises(ArithmeticError, match="incompatible towers"):
        r2 + r3
    # field_arith lifts, as its docstring promises
    s = field_arith(r2, r3, "add")
    assert ((s * s - 5) ** 2) == 24


def test_equality_across_sibling_towers(sqrt2_tower):
    # x^2 - 3 stays irreducible over Q(sqrt(2)), so each of its roots gets
    # its own tower Q(sqrt(2))(a2); sqrt(2) lives in both at level 1
    tower, r2 = sqrt2_tower
    three = lift(F(3), tower)
    roots = roots_by_factor(UniPoly([-three, lift(F(0), tower), lift(F(1), tower)]),
                            tower)
    (s, _), (t, _) = roots
    assert common_tower(s.tower, t.tower) is None
    a, b = lift(r2, s.tower), lift(r2, t.tower)
    assert a == b and hash(a) == hash(b) and alg_eq(a, b)
    assert s != t and not alg_eq(s, t)
    assert a != -b and lift(F(1), s.tower) == lift(F(1), t.tower) == 1


def test_cross_tower_lift_root_already_in_tower():
    # sqrt(2) = a^2 / 2 lies in Q(a), a = 8^(1/4): the lift adds no level
    _, a = adjoin_root(QQ, _upoly(-8, 0, 0, 0, 1))
    _, r2 = adjoin_root(QQ, _upoly(-2, 0, 1))
    a2, r2 = lift_to_common(a, r2)
    s = a2 + r2
    assert s.tower == a.tower and s.tower.height == 1
    assert 2 * (s - a) == a * a


def test_pick_root_without_a_passing_root():
    with pytest.raises(ArithmeticError):
        pick_root(_upoly(-2, 0, 1), QQ, lambda box, prec: False)


def test_extension_limit():
    with pytest.raises(ExtensionLimitExceeded) as exc:
        adjoin_root(QQ, _upoly(-2, 0, 0, 0, 0, 1), cap=4)
    assert exc.value.tower == QQ


def test_adjoin_picks_greatest_root():
    t, r = adjoin_root(QQ, _upoly(-2, 0, 1))
    assert r.box(20).re_lo > 0  # +sqrt(2), not -sqrt(2)


def test_serialization_round_trip(two_level_tower):
    t, r2, r3 = two_level_tower
    x = F(3, 7) + F(2, 5) * r2 - r3 + F(1, 2) * r2 * r3
    blob = json.dumps(x.to_json())
    y = AlgebraicNumber.from_json(json.loads(blob))
    assert y.level == x.level and y.rep == x.rep
    assert (AlgebraicNumber(y.tower, y.level, y.rep).box(32)
            .intersects(x.box(32)))


def test_serialization_rational():
    x = AlgebraicNumber(QQ, 0, F(-7, 3))
    y = AlgebraicNumber.from_json(json.loads(json.dumps(x.to_json())))
    assert y == x
