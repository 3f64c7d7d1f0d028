import hashlib
import io
import json
import os
import random
from fractions import Fraction as F

import mpmath
import pytest

from aodesolve import numbers
from aodesolve.enclosure import (Box, _imul, box_horner, frac_sqrt_up, polish_fixed, polish_root,
                                 root_radius)
from aodesolve.errors import DivisionByZero, ExtensionLimitExceeded
from aodesolve.factor import (adjoin_root, alg_eq, all_roots, field_arith, lift_to_common,
                              pick_root, roots_by_factor, roots_in_tower)
from aodesolve.numbers import (QQ, AlgebraicNumber, Tower, common_tower, isolate_roots, level_box,
                               lift, numeric_enclosure, rep_box)
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
    assert lhs.box(40).intersects(Box.exact(6))


def test_enclosure_refinement_monotone(sqrt2_tower):
    _, r2 = sqrt2_tower
    b1 = r2.box(16)
    b2 = r2.box(48)
    assert b2.width() <= b1.width()
    assert b1.intersects(b2)


def test_every_key_reads_the_one_precision(monkeypatch):
    """sort_key takes no precision, so every key is the one KEY_BITS box:
    a spy that takes only self serves the factor and place keys of a
    places run on the Ex2 family and the point keys of critical on pool
    curve 0, and both still print their golden bytes."""
    from aodesolve import cli

    keyed = []
    real = AlgebraicNumber.sort_key

    def spy(self):
        keyed.append(self)
        return real(self)

    monkeypatch.setattr(AlgebraicNumber, "sort_key", spy)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "golden.json")) as fh:
        golden = {tuple(case["argv"]): case["sha256"] for case in json.load(fh)}
    places = ("places", "--ode", "((y'+4)^2 + y^2)^3 - 4*(y'+4)^2*y^2", "--order", "6",
              "--format", "json")
    pool0 = next(argv for argv in golden if argv[0] == "critical")  # golden keeps pool order
    for argv in (places, pool0):
        out, err = io.StringIO(), io.StringIO()
        assert cli.main(list(argv), out=out, err=err) == 0, err.getvalue()
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == golden[argv]
    assert keyed


def test_level_boxes_do_not_depend_on_earlier_calls():
    # two fresh copies of Q(sqrt(2))(sqrt(3)); only the second is refined first
    def build():
        t, _ = adjoin_root(QQ, _upoly(-2, 0, 1), name="sqrt(2)")
        return adjoin_root(t, _upoly(-3, 0, 1), name="sqrt(3)")[0]

    fresh, warm = build(), build()
    assert all(a is not b for a, b in zip(fresh.levels, warm.levels))
    for i in range(2):
        level_box(warm, i, 1000)
        level_box(warm, i, 200)
    for i, lev in enumerate(fresh.levels):
        for prec in (64, 80, 112):
            a, b = level_box(fresh, i, prec), level_box(warm, i, prec)
            assert ((a.re_lo, a.re_hi, a.im_lo, a.im_hi)
                    == (b.re_lo, b.re_hi, b.im_lo, b.im_hi))
            assert a.width() <= F(1, 2**prec)
            assert a.intersects(lev.seed)


def _polish_cases():
    """(tower, i) for the Level of every irrational root of two seeded
    integer cubics and a quartic over Q, and of x^3 + sqrt(2) x + 1 over
    Q(sqrt(2)), whose minimal polynomial has non-point coefficient boxes."""
    rng = random.Random(27)
    polys = [_upoly(*[rng.randint(-9, 9) for _ in range(3)], 1) for _ in range(2)]
    polys.append(_upoly(3, -1, 0, 2, 1))
    cases = [(QQ, p) for p in polys]
    t2, r2 = adjoin_root(QQ, _upoly(-2, 0, 1), name="sqrt(2)")
    one = lift(F(1), t2)
    cases.append((t2, UniPoly([one, r2, 0 * one, one], "x")))
    for tower, p in cases:
        for r, _ in all_roots(p, tower):
            if r.tower.height > tower.height:
                yield r.tower, r.tower.height - 1


def test_fixed_point_polish_matches_polish_root(monkeypatch):
    """On the data level_box polishes, polish_fixed lands on the 2^-bits
    grid point next to polish_root's result or on it, and every level_box
    call that refinement makes is no wider than 2^-prec and meets its seed."""
    calls = []
    real = numbers.level_box

    def spy(tower, i, prec):
        box = real(tower, i, prec)
        calls.append((tower.levels[i], prec, box))
        return box

    monkeypatch.setattr(numbers, "level_box", spy)
    kinds = set()
    for tower, i in _polish_cases():
        lev = tower.levels[i]
        kinds.add((i, lev.seed.mid_im != 0))
        for prec in (64, 200):
            work = prec + 48
            cboxes = [rep_box(Tower(tower.levels[:i]), i, c, work) for c in lev.minpoly]
            mids = [(b.mid_re, b.mid_im) for b in cboxes]
            start, bits = (lev.seed.mid_re, lev.seed.mid_im), work + 16
            got, want = polish_fixed(mids, start, bits), polish_root(mids, start, bits)
            assert max(abs(got[0] - want[0]), abs(got[1] - want[1])) <= F(1, 1 << bits)
            numbers.level_box(tower, i, prec)
    assert kinds == {(0, False), (0, True), (1, False), (1, True)}
    assert {prec for _, prec, _ in calls} >= {64, 200}
    for lev, prec, box in calls:
        assert box.width() <= F(1, 1 << prec)
        assert box.intersects(lev.seed)


def _box_path_radius(coeff_boxes, z):
    """root_radius by interval Horner and abs2_bounds, the path that
    non-point data still takes, as the oracle for point data."""
    n = len(coeff_boxes) - 1
    dpz = box_horner([Box.exact(k) * coeff_boxes[k] for k in range(1, n + 1)], z)
    dlo, _ = dpz.abs2_bounds()
    if dlo == 0:
        return None
    return frac_sqrt_up(F(n * n) * box_horner(coeff_boxes, z).abs2_bounds()[1] / dlo)


def test_point_radius_equals_the_box_path():
    """On point coefficients at dyadic Gaussian points the integer radius
    is the Box-path radius, the same Fraction, and None where p'(z) = 0."""
    rng = random.Random(27)

    def q():
        return F(rng.randint(-99, 99), rng.randint(1, 60))

    for k in range(300):
        deg = rng.randint(1, 9)
        cs = [Box.exact(q(), q() if k % 2 else 0) for _ in range(deg)]
        cs.append(Box.exact(rng.choice([-3, 1, F(5, 7)])))
        z = Box.exact(*(F(rng.randint(-2**40, 2**40), 1 << rng.randint(0, 48)) for _ in range(2)))
        got = root_radius(cs, z)
        assert got is not None and got == _box_path_radius(cs, z)
    # x^2 - x + 1 at 1/2, and x^2 - 2w x + 7 at w = 1/4 + i/2: p'(z) = 0
    for cs, z in (([(1, 0), (-1, 0), (1, 0)], (F(1, 2), 0)),
                  ([(7, 0), (F(-1, 2), -1), (1, 0)], (F(1, 4), F(1, 2)))):
        cs = [Box.exact(*c) for c in cs]
        assert root_radius(cs, Box.exact(*z)) is None
        assert _box_path_radius(cs, Box.exact(*z)) is None


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


def test_rational_values_hash_as_their_fraction(sqrt2_tower):
    t, r = sqrt2_tower
    a, b = lift(F(3), t), r * r + 1
    assert a == 3 and b == 3
    assert hash(a) == hash(b) == hash(F(3))
    assert len({a, b, F(3), 3}) == 1


def test_serialization_rational():
    x = AlgebraicNumber(QQ, 0, F(-7, 3))
    y = AlgebraicNumber.from_json(json.loads(json.dumps(x.to_json())))
    assert y == x
