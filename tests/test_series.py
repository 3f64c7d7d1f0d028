import random
from fractions import Fraction as F

import pytest

from aodesolve.errors import InnerNotPositiveOrder, NotAUnit
from aodesolve.factor import adjoin_root
from aodesolve.numbers import QQ
from aodesolve.poly import UniPoly
from aodesolve.series import (TruncatedSeries, compose, derivative, invert,
                              series_arith)


def S(coeffs, trunc=None):
    return TruncatedSeries([F(c) if isinstance(c, (int, str)) else c
                            for c in coeffs], trunc)


def brute_convolution(a, b, n):
    out = []
    for k in range(n + 1):
        out.append(sum((a[i] if i < len(a) else F(0)) * (b[k - i] if k - i < len(b) else F(0))
                       for i in range(k + 1)))
    return out


def test_mul_basic():
    p = series_arith(S([1, 1], 5), S([1, -1], 5), "mul")
    assert [p[i] for i in range(3)] == [1, 0, -1]
    assert p.trunc == 5


def test_add_cancel_order_beyond_truncation():
    s = series_arith(S([0, 1], 4), S([0, -1], 4), "add")
    assert s.order() is None
    assert s.order_lower_bound() == 5
    assert s.trunc == 4


def test_square_of_reparametrization_series():
    # oracle first: brute-force convolution of s with itself
    coeffs = [F(0), F(1, 2), F(0), F(-1, 24), F(0), F(1, 240)]
    expected = brute_convolution(coeffs, coeffs, 6)
    assert expected[:5] == [F(0), F(0), F(1, 4), F(0), F(-1, 24)]
    s = S(coeffs, 5)
    sq = s * s
    assert sq.trunc == 6  # min(5 + ord, 5 + ord) with ord = 1
    assert [sq[i] for i in range(7)] == expected


def test_derivative_examples():
    assert [derivative(S([-1, 0, 1]))[i] for i in range(2)] == [0, 2]
    assert derivative(S([5])).is_zero_series()
    d = derivative(S([0, 1, 0, F(1, 6), 0, F(17, 240)], 5))
    assert [d[i] for i in range(5)] == [1, 0, F(1, 2), 0, F(17, 48)]
    assert d.trunc == 4


def test_invert_geometric():
    inv = invert(S([1, -1], None), trunc=6)
    assert [inv[i] for i in range(7)] == [1] * 7


def test_invert_constant():
    assert invert(S([2]))[0] == F(1, 2)


def test_invert_defining_property():
    a = S([1, 1], 6)
    prod = a * invert(a)
    assert prod[0] == 1
    assert all(prod[i] == 0 for i in range(1, 7))


def test_invert_not_a_unit():
    with pytest.raises(NotAUnit):
        invert(S([0, 1], 4))


def test_compose_paper_example():
    outer = S([-1, 0, 1])  # t^2 - 1, exact
    inner = S([0, F(1, 2), 0, F(-1, 24), 0, F(1, 240)], 5)
    c = compose(outer, inner)
    assert c.trunc == 5
    assert [c[i] for i in range(6)] == [F(-1), 0, F(1, 4), 0, F(-1, 24), 0]


def test_compose_identity_both_ways():
    a = S([3, 1, 4, 1, 5], 4)
    t = S([0, 1], None)
    assert compose(a, t) == a
    got = compose(t, a.truncate(4) - TruncatedSeries.constant(F(3)))
    assert got.agrees_with(a - TruncatedSeries.constant(F(3)))


def test_compose_requires_positive_order():
    with pytest.raises(InnerNotPositiveOrder):
        compose(S([1, 1], 3), S([1, 1], 3))


def test_compose_truncated_outer_exact_inner_of_order_two():
    # outer is certified to t^2 only and inner = t^2 exactly, so the
    # composition is certified through t^(2*3 - 1) = t^5
    c = compose(S([1, 2, 3], 2), S([0, 0, 1]))
    assert c.trunc == 5
    assert list(c.coeffs) == [1, 0, 2, 0, 3, 0]


def test_compose_with_exact_zero_inner():
    # outer(0) is outer's constant term, exactly, whatever outer's order
    zero = S([], None)
    assert compose(S([5, 2, 3], 2), zero) == S([5])
    assert compose(S([7, 1]), zero) == S([7])
    assert compose(S([0, 1], 1), zero).is_zero_series()


def test_compose_zero_outer_keeps_inner_order():
    assert compose(S([]), S([0, 1], 3)) == S([0], 3)


def test_horner_steps_are_cut_at_the_target_order(monkeypatch):
    # outer = t^4 at t + 2t^2 + O(t^6): uncut, the Horner intermediates
    # t^2, t^3, t^4 are certified to O(t^7), O(t^8), O(t^9)
    x = S([0, 1, 2, 0, 0, 0], 5)
    assert UniPoly([0, 0, 0, 0, 1]).eval(x).trunc == 8
    cut = UniPoly([0, 0, 0, 0, 1]).eval(x, 5)
    assert cut == S([0, 0, 0, 0, 1, 8], 5)
    products = []  # each cut step times x is certified to t^6 at most
    mul = TruncatedSeries.__mul__

    def traced(a, b):
        products.append(mul(a, b))
        return products[-1]

    monkeypatch.setattr(TruncatedSeries, "__mul__", traced)
    assert compose(S([0, 0, 0, 0, 1]), x) == cut
    assert max(p.trunc for p in products if p.trunc is not None) == 6


def test_compose_with_a_monomial_inner_takes_no_series_product(monkeypatch):
    """outer(rho t^k) equals Horner's result, scalar types included, with
    no product of series: c_i rho^i goes straight to t^(i k)."""
    _, r2 = adjoin_root(QQ, UniPoly([F(-2), F(0), F(1)], "x"), name="sqrt(2)")
    rng = random.Random(5)
    cases = []
    for _ in range(40):
        n = rng.randint(0, 6)
        outer = S([rng.choice([0, F(rng.randint(-9, 9), rng.randint(1, 4)), r2])
                   for _ in range(n + 1)], rng.choice([None, n]))
        k = rng.randint(1, 3)
        inner = S([0] * k + [rng.choice([F(3, 2), -r2, 2 * r2])])
        t = None if outer.is_exact() else k * (outer.trunc + 1) - 1
        horner = UniPoly(outer.coeffs).eval(inner)
        cases.append((outer, inner, horner if t is None else horner.truncate(t)))

    def no_product(*args):
        raise AssertionError("series product")

    monkeypatch.setattr(TruncatedSeries, "__mul__", no_product)
    for outer, inner, want in cases:
        got = compose(outer, inner)
        assert got.trunc == want.trunc and got.to_json() == want.to_json()


def test_ring_axioms_randomized():
    rng = random.Random(7)

    def rand_series():
        n = rng.randint(0, 5)
        return S([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n + 1)],
                 rng.choice([None, n + rng.randint(0, 3)]))

    for _ in range(300):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert (a + b).agrees_with(b + a)
        assert (a * b).agrees_with(b * a)
        assert ((a + b) * c).agrees_with(a * c + b * c)
        assert ((a * b) * c).agrees_with(a * (b * c))


def test_chain_rule_identity():
    rng = random.Random(11)
    for _ in range(120):
        na = rng.randint(1, 5)
        a = S([F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(na + 1)], na)
        ns = rng.randint(2, 5)
        s = S([F(0)] + [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(ns)], ns)
        if s.order_lower_bound() < 1:
            continue
        lhs = derivative(compose(a, s))
        rhs = compose(derivative(a), s) * derivative(s)
        assert lhs.agrees_with(rhs)


def test_invert_involution():
    rng = random.Random(13)
    for _ in range(150):
        n = rng.randint(0, 6)
        coeffs = [F(rng.randint(1, 9))] + [F(rng.randint(-9, 9), rng.randint(1, 4))
                                           for _ in range(n)]
        a = S(coeffs, n)
        assert invert(invert(a)).agrees_with(a)


def test_precision_soundness():
    # recomputing with more certified input coefficients never changes
    # previously certified output coefficients
    base = [F(1), F(2), F(-1, 3), F(5), F(0), F(7, 2), F(-4)]
    lo = S(base, 3)
    hi = S(base, 6)
    other = [F(2), F(0), F(1, 5), F(-3), F(1), F(1), F(1)]
    for op in ("add", "mul"):
        r_lo = series_arith(lo, S(other, 3), op)
        r_hi = series_arith(hi, S(other, 6), op)
        for i in range(r_lo.trunc + 1):
            assert r_lo[i] == r_hi[i]
    ilo, ihi = invert(lo), invert(hi)
    for i in range(ilo.trunc + 1):
        assert ilo[i] == ihi[i]


def test_algebraic_coefficients():
    _, r2 = adjoin_root(QQ, UniPoly([F(-2), F(0), F(1)], "x"), name="sqrt(2)")
    a = S([1, r2, F(1, 2)], 4)
    sq = a * a
    assert sq[0] == 1
    assert sq[1] == 2 * r2
    assert sq[2] == 3  # 2*(1/2) + (sqrt2)^2
    inv = invert(a)
    assert (a * inv)[1] == 0


def test_render_and_json_round_trip():
    s = S([-1, 0, F(1, 4), 0, F(-1, 24)], 4)
    assert s.render() == "-1 + 1/4*t^2 - 1/24*t^4 + O(t^5)"
    blob = s.to_json()
    back = TruncatedSeries.from_json(blob)
    assert back == s
    _, r2 = adjoin_root(QQ, UniPoly([F(-2), F(0), F(1)], "x"), name="sqrt(2)")
    s2 = S([1, r2, F(5, 4)], 3)
    back2 = TruncatedSeries.from_json(s2.to_json())
    assert back2.trunc == 3 and back2[1] * back2[1] == 2


def test_order_reporting():
    assert S([0, 0, 3], 5).order() == 2
    assert S([0, 0, 0], 2).order() is None
    assert S([], None).order() is None


def test_render_brackets_sums_and_moves_signs():
    _, r2 = adjoin_root(QQ, UniPoly([F(-2), F(0), F(1)], "x"), name="sqrt(2)")
    # certified coefficients that all vanish leave only the order term
    assert S([0, 0, 0], 2).render() == "O(t^3)"
    s = S([-1, 0, 1 + r2, -r2, F(-3, 2)], 4)
    assert s.render() == "-1 + (1 + sqrt(2))*t^2 - sqrt(2)*t^3 - 3/2*t^4 + O(t^5)"
    assert S([1 + r2, -1, 1]).render("y") == "(1 + sqrt(2)) - y + y^2"
    assert S([]).render() == "0"
