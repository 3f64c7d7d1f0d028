"""factor_q against sympy's factorization over Q: the quadratics, and
Zassenhaus from degree 3 on seeded products, Swinnerton-Dyer
polynomials and the norms and resultants that classify and critical
factor; the linear base case of factor_over_tower against Trager's
path; and the residue certificate of no_eth_root against roots_in_tower."""

import io
import json
import os
import random
from fractions import Fraction as F
from math import isqrt
from types import SimpleNamespace

import pytest

from aodesolve import cli, factor
from aodesolve.enclosure import Box
from aodesolve.factor import adjoin_root, factor_over_tower, factor_q
from aodesolve.numbers import QQ, AlgebraicNumber, lift
from aodesolve.parsing import parse_polynomial
from aodesolve.poly import UniPoly
from aodesolve.solver import critical_set

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _sympy_factor_q(coeffs):
    """Monic factors of sum c_k x^k over Q by sympy.factor_list, with
    multiplicities, sorted by degree and then by exact coefficients."""
    import sympy

    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x**k
               for k, c in enumerate(coeffs))
    _, factors = sympy.factor_list(sympy.Poly(expr, x))
    out = []
    for f, m in factors:
        desc = [F(int(sympy.numer(c)), int(sympy.denom(c))) for c in f.all_coeffs()]
        out.append(([c / desc[0] for c in reversed(desc)], m))
    return sorted(out, key=lambda fm: (len(fm[0]), fm[0]))


def _rational(rng, height=12):
    return F(rng.randint(-height, height), rng.randint(1, height))


def _nonzero(rng):
    q = F(0)
    while not q:
        q = _rational(rng)
    return q


def _product(*linear):
    """The coefficients of the product of a x + b over the pairs (a, b)."""
    out = [F(1)]
    for a, b in linear:
        out = [(out[k] * b if k < len(out) else 0) + (out[k - 1] * a if k else 0)
               for k in range(len(out) + 1)]
    return out


def _cases():
    rng = random.Random("factor_q:quadratics")
    # discriminant a nonzero square, zero, negative, positive non-square;
    # a square numerator over a non-square denominator and the reverse;
    # non-monic, zero constant terms, degree 1
    cases = [
        [F(-9, 4), F(0), F(1)],    # disc 9: (x - 3/2)(x + 3/2)
        [F(-9, 2), F(0), F(1)],    # disc 18
        [F(-9, 8), F(0), F(1)],    # disc 9/2: square numerator only
        [F(-1, 18), F(0), F(1)],   # disc 2/9: square denominator only
        [F(0), F(3), F(1)],        # x (x + 3)
        [F(0), F(0), F(5)],        # 5 x^2
        [F(0), F(0), F(-2, 3)],
        [F(1), F(2), F(1)],        # (x + 1)^2
        [F(2), F(0), F(1)],        # x^2 + 2
        [F(0), F(7)],
        [F(3), F(-2)],
    ]
    while len(cases) < 200:
        kind = len(cases) % 5
        if kind == 0:
            cases.append(_product((_nonzero(rng), _rational(rng)),
                                  (_nonzero(rng), _rational(rng))))
        elif kind == 1:
            a, b = _nonzero(rng), _rational(rng)
            cases.append([c * _nonzero(rng) for c in _product((a, b), (a, b))])
        elif kind == 2:   # b^2 < 4ac
            a, b = _nonzero(rng), _rational(rng)
            c = (b * b / (4 * a)) + (abs(_nonzero(rng)) if a > 0 else -abs(_nonzero(rng)))
            cases.append([c, b, a])
        elif kind == 3:
            cases.append([_rational(rng), _rational(rng), _nonzero(rng)])
        else:
            cases.append([_rational(rng), _nonzero(rng)])
    return cases


def test_factor_q_below_degree_3_matches_sympy():
    kinds = set()
    for coeffs in _cases():
        got = [(list(f.coeffs), m, f.var) for f, m in factor_q(UniPoly(coeffs, "w"))]
        assert got == [(c, m, "w") for c, m in _sympy_factor_q(coeffs)], coeffs
        if len(coeffs) == 3:
            disc = coeffs[1] ** 2 - 4 * coeffs[0] * coeffs[2]
            kinds.add("zero" if disc == 0 else "negative" if disc < 0
                      else "split" if len(got) == 2 else "irreducible")
    assert kinds == {"zero", "negative", "split", "irreducible"}


def test_factor_q_of_a_constant_is_empty():
    assert factor_q(UniPoly([F(3)])) == []
    assert factor_q(UniPoly([])) == []


# the pool curve 0 that critical_random draws, and Ex2 with a = 1
POOL_0 = ("-3 - 3*(y') - 2*y + 2*(y')^2 - 5*y*(y') - 1*y^2 + 5*(y')^3 - 4*y*(y')^2"
          " - 4*y^2*(y') + 2*y^3 + 2*y*(y')^3 + 5*y^2*(y')^2 + 3*y^3*(y') - 1*y^4")
EX2 = "((y'-1)^2 + y^2)^3 - 4*(y'-1)^2*y^2"


def _mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _zassenhaus_cases():
    """Seeded products and powers of random factors, degree 3 to 20:
    integer ones, rational ones times a rational with content, and
    integer ones times a power of x."""
    rng = random.Random("factor_q:zassenhaus")
    cases = []
    for k in range(60):
        deg, p = rng.randint(3, 20), [F(1)]
        shift = rng.randint(1, min(3, deg - 1)) if k % 3 == 2 else 0
        deg -= shift
        while len(p) - 1 < deg:
            d = rng.randint(1, min(5, deg - len(p) + 1))
            den = rng.randint(1, 4) if k % 3 == 1 else 1
            g = [F(rng.randint(-9, 9), den) for _ in range(d)] + [F(rng.choice([1, -1, 2, 3, 6]))]
            for _ in range(min(rng.choice([1, 1, 2, 3]), (deg - len(p) + 1) // d)):
                p = _mul(p, g)
        if k % 3 == 1:
            p = [c * F(rng.choice([-6, 10, 35]), rng.randint(1, 9)) for c in p]
        cases.append([F(0)] * shift + p)
    return cases


def _swinnerton_dyer(primes):
    """The minimal polynomial of the sum of the square roots of the
    primes, which splits into factors of degree <= 2 mod every prime."""
    import sympy

    x, y = sympy.symbols("x y")
    p = x
    for q in primes:
        p = sympy.resultant(p.subs(x, x - y), y ** 2 - q, y)
    return [F(int(c)) for c in reversed(sympy.Poly(p, x).all_coeffs())]


def test_factor_q_matches_sympy_from_degree_3():
    cases = _zassenhaus_cases() + [_swinnerton_dyer(ps) for ps in ([2, 3], [2, 3, 5], [2, 3, 5, 7])]
    cases.append([F(-1)] + [F(0)] * 11 + [F(1)])  # x^12 - 1
    assert {len(c) - 1 for c in cases} >= set(range(3, 21))
    for coeffs in cases:
        got = [(list(f.coeffs), m) for f, m in factor_q(UniPoly(coeffs))]
        assert got == _sympy_factor_q(coeffs), coeffs


def test_factor_q_matches_sympy_on_what_classify_and_critical_factor(monkeypatch):
    """Every input of degree >= 3 that classify on Ex2 (a = 1) and
    critical on pool curve 0 pass to factor_q: Trager norms and
    resultants, of degrees up to 22."""
    seen = {}
    real = factor.factor_q

    def recorded(p):
        if p.degree >= 3:
            seen[p.coeffs] = p
        return real(p)

    monkeypatch.setattr(factor, "factor_q", recorded)
    for argv in (["classify", "--ode", EX2], ["critical", "--ode", POOL_0]):
        assert cli.main(argv, out=io.StringIO(), err=io.StringIO()) == 0
    assert max(p.degree for p in seen.values()) >= 20
    for p in seen.values():
        got = [(list(f.coeffs), m) for f, m in real(p)]
        assert got == _sympy_factor_q(list(p.coeffs)), p


def test_recombine_tries_each_multiset_of_pieces_once():
    """20 equal pieces and 4 distinct ones have 175 sub-multisets of
    sizes 1 to 12, each tried once; subsets of positions would number
    9,740,685."""
    tried = []

    def split(f, chosen):
        tried.append(tuple(sorted(chosen)))

    assert factor._recombine("f", [1] * 20 + [2, 3, 4, 5], split) == ["f"]
    assert len(tried) == len(set(tried)) == 175
    assert {len(c) for c in tried} == set(range(1, 13))


def _towers():
    """Q(sqrt(2)), Q(2^(1/4)) and Q(sqrt(2))(sqrt(3)), each with the
    elements of its Q-basis other than 1."""
    t2, r2 = adjoin_root(QQ, UniPoly([F(-2), F(0), F(1)], "x"))
    t4, r4 = adjoin_root(QQ, UniPoly([F(-2), F(0), F(0), F(0), F(1)], "x"))
    t23, r3 = adjoin_root(t2, UniPoly([F(-3), F(0), F(1)], "x"))
    return [(t2, [r2]), (t4, [r4, r4 * r4, r4 * r4 * r4]), (t23, [r2, r3, r2 * r3])]


def _linear_cases():
    """Seeded a x + b over each tower: coefficients with every basis
    element, rational ones and ones from a lower level."""
    rng = random.Random("factor_over_tower:linear")
    for tower, basis in _towers():
        def element():
            return _rational(rng) + sum(_rational(rng) * g for g in basis)
        for k in range(12):
            a = element() if k % 3 else _nonzero(rng)
            if a == 0:
                a = basis[0]
            b = element() if k % 4 else (_rational(rng) if k % 8 else basis[0])
            yield tower, UniPoly([b, a], "w")


def test_linear_factor_needs_no_norm(monkeypatch):
    """A linear polynomial over a tower is its own irreducible factor:
    factor_over_tower returns it made monic with no Trager norm, equal in
    its JSON to what the norm path gives (which may leave a monic 1 as a
    rational, so that side is lifted into the tower too)."""
    cases = list(_linear_cases())
    want = [[lift(c, tower).to_json() for c in factor._trager_irreducible(p.monic(), tower)[0].coeffs]
            for tower, p in cases]

    def no_norm(p, tower):
        pytest.fail("a linear factor needs no norm")

    monkeypatch.setattr(factor, "_norm", no_norm)
    for (tower, p), coeffs in zip(cases, want):
        got = factor_over_tower(p, tower)
        assert len(got) == 1 and got[0][1] == 1 and got[0][0].var == "w"
        assert [c.to_json() for c in got[0][0].coeffs] == coeffs, p


def test_critical_set_of_a_pool_curve_takes_no_norm(monkeypatch):
    """On the first pinned critical input every gcd z - z0 at a conjugate
    y0 is linear, and a linear factor needs no Trager norm, so the whole
    critical set is found without one."""
    with open(os.path.join(ROOT, "perfbench", "golden.json")) as fh:
        argv = next(case["argv"] for case in json.load(fh) if case["argv"][0] == "critical")
    ode = parse_polynomial(argv[argv.index("--ode") + 1])
    calls = []
    real = factor._norm

    def counted(p, tower):
        calls.append(tower.height)
        return real(p, tower)

    monkeypatch.setattr(factor, "_norm", counted)
    assert len(critical_set(ode)) > 0
    assert calls == []


def _root_of(tower, c, e):
    """The roots of x^e - c in the tower."""
    return factor.roots_in_tower(UniPoly([-c] + [F(0)] * (e - 1) + [F(1)], "x"), tower)


@pytest.fixture(scope="module")
def towers():
    """Q(sqrt(2)) as q2 with generator r2, and Q(sqrt(2))(sqrt(3)) as q23
    with s2 = sqrt(2) and s3 = sqrt(3)."""
    q2, r2 = adjoin_root(QQ, UniPoly([F(-2), F(0), F(1)], "x"), name="sqrt(2)")
    q23, s3 = adjoin_root(q2, UniPoly([F(-3), F(0), F(1)], "x"), name="sqrt(3)")
    return SimpleNamespace(q2=q2, r2=r2, q23=q23, s2=lift(r2, q23), s3=s3)


# (name, (tower, value), e, certified): a certified value has no e-th
# root in the tower; the others are e-th powers there, which no prime
# may certify
_CERTIFICATE_CASES = [
    ("3 + 2 sqrt(2) = (1 + sqrt(2))^2", lambda T: (T.q2, 3 + 2 * T.r2), 2, False),
    # 2 is no square over Q, so a map of the levels up to lam's alone would certify it
    ("2 over Q(sqrt(2))", lambda T: (T.q2, lift(F(2), T.q2)), 2, False),
    ("1 + sqrt(2), of norm -1", lambda T: (T.q2, 1 + T.r2), 2, True),
    ("-1 over the real Q(sqrt(2))", lambda T: (T.q2, lift(F(-1), T.q2)), 2, True),
    ("2 = sqrt(2)^2, no fourth power", lambda T: (T.q2, lift(F(2), T.q2)), 4, True),
    ("2, no cube in Q(sqrt(2))", lambda T: (T.q2, lift(F(2), T.q2)), 3, True),
    ("6 = (sqrt(2) sqrt(3))^2", lambda T: (T.q23, lift(F(6), T.q23)), 2, False),
    ("3 below the level of sqrt(3)", lambda T: (T.q23, lift(F(3), T.q23)), 2, False),
    ("(sqrt(2) + sqrt(3))^2", lambda T: (T.q23, (T.s2 + T.s3) * (T.s2 + T.s3)), 2, False),
    ("-1 over Q(sqrt(2))(sqrt(3))", lambda T: (T.q23, lift(F(-1), T.q23)), 2, True),
    ("sqrt(2) over Q(sqrt(2))(sqrt(3))", lambda T: (T.q23, T.s2), 2, True),
    ("sqrt(2) + sqrt(3)", lambda T: (T.q23, T.s2 + T.s3), 2, True),
]


@pytest.mark.parametrize("make, e, certified", [c[1:] for c in _CERTIFICATE_CASES],
                         ids=[c[0] for c in _CERTIFICATE_CASES])
def test_residue_certificate(towers, make, e, certified):
    tower, c = make(towers)
    assert factor.no_eth_root(c, e, tower) is certified
    assert bool(_root_of(tower, c, e)) is not certified


def _close_pair(k):
    """x^2 - 2x + 1 - 5 * 2^(-2k), whose roots 1 +- sqrt(5) 2^-k meet
    in every enclosure wider than about 2^-k."""
    return UniPoly([1 - F(5, 2 ** (2 * k)), F(-2), F(1)], "x")


def test_pick_root_doubles_the_precision_until_one_root_passes():
    """A 2^-prec disk around the upper root meets both roots at 48 bits
    and only the upper one at 96."""
    upper = 1 + F(isqrt(5 * 4 ** 200), 2 ** 271)
    precs = []

    def accept(box, prec):
        precs.append(prec)
        return box.intersects(Box.disk(upper, F(0), F(1, 2 ** prec)))

    tower, r = factor.pick_root(_close_pair(71), QQ, accept)
    assert sorted(set(precs)) == [48, 96]
    assert tower.height == 1 and (r - 1) ** 2 == F(5, 2 ** 142) and r.box(96).re_lo > 1


def test_alg_eq_refines_the_root_index(monkeypatch):
    """Over the incompatible towers Q(sqrt(2)) and Q(sqrt(3)), the roots
    1 +- sqrt(5) 2^-201 are told apart by _root_index only after it
    doubles the precision from 64 to 128 bits."""
    p = _close_pair(201)
    _, r2 = adjoin_root(QQ, UniPoly([F(-2), F(0), F(1)], "x"), name="sqrt(2)")
    _, r3 = adjoin_root(QQ, UniPoly([F(-3), F(0), F(1)], "x"), name="sqrt(3)")
    (a_lo, _), (a_hi, _) = factor.all_roots(p, r2.tower)
    (b_lo, _), (b_hi, _) = factor.all_roots(p, r3.tower)
    precs = []
    box = AlgebraicNumber.box

    def spy(self, prec=64):
        precs.append(prec)
        return box(self, prec)

    monkeypatch.setattr(AlgebraicNumber, "box", spy)
    assert factor.alg_eq(a_hi, b_hi) and max(precs) == 128
    precs.clear()
    assert not factor.alg_eq(a_hi, b_lo) and max(precs) == 128
