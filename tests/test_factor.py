"""factor_q below degree 3 against sympy's factorization over Q, and
the linear base case of factor_over_tower against Trager's path."""

import json
import os
import random
from fractions import Fraction as F

import pytest

from aodesolve import factor
from aodesolve.factor import adjoin_root, factor_over_tower, factor_q
from aodesolve.numbers import QQ, lift
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
