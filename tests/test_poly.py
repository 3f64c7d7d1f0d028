import cmath
import random
from fractions import Fraction as F

import pytest

from aodesolve.errors import (CommonComponent, NoDerivative, NotIrreducible,
                              PointNotOnCurve, TrivialLinear)
from aodesolve.factor import adjoin_root, alg_eq, roots_by_factor
from aodesolve.numbers import QQ, AlgebraicNumber, as_alg, orbit_key
from aodesolve.poly import (BiPoly, Point, UniPoly, multiplicity_at,
                            resultant_lists, ruppert_factor_count, separant,
                            solve_system, translate, uni_gcd, univariate_slice,
                            validate_input)
from aodesolve.series import TruncatedSeries
from conftest import make_ex1, make_ex2


def resultant_z(A, B):
    """Res_z(A, B), a UniPoly in y."""
    return resultant_lists(A.coeffs, B.coeffs, "y")[0]


def _sympy_bipoly(B):
    import sympy

    y, z = sympy.symbols("y z")
    expr = sympy.Integer(0)
    for (i, j), c in B.terms.items():
        expr += sympy.Rational(c.numerator, c.denominator) * y**i * z**j
    return expr, y, z


def _from_sympy_expr(expr, y, z):
    import sympy

    p = sympy.Poly(sympy.expand(expr), y, z)
    terms = {}
    for (i, j), c in p.terms():
        terms[(int(i), int(j))] = F(int(sympy.numer(c)), int(sympy.denom(c)))
    return BiPoly(terms)


def test_separant_trivial(ex1):
    assert separant(ex1) == BiPoly({(0, 1): F(2)})
    G = BiPoly({(0, 2): F(1), (0, 1): F(-2), (0, 0): F(1), (3, 0): F(-1)})
    assert separant(G) == BiPoly({(0, 1): F(2), (0, 0): F(-2)})


def test_separant_against_symbolic_oracle(ex2):
    import sympy

    expr, y, z = _sympy_bipoly(ex2)
    expected = _from_sympy_expr(sympy.diff(expr, z), y, z)
    assert separant(ex2) == expected


def test_separant_degree_drop():
    # total-degree-leading form involves z: degree drops by exactly one
    for B in (make_ex1(), make_ex2(), BiPoly({(0, 3): F(2), (1, 1): F(1)})):
        lead = max(i + j for (i, j) in B.terms)
        if not any(i + j == lead and j > 0 for (i, j) in B.terms):
            continue
        assert separant(B).total_degree() == B.total_degree() - 1


def test_validate_accepts_examples(ex1, ex2):
    assert validate_input(ex1) == ex1
    assert validate_input(ex2) == ex2


def test_validate_rejects_reducible():
    B = BiPoly({(0, 2): F(1), (2, 0): F(-1)})  # (z-y)(z+y)
    with pytest.raises(NotIrreducible) as exc:
        validate_input(B)
    w = exc.value.witness
    assert w is not None
    variants = [BiPoly({(0, 1): F(s), (1, 0): F(t)})
                for s in (1, -1) for t in (1, -1)]
    assert w in variants  # a unit multiple of z - y or z + y


def test_validate_rejects_absolutely_reducible():
    # irreducible over Q, splits over Q(sqrt(2))
    B = BiPoly({(0, 2): F(1), (2, 0): F(-2)})
    with pytest.raises(NotIrreducible):
        validate_input(B)
    # smooth conic splitting over Q(i)
    with pytest.raises(NotIrreducible):
        validate_input(BiPoly({(0, 2): F(1), (2, 0): F(1)}))


def test_validate_trivial_linear():
    with pytest.raises(TrivialLinear):
        validate_input(BiPoly({(0, 1): F(1), (0, 0): F(-5)}))


def test_validate_no_derivative():
    with pytest.raises(NoDerivative):
        validate_input(BiPoly({(3, 0): F(1), (1, 0): F(-1)}))


def test_validate_univariate_in_z():
    with pytest.raises(NotIrreducible) as exc:
        validate_input(BiPoly({(0, 2): F(1), (0, 0): F(-2)}))
    assert exc.value.witness is not None  # z - sqrt(2)


def _sympy_first_validate(B):
    """validate_input in its former order, the oracle: sympy's
    factorization over Q decides reducibility, and the Ruppert count
    runs only on a Q-irreducible F."""
    import sympy

    if B.is_zero() or B.deg_z < 1:
        raise NoDerivative("F must involve y'")
    if B.deg_y <= 0 and B.deg_z == 1:
        raise TrivialLinear("F is of the form y' - lambda")
    if B.deg_y <= 0:
        _, root = adjoin_root(QQ, UniPoly(univariate_slice(B, "z", 0).coeffs, "x"))
        raise NotIrreducible("F factors over an algebraic extension",
                             witness=BiPoly({(0, 1): F(1), (0, 0): -root}))
    expr, y, z = _sympy_bipoly(B)
    _, factors = sympy.factor_list(sympy.Poly(expr, y, z))
    nontrivial = [(p, e) for p, e in factors if p.total_degree() > 0]
    if len(nontrivial) > 1 or (nontrivial and nontrivial[0][1] > 1):
        raise NotIrreducible("F is reducible over Q",
                             witness=_from_sympy_expr(nontrivial[0][0].as_expr(), y, z))
    r = ruppert_factor_count(B)
    if r != 1:
        raise NotIrreducible("F is irreducible over Q but splits into %d factors over "
                             "the algebraic closure" % r, witness=None)
    return B


def _verdict(validate, B):
    try:
        return validate(B) == B
    except NotIrreducible as exc:
        return type(exc), str(exc), exc.witness
    except (NoDerivative, TrivialLinear) as exc:
        return type(exc), str(exc)


def _random_curve(rng, degree=4, zdegree=3, height=5):
    """perfbench's workloads.random_curve, built as a BiPoly: a dense
    curve of total degree ``degree`` and degree ``zdegree`` in y'."""
    return BiPoly({(i, d - i): F(rng.choice([k for k in range(-height, height + 1) if k]))
                   for d in range(degree + 1) for i in range(d + 1) if d - i <= zdegree})


# built cases: Ex1, then curves that are reducible over Q or over Q-bar
_G = BiPoly({(0, 2): F(1), (3, 0): F(-1), (2, 0): F(-1)})   # Ex1
_H = BiPoly({(0, 1): F(1), (1, 0): F(-1)})                   # y' - y
_BUILT = [
    _G,
    _G * _H,
    _G * _G,
    BiPoly({(1, 0): F(1), (0, 0): F(1)}) * _G,   # (y + 1) * G
    BiPoly({(0, 2): F(1), (2, 0): F(-2)}),       # splits over Q(sqrt(2))
    BiPoly({(0, 2): F(1), (0, 0): F(1)}) * _G,   # (y'^2 + 1) * G
]


def test_validate_matches_the_sympy_first_order():
    rng = random.Random("validate:sympy-first")
    curves = list(_BUILT)
    curves += [BiPoly({(0, 2): F(1), (0, 0): F(-2)}), BiPoly({(0, 3): F(1), (0, 0): F(-1)}),
               BiPoly({(0, 1): F(3), (0, 0): F(-5)}), BiPoly({(2, 0): F(1)})]  # deg_y <= 0
    curves += [_random_curve(rng) for _ in range(8)]
    curves += [_random_curve(rng, 2, 1) * _random_curve(rng, 2, 2) for _ in range(4)]
    curves += [_random_curve(rng, 2, 1) ** 2 for _ in range(2)]
    curves += [_random_curve(rng, 1, 0) * _random_curve(rng, 3, 2) for _ in range(2)]
    seen = set()
    for B in curves:
        want = _verdict(_sympy_first_validate, B)
        assert _verdict(validate_input, B) == want, B.render()
        seen.add(want is True or want[1])
    assert seen == {True, "F is reducible over Q", "F is irreducible over Q but splits into "
                    "2 factors over the algebraic closure", "F factors over an algebraic "
                    "extension", "F is of the form y' - lambda", "F must involve y'"}


def test_validate_accepts_ex1_without_sympy_and_rejects_by_the_count(monkeypatch):
    """A Ruppert count of 1 accepts with no bivariate factorization;
    every built curve that splits over Q or Q-bar, squares and y-content
    included, has a count of at least 2."""
    from aodesolve import factor, poly

    def no_factoring(B):
        raise AssertionError("bivariate factorization on an accepted curve")

    monkeypatch.setattr(factor, "factor_bivariate_q", no_factoring)
    poly._validate_cached.cache_clear()
    assert validate_input(_G) == _G
    poly._validate_cached.cache_clear()
    assert [ruppert_factor_count(B) for B in _BUILT] == [1, 2, 12, 2, 2, 3]


def _sympy_factor_list(B):
    import sympy

    expr, y, z = _sympy_bipoly(B)
    _, factors = sympy.factor_list(sympy.Poly(expr, y, z))
    return [(_from_sympy_expr(p.as_expr(), y, z), m) for p, m in factors]


def test_factor_bivariate_q_matches_sympy_factor_list():
    """The full factor list (factors, multiplicities and order) against
    sympy's, on products (one with fractional coefficients), squares,
    content free of y or of y', monomial content, lines through the
    origin, and curves whose Kronecker image splits further than the
    curve does."""
    from aodesolve.factor import factor_bivariate_q
    from aodesolve.parsing import parse_polynomial

    rng = random.Random("factor_bivariate_q")
    curves = [_random_curve(rng, 3, 2) * _random_curve(rng, 3, 2) for _ in range(4)]
    curves += [_random_curve(rng, 2, 1) * _random_curve(rng, 2, 2) * _random_curve(rng, 2, 1)
               for _ in range(3)]
    curves += [_random_curve(rng, 3, 2) ** 2, _G * _G,
               BiPoly({(0, 1): F(1, 2), (1, 0): F(-1, 3)}) * _G]
    curves += [parse_polynomial(s) for s in (
        "(3*y^2 + 1)*(2*y' + 1)*((y')^2 - y^3 - y^2)",
        "(y' - y)*(y' - 2*y)*(y' - 3*y)*(y' - 4*y)*(y' - 5*y)",
        "y*(y')^2*(y' - y)", "y^2*(y')", "(y' - y)^2*(y' + y)",
        "(y')^4 - 4*y^4", "(y')^2 - 2*y^2", "(y')^2 - 2*y^6", "(y')^3 - y^7",
        "y*((y')^3 - y^20)")]
    for B in curves:
        assert factor_bivariate_q(B) == _sympy_factor_list(B), B.render()


def test_validate_rejects_a_curve_whose_image_repeats_a_piece_twenty_times():
    """y ((y')^3 - y^20) is reducible.  The image of its cofactor,
    x^20 (x^46 - 1), has 24 irreducible pieces, 20 of them x; each
    multiset of them is tried once, so the reject takes well under a
    second, where the subsets of positions would number 9.7 million."""
    from aodesolve.parsing import parse_polynomial

    with pytest.raises(NotIrreducible) as exc:
        validate_input(parse_polynomial("y*((y')^3 - y^20)"))
    assert exc.value.witness == BiPoly.variable("y")


def test_ruppert_counts(ex1, ex2):
    assert ruppert_factor_count(ex1) == 1
    assert ruppert_factor_count(ex2) == 1
    assert ruppert_factor_count(BiPoly({(0, 1): F(1), (1, 0): F(-1)})) == 1
    assert ruppert_factor_count(BiPoly({(0, 2): F(1), (2, 0): F(-2)})) == 2
    assert ruppert_factor_count(BiPoly({(0, 2): F(1), (4, 0): F(-2)})) == 2
    assert ruppert_factor_count(BiPoly({(0, 2): F(1), (3, 0): F(-1)})) == 1


# the 12 curves of perfbench's critical_random pool, copied as text
_POOL = [
    "-3 - 3*(y') - 2*y + 2*(y')^2 - 5*y*(y') - 1*y^2 + 5*(y')^3 - 4*y*(y')^2 - 4*y^2*(y') "
    "+ 2*y^3 + 2*y*(y')^3 + 5*y^2*(y')^2 + 3*y^3*(y') - 1*y^4",
    "-3 + 2*(y') + y + 5*(y')^2 + 4*y*(y') - 2*y^2 - 5*(y')^3 + y*(y')^2 + 5*y^2*(y') "
    "- 2*y^3 + 4*y*(y')^3 + 4*y^2*(y')^2 - 4*y^3*(y') - 1*y^4",
    "1 + 5*(y') + 2*y + 4*(y')^2 + 2*y*(y') - 5*y^2 - 3*(y')^3 - 1*y*(y')^2 - 1*y^2*(y') "
    "+ 4*y^3 + y*(y')^3 - 5*y^2*(y')^2 - 4*y^3*(y') - 5*y^4",
    "3 + 5*(y') - 1*y - 2*(y')^2 + y*(y') + 5*y^2 - 1*(y')^3 - 3*y*(y')^2 - 2*y^2*(y') "
    "+ 2*y^3 + 5*y*(y')^3 - 2*y^2*(y')^2 - 5*y^3*(y') + y^4",
    "4 - 3*(y') - 1*y - 3*(y')^2 - 2*y*(y') + 3*y^2 + 2*(y')^3 - 5*y*(y')^2 - 4*y^2*(y') "
    "+ 5*y^3 + 2*y*(y')^3 - 4*y^2*(y')^2 - 2*y^3*(y') - 3*y^4",
    "-5 + 2*(y') + y + 5*(y')^2 + 3*y*(y') + 2*y^2 + 3*(y')^3 - 2*y*(y')^2 + 4*y^2*(y') "
    "- 2*y^3 - 2*y*(y')^3 + 3*y^2*(y')^2 - 4*y^3*(y') - 5*y^4",
    "-3 + 3*(y') - 1*y + 2*(y')^2 - 2*y*(y') + 3*y^2 + 2*(y')^3 - 3*y*(y')^2 - 4*y^2*(y') "
    "+ 3*y^3 + 2*y*(y')^3 - 4*y^2*(y')^2 - 4*y^3*(y') + 3*y^4",
    "-4 + 4*(y') - 1*y + 2*(y')^2 - 1*y*(y') + 4*y^2 - 4*(y')^3 - 3*y*(y')^2 + 5*y^2*(y') "
    "- 4*y^3 + 5*y*(y')^3 - 1*y^2*(y')^2 + 5*y^3*(y') - 4*y^4",
    "-2 + (y') - 2*y - 1*(y')^2 + y*(y') + y^2 + (y')^3 + 5*y*(y')^2 + y^2*(y') - 4*y^3 "
    "- 3*y*(y')^3 - 4*y^2*(y')^2 - 2*y^3*(y') - 3*y^4",
    "-4 + 5*(y') + 5*y + 2*(y')^2 + y*(y') - 3*y^2 + 3*(y')^3 + 3*y*(y')^2 - 5*y^2*(y') "
    "- 2*y^3 - 2*y*(y')^3 - 3*y^2*(y')^2 - 5*y^3*(y') - 5*y^4",
    "1 + 4*(y') - 3*y + 3*(y')^2 + 5*y*(y') + 2*y^2 - 5*(y')^3 - 4*y*(y')^2 - 1*y^2*(y') "
    "+ 2*y^3 - 4*y*(y')^3 + y^2*(y')^2 + 3*y^3*(y') + 4*y^4",
    "5 + (y') - 1*y - 4*(y')^2 - 4*y*(y') + 5*y^2 + 4*(y')^3 + y*(y')^2 + 2*y^2*(y') "
    "- 5*y^3 - 3*y*(y')^3 + 5*y^2*(y')^2 - 2*y^3*(y') + 3*y^4",
]


def test_accept_path_proves_the_count_mod_p_without_fraction_elimination(monkeypatch):
    """Ex1, Ex2 with a = +-1..4 and the critical_random pool are accepted
    on the rank mod 2^61 - 1 alone."""
    from aodesolve import poly
    from aodesolve.parsing import parse_polynomial

    rank = poly._sparse_rank

    def modular_only(rows, p=None):
        assert p == poly._P61, "Fraction elimination on an accepted curve"
        return rank(rows, p)

    monkeypatch.setattr(poly, "_sparse_rank", modular_only)
    ex2 = "((y'-%d)^2 + y^2)^3 - 4*(y'-%d)^2*y^2"
    curves = [_G] + [parse_polynomial(ex2 % (a, a)) for a in (1, 2, 3, 4, -1, -2, -3, -4)]
    curves += [parse_polynomial(s) for s in _POOL]
    poly._validate_cached.cache_clear()
    try:
        assert [validate_input(B) for B in curves] == curves
    finally:
        poly._validate_cached.cache_clear()


def test_modular_count_matches_the_exact_nullity(monkeypatch):
    """On seeded random curves, irreducible and reducible (products,
    squares, y-content, a split over Q(sqrt(2))), the count equals the
    nullity over Fraction and the nullity mod p is never below it."""
    from aodesolve import poly

    # det 3: full rank over Q, rank 1 mod 3
    assert poly._sparse_rank([{0: 2, 1: 1}, {0: 1, 1: 2}]) == 2
    assert poly._sparse_rank([{0: 2, 1: 1}, {0: 1, 1: 2}], 3) == 1

    rank, ranks = poly._sparse_rank, {}

    def both(rows, p=None):
        ranks["exact"], ranks["mod p"] = rank(rows), rank(rows, poly._P61)
        return ranks["exact" if p is None else "mod p"]

    monkeypatch.setattr(poly, "_sparse_rank", both)
    rng = random.Random("ruppert:modular")
    y = BiPoly.variable("y")
    curves = [_random_curve(rng) for _ in range(4)]
    curves += [_random_curve(rng, 2, 2) * _random_curve(rng, 3, 2) for _ in range(2)]
    curves += [_random_curve(rng, 2, 2) ** 2, y * _random_curve(rng, 3, 2),
               BiPoly({(0, 2): F(1), (2, 0): F(-2)}), _G * BiPoly({(0, 0): F(1, 3)})]
    counts = []
    for B in curves:
        m, n = B.deg_y, B.deg_z
        cols = m * (n + 1) + (m + 1) * n
        counts.append(ruppert_factor_count(B))
        assert counts[-1] == cols - ranks["exact"], B.render()
        assert cols - ranks["mod p"] >= cols - ranks["exact"], B.render()
    assert counts[:4] == [1] * 4 and min(counts[4:-1]) >= 2 and counts[-1] == 1


def test_translate_by_expansion_oracle(ex1):
    import sympy

    expr, y, z = _sympy_bipoly(ex1)
    expected = _from_sympy_expr(expr.subs({y: y - 1}, simultaneous=True), y, z)
    got = translate(ex1, F(-1), F(0))
    assert got == expected
    assert got == BiPoly({(0, 2): F(1), (3, 0): F(-1), (2, 0): F(2), (1, 0): F(-1)})


def test_translate_identity_and_inverse(ex1, ex2):
    assert translate(ex1, F(0), F(0)) == ex1
    line = BiPoly({(0, 1): F(1), (1, 0): F(-1)})
    assert translate(line, F(1), F(1)) == line
    for B in (ex1, ex2):
        shifted = translate(B, F(2, 3), F(-1, 2))
        assert translate(shifted, F(-2, 3), F(1, 2)) == B


def test_translate_algebraic_point(ex1):
    _, r2 = adjoin_root(QQ, UniPoly([F(-2), F(0), F(1)], "x"), name="sqrt(2)")
    G = translate(ex1, QQ.rational(1), r2)
    assert G.eval(F(0), F(0)).is_zero()


def test_univariate_slice(ex1):
    s = univariate_slice(ex1, "y", F(0))
    assert s == UniPoly([F(0), F(0), F(-1), F(-1)], "y")
    s2 = univariate_slice(ex1, "z", F(1))
    assert s2 == UniPoly([F(-2), F(0), F(1)], "z")
    line = BiPoly({(0, 1): F(1), (1, 0): F(-1)})
    assert univariate_slice(line, "y", F(0)) == UniPoly([F(0), F(-1)], "y")


def test_eval_series_matches_termwise_sum(ex1, ex2):
    """Horner evaluation equals sum c * A^i * B^j, certified order included."""
    _, r2 = adjoin_root(QQ, UniPoly([F(-2), F(0), F(1)], "x"), name="sqrt(2)")
    S = TruncatedSeries
    inputs = [
        (S.exact([F(1), F(2), F(-3)]), S.exact([F(0), F(1), F(1, 2)])),
        (S([F(-1), F(0), F(1, 4)], 5), S([F(0), F(1, 2), F(0), F(-1, 6)], 4)),
        (S([F(0), F(1)], 6), S([F(0), F(2), F(3)], 3)),
        (S([F(1), r2, F(1, 2)], 4), S([r2, F(1), 3 * r2], 4)),
    ]
    assert ex1.columns("y")[1].is_zero()  # an empty z^1 column
    for B in (ex1, ex2):
        for ys, zs in inputs:
            want = S.exact([])
            for (i, j), c in B.terms.items():
                want = want + ys ** i * zs ** j * c
            got = B.eval_series(ys, zs)
            assert isinstance(got, TruncatedSeries)
            assert got == want


def test_bipoly_ring_arithmetic_against_sympy():
    """BiPoly arithmetic is the series arithmetic in z over UniPoly
    columns: seeded random polynomials agree with sympy.Poly."""
    import sympy

    rng = random.Random(11)
    y, z = sympy.symbols("y z")

    def rnd():
        return BiPoly({(rng.randint(0, 3), rng.randint(0, 3)): F(rng.randint(-3, 3), rng.randint(1, 2))
                       for _ in range(rng.randint(0, 5))})

    def sp(B):
        assert isinstance(B, BiPoly)
        return sympy.Poly(_sympy_bipoly(B)[0], y, z, domain="QQ")

    def q(c):
        return sympy.Rational(c.numerator, c.denominator)

    for _ in range(20):
        A, B = rnd(), rnd()
        c, c0, c1 = (F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3))
        shifted = sp(A).as_expr().subs({y: y + q(c0), z: z + q(c1)}, simultaneous=True)
        pairs = [
            (A + B, sp(A) + sp(B)), (A - B, sp(A) - sp(B)), (A * B, sp(A) * sp(B)),
            (A ** 3, sp(A) ** 3), (A.diff_z(), sp(A).diff(z)),
            (A + c, sp(A) + q(c)), (c + A, sp(A) + q(c)),
            (A - c, sp(A) - q(c)), (c - A, q(c) - sp(A)),
            (A * c, sp(A) * q(c)), (c * A, sp(A) * q(c)),
            (translate(A, c0, c1), sympy.Poly(shifted, y, z, domain="QQ")),
        ]
        for got, want in pairs:
            assert sp(got) == want
        # columns("z"): the coefficient of y^i as a polynomial in z
        rows = A.columns("z")
        assert len(rows) == A.deg_y + 1
        for i, row in enumerate(rows):
            assert row.var == "z"
            want = sp(A).as_expr().coeff(y, i)
            assert sympy.Poly(row.render("z"), z, domain="QQ") == sympy.Poly(want, z, domain="QQ")
        # cancellation gives the zero polynomial
        for zero in (A - A, A + (-A), (A + c) - A - c, A * 0, 0 * B, A * (B - B)):
            assert zero.is_zero() and zero.coeffs == ()
            assert zero.deg_y == zero.deg_z == -1 and zero == BiPoly({})

    # equal polynomials from other term orders or from arithmetic compare
    # equal and hash alike
    P = BiPoly({(2, 0): F(1), (1, 0): F(2), (0, 0): F(1), (0, 3): F(-1)})
    Q = BiPoly({(0, 3): F(-1), (0, 0): F(1), (1, 0): F(2), (2, 0): F(1), (5, 1): F(0)})
    R = (BiPoly.variable("y") + 1) ** 2 - BiPoly.variable("z") ** 3
    assert P == Q == R and hash(P) == hash(Q) == hash(R) and len({P, Q, R}) == 1
    # an empty column is zero, and a constant equals and hashes as its scalar
    assert UniPoly([], "y") == 0 and hash(UniPoly([], "y")) == hash(0)
    assert BiPoly({(0, 0): F(5)}) == 5 and hash(BiPoly({(0, 0): F(5)})) == hash(F(5))
    assert BiPoly({(1, 1): F(1)}).coeffs[0] == 0
    # the zero polynomial translates to the zero BiPoly, not to a scalar
    shifted = translate(BiPoly({}), 1, 2)
    assert isinstance(shifted, BiPoly) and shifted == BiPoly({})


def test_multiplicity_examples(ex1, ex2):
    assert multiplicity_at(ex1, (F(0), F(0))) == 2
    assert multiplicity_at(ex1, (F(-1), F(0))) == 1
    assert multiplicity_at(ex2, (F(0), F(1))) == 4
    with pytest.raises(PointNotOnCurve):
        multiplicity_at(ex1, (F(5), F(0)))


def test_solve_system_example1(ex1):
    pts = solve_system(ex1, BiPoly.variable("z"))
    coords = sorted((p.y.as_fraction(), p.z.as_fraction()) for p in pts)
    assert coords == [(F(-1), F(0)), (F(0), F(0))]
    for p in pts:
        assert ex1.eval(p.y, p.z).is_zero()


def test_solve_system_unit_second_poly():
    line = BiPoly({(0, 1): F(1), (1, 0): F(-1)})
    assert solve_system(line, BiPoly({(0, 0): F(1)})) == []


def test_solve_system_common_component(ex1):
    with pytest.raises(CommonComponent):
        solve_system(ex1, ex1)


def test_solve_system_example2_eleven_points(ex2):
    zsf = BiPoly.variable("z") * separant(ex2)
    pts = solve_system(ex2, zsf)
    assert len(pts) == 11
    for p in pts:
        assert ex2.eval(p.y, p.z).is_zero()
        assert (zsf.eval(p.y, p.z)).is_zero()
    # one point is (0, 1)
    assert sum(1 for p in pts if p.y == 0 and p.z == 1) == 1
    # six points with z = 0 and y a root of the sextic
    axis = [p for p in pts if p.z.is_rational() and p.z.as_fraction() == 0]
    assert len(axis) == 6
    for p in axis:
        a = p.y
        assert (a**6 + 3 * a**4 - a**2 + 1).is_zero()
    # four points with 27 z^2 - 54 z + 19 = 0 and 81 y^2 = 48
    rest = [p for p in pts if p not in axis and not (p.y == 0 and p.z == 1)]
    assert len(rest) == 4
    for p in rest:
        assert (27 * p.z * p.z - 54 * p.z + 19).is_zero()
        assert (81 * p.y * p.y - 48).is_zero()


def test_solve_system_computes_the_resultant_once(ex2, monkeypatch):
    """The common-component test and the y-coordinates share one Res_z."""
    from aodesolve import poly

    calls = []
    real = poly.resultant_lists

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(poly, "resultant_lists", counted)
    assert len(solve_system(ex2, separant(ex2))) > 0
    assert calls == ["y"]


def _solve_system_table():
    """(F, G, verdict): the CommonComponent message, or the points as
    complex (y, z) pairs in the solver's order."""
    y, z = BiPoly.variable("y"), BiPoly.variable("z")
    one = BiPoly({(0, 0): F(1)})
    zero = 0 * one
    shared = "system has a common nonconstant factor"
    r2, r4 = 2 ** 0.5, 2 ** 0.25
    w = [cmath.exp(2j * cmath.pi * k / 5) for k in (3, 2, 4, 1)]  # 5th roots of 1
    return [
        # zero and constant inputs
        (zero, 3 * one, []),
        (3 * one, zero, "zero polynomial shares every component"),
        (zero, zero, shared),
        (zero, z - y, shared),
        (zero, y - 1, shared),
        (3 * one, 5 * one, []),
        (3 * one, z - y, []),
        (z - y, 3 * one, []),
        # a shared y-content, on one side free of z or on both
        (y - 1, z * (y - 1), shared),
        (z * (y - 1), y - 1, shared),
        ((y - 1) * z, (y - 1) * (z + 1), shared),
        (y - 1, y - 1, shared),
        (y - 1, y + 1, []),
        (y - 1, z - y, [(1, 1)]),
        (z - y, y - 1, [(1, 1)]),
        # a zero slice: F vanishes on y = 1, so G's slice there decides
        ((y - 1) * (z - 1), (y - 1) * z + z * z, [(0, 1), (1, 0)]),
        (y * y - 2, z * z - y, [(-r2, -1j * r4), (-r2, 1j * r4), (r2, -r4), (r2, r4)]),
        (z * z - 2, y, [(0, -r2), (0, r2)]),
        (z * z, y, [(0, 0)]),  # a double root of the slice comes once
        (y * z - 1, y, []),    # a constant gcd of the slices
        (z * z - y, y * y * z - 1, [(v, v ** -2) for v in w] + [(1, 1)]),
    ]


def test_solve_system_edge_inputs():
    """Zero and constant inputs, shared y-contents and zero slices give
    the pinned verdicts: no point, the CommonComponent message, or the
    listed points in order."""
    for Fp, Gp, want in _solve_system_table():
        try:
            pts = solve_system(Fp, Gp)
        except CommonComponent as exc:
            assert str(exc) == want, (Fp, Gp)
            continue
        assert isinstance(want, list), (Fp, Gp)
        got = [(p.y.complex(), p.z.complex()) for p in pts]
        assert len(got) == len(want), (Fp, Gp)
        for (gy, gz), (wy, wz) in zip(got, want):
            assert abs(gy - wy) < 1e-9 and abs(gz - wz) < 1e-9, (Fp, Gp)
        for p in pts:
            assert Fp.eval(p.y, p.z).is_zero() and Gp.eval(p.y, p.z).is_zero()


def _pool_curve(i):
    """perfbench's critical_random pool curve i (0 <= i < 12)."""
    return _random_curve(random.Random("critical_pool:%d" % i))


def test_slice_gcds_from_the_subresultant_chain_match_euclid(ex1, ex2, monkeypatch):
    """At every root y0 of Res_z(F, S_F), poly._s1_root gives the root of
    Euclid's monic gcd of the slices, which must be linear, or declines
    with None.  Euclid runs at the first root of each factor of Res_z:
    both routes are exact, so the gcd has the same reps at every
    conjugate root.  The forced declines are: the root of lc_z F on each
    pool curve, where the gcd is constant; Ex2's gcds of degree 5 at
    y0 = 0 and 2 at its two conjugate points; and (y')^3 + y, whose
    chain runs 3, 2, 0, with the gcd z^2 at y0 = 0.  solve_system takes
    the route: it slices nothing on Ex1, and F and S_F once each on
    (y')^3 + y, for their Euclid."""
    from aodesolve import poly

    cubic = BiPoly({(0, 3): F(1), (1, 0): F(1)})
    hits, declines = 0, []
    for Fc in [_pool_curve(i) for i in range(12)] + [ex2, cubic]:
        S, lc = separant(Fc), Fc.coeffs[-1]
        ry, s1 = resultant_lists(Fc.coeffs, S.coeffs, "y")
        euclid = {}
        for y0, _m in roots_by_factor(ry, QQ):
            key = orbit_key(y0)
            if key not in euclid:
                euclid[key] = uni_gcd(univariate_slice(Fc, "z", y0), univariate_slice(S, "z", y0))
            g = euclid[key]
            z0 = poly._s1_root(y0, lc, s1)
            if z0 is None:
                declines.append((lc.eval(y0) == 0, s1 is None, g.degree))
                continue
            hits += 1
            w = as_alg(-g.coeffs[0])
            assert g.degree == 1 and (z0.level, z0.rep) == (w.level, w.rep)
    assert hits == 120
    assert declines == [(True, False, 0)] * 12 + [
        (False, False, 5), (False, False, 2), (False, False, 2), (False, True, 2)]

    slices = []
    real = poly.univariate_slice

    def counted(Fc, axis, v):
        slices.append(axis)
        return real(Fc, axis, v)

    monkeypatch.setattr(poly, "univariate_slice", counted)
    assert [p.to_json() for p in solve_system(ex1, separant(ex1))] == [
        [as_alg(F(c)).to_json(), as_alg(F(0)).to_json()] for c in (-1, 0)]
    assert slices == []
    assert solve_system(cubic, separant(cubic)) == [Point(0, 0)]
    assert slices == ["z", "z"]


def test_critical_set_keys_each_point_once(monkeypatch):
    """critical_set sorts the points that solve_system has sorted, and
    each Point keeps its key, so on pool curve 0 every point's z gets
    one enclosure key, from its Point key alone."""
    from aodesolve.solver import critical_set

    keyed = []
    real = AlgebraicNumber.sort_key

    def spy(self):
        keyed.append(self)
        return real(self)

    monkeypatch.setattr(AlgebraicNumber, "sort_key", spy)
    points = critical_set(_pool_curve(0)).plain_points()
    assert len(points) == 14
    assert [sum(x is p.z for x in keyed) for p in points] == [1] * len(points)


def test_solve_system_bezout_bound_random():
    rng = random.Random(3)
    done = 0
    while done < 6:
        terms = {}
        for i in range(3):
            for j in range(3 - i):
                if rng.random() < 0.7:
                    terms[(i, j)] = F(rng.randint(-3, 3))
        A = BiPoly(terms)
        Bp = BiPoly({(0, 1): F(1), (1, 0): F(rng.randint(-2, 2)),
                     (0, 0): F(rng.randint(-2, 2))})
        if A.is_zero() or A.deg_z < 1:
            continue
        try:
            pts = solve_system(A, Bp)
        except CommonComponent:
            continue
        assert len(pts) <= A.total_degree() * Bp.total_degree()
        for p in pts:
            assert A.eval(p.y, p.z).is_zero()
            assert Bp.eval(p.y, p.z).is_zero()
        done += 1


def test_resultant_against_sympy_oracle():
    import sympy

    rng = random.Random(17)
    y, z = sympy.symbols("y z")
    done = 0
    while done < 8:
        def rnd(md):
            terms = {}
            for i in range(md + 1):
                for j in range(md + 1 - i):
                    if rng.random() < 0.6:
                        terms[(i, j)] = F(rng.randint(-4, 4))
            return BiPoly(terms)

        A, Bp = rnd(3), rnd(2)
        if A.deg_z < 1 or Bp.deg_z < 1:
            continue
        ea, _, _ = _sympy_bipoly(A)
        eb, _, _ = _sympy_bipoly(Bp)
        mine = resultant_z(A, Bp)
        ref = sympy.resultant(sympy.Poly(ea, z), sympy.Poly(eb, z))
        if ref == 0:
            assert mine.is_zero()
        else:
            refp = sympy.Poly(ref, y)
            refc = [F(int(sympy.numer(c)), int(sympy.denom(c)))
                    for c in reversed(refp.all_coeffs())]
            assert list(mine.coeffs) == refc
        done += 1


def test_resultant_sign_when_the_lower_degree_comes_first():
    """resultant_lists swaps its operands when the first has the lower
    degree, and the swap flips the sign when the degree product is odd.
    The oracle is the Sylvester determinant: sympy 1.14's resultant gives
    b - a^3 for Res_z(z - a, z^3 - b), whose determinant is a^3 - b."""
    import sympy

    y, z = sympy.symbols("y z")

    def sylvester_det(ea, eb):
        a, b = sympy.Poly(ea, z).all_coeffs(), sympy.Poly(eb, z).all_coeffs()
        m, n = len(a) - 1, len(b) - 1
        rows = [[0] * i + a + [0] * (n - 1 - i) for i in range(n)]
        rows += [[0] * i + b + [0] * (m - 1 - i) for i in range(m)]
        return sympy.Poly(sympy.expand(sympy.Matrix(rows).det()), y)

    A = BiPoly({(0, 1): F(1), (1, 0): F(1)})                  # z + y
    B = BiPoly({(0, 3): F(1), (1, 1): F(-1), (0, 0): F(2)})   # z^3 - y z + 2
    assert resultant_z(A, B) == UniPoly([F(2), F(0), F(1), F(-1)], "y")
    rng = random.Random(5)

    def rnd(d):  # degree d in z with a constant leading coefficient, deg_y <= 2
        terms = {(i, j): F(rng.randint(-3, 3)) for i in range(3) for j in range(d)}
        terms[(0, d)] = F(rng.randint(1, 3))
        return BiPoly(terms)

    for lo, hi in [(A, B)] + [(rnd(1), rnd(3)) for _ in range(5)]:
        ref = sylvester_det(_sympy_bipoly(lo)[0], _sympy_bipoly(hi)[0])
        assert list(resultant_z(lo, hi).coeffs) == [F(int(c)) for c in reversed(ref.all_coeffs())]


def test_point_equality_cross_towers():
    _, a1 = adjoin_root(QQ, UniPoly([F(-2), F(0), F(1)], "x"), name="sqrt(2)")
    _, a2 = adjoin_root(QQ, UniPoly([F(-8), F(0), F(0), F(0), F(1)], "x"))
    # a2 = 8^(1/4), a2^2 = 2*sqrt(2) / sqrt(2) ... check alg_eq on equal values
    assert alg_eq(a1 * a1, 2)
    assert alg_eq(a2 * a2 / 2, a1)


def test_render_text():
    _, r2 = adjoin_root(QQ, UniPoly([F(-2), F(0), F(1)], "x"), name="sqrt(2)")
    B = BiPoly({(0, 2): F(1), (1, 1): F(-1), (3, 0): F(-3, 2), (2, 0): 1 + r2,
                (0, 0): F(-1)})
    assert B.render() == "-3/2*y^3 + (1 + sqrt(2))*y^2 - y*(y') + (y')^2 - 1"
    B = BiPoly({(1, 0): F(1), (0, 1): -r2, (0, 0): 1 + r2})
    assert B.render() == "y - sqrt(2)*(y') + (1 + sqrt(2))"
    assert BiPoly({(2, 1): F(1, 3), (0, 0): F(-3, 2)}).render() == "1/3*y^2*(y') - 3/2"
    assert BiPoly({}).render() == "0"
    p = UniPoly([F(-2), F(0), F(1)], "y")
    assert p.render() == "-2 + y^2" and repr(p) == "UniPoly(-2 + y^2)"
    assert p.render("z") == "-2 + z^2"
    assert UniPoly([1 + r2, F(-1)], "y").render() == "(1 + sqrt(2)) - y"
