import random
from fractions import Fraction as F

import pytest

from aodesolve.errors import (CommonComponent, NoDerivative, NotIrreducible,
                              PointNotOnCurve, TrivialLinear)
from aodesolve.factor import adjoin_root, alg_eq
from aodesolve.numbers import QQ
from aodesolve.poly import (BiPoly, UniPoly, multiplicity_at,
                            resultant_y, resultant_z, ruppert_factor_count, separant,
                            solve_system, translate, univariate_slice,
                            validate_input)
from aodesolve.series import TruncatedSeries
from conftest import make_ex1, make_ex2


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


def test_ruppert_counts(ex1, ex2):
    assert ruppert_factor_count(ex1) == 1
    assert ruppert_factor_count(ex2) == 1
    assert ruppert_factor_count(BiPoly({(0, 1): F(1), (1, 0): F(-1)})) == 1
    assert ruppert_factor_count(BiPoly({(0, 2): F(1), (2, 0): F(-2)})) == 2
    assert ruppert_factor_count(BiPoly({(0, 2): F(1), (4, 0): F(-2)})) == 2
    assert ruppert_factor_count(BiPoly({(0, 2): F(1), (3, 0): F(-1)})) == 1


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
        ]
        if not A.is_zero():  # translate evaluates, and the zero F evaluates to 0
            pairs.append((translate(A, c0, c1), sympy.Poly(shifted, y, z, domain="QQ")))
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

    def counted(A, B, var):
        calls.append(var)
        return real(A, B, var)

    monkeypatch.setattr(poly, "resultant_lists", counted)
    assert len(solve_system(ex2, separant(ex2))) > 0
    assert calls == ["y"]


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
        for mine, var, other in ((resultant_z(A, Bp), z, y),
                                 (resultant_y(A, Bp), y, z)):
            if A.deg_y < 1 or Bp.deg_y < 1:
                continue
            ref = sympy.resultant(sympy.Poly(ea, var), sympy.Poly(eb, var))
            if ref == 0:
                assert mine.is_zero()
            else:
                refp = sympy.Poly(ref, other)
                refc = [F(int(sympy.numer(c)), int(sympy.denom(c)))
                        for c in reversed(refp.all_coeffs())]
                assert list(mine.coeffs) == refc
        done += 1


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
