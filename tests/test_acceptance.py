"""Acceptance suite: one criterion per section, exact tolerances.

Each criterion prints a PASS/FAIL line (run with -s to see them).  Two
sub-assertions are knowingly red; the accompanying *_derived tests pin
the values forced by the defining equations themselves and pass.  See
the project notes for the analysis.
"""

import random
import time
from fractions import Fraction as F

from aodesolve.factor import adjoin_root, alg_eq, all_roots
from aodesolve.numbers import QQ, AlgebraicNumber
from aodesolve.poly import (BiPoly, UniPoly, multiplicity_at, separant,
                            univariate_slice, validate_input)
from aodesolve.puiseux import places_at, tangent_vector
from aodesolve.series import TruncatedSeries, compose, derivative, invert
from aodesolve.solver import (classify, critical_set, direct_method,
                              is_order_suitable, solve_at)
from conftest import make_ex1, make_ex2, make_ex3


def _report(name):
    class _Ctx:
        def __enter__(self):
            self.t0 = time.monotonic()
            return self

        def __exit__(self, exc_type, exc, tb):
            dt = time.monotonic() - self.t0
            status = "PASS" if exc_type is None else "FAIL"
            print("ACCEPTANCE %s: %s (%.1fs)" % (name, status, dt))
            return False

    return _Ctx()


def _fr(c):
    return c.as_fraction() if hasattr(c, "as_fraction") else F(c)


def _coeffs(s, n):
    return tuple(_fr(s[i]) for i in range(n + 1))


# ---------------------------------------------------------------------------
# criterion 1: Example 1 end-to-end, exact, <= 5 s


def test_criterion_1_example1_end_to_end():
    with _report("criterion 1 (Example 1 end-to-end)") as ctx:
        ex1 = make_ex1()
        crit = critical_set(ex1)
        pts = sorted((p.y.as_fraction(), p.z.as_fraction()) for p, _ in crit)
        assert pts == [(F(-1), F(0)), (F(0), F(0))]

        assert solve_at(ex1, (F(0), F(0)), 5) == []

        sols = solve_at(ex1, (F(-1), F(0)), 4)
        assert len(sols) == 1
        assert _coeffs(sols[0].series, 4) == (F(-1), 0, F(1, 4), 0, F(-1, 24))

        _, r2 = adjoin_root(QQ, UniPoly([F(-2), F(0), F(1)], "x"), name="sqrt(2)")
        sols2 = solve_at(ex1, (QQ.rational(1), r2), 3)
        assert len(sols2) == 1
        s = sols2[0].series
        assert s[0] == 1 and s[2] == F(5, 4)
        assert alg_eq(s[1], r2) and alg_eq(s[3], 2 * r2 / 3)

        cl = classify(ex1)
        assert set(cl.buckets) == {0}
        assert [(p.y.as_fraction(), p.z.as_fraction()) for p in cl.buckets[0]] \
            == [(F(0), F(0))]
        assert len(cl.complement_of) == 2  # A1 = complement descriptor
        assert sorted(c.as_fraction() for c in cl.constants) == [F(-1), F(0)]

        assert time.monotonic() - ctx.t0 <= 5.0


# ---------------------------------------------------------------------------
# criterion 2: Example 2 end-to-end, exact, <= 120 s (whole criterion)

_T2_START = [None]


def test_criterion_2_places_and_suitability():
    _T2_START[0] = time.monotonic()
    with _report("criterion 2a (Example 2 places at (0,1))"):
        ex2 = make_ex2()
        pls = places_at(ex2, (F(0), F(1)), 61)
        assert len(pls) == 4
        _, r2 = adjoin_root(QQ, UniPoly([F(-2), F(0), F(1)], "x"), name="sqrt(2)")
        ram = {p for p in pls if p.e == 2}
        unram = {p for p in pls if p.e == 1}
        assert len(ram) == 2 and len(unram) == 2
        # printed: (t^2, 1 + sqrt2 t + O(t^2)) and (-t^2, 1 - sqrt2 t + O(t^2))
        for p in ram:
            assert _fr(p.lam) in (F(1), F(-1))
            expect = r2 if p.lam == 1 else -r2
            assert alg_eq(p.B[1], expect)
            assert not is_order_suitable(p)
        # printed: (t, 1 +- t^2/2 +- 3t^4/16 + O(t^6)); exactly these suitable
        for p in unram:
            sign = 1 if _fr(p.B[2]) > 0 else -1
            assert _coeffs(p.B, 4) == (F(1), 0, sign * F(1, 2), 0, sign * F(3, 16))
            assert is_order_suitable(p)


def test_criterion_2_solutions_spec_literal():
    """Spec pins solve_at((0,1), 5) = {t + t^3/6 + 17t^5/240,
    t - t^3/6 + 17t^5/240}.  The second value contradicts the defining
    equation (see the derived test below); this stays red on purpose."""
    with _report("criterion 2b (Example 2 solution literals, as specified)"):
        ex2 = make_ex2()
        sols = solve_at(ex2, (F(0), F(1)), 5)
        got = sorted(_coeffs(s.series, 5) for s in sols)
        spec_pinned = sorted([
            (F(0), F(1), F(0), F(1, 6), F(0), F(17, 240)),
            (F(0), F(1), F(0), F(-1, 6), F(0), F(17, 240)),
        ])
        assert got == spec_pinned


def test_example2_solutions_derived_values():
    """Independent derivation: substituting y = t + a t^3 + b t^5 into
    the ODE forces 1 - 36 a^2 = 0 at t^6 and 3(9a^2 + 2a) = 72a^3 +
    120ab at t^8, so b = 17/240 for a = 1/6 but b = -1/240 for
    a = -1/6.  A residual check distinguishes the two candidates."""
    ex2 = make_ex2()
    sols = solve_at(ex2, (F(0), F(1)), 5)
    got = sorted(_coeffs(s.series, 5) for s in sols)
    assert got == sorted([
        (F(0), F(1), F(0), F(1, 6), F(0), F(17, 240)),
        (F(0), F(1), F(0), F(-1, 6), F(0), F(-1, 240)),
    ])
    # the printed candidate fails the order-9 residual test; ours passes
    mine = TruncatedSeries([F(0), F(1), F(0), F(-1, 6), F(0), F(-1, 240)], 9)
    paper = TruncatedSeries([F(0), F(1), F(0), F(-1, 6), F(0), F(17, 240)], 9)
    r_mine = ex2.eval_series(mine, derivative(mine))
    r_paper = ex2.eval_series(paper, derivative(paper))
    assert r_mine.order_lower_bound() >= 9
    assert r_paper.order() == 8


def test_criterion_2_classification_and_constants():
    with _report("criterion 2c (Example 2 classification)"):
        ex2 = make_ex2()
        cl = classify(ex2)
        assert set(cl.buckets) == {0, 2}
        a0 = cl.buckets[0]
        assert len(a0) == 10
        on_axis = [p for p in a0 if p.z.is_rational() and p.z.as_fraction() == 0]
        assert len(on_axis) == 6
        for p in on_axis:
            a = p.y
            assert (a**6 + 3 * a**4 - a**2 + 1).is_zero()
        off_axis = [p for p in a0 if p not in on_axis]
        assert len(off_axis) == 4
        for p in off_axis:
            assert (81 * p.y * p.y - 48).is_zero()       # y = 4 beta / 9
            assert (27 * p.z * p.z - 54 * p.z + 19).is_zero()
        a2 = cl.buckets[2]
        assert len(a2) == 1 and a2[0].y == 0 and a2[0].z == 1
        consts = cl.constants
        assert len(consts) == 6
        for a in consts:
            assert (a**6 + 3 * a**4 - a**2 + 1).is_zero()
        assert time.monotonic() - _T2_START[0] <= 120.0


# ---------------------------------------------------------------------------
# criterion 3: Example 3 family, <= 10 s total


def test_criterion_3_example3_solutions():
    with _report("criterion 3a (Example 3 solution sets)") as ctx:
        for m in range(1, 5):
            assert solve_at(make_ex3(m), (F(0), F(1)), 5) == []
        assert time.monotonic() - ctx.t0 <= 10.0


def test_criterion_3_tangent_spec_literal():
    """Spec (quoting the paper) claims the tangent at (0,1) is (0, .);
    the tangent formula on the place (t^2, 1 + t^(2m+1)) gives (1, 0)
    since ord(A - c0) = 2 < 2m+1 = ord(B - c1).  Red on purpose."""
    with _report("criterion 3b (Example 3 tangent literal, as specified)"):
        for m in range(1, 5):
            pls = places_at(make_ex3(m), (F(0), F(1)), 2 * m + 3)
            assert len(pls) == 1
            tv = tangent_vector(pls[0])
            assert _fr(tv[0]) == 0 and not _fr(tv[1]) == 0


def test_example3_tangent_matches_formula():
    """The tangent of the unique place at (0,1), by the order-comparison
    formula, is (1, 0): parallel to the y-axis."""
    for m in range(1, 5):
        G = make_ex3(m)
        pls = places_at(G, (F(0), F(1)), 2 * m + 3)
        assert len(pls) == 1
        p = pls[0]
        assert p.e == 2 and p.ord_B() == 2 * m + 1
        tv = tangent_vector(p)
        assert _fr(tv[0]) == 1 and _fr(tv[1]) == 0


# ---------------------------------------------------------------------------
# criterion 4: direct method vs place method, >= 20 points, order 10


def _random_valid_cubics(count, rng):
    out = []
    while len(out) < count:
        terms = {}
        for i in range(4):
            for j in range(4 - i):
                if rng.random() < 0.65:
                    terms[(i, j)] = F(rng.randint(-3, 3))
        B = BiPoly(terms)
        if B.deg_z < 1 or B.total_degree() < 2:
            continue
        try:
            validate_input(B)
        except Exception:
            continue
        out.append(B)
    return out


def _sample_points(Fp, want, rng):
    pts = []
    sf = separant(Fp)
    for _ in range(60):
        c0 = F(rng.randint(-6, 6), rng.randint(1, 3))
        fz = univariate_slice(Fp, "z", c0)
        if fz.degree < 1:
            continue
        try:
            roots = all_roots(fz, QQ)
        except Exception:
            continue
        for z0, _m in roots:
            if z0.is_zero():
                continue
            c0l = AlgebraicNumber(z0.tower, 0, c0)
            if sf.eval(c0l, z0).is_zero():
                continue
            pts.append((c0l, z0))
            if len(pts) >= want:
                return pts
    return pts


def test_criterion_4_oracle_equivalence():
    with _report("criterion 4 (direct method vs place method)"):
        rng = random.Random(2024)
        curves = [make_ex1(), make_ex2()] + [make_ex3(m) for m in range(1, 5)]
        curves += _random_valid_cubics(5, rng)
        total = 0
        for Fp in curves:
            want = 3 if Fp.deg_y >= 6 else 2
            for c0, z0 in _sample_points(Fp, want, rng):
                d = direct_method(Fp, (c0, z0), 10)
                sols = solve_at(Fp, (c0, z0), 10)
                assert len(sols) == 1
                s = sols[0].series
                for k in range(11):
                    diff = d.series[k] - s[k]
                    assert diff == 0 or diff.is_zero()
                total += 1
        assert total >= 20
        print("  compared %d points" % total)


# ---------------------------------------------------------------------------
# criterion 5: residual suite over the objects of criteria 1-4


def test_criterion_5_residual_suite():
    with _report("criterion 5 (residual suite)"):
        ex1, ex2 = make_ex1(), make_ex2()
        place_cases = [
            (ex1, (F(0), F(0)), 9), (ex1, (F(-1), F(0)), 9),
            (ex2, (F(0), F(1)), 12),
            (make_ex3(1), (F(0), F(1)), 6), (make_ex3(2), (F(0), F(1)), 8),
        ]
        for Fp, c, n in place_cases:
            for p in places_at(Fp, c, n):
                resid = Fp.eval_series(p.A, p.B)
                assert resid.order_lower_bound() > n
        _, r2 = adjoin_root(QQ, UniPoly([F(-2), F(0), F(1)], "x"), name="sqrt(2)")
        sol_cases = [
            (ex1, (F(-1), F(0)), 4), (ex1, (QQ.rational(1), r2), 6),
            (ex2, (F(0), F(1)), 5),
        ]
        for Fp, c, n in sol_cases:
            for sol in solve_at(Fp, c, n):
                s = sol.series
                resid = Fp.eval_series(s, derivative(s))
                assert resid.order_lower_bound() >= s.trunc


# ---------------------------------------------------------------------------
# criterion 6: multiplicity bookkeeping by two independent routes


def test_criterion_6_multiplicity_bookkeeping():
    with _report("criterion 6 (multiplicity bookkeeping)"):
        ex1, ex2 = make_ex1(), make_ex2()
        assert multiplicity_at(ex1, (F(0), F(0))) == 2
        assert sum(p.order for p in places_at(ex1, (F(0), F(0)), 9)) == 2
        assert multiplicity_at(ex2, (F(0), F(1))) == 4
        assert sum(p.order for p in places_at(ex2, (F(0), F(1)), 8)) == 4


# ---------------------------------------------------------------------------
# criterion 7: randomized algebra property suites, >= 1000 cases each


def test_criterion_7_property_suites():
    with _report("criterion 7 (algebra property suites)") as ctx:
        rng = random.Random(99)
        t, r2 = adjoin_root(QQ, UniPoly([F(-2), F(0), F(1)], "x"), name="sqrt(2)")
        t2, r3 = adjoin_root(t, UniPoly([F(-3), F(0), F(1)], "x"), name="sqrt(3)")
        r2l = AlgebraicNumber(t2, r2.level, r2.rep)

        def relt():
            return (F(rng.randint(-4, 4), rng.randint(1, 3))
                    + F(rng.randint(-4, 4), rng.randint(1, 3)) * r2l
                    + F(rng.randint(-4, 4), rng.randint(1, 3)) * r3)

        for _ in range(1000):
            x, y, z = relt(), relt(), relt()
            assert (x + y) + z == x + (y + z)
            assert x * (y + z) == x * y + x * z
            if not x.is_zero():
                assert x * x.inverse() == 1

        def rseries(min_len=1):
            n = rng.randint(min_len, 5)
            return TruncatedSeries(
                [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n + 1)],
                rng.choice([None, n + rng.randint(0, 2)]))

        for _ in range(1000):
            a, b, c = rseries(), rseries(), rseries()
            assert (a * b).agrees_with(b * a)
            assert ((a + b) * c).agrees_with(a * c + b * c)

        for _ in range(1000):
            na = rng.randint(1, 4)
            a = TruncatedSeries([F(rng.randint(-5, 5), rng.randint(1, 3))
                                 for _ in range(na + 1)], na)
            ns = rng.randint(2, 4)
            s = TruncatedSeries([F(0)] + [F(rng.randint(-5, 5), rng.randint(1, 3))
                                          for _ in range(ns)], ns)
            lhs = derivative(compose(a, s))
            rhs = compose(derivative(a), s) * derivative(s)
            assert lhs.agrees_with(rhs)

        for _ in range(1000):
            n = rng.randint(0, 5)
            coeffs = [F(rng.choice([1, 2, 3, -1, -2]))] \
                + [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
            a = TruncatedSeries(coeffs, n)
            inv = invert(a)
            one = a * inv
            assert one[0] == 1 and all(one[i] == 0 for i in range(1, one.trunc + 1))
            assert invert(inv).agrees_with(a)
            ident = TruncatedSeries([F(0), F(1)], None)
            assert compose(a, ident) == a

        assert time.monotonic() - ctx.t0 <= 60.0


# ---------------------------------------------------------------------------
# optional numeric demonstration (excluded from pass/fail): residual
# decay of the order-12 truncation of Example 1's solution at (-1, 0)


def test_optional_convergence_demo():
    ex1 = make_ex1()
    sols = solve_at(ex1, (F(-1), F(0)), 12)
    s = sols[0].series
    coeffs = [float(_fr(c)) for c in s.coeffs]

    def yval(tv):
        return sum(c * tv**k for k, c in enumerate(coeffs))

    def ypval(tv):
        return sum(k * c * tv**(k - 1) for k, c in enumerate(coeffs) if k)

    print("\n  |F(y~, y~')| for the order-12 truncation (analytic claim demo):")
    for tv in (0.25, 0.1, 0.05, 0.01):
        yv, yp = yval(tv), ypval(tv)
        resid = abs(yp * yp - yv**3 - yv**2)
        print("    |t| = %-5g -> residual %.3e" % (tv, resid))
