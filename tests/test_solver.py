import io
import random
from fractions import Fraction as F

import pytest

from aodesolve.errors import (ExtensionLimitExceeded, InsufficientPrecision,
                              NotOrderSuitable, PointNotOnCurve, SeparantVanishes)
from aodesolve.factor import adjoin_root, alg_eq, all_roots
from aodesolve.numbers import QQ, AlgebraicNumber, inv
from aodesolve.parsing import parse_polynomial
from aodesolve.poly import BiPoly, UniPoly, separant, univariate_slice
from aodesolve.puiseux import Place, places_at
from aodesolve.series import TruncatedSeries, compose, derivative
from aodesolve import cli, factor, poly, puiseux, solver
from aodesolve.solver import (classify, constant_solutions, critical_set,
                              direct_method, is_order_suitable, reparametrize,
                              solve_at)
from conftest import make_ex3


def series(coeffs, trunc=None):
    return TruncatedSeries([F(c) if isinstance(c, int) else c for c in coeffs],
                           trunc)


def test_order_suitable_examples(ex1, ex2):
    p = places_at(ex1, (F(-1), F(0)), 6)[0]
    assert is_order_suitable(p)          # (t^2 - 1, t - t^3)
    for p in places_at(ex1, (F(0), F(0)), 6):
        assert not is_order_suitable(p)  # (t, +-t + ...)
    pls = places_at(ex2, (F(0), F(1)), 8)
    suitable = [p for p in pls if is_order_suitable(p)]
    assert len(suitable) == 2 and all(p.e == 1 for p in suitable)
    for p in pls:
        if p.e == 2:
            assert not is_order_suitable(p)


def test_reparametrize_example1(ex1):
    p = places_at(ex1, (F(-1), F(0)), 8)[0]
    S = reparametrize(p, 5)
    assert [S[i] for i in range(6)] == [0, F(1, 2), 0, F(-1, 24), 0, F(1, 240)]


def test_reparametrize_constant_case():
    # place (2t, 1): a(S) = t solves A'(S) S' = B(S)
    place = Place((F(0), F(1)), 1, F(2), series([1]), QQ, 1)
    S = reparametrize(place, 4)
    assert [S[i] for i in range(5)] == [0, F(1, 2), 0, 0, 0]


def test_reparametrize_example2_p3(ex2):
    pls = places_at(ex2, (F(0), F(1)), 10)
    p3 = [p for p in pls if p.e == 1 and p.B[2] == F(1, 2)][0]
    S = reparametrize(p3, 5)
    assert [S[i] for i in range(6)] == [0, 1, 0, F(1, 6), 0, F(17, 240)]


def test_reparametrize_minimal_precision(ex1, ex2):
    # the i-th coefficient of S needs only b_s..b_{s+i-1}: a place
    # truncated to exactly that many certified coefficients suffices
    for Fp, c, n in [(ex1, (F(-1), F(0)), 6), (ex2, (F(0), F(1)), 5)]:
        for p in places_at(Fp, c, n + Fp.deg_z + 2):
            if not is_order_suitable(p):
                continue
            k = p.e - 1
            full = reparametrize(p, n)
            trimmed = Place(p.center, p.e, p.lam, p.B.truncate(k + n - 1),
                            p.tower, p.center_multiplicity)
            assert reparametrize(trimmed, n) == full


def test_reparametrize_errors(ex1):
    p = places_at(ex1, (F(0), F(0)), 6)[0]
    with pytest.raises(NotOrderSuitable):
        reparametrize(p, 4)
    good = places_at(ex1, (F(-1), F(0)), 4)[0]
    # B is exact here, so precision is never insufficient; build a
    # truncated stand-in to exercise the error
    stub = Place((F(-1), F(0)), 2, F(1), good.B.truncate(2), QQ, 1)
    with pytest.raises(InsufficientPrecision):
        reparametrize(stub, 9)


def test_order_suitable_insufficient_precision():
    # a place whose B is certified only through coefficients that all
    # vanish cannot decide ord(B) at a center with c1 = 0
    blind = Place((F(0), F(0)), 2, F(1),
                  TruncatedSeries([F(0), F(0)], 1), QQ, 1)
    with pytest.raises(InsufficientPrecision):
        is_order_suitable(blind)


def test_solve_at_example1(ex1):
    assert solve_at(ex1, (F(0), F(0)), 5) == []
    sols = solve_at(ex1, (F(-1), F(0)), 4)
    assert len(sols) == 1
    s = sols[0].series
    assert s.trunc == 4
    assert [s[i] for i in range(5)] == [F(-1), 0, F(1, 4), 0, F(-1, 24)]


def test_solve_at_example1_generic_point(ex1):
    _, r2 = adjoin_root(QQ, UniPoly([F(-2), F(0), F(1)], "x"), name="sqrt(2)")
    sols = solve_at(ex1, (QQ.rational(1), r2), 3)
    assert len(sols) == 1
    s = sols[0].series
    assert s[0] == 1 and alg_eq(s[1], r2)
    assert s[2] == F(5, 4)
    assert alg_eq(s[3], 2 * r2 / 3)


def test_solve_at_example2(ex2):
    sols = solve_at(ex2, (F(0), F(1)), 5)
    assert len(sols) == 2
    got = sorted(tuple(_fr(s.series[i]) for i in range(6)) for s in sols)
    assert got == [
        (F(0), F(1), F(0), F(-1, 6), F(0), F(-1, 240)),
        (F(0), F(1), F(0), F(1, 6), F(0), F(17, 240)),
    ]


def _fr(c):
    return c.as_fraction() if hasattr(c, "as_fraction") else F(c)


def test_solve_at_example3():
    for m in range(1, 5):
        assert solve_at(make_ex3(m), (F(0), F(1)), 5) == []


def test_solve_at_off_curve(ex1):
    assert solve_at(ex1, (F(2), F(1)), 4) == []


def test_solve_at_plain_int_coordinates(ex1):
    sols = solve_at(ex1, (-1, 0), 4)
    assert len(sols) == 1
    assert _fr(sols[0].series[2]) == F(1, 4)


def test_solution_initial_conditions_and_residual(ex1, ex2):
    cases = [(ex1, (F(-1), F(0)), 4), (ex2, (F(0), F(1)), 5)]
    for Fp, c, n in cases:
        for sol in solve_at(Fp, c, n):
            s = sol.series
            assert s[0] == sol.center.y and s[1] == sol.center.z
            resid = Fp.eval_series(s, derivative(s))
            o = resid.order()
            assert o is None or o >= s.trunc


def test_solve_determinism(ex2):
    a = solve_at(ex2, (F(0), F(1)), 5)
    b = solve_at(ex2, (F(0), F(1)), 5)
    assert [s.series for s in a] == [t.series for t in b]


def test_subfield_closure(ex1):
    # Rem 1to1: solving at (1, sqrt2) stays inside Q(sqrt2)
    _, r2 = adjoin_root(QQ, UniPoly([F(-2), F(0), F(1)], "x"), name="sqrt(2)")
    sols = solve_at(ex1, (QQ.rational(1), r2), 6)
    for s in sols:
        for c in s.series.coeffs:
            if isinstance(c, AlgebraicNumber):
                assert c.tower.is_prefix_of(r2.tower) or c.tower == r2.tower


def test_constant_solutions(ex1, ex2):
    vals = sorted(c.as_fraction() for c in constant_solutions(ex1))
    assert vals == [F(-1), F(0)]
    consts = constant_solutions(ex2)
    assert len(consts) == 6
    for a in consts:
        assert (a**6 + 3 * a**4 - a**2 + 1).is_zero()
    line = BiPoly({(0, 1): F(1), (1, 0): F(-1)})
    assert [c.as_fraction() for c in constant_solutions(line)] == [F(0)]


def test_critical_set_example1(ex1):
    crit = critical_set(ex1)
    pts = sorted((p.y.as_fraction(), p.z.as_fraction()) for p, _ in crit)
    assert pts == [(F(-1), F(0)), (F(0), F(0))]
    for _, tags in crit:
        assert tags == {"on_z_axis", "separant_zero"}


def test_critical_set_example2(ex2):
    crit = critical_set(ex2)
    assert len(crit) == 11
    axis_only = [(p, tags) for p, tags in crit if tags == {"on_z_axis"}]
    assert len(axis_only) == 6  # the (alpha, 0) points: not solution places
    rec = crit.to_json()
    flagged = [r for r in rec if r.get("non_solution_place")]
    assert len(flagged) == 6


def test_critical_set_line():
    line = BiPoly({(0, 1): F(1), (1, 0): F(-1)})
    crit = critical_set(line)
    assert len(crit) == 1
    p, tags = crit.points[0]
    assert p.y == 0 and p.z == 0 and tags == {"on_z_axis"}


def test_remark_axis_points_no_solutions(ex2):
    # V(F, z) \ V(F, S_F): not solution places, but constants exist there
    crit = critical_set(ex2)
    consts = constant_solutions(ex2)
    for p, tags in crit:
        if tags == {"on_z_axis"}:
            assert solve_at(ex2, p, 4) == []
            assert any(alg_eq(c, p.y) for c in consts)


def test_classify_example1(ex1):
    cl = classify(ex1)
    assert set(cl.buckets) == {0}
    assert [(p.y.as_fraction(), p.z.as_fraction()) for p in cl.buckets[0]] \
        == [(F(0), F(0))]
    assert [(p.y.as_fraction(), p.z.as_fraction()) for p in cl.a1_extra] \
        == [(F(-1), F(0))]
    assert len(cl.complement_of) == 2
    assert sorted(c.as_fraction() for c in cl.constants) == [F(-1), F(0)]


def test_classify_example2(ex2):
    cl = classify(ex2)
    assert set(cl.buckets) == {0, 2}
    assert len(cl.buckets[0]) == 10
    a2 = cl.buckets[2]
    assert len(a2) == 1 and a2[0].y == 0 and a2[0].z == 1
    assert cl.a1_extra == []
    assert len(cl.constants) == 6


def test_classify_counts_places_without_solving(ex2, monkeypatch):
    # the count at a critical point is its number of order-suitable
    # places: classify never reparametrizes or solves
    def unused(*args, **kwargs):
        raise AssertionError("classify must not solve")

    monkeypatch.setattr(solver, "solve_at", unused)
    monkeypatch.setattr(solver, "reparametrize", unused)
    cl = classify(ex2)
    assert {k: len(v) for k, v in cl.buckets.items()} == {0: 10, 2: 1}
    assert cl.buckets[2][0].y == 0 and cl.buckets[2][0].z == 1
    assert cl.a1_extra == [] and len(cl.complement_of) == 11


def test_classify_takes_no_truncation_order(ex1):
    with pytest.raises(TypeError):
        classify(ex1, 4)


def test_classify_line():
    line = BiPoly({(0, 1): F(1), (1, 0): F(-1)})
    cl = classify(line)
    assert set(cl.buckets) == {0}
    assert [(p.y.as_fraction(), p.z.as_fraction()) for p in cl.buckets[0]] \
        == [(F(0), F(0))]


def test_direct_method_matches_solve(ex1):
    _, r2 = adjoin_root(QQ, UniPoly([F(-2), F(0), F(1)], "x"), name="sqrt(2)")
    d = direct_method(ex1, (QQ.rational(1), r2), 3)
    s = solve_at(ex1, (QQ.rational(1), r2), 3)[0]
    assert d.series.agrees_with(s.series)


def test_direct_method_errors(ex1):
    with pytest.raises(SeparantVanishes):
        direct_method(ex1, (F(0), F(0)), 4)
    with pytest.raises(SeparantVanishes):
        direct_method(make_ex3(1), (F(0), F(1)), 4)
    with pytest.raises(PointNotOnCurve):
        direct_method(ex1, (F(3), F(1)), 4)


def test_corollary_sufficient_fast_path(ex1):
    # simple points with c1 != 0 off the z-ramification locus: the
    # unique place is order-suitable
    rng = random.Random(5)
    found = 0
    while found < 5:
        c0 = F(rng.randint(1, 6), rng.randint(1, 3))
        fz = univariate_slice(ex1, "z", c0)
        for z0, _ in all_roots(fz, QQ):
            if z0.is_rational() and z0.as_fraction() == 0:
                continue
            sf = separant(ex1).eval(_lift(c0, z0), z0)
            if sf.is_zero():
                continue
            pls = places_at(ex1, (_lift(c0, z0), z0), 5)
            assert len(pls) == 1
            assert is_order_suitable(pls[0])
            found += 1
            break


def _lift(c0, z0):
    return AlgebraicNumber(z0.tower, 0, F(c0))


def test_main_theorem_iff(ex1, ex2):
    # order-suitable <=> reparametrization produces a genuine solution
    for Fp, c in [(ex1, (F(0), F(0))), (ex1, (F(-1), F(0))), (ex2, (F(0), F(1)))]:
        for p in places_at(Fp, c, 10):
            if is_order_suitable(p):
                S = reparametrize(p, 6)
                ytilde = (S ** p.e).scale(p.lam) + TruncatedSeries.constant(p.center[0])
                resid = Fp.eval_series(ytilde, derivative(ytilde))
                o = resid.order()
                assert o is None or o >= 5
            else:
                with pytest.raises(NotOrderSuitable):
                    reparametrize(p, 6)


def _structure(places):
    """The place structure in place_id order; solve takes its ids from
    the order-1 sort."""
    return [(p.place_id, p.e, p.ord_B(), is_order_suitable(p), p.center_multiplicity,
             p.B[0], p.B[1]) for p in places]


_STRUCTURE_ODES = [
    "(y')^2 - y^3 - y^2",
    "((y'-1)^2 + y^2)^3 - 4*(y'-1)^2*y^2",
    "((y')^2 - 2)^2 - 3*y",
    "(y')^2 - y^7 - 1",
    "y' - y^6",  # ord(B) = 6 at (0, 0), more than mult + deg_z + 2 = 4
    "(y')^3 - y^2",
]


@pytest.mark.parametrize("ode", _STRUCTURE_ODES)
def test_place_structure_does_not_depend_on_the_order(ode):
    # the Newton polygons fix e, ord(B) and the multiplicity, so order 1
    # reads the same places, in the same order, as order 10, and
    # classify counts them
    Fp = parse_polynomial(ode)
    cls = classify(Fp)
    count = {id(p): k for k, pts in cls.buckets.items() for p in pts}
    count.update((id(p), 1) for p in cls.a1_extra)
    for p in cls.complement_of:
        deep = places_at(Fp, (p.y, p.z), 10)
        assert _structure(places_at(Fp, (p.y, p.z), 1)) == _structure(deep)
        assert count[id(p)] == sum(map(is_order_suitable, deep))


def test_certified_lams_have_no_root_in_their_tower(monkeypatch):
    # _normalize skips the search for a root of x^e - target/lam only
    # where the residue certificate holds; at every critical point of the
    # structure curves, that search must then find nothing
    real, certified = factor.no_eth_root, []

    def recording(c, e, tower):
        if real(c, e, tower):
            certified.append((c, e, tower))
            return True
        return False

    monkeypatch.setattr(factor, "no_eth_root", recording)
    for ode in _STRUCTURE_ODES:
        Fp = parse_polynomial(ode)
        for p in critical_set(Fp).plain_points():
            places_at(Fp, (p.y, p.z), 1)
    # Ex2 and (y')^2 - y^7 - 1 have irrational lams, ((y')^2 - 2)^2 - 3y rational ones
    assert len(certified) == 26
    for c, e, tower in certified:
        pol = UniPoly([-c] + [F(0)] * (e - 1) + [F(1)], "x")
        assert factor.roots_in_tower(pol, tower) == []


def test_each_critical_point_is_translated_once(ex2, monkeypatch):
    real, calls = poly.translate, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    def refuse(*args):
        raise RuntimeError("multiplicity_at translates F a second time")

    monkeypatch.setattr(poly, "translate", counting)
    monkeypatch.setattr(puiseux, "translate", counting)
    monkeypatch.setattr(poly, "multiplicity_at", refuse)
    assert "multiplicity_at" not in vars(solver)
    # the 11 critical points of Ex2 fall into 3 Galois orbits (1 + 4 + 6),
    # and classify reads one point of each
    cls = classify(ex2)
    assert len(cls.complement_of) == 11
    assert len(calls) == 3
    del calls[:]
    assert len(solve_at(ex2, (F(0), F(1)), 4)) == 2
    assert len(calls) == 1
    del calls[:]
    # solve without --order takes its default order from its one pass
    assert cli.main(["solve", "--ode", "((y'-1)^2 + y^2)^3 - 4*(y'-1)^2*y^2",
                     "--at", "0, 1"], out=io.StringIO()) == 0
    assert len(calls) == 1


def test_classify_takes_no_jobs_keyword(ex1):
    with pytest.raises(TypeError):
        classify(ex1, jobs=2)


def test_degree_cap_reaches_cross_tower_lifting(ex1):
    # sqrt(2) and sqrt(3) come from two towers; one tower holding both
    # has degree 4
    _, a = adjoin_root(QQ, UniPoly([F(-2), F(0), F(1)]))
    _, b = adjoin_root(QQ, UniPoly([F(-3), F(0), F(1)]))
    with pytest.raises(ExtensionLimitExceeded):
        places_at(ex1, (a, b), 3, cap=2)
    with pytest.raises(ExtensionLimitExceeded):
        solve_at(ex1, (a, b), 3, cap=2)
    assert solve_at(ex1, (a, b), 3, cap=4) == []  # not a point of the curve


@pytest.mark.parametrize("ode, points", [
    ("(y')^2 - y^3 - y^2", None),
    ("((y')^2 - y)^2 - y^5", None),
    ("((y')^2 - y)^2 - y^7", None),
    ("(y')^3 - y^2", None),
    ("((y')^2 - 2)^2 - 3*y", None),
    # the two solutions at (0, 0) live in sibling towers
    ("((y')^2 + y)^2 - y^5*(y'+1)", [(F(0), F(0))]),
])
def test_solve_at_returns_one_solution_per_counted_place(ode, points):
    """At every critical point, solve_at returns as many solutions as
    classify counts there, whatever the requested order."""
    Fp = parse_polynomial(ode)
    cl = classify(Fp)
    count = {id(p): i for i, pts in cl.buckets.items() for p in pts}
    count.update((id(p), 1) for p in cl.a1_extra)
    crit = [p for p in cl.complement_of if points is None or (p.y, p.z) in points]
    assert crit
    for p in crit:
        for n in (1, 3, None):
            sols = solve_at(Fp, (p.y, p.z), n)
            assert len(sols) == count[id(p)], (ode, p, n)
            for i, a in enumerate(sols):
                assert not any(a.series.agrees_with(b.series) for b in sols[i + 1:])


def test_solve_at_extends_the_places_of_one_pass_at_order_1(monkeypatch):
    # the places read at order 1 extend their own tails to order 25 and
    # give the solutions that a pass at order 60 gives
    Fp = parse_polynomial("((y')^2 - y)^2 - y^7")
    deep = [p for p in places_at(Fp, (F(0), F(0)), 60) if is_order_suitable(p)]
    want = [solver._solution(p, 25).to_json() for p in deep]
    real, calls = solver.places_at, []

    def counting(F_, c, n, cap):
        calls.append(n)
        return real(F_, c, n, cap=cap)

    monkeypatch.setattr(solver, "places_at", counting)
    assert [s.to_json() for s in solve_at(Fp, (F(0), F(0)), 25)] == want
    assert calls == [1]


def test_solve_at_raises_when_solutions_never_separate(ex1, monkeypatch):
    # a places_at that lists each place twice must not hang solve_at
    real = solver.places_at
    monkeypatch.setattr(solver, "places_at", lambda *a, **kw: real(*a, **kw) * 2)
    with pytest.raises(ArithmeticError, match="still coincide past order 13"):
        solve_at(ex1, (F(3), F(6)), 4)


def _reparametrize_by_compose(place, n):
    """Oracle: each s_{i+1} from a full compose of psi with S to order i,
    the per-coefficient recursion that the power table replaced."""
    k = place.e - 1
    scale = inv(place.lam * place.e)
    psi = [place.B[k + j] * scale for j in range(n)]
    s = [F(0), psi[0]]
    for i in range(1, n):
        coeff = compose(TruncatedSeries.exact(psi[:i + 1]), TruncatedSeries(s, i))[i]
        s.append(coeff * F(1, i + 1))
    return TruncatedSeries(s[:n + 1], n)


def test_reparametrize_matches_the_compose_recursion(ex1, ex2):
    """The power table gives the compose recursion's coefficients, scalar
    types included (so the JSON is the same), up to order 30 on the
    ramified place of Ex1 at (-1, 0), on Ex2's p3 at the singular center
    (0, 1) and on the unramified place of Ex1 at (1, sqrt(2))."""
    _, r2 = adjoin_root(QQ, UniPoly([F(-2), F(0), F(1)], "x"), name="sqrt(2)")
    p3 = [p for p in places_at(ex2, (F(0), F(1)), 31) if p.e == 1 and p.B[2] == F(1, 2)]
    cases = [places_at(ex1, (F(-1), F(0)), 31)[0], p3[0],
             places_at(ex1, (QQ.rational(1), r2), 31)[0]]
    assert [p.e for p in cases] == [2, 1, 1]
    for place in cases:
        oracle = _reparametrize_by_compose(place, 30)
        for n in (1, 2, 3, 5, 10, 20, 30):
            assert reparametrize(place, n).to_json() == oracle.truncate(n).to_json()


def test_solve_at_matches_direct_method_at_order_40(ex1):
    """A deep solution at a regular point equals the separant recursion."""
    _, r2 = adjoin_root(QQ, UniPoly([F(-2), F(0), F(1)], "x"), name="sqrt(2)")
    (sol,) = solve_at(ex1, (QQ.rational(1), r2), 40)
    direct = direct_method(ex1, (QQ.rational(1), r2), 40)
    assert sol.series.trunc == 40
    assert sol.series.to_json() == direct.series.to_json()
