"""Check CLI outputs against the mathematical contracts, untraced.

Usage: python3 perfbench/verify.py < cases.json

Reads {"cases": [{"argv": [...], "out": "<stdout of the CLI>"}]} from
standard input.  Prints the environment block {python, sympy, mpmath,
ground_types} as one JSON line, then one line {"ok": bool, "why": str}
per case as soon as the case is judged, so a caller that stops waiting
still has the verdicts given so far.

- solve: every solution starts at the input tuple, F(y, y') = O(t^n)
  exactly, and at a regular point there is exactly one solution and it
  agrees with ``direct_method`` (the separant recursion);
- places: every center is on the curve, each place satisfies
  F(A, B) = 0 to its certified order, and the place orders, recomputed
  from A and B, sum to the center's multiplicity;
- critical: every point satisfies F = 0 and z = 0 or S_F = 0, and its
  tags say which.  This is checked twice: with the package's own
  arithmetic, and exactly in sympy over the point's tower Q(t1)(t2)...,
  with F parsed by sympy (``sympy_critical_check``), so that a defect in
  the package's shared arithmetic cannot pass both;
- classify: the listed critical points pass the critical check, every
  bucket and the A1 extras are among them, and every constant c
  satisfies F(c, 0) = 0.
"""

import json
import os
import sys
from fractions import Fraction


def _env():
    import mpmath
    import sympy
    try:
        from sympy.external.gmpy import GROUND_TYPES
    except ImportError:  # older sympy
        from sympy.polys.domains import GROUND_TYPES
    return {"python": sys.version.split()[0], "sympy": sympy.__version__,
            "mpmath": mpmath.__version__, "ground_types": GROUND_TYPES}


class _TowerRing:
    """Q(t1)(t2)... in sympy, from the JSON of a tower: an element is a
    Poly in t_k, ..., t_1 over QQ, reduced modulo the minimal polynomials.
    Each is monic in its own generator, so under lex order they form a
    Groebner basis and the remainder is a normal form: zero exactly when
    the element is zero at every root of the tower, the point's included."""

    def __init__(self, levels):
        import sympy
        self.sympy = sympy
        self.gens = [sympy.Symbol("t%d" % k) for k in range(1, len(levels) + 1)] \
            or [sympy.Symbol("t0")]
        self.order = tuple(reversed(self.gens))
        self.mins = [self.poly(sum(self.expr(c, k) * self.gens[k] ** i
                                   for i, c in enumerate(lev["minpoly"])))
                     for k, lev in enumerate(levels)]

    def expr(self, rep, level):
        if level == 0:
            return self.sympy.Rational(rep)
        t = self.gens[level - 1]
        return sum(self.expr(c, level - 1) * t ** i for i, c in enumerate(rep))

    def poly(self, expr):
        return self.sympy.Poly(expr, *self.order, domain="QQ")

    def element(self, obj):
        return self.poly(self.expr(obj["coeffs"], obj["level"]))

    def reduce(self, f):
        if not self.mins:
            return f
        if len(self.mins) == 1:
            return f.rem(self.mins[0])
        _, r = self.sympy.reduced(f.as_expr(), [m.as_expr() for m in self.mins],
                                  *self.order, order="lex", domain="QQ")
        return self.poly(r)

    def evaluate(self, G, y, z):
        """G(y, z) for a sympy Poly G in two variables, reduced."""
        acc = self.poly(0)
        powers = {}

        def power(v, name, k):
            if (name, k) not in powers:
                powers[name, k] = self.poly(1) if k == 0 else \
                    self.reduce(power(v, name, k - 1) * v)
            return powers[name, k]

        for (i, j), c in G.terms():
            acc += self.reduce(power(y, "y", i) * power(z, "z", j)) * c
        return self.reduce(acc)


def sympy_critical_check(ode, doc):
    """The critical-set contract, exactly, with sympy arithmetic only."""
    import sympy
    y, z = sympy.symbols("y z")
    F = sympy.Poly(sympy.sympify(ode.replace("y'", "z").replace("^", "**")), y, z,
                   domain="QQ")
    S = F.diff(z)
    for rec in doc["critical"]:
        cy, cz = rec["point"]
        ty, tz = cy["tower"], cz["tower"]
        if ty[:len(tz)] != tz and tz[:len(ty)] != ty:
            continue  # unrelated towers: only the package check above applies
        ring = _TowerRing(max(ty, tz, key=len))
        py, pz = ring.element(cy), ring.element(cz)
        if not ring.evaluate(F, py, pz).is_zero:
            return "sympy: point not on the curve"
        axis = ring.reduce(pz).is_zero
        sep = ring.evaluate(S, py, pz).is_zero
        if not (axis or sep):
            return "sympy: point neither on z = 0 nor on S_F = 0"
        if ("on_z_axis" in rec["tags"]) != axis or ("separant_zero" in rec["tags"]) != sep:
            return "sympy: tags %s disagree with the point" % sorted(rec["tags"])
    return None


class Checker:
    def __init__(self):
        from aodesolve import factor, numbers, parsing, poly, series, solver
        self.factor, self.numbers, self.parsing = factor, numbers, parsing
        self.poly, self.series, self.solver = poly, series, solver

    # -- helpers ------------------------------------------------------

    def scalar(self, obj):
        if isinstance(obj, dict):
            return self.numbers.AlgebraicNumber.from_json(obj)
        return Fraction(obj)

    def point(self, pair):
        from aodesolve.puiseux import _unify_coords
        return _unify_coords(self.scalar(pair[0]), self.scalar(pair[1]))

    @staticmethod
    def zero(c):
        return c == 0

    def series_zero_to(self, s, n):
        """s is certified to order >= n and vanishes there."""
        if s.trunc is not None and s.trunc < n:
            return False
        return all(self.zero(s[k]) for k in range(n + 1))

    def order(self, s, c):
        d = s - self.series.TruncatedSeries.constant(c)
        o = d.order()
        if o is None:
            return float("inf") if d.is_zero_series() else None
        return o

    def on_critical_set(self, F, y, z, tags):
        if not self.zero(F.eval(y, z)):
            return "point not on the curve"
        axis = self.zero(z)
        sep = self.zero(self.poly.separant(F).eval(y, z))
        if not (axis or sep):
            return "point neither on z = 0 nor on S_F = 0"
        if tags is not None and (("on_z_axis" in tags) != axis
                                 or ("separant_zero" in tags) != sep):
            return "tags %s disagree with the point" % sorted(tags)
        return None

    # -- commands -----------------------------------------------------

    def check(self, argv, out):
        cmd = argv[0]
        opts = dict(zip(argv[1::2], argv[2::2]))
        F = self.poly.validate_input(self.parsing.parse_polynomial(opts["--ode"]))
        doc = json.loads(out)
        return getattr(self, "check_" + cmd)(F, opts, doc)

    def check_solve(self, F, opts, doc):
        n = int(opts["--order"])
        c0, c1, _ = self.parsing.parse_initial_tuple(opts["--at"])
        regular = not self.zero(self.poly.separant(F).eval(c0, c1))
        sols = doc["solutions"]
        if regular and len(sols) != 1:
            return "%d solutions at a regular point" % len(sols)
        TS = self.series.TruncatedSeries
        for sol in sols:
            y = TS.from_json(sol["series"])
            if y.trunc is None or y.trunc < n:
                return "solution truncated at %s < %d" % (y.trunc, n)
            if not (self.factor.alg_eq(y[0], c0) and self.factor.alg_eq(y[1], c1)):
                return "solution does not start at the input tuple"
            resid = F.eval_series(y, self.series.derivative(y))
            if not self.series_zero_to(resid, y.trunc - 1):
                return "residual F(y, y') is not O(t^%d)" % y.trunc
            if regular:
                center = self.point(sol["center"])
                ref = self.solver.direct_method(F, center, y.trunc).series
                if not all(self.zero(y[k] - ref[k]) for k in range(y.trunc + 1)):
                    return "solution disagrees with direct_method"
        return None

    def check_places(self, F, opts, doc):
        TS = self.series.TruncatedSeries
        for rec in doc["places"]:
            c0, c1 = self.point(rec["center"])
            if not self.zero(F.eval(c0, c1)):
                return "center not on the curve"
            mult = self.poly.multiplicity_at(F, (c0, c1))
            total = 0
            for pl in rec["places"]:
                A, B = TS.from_json(pl["A"]), TS.from_json(pl["B"])
                pc0, pc1 = self.point(pl["center"])
                o = min(self.order(A, pc0), self.order(B, pc1))
                if o is None or o != pl["order"]:
                    return "place order %s, recomputed %s" % (pl["order"], o)
                total += o
                resid = F.eval_series(A, B)
                if resid.trunc is None or not self.series_zero_to(resid, resid.trunc):
                    return "F(A, B) does not vanish to its certified order"
            if total != mult:
                return "place orders sum to %d, multiplicity is %d" % (total, mult)
        return None

    def check_critical(self, F, opts, doc):
        for rec in doc["critical"]:
            y, z = self.point(rec["point"])
            why = self.on_critical_set(F, y, z, rec["tags"])
            if why:
                return why
        return sympy_critical_check(opts["--ode"], doc)

    def check_classify(self, F, opts, doc):
        crit = doc["A1"]["complement_of"]
        for pt in crit:
            y, z = self.point(pt)
            why = self.on_critical_set(F, y, z, None)
            if why:
                return why
        listed = [pt for key, pts in doc.items() if key[:1] == "A" and key != "A1"
                  for pt in pts] + doc["A1"]["extra"]
        if any(pt not in crit for pt in listed):
            return "a classified point is not in the critical set"
        for c in doc["constants"]:
            if not self.zero(F.eval(self.scalar(c), Fraction(0))):
                return "constant %s is not a root of F(y, 0)" % c
        return None


def main():
    sys.path.insert(0, os.path.abspath("src"))
    cases = json.load(sys.stdin)["cases"]
    print(json.dumps(_env()), flush=True)
    checker = Checker()
    for case in cases:
        try:
            why = checker.check(case["argv"], case["out"])
        except Exception as e:  # a verifier crash fails the case, not the run
            why = "verifier raised %s: %s" % (type(e).__name__, str(e)[:200])
        print(json.dumps({"ok": why is None, "why": why or ""}), flush=True)


if __name__ == "__main__":
    main()
