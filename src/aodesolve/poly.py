"""Exact uni/bivariate polynomial algebra over tower elements.

BiPoly is the defining polynomial F(y, z) of the associated curve
(z stands for y'); UniPoly backs slices, resultants and factorization.
Scalars are Fractions or AlgebraicNumbers; mixed arithmetic goes
through the operator overloads on AlgebraicNumber.
"""

from fractions import Fraction
from functools import lru_cache

from .errors import (CommonComponent, NoDerivative, NotIrreducible,
                     PointNotOnCurve, TrivialLinear)
from .numbers import (DEFAULT_DEGREE_CAP, QQ, AlgebraicNumber, as_alg, inv, lift, power,
                      rational)
from .series import TruncatedSeries, derivative as _derivative, join_terms

_F0 = Fraction(0)
_F1 = Fraction(1)


# ---------------------------------------------------------------------------
# univariate polynomials


class UniPoly(TruncatedSeries):
    """Dense univariate polynomial, ascending coefficients: an exact
    TruncatedSeries with a variable name, division and Horner eval."""

    __slots__ = ("var",)

    def __init__(self, coeffs, var="x"):
        TruncatedSeries.__init__(self, coeffs)
        self.var = var

    def _like(self, coeffs, trunc):
        return UniPoly(coeffs, self.var) if trunc is None else TruncatedSeries(coeffs, trunc)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # perfbench/tracer.py times UniPoly.__mul__ as a row of its own, so the
    # name is bound here; __rmul__ keeps scalar * polynomial out of series.mul
    __mul__ = __rmul__ = TruncatedSeries.__mul__

    def divmod(self, other):
        """Division over a field of scalars."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly([], self.var), self
        lc_inv = inv(other.lc())
        quot = [_F0] * (dq + 1)
        db = other.degree
        for i in range(dq, -1, -1):
            c = rem[db + i]
            if c == 0:
                continue
            q = c * lc_inv
            quot[i] = q
            for j, b in enumerate(other.coeffs):
                rem[i + j] = rem[i + j] - q * b
        return UniPoly(quot, self.var), UniPoly(rem[:db], self.var)

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ArithmeticError("division is not exact")
        return q

    def monic(self):
        if self.is_zero() or self.lc() - 1 == 0:
            return self
        return self.scale(inv(self.lc()))

    derivative = _derivative  # the series rule; _like keeps the UniPoly

    def eval(self, x):
        """p(x) by Horner's rule; x may be a scalar, a UniPoly, a BiPoly
        or a TruncatedSeries.  The zero polynomial evaluates to 0."""
        acc = _F0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def render(self, var=None):
        return TruncatedSeries.render(self, var or self.var)

    def __repr__(self):
        return "UniPoly(%s)" % self.render()


def uni_gcd(f, g):
    """Monic gcd over a field."""
    a, b = f, g
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    if a.is_zero():
        return a
    return a.monic()


def squarefree_part(f):
    d = f.derivative()
    if d.is_zero():
        return f.monic()
    g = uni_gcd(f, d)
    if g.is_constant():
        return f.monic()
    return f.exact_div(g).monic()


def squarefree_decomposition(f):
    """Yun's algorithm (characteristic zero): [(factor, multiplicity)]."""
    out = []
    f = f.monic()
    if f.is_constant():
        return out
    df = f.derivative()
    a = uni_gcd(f, df)
    b = f.exact_div(a)
    c = df.exact_div(a)
    d = c - b.derivative()
    m = 1
    while True:
        if b.is_constant():
            break
        a = uni_gcd(b, d)
        if not a.is_constant():
            out.append((a.monic(), m))
        b = b.exact_div(a)
        c = d.exact_div(a)
        d = c - b.derivative()
        m += 1
    return out


# ---------------------------------------------------------------------------
# subresultant PRS resultant
#
# The polynomials are plain ascending lists whose coefficients are
# UniPoly in ``var`` (the UFD K[var]); the resultant is a UniPoly.


def _ptrim(p):
    n = len(p)
    while n and p[n - 1].is_zero():
        n -= 1
    return p[:n]


def _prem(A, B):
    """Pseudo-remainder of A by B: rem(lc(B)^(degA-degB+1) * A, B)."""
    dA, dB = len(A) - 1, len(B) - 1
    lcB = B[-1]
    R = list(A)
    for i in range(dA - dB, -1, -1):
        c = R[dB + i]
        R = [lcB * r for r in R]
        if not c.is_zero():
            for j in range(dB + 1):
                R[i + j] = R[i + j] - c * B[j]
        R = R[:dB + i]
    return _ptrim(R)


def resultant_lists(A, B, var):
    """Resultant via the subresultant PRS (Cohen, Alg. 3.3.7)."""
    A = _ptrim(list(A))
    B = _ptrim(list(B))
    if not A or not B:
        return UniPoly([], var)
    s = 1
    if len(A) < len(B):
        if ((len(A) - 1) * (len(B) - 1)) % 2 == 1:
            s = -s
        A, B = B, A
    one = UniPoly([_F1], var)
    g = one
    h = one
    while True:
        dA, dB = len(A) - 1, len(B) - 1
        if dB == 0:
            break
        delta = dA - dB
        if dA % 2 == 1 and dB % 2 == 1:
            s = -s
        R = _prem(A, B)
        if not R:
            return UniPoly([], var)
        A, B = B, R
        denom = g * h ** delta
        B = [c.exact_div(denom) for c in B]
        g = A[-1]
        # Cohen: h = h^(1-delta) g^delta, which leaves h as it is at delta 0
        if delta == 1:
            h = g
        elif delta > 1:
            h = (g ** delta).exact_div(h ** (delta - 1))
    dA = len(A) - 1
    b = B[0]
    if dA == 0:
        return one if s == 1 else -one
    res = b ** dA
    if dA > 1:
        res = res.exact_div(h ** (dA - 1))
    return res if s == 1 else -res


# ---------------------------------------------------------------------------
# bivariate polynomials


class BiPoly:
    """Sparse bivariate polynomial in y and z; keys are (deg_y, deg_z)."""

    __slots__ = ("terms", "_key")

    def __init__(self, terms):
        clean = {}
        for (i, j), c in (terms.items() if isinstance(terms, dict) else terms):
            if c != 0:
                if (i, j) in clean:
                    c = clean[(i, j)] + c
                    if c == 0:
                        del clean[(i, j)]
                        continue
                clean[(i, j)] = c
        self.terms = clean
        self._key = tuple(sorted(clean.items(), key=lambda kv: kv[0]))

    @classmethod
    def variable(cls, which):
        if which == "y":
            return cls({(1, 0): _F1})
        return cls({(0, 1): _F1})

    def is_zero(self):
        return not self.terms

    def coeff(self, i, j):
        return self.terms.get((i, j), _F0)

    @property
    def deg_y(self):
        return max((i for i, _ in self.terms), default=-1)

    @property
    def deg_z(self):
        return max((j for _, j in self.terms), default=-1)

    def total_degree(self):
        return max((i + j for i, j in self.terms), default=-1)

    def min_total_degree(self):
        return min((i + j for i, j in self.terms), default=-1)

    def support(self):
        return sorted(self.terms.keys())

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __add__(self, other):
        if not isinstance(other, BiPoly):
            other = BiPoly({(0, 0): other})
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, _F0) + c
        return BiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, BiPoly):
            out = {}
            for (i1, j1), c1 in self.terms.items():
                for (i2, j2), c2 in other.terms.items():
                    k = (i1 + i2, j1 + j2)
                    out[k] = out.get(k, _F0) + c1 * c2
            return BiPoly(out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, s):
        return BiPoly({k: c * s for k, c in self.terms.items()})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("nonnegative integer powers only")
        return power(self, n, BiPoly({(0, 0): _F1}))

    def diff_z(self):
        return BiPoly({(i, j - 1): j * c for (i, j), c in self.terms.items() if j})

    def eval(self, y, z):
        """F(y, z) by Horner's rule in z over the y-columns; y and z may
        be scalars, TruncatedSeries or BiPoly.  The zero polynomial
        evaluates to 0."""
        acc = _F0
        for cy in reversed(self.columns("y")):
            acc = acc * z + cy.eval(y)
        return acc

    # series callers use this name, and perfbench/tracer.py times it as
    # a row of its own
    eval_series = eval

    def columns(self, var):
        """var="y": the coefficients of z^0, z^1, ... as UniPoly in y;
        var="z": those of y^0, y^1, ... as UniPoly in z."""
        if var not in ("y", "z"):
            raise ValueError("axis must be 'y' or 'z'")
        flip = var == "z"
        cols = [[] for _ in range((self.deg_y if flip else self.deg_z) + 1)]
        for key, c in self.terms.items():
            i, j = key[::-1] if flip else key  # degree in var, column
            col = cols[j]
            col.extend([_F0] * (i + 1 - len(col)))
            col[i] = c
        return [UniPoly(col, var) for col in cols]

    def rational_coeffs(self):
        return all(not isinstance(c, AlgebraicNumber) or c.is_rational()
                   for c in self.terms.values())

    def render(self):
        def mono(i, j):
            ys = "" if not i else "y" if i == 1 else "y^%d" % i
            zs = "" if not j else "(y')" if j == 1 else "(y')^%d" % j
            return "*".join(m for m in (ys, zs) if m)

        keys = sorted(self.terms, key=lambda k: (k[0] + k[1], k[0], k[1]), reverse=True)
        return join_terms((str(self.terms[k]), mono(*k)) for k in keys)

    def __repr__(self):
        return "BiPoly(%s)" % self.render()


# ---------------------------------------------------------------------------
# spec operations on the defining polynomial


def separant(F):
    """dF/dz, the separant of F(y, y')."""
    if F.deg_z < 1:
        raise NoDerivative("input does not involve y'")
    return F.diff_z()


def translate(F, c0, c1):
    """F(y + c0, z + c1), exact: F evaluated at the shifted variables."""
    return F.eval(BiPoly.variable("y") + c0, BiPoly.variable("z") + c1)


def univariate_slice(F, axis, v):
    """Fix one variable: axis="y" fixes z=v giving a poly in y,
    axis="z" fixes y=v giving a poly in z."""
    # the sum relabels the result to the axis, and is 0 for the zero F
    return UniPoly([], axis) + UniPoly(F.columns(axis)).eval(v)


def multiplicity_at(F, point):
    """Minimal total degree after translating the point to the origin."""
    c0, c1 = point
    if F.eval(c0, c1) != 0:
        raise PointNotOnCurve("F does not vanish at the given point")
    G = translate(F, c0, c1)
    return G.min_total_degree()


def resultant_z(F, G):
    """Resultant eliminating z; a UniPoly in y."""
    return resultant_lists(F.columns("y"), G.columns("y"), "y")


def resultant_y(F, G):
    return resultant_lists(F.columns("z"), G.columns("z"), "z")


def _content_z(F):
    """gcd over K[y] of the z-coefficients."""
    g = UniPoly([], "y")
    for cy in F.columns("y"):
        if cy.is_zero():
            continue
        g = cy.monic() if g.is_zero() else uni_gcd(g, cy)
        if g.is_constant():
            break
    return g


def have_common_component(F, G):
    if F.is_zero() or G.is_zero():
        other = G if F.is_zero() else F
        return other.total_degree() > 0 or other.is_zero()
    if F.total_degree() == 0 or G.total_degree() == 0:
        return False
    if F.deg_z == 0 and G.deg_z == 0:
        return not uni_gcd(F.columns("y")[0], G.columns("y")[0]).is_constant()
    if F.deg_z == 0:
        return not uni_gcd(F.columns("y")[0], _content_z(G)).is_constant()
    if G.deg_z == 0:
        return not uni_gcd(G.columns("y")[0], _content_z(F)).is_constant()
    cf, cg = _content_z(F), _content_z(G)
    if not cf.is_constant() and not cg.is_constant():
        if not uni_gcd(cf, cg).is_constant():
            return True
    return resultant_z(F, G).is_zero()


# ---------------------------------------------------------------------------
# points and system solving


class Point:
    """A point of the affine (y, z)-plane with tower coordinates."""

    __slots__ = ("y", "z")

    def __init__(self, y, z):
        self.y = as_alg(y)
        self.z = as_alg(z)

    def __iter__(self):
        return iter((self.y, self.z))

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        from . import factor
        return factor.alg_eq(self.y, other.y) and factor.alg_eq(self.z, other.z)

    # equality is exact and cross-tower, so points are not hashable;
    # deduplicate with list scans
    __hash__ = None

    def sort_key(self):
        return self.y.sort_key() + self.z.sort_key()

    def __repr__(self):
        return "(%s, %s)" % (self.y, self.z)

    def to_json(self):
        return [self.y.to_json(), self.z.to_json()]


def solve_system(F, G, cap=DEFAULT_DEGREE_CAP):
    """All common affine zeros of F and G over the algebraic closure.

    Resultant in each variable plus exact back-substitution; every
    coordinate lives in a (possibly extended) tower.  Deterministic
    order by numeric enclosures.
    """
    from . import factor

    if have_common_component(F, G):
        raise CommonComponent("system has a common nonconstant factor")
    if G.is_zero():
        raise CommonComponent("zero polynomial shares every component")
    if G.deg_y <= 0 and G.deg_z <= 0:
        return []
    if F.deg_y <= 0 and F.deg_z <= 0:
        return []

    ry = resultant_z(F, G) if F.deg_z > 0 and G.deg_z > 0 else None
    if ry is None or ry.is_zero():
        # one input free of z: y-coordinates come from gcd-style data
        fy = F.columns("y")[0] if F.deg_z == 0 else None
        gy = G.columns("y")[0] if G.deg_z == 0 else None
        base = fy if fy is not None else gy
        ry = base
    points = []
    for y0, _m in factor.all_roots(ry, QQ, cap):
        t = y0.tower
        fz = univariate_slice(F, "z", y0)
        gz = univariate_slice(G, "z", y0)
        if fz.is_zero() and gz.is_zero():
            raise CommonComponent("vertical line is a common component")
        if fz.is_zero():
            h = squarefree_part(gz)
        elif gz.is_zero():
            h = squarefree_part(fz)
        else:
            h = uni_gcd(fz, gz)
        if h.is_constant():
            continue
        for z0, _m2 in factor.all_roots(h, t, cap):
            points.append(Point(lift(y0, z0.tower), z0))
    points.sort(key=lambda p: p.sort_key())
    return points


# ---------------------------------------------------------------------------
# input validation


def validate_input(F):
    """Accept F iff it is an admissible AODE: irreducible over the
    algebraic closure, deg_z >= 1 and not of the form z - lambda."""
    return _validate_cached(F)


@lru_cache(maxsize=64)
def _validate_cached(F):
    if not F.rational_coeffs():
        raise ValueError("validate_input expects rational coefficients")
    if F.is_zero() or F.deg_z < 1:
        raise NoDerivative("F must involve y'")
    if F.deg_y <= 0 and F.deg_z == 1:
        raise TrivialLinear("F is of the form y' - lambda")
    if F.deg_y <= 0:
        # univariate in z with deg >= 2: always splits over an extension
        from . import factor
        p = UniPoly([rational(c) for c in univariate_slice(F, "z", 0).coeffs], "x")
        _, root = factor.adjoin_root(QQ, p)
        witness = BiPoly({(0, 1): _F1, (0, 0): -root})
        raise NotIrreducible("F factors over an algebraic extension",
                             witness=witness)
    _check_q_irreducible(F)
    r = ruppert_factor_count(F)
    if r != 1:
        raise NotIrreducible(
            "F is irreducible over Q but splits into %d factors over the "
            "algebraic closure" % r, witness=None)
    return F


def _check_q_irreducible(F):
    import sympy

    y, z = sympy.symbols("y z")
    expr = sympy.Integer(0)
    for (i, j), c in F.terms.items():
        q = rational(c)
        expr += sympy.Rational(q.numerator, q.denominator) * y**i * z**j
    _, factors = sympy.factor_list(sympy.Poly(expr, y, z))
    nontrivial = [(p, e) for p, e in factors if p.total_degree() > 0]
    if len(nontrivial) > 1 or (nontrivial and nontrivial[0][1] > 1):
        wp = nontrivial[0][0]
        witness = _from_sympy(wp, y, z)
        raise NotIrreducible("F is reducible over Q", witness=witness)


def _from_sympy(p, y, z):
    import sympy

    terms = {}
    pd = sympy.Poly(p, y, z)
    for (i, j), c in pd.terms():
        terms[(int(i), int(j))] = Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
    return BiPoly(terms)


def ruppert_factor_count(F):
    """Number of absolutely irreducible factors of a squarefree F with
    deg_y >= 1, deg_z >= 1, via the rank of the Ruppert/Gao system

        F * (dG/dz - dH/dy) = G * dF/dz - H * dF/dy

    with deg_y G <= m-1, deg_z G <= n, deg_y H <= m, deg_z H <= n-1.
    The solution space has dimension equal to the factor count.
    """
    m, n = F.deg_y, F.deg_z
    g_idx = [(i, j) for i in range(m) for j in range(n + 1)]
    h_idx = [(i, j) for i in range(m + 1) for j in range(n)]
    cols = len(g_idx) + len(h_idx)
    rows = {}

    f = {k: rational(c) for k, c in F.terms.items()}

    def add(row_key, col, val):
        if val == 0:
            return
        r = rows.setdefault(row_key, {})
        r[col] = r.get(col, _F0) + val
        if r[col] == 0:
            del r[col]

    fz = {(i, j - 1): j * c for (i, j), c in f.items() if j}
    fy = {(i - 1, j): i * c for (i, j), c in f.items() if i}

    for col, (gi, gj) in enumerate(g_idx):
        # F * dG/dz  with G = y^gi z^gj
        if gj:
            for (fi, fj), c in f.items():
                add((fi + gi, fj + gj - 1), col, c * gj)
        # - G * dF/dz
        for (fi, fj), c in fz.items():
            add((fi + gi, fj + gj), col, -c)
    off = len(g_idx)
    for col, (hi, hj) in enumerate(h_idx):
        # - F * dH/dy  with H = y^hi z^hj
        if hi:
            for (fi, fj), c in f.items():
                add((fi + hi - 1, fj + hj), off + col, -c * hi)
        # + H * dF/dy
        for (fi, fj), c in fy.items():
            add((fi + hi, fj + hj), off + col, c)

    matrix = [r for r in rows.values() if r]
    rank = _sparse_rank(matrix, cols)
    return cols - rank


def _sparse_rank(rows, ncols):
    """Gaussian elimination over Fraction on sparse rows."""
    pivots = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            if c in pivots:
                prow, pval = pivots[c]
                factor = row[c] / pval
                for cc, vv in prow.items():
                    nv = row.get(cc, _F0) - factor * vv
                    if nv == 0:
                        row.pop(cc, None)
                    else:
                        row[cc] = nv
            else:
                pivots[c] = (row, row[c])
                rank += 1
                break
    return rank
