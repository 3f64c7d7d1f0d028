"""Exact uni/bivariate polynomial algebra over tower elements.

UniPoly is an exact TruncatedSeries with a variable name; it backs
slices, resultants and factorization.  BiPoly is the defining
polynomial F(y, z) of the associated curve (z stands for y'), an exact
TruncatedSeries in z whose coefficients are UniPoly in y (K[y][z]), so
both share the series ring arithmetic, equality and hash.  Scalars are
Fractions or AlgebraicNumbers; mixed arithmetic goes through the
operator overloads on AlgebraicNumber.
"""

from fractions import Fraction
from functools import lru_cache

from .errors import (CommonComponent, NoDerivative, NotIrreducible,
                     PointNotOnCurve, TrivialLinear)
from .numbers import DEFAULT_DEGREE_CAP, QQ, AlgebraicNumber, as_alg, inv, lift, rational
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


class BiPoly(TruncatedSeries):
    """F(y, z) in K[y][z]: an exact TruncatedSeries in z whose
    coefficients (columns) are UniPoly in y.  Built from the sparse
    terms {(deg_y, deg_z): c}; the ring arithmetic, equality and hash
    are the series ones."""

    __slots__ = ()

    def __init__(self, terms):
        cols = []
        for (i, j), c in terms.items():
            if c == 0:
                continue
            cols.extend([] for _ in range(j + 1 - len(cols)))
            col = cols[j]
            col.extend([_F0] * (i + 1 - len(col)))
            col[i] = c
        TruncatedSeries.__init__(self, [UniPoly(col, "y") for col in cols])

    @classmethod
    def from_columns(cls, cols):
        """The polynomial sum cols[j] * z^j; a scalar column is a constant."""
        F = cls.__new__(cls)
        TruncatedSeries.__init__(F, [c if isinstance(c, UniPoly) else UniPoly([c], "y")
                                     for c in cols])
        return F

    def _like(self, coeffs, trunc):
        return BiPoly.from_columns(coeffs) if trunc is None else TruncatedSeries(coeffs, trunc)

    @classmethod
    def variable(cls, which):
        if which == "y":
            return cls({(1, 0): _F1})
        return cls({(0, 1): _F1})

    @property
    def terms(self):
        """The sparse view {(deg_y, deg_z): c} of the nonzero coefficients."""
        return {(i, j): c for j, col in enumerate(self.coeffs)
                for i, c in enumerate(col.coeffs) if c != 0}

    def is_zero(self):
        return not self.coeffs

    def coeff(self, i, j):
        return self.coeffs[j][i] if j < len(self.coeffs) else _F0

    @property
    def deg_y(self):
        return max((col.degree for col in self.coeffs), default=-1)

    @property
    def deg_z(self):
        return len(self.coeffs) - 1

    def total_degree(self):
        return max((col.degree + j for j, col in enumerate(self.coeffs) if col.coeffs),
                   default=-1)

    def min_total_degree(self):
        return min((col.order() + j for j, col in enumerate(self.coeffs) if col.coeffs),
                   default=-1)

    def support(self):
        return sorted(self.terms)

    # perfbench/tracer.py times TruncatedSeries.__mul__ as the series.mul
    # row; binding the name here keeps BiPoly products out of it
    __mul__ = __rmul__ = TruncatedSeries.__mul__

    diff_z = _derivative  # the series rule in z; _like keeps the BiPoly

    def eval(self, y, z):
        """F(y, z) by Horner's rule in z over the columns; y and z may be
        scalars, TruncatedSeries or BiPoly.  The zero polynomial
        evaluates to 0."""
        acc = _F0
        for cy in reversed(self.coeffs):
            acc = acc * z + cy.eval(y)
        return acc

    # series callers use this name, and perfbench/tracer.py times it as
    # a row of its own
    eval_series = eval

    def columns(self, var):
        """var="y": the coefficients of z^0, z^1, ... as UniPoly in y
        (the series coefficients); var="z": those of y^0, y^1, ... as
        UniPoly in z."""
        if var == "y":
            return list(self.coeffs)
        if var != "z":
            raise ValueError("axis must be 'y' or 'z'")
        rows = [[_F0] * len(self.coeffs) for _ in range(self.deg_y + 1)]
        for j, col in enumerate(self.coeffs):
            for i, c in enumerate(col.coeffs):
                rows[i][j] = c
        return [UniPoly(row, "z") for row in rows]

    def rational_coeffs(self):
        return all(not isinstance(c, AlgebraicNumber) or c.is_rational()
                   for c in self.terms.values())

    def render(self):
        def mono(i, j):
            ys = "" if not i else "y" if i == 1 else "y^%d" % i
            zs = "" if not j else "(y')" if j == 1 else "(y')^%d" % j
            return "*".join(m for m in (ys, zs) if m)

        terms = self.terms
        keys = sorted(terms, key=lambda k: (k[0] + k[1], k[0], k[1]), reverse=True)
        return join_terms((str(terms[k]), mono(*k)) for k in keys)

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
    return resultant_lists(F.coeffs, G.coeffs, "y")


def resultant_y(F, G):
    return resultant_lists(F.columns("z"), G.columns("z"), "z")


def _content_z(F):
    """gcd over K[y] of the z-coefficients."""
    g = UniPoly([], "y")
    for cy in F.coeffs:
        if cy.is_zero():
            continue
        g = cy.monic() if g.is_zero() else uni_gcd(g, cy)
        if g.is_constant():
            break
    return g


def _shared_factor(F, G):
    """(whether F and G share a nonconstant factor, Res_z(F, G) when the
    test needed it, else None)."""
    if F.is_zero() or G.is_zero():
        other = G if F.is_zero() else F
        return other.total_degree() > 0 or other.is_zero(), None
    if F.total_degree() == 0 or G.total_degree() == 0:
        return False, None
    if F.deg_z == 0 and G.deg_z == 0:
        return not uni_gcd(F.coeffs[0], G.coeffs[0]).is_constant(), None
    if F.deg_z == 0:
        return not uni_gcd(F.coeffs[0], _content_z(G)).is_constant(), None
    if G.deg_z == 0:
        return not uni_gcd(G.coeffs[0], _content_z(F)).is_constant(), None
    cf, cg = _content_z(F), _content_z(G)
    if not cf.is_constant() and not cg.is_constant():
        if not uni_gcd(cf, cg).is_constant():
            return True, None
    ry = resultant_z(F, G)
    return ry.is_zero(), ry


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

    shared, ry = _shared_factor(F, G)
    if shared:
        raise CommonComponent("system has a common nonconstant factor")
    if G.is_zero():
        raise CommonComponent("zero polynomial shares every component")
    if G.deg_y <= 0 and G.deg_z <= 0:
        return []
    if F.deg_y <= 0 and F.deg_z <= 0:
        return []

    if ry is None:
        # one input free of z: its z^0 column gives the y-coordinates
        ry = F.coeffs[0] if F.deg_z == 0 else G.coeffs[0]
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
