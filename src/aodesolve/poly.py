"""Exact uni/bivariate polynomial algebra over tower elements.

UniPoly is an exact TruncatedSeries with a variable name; it backs
slices, resultants and factorization.  BiPoly is the defining
polynomial F(y, z) of the associated curve (z stands for y'), an exact
TruncatedSeries in z whose coefficients are UniPoly in y (K[y][z]), so
both share the series ring arithmetic, equality and hash.  Scalars are
Fractions or AlgebraicNumbers; mixed arithmetic goes through the
operator overloads on AlgebraicNumber.
"""

import math
from fractions import Fraction
from functools import lru_cache, reduce

from .errors import (CommonComponent, NoDerivative, NotIrreducible,
                     PointNotOnCurve, TrivialLinear)
from .numbers import DEFAULT_DEGREE_CAP, QQ, AlgebraicNumber, as_alg, inv, lift, rational
from .series import TruncatedSeries, derivative as _derivative, join_terms

_F0 = Fraction(0)
_F1 = Fraction(1)
_P61 = 2 ** 61 - 1   # the prime of ruppert_factor_count's modular rank


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

    def eval(self, x, trunc=None):
        """p(x) by Horner's rule; x may be a scalar, a UniPoly, a BiPoly
        or a TruncatedSeries.  The zero polynomial evaluates to 0 * x.
        With trunc, each step is cut to that order, so no intermediate
        of a series x is certified past it."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
            if trunc is not None and acc.trunc is not None and acc.trunc > trunc:
                acc = acc.truncate(trunc)
        return acc

    def render(self, var=None):
        return TruncatedSeries.render(self, var or self.var)

    def __repr__(self):
        return "UniPoly(%s)" % self.render()


def uni_gcd(f, g):
    """Monic gcd over a field."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic()  # the zero polynomial stays as it is


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
    """Resultant via the subresultant PRS (Cohen, Alg. 3.3.7), and the
    PRS member of degree 1 as [c0, c1], or None when the chain has none.
    Each member is +-a subresultant, so U A + V B with U, V in K[var][z]."""
    A = _ptrim(list(A))
    B = _ptrim(list(B))
    if not A or not B:
        return UniPoly([], var), None
    s = 1
    if len(A) < len(B):
        if ((len(A) - 1) * (len(B) - 1)) % 2 == 1:
            s = -s
        A, B = B, A
    one = UniPoly([_F1], var)
    g = one
    h = one
    s1 = None
    while True:
        dA, dB = len(A) - 1, len(B) - 1
        if dB == 1:
            s1 = B
        if dB == 0:
            break
        delta = dA - dB
        if dA % 2 == 1 and dB % 2 == 1:
            s = -s
        R = _prem(A, B)
        if not R:
            return UniPoly([], var), s1
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
    res = one
    if dA > 0:
        res = B[0] ** dA
        if dA > 1:
            res = res.exact_div(h ** (dA - 1))
    return (res if s == 1 else -res), s1


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
        evaluates to 0 * z."""
        acc = 0 * z
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
    # the sum relabels the result to the axis, also the 0 * v of the zero F
    return UniPoly([], axis) + UniPoly(F.columns(axis)).eval(v)


def multiplicity_at(F, point):
    """Minimal total degree after translating the point to the origin."""
    c0, c1 = point
    if F.eval(c0, c1) != 0:
        raise PointNotOnCurve("F does not vanish at the given point")
    G = translate(F, c0, c1)
    return G.min_total_degree()


def _content_z(F):
    """gcd over K[y] of the z-coefficients; 0 for the zero F."""
    return reduce(uni_gcd, F.coeffs, UniPoly([], "y"))


# ---------------------------------------------------------------------------
# points and system solving


class Point:
    """A point of the affine (y, z)-plane with tower coordinates."""

    __slots__ = ("y", "z", "_key")

    def __init__(self, y, z):
        self.y = as_alg(y)
        self.z = as_alg(z)
        self._key = None

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
        """The enclosure key of (y, z), computed once: critical_set sorts
        the points that solve_system has sorted."""
        if self._key is None:
            self._key = self.y.sort_key() + self.z.sort_key()
        return self._key

    def __repr__(self):
        return "(%s, %s)" % (self.y, self.z)

    def to_json(self):
        return [self.y.to_json(), self.z.to_json()]


def _s1_root(y0, lc, s1):
    """-c0(y0)/c1(y0) for the PRS member s1 = [c0, c1] of Res_z(A, B)
    with lc = lc_z A; None where s1 is None, lc(y0) = 0 or c1(y0) = 0.
    At a root y0 of Res_z with lc(y0) != 0 the slices share a root, and
    their gcd divides s1(y0) = U(y0) A(y0) + V(y0) B(y0), so it is
    s1(y0) / c1(y0) when that is linear."""
    if s1 is None or lc.eval(y0) == 0:
        return None
    c1 = s1[1].eval(y0)
    return None if c1 == 0 else -s1[0].eval(y0) / c1


def solve_system(F, G, cap=DEFAULT_DEGREE_CAP):
    """All common affine zeros of F and G over the algebraic closure.

    A shared factor free of z divides both z-contents; any other one
    makes Res_z(F, G) vanish, which is skipped when F or G is a nonzero
    polynomial free of z.  The y-coordinates are the roots of Res_z, or
    of the z^0 column of the input free of z.  The z-coordinates at y0
    are the roots of the gcd of the two slices there: z + c0(y0)/c1(y0)
    from the degree-1 member of Res_z's subresultant chain where
    _s1_root allows it, computed once per factor of Res_z since
    conjugate y0 share its rep, else Euclid on the slices.  A constant
    resultant or gcd has no roots.  Every coordinate lives in a
    (possibly extended) tower.  Roots come in factor order, and one
    stable sort by the numeric enclosures of (y, z) orders the points.
    """
    from . import factor

    shared = not uni_gcd(_content_z(F), _content_z(G)).is_constant()
    ry = s1 = None
    if not shared and F.deg_z != 0 and G.deg_z != 0:
        ry, s1 = resultant_lists(F.coeffs, G.coeffs, "y")
        shared = ry.is_zero()
    if shared:
        raise CommonComponent("system has a common nonconstant factor")
    if G.is_zero():
        raise CommonComponent("zero polynomial shares every component")
    if ry is None:
        ry = F.coeffs[0] if F.deg_z == 0 else G.coeffs[0]
    lc = (F if F.deg_z >= G.deg_z else G).coeffs[-1]
    s1_roots = {}   # y0's minimal polynomial (or y0 itself) -> its _s1_root
    points = []
    for y0, _m in factor.roots_by_factor(ry, QQ, cap):
        key = y0.tower.levels[-1].minpoly if y0.level else y0
        if key not in s1_roots:
            s1_roots[key] = _s1_root(y0, lc, s1)
        z0 = s1_roots[key]
        if z0 is not None:
            zs = [AlgebraicNumber(y0.tower, z0.level, z0.rep)]
        else:
            fz = univariate_slice(F, "z", y0)
            gz = univariate_slice(G, "z", y0)
            if fz.is_zero() and gz.is_zero():
                raise CommonComponent("vertical line is a common component")
            # a zero slice leaves the other one made monic; roots come once each
            zs = [z for z, _m2 in factor.roots_by_factor(uni_gcd(fz, gz), y0.tower, cap)]
        points += [Point(lift(y0, z.tower), z) for z in zs]
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
    from . import factor

    if not F.rational_coeffs():
        raise ValueError("validate_input expects rational coefficients")
    if F.is_zero() or F.deg_z < 1:
        raise NoDerivative("F must involve y'")
    if F.deg_y <= 0 and F.deg_z == 1:
        raise TrivialLinear("F is of the form y' - lambda")
    if F.deg_y <= 0:
        # univariate in z with deg >= 2: always splits over an extension
        p = UniPoly([rational(c) for c in univariate_slice(F, "z", 0).coeffs], "x")
        _, root = factor.adjoin_root(QQ, p)
        raise NotIrreducible("F factors over an algebraic extension",
                             witness=BiPoly({(0, 1): _F1, (0, 0): -root}))
    # the count is 1 only for a squarefree, absolutely irreducible F
    r = ruppert_factor_count(F)
    if r != 1:
        factors = factor.factor_bivariate_q(F)
        if len(factors) > 1 or factors[0][1] > 1:
            raise NotIrreducible("F is reducible over Q", witness=factors[0][0])
        raise NotIrreducible(
            "F is irreducible over Q but splits into %d factors over the "
            "algebraic closure" % r, witness=None)
    return F


def ruppert_factor_count(F):
    """Number of absolutely irreducible factors of a squarefree F with
    deg_y >= 1, deg_z >= 1, via the rank of the Ruppert/Gao system

        F * (dG/dz - dH/dy) = G * dF/dz - H * dF/dy

    with deg_y G <= m-1, deg_z G <= n, deg_y H <= m, deg_z H <= n-1.
    The solution space has dimension equal to the factor count.  For any
    F it is at least 2 unless F is squarefree and absolutely irreducible:
    F*df/f solves it for each factor f, and F*d(1/f) too when f^2 | F.

    The rank is taken mod 2^61 - 1 first, on F scaled to integers: that
    rank is at most the rank over Q and (F_y, F_z) lies in the kernel,
    so a nullity of 1 mod p proves the count is 1.  Any other nullity is
    recomputed over Fraction.
    """
    m, n = F.deg_y, F.deg_z
    g_idx = [(i, j) for i in range(m) for j in range(n + 1)]
    h_idx = [(i, j) for i in range(m + 1) for j in range(n)]
    cols = len(g_idx) + len(h_idx)
    rows = {}

    den = math.lcm(*(rational(c).denominator for c in F.terms.values()))
    f = {k: int(rational(c) * den) for k, c in F.terms.items()}

    def add(row_key, col, val):
        if val == 0:
            return
        r = rows.setdefault(row_key, {})
        r[col] = r.get(col, 0) + val
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
    if cols - _sparse_rank(matrix, _P61) == 1:
        return 1
    return cols - _sparse_rank(matrix)


def _sparse_rank(rows, p=None):
    """Rank of sparse integer rows by Gaussian elimination over Fraction,
    or over GF(p) when a prime p is given."""
    pivots = {}
    rank = 0
    for row in rows:
        row = ({c: v % p for c, v in row.items() if v % p} if p
               else {c: Fraction(v) for c, v in row.items()})
        while row:
            c = min(row)
            if c in pivots:
                prow, pinv = pivots[c]
                factor = row[c] * pinv % p if p else row[c] * pinv
                for cc, vv in prow.items():
                    nv = row.get(cc, 0) - factor * vv
                    if p:
                        nv %= p
                    if nv == 0:
                        row.pop(cc, None)
                    else:
                        row[cc] = nv
            else:
                pivots[c] = (row, pow(row[c], -1, p) if p else 1 / row[c])
                rank += 1
                break
    return rank
