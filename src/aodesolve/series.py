"""Truncated formal power series with certified precision tracking.

A series carries coefficients c_0..c_N and a truncation order N; the
coefficients of degree > N are unknown, never assumed zero.  trunc=None
means the series is exact (a polynomial: all omitted coefficients are
certainly zero).  Arithmetic propagates the largest truncation order
that the inputs actually certify.
"""

from fractions import Fraction

from .errors import InnerNotPositiveOrder, NotAUnit
from .numbers import AlgebraicNumber, inv, power, scalar_json

_F0 = Fraction(0)
_F1 = Fraction(1)


class TruncatedSeries:
    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs, trunc=None):
        coeffs = list(coeffs)
        if trunc is None:
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
        else:
            if trunc < -1:
                raise ValueError("negative truncation")
            coeffs = coeffs[:trunc + 1]
            while len(coeffs) < trunc + 1:
                coeffs.append(_F0)
        self.coeffs = tuple(coeffs)
        self.trunc = trunc

    # -- constructors ---------------------------------------------------

    @classmethod
    def exact(cls, coeffs):
        return cls(coeffs, None)

    @classmethod
    def constant(cls, c):
        return cls([c], None)

    # -- inspection -----------------------------------------------------

    def is_exact(self):
        return self.trunc is None

    def __getitem__(self, k):
        if self.trunc is not None and k > self.trunc:
            raise IndexError("coefficient %d beyond certified order %d" % (k, self.trunc))
        return self.coeffs[k] if k < len(self.coeffs) else _F0

    def known(self, k):
        return self.trunc is None or k <= self.trunc

    def order(self):
        """Index of the first nonzero certified coefficient.

        Returns None when every certified coefficient vanishes: order
        "> trunc" for a truncated series, +infinity for the exact zero.
        """
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    def order_lower_bound(self):
        o = self.order()
        if o is not None:
            return o
        if self.trunc is None:
            return float("inf")  # the exact zero series
        return self.trunc + 1

    def constant_term(self):
        return self[0] if (self.coeffs or self.trunc is not None) else _F0

    def is_zero_series(self):
        return self.trunc is None and not self.coeffs

    def _like(self, coeffs, trunc):
        """A result built from this operand: the subclass keeps exact
        results of its own type (UniPoly keeps its variable)."""
        return TruncatedSeries(coeffs, trunc)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        t = _min_trunc(self.trunc, other.trunc)
        n = max(len(self.coeffs), len(other.coeffs))
        if t is not None:
            n = t + 1
        out = [self[i] + other[i] for i in range(n)]
        return self._like(out, t)

    __radd__ = __add__

    def __neg__(self):
        return self._like([-c for c in self.coeffs], self.trunc)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = _coerce(other)
        a, b = self, other
        if a.is_exact() and b.is_exact():
            t = None
            n = len(a.coeffs) + len(b.coeffs) - 1 if a.coeffs and b.coeffs else 0
        else:
            ta, tb = a.trunc, b.trunc
            oa, ob = a.order_lower_bound(), b.order_lower_bound()
            cands = []
            if ta is not None:
                cands.append(ta + ob)
            if tb is not None:
                cands.append(tb + oa)
            t = min(cands)
            if t == float("inf"):  # multiplying by the exact zero
                t = None
                n = 0
            else:
                n = t + 1
        out = [_F0] * max(n, 0)
        for i, ca in enumerate(a.coeffs):
            if ca == 0 or i >= len(out):
                continue
            for j, cb in enumerate(b.coeffs):
                if i + j >= len(out):
                    break
                if cb == 0:
                    continue
                out[i + j] = out[i + j] + ca * cb
        return self._like(out, t)

    __rmul__ = __mul__

    def scale(self, s):
        return self._like([c * s for c in self.coeffs], self.trunc)

    def shift(self, k):
        """Multiply by t^k."""
        t = None if self.trunc is None else self.trunc + k
        return TruncatedSeries([_F0] * k + list(self.coeffs), t)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("nonnegative integer powers only")
        return power(self, n, self._like([_F1], None))

    def truncate(self, n):
        """Restrict certification to order n (n <= current certification)."""
        if self.trunc is not None and n > self.trunc:
            raise ValueError("cannot extend certification by truncation")
        return TruncatedSeries(list(self.coeffs[:n + 1]), n)

    # -- structure ------------------------------------------------------

    def agrees_with(self, other):
        """Equality up to the joint certified precision."""
        other = _coerce(other)
        t = _min_trunc(self.trunc, other.trunc)
        n = (t + 1) if t is not None else max(len(self.coeffs), len(other.coeffs))
        return all(self[i] == other[i] for i in range(n))

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.trunc == other.trunc and self.coeffs == other.coeffs
        # a scalar is the exact constant series, so the exact zero (an empty
        # BiPoly column) equals 0 for the trim in __init__ and the skip in __mul__
        return self.trunc is None and len(self.coeffs) <= 1 and self.constant_term() == other

    def __hash__(self):
        if self.trunc is None and len(self.coeffs) <= 1:
            return hash(self.constant_term())  # equal to that scalar
        return hash((self.coeffs, self.trunc))

    # -- rendering --------------------------------------------------------

    def render(self, var="t"):
        body = join_terms((str(c), "" if k == 0 else var if k == 1 else "%s^%d" % (var, k))
                          for k, c in enumerate(self.coeffs) if c != 0)
        if self.trunc is not None:
            tail = "O(%s^%d)" % (var, self.trunc + 1)
            body = tail if body == "0" else body + " + " + tail
        return body

    def __str__(self):
        return self.render()

    def __repr__(self):
        return "Series(%s)" % self.render()

    def to_json(self):
        return {"coeffs": [scalar_json(c) for c in self.coeffs], "trunc": self.trunc}

    @classmethod
    def from_json(cls, obj):
        coeffs = []
        for c in obj["coeffs"]:
            if isinstance(c, dict):
                coeffs.append(AlgebraicNumber.from_json(c))
            else:
                coeffs.append(Fraction(c))
        return cls(coeffs, obj["trunc"])


def join_terms(terms):
    """Join (coefficient string, monomial string) pairs, in display
    order, into one sum: a coefficient holding a sum is bracketed, a
    leading minus becomes the joining sign, and a coefficient 1 on a
    monomial is left out.  No terms give "0"."""
    parts = []
    for cs, mono in terms:
        if " + " in cs or " - " in cs:
            cs = "(%s)" % cs
        neg = cs.startswith("-")
        if neg:
            cs = cs[1:]
        term = cs if not mono else mono if cs == "1" else "%s*%s" % (cs, mono)
        if parts:
            term = ("- " if neg else "+ ") + term
        elif neg:
            term = "-" + term
        parts.append(term)
    return " ".join(parts) if parts else "0"


def _coerce(x):
    if isinstance(x, TruncatedSeries):
        return x
    return TruncatedSeries([x], None)


def _min_trunc(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def series_arith(a, b, op):
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    raise ValueError("op must be add or mul")


def derivative(a):
    out = [k * c for k, c in enumerate(a.coeffs)][1:]
    return a._like(out, None if a.trunc is None else max(a.trunc - 1, -1))


def invert(a, trunc=None):
    """Multiplicative inverse up to the certified order."""
    if trunc is None:
        trunc = a.trunc
    if trunc is None:
        if len(a.coeffs) == 1:
            return TruncatedSeries([inv(a.coeffs[0])], None)
        raise ValueError("inverting an exact non-constant series needs a target order")
    if a.trunc is not None and a.trunc < 0:
        raise NotAUnit("constant term is not certified")
    c0 = a.constant_term()
    if c0 == 0:
        raise NotAUnit("constant term is zero")
    inv0 = inv(c0)
    out = [inv0]
    for k in range(1, trunc + 1):
        acc = _F0
        for i in range(1, k + 1):
            ai = a[i] if a.known(i) else None
            if ai is None:
                raise NotAUnit("insufficient certified coefficients to invert")
            if ai == 0:
                continue
            acc = acc + ai * out[k - i]
        out.append(-acc * inv0 if acc != 0 else _F0)
    return TruncatedSeries(out, trunc)


def compose(outer, inner):
    """outer(inner) with the certified order t propagated: Horner's rule
    (UniPoly.eval) on the outer coefficients at the inner series cut to
    order t, each step cut to t, so no intermediate carries an exact
    blowup.  An exact monomial inner rho t^k takes no series product:
    c_i rho^i lands at t^(i k)."""
    from .poly import UniPoly

    io = inner.order_lower_bound()
    if io < 1:
        raise InnerNotPositiveOrder("inner series must have order >= 1")
    if inner.is_exact() and outer.is_exact():
        t = None
    else:
        cands = []
        if inner.trunc is not None:
            cands.append(inner.trunc)
        if outer.trunc is not None:
            cands.append(io * (outer.trunc + 1) - 1)
        t = min(cands)
        if t == float("inf"):  # composing with the exact zero inner series
            t = None
    if inner.is_exact() and len(inner.coeffs) == io + 1:
        out, pw = [_F0] * (io * len(outer.coeffs)), _F1
        for i, c in enumerate(outer.coeffs):
            if c != 0:
                out[i * io] = c * pw
            pw = pw * inner.coeffs[io]
        return inner._like(out, t)
    if t is None:
        return _coerce(UniPoly(outer.coeffs).eval(inner))
    return _coerce(UniPoly(outer.coeffs).eval(inner.truncate(t), t)).truncate(t)
