"""Exact complex interval boxes with rational endpoints.

Box endpoints are ``Fraction``s, so enclosures are rigorous without
directed rounding: the box of an operation always contains every possible
value of the operation on members of the input boxes.  Root seeds come
from an in-house Durand-Kerner iteration, and Level refinement polishes by
Newton in fixed point, but the containment radii are certified by the
bound  min_i |z - r_i| <= n |p(z)/p'(z)|, on integers for point data.
"""

from fractions import Fraction
from math import isqrt, lcm

_ZERO = Fraction(0)


def frac_sqrt_up(q):
    """A rational upper bound for sqrt(q), with high relative precision."""
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return _ZERO
    bits = q.numerator.bit_length() - q.denominator.bit_length()
    extra = max(0, (130 - bits) // 2)
    scale = 1 << (60 + extra)
    v = (q.numerator * scale * scale) // q.denominator + 1
    s = isqrt(v)
    if s * s < v:
        s += 1
    return Fraction(s, scale)


def _imul(alo, ahi, blo, bhi):
    """Real interval product endpoints."""
    ps = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return min(ps), max(ps)


def _isq(lo, hi):
    """Real interval of x^2 for x in [lo, hi]."""
    a, b = lo * lo, hi * hi
    if lo <= 0 <= hi:
        return _ZERO, max(a, b)
    return min(a, b), max(a, b)


def _round_down(x, bits):
    scale = 1 << bits
    num = x.numerator * scale
    q = num // x.denominator
    return Fraction(q, scale)


def _round_up(x, bits):
    scale = 1 << bits
    num = x.numerator * scale
    q = -((-num) // x.denominator)
    return Fraction(q, scale)


class Box:
    """Closed axis-aligned box in the complex plane, exact endpoints."""

    __slots__ = ("re_lo", "re_hi", "im_lo", "im_hi")

    def __init__(self, re_lo, re_hi, im_lo, im_hi):
        if re_lo > re_hi or im_lo > im_hi:
            raise ValueError("empty box")
        self.re_lo = Fraction(re_lo)
        self.re_hi = Fraction(re_hi)
        self.im_lo = Fraction(im_lo)
        self.im_hi = Fraction(im_hi)

    @classmethod
    def exact(cls, re, im=0):
        re = Fraction(re)
        im = Fraction(im)
        return cls(re, re, im, im)

    @classmethod
    def disk(cls, re, im, rad):
        re, im, rad = Fraction(re), Fraction(im), Fraction(rad)
        return cls(re - rad, re + rad, im - rad, im + rad)

    @property
    def mid_re(self):
        return (self.re_lo + self.re_hi) / 2

    @property
    def mid_im(self):
        return (self.im_lo + self.im_hi) / 2

    def width(self):
        return max(self.re_hi - self.re_lo, self.im_hi - self.im_lo)

    def __add__(self, other):
        return Box(self.re_lo + other.re_lo, self.re_hi + other.re_hi,
                   self.im_lo + other.im_lo, self.im_hi + other.im_hi)

    def __mul__(self, other):
        a, b, c, d = self.re_lo, self.im_lo, other.re_lo, other.im_lo
        if (a, b, c, d) == (self.re_hi, self.im_hi, other.re_hi, other.im_hi):  # two points
            return Box.exact(a * c - b * d, a * d + b * c)
        # (a+bi)(c+di): interval products, each factor treated independently
        ac = _imul(self.re_lo, self.re_hi, other.re_lo, other.re_hi)
        bd = _imul(self.im_lo, self.im_hi, other.im_lo, other.im_hi)
        ad = _imul(self.re_lo, self.re_hi, other.im_lo, other.im_hi)
        bc = _imul(self.im_lo, self.im_hi, other.re_lo, other.re_hi)
        return Box(ac[0] - bd[1], ac[1] - bd[0], ad[0] + bc[0], ad[1] + bc[1])

    def abs2_bounds(self):
        """Bounds for |z|^2 over the box."""
        rlo, rhi = _isq(self.re_lo, self.re_hi)
        ilo, ihi = _isq(self.im_lo, self.im_hi)
        return rlo + ilo, rhi + ihi

    def intersects(self, other):
        return not (self.re_hi < other.re_lo or other.re_hi < self.re_lo or
                    self.im_hi < other.im_lo or other.im_hi < self.im_lo)

    def rounded(self, bits):
        """Outward rounding of endpoints to denominators 2^bits."""
        return Box(_round_down(self.re_lo, bits), _round_up(self.re_hi, bits),
                   _round_down(self.im_lo, bits), _round_up(self.im_hi, bits))

    def __repr__(self):
        return "Box(re=[%s, %s], im=[%s, %s])" % (
            float(self.re_lo), float(self.re_hi), float(self.im_lo), float(self.im_hi))


def box_horner(coeff_boxes, z):
    """Evaluate a polynomial with Box coefficients at a Box point."""
    acc = Box.exact(0)
    for c in reversed(coeff_boxes):
        acc = acc * z + c
    return acc


def root_radius(coeff_boxes, z):
    """Certified radius r such that the disk around the point box ``z``
    of radius r contains a root of every polynomial with coefficients in
    the given boxes.  Returns None when the derivative box straddles 0."""
    if all(b.re_lo == b.re_hi and b.im_lo == b.im_hi for b in (z, *coeff_boxes)):
        return _point_radius([(b.re_lo, b.im_lo) for b in coeff_boxes], z.re_lo, z.im_lo)
    n = len(coeff_boxes) - 1
    pz = box_horner(coeff_boxes, z)
    dcoeffs = [Box.exact(k) * coeff_boxes[k] for k in range(1, n + 1)]
    dpz = box_horner(dcoeffs, z)
    dlo, _ = dpz.abs2_bounds()
    if dlo == 0:
        return None
    _, phi = pz.abs2_bounds()
    r2 = Fraction(n * n) * phi / dlo
    return frac_sqrt_up(r2)


def _point_radius(cs, zr, zi):
    """root_radius on point data, on integers.  With D the common
    denominator of the coefficients and z = X/E, the homogeneous Horner
    gives P = E^n D p(z) and P' = E^(n-1) D p'(z), and the same
    r^2 = n^2 |P|^2 / (|P'|^2 E^2) as the Box path."""
    d = lcm(*(q.denominator for c in cs for q in c))
    e = lcm(zr.denominator, zi.denominator)
    xr, xi = zr.numerator * (e // zr.denominator), zi.numerator * (e // zi.denominator)
    pr = pi = dr = di = 0
    ek = 1  # E^j at the j-th coefficient from the top
    for cr, ci in reversed(cs):
        dr, di = dr * xr - di * xi + pr, dr * xi + di * xr + pi
        pr, pi = (pr * xr - pi * xi + cr.numerator * (d // cr.denominator) * ek,
                  pr * xi + pi * xr + ci.numerator * (d // ci.denominator) * ek)
        ek *= e
    m = dr * dr + di * di
    n = len(cs) - 1
    return frac_sqrt_up(Fraction(n * n * (pr * pr + pi * pi), m * e * e)) if m else None


def numeric_roots(coeff_mids, bits):
    """Approximate complex roots by Durand-Kerner iteration, in place from
    the start points (0.4 + 0.9i)^k, on Gaussian integers scaled by 2^(bits + 120).

    ``coeff_mids`` is an ascending list of (Fraction re, Fraction im)
    pairs.  Returns (re, im) pairs of Fractions rounded to 2^-bits, with
    parts below 2^-bits set to 0.
    """
    w = bits + 120
    lr, li = coeff_mids[-1]
    m = lr * lr + li * li
    cs = [(_fix((cr * lr + ci * li) / m, w), _fix((ci * lr - cr * li) / m, w))
          for cr, ci in reversed(coeff_mids[:-1])]  # monic, descending
    roots = [(_fix(Fraction(s.real), w), _fix(Fraction(s.imag), w))
             for s in ((0.4 + 0.9j) ** k for k in range(len(cs)))]
    for _ in range(200):
        big = 0  # the largest |correction|^2 of this sweep
        for i, (pr, pi) in enumerate(roots):
            xr, xi = 1 << w, 0
            for cr, ci in cs:
                xr, xi = ((xr * pr - xi * pi) >> w) + cr, ((xr * pi + xi * pr) >> w) + ci
            for qr, qi in roots:
                qr, qi = pr - qr, pi - qi
                d2 = qr * qr + qi * qi
                if d2:
                    xr, xi = ((xr * qr + xi * qi) << w) // d2, ((xi * qr - xr * qi) << w) // d2
            roots[i] = pr - xr, pi - xi  # in place: later roots see this one
            big = max(big, xr * xr + xi * xi)
        if big < 1 << 240:  # every correction is below 2^-bits
            return [(_seed(re, bits), _seed(im, bits)) for re, im in roots]
    raise ArithmeticError("root seeds did not converge")


def _fix(q, w):
    """floor(q * 2^w) for a rational q."""
    return (q.numerator << w) // q.denominator


def _seed(v, bits):
    """v / 2^(bits + 120) rounded to 2^-bits, or 0 below 2^-bits."""
    return Fraction((v + (1 << 119)) >> 120 if abs(v) >> 120 else 0, 1 << bits)


def polish_root(coeff_mids, z, bits):
    """Newton-polish a root approximation with exact rational steps.

    ``coeff_mids``: ascending complex-rational coefficients (pairs).
    ``z``: (re, im) pair of Fractions.  Rounds the iterate to ``bits``
    fractional bits after each step to keep numerators bounded.
    """
    zr, zi = z
    eps2 = Fraction(1, 1 << (2 * bits))
    for _ in range(60):
        pr = pi = dr = di = _ZERO
        for cr, ci in reversed(coeff_mids):
            dr, di = dr * zr - di * zi + pr, dr * zi + di * zr + pi
            pr, pi = pr * zr - pi * zi + cr, pr * zi + pi * zr + ci
        m = dr * dr + di * di
        if m == 0:
            break
        qr = (pr * dr + pi * di) / m
        qi = (pi * dr - pr * di) / m
        if qr == 0 and qi == 0:
            break
        zr, zi = zr - qr, zi - qi
        zr = _round_down(zr, bits) if zr >= 0 else -_round_down(-zr, bits)
        zi = _round_down(zi, bits) if zi >= 0 else -_round_down(-zi, bits)
        if qr * qr + qi * qi < eps2:
            break
    return zr, zi


def polish_fixed(coeff_mids, z, bits):
    """``polish_root`` on Gaussian integers scaled by 2^w, w = bits + 32:
    the iterate is rounded to ``bits`` fractional bits once, at the end."""
    w = bits + 32
    cs = [(_fix(cr, w), _fix(ci, w)) for cr, ci in reversed(coeff_mids)]
    zr, zi = _fix(z[0], w), _fix(z[1], w)
    for _ in range(60):
        pr = pi = dr = di = 0
        for cr, ci in cs:
            dr, di = ((dr * zr - di * zi) >> w) + pr, ((dr * zi + di * zr) >> w) + pi
            pr, pi = ((pr * zr - pi * zi) >> w) + cr, ((pr * zi + pi * zr) >> w) + ci
        m = dr * dr + di * di
        if m == 0:
            break
        qr, qi = ((pr * dr + pi * di) << w) // m, ((pi * dr - pr * di) << w) // m
        zr, zi = zr - qr, zi - qi
        if qr * qr + qi * qi < 1 << 64:  # |q| < 2^-bits
            break
    return tuple(Fraction((v + (1 << 31)) >> 32, 1 << bits) for v in (zr, zi))
