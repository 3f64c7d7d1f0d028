"""Exact arithmetic over Q and towers of simple algebraic extensions.

A tower is an immutable sequence of levels; level i adjoins one root of
a monic polynomial whose coefficients live in the tower below.  Every
generator is pinned to a single complex root by an isolating box, so
conjugate roots of the same minimal polynomial are distinct values.

Raw element representation ("rep"):
  * level 0: a Fraction,
  * level k >= 1: a tuple of level-(k-1) reps in the power basis of the
    level-k generator, trailing zeros trimmed (the empty tuple is 0).
Reps are canonical: two values in the same tower are equal iff their
reps are equal.
"""

from fractions import Fraction

from .enclosure import Box, box_horner, numeric_roots, polish_root, root_radius
from .errors import DivisionByZero

_F0 = Fraction(0)
_F1 = Fraction(1)

# the largest degree over Q a tower may reach (the CLI's --degree-cap)
DEFAULT_DEGREE_CAP = 64


# ---------------------------------------------------------------------------
# raw rep helpers


def rep_is_zero(rep):
    return rep == () if isinstance(rep, tuple) else rep == 0


def rep_zero(level):
    return () if level else _F0


def rep_lift(rep, from_level, to_level):
    for _ in range(to_level - from_level):
        rep = (rep,) if not rep_is_zero(rep) else ()
    return rep


def _trim(vec):
    n = len(vec)
    while n and rep_is_zero(vec[n - 1]):
        n -= 1
    return tuple(vec[:n])


def rep_demote(rep, level):
    """Lower the level as far as the value allows (canonical form)."""
    while level > 0 and isinstance(rep, tuple) and len(rep) <= 1:
        rep = rep[0] if rep else rep_zero(level - 1)
        level -= 1
    return rep, level


def rep_add(tower, level, a, b):
    if level == 0:
        return a + b
    la, lb = len(a), len(b)
    if la < lb:
        a, b, la, lb = b, a, lb, la
    out = list(a)
    if level == 1:
        for i in range(lb):
            out[i] = out[i] + b[i]
    else:
        for i in range(lb):
            out[i] = rep_add(tower, level - 1, out[i], b[i])
    return _trim(out)


def rep_neg(tower, level, a):
    if level == 0:
        return -a
    return tuple(rep_neg(tower, level - 1, c) for c in a)


def rep_sub(tower, level, a, b):
    return rep_add(tower, level, a, rep_neg(tower, level, b))


def rep_mul(tower, level, a, b):
    if level == 0:
        return a * b
    if not a or not b:
        return ()
    if level == 1:
        return _rep_mul_height1(tower, a, b)
    return _reduce_mod(tower, level, _poly_mul(tower, level - 1, a, b))


def _rep_mul_height1(tower, a, b):
    """Multiplication of level-1 reps (plain Fraction coefficients)."""
    la, lb = len(a), len(b)
    n = la + lb - 1
    prod = [_F0] * n
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    lev = tower.levels[0]
    d = lev.degree
    if n > d:
        m = lev.minpoly
        for i in range(n - 1, d - 1, -1):
            c = prod[i]
            if c:
                base = i - d
                for j in range(d):
                    mj = m[j]
                    if mj:
                        prod[base + j] -= c * mj
        del prod[d:]
    while prod and not prod[-1]:
        prod.pop()
    return tuple(prod)


def _reduce_mod(tower, level, vec):
    """Reduce a coefficient list modulo the level's monic minimal polynomial."""
    lev = tower.levels[level - 1]
    d = lev.degree
    m = lev.minpoly  # ascending, length d+1, monic
    sub = level - 1
    vec = list(vec)
    for i in range(len(vec) - 1, d - 1, -1):
        c = vec[i]
        if rep_is_zero(c):
            continue
        vec[i] = rep_zero(sub)
        for j in range(d):
            mj = m[j]
            if rep_is_zero(mj):
                continue
            vec[i - d + j] = rep_sub(tower, sub, vec[i - d + j],
                                     rep_mul(tower, sub, c, mj))
    return _trim(vec[:max(d, 0)] if len(vec) > d else vec)


def rep_inv(tower, level, a):
    if level == 0:
        if a == 0:
            raise DivisionByZero("division by zero")
        return 1 / a
    if not a:
        raise DivisionByZero("division by zero")
    sub = level - 1
    lev = tower.levels[level - 1]
    # extended Euclid in (level-1)[x] against the minimal polynomial
    r0 = list(lev.minpoly)
    r1 = list(a)
    t0 = []
    t1 = [rep_lift(_F1, 0, sub)]
    while len(_trim(r1)) > 1:
        q, r = _poly_divmod(tower, sub, r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, rep_sub(tower, level, t0, _poly_mul(tower, sub, q, t1))
    r1 = _trim(r1)
    if not r1:
        raise DivisionByZero("element not invertible (zero divisor?)")
    c_inv = rep_inv(tower, sub, r1[0])
    out = [rep_mul(tower, sub, t, c_inv) for t in t1]
    return _reduce_mod(tower, level, out)


def _rep_div(tower, level, a, b):
    return rep_mul(tower, level, a, rep_inv(tower, level, b))


# dense polynomial helpers over reps at a fixed level (used by rep_mul
# and rep_inv); a difference of two such polynomials is rep_sub one
# level up


def _poly_mul(tower, level, p, q):
    out = [rep_zero(level)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if rep_is_zero(a):
            continue
        for j, b in enumerate(q):
            if rep_is_zero(b):
                continue
            out[i + j] = rep_add(tower, level, out[i + j], rep_mul(tower, level, a, b))
    return list(_trim(out))


def _poly_divmod(tower, level, num, den):
    num = list(_trim(num))
    den = list(_trim(den))
    if not den:
        raise DivisionByZero("polynomial division by zero")
    dn, dd = len(num) - 1, len(den) - 1
    inv_lc = rep_inv(tower, level, den[-1])
    quot = [rep_zero(level)] * (dn - dd + 1)
    rem = num
    for i in range(dn - dd, -1, -1):
        c = rem[dd + i]
        if rep_is_zero(c):
            continue
        q = rep_mul(tower, level, c, inv_lc)
        quot[i] = q
        for j in range(dd + 1):
            rem[i + j] = rep_sub(tower, level, rem[i + j],
                                 rep_mul(tower, level, q, den[j]))
    return quot, list(_trim(rem))


# ---------------------------------------------------------------------------
# towers


class Level:
    """One simple extension: a monic minimal polynomial over the tower
    below and an isolating box pinning one of its complex roots."""

    __slots__ = ("name", "minpoly", "degree", "seed", "_boxes", "_best_mid")

    def __init__(self, name, minpoly, seed):
        self.name = name
        self.minpoly = tuple(minpoly)  # ascending reps over the sub-tower, monic
        self.degree = len(minpoly) - 1
        self.seed = seed  # Box isolating the pinned root
        self._boxes = {}
        self._best_mid = (seed.mid_re, seed.mid_im)

    def _key(self):
        return (self.name, self.minpoly,
                self.seed.re_lo, self.seed.re_hi, self.seed.im_lo, self.seed.im_hi)

    def __eq__(self, other):
        if not isinstance(other, Level):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Level(%s, deg %d)" % (self.name, self.degree)


class Tower:
    """An immutable tower of simple extensions; the empty tower is Q."""

    __slots__ = ("levels",)

    def __init__(self, levels=()):
        self.levels = tuple(levels)

    def degree(self):
        d = 1
        for lev in self.levels:
            d *= lev.degree
        return d

    @property
    def height(self):
        return len(self.levels)

    def extend(self, level):
        return Tower(self.levels + (level,))

    def is_prefix_of(self, other):
        n = len(self.levels)
        return len(other.levels) >= n and other.levels[:n] == self.levels

    def generator(self, i):
        """The pinned root adjoined at level index i (0-based)."""
        rep = (rep_zero(i), rep_lift(_F1, 0, i))
        return AlgebraicNumber(self, i + 1, rep)

    def rational(self, q):
        return AlgebraicNumber(self, 0, Fraction(q))

    def __eq__(self, other):
        if not isinstance(other, Tower):
            return NotImplemented
        return self.levels == other.levels

    def __hash__(self):
        return hash(self.levels)

    def __repr__(self):
        if not self.levels:
            return "Tower(Q)"
        return "Tower(Q(%s))" % ")(".join(l.name for l in self.levels)


QQ = Tower(())


def common_tower(t1, t2):
    """The taller tower when one is a prefix of the other, else None."""
    if t1 is t2:
        return t1
    if t1.is_prefix_of(t2):
        return t2
    if t2.is_prefix_of(t1):
        return t1
    return None


# ---------------------------------------------------------------------------
# numeric boxes for reps and generators


def level_box(tower, i, prec):
    """Isolating box of the level-i generator, width <= 2^-prec."""
    lev = tower.levels[i]
    cached = lev._boxes.get(prec)
    if cached is not None:
        return cached
    for p, box in sorted(lev._boxes.items(), reverse=True):
        if p >= prec:
            lev._boxes[prec] = box
            return box
    target = Fraction(1, 1 << (prec + 1))
    work = prec + 48
    sub = Tower(tower.levels[:i])
    mid = lev._best_mid
    for _ in range(12):
        cboxes = [rep_box(sub, i, c, work) for c in lev.minpoly]
        mids = [(b.mid_re, b.mid_im) for b in cboxes]
        z = polish_root(mids, mid, bits=work + 16)
        rad = root_radius(cboxes, Box.exact(z[0], z[1]))
        if rad is not None and 2 * rad <= target:
            box = Box.disk(z[0], z[1], rad).rounded(prec + 24)
            if box.intersects(lev.seed) or any(
                    box.intersects(b) for b in lev._boxes.values()):
                lev._boxes[prec] = box
                lev._best_mid = (z[0], z[1])
                return box
            mid = (lev.seed.mid_re, lev.seed.mid_im)  # drifted; restart at seed
        work *= 2
    raise ArithmeticError("failed to refine enclosure for %s" % lev.name)


def rep_box(tower, level, rep, prec):
    """Enclosure of a rep, evaluated with working precision ``prec``."""
    if level == 0:
        return Box.exact(rep)
    if not rep:
        return Box.exact(0)
    g = level_box(tower, level - 1, prec)
    coeffs = [rep_box(tower, level - 1, c, prec) for c in rep]
    return box_horner(coeffs, g).rounded(prec + 16)


def isolate_roots(tower, coeffs_reps, level, min_prec=0):
    """Isolating boxes for all complex roots of a squarefree polynomial.

    ``coeffs_reps``: ascending reps at ``level`` over ``tower``.  Returns
    boxes sorted lexicographically by (re, im) midpoints, pairwise
    disjoint, each certified to contain exactly one root, each of width
    at most 2^-min_prec.
    """
    deg = len(coeffs_reps) - 1
    if deg < 1:
        return []
    prec = max(64, min_prec + 16)
    tol = Fraction(1, 1 << min_prec) if min_prec else None
    for _ in range(10):
        cboxes = [rep_box(tower, level, c, prec) for c in coeffs_reps]
        mids = [(b.mid_re, b.mid_im) for b in cboxes]
        approx = numeric_roots(mids, bits=max(100, prec * 10 // 9))
        boxes = []
        ok = True
        for z in approx:
            z = polish_root(mids, z, bits=prec + 16)
            rad = root_radius(cboxes, Box.exact(z[0], z[1]))
            if rad is None:
                ok = False
                break
            boxes.append(Box.disk(z[0], z[1], rad))
        if ok and len(boxes) == deg:
            disjoint = all(not boxes[i].intersects(boxes[j])
                           for i in range(deg) for j in range(i + 1, deg))
            small = tol is None or all(b.width() <= tol for b in boxes)
            if disjoint and small:
                boxes.sort(key=lambda b: (b.mid_re, b.mid_im))
                return boxes
        prec *= 2
    raise ArithmeticError("failed to isolate roots")


# ---------------------------------------------------------------------------
# public value type


class AlgebraicNumber:
    """An exact element of an extension tower (rationals at level 0)."""

    __slots__ = ("tower", "level", "rep")

    def __init__(self, tower, level, rep):
        rep, level = rep_demote(rep, level)
        self.tower = tower
        self.level = level
        self.rep = rep

    # -- predicates ---------------------------------------------------

    def is_rational(self):
        return self.level == 0

    def as_fraction(self):
        if self.level != 0:
            raise ValueError("not a rational value: %s" % self)
        return self.rep

    def is_zero(self):
        return self.level == 0 and self.rep == 0

    def __bool__(self):
        return not self.is_zero()

    # -- arithmetic ---------------------------------------------------

    def _binop(self, other, fn):
        """fn on the reps of self and other lifted to the higher level;
        a rational other is read as a level-0 rep in self's tower."""
        if isinstance(other, AlgebraicNumber):
            tower = common_tower(self.tower, other.tower)
            if tower is None:
                raise ArithmeticError("values live in incompatible towers")
            lo, ro = other.level, other.rep
        elif isinstance(other, (int, Fraction)):
            tower, lo, ro = self.tower, 0, Fraction(other)
        else:
            return NotImplemented
        k = max(self.level, lo)
        return AlgebraicNumber(tower, k, fn(tower, k, rep_lift(self.rep, self.level, k),
                                            rep_lift(ro, lo, k)))

    def __add__(self, other):
        return self._binop(other, rep_add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, rep_sub)

    def __rsub__(self, other):
        r = self._binop(other, rep_sub)
        return -r if r is not NotImplemented else r

    def __mul__(self, other):
        return self._binop(other, rep_mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, _rep_div)

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return AlgebraicNumber(self.tower, 0, Fraction(other)) / self

    def __neg__(self):
        return AlgebraicNumber(self.tower, self.level,
                               rep_neg(self.tower, self.level, self.rep))

    def inverse(self):
        return AlgebraicNumber(self.tower, self.level,
                               rep_inv(self.tower, self.level, self.rep))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, AlgebraicNumber(self.tower, 0, _F1))

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.level == 0 and self.rep == other
        if not isinstance(other, AlgebraicNumber):
            return NotImplemented
        if self.level != other.level or self.rep != other.rep:
            return False
        # the fields __hash__ reads: sibling towers share the levels below
        return (self.tower is other.tower
                or self.tower.levels[:self.level] == other.tower.levels[:self.level])

    def __hash__(self):
        if self.level == 0:
            return hash(self.rep)
        return hash((self.tower.levels[:self.level], self.level, self.rep))

    # -- numerics -----------------------------------------------------

    def box(self, prec=64):
        for _ in range(8):
            b = rep_box(self.tower, self.level, self.rep, prec + 16)
            if b.width() <= Fraction(1, 1 << prec):
                return b
            prec += prec
        raise ArithmeticError("enclosure refinement stalled")

    def sort_key(self, prec=64):
        b = self.box(prec)
        return (b.mid_re, b.mid_im)

    def complex(self):
        b = self.box(64)
        return complex(float(b.mid_re), float(b.mid_im))

    # -- rendering ----------------------------------------------------

    def __str__(self):
        return render_rep(self.tower, self.level, self.rep)

    def __repr__(self):
        return "<%s>" % self

    # -- serialization ------------------------------------------------

    def to_json(self):
        return {
            "tower": [_level_json(lev) for lev in self.tower.levels],
            "level": self.level,
            "coeffs": _rep_json(self.rep),
        }

    @classmethod
    def from_json(cls, obj):
        levels = []
        for lj in obj["tower"]:
            minpoly = tuple(_rep_from_json(c) for c in lj["minpoly"])
            enc = lj["enclosure"]
            seed = Box.disk(Fraction(enc["re"]), Fraction(enc["im"]), Fraction(enc["rad"]))
            levels.append(Level(lj["name"], minpoly, seed))
        tower = Tower(tuple(levels))
        return cls(tower, obj["level"], _rep_from_json(obj["coeffs"]))


def _level_json(lev):
    rad = max(lev.seed.re_hi - lev.seed.re_lo, lev.seed.im_hi - lev.seed.im_lo) / 2
    return {
        "name": lev.name,
        "minpoly": [_rep_json(c) for c in lev.minpoly],
        "enclosure": {"re": str(lev.seed.mid_re), "im": str(lev.seed.mid_im),
                      "rad": str(rad)},
    }


def _rep_json(rep):
    if isinstance(rep, tuple):
        return [_rep_json(c) for c in rep]
    return str(rep)


def _rep_from_json(obj):
    if isinstance(obj, list):
        return tuple(_rep_from_json(c) for c in obj)
    return Fraction(obj)


def render_rep(tower, level, rep):
    if level == 0:
        return str(rep)
    name = tower.levels[level - 1].name
    parts = []
    for k, c in enumerate(rep):
        if rep_is_zero(c):
            continue
        cs = render_rep(tower, level - 1, c)
        if k == 0:
            parts.append(cs)
            continue
        mono = name if k == 1 else "%s^%d" % (name, k)
        if cs == "1":
            parts.append(mono)
        elif cs == "-1":
            parts.append("-" + mono)
        else:
            if "+" in cs[1:] or "-" in cs[1:] or " " in cs:
                cs = "(%s)" % cs
            parts.append("%s*%s" % (cs, mono))
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


# ---------------------------------------------------------------------------
# scalar helpers: a scalar is a rational (int or Fraction) or an
# AlgebraicNumber, and every module decides through these


def as_alg(c, tower=QQ):
    """``c`` as an AlgebraicNumber: passed through unchanged when it is
    one, a rational is wrapped in ``tower``."""
    if isinstance(c, AlgebraicNumber):
        return c
    return AlgebraicNumber(tower, 0, Fraction(c))


def lift(c, tower):
    """``c`` re-homed in ``tower`` when that tower extends c's own.

    A rational is wrapped in ``tower``; a value whose tower ``tower``
    does not extend is returned unchanged, so the value never changes.
    The tower shows in ``to_json``, so callers pick as_alg or lift on
    purpose.
    """
    if not isinstance(c, AlgebraicNumber):
        return AlgebraicNumber(tower, 0, Fraction(c))
    if c.tower.is_prefix_of(tower):
        return AlgebraicNumber(tower, c.level, c.rep)
    return c


def rational(c):
    """``c`` as a Fraction; an AlgebraicNumber must be rational."""
    if isinstance(c, AlgebraicNumber):
        return c.as_fraction()
    return Fraction(c)


def inv(c):
    """1/c, exact (``1 / int`` would be a float)."""
    if isinstance(c, AlgebraicNumber):
        return c.inverse()
    return 1 / Fraction(c)


def common_tower_of(values):
    """The one tower every AlgebraicNumber among ``values`` lives in
    (QQ when there is none); two incompatible towers are an internal
    fault."""
    t = QQ
    for c in values:
        if isinstance(c, AlgebraicNumber):
            t = common_tower(t, c.tower)
            if t is None:
                raise ArithmeticError("values live in incompatible towers")
    return t


def orbit_key(*values):
    """The values as elements of an abstract field, free of their
    embedding: the minimal polynomials of their common tower's levels up
    to the highest level among them, and (level, rep) of each value.

    Every level's minpoly is irreducible over the levels below (each
    Level comes from a factor_over_tower factor), so the minpolys define
    one field K = Q[a1..ak]/(m1, m2, ...), and two tuples with one key
    are the images of one tuple in K under two embeddings sigma, tau.
    tau o sigma^-1 extends to an element of Gal(Q-bar/Q): conjugate
    roots of one factor of a polynomial over Q share a key, and a point
    of a curve with rational coefficients carries the same places, e,
    ord(B) and position on z = 0 as every point with its key.
    """
    levels = common_tower_of(values).levels[:max(v.level for v in values)]
    return (tuple(lev.minpoly for lev in levels),) + tuple((v.level, v.rep) for v in values)


def power(x, n, one):
    """x**n for an integer n >= 0 by square-and-multiply; ``one`` is
    the unit of x's ring.  Every ``__pow__`` of the package ends here."""
    result = one
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


def scalar_json(c):
    """JSON form of a scalar: a string for a rational, the full tower
    record otherwise."""
    if isinstance(c, AlgebraicNumber) and not c.is_rational():
        return c.to_json()
    return str(rational(c))


# ---------------------------------------------------------------------------
# spec-level conveniences


def field_arith(x, y, op):
    """Binary field operation; lifts operands to a common tower."""
    fns = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
           "mul": lambda a, b: a * b, "div": lambda a, b: a / b}
    a, b = as_alg(x), as_alg(y)
    if common_tower(a.tower, b.tower) is None:
        from . import factor
        a, b = factor.lift_to_common(a, b)
    return fns[op](a, b)


def numeric_enclosure(x, precision):
    """A box of width <= 2^-precision provably containing ``x``."""
    return as_alg(x).box(precision)
