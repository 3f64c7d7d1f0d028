"""Univariate factorization over extension towers and root adjunction.

Factorization over Q is in-house up to degree 2 (a quadratic splits iff
its discriminant is a rational square) and delegated to sympy above (a
complete procedure); factorization over a tower level reduces to the
level below by Trager's norm construction, with the norm computed as a
resultant via the subresultant PRS.  Roots found over the algebraic
closure are pinned to individual complex embeddings by isolating boxes,
so conjugates come back as distinct values in distinct towers.
"""

import math
from fractions import Fraction

from .errors import ExtensionLimitExceeded
from .numbers import (DEFAULT_DEGREE_CAP, QQ, AlgebraicNumber, Level, Tower, as_alg,
                      common_tower, isolate_roots, level_box, lift, rational, rep_lift)
from .poly import UniPoly, resultant_lists, squarefree_decomposition, uni_gcd

_F1 = Fraction(1)


def _coeff_key(p, prec=48):
    return tuple(as_alg(c).sort_key(prec) for c in p.coeffs)


# ---------------------------------------------------------------------------
# factorization


def _factor_key(fm):
    return fm[0].degree, _coeff_key(fm[0])


def factor_q(p):
    """Monic irreducible factorization over Q, [(factor, multiplicity)]
    sorted by degree and then by coefficients: in-house below degree 3,
    by sympy from there."""
    if p.degree <= 2:
        return _factor_small(p)
    import sympy

    x = sympy.Symbol("x")
    expr = sympy.Integer(0)
    for k, c in enumerate(p.coeffs):
        q = rational(c)
        expr += sympy.Rational(q.numerator, q.denominator) * x**k
    _, factors = sympy.factor_list(sympy.Poly(expr, x))
    out = []
    for f, m in factors:
        coeffs = [Fraction(0)] * (f.degree() + 1)
        for (k,), c in sympy.Poly(f, x).terms():
            coeffs[int(k)] = Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
        out.append((UniPoly(coeffs, p.var).monic(), m))
    out.sort(key=_factor_key)
    return out


def _factor_small(p):
    """factor_q below degree 3.  A monic quadratic x^2 + bx + c splits
    over Q iff its discriminant b^2 - 4c is the square of a rational, so
    iff the numerator and the denominator of the reduced fraction are
    both squares."""
    if p.degree < 2:
        return [(p.monic(), 1)] if p.degree == 1 else []
    p = p.monic()
    c, b, _ = p.coeffs
    disc = b * b - 4 * c
    num, den = math.isqrt(max(disc.numerator, 0)), math.isqrt(disc.denominator)
    if num * num != disc.numerator or den * den != disc.denominator:
        return [(p, 1)]
    if not num:
        return [(UniPoly([b / 2, _F1], p.var), 2)]
    s = Fraction(num, den)
    return sorted([(UniPoly([(b + s) / 2, _F1], p.var), 1),
                   (UniPoly([(b - s) / 2, _F1], p.var), 1)], key=_factor_key)


def factor_over_tower(p, tower):
    """Monic irreducible factorization of a nonconstant polynomial whose
    coefficients lie in the given tower; [(factor, multiplicity)].  Over
    Q it is factor_q; a linear p is its own factor, its coefficients
    lifted into the tower; only degree >= 2 over a tower of height >= 1
    goes through Trager's norm."""
    p = p.monic()
    if p.degree < 1:
        return []
    if tower.height == 0:
        return factor_q(_rationalize(p))
    if p.degree == 1:
        return [(UniPoly([lift(c, tower) for c in p.coeffs], p.var), 1)]
    out = []
    for g, m in squarefree_decomposition(p):
        for h in _trager_irreducible(g, tower):
            out.append((h, m))
    out.sort(key=_factor_key)
    return out


def _rationalize(p):
    return UniPoly([rational(c) for c in p.coeffs], p.var)


def _norm(p, tower):
    """Norm of p over the top level of the tower (generator theta):
    the resultant in theta of the level's minimal polynomial and p
    rewritten as a polynomial in theta whose coefficients are UniPoly in
    p.var over the sub-tower; (norm, sub-tower)."""
    h = tower.height
    sub = Tower(tower.levels[:-1])
    d = tower.levels[-1].degree
    cols = [[Fraction(0)] * len(p.coeffs) for _ in range(d)]
    for xi, rep in enumerate(_factor_reps(p, tower)):  # a tuple at height h >= 1
        for tpow, sub_rep in enumerate(rep):
            cols[tpow][xi] = AlgebraicNumber(sub, h - 1, sub_rep)
    bpolys = [UniPoly(col, p.var) for col in cols]
    apolys = [UniPoly([AlgebraicNumber(sub, h - 1, r)], p.var)
              for r in tower.levels[-1].minpoly]
    return resultant_lists(apolys, bpolys, p.var), sub


def _trager_irreducible(g, tower):
    """Irreducible factors of a squarefree monic g over a tower of
    height >= 1 (Trager's norm reduction)."""
    theta = tower.generator(tower.height - 1)
    shifts = [0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5]
    for s in shifts:
        gs = g.eval(UniPoly([-s * theta, _F1], g.var)) if s else g
        norm, sub = _norm(gs, tower)
        dn = norm.derivative()
        if not dn.is_zero() and uni_gcd(norm, dn).is_constant():
            break
    else:
        raise ArithmeticError("no squarefree norm shift found")
    out = []
    for hfac, _ in factor_over_tower(norm, sub):
        d = uni_gcd(gs, hfac)
        if d.degree >= 1:
            if s:
                d = d.eval(UniPoly([s * theta, _F1], g.var))
            out.append(d.monic())
    total = sum(f.degree for f in out)
    if total != g.degree:
        raise ArithmeticError("Trager factorization lost degree")
    return out


# ---------------------------------------------------------------------------
# roots


def _sorted_roots(roots):
    return sorted(roots, key=lambda rm: rm[0].sort_key())


def _linear_roots(factors, tower):
    """The roots of the linear factors of a factor list, sorted."""
    return _sorted_roots((-as_alg(f.coeffs[0], tower), m)
                         for f, m in factors if f.degree == 1)


def roots_in_tower(p, tower):
    """All roots of p lying in the tower, with multiplicities, sorted by
    numeric enclosure (re, im lexicographic, ascending)."""
    return _linear_roots(factor_over_tower(p, tower), tower)


def _factor_reps(f, tower):
    h = tower.height
    reps = []
    for c in f.coeffs:
        c = as_alg(c, tower)
        reps.append(rep_lift(c.rep, c.level, h))
    return reps


def _next_name(tower):
    return "a%d" % (tower.height + 1)


def extend_by_factor(tower, f, box, name=None, cap=DEFAULT_DEGREE_CAP):
    """Extend the tower by an irreducible monic factor pinned at ``box``."""
    if tower.degree() * f.degree > cap:
        raise ExtensionLimitExceeded(
            "extension degree %d exceeds cap %d" % (tower.degree() * f.degree, cap),
            tower=tower)
    lev = Level(name or _next_name(tower), tuple(_factor_reps(f, tower)), box)
    t2 = tower.extend(lev)
    return t2, t2.generator(t2.height - 1)


def adjoin_root(tower, p, name=None, cap=DEFAULT_DEGREE_CAP):
    """Adjoin one root of p (tower unchanged when a root already lies in
    it).  The pinned root is the lexicographically greatest enclosure
    (max re, then max im)."""
    factors = factor_over_tower(p, tower)
    if not factors:
        raise ValueError("cannot adjoin a root of a constant polynomial")
    roots = _linear_roots(factors, tower)
    if roots:
        return tower, roots[-1][0]
    f = factors[0][0]  # no linear factor, and the list is sorted by degree
    boxes = isolate_roots(tower, _factor_reps(f, tower), tower.height)
    return extend_by_factor(tower, f, boxes[-1], name=name, cap=cap)


def roots_by_factor(p, tower, cap=DEFAULT_DEGREE_CAP):
    """All roots of p over the algebraic closure, in factor order;
    [(root, multiplicity)].  A root of a linear factor is homed in the
    tower; each root of a nonlinear factor gets the tower extended by
    that factor, pinned at the root's isolating box."""
    out = []
    for f, m in factor_over_tower(p, tower):
        if f.degree == 1:
            out.append((-lift(f.coeffs[0], tower), m))
            continue
        for box in isolate_roots(tower, _factor_reps(f, tower), tower.height):
            out.append((extend_by_factor(tower, f, box, cap=cap)[1], m))
    return out


def all_roots(p, tower, cap=DEFAULT_DEGREE_CAP):
    """All roots of p over the algebraic closure, each pinned in its own
    (possibly extended) tower; [(root, multiplicity)], deterministic."""
    return _sorted_roots(roots_by_factor(p, tower, cap))


def pick_root(p, tower, accept, name=None, cap=DEFAULT_DEGREE_CAP):
    """The one root of p whose enclosure passes ``accept(box, prec)``;
    (tower, root), the tower extended by the root's factor when the root
    is not in it.  Enclosures of width 2^-prec are tried at prec = 48,
    96, ... until exactly one root passes; none passing, or still
    several after the last round, is an ArithmeticError."""
    factors = factor_over_tower(p, tower)
    prec = 48
    for _ in range(8):
        hits = []
        for f, _ in factors:
            if f.degree == 1:
                root = -lift(f.coeffs[0], tower)
                if accept(root.box(prec), prec):
                    hits.append((f, None, root))
                continue
            for box in isolate_roots(tower, _factor_reps(f, tower), tower.height,
                                     min_prec=prec):
                if accept(box, prec):
                    hits.append((f, box, None))
        if len(hits) == 1:
            f, box, root = hits[0]
            if root is not None:
                return tower, root
            return extend_by_factor(tower, f, box, name=name, cap=cap)
        if not hits:
            break
        prec *= 2
    raise ArithmeticError("no unique root passes the enclosure test")


# ---------------------------------------------------------------------------
# minimal polynomials over Q, exact cross-tower equality, common towers


def minpoly_over_q(x):
    """Monic minimal polynomial of x over Q."""
    if x.level == 0:
        return UniPoly([-x.rep, _F1], "x")
    tower = Tower(x.tower.levels[:x.level])
    p = UniPoly([-x, AlgebraicNumber(tower, 0, _F1)], "x")
    while tower.height > 0:
        p, tower = _norm(p, tower)
    p = _rationalize(p)
    for f, _ in factor_q(p):
        if f.eval(x) == 0:
            return f
    raise ArithmeticError("minimal polynomial selection failed")


def alg_eq(x, y):
    """Exact equality of algebraic numbers, across towers."""
    x = as_alg(x)
    y = as_alg(y)
    if common_tower(x.tower, y.tower) is not None:
        return x.level == y.level and x.rep == y.rep
    if not x.box(64).intersects(y.box(64)):
        return False
    p = minpoly_over_q(x)
    if p != minpoly_over_q(y):
        return False
    rboxes = isolate_roots(QQ, [rational(c) for c in p.coeffs], 0)
    return _root_index(x, rboxes) == _root_index(y, rboxes)


def _root_index(x, rboxes):
    prec = 64
    for _ in range(8):
        bx = x.box(prec)
        hits = [i for i, rb in enumerate(rboxes) if rb.intersects(bx)]
        if len(hits) == 1:
            return hits[0]
        prec *= 2
    raise ArithmeticError("failed to identify root embedding")


def lift_to_common(x, y, cap=DEFAULT_DEGREE_CAP):
    """Lift two values from incompatible towers into one common tower."""
    target = x.tower
    imgs = []
    for j, lev in enumerate(y.tower.levels):
        mapped = [_map_rep(r, j, imgs, target) for r in lev.minpoly]
        # the image of y's level-j generator: the root whose enclosure
        # meets the generator's own
        target, g = pick_root(UniPoly(mapped, "x"), target,
                              lambda box, prec: box.intersects(level_box(y.tower, j, prec)),
                              cap=cap)
        imgs.append(g)
    ylift = _map_rep(rep_lift(y.rep, y.level, y.tower.height),
                     y.tower.height, imgs, target)
    return lift(x, target), ylift


def _map_rep(rep, level, imgs, target):
    """Evaluate a source-tower rep through generator images in target."""
    if level == 0:
        return AlgebraicNumber(target, 0, Fraction(rep))
    if not isinstance(rep, tuple):
        rep = (rep,) if rep else ()
    mapped = [_map_rep(c, level - 1, imgs, target) for c in rep]
    return lift(UniPoly(mapped).eval(imgs[level - 1]), target)
