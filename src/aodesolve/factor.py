"""Factorization over Q and over extension towers, and root adjunction.

Factorization over Q is in-house: each squarefree part is factored over
Z by Zassenhaus (mod-p factoring, Hensel lifting, recombination by trial
division), and a bivariate F(y, z) by Kronecker's substitution into one
variable, recombined by the same loop.  Factorization over a tower level
reduces to the level below by Trager's norm, computed as a resultant
via the subresultant PRS.  Roots found over the algebraic closure are
pinned to individual complex embeddings by isolating boxes, so
conjugates come back as distinct values in distinct towers.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import count, zip_longest

from .errors import ExtensionLimitExceeded
from .numbers import (DEFAULT_DEGREE_CAP, QQ, AlgebraicNumber, Level, Tower, as_alg,
                      common_tower, isolate_roots, level_box, lift, rational, rep_lift)
from .poly import BiPoly, UniPoly, resultant_lists, squarefree_decomposition, uni_gcd
from .series import horner

_F1 = Fraction(1)


# ---------------------------------------------------------------------------
# factorization


def _factor_key(fm):
    return fm[0].degree, tuple(as_alg(c).sort_key(48) for c in fm[0].coeffs)


def factor_q(p):
    """Monic irreducible factorization over Q, [(factor, multiplicity)]
    sorted by degree, then exactly by the ascending coefficients:
    Zassenhaus on each squarefree part, at every degree."""
    out = [(UniPoly([Fraction(c, f[-1]) for c in f], p.var), m)
           for g, m in squarefree_decomposition(p) for f in _zassenhaus(g.coeffs)]
    return sorted(out, key=lambda fm: (fm[0].degree, fm[0].coeffs))


# Zassenhaus over Z.  A polynomial is an ascending int list, reduced
# mod m and without trailing zeros where an m is passed.


def _red(a, m):
    a = [c % m for c in a]
    while a and not a[-1]:
        a.pop()
    return a


def _padd(a, b, m, sign=1):
    return _red([x + sign * y for x, y in zip_longest(a, b, fillvalue=0)], m)


def _pmul(m, a, *bs):
    for b in bs:
        out = [0] * max(len(a) + len(b) - 1, 0)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        a = _red(out, m)
    return a


def _pdivmod(a, b, m):
    """(quotient, remainder) of a by b mod m, lc(b) a unit mod m."""
    r, db, u = list(a), len(b) - 1, pow(b[-1], -1, m)
    q = [0] * max(len(r) - db, 0)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + db] * u % m
        for j, y in enumerate(b):
            r[i + j] -= c * y
    return q, _red(r[:db], m)


def _pgcd(a, b, p):
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    return _pmul(p, [pow(a[-1], -1, p)], a)  # made monic


def _ppow(a, e, f, p):
    """a^e mod (f, p), for deg a < deg f."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _pdivmod(_pmul(p, out, out), f, p)[1]
        if bit == "1":
            out = _pdivmod(_pmul(p, out, a), f, p)[1]
    return out


def _pxgcd(a, b, p):
    """s, t with s*a + t*b = 1 mod p, deg s < deg b, deg t < deg a."""
    r0, r1, s0, s1 = a, b, [1], []
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1, s0, s1 = r1, r, s1, _padd(s0, _pmul(p, q, s1), p, -1)
    s = _pmul(p, [pow(r0[0], -1, p)], s0)
    return s, _pdivmod(_padd([1], _pmul(p, s, a), p, -1), b, p)[0]


def _ddf(f, p):
    """[(product of the factors of degree d, d)] of a squarefree monic f mod p."""
    out, h, d = [], [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _ppow(h, p, f, p)  # x^(p^d) mod f
        g = _pgcd(f, _padd(h, [0, 1], p, -1), p)
        if len(g) > 1:
            out.append((g, d))
            f = _pdivmod(f, g, p)[0]
            h = _pdivmod(h, f, p)[1]
    return out + [(f, len(f) - 1)] if len(f) > 1 else out


def _edf(f, d, p, rng):
    """Cantor-Zassenhaus: a monic f mod p split into its factors of degree d."""
    while len(f) - 1 > d:
        a = [rng.randrange(p) for _ in range(len(f) - 1)]
        g = _pgcd(f, _padd(_ppow(a, (p ** d - 1) // 2, f, p), [1], p, -1), p)
        if 1 < len(g) < len(f):
            return _edf(g, d, p, rng) + _edf(_pdivmod(f, g, p)[0], d, p, rng)
    return [f]


def _hensel(f, fs, p, M):
    """Lifts to M = p^(2^j) of the coprime monic factors fs of f mod p:
    two-factor Hensel steps (von zur Gathen & Gerhard, Alg. 15.10)."""
    if len(fs) == 1:
        return [_pmul(M, [pow(f[-1], -1, M)], f)]
    k, m = len(fs) // 2, p
    g, h = _pmul(p, [f[-1]], *fs[:k]), _pmul(p, [1], *fs[k:])
    s, t = _pxgcd(g, h, p)
    while m < M:
        m *= m
        e = _padd(f, _pmul(m, g, h), m, -1)
        q, r = _pdivmod(_pmul(m, s, e), h, m)
        g, h = _padd(g, _padd(_pmul(m, t, e), _pmul(m, q, g), m), m), _padd(h, r, m)
        b = _padd(_padd(_pmul(m, s, g), _pmul(m, t, h), m), [1], m, -1)
        c, d = _pdivmod(_pmul(m, s, b), h, m)
        s, t = _padd(s, d, m, -1), _padd(t, _padd(_pmul(m, t, b), _pmul(m, c, g), m), m, -1)
    return _hensel(g, fs[:k], p, M) + _hensel(h, fs[k:], p, M)


def _zdiv(a, b):
    """a / b over Z, or None when b does not divide a."""
    r, q = list(a), [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i], rem = divmod(r[i + len(b) - 1], b[-1])
        if rem:
            return None
        for j, y in enumerate(b):
            r[i + j] -= q[i] * y
    return None if any(r) else q


def _zassenhaus(f):
    """The irreducible factors over Z, primitive with positive leading
    coefficients, of a squarefree monic f over Q of degree >= 1."""
    den = math.lcm(*(c.denominator for c in f))
    f, best = [int(c * den) for c in f], []  # primitive, as f is monic
    # of the first 5 primes p >= 3 that keep f squarefree of its degree,
    # the one with the fewest factors mod p; one factor proves f irreducible
    for p in count(3, 2):
        if any(p % q == 0 for q in range(3, math.isqrt(p) + 1, 2)) or not f[-1] % p:
            continue
        fp = _pmul(p, [pow(f[-1], -1, p)], f)
        if len(_pgcd(fp, _red([k * c for k, c in enumerate(fp)][1:], p), p)) > 1:
            continue
        ddf = _ddf(fp, p)
        best.append((sum((len(g) - 1) // d for g, d in ddf), p, ddf))
        if best[-1][0] == 1:
            return [f]
        if len(best) == 5:
            break
    # Mignotte: g | f has |g|_1 <= 2^deg(f) |f|_2, so lc(f) g / lc(g) has coefficients
    # of size at most bound: the symmetric residue of lc(f) * its factors mod M > 2 bound
    _, p, ddf = min(best)
    bound, M = f[-1] * 2 ** (len(f) - 1) * (math.isqrt(sum(c * c for c in f)) + 1), p
    while M <= 2 * bound:
        M *= M
    rng = random.Random(0)
    us = _hensel(f, [u for g, d in ddf for u in _edf(g, d, p, rng)], p, M)

    def split(f, chosen):
        g = [c - M if 2 * c > M else c for c in _pmul(M, [f[-1]], *chosen)]
        d = math.gcd(*g)
        g = [c // d for c in g]
        q = _zdiv(f, g)
        return q and (g, q)

    return _recombine(f, us, split)


def _multisets(counts, s):
    """The vectors ks <= counts of sum s, the largest ks[0] first: with
    every count 1, the order of itertools.combinations."""
    if not counts:
        yield ()
        return
    for k in range(min(counts[0], s), max(s - sum(counts[1:]), 0) - 1, -1):
        for ks in _multisets(counts[1:], s - k):
            yield (k,) + ks


def _recombine(f, pieces, split):
    """The factors of f made by products of sub-multisets of its pieces,
    each tried once, the smallest first and none over half the pieces
    (the complement comes first); split(f, chosen) is (factor, cofactor)
    or None."""
    kinds = [[u, pieces.count(u)] for i, u in enumerate(pieces) if u not in pieces[:i]]
    out, s = [], 1
    while 2 * s <= sum(m for _, m in kinds):
        for ks in _multisets([m for _, m in kinds], s):
            found = split(f, [u for (u, _), k in zip(kinds, ks) for _ in range(k)])
            if found:
                (g, f), kinds = found, [[u, m - k] for (u, m), k in zip(kinds, ks) if m > k]
                out.append(g)
                break
        else:
            s += 1
    return out + [f]


def factor_bivariate_q(F):
    """Irreducible factorization over Q of a nonconstant F(y, z) with
    rational coefficients: [(factor, multiplicity)], primitive over Z
    with positive leading coefficients (highest y, then z), ordered by
    deg_y, multiplicity, then the dense rows (y, then z, descending).
    Kronecker's map y -> x, z -> x^D, D = deg_y F + 1, is one to one on
    the divisors of F once its monomial content y^a z^b is taken out."""
    terms = {k: rational(c) for k, c in F.terms.items()}
    a, b, D = min(i for i, _ in terms), min(j for _, j in terms), F.deg_y + 1

    def image(f):
        e = {i + D * j: c for (i, j), c in f.terms.items()}
        return UniPoly([e.get(k, 0) for k in range(max(e) + 1)])

    def back(p):
        return BiPoly({(e % D, e // D): c for e, c in enumerate(p.coeffs) if c})

    def split(f, chosen):
        # a factor g of f has deg_y lc_z(g) = deg image(g) mod D <= deg_y lc_z(f)
        fx = image(f)
        if sum(u.degree for u in chosen) % D > fx.degree % D:
            return None
        g = math.prod(chosen)
        g, h = back(g), back(fx.exact_div(g))
        return (g, h) if g * h == f else None

    # monic times the lcm of its denominators is primitive, and so are products
    content_free = BiPoly({(i - a, j - b): c for (i, j), c in terms.items()})
    pieces = [f.scale(math.lcm(*(c.denominator for c in f.coeffs)))
              for f, m in factor_q(image(content_free)) for _ in range(m)]
    found = [BiPoly.variable("y")] * a + [BiPoly.variable("z")] * b
    if pieces:
        found += _recombine(back(math.prod(pieces)), pieces, split)
    counts = Counter(-g if g.terms[max(g.terms)] < 0 else g for g in found)
    return sorted(counts.items(), key=lambda gm: (gm[0].deg_y, gm[1], [
        r.coeffs[::-1] for r in reversed(gm[0].columns("z"))]))


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
    return sorted(((h, m) for g, m in squarefree_decomposition(p)
                   for h in _trager_irreducible(g, tower)), key=_factor_key)


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
    return resultant_lists(apolys, bpolys, p.var)[0], sub


def _trager_irreducible(g, tower):
    """Irreducible factors of a squarefree monic g over a tower of
    height >= 1 (Trager's norm reduction)."""
    theta = tower.generator(tower.height - 1)
    for s in [0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5]:
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
    if sum(f.degree for f in out) != g.degree:
        raise ArithmeticError("Trager factorization lost degree")
    return out


# ---------------------------------------------------------------------------
# roots


def _sorted_roots(roots):
    roots = list(roots)   # sorted() would compute the key of a lone root
    return sorted(roots, key=lambda rm: rm[0].sort_key()) if len(roots) > 1 else roots


def _linear_roots(factors, tower):
    """The roots of the linear factors of a factor list, sorted."""
    return _sorted_roots((-as_alg(f.coeffs[0], tower), m)
                         for f, m in factors if f.degree == 1)


def roots_in_tower(p, tower):
    """All roots of p lying in the tower, with multiplicities, sorted by
    numeric enclosure (re, im lexicographic, ascending)."""
    return _linear_roots(factor_over_tower(p, tower), tower)


_ODD_PRIMES = [p for p in range(3, 400, 2) if all(p % q for q in range(3, math.isqrt(p) + 1))]


def _horner_mod(f, x, p):
    return reduce(lambda acc, c: (acc * x + c) % p, reversed(f), 0)


def _rep_mod(rep, level, gens, p):
    """phi(rep) in F_p for theta_k -> gens[k - 1]; ValueError where p divides a denominator."""
    if level == 0:
        return rep.numerator * pow(rep.denominator, -1, p) % p
    return _horner_mod([_rep_mod(c, level - 1, gens, p) for c in rep], gens[level - 1], p)


def no_eth_root(c, e, tower):
    """True when a prime p < 400 proves that x^e - c has no root in the
    tower: each generator goes to a simple root mod p of its minimal
    polynomial, so p is unramified there (Dedekind's criterion), and a
    root mu would make phi(c) = phi(mu)^e an e-th power.  False proves nothing."""
    for p in _ODD_PRIMES:
        gens = []
        try:
            for i, lev in enumerate(tower.levels):
                f = [_rep_mod(a, i, gens, p) for a in lev.minpoly]
                gens.append(next(x for x in range(p) if not _horner_mod(f, x, p)
                                 and _horner_mod([k * a for k, a in enumerate(f)][1:], x, p)))
            v = _rep_mod(c.rep, c.level, gens, p)
        except (ValueError, StopIteration):  # p divides a denominator, or no simple root
            continue
        if v and pow(v, (p - 1) // math.gcd(e, p - 1), p) != 1:
            return True
    return False


def _factor_reps(f, tower):
    cs = [as_alg(c, tower) for c in f.coeffs]
    return [rep_lift(c.rep, c.level, tower.height) for c in cs]


def extend_by_factor(tower, f, box, name=None, cap=DEFAULT_DEGREE_CAP):
    """Extend the tower by an irreducible monic factor pinned at ``box``."""
    if tower.degree() * f.degree > cap:
        raise ExtensionLimitExceeded(
            "extension degree %d exceeds cap %d" % (tower.degree() * f.degree, cap),
            tower=tower)
    lev = Level(name or "a%d" % (tower.height + 1), tuple(_factor_reps(f, tower)), box)
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


def _roots(factors, tower, prec=0):
    """(factor, multiplicity, root, box) per root of a factor list, in
    factor order: a linear factor's root lifted into the tower with no
    box, else one isolating box of width <= 2^-prec per root with no root."""
    for f, m in factors:
        if f.degree == 1:
            yield f, m, -lift(f.coeffs[0], tower), None
        else:
            for box in isolate_roots(tower, _factor_reps(f, tower), tower.height,
                                     min_prec=prec):
                yield f, m, None, box


def roots_by_factor(p, tower, cap=DEFAULT_DEGREE_CAP):
    """All roots of p over the algebraic closure, in factor order;
    [(root, multiplicity)].  A root of a linear factor is homed in the
    tower; each root of a nonlinear factor gets the tower extended by
    that factor, pinned at the root's isolating box."""
    return [(root if box is None else extend_by_factor(tower, f, box, cap=cap)[1], m)
            for f, m, root, box in _roots(factor_over_tower(p, tower), tower)]


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
        hits = [(f, root, box) for f, _, root, box in _roots(factors, tower, prec)
                if accept(root.box(prec) if box is None else box, prec)]
        if len(hits) == 1:
            f, root, box = hits[0]
            if box is None:
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
    for f, _ in factor_q(_rationalize(p)):
        if f.eval(x) == 0:
            return f
    raise ArithmeticError("minimal polynomial selection failed")


def alg_eq(x, y):
    """Exact equality of algebraic numbers, across towers."""
    x, y = as_alg(x), as_alg(y)
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
    mapped = [_map_rep(c, level - 1, imgs, target) for c in rep]
    return lift(horner(mapped, imgs[level - 1]), target)
