"""Seeded inputs for the four workloads.

Every input is a CLI argument list for ``aodesolve``.  Generation uses
``random.Random(seed)`` only and never imports the package under test,
so two commits given one seed run byte-identical inputs.  No input is
filtered at run time; the one fixed exclusion is POOL_FAILING, below.

A workload is a short list of distinct inputs that the closed loop
cycles through (``cycle``) plus paper cases run once after the timed
section with a pinned output hash (``golden``).
"""

import hashlib
import json
import random
from math import isqrt

EX1 = "(y')^2 - y^3 - y^2"
SOLVE_ORDER = 25
PLACES_ORDER = 6

# Ex1 paper cases; their hashes are pinned in golden.json
EX1_GOLDEN = (
    ["solve", "--ode", EX1, "--at", "-1, 0", "--order", "4", "--format", "json"],
    ["solve", "--ode", EX1, "--at", "1, sqrt(2)", "--order", "20",
     "--format", "json"],
)


def ex2(a):
    """The Ex2 family ((y'-a)^2 + y^2)^3 - 4*(y'-a)^2*y^2; a = 1 in the paper."""
    shift = "y'-%s" % a if a > 0 else "y'+%s" % -a
    return "((%s)^2 + y^2)^3 - 4*(%s)^2*y^2" % (shift, shift)


def _squarefree_split(n):
    """n = k^2 * d with d squarefree; returns (k, d)."""
    k, d, f = 1, 1, 2
    while f * f <= n:
        while n % (f * f) == 0:
            n //= f * f
            k *= f
        if n % f == 0:
            n //= f
            d *= f
        f += 1
    return k, d * n


def _ex1_point(c, sign):
    """(c, sign * sqrt(c^3 + c^2)) on Ex1 for an integer c > 0, rendered for
    --at as "c, m*sqrt(d)" with d squarefree (just "c, m" when d = 1)."""
    k, d = _squarefree_split(c + 1)   # c^2 (c + 1) = (c k)^2 d
    m = sign * c * k
    if d == 1:
        return "%d, %d" % (c, m)
    if abs(m) == 1:
        return "%d, %ssqrt(%d)" % (c, "-" if m < 0 else "", d)
    return "%d, %d*sqrt(%d)" % (c, m, d)


# the c of solve_deep's points (c, ±sqrt(c^3 + c^2)): over Q where c + 1
# is a square, else over Q(sqrt(d))
RATIONAL_C = [c for c in range(1, 17) if isqrt(c + 1) ** 2 == c + 1]
QUADRATIC_C = [c for c in range(1, 17) if isqrt(c + 1) ** 2 != c + 1]
# the a of the Ex2 family that places_deep and classify_ex2 draw from
EX2_A = [a for a in range(-4, 5) if a]


def _solve(c, sign):
    return ["solve", "--ode", EX1, "--at", _ex1_point(c, sign),
            "--order", str(SOLVE_ORDER), "--format", "json"]


def _places(a):
    return ["places", "--ode", ex2(a), "--order", str(PLACES_ORDER), "--format", "json"]


def _classify(a):
    return ["classify", "--ode", ex2(a), "--format", "json"]


def pinned_inputs():
    """Every input the workloads can draw.  golden.json pins the output
    hash of each, so every output is compared byte for byte with the
    commit that pinned it."""
    return ([_solve(c, sign) for c in RATIONAL_C + QUADRATIC_C for sign in (1, -1)]
            + [_places(a) for a in EX2_A] + [_classify(a) for a in EX2_A]
            + critical_pool())


def solve_deep(rng):
    # two points where c + 1 is a square (rational tower) and ten over
    # Q(sqrt(d)), with integer c: input cost then varies little by seed, and
    # the median op falls inside the Q(sqrt(d)) group
    cs = rng.sample(RATIONAL_C, 2) + rng.sample(QUADRATIC_C, 10)
    rng.shuffle(cs)
    return [_solve(c, rng.choice((1, -1))) for c in cs], list(EX1_GOLDEN)


def _ex2_values(rng):
    """a = 1 (the paper's case), then 2, 3 and 4 in seeded order with
    seeded signs, then the negatives of those four.  Costs differ by |a|,
    while a and -a give mirror curves (y' -> -y') that cost the same, so
    a run of four calls covers |a| = 1, ..., 4 once whatever the seed,
    and a run of eight covers every value of EX2_A."""
    half = [1] + [rng.choice((1, -1)) * a for a in rng.sample((2, 3, 4), 3)]
    return half + [-a for a in half]


def places_deep(rng):
    return [_places(a) for a in _ex2_values(rng)], []


def classify_ex2(rng):
    return [_classify(a) for a in _ex2_values(rng)], []


def _term(c, i, j):
    parts = []
    if i:
        parts.append("y" if i == 1 else "y^%d" % i)
    if j:
        parts.append("(y')" if j == 1 else "(y')^%d" % j)
    if not parts:
        return str(c)
    return "*".join(([str(c)] if c != 1 else []) + parts)


def random_curve(rng, degree=4, zdegree=3, height=5):
    """A dense curve of total degree ``degree`` and degree ``zdegree`` in
    y', with nonzero integer coefficients in [-height, height]."""
    coeffs = {(i, d - i): rng.choice([k for k in range(-height, height + 1) if k])
              for d in range(degree + 1) for i in range(d + 1) if d - i <= zdegree}
    text = " + ".join(_term(c, i, j) for (i, j), c in coeffs.items())
    return text.replace("+ -", "- ")


# critical_random runs a fixed pool of random curves, the draws of
# random_curve with the seeds "critical_pool:<i>", in seeded order.  A
# run holds 10 or 11 calls, so it covers nearly all of the pool whatever
# the seed, and its median does not depend on which curves a seed draws.
POOL_SIZE = 13
# The pool curve on which `critical` fails at the commit this benchmark
# was written for, with "ArithmeticError: enclosure refinement stalled"
# (ROADMAP O4).  The benchmark's contract asks for workloads on which no
# operation fails, so critical_random leaves it out, and selfcheck.py
# checks that it still fails that way: once O4 is fixed it reports it,
# and it goes back into the pool.
POOL_FAILING = (12,)


def _critical(curve):
    return ["critical", "--ode", curve, "--format", "json"]


def critical_pool(failing=False):
    """The pool's inputs that fail (``failing``) or those that do not."""
    return [_critical(random_curve(random.Random("critical_pool:%d" % i)))
            for i in range(POOL_SIZE) if (i in POOL_FAILING) == failing]


def critical_random(rng):
    pool = critical_pool()
    return rng.sample(pool, len(pool)), []


WORKLOADS = {
    "solve_deep": solve_deep,
    "places_deep": places_deep,
    "classify_ex2": classify_ex2,
    "critical_random": critical_random,
}


def build(name, seed):
    """(cycle, golden, digest): the inputs for one run and their sha256."""
    cycle, golden = WORKLOADS[name](random.Random("%s:%d" % (name, seed)))
    blob = json.dumps({"cycle": cycle, "golden": golden}, sort_keys=True)
    return cycle, golden, hashlib.sha256(blob.encode()).hexdigest()
