"""Text grammar for ODE polynomials and initial tuples.

Polynomial grammar (variables y and y', alias z):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' integer)?
    atom   := '-' factor | rational | 'y' | "y'" | 'z' | '(' expr ')'

Initial tuples are two comma-separated scalars; scalars allow the same
operators plus '/', sqrt(q) and root(<poly in x>, <index>), the index
counting roots in the deterministic enclosure order (1-based).
"""

import re
from fractions import Fraction

from .errors import ParseError
from .numbers import QQ, AlgebraicNumber, lift
from .poly import BiPoly, UniPoly
from . import factor as _factor

_TOKEN = re.compile(r"\s*(?:(\d+)|(y')|([yzx])|(sqrt|root)|([()+\-*/^,]))")


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.items = []  # (kind, value, position)
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None or m.end() == pos:
                if text[pos:].strip() == "":
                    break
                raise ParseError("unexpected character %r" % text[pos:pos + 1],
                                 position=pos)
            start = m.start(m.lastindex)
            if m.group(1):
                self.items.append(("int", int(m.group(1)), start))
            elif m.group(2):
                self.items.append(("yprime", "y'", start))
            elif m.group(3):
                self.items.append(("var", m.group(3), start))
            elif m.group(4):
                self.items.append(("func", m.group(4), start))
            else:
                self.items.append(("op", m.group(5), start))
            pos = m.end()
        self.items.append(("eof", None, len(text)))
        self.i = 0

    def peek(self):
        return self.items[self.i]

    def next(self):
        tok = self.items[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError("expected %r" % op, position=pos)


class _Parser:
    """Recursive descent.  With no tower it builds a BiPoly over Q in the
    ``allowed`` variables (y/y'/z for ODEs, x for root() polynomials);
    with a tower it builds tower scalars and also accepts '/', sqrt(q)
    and root(<poly in x>, <index>), each adjoined to the tower."""

    def __init__(self, tokens, allowed=("y", "y'", "z"), tower=None,
                 cap=_factor.DEFAULT_DEGREE_CAP):
        self.t = tokens
        self.allowed = allowed
        self.tower = tower
        self.cap = cap

    def parse(self):
        v = self.expr()
        kind, _, pos = self.t.peek()
        if kind != "eof":
            raise ParseError("trailing input", position=pos)
        return v

    def expr(self):
        v = self.term()
        while True:
            kind, val, _ = self.t.peek()
            if kind == "op" and val in "+-":
                self.t.next()
                w = self.term()
                v = v + w if val == "+" else v - w
            else:
                return v

    def term(self):
        ops = "*" if self.tower is None else "*/"
        v = self.factor()
        while True:
            kind, val, _ = self.t.peek()
            if kind == "op" and val in ops:
                self.t.next()
                w = self.factor()
                v = v * w if val == "*" else v / w
            else:
                return v

    def factor(self):
        v = self.atom()
        kind, val, _ = self.t.peek()
        if kind == "op" and val == "^":
            self.t.next()
            k, n, pos = self.t.next()
            if k != "int":
                raise ParseError("exponent must be a nonnegative integer",
                                 position=pos)
            v = v ** n
        return v

    def atom(self):
        kind, val, pos = self.t.next()
        if kind == "op" and val == "-":
            return -self.factor()
        if kind == "int":
            num = val
            k2, v2, _ = self.t.peek()
            if k2 == "op" and v2 == "/":
                self.t.next()
                k3, den, pos3 = self.t.next()
                if k3 != "int" or den == 0:
                    raise ParseError("malformed rational literal", position=pos3)
                return self.const(Fraction(num, den))
            return self.const(Fraction(num))
        if kind == "op" and val == "(":
            v = self.expr()
            self.t.expect_op(")")
            return v
        if self.tower is not None:
            if kind == "func":
                return self.function(val, pos)
            raise ParseError("expected a scalar", position=pos)
        if kind == "yprime":
            if "y'" not in self.allowed:
                raise ParseError("y' not allowed here", position=pos)
            return BiPoly.variable("z")
        if kind == "var":
            if val in self.allowed:
                # x, the one variable of a root() polynomial, is stored on the y-axis
                return BiPoly.variable("z" if val == "z" else "y")
            raise ParseError("unknown identifier %r" % val, position=pos)
        raise ParseError("expected a term", position=pos)

    def const(self, q):
        return BiPoly({(0, 0): q}) if self.tower is None else AlgebraicNumber(self.tower, 0, q)

    def function(self, name, pos):
        """sqrt(q) or root(<poly in x>, <index>), its root in the grown tower."""
        self.t.expect_op("(")
        if name == "sqrt":
            v = self.expr()
            if not v.is_rational():
                raise ParseError("sqrt expects a rational argument", position=pos)
            q = v.as_fraction()
            self.t.expect_op(")")
            pol = UniPoly([-q, Fraction(0), Fraction(1)], "x")
            self.tower, root = _factor.adjoin_root(self.tower, pol,
                                                   name="sqrt(%s)" % q, cap=self.cap)
            return lift(root, self.tower)
        polybi = _Parser(self.t, allowed=("x",)).expr()
        self.t.expect_op(",")
        k, idx, pos2 = self.t.next()
        if k != "int" or idx < 1:
            raise ParseError("root index must be a positive integer", position=pos2)
        self.t.expect_op(")")
        pol = UniPoly([], "x") + polybi[0]  # only x parses: polybi is one z^0 column
        roots = _factor.all_roots(pol, self.tower, cap=self.cap)
        if idx > len(roots):
            raise ParseError("root index out of range", position=pos2)
        root = roots[idx - 1][0]
        self.tower = root.tower
        return root


def parse_polynomial(text):
    """Parse an ODE polynomial F(y, y')."""
    return _Parser(_Tokens(text)).parse()


def parse_initial_tuple(text, cap=_factor.DEFAULT_DEGREE_CAP):
    """Parse "c0, c1" into two values and the tower they adjoin to Q."""
    tokens = _Tokens(text)
    p = _Parser(tokens, tower=QQ, cap=cap)
    c0 = p.expr()
    tokens.expect_op(",")
    c1 = p.parse()
    return lift(c0, p.tower), lift(c1, p.tower), p.tower
