"""Command-line front end.

Subcommands: solve, classify, places, critical, constants, direct,
bound.  Exit codes: 0 success, also when the reader closes the output
pipe early (the rest of the output is dropped), 2 input validation
failure, 3 resource limit (tower degree cap).
"""

import argparse
import json
import os
import sys

from .errors import ExtensionLimitExceeded, SolverError
from .numbers import DEFAULT_DEGREE_CAP, AlgebraicNumber, scalar_json
from .parsing import parse_initial_tuple, parse_polynomial
from .poly import validate_input
from .puiseux import default_bound, places_at
from .solver import (classify, constant_solutions, critical_set,
                     direct_method, solve_at)


def _at_least_one(text):
    """The type of every integer option: an int >= 1, else exit 2."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError("expected an integer >= 1, got %r" % text)
    return int(text)


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="aodesolve",
        description="Exact power series solutions of first-order autonomous "
                    "algebraic ODEs F(y, y') = 0 via places of the curve "
                    "F(y, z) = 0.")
    sub = ap.add_subparsers(dest="command", required=True)
    # each subcommand registers only the options it reads
    for name, text, opts in (
            ("solve", "solutions at an initial tuple", ("at", "order", "cap")),
            ("direct", "separant recursion at a tuple", ("at", "order", "cap")),
            ("classify", "partition initial tuples by solution count", ("cap",)),
            ("places", "places at every critical point", ("order", "cap")),
            ("critical", "the critical set", ("cap",)),
            ("constants", "constant solutions", ("cap",)),
            ("bound", "singular-part truncation bound", ())):
        p = sub.add_parser(name, help=text)
        p.add_argument("--ode", required=True, help="polynomial in y and y'")
        if "at" in opts:
            p.add_argument("--at", required=True, metavar="C0,C1",
                           help="initial tuple, e.g. \"1, sqrt(2)\"")
        if "order" in opts:
            p.add_argument("--order", type=_at_least_one, default=None, metavar="N",
                           help="truncation order (N >= 1)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if "cap" in opts:
            p.add_argument("--degree-cap", type=_at_least_one, default=DEFAULT_DEGREE_CAP,
                           help="maximum tower extension degree (default %d)"
                                % DEFAULT_DEGREE_CAP)
    return ap


def _coord_str(c):
    """Exact rendering, plus a numeric hint to tell embeddings apart."""
    if c.is_rational():
        return str(c)
    v = c.complex()
    if abs(v.imag) < 1e-12:
        hint = "%.6g" % v.real
    else:
        hint = "%.6g%+.6gi" % (v.real, v.imag)
    return "%s~%s" % (c, hint)


def _render_point(p):
    return "(%s, %s)" % (_coord_str(p.y), _coord_str(p.z))


def _render_solution(series):
    """y(t) = ..., then the hint of every generator its coefficients
    name, so solutions in sibling towers (both naming a1) differ."""
    line = "y(t) = %s\n" % series.render()
    top = max((c for c in series.coeffs if isinstance(c, AlgebraicNumber)),
              key=lambda c: c.level, default=None)
    if top is not None and top.level:
        line += "  where %s\n" % ", ".join(_coord_str(top.tower.generator(i))
                                            for i in range(top.level))
    return line


def _write_json(obj, out):
    json.dump(obj, out, sort_keys=True)
    out.write("\n")


def _run(args, out):
    F = parse_polynomial(args.ode)
    F = validate_input(F)

    if args.command == "bound":
        n = default_bound(F)
        if args.format == "json":
            _write_json({"bound": n}, out)
        else:
            out.write("%d\n" % n)
        return 0

    cap = args.degree_cap
    if args.command == "constants":
        consts = constant_solutions(F, cap)
        if args.format == "json":
            _write_json({"constants": [scalar_json(c) for c in consts]}, out)
        else:
            out.write("constants: %s\n" % ", ".join(_coord_str(c) for c in consts))
        return 0

    if args.command == "critical":
        crit = critical_set(F, cap)
        if args.format == "json":
            _write_json({"critical": crit.to_json()}, out)
        else:
            for p, tags in crit:
                out.write("%s  [%s]\n" % (_render_point(p), ", ".join(sorted(tags))))
        return 0

    if args.command == "classify":
        cl = classify(F, cap=cap)
        if args.format == "json":
            _write_json(cl.to_json(), out)
        else:
            for i in sorted(cl.buckets):
                pts = ", ".join(_render_point(p) for p in cl.buckets[i])
                out.write("A%d = {%s}\n" % (i, pts))
            comp = ", ".join(_render_point(p) for p in cl.complement_of)
            extra = ", ".join(_render_point(p) for p in cl.a1_extra)
            line = "A1 = C(F) \\ {%s}" % comp
            if extra:
                line += " plus {%s}" % extra
            out.write(line + "\n")
            out.write("constants = {%s}\n"
                      % ", ".join(_coord_str(c) for c in cl.constants))
        return 0

    if args.command == "places":
        n = args.order or default_bound(F)
        crit = critical_set(F, cap)
        records = []
        for p, _tags in crit:
            records.append((p, places_at(F, p, n, cap=cap)))
        if args.format == "json":
            _write_json({"places": [{"center": p.to_json(),
                                     "places": [pl.to_json() for pl in pls]}
                                    for p, pls in records]}, out)
        else:
            for p, pls in records:
                out.write("center %s:\n" % _render_point(p))
                for pl in pls:
                    out.write("  (A, B) = (%s, %s)\n"
                              % (pl.A.render(), pl.B.render()))
        return 0

    # solve / direct need the tuple
    c0, c1, _tower = parse_initial_tuple(args.at, cap=cap)
    if args.command == "solve":
        sols = solve_at(F, (c0, c1), args.order, cap=cap)
        if args.format == "json":
            _write_json({"solutions": [s.to_json() for s in sols]}, out)
        else:
            if not sols:
                out.write("no non-constant solutions\n")
            for s in sols:
                out.write(_render_solution(s.series))
        return 0

    if args.command == "direct":
        n = args.order or 6
        sol = direct_method(F, (c0, c1), n)
        if args.format == "json":
            _write_json({"solution": sol.to_json()}, out)
        else:
            out.write(_render_solution(sol.series))
        return 0

    raise ValueError("unknown command %r" % args.command)


def main(argv=None, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    args = _build_parser().parse_args(argv)
    try:
        code = _run(args, out)
        out.flush()  # a closed pipe shows here, not in the exit-time flush
        return code
    except BrokenPipeError:
        if out is sys.stdout:  # the exit-time flush then writes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ExtensionLimitExceeded as exc:
        err.write("resource limit: %s\n" % exc)
        return 3
    except (SolverError, ValueError) as exc:
        pos = getattr(exc, "position", None)
        if pos is not None:
            err.write("error: %s (at offset %d)\n" % (exc, pos))
        else:
            err.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
