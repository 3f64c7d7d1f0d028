import argparse
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from aodesolve.cli import _build_parser, main
from aodesolve.errors import ParseError
from aodesolve.parsing import parse_initial_tuple, parse_polynomial
from aodesolve.poly import BiPoly
from conftest import make_ex1, make_ex2


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_parse_example1():
    assert parse_polynomial("(y')^2 - y^3 - y^2") == make_ex1()


def test_parse_example2():
    got = parse_polynomial("((y'-1)^2 + y^2)^3 - 4*(y'-1)^2*y^2")
    assert got == make_ex2()


def test_parse_z_alias():
    assert parse_polynomial("z^2 - y^3 - y^2") == make_ex1()


def test_parse_rationals_and_unary_minus():
    got = parse_polynomial("-1/2*y + y'")
    assert got == BiPoly({(1, 0): F(-1, 2), (0, 1): F(1)})


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_polynomial("y -")
    assert exc.value.position == 3
    # sqrt and root are scalar functions, not terms of an ODE polynomial
    with pytest.raises(ParseError) as exc:
        parse_polynomial("y + sqrt(2)")
    assert str(exc.value) == "expected a term" and exc.value.position == 4


def test_parse_unknown_identifier():
    with pytest.raises(ParseError):
        parse_polynomial("y + w")


def test_parse_render_round_trip():
    for B in (make_ex1(), make_ex2(),
              BiPoly({(2, 3): F(7, 2), (0, 1): F(-1), (0, 0): F(5)})):
        assert parse_polynomial(B.render()) == B


def test_parse_tuple_rational():
    c0, c1, tower = parse_initial_tuple("0, 1")
    assert c0 == 0 and c1 == 1


def test_parse_tuple_sqrt():
    c0, c1, tower = parse_initial_tuple("1, sqrt(2)")
    assert c0 == 1
    assert (c1 * c1) == 2
    assert c1.box(20).re_lo > 0
    # '/' divides scalars, and a parenthesised factor multiplies sqrt
    c0, c1, tower = parse_initial_tuple("(1 + 1)/2, (3 - 1)*sqrt(2)")
    assert c0 == 1
    assert (c1 * c1) == 8 and c1.box(20).re_lo > 0


def test_parse_tuple_root_indexing():
    c0, c1, tower = parse_initial_tuple("root(x^2-3, 1), 0")
    assert (c0 * c0) == 3
    assert c0.box(20).re_hi < 0  # first root in enclosure order is -sqrt(3)
    c0b, _, _ = parse_initial_tuple("root(x^2-3, 2), 0")
    assert c0b.box(20).re_lo > 0


def test_parse_tuple_root_out_of_range():
    with pytest.raises(ParseError):
        parse_initial_tuple("root(x^2-3, 5), 0")


def test_parse_tuple_errors():
    with pytest.raises(ParseError):
        parse_initial_tuple("1")
    with pytest.raises(ParseError) as exc:
        parse_initial_tuple("y, 1")
    assert str(exc.value) == "expected a scalar" and exc.value.position == 0


@pytest.mark.parametrize("text, message, position", [
    ("root(y^2-3, 1), 0", "unknown identifier 'y'", 5),
    ("root(x*y' - 1, 1), 0", "y' not allowed here", 7),
    ("root(z^2-3,1), 0", "unknown identifier 'z'", 5),
])
def test_parse_tuple_root_admits_only_x(text, message, position):
    with pytest.raises(ParseError) as exc:
        parse_initial_tuple(text)
    assert str(exc.value) == message and exc.value.position == position


def test_cli_solve_rejects_root_of_a_non_x_polynomial():
    code, out, err = run_cli("solve", "--ode", "(y')^2 - y^3 - y^2",
                             "--at", "root(y^2-3, 1), 0")
    assert code == 2 and out == "" and "unknown identifier 'y'" in err


def test_cli_solve_paper_line():
    code, out, err = run_cli("solve", "--ode", "(y')^2 - y^3 - y^2",
                             "--at", "-1, 0", "--order", "4")
    assert code == 0 and err == ""
    assert out == "y(t) = -1 + 1/4*t^2 - 1/24*t^4 + O(t^5)\n"


def test_cli_solve_empty_set():
    code, out, _ = run_cli("solve", "--ode", "(y'-1)^2 - y^3", "--at", "0, 1")
    assert code == 0
    assert "no non-constant solutions" in out


def test_cli_classify_example1():
    code, out, _ = run_cli("classify", "--ode", "(y')^2 - y^3 - y^2")
    assert code == 0
    assert "A0 = {(0, 0)}" in out
    assert "constants = {-1, 0}" in out


def test_cli_bound():
    code, out, _ = run_cli("bound", "--ode", "(y')^2 - y^3 - y^2")
    assert code == 0 and out.strip() == "9"


def test_cli_constants_and_critical():
    code, out, _ = run_cli("constants", "--ode", "(y')^2 - y^3 - y^2")
    assert code == 0 and out.strip() == "constants: -1, 0"
    code, out, _ = run_cli("critical", "--ode", "(y')^2 - y^3 - y^2")
    assert code == 0
    assert "(-1, 0)" in out and "(0, 0)" in out


def test_cli_direct():
    code, out, _ = run_cli("direct", "--ode", "(y')^2 - y^3 - y^2",
                           "--at", "1, sqrt(2)", "--order", "3")
    assert code == 0
    assert out.startswith("y(t) = 1 + sqrt(2)*t + 5/4*t^2")


def test_cli_validation_exit_codes():
    code, _, err = run_cli("solve", "--ode", "(y')^2 - y^2", "--at", "0, 0")
    assert code == 2 and "reducible" in err
    code, _, err = run_cli("solve", "--ode", "y -", "--at", "0, 0")
    assert code == 2 and "offset 3" in err
    code, _, err = run_cli("bound", "--ode", "y' - 5")
    assert code == 2
    code, _, err = run_cli("bound", "--ode", "y^2 - 1")
    assert code == 2


def test_cli_resource_exit_code():
    code, _, err = run_cli("solve", "--ode", "(y')^2 - y^3 - y^2",
                           "--at", "root(x^5-2, 1), 0", "--degree-cap", "3")
    assert code == 3


def test_cli_degree_cap_applies_to_critical_and_constants():
    # y^3 = 2 on the line z = 0 needs a degree-3 root
    for command in ("critical", "constants"):
        code, _, err = run_cli(command, "--ode", "(y')^2 - y^3 + 2",
                               "--degree-cap", "1")
        assert code == 3 and "resource limit" in err


def test_cli_rejects_an_option_the_subcommand_does_not_read():
    with pytest.raises(SystemExit) as exc:
        run_cli("bound", "--ode", "(y')^2 - y^3 - y^2", "--order", "3")
    assert exc.value.code == 2


def test_cli_classify_has_no_order_option():
    with pytest.raises(SystemExit) as exc:
        run_cli("classify", "--order", "3", "--ode", "(y')^2 - y^3 - y^2")
    assert exc.value.code == 2


def test_cli_classify_has_no_jobs_option():
    with pytest.raises(SystemExit) as exc:
        run_cli("classify", "--jobs", "2", "--ode", "(y')^2 - y^3 - y^2")
    assert exc.value.code == 2


def test_cli_option_sets_are_pinned():
    # a new option fails here, so the count of option slots stays in the tests
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: sorted(opt for a in p._actions for opt in a.option_strings
                            if opt.startswith("--") and opt != "--help")
               for name, p in sub.choices.items()}
    assert options == {
        "solve": ["--at", "--degree-cap", "--format", "--ode", "--order"],
        "direct": ["--at", "--degree-cap", "--format", "--ode", "--order"],
        "classify": ["--degree-cap", "--format", "--ode"],
        "places": ["--degree-cap", "--format", "--ode", "--order"],
        "critical": ["--degree-cap", "--format", "--ode"],
        "constants": ["--degree-cap", "--format", "--ode"],
        "bound": ["--format", "--ode"],
    }
    assert sum(map(len, options.values())) == 25


def test_cli_json_solve_round_trip():
    code, out, _ = run_cli("solve", "--ode", "(y')^2 - y^3 - y^2",
                           "--at", "-1, 0", "--order", "4", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert len(rec["solutions"]) == 1
    coeffs = rec["solutions"][0]["series"]["coeffs"]
    assert coeffs[0] == "-1" and coeffs[2] == "1/4" and coeffs[4] == "-1/24"


def test_cli_json_classify():
    code, out, _ = run_cli("classify", "--ode", "(y')^2 - y^3 - y^2",
                           "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert "A0" in rec and "A1" in rec and "constants" in rec
    assert len(rec["A1"]["complement_of"]) == 2
    assert len(rec["A1"]["extra"]) == 1


def test_cli_determinism():
    a = run_cli("classify", "--ode", "(y')^2 - y^3 - y^2", "--format", "json")
    b = run_cli("classify", "--ode", "(y')^2 - y^3 - y^2", "--format", "json")
    assert a == b


def test_cli_places():
    code, out, _ = run_cli("places", "--ode", "(y')^2 - y^3 - y^2",
                           "--order", "6")
    assert code == 0
    assert "center (-1, 0):" in out
    assert "(-1 + t^2, t - t^3)" in out


@pytest.mark.parametrize("argv", [
    ("classify", "--degree-cap", "-3"),
    ("classify", "--degree-cap", "0"),
    ("critical", "--degree-cap", "-5"),
    ("constants", "--degree-cap", "0"),
    ("places", "--order", "0"),
    ("direct", "--at", "3, 6", "--order", "-1"),
    ("solve", "--at", "3, 6", "--order", "0"),
    ("solve", "--at", "3, 6", "--order", "two"),
])
def test_cli_integer_options_must_be_at_least_one(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--ode", "(y')^2 - y^3 - y^2")
    assert exc.value.code == 2
    assert "expected an integer >= 1" in capsys.readouterr().err


def test_cli_solve_separates_solutions_that_agree_at_the_start():
    # both places at (0, 0) have e = 2 and multiplicity 2; the solutions
    # agree up to t^6 (resp. t^4), so their orders are raised to 7 (resp. 5)
    code, out, _ = run_cli("solve", "--ode", "((y')^2 - y)^2 - y^7", "--at", "0, 0")
    assert code == 0
    assert out == ("y(t) = 1/4*t^2 - 1/768*t^7 + O(t^8)\n"
                   "y(t) = 1/4*t^2 + 1/768*t^7 + O(t^8)\n")
    for order in ("1", "2", "3", "4", "5"):
        code, out, _ = run_cli("solve", "--ode", "((y')^2 - y)^2 - y^5",
                               "--at", "0, 0", "--order", order)
        assert code == 0
        assert out == ("y(t) = 1/4*t^2 - 1/128*t^5 + O(t^6)\n"
                       "y(t) = 1/4*t^2 + 1/128*t^5 + O(t^6)\n")


def test_cli_solve_text_names_the_root_of_each_generator():
    # the two solutions live in sibling towers Q(a1), a1 = -i/2 and a1 = i/2,
    # so only the generator hint after each series tells them apart
    code, out, _ = run_cli("solve", "--ode", "((y')^2 + y)^2 - y^5*(y'+1)", "--at", "0, 0")
    assert code == 0
    series = "y(t) = -1/4*t^2 + 1/64*a1*t^5 - 1/320*a1*t^6 + O(t^7)\n"
    assert out == series + "  where a1~0-0.5i\n" + series + "  where a1~0+0.5i\n"
    code, out, _ = run_cli("solve", "--ode", "(y')^2 - y^3 - y^2", "--at", "1, sqrt(2)",
                           "--order", "2")
    assert out == "y(t) = 1 + sqrt(2)*t + 5/4*t^2 + O(t^3)\n  where sqrt(2)~1.41421\n"


@pytest.mark.parametrize("argv", [
    ("solve", "--at", "-1, 0", "--format", "json"),
    ("places", "--order", "150", "--format", "json"),  # 28 kB: fails inside the write
])
def test_cli_exits_quietly_when_the_reader_has_closed_the_pipe(argv):
    # the read end is closed before the process starts, so every write
    # fails; stdout is block-buffered, so the short output fails only
    # when it is flushed
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "aodesolve", *argv,
                               "--ode", "(y')^2 - y^3 - y^2"],
                              stdout=w, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (0, b"")


_SYMPY_PROBE = """
import io, json, sys
from aodesolve.cli import main
print(json.dumps([[main(argv, out=io.StringIO(), err=io.StringIO()),
                   "sympy" in sys.modules, "mpmath" in sys.modules]
                  for argv in json.loads(sys.argv[1])]))
"""


def _assert_no_sympy(cases):
    """Each call exits 0 in a fresh interpreter (this one has sympy loaded
    already) with sympy and mpmath still absent from sys.modules."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", _SYMPY_PROBE, json.dumps(cases)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, False, False]] * len(cases)


def test_cli_solve_path_does_not_import_sympy():
    ex1 = ["--ode", "(y')^2 - y^3 - y^2"]
    cases = [["solve", *ex1, "--at", "1, sqrt(2)", "--order", "20"],
             ["solve", *ex1, "--at", "3, 6", "--order", "25", "--format", "json"],
             ["solve", *ex1, "--at", "-1, 0", "--order", "4"],
             ["direct", *ex1, "--at", "1, sqrt(2)", "--order", "20"],
             ["constants", *ex1],
             ["bound", *ex1]]
    _assert_no_sympy(cases)


def test_cli_accept_paths_do_not_import_sympy():
    # factor_q factors every degree in-house, so places, classify and
    # critical on accepted curves (Ex2 with a = 1, and pool curve 0 of
    # perfbench/workloads.random_curve) run without sympy
    ex2 = ["--ode", "((y'-1)^2 + y^2)^3 - 4*(y'-1)^2*y^2"]
    pool0 = ("-3 - 3*(y') - 2*y + 2*(y')^2 - 5*y*(y') - 1*y^2 + 5*(y')^3 - 4*y*(y')^2"
             " - 4*y^2*(y') + 2*y^3 + 2*y*(y')^3 + 5*y^2*(y')^2 + 3*y^3*(y') - 1*y^4")
    cases = [["places", *ex2, "--order", "6", "--format", "json"],
             ["classify", *ex2, "--format", "json"],
             ["critical", "--ode", pool0, "--format", "json"]]
    _assert_no_sympy(cases)


_SYMPY_BLOCKED_PROBE = """
import io, json, sys
sys.modules["sympy"] = None  # any import of sympy now raises ImportError
sys.modules["mpmath"] = None  # and so does any import of mpmath
from aodesolve.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    out.append([main(argv, out=io.StringIO(), err=err), err.getvalue()])
print(json.dumps(out))
"""


def test_cli_runs_as_if_sympy_were_not_installed():
    """With sympy and mpmath blocked, accepted inputs exit 0, and rejected ones,
    reducible over Q or only over Q-bar, exit 2 with their message."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    ex1 = ["--ode", "(y')^2 - y^3 - y^2"]
    cases = [["solve", *ex1, "--at", "1, sqrt(2)"],
             ["direct", *ex1, "--at", "1, sqrt(2)"],
             ["places", *ex1, "--order", "4"],
             ["constants", *ex1],
             ["bound", *ex1],
             ["critical", *ex1],
             ["classify", "--ode", "((y'-1)^2 + y^2)^3 - 4*(y'-1)^2*y^2"],
             ["critical", "--ode", "(y')^2 - y^2"],
             ["critical", "--ode", "(y' - y)*(y' + y^2)"],
             ["critical", "--ode", "(y')^2 - 2*y^2"]]
    proc = subprocess.run([sys.executable, "-c", _SYMPY_BLOCKED_PROBE, json.dumps(cases)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    reducible = [2, "error: F is reducible over Q\n"]
    assert json.loads(proc.stdout) == [[0, ""]] * 7 + [reducible, reducible,
                                       [2, "error: F is irreducible over Q but splits into 2 "
                                           "factors over the algebraic closure\n"]]
