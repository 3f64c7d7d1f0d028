"""Check that the benchmark counts every failure class it claims to.

Usage (from the root of a checkout):

    python3 perfbench/selfcheck.py          # about 15 s

Each probe is an operation whose failure class is known at the commit
the benchmark was written for.  The script runs it through the same
code as a benchmark run and prints expected and observed classes; it
exits 1 if any differ.  A probe whose class changes because the program
changed (say, a bug got fixed) is reported the same way, so update the
expectation together with the fix.  The probe for an uncaught
exception is the curve critical_random leaves out of its pool
(workloads.POOL_FAILING).  The script also checks that
golden.json pins a hash for every input workloads.pinned_inputs() lists.
"""

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

# a degree-5 curve that stops with "enclosure refinement stalled" only
# after about 240 s; with a 5 s limit it is the timeout probe
STALL_SLOW = ("5*(y')^5 - 4*(y')^4 + 4*y - 4*y*y' - y*(y')^3 - 2*y*(y')^4 - "
              "5*y^2*y' + 5*y^2*(y')^3 - 4*y^3 - 5*y^3*(y')^2 - 3*y^4 - 3*y^5")


def probes():
    ex1 = workloads.EX1
    return [
        ("rejected input", ["critical", "--ode", "(y')^2 - y^2", "--format", "json"],
         5 * 60, "exit2_rejected"),
        ("resource limit", ["solve", "--ode", ex1, "--at", "1, sqrt(2)", "--order", "4",
                            "--degree-cap", "1", "--format", "json"],
         5 * 60, "exit3_resource"),
        *(("uncaught exception", argv, 5 * 60, "exception:ArithmeticError")
          for argv in workloads.critical_pool(failing=True)),
        ("timeout", ["critical", "--ode", STALL_SLOW, "--format", "json"],
         5, "timeout"),
    ]


def tampered():
    """Two ops whose verification must fail: a solution with one wrong
    coefficient, and a paper case whose output hash is off."""
    bad = run.run_op(["solve", "--ode", workloads.EX1, "--at", "3, 6", "--order", "6",
                      "--format", "json"], False, 60)
    doc = json.loads(bad.out)
    doc["solutions"][0]["series"]["coeffs"][2] = "1/3"
    bad.out = json.dumps(doc, sort_keys=True) + "\n"
    bad.sha256 = hashlib.sha256(bad.out.encode()).hexdigest()
    off = run.run_op(list(workloads.EX1_GOLDEN[0]), False, 60)
    off.sha256 = "0" * 64
    return [("wrong coefficient", bad, "verify:contract"),
            ("golden mismatch", off, "verify:golden_mismatch")]


def main():
    golden = run.load_golden()
    rows = [(name, run.run_op(argv, False, timeout), want)
            for name, argv, timeout, want in probes()]
    rows += tampered()
    run.verify([op for _, op, _ in rows], golden, run.RUN_LIMIT_S)
    late = run.run_op(["critical", "--ode", workloads.EX1, "--format", "json"], False, 60)
    run.verify([late], golden, 0.05)  # less than verify.py needs to start
    rows.append(("verifier out of time", late, "unverified:timeout"))

    missing = [argv for argv in workloads.pinned_inputs() if json.dumps(argv) not in golden]
    bad = len(missing)
    print("%-26s %d of %d drawable inputs lack a hash in golden.json"
          % ("pinned hashes", len(missing), len(workloads.pinned_inputs())))
    for name, op, want in rows:
        ok = op.status == want
        bad += not ok
        print("%-26s expected %-28s got %-28s %s"
              % (name, want, op.status, "ok" if ok else "MISMATCH"))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
