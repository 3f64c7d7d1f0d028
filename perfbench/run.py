"""aodesolve benchmark: seeded CLI workloads, end-to-end and per-layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload solve_deep --seed 1 --seconds 20 --trace 0

One client runs a closed loop: each operation is one
``aodesolve <cmd> ... --format json`` call in a fresh child process
(perfbench/child.py), the next starts when the previous has ended, and
the loop stops starting operations after ``--seconds``.  After the
timed section the paper cases of the workload run once, every output is
checked by perfbench/verify.py (untraced), and pinned output hashes are
compared with perfbench/golden.json.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every input
twice, untraced and then with every aodesolve module wrapped by
perfbench/tracer.py, and reports per-layer metrics.  The last line of
standard output is one JSON object {correct, attempted, failed,
metrics}; the lines before it are a readable report.  The full record
(environment, per-op hashes, failure classes) is written to
perfbench/results/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

OP_TIMEOUT_S = 30
# a run prints its result within this many seconds of its start, whatever
# the program does: verification gets what is left of it
RUN_LIMIT_S = 170
# Reported times are in reference seconds: each op's wall times scaled by
# CAL_REF_S over the time a fresh process (calibrate.py) took to import
# mpmath and sympy, the mean of one run just before the op and one just
# after it.  On the 2-vCPU VM this was written on, the host's speed
# drifts by up to a third over minutes, and that import slows down with
# the program where a small Fraction kernel did not.  Raw wall times are
# printed and kept in results/.
CAL_REF_S = 0.25
# children cache bytecode as an installed CLI would, whatever the caller's
# environment says: the first child of a fresh checkout compiles src/, the
# rest load the cache, so setup_s does not depend on PYTHONDONTWRITEBYTECODE
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
MODULES = ("cli", "parsing", "solver", "puiseux", "factor", "poly", "series",
           "numbers", "enclosure")
# traced functions reported with calls, self_s and total_s (per-op means)
LAYER_ROWS = (
    "solver.solve_at", "solver.reparametrize", "solver.critical_set",
    "puiseux.places_at", "puiseux.newton_polygon", "puiseux._regular_tail",
    "poly.eval_series", "series.mul", "series.invert",
    "factor.factor_over_tower", "factor.factor_q", "factor.all_roots",
    "factor.extend_by_factor", "poly.resultant_lists", "poly.uni_gcd",
    "poly.solve_system", "poly.validate_input", "enclosure.polish_root",
    "numbers.isolate_roots", "numbers.level_box", "numbers.rep_mul", "numbers.rep_inv",
)


class Op:
    """One CLI call: what ran, how it ended and what it printed."""

    @property
    def speed(self):
        """Reference seconds per wall second for this op's child."""
        return CAL_REF_S / self.cal_s

    def __init__(self, argv, traced):
        self.argv = argv
        self.traced = traced
        self.status = None   # None while unverified; else "ok" or a failure class
        self.setup_s = self.op_s = self.rss_mb = None
        self.wall_s = None   # spawn to exit, as the parent saw it
        self.cal_s = None    # calibrate.py's import time around this op
        self.sha256 = None
        self.out = None
        self.trace = None
        self.detail = ""


def calibrate():
    out = subprocess.run([sys.executable, os.path.join(HERE, "calibrate.py")],
                         capture_output=True, check=True, timeout=OP_TIMEOUT_S,
                         stdin=subprocess.DEVNULL, env=CHILD_ENV).stdout
    return float(out.decode().split()[-1])


def run_ops(jobs):
    """Run the (argv, traced, timeout) jobs one at a time, with calibrate.py
    before the first and after each; an op's reference time is the mean of
    the two calibrations either side of it."""
    ops = []
    before = calibrate()
    for argv, traced, timeout in jobs:
        op = run_op(argv, traced, timeout)
        after = calibrate()
        op.cal_s = (before + after) / 2
        before = after
        ops.append(op)
    return ops


def run_op(argv, traced, timeout):
    op = Op(argv, traced)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "1" if traced else "0"] + argv
    spawn = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, env=CHILD_ENV)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        op.status, op.detail = "timeout", "no result after %.0f s" % timeout
        return op
    op.wall_s = time.monotonic() - spawn
    lines = stdout.decode().splitlines()
    if proc.returncode != 0 or not lines:
        op.status = "crash:exit%d" % proc.returncode
        op.detail = stderr.decode()[-300:]
        return op
    rec = json.loads(lines[-1])
    op.setup_s = rec["ready"] - spawn
    op.op_s = rec["op_s"]
    op.rss_mb = rec["maxrss_kb"] / 1024.0
    op.trace = rec["trace"]
    if rec["exc"]:
        op.status = "exception:" + rec["exc"].split(":")[0]
        op.detail = rec["exc"]
    elif rec["rc"] == 2:
        op.status, op.detail = "exit2_rejected", rec["err"].strip()
    elif rec["rc"] == 3:
        op.status, op.detail = "exit3_resource", rec["err"].strip()
    elif rec["rc"] != 0:
        op.status, op.detail = "exit%s" % rec["rc"], rec["err"].strip()
    else:
        op.out = rec["out"]
        op.sha256 = hashlib.sha256(op.out.encode()).hexdigest()
    return op


def verify(ops, golden, budget):
    """Mark every op "ok" or with its failure class; return the env block.

    verify.py gets ``budget`` seconds for all cases.  A case it has not
    passed judgement on by then, or when it exits early, is a failed op
    of class ``unverified:timeout`` or ``unverified:exit<n>``."""
    pending = [op for op in ops if op.status is None]
    by_argv = {}
    for op in pending:
        key = json.dumps(op.argv)
        want = golden.get(key)
        if want is not None and op.sha256 != want:
            op.status, op.detail = "verify:golden_mismatch", op.sha256
        elif by_argv.setdefault(key, op).sha256 != op.sha256:
            op.status, op.detail = "verify:nondeterministic", op.sha256
    cases = [op for op in by_argv.values() if op.status is None]
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "verify.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    payload = json.dumps({"cases": [{"argv": op.argv, "out": op.out}
                                    for op in cases]}).encode()
    try:
        stdout, stderr = proc.communicate(payload, timeout=budget)
        unjudged = "unverified:exit%d" % proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
        unjudged = "unverified:timeout"
    # verify.py prints the env block, then one line per case as it is judged
    docs = []
    for line in stdout.decode().splitlines():
        try:
            docs.append(json.loads(line))
        except ValueError:  # a line cut short by the kill
            break
    env = docs[0] if docs else {}
    verdict = {json.dumps(op.argv): res for op, res in zip(cases, docs[1:])}
    for op in pending:
        if op.status is None:
            res = verdict.get(json.dumps(op.argv))
            if res is None:
                op.status, op.detail = unjudged, stderr.decode()[-300:]
            else:
                op.status = "ok" if res["ok"] else "verify:contract"
                op.detail = res["why"]
    return env


def git_commit():
    """HEAD from .git files in the working directory, without running git."""
    try:
        with open(".git/HEAD") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as f:
                return f.read().strip()
        with open(".git/packed-refs") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    h = hashlib.sha256()
    root = os.path.join("src", "aodesolve")
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def end_to_end(loop_ops, scaled=True):
    """Failed ops count in ``failed`` only: op_p50_s and ops_per_s cover
    the verified ops, and ops_per_s divides by the wall time spent on
    them (spawn, set-up and operation), so one stalled op does not
    decide a run's throughput.  Times are in reference seconds unless
    ``scaled`` is false."""
    ok = [op for op in loop_ops if op.status == "ok"]
    timed = [op for op in loop_ops if op.setup_s is not None]

    def k(op):
        return op.speed if scaled else 1.0

    return {
        "setup_s": (median([k(op) * op.setup_s for op in timed]), "s", len(timed)),
        "op_p50_s": (median([k(op) * op.op_s for op in ok]), "s", len(ok)),
        "ops_per_s": (len(ok) / sum(k(op) * op.wall_s for op in ok), "1/s", len(ok)),
        "peak_rss_mb": (median([op.rss_mb for op in timed]), "MB", len(timed)),
    }


def per_layer(loop_ops):
    """Per-op means over the traced ops, and the module self-time table."""
    traced = [op for op in loop_ops if op.traced and op.status == "ok"]
    plain = [op for op in loop_ops if not op.traced and op.status == "ok"]
    n = max(len(traced), 1)
    rows, extra = {}, {}
    for op in traced:
        for name, r in op.trace["rows"].items():
            acc = rows.setdefault(name, [0, 0.0, 0.0])
            acc[0] += r["calls"]
            acc[1] += r["total_s"] * op.speed
            acc[2] += r["self_s"] * op.speed
        for name, v in op.trace["extra"].items():
            extra[name] = max(extra.get(name, 0), v) if name.endswith("_max") \
                else extra.get(name, 0) + v

    def row(name, field):
        r = rows.get(name, (0, 0.0, 0.0))
        return {"calls": r[0], "total_s": r[1], "self_s": r[2]}[field] / n

    def self_sum(pred):
        return sum(r[2] for name, r in rows.items() if pred(name)) / n

    m = {}
    for name in LAYER_ROWS:
        m[name + ".calls"] = (row(name, "calls"), "count")
        m[name + ".self_s"] = (row(name, "self_s"), "s")
        m[name + ".total_s"] = (row(name, "total_s"), "s")
    m["series.mul.coeff_products"] = (extra.get("series.mul.coeff_products", 0) / n,
                                      "count")
    m["factor.tower_degree_max"] = (extra.get("factor.tower_degree_max", 1), "count")
    m["numbers.rep.self_s"] = (self_sum(lambda k: k.startswith("numbers.rep_")), "s")
    traced_op = sum(op.speed * op.op_s for op in traced) / n
    attributed = 0.0
    for mod in MODULES:
        s = self_sum(lambda k, mod=mod: k.split(".")[0] == mod)
        attributed += s
        m[mod + ".self_s"] = (s, "s")
        m[mod + ".share"] = (100.0 * s / traced_op if traced_op else 0.0, "%")
    p50_traced = median([op.speed * op.op_s for op in traced])
    p50_plain = median([op.speed * op.op_s for op in plain])
    m["trace.op_mean_s"] = (traced_op, "s")
    m["trace.unattributed_s"] = (traced_op - attributed, "s")
    m["trace.op_p50_s"] = (p50_traced, "s")
    m["trace.overhead_s"] = (p50_traced - p50_plain, "s")
    m["trace.ops"] = (len(traced), "count")
    return m


def print_trace_table(m):
    op = m["trace.op_mean_s"][0] or float("nan")
    print("traced op: mean %.3f s over %d ops; tracing overhead %.4f s on op_p50_s"
          % (op, m["trace.ops"][0], m["trace.overhead_s"][0]))
    print("module self time, share of the traced op:")
    for mod in sorted(MODULES, key=lambda k: -m[k + ".self_s"][0]):
        print("  %-10s %6.1f %%  %.4f s" % (mod, m[mod + ".share"][0], m[mod + ".self_s"][0]))
    print("  unattributed %.4f s" % m["trace.unattributed_s"][0])
    print("inclusive time of layer entry points, share of the traced op:")
    for name in sorted(LAYER_ROWS, key=lambda k: -m[k + ".total_s"][0]):
        share = m[name + ".total_s"][0] / op
        if share >= 0.01:
            print("  %-26s %6.1f %%  %10.1f calls" % (name, 100 * share,
                                                    m[name + ".calls"][0]))


def load_golden():
    """{json.dumps(argv): sha256} for the paper cases."""
    with open(os.path.join(HERE, "golden.json")) as f:
        return {json.dumps(case["argv"]): case["sha256"] for case in json.load(f)}


def percentile_line(ops):
    """The highest of p99/p90/p75 with at least 10 samples beyond it."""
    xs = sorted(op.speed * op.op_s for op in ops if op.status == "ok")
    for p in (99, 90, 75):
        if len(xs) * (100 - p) / 100.0 >= 10:
            k = min(len(xs) - 1, int(round(p / 100.0 * (len(xs) - 1))))
            return "op_p%d_s = %.4f s (n=%d)" % (p, xs[k], len(xs))
    return "no percentile above p50 has 10 samples beyond it (n=%d)" % len(xs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "aodesolve", "cli.py")):
        sys.exit("error: run from the root of an aodesolve checkout "
                 "(src/aodesolve/cli.py not found)")
    start = time.monotonic()
    golden = load_golden()
    ncpu = os.cpu_count() or 1
    load_start = os.getloadavg()
    cycle, paper_cases, input_digest = workloads.build(args.workload, args.seed)
    traced = bool(args.trace)

    t0 = time.monotonic()
    deadline = t0 + args.seconds + OP_TIMEOUT_S

    def loop_jobs():
        # an input starts only if the median time of the loop's inputs so
        # far would end it within --seconds, so a run's length does not
        # depend on how far its last operation overruns the window
        i, took, last = 0, [], t0
        while i == 0 or time.monotonic() + median(took) <= t0 + args.seconds:
            argv = cycle[i % len(cycle)]
            i += 1
            for mode in ((False, True) if traced else (False,)):
                yield argv, mode, max(1.0, min(OP_TIMEOUT_S, deadline - time.monotonic()))
            now = time.monotonic()
            took.append(now - last)
            last = now

    loop_ops = run_ops(loop_jobs())
    wall = time.monotonic() - t0
    extra_ops = run_ops((argv, False, OP_TIMEOUT_S) for argv in paper_cases)
    all_ops = loop_ops + extra_ops
    env = verify(all_ops, golden, max(5.0, start + RUN_LIMIT_S - time.monotonic()))
    load_end = os.getloadavg()

    failures = {}
    for op in all_ops:
        if op.status != "ok":
            failures[op.status] = failures.get(op.status, 0) + 1
    attempted, failed = len(all_ops), sum(failures.values())
    env.update({"python": sys.version.split()[0], "commit": git_commit(),
                "source_sha256": source_digest(), "nproc": ncpu,
                "load_start": load_start, "load_end": load_end,
                "overloaded": max(load_start[0], load_end[0]) > ncpu})

    if not any(op.status == "ok" for op in loop_ops if op.traced == traced):
        sys.exit("error: no operation of the timed loop succeeded: %s"
                 % sorted(failures.items()))
    if traced:
        metrics = per_layer(loop_ops)
        counts = {}
    else:
        e2e = end_to_end(loop_ops)
        metrics = {k: (v, u) for k, (v, u, _) in e2e.items()}
        counts = {k: n for k, (_, _, n) in e2e.items()}

    print("workload %s  seed %d  trace %d  inputs sha256 %s"
          % (args.workload, args.seed, args.trace, input_digest[:16]))
    print("env: python %s, sympy %s (ground types %s), mpmath %s, nproc %d, "
          "commit %s, load %.2f -> %.2f%s"
          % (env["python"], env.get("sympy"), env.get("ground_types"), env.get("mpmath"),
             ncpu, env["commit"][:12], load_start[0], load_end[0],
             "  ** load exceeded nproc **" if env["overloaded"] else ""))
    if traced:
        print_trace_table(metrics)
    else:
        raw = end_to_end(loop_ops, scaled=False)
        print("metric       reference       raw wall")
        for k, (v, u) in metrics.items():
            print("%-12s %12.4f %12.4f %-4s (n=%d)" % (k, v, raw[k][0], u, counts[k]))
        print(percentile_line(loop_ops))
    print("fail_ratio   %12.4f      (%d of %d attempted)%s"
          % (failed / attempted, failed, attempted,
             "".join("  %s=%d" % kv for kv in sorted(failures.items()))))

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_sha256": input_digest, "env": env,
        "wall_s": wall, "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ops": [{"argv": op.argv, "traced": op.traced, "status": op.status,
                 "detail": op.detail, "setup_s": op.setup_s, "op_s": op.op_s,
                 "cal_s": op.cal_s, "rss_mb": op.rss_mb, "sha256": op.sha256}
                for op in all_ops],
    }
    path = os.path.join(HERE, "results", "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    print(json.dumps({
        "correct": not any(op.status.startswith("verify:") for op in all_ops),
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
