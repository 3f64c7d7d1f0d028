"""One benchmark operation: ``aodesolve <argv>`` in this fresh process.

Usage: python3 perfbench/child.py <0|1> <cli argv...>

The first argument turns tracing on (1) or off (0).  Run from the root
of a checkout; the package is imported from ``src/``, and nothing else
is imported ahead of it, so modules the program loads lazily (sympy)
are paid inside the operation, as a user pays them.  Prints one JSON
line: the monotonic time at which the CLI was imported (``ready``), the
wall time of ``cli.main(argv)`` (``op_s``), its exit code or uncaught
exception, its standard output and error, the peak RSS of this process,
and the per-function statistics when traced.
"""

import io
import json
import os
import resource
import sys
import time

MEMORY_LIMIT = 3 << 30  # bytes of address space; a runaway op fails alone


def main():
    traced = sys.argv[1] == "1"
    argv = sys.argv[2:]
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    sys.path.insert(0, os.path.abspath("src"))
    from aodesolve import cli
    tracer = None
    if traced:
        import tracer as tracing
        tracer = tracing.install()
    ready = time.monotonic()

    out, err = io.StringIO(), io.StringIO()
    real_out, real_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    rc, exc = None, None
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv, out=out, err=err)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # the benchmark counts it by type
        exc = "%s: %s" % (type(e).__name__, str(e)[:200])
    op_s = time.perf_counter() - t0
    sys.stdout, sys.stderr = real_out, real_err

    record = {
        "ready": ready,
        "op_s": op_s,
        "rc": rc,
        "exc": exc,
        "out": out.getvalue(),
        "err": err.getvalue()[-2000:],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.report() if tracer else None,
    }
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
