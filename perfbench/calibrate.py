"""The benchmark's speed reference: import mpmath and sympy in this fresh
process and print the seconds it took.

Usage: python3 perfbench/calibrate.py

run.py runs it before and after each operation, in a process of its
own, so the reference never preloads a module for the program under test.
"""

import time

t0 = time.perf_counter()
import mpmath  # noqa: E402,F401
import sympy  # noqa: E402,F401

print(time.perf_counter() - t0)
