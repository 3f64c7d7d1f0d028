"""Per-function call counts and self times for the aodesolve package.

``install()`` wraps every public module-level function of every
``aodesolve`` module, one private hot spot and a few methods, and
patches each wrapper into every module namespace that bound the
original at import time.  Self time is a function's wall time minus the
wall time of the wrapped functions it called.  Nothing under ``src/``
is changed on disk; the wrappers live only in the traced process.
"""

import functools
import importlib
import pkgutil
import time
import types

# private functions with a row of their own: the regular-tail exactness
# check is the hot spot of Newton-Puiseux expansion
PRIVATE_ROWS = {"puiseux._regular_tail"}

# helpers called hundreds of thousands of times per op for a few
# nanoseconds each: wrapping them would double the op time, so their time
# counts as their caller's self time
TOO_SMALL = {"numbers.rep_lift", "numbers.rep_demote", "numbers.rep_is_zero",
             "numbers.rep_zero", "numbers.rep_from_fraction", "numbers.common_tower"}

# methods: (module, class, attribute names sharing one function, row name)
METHODS = (
    ("numbers", "AlgebraicNumber", ("_binop",), "numbers.AlgebraicNumber._binop"),
    ("series", "TruncatedSeries", ("__mul__", "__rmul__"), "series.mul"),
    ("poly", "BiPoly", ("eval_series",), "poly.eval_series"),
    ("poly", "UniPoly", ("__mul__",), "poly.UniPoly.mul"),
)


class Tracer:
    def __init__(self):
        self.stats = {}   # row name -> [calls, total_s, self_s]
        self.extra = {"series.mul.coeff_products": 0,
                      "factor.tower_degree_max": 1}
        self._stack = []  # one [child_s] cell per active wrapped call
        self._depth = {}  # row name -> active nesting depth

    def wrap(self, name, fn, after=None):
        row = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            d = depth.get(name, 0)
            depth[name] = d + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] = d
                row[0] += 1
                row[2] += dt - cell[0]
                if d == 0:  # count recursive calls' time once
                    row[1] += dt
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, result)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def report(self):
        """{row: {"calls", "total_s", "self_s"}} plus the extra counters."""
        rows = {name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in self.stats.items() if c}
        return {"rows": rows, "extra": dict(self.extra)}


def _count_products(tracer):
    def after(args, result):
        a, b = args[0], args[1]
        la = len(a.coeffs)
        lb = len(getattr(b, "coeffs", (b,)))
        n = len(result.coeffs)
        tracer.extra["series.mul.coeff_products"] += sum(
            min(lb, n - i) for i in range(min(la, n)))
    return after


def _tower_degree(tracer):
    def after(args, result):
        deg = result[0].degree()
        if deg > tracer.extra["factor.tower_degree_max"]:
            tracer.extra["factor.tower_degree_max"] = deg
    return after


def install(package="aodesolve"):
    """Wrap the package in place and return the Tracer collecting stats."""
    tracer = Tracer()
    pkg = importlib.import_module(package)
    modules = {"": pkg}
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name == "__main__":  # importing it would run the CLI
            continue
        modules[info.name] = importlib.import_module(package + "." + info.name)

    hooks = {"series.mul": _count_products(tracer),
             "factor.extend_by_factor": _tower_degree(tracer)}
    replaced = {}  # id(original) -> wrapper; each wrapper keeps its original alive
    for short, mod in modules.items():
        if not short:
            continue
        for attr, obj in list(vars(mod).items()):
            if not isinstance(obj, types.FunctionType):
                continue
            if obj.__module__ != mod.__name__:
                continue
            name = "%s.%s" % (short, attr)
            if attr.startswith("_") and name not in PRIVATE_ROWS or name in TOO_SMALL:
                continue
            replaced[id(obj)] = tracer.wrap(name, obj, hooks.get(name))
    for short, cls_name, attrs, name in METHODS:
        cls = getattr(modules[short], cls_name)
        fn = vars(cls)[attrs[0]]
        wrapper = tracer.wrap(name, fn, hooks.get(name))
        for attr in attrs:
            setattr(cls, attr, wrapper)

    # rebind every name that refers to a wrapped original, in every module
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
    return tracer
