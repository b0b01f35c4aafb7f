"""Outside-in tracing: wrap the program's public functions, record spans.

The program is not changed.  `install()` replaces every binding of each
listed function object in every loaded `delta_kernel.*` module (so a copy
made by `from .groebner import saturate` is wrapped too) and, for methods,
every name under which the class stores the same function (`__rmul__ =
__mul__`).  A name that no longer exists raises `LookupError`.

Each wrapped call records one span: name, start, end, parent span and job.
Spans stay in flat arrays until the run ends; `summary()` derives per-layer
calls, self time and the extra counters, `write_spans()` dumps the arrays.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

PACKAGE = "delta_kernel"

# module -> public callables ("Class.method" for methods on a class)
LAYERS = {
    "cli": ("main", "run_command"),
    "parser": ("parse_system", "parse_diff_expression"),
    "printer": ("print_diffpoly", "print_ratfunc"),
    "multipoly": (
        "MultiPoly.__mul__", "MultiPoly.__add__", "MultiPoly.__sub__",
        "MultiPoly.restrict", "MultiPoly.substitute", "poly_gcd",
    ),
    "ratfunc": ("RatFunc.__init__",),
    "factor": ("rational_roots", "factor_univariate"),
    "linalg": ("rref", "rank", "nullspace", "rational_eigen"),
    "groebner": (
        "buchberger", "normal_form", "s_polynomial", "saturate",
        "eliminate_first", "ideal_dimension",
    ),
    "solve": ("sampled_rational_solutions", "enumerate_rational_points", "independent_variable_set"),
    "diffring": (
        "apply_derivation", "ritt_reduce", "ReductionResult.verify",
        "DiffPoly.__mul__", "DiffPoly.__add__",
    ),
    "initialsets": ("leaders_to_exponents", "prolongation_bound", "dimension_function"),
    "prolongation": ("prolong_ideal", "affine_fiber", "extract_dvariety"),
    "dvariety": ("darboux_search_eigen", "darboux_search_groebner", "first_integral_search"),
    "heights": ("rational_solution_search", "verify_ode_solution"),
    "exterior": ("wedge", "factorization_implication_check"),
}

# Wrapped calls whose inclusive time is reported besides their self time.
INCLUSIVE = ("groebner.buchberger", "groebner.saturate")


def metric_name(module, attr):
    """`groebner.buchberger`; a dunder method is named by its operation."""
    last = attr.rsplit(".", 1)[-1]
    if last.startswith("__") and last.endswith("__"):
        last = last[2:-2]
    return f"{module}.{last}"


def span_names():
    return [metric_name(mod, attr) for mod, attrs in LAYERS.items() for attr in attrs]


def per_layer_metric_names():
    """Every metric `summary()` reports, in a fixed order."""
    names = []
    for name in span_names():
        names += [f"{name}.calls", f"{name}.self_s"]
    names += [f"{name}.total_s" for name in INCLUSIVE]
    names += ["groebner.buchberger.max_basis", "groebner.normal_form.zero_ratio"]
    return names


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.job = -1
        self._stack = []
        self._name = array("i")
        self._parent = array("i")
        self._jobs = array("i")
        self._start = array("d")
        self._end = array("d")
        self.max_basis = 0
        self.zero_forms = 0

    # ---------- installation ----------

    def install(self):
        """Wrap every binding of every listed callable."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for idx, (mod_name, attr) in enumerate(
            (mod, attr) for mod, attrs in LAYERS.items() for attr in attrs
        ):
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or meth not in vars(cls):
                    raise LookupError(f"{PACKAGE}.{mod_name}.{attr} no longer exists")
                original = vars(cls)[meth]
                wrapper = self._wrap(original, idx)
                for key, value in list(vars(cls).items()):
                    if value is original:
                        setattr(cls, key, wrapper)
            else:
                original = getattr(module, attr, None)
                if not callable(original):
                    raise LookupError(f"{PACKAGE}.{mod_name}.{attr} no longer exists")
                wrapper = self._wrap(original, idx)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _wrap(self, fn, idx):
        stack = self._stack
        names, parents, jobs = self._name, self._parent, self._jobs
        starts, ends = self._start, self._end
        clock = time.perf_counter
        name = self.names[idx]
        if name == "groebner.buchberger":
            def post(result):
                self.max_basis = max(self.max_basis, len(result))
        elif name == "groebner.normal_form":
            def post(result):
                if result.is_zero():
                    self.zero_forms += 1
        else:
            post = None

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            starts[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if post is not None:
                post(result)
            return result

        return functools.wraps(fn)(wrapper)

    # ---------- results ----------

    @property
    def span_count(self):
        return len(self._start)

    def summary(self):
        """Per-layer metrics: calls, self time, inclusive time, counters."""
        k = len(self.names)
        calls = [0] * k
        self_s = [0.0] * k
        n = len(self._start)
        durations = [self._end[i] - self._start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += durations[i]
        for i in range(n):
            idx = self._name[i]
            calls[idx] += 1
            self_s[idx] += durations[i] - child[i]
        inclusive = {}
        for name in INCLUSIVE:
            idx = self.names.index(name)
            total = 0.0
            for i in range(n):
                if self._name[i] == idx and not self._has_ancestor(i, idx):
                    total += durations[i]
            inclusive[name] = total
        out = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[idx]
            out[f"{name}.self_s"] = self_s[idx]
        for name in INCLUSIVE:
            out[f"{name}.total_s"] = inclusive[name]
        out["groebner.buchberger.max_basis"] = self.max_basis
        nf_calls = calls[self.names.index("groebner.normal_form")]
        out["groebner.normal_form.zero_ratio"] = self.zero_forms / nf_calls if nf_calls else 0.0
        return out

    def _has_ancestor(self, i, idx):
        p = self._parent[i]
        while p >= 0:
            if self._name[p] == idx:
                return True
            p = self._parent[p]
        return False

    def write_spans(self, path):
        """Binary arrays (name, parent, job as int32; start, end as float64)
        behind a one-line JSON header naming the span kinds and the count."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self._start),
                      "arrays": ["name:i", "parent:i", "job:i", "start:d", "end:d"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self._name, self._parent, self._jobs, self._start, self._end):
                arr.tofile(fh)
