"""Per-layer tracing from outside the program.

`Tracer.install()` rebinds each listed public function in every
``deltasum`` module namespace (and module-level dict) that holds it, so
calls through names imported elsewhere (``suites`` binds ``kloosterman``,
``expsums`` binds ``is_prime``) are caught too.  Each wrapped call adds to
an in-memory aggregate keyed by (function, calling wrapped function); no
per-call span is kept, because ``verify-default`` makes millions of calls.
Self time is derived at the end: a function's total time minus the total
time of the wrapped calls it made.

Layers are the package modules.  Metric names are
``<module>.<function>.calls`` / ``.self_s``; see `LAYER_METRICS`.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

from workloads import SUITE_NAMES

# Functions timed as spans, per module; each gives .calls and .self_s.
SPANS = {
    "expsums": ("kloosterman", "units_and_inverses", "twisted_kloosterman",
                "voronoi_char_sum_raw", "voronoi_char_sum_closed", "psi_average_raw",
                "psi_average_closed", "c4_correlation", "d_sum", "c3_raw", "c3_closed",
                "twisted_split_check"),
    "characters": ("unit_roots", "discrete_log_table", "enumerate_characters",
                   "primitive_root", "gauss_sum"),
    "numcore": ("factorize", "is_prime", "euler_phi", "mobius", "mod_inv", "divisor_count"),
    "oscillatory": ("integral_value_and_error", "decay_scan"),
    "exponent": ("minimize_max", "staged_elimination"),
    "scan": ("append_ledger", "ScanReport.to_json"),
}
# Spans whose self time only is reported.
SELF_ONLY = {
    "suites": ("run_suite",),
    "cli": ("main", "build_parser", "run_sum", "run_bessel", "run_integral",
            "run_optimize", "run_verify"),
}
BESSEL_REGIMES = ("series", "miller", "hankel")
PACKAGE = "deltasum"


def _layer_metrics():
    out = {}
    for module, names in SPANS.items():
        for name in names:
            out[f"{module}.{name}.calls"] = "count"
            out[f"{module}.{name}.self_s"] = "s"
    for regime in BESSEL_REGIMES:
        out[f"oscillatory.bessel_j.{regime}.calls"] = "count"
        out[f"oscillatory.bessel_j.{regime}.self_s"] = "s"
    out["oscillatory.integrand_evals"] = "count"
    for module, names in SELF_ONLY.items():
        for name in names:
            out[f"{module}.{name}.self_s"] = "s"
    for suite in SUITE_NAMES:
        out[f"suites.{suite}.wall_s"] = "s"
    out["cli.cache_files"] = "count"
    out["cli.cache_bytes"] = "bytes"
    return out


LAYER_METRICS = _layer_metrics()  # name -> unit, in report order


def bessel_regime(args, kwargs):
    """The regime bessel_j(nu, x) picks, by its documented thresholds: the
    power series while x*x <= 4(nu+1), the Hankel expansion once
    x > max(1e4, 3 nu^2), Miller's recurrence in between.  An array of
    arguments is classified by its largest element."""
    try:
        nu, x = args[0], args[1]
        x = float(max(x)) if hasattr(x, "__iter__") else float(x)
        if x * x <= 4.0 * (nu + 1):
            return "series"
        if x > max(1e4, 3.0 * nu * nu):
            return "hankel"
        return "miller"
    except (IndexError, TypeError, ValueError):
        return "other"


class Tracer:
    """Call aggregates for the wrapped functions of one process."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0])  # (name, parent) -> [calls, total_s]
        self.inclusive = defaultdict(float)  # suite name -> wall time inside it
        self.integrand_evals = 0
        self.missing = []  # listed functions the program no longer has
        self._stack = [None]

    # -------------------------------------------------------------- wrappers

    def _span(self, name, fn, classify=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if classify is None else f"{name}.{classify(args, kwargs)}"
            parent = stack[-1]
            stack.append(label)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                rec = spans[(label, parent)]
                rec[0] += 1
                rec[1] += elapsed
        return wrapper

    def _inclusive(self, name, fn):
        """Wall time inside fn, without a span: its own body's time stays with
        the caller (run_suite), which is the per-case suite overhead."""
        inclusive, clock = self.inclusive, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                inclusive[name] += clock() - t0
        return wrapper

    def _panel(self, fn):
        """Counts integrand evaluations by wrapping the integrand a quadrature
        panel receives."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            def counted(y):
                tracer.integrand_evals += 1
                return f(y)
            return fn(counted, *args, **kwargs)
        return wrapper

    # --------------------------------------------------------------- install

    def install(self):
        """Rebind every listed function wherever a package module binds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        targets = []
        for module, names in list(SPANS.items()) + list(SELF_ONLY.items()):
            for name in names:
                targets.append((module, name, lambda fn, label=f"{module}.{name}":
                                self._span(label, fn)))
        targets.append(("oscillatory", "bessel_j",
                        lambda fn: self._span("oscillatory.bessel_j", fn, bessel_regime)))
        targets.append(("oscillatory", "_panel", self._panel))
        suites = by_name.get("suites")
        for suite, fn in sorted(getattr(suites, "SUITES", {}).items()):
            self._rebind(modules, fn, self._inclusive(suite, fn))
        for module, name, make in targets:
            owner = by_name.get(module)
            if "." in name:  # a method: patch the class
                cls_name, meth = name.split(".")
                cls = getattr(owner, cls_name, None)
                fn = getattr(cls, meth, None)
                if fn is None:
                    self.missing.append(f"{module}.{name}")
                    continue
                setattr(cls, meth, make(fn))
                continue
            fn = getattr(owner, name, None)
            if not callable(fn):
                self.missing.append(f"{module}.{name}")
                continue
            wrapper = make(fn)
            for attr in dir(fn):  # keep e.g. lru_cache's cache_info reachable
                if not hasattr(wrapper, attr):
                    setattr(wrapper, attr, getattr(fn, attr))
            self._rebind(modules, fn, wrapper)

    @staticmethod
    def _rebind(modules, fn, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is fn:
                            value[key] = wrapper

    # --------------------------------------------------------------- results

    def metrics(self, cache_dir):
        """Per-layer values: calls, self time (total minus wrapped children)."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = defaultdict(float)
        for (label, parent), (n, seconds) in self.spans.items():
            calls[label] += n
            total[label] += seconds
            if parent is not None:
                child[parent] += seconds
        values = {}
        for metric in LAYER_METRICS:
            label, _, field = metric.rpartition(".")
            if field == "calls":
                values[metric] = calls[label]
            elif field == "self_s":
                values[metric] = total[label] - child[label]
        for suite in SUITE_NAMES:
            values[f"suites.{suite}.wall_s"] = self.inclusive[suite]
        values["oscillatory.integrand_evals"] = self.integrand_evals
        files, size = directory_usage(cache_dir)
        values["cli.cache_files"] = files
        values["cli.cache_bytes"] = size
        return values


def directory_usage(path):
    """(regular files, bytes) under path, counted from outside the program."""
    files = size = 0
    for root, _dirs, names in os.walk(path):
        for name in names:
            full = os.path.join(root, name)
            if os.path.isfile(full) and not os.path.islink(full):
                files += 1
                size += os.path.getsize(full)
    return files, size
