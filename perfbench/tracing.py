"""Per-layer tracing from outside the package.

Wraps public functions of the qgraph modules (and the two scipy root
finders `counting` calls) in spans, by rebinding every module attribute
that holds the original object, and restores them on close.  Spans are
aggregated as they close, so memory stays flat however many calls a run
makes: per name a call count and total time, per-call durations for the
names whose percentiles are reported, and per layer the time in its
outermost spans and in its direct children from other layers, whose
difference is the layer's self time.  Spans opened with an empty stack in
a worker thread (the sweep pool) keep their intervals until the enclosing
operation closes, which then subtracts their union from its own time.
"""
from __future__ import annotations

import functools
import importlib
import threading
import warnings
from collections import defaultdict
from time import perf_counter

import numpy as np

PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
KEEP_DURATIONS = ("evans.evans", "maps.two_sided", "resolvent.apply")
VERIFY_ATTEMPTS = ("maps.verify_single", "maps.verify_double", "maps.minor_identity",
                   "resolvent.apply", "resolvent.u_gamma")


def tail(samples):
    """(percentile, value): the highest listed percentile with at least ten
    samples beyond it; the median when there are too few samples."""
    if not samples:
        return 50.0, 0.0
    n = len(samples)
    p = max((q for q in PERCENTILES if n * (1.0 - q / 100.0) >= 10.0), default=50.0)
    return p, float(np.percentile(samples, p))


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._patches = []
        self._contexts = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.durations = defaultdict(list)
        self.outer = defaultdict(float)       # layer -> time in its outermost spans
        self.covered = defaultdict(float)     # layer -> time in other-layer children
        self.direct = defaultdict(int)        # (parent, child) -> calls
        self.under_counting = defaultdict(int)
        self.counts = defaultdict(float)
        self.uncovered = defaultdict(float)   # root span -> time no worker span covers
        self._orphans = []

    # ------------------------------------------------------------ spans

    def _stack(self):
        s = getattr(self._local, "stack", None)
        if s is None:
            s = self._local.stack = []
        return s

    def wrap(self, fn, name, on_result=None):
        """fn traced as a span `name` (a string, or a callable of the call's
        arguments returning one); on_result(args, result) sees each result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            counting = any(s.startswith("counting.") for s in stack)
            stack.append(label)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._close(label, parent, counting, t0, t1)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _close(self, label, parent, counting, t0, t1):
        dt = t1 - t0
        layer = label.split(".", 1)[0]
        parent_layer = parent.split(".", 1)[0] if parent else None
        worker = threading.current_thread() is not self._main
        with self._lock:
            self.calls[label] += 1
            self.total[label] += dt
            if label in KEEP_DURATIONS:
                self.durations[label].append(dt)
            if parent_layer != layer:
                self.outer[layer] += dt
                if parent is not None:
                    self.covered[parent_layer] += dt
            self.direct[(parent, label)] += 1
            if counting:
                self.under_counting[label] += 1
            if parent is None:
                if worker:
                    self._orphans.append((t0, t1))
                else:
                    self.uncovered[label] += dt - _union(self._orphans, t0, t1)
                    self._orphans = []

    def count(self, key, amount=1):
        with self._lock:
            self.counts[key] += amount

    # ---------------------------------------------------------- patching

    def _rebind(self, modules, original, replacement):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def patch(self, modules, owner, attr, name, on_result=None):
        """Trace owner.attr wherever a module in `modules` binds it."""
        original = getattr(owner, attr)
        self._rebind(modules, original, self.wrap(original, name, on_result))

    def patch_counter(self, modules, owner, attr, key, amount=None):
        """Count calls of owner.attr (or amount(result) per call), no span."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            tracer.count(key, 1 if amount is None else amount(result))
            return result

        self._rebind(modules, original, counted)

    def patch_init(self, cls, name):
        original = cls.__init__
        cls.__init__ = self.wrap(original, name)
        self._patches.append((cls, "__init__", original))

    def close(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        for ctx in reversed(self._contexts):
            ctx.__exit__(None, None, None)
        self._patches, self._contexts = [], []


def _union(intervals, lo, hi):
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def install(qgraph):
    """A Tracer bound to the qgraph layers; also counts the ComplexWarnings
    that the silent complex-to-real casts in `evans` raise."""
    # the package re-exports functions named like its modules (qgraph.evans
    # is the function), so take the modules from the import system
    graphs, propagate, evans, maps, counting, resolvent, cli = (
        importlib.import_module(f"qgraph.{m}") for m in
        ("graphs", "propagate", "evans", "maps", "counting", "resolvent", "cli"))
    mods = (qgraph, graphs, propagate, evans, maps, counting, resolvent, cli)
    t = Tracer()
    t.patch(mods, graphs, "split_graph", "graphs.split_graph")
    t.patch_counter(mods, propagate, "transfer_matrix", "propagate.transfer_matrices")
    t.patch_init(propagate.EdgeSolution,
                 lambda args: ("propagate.adaptive" if isinstance(args[1].potential, graphs.Sampled)
                               else "propagate.edge_solution"))
    t.patch(mods, evans, "evans", "evans.evans")
    t.patch_init(evans.FrameBundle, "evans.frame_bundle")
    t.patch(mods, maps, "two_sided_value", "maps.two_sided")
    t.patch(mods, maps, "map_M1", "maps.one_sided")
    t.patch(mods, maps, "map_M2", "maps.one_sided")
    t.patch(mods, maps, "verify_single_split", "maps.verify_single")
    t.patch(mods, maps, "verify_double_split", "maps.verify_double")
    t.patch(mods, maps, "minor_identity_check", "maps.minor_identity")
    t.patch(mods, counting, "verify_counting", "counting.verify_counting",
            on_result=lambda args, rep: _count_located(t, rep))
    t.patch(mods, counting, "brentq", "counting.refine")
    t.patch(mods, counting, "minimize_scalar", "counting.dip_probe")
    t.patch_counter(mods, counting, "lambda_grid", "counting.grid_points", amount=len)
    t.patch(mods, resolvent, "resolvent_apply", "resolvent.apply")
    t.patch(mods, resolvent, "u_gamma", "resolvent.u_gamma")
    for op in ("count_report", "evans_csv", "verify_table"):
        t.patch(mods, cli, op, f"cli.{op}")

    casts = warnings.catch_warnings()   # restores filters and showwarning on close
    casts.__enter__()
    t._contexts.append(casts)
    warnings.simplefilter("always", np.exceptions.ComplexWarning)
    shown = warnings.showwarning

    def showwarning(message, category, filename, lineno, file=None, line=None):
        if not issubclass(category, np.exceptions.ComplexWarning):
            shown(message, category, filename, lineno, file, line)
        elif filename.endswith("evans.py"):
            t.count("evans.complex_casts")

    warnings.showwarning = showwarning
    return t


def _count_located(tracer, rep):
    reports = [rep.full, rep.map_report, *rep.pieces.values()]
    doubles = sum(1 for r in reports for _, m in r.zeros if m == 2)
    located = sum(len(r.zeros) for r in reports) + len(rep.map_report.poles)
    tracer.count("counting.double_zeros", doubles)
    tracer.count("counting.located", located)


def layer_metrics(t, rounds, verify_rows=0):
    """Per-layer metrics, each per round of the workload."""
    c, tot, r = t.calls, t.total, float(rounds)

    def per(x):
        return x / r

    def us(name, q=None):
        d = t.durations[name]
        if q is None:
            return 1e6 * tail(d)[1]
        return 1e6 * float(np.percentile(d, q)) if d else 0.0

    probes = c["counting.dip_probe"]
    located = t.counts["counting.located"]
    evals = t.under_counting["evans.evans"] + t.under_counting["maps.two_sided"]
    attempts = sum(t.direct[("cli.verify_table", a)] for a in VERIFY_ATTEMPTS)
    m = {
        "propagate.edge_solutions": (per(c["propagate.edge_solution"] + c["propagate.adaptive"]),
                                     "count"),
        "propagate.edge_solution_s": (per(tot["propagate.edge_solution"]
                                          + tot["propagate.adaptive"]), "s"),
        "propagate.transfer_matrices": (per(t.counts["propagate.transfer_matrices"]), "count"),
        "propagate.adaptive_solves": (per(c["propagate.adaptive"]), "count"),
        "propagate.adaptive_s": (per(tot["propagate.adaptive"]), "s"),
        "evans.evans_calls": (per(c["evans.evans"]), "count"),
        "evans.evans_s": (per(tot["evans.evans"]), "s"),
        "evans.evans_us_p50": (us("evans.evans", 50.0), "us"),
        "evans.evans_us_tail": (us("evans.evans"), "us"),
        "evans.frame_bundles": (per(c["evans.frame_bundle"]), "count"),
        "evans.frame_bundle_s": (per(tot["evans.frame_bundle"]), "s"),
        "evans.complex_casts": (per(t.counts["evans.complex_casts"]), "count"),
        "maps.two_sided_calls": (per(c["maps.two_sided"]), "count"),
        "maps.two_sided_s": (per(tot["maps.two_sided"]), "s"),
        "maps.two_sided_us_p50": (us("maps.two_sided", 50.0), "us"),
        "maps.two_sided_us_tail": (us("maps.two_sided"), "us"),
        "maps.one_sided_calls": (per(c["maps.one_sided"]), "count"),
        "maps.one_sided_s": (per(tot["maps.one_sided"]), "s"),
        "graphs.split_graph_calls": (per(c["graphs.split_graph"]), "count"),
        "graphs.split_graph_s": (per(tot["graphs.split_graph"]), "s"),
        "counting.grid_points": (per(t.counts["counting.grid_points"]), "count"),
        "counting.refine_calls": (per(c["counting.refine"]), "count"),
        "counting.refine_s": (per(tot["counting.refine"]), "s"),
        "counting.dip_probes": (per(probes), "count"),
        "counting.scan_s": (per(t.outer["counting"] - t.covered["counting"]), "s"),
        "counting.dip_accept_ratio": (t.counts["counting.double_zeros"] / probes if probes else 0.0,
                                      "ratio"),
        "counting.evals_per_zero": (evals / located if located else 0.0, "ratio"),
        "resolvent.apply_calls": (per(c["resolvent.apply"]), "count"),
        "resolvent.apply_s": (per(tot["resolvent.apply"]), "s"),
        "resolvent.apply_ms_p50": (us("resolvent.apply", 50.0) / 1e3, "ms"),
        "resolvent.u_gamma_calls": (per(c["resolvent.u_gamma"]), "count"),
        "resolvent.u_gamma_s": (per(tot["resolvent.u_gamma"]), "s"),
        "cli.sweep_self_s": (per(t.uncovered["cli.evans_csv"]), "s"),
        "cli.verify_retries": (per(attempts - verify_rows), "count"),
    }
    return m
