"""Span and count tracing for the traced benchmark run, done entirely from
outside the package.

``Tracer.install`` replaces each traced public function with a wrapper in
every ``ndelie`` module that holds it: the package binds cross-module names
with ``from .x import f``, so patching the defining module alone would miss
most callers.  A wrapper records a span (name, start, end, parent span,
item id), adds its duration minus the time its child spans cover to the
function's self time, and applies the function's counter.  ``uninstall``
puts the original functions back.

Spans are kept in memory up to ``MAX_SPANS`` and written out at the end;
self times and counts are aggregated for every call, whether or not the
span itself was kept.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

MAX_SPANS = 400_000


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_flow(counts, name, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    pts = a["points"] if "points" in a else a["jets"]
    counts[name + ".jet_substeps"] += len(pts) * max(int(a["substeps"]), 1)
    counts[name + ".domain_exits"] += sum(1 for m in result if m is None)


def _count_integrate(counts, name, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    spec, n = a["spec"], int(a["steps_per_delay"])
    delays = round((a["t_end"] - spec.t0) / spec.r)
    steps = delays * n
    counts[name + ".steps"] += steps
    # one start value, four stages plus the node value per step, and the
    # left-hand acceleration at each breaking point
    counts[name + ".rhs_evals"] += 1 + 5 * steps + delays


def _count_is_zero(counts, name, fn, args, kwargs, result):
    counts[name + ".sampled"] += result.mode == "sampled"
    counts[name + ".skipped_points"] += result.skipped


# span name -> (module, function, counter); reduce_ansatz and
# canonical_constraints share one span name, the reduction step
SPANS = (
    ("symexpr.normalize", "symexpr", "normalize", None),
    ("prolong.apply_operator", "prolong", "apply_operator", None),
    ("detsys.determine", "detsys", "determine", None),
    ("detsys.reduce", "detsys", "reduce_ansatz", None),
    ("detsys.reduce", "detsys", "canonical_constraints", None),
    ("detsys.is_zero", "detsys", "is_zero", _count_is_zero),
    ("classify.classify", "classify", "classify", None),
    ("classify.omega_ode_solve", "classify", "omega_ode_solve", None),
    ("classify.compatibility_c", "classify", "compatibility_c", None),
    ("ndesolve.integrate", "ndesolve", "integrate", _count_integrate),
    ("ndesolve.residual", "ndesolve", "residual", None),
    ("flowverify.flow", "flowverify", "flow", _count_flow),
    ("flowverify.prolonged_flow", "flowverify", "prolonged_flow",
     _count_flow),
    ("flowverify.transform_solution", "flowverify", "transform_solution",
     None),
    ("flowverify.finite_check", "flowverify", "finite_check", None),
    ("flowverify.infinitesimal_check", "flowverify", "infinitesimal_check",
     None),
    ("flowverify.identity_error", "flowverify", "identity_error", None),
    ("flowverify.inverse_error", "flowverify", "inverse_error", None),
    ("flowverify.closure_error", "flowverify", "closure_error", None),
    ("suite.run_scenario", "suite", "run_scenario", None),
)


class Tracer:
    def __init__(self):
        self.names = []
        self.self_s = []
        self.calls = []
        self.counts = defaultdict(int)
        self.stack = []         # [span id, time covered by children]
        self.next_id = 0
        self.item = -1
        self.paused = True
        self.dropped = 0
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._patched = []      # (owner, attribute, original)

    # -- wrappers ----------------------------------------------------------

    def _index(self, name):
        if name not in self.names:
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self.names.index(name)

    def _span(self, name, fn, counter):
        idx = self._index(name)
        stack = self.stack
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                self.self_s[idx] += dur - frame[1]
                self.calls[idx] += 1
                if stack:
                    stack[-1][1] += dur
                if sid < MAX_SPANS:
                    self.span_id.append(sid)
                    self.span_name.append(idx)
                    self.span_parent.append(parent)
                    self.span_item.append(self.item)
                    self.span_start.append(start)
                    self.span_end.append(end)
                else:
                    self.dropped += 1
            if counter is not None:
                counter(counts, name, fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _compile_counter(self, fn):
        """compile_numeric recurses through its module global, so only the
        outermost call counts as a compilation; the closure it returns is
        wrapped to count the evaluations made through it."""
        counts = self.counts
        depth = [0]

        def compile_numeric(e):
            if self.paused:
                return fn(e)
            depth[0] += 1
            try:
                f = fn(e)
            finally:
                depth[0] -= 1
            if depth[0]:
                return f
            counts["symexpr.compile_numeric.compiled"] += 1

            def compiled(env, fns):
                if not self.paused:
                    counts["symexpr.numeric_evals"] += 1
                return f(env, fns)

            return compiled

        compile_numeric.__wrapped__ = fn
        return compile_numeric

    def _eval_counter(self, fn):
        counts = self.counts

        def eval(desc, *args, **kwargs):
            if not self.paused:
                counts["equation.coeff_evals"] += 1
            return fn(desc, *args, **kwargs)

        eval.__wrapped__ = fn
        return eval

    # -- installation --------------------------------------------------------

    def _rebind(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "ndelie" and not modname.startswith("ndelie."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def install(self, nd):
        """Wrap every traced function; nd maps module short names to the
        imported ``ndelie`` submodules."""
        for name, modname, attr, counter in SPANS:
            original = getattr(getattr(nd, modname), attr)
            self._rebind(original, self._span(name, original, counter))
        original = nd.symexpr.compile_numeric
        self._rebind(original, self._compile_counter(original))
        cd = nd.equation.CoeffDescriptor
        original = cd.eval
        cd.eval = self._eval_counter(original)
        self._patched.append((cd, "eval", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def totals(self):
        """Every count, plus calls and self seconds per span name; a name
        that never ran is absent."""
        out = dict(self.counts)
        for name, s, c in zip(self.names, self.self_s, self.calls):
            out[f"{name}.self_s"] = s
            out[f"{name}.calls"] = c
        return out

    def self_total(self):
        return sum(self.self_s)

    def save(self, path):
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names), id=np.array(self.span_id),
            name=np.array(self.span_name), parent=np.array(self.span_parent),
            item=np.array(self.span_item), start=np.array(self.span_start),
            end=np.array(self.span_end), dropped=np.array(self.dropped))
