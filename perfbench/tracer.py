"""Out-of-program tracer for the bilop benchmark's traced passes.

``Tracer.install`` wraps bilop's public functions from outside the
package, at every name the program looks them up by: ``cli`` and the
``analysis`` modules bind ``apply``, ``make_operator``, ``lp_norm`` and
``thread_map`` at import, so each binding in each ``bilop`` module is
replaced, not only the defining one.  Symbols are instrumented when the
CLI resolves them (their ``fn`` and registered partials), finite
differences when ``Symbol.partial`` builds them, and every ``numpy.fft``
transform is wrapped whichever module calls it.

Each wrapper records a span (name, layer, start, end, parent, thread).
Each item a ``thread_map`` runs is a span ``<layer>.map_item`` of the
layer that called the map, with the map's span as parent, whichever
thread runs it.  Spans are kept in memory and written out once, by
``write_spans``.
``metrics`` turns them into the per-layer metrics of BENCHMARK.json:

* ``<name>_s``: summed duration of the spans of that name that are not
  nested in a span of the same name on their thread.  Spans on worker
  threads overlap, so these sums are busy time, not wall time.
* ``<layer>.self_s``: each span's duration minus the time in which at
  least one of its children ran, on any thread, summed over the layer's
  spans.  So ``parallel.self_s`` is the part of a map's wall time in
  which no item ran (pool start-up, hand-off, join), and the mapped work,
  traced or not, counts to the calling layer.
* counts: calls and the work they did (points, bytes, offsets).
* ``operator.peak_mb`` / ``kernel.peak_mb``: the largest tracemalloc
  peak above the start of an outermost span of the layer.  Only a
  tracer made with ``track_memory`` measures them: tracing allocations
  slows numpy-heavy code threefold, so run.py makes such passes
  apart from the ones whose times it reports.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("symbols", "grid", "operator", "kernel", "analysis", "parallel",
          "reports", "cli")
STRATEGIES = ("direct", "multiplier", "separable", "dense", "commutator")
PEAK_LAYERS = ("operator", "kernel")
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

# metric -> span name whose outermost durations it sums
TIME_METRICS = {
    "symbols.eval_s": "symbols.eval",
    "symbols.seminorms_s": "symbols.seminorms",
    "symbols.ftc_decompose_s": "symbols.ftc_decompose",
    "grid.fft_s": "grid.fft",
    "grid.lp_norm_s": "grid.lp_norm",
    "grid.eval_at_s": "grid.eval_at",
    "operator.make_s": "operator.make",
    **{f"operator.apply_s.{s}": f"operator.apply.{s}" for s in STRATEGIES},
    "operator.dense_tensor_s": "operator.dense_tensor",
    "operator.transpose_s": "operator.transpose",
    "operator.verify_transpose_s": "operator.verify_transpose",
    "kernel.values_s": "kernel.values",
    "kernel.fit_decay_s": "kernel.fit_decay",
    "kernel.certify_s": "kernel.certify",
    "analysis.norm_scan_s": "analysis.norm_scan",
    "analysis.wbp_scan_s": "analysis.wbp_scan",
    "analysis.compactness_probe_s": "analysis.compactness_probe",
    "analysis.compare_probes_s": "analysis.compare_probes",
    "analysis.check_t1_s": "analysis.check_t1",
    "analysis.bmo_norm_s": "analysis.bmo_norm",
    "parallel.map_s": "parallel.map",
    "reports.envelope_s": "reports.envelope",
    "reports.write_s": "reports.write",
}

# metric -> span name whose calls it counts (nested calls included)
CALL_METRICS = {
    "symbols.eval_calls": "symbols.eval",
    "symbols.fd_partial_calls": "symbols.fd_partial",
    "grid.fft_calls": "grid.fft",
    "grid.lp_norm_calls": "grid.lp_norm",
    "operator.make_calls": "operator.make",
    **{f"operator.apply_calls.{s}": f"operator.apply.{s}" for s in STRATEGIES},
    "operator.dense_tensor_calls": "operator.dense_tensor",
    "kernel.quadrature_builds": "kernel.quadrature_build",
    "kernel.values_calls": "kernel.values",
    "parallel.map_calls": "parallel.map",
}

# counters the wrappers add to directly
COUNTERS = ("symbols.eval_points", "symbols.closed_partial_calls",
            "grid.fft_points", "operator.dense_bytes", "kernel.values_offsets",
            "parallel.map_items", "reports.bytes")


def _covered(intervals, lo, hi) -> float:
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    def __init__(self, track_memory: bool = False):
        self.track_memory = track_memory
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._threads = itertools.count()  # thread idents are reused; these are not
        self._patches = []
        # per-thread span lists and counters, so the hot path takes no lock;
        # a span is (id, parent, thread, layer, name, start, end, nested)
        self._span_lists = []
        self._counter_dicts = []
        self._peak_active = dict.fromkeys(PEAK_LAYERS, 0)
        self._peak_base = dict.fromkeys(PEAK_LAYERS, 0)
        self.peak_bytes = dict.fromkeys(PEAK_LAYERS, 0)

    # ------------------------------------------------------------ spans

    def _state(self):
        """This thread's (span stack, finished spans, counters)."""
        local = self._local
        try:
            return local.stack, local.spans, local.counters
        except AttributeError:
            local.stack, local.spans, local.counters = [], [], defaultdict(float)
            local.thread = next(self._threads)
            with self._lock:
                self._span_lists.append(local.spans)
                self._counter_dicts.append(local.counters)
            return local.stack, local.spans, local.counters

    def open(self, layer: str, name: str):
        stack = self._state()[0]
        parent = stack[-1][0] if stack else getattr(self._local, "inherited", None)
        nested = any(entry[1] == name for entry in stack)
        if self.track_memory and layer in PEAK_LAYERS:
            with self._lock:
                if self._peak_active[layer] == 0:
                    self._peak_base[layer] = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                self._peak_active[layer] += 1
        entry = (next(self._ids), name, layer, parent, nested, time.perf_counter())
        stack.append(entry)
        return entry

    def close(self, entry):
        end = time.perf_counter()
        stack, spans, _ = self._state()
        stack.pop()
        sid, name, layer, parent, nested, start = entry
        if self.track_memory and layer in PEAK_LAYERS:
            with self._lock:
                self._peak_active[layer] -= 1
                if self._peak_active[layer] == 0:
                    grown = tracemalloc.get_traced_memory()[1] - self._peak_base[layer]
                    self.peak_bytes[layer] = max(self.peak_bytes[layer], grown)
        spans.append((sid, parent, self._local.thread, layer, name, start, end, nested))

    def add(self, counter: str, amount=1):
        self._state()[2][counter] += amount

    def _collect(self):
        """All finished spans and the summed counters, across threads."""
        with self._lock:
            spans = sorted(itertools.chain.from_iterable(self._span_lists))
            counters = defaultdict(float)
            for part in self._counter_dicts:
                for key, value in part.items():
                    counters[key] += value
        return spans, counters

    def wrap(self, fn, layer: str, name, after=None):
        """fn inside a span; name may be a function of the call's arguments.

        after(args, kwargs, result) runs once the call returned.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry = tracer.open(layer, name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(entry)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------- installing

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement):
        """Replace every binding of ``original`` in the loaded bilop modules."""
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("bilop"):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, key, replacement)

    def _wrap_public(self, original, layer, name, after=None):
        self._rebind(original, self.wrap(original, layer, name, after))

    def install(self):
        """Wrap bilop's public functions.  Import bilop.cli before calling."""
        import bilop.analysis.bmo as bmo
        import bilop.analysis.compactness as compactness
        import bilop.analysis.scans as scans
        import bilop.analysis.t1 as t1
        import bilop.analysis.wbp as wbp
        import bilop.cli as cli
        import bilop.grid as grid
        import bilop.kernel as kernel
        import bilop.operator as operator
        import bilop.parallel as parallel
        import bilop.reports as reports
        import bilop.symbols.core as core
        import bilop.symbols.ftc as ftc
        import bilop.symbols.seminorms as seminorms

        add = self.add

        # symbols: resolved symbols, finite differences, seminorms, FTC split
        def count_eval(closed):
            def after(args, kwargs, result):
                add("symbols.eval_points", np.size(result))
                if closed:
                    add("symbols.closed_partial_calls")
            return after

        def instrument(args, kwargs, sym):
            sym.fn = self.wrap(sym.fn, "symbols", "symbols.eval", count_eval(False))
            sym.partials = {key: self.wrap(ev, "symbols", "symbols.eval", count_eval(True))
                            for key, ev in sym.partials.items()}

        self._set(cli, "resolve_symbol",
                  self.wrap(cli.resolve_symbol, "symbols", "symbols.resolve", instrument))
        for factory in ("_fd_freq", "_fd_space"):
            made = getattr(core, factory)
            self._set(core, factory, functools.wraps(made)(
                lambda *a, _made=made, **k: self.wrap(_made(*a, **k), "symbols",
                                                     "symbols.fd_partial")))
        self._wrap_public(seminorms.estimate_seminorms, "symbols", "symbols.seminorms")
        self._wrap_public(ftc.ftc_decompose, "symbols", "symbols.ftc_decompose")

        # grid: every numpy.fft transform, norms, point evaluation, helpers
        def count_fft(args, kwargs, result):
            add("grid.fft_points", np.size(args[0] if args else kwargs["a"]))

        for fname in FFT_NAMES:
            self._set(np.fft, fname, self.wrap(getattr(np.fft, fname), "grid",
                                               "grid.fft", count_fft))
        self._wrap_public(grid.lp_norm, "grid", "grid.lp_norm")
        self._wrap_public(grid.eval_at, "grid", "grid.eval_at")
        for fname in ("fft_forward", "fft_inverse", "translate",
                      "spectral_derivative", "fractional_derivative"):
            self._wrap_public(getattr(grid, fname), "grid", f"grid.{fname}")

        # operator
        def apply_name(args, kwargs):
            op = args[0] if args else kwargs["op"]
            if isinstance(op, operator.CommutatorOperator):
                return "operator.apply.commutator"
            if isinstance(op, operator.DenseBilinearOperator):
                return "operator.apply.dense"
            return f"operator.apply.{op.strategy}"

        def dense_bytes(args, kwargs, result):
            op = args[0] if args else kwargs["op"]
            if isinstance(op, operator.BilinearOperator):
                add("operator.dense_bytes",
                    (op.grid.points_per_axis ** op.grid.dim) ** 3 * 16)

        self._wrap_public(operator.make_operator, "operator", "operator.make")
        self._wrap_public(operator.apply, "operator", apply_name)
        self._wrap_public(operator.dense_tensor, "operator", "operator.dense_tensor",
                          dense_bytes)
        self._wrap_public(operator.transpose, "operator", "operator.transpose")
        self._wrap_public(operator.verify_transpose_identities, "operator",
                          "operator.verify_transpose")
        self._wrap_public(operator.pairing, "operator", "operator.pairing")

        # kernel
        quad = kernel.KernelQuadrature

        def count_offsets(args, kwargs, result):
            us = args[2] if len(args) > 2 else kwargs["us"]
            add("kernel.values_offsets", np.size(us))

        self._set(quad, "__init__", self.wrap(quad.__init__, "kernel",
                                              "kernel.quadrature_build"))
        self._set(quad, "values", self.wrap(quad.values, "kernel", "kernel.values",
                                            count_offsets))
        self._wrap_public(kernel.fit_kernel_decay, "kernel", "kernel.fit_decay")
        self._wrap_public(kernel.certify_cz_commutator_kernel, "kernel", "kernel.certify")

        # analysis
        for fn, name in ((scans.norm_scan, "norm_scan"), (wbp.wbp_scan, "wbp_scan"),
                         (compactness.compactness_probe, "compactness_probe"),
                         (compactness.compare_probes, "compare_probes"),
                         (t1.check_t1_conditions, "check_t1"),
                         (bmo.bmo_norm, "bmo_norm"),
                         (scans.family_member, "family_member")):
            self._wrap_public(fn, "analysis", f"analysis.{name}")

        # parallel
        self._rebind(parallel.thread_map, self._traced_thread_map(
            parallel.thread_map, parallel.worker_count))

        # reports
        def count_bytes(args, kwargs, paths):
            add("reports.bytes", sum(Path(p).stat().st_size for p in paths))

        self._wrap_public(reports.envelope, "reports", "reports.envelope")
        self._wrap_public(reports.write_report, "reports", "reports.write", count_bytes)

        # cli: argument parsing and multiplier resolution (main is wrapped
        # per task by the caller, which knows the subcommand)
        self._wrap_public(cli.build_parser, "cli", "cli.build_parser")
        self._wrap_public(cli.resolve_multiplier, "cli", "cli.resolve_multiplier")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _traced_thread_map(self, thread_map, worker_count):
        tracer = self

        @functools.wraps(thread_map)
        def traced_thread_map(fn, items):
            items = list(items)
            workers = min(worker_count(), max(1, len(items)))
            caller = tracer._state()[0]
            item_layer = caller[-1][2] if caller else "cli"
            entry = tracer.open("parallel", "parallel.map")
            t0, c0 = time.perf_counter(), time.process_time()

            def item_fn(item):
                tracer.add("parallel.queue_wait_s", time.perf_counter() - t0)
                on_pool_thread = not tracer._state()[0]
                if on_pool_thread:  # spans here take the map's span as parent
                    tracer._local.inherited = entry[0]
                item_entry = tracer.open(item_layer, f"{item_layer}.map_item")
                try:
                    return fn(item)
                finally:
                    tracer.close(item_entry)
                    if on_pool_thread:
                        tracer._local.inherited = None

            try:
                return thread_map(item_fn, items)
            finally:
                wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
                tracer.close(entry)
                tracer.add("parallel.map_items", len(items))
                tracer.add("parallel.cpu_s", cpu)
                tracer.add("parallel.capacity_s", wall * workers)

        return traced_thread_map

    # ---------------------------------------------------------- results

    def metrics(self, subcommands) -> dict:
        """Per-layer metrics from the spans and counters recorded so far."""
        spans, counters = self._collect()
        out = {}
        calls = defaultdict(int)
        outer = defaultdict(float)
        children = defaultdict(list)
        for sid, parent, thread, layer, name, start, end, nested in spans:
            calls[name] += 1
            children[parent].append((start, end))
            if not nested:
                outer[name] += end - start
        self_time = dict.fromkeys(LAYERS, 0.0)
        for sid, parent, thread, layer, name, start, end, nested in spans:
            self_time[layer] += (end - start) - _covered(children.get(sid, ()),
                                                         start, end)

        for metric, name in CALL_METRICS.items():
            out[metric] = calls[name]
        for metric in COUNTERS:
            out[metric] = int(counters.get(metric, 0))
        for metric, name in TIME_METRICS.items():
            out[metric] = outer[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer]
        if self.track_memory:
            for layer in PEAK_LAYERS:
                out[f"{layer}.peak_mb"] = self.peak_bytes[layer] / 2 ** 20
        out["parallel.queue_wait_s"] = counters.get("parallel.queue_wait_s", 0.0)
        capacity = counters.get("parallel.capacity_s", 0.0)
        out["parallel.utilization"] = (counters.get("parallel.cpu_s", 0.0) / capacity
                                       if capacity > 0 else 0.0)
        for sub in subcommands:
            out[f"cli.{sub}_s"] = outer[f"cli.{sub}"]
        return out

    def write_spans(self, path):
        """Write every span once, as JSON."""
        rows = [[sid, parent, thread, name, round(start, 7), round(end, 7)]
                for sid, parent, thread, layer, name, start, end, nested
                in self._collect()[0]]
        doc = {"fields": ["id", "parent", "thread", "name", "start_s", "end_s"],
               "spans": rows}
        Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n")
