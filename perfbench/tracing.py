"""In-memory span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, the public functions of each
decaylab layer, the ``value`` oracle of the analytic data in ``fields`` and
numpy's FFT entry points.  A span records its name, start, end, thread and
the parent span on the same thread.  Its self time is its duration minus
the duration of its children on that thread.  Spans stay in memory and are
written out once the run ends.  Nothing in ``src/`` is edited: wrappers are
installed by rebinding module and class attributes, and removed afterwards.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import itertools
import json
import math
import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import NamedTuple

LAYERS = ("fields", "transport", "propagators", "operators", "norms", "harness", "experiments")
FFT_FUNCTIONS = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2", "rfft", "irfft", "rfftn", "irfftn")
_ONE_AXIS_FFTS = ("fft", "ifft", "rfft", "irfft")
_HARNESS_CHECKS = ("harness.check_", "harness.airy_decay_experiment")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    thread: int
    id: int
    parent: int | None  # id of the enclosing span on the same thread
    self_s: float


class _ThreadState(threading.local):
    def __init__(self, registry: list, lock: threading.Lock):
        self.stack = []  # open spans: [name, id, child seconds]
        self.counts = collections.Counter()
        with lock:
            registry.append(self.counts)


class Tracer:
    """Records spans and counters while installed; see ``installed``."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._registry = []
        self._state = _ThreadState(self._registry, threading.Lock())

    @property
    def counts(self) -> collections.Counter:
        total = collections.Counter()
        for c in self._registry:
            total.update(c)
        return total

    def _wrap(self, fn, name: str, hook):
        state, spans, ids, clock = self._state, self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = state.stack
            parent = stack[-1] if stack else None
            rec = [name, next(ids), 0.0]
            stack.append(rec)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[2] += dur
                spans.append(
                    Span(name, start, end, threading.get_ident(), rec[1],
                         None if parent is None else parent[1], dur - rec[2])
                )
            if hook is not None:
                hook(state.counts, stack, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced callable for the duration of the block."""
        undo = []
        try:
            for owner, attr, name, hook in _targets():
                orig = getattr(owner, attr)
                wrapped = self._wrap(orig, name, hook)
                for holder, key in _bindings(owner, attr, orig):
                    undo.append((holder, key, orig))
                    setattr(holder, key, wrapped)
            yield self
        finally:
            for holder, key, orig in reversed(undo):
                setattr(holder, key, orig)

    def summary(self) -> dict:
        """Per span name: calls and self seconds."""
        out = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += s.self_s
        return out

    def covered_seconds(self, lo: float, hi: float) -> float:
        """Length of the union of all span intervals, clipped to [lo, hi]."""
        covered, reach = 0.0, lo
        for start, end in sorted((max(s.start, lo), min(s.end, hi)) for s in self.spans):
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        return covered

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": list(Span._fields), "spans": [list(s) for s in self.spans]}, fh)


def _bindings(owner, attr: str, orig):
    """Every (holder, key) through which callers reach ``orig``.

    A function is also reachable through each decaylab module that imported
    it by name, so those bindings are rebound too.
    """
    out = [(owner, attr)]
    if inspect.isclass(owner):
        return out
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or mod is owner or not (mod_name == "decaylab" or mod_name.startswith("decaylab.")):
            continue
        for key, value in vars(mod).items():
            if value is orig:
                out.append((mod, key))
    return out


def _targets():
    """(owner, attribute, span name, counter hook) for every traced callable."""
    import numpy.fft

    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"decaylab.{layer}")
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out.append((mod, attr, f"{layer}.{attr}", _hook(layer, attr)))
    fields = importlib.import_module("decaylab.fields")
    for cls in vars(fields).values():
        if (
            inspect.isclass(cls)
            and issubclass(cls, fields.AnalyticField)
            and cls.__module__ == fields.__name__
            and "value" in vars(cls)
        ):
            out.append((cls, "value", "fields.value", _count_value))
    experiments = importlib.import_module("decaylab.experiments")
    out.append((experiments.Report, "write", "experiments.emit", _count_report))
    # the pool wait of a threaded runner, kept out of the runner's self time
    out.append((experiments, "_ordered_map", "experiments.ordered_map", None))
    for attr in FFT_FUNCTIONS:
        out.append((numpy.fft, attr, f"fft.{attr}", functools.partial(_count_fft, attr)))
    return out


# ---------------------------------------------------------------------------
# counter hooks: (counts, open ancestor spans, args, kwargs, result)


def _under(stack, name: str) -> bool:
    return any(rec[0] == name for rec in stack)


def _count_value(counts, stack, args, kwargs, result):
    import numpy as np

    n = int(np.size(result))
    counts["fields.value_points"] += n
    if _under(stack, "transport.sup_velocity_average"):
        counts["transport.sup_points"] += n


def _count_propagate(counts, stack, args, kwargs, result):
    counts["propagators.propagate_points"] += int(result.values.size)


def _count_report(counts, stack, args, kwargs, result):
    counts["experiments.report_bytes"] += sum(os.path.getsize(p) for p in result)


def _count_excluded(counts, stack, args, kwargs, result):
    # count each harness result once, at the outermost harness call
    if not any(rec[0].startswith("harness.") for rec in stack):
        counts["harness.excluded_samples"] += len(getattr(result, "excluded", ()))


def _count_fft(attr, counts, stack, args, kwargs, result):
    import numpy as np

    a = np.asarray(args[0] if args else kwargs["a"])
    points = max(a.size, result.size)
    if attr in _ONE_AXIS_FFTS:
        axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
        axes = (axis,)
    else:
        axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
        if axes is None:
            axes = (-2, -1) if attr.endswith("2") else tuple(range(result.ndim))
    length = 1
    for ax in axes:
        length *= max(a.shape[ax], result.shape[ax])
    counts["fft.points"] += points
    counts["fft.flop_computed"] += 5.0 * points * math.log2(length) if length > 1 else 0.0
    counts["fft.bytes_computed"] += a.nbytes + result.nbytes


def _hook(layer: str, attr: str):
    if layer == "harness":  # every public harness function returns a fit or report with .excluded
        return _count_excluded
    if (layer, attr) == ("propagators", "propagate"):
        return _count_propagate
    return None


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float, window: tuple) -> dict:
    """Per-layer metric values of one traced pass, keyed by metric name."""
    spans = tracer.summary()
    counts = tracer.counts

    def self_s(*names):
        return sum(spans[n]["self_s"] for n in names if n in spans)

    def calls(*names):
        return sum(spans[n]["calls"] for n in names if n in spans)

    ffts = [n for n in spans if n.startswith("fft.")]
    checks = [n for n in spans if n.startswith(_HARNESS_CHECKS)]
    return {
        "fields.value_s": self_s("fields.value"),
        "fields.value_calls": calls("fields.value"),
        "fields.value_points": counts["fields.value_points"],
        "fields.sample_s": self_s("fields.sample"),
        "fields.spectral_derivative_s": self_s("fields.spectral_derivative"),
        "fields.spectral_derivative_calls": calls("fields.spectral_derivative"),
        "transport.sup_velocity_average_s": self_s("transport.sup_velocity_average"),
        "transport.sup_velocity_average_calls": calls("transport.sup_velocity_average"),
        "transport.sup_points": counts["transport.sup_points"],
        "transport.counterexample_profile_s": self_s("transport.counterexample_profile"),
        "propagators.propagate_s": self_s("propagators.propagate"),
        "propagators.propagate_calls": calls("propagators.propagate"),
        "propagators.propagate_points": counts["propagators.propagate_points"],
        "fft.s": self_s(*ffts),
        "fft.calls": calls(*ffts),
        "fft.points": counts["fft.points"],
        "fft.flop_computed": counts["fft.flop_computed"],
        "fft.bytes_computed": counts["fft.bytes_computed"],
        "operators.apply_operator_s": self_s("operators.apply_operator"),
        "operators.apply_operator_calls": calls("operators.apply_operator"),
        "operators.commutation_residual_s": self_s("operators.commutation_residual"),
        "operators.conserved_operator_norm_s": self_s("operators.conserved_operator_norm"),
        "norms.x_norm_s": self_s("norms.x_norm"),
        "norms.x_norm_calls": calls("norms.x_norm"),
        "norms.translated_xnorm_inf_s": self_s("norms.translated_xnorm_inf"),
        "norms.build_dyadic_partition_s": self_s("norms.build_dyadic_partition"),
        "norms.hs_norm_s": self_s("norms.hs_norm"),
        "norms.lp_norm_s": self_s("norms.lp_norm"),
        "harness.check_s": self_s(*checks),
        "harness.fit_decay_s": self_s("harness.fit_decay"),
        "harness.excluded_samples": counts["harness.excluded_samples"],
        "experiments.config_s": self_s("experiments.load_config", "experiments.parse_config", "experiments.catalog"),
        "experiments.runner_self_s": self_s("experiments.run"),
        "experiments.emit_s": self_s("experiments.emit"),
        "experiments.report_bytes": counts["experiments.report_bytes"],
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.coverage": tracer.covered_seconds(*window) / traced_wall,
    }
