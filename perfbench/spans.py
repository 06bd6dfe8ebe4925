"""Span tracing from outside the program: wrap the repo's public entry points.

Nothing in ``src/`` knows about this module.  :func:`install` replaces a
fixed list of functions and methods of the ``repro`` package with wrappers
that time each call as a span, in integer nanoseconds, on a per-thread span
stack.  A span's *self* time is its duration minus the durations of the
spans nested in it, so the self times of one thread add up exactly to the
time its outermost spans cover.

The wrappers also count work at the same boundaries: job keys hashed,
cache entries and bytes written, operand pairs materialised, cache lines
modelled, oracle trials per selection, runner cache hits (nested runners
included) and simulated multiplications.

Only a traced pass installs the wrappers, so the timed passes run the
program exactly as a user does.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

#: (span name, module, qualified attribute) of every wrapped entry point.
#: Module functions are replaced in every loaded ``repro`` module that
#: imported them by name, methods on their class.
TARGETS = (
    ("api.compile", "repro.api.requests", "SweepSpec.compile"),
    ("api.compile", "repro.dse.explore", "DseSpec.compile"),
    ("api.compile", "repro.experiments.end_to_end", "end_to_end_jobs"),
    ("api.compile", "repro.experiments.layerwise", "layerwise_jobs"),
    ("api.collate", "repro.experiments.end_to_end", "collate_end_to_end"),
    ("api.collate", "repro.experiments.layerwise", "collate_layerwise"),
    ("api.collate", "repro.api.responses", "jsonify_rows"),
    ("api.collate", "repro.api.responses", "sweep_row"),
    ("api.serialize", "repro.api.responses", "FigureResult.to_json"),
    ("api.serialize", "repro.api.responses", "SweepResult.to_json"),
    ("api.serialize", "repro.api.responses", "DseResult.to_json"),
    ("runtime.key", "repro.runtime.jobs", "SimJob.key"),
    ("runtime.scan", "repro.runtime.cache", "ResultCache.get_many"),
    ("runtime.scan", "repro.runtime.cache", "ResultCache.missing"),
    ("runtime.cache_put", "repro.runtime.cache", "ResultCache.put"),
    ("runtime.cache_put", "repro.runtime.cache", "ResultCache.put_blob"),
    ("runtime.run", "repro.runtime.runner", "BatchRunner.run"),
    ("runtime.execute", "repro.runtime.jobs", "execute_job"),
    ("workloads.materialize", "repro.workloads.layers", "materialize_layer"),
    ("sparse.matrix_from_arrays", "repro.sparse.formats", "matrix_from_arrays"),
    ("core.mapper_select", "repro.core.mapper", "OracleMapper.select"),
    ("engine.run_layer", "repro.accelerators.engine", "SpmspmEngine.run_layer"),
    ("engine.output_row_nnz", "repro.accelerators.engine", "output_row_nnz"),
    ("engine_vec.op_merge", "repro.accelerators.engine",
     "SpmspmEngine._merge_partial_fibers"),
    ("engine_vec.ip", "repro.engine_vec.kernels", "run_inner_product"),
    ("engine_vec.op", "repro.engine_vec.kernels", "run_outer_product"),
    ("engine_vec.gust", "repro.engine_vec.kernels", "run_gustavson"),
    ("engine_vec.lru", "repro.engine_vec.kernels", "lru_hits"),
    ("dse.collate", "repro.dse.explore", "collate_dse"),
)

#: Modules imported by :func:`preload` beside those of :data:`TARGETS`.
_PRELOAD = (
    "repro.accelerators", "repro.accelerators.cpu", "repro.api.session",
    "repro.dse.workloads", "repro.sparse.generate", "repro.serve.app",
)


def preload() -> None:
    """Import every module a pass runs or :func:`install` patches.

    Untraced and traced passes both call this during set-up, so neither
    pays the package's lazy imports inside its timed phase and the two
    phases time the same work.
    """
    import importlib

    for module_name in _PRELOAD + tuple(module for _name, module, _attr in TARGETS):
        importlib.import_module(module_name)


class Tracer:
    """Span totals and work counters of one traced pass (thread-safe)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: span name -> [self ns, calls]
        self.spans: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.counts: dict[str, int] = defaultdict(int)
        #: Time covered by outermost spans, summed over threads.
        self.top_level_ns = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent(self) -> str | None:
        """Name of the innermost open span of this thread (``None`` if none)."""
        stack = self._stack()
        return stack[-1][0] if stack else None

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` timed as span ``name``.

        ``before(tracer, args)`` runs outside the span and returns a state
        that ``after(tracer, args, result, state, elapsed_ns)`` receives.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(self, args) if before is not None else None
            stack = self._stack()
            frame = [name, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with self._lock:
                    entry = self.spans[name]
                    entry[0] += elapsed - frame[1]
                    entry[1] += 1
                    if not stack:
                        self.top_level_ns += elapsed
            if after is not None:
                after(self, args, result, state, elapsed)
            return result

        return wrapper

    def snapshot(self) -> dict:
        """Plain-data copy: ``{"spans": {name: [self_ns, calls]}, ...}``."""
        with self._lock:
            return {
                "spans": {name: list(entry) for name, entry in self.spans.items()},
                "counts": dict(self.counts),
                "top_level_ns": self.top_level_ns,
            }


# ----------------------------------------------------------------------
# Counting hooks
# ----------------------------------------------------------------------
def _after_put_blob(tracer, args, _result, _state, _elapsed) -> None:
    tracer.count("runtime.cache_puts", 1)
    tracer.count("runtime.cache_put_bytes", len(args[2]))


def _after_materialize(tracer, _args, _result, _state, _elapsed) -> None:
    tracer.count("workloads.materialize_calls", 1)


def _after_key(tracer, _args, _result, _state, _elapsed) -> None:
    tracer.count("runtime.key_calls", 1)


def _after_lru(tracer, args, _result, _state, _elapsed) -> None:
    tracer.count("engine_vec.lru_lines", len(args[0]))


def _after_select(tracer, _args, _result, _state, _elapsed) -> None:
    tracer.count("core.select_calls", 1)


def _before_run(tracer, args):
    runner, jobs = args[0], args[1]
    if tracer.parent() == "core.mapper_select":
        tracer.count("core.trials", len(jobs))
    return runner.stats.submitted, runner.stats.cache_hits


def _after_run(tracer, args, _result, state, _elapsed) -> None:
    stats = args[0].stats
    tracer.count("runtime.submitted", stats.submitted - state[0])
    tracer.count("runtime.cache_hits", stats.cache_hits - state[1])


def _before_run_layer(tracer, _args):
    return tracer.parent() != "engine.run_layer"


def _after_run_layer(tracer, _args, result, outermost, elapsed) -> None:
    tracer.count("engine.run_layer_calls", 1)
    if outermost:
        # The N-stationary variants recurse once into their mirror; count
        # the simulated work and its host time at the outermost call only.
        tracer.count("engine.outer_ns", elapsed)
        tracer.count("engine.multiplications", result.stats.multiplications)


_HOOKS = {
    "ResultCache.put_blob": (None, _after_put_blob),
    "materialize_layer": (None, _after_materialize),
    "SimJob.key": (None, _after_key),
    "lru_hits": (None, _after_lru),
    "OracleMapper.select": (None, _after_select),
    "BatchRunner.run": (_before_run, _after_run),
    "SpmspmEngine.run_layer": (_before_run_layer, _after_run_layer),
}


def install(tracer: Tracer) -> None:
    """Wrap every :data:`TARGETS` entry point of the loaded ``repro`` package."""
    import importlib

    preload()
    for name, module_name, attribute in TARGETS:
        module = importlib.import_module(module_name)
        before, after = _HOOKS.get(attribute, (None, None))
        owner_name, _, member = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[member]
            setattr(owner, member, tracer.wrap(name, original, before, after))
            continue
        original = getattr(module, member)
        wrapped = tracer.wrap(name, original, before, after)
        for loaded_name, loaded in list(sys.modules.items()):
            if not loaded_name.startswith("repro") or loaded is None:
                continue
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, binding, wrapped)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: Every per-layer metric a traced run reports, with its unit.  The four
#: that do not come from span totals (pool counters, trace overhead) are
#: filled in by the orchestrator.
PER_LAYER_UNITS = {
    "api.compile_s": "s",
    "api.collate_s": "s",
    "api.serialize_s": "s",
    "runtime.key_s": "s",
    "runtime.key_calls": "count",
    "runtime.scan_s": "s",
    "runtime.cache_put_s": "s",
    "runtime.cache_puts": "count",
    "runtime.cache_put_bytes": "bytes",
    "runtime.cache_hit_ratio": "ratio",
    "runtime.pool_wait_s": "s",
    "runtime.peak_in_flight": "count",
    "runtime.run_self_s": "s",
    "runtime.execute_self_s": "s",
    "workloads.materialize_s": "s",
    "workloads.materialize_calls": "count",
    "sparse.matrix_from_arrays_s": "s",
    "core.mapper_select_s": "s",
    "core.trials_per_select": "count",
    "engine.run_layer_s": "s",
    "engine.run_layer_calls": "count",
    "engine.output_row_nnz_s": "s",
    "engine_vec.ip_s": "s",
    "engine_vec.op_s": "s",
    "engine_vec.gust_s": "s",
    "engine_vec.lru_s": "s",
    "engine_vec.lru_lines": "count",
    "engine.host_ns_per_mult": "ns",
    "serve.self_s": "s",
    "dse.collate_s": "s",
    "unattributed_s": "s",
    "trace_overhead_frac": "ratio",
}


def layer_metrics(snapshot: dict, wall_ns: int, serve_self_ns: int = 0) -> dict:
    """Per-layer metrics of one traced pass from its :meth:`Tracer.snapshot`.

    ``wall_ns`` is the pass's traced wall time.  ``serve_self_ns`` is the
    client-observed latency not covered by server spans (serving passes
    only); whatever neither a span nor the server accounts for is
    ``unattributed_s``, so every self time plus it sums to ``wall_ns``.
    """
    spans, counts = snapshot["spans"], snapshot["counts"]

    def self_s(*names: str) -> float:
        return sum(spans[name][0] for name in names if name in spans) / 1e9

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    return {
        "api.compile_s": self_s("api.compile"),
        "api.collate_s": self_s("api.collate"),
        "api.serialize_s": self_s("api.serialize"),
        "runtime.key_s": self_s("runtime.key"),
        "runtime.key_calls": counts.get("runtime.key_calls", 0),
        "runtime.scan_s": self_s("runtime.scan"),
        "runtime.cache_put_s": self_s("runtime.cache_put"),
        "runtime.cache_puts": counts.get("runtime.cache_puts", 0),
        "runtime.cache_put_bytes": counts.get("runtime.cache_put_bytes", 0),
        "runtime.cache_hit_ratio": ratio(
            counts.get("runtime.cache_hits", 0), counts.get("runtime.submitted", 0)
        ),
        "runtime.run_self_s": self_s("runtime.run"),
        "runtime.execute_self_s": self_s("runtime.execute"),
        "workloads.materialize_s": self_s("workloads.materialize"),
        "workloads.materialize_calls": counts.get("workloads.materialize_calls", 0),
        "sparse.matrix_from_arrays_s": self_s("sparse.matrix_from_arrays"),
        "core.mapper_select_s": self_s("core.mapper_select"),
        "core.trials_per_select": ratio(
            counts.get("core.trials", 0), counts.get("core.select_calls", 0)
        ),
        "engine.run_layer_s": self_s("engine.run_layer"),
        "engine.run_layer_calls": counts.get("engine.run_layer_calls", 0),
        "engine.output_row_nnz_s": self_s("engine.output_row_nnz"),
        "engine_vec.ip_s": self_s("engine_vec.ip"),
        "engine_vec.op_s": self_s("engine_vec.op", "engine_vec.op_merge"),
        "engine_vec.gust_s": self_s("engine_vec.gust"),
        "engine_vec.lru_s": self_s("engine_vec.lru"),
        "engine_vec.lru_lines": counts.get("engine_vec.lru_lines", 0),
        "engine.host_ns_per_mult": ratio(
            counts.get("engine.outer_ns", 0), counts.get("engine.multiplications", 0)
        ),
        "serve.self_s": serve_self_ns / 1e9,
        "dse.collate_s": self_s("dse.collate"),
        "unattributed_s": (wall_ns - snapshot["top_level_ns"] - serve_self_ns) / 1e9,
    }
