"""Per-layer tracing for one cold run, done from outside the program.

:class:`Tracer` replaces public functions of each layer with wrappers
that record a span (name, start, end, parent) in memory and count the
layer's work; nothing under ``src/`` changes.  :func:`profile_shares`
rolls a cProfile run up into self-time shares per module.

Which end-to-end metric each layer metric should move, and on which
workload, is tabulated in ``README.md`` in this directory.
"""

import os
import pstats
import time
from pathlib import Path

#: Modules whose cProfile self time is reported as ``<module>.self_share``.
PROFILED_MODULES = (
    "sim.replay", "sim.epochs", "sim.trace", "sim.platform",
    "cpu.fastcore", "cpu.core",
    "arch.base", "arch.nvmr", "arch.clank", "arch.hoop", "arch.ideal",
    "mem.cache", "mem.maptable", "mem.bloom", "mem.nvm",
    "policies.jit", "policies.spendthrift", "policies.watchdog",
    "policies.task",
    "energy.accounting", "store", "numpy",
)

#: Layer metrics the spans rep reports: name -> unit.
SPAN_METRICS = {
    "minicc.compile_s": "s",
    "minicc.programs": "count",
    "sim.trace.record_s": "s",
    "sim.trace.records": "count",
    "sim.trace.steps": "count",
    "sim.epochs.script_s": "s",
    "sim.epochs.scripts_built": "count",
    "sim.epochs.scripts_loaded": "count",
    "sim.epochs.mb_written": "MB",
    "sim.tracestore.fetch_s": "s",
    "sim.tracestore.hits": "count",
    "sim.tracestore.misses": "count",
    "sim.tracestore.mb_written": "MB",
    "sim.replay.run_s": "s",
    "sim.replay.runs": "count",
    "sim.replay.windows": "count",
    "sim.replay.window_steps": "count",
    "sim.replay.compiled_windows": "count",
    "sim.replay.compiled_hit_rate": "ratio",
    "sim.replay.fallbacks": "count",
    "sim.platform.run_s": "s",
    "sim.platform.runs": "count",
    "analysis.runcache.fetch_s": "s",
    "analysis.runcache.store_s": "s",
    "analysis.runcache.hits": "count",
    "analysis.runcache.misses": "count",
    "analysis.runcache.mb_written": "MB",
    "analysis.engine.reduce_s": "s",
    "analysis.engine.render_s": "s",
    "analysis.engine.artifact_s": "s",
    "service.scheduler.job_p50_ms": "ms",
    "service.scheduler.job_max_ms": "ms",
}

#: ``<layer>_s`` metrics: the span name whose self time they sum, with
#: the self time of the spans named below it (``sim.epochs`` covers the
#: script fetch and build spans nested in ``sim.epochs.script``).
_SPAN_TIMES = {
    "minicc.compile_s": "minicc.compile",
    "sim.trace.record_s": "sim.trace.record",
    "sim.epochs.script_s": "sim.epochs",
    "sim.tracestore.fetch_s": "sim.tracestore.fetch",
    "sim.replay.run_s": "sim.replay.run",
    "sim.platform.run_s": "sim.platform.run",
    "analysis.runcache.fetch_s": "analysis.runcache.fetch",
    "analysis.runcache.store_s": "analysis.runcache.store",
    "analysis.engine.reduce_s": "analysis.engine.reduce",
    "analysis.engine.render_s": "analysis.engine.render",
    "analysis.engine.artifact_s": "analysis.engine.artifact",
}


class Tracer:
    """In-memory spans and counters around the layers' public calls."""

    def __init__(self):
        #: [name, start, end, parent index or -1]
        self.spans = []
        self._stack = []
        self.counts = {name: 0 for name, unit in SPAN_METRICS.items()
                       if unit == "count"}

    def traced(self, span, function, after=None):
        """``function`` recording a ``span`` per call, then calling
        ``after(args, result)``."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([span, time.perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap(self, owner, attr, span, after=None):
        setattr(owner, attr, self.traced(span, getattr(owner, attr), after))

    def _count(self, name, amount=1):
        self.counts[name] += amount

    def install(self):
        """Wrap every traced layer; call before the workload's programs
        are compiled so minicc is covered."""
        from repro.analysis import engine, runcache
        from repro.service import scheduler
        from repro.sim import epochs, replay, tracestore
        from repro.sim.platform import Platform
        from repro.workloads import registry

        count = self._count

        def hit_or_miss(layer):
            return lambda args, result: count(
                f"{layer}.misses" if result is None else f"{layer}.hits")

        def recorded(args, trace):
            count("sim.trace.records")
            count("sim.trace.steps", trace.steps)

        def loaded(args, script):
            if script is not None:
                count("sim.epochs.scripts_loaded")

        def replayed(args, result):
            count("sim.replay.runs")
            stats = args[0].stats
            count("sim.replay.windows", stats.windows)
            count("sim.replay.window_steps", stats.window_steps)
            count("sim.replay.compiled_windows", stats.compiled_windows)
            count("sim.replay.fallbacks", sum(stats.fallbacks.values()))

        self._wrap(registry, "compile_minic", "minicc.compile",
                   lambda a, r: count("minicc.programs"))
        self._wrap(replay, "record_trace", "sim.trace.record", recorded)
        self._wrap(tracestore, "fetch", "sim.tracestore.fetch",
                   hit_or_miss("sim.tracestore"))
        self._wrap(epochs, "get_script", "sim.epochs.script")
        self._wrap(epochs, "fetch_script", "sim.epochs.fetch", loaded)
        build = self.traced("sim.epochs.build", epochs.EpochScript.build,
                            lambda a, r: count("sim.epochs.scripts_built"))
        epochs.EpochScript.build = classmethod(
            lambda cls, *args, **kwargs: build(*args, **kwargs))
        self._wrap(replay.ReplayPlatform, "run", "sim.replay.run", replayed)
        self._wrap(Platform, "run", "sim.platform.run",
                   lambda a, r: count("sim.platform.runs"))
        self._wrap(runcache, "fetch", "analysis.runcache.fetch",
                   hit_or_miss("analysis.runcache"))
        self._wrap(runcache, "store", "analysis.runcache.store")
        self._wrap(engine, "write_artifact", "analysis.engine.artifact")
        # The scheduler's per-job entry point: one span per executed job.
        self._wrap(scheduler, "_execute", "service.scheduler.job")

    def wrap_spec(self, spec):
        """``spec`` with its reduce and render traced."""
        from dataclasses import replace

        return replace(
            spec,
            reduce=self.traced("analysis.engine.reduce", spec.reduce),
            render=self.traced("analysis.engine.render", spec.render),
        )

    def self_times(self):
        """Span name -> summed self time (duration minus direct children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for (name, start, end, _parent), inner in zip(self.spans, child):
            totals[name] = totals.get(name, 0.0) + (end - start - inner)
        return totals

    def metrics(self, store_root):
        """Every :data:`SPAN_METRICS` value for the finished run."""
        out = dict(self.counts)
        selfs = self.self_times()
        for metric, span in _SPAN_TIMES.items():
            out[metric] = sum(t for name, t in selfs.items()
                              if name == span or name.startswith(span + "."))
        windows = out["sim.replay.windows"]
        out["sim.replay.compiled_hit_rate"] = (
            out["sim.replay.compiled_windows"] / windows if windows else 0.0)
        jobs = sorted(end - start for name, start, end, _ in self.spans
                      if name == "service.scheduler.job")
        out["service.scheduler.job_p50_ms"] = (
            1e3 * jobs[len(jobs) // 2] if jobs else 0.0)
        out["service.scheduler.job_max_ms"] = 1e3 * jobs[-1] if jobs else 0.0
        root = Path(store_root)
        traces = root / "traces"
        out["sim.epochs.mb_written"] = tree_mb(traces / "scripts")
        out["sim.tracestore.mb_written"] = (
            tree_mb(traces / "keys") + tree_mb(traces / "blobs"))
        out["analysis.runcache.mb_written"] = sum(
            p.stat().st_size for p in root.glob("*.json")) / 1e6
        return out


def tree_mb(path):
    """Total size of the regular files under ``path``, in MB."""
    total = 0
    for parent, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(parent, name))
    return total / 1e6


def _module_of(filename, function):
    """The :data:`PROFILED_MODULES` name a profiled function belongs to."""
    if "numpy" in filename or "numpy" in function:
        return "numpy"
    marker = f"{os.sep}repro{os.sep}"
    if marker not in filename:
        return None
    rel = filename.rsplit(marker, 1)[1]
    rel = rel[:-3] if rel.endswith(".py") else rel
    module = rel.replace(os.sep, ".")
    return module[:-len(".__init__")] if module.endswith(".__init__") else module


def profile_shares(profile):
    """``<module>.self_share`` for every profiled module: its cProfile
    self time over the total self time of the profiled interval."""
    stats = pstats.Stats(profile).stats
    total = 0.0
    per_module = dict.fromkeys(PROFILED_MODULES, 0.0)
    for (filename, _line, function), row in stats.items():
        self_time = row[2]
        total += self_time
        module = _module_of(filename, function)
        if module in per_module:
            per_module[module] += self_time
    return {f"{m}.self_share": (t / total if total else 0.0)
            for m, t in per_module.items()}
