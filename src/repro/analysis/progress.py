"""Forward-progress metrics in the style of the EH model [39].

The EH model evaluates intermittent designs by how much of the
harvested energy and wall-clock time turns into *forward progress*.
:func:`progress_metrics` derives those figures for a finished run:

* ``useful_instruction_fraction`` — reference instructions / retired
  instructions (1.0 = no re-execution; watchdog runs re-execute);
* ``forward_energy_fraction`` — forward-progress energy / total;
* ``overhead_energy_fraction`` — everything that is not forward
  progress (backup + restore + overheads + reclaim + dead);
* ``time_overhead`` — active cycles / continuous-run cycles;
* ``duty_cycle`` — active cycles / (active + off) cycles.
"""

from dataclasses import dataclass

from repro.sim.reference import run_reference
from repro.workloads import load_program

# ------------------------------------------------- progress reporting
#: Process-wide progress hook for long-running drivers (parallel
#: prefetch, paper-scale sweeps).  ``None`` = silent.
_progress_handler = None


def set_progress_handler(handler):
    """Install ``handler(done, total, label)`` as the progress hook.

    Called by long-running machinery (e.g.
    :func:`repro.analysis.engine.prefetch_runs`) after each completed
    unit of work.  Pass ``None`` to silence reporting.  Returns the
    previously installed handler so callers can restore it.
    """
    global _progress_handler
    previous = _progress_handler
    _progress_handler = handler
    return previous


def report_progress(done, total, label=""):
    """Invoke the installed progress handler, if any."""
    if _progress_handler is not None:
        _progress_handler(done, total, label)


def console_progress(stream=None, prefix=""):
    """A ready-made handler printing one ``[done/total] label`` line per
    completed run (to stderr by default, so piped experiment output
    stays clean).  Install with :func:`set_progress_handler`, or pass
    as the ``progress`` callback of an engine/parallel run."""
    import sys

    out = stream if stream is not None else sys.stderr

    def handler(done, total, label=""):
        out.write(f"{prefix}[{done}/{total}] {label}\n")
        out.flush()

    return handler


_reference_cycle_cache = {}


def _reference_counts(benchmark):
    if benchmark not in _reference_cycle_cache:
        result = run_reference(load_program(benchmark))
        _reference_cycle_cache[benchmark] = (result.instructions, result.cycles)
    return _reference_cycle_cache[benchmark]


@dataclass(frozen=True)
class ProgressMetrics:
    benchmark: str
    arch: str
    policy: str
    useful_instruction_fraction: float
    forward_energy_fraction: float
    overhead_energy_fraction: float
    time_overhead: float
    duty_cycle: float

    def summary(self):
        return (
            f"{self.benchmark:>14} {self.arch:>6}/{self.policy:<11} "
            f"useful={self.useful_instruction_fraction * 100:5.1f}%  "
            f"fwd-E={self.forward_energy_fraction * 100:5.1f}%  "
            f"time-ovh={self.time_overhead:4.2f}x  "
            f"duty={self.duty_cycle * 100:5.2f}%"
        )


def progress_metrics(result):
    """Compute :class:`ProgressMetrics` for a benchmark RunResult."""
    ref_instructions, ref_cycles = _reference_counts(result.benchmark)
    total = result.total_energy
    forward = result.breakdown.forward
    useful = ref_instructions / result.instructions if result.instructions else 0.0
    wall = result.active_cycles + result.off_cycles
    return ProgressMetrics(
        benchmark=result.benchmark,
        arch=result.arch,
        policy=result.policy,
        useful_instruction_fraction=useful,
        forward_energy_fraction=forward / total if total else 0.0,
        overhead_energy_fraction=1.0 - forward / total if total else 0.0,
        time_overhead=result.active_cycles / ref_cycles if ref_cycles else 0.0,
        duty_cycle=result.active_cycles / wall if wall else 0.0,
    )
