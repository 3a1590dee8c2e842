"""The benchmark's workloads: which experiment spec, at which scale, and why.

Each workload is one registered :class:`repro.analysis.engine.ExperimentSpec`
run cold through ``run_experiment``.  The scales are cut down from the
paper defaults so one cold run takes a few host seconds: a benchmark run
repeats the cold run several times in fresh processes and reports medians.
A default-scale ``fig10`` cold run took about 25 s and peaked at 1.2 GB
RSS on a 2-vCPU Xeon VM, which leaves no room for repeats.  ``smoke``
scales are the tiny grids the tests use.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    spec: str
    why: str
    settings: dict
    smoke: dict


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="fig10_sweep",
            spec="fig10",
            why=(
                "Clank vs NvMR x 3 policies on basicmath (compiled replay "
                "wins) and hist (it loses): trace recording, script lowering "
                "and the replay loop all carry weight"
            ),
            settings={"traces": 1, "benchmarks": ["basicmath", "hist"]},
            smoke={"traces": 1, "benchmarks": ["basicmath"]},
        ),
        Workload(
            name="pareto_sweep",
            spec="pareto_summary",
            why=(
                "21 tuned-threshold jobs of 4 policies over one recorded "
                "trace on flash: recording is amortised, so replay and the "
                "models dominate; the only run of policies.task"
            ),
            settings={"pareto_traces": 1, "pareto_benchmarks": ["qsort"],
                      "pareto_technologies": ["flash"]},
            smoke={"pareto_traces": 1, "pareto_benchmarks": ["qsort"],
                   "pareto_technologies": ["fram"]},
        ),
        Workload(
            name="fig12_hoop",
            spec="fig12",
            why=(
                "HOOP vs NvMR under JIT and watchdog on adpcm_encode: the "
                "hoop/jit job is a long per-step backup-cost estimate, the "
                "only run of arch.hoop"
            ),
            settings={"traces": 1, "benchmarks": ["adpcm_encode"]},
            smoke={"traces": 1, "benchmarks": ["adpcm_encode"]},
        ),
        Workload(
            name="table3_ideal",
            spec="table3",
            why=(
                "The Ideal arch on all ten benchmarks bypasses replay and the "
                "trace store, so FastCore does the work: a replay-only "
                "optimisation should not move it"
            ),
            settings={"traces": 1},
            smoke={"traces": 1, "benchmarks": ["qsort", "hist"]},
        ),
    ]
}


def settings_for(workload, smoke=False):
    """The workload's :class:`ExperimentSettings`, independent of the
    ``REPRO_FULL`` knob."""
    from repro.analysis.engine import ExperimentSettings

    overrides = workload.smoke if smoke else workload.settings
    return replace(ExperimentSettings(), **overrides)


def shifted_spec(spec, offset):
    """``spec`` with every job's harvest-trace seed moved up by ``offset``.

    Offset 0 returns ``spec`` itself, so seed 0 is exactly the spec's
    own grid.  The reduce sees the unshifted seeds it asks for and
    fetches the shifted runs, so its result has the same shape.
    """
    from repro.analysis.engine import Job

    if offset == 0:
        return spec

    def grid(settings):
        return [Job(b, c, seed + offset) for b, c, seed in spec.grid(settings)]

    def reduce(settings, fetch):
        return spec.reduce(
            settings, lambda b, c, seed: fetch(b, c, seed + offset)
        )

    return replace(spec, grid=grid, reduce=reduce)
