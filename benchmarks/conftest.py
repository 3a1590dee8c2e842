"""Shared infrastructure for the per-figure benchmark harnesses.

Each ``bench_*.py`` regenerates one table/figure of the paper, prints
the same rows/series the paper reports, and archives the rendered text
under ``benchmarks/results/``.  By default the harness runs at a
reduced averaging scale (documented in EXPERIMENTS.md); set
``REPRO_FULL=1`` to reproduce the paper's full 10-trace averaging.
"""

from pathlib import Path

import pytest

from repro.analysis import ExperimentSettings

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def settings():
    from repro.analysis import engine

    chosen = ExperimentSettings.default()
    if engine._full_mode():
        # Paper-scale averaging is hours of serial simulation; warm the
        # shared run cache with the headline grids across worker
        # processes first.
        jobs = [
            job
            for spec_id in ("fig10", "fig12", "table3")
            for job in engine.get_experiment(spec_id).jobs(chosen)
        ]
        fresh = engine.prefetch_runs(jobs)
        print(f"\n[REPRO_FULL] prefetched {fresh} runs in parallel")
    return chosen


@pytest.fixture()
def report():
    """Print a rendered experiment table and archive it."""

    def _report(name, text):
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)

    return _report


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def run_spec(benchmark, experiment, settings, report=None, archive=True,
             name=None):
    """Run a registered experiment (or spec instance) through the
    engine, under pytest-benchmark timing.

    The engine renders with the spec's own renderer and archives both
    the text table and the versioned JSON artifact under
    ``benchmarks/results/`` (``archive=False`` for parameterised
    variants that must not overwrite the registered result).  Returns
    the reduced result for the harness's shape assertions.
    """
    from repro.analysis import engine

    RESULTS_DIR.mkdir(exist_ok=True)
    run = benchmark.pedantic(
        engine.run_experiment,
        args=(experiment,),
        kwargs=dict(
            settings=settings,
            workers=1,
            artifact_dir=RESULTS_DIR if archive else None,
        ),
        rounds=1,
        iterations=1,
    )
    if report is not None:
        if name is None:
            name = experiment if isinstance(experiment, str) else experiment.id
        report(name, run.rendered)
    if archive and run.artifact_path is not None and str(
            run.artifact_path.stem).startswith("pareto"):
        # Emit the front figure next to the .txt/.json outputs
        # (matplotlib optional: absence silently skips the plot).
        from repro.analysis.plots import write_pareto_plot

        write_pareto_plot(run.artifact_path)
    return run.result
