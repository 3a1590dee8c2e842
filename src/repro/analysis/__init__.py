"""Experiment engine, drivers and reporting for the paper's results.

One registry (:data:`repro.analysis.engine.EXPERIMENTS`) declares
every table and figure of the evaluation as an
:class:`~repro.analysis.engine.ExperimentSpec`; the engine derives job
enumeration, parallel execution, sharding, caching and JSON artifacts
from it, and :mod:`repro.analysis.render` renders results as the text
tables recorded in EXPERIMENTS.md.  Run an experiment with
:func:`~repro.analysis.engine.run_experiment` (or reduce it serially
with ``get_experiment(id).compute(settings)``).
"""

from repro.analysis.engine import (
    EXPERIMENTS,
    ExperimentSettings,
    ExperimentSpec,
    Job,
    all_experiments,
    cached_run,
    clear_run_cache,
    get_experiment,
    load_artifact,
    render_artifact,
    run_experiment,
)
from repro.analysis.experiments import (
    table2_configuration,
    table4_hoop_configuration,
)
from repro.analysis.pareto import (
    bootstrap_ci,
    cohens_d,
    dominates,
    pareto_front,
    policy_candidates,
)
from repro.analysis.progress import (
    console_progress,
    report_progress,
    set_progress_handler,
)
from repro.analysis.render import (
    format_breakdowns,
    format_mapping,
    format_matrix,
    format_series,
    generate_report,
    write_report,
)
from repro.analysis.timeline import render_timeline
from repro.analysis.wear import WearProfile, gini_coefficient, wear_comparison, wear_profile

__all__ = [
    "EXPERIMENTS",
    "ExperimentSettings",
    "ExperimentSpec",
    "Job",
    "all_experiments",
    "bootstrap_ci",
    "cached_run",
    "clear_run_cache",
    "cohens_d",
    "console_progress",
    "dominates",
    "pareto_front",
    "policy_candidates",
    "format_breakdowns",
    "format_mapping",
    "format_matrix",
    "format_series",
    "generate_report",
    "get_experiment",
    "load_artifact",
    "render_artifact",
    "render_timeline",
    "report_progress",
    "run_experiment",
    "gini_coefficient",
    "set_progress_handler",
    "table2_configuration",
    "table4_hoop_configuration",
    "wear_comparison",
    "write_report",
    "wear_profile",
    "WearProfile",
]
