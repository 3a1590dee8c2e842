"""Simulation-as-a-service: the scheduler core and the HTTP service.

Three layers, innermost first:

* :mod:`repro.service.scheduler` — the transport-agnostic execution
  core extracted from the experiment engine's parallel path: job
  planning against the two cache layers, bounded worker pools with
  backpressure, in-flight deduplication of identical job keys, and
  structured :class:`~repro.service.scheduler.ProgressEvent`\\ s.  The
  synchronous engine/CLI path (:func:`repro.analysis.engine.
  prefetch_runs`) is a thin caller of it and is bit-identical to the
  pre-service code.
* :mod:`repro.service.jobs` — service-level job lifecycle: submitted
  requests become :class:`~repro.service.jobs.JobRecord`\\ s with
  states, progress logs and results; identical concurrent submissions
  coalesce onto one in-flight job.
* :mod:`repro.service.server` / :mod:`repro.service.client` — an
  asyncio JSON-over-HTTP server (stdlib only) exposing ``simulate``,
  ``experiment``, ``artifact`` and ``status`` endpoints with streamed
  progress, and the matching blocking client the CLI ``submit`` /
  ``status`` verbs use.

See docs/SERVICE.md for endpoint and lifecycle details.
"""

from repro.service.scheduler import ProgressEvent, Scheduler, get_scheduler

__all__ = ["ProgressEvent", "Scheduler", "get_scheduler"]
