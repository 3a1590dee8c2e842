"""One cold run of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition with one JSON
argument (workload, seed, scale, mode, private store directory, the
parent's spawn time on the monotonic clock) and reads
``<rep dir>/result.json`` back.  Modes:

* ``plain``: untraced; the end-to-end numbers come from these runs.
  The :func:`calibrate` kernel runs just before and just after the cold
  run, so ``run.py`` can scale the times to the reference speed.
* ``spans``: :class:`layers.Tracer` wrapped around every layer.
* ``profile``: cProfile over the cold interval, rolled up per module.
* ``check``: no cold run; re-runs the :data:`CROSS_CHECK` jobs through
  :func:`repro.workloads.run_workload` and digests their RunResults, for
  ``run.py`` to compare with the cold runs' digests.

The store directory is private and empty: ``REPRO_CACHE_DIR`` and
``REPRO_TRACE_DIR`` point into it (set by ``run.py``), so the run starts
cold and leaves nothing behind once ``run.py`` deletes it.
"""

import hashlib
import json
import resource
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import layers
import workloads

#: Indices into the spec's job list (deduplicated, ordered by benchmark,
#: config key and seed) of the jobs ``check`` mode re-runs.
CROSS_CHECK = (0, -1)

#: ``model.*`` counters (RunResult fields summed over the jobs, and the
#: total energy): name -> unit.
MODEL_METRICS = {
    **{f"model.{name}": "count"
       for name in ("instructions", "power_failures", "backups", "violations",
                    "renames", "cache_misses", "nvm_writes")},
    "model.active_cycles": "cycles",
    "model.energy_uj": "uJ",
}


#: Rounds of :func:`calibrate` per call: about 0.1 s on the reference
#: machine.
CALIBRATION_ROUNDS = 12000


def calibrate(rounds=CALIBRATION_ROUNDS):
    """Wall and CPU seconds of a fixed interpreter-bound loop that uses
    nothing from ``src/``: a 64-instruction register machine with list,
    dict and integer-mask traffic, the kind of work the simulator does.
    Its time tracks how fast the host runs Python at that moment, so a
    change to the simulator cannot move it."""
    regs = [0] * 16
    memory = {}
    program = [(i % 5, i % 16, (i * 7) % 16, (i * 13) % 251)
               for i in range(64)]
    wall0, cpu0 = time.perf_counter(), time.process_time()
    acc = 0
    for _ in range(rounds):
        for op, a, b, imm in program:
            if op == 0:
                regs[a] = (regs[b] + imm) & 0xFFFF
            elif op == 1:
                regs[a] = (regs[a] ^ regs[b]) >> 1
            elif op == 2:
                memory[regs[b] & 255] = regs[a]
            elif op == 3:
                regs[a] = memory.get(regs[b] & 255, imm)
            else:
                acc += regs[a] & 7
    return time.perf_counter() - wall0, time.process_time() - cpu0


def digest(obj):
    """SHA-256 of ``obj`` as canonical JSON."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def job_label(job):
    """A stable name for a job: benchmark, config cache key, seed."""
    from repro.analysis.engine import job_key

    benchmark, config_key, seed = job_key(job)
    return json.dumps([benchmark, list(config_key), seed])


def cross_check(jobs):
    """Digests of the :data:`CROSS_CHECK` jobs re-run through
    ``run_workload`` (the full simulator, with output verification; the
    reference interpreter for Ideal jobs, which the sweep runs on the fast
    path), or None for a job that raised."""
    from dataclasses import replace

    from repro.energy.traces import HarvestTrace
    from repro.workloads import run_workload

    digests = {}
    for index in CROSS_CHECK:
        job = jobs[index]
        config = job.config
        if config.arch == "ideal":
            config = replace(config, fast=False)
        try:
            result = run_workload(job.benchmark, config=replace(config),
                                  trace=HarvestTrace(job.trace_seed))
            digests[job_label(job)] = digest(asdict(result))
        except Exception:
            traceback.print_exc()
            digests[job_label(job)] = None
    return digests


def main(request):
    mode = request["mode"]
    workload = workloads.WORKLOADS[request["workload"]]
    store = Path(request["store"])
    tracer = layers.Tracer() if mode == "spans" else None

    from repro.analysis import engine
    from repro.service.scheduler import get_scheduler
    from repro.workloads import load_program

    engine.all_experiments()
    if tracer is not None:
        tracer.install()
    settings = workloads.settings_for(workload, smoke=request["smoke"])
    spec = workloads.shifted_spec(engine.get_experiment(workload.spec),
                                  request["seed"])
    if tracer is not None:
        spec = tracer.wrap_spec(spec)
    jobs = spec.jobs(settings)
    for benchmark in sorted({job.benchmark for job in jobs}):
        load_program(benchmark)
    setup_s = time.monotonic() - request["spawned"]

    out = {"jobs": len(jobs), "setup_s": setup_s, "error": None}
    if mode == "check":
        out["check_digests"] = cross_check(jobs)
        return out
    profile = None
    if mode == "profile":
        import cProfile

        profile = cProfile.Profile()
    before = calibrate()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    try:
        if profile is not None:
            profile.enable()
        run = engine.run_experiment(spec, settings, workers=1,
                                    artifact_dir=store.parent / "artifacts")
    except Exception:
        out["error"] = traceback.format_exc()
        return out
    finally:
        if profile is not None:
            profile.disable()
    out["cold_s"] = time.perf_counter() - wall0
    out["cpu_s"] = time.process_time() - cpu0
    after = calibrate()
    out["cal_s"] = (before[0] + after[0]) / 2
    out["cal_cpu_s"] = (before[1] + after[1]) / 2
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["store_mb"] = layers.tree_mb(store)

    results = [engine.cached_run(*job) for job in jobs]
    out["model"] = {name: sum(getattr(r, name[len("model."):]) for r in results)
                    for name in MODEL_METRICS if name != "model.energy_uj"}
    out["model"]["model.energy_uj"] = sum(r.total_energy for r in results) / 1e3
    out["scheduler"] = get_scheduler().stats()
    out["job_digests"] = {job_label(job): digest(asdict(result))
                          for job, result in zip(jobs, results)}
    artifact = json.loads(run.artifact_path.read_text())
    out["artifact_digest"] = digest(artifact["result"])
    if tracer is not None:
        out["layers"] = tracer.metrics(store)
        out["spans"] = tracer.spans
    if profile is not None:
        out["layers"] = layers.profile_shares(profile)
    return out


if __name__ == "__main__":
    request = json.loads(sys.argv[1])
    result = main(request)
    Path(request["result"]).write_text(json.dumps(result))
