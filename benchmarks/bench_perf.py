"""Execution-engine performance benchmark: seed interpreter vs fast path.

Measures simulator throughput — instructions/sec and steps/sec — for
the reference per-instruction interpreter (``fast=False``, the seed
semantics) against the fast-path engine (pre-decoded dispatch + quantum
energy accounting), on three representative workloads and on the full
Figure 10 driver path (the experiment that regenerates the paper's
headline result).  Writes ``BENCH_perf.json`` at the repo root for the
perf trajectory, and exits non-zero if the fig10-driver speedup falls
below ``--min-speedup`` (the CI smoke gate).

Throughput definitions: one *step* is one pass of the platform's
execute-charge-decide loop, and the TinyRISC core retires exactly one
instruction per step (re-executed instructions after a power failure
count again, in both rates) — so the two rates coincide by
construction; both are emitted because they are the repo's tracked
metrics and future cores may decouple them.

All timings use ``time.process_time()`` (CPU seconds): wall-clock A/B
ratios on shared single-core hosts swing by ±25% from contention.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py            # full
    PYTHONPATH=src python benchmarks/bench_perf.py --smoke    # CI gate
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(REPO_ROOT / "src"))

WORKLOADS = ["qsort", "hist", "dijkstra"]
TRACES = 2


def _warmup():
    """Pay every one-time cost (benchmark compilation, reference
    outputs) outside timing."""
    from repro.workloads import load_program, run_workload

    for bench in WORKLOADS:
        load_program(bench)
    run_workload("hist", arch="clank", policy="spendthrift", trace_seed=0)


def _time_workload(bench, fast, traces):
    from repro.energy.traces import HarvestTrace
    from repro.sim.platform import Platform, PlatformConfig
    from repro.workloads import load_program

    program = load_program(bench)
    seconds = 0.0
    instructions = 0
    for seed in range(traces):
        config = PlatformConfig(arch="nvmr", policy="jit", fast=fast)
        platform = Platform(
            program, config, trace=HarvestTrace(seed), benchmark_name=bench
        )
        start = time.process_time()
        result = platform.run()
        seconds += time.process_time() - start
        instructions += result.instructions
    rate = instructions / seconds if seconds else 0.0
    return {
        "seconds": round(seconds, 3),
        "instructions": instructions,
        "instructions_per_sec": round(rate),
        "steps_per_sec": round(rate),
    }


def _time_fig10(settings, mode):
    """Time the Figure 10 driver end to end with every cache cold.

    ``mode``: ``"reference"`` runs the seed interpreter, ``"fast"`` the
    fast-path engine with replay disabled, ``"replay"`` the full
    record-once/replay-many pipeline (the timing includes recording the
    traces — the end-to-end cost a cold sweep actually pays).
    """
    from repro.analysis.engine import _run_cache, clear_run_cache, get_experiment
    from repro.sim.replay import clear_replay_caches

    os.environ["REPRO_FAST"] = "0" if mode == "reference" else "1"
    os.environ["REPRO_REPLAY"] = "1" if mode == "replay" else "0"
    clear_run_cache()
    clear_replay_caches()
    start = time.process_time()
    get_experiment("fig10").compute(settings)
    seconds = time.process_time() - start
    instructions = sum(result.instructions for result in _run_cache.values())
    runs = len(_run_cache)
    clear_run_cache()
    os.environ.pop("REPRO_FAST", None)
    os.environ.pop("REPRO_REPLAY", None)
    rate = instructions / seconds if seconds else 0.0
    return {
        "seconds": round(seconds, 2),
        "runs": runs,
        "instructions": instructions,
        "instructions_per_sec": round(rate),
        "steps_per_sec": round(rate),
    }


def _time_record(settings):
    """Time the record phase alone: one trace + replay image per
    benchmark of the Figure 10 grid (the cost replay pays once and
    every subsequent configuration amortises)."""
    from repro.sim.replay import clear_replay_caches, get_image

    clear_replay_caches()
    start = time.process_time()
    for bench in settings.benchmarks:
        get_image(bench)
    seconds = time.process_time() - start
    return {"seconds": round(seconds, 2), "benchmarks": len(settings.benchmarks)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced scale for CI (one workload, smoke experiment settings)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="exit non-zero if the fig10-driver speedup is below this",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_perf.json",
        help="where to write the JSON report (default: repo root)",
    )
    args = parser.parse_args(argv)

    from repro.analysis.engine import ExperimentSettings

    workloads = ["hist"] if args.smoke else WORKLOADS
    traces = 1 if args.smoke else TRACES
    settings = ExperimentSettings.smoke() if args.smoke else ExperimentSettings()

    # The disk cache would turn the second timed side into pure cache
    # hits; disable it for the whole measurement.
    os.environ["REPRO_RUN_CACHE"] = "0"
    _warmup()

    report = {
        "smoke": args.smoke,
        "timing": "time.process_time (CPU seconds)",
        "note": (
            "The reference side runs the seed per-instruction interpreter "
            "semantics (fast=False); shared model layers (slots, cache-set "
            "geometry) have themselves been optimised since the original "
            "seed commit, so speedup vs that commit is higher than the "
            "in-tree ratio reported here."
        ),
        "workloads": {},
    }
    for bench in workloads:
        reference = _time_workload(bench, fast=False, traces=traces)
        fast = _time_workload(bench, fast=True, traces=traces)
        speedup = (
            fast["instructions_per_sec"] / reference["instructions_per_sec"]
            if reference["instructions_per_sec"]
            else 0.0
        )
        report["workloads"][bench] = {
            "reference": reference,
            "fast": fast,
            "speedup": round(speedup, 2),
        }
        print(
            f"{bench:>12}: ref {reference['instructions_per_sec']:>9,} instr/s  "
            f"fast {fast['instructions_per_sec']:>9,} instr/s  "
            f"speedup {speedup:.2f}x"
        )

    fast_driver = _time_fig10(settings, "fast")
    replay_driver = _time_fig10(settings, "replay")
    record = _time_record(settings)
    ref_driver = _time_fig10(settings, "reference")
    driver_speedup = (
        fast_driver["instructions_per_sec"] / ref_driver["instructions_per_sec"]
        if ref_driver["instructions_per_sec"]
        else 0.0
    )
    replay_only = max(replay_driver["seconds"] - record["seconds"], 0.001)
    replay_driver["record_seconds"] = record["seconds"]
    replay_driver["per_replay_ms"] = round(
        1000 * replay_only / replay_driver["runs"], 1
    )
    report["fig10_driver"] = {
        "reference": ref_driver,
        "fast": fast_driver,
        "replay": replay_driver,
        "speedup": round(driver_speedup, 2),
        "replay_speedup_vs_reference": round(
            ref_driver["seconds"] / replay_driver["seconds"], 2
        )
        if replay_driver["seconds"]
        else 0.0,
        "replay_speedup_vs_fast": round(
            fast_driver["seconds"] / replay_driver["seconds"], 2
        )
        if replay_driver["seconds"]
        else 0.0,
    }
    print(
        f"fig10 driver: ref {ref_driver['seconds']}s "
        f"({ref_driver['instructions_per_sec']:,} instr/s)  "
        f"fast {fast_driver['seconds']}s "
        f"({fast_driver['instructions_per_sec']:,} instr/s)  "
        f"speedup {driver_speedup:.2f}x"
    )
    print(
        f"      replay: {replay_driver['seconds']}s end to end "
        f"(record {record['seconds']}s + "
        f"{replay_driver['per_replay_ms']}ms x {replay_driver['runs']} replays)  "
        f"{report['fig10_driver']['replay_speedup_vs_reference']:.2f}x vs ref, "
        f"{report['fig10_driver']['replay_speedup_vs_fast']:.2f}x vs fast"
    )

    if args.min_speedup is not None:
        report["min_speedup"] = args.min_speedup
        report["pass"] = driver_speedup >= args.min_speedup
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if args.min_speedup is not None and driver_speedup < args.min_speedup:
        print(
            f"FAIL: fig10-driver speedup {driver_speedup:.2f}x "
            f"< required {args.min_speedup}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
