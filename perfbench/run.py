"""Cold-to-artifact benchmark of the paper's experiment sweeps.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig10_sweep --seed 0 --seconds 25 --trace 0

One run repeats a cold experiment run (``child.py``: a fresh interpreter,
a private empty store, ``run_experiment(spec, workers=1)`` until the
artifact is written) until ``--seconds`` are used up, then reports the
median of each end-to-end metric.  It is a batch job: one process, one
caller, a closed loop.  ``--seed`` shifts every job's harvest-trace seed;
seed 0 is the spec's own grid.

``--trace 1`` instead alternates untraced repetitions with repetitions
that record spans around every layer until ``--seconds`` are used, then
makes one repetition under cProfile.  It reports the median of each
per-layer metric over the span repetitions and the overhead of tracing:
the median traced ``cold_s`` over the median untraced one.  The spans of
the last traced repetition are written to ``.perfbench_runs/spans/``.

Correctness is checked outside the timed window: every job's RunResult
and the artifact result must match ``golden.json`` at seed 0 and repeat
exactly across repetitions, and a fixed sample of jobs re-run through
``repro.workloads.run_workload`` must give the same RunResult.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (jobs) and ``metrics``.

``--smoke`` uses tiny grids; ``--update-golden`` rewrites the golden
digests (seed 0) after an intended model change.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from child import CROSS_CHECK, MODEL_METRICS  # noqa: E402

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "cold_s": "s",
    "cpu_s": "s",
    "sim_kips": "kinstr/s",
    "peak_rss_mb": "MB",
    "store_mb": "MB",
}

#: Per-layer metrics reported by ``--trace 1``: name -> unit.
PER_LAYER = {
    **layers.SPAN_METRICS,
    "service.scheduler.executed": "count",
    "service.scheduler.cache_hits": "count",
    **{f"{m}.self_share": "ratio" for m in layers.PROFILED_MODULES},
    **MODEL_METRICS,
    "trace.span_overhead": "ratio",
    "trace.profile_overhead": "ratio",
}

#: Wall seconds of ``child.calibrate()`` on the reference machine, a
#: 2-vCPU Xeon VM.  The reported times are scaled to this speed: each
#: repetition's times are multiplied by this over its own calibration
#: time, measured just before and after its cold run.  Shared hosts
#: drift by a third over tens of minutes; the scaling cancels that while
#: a change to the simulator, which the kernel does not use, still shows.
CALIBRATION_REF_S = 0.1

GOLDEN = HERE / "golden.json"
#: Children are stopped this many seconds after ``--seconds`` have run
#: out: room for the repetition that was running then, a traced run's
#: cProfile repetition and the cross-check child.
LIMIT_MARGIN_S = 120
#: The same limit for each workload of ``--update-golden``.
GOLDEN_LIMIT_S = 170
#: A traced run makes at least this many untraced/traced pairs.
MIN_TRACED_PAIRS = 2


class Checkout:
    """The checkout being measured: its source tree and scratch space."""

    def __init__(self, root):
        self.root = Path(root).resolve()
        self.src = self.root / "src"
        self.scratch = self.root / ".perfbench_runs"

    def valid(self):
        return (self.src / "repro" / "analysis" / "engine.py").is_file()

    def env(self, store):
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["REPRO_CACHE_DIR"] = str(store)
        env["REPRO_TRACE_DIR"] = str(store / "traces")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
        return env


def run_rep(checkout, workload, seed, deadline, mode="plain", smoke=False):
    """One cold repetition in a fresh process; returns the child's result
    dict, with ``error`` set when the child failed.  The private store is
    deleted before returning."""
    checkout.scratch.mkdir(exist_ok=True)
    rep_dir = checkout.scratch / f"rep-{os.getpid()}-{time.monotonic_ns()}"
    store = rep_dir / "store"
    store.mkdir(parents=True)
    request = {
        "workload": workload, "seed": seed, "mode": mode, "smoke": smoke,
        "store": str(store),
        "result": str(rep_dir / "result.json"),
    }
    timeout = max(1.0, deadline - time.monotonic())
    try:
        request["spawned"] = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(request)],
            cwd=checkout.root, env=checkout.env(store),
            stdout=sys.stderr, timeout=timeout,
        )
        result_path = Path(request["result"])
        if proc.returncode == 0 and result_path.is_file():
            return json.loads(result_path.read_text())
        return {"error": f"child exited with code {proc.returncode}"}
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {timeout:.0f} s"}
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)


class Tally:
    """Jobs attempted and failed across a run's repetitions, checked
    against the golden digests and against each other."""

    def __init__(self, golden):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = None

    def add(self, rep):
        jobs = rep.get("jobs", 1)
        self.attempted += jobs
        if rep.get("error"):
            self.failed += jobs
            self.problems.append(rep["error"])
            return
        sched = rep["scheduler"]
        if sched["executed"] != jobs or sched["cache_hits"] != 0:
            self.problems.append(f"run was not cold: scheduler {sched}")
        reference = self.golden or self.first
        if self.first is None:
            self.first = rep
        if reference is None:
            return
        if rep["artifact_digest"] != reference["artifact_digest"]:
            self.problems.append("artifact result differs")
        expected = reference["job_digests"]
        if set(expected) != set(rep["job_digests"]):
            self.problems.append("job grid differs")
        bad = sorted(label for label, d in rep["job_digests"].items()
                     if expected.get(label) != d)
        if bad:
            self.problems.append(f"{len(bad)} jobs differ: {bad[:3]}")
        self.failed += len(bad)

    def add_check(self, check):
        """Count the cross-checked jobs whose re-run raised or differs
        from the cold runs."""
        if check.get("error"):
            self.failed += len(CROSS_CHECK)
            self.problems.append(check["error"])
            return
        if self.first is None:
            return
        bad = [label for label, d in check["check_digests"].items()
               if d is None or d != self.first["job_digests"].get(label)]
        if bad:
            self.problems.append(f"run_workload differs on {bad}")
        self.failed += len(bad)

    @property
    def correct(self):
        return self.failed == 0 and not self.problems


def golden_for(workload, smoke):
    """The workload's seed-0 digests from ``golden.json``."""
    return json.loads(GOLDEN.read_text())[
        f"{workload}@smoke" if smoke else workload]


def end_to_end(rep, scale=True):
    """The repetition's end-to-end metrics.  With ``scale``, its times
    are scaled to the reference speed by its calibration time; without,
    they are host seconds."""
    wall = CALIBRATION_REF_S / rep["cal_s"] if scale else 1.0
    cpu = CALIBRATION_REF_S / rep["cal_cpu_s"] if scale else 1.0
    cold_s = rep["cold_s"] * wall
    return {
        "setup_s": rep["setup_s"] * wall,
        "cold_s": cold_s,
        "cpu_s": rep["cpu_s"] * cpu,
        "sim_kips": rep["model"]["model.instructions"] / cold_s / 1e3,
        "peak_rss_mb": rep["peak_rss_mb"],
        "store_mb": rep["store_mb"],
    }


def measure(checkout, args, tally):
    """Untraced repetitions until ``--seconds`` are used; the median of
    each end-to-end metric at the reference speed, and in host units."""
    start = time.monotonic()
    deadline = start + args.seconds
    reps = []
    while True:
        rep_start = time.monotonic()
        rep = run_rep(checkout, args.workload, args.seed, args.limit,
                      smoke=args.smoke)
        tally.add(rep)
        if not rep.get("error"):
            reps.append(rep)
            print(f"rep {len(reps)}: setup {rep['setup_s']:.3f} s, "
                  f"cold {rep['cold_s']:.3f} s, "
                  f"calibration {rep['cal_s']:.4f} s, "
                  f"rss {rep['peak_rss_mb']:.0f} MB", file=sys.stderr)
        took = time.monotonic() - rep_start
        if time.monotonic() + took > deadline or rep.get("error"):
            break
    if not reps:
        return {}, {}
    return tuple({name: statistics.median(end_to_end(r, scale)[name]
                                          for r in reps)
                  for name in END_TO_END} for scale in (True, False))


def traced(checkout, args, tally):
    """Untraced and span repetitions in alternation until ``--seconds``
    are used, then one cProfile repetition: the per-layer metrics and the
    tracing overheads."""
    deadline = time.monotonic() + args.seconds
    plains, spans = [], []
    while True:
        pair_start = time.monotonic()
        pair = [("plain", plains), ("spans", spans)]
        # Swap the order every other pair, so neither kind always runs
        # right after the other.
        for mode, reps in pair[::-1] if len(plains) % 2 else pair:
            rep = run_rep(checkout, args.workload, args.seed, args.limit,
                          mode=mode, smoke=args.smoke)
            tally.add(rep)
            if rep.get("error"):
                return {}
            reps.append(rep)
        took = time.monotonic() - pair_start
        if (len(plains) >= MIN_TRACED_PAIRS
                and time.monotonic() + took > deadline):
            break
    profile = run_rep(checkout, args.workload, args.seed, args.limit,
                      mode="profile", smoke=args.smoke)
    tally.add(profile)
    if profile.get("error"):
        return {}
    plain_cold = statistics.median(r["cold_s"] for r in plains)
    # Counts repeat exactly across repetitions; times take the median.
    metrics = {name: (statistics.median(r["layers"][name] for r in spans)
                      if unit in ("s", "ms") else spans[0]["layers"][name])
               for name, unit in layers.SPAN_METRICS.items()}
    metrics.update(profile["layers"])
    metrics.update(plains[0]["model"])
    metrics["service.scheduler.executed"] = plains[0]["scheduler"]["executed"]
    metrics["service.scheduler.cache_hits"] = max(
        r["scheduler"]["cache_hits"] for r in plains)
    metrics["trace.span_overhead"] = (
        statistics.median(r["cold_s"] for r in spans) / plain_cold)
    metrics["trace.profile_overhead"] = profile["cold_s"] / plain_cold
    print(f"traced: {len(plains)} untraced/span pairs", file=sys.stderr)
    out = checkout.scratch / "spans"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}.json").write_text(
        json.dumps({"columns": ["name", "start", "end", "parent"],
                    "spans": spans[-1]["spans"]}))
    return metrics


def update_golden(checkout):
    """Rewrite ``golden.json`` from one seed-0 repetition per workload
    and scale."""
    golden = {}
    for name in workloads.WORKLOADS:
        for smoke in (False, True):
            deadline = time.monotonic() + GOLDEN_LIMIT_S
            tally = Tally(None)
            rep = run_rep(checkout, name, 0, deadline, smoke=smoke)
            tally.add(rep)
            tally.add_check(run_rep(checkout, name, 0, deadline, mode="check",
                                    smoke=smoke))
            if not tally.correct:
                print("\n".join(tally.problems), file=sys.stderr)
                return 1
            golden[f"{name}@smoke" if smoke else name] = {
                "artifact_digest": rep["artifact_digest"],
                "job_digests": rep["job_digests"],
            }
            print(f"{name}{' (smoke)' if smoke else ''}: "
                  f"{rep['jobs']} jobs", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.update_golden:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    args.limit = time.monotonic() + args.seconds + LIMIT_MARGIN_S
    checkout = Checkout(Path.cwd())
    if not checkout.valid():
        print(f"{checkout.root} is not a checkout of the simulator "
              "(no src/repro); run from the repository root",
              file=sys.stderr)
        return 2
    if args.update_golden:
        return update_golden(checkout)

    tally = Tally(golden_for(args.workload, args.smoke)
                  if args.seed == 0 else None)
    host = {}
    if args.trace:
        metrics, units = traced(checkout, args, tally), PER_LAYER
    else:
        (metrics, host), units = measure(checkout, args, tally), END_TO_END
    tally.add_check(run_rep(checkout, args.workload, args.seed, args.limit,
                            mode="check", smoke=args.smoke))
    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    for name, unit in units.items():
        if name in metrics:
            line = f"{args.workload} {name} {metrics[name]:.6g} {unit}"
            if host.get(name, metrics[name]) != metrics[name]:
                line += f" (host: {host[name]:.6g} {unit})"
            print(line)
    print(f"{args.workload} failed_frac {failed_frac:.6g} "
          f"({tally.failed} of {tally.attempted} jobs)")
    print(json.dumps({
        "correct": tally.correct and set(metrics) == set(units),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
