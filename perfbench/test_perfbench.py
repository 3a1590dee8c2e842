"""Tests of the benchmark itself, at smoke scale.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT, home=None):
    env = dict(os.environ)
    if home is not None:
        env["HOME"] = str(home)
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def snapshot(directory):
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in Path(directory).iterdir()}


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_smoke_run_prints_every_metric_and_touches_no_shared_store(tmp_path):
    # pareto_summary is archive=True: the CLI would write its artifact to
    # benchmarks/results/, whose files are golden test data.
    results = ROOT / "benchmarks" / "results"
    before = snapshot(results)
    proc = bench("--workload", "pareto_sweep", "--seed", "0", "--seconds",
                 "1", "--trace", "0", "--smoke", home=tmp_path)
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 21
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in run.END_TO_END.items():
        assert f"pareto_sweep {name} " in proc.stdout and unit in proc.stdout
    assert "failed_frac 0" in proc.stdout
    assert snapshot(results) == before
    assert not (tmp_path / ".cache" / "repro-nvmr").exists()
    assert not list((ROOT / ".perfbench_runs").glob("rep-*"))


def test_traced_smoke_run_reports_every_layer_metric():
    result = result_of(bench("--workload", "fig10_sweep", "--seed", "2",
                             "--seconds", "1", "--trace", "1", "--smoke"))
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["service.scheduler.executed"] == 6
    assert metrics["service.scheduler.cache_hits"] == 0
    assert metrics["sim.trace.records"] == 1
    assert metrics["sim.replay.runs"] == 6
    assert metrics["sim.epochs.scripts_built"] > 0
    assert metrics["trace.span_overhead"] > 0
    spans = ROOT / ".perfbench_runs" / "spans" / "fig10_sweep-seed2.json"
    assert json.loads(spans.read_text())["spans"]


def test_two_cold_runs_repeat_exactly():
    checkout = run.Checkout(ROOT)
    golden = run.golden_for("fig10_sweep", smoke=True)
    reps = [run.run_rep(checkout, "fig10_sweep", 0,
                        run.time.monotonic() + 120, smoke=True)
            for _ in range(2)]
    for rep in reps:
        assert rep["error"] is None
        assert rep["scheduler"]["executed"] == rep["jobs"] == 6
        assert rep["scheduler"]["cache_hits"] == 0
        assert rep["job_digests"] == golden["job_digests"]
        assert rep["artifact_digest"] == golden["artifact_digest"]
    assert reps[0]["model"] == reps[1]["model"]


def test_a_differing_job_counts_as_failed():
    golden = run.golden_for("table3_ideal", smoke=True)
    label = sorted(golden["job_digests"])[0]
    rep = {"jobs": len(golden["job_digests"]), "error": None,
           "scheduler": {"executed": 2, "cache_hits": 0},
           "artifact_digest": golden["artifact_digest"],
           "job_digests": {**golden["job_digests"], label: "0" * 64}}
    tally = run.Tally(golden)
    tally.add(rep)
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, False)


def test_a_differing_cross_check_counts_as_failed():
    golden = run.golden_for("table3_ideal", smoke=True)
    rep = {"jobs": 2, "error": None,
           "scheduler": {"executed": 2, "cache_hits": 0}, **golden}
    tally = run.Tally(golden)
    tally.add(rep)
    first, last = sorted(golden["job_digests"])
    tally.add_check({"error": None, "check_digests": {
        first: golden["job_digests"][first], last: None}})
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, False)


def test_seed_shifts_every_trace_seed_and_zero_is_the_spec():
    from repro.analysis import engine

    spec = engine.get_experiment("fig10")
    settings = workloads.settings_for(workloads.WORKLOADS["fig10_sweep"])
    assert workloads.shifted_spec(spec, 0) is spec
    shifted = workloads.shifted_spec(spec, 3)
    assert [(j.benchmark, j.config, j.trace_seed + 3)
            for j in spec.jobs(settings)] == [
        tuple(j) for j in shifted.jobs(settings)]
    fetched = []

    def fetch(benchmark, config, seed):
        fetched.append(seed)
        return _Result()

    shifted.reduce(settings, fetch)
    assert fetched and set(fetched) == {3}


def test_times_are_scaled_by_the_calibration_and_nothing_else():
    rep = {"setup_s": 0.5, "cold_s": 3.0, "cpu_s": 2.0, "peak_rss_mb": 100.0,
           "store_mb": 9.0, "cal_s": 2 * run.CALIBRATION_REF_S,
           "cal_cpu_s": 4 * run.CALIBRATION_REF_S,
           "model": {"model.instructions": 3_000_000}}
    host = run.end_to_end(rep, scale=False)
    assert host == {"setup_s": 0.5, "cold_s": 3.0, "cpu_s": 2.0,
                    "sim_kips": 1000.0, "peak_rss_mb": 100.0, "store_mb": 9.0}
    assert run.end_to_end(rep) == {
        "setup_s": 0.25, "cold_s": 1.5, "cpu_s": 0.5, "sim_kips": 2000.0,
        "peak_rss_mb": 100.0, "store_mb": 9.0}


class _Result:
    total_energy = 1.0


def test_refuses_a_directory_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "table3_ideal", "--seed", "0", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
