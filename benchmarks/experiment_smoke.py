"""CI smoke gate for the declarative experiment engine.

Runs the **full experiment registry** at smoke settings twice:

1. **serial** — every spec unsharded with one worker, in a private
   disk-cache directory;
2. **sharded** — every spec split across ``--shards`` deterministic job
   slices, each slice run by a separate engine invocation with
   ``--workers`` processes against a second, shared cache directory,
   with the in-process cache dropped between invocations so the later
   shards really go through the disk layer (as separate machines
   would).

After the serial pass it prints the store's bytes per namespace (run
records, then each trace-store namespace).

The gate fails if any final shard cannot reduce (the disk cache did
not make the other slices visible), if any sharded result differs from
its serial result (the engine's determinism promise: sharded-union ==
unsharded, bit for bit), if the shared cache holds fewer entries
than the number of distinct jobs simulated, or if either store holds
a ``scripts/`` entry (epoch scripts are built in memory, never
persisted).

Usage::

    PYTHONPATH=src python benchmarks/experiment_smoke.py --workers 2 --shards 2
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(REPO_ROOT / "src"))


def _canonical(result):
    from repro.analysis.engine import _encode

    return json.dumps(_encode(result), sort_keys=True)


def _store_bytes(root):
    """Bytes per namespace of the store at ``root``: the run records at
    its top level, then each trace-store namespace directory."""
    sizes = {"runs": sum(p.stat().st_size for p in root.glob("*.json"))}
    traces = root / "traces"
    if traces.is_dir():
        for namespace in sorted(p for p in traces.iterdir() if p.is_dir()):
            sizes[f"traces/{namespace.name}"] = sum(
                p.stat().st_size for p in namespace.rglob("*") if p.is_file()
            )
    return sizes


def _script_entries(root):
    """Files under any ``scripts/`` directory of the store at ``root``."""
    return [p for p in root.rglob("*")
            if p.is_file() and "scripts" in p.relative_to(root).parts]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes per sharded invocation")
    parser.add_argument("--shards", type=int, default=2,
                        help="number of deterministic job slices")
    parser.add_argument("--experiments", nargs="*", metavar="ID",
                        help="restrict to these spec ids (default: all)")
    args = parser.parse_args(argv)

    from repro.analysis.engine import (
        ExperimentSettings,
        all_experiments,
        clear_run_cache,
        job_key,
        run_experiment,
    )

    os.environ["REPRO_RUN_CACHE"] = "1"
    settings = ExperimentSettings.smoke()
    registry = all_experiments()
    names = args.experiments or list(registry)
    unknown = [name for name in names if name not in registry]
    if unknown:
        print(f"unknown experiment ids: {', '.join(unknown)}")
        return 2

    failures = []
    with tempfile.TemporaryDirectory(prefix="exp-smoke-") as tmp:
        serial_dir = Path(tmp) / "serial"
        shared_dir = Path(tmp) / "shared"

        serial = {}
        os.environ["REPRO_CACHE_DIR"] = str(serial_dir)
        for name in names:
            clear_run_cache()
            run = run_experiment(name, settings=settings, workers=1)
            assert run.complete, f"{name}: serial run must reduce"
            serial[name] = _canonical(run.result)
            print(f"serial  {name}: {run.jobs_total} jobs, "
                  f"{run.fresh_runs} fresh")
        for namespace, size in _store_bytes(serial_dir).items():
            print(f"store   {namespace}: {size} bytes")

        os.environ["REPRO_CACHE_DIR"] = str(shared_dir)
        distinct_jobs = set()
        for name in names:
            spec = registry[name]
            distinct_jobs.update(job_key(j) for j in spec.jobs(settings))
            final = None
            for k in range(1, args.shards + 1):
                # Each shard simulates in a fresh process-cache state, so
                # cross-shard visibility comes only from the disk layer.
                clear_run_cache()
                final = run_experiment(
                    name, settings=settings, workers=args.workers,
                    shard=f"{k}/{args.shards}",
                )
                print(f"shard   {name} {k}/{args.shards}: "
                      f"{final.jobs_selected}/{final.jobs_total} jobs, "
                      f"{final.fresh_runs} fresh, complete={final.complete}")
            if not final.complete:
                failures.append(f"{name}: final shard did not reduce")
                continue
            if _canonical(final.result) != serial[name]:
                failures.append(f"{name}: sharded result != serial result")

        cached = len(list(shared_dir.glob("*.json")))
        print(f"\n{len(names)} experiments; {len(distinct_jobs)} distinct "
              f"jobs; {cached} shared-cache entries")
        if cached < len(distinct_jobs):
            failures.append(
                f"shared cache holds {cached} entries for "
                f"{len(distinct_jobs)} distinct jobs"
            )
        for root in (serial_dir, shared_dir):
            written = _script_entries(root)
            if written:
                failures.append(
                    f"{len(written)} epoch-script entries written under "
                    f"{root.name}/ (first: {written[0].relative_to(root)})"
                )

    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("OK: sharded runs reproduce serial results bit-for-bit")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
