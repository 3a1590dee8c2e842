"""The transport-agnostic scheduler core: caching, events, dedup.

The in-flight dedup tests are the acceptance gate for the service
refactor: two concurrent callers racing on the same job key must
execute the simulation exactly once, provably (the ``dedup_hits``
counter and the single ``_execute`` call are both asserted).
"""

import threading

import pytest

import repro.service.scheduler as sched
from repro.analysis.engine import _config_key, _run_cache, clear_run_cache
from repro.service import ProgressEvent, Scheduler, get_scheduler
from repro.sim.platform import PlatformConfig

BENCH = "hist"
CONFIG = PlatformConfig(arch="clank", policy="jit")
JOB = (BENCH, CONFIG, 0)
KEY = (BENCH, _config_key(CONFIG), 0)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_run_cache()
    yield
    clear_run_cache()


def test_progress_event_renders_historical_label():
    event = ProgressEvent(done=3, total=6, kind="cached",
                          detail="hist/clank/jit/seed0")
    assert event.text == "cached:hist/clank/jit/seed0"


def test_run_executes_seeds_cache_and_reports():
    scheduler = Scheduler()
    events = []
    executed = scheduler.run(
        [JOB, (BENCH, CONFIG, 1)], workers=1, on_event=events.append
    )
    assert executed == 2
    assert KEY in _run_cache
    assert (BENCH, _config_key(CONFIG), 1) in _run_cache
    # Every unit of work ticked; labels carry bench/arch/policy/seed.
    kinds = [e.kind for e in events]
    # Fresh executions label their route: "sim", "replay" (scalar
    # window) or "replay[compiled]" (epoch scripts, the default).
    fresh = [k for k in kinds if k == "sim" or k.startswith("replay")]
    assert len(fresh) == 2
    assert events[-1].done == events[-1].total == 2
    assert all(e.detail.startswith("hist/clank/jit/seed")
               for e in events if e.kind != "record")
    stats = scheduler.stats()
    assert stats["executed"] == 2
    assert stats["inflight"] == 0


def test_warm_cache_executes_nothing():
    scheduler = Scheduler()
    assert scheduler.run([JOB], workers=1) == 1
    events = []
    assert scheduler.run([JOB, JOB], workers=1, on_event=events.append) == 0
    assert events == []  # in-process hits are pre-filtered, not ticked


def test_concurrent_identical_jobs_execute_once(monkeypatch):
    scheduler = Scheduler()
    real_execute = sched._execute
    calls = []
    owner_entered = threading.Event()
    release_owner = threading.Event()

    def gated_execute(job):
        calls.append(job)
        owner_entered.set()
        assert release_owner.wait(30)
        return real_execute(job)

    monkeypatch.setattr(sched, "_execute", gated_execute)

    results = {}

    def run_as(name):
        results[name] = scheduler.run([JOB], workers=1)

    owner = threading.Thread(target=run_as, args=("owner",))
    owner.start()
    assert owner_entered.wait(10)  # the owner holds the job in flight

    borrower = threading.Thread(target=run_as, args=("borrower",))
    borrower.start()
    # Deterministic rendezvous: wait until the borrower has claimed the
    # in-flight key (the counter increments under the claim lock).
    for _ in range(1000):
        if scheduler.stats()["dedup_hits"] == 1:
            break
        threading.Event().wait(0.01)
    assert scheduler.stats()["dedup_hits"] == 1

    release_owner.set()
    owner.join(timeout=30)
    borrower.join(timeout=30)

    # One simulation total: the owner executed, the borrower adopted.
    assert calls == [JOB]
    assert results == {"owner": 1, "borrower": 0}
    assert KEY in _run_cache
    stats = scheduler.stats()
    assert stats["executed"] == 1
    assert stats["dedup_hits"] == 1
    assert stats["inflight"] == 0


def test_borrower_reexecutes_when_owner_dies(monkeypatch):
    scheduler = Scheduler()
    real_execute = sched._execute
    calls = []
    owner_entered = threading.Event()
    release_owner = threading.Event()

    def gated_execute(job):
        calls.append(job)
        if len(calls) == 1:  # the owner crashes mid-job
            owner_entered.set()
            assert release_owner.wait(30)
            raise RuntimeError("owner died")
        return real_execute(job)

    monkeypatch.setattr(sched, "_execute", gated_execute)

    outcome = {}

    def run_owner():
        try:
            scheduler.run([JOB], workers=1)
        except RuntimeError as error:
            outcome["owner"] = str(error)

    owner = threading.Thread(target=run_owner)
    owner.start()
    assert owner_entered.wait(10)

    events = []
    borrower = threading.Thread(
        target=lambda: outcome.setdefault(
            "borrower",
            scheduler.run([JOB], workers=1, on_event=events.append),
        )
    )
    borrower.start()
    for _ in range(1000):
        if scheduler.stats()["dedup_hits"] == 1:
            break
        threading.Event().wait(0.01)

    release_owner.set()
    owner.join(timeout=30)
    borrower.join(timeout=30)

    # The owner's crash released the key; the borrower noticed the
    # missing result and ran the job itself rather than hanging.
    assert outcome["owner"] == "owner died"
    assert outcome["borrower"] == 1
    assert len(calls) == 2
    assert KEY in _run_cache
    assert [e.kind for e in events] == ["dedup"]
    assert scheduler.stats()["inflight"] == 0


def test_get_scheduler_is_a_process_singleton():
    assert get_scheduler() is get_scheduler()
