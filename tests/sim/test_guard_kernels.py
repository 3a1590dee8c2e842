"""Guard-kernel contract tests (compiled replay's in-array renewals).

The compiled span scanner (:mod:`repro.sim.epochs`) renews policy
guards *in-array* through the closed forms each policy declares via
:meth:`BackupPolicy.compile_guard`.  The differential suite pins the
end-to-end bit-identity; this suite pins the closed forms themselves
against the scalar loops they replace — property-tested, so the
equivalence holds on inputs no benchmark happens to produce:

* ``guard_trip_step`` == the scalar ``skipped += cycles`` budget loop,
* the NvMR cost table == the estimate's sequential float accumulation,
* the JIT floor kernel == a live ``decide()`` threshold at every step
  of a real run (including after every dirty-set re-anchor),
* the Spendthrift ``trip()`` == the scalar ``resync + decide`` pair,
  RNG draws and counter mutations included,
* the task policy's cycle-budget guard, revoked at every call
  boundary, == ``after_step`` on every step,
* epoch scripts are in-memory data: rebuilt ones replay bit for bit,
  and a cold sweep writes none to disk.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.engine import (
    ExperimentSettings,
    clear_run_cache,
    run_experiment,
)
from repro.energy.traces import HarvestTrace
from repro.policies.base import PolicyAction, guard_trip_step
from repro.policies.jit import JitPolicy
from repro.policies.spendthrift import (
    SpendthriftPolicy,
    _SpendthriftBudgetKernel,
    default_model,
)
from repro.policies.task import TaskBoundaryPolicy
from repro.sim import epochs, replay
from repro.sim.platform import Platform, PlatformConfig
from repro.sim.replay import (
    ReplayPlatform,
    clear_replay_caches,
    get_image,
    guard_kernels_enabled,
)
from repro.workloads import load_program


# ------------------------------------------------- guard_trip_step
def _scalar_trip_step(cycles, k, skipped, budget):
    """The scalar guard loop: first step whose cycles trip the budget."""
    for t in range(k, len(cycles)):
        skipped += cycles[t]
        if skipped >= budget:
            return t
    return len(cycles)  # budget outlives the trace


@settings(max_examples=300, deadline=None)
@given(
    cycles=st.lists(st.integers(min_value=1, max_value=9), min_size=1,
                    max_size=40),
    k_frac=st.floats(min_value=0.0, max_value=1.0),
    skipped=st.integers(min_value=0, max_value=30),
    budget=st.integers(min_value=1, max_value=120),
)
def test_guard_trip_step_matches_scalar_loop(cycles, k_frac, skipped, budget):
    cyc_cum = np.zeros(len(cycles) + 1, dtype=np.int64)
    np.cumsum(cycles, out=cyc_cum[1:])
    k = int(k_frac * (len(cycles) - 1))
    # The executor only ever asks with skipped < budget (a guard that
    # already tripped is revoked before any lookup).
    if skipped >= budget:
        skipped = budget - 1
    # Both forms report "budget outlives the trace" as index len(cycles)
    # (== len(cyc_cum) - 1, one past the last real step).
    assert guard_trip_step(cyc_cum, k, skipped, budget) == _scalar_trip_step(
        cycles, k, skipped, budget
    )


# ------------------------------------------- NvMR cost-table float chain
@pytest.fixture(scope="module")
def nvmr_platform():
    platform = Platform(
        load_program("hist"), PlatformConfig(arch="nvmr", policy="jit"),
        trace=HarvestTrace(0), benchmark_name="hist",
    )
    platform.policy.reset(platform)
    return platform


@settings(max_examples=200, deadline=None)
@given(d=st.integers(min_value=0, max_value=16),
       p=st.integers(min_value=0, max_value=16),
       mtc_dirty=st.integers(min_value=0, max_value=8),
       mtc_reserved=st.integers(min_value=0, max_value=8))
def test_nvmr_cost_table_matches_sequential_accumulation(
    nvmr_platform, d, p, mtc_dirty, mtc_reserved
):
    """``cost(d, p)`` must replay the live estimate's exact float chain:
    a *sequential* accumulation (FREE_PTR base, ``d`` adds of
    ``mtc_access``, ``p`` adds of the map-probe read), never a
    refactored ``base + d * x + p * y`` product form."""
    arch = nvmr_platform.arch
    kernel = arch.estimate_cost_kernel()
    energy = arch.energy
    # Pin the anchored MTC term at arbitrary occupancies too.
    kernel._mtc_term = (
        mtc_dirty * (arch.MAP_COMMIT_WORDS * energy.nvm_write_word)
        + mtc_reserved * energy.nvm_write_word
    )
    acc = arch.FREE_PTR_WORDS * energy.nvm_write_word
    for _ in range(d):
        acc += energy.mtc_access
    probe = arch.MAP_ENTRY_WORDS * energy.nvm_read_word
    for _ in range(p):
        acc += probe
    overhead = acc + kernel._mtc_term
    expect = (
        d * energy.block_write(arch.words_per_block)
        + kernel._wnw + energy.backup_commit + overhead
    )
    assert kernel.cost(d, p) == expect


# ------------------------------------- JIT floor kernel on a live run
class _FloorAuditPolicy(JitPolicy):
    """JIT that cross-examines its own kernel after every instruction.

    Running this under the *reference* engine consults ``after_step``
    at every retired instruction, so the kernel's closed form is pinned
    against the live ``estimate_backup_cost()`` at every (dirty,
    probes, MTC) state the run visits — including the state right after
    every dirty-set event, which is exactly what the compiled
    executor's re-anchor computes.
    """

    def __init__(self):
        super().__init__()
        self.checked = 0
        self._kernel = None

    def reset(self, platform):
        super().reset(platform)
        self._kernel = self.compile_guard(platform)

    def after_step(self, platform, cycles):
        kernel = self._kernel
        if kernel is not None:
            d, p = kernel.anchor()
            live = platform.arch.estimate_backup_cost() + self._step_pad
            assert kernel.floor(d, p) == live  # bit-equal, no tolerance
            if kernel.needs_probes:
                # probe_delta feeds the re-anchor when a clean line is
                # dirtied: it must mirror the anchor's own MTC probe
                # test for every resident line.
                mtc_peek = platform.arch.mtc.peek
                for lines in platform.arch.cache._sets:
                    for line in lines:
                        if not line.valid:
                            continue
                        expect = 1 if mtc_peek(line.block_addr) is None else 0
                        assert kernel.probe_delta(line.block_addr) == expect
            self.checked += 1
        return super().after_step(platform, cycles)


@pytest.mark.parametrize("arch", ["nvmr", "clank"])
def test_jit_floor_kernel_matches_live_estimate_throughout_run(arch):
    policy = _FloorAuditPolicy()
    platform = Platform(
        load_program("hist"),
        PlatformConfig(arch=arch, policy=policy, fast=False),
        trace=HarvestTrace(0), benchmark_name="hist",
    )
    platform.run()
    assert policy.checked > 10_000  # the audit actually ran, per step


# ------------------------------------------- loud compile_guard errors
class _BrokenGuardPolicy(JitPolicy):
    def compile_guard(self, platform):
        raise RuntimeError("broken guard kernel")


def test_compile_guard_error_propagates(monkeypatch):
    """A raising ``compile_guard`` is a bug: replay must surface it, not
    quietly run the slower scalar renewal path."""
    monkeypatch.setenv("REPRO_REPLAY_GUARD_KERNELS", "1")
    platform = ReplayPlatform(
        load_program("hist"), get_image("hist"),
        PlatformConfig(arch="nvmr", policy=_BrokenGuardPolicy()),
        trace=HarvestTrace(0), benchmark_name="hist",
    )
    with pytest.raises(RuntimeError, match="broken guard kernel"):
        platform.run()


# --------------------------------- Spendthrift trip == resync + decide
class _FakeCapacitor:
    def __init__(self, capacity, energy):
        self.capacity = capacity
        self.energy = energy

    @property
    def fraction(self):
        return self.energy / self.capacity


class _FakeArch:
    def __init__(self, cost, worst):
        self._cost = cost
        self._worst = worst

    def estimate_backup_cost(self):
        return self._cost

    def worst_step_cost(self):
        return self._worst

    def estimate_cost_kernel(self):
        return _FakeCostKernel(self._cost)


class _FakeCostKernel:
    needs_probes = False

    def __init__(self, cost):
        self._cost = cost

    def anchor(self):
        return 0, 0

    def cost(self, dirty, probes):
        return self._cost

    def probe_delta(self, block_addr):
        return 0


class _FakePlatform:
    def __init__(self, capacitor, arch):
        self.capacitor = capacitor
        self.arch = arch


def _fresh_spendthrift(seed, env, offset, since):
    policy = SpendthriftPolicy(model=default_model(), seed=seed)
    policy.reset(None)
    policy._env = env
    policy._offset = offset
    policy._since_check = since
    return policy


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    energy=st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
    cost=st.floats(min_value=0.1, max_value=60.0, allow_nan=False),
    worst=st.floats(min_value=0.01, max_value=4.0, allow_nan=False),
    env=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    offset=st.floats(min_value=-0.2, max_value=0.2, allow_nan=False),
    since=st.integers(min_value=0, max_value=99),
    extra=st.integers(min_value=0, max_value=50),
    cycles=st.integers(min_value=1, max_value=8),
)
def test_spendthrift_trip_matches_scalar_resync_decide(
    seed, energy, cost, worst, env, offset, since, extra, cycles
):
    """Twin policies, same RNG seed: the kernel's ``trip()`` must be
    indistinguishable from the scalar ``_resync + after_step`` pair —
    same verdict, same counter, same RNG stream; a decline must leave
    the kernel's policy bit-identical so the scalar retry reproduces
    the exact draw."""
    capacitor = _FakeCapacitor(100.0, energy)
    arch = _FakeArch(cost, worst)
    fake = _FakePlatform(capacitor, arch)
    interval = SpendthriftPolicy().check_interval
    # Total cycles charged against the guard: at least enough to trip.
    skipped = max(interval - since, cycles) + extra

    scalar = _fresh_spendthrift(seed, env, offset, since)
    compiled = _fresh_spendthrift(seed, env, offset, since)
    kernel = _SpendthriftBudgetKernel(compiled, fake, _FakeCostKernel(cost))

    # Scalar path: resync the fully-skipped cycles, then one decide().
    scalar._resync(skipped - cycles)
    action = scalar.after_step(fake, cycles)
    renewed = kernel.trip(energy, skipped, 0, 0)

    if action is PolicyAction.SHUTDOWN:
        assert renewed is None
        # Decline leaves the twin untouched: counter and RNG both.
        assert compiled._since_check == since
        assert (compiled._rng.bit_generator.state
                == _fresh_spendthrift(seed, env, offset, since)
                ._rng.bit_generator.state)
        # ...so the scalar retry draws the identical sample.
        compiled._resync(skipped - cycles)
        assert compiled.after_step(fake, cycles) is PolicyAction.SHUTDOWN
    else:
        assert renewed == interval
        assert compiled._since_check == scalar._since_check == 0
    assert (compiled._rng.bit_generator.state
            == scalar._rng.bit_generator.state)


# ------------------------- task guard == after_step on every step
@settings(max_examples=300, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=40),  # step cycles
            st.booleans(),  # the step retires a ``bl`` boundary
            st.integers(min_value=0, max_value=30),  # 0: power failure
        ),
        min_size=1,
        max_size=200,
    ),
    min_task=st.integers(min_value=1, max_value=150),
    extra=st.integers(min_value=0, max_value=300),
)
def test_task_guard_matches_after_step_on_every_step(steps, min_task, extra):
    """Skipping while guarded, revoking at boundaries and resyncing —
    the replay loop's protocol — must reproduce the actions and the
    ``_since_backup`` counter of consulting ``after_step`` every step.

    Power failures (``on_period_start``) drop the guard without a
    resync, as in the replay loop; a BACKUP calls ``on_backup``."""
    ref = TaskBoundaryPolicy(min_task, min_task + extra)
    fast = TaskBoundaryPolicy(min_task, min_task + extra)
    guarded = False
    skipped = budget = 0
    resync = None
    for cycles, is_boundary, failure in steps:
        if failure == 0:
            ref.on_period_start(None, None)
            fast.on_period_start(None, None)
            guarded = False
        if is_boundary:
            ref._boundary_seen = True
        expected = ref.after_step(None, cycles)
        if expected == PolicyAction.BACKUP:
            ref.on_backup(None)
        if is_boundary:
            fast._boundary_seen = True
            budget = 0  # revoke: the boundary moved the threshold
        if guarded:
            skipped += cycles
            if skipped < budget:
                assert expected == PolicyAction.NONE
                assert fast._since_backup + skipped == ref._since_backup
                continue
            resync(skipped - cycles)
            guarded = False
        action, guard = fast.decide(None, cycles)
        assert action == expected
        if action == PolicyAction.BACKUP:
            fast.on_backup(None)
            assert guard is None
        else:
            _floor, _growth, budget, resync = guard
            assert budget > 0
            skipped = 0
            guarded = True
        assert fast._since_backup == ref._since_backup
        assert fast._boundary_seen == ref._boundary_seen


# ------------------------------------------ in-memory epoch scripts
def test_rebuilt_scripts_replay_bit_identically():
    """Scripts are data derived from the image: dropping the image's
    script LRU mid-sweep and lowering afresh yields equal arrays, and
    every compiled replay still matches the scalar replay bit for
    bit."""
    program = load_program("hist")
    image = get_image("hist")

    def run(config, compiled):
        platform = ReplayPlatform(
            program, image, config, trace=HarvestTrace(0),
            benchmark_name="hist", compiled=compiled,
        )
        return platform.run(), platform

    for arch, policy in (("nvmr", "jit"), ("clank", "spendthrift"),
                         ("nvmr", "watchdog")):
        config = PlatformConfig(arch=arch, policy=policy)
        scalar_result, scalar_platform = run(config, False)
        first_result, _ = run(config, True)
        built = dict(image._epoch_scripts)
        image._epoch_scripts.clear()
        second_result, second_platform = run(config, True)
        assert image._epoch_scripts  # this run lowered its scripts again
        assert image._epoch_scripts.keys() <= built.keys()
        for key, new in image._epoch_scripts.items():
            old = built[key]
            assert new is not old
            for slot in epochs.EpochScript.__slots__:
                a, b = getattr(old, slot), getattr(new, slot)
                if isinstance(a, np.ndarray):
                    assert a.dtype == b.dtype and np.array_equal(a, b), slot
                elif slot != "cyc_cum_py":  # lazily materialised list
                    assert a == b, slot
        for name in scalar_result.__dataclass_fields__:
            assert getattr(second_result, name) == getattr(first_result, name)
            assert getattr(second_result, name) == getattr(scalar_result,
                                                           name)
        assert second_platform.nvm._words == scalar_platform.nvm._words


def test_cold_experiment_writes_no_scripts(tmp_path, monkeypatch):
    """A cold sweep persists its traces and run records but no epoch
    scripts: those are built in memory by each process that replays."""
    monkeypatch.setenv("REPRO_RUN_CACHE", "1")
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
    monkeypatch.setenv("REPRO_REPLAY_COMPILED", "1")
    clear_run_cache()
    clear_replay_caches()
    try:
        run = run_experiment("fig10", settings=ExperimentSettings.smoke(),
                             workers=1)
        built = sum(len(image._epoch_scripts)
                    for _program, image in replay._image_cache.values())
    finally:
        clear_run_cache()
    assert run.complete
    assert built  # the sweep did lower epoch scripts
    assert (tmp_path / "traces" / "blobs").is_dir()  # traces persisted
    assert not (tmp_path / "traces" / "scripts").exists()


# -------------------------------------------- kernel knob + executors
def test_guard_kernel_knob_disables_absorption(monkeypatch):
    """``REPRO_REPLAY_GUARD_KERNELS=0`` reverts to break-at-renewal
    compiled replay (the PR 7 baseline) — same bits, no kernels."""
    program = load_program("hist")
    image = get_image("hist")
    config = PlatformConfig(arch="nvmr", policy="spendthrift")

    def run():
        platform = ReplayPlatform(
            program, image, config, trace=HarvestTrace(0),
            benchmark_name="hist", compiled=True,
        )
        return platform.run(), platform

    monkeypatch.setenv("REPRO_REPLAY_GUARD_KERNELS", "0")
    assert not guard_kernels_enabled()
    off_result, off_platform = run()
    assert off_platform._gkernel is None
    monkeypatch.setenv("REPRO_REPLAY_GUARD_KERNELS", "1")
    assert guard_kernels_enabled()
    on_result, on_platform = run()
    assert on_platform._gkernel is not None
    for name in off_result.__dataclass_fields__:
        assert getattr(on_result, name) == getattr(off_result, name), name


@pytest.mark.parametrize("policy,kwargs", [
    ("jit", {}),
    ("jit", {"margin": 4.0}),
    ("spendthrift", {}),
    ("spendthrift", {"check_interval": 25}),
    ("task", {}),
])
def test_absorbing_kernels_survive_adversarial_chunking(
    monkeypatch, policy, kwargs
):
    """Tiny chunks force every chunk-edge path in ``_window_floor`` /
    ``_window_budget`` (events straddling chunk seams, trips at chunk
    boundaries, post-loop event folds) — not one bit may move."""
    monkeypatch.setattr(epochs, "_SCALAR_PREFIX", 1)
    monkeypatch.setattr(epochs, "_CHUNK", 2)
    monkeypatch.setattr(epochs, "_GM2_MIN_SPAN", 1)
    monkeypatch.setattr(epochs, "_ADAPT_MIN_GAIN", 0)
    program = load_program("hist")
    image = get_image("hist")
    config = PlatformConfig(
        arch="nvmr", policy=policy, policy_kwargs=dict(kwargs)
    )
    results = {}
    for compiled in (False, True):
        platform = ReplayPlatform(
            program, image, config, trace=HarvestTrace(0),
            benchmark_name="hist", compiled=compiled,
        )
        results[compiled] = (platform.run(), platform)
    scalar_result, scalar_platform = results[False]
    compiled_result, compiled_platform = results[True]
    for name in scalar_result.__dataclass_fields__:
        assert getattr(compiled_result, name) == getattr(
            scalar_result, name
        ), name
    assert compiled_platform.nvm._words == scalar_platform.nvm._words
    if policy in ("jit", "spendthrift"):
        # The absorbing kernel must actually have engaged.
        assert compiled_platform._gkernel is not None
        assert compiled_platform._gkernel.absorbs
