"""HOOP: out-of-place redo logging, OOP buffer/region, GC."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.base import BackupReason
from repro.cpu.state import Checkpoint

from tests.arch.conftest import load_word, make_arch, store_word


def fill_set0(arch, base, count=8, write=False):
    for i in range(count):
        addr = base + i * 32
        if write:
            store_word(arch, addr, addr)
        else:
            load_word(arch, addr)


def test_dirty_eviction_never_touches_home(data_base):
    arch = make_arch("hoop")
    arch.backup(BackupReason.INITIAL)
    store_word(arch, data_base, 0xAB)
    fill_set0(arch, data_base + 32, 8)  # evict it
    assert arch.nvm.peek_word(data_base) == 0  # home untouched
    assert arch.oop_buffer[data_base] == 0xAB  # parked in the buffer


def test_buffer_word_visible_on_refetch(data_base):
    arch = make_arch("hoop")
    arch.backup(BackupReason.INITIAL)
    store_word(arch, data_base, 0xAB)
    fill_set0(arch, data_base + 32, 8)
    assert load_word(arch, data_base) == 0xAB


def test_only_written_words_logged(data_base):
    arch = make_arch("hoop")
    arch.backup(BackupReason.INITIAL)
    store_word(arch, data_base + 4, 1)  # word 1 of the block only
    fill_set0(arch, data_base + 32, 8)
    assert data_base + 4 in arch.oop_buffer
    assert data_base not in arch.oop_buffer


def test_backup_moves_updates_to_committed_log(data_base):
    arch = make_arch("hoop")
    store_word(arch, data_base, 7)
    arch.backup(BackupReason.POLICY)
    assert arch.oop_buffer == {}
    assert arch.committed_log[data_base] == 7
    assert arch.nvm.peek_word(data_base) == 0  # still out of place
    assert arch.debug_read_word(data_base) == 7


def test_power_failure_drops_buffer_keeps_log(data_base):
    arch = make_arch("hoop")
    store_word(arch, data_base, 7)
    arch.backup(BackupReason.POLICY)
    store_word(arch, data_base + 64, 9)  # uncommitted
    arch.on_power_failure()
    # Restore garbage-collects: committed updates land at home.
    arch.restore()
    assert arch.nvm.peek_word(data_base) == 7
    assert arch.committed_log == {}
    assert load_word(arch, data_base) == 7
    assert load_word(arch, data_base + 64) == 0  # lost, as expected


def test_buffer_full_triggers_structural_backup(data_base):
    arch = make_arch("hoop", oop_buffer_entries=4)
    arch.backup(BackupReason.INITIAL)
    before = arch.stats.backups_by_reason.get(BackupReason.STRUCTURAL, 0)
    # Dirty 3 whole blocks (1 word each... use full blocks): write one
    # word in each of 5 set-0 blocks, then stream to evict them all.
    for i in range(5):
        store_word(arch, data_base + i * 32, i + 1)
    fill_set0(arch, data_base + 4096, 8)
    assert arch.stats.backups_by_reason.get(BackupReason.STRUCTURAL, 0) >= before + 1


def test_region_full_forces_gc(data_base):
    arch = make_arch("hoop", oop_region_slots=8)
    gc_before = arch.gc_count
    # Each backup writes 1 slice header + 1 word = 2 slots.
    for i in range(6):
        store_word(arch, data_base + i * 4096, i)
        arch.backup(BackupReason.POLICY)
    assert arch.gc_count > gc_before
    # After GC the region was compacted; log reflects the latest state.
    for i in range(6):
        assert arch.debug_read_word(data_base + i * 4096) == i


def test_slice_packing_counts_blocks():
    arch = make_arch("hoop")
    updates = {0x100: 1, 0x104: 2, 0x108: 3, 0x200: 4}
    assert arch._slice_count(updates, 16) == 2
    assert arch._slots_needed(updates) == 4 + 2


def test_store_locality_packs_into_fewer_slices(data_base):
    """Words of one block share a slice header (HOOP's advantage on
    store-local benchmarks, Section 6.2)."""
    arch_local = make_arch("hoop")
    for i in range(4):
        store_word(arch_local, data_base + 4 * i, i)  # one block
    scattered = make_arch("hoop")
    for i in range(4):
        store_word(scattered, data_base + 32 * i, i)  # four blocks
    assert arch_local.estimate_backup_cost() < scattered.estimate_backup_cost()


def test_estimate_covers_actual(data_base):
    arch = make_arch("hoop")
    for i in range(5):
        store_word(arch, data_base + i * 32, i)
    estimate = arch.estimate_backup_cost()
    spent = arch.ledger.total_spent
    arch.backup(BackupReason.POLICY)
    assert arch.ledger.total_spent - spent <= estimate + 1e-9


def test_multiple_updates_same_word_keep_latest(data_base):
    arch = make_arch("hoop")
    store_word(arch, data_base, 1)
    arch.backup(BackupReason.POLICY)
    store_word(arch, data_base, 2)
    arch.backup(BackupReason.POLICY)
    arch.on_power_failure()
    arch.restore()
    assert load_word(arch, data_base) == 2


# ------------------------------------------- incremental pending slots
#: A tiny buffer and region, so short streams reach buffer-full
#: STRUCTURAL backups and region GC.
_TINY = dict(oop_buffer_entries=4, oop_region_slots=24)
#: 20 blocks: 10 per set of the default 2-set, 8-way cache, so lines
#: get evicted into the buffer.
_SPAN_BYTES = 320


def _full_scan_estimate(arch):
    """The estimate as a rescan of the pending updates."""
    energy = arch.energy
    slots = arch._slots_needed(arch._pending_updates())
    cost = (
        slots * energy.nvm_write_word
        + Checkpoint.WORDS * energy.nvm_write_word
        + energy.backup_commit
    )
    if arch.region_used + slots > arch.region_slots:
        cost += arch._gc_cost()
    return cost


def _assert_pending_counters(arch):
    updates = arch._pending_updates()
    masks = {}
    for addr in updates:
        block = arch.cache.block_address(addr)
        masks[block] = masks.get(block, 0) | 1 << arch.cache.word_index(addr)
    assert arch._pending_masks == masks
    assert arch._pending_words == len(updates)
    assert arch._pending_words + len(arch._pending_masks) == arch._slots_needed(
        updates
    )
    assert arch.estimate_backup_cost() == _full_scan_estimate(arch)


def _apply(arch, base, op):
    kind, offset, value = op
    if kind == "load":
        arch.load(base + (offset & ~3), 4)
    elif kind == "load_byte":
        arch.load(base + offset, 1)
    elif kind == "store":
        arch.store(base + (offset & ~3), value, 4)
    elif kind == "store_byte":
        arch.store(base + offset, value & 0xFF, 1)
    elif kind == "conflict":
        # 8 other blocks of the same set (32 B apart in the default
        # 2-set cache) evict the line.
        for i in range(1, 9):
            arch.load(base + (offset & ~15) + i * 32, 4)
    elif kind == "backup":
        arch.backup(BackupReason.POLICY)
    else:
        arch.on_power_failure()
        arch.restore()


_OPS = st.tuples(
    st.sampled_from(
        ["load", "load_byte", "store", "store", "store_byte", "conflict"]
        + ["backup", "fail"]
    ),
    st.integers(0, _SPAN_BYTES - 1),
    st.integers(0, 0xFFFFFFFF),
)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_OPS, max_size=80))
def test_pending_counters_match_full_scan(ops):
    arch = make_arch("hoop", **_TINY)
    base = arch.layout.data_base
    arch.backup(BackupReason.INITIAL)
    _assert_pending_counters(arch)
    for op in ops:
        _apply(arch, base, op)
        _assert_pending_counters(arch)


def test_pending_counters_survive_structural_backup_gc_and_failure(data_base):
    """A fixed stream that provably reaches every path that resets or
    bypasses the counters: buffer-full backups, region GC (forward and
    at restore) and power failure."""
    rng = random.Random(0)
    arch = make_arch("hoop", **_TINY)
    arch.backup(BackupReason.INITIAL)
    kinds = ["load"] * 30 + ["store"] * 50 + ["store_byte"] * 10
    kinds += ["conflict", "backup", "fail"]
    for _ in range(3000):
        op = (rng.choice(kinds), rng.randrange(_SPAN_BYTES), rng.getrandbits(32))
        _apply(arch, data_base, op)
        _assert_pending_counters(arch)
    assert arch.stats.backups_by_reason.get(BackupReason.STRUCTURAL, 0) > 0
    assert arch.stats.restores > 0
    assert arch.gc_count > arch.stats.restores  # some GC ran mid-period
