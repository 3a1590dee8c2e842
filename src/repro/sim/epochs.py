"""Compiled-epoch replay: batch failure-free epochs into array ops.

The scalar quantum-window executor (:class:`repro.sim.replay._SpanState`)
walks every trace step even though memory ops occur only once per ~2.4
steps and most windows break at a miss or a guard event.  This module
lowers an :class:`~repro.sim.trace.ExecutionTrace` into a precompiled
**epoch script** per (cache geometry, cost table) pair — flat numpy
charge arrays, per-gap closed-form energy/cycle deltas derived from
:meth:`ReplayImage.span_tables`, and prefix-sum tables that answer
"where does the energy floor / guard budget trip inside this span?"
with a ``searchsorted`` instead of a step loop — and provides
:class:`CompiledSpanState`, a drop-in for ``_SpanState`` whose
``window`` executes whole failure-free epochs as array ops.

Guard kernels
-------------
A policy may additionally declare its guard *renewal* as closed-form
array math (:meth:`repro.policies.base.BackupPolicy.compile_guard`).
The executor then absorbs renewals in-array instead of breaking the
window back to the scalar loop at each one:

* a ``"floor"`` kernel (JIT): the floor is affine/static between
  dirty-set events, so the executor walks the events — the first store
  to each clean resident block — re-anchoring the floor to exactly the
  threshold a revoke + fresh ``decide()`` would compute, and breaks
  (uncommitted) only when the event's post-charge energy no longer
  clears the new floor (the scalar decide() then takes the SHUTDOWN);
* an absorbing ``"budget"`` kernel (Spendthrift): successive budget
  trips are closed-form ``bisect`` lookups in the int64 cycle prefix
  sums (:func:`repro.policies.base.guard_trip_step`); at each trip the
  kernel replicates the scalar ``resync + decide`` pair — including
  its RNG draws — and the window continues with the renewed budget.

Windows then run whole active periods: they break only at misses, byte
ops, unaffordable charges, halts, or a declined renewal — exactly the
points the scalar general body must service anyway.  (A byte op ends a
compiled chunk even when it hits: the array commit pass models word
stores only, so the step is handed back to the scalar replay loop,
whose inline hit path serves word and byte accesses alike.)

Bit-exactness
-------------
The compiled window produces results bit-identical to the scalar loop
(and hence to the fast engine and the reference interpreter) because
every batched operation reproduces the scalar float chain exactly:

* ``np.subtract.accumulate`` / ``np.add.accumulate`` apply their ufunc
  *sequentially*, so the energy series equals the scalar chain
  ``((e - a0) - a1) - ...`` bit for bit (Python floats are IEEE
  float64, like numpy's);
* charges are non-negative, so the energy series is non-increasing and
  "some charge was unaffordable" is one comparison on the last element;
  the first failing charge is exact because ``fl(e - a) < 0`` iff
  ``e < a`` (a float subtraction whose result falls in the subnormal
  range is exact, so the sign of the rounded difference is the sign of
  the true difference);
* cycle budgets are integers: the breaking step is
  ``searchsorted(cyc_cum, budget_target) - 1`` on an exact int64
  prefix sum;
* guard renewals replayed in-array replicate the scalar revoke +
  ``decide()`` chain: the renewed floor/budget is computed by the
  policy's own kernel from the same post-charge energy and the same
  dirty/probe counts the live estimate would see (both are static
  within a committed hit run, which contains no misses or evictions);
* within a window no line is ever evicted and (for event-revoked
  guards) dirtiness only changes at absorbed events, so the steps that
  can break a window structurally — byte ops, misses, reorder
  hazards — are a boolean mask over precompiled per-memop arrays, and
  everything before the first break is a pure hit run whose side
  effects (word values, first-touch states, dirty flags, LRU order)
  reduce to per-(block, word) net effects applied once at commit.

The breaking step itself is *never* committed; the general replay body
re-executes it, exactly as the scalar window behaves.  Within the
breaking step the simulator's check order decides which break wins
(byte op, per-charge affordability, miss, floor/budget, clean store,
reorder hazard) — the candidates below carry the same rank numbers the
scalar loop uses, and the earliest (step, rank) pair wins.

Scripts in memory
-----------------
A script is plain data derived from its :class:`ReplayImage`; nothing
is written to disk.  :func:`get_script` keeps a small LRU on the image
(:func:`fetch_script`) and lowers a fresh script on a miss
(:meth:`EpochScript.build`, a few milliseconds), so every process —
sweep workers included — builds the scripts it replays.

``REPRO_REPLAY_COMPILED=0`` disables the compiled path process-wide.
A failing :class:`CompiledSpanState` construction is a bug and
propagates.
"""

import os

import numpy as np

from repro.mem.bloom import WordState
from repro.policies.base import guard_trip_step
from repro.sim.replay import _SpanState

_UNKNOWN = WordState.UNKNOWN
_READ = WordState.READ
_WRITE = WordState.WRITE

#: Steps run through the scalar window before the vectorized scan
#: engages: short windows (the common case at guard entry) never pay
#: numpy's fixed per-call overhead.
_SCALAR_PREFIX = 16

#: Initial / maximum vectorized chunk length (steps).  Chunks double,
#: so a long failure-free epoch costs O(log n) numpy calls.
_CHUNK = 256
_CHUNK_MAX = 8192

#: Cycle-budget windows whose closed-form budget trip lies fewer than
#: this many steps ahead run fully scalar: the budget caps the window
#: length exactly, so short-interval policies (spendthrift's
#: check_interval) never pay any vectorization overhead at all.  An
#: *absorbing* budget kernel bypasses this gate — its trips renew
#: in-array, so the budget no longer caps the window.
_GM2_MIN_SPAN = 192

#: Payoff probation: after this many vectorized phases, if the average
#: steps committed beyond the scalar prefix is below ``_ADAPT_MIN_GAIN``
#: the executor steps aside — workloads whose windows break
#: structurally every few dozen steps (byte-heavy traces, frequent
#: misses) degrade to exactly the scalar path.  Probation is
#: *recoverable*: a failed batch only benches the vectorized scan for
#: ``_ADAPT_COOLOFF`` scalar windows, doubling up to
#: ``_ADAPT_MAX_COOLOFF`` on each consecutive failure (a successful
#: batch resets the backoff).  Window regimes are bursty — a
#: convolution row of clustered misses must not permanently disable
#: vectorization for the long failure-free rows after it, while a
#: genuinely short-window run retries only ~24 windows per 2048, under
#: 2% overhead.
_ADAPT_PHASES = 24
_ADAPT_MIN_GAIN = 256
_ADAPT_COOLOFF = 48
_ADAPT_MAX_COOLOFF = 2048

#: Spans with at most this many memops apply their side effects with
#: the scalar per-op loop — the np.unique net-effect machinery only
#: wins on long runs.
_SCALAR_EFFECTS = 160

#: Affordability rank by charge slot within a step: slot 0 is the
#: access (or non-memory step) charge (rank 1), slot 1 the hit (or
#: overhead) charge (rank 3), slot 2 the hit-overhead charge (rank 4).
_SLOT_RANK = (1, 3, 4)

#: In-image script cache entries (per (geometry, cost-table) key).
#: Sized for a full arch × policy sweep: each (arch, policy) pair uses
#: up to two scripts per benchmark (the forward and overhead loops
#: carry different cost tables), so a fig10-style 2×3 grid needs 12
#: live entries — a cap below that thrashes on every run.
_IMAGE_CACHE_CAP = 32


def compiled_enabled():
    """Whether compiled-epoch windows are on
    (``REPRO_REPLAY_COMPILED=0`` disables them process-wide)."""
    return os.environ.get("REPRO_REPLAY_COMPILED", "1") not in ("0", "")


class EpochScript:
    """Precompiled arrays lowering one trace for one (geometry, cost).

    Everything the vectorized window consumes, derived once from
    :meth:`ReplayImage.span_tables` / ``span_support`` /
    ``span_geometry`` and shared by every replay of the sweep:

    * ``starts`` / ``flat`` — flat per-charge energy stream
      (``starts[k]`` is the offset of step ``k``'s first charge);
    * ``estep`` — flat index of each step's *last* charge (the
      post-step energy lives there after an accumulate);
    * ``fwd_starts`` / ``fwd_flat`` — the forward-ledger subset of the
      charge stream (equal to ``starts``/``flat`` when there is no
      overhead ledger);
    * ``ovh_add`` — per-step overhead-ledger increment (or None);
    * ``cyc_cum`` — exact int64 prefix sum of per-step cycles (with
      the +1 hit bonus), for closed-form guard-budget trips;
    * ``mprefix`` / ``mpos`` — memop counts before each step / step
      position of each memop;
    * ``blk`` / ``is_byte`` / ``is_store`` / ``store_prefix`` /
      ``sidx`` / ``word`` / ``val`` — per-memop geometry and payload.
    """

    __slots__ = (
        "steps", "nblocks", "wpb", "ovh",
        "starts", "flat", "estep", "fwd_starts", "fwd_flat", "ovh_add",
        "cyc_cum", "cyc_cum_py", "mprefix", "mpos",
        "blk", "is_byte", "is_store", "store_prefix", "sidx", "word",
        "val",
    )

    @classmethod
    def build(cls, image, geom_key, cost_key):
        """Lower ``image`` for one (geometry, cost-table) pair."""
        block_mask, set_shift, set_mask = geom_key
        (step_energy, access_amount, hit_amount,
         overhead_leak, hit_ovh) = cost_key
        starts, flat, ovh_add = image.span_tables(
            step_energy, access_amount, hit_amount, overhead_leak, hit_ovh
        )
        support = image.span_support()
        mprefix, cycb, is_mem = support[0], support[1], support[2]
        mpos = support[5]
        geom = image.span_geometry(block_mask, set_shift, set_mask)
        n = image.steps
        script = cls()
        script.steps = n
        script.nblocks = geom["nblocks"]
        script.wpb = (int(block_mask) + 1) >> 2
        script.ovh = overhead_leak is not None
        script.starts = starts
        script.flat = flat
        script.estep = starts[1:] - 1
        script.ovh_add = ovh_add
        if overhead_leak is None:
            script.fwd_starts = starts
            script.fwd_flat = flat
        else:
            # Forward-ledger charges only: non-memory steps contribute
            # their step charge, memory hits (access, hit) — the
            # overhead slot is a separate ledger.  Values are copied
            # out of ``flat``, so they are the simulator's bit for bit.
            per = np.where(is_mem, 2, 1)
            fwd_starts = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(per, out=fwd_starts[1:])
            fwd_flat = np.empty(int(fwd_starts[n]), dtype=np.float64)
            nm = fwd_starts[:-1][~is_mem]
            mm = fwd_starts[:-1][is_mem]
            fwd_flat[nm] = flat[starts[:-1][~is_mem]]
            fwd_flat[mm] = access_amount
            fwd_flat[mm + 1] = hit_amount
            script.fwd_starts = fwd_starts
            script.fwd_flat = fwd_flat
        cyc_cum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(cycb, out=cyc_cum[1:])
        script.cyc_cum = cyc_cum
        script.cyc_cum_py = None
        script.mprefix = mprefix
        script.mpos = mpos
        script.blk = geom["blk"]
        script.is_byte = geom["is_byte"]
        script.is_store = geom["is_store"]
        script.store_prefix = geom["store_prefix"]
        script.sidx = geom["sidx"]
        script.word = geom["word"]
        script.val = geom["val"]
        return script


# --------------------------------------------------------- script LRU
def fetch_script(image, geom_key, cost_key):
    """The script ``image`` already holds for one (geometry, cost)
    pair, or None; a hit is refreshed in the image's LRU."""
    cache = image._epoch_scripts
    key = (geom_key, cost_key)
    script = cache.get(key)
    if script is not None:
        cache[key] = cache.pop(key)
    return script


def get_script(image, geom_key, cost_key):
    """Fetch-or-build the epoch script for one (geometry, cost) pair.

    Scripts are derived in memory from the image and kept in a small
    per-image LRU (sweeps re-enter with the same few cost tables); a
    miss lowers a fresh one.  Lowering costs about as much as one
    short replay, far less than writing the arrays out would.
    """
    script = fetch_script(image, geom_key, cost_key)
    if script is None:
        script = EpochScript.build(image, geom_key, cost_key)
        cache = image._epoch_scripts
        if len(cache) >= _IMAGE_CACHE_CAP:
            cache.pop(next(iter(cache)))
        cache[(geom_key, cost_key)] = script
    return script


# ------------------------------------------------------------ executor
class CompiledSpanState(_SpanState):
    """Quantum-window executor that batches failure-free epochs.

    A drop-in for ``_SpanState``: same constructor (plus an optional
    guard ``kernel`` and ``stats`` sink), same ``window`` contract,
    same bookkeeping hooks (``note_memop`` / ``rescan_set`` /
    ``note_backup`` are inherited).  ``window`` runs a short scalar
    prefix (cheap for the short windows that dominate at guard entry),
    then scans the remaining steps in doubling chunks of array ops,
    committing whole hit runs at once and dropping back to scalar
    semantics only at the single breaking step — which, exactly like
    the scalar loop, is never committed.  With an absorbing guard
    kernel the scan additionally renews the policy's guard in-array
    (:meth:`_window_floor` / :meth:`_window_budget`), so windows span
    whole active periods instead of breaking at every renewal.
    """

    __slots__ = ("script", "_res_bm", "_dirty_bm",
                 "_phases", "_gain", "_vec_off", "_cooloff", "_backoff",
                 "_gk_floor", "_gk_budget", "stats")

    def __init__(self, image, arch, jstatic, dirty_reorder,
                 step_energy, access_amount, hit_amount,
                 overhead_leak=None, hit_ovh=None,
                 kernel=None, stats=None):
        super().__init__(
            image, arch, jstatic, dirty_reorder,
            step_energy, access_amount, hit_amount,
            overhead_leak, hit_ovh,
        )
        sets, shift, smask = arch._set_geom
        self.script = get_script(
            image,
            (int(arch._block_mask), shift, smask),
            (step_energy, access_amount, hit_amount,
             overhead_leak, hit_ovh),
        )
        nblocks = self.script.nblocks
        self._res_bm = np.zeros(nblocks, dtype=bool)
        self._dirty_bm = np.zeros(nblocks, dtype=bool)
        self._phases = 0
        self._gain = 0
        self._vec_off = False
        self._cooloff = 0
        self._backoff = _ADAPT_COOLOFF
        self.stats = stats
        # Guard kernels only engage where their closed form is exact:
        # a floor kernel needs the event-revoked static-floor regime
        # with no reorder hazards (the estimate must be invariant under
        # the LRU promotions a committed hit run performs); an
        # absorbing budget kernel works in any cycle-budget window.
        self._gk_floor = None
        self._gk_budget = None
        if kernel is not None and getattr(kernel, "absorbs", False):
            if kernel.kind == "floor" and jstatic and not dirty_reorder:
                self._gk_floor = kernel
            elif kernel.kind == "budget":
                self._gk_budget = kernel

    # ------------------------------------------------ shared plumbing
    def _fill_bitmaps(self, with_dirty):
        """Residency (and optionally dirtiness) bitmaps over block ids.

        Both are static between breaks — misses end the window, and
        dirtiness only changes at absorbed events, which update the
        bitmap in place.  O(cache lines); called after the scalar
        prefix so its committed stores are reflected.
        """
        line_of = self.line_of
        res = self._res_bm
        res[:] = False
        if line_of:
            res[np.fromiter(line_of.keys(), dtype=np.int64,
                            count=len(line_of))] = True
        if not with_dirty:
            return res, None
        dirty = self._dirty_bm
        dirty[:] = False
        dirty_bids = [bid for bid, line in line_of.items() if line.dirty]
        if dirty_bids:
            dirty[dirty_bids] = True
        return res, dirty

    def _chunk_events(self, blk, bad, dirty, m0):
        """First store per clean resident block among a chunk's memops.

        These are the dirty-set events a guard kernel renews at:
        chronological ``(step, block)`` pairs, one per block (a block's
        later stores find it already dirty).  ``bad`` masks the memops
        that break structurally — a store at or past the break is
        never reached, and the caller bounds the walk by the break
        step anyway.
        """
        script = self.script
        ev = script.is_store[m0:m0 + len(blk)] & ~bad & ~dirty[blk]
        if not ev.any():
            return None, None
        eoff = np.nonzero(ev)[0]
        ebv = blk[eoff]
        _, fi = np.unique(ebv, return_index=True)
        fi.sort()
        eoff = eoff[fi]
        esteps = script.mpos[m0 + eoff].tolist()
        eblks = ebv[fi].tolist()
        return esteps, eblks

    def _phase_end(self, phase_start, k, fwd_pending, ovh_pending,
                   wextra, wloads, wstores):
        """Deferred ledger pendings and memory side effects over the
        whole committed phase, in one pass each — plus the payoff
        probation that turns the vectorized scan off when windows keep
        breaking right after the scalar prefix."""
        script = self.script
        if k > phase_start:
            f0 = int(script.fwd_starts[phase_start])
            f1 = int(script.fwd_starts[k])
            fbuf = np.empty(f1 - f0 + 1)
            fbuf[0] = fwd_pending
            fbuf[1:] = script.fwd_flat[f0:f1]
            np.add.accumulate(fbuf, out=fbuf)
            fwd_pending = float(fbuf[-1])
            if script.ovh:
                obuf = np.empty(k - phase_start + 1)
                obuf[0] = ovh_pending
                obuf[1:] = script.ovh_add[phase_start:k]
                np.add.accumulate(obuf, out=obuf)
                ovh_pending = float(obuf[-1])
            ma = int(script.mprefix[phase_start])
            mz = int(script.mprefix[k])
            if mz > ma:
                stores = int(
                    script.store_prefix[mz] - script.store_prefix[ma]
                )
                wextra += mz - ma
                wstores += stores
                wloads += (mz - ma) - stores
                self._apply_effects(ma, mz)
        st = self.stats
        if st is not None:
            st.compiled_windows += 1
            st.compiled_steps += k - phase_start
        # Payoff probation: evaluated on every batch of phases (not
        # once) — runs often open with a few long windows before
        # settling into a short-window regime.
        self._gain += k - phase_start
        self._phases += 1
        if self._phases == _ADAPT_PHASES:
            if self._gain < _ADAPT_PHASES * _ADAPT_MIN_GAIN:
                self._vec_off = True
                self._cooloff = self._backoff
                self._backoff = min(self._backoff * 4, _ADAPT_MAX_COOLOFF)
            else:
                self._backoff = _ADAPT_COOLOFF
            self._phases = 0
            self._gain = 0
        return fwd_pending, ovh_pending, wextra, wloads, wstores

    def _note(self, reason):
        st = self.stats
        if st is not None:
            st.note_fallback(reason)

    # ------------------------------------------------------- dispatch
    def window(self, k, stop, gmode, energy, fwd_pending, ovh_pending,
               floor, growth, skipped, budget):
        if self._vec_off:
            self._cooloff -= 1
            if self._cooloff > 0:
                self._note("probation")
                return _SpanState.window(
                    self, k, stop, gmode, energy, fwd_pending, ovh_pending,
                    floor, growth, skipped, budget,
                )
            self._vec_off = False  # cooloff served: re-probe
        script = self.script
        jb = stop
        if gmode == 2:
            if self._gk_budget is not None:
                return self._window_budget(
                    k, stop, energy, fwd_pending, ovh_pending,
                    floor, growth, skipped, budget,
                )
            # The budget trip is closed-form: the first step whose
            # exact int64 skipped-cycle total reaches the budget
            # (guard_trip_step).  Its target is invariant under
            # commits (``skipped`` and ``cyc_cum`` advance in
            # lockstep), so one bisect at window entry holds for the
            # scalar prefix and every later chunk.  A budget that
            # trips only a few dozen steps ahead caps the window
            # there — run it fully scalar.
            remaining = budget - skipped
            if remaining < _GM2_MIN_SPAN:
                # Every step costs at least one cycle, so the trip is
                # closer than the vector threshold — no lookup needed.
                self._note("tight_budget")
                return _SpanState.window(
                    self, k, stop, gmode, energy, fwd_pending,
                    ovh_pending, floor, growth, skipped, budget,
                )
            cyc_cum = script.cyc_cum_py
            if cyc_cum is None:
                # Plain-int prefix sums: ``bisect`` beats
                # ``searchsorted`` for the one lookup every
                # cycle-budget window performs.  Materialized on the
                # first budget window so floor-guard policies never
                # pay the conversion.
                cyc_cum = script.cyc_cum_py = script.cyc_cum.tolist()
            jb = guard_trip_step(cyc_cum, k, skipped, budget)
            if jb - k < _GM2_MIN_SPAN:
                self._note("tight_budget")
                return _SpanState.window(
                    self, k, stop, gmode, energy, fwd_pending,
                    ovh_pending, floor, growth, skipped, budget,
                )
        elif self._gk_floor is not None:
            return self._window_floor(
                k, stop, energy, fwd_pending, ovh_pending,
                floor, growth, skipped, budget,
            )
        prefix_stop = k + _SCALAR_PREFIX
        if prefix_stop >= stop:
            self._note("short_window")
            return _SpanState.window(
                self, k, stop, gmode, energy, fwd_pending, ovh_pending,
                floor, growth, skipped, budget,
            )
        out = _SpanState.window(
            self, k, prefix_stop, gmode, energy, fwd_pending,
            ovh_pending, floor, growth, skipped, budget,
        )
        if out[0] < prefix_stop:
            self._note("prefix_break")
            return out
        (k, energy, fwd_pending, ovh_pending, floor, skipped, budget,
         wextra, wloads, wstores, _revoke) = out

        starts = script.starts
        flat = script.flat
        estep = script.estep
        mprefix = script.mprefix
        jstatic = self.jstatic and gmode != 2
        res, dirty = self._fill_bitmaps(jstatic)
        if jstatic:
            check_hz = self.dirty_reorder
            hz_bm = self.hz_bm
        phase_start = k
        rank = 9
        chunk = _CHUNK
        while k < stop:
            ce = k + chunk
            if ce > stop:
                ce = stop
            if chunk < _CHUNK_MAX:
                chunk *= 2
            # ---- structural break: first byte op / miss / clean
            # store / reorder hazard among the chunk's memops.
            m0 = int(mprefix[k])
            m1 = int(mprefix[ce])
            bstep = ce
            brank = 9
            if m1 > m0:
                blk = script.blk[m0:m1]
                bad = script.is_byte[m0:m1] | ~res[blk]
                if jstatic:
                    dirty_at = dirty[blk]
                    bad |= script.is_store[m0:m1] & ~dirty_at
                    if check_hz:
                        bad |= dirty_at & hz_bm[blk]
                if bad.any():
                    mb = m0 + int(np.argmax(bad))
                    bstep = int(script.mpos[mb])
                    bid = int(script.blk[mb])
                    if script.is_byte[mb]:
                        brank = 0
                    elif not res[bid]:
                        brank = 2
                    elif script.is_store[mb] and not dirty[bid]:
                        brank = 6
                    else:
                        brank = 7
            # The energy scan covers the earliest break candidate's own
            # step too — its charges are checked before it breaks.
            cap = min(ce, bstep + 1, jb + 1)
            c0 = int(starts[k])
            c1 = int(starts[cap])
            buf = np.empty(c1 - c0 + 1)
            buf[0] = energy
            buf[1:] = flat[c0:c1]
            np.subtract.accumulate(buf, out=buf)
            series = buf[1:]
            astep = cap
            arank = 9
            if series[-1] < 0.0:
                # Charges are non-negative so the series is
                # non-increasing; a negative tail pins the first
                # unaffordable charge (fl(e - a) < 0 iff e < a).
                ci = int(np.argmax(series < 0.0))
                astep = int(
                    np.searchsorted(starts, c0 + ci, side="right")
                ) - 1
                arank = _SLOT_RANK[c0 + ci - int(starts[astep])]
            fstep = cap
            grown = None
            if gmode != 2:
                # The last element of ``series`` is the chunk's final
                # post-step energy — its minimum, since charges are
                # non-negative.  A static (or non-decreasing grown)
                # floor therefore trips somewhere in the chunk iff it
                # tops that minimum, so one scalar compare gates the
                # whole per-step gather.
                if jstatic:
                    if series[-1] <= floor:
                        post = series[estep[k:cap] - c0]
                        fstep = k + int(np.argmax(post <= floor))
                else:
                    fbuf = np.empty(cap - k + 1)
                    fbuf[0] = floor
                    fbuf[1:] = growth
                    np.add.accumulate(fbuf, out=fbuf)
                    grown = fbuf[1:]
                    if growth < 0.0 or series[-1] <= grown[-1]:
                        post = series[estep[k:cap] - c0]
                        fm = post <= grown
                        if fm.any():
                            fstep = k + int(np.argmax(fm))
            # ---- winner: earliest step, ties by the simulator's
            # within-step check order (the rank numbers).
            wstep, wrank = astep, arank
            if fstep < wstep:
                wstep, wrank = fstep, 5
            if bstep < wstep or (bstep == wstep and brank < wrank):
                wstep, wrank = bstep, brank
            if jb < cap and jb < wstep:
                wstep, wrank = jb, 5
            # ---- commit the failure-free run [k, wstep)
            if wstep > k:
                energy = float(series[int(estep[wstep - 1]) - c0])
                if gmode == 2:
                    skipped += int(cyc_cum[wstep] - cyc_cum[k])
                elif grown is not None:
                    floor = float(grown[wstep - 1 - k])
                k = wstep
            if wrank != 9:
                rank = wrank
                break

        (fwd_pending, ovh_pending, wextra, wloads,
         wstores) = self._phase_end(
            phase_start, k, fwd_pending, ovh_pending,
            wextra, wloads, wstores,
        )
        revoke = self.jstatic and rank in (0, 2, 5, 6, 7)
        return (k, energy, fwd_pending, ovh_pending, floor, skipped,
                budget, wextra, wloads, wstores, revoke)

    # ------------------------------------------- floor-kernel windows
    def _window_floor(self, k, stop, energy, fwd_pending, ovh_pending,
                      floor, growth, skipped, budget):
        """Static-floor window with in-array guard renewal (JIT).

        Between dirty-set events the floor is constant, so the scalar
        loop's per-step test is the gathered post-step energy against
        one scalar.  At each event — the first store to a clean
        resident block — the scalar path breaks (rank 6), re-executes
        the store and re-grants a guard at the fresh threshold; here
        the kernel computes that exact threshold from the running
        (dirty, probes) counts and the window keeps going, unless the
        event's post-charge energy no longer clears it (decide() would
        SHUTDOWN) — then the event breaks uncommitted, exactly like
        the scalar path.
        """
        script = self.script
        prefix_stop = k + _SCALAR_PREFIX
        if prefix_stop >= stop:
            self._note("short_window")
            return _SpanState.window(
                self, k, stop, 1, energy, fwd_pending, ovh_pending,
                floor, growth, skipped, budget,
            )
        out = _SpanState.window(
            self, k, prefix_stop, 1, energy, fwd_pending, ovh_pending,
            floor, growth, skipped, budget,
        )
        if out[0] < prefix_stop:
            self._note("prefix_break")
            return out
        (k, energy, fwd_pending, ovh_pending, floor, skipped, budget,
         wextra, wloads, wstores, _revoke) = out

        gk = self._gk_floor
        starts = script.starts
        flat = script.flat
        estep = script.estep
        mprefix = script.mprefix
        line_of = self.line_of
        res, dirty = self._fill_bitmaps(True)
        # Span-static cost state, anchored once per window *after* the
        # scalar prefix (its stores are already live on the cache).
        d_cnt, p_cnt = gk.anchor()
        need_pd = gk.needs_probes
        absorbed = 0
        phase_start = k
        rank = 9
        chunk = _CHUNK
        while k < stop:
            ce = k + chunk
            if ce > stop:
                ce = stop
            if chunk < _CHUNK_MAX:
                chunk *= 2
            # Structural breaks: byte ops and misses only — clean
            # stores are the events the kernel absorbs (reorder
            # hazards cannot arise: the kernel is gated on
            # reorder-insensitive estimates).
            m0 = int(mprefix[k])
            m1 = int(mprefix[ce])
            bstep = ce
            brank = 9
            esteps = eblks = None
            if m1 > m0:
                blk = script.blk[m0:m1]
                bad = script.is_byte[m0:m1] | ~res[blk]
                if bad.any():
                    mb = m0 + int(np.argmax(bad))
                    bstep = int(script.mpos[mb])
                    brank = 0 if script.is_byte[mb] else 2
                esteps, eblks = self._chunk_events(blk, bad, dirty, m0)
            cap = min(ce, bstep + 1)
            c0 = int(starts[k])
            c1 = int(starts[cap])
            buf = np.empty(c1 - c0 + 1)
            buf[0] = energy
            buf[1:] = flat[c0:c1]
            np.subtract.accumulate(buf, out=buf)
            series = buf[1:]
            astep = cap
            arank = 9
            if series[-1] < 0.0:
                ci = int(np.argmax(series < 0.0))
                astep = int(
                    np.searchsorted(starts, c0 + ci, side="right")
                ) - 1
                arank = _SLOT_RANK[c0 + ci - int(starts[astep])]
            # Events at or past the earliest break candidate are never
            # reached; the post-step energies before it are genuine
            # (every charge up to there was affordable).
            lim = min(astep, bstep)
            fstep = -1
            post = None
            if esteps is not None or series[-1] <= floor:
                post = series[estep[k:cap] - c0]
            seg = k
            if esteps is not None:
                for esp, ebid in zip(esteps, eblks):
                    if esp >= lim:
                        break
                    e_ev = float(post[esp - k])
                    if e_ev <= floor:
                        # The current floor trips at or before the
                        # event (post is non-increasing, so the first
                        # crossing in [seg, esp] is exact).
                        fstep = seg + int(np.argmax(
                            post[seg - k: esp - k + 1] <= floor
                        ))
                        break
                    pd = (gk.probe_delta(line_of[ebid].block_addr)
                          if need_pd else 0)
                    nfloor = gk.floor(d_cnt + 1, p_cnt + pd)
                    if e_ev <= nfloor:
                        # Decline: the fresh threshold is no longer
                        # cleared — break uncommitted at the event;
                        # the scalar decide() re-runs the same test
                        # and takes the SHUTDOWN.
                        fstep = esp
                        break
                    # Absorb: commit the event in-array and renew the
                    # floor to exactly the re-granted threshold.
                    floor = nfloor
                    d_cnt += 1
                    p_cnt += pd
                    dirty[ebid] = True
                    absorbed += 1
                    seg = esp + 1
            if fstep < 0 and post is not None and seg < cap:
                tail = post[seg - k:]
                if tail[-1] <= floor:
                    fstep = seg + int(np.argmax(tail <= floor))
            wstep, wrank = astep, arank
            if 0 <= fstep < wstep:
                wstep, wrank = fstep, 5
            if bstep < wstep or (bstep == wstep and brank < wrank):
                wstep, wrank = bstep, brank
            if wstep > k:
                energy = float(series[int(estep[wstep - 1]) - c0])
                k = wstep
            if wrank != 9:
                rank = wrank
                break

        (fwd_pending, ovh_pending, wextra, wloads,
         wstores) = self._phase_end(
            phase_start, k, fwd_pending, ovh_pending,
            wextra, wloads, wstores,
        )
        st = self.stats
        if st is not None:
            st.absorbed_floor += absorbed
        revoke = rank in (0, 2, 5, 6, 7)
        return (k, energy, fwd_pending, ovh_pending, floor, skipped,
                budget, wextra, wloads, wstores, revoke)

    # ------------------------------------------ budget-kernel windows
    def _window_budget(self, k, stop, energy, fwd_pending, ovh_pending,
                       floor, growth, skipped, budget):
        """Cycle-budget window with in-array renewal (Spendthrift).

        Each budget trip is a closed-form ``guard_trip_step`` lookup;
        at the trip the kernel replicates the scalar ``resync +
        decide`` pair from the trip step's post-charge energy and the
        running (dirty, probes) counts — the stores committed so far
        are folded in first, since the scalar decide() runs after the
        trip step executes.  A passing check renews the budget and the
        scan continues; a declining one breaks uncommitted at the trip
        step and the scalar decide() takes the SHUTDOWN itself.
        """
        script = self.script
        cyc_cum = script.cyc_cum_py
        if cyc_cum is None:
            cyc_cum = script.cyc_cum_py = script.cyc_cum.tolist()
        prefix_stop = k + _SCALAR_PREFIX
        if prefix_stop >= stop:
            self._note("short_window")
            return _SpanState.window(
                self, k, stop, 2, energy, fwd_pending, ovh_pending,
                floor, growth, skipped, budget,
            )
        out = _SpanState.window(
            self, k, prefix_stop, 2, energy, fwd_pending, ovh_pending,
            floor, growth, skipped, budget,
        )
        if out[0] < prefix_stop:
            self._note("prefix_break")
            return out
        (k, energy, fwd_pending, ovh_pending, floor, skipped, budget,
         wextra, wloads, wstores, _revoke) = out

        gk = self._gk_budget
        starts = script.starts
        flat = script.flat
        estep = script.estep
        mprefix = script.mprefix
        line_of = self.line_of
        res, dirty = self._fill_bitmaps(True)
        d_cnt, p_cnt = gk.anchor()
        need_pd = gk.needs_probes
        # ``skipped`` decomposes as skip0 + cycles of the committed
        # steps since the last renewal (trip_anchor) — both advance in
        # lockstep with cyc_cum, so each trip lookup is one bisect.
        trip_anchor = k
        skip0 = skipped
        absorbed = 0
        phase_start = k
        rank = 9
        chunk = _CHUNK
        while k < stop:
            ce = k + chunk
            if ce > stop:
                ce = stop
            if chunk < _CHUNK_MAX:
                chunk *= 2
            # Structural breaks: byte ops and misses (stores to clean
            # resident lines commit freely in cycle-budget windows;
            # they are tracked as events only to keep the kernel's
            # dirty/probe counts current).
            m0 = int(mprefix[k])
            m1 = int(mprefix[ce])
            bstep = ce
            brank = 9
            esteps = eblks = None
            if m1 > m0:
                blk = script.blk[m0:m1]
                bad = script.is_byte[m0:m1] | ~res[blk]
                if bad.any():
                    mb = m0 + int(np.argmax(bad))
                    bstep = int(script.mpos[mb])
                    brank = 0 if script.is_byte[mb] else 2
                esteps, eblks = self._chunk_events(blk, bad, dirty, m0)
            cap = min(ce, bstep + 1)
            c0 = int(starts[k])
            c1 = int(starts[cap])
            buf = np.empty(c1 - c0 + 1)
            buf[0] = energy
            buf[1:] = flat[c0:c1]
            np.subtract.accumulate(buf, out=buf)
            series = buf[1:]
            astep = cap
            arank = 9
            if series[-1] < 0.0:
                ci = int(np.argmax(series < 0.0))
                astep = int(
                    np.searchsorted(starts, c0 + ci, side="right")
                ) - 1
                arank = _SLOT_RANK[c0 + ci - int(starts[astep])]
            lim = min(astep, bstep)
            n_ev = len(esteps) if esteps is not None else 0
            ev_i = 0
            tstep = -1
            while True:
                jb = guard_trip_step(cyc_cum, trip_anchor, skip0, budget)
                if jb >= lim:
                    break  # trips after a break candidate: not ours
                # Fold the stores committed up to (and including) the
                # trip step into the cost counts — the scalar decide()
                # runs after the trip step executes.
                while ev_i < n_ev and esteps[ev_i] <= jb:
                    ebid = eblks[ev_i]
                    d_cnt += 1
                    if need_pd:
                        p_cnt += gk.probe_delta(line_of[ebid].block_addr)
                    dirty[ebid] = True
                    ev_i += 1
                e_post = float(series[int(estep[jb]) - c0])
                nb = gk.trip(
                    e_post,
                    skip0 + (cyc_cum[jb + 1] - cyc_cum[trip_anchor]),
                    d_cnt, p_cnt,
                )
                if nb is None:
                    # Decline: break uncommitted at the trip step; the
                    # scalar decide() redraws the identical check (the
                    # kernel rewound any RNG state) and shuts down.
                    # Counts folded for this step die with the window.
                    tstep = jb
                    break
                absorbed += 1
                budget = nb
                trip_anchor = jb + 1
                skip0 = 0
            wstep, wrank = astep, arank
            if bstep < wstep or (bstep == wstep and brank < wrank):
                wstep, wrank = bstep, brank
            if tstep >= 0:
                # A declined trip precedes every other candidate
                # (the trip loop only ran while jb < lim).
                wstep, wrank = tstep, 5
            # Fold the remaining committed stores so the next chunk's
            # trips see current counts.
            while ev_i < n_ev and esteps[ev_i] < wstep:
                ebid = eblks[ev_i]
                d_cnt += 1
                if need_pd:
                    p_cnt += gk.probe_delta(line_of[ebid].block_addr)
                dirty[ebid] = True
                ev_i += 1
            if wstep > k:
                energy = float(series[int(estep[wstep - 1]) - c0])
                k = wstep
            if wrank != 9:
                rank = wrank
                break

        skipped = skip0 + (cyc_cum[k] - cyc_cum[trip_anchor])
        (fwd_pending, ovh_pending, wextra, wloads,
         wstores) = self._phase_end(
            phase_start, k, fwd_pending, ovh_pending,
            wextra, wloads, wstores,
        )
        st = self.stats
        if st is not None:
            st.absorbed_budget += absorbed
        return (k, energy, fwd_pending, ovh_pending, floor, skipped,
                budget, wextra, wloads, wstores, False)

    def _apply_effects(self, ma, mz):
        """Apply the net memory side effects of committed hits [ma, mz).

        Every committed memop is a hit on a resident line, so the
        sequential per-step effects reduce to per-(block, word) net
        effects — first-touch word states, last-store values, dirty
        flags — plus one LRU reorder per touched set (touched lines by
        last access, most recent first; untouched lines keep their
        relative order).  Python work is bounded by the cache size,
        not the run length.
        """
        script = self.script
        if mz - ma <= _SCALAR_EFFECTS:
            # Short runs: the scalar per-op commit (identical to the
            # scalar window's hit path) beats the unique/argsort
            # machinery below.
            mstep = self.mstep
            line_of = self.line_of
            sets = self.sets
            for p in script.mpos[ma:mz].tolist():
                kind, bid, sx, w, val, _off, _addr = mstep[p]
                line = line_of[bid]
                states = line.meta.states
                if kind:
                    if states[w] == _UNKNOWN:
                        states[w] = _WRITE
                    line.words[w] = val
                    line.dirty = True
                else:
                    if states[w] == _UNKNOWN:
                        states[w] = _READ
                lines = sets[sx]
                if lines[0] is not line:
                    lines.remove(line)
                    lines.insert(0, line)
            return
        wpb = script.wpb
        blk = script.blk[ma:mz]
        word = script.word[ma:mz]
        stores = script.is_store[ma:mz]
        line_of = self.line_of
        keys = blk * wpb + word
        uniq, first = np.unique(keys, return_index=True)
        first_is_store = stores[first]
        for key, is_store in zip(uniq.tolist(), first_is_store.tolist()):
            line = line_of[key // wpb]
            w = key % wpb
            states = line.meta.states
            if states[w] == _UNKNOWN:
                states[w] = _WRITE if is_store else _READ
        if stores.any():
            skeys = keys[stores][::-1]
            svals = script.val[ma:mz][stores][::-1]
            ukeys, last = np.unique(skeys, return_index=True)
            for key, value in zip(ukeys.tolist(), svals[last].tolist()):
                line = line_of[key // wpb]
                line.words[key % wpb] = value
                line.dirty = True
        # LRU: per touched set, promoted lines in recency order.
        rblk = blk[::-1]
        ublk, rlast = np.unique(rblk, return_index=True)
        last_pos = (len(blk) - 1) - rlast
        order = np.argsort(-last_pos)
        sidx = script.sidx[ma:mz]
        touched = {}
        for i in order.tolist():
            sx = int(sidx[int(last_pos[i])])
            bucket = touched.get(sx)
            if bucket is None:
                touched[sx] = bucket = []
            bucket.append(int(ublk[i]))
        sets = self.sets
        for sx, bids in touched.items():
            lines = sets[sx]
            promoted = [line_of[bid] for bid in bids]
            ids = set(map(id, promoted))
            rest = [line for line in lines if id(line) not in ids]
            lines[:] = promoted + rest
