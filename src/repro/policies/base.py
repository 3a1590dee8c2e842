"""Backup-policy interface."""

from bisect import bisect_left
from typing import NamedTuple


class TunableSpec(NamedTuple):
    """One tunable policy parameter and its sweep grid.

    Declared as class attributes on each :class:`BackupPolicy`
    subclass (``tunables``); the Pareto auto-tuner
    (:mod:`repro.analysis.pareto`) reads these declarations to build
    its threshold sweep grids, and applies each value through
    ``PlatformConfig.policy_kwargs`` — so a tunable's ``name`` must be
    a keyword the policy's ``__init__`` accepts.
    """

    #: Keyword name in the policy constructor / ``policy_kwargs``.
    name: str
    #: The hand-picked value the paper's experiments use.
    default: object
    #: Values the auto-tuner sweeps (should include sensible extremes;
    #: need not include the default — it is always evaluated).
    grid: tuple
    #: One line on what the knob trades off.
    description: str


class PolicyAction:
    """What the policy wants after an instruction retires."""

    NONE = "none"
    #: Back up now and keep executing (watchdog style).
    BACKUP = "backup"
    #: Back up now and end the active period (JIT / predictive style):
    #: the device sleeps until the capacitor recharges.
    SHUTDOWN = "shutdown"


class GuardKernel:
    """Declarative closed-form guard renewal for compiled replay.

    A policy whose quantum-guard renewal (see :meth:`BackupPolicy.
    decide`) is closed-form array math over the recorded trace may
    return one of these from :meth:`BackupPolicy.compile_guard`.  The
    compiled span scanner (:mod:`repro.sim.epochs`) then renews the
    guard *in-array* — instead of breaking the window back to the
    scalar loop at every renewal — while remaining bit-identical to
    the scalar decide() sequence it replaces.

    ``kind`` names the guard family:

    * ``"floor"`` — an energy floor that is static between dirty-set
      events (``guard_event_revoke``).  The kernel must expose
      ``anchor() -> (dirty, probes)`` (capture span-static cost state
      from the live architecture; counts of dirty lines / map probes),
      ``floor(dirty, probes) -> float`` (the exact threshold decide()
      would compute at those counts — same float chain), and
      ``probe_delta(block_addr) -> int`` (extra probe count if this
      clean block were dirtied; consulted only when ``needs_probes``).
      The executor walks dirty-set events in-array: at each first
      store to a clean resident block it re-anchors the floor to
      ``floor(d+1, p+probe_delta)`` exactly as a revoke + fresh
      decide() would, or breaks (uncommitted) when the post-charge
      energy no longer clears the new floor — the scalar general body
      then re-executes the event and decide() returns SHUTDOWN.

    * ``"budget"`` — a periodic cycle budget.  If ``absorbs`` is True
      the kernel must expose ``anchor()`` / ``probe_delta`` as above
      plus ``trip(energy, skipped_cycles, dirty, probes) -> int |
      None``: replicate the policy's periodic check at an in-array
      budget trip (post-charge energy of the tripping step, total
      cycles skipped since the guard was granted, current cost
      counts).  Return the renewed budget (cycles) when the check
      passes — the kernel must apply exactly the state mutations the
      scalar ``resync + decide`` pair would (counter reset, RNG
      draws) — or None to decline, leaving policy state untouched
      (RNG rewound): the step is then re-executed by the scalar
      general body, whose decide() reproduces the identical check.
      Non-absorbing budget kernels (``absorbs`` False) only document
      the closed form: a trip performs real architectural work (e.g.
      the watchdog's BACKUP), so the executor keeps its existing
      break-at-trip behaviour.

    * ``"boundary"`` — backups sit at known trace positions (opcode
      boundaries).  ``opcodes`` lists the trigger opcodes and
      ``note_boundary()`` applies the policy's per-retire effect; the
      replayer precomputes the sorted boundary steps from the trace
      and drops the per-instruction retire hook entirely.  Its quantum
      windows end at the next boundary, and the general body revokes
      any cycle-budget guard on a boundary step (``resync`` with the
      fully skipped cycles, then a fresh ``decide``), since the
      policy's threshold may move there.

    Executors treat any kernel as advisory: a policy/arch pair that
    cannot honour the contract returns None from ``compile_guard`` and
    the scalar path serves every renewal, bit-identically.
    """

    kind = None
    #: Whether the executor may renew this guard in-array.  False
    #: kernels are declarative only (shared closed-form helpers,
    #: testing) — the executor falls back at every renewal.
    absorbs = False
    #: Whether ``probe_delta`` must be consulted per dirty-set event
    #: (architectures whose estimate charges per map probe).
    needs_probes = False
    #: ``"boundary"`` kernels: opcodes that mark a backup boundary.
    opcodes = ()


def guard_trip_step(cyc_cum, k, skipped, budget):
    """Closed-form index of the step whose cycles trip a cycle budget.

    ``cyc_cum`` is the exact int64 per-step cycle prefix sum of the
    trace (``cyc_cum[i]`` = cycles of steps ``[0, i)``), ``k`` the
    current step, ``skipped`` the cycles already accumulated against
    ``budget``.  Returns the first step ``t >= k`` with ``skipped +
    (cyc_cum[t+1] - cyc_cum[k]) >= budget`` — exactly the step at
    which the scalar guard loop's ``skipped += cycles; skipped >=
    budget`` test first fires — or ``len(cyc_cum) - 1`` when the
    budget outlives the trace.  THE closed form the compiled executor
    uses; the Hypothesis suite pins it against the scalar loop.
    """
    target = (budget - skipped) + cyc_cum[k]
    return bisect_left(cyc_cum, target, lo=k) - 1


class BackupPolicy:
    """Decides when backups happen, based on operating conditions only.

    This is the decoupling the paper argues for: with NvMR the policy is
    free to track the environment; with Clank the program's violations
    dominate regardless of what the policy wants.
    """

    #: Declares that this policy's quantum-guard ``growth`` bound (see
    #: :meth:`decide`) is only ever *consumed* by events a trace
    #: replayer can observe directly: a cache miss, a clean line being
    #: dirtied, or a memory access outside the inlined hit path.  A
    #: replayer may then hold the guard floor static between such
    #: events — provided it revokes the guard (forcing a fresh
    #: ``decide``) whenever one occurs.  Skipped decisions stay
    #: provably ``NONE`` and extra decisions are side-effect free, so
    #: results are bit-identical either way; revoking on events instead
    #: of on conservative floor growth just consults the policy far
    #: less often.
    guard_event_revoke = False

    #: Upper bound, in cycles, on any quantum-guard budget this policy
    #: will ever issue (None = unbounded / not declared).  A replay
    #: executor uses it to size its batching: a policy whose windows
    #: are structurally capped below the vectorization breakeven (e.g.
    #: Spendthrift's ``check_interval``) gets the scalar window with
    #: zero per-window overhead instead of a compiled one that would
    #: fall back on every single call.
    quantum_budget_hint = None

    #: Tunable parameters the Pareto auto-tuner may sweep
    #: (:class:`TunableSpec` tuple); empty means nothing to tune.
    tunables = ()

    name = "base"

    def reset(self, platform):
        """Called once before a run starts."""

    def on_period_start(self, platform, conditions):
        """Called at the start of every active period.

        ``conditions`` is the trace's
        :class:`~repro.energy.traces.PeriodConditions`.
        """

    def on_backup(self, platform):
        """Called after any backup (policy-driven or structural)."""

    def after_step(self, platform, cycles):
        """Called after each retired instruction; returns a PolicyAction."""
        return PolicyAction.NONE

    def decide(self, platform, cycles):
        """Fast-run-loop entry point: ``(action, quantum_guard)``.

        ``quantum_guard`` is ``None`` or a ``(floor, growth,
        cycle_budget, resync)`` tuple that lets the loop skip consulting
        the policy while the skips are provably unobservable.  After
        each subsequent step the loop advances ``floor += growth`` and
        accumulates the step's cycles into ``skipped``; the policy stays
        skipped while **both** the post-charge capacitor energy exceeds
        ``floor`` (energy-threshold policies: the floor's growth bounds
        how fast the policy's threshold can rise) and ``skipped <
        cycle_budget`` (cycle-counter policies: every skipped decision
        would still be under the counter's period).  Either test failing
        revokes the guard: the loop calls ``resync(skipped_cycles)``
        (if not None) with the cycles of all *fully skipped* steps so a
        counter policy can catch up its state, then consults the policy
        exactly for the revoking step.  A power failure or shutdown
        drops the guard without resync (``on_period_start`` re-bases the
        policy's state, exactly as in the reference loop).

        A policy may only grant a guard when every skipped call would
        provably return :data:`PolicyAction.NONE` with no side effects
        beyond what ``resync`` reconstructs.  A guard that an
        instruction-level event can invalidate needs the caller to
        revoke it there: the task policy's budget ends at call
        boundaries, where the trace replayer revokes it (see
        :class:`~repro.policies.base.GuardKernel` ``"boundary"``).
        Policies that keep the default (user policies) are consulted
        after every instruction, exactly as the reference loop does.
        """
        return self.after_step(platform, cycles), None

    def compile_guard(self, platform):
        """Return a :class:`GuardKernel` for compiled replay, or None.

        Called once per replay run, after :meth:`reset`.  The default
        declares nothing: every guard renewal goes through the scalar
        ``decide`` path.  A policy may return a kernel only when the
        kernel's closed form is bit-identical to its scalar logic on
        this exact (platform, architecture) pair — when in doubt,
        return None; compiled replay then simply runs at PR 7 speed.
        """
        return None


class NeverPolicy(BackupPolicy):
    """No policy backups; only the architecture's structural backups.

    With a JIT-less schedule the device fails whenever the budget runs
    out, which exercises the dead-energy and restore paths — useful in
    tests, not used in the paper's experiments.
    """

    name = "never"
