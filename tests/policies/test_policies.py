"""Backup policies: JIT oracle, watchdog timer, Spendthrift MLP."""

import numpy as np
import pytest

from repro.policies import POLICIES, make_policy
from repro.policies.base import NeverPolicy, PolicyAction
from repro.policies.jit import JitPolicy
from repro.policies.spendthrift import (
    LABEL_MARGIN,
    SpendthriftPolicy,
    default_model,
    train_spendthrift_model,
)
from repro.policies.watchdog import WatchdogPolicy


class FakeArch:
    def __init__(self, backup_cost=500.0, worst_step=100.0):
        self._cost = backup_cost
        self._worst = worst_step

    def estimate_backup_cost(self):
        return self._cost

    def worst_step_cost(self):
        return self._worst


class FakeCapacitor:
    def __init__(self, energy, capacity=10_000.0):
        self.energy = energy
        self.capacity = capacity

    @property
    def fraction(self):
        return self.energy / self.capacity


class FakePlatform:
    def __init__(self, energy, backup_cost=500.0):
        self.capacitor = FakeCapacitor(energy)
        self.arch = FakeArch(backup_cost)


def test_registry_contents():
    assert set(POLICIES) == {"jit", "watchdog", "spendthrift", "task", "never"}
    with pytest.raises(ValueError):
        make_policy("nonexistent")


def test_never_policy_never_backs_up():
    policy = NeverPolicy()
    platform = FakePlatform(energy=1.0)
    assert policy.after_step(platform, 1) == PolicyAction.NONE


# ----------------------------------------------------------------- JIT
def test_jit_waits_while_plenty_of_energy():
    policy = JitPolicy()
    platform = FakePlatform(energy=5000.0)
    assert policy.after_step(platform, 1) == PolicyAction.NONE


def test_jit_shuts_down_at_threshold():
    policy = JitPolicy()
    platform = FakePlatform(energy=599.0)  # cost 500 + worst 100 = 600
    assert policy.after_step(platform, 1) == PolicyAction.SHUTDOWN


def test_jit_threshold_tracks_backup_cost():
    policy = JitPolicy()
    platform = FakePlatform(energy=900.0, backup_cost=850.0)
    assert policy.after_step(platform, 1) == PolicyAction.SHUTDOWN
    platform2 = FakePlatform(energy=900.0, backup_cost=100.0)
    assert policy.after_step(platform2, 1) == PolicyAction.NONE


def test_jit_margin_scales_the_step_pad():
    # cost 500 + margin * worst 100: margin 1 shuts down at <= 600,
    # margin 4 already at <= 900 — a wider safety margin gives up
    # earlier in the period.
    platform = FakePlatform(energy=700.0)
    assert JitPolicy().after_step(platform, 1) == PolicyAction.NONE
    assert JitPolicy(margin=4.0).after_step(platform, 1) == PolicyAction.SHUTDOWN


def test_jit_margin_default_is_bit_identical():
    # margin=1.0 must not perturb the pre-tunable threshold arithmetic
    # (the replay/differential suites pin this end to end; this pins
    # the unit-level identity).
    arch = FakeArch(backup_cost=500.0, worst_step=100.0)
    assert JitPolicy()._pad(arch) == arch.worst_step_cost()


def test_jit_margin_validation():
    with pytest.raises(ValueError):
        JitPolicy(margin=0)
    with pytest.raises(ValueError):
        JitPolicy(margin=-2.0)


# ------------------------------------------------------------ watchdog
def test_watchdog_fires_every_period():
    policy = WatchdogPolicy(period=100)
    platform = FakePlatform(energy=1e9)
    fired = 0
    for _ in range(35):
        if policy.after_step(platform, 10) == PolicyAction.BACKUP:
            fired += 1
            policy.on_backup(platform)
    assert fired == 3  # 350 cycles / ~100-cycle period


def test_watchdog_resets_on_any_backup():
    policy = WatchdogPolicy(period=100)
    platform = FakePlatform(energy=1e9)
    policy.after_step(platform, 90)
    policy.on_backup(platform)  # e.g. a structural backup
    assert policy.after_step(platform, 90) == PolicyAction.NONE
    assert policy.after_step(platform, 20) == PolicyAction.BACKUP


def test_watchdog_period_validation():
    with pytest.raises(ValueError):
        WatchdogPolicy(period=0)


def test_watchdog_resets_each_period():
    policy = WatchdogPolicy(period=100)
    platform = FakePlatform(energy=1e9)
    policy.after_step(platform, 90)
    policy.on_period_start(platform, None)
    assert policy.after_step(platform, 50) == PolicyAction.NONE


# --------------------------------------------------------- spendthrift
def test_spendthrift_training_accuracy():
    """The paper reports ~97% accuracy for the trained model."""
    _, accuracy = train_spendthrift_model(seed=42, epochs=250, samples=4000)
    assert accuracy >= 0.93


def _train_with_fresh_temporaries(seed, hidden, samples, epochs,
                                  learning_rate):
    """The original training loop, one fresh array per expression."""
    from repro.policies.spendthrift import _oracle_dataset

    rng = np.random.default_rng(seed)
    features, labels = _oracle_dataset(rng, samples)
    _oracle_dataset(rng, samples // 3)  # held-out draw, same RNG stream
    w1 = rng.normal(0.0, 0.5, (features.shape[1], hidden))
    b1 = np.zeros(hidden)
    w2 = rng.normal(0.0, 0.5, hidden)
    b2 = 0.0
    n = len(labels)
    for _ in range(epochs):
        hidden_act = np.tanh(features @ w1 + b1)
        logits = hidden_act @ w2 + b2
        probs = 1.0 / (1.0 + np.exp(-logits))
        grad_logits = (probs - labels) / n
        grad_w2 = hidden_act.T @ grad_logits
        grad_b2 = grad_logits.sum()
        grad_hidden = np.outer(grad_logits, w2) * (1.0 - hidden_act**2)
        grad_w1 = features.T @ grad_hidden
        grad_b1 = grad_hidden.sum(axis=0)
        w1 -= learning_rate * grad_w1
        b1 -= learning_rate * grad_b1
        w2 -= learning_rate * grad_w2
        b2 -= learning_rate * grad_b2
    return w1, b1, w2, b2


@pytest.mark.parametrize(
    "kwargs",
    [
        {},  # the default model every Spendthrift run uses
        {"seed": 42, "hidden": 5, "samples": 999, "epochs": 37,
         "learning_rate": 0.3},
    ],
    ids=["default", "small"],
)
def test_spendthrift_training_is_bit_identical_to_fresh_temporaries(kwargs):
    """Training into preallocated buffers must not move a single bit of
    the weights the plain per-expression loop produces."""
    params = {"seed": 1234, "hidden": 8, "samples": 6000, "epochs": 400,
              "learning_rate": 0.5}
    params.update(kwargs)
    model, _ = train_spendthrift_model(**params)
    w1, b1, w2, b2 = _train_with_fresh_temporaries(**params)
    assert model.weights1.tobytes() == w1.tobytes()
    assert model.bias1.tobytes() == b1.tobytes()
    assert model.weights2.tobytes() == w2.tobytes()
    assert np.float64(model.bias2).tobytes() == np.float64(b2).tobytes()


def _weight_literals(model):
    """``model``'s weights as the ``repr`` literals spendthrift.py ships."""
    def row(values):
        return "(" + ", ".join(repr(float(v)) for v in values) + ",)"

    return "\n".join([
        "_WEIGHTS1 = (" + ", ".join(row(r) for r in model.weights1) + ")",
        "_BIAS1 = " + row(model.bias1),
        "_WEIGHTS2 = " + row(model.weights2),
        f"_BIAS2 = {float(model.bias2)!r}",
    ])


def test_shipped_spendthrift_weights_match_offline_training():
    """The weights ``default_model()`` serves are exactly what
    ``train_spendthrift_model()`` produces with its defaults.

    Spendthrift runs never train: they load these committed literals,
    which also makes their results independent of the host BLAS's
    rounding.  This test is where the two meet — if the training
    recipe changes, paste the printed literals into spendthrift.py.
    """
    trained, accuracy = train_spendthrift_model()
    shipped = default_model()
    fresh = _weight_literals(trained)
    assert isinstance(shipped.bias2, np.float64)
    for name in ("weights1", "bias1", "weights2"):
        got, want = getattr(shipped, name), getattr(trained, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), (
            f"shipped {name} differs from a fresh training run; "
            f"new literals:\n{fresh}")
    assert shipped.bias2.tobytes() == np.float64(trained.bias2).tobytes(), (
        f"shipped bias2 differs; new literals:\n{fresh}")
    assert accuracy == 0.9565


def test_spendthrift_model_separates_clear_cases():
    model, _ = train_spendthrift_model()
    must_backup = np.array([0.05, 0.3, 0.5])
    keep_going = np.array([0.9, 0.1, 0.5])
    assert model.predict(must_backup)
    assert not model.predict(keep_going)


def test_spendthrift_checks_at_interval():
    policy = SpendthriftPolicy(check_interval=100)
    policy.reset(FakePlatform(energy=9000.0))
    platform = FakePlatform(energy=9000.0)
    # Below the interval: no decision is even attempted.
    assert policy.after_step(platform, 50) == PolicyAction.NONE
    action = policy.after_step(platform, 60)  # crosses 100 cycles
    assert action in (PolicyAction.NONE, PolicyAction.SHUTDOWN)


def test_spendthrift_shuts_down_when_nearly_empty():
    policy = SpendthriftPolicy(check_interval=1)
    policy.reset(FakePlatform(energy=100.0))
    platform = FakePlatform(energy=100.0, backup_cost=50.0)
    decisions = [policy.after_step(platform, 1) for _ in range(20)]
    assert PolicyAction.SHUTDOWN in decisions


def test_spendthrift_keeps_going_when_full():
    policy = SpendthriftPolicy(check_interval=1)
    policy.reset(FakePlatform(energy=10_000.0))
    platform = FakePlatform(energy=10_000.0, backup_cost=50.0)
    decisions = [policy.after_step(platform, 1) for _ in range(20)]
    assert PolicyAction.SHUTDOWN not in decisions


def test_label_margin_documented_positive():
    assert LABEL_MARGIN > 0


# --------------------------------------------------------------- task
def test_task_policy_registered():
    policy = make_policy("task")
    assert policy.name == "task"


def test_task_policy_validation():
    from repro.policies.task import TaskBoundaryPolicy

    with pytest.raises(ValueError):
        TaskBoundaryPolicy(min_task_cycles=0)
    with pytest.raises(ValueError):
        TaskBoundaryPolicy(min_task_cycles=100, max_task_cycles=50)


def test_task_policy_backs_up_at_call_boundaries():
    from repro.workloads import run_workload

    task = run_workload("qsort", arch="nvmr", policy="task", trace_seed=0)
    jit = run_workload("qsort", arch="nvmr", policy="jit", trace_seed=0)
    # The paper's critique of task systems: far more backups than the
    # energy supply requires, and correspondingly more energy.
    assert task.backups > 3 * jit.backups
    assert task.total_energy > jit.total_energy


def test_task_policy_forced_split_prevents_livelock():
    """A call-free long loop must still commit progress (forced task
    splits), so even call-sparse code completes."""
    from repro.workloads import run_workload

    result = run_workload("hist", arch="nvmr", policy="task", trace_seed=0)
    assert result.backups > 10
