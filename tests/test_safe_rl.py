import math
import tracemalloc

import numpy as np
import pytest

from wavopt import nn
from wavopt.cmdp import TabularCmdp, exact_objective
from wavopt.dist_rl import TransitionBatch, UpdateWorkspace, td_targets
from wavopt.envs import CartpoleEnv, random_tabular_cmdp
from wavopt.inference import RewardOperatorFamily, affine_family, log_family
from wavopt.nets import init_policy_nets
from wavopt.nn import AdamState
from wavopt.safe_rl import (
    C_CAL,
    estimate_objectives,
    exact_improvement_report,
    optimality_probabilities,
    policy_update_step,
    tolerance_schedule,
)

TRIANGLE = RewardOperatorFamily(
    "triangle", 0.0, 1.0, fn=lambda p: 1.0 - np.abs(2.0 * np.asarray(p, dtype=float) - 1.0)
)


def _nets(seed=0, n_signals=3):
    return init_policy_nets(
        state_dim=4,
        action_dim=1,
        hidden_width=16,
        hidden_layers=2,
        n_quantiles=8,
        n_signals=n_signals,
        rng=np.random.default_rng(seed),
    )


def _opts(nets):
    return dict(critic_opt=AdamState(nets.critic.params), actor_opt=AdamState(nets.actor.params))


def _batch(rng, size=32, n_constraints=2):
    return TransitionBatch(
        states=rng.normal(size=(size, 4)),
        actions=rng.uniform(-1, 1, size=(size, 1)),
        rewards=rng.uniform(0, 1, size=size),
        utilities=rng.integers(0, 2, size=(size, n_constraints)).astype(float),
        next_states=rng.normal(size=(size, 4)),
        done=rng.integers(0, 2, size=size).astype(float),
    )


# -- tolerance schedule ----------------------------------------------------------


def test_tolerance_anchor_calibration():
    assert abs(tolerance_schedule(1000, batch=128, horizon_scale=2, gamma=0.998) - 0.5) <= 1e-12


def test_tolerance_monotone_decreasing():
    taus = [tolerance_schedule(t) for t in (1, 10, 100, 1000, 10000)]
    assert all(a > b for a, b in zip(taus, taus[1:]))
    assert tolerance_schedule(1000, batch=512) < tolerance_schedule(1000, batch=32)
    with pytest.raises(ValueError):
        tolerance_schedule(0)
    assert C_CAL > 0


# -- objective estimation ---------------------------------------------------------


class TabularEnv:
    """Episodes sampled from a tabular CMDP, cut once the discounted tail is below 1e-10."""

    def __init__(self, cmdp: TabularCmdp):
        self.cmdp = cmdp
        self.n_constraints = cmdp.n_utilities
        self.max_steps = math.ceil(math.log(1e-10) / math.log(cmdp.gamma))

    def reset(self, rng) -> int:
        self._rng = rng
        self._state = int(rng.choice(self.cmdp.n_states, p=self.cmdp.initial_dist))
        self._steps = 0
        return self._state

    def step(self, action: int):
        s, a = self._state, int(action)
        r = float(self.cmdp.rewards[s, a])
        g = self.cmdp.utilities[:, s, a].copy()
        self._state = int(self._rng.choice(self.cmdp.n_states, p=self.cmdp.transitions[s, a]))
        self._steps += 1
        return self._state, r, g, self._steps >= self.max_steps


def test_estimate_objectives_deterministic_cmdp():
    # one-hot transitions and a point initial distribution make the
    # rollout deterministic, so the Monte-Carlo estimate must match the
    # linear-solve objective up to horizon truncation
    trans = np.zeros((3, 2, 3))
    trans[0, 0, 1] = trans[0, 1, 2] = 1.0
    trans[1, 0, 2] = trans[1, 1, 0] = 1.0
    trans[2, 0, 0] = trans[2, 1, 1] = 1.0
    rewards = np.array([[0.1, 0.9], [0.4, 0.6], [0.8, 0.2]])
    utils = np.ones((1, 3, 2)) * np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]])
    cmdp = TabularCmdp(
        trans, rewards, utils, np.array([5.0]), 0.9, initial_dist=np.array([1.0, 0.0, 0.0])
    )
    env = TabularEnv(cmdp)
    policy = np.zeros(3, dtype=int)
    est = estimate_objectives(env, lambda s: 0, episodes=3, gamma=0.9, seed=4)
    assert est.reward == pytest.approx(exact_objective(cmdp, policy, signal=0), abs=1e-8)
    assert est.constraints[0] == pytest.approx(exact_objective(cmdp, policy, signal=1), abs=1e-8)


def test_estimate_objectives_seed_determinism():
    env = CartpoleEnv()
    policy = lambda s: -1.0 if s[2] > 0 else 1.0
    a = estimate_objectives(env, policy, episodes=4, gamma=0.99, seed=7)
    b = estimate_objectives(env, policy, episodes=4, gamma=0.99, seed=7)
    assert a.reward == b.reward
    assert np.array_equal(a.constraints, b.constraints)
    assert a.episodes == 4
    with pytest.raises(ValueError):
        estimate_objectives(env, policy, episodes=0, gamma=0.99)


# -- branched update ---------------------------------------------------------------


def test_update_branch_selection():
    rng = np.random.default_rng(1)
    bounds = np.array([1.0, 2.0])
    tol = 0.5

    nets = _nets(seed=2)
    info = policy_update_step(
        nets, _batch(rng), bounds, np.array([1.5, 2.5]), tol, 1e-3, 1e-3, 0.99, **_opts(nets)
    )
    assert info.branch == 0  # non-strict boundary

    nets = _nets(seed=2)
    info = policy_update_step(
        nets, _batch(rng), bounds, np.array([1.6, 7.0]), tol, 1e-3, 1e-3, 0.99, **_opts(nets)
    )
    assert info.branch == 1  # lowest violated, not largest

    nets = _nets(seed=2)
    info = policy_update_step(
        nets, _batch(rng), bounds, np.array([0.0, 2.51]), tol, 1e-3, 1e-3, 0.99, **_opts(nets)
    )
    assert info.branch == 2


def test_update_moves_both_networks():
    rng = np.random.default_rng(3)
    nets = _nets(seed=5)
    actor0, critic0 = nets.actor.params.flat.copy(), nets.critic.params.flat.copy()
    policy_update_step(
        nets, _batch(rng), np.zeros(2), np.zeros(2), 0.1, 1e-2, 1e-2, 0.99, **_opts(nets)
    )
    assert not np.array_equal(actor0, nets.actor.params.flat)
    assert not np.array_equal(critic0, nets.critic.params.flat)


def test_sync_target_copies_without_aliasing():
    rng = np.random.default_rng(4)
    nets = _nets(seed=6)
    opts = _opts(nets)
    args = (np.zeros(2), np.zeros(2), 0.1, 1e-2, 1e-2, 0.99)
    policy_update_step(nets, _batch(rng), *args, **opts)
    nets.sync_target()
    pairs = [
        (nets.actor.params.flat, nets.target_actor.params.flat),
        (nets.critic.params.flat, nets.target_critic.params.flat),
    ]
    for live, target in pairs:
        assert np.array_equal(live, target) and not np.shares_memory(live, target)
    synced = [target.copy() for _, target in pairs]
    # an Adam step after the sync moves only the live networks
    policy_update_step(nets, _batch(rng), *args, **opts)
    for (live, target), before in zip(pairs, synced):
        assert not np.array_equal(live, before)
        assert np.array_equal(target, before)


def _critic_loss(nets, batch, gamma):
    # forward-only: batch mean over samples, summed over signals, of
    # (1 / 2N) sum_j (sort(q)_j - T_j)^2 against the frozen targets
    targets = td_targets(nets, batch, gamma)
    diff = np.sort(nets.critic.forward_batch(batch.states, batch.actions), axis=2) - targets
    return float(0.5 * (diff**2).mean(axis=2).mean(axis=0).sum())


def test_update_critic_loss_decreases_frozen_targets():
    rng = np.random.default_rng(11)
    nets = _nets(seed=7)
    batch = _batch(rng)
    before = _critic_loss(nets, batch, 0.99)
    policy_update_step(nets, batch, np.zeros(2), np.ones(2), 0.1, 1e-3, 0.0, 0.99, **_opts(nets))
    after = _critic_loss(nets, batch, 0.99)
    assert after < before


def _mean_critic_value(nets, states, signal):
    actions = nets.actor.act_batch(states)
    out = nets.critic.forward_batch(states, actions)
    return float(out[:, signal, :].mean())


def test_actor_ascends_reward_when_feasible():
    rng = np.random.default_rng(13)
    nets = _nets(seed=9)
    batch = _batch(rng)
    before = _mean_critic_value(nets, batch.states, 0)
    policy_update_step(nets, batch, np.ones(2), np.zeros(2), 0.0, 0.0, 1e-2, 0.99, **_opts(nets))
    assert _mean_critic_value(nets, batch.states, 0) > before


def test_actor_descends_violated_constraint():
    rng = np.random.default_rng(15)
    nets = _nets(seed=17)
    batch = _batch(rng)
    before = _mean_critic_value(nets, batch.states, 2)
    info = policy_update_step(
        nets, batch, np.zeros(2), np.array([0.0, 9.0]), 0.0, 0.0, 1e-2, 0.99, **_opts(nets)
    )
    assert info.branch == 2
    assert _mean_critic_value(nets, batch.states, 2) < before


@pytest.mark.parametrize("estimates", [np.zeros(2), np.array([0.0, 9.0])])
def test_update_runs_one_critic_and_one_actor_backward(monkeypatch, estimates):
    # the raw-action penalty rides in the actor's backward, so every
    # update, on either branch, backpropagates exactly twice
    calls = []
    backward = nn.backward_batch

    def counting(params, *args, **kwargs):
        calls.append(params)
        return backward(params, *args, **kwargs)

    monkeypatch.setattr(nn, "backward_batch", counting)
    rng = np.random.default_rng(19)
    nets = _nets(seed=21)
    policy_update_step(
        nets, _batch(rng), np.zeros(2), estimates, 0.0, 1e-3, 1e-3, 0.99,
        raw_penalty=0.1, **_opts(nets),
    )
    assert calls == [nets.critic.params, nets.actor.params]


def _cartpole_update(nets, batch, estimates, opts):
    policy_update_step(
        nets, batch, np.full(2, 0.5), estimates, 0.1, 1e-3, 1e-3, 0.99,
        value_clip=(0.0, 50.0), raw_penalty=0.1, **opts,
    )


def _cartpole_nets():
    # the default cartpole shapes: width 128, 128 quantiles, 3 signals
    return init_policy_nets(4, 1, 128, 2, 128, 3, np.random.default_rng(23))


def test_workspace_update_allocates_no_batch_arrays():
    # updates that allocate their (batch, .) arrays peak above 3 MiB
    # here; through one workspace only the argsort indices remain
    nets = _cartpole_nets()
    opts = dict(_opts(nets), workspace=UpdateWorkspace(nets, 128))
    rng = np.random.default_rng(24)
    batches = [_batch(rng, size=128) for _ in range(4)]
    _cartpole_update(nets, batches[0], np.zeros(2), opts)
    tracemalloc.start()
    try:
        for batch in batches[1:]:
            _cartpole_update(nets, batch, np.zeros(2), opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_workspace_update_matches_fresh_arrays_byte_for_byte():
    runs = []
    for reuse in (False, True):
        nets = _cartpole_nets()
        opts = _opts(nets)
        if reuse:
            opts["workspace"] = UpdateWorkspace(nets, 128)
        rng = np.random.default_rng(25)
        for t in range(20):
            # estimates around the bounds, so both branches run
            _cartpole_update(nets, _batch(rng, size=128), rng.uniform(0.0, 1.5, size=2), opts)
            if t % 7 == 6:
                nets.sync_target()
        runs.append(nets)
    fresh, reused = runs
    for net in ("actor", "critic", "target_actor", "target_critic"):
        assert getattr(fresh, net).params.flat.tobytes() == getattr(reused, net).params.flat.tobytes()


def test_update_shape_validation():
    rng = np.random.default_rng(0)
    nets = _nets()
    with pytest.raises(ValueError):
        policy_update_step(nets, _batch(rng), np.zeros(3), np.zeros(3), 0.1, 1e-3, 1e-3, 0.99, **_opts(nets))
    with pytest.raises(ValueError):
        policy_update_step(nets, _batch(rng), np.zeros(2), np.zeros(3), 0.1, 1e-3, 1e-3, 0.99, **_opts(nets))


# -- exact improvement oracle ---------------------------------------------------------


def test_optimality_probabilities_bracket():
    cmdp = random_tabular_cmdp(4, 2, 1, seed=3, gamma=0.9)
    q = np.array([[0.0, 10.0], [5.0, 12.0], [1.0, 2.0], [0.0, 0.0]])
    p = optimality_probabilities(cmdp, q)
    assert np.all(p >= 1e-6) and np.all(p <= 1.0)
    assert p[0, 1] == pytest.approx(1.0)  # q = 1/(1-gamma) maps to 1
    assert p[0, 0] == 1e-6  # floor


def test_exact_improvement_monotone_and_optimal():
    for seed in (0, 1, 2, 3):
        cmdp = random_tabular_cmdp(6, 3, 1, seed=seed, gamma=0.9)
        for fam in (affine_family(0.0, 1.0), log_family(0.0, 1.0)):
            rep = exact_improvement_report(cmdp, fam)
            assert rep.converged
            assert rep.q_monotone_violation <= 1e-6
            assert abs(rep.final_gap) <= 1e-3
            # objectives never decrease along the trace
            objs = rep.objectives
            assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))


def test_exact_improvement_operator_invariance():
    # any strictly increasing operator picks the same actions, so the
    # whole policy trace must be identical across admissible families
    cmdp = random_tabular_cmdp(7, 3, 1, seed=6, gamma=0.9)
    rep_a = exact_improvement_report(cmdp, affine_family(0.0, 1.0))
    rep_l = exact_improvement_report(cmdp, log_family(0.0, 1.0))
    assert len(rep_a.policies) == len(rep_l.policies)
    for pa, pl in zip(rep_a.policies, rep_l.policies):
        assert np.array_equal(pa, pl)


def test_exact_improvement_negative_control():
    # a non-monotone operator must break value monotonicity; pinned
    # instance where the triangle map demonstrably does
    cmdp = random_tabular_cmdp(6, 3, 1, seed=0, gamma=0.9)
    rep = exact_improvement_report(cmdp, TRIANGLE, max_iters=30)
    assert rep.q_monotone_violation > 1e-6
