import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavopt import nn, safe_rl
from wavopt.cmdp import TabularCmdp, exact_objective, value_iteration
from wavopt.dist_rl import TransitionBatch, UpdateWorkspace, td_targets
from wavopt.envs import CartpoleEnv, make_env, random_tabular_cmdp
from wavopt.harness import TrainConfig, probe
from wavopt.inference import RewardOperatorFamily, affine_family, log_family
from wavopt.nets import init_policy_nets
from wavopt.nn import AdamState
from wavopt.safe_rl import (
    C_CAL,
    choose_branch,
    estimate_objectives,
    exact_improvement_report,
    optimality_probabilities,
    policy_update_step,
    tolerance_schedule,
    within_bounds,
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


def _update(nets, batch, bounds, est, tolerance, critic_lr, actor_lr, gamma, value_clip=None, raw_penalty=0.0, **opts):
    """One ``policy_update_step`` against the batch's ``td_targets``, computed
    through the update's workspace when it has one; returns the branch."""
    targets = td_targets(nets, batch, gamma, value_clip, opts.get("workspace"))
    return policy_update_step(nets, batch, targets, bounds, est, tolerance, critic_lr, actor_lr, raw_penalty, **opts)


# -- tolerance schedule ----------------------------------------------------------


def test_tolerance_anchor_calibration():
    assert abs(tolerance_schedule(1000, batch=128, horizon_scale=2, gamma=0.998) - 0.5) <= 1e-12


def test_tolerance_monotone_decreasing():
    taus = [tolerance_schedule(t) for t in (1, 10, 100, 1000, 10000)]
    assert all(a > b for a, b in zip(taus, taus[1:]))
    assert tolerance_schedule(1000, batch=512) < tolerance_schedule(1000, batch=32)
    for t in (0, math.nan):
        with pytest.raises(ValueError, match="update count t must be >= 1"):
            tolerance_schedule(t)
    for batch in (0, -128, math.nan):
        with pytest.raises(ValueError, match="batch must be >= 1"):
            tolerance_schedule(1, batch)
    assert C_CAL > 0


# at batch 128 the t = 1 tolerance overflows from H ~ 585.14 and is inf
# (from H ~ -582.87) or divides by zero (from H ~ -614) below
@pytest.mark.parametrize("horizon_scale", [586.0, -600.0, -614.0, 1e308, math.nan])
def test_tolerance_schedule_refuses_a_tolerance_that_is_not_a_finite_float(horizon_scale):
    with pytest.raises(ValueError, match=r"^horizon_scale must keep the scheduled tolerance finite, got "):
        tolerance_schedule(1, 128, horizon_scale)


# -- objective estimation ---------------------------------------------------------


class TabularEnv:
    """Episodes of a tabular CMDP with one-hot transitions, cut once the discounted tail is below 1e-10."""

    action_boundaries = ()  # the policy returns the action index itself

    def __init__(self, cmdp: TabularCmdp):
        self.cmdp = cmdp
        self.n_constraints = cmdp.n_utilities
        self.max_steps = math.ceil(math.log(1e-10) / math.log(cmdp.gamma))

    def reset(self, rng) -> int:
        self._state = int(rng.choice(self.cmdp.n_states, p=self.cmdp.initial_dist))
        self._steps = 0
        return self._state

    def step(self, action: int):
        s, a = self._state, int(action)
        r = float(self.cmdp.rewards[s, a])
        g = self.cmdp.utilities[:, s, a].copy()
        self._state = int(np.argmax(self.cmdp.transitions[s, a]))  # draws nothing
        self._steps += 1
        return self._state, r, g, self._steps >= self.max_steps


class RulePolicy:
    """A per-state rule behind an actor's two routes, one state or a block."""

    def __init__(self, rule):
        self.rule = rule

    def act(self, state) -> np.ndarray:
        return np.array([self.rule(state)])

    def act_batch(self, states) -> np.ndarray:
        return np.array([[self.rule(s)] for s in states])


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
    est = estimate_objectives(env, RulePolicy(lambda s: 0), episodes=3, gamma=0.9, seed=4)
    assert est.reward == pytest.approx(exact_objective(cmdp, policy, signal=0), abs=1e-8)
    assert est.constraints[0] == pytest.approx(exact_objective(cmdp, policy, signal=1), abs=1e-8)


def test_estimate_objectives_seed_determinism():
    env = CartpoleEnv()
    policy = RulePolicy(lambda s: -1.0 if s[2] > 0 else 1.0)
    a = estimate_objectives(env, policy, episodes=4, gamma=0.99, seed=7)
    b = estimate_objectives(env, policy, episodes=4, gamma=0.99, seed=7)
    assert a.reward == b.reward
    assert np.array_equal(a.constraints, b.constraints)
    assert a.episodes == 4
    with pytest.raises(ValueError):
        estimate_objectives(env, policy, episodes=0, gamma=0.99)


def sequential_rollouts(env, actor, episodes, gamma, seed):
    """The oracle: one episode after another, one ``act`` call per step.

    Returns (reward, constraints, mean steps, each episode's length).
    """
    rng = np.random.default_rng(seed)
    total_r, total_g, lengths = 0.0, np.zeros(env.n_constraints), []
    for _ in range(episodes):
        state, done, disc, steps = env.reset(rng=rng), False, 1.0, 0
        while not done:
            state, r, g, done = env.step(float(actor.act(state)[0]))
            total_r += disc * r
            total_g += disc * g
            disc *= gamma
            steps += 1
        lengths.append(steps)
    return total_r / episodes, total_g / episodes, sum(lengths) / episodes, lengths


def _assert_matches_oracle(est, oracle, episodes):
    reward, constraints, mean_steps, _ = oracle
    assert est.episodes == episodes
    assert est.reward == reward
    assert np.array_equal(est.constraints, constraints)
    assert est.mean_steps == mean_steps


# bang-bang rules whose fitted actors visit every discrete action: push
# toward the pole's lean; torque with link 2's angular velocity
_RULES = {
    "cartpole": lambda s: np.where(s[:, 2] > 0, 0.9, -0.9),
    "acrobot": lambda s: np.clip(10.0 * s[:, 3], -0.9, 0.9),
}


def _actor(env_name, kind, seed=0):
    """A freshly initialised actor, or one briefly trained (400 Adam steps) to regress its env's rule."""
    env = make_env(env_name)
    actor = init_policy_nets(4, 1, 16, 2, 8, 3, np.random.default_rng(seed), env.feature_scale).actor
    if kind == "trained":
        states = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(256, 4)) / env.feature_scale
        target = _RULES[env_name](states)[:, None]
        x = actor.scaled(states)
        buffers = nn.LayerBuffers(actor.params, len(states))
        opt = AdamState(actor.params)
        for _ in range(400):
            act = np.tanh(nn.forward_batch(actor.params, x, buffers))
            opt.step(actor.params, nn.backward_batch(actor.params, x, (act - target) * (1.0 - act**2), buffers), 1e-2)
    return actor


@pytest.mark.parametrize("episodes", [1, 2, 5, 10])
@pytest.mark.parametrize("kind", ["random", "trained"])
@pytest.mark.parametrize("env_name", ["cartpole", "acrobot"])
def test_lockstep_rollouts_match_the_sequential_oracle(env_name, kind, episodes):
    config = TrainConfig(env=env_name)
    env = make_env(env_name)
    actor = _actor(env_name, kind, seed=episodes)
    seed = 100 + episodes
    oracle = sequential_rollouts(make_env(env_name), actor, episodes, config.gamma, seed)
    _assert_matches_oracle(estimate_objectives(env, actor, episodes, config.gamma, seed), oracle, episodes)
    _assert_matches_oracle(probe(actor, config, episodes, seed), oracle, episodes)
    if env_name == "cartpole" and episodes == 10:
        assert len(set(oracle[3])) > 1  # the episodes end at different ticks


@pytest.mark.parametrize("env_name", ["cartpole", "acrobot"])
def test_an_action_at_a_boundary_takes_the_one_state_route(env_name):
    env = make_env(env_name)
    env.max_steps = 60
    actor = _actor(env_name, "random", seed=1)
    # a vanishing output layer around the boundary's pre-squash value:
    # every batched action lies within about 1e-14 of the boundary
    boundary = env.action_boundaries[-1]
    actor.params.weights[-1][:] *= 1e-14
    actor.params.biases[-1][:] = np.arctanh(boundary)
    oracle = sequential_rollouts(env, actor, 5, 0.99, 8)
    block = np.array([env.reset(rng=np.random.default_rng(i)) for i in range(5)])
    assert np.all(np.abs(actor.act_batch(block)[:, 0] - boundary) < 1e-12)

    calls = []
    one_state = actor.act
    actor.act = lambda state: calls.append(1) or one_state(state)
    est = estimate_objectives(env, actor, 5, 0.99, 8)
    _assert_matches_oracle(est, oracle, 5)
    assert len(calls) == sum(oracle[3])  # every step was recomputed on its own


# -- branched update ---------------------------------------------------------------


def test_update_branch_selection():
    rng = np.random.default_rng(1)
    bounds = np.array([1.0, 2.0])
    tol = 0.5

    nets = _nets(seed=2)
    branch = _update(
        nets, _batch(rng), bounds, np.array([1.5, 2.5]), tol, 1e-3, 1e-3, 0.99, **_opts(nets)
    )
    assert type(branch) is int and branch == 0  # non-strict boundary

    nets = _nets(seed=2)
    branch = _update(
        nets, _batch(rng), bounds, np.array([1.6, 7.0]), tol, 1e-3, 1e-3, 0.99, **_opts(nets)
    )
    assert branch == 1  # lowest violated, not largest

    nets = _nets(seed=2)
    branch = _update(
        nets, _batch(rng), bounds, np.array([0.0, 2.51]), tol, 1e-3, 1e-3, 0.99, **_opts(nets)
    )
    assert branch == 2


def test_choose_branch_bound_is_non_strict():
    bounds = np.array([1.0, 2.0])
    assert choose_branch(np.array([1.5, 2.5]), bounds, 0.5) == (0, 1)
    assert choose_branch(np.array([1.5, np.nextafter(2.5, 3.0)]), bounds, 0.5) == (2, -1)


def test_choose_branch_descends_the_lowest_violated_index():
    bounds = np.zeros(4)
    assert choose_branch(np.array([0.0, 3.0, 9.0, 1.0]), bounds, 0.5) == (2, -1)
    assert choose_branch(np.array([0.6, 0.0, 0.0, 0.7]), bounds, 0.5) == (1, -1)


def test_choose_branch_ascends_the_reward_when_all_are_feasible():
    assert choose_branch(np.array([-5.0, 0.0, 0.25]), np.array([0.0, 0.0, 0.0]), 0.25) == (0, 1)
    assert choose_branch(np.zeros(0), np.zeros(0), 0.0) == (0, 1)


def test_a_nan_estimate_is_a_violated_constraint():
    assert within_bounds(np.array([math.nan, 0.0]), np.array([60.0, 60.0]), 0.5, 0.0).tolist() == [False, True]
    assert choose_branch(np.array([math.nan]), np.array([60.0]), 0.5) == (1, -1)
    assert choose_branch(np.array([0.0, math.nan]), np.array([60.0, 60.0]), 0.5) == (2, -1)


def test_update_descends_a_nan_constraint():
    nets = _nets(seed=7)
    branch = _update(
        nets, _batch(np.random.default_rng(8)), np.full(2, 60.0), np.array([math.nan, 0.0]),
        0.5, 1e-3, 1e-3, 0.99, **_opts(nets),
    )
    assert branch == 1


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=4), _FINITE, _FINITE, _FINITE)
def test_within_bounds_is_the_old_branch_and_gate_formulas_bit_for_bit(pairs, bound, tolerance, margin):
    estimates, bounds = (np.array(column) for column in zip(*pairs))
    with np.errstate(over="ignore"):  # bound + tolerance may round to inf
        # the branch rule: feasible unless estimates > bounds + tolerance
        np.testing.assert_array_equal(
            within_bounds(estimates, bounds, tolerance, 0.0), ~(estimates > bounds + tolerance)
        )
        # the gate rule on a scalar bound: estimates <= bound + tolerance - margin
        np.testing.assert_array_equal(
            within_bounds(estimates, bound, tolerance, margin), estimates <= bound + tolerance - margin
        )


def test_update_moves_both_networks():
    rng = np.random.default_rng(3)
    nets = _nets(seed=5)
    actor0, critic0 = nets.actor.params.flat.copy(), nets.critic.params.flat.copy()
    _update(
        nets, _batch(rng), np.zeros(2), np.zeros(2), 0.1, 1e-2, 1e-2, 0.99, **_opts(nets)
    )
    assert not np.array_equal(actor0, nets.actor.params.flat)
    assert not np.array_equal(critic0, nets.critic.params.flat)


def test_sync_target_copies_without_aliasing():
    rng = np.random.default_rng(4)
    nets = _nets(seed=6)
    opts = _opts(nets)
    args = (np.zeros(2), np.zeros(2), 0.1, 1e-2, 1e-2, 0.99)
    _update(nets, _batch(rng), *args, **opts)
    nets.sync_target()
    pairs = [
        (nets.actor.params.flat, nets.target_actor.params.flat),
        (nets.critic.params.flat, nets.target_critic.params.flat),
    ]
    for live, target in pairs:
        assert np.array_equal(live, target) and not np.shares_memory(live, target)
    synced = [target.copy() for _, target in pairs]
    # an Adam step after the sync moves only the live networks
    _update(nets, _batch(rng), *args, **opts)
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
    _update(nets, batch, np.zeros(2), np.ones(2), 0.1, 1e-3, 0.0, 0.99, **_opts(nets))
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
    _update(nets, batch, np.ones(2), np.zeros(2), 0.0, 0.0, 1e-2, 0.99, **_opts(nets))
    assert _mean_critic_value(nets, batch.states, 0) > before


def test_actor_descends_violated_constraint():
    rng = np.random.default_rng(15)
    nets = _nets(seed=17)
    batch = _batch(rng)
    before = _mean_critic_value(nets, batch.states, 2)
    branch = _update(
        nets, batch, np.zeros(2), np.array([0.0, 9.0]), 0.0, 0.0, 1e-2, 0.99, **_opts(nets)
    )
    assert branch == 2
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
    _update(
        nets, _batch(rng), np.zeros(2), estimates, 0.0, 1e-3, 1e-3, 0.99,
        raw_penalty=0.1, **_opts(nets),
    )
    assert calls == [nets.critic.params, nets.actor.params]


def _cartpole_update(nets, batch, estimates, opts):
    _update(
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
        _update(nets, _batch(rng), np.zeros(3), np.zeros(3), 0.1, 1e-3, 1e-3, 0.99, **_opts(nets))
    with pytest.raises(ValueError):
        _update(nets, _batch(rng), np.zeros(2), np.zeros(3), 0.1, 1e-3, 1e-3, 0.99, **_opts(nets))


# -- exact improvement oracle ---------------------------------------------------------


def test_optimality_probabilities_bracket():
    cmdp = random_tabular_cmdp(4, 2, 1, seed=3, gamma=0.9)
    q = np.array([[0.0, 10.0], [5.0, 12.0], [1.0, 2.0], [0.0, 0.0]])
    p = optimality_probabilities(cmdp, q)
    assert np.all(p >= 1e-6) and np.all(p <= 1.0)
    assert p[0, 1] == pytest.approx(1.0)  # q = 1/(1-gamma) maps to 1
    assert p[0, 0] == 1e-6  # floor


@pytest.mark.parametrize("reward", [1.5, -0.5])
def test_tabular_cmdp_refuses_rewards_outside_the_unit_interval(reward):
    with pytest.raises(ValueError, match=r"^rewards must lie within \[0, 1\]$"):
        TabularCmdp(np.ones((1, 1, 1)), np.array([[reward]]), np.zeros((1, 1, 1)), np.zeros(1), 0.9)


def test_tabular_cmdp_accepts_rewards_within_the_row_tolerance():
    cmdp = TabularCmdp(np.ones((1, 1, 1)), np.array([[1.0 + 5e-13]]), np.zeros((1, 1, 1)), np.zeros(1), 0.9)
    assert cmdp.rewards[0, 0] == 1.0 + 5e-13


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


def test_exact_improvement_carries_a_nan_q_value(monkeypatch):
    # the first improved policy's Q holds one nan, later ones are exact
    exact, calls = safe_rl.exact_q_values, []

    def q_values(cmdp, policy, signal):
        calls.append(policy)
        q = exact(cmdp, policy, signal=signal)
        if len(calls) == 2:
            q[0, 0] = np.nan
        return q

    monkeypatch.setattr(safe_rl, "exact_q_values", q_values)
    rep = exact_improvement_report(random_tabular_cmdp(6, 3, 1, seed=0, gamma=0.9), affine_family(0.0, 1.0))
    assert len(calls) > 2
    assert math.isnan(rep.q_monotone_violation)


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


@pytest.mark.parametrize("family", [affine_family(0.0, 1.0), log_family(0.0, 1.0), TRIANGLE], ids=lambda f: f.name)
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_exact_improvement_with_a_supplied_optimum_equals_the_self_computed_one(family, seed):
    cmdp = random_tabular_cmdp(6, 3, 1, seed=seed, gamma=0.9)
    own = exact_improvement_report(cmdp, family, max_iters=30)
    given = exact_improvement_report(cmdp, family, max_iters=30, v_star=value_iteration(cmdp)[0])
    assert given.objectives == own.objectives
    assert len(given.policies) == len(own.policies)
    assert all(np.array_equal(a, b) for a, b in zip(given.policies, own.policies))
    assert given.q_monotone_violation == own.q_monotone_violation
    assert given.final_gap == own.final_gap
    assert (given.iterations, given.converged) == (own.iterations, own.converged)
