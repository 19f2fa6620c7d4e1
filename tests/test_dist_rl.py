"""Quantile distributional RL: projection optimality, operator contraction,
TD targets, and network gradients vs. finite differences."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from wavopt import nn
from wavopt.cmdp import TabularCmdp
from wavopt.dist_rl import (
    QuantileMap,
    TransitionBatch,
    actor_gradient,
    bellman_eval,
    critic_gradient_all,
    dbar,
    midpoint_levels,
    quantile_projection,
    td_targets,
)
from wavopt.measures import one_d_measure
from wavopt.nets import ActorNet, CriticNet, PolicyNets, init_policy_nets
from wavopt.ot import wasserstein_1d
from wavopt.verify import central_differences


def _random_cmdp(rng, ns=3, na=2, p=1, gamma=0.9):
    trans = rng.uniform(0.05, 1.0, size=(ns, na, ns))
    trans /= trans.sum(axis=2, keepdims=True)
    rewards = rng.uniform(0.0, 1.0, size=(ns, na))
    utils = rng.integers(0, 2, size=(p, ns, na)).astype(float)
    return TabularCmdp(trans, rewards, utils, np.full(p, 10.0), gamma)


def _random_map(rng, ns, na, n):
    return QuantileMap(np.sort(rng.normal(size=(ns, na, n)), axis=2))


# ---------------------------------------------------------------------------
# quantile projection
# ---------------------------------------------------------------------------


class TestQuantileProjection:
    def test_midpoint_levels(self):
        npt.assert_allclose(midpoint_levels(4), [0.125, 0.375, 0.625, 0.875])

    def test_two_atom_measure(self):
        m = one_d_measure([0.0, 1.0])
        npt.assert_allclose(quantile_projection(m, 2), [0.0, 1.0])
        npt.assert_allclose(quantile_projection(m, 4), [0.0, 0.0, 1.0, 1.0])

    def test_projection_of_n_uniform_atoms_is_identity(self):
        rng = np.random.default_rng(0)
        atoms = np.sort(rng.normal(size=8))
        m = one_d_measure(atoms)
        npt.assert_allclose(quantile_projection(m, 8), atoms)

    def test_w1_optimality_among_uniform_candidates(self):
        # the projection must beat random N-atom uniform competitors in W1
        rng = np.random.default_rng(1)
        for _ in range(20):
            sz = int(rng.integers(3, 12))
            w = rng.dirichlet(np.ones(sz))
            m = one_d_measure(rng.normal(size=sz) * 3, w)
            n = int(rng.integers(2, 6))
            best = one_d_measure(quantile_projection(m, n))
            d_best = wasserstein_1d(best, m, 1)
            for _ in range(200):
                cand = one_d_measure(rng.normal(size=n) * 3)
                assert d_best <= wasserstein_1d(cand, m, 1) + 1e-12


# ---------------------------------------------------------------------------
# dbar
# ---------------------------------------------------------------------------


class TestDbar:
    def test_matches_per_entry_exact_distance(self):
        rng = np.random.default_rng(2)
        z1, z2 = _random_map(rng, 3, 2, 5), _random_map(rng, 3, 2, 5)
        expect = 0.0
        for s in range(3):
            for a in range(2):
                expect = max(
                    expect,
                    wasserstein_1d(
                        one_d_measure(z1.atoms[s, a]), one_d_measure(z2.atoms[s, a]), math.inf
                    ),
                )
        assert dbar(z1, z2) == pytest.approx(expect, rel=1e-12)

    def test_zero_on_identical_maps(self):
        rng = np.random.default_rng(3)
        z = _random_map(rng, 2, 2, 4)
        assert dbar(z, z) == 0.0


# ---------------------------------------------------------------------------
# Bellman operators
# ---------------------------------------------------------------------------


class TestBellmanOperators:
    def test_projected_evaluation_operator_contracts(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            cmdp = _random_cmdp(rng, ns=int(rng.integers(2, 5)), na=int(rng.integers(1, 4)))
            policy = rng.integers(0, cmdp.n_actions, size=cmdp.n_states)
            n = int(rng.integers(2, 9))
            z1 = _random_map(rng, cmdp.n_states, cmdp.n_actions, n)
            z2 = _random_map(rng, cmdp.n_states, cmdp.n_actions, n)
            before = dbar(z1, z2)
            after = dbar(bellman_eval(z1, policy, cmdp, 0), bellman_eval(z2, policy, cmdp, 0))
            assert after <= cmdp.gamma * before + 1e-12

    def test_single_state_fixed_point(self):
        trans = np.ones((1, 1, 1))
        cmdp = TabularCmdp(trans, np.array([[0.7]]), np.zeros((0, 1, 1)), np.zeros(0), 0.9)
        z = QuantileMap.zeros(1, 1, 16)
        for _ in range(400):
            z = bellman_eval(z, np.array([0]), cmdp, 0)
        npt.assert_allclose(z.atoms, 0.7 / 0.1, atol=1e-8)

    def test_utility_signal_selects_matching_h(self):
        rng = np.random.default_rng(7)
        cmdp = _random_cmdp(rng, ns=2, na=2, p=2)
        z = QuantileMap.zeros(2, 2, 3)
        policy = np.array([0, 1])
        out = bellman_eval(z, policy, cmdp, signal=2)
        npt.assert_allclose(out.atoms[:, :, 0], cmdp.utilities[1], atol=1e-12)


# ---------------------------------------------------------------------------
# network gradients
# ---------------------------------------------------------------------------


def _small_nets(seed, state_dim=3, action_dim=1, n=4, n_signals=2, squash=True):
    return init_policy_nets(
        state_dim=state_dim,
        action_dim=action_dim,
        hidden_width=8,
        hidden_layers=2,
        n_quantiles=n,
        n_signals=n_signals,
        rng=seed,
        squash=squash,
    )


def _random_batch(rng, nets, b=6):
    ds = nets.actor.feature_scale.size
    da = nets.actor.action_dim
    p = nets.critic.n_signals - 1
    return TransitionBatch(
        states=rng.standard_normal((b, ds)),
        actions=rng.uniform(-1, 1, (b, da)),
        rewards=rng.uniform(0, 1, b),
        utilities=rng.integers(0, 2, (b, p)).astype(float),
        next_states=rng.standard_normal((b, ds)),
        done=rng.integers(0, 2, b).astype(float),
    )


def _rel_gap(a, b):
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / scale))


def _matching_losses(critic, batch, targets):
    # forward-only critic loss per signal: batch mean of
    # (1 / 2N) sum_j (sort(q)_j - T_j)^2
    diff = np.sort(critic.forward_batch(batch.states, batch.actions), axis=2) - targets
    return 0.5 * (diff**2).mean(axis=2).mean(axis=0)


def _matching_loss(critic, batch, targets):
    # summed over signals: the loss ``critic_gradient_all`` descends
    return float(_matching_losses(critic, batch, targets).sum())


class TestCriticGradient:
    def test_zero_gradient_when_output_equals_target(self):
        # gamma = 0 makes every target atom the batch's constant signal
        # value; a critic whose output layer emits exactly those values
        # matches its targets, so loss and gradient vanish
        nets = _small_nets(10)
        rng = np.random.default_rng(11)
        batch = _random_batch(rng, nets)
        batch.rewards[:] = 0.25
        batch.utilities[:] = 1.0
        nets.critic.params.weights[-1][...] = 0.0
        nets.critic.params.biases[-1][...] = np.repeat([0.25, 1.0], 4)
        ev = critic_gradient_all(nets, batch, gamma=0.0)
        assert _matching_loss(nets.critic, batch, td_targets(nets, batch, gamma=0.0)) == 0.0
        assert np.max(np.abs(ev.grad)) == 0.0

    def test_matches_finite_differences(self):
        worst = 0.0
        for seed in range(8):
            nets = _small_nets(20 + seed)
            rng = np.random.default_rng(40 + seed)
            batch = _random_batch(rng, nets, b=3)
            targets = td_targets(nets, batch, gamma=0.9)
            grad = critic_gradient_all(nets, batch, 0.9).grad
            fd = central_differences(
                nets.critic.params, lambda: _matching_loss(nets.critic, batch, targets)
            )
            worst = max(worst, _rel_gap(grad, fd))
        assert worst < 1e-5

    def test_duplicated_batch_gives_identical_gradient(self):
        nets = _small_nets(30)
        rng = np.random.default_rng(31)
        batch = _random_batch(rng, nets, b=4)
        doubled = TransitionBatch(
            states=np.vstack([batch.states, batch.states]),
            actions=np.vstack([batch.actions, batch.actions]),
            rewards=np.concatenate([batch.rewards, batch.rewards]),
            utilities=np.vstack([batch.utilities, batch.utilities]),
            next_states=np.vstack([batch.next_states, batch.next_states]),
            done=np.concatenate([batch.done, batch.done]),
        )
        g1 = critic_gradient_all(nets, batch, 0.99)
        g2 = critic_gradient_all(nets, doubled, 0.99)
        npt.assert_allclose(g1.grad, g2.grad, atol=1e-15)
        loss1 = _matching_loss(nets.critic, batch, td_targets(nets, batch, 0.99))
        loss2 = _matching_loss(nets.critic, doubled, td_targets(nets, doubled, 0.99))
        assert loss1 == pytest.approx(loss2, rel=1e-15)

    def test_terminal_transitions_bootstrap_zero(self):
        nets = _small_nets(32)
        rng = np.random.default_rng(33)
        batch = _random_batch(rng, nets, b=5)
        batch.done[:] = 1.0
        targets = td_targets(nets, batch, gamma=0.97)
        assert targets.shape == (5, 2, 4)
        npt.assert_array_equal(targets[:, 0, :], np.repeat(batch.rewards[:, None], 4, axis=1))
        npt.assert_array_equal(targets[:, 1, :], np.repeat(batch.utilities, 4, axis=1))

    def test_target_critic_used_when_present(self):
        nets = _small_nets(34)
        rng = np.random.default_rng(35)
        batch = _random_batch(rng, nets, b=4)
        t1 = td_targets(nets, batch, 0.9)
        # degrade the live nets: targets must not move until a sync
        nets.critic.params.flat += 0.5
        nets.actor.params.flat += 0.5
        npt.assert_array_equal(td_targets(nets, batch, 0.9), t1)
        nets.sync_target()
        assert np.max(np.abs(td_targets(nets, batch, 0.9) - t1)) > 1e-3


class TestActorGradient:
    def test_hand_checked_linear_chain(self):
        # critic Q(s, a) = 2a, actor a = w s with w = 0.7, s = 1:
        # d/dw mean Z = dQ/da * s = 2
        actor_params = nn.MlpParams([np.array([[0.7]])], [np.zeros(1)])
        actor = ActorNet(actor_params, 1, np.ones(1), squash=False)
        critic_params = nn.MlpParams([np.array([[0.0, 2.0]])], [np.zeros(1)])
        critic = CriticNet(critic_params, 1, 1, np.ones(1))
        nets = PolicyNets(actor, critic)
        batch = TransitionBatch(
            states=np.array([[1.0]]),
            actions=np.array([[0.0]]),
            rewards=np.zeros(1),
            utilities=np.zeros((1, 0)),
            next_states=np.array([[1.0]]),
            done=np.zeros(1),
        )
        grad = actor_gradient(nets, batch, 0)
        assert grad[0] == pytest.approx(2.0, abs=1e-15)

    def test_matches_finite_differences_through_critic(self):
        def objective(nets, states):
            a = nets.actor.act_batch(states)
            out = nets.critic.forward_batch(states, a)[:, 0, :]
            return float(out.mean(axis=1).mean())

        worst = 0.0
        for seed in range(6):
            nets = _small_nets(50 + seed)
            rng = np.random.default_rng(70 + seed)
            batch = _random_batch(rng, nets, b=3)
            fd = central_differences(nets.actor.params, lambda: objective(nets, batch.states))
            worst = max(worst, _rel_gap(actor_gradient(nets, batch, 0), fd))
        assert worst < 1e-4

    def test_constraint_signal_routes_through_matching_block(self):
        # gradient w.r.t. signal 1 must differ from signal 0 in general
        nets = _small_nets(60)
        rng = np.random.default_rng(61)
        batch = _random_batch(rng, nets, b=4)
        g0 = actor_gradient(nets, batch, 0)
        g1 = actor_gradient(nets, batch, 1)
        assert np.max(np.abs(g0 - g1)) > 1e-6


def _generic_actor_route(nets, batch, signal, sign, raw_penalty):
    # oracle: the full critic backward for an upstream of 1/N on the
    # signal's block, then a separate actor forward and backward for the
    # raw-output penalty
    actor, critic = nets.actor, nets.critic
    states = batch.states
    raw, actor_cache = nn.forward_batch_cached(actor.params, actor.scaled(states))
    a = np.tanh(raw) if actor.squash else raw
    _, critic_cache = nn.forward_batch_cached(critic.params, critic.inputs(states, a))
    n = critic.n_quantiles
    upstream = np.zeros((states.shape[0], critic.n_signals * n))
    upstream[:, signal * n : (signal + 1) * n] = 1.0 / n
    d_input = _input_gradient(critic.params, critic_cache, upstream)
    chain = (1.0 - a**2) if actor.squash else 1.0
    g_action = d_input[:, states.shape[1] :] * chain
    grad = sign * nn.backward_batch(actor.params, actor_cache, g_action, reduce="mean")
    if raw_penalty > 0.0:
        raw, cache = nn.forward_batch_cached(actor.params, actor.scaled(states))
        grad -= nn.backward_batch(actor.params, cache, raw_penalty * raw, reduce="mean")
    return grad


def _input_gradient(params, cache, upstream):
    # per-sample gradient of <upstream_b, f(x_b)> with respect to x_b,
    # pulled back by hand through the cached hidden pre-activations
    _, pre = cache
    g = upstream
    for l in range(params.n_layers - 1, 0, -1):
        g = (g @ params.weights[l]) * (pre[l - 1] > 0.0)
    return g @ params.weights[0]


class TestClosedFormActorChain:
    @pytest.mark.parametrize("hidden_layers", [0, 1, 2, 3])
    @pytest.mark.parametrize("squash", [True, False])
    def test_matches_generic_backward_oracle(self, hidden_layers, squash):
        worst = 0.0
        for seed in range(3):
            nets = init_policy_nets(
                state_dim=4,
                action_dim=2,
                hidden_width=16,
                hidden_layers=hidden_layers,
                n_quantiles=6,
                n_signals=3,
                rng=1000 * hidden_layers + seed,
                squash=squash,
            )
            batch = _random_batch(np.random.default_rng(seed), nets, b=9)
            for signal in range(3):
                for sign in (1.0, -1.0):
                    for raw_penalty in (0.0, 0.1):
                        got = actor_gradient(nets, batch, signal, sign, raw_penalty)
                        want = _generic_actor_route(nets, batch, signal, sign, raw_penalty)
                        scale = max(1e-300, float(np.max(np.abs(want))))
                        worst = max(worst, float(np.max(np.abs(got - want))) / scale)
        assert worst <= 1e-12


class TestFusedCriticGradient:
    def test_matches_per_signal_sum_exactly(self):
        # oracle: one backward per signal, upstream on that signal's block
        for seed in (0, 4, 9):
            nets = _small_nets(seed, n_signals=3)
            rng = np.random.default_rng(100 + seed)
            batch = _random_batch(rng, nets, b=5)
            fused = critic_gradient_all(nets, batch, 0.97)

            targets = td_targets(nets, batch, 0.97)
            critic = nets.critic
            x = critic.inputs(batch.states, batch.actions)
            out_flat, cache = nn.forward_batch_cached(critic.params, x)
            out = out_flat.reshape(5, 3, 4)
            grads, losses, sups = [], [], []
            for s in range(3):
                order = np.argsort(out[:, s, :], axis=1)
                diff = np.take_along_axis(out[:, s, :], order, axis=1) - targets[:, s, :]
                losses.append(0.5 * (diff**2).mean(axis=1).mean())
                sups.append(np.abs(diff).max(axis=1).mean())
                upstream = np.zeros_like(out)
                np.put_along_axis(upstream[:, s, :], order, diff / 4, axis=1)
                grads.append(nn.backward_batch(critic.params, cache, upstream.reshape(5, -1)).copy())
            # one fused backward vs three summed: identical up to float
            # summation order
            total = sum(grads)
            scale = max(1.0, float(np.max(np.abs(total))))
            assert np.max(np.abs(fused.grad - total)) <= 1e-13 * scale
            npt.assert_allclose(_matching_losses(critic, batch, targets), losses, rtol=1e-12)
            assert _matching_loss(critic, batch, targets) == pytest.approx(sum(losses), rel=1e-12)
            assert fused.delta_sup == pytest.approx(max(sups), rel=1e-12)

    def test_uses_target_critic_when_present(self):
        nets = _small_nets(7, n_signals=2)
        rng = np.random.default_rng(8)
        batch = _random_batch(rng, nets, b=4)
        targets = td_targets(nets, batch, 0.9).copy()
        before = _matching_loss(nets.critic, batch, targets)
        # perturbing the live critic must not move the frozen targets,
        # so the loss change comes only from the live forward pass
        for w in nets.critic.params.weights:
            w += 0.05
        after = critic_gradient_all(nets, batch, 0.9)
        npt.assert_array_equal(td_targets(nets, batch, 0.9), targets)
        assert _matching_loss(nets.critic, batch, targets) != before
        assert np.all(np.isfinite(after.delta_sups))
