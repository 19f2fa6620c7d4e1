"""Quantile distributional RL: projection optimality, operator contraction,
TD dynamics, and network gradients vs. finite differences."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from wavopt import nn
from wavopt.cmdp import TabularCmdp, value_iteration
from wavopt.dist_rl import (
    QuantileDistribution,
    QuantileMap,
    TransitionBatch,
    actor_gradient,
    bellman_eval,
    bellman_opt,
    critic_gradient,
    dbar,
    midpoint_levels,
    quantile_match_grad,
    quantile_match_loss,
    quantile_projection,
    td_targets,
    td_update,
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
        npt.assert_allclose(quantile_projection(m, 2).atoms, [0.0, 1.0])
        npt.assert_allclose(quantile_projection(m, 4).atoms, [0.0, 0.0, 1.0, 1.0])

    def test_projection_of_n_uniform_atoms_is_identity(self):
        rng = np.random.default_rng(0)
        atoms = np.sort(rng.normal(size=8))
        m = one_d_measure(atoms)
        npt.assert_allclose(quantile_projection(m, 8).atoms, atoms)

    def test_w1_optimality_among_uniform_candidates(self):
        # the projection must beat random N-atom uniform competitors in W1
        rng = np.random.default_rng(1)
        for _ in range(20):
            sz = int(rng.integers(3, 12))
            w = rng.dirichlet(np.ones(sz))
            m = one_d_measure(rng.normal(size=sz) * 3, w)
            n = int(rng.integers(2, 6))
            best = quantile_projection(m, n).to_measure()
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
        for k in (1, 2, math.inf):
            expect = 0.0
            for s in range(3):
                for a in range(2):
                    expect = max(
                        expect,
                        wasserstein_1d(
                            one_d_measure(z1.atoms[s, a]), one_d_measure(z2.atoms[s, a]), k
                        ),
                    )
            assert dbar(z1, z2, k) == pytest.approx(expect, rel=1e-12)

    def test_zero_on_identical_maps(self):
        rng = np.random.default_rng(3)
        z = _random_map(rng, 2, 2, 4)
        assert dbar(z, z, math.inf) == 0.0

    def test_accepts_lists_of_maps(self):
        rng = np.random.default_rng(4)
        a = [_random_map(rng, 2, 2, 3), _random_map(rng, 2, 2, 3)]
        b = [m.copy() for m in a]
        b[1].atoms[0, 0, 0] -= 0.5  # keep sortedness: lowest atom lowered
        assert dbar(a, b, math.inf) == pytest.approx(0.5)


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
            before = dbar(z1, z2, math.inf)
            after = dbar(
                bellman_eval(z1, policy, cmdp, 0),
                bellman_eval(z2, policy, cmdp, 0),
                math.inf,
            )
            assert after <= cmdp.gamma * before + 1e-12

    def test_single_state_fixed_point(self):
        trans = np.ones((1, 1, 1))
        cmdp = TabularCmdp(trans, np.array([[0.7]]), np.zeros((0, 1, 1)), np.zeros(0), 0.9)
        z = QuantileMap.zeros(1, 1, 16)
        for _ in range(400):
            z = bellman_eval(z, np.array([0]), cmdp, 0)
        npt.assert_allclose(z.atoms, 0.7 / 0.1, atol=1e-8)

    def test_optimality_operator_matches_value_iteration_on_deterministic_mdp(self):
        # deterministic transitions keep every mixture a single shifted atom
        # set, so atom means follow scalar value iteration exactly
        rng = np.random.default_rng(6)
        ns, na = 2, 2
        trans = np.zeros((ns, na, ns))
        for s in range(ns):
            for a in range(na):
                trans[s, a, int(rng.integers(0, ns))] = 1.0
        cmdp = TabularCmdp(trans, rng.uniform(0, 1, (ns, na)), np.zeros((0, ns, na)), np.zeros(0), 0.9)
        z = QuantileMap.zeros(ns, na, 8)
        for _ in range(160):
            z = bellman_opt(z, cmdp)
        _, q_star = value_iteration(cmdp, tol=1e-14)
        npt.assert_allclose(z.means(), q_star, atol=1e-6)

    def test_greedy_tie_breaks_to_lowest_action(self):
        ns, na = 1, 3
        trans = np.ones((ns, na, ns))
        cmdp = TabularCmdp(trans, np.zeros((ns, na)), np.zeros((0, ns, na)), np.zeros(0), 0.5)
        z = QuantileMap.zeros(ns, na, 4)  # all means tie at zero
        out = bellman_opt(z, cmdp)
        npt.assert_allclose(out.atoms, 0.0)  # bootstrapped from action 0

    def test_utility_signal_selects_matching_h(self):
        rng = np.random.default_rng(7)
        cmdp = _random_cmdp(rng, ns=2, na=2, p=2)
        z = QuantileMap.zeros(2, 2, 3)
        policy = np.array([0, 1])
        out = bellman_eval(z, policy, cmdp, signal=2)
        npt.assert_allclose(out.atoms[:, :, 0], cmdp.utilities[1], atol=1e-12)


class TestTdUpdate:
    def test_geometric_convergence_on_single_state(self):
        trans = np.ones((1, 1, 1))
        cmdp = TabularCmdp(trans, np.array([[0.5]]), np.zeros((0, 1, 1)), np.zeros(0), 0.9)
        z = QuantileMap.zeros(1, 1, 4)
        policy = np.array([0])
        fixed = 0.5 / 0.1
        l_td = 0.1
        errs = []
        for _ in range(40):
            z, _ = td_update(z, (0, 0, 0), 0, l_td, cmdp, policy)
            errs.append(abs(z.atoms[0, 0, 0] - fixed))
        ratios = [b / a for a, b in zip(errs, errs[1:])]
        expected = 1.0 - l_td * (1.0 - cmdp.gamma)
        npt.assert_allclose(ratios, expected, rtol=1e-10)

    def test_delta_is_sup_gap_to_projected_target(self):
        rng = np.random.default_rng(8)
        cmdp = _random_cmdp(rng, ns=2, na=2)
        z = _random_map(rng, 2, 2, 5)
        policy = np.array([1, 0])
        target = cmdp.rewards[0, 1] + cmdp.gamma * z.atoms[1, policy[1], :]
        _, delta = td_update(z, (0, 1, 1), 0, 0.3, cmdp, policy)
        assert delta == pytest.approx(np.max(np.abs(target - z.atoms[0, 1])), rel=1e-15)

    def test_learning_rate_validated(self):
        cmdp = TabularCmdp(np.ones((1, 1, 1)), np.zeros((1, 1)), np.zeros((0, 1, 1)), np.zeros(0), 0.5)
        z = QuantileMap.zeros(1, 1, 2)
        with pytest.raises(ValueError):
            td_update(z, (0, 0, 0), 0, 1.5, cmdp, np.array([0]))


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


class TestCriticGradient:
    def test_zero_gradient_when_output_equals_target(self):
        nets = _small_nets(10)
        rng = np.random.default_rng(11)
        batch = _random_batch(rng, nets)
        out = nets.critic.forward_batch(batch.states, batch.actions)[:, 0, :]
        targets = np.sort(out, axis=1)
        loss, grad, _ = quantile_match_grad(nets.critic, batch.states, batch.actions, targets, 0)
        assert loss == 0.0
        assert np.max(np.abs(grad)) == 0.0

    def test_matches_finite_differences(self):
        worst = 0.0
        for seed in range(8):
            nets = _small_nets(20 + seed)
            rng = np.random.default_rng(40 + seed)
            batch = _random_batch(rng, nets, b=3)
            targets = td_targets(nets, batch, 0, gamma=0.9)
            _, grad, _ = quantile_match_grad(nets.critic, batch.states, batch.actions, targets, 0)
            fd = central_differences(
                nets.critic.params,
                lambda: quantile_match_loss(nets.critic, batch.states, batch.actions, targets, 0),
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
        g1 = critic_gradient(nets, batch, 0, 0.99)
        g2 = critic_gradient(nets, doubled, 0, 0.99)
        npt.assert_allclose(g1.grad, g2.grad, atol=1e-15)
        assert g1.loss == pytest.approx(g2.loss, rel=1e-15)

    def test_terminal_transitions_bootstrap_zero(self):
        nets = _small_nets(32)
        rng = np.random.default_rng(33)
        batch = _random_batch(rng, nets, b=5)
        batch.done[:] = 1.0
        targets = td_targets(nets, batch, 0, gamma=0.97)
        npt.assert_allclose(targets, np.broadcast_to(batch.rewards[:, None], targets.shape))

    def test_target_critic_used_when_present(self):
        nets = _small_nets(34)
        rng = np.random.default_rng(35)
        batch = _random_batch(rng, nets, b=4)
        nets.target_critic = nets.critic.copy()
        t1 = td_targets(nets, batch, 0, 0.9)
        # degrade the live critic: targets must not move
        for w in nets.critic.params.weights:
            w += 0.5
        t2 = td_targets(nets, batch, 0, 0.9)
        npt.assert_allclose(t1, t2, atol=1e-15)


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


class TestFusedCriticGradient:
    def test_matches_per_signal_sum_exactly(self):
        from wavopt.dist_rl import critic_gradient_all

        for seed in (0, 4, 9):
            nets = _small_nets(seed, n_signals=3)
            rng = np.random.default_rng(100 + seed)
            batch = _random_batch(rng, nets, b=5)
            fused = critic_gradient_all(nets, batch, 0.97)

            parts = [critic_gradient(nets, batch, s, 0.97) for s in range(3)]
            f, s = fused.grad, sum(p.grad for p in parts)
            # one fused GEMM vs three summed GEMMs: identical up to
            # float summation order
            scale = max(1.0, float(np.max(np.abs(s))))
            assert np.max(np.abs(f - s)) <= 1e-13 * scale
            assert fused.loss == pytest.approx(sum(p.loss for p in parts), rel=1e-12)
            assert fused.delta_sup == pytest.approx(max(p.delta_sup for p in parts), rel=1e-12)
            assert fused.losses.shape == (3,)

    def test_uses_target_critic_when_present(self):
        from wavopt.dist_rl import critic_gradient_all

        nets = _small_nets(7, n_signals=2)
        rng = np.random.default_rng(8)
        batch = _random_batch(rng, nets, b=4)
        before = critic_gradient_all(nets, batch, 0.9).loss
        # perturbing the live critic must not move the frozen targets,
        # so the loss change comes only from the live forward pass
        for w in nets.critic.params.weights:
            w += 0.05
        after = critic_gradient_all(nets, batch, 0.9)
        assert after.loss != before
        assert np.all(np.isfinite(after.delta_sups))
