"""Dual-route checks on instances that once failed on correct code, the
gradient check's instance count and its stacked central differences, and
the contraction check's fixed-point loop."""

import numpy as np
import pytest

from coordinate_differences import coordinate_differences
from wavopt import nn, safe_rl, verify
from wavopt.cmdp import TabularCmdp, value_iteration
from wavopt.dist_rl import QuantileMap, bellman_operator, td_targets
from wavopt.envs import random_tabular_cmdp
from wavopt.verify import check_gradients, check_transport_vs_oracle


@pytest.mark.parametrize("seed", [17008, 63001])
def test_gradient_checks_avoid_relu_kinks(seed):
    # quick sizes: actor instance 17210 and critic instance 63103 sit
    # within the finite-difference step of a ReLU kink at attempt 0
    result = check_gradients(12, seed)
    assert result.passed, result.line()


def test_gradient_checks_avoid_swapping_critic_atoms():
    # pass 24 of the verify benchmark at --seed 1: at attempt 0, critic
    # instance 1126 has two sorted atoms 8.6e-6 apart, and the step of
    # the central differences swaps them (violation 4.5e-3)
    result = check_gradients(12, 1024)
    assert result.passed, result.line()


def test_transport_check_is_not_limited_by_the_lp_tolerance():
    # pass 42 of the verify benchmark at --seed 272: at HiGHS's default
    # 1e-7 feasibility tolerance one LP value was off by 7.3e-9 (> 1e-9)
    result = check_transport_vs_oracle(120, 272042)
    assert result.passed, result.line()


@pytest.mark.parametrize("instances", [1, 2, 12, 100])
def test_gradient_checks_run_exactly_the_requested_instances(monkeypatch, instances):
    paths = ("_fd_mlp_check", "_fd_critic_check", "_fd_actor_check")
    counts = dict.fromkeys(paths, 0)

    def counting(name):
        def check(seed):
            counts[name] += 1
            return 0.0

        return check

    for name in paths:
        monkeypatch.setattr(verify, name, counting(name))
    verify.check_gradients(instances)
    assert sum(counts.values()) == instances
    assert max(counts.values()) - min(counts.values()) <= 1


def _single_state_cmdp():
    return TabularCmdp(np.ones((1, 1, 1)), np.array([[0.7]]), np.zeros((1, 1, 1)), np.zeros(1), 0.9)


@pytest.mark.parametrize(
    "z, policy, cmdp",
    [
        (QuantileMap.zeros(1, 1, 8), np.zeros(1, dtype=int), _single_state_cmdp()),
        (QuantileMap.zeros(3, 2, 6), np.array([1, 0, 1]), random_tabular_cmdp(3, 2, 1, seed=5, gamma=0.8)),
    ],
)
def test_early_stopped_fixed_point_equals_500_iterations(monkeypatch, z, policy, cmdp):
    built, calls = [], []

    def counting(*args):
        built.append(1)
        operator = bellman_operator(*args)

        def apply(z):
            calls.append(1)
            return operator(z)

        return apply

    monkeypatch.setattr(verify, "bellman_operator", counting)
    early = verify._iterate_bellman(z, policy, cmdp, 500)
    full = z
    for _ in range(500):
        full = bellman_operator(policy, cmdp, full.n_quantiles)(full)
    assert early.atoms.tobytes() == full.atoms.tobytes()
    assert len(built) == 1
    assert 0 < len(calls) < 500


@pytest.mark.parametrize("n_runs", [1, 2, 4])
def test_improvement_check_runs_value_iteration_once_per_cmdp(monkeypatch, n_runs):
    calls = []

    def counting(cmdp, *args, **kwargs):
        calls.append(cmdp)
        return value_iteration(cmdp, *args, **kwargs)

    want = verify.check_improvement(3, n_runs=n_runs)
    monkeypatch.setattr(verify, "value_iteration", counting)
    monkeypatch.setattr(safe_rl, "value_iteration", counting)
    got = verify.check_improvement(3, n_runs=n_runs)
    # one per run; the control shares run 0's CMDP (2 in a quick pass, was 5)
    assert len(calls) == n_runs
    assert len({id(c) for c in calls}) == n_runs
    assert (got.report_line(), got.detail) == (want.report_line(), want.detail)


# -- stacked central differences against the coordinate loop ---------------------
#
# Each path builds the check's instance and returns the parameter vector,
# the stacked objective the check differentiates, and the scalar
# objective of the coordinate loop, which reads the vector in place
# through the production forward.


def _mlp_path(seed):
    params, x, rng = verify._kink_safe_mlp(seed)
    upstream = rng.normal(size=(3, params.layer_sizes[-1]))

    def objective():
        return float((nn.forward_batch(params, x) * upstream).sum())

    return params.flat, verify._mlp_objective(params, x, upstream), objective


def _critic_path(seed):
    nets, batch = verify._kink_safe_policy(seed, seed + 7777)
    targets = td_targets(nets, batch, 0.95)

    def loss():
        diff = np.sort(nets.critic.forward_batch(batch.states, batch.actions), axis=2) - targets
        return float(0.5 * (diff**2).mean(axis=2).mean(axis=0).sum())

    return nets.critic.params.flat, verify._critic_loss(nets.critic, batch, targets), loss


def _actor_path(seed):
    nets, batch = verify._kink_safe_policy(seed, seed + 3333)
    signal, sign, raw_penalty = verify._ACTOR_FOLD

    def objective():
        raw = nets.actor.raw_forward(batch.states)
        q = nets.critic.forward_batch(batch.states, np.tanh(raw))[:, signal, :].mean(axis=1)
        return float(sign * q.mean() - 0.5 * raw_penalty * (raw**2).sum(axis=1).mean())

    return nets.actor.params.flat, verify._actor_objective(nets, batch, *verify._ACTOR_FOLD), objective


@pytest.mark.parametrize("path", [_mlp_path, _critic_path, _actor_path], ids=["mlp", "critic", "actor"])
def test_stacked_differences_match_the_coordinate_loop_bitwise(path):
    for seed in range(30):
        theta, stacked, scalar = path(seed)
        before = theta.tobytes()
        fd = verify.central_differences(theta, stacked)
        assert theta.tobytes() == before, seed
        assert fd.tobytes() == coordinate_differences(theta, scalar).tobytes(), seed


def test_central_differences_read_theta_and_never_write_it():
    theta = np.array([0.5, -1.0, 2.0])
    stacks = []

    def objective(stack):
        assert not np.shares_memory(stack, theta)
        stacks.append(stack.copy())
        return (stack**2).sum(axis=1)

    fd = verify.central_differences(theta, objective, eps=0.25)
    assert theta.tolist() == [0.5, -1.0, 2.0]
    hi, lo = stacks
    np.testing.assert_array_equal(hi, theta + 0.25 * np.eye(3))
    np.testing.assert_array_equal(lo, theta - 0.25 * np.eye(3))
    np.testing.assert_allclose(fd, 2 * theta, rtol=1e-14)


# (layer sizes, batch) of the three gradient paths' networks: the raw MLP,
# and the small policy nets' critic and actor
@pytest.mark.parametrize("sizes, batch", [((4, 8, 8, 3), 3), ((4, 6, 8), 4), ((3, 6, 1), 4)])
def test_stacked_forward_at_theta_is_forward_batch(sizes, batch):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        params = nn.init_mlp(list(sizes), rng)
        x = rng.normal(size=(5, batch, sizes[0]))
        want = [nn.forward_batch(params, xp).tobytes() for xp in x]
        thetas = np.repeat(params.flat[None, :], 5, axis=0)
        # one batch for every row, a batch per row, one row for every batch
        shared = verify._stacked_forward(thetas, sizes, x[0])
        per_row = verify._stacked_forward(thetas, sizes, x)
        broadcast = verify._stacked_forward(params.flat[None, :], sizes, x)
        assert shared.shape == per_row.shape == broadcast.shape == (5, batch, sizes[-1])
        assert all(out.tobytes() == want[0] for out in shared)
        assert [out.tobytes() for out in per_row] == want
        assert [out.tobytes() for out in broadcast] == want


def test_tolerances_are_pinned_and_every_check_reports_its_own():
    # a looser tolerance has to be written here too
    assert verify.TOLERANCES == {
        "transport_vs_oracle": 1e-9,
        "pseudo_metric": 1e-9,
        "operator_contraction": 1e-12,
        "fixed_point": 1e-8,
        "projection_minimality": 1e-12,
        "gradient_checks": 1e-4,
        "exact_improvement": 1e-6,
        "optimum_gap": 1e-3,
        "ratio_reconstruction": 1e-15,
    }
    results = verify.run_all(full=False, seed=0)
    assert len(results) == 7
    for result in results:
        assert result.tolerance == verify.TOLERANCES[result.name], result.name


def test_gates_read_the_table(monkeypatch):
    # gradient_checks passes only strictly below its tolerance, the
    # others at it too
    worst = verify.check_gradients(3).max_violation
    monkeypatch.setitem(verify.TOLERANCES, "gradient_checks", worst)
    assert not verify.check_gradients(3).passed
    worst = verify.check_transport_vs_oracle(30).max_violation
    monkeypatch.setitem(verify.TOLERANCES, "transport_vs_oracle", worst)
    assert verify.check_transport_vs_oracle(30).passed
    # the second gates, which no report line shows
    assert verify.check_contraction(2).passed and verify.check_improvement(0, n_runs=1).passed
    monkeypatch.setitem(verify.TOLERANCES, "fixed_point", -1.0)
    monkeypatch.setitem(verify.TOLERANCES, "optimum_gap", -1.0)
    assert not verify.check_contraction(2).passed
    assert not verify.check_improvement(0, n_runs=1).passed
