"""Dual-route checks on instances that once failed on correct code, the
gradient check's instance count, and the contraction check's fixed-point loop."""

import numpy as np
import pytest

from wavopt import verify
from wavopt.cmdp import TabularCmdp
from wavopt.dist_rl import QuantileMap, bellman_eval
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
    calls = []

    def counting(*args):
        calls.append(1)
        return bellman_eval(*args)

    monkeypatch.setattr(verify, "bellman_eval", counting)
    early = verify._iterate_bellman(z, policy, cmdp, 500)
    full = z
    for _ in range(500):
        full = bellman_eval(full, policy, cmdp)
    assert early.atoms.tobytes() == full.atoms.tobytes()
    assert len(calls) < 500
