"""The actor's one-state route against its batch route, and the critic's mean head."""

import numpy as np
import pytest

from wavopt import nn
from wavopt.nets import init_policy_nets


@pytest.mark.parametrize("hidden_layers", [0, 1, 2])
@pytest.mark.parametrize("action_dim", [1, 2])
def test_act_is_act_batch_on_one_state_bit_for_bit(hidden_layers, action_dim):
    rng = np.random.default_rng(40 + hidden_layers)
    nets = init_policy_nets(
        state_dim=4,
        action_dim=action_dim,
        hidden_width=32,
        hidden_layers=hidden_layers,
        n_quantiles=4,
        n_signals=3,
        rng=rng,
        feature_scale=rng.uniform(0.1, 2.0, size=4),
    )
    states = rng.normal(scale=3.0, size=(300, 4))
    for state in states:
        expect = nets.actor.act_batch(state[None, :])[0]
        got = nets.actor.act(state)
        assert got.shape == (action_dim,)
        assert got.tobytes() == expect.tobytes()
        assert nets.actor.act(state.tolist()).tobytes() == expect.tobytes()
    # the pin is not vacuous: the raw outputs leave [-1, 1], the actions do not
    assert np.abs(nets.actor.raw_forward(states)).max() > 1.0
    assert np.abs(nets.actor.act_batch(states)).max() <= 1.0


def _random_critic(seed, hidden_layers, n_signals, n_quantiles):
    rng = np.random.default_rng(seed)
    nets = init_policy_nets(
        state_dim=3,
        action_dim=1,
        hidden_width=int(rng.integers(1, 40)),
        hidden_layers=hidden_layers,
        n_quantiles=n_quantiles,
        n_signals=n_signals,
        rng=rng,
        feature_scale=rng.uniform(0.1, 2.0, size=3),
    )
    # biases away from zero, so the mean bias is not a sum of zeros
    nets.critic.params.biases[-1][...] = rng.normal(scale=5.0, size=n_signals * n_quantiles)
    return nets.critic, rng


@pytest.mark.parametrize("hidden_layers", [0, 1, 2])
@pytest.mark.parametrize("n_signals", [1, 2, 3])
@pytest.mark.parametrize("n_quantiles", [1, 7, 128, 200])
def test_mean_head_reads_the_atom_means(hidden_layers, n_signals, n_quantiles):
    # bound: 1e-12 of the largest atom, for reordered float64 sums of at
    # most a few hundred terms
    for seed in range(4):
        critic, rng = _random_critic(seed, hidden_layers, n_signals, n_quantiles)
        states, actions = rng.normal(scale=3.0, size=(50, 3)), rng.uniform(-1.0, 1.0, size=(50, 1))
        atoms = critic.forward_batch(states, actions)
        head_w, head_b = critic.mean_head()
        assert head_w.shape == (n_signals, critic.params.weights[-1].shape[1])
        assert head_b.shape == (n_signals,)
        means = nn.hidden_forward(critic.params, critic.inputs(states, actions)) @ head_w.T + head_b
        bound = 1e-12 * np.abs(atoms).max()
        assert np.abs(means - atoms.mean(axis=2)).max() <= bound

        # each row is the signal's block of output rows, summed, over N
        w, b = critic.params.weights[-1], critic.params.biases[-1]
        n = n_quantiles
        for s in range(n_signals):
            assert head_w[s].tobytes() == (w[s * n : (s + 1) * n].sum(axis=0) / n).tobytes()
            assert head_b[s] == b[s * n : (s + 1) * n].sum() / n


def test_mean_head_is_kept_until_dropped():
    critic, _ = _random_critic(0, 1, 3, 5)
    head_w, head_b = critic.mean_head()
    before = head_w.copy(), head_b.copy()
    critic.params.weights[-1][...] += 1.0
    critic.params.biases[-1][...] += 1.0
    assert critic.mean_head()[0].tobytes() == before[0].tobytes()
    assert critic.mean_head()[1].tobytes() == before[1].tobytes()
    critic.drop_head()
    np.testing.assert_allclose(critic.mean_head()[0], before[0] + 1.0, rtol=1e-12)
    np.testing.assert_allclose(critic.mean_head()[1], before[1] + 1.0, rtol=1e-12)
    # a copy computes its own head from its own parameters
    copy = critic.copy()
    copy.params.biases[-1][...] = 0.0
    assert not copy.mean_head()[1].any()
    assert critic.mean_head()[1].all()
