"""The actor's one-state route against its batch route."""

import numpy as np
import pytest

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
