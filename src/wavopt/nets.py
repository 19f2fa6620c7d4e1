"""Actor and critic containers built on the explicit-backprop MLP.

The actor maps a (feature-scaled) state to ``action_dim`` raw outputs,
one per action coordinate, tanh-squashed to [-1, 1].

The critic maps ``[scaled state | action]`` to ``n_signals * n_quantiles``
outputs, reshaped to one block of quantile atoms per signal (signal 0 is
the reward, signal i >= 1 is utility i).  A signal's atom mean is linear
in the last hidden layer, so the critic's mean head, the per-signal
average of its output rows and biases, reads every signal's mean with
one (width, n_signals) product.  The behaviour step and the actor
gradient both read the means through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn

__all__ = ["ActorNet", "CriticNet", "PolicyNets", "init_policy_nets"]


@dataclass(eq=False)
class ActorNet:
    params: nn.MlpParams
    action_dim: int
    feature_scale: np.ndarray

    def scaled(self, states: np.ndarray) -> np.ndarray:
        return np.atleast_2d(states) * self.feature_scale

    def raw_forward(self, states: np.ndarray) -> np.ndarray:
        return nn.forward_batch(self.params, self.scaled(states))

    def act_batch(self, states: np.ndarray) -> np.ndarray:
        return np.tanh(self.raw_forward(states))

    def act(self, state) -> np.ndarray:
        """``act_batch`` on one state: the same (1, d) products, without
        the batch route's conversions."""
        return np.tanh(nn.forward_batch(self.params, (state * self.feature_scale)[None, :])[0])

    def copy(self) -> "ActorNet":
        return ActorNet(self.params.copy(), self.action_dim, self.feature_scale)


@dataclass(eq=False)
class CriticNet:
    params: nn.MlpParams
    n_signals: int
    n_quantiles: int
    feature_scale: np.ndarray
    _head: tuple | None = field(default=None, init=False, repr=False)

    def inputs(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        s = np.atleast_2d(states) * self.feature_scale
        a = np.atleast_2d(actions)
        return np.concatenate([s, a], axis=1)

    def forward_batch(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """(B, n_signals, n_quantiles) atom blocks; not sorted."""
        out = nn.forward_batch(self.params, self.inputs(states, actions))
        return out.reshape(out.shape[0], self.n_signals, self.n_quantiles)

    def mean_head(self) -> tuple[np.ndarray, np.ndarray]:
        """The (n_signals, width) mean output rows and (n_signals,) mean biases.

        ``hidden @ w.T + b`` gives each signal's atom mean, equal to the
        mean of ``forward_batch``'s atoms up to round-off.  Computed on
        the first read and kept until ``drop_head``, which whoever
        changes ``params`` in place calls.
        """
        if self._head is None:
            n, w, b = self.n_quantiles, self.params.weights[-1], self.params.biases[-1]
            self._head = (w.reshape(self.n_signals, n, -1).sum(axis=1) / n, b.reshape(-1, n).sum(axis=1) / n)
        return self._head

    def drop_head(self) -> None:
        """Forget the mean head; the next ``mean_head`` recomputes it."""
        self._head = None

    def copy(self) -> "CriticNet":
        return CriticNet(self.params.copy(), self.n_signals, self.n_quantiles, self.feature_scale)


@dataclass(eq=False)
class PolicyNets:
    """Actor/critic pair plus frozen target copies of both.

    The targets start as copies of the live networks; TD targets
    bootstrap from them, and ``sync_target`` refreshes them.
    """

    actor: ActorNet
    critic: CriticNet
    target_critic: CriticNet = field(init=False)
    target_actor: ActorNet = field(init=False)

    def __post_init__(self) -> None:
        self.target_critic = self.critic.copy()
        self.target_actor = self.actor.copy()

    def sync_target(self) -> None:
        """Copy the live parameters into the target vectors; no one reads the target critic's mean head."""
        np.copyto(self.target_critic.params.flat, self.critic.params.flat)
        np.copyto(self.target_actor.params.flat, self.actor.params.flat)


def init_policy_nets(
    state_dim: int,
    action_dim: int,
    hidden_width: int,
    hidden_layers: int,
    n_quantiles: int,
    n_signals: int,
    rng,
    feature_scale=None,
) -> PolicyNets:
    """Seeded construction of both networks; deterministic given the generator."""
    rng = np.random.default_rng(rng)
    scale = np.ones(state_dim) if feature_scale is None else np.asarray(feature_scale, dtype=float)
    if scale.shape != (state_dim,):
        raise ValueError("feature_scale must have one entry per state dimension")
    hidden = [hidden_width] * hidden_layers
    actor = ActorNet(
        params=nn.init_mlp([state_dim] + hidden + [action_dim], rng),
        action_dim=action_dim,
        feature_scale=scale,
    )
    critic = CriticNet(
        params=nn.init_mlp([state_dim + action_dim] + hidden + [n_signals * n_quantiles], rng),
        n_signals=n_signals,
        n_quantiles=n_quantiles,
        feature_scale=scale,
    )
    return PolicyNets(actor=actor, critic=critic)
