"""Quantile distributional reinforcement learning.

A return distribution is represented by N equally weighted atoms at the
quantile midpoint levels tau_i = (2i - 1) / (2N).  ``quantile_projection``
maps an arbitrary discrete measure to this family by evaluating its
generalized inverse CDF at the midpoints, which is the W1-optimal N-atom
uniform approximation.

Tabular operators act on ``QuantileMap`` tables of shape (nS, nA, N),
one table per signal (reward or utility):

* ``bellman_eval`` - distributional policy-evaluation operator followed
  by the quantile projection: the next-state mixture of shifted/scaled
  atom sets is built exhaustively and re-projected.
* ``bellman_opt``  - same, bootstrapping from the greedy action of the
  atom means (ties to the lowest index).
* ``td_update``    - single-transition stochastic version: atoms move a
  fraction l_td toward the projected one-sample target; the logged Delta
  is the sup distance between projected target and current atoms.

The composition projection-after-operator is a gamma-contraction in the
sup-Wasserstein metric ``dbar`` (projection is a W_inf non-expansion,
the operator itself contracts), which the property suite checks.

Network routines (``critic_gradient``, ``actor_gradient``) provide the
gradients used by the constrained policy updates: the critic descends a
quantile-matching discrepancy (mean squared difference between its
sorted atoms and the projected TD target, whose minimizer over the
N-atom family is exactly the W1 projection of the target), and the actor
chain-rules the critic's atom mean through the action input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .cmdp import TabularCmdp
from .measures import OneDMeasure, one_d_measure
from .nets import PolicyNets

__all__ = [
    "QuantileDistribution",
    "QuantileMap",
    "TransitionBatch",
    "midpoint_levels",
    "quantile_projection",
    "dbar",
    "bellman_eval",
    "bellman_opt",
    "td_update",
    "td_targets",
    "quantile_match_loss",
    "quantile_match_grad",
    "critic_gradient",
    "critic_gradient_all",
    "actor_gradient",
    "CriticEval",
    "CriticEvalAll",
]


def midpoint_levels(n: int) -> np.ndarray:
    """Quantile levels (2i - 1) / (2N), i = 1..N."""
    if n < 1:
        raise ValueError("need at least one quantile atom")
    return (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)


@dataclass(eq=False)
class QuantileDistribution:
    """N equally weighted atoms, sorted ascending."""

    atoms: np.ndarray

    def __post_init__(self) -> None:
        self.atoms = np.asarray(self.atoms, dtype=float).ravel()
        if self.atoms.size == 0:
            raise ValueError("need at least one atom")
        if not np.all(np.isfinite(self.atoms)):
            raise ValueError("atoms must be finite")
        if np.any(np.diff(self.atoms) < 0):
            raise ValueError("atoms must be sorted ascending")

    @property
    def n(self) -> int:
        return self.atoms.size

    def mean(self) -> float:
        return float(self.atoms.mean())

    def to_measure(self) -> OneDMeasure:
        return one_d_measure(self.atoms)


def quantile_projection(m: OneDMeasure, n: int) -> QuantileDistribution:
    """W1-optimal N-atom uniform approximation: inverse CDF at midpoints."""
    return QuantileDistribution(m.quantile(midpoint_levels(n)))


@dataclass(eq=False)
class QuantileMap:
    """Per-(state, action) quantile atoms for one signal: (nS, nA, N)."""

    atoms: np.ndarray

    def __post_init__(self) -> None:
        self.atoms = np.asarray(self.atoms, dtype=float)
        if self.atoms.ndim != 3:
            raise ValueError("atoms must have shape (nS, nA, N)")
        if np.any(np.diff(self.atoms, axis=2) < 0):
            raise ValueError("atoms must be sorted along the last axis")

    @staticmethod
    def zeros(n_states: int, n_actions: int, n_quantiles: int) -> "QuantileMap":
        return QuantileMap(np.zeros((n_states, n_actions, n_quantiles)))

    @property
    def n_quantiles(self) -> int:
        return self.atoms.shape[2]

    def get(self, s: int, a: int) -> QuantileDistribution:
        return QuantileDistribution(self.atoms[s, a].copy())

    def means(self) -> np.ndarray:
        return self.atoms.mean(axis=2)

    def copy(self) -> "QuantileMap":
        return QuantileMap(self.atoms.copy())


def _as_map_list(z) -> list:
    if isinstance(z, QuantileMap):
        return [z]
    return list(z)


def dbar(z1, z2, k=math.inf) -> float:
    """sup over (s, a, signal) of W_k between the entry quantile distributions.

    For equal-count uniform atom sets W_k is the power mean of the sorted
    coordinate gaps, and W_inf their maximum.
    """
    maps1, maps2 = _as_map_list(z1), _as_map_list(z2)
    if len(maps1) != len(maps2):
        raise ValueError("maps must pair up")
    kk = float(k)
    if math.isnan(kk) or kk < 1.0:
        raise ValueError("order k must be >= 1 or inf")
    worst = 0.0
    for m1, m2 in zip(maps1, maps2):
        if m1.atoms.shape != m2.atoms.shape:
            raise ValueError("quantile maps must share shape")
        gaps = np.abs(m1.atoms - m2.atoms)
        if math.isinf(kk):
            val = float(gaps.max()) if gaps.size else 0.0
        else:
            val = float(((gaps**kk).mean(axis=2) ** (1.0 / kk)).max())
        worst = max(worst, val)
    return worst


def _mixture_target(z: QuantileMap, cmdp: TabularCmdp, h: np.ndarray, next_actions: np.ndarray, s: int, a: int) -> OneDMeasure:
    """Exhaustive next-state mixture h(s,a) + gamma * Z(s', a'(s')) as a 1-D measure."""
    n = z.n_quantiles
    boot = z.atoms[np.arange(cmdp.n_states), next_actions, :]  # (nS, N)
    positions = h[s, a] + cmdp.gamma * boot.ravel()
    weights = np.repeat(cmdp.transitions[s, a], n) / n
    keep = weights > 0.0
    return one_d_measure(positions[keep], weights[keep] / weights[keep].sum())


def bellman_eval(z: QuantileMap, policy, cmdp: TabularCmdp, signal: int = 0) -> QuantileMap:
    """Projected distributional policy-evaluation operator for one signal."""
    pol = np.asarray(policy, dtype=int)
    if pol.shape != (cmdp.n_states,):
        raise ValueError("policy must be a deterministic action per state")
    h = cmdp.signal_matrix(signal)
    n = z.n_quantiles
    out = np.empty_like(z.atoms)
    for s in range(cmdp.n_states):
        for a in range(cmdp.n_actions):
            mix = _mixture_target(z, cmdp, h, pol, s, a)
            out[s, a] = quantile_projection(mix, n).atoms
    return QuantileMap(out)


def bellman_opt(z: QuantileMap, cmdp: TabularCmdp) -> QuantileMap:
    """Projected distributional optimality operator (reward signal).

    Bootstraps each next state from its mean-greedy action; argmax ties
    resolve to the lowest action index.
    """
    greedy = np.argmax(z.means(), axis=1)
    h = cmdp.rewards
    n = z.n_quantiles
    out = np.empty_like(z.atoms)
    for s in range(cmdp.n_states):
        for a in range(cmdp.n_actions):
            mix = _mixture_target(z, cmdp, h, greedy, s, a)
            out[s, a] = quantile_projection(mix, n).atoms
    return QuantileMap(out)


def td_update(zeta: QuantileMap, transition, signal: int, l_td: float, cmdp: TabularCmdp, policy):
    """One stochastic TD move on a single observed transition (s, a, s').

    The one-sample target is h(s, a) + gamma * zeta(s', pi(s')) (already an
    N-atom uniform set, so its quantile projection is itself); atoms step
    a fraction ``l_td`` toward it.  Returns the updated map and the logged
    Delta = sup_j |target_j - atom_j| (the W_inf gap between the projected
    target and the current projected distribution).
    """
    if not 0.0 <= l_td <= 1.0:
        raise ValueError("l_td must lie in [0, 1]")
    s, a, s_next = (int(v) for v in transition)
    pol = np.asarray(policy, dtype=int)
    h = cmdp.signal_matrix(signal)
    target = h[s, a] + cmdp.gamma * zeta.atoms[s_next, pol[s_next], :]
    current = zeta.atoms[s, a, :]
    delta = float(np.max(np.abs(target - current)))
    out = zeta.copy()
    # convex combination of two sorted vectors, entrywise: stays sorted
    out.atoms[s, a, :] = current + l_td * (target - current)
    return out, delta


# ---------------------------------------------------------------------------
# Network gradients
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class TransitionBatch:
    """Replay minibatch; utilities has one column per constraint."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    utilities: np.ndarray
    next_states: np.ndarray
    done: np.ndarray

    def __post_init__(self) -> None:
        b = self.states.shape[0]
        self.actions = np.atleast_2d(np.asarray(self.actions, dtype=float))
        if self.actions.shape[0] != b:
            self.actions = self.actions.T
        self.rewards = np.asarray(self.rewards, dtype=float).ravel()
        self.done = np.asarray(self.done, dtype=float).ravel()
        self.utilities = np.atleast_2d(np.asarray(self.utilities, dtype=float))
        if (
            self.rewards.shape != (b,)
            or self.done.shape != (b,)
            or self.next_states.shape != self.states.shape
            or self.utilities.shape[0] != b
        ):
            raise ValueError("batch fields must agree on the batch dimension")

    @property
    def size(self) -> int:
        return self.states.shape[0]

    def signal_values(self, signal: int) -> np.ndarray:
        if signal == 0:
            return self.rewards
        return self.utilities[:, signal - 1]


def td_targets(
    nets: PolicyNets, batch: TransitionBatch, signal: int, gamma: float, value_clip=None
) -> np.ndarray:
    """Projected one-sample TD targets (B, N), frozen w.r.t. the critic update.

    Bootstraps from the target critic (and target actor) when present,
    else the live networks; terminal transitions bootstrap zero.  When
    the per-step signal range is known, ``value_clip=(lo, hi)`` projects
    targets into the attainable value bracket, which removes the
    unbounded self-bootstrap drift mode.
    """
    boot = nets.bootstrap_critic()
    next_a = nets.bootstrap_actor().act_batch(batch.next_states)
    nxt = boot.forward_batch(batch.next_states, next_a)[:, signal, :]
    nxt = np.sort(nxt, axis=1)
    h = batch.signal_values(signal)
    cont = 1.0 - batch.done
    t = h[:, None] + gamma * cont[:, None] * nxt
    if value_clip is not None:
        t = np.clip(t, value_clip[0], value_clip[1])
    return t


def quantile_match_loss(critic, states, actions, targets: np.ndarray, signal: int) -> float:
    """Batch-mean quantile discrepancy against frozen projected targets.

    Per sample: (1 / 2N) * sum_j (sort(q)_j - T_j)^2.  The minimizer over
    N-atom uniform distributions is the W1-optimal quantile projection of
    the target, attained exactly when the sorted critic atoms equal the
    target atoms.
    """
    out = critic.forward_batch(states, actions)[:, signal, :]
    diff = np.sort(out, axis=1) - targets
    return float(0.5 * (diff**2).mean(axis=1).mean())


def quantile_match_grad(critic, states, actions, targets: np.ndarray, signal: int):
    """(loss, critic parameter gradient, per-sample sup gap) for the matching loss."""
    x = critic.inputs(states, actions)
    out_flat, cache = nn.forward_batch_cached(critic.params, x)
    b = out_flat.shape[0]
    n = critic.n_quantiles
    out = out_flat.reshape(b, critic.n_signals, n)[:, signal, :]
    order = np.argsort(out, axis=1)
    diff = np.take_along_axis(out, order, axis=1) - targets
    loss = float(0.5 * (diff**2).mean(axis=1).mean())
    sup_gap = np.max(np.abs(diff), axis=1)

    upstream_block = np.zeros_like(out)
    np.put_along_axis(upstream_block, order, diff / n, axis=1)
    upstream = np.zeros_like(out_flat)
    upstream[:, signal * n : (signal + 1) * n] = upstream_block
    grad, _ = nn.backward_batch(critic.params, cache, upstream, reduce="mean")
    return loss, grad, sup_gap


@dataclass(eq=False)
class CriticEval:
    grad: np.ndarray
    loss: float
    delta_sup: float


def critic_gradient(
    nets: PolicyNets, batch: TransitionBatch, signal: int, gamma: float, value_clip=None
) -> CriticEval:
    """Semi-gradient of the quantile-matching TD loss for one signal.

    Targets are computed once (frozen) from the bootstrap critic, so the
    returned gradient descends only through the current critic output.
    """
    targets = td_targets(nets, batch, signal, gamma, value_clip)
    loss, grad, sup_gap = quantile_match_grad(
        nets.critic, batch.states, batch.actions, targets, signal
    )
    return CriticEval(grad=grad, loss=loss, delta_sup=float(sup_gap.mean()))


@dataclass(eq=False)
class CriticEvalAll:
    grad: np.ndarray
    loss: float
    losses: np.ndarray
    delta_sups: np.ndarray

    @property
    def delta_sup(self) -> float:
        return float(self.delta_sups.max())


def critic_gradient_all(
    nets: PolicyNets, batch: TransitionBatch, gamma: float, value_clip=None
) -> CriticEvalAll:
    """Summed quantile-matching semi-gradient over every signal at once.

    Mathematically identical to summing ``critic_gradient`` over
    signals (the backward pass is linear in the upstream), but the
    bootstrap forward, actor forward, live forward, and backward each
    run once instead of once per signal.
    """
    critic = nets.critic
    boot = nets.bootstrap_critic()
    n, n_signals = critic.n_quantiles, critic.n_signals
    b = batch.size

    next_a = nets.bootstrap_actor().act_batch(batch.next_states)
    nxt = np.sort(boot.forward_batch(batch.next_states, next_a), axis=2)
    cont = (gamma * (1.0 - batch.done))[:, None, None]
    h = np.stack([batch.signal_values(s) for s in range(n_signals)], axis=1)
    targets = h[:, :, None] + cont * nxt
    if value_clip is not None:
        targets = np.clip(targets, value_clip[0], value_clip[1])

    x = critic.inputs(batch.states, batch.actions)
    out_flat, cache = nn.forward_batch_cached(critic.params, x)
    out = out_flat.reshape(b, n_signals, n)
    order = np.argsort(out, axis=2)
    diff = np.take_along_axis(out, order, axis=2) - targets

    losses = 0.5 * (diff**2).mean(axis=2).mean(axis=0)
    delta_sups = np.abs(diff).max(axis=2).mean(axis=0)

    upstream = np.zeros_like(out)
    np.put_along_axis(upstream, order, diff / n, axis=2)
    grad, _ = nn.backward_batch(critic.params, cache, upstream.reshape(b, -1), reduce="mean")
    return CriticEvalAll(grad=grad, loss=float(losses.sum()), losses=losses, delta_sups=delta_sups)


def actor_gradient(nets: PolicyNets, batch: TransitionBatch, signal: int = 0) -> np.ndarray:
    """Deterministic policy-gradient direction through the critic atom mean.

    d/d theta_mu (1/B) sum_b mean_atoms Z_signal(s_b, pi(s_b)): the critic's
    input gradient with respect to the action coordinates is chained
    through the actor (including the tanh action squash when enabled).
    Returned in the layout of ``actor.params.flat``; ascent or descent
    is chosen by the caller through the sign it applies.
    """
    actor, critic = nets.actor, nets.critic
    states = batch.states
    raw, actor_cache = nn.forward_batch_cached(actor.params, actor.scaled(states))
    a = np.tanh(raw) if actor.squash else raw

    x = critic.inputs(states, a)
    _, critic_cache = nn.forward_batch_cached(critic.params, x)
    n = critic.n_quantiles
    upstream = np.zeros((states.shape[0], critic.n_signals * n))
    upstream[:, signal * n : (signal + 1) * n] = 1.0 / n
    _, d_input = nn.backward_batch(critic.params, critic_cache, upstream, reduce="mean")
    g_action = d_input[:, states.shape[1] :]

    chain = (1.0 - a**2) if actor.squash else 1.0
    return nn.backward_batch(actor.params, actor_cache, g_action * chain, reduce="mean")[0]
