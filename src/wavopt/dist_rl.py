"""Quantile distributional reinforcement learning.

A return distribution is represented by N equally weighted atoms at the
quantile midpoint levels tau_i = (2i - 1) / (2N), held as a sorted
array.  ``quantile_projection`` maps an arbitrary discrete measure to
this family by evaluating its generalized inverse CDF at the midpoints,
which is the W1-optimal N-atom uniform approximation.

``bellman_eval`` is the tabular distributional policy-evaluation operator
on a ``QuantileMap`` table of shape (nS, nA, N) for one signal (reward
or utility): the next-state mixture of shifted/scaled atom sets is built
exhaustively and re-projected.  Projection-after-operator is a
gamma-contraction in the sup-W_inf metric ``dbar`` (projection is a
W_inf non-expansion, the operator itself contracts), which the property
suite checks.

The network routines give the gradients of the constrained policy
update.  ``critic_gradient_all`` descends a quantile-matching
discrepancy summed over every signal: the mean squared difference
between the critic's sorted atoms and the frozen projected TD targets of
``td_targets``, whose minimizer over the N-atom family is exactly the W1
projection of the target.  ``actor_gradient`` chain-rules the critic's
atom mean for one signal through the action input in closed form: the
linear readout contributes one constant row, so only the critic's hidden
layers run, with input gradients and no weight gradients.  The actor's
raw-output penalty rides in the same single actor backward.

These three write every (batch, .) array into an ``UpdateWorkspace``: a
training run passes one to every update, and a call without one builds a
fresh one.  What a call returns through a passed workspace (targets,
gradients) is valid only until the next call with that workspace.
``critic_gradient_all`` also takes targets the caller computed: a
training run computes them once for the rows that several updates
between two target syncs draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .cmdp import TabularCmdp
from .measures import OneDMeasure, one_d_measure
from .nets import PolicyNets

__all__ = [
    "QuantileMap",
    "TransitionBatch",
    "midpoint_levels",
    "quantile_projection",
    "dbar",
    "bellman_eval",
    "UpdateWorkspace",
    "td_targets",
    "critic_gradient_all",
    "actor_gradient",
    "CriticEvalAll",
]


def midpoint_levels(n: int) -> np.ndarray:
    """Quantile levels (2i - 1) / (2N), i = 1..N."""
    if n < 1:
        raise ValueError("need at least one quantile atom")
    return (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)


def quantile_projection(m: OneDMeasure, n: int) -> np.ndarray:
    """W1-optimal N-atom uniform approximation: the sorted atoms, the
    inverse CDF at the midpoint levels."""
    return m.quantile(midpoint_levels(n))


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


def dbar(z1: QuantileMap, z2: QuantileMap) -> float:
    """sup over (s, a) of W_inf between the entry quantile distributions
    (the metric of the contraction result of Bellemare, Dabney & Munos,
    ICML 2017).

    For equal-count uniform atom sets W_inf is the largest gap between
    the sorted atoms, so this is the largest entrywise gap of the maps.
    """
    if z1.atoms.shape != z2.atoms.shape:
        raise ValueError("quantile maps must share shape")
    gaps = np.abs(z1.atoms - z2.atoms)
    return float(gaps.max()) if gaps.size else 0.0


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
            out[s, a] = quantile_projection(mix, n)
    return QuantileMap(out)


# ---------------------------------------------------------------------------
# Network gradients
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class TransitionBatch:
    """Replay minibatch of float arrays: states, actions, next_states and
    utilities (one column per constraint) are (B, .), rewards and done (B,)."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    utilities: np.ndarray
    next_states: np.ndarray
    done: np.ndarray

    def __post_init__(self) -> None:
        b = self.states.shape[0]
        if (
            self.actions.ndim != 2
            or self.actions.shape[0] != b
            or self.rewards.shape != (b,)
            or self.done.shape != (b,)
            or self.next_states.shape != self.states.shape
            or self.utilities.ndim != 2
            or self.utilities.shape[0] != b
        ):
            raise ValueError("batch fields must agree on the batch dimension")

    @property
    def size(self) -> int:
        return self.states.shape[0]


class UpdateWorkspace:
    """The (batch, .) arrays of one policy update for ``nets``' shapes.

    ``actor`` and ``critic`` are the networks' ``nn.LayerBuffers``
    (shared by the live and target forwards); ``targets`` holds the TD
    targets and then the sorted-minus-target block, ``upstream`` the
    sorted atoms and then the critic's output gradient; ``row_starts``
    is the flat offset of each (sample, signal) atom row.
    """

    def __init__(self, nets: PolicyNets, batch: int) -> None:
        critic = nets.critic
        n, n_signals = critic.n_quantiles, critic.n_signals
        self.actor = nn.LayerBuffers(nets.actor.params, batch)
        self.critic = nn.LayerBuffers(critic.params, batch)
        self.targets = np.empty((batch, n_signals, n))
        self.upstream = np.empty((batch, n_signals * n))
        self.row_starts = (np.arange(batch * n_signals) * n).reshape(batch, n_signals, 1)


def td_targets(nets: PolicyNets, batch: TransitionBatch, gamma: float, value_clip=None, workspace=None) -> np.ndarray:
    """Projected one-sample TD targets (B, n_signals, N), frozen w.r.t. the critic update.

    Signal 0 is the reward, signal i >= 1 utility i.  Bootstraps from the
    target critic at the target actor's next action; terminal
    transitions bootstrap zero.  When the per-step signal range is known,
    ``value_clip=(lo, hi)`` projects targets into the attainable value
    bracket, which removes the unbounded self-bootstrap drift mode.

    Each row's targets depend on that row alone, so a training run may
    compute them once per row for a stretch of updates and give each
    update its rows (``harness._top_up``).  That store is exact only
    where a row's bits do not depend on its position in a product of
    ``batch_size`` rows, so it runs full blocks only.  This holds for
    the pinned configs (batch 128 and 16) on OpenBLAS 0.3.31 at one
    thread; in products of 1-3, 7, 15, 17, 31, 127 or 129 rows, some
    rows' bits change with their position.
    """
    ws = workspace if workspace is not None else UpdateWorkspace(nets, batch.size)
    # the target forwards run through the live networks' buffers: the
    # same products as ``act_batch`` and ``forward_batch``, written in place
    actor, critic = nets.target_actor, nets.target_critic
    next_a, _ = nn.forward_batch_cached(actor.params, actor.scaled(batch.next_states), ws.actor)
    if actor.squash:
        np.tanh(next_a, out=next_a)
    nxt, _ = nn.forward_batch_cached(critic.params, critic.inputs(batch.next_states, next_a), ws.critic)
    nxt = nxt.reshape(ws.targets.shape)
    nxt.sort(axis=2)
    cont = (gamma * (1.0 - batch.done))[:, None, None]
    h = np.column_stack([batch.rewards, batch.utilities])
    targets = np.add(h[:, :, None], np.multiply(cont, nxt, out=ws.targets), out=ws.targets)
    if value_clip is not None:
        np.clip(targets, value_clip[0], value_clip[1], out=targets)
    return targets


@dataclass(eq=False)
class CriticEvalAll:
    grad: np.ndarray
    delta_sups: np.ndarray

    @property
    def delta_sup(self) -> float:
        return float(self.delta_sups.max())


def critic_gradient_all(
    nets: PolicyNets, batch: TransitionBatch, gamma: float, value_clip=None, workspace=None, targets=None
) -> CriticEvalAll:
    """Semi-gradient of the quantile-matching TD loss, summed over every signal.

    Per sample and signal the loss is (1 / 2N) * sum_j (sort(q)_j - T_j)^2
    against the frozen ``td_targets`` T, averaged over the batch and
    summed over the signals.  The gradient descends only through the
    current critic output.  ``delta_sups`` is the batch mean of the
    largest |sort(q)_j - T_j| per signal.

    ``targets``, when given, are the batch's ``td_targets`` (computed
    once for many updates, say) and the call overwrites them; otherwise
    they are computed here into the workspace.
    """
    critic, n = nets.critic, nets.critic.n_quantiles
    ws = workspace if workspace is not None else UpdateWorkspace(nets, batch.size)
    if targets is None:
        targets = td_targets(nets, batch, gamma, value_clip, ws)

    x = critic.inputs(batch.states, batch.actions)
    out_flat, cache = nn.forward_batch_cached(critic.params, x, ws.critic)
    # numpy's default argsort kind: its tie order decides the scatter.
    # Flat indices (offset + row start) gather and scatter in one step;
    # ``take``'s default mode="raise" would copy through a temporary.
    flat = np.argsort(out_flat.reshape(targets.shape), axis=2)
    flat += ws.row_starts
    # ``upstream`` holds the sorted atoms, then scratch for the reduction,
    # until the scatter fills it; the targets become the difference
    scratch = ws.upstream.reshape(targets.shape)
    diff = np.subtract(np.take(out_flat, flat, out=scratch, mode="clip"), targets, out=targets)
    delta_sups = np.abs(diff, out=scratch).max(axis=2).mean(axis=0)

    ws.upstream.reshape(-1)[flat] = np.divide(diff, n, out=diff)  # a view: scatters in place
    grad = nn.backward_batch(critic.params, cache, ws.upstream, reduce="mean", buffers=ws.critic)
    return CriticEvalAll(grad=grad, delta_sups=delta_sups)


def actor_gradient(
    nets: PolicyNets,
    batch: TransitionBatch,
    signal: int = 0,
    sign: float = 1.0,
    raw_penalty: float = 0.0,
    workspace=None,
) -> np.ndarray:
    """Gradient of the folded actor objective, in the layout of ``actor.params.flat``.

    The objective is sign * (1/B) sum_b mean_atoms Z_signal(s_b, pi(s_b))
    - (raw_penalty / 2) * (1/B) sum_b |raw_b|^2, where raw is the actor's
    pre-squash output.  The atom-mean readout is linear, so its gradient
    with respect to the critic's last hidden layer is one constant row,
    the mean of the signal's output-weight rows.  That row is pulled back
    through the hidden ReLUs (input gradients only, no weight gradients)
    to the action columns of the first layer, then chained through the
    tanh squash (when enabled) and, together with the penalty, through
    one actor backward.  Callers descend by negating the result.
    """
    actor, critic = nets.actor, nets.critic
    ws = workspace if workspace is not None else UpdateWorkspace(nets, batch.size)
    states = batch.states
    raw, actor_cache = nn.forward_batch_cached(actor.params, actor.scaled(states), ws.actor)
    a = np.tanh(raw) if actor.squash else raw

    weights, biases, cb = critic.params.weights, critic.params.biases, ws.critic
    n = critic.n_quantiles
    g = weights[-1][signal * n : (signal + 1) * n].sum(axis=0) / n
    h = critic.inputs(states, a)
    masks = []
    for l, (w, b) in enumerate(zip(weights[:-1], biases[:-1])):
        z = np.add(np.matmul(h, w.T, out=cb.pre[l]), b, out=cb.pre[l])
        masks.append(np.greater(z, 0.0, out=cb.mask[l]))
        h = np.maximum(z, 0.0, out=cb.act[l])
    for l in range(len(masks) - 1, 0, -1):
        g = np.matmul(np.multiply(g, masks[l], out=cb.act[l]), weights[l], out=cb.delta[l - 1])
    state_dim = states.shape[1]
    g_action = np.multiply(g, masks[0], out=cb.act[0]) @ weights[0][:, state_dim:] if masks else g[state_dim:]

    chain = (1.0 - a**2) if actor.squash else 1.0
    upstream = sign * g_action * chain - raw_penalty * raw
    return nn.backward_batch(actor.params, actor_cache, upstream, reduce="mean", buffers=ws.actor)
