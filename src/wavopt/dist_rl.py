"""Quantile distributional reinforcement learning.

A return distribution is represented by N equally weighted atoms at the
quantile midpoint levels tau_i = (2i - 1) / (2N), held as a sorted
array.  ``quantile_projection`` maps an arbitrary discrete measure to
this family by evaluating its generalized inverse CDF at the midpoints,
which is the W1-optimal N-atom uniform approximation.

``bellman_operator`` is the tabular distributional policy-evaluation
operator on a ``QuantileMap`` table of shape (nS, nA, N) for one signal
(reward or utility), prepared once per policy, CMDP, N and signal: it
checks the policy and computes every array that does not depend on the
map, and returns ``apply(z)``.  An application builds the next-state
mixtures of shifted/scaled atom sets of every (s, a) as the rows of one
array and re-projects them together, with the bits of projecting each
on its own.  A caller that iterates it, or applies it to several maps,
prepares it once.
Projection-after-operator is a gamma-contraction in the sup-W_inf metric
``dbar`` (projection is a W_inf non-expansion, the operator itself
contracts), which the property suite checks.

The network routines give the gradients of the constrained policy
update.  ``critic_gradient_all`` descends a quantile-matching
discrepancy summed over every signal: the mean squared difference
between the critic's sorted atoms and the frozen projected TD targets of
``td_targets``.  For a deterministic target its minimizer over the
N-atom family is the target's W1 projection; with sampled targets it is
the atom-wise mean of the sorted targets, q_j = E[T_j], which is not in
general the W1 projection of their mixture.  ``actor_gradient``
chain-rules the critic's atom mean for one signal through the action
input in closed form: the linear readout contributes one constant row,
the signal's row of the critic's mean head (shared with the behaviour
step's candidate means), so only the critic's hidden layers run, with
input gradients and no weight gradients.  The actor's raw-output
penalty rides in the same single actor backward.

These three write every (batch, .) array into an ``UpdateWorkspace``: a
training run passes one to every update, and a call without one builds a
fresh one.  What a call returns through a passed workspace (targets,
gradients) is valid only until the next call with that workspace.
``critic_gradient_all`` takes its targets as an input and computes none:
a training run computes them per update, or once for the rows that
several updates between two target syncs draw (``harness._run_updates``).
It leaves the signed differences sort(q)_j - T_j in the workspace's
``targets``, where ``td_delta`` reads the update's TD delta until the
next ``td_targets`` or ``critic_gradient_all`` through that workspace: a
training run reads it once per curve row, not once per update.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import nn
from .cmdp import TabularCmdp, _deterministic_actions
from .measures import OneDMeasure
from .nets import PolicyNets

__all__ = [
    "QuantileMap",
    "TransitionBatch",
    "midpoint_levels",
    "quantile_projection",
    "dbar",
    "bellman_operator",
    "UpdateWorkspace",
    "td_targets",
    "critic_gradient_all",
    "td_delta",
    "actor_gradient",
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
        if not (np.isfinite(self.atoms).all() and (np.diff(self.atoms, axis=2) >= 0.0).all()):
            raise ValueError("atoms must be finite and sorted along the last axis")

    @classmethod
    def _sorted(cls, atoms: np.ndarray) -> "QuantileMap":
        """Wrap a float (nS, nA, N) array sorted along the last axis, skipping the checks."""
        m = cls.__new__(cls)
        m.atoms = atoms
        return m

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


def bellman_operator(
    policy, cmdp: TabularCmdp, n: int, signal: int = 0
) -> Callable[[QuantileMap], QuantileMap]:
    """Projected distributional policy-evaluation operator for one signal,
    prepared once for N-atom maps: returns ``apply(z)``.

    Entry (s, a) of ``apply(z)`` is the quantile projection of the
    next-state mixture h(s, a) + gamma * Z(s', policy(s')), s' ~ P(s, a),
    each atom of Z weighted P(s' | s, a) / N.  Every (s, a) row is built
    and projected at once: the positions and weights form one
    (nS * nA, nS * N) array, each row is stably sorted, its positive
    weights renormalized and cumulated, and the midpoint quantile is read
    at the count of cumulative weights below each level,
    ``searchsorted(c, u, "left")``.

    The policy is checked here, and everything that does not depend on
    ``z`` is computed here once: the signal column, the normalized
    mixture weights, the rows holding zero weights, the row starts, the
    bincount offsets, the midpoint levels and the (s, policy(s))
    selector.  ``apply`` refuses a map of another shape and non-finite
    mixture positions.  It reads the prepared arrays and writes none, so
    every application has the bits of a freshly prepared operator's.

    This is exactly ``quantile_projection(one_d_measure(...), N)`` on
    each row's positive-weight atoms.  The elementwise steps match, and
    a stable sort keeps the positive atoms in the order of sorting them
    alone.  A zero weight adds nothing to a cumulative sum, and the
    first cumulative weight at or above a level is never a zero's.  The
    renormalizing sums of a row with no zero are numpy's pairwise sums
    of the same contiguous row; only a row holding a zero sums its
    positive weights apart, since the zeros would shift the pairwise
    association.
    """
    ns, na = cmdp.n_states, cmdp.n_actions
    actions = _deterministic_actions(cmdp, policy)
    h = cmdp.signal_matrix(signal).reshape(-1, 1)
    levels = midpoint_levels(n)
    gamma = cmdp.gamma
    # flat indices of the atoms of (s, policy(s)), s = 0..nS-1, in order
    select = ((np.arange(ns) * na + actions)[:, None] * n + np.arange(n)).ravel()

    weights = np.repeat(cmdp.transitions.reshape(ns * na, ns), n, axis=1) / n
    # dividing by a sum within the CMDP's row tolerance of 1 makes no
    # positive weight zero, so these rows hold the zeros throughout
    held = np.flatnonzero((weights <= 0.0).any(axis=1))
    weights /= _positive_sums(weights, held)[:, None]
    rows, width = weights.shape
    starts = np.arange(0, rows * width, width)[:, None]
    offsets = np.arange(0, rows * (n + 1), n + 1)[:, None]

    def apply(z: QuantileMap) -> QuantileMap:
        if z.atoms.shape[:2] != (ns, na):
            raise ValueError(f"quantile map has (nS, nA) = {z.atoms.shape[:2]}, the CMDP {(ns, na)}")
        if z.n_quantiles != n:
            raise ValueError(f"quantile map has {z.n_quantiles} atoms per entry, the operator {n}")
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, in one line
            positions = h + gamma * z.atoms.take(select)
        if not np.isfinite(positions).all():
            raise ValueError("mixture positions must be finite")
        flat = positions.argsort(axis=1, kind="stable")
        flat += starts
        positions, w = positions.take(flat), weights.take(flat)
        c = (w / _positive_sums(w, held)[:, None]).cumsum(axis=1)
        c[:, -1] = 1.0
        for r in held:  # the last positive weight is pinned, and the zeros after it
            c[r, np.flatnonzero(w[r] > 0.0)[-1] :] = 1.0

        # level i reads #{j : c_j < u_i} = #{j : k_j <= i}, where
        # k_j = #{levels <= c_j}: each row's histogram of k, cumulated
        k = levels.searchsorted(c, side="right")
        k += offsets
        counts = np.bincount(k.ravel(), minlength=rows * (n + 1)).reshape(rows, n + 1)
        idx = counts[:, :n].cumsum(axis=1)
        idx += starts
        # each row's reads are nondecreasing in its sorted positions
        return QuantileMap._sorted(positions.take(idx).reshape(ns, na, n))

    return apply


def _positive_sums(w: np.ndarray, held: np.ndarray) -> np.ndarray:
    """Row sums of ``w``; the ``held`` rows, which hold zeros, sum their
    positive entries alone."""
    sums = w.sum(axis=1)
    for r in held:
        sums[r] = w[r][w[r] > 0.0].sum()
    return sums


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
    (shared by the live and target forwards); ``row_starts`` is the flat
    offset of each (sample, signal) atom row.  ``targets`` holds the TD
    targets (B, n_signals, N) until ``critic_gradient_all`` reads them;
    it then holds that update's signed differences sort(q)_j - T_j, each
    at its atom's unsorted position, until the next ``td_targets`` or
    ``critic_gradient_all`` through this workspace (``td_delta`` reads
    them).  ``upstream`` holds the targets at their atoms' positions and
    then the critic's output gradient, the differences divided by N.
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
    compute them once per row for a stretch of updates between two
    target syncs and give each update its rows (``harness._run_updates``).  That store is exact only
    where a row's bits do not depend on its position in a product of
    ``batch_size`` rows, so it runs full blocks only.  This holds for
    the pinned configs (batch 128 and 16) on OpenBLAS 0.3.31 at one
    thread; in products of 1-3, 7, 15, 17, 31, 127 or 129 rows, some
    rows' bits change with their position.
    """
    ws = workspace if workspace is not None else UpdateWorkspace(nets, batch.size)
    # the target forwards run through the live networks' buffers, which
    # fit the targets' shapes
    actor, critic = nets.target_actor, nets.target_critic
    next_a = nn.forward_batch(actor.params, actor.scaled(batch.next_states), ws.actor)
    np.tanh(next_a, out=next_a)
    nxt = nn.forward_batch(critic.params, critic.inputs(batch.next_states, next_a), ws.critic)
    nxt = nxt.reshape(ws.targets.shape)
    nxt.sort(axis=2)
    cont = (gamma * (1.0 - batch.done))[:, None, None]
    h = np.column_stack([batch.rewards, batch.utilities])
    targets = np.add(h[:, :, None], np.multiply(cont, nxt, out=ws.targets), out=ws.targets)
    if value_clip is not None:
        np.clip(targets, value_clip[0], value_clip[1], out=targets)
    return targets


def critic_gradient_all(nets: PolicyNets, batch: TransitionBatch, targets: np.ndarray, workspace=None) -> np.ndarray:
    """Semi-gradient of the quantile-matching TD loss, summed over every signal.

    Per sample and signal the loss is (1 / 2N) * sum_j (sort(q)_j - T_j)^2
    against the given frozen targets T (B, n_signals, N), the batch's
    ``td_targets``, averaged over the batch and summed over the signals.
    The gradient descends only through the current critic output; it is
    returned in the layout of ``critic.params.flat``, a view of the
    workspace.  ``targets`` may be the workspace's own ``targets``.

    Each target T_j is scattered to the unsorted position of the j-th
    smallest atom, so q - T there is sort(q)_j - T_j.  The workspace's
    ``targets`` then hold those signed differences, in the atoms' order,
    until the next ``td_targets`` or ``critic_gradient_all`` through it:
    ``td_delta`` reads them.
    """
    critic, n = nets.critic, nets.critic.n_quantiles
    ws = workspace if workspace is not None else UpdateWorkspace(nets, batch.size)

    x = critic.inputs(batch.states, batch.actions)
    out = nn.forward_batch(critic.params, x, ws.critic).reshape(ws.targets.shape)
    # numpy's default argsort kind: its tie order decides which atom
    # takes which target.  Flat indices (offset + row start) scatter
    # every row in one step, through a view of ``upstream``.
    flat = np.argsort(out, axis=2)
    flat += ws.row_starts
    ws.upstream.reshape(-1)[flat] = targets
    placed = ws.upstream.reshape(ws.targets.shape)
    diff = np.subtract(out, placed, out=ws.targets)
    np.divide(diff, n, out=placed)
    return nn.backward_batch(critic.params, x, ws.upstream, ws.critic, reduce="mean")


def td_delta(workspace: UpdateWorkspace) -> float:
    """The TD delta of the last ``critic_gradient_all`` through ``workspace``.

    Per signal, the batch mean of the largest |sort(q)_j - T_j|; the
    largest over the signals.  It reads the signed differences the call
    left in ``workspace.targets``, so it holds only until the next
    ``td_targets`` or ``critic_gradient_all`` through that workspace.
    """
    return float(np.abs(workspace.targets).max(axis=2).mean(axis=0).max())


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
    the mean of the signal's output-weight rows: the signal's row of the
    critic's mean head (``CriticNet.mean_head``), which the behaviour
    step reads too.  That row is pulled back through the hidden ReLUs
    (input gradients only, no weight gradients) to the action columns of
    the first layer, then chained through the tanh squash and, together
    with the penalty, through one actor backward.  Callers descend by
    negating the result.
    """
    actor, critic = nets.actor, nets.critic
    ws = workspace if workspace is not None else UpdateWorkspace(nets, batch.size)
    states = batch.states
    x = actor.scaled(states)
    raw = nn.forward_batch(actor.params, x, ws.actor)
    a = np.tanh(raw)

    # the critic's hidden layers only; its ReLU masks are read from the
    # pre-activations, as ``nn.backward_batch`` reads them
    nn.hidden_forward(critic.params, critic.inputs(states, a), ws.critic)
    weights, cb, state_dim = critic.params.weights, ws.critic, states.shape[1]
    g = critic.mean_head()[0][signal]
    for l in range(len(cb.act) - 1, -1, -1):
        g = np.multiply(g, np.greater(cb.pre[l], 0.0, out=cb.mask[l]), out=cb.act[l])
        g = np.matmul(g, weights[l], out=cb.delta[l - 1]) if l else g @ weights[0][:, state_dim:]
    g_action = g if cb.act else g[state_dim:]

    upstream = sign * g_action * (1.0 - a**2) - raw_penalty * raw
    return nn.backward_batch(actor.params, x, upstream, ws.actor, reduce="mean")
