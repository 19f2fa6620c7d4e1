"""Constrained policy optimization: branch logic, tolerances, oracles.

The per-update rule is primal and switch-based.  Every update first
descends the quantile-matching critic loss for all signals (reward plus
each constraint utility).  Then exactly one actor direction is taken:

* if every estimated constraint objective J_g^i is within its bound
  plus the tolerance (non-strict), ascend the reward objective;
* otherwise descend the *lowest-indexed* violated constraint.

``tolerance_schedule`` shrinks the feasibility slack as training
progresses; its two calibration constants are equal and pinned so the
reference configuration (T = 1000 updates, batch 128, horizon scale 2,
gamma = 0.998) gets a tolerance of exactly 0.5.

``exact_improvement_report`` is a desk-scale oracle: on a tabular CMDP
it runs operator-based policy improvement with exact evaluation (linear
solves, no sampling).  For any strictly monotone reward operator the
selection rule equals greedy Q improvement, so state-action values are
pointwise non-decreasing and the run terminates at the optimum; a
non-monotone operator (the runner accepts any) generally breaks both,
and the report records the violations instead of hiding them.  Its gap
is measured to the optimum V* of ``wavopt.cmdp.value_iteration``, which
the report computes unless a caller that already has it for that CMDP
passes it in.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
import numpy as np

from . import nn
from .cmdp import TabularCmdp, exact_objective, exact_q_values, value_iteration
from .dist_rl import TransitionBatch, UpdateWorkspace, actor_gradient, critic_gradient_all
from .inference import PROBABILITY_FLOOR, RewardOperatorFamily
from .nets import PolicyNets

__all__ = [
    "C_CAL",
    "tolerance_schedule",
    "ObjectiveEstimate",
    "ACTION_GUARD",
    "estimate_objectives",
    "choose_branch",
    "policy_update_step",
    "ImprovementReport",
    "exact_improvement_report",
    "optimality_probabilities",
]

_ANCHOR = dict(t=1000, batch=128, horizon_scale=2, gamma=0.998)


def _tolerance(c: float, t: float, batch: float, horizon_scale: float, gamma: float) -> float:
    decay = 1.0 - gamma
    return c / (decay * math.sqrt(t)) + c / (decay * t * batch ** (horizon_scale / 4.0))

# both constants share one calibrated value: tolerance 0.5 at the anchor
C_CAL = 0.5 / _tolerance(1.0, **_ANCHOR)


def tolerance_schedule(t: int, batch: int = 128, horizon_scale: float = 2.0, gamma: float = 0.998) -> float:
    """Feasibility slack after t updates: C/((1-g) sqrt(t)) + C/((1-g) t m^(H/4)), C = ``C_CAL``."""
    if t < 1:
        raise ValueError("update count t must be >= 1")
    return _tolerance(C_CAL, t, batch, horizon_scale, gamma)


# -- Monte-Carlo objective estimation -------------------------------------------


@dataclass
class ObjectiveEstimate:
    """Discounted objectives from noise-free rollouts of a fixed policy."""

    reward: float
    constraints: np.ndarray
    episodes: int
    mean_steps: float


# a batched action this close to a discretisation boundary is recomputed
# on its own; block and one-state products differ by a few ulps at most
ACTION_GUARD = 1e-9


def estimate_objectives(env, actor, episodes: int, gamma: float, seed=0) -> ObjectiveEstimate:
    """Average discounted reward/utility returns over seeded episodes.

    ``actor`` maps states to continuous actions by two routes:
    ``act_batch`` on an (n, state_dim) block and ``act`` on one state.
    It is applied deterministically (no exploration noise), so the
    estimate is exact up to initial-state sampling.

    The episodes run side by side, each on its own copy of ``env``.
    Every start state is drawn from the ``seed`` stream up front, in
    episode order; an env's ``step`` must draw no random numbers, so
    these are the draws of episodes run one after another.  (An env
    whose steps draw would need a stream per episode.)  Each tick calls
    ``act_batch`` once on the live episodes' states.  A block's products
    may round a few ulps away from ``act``'s (1, d) products, and only
    the side of ``env.action_boundaries`` an action falls on reaches the
    env.  So an action within ``ACTION_GUARD`` of a boundary is
    recomputed by ``act`` on its own state, and every discrete action,
    hence every rollout, is the one-state route's bit for bit.  The
    discounted terms are summed episode by episode, step by step, so
    each total rounds as one running sum over the episodes in turn.
    """
    if episodes < 1:
        raise ValueError("need at least one episode")
    rng = np.random.default_rng(seed)
    envs = [copy.copy(env) for _ in range(episodes)]
    states = np.array([e.reset(rng=rng) for e in envs])
    boundaries = env.action_boundaries
    rewards = [[] for _ in envs]
    utilities = [[] for _ in envs]
    live = list(range(episodes))
    while live:
        block = states if len(live) == episodes else states[live]
        still = []
        for k, (i, a) in enumerate(zip(live, actor.act_batch(block)[:, 0].tolist())):
            if any(abs(a - b) <= ACTION_GUARD for b in boundaries):
                a = float(actor.act(block[k])[0])  # row k is read before this tick writes it
            states[i], r, g, done = envs[i].step(a)
            rewards[i].append(r)
            utilities[i].append(g)
            if not done:
                still.append(i)
        live = still

    # by accumulate, never a pairwise sum: each total adds its terms one
    # at a time from 0, episode after episode, as a sequential loop would
    steps = [len(r) for r in rewards]
    disc = np.multiply.accumulate(np.r_[1.0, np.full(max(steps) - 1, gamma)])
    terms_r = [disc[:n] * r for n, r in zip(steps, rewards)]
    terms_g = [disc[:n, None] * g for n, g in zip(steps, utilities)]
    total_r = np.add.accumulate(np.concatenate([[0.0], *terms_r]))[-1]
    total_g = np.add.accumulate(np.concatenate([np.zeros((1, env.n_constraints)), *terms_g]), axis=0)[-1]
    return ObjectiveEstimate(
        reward=float(total_r) / episodes,
        constraints=total_g / episodes,
        episodes=episodes,
        mean_steps=sum(steps) / episodes,
    )


# -- one optimization step -------------------------------------------------------


def choose_branch(estimates: np.ndarray, bounds: np.ndarray, tolerance: float) -> tuple[int, int]:
    """The update's actor direction: (0, +1) ascends the reward, (i, -1) descends constraint i.

    Feasible is the non-strict J_g^i <= b_i + tolerance for every i;
    otherwise the lowest-indexed violated constraint is descended.
    """
    violated = np.flatnonzero(estimates > bounds + tolerance)
    if violated.size == 0:
        return 0, 1
    return int(violated[0]) + 1, -1


def policy_update_step(
    nets: PolicyNets,
    batch: TransitionBatch,
    targets: np.ndarray,
    bounds: np.ndarray,
    constraint_estimates: np.ndarray,
    tolerance: float,
    critic_lr: float,
    actor_lr: float,
    raw_penalty: float = 0.0,
    *,
    critic_opt: nn.AdamState,
    actor_opt: nn.AdamState,
    workspace: UpdateWorkspace | None = None,
) -> int:
    """Adam descent of the critic TD loss on all signals, then one branched Adam actor step.

    ``targets`` are the batch's frozen ``td_targets`` (B, n_signals, N),
    computed by the caller under its target networks; the update reads
    them and computes none.  ``constraint_estimates`` are the current
    J_g^i estimates (decision inputs; the caller controls how they were
    produced).  ``choose_branch`` takes the actor direction from them,
    and the update returns its branch: 0 for reward ascent, i >= 1 for
    the descent of constraint i.

    ``raw_penalty`` > 0 additionally shrinks the actor's pre-squash
    action output (0.5 * c * raw^2 per sample), so the tanh never
    saturates past the point where its gradient can pull the action
    back.  The branch objective and the penalty share one actor
    forward and one actor backward (``actor_gradient``), so an update
    runs exactly two network backward passes: the critic's and the
    actor's.

    ``workspace``, built for these nets and batch size, takes every
    (batch, .) array of the update, so reusing one allocates none;
    ``targets`` may be its own ``targets``.  After the update those hold
    the critic step's signed differences, from which
    ``dist_rl.td_delta`` reads the update's TD delta, until the next
    update or ``td_targets`` through it.
    """
    bounds = np.asarray(bounds, dtype=float)
    est = np.asarray(constraint_estimates, dtype=float)
    if bounds.shape != est.shape:
        raise ValueError("bounds and constraint estimates must align")
    n_signals = nets.critic.n_signals
    if bounds.shape != (n_signals - 1,):
        raise ValueError("need one bound per constraint signal")

    grad = critic_gradient_all(nets, batch, targets, workspace)
    critic_opt.step(nets.critic.params, grad, critic_lr)
    nets.critic.drop_head()  # the actor gradient below recomputes it; later behaviour steps reuse it

    branch, sign = choose_branch(est, bounds, tolerance)
    descent = actor_gradient(nets, batch, branch, sign, raw_penalty, workspace)
    actor_opt.step(nets.actor.params, np.negative(descent, out=descent), actor_lr)
    return branch


# -- exact desk-scale improvement oracle ------------------------------------------


def optimality_probabilities(cmdp: TabularCmdp, q_values: np.ndarray) -> np.ndarray:
    """Map exact Q values into optimality probabilities in [``PROBABILITY_FLOOR``, 1].

    Rewards live in [0, 1], so Q is bracketed by [0, 1/(1-gamma)]; the
    affine rescaling of that bracket is clipped into the operator
    domain.
    """
    lo, hi = 0.0, 1.0 / (1.0 - cmdp.gamma)
    p = (np.asarray(q_values, dtype=float) - lo) / (hi - lo)
    return np.clip(p, PROBABILITY_FLOOR, 1.0)


@dataclass
class ImprovementReport:
    """Exact policy-improvement trace under an operator selection rule."""

    objectives: list
    policies: list
    q_monotone_violation: float
    final_gap: float
    iterations: int
    converged: bool


def exact_improvement_report(
    cmdp: TabularCmdp,
    family: RewardOperatorFamily,
    max_iters: int = 200,
    v_star: np.ndarray | None = None,
) -> ImprovementReport:
    """Run operator-based policy improvement with exact evaluation.

    The run starts from the all-zeros policy.  Selection at each state
    is argmax_a F(p(s, a)) with p the rescaled exact Q values and ties
    to the lowest action index.  All evaluation is by linear solves.
    The report records the worst one-iteration decrease of any
    state-action value (zero up to round-off for strictly monotone
    operators), the gap to the value-iteration optimum, and the full
    policy/objective trace.

    The optimum is V* of ``value_iteration(cmdp)``.  A caller that
    reports on one CMDP several times (``verify.check_improvement``
    runs several families on each) computes it once and passes it as
    ``v_star``; when it is None the report computes it.
    """
    policy = np.zeros(cmdp.n_states, dtype=int)

    if v_star is None:
        v_star, _ = value_iteration(cmdp)
    j_star = float(cmdp.initial_dist @ v_star)

    policies = [policy.copy()]
    objectives = [exact_objective(cmdp, policy, signal=0)]
    q_prev = exact_q_values(cmdp, policy, signal=0)
    worst_drop = 0.0
    converged = False
    iterations = 0

    for _ in range(max_iters):
        iterations += 1
        probs = optimality_probabilities(cmdp, q_prev)
        scores = family(probs)
        new_policy = np.argmax(scores, axis=1).astype(int)
        if np.array_equal(new_policy, policy):
            converged = True
            break
        policy = new_policy
        q_new = exact_q_values(cmdp, policy, signal=0)
        worst_drop = max(worst_drop, float(np.max(q_prev - q_new)))
        q_prev = q_new
        policies.append(policy.copy())
        objectives.append(exact_objective(cmdp, policy, signal=0))

    return ImprovementReport(
        objectives=objectives,
        policies=policies,
        q_monotone_violation=worst_drop,
        final_gap=j_star - objectives[-1],
        iterations=iterations,
        converged=converged,
    )
