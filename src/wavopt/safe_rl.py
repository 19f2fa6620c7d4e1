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
and the report records the violations instead of hiding them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import nn
from .cmdp import TabularCmdp, exact_objective, exact_q_values, value_iteration
from .dist_rl import TransitionBatch, UpdateWorkspace, actor_gradient, critic_gradient_all
from .inference import RewardOperatorFamily
from .nets import PolicyNets

__all__ = [
    "C_CAL",
    "tolerance_schedule",
    "ObjectiveEstimate",
    "estimate_objectives",
    "UpdateInfo",
    "policy_update_step",
    "ImprovementReport",
    "exact_improvement_report",
    "optimality_probabilities",
]

_ANCHOR = dict(t=1000, batch=128, horizon_scale=2, gamma=0.998)


def _raw_tolerance(t: float, batch: float, horizon_scale: float, gamma: float) -> float:
    decay = 1.0 - gamma
    return 1.0 / (decay * math.sqrt(t)) + 1.0 / (decay * t * batch ** (horizon_scale / 4.0))

# both constants share one calibrated value: tolerance 0.5 at the anchor
C_CAL = 0.5 / _raw_tolerance(**_ANCHOR)


def tolerance_schedule(t: int, batch: int = 128, horizon_scale: float = 2.0, gamma: float = 0.998) -> float:
    """Feasibility slack after t updates: C/((1-g) sqrt(t)) + C/((1-g) t m^(H/4)), C = ``C_CAL``."""
    if t < 1:
        raise ValueError("update count t must be >= 1")
    decay = 1.0 - gamma
    return C_CAL / (decay * math.sqrt(t)) + C_CAL / (decay * t * batch ** (horizon_scale / 4.0))


# -- Monte-Carlo objective estimation -------------------------------------------


@dataclass
class ObjectiveEstimate:
    """Discounted objectives from noise-free rollouts of a fixed policy."""

    reward: float
    constraints: np.ndarray
    episodes: int
    mean_steps: float


def estimate_objectives(env, policy: Callable, episodes: int, gamma: float, seed=0) -> ObjectiveEstimate:
    """Average discounted reward/utility returns over seeded episodes.

    ``policy`` maps a state to a continuous action and is applied
    deterministically (no exploration noise), so the estimate is exact
    up to initial-state sampling.
    """
    if episodes < 1:
        raise ValueError("need at least one episode")
    rng = np.random.default_rng(seed)
    total_r = 0.0
    total_g = np.zeros(env.n_constraints)
    total_steps = 0
    for _ in range(episodes):
        state = env.reset(rng=rng)
        done = False
        disc = 1.0
        while not done:
            state, r, g, done = env.step(policy(state))
            total_r += disc * r
            total_g += disc * g
            disc *= gamma
            total_steps += 1
    return ObjectiveEstimate(
        reward=total_r / episodes,
        constraints=total_g / episodes,
        episodes=episodes,
        mean_steps=total_steps / episodes,
    )


# -- one optimization step -------------------------------------------------------


@dataclass
class UpdateInfo:
    """What one update did: 0 = reward ascent, i >= 1 = constraint-i descent."""

    branch: int
    td_delta: float


def policy_update_step(
    nets: PolicyNets,
    batch: TransitionBatch,
    bounds: np.ndarray,
    constraint_estimates: np.ndarray,
    tolerance: float,
    critic_lr: float,
    actor_lr: float,
    gamma: float,
    value_clip=None,
    raw_penalty: float = 0.0,
    *,
    critic_opt: nn.AdamState,
    actor_opt: nn.AdamState,
    workspace: UpdateWorkspace | None = None,
    targets: np.ndarray | None = None,
) -> UpdateInfo:
    """Adam descent of the critic TD loss on all signals, then one branched Adam actor step.

    ``constraint_estimates`` are the current J_g^i estimates (decision
    inputs; the caller controls how they were produced).  Feasibility is
    the non-strict test J_g^i <= b_i + tolerance for every i.

    ``raw_penalty`` > 0 additionally shrinks the actor's pre-squash
    action output (0.5 * c * raw^2 per sample), so the tanh never
    saturates past the point where its gradient can pull the action
    back.  The branch objective and the penalty share one actor
    forward and one actor backward (``actor_gradient``), so an update
    runs exactly two network backward passes: the critic's and the
    actor's.

    ``workspace``, built for these nets and batch size, takes every
    (batch, .) array of the update, so reusing one allocates none.
    ``targets``, when given, are the batch's ``td_targets``, which the
    update then does not compute (and overwrites).
    """
    bounds = np.asarray(bounds, dtype=float)
    est = np.asarray(constraint_estimates, dtype=float)
    if bounds.shape != est.shape:
        raise ValueError("bounds and constraint estimates must align")
    n_signals = nets.critic.n_signals
    if bounds.shape != (n_signals - 1,):
        raise ValueError("need one bound per constraint signal")

    ev = critic_gradient_all(nets, batch, gamma, value_clip, workspace, targets)
    critic_opt.step(nets.critic.params, ev.grad, critic_lr)
    nets.critic.drop_head()  # the actor gradient below recomputes it; later behaviour steps reuse it

    violated = np.flatnonzero(est > bounds + tolerance)
    if violated.size == 0:
        branch, sign = 0, 1
    else:
        branch, sign = int(violated[0]) + 1, -1  # lowest violated index
    descent = actor_gradient(nets, batch, branch, sign, raw_penalty, workspace)
    actor_opt.step(nets.actor.params, np.negative(descent, out=descent), actor_lr)
    return UpdateInfo(branch, ev.delta_sup)


# -- exact desk-scale improvement oracle ------------------------------------------


def optimality_probabilities(cmdp: TabularCmdp, q_values: np.ndarray, p_floor: float = 1e-6) -> np.ndarray:
    """Map exact Q values into optimality probabilities in [p_floor, 1].

    Rewards live in [0, 1], so Q is bracketed by [0, 1/(1-gamma)]; the
    affine rescaling of that bracket is clipped into the operator
    domain.
    """
    lo, hi = 0.0, 1.0 / (1.0 - cmdp.gamma)
    p = (np.asarray(q_values, dtype=float) - lo) / (hi - lo)
    return np.clip(p, p_floor, 1.0)


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
) -> ImprovementReport:
    """Run operator-based policy improvement with exact evaluation.

    The run starts from the all-zeros policy.  Selection at each state
    is argmax_a F(p(s, a)) with p the rescaled exact Q values and ties
    to the lowest action index.  All evaluation is by linear solves.
    The report records the worst one-iteration decrease of any
    state-action value (zero up to round-off for strictly monotone
    operators), the gap to the value-iteration optimum, and the full
    policy/objective trace.
    """
    policy = np.zeros(cmdp.n_states, dtype=int)

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
        probs = optimality_probabilities(cmdp, q_prev, family.p_floor)
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
