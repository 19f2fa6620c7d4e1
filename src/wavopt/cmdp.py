"""Tabular constrained MDPs and exact evaluation routines.

A ``TabularCmdp`` bundles transition kernel, reward, utility (constraint
cost) matrices, constraint bounds, discount, and an initial-state
distribution.  Signals are indexed the same way everywhere in the
package: index 0 is the reward, index i in [1, p] is utility i.

Exact routines (linear solves, value iteration) serve two roles: they
drive the desk-scale policy-improvement runs and they act as independent
oracles for the sampled estimators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TabularCmdp",
    "uniform_policy",
    "exact_state_values",
    "exact_q_values",
    "exact_objective",
    "value_iteration",
]

_ROW_TOL = 1e-12
_VI_TOL, _VI_MAX_ITER = 1e-12, 1_000_000


@dataclass(eq=False)
class TabularCmdp:
    """Finite CMDP: transitions (nS, nA, nS), rewards in [0, 1] (nS, nA), utilities (p, nS, nA)."""

    transitions: np.ndarray
    rewards: np.ndarray
    utilities: np.ndarray
    bounds: np.ndarray
    gamma: float
    initial_dist: np.ndarray = None

    def __post_init__(self) -> None:
        self.transitions = np.asarray(self.transitions, dtype=float)
        self.rewards = np.asarray(self.rewards, dtype=float)
        self.utilities = np.asarray(self.utilities, dtype=float)
        self.bounds = np.atleast_1d(np.asarray(self.bounds, dtype=float))
        if self.transitions.ndim != 3 or self.transitions.shape[0] != self.transitions.shape[2]:
            raise ValueError("transitions must have shape (nS, nA, nS)")
        ns, na, _ = self.transitions.shape
        if self.rewards.shape != (ns, na):
            raise ValueError("rewards must have shape (nS, nA)")
        if self.utilities.ndim != 3 or self.utilities.shape[1:] != (ns, na):
            raise ValueError("utilities must have shape (p, nS, nA)")
        if self.bounds.shape != (self.utilities.shape[0],):
            raise ValueError("one bound per utility required")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        row_sums = self.transitions.sum(axis=2)
        if np.max(np.abs(row_sums - 1.0)) > _ROW_TOL:
            raise ValueError("transition rows must sum to 1")
        if np.any(self.transitions < 0):
            raise ValueError("transition probabilities must be non-negative")
        if np.any(self.rewards < -_ROW_TOL) or np.any(self.rewards > 1.0 + _ROW_TOL):
            raise ValueError("rewards must lie within [0, 1]")
        if self.initial_dist is None:
            self.initial_dist = np.full(ns, 1.0 / ns)
        else:
            self.initial_dist = np.asarray(self.initial_dist, dtype=float)
            if self.initial_dist.shape != (ns,) or abs(self.initial_dist.sum() - 1.0) > _ROW_TOL:
                raise ValueError("initial_dist must be a distribution over states")

    @property
    def n_states(self) -> int:
        return self.transitions.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transitions.shape[1]

    @property
    def n_utilities(self) -> int:
        return self.utilities.shape[0]

    def signal_matrix(self, i: int) -> np.ndarray:
        """Per-(s, a) signal: reward for i = 0, utility i for i in [1, p]."""
        if i == 0:
            return self.rewards
        if 1 <= i <= self.n_utilities:
            return self.utilities[i - 1]
        raise ValueError(f"signal index {i} out of range [0, {self.n_utilities}]")


def uniform_policy(cmdp: TabularCmdp) -> np.ndarray:
    return np.full((cmdp.n_states, cmdp.n_actions), 1.0 / cmdp.n_actions)


def _policy_matrix(cmdp: TabularCmdp, policy) -> np.ndarray:
    """Accept a deterministic action vector (nS,) or a stochastic (nS, nA) matrix."""
    pol = np.asarray(policy)
    if pol.ndim == 1:
        mat = np.zeros((cmdp.n_states, cmdp.n_actions))
        mat[np.arange(cmdp.n_states), pol.astype(int)] = 1.0
        return mat
    if pol.shape != (cmdp.n_states, cmdp.n_actions):
        raise ValueError("policy must be (nS,) actions or (nS, nA) probabilities")
    return pol


def exact_state_values(cmdp: TabularCmdp, policy, signal: int = 0) -> np.ndarray:
    """V_pi for the given signal via the linear system (I - gamma P_pi) V = h_pi."""
    pol = _policy_matrix(cmdp, policy)
    h = cmdp.signal_matrix(signal)
    p_pi = np.einsum("sa,san->sn", pol, cmdp.transitions)
    h_pi = np.einsum("sa,sa->s", pol, h)
    v = np.linalg.solve(np.eye(cmdp.n_states) - cmdp.gamma * p_pi, h_pi)
    return v


def exact_q_values(cmdp: TabularCmdp, policy, signal: int = 0) -> np.ndarray:
    v = exact_state_values(cmdp, policy, signal)
    return cmdp.signal_matrix(signal) + cmdp.gamma * cmdp.transitions @ v


def exact_objective(cmdp: TabularCmdp, policy, signal: int = 0) -> float:
    """J = E_{s ~ initial_dist}[V_pi(s)] for the given signal."""
    return float(cmdp.initial_dist @ exact_state_values(cmdp, policy, signal))


def value_iteration(cmdp: TabularCmdp):
    """Optimal (unconstrained) V*, Q* for the reward signal; oracle routine.

    Sweeps until no value moves by more than ``_VI_TOL`` = 1e-12, at most ``_VI_MAX_ITER`` = 1e6 times.
    """
    v = np.zeros(cmdp.n_states)
    for _ in range(_VI_MAX_ITER):
        q = cmdp.rewards + cmdp.gamma * cmdp.transitions @ v
        v_next = q.max(axis=1)
        if np.max(np.abs(v_next - v)) <= _VI_TOL:
            v = v_next
            break
        v = v_next
    q = cmdp.rewards + cmdp.gamma * cmdp.transitions @ v
    return v, q
