"""Tabular constrained MDPs and exact evaluation routines.

A ``TabularCmdp`` bundles transition kernel, reward, utility (constraint
cost) matrices, constraint bounds, discount, and an initial-state
distribution.  Signals are indexed the same way everywhere in the
package: index 0 is the reward, index i in [1, p] is utility i.  One rule
per input kind: transition rows, ``initial_dist`` and stochastic policy rows
are probability vectors (``measures._as_weights``), and a deterministic
policy is one whole action in [0, nA) per state (``_deterministic_actions``).

Exact routines (linear solves, value iteration) serve two roles: they
drive the desk-scale policy-improvement runs and they act as independent
oracles for the sampled estimators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import WEIGHT_SUM_TOL, _as_weights

__all__ = [
    "TabularCmdp",
    "uniform_policy",
    "exact_state_values",
    "exact_q_values",
    "exact_objective",
    "value_iteration",
]

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
        shape = self.transitions.shape
        if len(shape) != 3 or shape[0] != shape[2] or 0 in shape:
            raise ValueError("transitions must have shape (nS, nA, nS) with nS, nA >= 1")
        ns, na, _ = shape
        if self.rewards.shape != (ns, na):
            raise ValueError("rewards must have shape (nS, nA)")
        if self.utilities.ndim != 3 or self.utilities.shape[1:] != (ns, na):
            raise ValueError("utilities must have shape (p, nS, nA)")
        if self.bounds.shape != (self.utilities.shape[0],):
            raise ValueError("one bound per utility required")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        self.transitions = _as_weights(self.transitions, shape, "transition rows")
        if not ((self.rewards >= -WEIGHT_SUM_TOL).all() and (self.rewards <= 1.0 + WEIGHT_SUM_TOL).all()):
            raise ValueError("rewards must lie within [0, 1]")
        for name, values in (("utilities", self.utilities), ("bounds", self.bounds)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
        self.initial_dist = _as_weights(self.initial_dist, (ns,), "initial_dist")

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


def _deterministic_actions(cmdp: TabularCmdp, policy) -> np.ndarray:
    """A deterministic policy's int actions: one whole action in [0, nA) per state (nan is not whole)."""
    pol = np.asarray(policy)
    if pol.shape != (cmdp.n_states,):
        raise ValueError("policy must be a deterministic action per state")
    whole = pol.dtype.kind in "biu" or np.array_equal(pol, np.trunc(pol))
    if not (whole and 0 <= pol.min() and pol.max() < cmdp.n_actions):
        raise ValueError(f"policy actions must be whole numbers in [0, {cmdp.n_actions})")
    return pol.astype(int)


def _policy_matrix(cmdp: TabularCmdp, policy) -> np.ndarray:
    """Deterministic actions (nS,) as a 0/1 matrix, or checked stochastic rows (nS, nA)."""
    pol = np.asarray(policy)
    if pol.ndim == 1:
        return np.eye(cmdp.n_actions)[_deterministic_actions(cmdp, pol)]
    return _as_weights(pol, (cmdp.n_states, cmdp.n_actions), "policy rows")


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

    Sweeps until no value moves by more than ``_VI_TOL`` = 1e-12, or raises after ``_VI_MAX_ITER`` = 1e6.
    """
    v = np.zeros(cmdp.n_states)
    for _ in range(_VI_MAX_ITER):
        q = cmdp.rewards + cmdp.gamma * cmdp.transitions @ v
        v, v_prev = q.max(axis=1), v
        if np.max(np.abs(v - v_prev)) <= _VI_TOL:
            break
    else:
        raise RuntimeError(f"value iteration did not converge within {_VI_MAX_ITER} sweeps at gamma={cmdp.gamma}")
    q = cmdp.rewards + cmdp.gamma * cmdp.transitions @ v
    return v, q
