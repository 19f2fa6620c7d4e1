"""Benchmark environments: constrained cartpole, acrobot, random tabular CMDPs.

Both physics tasks expose a pure single-step function (state in, state
out, no hidden mutable state) plus a thin episode wrapper that adds the
step cap, seeded resets, and the continuous-to-discrete action mapping
used by the deterministic actor (sign / thresholds on a scalar in
[-1, 1], at the ``action_boundaries`` each env declares).  Only a reset
draws random numbers; a step draws none.

Cartpole (classic constants: 1.0 kg cart, 0.1 kg pole, 0.5 m half
length, +-10 N force, dt = 0.02 s, semi-implicit Euler):

* reward +1 per surviving step;
* utility g1 = 1 when the cart position lies in one of five closed
  penalty zones [-2.4,-2.2], [-1.3,-1.1], [-0.1,0.1], [1.1,1.3],
  [2.2,2.4];
* utility g2 = 1 when |pole angle| exceeds 6 degrees;
* termination when |pole angle| exceeds 12 degrees or at the step cap
  (250); the cart position is clamped to [-2.4, 2.4] and wall contact
  does not terminate.

Acrobot (two unit-mass, unit-length links, RK4 integration):

* reward 1 when the tip height -cos(th1) - cos(th1 + th2) exceeds 0.5;
* utility g1 = 1 when torque is applied while link-1 angular velocity is
  negative (anticlockwise);
* utility g2 = 1 when link 2 rotates anticlockwise relative to link 1
  (negative relative angular velocity); both indicators read the
  pre-step velocities (the conditions hold "while" the torque acts);
* episodes run to the step cap (500).

The unactuated acrobot conserves total mechanical energy; the RK4 drift
over a full episode is checked in the test suite against a 1% budget.
"""

from __future__ import annotations

import math

import numpy as np

from .cmdp import TabularCmdp, exact_objective, uniform_policy
from .nn import TrainingError

__all__ = [
    "CARTPOLE_ZONES",
    "cartpole_step",
    "cartpole_zone_penalty",
    "cartpole_angle_penalty",
    "acrobot_step",
    "acrobot_tip_height",
    "CartpoleEnv",
    "AcrobotEnv",
    "random_tabular_cmdp",
    "ENVS",
    "make_env",
]

# a curve row's cumulative episode return starts here (``run_training``)
RETURN_START = -250.0

# -- cartpole ---------------------------------------------------------------

GRAVITY = 9.8
CART_MASS = 1.0
POLE_MASS = 0.1
TOTAL_MASS = CART_MASS + POLE_MASS
POLE_HALF_LENGTH = 0.5
POLE_MASS_LENGTH = POLE_MASS * POLE_HALF_LENGTH
FORCE_MAG = 10.0
X_LIMIT = 2.4
ANGLE_SOFT_LIMIT = 6.0 * math.pi / 180.0
ANGLE_HARD_LIMIT = 12.0 * math.pi / 180.0

CARTPOLE_ZONES = (
    (-2.4, -2.2),
    (-1.3, -1.1),
    (-0.1, 0.1),
    (1.1, 1.3),
    (2.2, 2.4),
)


def cartpole_zone_penalty(x: float) -> int:
    """1 when the cart position lies in a closed penalty zone."""
    for lo, hi in CARTPOLE_ZONES:
        if lo <= x <= hi:
            return 1
    return 0


def cartpole_angle_penalty(theta: float) -> int:
    """1 when the pole leans more than 6 degrees from vertical."""
    return 1 if abs(theta) > ANGLE_SOFT_LIMIT else 0


def cartpole_step(state: np.ndarray, action: int, dt: float = 0.02):
    """One semi-implicit Euler step of the cart-pole.

    ``state`` is (x, x_dot, theta, theta_dot); ``action`` is 0 (push
    left) or 1 (push right).  Returns ``(next_state, reward, g, done)``
    where ``g = (zone penalty, angle penalty)`` evaluated on the new
    state and ``done`` reflects the 12-degree failure condition only
    (the episode wrapper adds the step cap).  Raises ``TrainingError``
    when the step overflows or leaves a non-finite state (too large a
    ``dt`` makes the integrator diverge).
    """
    if action not in (0, 1):
        raise ValueError("cartpole action must be 0 or 1")
    x, x_dot, theta, theta_dot = np.asarray(state, dtype=float).tolist()
    force = FORCE_MAG if action == 1 else -FORCE_MAG
    try:
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        temp = (force + POLE_MASS_LENGTH * theta_dot**2 * sin_t) / TOTAL_MASS
    except (OverflowError, ValueError):
        # the power overflowed, or cos met an infinite angle: fail the check
        cos_t = sin_t = temp = math.nan
    theta_acc = (GRAVITY * sin_t - cos_t * temp) / (
        POLE_HALF_LENGTH * (4.0 / 3.0 - POLE_MASS * cos_t**2 / TOTAL_MASS)
    )
    x_acc = temp - POLE_MASS_LENGTH * theta_acc * cos_t / TOTAL_MASS

    # semi-implicit: velocities first, positions with the new velocities
    x_dot += dt * x_acc
    theta_dot += dt * theta_acc
    x += dt * x_dot
    theta += dt * theta_dot
    if not (math.isfinite(x) and math.isfinite(x_dot) and math.isfinite(theta) and math.isfinite(theta_dot)):
        raise TrainingError(f"Euler integration diverged at dt = {dt!r}")
    x = min(max(x, -X_LIMIT), X_LIMIT)

    nxt = np.array([x, x_dot, theta, theta_dot])
    g = (cartpole_zone_penalty(x), cartpole_angle_penalty(theta))
    done = abs(theta) > ANGLE_HARD_LIMIT
    return nxt, 1.0, g, done


# -- acrobot ------------------------------------------------------------------

LINK_MASS = 1.0
LINK_LENGTH = 1.0
LINK_COM = 0.5
LINK_INERTIA = 1.0
ACROBOT_TORQUES = (-1.0, 0.0, 1.0)
ACROBOT_HEIGHT_GOAL = 0.5


# the constant prefixes of the equations of motion, each the same
# left-to-right product or sum the written-out expression evaluates
# first, so every derivative keeps its bits
_M, _L1, _LC, _I = LINK_MASS, LINK_LENGTH, LINK_COM, LINK_INERTIA
_D1_HEAD = _M * _LC**2
_D1_INNER = _L1**2 + _LC**2
_D1_COS = 2 * _L1 * _LC
_D1_TAIL = 2 * _I
_D2_INNER = _LC**2
_D2_COS = _L1 * _LC
_PHI1_SQ = -_M * _L1 * _LC
_PHI1_CROSS = 2 * _M * _L1 * _LC
_PHI1_GRAV = (_M * _LC + _M * _L1) * GRAVITY
_PHI2_GRAV = _M * _LC * GRAVITY
_DDTH2_SQ = _M * _L1 * _LC
_DDTH2_DEN = _M * _LC**2 + _I
_HALF_PI = math.pi / 2


def _acrobot_derivs(th1: float, th2: float, dth1: float, dth2: float, torque: float) -> tuple:
    """Time derivatives of (th1, th2, dth1, dth2) under ``torque``."""
    cos2, sin2 = math.cos(th2), math.sin(th2)
    d1 = _D1_HEAD + _M * (_D1_INNER + _D1_COS * cos2) + _D1_TAIL
    d2 = _M * (_D2_INNER + _D2_COS * cos2) + _I
    phi2 = _PHI2_GRAV * math.cos(th1 + th2 - _HALF_PI)
    phi1 = (
        _PHI1_SQ * dth2**2 * sin2
        - _PHI1_CROSS * dth2 * dth1 * sin2
        + _PHI1_GRAV * math.cos(th1 - _HALF_PI)
        + phi2
    )
    ddth2 = (torque + d2 / d1 * phi1 - _DDTH2_SQ * dth1**2 * sin2 - phi2) / (_DDTH2_DEN - d2**2 / d1)
    ddth1 = -(d2 * ddth2 + phi1) / d1
    return dth1, dth2, ddth1, ddth2


def _wrap_angle(a: float) -> float:
    return (a + math.pi) % (2 * math.pi) - math.pi


def acrobot_tip_height(state: np.ndarray) -> float:
    th1, th2 = float(state[0]), float(state[1])
    return -math.cos(th1) - math.cos(th1 + th2)


def acrobot_step(state: np.ndarray, action: int, dt: float = 0.02):
    """One RK4 step of the acrobot.

    ``state`` is (th1, th2, dth1, dth2) with angles measured from the
    hanging position; ``action`` indexes the torque set (-1, 0, +1) on
    the second joint.  Constraint indicators read the pre-step
    velocities.  Returns ``(next_state, reward, g, done=False)``; raises
    ``TrainingError`` when the step overflows or leaves a non-finite
    state (too large a ``dt`` makes the integrator diverge).
    """
    if action not in (0, 1, 2):
        raise ValueError("acrobot action must be 0, 1, or 2")
    torque = ACROBOT_TORQUES[action]
    th1, th2, dth1, dth2 = np.asarray(state, dtype=float).tolist()

    g1 = 1 if (torque != 0.0 and dth1 < 0.0) else 0
    g2 = 1 if dth2 < 0.0 else 0

    # RK4 on Python floats, in the operation order of the array form:
    # s + (0.5 * dt) * k and s + (dt / 6.0) * (((k1 + 2 k2) + 2 k3) + k4)
    h = 0.5 * dt
    try:
        a1, a2, a3, a4 = _acrobot_derivs(th1, th2, dth1, dth2, torque)
        b1, b2, b3, b4 = _acrobot_derivs(th1 + h * a1, th2 + h * a2, dth1 + h * a3, dth2 + h * a4, torque)
        c1, c2, c3, c4 = _acrobot_derivs(th1 + h * b1, th2 + h * b2, dth1 + h * b3, dth2 + h * b4, torque)
        d1, d2, d3, d4 = _acrobot_derivs(th1 + dt * c1, th2 + dt * c2, dth1 + dt * c3, dth2 + dt * c4, torque)
        sixth = dt / 6.0
        th1 += sixth * (a1 + 2 * b1 + 2 * c1 + d1)
        th2 += sixth * (a2 + 2 * b2 + 2 * c2 + d2)
        dth1 += sixth * (a3 + 2 * b3 + 2 * c3 + d3)
        dth2 += sixth * (a4 + 2 * b4 + 2 * c4 + d4)
    except (OverflowError, ValueError):
        # a power overflowed, or cos met an infinite angle: fail the check
        th1 = math.nan
    if not (math.isfinite(th1) and math.isfinite(th2) and math.isfinite(dth1) and math.isfinite(dth2)):
        raise TrainingError(f"RK4 integration diverged at dt = {dt!r}")
    th1, th2 = _wrap_angle(th1), _wrap_angle(th2)

    reward = 1.0 if acrobot_tip_height((th1, th2)) > ACROBOT_HEIGHT_GOAL else 0.0
    return np.array([th1, th2, dth1, dth2]), reward, (g1, g2), False


# -- episode wrappers ---------------------------------------------------------


class _EpisodeEnv:
    """Shared step-cap and reset logic for the physics tasks."""

    state_dim = 4
    n_constraints = 2

    def __init__(self, dt: float, max_steps: int):
        self.dt = dt
        self.max_steps = max_steps
        self._state = None
        self._steps = 0

    def reset(self, rng) -> np.ndarray:
        """Start an episode from an initial state drawn with ``rng`` (a generator or a seed)."""
        self._state = self._initial_state(np.random.default_rng(rng))
        self._steps = 0
        return self._state.copy()

    def step(self, action: float):
        if self._state is None:
            raise RuntimeError("call reset() before step()")
        discrete = self.discretize(action)
        try:
            nxt, r, g, failed = self._pure_step(self._state, discrete)
        except TrainingError as exc:
            raise TrainingError(f"{self.name} step {self._steps + 1}: {exc}") from None
        self._state = nxt
        self._steps += 1
        done = bool(failed or self._steps >= self.max_steps)
        return nxt.copy(), r, np.array(g, dtype=float), done


class CartpoleEnv(_EpisodeEnv):
    """Constrained cartpole; continuous scalar actions map to force sign."""

    name = "cartpole"
    # fixed input normalization for the networks (position, velocity,
    # angle, angular velocity ranges)
    feature_scale = np.array([1.0 / 2.4, 1.0 / 3.0, 1.0 / ANGLE_HARD_LIMIT, 1.0 / 3.0])

    def __init__(self, dt: float = 0.02, max_steps: int = 250):
        super().__init__(dt, max_steps)

    def _initial_state(self, rng) -> np.ndarray:
        return rng.uniform(-0.05, 0.05, size=4)

    # where ``discretize`` changes value: push right from 0 up
    action_boundaries = (0.0,)

    def discretize(self, action: float) -> int:
        return 1 if float(action) >= self.action_boundaries[0] else 0

    def _pure_step(self, state, discrete):
        return cartpole_step(state, discrete, self.dt)


class AcrobotEnv(_EpisodeEnv):
    """Constrained acrobot; continuous scalar actions map to torque thirds."""

    name = "acrobot"
    feature_scale = np.array([1.0 / math.pi, 1.0 / math.pi, 1.0 / (4 * math.pi), 1.0 / (9 * math.pi)])

    def __init__(self, dt: float = 0.02, max_steps: int = 500):
        super().__init__(dt, max_steps)

    def _initial_state(self, rng) -> np.ndarray:
        return rng.uniform(-0.1, 0.1, size=4)

    # where ``discretize`` changes value: no torque on the closed middle third
    action_boundaries = (-1.0 / 3.0, 1.0 / 3.0)

    def discretize(self, action: float) -> int:
        a = float(action)
        lo, hi = self.action_boundaries
        if a < lo:
            return 0
        if a > hi:
            return 2
        return 1

    def _pure_step(self, state, discrete):
        return acrobot_step(state, discrete, self.dt)


# -- generators ----------------------------------------------------------------


def random_tabular_cmdp(n_states: int, n_actions: int, n_constraints: int, seed, gamma: float = 0.9) -> TabularCmdp:
    """Random CMDP with normalized-uniform rows and feasible bounds.

    Bounds are set so a uniformly random policy satisfies every
    constraint with margin: b_i = 1.1 * J_g^i(uniform) + 0.01.
    """
    rng = np.random.default_rng(seed)
    trans = rng.uniform(0.0, 1.0, size=(n_states, n_actions, n_states)) + 1e-3
    trans /= trans.sum(axis=2, keepdims=True)
    rewards = rng.uniform(0.0, 1.0, size=(n_states, n_actions))
    utils = rng.integers(0, 2, size=(n_constraints, n_states, n_actions)).astype(float)
    cmdp = TabularCmdp(trans, rewards, utils, np.zeros(n_constraints), gamma)
    uni = uniform_policy(cmdp)
    bounds = np.array(
        [1.1 * exact_objective(cmdp, uni, signal=i + 1) + 0.01 for i in range(n_constraints)]
    )
    cmdp.bounds = bounds
    return cmdp


ENVS = {"cartpole": CartpoleEnv, "acrobot": AcrobotEnv}


def make_env(name: str, dt: float = 0.02):
    if name not in ENVS:
        raise ValueError(f"unknown environment {name!r}")
    return ENVS[name](dt=dt)
