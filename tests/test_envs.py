import math
import re

import numpy as np
import pytest

from wavopt.cmdp import exact_objective, uniform_policy
from wavopt.envs import (
    ANGLE_HARD_LIMIT,
    ANGLE_SOFT_LIMIT,
    CARTPOLE_ZONES,
    ENVS,
    GRAVITY,
    LINK_COM,
    LINK_INERTIA,
    LINK_LENGTH,
    LINK_MASS,
    RETURN_START,
    AcrobotEnv,
    CartpoleEnv,
    acrobot_step,
    acrobot_tip_height,
    cartpole_angle_penalty,
    cartpole_step,
    cartpole_zone_penalty,
    make_env,
    random_tabular_cmdp,
)
from wavopt.nn import TrainingError


def acrobot_energy(state) -> float:
    """Total mechanical energy; constant along unactuated trajectories."""
    th1, th2, dth1, dth2 = (float(v) for v in state)
    m, l1, lc, inert, grav = LINK_MASS, LINK_LENGTH, LINK_COM, LINK_INERTIA, GRAVITY
    d1 = m * lc**2 + m * (l1**2 + lc**2 + 2 * l1 * lc * math.cos(th2)) + 2 * inert
    d2 = m * (lc**2 + l1 * lc * math.cos(th2)) + inert
    m22 = m * lc**2 + inert
    kinetic = 0.5 * d1 * dth1**2 + d2 * dth1 * dth2 + 0.5 * m22 * dth2**2
    potential = -(m * lc + m * l1) * grav * math.cos(th1) - m * lc * grav * math.cos(th1 + th2)
    return kinetic + potential


def test_zone_indicator_boundaries():
    # closed intervals: endpoints are inside
    for lo, hi in CARTPOLE_ZONES:
        assert cartpole_zone_penalty(lo) == 1
        assert cartpole_zone_penalty(hi) == 1
        assert cartpole_zone_penalty((lo + hi) / 2) == 1
        assert cartpole_zone_penalty(lo - 1e-9) == 0 or lo == -2.4
        assert cartpole_zone_penalty(hi + 1e-9) == 0 or hi == 2.4
    assert cartpole_zone_penalty(0.5) == 0
    assert cartpole_zone_penalty(-2.0) == 0


def test_angle_indicator_strict():
    assert cartpole_angle_penalty(ANGLE_SOFT_LIMIT) == 0
    assert cartpole_angle_penalty(ANGLE_SOFT_LIMIT + 1e-12) == 1
    assert cartpole_angle_penalty(-ANGLE_SOFT_LIMIT - 1e-9) == 1
    assert cartpole_angle_penalty(0.0) == 0


def test_cartpole_push_direction():
    s0 = np.zeros(4)
    right, _, _, _ = cartpole_step(s0, 1)
    left, _, _, _ = cartpole_step(s0, 0)
    assert right[1] > 0 > left[1]
    # symmetric start: mirrored actions give mirrored states
    assert np.allclose(right, -left)


def test_cartpole_semi_implicit_order():
    # position must move with the *new* velocity: from rest, one step
    # changes x by dt * (dt * x_acc), not zero
    s0 = np.zeros(4)
    nxt, _, _, _ = cartpole_step(s0, 1)
    dt = 0.02
    assert nxt[0] != 0.0
    assert nxt[0] == pytest.approx(dt * nxt[1], rel=0, abs=0)


def test_cartpole_failure_angle():
    s = np.array([0.0, 0.0, ANGLE_HARD_LIMIT - 1e-4, 3.0])
    nxt, r, g, done = cartpole_step(s, 1)
    assert done
    assert r == 1.0
    assert g[1] == 1


def test_cartpole_wall_clamp_no_termination():
    s = np.array([2.39, 5.0, 0.0, 0.0])
    nxt, _, g, done = cartpole_step(s, 1)
    assert nxt[0] == 2.4
    assert not done
    assert g[0] == 1  # wall sits inside the outermost zone


def test_cartpole_episode_cap_and_reset_determinism():
    env = CartpoleEnv()
    s1 = env.reset(rng=123)
    env2 = CartpoleEnv()
    s2 = env2.reset(rng=123)
    assert np.array_equal(s1, s2)
    assert np.all(np.abs(s1) <= 0.05)

    state = env.reset(rng=0)
    done = False
    steps = 0
    while not done:
        state, _, _, done = env.step(1.0 if state[2] < 0 else -1.0)
        steps += 1
        assert steps <= 250
    assert steps <= 250


def test_cartpole_continuous_action_mapping():
    env = CartpoleEnv()
    assert env.discretize(0.0) == 1
    assert env.discretize(0.7) == 1
    assert env.discretize(-1e-9) == 0


def _array_acrobot_derivs(s: np.ndarray, torque: float) -> np.ndarray:
    th1, th2, dth1, dth2 = s
    m, l1, lc, inert, grav = LINK_MASS, LINK_LENGTH, LINK_COM, LINK_INERTIA, GRAVITY
    d1 = m * lc**2 + m * (l1**2 + lc**2 + 2 * l1 * lc * math.cos(th2)) + 2 * inert
    d2 = m * (lc**2 + l1 * lc * math.cos(th2)) + inert
    phi2 = m * lc * grav * math.cos(th1 + th2 - math.pi / 2)
    phi1 = (
        -m * l1 * lc * dth2**2 * math.sin(th2)
        - 2 * m * l1 * lc * dth2 * dth1 * math.sin(th2)
        + (m * lc + m * l1) * grav * math.cos(th1 - math.pi / 2)
        + phi2
    )
    ddth2 = (torque + d2 / d1 * phi1 - m * l1 * lc * dth1**2 * math.sin(th2) - phi2) / (
        m * lc**2 + inert - d2**2 / d1
    )
    ddth1 = -(d2 * ddth2 + phi1) / d1
    return np.array([dth1, dth2, ddth1, ddth2])


def _array_acrobot_step(state: np.ndarray, action: int, dt: float):
    """Oracle: the RK4 on 4-element numpy arrays that acrobot_step replaced."""
    torque = (-1.0, 0.0, 1.0)[action]
    s = np.asarray(state, dtype=float)
    g = (1 if (torque != 0.0 and s[2] < 0.0) else 0, 1 if s[3] < 0.0 else 0)
    k1 = _array_acrobot_derivs(s, torque)
    k2 = _array_acrobot_derivs(s + 0.5 * dt * k1, torque)
    k3 = _array_acrobot_derivs(s + 0.5 * dt * k2, torque)
    k4 = _array_acrobot_derivs(s + dt * k3, torque)
    nxt = s + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    nxt[0] = (nxt[0] + math.pi) % (2 * math.pi) - math.pi
    nxt[1] = (nxt[1] + math.pi) % (2 * math.pi) - math.pi
    reward = 1.0 if -math.cos(nxt[0]) - math.cos(nxt[0] + nxt[1]) > 0.5 else 0.0
    return nxt, reward, g


def test_acrobot_step_matches_array_rk4_bitwise():
    rng = np.random.default_rng(2024)
    n = 20000
    states = rng.uniform(-1.0, 1.0, size=(n, 4)) * np.array([math.pi, math.pi, 4 * math.pi, 9 * math.pi])
    # exact zeros exercise the sign tests of the constraint indicators
    states[::97, 2:] = 0.0
    actions = rng.integers(0, 3, size=n)
    for i in range(n):
        dt = (0.02, 0.05, 0.2)[i % 3]
        nxt, r, g, done = acrobot_step(states[i], int(actions[i]), dt)
        ref, ref_r, ref_g = _array_acrobot_step(states[i], int(actions[i]), dt)
        assert nxt.dtype == np.float64 and nxt.shape == (4,)
        assert nxt.tobytes() == ref.tobytes(), i
        assert (r, tuple(g), done) == (ref_r, ref_g, False), i


def test_acrobot_energy_conserved_unactuated():
    # free swing from a displaced start; RK4 at dt=0.02 over a full
    # 500-step episode must hold total energy to 1%
    env = AcrobotEnv()
    s = np.array([1.0, 0.5, 0.0, 0.0])
    e0 = acrobot_energy(s)
    scale = max(abs(e0), 1.0)
    for _ in range(500):
        s, _, _, _ = acrobot_step(s, 1)  # zero torque
    drift = abs(acrobot_energy(s) - e0)
    assert drift <= 0.01 * scale


def test_acrobot_torque_injects_energy():
    s = np.array([0.1, 0.0, 0.0, 0.0])
    for _ in range(50):
        s, _, _, _ = acrobot_step(s, 2)
    assert acrobot_energy(s) > acrobot_energy(np.array([0.1, 0.0, 0.0, 0.0]))


def test_acrobot_reward_threshold():
    # hanging: height -2, no reward; inverted: height 2, reward
    low = np.array([0.0, 0.0, 0.0, 0.0])
    high = np.array([math.pi, 0.0, 0.0, 0.0])
    assert acrobot_tip_height(low) == pytest.approx(-2.0)
    assert acrobot_tip_height(high) == pytest.approx(2.0)
    _, r_low, _, _ = acrobot_step(low, 1)
    assert r_low == 0.0
    # start inverted with no velocity: one small step keeps height > 0.5
    _, r_high, _, _ = acrobot_step(high, 1)
    assert r_high == 1.0


def test_acrobot_constraint_indicators_pre_step():
    s = np.array([0.0, 0.0, -0.4, -0.3])
    _, _, g, _ = acrobot_step(s, 2)  # torque while both velocities negative
    assert tuple(g) == (1, 1)
    _, _, g, _ = acrobot_step(s, 1)  # no torque: g1 off, g2 still on
    assert tuple(g) == (0, 1)
    s_pos = np.array([0.0, 0.0, 0.4, 0.3])
    _, _, g, _ = acrobot_step(s_pos, 0)
    assert tuple(g) == (0, 0)


@pytest.mark.parametrize(
    "state",
    [
        (0.0, 0.0, 1e200, 1e200),  # dth2**2 overflows
        (0.0, 0.0, math.inf, 0.0),  # the stage angle is infinite: cos raises
        (0.0, math.nan, 0.0, 0.0),  # nothing raises: nan reaches the check
    ],
)
def test_acrobot_step_raises_on_a_non_finite_state(state):
    with pytest.raises(TrainingError, match=r"^RK4 integration diverged at dt = 0\.02$"):
        acrobot_step(np.array(state), 1)


@pytest.mark.parametrize(
    "state, dt",
    [
        ((0.0, 0.0, 0.0, 1e200), 0.02),  # theta_dot**2 overflows
        ((0.0, 0.0, math.inf, 0.0), 0.02),  # the angle is infinite: cos raises
        ((0.0, math.nan, 0.0, 0.0), 0.02),  # nothing raises: nan reaches the check
        ((0.0, 0.0, 0.0, 0.0), 1e300),  # the new angle overflows to inf
    ],
)
def test_cartpole_step_raises_on_a_non_finite_state(state, dt):
    with pytest.raises(TrainingError, match=rf"^Euler integration diverged at dt = {re.escape(repr(dt))}$"):
        cartpole_step(np.array(state), 1, dt)


def test_diverging_acrobot_episode_names_the_env_step_and_dt():
    env = AcrobotEnv(dt=2.0)
    env.reset(rng=0)
    steps = 0
    with pytest.raises(TrainingError) as info:
        while True:
            env.step(1.0)
            steps += 1
    assert str(info.value) == f"acrobot step {steps + 1}: RK4 integration diverged at dt = 2.0"


def test_acrobot_angle_wrap():
    s = np.array([math.pi - 1e-3, 0.0, 5.0, 0.0])
    nxt, _, _, _ = acrobot_step(s, 1)
    assert -math.pi <= nxt[0] <= math.pi
    # wrapping leaves the energy untouched
    assert acrobot_energy(nxt) == pytest.approx(
        acrobot_energy(np.array([nxt[0] + 2 * math.pi, *nxt[1:]])), rel=1e-12
    )


def test_acrobot_action_mapping():
    env = AcrobotEnv()
    assert env.discretize(-1.0) == 0
    assert env.discretize(-0.34) == 0
    assert env.discretize(-1.0 / 3.0) == 1
    assert env.discretize(0.0) == 1
    assert env.discretize(1.0 / 3.0) == 1
    assert env.discretize(0.34) == 2
    assert env.discretize(1.0) == 2


@pytest.mark.parametrize("name", sorted(ENVS))
def test_discretize_changes_value_exactly_at_the_declared_boundaries(name):
    env = ENVS[name]()
    bounds = env.action_boundaries
    assert list(bounds) == sorted(bounds) and all(-1.0 < b < 1.0 for b in bounds)
    for b in bounds:
        below, above = math.nextafter(b, -math.inf), math.nextafter(b, math.inf)
        assert env.discretize(below) != env.discretize(above)
        assert env.discretize(b) in (env.discretize(below), env.discretize(above))
    # between neighbouring boundaries (and out to +-1) the value is constant
    points = sorted(
        {*np.linspace(-1.0, 1.0, 2001).tolist()}
        | {x for b in bounds for x in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf))}
    )
    for lo, hi in zip(points, points[1:]):
        if env.discretize(lo) != env.discretize(hi):
            assert any(lo <= b <= hi for b in bounds), (lo, hi)


def test_acrobot_episode_cap():
    env = AcrobotEnv(max_steps=40)
    env.reset(rng=3)
    steps = 0
    done = False
    while not done:
        _, _, _, done = env.step(0.0)
        steps += 1
    assert steps == 40


def test_return_tracker_convention():
    # an episode's return starts at -250 and adds each step's reward, so a
    # full 250-step cartpole episode at 1 per step ends at 0
    assert RETURN_START == -250.0
    ret = RETURN_START
    for _ in range(250):
        ret += 1.0
    assert ret == pytest.approx(0.0)
    env = CartpoleEnv(max_steps=30)
    env.reset(rng=0)
    ret, steps, done = RETURN_START, 0, False
    while not done:
        _, r, _, done = env.step(1.0 if steps % 2 else -1.0)
        ret += r
        steps += 1
    assert ret == RETURN_START + steps


def test_random_cmdp_feasible_bounds():
    cmdp = random_tabular_cmdp(6, 3, 2, seed=11)
    uni = uniform_policy(cmdp)
    for i in range(2):
        j = exact_objective(cmdp, uni, signal=i + 1)
        assert j <= cmdp.bounds[i] - 0.009
    assert np.all(cmdp.transitions >= 0)
    assert np.allclose(cmdp.transitions.sum(axis=2), 1.0)


def test_tabular_env_rollout_matches_exact_objective():
    # Monte-Carlo average of discounted returns under the uniform policy,
    # all episodes in lock-step, must approach the linear-solve
    # objective; 30000 episodes give a standard error of about 0.002
    cmdp = random_tabular_cmdp(4, 2, 1, seed=5, gamma=0.8)
    exact = exact_objective(cmdp, uniform_policy(cmdp), signal=0)
    rng = np.random.default_rng(42)
    n_ep = 30000
    # the discounted tail after this horizon is below 1e-10
    horizon = math.ceil(math.log(1e-10) / math.log(cmdp.gamma))
    # rows indexed by state * n_actions + action
    rewards = cmdp.rewards.ravel()
    cum = cmdp.transitions.cumsum(axis=2).reshape(-1, cmdp.n_states)
    states = rng.choice(cmdp.n_states, size=n_ep, p=cmdp.initial_dist)
    total = np.zeros(n_ep)
    for t in range(horizon):
        sa = states * cmdp.n_actions + rng.integers(cmdp.n_actions, size=n_ep)
        total += cmdp.gamma**t * rewards[sa]
        nxt = (rng.random(n_ep)[:, None] >= cum[sa]).sum(axis=1)
        states = np.minimum(nxt, cmdp.n_states - 1)
    assert total.mean() == pytest.approx(exact, abs=0.02)


def test_make_env():
    assert isinstance(make_env("cartpole"), CartpoleEnv)
    assert isinstance(make_env("acrobot"), AcrobotEnv)
    with pytest.raises(ValueError):
        make_env("mountaincar")


def test_step_before_reset_raises():
    env = CartpoleEnv()
    with pytest.raises(RuntimeError):
        env.step(1.0)
