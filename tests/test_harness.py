"""Config parsing, replay, file formats, rate fitting, and the training loop."""

import dataclasses
import hashlib
import math

import numpy as np
import numpy.testing as npt
import pytest

from wavopt import harness
from wavopt.dist_rl import UpdateWorkspace, td_targets
from wavopt.envs import make_env
from wavopt.harness import (
    ConfigError,
    CurveRow,
    ReplayBuffer,
    TrainConfig,
    fit_rate,
    parse_config,
    read_checkpoint,
    read_curve,
    read_summary,
    run_training,
    synthetic_recovery_curve,
    write_checkpoint,
    write_curve,
    write_summary,
)
from wavopt.nets import init_policy_nets
from wavopt.safe_rl import policy_update_step, tolerance_schedule


# -- config ------------------------------------------------------------------


def test_defaults_are_valid():
    TrainConfig().validate()


def test_parse_config_values_comments_and_blank_lines():
    cfg = parse_config(
        """
        # reference run
        env = cartpole
        episodes = 12   # inline comment
        seed = 9
        gamma = 0.95
        learning_rate = 0.001
        """
    )
    assert cfg.env == "cartpole"
    assert cfg.episodes == 12
    assert cfg.seed == 9
    assert cfg.gamma == pytest.approx(0.95)
    assert cfg.learning_rate == pytest.approx(0.001)


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("not_a_field = 3\n")


def test_parse_config_rejects_bad_value_and_missing_equals():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("episodes = many\n")
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config("episodes 5\n")


@pytest.mark.parametrize(
    "field,value",
    [
        ("episodes", -1),
        ("seed", -1),
        ("gamma", 1.0),
        ("gamma", -0.1),
        ("learning_rate", 0.0),
        ("batch_size", 0),
        ("update_every", 0),
        ("updates_per_episode", -1),
        ("tolerance_mode", "sometimes"),
        ("tolerance_fixed", -0.5),
        ("snapshot_margin", -1.0),
        ("gate_margin", -0.1),
        ("gate_episodes", 0),
        ("eval_episodes", 0),
        ("probe_episodes", 0),
        ("eval_every", -1),
    ],
)
def test_validate_rejects_out_of_range(field, value):
    with pytest.raises(ConfigError):
        dataclasses.replace(TrainConfig(), **{field: value}).validate()


def test_actor_lr_falls_back_to_shared_rate():
    cfg = TrainConfig(learning_rate=0.003)
    assert cfg.actor_lr == pytest.approx(0.003)
    cfg = TrainConfig(learning_rate=0.003, actor_learning_rate=0.001)
    assert cfg.actor_lr == pytest.approx(0.001)


# -- replay ------------------------------------------------------------------


def _fill(buf, n, rng, state_dim=3, p=2):
    for i in range(n):
        buf.add(
            rng.normal(size=state_dim),
            rng.normal(size=1),
            float(i),
            rng.normal(size=p),
            rng.normal(size=state_dim),
            0.0,
        )


def test_replay_sample_shapes_and_uniqueness():
    rng = np.random.default_rng(0)
    buf = ReplayBuffer(64, 3, 1, 2)
    _fill(buf, 40, rng)
    batch = buf.sample(16, np.random.default_rng(1))
    assert batch.states.shape == (16, 3)
    assert batch.actions.shape == (16, 1)
    assert batch.rewards.shape == (16,)
    assert batch.utilities.shape == (16, 2)
    # without replacement: all rewards distinct because we stored 0..39
    assert len(set(batch.rewards.tolist())) == 16


def test_replay_wraparound_overwrites_oldest():
    rng = np.random.default_rng(2)
    buf = ReplayBuffer(8, 3, 1, 2)
    _fill(buf, 12, rng)
    assert buf.size == 8
    # rewards 0..3 were overwritten by 8..11
    assert set(buf.rewards.tolist()) == set(float(v) for v in range(4, 12))


def test_replay_sample_deterministic_given_rng_seed():
    rng = np.random.default_rng(3)
    buf = ReplayBuffer(32, 3, 1, 2)
    _fill(buf, 32, rng)
    b1 = buf.sample(8, np.random.default_rng(7))
    b2 = buf.sample(8, np.random.default_rng(7))
    npt.assert_array_equal(b1.rewards, b2.rewards)


def test_replay_empty_and_undersized():
    buf = ReplayBuffer(8, 3, 1, 2)
    with pytest.raises(ValueError):
        buf.sample(4, np.random.default_rng(0))
    _fill(buf, 3, np.random.default_rng(0))
    assert buf.sample(8, np.random.default_rng(0)).rewards.shape == (3,)


# -- curve / checkpoint / summary files ---------------------------------------


def test_curve_round_trip(tmp_path):
    rows = [
        CurveRow(1, -250.0 + 9, np.array([3.25, 0.0]), 0, 0.125, 0.18),
        CurveRow(2, -250.0 + 17, np.array([2.0, 1.0]), 2, -0.5, 0.52),
    ]
    path = tmp_path / "curve.csv"
    write_curve(path, rows, 2)
    data = read_curve(path)
    npt.assert_array_equal(data["episode"], [1, 2])
    npt.assert_array_equal(data["branch"], [0, 2])
    npt.assert_allclose(data["cum_return"], [-241.0, -233.0])
    npt.assert_allclose(data["J_g1"], [3.25, 2.0])
    npt.assert_allclose(data["J_g2"], [0.0, 1.0])
    npt.assert_allclose(data["td_delta"], [0.125, -0.5])
    header = path.read_text().splitlines()[0]
    assert header == "episode,cum_return,J_g1,J_g2,branch,td_delta,sim_seconds"


def test_curve_nine_significant_digits(tmp_path):
    rows = [CurveRow(1, -123.456789123456, np.array([1.0 / 3.0]), 0, 0.0, 0.0)]
    path = tmp_path / "curve.csv"
    write_curve(path, rows, 1)
    line = path.read_text().splitlines()[1]
    assert line.split(",")[1] == "-123.456789"
    assert line.split(",")[2] == "0.333333333"


def _tiny_nets(seed=5):
    return init_policy_nets(
        state_dim=4,
        action_dim=1,
        hidden_width=8,
        hidden_layers=2,
        n_quantiles=6,
        n_signals=3,
        rng=np.random.default_rng(seed),
        feature_scale=np.array([0.5, 1.0, 2.0, 1.0]),
        squash=True,
    )


def test_checkpoint_round_trip(tmp_path):
    nets = _tiny_nets()
    path = tmp_path / "ckpt.txt"
    write_checkpoint(path, nets, "cartpole")
    loaded, meta = read_checkpoint(path)
    assert meta["env"] == "cartpole"
    rng = np.random.default_rng(0)
    states = rng.normal(size=(5, 4))
    npt.assert_array_equal(loaded.actor.act_batch(states), nets.actor.act_batch(states))
    acts = rng.normal(size=(5, 1))
    npt.assert_array_equal(
        loaded.critic.forward_batch(states, acts), nets.critic.forward_batch(states, acts)
    )
    # restored targets start synced to the restored online nets
    npt.assert_array_equal(loaded.target_actor.act_batch(states), loaded.actor.act_batch(states))


def test_checkpoint_rejects_other_files(tmp_path):
    path = tmp_path / "not_ckpt.txt"
    path.write_text("something else\n")
    with pytest.raises(ValueError, match="not a policy checkpoint"):
        read_checkpoint(path)


def test_checkpoint_rejects_format_1(tmp_path):
    path = tmp_path / "old.txt"
    path.write_text("wavopt-checkpoint 1\nenv cartpole\nslice_count 8\n")
    with pytest.raises(ValueError, match="format 1 is no longer supported"):
        read_checkpoint(path)


@pytest.mark.parametrize("section", ["actor", "critic", "critic mid-number"])
def test_checkpoint_truncation_names_the_section(tmp_path, section):
    path = tmp_path / "ckpt.txt"
    write_checkpoint(path, _tiny_nets(), "cartpole")
    text = path.read_text()
    if section == "critic mid-number":
        # cut inside the last value: what is left still parses as a float
        path.write_text(text[:-8])
        section = "critic"
    else:
        lines = text.splitlines(keepends=True)
        start = lines.index(f"section {section}\n")
        end = lines.index("section critic\n") if section == "actor" else len(lines)
        path.write_text("".join(lines[: (start + end) // 2]))
    with pytest.raises(ValueError, match=f"truncated or damaged in section {section}"):
        read_checkpoint(path)


def test_summary_round_trip(tmp_path):
    path = tmp_path / "summary.txt"
    write_summary(path, {"env": "cartpole", "final_reward_objective": 12.5, "episodes": 3})
    out = read_summary(path)
    assert out["env"] == "cartpole"
    assert float(out["final_reward_objective"]) == pytest.approx(12.5)
    assert int(out["episodes"]) == 3


# -- rate fitting --------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.5, 1.2])
def test_fit_rate_recovers_synthetic_exponent(alpha):
    fit = fit_rate(synthetic_recovery_curve(alpha))
    assert not fit.skipped
    assert abs(fit.exponent - alpha) <= 0.02


def test_fit_rate_too_short_series_skips():
    fit = fit_rate(np.zeros(30))
    assert fit.skipped
    assert "need at least" in fit.notice
    assert math.isnan(fit.exponent)


def test_fit_rate_flat_curve_skips():
    fit = fit_rate(np.full(400, -250.0))
    assert fit.skipped


def test_fit_rate_early_peak_skips():
    # optimum inside the burn-in window: nothing left to fit
    y = np.concatenate([np.linspace(-250.0, 0.0, 40), np.zeros(360)])
    fit = fit_rate(y)
    assert fit.skipped


# -- training loop --------------------------------------------------------------


def _fast_config(**overrides):
    base = dict(
        env="cartpole",
        episodes=8,
        seed=11,
        batch_size=16,
        n_quantiles=8,
        hidden_width=8,
        hidden_layers=2,
        warmup_steps=20,
        updates_per_episode=3,
        target_sync_updates=10,
        buffer_capacity=2000,
        eval_episodes=1,
        eval_every=2,
        probe_episodes=1,
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_run_training_writes_consistent_files(tmp_path):
    result = run_training(_fast_config(), tmp_path / "run")
    data = read_curve(result.curve_path)
    npt.assert_array_equal(data["episode"], np.arange(1, 9))
    assert data["cum_return"].shape == (8,)
    assert set(data["branch"].tolist()) <= {0, 1, 2}
    assert result.updates > 0
    summary = read_summary(result.summary_path)
    assert summary["env"] == "cartpole"
    assert int(summary["episodes"]) == 8
    assert int(summary["updates"]) == result.updates
    nets, meta = read_checkpoint(result.checkpoint_path)
    assert meta["env"] == "cartpole"
    state = np.zeros(4)
    assert -1.0 <= float(nets.actor.act(state)[0]) <= 1.0


@pytest.mark.parametrize(
    "overrides, shipped",
    [
        ({}, "margined"),
        # every nominee clears the bound but none the gate margin
        ({"bound": 1e6, "gate_margin": 2e6}, "boundary"),
        # utilities are >= 0, so no probe is feasible and no nominee exists
        ({"bound": -1.0, "gate_margin": 1e6}, "final"),
    ],
)
def test_summary_names_the_shipped_checkpoint(tmp_path, overrides, shipped):
    result = run_training(_fast_config(**overrides), tmp_path / "run")
    lines = result.summary_path.read_text().splitlines()
    assert lines[-1] == f"shipped={shipped}"
    summary = read_summary(result.summary_path)
    if shipped == "final":
        # the unchecked fallback ships even though it breaks the bound
        assert float(summary["final_constraint_1"]) > float(summary["bound_1"])


def test_run_training_zero_episodes_writes_header_and_initial_checkpoint(tmp_path):
    result = run_training(_fast_config(episodes=0), tmp_path / "run")
    text = result.curve_path.read_text()
    assert text == "episode,cum_return,J_g1,J_g2,branch,td_delta,sim_seconds\n"
    read_checkpoint(result.checkpoint_path)
    assert result.updates == 0


def test_run_training_byte_identical_across_runs(tmp_path):
    r1 = run_training(_fast_config(), tmp_path / "a")
    r2 = run_training(_fast_config(), tmp_path / "b")
    assert r1.curve_path.read_bytes() == r2.curve_path.read_bytes()
    assert r1.checkpoint_path.read_bytes() == r2.checkpoint_path.read_bytes()
    assert r1.summary_path.read_bytes() == r2.summary_path.read_bytes()


# Golden bytes of the fast run.  A change that alters them must update
# both hashes and give the cause plus a multi-seed metric comparison in
# CHANGES.md.  Pinned with numpy 2.4 on OpenBLAS 0.3.31 (Haswell kernels)
# at one and at two BLAS threads.
GOLDEN_SHA256 = {
    "curve.csv": "3e4ce3dcf05efa7fc0d7772226cf1a08b2527b8be3b5fa33ede53194a9280282",
    "summary.txt": "817a896fa6c8ce71f1e4cf5975e09669ea7b31f0915a18bfd3d155b52d040cf2",
    "checkpoint.txt": "fab9d9e6add26b7d3c45a247bd093b1c1c0739678919490e7e8c11233ec825ed",
}


def test_run_training_matches_golden_bytes(tmp_path):
    result = run_training(_fast_config(), tmp_path / "run")
    for path in (result.curve_path, result.summary_path, result.checkpoint_path):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[path.name], path.name


# -- top-up bursts: TD targets shared within a segment ---------------------------


_CLIP = (0.0, 50.0)


def _burst_setup(width, n, rows, seed=0):
    """Nets with 3 signals and a cartpole-shaped replay of ``rows`` random transitions."""
    rng = np.random.default_rng(seed)
    nets = init_policy_nets(4, 1, width, 2, n, 3, rng)
    replay = ReplayBuffer(rows, 4, 1, 2)
    for i in range(rows):
        replay.add(
            rng.normal(size=4),
            rng.uniform(-1.0, 1.0, size=1),
            rng.uniform(),
            rng.integers(0, 2, size=2).astype(float),
            rng.normal(size=4),
            float(i % 7 == 0),
        )
    return nets, replay


@pytest.mark.parametrize(
    "batch,width,n,rows",
    [(128, 128, 128, 300), (16, 8, 8, 40)],
    ids=["default-shapes", "fast-shapes"],
)
def test_shared_targets_match_td_targets_bitwise(batch, width, n, rows):
    nets, replay = _burst_setup(width, n, rows)
    rng = np.random.default_rng(5)
    distinct = np.unique([replay.draw(batch, rng) for _ in range(12)])
    # the last block is padded, and draws share rows
    assert distinct.size % batch != 0
    assert distinct.size < 12 * batch

    got = []
    harness._top_up(
        lambda b, targets: got.append((b, None if targets is None else targets.copy())),
        12, 0, 250, replay, np.random.default_rng(5), nets, 0.99, _CLIP, UpdateWorkspace(nets, batch),
    )
    assert len(got) == 12
    for b, targets in got:
        want = td_targets(nets, b, 0.99, _CLIP, UpdateWorkspace(nets, batch))
        assert targets is not None and targets.tobytes() == want.tobytes()


def test_top_up_draws_like_sequential_samples_and_splits_at_syncs():
    nets, replay = _burst_setup(8, 8, rows=20)
    seen = []
    # 25 updates after 7, a sync every 10: segments of 3, 10, 10 and 2
    harness._top_up(
        lambda b, targets: seen.append((b, targets is not None)),
        25, 7, 10, replay, np.random.default_rng(9), nets, 0.99, _CLIP, UpdateWorkspace(nets, 16),
    )
    rng = np.random.default_rng(9)
    for b, _ in seen:
        want = replay.sample(16, rng)
        for field in ("states", "actions", "rewards", "utilities", "next_states", "done"):
            npt.assert_array_equal(getattr(b, field), getattr(want, field))
    # 20 rows fill two blocks, so only the segments of 8 or more updates share
    assert [shared for _, shared in seen] == [False] * 3 + [True] * 20 + [False] * 2


def test_run_with_shared_targets_writes_the_same_bytes(tmp_path, monkeypatch):
    # long bursts with a sync every 25 updates take the store and split
    config = _fast_config(updates_per_episode=40, target_sync_updates=25)
    segments = []
    from_store = harness._update_from_store

    def spy(update, draws, *args):
        segments.append(len(draws))
        return from_store(update, draws, *args)

    monkeypatch.setattr(harness, "_update_from_store", spy)
    shared = run_training(config, tmp_path / "shared")
    assert len(segments) > 1 and max(segments) <= 25
    segments.clear()
    monkeypatch.setattr(harness, "_UPDATES_PER_TARGET_BLOCK", 10**9)  # the store rule off
    own = run_training(config, tmp_path / "own")
    assert not segments and own.updates == shared.updates
    for name in ("curve.csv", "summary.txt", "checkpoint.txt"):
        assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "own" / name).read_bytes(), name


def test_run_training_seed_changes_the_curve(tmp_path):
    r1 = run_training(_fast_config(), tmp_path / "a")
    r2 = run_training(_fast_config(seed=12), tmp_path / "b")
    assert r1.curve_path.read_bytes() != r2.curve_path.read_bytes()


def test_first_behaviour_step_weights_match_an_independent_recomputation(tmp_path, monkeypatch):
    # no update runs and no probe: the first step sees the initial nets
    config = _fast_config(
        seed=3, episodes=1, hidden_width=16, warmup_steps=10**6, eval_every=0
    )
    draws = []
    sample_actions = harness.sample_actions

    def spy(positions, weights, n, rng):
        draws.append((np.array(positions), np.array(weights)))
        return sample_actions(positions, weights, n, rng)

    monkeypatch.setattr(harness, "sample_actions", spy)
    run_training(config, tmp_path / "run")
    cands, weights = draws[0]

    s_init, s_env, *_ = np.random.SeedSequence(config.seed).spawn(5)
    env = make_env(config.env, dt=config.dt)
    nets = init_policy_nets(
        state_dim=env.state_dim,
        action_dim=1,
        hidden_width=config.hidden_width,
        hidden_layers=config.hidden_layers,
        n_quantiles=config.n_quantiles,
        n_signals=1 + env.n_constraints,
        rng=np.random.default_rng(s_init),
        feature_scale=env.feature_scale,
        squash=True,
    )
    state = env.reset(rng=np.random.default_rng(s_env))
    mu = float(nets.actor.act(state)[0])
    npt.assert_array_equal(cands, [-1.0, 1.0, mu])

    # log family over [0, hv] with F(1e-6) = 0; a constraint enters by
    # its margin hv - utility-to-go
    hv = (1.0 - config.gamma**env.max_steps) / (1.0 - config.gamma)
    c = hv / -math.log(1e-6)
    q = nets.critic.forward_batch(np.repeat(state[None], 3, axis=0), cands[:, None]).mean(axis=2)
    values = np.column_stack([q[:, 0], hv - q[:, 1], hv - q[:, 2]])
    factors = np.maximum(np.exp((np.clip(values, 0.0, hv) - hv) / c), 1e-9)
    expect = factors[:, 0] * (factors[:, 1] * factors[:, 2])
    npt.assert_array_equal(weights, expect / expect.sum())

    # the pin is not vacuous: the constraint-2 factor tells the
    # candidates apart, so leaving it out moves the weights
    assert np.ptp(factors[:, 2]) > 1e-3
    without = factors[:, 0] * factors[:, 1]
    assert np.max(np.abs(without / without.sum() - weights)) > 1e-4


def test_scheduled_tolerance_follows_the_schedule(tmp_path, monkeypatch):
    config = _fast_config(tolerance_mode="scheduled", episodes=4)
    tolerances = []

    def spy(nets, batch, bounds, est, tolerance, *args, **kwargs):
        tolerances.append(tolerance)
        return policy_update_step(nets, batch, bounds, est, tolerance, *args, **kwargs)

    monkeypatch.setattr(harness, "policy_update_step", spy)
    result = run_training(config, tmp_path / "run")
    assert len(tolerances) == result.updates > 0
    for t, tau in enumerate(tolerances, start=1):
        assert tau == tolerance_schedule(t, config.batch_size, config.horizon_scale, config.gamma)
    curve = read_curve(result.curve_path)
    assert all(np.isfinite(v).all() for v in curve.values())
    summary = read_summary(result.summary_path)
    for key in ("final_reward_objective", "final_constraint_1", "final_constraint_2"):
        assert math.isfinite(float(summary[key]))
