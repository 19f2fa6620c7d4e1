"""Config parsing, replay, file formats, rate fitting, and the training loop."""

import dataclasses
import hashlib
import itertools
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavopt import harness
from wavopt.dist_rl import UpdateWorkspace, td_targets
from wavopt.envs import RETURN_START, CartpoleEnv, make_env
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
    write_checkpoint,
    write_curve,
    write_summary,
)
from wavopt.inference import log_family
from wavopt.measures import one_d_measure
from wavopt.nets import PolicyNets, init_policy_nets
from wavopt.nn import TrainingError
from wavopt.safe_rl import ObjectiveEstimate, policy_update_step, tolerance_schedule

from recovery_curves import synthetic_recovery_curve


# -- config ------------------------------------------------------------------


def test_defaults_are_valid():
    TrainConfig().validate()


_CONFIG_VALUES = st.one_of(
    st.integers(0, 200).map(str),
    st.floats(0.0, 1.0).map(repr),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["cartpole", "acrobot", "fixed", "scheduled", "", "1e309", "0x10", "1_000", "9" * 5000]),
    st.text(max_size=12),
)
_CONFIG_LINES = st.one_of(
    st.text(max_size=30),
    st.builds(
        "{}{}{}".format,
        st.sampled_from([f.name for f in dataclasses.fields(TrainConfig)]),
        st.sampled_from(["=", " = ", "==", " "]),
        _CONFIG_VALUES,
    ),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(_CONFIG_LINES, max_size=8).map("\n".join))
def test_parse_config_returns_a_valid_config_or_raises_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, TrainConfig)
    cfg.validate()


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


def test_parse_config_rejects_a_key_given_twice():
    with pytest.raises(ConfigError, match=r"^line 4: env is given twice \(first on line 2\)$"):
        parse_config("# two envs\nenv = cartpole\nseed = 3\nenv = acrobot\n")


def test_parse_config_rejects_bad_value_and_missing_equals():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("episodes = many\n")
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config("episodes 5\n")


@pytest.mark.parametrize(
    "field,value",
    [
        ("env", "pendulum"),
        ("episodes", -1),
        ("seed", -1),
        ("gamma", 1.0),
        ("gamma", -0.1),
        ("gamma", math.nan),
        ("learning_rate", 0.0),
        ("actor_learning_rate", 0.0),
        ("actor_learning_rate", -0.5),
        ("warmup_steps", -7),
        ("batch_size", 0),
        ("n_quantiles", 0),
        ("hidden_width", 0),
        ("hidden_layers", -1),
        ("buffer_capacity", 100),
        ("update_every", 0),
        ("target_sync_updates", 0),
        ("updates_per_episode", -1),
        ("noise_start", -0.5),
        ("noise_end", -0.5),
        ("noise_decay_frac", 1.5),
        ("raw_penalty", -0.1),
        ("tolerance_mode", "sometimes"),
        ("tolerance_fixed", -0.5),
        ("snapshot_margin", -1.0),
        ("gate_margin", -0.1),
        ("gate_episodes", 0),
        ("eval_episodes", 0),
        ("probe_episodes", 0),
        ("dt", 0.0),
        ("eval_every", -1),
    ],
)
def test_validate_rejects_out_of_range(field, value):
    with pytest.raises(ConfigError, match=f"^{field} ") as info:
        dataclasses.replace(TrainConfig(), **{field: value}).validate()
    # the message names the refused key and no other
    others = [f.name for f in dataclasses.fields(TrainConfig) if f.name != field]
    assert not [name for name in others if re.search(rf"\b{name}\b", str(info.value))]


# at batch 128 the t = 1 tolerance overflows from H ~ 585.14 and is inf
# (from H ~ -582.87) or divides by zero (from H ~ -614) below
@pytest.mark.parametrize("horizon_scale", [1e308, -1e308, 586.0, -600.0, -614.0])
def test_validate_refuses_a_horizon_scale_without_a_finite_schedule(horizon_scale):
    config = TrainConfig(tolerance_mode="scheduled", horizon_scale=horizon_scale)
    with pytest.raises(ConfigError, match=r"^horizon_scale must keep the scheduled tolerance finite, got "):
        config.validate()
    # the fixed tolerance never reads it
    dataclasses.replace(config, tolerance_mode="fixed").validate()


def test_validate_accepts_a_horizon_scale_with_a_finite_schedule():
    for horizon_scale in (585.0, -582.0, 2.0):
        TrainConfig(tolerance_mode="scheduled", horizon_scale=horizon_scale).validate()
    # at batch 1 the second term does not depend on H
    TrainConfig(tolerance_mode="scheduled", horizon_scale=1e308, batch_size=1).validate()


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
    batch = buf.gather(buf.draw(16, np.random.default_rng(1)))
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
    b1 = buf.gather(buf.draw(8, np.random.default_rng(7)))
    b2 = buf.gather(buf.draw(8, np.random.default_rng(7)))
    npt.assert_array_equal(b1.rewards, b2.rewards)


def test_replay_empty_and_undersized():
    buf = ReplayBuffer(8, 3, 1, 2)
    with pytest.raises(ValueError):
        buf.draw(4, np.random.default_rng(0))
    _fill(buf, 3, np.random.default_rng(0))
    assert buf.gather(buf.draw(8, np.random.default_rng(0))).rewards.shape == (3,)


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


def test_read_curve_refuses_a_column_given_twice(tmp_path):
    # read as one column, the repeated name would hold [2, 3, 4, 5]
    path = tmp_path / "curve.csv"
    path.write_text("episode,cum_return,cum_return\n1,2,3\n2,4,5\n")
    with pytest.raises(ValueError, match=r"^line 1: column 'cum_return' is given twice \(first in column 2\)$"):
        read_curve(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("\nepisode,cum_return\n1,x\n", "line 3: cum_return is not a finite number: 'x'"),
        ("\n\nepisode,cum_return\n1,2\n2\n", "line 5: expected 2 fields, got 1"),
        ("\nepisode,cum_return,cum_return\n1,2,3\n", "line 2: column 'cum_return' is given twice (first in column 2)"),
    ],
    ids=["value", "width", "header"],
)
def test_read_curve_errors_name_the_files_own_line(tmp_path, text, message):
    # the blank lines before the header count
    path = tmp_path / "curve.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_curve(path)


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


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("n_quantiles 6\n", "", "header has no n_quantiles line"),
        ("feature_scale 0.5 1 2 1\n", "", "header has no feature_scale line"),
        ("squash 1\n", "squash\n", "header line 'squash' has no value"),
        ("squash 1\n", "squash 0\n", "squash '0' is not supported"),
        ("n_signals 3\n", "n_signals three\n", "n_signals is malformed: 'three'"),
        ("n_signals 3\nn_quantiles 6\n", "n_signals -3\nn_quantiles -6\n", "counts must be positive"),
        ("action_dim 1\n", "action_dim 2\n", "section actor maps 4 inputs to 1 outputs, but the header gives 4 to 2"),
        ("n_quantiles 6\n", "n_quantiles 5\n", "section critic maps 5 inputs to 18 outputs, but the header gives 5 to 15"),
        ("feature_scale 0.5 1 2 1\n", "feature_scale 0.5 1 2\n", "section actor maps 4 inputs to 1 outputs, but the header gives 3"),
        ("layers 3\nsizes 4 8 8 1\n", "layers 1\nsizes 300000 300000\n", "need 90000300000 values, but only 407 lines follow"),
        ("feature_scale 0.5 1 2 1\n", "feature_scale 0.5 nan 2 1\n", "feature_scale is not finite: '0.5 nan 2 1'"),
        ("feature_scale 0.5 1 2 1\n", "feature_scale 0.5 1 1e309 1\n", "feature_scale is not finite: '0.5 1 1e309 1'"),
        ("sizes 4 8 8 1\n", "sizes 4 8 8 1\nnan\n", "section actor (value 0 of 121 is not finite: 'nan')"),
        ("sizes 5 8 8 18\n", "sizes 5 8 8 18\n-inf\n", "section critic (value 0 of 282 is not finite: '-inf')"),
    ],
    ids=[
        "no n_quantiles",
        "no feature_scale",
        "bare key",
        "squash 0",
        "malformed count",
        "negative counts",
        "action_dim",
        "n_quantiles",
        "feature_scale length",
        "oversized section",
        "feature_scale nan",
        "feature_scale overflow",
        "actor value nan",
        "critic value -inf",
    ],
)
def test_checkpoint_header_faults_are_one_line_errors(tmp_path, old, new, message):
    path = tmp_path / "ckpt.txt"
    write_checkpoint(path, _tiny_nets(), "cartpole")
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    with pytest.raises(ValueError) as err:
        read_checkpoint(path)
    assert message in str(err.value) and "\n" not in str(err.value)


_CHECKPOINT_KEYS = ["mlp-text", "layers", "sizes", "section", "env", "action_dim", "n_signals", "n_quantiles", "squash", "feature_scale"]
_CHECKPOINT_TOKENS = st.one_of(
    st.integers(-2, 40).map(str),
    st.sampled_from(["0", "1", "300000", "9" * 30, "actor", "critic", "nan", "inf", "1e309", "0.5", "", "x"]),
    st.text(max_size=6),
)
_CHECKPOINT_LINES = st.one_of(
    st.text(max_size=20),
    # value lines that parse as floats but are not finite
    st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e309", "-1e309"]),
    st.builds(
        "{} {}".format,
        st.sampled_from(_CHECKPOINT_KEYS),
        st.lists(_CHECKPOINT_TOKENS, max_size=5).map(" ".join),
    ),
)


@st.composite
def _damaged_checkpoints(draw):
    """A valid checkpoint's lines, with a few replaced, dropped, added or cut off."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.txt"
        write_checkpoint(path, _tiny_nets(), "cartpole")
        lines = path.read_text().splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 4))):
        # the header and section heads hold every count, so they are hit most
        i = draw(st.one_of(st.integers(0, 12), st.integers(0, len(lines))))
        edit = draw(st.sampled_from(["replace", "drop", "add", "cut", "resize"]))
        if edit == "resize":
            # a section head that asks for any layer sizes up to 10^6
            heads = [j for j, line in enumerate(lines[:-1]) if line.startswith("layers ")]
            if heads:
                j = draw(st.sampled_from(heads))
                sizes = draw(st.lists(st.integers(1, 10**6), min_size=2, max_size=4))
                lines[j : j + 2] = [f"layers {len(sizes) - 1}\n", "sizes " + " ".join(map(str, sizes)) + "\n"]
        elif edit == "cut":
            lines = lines[:i]
        elif edit == "add":
            lines.insert(i, draw(_CHECKPOINT_LINES) + "\n")
        elif i < len(lines):
            lines[i : i + 1] = [] if edit == "drop" else [draw(_CHECKPOINT_LINES) + "\n"]
    return "".join(lines)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(_damaged_checkpoints(), st.lists(_CHECKPOINT_LINES, max_size=12).map("\n".join)))
def test_read_checkpoint_on_any_text_returns_nets_or_raises_one_line_value_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.txt"
        path.write_text(text)
        try:
            nets, _ = read_checkpoint(path)
        except ValueError as exc:
            assert "\n" not in str(exc)
            return
    assert nets.actor.params.layer_sizes[0] == nets.actor.feature_scale.size
    for array in (nets.actor.params.flat, nets.critic.params.flat, nets.actor.feature_scale):
        assert np.isfinite(array).all()


def test_summary_round_trip(tmp_path):
    path = tmp_path / "summary.txt"
    write_summary(path, {"env": "cartpole", "final_reward_objective": 12.5, "episodes": 3})
    out = read_summary(path)
    assert out["env"] == "cartpole"
    assert float(out["final_reward_objective"]) == pytest.approx(12.5)
    assert int(out["episodes"]) == 3


@pytest.mark.parametrize(
    "text, message",
    [
        ("env=cartpole\n\noops\n", "line 3: expected key = value, got 'oops'"),
        ("env=cartpole\nepisodes=3\nenv=acrobot\n", "line 3: env is given twice (first on line 1)"),
    ],
    ids=["no-equals", "twice"],
)
def test_read_summary_errors_name_the_files_own_line(tmp_path, text, message):
    path = tmp_path / "summary.txt"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        read_summary(path)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(_CONFIG_LINES, max_size=8).map("\n".join))
def test_read_summary_returns_a_dict_or_raises_one_line_config_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "summary.txt"
        path.write_bytes(text.encode())
        try:
            out = read_summary(path)
        except ConfigError as exc:
            assert "\n" not in str(exc)
            return
    for key, val in out.items():
        assert "=" not in key and "#" not in key + val and key == key.strip() and val == val.strip()


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


@pytest.mark.parametrize("burn_in_frac", [1.5, 1.0, -0.1, math.nan])
def test_fit_rate_refuses_a_burn_in_outside_the_unit_interval(burn_in_frac):
    with pytest.raises(ValueError, match=r"^burn_in_frac must be in \[0, 1\), got "):
        fit_rate(synthetic_recovery_curve(0.5), burn_in_frac=burn_in_frac)


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
    config = _fast_config()
    result = run_training(config, tmp_path / "run")
    data = read_curve(result.curve_path)
    npt.assert_array_equal(data["episode"], np.arange(1, 9))
    # cartpole pays 1 per step, so each return is RETURN_START plus the
    # episode's length, which the simulated clock counts in steps of dt
    steps = np.diff(np.rint(data["sim_seconds"] / config.dt), prepend=0.0)
    npt.assert_array_equal(data["cum_return"], RETURN_START + steps)
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
def test_summary_names_the_shipped_checkpoint(tmp_path, monkeypatch, overrides, shipped):
    config = _fast_config(**overrides)
    gates, measured = [], []
    probe, ship_gate = harness.probe, harness.ship_gate

    def probe_spy(actor, cfg, episodes, seed):
        measured.append(episodes)
        return probe(actor, cfg, episodes, seed)

    def gate_spy(*args):
        gates.append(ship_gate(*args))
        return gates[-1]

    monkeypatch.setattr(harness, "probe", probe_spy)
    monkeypatch.setattr(harness, "ship_gate", gate_spy)
    result = run_training(config, tmp_path / "run")
    lines = result.summary_path.read_text().splitlines()
    assert lines[-1] == f"shipped={shipped}"
    # one gate; every probe, then one re-measurement per nominee, then
    # the final evaluation
    [(label, kept, report)] = gates
    assert label == result.shipped == shipped and (kept is None) == (shipped == "final")
    probes = config.episodes // config.eval_every
    gate = [config.gate_episodes] * len(report)
    assert measured == [config.probe_episodes] * probes + gate + [config.eval_episodes]
    assert (len(report) > 0) == (shipped != "final")
    summary = read_summary(result.summary_path)
    if shipped == "final":
        # the unchecked fallback ships even though it breaks the bound
        assert float(summary["final_constraint_1"]) > float(summary["bound_1"])


# gate order b7, m5, b5, m3: the best probe reward first, margined (tier
# 0) before boundary (tier 1) at equal reward
_TIERS = [[(5.0, "m5", "cm5"), (3.0, "m3", "cm3")], [(7.0, "b7", "cb7"), (5.0, "b5", "cb5")]]


@pytest.mark.parametrize(
    "constraints, label, kept",
    [
        # b7 and m5 only meet bound + tolerance (10.5), b5 also clears the
        # gate margin: pass one ships it over the better-rewarded two
        ({"b7": 10.2, "m5": 9.0, "b5": 8.0, "m3": 1.0}, "margined", ("b5", "cb5")),
        # nothing clears the margin: pass two ships the first feasible one
        ({"b7": 10.6, "m5": 10.5, "b5": 9.0, "m3": 10.0}, "boundary", ("m5", "cm5")),
        ({"b7": 11.0, "m5": 11.0, "b5": 11.0, "m3": 11.0}, "final", None),
    ],
)
def test_ship_gate_remeasures_each_nominee_once_in_gate_order(monkeypatch, constraints, label, kept):
    config = TrainConfig(bound=10.0, tolerance_fixed=0.5, gate_margin=2.0, gate_episodes=3)
    calls = []

    def probe(actor, cfg, episodes, seed):
        calls.append((actor, episodes, seed.spawn_key))
        return ObjectiveEstimate(0.0, np.array([constraints[actor], 0.0]), episodes, 0.0)

    monkeypatch.setattr(harness, "probe", probe)
    got = harness.ship_gate(_TIERS, config, np.random.SeedSequence(4))
    order = ["b7", "m5", "b5", "m3"]
    children = [child.spawn_key for child in np.random.SeedSequence(4).spawn(4)]
    assert calls == [(a, 3, key) for a, key in zip(order, children)]
    assert got[:2] == (label, kept)
    assert [(r, tier, cons.tolist()) for r, tier, cons in got[2]] == [
        (7.0, 1, [constraints["b7"], 0.0]),
        (5.0, 0, [constraints["m5"], 0.0]),
        (5.0, 1, [constraints["b5"], 0.0]),
        (3.0, 0, [constraints["m3"], 0.0]),
    ]
    assert harness.ship_gate([[], []], config, np.random.SeedSequence(4)) == ("final", None, [])
    assert len(calls) == 4


def test_ship_gate_treats_a_nan_constraint_as_a_breach(monkeypatch):
    # b7 and m5 re-measure nan: m3 is the first nominee inside the bound
    config = TrainConfig(bound=10.0, tolerance_fixed=0.5, gate_margin=2.0, gate_episodes=3)
    constraints = {"b7": math.nan, "m5": math.nan, "b5": 10.5, "m3": 1.0}

    def probe(actor, cfg, episodes, seed):
        return ObjectiveEstimate(0.0, np.array([0.0, constraints[actor]]), episodes, 0.0)

    monkeypatch.setattr(harness, "probe", probe)
    assert harness.ship_gate(_TIERS, config, np.random.SeedSequence(4))[:2] == ("margined", ("m3", "cm3"))
    constraints["m3"] = math.nan
    assert harness.ship_gate(_TIERS, config, np.random.SeedSequence(4))[:2] == ("boundary", ("b5", "cb5"))
    constraints["b5"] = math.nan
    assert harness.ship_gate(_TIERS, config, np.random.SeedSequence(4))[:2] == ("final", None)


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


def _store_spy(monkeypatch):
    """Patch ``_update_from_store``; the list's one flag is True while it runs."""
    inside = [False]
    from_store = harness._update_from_store

    def spy(*args):
        inside[0] = True
        try:
            from_store(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(harness, "_update_from_store", spy)
    return inside


@pytest.mark.parametrize(
    "batch,width,n,rows",
    [(128, 128, 128, 300), (16, 8, 8, 40)],
    ids=["default-shapes", "fast-shapes"],
)
def test_shared_targets_match_td_targets_bitwise(batch, width, n, rows, monkeypatch):
    nets, replay = _burst_setup(width, n, rows)
    rng = np.random.default_rng(5)
    distinct = np.unique([replay.draw(batch, rng) for _ in range(12)])
    # the last block is padded, and draws share rows
    assert distinct.size % batch != 0
    assert distinct.size < 12 * batch

    got = []
    stored = _store_spy(monkeypatch)
    harness._run_updates(
        lambda b, targets: got.append((b, targets.copy(), stored[0])),
        12, 0, 250, replay, np.random.default_rng(5), nets, 0.99, _CLIP, UpdateWorkspace(nets, batch),
    )
    assert len(got) == 12
    for b, targets, shared in got:
        want = td_targets(nets, b, 0.99, _CLIP, UpdateWorkspace(nets, batch))
        assert shared and targets.tobytes() == want.tobytes()


def test_top_up_draws_like_sequential_samples_and_splits_at_syncs(monkeypatch):
    nets, replay = _burst_setup(8, 8, rows=20)
    seen = []
    stored = _store_spy(monkeypatch)
    sync = nets.sync_target
    monkeypatch.setattr(nets, "sync_target", lambda: seen.append("sync") or sync())
    # 25 updates after 7, a sync every 10: segments of 3, 10, 10 and 2
    harness._run_updates(
        lambda b, targets: seen.append((b, stored[0])),
        25, 7, 10, replay, np.random.default_rng(9), nets, 0.99, _CLIP, UpdateWorkspace(nets, 16),
    )
    # the target networks sync after updates 10, 20 and 30
    assert [i for i, event in enumerate(seen) if event == "sync"] == [3, 14, 25]
    seen = [event for event in seen if event != "sync"]
    rng = np.random.default_rng(9)
    for b, _ in seen:
        want = replay.gather(replay.draw(16, rng))
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


def test_run_with_shared_targets_at_batch_31_is_reproducible(tmp_path, monkeypatch):
    # at 31 rows a product can give a row other bits at another position,
    # so the store need not match per-update targets here (that depends
    # on the BLAS); it must still write the same bytes on every run
    config = _fast_config(
        episodes=6, seed=3, batch_size=31, hidden_width=16, updates_per_episode=40,
        target_sync_updates=25, gate_episodes=1,
    )
    segments = []
    from_store = harness._update_from_store

    def spy(update, draws, *args):
        segments.append(len(draws))
        return from_store(update, draws, *args)

    monkeypatch.setattr(harness, "_update_from_store", spy)
    run_training(config, tmp_path / "a")
    assert segments
    run_training(config, tmp_path / "b")
    for name in ("curve.csv", "summary.txt", "checkpoint.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_every_update_takes_its_batchs_td_targets_and_syncs_every_t_updates(tmp_path, monkeypatch):
    # in-episode updates, top-up segments with per-update targets and
    # top-up segments from the store all run through one route
    config = _fast_config(warmup_steps=40, updates_per_episode=40, target_sync_updates=25)
    env = make_env(config.env, dt=config.dt)
    clip = (0.0, (1.0 - config.gamma**env.max_steps) / (1.0 - config.gamma))
    events = []
    in_store = _store_spy(monkeypatch)
    run_updates, behaviour_step, sync = harness._run_updates, harness.behaviour_step, PolicyNets.sync_target

    def update_spy(nets, batch, targets, *args, **kwargs):
        # the targets of the batch under the target networks as they stand
        want = td_targets(nets, batch, config.gamma, clip)
        assert targets.tobytes() == want.tobytes(), len(events)
        events.append("stored" if in_store[0] else "own")
        return policy_update_step(nets, batch, targets, *args, **kwargs)

    def run_spy(update, count, *args):
        events.append(count)
        return run_updates(update, count, *args)

    monkeypatch.setattr(harness, "policy_update_step", update_spy)
    monkeypatch.setattr(harness, "_run_updates", run_spy)
    monkeypatch.setattr(harness, "behaviour_step", lambda *args: events.append("act") or behaviour_step(*args))
    monkeypatch.setattr(PolicyNets, "sync_target", lambda nets: events.append("sync") or sync(nets))
    result = run_training(config, tmp_path / "run")

    updates = [event in ("stored", "own") for event in events]
    assert sum(updates) == result.updates
    # a sync follows exactly updates T, 2T, ...
    synced_after = [sum(updates[:i]) for i, event in enumerate(events) if event == "sync"]
    t = config.target_sync_updates
    assert synced_after == list(range(t, result.updates + 1, t)) and len(synced_after) > 1

    # the guard is not vacuous: a run of one update followed by a
    # behaviour step is in the episode; a run of more is a top-up burst
    kinds = set()
    for i, count in enumerate(events):
        if not isinstance(count, int):
            continue
        rest = [event for event in events[i + 1 :] if event != "sync"]
        body = list(itertools.takewhile(lambda event: event in ("stored", "own"), rest))
        if count == 1 and rest[len(body) : len(body) + 1] == ["act"]:
            kinds.add("in-episode")
        elif count > 1:
            kinds.update(f"top-up {event}" for event in body)
    assert kinds == {"in-episode", "top-up own", "top-up stored"}


def test_run_training_seed_changes_the_curve(tmp_path):
    r1 = run_training(_fast_config(), tmp_path / "a")
    r2 = run_training(_fast_config(seed=12), tmp_path / "b")
    assert r1.curve_path.read_bytes() != r2.curve_path.read_bytes()


def _closed_form_likelihoods(critic, hv, state, cands):
    """Oracle: the three candidates' likelihoods and clip flags under the log family.

    The atom means come through the critic's hidden layers and the
    per-signal average of its output rows and biases, the products the
    behaviour step makes, so they match it bit for bit.  They are also
    checked against the full forward's atom means, within 1e-12 of the
    largest atom.  The log family over [0, hv] has F(1e-6) = 0, and a
    constraint enters by its margin hv - utility-to-go.
    """
    params, n = critic.params, critic.n_quantiles
    h = np.column_stack([np.repeat((state * critic.feature_scale)[None], 3, axis=0), cands])
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = np.maximum(h @ w.T + b, 0.0)
    w, b = params.weights[-1], params.biases[-1]
    head_w = w.reshape(critic.n_signals, n, -1).sum(axis=1) / n
    q = h @ head_w.T + b.reshape(-1, n).sum(axis=1) / n
    atoms = critic.forward_batch(np.repeat(state[None], 3, axis=0), cands[:, None])
    assert np.abs(q - atoms.mean(axis=2)).max() <= 1e-12 * np.abs(atoms).max()

    values = np.column_stack([q[:, 0], hv - q[:, 1:]])
    c = hv / -math.log(1e-6)
    factors = np.maximum(np.exp((np.clip(values, 0.0, hv) - hv) / c), 1e-9)
    return factors, (values < 0.0) | (values > hv)


def test_behaviour_step_weights_match_an_independent_recomputation(tmp_path, monkeypatch):
    # no update runs and no probe: every step of the episode sees the
    # initial nets, and each step's state is the reset state or the
    # previous env step's result
    config = _fast_config(
        seed=3, episodes=1, hidden_width=16, warmup_steps=10**6, eval_every=0
    )
    states, steps = [], []
    behaviour_step = harness.behaviour_step
    env_step = CartpoleEnv.step

    def behaviour_spy(*args):
        action, lik, clipped = behaviour_step(*args)
        steps.append((action, args[4], lik.copy(), clipped.copy()))
        return action, lik, clipped

    def step_spy(self, action):
        result = env_step(self, action)
        states.append(result[0].copy())
        return result

    monkeypatch.setattr(harness, "behaviour_step", behaviour_spy)
    monkeypatch.setattr(CartpoleEnv, "step", step_spy)
    run_training(config, tmp_path / "run")
    assert len(steps) > 5

    s_init, s_env, s_noise, *_ = np.random.SeedSequence(config.seed).spawn(5)
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
    )
    hv = (1.0 - config.gamma**env.max_steps) / (1.0 - config.gamma)
    c = hv / -math.log(1e-6)

    def likelihoods(state, cands):
        return _closed_form_likelihoods(nets.critic, hv, state, cands)

    visited = [env.reset(rng=np.random.default_rng(s_env))] + states
    noise_rng = np.random.default_rng(s_noise)
    for step, (action, noise_scale, lik, clipped) in enumerate(steps):
        state = visited[step]
        cands = np.array([-1.0, 1.0, nets.actor.act_batch(state[None, :])[0, 0]])
        factors, flags = likelihoods(state, cands)
        assert lik.tobytes() == factors.tobytes(), step
        npt.assert_array_equal(clipped, flags)
        # the action is the oracle's draw under the likelihoods' row
        # products, plus the noise, from the run's noise stream
        expect = factors[:, 0] * (factors[:, 1] * factors[:, 2])
        weights = expect / expect.sum()
        drawn = _one_d_measure_sampler(cands, weights, 1, noise_rng)[0]
        noisy = min(max(drawn + noise_scale * noise_rng.normal(), -1.0), 1.0)
        assert np.float64(action).tobytes() == np.float64(noisy).tobytes(), step

    # the pin is not vacuous: the constraint-2 factor tells the
    # candidates apart, so leaving it out moves the weights
    assert np.ptp(factors[:, 2]) > 1e-3
    without = factors[:, 0] * factors[:, 1]
    assert np.max(np.abs(without / without.sum() - weights)) > 1e-4

    # constraint-1 atoms beyond the horizon value put that margin below the
    # bracket: each candidate's flag is set and its likelihood is the one
    # at the bracket's lower end
    nets.critic.params.biases[-1][config.n_quantiles : 2 * config.n_quantiles] += 2.0 * hv
    cand_inputs = np.empty((3, env.state_dim + 1))
    cand_inputs[:2, -1] = (-1.0, 1.0)
    _, lik, clipped = harness.behaviour_step(
        nets, log_family(0.0, hv), cand_inputs, visited[0], 0.0, np.random.default_rng(0)
    )
    factors, flags = likelihoods(visited[0], cand_inputs[:, -1].copy())
    assert lik.tobytes() == factors.tobytes()
    npt.assert_array_equal(clipped, flags)
    assert clipped[:, 1].all() and not clipped[:, [0, 2]].any()
    npt.assert_array_equal(lik[:, 1], np.exp(np.full(3, -hv) / c))


def test_behaviour_steps_read_the_critic_as_it_stands(tmp_path, monkeypatch):
    # updates interleave with the behaviour steps inside each episode: each
    # step's likelihoods must come from the critic after the last update
    config = _fast_config(
        seed=5, episodes=3, warmup_steps=5, update_every=2, updates_per_episode=40, eval_every=0
    )
    env = make_env(config.env, dt=config.dt)
    hv = (1.0 - config.gamma**env.max_steps) / (1.0 - config.gamma)
    events = []
    behaviour_step = harness.behaviour_step

    def behaviour_spy(nets, family, cand_inputs, state, noise_scale, rng):
        mu = nets.actor.act_batch(state[None, :])[0, 0]
        expect, flags = _closed_form_likelihoods(nets.critic, hv, state, np.array([-1.0, 1.0, mu]))
        result = behaviour_step(nets, family, cand_inputs, state, noise_scale, rng)
        assert result[1].tobytes() == expect.tobytes(), len(events)
        npt.assert_array_equal(result[2], flags)
        events.append("act")
        return result

    def update_spy(*args, **kwargs):
        events.append("update")
        return policy_update_step(*args, **kwargs)

    monkeypatch.setattr(harness, "behaviour_step", behaviour_spy)
    monkeypatch.setattr(harness, "policy_update_step", update_spy)
    run_training(config, tmp_path / "run")
    # the guard is not vacuous: many steps act right after an update
    after_update = sum(a == "update" and b == "act" for a, b in zip(events, events[1:]))
    assert after_update > 20


# -- the behaviour draw against the one_d_measure route ----------------------------


def _one_d_measure_sampler(positions, weights, n, rng):
    """Oracle: inverse-CDF draws through ``one_d_measure`` and its ``cumulative``."""
    m = one_d_measure(positions, weights)
    idx = np.searchsorted(m.cumulative(), rng.random(n), side="right")
    return m.positions[idx]


class _FixedUniform:
    """Generator stand-in: every uniform draw is ``u``, every normal draw 0."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)

    def normal(self):
        return 0.0


def _behaviour_inputs(seed, mu_bias):
    """Random nets whose actor output is shifted by ``mu_bias``, with the step's operator."""
    nets = _tiny_nets(seed)
    nets.actor.params.biases[-1] += mu_bias
    cand_inputs = np.empty((3, 5))
    cand_inputs[:2, -1] = (-1.0, 1.0)
    # a narrow bracket spreads the candidates' likelihoods apart
    return nets, log_family(0.0, 2.0), cand_inputs


@pytest.mark.parametrize("noise_scale", [0.0, 0.3])
@pytest.mark.parametrize("mu_bias, mu", [(0.0, None), (40.0, 1.0), (-40.0, -1.0)], ids=["random", "+1", "-1"])
def test_behaviour_step_draws_as_the_one_d_measure_route(mu_bias, mu, noise_scale):
    picked = set()
    for seed in range(20):
        nets, family, cand_inputs = _behaviour_inputs(seed, mu_bias)
        states = np.random.default_rng(100 + seed).normal(size=(25, 4))
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for state in states:
            action, lik, _ = harness.behaviour_step(nets, family, cand_inputs, state, noise_scale, rng)
            cands = cand_inputs[:, -1].copy()
            if mu is not None:
                assert cands[2] == mu  # saturated: mu sits on a fixed candidate
            joint = lik[:, 0] * lik[:, 1:].prod(axis=1)
            drawn = _one_d_measure_sampler(cands, joint / joint.sum(), 1, oracle_rng)[0]
            noisy = min(max(drawn + noise_scale * oracle_rng.normal(), -1.0), 1.0)
            assert np.float64(action).tobytes() == np.float64(noisy).tobytes()
            picked.add(int(np.flatnonzero(cands == drawn)[0]))
        # one uniform and one normal per step, as the oracle draws them
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
    # the pin is not vacuous: every distinct candidate was drawn
    assert picked == ({0, 1, 2} if mu is None else {0, 1})


def test_behaviour_step_picks_at_the_cumulative_weights_exactly():
    # uniforms on and just below each cumulative weight: the first
    # candidate in position order whose cumulative weight exceeds u
    for seed in range(30):
        nets, family, cand_inputs = _behaviour_inputs(seed, 0.0)
        state = np.random.default_rng(seed).normal(size=4)
        _, lik, _ = harness.behaviour_step(nets, family, cand_inputs, state, 0.0, np.random.default_rng(0))
        cands = cand_inputs[:, -1].copy()
        joint = lik[:, 0] * lik[:, 1:].prod(axis=1)
        weights = joint / joint.sum()
        c0, c1, _ = one_d_measure(cands, weights).cumulative()
        for u in (0.0, np.nextafter(c0, 0.0), c0, np.nextafter(c1, 0.0), c1, np.nextafter(1.0, 0.0)):
            action, _, _ = harness.behaviour_step(nets, family, cand_inputs, state, 0.0, _FixedUniform(float(u)))
            assert action == _one_d_measure_sampler(cands, weights, 1, _FixedUniform(float(u)))[0], (seed, u)


def test_behaviour_step_refuses_non_finite_weights():
    nets, family, cand_inputs = _behaviour_inputs(0, 0.0)
    nets.critic.params.biases[-1][0] = np.nan
    with pytest.raises(TrainingError, match="candidate weights are not finite"):
        harness.behaviour_step(nets, family, cand_inputs, np.zeros(4), 0.0, np.random.default_rng(0))


def test_behaviour_step_reads_the_mean_head_not_the_output_layer():
    # the head's means and the full forward's agree to round-off, which
    # the likelihood pins cannot tell apart; with the head read first,
    # NaN written over the output layer must not reach the step
    nets, family, cand_inputs = _behaviour_inputs(0, 0.0)
    states = np.random.default_rng(1).normal(size=(5, 4))
    nets.critic.mean_head()
    before = [harness.behaviour_step(nets, family, cand_inputs, s, 0.3, np.random.default_rng(0)) for s in states]
    nets.critic.params.weights[-1].fill(np.nan)
    nets.critic.params.biases[-1].fill(np.nan)
    for state, (action, lik, _) in zip(states, before):
        got, got_lik, _ = harness.behaviour_step(nets, family, cand_inputs, state, 0.3, np.random.default_rng(0))
        assert got == action
        assert got_lik.tobytes() == lik.tobytes()


def test_scheduled_tolerance_follows_the_schedule(tmp_path, monkeypatch):
    config = _fast_config(tolerance_mode="scheduled", episodes=4)
    tolerances = []

    def spy(nets, batch, targets, bounds, est, tolerance, *args, **kwargs):
        tolerances.append(tolerance)
        return policy_update_step(nets, batch, targets, bounds, est, tolerance, *args, **kwargs)

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


def test_curve_td_delta_is_each_episodes_last_update(tmp_path, monkeypatch):
    # the warm-up leaves the first rows without an update; some bursts of
    # 40 updates with a sync every 25 take the shared-target store
    config = _fast_config(warmup_steps=40, updates_per_episode=40, target_sync_updates=25)
    deltas, marks, stored = [], [], []
    curve_row = harness.CurveRow
    in_store = _store_spy(monkeypatch)

    def update_spy(nets, batch, targets, *args, **kwargs):
        # recomputed from the critic and targets as they stand before the update
        stored.append(in_store[0])
        diff = np.sort(nets.critic.forward_batch(batch.states, batch.actions), axis=2) - targets
        deltas.append(float(np.abs(diff).max(axis=2).mean(axis=0).max()))
        return policy_update_step(nets, batch, targets, *args, **kwargs)

    def row_spy(*args):
        marks.append(len(deltas))
        return curve_row(*args)

    monkeypatch.setattr(harness, "policy_update_step", update_spy)
    monkeypatch.setattr(harness, "CurveRow", row_spy)
    result = run_training(config, tmp_path / "run")
    logged = read_curve(result.curve_path)["td_delta"]
    assert len(logged) == len(marks) == config.episodes and len(deltas) == result.updates
    # the guard is not vacuous: rows before and after the first update,
    # updates with targets of their own and from the store
    assert marks[0] == 0 and marks[-1] > 0 and 0 < sum(stored) < len(stored)
    for row, (seen, value) in enumerate(zip(marks, logged)):
        want = deltas[seen - 1] if seen else 0.0
        assert value == pytest.approx(want, rel=1e-8, abs=0.0), row
