"""Exit codes and file outputs of every subcommand."""

import contextlib
import errno
import hashlib
import io
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavopt import cli, harness
from wavopt.cli import main
from wavopt.harness import CurveRow, read_curve, write_curve

from recovery_curves import synthetic_recovery_curve

FAST_CONFIG = """
env = cartpole
episodes = 6
seed = 4
batch_size = 16
n_quantiles = 8
hidden_width = 8
warmup_steps = 20
updates_per_episode = 2
eval_episodes = 1
eval_every = 3
probe_episodes = 1
"""


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FAST_CONFIG)
    return path


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_help_exits_0():
    assert main(["--help"]) == 0


def test_train_missing_config_flag_exits_2():
    assert main(["train"]) == 2


def test_train_nonexistent_config_exits_2(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "none.cfg")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_train_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mystery_knob = 3\n")
    assert main(["train", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_train_invalid_override_exits_2(fast_config, tmp_path):
    assert main(["train", "--config", str(fast_config), "--episodes", "-2"]) == 2
    assert main(["train", "--config", str(fast_config), "--seed", "-1"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--quick", "--seed", "-1"],
        ["oracle", "--seed", "-1"],
        ["oracle", "--pairs", "0"],
        ["oracle", "--pairs", "-4"],
    ],
)
def test_negative_seed_or_empty_oracle_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:")
    assert len(captured.err.strip().splitlines()) == 1
    assert "PASS" not in captured.out


@pytest.mark.parametrize(
    "bad_line",
    [
        "env = pendulum",
        "hidden_width = 0",
        "hidden_layers = -1",
        "buffer_capacity = 10",
        "learning_rate = inf",
        "noise_start = nan",
        "target_sync_updates = 0",
        "dt = 0",
        "noise_start = -0.5",
        "noise_end = -1",
        "noise_decay_frac = -2",
        "noise_decay_frac = 5",
        "raw_penalty = -0.1",
        "seed = -3",
    ],
)
def test_train_rejects_invalid_config_without_traceback(tmp_path, capsys, bad_line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(FAST_CONFIG.replace("batch_size = 16", "batch_size = 64") + bad_line + "\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_train_a_run_too_large_for_memory_exits_2(tmp_path, capsys):
    # the critic's output layer, 3e15 rows of 8 weights (171 PiB), is the
    # first allocation that fails; every one before it is small
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("n_quantiles = 1000000000000000\nhidden_width = 8\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {cfg} does not fit in memory (Unable to allocate 171. PiB")
    assert len(err.strip().splitlines()) == 1
    # the output directory is made only once everything is allocated
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text",
    [
        "buffer_capacity = 3000000000000000000\nhidden_width = 8\nn_quantiles = 8\n",
        "hidden_width = 3000000000000000000\n",
        "n_quantiles = 100000000000000000000\nhidden_width = 8\n",
        "batch_size = 100000000000000000000\nbuffer_capacity = 100000000000000000000\nhidden_width = 8\nn_quantiles = 8\n",
    ],
    ids=["replay", "hidden-layer", "critic-head", "workspace"],
)
def test_train_a_size_beyond_numpys_index_range_exits_2(tmp_path, capsys, text):
    # numpy refuses each size while it computes it, before any allocation
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(text)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {cfg} does not fit in memory (")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def _refused_mapping(code):
    def mapping(*args, **kwargs):
        raise OSError(code, os.strerror(code))

    return mapping


def test_train_a_replay_mapping_the_host_refuses_exits_2(tmp_path, capsys, fast_config, monkeypatch):
    # the host's answer to a large anonymous mapping depends on its
    # overcommit setting, so the refusal is made here
    monkeypatch.setattr(harness.mmap, "mmap", _refused_mapping(errno.ENOMEM))
    assert main(["train", "--config", str(fast_config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: {fast_config} does not fit in memory ([Errno {errno.ENOMEM}] {os.strerror(errno.ENOMEM)})\n"
    assert not (tmp_path / "out").exists()


def test_train_another_refused_mapping_keeps_its_own_message(tmp_path, capsys, fast_config, monkeypatch):
    monkeypatch.setattr(harness.mmap, "mmap", _refused_mapping(errno.EACCES))
    with pytest.raises(PermissionError):
        harness.run_training(harness.load_config(fast_config), tmp_path / "out")
    assert main(["train", "--config", str(fast_config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"configuration error: [Errno {errno.EACCES}] {os.strerror(errno.EACCES)}\n"
    assert not (tmp_path / "out").exists()


def test_train_a_memory_error_without_text_prints_no_empty_parentheses(tmp_path, capsys, fast_config, monkeypatch):
    def no_memory(config, out_dir):
        raise MemoryError()

    monkeypatch.setattr(cli, "run_training", no_memory)
    assert main(["train", "--config", str(fast_config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"configuration error: {fast_config} does not fit in memory\n"


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("train", "env = cartpole\nseed = 3\nenv = acrobot\n", "line 3: env is given twice (first on line 1)"),
        ("rate", "episode,cum_return,cum_return\n1,2,3\n2,4,5\n", "line 1: column 'cum_return' is given twice (first in column 2)"),
        ("interpret", "p_trajectory,a,a\n0.5,0.5,0.5\n", "line 1: column 'a' is given twice (first in column 2)"),
    ],
)
def test_a_name_given_twice_exits_2_naming_its_first_place(tmp_path, capsys, command, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    out = tmp_path / "out"
    argv = ["train", "--config", str(path), "--out", str(out)] if command == "train" else [command, str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--config", "{dir}"],
        ["rate", "{dir}"],
        ["interpret", "{dir}"],
        ["train", "--config", "{binary}"],
        ["interpret", "{binary}"],
        ["rate", "{binary}"],
        ["train", "--config", "{config}", "--out", "{file}"],
        ["verify", "--quick", "--out", "{file}"],
    ],
    ids=[
        "train-config-dir",
        "rate-dir",
        "interpret-dir",
        "train-config-binary",
        "interpret-binary",
        "rate-binary",
        "train-out-file",
        "verify-out-file",
    ],
)
def test_unreadable_input_or_unwritable_output_exits_2(tmp_path, fast_config, capsys, argv):
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff")
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    paths = {"dir": tmp_path, "binary": binary, "config": fast_config, "file": taken}
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("configuration error:")
    assert len(err.strip().splitlines()) == 1
    # the message names the file at fault, the last path on the line
    assert str(paths[argv[-1].strip("{}")]) in err
    if argv[-1] == "{binary}":
        # the same words for a config, a curve and a trace
        assert err.startswith(f"configuration error: {binary}: not readable as text (")
    # and an unusable output fails before any check runs
    assert "PASS" not in captured.out and "FAIL" not in captured.out


def test_train_zero_episodes_writes_header_only_curve(fast_config, tmp_path):
    out = tmp_path / "out"
    assert main(["train", "--config", str(fast_config), "--episodes", "0", "--out", str(out)]) == 0
    lines = (out / "curve.csv").read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("episode,cum_return")
    assert (out / "checkpoint.txt").exists()
    assert (out / "summary.txt").exists()


def test_train_runs_and_seed_override_changes_output(fast_config, tmp_path, capsys):
    out_a, out_b, out_c = (tmp_path / n for n in "abc")
    assert main(["train", "--config", str(fast_config), "--out", str(out_a)]) == 0
    assert "final reward objective" in capsys.readouterr().out
    assert main(["train", "--config", str(fast_config), "--out", str(out_b)]) == 0
    assert main(["train", "--config", str(fast_config), "--seed", "5", "--out", str(out_c)]) == 0
    curve_a = (out_a / "curve.csv").read_bytes()
    assert curve_a == (out_b / "curve.csv").read_bytes()
    assert curve_a != (out_c / "curve.csv").read_bytes()
    assert read_curve(out_a / "curve.csv")["episode"].size == 6


# the ``final`` case of test_summary_names_the_shipped_checkpoint
# (tests/test_harness.py): no probe is feasible, so no nominee exists
FINAL_SHIP_CONFIG = """
env = cartpole
episodes = 8
seed = 11
batch_size = 16
n_quantiles = 8
hidden_width = 8
hidden_layers = 2
warmup_steps = 20
updates_per_episode = 3
target_sync_updates = 10
buffer_capacity = 2000
eval_episodes = 1
eval_every = 2
probe_episodes = 1
bound = -1.0
gate_margin = 1e6
"""


def test_train_warns_when_the_final_actor_ships_over_a_bound(tmp_path, capsys):
    cfg = tmp_path / "final.cfg"
    cfg.write_text(FINAL_SHIP_CONFIG)
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    summary = dict(line.split("=", 1) for line in (out / "summary.txt").read_text().splitlines())
    assert summary["shipped"] == "final"
    assert len(err) == 1 and err[0].startswith("warning: shipped the unchecked final actor")
    broken = [i for i in (1, 2) if float(summary[f"final_constraint_{i}"]) > -0.5]
    assert broken
    for i in broken:
        assert f"final_constraint_{i}={summary[f'final_constraint_{i}']} > -0.5" in err[0]


def test_train_warns_when_the_final_actor_ships_a_nan_constraint(fast_config, tmp_path, capsys, monkeypatch):
    # every probe measures nan: nothing is nominated, and the final actor
    # ships with nan constraints, which break every bound
    def nan_probe(actor, config, episodes, seed):
        return harness.ObjectiveEstimate(0.0, np.full(2, np.nan), episodes, 1.0)

    monkeypatch.setattr(harness, "probe", nan_probe)
    assert main(["train", "--config", str(fast_config), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "summary.txt").read_text().splitlines()[-1] == "shipped=final"
    assert capsys.readouterr().err.splitlines() == [
        "warning: shipped the unchecked final actor (no gate nominee passed) and it breaks "
        "bound + tolerance_fixed: final_constraint_1=nan > 60.5, final_constraint_2=nan > 60.5"
    ]


_NOT_FINITE = "horizon_scale must keep the scheduled tolerance finite, got "


@pytest.mark.parametrize(
    "text, message",
    [
        ("tolerance_mode = scheduled\nhorizon_scale = 1e308\n", _NOT_FINITE + "1e+308"),
        ("tolerance_mode = scheduled\nhorizon_scale = -1e308\n", _NOT_FINITE + "-1e+308"),
        ("learning_rate = 0\n", "learning_rate must be > 0, got 0.0"),
    ],
    ids=["overflow", "zero-division", "one-key"],
)
def test_train_refuses_a_config_in_one_line_naming_one_key(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_train_diverging_acrobot_exits_1_without_a_checkpoint(tmp_path, capsys):
    # dt = 2 overflows the acrobot's RK4 within a few steps
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text("env = acrobot\nepisodes = 1\ndt = 2\n")
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert re.fullmatch(r"training aborted: acrobot step \d+: RK4 integration diverged at dt = 2\.0", lines[0])
    assert not (out / "checkpoint.txt").exists()


def test_train_diverging_cartpole_exits_1_without_a_checkpoint(tmp_path, capsys):
    # dt = 1e300 throws the pole to an infinite angle on the first step
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text("dt = 1e300\nepisodes = 8\nhidden_width = 8\nn_quantiles = 4\nbatch_size = 8\n")
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert re.fullmatch(r"training aborted: cartpole step \d+: Euler integration diverged at dt = 1e\+300", lines[0])
    assert not (out / "checkpoint.txt").exists()


def test_train_gated_ship_prints_no_warning(tmp_path, capsys):
    cfg = tmp_path / "margined.cfg"
    cfg.write_text(FINAL_SHIP_CONFIG.replace("bound = -1.0\ngate_margin = 1e6\n", ""))
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "summary.txt").read_text().splitlines()[-1] == "shipped=margined"
    assert capsys.readouterr().err == ""


VERIFY_QUICK_SEED7_SHA256 = "e32626cf7ac4cb35b35a777447167337edfcc659bbcd53a6e021b0a1c6073119"


def test_verify_quick_passes_and_report_is_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    assert main(["verify", "--quick", "--seed", "7", "--out", str(out1)]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--quick", "--seed", "7", "--out", str(out2)]) == 0
    assert capsys.readouterr().out == first
    report = (out1 / "verify_report.txt").read_text()
    assert report == (out2 / "verify_report.txt").read_text()
    lines = report.strip().splitlines()
    assert len(lines) == 7
    assert all(line.endswith(("PASS", "FAIL")) for line in lines)
    assert all("max_violation=" in line for line in lines)
    # pinned report bytes (same at one and two BLAS threads): a change
    # that moves any printed violation must say so here
    digest = hashlib.sha256((out1 / "verify_report.txt").read_bytes()).hexdigest()
    assert digest == VERIFY_QUICK_SEED7_SHA256


def test_verify_prints_check_timings_to_stderr(tmp_path, capsys):
    assert main(["verify", "--quick", "--seed", "7", "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == (tmp_path / "verify_report.txt").read_text()
    names = [line.split()[0] for line in captured.out.splitlines()]
    err = captured.err.splitlines()
    assert len(err) == len(names) == 7
    for name, line in zip(names, err):
        assert re.fullmatch(rf"PASS {name}: max violation \S+ \(tolerance \S+, \d+\.\d\ds\)( \[.*\])?", line)


def test_rate_on_synthetic_curve_prints_exponent(tmp_path, capsys):
    y = synthetic_recovery_curve(0.5)
    rows = [CurveRow(i + 1, v, np.array([0.0]), 0, 0.0, 0.0) for i, v in enumerate(y)]
    path = tmp_path / "curve.csv"
    write_curve(path, rows, 1)
    assert main(["rate", str(path)]) == 0
    assert "exponent 0.50" in capsys.readouterr().out


def test_rate_reads_a_hand_written_curve_with_a_space_after_each_comma(tmp_path, capsys):
    y = synthetic_recovery_curve(0.5)
    lines = ["episode,cum_return"] + [f"{i + 1},{float(v)!r}" for i, v in enumerate(y)]
    written, spaced = tmp_path / "written.csv", tmp_path / "spaced.csv"
    written.write_text("\n".join(lines) + "\n")
    spaced.write_text("\n".join(line.replace(",", ", ") for line in lines) + "\n")
    assert main(["rate", str(written)]) == 0
    expected = capsys.readouterr().out
    assert expected.startswith("exponent 0.50 ")
    assert main(["rate", str(spaced)]) == 0
    assert capsys.readouterr().out == expected


def test_rate_short_curve_reports_skip(tmp_path, capsys):
    rows = [CurveRow(i + 1, -250.0, np.array([0.0]), 0, 0.0, 0.0) for i in range(10)]
    path = tmp_path / "curve.csv"
    write_curve(path, rows, 1)
    assert main(["rate", str(path)]) == 0
    assert "skipped" in capsys.readouterr().out


def _write_rising_curve(path, episodes):
    rows = [CurveRow(i + 1, -250.0 + i, np.array([0.0]), 0, 0.0, 0.0) for i in range(episodes)]
    write_curve(path, rows, 1)


def test_rate_needs_seventy_episodes(tmp_path, capsys):
    # a 20-episode smoothing window plus 50 fit points
    path = tmp_path / "curve.csv"
    _write_rising_curve(path, 69)
    assert main(["rate", str(path)]) == 0
    assert capsys.readouterr().out == "rate fit skipped: need at least 70 episodes, got 69\n"
    _write_rising_curve(path, 70)
    assert main(["rate", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and "need at least" not in out


def test_rate_missing_or_malformed_file_exits_2(tmp_path, capsys):
    assert main(["rate", str(tmp_path / "none.csv")]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    capsys.readouterr()
    assert main(["rate", str(bad)]) == 2
    assert capsys.readouterr().err == f"configuration error: not a curve file: {bad} (no cum_return column)\n"
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["rate", str(empty)]) == 2
    short = tmp_path / "short.csv"
    short.write_text("episode,cum_return,branch\n1,-240,0\n2,-230\n")
    capsys.readouterr()
    assert main(["rate", str(short)]) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("burn_in", ["nan", "inf", "1e308", "1", "-0.1"])
def test_rate_refuses_a_burn_in_outside_the_unit_interval(tmp_path, capsys, burn_in):
    y = synthetic_recovery_curve(0.5)
    rows = [CurveRow(i + 1, v, np.array([0.0]), 0, 0.0, 0.0) for i, v in enumerate(y)]
    path = tmp_path / "curve.csv"
    write_curve(path, rows, 1)
    assert main(["rate", str(path), "--burn-in", burn_in]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --burn-in must be a number in [0, 1)")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("field", ["nan", "inf", "-1e400"])
def test_rate_refuses_a_non_finite_curve_field(tmp_path, capsys, field):
    path = tmp_path / "curve.csv"
    path.write_text(f"episode,cum_return,branch\n1,-240,0\n2,{field},0\n3,-220,0\n")
    assert main(["rate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: not a curve file: {path} (line 3: cum_return")
    assert len(err.strip().splitlines()) == 1


_CURVE_HEADERS = ["episode,cum_return,branch", "episode,cum_return", "cum_return", "episode,branch", "episode,cum_return,cum_return"]


@st.composite
def _curve_files(draw):
    """Arbitrary bytes or text, a CSV of arbitrary tokens, or a long numeric curve under a plausible header."""
    kind = draw(st.sampled_from(["bytes", "text", "csv", "curve"]))
    if kind == "bytes":
        return draw(st.binary(max_size=80))
    if kind == "text":
        return draw(st.text(max_size=80)).encode()
    header = draw(st.sampled_from(_CURVE_HEADERS))
    width = header.count(",") + 1
    if kind == "csv":
        tokens = st.one_of(_TRACE_TOKENS, st.integers().map(str), st.sampled_from(["9" * 25, "-" + "9" * 25, "1_0"]))
        row = st.lists(tokens, min_size=width - 1, max_size=width + 1)
        rows = draw(st.lists(row, max_size=4))
        return "\n".join([header] + [",".join(row) for row in rows]).encode()
    # long enough for the fit to run: finite values, tiny to huge
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=70, max_size=100))
    rows = [",".join([str(i + 1), repr(v), "0"][:width]) for i, v in enumerate(values)]
    return "\n".join([header] + rows).encode()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_curve_files())
@example(b"episode,cum_return\n99999999999999999999,1\n")
@example("\n".join(["episode,cum_return"] + [f"{i + 1},{(-1) ** i * 1e308!r}" for i in range(100)]).encode())
@example("\n".join(["episode,cum_return"] + [f"{i + 1},{-1e308 if i < 30 else 1e308 * (i / 100)!r}" for i in range(100)]).encode())
def test_rate_on_any_curve_exits_0_or_2_with_one_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        curve = Path(tmp) / "curve.csv"
        curve.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["rate", str(curve)])
    if code == 0:
        assert err.getvalue() == ""
        assert out.getvalue().count("\n") == 1
    else:
        assert code == 2
        assert err.getvalue().startswith("configuration error: ") and err.getvalue().count("\n") == 1


def test_interpret_writes_series(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("p_trajectory,wind,payload\n0.3,0.6,0.9\n0.5,0.25,1.0\n")
    out = tmp_path / "out"
    assert main(["interpret", str(trace), "--out", str(out)]) == 0
    lines = (out / "interpretation.csv").read_text().splitlines()
    assert lines[0] == "step,factor,probability,conditional,capped"
    assert lines[1] == "0,wind,0.6,0.5,0"
    # ratio 0.5 / 0.25 = 2 exceeds 1: capped and flagged
    assert lines[3] == "1,wind,0.25,1,1"
    assert len(lines) == 5


def test_interpret_stdout_without_out_dir(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("p_trajectory,wind\n0.3,0.6\n")
    assert main(["interpret", str(trace)]) == 0
    assert "0,wind,0.6,0.5,0" in capsys.readouterr().out


def test_interpret_rejects_bad_header_and_zero_factor(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("p_traj,wind\n0.3,0.6\n")
    assert main(["interpret", str(bad)]) == 2
    zero = tmp_path / "zero.csv"
    zero.write_text("p_trajectory,wind\n0.3,0.0\n")
    assert main(["interpret", str(zero)]) == 2


@pytest.mark.parametrize("row", ["nan,0.5,0.5", "-1,2,inf", "0.5,0.5,1.5", "1.2,0.5,0.5"])
def test_interpret_rejects_impossible_probabilities(tmp_path, capsys, row):
    trace = tmp_path / "trace.csv"
    trace.write_text(f"p_trajectory,wind,payload\n0.3,0.6,0.9\n{row}\n")
    assert main(["interpret", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: line 3:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("\np_trajectory,wind\n0.3,x\n", "line 3: wind is not a finite number: 'x'"),
        ("\n\np_trajectory,wind\n0.3,0.6\n0.5,0.5,0.5\n", "line 5: expected 2 fields, got 3"),
        ("\np_trajectory,wind,wind\n0.3,0.6,0.6\n", "line 2: column 'wind' is given twice (first in column 2)"),
        ("\n\np_trajectory,wind\n0.3,0.6\n-1,0.5\n", "line 5: "),
        ("\np_trajectory,wind\n0.3,0.6\nnan,0.5\n", "line 4: p_trajectory is not a finite number: 'nan'\n"),
        ("\n\np_trajectory, wind\n0.3, inf\n", "line 4: wind is not a finite number: ' inf'\n"),
    ],
    ids=["value", "width", "header", "probability", "nan", "inf"],
)
def test_interpret_errors_name_the_files_own_line(tmp_path, capsys, text, message):
    # the blank lines before the header count
    trace = tmp_path / "trace.csv"
    trace.write_text(text)
    assert main(["interpret", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}")
    assert len(err.strip().splitlines()) == 1


_TRACE_TOKENS = st.one_of(
    st.floats(0.01, 1.0).map(repr),
    st.floats(0.01, 1.0).map(repr),
    st.floats().map(repr),
    st.sampled_from(["0", "1", "0.5", "1e-320", "", " ", "nan", "-0.0", "inf"]),
    st.text(max_size=6),
)


@st.composite
def _trace_files(draw):
    """Arbitrary bytes, arbitrary text, or a CSV of arbitrary tokens under a plausible header."""
    kind = draw(st.sampled_from(["bytes", "text", "csv"]))
    if kind == "bytes":
        return draw(st.binary(max_size=80))
    if kind == "text":
        return draw(st.text(max_size=80)).encode()
    header = draw(st.sampled_from(["p_trajectory", "p_trajectory,reward", "p_trajectory,reward,safety", "reward"]))
    width = header.count(",") + 1
    row = st.one_of(
        st.lists(_TRACE_TOKENS, min_size=width, max_size=width),
        st.lists(_TRACE_TOKENS, min_size=width - 1, max_size=width + 1),
    )
    rows = draw(st.lists(row, max_size=4))
    return "\n".join([header] + [",".join(row) for row in rows]).encode()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_trace_files())
def test_interpret_on_any_trace_exits_0_or_2_with_one_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.csv"
        trace.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["interpret", str(trace)])
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 2
        assert err.getvalue().startswith("configuration error: ") and err.getvalue().count("\n") == 1


def test_oracle_passes(capsys):
    assert main(["oracle", "--seed", "3", "--pairs", "60"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("transport_vs_oracle")
    assert out.strip().endswith("PASS")
