"""Byte identity of full-size runs (slow: deselected by default).

Default cartpole for 30 episodes and acrobot for 3 episodes with
``updates_per_episode = 10``, seeds 0-2: the sha256 of every file each
run writes; and the report of the full-size acceptance suite,
``wavopt verify --seed 0``.  Each run is a fresh process with one BLAS
thread, the setting the sums were pinned at (numpy 2.4, OpenBLAS
0.3.31).  Run with

    PYTHONPATH=src python -m pytest -m slow tests/test_golden_runs.py

A change that alters a sum must say why its bytes changed.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

RUNS = {
    "cartpole": dict(env="cartpole", episodes=30),
    "acrobot": dict(env="acrobot", episodes=3, updates_per_episode=10),
}

GOLDEN_RUN_SHA256 = {
    ("cartpole", 0): {
        "curve.csv": "30449bef8420a6474e3695f7c711cd5989912467618ea4d23bf4a6b6d89d3d3b",
        "summary.txt": "3caf9fb85d38175fdd0af735db854e03ac830cc2db2b2b6a389e892fcf623ed5",
        "checkpoint.txt": "08e47882b0849e0906d4c997e9d4b4d0f7852085b90110d27733497ae907ce3f",
    },
    ("cartpole", 1): {
        "curve.csv": "d827a2f911fa9d3a305dd2913b003779ade7df924cba24011c30b5078624f998",
        "summary.txt": "9a2d534ef17f34b91f94a18e559922af32ff46565a1bf2a7efc764864a401325",
        "checkpoint.txt": "73545e428b05f1b6f3574184a40428cf530e5ff5625b60923e40814f921950eb",
    },
    ("cartpole", 2): {
        "curve.csv": "a6c2b4368b67afff266d667721e83bc8b4faf63ea5368803071a628f7e2ca9dc",
        "summary.txt": "0f591251884c814b218aa151cab39b7e45ab2dd5d7e7e8f4c70a0982309f6075",
        "checkpoint.txt": "15fb9771cc24c114670daffb489739b865f66e36f409e3cc086ae99f1af5042e",
    },
    ("acrobot", 0): {
        "curve.csv": "a97ad72e792281b50cdcbbd9ebeb8fbf5c6f777dedfe2c828a33e686d89c5cdc",
        "summary.txt": "45469e90658f3beb3fa8e34d3a4468cfdfc32f125e908549bfbe9e571f83518e",
        "checkpoint.txt": "a3956209c75102ce75b045ecacd2ba9ce35d193ce9d88e501ee23af1325d815f",
    },
    ("acrobot", 1): {
        "curve.csv": "ec9ca952170bb22f6c311ecf4823a24353c7b5c88d8b85d4e964dbcac25d4df3",
        "summary.txt": "6049d17709f097de752e1de86e773bdd2c2f979de919fc2c648fa7c067d3d081",
        "checkpoint.txt": "7a63e6c90298ed725ec269c002c504ef88a84cad5c5a48238d55dc3e3dcc1d63",
    },
    ("acrobot", 2): {
        "curve.csv": "2424dd9c912f48be76b98a8c2da61bded0b4c23fe69eea8e4572b4a7bf451611",
        "summary.txt": "ef3256ec34730e708d9b7e1088124fb504076b35478c0ca3861ad7e1152d8a50",
        "checkpoint.txt": "fa3774ed2445240d1ff598a49d1cec1e13b46a797a3be6ce447f3c5d84da3202",
    },
}

_TRAIN = """
import sys
from wavopt.harness import TrainConfig, run_training
run_training(TrainConfig(seed=int(sys.argv[1]), **{config!r}), sys.argv[2])
"""


@pytest.mark.slow
@pytest.mark.parametrize("run,seed", sorted(GOLDEN_RUN_SHA256))
def test_training_run_matches_golden_bytes(run, seed, tmp_path):
    script = _TRAIN.format(config=RUNS[run])
    subprocess.run([sys.executable, "-c", script, str(seed), str(tmp_path)], env=_one_thread_env(), check=True)
    for name, digest in GOLDEN_RUN_SHA256[run, seed].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# ``wavopt verify --seed 0``: every check at full size, check_gradients(100) included
VERIFY_FULL_SEED0_SHA256 = "15bd38ff9f2f4d3cacd6828acaf8a123f1d7ca77e23d7b23f699e7e64d3ec30a"


@pytest.mark.slow
def test_full_verify_report_matches_golden_bytes(tmp_path):
    cmd = [sys.executable, "-m", "wavopt.cli", "verify", "--seed", "0", "--out", str(tmp_path)]
    subprocess.run(cmd, env=_one_thread_env(), check=True, capture_output=True)
    digest = hashlib.sha256((tmp_path / "verify_report.txt").read_bytes()).hexdigest()
    assert digest == VERIFY_FULL_SEED0_SHA256


def _one_thread_env() -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env
