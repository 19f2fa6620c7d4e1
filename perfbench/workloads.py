"""The four benchmark workloads.

Each workload builds its inputs from the seed at set-up, then runs
passes of fixed work.  ``step`` is the timed part of a pass; ``judge``
checks its outputs afterwards and reports how many operations the pass
completed (``ops``), how many results it checked and how many of those
were wrong.  ``chunk_ops`` splits ``ops`` over the chunks that the
workload's ``cuts`` (time stamps, empty for most) make of the pass.

* ``cartpole-train``: one default cartpole training run of 40 episodes
  (about 1600 policy updates, update-bound).  op = one policy update.
* ``acrobot-act``: default acrobot training with 10 updates per episode,
  8 episodes per pass; 500-step episodes make it acting-bound.
  op = one behaviour environment step.
* ``transport-large``: gswd (8 degree-3 slices) and swd (50 linear
  slices) on n = 10^4, d = 3 point clouds, as a uniform/uniform and a
  weighted/uniform pair, plus one_d_measure and wasserstein_1d at
  n = 10^4.  op = one distance (gswd, swd or wasserstein_1d call).
* ``verify-quick``: ``verify.run_all(full=False)`` over consecutive
  seeds; thousands of tiny measures.  op = one quick verify pass.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np

import pace
import reference
from wavopt import harness, measures, ot, verify
from wavopt.envs import make_env
from wavopt.measures import DefiningFunction, DiscreteMeasure, SliceParameterSet
from wavopt.nn import TrainingError

# layers are called through their modules, so the traced run sees the
# calls the tracer patched there

PINNED = Path(__file__).resolve().parent / "pinned_transport.json"
REL_TOL = 1e-9

# pace.py kernel weights per workload, fitted so that the scaled time of
# pieces of each workload (a policy update, 25 acrobot act+step pairs,
# one_d_measure and DefiningFunction.evaluate at n = 10^4, quick verify
# checks) reads the same in slowed and unslowed stretches; see NOTES.md
WEIGHTS = {
    "cartpole-train": {"blas": 1, "vector": 1},
    "acrobot-act": {"interp": 1, "vector": 1},
    "transport-large": {"interp": 1, "vector": 2},
    "verify-quick": {"interp": 1, "blas": 1},
}


def _finite_numbers(tokens) -> bool:
    try:
        return all(math.isfinite(float(t)) for t in tokens)
    except ValueError:
        return False


def _numeric(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


class TrainWorkload:
    """Whole ``run_training`` calls; pass i trains with seed ``seed * 1000 + i``."""

    def __init__(self, op: str, seed: int, out_dir: Path, pacer, cut_updates: bool, **config):
        self.op = op
        self.seed = seed
        self.out_dir = out_dir
        self.pacer = pacer
        self.config = harness.TrainConfig(**config).validate()
        make_env(self.config.env, dt=self.config.dt)  # set-up cost only; run_training builds its own
        self._updates = 0
        self.cuts = []
        if cut_updates:
            self._cut_updates()

    def _cut_updates(self) -> None:
        """Cut the pass into chunks after every ``updates_per_episode``-th policy update.

        That is about one training episode per chunk; the first chunk
        also holds the warm-up, the last one the gate, evaluation and
        file writes.
        """
        update = harness.policy_update_step
        per = self.config.updates_per_episode

        @functools.wraps(update)
        def counted(*args, **kwargs):
            result = update(*args, **kwargs)
            self._updates += 1
            if self._updates % per == 0:
                self.cuts.append(time.perf_counter())
            return result

        harness.policy_update_step = counted

    def step(self, i: int):
        config = dataclasses.replace(self.config, seed=self.seed * 1000 + i)
        out = self.out_dir / f"pass{i}"
        self._updates = 0
        self.cuts = []
        try:
            result = harness.run_training(config, out)
        except TrainingError as exc:
            result = exc
        return config, out, result

    def _chunk_ops(self, ops: int) -> list:
        """Ops per chunk of the pass: ``per`` updates per cut chunk.

        A pass without cuts (acrobot-act, the traced run) or that failed
        is one chunk.
        """
        per = self.config.updates_per_episode
        if not self.cuts or ops == 0:
            return [ops]
        return [per] * len(self.cuts) + [ops - per * len(self.cuts)]

    def judge(self, out, seconds: float) -> dict:
        config, path, result = out
        problems = []
        curve_sha = None
        env_steps = 0
        if isinstance(result, TrainingError):
            problems.append(f"TrainingError: {result}")
        else:
            curve_bytes = (path / "curve.csv").read_bytes()
            curve_sha = hashlib.sha256(curve_bytes).hexdigest()
            rows = list(csv.reader(curve_bytes.decode().splitlines()))
            header, body = rows[0], rows[1:]
            if len(body) != config.episodes or any(len(r) != len(header) for r in body):
                problems.append("curve.csv has the wrong shape")
            elif not all(_finite_numbers(r) for r in body):
                problems.append("curve.csv has a non-finite value")
            elif body:
                env_steps = round(float(body[-1][header.index("sim_seconds")]) / config.dt)
            summary = [line.split("=", 1) for line in (path / "summary.txt").read_text().splitlines() if line]
            if not summary or any(len(kv) != 2 for kv in summary):
                problems.append("summary.txt does not parse")
            elif not _finite_numbers(v for _, v in summary if _numeric(v)):
                problems.append("summary.txt has a non-finite value")
        shutil.rmtree(path, ignore_errors=True)
        updates = 0 if problems else result.updates
        ops = updates if self.op == "policy update" else env_steps
        return {
            "ops": ops,
            "chunk_ops": self._chunk_ops(ops),
            "attempted": 1,
            "failed": 1 if problems else 0,
            "figures": {
                "wall_s": seconds,
                "updates_per_s": updates / seconds,
                "env_steps_per_s": env_steps / seconds,
            },
            "info": {"seed": config.seed, "updates": updates, "env_steps": env_steps,
                     "curve_sha256": curve_sha, "problems": problems},
        }


class TransportWorkload:
    """Fixed inputs from the seed; every pass runs the same six calls."""

    op = "distance"
    K = 2.0
    DEGREE, SLICES, PROJECTIONS = 3, 8, 50

    cuts = ()

    def __init__(self, seed: int, n: int, pacer=None):
        self.pacer = pacer
        rng = np.random.default_rng(seed)
        self.seed, self.n = seed, n
        self.x = rng.normal(size=(n, 3))
        self.y = rng.normal(loc=0.5, scale=1.5, size=(n, 3))
        wx = rng.uniform(0.1, 1.0, size=n)
        self.wx = wx / wx.sum()
        self.coeffs = rng.standard_normal((self.SLICES, reference.monomial_exponents(self.DEGREE, 3).shape[0]))
        self.swd_seed = int(rng.integers(2**31))

        self.mu_u = DiscreteMeasure.from_points(self.x)
        self.mu_w = DiscreteMeasure.from_points(self.x, self.wx)
        self.nu_u = DiscreteMeasure.from_points(self.y)
        self.slices = SliceParameterSet(
            [DefiningFunction.normalized("poly", 3, c, degree=self.DEGREE) for c in self.coeffs]
        )
        self.line_y = measures.one_d_measure(self.y[:, 0])
        self._expected = None

    def step(self, i: int):
        perf = time.perf_counter
        values, times = {}, {}
        for name, fn in (
            ("gswd_uniform", lambda: ot.gswd(self.mu_u, self.nu_u, self.K, self.slices)),
            ("gswd_weighted", lambda: ot.gswd(self.mu_w, self.nu_u, self.K, self.slices)),
            ("swd_uniform", lambda: ot.swd(self.mu_u, self.nu_u, self.K, self.PROJECTIONS, self.swd_seed)),
            ("swd_weighted", lambda: ot.swd(self.mu_w, self.nu_u, self.K, self.PROJECTIONS, self.swd_seed)),
        ):
            t0 = perf()
            values[name] = fn()
            times[name] = perf() - t0
        t0 = perf()
        line_x = measures.one_d_measure(self.x[:, 0], self.wx)
        times["one_d_measure"] = perf() - t0
        t0 = perf()
        values["wasserstein_1d"] = ot.wasserstein_1d(line_x, self.line_y, 1.0)
        times["wasserstein_1d"] = perf() - t0
        return values, times

    def expected(self) -> dict:
        """Independent reference values, plus the pinned seed-commit values when present."""
        if self._expected is None:
            k = self.K
            feats_x = reference.poly_features(self.x, self.DEGREE)
            feats_y = reference.poly_features(self.y, self.DEGREE)
            coeffs = reference.unit(self.coeffs).T
            dirs = reference.unit(np.random.default_rng(self.swd_seed).standard_normal((self.PROJECTIONS, 3))).T
            ref = {
                "gswd_uniform": reference.sliced(feats_x @ coeffs, None, feats_y @ coeffs, None, k),
                "gswd_weighted": reference.sliced(feats_x @ coeffs, self.wx, feats_y @ coeffs, None, k),
                "swd_uniform": reference.sliced(self.x @ dirs, None, self.y @ dirs, None, k),
                "swd_weighted": reference.sliced(self.x @ dirs, self.wx, self.y @ dirs, None, k),
                "wasserstein_1d": reference.wk_power_1d(self.x[:, 0], self.wx, self.y[:, 0], None, 1.0),
            }
            pinned = json.loads(PINNED.read_text()) if PINNED.exists() else {}
            self._expected = [ref]
            if pinned.get("n") == self.n and str(self.seed) in pinned["values"]:
                self._expected.append(pinned["values"][str(self.seed)])
        return self._expected

    def judge(self, out, seconds: float) -> dict:
        values, times = out
        problems = [
            f"{name}: {got!r} vs {want[name]!r}"
            for want in self.expected()
            for name, got in values.items()
            if not abs(got - want[name]) <= REL_TOL * abs(want[name])  # NaN fails too
        ]
        wrong = {p.split(":")[0] for p in problems}
        return {
            "ops": len(values),
            "chunk_ops": [len(values)],
            "attempted": len(values),
            "failed": len(wrong),
            "figures": {f"{name}_ms": t * 1e3 for name, t in times.items()},
            "info": {"values": values, "pinned": len(self.expected()) > 1, "problems": problems},
        }


class VerifyWorkload:
    """One ``run_all(full=False)`` per pass, on seed ``seed * 1000 + i``."""

    op = "verify pass"
    cuts = ()

    def __init__(self, seed: int, pacer):
        self.seed = seed
        self.pacer = pacer

    def step(self, i: int):
        return verify.run_all(full=False, seed=self.seed * 1000 + i)

    def judge(self, out, seconds: float) -> dict:
        failed = [r.name for r in out if not r.passed]
        return {
            "ops": 1,
            "chunk_ops": [1],
            "attempted": len(out),
            "failed": len(failed),
            "figures": {"verify_s": seconds},
            "info": {"failed_checks": failed},
        }


# quick mode: tiny inputs for the smoke test, same code paths
_TRAIN_QUICK = dict(
    episodes=3, warmup_steps=20, batch_size=16, hidden_width=16, n_quantiles=8,
    updates_per_episode=5, gate_episodes=2, eval_episodes=1, probe_episodes=1,
)


def make(name: str, seed: int, quick: bool, out_dir: Path, traced: bool):
    """Build a workload and its pacer.

    Untraced cartpole runs also cut each pass into chunks at policy
    updates; the traced run leaves ``policy_update_step`` to the tracer.
    """
    pacer = pace.Pacer(WEIGHTS[name])
    if name == "cartpole-train":
        config = dict(_TRAIN_QUICK) if quick else dict(episodes=40)
        return TrainWorkload("policy update", seed, out_dir, pacer, not traced, env="cartpole", **config)
    if name == "acrobot-act":
        config = dict(_TRAIN_QUICK, episodes=2, warmup_steps=500, updates_per_episode=3) if quick else dict(
            episodes=8, updates_per_episode=10
        )
        return TrainWorkload("behaviour env step", seed, out_dir, pacer, False, env="acrobot", **config)
    if name == "transport-large":
        return TransportWorkload(seed, 300 if quick else 10_000, pacer)
    if name == "verify-quick":
        return VerifyWorkload(seed, pacer)
    raise ValueError(f"unknown workload {name!r}")
