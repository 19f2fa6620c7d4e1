"""Span tracer that wraps wavopt's layer functions from outside the package.

Each wrapped call records one span (layer id, start, end, parent span) in
flat in-memory arrays; nothing is written until the run ends.  Self time
is a span's duration minus the durations of its direct child spans, so a
layer nested inside another (the bootstrap ``CriticNet.forward_batch``
inside ``policy_update_step``, say) is charged to itself only.

Modules import some layers by name (``harness`` binds
``policy_update_step``, ``verify`` binds ``gswd``, ...).  Patching only
the defining module would leave those calls untimed, so every loaded
``wavopt`` module attribute that is the original function object is
replaced.  Methods are patched on the class.  A layer the program no
longer defines is skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array

import numpy as np

# (metric prefix, module, attribute path).  Order is the report order.
LAYERS = [
    ("safe_rl.policy_update_step", "safe_rl", "policy_update_step"),
    ("dist_rl.critic_gradient_all", "dist_rl", "critic_gradient_all"),
    ("dist_rl.actor_gradient", "dist_rl", "actor_gradient"),
    ("nn.AdamState.step", "nn", "AdamState.step"),
    ("harness.ReplayBuffer.sample", "harness", "ReplayBuffer.sample"),
    ("nets.ActorNet.act", "nets", "ActorNet.act"),
    ("nets.CriticNet.forward_batch", "nets", "CriticNet.forward_batch"),
    ("inference.optimality_likelihood", "inference", "optimality_likelihood"),
    ("inference.sample_actions", "inference", "sample_actions"),
    ("envs.CartpoleEnv.step", "envs", "CartpoleEnv.step"),
    ("envs.AcrobotEnv.step", "envs", "AcrobotEnv.step"),
    ("inference.variational_step", "inference", "variational_step"),
    ("safe_rl.estimate_objectives", "safe_rl", "estimate_objectives"),
    ("harness.write_checkpoint", "harness", "write_checkpoint"),
    ("harness.write_curve", "harness", "write_curve"),
    ("measures.one_d_measure", "measures", "one_d_measure"),
    ("measures.project", "measures", "project"),
    ("measures.DefiningFunction.evaluate", "measures", "DefiningFunction.evaluate"),
    ("ot.wasserstein_1d", "ot", "wasserstein_1d"),
    ("ot.gswd", "ot", "gswd"),
    ("ot.swd", "ot", "swd"),
    ("ot.wasserstein_oracle", "ot", "wasserstein_oracle"),
]

# the seven checks of ``verify.run_all(full=False)``; reported as seconds per call
VERIFY_CHECKS = [
    "check_transport_vs_oracle",
    "check_pseudo_metric_suite",
    "check_contraction",
    "check_projection_minimality",
    "check_gradients",
    "check_improvement",
    "check_reconstruction",
]

_MODULES = ("safe_rl", "dist_rl", "nn", "nets", "harness", "inference", "envs", "measures", "ot", "verify")


def _mlp_flops(sizes) -> int:
    """Multiply-add FLOPs of one forward pass for one sample."""
    return 2 * sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))


def nominal_update_flops(actor_sizes, critic_sizes, batch_size: int) -> int:
    """Nominal FLOPs of one ``policy_update_step`` at the given layer sizes.

    Counts the matrix products of the seed algorithm: three actor and
    three critic forward passes (target actor and critic for the TD
    targets, live critic, actor and critic for the policy gradient, actor
    again for the raw-action penalty), two critic and two actor backward
    passes at twice the forward cost each, plus about 12 FLOPs per
    parameter for each Adam step.  It is a fixed measure of the work an
    update asks for, so a faster implementation of the same update shows
    as a higher ``gflop_per_s``.
    """
    fa, fc = _mlp_flops(actor_sizes), _mlp_flops(critic_sizes)
    params = sum(a * b + b for sizes in (actor_sizes, critic_sizes) for a, b in zip(sizes[:-1], sizes[1:]))
    return 7 * (fa + fc) * batch_size + 12 * params


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


class Tracer:
    """Owns the span arrays and the patches; ``install`` / ``uninstall`` pair up."""

    def __init__(self):
        names = [prefix for prefix, _, _ in LAYERS] + [f"verify.{c}" for c in VERIFY_CHECKS]
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}
        self.ids = array("q")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._patches = []
        self.post_s = 0.0  # time in the post hooks below, outside every span
        self.extra = {
            "update_flops": 0.0,
            "clipped": 0.0,
            "likelihoods": 0.0,
            "halvings": 0.0,
            "checkpoint_bytes": 0.0,
        }

    # -- recording ----------------------------------------------------------------

    def _wrap(self, fn, layer_id: int, post=None):
        ids, parents, starts, ends, stack = self.ids, self.parents, self.starts, self.ends, self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            ids.append(layer_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf()
                stack.pop()
            if post is not None:
                t0 = perf()
                post(args, result)
                self.post_s += perf() - t0
            return result

        return wrapper

    def _post_update(self, args, result) -> None:
        nets, batch = args[0], args[1]
        self.extra["update_flops"] += nominal_update_flops(
            nets.actor.params.layer_sizes, nets.critic.params.layer_sizes, batch.states.shape[0]
        )

    def _post_likelihood(self, args, result) -> None:
        clipped = np.asarray(result[1])
        self.extra["clipped"] += float(clipped.sum())
        self.extra["likelihoods"] += clipped.size

    def _post_variational(self, args, result) -> None:
        self.extra["halvings"] += result.halvings

    def _post_checkpoint(self, args, result) -> None:
        self.extra["checkpoint_bytes"] += os.path.getsize(args[0])

    def install(self) -> None:
        mods = {m: importlib.import_module(f"wavopt.{m}") for m in _MODULES}
        posts = {
            "safe_rl.policy_update_step": self._post_update,
            "inference.optimality_likelihood": self._post_likelihood,
            "inference.variational_step": self._post_variational,
            "harness.write_checkpoint": self._post_checkpoint,
        }
        targets = [(p, m, a) for p, m, a in LAYERS] + [(f"verify.{c}", "verify", c) for c in VERIFY_CHECKS]
        loaded = [m for name, m in sys.modules.items() if name.startswith("wavopt.")]
        for prefix, mod_name, path in targets:
            owner = mods[mod_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, self._index[prefix], posts.get(prefix))
            if cls_path:
                self._patches.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr, wrapper)
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------------

    def span_overhead_s(self, calls: int = 20000) -> float:
        """Measured cost of one recorded span without a post hook, from a wrapped no-op."""
        probe = Tracer()

        def noop():
            return None

        wrapped = probe._wrap(noop, 0)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        return max(0.0, (time.perf_counter() - t0 - bare) / calls)

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics over the recorded spans; ``wall_s`` is the traced workload time."""
        n_layers = len(self.names)
        ids = np.array(self.ids, dtype=np.int64)
        parents = np.array(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        child = np.zeros(dur.size)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        self_time = dur - child
        calls = np.bincount(ids, minlength=n_layers)
        self_sum = np.bincount(ids, weights=self_time, minlength=n_layers)

        out = {}

        def put(name, value, unit):
            out[name] = {"value": float(value), "unit": unit}

        for prefix, _, _ in LAYERS:
            lid = self._index[prefix]
            d = dur[ids == lid]
            put(f"{prefix}.calls", calls[lid], "count")
            put(f"{prefix}.ms_p50", _percentile(d, 50) * 1e3, "ms")
            put(f"{prefix}.ms_p90", _percentile(d, 90) * 1e3, "ms")
            put(f"{prefix}.share", self_sum[lid] / wall_s, "share")

        upd = self._index["safe_rl.policy_update_step"]
        upd_total = float(dur[ids == upd].sum())
        put("safe_rl.policy_update_step.incl_share", upd_total / wall_s, "share")
        put(
            "safe_rl.policy_update_step.mflop",
            self.extra["update_flops"] / max(1, calls[upd]) / 1e6,
            "MFLOP",
        )
        put(
            "safe_rl.policy_update_step.gflop_per_s",
            self.extra["update_flops"] / upd_total / 1e9 if upd_total else 0.0,
            "GFLOP/s",
        )
        put(
            "inference.optimality_likelihood.clipped_frac",
            self.extra["clipped"] / max(1.0, self.extra["likelihoods"]),
            "share",
        )
        var = self._index["inference.variational_step"]
        put("inference.variational_step.halvings_per_call", self.extra["halvings"] / max(1, calls[var]), "count/call")
        ckpt = self._index["harness.write_checkpoint"]
        put("harness.write_checkpoint.bytes", self.extra["checkpoint_bytes"] / max(1, calls[ckpt]), "bytes")
        for check in VERIFY_CHECKS:
            lid = self._index[f"verify.{check}"]
            put(f"verify.{check}.s", _percentile(dur[ids == lid], 50), "s")

        put("harness.unattributed.share", 1.0 - self_sum.sum() / wall_s, "share")
        # an estimate, not traced over untraced wall time: the run-to-run
        # noise of wall time is larger than the overhead
        overhead_s = self.span_overhead_s() * dur.size + self.post_s
        put("trace.overhead.share", overhead_s / wall_s, "share")
        return out
