"""Training harness: config files, replay, logging, and the run loop.

File formats (all plain text, stable across runs for byte-level
reproducibility):

* config: ``key = value`` lines, ``#`` comments, unknown keys rejected;
* learning curve: CSV with header
  ``episode,cum_return,J_g1,...,J_gp,branch,td_delta,sim_seconds``,
  floats rendered with %.9g; ``sim_seconds`` is simulated time
  (cumulative steps times dt), never wall-clock, so identical runs
  produce identical bytes;
* checkpoint: a small meta header plus one ``mlp-text`` section per
  network;
* summary: ``key=value`` lines with the final noise-free objective
  estimates, then ``shipped`` naming the gate pass whose nominee was
  written (``margined`` or ``boundary``) or ``final`` when none passed.

The run loop is the adaptive constrained learner.  Behavior actions are
sampled from a posterior over three candidates (full push left, full
push right, the actor's choice).  One operator family (the log map over
the horizon's value bracket) serves every signal: each candidate's
reward atom mean and its margin per constraint (horizon value minus the
utility atom mean) are inverted in one call, which clips them to the
bracket and flags each clip, and the weight is the reward likelihood
times the product of the safety likelihoods; decaying Gaussian noise
is added on top.
Constraint decisions use the mean realized discounted utilities of the
last few episodes, refreshed at episode boundaries only, so each curve
row logs exactly the decision inputs that were live during that
episode.

The updates that fill an episode's budget after it ends (a top-up
burst) add no transition, and the target networks change only at a
sync, so a burst shares TD targets: each stretch between syncs may
compute them once per distinct replay row (``_top_up``) instead of
once per update, with the same bytes written.

``fit_rate`` estimates a power-law convergence exponent from a learning
curve: gaps to the best smoothed value are regressed on log episode
over a window that ends one smoothing window before the first argmax
(the plateau would otherwise flatten the tail and bias the slope).
"""

from __future__ import annotations

import dataclasses
import math
import mmap
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import nn
from .envs import ENVS, ReturnTracker, make_env
from .inference import log_family, optimality_likelihood, sample_actions
from .nets import ActorNet, CriticNet, PolicyNets, init_policy_nets
from .dist_rl import TransitionBatch, UpdateWorkspace, td_targets
from .safe_rl import ObjectiveEstimate, estimate_objectives, policy_update_step, tolerance_schedule

__all__ = [
    "ConfigError",
    "TrainConfig",
    "parse_config",
    "load_config",
    "ReplayBuffer",
    "CurveRow",
    "write_curve",
    "read_curve",
    "write_checkpoint",
    "read_checkpoint",
    "write_summary",
    "read_summary",
    "TrainResult",
    "run_training",
    "RateFit",
    "fit_rate",
    "synthetic_recovery_curve",
]

CHECKPOINT_MAGIC = "wavopt-checkpoint 2"


class ConfigError(ValueError):
    """Malformed or unknown configuration input (CLI exit code 2)."""


@dataclass
class TrainConfig:
    """Run configuration; defaults are the reference cartpole setup."""

    env: str = "cartpole"
    episodes: int = 300
    seed: int = 0
    gamma: float = 0.998
    learning_rate: float = 0.0005
    actor_learning_rate: float = -1.0  # -1 means: same as learning_rate
    batch_size: int = 128
    n_quantiles: int = 128
    horizon_scale: float = 2.0
    hidden_width: int = 128
    hidden_layers: int = 2
    bound: float = 60.0
    warmup_steps: int = 500
    update_every: int = 1
    updates_per_episode: int = 100
    target_sync_updates: int = 250
    buffer_capacity: int = 1000000
    noise_start: float = 0.5
    noise_end: float = 0.05
    noise_decay_frac: float = 0.6
    raw_penalty: float = 0.1
    tolerance_mode: str = "fixed"
    tolerance_fixed: float = 0.5
    snapshot_margin: float = 10.0
    gate_margin: float = 2.0
    gate_episodes: int = 10
    eval_episodes: int = 5
    eval_every: int = 2
    probe_episodes: int = 2
    dt: float = 0.02

    @property
    def actor_lr(self) -> float:
        return self.learning_rate if self.actor_learning_rate < 0 else self.actor_learning_rate

    def validate(self) -> "TrainConfig":
        if self.env not in ENVS:
            raise ConfigError(f"env must be one of {', '.join(ENVS)}, got {self.env!r}")
        for f in dataclasses.fields(self):
            if f.type in ("float", float) and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        if self.episodes < 0:
            raise ConfigError("episodes must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError("gamma must lie in [0, 1)")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.n_quantiles < 1:
            raise ConfigError("learning_rate, batch_size, n_quantiles must be positive")
        if self.hidden_width < 1 or self.hidden_layers < 0:
            raise ConfigError("hidden_width must be >= 1 and hidden_layers >= 0")
        if self.buffer_capacity < self.batch_size:
            raise ConfigError("buffer_capacity must be >= batch_size")
        if self.update_every < 1 or self.target_sync_updates < 1:
            raise ConfigError("update_every and target_sync_updates must be >= 1")
        if self.updates_per_episode < 0:
            raise ConfigError("updates_per_episode must be >= 0")
        if self.noise_start < 0 or self.noise_end < 0:
            raise ConfigError("noise_start and noise_end must be >= 0")
        if not 0.0 <= self.noise_decay_frac <= 1.0:
            raise ConfigError("noise_decay_frac must lie in [0, 1]")
        if self.raw_penalty < 0:
            raise ConfigError("raw_penalty must be >= 0 (0 disables the penalty)")
        if self.tolerance_mode not in ("fixed", "scheduled"):
            raise ConfigError("tolerance_mode must be 'fixed' or 'scheduled'")
        if self.tolerance_fixed < 0:
            raise ConfigError("tolerance_fixed must be >= 0")
        if self.snapshot_margin < 0:
            raise ConfigError("snapshot_margin must be >= 0")
        if self.gate_margin < 0:
            raise ConfigError("gate_margin must be >= 0")
        if self.gate_episodes < 1:
            raise ConfigError("gate_episodes must be >= 1")
        if self.eval_episodes < 1 or self.probe_episodes < 1:
            raise ConfigError("eval_episodes and probe_episodes must be >= 1")
        if self.dt <= 0:
            raise ConfigError("dt must be > 0")
        if self.eval_every < 0:
            raise ConfigError("eval_every must be >= 0 (0 disables periodic evaluation)")
        return self


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(TrainConfig)}


def parse_config(text: str) -> TrainConfig:
    """Parse ``key = value`` lines; '#' starts a comment, unknown keys fail."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        kind = _FIELD_TYPES[key]
        try:
            if kind in ("int", int):
                values[key] = int(val)
            elif kind in ("float", float):
                values[key] = float(val)
            else:
                values[key] = val
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from exc
    return TrainConfig(**values).validate()


def _read_text(path) -> str:
    """The text of ``path``; a file that does not decode is a ``ConfigError`` naming it."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not readable as text ({exc})") from exc


def load_config(path) -> TrainConfig:
    return parse_config(_read_text(path))


# -- replay ----------------------------------------------------------------------


def _mapped_array(shape) -> np.ndarray:
    """An uninitialised float array on its own anonymous mapping.

    Only the pages written become resident, and the mapping goes when
    the last view of it does.  A heap block would instead keep freed
    pages resident, and from the heap a capacity-sized replay array can
    fault in a 2 MB huge page (numpy advises them for large arrays).
    """
    n = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, max(8 * n, 1)), count=n).reshape(shape)


class ReplayBuffer:
    """Fixed-capacity transition store with unique-index batch sampling.

    Its arrays are sized for the capacity, but only rows written take
    memory.
    """

    def __init__(self, capacity: int, state_dim: int, action_dim: int, n_constraints: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.states = _mapped_array((capacity, state_dim))
        self.actions = _mapped_array((capacity, action_dim))
        self.rewards = _mapped_array((capacity,))
        self.utilities = _mapped_array((capacity, n_constraints))
        self.next_states = _mapped_array((capacity, state_dim))
        self.done = _mapped_array((capacity,))
        self.size = 0
        self._next = 0

    def add(self, state, action, reward, utility, next_state, done) -> None:
        i = self._next
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self.utilities[i] = utility
        self.next_states[i] = next_state
        self.done[i] = done
        self._next = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> TransitionBatch:
        return self.gather(self.draw(batch_size, rng))

    def draw(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        """The row indices of one ``sample``: min(batch_size, size) distinct rows."""
        if self.size == 0:
            raise ValueError("cannot sample from an empty buffer")
        return rng.choice(self.size, size=min(batch_size, self.size), replace=False)

    def gather(self, idx: np.ndarray) -> TransitionBatch:
        """The transitions in rows ``idx``, copied."""
        return TransitionBatch(
            states=self.states[idx],
            actions=self.actions[idx],
            rewards=self.rewards[idx],
            utilities=self.utilities[idx],
            next_states=self.next_states[idx],
            done=self.done[idx],
        )


# -- curve / checkpoint / summary files --------------------------------------------


def _g9(v: float) -> str:
    return format(float(v), ".9g")


@dataclass
class CurveRow:
    episode: int
    cum_return: float
    estimates: np.ndarray
    branch: int
    td_delta: float
    sim_seconds: float


def curve_header(n_constraints: int) -> str:
    cols = ["episode", "cum_return"]
    cols += [f"J_g{i + 1}" for i in range(n_constraints)]
    cols += ["branch", "td_delta", "sim_seconds"]
    return ",".join(cols)


def write_curve(path, rows, n_constraints: int) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(curve_header(n_constraints) + "\n")
        for row in rows:
            parts = [str(row.episode), _g9(row.cum_return)]
            parts += [_g9(v) for v in row.estimates]
            parts += [str(row.branch), _g9(row.td_delta), _g9(row.sim_seconds)]
            f.write(",".join(parts) + "\n")


_INT_COLUMNS = ("episode", "branch")


def read_curve(path) -> dict:
    """Columns of a curve file; a field that is not a finite number names its line."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise ValueError("empty curve file")
    header = lines[0].split(",")
    data = {name: [] for name in header}
    for lineno, line in enumerate(lines[1:], start=2):
        toks = line.split(",")
        if len(toks) != len(header):
            raise ValueError(f"line {lineno}: expected {len(header)} fields, got {len(toks)}")
        for name, tok in zip(header, toks):
            try:
                value = int(tok) if name in _INT_COLUMNS else float(tok)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"line {lineno}: {name} is not a finite number: {tok!r}")
            data[name].append(value)
    return {name: np.array(vals, dtype=int if name in _INT_COLUMNS else float) for name, vals in data.items()}


def write_checkpoint(path, nets: PolicyNets, env_name: str) -> None:
    actor, critic = nets.actor, nets.critic
    with open(path, "w", newline="\n") as f:
        f.write(CHECKPOINT_MAGIC + "\n")
        f.write(f"env {env_name}\n")
        f.write(f"action_dim {actor.action_dim}\n")
        f.write(f"n_signals {critic.n_signals}\n")
        f.write(f"n_quantiles {critic.n_quantiles}\n")
        f.write(f"squash {1 if actor.squash else 0}\n")
        f.write("feature_scale " + " ".join(f"{v:.17g}" for v in np.atleast_1d(actor.feature_scale)) + "\n")
        f.write("section actor\n")
        nn.write_params(f, actor.params)
        f.write("section critic\n")
        nn.write_params(f, critic.params)


def _read_section(f, name: str) -> nn.MlpParams:
    try:
        return nn.read_params(f)
    except (ValueError, IndexError) as exc:
        raise ValueError(f"checkpoint is truncated or damaged in section {name} ({exc})") from exc


def read_checkpoint(path):
    """Rebuild the policy networks; returns (nets, meta dict)."""
    with open(path) as f:
        magic = f.readline().strip()
        if magic != CHECKPOINT_MAGIC:
            kind, _, version = magic.partition(" ")
            if kind == "wavopt-checkpoint":
                raise ValueError(
                    f"checkpoint format {version} is no longer supported; "
                    f"this version reads {CHECKPOINT_MAGIC!r} (retrain to write one)"
                )
            raise ValueError("not a policy checkpoint")
        meta = {}
        while True:
            line = f.readline()
            if not line:
                raise ValueError("checkpoint is truncated in the header, before section actor")
            line = line.strip()
            if line == "section actor":
                break
            key, val = line.split(" ", 1)
            meta[key] = val
        actor_params = _read_section(f, "actor")
        if f.readline().strip() != "section critic":
            raise ValueError("checkpoint is truncated or damaged before section critic")
        critic_params = _read_section(f, "critic")

    feature_scale = np.array([float(t) for t in meta["feature_scale"].split()])
    actor = ActorNet(
        actor_params,
        action_dim=int(meta["action_dim"]),
        feature_scale=feature_scale,
        squash=bool(int(meta["squash"])),
    )
    critic = CriticNet(
        critic_params,
        n_signals=int(meta["n_signals"]),
        n_quantiles=int(meta["n_quantiles"]),
        feature_scale=feature_scale,
    )
    return PolicyNets(actor, critic), meta


def write_summary(path, items: dict) -> None:
    with open(path, "w", newline="\n") as f:
        for key, val in items.items():
            if isinstance(val, float):
                f.write(f"{key}={_g9(val)}\n")
            else:
                f.write(f"{key}={val}\n")


def read_summary(path) -> dict:
    out = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            key, val = line.split("=", 1)
            out[key] = val
    return out


# -- training loop -------------------------------------------------------------------

# a top-up segment computes its TD targets once per distinct row only
# when those rows fill at most one block per this many updates: it then
# runs at most a quarter of the per-update target forwards
_UPDATES_PER_TARGET_BLOCK = 4


def _top_up(
    update, count: int, done: int, sync_every: int, replay: ReplayBuffer, rng, nets, gamma, value_clip, workspace
) -> None:
    """Run the ``count`` updates of a top-up burst as ``update(batch, targets)``.

    ``done`` updates ran before the burst.  No transition enters the
    replay during a burst, and the target networks change only at a
    sync, so between two syncs a row's ``td_targets`` are fixed.  The
    burst is cut at each sync into segments.  A segment draws all its
    batches up front: the same draws in the same order as one
    ``sample`` per update.  When the segment's distinct rows fill at
    most one ``batch_size``-row block per ``_UPDATES_PER_TARGET_BLOCK``
    updates, ``_update_from_store`` computes their targets once and each
    update takes its rows from that store; otherwise each update gets
    ``targets=None`` and computes its own.
    """
    batch_size = workspace.targets.shape[0]
    while count > 0:
        size = min(count, sync_every - done % sync_every)
        draws = np.array([replay.draw(batch_size, rng) for _ in range(size)])
        drawn = np.zeros(replay.size, dtype=bool)
        drawn[draws] = True
        rows = np.flatnonzero(drawn)
        if _UPDATES_PER_TARGET_BLOCK * -(-rows.size // batch_size) <= size:
            _update_from_store(update, draws, rows, replay, nets, gamma, value_clip, workspace)
        else:
            for idx in draws:
                update(replay.gather(idx), None)
        count -= size
        done += size


def _update_from_store(update, draws, rows, replay, nets, gamma, value_clip, workspace) -> None:
    """Compute the targets of the distinct drawn ``rows`` once, then run one update per draw.

    ``td_targets`` runs on full ``batch_size``-row blocks only, the last
    one padded by repeating rows, because a row's bits can depend on its
    position in a product of any other size.  The store is one anonymous
    mapping (``_mapped_array``) held only here, so it is unmapped when
    this returns.
    """
    batch_size, row_shape = workspace.targets.shape[0], workspace.targets.shape[1:]
    position = np.empty(replay.size, dtype=np.intp)  # store row of each drawn replay row
    position[rows] = np.arange(rows.size)
    rows = np.resize(rows, -(-rows.size // batch_size) * batch_size)
    store = _mapped_array((rows.size, *row_shape))
    for lo in range(0, rows.size, batch_size):
        block = replay.gather(rows[lo : lo + batch_size])
        store[lo : lo + batch_size] = td_targets(nets, block, gamma, value_clip, workspace)
    for idx in draws:
        update(replay.gather(idx), np.take(store, position[idx], axis=0, out=workspace.targets, mode="clip"))


@dataclass
class TrainResult:
    config: TrainConfig
    curve_path: Path
    checkpoint_path: Path
    summary_path: Path
    updates: int
    final_estimate: ObjectiveEstimate
    shipped: str  # "margined", "boundary" or "final", as in summary.txt


def run_training(config: TrainConfig, out_dir) -> TrainResult:
    """Train on the configured environment; write curve, checkpoint, summary.

    All randomness comes from child streams of one seed sequence, and the
    curve contains only simulated quantities, so two runs with the same
    config produce byte-identical files.
    """
    config.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    curve_path = out / "curve.csv"
    ckpt_path = out / "checkpoint.txt"
    summary_path = out / "summary.txt"

    ss = np.random.SeedSequence(config.seed)
    s_init, s_env, s_noise, s_replay, s_eval = ss.spawn(5)
    env = make_env(config.env, dt=config.dt)
    env_rng = np.random.default_rng(s_env)
    noise_rng = np.random.default_rng(s_noise)
    replay_rng = np.random.default_rng(s_replay)

    p = env.n_constraints
    nets = init_policy_nets(
        state_dim=env.state_dim,
        action_dim=1,
        hidden_width=config.hidden_width,
        hidden_layers=config.hidden_layers,
        n_quantiles=config.n_quantiles,
        n_signals=1 + p,
        rng=np.random.default_rng(s_init),
        feature_scale=env.feature_scale,
        squash=True,
    )
    # every update reuses these (batch, .) arrays, so none allocates and
    # page-faults in its temporaries; built before the replay arrays
    workspace = UpdateWorkspace(nets, config.batch_size)
    replay = ReplayBuffer(config.buffer_capacity, env.state_dim, 1, p)
    bounds = np.full(p, config.bound)
    critic_opt = nn.AdamState(nets.critic.params)
    actor_opt = nn.AdamState(nets.actor.params)

    # one operator for every signal: critic means live inside the
    # discounted per-step-reward bracket for the episode horizon, and the
    # log map gives value differences multiplicative weight so selection
    # sharpens as the critic spreads the candidates apart.  A constraint
    # enters through its margin (horizon value minus utility-to-go): low
    # utility-to-go means high safety likelihood, and candidates are
    # weighted by the joint posterior of the reward and every constraint
    # optimality variable
    horizon_value = (1.0 - config.gamma**env.max_steps) / (1.0 - config.gamma)
    family = log_family(0.0, horizon_value)
    value_clip = (0.0, horizon_value)

    constraint_est = np.zeros(p)

    rows = []
    steps_total = 0
    updates = 0
    last_branch = 0
    last_delta = 0.0
    # candidate checkpoints: margined (well inside the bounds) and
    # boundary (inside bounds + tau_c), each capped and reward-sorted
    margined = []
    boundary = []
    decay_span = max(1.0, config.noise_decay_frac * config.episodes)

    def measure(actor: ActorNet, episodes: int, seed) -> ObjectiveEstimate:
        """Noise-free rollouts of ``actor`` on a fresh environment."""
        return estimate_objectives(
            make_env(config.env, dt=config.dt),
            lambda s: float(actor.act(s)[0]),
            episodes=episodes,
            gamma=config.gamma,
            seed=seed,
        )

    def keep_candidate(tier: list, reward: float) -> None:
        tier.append((reward, nets.actor.copy(), nets.critic.copy()))
        tier.sort(key=lambda item: -item[0])
        del tier[4:]

    def do_update(batch: TransitionBatch, targets=None) -> None:
        nonlocal updates, last_branch, last_delta
        updates += 1
        if config.tolerance_mode == "fixed":
            tau = config.tolerance_fixed
        else:
            tau = tolerance_schedule(updates, config.batch_size, config.horizon_scale, config.gamma)
        info = policy_update_step(
            nets,
            batch,
            bounds,
            constraint_est,
            tau,
            config.learning_rate,
            config.actor_lr,
            config.gamma,
            value_clip=value_clip,
            raw_penalty=config.raw_penalty,
            critic_opt=critic_opt,
            actor_opt=actor_opt,
            workspace=workspace,
            targets=targets,
        )
        last_branch, last_delta = info.branch, info.td_delta
        if updates % config.target_sync_updates == 0:
            nets.sync_target()

    for ep in range(1, config.episodes + 1):
        noise_scale = config.noise_start + (config.noise_end - config.noise_start) * min(
            1.0, (ep - 1) / decay_span
        )
        est_used = constraint_est.copy()
        state = env.reset(rng=env_rng)
        tracker = ReturnTracker()
        done = False
        ep_updates = 0

        while not done:
            mu = float(nets.actor.act(state)[0])
            cands = np.array([-1.0, 1.0, mu])
            states3 = np.repeat(state[None, :], 3, axis=0)
            means = nets.critic.forward_batch(states3, cands[:, None]).mean(axis=2)
            # (3, 1 + p): the reward value, then one margin per constraint
            means[:, 1:] = horizon_value - means[:, 1:]
            lik, _ = optimality_likelihood(family, means)
            lik = lik[:, 0] * lik[:, 1:].prod(axis=1)
            weights = lik / lik.sum()
            action = float(sample_actions(cands, weights, 1, noise_rng)[0])
            action = min(max(action + noise_scale * noise_rng.normal(), -1.0), 1.0)

            next_state, r, g, done = env.step(action)
            replay.add(state, action, r, g, next_state, 1.0 if done else 0.0)
            tracker.update(r)
            state = next_state
            steps_total += 1

            if (
                steps_total > config.warmup_steps
                and replay.size >= config.batch_size
                and steps_total % config.update_every == 0
                and ep_updates < config.updates_per_episode
            ):
                do_update(replay.sample(config.batch_size, replay_rng))
                ep_updates += 1

        # fixed per-episode update budget: short episodes top up from
        # replay at the boundary (same constraint estimates as the
        # in-episode updates), so training volume does not depend on how
        # long the behavior policy happens to survive
        if steps_total > config.warmup_steps and replay.size >= config.batch_size:
            _top_up(
                do_update,
                config.updates_per_episode - ep_updates,
                updates,
                config.target_sync_updates,
                replay,
                replay_rng,
                nets,
                config.gamma,
                value_clip,
                workspace,
            )

        rows.append(
            CurveRow(ep, tracker.value, est_used, last_branch, last_delta, steps_total * config.dt)
        )

        # periodic noise-free rollouts of the deterministic actor supply
        # the constraint estimates that drive the update branch, and the
        # best checkpoint measured to respect the bounds (+ tau_c slack)
        # is the one that ships
        if config.eval_every and (ep % config.eval_every == 0 or ep == config.episodes):
            probe = measure(nets.actor, config.probe_episodes, s_eval.spawn(1)[0])
            constraint_est = probe.constraints.copy()
            slack = bounds + config.tolerance_fixed - probe.constraints
            if np.all(slack >= config.snapshot_margin):
                keep_candidate(margined, probe.reward)
            elif np.all(slack >= 0.0):
                keep_candidate(boundary, probe.reward)

    # re-measure the nominated checkpoints on fresh starts and ship the
    # best one that is still feasible; probes are cheap and noisy, this
    # gate is what the written checkpoint has actually passed.  Margined
    # nominees outrank boundary nominees only at equal reward.  Pass one
    # demands gate_margin of re-measured slack so the shipped policy can
    # survive evaluation variance near the bound; pass two settles for
    # bare feasibility when nothing clears the margin.
    nominees = sorted(
        [(r, 0, a, c) for r, a, c in margined] + [(r, 1, a, c) for r, a, c in boundary],
        key=lambda item: (-item[0], item[1]),
    )
    rechecked = []
    for reward, _, actor_snap, critic_snap in nominees:
        recheck = measure(actor_snap, config.gate_episodes, s_eval.spawn(1)[0])
        rechecked.append((recheck.constraints, actor_snap, critic_snap))
    # the summary names the pass that shipped (``final``: no nominee
    # passed, and the last actor ships unchecked)
    shipped_from = "final"
    for label, needed in (("margined", config.gate_margin), ("boundary", 0.0)):
        shipped = next(
            (
                (a, c)
                for cons, a, c in rechecked
                if np.all(cons <= bounds + config.tolerance_fixed - needed)
            ),
            None,
        )
        if shipped is not None:
            nets.actor, nets.critic = shipped
            shipped_from = label
            break

    write_curve(curve_path, rows, p)
    write_checkpoint(ckpt_path, nets, config.env)

    final = measure(nets.actor, config.eval_episodes, s_eval)
    summary = {
        "env": config.env,
        "episodes": config.episodes,
        "updates": updates,
        "final_reward_objective": final.reward,
        "eval_episodes": config.eval_episodes,
        "eval_mean_steps": final.mean_steps,
    }
    for i in range(p):
        summary[f"final_constraint_{i + 1}"] = float(final.constraints[i])
        summary[f"bound_{i + 1}"] = float(bounds[i])
    summary["shipped"] = shipped_from
    write_summary(summary_path, summary)

    return TrainResult(
        config=config,
        curve_path=curve_path,
        checkpoint_path=ckpt_path,
        summary_path=summary_path,
        updates=updates,
        final_estimate=final,
        shipped=shipped_from,
    )


# -- convergence-rate fitting -----------------------------------------------------------


@dataclass
class RateFit:
    exponent: float
    stderr: float
    slope: float
    intercept: float
    n_points: int
    skipped: bool
    notice: str


def _skipped(notice: str, n_points: int = 0) -> RateFit:
    return RateFit(math.nan, math.nan, math.nan, math.nan, n_points, True, notice)


def fit_rate(values, window: int = 20, burn_in_frac: float = 0.2, min_points: int = 50) -> RateFit:
    """Power-law convergence exponent of a learning curve.

    The curve is smoothed with a trailing moving average; gaps to the
    best smoothed value are regressed on the log of the window-center
    episode.  The fit domain starts after the burn-in and ends one full
    window before the first argmax of the smoothed curve: beyond that
    point the gap is dominated by the plateau and would drag the slope
    toward zero.
    """
    y = np.asarray(values, dtype=float)
    if y.ndim != 1:
        raise ValueError("expected a 1-D series")
    t_total = y.size
    if t_total < window + min_points:
        return _skipped(f"need at least {window + min_points} episodes, got {t_total}")

    kernel = np.full(window, 1.0 / window)
    sm = np.convolve(y, kernel, mode="valid")  # sm[j] covers episodes j+1 .. j+window
    best = float(sm.max())
    peak_j = int(np.argmax(sm))  # first argmax

    # episodes are 1-based; smoothed index j corresponds to window end
    # episode e = j + window
    burn_in_e = max(window, int(math.ceil(burn_in_frac * t_total)))
    start_j = burn_in_e - window
    end_j = peak_j - window  # one window before the first argmax
    if end_j < start_j:
        return _skipped("smoothed optimum is reached too early to fit a rate")

    js = np.arange(start_j, end_j + 1)
    centers = js + window - (window - 1) / 2.0  # window-center episode
    gaps = best - sm[js]
    keep = gaps > 0.0
    js, centers, gaps = js[keep], centers[keep], gaps[keep]
    if js.size < min_points:
        return _skipped(f"only {js.size} usable fit points (need {min_points})", js.size)

    x = np.log(centers)
    z = np.log(gaps)
    n = x.size
    x_mean, z_mean = x.mean(), z.mean()
    sxx = float(np.sum((x - x_mean) ** 2))
    slope = float(np.sum((x - x_mean) * (z - z_mean)) / sxx)
    intercept = z_mean - slope * x_mean
    resid = z - (intercept + slope * x)
    dof = max(n - 2, 1)
    stderr = float(math.sqrt(float(resid @ resid) / dof / sxx))
    exponent = -slope

    if exponent <= 0.0:
        return RateFit(exponent, stderr, slope, intercept, n, True, "fitted exponent is non-positive")
    return RateFit(exponent, stderr, slope, intercept, n, False, "")


def synthetic_recovery_curve(
    alpha: float,
    episodes: int = 2000,
    optimum: float = 0.0,
    scale: float = 240.0,
    plateau_start: Optional[int] = None,
) -> np.ndarray:
    """Reference curve optimum - scale * e^(-alpha) with an exact final plateau.

    The plateau pins the smoothed maximum at the optimum, so the gaps
    seen by ``fit_rate`` follow the pure power law over the whole fit
    domain.
    """
    if plateau_start is None:
        plateau_start = int(episodes * 0.95)
    e = np.arange(1, episodes + 1, dtype=float)
    y = optimum - scale * e ** (-alpha)
    y[e >= plateau_start] = optimum
    return y
