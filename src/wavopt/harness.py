"""Training harness: config files, replay, logging, and the run loop.

File formats (all plain text, stable across runs for byte-level
reproducibility):

* config: ``key = value`` lines, ``#`` comments, unknown keys rejected;
* learning curve: CSV with header
  ``episode,cum_return,J_g1,...,J_gp,branch,td_delta,sim_seconds``,
  floats rendered with %.9g; ``sim_seconds`` is simulated time
  (cumulative steps times dt), never wall-clock, so identical runs
  produce identical bytes;
* trace (input to ``wavopt interpret``): CSV with header
  ``p_trajectory,<factor>,...``, one row per step;
* checkpoint: a small meta header plus one ``mlp-text`` section per
  network;
* summary: ``key=value`` lines with the final noise-free objective
  estimates, then ``shipped`` naming the gate pass whose nominee was
  written (``margined`` or ``boundary``) or ``final`` when none passed.

Each text format has one reader: ``_read_table`` reads curves and
traces, ``_key_values`` configs and summaries.

The run loop is the adaptive constrained learner.  Each episode acts
(``behaviour_step``), steps the environment, stores the transition and
updates; every ``eval_every`` episodes ``probe`` measures the actor,
which refreshes the constraint estimates the updates decide on (so each
curve row logs the estimates live during its episode) and may nominate
a checkpoint.  After the last episode ``ship_gate`` picks the one to
write.

Every update runs through ``_run_updates``: an in-episode update as a
burst of one, the updates that fill an episode's budget after it ends
as a top-up burst.  It draws each batch, gives the update the batch's TD
targets and syncs the target networks every ``target_sync_updates``
updates.  A top-up burst adds no transition, and the target networks
change only at a sync, so a burst shares TD targets: each stretch
between syncs may compute them once per distinct replay row
(``np.unique`` of its draws, whose inverse gives each draw's store
rows) instead of once per update.  The bytes written are those of
per-update targets wherever a row's target bits do not depend on its
position in a ``batch_size``-row product, which was checked at batch
128 and 16 on OpenBLAS 0.3.31.

``fit_rate`` estimates a power-law convergence exponent from a learning
curve: gaps to the best smoothed value are regressed on log episode
over a window that ends one smoothing window before the first argmax
(the plateau would otherwise flatten the tail and bias the slope).
"""

from __future__ import annotations

import dataclasses
import errno
import math
import mmap
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .envs import ENVS, RETURN_START, make_env
from .inference import log_family, optimality_likelihood
from .nets import ActorNet, CriticNet, PolicyNets, init_policy_nets
from .dist_rl import TransitionBatch, UpdateWorkspace, td_delta, td_targets
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
    "read_trace",
    "write_checkpoint",
    "read_checkpoint",
    "write_summary",
    "read_summary",
    "TrainResult",
    "behaviour_step",
    "probe",
    "ship_gate",
    "run_training",
    "RateFit",
    "fit_rate",
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
        if self.actor_learning_rate != -1.0 and self.actor_learning_rate <= 0:
            raise ConfigError("actor_learning_rate must be -1 (same as learning_rate) or > 0")
        if self.warmup_steps < 0:
            raise ConfigError("warmup_steps must be >= 0")
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


def _key_values(text: str):
    """(file line number, key, value) per ``key = value`` line; '#' starts a
    comment, and a line without '=' or a key given twice names its line."""
    first_line = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ConfigError(f"line {lineno}: {key} is given twice (first on line {first_line[key]})")
        first_line[key] = lineno
        yield lineno, key, val


def parse_config(text: str) -> TrainConfig:
    """Parse ``key = value`` lines (see ``_key_values``); an unknown key fails."""
    values = {}
    for lineno, key, val in _key_values(text):
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
        if self.size < self.capacity:
            self.size += 1

    def draw(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        """The row indices of one batch: min(batch_size, size) distinct rows."""
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


def write_curve(path, rows, n_constraints: int) -> None:
    header = ["episode", "cum_return", *(f"J_g{i + 1}" for i in range(n_constraints))]
    header += ["branch", "td_delta", "sim_seconds"]
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            parts = [str(row.episode), _g9(row.cum_return)]
            parts += [_g9(v) for v in row.estimates]
            parts += [str(row.branch), _g9(row.td_delta), _g9(row.sim_seconds)]
            f.write(",".join(parts) + "\n")


_INT_COLUMNS = ("episode", "branch")
_INT64_LIMIT = 2**63


def _read_table(path, int_columns):
    """Header and (file line number, values) rows of a CSV file.

    Header names are stripped and each given once; every row has the
    header's width; every field is a finite number, or in ``int_columns``
    a 64-bit integer.  Line numbers count blank lines before the header;
    an empty file has no header.  Each error is a one-line ``ConfigError``.
    """
    text = _read_text(path)
    skipped = text[: len(text) - len(text.lstrip())]
    first = len((skipped + ".").splitlines())
    lines = text.strip().splitlines()
    if not lines:
        return [], []
    header = [name.strip() for name in lines[0].split(",")]
    first_column = {}
    for column, name in enumerate(header, start=1):
        if first_column.setdefault(name, column) != column:
            raise ConfigError(f"line {first}: column {name!r} is given twice (first in column {first_column[name]})")
    integer = [name in int_columns for name in header]
    rows = []
    for lineno, line in enumerate(lines[1:], start=first + 1):
        toks = line.split(",")
        if len(toks) != len(header):
            raise ConfigError(f"line {lineno}: expected {len(header)} fields, got {len(toks)}")
        values = []
        for name, tok, is_int in zip(header, toks, integer):
            try:
                value = int(tok) if is_int else float(tok)
            except ValueError:
                value = math.nan
            if not (-_INT64_LIMIT <= value < _INT64_LIMIT if is_int else math.isfinite(value)):
                kind = "a 64-bit integer" if is_int else "a finite number"
                raise ConfigError(f"line {lineno}: {name} is not {kind}: {tok!r}")
            values.append(value)
        rows.append((lineno, values))
    return header, rows


def read_curve(path) -> dict:
    """Columns of a curve file, read by ``_read_table`` with ``episode``
    and ``branch`` as integer columns."""
    header, rows = _read_table(path, _INT_COLUMNS)
    if not header:
        raise ConfigError("empty curve file")
    return {
        name: np.array([values[j] for _, values in rows], dtype=int if name in _INT_COLUMNS else float)
        for j, name in enumerate(header)
    }


def read_trace(path):
    """Factor names and (file line number, [p_trajectory, factors...]) rows
    of a trace file, whose header is ``p_trajectory,<factor>,...``."""
    header, rows = _read_table(path, ())
    if not header:
        raise ConfigError(f"empty trace file: {path}")
    if header[0] != "p_trajectory" or len(header) < 2:
        raise ConfigError("trace header must be: p_trajectory,<factor>,<factor>,...")
    return header[1:], rows


def write_checkpoint(path, nets: PolicyNets, env_name: str) -> None:
    actor, critic = nets.actor, nets.critic
    with open(path, "w", newline="\n") as f:
        f.write(CHECKPOINT_MAGIC + "\n")
        f.write(f"env {env_name}\n")
        f.write(f"action_dim {actor.action_dim}\n")
        f.write(f"n_signals {critic.n_signals}\n")
        f.write(f"n_quantiles {critic.n_quantiles}\n")
        f.write("squash 1\n")  # the actor is always tanh-squashed
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


def _header_value(meta: dict, key: str, parse):
    """``parse`` of the header's ``key`` value; a missing or malformed one names the key."""
    if key not in meta:
        raise ValueError(f"checkpoint header has no {key} line")
    try:
        return parse(meta[key])
    except ValueError:
        raise ValueError(f"checkpoint header {key} is malformed: {meta[key]!r}") from None


def read_checkpoint(path):
    """Rebuild the policy networks; returns (nets, meta dict).

    A header line without a value, a missing or malformed key, a squash
    other than 1, a feature scale or parameter value that is not finite
    (nan or +-inf), or counts that disagree with the sections' layer
    sizes is a one-line ``ValueError``.
    """
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
            key, _, val = line.partition(" ")
            if not val:
                raise ValueError(f"checkpoint header line {line!r} has no value")
            meta[key] = val
        actor_params = _read_section(f, "actor")
        if f.readline().strip() != "section critic":
            raise ValueError("checkpoint is truncated or damaged before section critic")
        critic_params = _read_section(f, "critic")

    if _header_value(meta, "squash", str) != "1":
        raise ValueError(f"checkpoint squash {meta['squash']!r} is not supported: the actor is always squashed")
    keys = ("action_dim", "n_signals", "n_quantiles")
    action_dim, n_signals, n_quantiles = counts = [_header_value(meta, key, int) for key in keys]
    if min(counts) < 1:
        raise ValueError(f"checkpoint header counts must be positive: {dict(zip(keys, counts))}")
    feature_scale = _header_value(meta, "feature_scale", lambda v: np.array([float(t) for t in v.split()]))
    if not np.isfinite(feature_scale).all():
        raise ValueError(f"checkpoint header feature_scale is not finite: {meta['feature_scale']!r}")
    for name, params, n_in, n_out in (
        ("actor", actor_params, feature_scale.size, action_dim),
        ("critic", critic_params, feature_scale.size + action_dim, n_signals * n_quantiles),
    ):
        sizes = params.layer_sizes
        if (sizes[0], sizes[-1]) != (n_in, n_out):
            raise ValueError(
                f"checkpoint section {name} maps {sizes[0]} inputs to {sizes[-1]} outputs, "
                f"but the header gives {n_in} to {n_out}"
            )
    actor = ActorNet(actor_params, action_dim=action_dim, feature_scale=feature_scale)
    critic = CriticNet(critic_params, n_signals=n_signals, n_quantiles=n_quantiles, feature_scale=feature_scale)
    return PolicyNets(actor, critic), meta


def write_summary(path, items: dict) -> None:
    with open(path, "w", newline="\n") as f:
        for key, val in items.items():
            if isinstance(val, float):
                f.write(f"{key}={_g9(val)}\n")
            else:
                f.write(f"{key}={val}\n")


def read_summary(path) -> dict:
    """The pairs of a summary file, read by the config's ``_key_values``."""
    return {key: val for _, key, val in _key_values(_read_text(path))}


# -- training loop -------------------------------------------------------------------

# a segment computes its TD targets once per distinct row only when
# those rows fill at most one block per this many updates: it then runs
# at most a quarter of the per-update target forwards
_UPDATES_PER_TARGET_BLOCK = 4


def _run_updates(
    update, count: int, done: int, sync_every: int, replay: ReplayBuffer, rng, nets, gamma, value_clip, workspace
) -> None:
    """Run ``count`` updates as ``update(batch, targets)``, syncing the target networks.

    ``done`` updates ran before.  No transition enters the replay during
    the call, and the target networks change only at a sync, so between
    two syncs a row's ``td_targets`` are fixed.  The updates are cut at
    each sync into segments, and ``nets.sync_target()`` runs after every
    ``sync_every``-th update.  A segment draws all its batches up front:
    the same draws in the same order as one draw per update.  When the
    segment's distinct rows (``np.unique`` of its draws) fill at most one
    ``batch_size``-row block per ``_UPDATES_PER_TARGET_BLOCK`` updates,
    ``_update_from_store`` computes their targets once and each update
    takes the store rows that the inverse of ``np.unique`` gives it;
    otherwise each update's targets are the ``td_targets`` of its batch.
    """
    batch_size = workspace.targets.shape[0]
    while count > 0:
        size = min(count, sync_every - done % sync_every)
        draws = np.array([replay.draw(batch_size, rng) for _ in range(size)])
        rows, where = np.unique(draws, return_inverse=True)
        if _UPDATES_PER_TARGET_BLOCK * -(-rows.size // batch_size) <= size:
            where = where.reshape(draws.shape)  # numpy < 2 returns it flat
            _update_from_store(update, draws, rows, where, replay, nets, gamma, value_clip, workspace)
        else:
            for idx in draws:
                batch = replay.gather(idx)
                update(batch, td_targets(nets, batch, gamma, value_clip, workspace))
        count -= size
        done += size
        if done % sync_every == 0:
            nets.sync_target()


def _update_from_store(update, draws, rows, where, replay, nets, gamma, value_clip, workspace) -> None:
    """Compute the targets of the distinct drawn ``rows`` once, then run one update per draw.

    ``rows`` and ``where`` are ``np.unique``'s sorted distinct rows of
    ``draws`` and its inverse in the shape of ``draws``, so update k takes
    store rows ``where[k]``.  ``td_targets`` runs on full
    ``batch_size``-row blocks only, the last one padded by repeating
    rows, because a row's bits can depend on its position in a product of
    any other size.  The store is one anonymous mapping
    (``_mapped_array``) held only here, so it is unmapped when this
    returns.
    """
    batch_size, row_shape = workspace.targets.shape[0], workspace.targets.shape[1:]
    rows = np.resize(rows, -(-rows.size // batch_size) * batch_size)
    store = _mapped_array((rows.size, *row_shape))
    for lo in range(0, rows.size, batch_size):
        block = replay.gather(rows[lo : lo + batch_size])
        store[lo : lo + batch_size] = td_targets(nets, block, gamma, value_clip, workspace)
    for idx, positions in zip(draws, where):
        update(replay.gather(idx), np.take(store, positions, axis=0, out=workspace.targets, mode="clip"))


def behaviour_step(nets: PolicyNets, family, cand_inputs, state, noise_scale: float, rng):
    """One behaviour action, drawn from a posterior over three candidates.

    The candidates are full push left, full push right and the actor's
    mu.  One operator serves every signal: ``family``, the log map over
    the bracket [0, ``family.r_max``] of discounted per-step reward,
    gives value differences multiplicative weight, so selection sharpens
    as the critic spreads the candidates apart.  A constraint enters by
    its margin, horizon value minus utility-to-go (low utility-to-go is
    high safety likelihood).  The candidates' atom means come from the
    critic's hidden layers and its mean head (``CriticNet.mean_head``),
    one (3, width) @ (width, n_signals) product in place of the output
    layer and its atoms; ``policy_update_step`` drops the head at each
    critic step, so it is recomputed once per critic change.  The reward
    atom means and margins are inverted in one call, which clips them to
    the bracket and flags each clip; a candidate's weight, the joint
    posterior of every optimality variable, is the product of its
    likelihoods.  The draw is by inverse CDF over the candidates in
    stable position order, on Python floats: the weights, floored and so
    positive, are renormalised in that order and the last cumulative
    weight is 1, so one ``rng.random()`` picks as ``one_d_measure`` and
    its ``cumulative`` would, bit for bit.
    Gaussian noise of ``noise_scale`` is added to the draw.
    ``cand_inputs`` is the critic's (3, state_dim + 1) input [scaled
    state | (-1, +1, mu)]; this call writes mu and the state.  Returns
    the action, the (3, 1 + p) likelihoods (reward, then each margin) and
    their clip flags.
    """
    critic = nets.critic
    cands = cand_inputs[:, -1]
    cands[2] = float(nets.actor.act(state)[0])
    np.multiply(state, critic.feature_scale, out=cand_inputs[:, :-1])
    head_w, head_b = critic.mean_head()
    means = nn.hidden_forward(critic.params, cand_inputs) @ head_w.T + head_b
    means[:, 1:] = family.r_max - means[:, 1:]
    lik, clipped = optimality_likelihood(family, means)
    joint = lik[:, 0] * lik[:, 1:].prod(axis=1)
    pos, weights = cands.tolist(), (joint / joint.sum()).tolist()
    order = sorted(range(3), key=pos.__getitem__)
    w0, w1, w2 = (weights[i] for i in order)
    total = w0 + w1 + w2
    if not math.isfinite(total):
        raise nn.TrainingError("behaviour step: the candidate weights are not finite")
    c0 = w0 / total
    u = rng.random()
    action = pos[order[0 if u < c0 else 1 if u < c0 + w1 / total else 2]]
    return min(max(action + noise_scale * rng.normal(), -1.0), 1.0), lik, clipped


def probe(actor: ActorNet, config: TrainConfig, episodes: int, seed) -> ObjectiveEstimate:
    """Noise-free rollouts of ``actor`` on a fresh environment of ``config``, side by side."""
    return estimate_objectives(make_env(config.env, dt=config.dt), actor, episodes, config.gamma, seed)


def ship_gate(tiers, config: TrainConfig, s_eval):
    """Re-measure the nominated checkpoints and pick the one that ships.

    ``tiers`` holds the margined, then the boundary nominees, as lists of
    (reward, actor, critic).  Probes are cheap and noisy; this gate is
    what the written checkpoint has passed.  Each nominee is re-measured
    once, for ``gate_episodes`` on its own child of ``s_eval``, best probe
    reward first and margined first at equal reward.  Pass one ships the
    first whose constraints keep ``gate_margin`` of slack below bound +
    ``tolerance_fixed``, so it survives evaluation variance near the
    bound; only when none does, pass two settles for bare feasibility.
    Returns the pass's label (``final`` if none shipped: the last actor
    ships unchecked), the shipped (actor, critic) or None, and each
    nominee's (reward, tier, re-measured constraints) in gate order.
    """
    nominees = sorted(
        ((r, tier, a, c) for tier, kept in enumerate(tiers) for r, a, c in kept),
        key=lambda item: (-item[0], item[1]),
    )
    report = [
        (r, tier, probe(a, config, config.gate_episodes, s_eval.spawn(1)[0]).constraints)
        for r, tier, a, _ in nominees
    ]
    for label, needed in (("margined", config.gate_margin), ("boundary", 0.0)):
        for (_, _, a, c), (_, _, cons) in zip(nominees, report):
            if np.all(cons <= config.bound + config.tolerance_fixed - needed):
                return label, (a, c), report
    return "final", None, report


@dataclass
class TrainResult:
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
    config produce byte-identical files.  Arrays too large for memory or
    for numpy's index range, and a replay mapping the host refuses
    (``ENOMEM``), raise ``MemoryError`` before ``out_dir`` is made.
    """
    config.validate()
    ss = np.random.SeedSequence(config.seed)
    s_init, s_env, s_noise, s_replay, s_eval = ss.spawn(5)
    env = make_env(config.env, dt=config.dt)
    env_rng = np.random.default_rng(s_env)
    noise_rng = np.random.default_rng(s_noise)
    replay_rng = np.random.default_rng(s_replay)

    p = env.n_constraints
    try:
        nets = init_policy_nets(
            state_dim=env.state_dim,
            action_dim=1,
            hidden_width=config.hidden_width,
            hidden_layers=config.hidden_layers,
            n_quantiles=config.n_quantiles,
            n_signals=1 + p,
            rng=np.random.default_rng(s_init),
            feature_scale=env.feature_scale,
        )
        # every update reuses these (batch, .) arrays, so none allocates and
        # page-faults in its temporaries; built before the replay arrays
        workspace = UpdateWorkspace(nets, config.batch_size)
        replay = ReplayBuffer(config.buffer_capacity, env.state_dim, 1, p)
        critic_opt = nn.AdamState(nets.critic.params)
        actor_opt = nn.AdamState(nets.actor.params)
    except (OverflowError, ValueError) as exc:
        # a validated config fails here only by a size beyond numpy's
        # index range, which numpy refuses before it allocates
        raise MemoryError(str(exc)) from exc
    except OSError as exc:
        # the host refuses the replay's anonymous mapping
        if exc.errno != errno.ENOMEM:
            raise
        raise MemoryError(str(exc)) from exc
    bounds = np.full(p, config.bound)
    # made once every large array is built, so a run that does not fit in
    # memory leaves no directory; an unusable path still fails here,
    # before the first episode
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    curve_path = out / "curve.csv"
    ckpt_path = out / "checkpoint.txt"
    summary_path = out / "summary.txt"

    horizon_value = (1.0 - config.gamma**env.max_steps) / (1.0 - config.gamma)
    family = log_family(0.0, horizon_value)
    value_clip = (0.0, horizon_value)

    constraint_est = np.zeros(p)

    rows = []
    steps_total = 0
    updates = 0
    last_branch = 0
    last_delta = 0.0
    # nominated checkpoints: margined (well inside the bounds), then
    # boundary (inside bounds + tau_c), each capped and reward-sorted
    tiers = [[], []]
    decay_span = max(1.0, config.noise_decay_frac * config.episodes)
    # the behaviour step's critic input, allocated once; its candidate
    # actions -1 and +1 stay in place
    cand_inputs = np.empty((3, env.state_dim + 1))
    cand_inputs[:2, -1] = (-1.0, 1.0)

    def do_update(batch: TransitionBatch, targets: np.ndarray) -> None:
        nonlocal updates, last_branch
        updates += 1
        if config.tolerance_mode == "fixed":
            tau = config.tolerance_fixed
        else:
            tau = tolerance_schedule(updates, config.batch_size, config.horizon_scale, config.gamma)
        last_branch = policy_update_step(
            nets,
            batch,
            targets,
            bounds,
            constraint_est,
            tau,
            config.learning_rate,
            config.actor_lr,
            raw_penalty=config.raw_penalty,
            critic_opt=critic_opt,
            actor_opt=actor_opt,
            workspace=workspace,
        )

    def run_updates(count: int) -> None:
        _run_updates(
            do_update, count, updates, config.target_sync_updates,
            replay, replay_rng, nets, config.gamma, value_clip, workspace,
        )

    for ep in range(1, config.episodes + 1):
        noise_scale = config.noise_start + (config.noise_end - config.noise_start) * min(
            1.0, (ep - 1) / decay_span
        )
        est_used = constraint_est.copy()
        state = env.reset(rng=env_rng)
        ep_return = RETURN_START
        done = False
        ep_updates = 0
        updates_before = updates

        while not done:
            action, _, _ = behaviour_step(nets, family, cand_inputs, state, noise_scale, noise_rng)
            next_state, r, g, done = env.step(action)
            replay.add(state, action, r, g, next_state, 1.0 if done else 0.0)
            ep_return += r
            state = next_state
            steps_total += 1

            if (
                steps_total > config.warmup_steps
                and replay.size >= config.batch_size
                and steps_total % config.update_every == 0
                and ep_updates < config.updates_per_episode
            ):
                run_updates(1)
                ep_updates += 1

        # fixed per-episode update budget: short episodes top up from
        # replay at the boundary (same constraint estimates as the
        # in-episode updates), so training volume does not depend on how
        # long the behavior policy happens to survive
        if steps_total > config.warmup_steps and replay.size >= config.batch_size:
            run_updates(config.updates_per_episode - ep_updates)

        # the workspace holds the episode's last critic step until the
        # next update, so its TD delta is read once per row
        if updates > updates_before:
            last_delta = td_delta(workspace)
        rows.append(
            CurveRow(ep, ep_return, est_used, last_branch, last_delta, steps_total * config.dt)
        )

        # periodic noise-free rollouts of the deterministic actor supply
        # the constraint estimates that drive the update branch, and
        # nominate the checkpoints measured to respect the bounds
        # (+ tau_c slack) for the gate
        if config.eval_every and (ep % config.eval_every == 0 or ep == config.episodes):
            est = probe(nets.actor, config, config.probe_episodes, s_eval.spawn(1)[0])
            constraint_est = est.constraints.copy()
            slack = bounds + config.tolerance_fixed - est.constraints
            for kept, needed in zip(tiers, (config.snapshot_margin, 0.0)):
                if np.all(slack >= needed):
                    kept.append((est.reward, nets.actor.copy(), nets.critic.copy()))
                    kept.sort(key=lambda item: -item[0])
                    del kept[4:]
                    break

    shipped_from, shipped, _ = ship_gate(tiers, config, s_eval)
    if shipped is not None:
        nets.actor, nets.critic = shipped

    write_curve(curve_path, rows, p)
    write_checkpoint(ckpt_path, nets, config.env)

    final = probe(nets.actor, config, config.eval_episodes, s_eval)
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

    return TrainResult(curve_path, ckpt_path, summary_path, updates, final, shipped_from)


# -- convergence-rate fitting -----------------------------------------------------------


@dataclass
class RateFit:
    exponent: float
    stderr: float
    n_points: int
    skipped: bool
    notice: str


def _skipped(notice: str, n_points: int = 0) -> RateFit:
    return RateFit(math.nan, math.nan, n_points, True, notice)


# largest curve magnitude fitted: gaps, logs and squares stay finite below it
_FIT_LIMIT = 1e300
_FIT_WINDOW, _FIT_MIN_POINTS = 20, 50


def fit_rate(values, burn_in_frac: float = 0.2) -> RateFit:
    """Power-law convergence exponent of a learning curve.

    The curve is smoothed with a trailing moving average; gaps to the
    best smoothed value are regressed on the log of the window-center
    episode.  The fit domain starts after the burn-in and ends one full
    window before the first argmax of the smoothed curve: beyond that
    point the gap is dominated by the plateau and would drag the slope
    toward zero.  A window is ``_FIT_WINDOW`` = 20 episodes and a fit
    needs ``_FIT_MIN_POINTS`` = 50 points, so a curve needs 70 episodes.
    """
    y = np.asarray(values, dtype=float)
    if y.ndim != 1:
        raise ValueError("expected a 1-D series")
    t_total = y.size
    if t_total < _FIT_WINDOW + _FIT_MIN_POINTS:
        return _skipped(f"need at least {_FIT_WINDOW + _FIT_MIN_POINTS} episodes, got {t_total}")
    if not np.abs(y).max() <= _FIT_LIMIT:  # refuses nan too
        return _skipped(f"curve values beyond {_FIT_LIMIT:g} would overflow the fit")

    kernel = np.full(_FIT_WINDOW, 1.0 / _FIT_WINDOW)
    sm = np.convolve(y, kernel, mode="valid")  # sm[j] covers episodes j+1 .. j+window
    best = float(sm.max())
    peak_j = int(np.argmax(sm))  # first argmax

    # episodes are 1-based; smoothed index j corresponds to window end
    # episode e = j + window
    burn_in_e = max(_FIT_WINDOW, int(math.ceil(burn_in_frac * t_total)))
    start_j = burn_in_e - _FIT_WINDOW
    end_j = peak_j - _FIT_WINDOW  # one window before the first argmax
    if end_j < start_j:
        return _skipped("smoothed optimum is reached too early to fit a rate")

    js = np.arange(start_j, end_j + 1)
    centers = js + _FIT_WINDOW - (_FIT_WINDOW - 1) / 2.0  # window-center episode
    gaps = best - sm[js]
    keep = gaps > 0.0
    js, centers, gaps = js[keep], centers[keep], gaps[keep]
    if js.size < _FIT_MIN_POINTS:
        return _skipped(f"only {js.size} usable fit points (need {_FIT_MIN_POINTS})", js.size)

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
        return RateFit(exponent, stderr, n, True, "fitted exponent is non-positive")
    return RateFit(exponent, stderr, n, False, "")
