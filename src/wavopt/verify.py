"""Dual-route property checks shared by the CLI and the acceptance suite.

Every check compares the production implementation against an
independent route (brute-force search, linear program, linear algebra,
finite differences) or, for the sliced distances, against the
pseudo-metric axioms.  No check takes a tolerance; each ends in one
pass rule, ``_verdict``: for each gated quantity (the check's own, and
``fixed_point`` and ``optimum_gap`` for the contraction and improvement
checks) the largest gap, floored at 0 and nan if any gap is nan, passes
iff it is ``<=`` its entry in ``TOLERANCES``.  The report shows the
check's own quantity.  The sizes are parameters so the command line can
run a quick pass while the acceptance tests run the full-size versions.

The finite-difference route evaluates each objective on stacks of
perturbed parameter vectors, one row per coordinate, through its own
forward (``_stacked_forward``): two stacked calls per gradient, and no
network is perturbed in place.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import nn
from .cmdp import TabularCmdp, value_iteration
from .dist_rl import (
    QuantileMap,
    TransitionBatch,
    actor_gradient,
    bellman_operator,
    critic_gradient_all,
    dbar,
    midpoint_levels,
    quantile_projection,
    td_targets,
)
from .envs import random_tabular_cmdp
from .inference import (
    RewardOperatorFamily,
    affine_family,
    decompose_interpretation,
    log_family,
)
from .measures import DiscreteMeasure, SliceParameterSet, one_d_measure
from .nets import init_policy_nets
from .ot import _slice_mean, _sliced_powers, wasserstein_1d, wasserstein_oracles

__all__ = [
    "CheckResult",
    "TOLERANCES",
    "check_transport_vs_oracle",
    "check_pseudo_metric_suite",
    "check_contraction",
    "check_projection_minimality",
    "check_gradients",
    "check_improvement",
    "check_reconstruction",
    "run_all",
    "central_differences",
]


# every check's pinned tolerance, by report name; two checks gate a
# second quantity (``fixed_point``, ``optimum_gap``), whose entries the
# report lines do not show
TOLERANCES = {
    "transport_vs_oracle": 1e-9,
    "pseudo_metric": 1e-9,
    "operator_contraction": 1e-12,
    "fixed_point": 1e-8,
    "projection_minimality": 1e-12,
    "gradient_checks": 1e-4,
    "exact_improvement": 1e-6,
    "optimum_gap": 1e-3,
    "ratio_reconstruction": 1e-15,
}


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_violation: float
    tolerance: float
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: max violation {self.max_violation:.3e}"
            f" (tolerance {self.tolerance:.0e}, {self.seconds:.2f}s)"
            + (f" [{self.detail}]" if self.detail else "")
        )

    def report_line(self) -> str:
        # report files must be reproducible byte-for-byte, so no timing here
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name} max_violation={self.max_violation:.3e} {status}"


def _largest(gaps) -> float:
    """The largest of ``gaps``, floored at +0.0; nan if any gap is nan."""
    # np.max keeps a nan where Python's max(0.0, nan) drops it; + 0.0 turns -0.0 into +0.0
    return float(np.max(gaps, initial=0.0)) + 0.0


def _verdict(name: str, gaps, detail: str, started: float, **gated) -> CheckResult:
    """The one pass rule of every check.

    ``gaps`` are the check's own, reported as ``name``; each keyword of
    ``gated`` holds the gaps of a second quantity, named by its
    ``TOLERANCES`` key.  The check passes iff every quantity's
    ``_largest`` gap is ``<=`` its tolerance (a nan gap fails), and its
    seconds run from ``started``.
    """
    largest = {key: _largest(g) for key, g in {name: gaps, **gated}.items()}
    passed = all(value <= TOLERANCES[key] for key, value in largest.items())
    return CheckResult(name, passed, largest[name], TOLERANCES[name], detail, time.perf_counter() - started)


def _random_measure(rng, max_atoms=8, weighted=True):
    n = int(rng.integers(1, max_atoms + 1))
    pos = rng.normal(scale=2.0, size=n)
    if weighted:
        w = rng.uniform(0.1, 1.0, size=n)
        w /= w.sum()
    else:
        w = np.full(n, 1.0 / n)
    return pos, w


def _require_sizes(**sizes) -> None:
    """Refuse a check size below 1, naming it: an empty check would read PASS."""
    for name, size in sizes.items():
        if size < 1:
            raise ValueError(f"{name} must be >= 1")


# pairs per batched oracle call; keeps the held measures flat in ``pairs``
_ORACLE_CHUNK = 128


def check_transport_vs_oracle(pairs: int = 1000, seed: int = 0) -> CheckResult:
    """Quantile-merge distance vs brute-force coupling oracle.

    Pairs are drawn in order and checked ``_ORACLE_CHUNK`` at a time:
    the fast route per pair, then one batched oracle call per chunk.
    """
    _require_sizes(pairs=pairs)
    rng = np.random.default_rng(seed)
    orders = [1.0, 2.0, math.inf]
    gaps = []
    started = time.perf_counter()
    for start in range(0, pairs, _ORACLE_CHUNK):
        fast, problems = [], []
        for i in range(start, min(start + _ORACLE_CHUNK, pairs)):
            k = orders[i % 3]
            weighted = i % 2 == 0
            pa, wa = _random_measure(rng, weighted=weighted)
            pb, wb = _random_measure(rng, weighted=weighted)
            fast.append(wasserstein_1d(one_d_measure(pa, wa), one_d_measure(pb, wb), k))
            # drawn valid above, so the oracle's inputs skip the constructor's checks
            mu, nu = DiscreteMeasure._unchecked(pa[:, None], wa), DiscreteMeasure._unchecked(pb[:, None], wb)
            problems.append((mu, nu, k))
        gaps += [abs(f - slow) for f, slow in zip(fast, wasserstein_oracles(problems))]
    return _verdict("transport_vs_oracle", gaps, f"{pairs} pairs", started)


# the distances of a triple (a, b, c) that the axioms read: ab, ba, ac, cb, aa
_TRIPLE_PAIRS = ((0, 1), (1, 0), (0, 2), (2, 1), (0, 0))
# trials per engine call; keeps the check's memory flat in the trial count
_TRIALS_PER_CALL = 128


def check_pseudo_metric_suite(trials: int = 500, seed: int = 0) -> CheckResult:
    """Pseudo-metric axioms of order-2 ``gswd`` on sampled measure triples.

    Each trial draws three uniform 1-5 atom measures in R^3, then 8
    degree-3 polynomial slices (the draw of
    ``random_polynomial_slices(3, 8, rng)``), and reads the worst
    violation of non-negativity, symmetry, the triangle inequality and
    zero self-distance.  The detail gives the margins: the smallest
    triangle slack ``dac + dcb - dab`` and the smallest distance between
    two measures of a trial.  The trials go to the sliced engine
    ``_TRIALS_PER_CALL`` at a time, each trial's three measures on its
    own slices, whose rows are normalised at once (a row's unit bits
    depend on its values alone).  Each pair's powers are folded by the
    scalar ``_slice_mean``, so a trial's five distances are those of
    five ``gswd`` calls, bit for bit.
    """
    _require_sizes(trials=trials)
    rng = np.random.default_rng(seed)
    gaps = []
    slack = smallest = math.inf
    started = time.perf_counter()
    for start in range(0, trials, _TRIALS_PER_CALL):
        measures, rows = [], []
        for _ in range(min(_TRIALS_PER_CALL, trials - start)):
            for _ in range(3):
                n = int(rng.integers(1, 6))
                measures.append(DiscreteMeasure._unchecked(rng.normal(size=(n, 3)), np.full(n, 1.0 / n)))
            rows.append(rng.standard_normal((8, 10)))
        sets = SliceParameterSet.normalized("poly", 3, np.concatenate(rows), 3).split(8)
        slices = [shared for shared in sets for _ in range(3)]
        pairs = [(t + i, t + j) for t in range(0, len(measures), 3) for i, j in _TRIPLE_PAIRS]
        distances = [_slice_mean(p, 2.0) for p in _sliced_powers(measures, slices, pairs, 2.0)]
        for t in range(0, len(distances), 5):
            dab, dba, dac, dcb, daa = distances[t : t + 5]
            # non-negativity, symmetry, the triangle inequality, zero self-distance
            gaps += (-min(dab, dac, dcb), abs(dab - dba), dab - (dac + dcb), abs(daa))
            slack = min(slack, dac + dcb - dab)
            smallest = min(smallest, dab, dba, dac, dcb)
    detail = f"{trials} triples, triangle slack {slack:.2e}, smallest distance {smallest:.2e}"
    return _verdict("pseudo_metric", gaps, detail, started)


def check_contraction(pairs: int = 200, seed: int = 0) -> CheckResult:
    """Projected policy-evaluation operator contracts at rate gamma in dbar_inf.

    The claim is specific to evaluation under a fixed deterministic policy;
    the greedy optimality operator is not a contraction in Wasserstein
    metrics and is checked elsewhere only for value convergence.

    Also verifies the degenerate fixed point: a single-state MDP with
    constant reward must converge to the point mass at r / (1 - gamma).
    """
    _require_sizes(pairs=pairs)
    rng = np.random.default_rng(seed)
    gaps = []
    started = time.perf_counter()
    for _ in range(pairs):
        n_s = int(rng.integers(2, 5))
        n_a = int(rng.integers(1, 4))
        n_at = int(rng.integers(2, 6))
        gamma = float(rng.uniform(0.5, 0.99))
        # no constraint: only the transitions and rewards are read
        cmdp = random_tabular_cmdp(n_s, n_a, 0, seed=int(rng.integers(1 << 31)), gamma=gamma)
        z1 = QuantileMap(np.sort(rng.normal(size=(n_s, n_a, n_at)), axis=2))
        z2 = QuantileMap(np.sort(rng.normal(size=(n_s, n_a, n_at)), axis=2))
        before = dbar(z1, z2)
        policy = rng.integers(0, n_a, size=n_s)
        operator = bellman_operator(policy, cmdp, n_at)
        after = dbar(operator(z1), operator(z2))
        gaps.append(after - gamma * before)

    # single-state fixed point
    trans = np.ones((1, 1, 1))
    rewards = np.array([[0.7]])
    cmdp1 = TabularCmdp(trans, rewards, np.zeros((1, 1, 1)), np.zeros(1), 0.9)
    z = _iterate_bellman(QuantileMap.zeros(1, 1, 8), np.zeros(1, dtype=int), cmdp1, 500)
    fp_err = float(np.max(np.abs(z.atoms - 0.7 / 0.1)))
    detail = f"{pairs} pairs, fixed-point err {fp_err:.2e}"
    return _verdict("operator_contraction", gaps, detail, started, fixed_point=fp_err)


def _iterate_bellman(z: QuantileMap, policy, cmdp: TabularCmdp, iterations: int) -> QuantileMap:
    """The reward's ``bellman_operator``, prepared once, applied
    ``iterations`` times, stopping early at an iterate that reproduces its
    input bit for bit: every later one would be the same."""
    operator = bellman_operator(policy, cmdp, z.n_quantiles)
    for _ in range(iterations):
        nxt = operator(z)
        if nxt.atoms.tobytes() == z.atoms.tobytes():
            break
        z = nxt
    return z


def check_projection_minimality(measures: int = 100, candidates: int = 10000, seed: int = 0) -> CheckResult:
    """The quantile projection beats random same-size candidates in W1.

    Candidate costs are evaluated in closed form: on each merged
    cumulative-weight segment the candidate's active atom is fixed, so
    W1 is a single weighted absolute-difference contraction per
    candidate batch.  Projections and candidates have 8 atoms.
    """
    _require_sizes(measures=measures, candidates=candidates)
    n_atoms = 8
    rng = np.random.default_rng(seed)
    gaps = []
    started = time.perf_counter()
    grid = midpoint_levels(n_atoms)
    for _ in range(measures):
        pos, w = _random_measure(rng, max_atoms=12)
        m = one_d_measure(pos, w)
        proj = quantile_projection(m, n_atoms)
        proj_cost = wasserstein_1d(one_d_measure(proj), m, 1.0)

        # merged segments between the uniform n-atom grid and m
        cum_c = np.arange(1, n_atoms + 1) / n_atoms
        cum_m = m.cumulative()
        bounds = np.union1d(cum_c, cum_m)
        seg = np.diff(bounds, prepend=0.0)
        band = np.searchsorted(cum_c, bounds, side="left")  # candidate atom per segment
        y = m.positions[np.searchsorted(cum_m, bounds, side="left")]

        cand = np.sort(rng.normal(scale=2.5, size=(candidates, n_atoms)), axis=1)
        costs = np.abs(cand[:, band] - y) @ seg
        gaps.append(proj_cost - float(costs.min()))
    return _verdict("projection_minimality", gaps, f"{measures} measures x {candidates} candidates", started)


def central_differences(theta, objective, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a stacked ``objective`` at ``theta``.

    ``objective`` maps a (P, n) stack of parameter vectors to their (P,)
    values.  Row i of the upper stack is ``theta`` with coordinate i
    moved by +eps, and row i of the lower stack is that row moved by
    -2 eps, so each value is the one a coordinate moved in place, then
    moved back past its saved value, would give.  ``theta`` is read,
    never written.
    """
    theta = np.asarray(theta, dtype=float)
    i = np.arange(theta.size)
    hi = np.repeat(theta[None, :], theta.size, axis=0)
    hi[i, i] += eps
    lo = hi.copy()
    lo[i, i] -= 2 * eps
    return (objective(hi) - objective(lo)) / (2 * eps)


def _stacked_forward(thetas: np.ndarray, sizes, x: np.ndarray) -> np.ndarray:
    """The MLP of layer ``sizes`` at every row of ``thetas``, on the batch ``x``.

    ``thetas`` (P, n) holds parameter vectors in the layout of
    ``MlpParams.flat``; ``x`` is one (B, fan_in) batch for every row or
    a (P, B, fan_in) stack.  Returns (P, B, fan_out).  Each layer is
    ``z = a @ W.T; z += b``, then ``max(z, 0)`` on the hidden ones: the
    products of ``nn.forward_batch`` one row at a time.  It is the
    finite-difference route's own forward and shares nothing with
    ``nn.backward_batch``.
    """
    a, i, last = x, 0, len(sizes) - 2
    for l, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        w = thetas[:, i : i + fan_out * fan_in].reshape(-1, fan_out, fan_in)
        i += fan_out * fan_in
        z = np.matmul(a, w.transpose(0, 2, 1))
        z += thetas[:, None, i : i + fan_out]
        i += fan_out
        a = z if l == last else np.maximum(z, 0.0, out=z)
    return a


def _rel_gap(a, b):
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / scale))


# Central differences with step 1e-5 are only valid where every ReLU
# pre-activation stays clear of zero and no two sorted atoms can swap, so
# instances are resampled (bounded retries) until all of them clear this
# margin.
_KINK_MARGIN = 1e-3
# the MLP check's layer widths and the policy checks' batch size
_FD_MLP_SIZES, _FD_BATCH = (4, 8, 8, 3), 4


def _clears_kinks(params, x) -> bool:
    bufs = nn.LayerBuffers(params, x.shape[0])
    nn.hidden_forward(params, x, bufs)
    return all(np.min(np.abs(p)) > _KINK_MARGIN for p in bufs.pre[:-1])


def _atoms_apart(atoms) -> bool:
    return np.diff(np.sort(atoms), axis=-1).min() > _KINK_MARGIN


def _kink_safe_mlp(seed):
    for attempt in range(200):
        rng = np.random.default_rng(seed * 1000 + attempt)
        params = nn.init_mlp(_FD_MLP_SIZES, rng)
        x = rng.normal(size=(3, _FD_MLP_SIZES[0]))
        if _clears_kinks(params, x):
            return params, x, rng
    raise RuntimeError("no kink-safe instance found")


def _fd_mlp_check(seed) -> float:
    params, x, rng = _kink_safe_mlp(seed)
    upstream = rng.normal(size=(3, params.layer_sizes[-1]))
    bufs = nn.LayerBuffers(params, x.shape[0])
    nn.forward_batch(params, x, bufs)
    grad = nn.backward_batch(params, x, upstream, bufs, reduce="sum")
    return _rel_gap(grad, central_differences(params.flat, _mlp_objective(params, x, upstream)))


def _mlp_objective(params, x, upstream):
    """Stacked sum of ``upstream * f(x)`` over the network's parameter vectors."""
    sizes = params.layer_sizes

    def objective(thetas):
        return (_stacked_forward(thetas, sizes, x) * upstream).reshape(len(thetas), -1).sum(axis=1)

    return objective


def _small_nets(seed):
    return init_policy_nets(
        state_dim=3,
        action_dim=1,
        hidden_width=6,
        hidden_layers=1,
        n_quantiles=4,
        n_signals=2,
        rng=np.random.default_rng(seed),
    )


def _random_batch(rng):
    return TransitionBatch(
        states=rng.normal(size=(_FD_BATCH, 3)),
        actions=rng.uniform(-1, 1, size=(_FD_BATCH, 1)),
        rewards=rng.uniform(0, 1, size=_FD_BATCH),
        utilities=rng.integers(0, 2, size=(_FD_BATCH, 1)).astype(float),
        next_states=rng.normal(size=(_FD_BATCH, 3)),
        done=rng.integers(0, 2, size=_FD_BATCH).astype(float),
    )


def _kink_safe_policy(seed, batch_seed):
    """Small nets and a batch that clear the kink margin everywhere the checks look.

    That is every actor pre-activation at the batch states, every critic
    pre-activation at (s, a) and at (s, pi(s)), and every gap between
    neighbouring sorted critic atoms at (s, a): the quantile loss sorts
    them, so its gradient breaks where two atoms swap.  Attempt 0 is
    (seed, batch_seed) itself; each retry moves both by a fixed stride.
    """
    for attempt in range(200):
        shift = attempt * 1_000_003
        nets = _small_nets(seed + shift)
        batch = _random_batch(np.random.default_rng(batch_seed + shift))
        actor, critic = nets.actor, nets.critic
        policy_actions = actor.act_batch(batch.states)
        if (
            _clears_kinks(actor.params, actor.scaled(batch.states))
            and _clears_kinks(critic.params, critic.inputs(batch.states, batch.actions))
            and _clears_kinks(critic.params, critic.inputs(batch.states, policy_actions))
            and _atoms_apart(critic.forward_batch(batch.states, batch.actions))
        ):
            return nets, batch
    raise RuntimeError("no kink-safe instance found")


def _fd_critic_check(seed) -> float:
    nets, batch = _kink_safe_policy(seed, seed + 7777)
    targets = td_targets(nets, batch, 0.95)
    loss = _critic_loss(nets.critic, batch, targets)
    grad = critic_gradient_all(nets, batch, targets)
    return _rel_gap(grad, central_differences(nets.critic.params.flat, loss))


def _critic_loss(critic, batch, targets):
    """Stacked critic loss over the critic's parameter vectors.

    Forward-only: the batch mean over samples, summed over signals, of
    (1 / 2N) sum_j (sort(q)_j - T_j)^2.
    """
    x, sizes = critic.inputs(batch.states, batch.actions), critic.params.layer_sizes

    def loss(thetas):
        out = _stacked_forward(thetas, sizes, x).reshape(len(thetas), *targets.shape)
        diff = np.sort(out, axis=3) - targets
        return 0.5 * (diff**2).mean(axis=3).mean(axis=1).sum(axis=1)

    return loss


def _fd_actor_check(seed) -> float:
    """The folded actor objective of a constraint-descent update, on the
    constraint signal (sign -1, c = 0.1)."""
    nets, batch = _kink_safe_policy(seed, seed + 3333)
    objective = _actor_objective(nets, batch, *_ACTOR_FOLD)
    grad = actor_gradient(nets, batch, *_ACTOR_FOLD)
    return _rel_gap(grad, central_differences(nets.actor.params.flat, objective))


# signal, sign and raw-output penalty of the actor check
_ACTOR_FOLD = (1, -1.0, 0.1)


def _actor_objective(nets, batch, signal, sign, raw_penalty):
    """Stacked folded actor objective over the actor's parameter vectors.

    sign * mean Q_signal(s, pi(s)) - (c / 2) * mean |raw|^2, with Q the
    critic's atom mean, raw the actor's pre-squash output and c the
    raw-output penalty.  The critic stays fixed.
    """
    actor, critic = nets.actor, nets.critic
    x, sizes = actor.scaled(batch.states), actor.params.layer_sizes
    scaled = batch.states * critic.feature_scale

    def objective(thetas):
        raw = _stacked_forward(thetas, sizes, x)
        inputs = np.concatenate([np.broadcast_to(scaled, (len(thetas),) + scaled.shape), np.tanh(raw)], axis=2)
        out = _stacked_forward(critic.params.flat[None], critic.params.layer_sizes, inputs)
        q = out.reshape(*raw.shape[:2], critic.n_signals, critic.n_quantiles)[:, :, signal, :].mean(axis=2)
        return sign * q.mean(axis=1) - 0.5 * raw_penalty * (raw**2).sum(axis=2).mean(axis=1)

    return objective


def check_gradients(instances: int = 100, seed: int = 0) -> CheckResult:
    """Analytic gradients vs central finite differences.

    Instances are split as evenly as possible across the three gradient
    paths: raw network backward, critic quantile-matching loss over all
    signals, and the folded actor objective (constraint descent plus the
    raw-output penalty).
    """
    _require_sizes(instances=instances)
    started = time.perf_counter()
    gaps = [
        check(seed + 100 * j + i)
        for j, check in enumerate((_fd_mlp_check, _fd_critic_check, _fd_actor_check))
        for i in range(instances // 3 + (j < instances % 3))
    ]
    return _verdict("gradient_checks", gaps, f"{instances} instances", started)


def check_improvement(seed: int = 0, n_runs: int = 4) -> CheckResult:
    """Desk-scale operator policy improvement on tabular problems.

    Conforming (strictly monotone) operator families must improve
    monotonically and land on the value-iteration optimum.  The
    non-monotone control's violation is reported in the detail text.

    Value iteration runs once per CMDP: both families of run i share run
    i's optimum, and the control runs on run 0's CMDP (``seed``) and
    optimum.
    """
    from .safe_rl import exact_improvement_report

    _require_sizes(n_runs=n_runs)

    def instance(i):
        # no constraint: only the transitions and rewards are read
        cmdp = random_tabular_cmdp(6, 3, 0, seed=seed + i, gamma=0.9)
        return cmdp, value_iteration(cmdp)[0]

    drops, optimum_gaps = [], []
    started = time.perf_counter()
    first = instance(0)
    for i in range(n_runs):
        cmdp, v_star = instance(i) if i else first
        for fam in (affine_family(0.0, 1.0), log_family(0.0, 1.0)):
            rep = exact_improvement_report(cmdp, fam, v_star=v_star)
            drops.append(rep.q_monotone_violation)
            optimum_gaps.append(abs(rep.final_gap))

    control = RewardOperatorFamily(
        "triangle", 0.0, 1.0, fn=lambda p: 1.0 - np.abs(2.0 * np.asarray(p, dtype=float) - 1.0)
    )
    cmdp, v_star = first
    control_rep = exact_improvement_report(cmdp, control, max_iters=30, v_star=v_star)
    worst_gap = _largest(optimum_gaps)
    detail = (
        f"optimum gap {worst_gap:.2e}; non-monotone control violation "
        f"{control_rep.q_monotone_violation:.3g} (expected > 0, reported only)"
    )
    return _verdict("exact_improvement", drops, detail, started, optimum_gap=worst_gap)


def check_reconstruction(trials: int = 1000, seed: int = 0) -> CheckResult:
    """Likelihood-ratio decomposition reconstructs the joint probability."""
    _require_sizes(trials=trials)
    rng = np.random.default_rng(seed)
    gaps = []
    started = time.perf_counter()
    for _ in range(trials):
        p_traj = float(rng.uniform(1e-12, 1.0))
        probs = rng.uniform(1e-12, 1.0, size=int(rng.integers(1, 6)))
        gaps += [abs(factor.reconstruct() - p_traj) for factor in decompose_interpretation(p_traj, probs)]
    return _verdict("ratio_reconstruction", gaps, f"{trials} trials", started)


def run_all(full: bool = False, seed: int = 0) -> list:
    """All property checks; quick sizes by default, full acceptance sizes otherwise."""
    if full:
        return [
            check_transport_vs_oracle(1000, seed),
            check_pseudo_metric_suite(500, seed),
            check_contraction(200, seed),
            check_projection_minimality(100, 10000, seed),
            check_gradients(100, seed),
            check_improvement(seed),
            check_reconstruction(1000, seed),
        ]
    return [
        check_transport_vs_oracle(120, seed),
        check_pseudo_metric_suite(60, seed),
        check_contraction(40, seed),
        check_projection_minimality(20, 2000, seed),
        check_gradients(12, seed),
        check_improvement(seed, n_runs=2),
        check_reconstruction(300, seed),
    ]
