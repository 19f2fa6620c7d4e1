"""Dual-route property checks shared by the CLI and the acceptance suite.

Every check compares the production implementation against an
independent route (brute-force search, linear program, linear algebra,
finite differences) and reports the worst observed violation against a
pinned tolerance.  The sizes are parameters so the command line can run
a quick pass while the acceptance tests run the full-size versions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import nn
from .cmdp import TabularCmdp
from .dist_rl import (
    QuantileMap,
    TransitionBatch,
    actor_gradient,
    bellman_eval,
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
from .measures import DiscreteMeasure, one_d_measure
from .nets import init_policy_nets
from .ot import (
    check_pseudo_metric,
    wasserstein_1d,
    wasserstein_oracles,
)

__all__ = [
    "CheckResult",
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


def _random_measure(rng, max_atoms=8, weighted=True):
    n = int(rng.integers(1, max_atoms + 1))
    pos = rng.normal(scale=2.0, size=n)
    if weighted:
        w = rng.uniform(0.1, 1.0, size=n)
        w /= w.sum()
    else:
        w = np.full(n, 1.0 / n)
    return pos, w


# pairs per batched oracle call; keeps the held measures flat in ``pairs``
_ORACLE_CHUNK = 128


def check_transport_vs_oracle(pairs: int = 1000, seed: int = 0, tol: float = 1e-9) -> CheckResult:
    """Quantile-merge distance vs brute-force coupling oracle.

    Pairs are drawn in order and checked ``_ORACLE_CHUNK`` at a time:
    the fast route per pair, then one batched oracle call per chunk.
    """
    rng = np.random.default_rng(seed)
    orders = [1.0, 2.0, math.inf]
    worst = 0.0
    t0 = time.perf_counter()
    for start in range(0, pairs, _ORACLE_CHUNK):
        fast, problems = [], []
        for i in range(start, min(start + _ORACLE_CHUNK, pairs)):
            k = orders[i % 3]
            weighted = i % 2 == 0
            pa, wa = _random_measure(rng, weighted=weighted)
            pb, wb = _random_measure(rng, weighted=weighted)
            fast.append(wasserstein_1d(one_d_measure(pa, wa), one_d_measure(pb, wb), k))
            problems.append((DiscreteMeasure(pa[:, None], wa), DiscreteMeasure(pb[:, None], wb), k))
        for f, slow in zip(fast, wasserstein_oracles(problems)):
            worst = max(worst, abs(f - slow))
    dt = time.perf_counter() - t0
    return CheckResult("transport_vs_oracle", worst <= tol, worst, tol, f"{pairs} pairs", dt)


def check_pseudo_metric_suite(trials: int = 500, seed: int = 0, tol: float = 1e-9) -> CheckResult:
    """Symmetry, zero self-distance, and triangle inequality on shared slices."""
    rng = np.random.default_rng(seed)

    def sampler(r):
        n = int(r.integers(1, 6))
        return DiscreteMeasure(r.normal(size=(n, 3)), None)

    t0 = time.perf_counter()
    report = check_pseudo_metric(sampler, trials=trials, seed=seed)
    dt = time.perf_counter() - t0
    worst = report.max_violation()
    return CheckResult(
        "pseudo_metric", report.passed(tol), worst, tol, f"{trials} triples", dt
    )


def check_contraction(
    pairs: int = 200, seed: int = 0, tol: float = 1e-12, fixed_point_tol: float = 1e-8
) -> CheckResult:
    """Projected policy-evaluation operator contracts at rate gamma in dbar_inf.

    The claim is specific to evaluation under a fixed deterministic policy;
    the greedy optimality operator is not a contraction in Wasserstein
    metrics and is checked elsewhere only for value convergence.

    Also verifies the degenerate fixed point: a single-state MDP with
    constant reward must converge to the point mass at r / (1 - gamma).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(pairs):
        n_s = int(rng.integers(2, 5))
        n_a = int(rng.integers(1, 4))
        n_at = int(rng.integers(2, 6))
        gamma = float(rng.uniform(0.5, 0.99))
        cmdp = random_tabular_cmdp(n_s, n_a, 1, seed=int(rng.integers(1 << 31)), gamma=gamma)
        z1 = QuantileMap(np.sort(rng.normal(size=(n_s, n_a, n_at)), axis=2))
        z2 = QuantileMap(np.sort(rng.normal(size=(n_s, n_a, n_at)), axis=2))
        before = dbar(z1, z2)
        policy = rng.integers(0, n_a, size=n_s)
        t1 = bellman_eval(z1, policy, cmdp)
        t2 = bellman_eval(z2, policy, cmdp)
        after = dbar(t1, t2)
        worst = max(worst, after - gamma * before)

    # single-state fixed point
    trans = np.ones((1, 1, 1))
    rewards = np.array([[0.7]])
    cmdp1 = TabularCmdp(trans, rewards, np.zeros((1, 1, 1)), np.zeros(1), 0.9)
    z = QuantileMap.zeros(1, 1, 8)
    for _ in range(500):
        z = bellman_eval(z, np.zeros(1, dtype=int), cmdp1)
    fp_err = float(np.max(np.abs(z.atoms - 0.7 / 0.1)))
    dt = time.perf_counter() - t0
    passed = worst <= tol and fp_err <= fixed_point_tol
    return CheckResult(
        "operator_contraction",
        passed,
        max(worst, 0.0),
        tol,
        f"{pairs} pairs, fixed-point err {fp_err:.2e}",
        dt,
    )


def check_projection_minimality(
    measures: int = 100, candidates: int = 10000, seed: int = 0, tol: float = 1e-12, n_atoms: int = 8
) -> CheckResult:
    """The quantile projection beats random same-size candidates in W1.

    Candidate costs are evaluated in closed form: on each merged
    cumulative-weight segment the candidate's active atom is fixed, so
    W1 is a single weighted absolute-difference contraction per
    candidate batch.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    t0 = time.perf_counter()
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
        worst = max(worst, proj_cost - float(costs.min()))
    dt = time.perf_counter() - t0
    return CheckResult(
        "projection_minimality",
        worst <= tol,
        max(worst, 0.0),
        tol,
        f"{measures} measures x {candidates} candidates",
        dt,
    )


def central_differences(params, objective, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of ``objective()`` over ``params.flat``.

    Each coordinate is moved in place by +eps, then by -2 eps, then
    restored to its saved value.
    """
    flat = params.flat
    fd = np.empty_like(flat)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] += eps
        hi = objective()
        flat[i] -= 2 * eps
        lo = objective()
        fd[i] = (hi - lo) / (2 * eps)
        flat[i] = saved
    return fd


def _rel_gap(a, b):
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / scale))


# Central differences with step 1e-5 are only valid where every ReLU
# pre-activation stays clear of zero and no two sorted atoms can swap, so
# instances are resampled (bounded retries) until all of them clear this
# margin.
_KINK_MARGIN = 1e-3


def _clears_kinks(params, x) -> bool:
    _, (_, pres) = nn.forward_batch_cached(params, x)
    return all(np.min(np.abs(p)) > _KINK_MARGIN for p in pres)


def _atoms_apart(atoms) -> bool:
    return np.diff(np.sort(atoms), axis=-1).min() > _KINK_MARGIN


def _kink_safe_mlp(seed, sizes=(4, 8, 8, 3)):
    for attempt in range(200):
        rng = np.random.default_rng(seed * 1000 + attempt)
        params = nn.init_mlp(list(sizes), rng)
        x = rng.normal(size=(3, sizes[0]))
        if _clears_kinks(params, x):
            return params, x, rng
    raise RuntimeError("no kink-safe instance found")


def _fd_mlp_check(seed) -> float:
    params, x, rng = _kink_safe_mlp(seed)
    upstream = rng.normal(size=(3, params.layer_sizes[-1]))
    grad = nn.backward_batch(params, nn.forward_batch_cached(params, x)[1], upstream, reduce="sum")
    fd = central_differences(params, lambda: float((nn.forward_batch(params, x) * upstream).sum()))
    return _rel_gap(grad, fd)


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


def _random_batch(rng, b=4):
    return TransitionBatch(
        states=rng.normal(size=(b, 3)),
        actions=rng.uniform(-1, 1, size=(b, 1)),
        rewards=rng.uniform(0, 1, size=b),
        utilities=rng.integers(0, 2, size=(b, 1)).astype(float),
        next_states=rng.normal(size=(b, 3)),
        done=rng.integers(0, 2, size=b).astype(float),
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

    def loss():
        # forward-only: batch mean over samples, summed over signals, of
        # (1 / 2N) sum_j (sort(q)_j - T_j)^2
        diff = np.sort(nets.critic.forward_batch(batch.states, batch.actions), axis=2) - targets
        return float(0.5 * (diff**2).mean(axis=2).mean(axis=0).sum())

    grad = critic_gradient_all(nets, batch, 0.95).grad
    return _rel_gap(grad, central_differences(nets.critic.params, loss))


def _fd_actor_check(seed) -> float:
    """The folded actor objective of a constraint-descent update.

    sign * mean Q_signal(s, pi(s)) - (c / 2) * mean |raw|^2 on the
    constraint signal (sign -1, c = 0.1), with Q the critic's atom mean
    and raw the actor's pre-squash output.
    """
    signal, sign, raw_penalty = 1, -1.0, 0.1
    nets, batch = _kink_safe_policy(seed, seed + 3333)

    def objective():
        raw = nets.actor.raw_forward(batch.states)
        q = nets.critic.forward_batch(batch.states, np.tanh(raw))[:, signal, :].mean(axis=1)
        return float(sign * q.mean() - 0.5 * raw_penalty * (raw**2).sum(axis=1).mean())

    grad = actor_gradient(nets, batch, signal, sign, raw_penalty)
    return _rel_gap(grad, central_differences(nets.actor.params, objective))


def check_gradients(instances: int = 100, seed: int = 0, tol: float = 1e-4) -> CheckResult:
    """Analytic gradients vs central finite differences.

    Instances are split as evenly as possible across the three gradient
    paths: raw network backward, critic quantile-matching loss over all
    signals, and the folded actor objective (constraint descent plus the
    raw-output penalty).
    """
    worst = 0.0
    t0 = time.perf_counter()
    for j, check in enumerate((_fd_mlp_check, _fd_critic_check, _fd_actor_check)):
        for i in range(instances // 3 + (j < instances % 3)):
            worst = max(worst, check(seed + 100 * j + i))
    dt = time.perf_counter() - t0
    return CheckResult("gradient_checks", worst < tol, worst, tol, f"{instances} instances", dt)


def check_improvement(
    seed: int = 0, monotone_tol: float = 1e-6, gap_tol: float = 1e-3, n_runs: int = 4
) -> CheckResult:
    """Desk-scale operator policy improvement on tabular problems.

    Conforming (strictly monotone) operator families must improve
    monotonically and land on the value-iteration optimum.  The
    non-monotone control's violation is reported in the detail text.
    """
    from .safe_rl import exact_improvement_report

    worst_drop = 0.0
    worst_gap = 0.0
    t0 = time.perf_counter()
    for i in range(n_runs):
        cmdp = random_tabular_cmdp(6, 3, 1, seed=seed + i, gamma=0.9)
        for fam in (affine_family(0.0, 1.0), log_family(0.0, 1.0)):
            rep = exact_improvement_report(cmdp, fam)
            worst_drop = max(worst_drop, rep.q_monotone_violation)
            worst_gap = max(worst_gap, abs(rep.final_gap))

    control = RewardOperatorFamily(
        "triangle", 0.0, 1.0, fn=lambda p: 1.0 - np.abs(2.0 * np.asarray(p, dtype=float) - 1.0)
    )
    control_rep = exact_improvement_report(
        random_tabular_cmdp(6, 3, 1, seed=seed, gamma=0.9), control, max_iters=30
    )
    dt = time.perf_counter() - t0
    passed = worst_drop <= monotone_tol and worst_gap <= gap_tol
    return CheckResult(
        "exact_improvement",
        passed,
        worst_drop,
        monotone_tol,
        f"optimum gap {worst_gap:.2e}; non-monotone control violation "
        f"{control_rep.q_monotone_violation:.3g} (expected > 0, reported only)",
        dt,
    )


def check_reconstruction(trials: int = 1000, seed: int = 0, tol: float = 1e-15) -> CheckResult:
    """Likelihood-ratio decomposition reconstructs the joint probability."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(trials):
        p_traj = float(rng.uniform(1e-12, 1.0))
        probs = rng.uniform(1e-12, 1.0, size=int(rng.integers(1, 6)))
        for factor in decompose_interpretation(p_traj, probs):
            worst = max(worst, abs(factor.reconstruct() - p_traj))
    dt = time.perf_counter() - t0
    return CheckResult("ratio_reconstruction", worst <= tol, worst, tol, f"{trials} trials", dt)


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
