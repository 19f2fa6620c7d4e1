"""One rule per input kind, checked where every constructor meets it.

A probability vector (measure weights, transition rows, ``initial_dist``,
stochastic policy rows) passes ``measures._as_weights``: finite,
non-negative, summing to 1 within ``WEIGHT_SUM_TOL``.  A deterministic
policy passes ``cmdp._deterministic_actions``: one whole action in
[0, nA) per state.  Each malformed input ends in a one-line ValueError
that names it.  The references below are the separate checks these
rules replaced: every finite input they accepted is accepted still, with
the same bytes, except what they never checked (a negative
``initial_dist`` entry, an invalid stochastic policy row).
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ot import _EDGE_SUMS  # sums of 1 +- 1e-12, each nudged by one ulp either way

from wavopt import cmdp as cmdp_module
from wavopt import measures
from wavopt.cmdp import TabularCmdp, exact_objective, exact_state_values, value_iteration
from wavopt.dist_rl import QuantileMap
from wavopt.envs import random_tabular_cmdp
from wavopt.measures import DefiningFunction, DiscreteMeasure, OneDMeasure, one_d_measure

TOL = measures.WEIGHT_SUM_TOL


def _refusal(build) -> str:
    """The message of the one-line ValueError ``build()`` raises."""
    with pytest.raises(ValueError) as info:
        build()
    message = str(info.value)
    assert message and "\n" not in message
    return message


# -- a nan in each float input of every checked constructor ------------------------

_CMDP = random_tabular_cmdp(2, 2, 1, seed=0)


def _cmdp_inputs():
    return dict(
        transitions=np.full((2, 2, 2), 0.5),
        rewards=np.full((2, 2), 0.5),
        utilities=np.zeros((1, 2, 2)),
        bounds=np.ones(1),
        gamma=0.9,
        initial_dist=np.full(2, 0.5),
    )


# name: (constructor, its valid keyword inputs, the name a refusal gives each input)
_CONSTRUCTORS = {
    "DiscreteMeasure": (DiscreteMeasure, lambda: dict(atoms=np.zeros((2, 2)), weights=np.full(2, 0.5)), {}),
    "OneDMeasure": (OneDMeasure, lambda: dict(positions=np.array([0.0, 1.0]), weights=np.full(2, 0.5)), {}),
    "one_d_measure": (one_d_measure, lambda: dict(positions=np.array([0.0, 1.0]), weights=np.full(2, 0.5)), {}),
    "TabularCmdp": (TabularCmdp, _cmdp_inputs, {"transitions": "transition rows"}),
    "QuantileMap": (QuantileMap, lambda: dict(atoms=np.zeros((2, 2, 3))), {}),
    "DefiningFunction": (
        lambda coefficients: DefiningFunction("linear", 2, coefficients),
        lambda: dict(coefficients=np.array([0.6, 0.8])),
        {},
    ),
    "exact_objective actions": (
        lambda policy: exact_objective(_CMDP, policy),
        lambda: dict(policy=np.array([0.0, 1.0])),
        {"policy": "policy actions"},
    ),
    "exact_objective rows": (
        lambda policy: exact_objective(_CMDP, policy),
        lambda: dict(policy=np.full((2, 2), 0.5)),
        {"policy": "policy rows"},
    ),
    "exact_state_values rows": (
        lambda policy: exact_state_values(_CMDP, policy),
        lambda: dict(policy=np.array([[1.0, 0.0], [0.25, 0.75]])),
        {"policy": "policy rows"},
    ),
}


def _nan_cases():
    """(constructor, input, flat index) for a nan at the first and the last
    entry of each float input; a scalar input has index None."""
    for name, (_, inputs, _) in _CONSTRUCTORS.items():
        for key, value in inputs().items():
            indices = [None] if np.ndim(value) == 0 else sorted({0, np.size(value) - 1})
            for index in indices:
                yield pytest.param(name, key, index, id=f"{name}-{key}-{index}")


@pytest.mark.parametrize("name, key, index", list(_nan_cases()))
def test_a_nan_in_any_float_input_is_refused_naming_it(name, key, index):
    build, inputs, names = _CONSTRUCTORS[name]
    build(**inputs())  # the valid inputs pass
    bad = inputs()
    if index is None:
        bad[key] = math.nan
    else:
        bad[key].flat[index] = math.nan
    assert _refusal(lambda: build(**bad)).startswith(names.get(key, key) + " ")


# -- the cases the separate checks let through ------------------------------------


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: OneDMeasure([0.0, 1.0], [0.5, 0.5, 0.0]), r"^weights must have shape \(2,\), got \(3,\)$"),
        (lambda: one_d_measure([[0.0, 1.0], [2.0, 3.0]]), r"^positions must be a finite, non-empty 1-D array$"),
        (lambda: one_d_measure([]), r"^positions must be a finite, non-empty 1-D array$"),
        (lambda: QuantileMap([[[0.0, math.nan, -1.0]]]), r"^atoms must be finite and sorted along the last axis$"),
        (lambda: QuantileMap([[[math.nan]]]), r"^atoms must be finite"),
        (lambda: QuantileMap([[[1.0, 0.0]]]), r"^atoms must be finite and sorted"),
        (lambda: random_tabular_cmdp(0, 2, 0, seed=0), r"^transitions must have shape \(nS, nA, nS\) with nS, nA >= 1$"),
        (lambda: random_tabular_cmdp(2, 0, 0, seed=0), r"^transitions must have shape"),
    ],
)
def test_inputs_the_separate_checks_let_through_are_refused(build, message):
    assert re.search(message, _refusal(build))


def _one_state(**changes):
    inputs = dict(transitions=np.full((2, 1, 2), 0.5), rewards=np.zeros((2, 1)), utilities=np.zeros((0, 2, 1)), bounds=[])
    inputs.update(changes)
    return lambda: TabularCmdp(gamma=0.9, **inputs)


@pytest.mark.parametrize(
    "build, message",
    [
        (_one_state(initial_dist=[1.5, -0.5]), r"^initial_dist must be non-negative$"),
        (_one_state(initial_dist=[0.5, 0.4]), r"^initial_dist must sum to 1 within 1e-12, got 0\.9$"),
        (_one_state(initial_dist=[1.0]), r"^initial_dist must have shape \(2,\), got \(1,\)$"),
        (_one_state(transitions=np.array([[[1.5, -0.5]], [[0.5, 0.5]]])), r"^transition rows must be non-negative$"),
        (_one_state(transitions=np.array([[[0.5, 0.5]], [[0.5, 0.4]]])), r"^transition rows must sum to 1 within"),
        (_one_state(rewards=[[0.5], [math.inf]]), r"^rewards must lie within \[0, 1\]$"),
        (_one_state(utilities=np.full((1, 2, 1), -math.inf), bounds=[0.0]), r"^utilities must be finite$"),
        (_one_state(utilities=np.zeros((1, 2, 1)), bounds=[math.inf]), r"^bounds must be finite$"),
    ],
)
def test_tabular_cmdp_refuses_each_input_by_name(build, message):
    assert re.search(message, _refusal(build))


@pytest.mark.parametrize(
    "policy, message",
    [
        ([[2.0, -1.0]] * 2, r"^policy rows must be non-negative$"),
        ([[0.5, 0.4]] * 2, r"^policy rows must sum to 1 within 1e-12, got 0\.9$"),
        ([[0.5, math.inf]] * 2, r"^policy rows must be finite$"),
        (np.full((2, 3), 1 / 3), r"^policy rows must have shape \(2, 2\), got \(2, 3\)$"),
    ],
)
def test_a_stochastic_policy_is_a_probability_vector_per_state(policy, message):
    assert re.search(message, _refusal(lambda: exact_objective(_CMDP, policy)))


def test_a_nan_reward_no_longer_reaches_value_iteration():
    # it ran all 1e6 sweeps and returned nan
    with pytest.raises(ValueError, match=r"^rewards must lie within \[0, 1\]$"):
        _one_state(rewards=[[0.5], [math.nan]])()


def test_an_overflowing_weight_sum_is_refused_without_a_warning():
    # the sum's RuntimeWarning came first, an error under -W error
    with pytest.raises(ValueError, match=r"^weights must sum to 1 within 1e-12, got inf$"):
        one_d_measure([0.0, 1.0], [1e308, 1e308])


def test_the_sum_message_prints_a_python_float():
    with pytest.raises(ValueError, match=r"^weights must sum to 1 within 1e-12, got 0\.8$"):
        one_d_measure([0.0, 1.0], [0.4, 0.4])


# -- value iteration at its sweep cap -----------------------------------------------


def _sweeps(cmdp) -> int:
    """Sweeps value iteration needs to converge, counted on its own loop."""
    v = np.zeros(cmdp.n_states)
    for k in range(1, 10**6 + 1):
        v_next = (cmdp.rewards + cmdp.gamma * cmdp.transitions @ v).max(axis=1)
        if np.max(np.abs(v_next - v)) <= 1e-12:
            return k
        v = v_next
    raise AssertionError("no convergence")


def test_value_iteration_refuses_to_stop_at_its_cap_unconverged(monkeypatch):
    cmdp = random_tabular_cmdp(3, 2, 0, seed=0, gamma=0.99999)
    monkeypatch.setattr(cmdp_module, "_VI_MAX_ITER", 200)
    with pytest.raises(RuntimeError, match=r"^value iteration did not converge within 200 sweeps at gamma=0\.99999$"):
        value_iteration(cmdp)


def test_value_iteration_converging_on_its_last_sweep_keeps_its_bits(monkeypatch):
    cmdp = random_tabular_cmdp(6, 3, 0, seed=1, gamma=0.9)
    v, q = value_iteration(cmdp)
    sweeps = _sweeps(cmdp)
    monkeypatch.setattr(cmdp_module, "_VI_MAX_ITER", sweeps)
    at_cap = value_iteration(cmdp)
    assert (at_cap[0].tobytes(), at_cap[1].tobytes()) == (v.tobytes(), q.tobytes())
    monkeypatch.setattr(cmdp_module, "_VI_MAX_ITER", sweeps - 1)
    with pytest.raises(RuntimeError, match="gamma=0.9$"):
        value_iteration(cmdp)


# -- every finite array the separate checks accepted is still accepted -------------------


def _transitions_by_parent_rule(t):
    """``TabularCmdp``'s own row check, before the one rule."""
    return not (np.max(np.abs(t.sum(axis=2) - 1.0)) > TOL or np.any(t < 0))


def _initial_dist_by_parent_rule(d):
    """``TabularCmdp``'s own ``initial_dist`` check: the sum alone."""
    return not abs(d.sum() - 1.0) > TOL


def _one_d_weights_by_parent_rule(w):
    """``OneDMeasure``'s own weight check: positive, summing to 1."""
    return not ((w <= 0).any() or abs(w.sum() - 1.0) > TOL)


def _accepts(build) -> bool:
    try:
        build()
    except ValueError:
        return False
    return True


# finite entries at the edges of the sign check
_ODD_ENTRIES = [-0.0, 0.0, -1e-300, 1e-300, -5e-324, 5e-324]


@st.composite
def _rows(draw, n: int, count: int) -> np.ndarray:
    """``count`` rows of ``n`` finite entries: normalised rows, rows whose sum
    sits at an edge of the tolerance, and either with an odd entry put in."""
    rows = []
    for _ in range(count):
        if draw(st.booleans()):
            raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
            row = raw / raw.sum() if raw.sum() > 0.0 else raw
        else:
            t = draw(st.sampled_from(_EDGE_SUMS))
            row = np.zeros(n)
            row[: min(n, 2)] = [t] if n == 1 else [t - 0.25, 0.25]
            row = np.array(draw(st.permutations(list(row))))
        if draw(st.booleans()):
            row[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_ODD_ENTRIES))
        rows.append(row)
    return np.array(rows)


_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


class TestOneRuleKeepsEveryFiniteVerdict:
    @_SETTINGS
    @given(st.data())
    def test_transition_rows(self, data):
        ns, na = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        t = data.draw(_rows(ns, ns * na)).reshape(ns, na, ns)

        def build():
            return TabularCmdp(t, np.zeros((ns, na)), np.zeros((0, ns, na)), [], 0.9)

        assert _accepts(build) == _transitions_by_parent_rule(t)
        if _accepts(build):
            assert build().transitions.tobytes() == t.tobytes()

    @_SETTINGS
    @given(st.data())
    def test_initial_dist(self, data):
        ns = data.draw(st.integers(1, 5))
        d = data.draw(_rows(ns, 1))[0]

        def build():
            return TabularCmdp(np.ones((ns, 1, ns)) / ns, np.zeros((ns, 1)), np.zeros((0, ns, 1)), [], 0.9, d)

        # the parent read the sum alone; a negative entry is refused now
        assert _accepts(build) == (_initial_dist_by_parent_rule(d) and not (d < 0).any())
        if _accepts(build):
            assert build().initial_dist.tobytes() == d.tobytes()

    @_SETTINGS
    @given(st.data())
    def test_one_d_measure_weights(self, data):
        n = data.draw(st.integers(1, 5))
        w = data.draw(_rows(n, 1))[0]
        positions = np.arange(float(n))
        assert _accepts(lambda: OneDMeasure(positions, w)) == _one_d_weights_by_parent_rule(w)
        if _one_d_weights_by_parent_rule(w):
            assert OneDMeasure(positions, w).weights.tobytes() == w.tobytes()

    @_SETTINGS
    @given(st.data())
    def test_stochastic_policy_rows(self, data):
        cmdp = random_tabular_cmdp(3, 2, 0, seed=data.draw(st.integers(0, 3)))
        rows = data.draw(_rows(2, 3))
        valid = rows.min() >= 0.0 and np.max(np.abs(rows.sum(axis=1) - 1.0)) <= TOL
        assert _accepts(lambda: exact_objective(cmdp, rows)) == valid
        if valid:
            # the parent used the rows as given
            assert cmdp_module._policy_matrix(cmdp, rows).tobytes() == rows.tobytes()

    @pytest.mark.parametrize("t", _EDGE_SUMS)
    def test_edge_sums(self, t):
        row = np.array([t - 0.25, 0.25])
        within = abs(t - 1.0) <= TOL
        transitions = np.array([[row], [row]])
        assert _accepts(lambda: TabularCmdp(transitions, np.zeros((2, 1)), np.zeros((0, 2, 1)), [], 0.9)) == within
        assert _accepts(lambda: OneDMeasure([0.0, 1.0], row)) == within
        assert _accepts(lambda: exact_objective(_CMDP, np.array([row, row]))) == within
