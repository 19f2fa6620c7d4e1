"""Batched sliced-transport engine against the per-slice route it replaced.

The test-only oracle here is the per-slice route
``wasserstein_1d(project(mu, f), project(nu, f), k)`` that ``gswd``
and ``swd`` used to take slice by slice (``slice_oracle``).  The batched distances must
match it within 1e-10 relative.  (The uniform fast path sums
|sort x - sort y|^k / n where the per-slice route sums segment lengths
that are differences of a cumulative sum; at n = 10^4 the two differ by
about 1e-11 relative, so 1e-12 would be too tight.)
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavopt import ot, verify
from wavopt.measures import (
    DefiningFunction,
    DiscreteMeasure,
    SliceParameterSet,
    monomial_exponents,
    num_monomials,
)
from wavopt.ot import gswd, random_linear_slices, random_polynomial_slices, swd, wasserstein_1d
from slice_oracle import evaluate, project

REL_TOL = 1e-10


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def per_slice_powers(mu, nu, k, slices: SliceParameterSet) -> np.ndarray:
    """W_k^k (W_inf) per slice, with one projection and one exact 1-D transport each."""
    powers = []
    for coefficients in slices.coefficients:
        w = wasserstein_1d(project(mu, coefficients, slices.degree), project(nu, coefficients, slices.degree), k)
        powers.append(w if math.isinf(k) else w**k)
    return np.array(powers)


def per_slice_distance(mu, nu, k, slices: SliceParameterSet) -> float:
    powers = per_slice_powers(mu, nu, k, slices)
    if math.isinf(k):
        return float(powers.max())
    return float(np.mean(powers) ** (1.0 / k))


def swd_oracle(mu, nu, k, num_projections, seed) -> float:
    slices = random_linear_slices(mu.dim, num_projections, np.random.default_rng(seed))
    return per_slice_distance(mu, nu, k, slices)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _cloud(rng, n, d, weighted, zero_weights=False):
    atoms = rng.normal(size=(n, d))
    if not weighted:
        return DiscreteMeasure.from_points(atoms)
    w = rng.uniform(0.05, 1.0, size=n)
    if zero_weights and n > 1:
        w[rng.integers(n)] = 0.0
    return DiscreteMeasure.from_points(atoms, w / w.sum())


def _assert_close(got, want):
    assert abs(got - want) <= REL_TOL * abs(want), (got, want)


# ---------------------------------------------------------------------------
# batched sliced distances
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1.0, 2.0, 3.5, math.inf])
@pytest.mark.parametrize("count", [1, 8, 9, 50])
def test_gswd_matches_per_slice_route(k, count):
    rng = np.random.default_rng(int(10 * count + (k if math.isfinite(k) else 7)))
    cases = [
        (_cloud(rng, 40, 3, False), _cloud(rng, 40, 3, False)),  # uniform, equal sizes
        (_cloud(rng, 40, 3, True), _cloud(rng, 40, 3, False)),  # weighted
        (_cloud(rng, 25, 3, False), _cloud(rng, 60, 3, False)),  # unequal sizes
        (_cloud(rng, 30, 3, True), _cloud(rng, 17, 3, True)),  # both weighted
    ]
    slices = random_polynomial_slices(3, count, rng)
    for mu, nu in cases:
        _assert_close(gswd(mu, nu, k, slices), per_slice_distance(mu, nu, k, slices))
        want = per_slice_powers(mu, nu, k, slices)
        np.testing.assert_allclose(ot._sliced_powers([mu, nu], [slices, slices], [(0, 1)], k)[0], want, rtol=REL_TOL, atol=0)


@pytest.mark.parametrize("k", [1.0, 2.0, 3.5, math.inf])
def test_swd_matches_per_slice_route(k):
    rng = np.random.default_rng(5)
    for mu, nu in [
        (_cloud(rng, 50, 2, False), _cloud(rng, 50, 2, False)),
        (_cloud(rng, 50, 2, True), _cloud(rng, 50, 2, False)),
        (_cloud(rng, 12, 2, False), _cloud(rng, 31, 2, True)),
    ]:
        for count in (1, 8, 9, 50):
            _assert_close(swd(mu, nu, k, count, seed=count), swd_oracle(mu, nu, k, count, count))


@pytest.mark.parametrize("k", [1.0, 2.0, math.inf])
def test_rows_with_ties_or_zero_weights_take_the_exact_route(k):
    # duplicated atoms project onto one position in every slice, and a
    # zero-weight atom is dropped; both must match the per-slice route.
    # The zero-weight atom is an outlier, so it sorts first on some
    # slices, where a walk that kept it would read its distance at k = inf
    rng = np.random.default_rng(6)
    atoms = rng.normal(size=(12, 2))
    dup = DiscreteMeasure.from_points(np.concatenate([atoms, atoms[:4]]))
    zero = _cloud(rng, 16, 2, True, zero_weights=True)
    outlier = np.where((zero.weights == 0.0)[:, None], [-40.0, 25.0], zero.atoms)
    zero = DiscreteMeasure.from_points(outlier, zero.weights)
    other = _cloud(rng, 16, 2, False)
    slices = random_polynomial_slices(2, 9, rng)
    for mu, nu in [(dup, other), (zero, other), (dup, zero), (dup, dup)]:
        want = per_slice_distance(mu, nu, k, slices)
        got = gswd(mu, nu, k, slices)
        assert got == want if want == 0.0 else abs(got - want) <= REL_TOL * want


def test_zero_weight_atom_sorted_first_is_dropped_at_k_inf():
    # on +x the zero-weight atom at -100 sorts first; left in the walk it
    # would open a zero-length segment whose distance, 100.5, the W_inf
    # maximum reads
    mu = DiscreteMeasure.from_points([-100.0, 0.0, 1.0, 2.0], [0.0, 0.3, 0.3, 0.4])
    nu = DiscreteMeasure.from_points([0.5, 1.5, 2.5])
    slices = SliceParameterSet([DefiningFunction.normalized("linear", 1, [1.0])])
    assert per_slice_distance(mu, nu, math.inf, slices) == 0.5
    assert gswd(mu, nu, math.inf, slices) == 0.5


@pytest.mark.parametrize("k, share", [(1.0, 0.5), (math.inf, 1.0)])
@pytest.mark.parametrize("delta", [0.5e-12, 1.5e-12])
def test_gswd_is_continuous_in_nearby_atoms(delta, k, share):
    # each atom of base gets a twin delta above it; half the mass moves by
    # delta, however small delta is
    base = np.random.default_rng(11).normal(size=8)
    mu = DiscreteMeasure.from_points(np.concatenate([base, base + delta]))
    nu = DiscreteMeasure.from_points(base)
    slices = SliceParameterSet.normalized("linear", 1, np.ones((9, 1)))
    rounding = 4 * np.finfo(float).eps * np.abs(base).max()
    assert abs(gswd(mu, nu, k, slices) - share * delta) <= rounding


def test_slice_set_refuses_mixed_kinds_degrees_and_dims():
    rng = np.random.default_rng(13)
    linear = DefiningFunction.normalized("linear", 3, rng.standard_normal(3))
    cubic = DefiningFunction.normalized("poly", 3, rng.standard_normal(num_monomials(3, 3)), 3)
    quintic = DefiningFunction.normalized("poly", 3, rng.standard_normal(num_monomials(5, 3)), 5)
    planar = DefiningFunction.normalized("linear", 2, rng.standard_normal(2))
    for mixed in ([linear, cubic], [cubic, quintic], [linear, planar]):
        with pytest.raises(ValueError, match="share kind, degree and dim"):
            SliceParameterSet(mixed)


def test_one_dimensional_point_masses_match():
    rng = np.random.default_rng(7)
    for n, m in [(1, 1), (1, 5), (4, 1)]:
        mu, nu = _cloud(rng, n, 1, True), _cloud(rng, m, 1, False)
        slices = random_linear_slices(1, 3, rng)
        for k in (1.0, math.inf):
            _assert_close(gswd(mu, nu, k, slices), per_slice_distance(mu, nu, k, slices))


def test_uniform_fast_path_at_large_n():
    rng = np.random.default_rng(8)
    mu, nu = _cloud(rng, 10_000, 3, False), _cloud(rng, 10_000, 3, False)
    slices = random_polynomial_slices(3, 2, rng)
    _assert_close(gswd(mu, nu, 2.0, slices), per_slice_distance(mu, nu, 2.0, slices))


@pytest.mark.parametrize("k", [2.0, math.inf])
def test_walk_splits_a_block_of_large_rows(k):
    # 3000 + 2000 breakpoints per row: the walk takes the 9 rows as 6, 2
    # (rest of the first block) and 1 (second block)
    assert ot._WALK_BREAKPOINTS // 5000 == 6
    rng = np.random.default_rng(12)
    mu, nu = _cloud(rng, 3000, 2, True), _cloud(rng, 2000, 2, False)
    slices = random_polynomial_slices(2, 9, rng)
    want = per_slice_powers(mu, nu, k, slices)
    np.testing.assert_allclose(ot._sliced_powers([mu, nu], [slices, slices], [(0, 1)], k)[0], want, rtol=REL_TOL, atol=0)


# ---------------------------------------------------------------------------
# merged-grid walk against a two-pointer walk
# ---------------------------------------------------------------------------


def two_pointer_segments(cx, cy):
    """``ot._merged_segments`` as a plain two-pointer walk, row by row.

    The walk takes the lower of the next x and y cumulative weights (x
    first on a tie).  A bound more than ``_CUM_DUST`` above the one taken
    before it (or a row's first bound) ends a segment, on which the
    atoms not yet passed are paired.
    """
    (rows, n), m = cx.shape, cy.shape[1]
    starts, seg, ix, iy = [], [], [], []
    for r in range(rows):
        x, y = cx[r].tolist(), cy[r].tolist()
        i = j = 0
        prev = end = None
        starts.append(len(seg))
        while i < n or j < m:
            take_x = j == m or (i < n and x[i] <= y[j])
            bound = x[i] if take_x else y[j]
            if prev is None or bound - prev > ot._CUM_DUST:
                seg.append(bound if end is None else bound - end)
                ix.append(r * n + i)
                iy.append(r * m + j)
                end = bound
            prev = bound
            i, j = (i + 1, j) if take_x else (i, j + 1)
    return starts, seg, ix, iy


@st.composite
def cumulative_rows(draw):
    """(cx, cy): 1-4 rows of 1-8 atoms, cumulative as the engine forms them.

    Small integer weights make cumulative sums that meet in exact
    arithmetic (1/6-steps against 1/3-steps) land a rounding error
    apart; "same" makes every y row an exact duplicate of its x row.
    """
    rows, n = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["uniform", "integer", "same"]))
    m = n if kind == "same" else draw(st.integers(1, 8))

    def weights(size):
        if kind == "uniform":
            return np.ones((rows, size))
        return np.array(draw(st.lists(st.lists(st.integers(1, 4), min_size=size, max_size=size),
                                      min_size=rows, max_size=rows)), dtype=float)

    wx = weights(n)
    wy = wx if kind == "same" else weights(m)
    return ot._cumulative(wx), ot._cumulative(wy)


def _uniform(rows, n, m):
    return ot._cumulative(np.ones((rows, n))), ot._cumulative(np.ones((rows, m)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cumulative_rows())
@example(_uniform(1, 6, 3))  # 1/6-steps meet 1/3-steps, one row
@example(_uniform(3, 6, 3))
@example(_uniform(2, 3, 3))  # exact duplicates
@example(_uniform(1, 1, 1))  # one-atom rows
@example(_uniform(4, 1, 5))
@example(_uniform(2, 7, 1))
def test_merged_segments_match_a_two_pointer_walk(rows):
    cx, cy = rows
    got = ot._merged_segments(cx, cy)
    for g, w in zip(got, two_pointer_segments(cx, cy)):
        assert g.tolist() == w
    assert [g.dtype.kind for g in got] == ["i", "f", "i", "i"]


# ---------------------------------------------------------------------------
# power-table features
# ---------------------------------------------------------------------------


def test_features_reproduce_the_defining_function():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(20, 3))
    for degree in (1, 3, 5):
        kind = "linear" if degree == 1 else "poly"
        slices = SliceParameterSet.normalized(kind, 3, rng.standard_normal((2, num_monomials(degree, 3))), degree)
        monoms = np.prod(x[:, None, :] ** monomial_exponents(degree, 3)[None, :, :], axis=2)
        np.testing.assert_allclose(slices.features(x), monoms.T, rtol=1e-14)
        for r, coefficients in enumerate(slices.coefficients):
            values = (slices.coefficients @ slices.features(x))[r]
            np.testing.assert_allclose(values, evaluate(coefficients, degree, x), rtol=1e-12, atol=1e-14)
    # a linear slice's features are the transposed points, not a copy
    points = rng.normal(size=(5, 3))
    assert np.shares_memory(SliceParameterSet.normalized("linear", 3, np.ones((1, 3))).features(points), points)


def test_stacked_features_are_each_measures_own_bitwise():
    # a stacked product reproduces a measure's own bits only where each
    # stacked item lies in memory as the measure's own features do
    rng = np.random.default_rng(14)
    points = rng.normal(size=(4, 6, 3))
    for kind, degree in (("linear", 1), ("poly", 3), ("poly", 5)):
        slices = SliceParameterSet.normalized(kind, 3, rng.standard_normal((2, num_monomials(degree, 3))), degree)
        stacked = slices.features(points)
        for g in range(4):
            own = slices.features(np.ascontiguousarray(points[g]))
            assert stacked[g].strides == own.strides
            assert stacked[g].tobytes() == own.tobytes()
        # linear features stay a view of the points
        assert np.shares_memory(stacked, points) == (kind == "linear")


def test_split_slice_sets_are_read_only_views_of_the_rows():
    whole = random_polynomial_slices(2, 24, np.random.default_rng(15))
    parts = whole.split(8)
    assert len(parts) == 3
    for i, part in enumerate(parts):
        assert (part.kind, part.degree, part.dim) == (whole.kind, whole.degree, whole.dim)
        assert np.shares_memory(part.coefficients, whole.coefficients)
        assert np.array_equal(part.coefficients, whole.coefficients[8 * i : 8 * i + 8])
        assert not part.coefficients.flags.writeable


# ---------------------------------------------------------------------------
# stacked trials: the engine's calls and verify's pseudo-metric check
# ---------------------------------------------------------------------------


def _triple_via_gswd(a, b, c, k, slices):
    return [gswd(x, y, k, slices) for x, y in ((a, b), (b, a), (a, c), (c, b), (a, a))]


def _hex(values):
    return [float(v).hex() for v in values]


def _triple_pairs(measures):
    return [(t + i, t + j) for t in range(0, len(measures), 3) for i, j in verify._TRIPLE_PAIRS]


def _spy_engine(monkeypatch) -> list:
    """Record each engine call of verify's check: its measures, slice
    sets, pairs, order and powers, until ``monkeypatch.undo()``."""
    calls = []
    engine = verify._sliced_powers

    def recording(measures, slices, pairs, k):
        powers = engine(measures, slices, pairs, k)
        calls.append((measures, slices, pairs, k, powers))
        return powers

    monkeypatch.setattr(verify, "_sliced_powers", recording)
    return calls


def _engine_call(trials, k) -> tuple:
    """One direct engine call on ``(triple, slices)`` trials, laid out as
    verify's check lays out its own: measures, slice sets, pairs, order
    and powers."""
    measures = [m for triple, _ in trials for m in triple]
    slices = [s for _, s in trials for _ in range(3)]
    pairs = _triple_pairs(measures)
    return measures, slices, pairs, k, ot._sliced_powers(measures, slices, pairs, k)


def _folded(call) -> list:
    """Each trial's five distances as the check folds an engine call's powers."""
    measures, slices, pairs, k, powers = call
    return [[ot._slice_mean(p, k) for p in powers[t : t + 5]] for t in range(0, len(pairs), 5)]


def _assert_trials_are_gswd_calls(call) -> int:
    """Each trial of an engine call: its five folded distances are five
    ``gswd`` calls bit for bit.  Returns the call's trial count."""
    measures, slices, pairs, k, powers = call
    assert pairs == _triple_pairs(measures)
    assert powers.shape == (len(pairs), slices[0].coefficients.shape[0])
    for t, got in enumerate(_folded(call)):
        a, b, c = measures[3 * t : 3 * t + 3]
        assert slices[3 * t] is slices[3 * t + 1] is slices[3 * t + 2]
        assert _hex(got) == _hex(_triple_via_gswd(a, b, c, k, slices[3 * t]))
    return len(measures) // 3


def _uniform(rng, dim=3):
    return DiscreteMeasure(rng.normal(size=(int(rng.integers(1, 6)), dim)), None)


def _check_via_gswd(trials, seed) -> tuple:
    """verify's pseudo-metric check on its own draws, trial by trial with
    five ``gswd`` calls each: every trial's distances, the worst
    violation, the smallest triangle slack and the smallest distance."""
    rng = np.random.default_rng(seed)
    distances = []
    nonneg = sym = tri = self_distance = 0.0
    slack = smallest = math.inf
    for _ in range(trials):
        a, b, c = _uniform(rng), _uniform(rng), _uniform(rng)
        dab, dba, dac, dcb, daa = _triple_via_gswd(a, b, c, 2.0, random_polynomial_slices(3, 8, rng))
        distances.append(_hex([dab, dba, dac, dcb, daa]))
        nonneg = max(nonneg, -min(dab, dac, dcb))
        sym = max(sym, abs(dab - dba))
        tri = max(tri, dab - (dac + dcb))
        self_distance = max(self_distance, abs(daa))
        slack = min(slack, dac + dcb - dab)
        smallest = min(smallest, dab, dba, dac, dcb)
    return distances, float(max(nonneg, sym, tri, self_distance)).hex(), slack, smallest


def _spied_distances(calls) -> list:
    return [_hex(d) for call in calls for d in _folded(call)]


def _mixed_sampler(r):
    # unequal sizes walk the merged grid, equal uniform sizes take the
    # fast path, and a zero weight is dropped
    n = int(r.integers(1, 6))
    w = r.uniform(0.1, 1.0, size=n)
    if r.integers(3) == 0:
        return DiscreteMeasure(r.normal(size=(n, 3)), None)
    if n > 1:
        w[r.integers(n)] = 0.0
    return DiscreteMeasure(r.normal(size=(n, 3)), w / w.sum())


def test_pseudo_metric_trial_distances_are_five_gswd_calls_bitwise(monkeypatch):
    # verify's own trials, all in one engine call
    calls = _spy_engine(monkeypatch)
    result = verify.check_pseudo_metric_suite(60, 4)
    monkeypatch.undo()
    assert len(calls) == 1
    assert _assert_trials_are_gswd_calls(calls[0]) == 60
    distances, worst, _, _ = _check_via_gswd(60, 4)
    assert _spied_distances(calls) == distances
    assert float(result.max_violation).hex() == worst


@pytest.mark.parametrize(
    "trials, seed, slack, smallest",
    [(60, 7, "3.59e-01", "2.00e-01"), (500, 0, "7.29e-02", "1.43e-01")],
    ids=["quick-seed-7", "full-seed-0"],
)
def test_pseudo_metric_margins_are_those_of_five_gswd_calls(trials, seed, slack, smallest):
    result = verify.check_pseudo_metric_suite(trials, seed)
    _, _, want_slack, want_smallest = _check_via_gswd(trials, seed)
    assert (f"{want_slack:.2e}", f"{want_smallest:.2e}") == (slack, smallest)
    assert result.detail == f"{trials} triples, triangle slack {slack}, smallest distance {smallest}"


@pytest.mark.parametrize("trials", [0, -3])
def test_pseudo_metric_check_refuses_no_trials(trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        verify.check_pseudo_metric_suite(trials)


@pytest.mark.parametrize("k", [1.0, 2.0, 3.5, math.inf])
def test_triple_distances_are_five_gswd_calls_bitwise(k):
    # the trials of one slice count share one engine call: 8 slices are
    # one block, 11 are two
    rng = np.random.default_rng(22)
    trials = {8: [], 11: []}
    for trial in range(30):
        a = _cloud(rng, int(rng.integers(1, 9)), 3, True, zero_weights=True)
        b = _cloud(rng, 5, 3, False)
        c = _cloud(rng, 5 if trial % 2 else int(rng.integers(1, 9)), 3, bool(trial % 3 == 0))
        count = 8 if trial % 2 else 11
        trials[count].append(([a, b, c], random_polynomial_slices(3, count, rng)))
    for stacked in trials.values():
        assert _assert_trials_are_gswd_calls(_engine_call(stacked, k)) == 15
    rng = np.random.default_rng(4)
    mixed = [([_mixed_sampler(rng) for _ in range(3)], random_polynomial_slices(3, 8, rng)) for _ in range(60)]
    assert _assert_trials_are_gswd_calls(_engine_call(mixed, k)) == 60


def test_pseudo_metric_trials_of_alternating_dimensions_match_gswd():
    rng = np.random.default_rng(9)
    trials = []
    for t in range(40):
        dim = 2 + t % 2
        trials.append(([_uniform(rng, dim) for _ in range(3)], random_polynomial_slices(dim, 8, rng)))
    call = _engine_call(trials, 2.0)
    assert [m.dim for m in call[0][::3]] == [2, 3] * 20
    assert _assert_trials_are_gswd_calls(call) == 40


def test_pseudo_metric_check_beyond_one_engine_call_matches_gswd(monkeypatch):
    # 300 trials go to the engine 128 at a time
    assert verify._TRIALS_PER_CALL == 128
    calls = _spy_engine(monkeypatch)
    result = verify.check_pseudo_metric_suite(300, 12)
    monkeypatch.undo()
    assert [_assert_trials_are_gswd_calls(call) for call in calls] == [128, 128, 44]
    assert result.detail.startswith("300 triples,")
    distances, worst, _, _ = _check_via_gswd(300, 12)
    assert _spied_distances(calls) == distances
    assert float(result.max_violation).hex() == worst
