import numpy as np
import pytest

from wavopt.inference import (
    LIKELIHOOD_FLOOR,
    RATIO_CAP,
    RewardOperatorFamily,
    affine_family,
    decompose_interpretation,
    log_family,
    optimality_likelihood,
    sample_actions,
)
from wavopt.measures import one_d_measure


# -- operator families ---------------------------------------------------------


def test_affine_family_endpoints_and_inverse():
    fam = affine_family(-2.0, 3.0)
    assert fam(0.0) == pytest.approx(-2.0)
    assert fam(1.0) == pytest.approx(3.0)
    p = np.linspace(0.01, 1.0, 17)
    assert np.allclose(fam.inverse(fam(p)), p, atol=1e-12)


def test_log_family_endpoints_and_inverse():
    fam = log_family(0.0, 1.0)
    assert fam(1.0) == pytest.approx(1.0)
    assert fam(1e-6) == pytest.approx(0.0, abs=1e-12)
    p = np.geomspace(1e-6, 1.0, 23)
    assert np.allclose(fam.inverse(fam(p)), p, rtol=1e-10)


def test_family_without_inverse_refuses_to_invert():
    fam = log_family(0.0, 1.0)
    blind = RewardOperatorFamily("blind", 0.0, 1.0, fn=fam.fn)
    assert blind(0.5) == fam(0.5)
    with pytest.raises(ValueError, match="no inverse"):
        blind.inverse(np.array([0.5]))


def test_optimality_likelihood_interior():
    fam = affine_family(0.0, 1.0)
    p, clipped = optimality_likelihood(fam, np.array([0.3]))
    assert p[0] == pytest.approx(0.3)
    assert list(clipped) == [False]


def test_optimality_likelihood_clipping_recorded():
    fam = affine_family(0.0, 1.0)
    p, clipped = optimality_likelihood(fam, np.array([1.7, -0.4]))
    assert p[0] == pytest.approx(1.0)
    assert p[1] == LIKELIHOOD_FLOOR  # affine inverse at r_min is exactly 0
    assert list(clipped) == [True, True]


def test_optimality_likelihood_floor():
    fam = affine_family(0.0, 1.0)
    arr, flags = optimality_likelihood(fam, np.array([0.0, 0.5, 2.0]))
    assert arr[0] == LIKELIHOOD_FLOOR
    assert arr[1] == pytest.approx(0.5)
    assert list(flags) == [False, False, True]
    # shape in, shape out: the behaviour step inverts a (3, 1 + p) table
    table, table_flags = optimality_likelihood(fam, np.array([[0.0, 0.5], [2.0, -1.0]]))
    assert table.shape == table_flags.shape == (2, 2)
    assert table[0, 0] == LIKELIHOOD_FLOOR and table_flags.tolist() == [[False, False], [True, True]]


@pytest.mark.parametrize(
    "fam",
    [affine_family(0.0, 1.0), affine_family(-2.0, 3.0), log_family(0.0, 400.0), log_family(-3.0, 5.0)],
    ids=["affine01", "affine", "log0", "log"],
)
def test_optimality_likelihood_matches_the_clip_route_bit_for_bit(fam):
    # min/max stands in for np.clip; it turns a -0.0 reward at r_min = 0
    # into +0.0, which must reach the same probability
    lo, hi = fam.r_min, fam.r_max
    rng = np.random.default_rng(7)
    edges = [-0.0, 0.0, lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), -np.inf, np.inf, np.nan]
    r = np.concatenate([rng.uniform(lo - 1.0, hi + 1.0, size=2000), edges]).reshape(-1, 7)
    p, clipped = optimality_likelihood(fam, r)
    expect = np.maximum(fam.inverse(np.clip(r, lo, hi)), LIKELIHOOD_FLOOR)
    assert p.tobytes() == expect.tobytes()
    assert clipped.tolist() == ((r < lo) | (r > hi)).tolist()


def test_greedy_invariant_across_families():
    # any strictly increasing family ranks actions as the probabilities
    # do, which makes operator-based action selection family-invariant
    probs = np.array([0.2, 0.9, 0.9, 0.1])
    for fam in (affine_family(0.0, 1.0), log_family(-3.0, 5.0)):
        assert int(np.argmax(fam(probs))) == 1  # tie -> lowest index


# -- sampling -------------------------------------------------------------------


def test_sample_actions_skips_zero_weight():
    pos = np.array([-1.0, 0.0, 1.0])
    w = np.array([0.5, 0.0, 0.5])
    draws = sample_actions(pos, w, 2000, rng=5)
    assert not np.any(draws == 0.0)
    frac = np.mean(draws == 1.0)
    assert 0.45 < frac < 0.55


def test_sample_actions_frequencies_and_determinism():
    pos = np.array([0.0, 1.0, 2.0])
    w = np.array([0.2, 0.3, 0.5])
    a = sample_actions(pos, w, 20000, rng=9)
    b = sample_actions(pos, w, 20000, rng=9)
    assert np.array_equal(a, b)
    for v, target in zip(pos, w):
        assert np.mean(a == v) == pytest.approx(target, abs=0.02)


def _one_d_measure_sampler(positions, weights, n, rng):
    """Oracle: the numpy route through ``one_d_measure`` that sample_actions replaced."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    m = one_d_measure(positions, weights)
    idx = np.searchsorted(m.cumulative(), rng.random(n), side="right")
    return m.positions[idx]


def _random_support(rng):
    size = int(rng.integers(2, 13))
    pos = rng.choice([-1.0, 1.0, 0.0, -0.0, 0.3], size=size) if rng.random() < 0.2 else rng.uniform(-1, 1, size)
    # ties: exact copies, and copies nudged by up to 1.5e-12, which
    # chain near neighbours
    for i in range(1, size):
        if rng.random() < 0.4:
            pos[i] = pos[int(rng.integers(0, i))] + 1e-12 * rng.choice([-1.5, -1.0, -0.4, 0.0, 0.4, 0.9, 1.0, 1.5])
    w = rng.exponential(size=size) * (rng.random(size) > 0.3)
    if not w.any():
        w[int(rng.integers(0, size))] = 1.0
    return pos, w / w.sum()


def test_sample_actions_matches_one_d_measure_route_bitwise():
    rng = np.random.default_rng(77)
    dropped = 0
    for trial in range(5000):
        pos, w = _random_support(rng)
        if trial % 50 == 0:
            w = None
        n = int(rng.integers(1, 6))
        seed = int(rng.integers(0, 2**32))
        new = sample_actions(pos, w, n, np.random.default_rng(seed))
        old = _one_d_measure_sampler(pos, w, n, np.random.default_rng(seed))
        assert new.dtype == old.dtype and new.shape == old.shape
        assert new.tobytes() == old.tobytes(), (pos, w)
        dropped += one_d_measure(pos, w).size < pos.size
    assert dropped > 500


def test_sample_actions_three_candidate_draws_match_bitwise():
    # the behaviour step: candidates -1, 1 and the actor's choice, which
    # may sit on (or within 1e-12 of) a fixed candidate
    rng = np.random.default_rng(78)
    for trial in range(3000):
        mu = [rng.uniform(-1, 1), 1.0, -1.0, 1.0 - 0.5e-12, -0.0][trial % 5]
        lik = rng.uniform(1e-9, 1.0, 3) * (rng.random(3) > 0.1) + 1e-300
        w = lik / lik.sum()
        cands = np.array([-1.0, 1.0, mu])
        new = sample_actions(cands, w, 1, np.random.default_rng(trial))
        old = _one_d_measure_sampler(cands, w, 1, np.random.default_rng(trial))
        assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize(
    "positions, weights",
    [
        ([], None),
        ([0.0, np.nan], None),
        ([0.0, np.inf], [0.5, 0.5]),
        ([0.0, 1.0, 2.0], [0.5, 0.5]),
        ([0.0, 1.0], [[0.5, 0.5]]),
        ([0.0, 1.0], [0.5, np.nan]),
        ([0.0, 1.0], [1.5, -0.5]),
        ([0.0, 1.0], [0.5, 0.6]),
        ([0.0, 1.0], [0.0, 0.0]),
        (np.arange(9.0), np.full(9, 0.1)),
    ],
)
def test_sample_actions_raises_the_one_d_measure_errors(positions, weights):
    with pytest.raises(ValueError) as expected:
        _one_d_measure_sampler(positions, weights, 1, 0)
    with pytest.raises(ValueError) as got:
        sample_actions(positions, weights, 1, 0)
    assert str(got.value) == str(expected.value)


# -- interpretation --------------------------------------------------------------


def test_decompose_interpretation_reconstruction():
    rng = np.random.default_rng(17)
    for _ in range(200):
        p_traj = float(rng.uniform(1e-12, 1.0))
        probs = rng.uniform(1e-12, 1.0, size=4)
        factors = decompose_interpretation(p_traj, probs)
        for f in factors:
            assert abs(f.reconstruct() - p_traj) <= 1e-15


def test_decompose_interpretation_capping():
    factors = decompose_interpretation(0.5, [0.5, 1e-9], names=["a", "b"])
    assert factors[0].ratio == pytest.approx(1.0)
    assert not factors[0].capped
    assert factors[1].capped
    assert factors[1].capped_ratio == RATIO_CAP == 1.0
    assert factors[1].ratio > RATIO_CAP  # raw ratio survives for reconstruction


def test_decompose_interpretation_simple_division():
    (factor,) = decompose_interpretation(0.3, [0.6])
    assert factor.capped_ratio == pytest.approx(0.5)
    assert not factor.capped
    (identity,) = decompose_interpretation(0.3, [1.0])
    assert identity.capped_ratio == pytest.approx(0.3)


def test_decompose_interpretation_zero_denominator():
    with pytest.raises(ValueError):
        decompose_interpretation(0.5, [0.5, 0.0])


def test_decompose_interpretation_name_mismatch():
    with pytest.raises(ValueError):
        decompose_interpretation(0.5, [0.1, 0.2], names=["only_one"])
