import math

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
)


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
    # the inverse does not clip: the reward clip alone keeps p a probability
    finite = np.isfinite(r)
    assert np.all((LIKELIHOOD_FLOOR <= p[finite]) & (p[finite] <= 1.0))


def test_greedy_invariant_across_families():
    # any strictly increasing family ranks actions as the probabilities
    # do, which makes operator-based action selection family-invariant
    probs = np.array([0.2, 0.9, 0.9, 0.1])
    for fam in (affine_family(0.0, 1.0), log_family(-3.0, 5.0)):
        assert int(np.argmax(fam(probs))) == 1  # tie -> lowest index


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


@pytest.mark.parametrize("probs", [0.5, [], [[0.5]]], ids=["scalar", "empty", "2-D"])
def test_decompose_interpretation_needs_a_non_empty_factor_list(probs):
    # a scalar once raised TypeError (iteration over a 0-d array), an
    # empty list returned no factors, and a 2-D list read its rows
    with pytest.raises(ValueError, match="factor probabilities must be a non-empty 1-D list"):
        decompose_interpretation(0.5, probs)


@pytest.mark.parametrize(
    "p_traj, probs, message",
    [
        (0.5, [math.nan, 2.0], "probabilities must be finite"),
        (math.inf, [0.5], "probabilities must be finite"),
        (2.0, [-math.inf], "probabilities must be finite"),
        (2.0, [1.5], "p_trajectory 2.0 is outside [0, 1]"),
        (-0.5, [0.5], "p_trajectory -0.5 is outside [0, 1]"),
        (0.5, [0.5, float(np.nextafter(1.0, 2.0))], "factor probabilities must lie in (0, 1]"),
        (0.5, [-0.0], "factor probabilities must lie in (0, 1]"),
    ],
)
def test_decompose_interpretation_names_the_first_broken_rule(p_traj, probs, message):
    with pytest.raises(ValueError) as info:
        decompose_interpretation(p_traj, probs)
    assert str(info.value) == message


def test_decompose_interpretation_accepts_the_range_edges():
    factors = decompose_interpretation(0.0, [1.0, 5e-324])
    assert [f.ratio for f in factors] == [0.0, 0.0]
    assert decompose_interpretation(1.0, [1.0])[0].ratio == 1.0
