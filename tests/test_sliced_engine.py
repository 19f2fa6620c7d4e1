"""Batched sliced-transport engine against the per-slice route it replaced.

Two test-only oracles live here: the sequential merge loop that
``one_d_measure`` used to run, and the per-slice route
``wasserstein_1d(project(mu, f, o), project(nu, f, o), k)`` that ``gswd``
and ``swd`` used to take slice by slice.  The vectorised canonicalisation
must match the loop byte for byte; the batched distances must match the
per-slice route within 1e-10 relative.  (The uniform fast path sums
|sort x - sort y|^k / n where the per-slice route sums segment lengths
that are differences of a cumulative sum; at n = 10^4 the two differ by
about 1e-11 relative, so 1e-12 would be too tight.)
"""

import math

import numpy as np
import pytest

from wavopt import ot
from wavopt.measures import (
    MERGE_TOL,
    DefiningFunction,
    DiscreteMeasure,
    OneDMeasure,
    SliceParameterSet,
    _as_weights,
    num_monomials,
    one_d_measure,
    project,
)
from wavopt.ot import gswd, random_linear_slices, random_polynomial_slices, swd, wasserstein_1d

REL_TOL = 1e-10


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def merge_loop_one_d(positions, weights=None) -> OneDMeasure:
    """Sort, then merge atom by atom onto the first atom of each run."""
    pos = np.asarray(positions, dtype=float).ravel()
    w = _as_weights(weights, pos.size)
    order = np.argsort(pos, kind="stable")
    pos, w = pos[order], w[order]
    keep_pos = [pos[0]]
    keep_w = [w[0]]
    for p, wt in zip(pos[1:], w[1:]):
        if p - keep_pos[-1] <= MERGE_TOL:
            keep_w[-1] += wt
        else:
            keep_pos.append(p)
            keep_w.append(wt)
    out_p = np.asarray(keep_pos)
    out_w = np.asarray(keep_w)
    mask = out_w > 0.0
    out_p, out_w = out_p[mask], out_w[mask]
    return OneDMeasure(out_p, out_w / out_w.sum())


def per_slice_powers(mu, nu, k, slices: SliceParameterSet) -> np.ndarray:
    """W_k^k (W_inf) per slice, with one projection and one exact 1-D transport each."""
    powers = []
    for f, offset in slices:
        w = wasserstein_1d(project(mu, f, offset), project(nu, f, offset), k)
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


def _tie_heavy(rng, n):
    """Positions drawn from a few values, each nudged by multiples of ~MERGE_TOL.

    Nudges of 0.4-1.3 MERGE_TOL make runs that merge, chains wider than
    the tolerance that split by distance to their first atom, and exact
    duplicates; about a quarter of the weights are zero.
    """
    base = rng.choice(rng.normal(size=max(1, n // 3)), size=n)
    nudge = rng.integers(0, 4, size=n) * rng.choice([0.4, 0.7, 1.0, 1.3]) * MERGE_TOL
    pos = base + nudge
    w = rng.uniform(0.0, 1.0, size=n) * (rng.random(n) > 0.25)
    if not w.any():
        w[rng.integers(n)] = 1.0
    return pos, w / w.sum()


def _cloud(rng, n, d, weighted, zero_weights=False):
    atoms = rng.normal(size=(n, d))
    if not weighted:
        return DiscreteMeasure.from_points(atoms)
    w = rng.uniform(0.05, 1.0, size=n)
    if zero_weights and n > 1:
        w[rng.integers(n)] = 0.0
    return DiscreteMeasure.from_points(atoms, w / w.sum())


def _mixed_slices(rng, dim, count):
    fns = []
    for i in range(count):
        if i % 3 == 0:
            fns.append(DefiningFunction.normalized("linear", dim, rng.standard_normal(dim)))
        else:
            degree = 3 if i % 3 == 1 else 5
            fns.append(DefiningFunction.normalized("poly", dim, rng.standard_normal(num_monomials(degree, dim)), degree))
    return SliceParameterSet(fns, offsets=rng.normal(size=count))


def _assert_close(got, want):
    assert abs(got - want) <= REL_TOL * abs(want), (got, want)


# ---------------------------------------------------------------------------
# one_d_measure
# ---------------------------------------------------------------------------


def test_one_d_measure_matches_merge_loop_byte_for_byte():
    rng = np.random.default_rng(0)
    merged = 0
    for trial in range(600):
        n = 1 + trial % 50
        pos, w = _tie_heavy(rng, n)
        weights = None if trial % 5 == 0 else w
        got, want = one_d_measure(pos, weights), merge_loop_one_d(pos, weights)
        assert got.positions.tobytes() == want.positions.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()
        merged += got.size < n
    assert merged > 400  # the inputs really are tie-heavy


def test_one_d_measure_splits_a_wide_chain_at_its_first_atom():
    # gaps of 0.6 tol chain all four atoms, but the third is 1.2 tol from
    # the first, so it starts a second run that takes the fourth
    tol = MERGE_TOL
    m = one_d_measure([0.0, 0.6 * tol, 1.2 * tol, 1.8 * tol], [0.1, 0.2, 0.3, 0.4])
    np.testing.assert_array_equal(m.positions, [0.0, 1.2 * tol])
    np.testing.assert_allclose(m.weights, [0.3, 0.7], rtol=1e-15)


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
    poly = random_polynomial_slices(3, count, rng)
    with_offsets = SliceParameterSet(poly.functions, offsets=rng.normal(size=count))
    for mu, nu in cases:
        for slices in (poly, with_offsets, _mixed_slices(rng, 3, count)):
            _assert_close(gswd(mu, nu, k, slices), per_slice_distance(mu, nu, k, slices))
            want = per_slice_powers(mu, nu, k, slices)
            np.testing.assert_allclose(ot._sliced_powers(mu, nu, k, slices), want, rtol=REL_TOL, atol=0)


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
    # zero weight is dropped by one_d_measure; both must be exact
    rng = np.random.default_rng(6)
    atoms = rng.normal(size=(12, 2))
    dup = DiscreteMeasure.from_points(np.concatenate([atoms, atoms[:4]]))
    zero = _cloud(rng, 16, 2, True, zero_weights=True)
    other = _cloud(rng, 16, 2, False)
    slices = random_polynomial_slices(2, 9, rng)
    for mu, nu in [(dup, other), (zero, other), (dup, zero), (dup, dup)]:
        want = per_slice_distance(mu, nu, k, slices)
        got = gswd(mu, nu, k, slices)
        assert got == want if want == 0.0 else abs(got - want) <= REL_TOL * want


@pytest.mark.parametrize("k", [1.0, math.inf])
def test_near_ties_merge_as_in_one_d_measure(k):
    # atoms 0.5 MERGE_TOL apart merge onto their first (lower) atom, so
    # along +x mu's canonical projection equals nu's and the distance is
    # exactly 0; pairing the unmerged atoms instead gives about 1e-13
    rng = np.random.default_rng(11)
    base = rng.normal(size=8)
    mu = DiscreteMeasure.from_points(np.concatenate([base, base + 0.5 * MERGE_TOL]))
    nu = DiscreteMeasure.from_points(base)
    slices = SliceParameterSet([DefiningFunction.linear([1.0])] * 9)
    assert per_slice_distance(mu, nu, k, slices) == 0.0
    assert gswd(mu, nu, k, slices) == 0.0


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
    np.testing.assert_allclose(ot._sliced_powers(mu, nu, k, slices), want, rtol=REL_TOL, atol=0)


# ---------------------------------------------------------------------------
# power-table features
# ---------------------------------------------------------------------------


def test_features_reproduce_the_defining_function():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(20, 3))
    for degree in (1, 3, 5):
        kind = "linear" if degree == 1 else "poly"
        f = DefiningFunction.normalized(kind, 3, rng.standard_normal(num_monomials(degree, 3)), degree)
        exps = np.eye(3, dtype=int) if degree == 1 else f._exponents
        monoms = np.prod(x[:, None, :] ** exps[None, :, :], axis=2)
        np.testing.assert_allclose(f.features(x), monoms.T, rtol=1e-14)
        np.testing.assert_allclose(f.evaluate(x), monoms @ f.coefficients, rtol=1e-12, atol=1e-14)


def test_degree_five_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    f = DefiningFunction.normalized("poly", 3, rng.standard_normal(num_monomials(5, 3)), degree=5)
    x = rng.uniform(0.5, 1.5, size=(6, 3))
    g = f.gradient(x)
    eps = 1e-6
    for j in range(3):
        xp, xm = x.copy(), x.copy()
        xp[:, j] += eps
        xm[:, j] -= eps
        np.testing.assert_allclose(g[:, j], (f.evaluate(xp) - f.evaluate(xm)) / (2 * eps), rtol=1e-6, atol=1e-8)
