"""Optimal-transport layer: exact 1-D distances vs. brute-force couplings.

Frozen expected values in this file were computed with the brute-force
coupling oracle (then permutation enumeration / transportation LP)
before the quantile-merge implementation existed; the two routes stay
independent.  The oracle now solves exactly uniform pairs as assignment
problems, W_inf by a bottleneck search and the rest as LPs; the
permutation enumeration survives here as the k = inf reference.
"""

import itertools
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavopt.measures import (
    DefiningFunction,
    DiscreteMeasure,
    SliceParameterSet,
    monomial_exponents,
    num_monomials,
    one_d_measure,
)
from wavopt.ot import (
    gswd,
    random_linear_slices,
    random_polynomial_slices,
    swd,
    wasserstein_1d,
    wasserstein_oracles,
)
from wavopt import measures, ot
from slice_oracle import evaluate, project


def _measure_1d(positions, weights=None):
    return one_d_measure(np.asarray(positions, dtype=float), weights)


def wasserstein_oracle(mu, nu, k):
    """The brute-force oracle on one pair."""
    return wasserstein_oracles([(mu, nu, k)])[0]


def _random_discrete(rng, n, d, weighted=False):
    atoms = rng.uniform(-2.0, 2.0, size=(n, d))
    if weighted:
        w = rng.uniform(0.05, 1.0, size=n)
        w = w / w.sum()
    else:
        w = None
    return DiscreteMeasure.from_points(atoms, w)


def _nudged(n, eps, rng=None):
    """Weights 1/n +- eps (alternating, or random signs with ``rng``), renormalized."""
    signs = (-1.0) ** np.arange(n) if rng is None else rng.choice([-1.0, 1.0], size=n)
    w = np.full(n, 1.0 / n) + eps * signs
    return w / w.sum()


def _permutation_bottleneck(dist):
    """W_inf of equal-size uniform measures by enumerating every matching:
    the smallest largest matched distance."""
    n = dist.shape[0]
    perms = np.asarray(list(itertools.permutations(range(n))))
    return float(dist[np.arange(n), perms].max(axis=1).min())


def _spy_routes(monkeypatch):
    """Record which oracle route each pair takes, in call order."""
    routes = []

    def spy(name, route, pairs=lambda args: 1):
        solve = getattr(ot, name)

        def counted(*args):
            routes.extend([route] * pairs(args))
            return solve(*args)

        monkeypatch.setattr(ot, name, counted)

    spy("_oracle_assignment", "assignment")
    spy("_oracle_bottleneck", "bottleneck")
    spy("_oracle_lps", "lp", lambda args: len(args[0]))
    return routes


def _weights_by_condition(weights, n):
    """``measures._as_weights`` as it read before its one-pass acceptance:
    each condition checked in turn."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights must have shape ({n},), got {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if (w < 0.0).any():
        raise ValueError("weights must be non-negative")
    if abs(w.sum() - 1.0) > measures.WEIGHT_SUM_TOL:
        raise ValueError(f"weights must sum to 1 within {measures.WEIGHT_SUM_TOL}, got {float(w.sum())!r}")
    return w


def _one_vector(weights, n):
    """``measures._as_weights`` on one vector of n weights."""
    return measures._as_weights(weights, (n,), "weights")


def _weight_outcome(check, w):
    """The bytes of an accepted vector, or the message of its rejection."""
    try:
        return "accepted", check(w, w.size).tobytes()
    except ValueError as exc:
        return "refused", str(exc)


# entries at the edges of the weight checks
_ODD_WEIGHTS = [math.nan, math.inf, -math.inf, -0.0, 0.0, -1e-300, 1e-300, -5e-324, 5e-324]
# sums of 1 +- 1e-12, each nudged by one ulp either way; a sum t is
# split as (t - 0.25) + 0.25, both exact
_EDGE_SUMS = [
    float(np.nextafter(t, t + step)) if step else t
    for t in (1.0 + 1e-12, 1.0 - 1e-12)
    for step in (-1.0, 0.0, 1.0)
]


@st.composite
def _weight_vectors(draw):
    """Normalised vectors with odd entries mixed in, and vectors whose sum
    sits at the edge of the sum tolerance, with or without odd entries."""
    odd = st.lists(st.sampled_from(_ODD_WEIGHTS), max_size=3)
    if draw(st.booleans()):
        raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5)))
        body = list(raw / raw.sum()) if raw.sum() > 0.0 else list(raw)
    else:
        t = draw(st.sampled_from(_EDGE_SUMS))
        body = [t - 0.25, 0.25]
    w = body + draw(odd)
    return np.array(draw(st.permutations(w)))


class TestWeightCheck:
    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(_weight_vectors())
    def test_one_pass_acceptance_keeps_every_verdict_and_message(self, w):
        assert _weight_outcome(_one_vector, w) == _weight_outcome(_weights_by_condition, w)

    @pytest.mark.parametrize("pad", [[], [-0.0], [-1e-300], [math.nan], [math.inf], [-math.inf]])
    @pytest.mark.parametrize("t", _EDGE_SUMS)
    def test_edge_sums(self, t, pad):
        w = np.array([t - 0.25, 0.25] + pad)
        assert w[:2].sum() == t
        assert _weight_outcome(_one_vector, w) == _weight_outcome(_weights_by_condition, w)


# ---------------------------------------------------------------------------
# measure canonicalization and projection
# ---------------------------------------------------------------------------


class TestMeasures:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DiscreteMeasure.from_points([[0.0], [1.0]], [0.4, 0.4])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure.from_points([[0.0], [1.0]], [-0.2, 1.2])

    @pytest.mark.parametrize("points", [[], np.empty((0, 2))], ids=["list", "array"])
    def test_empty_points_rejected(self, points):
        with pytest.raises(ValueError, match="atoms must be a non-empty"):
            DiscreteMeasure.from_points(points)

    def test_canonicalization_sorts_and_merges(self):
        # atoms at one position stay apart yet transport as their merged
        # sum; an atom 1e-13 away keeps its own position
        m = _measure_1d([3.0, 1.0, 1.0 + 1e-13, 2.0, 1.0], [0.2, 0.2, 0.2, 0.2, 0.2])
        npt.assert_array_equal(m.positions, [1.0, 1.0, 1.0 + 1e-13, 2.0, 3.0])
        merged = _measure_1d([1.0, 1.0 + 1e-13, 2.0, 3.0], [0.4, 0.2, 0.2, 0.2])
        for k in (1.0, 2.0, math.inf):
            assert wasserstein_1d(m, merged, k) == 0.0

    def test_zero_weight_atoms_dropped(self):
        m = _measure_1d([0.0, 5.0, 1.0], [0.5, 0.0, 0.5])
        npt.assert_allclose(m.positions, [0.0, 1.0])

    def test_quantile_is_left_continuous_inverse(self):
        m = _measure_1d([0.0, 1.0], [0.5, 0.5])
        npt.assert_allclose(m.quantile([0.25, 0.5, 0.75, 1.0]), [0.0, 0.0, 1.0, 1.0])

    @pytest.mark.parametrize("u", [math.nan, [0.5, math.nan]], ids=["scalar", "array"])
    def test_quantile_refuses_a_nan_level(self, u):
        # a nan level passed both range comparisons, and searchsorted put
        # it past the last atom: IndexError
        with pytest.raises(ValueError, match=r"quantile levels must lie in \(0, 1\]"):
            _measure_1d([0.0, 1.0], [0.5, 0.5]).quantile(u)

    @pytest.mark.parametrize(
        "route",
        [lambda m: swd(m, m), lambda m: wasserstein_oracles([(m, m, 1.0)])],
        ids=["swd", "oracle"],
    )
    def test_zero_width_atoms_rejected(self, route):
        # measures on R^0 once reached swd (IndexError in the slice
        # normaliser) and the oracle (distance 0.0)
        with pytest.raises(ValueError, match="at least one coordinate"):
            route(DiscreteMeasure(np.zeros((2, 0)), None))

    def test_projection_preserves_weights(self):
        rng = np.random.default_rng(3)
        mu = _random_discrete(rng, 6, 3, weighted=True)
        f = DefiningFunction.normalized("linear", 3, rng.standard_normal(3))
        p = project(mu, f.coefficients, f.degree)
        assert abs(p.weights.sum() - 1.0) < 1e-12
        assert p.positions.size <= mu.size

    def test_projection_positively_homogeneous(self):
        # beta(c x) = c^m beta(x) for c > 0, so projected supports scale by c^m.
        rng = np.random.default_rng(4)
        atoms = rng.standard_normal((5, 2))
        f = DefiningFunction.normalized("poly", 2, rng.standard_normal(num_monomials(3, 2)), degree=3)
        base = project(DiscreteMeasure.from_points(atoms), f.coefficients, f.degree)
        scaled = project(DiscreteMeasure.from_points(2.0 * atoms), f.coefficients, f.degree)
        npt.assert_allclose(scaled.positions, 8.0 * base.positions, rtol=1e-12)

    def test_polynomial_slice_is_odd(self):
        rng = np.random.default_rng(5)
        f = DefiningFunction.normalized("poly", 3, rng.standard_normal(num_monomials(3, 3)), degree=3)
        x = rng.standard_normal((7, 3))
        npt.assert_allclose(evaluate(f.coefficients, 3, -x), -evaluate(f.coefficients, 3, x), atol=1e-12)

    def test_even_degree_rejected(self):
        with pytest.raises(ValueError):
            DefiningFunction("poly", 2, np.ones(num_monomials(2, 2)) / math.sqrt(3), degree=2)

    def test_non_unit_coefficients_rejected(self):
        with pytest.raises(ValueError):
            DefiningFunction("linear", 2, [1.0, 1.0])

    def test_degenerate_coefficients_fall_back_to_basis_vector(self):
        f = DefiningFunction.normalized("linear", 4, np.zeros(4))
        npt.assert_allclose(f.coefficients, [1.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "raw", [[1e200, 1e200, 1e200], [-1e300, 2e299, 0.0], [1.7e308, -1.7e308, 1e-300]]
    )
    def test_overflowing_squared_norm_is_rescaled_first(self, raw):
        # the squared norm of these finite rows overflows; it once read
        # inf, made the unit row nan behind two RuntimeWarnings, and
        # raised "coefficients must be finite"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = DefiningFunction.normalized("linear", 3, raw)
            slices = SliceParameterSet.normalized("linear", 3, [raw])
        c = np.asarray(raw) / np.abs(raw).max()
        npt.assert_allclose(f.coefficients, c / math.hypot(*c), rtol=1e-15, atol=1e-300)
        assert f.coefficients.tobytes() == slices.coefficients[0].tobytes()

    @pytest.mark.parametrize("kind, degree, width", [("linear", 1, 3), ("poly", 3, 10), ("poly", 5, 21)])
    def test_slice_set_rows_are_the_normalized_defining_functions_bitwise(self, kind, degree, width):
        def unit_row(c):
            # the normaliser as DefiningFunction.normalized wrote it out
            norm = float(np.linalg.norm(c))
            if not np.all(np.isfinite(c)) or norm < 1e-8:
                c = np.zeros(c.shape)
                c[0] = 1.0
            else:
                c = c / norm
            return c / float(np.linalg.norm(c))

        rng = np.random.default_rng(width)
        raw = rng.standard_normal((40, width)) * 10.0 ** rng.integers(-7, 8, size=(40, 1))
        raw[3] = 0.0
        raw[5] = 1e-9  # norm below 1e-8: degenerate
        raw[7, -1] = np.nan
        raw[9, 0] = -np.inf
        want = np.array([unit_row(row) for row in raw])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slices = SliceParameterSet.normalized(kind, 3, raw, degree)
            functions = [DefiningFunction.normalized(kind, 3, row, degree) for row in raw]
        assert slices.coefficients.tobytes() == want.tobytes()
        assert SliceParameterSet(functions).coefficients.tobytes() == want.tobytes()
        assert (slices.kind, slices.dim, slices.degree) == (kind, 3, degree)
        assert not slices.coefficients.flags.writeable
        # the random sets draw their raw rows as one (count, width) matrix
        draw = random_linear_slices if kind == "linear" else random_polynomial_slices
        args = () if kind == "linear" else (degree,)
        drawn = draw(3, 12, np.random.default_rng(9), *args)
        rows = np.random.default_rng(9).standard_normal((12, width))
        assert drawn.coefficients.tobytes() == np.array([unit_row(row) for row in rows]).tobytes()

    def test_batched_row_norms_are_the_one_row_norms_bitwise(self):
        rng = np.random.default_rng(21)
        for width in list(range(1, 57)) + [120]:
            raw = rng.standard_normal((200, width)) * 10.0 ** rng.integers(-7, 8, size=(200, 1))
            want = np.array([np.linalg.norm(row) for row in raw])
            assert measures._row_norms(raw).tobytes() == want.tobytes(), width
            # a strided matrix gives the rows of its contiguous copy
            wide = np.repeat(raw, 2, axis=1)[:, ::2]
            unit = measures._unit_rows(raw)
            assert measures._unit_rows(wide).tobytes() == unit.tobytes(), width

    def test_monomial_count(self):
        assert monomial_exponents(3, 4).shape == (num_monomials(3, 4), 4) == (20, 4)

    def test_monomial_exponents_are_shared_and_read_only(self):
        exps = monomial_exponents(3, 2)
        assert monomial_exponents(3, 2) is exps
        npt.assert_array_equal(exps, [[3, 0], [2, 1], [1, 2], [0, 3]])
        with pytest.raises(ValueError):
            exps[0, 0] = 1


# ---------------------------------------------------------------------------
# exact 1-D Wasserstein
# ---------------------------------------------------------------------------


class TestWasserstein1d:
    def test_two_atom_uniform_frozen(self):
        # oracle-frozen: monotone matching moves 0 -> 0.25 and 1 -> 0.75
        mu = _measure_1d([0.0, 1.0])
        nu = _measure_1d([0.25, 0.75])
        assert wasserstein_1d(mu, nu, 1) == pytest.approx(0.25, abs=1e-15)
        assert wasserstein_1d(mu, nu, 2) == pytest.approx(0.25, abs=1e-15)
        assert wasserstein_1d(mu, nu, math.inf) == pytest.approx(0.25, abs=1e-15)

    def test_weighted_frozen(self):
        # oracle-frozen: only the middle 0.4 of mass moves distance 1
        mu = _measure_1d([0.0, 1.0], [0.3, 0.7])
        nu = _measure_1d([0.0, 1.0], [0.7, 0.3])
        assert wasserstein_1d(mu, nu, 1) == pytest.approx(0.4, abs=1e-15)
        assert wasserstein_1d(mu, nu, 2) == pytest.approx(math.sqrt(0.4), rel=1e-15)
        assert wasserstein_1d(mu, nu, math.inf) == pytest.approx(1.0, abs=1e-15)

    def test_identical_measures_zero(self):
        rng = np.random.default_rng(7)
        m = _measure_1d(rng.standard_normal(6))
        for k in (1, 2, 3.5, math.inf):
            assert wasserstein_1d(m, m, k) == 0.0

    def test_dirac_pair_all_orders(self):
        a, b = _measure_1d([1.25]), _measure_1d([-0.75])
        for k in (1, 2, 7, math.inf):
            assert wasserstein_1d(a, b, k) == pytest.approx(2.0, rel=1e-15)

    def test_translation_shifts_by_constant(self):
        rng = np.random.default_rng(8)
        pos = rng.standard_normal(5)
        w = rng.uniform(0.1, 1.0, 5)
        w /= w.sum()
        mu = _measure_1d(pos, w)
        nu = _measure_1d(pos + 0.8, w)
        for k in (1, 2, math.inf):
            assert wasserstein_1d(mu, nu, k) == pytest.approx(0.8, rel=1e-12)

    def test_order_below_one_rejected(self):
        m = _measure_1d([0.0])
        with pytest.raises(ValueError):
            wasserstein_1d(m, m, 0.5)

    def test_large_order_is_rescaled_not_flushed(self):
        # 0.1^400 underflows and 10^400 overflows; W_k is recomputed on
        # d / max(d) and scaled back
        origin = _measure_1d([0.0])
        assert wasserstein_1d(origin, _measure_1d([0.1]), 400) == 0.1
        assert wasserstein_1d(origin, _measure_1d([10.0]), 400) == 10.0
        mu = _measure_1d([0.0, 0.01], [0.3, 0.7])
        nu = _measure_1d([0.0, 0.01], [0.7, 0.3])
        assert wasserstein_1d(mu, nu, 400) == pytest.approx(0.01 * 0.4 ** (1 / 400), rel=1e-15)

    @pytest.mark.parametrize("k", [1, 2, math.inf])
    def test_overflowing_paired_distance_is_refused_not_nan(self, k):
        # 1e308 - (-1e308) overflows float64, which once read nan (k = 1,
        # 2) or inf (k = inf) behind RuntimeWarnings
        mu, nu = _measure_1d([1e308]), _measure_1d([-1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"k = {float(k)!r}"):
                wasserstein_1d(mu, nu, k)

    def test_in_range_orders_keep_their_bits(self):
        # values of the route before large orders were rescaled
        mu = _measure_1d([-0.3, 0.2, 0.9, 1.4], [0.1, 0.4, 0.2, 0.3])
        nu = _measure_1d([-1.0, 0.5, 2.0], [0.5, 0.25, 0.25])
        for k, want in [
            (1.0, "0x1.a666666666667p-1"),
            (2.0, "0x1.c65adc84ae903p-1"),
            (7.0, "0x1.0e8e85e858494p+0"),
            (40.0, "0x1.2c3e2db95cdefp+0"),
            (math.inf, "0x1.3333333333333p+0"),
        ]:
            assert wasserstein_1d(mu, nu, k) == float.fromhex(want)

    def test_monotone_in_order(self):
        # power means are non-decreasing in k; W_inf dominates
        rng = np.random.default_rng(9)
        mu = _measure_1d(rng.standard_normal(6))
        nu = _measure_1d(rng.standard_normal(4), rng.dirichlet(np.ones(4)))
        vals = [wasserstein_1d(mu, nu, k) for k in (1, 1.5, 2, 4, 8)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= wasserstein_1d(mu, nu, math.inf) + 1e-12


class TestOracleAgreement:
    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(10)
        worst = 0.0
        for trial in range(150):
            weighted = trial % 2 == 1
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            mu = _random_discrete(rng, n, 1, weighted=weighted)
            nu = _random_discrete(rng, m, 1, weighted=weighted)
            k = [1, 2, math.inf][trial % 3]
            fast = wasserstein_1d(
                one_d_measure(mu.atoms[:, 0], mu.weights),
                one_d_measure(nu.atoms[:, 0], nu.weights),
                k,
            )
            slow = wasserstein_oracle(mu, nu, k)
            worst = max(worst, abs(fast - slow))
        assert worst < 1e-9

    def test_oracle_routes_agree_on_uniform_inputs(self, monkeypatch):
        routes = _spy_routes(monkeypatch)
        rng = np.random.default_rng(11)
        for _ in range(25):
            n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            mu = _random_discrete(rng, n, 2)
            nu = _random_discrete(rng, m, 2)
            # weights 1e-9 from uniform are another measure: the LP's
            mu_w = DiscreteMeasure(mu.atoms, _nudged(n, 1e-9))
            nu_w = DiscreteMeasure(nu.atoms, _nudged(m, 1e-9))
            for k in (1, 2):
                routes.clear()
                exact = wasserstein_oracle(mu, nu, k)
                assert routes == ["assignment"]
                near = wasserstein_oracle(mu_w, nu_w, k)
                assert routes == ["assignment", "lp"]
                assert exact == pytest.approx(near, abs=1e-6)
            # W_inf is not continuous in the weights: moving 1e-9 of mass
            # can forbid a pairing the bottleneck needs (the second instance
            # here reads 1.69 at uniform weights and 1.80 nudged), so k =
            # inf is checked against enumeration on exactly uniform pairs
            nu_n = _random_discrete(rng, n, 2)
            routes.clear()
            bottleneck = wasserstein_oracle(mu, nu_n, math.inf)
            assert routes == ["bottleneck"]
            assert bottleneck == _permutation_bottleneck(ot._pairwise_distances(mu.atoms, nu_n.atoms))

    def test_near_uniform_weights_are_not_taken_as_uniform(self):
        # weights 1e-7 from uniform once passed a relative closeness test
        # and took the uniform route, which read W_k of the uniform
        # measures: up to 5.1e-7 off at k = 1, 1.2e-6 at k = 2 and 2.01
        # at k = inf on these pairs
        rng = np.random.default_rng(3)
        problems, fast = [], []
        for trial in range(200):
            k = [1.0, 2.0, math.inf][trial % 3]
            pair = []
            for _ in range(2):
                n = int(rng.integers(2, 9))
                pair.append((rng.normal(scale=2.0, size=n), _nudged(n, 1e-7, rng)))
            (pa, wa), (pb, wb) = pair
            fast.append(wasserstein_1d(one_d_measure(pa, wa), one_d_measure(pb, wb), k))
            problems.append((DiscreteMeasure(pa[:, None], wa), DiscreteMeasure(pb[:, None], wb), k))
        for f, slow in zip(fast, wasserstein_oracles(problems)):
            assert f == pytest.approx(slow, abs=1e-9)

    @pytest.mark.parametrize("k", [1.0, 2.0, 3.5])
    def test_assignment_route_matches_the_lp(self, monkeypatch, k):
        # unequal uniform sizes and 9-10 atoms, which no permutation
        # enumeration reached: up to lcm(9, 10) = 90 copies a side
        sizes = [(1, 10), (2, 3), (4, 6), (5, 7), (9, 9), (9, 10), (10, 10), (10, 4), (8, 9), (6, 10)]
        rng = np.random.default_rng(16)
        problems = [(_random_discrete(rng, n, 2), _random_discrete(rng, m, 2), k) for n, m in sizes * 3]
        routes = _spy_routes(monkeypatch)
        values = wasserstein_oracles(problems)
        assert routes == ["assignment"] * len(problems)
        lps = [(ot._pairwise_distances(mu.atoms, nu.atoms), mu.weights, nu.weights, k) for mu, nu, _ in problems]
        npt.assert_allclose(values, ot._oracle_lps(lps), rtol=0.0, atol=1e-9)

    def test_oracle_size_cap(self):
        rng = np.random.default_rng(12)
        big = _random_discrete(rng, 11, 1)
        small = _random_discrete(rng, 3, 1)
        with pytest.raises(ValueError):
            wasserstein_oracle(big, small, 1)

    def test_cumulative_tie_does_not_cross_pair(self):
        # 6 x (1/6) meets 3 x (1/3): the cumulative sums tie at 1/3 and
        # 2/3 in exact arithmetic but land a rounding error apart, and a
        # sliver segment there used to pair atoms across the tie.  The
        # W_inf supremum counts any positive-width segment, so the result
        # jumped by the cross-pair gap.  Frozen instance from the oracle
        # sweep that caught it.
        pa = np.array([3.29881229, -0.865247, -1.23767942, -2.4253887, -1.92410187, -0.49272574])
        pb = np.array([3.99804134, -0.41235243, -2.0630326])
        mu = one_d_measure(pa, np.full(6, 1.0 / 6.0))
        nu = one_d_measure(pb, np.full(3, 1.0 / 3.0))
        fast = wasserstein_1d(mu, nu, math.inf)
        slow = wasserstein_oracle(
            DiscreteMeasure(pa[:, None], np.full(6, 1.0 / 6.0)),
            DiscreteMeasure(pb[:, None], np.full(3, 1.0 / 3.0)),
            math.inf,
        )
        assert fast == pytest.approx(slow, abs=1e-12)
        # the monotone max pair is |-0.493 - 3.998|, not |-0.865 - 3.998|
        assert fast == pytest.approx(4.49076708, abs=1e-8)

    def test_equal_weight_tie_family_matches_oracle_at_inf(self):
        # atom counts with many shared cumulative breakpoints (2|4|8, 3|6)
        # exercise the tie handling on both sides
        rng = np.random.default_rng(13)
        for na, nb in [(2, 4), (4, 8), (3, 6), (6, 8), (4, 6), (2, 8)]:
            for _ in range(25):
                mu = _random_discrete(rng, na, 1)
                nu = _random_discrete(rng, nb, 1)
                fast = wasserstein_1d(
                    one_d_measure(mu.atoms[:, 0], mu.weights),
                    one_d_measure(nu.atoms[:, 0], nu.weights),
                    math.inf,
                )
                assert fast == pytest.approx(wasserstein_oracle(mu, nu, math.inf), abs=1e-9)


    # (weighted, k) specs cycled over a batch, and the HiGHS solves it needs:
    # 200 LP triples span two solves; uniform pairs and k = inf need none
    @pytest.mark.parametrize(
        "count, specs, solves",
        [
            (200, [(True, 1.0), (True, 2.0)], 2),
            (60, [(False, 1.0), (False, 2.0), (False, math.inf), (True, math.inf)], 0),
            (1, [(True, 2.0)], 1),
        ],
    )
    def test_batched_oracle_matches_exact_and_single_pair(self, monkeypatch, count, specs, solves):
        rng = np.random.default_rng(14)
        problems = []
        for i in range(count):
            weighted, k = specs[i % len(specs)]
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9)) if weighted else n
            problems.append((_random_discrete(rng, n, 1, weighted), _random_discrete(rng, m, 1, weighted), k))
        calls = []
        solve = ot._oracle_lps

        def counted(blocks):
            calls.append(len(blocks))
            return solve(blocks)

        monkeypatch.setattr(ot, "_oracle_lps", counted)
        batched = wasserstein_oracles(problems)
        assert len(calls) == solves and all(c <= ot._LP_BATCH for c in calls)
        assert len(batched) == count
        for (mu, nu, k), value in zip(problems, batched):
            exact = wasserstein_1d(
                one_d_measure(mu.atoms[:, 0], mu.weights), one_d_measure(nu.atoms[:, 0], nu.weights), k
            )
            assert value == pytest.approx(exact, abs=1e-12)
            assert value == pytest.approx(wasserstein_oracle(mu, nu, k), abs=1e-12)

    def test_hall_search_matches_subset_loop(self):
        def loop_feasible(allowed, wa, wb):
            # reference: one subset at a time, Python sums
            n, m = allowed.shape
            for subset in range(1, 1 << n):
                left = [i for i in range(n) if subset >> i & 1]
                reach = [j for j in range(m) if allowed[left, j].any()]
                if sum(wa[i] for i in left) > sum(wb[j] for j in reach) + 1e-12:
                    return False
            return True

        rng = np.random.default_rng(15)
        for trial in range(300):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            allowed = rng.uniform(size=(n, m)) < 0.5
            # uniform weights on odd trials make exact mass ties common
            wa = rng.dirichlet(np.ones(n)) if trial % 2 else np.full(n, 1.0 / n)
            wb = rng.dirichlet(np.ones(m)) if trial % 2 else np.full(m, 1.0 / m)
            assert ot._bottleneck_feasible(allowed, wa, wb) == loop_feasible(allowed, wa, wb)

    def test_hall_search_is_feasible_at_exact_mass_ties(self):
        half = np.array([0.5, 0.5])
        assert ot._bottleneck_feasible(np.eye(2, dtype=bool), half, half)
        assert not ot._bottleneck_feasible(np.array([[True, False], [True, False]]), half, half)
        # at threshold 1 atom 0 (mass 1/2) reaches atoms 0 and 1 (mass 1/4 + 1/4)
        mu = DiscreteMeasure(np.array([[0.0], [1.0], [2.0]]), np.array([0.5, 0.25, 0.25]))
        nu = DiscreteMeasure(np.array([[0.0], [1.0], [2.0]]), np.array([0.25, 0.25, 0.5]))
        assert wasserstein_oracle(mu, nu, math.inf) == 1.0


# ---------------------------------------------------------------------------
# sliced distances
# ---------------------------------------------------------------------------


class TestSliced:
    def test_swd_in_one_dimension_equals_exact_distance(self):
        # every unit direction in R^1 is +-1 and |.| kills the sign
        rng = np.random.default_rng(13)
        mu = _random_discrete(rng, 5, 1, weighted=True)
        nu = _random_discrete(rng, 7, 1, weighted=True)
        exact = wasserstein_1d(
            one_d_measure(mu.atoms[:, 0], mu.weights),
            one_d_measure(nu.atoms[:, 0], nu.weights),
            2,
        )
        assert swd(mu, nu, k=2, num_projections=17, seed=99) == pytest.approx(exact, rel=1e-12)

    def test_swd_deterministic_given_seed(self):
        rng = np.random.default_rng(14)
        mu = _random_discrete(rng, 6, 3)
        nu = _random_discrete(rng, 6, 3)
        a = swd(mu, nu, k=2, num_projections=20, seed=5)
        b = swd(mu, nu, k=2, num_projections=20, seed=5)
        assert a == b

    def test_swd_estimator_std_scales_inverse_sqrt(self):
        # doubling the direction count should shrink the spread by ~sqrt(2)
        rng = np.random.default_rng(15)
        mu = _random_discrete(rng, 6, 3)
        nu = _random_discrete(rng, 6, 3)
        vals_l = [swd(mu, nu, 2, num_projections=32, seed=s) for s in range(160)]
        vals_2l = [swd(mu, nu, 2, num_projections=64, seed=s) for s in range(160)]
        ratio = np.std(vals_l) / np.std(vals_2l)
        assert math.sqrt(2) * 0.8 <= ratio <= math.sqrt(2) * 1.2

    def test_gswd_symmetric(self):
        rng = np.random.default_rng(16)
        mu = _random_discrete(rng, 5, 2, weighted=True)
        nu = _random_discrete(rng, 6, 2)
        slices = random_polynomial_slices(2, 6, rng)
        assert gswd(mu, nu, 2, slices) == pytest.approx(gswd(nu, mu, 2, slices), abs=1e-14)

    def test_gswd_linear_slices_in_1d_equals_exact(self):
        rng = np.random.default_rng(17)
        mu = _random_discrete(rng, 4, 1)
        nu = _random_discrete(rng, 5, 1, weighted=True)
        slices = random_linear_slices(1, 9, rng)
        exact = wasserstein_1d(
            one_d_measure(mu.atoms[:, 0], mu.weights),
            one_d_measure(nu.atoms[:, 0], nu.weights),
            2,
        )
        assert gswd(mu, nu, 2, slices) == pytest.approx(exact, rel=1e-12)

    def test_gswd_identical_measures_zero(self):
        rng = np.random.default_rng(18)
        mu = _random_discrete(rng, 6, 2, weighted=True)
        slices = random_polynomial_slices(2, 5, rng)
        assert gswd(mu, mu, 2, slices) == 0.0

    @pytest.mark.parametrize("shift", [0.05, 50.0])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_slice_power_out_of_range_is_refused(self, shift, weighted):
        # 0.05^400 underflows to 0 and 50^400 overflows; uniform pairs take
        # the sorted fast path, weighted ones the merged-grid walk
        weights = [0.3, 0.7] if weighted else None
        mu = DiscreteMeasure.from_points([[0.0], [1.0]], weights)
        nu = DiscreteMeasure.from_points([[shift], [1.0 + shift]], weights)
        slices = SliceParameterSet([DefiningFunction.normalized("linear", 1, [1.0])])
        with pytest.raises(ValueError, match="k = 400.0"):
            gswd(mu, nu, 400, slices)
        with pytest.raises(ValueError, match="k = 400.0"):
            swd(mu, nu, 400, num_projections=3)
        assert gswd(mu, nu, 40, slices) == pytest.approx(shift, rel=1e-14)

    @pytest.mark.parametrize("scale", [1e104, 1e155])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("k", [1, 2, math.inf])
    def test_overflowing_projections_are_refused_not_nan(self, scale, weighted, k):
        # degree-3 monomials of atoms at this scale overflow to inf, and the
        # slice's projections to inf - inf; linear ones overflow near 1.5e308
        rng = np.random.default_rng(0)
        weights = rng.dirichlet(np.ones(5)) if weighted else None
        mu = DiscreteMeasure(rng.normal(size=(5, 3)) * scale, weights)
        nu = DiscreteMeasure(rng.normal(size=(5, 3)) * scale, weights)
        slices = random_polynomial_slices(3, 4, rng)
        far = [0.3, 0.7] if weighted else None
        mu_far = DiscreteMeasure.from_points([[1.5e308, 1.5e308], [0.0, 0.0]], far)
        nu_far = DiscreteMeasure.from_points([[1.5e308, 1.5e308], [1.0, 1.0]], far)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"k = {float(k)!r}"):
                gswd(mu, nu, k, slices)
            with pytest.raises(ValueError, match=f"k = {float(k)!r}"):
                swd(mu_far, nu_far, k, num_projections=20)

    def test_zero_distance_at_large_order_is_zero(self):
        mu = DiscreteMeasure.from_points([[0.0], [1.0]], [0.3, 0.7])
        slices = SliceParameterSet([DefiningFunction.normalized("linear", 1, [1.0])])
        assert gswd(mu, mu, 400, slices) == 0.0
        assert swd(mu, mu, 400, num_projections=3) == 0.0

    @pytest.mark.parametrize("count", [2.0, True, 0, -1, "3", None])
    def test_num_projections_must_be_a_positive_integer(self, count):
        mu = DiscreteMeasure.from_points([[0.0], [1.0]])
        with pytest.raises(ValueError, match="num_projections"):
            swd(mu, mu, 2, num_projections=count)

    def test_num_projections_accepts_numpy_integers(self):
        mu = DiscreteMeasure.from_points([[0.0], [1.0]])
        nu = DiscreteMeasure.from_points([[0.5], [1.5]])
        assert swd(mu, nu, 2, num_projections=np.int64(3)) == swd(mu, nu, 2, num_projections=3)

    def test_empty_slice_set_rejected(self):
        with pytest.raises(ValueError):
            SliceParameterSet([])


class TestPseudoMetricAxioms:
    def test_axioms_hold_on_sampled_triples(self):
        # weighted and uniform 2-D triples, each on its own 8 slices
        rng = np.random.default_rng(21)
        for _ in range(120):
            a, b, c = (_random_discrete(rng, int(rng.integers(2, 7)), 2, weighted=bool(rng.integers(2))) for _ in range(3))
            slices = random_polynomial_slices(2, 8, rng)
            dab, dba, dac, dcb, daa = (gswd(x, y, 2.0, slices) for x, y in ((a, b), (b, a), (a, c), (c, b), (a, a)))
            assert -min(dab, dac, dcb) <= 1e-9
            assert abs(dab - dba) <= 1e-9
            # the triangle inequality should bind occasionally; its
            # violation is still expected to be numerically zero or negative
            assert dab - (dac + dcb) <= 1e-9
            assert abs(daa) <= 1e-9
