"""Sliced Wasserstein distances with exact one-dimensional transport.

The workhorse is ``wasserstein_1d``: the exact order-k Wasserstein
distance between two discrete measures on R, computed by merging the
breakpoints of the two quantile functions.  On each interval between
consecutive merged cumulative weights both quantile functions are
constant, so

    W_k(mu, nu)^k = sum_segments  len(segment) * |x_i - y_j|^k,

and W_inf is the largest |x_i - y_j| over segments of positive length.
Runtime is O(n log n) in the total atom count.  The merge
(``_merged_segments``) is one stable sort of the two cumulative rows
side by side and one gather of the merged bounds.  A segment's x atom
is the exclusive cumulative count of x breakpoints merged before it,
and its y atom the rest of its merged position.  Many rows merge at
once, on the same route as one: the row offsets ``r * (n + m)`` added
to the sort order make it a flat index.  When W_k^k under- or
overflows float64 (a large k), ``wasserstein_1d`` recomputes it on the
distances divided by the largest one and scales back.

Sliced distances reduce d-dimensional transport to averages of these 1-D
distances over defining functions (linear directions or odd-degree
homogeneous polynomials):

* ``swd``  - Monte-Carlo average over uniformly random unit directions.
* ``gswd`` - average over an explicit ``SliceParameterSet``; for any
  fixed slice set the result is a pseudo-metric.

Both send one pair on one slice set to one batched engine,
``_sliced_powers``.  Its third client, ``verify``'s pseudo-metric check,
sends many trials per call, each trial's three measures on their own
slice set.
Zero-weight atoms are dropped from each measure once, up front, as
``one_d_measure`` drops them.  Measures of one atom count (before and
after the drop), uniformity and slice kind, degree and dimension are
stacked as a group of up to ``_GROUP_ATOMS`` atoms (or one measure),
and their feature rows (``SliceParameterSet.features``) are formed
once.  The slices go in fixed blocks of ``_BLOCK``.  On a block, each
group is projected with one stacked (G, block, M) @ (G, M, n) product
of its measures' coefficient rows and feature rows, and every
projected row is sorted.  Then the pairs between two groups read their
per-slice powers together:

* equal-size uniform measures take the fast path: W_k^k is the mean of
  |sort x - sort y|^k (W_inf its maximum);
* every other pair walks the merged cumulative grid of
  ``wasserstein_1d`` (sorted weights, renormalized and summed as
  ``one_d_measure`` does), with the same ``_CUM_DUST`` tie rule; the
  rows are walked together up to ``_WALK_BREAKPOINTS`` breakpoints at
  a time.

Each stacked product, row sort, row sum and walked row is the one a
measure or pair would get alone (a stacked item keeps the memory layout
of the measure's own feature rows), so a pair's powers have the same
bits in whatever call it goes.  Blocks keep the (G, block, n) work
arrays, and so the peak memory, flat in the slice count.  A slice
whose W_k^k leaves [tiny, inf) although its distance is positive
raises ValueError naming k, and so does a slice whose projections
overflow float64 (a NaN or infinite W_k^k or W_inf, at any k).

``wasserstein_oracles`` is a deliberately independent brute-force route
used to validate the quantile-merge implementation; it shares no code
with it.  Per pair it searches the bottleneck threshold through the
Hall/Gale feasibility condition, all 2^n subsets at once (k = inf),
solves an exactly uniform pair (every weight within 1e-12 of 1/n) as one
assignment problem on lcm(n, m) equal-weight copies of each side, or
solves the transportation linear program (Peyre & Cuturi,
"Computational Optimal Transport", 2019).  The linear programs of one
call are stacked as the diagonal blocks of one HiGHS program, up to
``_LP_BATCH`` per solve, at 1e-10 primal and dual feasibility
tolerances.
"""

from __future__ import annotations

import math

import numpy as np

from .measures import (
    DiscreteMeasure,
    OneDMeasure,
    SliceParameterSet,
    num_monomials,
)

__all__ = [
    "wasserstein_1d",
    "wasserstein_oracles",
    "swd",
    "gswd",
    "random_linear_slices",
    "random_polynomial_slices",
]

ORACLE_MAX_ATOMS = 10


def _check_order(k) -> float:
    kk = float(k)
    if math.isnan(kk) or kk < 1.0:
        raise ValueError(f"transport order k must satisfy k >= 1 (or inf), got {k!r}")
    return kk


def wasserstein_1d(mu: OneDMeasure, nu: OneDMeasure, k=1.0) -> float:
    """Exact order-k Wasserstein distance between canonical 1-D measures.

    ``k`` is a real >= 1 or ``math.inf``.  The computation walks the merged
    cumulative-weight breakpoints of the two measures; no optimization is
    involved because the optimal 1-D coupling is the monotone one.  When
    W_k^k under- or overflows float64 (a large k), it is recomputed on
    the paired distances divided by the largest one, M, and W_k is
    scaled back by M.  A paired distance that overflows float64 raises
    ValueError naming k.
    """
    kk = _check_order(k)
    _, seg, ix, iy = _merged_segments(mu.cumulative()[None], nu.cumulative()[None])
    with np.errstate(over="ignore"):
        d = np.abs(mu.positions[ix] - nu.positions[iy])
        power = math.inf if math.isinf(kk) else seg @ d**kk
    if _TINY <= power < math.inf:
        return float(power ** (1.0 / kk))
    scale = float(d.max())
    if scale == math.inf:
        raise ValueError(f"a paired distance overflows float64 at k = {kk!r}; scale the measures down")
    if math.isinf(kk) or scale == 0.0:
        return scale
    return float(scale * (seg @ (d / scale) ** kk) ** (1.0 / kk))


# smallest normal float64: a W_k^k below it has lost precision or underflowed
_TINY = float(np.finfo(float).tiny)


# cumulative sums closer than this are one exact-arithmetic tie point
_CUM_DUST = 1e-12


def _merged_segments(cx: np.ndarray, cy: np.ndarray):
    """Segment lengths and atom indices of the merged breakpoint walk.

    ``cx`` (rows, n) and ``cy`` (rows, m) hold cumulative weights, each
    row ending in exactly 1; every row is walked on its own.  Each
    segment is one interval of cumulative weight on which both quantile
    functions are constant; the atom paired on it is the one whose
    cumulative weight first reaches the segment end
    (``searchsorted(c, end, 'left')``), matching a two-pointer walk that
    advances past an atom once its cumulative weight is consumed.
    Returns, in row order, the index of each row's first segment, and
    every segment's length and x and y atom index, flat over the rows
    (row r's x atom i is ``r * n + i``, its y atom j ``r * m + j``).

    Cumulative sums that coincide in exact arithmetic (1/6-steps meeting
    1/3-steps, say) land a rounding error apart, and the sliver between
    them would pair atoms from opposite sides of the tie - mass ~1e-16,
    which the k = inf supremum still takes at face value.  Bounds within
    _CUM_DUST of the previous one are therefore collapsed into the next
    segment; keeping the first of a cluster preserves the exact pairing
    on both sides.  Each row's first bound is always kept.  Atom weights
    at or below the dust threshold are beneath this resolution.

    The rows are concatenated, x breakpoints first, and each row is
    merged by one stable sort; adding the row offsets ``r * (n + m)``
    to the sort order makes it a flat index, so the merged bounds of
    all rows are one 1-D gather.  A kept bound lies more than _CUM_DUST
    above every bound sorted before it, so the x breakpoints before it
    are exactly those below it, and it pairs x atom ``ix`` = the number
    of x breakpoints merged before it (the stable sort keeps x
    breakpoint i behind exactly i others).  One exclusive cumulative
    count of x breakpoints over the flat merged order reads
    ``r * n + ix`` at row r's position p, since every row holds exactly
    n of them; the y atom is the rest of the flat position,
    ``r * (n + m) + p - (r * n + ix) = r * m + (p - ix)``.  Exact
    duplicates differ by 0 and collapse like any other tie.
    """
    n, width = cx.shape[1], cx.shape[1] + cy.shape[1]
    both = np.concatenate([cx, cy], axis=1)
    order = np.argsort(both, axis=1, kind="stable")
    # xcount[P]: x breakpoints at flat merged positions before P
    xcount = np.zeros(order.size + 1, dtype=np.intp)
    np.cumsum(order < n, out=xcount[1:])
    bounds = both.ravel()[_flat_index(order)]
    keep = np.empty(bounds.size, dtype=bool)
    np.greater(bounds[1:] - bounds[:-1], _CUM_DUST, out=keep[1:])
    keep[::width] = True
    kept = np.flatnonzero(keep)
    b = bounds[kept]
    starts = np.searchsorted(kept, np.arange(0, bounds.size, width))
    seg = np.empty(b.size)
    np.subtract(b[1:], b[:-1], out=seg[1:])
    seg[starts] = b[starts]
    ix = xcount[kept]
    return starts, seg, ix, kept - ix


def _flat_index(order: np.ndarray) -> np.ndarray:
    """Row-local column indices ``order`` (..., w), made flat indices in place."""
    order += np.arange(0, order.size, order.shape[-1]).reshape(order.shape[:-1] + (1,))
    return order.ravel()


# ---------------------------------------------------------------------------
# Brute-force oracle (independent route: assignment / LP / bottleneck)
# ---------------------------------------------------------------------------


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def _oracle_assignment(dist: np.ndarray, k: float) -> float:
    """W_k between uniform measures as one assignment problem.

    Each of the n (m) atoms is repeated L / n (L / m) times, L =
    lcm(n, m), so both sides hold L copies of weight 1/L.  Couplings of
    the copies sum back to couplings of the measures, and any coupling
    splits evenly over the copies, so the two optima agree; one optimum
    of the copies is a permutation (Birkhoff-von Neumann), which
    ``linear_sum_assignment`` finds exactly on ``dist**k``.
    """
    from scipy.optimize import linear_sum_assignment  # see _oracle_lps

    n, m = dist.shape
    size = math.lcm(n, m)
    cost = np.repeat(np.repeat(dist**k, size // n, axis=0), size // m, axis=1)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean() ** (1.0 / k))


def _oracle_lps(blocks) -> list:
    """Transportation LPs over the full coupling polytopes, solved as one program.

    ``blocks`` holds ``(dist, wa, wb, k)`` per problem.  Each problem is
    one diagonal block of the equality matrix (row sums ``wa``, column
    sums ``wb``), so the program separates: the sum of the block optima
    is optimal only if every block is optimal, and block b's value is
    ``(c_b @ x_b) ** (1/k)``.  HiGHS runs at 1e-10 primal and dual
    feasibility tolerances, so each value is accurate well past the
    1e-9 of the transport check.
    """
    # the oracle is the only scipy user: importing it inside its solvers
    # keeps scipy out of every process that never runs it (``train``,
    # ``rate``, ``interpret``)
    from scipy.optimize import linprog
    from scipy.sparse import coo_array

    rows, cols, costs, b_eq, spans = [], [], [], [], []
    r0 = c0 = 0
    for dist, wa, wb, k in blocks:
        n, m = dist.shape
        cells = np.arange(n * m)
        # cell (i, j) sits in row-sum row i and column-sum row n + j
        rows += [r0 + cells // m, r0 + n + cells % m]
        cols += [c0 + cells, c0 + cells]
        costs.append((dist**k).ravel())
        b_eq += [wa, wb]
        spans.append((c0, c0 + n * m, k))
        r0, c0 = r0 + n + m, c0 + n * m
    cost = np.concatenate(costs)
    a_eq = coo_array((np.ones(2 * c0), (np.concatenate(rows), np.concatenate(cols))), shape=(r0, c0))
    res = linprog(
        cost,
        A_eq=a_eq,
        b_eq=np.concatenate(b_eq),
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return [float(max(cost[a:b] @ res.x[a:b], 0.0) ** (1.0 / k)) for a, b, k in spans]


_subset_cache: dict[int, np.ndarray] = {}


def _subset_masks(n: int) -> np.ndarray:
    """(2^n - 1, n) 0/1 rows, one per non-empty subset of n atoms."""
    if n not in _subset_cache:
        _subset_cache[n] = ((np.arange(1, 1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
    return _subset_cache[n]


def _bottleneck_feasible(allowed: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> bool:
    """Gale's condition: a coupling supported on ``allowed`` exists iff
    every subset S of left atoms satisfies wa(S) <= wb(neighbors(S)).

    All 2^n subsets are checked at once; n <= ORACLE_MAX_ATOMS keeps the
    (2^n - 1, n) mask matrix tiny.
    """
    masks = _subset_masks(allowed.shape[0])
    reach = (masks @ allowed) > 0.0
    return not np.any(masks @ wa > reach @ wb + 1e-12)


def _oracle_bottleneck(dist: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> float:
    """W_inf by searching the smallest threshold whose edge set admits a coupling."""
    thresholds = np.unique(dist.ravel())
    lo, hi = 0, thresholds.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _bottleneck_feasible(dist <= thresholds[mid] + 1e-15, wa, wb):
            hi = mid
        else:
            lo = mid + 1
    return float(thresholds[lo])


# transport LPs per HiGHS solve; keeps one solve's memory flat in the
# number of problems
_LP_BATCH = 128


def _exactly_uniform(w: np.ndarray) -> bool:
    """Every weight within 1e-12 of 1/n, with no relative tolerance:
    weights 1e-7 off are another measure, whose W_k the LP gives."""
    return float(np.abs(w - 1.0 / w.size).max()) <= 1e-12


def wasserstein_oracles(problems) -> list:
    """Brute-force order-k Wasserstein distances for small discrete measures.

    ``problems`` holds ``(mu, nu, k)`` triples; one value is returned per
    triple, in order.  Route selection per triple: k = inf takes the
    Hall-condition bottleneck search; a finite k with both weight vectors
    exactly uniform (every weight within 1e-12 of 1/n) takes the
    assignment problem on lcm(n, m) equal-weight copies of each side;
    every other pair takes the transportation LP, ``_LP_BATCH`` at a
    time as one block-diagonal HiGHS program.  Raises ValueError beyond
    ``ORACLE_MAX_ATOMS`` atoms per side.
    """
    values = [0.0] * len(problems)
    lps, lp_index = [], []
    for i, (mu, nu, k) in enumerate(problems):
        kk = _check_order(k)
        if mu.dim != nu.dim:
            raise ValueError("measures must share the ambient dimension")
        if mu.size > ORACLE_MAX_ATOMS or nu.size > ORACLE_MAX_ATOMS:
            raise ValueError(f"oracle limited to {ORACLE_MAX_ATOMS} atoms per measure")
        dist = _pairwise_distances(mu.atoms, nu.atoms)
        if math.isinf(kk):
            values[i] = _oracle_bottleneck(dist, mu.weights, nu.weights)
        elif _exactly_uniform(mu.weights) and _exactly_uniform(nu.weights):
            values[i] = _oracle_assignment(dist, kk)
        else:
            lps.append((dist, mu.weights, nu.weights, kk))
            lp_index.append(i)
    for start in range(0, len(lps), _LP_BATCH):
        solved = _oracle_lps(lps[start : start + _LP_BATCH])
        for i, v in zip(lp_index[start : start + _LP_BATCH], solved):
            values[i] = v
    return values


# ---------------------------------------------------------------------------
# Sliced distances
# ---------------------------------------------------------------------------


def _slice_mean(values_k: np.ndarray, k: float) -> float:
    if math.isinf(k):
        return float(values_k.max())
    return float(values_k.mean() ** (1.0 / k))


# slices per projection product; bounds the (block, n) work arrays, so
# the peak memory stays flat in the slice count
_BLOCK = 8
# breakpoints per merged-grid walk of the general path
_WALK_BREAKPOINTS = 1 << 15
# atoms per stacked projection product
_GROUP_ATOMS = 1 << 12


def _sliced_powers(measures, slices, pairs, k: float) -> np.ndarray:
    """Per-slice W_k^k (W_inf for k = inf) of every pair ``(i, j)`` of ``measures``.

    ``slices[i]`` is measure i's slice set; a pair's two measures share
    theirs, and every set holds the same number S of slices.  Returns
    (len(pairs), S).

    A group holds up to ``_GROUP_ATOMS`` atoms (or one measure) of
    measures of one kept atom count, uniformity, atom count before the
    cut, and slice kind, degree and dimension; its kept atoms, features
    and coefficient rows are stacked once.  On each
    block of slices, every group is projected with one stacked product
    and sorted with one row sort (``_project``), and the pairs between
    two groups read their powers in one call: ``_uniform_powers`` for
    equal-size uniform groups, ``_walk_powers`` otherwise.  Every
    product, sort, row sum and walked row is that of a measure or pair
    alone, so a pair's powers do not depend on what else the call holds.
    """
    alike: dict = {}
    for i, (c, s) in enumerate(zip(_classes(measures), slices)):
        alike.setdefault((*c, s.kind, s.degree, s.dim), []).append(i)
    # a group holds up to _GROUP_ATOMS atoms, or one measure: large
    # measures gain nothing from stacking, whose work arrays would raise
    # the peak memory and outgrow the cache
    groups = []
    for key, members in alike.items():
        step = max(1, _GROUP_ATOMS // key[2])
        groups += [(key, members[lo : lo + step]) for lo in range(0, len(members), step)]
    # measure i is row row_of[i] of group group_of[i]
    group_of, row_of = [0] * len(measures), [0] * len(measures)
    for g, (_, members) in enumerate(groups):
        for row, i in enumerate(members):
            group_of[i], row_of[i] = g, row
    # the pairs between two groups: their rows of ``out`` and of each group
    routes: dict = {}
    for r, (i, j) in enumerate(pairs):
        routes.setdefault((group_of[i], group_of[j]), []).append((r, row_of[i], row_of[j]))
    routes = {between: np.array(route).T for between, route in routes.items()}
    count = slices[0].coefficients.shape[0]
    out = np.empty((len(pairs), count))
    # overflowing features or projections surface as non-finite powers
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = [
            (*_stack([measures[i] for i in members], [slices[i] for i in members], n, u), u)
            for (n, u, *_), members in groups
        ]
        for start in range(0, count, _BLOCK):
            block = slice(start, start + _BLOCK)
            projected = [_project(coeffs[:, block] @ feats, w, u) for feats, coeffs, w, u in stacked]
            for (gx, gy), (rows, px, py) in routes.items():
                (xs, wx), (ys, wy) = projected[gx], projected[gy]
                (nx, ux, *_), (ny, uy, *_) = groups[gx][0], groups[gy][0]
                if ux and uy and nx == ny:
                    powers = _uniform_powers(_rows(xs, px), _rows(ys, py), k)
                else:
                    powers = _walk_powers(_rows(xs, px), _rows(wx, px), _rows(ys, py), _rows(wy, py), k)
                out[rows, block] = powers.reshape(rows.size, -1)
    if not np.isfinite(out).all():
        raise ValueError(f"a slice's projections overflow float64 at k = {k!r}; scale the measures down")
    return out


def _classes(measures) -> list:
    """Each measure's kept atom count, uniformity and atom count.

    Zero-weight atoms are cut: one sorted first would open the walk's
    zero-length first segment, whose distance the k = inf maximum reads.
    """
    sizes = [m.weights.size for m in measures]
    weights = np.concatenate([m.weights for m in measures])
    keep = weights > 0.0
    counts = np.add.reduceat(keep, np.cumsum(sizes) - sizes)
    kept = weights[keep]
    starts = np.cumsum(counts) - counts
    uniform = np.maximum.reduceat(kept, starts) == np.minimum.reduceat(kept, starts)
    return list(zip(counts.tolist(), uniform.tolist(), sizes))


def _stack(measures, slices, n: int, uniform: bool) -> tuple:
    """Measures of one atom count, cut to their n kept atoms, stacked:
    their feature rows (G, M, n), coefficient rows (G, S, M) and weights
    (G, n), or cumulative weights for uniform measures, which are the
    same on every slice."""
    size = measures[0].weights.size
    points = np.concatenate([m.atoms for m in measures]).reshape(len(measures), size, -1)
    w = np.concatenate([m.weights for m in measures]).reshape(len(measures), size)
    if n < size:
        keep = w > 0.0
        points, w = points[keep].reshape(len(measures), n, -1), w[keep].reshape(-1, n)
    coeffs = np.concatenate([s.coefficients for s in slices]).reshape(len(measures), -1, slices[0].coefficients.shape[1])
    return slices[0].features(points), coeffs, _cumulative(w) if uniform else w


def _rows(stacked: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The (block, n) rows of the stacked measures ``p``, one after another;
    one measure's are a view."""
    if p.size == 1:
        return stacked[p[0]]
    return stacked[p].reshape(-1, stacked.shape[-1])


def _project(p: np.ndarray, w: np.ndarray, uniform: bool) -> tuple:
    """A group's projections ``p`` (G, block, n), each row sorted, and
    the cumulative weights of each sorted row.

    The cumulative weights are those of ``one_d_measure`` on a row: the
    sorted weights renormalized, summed, the last pinned to 1.  Uniform
    measures pass theirs in ``w`` (G, n), the same on every row; other
    measures pass their weights.  The sort need not be stable: atoms
    tied in a row share their position, so their order moves only the
    rounding of the sums.
    """
    if uniform:
        return np.sort(p, axis=-1), np.broadcast_to(w[:, None, :], p.shape)
    order = np.argsort(p, axis=-1)
    # measure g's rows read weights g * n + order, before _flat_index
    # turns order into flat indices in place
    c = _cumulative(w.ravel()[order + np.arange(0, w.size, w.shape[-1])[:, None, None]])
    return p.ravel()[_flat_index(order)].reshape(p.shape), c


def _uniform_powers(xs: np.ndarray, ys: np.ndarray, k: float) -> np.ndarray:
    """Row-wise W_k^k (W_inf) of sorted equal-size uniform rows: the mean
    of |sort x - sort y|^k (W_inf its maximum)."""
    d = np.abs(xs - ys)
    if math.isinf(k):
        return d.max(axis=1)
    powers = (d**k).mean(axis=1)
    _check_range(powers, lambda: d.max(axis=1), k)
    return powers


def _walk_powers(xs: np.ndarray, cx: np.ndarray, ys: np.ndarray, cy: np.ndarray, k: float) -> np.ndarray:
    """Row-wise W_k^k (W_inf) of sorted rows on their merged cumulative grids.

    Rows are walked together up to ``_WALK_BREAKPOINTS`` breakpoints at a
    time: a whole block for small measures, one row at a time for large
    ones, which keeps the walk's work arrays small.
    """
    n, m = xs.shape[1], ys.shape[1]
    step = max(1, _WALK_BREAKPOINTS // (n + m))
    powers = np.empty(xs.shape[0])
    for lo in range(0, xs.shape[0], step):
        rows = slice(lo, lo + step)
        starts, seg, ix, iy = _merged_segments(cx[rows], cy[rows])
        d = np.abs(xs[rows].ravel()[ix] - ys[rows].ravel()[iy])
        if math.isinf(k):
            powers[rows] = np.maximum.reduceat(d, starts)
        else:
            powers[rows] = np.add.reduceat(seg * d**k, starts)
            _check_range(powers[rows], lambda: np.maximum.reduceat(d, starts), k)
    return powers


def _check_range(powers: np.ndarray, largest, k: float) -> None:
    """Refuse slice powers W_k^k outside [tiny, inf) whose distance is positive.

    ``largest()`` gives each slice's largest paired distance; it is
    called only when some power is out of range.
    """
    if _TINY <= powers.min() and powers.max() < math.inf:
        return
    lost = ~((powers >= _TINY) & (powers < math.inf))
    if np.any(largest()[lost] > 0.0):
        raise ValueError(
            f"W_k^k of a slice under- or overflows float64 at k = {k!r}; use a smaller k or k = inf"
        )


def _cumulative(w: np.ndarray) -> np.ndarray:
    c = np.cumsum(w / w.sum(axis=-1, keepdims=True), axis=-1)
    c[..., -1] = 1.0
    return c


def random_linear_slices(dim: int, count: int, rng: np.random.Generator) -> SliceParameterSet:
    """Uniform random unit directions (Gaussian normalized)."""
    if count < 1:
        raise ValueError("need at least one slice")
    return SliceParameterSet.normalized("linear", dim, rng.standard_normal((count, dim)))


def random_polynomial_slices(
    dim: int, count: int, rng: np.random.Generator, degree: int = 3
) -> SliceParameterSet:
    """Random unit-norm odd-degree homogeneous polynomial slices."""
    if count < 1:
        raise ValueError("need at least one slice")
    raw = rng.standard_normal((count, num_monomials(degree, dim)))
    return SliceParameterSet.normalized("poly", dim, raw, degree)


def swd(mu: DiscreteMeasure, nu: DiscreteMeasure, k=2.0, num_projections: int = 50, seed=0) -> float:
    """Monte-Carlo sliced Wasserstein distance over random unit directions.

    Deterministic for a fixed ``seed``.  Returns
    ``(mean_j W_k(proj_j mu, proj_j nu)^k)^(1/k)`` over ``num_projections``
    directions sampled uniformly on the unit sphere.
    """
    kk = _check_order(k)
    if mu.dim != nu.dim:
        raise ValueError("measures must share the ambient dimension")
    integral = isinstance(num_projections, (int, np.integer)) and not isinstance(num_projections, bool)
    if not integral or num_projections < 1:
        raise ValueError(f"num_projections must be an integer >= 1, got {num_projections!r}")
    slices = random_linear_slices(mu.dim, num_projections, np.random.default_rng(seed))
    return _slice_mean(_sliced_powers([mu, nu], [slices, slices], [(0, 1)], kk)[0], kk)


def gswd(mu: DiscreteMeasure, nu: DiscreteMeasure, k, slices: SliceParameterSet) -> float:
    """Generalized sliced Wasserstein distance over an explicit slice set.

    Each slice projects both measures through the same defining function;
    per-slice order-k distances are power-averaged.
    """
    kk = _check_order(k)
    if mu.dim != nu.dim:
        raise ValueError("measures must share the ambient dimension")
    if slices.dim != mu.dim:
        raise ValueError("slice dimension does not match the measures")
    return _slice_mean(_sliced_powers([mu, nu], [slices, slices], [(0, 1)], kk)[0], kk)
