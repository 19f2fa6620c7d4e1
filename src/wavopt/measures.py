"""Weighted atom clouds and the slices that project them to one dimension.

The optimal-transport layer works on empirical (discrete) probability
measures: finitely many support points with non-negative weights summing
to one.  Two representations are used:

* ``DiscreteMeasure`` holds points in R^d and is the input format for
  every sliced distance.
* ``OneDMeasure`` is the canonical one-dimensional form (stably sorted
  support, zero weights dropped, the rest renormalised) that
  ``one_d_measure`` builds from raw positions.  Atoms at one position
  stay separate: they have the quantile function of their sum, so the
  quantile-based Wasserstein computations are exact on this form.

A slice is described by a ``DefiningFunction``: either a linear
functional ``x -> <x, theta>`` with a unit direction, or an odd-degree
homogeneous polynomial ``x -> sum_{|alpha|=m} theta_alpha x^alpha`` with
unit-norm coefficient vector.  Odd degree keeps the family of level sets
well behaved (the map is sign-equivariant, ``beta(-x) = -beta(x)``), the
condition under which slicing of this kind yields a genuine distance.
A ``SliceParameterSet`` is one coefficient matrix: the unit rows of S
slices that share kind, degree and dim.  Its ``features`` of a point
cloud are (M, n) rows, and one product with the matrix evaluates every
slice at every point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

__all__ = [
    "DiscreteMeasure",
    "OneDMeasure",
    "DefiningFunction",
    "SliceParameterSet",
    "monomial_exponents",
    "num_monomials",
    "one_d_measure",
]

# Weight vectors must sum to one within this tolerance.
WEIGHT_SUM_TOL = 1e-12


def _as_weights(weights, n: int) -> np.ndarray:
    """The weights of n >= 1 atoms as a float vector, uniform when None;
    a ValueError names what a rejected vector breaks."""
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights must have shape ({n},), got {w.shape}")
    # two reductions accept every valid vector: a nan or -inf makes the
    # minimum fail, a +inf the sum; the checks below only name a rejection
    if w.min() >= 0.0 and abs(w.sum() - 1.0) <= WEIGHT_SUM_TOL:
        return w
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if (w < 0.0).any():
        raise ValueError("weights must be non-negative")
    if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {w.sum()!r}")
    return w


@dataclass(eq=False)
class DiscreteMeasure:
    """Empirical probability measure on R^d: atoms (n, d) and weights (n,).

    The constructor checks its input: finite atoms with n >= 1 and
    d >= 1, and non-negative weights summing to one within
    ``WEIGHT_SUM_TOL`` (uniform when None).  ``_unchecked`` wraps
    float arrays without a check, and is only for atoms and weights the
    caller drew valid itself: its two callers are the samplers of
    ``verify.check_transport_vs_oracle`` (the oracle's inputs) and
    ``verify.check_pseudo_metric_suite``.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.atoms = np.asarray(self.atoms, dtype=float)
        if self.atoms.ndim == 1:
            self.atoms = self.atoms[:, None]
        if self.atoms.ndim != 2 or self.atoms.shape[0] == 0:
            raise ValueError("atoms must be a non-empty (n, d) array")
        if self.atoms.shape[1] == 0:
            raise ValueError(f"atoms must have at least one coordinate, got shape {self.atoms.shape}")
        if not np.all(np.isfinite(self.atoms)):
            raise ValueError("atoms must be finite")
        self.weights = _as_weights(self.weights, self.atoms.shape[0])

    @classmethod
    def _unchecked(cls, atoms: np.ndarray, weights: np.ndarray) -> "DiscreteMeasure":
        """Wrap float atoms (n, d) and weights (n,) known valid, skipping the checks."""
        m = cls.__new__(cls)
        m.atoms, m.weights = atoms, weights
        return m

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def size(self) -> int:
        return self.atoms.shape[0]

    @staticmethod
    def from_points(points, weights=None) -> "DiscreteMeasure":
        """The measure on ``points``, (n, d) or (n,); uniform when ``weights`` is None."""
        return DiscreteMeasure(points, weights)


@dataclass(eq=False)
class OneDMeasure:
    """Canonical measure on R: sorted positions, positive weights."""

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.positions.ndim != 1 or self.positions.shape[0] == 0:
            raise ValueError("positions must be a non-empty 1-D array")
        if self.weights.shape != self.positions.shape:
            raise ValueError("positions and weights must have matching shape")
        if (self.positions[1:] < self.positions[:-1]).any():
            raise ValueError("positions must be sorted ascending (use one_d_measure)")
        if (self.weights <= 0).any():
            raise ValueError("canonical weights must be strictly positive")
        if abs(self.weights.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("weights must sum to 1")

    @classmethod
    def _canonical(cls, positions: np.ndarray, weights: np.ndarray) -> "OneDMeasure":
        """Wrap float arrays already in canonical form, skipping the checks."""
        m = cls.__new__(cls)
        m.positions, m.weights = positions, weights
        return m

    def cumulative(self) -> np.ndarray:
        """Cumulative weights with the final entry pinned to exactly 1."""
        c = np.cumsum(self.weights)
        c[-1] = 1.0
        return c

    def quantile(self, u) -> np.ndarray:
        """Left-continuous generalized inverse CDF, F^{-1}(u) = inf{x : F(x) >= u}."""
        u = np.asarray(u, dtype=float)
        # a nan level fails both comparisons
        if not (np.all(u > 0.0) and np.all(u <= 1.0)):
            raise ValueError("quantile levels must lie in (0, 1]")
        idx = np.searchsorted(self.cumulative(), u, side="left")
        return self.positions[idx]


def one_d_measure(positions, weights=None) -> OneDMeasure:
    """Canonicalize raw 1-D support: stable sort, zero weights dropped, renormalized."""
    pos = np.asarray(positions, dtype=float).ravel()
    if pos.size == 0:
        raise ValueError("measure needs at least one atom")
    if not np.isfinite(pos).all():
        raise ValueError("positions must be finite")
    w = _as_weights(weights, pos.size)

    order = np.argsort(pos, kind="stable")
    kept = order[w[order] > 0.0]  # the sum check leaves at least one positive weight
    # canonical by construction, so the constructor's checks are skipped;
    # renormalizing removes the dropped mass (<= sum tol)
    return OneDMeasure._canonical(pos[kept], w[kept] / w[kept].sum())


# ---------------------------------------------------------------------------
# Defining functions (slices)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def monomial_exponents(degree: int, dim: int) -> np.ndarray:
    """Exponent rows alpha with |alpha| = degree, in a fixed deterministic order.

    Order: lexicographic over the sorted dimension multisets produced by
    ``itertools.combinations_with_replacement``; e.g. for dim=2, degree=3:
    x^3, x^2 y, x y^2, y^3.  Memoised: every slice of one (degree, dim)
    shares the same read-only array.
    """
    if degree < 1 or dim < 1:
        raise ValueError("degree and dim must be positive")
    rows = []
    for combo in combinations_with_replacement(range(dim), degree):
        alpha = np.zeros(dim, dtype=int)
        for d in combo:
            alpha[d] += 1
        rows.append(alpha)
    out = np.asarray(rows, dtype=int)
    out.flags.writeable = False
    return out


def num_monomials(degree: int, dim: int) -> int:
    """Number of monomials of total degree ``degree`` in ``dim`` variables."""
    return math.comb(degree + dim - 1, dim - 1)


def _check_slice(kind: str, dim: int, degree: int, shape: tuple) -> None:
    """Refuse a slice kind and degree, or coefficients of ``shape``, that do not fit."""
    if kind == "linear":
        if degree != 1:
            raise ValueError("linear defining function has degree 1")
        if shape != (dim,):
            raise ValueError("linear slice needs a direction of length dim")
    elif kind == "poly":
        if degree % 2 == 0 or degree < 1:
            raise ValueError("polynomial slice degree must be odd and positive")
        expected = num_monomials(degree, dim)
        if shape != (expected,):
            raise ValueError(f"degree-{degree} slice in dim {dim} needs {expected} coefficients, got {shape}")
    else:
        raise ValueError(f"unknown defining-function kind {kind!r}")


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a C-contiguous (S, M) float array.

    Each (1, M) @ (M, 1) product is one BLAS ``ddot``, the product
    ``np.linalg.norm`` takes of one contiguous row, so every norm has the
    bits of ``np.linalg.norm``.  A strided row would be summed in another
    order.
    """
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Each raw coefficient row divided by its norm, and then once more:
    x/||x|| can miss unit norm by ~1 ulp.

    The norms of all rows are taken at once (``_row_norms``).  A row
    whose norm is not in [1e-8, inf) takes the one-row route: if its
    squared norm overflows although every entry is finite, it is divided
    by its largest |entry| first; if it is numerically degenerate
    (non-finite, or norm < 1e-8), it falls back to the canonical first
    basis vector.  So every result row is a valid slice, whose bits
    depend on the row's values alone.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    # the squared norm of a finite row may overflow, and a non-finite
    # row's may be nan; both take the one-row route below
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _row_norms(rows)
    kept = (norms >= 1e-8) & (norms < math.inf)
    out = np.empty(rows.shape)
    c = rows[kept] / norms[kept, None]
    out[kept] = c / _row_norms(c)[:, None]
    for r in np.flatnonzero(~kept):
        out[r] = _unit_row(rows[r])
    return out


def _unit_row(c: np.ndarray) -> np.ndarray:
    """The one-row route of ``_unit_rows``, for a row whose norm overflows
    or is degenerate."""
    # np.linalg.norm warns when the squared norm overflows; such a row is rescaled
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(c))
        if norm == math.inf and np.isfinite(c).all():
            c = c / np.abs(c).max()
            norm = float(np.linalg.norm(c))
    if 1e-8 <= norm < math.inf:  # a non-finite entry makes the norm inf or nan
        c = c / norm
    else:
        c = np.zeros(c.shape)
        c[0] = 1.0
    return c / float(np.linalg.norm(c))


@dataclass(eq=False)
class DefiningFunction:
    """A slice beta: R^d -> R, linear or odd-degree homogeneous polynomial.

    ``kind`` is "linear" (``coefficients`` is a unit direction of length d)
    or "poly" (``coefficients`` has unit norm, indexed by
    ``monomial_exponents(degree, dim)``).
    """

    kind: str
    dim: int
    coefficients: np.ndarray
    degree: int = 1

    def __post_init__(self) -> None:
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("coefficients must be finite")
        _check_slice(self.kind, self.dim, self.degree, self.coefficients.shape)
        norm = float(np.linalg.norm(self.coefficients))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"coefficient vector must have unit norm, got {norm!r}")

    @staticmethod
    def normalized(kind: str, dim: int, coefficients, degree: int = 1) -> "DefiningFunction":
        """Build a slice from raw coefficients, normalized to unit norm by
        the row normaliser of ``SliceParameterSet.normalized``: the result
        is always valid."""
        c = np.asarray(coefficients, dtype=float).ravel()
        return DefiningFunction(kind, dim, _unit_rows(c[None])[0], degree)


def _power_table(pts: np.ndarray, degree: int) -> np.ndarray:
    """(d, ..., degree + 1, n) table with ``table[j, ..., e, :] = pts[..., :, j] ** e``,
    by repeated products."""
    coords = np.moveaxis(pts, -1, 0)
    table = np.empty(coords.shape[:-1] + (degree + 1, coords.shape[-1]))
    table[..., 0, :] = 1.0
    table[..., 1, :] = coords
    for e in range(2, degree + 1):
        np.multiply(table[..., e - 1, :], coords, out=table[..., e, :])
    return table


def _monomials(table: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """C-ordered (..., M, n) monomials ``prod_j x_j ** exponents[:, j]`` from a power table."""
    out = np.take(table[0], exponents[:, 0], axis=-2)
    for j in range(1, exponents.shape[1]):
        out *= np.take(table[j], exponents[:, j], axis=-2)
    return out


class SliceParameterSet:
    """A finite family of slices of one kind, degree and dim.

    ``coefficients`` is one read-only (S, M) matrix whose rows are the
    slices' unit coefficient vectors, indexed as in ``DefiningFunction``,
    so ``coefficients @ features(points)`` evaluates every slice at once.
    Built from a list of ``DefiningFunction`` objects, or from raw rows by
    ``normalized``.
    """

    def __init__(self, functions) -> None:
        if not functions:
            raise ValueError("slice set must be non-empty")
        first = functions[0]
        for f in functions:
            if not isinstance(f, DefiningFunction):
                raise ValueError("functions must be DefiningFunction instances")
            if (f.kind, f.degree, f.dim) != (first.kind, first.degree, first.dim):
                raise ValueError("slices must share kind, degree and dim")
        self._hold(first.kind, first.dim, first.degree, np.array([f.coefficients for f in functions]))

    @classmethod
    def normalized(cls, kind: str, dim: int, rows, degree: int = 1) -> "SliceParameterSet":
        """The slices of the raw (S, M) coefficient ``rows``, each row
        normalized as ``DefiningFunction.normalized`` normalizes one."""
        rows = np.asarray(rows, dtype=float)
        _check_slice(kind, dim, degree, rows.shape[1:])
        if rows.shape[0] == 0:
            raise ValueError("slice set must be non-empty")
        slices = cls.__new__(cls)
        slices._hold(kind, dim, degree, _unit_rows(rows))
        return slices

    def split(self, size: int) -> list:
        """The set's slices as consecutive sets of ``size``, views of its rows."""
        parts = []
        for start in range(0, self.coefficients.shape[0], size):
            part = SliceParameterSet.__new__(SliceParameterSet)
            part._hold(self.kind, self.dim, self.degree, self.coefficients[start : start + size])
            parts.append(part)
        return parts

    def _hold(self, kind: str, dim: int, degree: int, coefficients: np.ndarray) -> None:
        coefficients.flags.writeable = False
        self.kind, self.dim, self.degree, self.coefficients = kind, dim, degree, coefficients

    def features(self, points: np.ndarray) -> np.ndarray:
        """Feature rows (..., M, n) of the float points (..., n, dim).

        Leading axes stack measures of one atom count; each one's rows
        lie in memory as they would for its points alone.  Linear slices
        use the coordinates themselves, as the transposed view of the
        last two axes; polynomial slices use the monomials of
        ``monomial_exponents(degree, dim)``, gathered from a
        per-coordinate power table.
        """
        if self.kind == "linear":
            return np.swapaxes(points, -1, -2)
        return _monomials(_power_table(points, self.degree), monomial_exponents(self.degree, self.dim))
