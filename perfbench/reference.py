"""Independent reference values for the transport workload.

Written from the definitions, sharing no code with ``wavopt``: the
order-k sliced distance is the power mean over slices of the 1-D
distance between the projected samples, and the 1-D distance is the
integral of |F^-1(u) - G^-1(u)|^k over the merged cumulative grid (for
two equal-size uniform samples, the mean over sorted pairs).  The
benchmark compares the program's values with these within a relative
1e-9, and, for the seeds in ``pinned_transport.json``, with the values
the seed commit of the program produced.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np


def monomial_exponents(degree: int, dim: int) -> np.ndarray:
    """Exponent rows in ``combinations_with_replacement`` order (x^3, x^2 y, ...)."""
    return np.array(
        [np.bincount(combo, minlength=dim) for combo in combinations_with_replacement(range(dim), degree)]
    )


def unit(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def poly_features(points: np.ndarray, degree: int) -> np.ndarray:
    """(n, M) monomials of total degree ``degree``, one column per exponent row."""
    exps = monomial_exponents(degree, points.shape[1])
    feats = np.ones((points.shape[0], exps.shape[0]))
    for m, row in enumerate(exps):
        for j, e in enumerate(row):
            for _ in range(e):
                feats[:, m] *= points[:, j]
    return feats


def wk_power_1d(a, wa, b, wb, k: float) -> float:
    """W_k(a, b)^k for weighted samples on R (weights ``None`` means uniform)."""
    if wa is None and wb is None and a.size == b.size:
        return float(np.mean(np.abs(np.sort(a) - np.sort(b)) ** k))
    wa = np.full(a.size, 1.0 / a.size) if wa is None else wa
    wb = np.full(b.size, 1.0 / b.size) if wb is None else wb
    ia, ib = np.argsort(a, kind="stable"), np.argsort(b, kind="stable")
    ca, cb = np.cumsum(wa[ia]) / wa.sum(), np.cumsum(wb[ib]) / wb.sum()
    ca[-1] = cb[-1] = 1.0
    grid = np.union1d(ca, cb)
    seg = np.diff(grid, prepend=0.0)
    qa = a[ia][np.minimum(np.searchsorted(ca, grid), a.size - 1)]
    qb = b[ib][np.minimum(np.searchsorted(cb, grid), b.size - 1)]
    return float(seg @ np.abs(qa - qb) ** k)


def sliced(proj_x: np.ndarray, wx, proj_y: np.ndarray, wy, k: float) -> float:
    """Power mean over the columns (slices) of the per-slice W_k^k."""
    powers = [wk_power_1d(proj_x[:, s], wx, proj_y[:, s], wy, k) for s in range(proj_x.shape[1])]
    return float(np.mean(powers) ** (1.0 / k))
