"""The per-slice route: one slice's values at the atoms, written out from
the monomials, and the canonical one-dimensional measure they carry.

The test oracle of the batched sliced engine, which projects every
slice of a block with one product of coefficient and feature rows."""

import numpy as np

from wavopt.measures import monomial_exponents, one_d_measure


def evaluate(coefficients, degree: int, points) -> np.ndarray:
    """beta(points) = sum_alpha coefficients[alpha] * x^alpha, (n, d) -> (n,).

    The degree-1 exponents are the identity, so a linear slice is
    ``points @ coefficients`` up to round-off.
    """
    pts = np.asarray(points, dtype=float)
    exps = monomial_exponents(degree, pts.shape[1])
    return np.prod(pts[:, None, :] ** exps[None, :, :], axis=2) @ coefficients


def project(measure, coefficients, degree: int):
    """``measure`` pushed through one slice, canonicalized by ``one_d_measure``."""
    return one_d_measure(evaluate(coefficients, degree, measure.atoms), measure.weights)
