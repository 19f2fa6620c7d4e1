"""Synthetic learning curves with a known convergence exponent, for the
``fit_rate`` tests."""

from typing import Optional

import numpy as np


def synthetic_recovery_curve(
    alpha: float,
    episodes: int = 2000,
    optimum: float = 0.0,
    scale: float = 240.0,
    plateau_start: Optional[int] = None,
) -> np.ndarray:
    """Reference curve optimum - scale * e^(-alpha) with an exact final plateau.

    The plateau pins the smoothed maximum at the optimum, so the gaps
    seen by ``fit_rate`` follow the pure power law over the whole fit
    domain.
    """
    if plateau_start is None:
        plateau_start = int(episodes * 0.95)
    e = np.arange(1, episodes + 1, dtype=float)
    y = optimum - scale * e ** (-alpha)
    y[e >= plateau_start] = optimum
    return y
