"""Control-as-inference utilities: reward-to-optimality operators,
optimality likelihoods and likelihood-ratio interpretation.

A *reward operator family* F_r maps an optimality probability p in
(0, 1] to a reward value in [r_min, r_max].  Two stock constructions:

* ``affine_family``  - F(p) = r_min + (r_max - r_min) p
* ``log_family``     - F(p) = r_max + c log p with c chosen so that
  F(PROBABILITY_FLOOR) = r_min, the floor being 1e-6 (the classical
  exponential-of-reward model, inverted)

An admissible family is strictly increasing on the probability domain,
covers the full reward range and carries its closed-form inverse.
``optimality_likelihood`` inverts the operator on an array of rewards,
clipping out-of-range rewards (recorded per entry, never silent) and
flooring the returned probabilities at 1e-9 so downstream
log-likelihoods stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "LIKELIHOOD_FLOOR",
    "PROBABILITY_FLOOR",
    "RATIO_CAP",
    "RewardOperatorFamily",
    "affine_family",
    "log_family",
    "optimality_likelihood",
    "InterpretationFactor",
    "decompose_interpretation",
]

PROBABILITY_FLOOR = 1e-6
LIKELIHOOD_FLOOR = 1e-9
# p(traj|factor) is a probability: displayed values cap at 1, flagged
RATIO_CAP = 1.0


# -- reward operator families -------------------------------------------------


@dataclass(eq=False)
class RewardOperatorFamily:
    """Monotone map from optimality probability to reward.

    ``fn`` maps probabilities to rewards and ``inv`` is its closed-form
    inverse; both must accept numpy arrays.  ``inv`` may be left out for
    a family that is only evaluated, never inverted (the non-monotone
    control of ``verify.check_improvement``).  The exact improvement
    oracle evaluates every family on [``PROBABILITY_FLOOR``, 1].
    """

    name: str
    r_min: float
    r_max: float
    fn: Callable[[np.ndarray], np.ndarray]
    inv: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        if not self.r_max > self.r_min:
            raise ValueError("reward range must have r_max > r_min")

    def __call__(self, p) -> np.ndarray:
        return self.fn(np.asarray(p, dtype=float))

    def inverse(self, r) -> np.ndarray:
        """Probability p with F(p) = r.

        Expects rewards inside [r_min, r_max] (``optimality_likelihood``
        clips them there first) and does not clip its result: the stock
        inverses map that range into [0, 1].
        """
        if self.inv is None:
            raise ValueError(f"operator family {self.name!r} has no inverse")
        return self.inv(np.asarray(r, dtype=float))


def affine_family(r_min: float, r_max: float) -> RewardOperatorFamily:
    span = r_max - r_min
    return RewardOperatorFamily(
        name="affine",
        r_min=r_min,
        r_max=r_max,
        fn=lambda p: r_min + span * np.asarray(p, dtype=float),
        inv=lambda r: (np.asarray(r, dtype=float) - r_min) / span,
    )


def log_family(r_min: float, r_max: float) -> RewardOperatorFamily:
    # F(1) = r_max and F(floor) = r_min: c = span / (-log floor)
    span = r_max - r_min
    c = span / (-math.log(PROBABILITY_FLOOR))
    return RewardOperatorFamily(
        name="log",
        r_min=r_min,
        r_max=r_max,
        fn=lambda p: r_max + c * np.log(np.asarray(p, dtype=float)),
        inv=lambda r: np.exp((np.asarray(r, dtype=float) - r_max) / c),
    )


def optimality_likelihood(family: RewardOperatorFamily, rewards):
    """Invert the operator on an array: rewards -> optimality probabilities.

    Rewards outside [r_min, r_max] are clipped to the range first; the
    returned probabilities are floored at 1e-9.  Returns ``(p, clipped)``,
    two arrays of the rewards' shape, ``clipped`` flagging each entry
    that was clipped.
    """
    r = np.asarray(rewards, dtype=float)
    lo, hi = family.r_min, family.r_max
    clipped = (r < lo) | (r > hi)
    # np.minimum(np.maximum(.)) in place of np.clip, at half the call
    # cost: it differs only by turning a -0.0 reward at r_min = 0 into
    # +0.0, which the stock inverses map to the same probability
    p = np.maximum(family.inverse(np.minimum(np.maximum(r, lo), hi)), LIKELIHOOD_FLOOR)
    return p, clipped


# -- interpretation ------------------------------------------------------------


@dataclass
class InterpretationFactor:
    """How much more (or less) likely the trajectory is than one factor.

    ``ratio`` is the raw quotient used for exact reconstruction;
    ``capped_ratio`` is clamped to RATIO_CAP for display, with ``capped``
    recording when clamping (or a zero denominator) occurred.
    """

    name: str
    probability: float
    ratio: float
    capped_ratio: float
    capped: bool

    def reconstruct(self) -> float:
        return self.ratio * self.probability


def decompose_interpretation(
    p_trajectory: float,
    factor_probabilities,
    names: Optional[Sequence[str]] = None,
) -> list[InterpretationFactor]:
    """Per-factor likelihood ratios p(traj) / p(factor).

    The raw ratio reconstructs the trajectory probability exactly
    (``ratio * probability == p_trajectory`` up to one rounding).
    The quotient of two estimated probabilities can exceed 1; the
    displayed value is capped there (``RATIO_CAP``) with a flag rather than
    silently clipped, since p(traj|factor) is itself a probability.  Every input
    must be a finite probability: p_trajectory in [0, 1] and each factor
    probability in (0, 1], given as a non-empty 1-D list.
    """
    probs = np.asarray(factor_probabilities, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise ValueError(f"factor probabilities must be a non-empty 1-D list, got shape {probs.shape}")
    # a few factors: Python floats check faster than numpy reductions
    probs = probs.tolist()
    if names is None:
        names = [f"factor_{i}" for i in range(len(probs))]
    if len(names) != len(probs):
        raise ValueError("one name per factor required")
    if not (math.isfinite(p_trajectory) and all(map(math.isfinite, probs))):
        raise ValueError("probabilities must be finite")
    if not 0.0 <= p_trajectory <= 1.0:
        raise ValueError(f"p_trajectory {p_trajectory!r} is outside [0, 1]")
    if not all(0.0 < pi <= 1.0 for pi in probs):
        raise ValueError("factor probabilities must lie in (0, 1]")
    out = []
    for name, pi in zip(names, probs):
        ratio = p_trajectory / pi
        capped = ratio > RATIO_CAP
        out.append(InterpretationFactor(name, pi, ratio, min(ratio, RATIO_CAP), capped))
    return out
