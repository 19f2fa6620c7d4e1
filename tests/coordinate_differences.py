"""Central differences one coordinate at a time: the bitwise oracle of
``verify.central_differences``, and a finite-difference route for tests
whose objectives read a network in place."""

import numpy as np


def coordinate_differences(flat, objective, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of ``objective()`` over the vector ``flat``.

    Each coordinate is moved in place by +eps, then by -2 eps, then
    restored to its saved value.
    """
    fd = np.empty_like(flat)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] += eps
        hi = objective()
        flat[i] -= 2 * eps
        lo = objective()
        fd[i] = (hi - lo) / (2 * eps)
        flat[i] = saved
    return fd
