"""Dual-route checks on instances that once landed on a ReLU kink."""

import pytest

from wavopt.verify import check_gradients


@pytest.mark.parametrize("seed", [17008, 63001])
def test_gradient_checks_avoid_relu_kinks(seed):
    # quick sizes: actor instance 17210 and critic instance 63103 sit
    # within the finite-difference step of a ReLU kink at attempt 0
    result = check_gradients(12, seed)
    assert result.passed, result.line()
