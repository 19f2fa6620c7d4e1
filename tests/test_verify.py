"""Dual-route checks on instances that once landed on a ReLU kink."""

import pytest

from wavopt.verify import check_gradients, check_transport_vs_oracle


@pytest.mark.parametrize("seed", [17008, 63001])
def test_gradient_checks_avoid_relu_kinks(seed):
    # quick sizes: actor instance 17210 and critic instance 63103 sit
    # within the finite-difference step of a ReLU kink at attempt 0
    result = check_gradients(12, seed)
    assert result.passed, result.line()


def test_transport_check_is_not_limited_by_the_lp_tolerance():
    # pass 42 of the verify benchmark at --seed 272: at HiGHS's default
    # 1e-7 feasibility tolerance one LP value was off by 7.3e-9 (> 1e-9)
    result = check_transport_vs_oracle(120, 272042)
    assert result.passed, result.line()
