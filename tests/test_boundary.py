"""The gate's reach near the two LOCC boundaries of the paper's families.

At theta1 = 0 the rotated domino is three-round LOCC, and at alpha3 = 0 the
usd channel is one-way LOCC.  On a ray into either boundary, at distance t,
``lambda_hat`` follows C t^2, so at ``rel_tol`` the gate certifies NOT_LOCC
only above t* = sqrt(rel_tol / C), where lambda_hat / rel_tol = (t / t*)^2.
Below t* it reads FIRST_MOVE_CANDIDATES, which proves nothing.
"""

import math

import pytest

from loccgate import (
    RotatedDominoParams,
    UsdParams,
    VERDICT_FIRST_MOVE_CANDIDATES,
    VERDICT_NOT_LOCC,
    gate_channel,
    rotated_domino_channel,
    usd_channel,
)
from loccgate.gate import DEFAULT_NULLSPACE_RTOL

QUARTER_PI = math.pi / 4


def domino_ray(t: float):
    """The rotated domino at angles (t, pi/4, pi/4, pi/4)."""
    return gate_channel(rotated_domino_channel(RotatedDominoParams((t, QUARTER_PI, QUARTER_PI, QUARTER_PI))))


def usd_ray(s: float):
    """The usd channel at alpha1 = 0.4 and real alpha3 = s, default priors."""
    return gate_channel(usd_channel(UsdParams(0.4, math.sqrt(1 - 0.16), s, math.sqrt(1 - s * s))))


# (ray, C in lambda_hat ~ C t^2).  The usd constant is measured: 0.0725294-0.0725296
# for s from 1e-3 down to 1e-5.
RAYS = [pytest.param(domino_ray, 2 / 3, id="domino"), pytest.param(usd_ray, 0.072529, id="usd")]


@pytest.mark.parametrize("ray, constant", RAYS)
def test_lambda_hat_over_t_squared_tends_to_the_ray_constant(ray, constant):
    for t in (1e-3, 1e-4):
        assert ray(t).lambda_hat / t**2 == pytest.approx(constant, rel=1e-4)


@pytest.mark.parametrize("ray, constant", RAYS)
def test_lambda_hat_has_log_log_slope_two(ray, constant):
    slope = math.log(ray(1e-3).lambda_hat / ray(1e-4).lambda_hat) / math.log(10.0)
    assert slope == pytest.approx(2.0, abs=1e-3)


@pytest.mark.parametrize("ray, constant", RAYS)
def test_verdict_flips_at_the_reach_t_star(ray, constant):
    t_star = math.sqrt(DEFAULT_NULLSPACE_RTOL / constant)  # ~3.9e-7 on the domino ray, ~1.2e-6 on usd
    outside, inside = ray(2 * t_star), ray(t_star / 2)
    assert outside.verdict == VERDICT_NOT_LOCC
    assert outside.lambda_hat / DEFAULT_NULLSPACE_RTOL == pytest.approx(4.0, rel=1e-3)
    assert inside.verdict == VERDICT_FIRST_MOVE_CANDIDATES
    assert inside.lambda_hat < DEFAULT_NULLSPACE_RTOL
