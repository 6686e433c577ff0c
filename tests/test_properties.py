"""Property tests of the paper's identities over extreme scales (hypothesis)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rkmpc.policy import SIGMA_FLOOR, PolicyParams, _check_values, mirror_inverse, mirror_map
from rkmpc.weights import WeightConfig, signed_log_weights

MEANS = st.floats(-1e3, 1e3)
SCALES = st.floats(1e-6, 1e3)


def params_1d(mu, sigma):
    return PolicyParams(np.array([[mu]]), np.array([[sigma]]))


@settings(deadline=None)
@given(mu=MEANS, sigma=SCALES, mu_ref=MEANS, sigma_ref=SCALES)
def test_mirror_round_trip(mu, sigma, mu_ref, sigma_ref):
    ref, theta = params_1d(mu_ref, sigma_ref), params_1d(mu, sigma)
    back_mu, back_sigma = mirror_inverse(*mirror_map(theta.mu, theta.sigma, ref.sigma), ref.sigma)
    assert back_mu[0, 0] == pytest.approx(mu, rel=1e-9, abs=1e-12)
    assert back_sigma[0, 0] == pytest.approx(sigma, rel=1e-9)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


@settings(deadline=None)
@given(
    mu=st.lists(MEANS, min_size=4, max_size=4),
    sigma=st.lists(SCALES, min_size=4, max_size=4),
    sigma_ref=st.lists(SCALES, min_size=4, max_size=4),
)
def test_side_stacked_mirror_round_trip_has_the_per_side_bits(mu, sigma, sigma_ref):
    # both policy sides, (2, A, H) = (2, 1, 2), against one (A, H) side at a time
    mu, sigma, sigma_ref = (np.reshape(x, (2, 1, 2)) for x in (mu, sigma, sigma_ref))
    stacked = mirror_inverse(*mirror_map(mu, sigma, sigma_ref), sigma_ref)
    for k in (0, 1):
        one = mirror_inverse(*mirror_map(mu[k], sigma[k], sigma_ref[k]), sigma_ref[k])
        assert same_bits(stacked[0][k], one[0]) and same_bits(stacked[1][k], one[1])


@settings(deadline=None)
@given(
    backend=st.sampled_from(["cem", "mppi"]),
    beta=st.floats(0.0, 1.0),
    quantile=st.floats(0.01, 0.99),
    offset=st.floats(-1e12, 1e12),
    log_spread=st.floats(-12.0, 12.0),
    unit=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=64),
)
# A subnormal beta makes beta * quantile underflow to 0; CEM still keeps one elite.
@example(backend="cem", beta=5e-324, quantile=0.5, offset=0.0, log_spread=0.0, unit=[0.0, 0.0])
def test_signed_weight_sum_at_extreme_cost_spreads(backend, beta, quantile, offset, log_spread, unit):
    J = offset + 10.0**log_spread * np.array(unit)
    config = WeightConfig(backend=backend, quantile=quantile, beta=beta)
    n = J.size
    assert signed_log_weights(J, config).sum() == pytest.approx((1.0 - beta) * n, abs=1e-9 * n)


@settings(deadline=None)
@given(
    bad=st.sampled_from([-np.inf, np.inf, np.nan]),
    in_sigma=st.booleans(),
    index=st.tuples(st.integers(0, 1), st.integers(0, 2)),
    sigma_ref=SCALES,
)
def test_nonfinite_mirror_point_rejected(bad, in_sigma, index, sigma_ref):
    ref = PolicyParams(np.zeros((2, 3)), np.full((2, 3), sigma_ref))
    z_mu, z_sigma = mirror_map(ref.mu, ref.sigma, ref.sigma)
    (z_sigma if in_sigma else z_mu)[index] = bad
    with pytest.raises(ValueError, match="mirror point entries must be finite"):
        mirror_inverse(z_mu, z_sigma, ref.sigma)


EDGE_VALUES = [math.nan, math.inf, -math.inf, 1e308, -1e308, SIGMA_FLOOR, math.nextafter(SIGMA_FLOOR, 0.0), 0.0]
VALUES = st.one_of(st.sampled_from(EDGE_VALUES), st.floats())


@settings(deadline=None)
@given(
    mu=st.lists(VALUES, min_size=1, max_size=6),
    sigma=st.lists(VALUES, min_size=1, max_size=6),
    stacked=st.booleans(),
)
@example(mu=[1e308, -1e308], sigma=[1e308, SIGMA_FLOOR], stacked=True)  # huge but finite passes
@example(mu=[0.0], sigma=[math.nextafter(SIGMA_FLOOR, 0.0)], stacked=False)
@example(mu=[0.0, math.nan], sigma=[1.0], stacked=False)
@example(mu=[-math.inf], sigma=[1.0], stacked=True)
@example(mu=[0.0], sigma=[math.inf], stacked=False)
def test_value_rule_of_every_policy(mu, sigma, stacked):
    # mu finite; sigma finite and >= SIGMA_FLOOR; checked element by element here
    def array(values):
        return np.reshape(values, (1, 1, -1) if stacked else (1, -1))

    mu_ok = all(math.isfinite(v) for v in mu)
    sigma_ok = all(math.isfinite(v) and v >= SIGMA_FLOOR for v in sigma)
    if mu_ok and sigma_ok:
        _check_values(array(mu), array(sigma), "prev.")
    else:
        name = "mu must be finite$" if not mu_ok else f"sigma must be finite and >= {SIGMA_FLOOR}$"
        with pytest.raises(ValueError, match=rf"^prev\.{name}"):
            _check_values(array(mu), array(sigma), "prev.")
