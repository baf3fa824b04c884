import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatquant.sensitivity import (
    max_conditional_sensitivity,
    max_sensitivity,
    serial_max_message_distribution,
)

from oracles import conditional_max_sampler, max_partial, sensitivity_monte_carlo


def test_max_sensitivity_power_law():
    prof = max_sensitivity(4)
    xs = np.array([0.0, 0.5, 1.0])
    assert np.allclose(prof(xs), xs**3)
    assert max_sensitivity(1)(0.3) == 1.0


def test_conditional_pieces():
    # n=2 of N=3, received interval [0.25, 0.5].
    prof = max_conditional_sensitivity(2, 3, 0.25, 0.5)
    assert prof(0.1) == 0.0
    # Ramp piece: (x - 0.25)/0.25 * x at x = 0.375.
    assert prof(0.375) == pytest.approx((0.375 - 0.25) / 0.25 * 0.375)
    # Above the interval: plain x^{N-n}.
    assert prof(0.75) == pytest.approx(0.75)
    assert prof.zero_zones == ((0.0, 0.25),)
    assert prof.breakpoints == (0.25, 0.5)


def test_conditional_first_message_has_no_zone():
    prof = max_conditional_sensitivity(3, 4, 0.0, 0.5)
    assert prof.zero_zones == ()
    assert prof(0.25) == pytest.approx((0.25**2 / 0.5**2) * 0.25)


def test_conditional_validation():
    with pytest.raises(ValueError):
        max_conditional_sensitivity(1, 3, 0.0, 0.5)
    with pytest.raises(ValueError):
        max_conditional_sensitivity(2, 3, 0.5, 0.5)


def test_total_expectation_identity():
    # sum_k p_k gamma2_{n|k}(x) = gamma2_n(x) for every x.
    for n, n_sensors, cells in ((2, 2, 2), (3, 4, 2), (4, 4, 4)):
        t = np.linspace(0.0, 1.0, cells + 1)
        probs = serial_max_message_distribution(n, t).probabilities
        xs = np.linspace(0.001, 0.999, 301)
        mix = np.zeros_like(xs)
        for k in range(1, cells + 1):
            prof = max_conditional_sensitivity(n, n_sensors, t[k - 1], t[k])
            mix += probs[k - 1] * np.asarray(prof(xs))
        assert np.allclose(mix, xs ** (n_sensors - 1), atol=1e-6)


def test_message_distribution():
    d = serial_max_message_distribution(3, [0.0, 0.5, 1.0])
    assert np.allclose(d.probabilities, [0.25, 0.75])
    assert d.entropy() == pytest.approx(0.8112781244591328)
    with pytest.raises(ValueError):
        serial_max_message_distribution(1, [0.0, 1.0])
    with pytest.raises(ValueError):
        serial_max_message_distribution(2, [0.0, 0.5, 0.4, 1.0])


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=1, max_value=6),
)
def test_message_distribution_sums_to_one(n, cells):
    t = np.linspace(0.0, 1.0, cells + 1)
    d = serial_max_message_distribution(n, t)
    assert d.probabilities.sum() == pytest.approx(1.0)


def test_monte_carlo_recovers_unconditional_profile():
    n, n_sensors = 2, 3

    def sampler(rng, size):
        return rng.random((size, n_sensors))

    grid = np.linspace(0.05, 0.95, 19)
    means, stderr = sensitivity_monte_carlo(
        max_partial, sampler, n, grid, 4_000, seed=11
    )
    closed = grid ** (n_sensors - 1)
    dev = np.abs(means - closed)
    assert np.all(dev <= 5.0 * np.maximum(stderr, 1e-12))


def test_monte_carlo_conditional_matches_closed_form():
    # One spot check here; the acceptance suite covers the full grid.
    n, n_sensors, s_l, s_u = 3, 4, 0.5, 1.0
    sampler = conditional_max_sampler(n, n_sensors, s_l, s_u)
    grid = np.linspace(0.05, 0.95, 19)
    means, stderr = sensitivity_monte_carlo(
        max_partial, sampler, n, grid, 4_000, seed=3
    )
    closed = np.asarray(max_conditional_sensitivity(n, n_sensors, s_l, s_u)(grid))
    dev = np.abs(means - closed)
    assert np.all(dev <= 5.0 * np.maximum(stderr, 1e-12))


def test_monte_carlo_is_seeded():
    def sampler(rng, size):
        return rng.random((size, 2))

    grid = np.linspace(0.1, 0.9, 5)
    a = sensitivity_monte_carlo(max_partial, sampler, 1, grid, 1_000, seed=5)
    b = sensitivity_monte_carlo(max_partial, sampler, 1, grid, 1_000, seed=5)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
