import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatquant.chatnet import ChatNetworkSpec, build_banks, parse_spec_file
from chatquant.quantizer import _row_quantizer
from chatquant.sensitivity import SensitivityProfile

from oracles import conditional_max_sampler, max_partial, sensitivity_monte_carlo


def test_max_sensitivity_power_law():
    prof = SensitivityProfile(0, 3)
    xs = np.array([0.0, 0.5, 1.0])
    assert np.allclose(prof(xs), xs**3)
    assert SensitivityProfile(0, 0)(0.3) == 1.0
    # Every sensor of a chain without chat, and the first of a chatting
    # one, hears nothing and holds the row (0, N - 1).
    assert ChatNetworkSpec.serial_max(4, 2).conditional_profile(1, 1) == prof
    nochat = parse_spec_file("N = 4\n")
    assert all(nochat.conditional_profile(n, 1) == prof for n in range(1, 5))
    assert parse_spec_file("N = 1\n").conditional_profile(1, 1) == SensitivityProfile(0, 0)


def test_conditional_pieces():
    # n=2 of N=3, received interval [0.25, 0.5].
    prof = SensitivityProfile(1, 1, 0.25, 0.5)
    assert prof(0.1) == 0.0
    # Ramp piece: (x - 0.25)/0.25 * x at x = 0.375.
    assert prof(0.375) == pytest.approx((0.375 - 0.25) / 0.25 * 0.375)
    # Above the interval: plain x^{N-n}.
    assert prof(0.75) == pytest.approx(0.75)
    # The spec's row of sensor 2, message 2 of the quarters partition.
    assert ChatNetworkSpec.serial_max(3, 4).conditional_profile(2, 2) == prof
    # [0, s_l] is the row's one don't-care cell, with codeword s_l.
    edges, codewords = _row_quantizer(prof, np.cbrt, 4)
    assert edges[:2].tolist() == [0.0, 0.25] and codewords[0] == 0.25
    assert build_banks(ChatNetworkSpec.serial_max(3, 4), [[4, 0, 0, 0]] + [[4] * 4] * 2).dont_care[1, 1]


def test_conditional_first_message_has_no_zone():
    prof = SensitivityProfile(2, 1, 0.0, 0.5)
    assert prof(0.25) == pytest.approx((0.25**2 / 0.5**2) * 0.25)
    assert ChatNetworkSpec.serial_max(4, 2).conditional_profile(3, 1) == prof
    edges, codewords = _row_quantizer(prof, np.cbrt, 4)
    assert edges.size == 5 and edges[0] == 0.0 and codewords[0] > 0.0
    assert not build_banks(ChatNetworkSpec.serial_max(4, 2), [[4, 0]] + [[4, 4]] * 3).dont_care[2, 0]


def test_conditional_validation():
    # The first sensor hears no message, so it has no cell.
    with pytest.raises(ValueError, match="hears no message"):
        SensitivityProfile(0, 2, 0.0, 0.5)
    for cell in ((0.5, 0.5), (0.0, 0.0), (0.5, 0.25), (-0.1, 0.5), (0.5, 1.5)):
        with pytest.raises(ValueError, match="degenerate or outside"):
            SensitivityProfile(1, 1, *cell)
    for anc, rest in ((-1, 2), (1, -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            SensitivityProfile(anc, rest, 0.0, 0.5)


def test_total_expectation_identity():
    # sum_k p_k gamma2_{n|k}(x) = gamma2_n(x) for every x.
    for n, n_sensors, cells in ((2, 2, 2), (3, 4, 2), (4, 4, 4)):
        spec = ChatNetworkSpec.serial_max(n_sensors, cells)
        probs = spec.message_probs(n)
        xs = np.linspace(0.001, 0.999, 301)
        mix = np.zeros_like(xs)
        for k in range(1, cells + 1):
            mix += probs[k - 1] * np.asarray(spec.conditional_profile(n, k)(xs))
        assert np.allclose(mix, xs ** (n_sensors - 1), atol=1e-6)


def test_message_distribution():
    spec = ChatNetworkSpec.serial_max(3, 2)
    probs = spec.message_probs(3)
    assert isinstance(probs, np.ndarray)
    assert np.allclose(probs, [0.25, 0.75])
    # The first sensor hears nothing: message 1 for sure.
    assert spec.message_probs(1).tolist() == [1.0]
    with pytest.raises(ValueError):
        ChatNetworkSpec.serial_max(3, 3, boundaries=[0.0, 0.5, 0.4, 1.0])


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=1, max_value=6),
)
def test_message_distribution_sums_to_one(n, cells):
    probs = ChatNetworkSpec.serial_max(n, cells).message_probs(n)
    assert probs.size == cells
    assert probs.sum() == pytest.approx(1.0)


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
    closed = np.asarray(SensitivityProfile(n - 1, n_sensors - n, s_l, s_u)(grid))
    dev = np.abs(means - closed)
    assert np.all(dev <= 5.0 * np.maximum(stderr, 1e-12))


def test_monte_carlo_is_seeded():
    def sampler(rng, size):
        return rng.random((size, 2))

    grid = np.linspace(0.1, 0.9, 5)
    a = sensitivity_monte_carlo(max_partial, sampler, 1, grid, 1_000, seed=5)
    b = sensitivity_monte_carlo(max_partial, sampler, 1, grid, 1_000, seed=5)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
