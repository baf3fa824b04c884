import math

import numpy as np
import pytest

from chatquant.chatnet import ChatNetworkSpec, design_network
from chatquant.distortion import (
    ENTROPY_CONSTRAINED,
    DistortionReport,
    InfeasibleRateError,
    _spec_constants,
    closed_form_max_nochat,
    fixed_rate_betas,
    predict,
)

from oracles import (
    entropy_coding_tables_quad,
    fixed_rate_betas_quad,
    fixed_rate_message_norms_quad,
)


def chat5():
    return ChatNetworkSpec.serial_max(5, 2)


def chat5_entropy():
    return chat5().with_regime("entropy-constrained")


# -- high-resolution MSE of one sensor --------------------------------------
#
# A single sensor has the flat profile gamma^2 = 1, so its optimal point
# density is uniform and its fixed-rate prediction is the plain
# high-resolution MSE 1 / (12 K^2).


def test_hr_mse_uniform():
    spec = ChatNetworkSpec.serial_max(1, 1)
    for rate, mse in ((2.0, 1.0 / 192.0), (0.0, 1.0 / 12.0)):
        assert predict(spec, [rate]).total == pytest.approx(mse)


# -- fixed-rate network forms ----------------------------------------------


def test_first_sensor_beta_closed_form():
    # Unconditional profile x^4: quasi-norm (3/7)^3, beta = (3/7)^3 / 12.
    assert fixed_rate_betas(chat5())[0] == pytest.approx((3.0 / 7.0) ** 3 / 12.0)


FROZEN_BETAS_5 = np.array(
    [0.00655977, 0.00573579, 0.00513236, 0.00468962, 0.00436403]
)


def test_fixed_rate_betas_frozen():
    assert np.allclose(fixed_rate_betas(chat5()), FROZEN_BETAS_5, rtol=1e-5)


def test_betas_shrink_along_chain():
    # Chatting helps later sensors more, so the coefficients decrease.
    betas = fixed_rate_betas(chat5())
    assert np.all(np.diff(betas) < 0)


def test_fixed_rate_chat_matches_moment_table():
    spec = chat5()
    rates = np.array([5.2, 5.1, 5.0, 4.9, 4.8])
    report = predict(spec, rates)
    total = 0.0
    for n, (probs, norms, dc) in enumerate(fixed_rate_message_norms_quad(spec), 1):
        k = 2.0 ** rates[n - 1]
        live = probs > 0
        total += np.sum(
            probs[live] * norms[live] / (12.0 * (k - dc[live]) ** 2)
        )
    assert report.total == pytest.approx(total, rel=1e-12)
    assert report.regime == "fixed-rate"


def test_fixed_rate_chat_infeasible_rate():
    # Sensor 2's second message has one don't-care cell, so a single-cell
    # codebook has no granular cell left.
    with pytest.raises(InfeasibleRateError):
        predict(chat5(), [0.0] * 5)


@pytest.mark.parametrize(
    "rates",
    [
        [-1.0, 4.0],  # half a cell at a sensor with no don't-care cell
        [4.0, math.log2(1.5)],  # half a granular cell beside one don't-care
        [4.0, 0.9],
    ],
)
def test_fixed_rate_below_one_granular_cell(rates):
    # Sensor 2 of a one-bit chain has one don't-care cell on message 2, so
    # it needs 2^R >= 2; sensor 1 has none and needs 2^R >= 1.  The
    # prediction and the design reject the same rates.
    spec = ChatNetworkSpec.serial_max(2, 2)
    with pytest.raises(InfeasibleRateError, match="less than one granular cell"):
        predict(spec, rates)
    with pytest.raises(InfeasibleRateError, match="less than one granular cell"):
        design_network(spec, rates=rates)


def test_fixed_rate_one_granular_cell_is_feasible():
    # Exactly one granular cell, also with the rate taken back from an
    # integer size (2**log2(3) rounds below 3).
    spec = ChatNetworkSpec.serial_max(3, 2)
    for rates in ([0.0, 1.0, 1.0], list(np.log2([1, 3, 3]))):
        report = predict(spec, rates)
        assert np.all(np.isfinite(report.per_sensor_terms))
    assert design_network(spec, rates=[0.0, 1.0, 1.0]).banks.sizes.tolist() == [[1, 0], [2, 2], [2, 2]]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_rates_are_rejected(bad):
    spec = chat5()
    with pytest.raises(ValueError, match="sensor 2: rates must be finite"):
        predict(spec, [5.0, bad, 5.0, 5.0, 5.0])
    ent = spec.with_regime("entropy-constrained")
    for rates in ([5.0, bad, 5.0, 5.0, 5.0], [5.0, [5.0, bad], 5.0, 5.0, 5.0]):
        with pytest.raises(ValueError, match="sensor 2: rates must be finite"):
            predict(ent, rates)


def test_nochat_reduces_to_closed_form_fixed_rate():
    spec = ChatNetworkSpec.serial_max(5, 1)
    report = predict(spec, [4.0] * 5)
    assert report.total == pytest.approx(closed_form_max_nochat(5, 20.0, "fixed-rate"))
    assert report.total == pytest.approx(1.28120445e-4, rel=1e-8)


# -- entropy-constrained network forms --------------------------------------


def entropy_rows(spec):
    """Each sensor's (probs, coefficients, active masses, gate bits), its
    rows of the (N, K) entropy-coding constants cut to the messages it
    can receive."""
    probs, _dc, *values = _spec_constants(spec.with_regime(ENTROPY_CONSTRAINED))
    for n in range(spec.n_sensors):
        k = spec.message_probs(n + 1).size
        yield tuple(a[n, :k] for a in (probs, *values))


def test_entropy_tables_frozen_coefficients():
    _probs, _dc, coeffs, masses, gates = _spec_constants(chat5_entropy())
    assert coeffs[1, 0] == pytest.approx(2.516449e-3, rel=1e-5)
    assert coeffs[1, 1] == pytest.approx(1.526303e-3, rel=1e-5)
    assert coeffs[4, 1] == pytest.approx(2.042407e-3, rel=1e-5)
    assert masses[1, 1] == pytest.approx(0.5)
    assert gates[1, 1] == pytest.approx(1.0)
    # First sensor and first messages see the full support: no gate.
    assert masses[0, 0] == pytest.approx(1.0)
    assert gates[0, 0] == pytest.approx(0.0)
    assert masses[1, 0] == pytest.approx(1.0)


def test_constants_match_quad_oracle():
    # Uniform partitions at every chat rate, and the one-bit partition
    # where it degenerates towards either end.
    cases = [(n, 2**rc, None) for n in range(2, 11) for rc in range(4)]
    cases += [(10, 2, (0.0, p1, 1.0)) for p1 in (1e-4, 0.01, 0.99, 1 - 1e-4)]
    fields = ("probs", "constants", "active_mass", "gate_bits")
    for n, size, bounds in cases:
        spec = ChatNetworkSpec.serial_max(n, size, boundaries=bounds)
        case = f"N={n}, {size} messages, partition {bounds}"
        assert fixed_rate_betas(spec) == pytest.approx(
            fixed_rate_betas_quad(spec), rel=1e-8, abs=0.0
        ), case
        for sensor, (got, want) in enumerate(
            zip(entropy_rows(spec), entropy_coding_tables_quad(spec)), 1
        ):
            for name, value, ref in zip(fields, got, want):
                assert value == pytest.approx(
                    ref, rel=1e-8, abs=0.0
                ), f"{case}, sensor {sensor}, {name}"


def test_entropy_chat_matches_table_sum():
    spec = chat5_entropy()
    rates = np.array([5.0, 5.1, 4.9, 5.2, 4.8])
    report = predict(spec, rates)
    total = 0.0
    for n, (probs, coeffs, masses, gates) in enumerate(entropy_rows(spec), 1):
        for k in range(probs.size):
            if probs[k] <= 0:
                continue
            total += (
                probs[k]
                * coeffs[k]
                * 2.0 ** (-2.0 * (rates[n - 1] - gates[k]) / masses[k])
            )
    assert report.total == pytest.approx(total, rel=1e-12)
    assert report.regime == "entropy-constrained"


def test_entropy_chat_per_message_rates():
    spec = chat5_entropy()
    scalar = predict(spec, [5.0] * 5)
    spread = predict(spec, [[5.0], [5.0, 5.0], [5.0, 5.0], [5.0, 5.0], [5.0, 5.0]])
    assert spread.total == pytest.approx(scalar.total, rel=1e-12)


def test_entropy_chat_gate_infeasible():
    # Message 2 costs a full gate bit at every chatting sensor; a 1-bit
    # rate leaves nothing for the granular code.
    with pytest.raises(InfeasibleRateError):
        predict(chat5_entropy(), [1.0] * 5)


def test_nochat_reduces_to_closed_form_entropy():
    spec = ChatNetworkSpec.serial_max(5, 1, regime="entropy-constrained")
    report = predict(spec, [4.0] * 5)
    assert report.total == pytest.approx(
        closed_form_max_nochat(5, 20.0, "entropy-constrained")
    )
    assert report.total == pytest.approx(2.98106102e-5, rel=1e-8)


# -- the shape of a rate list -----------------------------------------------

RATE_SHAPE_CASES = [
    ("fixed-rate", [5.0, 5.0], "need one rate per sensor"),
    ("fixed-rate", [5.0] * 4, "need one rate per sensor"),
    ("fixed-rate", 5.0, "need one rate per sensor"),
    ("fixed-rate", [5.0, [5.0, 4.0], 5.0], "sensor 2: fixed-rate coding takes one rate"),
    ("entropy-constrained", [5.0, 5.0], "need one rate per sensor"),
    ("entropy-constrained", [5.0] * 4, "need one rate per sensor"),
    ("entropy-constrained", [5.0, [5.0, 5.0, 5.0], 5.0], r"sensor 2: need one rate per message \(2\)"),
    ("entropy-constrained", [5.0, [5.0], 5.0], r"sensor 2: need one rate per message \(2\)"),
    ("entropy-constrained", [[5.0, 5.0], 5.0, 5.0], r"sensor 1: need one rate per message \(1\)"),
    ("entropy-constrained", [5.0, [[5.0, 5.0]], 5.0], "sensor 2: need one rate per message"),
]


@pytest.mark.parametrize("regime, rates, match", RATE_SHAPE_CASES)
def test_rates_of_the_wrong_shape_are_rejected(regime, rates, match):
    # N = 3 behind one-bit chat: sensor 1 hears nothing, sensors 2 and 3
    # hear two messages each.  The prediction and the design read rates
    # through one rule and refuse the same lists.
    spec = ChatNetworkSpec.serial_max(3, 2, regime=regime)
    with pytest.raises(ValueError, match=match):
        predict(spec, rates)
    with pytest.raises(ValueError, match=match):
        design_network(spec, rates=rates)


# -- report plumbing and closed forms ----------------------------------------


def test_report_validation():
    with pytest.raises(ValueError):
        DistortionReport(np.array([-1.0]), -1.0, "fixed-rate")
    with pytest.raises(ValueError):
        DistortionReport(np.array([1.0, 2.0]), 4.0, "fixed-rate")


def test_report_csv_rows():
    rep = DistortionReport(
        np.array([0.3, 0.7]), 1.0, "fixed-rate", ((1, 1, 0.3), (2, 1, 0.7))
    )
    rows = rep.csv_rows()
    assert (1, -1, 0.3) in rows and (2, -1, 0.7) in rows
    assert (1, 1, 0.3) in rows


def test_closed_form_validation():
    with pytest.raises(ValueError):
        closed_form_max_nochat(0, 10.0, "fixed-rate")
    with pytest.raises(ValueError):
        closed_form_max_nochat(3, -1.0, "fixed-rate")
    with pytest.raises(ValueError):
        closed_form_max_nochat(3, 10.0, "variable-rate")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            closed_form_max_nochat(3, bad, "fixed-rate")
    for count in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="integer"):
            closed_form_max_nochat(count, 10.0, "fixed-rate")
    # Budget 0 is valid, and so is a numpy integer count.
    assert closed_form_max_nochat(np.int64(3), 0.0, "fixed-rate") == pytest.approx(
        (3 / 12.0) * (3.0 / 5.0) ** 3
    )


def test_closed_form_monotone_in_budget():
    d = [closed_form_max_nochat(4, c, "fixed-rate") for c in (8.0, 12.0, 16.0)]
    assert d[0] > d[1] > d[2]
