import numpy as np
import pytest

from chatquant.chatnet import (
    ChatEdge,
    ChatGraph,
    ChatNetworkSpec,
    Schedule,
    build_banks,
    design_network,
    parse_spec_file,
)
from chatquant.quantizer import Quantizer
from chatquant.simulator import (
    CHUNK,
    decode,
    measure_entropy_rate,
    replay_codebooks,
    run_simulation,
)
from chatquant.simulator import _Protocol, _ce_max

from oracles import ce_max_all_sensors

PLUG_IN = "plug-in"
CE = "conditional-expectation"


def chain(n, size, **kw):
    return ChatNetworkSpec.serial_max(n, size, **kw)


def test_seed_reproducibility():
    spec = chain(3, 2)
    banks = build_banks(spec, [8, 8, 8])
    a = run_simulation(spec, banks, PLUG_IN, trials=20_000, seed=42)
    b = run_simulation(spec, banks, PLUG_IN, trials=20_000, seed=42)
    c = run_simulation(spec, banks, PLUG_IN, trials=20_000, seed=43)
    assert a.empirical_fmse == b.empirical_fmse
    assert a.empirical_fmse != c.empirical_fmse


def test_worker_count_is_invisible():
    spec = chain(2, 2)
    banks = build_banks(spec, [8, 8])
    trials = 2 * CHUNK + 1_000
    for decoder in (PLUG_IN, CE):
        solo = run_simulation(spec, banks, decoder, trials=trials, seed=9, workers=1)
        pooled = run_simulation(spec, banks, decoder, trials=trials, seed=9, workers=4)
        assert solo.empirical_fmse == pooled.empirical_fmse
        assert solo.stderr == pooled.stderr


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_count_below_one_is_rejected(workers):
    spec = chain(2, 2)
    banks = build_banks(spec, [8, 8])
    with pytest.raises(ValueError, match="worker"):
        run_simulation(spec, banks, PLUG_IN, trials=1_000, seed=0, workers=workers)


def test_trial_count_extends_the_stream():
    # The first chunk is shared, so short and long runs agree on it.
    spec = chain(2, 2)
    banks = build_banks(spec, [8, 8])
    short = run_simulation(spec, banks, PLUG_IN, trials=CHUNK, seed=3)
    long = run_simulation(spec, banks, PLUG_IN, trials=2 * CHUNK, seed=3)
    assert short.empirical_fmse != long.empirical_fmse
    assert short.trials == CHUNK and long.trials == 2 * CHUNK


def test_conditional_expectation_dominates_plug_in():
    spec = chain(3, 2)
    banks = build_banks(spec, [8, 8, 8])
    pi = run_simulation(spec, banks, PLUG_IN, trials=100_000, seed=1)
    ce = run_simulation(spec, banks, CE, trials=100_000, seed=1)
    assert ce.empirical_fmse < pi.empirical_fmse


def test_ce_decoder_closed_form_cell():
    # Two sensors, both reporting the cell (0, 1/2]: E[max] = 1/3 exactly.
    spec = parse_spec_file("N = 2\n")
    q = Quantizer((0.0, 0.5, 1.0), (0.25, 0.75))
    banks = {1: {1: q}, 2: {1: q}}
    assert decode(CE, [1, 1], banks, spec) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert decode(PLUG_IN, [1, 1], banks, spec) == pytest.approx(0.25)
    # Mixed cells: the max is the high sensor's value unless the low one
    # passes it, E[max | X1 in (1/2,1], X2 in (0,1/2]] = E[X1] = 3/4.
    assert decode(CE, [2, 1], banks, spec) == pytest.approx(0.75, abs=1e-12)
    with pytest.raises(ValueError):
        decode("maximum-likelihood", [1, 1], banks, spec)


def _cells(rng, trials, n):
    """Random (lo, hi) cell edges in [0, 1], with rows forced to one
    overlapping sensor, rows forced to all N overlapping, and rows where
    some cells end exactly at the largest lower edge."""
    lo = rng.random((trials, n)) * 0.9
    hi = lo + (0.05 + 0.95 * rng.random((trials, n))) * (1.0 - lo)
    third = trials // 3
    # K = 1: sensor 1 starts at 0.6, every other cell ends at or below it.
    one = slice(0, third)
    lo[one, 0] = 0.6
    hi[one, 0] = 0.6 + 0.4 * (0.05 + 0.95 * rng.random(third))
    hi[one, 1:] = 0.6 * (0.05 + 0.95 * rng.random((third, n - 1)))
    hi[one, n - 1] = 0.6
    lo[one, 1:] = hi[one, 1:] * rng.random((third, n - 1))
    # K = N: every cell starts at or below 0.5, one exactly, all end above.
    full = slice(third, 2 * third)
    lo[full] = 0.5 * rng.random((third, n))
    lo[full, n - 1] = 0.5
    hi[full] = 0.5 + 0.5 * (0.05 + 0.95 * rng.random((third, n)))
    # The rest: the first sensor below the largest lower edge ends on it.
    rest = np.arange(2 * third, trials)
    left = lo[rest].max(axis=1)
    below = lo[rest, 0] < left
    hi[rest[below], 0] = left[below]
    return lo, hi


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_ce_max_matches_all_sensor_oracle(n):
    spec = parse_spec_file(f"N = {n}\n")
    lo, hi = _cells(np.random.default_rng(n), 3_000, n)
    k_of = (hi > lo.max(axis=1)[:, None]).sum(axis=1)
    assert k_of.min() == 1 and k_of.max() == n
    got = _ce_max(spec, lo, hi)
    want = ce_max_all_sensors(spec.source.cdf, lo, hi)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    assert np.all((got >= lo.max(axis=1)) & (got <= hi.max(axis=1)))


def test_silent_chat_equals_no_chat():
    # A one-cell chat partition carries no information; the run must be
    # bit-identical to the edgeless network under the same seed.
    chatty = chain(2, 1)
    silent = parse_spec_file("N = 2\n")
    banks_a = build_banks(chatty, [6, 6])
    banks_b = build_banks(silent, [6, 6])
    a = run_simulation(chatty, banks_a, CE, trials=30_000, seed=5)
    b = run_simulation(silent, banks_b, CE, trials=30_000, seed=5)
    assert a.empirical_fmse == b.empirical_fmse
    assert a.stderr == b.stderr


def test_chat_messages_track_codeword_cells():
    # Along the chain the incoming message must equal the running max of
    # the chat cells of the transmitted codewords, per the table rule.
    spec = chain(4, 4)
    banks = build_banks(spec, [8, 8, 8, 8])
    proto = _Protocol(spec, banks)
    rng = np.random.default_rng(11)
    x = rng.random((5_000, 4))
    indices, incoming = proto.encode(x)
    t = np.asarray(spec.shared_partition())
    cw_cell = np.zeros_like(indices)
    for n in range(1, 5):
        for k, q in banks[n].items():
            rows = incoming[:, n - 1] == k
            cws = np.asarray(q.codewords)[indices[rows, n - 1] - 1]
            cells = np.maximum(np.searchsorted(t, cws, side="left"), 1)
            cw_cell[rows, n - 1] = cells
    running = np.maximum.accumulate(cw_cell, axis=1)
    assert np.array_equal(incoming[:, 1:], running[:, :-1])


def test_replay_matches_encoder():
    spec = chain(4, 2)
    banks = build_banks(spec, [8, 8, 8, 8])
    proto = _Protocol(spec, banks)
    rng = np.random.default_rng(2)
    x = rng.random((20_000, 4))
    indices, incoming = proto.encode(x)
    replayed = replay_codebooks(spec, banks, indices)
    assert np.array_equal(replayed, incoming)


def test_entropy_rate_split_coding_example():
    # Half the mass in one don't-care cell, the rest uniform over 8 cells:
    # H_B(1/2) + (1/2) log2 8 = 2.5 bits.
    spec = parse_spec_file("N = 1\n")
    edges = (0.0, 0.5) + tuple(0.5 + (i + 1) / 16.0 for i in range(8))
    codewords = (0.5,) + tuple(0.5 + (2 * i + 1) / 32.0 for i in range(8))
    q = Quantizer(edges, codewords, frozenset({1}))
    rates = measure_entropy_rate(spec, {1: {1: q}}, trials=100_000, seed=1)
    assert rates[(1, 1)] == pytest.approx(2.5, abs=0.02)


def test_fixed_rate_design_meets_prediction_loosely():
    # The tight tolerance run lives in the acceptance suite.
    spec = chain(3, 2)
    design = design_network(spec, budget=12.0)
    res = run_simulation(
        spec,
        design.banks,
        PLUG_IN,
        trials=200_000,
        seed=0,
        predicted=design.predicted.total,
    )
    assert abs(res.empirical_fmse - res.predicted_fmse) < 0.1 * res.predicted_fmse


def test_entropy_regime_reports_measured_rates():
    spec = chain(3, 2, regime="entropy-constrained")
    design = design_network(spec, budget=12.0)
    res = run_simulation(spec, design.banks, PLUG_IN, trials=30_000, seed=0)
    assert res.empirical_rates.shape == (3,)
    assert np.all(res.empirical_rates > 0)
    # Entropy coding never spends more than the flat index length.
    flat = [np.log2(max(q.size for q in design.banks[n].values())) for n in (1, 2, 3)]
    assert np.all(res.empirical_rates <= np.asarray(flat) + 1e-9)


def test_fixed_rate_reports_codebook_rates():
    spec = chain(2, 2)
    banks = build_banks(spec, [8, 16])
    res = run_simulation(spec, banks, PLUG_IN, trials=1_000, seed=0)
    assert np.allclose(res.empirical_rates, [3.0, 4.0])


def test_result_csv_row():
    spec = chain(2, 2)
    banks = build_banks(spec, [8, 8])
    res = run_simulation(spec, banks, PLUG_IN, trials=1_000, seed=0)
    row = res.csv_row(2, 1, 8.0)
    assert row[0] == spec.spec_hash()
    assert row[1] == "fixed-rate"
    assert row[2:5] == [1, 8.0, 2]
    no_pred = res.csv_row(2, None, None)
    assert no_pred[2] == "" and no_pred[3] == "" and no_pred[7] == ""


def test_simulation_input_validation():
    spec = chain(2, 2)
    banks = build_banks(spec, [8, 8])
    for trials in (0, -5):
        with pytest.raises(ValueError, match="trial"):
            run_simulation(spec, banks, PLUG_IN, trials=trials)
        with pytest.raises(ValueError, match="trial"):
            measure_entropy_rate(spec, banks, trials=trials)
    with pytest.raises(ValueError):
        run_simulation(spec, {1: banks[1]}, PLUG_IN, trials=10)
    with pytest.raises(ValueError):
        run_simulation(spec, {1: banks[1], 2: {1: banks[2][1]}}, PLUG_IN, trials=10)
    fan_out = ChatNetworkSpec(
        3,
        spec.source,
        ChatGraph((1, 2, 3), (ChatEdge(1, 2, 2), ChatEdge(1, 3, 2))),
        Schedule(((1, 2), (1, 3))),
        (1.0, 1.0, 1.0),
        {(1, 2): (0.0, 0.5, 1.0), (1, 3): (0.0, 0.5, 1.0)},
    )
    with pytest.raises(ValueError):
        run_simulation(fan_out, build_banks(fan_out, [4, 4, 4]), PLUG_IN, trials=10)
