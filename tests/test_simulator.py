import functools
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatquant import simulator
from chatquant.chatnet import (
    ChatNetworkSpec,
    SpecFormatError,
    build_banks,
    design_network,
    parse_spec_file,
)
from chatquant.quantizer import CodebookTable, Quantizer
from chatquant.simulator import (
    CHUNK,
    decode,
    replay_codebooks,
    run_simulation,
)
from chatquant.simulator import (
    _counts,
    _Encoder,
    _Protocol,
    _ce_max,
    _chunk_blocks,
    _estimate,
)

from oracles import (
    bank_table,
    cell_bounds_mask_loop,
    ce_max_all_sensors,
    codebooks,
    encode_mask_loop,
    index_histograms,
    row_entropies,
    whole_chunk_simulation,
)

PLUG_IN = "plug-in"
CE = "conditional-expectation"
SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def chain(n, size, **kw):
    return ChatNetworkSpec.serial_max(n, size, **kw)


def test_seed_reproducibility():
    spec = chain(3, 2)
    table = build_banks(spec, [8, 8, 8])
    a = run_simulation(spec, table, PLUG_IN, trials=20_000, seed=42)
    b = run_simulation(spec, table, PLUG_IN, trials=20_000, seed=42)
    c = run_simulation(spec, table, PLUG_IN, trials=20_000, seed=43)
    assert a.empirical_fmse == b.empirical_fmse
    assert a.empirical_fmse != c.empirical_fmse


def test_worker_count_is_invisible():
    fixed = chain(2, 2)
    entropy = chain(3, 2, regime="entropy-constrained")
    trials = 2 * CHUNK + 1_000
    for spec, table in (
        (fixed, build_banks(fixed, [8, 8])),
        (entropy, design_network(entropy, budget=12.0).banks),
    ):
        for decoder in (PLUG_IN, CE):
            solo = run_simulation(spec, table, decoder, trials=trials, seed=9, workers=1)
            pooled = run_simulation(spec, table, decoder, trials=trials, seed=9, workers=4)
            assert solo.empirical_fmse == pooled.empirical_fmse
            assert solo.stderr == pooled.stderr
            assert np.array_equal(solo.empirical_rates, pooled.empirical_rates)


    # Workers that do not divide the chunks, and more workers than chunks;
    # the last of four chunks holds 17 trials.
    trials = 3 * CHUNK + 17
    for spec, table in (
        (fixed, build_banks(fixed, [8, 8])),
        (entropy, design_network(entropy, budget=12.0).banks),
    ):
        for decoder in (PLUG_IN, CE):
            solo = run_simulation(spec, table, decoder, trials=trials, seed=9, workers=1)
            for workers in (3, 7):
                pooled = run_simulation(
                    spec, table, decoder, trials=trials, seed=9, workers=workers
                )
                assert solo.empirical_fmse == pooled.empirical_fmse
                assert solo.stderr == pooled.stderr
                assert np.array_equal(solo.empirical_rates, pooled.empirical_rates)


class _InlineThread:
    """Stands in for ``threading.Thread``: counts the threads a run asks
    for and runs each target in the calling thread when started."""

    started = 0

    def __init__(self, target, args=()):
        self._run = functools.partial(target, *args)

    def start(self):
        type(self).started += 1
        self._run()

    def join(self, timeout=None):
        pass


@pytest.mark.parametrize("workers", [1, 2, 7, 64])
def test_calling_thread_is_a_worker(workers, monkeypatch):
    # The caller is worker 0 and workers are capped at the chunk count,
    # so a run starts min(workers, chunks) - 1 threads.
    spec = chain(2, 2)
    table = build_banks(spec, [8, 8])
    monkeypatch.setattr(simulator.threading, "Thread", _InlineThread)
    for chunks, trials in ((1, 1_000), (2, CHUNK + 10), (3, 2 * CHUNK + 10)):
        want = run_simulation(spec, table, PLUG_IN, trials=trials, seed=2)
        _InlineThread.started = 0
        got = run_simulation(spec, table, PLUG_IN, trials=trials, seed=2, workers=workers)
        assert _InlineThread.started == min(workers, chunks) - 1
        assert got.empirical_fmse == want.empirical_fmse
        assert got.stderr == want.stderr


def test_caller_runs_chunk_zero(monkeypatch):
    spec = chain(2, 2)
    table = build_banks(spec, [8, 8])
    ran_on = {}
    blocks = simulator._chunk_blocks

    def recorded(spec, proto, trials, seed, c):
        ran_on[c] = threading.get_ident()
        return blocks(spec, proto, trials, seed, c)

    monkeypatch.setattr(simulator, "_chunk_blocks", recorded)
    run_simulation(spec, table, PLUG_IN, trials=2 * CHUNK + 10, seed=0, workers=2)
    # Worker 0 runs chunks 0 and 2, worker 1 chunk 1.
    caller = threading.get_ident()
    assert ran_on[0] == caller and ran_on[2] == caller
    assert ran_on[1] != caller


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_worker_errors_reach_the_caller(workers, monkeypatch):
    spec = chain(2, 2)
    table = build_banks(spec, [8, 8])
    blocks = simulator._chunk_blocks

    def failing(spec, proto, trials, seed, c):
        if c == 1:
            raise RuntimeError("chunk 1 failed")
        return blocks(spec, proto, trials, seed, c)

    monkeypatch.setattr(simulator, "_chunk_blocks", failing)
    running = threading.active_count()
    with pytest.raises(RuntimeError, match="chunk 1 failed"):
        run_simulation(spec, table, CE, trials=3 * CHUNK, seed=0, workers=workers)
    # Every worker thread has ended when the error reaches the caller.
    assert threading.active_count() == running


def test_workers_under_fast_thread_switching():
    # More workers than cores, switching threads as often as the
    # interpreter allows: every chunk's part still lands in its slot.
    spec = chain(2, 2)
    table = build_banks(spec, [8, 8])
    trials = 6 * CHUNK
    want = run_simulation(spec, table, CE, trials=trials, seed=3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            got = run_simulation(spec, table, CE, trials=trials, seed=3, workers=5)
            assert (got.empirical_fmse, got.stderr) == (want.empirical_fmse, want.stderr)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_count_below_one_is_rejected(workers):
    spec = chain(2, 2)
    table = build_banks(spec, [8, 8])
    with pytest.raises(ValueError, match="worker"):
        run_simulation(spec, table, PLUG_IN, trials=1_000, seed=0, workers=workers)


def test_trial_count_extends_the_stream():
    # The first chunk is shared, so short and long runs agree on it.
    spec = chain(2, 2)
    table = build_banks(spec, [8, 8])
    short = run_simulation(spec, table, PLUG_IN, trials=CHUNK, seed=3)
    long = run_simulation(spec, table, PLUG_IN, trials=2 * CHUNK, seed=3)
    assert short.empirical_fmse != long.empirical_fmse
    assert short.trials == CHUNK and long.trials == 2 * CHUNK


def test_conditional_expectation_dominates_plug_in():
    spec = chain(3, 2)
    table = build_banks(spec, [8, 8, 8])
    pi = run_simulation(spec, table, PLUG_IN, trials=100_000, seed=1)
    ce = run_simulation(spec, table, CE, trials=100_000, seed=1)
    assert ce.empirical_fmse < pi.empirical_fmse


def test_ce_decoder_closed_form_cell():
    # Two sensors, both reporting the cell (0, 1/2]: E[max] = 1/3 exactly.
    spec = parse_spec_file("N = 2\n")
    q = Quantizer((0.0, 0.5, 1.0), (0.25, 0.75))
    table = bank_table({1: {1: q}, 2: {1: q}})
    assert decode(CE, [1, 1], table, spec) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert decode(PLUG_IN, [1, 1], table, spec) == pytest.approx(0.25)
    # Mixed cells: the max is the high sensor's value unless the low one
    # passes it, E[max | X1 in (1/2,1], X2 in (0,1/2]] = E[X1] = 3/4.
    assert decode(CE, [2, 1], table, spec) == pytest.approx(0.75, abs=1e-12)
    with pytest.raises(ValueError):
        decode("maximum-likelihood", [1, 1], table, spec)


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
    got = _ce_max(lo, hi)
    want = ce_max_all_sensors(spec.source.cdf, lo, hi)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    assert np.all((got >= lo.max(axis=1)) & (got <= hi.max(axis=1)))


def _ce_oracle(lo, hi):
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    got = _ce_max(lo, hi)
    spec = parse_spec_file(f"N = {lo.shape[1]}\n")
    assert np.allclose(got, ce_max_all_sensors(spec.source.cdf, lo, hi), rtol=0.0, atol=1e-12)
    return got


@pytest.mark.parametrize("n", [2, 4, 16])
def test_ce_max_single_overlap_is_the_midpoint(n, monkeypatch):
    # Every row has K = 1, so the block takes the closed form only and no
    # row goes through quadrature; the answer is the midpoint of the cell
    # with the largest lower edge, to the last bit.
    def no_quadrature(order):
        raise AssertionError("a K = 1 block needs no quadrature nodes")

    lo, hi = _cells(np.random.default_rng(10 + n), 3_000, n)
    lo, hi = lo[:1_000], hi[:1_000]
    left = lo.max(axis=1)
    assert ((hi > left[:, None]).sum(axis=1) == 1).all()
    want = (left + hi.max(axis=1)) / 2.0
    oracle = ce_max_all_sensors(parse_spec_file(f"N = {n}\n").source.cdf, lo, hi)
    monkeypatch.setattr(simulator, "_gauss_legendre", no_quadrature)
    got = _ce_max(lo, hi)
    assert np.array_equal(got, want)
    assert np.allclose(got, oracle, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 4, 16])
def test_ce_max_without_single_overlap_rows(n):
    lo, hi = _cells(np.random.default_rng(20 + n), 3_000, n)
    multi = (hi > lo.max(axis=1)[:, None]).sum(axis=1) >= 2
    lo, hi = lo[multi], hi[multi]
    left = lo.max(axis=1)
    k_of = (hi > left[:, None]).sum(axis=1)
    assert len(k_of) > 1_000 and k_of.min() == 2 and k_of.max() == n
    got = _ce_oracle(lo, hi)
    assert np.all((got > left) & (got < hi.max(axis=1)))
    # E[max] is at least the largest of the sensors' conditional means.
    assert np.all(got >= ((lo + hi) / 2.0).max(axis=1) - 1e-12)


def test_ce_max_ties_at_the_largest_lower_edge():
    # Row 0: sensor 2's cell ends exactly at left = 0.5, so it does not
    # overlap, K = 1, and the answer is the midpoint 0.75.  Row 1: both
    # cells start at left = 0.5, K = 2, and E[max] = 0.5 + 2/3 * 0.5.
    # Row 2: K = 1 next to a K = 2 row in the same block.
    lo = [[0.5, 0.25], [0.5, 0.5], [0.0, 0.75]]
    hi = [[1.0, 0.5], [1.0, 1.0], [0.75, 1.0]]
    got = _ce_oracle(lo, hi)
    assert got[0] == 0.75 and got[2] == 0.875
    assert got[1] == pytest.approx(0.5 + 2.0 / 3.0 * 0.5, abs=1e-15)
    assert got[1] != 0.75


def _two_overlap_cells(rng, trials, n):
    """Random (lo, hi) cell edges in [0, 1] where exactly two cells reach
    above the largest lower edge, in random columns.  A third of the rows
    tie the two upper edges and another third the two lower edges; the
    other cells end at or below the largest lower edge, the first of them
    exactly on it."""
    left = 0.1 + 0.8 * rng.random(trials)
    a = np.column_stack([left, left * rng.random(trials)])
    b = left[:, None] + (1.0 - left[:, None]) * (0.01 + 0.99 * rng.random((trials, 2)))
    b[::3, 1] = b[::3, 0]
    a[1::3, 1] = left[1::3]
    hi_rest = left[:, None] * (0.05 + 0.95 * rng.random((trials, n - 2)))
    hi_rest[:, :1] = left[:, None]
    lo_rest = hi_rest * 0.99 * rng.random((trials, n - 2))
    order = rng.random((trials, n)).argsort(axis=1)
    lo = np.take_along_axis(np.concatenate([a, lo_rest], axis=1), order, axis=1)
    hi = np.take_along_axis(np.concatenate([b, hi_rest], axis=1), order, axis=1)
    return lo, hi


@pytest.mark.parametrize("n", [2, 4, 16])
def test_ce_max_two_overlaps_take_no_quadrature(n, monkeypatch):
    # Every row has K = 2, so the block takes the closed forms only.
    def no_quadrature(order):
        raise AssertionError("a K = 2 block needs no quadrature nodes")

    lo, hi = _two_overlap_cells(np.random.default_rng(30 + n), 3_000, n)
    left = lo.max(axis=1)
    assert ((hi > left[:, None]).sum(axis=1) == 2).all()
    monkeypatch.setattr(simulator, "_gauss_legendre", no_quadrature)
    got = _ce_oracle(lo, hi)
    assert np.all((got > left) & (got < hi.max(axis=1)))


def _exact_ce_max(cells):
    """E[max | cells] of independent uniform sources as a Fraction: the
    integral of 1 - prod F_n, a polynomial between sorted upper edges,
    integrated term by term."""
    lo = [Fraction(a) for a, _ in cells]
    hi = [Fraction(b) for _, b in cells]
    left, right = max(lo), max(hi)
    ends = sorted({left, right} | {b for b in hi if left < b < right})
    total = left
    for s, e in zip(ends, ends[1:]):
        poly = [Fraction(1)]  # coefficients of t^0, t^1, ...
        for a, b in zip(lo, hi):
            if b > s:
                lin = (-a / (b - a), 1 / (b - a))
                poly = [
                    (poly[i] * lin[0] if i < len(poly) else 0)
                    + (poly[i - 1] * lin[1] if i else 0)
                    for i in range(len(poly) + 1)
                ]
        total += e - s
        total -= sum(c * (e ** (i + 1) - s ** (i + 1)) / (i + 1) for i, c in enumerate(poly))
    return total


def test_ce_max_two_overlaps_hand_values():
    # Two cells [0, 1]: E[max] = 2/3.  Two cells [1/2, 1]: 1/2 + 2/3 * 1/2.
    got = _ce_max(np.array([[0.0, 0.0], [0.5, 0.5]]), np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert got == pytest.approx([2.0 / 3.0, 5.0 / 6.0], rel=0.0, abs=1e-15)
    # Unequal widths and a gap between the upper edges: the cell that
    # ends first starts below the other, then at the largest lower edge;
    # then a third cell that ends at the largest lower edge.
    for cells in (
        [(0.1, 0.7), (0.25, 0.9)],
        [(0.35, 0.6), (0.05, 0.95)],
        [(0.1, 0.7), (0.0, 0.25), (0.25, 0.9)],
    ):
        want = float(_exact_ce_max(cells))
        lo, hi = np.array(cells).T
        got = _ce_max(lo[None], hi[None])[0]
        assert abs(got - want) <= 4 * np.spacing(want)
        assert got == _ce_max(lo[None, ::-1], hi[None, ::-1])[0]


@st.composite
def _two_overlap_row(draw):
    """One row of K = 2 cells: ties in the upper or lower edges, either
    cell ending first, and up to four cells ending at or below ``left``."""
    n = draw(st.integers(2, 6))
    unit = st.floats(0.0, 1.0)
    left = draw(st.floats(0.05, 0.9))
    a = [left, left if draw(st.booleans()) else left * draw(unit)]
    b = [left + (1.0 - left) * draw(st.floats(0.01, 1.0)) for _ in range(2)]
    if draw(st.booleans()):
        b[1] = b[0]
    if draw(st.booleans()):
        b.reverse()  # the cell starting at left ends first or last
    hi = [left if draw(st.booleans()) else left * draw(st.floats(0.05, 1.0)) for _ in range(n - 2)]
    lo = [h * 0.99 * draw(unit) for h in hi]
    order = draw(st.permutations(range(n)))
    return np.array([(a + lo)[i] for i in order]), np.array([(b + hi)[i] for i in order])


@settings(max_examples=300, deadline=None)
@given(_two_overlap_row())
def test_ce_max_two_overlaps_match_all_sensor_oracle(row):
    lo, hi = row[0][None], row[1][None]
    assert (hi > lo.max()).sum() == 2
    _ce_oracle(lo, hi)


# Cells of width 1e-9 put the boundaries 0.3, 0.3 + 1e-9 and 0.3 + 2e-9 in
# one of the 4096 encode buckets, so the encoder needs three correction
# steps there.
TIGHT = Quantizer(
    (0.0, 0.3, 0.3 + 1e-9, 0.3 + 2e-9, 0.7, 1.0),
    (0.15, 0.3 + 0.5e-9, 0.3 + 1.5e-9, 0.5, 0.85),
)
HALVES = Quantizer((0.0, 0.5, 1.0), (0.25, 0.75))

SPEC_DESIGNS = {
    "max4_chat": ("max4_chat.txt", 16.0),
    "max2_nochat": ("max2_nochat.txt", 4.0),
    "max5_entropy": ("max5_entropy.txt", 25.0),
}
CHAIN_DESIGNS = {
    "chain16": ((16, 2), {}, 64.0),
    "entropy3": ((3, 2), {"regime": "entropy-constrained"}, 12.0),
    "entropy6_rc2": ((6, 4), {"regime": "entropy-constrained"}, 30.0),
}


@functools.cache
def _lookup_design(name):
    if name == "tight":
        return chain(2, 2), bank_table({1: {1: TIGHT}, 2: {1: TIGHT, 2: HALVES}})
    if name in SPEC_DESIGNS:
        file, budget = SPEC_DESIGNS[name]
        spec = parse_spec_file((SPEC_DIR / file).read_text())
    else:
        args, kw, budget = CHAIN_DESIGNS[name]
        spec = chain(*args, **kw)
    return spec, design_network(spec, budget=budget).banks


# Rows of each design that receive at least 1,000 of 2^18 trials at seed
# 7.  chain16 never sends message 1 to sensors 2..16, so those fifteen
# codebooks receive none; entropy6_rc2's message-1 rows at sensors 5 and 6
# receive 888 and 214.
ENTROPY_ROWS = {
    "chain16": 16,
    "entropy3": 5,
    "entropy6_rc2": 19,
    "max2_nochat": 2,
    "max4_chat": 13,
    "max5_entropy": 9,
    "tight": 3,
}


@pytest.mark.parametrize("name", sorted(ENTROPY_ROWS))
def test_cell_entropy_agrees_with_encoder_histograms(name):
    # Given its message, a sensor's cell has probability equal to its
    # width, so the plug-in entropy of the cells the encoder emits for a
    # row approaches cell_entropy.  Over the n trials the row received its
    # error is -sum(d log2 w) - chi2 / (2 n ln 2) to second order, d the
    # cell frequencies' errors and chi2 their chi-square statistic with
    # size - 1 degrees of freedom: within 4 standard deviations of the
    # first term and the mean of chi2 plus 4 of its standard deviations.
    # A row of equal cells, such as tight's HALVES, has no first term.
    spec, table = _lookup_design(name)
    trials, seed = 1 << 18, 7
    enc = _Encoder(spec, table)
    counts = sum(
        _counts(table, pos)
        for c in range(trials // CHUNK)
        for _rows, _x, pos in _chunk_blocks(spec, enc, trials, seed, c)
    )
    measured, exact = row_entropies(table, counts), table.cell_entropy()
    checked = 0
    for n, k in table.rows():
        arrived = counts[n - 1, k - 1].sum()
        if arrived < 1_000:
            continue
        w = np.diff(table.codebook(n, k).boundaries)
        info = -np.log2(w)
        var = w @ info**2 - (w @ info) ** 2
        dof = table.sizes[n - 1, k - 1] - 1
        chi2 = dof + 4 * np.sqrt(2 * dof)
        gap = abs(measured[n - 1, k - 1] - exact[n - 1, k - 1])
        assert gap <= 4 * np.sqrt(var / arrived) + chi2 / (2 * arrived * np.log(2)), (n, k, gap)
        checked += 1
    assert checked == ENTROPY_ROWS[name]


@pytest.mark.parametrize("name", ["max5_entropy", "chain16"])
def test_cell_lookup_matches_mask_loop_oracle(name):
    # max5_entropy's table holds codebooks of 100+ and 7 cells for the two
    # messages of one sensor; chain16 is a fixed-rate N=16 chain.
    spec, table = _lookup_design(name)
    banks = codebooks(table)
    n = spec.n_sensors
    rng = np.random.default_rng(7)
    x = rng.random((40_000, n))
    for s in range(1, n + 1):
        largest = max(banks[s].values(), key=lambda q: q.size)
        last = largest.boundaries[-2] + (1.0 - largest.boundaries[-2]) * rng.random(200)
        special = np.concatenate(
            [q.boundaries for q in banks[s].values()] + [[0.0, 1.0], last]
        )
        # Eight copies each, in random rows, meet every incoming message.
        rows = rng.permutation(x.shape[0])[: 8 * special.size]
        x[rows, s - 1] = np.tile(special, 8)

    indices, incoming = _Encoder(spec, table).encode(x)
    want_idx, want_inc = encode_mask_loop(spec, table, x)
    assert indices.flags.f_contiguous and incoming.flags.f_contiguous
    assert np.array_equal(indices, want_idx)
    assert np.array_equal(incoming, want_inc)
    for s in range(1, n + 1):
        assert (indices[:, s - 1] == table.sizes[s - 1].max()).any()

    proto = _Protocol(spec, table)
    pos = np.stack(
        [proto.index(s, indices[:, s - 1], incoming[:, s - 1]) for s in range(1, n + 1)],
        axis=1,
    )
    lo, hi, cw = cell_bounds_mask_loop(table, indices, incoming)
    assert np.array_equal(table.lower[pos], lo)
    assert np.array_equal(table.upper[pos], hi)
    assert np.array_equal(table.cell_codewords[pos], cw)
    assert np.array_equal(replay_codebooks(spec, table, indices), incoming)
    assert np.array_equal(decode(PLUG_IN, indices, table, spec), cw.max(axis=1))
    assert np.array_equal(decode(CE, indices, table, spec), _ce_max(lo, hi))


def _edge_inputs(table, n):
    """Every boundary of sensor n's codebooks with its neighbours on both
    sides, and inputs outside [0, 1] that clamp to the end cells."""
    edges = np.concatenate([q.boundaries for q in codebooks(table)[n].values()])
    outside = [-np.inf, -1.0, -1e-300, np.nextafter(1.0, 2.0), 2.0, np.inf]
    return np.concatenate(
        [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), outside]
    )


BOUNDARY_DESIGNS = ["max4_chat", "max2_nochat", "max5_entropy", "chain16", "entropy6_rc2", "tight"]


@functools.cache
def _boundary_block(name):
    """Inputs where, sensor by sensor, every edge input meets every
    incoming message the upstream columns send: rows drawn per message are
    copied, which keeps their messages, and take the inputs in the
    sensor's column."""
    spec, table = _lookup_design(name)
    n = spec.n_sensors
    rng = np.random.default_rng(5)
    x = rng.random((20_000, n))
    copies = 4
    for s in range(1, n + 1):
        values = _edge_inputs(table, s)
        k_col = encode_mask_loop(spec, table, x)[1][:, s - 1]
        blocks = [x]
        for k in np.unique(k_col):
            block = x[rng.choice(np.flatnonzero(k_col == k), copies * values.size)]
            block[:, s - 1] = np.tile(values, copies)
            blocks.append(block)
        x = np.concatenate(blocks)
    return x


@pytest.mark.parametrize("name", BOUNDARY_DESIGNS)
def test_encode_matches_mask_loop_at_every_boundary(name):
    spec, table = _lookup_design(name)
    enc = _Encoder(spec, table)
    # Bucket count: the smallest power of two at or above 1 / narrowest
    # cell, at most 4096.
    narrowest = min(np.diff(q.boundaries).min() for b in codebooks(table).values() for q in b.values())
    assert enc.scale & (enc.scale - 1) == 0
    assert enc.scale == 4096 or enc.scale * narrowest >= 1.0
    assert enc.scale == 1 or enc.scale * narrowest < 2.0
    if name == "tight":
        assert enc.scale == 4096 and enc.steps == [3, 3]

    x = _boundary_block(name)
    indices, incoming = enc.encode(x)
    want_idx, want_inc = encode_mask_loop(spec, table, x)
    assert np.array_equal(indices, want_idx)
    assert np.array_equal(incoming, want_inc)


@pytest.mark.parametrize("name", sorted(set(BOUNDARY_DESIGNS) | {"entropy3"}))
def test_estimates_from_encoder_positions_equal_decode(name):
    # The simulator estimates straight from the encoder's positions; they
    # must be the positions that the checked path builds from the indices
    # and messages, and give decode's answers bit for bit.
    spec, table = _lookup_design(name)
    n = spec.n_sensors
    enc = _Encoder(spec, table)
    x = _boundary_block(name) if name in BOUNDARY_DESIGNS else (
        np.random.default_rng(6).random((30_000, n))
    )
    pos = enc.positions(np.asfortranarray(x))
    indices, incoming = enc.encode(x)
    assert pos.flags.f_contiguous
    checked = [enc.index(s, indices[:, s - 1], incoming[:, s - 1]) for s in range(1, n + 1)]
    assert np.array_equal(pos, np.stack(checked, axis=1))
    lo, hi, cw = cell_bounds_mask_loop(table, indices, incoming)
    want = {PLUG_IN: cw.max(axis=1), CE: _ce_max(lo, hi)}
    for decoder in (PLUG_IN, CE):
        got = _estimate(decoder, table, pos)
        assert np.array_equal(got, want[decoder])
        assert np.array_equal(got, decode(decoder, indices, table, spec))


@pytest.mark.parametrize("name", ["max5_entropy", "entropy3", "entropy6_rc2", "max4_chat", "tight"])
def test_counts_from_positions_match_keyed_histograms(name):
    spec, table = _lookup_design(name)
    enc = _Encoder(spec, table)
    x = np.random.default_rng(8).random((50_000, spec.n_sensors))
    indices, incoming = enc.encode(x)
    counts = _counts(table, enc.positions(np.asfortranarray(x)))
    keyed = index_histograms(table, indices, incoming)
    assert counts.sum() == x.size
    for n, hist in keyed.items():
        assert np.array_equal(counts[n - 1, : hist.shape[0], : hist.shape[1]], hist)


@pytest.mark.parametrize("name", ["max5_entropy", "entropy3"])
def test_entropy_rate_matches_mask_loop_histogram(name):
    # run_simulation's rates come from what the bucket encoder emits; the
    # same chunks encoded by the mask-loop oracle, with each codebook's
    # indicator-then-index rate weighted by its message's arrivals, give
    # the same rates.
    spec, table = _lookup_design(name)
    trials, seed = CHUNK + 5_000, 3
    rates = run_simulation(spec, table, PLUG_IN, trials=trials, seed=seed).empirical_rates
    enc = _Encoder(spec, table)
    counts = np.zeros(table.edges.shape, dtype=np.int64)
    for c in range(2):
        x = np.concatenate([x for _rows, x, _pos in _chunk_blocks(spec, enc, trials, seed, c)])
        for n, hist in index_histograms(table, *encode_mask_loop(spec, table, x)).items():
            counts[n - 1, : hist.shape[0], : hist.shape[1]] += hist
    want = (counts.sum(axis=2) / trials * row_entropies(table, counts)).sum(axis=1)
    assert rates == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("decoder", [PLUG_IN, CE])
def test_decode_rejects_out_of_range_input(decoder):
    spec = parse_spec_file((SPEC_DIR / "max4_chat.txt").read_text())
    table = design_network(spec, budget=16.0).banks
    size = {n: table.sizes[n - 1, 0] for n in range(1, 5)}
    ok = [1, 1, 1, 1]
    assert np.isfinite(decode(decoder, ok, table, spec))
    with pytest.raises(ValueError, match="shape"):
        decode(decoder, [1, 1, 1], table, spec)
    with pytest.raises(ValueError, match="shape"):
        decode(decoder, np.ones((2, 2, 4), dtype=int), table, spec)
    for bad in (0, -1, size[3] + 1, 10**6):
        with pytest.raises(ValueError, match="sensor 3: index"):
            decode(decoder, [1, 1, bad, 1], table, spec)
    # One bad trial among good ones is found too.
    block = np.ones((50, 4), dtype=np.int64)
    block[37, 3] = size[4] + 1
    with pytest.raises(ValueError, match="sensor 4: index"):
        decode(decoder, block, table, spec)
    # Non-integers are rejected, not truncated to a valid cell.
    for bad in ([1.9, 1, 1, 1], [1, 1, np.nan, 1], [1.0, 1, 1, 1]):
        with pytest.raises(ValueError, match="indices must be integers"):
            decode(decoder, bad, table, spec)
    with pytest.raises(ValueError, match="indices must be integers"):
        replay_codebooks(spec, table, [[2.7, 1, 1, 1]])


def test_replay_reports_the_first_bad_index():
    # Sensor 2's second codebook has 7 cells; index 50 would replay a pad
    # as sensor 3's message, but the index itself is what is reported.
    spec = parse_spec_file((SPEC_DIR / "max5_entropy.txt").read_text())
    table = design_network(spec, budget=25.0).banks
    assert table.sizes[1, 1] < 50 <= table.sizes[1, 0]
    top = table.sizes[0, 0]
    bad = [top, 50, 1, 1, 1]
    with pytest.raises(ValueError, match="sensor 2: index 50 is not a cell of codebook 2"):
        replay_codebooks(spec, table, [bad])
    for decoder in (PLUG_IN, CE):
        with pytest.raises(ValueError, match="sensor 2: index 50 is not a cell of codebook 2"):
            decode(decoder, bad, table, spec)
    # Index 0 and one past the last cell are caught before any gather.
    for m in (0, top + 1):
        with pytest.raises(ValueError, match="sensor 1: index"):
            replay_codebooks(spec, table, [[m, 1, 1, 1, 1]])


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
    table = build_banks(spec, [8, 8, 8, 8])
    proto = _Encoder(spec, table)
    rng = np.random.default_rng(11)
    x = rng.random((5_000, 4))
    indices, incoming = proto.encode(x)
    t = np.asarray(spec.partition)
    cw_cell = np.zeros_like(indices)
    for n, bank in codebooks(table).items():
        for k, q in bank.items():
            rows = incoming[:, n - 1] == k
            cws = np.asarray(q.codewords)[indices[rows, n - 1] - 1]
            cells = np.maximum(np.searchsorted(t, cws, side="left"), 1)
            cw_cell[rows, n - 1] = cells
    running = np.maximum.accumulate(cw_cell, axis=1)
    assert np.array_equal(incoming[:, 1:], running[:, :-1])


def test_replay_matches_encoder():
    spec = chain(4, 2)
    table = build_banks(spec, [8, 8, 8, 8])
    proto = _Encoder(spec, table)
    rng = np.random.default_rng(2)
    x = rng.random((20_000, 4))
    indices, incoming = proto.encode(x)
    replayed = replay_codebooks(spec, table, indices)
    assert np.array_equal(replayed, incoming)


def test_entropy_rate_split_coding_example():
    # Half the mass in one don't-care cell, the rest uniform over 8 cells:
    # H_B(1/2) + (1/2) log2 8 = 2.5 bits, exactly from the cell widths and
    # near it as measured.
    spec = parse_spec_file("N = 1\nregime = entropy-constrained\n")
    edges = (0.0, 0.5) + tuple(0.5 + (i + 1) / 16.0 for i in range(8))
    codewords = (0.5,) + tuple(0.5 + (2 * i + 1) / 32.0 for i in range(8))
    table = bank_table({1: {1: Quantizer(edges, codewords, frozenset({1}))}})
    assert table.cell_entropy()[0, 0] == pytest.approx(2.5, abs=1e-12)
    res = run_simulation(spec, table, PLUG_IN, trials=100_000, seed=1)
    assert res.empirical_rates[0] == pytest.approx(2.5, abs=0.02)


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
    flat = np.log2(design.banks.sizes.max(axis=1))
    assert np.all(res.empirical_rates <= np.asarray(flat) + 1e-9)


def test_fixed_rate_reports_codebook_rates():
    spec = chain(2, 2)
    table = build_banks(spec, [8, 16])
    res = run_simulation(spec, table, PLUG_IN, trials=1_000, seed=0)
    assert np.allclose(res.empirical_rates, [3.0, 4.0])


def test_fixed_rate_banks_of_mixed_sizes_are_rejected():
    # Sensor 2's codebooks hold 4 and 16 cells, so log2 of its first
    # codebook's size would misreport its rate; entropy coding measures
    # rates and takes such table.
    spec = chain(3, 2)
    table = build_banks(spec, [8, {1: 4, 2: 16}, {1: 16, 2: 4}])
    for decoder in (PLUG_IN, CE):
        with pytest.raises(ValueError, match=r"sensor 2, message 2: .* one codebook size, not 16 cells"):
            run_simulation(spec, table, decoder, trials=1_000, seed=0)
    entropy = chain(3, 2, regime="entropy-constrained")
    mixed = build_banks(entropy, [8, {1: 4, 2: 16}, {1: 16, 2: 4}])
    assert run_simulation(entropy, mixed, PLUG_IN, trials=1_000, seed=0).empirical_rates.shape == (3,)


def test_result_csv_row():
    spec = chain(2, 2)
    table = build_banks(spec, [8, 8])
    res = run_simulation(spec, table, PLUG_IN, trials=1_000, seed=0)
    row = res.csv_row(2, 1, 8.0)
    assert row[0] == spec.spec_hash()
    assert row[1] == "fixed-rate"
    assert row[2:5] == [1, 8.0, 2]
    no_pred = res.csv_row(2, None, None)
    assert no_pred[2] == "" and no_pred[3] == "" and no_pred[7] == ""


def test_simulation_input_validation():
    spec = chain(2, 2)
    table = build_banks(spec, [8, 8])
    for trials in (0, -5):
        with pytest.raises(ValueError, match="trial"):
            run_simulation(spec, table, PLUG_IN, trials=trials)
    # A table whose rows do not fit the spec: another sensor count, and a
    # message the sensor never hears or a codebook the spec needs.
    with pytest.raises(ValueError, match=r"\(2, 2\) table rows do not fit a \(3, 2\) chain"):
        run_simulation(chain(3, 2), table, PLUG_IN, trials=10)
    silent = build_banks(chain(2, 1), [8, 8])
    with pytest.raises(ValueError, match=r"\(2, 1\) table rows do not fit a \(2, 2\) chain"):
        run_simulation(spec, silent, PLUG_IN, trials=10)
    # Sensor 1 given a copy of its codebook for message 2, and sensor 2's
    # message-2 row emptied.
    edges, codewords = np.array(table.edges), np.array(table.codewords)
    edges[0, 1], codewords[0, 1] = edges[0, 0], codewords[0, 0]
    for (n, k), size, match in (
        ((0, 1), 8, "sensor 1, message 2: codebook and spec disagree"),
        ((1, 1), 0, "sensor 2, message 2: codebook and spec disagree"),
    ):
        sizes = np.array(table.sizes)
        sizes[n, k] = size
        bad = CodebookTable(sizes, edges, codewords, table.dont_care & (sizes > 1))
        for run in (
            lambda: run_simulation(spec, bad, PLUG_IN, trials=10),
            lambda: decode(PLUG_IN, [1, 1], bad, spec),
            lambda: replay_codebooks(spec, bad, [1, 1]),
        ):
            with pytest.raises(ValueError, match=match):
                run()
    # A fan-out has no spec to simulate: it fails at parse.
    with pytest.raises(SpecFormatError, match="not a chain link"):
        parse_spec_file("N = 3\nedge = 1 2 2 0\nedge = 1 3 2 0\n")


# run_simulation answers at 131,072 trials and seed 0, recorded before the
# simulator worked on table positions: (fMSE, stderr) per decoder, and the
# rates the run reports.
FROZEN_RUNS = {
    "max4_chat": (
        {
            PLUG_IN: (0.00013087769599652853, 5.889908874294791e-07),
            CE: (0.00012995002739287414, 5.83775279297671e-07),
        },
        [4.169925001442312, 4.0, 3.9068905956085187, 3.807354922057604],
    ),
    "max2_nochat": (
        {
            PLUG_IN: (0.004238954190417745, 1.1971760574085535e-05),
            CE: (0.003998234524063468, 1.2390392983740088e-05),
        },
        [2.0, 2.0],
    ),
    "max5_entropy": (
        {
            PLUG_IN: (4.9018163167479545e-05, 4.770471312389291e-07),
            CE: (4.6282669933881395e-05, 4.1354100968207264e-07),
        },
        [5.407441510668507, 4.456320148101346, 3.735660938419199,
         3.189340133354605, 2.774400785461223],
    ),
}


@pytest.mark.parametrize("decoder", [PLUG_IN, CE])
@pytest.mark.parametrize("name", sorted(FROZEN_RUNS))
def test_simulation_answers_are_frozen(name, decoder):
    spec, table = _lookup_design(name)
    runs, rates = FROZEN_RUNS[name]
    res = run_simulation(spec, table, decoder, trials=2 * CHUNK, seed=0)
    assert res.empirical_fmse == pytest.approx(runs[decoder][0], rel=1e-12)
    assert res.stderr == pytest.approx(runs[decoder][1], rel=1e-12)
    assert res.empirical_rates == pytest.approx(rates, rel=1e-12)


@functools.cache
def _edge_design(n, regime):
    spec = chain(n, 2, regime=regime)
    return spec, design_network(spec, budget=4.0 * n).banks


@pytest.mark.parametrize("regime", ["fixed-rate", "entropy-constrained"])
@pytest.mark.parametrize("n", [3, 5, 6])
def test_row_blocks_give_the_whole_chunk_answers(n, regime):
    # Rows per block do not divide a chunk at these N, and the second
    # chunk is shorter than one block; the answers must still be those of
    # one whole-chunk block, bit for bit.
    rows = simulator._BLOCK_CELLS // n
    assert CHUNK % rows and 1_234 < rows
    spec, table = _edge_design(n, regime)
    trials, seed = CHUNK + 1_234, 5
    for decoder in (PLUG_IN, CE):
        fmse, stderr, rates = whole_chunk_simulation(spec, table, decoder, trials, seed)
        for workers in (1, 2):
            res = run_simulation(spec, table, decoder, trials, seed, workers=workers)
            assert res.empirical_fmse == fmse
            assert res.stderr == stderr
            # A single count off would move a rate by far more than this.
            assert res.empirical_rates == pytest.approx(rates, rel=1e-12, abs=0)


def _traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes that tracemalloc sees allocated during one call."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("decoder", [PLUG_IN, CE])
def test_simulation_memory_is_one_block(decoder):
    # Whole 65,536-trial chunks at N = 16 peaked at 43.8 MB (CE) and
    # 27.5 MB (plug-in); row blocks hold a few MB whatever the trial count.
    spec, table = _lookup_design("chain16")
    chunk_bytes = CHUNK * spec.n_sensors * 8
    short, long = (
        _traced_peak(run_simulation, spec, table, decoder, trials=chunks * CHUNK, seed=0)
        for chunks in (2, 8)
    )
    assert max(short, long) < 2 * chunk_bytes
    assert long < short + CHUNK * 8


def _chain16_indices():
    spec, table = _lookup_design("chain16")
    sizes = table.sizes[:, 0]
    indices = np.random.default_rng(4).integers(1, sizes + 1, size=(262_144, 16))
    return spec, table, indices


@pytest.mark.parametrize("decoder", [PLUG_IN, CE])
def test_decode_memory_is_one_block(decoder):
    # A 262,144 x 16 int64 index block (32 MiB) peaked at 4x its size
    # under CE when decoded whole; by row blocks only the answer grows
    # with it.  The same block as int32, converted whole, peaked at 37-39
    # MB; each row block is converted on its own, under the same bound.
    spec, table, indices = _chain16_indices()
    for block in (indices, indices.astype(np.int32)):
        peak = _traced_peak(decode, decoder, block, table, spec)
        assert peak < indices.nbytes / 2


def test_replay_memory_is_one_block():
    # Replaying the whole block at once peaked at 66 MB: the positions
    # beside the returned messages.  By row blocks only the answer grows.
    # The answer is an int64 matrix of the input's shape.
    spec, table, indices = _chain16_indices()
    peak = _traced_peak(replay_codebooks, spec, table, indices)
    assert peak - indices.size * 8 < 4 * simulator._BLOCK_CELLS * 8


def test_decode_reads_any_integer_type_alike():
    spec, table, indices = _chain16_indices()
    indices = indices[:20_000]
    incoming = replay_codebooks(spec, table, indices)
    assert np.array_equal(replay_codebooks(spec, table, indices.astype(np.int32)), incoming)
    for decoder in (PLUG_IN, CE):
        want = decode(decoder, indices, table, spec)
        assert np.array_equal(decode(decoder, indices.astype(np.int32), table, spec), want)


def test_simulation_never_rechecks_encoder_positions(monkeypatch):
    # The encoder builds every position in range, so a run reads its
    # cells without the checked conversion or the public decode.
    def checked(*args, **kwargs):
        raise AssertionError("the simulation re-checked its own positions")

    monkeypatch.setattr(_Protocol, "index", checked)
    monkeypatch.setattr(simulator, "decode", checked)
    for name in ("max4_chat", "max5_entropy"):
        spec, table = _lookup_design(name)
        for decoder in (PLUG_IN, CE):
            run_simulation(spec, table, decoder, trials=CHUNK + 10, seed=1, workers=2)


@pytest.mark.parametrize(
    "kw, match",
    [
        ({"decoder": "maximum-likelihood"}, "unknown decoder 'maximum-likelihood'"),
        ({"decoder": "plugin"}, "unknown decoder"),
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
        ({"seed": 2.5}, "seed must be an integer >= 0, got 2.5"),
        ({"seed": True}, "seed must be an integer"),
        ({"trials": 1500.0}, "trials must be an integer >= 1, got 1500.0"),
        ({"trials": "1500"}, "trials must be an integer"),
        ({"workers": 1.5}, "workers must be an integer >= 1, got 1.5"),
    ],
)
def test_simulation_inputs_are_checked_before_any_work(kw, match, monkeypatch):
    spec = chain(2, 2)
    table = build_banks(spec, [8, 8])

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the inputs were checked")

    monkeypatch.setattr(simulator, "_Encoder", no_work)
    monkeypatch.setattr(simulator, "_chunk_blocks", no_work)
    args = {"decoder": PLUG_IN, "trials": 1_000, "seed": 0, **kw}
    with pytest.raises(ValueError, match=match):
        run_simulation(spec, table, **args)


def test_integer_likes_are_accepted():
    spec = chain(2, 2)
    table = build_banks(spec, [8, 8])
    a = run_simulation(spec, table, PLUG_IN, trials=np.int64(1_000), seed=np.uint32(4))
    b = run_simulation(spec, table, PLUG_IN, trials=1_000, seed=4)
    assert a.empirical_fmse == b.empirical_fmse
