import functools
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
from chatquant.quantizer import Quantizer
from chatquant.simulator import (
    CHUNK,
    decode,
    measure_entropy_rate,
    replay_codebooks,
    run_simulation,
)
from chatquant.simulator import (
    _CellTable,
    _Encoder,
    _ce_max,
    _chunk_blocks,
    _estimate,
    _split_entropy,
)

from oracles import (
    cell_bounds_mask_loop,
    ce_max_all_sensors,
    encode_mask_loop,
    index_histograms,
    whole_chunk_simulation,
)

PLUG_IN = "plug-in"
CE = "conditional-expectation"
SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


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
    fixed = chain(2, 2)
    entropy = chain(3, 2, regime="entropy-constrained")
    trials = 2 * CHUNK + 1_000
    for spec, banks in (
        (fixed, build_banks(fixed, [8, 8])),
        (entropy, design_network(entropy, budget=12.0).banks),
    ):
        for decoder in (PLUG_IN, CE):
            solo = run_simulation(spec, banks, decoder, trials=trials, seed=9, workers=1)
            pooled = run_simulation(spec, banks, decoder, trials=trials, seed=9, workers=4)
            assert solo.empirical_fmse == pooled.empirical_fmse
            assert solo.stderr == pooled.stderr
            assert np.array_equal(solo.empirical_rates, pooled.empirical_rates)


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
        return chain(2, 2), {1: {1: TIGHT}, 2: {1: TIGHT, 2: HALVES}}
    if name in SPEC_DESIGNS:
        file, budget = SPEC_DESIGNS[name]
        spec = parse_spec_file((SPEC_DIR / file).read_text())
    else:
        args, kw, budget = CHAIN_DESIGNS[name]
        spec = chain(*args, **kw)
    return spec, design_network(spec, budget=budget).banks


@pytest.mark.parametrize("name", ["max5_entropy", "chain16"])
def test_cell_lookup_matches_mask_loop_oracle(name):
    # max5_entropy's banks hold codebooks of 100+ and 7 cells for the two
    # messages of one sensor; chain16 is a fixed-rate N=16 chain.
    spec, banks = _lookup_design(name)
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

    indices, incoming = _Encoder(spec, banks).encode(x)
    want_idx, want_inc = encode_mask_loop(spec, banks, x)
    assert indices.flags.f_contiguous and incoming.flags.f_contiguous
    assert np.array_equal(indices, want_idx)
    assert np.array_equal(incoming, want_inc)
    for s in range(1, n + 1):
        top = max(q.size for q in banks[s].values())
        assert (indices[:, s - 1] == top).any()

    cells = _CellTable(banks)
    pos = np.stack(
        [cells.index(s, indices[:, s - 1], incoming[:, s - 1]) for s in range(1, n + 1)],
        axis=1,
    )
    lo, hi, cw = cell_bounds_mask_loop(banks, indices, incoming)
    assert np.array_equal(cells.lower[pos], lo)
    assert np.array_equal(cells.upper[pos], hi)
    assert np.array_equal(cells.codewords[pos], cw)
    assert np.array_equal(replay_codebooks(spec, banks, indices), incoming)
    assert np.array_equal(decode(PLUG_IN, indices, banks, spec), cw.max(axis=1))
    assert np.array_equal(decode(CE, indices, banks, spec), _ce_max(lo, hi))


def _edge_inputs(banks, n):
    """Every boundary of sensor n's codebooks with its neighbours on both
    sides, and inputs outside [0, 1] that clamp to the end cells."""
    edges = np.concatenate([q.boundaries for q in banks[n].values()])
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
    spec, banks = _lookup_design(name)
    n = spec.n_sensors
    rng = np.random.default_rng(5)
    x = rng.random((20_000, n))
    copies = 4
    for s in range(1, n + 1):
        values = _edge_inputs(banks, s)
        k_col = encode_mask_loop(spec, banks, x)[1][:, s - 1]
        blocks = [x]
        for k in np.unique(k_col):
            block = x[rng.choice(np.flatnonzero(k_col == k), copies * values.size)]
            block[:, s - 1] = np.tile(values, copies)
            blocks.append(block)
        x = np.concatenate(blocks)
    return x


@pytest.mark.parametrize("name", BOUNDARY_DESIGNS)
def test_encode_matches_mask_loop_at_every_boundary(name):
    spec, banks = _lookup_design(name)
    enc = _Encoder(spec, banks)
    # Bucket count: the smallest power of two at or above 1 / narrowest
    # cell, at most 4096.
    narrowest = min(np.diff(q.boundaries).min() for b in banks.values() for q in b.values())
    assert enc.scale & (enc.scale - 1) == 0
    assert enc.scale == 4096 or enc.scale * narrowest >= 1.0
    assert enc.scale == 1 or enc.scale * narrowest < 2.0
    if name == "tight":
        assert enc.scale == 4096 and enc.steps == [3, 3]

    x = _boundary_block(name)
    indices, incoming = enc.encode(x)
    want_idx, want_inc = encode_mask_loop(spec, banks, x)
    assert np.array_equal(indices, want_idx)
    assert np.array_equal(incoming, want_inc)


@pytest.mark.parametrize("name", sorted(set(BOUNDARY_DESIGNS) | {"entropy3"}))
def test_estimates_from_encoder_positions_equal_decode(name):
    # The simulator estimates straight from the encoder's positions; they
    # must be the positions that the checked path builds from the indices
    # and messages, and give decode's answers bit for bit.
    spec, banks = _lookup_design(name)
    n = spec.n_sensors
    enc = _Encoder(spec, banks)
    x = _boundary_block(name) if name in BOUNDARY_DESIGNS else (
        np.random.default_rng(6).random((30_000, n))
    )
    pos = enc.positions(np.asfortranarray(x))
    indices, incoming = enc.encode(x)
    assert pos.flags.f_contiguous
    checked = [enc.cells.index(s, indices[:, s - 1], incoming[:, s - 1]) for s in range(1, n + 1)]
    assert np.array_equal(pos, np.stack(checked, axis=1))
    lo, hi, cw = cell_bounds_mask_loop(banks, indices, incoming)
    want = {PLUG_IN: cw.max(axis=1), CE: _ce_max(lo, hi)}
    for decoder in (PLUG_IN, CE):
        got = _estimate(decoder, enc.cells, pos)
        assert np.array_equal(got, want[decoder])
        assert np.array_equal(got, decode(decoder, indices, banks, spec))


@pytest.mark.parametrize("name", ["max5_entropy", "entropy3", "entropy6_rc2", "max4_chat", "tight"])
def test_counts_from_positions_match_keyed_histograms(name):
    spec, banks = _lookup_design(name)
    enc = _Encoder(spec, banks)
    x = np.random.default_rng(8).random((50_000, spec.n_sensors))
    indices, incoming = enc.encode(x)
    counts = enc.cells.counts(enc.positions(np.asfortranarray(x)))
    keyed = index_histograms(banks, indices, incoming)
    assert counts.sum() == x.size
    for n, hist in keyed.items():
        assert np.array_equal(counts[n - 1, : hist.shape[0], : hist.shape[1]], hist)


@pytest.mark.parametrize("name", ["max5_entropy", "entropy3"])
def test_entropy_rate_matches_mask_loop_histogram(name):
    # measure_entropy_rate counts what the bucket encoder emits; the same
    # chunks encoded by the mask-loop oracle give the same rates exactly.
    spec, banks = _lookup_design(name)
    trials, seed = CHUNK + 5_000, 3
    rates = measure_entropy_rate(spec, banks, trials=trials, seed=seed)
    enc = _Encoder(spec, banks)
    chunks = [
        index_histograms(banks, *encode_mask_loop(spec, banks, x))
        for x in (
            np.concatenate([x for _rows, x, _pos in _chunk_blocks(spec, enc, trials, seed, c)])
            for c in range(2)
        )
    ]
    want = {}
    for n, bank in banks.items():
        for k, q in bank.items():
            hist = sum(h[n][k - 1, : q.size] for h in chunks)
            active = np.ones(q.size, dtype=bool)
            active[[c - 1 for c in q.dont_care_cells]] = False
            want[(n, k)] = _split_entropy(hist, active) if hist.sum() else 0.0
    assert rates == want


@pytest.mark.parametrize("decoder", [PLUG_IN, CE])
def test_decode_rejects_out_of_range_input(decoder):
    spec = parse_spec_file((SPEC_DIR / "max4_chat.txt").read_text())
    banks = design_network(spec, budget=16.0).banks
    size = {n: banks[n][1].size for n in banks}
    ok = [1, 1, 1, 1]
    assert np.isfinite(decode(decoder, ok, banks, spec))
    with pytest.raises(ValueError, match="shape"):
        decode(decoder, [1, 1, 1], banks, spec)
    with pytest.raises(ValueError, match="shape"):
        decode(decoder, np.ones((2, 2, 4), dtype=int), banks, spec)
    for bad in (0, -1, size[3] + 1, 10**6):
        with pytest.raises(ValueError, match="sensor 3: index"):
            decode(decoder, [1, 1, bad, 1], banks, spec)
    # One bad trial among good ones is found too.
    block = np.ones((50, 4), dtype=np.int64)
    block[37, 3] = size[4] + 1
    with pytest.raises(ValueError, match="sensor 4: index"):
        decode(decoder, block, banks, spec)
    # Non-integers are rejected, not truncated to a valid cell.
    for bad in ([1.9, 1, 1, 1], [1, 1, np.nan, 1], [1.0, 1, 1, 1]):
        with pytest.raises(ValueError, match="indices must be integers"):
            decode(decoder, bad, banks, spec)
    with pytest.raises(ValueError, match="indices must be integers"):
        replay_codebooks(spec, banks, [[2.7, 1, 1, 1]])


def test_replay_reports_the_first_bad_index():
    # Sensor 2's second codebook has 7 cells; index 50 would replay a pad
    # as sensor 3's message, but the index itself is what is reported.
    spec = parse_spec_file((SPEC_DIR / "max5_entropy.txt").read_text())
    banks = design_network(spec, budget=25.0).banks
    assert banks[2][2].size < 50 <= banks[2][1].size
    top = banks[1][1].size
    bad = [top, 50, 1, 1, 1]
    with pytest.raises(ValueError, match="sensor 2: index 50 is not a cell of codebook 2"):
        replay_codebooks(spec, banks, [bad])
    for decoder in (PLUG_IN, CE):
        with pytest.raises(ValueError, match="sensor 2: index 50 is not a cell of codebook 2"):
            decode(decoder, bad, banks, spec)
    # Index 0 and one past the last cell are caught before any gather.
    for m in (0, top + 1):
        with pytest.raises(ValueError, match="sensor 1: index"):
            replay_codebooks(spec, banks, [[m, 1, 1, 1, 1]])


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
    proto = _Encoder(spec, banks)
    rng = np.random.default_rng(11)
    x = rng.random((5_000, 4))
    indices, incoming = proto.encode(x)
    t = np.asarray(spec.partition)
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
    proto = _Encoder(spec, banks)
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


def test_fixed_rate_banks_of_mixed_sizes_are_rejected():
    # Sensor 2's codebooks hold 4 and 16 cells, so log2 of its first
    # codebook's size would misreport its rate; entropy coding measures
    # rates and takes such banks.
    spec = chain(3, 2)
    banks = build_banks(spec, [8, {1: 4, 2: 16}, {1: 16, 2: 4}])
    for decoder in (PLUG_IN, CE):
        with pytest.raises(ValueError, match=r"sensor 2: .* one codebook size, got sizes \{1: 4, 2: 16\}"):
            run_simulation(spec, banks, decoder, trials=1_000, seed=0)
    entropy = chain(3, 2, regime="entropy-constrained")
    mixed = build_banks(entropy, [8, {1: 4, 2: 16}, {1: 16, 2: 4}])
    assert run_simulation(entropy, mixed, PLUG_IN, trials=1_000, seed=0).empirical_rates.shape == (3,)


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
    spec, banks = _lookup_design(name)
    runs, rates = FROZEN_RUNS[name]
    res = run_simulation(spec, banks, decoder, trials=2 * CHUNK, seed=0)
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
    spec, banks = _edge_design(n, regime)
    trials, seed = CHUNK + 1_234, 5
    for decoder in (PLUG_IN, CE):
        fmse, stderr, rates, message_rates = whole_chunk_simulation(
            spec, banks, decoder, trials, seed
        )
        for workers in (1, 2):
            res = run_simulation(spec, banks, decoder, trials, seed, workers=workers)
            assert res.empirical_fmse == fmse
            assert res.stderr == stderr
            assert np.array_equal(res.empirical_rates, rates)
    assert measure_entropy_rate(spec, banks, trials, seed) == message_rates


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
    spec, banks = _lookup_design("chain16")
    chunk_bytes = CHUNK * spec.n_sensors * 8
    short, long = (
        _traced_peak(run_simulation, spec, banks, decoder, trials=chunks * CHUNK, seed=0)
        for chunks in (2, 8)
    )
    assert max(short, long) < 2 * chunk_bytes
    assert long < short + CHUNK * 8


def _chain16_indices():
    spec, banks = _lookup_design("chain16")
    sizes = np.array([banks[n][1].size for n in range(1, 17)])
    indices = np.random.default_rng(4).integers(1, sizes + 1, size=(262_144, 16))
    return spec, banks, indices


@pytest.mark.parametrize("decoder", [PLUG_IN, CE])
def test_decode_memory_is_one_block(decoder):
    # A 262,144 x 16 int64 index block (32 MiB) peaked at 4x its size
    # under CE when decoded whole; by row blocks only the answer grows
    # with it.  The same block as int32, converted whole, peaked at 37-39
    # MB; each row block is converted on its own, under the same bound.
    spec, banks, indices = _chain16_indices()
    for block in (indices, indices.astype(np.int32)):
        peak = _traced_peak(decode, decoder, block, banks, spec)
        assert peak < indices.nbytes / 2


def test_replay_memory_is_one_block():
    # Replaying the whole block at once peaked at 66 MB: the positions
    # beside the returned messages.  By row blocks only the answer grows.
    # The answer is an int64 matrix of the input's shape.
    spec, banks, indices = _chain16_indices()
    peak = _traced_peak(replay_codebooks, spec, banks, indices)
    assert peak - indices.size * 8 < 4 * simulator._BLOCK_CELLS * 8


def test_decode_reads_any_integer_type_alike():
    spec, banks, indices = _chain16_indices()
    indices = indices[:20_000]
    incoming = replay_codebooks(spec, banks, indices)
    assert np.array_equal(replay_codebooks(spec, banks, indices.astype(np.int32)), incoming)
    for decoder in (PLUG_IN, CE):
        want = decode(decoder, indices, banks, spec)
        assert np.array_equal(decode(decoder, indices.astype(np.int32), banks, spec), want)


def test_simulation_never_rechecks_encoder_positions(monkeypatch):
    # The encoder builds every position in range, so a run reads its
    # cells without the checked conversion or the public decode.
    def checked(*args, **kwargs):
        raise AssertionError("the simulation re-checked its own positions")

    monkeypatch.setattr(_CellTable, "index", checked)
    monkeypatch.setattr(simulator, "decode", checked)
    for name in ("max4_chat", "max5_entropy"):
        spec, banks = _lookup_design(name)
        for decoder in (PLUG_IN, CE):
            run_simulation(spec, banks, decoder, trials=CHUNK + 10, seed=1, workers=2)
    measure_entropy_rate(*_lookup_design("max5_entropy"), trials=1_000, seed=1)


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
    banks = build_banks(spec, [8, 8])

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the inputs were checked")

    monkeypatch.setattr(simulator, "_Encoder", no_work)
    monkeypatch.setattr(simulator, "_chunk_blocks", no_work)
    args = {"decoder": PLUG_IN, "trials": 1_000, "seed": 0, **kw}
    with pytest.raises(ValueError, match=match):
        run_simulation(spec, banks, **args)
    if "decoder" not in kw and "workers" not in kw:
        with pytest.raises(ValueError, match=match):
            measure_entropy_rate(spec, banks, trials=args["trials"], seed=args["seed"])


def test_integer_likes_are_accepted():
    spec = chain(2, 2)
    banks = build_banks(spec, [8, 8])
    a = run_simulation(spec, banks, PLUG_IN, trials=np.int64(1_000), seed=np.uint32(4))
    b = run_simulation(spec, banks, PLUG_IN, trials=1_000, seed=4)
    assert a.empirical_fmse == b.empirical_fmse
