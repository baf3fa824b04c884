import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatquant.chatnet import ChatNetworkSpec, build_banks, parse_spec_file
from chatquant.distortion import InfeasibleRateError
from chatquant.quantizer import (
    MAX_CODEBOOK_SIZE,
    CodebookTable,
    InfeasibleCodebookError,
    _entropy_bits,
)

from oracles import split_entropy

EC = "entropy-constrained"

# Codebooks are built one (sensor, message) row at a time by build_banks;
# these pin its rows to their closed forms.


def row(spec, n, k, size):
    """Sensor n's codebook for message k, every codebook of ``size`` cells."""
    return build_banks(spec, [size] * spec.n_sensors).codebook(n, k)


def single(size):
    """The one sensor of N = 1: a flat profile, so a uniform quantizer."""
    return row(parse_spec_file("N = 1\n"), 1, 1, size)


def test_build_uniform():
    q = single(4)
    assert np.array_equal(q.boundaries, np.arange(5) / 4)
    assert np.array_equal(q.codewords, (2 * np.arange(1, 5) - 1) / 8)
    assert q.dont_care_cells == frozenset()


def test_build_companded():
    # Sensor 1 of N = 3 hears nothing: gamma^2 = x^2, so the point density
    # is x^(2/3) at fixed rate and x under entropy coding, with cumulative
    # mass x^(5/3) and x^2.
    size = 16
    i = np.arange(size + 1)
    levels = (2 * np.arange(1, size + 1) - 1) / (2 * size)
    for regime, power in (("fixed-rate", 3 / 5), (EC, 1 / 2)):
        q = row(parse_spec_file(f"N = 3\nregime = {regime}\n"), 1, 1, size)
        assert np.allclose(q.boundaries, (i / size) ** power, rtol=0, atol=1e-6)
        assert np.allclose(q.codewords, levels**power, rtol=0, atol=1e-6)


def test_build_with_dont_care():
    # Message 2 of (0, 1/2, 1) at sensor 2 of N = 2: gamma^2 vanishes on
    # [0, 1/2] and ramps as 2x - 1 above, so at fixed rate the granular
    # mass grows as (2x - 1)^(4/3).
    q = row(ChatNetworkSpec.serial_max(2, 2), 2, 2, 4)
    assert q.dont_care_cells == frozenset({1})
    assert (q.boundaries[0], q.boundaries[1]) == (0.0, 0.5)
    assert q.codewords[0] == 0.5
    i = np.arange(4)
    want = (1 + (i / 3) ** 0.75) / 2
    assert np.allclose(q.boundaries[1:], want, rtol=0, atol=1e-6)


def test_build_infeasible():
    # The don't-care cell leaves no granular cell in a one-cell codebook.
    with pytest.raises(InfeasibleCodebookError, match="sensor 2, message 2: .*size 1"):
        row(ChatNetworkSpec.serial_max(2, 2), 2, 2, 1)


def test_quantize_cells_left_open():
    q = single(4)
    # Cells are (t_{k-1}, t_k]: a boundary value belongs to the lower cell.
    assert q.quantize(0.25) == 1
    assert q.quantize(0.2500001) == 2
    assert q.quantize(0.0) == 1
    assert q.quantize(1.0) == 4
    assert np.array_equal(q.quantize(np.array([0.1, 0.6])), [1, 3])


def one_row(edges, codewords, dont_care=False):
    """A table of one sensor holding one codebook."""
    return CodebookTable([[len(codewords)]], [[edges]], [[[*codewords, 0.0]]], [[dont_care]])


def test_quantizer_validation():
    with pytest.raises(ValueError, match="sensor 1, message 1: edges must be strictly increasing"):
        one_row((0.0, 0.5, 0.4), (0.2, 0.6))
    with pytest.raises(ValueError, match="sensor 1, message 1: codewords must lie within"):
        one_row((0.0, 0.5, 1.0), (0.2, 0.45))
    # Codeword exactly on a cell edge is regular.
    one_row((0.0, 0.5, 1.0), (0.5, 0.75))


def test_table_rejects_malformed_rows():
    # Each fault is reported at its (sensor, message) row.
    table = build_banks(ChatNetworkSpec.serial_max(2, 2), [4, 4])
    fields = ("sizes", "edges", "codewords", "dont_care")

    def altered(name, index, value):
        arrays = {f: np.array(getattr(table, f)) for f in fields}
        arrays[name][index] = value
        return CodebookTable(*(arrays[f] for f in fields))

    edge = table.edges[1, 1, 1]
    cases = [
        (("edges", (1, 1, 2), edge), ValueError, "sensor 2, message 2: edges must be strictly increasing"),
        (("edges", (0, 0, 4), 0.5), ValueError, "sensor 1, message 1: edges must be strictly increasing"),
        (("codewords", (1, 0, 3), 1.5), ValueError, "sensor 2, message 1: codewords must lie within their cells"),
        (("codewords", (1, 1, 0), np.nan), ValueError, "sensor 2, message 2: codewords must lie"),
        (("sizes", (1, 1), 1), InfeasibleCodebookError, "sensor 2, message 2: codebook of size 1 leaves no granular cell"),
        (("dont_care", (0, 1), True), InfeasibleCodebookError, "sensor 1, message 2: codebook of size 0"),
        (("sizes", (0, 0), 0), ValueError, "sensor 1, message 1: no cell"),
        (("sizes", (1, 0), 5), ValueError, r"sensor 2, message 1: size 5 is not in 0\.\.4"),
        (("sizes", (1, 0), -1), ValueError, r"sensor 2, message 1: size -1 is not in 0\.\.4"),
    ]
    for change, error, match in cases:
        with pytest.raises(error, match=match):
            altered(*change)
    with pytest.raises(ValueError, match=r"need \(N, K\) sizes"):
        CodebookTable(table.sizes, table.edges[:, :1], table.codewords, table.dont_care)
    # The table keeps its own read-only copies.
    sizes = np.array(table.sizes)
    copy = CodebookTable(sizes, table.edges, table.codewords, table.dont_care)
    sizes[0, 0] = 2
    assert copy.sizes[0, 0] == 4 and not copy.sizes.flags.writeable


@pytest.mark.parametrize("size", [1, 2, 7, 1 << 20])
def test_cell_entropy_of_equal_cells_is_log2_size(size):
    edges = np.linspace(0.0, 1.0, size + 1)
    table = one_row(edges, 0.5 * (edges[:-1] + edges[1:]))
    assert table.cell_entropy().shape == (1, 1)
    assert table.cell_entropy()[0, 0] == pytest.approx(np.log2(size), rel=1e-12, abs=1e-12)


def test_cell_entropy_counts_the_dont_care_cell():
    # Half the mass in the don't-care cell [0, 1/2], the rest in eight
    # cells of 1/16: H_B(1/2) + (1/2) log2 8 = 2.5 bits.
    edges = (0.0, 0.5) + tuple(0.5 + (i + 1) / 16.0 for i in range(8))
    codewords = (0.5,) + tuple(0.5 + (2 * i + 1) / 32.0 for i in range(8))
    table = one_row(edges, codewords, dont_care=True)
    assert table.cell_entropy()[0, 0] == pytest.approx(2.5, abs=1e-12)


def test_cell_entropy_of_a_row_without_codebook_is_zero():
    # Sensor 1 hears nothing, so its message-2 row holds no codebook.
    table = build_banks(ChatNetworkSpec.serial_max(2, 2), [8, 8])
    got = table.cell_entropy()
    assert table.sizes[0, 1] == 0 and got[0, 1] == 0.0
    assert np.all(got[table.sizes > 0] > 0.0)


def test_entropy_bits_is_the_indicator_then_index_rate():
    # By the chain rule, flagging the don't-care cell first and coding the
    # index given the flag costs the plain index entropy.
    rng = np.random.default_rng(5)
    hists = [rng.integers(0, 50, size) for size in (1, 2, 9, 300) for _ in range(5)]
    hists += [np.array([0, 0, 7]), np.array([7, 0, 0, 0]), rng.random(40)]
    for hist in hists:
        for dont_care in (False, True):
            active = np.ones(hist.size, dtype=bool)
            active[0] = not dont_care
            assert _entropy_bits(hist) == pytest.approx(
                split_entropy(hist, active), rel=1e-12, abs=1e-12
            )
    # Rows along the last axis; an all-zero row reads 0.
    block = np.stack([hists[5], np.zeros(2), [3, 3]])
    assert np.array_equal(_entropy_bits(block), [_entropy_bits(hists[5]), 0.0, 1.0])


def test_dont_care_row_builds_past_2_to_the_15():
    # The mass grid starts at s_l.  From 0, levels below the first grid
    # interval's mass interpolated across the don't-care zone [0, s_l],
    # and this row failed to build with codewords outside their cells.
    q = build_banks(ChatNetworkSpec.serial_max(4, 2), [1 << 16] * 4).codebook(4, 2)
    assert q.size == 1 << 16 and q.dont_care_cells == frozenset({1})
    assert np.all(np.diff(q.boundaries) > 0)
    assert np.all(q.codewords >= q.boundaries[:-1]) and np.all(q.codewords <= q.boundaries[1:])
    assert q.boundaries[1] == q.codewords[0] == 0.5


@pytest.mark.parametrize("regime", ["fixed-rate", EC])
def test_every_row_type_builds_up_to_the_cap(regime):
    # Sensor 1 hears nothing, sensor 2 hears message 1 and the don't-care
    # message 2 of one-bit chat: each builds with every codeword inside
    # its cell around 2^15-2^17 cells and at the largest codebook.
    spec = ChatNetworkSpec.serial_max(2, 2, regime=regime)
    for size in (1 << 15, 3 << 15, 1 << 17, MAX_CODEBOOK_SIZE):
        table = build_banks(spec, [size, size])
        for n, k in ((1, 1), (2, 1), (2, 2)):
            q = table.codebook(n, k)
            assert q.size == size and q.boundaries[-1] == 1.0
            assert np.all(np.diff(q.boundaries) > 0)
            assert np.all(q.codewords >= q.boundaries[:-1])
            assert np.all(q.codewords <= q.boundaries[1:])
    with pytest.raises(InfeasibleRateError, match=f"sensor 1, message 1: .*{MAX_CODEBOOK_SIZE}"):
        build_banks(spec, [MAX_CODEBOOK_SIZE + 1, 4])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=64))
def test_uniform_build_any_size(size):
    q = single(size)
    assert q.size == size
    widths = np.diff(q.boundaries)
    assert np.allclose(widths, 1.0 / size)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=32),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_quantize_reconstruct_stays_in_cell(size, x):
    q = row(parse_spec_file(f"N = 3\nregime = {EC}\n"), 1, 1, size)
    k = int(q.quantize(x))
    lo, hi = q.boundaries[k - 1], q.boundaries[k]
    assert lo < x <= hi or (k == 1 and x <= hi)
    assert lo <= q.codewords[k - 1] <= hi
