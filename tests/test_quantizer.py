import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatquant.chatnet import ChatNetworkSpec, build_banks, parse_spec_file
from chatquant.probcore import Pdf
from chatquant.quantizer import (
    InfeasibleCodebookError,
    Quantizer,
    output_entropy,
)

EC = "entropy-constrained"

# Codebooks are built one (sensor, message) row at a time by build_banks;
# these pin its rows to their closed forms.


def row(spec, n, k, size):
    """Sensor n's codebook for message k, every codebook of ``size`` cells."""
    return build_banks(spec, [size] * spec.n_sensors)[n][k]


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
    assert q.cell_interval(1) == (0.0, 0.5)
    assert q.codewords[0] == 0.5
    i = np.arange(4)
    want = (1 + (i / 3) ** 0.75) / 2
    assert np.allclose(q.boundaries[1:], want, rtol=0, atol=1e-6)


def test_build_infeasible():
    # The don't-care cell leaves no granular cell in a one-cell codebook.
    with pytest.raises(InfeasibleCodebookError, match="size 1"):
        row(ChatNetworkSpec.serial_max(2, 2), 2, 2, 1)


def test_quantize_cells_left_open():
    q = single(4)
    # Cells are (t_{k-1}, t_k]: a boundary value belongs to the lower cell.
    assert q.quantize(0.25) == 1
    assert q.quantize(0.2500001) == 2
    assert q.quantize(0.0) == 1
    assert q.quantize(1.0) == 4
    assert np.array_equal(q.quantize(np.array([0.1, 0.6])), [1, 3])


def test_quantizer_validation():
    with pytest.raises(ValueError):
        Quantizer(boundaries=(0.0, 0.5, 0.4), codewords=(0.2, 0.6))
    with pytest.raises(ValueError):
        Quantizer(boundaries=(0.0, 0.5, 1.0), codewords=(0.2, 0.45))
    # Codeword exactly on a cell edge is regular.
    Quantizer(boundaries=(0.0, 0.5, 1.0), codewords=(0.5, 0.75))


def test_reconstruct():
    q = Quantizer(boundaries=(0.0, 0.5, 1.0), codewords=(0.25, 0.75))
    assert q.reconstruct(1) == 0.25
    assert np.array_equal(q.reconstruct(np.array([2, 1])), [0.75, 0.25])


def test_text_roundtrip():
    q = row(ChatNetworkSpec.serial_max(3, 2), 3, 2, 5)
    q2 = Quantizer.from_text(q.to_text())
    assert np.array_equal(q.boundaries, q2.boundaries)
    assert np.array_equal(q.codewords, q2.codewords)
    assert q.dont_care_cells == q2.dont_care_cells


def test_output_entropy():
    q = Quantizer(boundaries=(0.0, 0.5, 0.75, 1.0), codewords=(0.25, 0.625, 0.875))
    assert output_entropy(q, Pdf(0.0, 1.0)) == pytest.approx(1.5, rel=1e-6)
    # Quantizer narrower than the source: tails fold into the end cells.
    q2 = Quantizer(boundaries=(0.25, 0.5, 0.75), codewords=(0.375, 0.625))
    assert output_entropy(q2, Pdf(0.0, 1.0)) == pytest.approx(1.0, rel=1e-6)


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
    lo, hi = q.cell_interval(k)
    assert lo < x <= hi or (k == 1 and x <= hi)
    assert lo <= q.reconstruct(k) <= hi
