import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatquant.probcore import Pdf
from chatquant.quantizer import (
    Compressor,
    InfeasibleCodebookError,
    PointDensity,
    Quantizer,
    build_fixed_rate_quantizer,
    output_entropy,
)


def linear_density():
    return PointDensity.from_proportional(lambda x: 2.0 * np.asarray(x), 0.0, 1.0)


def test_point_density_normalized():
    d = linear_density()
    assert d(1.0) == pytest.approx(2.0, rel=1e-6)
    assert d(0.25) == pytest.approx(0.5, rel=1e-6)


def test_point_density_zero_zone():
    d = PointDensity.from_proportional(
        lambda x: np.where(np.asarray(x) < 0.5, 0.0, 1.0),
        0.0,
        1.0,
        zero_zones=((0.0, 0.5),),
    )
    assert d(0.25) == 0.0
    assert d(0.75) == pytest.approx(2.0, rel=1e-6)
    assert d.active_intervals() == [(0.5, 1.0)]


def test_compressor_roundtrip():
    c = Compressor(linear_density())
    # c(x) = x^2 for lambda = 2x.
    xs = np.linspace(0.0, 1.0, 33)
    assert np.allclose(c(xs), xs**2, atol=1e-4)
    assert np.allclose(c.inverse(c(xs)), xs, atol=1e-4)


def test_build_uniform():
    q = build_fixed_rate_quantizer(PointDensity.uniform(0.0, 1.0), 4)
    assert np.allclose(q.boundaries, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(q.codewords, [0.125, 0.375, 0.625, 0.875])


def test_build_companded():
    # lambda = 2x, K = 2: boundary at mass 1/2 -> sqrt(1/2); codewords at
    # mass 1/4 and 3/4 -> 1/2 and sqrt(3)/2.
    q = build_fixed_rate_quantizer(linear_density(), 2)
    assert q.boundaries[1] == pytest.approx(np.sqrt(0.5), abs=1e-4)
    assert q.codewords[0] == pytest.approx(0.5, abs=1e-4)
    assert q.codewords[1] == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-4)


def test_build_with_dont_care():
    d = PointDensity.from_proportional(
        lambda x: np.where(np.asarray(x) < 0.5, 0.0, 1.0),
        0.0,
        1.0,
        zero_zones=((0.0, 0.5),),
    )
    q = build_fixed_rate_quantizer(d, 4, dont_care=((0.0, 0.5),))
    assert q.dont_care_cells == frozenset({1})
    assert q.boundaries[1] == pytest.approx(0.5)
    # Three granular cells share the active half.
    assert np.allclose(q.boundaries[1:], [0.5, 4.0 / 6.0, 5.0 / 6.0, 1.0])


def test_build_infeasible():
    d = PointDensity.from_proportional(
        lambda x: np.where(np.asarray(x) < 0.5, 0.0, 1.0),
        0.0,
        1.0,
        zero_zones=((0.0, 0.5),),
    )
    with pytest.raises(InfeasibleCodebookError):
        build_fixed_rate_quantizer(d, 1, dont_care=((0.0, 0.5),))


def test_quantize_cells_left_open():
    q = build_fixed_rate_quantizer(PointDensity.uniform(0.0, 1.0), 4)
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
    q = build_fixed_rate_quantizer(linear_density(), 3, dont_care=None)
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
    q = build_fixed_rate_quantizer(PointDensity.uniform(0.0, 1.0), size)
    assert q.size == size
    widths = np.diff(q.boundaries)
    assert np.allclose(widths, 1.0 / size)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=32),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_quantize_reconstruct_stays_in_cell(size, x):
    q = build_fixed_rate_quantizer(linear_density(), size)
    k = int(q.quantize(x))
    lo, hi = q.cell_interval(k)
    assert lo < x <= hi or (k == 1 and x <= hi)
    assert lo <= q.reconstruct(k) <= hi
