import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chatquant.probcore import (
    Pdf,
    binary_entropy,
    integrate_adaptive,
)


def one_row(fn, edges):
    """``fn`` of one array of abscissas integrated over the pieces between
    ``edges``, as the one row of a rows call."""
    (got,) = integrate_adaptive(lambda x, _rows: fn(x), np.array([edges], dtype=float))
    return got


def test_integrate_polynomial():
    assert one_row(lambda x: 3 * x**2, [0.0, 1.0]) == pytest.approx(1.0)
    assert one_row(lambda x: x, [0.0, 0.0]) == 0.0
    # Integrable singularities at an end need no breakpoint or split.
    for fn, lo, hi, exact in (
        (np.log, 0.0, 1.0, -1.0),
        (lambda x: x**-0.5, 0.0, 1.0, 2.0),
        (lambda x: np.cbrt(x - 0.3), 0.3, 1.0, 0.75 * 0.7 ** (4.0 / 3.0)),
    ):
        assert one_row(fn, [lo, hi]) == pytest.approx(exact, rel=1e-9)
    for lo, hi in ((1.0, 0.0), (0.0, math.nan), (math.nan, 1.0), (0.0, math.inf)):
        with pytest.raises(ValueError):
            one_row(lambda x: x, [lo, hi])


def test_integrate_with_kink():
    # |x - 1/3| has a kink; splitting there keeps the quadrature honest.
    fn = lambda x: abs(x - 1.0 / 3.0)
    exact = (1.0 / 3.0) ** 2 / 2 + (2.0 / 3.0) ** 2 / 2
    assert one_row(fn, [0.0, 1.0 / 3.0, 1.0]) == pytest.approx(exact, abs=1e-9)
    # A zero piece settles at once; the peaked one next to it needs more levels.
    w = 0.01
    peak = lambda x: np.where(x < 0.3, 0.0, w / ((x - 0.65) ** 2 + w**2))
    exact = 2.0 * math.atan(0.35 / w)
    assert one_row(peak, [0.0, 0.3, 1.0]) == pytest.approx(exact, rel=1e-9)
    # A jump with no breakpoint never settles: raise, not a wrong answer.
    step = lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="settle"):
        one_row(step, [0.0, 1.0])


# Row integrands: kind 0 is a smooth polynomial, kind 1 a cube root that
# vanishes at the row's first edge, kind 2 the logarithm of x, singular at
# 0 where those rows start.
def _row_values(x, kind, lo, coef):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.select(
            [kind == 0, kind == 1],
            [coef * x**2 + 1.0, np.cbrt(x - lo)],
            coef * np.log(x),
        )


@st.composite
def row_batches(draw):
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.integers(0, 2))
        cuts = draw(
            st.lists(
                st.sampled_from([0.0, 0.125, 0.3, 0.5, 0.7, 1.0])
                | st.floats(0.0, 1.0),
                min_size=2,
                max_size=4,
            )
        )
        edges = sorted(cuts)
        if kind == 2:
            edges[0] = 0.0
        rows.append((kind, draw(st.floats(0.5, 4.0)), edges))
    pieces = max(len(e) for _k, _c, e in rows)
    # Pad with zero-width pieces at each row's end.
    edges = np.array([e + [e[-1]] * (pieces - len(e)) for _k, _c, e in rows])
    kind = np.array([k for k, _c, _e in rows])
    coef = np.array([c for _k, c, _e in rows])
    return kind, coef, edges


@given(row_batches())
def test_rows_match_one_row_calls(batch):
    kind, coef, edges = batch

    def fn(x, rows):
        r = rows[:, None, None]
        return _row_values(x, kind[r], edges[r, 0], coef[r])

    got = integrate_adaptive(fn, edges)
    assert got.shape == (len(edges),)
    for r in range(len(edges)):
        one = integrate_adaptive(
            lambda x, _rows: _row_values(x, kind[r], edges[r, 0], coef[r]),
            edges[r : r + 1],
        )
        assert one.shape == (1,)
        assert got[r] == pytest.approx(one[0], rel=1e-15, abs=0.0)


def test_rows_non_finite_row_comes_back_as_is():
    edges = np.array([[0.0, 0.5, 1.0], [0.0, 0.5, 1.0], [0.0, 1.0, 1.0]])
    bad = {1: np.inf, 2: np.nan}

    def fn(x, rows):
        out = np.broadcast_to(3.0 * x**2, x.shape).copy()
        for i, r in enumerate(rows):
            if r in bad:
                out[i] = bad[r]
        return out

    got = integrate_adaptive(fn, edges)
    assert got[0] == pytest.approx(1.0, rel=1e-12)
    assert got[1] == np.inf
    assert np.isnan(got[2])


def test_rows_jump_without_breakpoint_raises():
    # Row 1 settles at once; row 0 jumps at 1/3 with no edge there.
    edges = np.array([[0.0, 1.0], [0.0, 1.0]])

    def fn(x, rows):
        jump = np.where(x < 1.0 / 3.0, 0.0, 1.0)
        return np.where(rows[:, None, None] == 0, jump, x)

    with pytest.raises(ValueError, match="settle"):
        integrate_adaptive(fn, edges)


def test_rows_reject_bad_edges():
    fn = lambda x, rows: x
    for edges in ([0.0, 1.0], [[0.0, np.inf]], [[0.5, 0.2]], [[0.0]]):
        with pytest.raises(ValueError):
            integrate_adaptive(fn, np.array(edges))


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328)
    for p in (1.5, -0.1, math.nan):
        with pytest.raises(ValueError):
            binary_entropy(p)


@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_binary_entropy_symmetry(p):
    assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), rel=1e-12)


def test_pdf_uniform_roundtrip():
    pdf = Pdf(0.0, 2.0)
    assert pdf.integrate(0.0, 1.0) == pytest.approx(0.5)
    assert pdf.cdf(1.0) == pytest.approx(0.5, abs=1e-6)
    assert pdf.ppf(0.25) == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.0, 2.0), (-1.5, 0.25)])
def test_pdf_uniform_cdf_is_exact(lo, hi):
    pdf = Pdf(lo, hi)
    assert pdf.cdf(lo) == 0.0
    assert pdf.cdf(hi) == 1.0
    u = np.linspace(0.0, 1.0, 1001)
    assert np.allclose(pdf.ppf(u), lo + u * (hi - lo), rtol=0.0, atol=1e-15)


def test_pdf_rejects_unnormalized():
    # A uniform law needs a finite interval of positive width.
    for lo, hi in ((0.0, 0.0), (1.0, 0.0), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="degenerate"):
            Pdf(lo, hi)


def test_pdf_sampling_matches_cdf():
    pdf = Pdf(0.0, 2.0)
    rng = np.random.default_rng(0)
    draws = pdf.sample(rng, 200_000)
    # P(X <= 1/2) = 1/4 on [0, 2].
    assert pdf.cdf(0.5) == 0.25
    assert np.mean(draws <= 0.5) == pytest.approx(0.25, abs=0.005)
    assert draws.min() >= 0.0 and draws.max() < 2.0


def test_pdf_sampling_deterministic():
    pdf = Pdf(0.0, 1.0)
    a = pdf.sample(np.random.default_rng(7), 100)
    b = pdf.sample(np.random.default_rng(7), 100)
    assert np.array_equal(a, b)
    # The unit law returns the generator's own draws, bit for bit.
    for shape in (100, (64, 5)):
        got = pdf.sample(np.random.default_rng(7), shape)
        assert np.array_equal(got, np.random.default_rng(7).random(shape))


def test_import_loads_no_scipy():
    # perfbench/spans.py patches probcore.quad, so the name must resolve.
    code = (
        "import sys, chatquant\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n"
        "assert callable(chatquant.probcore.quad)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
