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
    quasi_norm_one_third,
)


def test_integrate_polynomial():
    assert integrate_adaptive(lambda x: 3 * x**2, 0.0, 1.0) == pytest.approx(1.0)
    assert integrate_adaptive(lambda x: x, 0.0, 0.0) == 0.0
    # Integrable singularities at an end need no breakpoint or split.
    for fn, lo, hi, exact in (
        (np.log, 0.0, 1.0, -1.0),
        (lambda x: x**-0.5, 0.0, 1.0, 2.0),
        (lambda x: np.cbrt(x - 0.3), 0.3, 1.0, 0.75 * 0.7 ** (4.0 / 3.0)),
    ):
        assert integrate_adaptive(fn, lo, hi) == pytest.approx(exact, rel=1e-9)
    for lo, hi in ((1.0, 0.0), (0.0, math.nan), (math.nan, 1.0), (0.0, math.inf)):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda x: x, lo, hi)


def test_integrate_with_kink():
    # |x - 1/3| has a kink; splitting there keeps the quadrature honest.
    fn = lambda x: abs(x - 1.0 / 3.0)
    exact = (1.0 / 3.0) ** 2 / 2 + (2.0 / 3.0) ** 2 / 2
    assert integrate_adaptive(fn, 0.0, 1.0, breakpoints=(1.0 / 3.0,)) == pytest.approx(
        exact, abs=1e-9
    )
    # A zero piece settles at once; the peaked one next to it needs more levels.
    w = 0.01
    peak = lambda x: np.where(x < 0.3, 0.0, w / ((x - 0.65) ** 2 + w**2))
    exact = 2.0 * math.atan(0.35 / w)
    assert integrate_adaptive(peak, 0.0, 1.0, breakpoints=(0.3,)) == pytest.approx(
        exact, rel=1e-9
    )
    # A jump with no breakpoint never settles: raise, not a wrong answer.
    step = lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="settle"):
        integrate_adaptive(step, 0.0, 1.0)


def test_quasi_norm_linear_density():
    # f(x) = 2x on [0,1]: (int (2x)^(1/3))^3 = 2 * (3/4)^3 = 27/32.
    assert quasi_norm_one_third(lambda x: 2.0 * x, 0.0, 1.0) == pytest.approx(
        27.0 / 32.0, rel=1e-8
    )


def test_quasi_norm_uniform_is_one():
    assert quasi_norm_one_third(lambda x: 1.0, 0.0, 1.0) == pytest.approx(1.0)


def test_quasi_norm_rejects_negative():
    with pytest.raises(ValueError):
        quasi_norm_one_third(lambda x: -1.0, 0.0, 1.0)


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
