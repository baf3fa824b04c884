"""Scalar probability densities and the numeric primitives built on them.

Everything downstream (quantizer construction, sensitivity profiles,
distortion predictions) reduces to one-dimensional integrals of piecewise
smooth functions on a bounded interval.  This module centralizes those
integrals so tolerances live in one place, and provides a small Pdf type
with CDF inversion for reproducible sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

__all__ = [
    "GriddedFunction",
    "Pdf",
    "binary_entropy",
    "differential_entropy",
    "integrate_adaptive",
    "quasi_norm_one_third",
]

# Absolute / relative tolerances for the adaptive quadrature, and the grid
# resolution used when a function has to be tabulated (CDF inversion).
ABS_TOL = 1e-9
REL_TOL = 1e-6
DEFAULT_GRID = 4096

_QUAD_LIMIT = 200


def integrate_adaptive(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    breakpoints: Sequence[float] = (),
) -> float:
    """Integrate ``fn`` over [lo, hi] with adaptive quadrature.

    Parameters
    ----------
    fn : callable
        Scalar integrand, evaluated pointwise.
    lo, hi : float
        Integration limits, lo <= hi.
    breakpoints : sequence of float
        Interior points where the integrand is non-smooth (kinks, piece
        seams).  The integral is split there so the adaptive rule never
        straddles a discontinuity.

    Returns
    -------
    float
        The integral value, accurate to roughly ABS_TOL / REL_TOL.
    """
    if hi < lo:
        raise ValueError(f"empty integration range [{lo}, {hi}]")
    if hi == lo:
        return 0.0
    edges = [lo]
    for p in sorted(set(breakpoints)):
        if lo < p < hi:
            edges.append(p)
    edges.append(hi)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _err = quad(fn, a, b, epsabs=ABS_TOL, epsrel=REL_TOL, limit=_QUAD_LIMIT)
        total += val
    return total


def quasi_norm_one_third(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    breakpoints: Sequence[float] = (),
) -> float:
    """Cube of the integral of ``fn**(1/3)`` over [lo, hi].

    This is the one-third quasi-norm that governs fixed-rate companding
    performance.  ``fn`` must be nonnegative on the interval.
    """

    def root(x: float) -> float:
        v = fn(x)
        if not np.isfinite(v):
            raise ValueError(f"non-finite integrand value {v!r} at x={x!r}")
        if v < 0:
            # Tolerate float dust below zero from subtractive formulas.
            if v < -1e-12:
                raise ValueError(f"negative integrand value {v!r} at x={x!r}")
            return 0.0
        return v ** (1.0 / 3.0)

    s = integrate_adaptive(root, lo, hi, breakpoints)
    return s**3


def binary_entropy(p: float) -> float:
    """Entropy in bits of a Bernoulli(p) variable; 0 at the endpoints."""
    if p < 0.0 or p > 1.0:
        raise ValueError(f"probability out of range: {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@dataclass(frozen=True)
class GriddedFunction:
    """A function tabulated on an increasing grid, evaluated by linear
    interpolation and clamped to the end values outside the grid."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValueError("grid and values must be 1-D arrays of equal length >= 2")
        if not np.all(np.diff(xs) > 0):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        return np.interp(x, self.xs, self.ys)

    @property
    def support(self) -> tuple[float, float]:
        return float(self.xs[0]), float(self.xs[-1])


@dataclass(frozen=True)
class Pdf:
    """Probability density on a bounded interval.

    Parameters
    ----------
    lo, hi : float
        Support endpoints, lo < hi.
    density : callable
        Vectorized density function; nonnegative on the support.
    breakpoints : tuple of float
        Interior seams of piecewise definitions, passed to the quadrature.
    """

    lo: float
    hi: float
    density: Callable[[np.ndarray], np.ndarray]
    breakpoints: tuple[float, ...] = ()
    _cdf_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.hi > self.lo):
            raise ValueError(f"degenerate support [{self.lo}, {self.hi}]")
        total = self.integrate(self.lo, self.hi)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"density integrates to {total!r}, not 1")

    # -- constructors -------------------------------------------------

    @staticmethod
    def uniform(lo: float = 0.0, hi: float = 1.0) -> "Pdf":
        width = hi - lo
        pdf = Pdf(lo, hi, lambda x: np.full_like(np.asarray(x, dtype=float), 1.0 / width))
        # The CDF is affine, so interpolating on its endpoints is exact.
        pdf._cdf_cache["table"] = (np.array([lo, hi], dtype=float), np.array([0.0, 1.0]))
        return pdf

    @staticmethod
    def from_callable(
        fn: Callable[[np.ndarray], np.ndarray],
        lo: float,
        hi: float,
        breakpoints: Sequence[float] = (),
        normalize: bool = False,
    ) -> "Pdf":
        bps = tuple(sorted(p for p in breakpoints if lo < p < hi))
        if normalize:
            mass = integrate_adaptive(lambda x: float(fn(np.asarray([x]))[0]), lo, hi, bps)
            if mass <= 0:
                raise ValueError("cannot normalize a density with nonpositive mass")
            base = fn
            fn = lambda x, _b=base, _m=mass: np.asarray(_b(x), dtype=float) / _m
        return Pdf(lo, hi, fn, bps)

    # -- evaluation ---------------------------------------------------

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        return self.density(np.asarray(x, dtype=float))

    def integrate(self, a: float, b: float) -> float:
        a = max(a, self.lo)
        b = min(b, self.hi)
        if b <= a:
            return 0.0
        return integrate_adaptive(
            lambda x: float(self.density(np.asarray([x]))[0]), a, b, self.breakpoints
        )

    def _cdf_table(self) -> tuple[np.ndarray, np.ndarray]:
        cached = self._cdf_cache.get("table")
        if cached is not None:
            return cached
        pieces = [self.lo, *[p for p in self.breakpoints if self.lo < p < self.hi], self.hi]
        xs_parts = []
        for a, b in zip(pieces[:-1], pieces[1:]):
            n = max(16, int(DEFAULT_GRID * (b - a) / (self.hi - self.lo)))
            xs_parts.append(np.linspace(a, b, n + 1))
        xs = np.unique(np.concatenate(xs_parts))
        ys = np.asarray(self.density(xs), dtype=float)
        from scipy.integrate import cumulative_trapezoid

        cdf = np.concatenate([[0.0], cumulative_trapezoid(ys, xs)])
        if cdf[-1] > 0:
            cdf = cdf / cdf[-1]
        cdf = np.maximum.accumulate(cdf)
        self._cdf_cache["table"] = (xs, cdf)
        return xs, cdf

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        xs, cdf = self._cdf_table()
        return np.interp(x, xs, cdf)

    def ppf(self, u: np.ndarray | float) -> np.ndarray | float:
        """Inverse CDF by interpolation on the cached table."""
        xs, cdf = self._cdf_table()
        # Drop flat runs so np.interp sees a strictly increasing abscissa.
        keep = np.concatenate([[True], np.diff(cdf) > 0])
        return np.interp(u, cdf[keep], xs[keep])

    def sample(self, rng: np.random.Generator, size: int | tuple | None = None):
        """Draw samples via inverse-CDF transform of ``rng`` uniforms."""
        u = rng.random(size)
        return self.ppf(u)


def differential_entropy(pdf: Pdf) -> float:
    """Differential entropy of ``pdf`` in bits; integrand is 0 where f = 0."""

    def integrand(x: float) -> float:
        f = float(pdf.density(np.asarray([x]))[0])
        if f <= 0.0:
            return 0.0
        return -f * math.log2(f)

    return integrate_adaptive(integrand, pdf.lo, pdf.hi, pdf.breakpoints)
