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

# Floor under the argument of a logarithm; a log singularity at a zero of
# the argument is integrable, the floor only guards exact-zero evaluations.
_LOG_FLOOR = 1e-300

# Double-exponential (tanh-sinh) rule of Takahasi & Mori (1974): nodes
# t = k h on |t| <= _DE_T_MAX map to x = tanh(pi/2 sinh t) in (-1, 1), and
# each level halves h.  At t = 4 a node lies 1e-37 half-widths from its end, so
# the cut tails of an integrable x^(-1/2) or log x singularity are below 1e-18.
_DE_T_MAX = 4.0
_DE_STEP = 0.125
_DE_LEVELS = 10


def _de_nodes(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sign of t, distance 1 - |x| from the nearer end, and weight dx/dt
    of the nodes that ``level`` adds."""
    h = _DE_STEP / 2**level
    k = np.arange(-round(_DE_T_MAX / h), round(_DE_T_MAX / h) + 1)
    t = h * (k if level == 0 else k[k % 2 == 1])
    u = 0.5 * np.pi * np.sinh(t)
    # 1 - tanh|u| without the cancellation that would put nodes on the ends.
    dist = 1.0 / (np.exp(np.abs(u)) * np.cosh(u))
    weight = 0.5 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    return np.sign(t), dist, weight


_DE_NODES = tuple(_de_nodes(level) for level in range(_DE_LEVELS + 1))


def integrate_adaptive(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    breakpoints: Sequence[float] = (),
) -> float:
    """Integrate ``fn`` over [lo, hi] with the tanh-sinh rule.

    Each level evaluates ``fn`` once, on the new nodes of every piece
    between breakpoints, and halves the step, until two levels agree on
    every piece to ABS_TOL / REL_TOL.  The nodes crowd towards the piece
    ends without reaching them, so integrable endpoint singularities (a
    cube root or a logarithm of a zero) need no special treatment.

    Parameters
    ----------
    fn : callable
        Vectorized integrand: maps a 1-D array of abscissas to the array
        of values (a scalar result is broadcast).
    lo, hi : float
        Finite integration limits, lo <= hi.
    breakpoints : sequence of float
        Interior points where the integrand is non-smooth (kinks, piece
        seams).  The integral is split there so no piece straddles a
        discontinuity.

    Returns
    -------
    float
        The integral value, accurate to roughly ABS_TOL / REL_TOL on each
        piece.  A non-finite sum is returned as it is; a finite one that
        has not settled after the last level raises ValueError.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"integration limits must be finite, got [{lo}, {hi}]")
    if hi < lo:
        raise ValueError(f"empty integration range [{lo}, {hi}]")
    if hi == lo:
        return 0.0
    edges = np.array([lo, *sorted(p for p in set(breakpoints) if lo < p < hi), hi])
    a, b = edges[:-1, None], edges[1:, None]
    half = 0.5 * (b - a)
    acc = np.zeros(edges.size - 1)
    prev = np.full(edges.size - 1, np.inf)
    for level, (side, dist, weight) in enumerate(_DE_NODES):
        x = np.where(side < 0, a + half * dist, b - half * dist)
        vals = np.broadcast_to(np.asarray(fn(x.ravel()), dtype=float), (x.size,))
        acc += vals.reshape(x.shape) @ weight
        est = acc * half[:, 0] * (_DE_STEP / 2**level)
        total = float(est.sum())
        if not math.isfinite(total):
            return total
        if np.all(np.abs(est - prev) <= np.maximum(ABS_TOL, REL_TOL * np.abs(est))):
            return total
        prev = est
    raise ValueError(
        f"integral over [{lo}, {hi}] did not settle after {_DE_LEVELS} levels; "
        "a kink or jump may lack a breakpoint"
    )


def quasi_norm_one_third(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    breakpoints: Sequence[float] = (),
) -> float:
    """Cube of the integral of ``fn**(1/3)`` over [lo, hi].

    This is the one-third quasi-norm that governs fixed-rate companding
    performance.  ``fn`` must be vectorized and nonnegative on the interval.
    """

    def root(x: np.ndarray) -> np.ndarray:
        v = np.broadcast_to(np.asarray(fn(x), dtype=float), x.shape)
        for bad, what in ((~np.isfinite(v), "non-finite"), (v < -1e-12, "negative")):
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(f"{what} integrand value {v[i]!r} at x={x[i]!r}")
        # Tolerate float dust below zero from subtractive formulas.
        return np.cbrt(np.maximum(v, 0.0))

    s = integrate_adaptive(root, lo, hi, breakpoints)
    return s**3


def _log2_moment(
    pdf: Pdf, fn: Callable, regions: Sequence[tuple[float, float]], bps: Sequence[float]
) -> float:
    """Integral of f log2 fn over ``regions``, f the density of ``pdf``.

    The integrand is 0 where f = 0, and ``fn`` is floored at _LOG_FLOOR,
    so a zero of ``fn`` is an integrable log singularity, not a NaN.
    """

    def integrand(x: np.ndarray) -> np.ndarray:
        f = pdf(x)
        return np.where(f > 0.0, f * np.log2(np.maximum(fn(x), _LOG_FLOOR)), 0.0)

    return sum(integrate_adaptive(integrand, a, b, bps) for a, b in regions)


def binary_entropy(p: float) -> float:
    """Entropy in bits of a Bernoulli(p) variable; 0 at the endpoints."""
    if not 0.0 <= p <= 1.0:
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
            mass = integrate_adaptive(fn, lo, hi, bps)
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
        return integrate_adaptive(self.density, a, b, self.breakpoints)

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
        trapezoids = np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0
        cdf = np.concatenate([[0.0], np.cumsum(trapezoids)])
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
    return -_log2_moment(pdf, pdf, [(pdf.lo, pdf.hi)], pdf.breakpoints)


def __getattr__(name: str):
    # perfbench/spans.py patches probcore.quad to count its calls.
    if name == "quad":
        from scipy.integrate import quad

        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
