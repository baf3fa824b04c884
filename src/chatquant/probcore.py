"""The uniform source law and the numeric primitives built on it.

Everything downstream (quantizer construction, sensitivity profiles,
distortion predictions) reduces to one-dimensional integrals of piecewise
smooth functions on a bounded interval.  This module centralizes those
integrals so tolerances live in one place, and provides the uniform
``Pdf`` the sensors sample from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Pdf",
    "binary_entropy",
    "integrate_adaptive",
]

# Absolute / relative tolerances for the adaptive quadrature.
ABS_TOL = 1e-9
REL_TOL = 1e-6

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


def integrate_adaptive(fn: Callable, edges: np.ndarray) -> np.ndarray:
    """Integrate rows of functions at once with the tanh-sinh rule.

    ``edges`` is an (R, P+1) array whose row r holds the finite,
    nondecreasing piece edges (kinks, piece seams) of integral r, and
    ``fn(x, rows)`` maps an (len(rows), P, nodes) block of abscissas, rows
    ``rows`` of ``edges``, to values of that shape (or one that broadcasts
    to it).  Each level evaluates the integrand once, on the new nodes of
    every piece of every unsettled row, and halves the step; a row stops
    once two levels agree on each of its pieces to ABS_TOL / REL_TOL and
    drops out of later levels.  The nodes crowd towards the piece ends
    without reaching them, so integrable endpoint singularities (a cube
    root or a logarithm of a zero) need no special treatment.  A
    zero-width piece contributes exactly 0, so rows with fewer pieces are
    padded with them.  Returns the R integrals.

    A non-finite sum is returned as it is; a finite one that has not
    settled after the last level raises ValueError.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 2 or edges.shape[1] < 2:
        raise ValueError(f"row edges must be (R, P+1), P >= 1, not {edges.shape}")
    if not np.isfinite(edges).all():
        raise ValueError("integration limits must be finite")
    if np.any(np.diff(edges, axis=1) < 0):
        raise ValueError("row edges must be nondecreasing")
    a, b = edges[:, :-1, None], edges[:, 1:, None]
    half = 0.5 * (b - a)
    acc = np.zeros(half.shape[:2])
    prev = np.full(half.shape[:2], np.inf)
    out = np.empty(edges.shape[0])
    rows = np.arange(edges.shape[0])
    for level, (side, dist, weight) in enumerate(_DE_NODES):
        ra, rb, rh = a[rows], b[rows], half[rows]
        x = np.where(side < 0, ra + rh * dist, rb - rh * dist)
        vals = np.broadcast_to(np.asarray(fn(x, rows), dtype=float), x.shape)
        # One (pieces, nodes) matrix times the weights, as for a single row.
        acc[rows] += (vals.reshape(-1, side.size) @ weight).reshape(rh.shape[:2])
        width = rh[:, :, 0]
        # A zero-width piece adds exactly 0, even where fn is not finite at
        # its point; a non-finite row stops as it is, whatever inf - inf
        # compares to.
        with np.errstate(invalid="ignore"):
            est = np.where(width > 0, acc[rows] * width * (_DE_STEP / 2**level), 0.0)
            change = np.abs(est - prev[rows])
        total = est.sum(axis=1)
        settled = np.all(change <= np.maximum(ABS_TOL, REL_TOL * np.abs(est)), axis=1)
        done = settled | ~np.isfinite(total)
        out[rows[done]] = total[done]
        prev[rows] = est
        rows = rows[~done]
        if rows.size == 0:
            return out
    lo, hi = edges[rows[0], 0], edges[rows[0], -1]
    raise ValueError(
        f"integral over [{lo}, {hi}] did not settle after {_DE_LEVELS} levels; "
        "a kink or jump may lack a breakpoint"
    )


def binary_entropy(p: float) -> float:
    """Entropy in bits of a Bernoulli(p) variable; 0 at the endpoints."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@dataclass(frozen=True)
class Pdf:
    """Uniform law on the interval [lo, hi], lo < hi, both finite.

    Every closed form downstream (sensitivity profiles, message laws,
    the conditional-expectation decoder) assumes iid uniform(0, 1)
    sensors, so this is the only source law; its CDF, inverse CDF,
    interval masses and samples are exact.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)) or self.hi <= self.lo:
            raise ValueError(f"degenerate support [{self.lo}, {self.hi}]")

    def integrate(self, a: float, b: float) -> float:
        """Probability of [a, b]."""
        return max(min(b, self.hi) - max(a, self.lo), 0.0) / (self.hi - self.lo)

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        u = (np.asarray(x, dtype=float) - self.lo) / (self.hi - self.lo)
        return np.clip(u, 0.0, 1.0)

    def ppf(self, u: np.ndarray | float) -> np.ndarray | float:
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        return self.lo + (self.hi - self.lo) * u

    def sample(self, rng: np.random.Generator, size: int | tuple | None = None):
        """``rng.random(size)`` scaled onto [lo, hi] in place, so the unit
        law returns the generator's draws bit for bit."""
        u = rng.random(size)
        u *= self.hi - self.lo
        u += self.lo
        return u


def __getattr__(name: str):
    # perfbench/spans.py patches probcore.quad to count its calls; scipy
    # comes with the test extra, which the traced benchmark needs.
    if name == "quad":
        from scipy.integrate import quad

        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
