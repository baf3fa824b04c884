"""Companding scalar quantizers, each built from a point density.

A point density is a normalized codeword-density function on a bounded
support, possibly with zero zones (subintervals that receive no granular
codewords).  A quantizer built from it has cells that are left-open,
right-closed intervals; each declared don't-care interval becomes exactly
one cell with a single codeword.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .probcore import Pdf, integrate_adaptive

__all__ = [
    "Compressor",
    "InfeasibleCodebookError",
    "PointDensity",
    "Quantizer",
    "build_fixed_rate_quantizer",
    "output_entropy",
]

# Points per smooth piece when tabulating the cumulative codeword mass.
_COMPRESSOR_GRID = 4096


class InfeasibleCodebookError(ValueError):
    """Raised when a requested codebook cannot host the required cells."""


@dataclass(frozen=True)
class PointDensity:
    """Normalized codeword density on [lo, hi] with optional zero zones.

    ``density`` must vanish on every zero zone and integrate to 1 over the
    complement (the active region).
    """

    lo: float
    hi: float
    density: Callable[[np.ndarray], np.ndarray]
    zero_zones: tuple[tuple[float, float], ...] = ()
    breakpoints: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not (self.hi > self.lo):
            raise ValueError(f"degenerate support [{self.lo}, {self.hi}]")
        prev = self.lo
        for a, b in self.zero_zones:
            if a < self.lo - 1e-12 or b > self.hi + 1e-12 or b <= a:
                raise ValueError(f"zero zone ({a}, {b}) outside support")
            if a < prev - 1e-12:
                raise ValueError("zero zones must be ordered and disjoint")
            prev = b

    @staticmethod
    def uniform(lo: float = 0.0, hi: float = 1.0) -> "PointDensity":
        width = hi - lo
        return PointDensity(
            lo, hi, lambda x: np.full_like(np.asarray(x, dtype=float), 1.0 / width)
        )

    @staticmethod
    def from_proportional(
        fn: Callable[[np.ndarray], np.ndarray],
        lo: float,
        hi: float,
        zero_zones: Sequence[tuple[float, float]] = (),
        breakpoints: Sequence[float] = (),
    ) -> "PointDensity":
        """Normalize ``fn`` over the active region and zero it on the zones."""
        zones = tuple((float(a), float(b)) for a, b in zero_zones)
        bps = tuple(sorted(set(breakpoints)))

        def masked(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            v = np.maximum(np.asarray(fn(x), dtype=float), 0.0)
            for a, b in zones:
                v = np.where((x >= a) & (x <= b), 0.0, v)
            return v

        mass = 0.0
        for a, b in _active_intervals(lo, hi, zones):
            mass += integrate_adaptive(masked, a, b, bps)
        if mass <= 0:
            raise ValueError("point density has no mass on the active region")
        return PointDensity(
            lo, hi, lambda x: masked(x) / mass, zones, bps
        )

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        return self.density(np.asarray(x, dtype=float))

    def active_intervals(self) -> list[tuple[float, float]]:
        return _active_intervals(self.lo, self.hi, self.zero_zones)


def _active_intervals(
    lo: float, hi: float, zones: Sequence[tuple[float, float]]
) -> list[tuple[float, float]]:
    out = []
    cursor = lo
    for a, b in zones:
        if a > cursor:
            out.append((cursor, a))
        cursor = max(cursor, b)
    if cursor < hi:
        out.append((cursor, hi))
    return out


class Compressor:
    """Cumulative codeword mass of a point density, with inverse.

    The forward map sends x to the density mass accumulated on [lo, x];
    the inverse maps a mass level in [0, 1] back to the support.  Both are
    tabulated on a dense grid per smooth piece and interpolated.
    """

    def __init__(self, density: PointDensity):
        pieces: list[float] = [density.lo]
        seams = set(density.breakpoints)
        for a, b in density.zero_zones:
            seams.add(a)
            seams.add(b)
        pieces += sorted(p for p in seams if density.lo < p < density.hi)
        pieces.append(density.hi)
        xs_parts = [
            np.linspace(a, b, _COMPRESSOR_GRID + 1)
            for a, b in zip(pieces[:-1], pieces[1:])
        ]
        xs = np.unique(np.concatenate(xs_parts))
        # Midpoint masses: cells are half-open, so the density value at a
        # seam belongs to one side only and must not leak into the other.
        mids = 0.5 * (xs[:-1] + xs[1:])
        ym = np.maximum(np.asarray(density(mids), dtype=float), 0.0)
        cum = np.concatenate([[0.0], np.cumsum(np.diff(xs) * ym)])
        if cum[-1] <= 0:
            raise ValueError("point density has no mass")
        cum = np.maximum.accumulate(cum / cum[-1])
        self._xs = xs
        self._cum = cum

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        return np.interp(x, self._xs, self._cum)

    def inverse(self, u: np.ndarray | float) -> np.ndarray | float:
        keep = np.concatenate([[True], np.diff(self._cum) > 0])
        return np.interp(u, self._cum[keep], self._xs[keep])


@dataclass(frozen=True)
class Quantizer:
    """Regular scalar quantizer with left-open, right-closed cells.

    Cell k (1-based) is (boundaries[k-1], boundaries[k]].  Inputs at or
    below the first boundary clamp to cell 1; inputs above the last clamp
    to the final cell.  ``dont_care_cells`` lists the 1-based indices of
    cells that cover a declared don't-care interval.
    """

    boundaries: np.ndarray
    codewords: np.ndarray
    dont_care_cells: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        b = np.asarray(self.boundaries, dtype=float)
        c = np.asarray(self.codewords, dtype=float)
        if b.ndim != 1 or c.ndim != 1 or b.size != c.size + 1 or c.size < 1:
            raise ValueError("need K+1 boundaries for K >= 1 codewords")
        if not np.all(np.diff(b) > 0):
            raise ValueError("boundaries must be strictly increasing")
        # Regularity: each codeword lies in (or on the edge of) its cell.
        if np.any(c < b[:-1] - 1e-12) or np.any(c > b[1:] + 1e-12):
            raise ValueError("codewords must lie within their cells")
        for k in self.dont_care_cells:
            if not (1 <= k <= c.size):
                raise ValueError(f"don't-care cell index {k} out of range")
        object.__setattr__(self, "boundaries", b)
        object.__setattr__(self, "codewords", c)
        object.__setattr__(self, "dont_care_cells", frozenset(int(k) for k in self.dont_care_cells))

    @property
    def size(self) -> int:
        return int(self.codewords.size)

    def quantize(self, x: np.ndarray | float) -> np.ndarray | int:
        """Map values to 1-based cell indices, clamping outside the support."""
        idx = np.searchsorted(self.boundaries, x, side="left")
        idx = np.clip(idx, 1, self.size)
        if np.isscalar(x):
            return int(idx)
        return idx

    def cell_interval(self, k: int) -> tuple[float, float]:
        if not (1 <= k <= self.size):
            raise ValueError(f"cell index {k} out of range")
        return float(self.boundaries[k - 1]), float(self.boundaries[k])

    def reconstruct(self, k: np.ndarray | int) -> np.ndarray | float:
        return self.codewords[np.asarray(k) - 1]

    # -- plain-text serialization --------------------------------------

    def to_text(self) -> str:
        fmt = lambda arr: " ".join(format(v, ".17g") for v in arr)
        dc = " ".join(str(k) for k in sorted(self.dont_care_cells))
        return f"{fmt(self.boundaries)}\n{fmt(self.codewords)}\n{dc}\n"

    @staticmethod
    def from_text(text: str) -> "Quantizer":
        lines = text.splitlines()
        if len(lines) < 2:
            raise ValueError("quantizer text needs boundary and codeword lines")
        b = np.array([float(v) for v in lines[0].split()])
        c = np.array([float(v) for v in lines[1].split()])
        dc = frozenset(int(v) for v in lines[2].split()) if len(lines) > 2 else frozenset()
        return Quantizer(b, c, dc)


def build_fixed_rate_quantizer(
    density: PointDensity,
    size: int,
    dont_care: Sequence[tuple[float, float]] | None = None,
) -> Quantizer:
    """Build a ``size``-cell companding quantizer from ``density``.

    Each don't-care interval (default: the density's zero zones) becomes
    one cell with its codeword at the interval midpoint.  The remaining
    granular codewords are spread over the active region by inverting the
    cumulative codeword mass: cell edges at multiples of 1/G of the active
    mass and codewords at odd multiples of 1/(2G).

    When zero zones split the active region into several intervals, each
    interval receives a granular codeword count proportional to its mass
    (largest-remainder rounding), which keeps every cell an interval.
    """
    zones = tuple(dont_care) if dont_care is not None else density.zero_zones
    n_zones = len(zones)
    granular = size - n_zones
    if granular < 1:
        raise InfeasibleCodebookError(
            f"codebook of size {size} cannot host {n_zones} don't-care cells"
        )
    active = _active_intervals(density.lo, density.hi, zones)
    if len(active) > granular:
        raise InfeasibleCodebookError(
            f"{granular} granular codewords cannot cover {len(active)} active intervals"
        )

    comp = Compressor(density)
    masses = np.array([comp(b) - comp(a) for a, b in active], dtype=float)
    masses = masses / masses.sum()
    counts = _largest_remainder(masses * granular, granular, minimum=1)

    pieces: list[tuple[float, np.ndarray, np.ndarray, bool]] = []
    for (a, b), g in zip(active, counts):
        ca, cb = float(comp(a)), float(comp(b))
        edges = comp.inverse(np.linspace(ca, cb, g + 1))
        edges[0], edges[-1] = a, b
        levels = ca + (cb - ca) * (2 * np.arange(1, g + 1) - 1) / (2 * g)
        cws = np.asarray(comp.inverse(levels), dtype=float)
        pieces.append((a, edges, cws, False))
    for a, b in zones:
        pieces.append((a, np.array([a, b]), np.array([(a + b) / 2.0]), True))
    pieces.sort(key=lambda p: p[0])

    boundaries = [pieces[0][1][0]]
    codewords: list[float] = []
    dc_cells: list[int] = []
    for _, edges, cws, is_dc in pieces:
        for e in edges[1:]:
            boundaries.append(float(e))
        if is_dc:
            dc_cells.append(len(codewords) + 1)
        codewords.extend(float(c) for c in cws)
    b_arr = np.array(boundaries)
    # Zone edges shared with active intervals appear twice; dedupe.
    keep = np.concatenate([[True], np.diff(b_arr) > 0])
    b_arr = b_arr[keep]
    if b_arr.size != len(codewords) + 1:
        raise RuntimeError("inconsistent cell assembly")
    return Quantizer(b_arr, np.array(codewords), frozenset(dc_cells))


def _largest_remainder(shares: np.ndarray, total: int, minimum: int = 0) -> np.ndarray:
    base = np.maximum(np.floor(shares).astype(int), minimum)
    while base.sum() > total:
        k = int(np.argmax(base - shares))
        if base[k] <= minimum:
            raise InfeasibleCodebookError("not enough codewords for the active intervals")
        base[k] -= 1
    rem = shares - base
    order = np.argsort(-rem)
    for k in order[: total - base.sum()]:
        base[k] += 1
    return base


def output_entropy(q: Quantizer, pdf: Pdf) -> float:
    """Entropy in bits of the quantizer's cell index under ``pdf``."""
    cdf_vals = np.asarray(pdf.cdf(q.boundaries), dtype=float)
    # Clamping folds the tails into the first and last cells.
    cdf_vals[0] = 0.0
    cdf_vals[-1] = 1.0
    masses = np.diff(cdf_vals)
    masses = masses[masses > 0]
    return float(-(masses * np.log2(masses)).sum())
