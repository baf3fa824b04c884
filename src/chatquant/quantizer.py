"""Companding scalar quantizers of the serial max chain.

Each codebook is the compander of one (sensor, message) row: a point
density proportional to a root of the row's squared sensitivity,
inverted at equally spaced levels of its cumulative mass.  Cells are
left-open, right-closed intervals; a message revealing that the incoming
max lies above s_l > 0 turns [0, s_l] into one don't-care cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .probcore import Pdf, integrate_adaptive
from .sensitivity import SensitivityProfile

__all__ = [
    "InfeasibleCodebookError",
    "Quantizer",
    "output_entropy",
]

# Points per smooth piece when tabulating the cumulative codeword mass.
_MASS_GRID = 4096


class InfeasibleCodebookError(ValueError):
    """Raised when a requested codebook cannot host the required cells."""


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


def _row_quantizer(
    profile: SensitivityProfile,
    root: Callable[[np.ndarray], np.ndarray],
    size: int,
) -> Quantizer:
    """The ``size``-cell compander of one (sensor, message) row.

    The point density is ``root`` of the row's squared sensitivity
    ``profile``: np.cbrt at fixed rate, np.sqrt under entropy coding.  It
    vanishes on [0, s_l], which becomes one don't-care cell when s_l > 0;
    its codeword is s_l, the only reconstruction that can never overstate
    the maximum.  The other G cells have edges at multiples of 1/G of the
    cumulative mass and codewords at odd multiples of 1/(2G).
    """
    s_l, s_u = profile.s_l, profile.s_u
    granular = size - (s_l > 0)
    if granular < 1:
        raise InfeasibleCodebookError(
            f"codebook of size {size} leaves no granular cell beside its "
            f"{size - granular} don't-care cell"
        )
    seams = [v for v in (s_l, s_u) if 0.0 < v < 1.0]

    def density(x: np.ndarray) -> np.ndarray:
        return root(np.maximum(profile(x), 0.0))

    pieces = [0.0, *seams, 1.0]
    xs = np.unique(np.concatenate(
        [np.linspace(a, b, _MASS_GRID + 1) for a, b in zip(pieces[:-1], pieces[1:])]
    ))
    # Midpoint masses: cells are half-open, so the density value at a
    # seam belongs to one side only and must not leak into the other.
    # Dividing by the integrated mass is redundant, as the total below
    # normalizes again, but it keeps every codebook bit for bit.
    mids = density(0.5 * (xs[:-1] + xs[1:])) / integrate_adaptive(density, s_l, 1.0, seams)
    cum = np.concatenate([[0.0], np.cumsum(np.diff(xs) * mids)])
    cum = np.maximum.accumulate(cum / cum[-1])
    keep = np.concatenate([[True], np.diff(cum) > 0])
    edges = np.interp(np.linspace(0.0, 1.0, granular + 1), cum[keep], xs[keep])
    edges[0], edges[-1] = s_l, 1.0
    levels = (2 * np.arange(1, granular + 1) - 1) / (2 * granular)
    codewords = np.interp(levels, cum[keep], xs[keep])
    if s_l > 0:
        return Quantizer(np.r_[0.0, edges], np.r_[s_l, codewords], frozenset({1}))
    return Quantizer(edges, codewords)


def output_entropy(q: Quantizer, pdf: Pdf) -> float:
    """Entropy in bits of the quantizer's cell index under ``pdf``."""
    cdf_vals = np.asarray(pdf.cdf(q.boundaries), dtype=float)
    # Clamping folds the tails into the first and last cells.
    cdf_vals[0] = 0.0
    cdf_vals[-1] = 1.0
    masses = np.diff(cdf_vals)
    masses = masses[masses > 0]
    return float(-(masses * np.log2(masses)).sum())
