"""Companding scalar quantizers of the serial max chain.

Each codebook is the compander of one (sensor, message) row: a point
density proportional to a root of the row's squared sensitivity,
inverted at equally spaced levels of its cumulative mass.  Cells are
left-open, right-closed intervals; a message revealing that the incoming
max lies above s_l > 0 turns [0, s_l] into one don't-care cell.  The
codebooks of a design form one ``CodebookTable``, which fixes their
layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .probcore import integrate_adaptive
from .sensitivity import SensitivityProfile

__all__ = [
    "CodebookTable",
    "InfeasibleCodebookError",
    "MAX_CODEBOOK_SIZE",
    "Quantizer",
]

# Points per smooth piece when tabulating the cumulative codeword mass.
_MASS_GRID = 4096

# Most cells of one codebook.  At 2^20 an N = 2 design builds in tenths of
# a second, simulates 65,536 trials in about a second and meets its
# plug-in prediction within 0.5%.
MAX_CODEBOOK_SIZE = 1 << 20


class InfeasibleCodebookError(ValueError):
    """Raised when a requested codebook cannot host the required cells."""


@dataclass(frozen=True)
class Quantizer:
    """One codebook as a scalar quantizer with left-open, right-closed cells.

    Cell k (1-based) is (boundaries[k-1], boundaries[k]].  Inputs at or
    below the first boundary clamp to cell 1; inputs above the last clamp
    to the final cell.  ``dont_care_cells`` lists the 1-based indices of
    cells that cover a declared don't-care interval.
    """

    boundaries: np.ndarray
    codewords: np.ndarray
    dont_care_cells: frozenset[int] = frozenset()

    @property
    def size(self) -> int:
        return len(self.codewords)

    def quantize(self, x: np.ndarray | float) -> np.ndarray | int:
        """Map values to 1-based cell indices, clamping outside the support."""
        idx = np.searchsorted(self.boundaries, x, side="left")
        idx = np.clip(idx, 1, self.size)
        if np.isscalar(x):
            return int(idx)
        return idx

    def to_text(self) -> str:
        fmt = lambda arr: " ".join(format(v, ".17g") for v in arr)
        dc = " ".join(str(k) for k in sorted(self.dont_care_cells))
        return f"{fmt(self.boundaries)}\n{fmt(self.codewords)}\n{dc}\n"


@dataclass(frozen=True, eq=False)
class CodebookTable:
    """Every codebook of a design, one zero-padded row per (sensor, message).

    ``sizes[n-1, k-1]`` counts the cells of the codebook message k selects
    at sensor n, 0 for a message n cannot receive; K is the chain's message
    count, 1 without chat.  Row (n, k) of the (N, K, S + 1) ``edges`` and
    ``codewords``, S the largest size, holds size + 1 edges from 0 to 1
    and size codewords, then zeros; ``dont_care`` marks the rows whose
    cell 1 is the don't-care cell [0, s_l].  Cell m of row (n, k) is entry
    (n-1)*K*(S+1) + (k-1)*(S+1) + m-1 of the flat views ``lower``,
    ``upper``, ``cell_codewords`` and ``is_cell``.  The arrays are
    read-only copies; a row that breaks a check below raises ``ValueError``
    (``InfeasibleCodebookError`` without a granular cell) naming it.
    """

    sizes: np.ndarray
    edges: np.ndarray
    codewords: np.ndarray
    dont_care: np.ndarray
    lower: np.ndarray = field(init=False, repr=False)
    upper: np.ndarray = field(init=False, repr=False)
    cell_codewords: np.ndarray = field(init=False, repr=False)
    is_cell: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        sizes, dont_care = np.array(self.sizes, np.int64), np.array(self.dont_care, bool)
        edges, codewords = np.array(self.edges, float), np.array(self.codewords, float)
        if edges.ndim != 3 or 0 in edges.shape or not (
            sizes.shape == dont_care.shape == edges.shape[:2] and codewords.shape == edges.shape
        ):
            raise ValueError("need (N, K) sizes and flags, (N, K, S + 1) edges and codewords")
        stride = edges.shape[2]
        cell = np.arange(stride) < sizes[..., None]
        inner, rising = cell[..., :-1], np.diff(edges, axis=2) > 0
        c = codewords[..., :-1]
        inside = (edges[..., :-1] - 1e-12 <= c) & (c <= edges[..., 1:] + 1e-12)
        for bad, what in (
            ((sizes < 0) | (sizes >= stride), f"size {{size}} is not in 0..{stride - 1}"),
            (sizes[:, :1] < 1, "no cell; every sensor needs a codebook for message 1"),
            ((inner & ~rising).any(axis=2), "edges must be strictly increasing"),
            ((inner & ~inside).any(axis=2), "codewords must lie within their cells"),
        ):
            _reject_rows(bad, sizes, what)
        _reject_rows(dont_care & (sizes < 2), sizes, "codebook of size {size} leaves no granular "
                     "cell beside its don't-care cell", InfeasibleCodebookError)
        last = np.take_along_axis(edges, sizes[..., None], axis=2)[..., 0]
        _reject_rows((sizes > 0) & ((edges[..., 0] != 0.0) | (last != 1.0)), sizes,
                     "edges must span [0, 1]")
        flat = edges.reshape(-1)
        for name, value in (
            ("sizes", sizes), ("edges", edges), ("codewords", codewords),
            ("dont_care", dont_care), ("lower", flat), ("upper", flat[1:]),
            ("cell_codewords", codewords.reshape(-1)), ("is_cell", cell.reshape(-1)),
        ):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def stride(self) -> int:
        """Entries per row: the largest size plus one."""
        return self.edges.shape[2]

    def rows(self) -> list[tuple[int, int]]:
        """The 1-based (sensor, message) rows that hold a codebook, in order."""
        return [(n + 1, k + 1) for n, k in np.argwhere(self.sizes > 0).tolist()]

    def cell_entropy(self) -> np.ndarray:
        """Index entropy in bits of every codebook, as an (N, K) array; 0
        for a row without one.

        Sensor n's source is uniform on [0, 1] and independent of the
        message it hears, a function of the codewords of sensors 1..n-1
        alone.  Given the message, each cell's probability is therefore
        its width, edges[m] - edges[m - 1] for m = 1..size, the
        don't-care cell [0, s_l] counting as one cell of width s_l.
        """
        cell = np.arange(self.stride - 1) < self.sizes[..., None]
        return _entropy_bits(np.where(cell, np.diff(self.edges, axis=2), 0.0))

    def codebook(self, n: int, k: int) -> Quantizer:
        """Row (n, k) as a ``Quantizer``; ``ValueError`` for a row without one."""
        if (n, k) not in self.rows():
            raise ValueError(f"sensor {n}, message {k}: no codebook")
        size = self.sizes[n - 1, k - 1]
        return Quantizer(
            self.edges[n - 1, k - 1, : size + 1],
            self.codewords[n - 1, k - 1, :size],
            frozenset({1}) if self.dont_care[n - 1, k - 1] else frozenset(),
        )


def _reject_rows(bad: np.ndarray, sizes: np.ndarray, what: str, error=ValueError) -> None:
    """Raise ``error`` naming the first (sensor, message) row flagged in the
    (N, K) mask ``bad``; ``what`` is formatted with the row's ``size``."""
    hits = np.argwhere(bad)
    if hits.size:
        n, k = hits[0]
        raise error(f"sensor {n + 1}, message {k + 1}: " + what.format(size=sizes[n, k]))


def _entropy_bits(weights: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of ``weights`` along the last axis,
    normalized by the row's total; 0 for an all-zero row."""
    weights = np.asarray(weights, dtype=float)
    total = weights.sum(axis=-1, keepdims=True)
    p = np.divide(weights, total, out=np.zeros_like(weights), where=total > 0)
    log_p = np.log2(p, out=np.zeros_like(p), where=p > 0)
    # 0.0 - h, not -h, so an all-zero row reads +0.
    return 0.0 - (p * log_p).sum(axis=-1)


def _row_quantizer(
    profile: SensitivityProfile,
    root: Callable[[np.ndarray], np.ndarray],
    size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Edges and codewords of the ``size``-cell compander of one
    (sensor, message) row.

    The point density is ``root`` of the row's squared sensitivity
    ``profile``: np.cbrt at fixed rate, np.sqrt under entropy coding.  It
    vanishes on [0, s_l], which becomes one don't-care cell when s_l > 0;
    its codeword is s_l, the only reconstruction that can never overstate
    the maximum.  The other G cells have edges at multiples of 1/G of the
    cumulative mass and codewords at odd multiples of 1/(2G).  The mass
    is tabulated from s_l, so no level interpolates across [0, s_l].
    """
    s_l, s_u = profile.s_l, profile.s_u
    granular = size - (s_l > 0)

    def density(x: np.ndarray) -> np.ndarray:
        return root(np.maximum(profile(x), 0.0))

    pieces = [s_l, *([s_u] if s_l < s_u < 1.0 else []), 1.0]
    xs = np.unique(np.concatenate(
        [np.linspace(a, b, _MASS_GRID + 1) for a, b in zip(pieces[:-1], pieces[1:])]
    ))
    # Midpoint masses: cells are half-open, so the density value at a
    # seam belongs to one side only and must not leak into the other.
    # Dividing by the integrated mass is redundant, as the total below
    # normalizes again, but it keeps every codebook bit for bit.
    mass = integrate_adaptive(lambda x, _rows: density(x), np.array([pieces]))[0]
    mids = density(0.5 * (xs[:-1] + xs[1:])) / mass
    cum = np.concatenate([[0.0], np.cumsum(np.diff(xs) * mids)])
    cum = np.maximum.accumulate(cum / cum[-1])
    keep = np.concatenate([[True], np.diff(cum) > 0])
    edges = np.interp(np.linspace(0.0, 1.0, granular + 1), cum[keep], xs[keep])
    edges[0], edges[-1] = s_l, 1.0
    levels = (2 * np.arange(1, granular + 1) - 1) / (2 * granular)
    codewords = np.interp(levels, cum[keep], xs[keep])
    if s_l > 0:
        return np.r_[0.0, edges], np.r_[s_l, codewords]
    return edges, codewords
