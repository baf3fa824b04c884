"""Cost allocation across heterogeneous communication links.

Every problem here has the same shape: minimize a sum of terms
beta_i * 2^(-2 b_i / alpha_i) over nonnegative cost shares b_i subject to
a budget.  Under fixed-rate coding the terms are the sensors and the
budget constrains sum(b); under entropy coding they are the live
(sensor, message) pairs of the constants table, since each codebook is
chosen by the chat message, and the budget constrains the expected cost
sum(w_i * b_i) with the message probabilities as weights.  The
stationarity condition is identical in both, so one water-filling
routine serves both with the weights entering only through the budget.
Its water level is exact: a sort and two cumulative sums give it in
O(n log n), no search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .distortion import FIXED_RATE, _betas, _spec_constants

if TYPE_CHECKING:  # pragma: no cover
    from .chatnet import ChatNetworkSpec

__all__ = [
    "AllocationResult",
    "InfeasibleBudgetError",
    "allocate",
    "chat_budget_search",
    "waterfill_kkt",
]

class InfeasibleBudgetError(ValueError):
    """No candidate leaves a positive budget for the fusion links."""


@dataclass(frozen=True)
class AllocationResult:
    """Cost shares b, the rates b/alpha they buy, and the predicted fMSE.

    ``weights`` are message probabilities under entropy coding (the
    budget then holds in expectation); None means deterministic.
    ``labels`` tags each entry with its (sensor, message), one label per
    share; None for a per-link allocation, whose ``csv_rows`` give
    message -1.
    """

    b: np.ndarray
    rates: np.ndarray
    predicted_distortion: float
    alphas: np.ndarray
    weights: np.ndarray | None = None
    labels: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        b = np.asarray(self.b, dtype=float)
        if np.any(b < -1e-12):
            raise ValueError("cost shares must be nonnegative")
        if self.labels is not None and len(self.labels) != b.size:
            raise ValueError(
                f"need one label per cost share, got {len(self.labels)} "
                f"labels for {b.size} shares"
            )
        object.__setattr__(self, "b", np.maximum(b, 0.0))
        object.__setattr__(self, "rates", np.asarray(self.rates, dtype=float))
        object.__setattr__(self, "alphas", np.asarray(self.alphas, dtype=float))

    def budget(self) -> float:
        """Total cost spent: plain sum, or expected cost under the weights."""
        w = 1.0 if self.weights is None else self.weights
        return float(np.sum(w * self.b))

    def csv_rows(self) -> list[tuple[int, int, float, float, float]]:
        """Rows of (link, message, alpha, b, rate)."""
        labels = self.labels or tuple(
            (i + 1, -1) for i in range(self.b.size)
        )
        return [
            (link, msg, float(self.alphas[i]), float(self.b[i]), float(self.rates[i]))
            for i, (link, msg) in enumerate(labels)
        ]


def _terms(betas, alphas, b, weights) -> np.ndarray:
    """Each link's distortion term w * beta * 2^(-2 b / alpha)."""
    w = 1.0 if weights is None else weights
    return w * betas * 2.0 ** (-2.0 * b / alphas)


def waterfill_kkt(
    betas: Sequence[float],
    alphas: Sequence[float],
    budget: float,
    weights: Sequence[float] | None = None,
) -> AllocationResult:
    """Water-fill a budget over links by the KKT conditions, exactly.

    Share i gets b_i = max(0, (alpha_i/2) log2(r_i / L)) with
    r_i = beta_i/alpha_i.  The water level L is exact, not searched for:
    with the links sorted by r_i, descending, the top j links alone spend
    the budget C at

        log2 L_j = (sum_{i<=j} w_i alpha_i log2 r_i - 2C) / sum_{i<=j} w_i alpha_i,

    and the active set is the largest j whose weakest ratio r_j is still
    above L_j (Boyd & Vandenberghe 2004, section 5.5.3).  When every
    link is active this is the paper's interior closed form.  The weights
    do not enter the stationarity condition, only the budget, so the same
    routine covers the deterministic and the probabilistic problem.
    """
    betas = np.asarray(betas, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    w = None if weights is None else np.asarray(weights, dtype=float)
    if not np.isfinite(budget) or budget < 0:
        raise ValueError(f"budget must be finite and nonnegative, got {budget}")
    given = (betas, alphas) if w is None else (betas, alphas, w)
    if any(a.ndim != 1 or a.size != betas.size for a in given):
        raise ValueError("betas, alphas and weights must be 1-D and of one length")
    if betas.size == 0:
        raise ValueError("need at least one link to allocate over")
    _check_links(*given)
    b = _shares(betas, alphas, budget, w)
    objective = float(np.sum(_terms(betas, alphas, b, w)))
    return AllocationResult(b, b / alphas, objective, alphas, w)


def _check_links(*given: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in given):
        raise ValueError("betas, alphas and weights must be finite")
    if any((a <= 0).any() for a in given):
        raise ValueError("betas, alphas and weights must be positive")


def _shares(
    betas: np.ndarray, alphas: np.ndarray, budget: float, w: np.ndarray | None
) -> np.ndarray:
    """``waterfill_kkt``'s cost shares for the links along the last axis,
    one water level per row; ``alphas`` and ``w`` broadcast to
    ``betas``.  Every row is computed as the 1-D problem would be."""
    alphas = np.broadcast_to(alphas, betas.shape)
    log_ratio = np.log2(betas / alphas)
    order = np.argsort(-log_ratio, axis=-1, kind="stable")
    # Logs are shifted so the largest ratio sits at 0: an active share is
    # then a difference of numbers of the budget's size, not of the log2 r
    # themselves, and a small budget is still spent to rounding.
    d = log_ratio - np.take_along_axis(log_ratio, order[..., :1], axis=-1)
    sorted_d = np.take_along_axis(d, order, axis=-1)
    wa = np.take_along_axis(alphas if w is None else w * alphas, order, axis=-1)
    levels = (np.cumsum(wa * sorted_d, axis=-1) - 2.0 * budget) / np.cumsum(wa, axis=-1)
    # Each L_{j+1} lies between L_j and r_{j+1}, so "r_j above L_j" holds
    # for a prefix of j; with no budget it holds for none and L = r_1.
    feasible = sorted_d > levels
    last = feasible.shape[-1] - 1 - np.argmax(feasible[..., ::-1], axis=-1)
    level = np.where(
        feasible.any(axis=-1),
        np.take_along_axis(levels, last[..., None], axis=-1)[..., 0],
        0.0,
    )
    return np.maximum(0.0, alphas / 2.0 * (d - level[..., None]))


def _check_budget(budget: float) -> None:
    """ValueError unless the budget is finite, InfeasibleBudgetError unless positive."""
    if not np.isfinite(budget):
        raise ValueError(f"budget must be finite, got {budget}")
    if budget <= 0:
        raise InfeasibleBudgetError(f"budget must be positive, got {budget:g}")


def _fusion_budget(spec: "ChatNetworkSpec", budget: float) -> float:
    """The budget left for the fusion links once every chat edge is
    charged its per-bit price times its message bits.  Raises as
    ``_check_budget``, and InfeasibleBudgetError once chatting exhausts it."""
    _check_budget(budget)
    chat_cost = spec.chat_cost()
    remaining = budget - chat_cost
    if remaining <= 0:
        raise InfeasibleBudgetError(
            f"chatting cost {chat_cost:g} exhausts the budget {budget:g}"
        )
    return remaining


def allocate(spec: "ChatNetworkSpec", budget: float) -> AllocationResult:
    """Charge the chat links, then split the rest by the regime's rule.

    Every chat edge costs its per-bit price times its message bits; what
    is left goes to the fusion links, water-filled over the per-sensor
    betas under fixed-rate coding and split per message under entropy
    coding.  Raises InfeasibleBudgetError when chatting leaves nothing.
    """
    remaining = _fusion_budget(spec, budget)
    return _allocate_from(spec, remaining, _spec_constants(spec))


def _allocate_from(
    spec: "ChatNetworkSpec", remaining: float, constants: tuple[np.ndarray, ...]
) -> AllocationResult:
    """``allocate``'s split of the fusion budget ``remaining``, from the
    (N, K) constants of ``distortion._chat_constants`` in the spec's
    regime.

    Under entropy coding the don't-care gate turns message (n, k) into a
    link with effective cost per exponent-bit alpha_n * P(A) and
    coefficient inflated by the gate bits.  The pairs of positive
    probability, row-major, are water-filled once with the probabilities
    as weights and labelled (n, k), 1-based.  The returned rates are
    actual bit rates b / alpha_n, not the effective ones used inside the
    optimization.
    """
    if spec.regime == FIXED_RATE:
        probs, _dc, norms = constants
        return waterfill_kkt(_betas(probs, norms), spec.fusion_alphas, remaining)
    probs = constants[0]
    n, k = np.nonzero(probs > 0.0)
    true_alphas = np.asarray(spec.fusion_alphas, dtype=float)[n]
    betas, alphas, weights = _entropy_links(true_alphas, constants, n, k)
    res = waterfill_kkt(betas, alphas, remaining, weights)
    labels = tuple(zip((n + 1).tolist(), (k + 1).tolist()))
    return AllocationResult(
        res.b,
        res.b / true_alphas,
        res.predicted_distortion,
        true_alphas,
        res.weights,
        labels,
    )


def _entropy_links(
    true_alphas: np.ndarray,
    constants: tuple[np.ndarray, ...],
    n: np.ndarray,
    k: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients, effective costs alpha_n * P(A) and weights of the
    entropy-coded links (n, k), 0-based, from (..., N, K) constants;
    ``true_alphas`` holds alpha_n of each link."""
    probs, _dc, coeffs, masses, gates = constants
    masses = masses[..., n, k]
    betas = coeffs[..., n, k] * 2.0 ** (2.0 * gates[..., n, k] / masses)
    return betas, true_alphas * masses, probs[..., n, k]


def _grid_distortions(
    spec: "ChatNetworkSpec", remaining: float, constants: tuple[np.ndarray, ...]
) -> np.ndarray:
    """``_allocate_from(spec, remaining, [c[g] for c in constants])
    .predicted_distortion`` for every g of (G, N, K) constants, bit for
    bit, as one water-fill of (G, L) arrays.

    Grid points are grouped by their live (sensor, message) pairs, one
    group whenever no message probability rounds to 0.  Each row's terms
    are summed as their own 1-D array: a sum along axis 1 of the (G, L)
    array adds in another order and can move the last bit.
    """
    probs = constants[0]
    alphas = np.asarray(spec.fusion_alphas, dtype=float)
    if spec.regime == FIXED_RATE:
        groups = [(slice(None), _betas(probs, constants[2]), alphas, None)]
    else:
        live, which = np.unique(
            (probs > 0.0).reshape(probs.shape[0], -1), axis=0, return_inverse=True
        )
        groups = []
        for i, pattern in enumerate(live):
            rows = np.flatnonzero(which == i)
            n, k = np.nonzero(pattern.reshape(probs.shape[1:]))
            at_rows = tuple(c[rows] for c in constants)
            groups.append((rows, *_entropy_links(alphas[n], at_rows, n, k)))
    out = np.empty(probs.shape[0])
    for rows, betas, link_alphas, w in groups:
        _check_links(betas, link_alphas, *(() if w is None else (w,)))
        b = _shares(betas, link_alphas, remaining, w)
        out[rows] = [np.sum(row) for row in _terms(betas, link_alphas, b, w)]
    return out


def _chat_rate_allocations(
    spec: "ChatNetworkSpec", budget: float, rcs: Sequence[int]
) -> list[tuple[int, AllocationResult | None]]:
    """``allocate(spec.with_chat_rate(rc), budget)`` for every rc in ``rcs``,
    None where chatting exhausts the budget.

    The grid is checked before any allocation: an empty grid or a rate
    that is not a nonnegative integer raises ``ValueError``, and the
    budget raises as ``_check_budget``.
    """
    if len(rcs) == 0:
        raise ValueError("the chat-rate grid is empty")
    chatting = [spec.with_chat_rate(rc) for rc in rcs]
    _check_budget(budget)
    out: list[tuple[int, AllocationResult | None]] = []
    for rc, at_rate in zip(rcs, chatting):
        try:
            alloc = allocate(at_rate, budget)
        except InfeasibleBudgetError:
            alloc = None
        out.append((int(rc), alloc))
    return out


def chat_budget_search(
    spec: "ChatNetworkSpec", budget: float, rc_grid: Sequence[int]
) -> tuple[int, AllocationResult]:
    """Brute-force the chat rate, allocating the leftover budget optimally.

    Each candidate chat rate is allocated by ``allocate`` in the spec's
    regime.  Returns the chat rate with the smallest predicted fMSE and
    its allocation; the first best rate wins a tie.  Candidates that
    consume the whole budget are skipped; if none survives, the budget
    is infeasible.  A budget that is not positive raises
    InfeasibleBudgetError before any candidate; an empty grid, a
    non-finite budget or a candidate that is not a nonnegative integer
    raises ``ValueError``.
    """
    feasible = [
        (rc, res)
        for rc, res in _chat_rate_allocations(spec, budget, rc_grid)
        if res is not None
    ]
    if not feasible:
        raise InfeasibleBudgetError(
            f"chatting exhausts the budget {budget:g} at every candidate rate"
        )
    return min(feasible, key=lambda pair: pair[1].predicted_distortion)
