"""Slow, independent reference implementations used only by tests.

These deliberately avoid the library's own algorithms: the allocation
oracle does exhaustive dynamic programming on a rate grid, the
sensitivity sampler does plain rejection sampling, and the
conditional-expectation oracle multiplies every sensor's conditional CDF
instead of only the overlapping ones.
"""

from __future__ import annotations

import numpy as np


def dp_allocation_oracle(
    betas: np.ndarray,
    alphas: np.ndarray,
    budget: float,
    step: float = 0.01,
) -> float:
    """Best objective sum(beta * 2^(-2 b / alpha)) with b on a step grid.

    Exact minimum over all grid-valued splittings of the budget, found by
    a min-plus dynamic program over budget units.
    """
    betas = np.asarray(betas, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    # Floor, never round up: overspending the budget would make the DP an
    # invalid upper bound on the continuous optimum.
    units = int(np.floor(budget / step + 1e-12))
    grid = np.arange(units + 1) * step
    best = betas[0] * 2.0 ** (-2.0 * grid / alphas[0])
    for beta, alpha in zip(betas[1:], alphas[1:]):
        cost = beta * 2.0 ** (-2.0 * grid / alpha)
        new = np.empty_like(best)
        for j in range(units + 1):
            new[j] = np.min(cost[: j + 1] + best[j::-1])
        best = new
    # The grid constrains the split but not the total: all of it is spent.
    return float(best[units])


def conditional_max_sampler(n: int, n_sensors: int, s_l: float, s_u: float):
    """Sampler of (size, N) source matrices given max(X_1..X_{n-1}) in
    (s_l, s_u], by rejection on the ancestor block."""
    anc = n - 1

    def sample(rng: np.random.Generator, size: int) -> np.ndarray:
        out = np.empty((size, n_sensors))
        out[:, anc:] = rng.random((size, n_sensors - anc))
        filled = 0
        while filled < size:
            batch = rng.random((2 * size, anc))
            m = batch.max(axis=1)
            good = batch[(m > s_l) & (m <= s_u)]
            take = min(size - filled, good.shape[0])
            out[filled : filled + take, :anc] = good[:take]
            filled += take
        return out

    return sample


def max_partial(x: np.ndarray, n: int) -> np.ndarray:
    """Derivative of max in its n-th argument: indicator of being the max."""
    return (x[:, n - 1] == x.max(axis=1)).astype(float)


def ce_max_all_sensors(cdf, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """E[max | cells] from the product of all N conditional CDFs over all
    2N-1 segments between the clipped cell edges, one Gauss-Legendre rule
    of order max(4, (N+2)//2) per segment (exact for the uniform source,
    whose integrand has degree N)."""
    n_sensors = lo.shape[1]
    left = lo.max(axis=1)
    right = hi.max(axis=1)
    pts = np.sort(
        np.clip(np.concatenate([lo, hi], axis=1), left[:, None], right[:, None]),
        axis=1,
    )
    seg_lo, seg_hi = pts[:, :-1], pts[:, 1:]
    half = (seg_hi - seg_lo) / 2.0
    mid = (seg_hi + seg_lo) / 2.0
    order = max(4, (n_sensors + 2) // 2)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    t = mid[:, :, None] + half[:, :, None] * nodes
    prod = np.ones_like(t)
    for n in range(n_sensors):
        a = lo[:, n, None, None]
        b = hi[:, n, None, None]
        ca = cdf(a)
        f = (cdf(t) - ca) / (cdf(b) - ca)
        prod *= np.clip(f, 0.0, 1.0)
    tail = ((1.0 - prod) * weights).sum(axis=2) * half
    return left + tail.sum(axis=1)
