"""Slow, independent reference implementations used only by tests.

These deliberately avoid the library's own algorithms: the allocation
oracles do exhaustive dynamic programming on a rate grid, bisect the
water level for 200 steps, or apply the paper's interior formula, the
sensitivity profiles are estimated by Monte Carlo from the partial
derivative, the sensitivity sampler does plain rejection sampling, and the
conditional-expectation oracle multiplies every sensor's conditional CDF
instead of only the overlapping ones, the high-resolution constants
are integrated pointwise by scipy's adaptive ``quad``, the encoder and
cell lookup mask each (sensor, message) pair's rows in turn where the
simulator gathers from the padded codebook table, the chat tables
search each codebook's codewords in turn where ``out_message_table``
searches the sender's whole block at once, the index histograms are keyed by
(message, index) one sensor at a time where the simulator counts table
positions of all sensors at once, the index entropy flags the don't-care
cell and then codes the index given the flag, one codebook at a time,
where the package takes the plain entropy of every row at once, the
whole-chunk simulation draws, encodes and estimates each chunk as one
block where the simulator streams it through row blocks, the partition
grid is allocated one spec at a time where the sweeps integrate every
point's constants in one pass, the budget repair scores one sensor at a
time where the design scores all at once, and the chat round reads the
raw observations where the protocol tables read transmitted codewords.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

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


def bisection_waterfill(betas, alphas, budget: float, weights=None) -> np.ndarray:
    """KKT shares with the water level found by 200 bisection steps.

    Share i is max(0, (alpha_i/2) (log2(beta_i/alpha_i) - l)) for the log2
    water level l.  The level is bisected on a log scale (a geometric
    bisection of the level itself) from an upper end where nothing is
    spent and a lower end pushed down until the budget is covered; the
    residual budget gap is then spread over the active links in proportion
    to alpha.
    """
    betas = np.asarray(betas, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    w = np.ones_like(betas) if weights is None else np.asarray(weights, dtype=float)
    log_ratio = np.log2(betas / alphas)

    def shares(level: float) -> np.ndarray:
        return np.maximum(0.0, alphas / 2.0 * (log_ratio - level))

    def spent(level: float) -> float:
        return float(np.sum(w * shares(level)))

    hi = float(log_ratio.max())
    lo = float(log_ratio.min())
    while spent(lo) < budget:
        lo -= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if spent(mid) > budget:
            lo = mid
        else:
            hi = mid
    b = shares(hi)
    active = b > 0
    residual = budget - float(np.sum(w * b))
    if active.any() and residual != 0:
        scale = alphas * active
        b = np.maximum(b + residual * scale / float(np.sum(w * scale)), 0.0)
    return b


def lemma_allocation(betas, alphas, budget: float, weights=None) -> np.ndarray:
    """The paper's interior closed form, valid when every share is positive.

    b_i = (alpha_i/atilde) C + (alpha_i/2) log2((beta_i/alpha_i) / G) with
    atilde = sum w_i alpha_i and log2 G the (w alpha)-weighted mean of
    log2(beta/alpha).  Outside the interior some shares come out negative;
    they are returned as they are.
    """
    betas = np.asarray(betas, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    w = np.ones_like(betas) if weights is None else np.asarray(weights, dtype=float)
    atilde = float(np.sum(w * alphas))
    log_ratio = np.log2(betas / alphas)
    log_gmean = float(np.sum(w * alphas * log_ratio)) / atilde
    return alphas / atilde * budget + alphas / 2.0 * (log_ratio - log_gmean)


def conditional_max_sampler(n: int, n_sensors: int, s_l: float, s_u: float):
    """Sampler of (size, N) source matrices given max(X_1..X_{n-1}) in
    (s_l, s_u], by rejection on the ancestor block.  Sensor 1 has no
    ancestors to condition on: ``n`` must be at least 2."""
    anc = n - 1
    if anc < 1:
        raise ValueError(f"sensor {n} has no ancestors to condition on")

    def sample(rng: np.random.Generator, size: int) -> np.ndarray:
        out = np.empty((size, n_sensors))
        out[:, anc:] = rng.random((size, n_sensors - anc))
        filled = 0
        while filled < size:
            batch = rng.random((2 * size, anc))
            m = _row_max(batch)
            good = batch[(m > s_l) & (m <= s_u)]
            take = min(size - filled, good.shape[0])
            out[filled : filled + take, :anc] = good[:take]
            filled += take
        return out

    return sample


def max_partial(x: np.ndarray, n: int) -> np.ndarray:
    """Derivative of max in its n-th argument: indicator of being the max."""
    return (x[:, n - 1] == _row_max(x)).astype(float)


def _row_max(x: np.ndarray) -> np.ndarray:
    """Max of each row of a (rows, columns >= 1) array by a running
    ``np.maximum`` over the columns: the same numbers as ``x.max(axis=1)``,
    which reduces a narrow C-order array row by row and is many times
    slower."""
    out = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        np.maximum(out, x[:, j], out=out)
    return out


def sensitivity_monte_carlo(
    g_partial, joint_sampler, n: int, grid, samples_per_point: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo squared sensitivity of sensor ``n`` (1-based) at each
    grid point, with its standard error.

    ``joint_sampler(rng, size)`` draws a (size, N) source matrix; sensor
    n's column is pinned to the grid value while the others stay drawn,
    which is the conditional law for independent sources, and
    ``g_partial(X, n)`` is the partial derivative of the computation in
    its n-th argument at each row.  Each grid point draws from its own
    Philox substream of ``seed``, so estimates do not depend on order.
    """
    xs = np.asarray(grid, dtype=float)
    means = np.empty_like(xs)
    errs = np.empty_like(xs)
    streams = np.random.SeedSequence(seed).spawn(xs.size)
    for i, (x, ss) in enumerate(zip(xs, streams)):
        rng = np.random.Generator(np.random.Philox(ss))
        draws = joint_sampler(rng, samples_per_point)
        draws[:, n - 1] = x
        sq = np.asarray(g_partial(draws, n), dtype=float) ** 2
        means[i] = sq.mean()
        errs[i] = sq.std(ddof=1) / np.sqrt(samples_per_point)
    return means, errs


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


def bank_table(banks):
    """The ``CodebookTable`` of hand-made codebooks ``{n: {k: Quantizer}}``:
    each row padded to the largest size, and cell 1 a don't-care cell
    where the codebook says so."""
    from chatquant.quantizer import CodebookTable

    shape = (max(banks), max(max(bank) for bank in banks.values()))
    stride = max(q.size for bank in banks.values() for q in bank.values()) + 1
    sizes = np.zeros(shape, dtype=np.int64)
    edges = np.zeros(shape + (stride,))
    codewords = np.zeros_like(edges)
    dont_care = np.zeros(shape, dtype=bool)
    for n, bank in banks.items():
        for k, q in bank.items():
            if q.dont_care_cells - {1}:
                raise ValueError("only cell 1 can be a don't-care cell")
            sizes[n - 1, k - 1] = q.size
            edges[n - 1, k - 1, : q.size + 1] = q.boundaries
            codewords[n - 1, k - 1, : q.size] = q.codewords
            dont_care[n - 1, k - 1] = bool(q.dont_care_cells)
    return CodebookTable(sizes, edges, codewords, dont_care)


def codebooks(table) -> dict:
    """Every codebook of a table as ``{n: {k: Quantizer}}``."""
    out: dict = {}
    for n, k in table.rows():
        out.setdefault(n, {})[k] = table.codebook(n, k)
    return out


def out_message_loop(spec, table, n: int) -> np.ndarray:
    """Chat messages of sensor ``n`` to sensor n + 1, one codebook at a
    time: entry [k_in - 1, m - 1] is max(k_in, chat cell of codeword m of
    the codebook message k_in selects), for a (messages of n, largest
    size of n) table that is 0 past each codebook's cells."""
    t = np.asarray(spec.partition)
    bank = codebooks(table)[n]
    out = np.zeros((len(bank), max(q.size for q in bank.values())), dtype=np.int64)
    for k_in, q in bank.items():
        cells = np.searchsorted(t, q.codewords, side="left").clip(1, t.size - 1)
        out[k_in - 1, : q.size] = np.maximum(cells, k_in)
    return out


def encode_mask_loop(spec, table, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fusion indices and incoming chat messages of a (trials, N) block,
    both 1-based, by a boolean mask per (sensor, message) and a 2-D table
    lookup per chat link, walked in chain order."""
    tables = {
        n: out_message_loop(spec, table, n)
        for n in range(1, spec.n_sensors)
        if spec.receives(n + 1)
    }
    banks = codebooks(table)
    trials = x.shape[0]
    indices = np.zeros((trials, spec.n_sensors), dtype=np.int64)
    incoming = np.ones((trials, spec.n_sensors), dtype=np.int64)
    for n in range(1, spec.n_sensors + 1):
        col = np.zeros(trials, dtype=np.int64)
        for k, q in banks[n].items():
            rows = incoming[:, n - 1] == k
            if rows.any():
                col[rows] = q.quantize(x[rows, n - 1])
        indices[:, n - 1] = col
        if n in tables:
            incoming[:, n] = tables[n][incoming[:, n - 1] - 1, col - 1]
    return indices, incoming


def cell_bounds_mask_loop(table, indices: np.ndarray, incoming: np.ndarray):
    """Per-trial cell edges and codewords, all (trials, N), by a boolean
    mask per (sensor, message)."""
    trials, n_sensors = indices.shape
    lo = np.full((trials, n_sensors), np.nan)
    hi = np.full((trials, n_sensors), np.nan)
    cw = np.full((trials, n_sensors), np.nan)
    for n, bank in codebooks(table).items():
        for k, q in bank.items():
            rows = incoming[:, n - 1] == k
            m = indices[rows, n - 1]
            lo[rows, n - 1] = q.boundaries[m - 1]
            hi[rows, n - 1] = q.boundaries[m]
            cw[rows, n - 1] = q.codewords[m - 1]
    return lo, hi, cw


def index_histograms(table, indices: np.ndarray, incoming: np.ndarray) -> dict:
    """Per sensor n, a (messages, largest codebook size) table whose entry
    [k-1, m-1] counts the trials where message k arrived and index m was
    sent, keyed (k - 1) * width + m - 1 and counted by ``np.bincount``."""
    out = {}
    for n, bank in codebooks(table).items():
        shape = (len(bank), max(q.size for q in bank.values()))
        key = (incoming[:, n - 1] - 1) * shape[1] + indices[:, n - 1] - 1
        out[n] = np.bincount(key, minlength=shape[0] * shape[1]).reshape(shape)
    return out


def split_entropy(hist: np.ndarray, active: np.ndarray) -> float:
    """Rate of indicator-then-index coding from an index histogram.

    One bit stream flags whether the index is a don't-care cell; the index
    itself is entropy-coded conditioned on that flag.  The rate is
    H_B(P(active)) + P(active) H(index | active)
                   + P(!active) H(index | !active).
    """
    from chatquant.probcore import binary_entropy

    total = float(hist.sum())
    p_active = float(hist[active].sum()) / total

    def cond_entropy(sub: np.ndarray) -> float:
        s = float(sub.sum())
        if s == 0:
            return 0.0
        p = sub[sub > 0] / s
        return float(-(p * np.log2(p)).sum())

    rate = binary_entropy(p_active)
    rate += p_active * cond_entropy(hist[active])
    rate += (1.0 - p_active) * cond_entropy(hist[~active])
    return rate


def row_entropies(table, counts: np.ndarray) -> np.ndarray:
    """Each (sensor, message) row's ``split_entropy`` from an (N, K, S + 1)
    cell count table, with its don't-care cell flagged, as an (N, K)
    array; 0 for a row without a codebook or never used."""
    out = np.zeros(table.sizes.shape)
    for n, k in table.rows():
        size = table.sizes[n - 1, k - 1]
        active = np.ones(size, dtype=bool)
        active[0] = not table.dont_care[n - 1, k - 1]
        hist = counts[n - 1, k - 1, :size]
        out[n - 1, k - 1] = split_entropy(hist, active) if hist.sum() else 0.0
    return out


def whole_chunk_simulation(spec, table, decoder: str, trials: int, seed: int):
    """``run_simulation``'s fMSE, stderr and rates with each chunk drawn,
    encoded and estimated whole, as one (chunk, N) block.

    The rates are log2 of the codebook sizes at fixed rate.  Under entropy
    coding they are each sensor's ``row_entropies`` of the whole-chunk cell
    counts, summed one message at a time, weighted by how often each
    message arrived.
    """
    from chatquant.simulator import CHUNK, _counts, _Encoder, _estimate

    enc = _Encoder(spec, table)
    total = total_sq = counts = 0
    for c in range((trials + CHUNK - 1) // CHUNK):
        size = min(CHUNK, trials - c * CHUNK)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(seed, spawn_key=(c,)))
        )
        x = np.asfortranarray(spec.source.sample(rng, (size, spec.n_sensors)))
        pos = enc.positions(x)
        err = (x.max(axis=1) - _estimate(decoder, table, pos)) ** 2
        total += float(err.sum())
        total_sq += float((err**2).sum())
        counts = counts + _counts(table, pos)
    mean = total / trials
    var = max(total_sq / trials - mean**2, 0.0)
    if trials > 1:
        var *= trials / (trials - 1)
    if spec.regime == "entropy-constrained":
        heard, entropies = counts.sum(axis=2), row_entropies(table, counts)
        rates = np.zeros(spec.n_sensors)
        for n, k in table.rows():
            rates[n - 1] += heard[n - 1, k - 1] / trials * entropies[n - 1, k - 1]
    else:
        rates = np.array([np.log2(table.codebook(n, 1).size) for n in range(1, spec.n_sensors + 1)])
    return mean, np.sqrt(var / trials), rates


def quad_integral(fn, lo: float, hi: float, points=()) -> float:
    """Integral of a scalar ``fn`` over [lo, hi] by scipy's adaptive
    ``quad`` at tight tolerances, split at ``points``."""
    from scipy.integrate import quad

    edges = [lo, *sorted(p for p in set(points) if lo < p < hi), hi]
    return sum(
        quad(fn, a, b, epsabs=1e-15, epsrel=1e-12, limit=500)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )


def _density(pdf):
    """Density of the uniform source law ``pdf`` on its support."""
    height = 1.0 / (pdf.hi - pdf.lo)
    return lambda x: height


def _messages(spec, n: int):
    probs = spec.message_probs(n)
    for k, p in enumerate(probs, start=1):
        if p > 0.0:
            yield k, float(p), spec.conditional_profile(n, k)


def _over_active(fn, prof) -> float:
    """Integral of ``fn`` by scalar quad over the row's active region
    [s_l, 1], split at s_u: gamma^2 vanishes on [0, s_l]."""
    return quad_integral(fn, prof.s_l, 1.0, (prof.s_u,))


def fixed_rate_message_norms_quad(spec) -> list[tuple[np.ndarray, ...]]:
    """(probs, quasi-norms, don't-care counts) over every sensor's
    messages: norm = (int_A (gamma^2 f)^(1/3))^3 by scalar quad, A the
    message's active region, and the count 1 where A leaves a zone
    [0, s_l] with s_l > 0."""
    f = _density(spec.source)
    out = []
    for n in range(1, spec.n_sensors + 1):
        probs = spec.message_probs(n)
        norms = np.zeros_like(probs)
        dont_care = np.zeros(probs.size, dtype=int)
        for k, _p, prof in _messages(spec, n):
            root = lambda x: max(float(prof(x) * f(x)), 0.0) ** (1.0 / 3.0)
            norms[k - 1] = _over_active(root, prof) ** 3
            dont_care[k - 1] = int(prof.s_l > 0)
        out.append((probs, norms, dont_care))
    return out


def fixed_rate_betas_quad(spec) -> np.ndarray:
    """beta_n = sum_k p_k (int_A (gamma^2 f)^(1/3))^3 / 12 by scalar quad,
    A the message's active region."""
    return np.array(
        [
            float(np.sum(probs * norms / 12.0))
            for probs, norms, _dc in fixed_rate_message_norms_quad(spec)
        ]
    )


def entropy_coding_tables_quad(spec) -> list[tuple[np.ndarray, ...]]:
    """(probs, constants, active masses, gate bits) of every sensor, with
    each integral over the active region A taken by scalar quad:
    constant = P(A)/12 * 2^(2 h(X|A) + E[log2 gamma^2 | A])."""
    f = _density(spec.source)
    out = []
    for n in range(1, spec.n_sensors + 1):
        probs = spec.message_probs(n)
        consts = np.zeros_like(probs)
        masses = np.ones_like(probs)
        gates = np.zeros_like(probs)
        for k, _p, prof in _messages(spec, n):
            mass = _over_active(lambda x: float(f(x)), prof)
            f_log_f = _over_active(lambda x: float(f(x)) * math.log2(float(f(x))), prof)
            log_g2 = _over_active(
                lambda x: float(f(x)) * math.log2(max(float(prof(x)), 1e-300)), prof
            )
            h = math.log2(mass) - f_log_f / mass
            consts[k - 1] = mass / 12.0 * 2.0 ** (2.0 * h + log_g2 / mass)
            masses[k - 1] = mass
            if mass < 1.0:
                rest = 1.0 - mass
                gates[k - 1] = -mass * math.log2(mass) - rest * math.log2(rest)
        out.append((probs, consts, masses, gates))
    return out


def partition_grid_loop(spec, budget: float, p1s) -> np.ndarray:
    """Predicted fMSE of ``allocate`` at each one-bit partition (0, p1, 1),
    one rebuilt spec and one full allocation per grid point."""
    from chatquant.allocation import allocate

    return np.array(
        [
            allocate(spec.with_partition((0.0, float(p1), 1.0)), budget).predicted_distortion
            for p1 in p1s
        ]
    )


def repair_budget_loop(sizes, min_sizes, alphas, consts, budget: float) -> np.ndarray:
    """Greedy codeword removal, one sensor at a time: each step drops a
    codeword from the first sensor above its minimum size with the least
    fixed-rate distortion increase per cost recovered, until the sizes
    fit the budget.  Raises ValueError when every sensor is at its
    minimum first."""
    probs, dont_care, norms = consts

    def term(n: int, size: int) -> float:
        granular = size - dont_care[n]
        return float(np.sum(probs[n] * norms[n] / (12.0 * granular**2)))

    sizes = np.array(sizes, copy=True)
    while float(np.sum(alphas * np.log2(sizes))) > budget + 1e-9:
        best_n, best_score = -1, math.inf
        for n in range(sizes.size):
            if sizes[n] <= min_sizes[n]:
                continue
            saving = alphas[n] * (np.log2(sizes[n]) - np.log2(sizes[n] - 1))
            score = (term(n, sizes[n] - 1) - term(n, sizes[n])) / saving
            if score < best_score:
                best_n, best_score = n, score
        if best_n < 0:
            raise ValueError("budget too small for the minimum feasible codebooks")
        sizes[best_n] -= 1
    return sizes


@dataclass(frozen=True)
class ChatState:
    """Outcome of one chat round.

    ``messages`` maps each link (i, i+1) to the transmitted index; ``intervals``
    maps each sensor to the interval known to contain the running maximum
    of its ancestors ((0, 1] when nothing was received).
    """

    messages: Mapping[tuple[int, int], int]
    intervals: Mapping[int, tuple[float, float]]

    def __post_init__(self) -> None:
        for n, (lo, hi) in self.intervals.items():
            if not (0.0 <= lo < hi <= 1.0):
                raise ValueError(f"sensor {n}: bad received interval [{lo}, {hi}]")


def _cell_of(value: float, t: Sequence[float]) -> int:
    """1-based index of the left-open cell of ``t`` containing ``value``."""
    k = int(np.searchsorted(np.asarray(t), value, side="left"))
    return min(max(k, 1), len(t) - 1)


def serial_max_chat_round(spec, x: Sequence[float]) -> ChatState:
    """One chat round of the serial max network on raw observations.

    Sensor i sends the cell of max(x_1..x_i) in the spec's partition,
    in chain order.  This is the reference semantics of the chat content;
    the simulator sends ``out_message_table``'s codeword-driven messages
    instead, which the fusion center can replay.
    """
    x = np.asarray(x, dtype=float)
    if x.size != spec.n_sensors:
        raise ValueError("need one observation per sensor")
    t = spec.partition
    messages: dict[tuple[int, int], int] = {}
    intervals: dict[int, tuple[float, float]] = {1: (0.0, 1.0)}
    for i in range(1, len(spec.chat_alphas) + 1):
        k = _cell_of(float(x[:i].max()), t)
        messages[(i, i + 1)] = k
        intervals[i + 1] = (t[k - 1], t[k])
    return ChatState(messages, intervals)
