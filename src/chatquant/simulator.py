"""Monte Carlo engine for chatting networks.

Trials are drawn in fixed-size chunks, each chunk seeded from its own
substream of the master seed, so results are bit-identical regardless of
how chunks are scheduled across workers.  The calling thread is one of
the workers, and there are never more workers than chunks.  A chunk
goes through sampler, encoder and estimator in consecutive row blocks of
at most 8,192 trials and 2^17 (trial, sensor) cells, so a worker holds
one block of draws, positions and cell edges whatever the trial count.
The conditional-expectation decoder takes its closed forms block by
block and integrates a chunk's trials with K >= 3 overlapping cells once
per chunk.  The chat
protocol runs on the codeword-driven message tables, which the fusion
decoder replays exactly; the conditional-expectation decoder therefore
conditions on precisely the information the decoder really has.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

from .chatnet import ChatNetworkSpec, _live_rows, out_message_table
from .distortion import ENTROPY_CONSTRAINED
from .quantizer import CodebookTable, _entropy_bits, _reject_rows

__all__ = [
    "CHUNK",
    "SimulationResult",
    "decode",
    "replay_codebooks",
    "run_simulation",
]

# Trials per substream.  Fixed so the random stream consumed by trial t
# never depends on the total trial count ahead of it or on worker layout.
CHUNK = 65536

# Most encode buckets per codebook; keeps the bucket tables to a few MB.
_MAX_BUCKETS = 4096

# (trial, sensor) cells and trials per row block of a chunk or of a
# decoded index block: at most 1 MiB per float64 array, so a block's
# draws, positions and cell edges stay in cache, and at most 64 KiB per
# per-trial array, so a small N holds no larger blocks than N = 16 does.
_BLOCK_CELLS = 1 << 17
_BLOCK_ROWS = 8192

PLUG_IN = "plug-in"
CONDITIONAL_EXPECTATION = "conditional-expectation"


@dataclass(frozen=True)
class SimulationResult:
    """Empirical fMSE with its standard error and the rates actually spent.

    ``empirical_rates`` holds, per sensor, log2 of the codebook size in
    the fixed-rate regime.  Under entropy coding it holds the measured
    rate: the plug-in entropy of the index each codebook emitted, averaged
    over the messages by how often each arrived.  Flagging the don't-care
    cell first and then coding the index given the flag costs the same, by
    the chain rule; ``CodebookTable.cell_entropy`` is the exact index
    entropy given the message.
    """

    trials: int
    empirical_fmse: float
    stderr: float
    empirical_rates: np.ndarray
    predicted_fmse: float | None
    decoder: str
    regime: str
    spec_hash: str

    def csv_row(
        self, n_sensors: int, chat_rate: float | None, budget: float | None
    ) -> list:
        return [
            self.spec_hash,
            self.regime,
            "" if chat_rate is None else chat_rate,
            "" if budget is None else budget,
            n_sensors,
            self.empirical_fmse,
            self.stderr,
            "" if self.predicted_fmse is None else self.predicted_fmse,
        ]


class _Protocol:
    """Chat message tables along the serial chain.

    ``sends`` holds, at the table position of each cell of a sending
    sensor's codebooks, the message the sensor sends on when it transmits
    that cell, so a chat hop is one gather.  Raises ``ValueError`` naming
    the first (sensor, message) row that holds a codebook where the spec
    has no such message, or none where it has.
    """

    def __init__(self, spec: ChatNetworkSpec, table: CodebookTable):
        live = _live_rows(spec)
        if table.sizes.shape != live.shape:
            raise ValueError(f"{table.sizes.shape} table rows do not fit a {live.shape} chain")
        _reject_rows((table.sizes > 0) != live, table.sizes, "codebook and spec disagree")
        self.spec = spec
        self.table = table
        self.smallest = table.sizes.min(axis=1, where=live, initial=table.stride)
        self.senders = frozenset(n for n in range(1, spec.n_sensors) if spec.receives(n + 1))
        sends = np.zeros(table.edges.shape, dtype=np.int64)
        for n in self.senders:
            sends[n - 1] = out_message_table(spec, table, n)
        self.sends = sends.reshape(-1)

    def index(self, n: int, m: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Table positions of cells ``m`` of the codebooks that messages
        ``k`` select at sensor ``n``, all 1-based.

        The messages are replayed from checked cells, so each selects a
        codebook of the sensor.  Raises ``ValueError`` when an index is
        not a cell of the codebook its message selects.
        """
        table = self.table
        stride = table.stride
        pos = k * stride
        pos += m
        pos += (n - 1) * table.sizes.shape[1] * stride - stride - 1
        top = m.max(initial=1)
        # An index within every codebook of the sensor is a cell whatever
        # the message; only a larger one needs the table.
        if m.min(initial=1) >= 1 and (
            top <= self.smallest[n - 1] or (top < stride and table.is_cell[pos].all())
        ):
            return pos
        size = table.sizes[n - 1, k - 1]
        t = np.flatnonzero((m < 1) | (m > size))[0]
        raise ValueError(
            f"sensor {n}: index {m[t]} is not a cell of codebook {k[t]} "
            f"(cells 1..{size[t]})"
        )

    def replay(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Incoming messages recomputed from fusion indices alone, and the
        table positions of the cells the indices name.

        Raises ``ValueError`` at the first sensor, in chain order, whose
        index is not a cell of the codebook its replayed message selects.
        """
        incoming = np.ones_like(indices)
        pos = np.empty(indices.shape, dtype=np.int64, order="F")
        for n in range(1, self.spec.n_sensors + 1):
            pos[:, n - 1] = self.index(n, indices[:, n - 1], incoming[:, n - 1])
            if n in self.senders:
                incoming[:, n] = self.sends[pos[:, n - 1]]
        return incoming, pos


class _Encoder(_Protocol):
    """The protocol plus bucket tables that find each sensor's cells.

    The unit interval is cut into ``scale`` equal buckets: the smallest
    power of two at or above 1 / (narrowest cell), capped at
    ``_MAX_BUCKETS``, so x * scale is exact and a bucket is floor(x *
    scale).  ``starts[n-1][(k-1)*scale + b]`` is the table position of the
    cell, in the codebook message k selects at sensor n, that holds bucket
    b's left end: cell 1 plus the interior boundaries in lower buckets.
    The first bucket takes every x below it and the last every x above
    it, as the clamping of ``Quantizer.quantize`` does.  ``upper`` holds
    each cell's upper edge and +inf for the last cell of every codebook,
    so the correction step ``pos += upper[pos] < x`` never leaves a
    codebook.  Inputs and boundaries are bucketed by the same monotone
    ``_buckets``, so the start is never past x's cell and falls short by
    at most the interior boundaries x's bucket holds; ``steps[n-1]``, the
    most any bucket of the sensor holds, lands every x on the cell
    ``Quantizer.quantize`` gives.  ``hop``, on a chain whose messages take
    more than one value, is the key offset (message - 1) * scale of the
    receiver at each position of a sender.
    """

    def __init__(self, spec: ChatNetworkSpec, table: CodebookTable):
        super().__init__(spec, table)
        n_sensors, n_messages, stride = table.edges.shape
        narrowest = np.diff(table.lower).min(where=table.is_cell[:-1], initial=np.inf)
        scale = 1
        while scale < _MAX_BUCKETS and scale * narrowest < 1.0:
            scale *= 2
        self.scale = scale
        # Cells 1..size-1 of a row end at its interior boundaries.
        inner = (np.arange(stride) < table.sizes[..., None] - 1).reshape(-1)
        self.upper = np.full(inner.size, np.inf)
        self.upper[:-1] = np.where(inner[:-1], table.upper, np.inf)
        # Position p holds cell p % stride + 1 of the codebook that message
        # p % row // stride + 1 selects.
        every = np.arange(inner.size, dtype=np.int64)
        self.cell_no = every % stride + 1
        self.message_of = every % (n_messages * stride) // stride + 1
        self.hop = (self.sends - 1) * scale if n_messages > 1 else None
        # hist[row, b]: interior boundaries of each (sensor, message) row
        # in bucket b; starts count those in lower buckets.
        rows = n_sensors * n_messages
        at = np.flatnonzero(inner)
        key = _buckets(table.upper[at], scale)
        key += at // stride * scale
        hist = np.bincount(key, minlength=rows * scale).reshape(rows, scale)
        first = np.arange(rows)[:, None] * stride
        self.starts = (first + np.cumsum(hist, axis=1) - hist).reshape(n_sensors, -1)
        self.steps = hist.reshape(n_sensors, -1).max(axis=1).tolist()

    def positions(self, x: np.ndarray) -> np.ndarray:
        """Table positions of the cells a (trials, N) observation block
        falls in, as a column-major int64 block; fastest for a
        column-major ``x``."""
        pos = np.empty(x.shape, dtype=np.int64, order="F")
        for n in range(1, self.spec.n_sensors + 1):
            x_col = x[:, n - 1]
            key = _buckets(x_col, self.scale)
            if n > 1 and self.hop is not None:
                key += self.hop[pos[:, n - 2]]
            col = self.starts[n - 1][key]
            for _ in range(self.steps[n - 1]):
                col += self.upper[col] < x_col
            pos[:, n - 1] = col
        return pos

    def encode(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Quantize a (trials, N) observation block.

        Returns fusion indices and incoming chat messages, both 1-based
        (trials, N) int64 arrays in column-major order, so each sensor's
        column is contiguous.  Indices equal those of ``Quantizer.quantize``
        with the codebook each trial's message selects.
        """
        pos = self.positions(np.asfortranarray(x))
        return self.cell_no[pos], self.message_of[pos]


def _buckets(x: np.ndarray, scale: int) -> np.ndarray:
    """floor(x * scale) clamped to 0..scale-1, as int64."""
    b = np.multiply(x, scale)
    np.clip(b, 0, scale - 1, out=b)
    return b.astype(np.int64)


def replay_codebooks(
    spec: ChatNetworkSpec, table: CodebookTable, indices: np.ndarray
) -> np.ndarray:
    """Codebook choices the fusion decoder derives from the indices it saw.

    Returns the (trials, N) int64 matrix of incoming chat messages.  By
    C1-C4, which the chain and its tables hold by construction, this
    must equal the encoder side's messages on every trial.
    Raises ``ValueError`` on indices that are not an (N,) or (trials, N)
    block of integers, or on an index that is not a cell of the codebook
    its message selects.  The trials are replayed in consecutive row
    blocks into the returned matrix, so the memory used beyond it is one
    block's, and the error names a bad entry of the first block holding
    one.
    """
    idx = _index_block(indices, spec.n_sensors)
    proto = _Protocol(spec, table)
    out = np.empty(idx.shape, dtype=np.int64)
    for rows in _row_blocks(*idx.shape):
        out[rows] = proto.replay(idx[rows].astype(np.int64, copy=False))[0]
    return out


def _index_block(indices, n_sensors: int) -> np.ndarray:
    """Fusion indices as a (trials, N) integer block, not copied, or
    ``ValueError``; ``indices`` may be (N,) for one trial.  Callers
    convert one row block at a time to int64."""
    idx = np.atleast_2d(np.asarray(indices))
    if idx.dtype.kind not in "iu":
        raise ValueError(f"indices must be integers, got {idx.dtype} values")
    if idx.ndim != 2 or idx.shape[1] != n_sensors:
        raise ValueError(
            f"indices must be (N,) or (trials, N) with N = {n_sensors}, "
            f"got shape {np.shape(indices)}"
        )
    return idx


def _counts(table: CodebookTable, pos: np.ndarray) -> np.ndarray:
    """How often each cell occurs in a block of positions, as an
    (N, K, S + 1) table: [n-1, k-1, m-1] counts cell m of the codebook
    message k selects at sensor n."""
    hist = np.bincount(pos.ravel(order="K"), minlength=table.lower.size)
    return hist.reshape(table.edges.shape)


def _estimate(decoder: str, table: CodebookTable, pos: np.ndarray) -> np.ndarray:
    """Each trial's estimate of the max from its cells' table positions:
    the largest codeword (plug-in) or E[max | cells]."""
    if decoder == PLUG_IN:
        return table.cell_codewords[pos].max(axis=1)
    return _ce_max(table.lower[pos], table.upper[pos])


@functools.cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order."""
    return np.polynomial.legendre.leggauss(order)


def _ce_max(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """E[max of independent uniform sources given their cells], vectorized:
    ``_ce_closed_forms`` and then ``_ce_quadrature`` on the trials it
    leaves."""
    out, groups = _ce_closed_forms(lo, hi)
    rows, values = _ce_quadrature(groups)
    out[rows] = values
    return out


def _ce_closed_forms(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, dict]:
    """The conditional-expectation decoder's closed forms over a block of
    (trials, N) cell edges, and the trials they leave to quadrature.

    E[max] = left + integral over [left, right] of 1 - prod_n F_n(t),
    with left the largest lower cell edge, right the largest upper one
    and F_n(t) = (t - lo_n) / (hi_n - lo_n) sensor n's conditional CDF.
    A sensor whose cell ends at or below ``left`` has F_n = 1 there, so
    each trial keeps only its K overlapping sensors, whose lower edges all
    lie at or below ``left``.
    When K = 1 only the cell with the largest lower edge reaches above
    ``left``, the max is uniform on it, and the answer is the midpoint
    (left + right) / 2 in closed form, taken for the whole block at once.
    Trials with K = 2 are in closed form too (``_ce_max_pair``).  Returns
    the block's estimates, final except at the trials with K >= 3, and
    those trials as {K: (rows, left, a, b)}: their rows in the block,
    their ``left``, and the lower and upper edges of their K overlapping
    cells as (trials, K) arrays in sensor order.
    """
    left = lo.max(axis=1)
    overlap = hi > left[:, None]
    k_of = np.count_nonzero(overlap, axis=1)
    out = (left + hi.max(axis=1)) / 2.0
    groups = {}
    multi = np.flatnonzero(k_of > 1)
    k_multi = k_of[multi]
    for k in np.unique(k_multi).tolist():
        rows = multi[k_multi == k]
        # nonzero keeps row order, and each row has k hits.
        r, c = np.nonzero(overlap[rows])
        r = rows[r]
        a = lo[r, c].reshape(-1, k)
        b = hi[r, c].reshape(-1, k)
        if k == 2:
            out[rows] = _ce_max_pair(left[rows], a, b)
        else:
            groups[k] = (rows, left[rows], a, b)
    return out, groups


def _ce_quadrature(groups: dict) -> tuple[np.ndarray, np.ndarray]:
    """E[max] of the trials that ``_ce_closed_forms`` leaves, as
    {K: (rows, left, a, b)} with K >= 3; returns their rows and estimates,
    concatenated over K.

    The integrand is smooth between the sorted upper edges of a trial's K
    cells, and the tail is taken per segment with Gauss-Legendre nodes.
    It is a polynomial of degree K, and (K + 2) // 2 nodes, the fewest
    that are exact for degree K, are used, so the cost per trial follows
    K, not N.  Each trial's arithmetic is its own, so the trials of
    several blocks may come in one call.
    """
    rows_out, values = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for k, (rows, left, a, b) in groups.items():
        edges = np.concatenate([left[:, None], np.sort(b, axis=1)], axis=1)
        half = (edges[:, 1:] - edges[:, :-1]) / 2.0
        mid = (edges[:, 1:] + edges[:, :-1]) / 2.0
        nodes, weights = _gauss_legendre((k + 2) // 2)
        # t has shape (trials in the group, segments, nodes).
        t = mid[:, :, None] + half[:, :, None] * nodes
        prod = np.ones_like(t)
        for n in range(k):
            ca = a[:, n, None, None]
            prod *= np.clip((t - ca) / (b[:, n, None, None] - ca), 0.0, 1.0)
        tail = ((1.0 - prod) * weights).sum(axis=2) * half
        rows_out.append(rows)
        values.append(left + tail.sum(axis=1))
    return np.concatenate(rows_out), np.concatenate(values)


def _ce_max_pair(left: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """E[max] for trials with exactly two cells reaching above ``left``,
    whose edges are the columns of ``a`` and ``b``, in closed form.

    Cell s ends first, at b_s, and cell b last, at b_b; w_s and w_b are
    their widths.  One of the cells starts at ``left``, the other D below
    it, so on [left, b_s] the product of CDFs is u (u + D) / (w_s w_b)
    with u = t - left, and on [b_s, b_b] only cell b's CDF is left:
    E[max] = left + L - L^2 (L/3 + D/2) / (w_s w_b) + (b_b - b_s)^2 / (2 w_b)
    with L = b_s - left.  Ties in b make the last term 0.
    """
    (a0, a1), (b0, b1) = a.T, b.T
    first = b0 <= b1
    w_s = np.where(first, b0 - a0, b1 - a1)
    w_b = np.where(first, b1 - a1, b0 - a0)
    b_s = np.minimum(b0, b1)
    gap = np.maximum(b0, b1) - b_s
    span = b_s - left
    below = left - np.minimum(a0, a1)
    inner = span * span * (span / 3.0 + below / 2.0) / (w_s * w_b)
    return left + span - inner + gap * gap / (2.0 * w_b)


def _check_decoder(decoder: str) -> None:
    if decoder not in (PLUG_IN, CONDITIONAL_EXPECTATION):
        raise ValueError(f"unknown decoder {decoder!r}")


def _check_count(value, what: str, least: int) -> None:
    """``ValueError`` unless ``value`` is an integer (not a bool) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")


def decode(
    decoder: str,
    indices: np.ndarray,
    table: CodebookTable,
    spec: ChatNetworkSpec,
) -> float | np.ndarray:
    """Decode fusion indices into an estimate of the max.

    ``indices`` is (N,) for one trial or (trials, N).  The fusion center
    never observes the chat, so the incoming messages are replayed from
    the indices.  The plug-in decoder takes the max of the per-cell
    codewords; the conditional-expectation decoder returns E[max | cells]
    in closed form.  Raises ``ValueError`` for an unknown decoder, indices
    of another shape, non-integer indices, or an index that is not a cell
    of the codebook its replayed message selects.  The trials are checked
    and estimated in consecutive row blocks, so the memory used beyond the
    answer is one block's, and the error names a bad entry of the first
    block holding one.
    """
    _check_decoder(decoder)
    idx = _index_block(indices, spec.n_sensors)
    scalar = np.asarray(indices).ndim == 1
    proto = _Protocol(spec, table)
    out = np.empty(idx.shape[0])
    for rows in _row_blocks(*idx.shape):
        pos = proto.replay(idx[rows].astype(np.int64, copy=False))[1]
        out[rows] = _estimate(decoder, table, pos)
    return float(out[0]) if scalar else out


def _row_blocks(trials: int, n_sensors: int):
    """Consecutive row slices of a (trials, N) block, each of at most
    ``_BLOCK_ROWS`` rows and ``_BLOCK_CELLS`` cells and at least one row."""
    step = max(1, min(_BLOCK_ROWS, _BLOCK_CELLS // n_sensors))
    return (slice(r, min(r + step, trials)) for r in range(0, trials, step))


def _chunk_blocks(spec: ChatNetworkSpec, proto: _Encoder, trials: int, seed: int, c: int):
    """Rows, sources and cell positions of chunk ``c``'s row blocks in
    order, drawn from the chunk's own substream of ``seed``.

    Consecutive draws continue one stream, so the blocks hold what one
    draw of the whole chunk would.  Each block of sources is column-major,
    as the encoder works; the max over a row is then fast too.
    """
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(c,)))
    )
    for rows in _row_blocks(min(CHUNK, trials - c * CHUNK), spec.n_sensors):
        # The C-order draw is freed here, before the block is estimated.
        shape = (rows.stop - rows.start, spec.n_sensors)
        x = np.asfortranarray(spec.source.sample(rng, shape))
        yield rows, x, proto.positions(x)


def _chunk_errors(
    decoder: str, table: CodebookTable, blocks, err: np.ndarray, count: bool
) -> np.ndarray | int:
    """Write each trial's x.max - estimate into ``err`` from ``blocks`` of
    (rows, x, positions) that cover it; return the blocks' summed
    ``_counts`` when ``count``, else 0.

    The conditional-expectation estimates are ``_ce_max``'s: the closed
    forms block by block, and one ``_ce_quadrature`` call on every
    block's trials with K >= 3 overlapping cells, whose ``err`` holds
    x.max until then.
    """
    counts = 0
    pending: dict[int, list] = {}
    for rows, x, pos in blocks:
        if decoder == PLUG_IN:
            est = _estimate(decoder, table, pos)
        else:
            est, groups = _ce_closed_forms(table.lower[pos], table.upper[pos])
            for k, (at, *cells) in groups.items():
                est[at] = 0.0
                pending.setdefault(k, []).append((at + rows.start, *cells))
        np.subtract(x.max(axis=1), est, out=err[rows])
        if count:
            counts = counts + _counts(table, pos)
    if decoder != PLUG_IN:
        at, values = _ce_quadrature(
            {k: tuple(map(np.concatenate, zip(*parts))) for k, parts in pending.items()}
        )
        err[at] -= values
    return counts


def _run_chunks(one_chunk, n_chunks: int, workers: int) -> list:
    """``[one_chunk(c) for c in range(n_chunks)]`` on W = min(workers,
    n_chunks) workers.

    Worker w runs chunks w, w + W, ... in turn.  The calling thread is
    worker 0, so only W - 1 threads start, and none for one worker or one
    chunk.  An exception raised in any worker stops the others after
    their current chunk and is raised here once all have ended.
    """
    n_workers = min(workers, n_chunks)
    parts: list = [None] * n_chunks
    failures: list[BaseException] = []

    def work(w: int) -> None:
        try:
            for c in range(w, n_chunks, n_workers):
                if failures:
                    return
                parts[c] = one_chunk(c)
        except BaseException as exc:  # raised by the calling thread below
            failures.append(exc)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, n_workers)]
    for t in threads:
        t.start()
    work(0)
    for t in threads:
        t.join()
    if failures:
        raise failures[0]
    return parts


def run_simulation(
    spec: ChatNetworkSpec,
    table: CodebookTable,
    decoder: str = CONDITIONAL_EXPECTATION,
    trials: int = 100_000,
    seed: int = 0,
    predicted: float | None = None,
    workers: int = 1,
) -> SimulationResult:
    """Estimate the network fMSE over ``trials`` Monte Carlo rounds.

    Per trial: draw the sources, run the chat protocol, quantize with the
    message-selected codebooks, decode, and accumulate the squared error
    of the max.  ``workers`` counts the calling thread, which runs chunks
    too, and is capped at the chunk count, so ``workers=W`` starts
    min(W, chunks) - 1 threads.  Fixed ``seed`` gives bit-identical
    results for any ``workers``.  Raises ``ValueError`` for an unknown
    decoder, a trial count, seed or worker count that is not an integer in
    range, a table whose rows do not fit the spec, or a fixed-rate sensor
    whose codebooks differ in size by message (its rate, log2 of the
    size, would be no single number).
    """
    _check_decoder(decoder)
    _check_count(trials, "trials", 1)
    _check_count(seed, "seed", 0)
    _check_count(workers, "workers", 1)
    proto = _Encoder(spec, table)
    n_chunks = (trials + CHUNK - 1) // CHUNK
    entropy = spec.regime == ENTROPY_CONSTRAINED
    sizes = table.sizes
    if not entropy:
        _reject_rows((sizes != sizes[:, :1]) & (sizes > 0), sizes, "a fixed-rate sensor needs "
                     "one codebook size, not {size} cells here and another for message 1")

    def one_chunk(c: int) -> tuple[float, float, np.ndarray | int]:
        err = np.empty(min(CHUNK, trials - c * CHUNK))
        blocks = _chunk_blocks(spec, proto, trials, seed, c)
        counts = _chunk_errors(decoder, table, blocks, err, entropy)
        err **= 2
        return float(err.sum()), float((err**2).sum()), counts

    parts = _run_chunks(one_chunk, n_chunks, workers)

    total = sum(p[0] for p in parts)
    total_sq = sum(p[1] for p in parts)
    mean = total / trials
    var = max(total_sq / trials - mean**2, 0.0)
    if trials > 1:
        var *= trials / (trials - 1)
    stderr = np.sqrt(var / trials)

    if entropy:
        # Each row's plug-in index entropy, weighted by how often its
        # message arrived; every sensor hears one on every trial.
        counts = sum(p[2] for p in parts)
        rates = (counts.sum(axis=2) * _entropy_bits(counts)).sum(axis=1) / trials
    else:
        rates = np.log2(sizes[:, 0])
    return SimulationResult(
        trials,
        float(mean),
        float(stderr),
        rates,
        predicted,
        decoder,
        spec.regime,
        spec.spec_hash(),
    )
