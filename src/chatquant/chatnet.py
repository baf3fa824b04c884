"""The serial max chain: spec, spec files and design.

Sensors 1..N each observe an iid uniform(0, 1) source and transmit to a
fusion center; with chat, sensor i also sends sensor i + 1 one message
on a side channel ("chatting") that the fusion center never observes.
For the fusion center to decode, it must be able to deduce every
sensor's codebook choice from the fusion-link messages alone (codebook
identifiability): the chat graph must be acyclic (C1), the schedule
causal (C2), and quantizers and outgoing messages may depend only on
received messages and, for outgoing messages, the sensor's own
*transmitted* codeword (C3/C4) - never on the raw observation.  The
chain is the only topology a spec holds, and its schedule is chain
order, so C1 and C2 hold by construction; the protocol tables built here
enforce C3/C4.  Every chat link reports the cell of the running max in
one shared partition.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .allocation import AllocationResult, _allocate_from, _fusion_budget
from .probcore import Pdf
from .quantizer import MAX_CODEBOOK_SIZE, CodebookTable, _reject_rows, _row_quantizer
from .sensitivity import SensitivityProfile
from .distortion import (
    ENTROPY_CONSTRAINED,
    FIXED_RATE,
    DistortionReport,
    InfeasibleRateError,
    _fixed_rate_terms,
    _rate_array,
    _report,
    _spec_constants,
)

__all__ = [
    "ChatNetworkSpec",
    "NetworkDesign",
    "SpecFormatError",
    "build_banks",
    "design_network",
    "out_message_table",
    "parse_spec_file",
]


class SpecFormatError(ValueError):
    """Malformed network spec file; carries the offending line and key."""

    def __init__(self, line: int, key: str, message: str):
        super().__init__(f"line {line}, key {key!r}: {message}")
        self.line = line
        self.key = key


class _Link(NamedTuple):
    size: int
    alpha: float


class _Links(NamedTuple):
    edges: tuple[_Link, ...]


@dataclass(frozen=True)
class ChatNetworkSpec:
    """Immutable description of a serial max chain.

    Sensors 1..N observe iid draws from ``source`` (uniform on [0, 1],
    the only law the closed forms cover) and transmit to the fusion
    center over links with per-bit costs ``fusion_alphas``.  With chat,
    ``chat_alphas`` holds the per-bit cost of each link i -> i+1, in
    chain order; it is empty without chat.  ``partition`` holds the
    strictly increasing boundaries of the message cells that every chat
    link shares, so each message takes ``len(partition) - 1`` values; a
    network without chat holds (0, 1).
    """

    n_sensors: int
    source: Pdf
    fusion_alphas: tuple[float, ...]
    chat_alphas: tuple[float, ...]
    partition: tuple[float, ...]
    regime: str = FIXED_RATE

    def __post_init__(self) -> None:
        n = self.n_sensors
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"the sensor count must be an integer, got {n!r}")
        if n < 1:
            raise ValueError("need at least one sensor")
        object.__setattr__(self, "n_sensors", int(n))
        if len(self.fusion_alphas) != self.n_sensors:
            raise ValueError("need one fusion cost per sensor")
        if not all(math.isfinite(a) and a > 0 for a in self.fusion_alphas):
            raise ValueError(
                f"fusion costs must be finite and positive, got {self.fusion_alphas}"
            )
        if self.chat_alphas and len(self.chat_alphas) != self.n_sensors - 1:
            raise ValueError(
                f"need one chat cost per link i -> i+1 ({self.n_sensors - 1}) "
                f"or none, got {len(self.chat_alphas)}"
            )
        if not all(math.isfinite(a) and a >= 0 for a in self.chat_alphas):
            raise ValueError(
                f"chat cost per bit must be finite and nonnegative, got {self.chat_alphas}"
            )
        if self.regime not in (FIXED_RATE, ENTROPY_CONSTRAINED):
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.source != Pdf(0.0, 1.0):
            # Profiles and message laws are closed forms for uniform(0, 1)
            # sources only.
            raise ValueError("the source must be uniform on [0, 1]")
        t = tuple(float(v) for v in self.partition)
        if len(t) < 2 or any(b <= a for a, b in zip(t, t[1:])):
            raise ValueError(f"partition {t} must be increasing boundaries")
        if abs(t[0]) > 1e-12 or abs(t[-1] - 1.0) > 1e-12:
            raise ValueError(f"partition {t} must cover [0, 1]")
        if not self.chat_alphas and t != (0.0, 1.0):
            raise ValueError(
                f"a network without chat edges has partition (0, 1), got {t}"
            )
        object.__setattr__(self, "partition", t)
        object.__setattr__(self, "fusion_alphas", tuple(float(a) for a in self.fusion_alphas))
        object.__setattr__(self, "chat_alphas", tuple(float(a) for a in self.chat_alphas))

    # -- construction helpers -------------------------------------------

    @staticmethod
    def serial_max(
        n_sensors: int,
        chat_size: int,
        chat_alpha: float = 0.0,
        fusion_alphas: Sequence[float] | float = 1.0,
        regime: str = FIXED_RATE,
        boundaries: Sequence[float] | None = None,
    ) -> "ChatNetworkSpec":
        """The serial chain computing the max of iid uniform(0,1) sources,
        every link chatting ``chat_size`` cells at ``chat_alpha`` per bit."""
        if chat_size < 1:
            raise ValueError("chat codebook size must be at least 1")
        chat = (chat_alpha,) * (n_sensors - 1)
        if not chat:
            t = (0.0, 1.0)
        elif boundaries is None:
            t = tuple(np.linspace(0.0, 1.0, chat_size + 1))
        else:
            t = tuple(boundaries)
            if len(t) != chat_size + 1:
                raise ValueError(
                    f"{chat_size} chat cells need {chat_size + 1} boundaries, got {t}"
                )
        if np.isscalar(fusion_alphas):
            alphas = (float(fusion_alphas),) * n_sensors
        else:
            alphas = tuple(float(a) for a in fusion_alphas)
        return ChatNetworkSpec(n_sensors, Pdf(0.0, 1.0), alphas, chat, t, regime)

    def receives(self, n: int) -> bool:
        """Whether sensor n hears a chat message: n > 1 on a chatting chain."""
        return n > 1 and bool(self.chat_alphas)

    def chat_cost(self) -> float:
        """Cost of one chat round: each link's per-bit price times its bits."""
        size = len(self.partition) - 1
        return sum(a * np.log2(size) for a in self.chat_alphas)

    @property
    def graph(self) -> _Links:
        """One (size, alpha) record per chat link, in chain order.

        Exists only for the benchmark harness, which reads ``.edges``;
        nothing in the package reads it.
        """
        size = len(self.partition) - 1
        return _Links(tuple(_Link(size, a) for a in self.chat_alphas))

    # -- message structure ----------------------------------------------

    def _check_sensor(self, n: int) -> None:
        if not (1 <= n <= self.n_sensors):
            raise ValueError(f"sensor {n} out of range 1..{self.n_sensors}")

    def message_interval(self, n: int, k: int) -> tuple[float, float]:
        """Interval for the running ancestor max implied by message k at
        sensor n: the message's cell of the partition."""
        self._check_sensor(n)
        if not self.receives(n):
            if k != 1:
                raise ValueError(f"sensor {n} receives no messages")
            return (0.0, 1.0)
        if not (1 <= k < len(self.partition)):
            raise ValueError(f"message {k} out of range for the link into sensor {n}")
        return (self.partition[k - 1], self.partition[k])

    def message_probs(self, n: int) -> np.ndarray:
        """Exact probabilities of the messages 1..K arriving at sensor n:
        cell (t_{k-1}, t_k] of max(X_1..X_{n-1}) has t_k^(n-1) -
        t_{k-1}^(n-1), and a sensor that hears nothing has message 1 only."""
        self._check_sensor(n)
        if not self.receives(n):
            return np.array([1.0])
        return np.diff(np.asarray(self.partition) ** (n - 1))

    def conditional_profile(self, n: int, k: int) -> SensitivityProfile:
        """Sensitivity of sensor n's quantization error given message k."""
        s_l, s_u = self.message_interval(n, k)
        if not self.receives(n):
            return SensitivityProfile(0, self.n_sensors - 1)
        return SensitivityProfile(n - 1, self.n_sensors - n, s_l, s_u)

    # -- rewriting helpers ----------------------------------------------

    def with_chat_rate(self, rc: int) -> "ChatNetworkSpec":
        """Same network with every chat link at rate rc (uniform cells).

        Raises ``ValueError`` unless rc is a nonnegative whole number of
        bits: a link of 2**rc cells has no fractional rate.
        """
        if not (np.isfinite(rc) and rc >= 0 and int(rc) == rc):
            raise ValueError(f"chat rate must be a nonnegative integer, got {rc!r}")
        return self.with_partition(np.linspace(0.0, 1.0, 2 ** int(rc) + 1))

    def with_partition(self, boundaries: Sequence[float]) -> "ChatNetworkSpec":
        """Same network with ``boundaries`` as the partition of every chat
        link; a network without chat comes back as it is."""
        if not self.chat_alphas:
            return self
        return replace(self, partition=tuple(boundaries))

    def with_regime(self, regime: str) -> "ChatNetworkSpec":
        return replace(self, regime=regime)

    # -- serialization ----------------------------------------------------

    def canonical_text(self) -> str:
        """Normalized spec-file rendering; the basis of spec_hash."""
        fmt = lambda v: format(float(v), ".17g")
        lines = [
            f"N = {self.n_sensors}",
            "computation = max",
            f"regime = {self.regime}",
            f"source = uniform {fmt(self.source.lo)} {fmt(self.source.hi)}",
            "fusion_alpha = " + " ".join(fmt(a) for a in self.fusion_alphas),
        ]
        size = len(self.partition) - 1
        cells = " ".join(fmt(v) for v in self.partition)
        for i, a in enumerate(self.chat_alphas, start=1):
            lines.append(f"edge = {i} {i + 1} {size} {fmt(a)}")
            lines.append(f"partition = {i} {i + 1} : {cells}")
        lines.append(
            "schedule = "
            + " ".join(f"{i}>{i + 1}" for i in range(1, len(self.chat_alphas) + 1))
        )
        return "\n".join(lines) + "\n"

    def spec_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


def build_banks(spec: ChatNetworkSpec, sizes: np.ndarray) -> CodebookTable:
    """The table of every codebook, one row per (sensor, message).

    ``sizes`` is the (N, K) integer table of codebook sizes: entry
    [n - 1, k - 1] sizes the codebook that message k selects at sensor n,
    K the chain's message count (1 without chat).  It holds 0 exactly
    where the sensor cannot receive the message: every message but 1 of
    a sensor that hears nothing.  Each codebook is the compander of the
    regime-optimal point density of its row.  Raises ValueError for a
    table of another shape and, naming the first such sensor and message,
    for a size that is not an integer (a bool or a float is not one) and
    a size where the sensor cannot receive the message;
    ``InfeasibleRateError`` for a live size outside
    1..``MAX_CODEBOOK_SIZE``, and ``InfeasibleCodebookError`` for one that
    leaves a don't-care row no granular cell.
    """
    live = _live_rows(spec)
    # As Python objects, so that a bool or a float is named, not cast.
    given = np.asarray(sizes, dtype=object)
    if given.shape != live.shape:
        raise ValueError(f"codebook sizes: need a {live.shape} table, got shape {given.shape}")
    whole = np.vectorize(
        lambda v: isinstance(v, (int, np.integer)) and not isinstance(v, bool), otypes=[bool]
    )
    _reject_rows(~whole(given), given, "codebook size must be an integer, got {size!r}")
    _reject_rows(~live & (given != 0), given, "codebook size {size} for a message "
                 "the sensor cannot receive")
    _reject_rows(live & ((given < 1) | (given > MAX_CODEBOOK_SIZE)), given, "codebook size "
                 f"{{size}} is not in 1..{MAX_CODEBOOK_SIZE}, the largest codebook",
                 InfeasibleRateError)
    n_cells = given.astype(np.int64)
    root = np.cbrt if spec.regime == FIXED_RATE else np.sqrt
    edges = np.zeros(n_cells.shape + (n_cells.max() + 1,))
    codewords = np.zeros_like(edges)
    dont_care = np.zeros(n_cells.shape, dtype=bool)
    for n, k in np.argwhere(n_cells).tolist():
        size = int(n_cells[n, k])
        profile = spec.conditional_profile(n + 1, k + 1)
        edges[n, k, : size + 1], codewords[n, k, :size] = _row_quantizer(profile, root, size)
        dont_care[n, k] = profile.s_l > 0
    return CodebookTable(n_cells, edges, codewords, dont_care)


def _live_rows(spec: ChatNetworkSpec) -> np.ndarray:
    """(N, K) mask of the (sensor, message) rows that hold a codebook:
    message 1 of every sensor, every message of a sensor that hears chat."""
    hears = np.array([spec.receives(n) for n in range(1, spec.n_sensors + 1)])
    return hears[:, None] | (np.arange(len(spec.partition) - 1) == 0)


def out_message_table(spec: ChatNetworkSpec, table: CodebookTable, n: int) -> np.ndarray:
    """Chat message sensor ``n`` sends to sensor n + 1 as a function of
    decodable data, laid out as sensor n's (K, S + 1) block of ``table``.

    Entry [k_in - 1, m - 1] is the outgoing message when sensor n
    received message k_in and transmitted fusion codeword m: the max rule
    max(k_in, chat cell of codeword), where cells are left-open; it is 0
    where row k_in has no cell m.  It reads the sender's *codeword*, not
    its raw observation, so the fusion center can replay every entry
    (C4).  Raises ``ValueError`` when sensor n sends no message.
    """
    if not (1 <= n < spec.n_sensors and spec.receives(n + 1)):
        raise ValueError(f"sensor {n} sends no chat message")
    t = np.asarray(spec.partition)
    cells = np.searchsorted(t, table.codewords[n - 1], side="left").clip(1, t.size - 1)
    out = np.maximum(cells, np.arange(1, cells.shape[0] + 1)[:, None])
    out[np.arange(table.stride) >= table.sizes[n - 1, :, None]] = 0
    return out


@dataclass(frozen=True)
class NetworkDesign:
    """Concrete codebooks realizing an allocation.

    ``banks.sizes`` is the (N, K) table of the integer codebook sizes
    actually built (at fixed rate every live entry of a sensor's row is
    its one codebook's size); ``allocation`` holds the continuous rates a
    budget's allocation asked for, None when the rates were given.
    """

    spec: ChatNetworkSpec
    banks: CodebookTable
    allocation: AllocationResult | None
    predicted: DistortionReport


def design_network(
    spec: ChatNetworkSpec,
    budget: float | None = None,
    rates: Sequence[float] | Sequence[Sequence[float]] | None = None,
) -> NetworkDesign:
    """Turn a network spec into buildable integer-size codebooks.

    Exactly one of ``budget`` and ``rates`` must be given.  A budget is
    first split by ``allocate`` (chat links charged at their cost per
    bit), then rounded to integer codebook sizes; when rounding overshoots
    the fixed-rate budget, sizes are walked back greedily, dropping
    whichever codeword costs the least predicted distortion per cost
    recovered.  Rates are taken as-is (no repair), in the shapes that
    ``distortion.predict`` takes, and raise as it does: ``ValueError`` for
    another shape or a non-finite rate, ``InfeasibleRateError`` for a
    fixed rate that buys less than one granular cell beside the
    don't-care cells.  Either way, a rate whose codebook would hold more
    than ``MAX_CODEBOOK_SIZE`` cells raises ``InfeasibleRateError``
    before any codebook is built.  The rates become one (N, K) size table,
    0 where a sensor cannot receive a message, which ``build_banks``
    builds.
    """
    if (budget is None) == (rates is None):
        raise ValueError("give either a budget or explicit rates")
    given = None if rates is None else _rate_array(spec, rates)
    remaining = None if budget is None else _fusion_budget(spec, budget)
    # Every constant is integrated once, here, and feeds the allocation,
    # the integer sizes and the prediction alike.
    consts = _spec_constants(spec)
    alloc = None if budget is None else _allocate_from(spec, remaining, consts)
    probs, dont_care = consts[:2]
    if spec.regime == FIXED_RATE:
        if alloc is None:
            # As in the prediction: a rate must buy one granular cell.
            _report(FIXED_RATE, given, *consts)
        target = given[:, :1] if alloc is None else alloc.rates[:, None]
        # One codebook per sensor, with a granular cell beside the
        # don't-care cells of every message.
        min_sizes = dont_care.max(axis=1) + 1
        sizes = np.maximum(_codebook_sizes(target)[:, 0], min_sizes)
        if alloc is not None:
            alphas = np.asarray(spec.fusion_alphas)
            sizes = _repair_budget(sizes, min_sizes, alphas, consts, remaining)
        sizes = sizes[:, None]
        # The prediction reads the sizes built.
        rate_table = np.broadcast_to(np.log2(sizes), probs.shape)
    else:
        # Sizes vary with the incoming message, and the prediction reads
        # the rates asked for.
        if alloc is None:
            rate_table = given
        else:
            rate_table = np.ones(probs.shape)
            rate_table[probs > 0.0] = alloc.rates
        sizes = np.maximum(_codebook_sizes(rate_table), dont_care + 1)
    banks = build_banks(spec, np.where(_live_rows(spec), sizes, 0))
    return NetworkDesign(spec, banks, alloc, _report(spec.regime, rate_table, *consts))


def _codebook_sizes(rates: np.ndarray) -> np.ndarray:
    """Integer sizes rint(2^rate) of an (N, K) rate table, checked against
    ``MAX_CODEBOOK_SIZE`` before the cast."""
    with np.errstate(over="ignore"):
        sizes = np.rint(2.0**rates)
    _reject_rows(sizes > MAX_CODEBOOK_SIZE, sizes, "its rate asks for {size:.6g} cells, more than "
                 f"the largest codebook of {MAX_CODEBOOK_SIZE} cells", InfeasibleRateError)
    return sizes.astype(int)


def _repair_budget(
    sizes: np.ndarray,
    min_sizes: np.ndarray,
    alphas: np.ndarray,
    consts: tuple[np.ndarray, ...],
    budget: float,
) -> np.ndarray:
    """Shrink integer codebooks until they fit the cost budget.

    Each step removes the codeword with the smallest ratio of predicted
    distortion increase to cost recovered, the first such sensor on a
    tie; ``consts`` are the (N, K) fixed-rate (probs, don't-care counts,
    quasi-norms).
    """
    probs, dont_care, norms = consts
    sizes = sizes.copy()
    while float(np.sum(alphas * np.log2(sizes))) > budget + 1e-9:
        cand = np.flatnonzero(sizes > min_sizes)
        if cand.size == 0:
            raise ValueError("budget too small for the minimum feasible codebooks")
        size = sizes[cand]
        saving = alphas[cand] * (np.log2(size) - np.log2(size - 1))
        p, dc, q = probs[cand], dont_care[cand], norms[cand]
        harm = _fixed_rate_terms(p, q, size[:, None] - 1 - dc).sum(axis=1)
        harm -= _fixed_rate_terms(p, q, size[:, None] - dc).sum(axis=1)
        sizes[cand[np.argmin(harm / saving)]] -= 1
    return sizes


# -- spec files ----------------------------------------------------------


def parse_spec_file(text: str) -> ChatNetworkSpec:
    """Parse the plain-text network description format.

    Keys: N, computation, regime, source (``uniform lo hi``),
    fusion_alpha (one value, broadcast, or one per sensor), edge
    (``i i+1 K alpha``, repeatable), partition
    (``i i+1 : b0 b1 ...``, at most one per edge, default uniform),
    schedule (``1>2 2>3 ...``, optional).  ``#`` starts a comment.  The
    edges must form the serial chain: every link i -> i+1 once, or none;
    a schedule, when given, lists them in chain order.  Every edge shares
    one partition, so edges of different sizes and partitions that differ
    across edges are rejected.  Raises SpecFormatError naming the
    offending line and key; an edge back to an earlier sensor names C1,
    and a schedule out of chain order names C2.
    """
    n_sensors: int | None = None
    regime = FIXED_RATE
    source_args: tuple[float, float] = (0.0, 1.0)
    fusion_alpha: list[float] | None = None
    edges: list[tuple[int, int, int, int, float]] = []
    partitions: dict[tuple[int, int], tuple[int, tuple[float, ...]]] = {}
    schedule: tuple[int, tuple[tuple[int, int], ...]] | None = None

    def fail(line_no: int, key: str, msg: str):
        raise SpecFormatError(line_no, key, msg)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            fail(line_no, line.split()[0], "expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key == "N":
                n_sensors = int(value)
            elif key == "computation":
                if value != "max":
                    fail(line_no, key, f"unsupported computation {value!r}")
            elif key == "regime":
                if value not in (FIXED_RATE, ENTROPY_CONSTRAINED):
                    fail(line_no, key, f"unknown regime {value!r}")
                regime = value
            elif key == "source":
                parts = value.split()
                if len(parts) != 3 or parts[0] != "uniform":
                    fail(line_no, key, "expected 'uniform <lo> <hi>'")
                source_args = (float(parts[1]), float(parts[2]))
            elif key == "fusion_alpha":
                fusion_alpha = [float(v) for v in value.split()]
            elif key == "edge":
                parts = value.split()
                if len(parts) != 4:
                    fail(line_no, key, "expected 'src dst K alpha'")
                size, alpha = int(parts[2]), float(parts[3])
                if size < 1:
                    fail(line_no, key, "chat codebook size must be at least 1")
                if not (math.isfinite(alpha) and alpha >= 0):
                    fail(
                        line_no,
                        key,
                        f"chat cost per bit must be finite and nonnegative, got {alpha}",
                    )
                edges.append((line_no, int(parts[0]), int(parts[1]), size, alpha))
            elif key == "partition":
                head, _, tail = value.partition(":")
                pair = head.split()
                if len(pair) != 2 or not tail.strip():
                    fail(line_no, key, "expected 'src dst : b0 b1 ...'")
                pair = (int(pair[0]), int(pair[1]))
                if pair in partitions:
                    fail(line_no, key, f"second partition for edge {pair}")
                partitions[pair] = (line_no, tuple(float(v) for v in tail.split()))
            elif key == "schedule":
                hops = []
                for item in value.split():
                    a, _, b = item.partition(">")
                    if not b:
                        fail(line_no, key, f"expected 'i>j', got {item!r}")
                    hops.append((int(a), int(b)))
                schedule = (line_no, tuple(hops))
            else:
                fail(line_no, key, "unknown key")
        except SpecFormatError:
            raise
        except ValueError as exc:
            fail(line_no, key, str(exc))

    if n_sensors is None:
        raise SpecFormatError(0, "N", "missing sensor count")
    if fusion_alpha is None:
        fusion_alpha = [1.0]
    if len(fusion_alpha) == 1:
        fusion_alpha = fusion_alpha * n_sensors
    if len(fusion_alpha) != n_sensors:
        raise SpecFormatError(0, "fusion_alpha", "need one cost per sensor")

    # link[i] is the (line, size, alpha) of the edge i -> i+1.
    link: dict[int, tuple[int, int, float]] = {}
    for line_no, i, j, size, alpha in edges:
        if not (1 <= i <= n_sensors and 1 <= j <= n_sensors):
            fail(line_no, "edge", f"edge {(i, j)} leaves the node set")
        if j <= i:
            fail(
                line_no,
                "edge",
                f"C1: edge {(i, j)} runs back to an earlier sensor; the chat "
                "chain has only the links i -> i+1, so it stays acyclic",
            )
        if j != i + 1:
            fail(line_no, "edge", f"edge {(i, j)} is not a chain link i -> i+1")
        if i in link:
            fail(line_no, "edge", f"duplicate chat edges {(i, j)}")
        link[i] = (line_no, size, alpha)
    chain = sorted(link)
    if chain and len(chain) != n_sensors - 1:
        missing = [(i, i + 1) for i in range(1, n_sensors) if i not in link]
        fail(
            edges[0][0],
            "edge",
            f"the chat chain needs every link i -> i+1 or none; missing {missing}",
        )
    for key, (line_no, _t) in partitions.items():
        if key[1] != key[0] + 1 or key[0] not in link:
            fail(line_no, "partition", f"no edge {key}")
    partition = (0.0, 1.0)
    for i in chain:
        line_no, size, _alpha = link[i]
        if size != link[1][1]:
            fail(
                line_no,
                "edge",
                f"edge {(i, i + 1)} has {size} cells, but edge (1, 2) has "
                f"{link[1][1]}; every chat edge shares one partition",
            )
        default = tuple(np.linspace(0.0, 1.0, size + 1).tolist())
        line_no, t = partitions.get((i, i + 1), (line_no, default))
        if len(t) != size + 1:
            fail(line_no, "partition", f"edge {(i, i + 1)} needs {size + 1} boundaries")
        if i == 1:
            partition = t
        elif t != partition:
            fail(
                line_no,
                "partition",
                f"edge {(i, i + 1)} has partition {t}, but edge (1, 2) has "
                f"{partition}; every chat edge shares one partition",
            )
    if schedule is not None:
        line_no, hops = schedule
        order = tuple((i, i + 1) for i in chain)
        if hops != order:
            fmt = lambda pairs: " ".join(f"{i}>{j}" for i, j in pairs) or "(empty)"
            fail(
                line_no,
                "schedule",
                f"C2: schedule {fmt(hops)} is not the chain order {fmt(order)}",
            )
    try:
        return ChatNetworkSpec(
            n_sensors,
            Pdf(*source_args),
            tuple(fusion_alpha),
            tuple(link[i][2] for i in chain),
            partition,
            regime,
        )
    except ValueError as exc:
        raise SpecFormatError(0, "spec", str(exc)) from exc
