"""Chatting-network structure and the serial max-network protocol.

A chatting network is a set of sensors feeding a fusion center, plus a
directed side channel ("chatting") between sensors that the fusion center
never observes.  For the fusion center to decode, it must be able to
deduce every sensor's codebook choice from the fusion-link messages alone
(codebook identifiability): the graph must be acyclic (C1), the schedule
causal (C2), and quantizers and outgoing messages may depend only on
received messages and, for outgoing messages, the sensor's own
*transmitted* codeword (C3/C4) - never on the raw observation.  The
protocol tables built here enforce C3/C4 by construction.  Every chat
edge reports the cell of the running max in one shared partition.
"""

from __future__ import annotations

import graphlib
import hashlib
import math
from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .allocation import AllocationResult, _allocate_from, _fusion_budget
from .probcore import Pdf
from .quantizer import Quantizer, build_fixed_rate_quantizer
from .sensitivity import (
    MessageDistribution,
    SensitivityProfile,
    max_conditional_sensitivity,
    max_sensitivity,
    serial_max_message_distribution,
)
from .distortion import (
    ENTROPY_CONSTRAINED,
    FIXED_RATE,
    DistortionReport,
    _entropy_report,
    _fixed_rate_report,
    _fixed_rate_terms,
    _rate_array,
    _spec_constants,
    optimal_density_entropy,
    optimal_density_fixed_rate,
)

__all__ = [
    "ChatEdge",
    "ChatGraph",
    "ChatNetworkSpec",
    "NetworkDesign",
    "Schedule",
    "SpecFormatError",
    "Violation",
    "build_banks",
    "conditional_quantizer_bank",
    "design_network",
    "out_message_table",
    "parse_spec_file",
    "validate_identifiable",
]


@dataclass(frozen=True)
class ChatEdge:
    """Directed chatting link with its codebook size and cost per bit."""

    src: int
    dst: int
    size: int
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-loop on sensor {self.src}")
        if self.size < 1:
            raise ValueError("chat codebook size must be at least 1")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(
                f"chat cost per bit must be finite and nonnegative, got {self.alpha}"
            )

    @property
    def key(self) -> tuple[int, int]:
        return (self.src, self.dst)


@dataclass(frozen=True)
class ChatGraph:
    """Directed chatting topology over sensors 1..N."""

    nodes: tuple[int, ...]
    edges: tuple[ChatEdge, ...]

    def __post_init__(self) -> None:
        seen = set(self.nodes)
        if len(seen) != len(self.nodes):
            raise ValueError("duplicate sensor ids")
        for e in self.edges:
            if e.src not in seen or e.dst not in seen:
                raise ValueError(f"edge {e.key} leaves the node set")
        if len({e.key for e in self.edges}) != len(self.edges):
            raise ValueError("duplicate chat edges")

    def edge_into(self, n: int) -> ChatEdge | None:
        found = [e for e in self.edges if e.dst == n]
        if len(found) > 1:
            raise ValueError(f"sensor {n} has multiple incoming chat edges")
        return found[0] if found else None

    def edges_out_of(self, n: int) -> list[ChatEdge]:
        return [e for e in self.edges if e.src == n]

    @staticmethod
    def serial_chain(n_sensors: int, size: int, alpha: float = 0.0) -> "ChatGraph":
        nodes = tuple(range(1, n_sensors + 1))
        edges = tuple(
            ChatEdge(i, i + 1, size, alpha) for i in range(1, n_sensors)
        )
        return ChatGraph(nodes, edges)


@dataclass(frozen=True)
class Schedule:
    """Transmission order of the chat edges."""

    order: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(set(self.order)) != len(self.order):
            raise ValueError("schedule repeats an edge")


class Violation(NamedTuple):
    condition: str
    message: str


def validate_identifiable(graph: ChatGraph, schedule: Schedule) -> list[Violation]:
    """Check the codebook-identifiability conditions on a chat topology.

    C1: the chat graph is acyclic.  C2: the schedule is causal - every
    message a sensor sends is scheduled after every message it receives.
    C3 and C4 (codebooks and outgoing messages depend only on received
    messages and transmitted codewords) hold by construction of the
    protocol tables and are not data properties.  Violations are returned,
    not raised.
    """
    out: list[Violation] = []
    ts = graphlib.TopologicalSorter(
        {n: [e.src for e in graph.edges if e.dst == n] for n in graph.nodes}
    )
    try:
        ts.prepare()
    except graphlib.CycleError as exc:
        cycle = exc.args[1]
        out.append(
            Violation("C1", f"chat graph has a cycle: {' -> '.join(map(str, cycle))}")
        )

    scheduled = set(schedule.order)
    edge_keys = {e.key for e in graph.edges}
    if scheduled != edge_keys:
        missing = sorted(edge_keys - scheduled)
        extra = sorted(scheduled - edge_keys)
        parts = []
        if missing:
            parts.append(f"missing edges {missing}")
        if extra:
            parts.append(f"unknown edges {extra}")
        out.append(Violation("C2", f"schedule does not match the graph: {'; '.join(parts)}"))
        return out

    position = {key: i for i, key in enumerate(schedule.order)}
    for e in graph.edges:
        for incoming in graph.edges:
            if incoming.dst == e.src and position[incoming.key] > position[e.key]:
                out.append(
                    Violation(
                        "C2",
                        f"edge {e.key} is scheduled before its input {incoming.key}",
                    )
                )
    return out


class SpecFormatError(ValueError):
    """Malformed network spec file; carries the offending line and key."""

    def __init__(self, line: int, key: str, message: str):
        super().__init__(f"line {line}, key {key!r}: {message}")
        self.line = line
        self.key = key


@dataclass(frozen=True)
class ChatNetworkSpec:
    """Immutable description of a chatting network.

    Sensors observe iid draws from ``source`` (uniform on [0, 1], the
    only law the closed forms cover), chat over ``graph``
    following ``schedule``, and transmit to the fusion center over links
    with per-bit costs ``fusion_alphas``.  ``partition`` holds the
    strictly increasing boundaries of the message cells that every chat
    edge shares, so each edge's size is ``len(partition) - 1``; a network
    without chat edges holds (0, 1).
    """

    n_sensors: int
    source: Pdf
    graph: ChatGraph
    schedule: Schedule
    fusion_alphas: tuple[float, ...]
    partition: tuple[float, ...]
    regime: str = FIXED_RATE

    def __post_init__(self) -> None:
        if self.n_sensors < 1:
            raise ValueError("need at least one sensor")
        if len(self.fusion_alphas) != self.n_sensors:
            raise ValueError("need one fusion cost per sensor")
        if not all(math.isfinite(a) and a > 0 for a in self.fusion_alphas):
            raise ValueError(
                f"fusion costs must be finite and positive, got {self.fusion_alphas}"
            )
        if self.regime not in (FIXED_RATE, ENTROPY_CONSTRAINED):
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.source != Pdf(0.0, 1.0):
            # Profiles, message laws and max_sensitivity are closed forms
            # for uniform(0, 1) sources only.
            raise ValueError("the source must be uniform on [0, 1]")
        if set(self.graph.nodes) != set(range(1, self.n_sensors + 1)):
            raise ValueError("graph nodes must be sensors 1..N")
        t = tuple(float(v) for v in self.partition)
        if len(t) < 2 or any(b <= a for a, b in zip(t, t[1:])):
            raise ValueError(f"partition {t} must be increasing boundaries")
        if abs(t[0]) > 1e-12 or abs(t[-1] - 1.0) > 1e-12:
            raise ValueError(f"partition {t} must cover [0, 1]")
        if not self.graph.edges and t != (0.0, 1.0):
            raise ValueError(
                f"a network without chat edges has partition (0, 1), got {t}"
            )
        for e in self.graph.edges:
            if e.size != len(t) - 1:
                raise ValueError(
                    f"edge {e.key} has {e.size} cells, but the shared partition "
                    f"has {len(t) - 1}"
                )
        object.__setattr__(self, "partition", t)
        object.__setattr__(self, "fusion_alphas", tuple(float(a) for a in self.fusion_alphas))

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
        """The serial chain computing the max of iid uniform(0,1) sources."""
        graph = ChatGraph.serial_chain(n_sensors, chat_size, chat_alpha)
        schedule = Schedule(tuple(e.key for e in graph.edges))
        if not graph.edges:
            t = (0.0, 1.0)
        elif boundaries is None:
            t = tuple(np.linspace(0.0, 1.0, chat_size + 1))
        else:
            t = tuple(boundaries)
        if np.isscalar(fusion_alphas):
            alphas = (float(fusion_alphas),) * n_sensors
        else:
            alphas = tuple(float(a) for a in fusion_alphas)
        return ChatNetworkSpec(
            n_sensors,
            Pdf(0.0, 1.0),
            graph,
            schedule,
            alphas,
            t,
            regime,
        )

    def validate(self) -> list[Violation]:
        return validate_identifiable(self.graph, self.schedule)

    def chat_cost(self) -> float:
        """Cost of one chat round: each edge's per-bit price times its bits."""
        return sum(e.alpha * np.log2(e.size) for e in self.graph.edges)

    def is_serial_chain(self) -> bool:
        want = tuple((i, i + 1) for i in range(1, self.n_sensors))
        return tuple(sorted(e.key for e in self.graph.edges)) == want

    # -- message structure ----------------------------------------------

    def message_interval(self, n: int, k: int) -> tuple[float, float]:
        """Interval for the running ancestor max implied by message k at
        sensor n: the message's cell of the partition."""
        edge = self.graph.edge_into(n)
        if edge is None:
            if k != 1:
                raise ValueError(f"sensor {n} receives no messages")
            return (0.0, 1.0)
        if not (1 <= k <= edge.size):
            raise ValueError(f"message {k} out of range for edge {edge.key}")
        return (self.partition[k - 1], self.partition[k])

    def message_probs(self, n: int) -> MessageDistribution:
        """Exact distribution of the message arriving at sensor n."""
        if self.graph.edge_into(n) is None:
            return MessageDistribution(np.array([1.0]))
        if not self.is_serial_chain():
            raise ValueError("message distributions assume the serial chain")
        return serial_max_message_distribution(n, self.partition)

    def conditional_profile(self, n: int, k: int) -> SensitivityProfile:
        """Sensitivity of sensor n's quantization error given message k."""
        if self.graph.edge_into(n) is None:
            return max_sensitivity(self.n_sensors)
        s_l, s_u = self.message_interval(n, k)
        return max_conditional_sensitivity(n, self.n_sensors, s_l, s_u)

    # -- rewriting helpers ----------------------------------------------

    def with_chat_rate(self, rc: int) -> "ChatNetworkSpec":
        """Same network with every chat edge at rate rc (uniform cells).

        Raises ``ValueError`` unless rc is a nonnegative whole number of
        bits: an edge of 2**rc cells has no fractional rate.
        """
        if not (np.isfinite(rc) and rc >= 0 and int(rc) == rc):
            raise ValueError(f"chat rate must be a nonnegative integer, got {rc!r}")
        return self.with_partition(np.linspace(0.0, 1.0, 2 ** int(rc) + 1))

    def with_partition(self, boundaries: Sequence[float]) -> "ChatNetworkSpec":
        """Same network with ``boundaries`` as the partition of every chat
        edge; a network without chat edges comes back as it is."""
        if not self.graph.edges:
            return self
        t = tuple(boundaries)
        graph = ChatGraph(
            self.graph.nodes,
            tuple(replace(e, size=len(t) - 1) for e in self.graph.edges),
        )
        return replace(self, graph=graph, partition=t)

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
        cells = " ".join(fmt(v) for v in self.partition)
        for e in sorted(self.graph.edges, key=lambda e: e.key):
            lines.append(f"edge = {e.src} {e.dst} {e.size} {fmt(e.alpha)}")
            lines.append(f"partition = {e.src} {e.dst} : {cells}")
        lines.append(
            "schedule = " + " ".join(f"{i}>{j}" for i, j in self.schedule.order)
        )
        return "\n".join(lines) + "\n"

    def spec_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


def conditional_quantizer_bank(
    spec: ChatNetworkSpec,
    n: int,
    size: int | Mapping[int, int],
) -> dict[int, Quantizer]:
    """Build sensor n's codebooks, one per incoming message.

    Each codebook is the companding quantizer for the regime-optimal
    point density of the conditional sensitivity.  Messages k >= 2 induce
    a don't-care interval below the revealed lower bound; its single
    codeword is pinned to that bound (the only reconstruction that can
    never overstate the maximum).  ``size`` may vary per message (a
    mapping), which entropy-coded designs use.
    """
    bank: dict[int, Quantizer] = {}
    for k in range(1, spec.message_probs(n).size + 1):
        prof = spec.conditional_profile(n, k)
        if spec.regime == FIXED_RATE:
            density = optimal_density_fixed_rate(prof)
        else:
            density = optimal_density_entropy(prof)
        size_k = size[k] if isinstance(size, Mapping) else int(size)
        q = build_fixed_rate_quantizer(density, size_k, prof.zero_zones)
        if q.dont_care_cells:
            cw = q.codewords.copy()
            for c in q.dont_care_cells:
                cw[c - 1] = q.boundaries[c]  # upper edge of the zone
            q = Quantizer(q.boundaries, cw, q.dont_care_cells)
        bank[k] = q
    return bank


def build_banks(
    spec: ChatNetworkSpec, sizes: Sequence[int | Mapping[int, int]]
) -> dict[int, dict[int, Quantizer]]:
    """Codebook banks for every sensor, indexed [sensor][message]."""
    if len(sizes) != spec.n_sensors:
        raise ValueError("need one codebook size per sensor")
    return {
        n: conditional_quantizer_bank(spec, n, sizes[n - 1])
        for n in range(1, spec.n_sensors + 1)
    }


def out_message_table(
    spec: ChatNetworkSpec,
    banks: Mapping[int, Mapping[int, Quantizer]],
    edge: ChatEdge,
) -> np.ndarray:
    """Chat message sent on ``edge`` as a function of decodable data.

    Entry [k_in - 1, m - 1] is the outgoing message when the sender
    received message k_in and transmitted fusion codeword m: the max rule
    max(k_in, chat cell of codeword), where cells are left-open.  It reads
    the sender's *codeword*, not its raw observation, so the fusion
    center can replay every entry (C4).
    """
    t = np.asarray(spec.partition)
    sender_bank = banks[edge.src]
    n_codes = max(q.size for q in sender_bank.values())
    table = np.zeros((len(sender_bank), n_codes), dtype=np.int64)
    for k_in, q in sender_bank.items():
        cells = np.searchsorted(t, q.codewords, side="left").clip(1, t.size - 1)
        table[k_in - 1, : q.size] = np.maximum(cells, k_in)
    return table


@dataclass(frozen=True)
class NetworkDesign:
    """Concrete quantizer banks realizing an allocation.

    ``sizes`` holds the integer codebook sizes actually built (per sensor
    for fixed rate, per sensor per message under entropy coding);
    ``allocation`` holds the continuous rates a budget's allocation asked
    for, None when the rates were given.
    """

    spec: ChatNetworkSpec
    sizes: tuple
    banks: dict[int, dict[int, Quantizer]]
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
    don't-care cells.
    """
    if (budget is None) == (rates is None):
        raise ValueError("give either a budget or explicit rates")
    given = None if rates is None else _rate_array(spec, rates)
    remaining = None if budget is None else _fusion_budget(spec, budget)
    # Every constant is integrated once, here, and feeds the allocation,
    # the integer sizes and the prediction alike.
    consts = _spec_constants(spec, spec.regime)
    alloc = None if budget is None else _allocate_from(spec, remaining, consts)
    dont_care = consts[1]

    if spec.regime == FIXED_RATE:
        if alloc is None:
            # As in the prediction: a rate must buy one granular cell.
            _fixed_rate_report(*consts, given)
            target = given[:, 0]
        else:
            target = alloc.rates
        alphas = np.asarray(spec.fusion_alphas)
        min_sizes = dont_care.max(axis=1) + 1
        sizes = np.maximum(np.rint(2.0**target).astype(int), min_sizes)
        if alloc is not None:
            sizes = _repair_budget(sizes, min_sizes, alphas, consts, remaining)
        banks = build_banks(spec, [int(s) for s in sizes])
        built = np.broadcast_to(np.log2(sizes)[:, None], dont_care.shape)
        predicted = _fixed_rate_report(*consts, built)
        return NetworkDesign(
            spec, tuple(int(s) for s in sizes), banks, alloc, predicted
        )

    # Entropy-constrained: rates (and sizes) vary with the incoming message.
    if alloc is None:
        rate_table = given
    else:
        rate_table = np.ones(dont_care.shape)
        rate_table[consts[0] > 0.0] = alloc.rates
    table = np.maximum(np.rint(2.0**rate_table).astype(int), dont_care + 1)
    sizes = tuple(
        tuple(row[: spec.message_probs(n).size].tolist())
        for n, row in enumerate(table, start=1)
    )
    banks = build_banks(spec, [dict(enumerate(row, start=1)) for row in sizes])
    predicted = _entropy_report(*consts, rate_table)
    return NetworkDesign(spec, sizes, banks, alloc, predicted)


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
    (``src dst K alpha``, repeatable), partition
    (``src dst : b0 b1 ...``, at most one per edge, default uniform),
    schedule (``i>j ...``, optional, default edge order).  ``#`` starts a
    comment.  Every edge shares one partition, so edges of different
    sizes and partitions that differ across edges are rejected.  Raises
    SpecFormatError naming the offending line and key.
    """
    n_sensors: int | None = None
    regime = FIXED_RATE
    source_args: tuple[float, float] = (0.0, 1.0)
    fusion_alpha: list[float] | None = None
    edges: list[tuple[int, ChatEdge]] = []
    partitions: dict[tuple[int, int], tuple[int, tuple[float, ...]]] = {}
    schedule: tuple[tuple[int, int], ...] | None = None

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
                edges.append(
                    (
                        line_no,
                        ChatEdge(
                            int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])
                        ),
                    )
                )
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
                schedule = tuple(hops)
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

    # One edge line at a time, so a graph error names its line.
    graph = ChatGraph(tuple(range(1, n_sensors + 1)), ())
    for line_no, e in edges:
        try:
            graph = replace(graph, edges=graph.edges + (e,))
        except ValueError as exc:
            raise SpecFormatError(line_no, "edge", str(exc)) from exc
    edge_objs = graph.edges
    for key, (line_no, _t) in partitions.items():
        if key not in {e.key for e in edge_objs}:
            raise SpecFormatError(line_no, "partition", f"no edge {key}")
    partition = (0.0, 1.0)
    first = edge_objs[0] if edge_objs else None
    for line_no, e in edges:
        if e.size != first.size:
            raise SpecFormatError(
                line_no,
                "edge",
                f"edge {e.key} has {e.size} cells, but edge {first.key} has "
                f"{first.size}; every chat edge shares one partition",
            )
        default = tuple(np.linspace(0.0, 1.0, e.size + 1).tolist())
        line_no, t = partitions.get(e.key, (line_no, default))
        if len(t) != e.size + 1:
            raise SpecFormatError(
                line_no, "partition", f"edge {e.key} needs {e.size + 1} boundaries"
            )
        if e is first:
            partition = t
        elif t != partition:
            raise SpecFormatError(
                line_no,
                "partition",
                f"edge {e.key} has partition {t}, but edge {first.key} has "
                f"{partition}; every chat edge shares one partition",
            )
    if schedule is None:
        schedule = tuple(e.key for e in edge_objs)
    try:
        return ChatNetworkSpec(
            n_sensors,
            Pdf(*source_args),
            graph,
            Schedule(schedule),
            tuple(fusion_alpha),
            partition,
            regime,
        )
    except ValueError as exc:
        raise SpecFormatError(0, "spec", str(exc)) from exc
