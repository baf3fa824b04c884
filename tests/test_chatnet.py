import hashlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatquant.chatnet import (
    ChatNetworkSpec,
    SpecFormatError,
    _repair_budget,
    build_banks,
    design_network,
    out_message_table,
    parse_spec_file,
)
from chatquant.allocation import InfeasibleBudgetError
from chatquant.distortion import FIXED_RATE, InfeasibleRateError, _spec_constants, predict
from chatquant.probcore import Pdf, integrate_adaptive
from chatquant.quantizer import MAX_CODEBOOK_SIZE
from oracles import out_message_loop, repair_budget_loop, serial_max_chat_round

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def chain(n, size, **kw):
    return ChatNetworkSpec.serial_max(n, size, **kw)


# -- the chain: links, topology and schedule -----------------------------------


def test_edge_validation():
    # A link's size and per-bit cost are checked in the spec and in files.
    with pytest.raises(ValueError, match="at least 1"):
        chain(3, 0)
    with pytest.raises(SpecFormatError, match="at least 1"):
        parse_spec_file("N = 2\nedge = 1 2 0 0\n")
    for bad in (-0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            chain(3, 2, chat_alpha=bad)
        with pytest.raises(SpecFormatError, match="finite and nonnegative"):
            parse_spec_file(f"N = 2\nedge = 1 2 2 {bad}\n")
    with pytest.raises(SpecFormatError, match="C1") as err:
        parse_spec_file("N = 2\nedge = 1 1 2 0\n")
    assert (err.value.line, err.value.key) == (2, "edge")


def test_graph_validation():
    # Only the chain's links i -> i+1, each once, every one of them or none.
    cases = [
        ("N = 2\nedge = 1 3 2 0\n", 2, "leaves the node set"),
        ("N = 2\nedge = 1 2 2 0\nedge = 1 2 4 0\n", 3, "duplicate chat edges"),
        ("N = 3\nedge = 1 3 2 0\nedge = 2 3 2 0\n", 2, r"\(1, 3\) is not a chain link"),
        ("N = 3\nedge = 1 2 2 0\nedge = 1 3 2 0\n", 3, r"\(1, 3\) is not a chain link"),
        ("N = 3\nedge = 2 3 2 0\n", 2, r"missing \[\(1, 2\)\]"),
        ("N = 4\nedge = 3 4 2 0\nedge = 1 2 2 0\n", 2, r"missing \[\(2, 3\)\]"),
    ]
    for text, line, match in cases:
        with pytest.raises(SpecFormatError, match=match) as err:
            parse_spec_file(text)
        assert (err.value.line, err.value.key) == (line, "edge")
    # The links may come in any line order; the chain is the same.
    shuffled = parse_spec_file("N = 3\nedge = 2 3 2 0.5\nedge = 1 2 2 0.25\n")
    assert shuffled.chat_alphas == (0.25, 0.5)


def test_schedule_validation():
    with pytest.raises(SpecFormatError, match="C2") as err:
        parse_spec_file("N = 3\nedge = 1 2 2 0\nedge = 2 3 2 0\nschedule = 1>2 1>2\n")
    assert (err.value.line, err.value.key) == (4, "schedule")
    with pytest.raises(SpecFormatError, match="C2"):
        parse_spec_file("N = 2\nschedule = 1>2\n")


def test_identifiable_chain_is_clean():
    spec = chain(4, 2)
    assert [spec.receives(n) for n in range(1, 5)] == [False, True, True, True]
    assert spec.chat_alphas == (0.0,) * 3
    assert "schedule = 1>2 2>3 3>4\n" in spec.canonical_text()
    assert parse_spec_file(spec.canonical_text()) == spec
    silent = parse_spec_file("N = 3\n")
    assert not any(silent.receives(n) for n in range(1, 4))


def test_identifiable_flags_cycle():
    text = "N = 2\nedge = 1 2 2 0\nedge = 2 1 2 0\nschedule = 1>2 2>1\n"
    with pytest.raises(SpecFormatError, match=r"C1: edge \(2, 1\)") as err:
        parse_spec_file(text)
    assert (err.value.line, err.value.key) == (3, "edge")


def test_identifiable_flags_acausal_schedule():
    text = "N = 3\nedge = 1 2 2 0\nedge = 2 3 2 0\nschedule = 2>3 1>2\n"
    with pytest.raises(SpecFormatError, match="C2: schedule 2>3 1>2") as err:
        parse_spec_file(text)
    assert (err.value.line, err.value.key) == (4, "schedule")


def test_identifiable_flags_schedule_mismatch():
    for hops in ("1>2", "1>2 2>3 3>4", "1>3 2>3", ""):
        text = f"N = 3\nedge = 1 2 2 0\nedge = 2 3 2 0\nschedule = {hops}\n"
        with pytest.raises(SpecFormatError, match="C2: .* chain order 1>2 2>3") as err:
            parse_spec_file(text)
        assert (err.value.line, err.value.key) == (4, "schedule")


# -- spec construction and accessors ------------------------------------------


def test_serial_max_defaults():
    spec = chain(3, 4)
    assert spec.chat_alphas == (0.0, 0.0)
    assert spec.partition == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert "schedule = 1>2 2>3\n" in spec.canonical_text()
    assert chain(1, 4).chat_alphas == ()


def test_spec_field_validation():
    good = chain(2, 2)
    with pytest.raises(ValueError):
        ChatNetworkSpec(2, good.source, (1.0,), good.chat_alphas, good.partition)
    with pytest.raises(ValueError):
        ChatNetworkSpec(2, good.source, (1.0, -1.0), good.chat_alphas, good.partition)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            ChatNetworkSpec(2, good.source, (1.0, bad), good.chat_alphas, good.partition)
    with pytest.raises(ValueError):
        chain(2, 2, regime="variable-rate")
    with pytest.raises(ValueError):
        ChatNetworkSpec(2, good.source, (1.0, 1.0), good.chat_alphas, ())
    # One chat cost per link i -> i+1, or none.
    with pytest.raises(ValueError, match="one chat cost per link"):
        ChatNetworkSpec(3, good.source, (1.0,) * 3, (0.0,), good.partition)


@pytest.mark.parametrize("bad", [True, 2.0, "3", 1.5])
def test_spec_rejects_a_sensor_count_that_is_not_an_integer(bad):
    # canonical_text would write N = True or N = 2.0, which no spec file
    # parses back.
    alphas = (1.0,) * 3
    with pytest.raises(ValueError, match=f"sensor count must be an integer, got {bad!r}"):
        ChatNetworkSpec(bad, Pdf(0.0, 1.0), alphas[: int(float(bad))], (), (0.0, 1.0))


def test_spec_stores_an_integer_sensor_count_as_int():
    spec = ChatNetworkSpec(np.int64(2), Pdf(0.0, 1.0), (1.0, 1.0), (), (0.0, 1.0))
    assert type(spec.n_sensors) is int
    assert spec.spec_hash() == parse_spec_file("N = 2\n").spec_hash()


def test_message_interval_and_probs():
    spec = chain(3, 2)
    assert spec.message_interval(1, 1) == (0.0, 1.0)
    with pytest.raises(ValueError):
        spec.message_interval(1, 2)
    assert spec.message_interval(3, 2) == (0.5, 1.0)
    with pytest.raises(ValueError):
        spec.message_interval(3, 5)
    assert np.allclose(spec.message_probs(1), [1.0])
    # Message into sensor 3 reports the cell of max(X1, X2).
    assert np.allclose(spec.message_probs(3), [0.25, 0.75])


@pytest.mark.parametrize("n", [0, -1, 4, 9])
def test_sensor_numbers_out_of_range_raise(n):
    spec = chain(3, 2)
    for call in (
        lambda: spec.message_probs(n),
        lambda: spec.message_interval(n, 1),
        lambda: spec.conditional_profile(n, 1),
    ):
        with pytest.raises(ValueError, match=f"sensor {n} out of range 1..3"):
            call()
    # The same on a chain without chat, where no sensor hears a message.
    with pytest.raises(ValueError, match=f"sensor {n} out of range 1..3"):
        parse_spec_file("N = 3\n").message_probs(n)


def test_spec_rejects_edge_sizes_other_than_the_partition():
    # Every link reports a cell of the one partition, so it has that many
    # messages.
    with pytest.raises(ValueError, match="2 chat cells need 3 boundaries"):
        chain(3, 2, boundaries=(0.0, 0.25, 0.5, 1.0))
    assert chain(3, 3, boundaries=(0.0, 0.25, 0.5, 1.0)).partition == (0.0, 0.25, 0.5, 1.0)


def test_spec_without_chat_edges_holds_the_unit_partition():
    silent = parse_spec_file("N = 2\n")
    assert silent.partition == (0.0, 1.0)
    assert chain(1, 4).partition == (0.0, 1.0)
    with pytest.raises(ValueError, match="without chat edges"):
        replace(silent, partition=(0.0, 0.5, 1.0))
    # The rewriting helpers have no edge to rewrite.
    assert silent.with_partition((0.0, 0.3, 1.0)) == silent
    assert silent.with_chat_rate(2) == silent


def test_parse_rejects_partitions_that_differ_across_edges():
    text = (
        "N = 3\nedge = 1 2 2 0\nedge = 2 3 2 0\n"
        "partition = 1 2 : 0 0.7 1\npartition = 2 3 : 0 0.6 1\n"
    )
    with pytest.raises(SpecFormatError, match="shares one partition") as err:
        parse_spec_file(text)
    assert (err.value.line, err.value.key) == (5, "partition")
    # An edge without a line takes the uniform default, which differs too.
    with pytest.raises(SpecFormatError, match="shares one partition") as err:
        parse_spec_file("N = 3\nedge = 1 2 2 0\nedge = 2 3 2 0\npartition = 1 2 : 0 0.7 1\n")
    assert (err.value.line, err.value.key) == (3, "partition")


def test_parse_rejects_edges_of_different_sizes():
    with pytest.raises(SpecFormatError, match="shares one partition") as err:
        parse_spec_file("N = 3\nedge = 1 2 2 0\nedge = 2 3 4 0\n")
    assert (err.value.line, err.value.key) == (3, "edge")


def test_parse_rejects_second_partition_for_an_edge():
    text = (
        "N = 2\nedge = 1 2 2 0\n"
        "partition = 1 2 : 0 0.5 1\npartition = 1 2 : 0 0.7 1\n"
    )
    with pytest.raises(SpecFormatError, match=r"second partition for edge \(1, 2\)") as err:
        parse_spec_file(text)
    assert (err.value.line, err.value.key) == (4, "partition")


@pytest.mark.parametrize(
    "text, line, match",
    [
        ("N = 2\nedge = 1 3 2 0\n", 2, r"edge \(1, 3\) leaves the node set"),
        ("N = 3\nedge = 1 2 2 0\nedge = 2 3 2 0\nedge = 1 2 2 0\n", 4, "duplicate chat edges"),
    ],
)
def test_parse_names_the_line_of_a_chat_graph_error(text, line, match):
    with pytest.raises(SpecFormatError, match=match) as err:
        parse_spec_file(text)
    assert (err.value.line, err.value.key) == (line, "edge")


def test_parse_accepts_agreeing_partition_lines():
    text = (
        "N = 3\nedge = 1 2 2 0\nedge = 2 3 2 0\n"
        "partition = 1 2 : 0 0.7 1\npartition = 2 3 : 0 0.7 1\n"
    )
    assert parse_spec_file(text).partition == (0.0, 0.7, 1.0)
    # A line equal to the uniform default agrees with an omitted one.
    text = "N = 3\nedge = 1 2 2 0\nedge = 2 3 2 0\npartition = 2 3 : 0 0.5 1\n"
    assert parse_spec_file(text) == chain(3, 2)


def test_chat_round_frozen_example():
    spec = chain(3, 4)
    state = serial_max_chat_round(spec, [0.3, 0.9, 0.1])
    assert state.messages[(1, 2)] == 2
    assert state.messages[(2, 3)] == 4
    assert state.intervals[3] == (0.75, 1.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.001, 0.999), min_size=4, max_size=4), st.integers(1, 3))
def test_chat_round_reports_running_max_cell(xs, rc):
    spec = chain(4, 2**rc)
    t = np.asarray(spec.partition)
    state = serial_max_chat_round(spec, xs)
    for i in range(1, 4):
        j = i + 1
        running = max(xs[:i])
        k = int(np.searchsorted(t, running, side="left"))
        assert state.messages[(i, j)] == max(k, 1)


def test_chat_round_validation():
    with pytest.raises(ValueError):
        serial_max_chat_round(chain(3, 2), [0.1, 0.2])
    # A fan-out has no spec to run a round on: it fails at parse.
    with pytest.raises(SpecFormatError, match="not a chain link"):
        parse_spec_file("N = 3\nedge = 1 2 2 0\nedge = 1 3 2 0\n")


def test_rewriting_helpers():
    spec = chain(4, 2)
    fast = spec.with_chat_rate(3)
    assert fast.partition == tuple(np.linspace(0.0, 1.0, 9))
    assert fast.chat_alphas == spec.chat_alphas
    skew = spec.with_partition([0.0, 0.7, 1.0])
    assert skew.partition == (0.0, 0.7, 1.0)
    ec = spec.with_regime("entropy-constrained")
    assert ec.regime == "entropy-constrained"
    with pytest.raises(ValueError):
        spec.with_chat_rate(-1)


@pytest.mark.parametrize("rc", [1.5, 2.9, float("nan"), float("inf")])
def test_with_chat_rate_rejects_non_integer_rates(rc):
    # 2**int(1.5) would silently build 1-bit edges.
    with pytest.raises(ValueError, match="nonnegative integer"):
        chain(4, 2).with_chat_rate(rc)


def test_with_chat_rate_accepts_integral_floats():
    assert chain(4, 2).with_chat_rate(2.0) == chain(4, 2).with_chat_rate(2)


def test_canonical_text_round_trip():
    spec = chain(3, 2, chat_alpha=0.25, fusion_alphas=(1.0, 2.0, 1.0))
    again = parse_spec_file(spec.canonical_text())
    assert again.canonical_text() == spec.canonical_text()
    assert again.spec_hash() == spec.spec_hash()


def test_canonical_text_writes_the_partition_on_every_edge():
    spec = chain(4, 2).with_partition((0.0, 0.7, 1.0))
    text = spec.canonical_text()
    assert text.count("partition = ") == 3
    assert text.count(" : 0 0.69999999999999996 1\n") == 3
    assert "computation = max\n" in text
    assert parse_spec_file(text) == spec
    # max is the only computation, so it is no field of the spec.
    with pytest.raises(TypeError):
        replace(spec, computation="sum")


def test_hash_tracks_content():
    spec = chain(3, 2)
    assert len(spec.spec_hash()) == 16
    assert spec.spec_hash() != spec.with_partition([0.0, 0.7, 1.0]).spec_hash()
    assert spec.spec_hash() != spec.with_regime("entropy-constrained").spec_hash()


FROZEN_SAMPLE_HASHES = {
    "max4_chat.txt": "be2f66210bbcfd55",
    "max5_entropy.txt": "9da7ca7bbff135cf",
    "max2_nochat.txt": "8a7539fc2e628c81",
}


@pytest.mark.parametrize("name,digest", sorted(FROZEN_SAMPLE_HASHES.items()))
def test_sample_specs_parse_and_hash(name, digest):
    spec = parse_spec_file((SPEC_DIR / name).read_text())
    assert parse_spec_file(spec.canonical_text()) == spec
    assert spec.spec_hash() == digest


def chain_text(n, size, regime, boundaries=None, fusion=None):
    """A spec file of the N-sensor chain; link i costs 0.01 i per bit."""
    lines = [f"N = {n}", f"regime = {regime}"]
    if fusion is not None:
        lines.append("fusion_alpha = " + " ".join(str(a) for a in fusion))
    if size is not None:
        for i in range(1, n):
            lines.append(f"edge = {i} {i + 1} {size} {0.01 * i:g}")
            if boundaries is not None:
                cells = " ".join(map(str, boundaries))
                lines.append(f"partition = {i} {i + 1} : {cells}")
    return "\n".join(lines) + "\n"


FR, EC = "fixed-rate", "entropy-constrained"

# spec_hash of chain_text(*key), frozen from the general chat-graph spec
# that the chain replaced.
FROZEN_GRID_HASHES = {
    (1, None, FR, None, None): "09ede20f0527353c",
    (2, None, FR, None, None): "8a7539fc2e628c81",
    (2, 1, FR, None, None): "1ee5f476b036762b",
    (2, 2, FR, None, None): "f28339064885fdbe",
    (2, 4, FR, None, None): "647fc67417ce76b3",
    (3, None, FR, None, None): "5fe9ecf7a77b985c",
    (3, 1, FR, None, None): "0d77489bb7e5b3c0",
    (3, 2, FR, None, None): "2133fb22e44582d6",
    (3, 4, FR, None, None): "757eba8b28fffb27",
    (6, None, FR, None, None): "fe46209d048090db",
    (6, 1, FR, None, None): "87dbbe1fbb7d0941",
    (6, 2, FR, None, None): "2af785e994d4bf9d",
    (6, 4, FR, None, None): "b452320f9b4f8f12",
    (1, None, EC, None, None): "128a5882b5f5acdd",
    (2, None, EC, None, None): "66047ba58f439b54",
    (2, 1, EC, None, None): "223c20e9ec3a7932",
    (2, 2, EC, None, None): "b4e0bd508639329e",
    (2, 4, EC, None, None): "506876ad91831d20",
    (3, None, EC, None, None): "de16a7ed5d8c300a",
    (3, 1, EC, None, None): "411d8b17687d1440",
    (3, 2, EC, None, None): "429e20d9a4726079",
    (3, 4, EC, None, None): "68a63c58793569e4",
    (6, None, EC, None, None): "b3099ef21b55f209",
    (6, 1, EC, None, None): "efa837d45bba235a",
    (6, 2, EC, None, None): "7108cb953c7797e1",
    (6, 4, EC, None, None): "5dedfddec87b979a",
    (3, 2, FR, (0, 0.7, 1), None): "bdf62bfb130aae97",
    (6, 4, EC, (0, 0.1, 0.25, 0.9, 1), (1, 2, 0.5, 1, 1, 3)): "b85ab1e95750fdeb",
}


@pytest.mark.parametrize("key", list(FROZEN_GRID_HASHES))
def test_grid_spec_hashes_are_frozen(key):
    n, size, regime, boundaries, fusion = key
    parsed = parse_spec_file(chain_text(*key))
    assert parsed.spec_hash() == FROZEN_GRID_HASHES[key]
    # The same chain built field by field hashes alike.
    if size is None:
        chat, t = (), (0.0, 1.0)
    else:
        chat = tuple(0.01 * i for i in range(1, n))
        t = boundaries or np.linspace(0.0, 1.0, size + 1)
    built = ChatNetworkSpec(
        n, parsed.source, fusion or (1.0,) * n, chat, tuple(t), regime
    )
    assert built == parsed
    assert built.spec_hash() == FROZEN_GRID_HASHES[key]


def test_one_cell_chat_and_no_chat_hash_apart():
    for n in (2, 3, 6):
        silent = parse_spec_file(chain_text(n, None, FR))
        one_cell = parse_spec_file(chain_text(n, 1, FR))
        assert silent.partition == one_cell.partition == (0.0, 1.0)
        assert silent != one_cell
        assert silent.spec_hash() != one_cell.spec_hash()
        assert one_cell.receives(2) and not silent.receives(2)


@st.composite
def chains(draw):
    n = draw(st.integers(1, 8))
    positive = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
    fusion = tuple(draw(st.lists(positive, min_size=n, max_size=n)))
    regime = draw(st.sampled_from([FR, EC]))
    if n == 1 or draw(st.booleans()):
        return ChatNetworkSpec(n, Pdf(0.0, 1.0), fusion, (), (0.0, 1.0), regime)
    costs = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)
    chat = tuple(draw(st.lists(costs, min_size=n - 1, max_size=n - 1)))
    inner = draw(st.lists(st.floats(1e-6, 1 - 1e-6), max_size=7, unique=True))
    t = (0.0, *sorted(inner), 1.0)
    return ChatNetworkSpec(n, Pdf(0.0, 1.0), fusion, chat, t, regime)


@settings(max_examples=200, deadline=None)
@given(chains())
def test_canonical_text_round_trips_every_chain(spec):
    again = parse_spec_file(spec.canonical_text())
    assert again == spec
    assert again.spec_hash() == spec.spec_hash()


@pytest.mark.parametrize(
    "name", [*sorted(FROZEN_SAMPLE_HASHES), "chain16", "no-chat", "costs-differ"]
)
def test_benchmark_chat_cost_matches_chat_cost(name):
    # The benchmark harness sums its own chat cost over ``graph.edges``;
    # it must equal the package's, bit for bit.
    if name in FROZEN_SAMPLE_HASHES:
        spec = parse_spec_file((SPEC_DIR / name).read_text())
    elif name == "chain16":
        spec = ChatNetworkSpec.serial_max(16, 2, 0.0, 1.0, "fixed-rate")
    elif name == "no-chat":
        spec = parse_spec_file("N = 3\n")
    else:
        spec = parse_spec_file(chain_text(6, 4, EC))
    harness = sum(e.alpha * np.log2(e.size) for e in spec.graph.edges)
    assert float(harness).hex() == float(spec.chat_cost()).hex()
    assert len(spec.graph.edges) == len(spec.chat_alphas)


def test_parse_errors_name_line_and_key():
    with pytest.raises(SpecFormatError) as err:
        parse_spec_file("N = 3\nedge = 1 2 2\n")
    assert err.value.line == 2
    assert err.value.key == "edge"
    with pytest.raises(SpecFormatError) as err:
        parse_spec_file("N = 3\nflavor = spicy\n")
    assert err.value.key == "flavor"
    with pytest.raises(SpecFormatError) as err:
        parse_spec_file("edge = 1 2 2 0\n")
    assert err.value.line == 0 and err.value.key == "N"
    with pytest.raises(SpecFormatError) as err:
        parse_spec_file("N = 2\nedge = 1 2 4 0\npartition = 1 2 : 0 0.5 1\n")
    assert err.value.key == "partition"
    assert "boundaries" in str(err.value)


def test_parse_comments_and_defaults():
    spec = parse_spec_file(
        "N = 2  # tiny\n# full-line comment\nedge = 1 2 2 0\n"
    )
    assert spec.partition == (0.0, 0.5, 1.0)
    assert spec.chat_alphas == (0.0,)
    assert "schedule = 1>2\n" in spec.canonical_text()
    assert spec.fusion_alphas == (1.0, 1.0)


@pytest.mark.parametrize("source", ["uniform 0 2", "uniform -1 1", "uniform 0.5 1"])
def test_parse_rejects_sources_other_than_unit_uniform(source):
    # Profiles and message laws are closed forms for uniform(0, 1) only.
    with pytest.raises(SpecFormatError, match=r"uniform on \[0, 1\]"):
        parse_spec_file(f"N = 2\nsource = {source}\nedge = 1 2 2 0\n")
    assert parse_spec_file("N = 2\nsource = uniform 0 1\n").source.hi == 1.0


# -- codebook banks and replayable chat tables ---------------------------------


def test_bank_pins_dont_care_codeword():
    spec = chain(5, 2)
    table = build_banks(spec, [[4, 0]] + [[4, 4]] * 4)
    assert table.dont_care.tolist() == [[False, False]] + [[False, True]] * 4
    assert table.codebook(2, 1).dont_care_cells == frozenset()
    assert table.codebook(2, 2).dont_care_cells == frozenset({1})
    assert table.codewords[1, 1, 0] == pytest.approx(0.5)
    assert table.edges[1, 1, 1] == pytest.approx(0.5)


def test_build_banks_rejects_sizes_it_would_bend():
    # The (N, K) table is the only size format: a table of another shape
    # (one size per sensor, a missing or an extra message) is refused
    # whole, and a fractional or boolean size, or one the sensor cannot
    # receive, names the first such sensor and message.
    fixed = chain(3, 2)
    entropy = chain(3, 2, regime="entropy-constrained")
    cases = [
        (fixed, [4, 4, 4], r"need a \(3, 2\) table, got shape \(3,\)"),
        (entropy, [[4], [4], [4]], r"\(3, 2\) table, got shape \(3, 1\)"),
        (entropy, [[4, 0, 0], [4, 4, 4], [4, 4, 4]], r"\(3, 2\) table, got shape \(3, 3\)"),
        (fixed, [[3.9, 0], [4, 4], [4, 4]], r"sensor 1, message 1: .*integer, got 3\.9"),
        (fixed, [[4, 0], [True, True], [4, 4]], r"sensor 2, message 1: .*integer, got True"),
        (fixed, np.full((3, 2), 4.0), r"sensor 1, message 1: .*integer, got 4\.0"),
        (fixed, np.ones((3, 2), dtype=bool), r"sensor 1, message 1: .*integer, got True"),
        (entropy, [[4, 4], [4, 4], [4, 4]],
         r"sensor 1, message 2: codebook size 4 for a message the sensor cannot receive"),
        (fixed, [[4, -1], [4, 4], [4, 4]], r"sensor 1, message 2: codebook size -1 for a message"),
    ]
    for spec, sizes, match in cases:
        with pytest.raises(ValueError, match=match):
            build_banks(spec, sizes)
    # Integers of any kind still build, one size per (sensor, message).
    for sizes in ([[np.int64(4), 0], [4, 6], [3, 5]], np.array([[4, 0], [4, 6], [3, 5]], np.uint16)):
        assert build_banks(entropy, sizes).sizes.tolist() == [[4, 0], [4, 6], [3, 5]]
    # A live size below one cell (a missing message included) or above
    # the largest codebook is refused before any codebook is built.
    for sizes, match in (
        ([[4, 0], [0, 0], [4, 4]], "sensor 2, message 1: codebook size 0 is not in"),
        ([[4, 0], [4, 0], [4, 4]], "sensor 2, message 2: codebook size 0 is not in"),
        ([[4, 0], [4, 4], [4, -3]], "sensor 3, message 2: codebook size -3 is not in"),
        ([[4, 0], [4, 4], [4, MAX_CODEBOOK_SIZE + 1]], f"sensor 3, message 2: .*{MAX_CODEBOOK_SIZE}"),
        ([[4, 0], [2**70, 4], [4, 4]], f"sensor 2, message 1: codebook size {2**70} is not in"),
    ):
        with pytest.raises(InfeasibleRateError, match=match):
            build_banks(entropy, sizes)


def test_build_banks_table_rows():
    # One row per (sensor, message) of the chain: sensor 1 hears nothing,
    # so only its message-1 row holds a codebook, padded like the rest.
    table = build_banks(chain(3, 4), [[5, 0, 0, 0], [6] * 4, [7] * 4])
    assert table.sizes.tolist() == [[5, 0, 0, 0], [6] * 4, [7] * 4]
    assert table.edges.shape == table.codewords.shape == (3, 4, 8)
    assert table.rows() == [(1, 1)] + [(n, k) for n in (2, 3) for k in range(1, 5)]
    assert not table.edges[0, 1:].any() and not table.edges[1, :, 7:].any()
    assert not table.edges.flags.writeable
    with pytest.raises(ValueError, match="sensor 1, message 2: no codebook"):
        table.codebook(1, 2)


def assert_max_rule(spec, table):
    t = np.asarray(spec.partition)
    for n in range(1, len(spec.chat_alphas) + 1):
        block = out_message_table(spec, table, n)
        assert block.shape == table.edges.shape[1:]
        for k_in in range(1, block.shape[0] + 1):
            size = table.sizes[n - 1, k_in - 1]
            for m in range(1, size + 1):
                cw = table.codewords[n - 1, k_in - 1, m - 1]
                j = max(int(np.searchsorted(t, cw, side="left")), 1)
                assert block[k_in - 1, m - 1] == max(k_in, j)
            assert not block[k_in - 1, size:].any()


def test_out_message_table_is_max_rule():
    spec = chain(5, 2)
    assert_max_rule(spec, build_banks(spec, [[4, 0]] + [[4, 4]] * 4))


SAMPLE_BUDGETS = {"max2_nochat.txt": 8.0, "max4_chat.txt": 16.0, "max5_entropy.txt": 25.0}


@pytest.mark.parametrize("name", [*sorted(SAMPLE_BUDGETS), "chain16", "entropy6_rc2"])
def test_out_message_table_is_max_rule_on_designs(name):
    if name in SAMPLE_BUDGETS:
        spec = parse_spec_file((SPEC_DIR / name).read_text())
        design = design_network(spec, budget=SAMPLE_BUDGETS[name])
    elif name == "chain16":
        design = design_network(chain(16, 2), budget=64.0)
    else:
        design = design_network(chain(6, 4, regime="entropy-constrained"), budget=30.0)
    assert_max_rule(design.spec, design.banks)


def frozen_budget_designs():
    """Designs of the shipped specs, of the benchmark and test chains, and
    of one-cell partitions on both sides of the optimum, each at its
    budget, in a fixed order."""
    ec = "entropy-constrained"
    for name, budget in (("max4_chat.txt", 16.0), ("max2_nochat.txt", 4.0),
                         ("max5_entropy.txt", 25.0)):
        spec = parse_spec_file((SPEC_DIR / name).read_text())
        yield design_network(spec, budget=budget)
    for spec, budget in (
        (chain(16, 2), 64.0),
        (chain(8, 4, chat_alpha=0.01), 32.0),
        (chain(6, 4, regime=ec), 30.0),
        (chain(4, 8), 40.0),
        (chain(5, 2, regime=ec, boundaries=(0.0, 0.7, 1.0)), 25.0),
        (chain(10, 2, regime=ec, boundaries=(0.0, 0.2, 1.0)), 50.0),
        (chain(3, 2, boundaries=(0.0, 0.93, 1.0)), 9.0),
    ):
        yield design_network(spec, budget=budget)


def frozen_bank_designs():
    """(spec, codebook table) of every ``frozen_budget_designs`` design
    and of one N = 1 table, in a fixed order."""
    for design in frozen_budget_designs():
        yield design.spec, design.banks
    spec = parse_spec_file("N = 1\n")
    yield spec, build_banks(spec, [[256]])


def test_bank_digests_are_frozen():
    # Every codebook bit for bit: one SHA-256 over the boundaries,
    # codewords and don't-care cells of every (sensor, message) row, in
    # (sensor, message) order.
    digest = hashlib.sha256()
    for _spec, table in frozen_bank_designs():
        for n, k in table.rows():
            size = table.sizes[n - 1, k - 1]
            digest.update(table.edges[n - 1, k - 1, : size + 1].tobytes())
            digest.update(table.codewords[n - 1, k - 1, :size].tobytes())
            digest.update(b"[1]" if table.dont_care[n - 1, k - 1] else b"[]")
    assert digest.hexdigest() == (
        "a5e6ff66a75b0ac0a917a125cb66fddc2fee0a01aea37462a0c667a921d868a2"
    )


def test_prediction_digests_are_frozen():
    # Every prediction bit for bit: one SHA-256 over float.hex of the
    # total and of every (sensor, message, contribution) detail entry, for
    # the budget designs above and two designs from explicit rates.
    designs = [
        *frozen_budget_designs(),
        design_network(chain(3, 2, regime="entropy-constrained"), rates=[3.0, [3.0, 2.5], 2.0]),
        design_network(chain(3, 2), rates=[3.0] * 3),
    ]
    digest = hashlib.sha256()
    for design in designs:
        digest.update(float(design.predicted.total).hex().encode())
        for n, k, contrib in design.predicted.detail:
            digest.update(f"{n} {k} {float(contrib).hex()}".encode())
    assert digest.hexdigest() == (
        "e138cbfd09f1b68aadb421693293ab4c98b650c69f9075ea16c1251c77703e8e"
    )


def test_out_message_table_equals_per_codebook_loop():
    # One search of the sender's whole block against the partition gives
    # what searching each codebook's codewords in turn gives, on every
    # live cell of every frozen-digest design.
    senders = 0
    for spec, table in frozen_bank_designs():
        for n in range(1, len(spec.chat_alphas) + 1):
            block = out_message_table(spec, table, n)
            want = out_message_loop(spec, table, n)
            live = np.arange(table.stride) < table.sizes[n - 1, :, None]
            assert np.array_equal(block[: want.shape[0], : want.shape[1]], want)
            assert not block[~live].any()
            senders += 1
    assert senders > 30


def test_out_message_table_entries_in_range():
    spec = chain(4, 4)
    table = build_banks(spec, [[6, 0, 0, 0]] + [[6] * 4] * 3)
    for n in range(1, 4):
        block = out_message_table(spec, table, n)
        live = block[np.arange(table.stride) < table.sizes[n - 1, :, None]]
        assert live.min() >= 1 and live.max() <= 4
    # Only a sender with a receiver has a table.
    for n in (0, 4):
        with pytest.raises(ValueError, match=f"sensor {n} sends no chat message"):
            out_message_table(spec, table, n)
    silent = parse_spec_file("N = 2\n")
    with pytest.raises(ValueError, match="sensor 1 sends no chat message"):
        out_message_table(silent, build_banks(silent, [[4], [4]]), 1)


# -- end-to-end design ----------------------------------------------------------


def test_design_requires_one_of_budget_and_rates():
    spec = chain(3, 2)
    with pytest.raises(ValueError):
        design_network(spec)
    with pytest.raises(ValueError):
        design_network(spec, budget=12.0, rates=[4.0, 4.0, 4.0])


def test_design_fixed_rate_budget():
    spec = chain(4, 2)
    design = design_network(spec, budget=16.0)
    # One codebook size per sensor, on every message it can receive.
    table = design.banks.sizes
    sizes = table[:, 0]
    assert np.array_equal(table, np.where(table > 0, sizes[:, None], 0))
    spent = sum(a * np.log2(s) for a, s in zip(spec.fusion_alphas, sizes))
    assert spent <= 16.0 + 1e-9
    want = predict(spec, np.log2(sizes))
    assert design.predicted.total == pytest.approx(want.total, rel=1e-12)
    assert design.allocation is not None
    assert design.banks.rows() == [(1, 1)] + [(n, k) for n in (2, 3, 4) for k in (1, 2)]


def test_design_refuses_codebooks_above_the_cap():
    # rint(2^rate) is checked against the largest codebook before any
    # cast: at the cap a rate builds, and one cell more is refused with
    # the sensor, the message and the cap named, in both regimes.
    one = parse_spec_file("N = 1\n")
    assert design_network(one, rates=[20.0]).banks.sizes.tolist() == [[MAX_CODEBOOK_SIZE]]
    with pytest.raises(InfeasibleRateError, match=f"sensor 1, message 1: .*{MAX_CODEBOOK_SIZE}"):
        design_network(one, rates=[math.log2(MAX_CODEBOOK_SIZE + 1)])
    entropy = chain(2, 2, regime="entropy-constrained")
    with pytest.raises(InfeasibleRateError, match=f"sensor 2, message 2: .*{MAX_CODEBOOK_SIZE}"):
        design_network(entropy, rates=[4.0, [4.0, 21.0]])
    # Budgets whose allocations ask for about 2^100 and 2^30 cells.
    for budget in (200.0, 60.0):
        with pytest.raises(InfeasibleRateError, match=f"sensor 1, message 1: .*{MAX_CODEBOOK_SIZE}"):
            design_network(chain(2, 2), budget=budget)


def test_repair_budget_matches_one_sensor_at_a_time():
    # Random fixed-rate tables with up to 16 messages and overshoots of up
    # to 6 cost units; every third instance has equal sensors, so the
    # first-sensor rule decides ties.
    rng = np.random.default_rng(1)
    steps = 0
    for trial in range(300):
        n, k = int(rng.integers(1, 9)), int(rng.choice([1, 2, 4, 8, 16]))
        tied = trial % 3 == 0
        probs = rng.random((1 if tied else n, k))
        probs /= probs.sum(axis=1, keepdims=True)
        norms = rng.uniform(0.01, 1.0, (1 if tied else n, k))
        dont_care = (rng.random((1 if tied else n, k)) < 0.5) * rng.integers(0, 3, k)
        probs, norms, dont_care = (
            np.broadcast_to(a, (n, k)) for a in (probs, norms, dont_care)
        )
        alphas = np.ones(n) if tied else rng.uniform(0.5, 2.0, n)
        min_sizes = dont_care.max(axis=1) + 1
        sizes = min_sizes + rng.integers(0, 40, n)
        budget = float(np.sum(alphas * np.log2(sizes))) - rng.uniform(0.0, 6.0)
        consts = (probs, dont_care, norms)
        try:
            want = repair_budget_loop(sizes, min_sizes, alphas, consts, budget)
        except ValueError:
            with pytest.raises(ValueError, match="budget too small"):
                _repair_budget(sizes, min_sizes, alphas, consts, budget)
            continue
        got = _repair_budget(sizes, min_sizes, alphas, consts, budget)
        assert np.array_equal(got, want), f"instance {trial}"
        steps += int(np.sum(sizes - got))
    assert steps > 1000


def test_design_fixed_rate_charges_chatting():
    cheap = design_network(chain(4, 2, chat_alpha=0.0), budget=16.0)
    costly = design_network(chain(4, 2, chat_alpha=1.0), budget=16.0)
    # Three edges at one bit each eat three budget units.
    assert sum(np.log2(costly.banks.sizes[:, 0])) <= sum(np.log2(cheap.banks.sizes[:, 0])) - 2
    assert costly.predicted.total > cheap.predicted.total


def test_design_explicit_rates_skips_repair():
    spec = chain(3, 2)
    design = design_network(spec, rates=[3.0, 3.0, 3.0])
    assert design.banks.sizes.tolist() == [[8, 0], [8, 8], [8, 8]]
    assert design.allocation is None


def test_design_budget_too_small():
    with pytest.raises(ValueError):
        design_network(chain(5, 2), budget=0.1)
    with pytest.raises(InfeasibleBudgetError, match="exhausts the budget"):
        design_network(chain(3, 2, chat_alpha=10.0), budget=16.0)


@pytest.mark.parametrize(
    "spec",
    [
        chain(4, 2),
        chain(8, 4, chat_alpha=0.01),
        chain(5, 2, boundaries=(0.0, 0.7, 1.0)),
        parse_spec_file("N = 1\n"),
    ],
    ids=["N4K2", "N8K4", "N5p0.7", "N1"],
)
def test_codebook_rows_are_the_constants_rows(spec):
    # The row a codebook is built from integrates, over its active region
    # [s_l, 1], to the fixed-rate norm the prediction uses, and leaves a
    # don't-care cell exactly where the prediction counts one.
    probs, dont_care, norms = _spec_constants(spec.with_regime(FIXED_RATE))
    live = 0
    for n in range(1, spec.n_sensors + 1):
        for k in np.flatnonzero(probs[n - 1] > 0.0) + 1:
            prof = spec.conditional_profile(n, k)
            (root,) = integrate_adaptive(
                lambda x, _rows: np.cbrt(prof(x)), np.array([[prof.s_l, prof.s_u, 1.0]])
            )
            assert root**3 == pytest.approx(norms[n - 1, k - 1], rel=1e-12, abs=0)
            assert dont_care[n - 1, k - 1] == int(prof.s_l > 0)
            live += 1
    assert live == sum(spec.message_probs(n).size for n in range(1, spec.n_sensors + 1))


def test_design_entropy_sizes_cover_gates():
    spec = chain(4, 2, regime="entropy-constrained")
    design = design_network(spec, budget=16.0)
    for n, k in design.banks.rows():
        dc = int(spec.conditional_profile(n, k).s_l > 0)
        assert design.banks.sizes[n - 1, k - 1] >= dc + 1
    want = predict(
        spec,
        [
            [float(r) for (_n, _k), r in zip(design.allocation.labels, design.allocation.rates) if _n == n]
            for n in range(1, 5)
        ],
    )
    assert design.predicted.total == pytest.approx(want.total, rel=1e-9)


def test_design_entropy_explicit_rates():
    spec = chain(3, 2, regime="entropy-constrained")
    design = design_network(spec, rates=[3.0, [3.0, 2.5], 2.0])
    assert design.banks.sizes.tolist() == [[8, 0], [8, 6], [4, 4]]
    with pytest.raises(ValueError):
        design_network(spec, rates=[3.0, [3.0, 2.5, 2.0], 2.0])


@pytest.mark.parametrize("regime", ["fixed-rate", "entropy-constrained"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_design_rejects_non_finite_rates(regime, bad):
    spec = chain(3, 2, regime=regime)
    with pytest.raises(ValueError, match="sensor 2: rates must be finite"):
        design_network(spec, rates=[3.0, bad, 3.0])
    if regime == "entropy-constrained":
        with pytest.raises(ValueError, match="sensor 2: rates must be finite"):
            design_network(spec, rates=[3.0, [3.0, bad], 3.0])
