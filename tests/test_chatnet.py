import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatquant.chatnet import (
    ChatEdge,
    ChatGraph,
    ChatNetworkSpec,
    Schedule,
    SpecFormatError,
    _repair_budget,
    build_banks,
    design_network,
    out_message_table,
    parse_spec_file,
    validate_identifiable,
)
from chatquant.allocation import InfeasibleBudgetError
from chatquant.distortion import predict
from oracles import repair_budget_loop, serial_max_chat_round

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def chain(n, size, **kw):
    return ChatNetworkSpec.serial_max(n, size, **kw)


# -- graph and schedule primitives -------------------------------------------


def test_edge_validation():
    with pytest.raises(ValueError):
        ChatEdge(1, 1, 2)
    with pytest.raises(ValueError):
        ChatEdge(1, 2, 0)
    with pytest.raises(ValueError):
        ChatEdge(1, 2, 2, alpha=-0.5)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ChatEdge(1, 2, 2, alpha=bad)


def test_graph_validation():
    with pytest.raises(ValueError):
        ChatGraph((1, 1), ())
    with pytest.raises(ValueError):
        ChatGraph((1, 2), (ChatEdge(1, 3, 2),))
    with pytest.raises(ValueError):
        ChatGraph((1, 2), (ChatEdge(1, 2, 2), ChatEdge(1, 2, 4)))
    fan_in = ChatGraph((1, 2, 3), (ChatEdge(1, 3, 2), ChatEdge(2, 3, 2)))
    with pytest.raises(ValueError):
        fan_in.edge_into(3)


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(((1, 2), (1, 2)))


def test_identifiable_chain_is_clean():
    spec = chain(4, 2)
    assert validate_identifiable(spec.graph, spec.schedule) == []


def test_identifiable_flags_cycle():
    graph = ChatGraph((1, 2), (ChatEdge(1, 2, 2), ChatEdge(2, 1, 2)))
    schedule = Schedule(((1, 2), (2, 1)))
    conditions = {v.condition for v in validate_identifiable(graph, schedule)}
    assert "C1" in conditions


def test_identifiable_flags_acausal_schedule():
    spec = chain(3, 2)
    bad = Schedule(((2, 3), (1, 2)))
    violations = validate_identifiable(spec.graph, bad)
    assert [v.condition for v in violations] == ["C2"]
    assert "(2, 3)" in violations[0].message


def test_identifiable_flags_schedule_mismatch():
    spec = chain(3, 2)
    partial = Schedule(((1, 2),))
    violations = validate_identifiable(spec.graph, partial)
    assert violations[0].condition == "C2"
    assert "missing" in violations[0].message


# -- spec construction and accessors ------------------------------------------


def test_serial_max_defaults():
    spec = chain(3, 4)
    assert spec.is_serial_chain()
    assert spec.partition == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert spec.schedule.order == ((1, 2), (2, 3))
    assert spec.validate() == []


def test_spec_field_validation():
    good = chain(2, 2)
    with pytest.raises(ValueError):
        ChatNetworkSpec(
            2, good.source, good.graph, good.schedule, (1.0,), good.partition
        )
    with pytest.raises(ValueError):
        ChatNetworkSpec(
            2, good.source, good.graph, good.schedule, (1.0, -1.0), good.partition
        )
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            ChatNetworkSpec(
                2, good.source, good.graph, good.schedule, (1.0, bad), good.partition
            )
    with pytest.raises(ValueError):
        chain(2, 2, regime="variable-rate")
    with pytest.raises(ValueError):
        ChatNetworkSpec(
            2, good.source, good.graph, good.schedule, (1.0, 1.0), ()
        )
    with pytest.raises(ValueError):
        ChatNetworkSpec(
            2,
            good.source,
            good.graph,
            good.schedule,
            (1.0, 1.0),
            (0.0, 1.0),  # two boundaries cannot cut two cells
        )


def test_message_interval_and_probs():
    spec = chain(3, 2)
    assert spec.message_interval(1, 1) == (0.0, 1.0)
    with pytest.raises(ValueError):
        spec.message_interval(1, 2)
    assert spec.message_interval(3, 2) == (0.5, 1.0)
    with pytest.raises(ValueError):
        spec.message_interval(3, 5)
    assert np.allclose(spec.message_probs(1).probabilities, [1.0])
    # Message into sensor 3 reports the cell of max(X1, X2).
    assert np.allclose(spec.message_probs(3).probabilities, [0.25, 0.75])


def test_spec_rejects_edge_sizes_other_than_the_partition():
    # Every edge reports a cell of the one partition, so it has that many
    # messages.
    edges = (ChatEdge(1, 2, 2), ChatEdge(2, 3, 4))
    with pytest.raises(ValueError, match=r"edge \(2, 3\) has 4 cells"):
        ChatNetworkSpec(
            3,
            chain(3, 2).source,
            ChatGraph((1, 2, 3), edges),
            Schedule(((1, 2), (2, 3))),
            (1.0, 1.0, 1.0),
            (0.0, 0.5, 1.0),
        )


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
    for i, j in spec.schedule.order:
        running = max(xs[:i])
        k = int(np.searchsorted(t, running, side="left"))
        assert state.messages[(i, j)] == max(k, 1)


def test_chat_round_validation():
    with pytest.raises(ValueError):
        serial_max_chat_round(chain(3, 2), [0.1, 0.2])
    fan_out = ChatNetworkSpec(
        3,
        chain(3, 2).source,
        ChatGraph((1, 2, 3), (ChatEdge(1, 2, 2), ChatEdge(1, 3, 2))),
        Schedule(((1, 2), (1, 3))),
        (1.0, 1.0, 1.0),
        (0.0, 0.5, 1.0),
    )
    with pytest.raises(ValueError):
        serial_max_chat_round(fan_out, [0.1, 0.2, 0.3])


def test_rewriting_helpers():
    spec = chain(4, 2)
    fast = spec.with_chat_rate(3)
    assert all(e.size == 8 for e in fast.graph.edges)
    assert fast.partition == tuple(np.linspace(0.0, 1.0, 9))
    skew = spec.with_partition([0.0, 0.7, 1.0])
    assert skew.partition == (0.0, 0.7, 1.0)
    assert skew.graph.edges[0].size == 2
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
    assert spec.validate() == []
    assert spec.spec_hash() == digest


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
    assert spec.schedule.order == ((1, 2),)
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
    bank = build_banks(spec, [4] * 5)[2]
    assert bank[1].dont_care_cells == frozenset()
    assert bank[2].dont_care_cells == frozenset({1})
    assert bank[2].codewords[0] == pytest.approx(0.5)
    assert bank[2].boundaries[1] == pytest.approx(0.5)


def assert_max_rule(spec, banks):
    t = np.asarray(spec.partition)
    for edge in spec.graph.edges:
        table = out_message_table(spec, banks, edge)
        for k_in, q in banks[edge.src].items():
            for m in range(1, q.size + 1):
                j = max(int(np.searchsorted(t, q.codewords[m - 1], side="left")), 1)
                assert table[k_in - 1, m - 1] == max(k_in, j)
            assert not table[k_in - 1, q.size :].any()


def test_out_message_table_is_max_rule():
    spec = chain(5, 2)
    assert_max_rule(spec, build_banks(spec, [4] * 5))


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


def test_out_message_table_entries_in_range():
    spec = chain(4, 4)
    banks = build_banks(spec, [6] * 4)
    for edge in spec.graph.edges:
        table = out_message_table(spec, banks, edge)
        assert table.min() >= 1 and table.max() <= edge.size


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
    assert all(isinstance(s, int) for s in design.sizes)
    spent = sum(
        a * np.log2(s) for a, s in zip(spec.fusion_alphas, design.sizes)
    )
    assert spent <= 16.0 + 1e-9
    want = predict(spec, np.log2(design.sizes))
    assert design.predicted.total == pytest.approx(want.total, rel=1e-12)
    assert design.allocation is not None
    assert set(design.banks) == {1, 2, 3, 4}


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
    assert sum(np.log2(costly.sizes)) <= sum(np.log2(cheap.sizes)) - 2
    assert costly.predicted.total > cheap.predicted.total


def test_design_explicit_rates_skips_repair():
    spec = chain(3, 2)
    design = design_network(spec, rates=[3.0, 3.0, 3.0])
    assert design.sizes == (8, 8, 8)
    assert design.allocation is None


def test_design_budget_too_small():
    with pytest.raises(ValueError):
        design_network(chain(5, 2), budget=0.1)
    with pytest.raises(InfeasibleBudgetError, match="exhausts the budget"):
        design_network(chain(3, 2, chat_alpha=10.0), budget=16.0)


def test_design_entropy_sizes_cover_gates():
    spec = chain(4, 2, regime="entropy-constrained")
    design = design_network(spec, budget=16.0)
    for n, row in enumerate(design.sizes, start=1):
        for k, size in enumerate(row, start=1):
            dc = len(spec.conditional_profile(n, k).zero_zones)
            assert size >= dc + 1
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
    assert design.sizes[0] == (8,)
    assert design.sizes[1] == (8, 6)
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
