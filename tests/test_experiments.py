import csv
import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

from chatquant.allocation import (
    InfeasibleBudgetError,
    _allocate_from,
    _fusion_budget,
    allocate,
    chat_budget_search,
)
from chatquant import experiments
from chatquant.chatnet import ChatNetworkSpec
from chatquant.distortion import _chat_constants, closed_form_max_nochat
from chatquant.experiments import (
    _partition_grid,
    allocation_report,
    optimize_partition,
    run_scenarios,
    standard_figures,
    sweep_chatting_rate,
    sweep_partition,
    write_csv,
)

from oracles import partition_grid_loop

FR = "fixed-rate"
EC = "entropy-constrained"


def chain(n, alpha_c=0.0, regime=FR, fusion_alpha=1.0):
    """The serial max chain the sweeps run on: one-bit chat at alpha_c."""
    return ChatNetworkSpec.serial_max(n, 2, alpha_c, fusion_alpha, regime)


def test_sweep_spec_validation():
    # Each sweep checks its grid and budget before any allocation.
    spec = chain(4, 0.01)
    with pytest.raises(ValueError, match="grid is empty"):
        sweep_chatting_rate(spec, 16.0, ())
    with pytest.raises(ValueError, match="grid is empty"):
        sweep_partition(spec, 16.0, ())
    for bad in (0.0, 1.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"inside \(0, 1\)"):
            sweep_partition(spec, 16.0, (0.5, bad))
    for bad in (1.5, -1, float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="nonnegative integer"):
            sweep_chatting_rate(spec, 16.0, (0, bad))
    # A bad grid is named even when the budget is bad too.
    with pytest.raises(ValueError, match="nonnegative integer"):
        sweep_chatting_rate(spec, float("nan"), (0, 1.5))
    for sweep, grid in ((sweep_chatting_rate, (0, 1)), (sweep_partition, (0.5,))):
        with pytest.raises(ValueError, match="finite"):
            sweep(spec, float("nan"), grid)
    for n_sensors in (0, -1):
        with pytest.raises(ValueError, match="need at least one sensor"):
            chain(n_sensors)
    # A whole number given as a float is a valid rate.
    assert sweep_chatting_rate(spec, 16.0, (1.0,)) == sweep_chatting_rate(spec, 16.0, (1,))


def test_sweeps_reject_non_finite_link_costs():
    # The sweeps take their costs from the spec, which refuses these.
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="chat cost per bit must be finite"):
            chain(4, alpha_c=bad)
        with pytest.raises(ValueError, match="fusion costs must be finite"):
            chain(4, fusion_alpha=bad)


def test_sweep_functions_check_variable():
    # A partition boundary is no chat rate, and a chat rate no boundary.
    with pytest.raises(ValueError, match="nonnegative integer"):
        sweep_chatting_rate(chain(4), 16.0, (0.5,))
    with pytest.raises(ValueError, match=r"inside \(0, 1\)"):
        sweep_partition(chain(4), 16.0, (1,))


def test_chat_rate_sweep_frozen_fixed_rate():
    rows = sweep_chatting_rate(chain(4), 16.0, (0, 1, 2, 3))
    got = [r["predicted_fmse"] for r in rows]
    want = (1.627604e-4, 1.335093e-4, 1.188706e-4, 1.098236e-4)
    assert np.allclose(got, want, rtol=1e-5)
    assert all(r["feasible"] for r in rows)
    assert np.all(np.diff(got) < 0)
    # With no chatting the sweep lands exactly on the no-chat trade-off.
    assert got[0] == pytest.approx(closed_form_max_nochat(4, 16.0, FR), rel=1e-9)


def test_chat_rate_sweep_flags_infeasible():
    rows = sweep_chatting_rate(chain(4, 2.0), 16.0, (0, 4))
    assert rows[0]["feasible"] is True
    assert rows[1]["feasible"] is False
    assert rows[1]["predicted_fmse"] is None
    assert rows[1]["Rc"] == 4


@pytest.mark.parametrize("per_sensor", [-1.0, 0.0])
def test_chat_rate_sweep_nonpositive_budget(per_sensor):
    with pytest.raises(InfeasibleBudgetError, match="budget must be positive"):
        sweep_chatting_rate(chain(3, 0.01), 3 * per_sensor, (0, 1, 2))


@pytest.mark.parametrize("regime", [FR, EC])
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("alpha_c", [0.0, 0.1])
def test_chat_budget_search_picks_the_best_sweep_row(n, regime, alpha_c):
    # The search and the sweep read one loop over chat rates: the search
    # returns the feasible row of smallest prediction, to the last bit.
    spec = chain(n, alpha_c, regime)
    budget, rcs = 4.0 * n, (0, 1, 2, 3)
    rows = [r for r in sweep_chatting_rate(spec, budget, rcs) if r["feasible"]]
    best = min(rows, key=lambda r: r["predicted_fmse"])
    rc, res = chat_budget_search(spec, budget, rcs)
    assert rc == best["Rc"]
    assert res.predicted_distortion == best["predicted_fmse"]


@pytest.mark.parametrize("regime", [FR, EC])
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("alpha_c", [0.0, 0.1])
def test_optimize_partition_picks_the_best_sweep_row(n, regime, alpha_c):
    spec, budget, step = chain(n, alpha_c, regime), 4.0 * n, 0.05
    rows = sweep_partition(spec, budget, np.arange(step, 1.0, step))
    best = min(rows, key=lambda r: r["predicted_fmse"])
    assert optimize_partition(spec, budget, step) == (best["p1"], best["predicted_fmse"])


def test_partition_sweep_consistency_with_rate_sweep():
    # The uniform boundary must reproduce the one-bit chat-rate row: same
    # network, same allocation path.
    for regime in (FR, EC):
        part = sweep_partition(chain(4, regime=regime), 16.0, (0.5,))
        rate = sweep_chatting_rate(chain(4, regime=regime), 16.0, (1,))
        assert part[0]["predicted_fmse"] == pytest.approx(
            rate[0]["predicted_fmse"], rel=1e-12
        )


@pytest.mark.parametrize("regime", [FR, EC])
def test_partition_sweeps_refuse_a_network_without_chat(regime):
    # A network without chat has no partition to move, so every partition
    # sweep refuses it instead of reporting rows of ratio 1.0 and the
    # first grid point as the best boundary.
    for spec in (ChatNetworkSpec.serial_max(1, 2, regime=regime),
                 replace(ChatNetworkSpec.serial_max(3, 2, regime=regime),
                         chat_alphas=(), partition=(0.0, 1.0))):
        with pytest.raises(ValueError, match="needs chat links"):
            sweep_partition(spec, 12.0, (0.3, 0.5))
        with pytest.raises(ValueError, match="needs chat links"):
            optimize_partition(spec, 12.0, 0.25)
    with pytest.raises(ValueError, match="needs chat links"):
        run_scenarios(1, 5.0, (regime,), 0.25)


def test_scenarios_refuse_a_network_without_chat_before_any_allocation(monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "allocate", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="a partition sweep needs chat links; "
                                         "this 1-sensor network has none"):
        run_scenarios(1, 5.0)
    assert calls == []


@pytest.mark.parametrize(
    "per_sensor, label",
    [(1e308 / 3, "no-chat"), (1_000.0, "no-chat"), (535.0, "1-equal-rates")],
)
def test_scenarios_refuse_a_prediction_that_underflows(per_sensor, label, monkeypatch):
    # The predicted fMSE underflows to 0, and the improvement no-chat /
    # fMSE would divide by it.  No-chat, the largest, is checked before
    # any allocation; at 535 bits per sensor it is still positive.
    if label == "no-chat":
        monkeypatch.setattr(experiments, "allocate", None)
    budget = per_sensor * 3
    want = f"fixed-rate fMSE of scenario {label} is 0.0 at budget {budget!r};"
    with pytest.raises(ValueError, match=re.escape(want)):
        run_scenarios(3, per_sensor, (FR,), 0.25)


def test_partition_sweep_columns():
    rows = sweep_partition(chain(4), 16.0, (0.3, 0.5))
    for row in rows:
        assert row["ratio"] == pytest.approx(
            row["predicted_fmse"] / row["nochat_fmse"], rel=1e-12
        )
        assert row["nochat_fmse"] == closed_form_max_nochat(4, 16.0, FR)
    assert rows[1]["ratio"] < 1.0


@pytest.mark.parametrize(
    "regime, want",
    [(FR, (0.8807, 0.8203, 0.9213)), (EC, (1.7383, 0.9726, 0.6003))],
)
def test_partition_sweep_baseline_pays_the_fusion_cost(regime, want):
    # At two units per fusion bit the baseline is the chat-free network at
    # the same cost, not the unit-cost closed form (ratios 14.09, 13.12,
    # 14.74 at fixed rate and 27.81, 15.56, 9.61 under entropy coding).
    spec = chain(4, regime=regime, fusion_alpha=2.0)
    rows = sweep_partition(spec, 16.0, (0.25, 0.5, 0.75))
    twin = replace(spec, chat_alphas=(), partition=(0.0, 1.0))
    nochat = allocate(twin, 16.0).predicted_distortion
    assert [r["ratio"] for r in rows] == pytest.approx(want, abs=1e-4)
    for row in rows:
        assert row["nochat_fmse"] == pytest.approx(nochat, rel=1e-14)
    # Unequal fusion costs have no closed form; the twin is allocated.
    spec = ChatNetworkSpec.serial_max(3, 2, 0.0, (1.0, 2.0, 1.5), regime)
    (row,) = sweep_partition(spec, 12.0, (0.5,))
    twin = replace(spec, chat_alphas=(), partition=(0.0, 1.0))
    assert row["nochat_fmse"] == allocate(twin, 12.0).predicted_distortion


def test_partition_sweep_entropy_can_hurt():
    # A skewed one-bit partition on a deep chain can be far worse than not
    # chatting at all under entropy coding.
    rows = sweep_partition(chain(10, regime=EC), 40.0, (0.2,))
    assert rows[0]["ratio"] == pytest.approx(9.9715, rel=1e-3)
    assert rows[0]["ratio"] > 1.0


@pytest.mark.parametrize("regime", [FR, EC])
@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_partition_grid_matches_per_point_loop(n, regime):
    # One integration pass over the grid gives what allocating every grid
    # point from scratch gives, and the same best boundary.
    spec = ChatNetworkSpec.serial_max(n, 2, 0.0, 1.0, regime)
    budget = 4.0 * n
    for step in (0.01, 0.05):
        p1s = np.arange(step, 1.0, step)
        want = partition_grid_loop(spec, budget, p1s)
        best_p1, best = optimize_partition(spec, budget, step)
        assert best_p1 == p1s[np.argmin(want)]
        assert best == pytest.approx(want.min(), rel=1e-12, abs=0.0)
        rows = sweep_partition(spec, budget, p1s)
        got = np.array([r["predicted_fmse"] for r in rows])
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert [r["p1"] for r in rows] == [float(p1) for p1 in p1s]


def _per_point_grid(spec, budget, p1s):
    """``_partition_grid`` point by point: the same constants, one
    ``_allocate_from`` per grid point."""
    one_bit = spec.with_partition((0.0, 0.5, 1.0))
    remaining = _fusion_budget(one_bit, budget)
    grid = np.column_stack([np.zeros_like(p1s), p1s, np.ones_like(p1s)])
    consts = _chat_constants(one_bit, grid)
    return np.array(
        [
            _allocate_from(one_bit, remaining, [c[g] for c in consts]).predicted_distortion
            for g in range(p1s.size)
        ]
    )


@pytest.mark.parametrize("regime", [FR, EC])
@pytest.mark.parametrize("n", [2, 5, 10])
def test_partition_grid_water_levels_are_per_point_bit_for_bit(n, regime):
    # One water-fill over the whole (G, L) grid gives each point's
    # one-point allocation, to the last bit.
    spec = ChatNetworkSpec.serial_max(n, 2, 0.0, 1.0, regime)
    for step in (0.01, 0.05):
        p1s = np.arange(step, 1.0, step)
        got = _partition_grid(spec, 4.0 * n, p1s)
        assert np.array_equal(got, _per_point_grid(spec, 4.0 * n, p1s))


def test_partition_grid_with_a_dead_message():
    # p1 = 1e-200 makes message 1 of sensor 3 round to probability 0, so
    # that grid point water-fills fewer entropy-coded links than the rest.
    spec = ChatNetworkSpec.serial_max(3, 2, 0.0, 1.0, EC)
    p1s = np.array([0.3, 1e-200, 0.5])
    got = _partition_grid(spec, 12.0, p1s)
    assert np.array_equal(got, _per_point_grid(spec, 12.0, p1s))
    assert np.array_equal(got, partition_grid_loop(spec, 12.0, p1s))


def test_partition_step_must_be_inside_unit_interval():
    spec = ChatNetworkSpec.serial_max(3, 2)
    for bad in (1.0, 1.5, 0.0, -0.01, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"must be inside \(0, 1\)"):
            optimize_partition(spec, 12.0, bad)
        with pytest.raises(ValueError, match=r"must be inside \(0, 1\)"):
            run_scenarios(3, 4.0, p1_step=bad)


def test_allocation_report_rejects_bad_chat_rates():
    for bad in (0.5, -1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="chat rate must be a nonnegative integer"):
            allocation_report(4, 4.0, bad)
    # A whole number given as a float is a valid rate.
    assert allocation_report(4, 4.0, 1.0) == allocation_report(4, 4.0, 1)


SCENARIO_LADDER = {
    (FR, "no-chat"): (3.203011e-5, 1.0),
    (FR, "1-equal-rates"): (2.586091e-5, 1.2386),
    (FR, "2-allocation"): (2.558792e-5, 1.2518),
    (FR, "3-allocation+partition"): (2.557027e-5, 1.2526),
    (EC, "no-chat"): (7.452653e-6, 1.0),
    (EC, "1-equal-rates"): (5.341301e-6, 1.3953),
    (EC, "2-allocation"): (1.531615e-6, 4.8659),
    (EC, "3-allocation+partition"): (7.029530e-7, 10.6019),
}


def test_scenario_ladder_frozen():
    rows = run_scenarios()
    assert len(rows) == 8
    by_key = {(r["regime"], r["scenario"]): r for r in rows}
    for key, (fmse, improvement) in SCENARIO_LADDER.items():
        assert by_key[key]["fmse"] == pytest.approx(fmse, rel=1e-5), key
        assert by_key[key]["improvement"] == pytest.approx(improvement, abs=1e-3), key
    assert by_key[(FR, "3-allocation+partition")]["p1"] == pytest.approx(0.52, abs=1e-6)
    assert by_key[(EC, "3-allocation+partition")]["p1"] == pytest.approx(0.70, abs=1e-6)
    # Each added design step can only help.
    for regime in (FR, EC):
        imps = [
            by_key[(regime, s)]["improvement"]
            for s in ("1-equal-rates", "2-allocation", "3-allocation+partition")
        ]
        assert imps[0] > 1.0
        assert imps[0] <= imps[1] <= imps[2]


def test_allocation_report_structure():
    rows = allocation_report(4, 4.0, 1, 0.0)
    fr = [r for r in rows if r["regime"] == FR]
    ec = [r for r in rows if r["regime"] == EC]
    assert [r["sensor"] for r in fr] == [1, 2, 3, 4]
    assert all(r["message"] == -1 for r in fr)
    assert sum(r["b"] for r in fr) == pytest.approx(16.0, abs=1e-9)
    # One row per live (sensor, message) pair under entropy coding.
    assert [(r["sensor"], r["message"]) for r in ec] == [
        (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2),
    ]
    for r in rows:
        assert r["b"] >= 0
        assert r["rate"] == pytest.approx(r["b"] / r["alpha"], rel=1e-12)


def test_write_csv(tmp_path):
    rows = [
        {"x": 1, "y": 0.5, "note": None},
        {"x": 2, "y": 0.25, "note": "ok"},
    ]
    path = write_csv(tmp_path / "out.csv", rows, {"N": 4, "C": 16})
    lines = path.read_text().splitlines()
    assert lines[0] == "# N = 4"
    assert lines[1] == "# C = 16"
    assert lines[2] == "x,y,note"
    assert lines[3] == "1,0.5,"
    with pytest.raises(ValueError):
        write_csv(tmp_path / "empty.csv", [])


STANDARD_FIGURES_SHA256 = (
    "4c3d6f9c0df6ba49df13573edbef647afa373e24d9f7de1c34cf81c0f2102df3"
)


def test_standard_figures(tmp_path):
    paths = standard_figures(tmp_path)
    assert [p.name for p in paths] == [
        "fig5a.csv", "fig5b.csv", "fig5c.csv", "fig5d.csv",
        "fig6a.csv", "fig6b.csv", "fig7.csv", "fig3.csv",
    ]
    for p in paths:
        assert p.read_text().startswith("# study = ")
    with (tmp_path / "fig5a.csv").open() as fh:
        data = [line for line in fh if not line.startswith("#")]
    reader = csv.DictReader(data)
    assert reader.fieldnames == ["N", "Rc", "feasible", "predicted_fmse"]
    rows = list(reader)
    assert len(rows) == 16  # four network sizes, four chat rates
    assert {r["N"] for r in rows} == {"2", "3", "4", "5"}
    # Every figure is frozen: one SHA-256 over the eight files in order.
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()
    assert digest == STANDARD_FIGURES_SHA256
