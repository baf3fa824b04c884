"""Scripted studies over the serial max network.

Each function returns plain row dicts and can serialize them to CSV with
a parameter header, one file per study.  The sweeps and searches take a
network, a budget and a grid: ``sweep_chatting_rate(spec, budget, rcs)``
and ``chat_budget_search`` run each chat rate as
``spec.with_chat_rate(rc)``, ``sweep_partition(spec, budget, p1s)`` and
``optimize_partition`` each boundary as
``spec.with_partition((0, p1, 1))``.  They predict only; a sweep point
is simulated by ``run_simulation`` on its ``design_network``.  Nothing
here plots; the CSVs are the deliverable.
"""

from __future__ import annotations

import csv
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .allocation import (
    _chat_rate_allocations,
    _check_budget,
    _fusion_budget,
    _grid_distortions,
    allocate,
)
from .chatnet import ChatNetworkSpec
from .distortion import (
    ENTROPY_CONSTRAINED,
    FIXED_RATE,
    _chat_constants,
    closed_form_max_nochat,
    fixed_rate_betas,
    predict,
)

__all__ = [
    "allocation_report",
    "run_scenarios",
    "standard_figures",
    "sweep_chatting_rate",
    "sweep_partition",
    "write_csv",
]


def sweep_chatting_rate(
    spec: ChatNetworkSpec, budget: float, rcs: Sequence[int]
) -> list[dict]:
    """Predicted fMSE of ``spec.with_chat_rate(rc)`` at ``budget`` for
    every rc in ``rcs``.

    Every chat edge is charged its per-bit price; the rest of the budget
    is allocated optimally across fusion links, as ``chat_budget_search``
    does for the same grid.  Rows where chatting alone exhausts the
    budget are kept and flagged infeasible.  An empty grid or a rate that
    is not a nonnegative integer raises ValueError, and a budget that is
    not positive InfeasibleBudgetError, before any row.
    """
    return [
        {
            "Rc": rc,
            "feasible": alloc is not None,
            "predicted_fmse": None if alloc is None else alloc.predicted_distortion,
        }
        for rc, alloc in _chat_rate_allocations(spec, budget, rcs)
    ]


def sweep_partition(
    spec: ChatNetworkSpec, budget: float, p1s: Sequence[float]
) -> list[dict]:
    """fMSE ratio against the no-chat baseline as the single one-bit
    partition boundary moves.

    Each row is ``spec.with_partition((0, p1, 1))`` at ``budget``, and
    the baseline is the same network without chat at the same budget.
    Ratios above 1 mean chatting hurts.  An empty grid, a boundary
    outside (0, 1) or a network without chat raises ValueError before
    any allocation.
    """
    p1s = np.array([float(p1) for p1 in p1s])
    if p1s.size == 0:
        raise ValueError("the partition grid is empty")
    if not np.all((p1s > 0.0) & (p1s < 1.0)):
        raise ValueError("partition boundaries must be inside (0, 1)")
    _check_budget(budget)
    fmse = _partition_grid(spec, budget, p1s)
    nochat = _nochat_fmse(spec, budget)
    return [
        {
            "p1": float(p1),
            "predicted_fmse": float(d),
            "nochat_fmse": nochat,
            "ratio": float(d) / nochat,
        }
        for p1, d in zip(p1s, fmse)
    ]


def _nochat_fmse(spec: ChatNetworkSpec, budget: float) -> float:
    """Predicted fMSE of the spec's network without chat at ``budget``.

    When every fusion link costs alpha this is the closed form at
    budget / alpha; otherwise the chat-free twin is allocated.
    """
    alphas = set(spec.fusion_alphas)
    if len(alphas) == 1:
        return closed_form_max_nochat(spec.n_sensors, budget / alphas.pop(), spec.regime)
    twin = replace(spec, chat_alphas=(), partition=(0.0, 1.0))
    return allocate(twin, budget).predicted_distortion


def _partition_grid(
    spec: ChatNetworkSpec, budget: float, p1s: np.ndarray
) -> np.ndarray:
    """Predicted fMSE of ``allocate(spec.with_partition((0, p1, 1)), budget)``
    at every p1 in ``p1s``.

    The constants of every grid point come from one integration pass and
    their water levels from one water-fill of (G, L) arrays.  Raises
    ValueError for a network without chat, which has no partition to move.
    """
    _require_chat(spec)
    one_bit = spec.with_partition((0.0, 0.5, 1.0))
    remaining = _fusion_budget(one_bit, budget)
    grid = np.column_stack([np.zeros_like(p1s), p1s, np.ones_like(p1s)])
    consts = _chat_constants(one_bit, grid)
    return _grid_distortions(one_bit, remaining, consts)


def _require_chat(spec: ChatNetworkSpec) -> None:
    """Raise ValueError for a network without chat, which has no partition
    to move."""
    if not spec.chat_alphas:
        raise ValueError(
            f"a partition sweep needs chat links; this {spec.n_sensors}-sensor "
            "network has none"
        )


def _require_positive(fmse: float, regime: str, label: str, budget: float) -> None:
    """Raise ValueError naming the budget unless a scenario's predicted
    fMSE is positive, as it is not when it underflows to 0."""
    if not fmse > 0.0:
        raise ValueError(
            f"the predicted {regime} fMSE of scenario {label} is {fmse!r} "
            f"at budget {budget!r}; the ladder needs it positive"
        )


def _require_step(step: float) -> None:
    """Raise ValueError unless the p1 grid step lies inside (0, 1)."""
    if not (np.isfinite(step) and 0.0 < step < 1.0):
        raise ValueError(f"the p1 step must be inside (0, 1), got {step!r}")


def run_scenarios(
    n_sensors: int = 5,
    budget_per_sensor: float = 5.0,
    regimes: Sequence[str] = (FIXED_RATE, ENTROPY_CONSTRAINED),
    p1_step: float = 0.01,
) -> list[dict]:
    """Distortion improvement from chatting, allocation, and partition
    design, each added in turn.

    Scenario 1 keeps equal rates and the uniform one-bit partition;
    scenario 2 adds optimal rate allocation; scenario 3 also brute-force
    optimizes the partition boundary.  Improvements are the no-chat
    distortion divided by the scenario distortion at the same total cost
    (chatting itself is free).  Raises ValueError unless 0 < p1_step < 1,
    for a network without chat before any prediction, and naming the
    budget when a scenario's predicted fMSE is not positive, as when it
    underflows to 0.
    """
    _require_step(p1_step)
    budget = budget_per_sensor * n_sensors
    _check_budget(budget)
    rows = []
    for regime in regimes:
        spec = ChatNetworkSpec.serial_max(n_sensors, 2, 0.0, 1.0, regime)
        _require_chat(spec)
        nochat = closed_form_max_nochat(n_sensors, budget, regime)
        # The largest prediction is checked before any allocation, which
        # a budget that makes it underflow would overflow.
        _require_positive(nochat, regime, "no-chat", budget)
        equal = [budget / n_sensors] * n_sensors
        if regime == FIXED_RATE:
            # Keep the asymptotic form so scenario 1 differs from 2 and 3
            # only through the allocation, not through finite-size effects.
            d1 = float(
                np.dot(fixed_rate_betas(spec), 2.0 ** (-2.0 * np.asarray(equal)))
            )
        else:
            d1 = predict(spec, equal).total
        d2 = allocate(spec, budget).predicted_distortion
        best_p1, d3 = optimize_partition(spec, budget, p1_step)
        scenarios = (
            ("no-chat", nochat),
            ("1-equal-rates", d1),
            ("2-allocation", d2),
            ("3-allocation+partition", d3),
        )
        for label, value in scenarios[1:]:
            _require_positive(value, regime, label, budget)
        for label, value in scenarios:
            rows.append(
                {
                    "regime": regime,
                    "scenario": label,
                    "fmse": value,
                    "improvement": nochat / value,
                    "p1": best_p1 if label.startswith("3") else 0.5,
                }
            )
    return rows


def optimize_partition(
    spec: ChatNetworkSpec, budget: float, step: float = 0.01
) -> tuple[float, float]:
    """Brute-force the one-bit partition boundary on the grid
    step, 2 step, ... below 1; the first best point wins a tie.  Raises
    ValueError unless 0 < step < 1, and for a network without chat."""
    _require_step(step)
    p1s = np.arange(step, 1.0, step)
    fmse = _partition_grid(spec, budget, p1s)
    best = int(np.argmin(fmse))
    return float(p1s[best]), float(fmse[best])


def allocation_report(
    n_sensors: int = 10,
    budget_per_sensor: float = 5.0,
    rc: int = 3,
    alpha_c: float = 0.0,
) -> list[dict]:
    """Optimal cost shares per link for both regimes, side by side.

    Fixed-rate shares are per sensor; entropy-constrained shares depend on
    the received message, except for sensor 1 which receives none.  The
    chat rate ``rc`` must be a nonnegative integer, as in
    ``ChatNetworkSpec.with_chat_rate``.
    """
    budget = budget_per_sensor * n_sensors
    rows = []
    for regime in (FIXED_RATE, ENTROPY_CONSTRAINED):
        spec = ChatNetworkSpec.serial_max(
            n_sensors, 1, alpha_c, 1.0, regime
        ).with_chat_rate(rc)
        alloc = allocate(spec, budget)
        for link, msg, alpha, b, rate in alloc.csv_rows():
            rows.append(
                {
                    "regime": regime,
                    "sensor": link,
                    "message": msg,
                    "alpha": alpha,
                    "b": b,
                    "rate": rate,
                }
            )
    return rows


def write_csv(
    path: str | Path,
    rows: Iterable[dict],
    params: dict | None = None,
) -> Path:
    """Write rows as CSV with '# key = value' parameter header lines."""
    path = Path(path)
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to write")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        for key, value in (params or {}).items():
            fh.write(f"# {key} = {value}\n")
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {
                    k: ("" if v is None else v)
                    for k, v in row.items()
                }
            )
    return path


def standard_figures(outdir: str | Path) -> list[Path]:
    """Emit the full set of study CSVs into ``outdir``.

    fig5a/b sweep the chat rate across network sizes, fig5c/d across
    chatting costs, fig6a/b sweep the one-bit partition boundary, fig7
    runs the scenario ladder, fig3 reports allocations.
    """
    outdir = Path(outdir)
    written = []

    rcs = (0, 1, 2, 3)
    for name, regime in (("fig5a", FIXED_RATE), ("fig5b", ENTROPY_CONSTRAINED)):
        rows = []
        for n in (2, 3, 4, 5):
            spec = ChatNetworkSpec.serial_max(n, 2, 0.01, 1.0, regime)
            for row in sweep_chatting_rate(spec, 4.0 * n, rcs):
                rows.append({"N": n, **row})
        written.append(
            write_csv(outdir / f"{name}.csv", rows, {"study": "fmse-vs-chat-rate", "C": "4N", "alpha_c": 0.01, "regime": regime})
        )

    for name, regime in (("fig5c", FIXED_RATE), ("fig5d", ENTROPY_CONSTRAINED)):
        rows = []
        for alpha_c in (0.0, 0.01, 0.1, 1.0):
            spec = ChatNetworkSpec.serial_max(4, 2, alpha_c, 1.0, regime)
            for row in sweep_chatting_rate(spec, 16.0, rcs):
                rows.append({"alpha_c": alpha_c, **row})
        written.append(
            write_csv(outdir / f"{name}.csv", rows, {"study": "fmse-vs-chat-rate", "N": 4, "C": 16, "regime": regime})
        )

    p1_grid = np.round(np.concatenate([[0.01], np.arange(0.05, 1.0, 0.05), [0.99]]), 2)
    for name, regime in (("fig6a", FIXED_RATE), ("fig6b", ENTROPY_CONSTRAINED)):
        rows = []
        for n in (2, 3, 5, 10):
            spec = ChatNetworkSpec.serial_max(n, 2, 0.0, 1.0, regime)
            for row in sweep_partition(spec, 4.0 * n, p1_grid):
                rows.append({"N": n, **row})
        written.append(
            write_csv(outdir / f"{name}.csv", rows, {"study": "fmse-ratio-vs-partition", "C": "4N", "Rc": 1, "alpha_c": 0.0, "regime": regime})
        )

    written.append(
        write_csv(
            outdir / "fig7.csv",
            run_scenarios(),
            {"study": "scenario-ladder", "N": 5, "C": 25, "Rc": 1, "alpha_c": 0.0},
        )
    )
    written.append(
        write_csv(
            outdir / "fig3.csv",
            allocation_report(),
            {"study": "allocation-report", "N": 10, "C": 50, "Rc": 3, "alpha_c": 0.0},
        )
    )
    return written
