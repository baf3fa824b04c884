"""Scripted studies over the serial max network.

Each function returns plain row dicts and can serialize them to CSV with
a parameter header, one file per study.  Nothing here plots; the CSVs
are the deliverable.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .allocation import (
    InfeasibleBudgetError,
    _check_budget,
    _fusion_budget,
    _grid_distortions,
    allocate,
)
from .chatnet import ChatNetworkSpec, design_network
from .distortion import (
    ENTROPY_CONSTRAINED,
    FIXED_RATE,
    _chat_constants,
    closed_form_max_nochat,
    fixed_rate_betas,
    predict,
)
from .simulator import CONDITIONAL_EXPECTATION, run_simulation

__all__ = [
    "SweepSpec",
    "allocation_report",
    "run_scenarios",
    "standard_figures",
    "sweep_chatting_rate",
    "sweep_partition",
    "write_csv",
]


@dataclass(frozen=True)
class SweepSpec:
    """A family of serial max networks with one swept variable.

    ``variable`` names the swept axis, the chat rate "Rc" or the one-bit
    partition boundary "p1", and ``values`` its points; the remaining
    fields stay fixed across the family, and the budget is
    budget_per_sensor * N.
    """

    variable: str
    values: tuple
    n_sensors: int = 4
    budget_per_sensor: float = 4.0
    alpha_c: float = 0.01
    fusion_alpha: float = 1.0
    regime: str = FIXED_RATE

    def __post_init__(self) -> None:
        if self.variable not in ("Rc", "p1"):
            raise ValueError(f"unknown sweep variable {self.variable!r}")
        if self.n_sensors < 1:
            raise ValueError("need at least one sensor")
        if not np.isfinite(self.budget_per_sensor):
            raise ValueError("the budget must be finite")
        if not self.values:
            raise ValueError("sweep needs at least one value")
        if self.variable == "p1" and not all(0 < v < 1 for v in self.values):
            raise ValueError("partition boundaries must be inside (0, 1)")
        if self.variable == "Rc" and not all(
            np.isfinite(v) and int(v) == v and v >= 0 for v in self.values
        ):
            raise ValueError("chat rates must be nonnegative integers")

    @property
    def budget(self) -> float:
        return self.budget_per_sensor * self.n_sensors

    def params(self) -> dict:
        return {
            "variable": self.variable,
            "N": self.n_sensors,
            "C": self.budget,
            "alpha_c": self.alpha_c,
            "alpha_n": self.fusion_alpha,
            "regime": self.regime,
        }


def sweep_chatting_rate(
    sweep: SweepSpec,
    simulate: bool = False,
    trials: int = 100_000,
    seed: int = 0,
    decoder: str = CONDITIONAL_EXPECTATION,
) -> list[dict]:
    """Predicted (and optionally simulated) fMSE against the chat rate.

    Every chat edge is charged alpha_c per bit; the rest of the budget is
    allocated optimally across fusion links.  Rows where chatting alone
    exhausts the budget are kept and flagged infeasible; a budget that is
    not positive raises InfeasibleBudgetError before any row.  Simulation
    designs real integer-size codebooks under the same budget, so its
    predicted column can differ slightly from the continuous-rate one.
    """
    if sweep.variable != "Rc":
        raise ValueError("sweep_chatting_rate expects a chat-rate sweep")
    _check_budget(sweep.budget)
    rows = []
    for rc in sweep.values:
        rc = int(rc)
        spec = ChatNetworkSpec.serial_max(
            sweep.n_sensors,
            2**rc,
            sweep.alpha_c,
            sweep.fusion_alpha,
            sweep.regime,
        )
        try:
            alloc = allocate(spec, sweep.budget)
        except InfeasibleBudgetError:
            alloc = None
        row = {
            "Rc": rc,
            "feasible": alloc is not None,
            "predicted_fmse": None if alloc is None else alloc.predicted_distortion,
            "empirical_fmse": None,
            "stderr": None,
        }
        if alloc is not None and simulate and sweep.regime == FIXED_RATE:
            design = design_network(spec, budget=sweep.budget)
            sim = run_simulation(
                spec,
                design.banks,
                decoder,
                trials,
                seed,
                predicted=design.predicted.total,
            )
            row["empirical_fmse"] = sim.empirical_fmse
            row["stderr"] = sim.stderr
            row["predicted_fmse"] = design.predicted.total
        rows.append(row)
    return rows


def sweep_partition(sweep: SweepSpec) -> list[dict]:
    """fMSE ratio against the no-chat baseline as the single one-bit
    partition boundary moves.

    Chatting is free here (the cost model of the study) and the chat rate
    is one bit, so the network differs from the no-chat one only through
    the conditional sensitivities.  Ratios above 1 mean chatting hurts.
    """
    if sweep.variable != "p1":
        raise ValueError("sweep_partition expects a p1 sweep")
    base = ChatNetworkSpec.serial_max(
        sweep.n_sensors, 2, 0.0, sweep.fusion_alpha, sweep.regime
    )
    _check_budget(sweep.budget)
    nochat = closed_form_max_nochat(sweep.n_sensors, sweep.budget, sweep.regime)
    p1s = np.array([float(p1) for p1 in sweep.values])
    return [
        {
            "p1": float(p1),
            "predicted_fmse": float(d),
            "nochat_fmse": nochat,
            "ratio": float(d) / nochat,
        }
        for p1, d in zip(p1s, _partition_grid(base, sweep.budget, p1s))
    ]


def _partition_grid(
    spec: ChatNetworkSpec, budget: float, p1s: np.ndarray
) -> np.ndarray:
    """Predicted fMSE of ``allocate(spec.with_partition((0, p1, 1)), budget)``
    at every p1 in ``p1s``.

    The constants of every grid point come from one integration pass and
    their water levels from one water-fill of (G, L) arrays.
    """
    one_bit = spec.with_partition((0.0, 0.5, 1.0))
    remaining = _fusion_budget(one_bit, budget)
    grid = np.column_stack([np.zeros_like(p1s), p1s, np.ones_like(p1s)])
    consts = _chat_constants(one_bit, one_bit.regime, grid)
    return _grid_distortions(one_bit, remaining, consts)


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
    (chatting itself is free).  Raises ValueError unless 0 < p1_step < 1.
    """
    _require_step(p1_step)
    budget = budget_per_sensor * n_sensors
    _check_budget(budget)
    rows = []
    for regime in regimes:
        spec = ChatNetworkSpec.serial_max(n_sensors, 2, 0.0, 1.0, regime)
        nochat = closed_form_max_nochat(n_sensors, budget, regime)
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
        for label, value in (
            ("no-chat", nochat),
            ("1-equal-rates", d1),
            ("2-allocation", d2),
            ("3-allocation+partition", d3),
        ):
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
    ValueError unless 0 < step < 1."""
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


def standard_figures(
    outdir: str | Path,
    simulate: bool = False,
    trials: int = 100_000,
    seed: int = 0,
) -> list[Path]:
    """Emit the full set of study CSVs into ``outdir``.

    fig5a/b sweep the chat rate across network sizes, fig5c/d across
    chatting costs, fig6a/b sweep the one-bit partition boundary, fig7
    runs the scenario ladder, fig3 reports allocations.
    """
    outdir = Path(outdir)
    written = []

    for name, regime in (("fig5a", FIXED_RATE), ("fig5b", ENTROPY_CONSTRAINED)):
        rows = []
        for n in (2, 3, 4, 5):
            sweep = SweepSpec(
                "Rc", (0, 1, 2, 3), n, 4.0, 0.01, 1.0, regime
            )
            for row in sweep_chatting_rate(
                sweep, simulate=simulate and regime == FIXED_RATE, trials=trials, seed=seed
            ):
                rows.append({"N": n, **row})
        written.append(
            write_csv(outdir / f"{name}.csv", rows, {"study": "fmse-vs-chat-rate", "C": "4N", "alpha_c": 0.01, "regime": regime})
        )

    for name, regime in (("fig5c", FIXED_RATE), ("fig5d", ENTROPY_CONSTRAINED)):
        rows = []
        for alpha_c in (0.0, 0.01, 0.1, 1.0):
            sweep = SweepSpec("Rc", (0, 1, 2, 3), 4, 4.0, alpha_c, 1.0, regime)
            for row in sweep_chatting_rate(
                sweep, simulate=simulate and regime == FIXED_RATE, trials=trials, seed=seed
            ):
                rows.append({"alpha_c": alpha_c, **row})
        written.append(
            write_csv(outdir / f"{name}.csv", rows, {"study": "fmse-vs-chat-rate", "N": 4, "C": 16, "regime": regime})
        )

    p1_grid = tuple(np.round(np.concatenate([[0.01], np.arange(0.05, 1.0, 0.05), [0.99]]), 2))
    for name, regime in (("fig6a", FIXED_RATE), ("fig6b", ENTROPY_CONSTRAINED)):
        rows = []
        for n in (2, 3, 5, 10):
            sweep = SweepSpec("p1", p1_grid, n, 4.0, 0.0, 1.0, regime)
            for row in sweep_partition(sweep):
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
