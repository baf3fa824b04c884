"""What each benchmark workload sets up, runs and checks.

A workload has a set-up step (spec parsing, design, lazy tables) that
``run.py`` repeats to time it, and an iteration that ``run.py`` repeats
for the run length.  Each iteration returns its Monte Carlo legs and the
correctness gates it evaluated.  chatquant is reached through the
package's module attributes at call time, never through names bound
here, so the traced run sees every call the workload makes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import chatquant as cq

FR = "fixed-rate"
EC = "entropy-constrained"
PLUG_IN = "plug-in"
CE = "conditional-expectation"

# Reference scenario ladder at N=5, C=25, one-bit chat, p1 step 0.01:
# (fMSE, improvement over no chat) per (regime, scenario), with the
# optimal partition boundary per regime.  Copied from the frozen values
# of the package's scenario-ladder test at the seed commit.
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
LADDER_P1 = {FR: 0.52, EC: 0.70}
FMSE_REL = 1e-5
IMPROVEMENT_ABS = 1e-3
P1_ABS = 1e-6

BUDGET_ABS = 1e-9  # a fixed-rate allocation spends its budget to this
PRED_REL = 0.05  # fixed-rate plug-in legs vs the design prediction
CE_SIGMAS = 4.0  # CE may exceed plug-in by this many paired stderrs

# Run sizes.  ``tiny`` is for the smoke test only; with p1 step 0.02 the
# ladder's optimal boundaries 0.52 and 0.70 stay on the grid, so the
# reference gate still applies.
SIZES = {
    "full": {
        "study": {"p1_step": 0.01, "plugin_trials": 262_144, "ce_trials": 131_072},
        "mc-small-n": {"trials": 262_144, "entropy_trials": 1_000_000},
        "mc-large-n": {"n": 16, "budget": 64.0, "ce_trials": 131_072, "plugin_trials": 524_288},
    },
    "tiny": {
        "study": {"p1_step": 0.02, "plugin_trials": 65_536, "ce_trials": 16_384},
        "mc-small-n": {"trials": 65_536, "entropy_trials": 65_536},
        "mc-large-n": {"n": 8, "budget": 32.0, "ce_trials": 65_536, "plugin_trials": 131_072},
    },
}


@dataclass
class Leg:
    """One Monte Carlo run of a designed network."""

    label: str
    decoder: str
    workers: int
    trials: int
    seconds: float
    fmse: float
    stderr: float
    predicted: float
    regime: str

    @property
    def pred_gap(self) -> float:
        return abs(self.fmse / self.predicted - 1.0)

    def record(self) -> dict:
        return {
            "label": self.label,
            "decoder": self.decoder,
            "workers": self.workers,
            "trials": self.trials,
            "seconds": self.seconds,
            "trials_per_s": self.trials / self.seconds,
            "fmse": self.fmse,
            "stderr": self.stderr,
            "predicted": self.predicted,
            "regime": self.regime,
            "pred_gap": self.pred_gap,
        }


@dataclass
class Iteration:
    """Legs run and gates evaluated by one timed iteration."""

    wall_s: float = 0.0
    legs: list[Leg] = field(default_factory=list)
    gates: list[tuple[str, bool, str]] = field(default_factory=list)

    def gate(self, name: str, ok: bool, detail: str) -> None:
        self.gates.append((name, bool(ok), detail))

    def simulate(self, label: str, design, decoder: str, trials: int, seed: int,
                 workers: int = 1) -> Leg:
        t = time.perf_counter()
        res = cq.run_simulation(
            design.spec, design.banks, decoder, trials, seed,
            predicted=design.predicted.total, workers=workers,
        )
        leg = Leg(label, decoder, workers, trials, time.perf_counter() - t,
                  res.empirical_fmse, res.stderr, design.predicted.total,
                  design.spec.regime)
        self.legs.append(leg)
        return leg

    # -- gates ------------------------------------------------------------

    def gate_budget(self, label: str, spent: float, budget: float) -> None:
        self.gate(f"{label}: fixed-rate budget spent", abs(spent - budget) <= BUDGET_ABS,
                  f"spent {spent!r} of {budget!r}")

    def gate_design(self, label: str, design, budget: float) -> None:
        chat = sum(e.alpha * np.log2(e.size) for e in design.spec.graph.edges)
        self.gate_budget(label, design.allocation.budget(), budget - chat)

    def gate_prediction(self, leg: Leg) -> None:
        self.gate(f"{leg.label}: within {PRED_REL:.0%} of prediction",
                  leg.pred_gap <= PRED_REL,
                  f"empirical {leg.fmse:.6g} vs predicted {leg.predicted:.6g}")

    def gate_ce(self, ce: Leg, plug: Leg) -> None:
        se = float(np.hypot(ce.stderr, plug.stderr))
        self.gate(f"{ce.label}: CE <= plug-in + {CE_SIGMAS:g} stderr",
                  ce.fmse <= plug.fmse + CE_SIGMAS * se,
                  f"CE {ce.fmse:.6g}, plug-in {plug.fmse:.6g}, stderr {se:.3g}")


def _spec(root: Path, name: str):
    return cq.parse_spec_file((root / "specs" / name).read_text())


def _design(spec, budget: float):
    design = cq.design_network(spec, budget=budget)
    spec.source.cdf(0.5)  # builds the lazy CDF table the sampler uses
    return design


# -- study: design work, integration-bound ---------------------------------

STUDY_SPECS = (("max4_chat.txt", 16.0), ("max2_nochat.txt", 4.0), ("max5_entropy.txt", 25.0))


def study_setup(root: Path, size: dict) -> dict:
    specs = {name: _spec(root, name) for name, _budget in STUDY_SPECS}
    for spec in specs.values():
        spec.source.cdf(0.5)
    return specs


def study_iteration(state: dict, seed: int, size: dict, nproc: int) -> Iteration:
    it = Iteration()
    rows = cq.run_scenarios(5, 5.0, (FR, EC), size["p1_step"])
    by_key = {(r["regime"], r["scenario"]): r for r in rows}
    for key, (fmse, improvement) in SCENARIO_LADDER.items():
        row = by_key.get(key)
        name = f"ladder {key[0]} {key[1]}"
        if row is None:
            it.gate(name, False, "row missing")
            continue
        it.gate(f"{name} fmse", abs(row["fmse"] - fmse) <= max(FMSE_REL * fmse, 1e-12),
                f"{row['fmse']!r} vs {fmse!r}")
        it.gate(f"{name} improvement", abs(row["improvement"] - improvement) <= IMPROVEMENT_ABS,
                f"{row['improvement']!r} vs {improvement!r}")
    for regime, p1 in LADDER_P1.items():
        row = by_key.get((regime, "3-allocation+partition"), {})
        got = row.get("p1", float("nan"))
        it.gate(f"ladder {regime} best p1", abs(got - p1) <= P1_ABS, f"{got!r} vs {p1!r}")

    report = cq.allocation_report(10, 5.0, 3)
    it.gate_budget("allocation_report N=10", sum(r["b"] for r in report if r["regime"] == FR), 50.0)

    designs = {}
    for name, budget in STUDY_SPECS:
        designs[name] = d = cq.design_network(state[name], budget=budget)
        if d.spec.regime == FR:
            it.gate_design(name, d, budget)

    # Check the fixed-rate designs by simulation, as the design loop does.
    plug = it.simulate("max4_chat plug-in", designs["max4_chat.txt"], PLUG_IN,
                       size["plugin_trials"], seed)
    it.gate_prediction(plug)
    ce = it.simulate("max4_chat CE", designs["max4_chat.txt"], CE, size["ce_trials"], seed)
    it.gate_ce(ce, plug)
    it.gate_prediction(it.simulate("max2_nochat plug-in", designs["max2_nochat.txt"],
                                   PLUG_IN, size["plugin_trials"], seed))
    return it


# -- mc-small-n: simulator-bound at N=4 and N=5 ------------------------------


def small_setup(root: Path, size: dict) -> dict:
    return {
        "fixed": _design(_spec(root, "max4_chat.txt"), 16.0),
        "entropy": _design(_spec(root, "max5_entropy.txt"), 25.0),
    }


def small_iteration(state: dict, seed: int, size: dict, nproc: int) -> Iteration:
    it = Iteration()
    fixed, trials = state["fixed"], size["trials"]
    it.gate_design("max4_chat", fixed, 16.0)
    plug = it.simulate("max4_chat plug-in", fixed, PLUG_IN, trials, seed)
    it.gate_prediction(plug)
    solo = it.simulate("max4_chat CE workers=1", fixed, CE, trials, seed)
    it.gate_ce(solo, plug)
    pooled = it.simulate(f"max4_chat CE workers={nproc}", fixed, CE, trials, seed, nproc)
    it.gate_ce(pooled, plug)
    it.gate("CE bit-identical across workers",
            (solo.fmse, solo.stderr) == (pooled.fmse, pooled.stderr),
            f"workers=1 {solo.fmse!r}/{solo.stderr!r}, "
            f"workers={nproc} {pooled.fmse!r}/{pooled.stderr!r}")
    # Entropy-coded leg: its prediction gap is reported, not gated (known
    # defect, see NOTES.md).
    it.simulate("max5_entropy plug-in", state["entropy"], PLUG_IN, size["entropy_trials"], seed)
    return it


# -- mc-large-n: CE decode at N=16 -------------------------------------------


def large_setup(root: Path, size: dict) -> dict:
    spec = cq.ChatNetworkSpec.serial_max(size["n"], 2, 0.0, 1.0, FR)
    return {"fixed": _design(spec, size["budget"])}


def large_iteration(state: dict, seed: int, size: dict, nproc: int) -> Iteration:
    it = Iteration()
    fixed = state["fixed"]
    label = f"N={size['n']}"
    it.gate_design(label, fixed, size["budget"])
    ce = it.simulate(f"{label} CE", fixed, CE, size["ce_trials"], seed)
    plug = it.simulate(f"{label} plug-in", fixed, PLUG_IN, size["plugin_trials"], seed)
    it.gate_prediction(plug)
    it.gate_ce(ce, plug)
    return it


WORKLOADS = {
    "study": (study_setup, study_iteration),
    "mc-small-n": (small_setup, small_iteration),
    "mc-large-n": (large_setup, large_iteration),
}
