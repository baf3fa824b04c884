"""Command line front end.

Subcommands cover the whole pipeline: parse a network description and
print its hash, allocate rates, predict distortion, design codebooks,
simulate, and run the scripted sweeps.  Exit status is 0 on success, 1
for an infeasible budget or rate or another bad number, and 2 for usage
errors, including malformed spec files and specs whose chat is not the
serial chain, which fail at parse before any work.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .allocation import InfeasibleBudgetError, allocate
from .chatnet import (
    ChatNetworkSpec,
    SpecFormatError,
    design_network,
    parse_spec_file,
)
from .distortion import (
    ENTROPY_CONSTRAINED,
    FIXED_RATE,
    InfeasibleRateError,
    predict,
)
from .experiments import (
    run_scenarios,
    sweep_chatting_rate,
    sweep_partition,
    write_csv,
)
from .simulator import CHUNK, CONDITIONAL_EXPECTATION, PLUG_IN, run_simulation

__all__ = ["main"]


def _add_network_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", type=Path, help="network description file")
    p.add_argument("-N", "--sensors", type=int, help="sensor count (serial max chain)")
    p.add_argument("--chat-rate", type=int, help="bits per chat message")
    p.add_argument("--alpha-c", type=float, help="cost per chat bit")
    p.add_argument("--fusion-alpha", type=float, help="cost per fusion bit")
    p.add_argument(
        "--regime",
        choices=(FIXED_RATE, ENTROPY_CONSTRAINED),
        help="rate accounting regime",
    )
    p.add_argument("--p1", type=float, help="one-bit partition boundary")


def _build_spec(args: argparse.Namespace) -> ChatNetworkSpec:
    """Assemble the network from a spec file, flags, or both.

    Flags win over file values; without a file, --sensors starts a serial
    max chain with uniform chat cells.
    """
    if args.spec is not None:
        spec = parse_spec_file(args.spec.read_text())
        if args.alpha_c is not None:
            spec = replace(spec, chat_alphas=(args.alpha_c,) * len(spec.chat_alphas))
        if args.fusion_alpha is not None:
            spec = replace(spec, fusion_alphas=(args.fusion_alpha,) * spec.n_sensors)
    else:
        if args.sensors is None:
            raise SpecFormatError(0, "N", "give --spec or --sensors")
        spec = ChatNetworkSpec.serial_max(
            args.sensors,
            2,
            0.0 if args.alpha_c is None else args.alpha_c,
            1.0 if args.fusion_alpha is None else args.fusion_alpha,
        )
    if args.chat_rate is not None:
        spec = spec.with_chat_rate(args.chat_rate)
    if args.regime is not None:
        spec = spec.with_regime(args.regime)
    if args.p1 is not None:
        spec = spec.with_partition((0.0, args.p1, 1.0))
    return spec


def _parse_rates(raw: str) -> list:
    """Rates as 'r1,r2,...' per sensor; 'a/b/c' splits one sensor by message."""
    rates = []
    for part in raw.split(","):
        if "/" in part:
            rates.append([float(v) for v in part.split("/")])
        else:
            rates.append(float(part))
    return rates


def _sensor_budget(args) -> float:
    """--budget split over -N sensors; ValueError for fewer than one."""
    if args.sensors < 1:
        raise ValueError("need at least one sensor")
    return args.budget / args.sensors


def _cmd_validate(args) -> int:
    spec = _build_spec(args)
    print(f"ok: {spec.n_sensors} sensors, hash {spec.spec_hash()}")
    return 0


def _cmd_allocate(args) -> int:
    spec = _build_spec(args)
    alloc = allocate(spec, args.budget)
    rows = [
        {"sensor": link, "message": msg, "alpha": alpha, "b": b, "rate": rate}
        for link, msg, alpha, b, rate in alloc.csv_rows()
    ]
    if args.out:
        write_csv(args.out, rows, {"C": args.budget, "regime": spec.regime})
    else:
        for r in rows:
            msg = "-" if r["message"] < 0 else r["message"]
            print(
                f"sensor {r['sensor']} message {msg}: "
                f"rate {r['rate']:.4f} (cost {r['b']:.4f})"
            )
    print(f"predicted fMSE {alloc.predicted_distortion:.6e}")
    return 0


def _cmd_predict(args) -> int:
    spec = _build_spec(args)
    if (args.budget is None) == (args.rates is None):
        raise SpecFormatError(0, "rates", "give exactly one of --budget, --rates")
    if args.budget is not None:
        alloc = allocate(spec, args.budget)
        print(f"predicted fMSE {alloc.predicted_distortion:.6e}")
        return 0
    report = predict(spec, _parse_rates(args.rates))
    for n, term in enumerate(report.per_sensor_terms, start=1):
        print(f"sensor {n}: {term:.6e}")
    print(f"predicted fMSE {report.total:.6e}")
    if args.out:
        write_csv(
            args.out,
            [
                {"sensor": n, "message": k, "term": t}
                for n, k, t in report.csv_rows()
            ],
            {"regime": spec.regime},
        )
    return 0


def _cmd_design(args) -> int:
    spec = _build_spec(args)
    rates = None if args.rates is None else _parse_rates(args.rates)
    design = design_network(spec, args.budget, rates)
    for n, row in enumerate(design.banks.sizes, start=1):
        sizes = tuple(row[row > 0].tolist())
        print(f"sensor {n}: sizes {sizes[0] if spec.regime == FIXED_RATE else sizes}")
    print(f"predicted fMSE {design.predicted.total:.6e}")
    if args.banks_dir:
        outdir = Path(args.banks_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for n, k in design.banks.rows():
            (outdir / f"sensor{n}_msg{k}.txt").write_text(design.banks.codebook(n, k).to_text())
        print(f"banks written to {outdir}")
    return 0


def _cmd_simulate(args) -> int:
    spec = _build_spec(args)
    rates = None if args.rates is None else _parse_rates(args.rates)
    design = design_network(spec, args.budget, rates)
    result = run_simulation(
        spec,
        design.banks,
        args.decoder,
        args.trials,
        args.seed,
        predicted=design.predicted.total,
        workers=args.workers,
    )
    print(f"trials {result.trials}")
    print(f"empirical fMSE {result.empirical_fmse:.6e} (stderr {result.stderr:.2e})")
    print(f"predicted fMSE {result.predicted_fmse:.6e}")
    rates_str = " ".join(f"{r:.3f}" for r in np.atleast_1d(result.empirical_rates))
    print(f"spent rates {rates_str}")
    if args.out:
        header = ["spec_hash", "regime", "Rc", "C", "N", "fmse", "stderr", "predicted"]
        rc = float(np.log2(len(spec.partition) - 1)) if spec.chat_alphas else None
        row = result.csv_row(spec.n_sensors, rc, args.budget)
        write_csv(args.out, [dict(zip(header, row))], {})
    return 0


def _sweep_network(args, variable: str, alpha_c: float) -> tuple[ChatNetworkSpec, dict]:
    """The serial max chain a sweep command runs on, and its CSV header."""
    alpha_n = 1.0 if args.fusion_alpha is None else args.fusion_alpha
    regime = args.regime or FIXED_RATE
    spec = ChatNetworkSpec.serial_max(args.sensors, 2, alpha_c, alpha_n, regime)
    params = {
        "variable": variable,
        "N": args.sensors,
        "C": args.budget,
        "alpha_c": alpha_c,
        "alpha_n": alpha_n,
        "regime": regime,
    }
    return spec, params


def _cmd_sweep_rc(args) -> int:
    alpha_c = 0.0 if args.alpha_c is None else args.alpha_c
    spec, params = _sweep_network(args, "Rc", alpha_c)
    rows = sweep_chatting_rate(spec, args.budget, range(args.rc_max + 1))
    if args.out:
        write_csv(args.out, rows, params)
    else:
        for r in rows:
            if not r["feasible"]:
                print(f"Rc {r['Rc']}: infeasible")
            else:
                print(f"Rc {r['Rc']}: predicted {r['predicted_fmse']:.6e}")
    return 0


def _cmd_sweep_p1(args) -> int:
    if not (math.isfinite(args.step) and 0.0 < args.step < 1.0):
        raise ValueError(f"--step must be inside (0, 1), got {args.step}")
    spec, params = _sweep_network(args, "p1", 0.0)
    grid = np.round(np.arange(args.step, 1.0, args.step), 10)
    rows = sweep_partition(spec, args.budget, grid)
    if args.out:
        write_csv(args.out, rows, params)
    else:
        for r in rows:
            print(f"p1 {r['p1']:.2f}: ratio {r['ratio']:.4f}")
    return 0


def _cmd_scenarios(args) -> int:
    rows = run_scenarios(args.sensors, _sensor_budget(args))
    if args.out:
        write_csv(args.out, rows, {"N": args.sensors, "C": args.budget})
    else:
        for r in rows:
            print(
                f"{r['regime']:>19} {r['scenario']:<23} "
                f"fMSE {r['fmse']:.6e} improvement {r['improvement']:.4f}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chatquant",
        description="design and simulate chatting quantizer networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a spec and print its hash")
    _add_network_flags(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("allocate", help="optimal rate allocation for a budget")
    _add_network_flags(p)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--out", type=Path)
    p.set_defaults(fn=_cmd_allocate)

    p = sub.add_parser("predict", help="high-resolution distortion prediction")
    _add_network_flags(p)
    p.add_argument("--budget", type=float)
    p.add_argument("--rates", help="per-sensor rates r1,r2,..., messages split by /")
    p.add_argument("--out", type=Path)
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("design", help="build integer-size quantizer banks")
    _add_network_flags(p)
    p.add_argument("--budget", type=float)
    p.add_argument("--rates")
    p.add_argument("--banks-dir", type=Path, help="dump quantizers as text files")
    p.set_defaults(fn=_cmd_design)

    p = sub.add_parser("simulate", help="Monte Carlo fMSE of a designed network")
    _add_network_flags(p)
    p.add_argument("--budget", type=float)
    p.add_argument("--rates")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="simulation workers, the calling thread included; capped at "
        f"the number of {CHUNK:,}-trial chunks",
    )
    p.add_argument(
        "--decoder",
        choices=(PLUG_IN, CONDITIONAL_EXPECTATION),
        default=CONDITIONAL_EXPECTATION,
    )
    p.add_argument("--out", type=Path)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("sweep-rc", help="predicted distortion against the chat rate")
    p.add_argument("-N", "--sensors", type=int, required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--rc-max", type=int, default=3)
    p.add_argument("--alpha-c", type=float)
    p.add_argument("--fusion-alpha", type=float)
    p.add_argument("--regime", choices=(FIXED_RATE, ENTROPY_CONSTRAINED))
    p.add_argument("--out", type=Path)
    p.set_defaults(fn=_cmd_sweep_rc)

    p = sub.add_parser("sweep-p1", help="distortion against the partition boundary")
    p.add_argument("-N", "--sensors", type=int, required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--fusion-alpha", type=float)
    p.add_argument("--regime", choices=(FIXED_RATE, ENTROPY_CONSTRAINED))
    p.add_argument("--out", type=Path)
    p.set_defaults(fn=_cmd_sweep_p1)

    p = sub.add_parser("scenarios", help="improvement ladder at a fixed budget")
    p.add_argument("-N", "--sensors", type=int, default=5)
    p.add_argument("--budget", type=float, default=25.0)
    p.add_argument("--out", type=Path)
    p.set_defaults(fn=_cmd_scenarios)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SpecFormatError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleBudgetError, InfeasibleRateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
