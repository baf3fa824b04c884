#!/usr/bin/env python3
"""chatquant benchmark: one workload in one fresh process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload study --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the run times the workload untraced and prints the
end-to-end metrics; with ``--trace 1`` it runs the workload once
untraced and once with every layer wrapped (see ``spans.py``) and prints
the per-layer metrics and the tracing overhead.  Either way the last
line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (correctness gates) and ``metrics``, and a
result record goes to ``perfbench/results/``.  The exit code is 0 when
every gate passed, 1 when one failed and 2 for a usage error or a
directory without the chatquant sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"

SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "plugin_trials_per_s": "1/s",
    "ce_trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: (name, unit, span name, field).  Fields are span
# aggregates from Tracer.summary, or "count"/"max" for the counters the
# wrappers keep.
PER_LAYER = (
    ("probcore.quad.calls", "count", "probcore.quad.calls", "count"),
    ("probcore.integrand.evals", "count", "probcore.integrand.evals", "count"),
    ("probcore.integrate_adaptive.self_s", "s", "probcore.integrate_adaptive", "self_s"),
    ("sensitivity.SensitivityProfile.__call__.calls", "count",
     "sensitivity.SensitivityProfile.__call__", "calls"),
    ("sensitivity.SensitivityProfile.__call__.self_s", "s",
     "sensitivity.SensitivityProfile.__call__", "self_s"),
    ("experiments.optimize_partition.calls", "count", "experiments.optimize_partition", "calls"),
    ("experiments.optimize_partition.s", "s", "experiments.optimize_partition", "s"),
    ("experiments.run_scenarios.s", "s", "experiments.run_scenarios", "s"),
    ("experiments.allocation_report.s", "s", "experiments.allocation_report", "s"),
    ("distortion.fixed_rate_betas.s", "s", "distortion.fixed_rate_betas", "s"),
    ("distortion.entropy_coding_tables.s", "s", "distortion.entropy_coding_tables", "s"),
    ("distortion.hr_fmse_fixed_rate_chat.s", "s", "distortion.hr_fmse_fixed_rate_chat", "s"),
    ("distortion.hr_fmse_entropy_chat.s", "s", "distortion.hr_fmse_entropy_chat", "s"),
    ("allocation.waterfill_kkt.calls", "count", "allocation.waterfill_kkt", "calls"),
    ("allocation.waterfill_kkt.s", "s", "allocation.waterfill_kkt", "s"),
    ("allocation.probabilistic_allocation.calls", "count",
     "allocation.probabilistic_allocation", "calls"),
    ("allocation.probabilistic_allocation.s", "s", "allocation.probabilistic_allocation", "s"),
    ("allocation.entropy_allocation.calls", "count", "allocation.entropy_allocation", "calls"),
    ("allocation.entropy_allocation.s", "s", "allocation.entropy_allocation", "s"),
    ("chatnet.design_network.s", "s", "chatnet.design_network", "s"),
    ("chatnet.build_banks.s", "s", "chatnet.build_banks", "s"),
    ("chatnet.out_message_table.s", "s", "chatnet.out_message_table", "s"),
    ("quantizer.build_fixed_rate_quantizer.calls", "count",
     "quantizer.build_fixed_rate_quantizer", "calls"),
    ("quantizer.build_fixed_rate_quantizer.s", "s", "quantizer.build_fixed_rate_quantizer", "s"),
    ("probcore.Pdf.sample.s", "s", "probcore.Pdf.sample", "s"),
    ("probcore.Pdf.sample.draws", "count", "probcore.Pdf.sample.draws", "count"),
    ("quantizer.Quantizer.quantize.calls", "count", "quantizer.Quantizer.quantize", "calls"),
    ("quantizer.Quantizer.quantize.s", "s", "quantizer.Quantizer.quantize", "s"),
    ("simulator.run_simulation.self_s", "s", "simulator.run_simulation", "self_s"),
    ("simulator.decode.plug-in.s", "s", "simulator.decode.plug-in", "s"),
    ("simulator.decode.conditional-expectation.s", "s",
     "simulator.decode.conditional-expectation", "s"),
    ("simulator.decode.ce_bytes_per_chunk", "bytes", "simulator.decode.ce_bytes_per_chunk", "max"),
    ("trace.overhead_s", "s", None, None),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("study", "mc-small-n", "mc-large-n"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return p.parse_args(argv)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "chatquant").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def fresh_import_s() -> float:
    """Seconds for a fresh interpreter to start and import chatquant."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t = time.perf_counter()
    # No timeout: waiting with one polls in steps of up to 50 ms.
    subprocess.run([sys.executable, "-c", "import chatquant"], env=env, check=True)
    return time.perf_counter() - t


def median(values):
    return float(statistics.median(values))


def timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t


def leg_rates(iteration) -> tuple[float, float]:
    """Plug-in and workers=1 CE throughput of one iteration, trials/s."""
    plug = [leg for leg in iteration.legs if leg.decoder == "plug-in"]
    ce = [leg for leg in iteration.legs if leg.decoder != "plug-in" and leg.workers == 1]
    def rate(legs):
        return sum(leg.trials for leg in legs) / sum(leg.seconds for leg in legs)

    return rate(plug), rate(ce)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "chatquant" / "__init__.py").is_file() or not (ROOT / "specs").is_dir():
        print(f"error: no chatquant sources under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2
    # Keep the process within nproc threads: the simulator's pool is the
    # only parallelism measured, so BLAS pools stay single-threaded.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))

    import numpy
    import scipy

    import workloads
    from spans import Tracer, install, span_cost

    size = workloads.SIZES["tiny" if args.tiny else "full"][args.workload]
    setup, iterate = workloads.WORKLOADS[args.workload]
    cores = nproc()

    iterations = []
    setup_times = []
    if args.trace == 0:
        # Each set-up sample is a fresh interpreter's import plus one
        # in-process set-up, so the median covers the whole cold start.
        for _ in range(SETUP_REPEATS):
            state, s = timed(setup, ROOT, size)
            setup_times.append(fresh_import_s() + s)
        start = time.perf_counter()
        while True:
            it, it.wall_s = timed(iterate, state, args.seed, size, cores)
            iterations.append(it)
            if time.perf_counter() - start >= args.seconds:
                break
        rates = [leg_rates(it) for it in iterations]
        metrics = {
            "setup_s": median(setup_times),
            "wall_s": median(it.wall_s for it in iterations),
            "plugin_trials_per_s": median(r[0] for r in rates),
            "ce_trials_per_s": median(r[1] for r in rates),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END_UNITS
    else:
        state, s = timed(setup, ROOT, size)
        setup_times.append(s)
        plain, plain.wall_s = timed(iterate, state, args.seed, size, cores)

        tracer = Tracer()
        install(tracer)
        try:
            state, s = timed(setup, ROOT, size)
            setup_times.append(s)
            traced, traced.wall_s = timed(iterate, state, args.seed, size, cores)
        finally:
            tracer.restore()
        iterations = [plain, traced]
        # The measured difference carries the machine's drift; the span
        # count times one span's cost is a steadier estimate.
        overhead = {
            "wall_s": traced.wall_s - plain.wall_s,
            "wall_frac": traced.wall_s / plain.wall_s - 1.0,
            "setup_s": setup_times[1] - setup_times[0],
            "spans": len(tracer.start),
            "per_span_s": span_cost(),
        }
        overhead["estimated_s"] = overhead["spans"] * overhead["per_span_s"]
        summary = tracer.summary()
        metrics, units = {}, {}
        for name, unit, key, fld in PER_LAYER:
            if key is None:
                value = overhead["wall_s"]
            elif fld == "count":
                value = tracer.counters.get(key, 0)
            elif fld == "max":
                value = tracer.maxima.get(key, 0)
            else:
                value = summary.get(key, {}).get(fld, 0)
            metrics[name] = value
            units[name] = unit

    gates = [g for it in iterations for g in it.gates]
    failed = [g for g in gates if not g[1]]
    stamp = time.strftime("%Y%m%dT%H%M%S")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT),
        "sizes": size,
        "setup_times_s": setup_times,
        "iterations": [
            {"traced": bool(args.trace and i == 1), "wall_s": it.wall_s,
             "legs": [leg.record() for leg in it.legs]}
            for i, it in enumerate(iterations)
        ],
        "pred_gap": max(
            (leg.pred_gap for it in iterations for leg in it.legs if leg.decoder == "plug-in"),
            default=None,
        ),
        "pred_gap_fixed_rate": max(
            (leg.pred_gap for it in iterations for leg in it.legs
             if leg.decoder == "plug-in" and leg.regime == "fixed-rate"),
            default=None,
        ),
        "failed_frac": len(failed) / len(gates),
        "gates": [{"name": n, "ok": ok, "detail": d} for n, ok, d in gates],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if args.trace:
        record["trace_overhead"] = overhead
        record["spans"] = summary
        record["span_file"] = f"{tag}-spans.npz"
        record["notes"] = {
            "simulator.decode.ce_bytes_per_chunk": "computed from array shapes, "
            "trials x (2N-1) x nodes x 8, not measured",
        }

    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        tracer.dump(RESULTS / record["span_file"])
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1))

    for it_no, it in enumerate(iterations):
        for leg in it.legs:
            print(f"iter {it_no} {leg.label}: {leg.trials} trials in {leg.seconds:.3f} s, "
                  f"fmse {leg.fmse:.6g} +- {leg.stderr:.2g}, predicted {leg.predicted:.6g}, "
                  f"gap {leg.pred_gap:.4f}")
    for name, _ok, detail in failed:
        print(f"GATE FAILED {name}: {detail}")
    print(f"gates {len(gates) - len(failed)}/{len(gates)} passed, "
          f"failed_frac {record['failed_frac']:g}, pred_gap {record['pred_gap']}")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(gates),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
