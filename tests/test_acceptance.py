"""End-to-end acceptance checklist.

One test per criterion, each printing a single PASS/FAIL summary line to
the real terminal (past pytest's capture) so a full run reads as a
checklist.  The line is printed before the asserts fire, so a failing
criterion still reports itself.

Criterion 7's endpoint clause checks that a degenerate one-bit partition
reduces to the no-chat network.  Fixed-rate coding is checked at p1 in
{0.01, 0.99}.  Entropy coding is checked along p1 = 10^-k and 1 - 10^-k,
k = 2, 3, 4, because p1 in {0.01, 0.99} is not yet the limit there:

- p1 bounds the running max M of the sensors before sensor n, so
  P(M >= 0.99) = 1 - 0.99^(n-1) is 8.6% at n = 10.  On that message all of
  [0, 0.99] is don't-care for sensor n, entropy coding moves its rate to
  the other message, and chat beats no chat by 22% (ratio 0.781, N = 10).
- The gate over the don't-care zone [0, p1] gives up the high-resolution
  credit that E[log2 gamma^2] earns where gamma^2 = x^(N-1) -> 0, about
  (N-1) p1 (log2(1/p1) + 1/ln 2) bits: 0.73 bits and ratio 1.481 at N = 10,
  p1 = 0.01.  The loss and the gate bits both vanish as p1 -> 0.
"""

import time

import numpy as np
import pytest

from chatquant.allocation import waterfill_kkt
from chatquant.chatnet import (
    ChatNetworkSpec,
    SpecFormatError,
    design_network,
    parse_spec_file,
)
from chatquant.distortion import FIXED_RATE, ENTROPY_CONSTRAINED, closed_form_max_nochat
from chatquant.experiments import (
    SweepSpec,
    run_scenarios,
    sweep_chatting_rate,
    sweep_partition,
)
from chatquant.probcore import REL_TOL
from chatquant.quantizer import PointDensity, build_fixed_rate_quantizer
from chatquant.sensitivity import (
    max_conditional_sensitivity,
    serial_max_message_distribution,
)
from chatquant.simulator import PLUG_IN, _Encoder, replay_codebooks, run_simulation

from oracles import (
    bisection_waterfill,
    conditional_max_sampler,
    dp_allocation_oracle,
    lemma_allocation,
    max_partial,
    sensitivity_monte_carlo,
)

TRIALS = 1_000_000


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'}  {detail}")


def test_criterion_1_uniform_mse_baseline(capsys):
    """8-bit uniform quantizer on U(0,1): MSE within 1% of 2^-16/12."""
    t0 = time.time()
    spec = parse_spec_file("N = 1\n")
    q = build_fixed_rate_quantizer(PointDensity.uniform(), 256)
    res = run_simulation(spec, {1: {1: q}}, PLUG_IN, TRIALS, 0)
    expected = 2.0**-16 / 12.0
    rel = abs(res.empirical_fmse - expected) / expected
    elapsed = time.time() - t0
    report(
        capsys, 1, rel <= 0.01 and elapsed < 10.0,
        f"MSE {res.empirical_fmse:.6e} vs {expected:.6e} ({100 * rel:.2f}%, "
        f"{elapsed:.1f}s)",
    )
    assert rel <= 0.01
    assert elapsed < 10.0


def test_criterion_2_max_network_no_chat(capsys):
    """N=4 max network without chatting at 4 bits/sensor: empirical fMSE
    within 5% of the equal-rate closed form."""
    t0 = time.time()
    spec = ChatNetworkSpec.serial_max(4, 1)
    design = design_network(spec, rates=[4.0] * 4)
    res = run_simulation(spec, design.banks, PLUG_IN, TRIALS, 0)
    expected = closed_form_max_nochat(4, 16.0, FIXED_RATE)
    rel = abs(res.empirical_fmse - expected) / expected
    elapsed = time.time() - t0
    report(
        capsys, 2, rel <= 0.05 and elapsed < 60.0,
        f"fMSE {res.empirical_fmse:.6e} vs {expected:.6e} ({100 * rel:.2f}%, "
        f"{elapsed:.1f}s)",
    )
    assert rel <= 0.05
    assert elapsed < 60.0


def test_criterion_3_chatting_fixed_rate(capsys):
    """Chat-rate sweep at N=4, C=16, alpha_c=0.01: every simulated point
    within 5% of its prediction, and the free-chat curve strictly falls."""
    t0 = time.time()
    sweep = SweepSpec("Rc", (0, 1, 2, 3), 4, 4.0, 0.01, 1.0, FIXED_RATE)
    rows = sweep_chatting_rate(
        sweep, simulate=True, trials=TRIALS, seed=0, decoder=PLUG_IN
    )
    rels = [
        abs(r["empirical_fmse"] - r["predicted_fmse"]) / r["predicted_fmse"]
        for r in rows
    ]
    free = sweep_chatting_rate(SweepSpec("Rc", (0, 1, 2, 3), 4, 4.0, 0.0, 1.0, FIXED_RATE))
    pred = [r["predicted_fmse"] for r in free]
    decreasing = bool(np.all(np.diff(pred) < 0))
    elapsed = time.time() - t0
    ok = max(rels) <= 0.05 and decreasing and elapsed < 300.0
    report(
        capsys, 3, ok,
        f"worst point off by {100 * max(rels):.2f}%, free-chat curve "
        f"{'decreasing' if decreasing else 'NOT decreasing'} ({elapsed:.1f}s)",
    )
    assert all(r["feasible"] for r in rows)
    assert max(rels) <= 0.05
    assert decreasing
    assert elapsed < 300.0


def test_criterion_4_allocation_oracles(capsys):
    """Water-filling vs a 0.01-grid dynamic program on 100 random
    instances, plus the 200-step bisection of the water level and the
    interior closed form, both also on ragged (link, message) instances
    flattened with message-probability weights."""
    t0 = time.time()
    rng = np.random.default_rng(42)
    worst_gap = -np.inf
    worst_bisect = 0.0
    worst_cf = 0.0
    interior = 0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        betas = 10.0 ** rng.uniform(-2.0, 0.0, n)
        alphas = 10.0 ** rng.uniform(-0.5, 0.5, n)
        budget = float(rng.uniform(0.5, 2.0 * n))
        wf = waterfill_kkt(betas, alphas, budget)
        dp = dp_allocation_oracle(betas, alphas, budget)
        worst_gap = max(worst_gap, wf.predicted_distortion - dp)
        bisected = bisection_waterfill(betas, alphas, budget)
        worst_bisect = max(worst_bisect, float(np.max(np.abs(bisected - wf.b))))
        cf = lemma_allocation(betas, alphas, budget)
        if np.any(cf <= 0):
            continue
        interior += 1
        worst_cf = max(worst_cf, float(np.max(np.abs(cf - wf.b))))

    # Ragged (link, message) instances, flattened with the message
    # probabilities as weights.
    worst_flat = 0.0
    worst_flat_cf = 0.0
    flat_interior = 0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        betas, alphas, probs = [], [], []
        for _ in range(n):
            m = int(rng.integers(1, 4))
            betas.extend(10.0 ** rng.uniform(-2.0, 0.0, m))
            alphas.extend(10.0 ** rng.uniform(-0.5, 0.5, m))
            p = rng.random(m) + 0.1
            probs.extend(p / p.sum())
        budget = float(rng.uniform(1.0, 2.0 * n))
        flat = waterfill_kkt(betas, alphas, budget, weights=probs)
        bisected = bisection_waterfill(betas, alphas, budget, probs)
        worst_flat = max(worst_flat, float(np.max(np.abs(bisected - flat.b))))
        cf = lemma_allocation(betas, alphas, budget, probs)
        if np.any(cf <= 0):
            continue
        flat_interior += 1
        worst_flat_cf = max(worst_flat_cf, float(np.max(np.abs(cf - flat.b))))
    elapsed = time.time() - t0
    ok = (
        worst_gap <= 1e-6
        and worst_bisect <= 1e-12
        and interior >= 10
        and worst_cf <= 1e-6
        and worst_flat <= 1e-12
        and flat_interior >= 5
        and worst_flat_cf <= 1e-6
        and elapsed < 60.0
    )
    report(
        capsys, 4, ok,
        f"grid gap {worst_gap:.1e}, bisection off {worst_bisect:.1e}, closed "
        f"form off {worst_cf:.1e} on {interior} interior instances; weighted: "
        f"bisection off {worst_flat:.1e}, closed form off {worst_flat_cf:.1e} "
        f"on {flat_interior} interior instances ({elapsed:.1f}s)",
    )
    assert worst_gap <= 1e-6
    assert worst_bisect <= 1e-12
    assert interior >= 10 and worst_cf <= 1e-6
    assert worst_flat <= 1e-12
    assert flat_interior >= 5 and worst_flat_cf <= 1e-6
    assert elapsed < 60.0


def test_criterion_5_sensitivity_oracles(capsys):
    """Conditional sensitivity closed forms vs rejection-sampling Monte
    Carlo on a 256-point grid, within 3 pooled standard errors, plus the
    total-expectation identity."""
    t0 = time.time()
    grid = np.linspace(1.0 / 512.0, 1.0 - 1.0 / 512.0, 256)
    worst_ratio = 0.0
    runs = 0
    for n, n_sensors, cells in ((2, 2, 2), (3, 4, 2), (4, 4, 4)):
        t = np.linspace(0.0, 1.0, cells + 1)
        probs = serial_max_message_distribution(n, t).probabilities
        for k in range(1, cells + 1):
            if probs[k - 1] <= 0.0:
                continue
            sampler = conditional_max_sampler(n, n_sensors, t[k - 1], t[k])
            means, stderr = sensitivity_monte_carlo(
                max_partial, sampler, n, grid, 10_000,
                seed=100 * n + 10 * n_sensors + k,
            )
            closed = np.asarray(
                max_conditional_sensitivity(n, n_sensors, t[k - 1], t[k])(grid)
            )
            rms_dev = float(np.sqrt(np.mean((means - closed) ** 2)))
            pooled = float(np.sqrt(np.mean(stderr**2)))
            worst_ratio = max(worst_ratio, rms_dev / pooled)
            runs += 1

    # sum_k p_k gamma2_{n|k} must reassemble the unconditional profile.
    worst_mix = 0.0
    for n, n_sensors, cells in ((2, 2, 2), (3, 4, 2), (4, 4, 4)):
        t = np.linspace(0.0, 1.0, cells + 1)
        probs = serial_max_message_distribution(n, t).probabilities
        mix = np.zeros_like(grid)
        for k in range(1, cells + 1):
            prof = max_conditional_sensitivity(n, n_sensors, t[k - 1], t[k])
            mix += probs[k - 1] * np.asarray(prof(grid))
        worst_mix = max(worst_mix, float(np.max(np.abs(mix - grid ** (n_sensors - 1)))))
    elapsed = time.time() - t0
    ok = worst_ratio <= 3.0 and worst_mix <= 1e-6 and elapsed < 300.0
    report(
        capsys, 5, ok,
        f"{runs} profiles, worst deviation {worst_ratio:.2f} pooled stderr, "
        f"mixture identity off {worst_mix:.1e} ({elapsed:.1f}s)",
    )
    assert worst_ratio <= 3.0
    assert worst_mix <= 1e-6
    assert elapsed < 300.0


def test_criterion_6_identifiability_and_replay(capsys):
    """The serial chain parses, bad topologies fail at parse with the
    right condition ids, and codebook replay from fusion indices alone is
    mismatch-free over 1e5 rounds."""
    spec = ChatNetworkSpec.serial_max(4, 2)
    chain_ok = parse_spec_file(spec.canonical_text()) == spec

    def parse_error(text):
        try:
            parse_spec_file(text)
        except SpecFormatError as exc:
            return str(exc)
        return "parsed"

    cyclic = parse_error(
        "N = 3\nedge = 1 2 2 0\nedge = 2 3 2 0\nedge = 3 1 2 0\n"
        "schedule = 1>2 2>3 3>1\n"
    )
    acausal = parse_error(
        "N = 3\nedge = 1 2 2 0\nedge = 2 3 2 0\nschedule = 2>3 1>2\n"
    )

    banks = design_network(spec, budget=16.0).banks
    x = np.random.default_rng(123).random((100_000, 4))
    indices, incoming = _Encoder(spec, banks).encode(x)
    replayed = replay_codebooks(spec, banks, indices)
    mismatches = int(np.count_nonzero(replayed != incoming))
    ok = (
        chain_ok
        and "C1" in cyclic
        and "C2" in acausal
        and mismatches == 0
    )
    report(
        capsys, 6, ok,
        f"chain valid {chain_ok}, cycle [{cyclic}], acausal [{acausal}], "
        f"{mismatches} replay mismatches in 100000 rounds",
    )
    assert chain_ok
    assert "C1" in cyclic
    assert "C2" in acausal
    assert mismatches == 0


def test_criterion_7_partition_qualitative_claims(capsys):
    """Three one-bit partition claims: the p1=0.5 row reproduces the Rc=1
    row exactly; some skewed partition loses to no chatting under entropy
    coding; a degenerate partition reduces to no chat, within 2%.

    The last clause, for N = 2..10, at each end p1 -> 0 and p1 -> 1:

    - fixed-rate: p1 in {0.01, 0.99} is within 2% of no chat;
    - entropy-constrained: along p1 = 10^-k and 1 - 10^-k, k = 2, 3, 4,
      |ratio - 1| never grows from one decade to the next, and it is
      within 2% at k = 4.

    The growth slack is the quadrature tolerance REL_TOL (1e-6); the
    ratios move by under 5e-9 when the tolerances are tightened to 1e-12.

    Under entropy coding p1 in {0.01, 0.99} is not the limit:

    - p1 = 0.99 does not degenerate.  The partition splits the running max
      M of the n-1 sensors before sensor n, so P(M >= 0.99) =
      1 - 0.99^(n-1) = 8.6% at n = 10, a 0.42-bit message.  On it sensor
      n's whole range [0, 0.99] is don't-care; entropy coding moves that
      rate to the other message, amplified by 1/P(A), and the design beats
      no chat by 22% (ratio 0.781 at N = 10).  Fixed-rate coding has one
      codebook size per sensor, cannot move rate between messages, and
      stays within 0.09%.  A better design could only lower the ratio.
    - At p1 = 0.01 the gate over the don't-care zone [0, p1] gives up the
      high-resolution credit that E[log2 gamma^2] earns where
      gamma^2 = x^(N-1) -> 0.  That loss is about
      (N-1) p1 (log2(1/p1) + 1/ln 2) bits, 0.73 bits at N = 10 (ratio
      1.481), and with the gate bits H_B(P(A)) it vanishes as p1 -> 0.
      2% needs it under log2(1.02) = 0.0286 bits, p1 <~ 2e-4 at N = 10.

    A don't-care cost that does not vanish as the partition degenerates
    still fails the clause.
    """
    consistency = 0.0
    for regime in (FIXED_RATE, ENTROPY_CONSTRAINED):
        part = sweep_partition(SweepSpec("p1", (0.5,), 4, 4.0, 0.0, 1.0, regime))
        rate = sweep_chatting_rate(SweepSpec("Rc", (1,), 4, 4.0, 0.0, 1.0, regime))
        consistency = max(
            consistency,
            abs(part[0]["predicted_fmse"] - rate[0]["predicted_fmse"])
            / rate[0]["predicted_fmse"],
        )

    hurt = sweep_partition(SweepSpec("p1", (0.2,), 10, 4.0, 0.0, 1.0, ENTROPY_CONSTRAINED))
    hurt_ratio = hurt[0]["ratio"]

    # devs[regime, end, N]: |ratio - 1| per decade k, coarsest first.
    decades = {FIXED_RATE: (2,), ENTROPY_CONSTRAINED: (2, 3, 4)}
    devs = {}
    for regime, ks in decades.items():
        for n in range(2, 11):
            p1s = tuple(p for k in ks for p in (10.0**-k, 1.0 - 10.0**-k))
            rows = sweep_partition(SweepSpec("p1", p1s, n, 4.0, 0.0, 1.0, regime))
            dev = [abs(r["ratio"] - 1.0) for r in rows]
            devs[regime, "p1->0", n] = dev[0::2]
            devs[regime, "p1->1", n] = dev[1::2]
    growing = sorted(
        key for key, d in devs.items()
        if any(b > a + REL_TOL for a, b in zip(d, d[1:]))
    )
    outside = sorted(key for key, d in devs.items() if d[-1] > 0.02)
    worst = {
        (regime, end): max(range(2, 11), key=lambda n: devs[regime, end, n][-1])
        for regime in decades
        for end in ("p1->0", "p1->1")
    }
    ends = "; ".join(
        f"{regime} {end} N={n} "
        + "/".join(f"{100 * x:.2f}" for x in devs[regime, end, n]) + "%"
        for (regime, end), n in worst.items()
    )
    ok = (
        consistency <= 1e-9 and hurt_ratio > 1.0 and not growing and not outside
    )
    report(
        capsys, 7, ok,
        f"p1=0.5 consistency {consistency:.1e}, chat-can-hurt ratio "
        f"{hurt_ratio:.2f}, off no-chat by decade: {ends}",
    )
    assert consistency <= 1e-9
    assert hurt_ratio > 1.0
    assert not outside, (
        "degenerate partition more than 2% off no chat at the finest "
        f"decade for (regime, end, N) in {outside}: a don't-care cost that "
        "does not vanish as the partition degenerates"
    )
    assert not growing, (
        "|ratio - 1| grows from one decade to the next as the partition "
        f"degenerates for (regime, end, N) in {growing}"
    )


def test_criterion_8_scenario_ladder(capsys):
    """Design-stage ladder at N=5, C=25: each entropy-coded refinement
    improves on the last, and the fixed-rate ladder clears no-chat."""
    rows = run_scenarios(5, 5.0)
    imp = {(r["regime"], r["scenario"]): r["improvement"] for r in rows}
    ec = [
        imp[(ENTROPY_CONSTRAINED, "1-equal-rates")],
        imp[(ENTROPY_CONSTRAINED, "2-allocation")],
        imp[(ENTROPY_CONSTRAINED, "3-allocation+partition")],
    ]
    fr1 = imp[(FIXED_RATE, "1-equal-rates")]
    ok = ec[2] >= ec[1] >= ec[0] > 1.0 and fr1 > 1.0
    report(
        capsys, 8, ok,
        f"entropy ladder {ec[0]:.2f} <= {ec[1]:.2f} <= {ec[2]:.2f}, "
        f"fixed-rate step {fr1:.2f}",
    )
    assert ec[2] >= ec[1] >= ec[0] > 1.0
    assert fr1 > 1.0
