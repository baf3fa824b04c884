import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chatquant.allocation import (
    AllocationResult,
    InfeasibleBudgetError,
    allocate,
    chat_budget_search,
    waterfill_kkt,
)
from chatquant.chatnet import ChatNetworkSpec, design_network
from chatquant.distortion import fixed_rate_betas

from oracles import bisection_waterfill, dp_allocation_oracle, lemma_allocation


# -- water-filling ----------------------------------------------------------


def test_waterfill_symmetric():
    res = waterfill_kkt([1.0, 1.0], [1.0, 1.0], 2.0)
    assert np.allclose(res.b, [1.0, 1.0], atol=1e-9)
    assert res.budget() == pytest.approx(2.0, abs=1e-9)


def test_waterfill_interior_stationarity():
    # b_2 - b_1 = (1/2) log2(beta_2 / beta_1) when both links are active.
    res = waterfill_kkt([1.0, 4.0], [1.0, 1.0], 2.0)
    assert np.allclose(res.b, [0.5, 1.5], atol=1e-9)


def test_waterfill_excludes_weak_link():
    res = waterfill_kkt([1.0, 1e-6], [1.0, 1.0], 1.0)
    assert np.allclose(res.b, [1.0, 0.0], atol=1e-9)


def test_waterfill_rate_shift():
    # With unit costs and every link active, extra budget splits evenly.
    betas = [2.0, 1.0, 0.5]
    a = waterfill_kkt(betas, [1.0] * 3, 6.0)
    b = waterfill_kkt(betas, [1.0] * 3, 7.5)
    assert np.allclose(b.b - a.b, 0.5, atol=1e-9)


def test_waterfill_validation():
    with pytest.raises(ValueError):
        waterfill_kkt([1.0], [1.0], -1.0)
    with pytest.raises(ValueError):
        waterfill_kkt([0.0, 1.0], [1.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        waterfill_kkt([1.0, 1.0], [1.0, 1.0], 1.0, weights=[0.5])


@pytest.mark.parametrize(
    "betas, alphas, weights, match",
    [
        ([1.0, 4.0], [1.0], None, "1-D and of one length"),
        ([[1.0, 4.0]], [[1.0, 1.0]], None, "1-D and of one length"),
        (1.0, 1.0, None, "1-D and of one length"),
        ([1.0, 4.0], [1.0, 1.0], [[0.5, 0.5]], "1-D and of one length"),
        ([], [], None, "at least one link"),
        ([np.nan, 1.0], [1.0, 1.0], None, "finite"),
        ([np.inf, 1.0], [1.0, 1.0], None, "finite"),
        ([1.0, 1.0], [1.0, np.inf], None, "finite"),
        ([1.0, 1.0], [1.0, 1.0], [np.nan, 1.0], "finite"),
        ([1.0, 1.0], [1.0, 1.0], [0.0, 1.0], "positive"),
    ],
)
def test_waterfill_rejects_malformed_links(betas, alphas, weights, match):
    with pytest.raises(ValueError, match=match):
        waterfill_kkt(betas, alphas, 2.0, weights)


_RATIO_EXPONENTS = st.floats(-12.0, 12.0)
_ALPHAS = st.floats(0.1, 10.0)
_WEIGHTS = st.floats(0.1, 1.0)


@st.composite
def _links(draw):
    n = draw(st.integers(1, 6))
    betas = [10.0 ** draw(_RATIO_EXPONENTS) for _ in range(n)]
    alphas = [draw(_ALPHAS) for _ in range(n)]
    weights = [draw(_WEIGHTS) for _ in range(n)] if draw(st.booleans()) else None
    # Repeat some links verbatim: their beta/alpha ratios tie exactly.
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        betas.append(betas[i])
        alphas.append(alphas[i])
        if weights is not None:
            weights.append(weights[i])
    budget = draw(st.one_of(st.just(0.0), st.floats(1e-3, 50.0)))
    return betas, alphas, weights, budget


@settings(max_examples=300, deadline=None)
@given(_links())
@example(([1.0, 1e-6], [1.0, 1.0], None, 1.0))  # one inactive link
@example(([1.0, 1.0, 4.0], [1.0, 1.0, 1.0], [0.3, 0.3, 1.0], 3.0))  # a tie
@example(([2.0, 1e-12, 1e12], [1.0, 0.1, 10.0], [0.5, 1.0, 0.2], 0.0))  # no budget
@example(([1e12, 1e-12], [0.1, 10.0], None, 1e-3))  # 24 decades apart
def test_exact_level_matches_bisection_oracle(links):
    betas, alphas, weights, budget = links
    res = waterfill_kkt(betas, alphas, budget, weights)
    ref = bisection_waterfill(betas, alphas, budget, weights)
    assert np.allclose(res.b, ref, rtol=0.0, atol=1e-12 * max(budget, 1.0))
    assert abs(res.budget() - budget) <= 1e-12 * budget


def test_waterfill_beats_dp_oracle():
    # Spot check here; the acceptance suite runs the 100-instance version.
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = rng.integers(2, 5)
        betas = rng.uniform(0.1, 10.0, n)
        alphas = rng.uniform(0.5, 2.0, n)
        budget = float(rng.uniform(1.0, 6.0))
        res = waterfill_kkt(betas, alphas, budget)
        oracle = dp_allocation_oracle(betas, alphas, budget)
        assert res.predicted_distortion <= oracle + 1e-6


def test_waterfill_monotone_in_budget():
    betas = [3.0, 1.0, 0.2]
    alphas = [1.0, 0.7, 1.5]
    ds = [
        waterfill_kkt(betas, alphas, c).predicted_distortion
        for c in np.linspace(0.0, 10.0, 21)
    ]
    assert np.all(np.diff(ds) <= 1e-12)


# -- interior closed form -----------------------------------------------------


def test_closed_form_equal_split():
    assert np.allclose(lemma_allocation([2.0] * 4, [1.0] * 4, 6.0), 1.5, atol=1e-9)
    res = waterfill_kkt([2.0] * 4, [1.0] * 4, 6.0)
    assert np.allclose(res.b, 1.5, atol=1e-9)


def test_closed_form_matches_waterfill_interior():
    a = lemma_allocation([1.0, 4.0], [1.0, 1.0], 2.0)
    b = waterfill_kkt([1.0, 4.0], [1.0, 1.0], 2.0)
    assert np.allclose(a, b.b, atol=1e-6)


def test_closed_form_heterogeneous_costs():
    # alpha=(1,2), beta=(1,1), C=3: shares (4/3, 5/3), objective
    # 2^(-8/3) + 2^(-5/3).
    assert np.allclose(
        lemma_allocation([1.0, 1.0], [1.0, 2.0], 3.0), [4.0 / 3.0, 5.0 / 3.0], atol=1e-9
    )
    res = waterfill_kkt([1.0, 1.0], [1.0, 2.0], 3.0)
    assert np.allclose(res.b, [4.0 / 3.0, 5.0 / 3.0], atol=1e-9)
    want = 2.0 ** (-8.0 / 3.0) + 2.0 ** (-5.0 / 3.0)
    assert res.predicted_distortion == pytest.approx(want, rel=1e-9)
    assert res.predicted_distortion == pytest.approx(0.47247, abs=5e-6)
    oracle = dp_allocation_oracle(np.array([1.0, 1.0]), np.array([1.0, 2.0]), 3.0)
    assert res.predicted_distortion <= oracle + 1e-3


def test_closed_form_rejects_non_interior():
    # The interior formula goes negative on the weak link; water-filling
    # switches it off instead.
    assert np.min(lemma_allocation([1.0, 1e-6], [1.0, 1.0], 1.0)) < 0
    res = waterfill_kkt([1.0, 1e-6], [1.0, 1.0], 1.0)
    assert np.array_equal(res.b, [1.0, 0.0])


def test_lemma_agreement_random_interior():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 30:
        n = rng.integers(2, 5)
        betas = rng.uniform(0.1, 10.0, n)
        alphas = rng.uniform(0.5, 2.0, n)
        budget = float(rng.uniform(4.0, 10.0))
        cf = lemma_allocation(betas, alphas, budget)
        if np.any(cf <= 0):
            continue
        wf = waterfill_kkt(betas, alphas, budget)
        assert np.allclose(cf, wf.b, atol=1e-6)
        checked += 1


# -- message-weighted water-filling ------------------------------------------


def test_probabilistic_degenerate_messages():
    # One sure message per link: the weighted form is the plain one.
    betas = [4.0, 1.0, 0.5]
    alphas = [1.0, 1.2, 0.8]
    res = waterfill_kkt(betas, alphas, 5.0, weights=[1.0] * 3)
    ref = lemma_allocation(betas, alphas, 5.0)
    assert np.allclose(res.b, ref, atol=1e-9)


def test_probabilistic_symmetric_messages():
    # Link 1 with one message, link 2 with two equally likely ones.
    res = waterfill_kkt(
        [1.0, 2.0, 2.0], [1.0, 1.0, 1.0], 3.0, weights=[1.0, 0.5, 0.5]
    )
    assert res.b[1] == pytest.approx(res.b[2], abs=1e-9)
    assert res.budget() == pytest.approx(3.0, abs=1e-9)


# -- network-level allocation --------------------------------------------------


def test_fixed_rate_network_allocation_frozen():
    spec = ChatNetworkSpec.serial_max(5, 2)
    res = waterfill_kkt(fixed_rate_betas(spec), spec.fusion_alphas, 25.0)
    assert res.predicted_distortion == pytest.approx(2.558792e-5, rel=1e-5)
    assert np.allclose(res.rates, [5.162, 5.065, 4.985, 4.920, 4.868], atol=5e-4)
    assert res.budget() == pytest.approx(25.0, abs=1e-9)


def test_entropy_network_allocation_frozen():
    spec = ChatNetworkSpec.serial_max(5, 2, regime="entropy-constrained")
    res = allocate(spec, 25.0)
    assert res.predicted_distortion == pytest.approx(1.531615e-6, rel=1e-5)
    assert res.budget() == pytest.approx(25.0, abs=1e-9)
    # Later sensors and rarer messages still get nonnegative shares.
    assert np.all(res.b >= 0)
    assert res.labels[0] == (1, 1)


def test_entropy_allocation_drops_dead_messages():
    # Sensor 1 hears nothing, so of its table row only message 1 is live.
    spec = ChatNetworkSpec.serial_max(3, 4, regime="entropy-constrained")
    res = allocate(spec, 12.0)
    assert len(res.labels) == res.b.size == 1 + 4 + 4
    assert [k for n, k in res.labels if n == 1] == [1]
    assert [k for n, k in res.labels if n == 3] == [1, 2, 3, 4]
    assert res.weights[0] == 1.0


def test_allocation_result_needs_one_label_per_share():
    # A short label tuple would make csv_rows drop the shares past its end.
    with pytest.raises(ValueError, match="one label per cost share"):
        AllocationResult(
            np.array([1.0, 2.0]), np.array([1.0, 2.0]), 0.1, np.ones(2), labels=((1, 1),)
        )
    ok = AllocationResult(
        np.array([1.0, 2.0]), np.array([1.0, 2.0]), 0.1, np.ones(2), labels=((1, 1), (2, 1))
    )
    assert len(ok.csv_rows()) == 2


def test_entropy_allocation_rates_are_per_bit():
    # Rates are b / alpha_n with the true link cost, not the effective
    # gate-scaled cost used inside the optimizer.
    spec = ChatNetworkSpec.serial_max(
        3, 2, fusion_alphas=(1.0, 2.0, 1.0), regime="entropy-constrained"
    )
    res = allocate(spec, 12.0)
    for (link, _msg), b, rate in zip(res.labels, res.b, res.rates):
        alpha = spec.fusion_alphas[link - 1]
        assert rate == pytest.approx(b / alpha, rel=1e-12)


def test_chat_budget_search_free_chat():
    spec = ChatNetworkSpec.serial_max(4, 2, chat_alpha=0.0)
    rc, res = chat_budget_search(spec, 16.0, range(4))
    assert rc == 3
    assert res.predicted_distortion == pytest.approx(1.098236e-4, rel=1e-5)


def test_chat_budget_search_cheap_chat():
    spec = ChatNetworkSpec.serial_max(4, 2, chat_alpha=0.01)
    rc, res = chat_budget_search(spec, 16.0, range(4))
    assert rc == 3
    assert res.predicted_distortion == pytest.approx(1.133032e-4, rel=1e-5)


def test_chat_budget_search_expensive_chat():
    spec = ChatNetworkSpec.serial_max(4, 2, chat_alpha=1.0)
    rc, res = chat_budget_search(spec, 16.0, range(4))
    assert rc == 0
    assert res.predicted_distortion == pytest.approx(1.627604e-4, rel=1e-5)


def test_chat_budget_search_entropy_regime():
    spec = ChatNetworkSpec.serial_max(5, 2, chat_alpha=0.0)
    rc, res = chat_budget_search(spec.with_regime("entropy-constrained"), 25.0, (0, 1))
    assert rc == 1
    assert res.predicted_distortion == pytest.approx(1.531615e-6, rel=1e-5)


def test_chat_budget_search_infeasible():
    spec = ChatNetworkSpec.serial_max(4, 2, chat_alpha=2.0)
    with pytest.raises(InfeasibleBudgetError):
        chat_budget_search(spec, 16.0, (4, 5))


@pytest.mark.parametrize("budget", [-5.0, 0.0])
def test_chat_budget_search_nonpositive_budget(budget):
    # Said before any candidate is charged its chat, as allocate says it.
    spec = ChatNetworkSpec.serial_max(3, 2, chat_alpha=0.01)
    with pytest.raises(InfeasibleBudgetError, match=f"budget must be positive, got {budget:g}"):
        chat_budget_search(spec, budget, range(3))
    with pytest.raises(ValueError, match="finite"):
        chat_budget_search(spec, float("nan"), range(3))


def test_chat_budget_search_rejects_empty_grid():
    spec = ChatNetworkSpec.serial_max(4, 2, chat_alpha=0.01)
    with pytest.raises(ValueError, match="grid is empty") as exc:
        chat_budget_search(spec, 12.0, [])
    assert not isinstance(exc.value, InfeasibleBudgetError)


@pytest.mark.parametrize("grid", [(1.5,), (0, 2.9), (-1, 1)])
def test_chat_budget_search_rejects_non_integer_rates(grid):
    # A truncated 2.9 would win as rate 2 and be reported as such.
    spec = ChatNetworkSpec.serial_max(4, 2, chat_alpha=0.01)
    with pytest.raises(ValueError, match="nonnegative integer"):
        chat_budget_search(spec, 16.0, grid)


# -- the one allocation path ---------------------------------------------------


@pytest.mark.parametrize("regime", ["fixed-rate", "entropy-constrained"])
def test_design_and_search_share_allocate(regime):
    spec = ChatNetworkSpec.serial_max(4, 2, chat_alpha=0.01, regime=regime)
    design = design_network(spec, budget=16.0)
    assert np.array_equal(design.allocation.b, allocate(spec, 16.0).b)
    rc, best = chat_budget_search(spec, 16.0, range(4))
    again = allocate(spec.with_chat_rate(rc), 16.0)
    assert np.array_equal(best.b, again.b)
    assert best.predicted_distortion == again.predicted_distortion


def test_allocate_charges_chat_before_fusion():
    spec = ChatNetworkSpec.serial_max(4, 4, chat_alpha=0.5)
    assert spec.chat_cost() == pytest.approx(3 * 0.5 * 2.0)
    res = allocate(spec, 16.0)
    assert res.budget() == pytest.approx(16.0 - spec.chat_cost(), abs=1e-9)
    with pytest.raises(InfeasibleBudgetError, match="exhausts the budget"):
        allocate(spec, spec.chat_cost())


@pytest.mark.parametrize("budget", [np.nan, np.inf, -np.inf])
def test_non_finite_budgets_are_rejected(budget, monkeypatch):
    # A bad budget fails before the constants are integrated.
    def tables(spec):
        raise AssertionError("constants integrated for a non-finite budget")

    monkeypatch.setattr("chatquant.allocation._spec_constants", tables)
    with pytest.raises(ValueError, match="finite"):
        waterfill_kkt([1.0, 4.0], [1.0, 1.0], budget)
    for regime in ("fixed-rate", "entropy-constrained"):
        with pytest.raises(ValueError, match="finite"):
            allocate(ChatNetworkSpec.serial_max(3, 2, regime=regime), budget)
