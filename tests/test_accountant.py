import csv
from collections import Counter

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

import dpcl.accountant as accountant
from dpcl.accountant import (
    Policy,
    PrivacyLedger,
    TaskBudget,
    budget_lemma1,
    budget_lemma2,
    compose_epsilon,
    step_log_moment,
)
from dpcl.errors import ConfigError, InputError

from _oracles import (
    charged_rates,
    counted_moments,
    per_order_log_moment,
    quad_epsilon,
    quad_log_moment,
)


def ledger_of(charges, tasks, sigma=1.0, lambda_max=16, one_block=False):
    """A ledger of charges, (task, block, q) -> steps, over tasks 1..tasks."""
    return PrivacyLedger(sigma, dict(charges), tasks, one_block, lambda_max)


def constant_budgets(n, eps=1.0, eps_ref=1.0):
    return [TaskBudget(i + 1, eps, eps_ref) for i in range(n)]


def epsilon_of(q, sigma, steps, delta, lambda_max=32):
    return compose_epsilon(steps * np.array(
        [step_log_moment(q, sigma, lam) for lam in range(1, lambda_max + 1)]), delta)


def test_step_log_moment_vanishes_as_q_to_zero():
    assert step_log_moment(1e-12, 1.0, 4) == pytest.approx(0.0, abs=1e-9)


def test_step_log_moment_q1_hand_value():
    # q=1, lam=1, sigma=1: alpha = lam(lam+1)/(2 sigma^2) = 1
    assert step_log_moment(1.0, 1.0, 1) == pytest.approx(1.0, abs=1e-12)
    assert step_log_moment(1.0, 1.0, 1) == pytest.approx(quad_log_moment(1.0, 1.0, 1), abs=1e-6)


def test_step_log_moment_subsampled_vs_quadrature():
    assert step_log_moment(0.01, 1.0, 8) == pytest.approx(
        quad_log_moment(0.01, 1.0, 8), abs=1e-6)


@pytest.mark.parametrize("q", [0.01, 0.1, 0.5])
@pytest.mark.parametrize("sigma", [0.8, 1.0, 2.0])
@pytest.mark.parametrize("lam", [1, 2, 4, 8])
def test_step_log_moment_quadrature_grid(q, sigma, lam):
    assert step_log_moment(q, sigma, lam) == pytest.approx(
        quad_log_moment(q, sigma, lam), abs=1e-6)


def test_step_log_moment_rejects_bad_config():
    with pytest.raises(ConfigError):
        step_log_moment(0.0, 1.0, 1)
    with pytest.raises(ConfigError):
        step_log_moment(1.5, 1.0, 1)
    with pytest.raises(ConfigError):
        step_log_moment(0.1, 0.0, 1)
    with pytest.raises(ConfigError):
        step_log_moment(0.1, 1.0, 0)


# non-integer orders, for scalars and arrays alike; array orders below 1; 2-D
@pytest.mark.parametrize("lam", [2.5, np.array([1, 2.5]), np.array([1.0, np.nan]),
                                 np.array([1, np.inf]), np.array([0, 1]), np.array([[1, 2]])])
def test_step_log_moment_rejects_bad_orders(lam):
    with pytest.raises(ConfigError):
        step_log_moment(0.1, 1.0, lam)


@pytest.mark.parametrize("sigma", [np.nan, np.inf])
def test_accountant_rejects_nonfinite_sigma(sigma):
    with pytest.raises(ConfigError):
        step_log_moment(0.1, sigma, 4)
    with pytest.raises(ConfigError):
        ledger_of({(1, 0, 0.1): 1}, 1, sigma=sigma)


def test_step_log_moment_vector_matches_per_order_oracle():
    for q in (1e-8, 1e-4, 0.01, 0.05, 0.1, 1 / 3 * 0.2, 0.5, 0.9, 1.0):
        for sigma in (0.3, 0.8, 1.0, 1.3, 2.0, 4.0, 8.0):
            for lambda_max in (1, 2, 7, 16, 64):
                lams = np.arange(1, lambda_max + 1)
                vec = step_log_moment(q, sigma, lams)
                expected = np.array([per_order_log_moment(q, sigma, lam) for lam in lams])
                assert vec.shape == expected.shape
                assert np.all(np.abs(vec - expected) <= 1e-14 * np.maximum(1.0, np.abs(expected)))
            # a single order sums no padding, so it is the oracle's value bitwise
            scalar = step_log_moment(q, sigma, 7)
            assert type(scalar) is float and scalar == per_order_log_moment(q, sigma, 7)


def test_compose_zero_steps_is_zero():
    ledger = ledger_of({}, 1)
    assert ledger.epsilon(1, (0,), 1e-5) == 0.0
    assert ledger.report(1e-5, Policy.LEMMA2).rows == [TaskBudget(1, 0.0, 0.0)]


def test_compose_monotone_in_steps():
    for k in (5, 50, 500):
        assert epsilon_of(0.05, 1.0, 2 * k, 1e-5) >= epsilon_of(0.05, 1.0, k, 1e-5)


def test_compose_matches_quadrature_oracle():
    lam_grid = range(1, 33)
    got = epsilon_of(0.01, 1.0, 10_000, 1e-5)
    expected = quad_epsilon(0.01, 1.0, 10_000, 1e-5, lam_grid)
    assert got == pytest.approx(expected, rel=1e-6)


def test_compose_rejects_bad_delta():
    with pytest.raises(ConfigError):
        compose_epsilon(np.zeros(4), 0.0)
    with pytest.raises(ConfigError):
        compose_epsilon(np.zeros(4), 1.0)
    ledger = ledger_of({}, 1, lambda_max=4)
    for policy in Policy:  # also where no step was charged
        with pytest.raises(ConfigError):
            ledger.report(1.0, policy)


def test_epsilon_monotonicity_grid():
    qs = [0.01, 0.05, 0.1, 0.3, 0.6]
    sigmas = [0.7, 1.0, 1.5, 2.5, 4.0]
    steps = [1, 10, 100, 1000, 5000]
    eps = {(q, s, n): epsilon_of(q, s, n, 1e-5, lambda_max=16)
           for q in qs for s in sigmas for n in steps}
    for s in sigmas:
        for n in steps:
            vals = [eps[(q, s, n)] for q in qs]
            assert vals == sorted(vals)  # nondecreasing in q
    for q in qs:
        for n in steps:
            vals = [eps[(q, s, n)] for s in sigmas]
            assert vals == sorted(vals, reverse=True)  # nonincreasing in sigma
    for q in qs:
        for s in sigmas:
            vals = [eps[(q, s, n)] for n in steps]
            assert vals == sorted(vals)  # nondecreasing in steps


def test_lemma1_base_case():
    report = budget_lemma1(constant_budgets(1, eps=0.7, eps_ref=0.3), 1)
    assert report.per_task == [0.7]
    assert report.total == 0.7


def test_lemma1_constant_budgets():
    report = budget_lemma1(constant_budgets(5), 5)
    assert report.per_task == [5, 4, 3, 2, 1]
    assert report.total == 15


def test_lemma1_no_ref_budget():
    report = budget_lemma1(constant_budgets(4, eps=0.5, eps_ref=0.0), 4)
    assert report.per_task == [0.5] * 4
    assert report.total == 2.0


def test_lemma1_missing_task():
    with pytest.raises(InputError):
        budget_lemma1(constant_budgets(2), 3)


def test_lemma2_base_case():
    report = budget_lemma2(constant_budgets(1), 1)
    assert report.total == 1.0


def test_lemma2_constant_budgets_both_conventions():
    budgets = constant_budgets(5)
    assert budget_lemma2(budgets, 5).per_task == [1, 2, 2, 2, 2]
    assert budget_lemma2(budgets, 5).total == 9


def test_lemma_growth_orders():
    budgets = constant_budgets(17)
    totals1 = [budget_lemma1(budgets, t).total for t in range(1, 18)]
    totals2 = [budget_lemma2(budgets, t).total for t in range(1, 18)]
    second_diff = np.diff(totals1, 2)
    first_diff = np.diff(totals2)
    assert np.allclose(second_diff, second_diff[0], atol=1e-12)  # quadratic
    assert np.allclose(first_diff, first_diff[0], atol=1e-12)    # linear


def test_budget_reports_permutation_stable():
    # the naive total weights eps'_i by position, so it is only stable when
    # the reference budgets are all equal
    equal_ref = [TaskBudget(1, 0.2, 0.3), TaskBudget(2, 0.5, 0.3), TaskBudget(3, 0.9, 0.3)]
    equal_ref_relabeled = [TaskBudget(1, 0.9, 0.3), TaskBudget(2, 0.2, 0.3), TaskBudget(3, 0.5, 0.3)]
    assert budget_lemma1(equal_ref, 3).total == pytest.approx(
        budget_lemma1(equal_ref_relabeled, 3).total, abs=1e-12)


def test_report_total_equals_sum_of_per_task():
    report = budget_lemma1(constant_budgets(6, eps=0.3, eps_ref=0.2), 6)
    assert report.total == pytest.approx(sum(report.per_task), abs=1e-12)


def test_ledger_single_step_matches_fresh_state():
    ledger = ledger_of({(1, 0, 0.1): 1}, 1)
    fresh = step_log_moment(0.1, 1.0, np.arange(1, 17))
    assert ledger.report(1e-4, Policy.LEMMA2).rows[0].eps_train == pytest.approx(
        compose_epsilon(fresh, 1e-4), abs=1e-12)


def test_ledger_tasks_independent():
    eps1_alone = ledger_of({(1, 0, 0.1): 1}, 2).report(1e-4, Policy.LEMMA2).rows[0].eps_train
    both = {(1, 0, 0.1): 1, (2, 0, 0.1): 10, (2, 1, 0.05): 10}
    for one_block in (False, True):
        first = ledger_of(both, 2, one_block=one_block).report(1e-4, Policy.LEMMA2).rows[0]
        assert first.eps_train == eps1_alone
        assert first.eps_ref == 0.0  # task 1 read no stored block


def test_ledger_moments_additive():
    ledger = ledger_of({(1, 0, 0.05): 100}, 1, lambda_max=8)
    single = np.array([step_log_moment(0.05, 1.0, lam) for lam in range(1, 9)])
    assert ledger.charges == Counter({(1, 0, 0.05): 100})
    moments = ledger.log_moments(charged_rates(ledger, 1, (0,)))
    assert np.allclose(moments, 100 * single, rtol=1e-12)


def test_lemma2_charges_a_one_block_read_its_costliest_block():
    """Lemma 2 charges task 3 one read of the memory: when a read takes one
    block, the charges of the block that costs most, else every block's
    charges composed. Lemma 1 charges each block its own charges either way."""
    charges = {(3, 0, 0.1): 20, (3, 1, 0.08): 20, (3, 2, 0.02): 20}

    def eps(rates):
        return compose_epsilon(counted_moments(Counter(rates), 1.0, 16)[0], 1e-5)

    for one_block, eps_ref in ((True, eps({0.08: 20})), (False, eps({0.08: 20, 0.02: 20}))):
        ledger = ledger_of(charges, 3, one_block=one_block)
        assert ledger.report(1e-5, Policy.LEMMA2).rows[2] == TaskBudget(3, eps({0.1: 20}), eps_ref)
        lemma1 = ledger.report(1e-5, Policy.LEMMA1).rows
        assert [row.eps_ref for row in lemma1] == [
            0.0 + eps({0.08: 20}), 0.0 + eps({0.02: 20}), 0.0]


def test_report_csv_round_trip(tmp_path):
    budgets = constant_budgets(3, eps=0.4, eps_ref=0.2)
    report = budget_lemma2(budgets, 3)
    path = tmp_path / "budget.csv"
    report.write_csv(path)
    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert [int(r["task_id"]) for r in rows] == [1, 2, 3]
    assert [float(r["eps_train"]) for r in rows] == [0.4] * 3
    assert [float(r["eps_ref"]) for r in rows] == [0.0, 0.2, 0.2]
    assert [float(r["eps_task_at_T"]) for r in rows] == report.per_task
    assert float(rows[0]["total"]) == report.total


def test_counted_moments_are_one_multiply_per_rate():
    # interleaved rates, as a stored block sees across tasks
    qs = [0.1, 0.05, 0.1, 1 / 3 * 0.2, 0.05, 0.1, 1 / 3 * 0.2] * 5
    ledger = ledger_of({(2, 1, q): n for q, n in Counter(qs).items()}, 2, sigma=1.3)
    sequential = np.zeros(16)
    for q in qs:
        sequential = sequential + step_log_moment(q, 1.3, np.arange(1, 17))
    counts = charged_rates(ledger, 2, (1,))
    assert counts == Counter(qs) and sum(counts.values()) == len(qs)
    expected = np.zeros(16)
    for q in sorted(counts):
        expected = expected + counts[q] * step_log_moment(q, 1.3, np.arange(1, 17))
    moments = ledger.log_moments(counts)
    assert np.array_equal(moments, expected)
    assert np.all(np.abs(moments - sequential) <= 1e-12 * np.abs(sequential))
    assert ledger.epsilon(2, (1,), 1e-5) == compose_epsilon(expected, 1e-5)


def _three_tasks(steps_per_task):
    """The charges of three dp_cl tasks: every step charges the training
    release 0.1 and each stored block 0.05 / (t - 1)."""
    charges = {}
    for t in (1, 2, 3):
        charges[t, 0, 0.1] = steps_per_task
        for block in range(1, t):
            charges[t, block, 0.05 / (t - 1)] = steps_per_task
    return charges


def test_ledger_evaluates_each_rate_once_per_ledger(monkeypatch):
    calls = []
    real = accountant.step_log_moment

    def counting(q, sigma, lam):
        calls.append((q, sigma, lam))
        return real(q, sigma, lam)

    monkeypatch.setattr(accountant, "step_log_moment", counting)
    lambda_max = 8
    per_ledger = 3  # (q, sigma): train 0.1, ref 0.05 and 0.025
    first = ledger_of(_three_tasks(5), 3, lambda_max=lambda_max, one_block=True)
    assert len(calls) == per_ledger  # when the ledger is built
    for policy in Policy:
        first.report(1e-5, policy)
        first.epsilon(3, (1, 2), 1e-5)
    assert len(calls) == per_ledger
    # a fresh ledger pays for its own closed-form evaluations
    ledger_of(_three_tasks(50), 3, lambda_max=lambda_max)
    assert len(calls) == 2 * per_ledger
    assert sorted({q for q, _, _ in calls}) == [0.025, 0.05, 0.1]
    assert all(np.array_equal(lam, np.arange(1, lambda_max + 1)) for _, _, lam in calls)


def test_log_gamma_matches_gammaln_bitwise():
    # 1..12 exact product, 13..999 Stirling series, 1000..1e8 three terms, above 1e8 none
    ks = list(range(1, 2001)) + [10**8 - 1, 10**8, 10**8 + 1, 3 * 10**9, 10**15 + 7]
    got = np.array([accountant._log_gamma(k) for k in ks])
    assert np.array_equal(got, gammaln(np.array(ks, dtype=float)))


def test_logsumexp_rows_matches_scipy_on_the_moment_terms(monkeypatch):
    seen = []
    real = accountant._logsumexp_rows

    def recording(a):
        seen.append(a)
        return real(a)

    monkeypatch.setattr(accountant, "_logsumexp_rows", recording)
    for q in (1e-8, 1e-4, 0.01, 0.05, 0.1, 1 / 3 * 0.2, 0.5, 0.9):
        for sigma in (0.3, 0.8, 1.0, 1.3, 2.0, 4.0, 8.0):
            for lambda_max in (1, 2, 7, 16, 64):
                step_log_moment(q, sigma, np.arange(1, lambda_max + 1))
    assert len(seen) == 8 * 7 * 5
    for terms in seen:
        assert np.isneginf(terms).any() or len(terms) == 1  # the padding is exercised
        assert np.array_equal(real(terms), logsumexp(terms, axis=1))


def test_logsumexp_rows_sums_every_tied_maximum():
    # keeping the second or third maximum inside the sum changes the last bit of rows 0 and 1
    rows = np.array([
        [-3.0, 2.0, -3.0, 2.0, -np.inf, -np.inf],    # two tied maxima
        [0.0, -3.0, 0.0, -np.inf, 0.0, -2.0],        # three tied maxima
        [1e-3, 1e-3, 1e-3, 1e-3, 1e-3, 1e-3],        # every element tied
        [40.0, -np.inf, -np.inf, -np.inf, -np.inf, -np.inf],  # one finite entry
    ])
    got = accountant._logsumexp_rows(rows)
    assert np.array_equal(got, logsumexp(rows, axis=1))
    assert got[1] == pytest.approx(np.log(3.0 + np.exp(-3.0) + np.exp(-2.0)), rel=1e-15)
    assert got[3] == 40.0


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.parametrize("q", [0.01, 0.5, 1.0])
def test_sigma_whose_square_underflows_gives_infinite_epsilon(q):
    """Below about 1.6e-162, 2 sigma^2 underflows to 0. The i = 0 and 1
    terms then add 0, not 0 / 0 = NaN, so every moment and epsilon is +inf."""
    sigma = 1e-200
    assert 2.0 * sigma * sigma == 0.0
    assert np.all(np.isposinf(step_log_moment(q, sigma, np.arange(1, 65))))
    ledger = ledger_of({(1, 0, q): 1, (2, 1, q): 1}, 2, sigma=sigma)
    (first, second) = ledger.report(1e-5, Policy.LEMMA2).rows
    assert first.eps_train == second.eps_ref == np.inf
    for policy in Policy:
        report = ledger.report(1e-5, policy)
        assert report.total == np.inf and not np.isnan(report.per_task).any()
