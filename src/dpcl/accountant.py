"""Moments accountant for the subsampled Gaussian mechanism, plus the two
continual composition policies (naive per-block charging vs single-block
sampling).

The per-step log moment is the closed-form integer-order moment of the
privacy-loss random variable of the mechanism that releases
g + N(0, sigma^2) after Bernoulli(q) subsampling (sensitivity 1):

    alpha_step(lam) = log E_{z ~ mu}[(mu(z) / mu0(z))^lam]

with mu = (1-q) N(0, sigma^2) + q N(1, sigma^2) and mu0 = N(0, sigma^2).
Moments add across steps; the (eps, delta) conversion is the standard tail
bound eps = min_lam (alpha(lam) - ln delta) / lam.

A step's moment vector depends only on (q, sigma), so each ledger computes
it once per distinct (q, sigma), in one array pass over all orders, and
every later step adds the stored vector. The states still sum step by step,
so the moments are bitwise what re-evaluating the closed form at every step
gives.

`_log_gamma` (Cephes `lgam`, behind `scipy.special.gammaln`) and `_logsumexp_rows`
(scipy 1.17's `logsumexp` on real input) repeat scipy's float operations in
order, so the moments are bitwise scipy's and the package needs numpy alone.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError, InputError, StateError

DEFAULT_LAMBDA_MAX = 64
MAX_LAMBDA = 1024  # step_log_moment's term arrays take about 39 * lambda_max^2 bytes


class Policy(Enum):
    LEMMA1 = "lemma1"  # every stored block charged at every later task
    LEMMA2 = "lemma2"  # one randomly chosen block charged per task


_LGAM_SERIES = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
                -2.77777777730099687205e-3, 8.33333333333331927722e-2)  # Cephes, x < 1000
_LGAM_SERIES_LARGE = (1 / 1260, -1 / 360, 1 / 12)  # Cephes' literals are these doubles


def _log_gamma(x):
    """log Gamma(x) for an integer x >= 1, in the float operations of Cephes lgam."""
    if x < 13:
        return math.log(math.factorial(x - 1))  # the exact product, then a log
    x = float(x)
    q = (x - 0.5) * math.log(x) - x + 0.91893853320467274178  # + log(sqrt(2 pi))
    if x > 1e8:
        return q
    p, series = 1.0 / (x * x), 0.0
    for c in _LGAM_SERIES if x < 1000.0 else _LGAM_SERIES_LARGE:
        series = series * p + c  # Horner; the first pass gives c exactly
    return q + series / x


def _logsumexp_rows(a):
    """log(sum(exp(a), axis=1)) for real rows whose maxima are not -inf or NaN;
    every element equal to its row's maximum leaves the sum and is counted."""
    a_max = np.max(a, axis=1, keepdims=True)
    is_max = a == a_max
    count = np.sum(is_max, axis=1, keepdims=True, dtype=a.dtype)
    s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=1, keepdims=True)
    return (np.log1p(s / count) + np.log(count) + a_max)[:, 0]


def step_log_moment(q, sigma, lam):
    """Per-step log moment alpha_step(lam) at integer order lam >= 1.

    lam may also be a 1-D array of orders; the vector of their moments is
    then evaluated in one array pass.
    """
    if not 0.0 < q <= 1.0:
        raise ConfigError("sampling rate q must be in (0, 1]")
    if not 0.0 < sigma < np.inf:
        raise ConfigError("sigma must be finite and positive")
    lams = np.asarray(lam)
    if lams.ndim > 1 or not np.all(np.isfinite(lams)) or np.any(lams % 1):
        raise ConfigError("moment orders must be finite integers")
    if lams.size == 0 or np.any(lams < 1):
        raise ConfigError("moment order must be >= 1")
    m = np.atleast_1d(lams).astype(np.int64) + 1  # E_mu[(mu/mu0)^lam] == E_mu0[(mu/mu0)^(lam+1)]
    if q == 1.0:
        alpha = m * (m - 1) / (2.0 * sigma * sigma)
    else:
        m = m[:, None]  # one row per order, one column per binomial term i
        i = np.arange(m.max() + 1)
        log_fact = np.array([_log_gamma(k) for k in range(1, len(i) + 1)])
        log_binom = log_fact[m] - log_fact[i] - log_fact[np.maximum(m - i, 0)]
        # i = 0, 1 add 0, not 0 / 0 once 2 sigma^2 underflows (the moment is then +inf)
        quad = np.divide(i * i - i, 2.0 * sigma * sigma, out=np.zeros(len(i)), where=i > 1)
        terms = log_binom + i * np.log(q) + (m - i) * np.log1p(-q) + quad
        alpha = _logsumexp_rows(np.where(i <= m, terms, -np.inf))
    return float(alpha[0]) if lams.ndim == 0 else alpha


@dataclass
class MomentState:
    """Cumulative log moments alpha(lam) for lam = 1..lambda_max."""

    lambda_max: int = DEFAULT_LAMBDA_MAX
    log_moments: np.ndarray = None
    steps: int = 0
    # (q, sigma) -> per-step moment vector; states sharing it share lambda_max
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.lambda_max < 1:
            raise ConfigError("lambda_max must be >= 1")
        if self.log_moments is None:
            self.log_moments = np.zeros(self.lambda_max)

    def add_step(self, q, sigma):
        vec = self.memo.get((q, sigma))
        if vec is None:
            vec = self.memo[q, sigma] = step_log_moment(
                q, sigma, np.arange(1, self.lambda_max + 1))
        self.log_moments = self.log_moments + vec
        self.steps += 1


def compose_epsilon(state: MomentState, delta) -> float:
    """Tail-bound conversion: eps = min over lam of (alpha(lam) - ln delta)/lam.

    A state with zero steps has released nothing and composes to eps = 0.
    """
    if not 0.0 < delta < 1.0:
        raise ConfigError("delta must be in (0, 1)")
    if state.steps == 0:
        return 0.0
    lams = np.arange(1, state.lambda_max + 1)
    return float(np.min((state.log_moments - np.log(delta)) / lams))


@dataclass
class TaskBudget:
    task_id: int
    eps_train: float  # budget spent on the task's own training data
    eps_ref: float    # budget spent computing reference gradients at this task


@dataclass
class BudgetReport:
    per_task: list
    total: float

    def write_csv(self, path, budgets):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["task_id", "eps_train", "eps_ref", "eps_task_at_T", "total"])
            for b, eps_at_t in zip(budgets, self.per_task):
                w.writerow([b.task_id, repr(b.eps_train), repr(b.eps_ref),
                            repr(eps_at_t), repr(self.total)])


def _check_budgets(budgets, t):
    if [b.task_id for b in budgets[:t]] != list(range(1, t + 1)):
        raise InputError(f"need budgets for tasks 1..{t} in order")


def budget_lemma1(budgets, t) -> BudgetReport:
    """Naive composition: eps_i(T) = eps_i + (T - i) * eps'_i (task T adds 0, not 0 * inf)."""
    _check_budgets(budgets, t)
    per_task = [b.eps_train + ((t - b.task_id) * b.eps_ref if b.task_id < t else 0.0)
                for b in budgets[:t]]
    return BudgetReport(per_task, float(sum(per_task)))


def budget_lemma2(budgets, t) -> BudgetReport:
    """Single-block composition: eps_i(T) = eps_i + eps'_i.

    Task 1 is charged no reference budget: the memory is empty when task 1
    trains.
    """
    _check_budgets(budgets, t)
    per_task = []
    for b in budgets[:t]:
        ref = b.eps_ref if b.task_id > 1 else 0.0
        per_task.append(b.eps_train + ref)
    return BudgetReport(per_task, float(sum(per_task)))


@dataclass
class PrivacyLedger:
    """Per-task and per-block moment states for one training run.

    Training steps charge the current task's train state. Reference steps
    charge both the task that consumed the block (feeding eps'_i as the
    single-block policy defines it) and the block itself (the inspectable
    per-block view).
    """

    sigma: float
    lambda_max: int = DEFAULT_LAMBDA_MAX
    train_states: dict = field(default_factory=dict)
    ref_states_by_task: dict = field(default_factory=dict)
    ref_states_by_block: dict = field(default_factory=dict)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _state(self, table, key):
        if key not in table:
            table[key] = MomentState(self.lambda_max, memo=self._memo)
        return table[key]

    def register_task(self, task_id):
        self._state(self.train_states, task_id)
        self._state(self.ref_states_by_task, task_id)

    def track_training_step(self, task_id, q_train):
        if task_id not in self.train_states:
            raise StateError(f"unknown task {task_id}")
        self.train_states[task_id].add_step(q_train, self.sigma)

    def track_ref_step(self, task_id, chosen_block_id, q_ref_effective):
        if task_id not in self.ref_states_by_task:
            raise StateError(f"unknown task {task_id}")
        if chosen_block_id >= task_id:
            raise StateError("reference block must belong to an earlier task")
        self.ref_states_by_task[task_id].add_step(q_ref_effective, self.sigma)
        self._state(self.ref_states_by_block, chosen_block_id).add_step(
            q_ref_effective, self.sigma)

    def task_budgets(self, delta) -> list:
        return [
            TaskBudget(
                task_id,
                compose_epsilon(self.train_states[task_id], delta),
                compose_epsilon(self.ref_states_by_task[task_id], delta),
            )
            for task_id in sorted(self.train_states)
        ]

    def report(self, delta, policy: Policy) -> BudgetReport:
        budgets = self.task_budgets(delta)
        t = len(budgets)
        if policy is Policy.LEMMA1:
            return budget_lemma1(budgets, t)
        return budget_lemma2(budgets, t)
