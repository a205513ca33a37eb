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

A step's moment vector depends only on (q, sigma), so a ledger counts its
steps per (task, block, q) and computes each q's vector once, when it is
built, in one array pass over all orders. Every epsilon is composed from
those counts when it is reported, as the sum over q of n_q * alpha_step(q):
one multiply per rate, where summing step by step would round at every step.

`_log_gamma` (Cephes `lgam`, behind `scipy.special.gammaln`) and `_logsumexp_rows`
(scipy 1.17's `logsumexp` on real input) repeat scipy's float operations in
order, so the moments are bitwise scipy's and the package needs numpy alone.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError, InputError

DEFAULT_LAMBDA_MAX = 64
MAX_LAMBDA = 1024  # step_log_moment's term arrays take about 39 * lambda_max^2 bytes


class Policy(Enum):
    LEMMA1 = "lemma1"  # every stored block charged at every later task
    LEMMA2 = "lemma2"  # every task charged one read of the memory


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


def compose_epsilon(log_moments, delta) -> float:
    """Tail-bound conversion of the log moments alpha(1..lambda_max):
    eps = min over lam of (alpha(lam) - ln delta)/lam."""
    if not 0.0 < delta < 1.0:
        raise ConfigError("delta must be in (0, 1)")
    lams = np.arange(1, len(log_moments) + 1)
    return float(np.min((log_moments - np.log(delta)) / lams))


@dataclass
class TaskBudget:
    task_id: int
    eps_train: float  # budget spent on the task's own training data
    eps_ref: float    # the reference budget the policy charges to this task


@dataclass
class BudgetReport:
    """One row per task; a task's charge at T is its row's eps_train + eps_ref."""

    rows: list
    per_task: list = field(init=False)
    total: float = field(init=False)

    def __post_init__(self):
        self.per_task = [b.eps_train + b.eps_ref for b in self.rows]
        self.total = float(sum(self.per_task))

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["task_id", "eps_train", "eps_ref", "eps_task_at_T", "total"])
            for b, eps_at_t in zip(self.rows, self.per_task):
                w.writerow([b.task_id, repr(b.eps_train), repr(b.eps_ref),
                            repr(eps_at_t), repr(self.total)])


def _check_budgets(budgets, t):
    if [b.task_id for b in budgets[:t]] != list(range(1, t + 1)):
        raise InputError(f"need budgets for tasks 1..{t} in order")


def budget_lemma1(budgets, t) -> BudgetReport:
    """Naive composition: eps_i(T) = eps_i + (T - i) * eps'_i (task T adds 0, not 0 * inf)."""
    _check_budgets(budgets, t)
    return BudgetReport([TaskBudget(b.task_id, b.eps_train,
                                    (t - b.task_id) * b.eps_ref if b.task_id < t else 0.0)
                         for b in budgets[:t]])


def budget_lemma2(budgets, t) -> BudgetReport:
    """Single-block composition: eps_i(T) = eps_i + eps'_i; task 1 is charged no
    reference budget, because the memory is empty when task 1 trains."""
    _check_budgets(budgets, t)
    return BudgetReport([TaskBudget(b.task_id, b.eps_train, b.eps_ref if b.task_id > 1 else 0.0)
                         for b in budgets[:t]])


@dataclass
class PrivacyLedger:
    """The charged steps of one training run, counted per (task, block, q):
    block 0 is the task's own training release, block i >= 1 its exposure
    of stored block i. Lemma 1 charges block i at task T eps_i plus the eps
    of each later task's charges to it, each (t, i), t > i, composed apart.
    Lemma 2 charges task t eps_t plus eps'_t, the eps of one read of the
    memory: all its block charges composed, or, when a read takes one block
    (one_block), the costliest block's. Each q's moment vector is computed
    when the ledger is built."""

    sigma: float
    charges: dict  # (task, block, q) -> steps
    tasks: int     # the report has a row for each of tasks 1..tasks
    one_block: bool = False
    lambda_max: int = DEFAULT_LAMBDA_MAX
    _alphas: dict = field(init=False, repr=False, compare=False)  # q -> its moment vector

    def __post_init__(self):
        lams = np.arange(1, self.lambda_max + 1)
        self._alphas = {q: step_log_moment(q, self.sigma, lams)
                        for q in {q for _, _, q in self.charges}}

    def log_moments(self, rates):
        """alpha(1..lambda_max) of the steps rates counts (q -> n_q): the sum
        over q of n_q * alpha_step(q), in increasing q."""
        return sum((n * self._alphas[q] for q, n in sorted(rates.items())),
                   np.zeros(self.lambda_max))

    def epsilon(self, task_id, blocks, delta) -> float:
        """eps of task_id's charges to blocks; 0 without any, which released nothing."""
        rates = Counter()
        for (t, b, q), n in self.charges.items():
            if t == task_id and b in blocks:
                rates[q] += n
        eps = compose_epsilon(self.log_moments(rates), delta)
        return eps if rates else 0.0

    def report(self, delta, policy: Policy) -> BudgetReport:
        rows, last = [], self.tasks
        for i in range(1, last + 1):
            if policy is Policy.LEMMA1:
                eps_ref = sum((self.epsilon(t, (i,), delta) for t in range(i + 1, last + 1)), 0.0)
            elif self.one_block:
                eps_ref = max((self.epsilon(i, (b,), delta) for b in range(1, i)), default=0.0)
            else:
                eps_ref = self.epsilon(i, range(1, i), delta)
            rows.append(TaskBudget(i, self.epsilon(i, (0,), delta), eps_ref))
        return BudgetReport(rows)
