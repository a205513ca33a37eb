"""Continual-learning evaluation metrics.

AccuracyMatrix rows are indexed by the last finished task k, columns by the
evaluated task j (both 1-based); only j <= k is populated.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass
class AccuracyMatrix:
    num_tasks: int
    a: np.ndarray = None

    def __post_init__(self):
        if self.a is None:
            self.a = np.full((self.num_tasks, self.num_tasks), np.nan)

    def set(self, k, j, value):
        if not 1 <= j <= k <= self.num_tasks:
            raise InputError(f"need 1 <= j <= k <= {self.num_tasks}, got k={k}, j={j}")
        self.a[k - 1, j - 1] = value

    def get(self, k, j):
        return float(self.a[k - 1, j - 1])

    def row(self, k):
        row = self.a[k - 1, :k]
        if np.isnan(row).any():
            raise InputError(f"row {k} is not fully populated")
        return row

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["after_task"] + [f"task_{j}" for j in range(1, self.num_tasks + 1)])
            for k in range(1, self.num_tasks + 1):
                vals = ["" if np.isnan(v) else repr(float(v)) for v in self.a[k - 1]]
                w.writerow([k] + vals)


def average_accuracy(m: AccuracyMatrix, t) -> float:
    """Mean test accuracy over tasks 1..t after finishing task t."""
    return float(m.row(t).mean())


def forgetting(m: AccuracyMatrix, t):
    """(F, worst-case F) after task t.

    f_j = max over earlier rows of accuracy on task j, minus the final
    accuracy on task j; F is the mean and worst-case the max over j < t.
    """
    if t < 2:
        raise InputError("forgetting needs at least two tasks")
    final = m.row(t)
    f = []
    for j in range(1, t):
        best = max(m.get(k, j) for k in range(j, t))
        f.append(best - final[j - 1])
    f = np.asarray(f)
    return float(f.mean()), float(f.max())


def lca(curve: np.ndarray, beta) -> float:
    """Learning-curve area: mean of the first beta+1 points of the b-shot
    curve, whose point b is the accuracy after b mini-batches averaged over
    tasks."""
    if len(curve) < beta + 1:
        raise InputError(f"curve has {len(curve)} points, need {beta + 1}")
    return float(np.mean(curve[:beta + 1]))
