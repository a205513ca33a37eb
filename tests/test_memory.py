"""The episodic-memory samplers: one uniformly chosen stored block, and a
without-replacement reference batch from it."""

import numpy as np
from scipy import stats

from dpcl.data import Dataset
from dpcl.trainer import sample_block, sample_indices

from _oracles import gathered, membership_expectation_check


def block_data(task_id, size=8, d=3):
    x = np.full((size, d), float(task_id))
    return Dataset(x, np.zeros(size, dtype=int), 1)


def memory_with(n_blocks, size=8):
    return [block_data(t, size) for t in range(1, n_blocks + 1)]


def test_cal_gref_single_block_always_chosen(rng):
    for _ in range(20):
        assert sample_block(1, rng) == 0


def test_cal_gref_block_frequencies(rng):
    draws = 100_000
    counts = np.zeros(4)
    for _ in range(draws):
        counts[sample_block(4, rng)] += 1
    tol = 3 * np.sqrt(0.25 * 0.75 / draws)
    assert np.all(np.abs(counts / draws - 0.25) <= tol)


def test_cal_gref_uniform_chi_square(rng):
    draws = 10_000
    counts = np.zeros(3)
    for _ in range(draws):
        counts[sample_block(3, rng)] += 1
    _, p = stats.chisquare(counts)
    assert p > 0.01


def test_cal_gref_oversized_batch_returns_whole_block(rng):
    block = memory_with(2, size=5)[sample_block(2, rng)]
    assert len(sample_indices(len(block), 50, rng)) == 5
    # each element exactly once: use distinguishable feature rows
    distinct = Dataset(np.arange(5)[:, None] * 1.0, np.zeros(5, dtype=int), 1)
    batch = gathered(distinct, sample_indices(len(distinct), 50, rng))
    assert sorted(batch.x[:, 0].tolist()) == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_membership_t2_q1_selects_everything():
    freqs = membership_expectation_check(memory_with(1, size=6), 1.0, trials=50)
    assert all(f == 1.0 for f in freqs.values())


def test_membership_q_zero():
    freqs = membership_expectation_check(memory_with(2, size=6), 0.0, trials=50)
    assert all(f == 0.0 for f in freqs.values())


def test_membership_expectation_t3_half():
    trials = 100_000
    freqs = membership_expectation_check(memory_with(2, size=8), 0.5, trials=trials, seed=5)
    expected = 0.5 / 2
    tol = 3 * np.sqrt(expected * (1 - expected) / trials)
    # 3-sigma per example; allow a single outlier across the 16 examples
    misses = sum(abs(f - expected) > tol for f in freqs.values())
    assert misses <= 1
