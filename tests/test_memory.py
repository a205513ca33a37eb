import numpy as np
import pytest
from scipy import stats

from dpcl.data import Dataset
from dpcl.errors import StateError
from dpcl.memory import (
    EpisodicMemory,
    MiniMemoryBlock,
    available_blocks,
    sample_block,
    sample_indices,
    update_eps_mem,
)

from _oracles import membership_expectation_check


def block_data(task_id, size=8, d=3):
    x = np.full((size, d), float(task_id))
    return Dataset(x, np.zeros(size, dtype=int), 1)


def memory_with(n_blocks, size=8):
    mem = EpisodicMemory()
    for t in range(1, n_blocks + 1):
        mem = update_eps_mem(mem, block_data(t, size), t)
    return mem


def test_update_appends_first_block():
    mem = update_eps_mem(EpisodicMemory(), block_data(1), 1)
    assert mem.task_ids == [1]


def test_update_keeps_order():
    mem = memory_with(2)
    mem = update_eps_mem(mem, block_data(3), 3)
    assert mem.task_ids == [1, 2, 3]


def test_update_rejects_skipped_task():
    mem = memory_with(1)
    with pytest.raises(StateError):
        update_eps_mem(mem, block_data(3), 3)


def test_update_is_append_only():
    mem = memory_with(2)
    before = [b.data.x.copy() for b in mem.blocks]
    bigger = update_eps_mem(mem, block_data(3), 3)
    assert bigger.task_ids == [1, 2, 3]
    assert mem.task_ids == [1, 2]
    for b, x in zip(mem.blocks, before):
        assert np.array_equal(b.data.x, x)


def test_cal_gref_single_block_always_chosen(rng):
    avail = available_blocks(memory_with(1), 2)
    for _ in range(20):
        assert sample_block(avail, rng).task_id == 1


def test_cal_gref_errors_on_first_task():
    with pytest.raises(StateError):
        available_blocks(EpisodicMemory(), 1)
    with pytest.raises(StateError):
        available_blocks(memory_with(1), 1)


def test_cal_gref_block_frequencies(rng):
    avail = available_blocks(memory_with(4), 5)
    draws = 100_000
    counts = np.zeros(4)
    for _ in range(draws):
        counts[sample_block(avail, rng).task_id - 1] += 1
    tol = 3 * np.sqrt(0.25 * 0.75 / draws)
    assert np.all(np.abs(counts / draws - 0.25) <= tol)


def test_cal_gref_uniform_chi_square(rng):
    avail = available_blocks(memory_with(3), 4)
    draws = 10_000
    counts = np.zeros(3)
    for _ in range(draws):
        counts[sample_block(avail, rng).task_id - 1] += 1
    _, p = stats.chisquare(counts)
    assert p > 0.01


def test_cal_gref_oversized_batch_returns_whole_block(rng):
    block = sample_block(available_blocks(memory_with(2, size=5), 3), rng)
    assert len(sample_indices(block, 50, rng)) == 5
    # each element exactly once: use distinguishable feature rows
    distinct = MiniMemoryBlock(1, Dataset(np.arange(5)[:, None] * 1.0, np.zeros(5, dtype=int), 1))
    batch = distinct.data.subset(sample_indices(distinct, 50, rng))
    assert sorted(batch.x[:, 0].tolist()) == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_available_blocks_rejects_gap():
    mem = EpisodicMemory([MiniMemoryBlock(1, block_data(1)), MiniMemoryBlock(3, block_data(3))])
    with pytest.raises(StateError):
        available_blocks(mem, 4)


def test_membership_t2_q1_selects_everything():
    mem = memory_with(1, size=6)
    freqs = membership_expectation_check(mem, 2, 1.0, trials=50)
    assert all(f == 1.0 for f in freqs.values())


def test_membership_q_zero():
    mem = memory_with(2, size=6)
    freqs = membership_expectation_check(mem, 3, 0.0, trials=50)
    assert all(f == 0.0 for f in freqs.values())


def test_membership_expectation_t3_half():
    mem = memory_with(2, size=8)
    trials = 100_000
    freqs = membership_expectation_check(mem, 3, 0.5, trials=trials, seed=5)
    expected = 0.5 / 2
    tol = 3 * np.sqrt(expected * (1 - expected) / trials)
    # 3-sigma per example; allow a single outlier across the 16 examples
    misses = sum(abs(f - expected) > tol for f in freqs.values())
    assert misses <= 1
