"""The episodic-memory sampler, read from the trainer's own plan records: one
uniformly chosen stored block (agem, dp_cl) or every block (dp_agem), a
without-replacement reference batch of each, and the q each block is charged."""

import numpy as np
import pytest
from scipy import stats

from dpcl.data import Dataset
from dpcl.trainer import Mode, TrainConfig, _plan

from _oracles import gathered, membership_expectation_check, plan_reads


def block_data(task_id, size=8, d=3):
    x = np.full((size, d), float(task_id))
    return Dataset(x, np.zeros(size, dtype=int), 1)


def memory_with(n_blocks, size=8):
    return [block_data(t, size) for t in range(1, n_blocks + 1)]


def test_cal_gref_single_block_always_chosen():
    chosen, _ = plan_reads(1, 8, 4, 20, 0)
    assert chosen.tolist() == [20]


def test_cal_gref_block_frequencies():
    draws = 100_000
    chosen, _ = plan_reads(4, 8, 4, draws, 0)  # the walk acceptance 5 reads too
    tol = 3 * np.sqrt(0.25 * 0.75 / draws)
    assert np.all(np.abs(chosen / draws - 0.25) <= tol)


def test_cal_gref_uniform_chi_square():
    chosen, _ = plan_reads(3, 8, 4, 10_000, 0)
    _, p = stats.chisquare(chosen)
    assert p > 0.01


def test_cal_gref_oversized_batch_returns_whole_block():
    cfg = TrainConfig(mode=Mode.DP_CL, ref_batch_size=50, epochs_per_task=1, seed=0)
    # each element exactly once: use distinguishable feature rows
    distinct = Dataset(np.arange(5)[:, None] * 1.0, np.zeros(5, dtype=int), 1)
    for record in _plan(cfg, [(3, [5, 5])]):
        (rows,) = record.ref_rows
        assert len(rows) == 5
        batch = gathered(distinct, rows)
        assert sorted(batch.x[:, 0].tolist()) == [0.0, 1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("mode", list(Mode))
def test_every_record_reads_distinct_rows_and_charges_their_share(mode):
    """For every block a record reads: min(k, |block|) distinct rows in range,
    charged share * rows / |block|, where share is 1 for dp_agem and one over
    the number of stored blocks otherwise. Blocks 1 and 4 are smaller than k."""
    sizes, k = [3, 7, 12, 5], 6
    cfg = TrainConfig(mode=mode, sampling_rate=0.1, ref_batch_size=k, epochs_per_task=3, seed=2)
    records = list(_plan(cfg, [(t, sizes[:t - 1]) for t in range(1, 6)]))
    assert len(records) == 5 * cfg.steps_per_task
    for record in records:
        stored = record.task_id - 1
        assert record.q_train == cfg.sampling_rate
        if mode is Mode.DP_AGEM or stored == 0:
            assert record.block_ids == tuple(range(1, stored + 1))
        else:
            assert len(record.block_ids) == 1 and 1 <= record.block_ids[0] <= stored
        share = 1.0 if mode is Mode.DP_AGEM or stored == 0 else 1.0 / stored
        assert len(record.ref_rows) == len(record.q_blocks) == len(record.block_ids)
        for block_id, rows, q in zip(record.block_ids, record.ref_rows, record.q_blocks):
            size = sizes[block_id - 1]
            assert len(rows) == min(k, size) == len(np.unique(rows))
            assert rows.min() >= 0 and rows.max() < size
            assert q == share * (len(rows) / size)


def test_membership_t2_q1_selects_everything():
    freqs = membership_expectation_check(memory_with(1, size=6), 1.0, trials=50)
    assert all(f == 1.0 for f in freqs.values())


def test_membership_q_zero():
    freqs = membership_expectation_check(memory_with(2, size=6), 0.0, trials=50)
    assert all(f == 0.0 for f in freqs.values())


def test_membership_expectation_t3_half():
    trials = 20_000
    freqs = membership_expectation_check(memory_with(2, size=8), 0.5, trials=trials, seed=5)
    expected = 0.5 / 2
    tol = 3 * np.sqrt(expected * (1 - expected) / trials)
    # 3-sigma per example; allow a single outlier across the 16 examples
    misses = sum(abs(f - expected) > tol for f in freqs.values())
    assert misses <= 1
