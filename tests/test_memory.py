"""The episodic-memory sampler, read from the trainer's own plan records: one
uniformly chosen stored block (agem, dp_cl) or every block (dp_agem), a
without-replacement reference batch of each; and the charge table built from
the config, whose rates are checked against how often the sampler reads."""

import math

import numpy as np
import pytest
from scipy import stats

from dpcl.data import Dataset
from dpcl.dp import NoiseConfig
from dpcl.trainer import _ROLE_BATCH, Mode, TrainConfig, _ledger, _plan, _rng

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
    for record in _plan(cfg, [(3, 0, [5, 5])]):
        (rows,) = record.ref_rows
        assert len(rows) == 5
        batch = gathered(distinct, rows)
        assert sorted(batch.x[:, 0].tolist()) == [0.0, 1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("mode", list(Mode))
def test_every_record_reads_distinct_rows_and_charges_their_share(mode):
    """The training rows of every record are the rows of its step's
    Bernoulli(p) mask, drawn in step order from the task's (_ROLE_BATCH,
    task) generator, sorted, distinct and in range, and the charge table
    built from the config charges the task's training release p on every
    step. For every block a record reads:
    min(k, |block|) distinct rows in range, and the table charges the block
    share * rows / |block| on every step of the task, where share is 1 for
    dp_agem and one over the number of stored blocks otherwise; agem's
    table is empty. Blocks 1 and 4 are smaller than k. The training release
    is noised at std sigma * beta, the reference release at
    sigma * beta / sqrt(B), B the number of blocks it reads."""
    sizes, train_sizes, k = [3, 7, 12, 5, 9], [40, 0, 1, 25, 60], 6
    sigma, beta = 1.3, 0.25
    cfg = TrainConfig(mode=mode, sampling_rate=0.1, ref_batch_size=k, epochs_per_task=3, seed=2,
                      noise=NoiseConfig(sigma=sigma, clip_bound=beta))
    records = list(_plan(cfg, [(t, train_sizes[t - 1], sizes[:t - 1]) for t in range(1, 6)]))
    assert len(records) == 5 * cfg.steps_per_task
    charges = _ledger(cfg, sizes).charges
    if mode is Mode.AGEM:
        assert charges == {}
    mask_rngs = {t: _rng(cfg.seed, _ROLE_BATCH, t) for t in range(1, 6)}
    for record in records:
        stored, n = record.task_id - 1, train_sizes[record.task_id - 1]
        mask = mask_rngs[record.task_id].random(n) < 0.1
        assert np.array_equal(record.train_rows, np.flatnonzero(mask))
        rows = record.train_rows
        assert np.array_equal(rows, np.unique(rows)) and np.all((rows >= 0) & (rows < n))
        if mode is not Mode.AGEM:
            assert charges[record.task_id, 0, cfg.sampling_rate] == cfg.steps_per_task
        if mode is Mode.DP_AGEM or stored == 0:
            assert record.block_ids == tuple(range(1, stored + 1))
        else:
            assert len(record.block_ids) == 1 and 1 <= record.block_ids[0] <= stored
        share = 1.0 if mode is Mode.DP_AGEM or stored == 0 else 1.0 / stored
        assert len(record.ref_rows) == len(record.block_ids)
        for block_id, rows in zip(record.block_ids, record.ref_rows):
            size = sizes[block_id - 1]
            assert len(rows) == min(k, size) == len(np.unique(rows))
            assert rows.min() >= 0 and rows.max() < size
            if mode is not Mode.AGEM:
                q = share * (len(rows) / size)
                assert charges[record.task_id, block_id, q] == cfg.steps_per_task
        blocks = [len(record.block_ids)] if record.block_ids else []
        stds = [sigma * beta / math.sqrt(b) for b in [1] + blocks]
        assert [std for _, std in record.releases] == pytest.approx(stds, rel=1e-15, abs=0)
    assert sum(len(record.train_rows) for record in records) > 0


def assert_read_at(counts, q, steps):
    """counts reads of each row in steps steps lie within 4 binomial standard
    deviations of q reads per step; at q = 1, every row is read every step."""
    tol = 4 * math.sqrt(q * (1 - q) / steps)
    assert np.all(np.abs(np.asarray(counts) / steps - q) <= tol)


def exposures(charges, task_id, steps):
    """block -> the q the table charges task_id for it, block 0 its training
    release; every charge is on each of the task's steps."""
    rates = {b: q for (t, b, q) in charges if t == task_id}
    assert all(charges[task_id, b, q] == steps for b, q in rates.items())
    return rates


def test_dp_cl_table_charges_each_block_the_rate_its_rows_are_read():
    """The 100,000-step dp_cl walk acceptance 5 reads (task 5, four stored
    blocks of 8 rows, k = 4) reads each row of block i about as often as the
    config-built table charges block i on every step; the training q is p."""
    steps = 100_000
    _, read = plan_reads(4, 8, 4, steps, 0)
    cfg = TrainConfig(mode=Mode.DP_CL, sampling_rate=1.0, epochs_per_task=steps,
                      ref_batch_size=4, seed=0)
    rates = exposures(_ledger(cfg, [8] * 5).charges, 5, steps)
    assert sorted(rates) == [0, 1, 2, 3, 4] and rates[0] == cfg.sampling_rate
    for block_id in range(1, 5):
        assert_read_at(read[block_id - 1], rates[block_id], steps)


def test_dp_agem_table_charges_each_block_the_rate_its_rows_are_read():
    """A 2,000-step dp_agem walk of task 5 over stored blocks of 3, 7, 12
    and 5 rows with k = 6, and a 40-row training split at p = 0.1: each row
    of each block, and of the training split, is read about as often as the
    config-built table charges it on every step."""
    sizes, n, k = [3, 7, 12, 5, 9], 40, 6
    cfg = TrainConfig(mode=Mode.DP_AGEM, sampling_rate=0.1, epochs_per_task=200,
                      ref_batch_size=k, seed=1)
    steps = cfg.steps_per_task
    read = [np.zeros(n)] + [np.zeros(size) for size in sizes[:4]]
    for record in _plan(cfg, [(5, n, sizes[:4])]):
        read[0][record.train_rows] += 1
        for block_id, rows in zip(record.block_ids, record.ref_rows):
            read[block_id][rows] += 1
    rates = exposures(_ledger(cfg, sizes).charges, 5, steps)
    assert sorted(rates) == [0, 1, 2, 3, 4] and rates[0] == cfg.sampling_rate
    for block_id, counts in enumerate(read):
        assert_read_at(counts, rates[block_id], steps)


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
