"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 8 (full-scale permuted-image protocol) only runs when the
DPCL_MNIST_DIR environment variable points at the standard archive files;
its two 17-task runs train in about 8 minutes with one BLAS thread
(measured on synthetic data of the same sizes), and it is not part of the
desk-scale gate.
"""

import functools
import os
import time

import numpy as np
import pytest

import conftest

from dpcl.accountant import compose_epsilon, step_log_moment
from dpcl.cli import budget_curve_table
from dpcl.data import Dataset, make_synthetic, make_permuted_stream
from dpcl.dp import NoiseConfig
from dpcl.metrics import average_accuracy, forgetting
from dpcl.nn import DenseNet, clipped_mean_grad, grad
from dpcl.trainer import Mode, ProjectionRule, TrainConfig, project_gradient, run_stream

from _oracles import (
    add_noise,
    finite_difference_grad,
    loss,
    membership_expectation_check,
    per_example_grad_matrix,
    quad_log_moment,
)


def _announce(line):
    conftest.ACCEPTANCE_RESULTS.append(line)
    print(line)  # visible live under pytest -s


def criterion(number, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                _announce(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            _announce(f"ACCEPTANCE {number} ({name}): PASS [{time.time() - start:.1f}s]")
        return wrapper
    return deco


@criterion(1, "budget accumulation totals and polynomial orders")
def test_budget_accumulation():
    rows = budget_curve_table(1.0, 0.0, 17, seed=0)
    lemma1 = np.array([r[1] for r in rows])
    lemma2 = np.array([r[2] for r in rows])
    assert abs(lemma1[-1] - 153.0) <= 1e-12
    assert abs(lemma2[-1] - 33.0) <= 1e-12
    assert np.all(np.abs(np.diff(lemma1, 2) - np.diff(lemma1, 2)[0]) <= 1e-12)
    assert np.all(np.abs(np.diff(lemma2)[1:] - np.diff(lemma2)[1]) <= 1e-12)


@criterion(2, "projection orthogonality")
def test_projection_orthogonality():
    rng = np.random.default_rng(0)
    for dim in (2, 10, 10_000):
        for _ in range(1000):
            g = rng.standard_normal(dim)
            g_ref = rng.standard_normal(dim)
            out = project_gradient(g, g_ref, ProjectionRule.ALWAYS_EQ2)
            assert abs(out @ g_ref) <= 1e-9 * np.linalg.norm(g) * np.linalg.norm(g_ref)


@criterion(3, "gradient exactness vs finite differences")
def test_gradient_exactness():
    rng = np.random.default_rng(1)
    net = DenseNet.create([16, 8, 4], seed=1)
    x = rng.random((6, 16))
    y = rng.integers(0, 4, size=6)
    batch = Dataset(x, y, 4)

    def loss_at(params):
        return loss(DenseNet(net.layer_dims, params), batch)

    for _ in range(20):
        point = rng.uniform(-0.5, 0.5, net.num_params)
        net.params[...] = point
        g = grad(net, batch.x, batch.y)
        fd = finite_difference_grad(loss_at, point, step=1e-5)
        rel = np.abs(fd - g) / np.maximum(np.abs(g), 1e-8)
        assert rel.max() < 1e-4


@criterion(4, "clipping bound and noise statistics")
def test_clipping_and_noise():
    rng = np.random.default_rng(2)
    beta = 0.1
    norms = []
    for _ in range(2_000):
        dims = [rng.integers(1, 8), rng.integers(1, 8), rng.integers(2, 5)]
        net = DenseNet.create(dims, seed=int(rng.integers(2**16)))
        n = rng.integers(1, 9)
        x = rng.standard_normal((n, dims[0])) * 10 ** rng.uniform(-3, 3)
        batch = Dataset(x, rng.integers(0, dims[-1], n), dims[-1])
        norms.extend(np.linalg.norm(
            per_example_grad_matrix(net.weights, net.biases, batch.x, batch.y), axis=1))
        assert np.linalg.norm(clipped_mean_grad(net, batch.x, batch.y, beta)) <= beta + 1e-12
    assert min(norms) <= 1e-3 and max(norms) >= 1e3
    sigma = 1.0
    cfg = NoiseConfig(sigma=sigma, clip_bound=beta, seed=3)
    draws = add_noise(np.zeros(100_000), cfg, (0,))
    assert abs(draws.var() - sigma**2 * beta**2) <= 0.02 * sigma**2 * beta**2


@criterion(5, "memory sampling unbiasedness")
def test_sampling_unbiasedness():
    block_size, t, q = 8, 5, 0.5
    blocks = [Dataset(np.full((block_size, 2), float(task)), np.zeros(block_size, dtype=int), 1)
              for task in range(1, t)]
    trials = 100_000
    freqs = membership_expectation_check(blocks, q, trials=trials, seed=0)
    expected = q / (t - 1)
    tol = 3 * np.sqrt(expected * (1 - expected) / trials)
    assert all(abs(f - expected) <= tol for f in freqs.values())


@criterion(6, "accountant equivalence and monotonicity")
def test_accountant_oracle_equivalence():
    for q in (0.01, 0.1, 0.5):
        for sigma in (0.8, 1.0, 2.0):
            for lam in (1, 2, 4, 8):
                assert abs(step_log_moment(q, sigma, lam)
                           - quad_log_moment(q, sigma, lam)) <= 1e-6

    def eps(q, sigma, steps, lambda_max=16, delta=1e-5):
        return compose_epsilon(steps * np.array(
            [step_log_moment(q, sigma, lam) for lam in range(1, lambda_max + 1)]), delta)

    qs = [0.01, 0.05, 0.1, 0.3, 0.6]
    sigmas = [0.7, 1.0, 1.5, 2.5, 4.0]
    step_counts = [1, 10, 100, 1000, 5000]
    table = {(q, s, n): eps(q, s, n) for q in qs for s in sigmas for n in step_counts}
    for s in sigmas:
        for n in step_counts:
            assert [table[(q, s, n)] for q in qs] == sorted(table[(q, s, n)] for q in qs)
    for q in qs:
        for n in step_counts:
            vals = [table[(q, s, n)] for s in sigmas]
            assert vals == sorted(vals, reverse=True)
    for q in qs:
        for s in sigmas:
            assert [table[(q, s, n)] for n in step_counts] == sorted(
                table[(q, s, n)] for n in step_counts)


@criterion(7, "desk-scale end-to-end utility ordering")
def test_desk_scale_end_to_end():
    n_tasks, chance = 5, 1 / 5
    base = make_synthetic(64, 5, 60, 0.8, seed=0)
    stream = make_permuted_stream(base, n_tasks, seed=0, ref_fraction=0.2)

    noiseless = run_stream(stream, TrainConfig(
        mode=Mode.AGEM, noise=NoiseConfig(sigma=0.0), hidden_dims=(64, 64),
        sampling_rate=0.2, epochs_per_task=30, ref_batch_size=32,
        learning_rate=0.1, seed=0))
    private = run_stream(stream, TrainConfig(
        mode=Mode.DP_CL, noise=NoiseConfig(sigma=1.0, clip_bound=0.1, seed=0),
        hidden_dims=(64, 64), sampling_rate=0.2, epochs_per_task=120,
        ref_batch_size=32, learning_rate=0.02, seed=0))

    acc_noiseless = average_accuracy(noiseless.matrix, n_tasks)
    acc_private = average_accuracy(private.matrix, n_tasks)
    assert acc_noiseless >= 0.85
    assert chance < acc_private < acc_noiseless
    f_noiseless, _ = forgetting(noiseless.matrix, n_tasks)
    f_private, _ = forgetting(private.matrix, n_tasks)
    assert f_private > f_noiseless


MNIST_DIR = os.environ.get("DPCL_MNIST_DIR", "")


@pytest.mark.skipif(not MNIST_DIR, reason="full-scale protocol: set DPCL_MNIST_DIR")
@criterion(8, "full-scale permuted-image protocol (optional)")
def test_full_scale_optional():
    from dpcl.data import load_idx_archive

    base = load_idx_archive(os.path.join(MNIST_DIR, "train-images-idx3-ubyte"),
                            os.path.join(MNIST_DIR, "train-labels-idx1-ubyte"))
    test = load_idx_archive(os.path.join(MNIST_DIR, "t10k-images-idx3-ubyte"),
                            os.path.join(MNIST_DIR, "t10k-labels-idx1-ubyte"))
    stream = make_permuted_stream(base, 17, seed=0, ref_fraction=0.1, test=test)
    n_train = len(stream.tasks[0][0])

    common = dict(hidden_dims=(256, 256), learning_rate=0.1,
                  sampling_rate=100 / n_train, ref_batch_size=50,
                  epochs_per_task=1, delta=1e-4, seed=0)
    noiseless = run_stream(stream, TrainConfig(
        mode=Mode.AGEM, noise=NoiseConfig(sigma=0.0), **common))
    private = run_stream(stream, TrainConfig(
        mode=Mode.DP_CL, noise=NoiseConfig(sigma=1.0, clip_bound=0.1, seed=0), **common))

    acc = average_accuracy(noiseless.matrix, 17)
    assert abs(acc - 0.793) <= 0.05
    assert average_accuracy(private.matrix, 17) < acc
    f_a, w_a = forgetting(noiseless.matrix, 17)
    f_p, w_p = forgetting(private.matrix, 17)
    assert f_p > f_a and w_p > w_a
    from dpcl.metrics import lca
    assert lca(private.curve, 10) < lca(noiseless.curve, 10)
