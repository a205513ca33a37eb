import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpcl.data import Dataset, make_permuted_stream, make_synthetic
from dpcl.errors import ConfigError, InputError, NumericError
from dpcl.nn import (
    _EVAL_ROWS,
    DenseNet,
    _backward,
    _example_sq_norms,
    accuracy,
    clipped_mean_grad,
    grad,
)

from _oracles import (
    clip_vector,
    finite_difference_grad,
    forward,
    gathered,
    initial_params,
    loss,
    per_example_grad_matrix,
    straight_line_forward,
    whole_accuracy,
)


def zero_net(dims):
    net = DenseNet.create(dims, seed=0)
    net.params[...] = 0.0
    return net


def test_param_count():
    net = DenseNet.create([4, 2, 3], seed=0)
    assert net.num_params == 4 * 2 + 2 + 2 * 3 + 3


def test_forward_zero_weights_is_uniform():
    net = zero_net([4, 3, 5])
    out = forward(net, np.ones(4))
    assert np.allclose(out, 0.2, atol=1e-12)


def test_forward_saturated_logit():
    # single linear layer pushing a huge logit onto class 0
    net = zero_net([3, 3])
    w = np.zeros((3, 3))
    w[0, 0] = 100.0
    net.weights[0][...] = w
    out = forward(net, np.array([1.0, 0.0, 0.0]))
    assert out[0] > 0.99


def test_forward_matches_straight_line_oracle():
    net = DenseNet.create([4, 2, 3], seed=42)
    x = np.random.default_rng(0).standard_normal(4)
    expected = straight_line_forward([w.tolist() for w in net.weights],
                                     [b.tolist() for b in net.biases], x.tolist())
    assert np.allclose(forward(net, x), expected, atol=1e-12)


def test_forward_dimension_mismatch():
    net = DenseNet.create([4, 2, 3], seed=0)
    with pytest.raises(InputError):
        forward(net, np.ones(5))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_forward_softmax_normalized(seed):
    net = DenseNet.create([6, 5, 4], seed=seed)
    x = np.random.default_rng(seed).standard_normal(6) * 10
    out = forward(net, x)
    assert abs(out.sum() - 1.0) <= 1e-9
    assert np.all(out >= 0) and np.all(out <= 1)


def test_loss_perfect_prediction_is_zero():
    net = zero_net([2, 3])
    net.biases[0][...] = np.array([1e4, 0.0, 0.0])
    data = Dataset(np.zeros((2, 2)), np.zeros(2, dtype=int), 3)
    assert loss(net, data) < 1e-12


def test_loss_uniform_prediction():
    net = zero_net([4, 10])
    data = Dataset(np.ones((3, 4)), np.array([0, 4, 9]), 10)
    assert loss(net, data) == pytest.approx(np.log(10), abs=1e-12)


def test_loss_two_example_hand_value():
    # logits chosen so true-class probabilities are known exactly
    net = zero_net([1, 2])
    net.weights[0][...] = np.array([[np.log(3.0), 0.0]])  # probs (0.75, 0.25) at x=1
    data = Dataset(np.ones((2, 1)), np.array([0, 1]), 2)
    expected = -(np.log(0.75) + np.log(0.25)) / 2
    assert loss(net, data) == pytest.approx(expected, abs=1e-12)


def test_loss_empty_batch():
    net = DenseNet.create([2, 2], seed=0)
    with pytest.raises(InputError):
        loss(net, Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2))


def test_grad_zero_at_saturated_minimum():
    net = zero_net([2, 3])
    net.biases[0][...] = np.array([50.0, 0.0, 0.0])
    data = Dataset(np.zeros((1, 2)), np.zeros(1, dtype=int), 3)
    assert np.linalg.norm(grad(net, data.x, data.y)) < 1e-6


def test_grad_matches_finite_differences():
    net = DenseNet.create([5, 4, 3], seed=11)
    data = make_synthetic(5, 3, 4, 0.6, seed=3)

    def loss_at(params):
        return loss(DenseNet(net.layer_dims, params), data)

    g = grad(net, data.x, data.y)
    fd = finite_difference_grad(loss_at, net.params.copy())
    rel = np.abs(fd - g) / np.maximum(np.abs(g), 1e-8)
    assert rel.max() < 1e-4


def test_grad_is_mean_over_examples():
    net = DenseNet.create([4, 3, 3], seed=5)
    data = make_synthetic(4, 3, 2, 0.6, seed=9)
    a, b = gathered(data, [0, 1, 2]), gathered(data, [3, 4, 5])
    combined = data
    g = grad(net, combined.x, combined.y)
    mean_of_parts = (grad(net, a.x, a.y) + grad(net, b.x, b.y)) / 2
    assert np.allclose(g, mean_of_parts, atol=1e-12)


def oracle_matrix(net, data):
    return per_example_grad_matrix(net.weights, net.biases, data.x, data.y)


def fused_norms(net, data):
    return np.sqrt(_example_sq_norms(*_backward(net, data.x, data.y)))


@pytest.mark.parametrize("dims,seed", [([4, 2, 3], 0), ([6, 5, 4, 3], 7), ([3, 2], 12)])
def test_create_draws_the_oracle_initial_params(dims, seed):
    assert np.array_equal(DenseNet.create(dims, seed=seed).params, initial_params(dims, seed))


def test_every_layer_is_a_view_of_params():
    net = DenseNet.create([5, 4, 3, 2], seed=3)
    for w, b in zip(net.weights, net.biases):
        assert np.shares_memory(w, net.params) and np.shares_memory(b, net.params)
    net.params[:] = np.arange(net.num_params)
    flat = np.concatenate([np.concatenate([w.ravel(), b]) for w, b in zip(net.weights, net.biases)])
    assert np.array_equal(flat, np.arange(net.num_params))


def test_no_layer_or_store_can_be_rebound():
    net = DenseNet.create([3, 4, 2], seed=1)
    with pytest.raises(TypeError):
        net.weights[0] = np.zeros((3, 4))
    with pytest.raises(TypeError):
        net.biases[1] = np.zeros(2)
    with pytest.raises(AttributeError):
        net.params = np.zeros(net.num_params)


def test_constructor_keeps_params_as_the_store():
    params = np.zeros(3 * 2 + 2)
    assert DenseNet([3, 2], params).params is params


@pytest.mark.parametrize("params", [np.zeros(7), np.zeros(8, dtype=np.float32),
                                    np.zeros(16)[::2], [0.0] * 8])
def test_constructor_rejects_a_vector_it_cannot_view(params):
    with pytest.raises(InputError):
        DenseNet([3, 2], params)


def test_writing_params_changes_accuracy():
    net = DenseNet.create([2, 4, 3], seed=0)
    data = Dataset(np.ones((4, 2)), np.array([1, 1, 1, 1]), 3)
    net.params[:] = 0.0
    net.params[-3:] = [0.0, 1.0, 0.0]  # the output biases favour class 1
    assert accuracy(net, data) == 1.0
    net.params[-3:] = [1.0, 0.0, 0.0]
    assert accuracy(net, data) == 0.0


def test_successive_gradients_do_not_share_memory():
    net = DenseNet.create([4, 3, 3], seed=5)
    data = make_synthetic(4, 3, 2, 0.6, seed=2)
    x, y = data.x, data.y
    for first, second in [(grad(net, x, y), grad(net, x, y)),
                          (clipped_mean_grad(net, x, y, 0.1), clipped_mean_grad(net, x, y, 0.1))]:
        assert np.array_equal(first, second)
        assert not np.shares_memory(first, second)


def test_per_example_singleton():
    net = DenseNet.create([4, 3, 3], seed=5)
    data = gathered(make_synthetic(4, 3, 1, 0.6, seed=2), [0])
    (only,) = oracle_matrix(net, data)
    assert np.allclose(only, grad(net, data.x, data.y), atol=1e-15)
    big = 2 * np.linalg.norm(only)
    assert np.allclose(clipped_mean_grad(net, data.x, data.y, big), grad(net, data.x, data.y),
                       atol=1e-15)


def test_per_example_mean_consistency():
    net = DenseNet.create([4, 3, 3], seed=6)
    data = gathered(make_synthetic(4, 3, 3, 0.6, seed=8), range(8))
    stack = oracle_matrix(net, data)
    assert np.abs(stack.mean(axis=0) - grad(net, data.x, data.y)).max() <= 1e-10


def test_per_example_duplicates_identical():
    net = DenseNet.create([4, 3, 3], seed=6)
    data = make_synthetic(4, 3, 2, 0.6, seed=8)
    one, dup = gathered(data, [0]), gathered(data, [0, 0])
    n0, n1 = fused_norms(net, dup)
    assert n0 == n1
    beta = n0 / 2  # clips the example
    assert np.allclose(clipped_mean_grad(net, dup.x, dup.y, beta),
                       clipped_mean_grad(net, one.x, one.y, beta), rtol=0, atol=1e-15)


# The fused path sums over examples with a matmul where the oracle builds
# every row and then averages, so the two agree only up to rounding, about
# n * 2^-52 of the largest per-example entry (worst seen: 5e-16 over 3,000
# random nets and batches). 1e-12 of that entry leaves a wide margin and
# still catches a wrong row, scale or clip factor.
FUSED_TOL = 1e-12


@st.composite
def nets_and_batches(draw):
    dims = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    dims[-1] = max(dims[-1], 2)
    net = DenseNet.create(dims, seed=draw(st.integers(0, 2**16)))
    pool = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = rng.standard_normal((pool, dims[0])) * draw(st.sampled_from([0.1, 1.0, 10.0]))
    y = rng.integers(0, dims[-1], size=pool)
    # indices drawn with replacement, so batches of 1 and duplicated rows occur
    idx = draw(st.lists(st.integers(0, pool - 1), min_size=1, max_size=8))
    return net, gathered(Dataset(x, y, dims[-1]), idx)


@given(case=nets_and_batches(), regime=st.sampled_from(["none", "some", "all"]),
       frac=st.floats(0.05, 0.95))
@settings(max_examples=150, deadline=None)
def test_fused_paths_match_per_example_oracle(case, regime, frac):
    net, data = case
    oracle = oracle_matrix(net, data)
    norms = np.linalg.norm(oracle, axis=1)
    assume(norms.min() > 0)
    beta = {"none": 2 * norms.max(), "all": frac * norms.min(),
            "some": norms.min() + frac * (norms.max() - norms.min())}[regime]
    scale = np.abs(oracle).max()

    assert np.abs(fused_norms(net, data) - norms).max() <= FUSED_TOL * norms.max()
    expected = np.mean([clip_vector(row, beta) for row in oracle], axis=0)
    x, y = data.x, data.y
    assert np.abs(clipped_mean_grad(net, x, y, beta) - expected).max() <= FUSED_TOL * scale
    assert np.abs(grad(net, x, y) - oracle.mean(axis=0)).max() <= FUSED_TOL * scale


def test_clipped_mean_grad_rejects_nonpositive_bound():
    net = DenseNet.create([4, 3, 3], seed=0)
    data = make_synthetic(4, 3, 2, 0.6, seed=0)
    with pytest.raises(ConfigError):
        clipped_mean_grad(net, data.x, data.y, 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_clipped_mean_grad_raises_on_nonfinite_feature(bad):
    net = DenseNet.create([4, 3, 3], seed=0)
    data = make_synthetic(4, 3, 3, 0.6, seed=0)
    data.x[4, 1] = bad
    with pytest.raises(NumericError):
        clipped_mean_grad(net, data.x, data.y, 0.1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grad_raises_on_nonfinite_feature(bad):
    net = DenseNet.create([4, 3, 3], seed=0)
    data = make_synthetic(4, 3, 3, 0.6, seed=0)
    data.x[4, 1] = bad
    with pytest.raises(NumericError):
        grad(net, data.x, data.y)


def test_accuracy_perfect_and_crafted_zero():
    net = zero_net([2, 3])
    # zero net predicts class 0 always (argmax ties break low)
    all_zero_labels = Dataset(np.ones((4, 2)), np.zeros(4, dtype=int), 3)
    assert accuracy(net, all_zero_labels) == 1.0
    no_zero_labels = Dataset(np.ones((4, 2)), np.array([1, 2, 1, 2]), 3)
    assert accuracy(net, no_zero_labels) == 0.0


def test_accuracy_half_correct():
    net = zero_net([2, 2])
    data = Dataset(np.ones((4, 2)), np.array([0, 0, 1, 1]), 2)
    assert accuracy(net, data) == 0.5


def test_accuracy_empty_dataset():
    net = DenseNet.create([2, 2], seed=0)
    with pytest.raises(InputError):
        accuracy(net, Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2))


def evaluated_split(kind, n, d=20, classes=4, seed=0):
    """An n-row test split: carved off a base, a given test set, or a plain Dataset."""
    rng = np.random.default_rng(seed)

    def examples(rows):
        return Dataset(rng.random((rows, d)), rng.integers(0, classes, rows), classes)

    if kind == "dataset":
        return examples(n)
    if kind == "carved":
        base = examples(n + 20)
        return make_permuted_stream(base, 2, seed, test_fraction=n / len(base)).tasks[1][2]
    return make_permuted_stream(examples(20), 2, seed, test=examples(n)).tasks[1][2]


# A chunk is multiplied apart from the rest of the split, and BLAS may take
# another kernel for it (gemv for one row, small-matrix kernels for a few),
# so its logits can differ from the one-pass logits by rounding: up to
# 1.6e-16 seen on logits of size 1 at 784-256-256-10 with OpenBLAS. 1e-12 of
# the largest logit leaves a wide margin and still catches a wrong row.
LOGIT_TOL = 1e-12


@pytest.mark.parametrize("kind", ["carved", "given", "dataset"])
@pytest.mark.parametrize("n", [1, 499, 500, 501, 1250])
def test_chunked_accuracy_is_the_one_pass_accuracy(kind, n, monkeypatch):
    split = evaluated_split(kind, n)
    net = DenseNet.create([split.feature_dim, 16, 16, split.num_classes], seed=n)
    whole = gathered(split)
    _, logits = net._forward_batch(whole.x)
    chunks, real = [], DenseNet._forward_batch

    def recorded(self, x):
        acts, out = real(self, x)
        chunks.append((x.copy(), out))
        return acts, out

    monkeypatch.setattr(DenseNet, "_forward_batch", recorded)
    acc = accuracy(net, split)
    monkeypatch.undo()
    assert acc == whole_accuracy(net, split)
    assert [len(x) for x, _ in chunks] == [min(_EVAL_ROWS, n - s) for s in range(0, n, _EVAL_ROWS)]
    assert np.array_equal(np.concatenate([x for x, _ in chunks]), whole.x)
    part = np.concatenate([out for _, out in chunks])
    assert np.abs(part - logits).max() <= LOGIT_TOL * np.abs(logits).max()


def test_accuracy_gathers_one_chunk_at_a_time():
    split = evaluated_split("given", 4_000, d=784, classes=10)
    net = DenseNet.create([784, 64, 10], seed=1)
    tracemalloc.start()
    try:
        accuracy(net, split)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(split) * split.feature_dim * 8 / 2


def test_training_determinism_bitwise():
    def run():
        net = DenseNet.create([4, 3, 3], seed=99)
        data = make_synthetic(4, 3, 10, 0.6, seed=4)
        params = net.params.copy()
        for _ in range(5):
            params = params - 0.1 * grad(net, data.x, data.y)
            net.params[...] = params
        return net.params.copy()

    assert np.array_equal(run(), run())
