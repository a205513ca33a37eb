import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpcl.data import Dataset, make_synthetic
from dpcl.dp import clip_grad
from dpcl.errors import ConfigError, InputError, NumericError
from dpcl.nn import (
    DenseNet,
    _backward,
    _example_sq_norms,
    accuracy,
    clipped_mean_grad,
    forward,
    grad,
    loss,
)

from _oracles import finite_difference_grad, per_example_grad_matrix, straight_line_forward


def zero_net(dims):
    net = DenseNet.create(dims, seed=0)
    net.set_params(np.zeros(net.num_params))
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
    net.weights[0] = w
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
    net.biases[0] = np.array([1e4, 0.0, 0.0])
    data = Dataset(np.zeros((2, 2)), np.zeros(2, dtype=int), 3)
    assert loss(net, data) < 1e-12


def test_loss_uniform_prediction():
    net = zero_net([4, 10])
    data = Dataset(np.ones((3, 4)), np.array([0, 4, 9]), 10)
    assert loss(net, data) == pytest.approx(np.log(10), abs=1e-12)


def test_loss_two_example_hand_value():
    # logits chosen so true-class probabilities are known exactly
    net = zero_net([1, 2])
    net.weights[0] = np.array([[np.log(3.0), 0.0]])  # probs (0.75, 0.25) at x=1
    data = Dataset(np.ones((2, 1)), np.array([0, 1]), 2)
    expected = -(np.log(0.75) + np.log(0.25)) / 2
    assert loss(net, data) == pytest.approx(expected, abs=1e-12)


def test_loss_empty_batch():
    net = DenseNet.create([2, 2], seed=0)
    with pytest.raises(InputError):
        loss(net, Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2))


def test_grad_zero_at_saturated_minimum():
    net = zero_net([2, 3])
    net.biases[0] = np.array([50.0, 0.0, 0.0])
    data = Dataset(np.zeros((1, 2)), np.zeros(1, dtype=int), 3)
    assert np.linalg.norm(grad(net, data)) < 1e-6


def test_grad_matches_finite_differences():
    net = DenseNet.create([5, 4, 3], seed=11)
    data = make_synthetic(5, 3, 4, 0.6, seed=3)

    def loss_at(params):
        probe = net.clone()
        probe.set_params(params)
        return loss(probe, data)

    g = grad(net, data)
    fd = finite_difference_grad(loss_at, net.get_params())
    rel = np.abs(fd - g) / np.maximum(np.abs(g), 1e-8)
    assert rel.max() < 1e-4


def test_grad_is_mean_over_examples():
    net = DenseNet.create([4, 3, 3], seed=5)
    data = make_synthetic(4, 3, 2, 0.6, seed=9)
    a, b = data.subset([0, 1, 2]), data.subset([3, 4, 5])
    combined = data
    g = grad(net, combined)
    mean_of_parts = (grad(net, a) + grad(net, b)) / 2
    assert np.allclose(g, mean_of_parts, atol=1e-12)


def oracle_matrix(net, data):
    return per_example_grad_matrix(net.weights, net.biases, data.x, data.y)


def fused_norms(net, data):
    return np.sqrt(_example_sq_norms(*_backward(net, data)))


def test_per_example_singleton():
    net = DenseNet.create([4, 3, 3], seed=5)
    data = make_synthetic(4, 3, 1, 0.6, seed=2).subset([0])
    (only,) = oracle_matrix(net, data)
    assert np.allclose(only, grad(net, data), atol=1e-15)
    big = 2 * np.linalg.norm(only)
    assert np.allclose(clipped_mean_grad(net, data, big), grad(net, data), atol=1e-15)


def test_per_example_mean_consistency():
    net = DenseNet.create([4, 3, 3], seed=6)
    data = make_synthetic(4, 3, 3, 0.6, seed=8).subset(range(8))
    stack = oracle_matrix(net, data)
    assert np.abs(stack.mean(axis=0) - grad(net, data)).max() <= 1e-10


def test_per_example_duplicates_identical():
    net = DenseNet.create([4, 3, 3], seed=6)
    data = make_synthetic(4, 3, 2, 0.6, seed=8)
    one, dup = data.subset([0]), data.subset([0, 0])
    n0, n1 = fused_norms(net, dup)
    assert n0 == n1
    beta = n0 / 2  # clips the example
    assert np.allclose(clipped_mean_grad(net, dup, beta), clipped_mean_grad(net, one, beta),
                       rtol=0, atol=1e-15)


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
    return net, Dataset(x, y, dims[-1]).subset(idx)


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
    expected = np.mean([clip_grad(row, beta) for row in oracle], axis=0)
    assert np.abs(clipped_mean_grad(net, data, beta) - expected).max() <= FUSED_TOL * scale
    assert np.abs(grad(net, data) - oracle.mean(axis=0)).max() <= FUSED_TOL * scale


def test_clipped_mean_grad_rejects_nonpositive_bound():
    net = DenseNet.create([4, 3, 3], seed=0)
    with pytest.raises(ConfigError):
        clipped_mean_grad(net, make_synthetic(4, 3, 2, 0.6, seed=0), 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_clipped_mean_grad_raises_on_nonfinite_feature(bad):
    net = DenseNet.create([4, 3, 3], seed=0)
    data = make_synthetic(4, 3, 3, 0.6, seed=0)
    data.x[4, 1] = bad
    with pytest.raises(NumericError):
        clipped_mean_grad(net, data, 0.1)


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


def test_training_determinism_bitwise():
    def run():
        net = DenseNet.create([4, 3, 3], seed=99)
        data = make_synthetic(4, 3, 10, 0.6, seed=4)
        params = net.get_params()
        for _ in range(5):
            params = params - 0.1 * grad(net, data)
            net.set_params(params)
        return net.get_params()

    assert np.array_equal(run(), run())
