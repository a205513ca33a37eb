import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dpcl import dp
from dpcl.data import Dataset
from dpcl.dp import NoiseConfig
from dpcl.errors import ConfigError, NumericError
from dpcl.nn import DenseNet, clipped_mean_grad, grad

from _oracles import add_noise, clip_vector

# Clipping has one implementation, nn.clipped_mean_grad; on a one-example
# batch it is the per-vector rule g * min(1, beta/||g||).


def hand_net():
    """[1, 2] net with zero parameters: on x = 1, y = 0 the softmax is
    (1/2, 1/2), so the gradient (W then b) is (-1/2, 1/2, -1/2, 1/2), norm 1."""
    net = DenseNet.create([1, 2], seed=0)
    net.params[...] = 0.0
    return net, Dataset(np.ones((1, 1)), np.zeros(1, dtype=int), 2)


def test_clip_untouched_inside_bound():
    net, one = hand_net()
    assert np.array_equal(clipped_mean_grad(net, one.x, one.y, 10.0), [-0.5, 0.5, -0.5, 0.5])


def test_clip_rescales_to_bound():
    net, one = hand_net()
    out = clipped_mean_grad(net, one.x, one.y, 0.5)
    assert np.allclose(out, [-0.25, 0.25, -0.25, 0.25], atol=1e-15)


def test_clip_zero_vector():
    # one class: the softmax is 1 on the label, so every gradient is zero
    net = DenseNet.create([4, 3, 1], seed=0)
    one = Dataset(np.ones((1, 4)), np.zeros(1, dtype=int), 1)
    assert np.array_equal(clipped_mean_grad(net, one.x, one.y, 0.5), np.zeros(net.num_params))


def test_clip_rejects_bad_inputs():
    net, one = hand_net()
    with pytest.raises(ConfigError):
        clipped_mean_grad(net, one.x, one.y, 0.0)
    one.x[0, 0] = np.nan
    with pytest.raises(NumericError):
        clipped_mean_grad(net, one.x, one.y, 1.0)


@given(seed=st.integers(0, 2**16), log_scale=st.floats(-3, 3), beta=st.floats(1e-6, 1e3))
@settings(max_examples=200, deadline=None)
def test_clip_norm_bound_and_idempotence(seed, log_scale, beta):
    rng = np.random.default_rng(seed)
    net = DenseNet.create([4, 3, 3], seed=seed)
    one = Dataset(rng.standard_normal((1, 4)) * 10**log_scale, rng.integers(0, 3, 1), 3)
    g = grad(net, one.x, one.y)
    clipped = clipped_mean_grad(net, one.x, one.y, beta)
    assert np.linalg.norm(clipped) <= beta + 1e-12
    # idempotent up to one rounding step of the rescale factor
    assert np.allclose(clip_vector(clipped, beta), clipped, rtol=1e-14, atol=0.0)
    if np.linalg.norm(g) <= beta * (1 - 1e-12):  # clear of the ghost norm's rounding
        assert np.array_equal(clipped, g)
    # direction preserved
    if np.linalg.norm(g) > 0 and np.linalg.norm(clipped) > 0:
        cos = g @ clipped / (np.linalg.norm(g) * np.linalg.norm(clipped))
        assert cos == pytest.approx(1.0, abs=1e-9)


def test_negative_noise_seed_rejected():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        NoiseConfig(seed=-1)


def test_add_noise_sigma_zero_is_identity():
    g = np.array([1.0, -2.0, 3.0])
    cfg = NoiseConfig(sigma=0.0, clip_bound=0.5, seed=3)
    assert np.array_equal(add_noise(g, cfg), g)


def test_add_noise_matches_reference_expression_without_mutating_input():
    g = np.linspace(-1.0, 1.0, 1_001)
    before = g.copy()
    cfg = NoiseConfig(sigma=1.7, clip_bound=0.3, seed=9)
    noised = add_noise(g, cfg, (2, 5))
    expected = g + cfg.sigma * cfg.clip_bound * dp.rng(cfg.seed, 201, 2, 5).standard_normal(g.shape)
    assert np.array_equal(noised, expected)
    assert np.array_equal(g, before)
    copy = add_noise(g, NoiseConfig(sigma=0.0, clip_bound=0.3, seed=9))
    assert copy is not g and np.array_equal(copy, g)


def test_add_noise_reproducible_per_address():
    g = np.ones(16)
    cfg = NoiseConfig(sigma=1.0, clip_bound=0.1, seed=5)
    a = add_noise(g, cfg, (1, 2))
    b = add_noise(g, cfg, (1, 2))
    c = add_noise(g, cfg, (1, 3))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_noise_variance_monte_carlo():
    sigma, beta = 1.5, 0.2
    cfg = NoiseConfig(sigma=sigma, clip_bound=beta, seed=11)
    draws = add_noise(np.zeros(100_000), cfg, (0,))
    assert draws.var() == pytest.approx(sigma**2 * beta**2, rel=0.02)


def test_noise_mean_monte_carlo():
    sigma, beta = 1.0, 0.1
    n = 100_000
    cfg = NoiseConfig(sigma=sigma, clip_bound=beta, seed=12)
    g = np.array([0.3, -0.7, 0.0, 2.0, -1.5, 0.25, 0.9, -0.1])
    noised = add_noise(np.tile(g, (n, 1)), cfg, (1,))
    tol = 4 * sigma * beta / np.sqrt(n)
    assert np.all(np.abs(noised.mean(axis=0) - g) <= tol)


def test_streams_pass_chi_square_uniformity():
    # pool z-scores from many distinct addresses; their normal CDF values
    # should be uniform if the streams are independent
    values = np.concatenate([
        dp.rng(7, 201, 0, addr).standard_normal(200) for addr in range(100)
    ])
    u = stats.norm.cdf(values)
    counts, _ = np.histogram(u, bins=20, range=(0.0, 1.0))
    _, p = stats.chisquare(counts)
    assert p > 0.01
