import gc
import math
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcl import dp, nn, trainer
from dpcl.accountant import MomentState, PrivacyLedger
from dpcl.data import Dataset, TaskSplit, TaskStream, make_permuted_stream, make_synthetic
from dpcl.dp import NoiseConfig
from dpcl.errors import ConfigError, NumericError
from dpcl.trainer import (
    Mode,
    ProjectionRule,
    TrainConfig,
    _rng,
    _ROLE_BATCH,
    _ROLE_BLOCK,
    _ROLE_REF_IDX,
    _ROLE_REF_NOISE,
    _ROLE_TRAIN_NOISE,
    _batch_grad,
    _ref_grad,
    project_gradient,
    run_stream,
    sample_indices,
    train_task,
)

from _oracles import add_noise, gathered


def small_stream(n_tasks=3, d=8, classes=3, per_class=20, seed=0):
    base = make_synthetic(d, classes, per_class, 0.6, seed)
    return make_permuted_stream(base, n_tasks, seed, ref_fraction=0.2)


def agem_cfg(**kw):
    defaults = dict(mode=Mode.AGEM, noise=NoiseConfig(sigma=0.0),
                    hidden_dims=(8,), sampling_rate=0.25, epochs_per_task=5,
                    ref_batch_size=4, seed=3)
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_projection_orthogonal_input_unchanged():
    g, g_ref = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    for rule in ProjectionRule:
        assert np.array_equal(project_gradient(g, g_ref, rule), g)


def test_projection_parallel_case():
    g = np.array([1.0, 1.0])
    assert np.allclose(project_gradient(g, g, ProjectionRule.ALWAYS_EQ2), 0.0, atol=1e-15)
    assert np.array_equal(project_gradient(g, g, ProjectionRule.ONLY_IF_CONFLICT), g)


def test_projection_hand_value():
    out = project_gradient(np.array([2.0, 0.0]), np.array([1.0, 1.0]),
                           ProjectionRule.ALWAYS_EQ2)
    assert np.allclose(out, [1.0, -1.0], atol=1e-12)
    assert out @ np.array([1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)


def test_projection_zero_reference_returns_g():
    g = np.array([1.0, 2.0])
    assert np.array_equal(project_gradient(g, np.zeros(2), ProjectionRule.ALWAYS_EQ2), g)


@pytest.mark.parametrize("rule", list(ProjectionRule))
def test_projection_leaves_its_arguments_unchanged(rule):
    g, g_ref = np.array([1.0, -2.0, 0.5]), np.array([-1.0, 1.0, 3.0])
    g_before, ref_before = g.copy(), g_ref.copy()
    out = project_gradient(g, g_ref, rule)
    assert not np.array_equal(out, g)  # the pair conflicts, so both rules project
    assert np.array_equal(g, g_before) and np.array_equal(g_ref, ref_before)


@given(seed=st.integers(0, 10_000), dim=st.sampled_from([2, 10, 100]))
@settings(max_examples=100, deadline=None)
def test_projection_orthogonality_property(seed, dim):
    rng = np.random.default_rng(seed)
    g, g_ref = rng.standard_normal(dim), rng.standard_normal(dim)
    out = project_gradient(g, g_ref, ProjectionRule.ALWAYS_EQ2)
    assert abs(out @ g_ref) <= 1e-9 * np.linalg.norm(g) * np.linalg.norm(g_ref)
    conflict_out = project_gradient(g, g_ref, ProjectionRule.ONLY_IF_CONFLICT)
    assert conflict_out @ g_ref >= -1e-9 * np.linalg.norm(g) * np.linalg.norm(g_ref)


def train_package(stream, cfg, dims):
    """Final parameters of train_task run through the stream without a ledger."""
    net = nn.DenseNet.create(dims, seed=cfg.seed)
    for t, (train_split, _, _, _) in enumerate(stream.tasks, start=1):
        net = train_task(net, train_split, [ref for _, ref, _, _ in stream.tasks[:t - 1]],
                         None, cfg, t)
    return net.get_params()


def agem_reference_params(stream, cfg, dims):
    """Straight-line reimplementation of the noiseless update loop."""
    ref_net = nn.DenseNet.create(dims, seed=cfg.seed)
    params = ref_net.get_params()
    blocks = []
    for t, (train_split, ref_split, _, _) in enumerate(stream.tasks, start=1):
        for step in range(cfg.steps_per_task):
            mask = _rng(cfg.seed, _ROLE_BATCH, t, step).random(len(train_split)) < cfg.sampling_rate
            if mask.any():
                g = nn.grad(ref_net, gathered(train_split, np.flatnonzero(mask)))
            else:
                g = np.zeros(ref_net.num_params)
            if t > 1:
                choice = _rng(cfg.seed, _ROLE_BLOCK, t, step).integers(len(blocks))
                block_id, block = blocks[choice]
                k = min(cfg.ref_batch_size, len(block))
                idx = _rng(cfg.seed, _ROLE_REF_IDX, t, step, block_id).choice(
                    len(block), size=k, replace=False)
                g_ref = nn.grad(ref_net, gathered(block, idx))
                denom = g_ref @ g_ref
                if denom > 0:
                    g = g - (g @ g_ref) / denom * g_ref
            params = params - cfg.learning_rate * g
            ref_net.set_params(params)
        blocks.append((t, ref_split))
    return params


def private_reference_params(stream, cfg, dims):
    """Straight-line private loop built from the public allocating functions;
    from task 3 on, dp_agem reads several stored blocks in one release."""
    beta = cfg.noise.clip_bound
    ref_net = nn.DenseNet.create(dims, seed=cfg.seed)
    params = ref_net.get_params()
    for t, (train_split, _, _, _) in enumerate(stream.tasks, start=1):
        blocks = [ref for _, ref, _, _ in stream.tasks[:t - 1]]
        for step in range(cfg.steps_per_task):
            mask = _rng(cfg.seed, _ROLE_BATCH, t, step).random(len(train_split)) < cfg.sampling_rate
            g = (nn.clipped_mean_grad(ref_net, gathered(train_split, np.flatnonzero(mask)), beta)
                 if mask.any() else np.zeros(ref_net.num_params))
            g = add_noise(g, cfg.noise, (_ROLE_TRAIN_NOISE, t, step))
            if blocks:
                if cfg.mode is Mode.DP_AGEM:
                    ids = list(range(1, t))
                else:
                    ids = [1 + _rng(cfg.seed, _ROLE_BLOCK, t, step).integers(len(blocks))]
                batches = [gathered(blocks[i - 1], sample_indices(
                    len(blocks[i - 1]), cfg.ref_batch_size, _rng(cfg.seed, _ROLE_REF_IDX, t, step, i)))
                    for i in ids]
                address = (_ROLE_REF_NOISE, t, step, *ids)
                if len(batches) == 1:
                    g_ref = add_noise(nn.clipped_mean_grad(ref_net, batches[0], beta),
                                         cfg.noise, address)
                else:
                    joint = Dataset(np.concatenate([b.x for b in batches]),
                                    np.concatenate([b.y for b in batches]),
                                    batches[0].num_classes)
                    sizes = [len(b) for b in batches]
                    noise = replace(cfg.noise, sigma=cfg.noise.sigma / math.sqrt(len(sizes)))
                    g_ref = add_noise(nn.clipped_mean_grad(ref_net, joint, beta, sizes),
                                         noise, address)
                g = project_gradient(g, g_ref, cfg.projection_rule)
            params = params - cfg.learning_rate * g
            ref_net.set_params(params)
    return params


def private_cfg(mode, **kw):
    return agem_cfg(mode=mode, noise=NoiseConfig(sigma=0.7, clip_bound=0.5, seed=4), **kw)


def record_draw_threads(monkeypatch, helper_delay=0.0):
    """Record, for every noise draw, whether it ran on the main thread; a
    draw on another thread first sleeps helper_delay seconds."""
    on_main = []
    real = dp.noise_rng

    def recorded(seed, address=()):
        on_main.append(threading.current_thread() is threading.main_thread())
        if not on_main[-1]:
            time.sleep(helper_delay)
        return real(seed, address)

    monkeypatch.setattr(dp, "noise_rng", recorded)
    return on_main


def captured_buffers(monkeypatch):
    """The step buffers of every noise source made from here on, in order."""
    seen = []
    real = trainer._NoiseSource.__init__

    def recording(self, cfg, plan, buffers):
        seen.append(buffers)
        real(self, cfg, plan, buffers)

    monkeypatch.setattr(trainer._NoiseSource, "__init__", recording)
    return seen


def test_agem_matches_reference_loop_bitwise():
    stream = small_stream(2)
    cfg = agem_cfg()
    dims = [stream.tasks[0][0].feature_dim, 8, 3]
    assert np.array_equal(train_package(stream, cfg, dims), agem_reference_params(stream, cfg, dims))


@pytest.mark.parametrize("mode", [Mode.DP_CL, Mode.DP_AGEM])
def test_private_modes_match_reference_loop_bitwise(mode):
    stream = small_stream(3)
    cfg = private_cfg(mode)
    dims = [stream.tasks[0][0].feature_dim, 8, 3]
    assert np.array_equal(train_package(stream, cfg, dims),
                          private_reference_params(stream, cfg, dims))


@pytest.mark.parametrize("mode", [Mode.DP_CL, Mode.DP_AGEM])
def test_private_modes_drawing_ahead_match_reference_loop_bitwise(mode, monkeypatch):
    """With the gate at 0, the small nets draw their noise on the helper thread."""
    stream = small_stream(3)
    cfg = private_cfg(mode)
    dims = [stream.tasks[0][0].feature_dim, 8, 3]
    inline = run_stream(stream, cfg)
    monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", 0)
    on_main = record_draw_threads(monkeypatch)
    ahead = run_stream(stream, cfg)
    assert on_main and not any(on_main)
    assert np.array_equal(ahead.net.get_params(), inline.net.get_params())
    assert ahead.report.total == inline.report.total
    assert np.array_equal(train_package(stream, cfg, dims),
                          private_reference_params(stream, cfg, dims))


def test_full_width_private_run_draws_ahead_bitwise(monkeypatch):
    """784-256-256-10 is above the gate: its draws leave the main thread
    without patching, and the run is bitwise that of an inline draw."""
    base = make_synthetic(784, 10, 10, 0.6, seed=1)
    stream = make_permuted_stream(base, 2, seed=1, ref_fraction=0.2)
    cfg = private_cfg(Mode.DP_CL, hidden_dims=(256, 256), epochs_per_task=1, ref_batch_size=8)
    dims = [784, 256, 256, 10]
    on_main = record_draw_threads(monkeypatch)
    ahead = run_stream(stream, cfg)
    assert ahead.net.num_params >= trainer._DRAW_AHEAD_MIN_PARAMS
    assert on_main and not any(on_main)
    assert np.array_equal(ahead.net.get_params(), private_reference_params(stream, cfg, dims))
    monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", ahead.net.num_params + 1)
    inline = run_stream(stream, cfg)
    assert np.array_equal(ahead.net.get_params(), inline.net.get_params())
    assert ahead.report.total == inline.report.total


def test_drawing_ahead_stays_bitwise_under_thread_stress(monkeypatch):
    """Six runs at once, each with its own helper thread (one per task for
    train_task alone, one for the whole run for run_stream), on a short
    switch interval: a draw read before it is complete, or a buffer handed
    back while still in use, would change the parameters."""
    monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", 0)
    stream = small_stream(3)
    cfg = private_cfg(Mode.DP_AGEM)
    dims = [stream.tasks[0][0].feature_dim, 8, 3]
    expected = private_reference_params(stream, cfg, dims)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(6) as pool:
            runs = [pool.submit(train_package, stream, cfg, dims) for _ in range(4)]
            runs += [pool.submit(lambda: run_stream(stream, cfg).net.params) for _ in range(2)]
            results = [run.result(timeout=60) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    for params in results:
        assert np.array_equal(params, expected)


@pytest.mark.parametrize("draw_ahead", [False, True])
@pytest.mark.parametrize("mode", list(Mode))
def test_empty_batch_steps_match_reference_loop_bitwise(mode, draw_ahead, monkeypatch):
    """Two training examples at p = 0.25 leave most steps without a batch."""
    stream = small_stream(2)
    stream = TaskStream([(gathered(train, [0, 1]), ref, test, perm)
                         for train, ref, test, perm in stream.tasks])
    cfg = agem_cfg() if mode is Mode.AGEM else private_cfg(mode)
    empty_steps = sum(not (_rng(cfg.seed, _ROLE_BATCH, t, step).random(2) < 0.25).any()
                      for t in (1, 2) for step in range(cfg.steps_per_task))
    assert empty_steps > 0
    if draw_ahead:
        monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", 0)
    dims = [stream.tasks[0][0].feature_dim, 8, 3]
    reference = agem_reference_params if mode is Mode.AGEM else private_reference_params
    assert np.array_equal(train_package(stream, cfg, dims), reference(stream, cfg, dims))


def check_no_buffer_read_before_write(mode):
    stream = small_stream(3)
    sigma = 0.0 if mode is Mode.AGEM else 0.7
    cfg = agem_cfg(mode=mode, noise=NoiseConfig(sigma=sigma, clip_bound=0.5, seed=4))
    blocks = [ref for _, ref, _, _ in stream.tasks[:2]]
    d = stream.tasks[0][0].feature_dim
    fresh = train_task(nn.DenseNet.create([d, 8, 3], seed=1), stream.tasks[2][0], blocks,
                       None, cfg, 3)
    poisoned = nn.DenseNet.create([d, 8, 3], seed=1)
    buffers = np.full((3, poisoned.num_params), np.nan)
    plan = trainer._plan(cfg, [(3, [len(block) for block in blocks])])
    with trainer._NoiseSource(cfg, plan, buffers) as noise:
        train_task(poisoned, stream.tasks[2][0], blocks, None, cfg, 3, noise=noise)
    assert np.array_equal(poisoned.get_params(), fresh.get_params())
    assert np.all(np.isfinite(buffers))  # every buffer was written by the steps


def test_train_task_updates_params_in_place():
    stream = small_stream(2)
    cfg = private_cfg(Mode.DP_CL, epochs_per_task=1)
    net = nn.DenseNet.create([stream.tasks[0][0].feature_dim, 8, 3], seed=1)
    store, before = net.params, net.get_params()
    assert train_task(net, stream.tasks[1][0], [stream.tasks[0][1]], None, cfg, 2) is net
    assert net.params is store and not np.array_equal(store, before)


@pytest.mark.parametrize("mode", list(Mode))
def test_run_stream_neither_copies_params_out_nor_in(mode, monkeypatch):
    for name in ("get_params", "set_params"):
        monkeypatch.setattr(nn.DenseNet, name, lambda *a, _n=name: pytest.fail(_n))
    sigma = 0.0 if mode is Mode.AGEM else 0.7
    run_stream(small_stream(3), agem_cfg(mode=mode, epochs_per_task=1,
                                         noise=NoiseConfig(sigma=sigma, clip_bound=0.5)))


def test_full_width_run_holds_under_five_parameter_vectors():
    """A two-task 784-256-256-10 dp_cl run at batch about 100 holds the
    params and the three step buffers, plus activations; the traced peak
    was 6.0 parameter vectors while training kept a second copy of params."""
    base = make_synthetic(784, 10, 21, 0.8, seed=1)
    stream = make_permuted_stream(base, 2, seed=1, ref_fraction=1 / 3)
    cfg = TrainConfig(mode=Mode.DP_CL, sampling_rate=100 / len(stream.tasks[0][0]),
                      ref_batch_size=50, hidden_dims=(256, 256),
                      noise=NoiseConfig(sigma=1.0, clip_bound=0.1, seed=1), seed=1)
    vector_bytes = nn.DenseNet.create([784, 256, 256, 10]).params.nbytes
    tracemalloc.start()
    try:
        run_stream(stream, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * vector_bytes, peak / vector_bytes


@pytest.mark.parametrize("mode", list(Mode))
def test_train_task_never_reads_a_buffer_before_writing_it(mode):
    check_no_buffer_read_before_write(mode)


@pytest.mark.parametrize("mode", [Mode.DP_CL, Mode.DP_AGEM])
def test_train_task_drawing_ahead_never_reads_a_buffer_before_writing_it(mode, monkeypatch):
    monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", 0)
    check_no_buffer_read_before_write(mode)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("nan_feature", [False, True])
def test_no_draw_outlives_train_task(nan_feature, monkeypatch):
    """The helper thread is joined when train_task returns and when a NaN
    feature makes it raise; each helper draw is slowed, so a draw left
    running would land in the buffers after the call."""
    monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", 0)
    on_main = record_draw_threads(monkeypatch, helper_delay=0.02)
    stream = small_stream(2)
    train = stream.tasks[1][0]
    if nan_feature:
        train = gathered(train)
        train.x[:, 0] = np.nan
    cfg = private_cfg(Mode.DP_CL, epochs_per_task=1)
    net = nn.DenseNet.create([train.feature_dim, 8, 3], seed=1)
    seen = captured_buffers(monkeypatch)
    threads = threading.active_count()
    if nan_feature:
        with pytest.raises(NumericError):
            train_task(net, train, [stream.tasks[0][1]], None, cfg, 2)
    else:
        train_task(net, train, [stream.tasks[0][1]], None, cfg, 2)
    assert threading.active_count() == threads
    assert on_main and not any(on_main)
    (buffers,) = seen  # the task's own source, made by train_task
    after = buffers.copy()
    time.sleep(0.1)
    assert np.array_equal(buffers, after, equal_nan=True)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_no_draw_outlives_a_run_that_raises_in_task_two(monkeypatch):
    """run_stream's helper thread is joined when a NaN feature in task 2
    makes the run raise; each helper draw is slowed, so a draw left running
    would land in the run's buffers after the call."""
    monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", 0)
    on_main = record_draw_threads(monkeypatch, helper_delay=0.02)
    stream = small_stream(3)
    train, ref, test, perm = stream.tasks[1]
    train = gathered(train)
    train.x[:, 0] = np.nan
    stream = TaskStream([stream.tasks[0], (train, ref, test, perm), stream.tasks[2]])
    seen = captured_buffers(monkeypatch)
    threads = threading.active_count()
    with pytest.raises(NumericError):
        run_stream(stream, private_cfg(Mode.DP_AGEM, epochs_per_task=1))
    assert threading.active_count() == threads
    assert on_main and not any(on_main)
    (buffers,) = seen  # one source for the whole run
    after = buffers.copy()
    time.sleep(0.1)
    assert np.array_equal(buffers, after, equal_nan=True)


@pytest.mark.parametrize("gate", [0, 1 << 16])
@pytest.mark.parametrize("mode", list(Mode))
def test_step_buffers_are_freed_when_training_returns(mode, gate, monkeypatch):
    """No reference cycle keeps a finished noise source alive, so the step
    buffers of run_stream and of train_task alone are freed on return, not
    whenever the cyclic collector next runs."""
    monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", gate)
    stream = small_stream(2)
    cfg = agem_cfg(epochs_per_task=1) if mode is Mode.AGEM else private_cfg(mode, epochs_per_task=1)
    net = nn.DenseNet.create([stream.tasks[0][0].feature_dim, 8, 3], seed=1)
    seen = captured_buffers(monkeypatch)
    gc.disable()
    try:
        run_stream(stream, cfg)
        train_task(net, stream.tasks[1][0], [stream.tasks[0][1]], None, cfg, 2)
        freed = [weakref.ref(seen.pop()) for _ in range(2)]
        assert all(ref() is None for ref in freed)
    finally:
        gc.enable()


@pytest.mark.parametrize("draw_ahead", [False, True])
def test_noise_taken_out_of_plan_order_raises(draw_ahead, monkeypatch):
    """A take must name the next planned release; past the plan's end it
    raises rather than waits."""
    if draw_ahead:
        monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", 0)
    cfg = private_cfg(Mode.DP_CL)
    first, second = list(trainer._plan(cfg, [(1, [])]))[:2]
    with trainer._NoiseSource(cfg, [first, second], np.zeros((3, 16))) as noise:
        with pytest.raises(RuntimeError, match="not the next one planned"):
            noise.take(1, 1)
    with trainer._NoiseSource(cfg, [first], np.zeros((3, 16))) as noise:
        record, z = noise.take(1, 0)
        assert record is first
        assert np.array_equal(z, add_noise(np.zeros(16), cfg.noise, first.releases[0][0]))
        noise.give(z)
        with pytest.raises(RuntimeError, match="not the next one planned"):
            noise.take(1, 1)


def test_leaving_the_block_stops_a_helper_waiting_for_a_buffer(monkeypatch):
    """The helper has drawn into both buffers it was lent and waits for one
    that is never given back; leaving the with block still stops and joins
    it. The block runs on a thread of its own, so a hang fails the test."""
    monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", 0)
    cfg = private_cfg(Mode.DP_CL)
    plan = list(trainer._plan(cfg, [(1, [])]))[:3]

    def take_one_and_leave():
        with trainer._NoiseSource(cfg, plan, np.zeros((3, 16))) as noise:
            noise.take(1, 0)

    block = threading.Thread(target=take_one_and_leave, daemon=True)
    block.start()
    block.join(timeout=10)
    assert not block.is_alive()


@pytest.mark.parametrize("draw_ahead", [False, True])
def test_step_off_the_plan_adds_no_noise(draw_ahead, monkeypatch):
    """A step whose release is not the next planned one raises before it adds
    any noise: its buffer holds the bare clipped mean and params are untouched."""
    if draw_ahead:
        monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", 0)
    stream = small_stream(2)
    cfg = private_cfg(Mode.DP_CL, sampling_rate=1.0)
    train = stream.tasks[0][0]
    net = nn.DenseNet.create([train.feature_dim, 8, 3], seed=1)
    before = net.get_params()
    real = trainer._plan
    monkeypatch.setattr(trainer, "_plan", lambda cfg, tasks: real(cfg, [(2, [len(train)])]))
    seen = captured_buffers(monkeypatch)
    with pytest.raises(RuntimeError, match="not the next one planned"):
        train_task(net, train, [], None, cfg, 1)
    assert np.array_equal(net.params, before)
    held = seen[0][0]
    assert np.array_equal(held, nn.clipped_mean_grad(net, gathered(train), cfg.noise.clip_bound))


def test_full_width_dp_agem_joint_release_draws_ahead_bitwise(monkeypatch):
    """784-256-256-10 dp_agem over 3 tasks: task 3's reference release averages
    two blocks, so its noise is scaled by 1/sqrt(2) on the helper thread; the
    run is bitwise the reference loop and the inline run."""
    base = make_synthetic(784, 10, 10, 0.6, seed=1)
    stream = make_permuted_stream(base, 3, seed=1, ref_fraction=0.2)
    cfg = private_cfg(Mode.DP_AGEM, hidden_dims=(256, 256), epochs_per_task=1, ref_batch_size=8)
    addresses, on_main = [], []
    real = dp.noise_rng

    def recorded(seed, address=()):
        addresses.append(tuple(address))
        on_main.append(threading.current_thread() is threading.main_thread())
        return real(seed, address)

    monkeypatch.setattr(dp, "noise_rng", recorded)
    ahead = run_stream(stream, cfg)
    assert ahead.net.num_params >= trainer._DRAW_AHEAD_MIN_PARAMS
    assert on_main and not any(on_main)
    assert (_ROLE_REF_NOISE, 3, 0, 1, 2) in addresses
    monkeypatch.setattr(dp, "noise_rng", real)
    assert np.array_equal(ahead.net.params,
                          private_reference_params(stream, cfg, [784, 256, 256, 10]))
    monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", ahead.net.num_params + 1)
    inline = run_stream(stream, cfg)
    assert np.array_equal(ahead.net.params, inline.net.params)
    assert ahead.report.total == inline.report.total


@pytest.mark.parametrize("gate", [0, 1 << 16])
@pytest.mark.parametrize("mode", [Mode.DP_CL, Mode.DP_AGEM])
def test_only_if_conflict_matches_reference_loop_bitwise(mode, gate, monkeypatch):
    """Under ONLY_IF_CONFLICT some steps keep g unchanged, so the step gives
    back its reference buffer instead of its training one; both happen here,
    drawing ahead (gate 0) and inline."""
    monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", gate)
    stream = small_stream(3)
    cfg = private_cfg(mode, projection_rule=ProjectionRule.ONLY_IF_CONFLICT)
    dims = [stream.tasks[0][0].feature_dim, 8, 3]
    kept = []
    real = trainer.project_gradient

    def recorded(g, g_ref, rule, *, out=None):
        update = real(g, g_ref, rule, out=out)
        kept.append(update is g)
        return update

    monkeypatch.setattr(trainer, "project_gradient", recorded)
    assert np.array_equal(train_package(stream, cfg, dims),
                          private_reference_params(stream, cfg, dims))
    assert True in kept and False in kept


def test_first_task_never_touches_memory():
    stream = small_stream(1)
    cfg = TrainConfig(mode=Mode.DP_CL, hidden_dims=(8,), sampling_rate=0.25,
                      epochs_per_task=2, seed=1)
    result = run_stream(stream, cfg)
    assert result.ledger.ref_states_by_task[1].steps == 0
    assert result.ledger.task_budgets(cfg.delta)[0].eps_ref == 0.0
    assert result.report.total == result.ledger.task_budgets(cfg.delta)[0].eps_train


def replayed(q, sigma, steps, lambda_max):
    state = MomentState(lambda_max)
    for _ in range(steps):
        state.add_step(q, sigma)
    return state


def test_ledger_step_counts_match_loop_trips():
    stream = small_stream(3)
    cfg = TrainConfig(mode=Mode.DP_CL, hidden_dims=(8,), sampling_rate=0.25,
                      epochs_per_task=5, ref_batch_size=4, seed=2)  # 20 steps per task
    assert cfg.steps_per_task == 20
    result = run_stream(stream, cfg)
    assert [result.ledger.train_states[t].steps for t in (1, 2, 3)] == [20, 20, 20]
    assert [result.ledger.ref_states_by_task[t].steps for t in (1, 2, 3)] == [0, 20, 20]
    # one block of t-1 drawn per step, then k of its |block| examples
    k, block = cfg.ref_batch_size, len(stream.tasks[0][1])
    assert k < block
    for t in (2, 3):
        q = (1.0 / (t - 1)) * (k / block)
        expected = replayed(q, cfg.noise.sigma, 20, cfg.lambda_max)
        assert np.array_equal(result.ledger.ref_states_by_task[t].log_moments,
                              expected.log_moments)


def test_dp_agem_charges_every_block():
    stream = small_stream(3)
    cfg = TrainConfig(mode=Mode.DP_AGEM, hidden_dims=(8,), sampling_rate=0.25,
                      epochs_per_task=5, ref_batch_size=4, seed=2)
    result = run_stream(stream, cfg)
    by_block = result.ledger.ref_states_by_block
    assert by_block[1].steps == 40  # charged during tasks 2 and 3
    assert by_block[2].steps == 20  # charged during task 3 only
    # every block is read each step, at rate k/|block| with no block draw
    k, block = cfg.ref_batch_size, len(stream.tasks[0][1])
    assert k < block
    q = k / block
    for t, steps in ((2, 20), (3, 40)):
        expected = replayed(q, cfg.noise.sigma, steps, cfg.lambda_max)
        assert np.array_equal(result.ledger.ref_states_by_task[t].log_moments,
                              expected.log_moments)
    for block_id, steps in ((1, 40), (2, 20)):
        expected = replayed(q, cfg.noise.sigma, steps, cfg.lambda_max)
        assert np.array_equal(by_block[block_id].log_moments, expected.log_moments)


@pytest.mark.parametrize("gate", [0, 1 << 16])
@pytest.mark.parametrize("mode", list(Mode))
def test_block_choice_is_drawn_once_per_reference_release(mode, gate, monkeypatch):
    """The (_ROLE_BLOCK, task, step) generator is built once for each step
    that reads a memory, by the plan alone; dp_agem reads every block and
    draws no choice. Gate 0 walks the plan on the helper thread."""
    monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", gate)
    built = []
    real = trainer._rng

    def counted(seed, *key):
        if key[0] == _ROLE_BLOCK:
            built.append(key[1:])
        return real(seed, *key)

    monkeypatch.setattr(trainer, "_rng", counted)
    cfg = agem_cfg(epochs_per_task=2) if mode is Mode.AGEM else private_cfg(mode, epochs_per_task=2)
    run_stream(small_stream(3), cfg)
    reads = [(t, step) for t in (2, 3) for step in range(cfg.steps_per_task)]
    assert built == ([] if mode is Mode.DP_AGEM else reads)


@pytest.mark.parametrize("gate", [0, 1 << 16])
@pytest.mark.parametrize("mode", [Mode.DP_CL, Mode.DP_AGEM])
def test_ledger_and_gathers_are_the_plan_records(mode, gate, monkeypatch):
    """Charging the plan's records, in order, into a fresh ledger gives the
    run's ledger bitwise, and each reference release gathers exactly the
    blocks its record names; training batches and evaluations also gather,
    so only the gathers made inside _ref_grad are counted."""
    monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", gate)
    records, releases, inside = [], [], []
    real_plan, real_ref_grad, real_gather = trainer._plan, trainer._ref_grad, TaskSplit.gather

    def recorded_plan(cfg, tasks):
        for record in real_plan(cfg, tasks):
            records.append(record)
            yield record

    def recorded_ref_grad(net, blocks, record, *args, **kwargs):
        releases.append((record, blocks, []))
        inside.append(True)
        try:
            return real_ref_grad(net, blocks, record, *args, **kwargs)
        finally:
            inside.pop()

    def recorded_gather(self, idx, x_out, y_out):
        if inside:
            _, blocks, read = releases[-1]
            read.append(1 + [block is self for block in blocks].index(True))
        return real_gather(self, idx, x_out, y_out)

    monkeypatch.setattr(trainer, "_plan", recorded_plan)
    monkeypatch.setattr(trainer, "_ref_grad", recorded_ref_grad)
    monkeypatch.setattr(TaskSplit, "gather", recorded_gather)
    stream = small_stream(4)
    cfg = private_cfg(mode, epochs_per_task=2)
    result = run_stream(stream, cfg)
    assert len(records) == 4 * cfg.steps_per_task
    assert [r for r in records if r.block_ids] == [record for record, _, _ in releases]
    assert all(read == list(record.block_ids) for record, _, read in releases)
    replay = PrivacyLedger(cfg.noise.sigma, cfg.lambda_max)
    for t in range(1, 5):
        replay.register_task(t)
    for record in records:
        replay.track_training_step(record.task_id, record.q_train)
        for block_id, q in zip(record.block_ids, record.q_blocks):
            replay.track_ref_step(record.task_id, block_id, q)
    for table in ("train_states", "ref_states_by_task", "ref_states_by_block"):
        ran, replayed_states = getattr(result.ledger, table), getattr(replay, table)
        assert list(ran) == list(replayed_states)
        for key, state in ran.items():
            assert state.steps == replayed_states[key].steps
            assert np.array_equal(state.log_moments, replayed_states[key].log_moments)


def test_dp_cl_and_dp_agem_coincide_with_single_block():
    stream = small_stream(2)
    base = dict(hidden_dims=(8,), sampling_rate=0.25, epochs_per_task=3,
                ref_batch_size=4, seed=7)
    res_cl = run_stream(stream, TrainConfig(mode=Mode.DP_CL, **base))
    res_naive = run_stream(stream, TrainConfig(mode=Mode.DP_AGEM, **base))
    assert np.array_equal(res_cl.net.get_params(), res_naive.net.get_params())


def test_dp_agem_noiseless_single_block_ref_gradient():
    stream = small_stream(2)
    cfg = TrainConfig(mode=Mode.DP_AGEM, noise=NoiseConfig(sigma=0.0, clip_bound=1e9),
                      hidden_dims=(8,), sampling_rate=0.25, epochs_per_task=1, seed=4,
                      ref_batch_size=10_000)
    d = stream.tasks[0][0].feature_dim
    net = nn.DenseNet.create([d, 8, 3], seed=cfg.seed)
    block = stream.tasks[0][1]
    g_ref, _ = released_ref_grad(net, [block], 2, 0, cfg)
    # huge clip bound + sigma 0 + whole-block batch -> plain block gradient
    assert np.allclose(g_ref, nn.grad(net, gathered(block)), atol=1e-12)


def released_ref_grad(net, blocks, task_id, step, cfg):
    """_ref_grad at step `step` of task_id, with its record and noise from a
    plan of that step alone (its training noise is drawn and left unused);
    returns the reference gradient and the record."""
    plan = [r for r in trainer._plan(cfg, [(task_id, [len(b) for b in blocks])]) if r.step == step]
    with trainer._NoiseSource(cfg, plan, np.empty((3, net.num_params))) as noise:
        record, z = noise.take(task_id, step)
        noise.give(z)
        return _ref_grad(net, blocks, record, cfg, noise), record


@pytest.mark.parametrize("n_blocks", [1, 2, 4])
def test_dp_agem_ref_step_is_one_backward_and_one_draw(n_blocks, monkeypatch):
    stream = small_stream(5)
    blocks = [ref for _, ref, _, _ in stream.tasks[:n_blocks]]
    cfg = TrainConfig(mode=Mode.DP_AGEM, hidden_dims=(8,), ref_batch_size=4, seed=2)
    net = nn.DenseNet.create([blocks[0].feature_dim, 8, 3], seed=cfg.seed)
    backward_rows, addresses = [], []
    real_backward, real_noise_rng = nn._backward, dp.noise_rng

    def counted_backward(net, batch):
        backward_rows.append(len(batch))
        return real_backward(net, batch)

    def counted_noise_rng(seed, address=()):
        addresses.append(tuple(address))
        return real_noise_rng(seed, address)

    monkeypatch.setattr(nn, "_backward", counted_backward)
    monkeypatch.setattr(dp, "noise_rng", counted_noise_rng)
    _, record = released_ref_grad(net, blocks, n_blocks + 1, 3, cfg)
    assert backward_rows == [n_blocks * cfg.ref_batch_size]
    ref_address = (_ROLE_REF_NOISE, n_blocks + 1, 3, *range(1, n_blocks + 1))
    assert addresses == [(_ROLE_TRAIN_NOISE, n_blocks + 1, 3), ref_address]
    assert record.block_ids == tuple(range(1, n_blocks + 1))
    assert record.releases[1] == (ref_address, n_blocks)


def three_unequal_blocks():
    stream = small_stream(3, per_class=40, seed=4)
    return [gathered(ref, np.arange(n)) for (_, ref, _, _), n in zip(stream.tasks, (7, 11, 15))]


def test_dp_agem_noiseless_ref_gradient_is_the_mean_of_block_clipped_means():
    blocks = three_unequal_blocks()
    cfg = TrainConfig(mode=Mode.DP_AGEM, noise=NoiseConfig(sigma=0.0, clip_bound=0.05),
                      hidden_dims=(8,), ref_batch_size=9, seed=4)
    net = nn.DenseNet.create([blocks[0].feature_dim, 8, 3], seed=cfg.seed)
    expected = np.mean([
        nn.clipped_mean_grad(net, gathered(block, sample_indices(
            len(block), cfg.ref_batch_size, _rng(cfg.seed, _ROLE_REF_IDX, 4, 0, block_id))),
            cfg.noise.clip_bound)
        for block_id, block in enumerate(blocks, start=1)], axis=0)
    g_ref, _ = released_ref_grad(net, blocks, 4, 0, cfg)
    # equal up to GEMM row blocking: one pass over 7 + 9 + 9 rows against three
    assert np.abs(g_ref - expected).max() <= 1e-12 * np.abs(expected).max()


def test_dp_agem_ref_noise_is_one_draw_at_sigma_beta_over_root_blocks():
    """The released reference gradient keeps the law of the mean of one
    N(0, sigma^2 beta^2) draw per block."""
    blocks = three_unequal_blocks()
    beta = 0.05
    cfg = TrainConfig(mode=Mode.DP_AGEM, noise=NoiseConfig(sigma=1.0, clip_bound=beta, seed=6),
                      hidden_dims=(256,), ref_batch_size=9, seed=4)
    net = nn.DenseNet.create([blocks[0].feature_dim, 256, 3], seed=cfg.seed)
    assert net.num_params > 3_000
    noiseless = replace(cfg, noise=replace(cfg.noise, sigma=0.0))
    diff = (released_ref_grad(net, blocks, 4, 0, cfg)[0]
            - released_ref_grad(net, blocks, 4, 0, noiseless)[0])
    assert np.std(diff) == pytest.approx(cfg.noise.sigma * beta / np.sqrt(3), rel=0.05)


def test_run_stream_single_task_structure():
    stream = small_stream(1)
    cfg = agem_cfg(seed=5)
    result = run_stream(stream, cfg)
    assert result.matrix.a.shape == (1, 1)
    assert not np.isnan(result.matrix.get(1, 1))
    assert result.report.total == 0.0  # noiseless baseline tracks no budget


def test_run_stream_deterministic():
    stream = small_stream(2)
    cfg = TrainConfig(mode=Mode.DP_CL, hidden_dims=(8,), sampling_rate=0.25,
                      epochs_per_task=2, seed=11)
    a = run_stream(stream, cfg)
    b = run_stream(stream, cfg)
    assert np.array_equal(a.matrix.a, b.matrix.a, equal_nan=True)
    assert np.array_equal(a.net.get_params(), b.net.get_params())


def test_identical_tasks_show_no_forgetting():
    # the same task repeated three times -> nothing to forget
    base = make_synthetic(8, 3, 30, 0.6, seed=6)
    single = make_permuted_stream(base, 1, seed=6, ref_fraction=0.2)
    stream = TaskStream(tasks=single.tasks * 3)
    cfg = agem_cfg(epochs_per_task=40, seed=8, learning_rate=0.5)
    result = run_stream(stream, cfg)
    from dpcl.metrics import forgetting
    f_mean, _ = forgetting(result.matrix, 3)
    assert abs(f_mean) <= 0.02


def test_clipped_gradients_respect_bound_pre_noise():
    stream = small_stream(2)
    cfg = TrainConfig(mode=Mode.DP_CL, noise=NoiseConfig(sigma=0.0, clip_bound=0.05),
                      hidden_dims=(8,), sampling_rate=0.5, epochs_per_task=2, seed=9)
    d = stream.tasks[0][0].feature_dim
    net = nn.DenseNet.create([d, 8, 3], seed=cfg.seed)
    plan = trainer._plan(cfg, [(1, [])])
    with trainer._NoiseSource(cfg, plan, np.empty((3, net.num_params))) as noise:
        g, _, _ = _batch_grad(net, gathered(stream.tasks[0][0]), cfg, noise, 1, 0)
    assert np.linalg.norm(g) <= 0.05 + 1e-12


@pytest.mark.parametrize("mode", [Mode.DP_CL, Mode.DP_AGEM])
@pytest.mark.parametrize("seed", range(5))
def test_ref_grad_sensitivity_is_two_beta_over_k(mode, seed):
    """Swapping one of the k examples of a one-block memory moves the
    noiseless reference gradient by at most 2 beta / k, because each example
    is clipped to beta before the batch is averaged."""
    beta = 0.1
    stream = small_stream(2, per_class=50, seed=seed)
    block, spare = stream.tasks[0][1], stream.tasks[0][0]
    k = len(block)
    cfg = TrainConfig(mode=mode, noise=NoiseConfig(sigma=0.0, clip_bound=beta),
                      hidden_dims=(8,), ref_batch_size=k, seed=seed)
    net = nn.DenseNet.create([block.feature_dim, 8, 3], seed=seed)
    neighbour, swapped = gathered(block), gathered(spare, [0])
    neighbour.x[0], neighbour.y[0] = swapped.x[0], swapped.y[0]
    g, _ = released_ref_grad(net, [block], 2, 0, cfg)
    g_nb, _ = released_ref_grad(net, [neighbour], 2, 0, cfg)
    assert np.linalg.norm(g - g_nb) <= 2 * beta / k + 1e-12


@pytest.mark.parametrize("mode", list(Mode))
def test_empty_reference_split_rejected_before_training(mode, monkeypatch):
    stream = small_stream(2)
    train, ref, test, perm = stream.tasks[1]
    stream = TaskStream([stream.tasks[0], (train, gathered(ref, []), test, perm)])
    monkeypatch.setattr(nn.DenseNet, "create", lambda *a, **k: pytest.fail("trained"))
    with pytest.raises(ConfigError, match="reference split"):
        run_stream(stream, agem_cfg(mode=mode, noise=NoiseConfig(sigma=1.0)))


@pytest.mark.parametrize("mode", [Mode.DP_CL, Mode.DP_AGEM])
def test_private_mode_without_noise_rejected_before_training(mode, monkeypatch):
    monkeypatch.setattr(nn.DenseNet, "create", lambda *a, **k: pytest.fail("trained"))
    with pytest.raises(ConfigError, match="sigma"):
        run_stream(small_stream(2), agem_cfg(mode=mode, noise=NoiseConfig(sigma=0.0)))


def test_curve_averages_the_per_task_traces():
    stream = small_stream(2)
    cfg = agem_cfg(epochs_per_task=1, lca_beta=10)  # 4 steps per task < lca_beta
    result = run_stream(stream, cfg)
    assert result.curve.shape == (cfg.steps_per_task + 1,)
    assert np.all((result.curve >= 0.0) & (result.curve <= 1.0))


def materialized(stream):
    """The stream with every split copied into a plain Dataset."""
    return TaskStream([tuple(gathered(s) for s in splits) + (perm,)
                       for *splits, perm in stream.tasks])


@pytest.mark.parametrize("mode", list(Mode))
def test_split_views_train_bitwise_like_materialized_splits(mode):
    """A batch gathered from a view is bitwise the batch of the copied split,
    memory order included: nn._example_sq_norms sums an F-ordered batch in
    another order."""
    stream = small_stream(3, d=64, per_class=30, seed=2)
    cfg = agem_cfg(epochs_per_task=2) if mode is Mode.AGEM else private_cfg(mode, epochs_per_task=2)
    a, b = run_stream(stream, cfg), run_stream(materialized(stream), cfg)
    assert np.array_equal(a.net.get_params(), b.net.get_params())
    assert np.array_equal(a.matrix.a, b.matrix.a, equal_nan=True)
    assert np.array_equal(a.curve, b.curve)
    assert a.report.total == b.report.total


@pytest.mark.parametrize("epochs", [1, 3])  # 4 steps per task <= lca_beta 10, then 12 > 10
def test_each_net_and_test_split_evaluated_once(epochs, monkeypatch):
    calls = []
    real = nn.accuracy

    def counted(net, dataset):
        calls.append(dataset)
        return real(net, dataset)

    stream = small_stream(3)
    cfg = agem_cfg(epochs_per_task=epochs, lca_beta=10)
    unrecorded = run_stream(stream, replace(cfg, lca_beta=0))  # the diagonal evaluated anew
    monkeypatch.setattr(nn, "accuracy", counted)
    result = run_stream(stream, cfg)
    t, points = stream.num_tasks, min(cfg.steps_per_task, cfg.lca_beta) + 1
    diagonal = 0 if cfg.steps_per_task <= cfg.lca_beta else t
    assert len(calls) == t * points + t * (t - 1) // 2 + diagonal
    assert np.array_equal(result.matrix.a, unrecorded.matrix.a, equal_nan=True)
    assert np.array_equal(result.net.get_params(), unrecorded.net.get_params())


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        TrainConfig(seed=-1)
