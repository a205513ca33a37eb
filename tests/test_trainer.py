import gc
import itertools
import math
import sys
import threading
import time
import tracemalloc
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcl import dp, nn, trainer
from dpcl.accountant import Policy, TaskBudget, compose_epsilon
from dpcl.data import TaskSplit, TaskStream, make_permuted_stream, make_synthetic
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
    _release,
    project_gradient,
    run_stream,
)

from _oracles import add_noise, charged_rates, counted_moments, gathered


def small_stream(n_tasks=3, d=8, classes=3, per_class=20, seed=0):
    base = make_synthetic(d, classes, per_class, 0.6, seed)
    return make_permuted_stream(base, n_tasks, seed, ref_fraction=0.2)


def agem_cfg(**kw):
    defaults = dict(mode=Mode.AGEM, noise=NoiseConfig(sigma=0.0),
                    hidden_dims=(8,), sampling_rate=0.25, epochs_per_task=5,
                    ref_batch_size=4, seed=3)
    defaults.update(kw)
    return TrainConfig(**defaults)


def projected(g, g_ref, rule):
    """The projection of a copy of g against a copy of g_ref."""
    g, g_ref = np.array(g, dtype=np.float64), np.array(g_ref, dtype=np.float64)
    project_gradient(g, g_ref, rule)
    return g


def test_projection_orthogonal_input_unchanged():
    g, g_ref = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    for rule in ProjectionRule:
        assert np.array_equal(projected(g, g_ref, rule), g)


def test_projection_parallel_case():
    g = np.array([1.0, 1.0])
    assert np.allclose(projected(g, g, ProjectionRule.ALWAYS_EQ2), 0.0, atol=1e-15)
    assert np.array_equal(projected(g, g, ProjectionRule.ONLY_IF_CONFLICT), g)


def test_projection_hand_value():
    out = projected([2.0, 0.0], [1.0, 1.0], ProjectionRule.ALWAYS_EQ2)
    assert np.allclose(out, [1.0, -1.0], atol=1e-12)
    assert out @ np.array([1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)


def test_projection_zero_reference_returns_g():
    g = np.array([1.0, 2.0])
    assert np.array_equal(projected(g, np.zeros(2), ProjectionRule.ALWAYS_EQ2), g)


@pytest.mark.parametrize("rule", list(ProjectionRule))
def test_projection_is_written_into_g(rule):
    """A pair that conflicts is projected under both rules, into g itself:
    bitwise g - (g.g_ref / g_ref.g_ref) g_ref."""
    g, g_ref = np.array([1.0, -2.0, 0.5]), np.array([-1.0, 1.0, 3.0])
    expected = g - float(g @ g_ref) / float(g_ref @ g_ref) * g_ref
    assert not np.array_equal(expected, g)
    project_gradient(g, g_ref, rule)
    assert np.array_equal(g, expected)


@pytest.mark.parametrize("g_ref, rule", [
    ([0.0, 0.0, 0.0], ProjectionRule.ALWAYS_EQ2),
    ([0.0, 0.0, 0.0], ProjectionRule.ONLY_IF_CONFLICT),
    ([1.0, 1.0, 3.0], ProjectionRule.ONLY_IF_CONFLICT),  # g.g_ref > 0: no conflict
], ids=["zero_always", "zero_conflict", "agreeing_conflict"])
def test_projection_left_out_changes_neither_argument(g_ref, rule):
    g, g_ref = np.array([1.0, 2.0, 0.5]), np.array(g_ref)
    g_before, ref_before = g.copy(), g_ref.copy()
    project_gradient(g, g_ref, rule)
    assert np.array_equal(g, g_before) and np.array_equal(g_ref, ref_before)


@given(seed=st.integers(0, 10_000), dim=st.sampled_from([2, 10, 100]))
@settings(max_examples=100, deadline=None)
def test_projection_orthogonality_property(seed, dim):
    rng = np.random.default_rng(seed)
    g, g_ref = rng.standard_normal(dim), rng.standard_normal(dim)
    out = projected(g, g_ref, ProjectionRule.ALWAYS_EQ2)
    assert abs(out @ g_ref) <= 1e-9 * np.linalg.norm(g) * np.linalg.norm(g_ref)
    conflict_out = projected(g, g_ref, ProjectionRule.ONLY_IF_CONFLICT)
    assert conflict_out @ g_ref >= -1e-9 * np.linalg.norm(g) * np.linalg.norm(g_ref)


def releases_of(records):
    """The (address, std) pairs of records' releases, in order, pulled lazily."""
    return (release for record in records for release in record.releases)


def train_alone(net, stream, task_id, cfg, buffers=None):
    """The steps of task task_id of stream, with a noise source of their own
    (over buffers, when given: the update buffer, then the two noise buffers)."""
    sizes = [len(ref) for _, ref, _ in stream.tasks[:task_id - 1]]
    plan = trainer._plan(cfg, [(task_id, len(stream.tasks[task_id - 1][0]), sizes)])
    if buffers is None:
        buffers = np.empty((3, net.num_params))
    records, ahead = itertools.tee(plan)
    with trainer._NoiseSource(cfg, releases_of(ahead), buffers[1:]) as noise:
        for record in records:
            trainer._step(net, record, stream, cfg, noise, buffers[0])
    return net


def train_package(stream, cfg):
    """Final parameters of a run through the stream."""
    return run_stream(stream, cfg).net.params


PLAN_ROLES = (_ROLE_BATCH, _ROLE_BLOCK, _ROLE_REF_IDX)


def plan_generators(cfg, task_id):
    """The generators task task_id's plan draws from, each in step order:
    its training masks, its block choices and its reference rows."""
    return [_rng(cfg.seed, role, task_id) for role in PLAN_ROLES]


def ref_rows(cfg, ref_idx, size):
    """The rows of a stored block that a reference release reads: the next
    draw of its task's reference-row generator ref_idx."""
    return ref_idx.choice(size, size=min(cfg.ref_batch_size, size), replace=False)


def agem_reference_params(stream, cfg, dims):
    """Straight-line reimplementation of the noiseless update loop."""
    ref_net = nn.DenseNet.create(dims, seed=cfg.seed)
    params = ref_net.params.copy()
    blocks = []
    for t, (train_split, ref_split, _) in enumerate(stream.tasks, start=1):
        batch_rng, block_rng, ref_idx = plan_generators(cfg, t)
        for step in range(cfg.steps_per_task):
            mask = batch_rng.random(len(train_split)) < cfg.sampling_rate
            if mask.any():
                batch = gathered(train_split, np.flatnonzero(mask))
                g = nn.grad(ref_net, batch.x, batch.y)
            else:
                g = np.zeros(ref_net.num_params)
            if t > 1:
                block = blocks[block_rng.integers(len(blocks))]
                batch = gathered(block, ref_rows(cfg, ref_idx, len(block)))
                g_ref = nn.grad(ref_net, batch.x, batch.y)
                denom = g_ref @ g_ref
                if denom > 0:
                    g = g - (g @ g_ref) / denom * g_ref
            params = params - cfg.learning_rate * g
            ref_net.params[...] = params
        blocks.append(ref_split)
    return params


def private_reference_params(stream, cfg, dims):
    """Straight-line private loop built from the public allocating functions;
    from task 3 on, dp_agem reads several stored blocks in one release."""
    beta = cfg.noise.clip_bound
    ref_net = nn.DenseNet.create(dims, seed=cfg.seed)
    params = ref_net.params.copy()
    for t, (train_split, _, _) in enumerate(stream.tasks, start=1):
        blocks = [ref for _, ref, _ in stream.tasks[:t - 1]]
        batch_rng, block_rng, ref_idx = plan_generators(cfg, t)
        for step in range(cfg.steps_per_task):
            mask = batch_rng.random(len(train_split)) < cfg.sampling_rate
            if mask.any():
                batch = gathered(train_split, np.flatnonzero(mask))
                g = nn.clipped_mean_grad(ref_net, batch.x, batch.y, beta)
            else:
                g = np.zeros(ref_net.num_params)
            g = add_noise(g, cfg.noise, (_ROLE_TRAIN_NOISE, t, step))
            if blocks:
                if cfg.mode is Mode.DP_AGEM:
                    ids = list(range(1, t))
                else:
                    ids = [1 + block_rng.integers(len(blocks))]
                batches = [gathered(blocks[i - 1], ref_rows(cfg, ref_idx, len(blocks[i - 1])))
                           for i in ids]
                address = (_ROLE_REF_NOISE, t, step, *ids)
                if len(batches) == 1:
                    g_ref = add_noise(nn.clipped_mean_grad(ref_net, batches[0].x, batches[0].y,
                                                           beta), cfg.noise, address)
                else:
                    x = np.concatenate([b.x for b in batches])
                    y = np.concatenate([b.y for b in batches])
                    sizes = [len(b) for b in batches]
                    noise = replace(cfg.noise, sigma=cfg.noise.sigma / math.sqrt(len(sizes)))
                    g_ref = add_noise(nn.clipped_mean_grad(ref_net, x, y, beta, sizes),
                                         noise, address)
                g, g_ref = g.copy(), g_ref.copy()
                project_gradient(g, g_ref, cfg.projection_rule)
            params = params - cfg.learning_rate * g
            ref_net.params[...] = params
    return params


def private_cfg(mode, **kw):
    return agem_cfg(mode=mode, noise=NoiseConfig(sigma=0.7, clip_bound=0.5, seed=4), **kw)


def record_draw_threads(monkeypatch, helper_delay=0.0):
    """Record, for every noise draw (a generator of role 201), whether it ran
    on the main thread; a draw on another thread first sleeps helper_delay
    seconds."""
    on_main = []
    real = dp.rng

    def recorded(seed, *key):
        if key[0] == 201:
            on_main.append(threading.current_thread() is threading.main_thread())
            if not on_main[-1]:
                time.sleep(helper_delay)
        return real(seed, *key)

    monkeypatch.setattr(dp, "rng", recorded)
    return on_main


def captured_buffers(monkeypatch):
    """The step buffers of every noise source made from here on, in order:
    the array its two noise buffers are rows of, whose first row is the update
    buffer."""
    seen = []
    real = trainer._NoiseSource.__init__

    def recording(self, cfg, releases, buffers):
        seen.append(buffers.base)
        real(self, cfg, releases, buffers)

    monkeypatch.setattr(trainer._NoiseSource, "__init__", recording)
    return seen


def test_agem_matches_reference_loop_bitwise():
    stream = small_stream(2)
    cfg = agem_cfg()
    dims = [stream.tasks[0][0].feature_dim, 8, 3]
    assert np.array_equal(train_package(stream, cfg), agem_reference_params(stream, cfg, dims))


@pytest.mark.parametrize("mode", [Mode.DP_CL, Mode.DP_AGEM])
def test_private_modes_match_reference_loop_bitwise(mode):
    stream = small_stream(3)
    cfg = private_cfg(mode)
    dims = [stream.tasks[0][0].feature_dim, 8, 3]
    assert np.array_equal(train_package(stream, cfg),
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
    assert np.array_equal(ahead.net.params, inline.net.params)
    assert ahead.report.total == inline.report.total
    assert np.array_equal(train_package(stream, cfg),
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
    assert np.array_equal(ahead.net.params, private_reference_params(stream, cfg, dims))
    monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", ahead.net.num_params + 1)
    inline = run_stream(stream, cfg)
    assert np.array_equal(ahead.net.params, inline.net.params)
    assert ahead.report.total == inline.report.total


def test_drawing_ahead_stays_bitwise_under_thread_stress(monkeypatch):
    """Six runs at once, each with its own run-long helper thread, on a
    short switch interval: a draw read before it is complete, or a buffer
    handed back while still in use, would change the parameters."""
    monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", 0)
    stream = small_stream(3)
    cfg = private_cfg(Mode.DP_AGEM)
    dims = [stream.tasks[0][0].feature_dim, 8, 3]
    expected = private_reference_params(stream, cfg, dims)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(6) as pool:
            runs = [pool.submit(train_package, stream, cfg) for _ in range(6)]
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
    stream = TaskStream([(gathered(train, [0, 1]), ref, test)
                         for train, ref, test in stream.tasks])
    cfg = agem_cfg() if mode is Mode.AGEM else private_cfg(mode)
    empty_steps = 0
    for t in (1, 2):
        batch_rng = plan_generators(cfg, t)[0]
        empty_steps += sum(not (batch_rng.random(2) < 0.25).any()
                           for _ in range(cfg.steps_per_task))
    assert empty_steps > 0
    if draw_ahead:
        monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", 0)
    dims = [stream.tasks[0][0].feature_dim, 8, 3]
    reference = agem_reference_params if mode is Mode.AGEM else private_reference_params
    assert np.array_equal(train_package(stream, cfg), reference(stream, cfg, dims))


def check_no_buffer_read_before_write(mode):
    stream = small_stream(3)
    sigma = 0.0 if mode is Mode.AGEM else 0.7
    cfg = agem_cfg(mode=mode, noise=NoiseConfig(sigma=sigma, clip_bound=0.5, seed=4))
    d = stream.tasks[0][0].feature_dim
    fresh = train_alone(nn.DenseNet.create([d, 8, 3], seed=1), stream, 3, cfg)
    poisoned = nn.DenseNet.create([d, 8, 3], seed=1)
    buffers = np.full((3, poisoned.num_params), np.nan)
    train_alone(poisoned, stream, 3, cfg, buffers)
    assert np.array_equal(poisoned.params, fresh.params)
    assert np.all(np.isfinite(buffers))  # every buffer was written by the steps


def test_train_task_updates_params_in_place():
    """A task's steps add their updates into net.params, the same array."""
    stream = small_stream(2)
    cfg = private_cfg(Mode.DP_CL, epochs_per_task=1)
    net = nn.DenseNet.create([stream.tasks[0][0].feature_dim, 8, 3], seed=1)
    store, before = net.params, net.params.copy()
    assert train_alone(net, stream, 2, cfg) is net
    assert net.params is store and not np.array_equal(store, before)


def traced_peak_in_param_vectors(stream, cfg):
    train = stream.tasks[0][0]
    dims = [train.feature_dim, *cfg.hidden_dims, train.num_classes]
    vector_bytes = nn.DenseNet.create(dims).params.nbytes
    tracemalloc.start()
    try:
        run_stream(stream, cfg)
        return tracemalloc.get_traced_memory()[1] / vector_bytes
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", list(Mode))
def test_run_stream_neither_copies_params_out_nor_in(mode):
    """The parameters dominate a 64-2000-3 net's memory. A run holds them and
    the three step buffers, plus small activations, so the traced peak is
    4.45 parameter vectors; a copy of the parameters, out of the net or on
    its way in, would lift it past 5."""
    sigma = 0.0 if mode is Mode.AGEM else 0.7
    cfg = agem_cfg(mode=mode, epochs_per_task=1, hidden_dims=(2000,),
                   noise=NoiseConfig(sigma=sigma, clip_bound=0.5))
    peak = traced_peak_in_param_vectors(small_stream(3, d=64), cfg)
    assert peak < 5, peak


def test_full_width_run_holds_under_five_parameter_vectors():
    """A two-task 784-256-256-10 dp_cl run at batch about 100 holds the
    params and the three step buffers, plus activations; the traced peak
    was 6.0 parameter vectors while training kept a second copy of params."""
    base = make_synthetic(784, 10, 21, 0.8, seed=1)
    stream = make_permuted_stream(base, 2, seed=1, ref_fraction=1 / 3)
    cfg = TrainConfig(mode=Mode.DP_CL, sampling_rate=100 / len(stream.tasks[0][0]),
                      ref_batch_size=50, hidden_dims=(256, 256),
                      noise=NoiseConfig(sigma=1.0, clip_bound=0.1, seed=1), seed=1)
    peak = traced_peak_in_param_vectors(stream, cfg)
    assert peak < 5, peak


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
    """The noise worker is shut down when a task's steps return inside their
    noise source's with block and when a NaN feature makes one raise; each
    worker draw is slowed, so a draw left running would land in the buffers
    after the call."""
    monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", 0)
    on_main = record_draw_threads(monkeypatch, helper_delay=0.02)
    stream = small_stream(2)
    train, ref, test = stream.tasks[1]
    if nan_feature:
        train = gathered(train)
        train.x[:, 0] = np.nan
        stream = TaskStream([stream.tasks[0], (train, ref, test)])
    cfg = private_cfg(Mode.DP_CL, epochs_per_task=1)
    net = nn.DenseNet.create([train.feature_dim, 8, 3], seed=1)
    seen = captured_buffers(monkeypatch)
    threads = threading.active_count()
    if nan_feature:
        with pytest.raises(NumericError):
            train_alone(net, stream, 2, cfg)
    else:
        train_alone(net, stream, 2, cfg)
    assert threading.active_count() == threads
    assert on_main and not any(on_main)
    (buffers,) = seen  # the task's own source
    after = buffers.copy()
    time.sleep(0.1)
    assert np.array_equal(buffers, after, equal_nan=True)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_no_draw_outlives_a_run_that_raises_in_task_two(monkeypatch):
    """run_stream's noise worker is shut down when a NaN feature in task 2
    makes the run raise; each worker draw is slowed, so a draw left running
    would land in the run's buffers after the call."""
    monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", 0)
    on_main = record_draw_threads(monkeypatch, helper_delay=0.02)
    stream = small_stream(3)
    train, ref, test = stream.tasks[1]
    train = gathered(train)
    train.x[:, 0] = np.nan
    stream = TaskStream([stream.tasks[0], (train, ref, test), stream.tasks[2]])
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
    buffers of run_stream and of a one-task source are freed on return, not
    whenever the cyclic collector next runs."""
    monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", gate)
    stream = small_stream(2)
    cfg = agem_cfg(epochs_per_task=1) if mode is Mode.AGEM else private_cfg(mode, epochs_per_task=1)
    net = nn.DenseNet.create([stream.tasks[0][0].feature_dim, 8, 3], seed=1)
    seen = captured_buffers(monkeypatch)
    gc.disable()
    try:
        run_stream(stream, cfg)
        train_alone(net, stream, 2, cfg)
        freed = [weakref.ref(seen.pop()) for _ in range(2)]
        assert all(ref() is None for ref in freed)
    finally:
        gc.enable()


@pytest.mark.parametrize("draw_ahead", [False, True])
def test_noise_taken_past_the_plan_raises(draw_ahead, monkeypatch):
    """take hands out each queued release's noise in order; past the plan's
    end it raises rather than waits."""
    if draw_ahead:
        monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", 0)
    cfg = private_cfg(Mode.DP_CL)
    first = next(trainer._plan(cfg, [(1, 4, [])]))
    with trainer._NoiseSource(cfg, releases_of([first]), np.zeros((2, 16))) as noise:
        z = noise.take()
        assert np.array_equal(z, add_noise(np.zeros(16), cfg.noise, first.releases[0][0]))
        noise.give(z)
        with pytest.raises(RuntimeError, match="no queued release"):
            noise.take()


def test_leaving_the_block_stops_a_helper_waiting_for_a_buffer(monkeypatch):
    """The with block is left with a release still to draw and no free
    buffer for it, one drawn buffer never given back; leaving it returns
    within 10 s. The block runs on a thread of its own, so a hang fails the test."""
    monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", 0)
    cfg = private_cfg(Mode.DP_CL)
    plan = list(trainer._plan(cfg, [(1, 4, [])]))[:3]

    def take_one_and_leave():
        with trainer._NoiseSource(cfg, releases_of(plan), np.zeros((2, 16))) as noise:
            noise.take()  # its buffer never goes back, so the third release waits

    block = threading.Thread(target=take_one_and_leave, daemon=True)
    block.start()
    block.join(timeout=10)
    assert not block.is_alive()


class DrawFailed(Exception):
    pass


@pytest.mark.parametrize("gate", [0, 1 << 16])
def test_a_failed_draw_raises_its_own_error(gate, monkeypatch):
    """A draw that fails on the noise worker (gate 0) or inline raises its own
    error from run_stream, and no thread is left running."""
    monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", gate)
    calls, real = [], trainer.draw_noise

    def failing_third(*args):
        calls.append(args)
        if len(calls) == 3:
            raise DrawFailed("third draw")
        return real(*args)

    monkeypatch.setattr(trainer, "draw_noise", failing_third)
    threads = threading.active_count()
    with pytest.raises(DrawFailed, match="third draw"):
        run_stream(small_stream(2), private_cfg(Mode.DP_CL, epochs_per_task=1))
    assert threading.active_count() == threads
    assert len(calls) >= 3


def test_full_width_dp_agem_joint_release_draws_ahead_bitwise(monkeypatch):
    """784-256-256-10 dp_agem over 3 tasks: task 3's reference release averages
    two blocks, so its noise is scaled by 1/sqrt(2) on the helper thread; the
    run is bitwise the reference loop and the inline run."""
    base = make_synthetic(784, 10, 10, 0.6, seed=1)
    stream = make_permuted_stream(base, 3, seed=1, ref_fraction=0.2)
    cfg = private_cfg(Mode.DP_AGEM, hidden_dims=(256, 256), epochs_per_task=1, ref_batch_size=8)
    addresses, on_main = [], []
    real = dp.rng

    def recorded(seed, *key):
        if key[0] == 201:
            addresses.append(key[1:])
            on_main.append(threading.current_thread() is threading.main_thread())
        return real(seed, *key)

    monkeypatch.setattr(dp, "rng", recorded)
    ahead = run_stream(stream, cfg)
    assert ahead.net.num_params >= trainer._DRAW_AHEAD_MIN_PARAMS
    assert on_main and not any(on_main)
    assert (_ROLE_REF_NOISE, 3, 0, 1, 2) in addresses
    monkeypatch.setattr(dp, "rng", real)
    assert np.array_equal(ahead.net.params,
                          private_reference_params(stream, cfg, [784, 256, 256, 10]))
    monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", ahead.net.num_params + 1)
    inline = run_stream(stream, cfg)
    assert np.array_equal(ahead.net.params, inline.net.params)
    assert ahead.report.total == inline.report.total


@pytest.mark.parametrize("gate", [0, 1 << 16])
@pytest.mark.parametrize("mode", [Mode.DP_CL, Mode.DP_AGEM])
def test_only_if_conflict_matches_reference_loop_bitwise(mode, gate, monkeypatch):
    """Under ONLY_IF_CONFLICT some steps keep g unchanged and others project
    it; both happen here, drawing ahead (gate 0) and inline."""
    monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", gate)
    stream = small_stream(3)
    cfg = private_cfg(mode, projection_rule=ProjectionRule.ONLY_IF_CONFLICT)
    dims = [stream.tasks[0][0].feature_dim, 8, 3]
    kept = []
    real = trainer.project_gradient

    def recorded(g, g_ref, rule):
        before = g.copy()
        real(g, g_ref, rule)
        kept.append(np.array_equal(g, before))

    monkeypatch.setattr(trainer, "project_gradient", recorded)
    assert np.array_equal(train_package(stream, cfg),
                          private_reference_params(stream, cfg, dims))
    assert True in kept and False in kept


@pytest.mark.parametrize("gate", [0, 1 << 16])
@pytest.mark.parametrize("mode", list(Mode))
def test_no_buffer_given_back_shares_memory_with_the_update(mode, gate, monkeypatch):
    """Every step of a run makes its update in the same buffer, and no buffer
    a step gives back to the noise source shares memory with it, also on the
    steps whose projection fires; drawing ahead (gate 0) and inline."""
    monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", gate)
    updates, given = [], []
    real_step, real_give = trainer._step, trainer._NoiseSource.give

    def recorded_step(net, record, stream, cfg, noise, g):
        updates.append(g)
        real_step(net, record, stream, cfg, noise, g)

    def recorded_give(self, z):
        given.append(z)
        real_give(self, z)

    monkeypatch.setattr(trainer, "_step", recorded_step)
    monkeypatch.setattr(trainer._NoiseSource, "give", recorded_give)
    cfg = agem_cfg(epochs_per_task=2) if mode is Mode.AGEM else private_cfg(mode, epochs_per_task=2)
    run_stream(small_stream(3), cfg)
    assert len(updates) == 3 * cfg.steps_per_task
    assert all(g.ctypes.data == updates[0].ctypes.data for g in updates)
    assert len(given) == (1 + 2 + 2) * cfg.steps_per_task  # task 1 reads no memory
    assert not any(np.shares_memory(z, updates[0]) for z in given)


def test_first_task_never_touches_memory():
    stream = small_stream(1)
    cfg = TrainConfig(mode=Mode.DP_CL, hidden_dims=(8,), sampling_rate=0.25,
                      epochs_per_task=2, seed=1)
    result = run_stream(stream, cfg)
    assert [block for _, block, _ in result.ledger.charges] == [0]  # training steps only
    (row,) = result.report.rows
    assert row.eps_ref == 0.0
    assert result.report.total == row.eps_train


def assert_counted(ledger, rates, sigma):
    """The ledger composes rates (q -> steps) bitwise as the sum of n_q *
    alpha_step(q), and within 1e-12 of summing one alpha_step per step."""
    counted, sequential = counted_moments(rates, sigma, ledger.lambda_max)
    moments = ledger.log_moments(rates)
    assert np.array_equal(moments, counted)
    assert np.all(np.abs(moments - sequential) <= 1e-12 * np.abs(sequential))


def test_ledger_step_counts_match_loop_trips():
    """Every step of task t charges its training release and every block
    stored before it, each block at its exposure: a dp_cl step reads one
    block of t - 1, then k of its |block| rows."""
    stream = small_stream(3)
    cfg = TrainConfig(mode=Mode.DP_CL, hidden_dims=(8,), sampling_rate=0.25,
                      epochs_per_task=5, ref_batch_size=4, seed=2)  # 20 steps per task
    assert cfg.steps_per_task == 20
    result = run_stream(stream, cfg)
    ledger = result.ledger
    assert [sum(charged_rates(ledger, t, (0,)).values()) for t in (1, 2, 3)] == [20, 20, 20]
    exposed = [charged_rates(ledger, t, range(1, t)) for t in (1, 2, 3)]
    assert [sum(rates.values()) for rates in exposed] == [0, 20, 40]
    k, block = cfg.ref_batch_size, len(stream.tasks[0][1])
    assert k < block
    for t in (2, 3):
        q = (1.0 / (t - 1)) * (k / block)
        for i in range(1, t):
            assert charged_rates(ledger, t, (i,)) == Counter({q: 20})
        assert exposed[t - 1] == Counter({q: 20 * (t - 1)})
        assert_counted(ledger, exposed[t - 1], cfg.noise.sigma)


def test_dp_agem_charges_every_block():
    stream = small_stream(3)
    cfg = TrainConfig(mode=Mode.DP_AGEM, hidden_dims=(8,), sampling_rate=0.25,
                      epochs_per_task=5, ref_batch_size=4, seed=2)
    ledger = run_stream(stream, cfg).ledger
    pairs = list(dict.fromkeys((t, b) for t, b, _ in ledger.charges if b))  # (reader, block)
    assert pairs == [(2, 1), (3, 1), (3, 2)]
    # every block is read each step, at rate k/|block| with no block draw
    k, block = cfg.ref_batch_size, len(stream.tasks[0][1])
    assert k < block
    q = k / block
    for t, steps in ((2, 20), (3, 40)):
        reads = charged_rates(ledger, t, range(1, t))
        assert reads == Counter({q: steps})
        assert_counted(ledger, reads, cfg.noise.sigma)
    for t, i in pairs:
        reads = charged_rates(ledger, t, (i,))
        assert reads == Counter({q: 20})
        assert_counted(ledger, reads, cfg.noise.sigma)


@pytest.mark.parametrize("mode", [Mode.DP_CL, Mode.DP_AGEM])
def test_lemma1_total_is_at_least_the_lemma2_total(mode):
    """Lemma 1 charges each read of a block to the block, lemma 2 to the
    reading task; summed, the per-block charges of a task's reads bound the
    charge of their composition, so no release is left out of lemma 1."""
    stream = small_stream(4)
    result = run_stream(stream, private_cfg(mode))
    lemma1, lemma2 = (result.ledger.report(1e-4, policy).total for policy in Policy)
    assert lemma1 > lemma2 > 0


def test_dp_cl_lemma1_charges_block_one_its_exposure_on_every_later_step():
    """A 3-task dp_cl run: block 1's lemma 1 row is its training eps plus,
    for t = 2, 3, the eps of every step of task t at block 1's exposure
    (1 / (t - 1)) * min(k, |1|) / |1|, each composed from counted steps
    rather than read off the ledger. Charging block 1 only on the steps that
    chose it would leave about half of task 3's steps out."""
    stream = small_stream(3)
    cfg = private_cfg(Mode.DP_CL)
    result = run_stream(stream, cfg)
    n, k, size = cfg.steps_per_task, cfg.ref_batch_size, len(stream.tasks[0][1])
    assert k < size

    def eps(q):
        return compose_epsilon(
            counted_moments(Counter({q: n}), cfg.noise.sigma, cfg.lambda_max)[0], 1e-4)

    exposures = [eps((1.0 / (t - 1)) * (min(k, size) / size)) for t in (2, 3)]
    report = result.ledger.report(1e-4, Policy.LEMMA1)
    assert report.rows[0] == TaskBudget(1, eps(cfg.sampling_rate),
                                        0.0 + exposures[0] + exposures[1])


def test_lemma1_charges_block_one_what_each_later_task_paid_to_read_it():
    """A 3-task dp_agem run: block 1's lemma 1 charge is its task's training
    eps plus the eps of each later task's reads of it, replayed from the
    plan's records; every (reading task, block) pair is charged more than 0."""
    stream = small_stream(3)
    cfg = private_cfg(Mode.DP_AGEM)
    result = run_stream(stream, cfg)
    sizes = [len(ref) for _, ref, _ in stream.tasks]
    plan = trainer._plan(cfg, [(t, len(stream.tasks[t - 1][0]), sizes[:t - 1]) for t in (1, 2, 3)])
    reads = {2: Counter(), 3: Counter()}  # reading task -> {q: steps} of its reads of block 1
    for record in plan:
        for block_id, rows in zip(record.block_ids, record.ref_rows):
            if block_id == 1:
                reads[record.task_id][len(rows) / sizes[0]] += 1
    assert [sum(rates.values()) for rates in reads.values()] == [cfg.steps_per_task] * 2
    eps_train = result.ledger.epsilon(1, (0,), 1e-4)
    eps_reads = [compose_epsilon(counted_moments(rates, cfg.noise.sigma, cfg.lambda_max)[0], 1e-4)
                 for rates in reads.values()]
    report = result.ledger.report(1e-4, Policy.LEMMA1)
    assert report.rows[0] == TaskBudget(1, eps_train, 0.0 + eps_reads[0] + eps_reads[1])
    assert report.per_task[0] == eps_train + (0.0 + eps_reads[0] + eps_reads[1])
    assert all(result.ledger.epsilon(t, (i,), 1e-4) > 0 for t, i in ((2, 1), (3, 1), (3, 2)))


class RecordedGenerator:
    """A generator that logs (its key..., method, on the main thread) for
    each draw made from it into log."""

    def __init__(self, key, generator, log):
        self._key, self._generator, self._log = key, generator, log

    def __getattr__(self, name):
        method = getattr(self._generator, name)

        def recorded(*args, **kwargs):
            self._log.append((*self._key, name,
                              threading.current_thread() is threading.main_thread()))
            return method(*args, **kwargs)
        return recorded


@pytest.mark.parametrize("mode", [Mode.DP_CL, Mode.DP_AGEM])
def test_helper_thread_draws_noise_and_nothing_else(mode, monkeypatch):
    """At 784-256-256-10, above the gate, the training mask, the block
    choice and the reference rows are drawn on the main thread, by the plan,
    from the three generators it builds there per task; the helper thread
    builds the noise streams' generators and touches no other.
    With the gate raised, the same noise is drawn inline. Either way the
    source draws exactly the records' (address, std) pairs, in order, and
    the plan has yielded at most i + 2 records when step i (0-based) starts."""
    base = make_synthetic(784, 10, 10, 0.6, seed=1)
    stream = make_permuted_stream(base, 3, seed=1, ref_fraction=0.2)
    cfg = private_cfg(mode, hidden_dims=(256, 256), epochs_per_task=1, ref_batch_size=8)
    built, plan_draws, records, drawn = [], [], [], []  # built: (key, on the main thread)
    pulled = []  # the records the plan had yielded when each step started
    real_rng, real_noise_rng = trainer._rng, dp.rng
    real_plan, real_draw, real_step = trainer._plan, trainer.draw_noise, trainer._step

    def recorded_rng(seed, *key):
        built.append((key, threading.current_thread() is threading.main_thread()))
        return RecordedGenerator(key, real_rng(seed, *key), plan_draws)

    def recorded_noise_rng(seed, *key):
        if key[0] == 201:
            built.append((key, threading.current_thread() is threading.main_thread()))
        return real_noise_rng(seed, *key)

    def recorded_plan(cfg, tasks):
        for record in real_plan(cfg, tasks):
            records.append(record)
            yield record

    def recorded_draw(seed, address, std, out):
        drawn.append((address, std))
        return real_draw(seed, address, std, out)

    def recorded_step(net, record, *args):
        pulled.append(len(records))
        real_step(net, record, *args)

    monkeypatch.setattr(trainer, "_rng", recorded_rng)
    monkeypatch.setattr(dp, "rng", recorded_noise_rng)
    monkeypatch.setattr(trainer, "_plan", recorded_plan)
    monkeypatch.setattr(trainer, "draw_noise", recorded_draw)
    monkeypatch.setattr(trainer, "_step", recorded_step)
    releases = 3 * 4 + 2 * 4  # a training release per step, a reference one from task 2
    for draw_ahead in (True, False):
        if not draw_ahead:
            monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", 1 << 30)
        for seen in (built, plan_draws, records, drawn, pulled):
            seen.clear()
        run_stream(stream, cfg)
        plan_built = [(key, on_main) for key, on_main in built if key[0] != 201]
        assert plan_built == [((role, t), True) for t in (1, 2, 3) for role in PLAN_ROLES]
        assert plan_draws and all(on_main for *_, on_main in plan_draws)
        assert [on_main for key, on_main in built if key[0] == 201] == [not draw_ahead] * releases
        assert drawn == [release for record in records for release in record.releases]
        assert len(pulled) == 3 * 4 and all(n <= i + 2 for i, n in enumerate(pulled))


@pytest.mark.parametrize("gate", [0, 1 << 16])
@pytest.mark.parametrize("mode", list(Mode))
def test_block_choice_is_drawn_once_per_reference_release(mode, gate, monkeypatch):
    """The plan builds each task's mask, block-choice and reference-row
    generators once, when the task starts. The block choice is drawn once
    for each step that reads a memory, from its task's (_ROLE_BLOCK, task)
    generator; dp_agem reads every block and draws no choice. The
    reference rows are drawn once for each block a step reads, the mask
    once per step, all on the main thread. Gate 0 draws the noise on the
    helper thread."""
    monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", gate)
    built, draws = [], []
    real = trainer._rng

    def counted(seed, *key):
        built.append(key)
        return RecordedGenerator(key, real(seed, *key), draws)

    monkeypatch.setattr(trainer, "_rng", counted)
    cfg = agem_cfg(epochs_per_task=2) if mode is Mode.AGEM else private_cfg(mode, epochs_per_task=2)
    run_stream(small_stream(3), cfg)
    assert built == [(role, t) for t in (1, 2, 3) for role in PLAN_ROLES]
    steps = cfg.steps_per_task
    expected = Counter({(_ROLE_BATCH, t, "random"): steps for t in (1, 2, 3)})
    for t in (2, 3):
        if mode is not Mode.DP_AGEM:
            expected[_ROLE_BLOCK, t, "integers"] = steps
        expected[_ROLE_REF_IDX, t, "choice"] = steps * (t - 1 if mode is Mode.DP_AGEM else 1)
    assert Counter((role, t, method) for role, t, method, _ in draws) == expected
    assert all(on_main for *_, on_main in draws)


def plan_of_five_tasks(mode, epochs_per_task):
    """A config and five (task_id, training size, stored block sizes)
    triples, some blocks smaller than k and one training split empty."""
    sizes, train_sizes = [3, 7, 12, 5, 9], [30, 0, 12, 25, 40]
    cfg = TrainConfig(mode=mode, sampling_rate=0.25, ref_batch_size=6,
                      epochs_per_task=epochs_per_task, seed=5)
    return cfg, [(t, train_sizes[t - 1], sizes[:t - 1]) for t in range(1, 6)]


def assert_same_records(records, expected):
    assert len(records) == len(expected)
    for r, e in zip(records, expected):
        assert (r.task_id, r.step, r.block_ids, r.releases) == (e.task_id, e.step, e.block_ids,
                                                                 e.releases)
        assert r.train_rows.dtype == e.train_rows.dtype
        assert np.array_equal(r.train_rows, e.train_rows)
        assert len(r.ref_rows) == len(e.ref_rows)
        assert all(a.dtype == b.dtype and np.array_equal(a, b)
                   for a, b in zip(r.ref_rows, e.ref_rows))


@pytest.mark.parametrize("mode", list(Mode))
def test_a_tasks_records_depend_only_on_the_seed_the_task_and_its_sizes(mode):
    """The plan of tasks k+1.. alone yields, bitwise, the full plan's records
    from task k+1 on: training rows, block ids, reference rows and releases.
    So a run can resume its plan at any task boundary."""
    cfg, tasks = plan_of_five_tasks(mode, epochs_per_task=2)
    full = list(trainer._plan(cfg, tasks))
    assert any(len(r.train_rows) for r in full) and any(len(r.block_ids) > 0 for r in full)
    for k in range(1, len(tasks)):
        assert_same_records(list(trainer._plan(cfg, tasks[k:])),
                            [r for r in full if r.task_id > k])


@pytest.mark.parametrize("epochs_per_task", [1, 3])
@pytest.mark.parametrize("mode", list(Mode))
def test_plan_builds_three_generators_per_task(mode, epochs_per_task, monkeypatch):
    """_plan builds one generator per (role, task), three per task, however
    many steps a task takes."""
    built = []
    real = trainer._rng

    def counted(seed, *key):
        built.append(key)
        return real(seed, *key)

    monkeypatch.setattr(trainer, "_rng", counted)
    cfg, tasks = plan_of_five_tasks(mode, epochs_per_task)
    assert len(list(trainer._plan(cfg, tasks))) == 5 * 4 * epochs_per_task
    assert built == [(role, t) for t in range(1, 6) for role in PLAN_ROLES]


@pytest.mark.parametrize("gate", [0, 1 << 16])
@pytest.mark.parametrize("mode", list(Mode))
def test_ledger_and_gathers_are_the_plan_records(mode, gate, monkeypatch):
    """The run's ledger is the one built from the config and the block
    sizes, and the releases gather exactly the rows the plan's records name:
    each record's training release its train_rows of its task's training
    split (nothing when they are none), then its reference release the rows
    of the blocks it names, in the record's order. Evaluations also gather,
    so only the gathers inside a release count."""
    monkeypatch.setattr(trainer, "_DRAW_AHEAD_MIN_PARAMS", gate)
    stream = small_stream(4)
    records, releases, inside = [], [], []
    real_plan, real_release, real_gather = trainer._plan, trainer._release, TaskSplit.gather

    def recorded_plan(cfg, tasks):
        for record in real_plan(cfg, tasks):
            records.append(record)
            yield record

    def recorded_release(*args, **kwargs):
        inside.append([])
        try:
            return real_release(*args, **kwargs)
        finally:
            releases.append(inside.pop())

    def recorded_gather(self, idx, x_out, y_out):
        if inside:
            inside[-1].append((self, np.array(idx)))
        return real_gather(self, idx, x_out, y_out)

    monkeypatch.setattr(trainer, "_plan", recorded_plan)
    monkeypatch.setattr(trainer, "_release", recorded_release)
    monkeypatch.setattr(TaskSplit, "gather", recorded_gather)
    cfg = agem_cfg(epochs_per_task=2) if mode is Mode.AGEM else private_cfg(mode, epochs_per_task=2)
    result = run_stream(stream, cfg)
    assert len(records) == 4 * cfg.steps_per_task
    planned = []
    for record in records:
        train = stream.tasks[record.task_id - 1][0]
        planned.append([(train, record.train_rows)] if len(record.train_rows) else [])
        if record.block_ids:
            planned.append([(stream.tasks[i - 1][1], rows)
                            for i, rows in zip(record.block_ids, record.ref_rows)])
    assert len(releases) == len(planned)
    for read, names in zip(releases, planned):
        assert [split for split, _ in read] == [split for split, _ in names]
        assert all(np.array_equal(idx, rows) for (_, idx), (_, rows) in zip(read, names))
    assert result.ledger == trainer._ledger(cfg, [len(ref) for _, ref, _ in stream.tasks])


def test_dp_cl_and_dp_agem_coincide_with_single_block():
    stream = small_stream(2)
    base = dict(hidden_dims=(8,), sampling_rate=0.25, epochs_per_task=3,
                ref_batch_size=4, seed=7)
    res_cl = run_stream(stream, TrainConfig(mode=Mode.DP_CL, **base))
    res_naive = run_stream(stream, TrainConfig(mode=Mode.DP_AGEM, **base))
    assert np.array_equal(res_cl.net.params, res_naive.net.params)


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
    whole = gathered(block)
    assert np.allclose(g_ref, nn.grad(net, whole.x, whole.y), atol=1e-12)


def released_ref_grad(net, blocks, task_id, step, cfg):
    """The reference release of step `step` of task_id, reading the rows its
    record names, with its record and noise from a plan of that step alone
    (its training noise is drawn and left unused); returns the reference
    gradient and the record."""
    plan = [r for r in trainer._plan(cfg, [(task_id, 0, [len(b) for b in blocks])])
            if r.step == step]
    g = np.empty(net.num_params)
    (record,) = plan
    with trainer._NoiseSource(cfg, releases_of(plan), np.empty((2, net.num_params))) as noise:
        noise.give(noise.take())
        picks = [(blocks[i - 1], rows) for i, rows in zip(record.block_ids, record.ref_rows)]
        _release(net, picks, cfg, noise, out=g)
        return g, record


@pytest.mark.parametrize("n_blocks", [1, 2, 4])
def test_dp_agem_ref_step_is_one_backward_and_one_draw(n_blocks, monkeypatch):
    stream = small_stream(5)
    blocks = [ref for _, ref, _ in stream.tasks[:n_blocks]]
    cfg = TrainConfig(mode=Mode.DP_AGEM, hidden_dims=(8,), ref_batch_size=4, seed=2)
    net = nn.DenseNet.create([blocks[0].feature_dim, 8, 3], seed=cfg.seed)
    backward_rows, addresses = [], []
    real_backward, real_rng = nn._backward, dp.rng

    def counted_backward(net, x, y):
        backward_rows.append(len(x))
        return real_backward(net, x, y)

    def counted_rng(seed, *key):
        if key[0] == 201:
            addresses.append(key[1:])
        return real_rng(seed, *key)

    monkeypatch.setattr(nn, "_backward", counted_backward)
    monkeypatch.setattr(dp, "rng", counted_rng)
    _, record = released_ref_grad(net, blocks, n_blocks + 1, 3, cfg)
    assert backward_rows == [n_blocks * cfg.ref_batch_size]
    ref_address = (_ROLE_REF_NOISE, n_blocks + 1, 3, *range(1, n_blocks + 1))
    assert addresses == [(_ROLE_TRAIN_NOISE, n_blocks + 1, 3), ref_address]
    assert record.block_ids == tuple(range(1, n_blocks + 1))
    std = cfg.noise.sigma * cfg.noise.clip_bound / math.sqrt(n_blocks)
    assert record.releases[1] == (ref_address, pytest.approx(std, rel=1e-15, abs=0))


def three_unequal_blocks():
    stream = small_stream(3, per_class=40, seed=4)
    return [gathered(ref, np.arange(n)) for (_, ref, _), n in zip(stream.tasks, (7, 11, 15))]


def test_dp_agem_noiseless_ref_gradient_is_the_mean_of_block_clipped_means():
    blocks = three_unequal_blocks()
    cfg = TrainConfig(mode=Mode.DP_AGEM, noise=NoiseConfig(sigma=0.0, clip_bound=0.05),
                      hidden_dims=(8,), ref_batch_size=9, seed=4)
    net = nn.DenseNet.create([blocks[0].feature_dim, 8, 3], seed=cfg.seed)
    _, _, ref_idx = plan_generators(cfg, 4)  # step 0 reads blocks 1, 2, 3 in order
    batches = [gathered(block, ref_rows(cfg, ref_idx, len(block))) for block in blocks]
    expected = np.mean([nn.clipped_mean_grad(net, b.x, b.y, cfg.noise.clip_bound)
                        for b in batches], axis=0)
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
    assert np.array_equal(a.net.params, b.net.params)


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
    train = stream.tasks[0][0]
    g = np.empty(net.num_params)
    plan = trainer._plan(cfg, [(1, len(train), [])])
    with trainer._NoiseSource(cfg, releases_of(plan), np.empty((2, net.num_params))) as noise:
        _release(net, [(train, np.arange(len(train)))], cfg, noise, out=g)
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
    train, ref, test = stream.tasks[1]
    stream = TaskStream([stream.tasks[0], (train, gathered(ref, []), test)])
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
    return TaskStream([tuple(gathered(s) for s in splits) for splits in stream.tasks])


@pytest.mark.parametrize("mode", list(Mode))
def test_split_views_train_bitwise_like_materialized_splits(mode):
    """A batch gathered from a view is bitwise the batch of the copied split,
    memory order included: nn._example_sq_norms sums an F-ordered batch in
    another order."""
    stream = small_stream(3, d=64, per_class=30, seed=2)
    cfg = agem_cfg(epochs_per_task=2) if mode is Mode.AGEM else private_cfg(mode, epochs_per_task=2)
    a, b = run_stream(stream, cfg), run_stream(materialized(stream), cfg)
    assert np.array_equal(a.net.params, b.net.params)
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
    assert np.array_equal(result.net.params, unrecorded.net.params)


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        TrainConfig(seed=-1)
