"""One training loop for the noiseless episodic-gradient baseline (agem), the
private single-block variant (dp_cl) and the naive all-blocks private variant
(dp_agem). The modes differ only in which stored blocks the reference
gradient reads each step (dp_agem reads them all, in one backward pass and
one noise draw) and in whether gradients are clipped and noised. The stored
blocks at task t are the reference splits of tasks 1..t-1.

All randomness is drawn from addressed substreams keyed by
(role, task, step[, block ids]) under the run seed, so two runs with the same
config are bitwise identical and the single-block and all-blocks variants
coincide exactly when only one memory block exists.

A step writes its gradients, noise and update into three gradient-sized
buffers that run_stream makes once per run and adds the update to net.params
in place; called without out=, nn.grad, nn.clipped_mean_grad and
project_gradient return new arrays.

What a step reads, draws and charges is decided once, by _plan, in one
_Step record per step. One _NoiseSource per run draws the records' noise in
order into the step buffers and hands each step its record. A private net
with at least 2**16 parameters draws on a helper thread, which run_stream
starts after making the net and joins before it returns or raises: the next
step's draws run while this thread projects, updates, evaluates and computes
the clipped means, and numpy draws without holding the interpreter lock, so
on a second core. Smaller nets draw inline, because there the handoff costs
more than the overlap saves. Both ways give bitwise the same results.
"""

from __future__ import annotations

import logging
import math
import queue
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import nn
from .accountant import DEFAULT_LAMBDA_MAX, Policy, PrivacyLedger
from .data import Dataset, TaskStream
from .dp import NoiseConfig, draw_noise
from .errors import ConfigError
from .metrics import AccuracyMatrix

log = logging.getLogger(__name__)

# substream roles
_ROLE_BATCH = 10
_ROLE_BLOCK = 11
_ROLE_REF_IDX = 12
_ROLE_REF_NOISE = 13
_ROLE_TRAIN_NOISE = 14

# private steps of nets this large draw their noise on a helper thread
_DRAW_AHEAD_MIN_PARAMS = 1 << 16


class Mode(Enum):
    AGEM = "agem"
    DP_CL = "dp_cl"
    DP_AGEM = "dp_agem"


class ProjectionRule(Enum):
    ALWAYS_EQ2 = "always"
    ONLY_IF_CONFLICT = "conflict"


@dataclass(frozen=True)
class TrainConfig:
    mode: Mode = Mode.DP_CL
    learning_rate: float = 0.1
    sampling_rate: float = 0.1       # Bernoulli inclusion probability p per step
    ref_batch_size: int = 50
    epochs_per_task: int = 1         # steps per task = epochs * ceil(1/p)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    projection_rule: ProjectionRule = ProjectionRule.ALWAYS_EQ2
    hidden_dims: tuple = (64, 64)
    delta: float = 1e-4
    policy: Policy = Policy.LEMMA2
    lambda_max: int = DEFAULT_LAMBDA_MAX
    lca_beta: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be finite and positive")
        if not 0.0 < self.sampling_rate <= 1.0:
            raise ConfigError("sampling_rate must be in (0, 1]")
        if self.ref_batch_size < 1 or self.epochs_per_task < 1:
            raise ConfigError("ref_batch_size and epochs_per_task must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError("delta must be in (0, 1)")
        if self.lambda_max < 1:
            raise ConfigError("lambda_max must be >= 1")
        if self.lca_beta < 0 or self.seed < 0:
            raise ConfigError("lca_beta and seed must be >= 0")
        if any(h < 1 for h in self.hidden_dims):
            raise ConfigError("every hidden width must be >= 1")

    @property
    def steps_per_task(self):
        return self.epochs_per_task * math.ceil(1.0 / self.sampling_rate)


def _rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def project_gradient(g, g_ref, rule: ProjectionRule, *, out=None) -> np.ndarray:
    """Remove from g its component along g_ref (the constraint-satisfying
    update direction); with ONLY_IF_CONFLICT, only when the gradients oppose.
    A zero reference gradient leaves g unchanged. An unchanged g is returned
    as is; a projection is written into out (a new array when None), which
    must not share memory with g."""
    g = np.asarray(g, dtype=np.float64)
    g_ref = np.asarray(g_ref, dtype=np.float64)
    denom = float(g_ref @ g_ref)
    if denom == 0.0:
        log.warning("degenerate reference gradient (zero norm); skipping projection")
        return g
    dot = float(g @ g_ref)
    if rule is ProjectionRule.ONLY_IF_CONFLICT and dot >= 0.0:
        return g
    out = np.multiply(g_ref, -(dot / denom), out=out)  # bitwise g - (dot/denom) * g_ref
    out += g
    return out


def sample_block(n_blocks, rng: np.random.Generator) -> int:
    """The index of one of n_blocks stored blocks, chosen uniformly."""
    return rng.integers(n_blocks)


def sample_indices(n, k, rng: np.random.Generator) -> np.ndarray:
    """min(k, n) of the indices 0..n-1, drawn without replacement."""
    return rng.choice(n, size=min(k, n), replace=False)


class _Step(NamedTuple):
    """What one step reads, draws and charges."""
    task_id: int
    step: int
    block_ids: tuple  # the blocks its reference release reads; block i is task i's ref split
    releases: tuple   # (noise address, blocks B it averages) per release, training first
    q_train: float    # the q charged for the training release
    q_blocks: tuple   # the q charged for each block read


def _plan(cfg: TrainConfig, tasks):
    """The _Step records of tasks, (task_id, sizes of its stored blocks)
    pairs, in step order. A reference release reads one uniformly chosen
    block (agem, dp_cl) or every block (dp_agem), each charged at
    share * min(k, |block|) / |block|."""
    k, dp_agem = cfg.ref_batch_size, cfg.mode is Mode.DP_AGEM
    for task_id, sizes in tasks:
        share = 1.0 if dp_agem or not sizes else 1.0 / len(sizes)
        for step in range(cfg.steps_per_task):
            if dp_agem or not sizes:  # every block, or none before task 2
                ids = tuple(range(1, len(sizes) + 1))
            else:
                ids = (1 + sample_block(len(sizes), _rng(cfg.seed, _ROLE_BLOCK, task_id, step)),)
            releases = (((_ROLE_TRAIN_NOISE, task_id, step), 1),)
            if ids:
                releases += (((_ROLE_REF_NOISE, task_id, step, *ids), len(ids)),)
            yield _Step(task_id, step, ids, releases, cfg.sampling_rate,
                        tuple(share * (min(k, sizes[i - 1]) / sizes[i - 1]) for i in ids))


class _NoiseSource:
    """Draws the noise of the releases of plan's _Step records (dp.draw_noise),
    in order, into the buffers after the first, which the step holds (held);
    an agem source draws nothing and lends its buffers. take hands out the
    next release's record and noise; give takes a buffer back. In a with
    block, a private net of _DRAW_AHEAD_MIN_PARAMS or more parameters draws
    ahead on a helper thread, joined when the block ends; otherwise take draws."""

    def __init__(self, cfg: TrainConfig, plan, buffers):
        self.held, *free = buffers
        self._free, self._drawn, self._helper = queue.SimpleQueue(), queue.SimpleQueue(), None
        for z in free:
            self._free.put(z)
        self._noise = None if cfg.mode is Mode.AGEM else cfg.noise
        # the draws see the queue, not self: a reference cycle would keep a
        # finished source and its buffers alive until the cyclic collector ran
        self._draws = self._drawing(self._free, self._noise, plan)

    def __enter__(self):
        if self._noise is not None and self.held.size >= _DRAW_AHEAD_MIN_PARAMS:
            self._helper = threading.Thread(target=self._draw_ahead, daemon=True)
            self._helper.start()
        return self

    def __exit__(self, *exc):
        if self._helper is not None:
            self._free.put(None)  # stops the helper at the next buffer it waits for
            self._helper.join()

    @staticmethod
    def _drawing(free, noise, plan):
        for record in plan:
            for address, n_blocks in record.releases:
                z = free.get()
                if z is None:
                    return
                yield record, z if noise is None else draw_noise(noise, address, z, n_blocks)

    def _draw_ahead(self):
        try:
            for drawn in self._draws:
                self._drawn.put(drawn)
        finally:
            self._drawn.put(None)  # so that take raises rather than waits

    def take(self, task_id, step):
        """The next planned release's record and noise; it must be of this step."""
        drawn = self._drawn.get() if self._helper is not None else next(self._draws, None)
        if drawn is None or (drawn[0].task_id, drawn[0].step) != (task_id, step):
            raise RuntimeError(f"release of task {task_id} step {step} is not the next one planned")
        return drawn

    def give(self, z):
        self._free.put(z)


def _batch_grad(net, batch, cfg: TrainConfig, noise, task_id, step, sizes=None, *, out=None):
    """The gradient one step releases for a batch (None: no example, a zero
    gradient): the plain mean for agem; otherwise the mean of the per-example
    clipped gradients, or with sizes (B private groups) of the groups'
    clipped means, plus the noise noise.take hands out for this step. Written
    into out (a new array when None); returns it, the step's record and the
    noise buffer, which the caller gives back."""
    if batch is None:
        g = out
        g.fill(0.0)
    elif cfg.mode is Mode.AGEM:
        g = nn.grad(net, batch, out=out)
    else:
        g = nn.clipped_mean_grad(net, batch, cfg.noise.clip_bound, sizes, out=out)
    record, z = noise.take(task_id, step)
    if cfg.mode is not Mode.AGEM:
        g += z  # bitwise z + g
    return g, record, z


def _gather(picks):
    """One new batch of the rows idx of each (split, idx) pick, in turn."""
    first = picks[0][0]
    x = np.empty((sum(len(idx) for _, idx in picks), first.feature_dim))
    y = np.empty(len(x), dtype=np.int64)
    end = 0
    for split, idx in picks:
        split.gather(idx, x[end:end + len(idx)], y[end:end + len(idx)])
        end += len(idx)
    return Dataset(x, y, first.num_classes)


def _ref_grad(net, blocks, record: _Step, cfg: TrainConfig, noise, *, out=None):
    """Mean reference gradient over the stored blocks record reads; blocks[i]
    is the reference split of task i + 1. Their batches, gathered into one
    joint batch, are one _batch_grad release (into out, with its noise from
    noise); for one block that is the block's own batch and draw."""
    task_id, step = record.task_id, record.step
    picks = [(blocks[i - 1], sample_indices(len(blocks[i - 1]), cfg.ref_batch_size,
                                            _rng(cfg.seed, _ROLE_REF_IDX, task_id, step, i)))
             for i in record.block_ids]
    sizes = [len(idx) for _, idx in picks]
    g, _, z = _batch_grad(net, _gather(picks), cfg, noise, task_id, step,
                          sizes if len(sizes) > 1 else None, out=out)
    noise.give(z)
    return g


def train_task(net, train_data, blocks, ledger, cfg: TrainConfig, task_id, step_callback=None,
               noise=None):
    """Train net on one task; when blocks (the stored reference splits of
    tasks 1..task_id-1) is not empty, every update is projected against
    their reference gradient; a step reads the blocks and charges ledger the
    qs of the record its training release brings. noise, the run's
    _NoiseSource (one for this task when None), holds the three step
    buffers, which rotate: the held one takes the training clipped mean and
    its noise; that noise's buffer takes the reference mean and its noise,
    whose buffer goes back; the projection is written into the reference
    buffer, and the buffer the update is not in goes back. No step reads an
    entry it has not written."""
    if noise is None:
        plan = _plan(cfg, [(task_id, [len(block) for block in blocks])])
        with _NoiseSource(cfg, plan, np.empty((3, net.num_params))) as noise:
            return train_task(net, train_data, blocks, ledger, cfg, task_id, step_callback, noise)
    n = len(train_data)
    params = net.params
    g = noise.held
    for step in range(cfg.steps_per_task):
        if step_callback is not None:
            step_callback(step, net)
        mask = _rng(cfg.seed, _ROLE_BATCH, task_id, step).random(n) < cfg.sampling_rate
        idx = np.flatnonzero(mask)  # the batch itself is not held past its release
        g, record, spare = _batch_grad(net, _gather([(train_data, idx)]) if len(idx) else None,
                                       cfg, noise, task_id, step, out=g)
        if ledger is not None:
            ledger.track_training_step(record.task_id, record.q_train)
            for block_id, q in zip(record.block_ids, record.q_blocks):
                ledger.track_ref_step(record.task_id, block_id, q)
        if record.block_ids:
            g_ref = _ref_grad(net, blocks, record, cfg, noise, out=spare)
            update = project_gradient(g, g_ref, cfg.projection_rule, out=g_ref)
            g, spare = update, (g if update is g_ref else g_ref)
        noise.give(spare)
        g *= -cfg.learning_rate  # params += (-lr) * g is bitwise params - lr * g
        params += g
    noise.held = g
    if step_callback is not None:
        step_callback(cfg.steps_per_task, net)
    return net


@dataclass
class RunResult:
    matrix: AccuracyMatrix
    report: object
    curve: np.ndarray     # accuracy after b = 0..lca_beta updates, averaged over tasks
    ledger: PrivacyLedger
    net: object


def run_stream(stream: TaskStream, cfg: TrainConfig) -> RunResult:
    """Train through the whole task stream; fill the accuracy matrix after each
    task and record the first lca_beta+1 per-batch accuracies of every task.
    Each (net, test split) pair is evaluated once."""
    if stream.num_tasks == 0:
        raise ConfigError("empty task stream")
    if any(len(ref) == 0 for _, ref, _, _ in stream.tasks):
        raise ConfigError("every task needs a non-empty reference split")
    track_privacy = cfg.mode is not Mode.AGEM
    if track_privacy and cfg.noise.sigma == 0:
        raise ConfigError(f"mode {cfg.mode.value} releases gradients, so it needs sigma > 0")
    d = stream.tasks[0][0].feature_dim
    num_classes = stream.tasks[0][0].num_classes
    net = nn.DenseNet.create([d, *cfg.hidden_dims, num_classes], seed=cfg.seed)

    ledger = PrivacyLedger(cfg.noise.sigma, cfg.lambda_max)
    matrix = AccuracyMatrix(stream.num_tasks)
    traces = []
    sizes = [len(ref) for _, ref, _, _ in stream.tasks]
    plan = _plan(cfg, [(t, sizes[:t - 1]) for t in range(1, stream.num_tasks + 1)])
    # one set of step buffers for the whole run
    with _NoiseSource(cfg, plan, np.empty((3, net.num_params))) as noise:
        for t, (train_split, _, test_split, _) in enumerate(stream.tasks, start=1):
            ledger.register_task(t)
            trace = []

            def record(step, net, _test=test_split, _trace=trace):
                if step <= cfg.lca_beta:
                    _trace.append(nn.accuracy(net, _test))

            blocks = [ref for _, ref, _, _ in stream.tasks[:t - 1]]
            net = train_task(net, train_split, blocks, ledger if track_privacy else None,
                             cfg, t, step_callback=record, noise=noise)
            traces.append(trace)
            for j in range(1, t):
                matrix.set(t, j, nn.accuracy(net, stream.tasks[j - 1][2]))
            # the trace's last point already holds the final net's accuracy on
            # this task when every step up to steps_per_task was recorded
            final = cfg.steps_per_task <= cfg.lca_beta
            matrix.set(t, t, trace[-1] if final else nn.accuracy(net, test_split))

    report = ledger.report(cfg.delta, cfg.policy)
    return RunResult(matrix, report, np.mean(traces, axis=0), ledger, net)
