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
_Step record per step: the rows of each block its reference release reads,
each release's noise address and each q charged. Both releases of a step go
through _release, the training batch as its one-pick case. One _NoiseSource
per run walks the plan, draws the records' noise in order into the step
buffers and hands each step its record. A private net with at least 2**16
parameters walks the plan on a helper thread, which run_stream
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
from .accountant import DEFAULT_LAMBDA_MAX, MAX_LAMBDA, Policy, PrivacyLedger
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
        if not 1 <= self.lambda_max <= MAX_LAMBDA:
            raise ConfigError(f"lambda_max must be in 1..{MAX_LAMBDA}")
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


class _Step(NamedTuple):
    """What one step reads, draws and charges."""
    task_id: int
    step: int
    block_ids: tuple  # the blocks its reference release reads; block i is task i's ref split
    ref_rows: tuple   # the rows it reads of each, min(k, |block|) drawn without replacement
    releases: tuple   # (noise address, blocks B it averages) per release, training first
    q_train: float    # the q charged for the training release
    q_blocks: tuple   # the q charged for each block read


def _plan(cfg: TrainConfig, tasks):
    """The _Step records of tasks, (task_id, sizes of its stored blocks)
    pairs, in step order. A reference release reads one uniformly chosen
    block (agem, dp_cl) or every block (dp_agem), min(k, |block|) rows of
    each, each block charged at share * min(k, |block|) / |block|. The block
    choice and the rows are drawn here and nowhere else."""
    k, dp_agem = cfg.ref_batch_size, cfg.mode is Mode.DP_AGEM
    for task_id, sizes in tasks:
        share = 1.0 if dp_agem or not sizes else 1.0 / len(sizes)
        for step in range(cfg.steps_per_task):
            if dp_agem or not sizes:  # every block, or none before task 2
                ids = tuple(range(1, len(sizes) + 1))
            else:
                ids = (1 + _rng(cfg.seed, _ROLE_BLOCK, task_id, step).integers(len(sizes)),)
            rows = tuple(_rng(cfg.seed, _ROLE_REF_IDX, task_id, step, i).choice(
                sizes[i - 1], size=min(k, sizes[i - 1]), replace=False) for i in ids)
            releases = (((_ROLE_TRAIN_NOISE, task_id, step), 1),)
            if ids:
                releases += (((_ROLE_REF_NOISE, task_id, step, *ids), len(ids)),)
            yield _Step(task_id, step, ids, rows, releases, cfg.sampling_rate,
                        tuple(share * (len(r) / sizes[i - 1]) for i, r in zip(ids, rows)))


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


def _release(net, picks, cfg: TrainConfig, noise, task_id, step, *, out):
    """One release of this step: the rows idx of each (split, idx) pick,
    gathered in turn into one batch, give the plain mean gradient (agem) or
    the mean of the picks' clipped means plus the noise noise.take hands out;
    picks without rows give a zero gradient. Written into out; returns it,
    the step's record and the noise buffer, which the caller gives back."""
    n = sum(len(idx) for _, idx in picks)
    if n == 0:
        g = out
        g.fill(0.0)
    else:
        x, y, end = np.empty((n, picks[0][0].feature_dim)), np.empty(n, dtype=np.int64), 0
        for split, idx in picks:
            split.gather(idx, x[end:end + len(idx)], y[end:end + len(idx)])
            end += len(idx)
        batch = Dataset(x, y, picks[0][0].num_classes)  # not held past the release
        if cfg.mode is Mode.AGEM:
            g = nn.grad(net, batch, out=out)
        else:
            sizes = [len(idx) for _, idx in picks] if len(picks) > 1 else None
            g = nn.clipped_mean_grad(net, batch, cfg.noise.clip_bound, sizes, out=out)
    record, z = noise.take(task_id, step)
    if cfg.mode is not Mode.AGEM:
        g += z  # bitwise z + g
    return g, record, z


def train_task(net, train_data, blocks, ledger, cfg: TrainConfig, task_id, noise,
               step_callback=None):
    """Train net on one task; when blocks (the stored reference splits of
    tasks 1..task_id-1) is not empty, every update is projected against the
    reference gradient of the rows of them that the step's record names, and
    the step charges ledger the record's qs. noise, the run's _NoiseSource,
    holds the three step buffers, which rotate: the held one takes the
    training clipped mean and its noise; that noise's buffer takes the
    reference mean and its noise, whose buffer goes back; the projection is
    written into the reference buffer, and the buffer the update is not in
    goes back. No step reads an entry it has not written."""
    n = len(train_data)
    params = net.params
    g = noise.held
    for step in range(cfg.steps_per_task):
        if step_callback is not None:
            step_callback(step, net)
        mask = _rng(cfg.seed, _ROLE_BATCH, task_id, step).random(n) < cfg.sampling_rate
        g, record, spare = _release(net, [(train_data, np.flatnonzero(mask))], cfg, noise,
                                    task_id, step, out=g)
        if ledger is not None:
            ledger.track_training_step(record.task_id, record.q_train)
            for block_id, q in zip(record.block_ids, record.q_blocks):
                ledger.track_ref_step(record.task_id, block_id, q)
        if record.block_ids:
            picks = [(blocks[i - 1], rows) for i, rows in zip(record.block_ids, record.ref_rows)]
            g_ref, _, z = _release(net, picks, cfg, noise, task_id, step, out=spare)
            noise.give(z)
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
                             cfg, t, noise, step_callback=record)
            traces.append(trace)
            for j in range(1, t):
                matrix.set(t, j, nn.accuracy(net, stream.tasks[j - 1][2]))
            # the trace's last point already holds the final net's accuracy on
            # this task when every step up to steps_per_task was recorded
            final = cfg.steps_per_task <= cfg.lca_beta
            matrix.set(t, t, trace[-1] if final else nn.accuracy(net, test_split))

    report = ledger.report(cfg.delta, cfg.policy)
    return RunResult(matrix, report, np.mean(traces, axis=0), ledger, net)
