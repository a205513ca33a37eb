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

What a step reads and draws is decided once, by _plan, in one _Step record
per step: the training rows, the rows of each block read, and each release's
noise address and std. What the run charges is known before its first step:
_ledger builds the whole charge table from the config and the block sizes,
so no step charges anything. run_stream walks the records on this thread and
makes each step from its record alone (_step), both of its releases through
_release. One _NoiseSource per run queues each record's releases a record
ahead of its step and draws their noise in order into the step buffers, each
release once a buffer is free for it; at 2**16 parameters or more, a private
run submits each draw to a one-worker pool, made after the net and shut down
before run_stream returns or raises. The next step's draws then run while
this thread projects, updates, evaluates and computes the clipped means, and
numpy draws without holding the interpreter lock, so on a second core.
Smaller nets draw on this thread, because there the handoff costs more than
the overlap saves. Both ways give bitwise the same results, and a failed
draw raises its own error.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import nn
from .accountant import DEFAULT_LAMBDA_MAX, MAX_LAMBDA, Policy, PrivacyLedger
from .data import TaskStream
from .dp import NoiseConfig, draw_noise, rng as _rng
from .errors import ConfigError
from .metrics import AccuracyMatrix

log = logging.getLogger(__name__)

# substream roles
_ROLE_BATCH = 10
_ROLE_BLOCK = 11
_ROLE_REF_IDX = 12
_ROLE_REF_NOISE = 13
_ROLE_TRAIN_NOISE = 14

# private steps of nets this large draw their noise on a worker thread
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
    """What one step reads and draws."""
    task_id: int
    step: int
    train_rows: np.ndarray  # the rows of its task's training split the training release reads
    block_ids: tuple  # the blocks its reference release reads; block i is task i's ref split
    ref_rows: tuple   # the rows it reads of each, min(k, |block|) drawn without replacement
    releases: tuple   # (noise address, noise std) per release, training first


def _plan(cfg: TrainConfig, tasks):
    """The _Step records of tasks, (task_id, training split size, sizes of
    its stored blocks) triples, in step order. The training release reads
    each row with probability p; a reference release reads one uniformly
    chosen block (agem, dp_cl) or every block (dp_agem), min(k, |block|)
    rows of each. The noise of a release that averages B clipped means has
    std sigma * beta / sqrt(B), that of the mean of B draws at sigma * beta.
    Every row a step reads is drawn, and every std set, here."""
    k, p, dp_agem = cfg.ref_batch_size, cfg.sampling_rate, cfg.mode is Mode.DP_AGEM

    def std(n_blocks):
        return cfg.noise.sigma / math.sqrt(n_blocks) * cfg.noise.clip_bound

    for task_id, n, sizes in tasks:
        for step in range(cfg.steps_per_task):
            train_rows = np.flatnonzero(_rng(cfg.seed, _ROLE_BATCH, task_id, step).random(n) < p)
            if dp_agem or not sizes:  # every block, or none before task 2
                ids = tuple(range(1, len(sizes) + 1))
            else:
                ids = (1 + _rng(cfg.seed, _ROLE_BLOCK, task_id, step).integers(len(sizes)),)
            rows = tuple(_rng(cfg.seed, _ROLE_REF_IDX, task_id, step, i).choice(
                sizes[i - 1], size=min(k, sizes[i - 1]), replace=False) for i in ids)
            releases = (((_ROLE_TRAIN_NOISE, task_id, step), std(1)),)
            if ids:
                releases += (((_ROLE_REF_NOISE, task_id, step, *ids), std(len(ids))),)
            yield _Step(task_id, step, train_rows, ids, rows, releases)


def _ledger(cfg: TrainConfig, sizes) -> PrivacyLedger:
    """The charge table of a run whose task t stores a block of sizes[t - 1]
    rows. No draw enters it: on every step of task t, the training release
    is charged p, and every block i < t its exposure, the chance that the
    step reads a given row of it, share * min(k, |i|) / |i|, with share 1
    for dp_agem and 1 / (t - 1) for dp_cl, which reads one of the t - 1
    blocks. agem charges nothing."""
    charges, k, n = {}, cfg.ref_batch_size, cfg.steps_per_task
    if cfg.mode is not Mode.AGEM:
        for t in range(1, len(sizes) + 1):
            charges[t, 0, cfg.sampling_rate] = n
            for i, size in enumerate(sizes[:t - 1], start=1):
                share = 1.0 if cfg.mode is Mode.DP_AGEM else 1.0 / (t - 1)
                charges[t, i, share * (min(k, size) / size)] = n
    return PrivacyLedger(cfg.noise.sigma, charges, len(sizes), cfg.mode is Mode.DP_CL,
                         cfg.lambda_max)


class _NoiseSource:
    """Draws the noise of the releases ahead queues (dp.draw_noise at each
    one's address and std), in order, into the buffers after the first, which
    the step holds (held); an agem source draws nothing and lends its buffers.
    take hands out the next noise; give takes a buffer back. A release is
    drawn once it has a free buffer: in a with block, a private net of
    _DRAW_AHEAD_MIN_PARAMS or more parameters draws on a one-worker pool,
    shut down when the block ends; otherwise the draw runs at once."""

    def __init__(self, cfg: TrainConfig, buffers):
        self.held, *free = buffers
        self._queued, self._free, self._drawn = deque(), deque(free), deque()
        self._seed, self._pool = None if cfg.mode is Mode.AGEM else cfg.noise.seed, None

    def __enter__(self):
        if self._seed is not None and self.held.size >= _DRAW_AHEAD_MIN_PARAMS:
            self._pool = ThreadPoolExecutor(1)
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)  # waits for the draw under way

    def _start(self):
        """Pairs each queued release, in order, with a free buffer and draws its noise."""
        while self._queued and self._free:
            release, z = self._queued.popleft(), self._free.popleft()
            if self._pool is not None:
                z = self._pool.submit(draw_noise, self._seed, *release, z)
            elif self._seed is not None:
                z = draw_noise(self._seed, *release, z)
            self._drawn.append(z)

    def ahead(self, plan):
        """plan's records in order, each handed out once the next one's
        releases are queued, so that their noise is drawn a record ahead."""
        for record, upcoming in itertools.pairwise(itertools.chain([None], plan, [None])):
            if upcoming is not None:
                self._queued.extend(upcoming.releases)
                self._start()
            if record is not None:
                yield record

    def take(self):
        """The next queued release's noise, in a buffer the caller gives back;
        a draw that failed on the pool raises its error here."""
        if not self._drawn:
            raise RuntimeError("no queued release is left to take")
        z = self._drawn.popleft()
        return z.result() if self._pool is not None else z

    def give(self, z):
        self._free.append(z)
        self._start()


def _release(net, picks, cfg: TrainConfig, noise, *, out):
    """One release: the rows idx of each (split, idx) pick, gathered into one
    x and y, give the plain mean gradient (agem) or the mean of the picks'
    clipped means plus noise.take's next noise, or zero without rows. Written
    into out; returns it and the noise buffer, for the caller to give back."""
    n, g = sum(len(idx) for _, idx in picks), out
    if n == 0:
        g.fill(0.0)
    else:
        x, y, end = np.empty((n, picks[0][0].feature_dim)), np.empty(n, dtype=np.int64), 0
        for split, idx in picks:
            split.gather(idx, x[end:end + len(idx)], y[end:end + len(idx)])
            end += len(idx)
        if cfg.mode is Mode.AGEM:
            g = nn.grad(net, x, y, out=out)
        else:
            sizes = [len(idx) for _, idx in picks] if len(picks) > 1 else None
            g = nn.clipped_mean_grad(net, x, y, cfg.noise.clip_bound, sizes, out=out)
    z = noise.take()
    if cfg.mode is not Mode.AGEM:
        g += z  # bitwise z + g
    return g, z


def _step(net, record: _Step, stream: TaskStream, cfg: TrainConfig, noise):
    """The step of record, made from it alone: the training release reads its
    train_rows, the update is projected against the reference release of its
    ref_rows, if any, and added to net.params. noise's three buffers rotate:
    the held one takes the training mean and noise, that noise's buffer the
    reference mean and noise, whose buffer goes back, then the projection; of
    the two, the one without the update goes back. No step reads an entry it
    has not written."""
    tasks = stream.tasks
    g, spare = _release(net, [(tasks[record.task_id - 1][0], record.train_rows)], cfg, noise,
                        out=noise.held)
    if record.block_ids:
        picks = [(tasks[i - 1][1], rows) for i, rows in zip(record.block_ids, record.ref_rows)]
        g_ref, z = _release(net, picks, cfg, noise, out=spare)
        noise.give(z)
        update = project_gradient(g, g_ref, cfg.projection_rule, out=g_ref)
        g, spare = update, (g if update is g_ref else g_ref)
    noise.give(spare)
    g *= -cfg.learning_rate  # params += (-lr) * g is bitwise params - lr * g
    np.add(net.params, g, out=net.params)
    noise.held = g


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
    if cfg.mode is not Mode.AGEM and cfg.noise.sigma == 0:
        raise ConfigError(f"mode {cfg.mode.value} releases gradients, so it needs sigma > 0")
    sizes = [len(ref) for _, ref, _, _ in stream.tasks]
    ledger = _ledger(cfg, sizes)
    first = stream.tasks[0][0]
    net = nn.DenseNet.create([first.feature_dim, *cfg.hidden_dims, first.num_classes], cfg.seed)

    matrix = AccuracyMatrix(stream.num_tasks)
    traces = []
    plan = _plan(cfg, [(t, len(train), sizes[:t - 1])
                       for t, (train, _, _, _) in enumerate(stream.tasks, start=1)])
    # one set of step buffers for the whole run
    with _NoiseSource(cfg, np.empty((3, net.num_params))) as noise:
        records = noise.ahead(plan)
        for t, (_, _, test_split, _) in enumerate(stream.tasks, start=1):
            trace = [nn.accuracy(net, test_split)]  # after b = 0 updates
            for record in itertools.islice(records, cfg.steps_per_task):
                _step(net, record, stream, cfg, noise)
                if record.step < cfg.lca_beta:
                    trace.append(nn.accuracy(net, test_split))
            traces.append(trace)
            for j in range(1, t):
                matrix.set(t, j, nn.accuracy(net, stream.tasks[j - 1][2]))
            # the trace's last point is the final net's when it follows the task's last step
            final = cfg.steps_per_task <= cfg.lca_beta
            matrix.set(t, t, trace[-1] if final else nn.accuracy(net, test_split))

    report = ledger.report(cfg.delta, cfg.policy)
    return RunResult(matrix, report, np.mean(traces, axis=0), ledger, net)
