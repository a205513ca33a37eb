"""One training loop for the noiseless episodic-gradient baseline (agem), the
private single-block variant (dp_cl) and the naive all-blocks private variant
(dp_agem). The modes differ only in which stored blocks the reference
gradient reads each step (dp_agem reads them all, in one backward pass and
one noise draw) and in whether gradients are clipped and noised. The stored
blocks at task t are the reference splits of tasks 1..t-1.

All randomness is drawn from substreams of the run seed: the plan's from one
per (role, task), in step order, each release's noise from its own, addressed
by (role, task, step[, block ids]). So two runs of one config are bitwise
identical, and dp_cl and dp_agem coincide exactly at one memory block.

A step makes its update in one gradient-sized buffer that never moves, and
its noise and reference gradient in the noise source's two; run_stream makes
the three once per run and adds each update to net.params in place, and
project_gradient works in place (without out=, nn's gradients are new arrays).

What a step reads and draws is decided once, by _plan, in one _Step record
per step: the training rows, the rows of each block read, and each release's
noise address and std. What the run charges is known before its first step:
_ledger builds the whole charge table from the config and the block sizes,
so no step charges anything. run_stream walks the records on this thread and
makes each step from its record alone (_step), both of its releases through
_release. One _NoiseSource per run draws the records' releases in order
into its two buffers, pulling the next release once a buffer is free, so the
plan runs at most a record ahead of the step; at 2**16 parameters or more, a
private run submits each draw to a one-worker pool, made after the net and
shut down before run_stream returns or raises. The next step's draws run while
this thread projects, updates, evaluates and computes the clipped means, and
numpy draws without holding the interpreter lock, so on a second core.
Smaller nets draw on this thread, because there the handoff costs more than
the overlap saves. Both ways give bitwise the same results, and a failed
draw raises its own error.
"""

from __future__ import annotations

import itertools
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


def project_gradient(g, g_ref, rule: ProjectionRule) -> None:
    """Remove from g, in place, its component along g_ref (the
    constraint-satisfying update direction); with ONLY_IF_CONFLICT, only when
    the gradients oppose. A zero g_ref already satisfies the constraint, so g
    stays unchanged. g and g_ref are float64 vectors that must not share
    memory; a projection leaves g_ref as scratch, otherwise neither changes."""
    denom, dot = float(g_ref @ g_ref), float(g @ g_ref)
    if denom == 0.0 or (rule is ProjectionRule.ONLY_IF_CONFLICT and dot >= 0.0):
        return
    g_ref *= -(dot / denom)
    g += g_ref  # bitwise g - (dot/denom) * g_ref


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
    Every std is set here, and every row read is drawn here, from one
    generator per (role, task) in step order, blocks in order within a step."""
    k, p, dp_agem = cfg.ref_batch_size, cfg.sampling_rate, cfg.mode is Mode.DP_AGEM

    def std(n_blocks):
        return cfg.noise.sigma / math.sqrt(n_blocks) * cfg.noise.clip_bound

    for task_id, n, sizes in tasks:
        batch, block, ref_idx = (_rng(cfg.seed, role, task_id)
                                 for role in (_ROLE_BATCH, _ROLE_BLOCK, _ROLE_REF_IDX))
        for step in range(cfg.steps_per_task):
            train_rows = np.flatnonzero(batch.random(n) < p)
            if dp_agem or not sizes:  # every block, or none before task 2
                ids = tuple(range(1, len(sizes) + 1))
            else:
                ids = (1 + block.integers(len(sizes)),)
            rows = tuple(ref_idx.choice(sizes[i - 1], size=min(k, sizes[i - 1]), replace=False)
                         for i in ids)
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
    """Draws the noise of releases, an iterator of (address, std) pairs, in
    order (dp.draw_noise at each), into its two buffers; an agem source draws
    nothing and lends them. take hands out the next noise; give takes a
    buffer back. The next release is pulled and drawn once a buffer is free:
    in a with block, a private net of _DRAW_AHEAD_MIN_PARAMS or more
    parameters draws on a one-worker pool, shut down when the block ends;
    otherwise the draw runs at once."""

    def __init__(self, cfg: TrainConfig, releases, buffers):
        self._releases, self._free, self._drawn = releases, deque(buffers), deque()
        self._seed, self._pool = None if cfg.mode is Mode.AGEM else cfg.noise.seed, None

    def __enter__(self):
        if self._seed is not None and self._free[0].size >= _DRAW_AHEAD_MIN_PARAMS:
            self._pool = ThreadPoolExecutor(1)
        self._start()
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)  # waits for the draw under way

    def _start(self):
        """Pairs each free buffer, in order, with the next release and draws its noise."""
        while self._free and (release := next(self._releases, None)) is not None:
            z = self._free.popleft()
            if self._pool is not None:
                z = self._pool.submit(draw_noise, self._seed, *release, z)
            elif self._seed is not None:
                z = draw_noise(self._seed, *release, z)
            self._drawn.append(z)

    def take(self):
        """The next release's noise, in a buffer the caller gives back;
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
    into out; returns the noise buffer, for the caller to give back."""
    n = sum(len(idx) for _, idx in picks)
    if n == 0:
        out.fill(0.0)
    else:
        x, y, end = np.empty((n, picks[0][0].feature_dim)), np.empty(n, dtype=np.int64), 0
        for split, idx in picks:
            split.gather(idx, x[end:end + len(idx)], y[end:end + len(idx)])
            end += len(idx)
        if cfg.mode is Mode.AGEM:
            nn.grad(net, x, y, out=out)
        else:
            sizes = [len(idx) for _, idx in picks] if len(picks) > 1 else None
            nn.clipped_mean_grad(net, x, y, cfg.noise.clip_bound, sizes, out=out)
    z = noise.take()
    if cfg.mode is not Mode.AGEM:
        out += z  # bitwise z + out
    return z


def _step(net, record: _Step, stream: TaskStream, cfg: TrainConfig, noise, g):
    """The step of record, made from it alone, in the update buffer g, which
    never moves: the training release of its train_rows goes into g and the
    reference release of its ref_rows, if any, into the training noise's
    buffer z; the reference noise's buffer goes back, g is projected against
    z in place, z goes back, and g is added to net.params. No step reads an
    entry it has not written."""
    tasks = stream.tasks
    z = _release(net, [(tasks[record.task_id - 1][0], record.train_rows)], cfg, noise, out=g)
    if record.block_ids:
        picks = [(tasks[i - 1][1], rows) for i, rows in zip(record.block_ids, record.ref_rows)]
        noise.give(_release(net, picks, cfg, noise, out=z))
        project_gradient(g, z, cfg.projection_rule)
    noise.give(z)
    g *= -cfg.learning_rate  # params += (-lr) * g is bitwise params - lr * g
    np.add(net.params, g, out=net.params)


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
    if any(len(ref) == 0 for _, ref, _ in stream.tasks):
        raise ConfigError("every task needs a non-empty reference split")
    if cfg.mode is not Mode.AGEM and cfg.noise.sigma == 0:
        raise ConfigError(f"mode {cfg.mode.value} releases gradients, so it needs sigma > 0")
    sizes = [len(ref) for _, ref, _ in stream.tasks]
    ledger = _ledger(cfg, sizes)
    first = stream.tasks[0][0]
    net = nn.DenseNet.create([first.feature_dim, *cfg.hidden_dims, first.num_classes], cfg.seed)

    matrix = AccuracyMatrix(stream.num_tasks)
    traces = []
    plan = _plan(cfg, [(t, len(train), sizes[:t - 1])
                       for t, (train, _, _) in enumerate(stream.tasks, start=1)])
    records, ahead = itertools.tee(plan)
    # the update buffer, then the two noise buffers, for the whole run
    buffers = np.empty((3, net.num_params))
    with _NoiseSource(cfg, (r for record in ahead for r in record.releases), buffers[1:]) as noise:
        for t, (_, _, test_split) in enumerate(stream.tasks, start=1):
            trace = [nn.accuracy(net, test_split)]  # after b = 0 updates
            for record in itertools.islice(records, cfg.steps_per_task):
                _step(net, record, stream, cfg, noise, buffers[0])
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
