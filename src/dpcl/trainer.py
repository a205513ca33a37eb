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
in place; called without out=, nn.grad, nn.clipped_mean_grad, dp.add_noise
and project_gradient return new arrays.

A private step of a net with at least 2**16 parameters draws its training
and reference noise (dp.draw_noise) on a helper thread, which train_task
starts for the task and joins before it returns or raises, while this thread
evaluates and computes the clipped means; add_noise waits for each draw where
it finishes that release. numpy draws without holding the interpreter lock,
so the draws use a second core. Smaller nets draw inline, because there the
handoff costs more than the overlap saves. The draws and float operations are
the same either way, so the results are bitwise equal.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import nn
from .accountant import DEFAULT_LAMBDA_MAX, Policy, PrivacyLedger
from .data import Dataset, TaskStream
from .dp import NoiseConfig, add_noise, draw_noise
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


def _batch_grad(net, batch, cfg: TrainConfig, noise_address, sizes=None, *, out=None,
                scratch=None, drawn=None):
    """The gradient one step releases for a batch: the plain mean for agem;
    otherwise the mean of the per-example clipped gradients plus noise. With
    sizes (B private groups), the mean of the groups' clipped means plus one
    draw at std sigma*beta/sqrt(B): the law of the mean of B draws at sigma*beta.
    Written into out, with the clipped mean in scratch (new arrays when None);
    drawn waits for the draw made ahead into out (see add_noise)."""
    if cfg.mode is Mode.AGEM:
        return nn.grad(net, batch, out=out)
    g = nn.clipped_mean_grad(net, batch, cfg.noise.clip_bound, sizes, out=scratch)
    noise = cfg.noise if sizes is None else replace(
        cfg.noise, sigma=cfg.noise.sigma / math.sqrt(len(sizes)))
    return add_noise(g, noise, noise_address, out=out, drawn=drawn)


def _blocks_read(n_blocks, task_id, step, cfg: TrainConfig):
    """The stored blocks the reference gradient reads this step, as indices
    into the block list, and the address of their one noise draw: one
    uniformly chosen block for agem and dp_cl, every block for dp_agem."""
    if cfg.mode is Mode.DP_AGEM:
        chosen = range(n_blocks)
    else:
        chosen = [sample_block(n_blocks, _rng(cfg.seed, _ROLE_BLOCK, task_id, step))]
    return chosen, (_ROLE_REF_NOISE, task_id, step, *(i + 1 for i in chosen))


def _ref_grad(net, blocks, task_id, step, cfg: TrainConfig, ledger, *, read=None, out=None,
              scratch=None, drawn=None):
    """Mean reference gradient over the stored blocks read this step, read
    (from _blocks_read) or chosen here when None. blocks[i] is the reference
    split of task i + 1. The blocks' batches, gathered into one joint batch,
    are one _batch_grad release, with one noise draw addressed by every block
    id read; for one block that is the block's own batch and draw. Private
    modes charge each block read at its sampling rate."""
    chosen, address = _blocks_read(len(blocks), task_id, step, cfg) if read is None else read
    picks = []
    for i in chosen:
        block, block_id = blocks[i], i + 1
        idx = sample_indices(len(block), cfg.ref_batch_size,
                             _rng(cfg.seed, _ROLE_REF_IDX, task_id, step, block_id))
        picks.append((block, idx))
        if ledger is not None:
            share = 1.0 if cfg.mode is Mode.DP_AGEM else 1.0 / len(blocks)
            ledger.track_ref_step(task_id, block_id, share * (len(idx) / len(block)))
    sizes = [len(idx) for _, idx in picks]
    x = np.empty((sum(sizes), blocks[0].feature_dim))
    y = np.empty(len(x), dtype=np.int64)
    end = 0
    for (block, idx), k in zip(picks, sizes):
        block.gather(idx, x[end:end + k], y[end:end + k])
        end += k
    joint = Dataset(x, y, blocks[0].num_classes)
    return _batch_grad(net, joint, cfg, address, sizes if len(sizes) > 1 else None,
                       out=out, scratch=scratch, drawn=drawn)


def train_task(net, train_data, blocks, ledger, cfg: TrainConfig, task_id, step_callback=None,
               buffers=None):
    """Train net on one task; when blocks (the stored reference splits of
    tasks 1..task_id-1) is not empty, every update is projected against
    their reference gradient. buffers, a (3, num_params) array made here when
    None, holds the step's gradients; no step reads an entry it has not
    written, and none is written after this returns or raises."""
    n = len(train_data)
    p = cfg.sampling_rate
    params = net.params
    g_buf, ref_buf, z_buf = np.empty((3, net.num_params)) if buffers is None else buffers
    draw_ahead = (cfg.mode is not Mode.AGEM and cfg.noise.sigma > 0
                  and net.num_params >= _DRAW_AHEAD_MIN_PARAMS)
    train_drawn = ref_drawn = None
    with ThreadPoolExecutor(1) if draw_ahead else nullcontext() as pool:
        for step in range(cfg.steps_per_task):
            address = (_ROLE_TRAIN_NOISE, task_id, step)
            read = _blocks_read(len(blocks), task_id, step, cfg) if blocks else None
            if pool is not None:
                train_drawn = pool.submit(draw_noise, cfg.noise, address, g_buf).result
                if read is not None:
                    ref_drawn = pool.submit(draw_noise, cfg.noise, read[1], ref_buf).result
            if step_callback is not None:
                step_callback(step, net)
            mask = _rng(cfg.seed, _ROLE_BATCH, task_id, step).random(n) < p
            if ledger is not None:
                ledger.track_training_step(task_id, p)
            if mask.any():
                g = _batch_grad(net, train_data.subset(np.flatnonzero(mask)), cfg, address,
                                out=g_buf, scratch=z_buf, drawn=train_drawn)
            elif cfg.mode is Mode.AGEM:
                g = g_buf
                g.fill(0.0)
            else:  # the noise alone, summed with 0.0 as with a zero gradient
                g = add_noise(0.0, cfg.noise, address, out=g_buf, drawn=train_drawn)
            if read is not None:
                g_ref = _ref_grad(net, blocks, task_id, step, cfg, ledger, read=read,
                                  out=ref_buf, scratch=z_buf, drawn=ref_drawn)
                g = project_gradient(g, g_ref, cfg.projection_rule, out=z_buf)
            g *= -cfg.learning_rate  # params += (-lr) * g is bitwise params - lr * g
            params += g
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

    buffers = np.empty((3, net.num_params))  # one set for the whole run
    ledger = PrivacyLedger(cfg.noise.sigma, cfg.lambda_max)
    matrix = AccuracyMatrix(stream.num_tasks)
    traces = []

    for t, (train_split, _, test_split, _) in enumerate(stream.tasks, start=1):
        ledger.register_task(t)
        trace = []

        def record(step, net, _test=test_split, _trace=trace):
            if step <= cfg.lca_beta:
                _trace.append(nn.accuracy(net, _test))

        blocks = [ref for _, ref, _, _ in stream.tasks[:t - 1]]
        net = train_task(net, train_split, blocks, ledger if track_privacy else None,
                         cfg, t, step_callback=record, buffers=buffers)
        traces.append(trace)
        for j in range(1, t):
            matrix.set(t, j, nn.accuracy(net, stream.tasks[j - 1][2]))
        # the trace's last point already holds the final net's accuracy on
        # this task when every step up to steps_per_task was recorded
        final = cfg.steps_per_task <= cfg.lca_beta
        matrix.set(t, t, trace[-1] if final else nn.accuracy(net, test_split))

    report = ledger.report(cfg.delta, cfg.policy)
    return RunResult(matrix, report, np.mean(traces, axis=0), ledger, net)
