"""One training loop for the noiseless episodic-gradient baseline (agem), the
private single-block variant (dp_cl) and the naive all-blocks private variant
(dp_agem). The modes differ only in which stored blocks the reference
gradient reads each step and in whether gradients are clipped and noised.

All randomness is drawn from addressed substreams keyed by
(role, task, step[, block]) under the run seed, so two runs with the same
config are bitwise identical and the single-block and all-blocks variants
coincide exactly when only one memory block exists.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import nn
from .accountant import DEFAULT_LAMBDA_MAX, Policy, PrivacyLedger
from .data import TaskStream
from .dp import NoiseConfig, add_noise, clip_grad
from .errors import ConfigError
from .memory import EpisodicMemory, available_blocks, sample_block, sample_indices, update_eps_mem
from .metrics import AccuracyMatrix, LearningCurve

log = logging.getLogger(__name__)

# substream roles
_ROLE_BATCH = 10
_ROLE_BLOCK = 11
_ROLE_REF_IDX = 12
_ROLE_REF_NOISE = 13
_ROLE_TRAIN_NOISE = 14


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
        if self.lca_beta < 0:
            raise ConfigError("lca_beta must be >= 0")
        if any(h < 1 for h in self.hidden_dims):
            raise ConfigError("every hidden width must be >= 1")

    @property
    def steps_per_task(self):
        return self.epochs_per_task * math.ceil(1.0 / self.sampling_rate)


def _rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def project_gradient(g, g_ref, rule: ProjectionRule) -> np.ndarray:
    """Remove from g its component along g_ref (the constraint-satisfying
    update direction); with ONLY_IF_CONFLICT, only when the gradients oppose.
    A zero reference gradient leaves g unchanged."""
    g = np.asarray(g, dtype=np.float64)
    g_ref = np.asarray(g_ref, dtype=np.float64)
    denom = float(g_ref @ g_ref)
    if denom == 0.0:
        log.warning("degenerate reference gradient (zero norm); skipping projection")
        return g
    dot = float(g @ g_ref)
    if rule is ProjectionRule.ONLY_IF_CONFLICT and dot >= 0.0:
        return g
    return g - (dot / denom) * g_ref


def _private_batch_grad(net, batch, cfg: TrainConfig, noise_address):
    g = nn.clipped_mean_grad(net, batch, cfg.noise.clip_bound)
    return add_noise(g, cfg.noise, noise_address)


def _ref_grad(net, mem, task_id, step, cfg: TrainConfig, ledger):
    """Mean reference gradient over the blocks read this step: one uniformly
    chosen block for agem and dp_cl, every stored block for dp_agem. Private
    modes clip and noise each block's gradient and charge its sampling rate."""
    avail = available_blocks(mem, task_id)
    if cfg.mode is Mode.DP_AGEM:
        blocks = avail
    else:
        blocks = [sample_block(avail, _rng(cfg.seed, _ROLE_BLOCK, task_id, step))]
    grads = []
    for block in blocks:
        idx = sample_indices(block, cfg.ref_batch_size,
                             _rng(cfg.seed, _ROLE_REF_IDX, task_id, step, block.task_id))
        g = nn.grad(net, block.data.subset(idx))
        if cfg.mode is not Mode.AGEM:
            g = clip_grad(g, cfg.noise.clip_bound)
            g = add_noise(g, cfg.noise, (_ROLE_REF_NOISE, task_id, step, block.task_id))
            if ledger is not None:
                q = len(idx) / len(block)
                if cfg.mode is not Mode.DP_AGEM:
                    q = (1.0 / len(avail)) * q
                ledger.track_ref_step(task_id, block.task_id, q)
        grads.append(g)
    return np.mean(grads, axis=0)


def train_task(net, train_data, mem, ledger, cfg: TrainConfig, task_id, step_callback=None):
    """Train net on one task; from task 2 on, every update is projected
    against the reference gradient of the stored blocks."""
    n = len(train_data)
    p = cfg.sampling_rate
    params = net.get_params()
    for step in range(cfg.steps_per_task):
        if step_callback is not None:
            step_callback(step, net)
        mask = _rng(cfg.seed, _ROLE_BATCH, task_id, step).random(n) < p
        if ledger is not None:
            ledger.track_training_step(task_id, p)
        if mask.any():
            batch = train_data.subset(np.flatnonzero(mask))
            if cfg.mode is Mode.AGEM:
                g = nn.grad(net, batch)
            else:
                g = _private_batch_grad(net, batch, cfg, (_ROLE_TRAIN_NOISE, task_id, step))
        else:
            g = np.zeros(net.num_params)
            if cfg.mode is not Mode.AGEM:
                g = add_noise(g, cfg.noise, (_ROLE_TRAIN_NOISE, task_id, step))
        if task_id == 1 or len(mem) == 0:
            g_tilde = g
        else:
            g_ref = _ref_grad(net, mem, task_id, step, cfg, ledger)
            g_tilde = project_gradient(g, g_ref, cfg.projection_rule)
        params = params - cfg.learning_rate * g_tilde
        net.set_params(params)
    if step_callback is not None:
        step_callback(cfg.steps_per_task, net)
    return net


@dataclass
class RunResult:
    matrix: AccuracyMatrix
    report: object
    curve: LearningCurve
    traces: list          # traces[t][b] = accuracy on task t+1 after b updates
    ledger: PrivacyLedger
    net: object


def run_stream(stream: TaskStream, cfg: TrainConfig) -> RunResult:
    """Train through the whole task stream; fill the accuracy matrix after each
    task and record the first lca_beta+1 per-batch accuracies of every task."""
    if stream.num_tasks == 0:
        raise ConfigError("empty task stream")
    d = stream.tasks[0][0].feature_dim
    num_classes = stream.tasks[0][0].num_classes
    net = nn.DenseNet.create([d, *cfg.hidden_dims, num_classes], seed=cfg.seed)

    track_privacy = cfg.mode is not Mode.AGEM and cfg.noise.sigma > 0
    ledger = PrivacyLedger(cfg.noise.sigma if track_privacy else 1.0, cfg.lambda_max)
    mem = EpisodicMemory()
    matrix = AccuracyMatrix(stream.num_tasks)
    traces = []

    for t, (train_split, ref_split, test_split, _) in enumerate(stream.tasks, start=1):
        ledger.register_task(t)
        trace = []

        def record(step, net, _test=test_split, _trace=trace):
            if step <= cfg.lca_beta:
                _trace.append(nn.accuracy(net, _test))

        net = train_task(net, train_split, mem, ledger if track_privacy else None,
                         cfg, t, step_callback=record)
        traces.append(trace)
        mem = update_eps_mem(mem, ref_split, t)
        for j in range(1, t + 1):
            matrix.set(t, j, nn.accuracy(net, stream.tasks[j - 1][2]))

    report = ledger.report(cfg.delta, cfg.policy)
    trace_len = min(cfg.lca_beta + 1, *(len(tr) for tr in traces))
    curve = LearningCurve.from_traces([tr[:trace_len] for tr in traces])
    return RunResult(matrix, report, curve, traces, ledger, net)
