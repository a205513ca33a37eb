"""Differentially private continual learning with per-task gradient memory
blocks and a moments-accountant privacy ledger."""

from .accountant import (
    BudgetReport,
    MomentState,
    Policy,
    PrivacyLedger,
    TaskBudget,
    budget_lemma1,
    budget_lemma2,
    compose_epsilon,
    step_log_moment,
)
from .data import Dataset, TaskStream, load_idx_archive, make_permuted_stream, make_synthetic
from .dp import NoiseConfig, add_noise, clip_grad
from .memory import (
    EpisodicMemory,
    MiniMemoryBlock,
    available_blocks,
    membership_expectation_check,
    sample_block,
    sample_indices,
    update_eps_mem,
)
from .metrics import AccuracyMatrix, LearningCurve, average_accuracy, forgetting, lca
from .nn import DenseNet, accuracy, clipped_mean_grad, forward, grad, loss
from .trainer import Mode, ProjectionRule, TrainConfig, project_gradient, run_stream, train_task

__all__ = [name for name in dir() if not name.startswith("_")]
