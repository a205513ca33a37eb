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
from .data import (Dataset, TaskSplit, TaskStream, load_idx_archive, make_permuted_stream,
                   make_synthetic)
from .dp import NoiseConfig, add_noise
from .metrics import AccuracyMatrix, average_accuracy, forgetting, lca
from .nn import DenseNet, accuracy, clipped_mean_grad, forward, grad, loss
from .trainer import (Mode, ProjectionRule, TrainConfig, project_gradient, run_stream,
                      sample_block, sample_indices, train_task)

__all__ = [name for name in dir() if not name.startswith("_")]
