"""Episodic memory made of per-task mini-memory blocks.

One block is appended after each finished task. The sampling primitives here
are the ones the trainer uses: the blocks available at a task, one uniformly
chosen block, and a without-replacement draw of example indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import StateError


@dataclass
class MiniMemoryBlock:
    task_id: int
    data: Dataset

    def __len__(self):
        return len(self.data)


@dataclass
class EpisodicMemory:
    blocks: list = field(default_factory=list)

    def __len__(self):
        return len(self.blocks)

    @property
    def task_ids(self):
        return [b.task_id for b in self.blocks]


def update_eps_mem(mem: EpisodicMemory, ref_data: Dataset, task_id: int) -> EpisodicMemory:
    """Append task_id's reference split as a new block; prior blocks untouched."""
    expected = mem.blocks[-1].task_id + 1 if mem.blocks else 1
    if task_id != expected:
        raise StateError(f"expected block for task {expected}, got {task_id}")
    if len(ref_data) == 0:
        raise StateError("refusing to store an empty mini-memory block")
    return EpisodicMemory(mem.blocks + [MiniMemoryBlock(task_id, ref_data)])


def available_blocks(mem: EpisodicMemory, current_task: int) -> list:
    """The blocks a reference gradient may read at current_task: 1..current_task-1."""
    if current_task < 2 or not mem.blocks:
        raise StateError("no reference blocks before task 2")
    avail = [b for b in mem.blocks if b.task_id < current_task]
    if len(avail) != current_task - 1:
        raise StateError(f"memory must hold blocks 1..{current_task - 1}")
    return avail


def sample_block(avail: list, rng: np.random.Generator) -> MiniMemoryBlock:
    """One block chosen uniformly from avail."""
    return avail[rng.integers(len(avail))]


def sample_indices(block: MiniMemoryBlock, k: int, rng: np.random.Generator) -> np.ndarray:
    """min(k, block size) example indices drawn without replacement."""
    return rng.choice(len(block), size=min(k, len(block)), replace=False)
