"""Noise configuration and addressed Gaussian noise injection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class NoiseConfig:
    """Noise scale sigma, L2 clip bound, and the base seed for noise streams."""

    sigma: float = 1.0
    clip_bound: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.sigma < np.inf:
            raise ConfigError("sigma must be finite and nonnegative")
        if not 0.0 < self.clip_bound < np.inf:
            raise ConfigError("clip_bound must be finite and positive")
        if self.seed < 0:
            raise ConfigError("noise seed must be >= 0")


def noise_rng(seed, address=()) -> np.random.Generator:
    """Seeded generator for one addressed noise stream.

    Streams addressed by distinct (task, step, role, ...) tuples are
    statistically independent and do not depend on evaluation order.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(201,) + tuple(address)))


def draw_noise(cfg: NoiseConfig, address, out, n_blocks=1) -> np.ndarray:
    """Fill out with the addressed noise stream's i.i.d. N(0, sigma^2 *
    beta^2 / n_blocks) draws and return it: the noise of a release that
    averages n_blocks blocks' clipped means, the law of the mean of
    n_blocks draws at sigma * beta."""
    z = noise_rng(cfg.seed, address).standard_normal(out=out)
    z *= cfg.sigma / math.sqrt(n_blocks) * cfg.clip_bound
    return z

