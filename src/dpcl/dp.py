"""Noise configuration, addressed generators and Gaussian noise draws."""

from __future__ import annotations

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


def rng(seed, *key) -> np.random.Generator:
    """The generator of substream key (a role, then its address) under seed:
    streams of distinct keys are independent, in whatever order built."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def draw_noise(seed, address, std, out) -> np.ndarray:
    """Fill out with the i.i.d. N(0, std^2) draws of the noise stream at
    address under seed, and return it."""
    z = rng(seed, 201, *address).standard_normal(out=out)  # 201: the noise role
    z *= std
    return z
