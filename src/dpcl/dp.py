"""Noise configuration and addressed Gaussian noise injection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError


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


def draw_noise(cfg: NoiseConfig, address, out) -> np.ndarray:
    """Fill out with the standard normals of the addressed noise stream: the
    first half of add_noise, which a caller may run ahead on another thread."""
    return noise_rng(cfg.seed, address).standard_normal(out=out)


def add_noise(g, cfg: NoiseConfig, address=(), *, out=None, drawn=None) -> np.ndarray:
    """g + i.i.d. N(0, sigma^2 * beta^2) per coordinate, reproducible per
    address; drawn and summed in out (new when None), which must not overlap g.
    drawn, when given, waits for draw_noise(cfg, address, out) made elsewhere
    and returns out; the sum is then bitwise that of an inline draw."""
    g = np.asarray(g, dtype=np.float64)
    if not np.all(np.isfinite(g)):
        raise NumericError("gradient contains NaN/Inf")
    if cfg.sigma == 0.0:
        return np.positive(g, out=out)  # a copy of g
    if drawn is not None:
        z = drawn()
    else:
        z = draw_noise(cfg, address, np.empty(g.shape) if out is None else out)
    z *= cfg.sigma * cfg.clip_bound
    z += g
    return z
