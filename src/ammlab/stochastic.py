"""Discrete-time price processes and their continuum densities.

Two update rules are supported, both with one unit of time per step and
zero drift:

  additive (bm):        P[t+1] = P[t] + P[0] * sigma * dW
  multiplicative (gbm): P[t+1] = P[t] * (1 + sigma * dW)

with dW a standard normal draw.  Note the additive rule scales increments
by the initial price, so sigma is a relative volatility in both cases and
the two rules agree over short horizons.  The matching continuum densities
are a Gaussian with variance P0^2 sigma^2 t and a log-normal whose log has
mean -sigma^2 t / 2 and variance sigma^2 t (so the mean price stays P0).
Paths are built from P0 = 1: a path from P0 is P0 times that path.

Randomness comes from a counter-based generator (Philox) seeded through
SeedSequence.  derive_run_seed and philox_keys restate its hash (NEP 19 freezes
it) on ints, with a campaign seed's pool cached, and on whole seed arrays, so
per-run streams are cheap to derive and independent of execution order; a
batch re-keys one generator per run, and each run draws make_generator(seed)'s.
A seed is an integer in [0, 2**64), not a bool: _checked_int is that rule, and
every door that takes a seed checks it there and raises ConfigError otherwise.
"""

from __future__ import annotations

import operator
from enum import Enum
from functools import lru_cache
from math import sqrt

import numpy as np

from .errors import ConfigError

__all__ = [
    "ProcessKind",
    "pdf_bm",
    "pdf_gbm",
    "make_generator",
    "derive_run_seed",
    "GBM_FACTOR_FLOOR",
]

# multiplicative factors 1 + sigma*dW <= 0 are clamped here so every factor stays positive
GBM_FACTOR_FLOOR = 1e-12

_SQRT_TWO_PI = sqrt(2.0 * np.pi)


class ProcessKind(str, Enum):
    BM = "bm"
    GBM = "gbm"


def _checked_int(value, name: str = "seed", bits: int = 64) -> int:
    """value as a plain int if it is an integer, not a bool, in [0, 2**bits), else ConfigError."""
    try:
        index = operator.index(value)
    except TypeError:
        index = -1
    if isinstance(value, bool) or not 0 <= index < 1 << bits:
        raise ConfigError(f"{name} must fit in an unsigned {bits}-bit integer, got {value!r}")
    return index


def make_generator(seed: int) -> np.random.Generator:
    """Counter-based generator for a seed; ConfigError unless _checked_int takes it."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(_checked_int(seed))))


# SeedSequence's hash constants: hashmix call k xors in consts[k], multiplies by consts[k + 1];
# a pool takes calls 0-15, then a spawn key word takes 16 and 17 for pool words 0 and 1
_MASK32 = 0xFFFFFFFF
_HASH_A = [0x43B0D7E5 * pow(0x931E8875, k, 1 << 32) & _MASK32 for k in range(19)]
_HASH_B = [0x8B51F9DD * pow(0x58F38DED, k, 1 << 32) & _MASK32 for k in range(5)]
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(word, consts: list[int], call: int):
    """SeedSequence's hashmix of 32-bit words, Python ints or uint64 arrays alike."""
    word = (word ^ consts[call]) * consts[call + 1] & _MASK32
    return word ^ word >> 16


def _mix(dst, src):
    mixed = (_MIX_L * dst - _MIX_R * src) & _MASK32
    return mixed ^ mixed >> 16


def _pool(seed) -> tuple:
    """SeedSequence's four-word pool of 64-bit seeds, before any spawn key."""
    # a seed below 2**32 is one entropy word; SeedSequence hashes a zero into
    # every pool word past the entropy, so a zero high word gives the same pool
    calls = iter(range(16))
    pool = [_hashmix(word, _HASH_A, next(calls)) for word in (seed & _MASK32, seed >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], _HASH_A, next(calls)))
    return tuple(pool)


def philox_keys(seeds) -> np.ndarray:
    """Philox keys of make_generator(seed) for a 1-d list of seeds, (runs, 2) uint64.

    Row j is SeedSequence(seeds[j]).generate_state(2, np.uint64): numpy's pool
    hash, restated on arrays so that it runs over all seeds at once.
    """
    pool = _pool(np.asarray(seeds, dtype=np.uint64))
    lo0, hi0, lo1, hi1 = (_hashmix(word, _HASH_B, k) for k, word in enumerate(pool))
    return np.stack([lo0 | hi0 << 32, lo1 | hi1 << 32], axis=-1)


_campaign_pool = lru_cache(maxsize=16)(_pool)  # derive_run_seed's, keyed on one int seed


def derive_run_seed(campaign_seed: int, run_index: int) -> int:
    """Stable 64-bit seed for run number run_index of a campaign.

    Equal to SeedSequence(campaign_seed, spawn_key=(run_index,)).generate_state(
    1, np.uint64)[0], so it does not depend on how runs are batched, and sweeps
    sharing a campaign seed reuse common random numbers per run index.  Raises
    ConfigError unless campaign_seed is a seed and run_index in [0, 2**32).
    """
    campaign_seed = _checked_int(campaign_seed, "campaign_seed")
    run_index = _checked_int(run_index, "run_index", 32)
    pool0, pool1, _, _ = _campaign_pool(campaign_seed)
    lo = _hashmix(_mix(pool0, _hashmix(run_index, _HASH_A, 16)), _HASH_B, 0)
    hi = _hashmix(_mix(pool1, _hashmix(run_index, _HASH_A, 17)), _HASH_B, 1)
    return lo | hi << 32


def pdf_bm(p, p0: float, sigma: float, t: float):
    """Gaussian price density with mean p0 and variance (p0 sigma)^2 t."""
    if p0 <= 0.0:
        raise ValueError(f"p0 must be positive, got {p0}")
    if sigma <= 0.0 or t <= 0.0:
        raise ValueError("sigma and t must be positive")
    scale = p0 * sigma * sqrt(t)
    z = (np.asarray(p, dtype=float) - p0) / scale
    out = np.exp(-0.5 * z * z) / (scale * _SQRT_TWO_PI)
    return out.item() if out.ndim == 0 else out


def pdf_gbm(p, p0: float, sigma: float, t: float):
    """Log-normal price density; log(p/p0) has mean -sigma^2 t / 2, variance sigma^2 t."""
    if p0 <= 0.0:
        raise ValueError(f"p0 must be positive, got {p0}")
    if sigma <= 0.0 or t <= 0.0:
        raise ValueError("sigma and t must be positive")
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("price must be positive for the log-normal density")
    s2 = sigma * sigma * t
    z = np.log(arr / p0) + 0.5 * s2
    out = np.exp(-z * z / (2.0 * s2)) / (arr * sqrt(s2) * _SQRT_TWO_PI)
    return out.item() if out.ndim == 0 else out


def prices_from_increments(kind: ProcessKind, sigma: float, dw: np.ndarray) -> np.ndarray:
    """Apply the update rule from a start at 1 along the first axis of a block of increments.

    Accepts either a single path of draws (shape (n,)) or a step-major batch
    (shape (n, runs), one column per run); returns prices with the start row
    prepended, shape (n + 1,) or (n + 1, runs).
    """
    dw = np.asarray(dw, dtype=float)
    out = np.empty((dw.shape[0] + 1,) + dw.shape[1:], dtype=float)
    out[0] = 1.0
    body = out[1:]
    if kind is ProcessKind.BM:
        np.cumsum(dw, axis=0, out=body)
        body *= sigma
        body += 1.0
    else:
        # the factors 1 + sigma*dW are built in the output itself, so the
        # only temporary is the clamp mask; dw is never written
        np.multiply(dw, sigma, out=body)
        body += 1.0
        np.copyto(body, GBM_FACTOR_FLOOR, where=body <= 0.0)
        np.cumprod(body, axis=0, out=body)
    return out
