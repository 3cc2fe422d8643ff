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

Randomness comes from a counter-based generator (Philox) seeded through
SeedSequence, which makes per-run streams cheap to derive and independent
of execution order.  A Philox stream is fixed by its 128-bit key, so a
batch re-keys one generator per run with the keys philox_keys hashes for a
whole seed array at once, and each run still draws make_generator(seed)'s.
"""

from __future__ import annotations

from enum import Enum
from math import sqrt

import numpy as np

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

# numpy's SeedSequence hash constants; NEP 19 freezes its streams
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

_SQRT_TWO_PI = sqrt(2.0 * np.pi)


class ProcessKind(str, Enum):
    BM = "bm"
    GBM = "gbm"


def make_generator(seed: int) -> np.random.Generator:
    """Counter-based generator for a 64-bit seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix on uint64 arrays of 32-bit words, one call per word."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def philox_keys(seeds) -> np.ndarray:
    """Philox keys of make_generator(seed) for a 1-d list of seeds, (runs, 2) uint64.

    Row j is SeedSequence(seeds[j]).generate_state(2, np.uint64): numpy's pool
    hash, restated on arrays so that it runs over all seeds at once.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    hash_a = _hasher(_INIT_A, _MULT_A)
    # a seed below 2**32 is one entropy word; SeedSequence hashes a zero into
    # every pool word past the entropy, so a zero high word gives the same pool
    zero = np.zeros_like(seeds)
    pool = [hash_a(word) for word in (seeds & _MASK32, seeds >> 32, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (_MIX_L * pool[dst] - _MIX_R * hash_a(pool[src])) & _MASK32
                pool[dst] = mixed ^ mixed >> 16
    hash_b = _hasher(_INIT_B, _MULT_B)
    lo0, hi0, lo1, hi1 = (hash_b(word) for word in pool)
    return np.stack([lo0 | hi0 << 32, lo1 | hi1 << 32], axis=-1)


def derive_run_seed(campaign_seed: int, run_index: int) -> int:
    """Stable 64-bit seed for run number run_index of a campaign.

    Uses SeedSequence spawn keys, so the mapping is reproducible across
    processes and independent of how runs are batched.  Sweeps that share a
    campaign seed therefore reuse common random numbers per run index.
    """
    if run_index < 0:
        raise ValueError(f"run_index must be nonnegative, got {run_index}")
    ss = np.random.SeedSequence(campaign_seed, spawn_key=(run_index,))
    return int(ss.generate_state(1, np.uint64)[0])


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


def prices_from_increments(
    kind: ProcessKind, p0: float, sigma: float, dw: np.ndarray
) -> np.ndarray:
    """Apply the update rule along the first axis of a block of increments.

    Accepts either a single path of draws (shape (n,)) or a step-major batch
    (shape (n, runs), one column per run); returns prices with the start row
    prepended, shape (n + 1,) or (n + 1, runs).
    """
    dw = np.asarray(dw, dtype=float)
    out = np.empty((dw.shape[0] + 1,) + dw.shape[1:], dtype=float)
    out[0] = p0
    body = out[1:]
    if kind is ProcessKind.BM:
        np.cumsum(dw, axis=0, out=body)
        body *= p0 * sigma
        body += p0
    else:
        # the factors 1 + sigma*dW are built in the output itself, so the
        # only temporary is the clamp mask; dw is never written
        np.multiply(dw, sigma, out=body)
        body += 1.0
        np.copyto(body, GBM_FACTOR_FLOOR, where=body <= 0.0)
        np.cumprod(body, axis=0, out=body)
        body *= p0
    return out
