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
of execution order.
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

_SQRT_TWO_PI = sqrt(2.0 * np.pi)


class ProcessKind(str, Enum):
    BM = "bm"
    GBM = "gbm"


def make_generator(seed: int) -> np.random.Generator:
    """Counter-based generator for a 64-bit seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


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
    if kind is ProcessKind.BM:
        np.cumsum(dw, axis=0, out=out[1:])
        out[1:] *= p0 * sigma
        out[1:] += p0
    else:
        factors = 1.0 + sigma * dw
        factors = np.where(factors <= 0.0, GBM_FACTOR_FLOOR, factors)
        np.cumprod(factors, axis=0, out=out[1:])
        out[1:] *= p0
    return out
