"""Histogram container and small statistical helpers."""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import ConfigError, NumericalError
from .stochastic import _integer

__all__ = ["Histogram", "mean_stderr", "distinct_positive", "fit_loglog"]


def _finite_sample(values, use: str) -> np.ndarray:
    """values as a float array, refused when empty or when any value is not finite."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError(f"cannot {use} an empty sample")
    finite = np.isfinite(arr)
    if not finite.all():
        raise NumericalError(f"{arr.size - finite.sum()} of {arr.size} sample values "
                             "are not finite")
    return arr


def mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (0 for a single observation), both finite."""
    arr = _finite_sample(values, "summarize")
    with np.errstate(all="ignore"):
        mean = arr.mean()
        stderr = arr.std(ddof=1) / sqrt(arr.size) if arr.size > 1 else 0.0
    if not np.isfinite([mean, stderr]).all():
        raise NumericalError(f"sample moments leave the double range: mean {mean:.3g}, "
                             f"stderr {stderr:.3g}")
    return float(mean), float(stderr)


def distinct_positive(values: list, what: str) -> list:
    """values, checked to hold at least two distinct positive entries: fit_loglog's points."""
    if len(set(values)) < len(values) or len(values) < 2 or any(v <= 0 for v in values):
        raise ConfigError(f"need at least two distinct positive {what}")
    return values


def fit_loglog(x, y) -> tuple[float, float]:
    """Least-squares slope of log y against log x with its standard error."""
    bad = [v for v in (*x, *y) if not v > 0.0]
    if bad:
        raise NumericalError(f"a log-log slope needs positive values, got {bad[0]}")
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    if lx.size < 2:
        raise ValueError("need at least two points to fit a slope")
    if lx.size == 2:
        return float((ly[1] - ly[0]) / (lx[1] - lx[0])), 0.0
    coeffs, cov = np.polyfit(lx, ly, 1, cov=True)
    return float(coeffs[0]), float(sqrt(cov[0, 0]))


@dataclass(frozen=True)
class Histogram:
    """Binned view of a sample plus its first three raw-sample moments; built by from_samples."""

    bin_edges: np.ndarray
    counts: np.ndarray
    n_total: int
    mean: float
    variance: float
    skewness: float

    @classmethod
    def from_samples(cls, values, bins: int = 50) -> "Histogram":
        """Bin a sample into `bins` uniform bins over [min, max].

        A sample too narrow for `bins` distinct edges (all values equal, or
        a few ulps apart) gets a hair-width wider range.
        """
        arr = _finite_sample(values, "histogram")
        bins = _integer(bins, "bins")
        if bins < 1:
            raise ValueError(f"bins must be positive, got {bins}")
        with np.errstate(all="ignore"):
            mean = arr.mean()
            centered = arr - mean
            m2 = np.mean(centered * centered)
            m3 = np.mean(centered * centered * centered)
            scale = m2**1.5
            skewness = m3 / scale if m2 > 0.0 else 0.0
        if not np.isfinite([mean, m2, m3, scale, skewness]).all():
            raise NumericalError(f"sample moments leave the double range: mean {mean:.3g}, "
                                 f"variance {m2:.3g}, third moment {m3:.3g}")
        lo, hi = float(arr.min()), float(arr.max())
        if np.any(np.diff(np.linspace(lo, hi, bins + 1)) <= 0.0):
            span = max(abs(lo) * 1e-9, 1e-12)
            lo, hi = lo - span, hi + span
        counts, edges = np.histogram(arr, bins=bins, range=(lo, hi))
        return cls(
            bin_edges=edges,
            counts=counts,
            n_total=int(counts.sum()),
            mean=float(mean),
            variance=float(m2),
            skewness=float(skewness),
        )

    def to_dict(self) -> dict:
        return {
            "bin_edges": [float(v) for v in self.bin_edges],
            "counts": [int(v) for v in self.counts],
            "n_total": int(self.n_total),
            "moments": {
                "mean": self.mean,
                "variance": self.variance,
                "skewness": self.skewness,
            },
        }
