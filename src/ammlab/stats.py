"""Histogram container and small statistical helpers."""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

__all__ = ["Histogram", "mean_stderr", "fit_loglog", "sample_skewness"]


def mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (0 for a single observation)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / sqrt(arr.size))


def sample_skewness(values: np.ndarray) -> float:
    """Population skewness m3 / m2^(3/2); zero for a degenerate sample."""
    arr = np.asarray(values, dtype=float)
    centered = arr - arr.mean()
    m2 = float(np.mean(centered * centered))
    if m2 == 0.0:
        return 0.0
    m3 = float(np.mean(centered * centered * centered))
    return m3 / m2**1.5


def fit_loglog(x, y) -> tuple[float, float]:
    """Least-squares slope of log y against log x with its standard error."""
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
    """Binned view of a sample plus its first three raw-sample moments."""

    bin_edges: np.ndarray
    counts: np.ndarray
    n_total: int
    mean: float
    variance: float
    skewness: float

    def __post_init__(self) -> None:
        edges = np.asarray(self.bin_edges, dtype=float)
        counts = np.asarray(self.counts, dtype=np.int64)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("bin_edges must be a 1-d array with at least two entries")
        if np.any(np.diff(edges) <= 0.0):
            raise ValueError("bin_edges must be strictly increasing")
        if counts.size != edges.size - 1:
            raise ValueError("counts must have one entry per bin")
        if int(counts.sum()) != self.n_total:
            raise ValueError("counts must sum to n_total")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_samples(cls, values, bins: int = 50) -> "Histogram":
        """Bin a sample into `bins` uniform bins over [min, max].

        A degenerate sample (all values equal) gets a hair-width symmetric
        range so the edges stay strictly increasing.
        """
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            raise ValueError("cannot histogram an empty sample")
        if bins < 1:
            raise ValueError(f"bins must be positive, got {bins}")
        lo, hi = float(arr.min()), float(arr.max())
        if lo == hi:
            span = max(abs(lo) * 1e-9, 1e-12)
            lo, hi = lo - span, hi + span
        counts, edges = np.histogram(arr, bins=bins, range=(lo, hi))
        centered = arr - arr.mean()
        m2 = float(np.mean(centered * centered))
        return cls(
            bin_edges=edges,
            counts=counts,
            n_total=int(counts.sum()),
            mean=float(arr.mean()),
            variance=m2,
            skewness=sample_skewness(arr),
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
