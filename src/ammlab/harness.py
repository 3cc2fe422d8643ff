"""Campaign driver: seeded ensembles of runs, summarized and binned.

A campaign evaluates one experiment configuration over n_runs independent
price paths.  Run i always consumes the generator seeded by
derive_run_seed(seed, i), so any single run of a campaign can be reproduced
bit for bit by simulate_price_matrix with that one seed and the arbitrage
kernel, and results do not depend on chunking.

A campaign is one pass over fixed run chunks: each chunk builds a step-major
price matrix, one column per run, and the arbitrage kernel fills its rows of
the per-run metric table; then the summary and the histograms are built
from the whole table.  Chunks are sized by a byte budget on the chunk price
matrix, so the chunk boundaries are a pure function of the configuration.
The matrix is the chunk's only full-size array: its normal draws are staged
through one small reused block of runs, and each block's prices are
written into its columns before the next block is drawn.

Arbitrage against the reference price.  With a proportional fee f the pool
is only worth trading once the reference price leaves a no-trade band
around the pool spot price p:

    exact band:      [p * (1 - f), p / (1 - f)]
    linearized band: [p * (1 - f), p * (1 + f)]

A fee-free pool is the same rule with a band of zero width: every step whose
price differs from the pool's is a trade, and the pool replays the path.

Two post-trade conventions are supported; the oracle rule is the default
of ExperimentConfig and the CLI.  The marginal rule swaps until the
marginal profit net of fee vanishes, which parks the pool at the price
whose band edge sits exactly on the reference price: after an upward
breakout the reference price is the upper edge of the new band, so one more
move in the same direction triggers the next trade immediately, while a
reversal must traverse the whole band.  The oracle rule swaps all the way
to the reference price, which re-centers the band instead.  The marginal
rule is the one that yields the linear growth of waiting times with f and
the 1/f fee suppression of the rebalancing loss; the oracle rule keeps the
expected loss at its fee-free value because the traded increments still
telescope the full quadratic variation.  At f = 0 both rules trade to the
reference price.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from math import isfinite, log, sqrt
from numbers import Integral

import numpy as np

from .errors import ConfigError, NumericalError, ResourceLimitError
from .stats import Histogram, distinct_positive, fit_loglog, mean_stderr
from .stochastic import (
    GBM_FACTOR_FLOOR,
    ProcessKind,
    derive_run_seed,
    make_generator,
    philox_keys,
    prices_from_increments,
)

__all__ = [
    "TABLE_COLUMNS",
    "KERNEL_COLUMNS",
    "BandRule",
    "TradeTarget",
    "arbitrage",
    "RegimeLabel",
    "Observables",
    "ExperimentConfig",
    "CampaignResult",
    "classify_regime",
    "plan_chunks",
    "simulate_price_matrix",
    "run_campaign",
    "sweep_volume_vs_sigma",
    "sweep_volume_vs_steps",
    "sweep_fee",
]

TABLE_COLUMNS = ("il", "lvr", "volume", "fees", "n_arb_events", "final_price")
# the kernel adds the step index of the last trade (0 if none), for pooled waits
KERNEL_COLUMNS = TABLE_COLUMNS + ("last_trade",)

_N_COLS = len(KERNEL_COLUMNS)
_LAST_EVENT = _N_COLS - 1

DEFAULT_CHUNK_BYTES = 64 << 20
DEFAULT_TABLE_BYTES = 1 << 30
# simulate_price_matrix draws through a reused block of about this many bytes
_DRAW_BLOCK_BYTES = 1 << 20

SHORT_REGIME_MAX = 0.01
LONG_REGIME_MIN = 1.0


class BandRule(str, Enum):
    EXACT = "exact"
    LINEARIZED = "linearized"


class TradeTarget(str, Enum):
    MARGINAL = "marginal"
    ORACLE = "oracle"


class RegimeLabel(str, Enum):
    SHORT = "short"
    INTERMEDIATE = "intermediate"
    LONG = "long"


def classify_regime(sigma2_t: float) -> RegimeLabel:
    """Bucket a horizon by sigma^2 * t: short <= 0.01, long >= 1."""
    if sigma2_t < 0.0:
        raise ValueError(f"sigma2_t must be nonnegative, got {sigma2_t}")
    if sigma2_t <= SHORT_REGIME_MAX:
        return RegimeLabel.SHORT
    if sigma2_t >= LONG_REGIME_MIN:
        return RegimeLabel.LONG
    return RegimeLabel.INTERMEDIATE


class Observables(str, Enum):
    """What a campaign measures.

    POOL runs the arbitrage accounting and bins every pool-side metric.
    PRICES records endpoint prices only, for comparing the simulated
    ensemble against the analytic densities; pool metrics are left out,
    which also permits additive paths that wander below zero (there the
    pool quantities have no meaning but the density itself is the point).
    """

    POOL = "pool"
    PRICES = "prices"


_POOL_HISTOGRAMS = (
    "il",
    "lvr",
    "volume",
    "fees",
    "il_minus_fees",
    "lvr_minus_fees",
    "final_price",
)
_PRICE_HISTOGRAMS = ("final_price",)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a campaign needs; hashable and JSON-friendly.

    The enum fields also accept their string values, so the record round
    trips through dataclasses.asdict and JSON.
    """

    kind: ProcessKind
    p0: float
    sigma: float
    n_steps: int
    liquidity: float
    n_runs: int
    seed: int = 0
    fee: float = 0.0
    band_rule: BandRule = BandRule.EXACT
    target: TradeTarget = TradeTarget.ORACLE
    observables: Observables = Observables.POOL
    bins: int = 50

    def __post_init__(self) -> None:
        for name, enum in (("kind", ProcessKind), ("band_rule", BandRule),
                           ("target", TradeTarget), ("observables", Observables)):
            object.__setattr__(self, name, enum(getattr(self, name)))
        for name in ("p0", "sigma", "liquidity"):
            value = getattr(self, name)
            if not isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.p0 <= 0.0 or self.liquidity <= 0.0:
            raise ConfigError("p0 and liquidity must be positive")
        if self.sigma < 0.0:
            raise ConfigError(f"sigma must be nonnegative, got {self.sigma}")
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be positive, got {self.n_steps}")
        if self.n_runs < 1:
            raise ConfigError(f"n_runs must be positive, got {self.n_runs}")
        if not (isinstance(self.seed, Integral) and not isinstance(self.seed, bool)
                and 0 <= self.seed < 2**64):
            raise ConfigError(f"seed must fit in an unsigned 64-bit integer, got {self.seed!r}")
        if not 0.0 <= self.fee < 1.0:
            raise ConfigError(f"fee must lie in [0, 1), got {self.fee}")
        if self.bins < 1:
            raise ConfigError(f"bins must be positive, got {self.bins}")
        if self.observables is Observables.PRICES and self.fee != 0.0:
            raise ConfigError("price-density campaigns skip the pool, so fee must be 0")
        if self.observables is Observables.PRICES and not self.sigma2_t > 0.0:
            raise ConfigError("price-density campaigns compare with the analytic density, "
                              f"so sigma^2 n_steps must be positive, got sigma = {self.sigma}")

    @property
    def sigma2_t(self) -> float:
        return self.sigma * self.sigma * self.n_steps

    @property
    def regime(self) -> RegimeLabel:
        return classify_regime(self.sigma2_t)

    def histogram_names(self) -> tuple[str, ...]:
        if self.observables is Observables.PRICES:
            return _PRICE_HISTOGRAMS
        return _POOL_HISTOGRAMS


@dataclass(frozen=True)
class CampaignResult:
    """Output of run_campaign.

    table is the (n_runs, 6) per-run metric matrix in TABLE_COLUMNS order.
    summary holds means with standard errors plus the pooled trade
    statistics and the regime label.
    """

    config: ExperimentConfig
    table: np.ndarray
    histograms: dict[str, Histogram]
    summary: dict

    def column(self, name: str) -> np.ndarray:
        return self.table[:, TABLE_COLUMNS.index(name)]


def plan_chunks(
    n_runs: int, n_steps: int, chunk_bytes: int = DEFAULT_CHUNK_BYTES
) -> list[tuple[int, int]]:
    """Fixed [start, stop) run ranges whose price matrices fit chunk_bytes."""
    path_bytes = (n_steps + 1) * 8
    if path_bytes > chunk_bytes:
        raise ResourceLimitError(
            f"a single path of {n_steps} steps needs {path_bytes} bytes, over the "
            f"{chunk_bytes}-byte chunk budget; lower n_steps or raise the budget"
        )
    runs = max(1, chunk_bytes // path_bytes)
    return [(a, min(a + runs, n_runs)) for a in range(0, n_runs, runs)]


def simulate_price_matrix(
    kind: ProcessKind, p0: float, sigma: float, n_steps: int, seeds
) -> np.ndarray:
    """Price paths for the given per-run seeds, shape (n_steps + 1, runs).

    seeds is a 1-d sequence of integers in [0, 2**64).  Column j depends only
    on seeds[j]: it holds exactly the draws of make_generator(seeds[j]), from
    one generator whose Philox is re-keyed per run with a fresh counter and
    buffer.  The draws pass through one reused block of about 1 MiB (never
    less than one run), and each block's prices are written into its columns
    before the next block is drawn, so the price matrix is the only
    full-size array.  A single run is
    simulate_price_matrix(kind, p0, sigma, n_steps, [seed])[:, 0].
    """
    seeds = np.asarray(seeds, dtype=object)
    if seeds.ndim != 1 or not all(isinstance(s, Integral) and not isinstance(s, bool)
                                  and 0 <= s < 2**64 for s in seeds):
        raise ValueError("seeds must be a 1-d sequence of integers in [0, 2**64)")
    prices = np.empty((n_steps + 1, seeds.size))
    if seeds.size:
        rng = make_generator(int(seeds[0]))
        fresh = rng.bit_generator.state  # zero counter, empty buffer
        keys = philox_keys(seeds.astype(np.uint64))
        runs = min(seeds.size, max(1, _DRAW_BLOCK_BYTES // (8 * n_steps or 1)))
        block = np.empty((runs, n_steps))
        for lo in range(0, seeds.size, runs):
            hi = min(lo + runs, seeds.size)
            for row, key in zip(block, keys[lo:hi]):
                fresh["state"]["key"] = key
                rng.bit_generator.state = fresh
                rng.standard_normal(out=row)
            prices[:, lo:hi] = prices_from_increments(kind, p0, sigma, block[:hi - lo].T)
    return prices


def _chunk_seeds(config: ExperimentConfig, lo: int, hi: int) -> np.ndarray:
    return np.asarray(
        [derive_run_seed(config.seed, i) for i in range(lo, hi)], dtype=np.uint64
    )


def _nonpositive_prices(config: ExperimentConfig) -> NumericalError:
    """Why a campaign's paths reached the nonpositive prices the arbitrage kernel refuses."""
    if config.kind is ProcessKind.BM:
        return NumericalError(
            "a path reached a nonpositive price; the additive process with "
            f"sigma*sqrt(t) = {config.sigma * sqrt(config.n_steps):.3g} leaks through zero, "
            "use a shorter horizon or the multiplicative process"
        )
    return NumericalError(
        f"a multiplicative path underflowed to zero: with sigma = {config.sigma:.3g}, step "
        f"factors 1 + sigma*dW <= 0 were clamped to GBM_FACTOR_FLOOR = {GBM_FACTOR_FLOOR:g} "
        "until the price fell below the smallest double; lower sigma"
    )


def arbitrage(
    prices,
    liquidity: float,
    fee: float = 0.0,
    band_rule: BandRule = BandRule.EXACT,
    target: TradeTarget = TradeTarget.ORACLE,
) -> np.ndarray:
    """Band arbitrage over step-major price paths, all runs stepped together.

    prices has shape (n_steps + 1, runs), one column per run; a 1-d path is
    a batch of one.  Returns one row per run in KERNEL_COLUMNS order.  A
    trade happens at each step whose reference price leaves the band around
    the pool price; fee 0 is the band of zero width.  The loss is charged
    over the executed jump only (pre-trade pool price to post-trade pool
    price), so steps the pool sits out are coarse grained into the next
    trade.  Losses and volumes are summed step by step; fees are tallied on
    the x leg without compounding; il runs from the path start to the final
    pool price.
    """
    prices = np.asarray(prices, dtype=float)
    if prices.ndim == 1:
        prices = prices[:, None]
    if prices.ndim != 2 or prices.shape[0] < 2:
        raise ValueError("prices must hold at least two steps, shape (n_steps + 1, runs)")
    if not liquidity > 0.0:
        raise ValueError(f"liquidity must be positive, got {liquidity}")
    if not 0.0 <= fee < 1.0:
        raise ValueError(f"fee must lie in [0, 1), got {fee}")
    if not prices.min() > 0.0:
        raise ValueError("pool arbitrage requires positive prices")
    keep = 1.0 - fee
    p_amm = prices[0].copy()
    r0 = ra = np.sqrt(p_amm)
    lvr = np.zeros(p_amm.size)
    vol = np.zeros(p_amm.size)
    n_ev = np.zeros(p_amm.size, dtype=np.int64)
    last_ev = np.zeros(p_amm.size, dtype=np.int64)
    for step in range(1, prices.shape[0]):
        p_ref = prices[step]
        lower = p_amm * keep
        upper = p_amm / keep if band_rule is BandRule.EXACT else p_amm * (1.0 + fee)
        up = p_ref > upper
        hit = up | (p_ref < lower)
        if not hit.any():
            continue
        if target is TradeTarget.ORACLE:
            tgt = p_ref
        elif band_rule is BandRule.EXACT:
            tgt = np.where(up, p_ref * keep, p_ref / keep)
        else:
            tgt = np.where(up, p_ref / (1.0 + fee), p_ref / keep)
        p_amm = np.where(hit, tgt, p_amm)
        rh = np.sqrt(p_amm)
        dr = rh - ra
        lvr += liquidity * dr * dr / (ra * rh * rh)
        vol += liquidity * np.abs(dr) / (ra * rh)
        n_ev += hit
        np.putmask(last_ev, hit, step)
        ra = rh
    out = np.empty((p_amm.size, _N_COLS), dtype=float)
    # ra is now the root of the final pool price
    out[:, 0] = liquidity / r0 * (1.0 - r0 / ra) ** 2
    out[:, 1] = lvr
    out[:, 2] = vol
    out[:, 3] = fee * vol
    out[:, 4] = n_ev
    out[:, 5] = p_amm
    out[:, _LAST_EVENT] = last_ev
    return out


def _metrics_prices_only(prices: np.ndarray) -> np.ndarray:
    out = np.full((prices.shape[1], _N_COLS), np.nan)
    out[:, 4] = 0.0
    out[:, 5] = prices[-1]
    out[:, _LAST_EVENT] = 0.0
    return out


def _compute_chunk(config: ExperimentConfig, lo: int, hi: int) -> np.ndarray:
    seeds = _chunk_seeds(config, lo, hi)
    prices = simulate_price_matrix(config.kind, config.p0, config.sigma, config.n_steps, seeds)
    if config.observables is Observables.PRICES:
        return _metrics_prices_only(prices)
    try:
        return arbitrage(prices, config.liquidity, config.fee, config.band_rule, config.target)
    except ValueError:
        # ExperimentConfig and plan_chunks checked liquidity, fee and shape, so the
        # kernel can only have refused nonpositive prices; say why paths reached them
        raise _nonpositive_prices(config) from None


def _observable_values(rows: np.ndarray, name: str) -> np.ndarray:
    if name == "il_minus_fees":
        return rows[:, 0] - rows[:, 3]
    if name == "lvr_minus_fees":
        return rows[:, 1] - rows[:, 3]
    return rows[:, TABLE_COLUMNS.index(name)]


def _summarize(config: ExperimentConfig, table: np.ndarray) -> dict:
    n = table.shape[0]
    summary: dict = {"n_runs": n, "sigma2_t": config.sigma2_t, "regime": config.regime.value}
    if config.observables is Observables.PRICES:
        summary["mean_final_price"], summary["stderr_final_price"] = mean_stderr(table[:, 5])
        return summary
    for name in ("il", "lvr", "volume", "fees"):
        col = table[:, TABLE_COLUMNS.index(name)]
        summary[f"mean_{name}"], summary[f"stderr_{name}"] = mean_stderr(col)
    total_events = float(table[:, 4].sum())
    summary["mean_events"] = total_events / n
    # pooled wait: elapsed trading time over number of trades, run start anchored
    summary["mean_wait"] = (
        float(table[:, _LAST_EVENT].sum()) / total_events if total_events > 0 else float("nan")
    )
    return summary


def run_campaign(
    config: ExperimentConfig,
    *,
    max_table_bytes: int = DEFAULT_TABLE_BYTES,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> CampaignResult:
    """Evaluate the configuration over its run ensemble.

    Raises ResourceLimitError when the per-run table would exceed
    max_table_bytes or when one path alone overflows the chunk budget.
    """
    table_bytes = config.n_runs * _N_COLS * 8
    if table_bytes > max_table_bytes:
        raise ResourceLimitError(
            f"per-run table needs {table_bytes} bytes (> {max_table_bytes}); "
            "lower n_runs or raise max_table_bytes"
        )
    full = np.empty((config.n_runs, _N_COLS), dtype=float)
    # Histogram.from_samples, not numpy warnings, reports paths leaving the double range
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo, hi in plan_chunks(config.n_runs, config.n_steps, chunk_bytes):
            full[lo:hi] = _compute_chunk(config, lo, hi)
    histograms = {
        name: Histogram.from_samples(_observable_values(full, name), bins=config.bins)
        for name in config.histogram_names()
    }
    return CampaignResult(
        config=config,
        table=full[:, : len(TABLE_COLUMNS)].copy(),
        histograms=histograms,
        summary=_summarize(config, full),
    )


# the campaign summaries a sweep row reports, in column order
_ROW_KEYS = ("mean_il", "stderr_il", "mean_lvr", "stderr_lvr", "mean_volume",
             "stderr_volume", "mean_fees", "stderr_fees", "mean_events", "mean_wait")


def _sweep_summaries(base: ExperimentConfig, changes: list[dict]) -> list[dict]:
    """Summaries of one campaign per change to base, in order, all on base.seed."""
    if base.observables is not Observables.POOL:
        raise ConfigError("sweeps report pool metrics, so observables must be pool")
    return [run_campaign(replace(base, **change)).summary for change in changes]


def sweep_volume_vs_sigma(base: ExperimentConfig, sigmas) -> dict:
    """Campaigns across volatilities on common random numbers.

    All campaigns reuse base.seed, so run i sees the same Gaussian
    increments at every volatility and the fitted slopes are nearly free of
    Monte Carlo jitter.  Returns per-sigma rows plus fits: log-log slopes of
    the mean trading volume and mean loss against sigma.
    """
    sig = distinct_positive([float(s) for s in sigmas], "volatilities")
    changes = [{"sigma": s} for s in sig]
    summaries = _sweep_summaries(base, changes)
    rows = [{**c, **{k: m[k] for k in _ROW_KEYS}} for c, m in zip(changes, summaries)]
    fits: dict = {}
    fits["volume_slope"], fits["volume_slope_stderr"] = fit_loglog(
        sig, [m["mean_volume"] for m in summaries])
    fits["lvr_slope"], fits["lvr_slope_stderr"] = fit_loglog(
        sig, [m["mean_lvr"] for m in summaries])
    return {"rows": rows, "fits": fits}


def sweep_volume_vs_steps(
    base: ExperimentConfig,
    steps_list,
    total_variance: float | None = None,
) -> dict:
    """Campaigns across step counts at fixed total price variance.

    Each campaign uses sigma_n = sqrt(total_variance / n_steps), so the
    endpoint distribution is held fixed while the sampling gets finer: the
    cumulative loss should stay put while volume grows like sqrt(n_steps).
    Returns per-step-count rows plus fits: the log-log volume slope and the
    relative spread of the mean loss.
    """
    steps = distinct_positive([int(v) for v in steps_list], "step counts")
    if total_variance is None:
        total_variance = base.sigma2_t
    if total_variance <= 0.0:
        raise ConfigError("total_variance must be positive")
    changes = [{"n_steps": n, "sigma": sqrt(total_variance / n)} for n in steps]
    summaries = _sweep_summaries(base, changes)
    rows = [{**c, **{k: m[k] for k in _ROW_KEYS}} for c, m in zip(changes, summaries)]
    fits: dict = {}
    fits["volume_slope"], fits["volume_slope_stderr"] = fit_loglog(
        steps, [m["mean_volume"] for m in summaries])
    lvr_means = np.asarray([m["mean_lvr"] for m in summaries])
    fits["lvr_relative_spread"] = float((lvr_means.max() - lvr_means.min()) / lvr_means.mean())
    return {"rows": rows, "fits": fits}


def _interp_crossover(fees, waits, level: float = 2.0) -> float | None:
    # first log-linear crossing of the pooled mean wait through `level`
    for i in range(len(fees) - 1):
        w0, w1 = waits[i], waits[i + 1]
        if w0 < level <= w1:
            frac = (level - w0) / (w1 - w0)
            return float(np.exp(log(fees[i]) + frac * (log(fees[i + 1]) - log(fees[i]))))
    return None


def sweep_fee(base: ExperimentConfig, fees) -> dict:
    """Campaigns across fee levels plus a fee-free baseline on the same seeds.

    Rows carry f / sigma alongside the loss, volume and trade-frequency
    summaries, and the loss ratio against the baseline.  Fits: the log-log
    volume and loss slopes over the deep-fee rows (f / sigma >= 10) where
    trades are rare, and the fee at which the pooled mean wait crosses two
    steps, the practical edge of the trade-every-step region.
    """
    fee_list = [float(f) for f in fees]
    if not fee_list or any(f <= 0.0 for f in fee_list):
        raise ConfigError("fee sweep needs a nonempty fees list, every fee positive")
    if any(b <= a for a, b in zip(fee_list, fee_list[1:])):
        raise ConfigError("fees must be strictly increasing")
    if base.sigma <= 0.0:
        raise ConfigError("fee sweep needs a positive sigma: its rows report f / sigma")
    baseline, *summaries = _sweep_summaries(base, [{"fee": f} for f in [0.0, *fee_list]])
    if not (baseline["mean_lvr"] > 0.0 and baseline["mean_volume"] > 0.0):
        raise NumericalError(f"fee rows divide by the fee-free mean lvr {baseline['mean_lvr']} "
                             f"and mean volume {baseline['mean_volume']}; both must be positive")
    rows = [
        {"fee": f, "f_over_sigma": f / base.sigma, **{k: m[k] for k in _ROW_KEYS},
         "lvr_ratio": m["mean_lvr"] / baseline["mean_lvr"],
         "volume_ratio": m["mean_volume"] / baseline["mean_volume"]}
        for f, m in zip(fee_list, summaries)
    ]
    deep = [r for r in rows if r["f_over_sigma"] >= 10.0]
    fits: dict = {"crossover_fee": _interp_crossover(fee_list, [r["mean_wait"] for r in rows])}
    if len(deep) >= 2:
        xs = [r["fee"] for r in deep]
        fits["deep_volume_slope"], fits["deep_volume_slope_stderr"] = fit_loglog(
            xs, [r["mean_volume"] for r in deep]
        )
        fits["deep_lvr_slope"], fits["deep_lvr_slope_stderr"] = fit_loglog(
            xs, [r["mean_lvr"] for r in deep]
        )
    return {"baseline": baseline, "rows": rows, "fits": fits}
