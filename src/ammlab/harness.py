"""Campaign driver: seeded ensembles of runs, reduced to a per-run table and its summary.

A campaign evaluates one experiment configuration over n_runs independent
price paths.  Run i always consumes the generator seeded by
derive_run_seed(seed, i), so any single run of a campaign can be reproduced
bit for bit by simulate_price_matrix with that one seed and the arbitrage
kernel, and results do not depend on chunking.  Runs go on the unit pool,
p0 = L = 1: the processes and the band test are scale-free, so run_campaign
scales the loss, volume and fee columns by L / sqrt(p0) and the final
prices by p0, once, through analytics.to_pool.

A campaign is one pass over fixed run chunks: each chunk builds a step-major
price matrix, one column per run, and the arbitrage kernel fills its rows of
the per-run metric table; then the summary is built from the whole table,
and binning the table is left to the caller.  Chunks are sized by
CHUNK_BYTES, one byte budget on the chunk price matrix, so the chunk
boundaries depend only on n_runs and n_steps.  The matrix is the chunk's
only full-size array: its normal draws are staged through one small reused
block of runs, and each block's prices are written into its columns before
the next block is drawn; chunk_working_bytes states what a chunk holds.  A
sweep builds and checks every campaign's record first, then hands its
campaigns one memo of the last chunk matrix, keyed on the arguments that
built it, so when consecutive campaigns share their paths (a fee sweep's
do) each chunk's paths are built once.

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
telescope the full quadratic variation, up to the end term of the final
offset z_T that the pool never trades away: at sigma = 0.001 and n = 1000
the lvr ratio is 1.0000 at f/sigma = 1 and 0.9999 at 5, but 0.937 at 20.
At f = 0 both rules trade to the reference price.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from math import isfinite, log, sqrt

import numpy as np

from .analytics import to_pool
from .errors import ConfigError, NumericalError, ResourceLimitError
from .stats import distinct_positive, fit_loglog, mean_stderr
from .stochastic import (
    GBM_FACTOR_FLOOR,
    ProcessKind,
    _checked_int,
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
    "chunk_working_bytes",
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

CHUNK_BYTES = 64 << 20
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

    POOL runs the arbitrage accounting and tables every pool-side metric.
    PRICES records endpoint prices only, for comparing the simulated
    ensemble against the analytic densities; pool metrics are left out,
    which also permits additive paths that wander below zero (there the
    pool quantities have no meaning but the density itself is the point).
    """

    POOL = "pool"
    PRICES = "prices"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a campaign needs; hashable and JSON-friendly.

    The enum fields take their string values too, and seed is stored as an
    int, so the record round trips through dataclasses.asdict and JSON.
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
        object.__setattr__(self, "seed", _checked_int(self.seed))
        if not 0.0 <= self.fee < 1.0:
            raise ConfigError(f"fee must lie in [0, 1), got {self.fee}")
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


@dataclass(frozen=True)
class CampaignResult:
    """Output of run_campaign: the per-run table and its summary, nothing binned.

    table is the (n_runs, 6) per-run metric matrix in TABLE_COLUMNS order; a
    price-density campaign leaves its pool columns NaN.  summary holds means
    with standard errors plus the pooled trade statistics and the regime label.
    """

    table: np.ndarray
    summary: dict

    def column(self, name: str) -> np.ndarray:
        return self.table[:, TABLE_COLUMNS.index(name)]


def _path_bytes(n_steps: int) -> int:
    """Bytes of one price path, refused when the path alone overflows CHUNK_BYTES."""
    path_bytes = (n_steps + 1) * 8
    if path_bytes > CHUNK_BYTES:
        raise ResourceLimitError(f"a single path of {n_steps} steps needs {path_bytes} bytes, "
                                 f"over the {CHUNK_BYTES}-byte chunk budget; lower n_steps")
    return path_bytes


def plan_chunks(n_runs: int, n_steps: int) -> list[tuple[int, int]]:
    """Fixed [start, stop) run ranges whose price matrices fit CHUNK_BYTES."""
    runs = CHUNK_BYTES // _path_bytes(n_steps)
    return [(a, min(a + runs, n_runs)) for a in range(0, n_runs, runs)]


def chunk_working_bytes(n_runs: int, n_steps: int) -> int:
    """Bytes a campaign's chunk holds: its price matrix and three draw blocks of at most a chunk."""
    path = _path_bytes(n_steps)
    chunk = min(CHUNK_BYTES, n_runs * path)
    return chunk + 3 * min(max(_DRAW_BLOCK_BYTES, path), chunk)


def simulate_price_matrix(kind: ProcessKind, sigma: float, n_steps: int, seeds) -> np.ndarray:
    """Price paths from 1 for the given per-run seeds, shape (n_steps + 1, runs).

    seeds is a 1-d sequence of seeds, each checked as make_generator checks
    one.  Column j depends only on seeds[j]: it holds exactly the draws of
    make_generator(seeds[j]), from one generator whose Philox is re-keyed per
    run with a fresh counter and buffer.  The draws pass through one reused
    block of about 1 MiB (never less than one run), and each block's prices
    are written into its columns before the next block is drawn, so the
    price matrix is the only full-size array.  A single run from p0 is
    p0 * simulate_price_matrix(kind, sigma, n_steps, [seed])[:, 0].
    """
    if np.ndim(seeds) != 1:
        raise ConfigError(f"seeds must be a 1-d sequence, got {np.ndim(seeds)} dimensions")
    seeds = np.array([_checked_int(s, f"seeds[{j}]") for j, s in enumerate(seeds)],
                     dtype=np.uint64)
    prices = np.empty((n_steps + 1, seeds.size))
    if seeds.size:
        rng = make_generator(seeds[0])
        fresh = rng.bit_generator.state  # zero counter, empty buffer
        keys = philox_keys(seeds)
        runs = min(seeds.size, max(1, _DRAW_BLOCK_BYTES // (8 * n_steps or 1)))
        block = np.empty((runs, n_steps))
        for lo in range(0, seeds.size, runs):
            hi = min(lo + runs, seeds.size)
            for row, key in zip(block, keys[lo:hi]):
                fresh["state"]["key"] = key
                rng.bit_generator.state = fresh
                rng.standard_normal(out=row)
            prices[:, lo:hi] = prices_from_increments(kind, sigma, block[:hi - lo].T)
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
    trade.  Losses and volumes, per unit of L, are summed step by step; fees
    are tallied on the x leg without compounding; il runs from the path start
    prices[0] to the final pool price.
    """
    prices = np.asarray(prices, dtype=float)
    if prices.ndim == 1:
        prices = prices[:, None]
    if prices.ndim != 2 or prices.shape[0] < 2:
        raise ValueError("prices must hold at least two steps, shape (n_steps + 1, runs)")
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
        lvr += dr * dr / (ra * rh * rh)
        vol += np.abs(dr) / (ra * rh)
        n_ev += hit
        np.putmask(last_ev, hit, step)
        ra = rh
    out = np.empty((p_amm.size, _N_COLS), dtype=float)
    # ra is now the root of the final pool price
    out[:, 0] = (1.0 - r0 / ra) ** 2 / r0
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


def _compute_chunk(config: ExperimentConfig, lo: int, hi: int, paths: dict) -> np.ndarray:
    seeds = _chunk_seeds(config, lo, hi)
    # paths holds one matrix under simulate_price_matrix's arguments; a miss drops it
    # before the next build, so at most one chunk of paths is ever alive
    key = (config.kind, config.sigma, config.n_steps, seeds.tobytes())
    prices = paths.get(key)
    if prices is None:
        paths.clear()
        prices = paths[key] = simulate_price_matrix(*key[:3], seeds)
        prices.flags.writeable = False  # shared with later campaigns; arbitrage only reads
    if config.observables is Observables.PRICES:
        return _metrics_prices_only(prices)
    try:
        return arbitrage(prices, config.fee, config.band_rule, config.target)
    except ValueError:
        # ExperimentConfig and plan_chunks checked fee and shape, so the
        # kernel can only have refused nonpositive prices; say why paths reached them
        raise _nonpositive_prices(config) from None


def _summarize(config: ExperimentConfig, table: np.ndarray) -> dict:
    n = table.shape[0]
    summary: dict = {"n_runs": n, "sigma2_t": config.sigma2_t, "regime": config.regime.value}
    prices = config.observables is Observables.PRICES
    for name in ("final_price",) if prices else ("il", "lvr", "volume", "fees"):
        try:
            summary[f"mean_{name}"], summary[f"stderr_{name}"] = mean_stderr(
                table[:, TABLE_COLUMNS.index(name)])
        except NumericalError as exc:
            raise NumericalError(f"{name}: {exc}") from None
    if prices:
        return summary
    total_events = float(table[:, 4].sum())
    summary["mean_events"] = total_events / n
    # pooled wait: elapsed trading time over number of trades, run start anchored
    summary["mean_wait"] = (
        float(table[:, _LAST_EVENT].sum()) / total_events if total_events > 0 else float("nan")
    )
    return summary


def run_campaign(config: ExperimentConfig, *, paths: dict | None = None) -> CampaignResult:
    """Evaluate the configuration over its run ensemble: its per-run table and summary.

    paths, when given, holds the last chunk's price matrix between calls, so a
    campaign on the same paths as the previous one reuses it instead of
    building it again; None starts empty.  Raises ResourceLimitError when one
    path alone overflows the chunk budget, and NumericalError when to_pool
    refuses the scale or, naming the metric, when a summarized column is not
    finite or its mean or standard error leaves the double range.
    """
    paths = {} if paths is None else paths
    full = np.empty((config.n_runs, _N_COLS), dtype=float)
    # mean_stderr, not numpy warnings, reports paths leaving the double range
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo, hi in plan_chunks(config.n_runs, config.n_steps):
            full[lo:hi] = _compute_chunk(config, lo, hi, paths)
        full[:, :4] = to_pool(config, full[:, :4])
        full[:, 5] *= config.p0
    return CampaignResult(table=full[:, : len(TABLE_COLUMNS)].copy(),
                          summary=_summarize(config, full))


# the campaign summaries a sweep row reports, in column order
_ROW_KEYS = ("mean_il", "stderr_il", "mean_lvr", "stderr_lvr", "mean_volume",
             "stderr_volume", "mean_fees", "stderr_fees", "mean_events", "mean_wait")


def _sweep_summaries(base: ExperimentConfig, changes: list[dict]) -> list[dict]:
    """Summaries of one campaign per change to base, in order, all on base.seed."""
    if base.observables is not Observables.POOL:
        raise ConfigError("sweeps report pool metrics, so observables must be pool")
    configs = [replace(base, **change) for change in changes]  # built before any campaign runs
    _path_bytes(max(config.n_steps for config in configs))  # the longest path, as cli._cast does
    paths: dict = {}  # consecutive campaigns on the same paths build each chunk once
    return [run_campaign(config, paths=paths).summary for config in configs]


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


def sweep_volume_vs_steps(base: ExperimentConfig, steps_list, total_variance: float) -> dict:
    """Campaigns across step counts at fixed total price variance.

    Each campaign uses sigma_n = sqrt(total_variance / n_steps), so the
    endpoint distribution is held fixed while the sampling gets finer: the
    cumulative loss should stay put while volume grows like sqrt(n_steps).
    Returns per-step-count rows plus fits: the log-log volume slope and the
    relative spread of the mean loss.
    """
    steps = distinct_positive([int(v) for v in steps_list], "step counts")
    if total_variance <= 0.0:
        raise ConfigError("total_variance must be positive")
    changes = [{"n_steps": n, "sigma": sqrt(total_variance / n)} for n in steps]
    summaries = _sweep_summaries(base, changes)
    rows = [{**c, **{k: m[k] for k in _ROW_KEYS}} for c, m in zip(changes, summaries)]
    fits: dict = {}
    fits["volume_slope"], fits["volume_slope_stderr"] = fit_loglog(
        steps, [m["mean_volume"] for m in summaries])
    lvr_means = np.asarray([m["mean_lvr"] for m in summaries])
    if not lvr_means.mean() > 0.0:
        raise NumericalError(f"the lvr spread divides by the average mean lvr "
                             f"{lvr_means.mean()}, which must be positive")
    fits["lvr_relative_spread"] = float((lvr_means.max() - lvr_means.min()) / lvr_means.mean())
    return {"rows": rows, "fits": fits}


def _interp_crossover(fees, waits) -> float | None:
    # first log-linear crossing of the pooled mean wait through two steps
    for i in range(len(fees) - 1):
        w0, w1 = waits[i], waits[i + 1]
        if w0 < 2.0 <= w1:
            frac = (2.0 - w0) / (w1 - w0)
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
