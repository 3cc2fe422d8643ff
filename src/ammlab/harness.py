"""Campaign driver: seeded ensembles of runs, reduced to a per-run table and its summary.

A campaign evaluates one experiment configuration over n_runs independent
price paths.  Run i always consumes the generator seeded by
derive_run_seed(seed, i), so any single run of a campaign can be reproduced
bit for bit by simulate_price_matrix with that one seed and the arbitrage
kernel, and results do not depend on chunking.  Runs go on the unit pool,
p0 = L = 1: the processes and the band test are scale-free, so run_campaign
scales the loss, volume and fee columns by L / sqrt(p0) and the final
prices by p0, once, through analytics.to_pool.

A campaign is one pass over fixed run chunks, each filling its rows of the
per-run metric table; then the summary is built from the whole table, and
binning the table is left to the caller.  A campaign takes the fewest
chunks whose price matrices fit CHUNK_BYTES, equal to within one run, so
the chunk boundaries depend only on n_runs and n_steps and no chunk holds
more paths than the count of chunks needs.  A chunk's paths are built by
_price_blocks, one small reused block of runs at a time.  With a fee, each
block is written into the chunk's step-major price matrix, one column per
run, for the arbitrage kernel, which steps all runs together.  At fee 0 the
pool replays the path, so a run's losses depend on its own path alone, and
arbitrage reduces each block as it is built: a fee-free chunk holds no matrix.
The kernel works through a reused step block of about 128 KiB a buffer, and
chunk_working_bytes states what either kind of chunk holds.  A
sweep checks every campaign's record first, then hands its campaigns one
memo of a chunk matrix, keyed on the arguments that built it: a chunk whose
paths it holds reads them, and any other drops them, then streams at fee 0
or builds its matrix into the memo.  So a fee sweep of one-chunk campaigns,
its fee-free baseline last, builds its paths once; a campaign run alone
gives each chunk a fresh memo, and no matrix outlives its chunk.

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
from functools import partial
from math import isfinite, log, sqrt

import numpy as np

from .analytics import to_pool
from .errors import ConfigError, NumericalError, ResourceLimitError
from .stats import distinct_positive, fit_loglog, mean_stderr
from .stochastic import (
    GBM_FACTOR_FLOOR,
    ProcessKind,
    _checked_int,
    _integer,
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
        for name in ("n_steps", "n_runs"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
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


def _chunk_count(n_runs: int, path: int) -> int:
    """The fewest chunks of n_runs paths of path bytes whose matrices fit CHUNK_BYTES."""
    return -(-n_runs // (CHUNK_BYTES // path))


def plan_chunks(n_runs: int, n_steps: int) -> list[tuple[int, int]]:
    """Fixed [start, stop) run ranges: the fewest chunks that fit CHUNK_BYTES,
    equal to within one run."""
    n_runs, n_steps = _integer(n_runs, "n_runs"), _integer(n_steps, "n_steps")
    k = _chunk_count(n_runs, _path_bytes(n_steps))
    return [(n_runs * j // k, n_runs * (j + 1) // k) for j in range(k)]


def _block_runs(n_runs: int, n_steps: int) -> int:
    """Runs per draw block: about _DRAW_BLOCK_BYTES of draws, at least one run, at most n_runs."""
    return min(n_runs, max(1, _DRAW_BLOCK_BYTES // (8 * n_steps or 1)))


def _step_rows(runs: int) -> int:
    """Steps per arbitrage block: rows of runs doubles of about an eighth of _DRAW_BLOCK_BYTES,
    at least one and at most 255, so a run's trades in a block fit in a byte."""
    return min(255, max(1, _DRAW_BLOCK_BYTES // (64 * max(runs, 1))))


def chunk_working_bytes(n_runs: int, n_steps: int, streamed: Observables | None = None) -> int:
    """Bytes the largest planned chunk holds: its runs' seeds, keys and kernel rows and state
    (16 B a column, fitted), plus its price matrix and three draw blocks of at most that
    matrix, or, for a fee-free campaign's streamed observables, one block of draws and its
    prices, never less than one path; and for pool metrics the kernel's step block over the
    runs it steps, five doubles and two bytes a run for one step more than _step_rows."""
    n_runs, n_steps = _integer(n_runs, "n_runs"), _integer(n_steps, "n_steps")
    path = _path_bytes(n_steps)
    runs = -(-n_runs // max(1, _chunk_count(n_runs, path)))
    if streamed is None:
        held, stepped = runs * path + 3 * min(max(_DRAW_BLOCK_BYTES, path), runs * path), runs
    else:
        block = _block_runs(runs, n_steps)
        held, stepped = 2 * block * path, block if streamed is Observables.POOL else 0
    return runs * 16 * _N_COLS + held + 42 * (min(n_steps, _step_rows(stepped)) + 1) * stepped


def _price_blocks(kind: ProcessKind, sigma: float, n_steps: int, seeds: np.ndarray):
    """Yield (lo, hi, prices), the paths from 1 of uint64 seeds[lo:hi], block by block: run j
    draws make_generator(seeds[j])'s normals, from one generator re-keyed per run with a
    fresh counter, and the draws and prices reuse one buffer each, so prices, shape
    (n_steps + 1, hi - lo), is overwritten by the next block."""
    if not seeds.size:
        return
    rng = make_generator(seeds[0])
    fresh = rng.bit_generator.state  # zero counter, empty buffer
    keys = philox_keys(seeds)
    runs = _block_runs(seeds.size, n_steps)
    block = np.empty((runs, n_steps))
    prices = np.empty((n_steps + 1) * runs)
    for lo in range(0, seeds.size, runs):
        hi = min(lo + runs, seeds.size)
        for row, key in zip(block, keys[lo:hi]):
            fresh["state"]["key"] = key
            rng.bit_generator.state = fresh
            rng.standard_normal(out=row)
        view = prices[:(n_steps + 1) * (hi - lo)].reshape(n_steps + 1, hi - lo)
        yield lo, hi, prices_from_increments(kind, sigma, block[:hi - lo].T, view)


def simulate_price_matrix(kind: ProcessKind, sigma: float, n_steps: int, seeds) -> np.ndarray:
    """Price paths from 1 for the given per-run seeds, shape (n_steps + 1, runs).

    seeds is a 1-d sequence of seeds, each checked as make_generator checks
    one.  Column j depends only on seeds[j]: the paths come from
    _price_blocks, and each block is written into its columns before the
    next block is drawn, so the price matrix is the only full-size array.  A
    single run from p0 is p0 * simulate_price_matrix(kind, sigma, n_steps, [seed])[:, 0].
    """
    if np.ndim(seeds) != 1:
        raise ConfigError(f"seeds must be a 1-d sequence, got {np.ndim(seeds)} dimensions")
    seeds = np.array([_checked_int(s, f"seeds[{j}]") for j, s in enumerate(seeds)],
                     dtype=np.uint64)
    prices = np.empty((n_steps + 1, seeds.size))
    for lo, hi, block in _price_blocks(kind, sigma, n_steps, seeds):
        prices[:, lo:hi] = block
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

    Only the band recursion steps row by row, writing the pool price after each
    step where some run trades, and the trade flags, into a reused block of
    _step_rows(runs) steps; at fee 0 the block is a slice of prices.  Whole-block
    passes turn it into loss terms, added in step order to sums in its first row.
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
    n_steps, runs = prices.shape[0] - 1, prices.shape[1]
    rows = min(n_steps, _step_rows(runs))
    pool, roots, lvr_terms, vol_terms = np.empty((4, rows + 1, runs))
    den, flags = np.empty((rows, runs)), np.empty((rows, runs), dtype=bool)
    marks, rank = np.empty((rows, runs), np.uint8), np.arange(1, rows + 1, dtype=np.uint8)[:, None]
    lvr, vol, n_ev, last_ev, lower, upper = np.zeros((6, runs))
    r0 = roots[0] = np.sqrt(prices[0])

    def book(after: np.ndarray, hit: np.ndarray, steps: np.ndarray) -> None:
        # after[k] is the pool price once steps[k] is done, roots[0] the root before steps[0]
        m = steps.size
        root, lt, vt, d = roots[:m + 1], lvr_terms[:m + 1], vol_terms[:m + 1], den[:m]
        ra, rh = root[:-1], np.sqrt(after, out=root[1:])
        dr = np.subtract(rh, ra, out=lt[1:])
        np.divide(np.abs(dr, out=vt[1:]), np.multiply(ra, rh, out=d), out=vt[1:])
        np.divide(np.multiply(dr, dr, out=dr), np.multiply(d, rh, out=d), out=dr)
        for terms, total in ((lt, lvr), (vt, vol)):
            terms[0] = total  # numpy adds rows in step order, but a lone column pairwise
            total[:] = np.add.reduce(terms, axis=0) if runs > 1 else np.cumsum(terms, axis=0)[-1]
        hit = hit.view(np.uint8)  # at most 255 steps, so a run's count fits in a byte
        np.add(n_ev, np.add.reduce(hit, axis=0, dtype=np.uint8), out=n_ev)
        at = np.maximum.reduce(np.multiply(hit, rank[:m], out=marks[:m]), axis=0)
        np.maximum(last_ev, np.concatenate(([0], steps))[at], out=last_ev)
        roots[0] = root[m]

    if fee == 0.0:  # a trade wherever the price moves
        for lo in range(0, n_steps, rows):
            block = prices[lo:lo + rows + 1]
            hit = np.not_equal(block[1:], block[:-1], out=flags[:len(block) - 1])
            moved = hit.any(axis=1)  # a step where no run trades adds nothing
            steps = np.arange(lo + 1, lo + len(block))
            if moved.all():
                book(block[1:], hit, steps)
            elif moved.any():
                book(block[1:][moved], hit[moved], steps[moved])
        final = prices[-1]
    else:
        keep, exact = 1.0 - fee, band_rule is BandRule.EXACT
        widen, by = (np.divide, keep) if exact else (np.multiply, 1.0 + fee)
        up, steps = np.empty(runs, dtype=bool), np.empty(rows, dtype=np.int64)
        after, hit_rows = list(pool), list(flags)
        pool[0], r = prices[0], 0
        for step in range(1, n_steps + 1):
            p_ref, p_amm, hit = prices[step], after[r], hit_rows[r]
            np.multiply(p_amm, keep, out=lower)
            widen(p_amm, by, out=upper)
            np.greater(p_ref, upper, out=up)
            np.logical_or(up, np.less(p_ref, lower, out=hit), out=hit)
            if np.count_nonzero(hit):
                tgt = p_ref if target is TradeTarget.ORACLE else np.where(
                    up, p_ref * keep if exact else p_ref / (1.0 + fee), p_ref / keep)
                r += 1
                after[r][:], steps[r - 1] = np.where(hit, tgt, p_amm), step
            if r == rows or r and step == n_steps:
                book(pool[1:r + 1], flags[:r], steps[:r])
                pool[0], r = pool[r], 0
        final = pool[0]
    il = (1.0 - r0 / roots[0]) ** 2 / r0  # roots[0] is now the root of the final pool price
    return np.stack([il, lvr, vol, fee * vol, n_ev, final, last_ev], axis=1)


def _metrics_prices_only(prices: np.ndarray) -> np.ndarray:
    out = np.full((prices.shape[1], _N_COLS), np.nan)
    out[:, 4] = 0.0
    out[:, 5] = prices[-1]
    out[:, _LAST_EVENT] = 0.0
    return out


def _compute_chunk(config: ExperimentConfig, lo: int, hi: int, paths: dict) -> np.ndarray:
    seeds = _chunk_seeds(config, lo, hi)
    # paths holds one matrix under simulate_price_matrix's arguments; a chunk it does not
    # hold drops it first, so at most one chunk of paths is ever alive
    key = (config.kind, config.sigma, config.n_steps, seeds.tobytes())
    prices = paths.get(key)
    reduce = (_metrics_prices_only if config.observables is Observables.PRICES else
              partial(arbitrage, fee=config.fee, band_rule=config.band_rule, target=config.target))
    try:
        if prices is None:
            paths.clear()
            if config.fee == 0.0:  # each block is reduced as it is built
                out = np.empty((hi - lo, _N_COLS))
                for a, b, block in _price_blocks(*key[:3], seeds):
                    out[a:b] = reduce(block)
                return out
            prices = paths[key] = simulate_price_matrix(*key[:3], seeds)
            prices.flags.writeable = False  # shared with later campaigns; arbitrage only reads
        return reduce(prices)
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

    paths, when given, is a memo of one chunk matrix shared between calls: a chunk whose
    paths it holds reads them, and any other drops them, then streams at fee 0 or builds
    its matrix into the memo at a fee.  None gives each chunk a fresh memo, so no matrix
    outlives its chunk.  Raises ResourceLimitError when one path alone overflows the chunk
    budget, and NumericalError when to_pool refuses the scale or, naming the metric, when
    a summarized column is not finite or its mean or standard error leaves the double range.
    """
    full = np.empty((config.n_runs, _N_COLS), dtype=float)
    # mean_stderr, not numpy warnings, reports paths leaving the double range
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo, hi in plan_chunks(config.n_runs, config.n_steps):
            full[lo:hi] = _compute_chunk(config, lo, hi, {} if paths is None else paths)
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
    paths: dict = {}  # consecutive one-chunk campaigns on the same paths build it once
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
    steps = distinct_positive([_integer(v, f"steps_list[{j}]") for j, v in enumerate(steps_list)],
                              "step counts")
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
    # the fee-free baseline runs last, so a one-chunk sweep's reads the fee campaigns' paths
    *summaries, baseline = _sweep_summaries(base, [{"fee": f} for f in [*fee_list, 0.0]])
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
