"""Scalar arbitrage engine: the independent oracle for harness.arbitrage.

One path at a time, one Python step at a time, trading an immutable
cfmm.Pool through swap_to_price and charging cfmm.il_between per trade
(over one step the rebalancing loss is the endpoint loss of that step).
It shares no code with the batch kernel beyond the trade-rule labels, so
agreement between the two checks the kernel's band test, post-trade price,
loss and volume sums, and trade counts.

run_no_fee aligns a fee-free pool with every path price in turn; a step
with a nonzero price change is one trade.  run_with_fees trades only on
band breakouts and tallies fees on the x leg.  Both return the run's
metrics and, optionally, one event per executed trade; arb_wait_statistics
turns those events into the distribution of steps between trades.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ammlab import BandRule, Histogram, Pool, TradeTarget, il_between, swap_to_price


@dataclass(frozen=True)
class RunMetrics:
    """Aggregated token-x metrics of one simulated run."""

    il: float
    lvr: float
    volume: float
    fees: float
    n_arb_events: int
    final_price: float


@dataclass(frozen=True)
class ArbEvent:
    """One executed arbitrage trade."""

    step: int
    price_before: float
    price_after: float
    volume_x: float
    fee_x: float
    lvr_increment: float


@dataclass(frozen=True)
class WaitStats:
    mean_wait: float
    histogram: Histogram


def no_trade_band(price: float, fee: float, band_rule: BandRule = BandRule.EXACT):
    """Closed interval of reference prices that leaves the pool untouched."""
    if price <= 0.0:
        raise ValueError(f"price must be positive, got {price}")
    if not 0.0 <= fee < 1.0:
        raise ValueError(f"fee must lie in [0, 1), got {fee}")
    lower = price * (1.0 - fee)
    if band_rule is BandRule.EXACT:
        upper = price / (1.0 - fee)
    else:
        upper = price * (1.0 + fee)
    return lower, upper


def trade_target(
    reference_price: float, upward: bool, fee: float, band_rule: BandRule, target: TradeTarget
) -> float:
    """Post-trade pool price for a breakout in the given direction."""
    if target is TradeTarget.ORACLE:
        return reference_price
    if upward:
        if band_rule is BandRule.EXACT:
            return reference_price * (1.0 - fee)
        return reference_price / (1.0 + fee)
    return reference_price / (1.0 - fee)


def _check_path(path) -> np.ndarray:
    prices = np.asarray(getattr(path, "prices", path), dtype=float)
    if np.any(prices <= 0.0):
        bad = int(np.argmax(prices <= 0.0))
        raise ValueError(
            f"path price at step {bad} is nonpositive; pool arbitrage requires positive prices"
        )
    return prices


def run_no_fee(path, pool: Pool) -> tuple[RunMetrics, list[ArbEvent]]:
    """Align a fee-free pool with every path price in turn."""
    if pool.fee != 0.0:
        raise ValueError("run_no_fee requires a fee-free pool")
    prices = _check_path(path)
    liquidity = pool.liquidity
    events: list[ArbEvent] = []
    lvr = 0.0
    volume = 0.0
    for step in range(1, prices.size):
        p_before = float(prices[step - 1])
        p_after = float(prices[step])
        pool, volume_x, _ = swap_to_price(pool, p_after)
        if volume_x == 0.0:
            continue
        inc = il_between(liquidity, p_before, p_after)
        lvr += inc
        volume += volume_x
        events.append(ArbEvent(step, p_before, p_after, volume_x, 0.0, inc))
    metrics = RunMetrics(
        il=il_between(liquidity, float(prices[0]), float(prices[-1])),
        lvr=lvr,
        volume=volume,
        fees=0.0,
        n_arb_events=len(events),
        final_price=float(prices[-1]),
    )
    return metrics, events


def run_with_fees(
    path,
    pool: Pool,
    fee: float,
    band_rule: BandRule = BandRule.EXACT,
    target: TradeTarget = TradeTarget.ORACLE,
    record_events: bool = True,
) -> tuple[RunMetrics, list[ArbEvent]]:
    """Trade only on band breakouts and tally fees on the x leg.

    fee governs both the band and the fee accounting; the pool's own fee
    field is overridden for the run.  The loss is charged over the executed
    jump only, and il runs from the path start to the final pool price.
    """
    if fee <= 0.0:
        raise ValueError("run_with_fees requires a positive fee; use run_no_fee instead")
    prices = _check_path(path)
    pool = replace(pool, fee=fee)
    liquidity = pool.liquidity
    events: list[ArbEvent] = []
    lvr = 0.0
    volume = 0.0
    fees = 0.0
    n_events = 0
    p_amm = float(pool.spot_price)
    for step in range(1, prices.size):
        p_ref = float(prices[step])
        lower, upper = no_trade_band(p_amm, fee, band_rule)
        if lower <= p_ref <= upper:
            continue
        p_new = trade_target(p_ref, p_ref > upper, fee, band_rule, target)
        pool, volume_x, fee_x = swap_to_price(pool, p_new)
        inc = il_between(liquidity, p_amm, p_new)
        lvr += inc
        volume += volume_x
        fees += fee_x
        n_events += 1
        if record_events:
            events.append(ArbEvent(step, p_amm, p_new, volume_x, fee_x, inc))
        p_amm = p_new
    metrics = RunMetrics(
        il=il_between(liquidity, float(prices[0]), p_amm),
        lvr=lvr,
        volume=volume,
        fees=fees,
        n_arb_events=n_events,
        final_price=p_amm,
    )
    return metrics, events


def arb_wait_statistics(events: list[ArbEvent], n_steps: int, bins: int = 50) -> WaitStats:
    """Distribution of steps between consecutive trades.

    The run start counts as the anchor of the first wait (the pool begins
    aligned with the reference price, as if an arbitrage had just happened),
    so a run that trades at every step has mean_wait exactly 1.
    """
    if not events:
        raise ValueError("no arbitrage occurred; wait statistics are undefined")
    steps = np.asarray([e.step for e in events], dtype=float)
    if np.any(steps < 1) or np.any(steps > n_steps):
        raise ValueError("event steps must lie in 1..n_steps")
    waits = np.diff(np.concatenate(([0.0], steps)))
    return WaitStats(mean_wait=float(waits.mean()), histogram=Histogram.from_samples(waits, bins=bins))
