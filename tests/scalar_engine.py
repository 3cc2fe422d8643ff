"""Scalar pool model and arbitrage engine: the independent oracle for harness.arbitrage.

The pool formulas restate, one scalar at a time, the constant-product
model described in ammlab.analytics: reserves at a price, the token-x
values of the pooled and the held reserves, an immutable Pool with
fee-aware swaps, and the token flows of one rebalancing step.

The engine runs one path at a time, one Python step at a time, trading a
Pool through swap_to_price and charging ammlab.il_between per trade (over
one step the rebalancing loss is the endpoint loss of that step).  It
shares no code with the batch kernel beyond the trade-rule labels, so
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
from math import sqrt

import numpy as np

from ammlab import BandRule, Histogram, TradeTarget, il_between

# relative slack allowed on x * y = L^2 when validating a Pool
_PRODUCT_RTOL = 1e-12


def _check_positive(**named: float) -> None:
    for name, value in named.items():
        if value <= 0.0:
            raise ValueError(f"{name} must be positive, got {value}")


def reserves_at_price(liquidity: float, price: float) -> tuple[float, float]:
    """Reserves (x, y) = (L / sqrt(p), L * sqrt(p)) held at spot price p."""
    _check_positive(liquidity=liquidity, price=price)
    root = sqrt(price)
    return liquidity / root, liquidity * root


def position_value(liquidity: float, price: float) -> float:
    """Value of the pooled reserves in token-x units: 2 L / sqrt(p)."""
    _check_positive(liquidity=liquidity, price=price)
    return 2.0 * liquidity / sqrt(price)


def hodl_value(liquidity: float, entry_price: float, current_price: float) -> float:
    """Value of the unpooled entry reserves marked at the current price.

    The benchmark portfolio takes the reserves that were deposited at
    entry_price and simply holds them, so its token-x value at price p is
    x0 + y0 / p = (L / sqrt(p0)) * (1 + p0 / p).
    """
    x0, y0 = reserves_at_price(liquidity, entry_price)
    _check_positive(price=current_price)
    return x0 + y0 / current_price


@dataclass(frozen=True)
class Pool:
    """Immutable pool state.

    fee is the proportional swap fee in [0, 1).  Fees are reported by
    swap_to_price but never added to the reserves, so the product invariant
    x * y = L^2 holds exactly for the lifetime of the pool.
    """

    liquidity: float
    reserve_x: float
    reserve_y: float
    fee: float = 0.0

    def __post_init__(self) -> None:
        if not (self.liquidity > 0.0 and self.reserve_x > 0.0 and self.reserve_y > 0.0):
            raise ValueError("pool liquidity and reserves must be positive")
        if not 0.0 <= self.fee < 1.0:
            raise ValueError(f"fee must lie in [0, 1), got {self.fee}")
        target = self.liquidity * self.liquidity
        if abs(self.reserve_x * self.reserve_y - target) > _PRODUCT_RTOL * target:
            raise ValueError("reserves violate the product invariant x * y = L^2")

    @classmethod
    def from_price(cls, liquidity: float, price: float, fee: float = 0.0) -> "Pool":
        x, y = reserves_at_price(liquidity, price)
        return cls(liquidity=liquidity, reserve_x=x, reserve_y=y, fee=fee)

    @property
    def spot_price(self) -> float:
        return self.reserve_y / self.reserve_x

    @property
    def value(self) -> float:
        """Token-x value of the reserves at the current spot price."""
        return self.reserve_x + self.reserve_y / self.spot_price


def swap_to_price(pool: Pool, target_price: float) -> tuple[Pool, float, float]:
    """Swap against the pool until its spot price equals target_price.

    Returns (new_pool, volume_x, fee_paid_x).  volume_x is the unsigned
    change of the x reserve, which doubles as the trade size in token-x
    units.  The fee is charged on that x leg, fee_paid_x = fee * volume_x,
    and is accounted outside the pool: the post-trade reserves are exactly
    the no-fee reserves at target_price.
    """
    _check_positive(price=target_price)
    new_x, new_y = reserves_at_price(pool.liquidity, target_price)
    volume_x = abs(new_x - pool.reserve_x)
    fee_paid_x = pool.fee * volume_x
    new_pool = replace(pool, reserve_x=new_x, reserve_y=new_y)
    return new_pool, volume_x, fee_paid_x


def rebalance_quantities(
    liquidity: float, price: float, next_price: float
) -> tuple[float, float, float]:
    """Token flows behind one rebalancing step.

    Returns (dy, dx_bar, dx):
      dy     - change of the y reserve, which the shadow portfolio must buy
               (sell when negative) to keep tracking the pool,
      dx_bar - x spent by the shadow portfolio to do so at the new price,
      dx     - x the pool position itself gave up over the step.
    The gap dx - dx_bar is the step's rebalancing loss and is positive for
    any move in either direction.  Both flows are built from 1 - sqrt(price /
    next_price) taken from the price difference, so the gap keeps its sign
    and stays within a few ulps of dx even for moves of a few ulps.
    """
    _check_positive(liquidity=liquidity, price=price, next_price=next_price)
    sp = sqrt(price)
    sn = sqrt(next_price)
    dy = liquidity * (sn - sp)
    d = (next_price - price) / (sn * (sn + sp))
    dx = (liquidity / sp) * d
    dx_bar = dx * (1.0 - d)
    return dy, dx_bar, dx


def volume_step(liquidity: float, price: float, next_price: float) -> float:
    """Unsigned x-reserve change |x(next) - x(now)| caused by one step."""
    _check_positive(liquidity=liquidity, price=price, next_price=next_price)
    return abs(liquidity / sqrt(next_price) - liquidity / sqrt(price))




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
