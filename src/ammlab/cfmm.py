"""Constant-product pool arithmetic.

A pool holds reserves (x, y) of two tokens subject to x * y = L^2, where the
constant L measures pool depth.  The spot price of token x quoted in token y
is p = y / x, so the reserves at price p are x = L / sqrt(p), y = L * sqrt(p).
Every portfolio value in this package is denominated in token x: a position
holding the pool reserves at price p is worth x + y / p = 2 L / sqrt(p).

Swap fees are tallied on the side and never folded back into the reserves,
so L stays constant through any sequence of swaps.

The loss of the pooled position against holding the entry reserves,

    il(p0, p) = (L / sqrt(p0)) * (1 - sqrt(p0 / p))^2 >= 0,

depends only on the endpoints.  Charged per step and summed, the same
expression gives the path-dependent loss against a continuously rebalanced
shadow portfolio, never smaller than any single-step view of the same move.
analytics integrates these scalar formulas and tests/scalar_engine.py
charges them trade by trade; harness.arbitrage has its own vectorised sums.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import sqrt

__all__ = [
    "Pool",
    "reserves_at_price",
    "position_value",
    "hodl_value",
    "swap_to_price",
    "il_between",
    "rebalance_quantities",
    "volume_step",
]

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


def il_between(liquidity: float, entry_price: float, final_price: float) -> float:
    """Endpoint loss versus holding the entry reserves; zero iff prices match."""
    _check_positive(liquidity=liquidity, entry_price=entry_price, final_price=final_price)
    diff = 1.0 - sqrt(entry_price / final_price)
    return (liquidity / sqrt(entry_price)) * diff * diff


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
