"""Loss and volume metrics for a unit of pool liquidity along a price path.

All quantities are token-x denominated.  The central identity: the loss of
the pooled position against the hold-the-entry-reserves benchmark between
prices p0 and p is

    il(p0, p) = (L / sqrt(p0)) * (1 - sqrt(p0 / p))^2 >= 0,

which depends only on the endpoints.  Charging the same expression per step
and summing gives the loss against a continuously rebalanced shadow
portfolio; that sum is path dependent and never smaller than any single-step
view of the same move.  This module holds the scalar per-step formulas:
analytics integrates them, and the reference engine in tests/scalar_engine.py
charges them trade by trade.  harness.arbitrage does not call them; it has its
own vectorised sums over whole batches of paths.
"""

from __future__ import annotations

from math import sqrt

__all__ = [
    "il_between",
    "rebalance_quantities",
    "volume_step",
]


def _check_positive(**named: float) -> None:
    for name, value in named.items():
        if value <= 0.0:
            raise ValueError(f"{name} must be positive, got {value}")


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
