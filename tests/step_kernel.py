"""The arbitrage kernel as it stood before the step block: one numpy pass per step.

harness.arbitrage splits the work into a per-step band recursion and whole-block
loss passes.  This loop does all of it at every step, in the order the sums are
defined, so tests hold the blocked kernel to it by tobytes().  The body is kept
as it was, names included.
"""

from __future__ import annotations

import numpy as np

from ammlab.harness import KERNEL_COLUMNS, BandRule, TradeTarget

_N_COLS = len(KERNEL_COLUMNS)
_LAST_EVENT = _N_COLS - 1


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
