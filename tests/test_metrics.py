"""Per-step loss, rebalancing, and volume formulas plus their identities, and
the arbitrage kernel's sums of them along fee-free paths."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scalar_engine import hodl_value, position_value, rebalance_quantities, volume_step

from ammlab import ProcessKind, arbitrage, il_between, simulate_price_matrix
from ammlab.harness import KERNEL_COLUMNS

prices = st.floats(min_value=1e-3, max_value=1e6)


def _free(path, liquidity: float) -> dict:
    """Fee-free kernel metrics of one path, by column name."""
    row = arbitrage(np.asarray(path, dtype=float), liquidity)[0]
    return dict(zip(KERNEL_COLUMNS, row))


def test_il_zero_at_entry():
    assert il_between(10000.0, 100.0, 100.0) == 0.0


def test_il_off_entry_matches_value_gap():
    il = il_between(10000.0, 100.0, 121.0)
    assert il == pytest.approx(1000.0 / 121.0, rel=1e-12)  # 1000*(1/11)^2
    assert il == pytest.approx(
        hodl_value(10000.0, 100.0, 121.0) - position_value(10000.0, 121.0), rel=1e-12
    )


def test_il_positive_in_both_directions():
    assert il_between(10000.0, 100.0, 100.0 / 1.21) > 0.0
    assert il_between(10000.0, 100.0, 121.0) > 0.0


def test_il_rejects_nonpositive():
    with pytest.raises(ValueError):
        il_between(10000.0, 100.0, 0.0)
    with pytest.raises(ValueError):
        il_between(0.0, 100.0, 120.0)


@given(
    liquidity=st.floats(min_value=1e-3, max_value=1e9),
    p=prices,
    log_move=st.floats(min_value=1e-6, max_value=2.0),
    up=st.booleans(),
)
def test_kernel_one_step_loss_equals_il(liquidity, p, log_move, up):
    q = p * np.exp(log_move if up else -log_move)
    m = _free([p, q], liquidity)
    assert m["lvr"] == pytest.approx(m["il"], rel=1e-8)
    assert m["il"] == pytest.approx(il_between(liquidity, p, q), rel=1e-8)
    assert m["volume"] == pytest.approx(volume_step(liquidity, p, q), rel=1e-8)


def test_small_step_quadratic_law():
    p = 100.0
    delta = 1e-4 * p
    ratio = il_between(10000.0, p, p + delta) / delta**2
    assert ratio == pytest.approx(10000.0 / (4.0 * p**2.5), rel=1e-3)


def test_rebalance_quantities_flat_step():
    assert rebalance_quantities(10000.0, 100.0, 100.0) == (0.0, 0.0, 0.0)


def test_rebalance_quantities_up_move():
    dy, dx_bar, dx = rebalance_quantities(10000.0, 100.0, 121.0)
    assert dy == pytest.approx(10000.0, rel=1e-12)  # L*(sqrt(121)-sqrt(100))
    assert dx == pytest.approx(1000.0 - 10000.0 / 11.0, rel=1e-12)
    assert dx_bar == pytest.approx(10000.0 / 121.0, rel=1e-12)
    assert dx - dx_bar == pytest.approx(il_between(10000.0, 100.0, 121.0), rel=1e-10)


def test_rebalance_quantities_down_move():
    dy, dx_bar, dx = rebalance_quantities(10000.0, 100.0, 81.0)
    assert dy < 0.0
    assert dx - dx_bar == pytest.approx(il_between(10000.0, 100.0, 81.0), rel=1e-10)
    assert dx - dx_bar > 0.0


@given(p=prices, q=prices)
def test_rebalance_identity(p, q):
    # below a log move of about 1e-5 the gap dx - dx_bar, a difference of two
    # floats, cannot be resolved to 1e-10; the next test covers those moves
    assume(p == q or abs(np.log(q / p)) >= 1e-4)
    dy, dx_bar, dx = rebalance_quantities(3333.0, p, q)
    assert dx - dx_bar == pytest.approx(il_between(3333.0, p, q), rel=1e-10, abs=1e-300)
    if p != q:
        assert dx > dx_bar


@given(p=prices, log_move=st.floats(min_value=0.0, max_value=1e-4), up=st.booleans())
def test_rebalance_gap_on_tiny_moves(p, log_move, up):
    q = p * np.exp(log_move if up else -log_move)
    dy, dx_bar, dx = rebalance_quantities(3333.0, p, q)
    assert dx - dx_bar >= 0.0
    assert abs((dx - dx_bar) - il_between(3333.0, p, q)) <= 32 * np.spacing(abs(dx))


def test_volume_step_cases():
    assert volume_step(10000.0, 100.0, 100.0) == 0.0
    assert volume_step(10000.0, 100.0, 121.0) == pytest.approx(1000.0 / 11.0, rel=1e-12)


def test_volume_step_linearization():
    exact = volume_step(10000.0, 100.0, 100.1)
    linear = 10000.0 / (2.0 * 100.0**1.5) * 0.1
    assert exact == pytest.approx(linear, rel=0.01)


@given(p=prices, q=prices)
def test_volume_step_is_reserve_difference(p, q):
    lx = 2500.0 / np.sqrt(p)
    lq = 2500.0 / np.sqrt(q)
    assert volume_step(2500.0, p, q) == pytest.approx(abs(lq - lx), rel=1e-9, abs=1e-300)


def test_accumulate_constant_path():
    m = _free([50.0, 50.0, 50.0, 50.0], 1000.0)
    assert m["il"] == 0.0 and m["lvr"] == 0.0 and m["volume"] == 0.0
    assert m["n_arb_events"] == 0


def test_accumulate_round_trip_path():
    m = _free([100.0, 121.0, 100.0], 10000.0)
    assert m["il"] == 0.0
    expected = il_between(10000.0, 100.0, 121.0) + il_between(10000.0, 121.0, 100.0)
    assert m["lvr"] == pytest.approx(expected, rel=1e-12)
    assert m["lvr"] > 0.0


def test_accumulate_is_per_step_sum():
    path = [100.0, 104.0, 109.0]
    m = _free(path, 10000.0)
    brute = sum(il_between(10000.0, path[i], path[i + 1]) for i in range(2))
    assert m["lvr"] == pytest.approx(brute, rel=1e-12)
    brute = sum(volume_step(10000.0, path[i], path[i + 1]) for i in range(2))
    assert m["volume"] == pytest.approx(brute, rel=1e-12)


def test_accumulate_checkpoints_measure_il_from_start():
    # every path prefix: il from the start, loss summed up to that step
    path = [100.0, 105.0, 95.0, 100.0, 110.0]
    series = [_free(path[: cp + 1], 10000.0) for cp in (1, 2, 3, 4)]
    for cp, m in zip([1, 2, 3, 4], series):
        assert m["il"] == pytest.approx(il_between(10000.0, 100.0, path[cp]), rel=1e-12)
        assert m["final_price"] == path[cp]
    lvrs = [m["lvr"] for m in series]
    assert lvrs == sorted(lvrs)  # cumulative loss never decreases
    assert series[2]["il"] == 0.0 and series[2]["lvr"] > 0.0


def test_accumulate_checkpoint_bounds():
    # a path needs at least one step, laid out as (n_steps + 1, runs)
    with pytest.raises(ValueError, match="at least two steps"):
        arbitrage([1.0], 10.0)
    with pytest.raises(ValueError, match="at least two steps"):
        arbitrage(np.ones((3, 2, 2)), 10.0)
    with pytest.raises(ValueError, match="liquidity"):
        arbitrage([1.0, 2.0], 0.0)


def test_il_ignores_intermediate_order():
    base = [100.0, 90.0, 130.0, 105.0, 112.0]
    shuffled = [100.0, 130.0, 90.0, 112.0, 105.0]
    shuffled[-1] = base[-1]
    a = _free(base, 500.0)
    b = _free(shuffled, 500.0)
    assert a["il"] == pytest.approx(b["il"], rel=1e-12)
    assert a["lvr"] != pytest.approx(b["lvr"], rel=1e-6)


def test_accumulate_accepts_price_path():
    prices = simulate_price_matrix(ProcessKind.GBM, 100.0, 0.01, 50, [12])[:, 0]
    m = _free(prices, 10000.0)
    assert m["final_price"] == prices[-1]
    assert m["lvr"] > 0.0 and m["volume"] > 0.0


def test_accumulate_rejects_nonpositive_prices():
    with pytest.raises(ValueError):
        arbitrage([100.0, -3.0], 10.0)
