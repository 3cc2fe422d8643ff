"""Pool arithmetic of the scalar reference model: reserves, values, and fee-aware swaps."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scalar_engine import Pool, hodl_value, position_value, reserves_at_price, swap_to_price

prices = st.floats(min_value=1e-3, max_value=1e6)
liquidities = st.floats(min_value=1e-3, max_value=1e9)


def test_reserves_at_entry_price():
    x, y = reserves_at_price(10000.0, 100.0)
    assert x == pytest.approx(1000.0)
    assert y == pytest.approx(100000.0)


def test_reserves_identity_pool():
    assert reserves_at_price(1.0, 1.0) == (1.0, 1.0)


def test_reserves_off_entry():
    x, y = reserves_at_price(10000.0, 121.0)
    assert x == pytest.approx(10000.0 / 11.0)
    assert y == pytest.approx(110000.0)
    assert x * y == pytest.approx(1e8, rel=1e-12)


@pytest.mark.parametrize("liquidity,price", [(0.0, 1.0), (1.0, 0.0), (-2.0, 5.0), (5.0, -2.0)])
def test_reserves_rejects_nonpositive(liquidity, price):
    with pytest.raises(ValueError):
        reserves_at_price(liquidity, price)


def test_position_value_cases():
    assert position_value(10000.0, 100.0) == pytest.approx(2000.0)
    assert position_value(10000.0, 400.0) == pytest.approx(1000.0)
    assert position_value(10000.0, 121.0) == pytest.approx(20000.0 / 11.0)


def test_position_value_equals_reserve_sum():
    x, y = reserves_at_price(777.0, 31.0)
    assert position_value(777.0, 31.0) == pytest.approx(x + y / 31.0, rel=1e-14)


def test_hodl_value_at_entry_matches_position():
    assert hodl_value(10000.0, 100.0, 100.0) == pytest.approx(position_value(10000.0, 100.0))


def test_hodl_value_off_entry():
    assert hodl_value(10000.0, 100.0, 121.0) == pytest.approx(1000.0 * (1.0 + 100.0 / 121.0))


def test_hodl_value_large_price_limit():
    assert hodl_value(10000.0, 100.0, 1e15) == pytest.approx(1000.0, rel=1e-6)


@given(liquidity=liquidities, p_entry=prices, p_now=prices)
def test_holding_dominates_pool_value(liquidity, p_entry, p_now):
    # loss vs holding is nonnegative, zero only at the entry price
    held = hodl_value(liquidity, p_entry, p_now)
    pooled = position_value(liquidity, p_now)
    assert held >= pooled - 1e-9 * held
    if not math.isclose(p_entry, p_now, rel_tol=1e-6):
        assert held > pooled


@given(liquidity=liquidities, p_entry=prices, p_now=prices, scale=st.floats(min_value=1e-3, max_value=1e3))
def test_values_scale_linearly_with_liquidity(liquidity, p_entry, p_now, scale):
    assert position_value(scale * liquidity, p_now) == pytest.approx(
        scale * position_value(liquidity, p_now), rel=1e-12
    )
    assert hodl_value(scale * liquidity, p_entry, p_now) == pytest.approx(
        scale * hodl_value(liquidity, p_entry, p_now), rel=1e-12
    )


def test_noop_swap():
    pool = Pool.from_price(10000.0, 100.0)
    after, volume, fee = swap_to_price(pool, 100.0)
    assert volume == 0.0 and fee == 0.0
    assert after.reserve_x == pool.reserve_x


def test_swap_volume_is_x_leg_difference():
    pool = Pool.from_price(10000.0, 100.0)
    after, volume, fee = swap_to_price(pool, 121.0)
    assert volume == pytest.approx(1000.0 * (1.0 - 10.0 / 11.0), rel=1e-12)
    assert fee == 0.0
    assert after.spot_price == pytest.approx(121.0, rel=1e-12)


def test_swap_fee_on_x_leg():
    pool = Pool.from_price(10000.0, 100.0, fee=0.0002)
    _, volume, fee = swap_to_price(pool, 121.0)
    assert fee == pytest.approx(0.0002 * volume, rel=1e-12)
    assert fee == pytest.approx(0.0181818, rel=1e-5)


@given(liquidity=liquidities, p0=prices, p1=prices)
def test_swap_preserves_product(liquidity, p0, p1):
    pool = Pool.from_price(liquidity, p0)
    after, _, _ = swap_to_price(pool, p1)
    target = liquidity * liquidity
    assert abs(after.reserve_x * after.reserve_y - target) <= 1e-12 * target


@given(p0=prices, p1=prices)
def test_swap_round_trip_restores_reserves(p0, p1):
    pool = Pool.from_price(5000.0, p0)
    mid, _, _ = swap_to_price(pool, p1)
    back, _, _ = swap_to_price(mid, p0)
    assert back.reserve_x == pytest.approx(pool.reserve_x, rel=1e-9)
    assert back.reserve_y == pytest.approx(pool.reserve_y, rel=1e-9)


@given(liquidity=liquidities, p0=prices, p1=prices, scale=st.floats(min_value=1e-2, max_value=1e2))
def test_swap_volume_scales_with_liquidity(liquidity, p0, p1, scale):
    _, volume, _ = swap_to_price(Pool.from_price(liquidity, p0), p1)
    _, scaled, _ = swap_to_price(Pool.from_price(scale * liquidity, p0), p1)
    assert scaled == pytest.approx(scale * volume, rel=1e-9, abs=1e-12)


def test_pool_rejects_inconsistent_reserves():
    with pytest.raises(ValueError):
        Pool(liquidity=100.0, reserve_x=10.0, reserve_y=10.0)


def test_pool_rejects_bad_fee():
    with pytest.raises(ValueError):
        Pool.from_price(100.0, 4.0, fee=1.0)
    with pytest.raises(ValueError):
        Pool.from_price(100.0, 4.0, fee=-0.1)


def test_pool_value_property():
    pool = Pool.from_price(10000.0, 25.0)
    assert pool.value == pytest.approx(2.0 * 10000.0 / 5.0, rel=1e-12)
