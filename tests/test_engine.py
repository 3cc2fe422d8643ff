"""The arbitrage kernel: fee-free tracking, the fee no-trade band, and the
scalar engine of tests/scalar_engine.py as its trade-for-trade oracle."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scalar_engine import (
    Pool,
    arb_wait_statistics,
    no_trade_band,
    run_no_fee,
    run_with_fees,
    trade_target,
)
from step_kernel import arbitrage as step_kernel

from ammlab import (
    BandRule,
    ExperimentConfig,
    ProcessKind,
    TradeTarget,
    arbitrage,
    derive_run_seed,
    run_campaign,
    simulate_price_matrix,
    sweep_fee,
)
from ammlab import harness
from ammlab.harness import KERNEL_COLUMNS

L = 10000.0
POOL = Pool.from_price(L, 100.0)
IL, LVR, VOL, FEES, N_EV, FINAL, LAST = (KERNEL_COLUMNS.index(c) for c in (
    "il", "lvr", "volume", "fees", "n_arb_events", "final_price", "last_trade"))

# the fee-free pool plus every band shape and trade rule at a positive fee
RULES = [(0.0, BandRule.EXACT, TradeTarget.ORACLE)] + [
    (0.003, band_rule, target) for band_rule in BandRule for target in TradeTarget
]


def _gbm_path(seed: int, sigma: float = 0.004, n_steps: int = 400) -> np.ndarray:
    return 100.0 * simulate_price_matrix(ProcessKind.GBM, sigma, n_steps, [seed])[:, 0]


def _at_liquidity(rows: np.ndarray) -> np.ndarray:
    """Kernel rows with their per-unit-L loss, volume and fee columns scaled to L."""
    rows[:, :N_EV] *= L
    return rows


def _row(prices, fee=0.0, band_rule=BandRule.EXACT, target=TradeTarget.ORACLE) -> np.ndarray:
    return _at_liquidity(arbitrage(np.asarray(prices, dtype=float), fee, band_rule, target))[0]


def _prefix_states(prices, fee, band_rule, target):
    """Kernel pool price and trade count after every step, one call per path prefix."""
    pool = np.empty(prices.shape)
    count = np.zeros(prices.shape, dtype=np.int64)
    pool[0] = prices[0]
    for k in range(1, prices.shape[0]):
        out = arbitrage(prices[: k + 1], fee, band_rule, target)
        pool[k] = out[:, FINAL]
        count[k] = out[:, N_EV]
    return pool, count


def test_config_zero_fee_forces_no_fee_mode():
    # a zero fee collapses the band to a point: both band shapes and both
    # trade rules give the fee-free run, which trades at every price change
    prices = _gbm_path(5, n_steps=200)
    free = _row(prices)
    for band_rule in BandRule:
        for target in TradeTarget:
            np.testing.assert_array_equal(_row(prices, 0.0, band_rule, target), free)
    assert free[N_EV] == np.count_nonzero(np.diff(prices))
    assert free[FINAL] == prices[-1] and free[FEES] == 0.0
    for bad in (-0.01, 1.0):
        with pytest.raises(ValueError, match="fee must lie"):
            arbitrage(prices, bad)


def test_band_shapes():
    fee = 0.01
    edges = {
        BandRule.EXACT: (100.0 * (1.0 - fee), 100.0 / (1.0 - fee)),
        BandRule.LINEARIZED: (100.0 * (1.0 - fee), 100.0 * (1.0 + fee)),
    }
    assert edges[BandRule.EXACT][0] == pytest.approx(99.0)
    assert edges[BandRule.EXACT][1] == pytest.approx(100.0 / 0.99)
    assert edges[BandRule.LINEARIZED][1] == pytest.approx(101.0)
    for band_rule, (lo, hi) in edges.items():
        assert no_trade_band(100.0, fee, band_rule) == (lo, hi)
        # the band is closed: a reference on either edge leaves the pool alone
        for edge in (lo, hi):
            assert _row([100.0, edge], fee, band_rule)[N_EV] == 0
        for outside in (np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)):
            assert _row([100.0, outside], fee, band_rule)[N_EV] == 1
    with pytest.raises(ValueError):
        arbitrage([100.0, 0.0], fee)


def test_trade_target_conventions():
    fee = 0.01

    def after(p_ref, band_rule, target):
        return _row([100.0, p_ref], fee, band_rule, target)[FINAL]

    assert after(110.0, BandRule.EXACT, TradeTarget.ORACLE) == 110.0
    assert after(90.0, BandRule.EXACT, TradeTarget.ORACLE) == 90.0
    up = after(110.0, BandRule.EXACT, TradeTarget.MARGINAL)
    down = after(90.0, BandRule.EXACT, TradeTarget.MARGINAL)
    assert up == pytest.approx(110.0 * 0.99)
    assert down == pytest.approx(90.0 / 0.99)
    # post-trade, the reference sits exactly on the new band edge
    assert up / (1.0 - fee) == pytest.approx(110.0, rel=1e-12)
    assert down * (1.0 - fee) == pytest.approx(90.0, rel=1e-12)
    up_lin = after(110.0, BandRule.LINEARIZED, TradeTarget.MARGINAL)
    assert up_lin * (1.0 + fee) == pytest.approx(110.0, rel=1e-12)
    # the scalar engine parks the pool at the same prices
    for p_ref in (110.0, 90.0):
        for band_rule in BandRule:
            for target in TradeTarget:
                assert after(p_ref, band_rule, target) == trade_target(
                    p_ref, p_ref > 100.0, fee, band_rule, target
                )


def test_no_fee_constant_path():
    row = _row([100.0] * 11)
    assert row[LVR] == 0.0 and row[VOL] == 0.0 and row[IL] == 0.0
    assert row[N_EV] == 0 and row[LAST] == 0


def test_no_fee_single_jump_event():
    row = _row([100.0, 121.0])
    assert row[N_EV] == 1 and row[LAST] == 1
    assert row[VOL] == pytest.approx(1000.0 / 11.0, rel=1e-9)
    assert row[FINAL] == 121.0


def test_no_fee_requires_clean_pool():
    # the scalar engine's fee-free run refuses a pool that charges a fee
    with pytest.raises(ValueError):
        run_no_fee(_gbm_path(1), Pool.from_price(L, 100.0, fee=0.01))


def test_no_fee_rejects_nonpositive_path():
    for fee in (0.0, 0.01):
        with pytest.raises(ValueError, match="positive prices"):
            arbitrage([100.0, -1.0, 100.0], fee)
    with pytest.raises(ValueError, match="positive prices"):
        arbitrage(np.array([[100.0, 100.0], [101.0, 0.0]]))
    with pytest.raises(ValueError):
        run_no_fee(np.array([100.0, -1.0, 100.0]), POOL)


@given(seed=st.integers(min_value=0, max_value=10_000))
def test_no_fee_matches_metrics_accumulate(seed):
    # the fee-free kernel against the scalar engine stepping a fee-free pool
    prices = _gbm_path(seed, n_steps=200)
    oracle, events = run_no_fee(prices, POOL)
    row = _row(prices)
    assert row[LVR] == pytest.approx(oracle.lvr, rel=1e-10)
    assert row[VOL] == pytest.approx(oracle.volume, rel=1e-10)
    assert row[IL] == pytest.approx(oracle.il, rel=1e-10, abs=1e-300)
    assert row[N_EV] == oracle.n_arb_events
    assert row[FINAL] == oracle.final_price
    assert row[LAST] == events[-1].step


def test_with_fees_requires_positive_fee():
    # the scalar band engine needs a positive fee; the kernel takes fee 0 as
    # the zero-width band but still refuses a negative one
    with pytest.raises(ValueError):
        run_with_fees(_gbm_path(2), POOL, 0.0)
    with pytest.raises(ValueError):
        arbitrage(_gbm_path(2), -1e-9)


def test_path_inside_band_never_trades():
    prices = 100.0 * (1.0 + 0.001 * np.sin(np.arange(51)))
    row = _row(prices, 0.01)
    assert row[N_EV] == 0 and row[LAST] == 0
    assert row[LVR] == 0.0 and row[FEES] == 0.0
    assert row[FINAL] == 100.0  # pool never moved


def test_zigzag_below_band_amplitude():
    prices = [100.0, 100.4, 99.6] * 20 + [100.0]
    assert _row(prices, 0.01)[N_EV] == 0


@pytest.mark.parametrize("target", [TradeTarget.ORACLE, TradeTarget.MARGINAL])
def test_vanishing_fee_recovers_no_fee_metrics(target):
    prices = _gbm_path(777, sigma=0.001, n_steps=1000)
    free = _row(prices)
    tiny = _row(prices, 1e-9, BandRule.EXACT, target)
    assert tiny[LVR] == pytest.approx(free[LVR], rel=1e-3)
    assert tiny[IL] == pytest.approx(free[IL], rel=1e-3, abs=1e-12)
    assert tiny[VOL] == pytest.approx(free[VOL], rel=1e-3)


def test_reference_contained_after_every_step():
    # each step's reference must fall inside the closed band of whatever
    # pool price the kernel holds once that step is done
    seeds = [derive_run_seed(9, i) for i in range(40)]
    prices = 100.0 * simulate_price_matrix(ProcessKind.GBM, 0.004, 100, seeds)
    slack = 1e-12
    for fee in (0.001, 0.004, 0.02):
        for band_rule in BandRule:
            for target in TradeTarget:
                pool, _ = _prefix_states(prices, fee, band_rule, target)
                lo = pool * (1.0 - fee)
                hi = pool / (1.0 - fee) if band_rule is BandRule.EXACT else pool * (1.0 + fee)
                assert np.all(lo * (1.0 - slack) <= prices), (fee, band_rule, target)
                assert np.all(prices <= hi * (1.0 + slack)), (fee, band_rule, target)


@pytest.mark.parametrize("kind", [ProcessKind.GBM, ProcessKind.BM])
@pytest.mark.parametrize("fee, band_rule, target", RULES)
def test_kernel_matches_scalar_engine_trade_for_trade(kind, fee, band_rule, target):
    seeds = [derive_run_seed(31, i) for i in range(6)]
    prices = 100.0 * simulate_price_matrix(kind, 0.004, 80, seeds)
    pool, count = _prefix_states(prices, fee, band_rule, target)
    full = _at_liquidity(arbitrage(prices, fee, band_rule, target))
    for j in range(prices.shape[1]):
        path = prices[:, j]
        if fee == 0.0:
            metrics, events = run_no_fee(path, POOL)
        else:
            metrics, events = run_with_fees(path, POOL, fee, band_rule, target)
        # replay the scalar trades into a pool price and a count per step
        oracle_pool = np.full(path.size, path[0])
        oracle_count = np.zeros(path.size, dtype=np.int64)
        for e in events:
            oracle_pool[e.step:] = e.price_after
            oracle_count[e.step:] += 1
        np.testing.assert_array_equal(pool[:, j], oracle_pool)
        np.testing.assert_array_equal(count[:, j], oracle_count)
        row = full[j]
        assert row[IL] == pytest.approx(metrics.il, rel=1e-10, abs=1e-300)
        assert row[LVR] == pytest.approx(metrics.lvr, rel=1e-10)
        assert row[VOL] == pytest.approx(metrics.volume, rel=1e-10)
        assert row[FEES] == pytest.approx(metrics.fees, rel=1e-10, abs=0.0)
        assert row[LAST] == (events[-1].step if events else 0)


@pytest.mark.parametrize("fee, band_rule, target", RULES)
def test_batch_column_equals_path_alone(fee, band_rule, target):
    # a 1-d path is a batch of one: stepping runs together changes no bit
    seeds = [derive_run_seed(32, i) for i in range(5)]
    prices = 100.0 * simulate_price_matrix(ProcessKind.GBM, 0.004, 120, seeds)
    batch = arbitrage(prices, fee, band_rule, target)
    for j in range(prices.shape[1]):
        alone = arbitrage(prices[:, j], fee, band_rule, target)
        assert alone.shape == (1, len(KERNEL_COLUMNS))
        np.testing.assert_array_equal(alone[0], batch[j])


# every band shape and trade rule at fee 0, where all four trade to the reference price
FEE_FREE_RULES = [(band_rule, target) for band_rule in BandRule for target in TradeTarget]


@pytest.mark.parametrize("kind", [ProcessKind.GBM, ProcessKind.BM])
@pytest.mark.parametrize("runs, sigma", [(1, 0.004), (2, 0.004), (13, 0.004), (300, 0.004),
                                         (7, 0.0)])
def test_replay_is_the_fee_free_kernel_bit_for_bit(kind, runs, sigma):
    # at fee 0 the pool replays the path, with no band recursion, and the blocked kernel
    # gives the step loop's bytes: one run is summed by accumulation, since numpy sums a
    # lone column pairwise; sigma 0 never trades, so no step adds a term
    prices = simulate_price_matrix(kind, sigma, 400, [derive_run_seed(34, i) for i in range(runs)])
    free = arbitrage(prices, 0.0)
    for band_rule, target in FEE_FREE_RULES:
        assert free.tobytes() == step_kernel(prices, 0.0, band_rule, target).tobytes()
    if sigma == 0.0:
        assert not free[:, [LVR, VOL, N_EV, LAST]].any()


def test_replay_gives_the_kernel_nan_where_a_path_overflows():
    # factors of about 1e200 overflow a path to inf within two steps, where both
    # loss sums turn NaN, and the rest of those runs stays finite; the NaN's sign
    # bit depends on where the run sits in numpy's vector loops, so the 12 runs are
    # also compared one at a time
    seeds = [derive_run_seed(35, i) for i in range(12)]
    with np.errstate(over="ignore", invalid="ignore"):
        prices = simulate_price_matrix(ProcessKind.GBM, 1e200, 6, seeds)
        free = arbitrage(prices, 0.0)
        for fee in (0.0, 0.003):
            assert arbitrage(prices, fee).tobytes() == step_kernel(prices, fee).tobytes()
            for j in range(prices.shape[1]):
                assert arbitrage(prices[:, j], fee).tobytes() == step_kernel(
                    prices[:, j], fee).tobytes()
    overflowed = np.isinf(prices).any(axis=0)
    assert overflowed.any() and not overflowed.all() and prices.min() > 0.0
    np.testing.assert_array_equal(np.isnan(free[:, LVR]), overflowed)
    np.testing.assert_array_equal(np.isnan(free[:, VOL]), overflowed)


@pytest.mark.parametrize("kind", [ProcessKind.GBM, ProcessKind.BM])
@pytest.mark.parametrize("runs, n_steps, rows", [
    (1, 600, 255),  # the most steps a block holds
    (2, 600, 255),
    (13, 600, 255),
    (300, 200, 54),
    (16385, 3, 1),  # more runs than a block row of 16384 doubles: one step per block
])
def test_the_blocked_kernel_is_the_step_loop_bit_for_bit(kind, runs, n_steps, rows):
    # no step count is a multiple of a block of more than one step; sigma 0 never
    # trades, and the fee 1e-12 trades almost every step, 0.05 almost never
    seeds = [derive_run_seed(37, i) for i in range(runs)]
    assert harness._step_rows(runs) == rows and (n_steps % rows or rows == 1)
    for sigma in (0.004, 0.0):
        prices = simulate_price_matrix(kind, sigma, n_steps, seeds)
        for fee in (0.0, 1e-12, 0.002, 0.05):
            for band_rule in BandRule:
                for target in TradeTarget:
                    assert arbitrage(prices, fee, band_rule, target).tobytes() == step_kernel(
                        prices, fee, band_rule, target).tobytes(), (sigma, fee, band_rule, target)


@pytest.mark.parametrize("kind", [ProcessKind.GBM, ProcessKind.BM])
def test_a_streamed_chunk_is_the_kernel_over_its_matrix(monkeypatch, kind):
    # blocks of 4 runs over 13 leave a last block of one run; each block's prices
    # overwrite the previous block's in one reused buffer before the kernel reads them
    monkeypatch.setattr(harness, "_DRAW_BLOCK_BYTES", 8 * 400 * 4)
    config = ExperimentConfig(kind=kind, p0=1.0, sigma=0.004, n_steps=400, liquidity=1.0,
                              n_runs=13, seed=36)
    seeds = harness._chunk_seeds(config, 0, config.n_runs)
    assert harness._block_runs(seeds.size, config.n_steps) == 4
    matrix = simulate_price_matrix(kind, config.sigma, config.n_steps, seeds)
    paths: dict = {}  # nothing held, so the chunk streams and holds nothing after
    streamed = harness._compute_chunk(config, 0, config.n_runs, paths)
    assert streamed.tobytes() == arbitrage(matrix, 0.0).tobytes()
    assert paths == {}


@given(seed=st.integers(min_value=0, max_value=2_000))
def test_events_record_positive_volume_and_loss_consistency(seed):
    prices = _gbm_path(seed, n_steps=150)
    _, events = run_with_fees(prices, POOL, 0.002)
    row = _row(prices, 0.002)
    assert all(e.volume_x > 0.0 for e in events)
    assert row[N_EV] == len(events)
    assert row[LAST] == (events[-1].step if events else 0)
    assert row[LVR] == pytest.approx(sum(e.lvr_increment for e in events), rel=1e-12, abs=0.0)
    assert row[FEES] == pytest.approx(sum(e.fee_x for e in events), rel=1e-12, abs=0.0)
    assert row[FEES] == pytest.approx(0.002 * row[VOL], rel=1e-12, abs=0.0)


def test_record_events_flag_keeps_metrics():
    prices = _gbm_path(42)
    with_list, events = run_with_fees(prices, POOL, 0.002)
    without, none = run_with_fees(prices, POOL, 0.002, record_events=False)
    assert none == []
    assert len(events) > 0
    assert with_list == without


def test_wait_statistics_every_step():
    prices = [100.0 * 1.05**k for k in range(6)]
    _, events = run_with_fees(prices, POOL, 0.001)
    stats = arb_wait_statistics(events, n_steps=5)
    assert stats.mean_wait == pytest.approx(1.0)
    assert stats.histogram.n_total == 5
    # the kernel's pooled wait, last trade step over trade count, agrees
    row = _row(prices, 0.001)
    assert row[LAST] / row[N_EV] == stats.mean_wait


def test_wait_statistics_empty_signal():
    with pytest.raises(ValueError, match="no arbitrage"):
        arb_wait_statistics([], n_steps=10)


def test_wait_statistics_rejects_out_of_range_steps():
    _, events = run_with_fees([100.0, 121.0], POOL, 0.001)
    with pytest.raises(ValueError):
        arb_wait_statistics(events, n_steps=0)


# ---------------------------------------------------------------------------
# ensemble behavior under the band-edge (marginal) rule: these are the
# claims the fee presets advertise, so they are pinned to that rule
# ---------------------------------------------------------------------------

_MARGINAL_BASE = ExperimentConfig(
    kind=ProcessKind.GBM,
    p0=100.0,
    sigma=0.001,
    n_steps=1000,
    liquidity=10000.0,
    n_runs=2000,
    seed=52001,
    fee=2e-4,
    target=TradeTarget.MARGINAL,
)


def test_marginal_rule_cuts_loss_but_not_drawdown():
    baseline = run_campaign(replace(_MARGINAL_BASE, fee=0.0))
    fee_run = run_campaign(_MARGINAL_BASE)
    lvr0 = baseline.summary["mean_lvr"]
    assert fee_run.summary["mean_lvr"] < lvr0 - 3.0 * baseline.summary["stderr_lvr"]
    assert fee_run.summary["mean_il"] == pytest.approx(baseline.summary["mean_il"], rel=0.05)


def test_marginal_wait_grows_linearly_with_fee():
    base = replace(_MARGINAL_BASE, sigma=0.004, seed=52002, n_runs=3000)
    swept = sweep_fee(base, [0.02, 0.04])  # f/sigma = 5 and 10
    waits = [row["mean_wait"] for row in swept["rows"]]
    exponent = np.log(waits[1] / waits[0]) / np.log(2.0)
    assert exponent == pytest.approx(1.0, abs=0.15)


def test_fees_stay_below_fee_free_loss_marginal():
    base = replace(_MARGINAL_BASE, sigma=0.004, seed=52003, n_runs=2000)
    ratios = [0.1, 1.0, 5.0, 10.0, 20.0]
    swept = sweep_fee(base, [r * 0.004 for r in ratios])
    lvr0 = swept["baseline"]["mean_lvr"]
    for row in swept["rows"]:
        assert row["mean_fees"] < lvr0, (
            f"fees at f/sigma={row['f_over_sigma']} reached {row['mean_fees']:.4f} vs {lvr0:.4f}"
        )
        assert row["mean_lvr"] >= 0.0
        # net loss after fees only stays positive while trades remain frequent:
        # past f ~ 0.5 sigma the residual loss decays faster than fees grow
        if row["f_over_sigma"] <= 0.2:
            assert row["mean_lvr"] - row["mean_fees"] > 0.0


def test_marginal_deep_regime_inverse_fee_laws():
    # loss and volume both decay like 1/f once waits dwarf the step size;
    # exit times grow ~(f/sigma)^2 past that, so the fit stays at moderate depth
    base = replace(_MARGINAL_BASE, sigma=0.004, seed=52004, n_runs=3000)
    swept = sweep_fee(base, [0.02, 0.04])
    xs = [row["fee"] for row in swept["rows"]]
    lvr_slope = np.log(swept["rows"][1]["mean_lvr"] / swept["rows"][0]["mean_lvr"]) / np.log(2.0)
    vol_slope = np.log(
        swept["rows"][1]["mean_volume"] / swept["rows"][0]["mean_volume"]
    ) / np.log(2.0)
    assert xs[1] == pytest.approx(2.0 * xs[0])
    assert lvr_slope == pytest.approx(-1.0, abs=0.15)
    assert vol_slope == pytest.approx(-1.0, abs=0.15)


def test_marginal_flat_loss_at_shallow_fees():
    base = replace(_MARGINAL_BASE, sigma=0.004, seed=52005, n_runs=2000)
    swept = sweep_fee(base, [0.004 * 0.02, 0.004 * 0.05])
    for row in swept["rows"]:
        assert abs(row["lvr_ratio"] - 1.0) <= 0.10


def test_loss_reduction_outpaces_drawdown_reduction():
    # fine sweep with the top fee still in the frequent-trade regime
    base = replace(
        _MARGINAL_BASE, sigma=0.0002, seed=52006, n_runs=2000, fee=2e-5
    )
    swept = sweep_fee(base, [2e-5, 1e-4, 2e-4, 4e-4])
    top = swept["rows"][-1]
    lvr_reduction = 1.0 - top["mean_lvr"] / swept["baseline"]["mean_lvr"]
    il_reduction = 1.0 - top["mean_il"] / swept["baseline"]["mean_il"]
    assert lvr_reduction >= 3.0 * abs(il_reduction)
    assert lvr_reduction > 0.3


def test_oracle_rule_keeps_mean_loss():
    # snapping to the reference telescopes the per-trade losses, so the mean
    # is insensitive to the fee even though trades happen far less often
    base = replace(_MARGINAL_BASE, sigma=0.004, seed=52007, n_runs=2000, target=TradeTarget.ORACLE)
    swept = sweep_fee(base, [0.004, 0.02])
    for row in swept["rows"]:
        assert row["lvr_ratio"] == pytest.approx(1.0, abs=0.02)
        assert row["volume_ratio"] < 0.95
