"""Campaign driver: determinism, resource guards, sweeps."""

import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from scalar_engine import Pool, run_no_fee, run_with_fees

from ammlab import (
    BandRule,
    CampaignResult,
    ConfigError,
    ExperimentConfig,
    Histogram,
    NumericalError,
    Observables,
    ProcessKind,
    RegimeLabel,
    ResourceLimitError,
    TradeTarget,
    classify_regime,
    derive_run_seed,
    run_campaign,
    simulate_price_matrix,
    sweep_fee,
    sweep_volume_vs_sigma,
    sweep_volume_vs_steps,
)
from ammlab.harness import TABLE_COLUMNS, plan_chunks

BASE = ExperimentConfig(
    kind=ProcessKind.GBM,
    p0=100.0,
    sigma=0.004,
    n_steps=257,
    liquidity=10000.0,
    n_runs=400,
    seed=71001,
    fee=0.002,
    bins=23,
)

# forces dozens of chunks so chunk seams are exercised
TINY_CHUNK = (257 + 1) * 8 * 7


# ----------------------------------------------------------------- determinism


def test_repeat_run_is_byte_identical():
    a = run_campaign(BASE)
    b = run_campaign(BASE)
    assert a.summary == b.summary
    assert np.array_equal(a.table, b.table)


def test_chunk_size_does_not_change_results():
    small = run_campaign(BASE, chunk_bytes=TINY_CHUNK)
    large = run_campaign(BASE)
    assert small.summary == large.summary
    assert np.array_equal(small.table, large.table)
    for name, hist in large.histograms.items():
        np.testing.assert_array_equal(small.histograms[name].counts, hist.counts)


def _run_path(config: ExperimentConfig, i: int) -> np.ndarray:
    seed = derive_run_seed(config.seed, i)
    return simulate_price_matrix(config.kind, config.p0, config.sigma, config.n_steps, [seed])[:, 0]


def test_campaign_rows_match_scalar_engine_no_fee():
    config = replace(BASE, fee=0.0, n_runs=6, n_steps=120)
    result = run_campaign(config)
    pool = Pool.from_price(config.liquidity, config.p0)
    for i in range(config.n_runs):
        metrics, _ = run_no_fee(_run_path(config, i), pool)
        row = result.table[i]
        assert row[0] == pytest.approx(metrics.il, rel=1e-12)
        assert row[1] == pytest.approx(metrics.lvr, rel=1e-12)
        assert row[2] == pytest.approx(metrics.volume, rel=1e-12)
        assert row[3] == 0.0
        assert row[4] == metrics.n_arb_events
        assert row[5] == pytest.approx(metrics.final_price, rel=1e-12)


def test_campaign_rows_match_scalar_engine_with_fee():
    config = replace(BASE, fee=0.003, n_runs=6, n_steps=120)
    result = run_campaign(config)
    pool = Pool.from_price(config.liquidity, config.p0)
    for i in range(config.n_runs):
        metrics, _ = run_with_fees(
            _run_path(config, i), pool, config.fee, config.band_rule, config.target
        )
        row = result.table[i]
        assert row[0] == pytest.approx(metrics.il, rel=1e-10)
        assert row[1] == pytest.approx(metrics.lvr, rel=1e-10)
        assert row[2] == pytest.approx(metrics.volume, rel=1e-10)
        assert row[3] == pytest.approx(metrics.fees, rel=1e-10)
        assert row[4] == metrics.n_arb_events
        assert row[5] == pytest.approx(metrics.final_price, rel=1e-12)


# -------------------------------------------------------------- resource plan


def test_table_over_budget_is_refused():
    with pytest.raises(ResourceLimitError, match="raise max_table_bytes"):
        run_campaign(BASE, max_table_bytes=1000)


def test_chunk_plan_partitions_the_runs():
    chunks = plan_chunks(1000, 257, chunk_bytes=TINY_CHUNK)
    assert chunks[0][0] == 0
    assert chunks[-1][1] == 1000
    for (a0, a1), (b0, b1) in zip(chunks, chunks[1:]):
        assert a1 == b0
        assert a1 - a0 == 7
    assert all(b > a for a, b in chunks)


def test_single_path_over_budget_is_an_error():
    with pytest.raises(ResourceLimitError, match="chunk budget"):
        plan_chunks(10, 10**6, chunk_bytes=1000)


# --------------------------------------------------------------------- regimes


def test_regime_thresholds():
    assert classify_regime(0.005) is RegimeLabel.SHORT
    assert classify_regime(0.01) is RegimeLabel.SHORT
    assert classify_regime(0.5) is RegimeLabel.INTERMEDIATE
    assert classify_regime(1.0) is RegimeLabel.LONG
    assert classify_regime(7.0) is RegimeLabel.LONG


def test_config_regime_property():
    cases = [(0.001, RegimeLabel.SHORT), (0.02, RegimeLabel.INTERMEDIATE), (0.05, RegimeLabel.LONG)]
    for sigma, label in cases:
        cfg = replace(BASE, sigma=sigma, n_steps=1000, fee=0.0)
        assert cfg.regime is label
        assert cfg.sigma2_t == pytest.approx(sigma * sigma * 1000)


# ------------------------------------------------------------------ edge cases


def test_zero_volatility_campaign_is_all_zeros():
    cfg = replace(BASE, sigma=0.0, fee=0.0, n_runs=50, n_steps=50)
    result = run_campaign(cfg)
    assert result.summary["mean_il"] == 0.0
    assert result.summary["mean_lvr"] == 0.0
    assert result.summary["mean_volume"] == 0.0
    assert result.summary["mean_events"] == 0.0
    assert math.isnan(result.summary["mean_wait"])


def test_no_fee_campaign_trades_every_step():
    cfg = replace(BASE, fee=0.0, n_runs=100)
    result = run_campaign(cfg)
    assert result.summary["mean_events"] == pytest.approx(cfg.n_steps)
    assert result.summary["mean_wait"] == pytest.approx(1.0)


def test_price_observables_allow_zero_crossing_additive_paths():
    cfg = ExperimentConfig(
        kind=ProcessKind.BM,
        p0=100.0,
        sigma=0.05,
        n_steps=1000,
        liquidity=10000.0,
        n_runs=2000,
        seed=71003,
        observables=Observables.PRICES,
    )
    result = run_campaign(cfg)
    assert set(result.histograms) == {"final_price"}
    mean = result.summary["mean_final_price"]
    stderr = result.summary["stderr_final_price"]
    assert abs(mean - 100.0) < 3.0 * stderr
    # the driftless additive walk spreads as p0 sigma sqrt(t)
    assert stderr * math.sqrt(cfg.n_runs) == pytest.approx(100.0 * 0.05 * math.sqrt(1000), rel=0.05)


def test_pool_campaign_rejects_zero_crossing_additive_paths():
    cfg = ExperimentConfig(
        kind=ProcessKind.BM,
        p0=100.0,
        sigma=0.05,
        n_steps=1000,
        liquidity=10000.0,
        n_runs=200,
        seed=71003,
    )
    with pytest.raises(NumericalError, match="nonpositive price"):
        run_campaign(cfg)


def test_histogram_counts_conserve_runs():
    result = run_campaign(BASE)
    for name, hist in result.histograms.items():
        assert hist.n_total == BASE.n_runs, name
        assert int(hist.counts.sum()) == BASE.n_runs, name


@pytest.mark.parametrize("values, reason", [
    ([1.0, np.inf], "not finite"),
    ([np.nan, 1.0], "not finite"),
    ([1e160, -1e160, 0.0], "moments leave the double range"),  # the variance overflows
    ([1e103] + [0.0] * 999, "moments leave the double range"),  # the third moment alone
    ([0.0, 1e-110], "moments leave the double range"),  # variance**1.5 underflows
], ids=["inf", "nan", "variance", "third-moment", "underflow"])
def test_histogram_refuses_samples_outside_the_double_range(values, reason):
    with pytest.raises(NumericalError, match=reason):
        Histogram.from_samples(values, bins=4)


def test_histogram_keeps_large_finite_moments():
    hist = Histogram.from_samples([1e100, -1e100, 0.0], bins=4)
    assert hist.variance == pytest.approx(2e200 / 3, rel=1e-12)
    assert hist.skewness == 0.0


@pytest.mark.parametrize("values", [[1.0, 1.0], [1.0, np.nextafter(1.0, 2.0)]],
                         ids=["equal", "one-ulp"])
def test_histogram_of_a_hair_wide_sample(values):
    # one ulp cannot hold 50 finite bins; both samples get the same hair-wide range
    hist = Histogram.from_samples(values, bins=50)
    assert np.all(np.diff(hist.bin_edges) > 0.0)
    assert hist.bin_edges[0] < 1.0 < np.nextafter(1.0, 2.0) < hist.bin_edges[-1]
    assert hist.n_total == 2


@pytest.mark.parametrize("values, bins", [
    (np.linspace(-3.0, 7.0, 1001), 50),
    (np.arange(10), 3),
    (np.array([0.5, 0.25, 2.0], dtype=np.float32), 1),
    ([1e100, -1e100, 0.0], 4),
    ([1.0, np.nextafter(1.0, 2.0)], 50),
], ids=["floats", "integers", "float32-one-bin", "wide", "hair-width"])
def test_histograms_from_samples_hold_their_invariants(values, bins):
    # from_samples is the one constructor, so its output carries the invariants
    hist = Histogram.from_samples(values, bins=bins)
    assert hist.bin_edges.dtype == np.float64 and hist.bin_edges.shape == (bins + 1,)
    assert np.all(np.diff(hist.bin_edges) > 0.0)
    assert hist.counts.dtype == np.int64 and hist.counts.shape == (bins,)
    assert int(hist.counts.sum()) == hist.n_total == len(values)


def test_stderr_shrinks_like_root_n():
    small = run_campaign(replace(BASE, fee=0.0, n_steps=200, n_runs=800))
    large = run_campaign(replace(BASE, fee=0.0, n_steps=200, n_runs=3200))
    for key in ("stderr_il", "stderr_lvr", "stderr_volume"):
        ratio = small.summary[key] / large.summary[key]
        assert ratio == pytest.approx(2.0, rel=0.2), key


def test_config_validation():
    good = dict(
        kind=ProcessKind.GBM, p0=100.0, sigma=0.01, n_steps=10,
        liquidity=1000.0, n_runs=10,
    )
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**good, "p0": 0.0})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**good, "sigma": -0.1})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**good, "n_steps": 0})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**good, "n_runs": 0})
    with pytest.raises(ConfigError):
        ExperimentConfig(**good, seed=-1)
    with pytest.raises(ConfigError):
        ExperimentConfig(**good, fee=1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(**good, bins=0)
    with pytest.raises(ConfigError, match="fee must be 0"):
        ExperimentConfig(**good, fee=0.01, observables=Observables.PRICES)
    for key in ("p0", "sigma", "liquidity"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=f"{key} must be finite"):
                ExperimentConfig(**{**good, key: bad})


@pytest.mark.parametrize("seed, accepted", [
    (0, True), (2**64 - 1, True), (np.int64(7), True), (np.uint64(2**64 - 1), True),
    (-1, False), (2**64, False), (7.5, False), (7.0, False), (True, False), (False, False),
    ("7", False), (None, False),
], ids=repr)
def test_config_seed_must_be_a_64_bit_integer(seed, accepted):
    # a bool is an Integral but no seed; a float seed would reach SeedSequence
    if accepted:
        assert replace(BASE, seed=seed).seed == seed
    else:
        with pytest.raises(ConfigError, match="seed must fit in an unsigned 64-bit integer"):
            replace(BASE, seed=seed)


def test_config_round_trips_through_json():
    # the enum fields take their string values, as asdict and JSON give them back
    config = replace(BASE, band_rule=BandRule.LINEARIZED, target=TradeTarget.MARGINAL)
    again = ExperimentConfig(**json.loads(json.dumps(asdict(config))))
    assert again == config
    assert again.kind is ProcessKind.GBM and again.target is TradeTarget.MARGINAL


def test_histogram_names_by_observables():
    assert "il_minus_fees" in BASE.histogram_names()
    prices = replace(BASE, fee=0.0, observables=Observables.PRICES)
    assert prices.histogram_names() == ("final_price",)


# ---------------------------------------------------------------------- sweeps


def test_volume_scales_linearly_with_volatility():
    base = replace(BASE, fee=0.0, n_steps=200, n_runs=800, seed=71005)
    swept = sweep_volume_vs_sigma(base, [0.001, 0.002, 0.004])
    assert swept["fits"]["volume_slope"] == pytest.approx(1.0, abs=0.03)
    assert swept["fits"]["lvr_slope"] == pytest.approx(2.0, abs=0.08)
    assert swept["fits"]["volume_slope_stderr"] < 0.02
    assert len(swept["rows"]) == 3
    vols = [r["mean_volume"] for r in swept["rows"]]
    assert vols[0] < vols[1] < vols[2]


def test_volume_grows_like_root_steps_at_fixed_endpoint_spread():
    base = ExperimentConfig(
        kind=ProcessKind.GBM, p0=100.0, sigma=0.02, n_steps=100,
        liquidity=10000.0, n_runs=600, seed=71006,
    )
    swept = sweep_volume_vs_steps(base, [100, 400, 1600])
    assert swept["fits"]["volume_slope"] == pytest.approx(0.5, abs=0.03)
    # cumulative loss is set by the total variance, not the sampling
    assert swept["fits"]["lvr_relative_spread"] < 0.05
    sigmas = [r["sigma"] for r in swept["rows"]]
    assert sigmas[0] == pytest.approx(0.02)
    assert sigmas[2] == pytest.approx(0.005)


def test_fee_sweep_baseline_and_tiny_fee_row():
    base = replace(BASE, sigma=0.01, n_steps=300, n_runs=300, fee=0.0, seed=71007)
    swept = sweep_fee(base, [1e-8, 0.1, 0.2])
    direct = run_campaign(replace(base, fee=0.0))
    assert swept["baseline"] == direct.summary
    first = swept["rows"][0]
    # a vanishing fee reproduces the fee-free dynamics
    assert first["lvr_ratio"] == pytest.approx(1.0, abs=1e-6)
    assert first["volume_ratio"] == pytest.approx(1.0, abs=1e-6)


def test_fee_sweep_deep_rows_thin_out_trading():
    base = replace(BASE, sigma=0.01, n_steps=1000, n_runs=250, fee=0.0, seed=71008)
    swept = sweep_fee(base, [1e-8, 0.1, 0.2])
    rows = swept["rows"]
    assert rows[1]["mean_wait"] > 10.0
    assert rows[2]["mean_wait"] > rows[1]["mean_wait"]
    assert rows[2]["volume_ratio"] < 0.2
    fits = swept["fits"]
    assert fits["crossover_fee"] is not None
    assert 1e-8 < fits["crossover_fee"] < 0.1
    # two rows sit at f/sigma >= 10, enough for the deep fits
    assert fits["deep_volume_slope"] < -0.5


def test_sweep_validation(monkeypatch):
    base = replace(BASE, fee=0.0, n_runs=20, n_steps=20)
    with pytest.raises(ConfigError):
        sweep_volume_vs_sigma(base, [0.01])
    with pytest.raises(ConfigError):
        sweep_volume_vs_sigma(base, [0.01, -0.02])
    with pytest.raises(ConfigError):
        sweep_volume_vs_steps(base, [100])
    with pytest.raises(ConfigError):
        sweep_volume_vs_steps(replace(base, sigma=0.0), [10, 20])
    with pytest.raises(ConfigError):
        sweep_fee(base, [])
    with pytest.raises(ConfigError):
        sweep_fee(base, [0.01, 0.01])
    with pytest.raises(ConfigError):
        sweep_fee(base, [-0.01, 0.02])
    with pytest.raises(ConfigError, match="positive sigma"):
        sweep_fee(replace(base, sigma=0.0), [0.01])
    # a slope needs distinct abscissae
    with pytest.raises(ConfigError, match="distinct"):
        sweep_volume_vs_sigma(base, [0.001, 0.001])
    with pytest.raises(ConfigError, match="distinct"):
        sweep_volume_vs_steps(base, [10, 10])
    # price-only campaigns have no pool rows to sweep: refused before any campaign runs
    monkeypatch.setattr("ammlab.harness.run_campaign", None)
    prices = replace(base, observables=Observables.PRICES)
    for sweep, values in ((sweep_fee, [0.01]), (sweep_volume_vs_sigma, [0.01, 0.02]),
                          (sweep_volume_vs_steps, [10, 20])):
        with pytest.raises(ConfigError, match="observables must be pool"):
            sweep(prices, values)


_SEAM_BASE = replace(BASE, fee=0.0, sigma=0.01, n_steps=16, n_runs=20, seed=71009)


@pytest.mark.parametrize("sweep, values, changes, keys", [
    (sweep_fee, [0.001, 0.01], [{"fee": 0.0}, {"fee": 0.001}, {"fee": 0.01}],
     {"rows", "fits", "baseline"}),
    (sweep_volume_vs_sigma, [0.002, 0.001], [{"sigma": 0.002}, {"sigma": 0.001}],
     {"rows", "fits"}),
    (sweep_volume_vs_steps, [64, 4],
     [{"n_steps": n, "sigma": math.sqrt(_SEAM_BASE.sigma2_t / n)} for n in (64, 4)],
     {"rows", "fits"}),
], ids=["fee", "sigma", "steps"])
def test_sweep_runs_one_campaign_per_point_in_order(monkeypatch, sweep, values, changes, keys):
    # the fee sweep's fee-free baseline runs first; every campaign keeps base.seed
    seen = []

    def counting(config, **budgets):
        seen.append(config)
        return run_campaign(config, **budgets)

    monkeypatch.setattr("ammlab.harness.run_campaign", counting)
    swept = sweep(_SEAM_BASE, values)
    assert seen == [replace(_SEAM_BASE, **change) for change in changes]
    assert set(swept) == keys
    assert len(swept["rows"]) == len(values)
    if "baseline" in swept:
        assert swept["baseline"] == run_campaign(seen[0]).summary


def test_result_column_accessor():
    result = run_campaign(replace(BASE, n_runs=50))
    np.testing.assert_array_equal(result.column("il"), result.table[:, 0])
    np.testing.assert_array_equal(
        result.column("final_price"), result.table[:, TABLE_COLUMNS.index("final_price")]
    )
    with pytest.raises(ValueError):
        result.column("nonsense")
