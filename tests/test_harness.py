"""Campaign driver: determinism, resource guards, sweeps."""

import ast
import json
import math
import tracemalloc
from dataclasses import asdict, fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scalar_engine import Pool, run_no_fee, run_with_fees

import ammlab
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
    arbitrage,
    classify_regime,
    derive_run_seed,
    run_campaign,
    simulate_price_matrix,
    sweep_fee,
    sweep_volume_vs_sigma,
    sweep_volume_vs_steps,
)
from ammlab import harness
from ammlab.cli import main
from ammlab.harness import _ROW_KEYS, TABLE_COLUMNS, chunk_working_bytes, plan_chunks

BASE = ExperimentConfig(
    kind=ProcessKind.GBM,
    p0=100.0,
    sigma=0.004,
    n_steps=257,
    liquidity=10000.0,
    n_runs=400,
    seed=71001,
    fee=0.002,
)

# forces dozens of chunks so chunk seams are exercised
TINY_CHUNK = (257 + 1) * 8 * 7


# ----------------------------------------------------------------- determinism


def test_repeat_run_is_byte_identical():
    a = run_campaign(BASE)
    b = run_campaign(BASE)
    assert a.summary == b.summary
    assert np.array_equal(a.table, b.table)


def test_chunk_size_does_not_change_results(monkeypatch):
    large = run_campaign(BASE)
    monkeypatch.setattr(harness, "CHUNK_BYTES", TINY_CHUNK)
    small = run_campaign(BASE)
    assert small.summary == large.summary
    assert np.array_equal(small.table, large.table)


def _run_path(config: ExperimentConfig, i: int) -> np.ndarray:
    seed = derive_run_seed(config.seed, i)
    return config.p0 * simulate_price_matrix(config.kind, config.sigma, config.n_steps, [seed])[:, 0]


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


# pools far apart in scale, each with L / sqrt(p0) a double
_SCALES = [(100.0, 1e4), (1e300, 1e4), (1e-300, 1.0)]


@pytest.mark.parametrize("kind", list(ProcessKind))
@pytest.mark.parametrize("fee, target", [(0.0, TradeTarget.ORACLE), (4e-4, TradeTarget.ORACLE),
                                         (4e-4, TradeTarget.MARGINAL)])
def test_a_campaign_is_its_unit_pool_campaign_scaled(kind, fee, target):
    # same trades at every scale; losses times L / sqrt(p0) and prices times p0, bit for bit,
    # and a mean lvr that neither underflows to 0 at a far p0 nor overflows at a near one
    unit_config = replace(BASE, kind=kind, fee=fee, target=target, p0=1.0, liquidity=1.0,
                          n_steps=100, n_runs=200)
    unit = run_campaign(unit_config)
    for p0, liquidity in _SCALES:
        result = run_campaign(replace(unit_config, p0=p0, liquidity=liquidity))
        np.testing.assert_array_equal(result.column("n_arb_events"), unit.column("n_arb_events"))
        assert result.table[:, :4].tobytes() == (
            unit.table[:, :4] * (liquidity / math.sqrt(p0))).tobytes()
        np.testing.assert_array_equal(result.column("final_price"),
                                      p0 * unit.column("final_price"))
        assert 0.0 < result.summary["mean_lvr"] < math.inf, (p0, liquidity)


# -------------------------------------------------------------- resource plan


def test_table_over_budget_is_refused(tmp_path, capsys):
    # the fewest runs whose 56 B table rows passed 1 GiB; the command refuses them before any
    # campaign starts, and a library campaign is guarded only by plan_chunks
    rc = main(["simulate", "--n-runs", str((1 << 30) // 56 + 1), "--n-steps", "10",
               "--out", str(tmp_path / "x")])
    assert rc == 3
    assert "resource guard: n_runs brings the working set to about" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_chunk_plan_partitions_the_runs(monkeypatch):
    # 7 runs fit, so 1000 runs take the fewest chunks, 143, of 7 runs or 6
    monkeypatch.setattr(harness, "CHUNK_BYTES", TINY_CHUNK)
    chunks = plan_chunks(1000, 257)
    assert chunks[0][0] == 0
    assert chunks[-1][1] == 1000
    for (a0, a1), (b0, b1) in zip(chunks, chunks[1:]):
        assert a1 == b0
    assert len(chunks) == 143
    assert {b - a for a, b in chunks} == {6, 7}
    # zero runs, which only the command's resource check costs, plan and hold nothing
    assert plan_chunks(0, 257) == []
    assert chunk_working_bytes(0, 257) == 0


def test_single_path_over_budget_is_an_error():
    # the real 64 MiB budget holds a path of 2**23 - 1 steps, and 2**23 steps are one
    # 8-byte price past it: the plan and the stated bytes accept and refuse the same paths
    assert plan_chunks(3, 2**23 - 1) == [(0, 1), (1, 2), (2, 3)]
    # a one-run chunk's kernel block holds 255 steps, 42 B a step and one step more
    assert chunk_working_bytes(3, 2**23 - 1) == 4 * harness.CHUNK_BYTES + 112 + 42 * 256
    for refuse in (plan_chunks, chunk_working_bytes):
        with pytest.raises(ResourceLimitError, match="chunk budget; lower n_steps$"):
            refuse(3, 2**23)


@pytest.mark.parametrize("n_runs, n_steps, n_chunks", [
    (1, 2**23 - 1, 1),  # one run
    (5, 2**23 - 1, 5),  # one run per chunk
    (10**6, 10, 2),  # two chunks of 500000 runs
    (1000, 10**5, 13),  # thirteen chunks of 77 runs or 76
    (4 * 8380, 1000, 4),  # four full chunks
    (10000, 1000, 2),  # the canonical campaign: two chunks of 5000 runs
])
def test_the_planned_chunk_fits_the_stated_chunk(n_runs, n_steps, n_chunks):
    # at the real budget, with no allocation: as many chunks as filling each to the budget
    # would take (the benchmark's harness.chunks), equal to within one run, and the largest
    # planned chunk matrix, with 112 B a run of seeds, keys and kernel state and the draw
    # blocks simulate_price_matrix stages through for it and the kernel's step block, 42 B
    # a run and step for one step more than it holds, is what chunk_working_bytes states;
    # a fee-free chunk streams one block of about 1 MiB of draws and its prices, never less
    # than one path, in place of the matrix and its blocks, and the kernel's step block
    # over that block's runs
    chunks = plan_chunks(n_runs, n_steps)
    path = (n_steps + 1) * 8
    assert len(chunks) == n_chunks == len(range(0, n_runs, harness.CHUNK_BYTES // path))
    assert chunks[0][0] == 0 and chunks[-1][1] == n_runs
    assert all(a1 == b0 for (_, a1), (b0, _) in zip(chunks, chunks[1:]))
    sizes = [hi - lo for lo, hi in chunks]
    assert max(sizes) - min(sizes) <= 1
    largest = max(sizes) * path
    assert largest <= harness.CHUNK_BYTES
    blocks = 3 * min(max(harness._DRAW_BLOCK_BYTES, path), largest)

    def step_block(runs):
        return 42 * (min(n_steps, max(1, min(255, harness._DRAW_BLOCK_BYTES // (64 * runs))))
                     + 1) * runs

    assert (largest + max(sizes) * 112 + blocks + step_block(max(sizes))
            == chunk_working_bytes(n_runs, n_steps))
    runs = min(max(sizes), max(1, harness._DRAW_BLOCK_BYTES // (8 * n_steps)))
    assert (chunk_working_bytes(n_runs, n_steps, Observables.POOL)
            == max(sizes) * 112 + 2 * runs * path + step_block(runs))
    assert (chunk_working_bytes(n_runs, n_steps, Observables.PRICES)
            == max(sizes) * 112 + 2 * runs * path)


def test_a_campaign_one_run_over_a_chunk_holds_half_the_budget(monkeypatch):
    # 601 runs where 600 fit go as 300 + 301, not as a full chunk and then one run; draw
    # blocks of one run keep the staging out of the peak, and a first campaign warms the
    # caches a campaign fills once
    config = replace(BASE, n_steps=1000, n_runs=601)
    budget = 600 * (config.n_steps + 1) * 8
    monkeypatch.setattr(harness, "CHUNK_BYTES", budget)
    monkeypatch.setattr(harness, "_DRAW_BLOCK_BYTES", 8)
    assert plan_chunks(config.n_runs, config.n_steps) == [(0, 300), (300, 601)]
    run_campaign(replace(config, n_runs=1))
    tracemalloc.start()
    try:
        run_campaign(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * budget, (peak, budget)


def test_a_fee_free_campaign_holds_no_chunk_matrix():
    # the canonical campaign plans two chunks of 5000 runs, 40.04 MB of paths each; at
    # fee 0 each draw block is reduced as soon as it is built, so the campaign peaks
    # under a quarter of one chunk matrix, and holds the streamed chunk it states
    config = replace(BASE, fee=0.0, sigma=0.001, n_steps=1000, n_runs=10000)
    assert plan_chunks(config.n_runs, config.n_steps) == [(0, 5000), (5000, 10000)]
    run_campaign(replace(config, n_runs=1))
    tracemalloc.start()
    try:
        run_campaign(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5000 * 1001 * 8 / 4, peak
    assert chunk_working_bytes(config.n_runs, config.n_steps, Observables.POOL) < peak


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


def _simulate_bundle(tmp_path, config: ExperimentConfig) -> Path:
    """The simulate bundle of config's campaign, binned in 23 bins."""
    flags = [f"--{k.replace('_', '-')}={getattr(v, 'value', v)}"
             for k, v in asdict(config).items() if k != "kind"]
    out = tmp_path / config.observables.value
    assert main(["simulate", f"--process={config.kind.value}", *flags, "--bins=23",
                 "--out", str(out)]) == 0
    return out


def test_histogram_counts_conserve_runs(tmp_path):
    # each histogram simulate writes bins its column of the campaign table, every run once
    result = run_campaign(BASE)
    net = {f"{m}_minus_fees": result.column(m) - result.column("fees") for m in ("il", "lvr")}
    for path in _simulate_bundle(tmp_path, BASE).glob("hist_*.json"):
        written = json.loads(path.read_text())
        name = written.pop("observable")
        hist = Histogram.from_samples(net[name] if name in net else result.column(name), bins=23)
        assert written == json.loads(json.dumps(hist.to_dict())), name
        assert written["n_total"] == sum(written["counts"]) == BASE.n_runs, name


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
    with pytest.raises(ConfigError, match="fee must be 0"):
        ExperimentConfig(**good, fee=0.01, observables=Observables.PRICES)
    for key in ("p0", "sigma", "liquidity"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=f"{key} must be finite"):
                ExperimentConfig(**{**good, key: bad})


@pytest.mark.parametrize("seed, accepted", [
    (0, True), (2**64 - 1, True), (np.int64(7), True), (np.uint64(2**64 - 1), True),
    (np.uint64(7), True),
    (-1, False), (2**64, False), (7.5, False), (7.0, False), (True, False), (False, False),
    ("7", False), (None, False),
], ids=repr)
def test_config_seed_must_be_a_64_bit_integer(seed, accepted):
    # a bool is an Integral but no seed; a float seed would reach SeedSequence;
    # a numpy integer is stored as the plain int it equals
    if accepted:
        stored = replace(BASE, seed=seed).seed
        assert type(stored) is int and stored == seed
    else:
        with pytest.raises(ConfigError, match="seed must fit in an unsigned 64-bit integer"):
            replace(BASE, seed=seed)


def test_config_round_trips_through_json():
    # the enum fields take their string values, as asdict and JSON give them back,
    # and a numpy seed is stored as a plain int, which JSON can write
    config = replace(BASE, band_rule=BandRule.LINEARIZED, target=TradeTarget.MARGINAL,
                     seed=np.uint64(2**64 - 1))
    again = ExperimentConfig(**json.loads(json.dumps(asdict(config))))
    assert again == config
    assert again.kind is ProcessKind.GBM and again.target is TradeTarget.MARGINAL


def test_histogram_names_by_observables(tmp_path):
    # a pool campaign bins its table and il and lvr net of fees; a price campaign its prices
    pool = _simulate_bundle(tmp_path, BASE)
    prices = _simulate_bundle(tmp_path, replace(BASE, fee=0.0, observables=Observables.PRICES))
    assert {p.name for p in pool.glob("hist_*.json")} == {f"hist_{name}.json" for name in (
        "il", "lvr", "volume", "fees", "il_minus_fees", "lvr_minus_fees", "final_price")}
    assert {p.name for p in prices.glob("hist_*.json")} == {"hist_final_price.json"}


# a second valid value of every field of the campaign record
_SECOND_VALUES = {
    "kind": ProcessKind.BM, "p0": 120.0, "sigma": 0.005, "n_steps": 256, "liquidity": 5000.0,
    "n_runs": 399, "seed": 71002, "fee": 0.003, "band_rule": BandRule.LINEARIZED,
    "target": TradeTarget.MARGINAL, "observables": Observables.PRICES,
}


@pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig)])
def test_every_record_field_changes_the_campaign(name):
    # band_rule and target act through the fee band (BASE has a fee); a price campaign takes none
    base = replace(BASE, fee=0.0) if name == "observables" else BASE
    a, b = run_campaign(base), run_campaign(replace(base, **{name: _SECOND_VALUES[name]}))
    assert not (a.table.shape == b.table.shape
                and np.array_equal(a.table, b.table, equal_nan=True)
                and json.dumps(a.summary) == json.dumps(b.summary))


def test_sweeps_bin_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr(Histogram, "from_samples",
                        classmethod(lambda cls, *args, **kwargs: calls.append(args)))
    sweep_fee(replace(BASE, n_runs=50), [0.001, 0.002])
    assert calls == []
    assert not hasattr(harness, "Histogram")


def _names_in(tree):
    """The identifiers, attribute names and string constants of a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_only_cli_bins_net_losses_and_no_module_imports_harness_private_names():
    # the net-of-fee losses are histograms of the simulate bundle, which cli alone writes
    trees = {path.name: ast.parse(path.read_text())
             for path in Path(ammlab.__file__).parent.glob("*.py")}
    naming = {name for name, tree in trees.items()
              if {"il_minus_fees", "lvr_minus_fees"} & set(_names_in(tree))}
    assert naming == {"cli.py"}
    private = [(name, alias.name) for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module in ("harness", "ammlab.harness")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


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
    swept = sweep_volume_vs_steps(base, [100, 400, 1600], total_variance=0.04)
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
        sweep_volume_vs_steps(base, [100], total_variance=base.sigma2_t)
    with pytest.raises(ConfigError, match="total_variance must be positive"):
        sweep_volume_vs_steps(base, [10, 20], total_variance=0.0)
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
        sweep_volume_vs_steps(base, [10, 10], total_variance=base.sigma2_t)
    # price-only campaigns have no pool rows to sweep: refused before any campaign runs
    monkeypatch.setattr("ammlab.harness.run_campaign", None)
    prices = replace(base, observables=Observables.PRICES)
    steps = partial(sweep_volume_vs_steps, total_variance=base.sigma2_t)
    for sweep, values in ((sweep_fee, [0.01]), (sweep_volume_vs_sigma, [0.01, 0.02]),
                          (steps, [10, 20])):
        with pytest.raises(ConfigError, match="observables must be pool"):
            sweep(prices, values)


_SEAM_BASE = replace(BASE, fee=0.0, sigma=0.01, n_steps=16, n_runs=20, seed=71009)


@pytest.mark.parametrize("sweep, base, values, changes, keys, builds", [
    (sweep_fee, _SEAM_BASE, [0.001, 0.01], [{"fee": 0.001}, {"fee": 0.01}, {"fee": 0.0}],
     {"rows", "fits", "baseline"}, 1),
    (sweep_volume_vs_sigma, _SEAM_BASE, [0.002, 0.001], [{"sigma": 0.002}, {"sigma": 0.001}],
     {"rows", "fits"}, 0),
    (partial(sweep_volume_vs_steps, total_variance=_SEAM_BASE.sigma2_t), _SEAM_BASE, [64, 4],
     [{"n_steps": n, "sigma": math.sqrt(_SEAM_BASE.sigma2_t / n)} for n in (64, 4)],
     {"rows", "fits"}, 0),
    (sweep_fee, replace(_SEAM_BASE, target=TradeTarget.MARGINAL), [0.001, 0.002, 0.01],
     [{"fee": 0.001}, {"fee": 0.002}, {"fee": 0.01}, {"fee": 0.0}],
     {"rows", "fits", "baseline"}, 1),
], ids=["fee", "sigma", "steps", "fee-marginal"])
def test_sweep_runs_one_campaign_per_point_in_order(monkeypatch, sweep, base, values, changes,
                                                    keys, builds):
    # the fee sweep's fee-free baseline runs last; every campaign keeps base.seed, and
    # these campaigns are one chunk each, so a chunk whose paths the memo holds reads
    # them and the fee campaigns build once, while fee-free campaigns with nothing held
    # build no matrix at all
    seen, built = [], []

    def counting(config, **memo):
        seen.append(config)
        return run_campaign(config, **memo)

    def building(*args):
        built.append(args)
        return simulate_price_matrix(*args)

    monkeypatch.setattr("ammlab.harness.run_campaign", counting)
    monkeypatch.setattr("ammlab.harness.simulate_price_matrix", building)
    swept = sweep(base, values)
    assert len(built) == builds
    assert seen == [replace(base, **change) for change in changes]
    assert set(swept) == keys
    # every row is what its campaign gives when it runs alone
    alone = [run_campaign(config).summary for config in seen]
    if "baseline" in swept:
        assert swept["baseline"] == alone.pop()
    assert [{k: row[k] for k in _ROW_KEYS} for row in swept["rows"]] == [
        {k: summary[k] for k in _ROW_KEYS} for summary in alone]


def test_a_shared_memo_holds_one_read_only_chunk_matrix(monkeypatch):
    # three chunks each, so the second campaign's first chunk misses the held last chunk
    # of the first: the held matrix is dropped before that chunk streams, so no two chunk
    # matrices are ever alive and the pair peaks like one campaign alone
    config = replace(BASE, n_steps=1000, n_runs=1800)
    other = replace(config, fee=0.0)
    budget = 600 * (config.n_steps + 1) * 8
    monkeypatch.setattr(harness, "CHUNK_BYTES", budget)
    assert len(plan_chunks(config.n_runs, config.n_steps)) == 3
    other_alone = run_campaign(other).table
    paths: dict = {}
    tracemalloc.start()
    try:
        config_alone = run_campaign(config).table
        alone_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        shared = [run_campaign(config, paths=paths).table]
        fee_peak = tracemalloc.get_traced_memory()[1]
        # the fee campaign leaves its last chunk matrix, read-only, for the next campaign
        (held,) = paths.values()
        with pytest.raises(ValueError):
            held[0, 0] = 1.0
        assert arbitrage(held, 0.002).tobytes() == arbitrage(held.copy(), 0.002).tobytes()
        del held
        tracemalloc.reset_peak()
        shared.append(run_campaign(other, paths=paths).table)
        pair_peak = max(fee_peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert [t.tobytes() for t in shared] == [config_alone.tobytes(), other_alone.tobytes()]
    assert pair_peak <= 1.05 * alone_peak, (pair_peak, alone_peak)
    assert alone_peak < 2 * budget, (alone_peak, budget)
    assert paths == {}  # the fee-free campaign streamed every chunk


def _counting_builds(monkeypatch) -> list:
    """The argument tuples of every simulate_price_matrix call the harness makes from now on."""
    built: list = []

    def building(*args):
        built.append(args)
        return simulate_price_matrix(*args)

    monkeypatch.setattr(harness, "simulate_price_matrix", building)
    return built


def test_a_two_chunk_fee_sweep_builds_each_fee_campaign_and_streams_its_baseline(monkeypatch):
    # the memo holds only the last chunk, so no chunk of a later campaign finds its
    # paths there: each fee campaign builds its two chunks, and the baseline streams
    base = replace(BASE, n_steps=100, n_runs=1200, fee=0.0)
    monkeypatch.setattr(harness, "CHUNK_BYTES", 600 * (base.n_steps + 1) * 8)
    assert len(plan_chunks(base.n_runs, base.n_steps)) == 2
    fees = [0.001, 0.004]
    built = _counting_builds(monkeypatch)
    swept = sweep_fee(base, fees)
    assert len(built) == 4
    alone = [run_campaign(replace(base, fee=f)).summary for f in fees]
    assert swept["baseline"] == run_campaign(base).summary
    assert [{k: row[k] for k in _ROW_KEYS} for row in swept["rows"]] == [
        {k: summary[k] for k in _ROW_KEYS} for summary in alone]


def test_a_fee_campaign_run_alone_holds_no_chunk_matrix_when_it_summarizes(monkeypatch):
    config = replace(BASE, n_steps=1000, n_runs=1200)
    matrix = 600 * (config.n_steps + 1) * 8  # each of its two chunks
    monkeypatch.setattr(harness, "CHUNK_BYTES", matrix)
    assert len(plan_chunks(config.n_runs, config.n_steps)) == 2
    held = []
    summarize = harness._summarize

    def measuring(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return summarize(*args)

    run_campaign(config)  # the first campaign of a process also imports what it needs
    monkeypatch.setattr(harness, "_summarize", measuring)
    tracemalloc.start()
    try:
        run_campaign(config)
    finally:
        tracemalloc.stop()
    assert held[0] < matrix / 10, (held, matrix)


def test_a_price_only_campaign_reads_the_matrix_the_memo_holds(monkeypatch):
    # only a library caller gets here: a fee campaign, then the price-only campaign on
    # its paths with the same memo, which reads the held matrix and builds nothing
    config = replace(BASE, n_steps=200, n_runs=300)
    prices = replace(config, fee=0.0, observables=Observables.PRICES)
    alone = run_campaign(prices).table
    paths: dict = {}
    run_campaign(config, paths=paths)
    (held,) = paths.values()
    built = _counting_builds(monkeypatch)
    shared = run_campaign(prices, paths=paths).table
    assert built == []
    (still,) = paths.values()
    assert still is held
    assert shared.tobytes() == alone.tobytes()


def test_result_column_accessor():
    result = run_campaign(replace(BASE, n_runs=50))
    np.testing.assert_array_equal(result.column("il"), result.table[:, 0])
    np.testing.assert_array_equal(
        result.column("final_price"), result.table[:, TABLE_COLUMNS.index("final_price")]
    )
    with pytest.raises(ValueError):
        result.column("nonsense")
