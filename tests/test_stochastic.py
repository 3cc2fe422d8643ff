"""Price process update rules, densities, and seeding guarantees."""

import ast
import operator
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from ammlab import (
    BarrierSpec,
    ConfigError,
    ExperimentConfig,
    Histogram,
    ILDistParams,
    ProcessKind,
    chunk_working_bytes,
    clt_sum_experiment,
    derive_run_seed,
    first_passage,
    make_generator,
    pdf_bm,
    pdf_gbm,
    plan_chunks,
    run_campaign,
    sample_il,
    simulate_price_matrix,
    sweep_volume_vs_steps,
)
import ammlab
from ammlab import harness
from ammlab.harness import _DRAW_BLOCK_BYTES
from ammlab.stochastic import GBM_FACTOR_FLOOR, philox_keys, prices_from_increments

BM, GBM = ProcessKind.BM, ProcessKind.GBM
# one and two entropy words, both sides of 2**32, and the ends of the 64-bit range
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _seed_sequence_key(seed):
    return np.random.SeedSequence(seed).generate_state(2, np.uint64)


def _spawned_seed(seed, index):
    return int(np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(1, np.uint64)[0])


def _one_step(kind, p0, sigma, dw):
    prices = p0 * prices_from_increments(kind, sigma, [dw])
    assert prices.shape == (2,) and prices[0] == p0
    return prices[1]


def test_step_bm_cases():
    assert _one_step(BM, 100.0, 0.001, 0.0) == 100.0
    assert _one_step(BM, 100.0, 0.001, 1.5) == pytest.approx(100.15)
    # additive increments scale with the start price, not the current one
    two = prices_from_increments(BM, 0.01, [-50.0, -2.0])
    assert two[1] == pytest.approx(0.5)
    assert two[2] == pytest.approx(0.48)


def test_step_gbm_cases():
    assert _one_step(GBM, 100.0, 0.001, 0.0) == 100.0
    assert _one_step(GBM, 100.0, 0.015, 1.0) == pytest.approx(101.5)
    assert _one_step(GBM, 200.0, 0.015, 1.0) == pytest.approx(203.0)
    # a step-major block: one column per run, the start row prepended
    block = prices_from_increments(GBM, 0.015, [[1.0, -1.0, 0.0]])
    assert block.shape == (2, 3)
    np.testing.assert_allclose(block[:, 0], [1.0, 1.015], rtol=1e-15)
    np.testing.assert_allclose(block[1], [1.015, 0.985, 1.0], rtol=1e-15)


def test_step_gbm_clamps_sign_flip():
    assert _one_step(GBM, 100.0, 0.5, -3.0) == pytest.approx(100.0 * GBM_FACTOR_FLOOR)


@pytest.mark.parametrize("kind", [BM, GBM])
@pytest.mark.parametrize("shape", [(40,), (40, 3)])
def test_prices_from_increments_leaves_its_input_alone(kind, shape):
    # a large sigma so that some gbm factors hit the clamp
    dw = np.random.default_rng(3).standard_normal(shape)
    before = dw.copy()
    prices_from_increments(kind, 0.6, dw)
    assert np.array_equal(dw, before)


def test_gbm_price_build_holds_no_full_size_temporary():
    dw = np.random.default_rng(4).standard_normal((2000, 500))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        prices = prices_from_increments(GBM, 0.01, dw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output plus its one-byte-per-entry clamp mask
    assert peak <= 1.2 * prices.nbytes


@pytest.mark.parametrize("kind", [BM, GBM])
def test_price_matrix_build_holds_no_draw_matrix(kind):
    seeds = np.arange(2000, dtype=np.uint64)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        prices = simulate_price_matrix(kind, 0.001, 2000, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the matrix plus one block of draws and its prices, never a (runs, n_steps) draw matrix
    assert peak <= prices.nbytes + (4 << 20)


def test_pdf_bm_peak_and_symmetry():
    assert pdf_bm(100.0, 100.0, 0.01, 1.0) == pytest.approx(1.0 / np.sqrt(2.0 * np.pi))
    for delta in (0.3, 1.7, 5.0):
        assert pdf_bm(100.0 + delta, 100.0, 0.02, 3.0) == pytest.approx(
            pdf_bm(100.0 - delta, 100.0, 0.02, 3.0), rel=1e-12
        )


def test_pdf_bm_rejects_bad_scale():
    with pytest.raises(ValueError):
        pdf_bm(100.0, 100.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        pdf_bm(100.0, 100.0, 0.01, 0.0)


def test_pdf_gbm_normalization_and_mean():
    norm, _ = scipy.integrate.quad(lambda p: pdf_gbm(p, 100.0, 0.02, 50.0), 1e-9, 1e4, limit=200)
    assert norm == pytest.approx(1.0, abs=1e-8)
    mean, _ = scipy.integrate.quad(
        lambda p: p * pdf_gbm(p, 100.0, 0.02, 50.0), 1e-9, 1e5, limit=200
    )
    assert mean == pytest.approx(100.0, rel=1e-7)


def test_pdf_gbm_domain():
    with pytest.raises(ValueError):
        pdf_gbm(0.0, 100.0, 0.01, 1.0)
    assert pdf_gbm(1e-300, 100.0, 0.01, 1.0) == 0.0


def test_zero_sigma_path_is_constant():
    prices = simulate_price_matrix(GBM, 0.0, 25, [5])[:, 0]
    assert prices.shape == (26,)
    assert np.all(prices == 1.0)


def test_same_seed_same_path():
    a = simulate_price_matrix(GBM, 0.01, 300, [99])
    b = simulate_price_matrix(GBM, 0.01, 300, [99])
    assert np.array_equal(a, b)


def test_path_starts_at_p0_and_gbm_positive():
    # every path starts at 1; a pool's paths are its p0 times these
    prices = simulate_price_matrix(GBM, 0.2, 500, [3])[:, 0]
    assert prices[0] == 1.0
    assert np.all(prices > 0.0)


@pytest.mark.parametrize(
    "n_steps, n_derived",
    [
        (64, 8),
        # the run count straddles a block boundary by three runs
        (4096, _DRAW_BLOCK_BYTES // (8 * 4096) + 3 - len(EDGE_SEEDS)),
        # a block holds a single run
        (_DRAW_BLOCK_BYTES // 8 + 1, 2),
    ],
    ids=["one-block", "block-plus-three", "one-run-blocks"],
)
@pytest.mark.parametrize("kind", [BM, GBM])
def test_matrix_rows_match_single_paths(kind, n_steps, n_derived):
    # campaign batching must not change any run's draws: column i depends
    # only on seeds[i], and holds the draws of that seed's own generator
    seeds = [derive_run_seed(17, i) for i in range(n_derived)] + EDGE_SEEDS
    block = simulate_price_matrix(kind, 0.004, n_steps, seeds)
    for i, seed in enumerate(seeds):
        dw = make_generator(seed).standard_normal(n_steps)
        assert np.array_equal(block[:, i], prices_from_increments(kind, 0.004, dw))
        single = simulate_price_matrix(kind, 0.004, n_steps, [seed])[:, 0]
        assert np.array_equal(block[:, i], single)


def test_empty_seed_list_gives_no_columns():
    for kind in (BM, GBM):
        assert simulate_price_matrix(kind, 0.01, 30, []).shape == (31, 0)


@pytest.mark.parametrize(
    "seeds",
    [[1.5], 7, [[1, 2]], [-1], [2**64], ["3"], [3, None], [True], np.array([True])],
    ids=["float", "scalar", "nested", "negative", "too-large", "string", "none", "bool",
         "bool-array"],
)
def test_price_matrix_refuses_bad_seeds(seeds):
    with pytest.raises(ValueError, match="seeds"):
        simulate_price_matrix(GBM, 0.01, 5, seeds)


def test_philox_keys_match_seed_sequence_at_the_edges():
    keys = philox_keys(EDGE_SEEDS)
    assert keys.shape == (len(EDGE_SEEDS), 2) and keys.dtype == np.uint64
    for seed, key in zip(EDGE_SEEDS, keys):
        assert np.array_equal(key, _seed_sequence_key(seed))
        assert np.array_equal(key, make_generator(seed).bit_generator.state["state"]["key"])


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
def test_philox_keys_match_seed_sequence(seeds):
    expected = np.array([_seed_sequence_key(s) for s in seeds])
    assert np.array_equal(philox_keys(seeds), expected)


def test_derive_run_seed_is_stable_and_distinct():
    a = derive_run_seed(123, 0)
    assert a == derive_run_seed(123, 0)
    seeds = {derive_run_seed(123, i) for i in range(1000)}
    assert len(seeds) == 1000
    with pytest.raises(ValueError):
        derive_run_seed(123, -1)


# the first runs, both sides of 2**31, and the top of the 32-bit index range
RUN_INDICES = [*range(5000), *range(2**31 - 3, 2**31 + 3), *range(2**32 - 5, 2**32)]


@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**32, 2**32 + 5, 2**63, 2**64 - 1])
def test_derive_run_seed_matches_seed_sequence(seed):
    got = [derive_run_seed(seed, i) for i in RUN_INDICES]
    assert got == [_spawned_seed(seed, i) for i in RUN_INDICES]


@pytest.mark.parametrize(
    "seed, index",
    [(np.uint64(2**64 - 1), np.uint32(2**32 - 1)), (np.int64(7), np.int8(3)),
     (np.uint32(2**32 - 1), np.uint64(2**31))],
)
def test_derive_run_seed_takes_numpy_integers(seed, index):
    got = derive_run_seed(seed, index)
    assert type(got) is int and got == derive_run_seed(int(seed), int(index))


@pytest.mark.parametrize(
    "seed, index, name, value",
    [(3, -1, "run_index", -1), (3, 2**32, "run_index", 2**32),
     (-1, 0, "campaign_seed", -1), (2**64, 0, "campaign_seed", 2**64),
     (True, 0, "campaign_seed", True), (3, True, "run_index", True),
     (3, 2.0, "run_index", 2.0), (7.0, 3, "campaign_seed", 7.0)],
    ids=["negative-index", "index-2**32", "negative-seed", "seed-2**64", "bool-seed",
         "bool-index", "float-index", "float-seed"],
)
def test_derive_run_seed_refuses_out_of_domain(seed, index, name, value):
    with pytest.raises(ValueError, match=f"^{name} .*got {re.escape(repr(value))}$"):
        derive_run_seed(seed, index)


_LAW = ILDistParams(p0=100.0, liquidity=10000.0, sigma=0.1, t=1.0)

# every library door that takes a seed, and the name its refusal gives the seed
SEED_DOORS = {
    "make_generator": (make_generator, "seed"),
    "sample_il": (lambda seed: sample_il(_LAW, 10, seed), "seed"),
    "clt_sum_experiment": (lambda seed: clt_sum_experiment(_LAW, 10, 10, seed), "seed"),
    "first_passage": (lambda seed: first_passage(BarrierSpec(-3, 3), 10, seed), "seed"),
    "ExperimentConfig": (lambda seed: ExperimentConfig(
        kind=GBM, p0=100.0, sigma=0.01, n_steps=5, liquidity=1e4, n_runs=2, seed=seed), "seed"),
    "simulate_price_matrix": (
        lambda seed: simulate_price_matrix(GBM, 0.01, 5, [3, seed]), "seeds[1]"),
    "derive_run_seed": (lambda seed: derive_run_seed(seed, 0), "campaign_seed"),
}


@pytest.mark.parametrize("door", SEED_DOORS)
@pytest.mark.parametrize("seed", [-1, 2**64, True, 7.0], ids=repr)
def test_every_seed_door_gives_the_same_refusal(door, seed):
    call, name = SEED_DOORS[door]
    message = f"{name} must fit in an unsigned 64-bit integer, got {seed!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call(seed)


_CONFIG = dict(kind=GBM, p0=100.0, sigma=0.01, n_steps=5, liquidity=1e4, n_runs=2)


# every library door that takes an integer size, given one that is not an integer; the
# id is the call, and the refusal comes before the door's own positivity check
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: ExperimentConfig(**{**_CONFIG, "n_steps": 10.5}),
                 "n_steps must be an integer, got 10.5", id="ExperimentConfig(n_steps=10.5)"),
    pytest.param(lambda: ExperimentConfig(**{**_CONFIG, "n_runs": 20.0}),
                 "n_runs must be an integer, got 20.0", id="ExperimentConfig(n_runs=20.0)"),
    pytest.param(lambda: ExperimentConfig(**{**_CONFIG, "n_steps": True}),
                 "n_steps must be an integer, got True", id="ExperimentConfig(n_steps=True)"),
    pytest.param(lambda: ExperimentConfig(**{**_CONFIG, "n_runs": -0.5}),
                 "n_runs must be an integer, got -0.5", id="ExperimentConfig(n_runs=-0.5)"),
    pytest.param(lambda: sample_il(_LAW, 2.5, 0), "n must be an integer, got 2.5",
                 id="sample_il(params, 2.5, 0)"),
    pytest.param(lambda: first_passage(BarrierSpec(-3, 3), 2.5, 0),
                 "n_walks must be an integer, got 2.5", id="first_passage(spec, 2.5, 0)"),
    pytest.param(lambda: clt_sum_experiment(_LAW, 2.5, 3, 0),
                 "n_per_sum must be an integer, got 2.5",
                 id="clt_sum_experiment(params, 2.5, 3, 0)"),
    pytest.param(lambda: clt_sum_experiment(_LAW, 10, 3, 0, bins=2.5),
                 "bins must be an integer, got 2.5",
                 id="clt_sum_experiment(params, 10, 3, 0, bins=2.5)"),
    pytest.param(lambda: sweep_volume_vs_steps(ExperimentConfig(**_CONFIG), [10.5, 20], 1e-3),
                 "steps_list[0] must be an integer, got 10.5",
                 id="sweep_volume_vs_steps(base, [10.5, 20], 1e-3)"),
    pytest.param(lambda: Histogram.from_samples([1.0, 2.0], bins=2.5),
                 "bins must be an integer, got 2.5", id="Histogram.from_samples(v, bins=2.5)"),
    pytest.param(lambda: Histogram.from_samples([1.0, 2.0], bins=True),
                 "bins must be an integer, got True", id="Histogram.from_samples(v, bins=True)"),
    pytest.param(lambda: plan_chunks(10.5, 100), "n_runs must be an integer, got 10.5",
                 id="plan_chunks(10.5, 100)"),
    pytest.param(lambda: plan_chunks(10, 100.0), "n_steps must be an integer, got 100.0",
                 id="plan_chunks(10, 100.0)"),
    pytest.param(lambda: chunk_working_bytes(10.5, 100), "n_runs must be an integer, got 10.5",
                 id="chunk_working_bytes(10.5, 100)"),
])
def test_every_integer_size_refuses_a_value_that_is_not_an_integer(monkeypatch, call, message):
    monkeypatch.setattr(harness, "run_campaign", None)  # refused before any campaign runs
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call()


def _integers_in_code(tree):
    """Integer literals, and powers and left shifts of two integer literals."""
    ops = {ast.Pow: operator.pow, ast.LShift: operator.lshift}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            yield node.value
        elif (isinstance(node, ast.BinOp) and type(node.op) in ops
              and all(isinstance(side, ast.Constant) and type(side.value) is int
                      for side in (node.left, node.right))):
            yield ops[type(node.op)](node.left.value, node.right.value)


def test_only_stochastic_states_the_seed_domain():
    # every other module takes the seed rule from stochastic instead of restating 2**64
    stating = {path.name for path in Path(ammlab.__file__).parent.glob("*.py")
               if 2**64 in _integers_in_code(ast.parse(path.read_text()))}
    assert stating <= {"stochastic.py"}


# the functions below the scale step: they build and trade unit-pool paths
_UNIT_POOL_CORE = {"harness": ("arbitrage", "simulate_price_matrix"),
                   "stochastic": ("prices_from_increments",)}


def test_only_the_scale_step_reads_p0_and_liquidity():
    # the kernel and the price build take neither; in analytics only to_pool
    # reads them, apart from the record's own check of its fields
    package = Path(ammlab.__file__).parent
    for module, names in _UNIT_POOL_CORE.items():
        defs = {node.name: node for node in ast.walk(ast.parse((package / f"{module}.py")
                                                               .read_text()))
                if isinstance(node, ast.FunctionDef)}
        for name in names:
            params = {a.arg for a in ast.walk(defs[name].args) if isinstance(a, ast.arg)}
            assert not params & {"p0", "liquidity"}, (module, name)
    readers = set()
    for node in ast.walk(ast.parse((package / "analytics.py").read_text())):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            for inner in ast.walk(node):
                if isinstance(inner, ast.Attribute) and inner.attr in ("p0", "liquidity"):
                    readers.add(node.name)
    assert readers - {"ILDistParams", "__post_init__"} == {"to_pool"}


def test_campaign_builds_no_seed_sequence_per_run(monkeypatch):
    # run seeds restate the hash; only make_generator, once per chunk, builds one
    built = []
    seed_sequence = np.random.SeedSequence

    def counting(*args, **kwargs):
        built.append(args)
        return seed_sequence(*args, **kwargs)

    config = ExperimentConfig(kind=GBM, p0=100.0, sigma=0.004, n_steps=10, liquidity=1e4,
                              n_runs=2000, seed=29, fee=0.002)
    monkeypatch.setattr(harness, "CHUNK_BYTES", 11 * 8 * 300)
    chunks = harness.plan_chunks(config.n_runs, config.n_steps)
    monkeypatch.setattr(np.random, "SeedSequence", counting)
    run_campaign(config)
    assert len(chunks) == 7 and 1 <= len(built) <= len(chunks)


def test_make_generator_reproducible():
    g1 = make_generator(2024)
    g2 = make_generator(2024)
    assert np.array_equal(g1.standard_normal(16), g2.standard_normal(16))


def test_final_price_spread_short_horizon():
    seeds = [derive_run_seed(40401, i) for i in range(40000)]
    block = simulate_price_matrix(ProcessKind.GBM, 0.001, 200, seeds)
    spread = block[-1].std(ddof=1)
    assert spread == pytest.approx(0.001 * np.sqrt(200.0), rel=0.02)


def test_short_horizon_processes_agree():
    # matched seeds: the additive and multiplicative rules stay within a
    # small KS distance while sigma^2 t is tiny
    seeds = [derive_run_seed(40402, i) for i in range(40000)]
    bm = simulate_price_matrix(ProcessKind.BM, 0.001, 200, seeds)[-1]
    gbm = simulate_price_matrix(ProcessKind.GBM, 0.001, 200, seeds)[-1]
    stat = scipy.stats.ks_2samp(bm, gbm).statistic
    assert stat < 0.02


def test_long_horizon_gbm_grows_right_skew():
    seeds = [derive_run_seed(40403, i) for i in range(40000)]
    bm = simulate_price_matrix(ProcessKind.BM, 0.015, 200, seeds)[-1]
    gbm = simulate_price_matrix(ProcessKind.GBM, 0.015, 200, seeds)[-1]
    skew_bm = scipy.stats.skew(bm)
    skew_gbm = scipy.stats.skew(gbm)
    stderr = np.sqrt(6.0 / 40000.0)
    assert skew_gbm > 0.0
    assert (skew_gbm - skew_bm) > 5.0 * np.hypot(stderr, stderr)


def test_bm_variance_grows_linearly():
    seeds = [derive_run_seed(40404, i) for i in range(40000)]
    block = simulate_price_matrix(ProcessKind.BM, 0.001, 200, seeds)
    steps = np.arange(25, 201, 25)
    variances = block[steps].var(axis=1, ddof=1)
    slope = np.polyfit(steps, variances, 1)[0]
    assert slope == pytest.approx(0.001**2, rel=0.05)
