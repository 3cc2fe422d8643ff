"""Closed forms, the loss density, and the small sampling experiments."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats
from gof import gof_chi_square
from hypothesis import given
from hypothesis import strategies as st

from ammlab import (
    BarrierSpec,
    ILDistParams,
    ProcessKind,
    StepKind,
    analytic_il_mean,
    clt_sum_experiment,
    expected_il_gbm,
    expected_il_quadrature,
    expected_lvr,
    expected_lvr_gbm,
    first_passage,
    fit_loglog,
    il_between,
    il_cdf,
    il_pdf,
    sample_il,
    to_pool,
)
from ammlab import analytics, cli
from ammlab.analytics import FirstPassageResult, _branch_prices
from ammlab.errors import ConfigError, NumericalError

# short-horizon reference point: L sigma^2 t / (4 sqrt(p0)) = 0.25
SHORT = dict(liquidity=10000.0, p0=100.0, sigma=0.001, t=1000.0)

# sampling reference point, sigma^2 t = 0.01
DIST = ILDistParams(p0=100.0, liquidity=10000.0, sigma=0.1, t=1.0)


# ---------------------------------------------------------------- closed forms


def test_expected_lvr_hand_value():
    assert expected_lvr(**SHORT) == pytest.approx(0.25, rel=1e-12)


def test_expected_lvr_absolute_volatility_convention():
    # sigma_abs = 0.01 at p0 = 100 is relative sigma 1e-4
    assert expected_lvr(1000.0, 100.0, 1e-4, 5000.0) == pytest.approx(0.00125, rel=1e-12)


def test_expected_lvr_scales_linearly_in_liquidity_and_time():
    base = expected_lvr(**SHORT)
    assert expected_lvr(20000.0, 100.0, 0.001, 1000.0) == pytest.approx(2 * base)
    assert expected_lvr(10000.0, 100.0, 0.001, 500.0) == pytest.approx(base / 2)


def test_expected_lvr_does_not_warn_in_long_regime():
    # sigma^2 t = 2.5: the regime label alone says where the long regime begins
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean = expected_lvr(10000.0, 100.0, 0.05, 1000.0)
    assert mean == pytest.approx(10000.0 * 0.05**2 * 1000.0 / 40.0, rel=1e-12)


@pytest.mark.parametrize("liquidity, sigma", [(10000.0, 1e160), (1e300, 1e5), (1e308, 10.0)],
                         ids=["sigma-squared", "liquidity-times-variance", "liquidity"])
def test_expected_lvr_refuses_a_mean_outside_the_double_range(liquidity, sigma):
    with pytest.raises(NumericalError, match="^the mean rebalancing loss leaves the double range"):
        expected_lvr(liquidity, 100.0, sigma, 1.0)


@pytest.mark.parametrize("bad", ["liquidity", "p0", "sigma", "t"])
def test_expected_lvr_rejects_nonpositive(bad):
    kwargs = dict(SHORT)
    kwargs[bad] = 0.0
    with pytest.raises(ValueError, match=f"^{bad} must be positive, got 0.0$"):
        expected_lvr(**kwargs)
    with pytest.raises(ValueError, match=f"^{bad} must be positive, got 0.0$"):
        expected_il_gbm(**kwargs)
    # the any-horizon rebalancing mean counts whole steps, not t
    n_steps = int(kwargs.pop("t"))
    name = "n_steps" if bad == "t" else bad
    with pytest.raises(ValueError, match=f"^{name} must be positive, got 0"):
        expected_lvr_gbm(**kwargs, n_steps=n_steps)


def test_quadrature_matches_short_horizon_closed_form():
    for process in (ProcessKind.BM, ProcessKind.GBM):
        params = ILDistParams(
            p0=100.0, liquidity=1000.0, sigma=1e-4, t=5000.0, process=process
        )
        assert expected_il_quadrature(params) == pytest.approx(0.00125, rel=5e-3)


def test_quadrature_grows_with_horizon():
    values = [
        expected_il_quadrature(ILDistParams(p0=100.0, liquidity=10000.0, sigma=0.02, t=t))
        for t in (100.0, 400.0, 1600.0)
    ]
    assert values[0] < values[1] < values[2]


def test_endpoint_loss_closed_form_reduces_to_short_horizon():
    short = expected_il_gbm(10000.0, 100.0, 0.001, 100.0)
    assert short == pytest.approx(expected_lvr(10000.0, 100.0, 0.001, 100.0), rel=1e-3)


def test_endpoint_loss_closed_form_long_horizon():
    # (L / sqrt(p0)) (1 - 2 e^(3s/8) + e^s) with s = 0.4
    s = 0.02**2 * 1000.0
    by_hand = 10000.0 / 10.0 * (1.0 - 2.0 * math.exp(0.375 * s) + math.exp(s))
    value = expected_il_gbm(10000.0, 100.0, 0.02, 1000.0)
    assert value == pytest.approx(by_hand, rel=1e-12)
    assert value == pytest.approx(168.157, rel=1e-4)


def test_endpoint_loss_closed_form_matches_quadrature():
    params = ILDistParams(p0=100.0, liquidity=10000.0, sigma=0.02, t=1000.0)
    quad_value = expected_il_quadrature(params)
    assert expected_il_gbm(10000.0, 100.0, 0.02, 1000.0) == pytest.approx(
        quad_value, rel=1e-5
    )


def test_cumulative_loss_closed_form_long_horizon():
    # geometric sum of per-step means, r = 3 sigma^2 / 8
    sigma, n = 0.02, 1000
    r = 0.375 * sigma**2
    by_hand = 10000.0 * sigma**2 / 40.0 * math.expm1(r * n) / math.expm1(r)
    value = expected_lvr_gbm(10000.0, 100.0, sigma, n)
    assert value == pytest.approx(by_hand, rel=1e-12)
    assert value == pytest.approx(107.881, rel=1e-4)


def test_cumulative_loss_reduces_to_short_horizon():
    value = expected_lvr_gbm(10000.0, 100.0, 0.001, 1000)
    assert value == pytest.approx(0.25, rel=1e-3)


def test_long_horizon_means_separate():
    # the endpoint loss outruns the cumulative rebalancing loss
    il = expected_il_gbm(10000.0, 100.0, 0.02, 1000.0)
    lvr = expected_lvr_gbm(10000.0, 100.0, 0.02, 1000)
    assert il > 1.5 * lvr


# ------------------------------------------------------------------- inversion


def _invert(il):
    """The (below, above) entry prices of one loss at DIST: _branch_prices' unit-pool
    prices of the unit loss, times p0."""
    _, below, above = _branch_prices(to_pool(DIST, np.array([il]), inverse=True))
    return DIST.p0 * float(below[0]), DIST.p0 * float(above[0])


def test_invert_zero_loss_returns_entry_price():
    assert _invert(0.0) == (100.0, 100.0)


def test_invert_above_branch_hand_value():
    # il(100 -> 121) = L (sqrt(121) - 10)^2 / (10 * 121) = 1000 / 121
    il = 10000.0 * (11.0 - 10.0) ** 2 / (10.0 * 121.0)
    below, above = _invert(il)
    assert above == pytest.approx(121.0, rel=1e-12)
    assert below == pytest.approx(100.0 * 121.0 / 144.0, rel=1e-12)


@given(il=st.floats(min_value=1e-8, max_value=500.0))
def test_invert_below_branch_round_trip(il):
    price, _ = _invert(il)
    assert price < 100.0
    assert il_between(10000.0, 100.0, price) == pytest.approx(il, rel=1e-10)


@given(il=st.floats(min_value=1e-8, max_value=990.0))
def test_invert_above_branch_round_trip(il):
    _, price = _invert(il)
    assert price > 100.0
    assert il_between(10000.0, 100.0, price) == pytest.approx(il, rel=1e-10)


def test_invert_above_branch_domain_bound():
    # losses at or past L / sqrt(p0) have no price above the entry
    assert _invert(1000.0)[1] == math.inf
    assert _invert(2000.0)[1] == math.inf
    # the laws refuse a negative loss before inverting it
    with pytest.raises(ValueError):
        il_pdf(-1.0, DIST)


# ---------------------------------------------------------------- loss density


def test_the_loss_law_at_a_far_p0_is_the_near_law_at_the_scaled_loss():
    # both are the unit law at il / (L / sqrt(p0)); the density carries one more 1 / scale
    far = replace(DIST, p0=1e250)
    ratio = math.sqrt(DIST.p0 / far.p0)  # far's L / sqrt(p0) over DIST's
    ils = np.geomspace(1e-6, 990.0, 50)  # losses at DIST, up to near the above branch end, 1000
    np.testing.assert_allclose(il_cdf(ils * ratio, far), il_cdf(ils, DIST), rtol=1e-12)
    np.testing.assert_allclose(il_pdf(ils * ratio, far) * ratio, il_pdf(ils, DIST), rtol=1e-12)



def test_density_rejects_nonpositive_loss():
    with pytest.raises(ValueError):
        il_pdf(0.0, DIST)
    with pytest.raises(ValueError):
        il_pdf(np.array([1.0, -2.0]), DIST)


def test_density_normalizes_to_one():
    # integrate in u = sqrt(il): the 1/sqrt spike becomes a finite endpoint
    u = np.linspace(1e-9, 40.0, 300001)
    mass = np.trapezoid(2.0 * u * il_pdf(u * u, DIST), u)
    assert mass == pytest.approx(1.0, abs=1e-4)


def test_density_mean_matches_short_horizon_closed_form():
    params = ILDistParams(p0=100.0, liquidity=10000.0, sigma=0.02, t=1.0)
    scale = expected_lvr(10000.0, 100.0, 0.02, 1.0)
    assert analytic_il_mean(params) == pytest.approx(scale, rel=1e-2)


def test_density_small_loss_power_law():
    scale = DIST.scale
    grid = np.geomspace(1e-8 * scale, 1e-5 * scale, 25)
    slope, stderr = fit_loglog(grid, il_pdf(grid, DIST))
    assert slope == pytest.approx(-0.5, abs=0.02)
    assert stderr < 0.01


def test_fit_loglog_names_the_first_nonpositive_value():
    with pytest.raises(NumericalError, match="needs positive values, got 0.0"):
        fit_loglog([1.0, 2.0, 3.0], [1.0, 0.0, -1.0])
    with pytest.raises(NumericalError, match="needs positive values, got nan"):
        fit_loglog([1.0, float("nan")], [1.0, 2.0])


def test_density_mean_frozen_value_and_route_agreement():
    mean = analytic_il_mean(DIST)
    assert mean == pytest.approx(2.536087, rel=1e-5)
    # density route vs direct price-density quadrature
    assert mean == pytest.approx(expected_il_quadrature(DIST), rel=2e-4)
    assert mean == pytest.approx(expected_il_gbm(10000.0, 100.0, 0.1, 1.0), rel=2e-4)


def test_density_additive_process_normalizes():
    params = ILDistParams(p0=100.0, liquidity=10000.0, sigma=0.01, t=4.0, process=ProcessKind.BM)
    u = np.linspace(1e-9, 10.0, 200001)
    mass = np.trapezoid(2.0 * u * il_pdf(u * u, params), u)
    assert mass == pytest.approx(1.0, abs=1e-4)


def test_dist_params_validation():
    with pytest.raises(ValueError):
        ILDistParams(p0=0.0, liquidity=1.0, sigma=0.1, t=1.0)
    with pytest.raises(ValueError):
        ILDistParams(p0=1.0, liquidity=1.0, sigma=0.0, t=1.0)
    with pytest.raises(ValueError):
        ILDistParams(p0=1.0, liquidity=1.0, sigma=0.1, t=-1.0)


def test_dist_params_read_the_process_from_its_string():
    from_string = ILDistParams(p0=100.0, liquidity=10000.0, sigma=0.1, t=1.0, process="bm")
    assert from_string.process is ProcessKind.BM
    from_enum = ILDistParams(p0=100.0, liquidity=10000.0, sigma=0.1, t=1.0,
                             process=ProcessKind.BM)
    assert analytic_il_mean(from_string) == analytic_il_mean(from_enum)
    assert analytic_il_mean(from_string) != analytic_il_mean(DIST)
    with pytest.raises(ValueError):
        ILDistParams(p0=100.0, liquidity=10000.0, sigma=0.1, t=1.0, process="brownian")


@pytest.mark.parametrize("integral", [
    expected_il_quadrature,
    analytic_il_mean,
    lambda params: il_cdf(1.0, params),
    lambda params: sample_il(params, 10, seed=1),
], ids=["expected_il_quadrature", "analytic_il_mean", "il_cdf", "sample_il"])
def test_additive_law_leaking_below_zero_is_refused(integral):
    # Phi(-1 / 0.3) = 4.29e-4 of the additive law lies below price zero
    leaky = ILDistParams(p0=100.0, liquidity=10000.0, sigma=0.3, t=1.0, process="bm")
    with pytest.raises(NumericalError, match="puts 0.000429 of its mass below zero"):
        integral(leaky)
    # the same sigma is fine under the multiplicative law, which has no mass there
    integral(ILDistParams(p0=100.0, liquidity=10000.0, sigma=0.3, t=1.0))


# ---------------------------------------------------------- cdf + sampling


def test_cdf_is_monotone_and_saturates():
    ils = np.geomspace(1e-8, 200.0, 400)
    cdf = il_cdf(ils, DIST)
    assert np.all(np.diff(cdf) >= 0.0)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-6)
    assert il_cdf(0.0, DIST) == 0.0


@pytest.mark.parametrize("params", [
    ILDistParams(p0=100.0, liquidity=10000.0, sigma=2.0, t=1.0),
    ILDistParams(p0=100.0, liquidity=10000.0, sigma=0.15, t=1.0, process="bm"),
], ids=["gbm", "bm"])
def test_density_integrates_to_the_cdf(params):
    # integrate in u = sqrt(il), where the 1/sqrt(il) spike at the origin
    # becomes a finite endpoint; L / sqrt(p0) = 1000 ends the above branch
    from scipy.integrate import quad

    for a, b in [(0.0, 1e-4), (1e-4, 1.0), (1.0, 50.0), (900.0, 1100.0), (1100.0, 4000.0)]:
        mass, _ = quad(lambda u: 2.0 * u * il_pdf(u * u, params), math.sqrt(a), math.sqrt(b),
                       points=[math.sqrt(1000.0)] if a < 1000.0 < b else None,
                       epsabs=1e-13, epsrel=1e-10, limit=200)
        assert mass == pytest.approx(il_cdf(b, params) - il_cdf(a, params), abs=1e-8), (a, b)


def test_samples_are_deterministic_and_nonnegative():
    a = sample_il(DIST, 2000, seed=2024)
    b = sample_il(DIST, 2000, seed=2024)
    np.testing.assert_array_equal(a, b)
    assert np.all(a >= 0.0)
    c = sample_il(DIST, 2000, seed=2025)
    assert not np.array_equal(a, c)


def test_draw_i_does_not_depend_on_the_draw_count():
    np.testing.assert_array_equal(sample_il(DIST, 3000, seed=2024)[:700],
                                  sample_il(DIST, 700, seed=2024))


def test_extreme_words_draw_finite_losses(monkeypatch):
    # the smallest and largest word of the stream must map to finite normal
    # quantiles, also where the additive law is truncated at zero price
    class ExtremeWords:
        def integers(self, low, high, size):
            return np.resize(np.array([low, high - 1], dtype=np.int64), size)

    monkeypatch.setattr(analytics, "make_generator", lambda seed: ExtremeWords())
    for params in (DIST, ILDistParams(p0=100.0, liquidity=10000.0, sigma=0.16, t=1.0,
                                      process="bm")):
        draws = sample_il(params, 2, seed=0)
        assert np.all(np.isfinite(draws)) and np.all(draws > 0.0), params


def test_sample_mean_matches_analytic_mean():
    draws = sample_il(DIST, 200000, seed=424242)
    stderr = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - analytic_il_mean(DIST)) < 3.0 * stderr


def test_samples_pass_ks_against_the_cdf():
    draws = sample_il(DIST, 50000, seed=424242)
    result = scipy.stats.kstest(draws, lambda il: il_cdf(il, DIST))
    assert result.pvalue > 0.01


# ------------------------------------------------------------------- CLT study


def test_single_draw_distribution_is_strongly_skewed():
    hist = clt_sum_experiment(DIST, n_per_sum=1, n_repeats=40000, seed=3101)
    assert hist.skewness > 1.5
    assert hist.mean == pytest.approx(analytic_il_mean(DIST), rel=0.02)


def test_sums_pull_toward_symmetry():
    single = clt_sum_experiment(DIST, n_per_sum=1, n_repeats=40000, seed=3102)
    summed = clt_sum_experiment(DIST, n_per_sum=64, n_repeats=5000, seed=3103)
    assert abs(summed.skewness) < single.skewness / 4.0


def test_sum_variance_is_additive():
    draws = sample_il(DIST, 200000, seed=3104)
    var1 = draws.var(ddof=1)
    summed = clt_sum_experiment(DIST, n_per_sum=16, n_repeats=5000, seed=3105)
    assert summed.variance == pytest.approx(16.0 * var1, rel=0.05)


def test_clt_experiment_validation():
    with pytest.raises(ValueError):
        clt_sum_experiment(DIST, n_per_sum=0, n_repeats=10, seed=1)
    with pytest.raises(ValueError):
        clt_sum_experiment(DIST, n_per_sum=10, n_repeats=0, seed=1)


# --------------------------------------------------------------- first passage


def test_symmetric_ruin_mean_and_split():
    spec = BarrierSpec(lower=-10.0, upper=10.0)
    result = first_passage(spec, n_walks=20000, seed=4101)
    assert abs(result.mean_steps - 100.0) < 3.0 * result.stderr
    assert result.frac_lower == pytest.approx(0.5, abs=0.02)


def test_asymmetric_ruin_mean_and_split():
    # barriers (-3, +1): mean exit 3, lower barrier hit w.p. 1/4
    spec = BarrierSpec(lower=-3.0, upper=1.0)
    result = first_passage(spec, n_walks=20000, seed=4102)
    assert abs(result.mean_steps - 3.0) < 3.0 * result.stderr
    assert result.frac_lower == pytest.approx(0.25, abs=0.02)


def test_gaussian_steps_overshoot_inflates_exit_time():
    spec = BarrierSpec(lower=-5.0, upper=5.0, step_kind=StepKind.GAUSSIAN)
    result = first_passage(spec, n_walks=4000, seed=4103)
    # continuum value is 25; discrete overshoot adds a little
    assert 24.0 < result.mean_steps < 34.0
    assert result.frac_lower == pytest.approx(0.5, abs=0.03)


def test_barrier_validation():
    with pytest.raises(ValueError):
        BarrierSpec(lower=0.0, upper=1.0)
    with pytest.raises(ValueError):
        BarrierSpec(lower=-1.0, upper=-0.5)
    with pytest.raises(ValueError):
        first_passage(BarrierSpec(lower=-1.0, upper=1.0), n_walks=0, seed=1)
    with pytest.raises(ValueError):
        BarrierSpec(lower=-1.0, upper=1.0, step_kind="coin")


# at this many walks the step budget admits a mean exit time of at most 1e4 steps
_EDGE_WALKS = cli.STEP_BUDGET // 10**4 - cli._PASS_WALKS


def _walk_barriers(monkeypatch, tmp_path, lower, upper):
    """Exit code of first-passage between the barriers at _EDGE_WALKS, and its walk calls."""
    calls = []

    def spy(spec, n_walks, seed):
        calls.append(spec)
        return FirstPassageResult(1.0, 0.0, 0.5, n_walks)

    monkeypatch.setattr(cli, "first_passage", spy)
    rc = cli.main(["analytic", "first-passage", "--k-list=", f"--lower={lower!r}",
                   f"--upper={upper!r}", "--n-walks", str(_EDGE_WALKS), "--step-kind", "gaussian",
                   "--out", str(tmp_path / "x")])
    return rc, calls


@pytest.mark.parametrize("lower, upper", [
    (-100.0, 100.0), (-10000.0, 1.0), (-0.5, 10000.0),
], ids=["symmetric", "asymmetric", "fractional-lower"])
def test_barriers_at_the_walk_limit_are_accepted(monkeypatch, tmp_path, lower, upper):
    # ceil(-lower) * ceil(upper) is 10000 in each, so the walks take the whole step budget
    assert (_EDGE_WALKS + cli._PASS_WALKS) * 10**4 == cli.STEP_BUDGET
    rc, calls = _walk_barriers(monkeypatch, tmp_path, lower, upper)
    assert rc == 0
    assert calls == [BarrierSpec(lower, upper, StepKind.GAUSSIAN)]


@pytest.mark.parametrize("lower, upper, code", [
    (-101.0, 100.0, 3),
    (-100.5, 100.0, 3),  # a unit walk's lower barrier is the integer below it
    (-1e6, 1e-6, 3),
    (-math.inf, 1.0, 2),  # the command line takes finite numbers only
    (-1e300, 1e300, 3),
], ids=["over-by-one", "fractional", "hair-upper", "infinite", "product-overflows"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_barriers_past_the_walk_limit_are_refused(monkeypatch, tmp_path, capsys, lower, upper,
                                                  code):
    rc, calls = _walk_barriers(monkeypatch, tmp_path, lower, upper)
    assert (rc, calls) == (code, [])
    assert capsys.readouterr().err.count("\n") == 1
    # a library caller cannot walk forever either: the barriers must be finite
    if not math.isfinite(lower):
        with pytest.raises(ConfigError, match="need finite lower < 0 < upper, got -inf, 1"):
            BarrierSpec(lower, upper)


def test_barrier_spec_reads_the_step_kind_from_its_string():
    # unit steps between -3 and 3 exit after exactly 3 * 3 = 9 steps on
    # average; Gaussian steps would take about 13
    spec = BarrierSpec(-3.0, 3.0, "unit")
    assert spec.step_kind is StepKind.UNIT
    result = first_passage(spec, n_walks=20000, seed=4104)
    assert abs(result.mean_steps - 9.0) < 3.0 * result.stderr


# -------------------------------------------------------------- goodness of fit


def test_chi_square_accepts_the_true_distribution(rng):
    draws = rng.standard_normal(20000)
    counts, edges = np.histogram(draws, bins=40, range=(-4.0, 4.0))
    stat, dof, pvalue = gof_chi_square(counts, edges, scipy.stats.norm.cdf)
    assert dof >= 10
    assert pvalue > 0.01


def test_chi_square_rejects_a_shifted_distribution(rng):
    draws = rng.standard_normal(20000)
    counts, edges = np.histogram(draws, bins=40, range=(-4.0, 4.0))
    shifted = scipy.stats.norm(loc=0.5).cdf
    stat, dof, pvalue = gof_chi_square(counts, edges, shifted)
    assert pvalue < 1e-6


def test_chi_square_merges_sparse_tail_bins(rng):
    draws = rng.standard_normal(5000)
    # edges far into the tails force expected counts below the floor
    counts, edges = np.histogram(draws, bins=60, range=(-8.0, 8.0))
    stat, dof, pvalue = gof_chi_square(counts, edges, scipy.stats.norm.cdf)
    assert dof < 59
    assert np.isfinite(stat)


def test_chi_square_validation():
    with pytest.raises(ValueError):
        gof_chi_square([1.0, 2.0], [0.0, 1.0], scipy.stats.norm.cdf)
    with pytest.raises(ValueError):
        gof_chi_square([0.0, 0.0], [0.0, 0.5, 1.0], scipy.stats.norm.cdf)
