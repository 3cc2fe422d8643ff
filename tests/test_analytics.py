"""Closed forms, the loss density, and the small sampling experiments."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from ammlab import (
    BarrierSpec,
    Branch,
    ILDistParams,
    ProcessKind,
    StepKind,
    analytic_il_mean,
    build_il_table,
    clt_sum_experiment,
    expected_il_gbm,
    expected_il_quadrature,
    expected_lvr,
    expected_lvr_gbm,
    first_passage,
    fit_loglog,
    gof_chi_square,
    il_pdf,
    invert_il,
    lvr_ode_rhs,
)
from ammlab.errors import NumericalError
from ammlab.cfmm import il_between

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


def test_expected_lvr_warns_in_long_regime():
    with pytest.warns(UserWarning, match="long-horizon"):
        expected_lvr(10000.0, 100.0, 0.05, 1000.0)


@pytest.mark.parametrize("bad", ["liquidity", "p0", "sigma", "t"])
def test_expected_lvr_rejects_nonpositive(bad):
    kwargs = dict(SHORT)
    kwargs[bad] = 0.0
    with pytest.raises(ValueError):
        expected_lvr(**kwargs)


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


def test_ode_rhs_hand_value_and_scalings():
    rate = lvr_ode_rhs(1000.0, 0.01, 100.0)
    assert rate == pytest.approx(2.5e-7, rel=1e-12)
    assert lvr_ode_rhs(2000.0, 0.01, 100.0) == pytest.approx(2 * rate)
    assert lvr_ode_rhs(1000.0, 0.02, 100.0) == pytest.approx(4 * rate)
    # p^(-5/2): quadrupling the price divides the rate by 32
    assert lvr_ode_rhs(1000.0, 0.01, 400.0) == pytest.approx(rate / 32.0)
    with pytest.raises(ValueError):
        lvr_ode_rhs(1000.0, 0.0, 100.0)


# ------------------------------------------------------------------- inversion


def test_invert_zero_loss_returns_entry_price():
    assert invert_il(100.0, 10000.0, 0.0, Branch.BELOW) == 100.0
    assert invert_il(100.0, 10000.0, 0.0, Branch.ABOVE) == 100.0


def test_invert_above_branch_hand_value():
    # il(100 -> 121) = L (sqrt(121) - 10)^2 / (10 * 121) = 1000 / 121
    il = 10000.0 * (11.0 - 10.0) ** 2 / (10.0 * 121.0)
    assert invert_il(100.0, 10000.0, il, Branch.ABOVE) == pytest.approx(121.0, rel=1e-12)
    below = invert_il(100.0, 10000.0, il, Branch.BELOW)
    assert below == pytest.approx(100.0 * 121.0 / 144.0, rel=1e-12)


@given(il=st.floats(min_value=1e-8, max_value=500.0))
def test_invert_below_branch_round_trip(il):
    price = invert_il(100.0, 10000.0, il, Branch.BELOW)
    assert price < 100.0
    assert il_between(10000.0, 100.0, price) == pytest.approx(il, rel=1e-10)


@given(il=st.floats(min_value=1e-8, max_value=990.0))
def test_invert_above_branch_round_trip(il):
    price = invert_il(100.0, 10000.0, il, Branch.ABOVE)
    assert price > 100.0
    assert il_between(10000.0, 100.0, price) == pytest.approx(il, rel=1e-10)


def test_invert_above_branch_domain_bound():
    # losses at or past L / sqrt(p0) have no price above the entry
    with pytest.raises(ValueError, match="above-branch bound"):
        invert_il(100.0, 10000.0, 1000.0, Branch.ABOVE)
    with pytest.raises(ValueError):
        invert_il(100.0, 10000.0, -1.0, Branch.BELOW)


# ---------------------------------------------------------------- loss density


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


@pytest.mark.parametrize("integral", [expected_il_quadrature, analytic_il_mean, build_il_table])
def test_additive_law_leaking_below_zero_is_refused(integral):
    # Phi(-1 / 0.3) = 4.29e-4 of the additive law lies below price zero
    leaky = ILDistParams(p0=100.0, liquidity=10000.0, sigma=0.3, t=1.0, process="bm")
    with pytest.raises(NumericalError, match="puts 0.000429 of its mass below zero"):
        integral(leaky)
    # the same sigma is fine under the multiplicative law, which has no mass there
    integral(ILDistParams(p0=100.0, liquidity=10000.0, sigma=0.3, t=1.0))


# ------------------------------------------------------------ table + sampling


def test_table_cdf_is_monotone_and_saturates():
    table = build_il_table(DIST)
    ils = np.geomspace(1e-8, 200.0, 400)
    cdf = table.cdf(ils)
    assert np.all(np.diff(cdf) >= 0.0)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-6)
    assert table.cdf(0.0) == 0.0
    # trapezoid mass can overshoot 1 by the rule's local error
    assert table.total == pytest.approx(1.0, abs=1e-4)


def test_table_mean_matches_quadrature():
    table = build_il_table(DIST)
    assert table.mean() == pytest.approx(analytic_il_mean(DIST), rel=2e-3)


def test_samples_are_deterministic_and_nonnegative():
    # a separate table per call, so the table build is checked as deterministic too
    a = build_il_table(DIST).sample(2000, seed=2024)
    b = build_il_table(DIST).sample(2000, seed=2024)
    np.testing.assert_array_equal(a, b)
    assert np.all(a >= 0.0)
    c = build_il_table(DIST).sample(2000, seed=2025)
    assert not np.array_equal(a, c)


def test_sample_mean_matches_analytic_mean():
    draws = build_il_table(DIST).sample(200000, seed=424242)
    stderr = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - analytic_il_mean(DIST)) < 3.0 * stderr


def test_samples_pass_ks_against_table_cdf():
    table = build_il_table(DIST)
    draws = table.sample(50000, seed=424242)
    result = scipy.stats.kstest(draws, table.cdf)
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
    draws = build_il_table(DIST).sample(200000, seed=3104)
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
