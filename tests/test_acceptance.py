"""End-to-end acceptance gate.

Ten numbered checks over full-size campaigns and the exact identity suite.
Each test prints one line, `criterion N: PASS` or `criterion N: FAIL` with
the violated clauses, and then asserts.  Seeds, sizes and tolerances are
pinned; the campaigns take tens of seconds in total.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from gof import gof_chi_square
from scalar_engine import Pool, rebalance_quantities, swap_to_price
from scipy.special import ndtr

from ammlab import (
    BarrierSpec,
    ExperimentConfig,
    Histogram,
    ILDistParams,
    ProcessKind,
    StepKind,
    TradeTarget,
    analytic_il_mean,
    arbitrage,
    clt_sum_experiment,
    expected_lvr,
    first_passage,
    fit_loglog,
    il_between,
    il_cdf,
    il_pdf,
    run_campaign,
    sweep_fee,
    sweep_volume_vs_sigma,
    sweep_volume_vs_steps,
)
from ammlab.analytics import _branch_prices


def _report(number: int, failures: list[str]) -> None:
    if failures:
        line = f"criterion {number}: FAIL: " + "; ".join(failures)
    else:
        line = f"criterion {number}: PASS"
    print(line)
    assert not failures, line


SHORT_CFG = ExperimentConfig(
    kind=ProcessKind.GBM,
    p0=100.0,
    sigma=0.001,
    n_steps=1000,
    liquidity=10000.0,
    n_runs=40000,
    seed=1301,
)


@pytest.fixture(scope="module")
def short_campaign():
    # shared by criteria 1 and 3
    return run_campaign(SHORT_CFG)


def test_criterion_01(short_campaign):
    """No-fee means: both losses sit on L sigma^2 T / (4 sqrt(p0)) and agree."""
    s = short_campaign.summary
    target = expected_lvr(10000.0, 100.0, 0.001, 1000.0)
    failures = []
    lvr_dev = abs(s["mean_lvr"] - target) / target
    if lvr_dev > 0.02:
        failures.append(f"mean lvr {s['mean_lvr']:.6f} is {lvr_dev:.2%} from {target}")
    il_dev = abs(s["mean_il"] - target) / target
    if il_dev > 0.02:
        failures.append(f"mean il {s['mean_il']:.6f} is {il_dev:.2%} from {target}")
    comb = math.hypot(s["stderr_il"], s["stderr_lvr"])
    gap = abs(s["mean_il"] - s["mean_lvr"])
    if gap >= 3.0 * comb:
        failures.append(f"|il - lvr| = {gap:.2e} >= 3 x combined stderr {comb:.2e}")
    _report(1, failures)


def test_criterion_02():
    """Absolute-volatility convention: additive walk reproduces 0.00125."""
    cfg = ExperimentConfig(
        kind=ProcessKind.BM,
        p0=100.0,
        sigma=1e-4,  # absolute sigma 0.01 at p0 = 100
        n_steps=5000,
        liquidity=1000.0,  # x0 = 100 at the entry price
        n_runs=20000,
        seed=1302,
    )
    s = run_campaign(cfg).summary
    target = 0.00125
    failures = []
    for name in ("mean_lvr", "mean_il"):
        dev = abs(s[name] - target) / target
        if dev > 0.03:
            failures.append(f"{name} {s[name]:.8f} is {dev:.2%} from {target}")
    _report(2, failures)


def test_criterion_03(short_campaign):
    """Endpoint-loss histogram matches the analytic density, including the
    1/sqrt(il) rise toward the origin."""
    il = short_campaign.column("il")
    params = ILDistParams(p0=100.0, liquidity=10000.0, sigma=0.001, t=1000.0)
    failures = []

    counts, edges = np.histogram(il, bins=50)
    stat, dof, pvalue = gof_chi_square(counts, edges, lambda x: il_cdf(x, params))
    if pvalue <= 0.01:
        failures.append(f"chi-square p = {pvalue:.4f} <= 0.01 (stat {stat:.1f}, dof {dof})")

    scale = params.scale
    log_edges = np.geomspace(1e-5 * scale, 1e-2 * scale, 13)
    small_counts, _ = np.histogram(il, bins=log_edges)
    density = small_counts / (il.size * np.diff(log_edges))
    centers = np.sqrt(log_edges[1:] * log_edges[:-1])
    mask = small_counts > 0
    slope, slope_err = fit_loglog(centers[mask], density[mask])
    if abs(slope + 0.5) > 0.05:
        failures.append(f"small-loss slope {slope:.4f} +- {slope_err:.4f} not in -0.5 +- 0.05")
    _report(3, failures)


def _il_skewness(params: ILDistParams) -> float:
    """Skewness of one endpoint-loss draw under the multiplicative law.

    il = (L / sqrt(p0)) (1 - Y)^2 with Y = sqrt(p0 / p) = e^(-X/2) and
    X = log(p / p0) ~ N(-s^2/2, s^2), s^2 = sigma^2 t, so the raw moments
    of il / (L / sqrt(p0)) expand binomially in E[Y^j] = exp(j s^2/4 + j^2 s^2/8).
    """
    s2 = params.sigma**2 * params.t
    y = [math.exp(j * s2 / 4.0 + j * j * s2 / 8.0) for j in range(7)]
    m1, m2, m3 = (sum(math.comb(2 * k, j) * (-1) ** j * y[j] for j in range(2 * k + 1))
                  for k in (1, 2, 3))
    var = m2 - m1 * m1
    return (m3 - 3.0 * m1 * m2 + 2.0 * m1**3) / var**1.5


def test_criterion_04():
    """Sums of many loss draws go Gaussian with the right mean."""
    params = ILDistParams(p0=100.0, liquidity=10000.0, sigma=0.1, t=1.0)
    n, m = 10000, 1000
    hist = clt_sum_experiment(params, n_per_sum=n, n_repeats=m, seed=1304)
    expected_mean = n * analytic_il_mean(params)
    stderr = math.sqrt(hist.variance / m)
    failures = []
    z = abs(hist.mean - expected_mean) / stderr
    if z >= 3.0:
        failures.append(
            f"sum mean {hist.mean:.2f} vs {expected_mean:.2f} is {z:.2f} stderr away"
        )
    # a sum of n draws keeps gamma1 / sqrt(n) of one draw's skewness; the
    # sample skewness of m sums scatters around it by this standard error
    expected_skew = _il_skewness(params) / math.sqrt(n)
    skew_tol = 3.0 * math.sqrt(6.0 * (m - 2) / ((m + 1) * (m + 3)))
    if abs(hist.skewness - expected_skew) >= skew_tol:
        failures.append(f"skewness {hist.skewness:.4f} is more than {skew_tol:.4f} "
                        f"from {expected_skew:.4f}")
    _report(4, failures)


def test_criterion_05():
    """Long horizon: the endpoint loss pulls away from the cumulative loss."""
    cfg = ExperimentConfig(
        kind=ProcessKind.GBM,
        p0=100.0,
        sigma=0.02,
        n_steps=1000,
        liquidity=10000.0,
        n_runs=10000,
        seed=1305,
    )
    result = run_campaign(cfg)
    s = result.summary
    failures = []
    comb = math.hypot(s["stderr_il"], s["stderr_lvr"])
    separation = (s["mean_il"] - s["mean_lvr"]) / comb
    if separation <= 5.0:
        failures.append(
            f"il - lvr separation {separation:.1f} combined stderr <= 5 "
            f"(il {s['mean_il']:.2f}, lvr {s['mean_lvr']:.2f})"
        )
    skew = Histogram.from_samples(result.column("lvr")).skewness
    if skew <= 0.2:
        failures.append(f"lvr skewness {skew:.3f} <= 0.2")
    _report(5, failures)


def test_criterion_06():
    """Volume scales like sigma at fixed steps and like sqrt(steps) at fixed
    total variance, while the cumulative loss stays put on the latter sweep."""
    base = ExperimentConfig(
        kind=ProcessKind.GBM,
        p0=100.0,
        sigma=0.001,
        n_steps=1000,
        liquidity=10000.0,
        n_runs=4000,
        seed=1306,
    )
    failures = []

    by_sigma = sweep_volume_vs_sigma(base, [0.0005, 0.001, 0.002, 0.004, 0.008])["fits"]
    if abs(by_sigma["volume_slope"] - 1.0) > 0.05:
        failures.append(f"volume-vs-sigma slope {by_sigma['volume_slope']:.4f} not in 1.0 +- 0.05")

    by_steps = sweep_volume_vs_steps(
        replace(base, seed=1316), [125, 250, 500, 1000], total_variance=0.001
    )["fits"]
    if abs(by_steps["volume_slope"] - 0.5) > 0.05:
        failures.append(f"volume-vs-steps slope {by_steps['volume_slope']:.4f} not in 0.5 +- 0.05")
    if by_steps["lvr_relative_spread"] >= 0.05:
        failures.append(
            f"lvr spread {by_steps['lvr_relative_spread']:.2%} >= 5% across the steps sweep"
        )
    _report(6, failures)


def test_criterion_07():
    """Absorbing barriers: k^2 and k exit-time laws with the right exponents."""
    failures = []
    ks = [3, 10, 30]
    sym_means, asym_means = [], []
    for i, k in enumerate(ks):
        sym = first_passage(BarrierSpec(-float(k), float(k), StepKind.UNIT), 20000, seed=1307 + 2 * i)
        asym = first_passage(BarrierSpec(-float(k), 1.0, StepKind.UNIT), 20000, seed=1307 + 2 * i + 1)
        sym_means.append(sym.mean_steps)
        asym_means.append(asym.mean_steps)
        z_sym = abs(sym.mean_steps - k * k) / sym.stderr
        if z_sym >= 3.0:
            failures.append(f"symmetric k={k}: mean {sym.mean_steps:.2f} is {z_sym:.1f} stderr from {k * k}")
        z_asym = abs(asym.mean_steps - k) / asym.stderr
        if z_asym >= 3.0:
            failures.append(f"asymmetric k={k}: mean {asym.mean_steps:.3f} is {z_asym:.1f} stderr from {k}")
    sym_exp, _ = fit_loglog(ks, sym_means)
    asym_exp, _ = fit_loglog(ks, asym_means)
    if abs(sym_exp - 2.0) > 0.1:
        failures.append(f"symmetric exponent {sym_exp:.3f} not in 2.0 +- 0.1")
    if abs(asym_exp - 1.0) > 0.1:
        failures.append(f"asymmetric exponent {asym_exp:.3f} not in 1.0 +- 0.1")
    _report(7, failures)


def test_criterion_08():
    """Fee regimes: loss is fee-independent while trades stay dense, and
    volume thins like 1/f once the band is many step-widths wide."""
    base = ExperimentConfig(
        kind=ProcessKind.GBM,
        p0=100.0,
        sigma=0.004,
        n_steps=1000,
        liquidity=10000.0,
        n_runs=5000,
        seed=1308,
    )
    ratios = [0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
    swept = sweep_fee(base, [r * base.sigma for r in ratios])
    failures = []

    shallow = [r for r in swept["rows"] if r["f_over_sigma"] <= 0.1]
    worst = max(abs(r["lvr_ratio"] - 1.0) for r in shallow)
    if worst > 0.10:
        failures.append(f"shallow-fee lvr deviates {worst:.2%} > 10% from the baseline")

    deep_slope = swept["fits"].get("deep_volume_slope")
    if deep_slope is None:
        failures.append("no deep-fee rows to fit the volume slope")
    elif abs(deep_slope + 1.0) > 0.15:
        failures.append(f"deep-fee volume slope {deep_slope:.4f} not in -1.0 +- 0.15")
    _report(8, failures)


def _band_edge_oracle(
    p0: float, sigma: float, n_steps: int, liquidity: float, fee: float
) -> tuple[float, float]:
    """Mean lvr drop against the fee-free run, and mean fees, under the
    band-edge (marginal) trade rule with the exact band.

    Let z = log(p_ref / p_amm) after each step's trade check.  The pool sits
    out while |z| <= gamma, gamma = -log(1 - f).  On a breakout the marginal
    rule parks the pool where the reference lies on the new band edge, so z
    resets to +gamma (upward) or -gamma (downward).  Between trades z moves
    by the log return, sigma * eps with eps standard normal (the GBM drift
    of -sigma^2/2 per step is 5e-4 step widths and enters only at second
    order).  So z is a Markov chain on [-gamma, gamma] that starts at 0.

    A trade from z' > gamma moves the pool log price by the overshoot
    u = z' - gamma.  Its loss is (L / sqrt(p)) (1 - e^(-u/2))^2 =
    L u^2 / (4 sqrt(p)) and its volume L u / (2 sqrt(p)), both up to a
    relative O(u) that cancels between the two breakout directions.  The
    fee-free run trades every step with u the full return, which gives
    L sigma^2 / (4 sqrt(p)) per step.  With a = (gamma - z) / sigma and
    Phi-bar, phi the normal tail and density, the overshoot moments from z
    are
        E[u^2; z' > gamma] = sigma^2 ((1 + a^2) Phi-bar(a) - a phi(a)),
        E[u;   z' > gamma] = sigma   (phi(a) - a Phi-bar(a)),
    and the mirror image with b = (gamma + z) / sigma for downward
    breakouts.  Summing them over the chain's law at each step, the common
    prefactor L / (4 sqrt(p)) cancels in the drop,
        drop = 1 - sum_k E[u_k^2] / (n sigma^2),
    and fees = f L / (2 sqrt(p0)) sum_k E[|u_k|].

    The chain's law is held as masses on 401 cells over [-gamma, gamma];
    a step spreads each cell by the normal law, and the mass that lands
    past an edge piles onto that edge, which is the reset.  The continuous
    law of Milionis, Moallemi & Roughgarden (arXiv 2305.14604), trade
    probability 1 / (1 + sqrt(2) f / sigma), is only an approximation at
    f ~ sigma; the chain is exact up to the small-overshoot terms above.
    """
    n_grid = 401
    gamma = -math.log1p(-fee)
    z = np.linspace(-gamma, gamma, n_grid)
    cuts = 0.5 * (z[1:] + z[:-1])
    step = np.diff(ndtr((cuts[None, :] - z[:, None]) / sigma), axis=1, prepend=0.0, append=1.0)

    def overshoot_moments(x):
        tail = ndtr(-x)
        dens = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        return np.column_stack(((1.0 + x * x) * tail - x * dens, dens - x * tail))

    per_cell = overshoot_moments((gamma - z) / sigma) + overshoot_moments((gamma + z) / sigma)
    law = np.zeros(n_grid)
    law[n_grid // 2] = 1.0
    totals = np.zeros(2)
    for _ in range(n_steps):
        totals += law @ per_cell
        law = law @ step
    drop = 1.0 - totals[0] / n_steps
    fees = fee * liquidity / (2.0 * math.sqrt(p0)) * sigma * totals[1]
    return float(drop), float(fees)


def test_criterion_09():
    """Under the band-edge (marginal) trade rule a small fee cuts the
    cumulative loss by what the band-edge oracle predicts while the endpoint
    loss barely moves; fees stay below the fee-free loss; and the share of
    runs with positive net markout is the endpoint-loss law's mass below
    the oracle's mean fees."""
    base = ExperimentConfig(
        kind=ProcessKind.GBM,
        p0=100.0,
        sigma=0.001,
        n_steps=1000,
        liquidity=10000.0,
        n_runs=10000,
        seed=1309,
    )
    baseline_run = run_campaign(base)
    baseline = baseline_run.summary
    fee_cfg = replace(base, fee=2e-4, target=TradeTarget.MARGINAL)
    result = run_campaign(fee_cfg)
    s = result.summary
    rule = fee_cfg.target.value
    failures = []

    oracle_drop, oracle_fees = _band_edge_oracle(
        base.p0, base.sigma, base.n_steps, base.liquidity, fee_cfg.fee
    )
    il_law = ILDistParams(p0=base.p0, liquidity=base.liquidity, sigma=base.sigma,
                          t=float(base.n_steps))
    # fees spread only a few percent around their mean, and the pool ends
    # within gamma of the reference, so il follows the fee-free law
    oracle_frac = il_cdf(oracle_fees, il_law)

    ratio = s["mean_lvr"] / baseline["mean_lvr"]
    drop = 1.0 - ratio
    paired = result.column("lvr") - ratio * baseline_run.column("lvr")
    drop_stderr = paired.std(ddof=1) / math.sqrt(base.n_runs) / baseline["mean_lvr"]
    # paired stderr of the ratio on shared seeds; 0.002 covers the oracle's
    # small-overshoot terms
    drop_tol = 3.0 * drop_stderr + 0.002
    if abs(drop - oracle_drop) > drop_tol:
        failures.append(
            f"{rule} rule: lvr dropped {drop:.2%}, band-edge oracle {oracle_drop:.2%}, "
            f"gap {abs(drop - oracle_drop):.2%} > {drop_tol:.2%}"
        )

    il_change = abs(s["mean_il"] / baseline["mean_il"] - 1.0)
    if il_change > 0.10:
        failures.append(f"il changed {il_change:.2%}, allowed <= 10%")

    if not s["mean_fees"] < baseline["mean_lvr"]:
        failures.append(
            f"fees {s['mean_fees']:.5f} not below fee-free lvr {baseline['mean_lvr']:.5f}"
        )
    if not s["mean_lvr"] - s["mean_fees"] > 0.0:
        failures.append(
            f"net loss after fees {s['mean_lvr'] - s['mean_fees']:.5f} not positive"
        )

    markout_frac = float(np.mean(result.column("il") - result.column("fees") < 0.0))
    frac_stderr = math.sqrt(oracle_frac * (1.0 - oracle_frac) / base.n_runs)
    frac_z = abs(markout_frac - oracle_frac) / frac_stderr
    if frac_z > 3.0:
        failures.append(
            f"{rule} rule: positive-markout fraction {markout_frac:.4f}, oracle "
            f"{oracle_frac:.4f} (il law at oracle fees {oracle_fees:.5f}), "
            f"{frac_z:.1f} binomial stderr > 3"
        )
    _report(9, failures)


def test_criterion_10():
    """Exact identities, no sampling anywhere."""
    failures = []
    liq, p0 = 10000.0, 100.0
    prices = np.geomspace(25.0, 400.0, 41)

    pool0 = Pool.from_price(liq, p0)
    worst_product = 0.0
    worst_swap = 0.0
    for p in prices:
        moved, _, _ = swap_to_price(pool0, float(p))
        worst_product = max(
            worst_product, abs(moved.reserve_x * moved.reserve_y - liq * liq) / (liq * liq)
        )
        back, _, _ = swap_to_price(moved, p0)
        worst_swap = max(
            worst_swap,
            abs(back.reserve_x - pool0.reserve_x) / pool0.reserve_x,
            abs(back.reserve_y - pool0.reserve_y) / pool0.reserve_y,
        )
    if worst_product > 1e-12:
        failures.append(f"pool product drifts by {worst_product:.2e} > 1e-12")
    if worst_swap > 1e-9:
        failures.append(f"round-trip swap misses the reserves by {worst_swap:.2e} > 1e-9")

    # the kernel on every two-point path of the grid, one path per column
    off_diagonal = ~np.eye(prices.size, dtype=bool)
    starts, ends = (g[off_diagonal] for g in np.meshgrid(prices, prices, indexing="ij"))
    one_step = arbitrage(np.stack([starts, ends]), liq)
    worst_step = float(np.max(np.abs(one_step[:, 1] - one_step[:, 0]) / one_step[:, 1]))
    worst_flow = 0.0
    for a, b in zip(starts, ends):
        step = il_between(liq, float(a), float(b))
        dy, dx_bar, dx = rebalance_quantities(liq, float(a), float(b))
        worst_flow = max(worst_flow, abs((dx - dx_bar) - step) / step)
    if worst_step > 1e-12:
        failures.append(f"per-step loss != endpoint loss by {worst_step:.2e} > 1e-12")
    if worst_flow > 1e-10:
        failures.append(f"token-flow gap != per-step loss by {worst_flow:.2e} > 1e-10")

    params = ILDistParams(p0=p0, liquidity=liq, sigma=0.1, t=1.0)
    ils = np.geomspace(1e-6, 900.0, 60)
    _, lows, highs = _branch_prices(ils, params)
    worst_invert = 0.0
    for il, low, high in zip(ils, lows, highs):
        worst_invert = max(worst_invert, abs(il_between(liq, p0, float(low)) - il) / il)
        worst_invert = max(worst_invert, abs(il_between(liq, p0, float(high)) - il) / il)
    if worst_invert > 1e-10:
        failures.append(f"loss inversion round-trip off by {worst_invert:.2e} > 1e-10")

    u = np.linspace(1e-9, 40.0, 300001)
    mass = float(np.trapezoid(2.0 * u * il_pdf(u * u, params), u))
    if abs(mass - 1.0) > 1e-4:
        failures.append(f"density mass {mass:.6f} misses 1 by more than 1e-4")
    _report(10, failures)
