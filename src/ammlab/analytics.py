"""Closed forms and semi-analytic machinery for the loss metrics.

Central results wired up here, all in token-x units with one time unit per
step:

  * mean rebalancing loss in the intermediate regime,
    <LVR(t)> = L sigma^2 t / (4 sqrt(p0)),
  * the exact density of the endpoint loss induced by a price density
    rho(p, t), obtained by inverting il(p0, p) on the two price branches
    and adding the Jacobian-weighted pullbacks; it diverges like
    1 / sqrt(il) at the origin and the branch from prices above entry
    cuts off at il = L / sqrt(p0),
  * quadrature, tabulated-quantile sampling and a summation experiment on
    that density,
  * first-passage statistics of random walks between two absorbing
    barriers, the building block for waiting times between arbitrages.
"""

from __future__ import annotations

# scipy is imported inside the functions that integrate, tabulate or run a
# chi-square test: it takes over a second to load, and `simulate` and
# `sweep` import this module without calling any of them.

import warnings
from dataclasses import dataclass
from enum import Enum
from math import erfc, exp, expm1, inf, isfinite, sqrt
from typing import TYPE_CHECKING

import numpy as np

from .cfmm import il_between
from .errors import ConfigError, NumericalError
from .stats import Histogram, mean_stderr
from .stochastic import ProcessKind, make_generator, pdf_bm, pdf_gbm

if TYPE_CHECKING:
    from scipy.interpolate import PchipInterpolator

__all__ = [
    "ILDistParams",
    "Branch",
    "StepKind",
    "BarrierSpec",
    "FirstPassageResult",
    "IlTable",
    "expected_lvr",
    "expected_lvr_gbm",
    "expected_il_gbm",
    "expected_il_quadrature",
    "invert_il",
    "il_pdf",
    "build_il_table",
    "analytic_il_mean",
    "clt_sum_experiment",
    "first_passage",
    "lvr_ode_rhs",
    "gof_chi_square",
]


class Branch(Enum):
    """Which price branch an endpoint-loss value is inverted onto."""

    BELOW = "below"
    ABOVE = "above"


@dataclass(frozen=True)
class ILDistParams:
    """Inputs of the endpoint-loss distribution at horizon t.

    process also accepts its string value, so the record round trips
    through dataclasses.asdict and JSON.
    """

    p0: float
    liquidity: float
    sigma: float
    t: float
    process: ProcessKind = ProcessKind.GBM

    def __post_init__(self) -> None:
        object.__setattr__(self, "process", ProcessKind(self.process))
        if self.p0 <= 0.0 or self.liquidity <= 0.0:
            raise ConfigError("p0 and liquidity must be positive")
        if self.sigma <= 0.0 or self.t <= 0.0:
            raise ConfigError("sigma and t must be positive")

    @property
    def scale(self) -> float:
        """The closed-form mean L sigma^2 t / (4 sqrt(p0)), a natural unit."""
        return self.liquidity * self.sigma**2 * self.t / (4.0 * sqrt(self.p0))


# Largest share of the additive law's mass below price zero that the
# quadratures and the table may ignore: 1e-9 is their relative tolerance
# (epsrel), so a smaller leak is lost in their own error.
LEAK_TOLERANCE = 1e-9

# largest u = sqrt(il) whose cube, in the loss-mean integrand, is still a double
_U_LIMIT = float(np.finfo(float).max) ** (1.0 / 3.0)
_N_KNOTS = 4096


def _check_law(params: ILDistParams) -> None:
    """Refuse a price law the loss integrals cannot carry.

    An additive law may put at most LEAK_TOLERANCE of its mass below price
    zero; a multiplicative law must keep its price 14 deviations below entry,
    the quadrature's lower limit, positive.  _u_max bounds the loss range.
    """
    sst = params.sigma * sqrt(params.t)
    if params.process is ProcessKind.BM:
        leak = 0.5 * erfc(1.0 / (sst * sqrt(2.0)))
        if leak > LEAK_TOLERANCE:
            raise NumericalError(
                f"the additive price law puts {leak:.3g} of its mass below zero "
                f"(sigma sqrt(t) = {sst:.3g}), over the "
                f"{LEAK_TOLERANCE:g} the loss integrals can absorb"
            )
    elif not _price_at(params, -14.0) > 0.0:
        raise NumericalError(f"the price law at sigma sqrt(t) = {sst:.3g} reaches prices "
                             "outside the double range within 14 standard deviations of entry")


def _price_density(params: ILDistParams):
    if params.process is ProcessKind.BM:
        return lambda p: pdf_bm(p, params.p0, params.sigma, params.t)
    return lambda p: pdf_gbm(p, params.p0, params.sigma, params.t)


def _price_at(params: ILDistParams, z: float) -> float:
    """Price at the standardized endpoint z, with s = sigma sqrt(t).

    p0 (1 + s z) for the additive law, p0 exp(-s^2 / 2 + s z) for the
    multiplicative one.
    """
    sst = params.sigma * sqrt(params.t)
    if params.process is ProcessKind.BM:
        return params.p0 * (1.0 + sst * z)
    return params.p0 * exp(-0.5 * sst * sst + sst * z)


def _check_positive_inputs(liquidity: float, p0: float, sigma: float, t: float) -> None:
    if liquidity <= 0.0 or p0 <= 0.0 or sigma <= 0.0 or t <= 0.0:
        raise ConfigError("all inputs must be positive")


def expected_lvr(liquidity: float, p0: float, sigma: float, t: float) -> float:
    """Mean rebalancing loss L sigma^2 t / (4 sqrt(p0)).

    Exact in the short-horizon limit and accurate through the intermediate
    regime; warns once sigma^2 t reaches 1 where the price level spreads
    enough for the running prefactor to matter.
    """
    _check_positive_inputs(liquidity, p0, sigma, t)
    s2t = sigma * sigma * t
    if s2t >= 1.0:
        warnings.warn(
            f"sigma^2 * t = {s2t:.3g} is in the long-horizon regime; "
            "the closed form underestimates the mean there",
            stacklevel=2,
        )
    return liquidity * s2t / (4.0 * sqrt(p0))


def expected_il_gbm(liquidity: float, p0: float, sigma: float, t: float) -> float:
    """Mean endpoint loss under the multiplicative process at any horizon.

    Propagating the moments of the final price through the loss formula
    gives (L / sqrt(p0)) (1 - 2 e^(3 s/8) + e^s) with s = sigma^2 t: the
    mean of 1/sqrt(p) grows like e^(3 s/8) and that of 1/p like e^s.  The
    per-step moments of the discrete multiplicative Gaussian match these
    exponentials to O(sigma^4) per step, well below sampling noise at desk
    volatilities.  Reduces to L sigma^2 t / (4 sqrt(p0)) as s -> 0.
    """
    _check_positive_inputs(liquidity, p0, sigma, t)
    s = sigma * sigma * t
    return liquidity / sqrt(p0) * (1.0 - 2.0 * exp(0.375 * s) + exp(s))


def expected_lvr_gbm(liquidity: float, p0: float, sigma: float, n_steps: int) -> float:
    """Mean cumulative rebalancing loss over n_steps, multiplicative process.

    Sums the per-step mean (L sigma^2 / 4) E[p^(-1/2)] with
    E[p^(-1/2)] = p0^(-1/2) e^(3 sigma^2 k / 8) at step k, a geometric
    series.  Unlike the endpoint loss this keeps growing with the horizon
    only through the slowly drifting prefactor, which is why the two means
    split in the long regime.
    """
    _check_positive_inputs(liquidity, p0, sigma, float(n_steps))
    r = 0.375 * sigma * sigma
    try:
        mean = liquidity * sigma * sigma / (4.0 * sqrt(p0)) * (expm1(r * n_steps) / expm1(r))
    except OverflowError:
        mean = inf
    if not isfinite(mean):
        raise NumericalError(f"the mean rebalancing loss leaves the double range "
                             f"(3 sigma^2 n_steps / 8 = {r * n_steps:.3g})")
    return mean


def expected_il_quadrature(params: ILDistParams) -> float:
    """Mean endpoint loss by direct quadrature against the price density.

    Integrates il(p0, p) rho(p, t) dp in a standardized variable.  For the
    additive process the lower limit is the zero-price cutoff of the
    Gaussian; for the multiplicative process the log-price is integrated
    over +-14 standard deviations.
    """
    from scipy.integrate import quad

    _check_law(params)
    p0, liq = params.p0, params.liquidity
    norm = 1.0 / sqrt(2.0 * np.pi)

    def integrand(z: float) -> float:
        return il_between(liq, p0, _price_at(params, z)) * norm * exp(-0.5 * z * z)

    if params.process is ProcessKind.BM:
        z_cut = 1.0 / (params.sigma * sqrt(params.t))
        lo, hi = -min(10.0, z_cut * (1.0 - 1e-12)), 10.0
    else:
        lo, hi = -14.0, 14.0
    value, abserr = quad(integrand, lo, hi, limit=200, points=[0.0], epsabs=0.0, epsrel=1e-9)
    if not np.isfinite(value) or abserr > max(1e-13, 1e-6 * abs(value)):
        raise NumericalError(f"loss quadrature did not converge (error estimate {abserr:g})")
    return value


def invert_il(p0: float, liquidity: float, il: float, branch: Branch) -> float:
    """Price that produces the given endpoint loss on the chosen branch.

    The below branch maps onto prices under p0 and covers every il >= 0;
    the above branch requires il < L / sqrt(p0).
    """
    if p0 <= 0.0 or liquidity <= 0.0:
        raise ValueError("p0 and liquidity must be positive")
    if il < 0.0:
        raise ValueError(f"il must be nonnegative, got {il}")
    if il == 0.0:
        return p0
    q = p0**0.25 * sqrt(il / liquidity)
    if branch is Branch.BELOW:
        return p0 / (1.0 + q) ** 2
    if q >= 1.0:
        raise ValueError(
            f"il = {il} reaches the above-branch bound L / sqrt(p0) = {liquidity / sqrt(p0)}"
        )
    return p0 / (1.0 - q) ** 2


def il_pdf(il, params: ILDistParams):
    """Density of the endpoint loss induced by the price density.

    Sum of the Jacobian-weighted price density over both inversion
    branches; the above-entry branch contributes only while
    il < L / sqrt(p0).  Diverges like 1 / sqrt(il) at the origin, which is
    integrable.
    """
    arr = np.atleast_1d(np.asarray(il, dtype=float))
    if np.any(arr <= 0.0):
        raise ValueError("il must be positive")
    p0, liq = params.p0, params.liquidity
    rho = _price_density(params)
    q = p0**0.25 * np.sqrt(arr / liq)
    pref = p0**1.25 / np.sqrt(arr * liq)
    below = p0 / (1.0 + q) ** 2
    out = pref * np.asarray(rho(below)) / (1.0 + q) ** 3
    mask = q < 1.0
    if np.any(mask):
        qa = q[mask]
        above = p0 / (1.0 - qa) ** 2
        out[mask] = out[mask] + pref[mask] * np.asarray(rho(above)) / (1.0 - qa) ** 3
    if np.isscalar(il) or np.asarray(il).ndim == 0:
        return float(out[0])
    return out


def _density_at_origin(params: ILDistParams) -> float:
    # limit of 2 u * pdf(u^2) as u -> 0: both branches collapse onto p0
    rho = _price_density(params)
    return 4.0 * params.p0**1.25 / sqrt(params.liquidity) * rho(params.p0)


def _u_max(params: ILDistParams) -> float:
    """sqrt of the larger loss at the prices 12 standard deviations either side of entry."""
    lo = _price_at(params, -12.0)
    if params.process is ProcessKind.BM:
        # the additive law reaches zero price; stop short of it
        lo = max(lo, params.p0 * 1e-9)
    u_max = sqrt(max(il_between(params.liquidity, params.p0, p)
                     for p in (lo, _price_at(params, 12.0))))
    if not u_max < _U_LIMIT:
        sst = params.sigma * sqrt(params.t)
        raise NumericalError(f"the price law at sigma sqrt(t) = {sst:.3g} reaches losses "
                             "outside the double range within 12 standard deviations of entry")
    return u_max


@dataclass(frozen=True)
class IlTable:
    """Tabulated endpoint-loss distribution in the variable u = sqrt(il).

    The substitution removes the origin singularity, so a trapezoid
    cumulative sum over log-spaced knots gives an accurate distribution
    function, and a monotone cubic interpolant of its inverse turns uniform
    draws into loss samples.  total is the captured probability mass; an
    additive law that leaks to negative prices, the one case where it would
    fall measurably below 1, is refused before tabulation.
    """

    params: ILDistParams
    u: np.ndarray
    density_u: np.ndarray
    cdf_u: np.ndarray
    total: float
    _quantile: PchipInterpolator
    _quantile_top: float

    def cdf(self, il) -> np.ndarray:
        """Probability of a loss at or below il, normalized to the table mass."""
        vals = np.sqrt(np.clip(np.asarray(il, dtype=float), 0.0, None))
        return np.interp(vals, self.u, self.cdf_u) / self.total

    def sample(self, n: int, seed: int) -> np.ndarray:
        if n < 1:
            raise ConfigError(f"n must be positive, got {n}")
        rng = make_generator(seed)
        grid = np.minimum(rng.random(n), self._quantile_top)
        u = self._quantile(grid)
        return u * u

    def mean(self) -> float:
        return float(np.trapezoid(self.u * self.u * self.density_u, self.u) / self.total)


def build_il_table(params: ILDistParams) -> IlTable:
    """Tabulate the loss density on _N_KNOTS log-spaced knots in u = sqrt(il)."""
    from scipy.integrate import cumulative_trapezoid
    from scipy.interpolate import PchipInterpolator

    _check_law(params)
    u_max = _u_max(params)
    u = np.concatenate(([0.0], np.geomspace(u_max * 1e-10, u_max, _N_KNOTS - 1)))
    density_u = np.empty_like(u)
    density_u[0] = _density_at_origin(params)
    density_u[1:] = 2.0 * u[1:] * il_pdf(u[1:] ** 2, params)
    cdf_u = cumulative_trapezoid(density_u, u, initial=0.0)
    total = float(cdf_u[-1])
    if not 0.5 <= total <= 1.5:
        raise NumericalError(f"loss density mass {total:g} is far from 1; bad tabulation range")
    cdf_norm = cdf_u / total
    keep = np.concatenate(([True], np.diff(cdf_norm) > 0.0))
    quantile = PchipInterpolator(cdf_norm[keep], u[keep])
    return IlTable(
        params=params,
        u=u,
        density_u=density_u,
        cdf_u=cdf_u,
        total=total,
        _quantile=quantile,
        _quantile_top=float(cdf_norm[keep][-1]),
    )


def analytic_il_mean(params: ILDistParams) -> float:
    """Mean of the loss density by quadrature in u = sqrt(il).

    This goes through the density itself (not the price integral), so
    comparing it against expected_il_quadrature exercises the two routes
    independently.
    """
    from scipy.integrate import IntegrationWarning, quad

    _check_law(params)
    u_max = _u_max(params)

    def integrand(u: float) -> float:
        return 2.0 * u**3 * il_pdf(u * u, params)

    # One pass over [0, u_max] first.  The additive law's lower price, clamped
    # at 1e-9 p0, can stretch u_max to about 1e6 against a bulk near 10, and
    # then one pass loses the mass; the retry integrates up to the loss at +12
    # sigma in one piece and the tail beyond it in 12 geometric pieces.
    knots = [0.0, u_max]
    for _ in range(2):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            pieces = [quad(integrand, a, b, limit=400, epsabs=0.0, epsrel=1e-9)
                      for a, b in zip(knots, knots[1:])]
        value, abserr = sum(v for v, _ in pieces), sum(e for _, e in pieces)
        if np.isfinite(value) and abserr <= max(1e-13, 1e-6 * abs(value)):
            return value
        u_bulk = sqrt(il_between(params.liquidity, params.p0, _price_at(params, 12.0)))
        knots = [0.0, *np.geomspace(u_bulk, u_max, 13)]
    raise NumericalError(f"loss-mean quadrature did not converge (error {abserr:g})")


def clt_sum_experiment(
    params: ILDistParams, n_per_sum: int, n_repeats: int, seed: int, bins: int = 50
) -> Histogram:
    """Histogram, in `bins` bins, of n_repeats independent sums of n_per_sum loss draws.

    Despite the 1 / sqrt(il) origin spike and the hard branch cutoff, the
    single-draw distribution has finite variance, so the sums pull into a
    Gaussian shape.
    """
    if n_per_sum < 1 or n_repeats < 1:
        raise ConfigError("n_per_sum and n_repeats must be positive")
    if bins < 1:
        raise ConfigError(f"bins must be positive, got {bins}")
    table = build_il_table(params)
    draws = table.sample(n_per_sum * n_repeats, seed)
    sums = draws.reshape(n_repeats, n_per_sum).sum(axis=1)
    return Histogram.from_samples(sums, bins=bins)


class StepKind(str, Enum):
    UNIT = "unit"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class BarrierSpec:
    """Absorbing barriers around a walk started at zero; step_kind also takes its string."""

    lower: float
    upper: float
    step_kind: StepKind = StepKind.UNIT

    def __post_init__(self) -> None:
        object.__setattr__(self, "step_kind", StepKind(self.step_kind))
        if not self.lower < 0.0 < self.upper:
            raise ConfigError("need lower < 0 < upper")


@dataclass(frozen=True)
class FirstPassageResult:
    mean_steps: float
    stderr: float
    frac_lower: float
    n_walks: int


def first_passage(spec: BarrierSpec, n_walks: int, seed: int) -> FirstPassageResult:
    """Simulate walks until absorption at either barrier.

    For unit steps on integer barriers the classic ruin results apply: the
    mean exit time is |lower| * upper and the lower barrier is hit with
    probability upper / (upper + |lower|).
    """
    if n_walks < 1:
        raise ConfigError(f"n_walks must be positive, got {n_walks}")
    rng = make_generator(seed)
    exit_time = np.zeros(n_walks, dtype=np.int64)
    hit_lower = np.zeros(n_walks, dtype=bool)
    alive = np.arange(n_walks)
    pos = np.zeros(n_walks, dtype=float)
    t = 0
    while alive.size:
        t += 1
        if spec.step_kind is StepKind.UNIT:
            steps = rng.integers(0, 2, size=alive.size) * 2.0 - 1.0
        else:
            steps = rng.standard_normal(alive.size)
        pos = pos + steps
        low = pos <= spec.lower
        done = low | (pos >= spec.upper)
        if done.any():
            idx = alive[done]
            exit_time[idx] = t
            hit_lower[idx] = low[done]
            keep = ~done
            alive = alive[keep]
            pos = pos[keep]
    mean, stderr = mean_stderr(exit_time)
    return FirstPassageResult(
        mean_steps=mean, stderr=stderr, frac_lower=float(hit_lower.mean()), n_walks=n_walks
    )


def lvr_ode_rhs(liquidity: float, sigma_abs: float, price: float) -> float:
    """Instantaneous rebalancing-loss rate L sigma_abs^2 / (4 p^(5/2)).

    sigma_abs is the absolute volatility (price units per sqrt time); the
    relative convention enters via sigma_abs = sigma * p0.
    """
    if liquidity <= 0.0 or sigma_abs <= 0.0 or price <= 0.0:
        raise ValueError("all inputs must be positive")
    return liquidity * sigma_abs * sigma_abs / (4.0 * price**2.5)


def gof_chi_square(counts, bin_edges, cdf):
    """Chi-square comparison of binned counts against a distribution function.

    Expected masses come from cdf differences over the bin edges, with the
    tail mass outside the edges folded into the end bins.  Adjacent bins are
    merged left to right until each group expects at least 5 counts.
    Returns (statistic, dof, pvalue).
    """
    from scipy.stats import chi2

    obs = np.asarray(counts, dtype=float)
    edges = np.asarray(bin_edges, dtype=float)
    if obs.size != edges.size - 1:
        raise ValueError("counts must have one entry per bin")
    n = obs.sum()
    if n <= 0:
        raise ValueError("counts are empty")
    cdf_vals = np.asarray(cdf(edges), dtype=float)
    probs = np.diff(cdf_vals)
    probs[0] += cdf_vals[0]
    probs[-1] += max(0.0, 1.0 - cdf_vals[-1])
    expected = n * probs

    grouped_obs: list[float] = []
    grouped_exp: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(obs, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            grouped_obs.append(acc_o)
            grouped_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0 or acc_o > 0.0:
        if not grouped_obs:
            raise ValueError("expected counts too small to form a single group")
        grouped_obs[-1] += acc_o
        grouped_exp[-1] += acc_e
    go = np.asarray(grouped_obs)
    ge = np.asarray(grouped_exp)
    stat = float(np.sum((go - ge) ** 2 / ge))
    dof = max(1, go.size - 1)
    return stat, dof, float(chi2.sf(stat, dof))
