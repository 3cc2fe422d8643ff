"""Closed forms and semi-analytic machinery for the loss metrics.

A pool of depth L holds reserves x = L / sqrt(p), y = L sqrt(p) of two
tokens at spot price p = y / x, so x y = L^2.  Swap fees are tallied on the
side and never folded back into the reserves, so L never changes.  Values
are in token x: the pooled reserves are worth x + y / p = 2 L / sqrt(p), and
their loss against holding the entry reserves,

    il(p0, p) = (L / sqrt(p0)) * (1 - sqrt(p0 / p))^2 >= 0,

depends only on the endpoints.  Charged per step and summed, the same
expression gives the path-dependent loss against a continuously rebalanced
shadow portfolio, never smaller than any single-step view of the same move.
il_between states it; harness.arbitrage has its own vectorised sums.  The
law functions work on the scale-free unit pool (p0 = L = 1), whose law is
one of sigma sqrt(t) and the process, and scale once through to_pool.

Central results wired up here, all in token-x units with one time unit per
step:

  * mean rebalancing loss in the intermediate regime,
    <LVR(t)> = L sigma^2 t / (4 sqrt(p0)),
  * the exact density of the endpoint loss induced by a price density
    rho(p, t), obtained by inverting il(p0, p) on the two price branches
    and adding the Jacobian-weighted pullbacks; it diverges like
    1 / sqrt(il) at the origin and the branch from prices above entry
    cuts off at il = L / sqrt(p0),
  * its exact distribution function, the probability that the final price
    lies between the two branch prices of a loss, and an exact sampler that
    maps one uniform per draw through the normal quantile, the price and
    the loss; quadrature of the mean and a summation experiment on top,
  * first-passage statistics of random walks between two absorbing
    barriers, the building block for waiting times between arbitrages.
"""

from __future__ import annotations

# scipy is imported inside the functions that use it: it takes over a
# second to load, and `simulate` and `sweep` import this module without
# calling any of them.

import warnings
from dataclasses import dataclass, replace
from enum import Enum
from math import erfc, exp, expm1, inf, isfinite, sqrt

import numpy as np

from .errors import ConfigError, NumericalError
from .stats import Histogram, mean_stderr
from .stochastic import ProcessKind, make_generator, pdf_bm, pdf_gbm

__all__ = [
    "ILDistParams",
    "StepKind",
    "BarrierSpec",
    "FirstPassageResult",
    "il_between",
    "expected_lvr",
    "expected_lvr_gbm",
    "expected_il_gbm",
    "expected_il_quadrature",
    "il_pdf",
    "il_cdf",
    "sample_il",
    "sqrt_loss_range",
    "analytic_il_mean",
    "to_pool",
    "clt_sum_experiment",
    "first_passage",
]


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
        s2 = self.sigma * self.sigma  # below the normal doubles these keep too few digits
        for key, value in (("t", self.t), ("sigma^2", s2), ("sigma^2 t", s2 * self.t)):
            if value < _TINY:
                raise ConfigError(f"{key} = {value:g} is below the smallest normal double "
                                  f"{_TINY:g} (sigma = {self.sigma:g}, t = {self.t:g})")

    @property
    def scale(self) -> float:
        """The closed-form mean L sigma^2 t / (4 sqrt(p0)), a natural unit."""
        return float(to_pool(self, self.sigma**2 * self.t / 4.0))


def to_pool(record, unit, inverse: bool = False):
    """unit, a unit-pool loss, times record's L / sqrt(p0), or over it when inverse.

    NumericalError, naming L / sqrt(p0), when a finite value becomes inf or a nonzero one 0."""
    scale = record.liquidity / sqrt(record.p0)
    with np.errstate(over="ignore", under="ignore"):
        out = np.divide(unit, scale) if inverse else np.multiply(unit, scale)
        lost = np.isinf(out) & np.isfinite(unit) | (out == 0.0) & (unit != 0.0)
    if not 0.0 < scale < inf or lost.any():
        raise NumericalError(f"L / sqrt(p0) = {scale:.3g} (liquidity = {record.liquidity:g}, p0 "
                             f"= {record.p0:g}) takes a unit-pool value outside the double range")
    return out


# Largest share of a law that the loss integrals may lose: the additive law's
# mass below price zero, or the multiplicative law's mean-loss weight beyond
# the 12-deviation loss range.  1e-9 is the quadratures' relative tolerance
# (epsrel), so a smaller share is lost in their own error.
LEAK_TOLERANCE = 1e-9

_TINY = float(np.finfo(float).tiny)


def _check_law(params: ILDistParams) -> float:
    """Refuse a price law the loss integrals cannot carry; return its mass above price zero.

    With s = sigma sqrt(t), a law may lose at most LEAK_TOLERANCE: the
    additive law its mass below price zero, Phi(-1 / s), and the
    multiplicative law its mean loss beyond sqrt_loss_range's 12-deviation
    window, Phi(s - 12), since the mean-loss integrand, e^(-s z) times the
    normal density, peaks at z = -s, which keeps s below about 6 and the unit
    law in the doubles.  sigma^2, which the price densities take whole, must be a double.
    """
    sst = params.sigma * sqrt(params.t)
    bm = params.process is ProcessKind.BM
    share = 0.5 * erfc((1.0 / sst if bm else 12.0 - sst) / sqrt(2.0))
    if share > LEAK_TOLERANCE:
        law, lost = (("additive", "of its mass below zero") if bm else
                     ("multiplicative", "of its mean loss outside the 12-deviation loss range"))
        raise NumericalError(f"the {law} price law puts {share:.3g} {lost} (sigma sqrt(t) "
                             f"= {sst:.3g}), over the {LEAK_TOLERANCE:g} the loss integrals "
                             "can absorb")
    if not isfinite(params.sigma * params.sigma * params.t):
        raise NumericalError(f"sigma^2 leaves the double range (sigma = {params.sigma:g}, "
                             f"t = {params.t:g}), and the price densities need sigma^2 t")
    return 1.0 - share if bm else 1.0


def _price_at(params: ILDistParams, z):
    """Unit-pool price at the standardized endpoint z, with s = sigma sqrt(t).

    1 + s z for the additive law, exp(-s^2 / 2 + s z) for the multiplicative
    one.  A float z goes through math.exp, whose roundings the quadratures'
    outputs carry; an array through numpy's.
    """
    sst = params.sigma * sqrt(params.t)
    if params.process is ProcessKind.BM:
        return 1.0 + sst * z
    log_ratio = -0.5 * sst * sst + sst * z
    return np.exp(log_ratio) if isinstance(z, np.ndarray) else exp(log_ratio)


def _endpoint_at(params: ILDistParams, p: np.ndarray) -> np.ndarray:
    """Standardized endpoint z of the unit-pool prices p, the inverse of _price_at."""
    sst = params.sigma * sqrt(params.t)
    if params.process is ProcessKind.BM:
        return (p - 1.0) / sst
    return (np.log(p) + 0.5 * sst * sst) / sst


def _check_positive(**named: float) -> None:
    for name, value in named.items():
        if value <= 0.0:
            raise ConfigError(f"{name} must be positive, got {value}")


def il_between(liquidity: float, entry_price: float, final_price: float) -> float:
    """Endpoint loss versus holding the entry reserves; zero iff prices match."""
    _check_positive(liquidity=liquidity, entry_price=entry_price, final_price=final_price)
    diff = 1.0 - sqrt(entry_price / final_price)
    return (liquidity / sqrt(entry_price)) * diff * diff


def expected_lvr(liquidity: float, p0: float, sigma: float, t: float) -> float:
    """Mean rebalancing loss L sigma^2 t / (4 sqrt(p0)).

    Exact in the short-horizon limit and accurate through the intermediate
    regime.  In the long regime, which harness.classify_regime alone labels,
    the price level spreads enough for the running prefactor to matter and
    this closed form underestimates the mean; it does not warn there.
    """
    _check_positive(liquidity=liquidity, p0=p0, sigma=sigma, t=t)
    s2t = sigma * sigma * t
    mean = liquidity * s2t / (4.0 * sqrt(p0))
    if not isfinite(mean):
        raise NumericalError(f"the mean rebalancing loss leaves the double range "
                             f"(sigma^2 t = {s2t:.3g}, liquidity = {liquidity:.3g})")
    return mean


def expected_il_gbm(liquidity: float, p0: float, sigma: float, t: float) -> float:
    """Mean endpoint loss under the multiplicative process at any horizon.

    Propagating the moments of the final price through the loss formula
    gives (L / sqrt(p0)) (1 - 2 e^(3 s/8) + e^s) with s = sigma^2 t: the
    mean of 1/sqrt(p) grows like e^(3 s/8) and that of 1/p like e^s.  The
    per-step moments of the discrete multiplicative Gaussian match these
    exponentials to O(sigma^4) per step, well below sampling noise at desk
    volatilities.  Reduces to L sigma^2 t / (4 sqrt(p0)) as s -> 0.
    """
    _check_positive(liquidity=liquidity, p0=p0, sigma=sigma, t=t)
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
    _check_positive(liquidity=liquidity, p0=p0, sigma=sigma, n_steps=n_steps)
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

    Integrates the unit pool's loss against it in a standardized variable.
    For the additive process the lower limit is the zero-price cutoff of the
    Gaussian; for the multiplicative process the log-price is integrated
    over +-14 standard deviations.
    """
    from scipy.integrate import quad

    _check_law(params)
    norm = 1.0 / sqrt(2.0 * np.pi)

    def integrand(z: float) -> float:
        return il_between(1.0, 1.0, _price_at(params, z)) * norm * exp(-0.5 * z * z)

    if params.process is ProcessKind.BM:
        z_cut = 1.0 / (params.sigma * sqrt(params.t))
        lo, hi = -min(10.0, z_cut * (1.0 - 1e-12)), 10.0
    else:
        lo, hi = -14.0, 14.0
    value, abserr = quad(integrand, lo, hi, limit=200, points=[0.0], epsabs=0.0, epsrel=1e-9)
    if not np.isfinite(value) or abserr > 1e-6 * abs(value):
        raise NumericalError(f"loss quadrature did not converge (error estimate {abserr:g})")
    return float(to_pool(params, value))


def _branch_prices(u: np.ndarray):
    """q = sqrt(u) and the unit-pool prices 1 / (1 + q)^2 below and 1 / (1 - q)^2 above
    entry of the unit losses u; above is inf where q >= 1, past the above branch."""
    q = np.sqrt(u)
    above = np.full_like(q, inf)
    mask = q < 1.0
    above[mask] = 1.0 / (1.0 - q[mask]) ** 2
    return q, 1.0 / (1.0 + q) ** 2, above


def il_pdf(il, params: ILDistParams):
    """Density of the endpoint loss induced by the price density.

    A unit-pool loss u comes from the prices 1 / (1 -+ sqrt(u))^2, each
    weighted by |dp / du| = 1 / (sqrt(u) (1 -+ sqrt(u))^3); the above-entry
    branch only while u < 1.  It diverges like 1 / sqrt(u) at the origin,
    which is integrable.  u and the density are il's over L / sqrt(p0).
    """
    arr = np.atleast_1d(np.asarray(il, dtype=float))
    if np.any(arr <= 0.0):
        raise ValueError("il must be positive")
    pdf = pdf_bm if params.process is ProcessKind.BM else pdf_gbm
    law = (1.0, params.sigma, params.t)
    q, below, above = _branch_prices(to_pool(params, arr, inverse=True))
    out = np.asarray(pdf(below, *law)) / (1.0 + q) ** 3
    mask = q < 1.0
    out[mask] += np.asarray(pdf(above[mask], *law)) / (1.0 - q[mask]) ** 3
    out = to_pool(params, out / q, inverse=True)
    return float(out[0]) if np.ndim(il) == 0 else out


def il_cdf(il, params: ILDistParams):
    """Probability of an endpoint loss at or below il, exact.

    The loss stays at or below il exactly while the final price lies
    between the two branch prices of il, so this is a difference of two
    normal probabilities in the standardized endpoint.  The additive law is
    conditioned on a positive price.  0 for il <= 0.
    """
    from scipy.special import ndtr

    mass = _check_law(params)
    arr = np.atleast_1d(np.clip(np.asarray(il, dtype=float), 0.0, None))
    _, below, above = _branch_prices(to_pool(params, arr, inverse=True))
    out = (ndtr(_endpoint_at(params, above)) - ndtr(_endpoint_at(params, below))) / mass
    return float(out[0]) if np.ndim(il) == 0 else out


def sample_il(params: ILDistParams, n: int, seed: int) -> np.ndarray:
    """n independent endpoint-loss draws, exact by inversion of the price law.

    Draw i takes word i of the seed's stream, so it depends only on the
    seed and i: 52 of its bits, centred in their cell, give a uniform u
    strictly inside (0, 1), the standardized endpoint is -Phi^-1(u m) with
    m the law's mass above price zero (this truncates the additive law
    there), and the loss is the unit pool's at the price p(z), scaled.
    """
    from scipy.special import ndtri

    mass = _check_law(params)
    if n < 1:
        raise ConfigError(f"n must be positive, got {n}")
    u = (make_generator(seed).integers(0, 2**52, n) + 0.5) * 2.0**-52
    price = _price_at(params, -ndtri(u * mass))
    return to_pool(params, (1.0 - np.sqrt(1.0 / price)) ** 2)


def sqrt_loss_range(params: ILDistParams) -> float:
    """sqrt of the larger loss at the prices 12 standard deviations either side of entry.

    The end, in sqrt(il), of the range analytic_il_mean integrates over.
    """
    lo = _price_at(params, -12.0)
    if params.process is ProcessKind.BM:
        lo = max(lo, 1e-9)  # the additive law reaches zero price; stop short of it
    il_max = max(il_between(1.0, 1.0, p) for p in (lo, _price_at(params, 12.0)))
    return sqrt(to_pool(params, il_max))


def analytic_il_mean(params: ILDistParams) -> float:
    """Mean of the loss density by quadrature in r = sqrt(u) over the unit loss u.

    This goes through the density itself (not the price integral), so
    comparing it against expected_il_quadrature exercises the two routes
    independently.
    """
    from scipy.integrate import IntegrationWarning, quad

    _check_law(params)
    unit = replace(params, p0=1.0, liquidity=1.0)  # the unit law, where to_pool is exact
    r_max = sqrt_loss_range(unit)

    def integrand(r: float) -> float:
        return 2.0 * r**3 * il_pdf(r * r, unit)

    # One pass over [0, r_max] first.  The additive law's lower price, clamped
    # at 1e-9, can stretch r_max to about 3e4 against a bulk below 1, and
    # then one pass loses the mass; the retry integrates up to the loss at +12
    # sigma in one piece and the tail beyond it in 12 geometric pieces.
    knots = [0.0, r_max]
    for _ in range(2):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            pieces = [quad(integrand, a, b, limit=400, epsabs=0.0, epsrel=1e-9)
                      for a, b in zip(knots, knots[1:])]
        value, abserr = sum(v for v, _ in pieces), sum(e for _, e in pieces)
        if np.isfinite(value) and abserr <= 1e-6 * abs(value):
            return float(to_pool(params, value))
        r_bulk = sqrt(il_between(1.0, 1.0, _price_at(params, 12.0)))
        knots = [0.0, *np.geomspace(r_bulk, r_max, 13)]
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
    draws = sample_il(params, n_per_sum * n_repeats, seed)
    sums = draws.reshape(n_repeats, n_per_sum).sum(axis=1)
    return Histogram.from_samples(sums, bins=bins)


class StepKind(str, Enum):
    UNIT = "unit"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class BarrierSpec:
    """Finite absorbing barriers around a walk started at zero; step_kind also takes its string."""

    lower: float
    upper: float
    step_kind: StepKind = StepKind.UNIT

    def __post_init__(self) -> None:
        object.__setattr__(self, "step_kind", StepKind(self.step_kind))
        if not -inf < self.lower < 0.0 < self.upper < inf:
            raise ConfigError(f"need finite lower < 0 < upper, got {self.lower:g}, {self.upper:g}")


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
