"""Canned study configurations.

Each preset is a named bundle of config-key overrides in the same KEY=VALUE
vocabulary the command line and config files use, so the resolution order
stays uniform: built-in defaults, then preset, then config file, then
explicit flags.  All presets are sized for a desk machine: the largest
finishes in a few minutes, most in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from .errors import ConfigError

__all__ = ["Preset", "PRESETS", "preset_names", "get_preset"]


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    overrides: MappingProxyType


def _preset(name: str, description: str, **overrides) -> Preset:
    frozen = MappingProxyType({k: str(v) for k, v in overrides.items()})
    return Preset(name=name, description=description, overrides=frozen)


_ALL = [
    _preset(
        "fig-bm-vs-gbm-short",
        "endpoint price densities, additive vs multiplicative, short horizon "
        "(sigma^2 t = 2e-4) where the two walks are indistinguishable",
        mode="simulate",
        process="both",
        p0=100.0,
        sigma=0.001,
        n_steps=200,
        n_runs=40000,
        liquidity=10000.0,
        observables="prices",
        seed=97401,
    ),
    _preset(
        "fig-bm-vs-gbm-long",
        "endpoint price densities at sigma^2 t > 1: the additive walk leaks "
        "below zero while the multiplicative one piles up near it",
        mode="simulate",
        process="both",
        p0=100.0,
        sigma=0.015,
        n_steps=5000,
        n_runs=40000,
        liquidity=10000.0,
        observables="prices",
        seed=97402,
    ),
    _preset(
        "fig-lvril-nofee",
        "fee-free baseline where holding loss and rebalancing loss share the "
        "mean L sigma^2 t / (4 sqrt(p0)) = 0.25 but not the distribution",
        mode="simulate",
        process="gbm",
        p0=100.0,
        sigma=0.001,
        n_steps=1000,
        n_runs=40000,
        liquidity=10000.0,
        observables="pool",
        seed=97403,
    ),
    _preset(
        "fig-lvr-longtime",
        "long-horizon split (sigma^2 t = 0.4): the mean holding loss outruns "
        "the mean rebalancing loss and the latter's distribution skews right",
        mode="simulate",
        process="gbm",
        p0=100.0,
        sigma=0.02,
        n_steps=1000,
        n_runs=10000,
        liquidity=10000.0,
        observables="pool",
        seed=97404,
    ),
    _preset(
        "fig-sumil",
        "sums of 10000 independent endpoint-loss draws pulled into a Gaussian "
        "despite the 1/sqrt(loss) spike at the origin",
        mode="clt-sum",
        p0=100.0,
        liquidity=10000.0,
        sigma=0.1,
        t=1.0,
        n_per_sum=10000,
        n_repeats=1000,
        seed=97405,
    ),
    _preset(
        "fig-rwbarrier",
        "random-walk absorption times: symmetric barriers scale like k^2, a "
        "one-step near barrier drags the asymmetric case down to k",
        mode="first-passage",
        k_list="3,10,30",
        n_walks=20000,
        step_kind="unit",
        seed=97406,
    ),
    _preset(
        "fig-lvrfee",
        "band arbitrage at f = 0.2 sigma under the band-edge trade rule: the "
        "rebalancing loss drops below its fee-free value while the holding "
        "loss barely moves",
        mode="simulate",
        process="gbm",
        target="marginal",
        p0=100.0,
        sigma=0.001,
        n_steps=1000,
        n_runs=10000,
        liquidity=10000.0,
        fee=0.0002,
        observables="pool",
        seed=97407,
    ),
    _preset(
        "fig-volvsfee",
        "fee sweep spanning f/sigma from 0.05 to 50 under the band-edge "
        "trade rule: trade volume crosses from fee-independent to the "
        "rare-trade 1/f decay",
        mode="sweep-fee",
        process="gbm",
        target="marginal",
        p0=100.0,
        sigma=0.004,
        n_steps=1000,
        n_runs=5000,
        liquidity=10000.0,
        fees="0.0002,0.0004,0.0008,0.002,0.004,0.008,0.02,0.04,0.08,0.2",
        seed=97408,
    ),
    _preset(
        "fig-lvr-vs-fee",
        "fine fee sweep at f/sigma <= 2 under the band-edge trade rule, "
        "resolving how the rebalancing loss peels away from its fee-free "
        "value",
        mode="sweep-fee",
        process="gbm",
        target="marginal",
        p0=100.0,
        sigma=0.0002,
        n_steps=1000,
        n_runs=10000,
        liquidity=10000.0,
        fees="0.00001,0.00002,0.00004,0.0001,0.0002,0.0004",
        seed=97409,
    ),
]

PRESETS: dict[str, Preset] = {p.name: p for p in _ALL}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(preset_names())
        raise ConfigError(f"unknown preset {name!r}; available: {known}") from None
