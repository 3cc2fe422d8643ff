"""Monte Carlo and closed-form analytics for constant-product market making.

The package measures what a passive liquidity position loses to price
discovery: the endpoint (holding) loss, the path-accumulated rebalancing
loss, the arbitrage volume that carries both, and how a proportional fee
reshapes them.  Everything is seed-reproducible down to the individual run.
"""

from .analytics import (
    BarrierSpec,
    Branch,
    FirstPassageResult,
    ILDistParams,
    IlTable,
    StepKind,
    analytic_il_mean,
    build_il_table,
    clt_sum_experiment,
    expected_il_gbm,
    expected_il_quadrature,
    expected_lvr,
    expected_lvr_gbm,
    first_passage,
    gof_chi_square,
    il_pdf,
    invert_il,
    lvr_ode_rhs,
    sample_il,
)
from .cfmm import Pool, hodl_value, position_value, reserves_at_price, swap_to_price
from .errors import ConfigError, NumericalError, ResourceLimitError
from .harness import (
    BandRule,
    CampaignResult,
    ExperimentConfig,
    Observables,
    RegimeLabel,
    TradeTarget,
    arbitrage,
    classify_regime,
    run_campaign,
    simulate_price_matrix,
    sweep_fee,
    sweep_volume_vs_sigma,
    sweep_volume_vs_steps,
)
from .metrics import il_between, lvr_step, rebalance_quantities, volume_step
from .presets import PRESETS, get_preset, preset_names
from .stats import Histogram, fit_loglog, mean_stderr
from .stochastic import (
    ProcessKind,
    derive_run_seed,
    make_generator,
    pdf_bm,
    pdf_gbm,
)

__version__ = "0.2.0"

__all__ = [
    "__version__",
    # pool mechanics
    "Pool", "reserves_at_price", "position_value", "hodl_value", "swap_to_price",
    # price processes
    "ProcessKind", "make_generator", "derive_run_seed", "pdf_bm", "pdf_gbm",
    # per-step metrics
    "il_between", "lvr_step", "rebalance_quantities", "volume_step",
    # arbitrage kernel
    "BandRule", "TradeTarget", "arbitrage",
    # analytics
    "ILDistParams", "Branch", "StepKind", "BarrierSpec", "FirstPassageResult",
    "IlTable", "expected_lvr", "expected_lvr_gbm", "expected_il_gbm",
    "expected_il_quadrature", "invert_il", "il_pdf", "build_il_table",
    "analytic_il_mean", "sample_il", "clt_sum_experiment", "first_passage",
    "lvr_ode_rhs", "gof_chi_square",
    # campaigns
    "ExperimentConfig", "CampaignResult", "Observables", "RegimeLabel",
    "classify_regime", "run_campaign", "simulate_price_matrix",
    "sweep_fee", "sweep_volume_vs_sigma", "sweep_volume_vs_steps",
    # presets and plumbing
    "PRESETS", "get_preset", "preset_names",
    "Histogram", "mean_stderr", "fit_loglog",
    "ConfigError", "ResourceLimitError", "NumericalError",
]
