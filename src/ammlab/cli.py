"""Command-line front end.

Every command that produces data writes a self-describing bundle:

    <out>/
      manifest.json   command, resolved config, sha256 of every other file
      schema.json     what each file is and what its columns mean
      *.csv, *.json   the data, floats at full 17-digit precision

Bundles contain no timestamps, hostnames or other incidental state, so the
same command line yields byte-identical campaign data on any machine with the
same numpy.  The values of il-pdf, sample-il, clt-sum, simulate's price
densities and the sweeps' slope fits pass through np.exp and np.log, so they
repeat only where numpy dispatches those alike.  `ammlab replay <bundle>`
re-executes the manifest, verifies its bytes, and flags any file in the
bundle directory that the manifest does not list.  A bundle written by
another ammlab version is refused with exit 2, since output bytes may
differ between versions.
Configuration is resolved in a fixed order: built-in defaults, then
--preset, then --config KEY=VALUE file, then explicit flags.  A preset and a
config file are string layers alike: each may name its command's mode and may
set only keys that mode uses, or the command exits 2 naming the layer.  The
resolved strings, and a replayed manifest's config, go through one cast step,
which also holds the one rule across keys: process=both is for simulate only.

Each command is one `_COMMANDS` entry: its mode, its config keys and its
runner.  A runner only computes and writes: runner(cfg, bundle) fills the
bundle it is handed and returns the lines to print.  `_execute` creates,
seals and publishes it; replay only seals a re-run in a temporary directory.

A bundle is written into a hidden sibling of <out> and renamed into place
once sealed, so it appears whole or not at all.  A rerun into a bundle
directory replaces it whole; an existing <out> that is neither empty nor a
bundle (a file, a malformed manifest.json, or a directory holding anything
its manifest does not list) is refused with exit 2 before any work starts.

Exit codes: 0 success, 1 replay mismatch, 2 configuration error,
3 resource-guard refusal, 4 numerical failure.  Other errors are bugs and
end in a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import sys
import tempfile
from dataclasses import asdict, fields
from decimal import Decimal
from math import ceil, exp, isfinite, log, sqrt
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import (
    BarrierSpec,
    ILDistParams,
    StepKind,
    analytic_il_mean,
    clt_sum_experiment,
    expected_il_gbm,
    expected_il_quadrature,
    expected_lvr,
    expected_lvr_gbm,
    first_passage,
    il_cdf,
    il_pdf,
    sample_il,
    sqrt_loss_range,
)
from .errors import ConfigError, NumericalError, ResourceLimitError
from .harness import (
    TABLE_COLUMNS,
    BandRule,
    ExperimentConfig,
    Observables,
    TradeTarget,
    chunk_working_bytes,
    classify_regime,
    run_campaign,
    sweep_fee,
    sweep_volume_vs_sigma,
    sweep_volume_vs_steps,
)
from .presets import get_preset, preset_names
from .stats import Histogram, distinct_positive, fit_loglog, mean_stderr
from .stochastic import ProcessKind, _checked_int, derive_run_seed, pdf_bm, pdf_gbm

# ---------------------------------------------------------------------------
# config keys: one flat vocabulary shared by defaults, presets, files, flags


def _cast_float(key: str, v: str) -> float:
    try:
        f = float(v)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {v!r}") from None
    if not isfinite(f):
        raise ConfigError(f"{key}: expected a finite number, got {v!r}")
    return f


def _cast_int(key: str, v: str) -> int:
    try:
        return int(v)
    except ValueError:
        pass
    _cast_float(key, v)
    exact = Decimal(v)  # a double would round integers past 2**53
    if exact != exact.to_integral_value():
        raise ConfigError(f"{key}: expected an integer, got {v!r}")
    return int(exact)


def _cast_choice(*options: str):
    def cast(key: str, v: str) -> str:
        if v not in options:
            raise ConfigError(f"{key}: expected one of {', '.join(options)}, got {v!r}")
        return v

    return cast


def _split(v: str) -> list[str]:
    return [part.strip() for part in v.split(",") if part.strip()]


def _cast_float_list(key: str, v: str) -> list[float]:
    return [_cast_float(key, part) for part in _split(v)]


def _cast_int_list(key: str, v: str) -> list[int]:
    return [_cast_int(key, part) for part in _split(v)]


# key -> (caster, default string, help text)
_KEYS = {
    "process": (_cast_choice(*ProcessKind, "both"),
                "gbm", "price process: additive (bm), multiplicative (gbm), or both"),
    "p0": (_cast_float, "100.0", "entry price"),
    "sigma": (_cast_float, "0.001", "per-step relative volatility"),
    "n_steps": (_cast_int, "1000", "steps per run"),
    "liquidity": (_cast_float, "10000.0", "pool liquidity parameter L"),
    "n_runs": (_cast_int, "10000", "independent runs in the campaign"),
    "seed": (lambda key, v: _checked_int(_cast_int(key, v), key),
             "0", "the seed that every random stream of the command derives from"),
    "fee": (_cast_float, "0.0", "proportional fee; 0 disables the no-trade band"),
    "band_rule": (_cast_choice(*BandRule), "exact", "no-trade band shape around the pool price"),
    "target": (_cast_choice(*TradeTarget),
               "oracle", "post-trade price: reference (oracle) or band edge (marginal)"),
    "observables": (_cast_choice(*Observables), "pool", "pool metrics, or endpoint prices only"),
    "bins": (_cast_int, "50", "histogram bins"),
    "t": (_cast_float, "1.0", "horizon for the analytic distribution commands"),
    "n_per_sum": (_cast_int, "10000", "draws added per sum in clt-sum"),
    "n_repeats": (_cast_int, "1000", "number of sums in clt-sum"),
    "n_samples": (_cast_int, "100000", "draws for sample-il"),
    "il_points": (_cast_int, "4000", "points in the tabulated density output"),
    "k_list": (_cast_int_list, "3,10,30", "barrier distances for the paired passage study"),
    "n_walks": (_cast_int, "20000", "walks per barrier spec"),
    "step_kind": (_cast_choice(*StepKind), "unit", "walk increment"),
    "lower": (_cast_float, "-10", "lower barrier (single passage run, k_list empty)"),
    "upper": (_cast_float, "10", "upper barrier (single passage run, k_list empty)"),
    "fees": (_cast_float_list, "", "comma list of fees for sweep-fee"),
    "sigmas": (_cast_float_list, "", "comma list of volatilities for sweep-sigma"),
    "steps_list": (_cast_int_list, "", "comma list of step counts for sweep-steps"),
    "total_variance": (_cast_float, "0.001", "sigma^2 n held fixed across sweep-steps"),
}

# a command's keys are its record's fields, the process first as "process"
_CAMPAIGN_KEYS = ("process", *(f.name for f in fields(ExperimentConfig) if f.name != "kind"))
_IL_KEYS = ("process", *(f.name for f in fields(ILDistParams) if f.name != "process"))

# the histograms simulate writes: every pool metric and il and lvr net of fees,
# or the endpoint price alone
_HISTOGRAMS = {
    Observables.POOL: ("il", "lvr", "volume", "fees", "il_minus_fees", "lvr_minus_fees",
                       "final_price"),
    Observables.PRICES: ("final_price",),
}


def _base_keys(*swept: str) -> tuple[str, ...]:
    """A sweep's keys for its base: none its campaigns set, nor observables."""
    return tuple(k for k in _CAMPAIGN_KEYS if k not in {*swept, "observables"})


def read_config_file(path: str) -> dict[str, str]:
    """KEY=VALUE lines; # starts a comment; unknown keys are rejected; mode= names a command."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected KEY=VALUE, got {raw.strip()!r}")
        if key not in _KEYS and key != "mode":
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value
    return out


def _resolve(args: argparse.Namespace, mode: str, keys: tuple[str, ...]) -> dict:
    """Merge defaults < preset < config file < flags and parse types."""
    strings = {k: _KEYS[k][1] for k in keys}
    layers = []
    if args.preset:
        layers.append((f"preset {args.preset!r}", get_preset(args.preset).overrides))
    if args.config:
        layers.append((args.config, read_config_file(args.config)))
    for source, layer in layers:
        layer_mode = layer.get("mode", mode)
        if layer_mode != mode:
            raise ConfigError(f"{source} is a {layer_mode} study; run it under that command")
        for k, v in layer.items():
            if k not in keys and k != "mode":
                raise ConfigError(f"{source} sets {k!r}, unused by {mode}")
            strings[k] = v
    for k in keys:
        if getattr(args, k) is not None:
            strings[k] = getattr(args, k)
    return _cast(mode, keys, strings)


BYTE_BUDGET = 1 << 30
STEP_BUDGET = 10**9  # walks of this cost took 11-28 s on a 2-core x86 host (CHANGES.md)
# Working bytes per unit of each size, fitted with tracemalloc at two sizes of
# every command (CHANGES.md), and the part no size scales.  A campaign adds what
# harness.chunk_working_bytes says the largest chunk over the command's step counts
# holds, since a shorter path can have the larger chunk; process=both counts one
# campaign, since it frees each once its files are written.  A pass of the walk
# loop costs about 1000 walk-steps and the loop makes several times the mean exit
# time of passes, so each step of a pair's mean exit costs n_walks + _PASS_WALKS.
_UNIT_BYTES = {"n_runs": 120, "kept_bin": 20, "written_bin": 240, "il_points": 100,
               "n_samples": 36, "n_per_sum": 36, "n_walks": 56}
_FIXED_BYTES, _PASS_WALKS = 2 << 20, 6000


def _cast(mode: str, keys: tuple[str, ...], strings: dict[str, str]) -> dict:
    """Parse a mode's config strings, then apply the rules across keys before any
    work: only simulate runs both processes, one campaign after the other, bins
    are positive, no path may pass the chunk budget nor any command the byte
    budget, nor first-passage the walk-step budget over its barrier pairs,
    (-k, k) and (-k, 1) for each k."""
    cfg = {k: _KEYS[k][0](k, strings[k]) for k in keys}
    if cfg.get("process") == "both" and mode != "simulate":
        raise ConfigError(f"{mode} needs process=bm or process=gbm")
    if cfg.get("bins", 1) < 1:
        raise ConfigError(f"bins must be positive, got {cfg['bins']}")
    cost = {k: max(cfg[k], 0) * _UNIT_BYTES[k] for k in _UNIT_BYTES if k in cfg}
    if "n_per_sum" in cfg:  # clt-sum draws the terms of every sum at once
        cost["n_per_sum * n_repeats"] = cost.pop("n_per_sum") * max(cfg["n_repeats"], 0)
    if "n_runs" in cfg:
        step_counts = cfg["steps_list"] if "steps_list" in cfg else [cfg["n_steps"]]
        # fee-free campaigns stream; a fee sweep's campaigns hold their matrices
        streamed = Observables(cfg.get("observables", "pool")) if cfg.get("fee") == 0.0 else None
        cost["n_runs"] += max([chunk_working_bytes(max(cfg["n_runs"], 0), max(n, 0), streamed)
                               for n in step_counts], default=0)
    if "bins" in cfg:
        hists = len(_HISTOGRAMS[Observables(cfg["observables"])]) if "observables" in cfg else 1
        cost["bins"] = cfg["bins"] * (hists * _UNIT_BYTES["kept_bin"] + _UNIT_BYTES["written_bin"])
    total = _FIXED_BYTES + sum(cost.values())
    if total > BYTE_BUDGET:
        key = max(cost, key=cost.get)
        raise ResourceLimitError(f"{key} brings the working set to about {total} bytes, over "
                                 f"the {BYTE_BUDGET}-byte budget; lower {key}")
    if mode == "first-passage":
        exits = (sum(k * k + k for k in set(cfg["k_list"]) if k > 0) if cfg["k_list"] else
                 max(ceil(-cfg["lower"]), 0) * max(ceil(cfg["upper"]), 0))
        steps = (max(cfg["n_walks"], 0) + _PASS_WALKS) * exits
        if steps > STEP_BUDGET:
            pairs = "k_list" if cfg["k_list"] else "lower and upper"
            raise ResourceLimitError(f"n_walks walks between the barriers of {pairs} take about "
                                     f"{steps} walk-steps, over the {STEP_BUDGET}-step budget; "
                                     "lower n_walks or narrow the barriers")
    return cfg


# ---------------------------------------------------------------------------
# bundle writing


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if isfinite(f) else None
    return obj


class Bundle:
    """Accumulates output files in an existing directory, then seals them under a manifest."""

    def __init__(self, out_dir: Path):
        self.dir = out_dir
        self.schema: dict[str, dict] = {}

    def write_json(self, name: str, payload: dict, description: str) -> None:
        text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
        (self.dir / name).write_text(text)
        self.schema[name] = {"kind": "json", "description": description}

    def write_histogram(self, name: str, observable: str, hist: Histogram) -> None:
        self.write_json(
            name,
            {"observable": observable, **hist.to_dict()},
            f"binned distribution of {observable} with raw sample moments",
        )

    def write_csv(self, name: str, columns: list[str], rows, description: str) -> None:
        # one row at a time, so a long table never sits in memory as text; every
        # cell is a number, and %.17g prints an integer below 2**53 as str does
        template = ",".join(["%.17g"] * len(columns)) + "\n"
        with open(self.dir / name, "w") as f:
            f.write(",".join(columns) + "\n")
            f.writelines(template % tuple(row) for row in rows)
        self.schema[name] = {"kind": "csv", "columns": columns, "description": description}

    def seal(self, command: list[str], config: dict) -> list[dict]:
        self.write_json("schema.json", {"files": self.schema},
                        "description of every file in this bundle")
        outputs = []
        for name in sorted(self.schema):
            digest = hashlib.sha256((self.dir / name).read_bytes()).hexdigest()
            outputs.append({"path": name, "sha256": digest})
        manifest = {
            "tool": "ammlab",
            "version": __version__,
            "command": command,
            "config": _jsonable(config),
            "outputs": outputs,
        }
        (self.dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        return outputs


# ---------------------------------------------------------------------------
# runners (shared by live commands and replay)


def _campaign_config(cfg: dict, kind: ProcessKind) -> ExperimentConfig:
    """cfg's campaign record; a field a sweep leaves out takes its key's default."""
    return ExperimentConfig(kind=kind, **{k: cfg[k] if k in cfg else _KEYS[k][0](k, _KEYS[k][1])
                                          for k in _CAMPAIGN_KEYS[1:]})


def _dist_params(cfg: dict) -> ILDistParams:
    return ILDistParams(**{f.name: cfg[f.name] for f in fields(ILDistParams)})


def _price_density_rows(hist: Histogram, kind: ProcessKind, p0, sigma, t):
    edges = hist.bin_edges
    centers = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    empirical = hist.counts / (hist.n_total * widths)
    if kind is ProcessKind.BM:
        analytic = pdf_bm(centers, p0, sigma, t)
    else:
        analytic = np.where(
            centers > 0.0, pdf_gbm(np.maximum(centers, 1e-300), p0, sigma, t), 0.0
        )
    return [
        [c, w, int(n), e, a]
        for c, w, n, e, a in zip(centers, widths, hist.counts, empirical, analytic)
    ]


def _run_simulate(cfg: dict, bundle: Bundle) -> list[str]:
    both = cfg["process"] == "both"
    kinds = [ProcessKind.BM, ProcessKind.GBM] if both else [ProcessKind(cfg["process"])]
    notes = []
    summaries: dict[str, dict] = {}
    for kind in kinds:
        conf, prefix = _campaign_config(cfg, kind), f"{kind.value}_" if both else ""
        summary = summaries[kind.value] = _write_campaign(conf, cfg["bins"], prefix, bundle)
        means = (("mean_lvr", "mean_il", "mean_volume") if conf.observables is Observables.POOL
                 else ("mean_final_price",))
        notes.append(" ".join([f"{kind.value}:", *(f"{k}={summary[k]:.6g}" for k in means),
                               f"regime={summary['regime']}"]))
    if both:
        bundle.write_json("compare.json", summaries,
                          "per-process summaries on matched per-run seeds")
    return notes


def _write_campaign(conf: ExperimentConfig, bins: int, prefix: str, bundle: Bundle) -> dict:
    """Run one campaign, bin its table and write its files; only its summary
    outlives the call, so process=both holds one campaign at a time."""
    result = run_campaign(conf)
    bundle.write_json(
        f"{prefix}summary.json",
        {"config": {**asdict(conf), "bins": bins}, "summary": result.summary},
        "campaign configuration and ensemble summary",
    )
    hists = {}
    for name in _HISTOGRAMS[conf.observables]:
        values = result.column(name.removesuffix("_minus_fees"))
        if name.endswith("_minus_fees"):
            values = values - result.column("fees")
        try:
            hists[name] = Histogram.from_samples(values, bins=bins)
        except NumericalError as exc:
            raise NumericalError(f"{name}: {exc}") from None
        bundle.write_histogram(f"{prefix}hist_{name}.json", name, hists[name])
    if conf.observables is Observables.POOL:
        bundle.write_csv(f"{prefix}table.csv", ["run_index", *TABLE_COLUMNS],
                         ([i, *row.tolist()] for i, row in enumerate(result.table)),
                         "per-run metrics, one row per seeded run")
    else:
        bundle.write_csv(
            f"{prefix}price_density.csv",
            ["price", "bin_width", "count", "empirical_density", "analytic_density"],
            _price_density_rows(hists["final_price"], conf.kind,
                                conf.p0, conf.sigma, conf.n_steps),
            "endpoint price histogram against the analytic density",
        )
    return result.summary


def _run_il_pdf(cfg: dict, bundle: Bundle) -> list[str]:
    params = _dist_params(cfg)
    if cfg["il_points"] < 2:
        raise ConfigError(f"il_points must be at least 2, got {cfg['il_points']}")
    mean_density = analytic_il_mean(params)
    mean_price = expected_il_quadrature(params)
    il_max = sqrt_loss_range(params) ** 2
    # the grid starts where il_cdf reaches 1e-12, found by bisection in log il
    lo, hi = log(np.finfo(float).tiny), log(il_max)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if il_cdf(exp(mid), params) < 1e-12 else (lo, mid)
    ils = np.geomspace(exp(hi), il_max, cfg["il_points"])
    pdf = il_pdf(ils, params)
    cdf = il_cdf(ils, params)
    trapz_mass = float(np.trapezoid(pdf, ils))
    bundle.write_csv(
        "il_pdf.csv",
        ["il", "pdf", "cdf"],
        zip(ils, pdf, cdf),
        "endpoint-loss density and distribution on log-spaced losses",
    )
    bundle.write_json(
        "pdf_meta.json",
        {
            "params": asdict(params),
            "mass_under_tabulated_points": trapz_mass,
            "mean_via_density": mean_density,
            "mean_via_price_integral": mean_price,
            "small_sigma_mean": params.scale,
            "il_max_tabulated": il_max,
        },
        "normalization and mean checks for the tabulated density",
    )
    return [
        f"mass under curve {trapz_mass:.6f}",
        f"mean via density {mean_density:.6g}, via price integral {mean_price:.6g}",
    ]


def _law_fields(params: ILDistParams) -> dict:
    """What il-mean and lvr-mean both write: the law, sigma^2 t and its regime."""
    s2t = params.sigma * params.sigma * params.t
    return {"params": asdict(params), "sigma2_t": s2t, "regime": classify_regime(s2t).value}


def _run_il_mean(cfg: dict, bundle: Bundle) -> list[str]:
    params = _dist_params(cfg)
    # the quadratures refuse a bad law before scale can overflow; keys are sorted on write
    payload = {
        "mean_via_price_integral": expected_il_quadrature(params),
        "mean_via_density": analytic_il_mean(params),
        **_law_fields(params),
        "small_sigma_mean": params.scale,
    }
    if params.process is ProcessKind.GBM:
        payload["gbm_any_horizon_mean"] = expected_il_gbm(
            params.liquidity, params.p0, params.sigma, params.t
        )
    bundle.write_json("analytic.json", payload, "mean endpoint loss by several routes")
    return [f"mean endpoint loss {payload['mean_via_price_integral']:.6g}"]


def _run_lvr_mean(cfg: dict, bundle: Bundle) -> list[str]:
    params = _dist_params(cfg)
    liq, p0, sigma, t = params.liquidity, params.p0, params.sigma, params.t
    gbm = params.process is ProcessKind.GBM
    if gbm and t != int(t):
        raise ConfigError(f"t must be a whole number under gbm, got {t}: the any-horizon "
                          "mean sums the per-step loss over whole steps")
    payload = {"small_sigma_mean": expected_lvr(liq, p0, sigma, t), **_law_fields(params)}
    if gbm:
        payload["gbm_any_horizon_mean"] = expected_lvr_gbm(liq, p0, sigma, int(t))
    bundle.write_json("analytic.json", payload, "mean cumulative rebalancing loss")
    return [f"mean rebalancing loss {payload['small_sigma_mean']:.6g}"]


def _run_sample_il(cfg: dict, bundle: Bundle) -> list[str]:
    params = _dist_params(cfg)
    draws = sample_il(params, cfg["n_samples"], cfg["seed"])
    hist = Histogram.from_samples(draws, bins=cfg["bins"])
    mean, stderr = mean_stderr(draws)
    bundle.write_csv("samples.csv", ["il"], ([v] for v in draws),
                     "independent draws from the endpoint-loss distribution")
    bundle.write_histogram("hist_il.json", "il", hist)
    bundle.write_json(
        "summary.json",
        {
            "params": asdict(params),
            "n_samples": cfg["n_samples"],
            "seed": cfg["seed"],
            "sample_mean": mean,
            "sample_stderr": stderr,
            "mean_via_density": analytic_il_mean(params),
            "mean_via_price_integral": expected_il_quadrature(params),
        },
        "sample moments against the analytic means",
    )
    return [f"sample mean {mean:.6g} +- {stderr:.2g}"]


def _run_clt_sum(cfg: dict, bundle: Bundle) -> list[str]:
    params = _dist_params(cfg)
    hist = clt_sum_experiment(params, cfg["n_per_sum"], cfg["n_repeats"], cfg["seed"],
                              cfg["bins"])
    expected_mean = cfg["n_per_sum"] * analytic_il_mean(params)
    stderr = sqrt(hist.variance / (hist.n_total - 1)) if hist.n_total > 1 else 0.0  # ddof 1
    bundle.write_histogram("hist_sums.json", "sum_of_il", hist)
    bundle.write_json(
        "summary.json",
        {
            "params": asdict(params),
            "n_per_sum": cfg["n_per_sum"],
            "n_repeats": cfg["n_repeats"],
            "seed": cfg["seed"],
            "mean": hist.mean,
            "stderr_of_mean": stderr,
            "variance": hist.variance,
            "skewness": hist.skewness,
            "expected_mean": expected_mean,
        },
        "moments of the summed losses against the analytic prediction",
    )
    return [
        f"sum mean {hist.mean:.6g} (expected {expected_mean:.6g}), "
        f"skewness {hist.skewness:.3f}"
    ]


def _write_sweep(bundle: Bundle, result: dict, rows_description: str,
                 fits_description: str) -> None:
    # every row holds the same keys, already in column order
    rows = result["rows"]
    bundle.write_csv("rows.csv", list(rows[0]), (row.values() for row in rows), rows_description)
    bundle.write_json("fits.json", result["fits"], fits_description)


def _run_first_passage(cfg: dict, bundle: Bundle) -> list[str]:
    kind = cfg["step_kind"]
    if not cfg["k_list"]:
        spec = BarrierSpec(cfg["lower"], cfg["upper"], kind)
        res = first_passage(spec, cfg["n_walks"], cfg["seed"])
        bundle.write_json("summary.json", {**asdict(spec), **asdict(res)},
                          "absorption statistics for a single barrier pair")
        return [f"mean absorption time {res.mean_steps:.4g} +- {res.stderr:.2g}"]

    ks = distinct_positive(cfg["k_list"], "k_list entries, or none for a single barrier pair")
    rows = []
    for i, k in enumerate(ks):
        row = {"k": k}
        for j, (side, upper, exact) in enumerate((("symmetric", k, k * k), ("asymmetric", 1, k))):
            res = first_passage(BarrierSpec(-float(k), float(upper), kind), cfg["n_walks"],
                                derive_run_seed(cfg["seed"], 2 * i + j))
            row.update({f"{side}_mean": res.mean_steps, f"{side}_stderr": res.stderr,
                        f"{side}_frac_lower": res.frac_lower, f"{side}_exact": float(exact)})
        rows.append(row)
    fits = {"n_walks": cfg["n_walks"], "step_kind": kind, "seed": cfg["seed"]}
    for side in ("symmetric", "asymmetric"):
        fits[f"{side}_slope"], fits[f"{side}_slope_stderr"] = fit_loglog(
            ks, [row[f"{side}_mean"] for row in rows])
    _write_sweep(bundle, {"rows": rows, "fits": fits},
                 "absorption times for barriers (-k, k) and (-k, 1)",
                 "log-log scaling of mean absorption time with k")
    return [f"mean time scaling: symmetric k^{fits['symmetric_slope']:.3f}, "
            f"asymmetric k^{fits['asymmetric_slope']:.3f}"]


def _run_sweep_fee(cfg: dict, bundle: Bundle) -> list[str]:
    base = _campaign_config(cfg, cfg["process"])
    result = sweep_fee(base, cfg["fees"])
    _write_sweep(bundle, result, "campaign summaries per fee level",
                 "deep-fee scaling and the trade-thinning crossover")
    bundle.write_json("baseline.json", result["baseline"],
                      "fee-free campaign on the same per-run seeds")
    fits = result["fits"]
    notes = []
    if fits.get("deep_volume_slope") is not None:
        notes.append(f"deep-fee volume slope {fits['deep_volume_slope']:.3f}")
    if fits.get("crossover_fee"):
        notes.append(f"mean wait crosses 2 steps near fee {fits['crossover_fee']:.3g}")
    return notes or ["sweep complete"]


def _run_sweep_sigma(cfg: dict, bundle: Bundle) -> list[str]:
    base = _campaign_config(cfg, cfg["process"])
    result = sweep_volume_vs_sigma(base, cfg["sigmas"])
    _write_sweep(bundle, result, "campaign summaries per volatility",
                 "log-log scaling of volume and loss with volatility")
    fits = result["fits"]
    return [f"volume ~ sigma^{fits['volume_slope']:.3f}, loss ~ sigma^{fits['lvr_slope']:.3f}"]


def _run_sweep_steps(cfg: dict, bundle: Bundle) -> list[str]:
    base = _campaign_config(cfg, cfg["process"])
    result = sweep_volume_vs_steps(base, cfg["steps_list"], total_variance=cfg["total_variance"])
    _write_sweep(bundle, result, "campaign summaries per step count at fixed total variance",
                 "volume scaling with sampling rate; loss stays put")
    fits = result["fits"]
    return [f"volume ~ n^{fits['volume_slope']:.3f}, "
            f"loss spread {fits['lvr_relative_spread'] * 100:.2f}%"]


# command path -> (mode, config keys, runner); the parser adds commands in
# this order, and a mode names the command in presets, config files and the
# default bundle directory
_COMMANDS = {
    ("simulate",): ("simulate", _CAMPAIGN_KEYS + ("bins",), _run_simulate),
    ("analytic", "il-pdf"): ("il-pdf", _IL_KEYS + ("il_points",), _run_il_pdf),
    ("analytic", "il-mean"): ("il-mean", _IL_KEYS, _run_il_mean),
    ("analytic", "lvr-mean"): ("lvr-mean", _IL_KEYS, _run_lvr_mean),
    ("analytic", "sample-il"): ("sample-il", _IL_KEYS + ("seed", "n_samples", "bins"),
                                _run_sample_il),
    ("analytic", "clt-sum"): ("clt-sum", _IL_KEYS + ("seed", "n_per_sum", "n_repeats", "bins"),
                              _run_clt_sum),
    ("analytic", "first-passage"): (
        "first-passage", ("k_list", "n_walks", "step_kind", "lower", "upper", "seed"),
        _run_first_passage),
    ("sweep", "fee"): ("sweep-fee", _base_keys("fee") + ("fees",), _run_sweep_fee),
    ("sweep", "sigma"): ("sweep-sigma", _base_keys("sigma") + ("sigmas",), _run_sweep_sigma),
    ("sweep", "steps"): ("sweep-steps", _base_keys("sigma", "n_steps")
                         + ("steps_list", "total_variance"), _run_sweep_steps),
}
_GROUP_HELP = {"analytic": "closed-form and distribution commands", "sweep": "parameter sweeps"}


def _read_manifest(path: Path) -> dict:
    """A bundle's manifest.json, refused unless it has the shape every bundle manifest has."""
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load manifest {path}: {exc}") from None
    if not (isinstance(manifest, dict) and isinstance(manifest.get("command"), list)
            and all(isinstance(part, str) for part in manifest["command"])
            and isinstance(manifest.get("config"), dict)
            and isinstance(manifest.get("outputs"), list)
            and all(isinstance(entry, dict) and isinstance(entry.get("path"), str)
                    and isinstance(entry.get("sha256"), str) for entry in manifest["outputs"])):
        raise ConfigError(f"{path} is not a bundle manifest: expected an object with a list "
                          "'command', an object 'config' and a list 'outputs' of {path, sha256}")
    return manifest


def _check_replaceable(out: Path) -> None:
    """Refuse an existing out path unless it is empty or holds one bundle and nothing else."""
    if not os.path.lexists(out):
        return
    if out.is_symlink() or not out.is_dir():
        raise ConfigError(f"{out} is not a bundle directory; refusing to replace it")
    listed = set()  # with no manifest, every entry is offending
    if os.path.lexists(out / "manifest.json"):
        outputs = _read_manifest(out / "manifest.json")["outputs"]
        listed = {"manifest.json", *(entry["path"] for entry in outputs)}
    for entry in sorted(out.iterdir()):
        if entry.name not in listed or entry.is_symlink() or not entry.is_file():
            raise ConfigError(
                f"{out} is not a bundle directory ({entry.name} is not a file its "
                "manifest lists); refusing to replace it"
            )


def _execute(command: tuple[str, ...], cfg: dict, out: Path) -> list[str]:
    """Run a command into a staging sibling of out, seal it, then move it into place.

    A run that fails leaves out as it was; a run that succeeds replaces an
    earlier bundle at out whole, so no stale file survives next to the new
    manifest.
    """
    runner = _COMMANDS[command][2]
    _check_replaceable(out)
    made = [d for d in (out.parent, *out.parent.parents) if not os.path.lexists(d)]
    stage = None
    try:
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
            stage = Path(tempfile.mkdtemp(dir=out.parent, prefix=f".{out.name}."))
        except OSError as exc:
            raise ConfigError(f"cannot create bundle directory {out}: {exc}") from None
        bundle = Bundle(stage)
        notes = runner(cfg, bundle)
        n_files = len(bundle.seal(list(command), cfg)) + 1  # the outputs and the manifest
        # mkdtemp makes a private (0700) directory; publish with mkdir's mode
        umask = os.umask(0)
        os.umask(umask)
        stage.chmod(0o777 & ~umask)
        if os.path.lexists(out):
            old = stage.with_name(stage.name + ".old")
            os.rename(out, old)
            os.rename(stage, out)
            shutil.rmtree(old)
        else:
            os.rename(stage, out)
    finally:
        # after a successful rename the stage is gone and this does nothing
        if stage is not None:
            shutil.rmtree(stage, ignore_errors=True)
        # a failed run also removes the directories it made; rmdir spares a filled one
        if not os.path.lexists(out):
            for parent in made:
                with contextlib.suppress(OSError):
                    parent.rmdir()
    return notes + [f"wrote {n_files} files to {out}"]


def _cmd_bundle(args: argparse.Namespace, command: tuple[str, ...]) -> int:
    mode, keys, _ = _COMMANDS[command]
    cfg = _resolve(args, mode, keys)
    out = Path(args.out or Path(os.environ.get("AMM_LAB_OUT", "ammlab_out"))
               / (args.preset or mode))
    for line in _execute(command, cfg, out):
        print(line)
    return 0


def _manifest_config(cfg: dict, command: tuple[str, ...]) -> dict:
    """A manifest's config checked by the same casters as flags and config files."""
    mode, keys, _ = _COMMANDS[command]
    if set(cfg) != set(keys):
        raise ConfigError(f"manifest config keys {sorted(cfg)} do not match {mode}")

    strings = {k: ",".join(map(str, v)) if isinstance(v, list) else str(v) for k, v in cfg.items()}
    return _cast(mode, keys, strings)


def _cmd_replay(args: argparse.Namespace) -> int:
    path = Path(args.manifest)
    if path.is_dir():
        path = path / "manifest.json"
    manifest = _read_manifest(path)
    if manifest.get("version") != __version__:
        raise ConfigError(
            f"bundle written by ammlab {manifest.get('version')} cannot be replayed by "
            f"ammlab {__version__}: output bytes differ between versions; rerun the "
            "command to write a fresh bundle"
        )
    command = tuple(manifest["command"])
    if command not in _COMMANDS:
        raise ConfigError(f"manifest names unknown command {list(command)}")
    cfg = _manifest_config(manifest["config"], command)
    with tempfile.TemporaryDirectory() as tmp:
        bundle = Bundle(Path(tmp))
        _COMMANDS[command][2](cfg, bundle)
        fresh = {entry["path"]: entry["sha256"] for entry in bundle.seal(list(command), cfg)}
    stored = {entry["path"]: entry["sha256"] for entry in manifest["outputs"]}
    bundle_dir = path.parent
    mismatches = 0
    for name in sorted(set(stored) | set(fresh)):
        on_disk = bundle_dir / name
        if name not in fresh:
            line = f"MISSING   {name}"
        elif name not in stored:
            line = f"EXTRA     {name}"
        elif stored[name] != fresh[name]:
            line = f"MISMATCH  {name}"
        # the re-run agrees with the manifest; now check that the bundle on
        # disk was not edited after sealing
        elif not on_disk.is_file():
            line = f"MISSING   {name} (bundle file deleted)"
        elif hashlib.sha256(on_disk.read_bytes()).hexdigest() != stored[name]:
            line = f"MISMATCH  {name} (bundle file edited after sealing)"
        else:
            line = f"ok        {name}"
        print(line)
        mismatches += not line.startswith("ok")
    for name in sorted(p.name for p in bundle_dir.iterdir()):
        if name not in stored and name != path.name:
            print(f"EXTRA     {name} (not in manifest)")
            mismatches += 1
    if mismatches:
        print(f"replay differs in {mismatches} file(s)")
        return 1
    print("replay reproduced every file byte for byte")
    return 0


def _cmd_presets(args: argparse.Namespace) -> int:
    for name in preset_names():
        print(f"{name}\n    {get_preset(name).description}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_key_flags(parser: argparse.ArgumentParser, keys: tuple[str, ...]) -> None:
    for key in keys:
        parser.add_argument(
            "--" + key.replace("_", "-"),
            dest=key,
            default=None,
            metavar="V",
            help=f"{_KEYS[key][2]} (default {_KEYS[key][1] or 'empty'})",
        )


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", default=None, help="start from a named preset")
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="KEY=VALUE file applied over the preset")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="bundle directory (default $AMM_LAB_OUT/<name>)")
    _add_threads_flag(parser)


def _add_threads_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threads", type=int, default=None, metavar="N",
                        help="ignored; kept so older command lines still parse "
                             "(campaigns run on one thread)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ammlab",
        description="Monte Carlo and closed-form laboratory for constant-product "
                    "market-making losses",
    )
    parser.add_argument("--version", action="version", version=f"ammlab {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    groups = {}
    for command, (mode, keys, _) in _COMMANDS.items():
        group = command[0]
        if len(command) == 2 and group not in groups:
            gp = sub.add_parser(group, help=_GROUP_HELP[group])
            groups[group] = gp.add_subparsers(dest=f"{group}_cmd", required=True)
        # exact flags only, so a key a sweep leaves out (--fee) cannot pass for its list (--fees)
        p = groups.get(group, sub).add_parser(command[-1], help=f"run a {mode} study",
                                              allow_abbrev=False)
        _add_io_flags(p)
        _add_key_flags(p, keys)
        p.set_defaults(func=lambda a, c=command: _cmd_bundle(a, c))

    rp = sub.add_parser("replay", help="re-run a bundle's manifest and verify the bytes")
    rp.add_argument("manifest", help="bundle directory or manifest.json path")
    _add_threads_flag(rp)
    rp.set_defaults(func=_cmd_replay)

    lp = sub.add_parser("presets", help="list the canned study configurations")
    lp.set_defaults(func=_cmd_presets)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
