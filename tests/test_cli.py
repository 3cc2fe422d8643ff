"""Command-line front end: bundles, replay, config resolution, exit codes."""

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import ammlab
from ammlab import (
    ExperimentConfig,
    ILDistParams,
    ProcessKind,
    il_pdf,
    mean_stderr,
    pdf_bm,
    run_campaign,
    sample_il,
    sqrt_loss_range,
    sweep_fee,
    sweep_volume_vs_steps,
)
from ammlab import cli, harness, presets
from ammlab.cli import build_parser, main, read_config_file
from ammlab.presets import preset_names

SIM_ARGS = [
    "simulate",
    "--n-runs", "200",
    "--n-steps", "100",
    "--sigma", "0.004",
    "--fee", "0.002",
    "--seed", "7",
]


def _run_sim(out_dir, extra=()):
    rc = main(SIM_ARGS + ["--out", str(out_dir)] + list(extra))
    assert rc == 0
    return out_dir


# --------------------------------------------------------------------- parsing


def test_parser_builds_and_reports_version(capsys):
    build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "ammlab" in capsys.readouterr().out


def test_every_public_name_resolves():
    missing = [name for name in ammlab.__all__ if not hasattr(ammlab, name)]
    assert missing == []
    assert len(set(ammlab.__all__)) == len(ammlab.__all__)
    # the modules' __all__ lists are the one declaration of each public name
    modules = (ammlab.stochastic, ammlab.harness, ammlab.analytics,
               ammlab.presets, ammlab.stats, ammlab.errors)
    assert ammlab.__all__ == ["__version__", *(n for m in modules for n in m.__all__)]
    for module in modules:
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], module.__name__


def test_package_version_matches_pyproject():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert f'\nversion = "{ammlab.__version__}"\n' in pyproject


def test_campaign_commands_start_without_scipy(tmp_path):
    # scipy takes over a second to import; simulate and sweep never call it
    script = """
import sys
from ammlab.cli import build_parser, main
build_parser()
out = sys.argv[1]
small = ["--n-runs", "20", "--n-steps", "10", "--out"]
assert main(["simulate"] + small + [out + "/sim"]) == 0
assert main(["sweep", "fee", "--fees", "0.001,0.01"] + small + [out + "/fee"]) == 0
assert main(["analytic", "lvr-mean", "--out", out + "/lvr"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


_CAMPAIGN_FIELDS = {f.name for f in fields(ExperimentConfig)} - {"kind"} | {"process"}
_LAW_FIELDS = {f.name for f in fields(ILDistParams)}


@pytest.mark.parametrize("command, record, extra", [
    pytest.param(command, record, extra, id=" ".join(command))
    for command, record, extra in (
        # simulate bins the campaign table into the histograms it writes
        (("simulate",), _CAMPAIGN_FIELDS, {"bins"}),
        # a sweep leaves out what its campaigns set, and observables: it always runs the pool
        (("sweep", "fee"), _CAMPAIGN_FIELDS - {"fee", "observables"}, {"fees"}),
        (("sweep", "sigma"), _CAMPAIGN_FIELDS - {"sigma", "observables"}, {"sigmas"}),
        (("sweep", "steps"), _CAMPAIGN_FIELDS - {"sigma", "n_steps", "observables"},
         {"steps_list", "total_variance"}),
        (("analytic", "il-pdf"), _LAW_FIELDS, {"il_points"}),
        (("analytic", "il-mean"), _LAW_FIELDS, set()),
        (("analytic", "lvr-mean"), _LAW_FIELDS, set()),
        (("analytic", "sample-il"), _LAW_FIELDS, {"seed", "n_samples", "bins"}),
        (("analytic", "clt-sum"), _LAW_FIELDS, {"seed", "n_per_sum", "n_repeats", "bins"}),
    )
])
def test_command_keys_are_their_records_fields(command, record, extra):
    # a campaign record names the process `kind`; every command names it `process`, first
    keys = cli._COMMANDS[command][1]
    assert keys[0] == "process"
    assert len(set(keys)) == len(keys)
    assert set(keys) == record | extra


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_bad_flag_value_exits_2(tmp_path, capsys):
    rc = main(["simulate", "--sigma", "abc", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "expected a number" in capsys.readouterr().err


@pytest.mark.parametrize("argv, key", [
    (["simulate", "--sigma", "nan"], "sigma"),
    (["simulate", "--p0", "inf"], "p0"),
    (["sweep", "fee", "--fees", "0.001,nan"], "fees"),
], ids=["sigma-nan", "p0-inf", "fees-nan"])
def test_non_finite_number_exits_2(tmp_path, capsys, argv, key):
    rc = main(argv + ["--out", str(tmp_path / "x")])
    assert rc == 2
    assert f"{key}: expected a finite number" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv, message", [
    (["analytic", "il-mean", "--sigma", "0"], "sigma and t must be positive"),
    (["analytic", "il-mean", "--t", "-1"], "sigma and t must be positive"),
    (["analytic", "il-pdf", "--liquidity", "-1"], "p0 and liquidity must be positive"),
    (["analytic", "il-pdf", "--il-points", "-1"], "il_points must be at least 2, got -1"),
    (["analytic", "il-pdf", "--il-points", "1"], "il_points must be at least 2, got 1"),
    pytest.param(["analytic", "lvr-mean", "--sigma", "0"], "sigma and t must be positive",
                 id="analytic lvr-mean --sigma 0"),
    (["analytic", "lvr-mean", "--t", "0.4"], "t must be a whole number under gbm, got 0.4"),
    (["analytic", "lvr-mean", "--t", "2.5"], "t must be a whole number under gbm, got 2.5"),
    (["analytic", "first-passage", "--n-walks", "0"], "n_walks must be positive, got 0"),
    (["analytic", "first-passage", "--k-list", "3"], "need at least two distinct positive k_list"),
    (["analytic", "sample-il", "--n-samples", "0"], "n must be positive, got 0"),
    (["analytic", "sample-il", "--bins", "0"], "bins must be positive, got 0"),
    (["analytic", "clt-sum", "--n-per-sum", "0"], "n_per_sum and n_repeats must be positive"),
    (["analytic", "clt-sum", "--bins", "0"], "bins must be positive, got 0"),
    (["analytic", "first-passage", "--k-list", "3,3"],
     "need at least two distinct positive k_list"),
    (["sweep", "fee", "--fees", "0.001", "--sigma", "0"], "fee sweep needs a positive sigma"),
    (["sweep", "sigma", "--sigmas", "0.001,0.001"], "need at least two distinct positive"),
    (["sweep", "steps", "--steps-list", "10,10"], "need at least two distinct positive"),
    (["sweep", "sigma"], "need at least two distinct positive volatilities"),
    (["sweep", "steps"], "need at least two distinct positive step counts"),
    *(pytest.param(argv, message, id=" ".join(argv)) for argv, message in (
        (["analytic", "sample-il", "--seed", "-1"], "seed must fit in an unsigned 64-bit integer"),
        (["analytic", "clt-sum", "--seed", "-1"], "seed must fit in an unsigned 64-bit integer"),
        (["analytic", "first-passage", "--seed", "-1"], "seed must fit in an unsigned 64-bit"),
        (["analytic", "first-passage", "--k-list=", "--seed", "-1"], "seed must fit in an"),
        (["simulate", "--seed", str(2**64)], "seed must fit in an unsigned 64-bit integer"),
        (["simulate", "--bins", "0"], "bins must be positive, got 0"),
    )),
    (["simulate", "--observables", "prices", "--sigma", "0"],
     "price-density campaigns compare with the analytic density, so sigma^2 n_steps must be "
     "positive, got sigma = 0.0"),
    (["simulate", "--observables", "prices", "--process", "both", "--sigma", "0"],
     "price-density campaigns compare with the analytic density, so sigma^2 n_steps must be "
     "positive, got sigma = 0.0"),
    (["simulate", "--observables", "prices", "--sigma", "1e-170"],
     "price-density campaigns compare with the analytic density, so sigma^2 n_steps must be "
     "positive, got sigma = 1e-170"),
    # the endpoint-loss laws refuse a t, sigma^2 or sigma^2 t below the normal doubles
    *(pytest.param(argv, message, id=" ".join(argv)) for argv, message in (
        *((["analytic", command, "--sigma", "1e160", "--t", "1e-320"],
          "t = 9.99989e-321 is below the smallest normal double 2.22507e-308 (sigma = 1e+160")
          for command in ("il-mean", "il-pdf", "sample-il", "clt-sum")),
        (["analytic", "il-mean", "--sigma", "1e-160", "--t", "1e300"],
         "sigma^2 = 9.99989e-321 is below the smallest normal double 2.22507e-308 "
         "(sigma = 1e-160, t = 1e+300)"),
        (["analytic", "il-mean", "--process", "bm", "--sigma", "1e-100", "--t", "1e-120"],
         "sigma^2 t = 9.99989e-321 is below the smallest normal double"),
    )),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_library_input_check_exits_2(tmp_path, capsys, argv, message):
    rc = main(argv + ["--out", str(tmp_path / "x")])
    assert rc == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    pytest.param(argv, id=" ".join(argv)) for argv in (
        ["--p0", "0"],
        ["--liquidity", "-1"],
        ["--sigma", "0"],
        ["--t", "-1"],
        ["--sigma", "1e160", "--t", "1e-320"],
        ["--sigma", "1e-160", "--t", "1e300"],
        ["--process", "bm", "--sigma", "1e-100", "--t", "1e-120"],
    )
])
def test_il_mean_and_lvr_mean_refuse_the_same_laws(tmp_path, capsys, argv):
    # the two means the regimes are read from check one law record
    answers = []
    for command in ("il-mean", "lvr-mean"):
        rc = main(["analytic", command, *argv, "--out", str(tmp_path / "x")])
        answers.append((rc, capsys.readouterr().err))
    assert answers[0] == answers[1]
    rc, err = answers[0]
    assert rc == 2 and err.startswith("config error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    pytest.param(argv, id=" ".join(argv)) for argv in (
        ["--process", "bm", "--sigma", "0.5", "--t", "1"],
        ["--sigma", "3", "--t", "30"],
    )
])
def test_lvr_mean_takes_a_law_whose_loss_integrals_il_mean_refuses(tmp_path, capsys, argv):
    # the two share ILDistParams' rules only: the leak and tail limits are the loss integrals'
    assert main(["analytic", "lvr-mean", *argv, "--out", str(tmp_path / "lvr")]) == 0
    capsys.readouterr()
    assert main(["analytic", "il-mean", *argv, "--out", str(tmp_path / "il")]) == 4
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert not (tmp_path / "il").exists()


@pytest.mark.parametrize("argv, code", [
    pytest.param(argv, code, id=" ".join(argv)) for argv, code in (
        (["simulate", "--n-runs", "0"], 2),
        (["simulate", "--sigma", "1e200", "--n-runs", "10", "--n-steps", "10"], 4),
    )
])
def test_a_refused_run_removes_the_directories_it_made(tmp_path, capsys, argv, code):
    assert main(argv + ["--out", str(tmp_path / "missing" / "deep" / "b")]) == code
    assert list(tmp_path.iterdir()) == []


def test_out_below_a_file_exits_2(tmp_path, capsys):
    (tmp_path / "afile").write_text("x\n")
    before = _tree(tmp_path)
    out = tmp_path / "afile" / "sub"
    assert main(["simulate", "--n-runs", "10", "--n-steps", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create bundle directory {out}: ")
    assert err.count("\n") == 1  # no traceback
    assert _tree(tmp_path) == before


def test_plain_value_error_is_not_a_config_error(tmp_path, capsys, monkeypatch):
    def broken_runner(cfg, out):
        raise ValueError("internal slip")

    command = ("analytic", "lvr-mean")
    mode, keys, _ = cli._COMMANDS[command]
    monkeypatch.setitem(cli._COMMANDS, command, (mode, keys, broken_runner))
    with pytest.raises(ValueError, match="internal slip"):
        main(["analytic", "lvr-mean", "--out", str(tmp_path / "x")])
    assert "config error" not in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bad_choice_exits_2(tmp_path, capsys):
    rc = main(["simulate", "--target", "midpoint", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "expected one of" in capsys.readouterr().err


# --------------------------------------------------------------- config files


def test_config_file_overrides_defaults(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("# comment line\n\nsigma = 0.008\nn_runs=50\nn_steps=60\n")
    out = tmp_path / "bundle"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    stored = json.loads((out / "summary.json").read_text())["config"]
    assert stored["sigma"] == 0.008
    assert stored["n_runs"] == 50


def test_config_file_unknown_key_names_the_line(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("sigma=0.01\nvolatility=0.02\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{cfg}:2" in err
    assert "volatility" in err


def test_unreadable_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    rc = main(SIM_ARGS + ["--config", str(missing), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert f"config error: cannot read config file {missing}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_integer_flag_in_whole_float_form_runs(tmp_path):
    out = tmp_path / "x"
    assert main(["simulate", "--n-runs", "1e3", "--n-steps", "10", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["n_runs"] == 1000
    assert len((out / "table.csv").read_text().splitlines()) == 1001


def test_integer_flag_with_a_fraction_exits_2(tmp_path, capsys):
    rc = main(["simulate", "--n-runs", "2.5", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "config error: n_runs: expected an integer, got '2.5'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_integer_flag_in_float_form_is_read_exactly(tmp_path, capsys):
    # through a double, 2**53 + 1 would run as 2**53, 2**64 - 1 as 2**64 and 3 + 1e-16 as 3
    args = ["simulate", "--n-runs", "3", "--n-steps", "10"]
    assert main(args + ["--seed", "9007199254740993", "--out", str(tmp_path / "int")]) == 0
    assert main(args + ["--seed", "9007199254740993.0", "--out", str(tmp_path / "float")]) == 0
    assert _tree(tmp_path / "int") == _tree(tmp_path / "float")
    out = tmp_path / "top"
    assert main(args + ["--seed", "1.8446744073709551615e19", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == 2**64 - 1
    capsys.readouterr()
    rc = main(["simulate", "--n-runs", "3.0000000000000001", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert ("config error: n_runs: expected an integer, got '3.0000000000000001'"
            in capsys.readouterr().err)
    rc = main(["simulate", "--n-runs", "1e400", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "config error: n_runs: expected a finite number, got '1e400'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_config_file_bad_syntax_names_the_line(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("sigma 0.01\n")
    with pytest.raises(Exception, match=":1"):
        read_config_file(str(cfg))


def test_flags_beat_config_file(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("sigma=0.008\nn_runs=50\nn_steps=60\n")
    out = tmp_path / "bundle"
    rc = main(["simulate", "--config", str(cfg), "--sigma", "0.002", "--out", str(out)])
    assert rc == 0
    stored = json.loads((out / "summary.json").read_text())["config"]
    assert stored["sigma"] == 0.002


# --------------------------------------------------------------------- bundles


def test_simulate_writes_a_complete_bundle(tmp_path):
    out = _run_sim(tmp_path / "b")
    names = {p.name for p in out.iterdir()}
    expected = {
        "manifest.json", "schema.json", "summary.json", "table.csv",
        "hist_il.json", "hist_lvr.json", "hist_volume.json", "hist_fees.json",
        "hist_il_minus_fees.json", "hist_lvr_minus_fees.json", "hist_final_price.json",
    }
    assert names == expected
    table = (out / "table.csv").read_text().splitlines()
    assert table[0] == "run_index,il,lvr,volume,fees,n_arb_events,final_price"
    assert len(table) == 201


def test_manifest_digests_match_the_files(tmp_path):
    out = _run_sim(tmp_path / "b")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "ammlab"
    listed = {e["path"] for e in manifest["outputs"]}
    assert "schema.json" in listed
    for entry in manifest["outputs"]:
        digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"], entry["path"]


def test_bundles_are_byte_identical_across_runs_and_threads(tmp_path):
    a = _run_sim(tmp_path / "a", ["--threads", "1"])
    b = _run_sim(tmp_path / "b", ["--threads", "4"])
    for p in sorted(a.iterdir()):
        assert (b / p.name).read_bytes() == p.read_bytes(), p.name


def test_csv_cells_round_trip_to_the_exact_double(tmp_path):
    out = _run_sim(tmp_path / "b")
    config = ExperimentConfig(
        kind=ProcessKind.GBM, p0=100.0, sigma=0.004, n_steps=100,
        liquidity=10000.0, n_runs=200, seed=7, fee=0.002,
    )
    result = run_campaign(config)
    lines = (out / "table.csv").read_text().splitlines()[1:]
    for i in (0, 57, 199):
        cells = lines[i].split(",")
        assert int(cells[0]) == i
        assert float(cells[1]) == result.table[i, 0]
        assert float(cells[2]) == result.table[i, 1]
        assert float(cells[6]) == result.table[i, 5]


def test_csv_cells_print_integers_as_str_does_and_floats_at_17_digits(tmp_path):
    row = [7, np.int64(2**53 - 1), np.float64(0.1), math.nan, math.inf, -math.inf, -0.0,
           np.float64(5e-324), 2.5]
    cli.Bundle(tmp_path).write_csv("t.csv", list("abcdefghi"), [row], "mixed cells")
    assert (tmp_path / "t.csv").read_text().splitlines() == [
        "a,b,c,d,e,f,g,h,i",
        "7,9007199254740991,0.10000000000000001,nan,inf,-inf,-0,4.9406564584124654e-324,2.5",
    ]


def test_csv_rows_are_streamed_to_the_file(tmp_path):
    rows = ([i, i / 3.0, math.pi * i, 1.0 / (i + 1), i * 1e-7] for i in range(100_000))
    tracemalloc.start()
    try:
        cli.Bundle(tmp_path).write_csv("t.csv", list("abcde"), rows, "streamed rows")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "t.csv").stat().st_size / 10


def test_a_campaign_table_is_written_without_a_copy(tmp_path, monkeypatch):
    # no histograms, so writing table.csv is all the call does; a list of the
    # whole table would hold about 256 bytes a run next to its 48
    n_runs = 200_000
    table = np.random.default_rng(0).standard_normal((n_runs, len(harness.TABLE_COLUMNS)))
    monkeypatch.setattr(cli, "run_campaign", lambda conf: harness.CampaignResult(table, {}))
    monkeypatch.setitem(cli._HISTOGRAMS, harness.Observables.POOL, ())
    conf = ExperimentConfig(kind=ProcessKind.GBM, p0=1.0, sigma=0.01, n_steps=10,
                            liquidity=1.0, n_runs=n_runs)
    tracemalloc.start()
    try:
        cli._write_campaign(conf, 10, "", cli.Bundle(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "table.csv").read_text().splitlines()) == n_runs + 1
    assert peak < table.nbytes / 10


def test_streaming_is_an_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("streaming=true\n")
    rc = main(SIM_ARGS + ["--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "unknown key 'streaming'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(SIM_ARGS + ["--streaming", "true", "--out", str(tmp_path / "y")])
    assert exc.value.code == 2


def test_both_processes_share_seeds_and_compare(tmp_path):
    out = tmp_path / "b"
    rc = main([
        "simulate", "--process", "both", "--n-runs", "100", "--n-steps", "80",
        "--sigma", "0.002", "--seed", "11", "--out", str(out),
    ])
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert {"bm_summary.json", "gbm_summary.json", "compare.json",
            "bm_table.csv", "gbm_table.csv"} <= names
    compare = json.loads((out / "compare.json").read_text())
    assert set(compare) == {"bm", "gbm"}


def test_price_observables_bundle(tmp_path):
    out = tmp_path / "b"
    rc = main([
        "simulate", "--process", "bm", "--observables", "prices",
        "--sigma", "0.05", "--n-steps", "400", "--n-runs", "500",
        "--seed", "13", "--out", str(out),
    ])
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert "price_density.csv" in names
    assert "table.csv" not in names
    header = (out / "price_density.csv").read_text().splitlines()[0]
    assert header == "price,bin_width,count,empirical_density,analytic_density"


def test_out_dir_defaults_to_env_root(tmp_path, monkeypatch):
    monkeypatch.setenv("AMM_LAB_OUT", str(tmp_path / "root"))
    rc = main(["analytic", "il-mean"])
    assert rc == 0
    assert (tmp_path / "root" / "il-mean" / "analytic.json").exists()


# ---------------------------------------------------------------------- replay


def test_replay_reproduces_a_bundle(tmp_path, capsys):
    out = _run_sim(tmp_path / "b")
    capsys.readouterr()
    rc = main(["replay", str(out)])
    assert rc == 0
    assert "byte for byte" in capsys.readouterr().out


def test_replay_detects_corruption(tmp_path, capsys):
    out = _run_sim(tmp_path / "b")
    table = out / "table.csv"
    table.write_bytes(table.read_bytes() + b"tampered\n")
    capsys.readouterr()
    rc = main(["replay", str(out)])
    assert rc == 1
    assert "MISMATCH  table.csv" in capsys.readouterr().out


def test_replay_flags_files_the_manifest_does_not_list(tmp_path, capsys):
    out = tmp_path / "b"
    common = ["--n-runs", "50", "--n-steps", "40", "--seed", "3", "--out", str(out)]
    assert main(["simulate", "--process", "both"] + common) == 0
    assert main(["simulate", "--process", "gbm"] + common) == 0
    listed = {e["path"] for e in json.loads((out / "manifest.json").read_text())["outputs"]}
    assert {p.name for p in out.iterdir()} == listed | {"manifest.json"}
    capsys.readouterr()
    assert main(["replay", str(out)]) == 0
    (out / "stray.txt").write_text("not sealed\n")
    capsys.readouterr()
    rc = main(["replay", str(out)])
    assert rc == 1
    text = capsys.readouterr().out
    stale = [line for line in text.splitlines() if line.endswith("(not in manifest)")]
    assert stale == ["EXTRA     stray.txt (not in manifest)"]
    assert "ok        table.csv" in text


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


def test_rerun_replaces_the_bundle_whole(tmp_path, capsys):
    out = tmp_path / "b"
    common = ["--n-runs", "50", "--n-steps", "40", "--seed", "3", "--out", str(out)]
    out.mkdir()  # an empty directory is replaced too
    assert main(["simulate", "--process", "both"] + common) == 0
    capsys.readouterr()
    assert main(["simulate", "--process", "gbm"] + common) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote 11 files to {out}"
    fresh = tmp_path / "fresh"
    assert main(["simulate", "--process", "gbm"] + common[:-1] + [str(fresh)]) == 0
    assert _tree(out) == _tree(fresh)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b", "fresh"]
    (tmp_path / "made-by-mkdir").mkdir()
    assert out.stat().st_mode == (tmp_path / "made-by-mkdir").stat().st_mode


def test_failed_run_leaves_an_existing_bundle_untouched(tmp_path, capsys):
    out = _run_sim(tmp_path / "b")
    before = _tree(out)
    rc = main(["simulate", "--n-runs", "100000000", "--n-steps", "10", "--out", str(out)])
    assert rc == 3
    assert _tree(out) == before
    assert [p.name for p in tmp_path.iterdir()] == ["b"]


def _foreign_manifest(d):
    d.mkdir()
    (d / "manifest.json").write_text('{"outputs": [{"path": "data.csv"}]}')
    (d / "data.csv").write_text("1,2\n")


_LISTS = "is not a file its manifest lists"


@pytest.mark.parametrize("setup, reason", [
    (lambda d: (d.mkdir(), (d / "notes.txt").write_text("mine\n")),
     f" is not a bundle directory (notes.txt {_LISTS})"),
    (lambda d: (_run_sim(d), (d / "extra.csv").write_text("1\n")),
     f" is not a bundle directory (extra.csv {_LISTS})"),
    (lambda d: (_run_sim(d), (d / "sub").mkdir()), f" is not a bundle directory (sub {_LISTS})"),
    (lambda d: d.write_text("a file\n"), " is not a bundle directory; refusing"),
    # a manifest of another shape is refused, not trusted to list what may be replaced
    (_foreign_manifest, "/manifest.json is not a bundle manifest"),
], ids=["plain-dir", "bundle-plus-file", "bundle-plus-dir", "file", "foreign-manifest"])
def test_out_that_is_not_a_bundle_is_refused(tmp_path, capsys, setup, reason):
    out = tmp_path / "b"
    setup(out)
    before = _tree(tmp_path)
    capsys.readouterr()
    rc = main(SIM_ARGS + ["--out", str(out)])
    assert rc == 2
    assert f"config error: {out}{reason}" in capsys.readouterr().err
    assert _tree(tmp_path) == before


def _edit_manifest(out, edit):
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _edit_manifest_config(out, **changes):
    _edit_manifest(out, lambda manifest: manifest["config"].update(changes))


def test_replay_refuses_a_manifest_with_streaming_on(tmp_path, capsys):
    # streaming mode left before 0.2.0, and older bundles are refused by
    # version, so a streaming key in either state is an unknown key
    for value in (True, False):
        out = _run_sim(tmp_path / f"b{value}")
        _edit_manifest_config(out, streaming=value)
        capsys.readouterr()
        assert main(["replay", str(out)]) == 2
        assert "manifest config keys" in capsys.readouterr().err


def test_replay_refuses_a_manifest_with_a_bad_config_value(tmp_path, capsys):
    out = _run_sim(tmp_path / "b")
    _edit_manifest_config(out, band_rule="midpoint")
    capsys.readouterr()
    assert main(["replay", str(out)]) == 2
    assert "band_rule: expected one of" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    pytest.param(argv, id=" ".join(argv)) for argv in (
        ["simulate", "--n-runs", "3", "--n-steps", "10"],
        ["sweep", "fee", "--fees", "0.001,0.002", "--n-runs", "3", "--n-steps", "10"],
        ["sweep", "sigma", "--sigmas", "0.001,0.002", "--n-runs", "3", "--n-steps", "10"],
        ["sweep", "steps", "--steps-list", "10,20", "--n-runs", "3"],
        ["analytic", "sample-il", "--n-samples", "100"],
        ["analytic", "clt-sum", "--n-per-sum", "10", "--n-repeats", "10"],
        ["analytic", "first-passage", "--k-list", "2,3", "--n-walks", "50"],
        ["analytic", "first-passage", "--k-list=", "--lower", "-2", "--upper", "2",
         "--n-walks", "50"],
    )
])
def test_every_seeded_command_refuses_a_bad_seed_live_and_in_replay(tmp_path, capsys, argv):
    line = "config error: seed must fit in an unsigned 64-bit integer, got -1\n"
    assert main(argv + ["--seed", "-1", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == line
    assert list(tmp_path.iterdir()) == []
    out = tmp_path / "b"
    assert main(argv + ["--out", str(out)]) == 0
    _edit_manifest_config(out, seed=-1)
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main(["replay", str(out)]) == 2
    assert capsys.readouterr().err == line
    assert _tree(tmp_path) == before


def test_replay_refuses_a_bundle_from_another_version(tmp_path, capsys):
    out = _run_sim(tmp_path / "b")
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["version"] = "0.1.0"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    capsys.readouterr()
    assert main(["replay", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"written by ammlab 0.1.0 cannot be replayed by ammlab {ammlab.__version__}" in err
    assert "output bytes differ between versions" in err


def _entry(manifest, name):
    return next(entry for entry in manifest["outputs"] if entry["path"] == name)


@pytest.mark.parametrize("edit, verdicts", [
    (lambda out, m: _entry(m, "table.csv").update(sha256="0" * 64), ["MISMATCH  table.csv"]),
    (lambda out, m: m["outputs"].append({"path": "ghost.csv", "sha256": "0" * 64}),
     ["MISSING   ghost.csv"]),
    (lambda out, m: m["outputs"].remove(_entry(m, "table.csv")),
     ["EXTRA     table.csv", "EXTRA     table.csv (not in manifest)"]),
    (lambda out, m: (out / "table.csv").unlink(), ["MISSING   table.csv (bundle file deleted)"]),
], ids=["digest-changed", "ghost-entry", "entry-dropped", "file-deleted"])
def test_replay_names_each_file_that_differs(tmp_path, capsys, edit, verdicts):
    out = _run_sim(tmp_path / "b")
    _edit_manifest(out, lambda manifest: edit(out, manifest))
    capsys.readouterr()
    assert main(["replay", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith("ok")] == [
        *verdicts, f"replay differs in {len(verdicts)} file(s)"]


def test_replay_refuses_an_unknown_command(tmp_path, capsys):
    out = _run_sim(tmp_path / "b")
    _edit_manifest(out, lambda manifest: manifest.update(command=["simulate", "twice"]))
    capsys.readouterr()
    assert main(["replay", str(out)]) == 2
    captured = capsys.readouterr()
    assert "config error: manifest names unknown command ['simulate', 'twice']" in captured.err
    assert captured.out == ""


_SINGLE_PROCESS = [command for command, (_, keys, _) in cli._COMMANDS.items()
                   if "process" in keys and command != ("simulate",)]


@pytest.mark.parametrize("source", ["flag", "config", "replay"])
@pytest.mark.parametrize("command", _SINGLE_PROCESS, ids="-".join)
def test_process_both_is_for_simulate_only(tmp_path, capsys, command, source):
    mode, keys, _ = cli._COMMANDS[command]
    out = tmp_path / "b"
    if source == "flag":
        argv = [*command, "--process", "both", "--out", str(out)]
    elif source == "config":
        (tmp_path / "both.conf").write_text("process=both\n")
        argv = [*command, "--config", str(tmp_path / "both.conf"), "--out", str(out)]
    else:
        out.mkdir()
        config = {k: cli._KEYS[k][1] for k in keys} | {"process": "both"}
        manifest = {"tool": "ammlab", "version": ammlab.__version__, "command": list(command),
                    "config": config, "outputs": []}
        (out / "manifest.json").write_text(json.dumps(manifest))
        argv = ["replay", str(out)]
    before = _tree(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"config error: {mode} needs process=bm or process=gbm" in captured.err
    assert captured.out == ""
    assert _tree(tmp_path) == before


def test_replay_missing_manifest_exits_2(tmp_path):
    rc = main(["replay", str(tmp_path / "nowhere")])
    assert rc == 2


@pytest.mark.parametrize("edit", [
    lambda m: [m],
    lambda m: {k: v for k, v in m.items() if k != "command"},
    lambda m: {**m, "command": "simulate"},
    lambda m: {**m, "command": [["simulate"]]},
    lambda m: {**m, "config": []},
    lambda m: {k: v for k, v in m.items() if k != "outputs"},
    lambda m: {**m, "outputs": {"table.csv": "00"}},
    lambda m: {**m, "outputs": [{"path": "table.csv"}]},
    lambda m: {**m, "outputs": [{"path": 7, "sha256": "00"}]},
    lambda m: {"outputs": [{"path": "data.csv"}]},
], ids=["list", "no-command", "command-str", "command-nested", "config-list",
        "no-outputs", "outputs-dict", "entry-no-digest", "entry-int-path", "foreign"])
def test_replay_refuses_a_malformed_manifest(tmp_path, capsys, edit):
    out = _run_sim(tmp_path / "b")
    path = out / "manifest.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    capsys.readouterr()
    assert main(["replay", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"{path} is not a bundle manifest" in captured.err
    assert captured.out == ""  # refused before the command re-runs


# --------------------------------------------------------------------- presets


def test_presets_listing(capsys):
    rc = main(["presets"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in preset_names():
        assert name in out


def test_preset_with_overrides_runs_small(tmp_path):
    out = tmp_path / "b"
    rc = main([
        "simulate", "--preset", "fig-lvril-nofee",
        "--n-runs", "80", "--n-steps", "50", "--out", str(out),
    ])
    assert rc == 0
    stored = json.loads((out / "summary.json").read_text())["config"]
    assert stored["n_runs"] == 80


def test_preset_under_the_wrong_command_exits_2(tmp_path, capsys):
    rc = main(["simulate", "--preset", "fig-rwbarrier", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "run it under that command" in capsys.readouterr().err


@pytest.mark.parametrize("layer, message", [
    ("preset", "preset 'probe' is a sweep-fee study; run it under that command"),
    ("config", "{source} is a sweep-fee study; run it under that command"),
    ("preset-key", "preset 'probe' sets 'fees', unused by simulate"),
    ("config-key", "{source} sets 'fees', unused by simulate"),
])
def test_layer_for_another_command_exits_2(tmp_path, capsys, monkeypatch, layer, message):
    # presets and config files share one rule: the mode must match the
    # command, and every key must be one that mode uses
    settings = {"mode": "sweep-fee"} if layer in ("preset", "config") else {"fees": "0.001"}
    source = tmp_path / "study.cfg"
    if layer.startswith("preset"):
        monkeypatch.setitem(presets.PRESETS, "probe", presets._preset("probe", "", **settings))
        flags = ["--preset", "probe"]
    else:
        source.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
        flags = ["--config", str(source)]
    rc = main(["simulate", *flags, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert f"config error: {message.format(source=source)}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_unknown_preset_exits_2(tmp_path, capsys):
    rc = main(["simulate", "--preset", "fig-nope", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "unknown preset" in capsys.readouterr().err


# ------------------------------------------------------------------- analytics


def test_il_mean_command(tmp_path, capsys):
    out = tmp_path / "b"
    rc = main(["analytic", "il-mean", "--sigma", "0.001", "--t", "1000", "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "analytic.json").read_text())
    assert payload["small_sigma_mean"] == pytest.approx(0.25, rel=1e-12)
    assert payload["mean_via_price_integral"] == pytest.approx(0.25, rel=2e-3)
    assert payload["mean_via_density"] == pytest.approx(
        payload["mean_via_price_integral"], rel=1e-3
    )
    assert payload["regime"] == "short"
    assert "mean endpoint loss" in capsys.readouterr().out
    # the any-horizon closed form exists for the multiplicative law only
    assert payload["gbm_any_horizon_mean"] == pytest.approx(0.25, rel=2e-3)
    bm = tmp_path / "bm"
    rc = main(["analytic", "il-mean", "--process", "bm", "--sigma", "0.001", "--t", "1000",
               "--out", str(bm)])
    assert rc == 0
    payload = json.loads((bm / "analytic.json").read_text())
    assert payload["params"]["process"] == "bm"
    assert payload["mean_via_density"] == pytest.approx(
        payload["mean_via_price_integral"], rel=1e-3
    )
    assert "gbm_any_horizon_mean" not in payload


@pytest.mark.parametrize("command, sigma, leak", [
    ("il-pdf", "1", "0.159"),
    ("il-mean", "0.3", "0.000429"),
])
def test_analytic_commands_refuse_a_leaking_additive_law(tmp_path, capsys, command, sigma,
                                                         leak):
    out = tmp_path / "b"
    assert main(["analytic", "il-mean", "--process", "bm", "--sigma", "0.1", "--t", "1",
                 "--out", str(out)]) == 0
    before = _tree(tmp_path)
    capsys.readouterr()
    rc = main(["analytic", command, "--process", "bm", "--sigma", sigma, "--t", "1",
               "--out", str(out)])
    assert rc == 4
    captured = capsys.readouterr()
    assert (f"numerical failure: the additive price law puts {leak} of its mass below zero"
            in captured.err)
    assert captured.out == ""
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("argv", [
    *(pytest.param(["--sigma", sigma], id=sigma) for sigma in ("0.12", "0.14", "0.16")),
    # a first pass that misses the bulk returns a small value with a smaller error
    # estimate, so the convergence test must be relative at every liquidity
    *(pytest.param(["--sigma", "0.12", "--liquidity", liq], id=f"0.12 --liquidity {liq}")
      for liq in ("1", "0.01")),
])
def test_additive_law_just_inside_the_leak_bound_converges(tmp_path, argv):
    # sigma sqrt(t) up to 0.167 leaks under 1e-9 below zero; there the clamped
    # lower price stretches the loss-mean range to about 1e6, which one
    # quadrature pass misses.  Both mean routes cut the log-divergent tail at
    # p -> 0 at different points, so they agree to 1e-4, not 1e-9.
    out = tmp_path / "b"
    rc = main(["analytic", "il-mean", "--process", "bm", *argv, "--t", "1",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "analytic.json").read_text())
    # independent reference: the trapezoid rule in u = sqrt(il) on 4096
    # log-spaced knots over the same range, normalised by its own mass; at
    # u = 0 both branches collapse onto p0 and 2 u pdf(u^2) tends to
    # 4 p0^(5/4) rho(p0) / sqrt(L)
    params = ILDistParams(**payload["params"])
    u_max = sqrt_loss_range(params)
    u = np.concatenate(([0.0], np.geomspace(u_max * 1e-10, u_max, 4095)))
    density_u = np.concatenate((
        [4.0 * params.p0**1.25 / math.sqrt(params.liquidity)
         * pdf_bm(params.p0, params.p0, params.sigma, params.t)],
        2.0 * u[1:] * il_pdf(u[1:] ** 2, params),
    ))
    trapezoid_mean = np.trapezoid(u * u * density_u, u) / np.trapezoid(density_u, u)
    assert payload["mean_via_density"] == pytest.approx(trapezoid_mean, rel=1e-8)
    assert payload["mean_via_density"] == pytest.approx(payload["mean_via_price_integral"],
                                                        rel=1e-4)


def test_lvr_mean_command_includes_any_horizon_form(tmp_path):
    out = tmp_path / "b"
    rc = main([
        "analytic", "lvr-mean", "--sigma", "0.02", "--t", "1000", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads((out / "analytic.json").read_text())
    assert payload["regime"] == "intermediate"
    assert payload["gbm_any_horizon_mean"] == pytest.approx(107.881, rel=1e-4)


def test_il_pdf_command_normalizes(tmp_path):
    out = tmp_path / "b"
    rc = main([
        "analytic", "il-pdf", "--sigma", "0.1", "--t", "1", "--il-points", "800",
        "--out", str(out),
    ])
    assert rc == 0
    meta = json.loads((out / "pdf_meta.json").read_text())
    assert meta["mass_under_tabulated_points"] == pytest.approx(1.0, abs=1e-3)
    lines = (out / "il_pdf.csv").read_text().splitlines()
    assert lines[0] == "il,pdf,cdf"
    assert len(lines) == 801
    assert float(lines[-1].split(",")[2]) == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("t", ["15", "30"])
def test_loss_law_commands_run_in_the_long_regime(tmp_path, t):
    # sigma^2 t well past 1: the cdf and the draws come from the price law,
    # so they hold wherever the mean quadratures do
    law = ["--sigma", "1", "--t", t]
    assert main(["analytic", "il-pdf", *law, "--out", str(tmp_path / "pdf")]) == 0
    assert main(["analytic", "sample-il", *law, "--n-samples", "2000",
                 "--out", str(tmp_path / "sample")]) == 0
    assert main(["analytic", "clt-sum", *law, "--n-per-sum", "10", "--n-repeats", "200",
                 "--out", str(tmp_path / "clt")]) == 0
    cdf = np.loadtxt(tmp_path / "pdf" / "il_pdf.csv", delimiter=",", skiprows=1)[:, 2]
    assert np.all(np.diff(cdf) >= 0.0)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-6)
    # the grid starts below the law's mass, not at a fraction of its mean, so the
    # tabulated density holds the whole law
    assert cdf[0] <= 1e-10
    meta = json.loads((tmp_path / "pdf" / "pdf_meta.json").read_text())
    assert meta["mass_under_tabulated_points"] == pytest.approx(cdf[-1] - cdf[0], abs=5e-4)


def test_sample_il_command(tmp_path):
    out = tmp_path / "b"
    rc = main([
        "analytic", "sample-il", "--n-samples", "5000", "--sigma", "0.1",
        "--t", "1", "--seed", "21", "--bins", "30", "--out", str(out),
    ])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    stderr = summary["sample_stderr"]
    assert abs(summary["sample_mean"] - summary["mean_via_density"]) < 4 * stderr
    lines = (out / "samples.csv").read_text().splitlines()
    assert len(lines) == 5001


def test_clt_sum_command(tmp_path):
    out = tmp_path / "b"
    rc = main([
        "analytic", "clt-sum", "--n-per-sum", "8", "--n-repeats", "500",
        "--sigma", "0.1", "--t", "1", "--seed", "22", "--bins", "7", "--out", str(out),
    ])
    assert rc == 0
    assert len(json.loads((out / "hist_sums.json").read_text())["counts"]) == 7
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mean"] == pytest.approx(
        summary["expected_mean"], abs=5 * summary["stderr_of_mean"]
    )


@pytest.mark.parametrize("n_repeats", [1000, 1])
def test_clt_sum_stderr_is_that_of_the_sums(tmp_path, n_repeats):
    # the standard error of the mean sum is mean_stderr's, ddof 1, of the same sums
    out = tmp_path / "b"
    assert main(["analytic", "clt-sum", "--sigma", "0.1", "--n-per-sum", "100",
                 "--n-repeats", str(n_repeats), "--seed", "3", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    params = ILDistParams(**summary["params"])
    sums = sample_il(params, 100 * n_repeats, 3).reshape(n_repeats, 100).sum(axis=1)
    mean, stderr = mean_stderr(sums)
    assert summary["mean"] == pytest.approx(mean, rel=1e-12)
    assert summary["stderr_of_mean"] == pytest.approx(stderr, rel=1e-12, abs=0.0)


def test_first_passage_single_pair(tmp_path):
    out = tmp_path / "b"
    rc = main([
        "analytic", "first-passage", "--k-list", "", "--n-walks", "3000",
        "--lower", "-10", "--upper", "10", "--seed", "23", "--out", str(out),
    ])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["mean_steps"] - 100.0) < 5 * summary["stderr"]
    assert summary["frac_lower"] == pytest.approx(0.5, abs=0.03)


def test_first_passage_barrier_scan(tmp_path):
    out = tmp_path / "b"
    rc = main([
        "analytic", "first-passage", "--k-list", "2,6", "--n-walks", "2000",
        "--seed", "24", "--out", str(out),
    ])
    assert rc == 0
    fits = json.loads((out / "fits.json").read_text())
    assert fits["symmetric_slope"] == pytest.approx(2.0, abs=0.15)
    assert fits["asymmetric_slope"] == pytest.approx(1.0, abs=0.15)
    lines = (out / "rows.csv").read_text().splitlines()
    assert len(lines) == 3


@pytest.mark.parametrize("k_list", ["100,0", "3,3", "3", "0,-2"])
def test_bad_k_list_runs_no_walk(tmp_path, capsys, monkeypatch, k_list):
    calls = []
    monkeypatch.setattr(cli, "first_passage", lambda *a: calls.append(a))
    rc = main(["analytic", "first-passage", "--k-list", k_list, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "need at least two distinct positive k_list entries" in capsys.readouterr().err
    assert calls == []


# ---------------------------------------------------------------------- sweeps


def test_sweep_fee_command(tmp_path):
    out = tmp_path / "b"
    rc = main([
        "sweep", "fee", "--fees", "0.002,0.02", "--n-runs", "150",
        "--n-steps", "200", "--sigma", "0.004", "--seed", "25", "--out", str(out),
    ])
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert {"rows.csv", "baseline.json", "fits.json"} <= names
    lines = (out / "rows.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("fee,f_over_sigma,")
    fits = json.loads((out / "fits.json").read_text())
    assert "crossover_fee" in fits


def test_sweep_sigma_command(tmp_path):
    out = tmp_path / "b"
    rc = main([
        "sweep", "sigma", "--sigmas", "0.002,0.004", "--n-runs", "200",
        "--n-steps", "150", "--seed", "26", "--out", str(out),
    ])
    assert rc == 0
    fits = json.loads((out / "fits.json").read_text())
    assert fits["volume_slope"] == pytest.approx(1.0, abs=0.1)


def test_sweep_steps_command(tmp_path):
    out = tmp_path / "b"
    rc = main([
        "sweep", "steps", "--steps-list", "50,200", "--n-runs", "150",
        "--total-variance", "0.016", "--seed", "27", "--out", str(out),
    ])
    assert rc == 0
    fits = json.loads((out / "fits.json").read_text())
    assert fits["volume_slope"] == pytest.approx(0.5, abs=0.1)
    assert fits["lvr_relative_spread"] < 0.2


def test_sweep_fee_prints_the_deep_fee_slope_and_the_crossover(tmp_path, capsys):
    # f / sigma is 10 and 20 at the two deep fees, and paths of sigma sqrt(n) = 0.09
    # still cross their bands
    out = tmp_path / "b"
    rc = main(["sweep", "fee", "--fees", "0.0005,0.04,0.08", "--sigma", "0.004",
               "--n-steps", "500", "--n-runs", "100", "--seed", "3", "--out", str(out)])
    assert rc == 0
    fits = json.loads((out / "fits.json").read_text())
    assert capsys.readouterr().out.splitlines() == [
        f"deep-fee volume slope {fits['deep_volume_slope']:.3f}",
        f"mean wait crosses 2 steps near fee {fits['crossover_fee']:.3g}",
        f"wrote 5 files to {out}",
    ]


def test_sweep_fee_requires_fees(tmp_path, capsys):
    rc = main(["sweep", "fee", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "nonempty fees" in capsys.readouterr().err


# One small base per sweep, with a fee above 0 and trades to the band edge, where
# the band rule moves them, and a second valid value for every key a sweep takes.
_SWEEP_BASES = {
    ("sweep", "fee"): ["--fees", "0.001,0.002", "--n-steps", "10", "--target", "marginal",
                       "--n-runs", "20"],
    ("sweep", "sigma"): ["--sigmas", "0.001,0.002", "--n-steps", "10", "--fee", "0.0005",
                         "--target", "marginal", "--n-runs", "20"],
    ("sweep", "steps"): ["--steps-list", "10,20", "--fee", "0.0005", "--target", "marginal",
                         "--n-runs", "20"],
}
_SECOND_VALUES = {
    "process": "bm", "p0": "50", "sigma": "0.002", "n_steps": "12", "liquidity": "20000",
    "n_runs": "21", "seed": "1", "fee": "0.001", "band_rule": "linearized",
    "target": "oracle", "fees": "0.001,0.003", "sigmas": "0.001,0.003",
    "steps_list": "10,30", "total_variance": "0.002",
}


def _data_digests(argv, out):
    """The digests of a bundle's data files, and its manifest's config keys."""
    assert main([*argv, "--out", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    return ({p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()
             if p.name not in ("manifest.json", "schema.json")}, set(config))


@pytest.fixture(scope="module")
def sweep_base_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("bases")
    return {command: _data_digests([*command, *base], root / command[1])
            for command, base in _SWEEP_BASES.items()}


@pytest.mark.parametrize("command, key", [
    pytest.param(command, key, id=f"{' '.join(command)} {key}")
    for command in _SWEEP_BASES for key in cli._COMMANDS[command][1]
])
def test_every_key_a_sweep_takes_moves_its_data(tmp_path, sweep_base_data, command, key):
    base_data, base_config = sweep_base_data[command]
    data, config = _data_digests([*command, *_SWEEP_BASES[command],
                                  "--" + key.replace("_", "-"), _SECOND_VALUES[key]], tmp_path)
    assert config == base_config == set(cli._COMMANDS[command][1])
    assert data != base_data


@pytest.mark.parametrize("command, left_out", [
    pytest.param(command, left_out, id=" ".join(command)) for command, left_out in (
        (("sweep", "fee"), ("fee", "bins", "observables")),
        (("sweep", "sigma"), ("sigma", "bins", "observables")),
        (("sweep", "steps"), ("sigma", "n_steps", "bins", "observables")),
    )
])
def test_a_key_a_sweep_leaves_out_exits_2(tmp_path, capsys, monkeypatch, command, left_out):
    source = tmp_path / "study.cfg"
    for key in left_out:
        with pytest.raises(SystemExit) as exc:
            main([*command, "--" + key.replace("_", "-"), "1", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        source.write_text(f"{key}=1\n")
        monkeypatch.setitem(presets.PRESETS, "probe", presets._preset("probe", "", **{key: 1}))
        for layer, name in ((["--config", str(source)], source), (["--preset", "probe"],
                                                                  "preset 'probe'")):
            capsys.readouterr()
            assert main([*command, *layer, "--out", str(tmp_path / "x")]) == 2
            assert capsys.readouterr().err == (f"config error: {name} sets {key!r}, unused by "
                                               f"sweep-{command[1]}\n")
    assert list(tmp_path.iterdir()) == [source]


# ------------------------------------------------------------------ exit codes


def test_resource_guard_exits_3(tmp_path, capsys):
    rc = main([
        "simulate", "--n-runs", "100000000", "--n-steps", "10",
        "--out", str(tmp_path / "x"),
    ])
    assert rc == 3
    assert "resource guard" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _bytes(key, total):
    return (f"{key} brings the working set to about {total} bytes, over the 1073741824-byte "
            f"budget; lower {key}")


def _steps(pairs, steps):
    return (f"n_walks walks between the barriers of {pairs} take about {steps} walk-steps, over "
            "the 1000000000-step budget; lower n_walks or narrow the barriers")


_LONG_PATH = ("a single path of 9000000 steps needs 72000008 bytes, over the 67108864-byte "
              "chunk budget; lower n_steps")


@pytest.mark.parametrize("argv, message, spy", [
    pytest.param(argv, message, spy, id=" ".join(argv)) for argv, message, spy in (
        # 36 B per draw and 260 B per written bin, plus the fixed 2 MiB
        (["analytic", "sample-il", "--n-samples", "1e10"],
         _bytes("n_samples", 360002110152), "sample_il"),
        (["analytic", "il-pdf", "--il-points", "1e10"],
         _bytes("il_points", 1000002097152), "analytic_il_mean"),
        (["analytic", "clt-sum", "--n-per-sum", "100000", "--n-repeats", "100000"],
         _bytes("n_per_sum * n_repeats", 360002110152), "clt_sum_experiment"),
        (["analytic", "first-passage", "--n-walks", "1e10", "--k-list", "2,3"],
         _bytes("n_walks", 560002097152), "first_passage"),
        # seven histograms kept at 20 B per bin and one written at 240 B per bin
        (["simulate", "--bins", "1e9", "--n-runs", "100", "--n-steps", "10"],
         _bytes("bins", 380002184152), "run_campaign"),
        (["simulate", "--bins", "1e8", "--n-runs", "100", "--n-steps", "10"],
         _bytes("bins", 38002184152), "run_campaign"),
        # 120 B per run, 112 B per run of the largest of twelve chunks of 750000 runs,
        # and the fee-free campaign streams one block of 13107 runs and the kernel's step
        # block over them
        (["simulate", "--n-runs", "9e6", "--n-steps", "10"],
         _bytes("n_runs", 1169523972), "run_campaign"),
        # process=both runs one campaign at a time, so it counts as one
        (["simulate", "--process", "both", "--n-runs", "9e6", "--n-steps", "10"],
         _bytes("n_runs", 1169523972), "run_campaign"),
        # one path over the 64 MiB chunk budget
        (["simulate", "--n-steps", "9000000", "--n-runs", "1"], _LONG_PATH, "run_campaign"),
        # the walk-steps of a scan or a pair: (n_walks + 6000) times the mean exit times
        (["analytic", "first-passage", "--k-list", "2,100000", "--n-walks", "10"],
         _steps("k_list", 60100601036060), "first_passage"),
        (["analytic", "first-passage", "--k-list=", "--lower=-100", "--upper=100",
          "--n-walks", "2e6"],
         _steps("lower and upper", 20060000000), "first_passage"),
        (["analytic", "first-passage", "--k-list=", "--lower=-1e6", "--upper=1e6"],
         _steps("lower and upper", 26000000000000000), "first_passage"),
        # unit steps cross an upper barrier below 1 at 1, so the walk is as long as at (-1e6, 1)
        (["analytic", "first-passage", "--k-list=", "--lower=-1e6", "--upper=1e-6"],
         _steps("lower and upper", 26000000000), "first_passage"),
    )
])
def test_oversized_inputs_exit_3_before_any_work(tmp_path, capsys, monkeypatch, argv, message,
                                                 spy):
    out = tmp_path / "b"
    assert main(["analytic", "lvr-mean", "--out", str(out)]) == 0
    before = _tree(out)
    capsys.readouterr()
    calls = []
    monkeypatch.setattr(cli, spy, lambda *a, **k: calls.append(a))
    rc = main(argv + ["--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == f"resource guard: {message}\n"
    assert calls == []
    assert _tree(out) == before
    assert [p.name for p in tmp_path.iterdir()] == ["b"]


@pytest.mark.parametrize("study, code, message", [
    pytest.param(["sweep", "fee", "--fees", "0.001,1.5"], 2, "fee must lie in [0, 1), got 1.5",
                 id="sweep fee --fees 0.001,1.5"),
    pytest.param(["sweep", "steps", "--steps-list", "10,9000000"], 3, _LONG_PATH,
                 id="sweep steps --steps-list 10,9000000"),
    pytest.param(lambda base: sweep_fee(base, [0.001, 1.5]), 2,
                 "fee must lie in [0, 1), got 1.5", id="sweep_fee(base, [0.001, 1.5])"),
    pytest.param(lambda base: sweep_volume_vs_steps(base, [10, 9_000_000], base.sigma2_t), 3,
                 _LONG_PATH, id="sweep_volume_vs_steps(base, [10, 9_000_000])"),
])
def test_a_bad_sweep_entry_is_refused_before_the_first_campaign(tmp_path, capsys, monkeypatch,
                                                                study, code, message):
    builds = []
    build = harness.simulate_price_matrix
    monkeypatch.setattr(harness, "simulate_price_matrix",
                        lambda *a: builds.append(a) or build(*a))
    if callable(study):
        base = ExperimentConfig(kind=ProcessKind.GBM, p0=100.0, sigma=0.004, n_steps=10,
                                liquidity=1e4, n_runs=20)
        error = ammlab.ConfigError if code == 2 else ammlab.ResourceLimitError
        with pytest.raises(error) as refusal:
            study(base)
        assert str(refusal.value) == message
    else:
        assert main(study + ["--out", str(tmp_path / "b")]) == code
        prefix = "config error" if code == 2 else "resource guard"
        assert capsys.readouterr().err == f"{prefix}: {message}\n"
        assert list(tmp_path.iterdir()) == []
    assert builds == []


def _budget_verdict(command, **strings):
    """'ok', or the refusal the command check gives the defaults of command under strings."""
    mode, keys, _ = cli._COMMANDS[command]
    try:
        cli._cast(mode, keys, {**{k: cli._KEYS[k][1] for k in keys}, **strings})
    except ammlab.ResourceLimitError as exc:
        return str(exc)
    return "ok"


@pytest.mark.parametrize("command, key, largest, strings", [
    pytest.param(command, key, largest, strings,
                 id=" ".join([*command, *(f"--{k}={v}" for k, v in strings.items()), key]))
    for command, key, largest, strings in (
        (("simulate",), "n_runs", 8899131, {}),
        (("simulate",), "n_runs", 8899131, {"process": "both"}),
        (("simulate",), "bins", 2808140, {}),
        (("simulate",), "bins", 4106871, {"observables": "prices"}),
        (("analytic", "il-pdf"), "il_points", 10716446, {}),
        (("analytic", "sample-il"), "n_samples", 29767546, {}),
        (("analytic", "clt-sum"), "n_repeats", 29767546, {"n_per_sum": "1"}),
        (("analytic", "first-passage"), "n_walks", 944570, {}),
        # the walks of a scan up to k = 100 fit at the default 20000 walks, and more
        (("analytic", "first-passage"), "n_walks", 83670, {"k_list": "3,10,30,100"}),
        (("analytic", "first-passage"), "n_walks", 94000,
         {"k_list": "", "lower": "-100", "upper": "100"}),
    )
])
def test_each_size_is_accepted_up_to_its_budget_edge(command, key, largest, strings):
    assert _budget_verdict(command, **strings, **{key: str(largest)}) == "ok"
    assert key in _budget_verdict(command, **strings, **{key: str(largest + 1)})


def test_the_campaign_term_is_the_largest_chunk_over_the_step_counts(monkeypatch):
    # at 10000 runs, 1000 steps plan two chunks of 5000 runs and 800 steps one of 10000,
    # so the shorter paths hold the larger chunk: with a fee, its paths and 112 B a run of
    # seeds, keys and kernel state come to 65.20 MB against 40.60 MB
    assert harness.plan_chunks(10000, 1000) == [(0, 5000), (5000, 10000)]
    assert harness.plan_chunks(10000, 800) == [(0, 10000)]
    largest = harness.chunk_working_bytes(10000, 800)
    assert largest - harness.chunk_working_bytes(10000, 1000) == (10000 * 815 - 5000 * 1015) * 8
    # fee-free, each streams one draw block of about 1 MiB, 163 runs or 131, and its prices,
    # with the kernel's step block over them (100 steps of 163 runs, 42 B a run and step for
    # one step more), beside the chunk's 112 B a run
    streamed = harness.chunk_working_bytes(10000, 800, harness.Observables.POOL)
    assert streamed == 10000 * 112 + 2 * 163 * 801 * 8 + 42 * 101 * 163
    assert streamed > harness.chunk_working_bytes(10000, 1000, harness.Observables.POOL)
    monkeypatch.setattr(cli, "BYTE_BUDGET", 0)  # every command is refused with its bytes

    def stated(runs, steps, fee="0.001"):
        verdict = _budget_verdict(("sweep", "steps"), n_runs=runs, steps_list=steps, fee=fee)
        return int(verdict.removeprefix("n_runs brings the working set to about ").split()[0])

    for steps in ("800,1000", "1000,800"):
        assert stated("10000", steps) == cli._FIXED_BYTES + 10000 * 120 + largest
        assert stated("10000", steps, fee="0") == cli._FIXED_BYTES + 10000 * 120 + streamed
    # sizes the records refuse later are costed first, with no division by zero
    assert stated("0", "1000") == stated("10000", "") - 10000 * 120 == cli._FIXED_BYTES
    assert stated("10000", "0,-3") == stated("10000", "0")


_SIZE = "{size}"


# Every size key of every command at two sizes; the sweeps share simulate's
# campaign terms, so one sweep row checks n_runs and one the sweep's own step
# counts.  Campaign runs and written bins are slow under tracemalloc, so those
# rows use fewer units.
@pytest.mark.parametrize("argv, sizes", [
    pytest.param(argv, sizes, id=" ".join(argv)) for argv, sizes in (
        (["simulate", "--n-steps", "10", "--n-runs", _SIZE], (5_000, 10_000)),
        (["simulate", "--process", "both", "--n-steps", "10", "--n-runs", _SIZE],
         (5_000, 10_000)),
        (["simulate", "--observables", "prices", "--n-runs", "10", "--n-steps", _SIZE],
         (50_000, 100_000)),
        (["simulate", "--n-runs", "10", "--n-steps", "10", "--bins", _SIZE], (5_000, 10_000)),
        (["simulate", "--observables", "prices", "--n-runs", "10", "--n-steps", "10",
          "--bins", _SIZE], (10_000, 20_000)),
        (["sweep", "fee", "--fees", "0.001", "--n-steps", "10", "--n-runs", _SIZE],
         (5_000, 10_000)),
        (["sweep", "fee", "--fees", "0.001,0.002,0.004", "--n-steps", "10", "--n-runs", _SIZE],
         (5_000, 10_000)),
        (["sweep", "steps", "--n-runs", "10", "--steps-list", f"10,{_SIZE}"], (5_000, 10_000)),
        (["analytic", "il-pdf", "--il-points", _SIZE], (50_000, 100_000)),
        (["analytic", "sample-il", "--n-samples", _SIZE], (50_000, 100_000)),
        (["analytic", "sample-il", "--n-samples", "100", "--bins", _SIZE], (10_000, 20_000)),
        (["analytic", "clt-sum", "--n-repeats", "10", "--n-per-sum", _SIZE], (50_000, 100_000)),
        (["analytic", "clt-sum", "--n-per-sum", "1", "--n-repeats", _SIZE], (50_000, 100_000)),
        (["analytic", "clt-sum", "--n-per-sum", "10", "--n-repeats", "10", "--bins", _SIZE],
         (10_000, 20_000)),
        (["analytic", "first-passage", "--k-list", "2,3", "--n-walks", _SIZE], (50_000, 100_000)),
        (["analytic", "first-passage", "--k-list=", "--lower=-2", "--upper=2",
          "--n-walks", _SIZE], (50_000, 100_000)),
    )
])
def test_stated_working_bytes_bound_the_measured_peak(tmp_path, capsys, monkeypatch, argv,
                                                      sizes):
    # the refusal at a zero budget states the bytes; tracemalloc measures the run's peak
    def run(size):
        return main([a.format(size=size) for a in argv] + ["--out", str(tmp_path / "b")])

    assert run(100) == 0  # the first run imports what the command uses
    for size in sizes:
        with monkeypatch.context() as m:
            m.setattr(cli, "BYTE_BUDGET", 0)
            assert run(size) == 3
        stated = int(capsys.readouterr().err.split(" about ")[1].split()[0])
        tracemalloc.start()
        try:
            assert run(size) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= stated <= 3 * peak, (size, peak, stated)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (3_000_000 << 10,) * 2)


@pytest.mark.parametrize("argv, code", [
    pytest.param(argv, code, id=" ".join(argv)) for argv, code in (
        (["simulate", "--bins", "1e8", "--n-runs", "100", "--n-steps", "10"], 3),
        (["analytic", "first-passage", "--k-list=", "--lower=-100", "--upper=100",
          "--n-walks", "2e6"], 3),
        (["analytic", "il-mean", "--sigma", "1e160", "--t", "1e-320"], 2),
    )
])
def test_refusals_hold_under_a_real_memory_limit(tmp_path, argv, code):
    # the child alone runs under a 3 GB address-space limit, and must answer within seconds
    proc = subprocess.run([sys.executable, "-m", "ammlab.cli", *argv, "--out", tmp_path / "x"],
                          capture_output=True, text=True, timeout=10,
                          preexec_fn=_limit_address_space)
    assert proc.returncode == code
    assert proc.stderr.startswith(("resource guard: ", "config error: "))
    assert proc.stderr.count("\n") == 1  # no traceback, no warning
    assert list(tmp_path.iterdir()) == []


def test_numerical_failure_exits_4(tmp_path, capsys):
    # an additive path leaks through zero; a multiplicative one underflows
    # to zero once enough of its step factors are clamped
    for argv, reason in (
        (["--process", "bm", "--sigma", "0.05", "--seed", "13", "--n-runs", "100"],
         "leaks through zero"),
        (["--sigma", "1", "--n-runs", "10"], "clamped to GBM_FACTOR_FLOOR"),
    ):
        rc = main(["simulate", "--n-steps", "1000", "--out", str(tmp_path / "x"), *argv])
        assert rc == 4
        err = capsys.readouterr().err
        assert "numerical failure" in err and reason in err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, reason", [
    pytest.param(argv, reason, id=" ".join(argv)) for argv, reason in (
        (["simulate", "--sigma", "1e200", "--n-runs", "10"], "sample values are not finite"),
        (["sweep", "fee", "--fees", "0.001", "--sigma", "1e200", "--n-runs", "10"],
         "sample values are not finite"),
        (["simulate", "--observables", "prices", "--sigma", "1e200", "--n-runs", "10"],
         "sample values are not finite"),
        (["simulate", "--sigma", "100", "--n-runs", "200"],
         "sample moments leave the double range"),
        # the losses scale to doubles, but the third moment of il reaches about 1e444
        (["simulate", "--p0", "1e-300", "--n-runs", "200"],
         "il: sample moments leave the double range"),
        (["simulate", "--p0", "1e300", "--sigma", "0.5", "--n-runs", "200"],
         "il: sample moments leave the double range"),
    )
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_metrics_outside_the_double_range_exit_4(tmp_path, capsys, argv, reason):
    rc = main(argv + ["--n-steps", "10", "--out", str(tmp_path / "x")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "numerical failure" in err and reason in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, reason", [
    pytest.param(argv, reason, id=" ".join(argv)) for argv, reason in (
        (["sweep", "fee", "--sigma", "1e-20", "--fees", "0.001,0.002"],
         "fee rows divide by the fee-free mean lvr 0.0 and mean volume 0.0"),
        (["sweep", "sigma", "--sigmas", "1e-20,2e-20"],
         "a log-log slope needs positive values, got 0.0"),
        (["sweep", "steps", "--steps-list", "10,20", "--total-variance", "1e-40"],
         "a log-log slope needs positive values, got 0.0"),
        # the baseline trades, but no run trades at the deep fees the slopes are fitted on
        (["sweep", "fee", "--sigma", "0.001", "--fees", "0.05,0.1"],
         "a log-log slope needs positive values, got 0.0"),
    )
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_mean_sweeps_exit_4(tmp_path, capsys, argv, reason):
    # at sigma 1e-20 every step factor rounds to 1, so every campaign mean is 0; a
    # steps sweep takes its step counts from its list
    steps = [] if argv[1] == "steps" else ["--n-steps", "20"]
    rc = main(argv + ["--n-runs", "50", *steps, "--out", str(tmp_path / "x")])
    assert rc == 4
    assert f"numerical failure: {reason}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    pytest.param(argv, id=" ".join(argv)) for argv in (
        ["sweep", "steps", "--steps-list", "10,20", "--p0", "1e300", "--total-variance", "2.5"],
    )
])
def test_sweeps_at_a_far_p0_report_a_positive_lvr(tmp_path, argv):
    # the mean lvr is near 1e-135, where each step's loss computed at the pool's own
    # prices would underflow to 0; the unit pool's losses are scaled once
    out = tmp_path / "x"
    assert main(argv + ["--n-runs", "50", "--out", str(out)]) == 0
    lines = (out / "rows.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), map(float, line.split(",")))) for line in lines[1:]]
    assert all(0.0 < row["mean_lvr"] < math.inf for row in rows)


_LAW_TAIL = "outside the 12-deviation loss range"
_LVR_RANGE = "the mean rebalancing loss leaves the double range"


@pytest.mark.parametrize("argv, reason", [
    *(([command, "--sigma", "1", "--t", t], _LAW_TAIL)
      for command in ("il-pdf", "il-mean", "sample-il", "clt-sum")
      for t in ("37", "100", "200", "500", "700", "1000")),
    (["lvr-mean", "--sigma", "1", "--t", "1900"], _LVR_RANGE),
    (["lvr-mean", "--sigma", "0.001", "--t", "1e300"], _LVR_RANGE),
    *(pytest.param(argv, reason, id=" ".join(argv)) for argv, reason in (
        # the law is refused before its small-sigma scale overflows a float power
        (["il-mean", "--sigma", "1e160"], _LAW_TAIL),
        (["il-mean", "--process", "bm", "--sigma", "1e160"], "of its mass below zero"),
        # the small-sigma mean itself leaves the double range
        (["lvr-mean", "--process", "bm", "--sigma", "1e160"], _LVR_RANGE),
        (["lvr-mean", "--liquidity", "1e300", "--sigma", "1e5", "--t", "1"], _LVR_RANGE),
        (["lvr-mean", "--process", "bm", "--liquidity", "1e300", "--sigma", "1e5", "--t", "1"],
         _LVR_RANGE),
        # sigma sqrt(t) is about 2.3, but sigma^2 overflows
        *(([command, "--sigma", "1.5e154", "--t", "2.3e-308"], "sigma^2 leaves the double range")
          for command in ("il-mean", "il-pdf", "sample-il", "clt-sum")),
        # the unit law is fine, but its scale L / sqrt(p0) is not a double
        (["il-mean", "--liquidity", "1e300", "--p0", "1e-300"], "L / sqrt(p0) = inf"),
    )),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_analytic_means_outside_the_double_range_exit_4(tmp_path, capsys, argv, reason):
    # a gbm law deep in the long regime, whose mean loss reaches past the
    # 12-deviation loss range from sigma sqrt(t) of about 6 on; a pool scale
    # outside the doubles; or a summed rebalancing loss that overflows
    rc = main(["analytic", *argv, "--out", str(tmp_path / "x")])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and reason in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    pytest.param(argv, id=" ".join(argv)) for argv in (
        # prices 14 deviations below entry, or losses 12 deviations out, outside the
        # doubles at this p0 or liquidity but not on the unit pool
        ["il-mean", "--p0", "1e-300", "--sigma", "1", "--t", "30"],
        ["il-pdf", "--liquidity", "1e210", "--sigma", "0.1", "--t", "1"],
        # the pool-scale density prefactor p0^1.25 / sqrt(il L) leaves the doubles here
        ["il-pdf", "--sigma", "0.1", "--t", "1", "--p0", "1e200"],
        ["il-mean", "--p0", "1e250"],
        ["il-pdf", "--p0", "1e250"],
        ["il-mean", "--p0", "1e246"],
        ["il-mean", "--liquidity", "1e-200"],
        # and underflows to 0 here
        ["il-mean", "--p0", "1e-280"],
        ["il-pdf", "--p0", "1e-250"],
    )
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_analytic_means_at_a_far_scale_agree(tmp_path, argv):
    out = tmp_path / "x"
    assert main(["analytic", *argv, "--out", str(out)]) == 0
    payload = json.loads((out / ("pdf_meta.json" if argv[0] == "il-pdf" else "analytic.json"))
                         .read_text())
    assert 0.0 < payload["mean_via_price_integral"] < math.inf
    assert payload["mean_via_density"] == pytest.approx(payload["mean_via_price_integral"],
                                                        rel=1e-6)
    assert payload.get("mass_under_tabulated_points", 1.0) == pytest.approx(1.0, abs=1e-4)


def test_hair_wide_sample_range_exits_0(tmp_path):
    # the final prices of 50 runs sit a few ulps apart, too narrow for 50 finite bins
    assert main(["simulate", "--sigma", "1e-16", "--n-steps", "1", "--n-runs", "50",
                 "--out", str(tmp_path / "x")]) == 0


def test_prices_with_fee_exits_2(tmp_path, capsys):
    rc = main([
        "simulate", "--observables", "prices", "--fee", "0.01",
        "--out", str(tmp_path / "x"),
    ])
    assert rc == 2
    assert "fee must be 0" in capsys.readouterr().err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ammlab.cli", "presets"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "fig-lvrfee" in proc.stdout
