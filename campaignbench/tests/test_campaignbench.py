"""Tests of the campaign benchmark itself, on tiny campaigns."""

import hashlib
import json
import shutil
import subprocess
import sys

import pytest

import ammlab.cli
import child
import run
from ammlab.harness import plan_chunks

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    w.name: w
    for w in (
        run.Workload("tiny-simulate", 7, ("simulate", "--sigma", "0.001", "--n-steps", "20",
                                          "--n-runs", "300")),
        run.Workload("tiny-sweep", 5, ("sweep", "fee", "--fees", "0.0004,0.004",
                                       "--sigma", "0.004", "--n-steps", "50",
                                       "--n-runs", "200")),
    )
}


def _run(capsys, workload, trace, tmp_path=None):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    if tmp_path is not None:
        argv += ["--detail", str(tmp_path / "detail.json")]
    assert run.main(argv, workloads=TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_named_metric_with_its_unit(capsys, trace, section):
    lines, result = _run(capsys, "tiny-simulate", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named
    for name, unit in named.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)), (name, value)
        assert any(line.startswith(f"{name}: ") and f" {unit}" in line for line in lines)


def test_path_steps_and_chunks_match_the_campaigns(capsys, tmp_path):
    _, result = _run(capsys, "tiny-sweep", 1, tmp_path)
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    campaigns, n_runs, n_steps = 3, 200, 50  # fee-free baseline plus two fees
    assert metrics["harness.campaigns"] == campaigns
    assert metrics["harness.path_steps"] == campaigns * n_runs * n_steps
    assert metrics["harness.chunks"] == campaigns * len(plan_chunks(n_runs, n_steps))
    assert metrics["stochastic.seed_calls"] == campaigns * n_runs
    assert metrics["stochastic.seed_reuse_ratio"] == pytest.approx(2 / 3)
    detail = json.loads((tmp_path / "detail.json").read_text())
    assert all(s["path_steps"] == campaigns * n_runs * n_steps for s in detail["samples"])


def test_traced_and_untraced_runs_give_identical_digests(tmp_path):
    runner = run.Runner(tmp_path)
    argv = TINY["tiny-simulate"].command(0)
    plain = runner.sample(argv, trace=False)
    traced = runner.sample(argv + ["--threads", "1"], trace=True)
    assert plain["problems"] == [] and traced["problems"] == []
    assert plain["digests"] == traced["digests"]
    assert "table.csv" in plain["digests"]


def test_a_changed_bundle_fails_the_set(tmp_path):
    runner = run.Runner(tmp_path)
    argv = TINY["tiny-simulate"].command(0)
    samples = [runner.sample(argv, trace=False) for _ in range(2)]
    samples[1]["digests"] = dict(samples[1]["digests"], **{"table.csv": "0" * 64})
    assert run.verify_set(samples) == []
    assert [s["failed"] for s in samples] == [False, True]


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(10))) is None
    pct, value = run.tail_percentile([float(v) for v in range(1, 101)])
    assert pct == 90 and value == 90.0
    pct, value = run.tail_percentile([float(v) for v in range(1, 12)])
    assert sum(v > value for v in range(1, 12)) >= 10


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "canonical",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_output_checks_catch_a_wrong_mean_and_a_stray_file(tmp_path):
    out = tmp_path / "bundle"
    argv = ["simulate", "--n-steps", "20", "--n-runs", "300", "--seed", "4", "--out", str(out)]
    assert ammlab.cli.main(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())

    def digests():
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}

    assert child.check_bundle(out, manifest, digests()) == []
    summary = json.loads((out / "summary.json").read_text())["summary"]
    shifted = dict(summary, mean_lvr=summary["mean_lvr"] + 6 * summary["stderr_lvr"])
    assert child._near_oracle(shifted, manifest["config"], "shifted")
    (out / "stray.csv").write_text("left over\n")
    assert child.check_bundle(out, manifest, digests())
