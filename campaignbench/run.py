"""Campaign benchmark: ammlab CLI commands timed end to end, one layer at a time.

    python3 campaignbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one CLI command from the README, run in a fresh
interpreter per sample because every `ammlab` invocation pays the import
cost.  The loop is closed: one command at a time from this one process.
The command's --seed is the README seed plus N, so seed 0 is the README
command itself.

--trace 0 repeats the command at the CLI's default thread count (all cores)
until S seconds are used, then reports end-to-end medians: set-up time, run
time, path-steps per second and peak resident memory.

--trace 1 repeats rounds of three runs, untraced at --threads 1, untraced at
the default thread count and traced at --threads 1 (at least two rounds,
until S seconds are used), and reports per-layer busy times and counts from
the traced runs, the thread speed-up and the tracing overhead (medians over
the rounds) and the import time of ammlab.analytics.

Every run's bundle is checked (see child.py) and hashed; a run fails if the
command exits non-zero, a check fails, or its digests differ from the first
run of the set.  Count metrics must repeat exactly across the set.  The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics.  --detail FILE also writes every sample, the run context and
the spans of the first traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"

# a sample that takes longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 150
MIN_TIMED_SAMPLES = 3
MIN_TRACED_ROUNDS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    readme_seed: int
    argv: tuple[str, ...]

    def command(self, seed: int) -> list[str]:
        return [*self.argv, "--seed", str(self.readme_seed + seed)]


# why each workload is here: see the "why" lines in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("canonical", 7, ("simulate", "--sigma", "0.001", "--n-steps", "1000",
                                  "--n-runs", "10000")),
        Workload("fee-sweep", 5, ("sweep", "fee", "--fees", "0.0001,0.0002,0.0004,0.004,0.04",
                                  "--sigma", "0.004", "--n-runs", "5000")),
        Workload("few-long-fee", 7, ("simulate", "--sigma", "0.001", "--fee", "0.0002",
                                     "--n-steps", "10000", "--n-runs", "1000")),
    )
}

E2E_UNITS = {"setup_s": "s", "run_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MiB"}
LAYER_UNITS = {
    "stochastic.seed_s": "s",
    "stochastic.seed_calls": "count",
    "stochastic.generator_s": "s",
    "stochastic.generator_calls": "count",
    "stochastic.seed_reuse_ratio": "ratio",
    "stochastic.draws_s": "s",
    "stochastic.prices_s": "s",
    "stochastic.computed_bytes": "B",
    "harness.kernel_s": "s",
    "harness.trades": "count",
    "harness.trade_ratio": "ratio",
    "harness.campaigns": "count",
    "harness.chunks": "count",
    "harness.path_steps": "count",
    "harness.threads_speedup": "ratio",
    "stats.histogram_s": "s",
    "stats.histogram_calls": "count",
    "cli.table_csv_s": "s",
    "cli.json_s": "s",
    "cli.seal_s": "s",
    "cli.bundle_bytes": "B",
    "cli.files": "count",
    "analytics.import_s": "s",
    "trace.overhead_s": "s",
}
# counts that must repeat exactly across the runs of one set
TRACED_COUNTS = ("stochastic.seed_calls", "stochastic.generator_calls", "harness.trades",
                 "harness.path_steps", "harness.chunks", "harness.campaigns",
                 "stats.histogram_calls")
BUNDLE_COUNTS = ("cli.bundle_bytes", "cli.files", "path_steps")


def path_steps(command: list[str], config: dict) -> int:
    """Path-steps one command simulates: sum over its campaigns of n_runs * n_steps."""
    campaigns = len(config["fees"]) + 1 if command == ["sweep", "fee"] else 1
    return campaigns * config["n_runs"] * config["n_steps"]


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    n = len(samples)
    if n < 11:
        return None
    pct = (100 * (n - 10)) // n
    rank = -(-pct * n // 100)  # ceil
    return pct, sorted(samples)[rank - 1]


def describe(samples: list[float]) -> str:
    """Median, quartiles, tail percentile and sample count of one metric."""
    n = len(samples)
    text = f"median of n={n}"
    if n >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        text += f", quartiles {q1:.6g}..{q3:.6g}"
    tail = tail_percentile(samples)
    text += (f", p{tail[0]} {tail[1]:.6g}" if tail
             else ", no percentile has 10 samples beyond it")
    return text


class Runner:
    """Spawns child processes for one workload and collects their samples."""

    def __init__(self, work: Path):
        self.work = work
        self.count = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
        self.env = env

    def python(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], env=self.env, cwd=self.work,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)

    def sample(self, argv: list[str], trace: bool) -> dict:
        self.count += 1
        out = self.work / f"bundle{self.count}"
        spec = self.work / f"spec{self.count}.json"
        result = self.work / f"result{self.count}.json"
        spec.write_text(json.dumps(
            {"argv": argv, "out": str(out), "trace": trace, "result": str(result)}))
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(CHILD), str(spec)], env=self.env,
                                  cwd=self.work, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
            rec = json.loads(result.read_text()) if result.is_file() else None
            if rec is None:
                tail = proc.stderr.strip().splitlines()[-1:] or [""]
                rec = {"problems": [f"child exited with {proc.returncode}: {tail[0]}"]}
        except subprocess.TimeoutExpired:
            rec = {"problems": [f"timed out after {CHILD_TIMEOUT_S} s"]}
        finally:
            shutil.rmtree(out, ignore_errors=True)
            spec.unlink(missing_ok=True)
            result.unlink(missing_ok=True)
        rec["argv"] = argv
        rec["traced"] = trace
        if "t_setup" in rec:
            rec["setup_s"] = rec.pop("t_setup") - t_spawn
        if "digests" in rec:
            rec["cli.files"] = len(rec["digests"])
            rec["cli.bundle_bytes"] = rec.pop("bundle_bytes")
            rec["path_steps"] = path_steps(rec["command"], rec["config"])
        return rec

    def until(self, round_: list[tuple[list[str], bool]], seconds: float,
              minimum: int) -> list[list[dict]]:
        """Repeat a round of (argv, trace) runs until the next would overrun `seconds`."""
        rounds = []
        start = time.monotonic()
        while True:
            rounds.append([self.sample(argv, trace) for argv, trace in round_])
            elapsed = time.monotonic() - start
            if len(rounds) >= minimum and elapsed * (1 + 1 / len(rounds)) > seconds:
                return rounds

    def import_time(self) -> float | None:
        """Cumulative import time of ammlab.analytics while ammlab.cli loads, in s."""
        proc = self.python(["-X", "importtime", "-c", "import ammlab.cli"])
        for line in proc.stderr.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "ammlab.analytics":
                return int(fields[1]) / 1e6
        return None


def verify_set(samples: list[dict]) -> list[str]:
    """Mark failed runs in place and return problems of the set as a whole."""
    first = next((s for s in samples if "digests" in s), None)
    for s in samples:
        if first is not None and "digests" in s and s["digests"] != first["digests"]:
            s["problems"].append("bundle digests differ from the first run of the set")
        s["failed"] = bool(s["problems"]) or "digests" not in s
    problems = []
    good = [s for s in samples if not s["failed"]]
    traced = [s for s in good if s["traced"]]
    for key, values in [(k, {s[k] for s in good}) for k in BUNDLE_COUNTS] + [
            (k, {s["layers"][k] for s in traced}) for k in TRACED_COUNTS]:
        if len(values) > 1:
            problems.append(f"count {key} does not repeat across the set: {sorted(values)}")
    for s in good:
        if s["traced"] and s["layers"]["harness.path_steps"] not in (None, s["path_steps"]):
            problems.append(f"traced path-steps {s['layers']['harness.path_steps']} != "
                            f"{s['path_steps']} from the manifest")
    return problems


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _cache_size(name: str) -> str:
    try:
        proc = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def run_context(workload: Workload, seed: int, samples: list[dict], trace: bool) -> dict:
    versions = next((s["versions"] for s in samples if "versions" in s), {})
    return {
        "nproc": os.cpu_count(),
        **versions,
        "l2_bytes": _cache_size("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _cache_size("LEVEL3_CACHE_SIZE"),
        "commit": _git_commit(),
        "threads": (f"1 (traced and untraced) and default ({os.cpu_count()})" if trace
                    else f"default ({os.cpu_count()})"),
        "workload": workload.name,
        "bench_seed": seed,
        "cli_seed": workload.readme_seed + seed,
        "command": ["ammlab", *workload.command(seed)],
    }


def _median(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def end_to_end(samples: list[dict]) -> tuple[dict, dict]:
    """Median of each end-to-end metric over the good runs, and the runs' values."""
    good = [s for s in samples if not s["failed"]]
    series = {
        "setup_s": [s["setup_s"] for s in good],
        "run_s": [s["run_s"] for s in good],
        "steps_per_s": [s["path_steps"] / s["run_s"] for s in good],
        "peak_rss_mb": [s["peak_rss_mb"] for s in good],
    }
    return {name: statistics.median(v) for name, v in series.items()}, series


def per_layer(rounds: list[list[dict]], import_s: float | None) -> tuple[dict, dict]:
    one_thread, default, traced = ([r[i] for r in rounds] for i in range(3))
    metrics, missing = {}, {}
    for name in LAYER_UNITS:
        values = [s["layers"].get(name) for s in traced if name in s.get("layers", {})]
        if values and None not in values:
            # counts repeat exactly across the set (verify_set), so any run gives them
            exact = LAYER_UNITS[name] in ("count", "B")
            metrics[name] = values[0] if exact else statistics.median(values)
    for s in traced:
        missing.update(s.get("missing", {}))
    metrics["cli.bundle_bytes"] = traced[0]["cli.bundle_bytes"]
    metrics["cli.files"] = traced[0]["cli.files"]
    metrics["harness.threads_speedup"] = _median(one_thread, "run_s") / _median(default, "run_s")
    metrics["trace.overhead_s"] = _median(traced, "run_s") - _median(one_thread, "run_s")
    if import_s is None:
        missing["analytics.import_s"] = "ammlab.analytics is not imported by ammlab.cli"
    else:
        metrics["analytics.import_s"] = import_s
    for name in LAYER_UNITS:
        if name not in metrics:
            missing.setdefault(name, "not measured")
    return metrics, missing


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path):
    """Samples of one workload, problems of the set, and the traced rounds if tracing."""
    runner = Runner(work)
    warm = runner.python(["-c", "import ammlab.cli"])
    if warm.returncode != 0:
        raise RuntimeError(f"cannot import ammlab.cli: {warm.stderr.strip()[-300:]}")
    argv = workload.command(seed)
    if not trace:
        samples = [r[0] for r in runner.until([(argv, False)], seconds, MIN_TIMED_SAMPLES)]
        return samples, verify_set(samples), None
    start = time.monotonic()
    import_s = runner.import_time()
    one = argv + ["--threads", "1"]
    left = seconds - (time.monotonic() - start)
    rounds = runner.until([(one, False), (argv, False), (one, True)], left, MIN_TRACED_ROUNDS)
    samples = [s for r in rounds for s in r]
    return samples, verify_set(samples), (rounds, import_s)


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--detail", type=Path, default=None,
                        help="also write every sample and the run context to this JSON file")
    args = parser.parse_args(argv)
    if not (SRC / "ammlab" / "cli.py").is_file():
        print(f"no ammlab source tree at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    workload = workloads[args.workload]
    work = BENCH_DIR / "_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        samples, problems, traced_parts = measure(
            workload, args.seed, args.seconds, bool(args.trace), work)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # succeeds only when no other run is using it

    context = run_context(workload, args.seed, samples, bool(args.trace))
    failed = sum(s["failed"] for s in samples)
    print("context " + json.dumps(context, sort_keys=True))
    for s in samples:
        for problem in s["problems"]:
            print(f"FAILED run {s['argv']}: {problem}", file=sys.stderr)
    for problem in problems:
        print(f"FAILED set: {problem}", file=sys.stderr)
    if failed == len(samples):
        print("every run failed; no metric to report", file=sys.stderr)
        return 1

    print(f"failed_frac: {failed / len(samples):.6g} ratio ({failed} of {len(samples)} runs)")
    missing = {}
    if traced_parts is None:
        metrics, series = end_to_end(samples)
        units = E2E_UNITS
        for name, value in metrics.items():
            print(f"{name}: {value:.6g} {units[name]} ({describe(series[name])})")
    else:
        if failed:
            print("a run of the traced set failed; no layer to report", file=sys.stderr)
            return 1
        metrics, missing = per_layer(*traced_parts)
        units = LAYER_UNITS
        for name in units:
            shown = f"{metrics[name]:.6g}" if name in metrics else f"missing ({missing[name]})"
            label = " (computed)" if name == "stochastic.computed_bytes" else ""
            print(f"{name}: {shown} {units[name]}{label}")

    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {
            name: ({"value": metrics[name], "unit": unit} if name in metrics
                   else {"value": None, "unit": unit, "missing": missing[name]})
            for name, unit in units.items()
        },
    }
    if args.detail is not None:
        spans = next((s.get("spans") for s in samples if s.get("spans")), None)
        args.detail.write_text(json.dumps(
            {"context": context, "trace": args.trace, "problems": problems, "result": result,
             "spans": spans,
             "samples": [{k: v for k, v in s.items() if k not in ("spans", "digests")}
                         for s in samples]}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
