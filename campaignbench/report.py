"""Collect sets of benchmark runs, print every metric, compare two sets.

    python3 campaignbench/report.py collect DIR [--runs 10] [--first-seed 1]
    python3 campaignbench/report.py show DIR
    python3 campaignbench/report.py compare BASE_DIR NEW_DIR

`collect` runs run.py once per (seed, workload) of BENCHMARK.json, seeds
first-seed, first-seed+1, ..., visiting the workloads in turn so that drift
in machine speed spreads over all of them, then one traced run per
workload; each run's detail goes to DIR.  `show` prints every end-to-end
metric by name with its unit (median over runs, quartile spread against the
bound in BENCHMARK.json, and the tail percentile of the pooled samples) and
every per-layer metric of the traced runs.  `compare` puts one row per
workload and metric: both medians, the change, both spreads and the bound,
and a verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, ROOT, describe

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m for m in SPEC["per_layer"]}


def collect(out: Path, runs: int, first_seed: int):
    out.mkdir(parents=True, exist_ok=True)
    workloads = [w["name"] for w in SPEC["workloads"]]
    plan = [(w, first_seed + i, 0) for i in range(runs) for w in workloads]
    plan += [(w, first_seed, 1) for w in workloads]
    for workload, seed, trace in plan:
        detail = out / f"{workload}.seed{seed}.trace{trace}.json"
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace",
             str(trace), "--detail", str(detail)],
            cwd=ROOT, capture_output=True, text=True)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode} {last[:120]}",
              flush=True)
        if proc.returncode != 0:
            detail.write_text(json.dumps({"error": proc.stderr[-2000:], "workload": workload,
                                          "seed": seed, "trace": trace}))


def load(directory: Path) -> dict:
    """{(workload, trace): [detail, ...]} from a collect directory."""
    sets: dict = {}
    for path in sorted(directory.glob("*.json")):
        d = json.loads(path.read_text())
        workload = d["workload"] if "error" in d else d["context"]["workload"]
        sets.setdefault((workload, d["trace"]), []).append(d)
    return sets


def spread(values: list[float]) -> float:
    """Interquartile range over the median."""
    if len(values) < 2:
        return float("nan")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def values_of(details: list[dict], name: str) -> list[float]:
    return [d["result"]["metrics"][name]["value"] for d in details if "result" in d]


def pooled(details: list[dict], name: str) -> list[float]:
    """Every good sample of one end-to-end metric across the runs of a set."""
    good = [s for d in details for s in d.get("samples", []) if not s["failed"]]
    if name == "steps_per_s":
        return [s["path_steps"] / s["run_s"] for s in good]
    return [s[name] for s in good]


def failures(details: list[dict]) -> str:
    attempted = sum(d["result"]["attempted"] for d in details if "result" in d)
    failed = sum(d["result"]["failed"] for d in details if "result" in d)
    errors = sum("error" in d for d in details)
    frac = failed / attempted if attempted else float("nan")
    return f"failed_frac {frac:.3g} ratio ({failed} of {attempted} runs; {errors} sets errored)"


def show(directory: Path) -> int:
    sets = load(directory)
    for workload in sorted({w for w, _ in sets}):
        untraced = sets.get((workload, 0), [])
        print(f"== {workload}: {len(untraced)} untraced runs; {failures(untraced)}")
        for name, m in E2E.items():
            vals = values_of(untraced, name)
            if not vals:
                continue
            print(f"  {name}: {statistics.median(vals):.6g} {m['unit']}  spread "
                  f"{spread(vals):.3f} (bound {m['bound']}); pooled samples: "
                  f"{describe(pooled(untraced, name))}")
        traced = sets.get((workload, 1), [])
        if traced:
            print(f"  -- per layer, {len(traced)} traced runs; {failures(traced)}")
        for name, m in LAYERS.items():
            vals = [v for v in values_of(traced, name) if v is not None]
            if vals:
                print(f"  {name}: {statistics.median(vals):.6g} {m['unit']}")
            elif traced:
                why = {d["result"]["metrics"][name].get("missing") for d in traced
                       if "result" in d}
                print(f"  {name}: missing {sorted(map(str, why))} {m['unit']}")
    return 0


def compare(base_dir: Path, new_dir: Path) -> int:
    base, new = load(base_dir), load(new_dir)
    worse_count = 0
    print(f"{'workload':<14} {'metric':<12} {'base':>12} {'new':>12} {'worse by':>9} "
          f"{'spread b/n':>13} {'bound':>6}  verdict")
    for workload in sorted({w for w, t in base if t == 0} | {w for w, t in new if t == 0}):
        b_runs, n_runs = base.get((workload, 0), []), new.get((workload, 0), [])
        for name, m in E2E.items():
            bv, nv = values_of(b_runs, name), values_of(n_runs, name)
            if not bv or not nv:
                print(f"{workload:<14} {name:<12} missing in one set")
                worse_count += 1
                continue
            bm, nm = statistics.median(bv), statistics.median(nv)
            worse = (nm - bm) / bm if m["better"] == "lower" else (bm - nm) / bm
            sb, sn = spread(bv), spread(nv)
            noisy = max(sb, sn) > m["bound"]
            if worse > m["bound"]:
                verdict = "WORSE"
                worse_count += 1
            elif noisy:
                verdict = "unresolved (spread over bound)"
                worse_count += 1
            else:
                verdict = "ok"
            print(f"{workload:<14} {name:<12} {bm:>12.6g} {nm:>12.6g} {worse:>+9.2%} "
                  f"{sb:>6.3f}/{sn:<6.3f} {m['bound']:>6}  {verdict}")
        print(f"{workload:<14} failures: base {failures(b_runs)}; new {failures(n_runs)}")
    return 1 if worse_count else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("dir", type=Path)
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--first-seed", type=int, default=1)
    s = sub.add_parser("show")
    s.add_argument("dir", type=Path)
    p = sub.add_parser("compare")
    p.add_argument("base", type=Path)
    p.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.cmd == "collect":
        collect(args.dir, args.runs, args.first_seed)
        return show(args.dir)
    if args.cmd == "show":
        return show(args.dir)
    return compare(args.base, args.new)


if __name__ == "__main__":
    sys.exit(main())
