"""One ammlab CLI command in a fresh interpreter, timed from the outside.

    PYTHONPATH=src python3 child.py SPEC.json

SPEC.json names the CLI argv, the bundle directory (`out`), whether to
trace (`trace`) and where to write the result (`result`).  The process
imports ammlab.cli, builds its parser, calls cli.main(argv) and records the
monotonic clock at each boundary; the parent subtracts its own spawn time
to get set-up time.  After the timed region it hashes the bundle and checks
its numbers against the closed forms, so the checks never count toward the
timings.

With tracing on, public names of the package are wrapped before main() runs
(never inside src/): calls made once per run are aggregated into a count and
busy time, every other call is kept as a span with its parent.  Spans assume
one thread, so traced commands run with --threads 1.
"""

import sys
import time

import ammlab.cli  # the import is part of the set-up being timed

ammlab.cli.build_parser()
T_SETUP = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

# a fee-free mean may sit this many standard errors from its closed form
STDERR_TOLERANCE = 5.0
# mean_fees against fee * mean_volume: same numbers, different summation order
FEE_REL_TOLERANCE = 1e-12


class Tracer:
    """Spans and per-run aggregates recorded around wrapped public names."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.aggregates = {}
        self.missing = {}
        self.seed_keys = set()
        self.chunks = 0
        self.trades = 0
        self.path_steps = 0
        self.computed_bytes = 0

    def _charge_parent(self, elapsed):
        if self.stack:
            self.spans[self.stack[-1]]["child_s"] += elapsed

    def span(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            record = {"name": name, "parent": self.stack[-1] if self.stack else None,
                      "child_s": 0.0}
            self.spans.append(record)
            self.stack.append(len(self.spans) - 1)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                record["duration_s"] = elapsed
                self._charge_parent(elapsed)
            if on_result is not None:
                on_result(args, kwargs, out)
            return out

        return wrapper

    def aggregate(self, name, fn, on_call=None):
        totals = self.aggregates.setdefault(name, {"calls": 0, "busy_s": 0.0})

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            totals["calls"] += 1
            totals["busy_s"] += elapsed
            self._charge_parent(elapsed)
            if on_call is not None:
                on_call(args)
            return out

        return wrapper

    def patch(self, owner, attr, label, make):
        """Replace owner.attr by make(original); note it as missing if absent."""
        raw = vars(owner).get(attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
            return
        original = getattr(owner, attr, None)
        if original is None or not callable(original):
            self.missing[label] = f"{label} is not defined"
            return
        setattr(owner, attr, make(original))

    def install(self):
        import ammlab.harness as harness
        import ammlab.stats as stats
        from ammlab.cli import Bundle

        def seed_key(args):
            self.seed_keys.add(tuple(args[:2]))

        def campaign_done(args, kwargs, result):
            config = args[0] if args else kwargs["config"]
            self.path_steps += config.n_runs * config.n_steps
            self.trades += int(result.column("n_arb_events").sum())

        def chunks_planned(args, kwargs, result):
            self.chunks += len(result)

        def matrix_built(args, kwargs, prices):
            # draws plus price matrix, from the array shapes (computed, not measured)
            self.computed_bytes += prices.nbytes + prices.shape[0] * (prices.shape[1] - 1) * 8

        plan = [
            (harness, "derive_run_seed", "harness.derive_run_seed",
             lambda f: self.aggregate("derive_run_seed", f, seed_key)),
            (harness, "make_generator", "harness.make_generator",
             lambda f: self.aggregate("make_generator", f)),
            (harness, "prices_from_increments", "harness.prices_from_increments",
             lambda f: self.span("prices_from_increments", f)),
            (harness, "simulate_price_matrix", "harness.simulate_price_matrix",
             lambda f: self.span("simulate_price_matrix", f, matrix_built)),
            (harness, "plan_chunks", "harness.plan_chunks",
             lambda f: self.span("plan_chunks", f, chunks_planned)),
            (harness, "run_campaign", "harness.run_campaign",
             lambda f: self.span("harness.run_campaign", f, campaign_done)),
            (ammlab.cli, "run_campaign", "cli.run_campaign",
             lambda f: self.span("cli.run_campaign", f, campaign_done)),
            (stats.Histogram, "from_samples", "stats.Histogram.from_samples",
             lambda f: self.span("Histogram.from_samples", f)),
            (Bundle, "write_csv", "cli.Bundle.write_csv", lambda f: self.span("write_csv", f)),
            (Bundle, "write_json", "cli.Bundle.write_json", lambda f: self.span("write_json", f)),
            (Bundle, "seal", "cli.Bundle.seal", lambda f: self.span("seal", f)),
        ]
        for owner, attr, label, make in plan:
            self.patch(owner, attr, label, make)

    def summary(self):
        def total(name, self_time=False):
            return sum(s["duration_s"] - (s["child_s"] if self_time else 0.0)
                       for s in self.spans if s["name"] == name)

        def calls(name):
            return sum(1 for s in self.spans if s["name"] == name)

        seeds = self.aggregates.get("derive_run_seed", {"calls": 0, "busy_s": 0.0})
        gens = self.aggregates.get("make_generator", {"calls": 0, "busy_s": 0.0})
        in_seal = {i for i, s in enumerate(self.spans) if s["name"] == "seal"}
        json_s = sum(s["duration_s"] for s in self.spans
                     if s["name"] == "write_json" and s["parent"] not in in_seal)
        campaigns = calls("harness.run_campaign") + calls("cli.run_campaign")
        return {
            "stochastic.seed_s": seeds["busy_s"],
            "stochastic.seed_calls": seeds["calls"],
            "stochastic.generator_s": gens["busy_s"],
            "stochastic.generator_calls": gens["calls"],
            "stochastic.seed_reuse_ratio": (
                (seeds["calls"] - len(self.seed_keys)) / seeds["calls"]
                if seeds["calls"] else 0.0),
            "stochastic.draws_s": total("simulate_price_matrix", self_time=True),
            "stochastic.prices_s": total("prices_from_increments"),
            "stochastic.computed_bytes": self.computed_bytes,
            "harness.kernel_s": (total("harness.run_campaign", self_time=True)
                                 + total("cli.run_campaign", self_time=True)),
            "harness.trades": self.trades,
            "harness.trade_ratio": self.trades / self.path_steps if self.path_steps else 0.0,
            "harness.campaigns": campaigns,
            "harness.chunks": self.chunks,
            "harness.path_steps": self.path_steps,
            "stats.histogram_s": total("Histogram.from_samples"),
            "stats.histogram_calls": calls("Histogram.from_samples"),
            "cli.table_csv_s": total("write_csv"),
            "cli.json_s": json_s,
            "cli.seal_s": total("seal"),
        }


_CAMPAIGN_LAYERS = ("harness.kernel_s", "harness.trades", "harness.trade_ratio",
                    "harness.campaigns", "harness.path_steps")
# layers whose value needs a wrap target; a missing target marks them missing
NEEDS = {
    "harness.derive_run_seed": ("stochastic.seed_s", "stochastic.seed_calls",
                                "stochastic.seed_reuse_ratio"),
    "harness.make_generator": ("stochastic.generator_s", "stochastic.generator_calls"),
    "harness.simulate_price_matrix": ("stochastic.draws_s", "stochastic.computed_bytes"),
    "harness.prices_from_increments": ("stochastic.prices_s",),
    "harness.plan_chunks": ("harness.chunks",),
    "harness.run_campaign": _CAMPAIGN_LAYERS,
    "cli.run_campaign": _CAMPAIGN_LAYERS,
    "stats.Histogram.from_samples": ("stats.histogram_s", "stats.histogram_calls"),
    "cli.Bundle.write_csv": ("cli.table_csv_s",),
    "cli.Bundle.write_json": ("cli.json_s",),
    "cli.Bundle.seal": ("cli.seal_s",),
}


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _near_oracle(summary, config, label):
    """Fee-free means within STDERR_TOLERANCE standard errors of the closed forms."""
    # imported after the timed region, so a lazy import in the CLI shows in set-up and memory
    from ammlab.analytics import expected_il_gbm, expected_lvr_gbm

    args = (config["liquidity"], config["p0"], config["sigma"])
    oracle = {"lvr": expected_lvr_gbm(*args, config["n_steps"]),
              "il": expected_il_gbm(*args, float(config["n_steps"]))}
    problems = []
    for name, want in oracle.items():
        got, err = summary[f"mean_{name}"], summary[f"stderr_{name}"]
        if not abs(got - want) <= STDERR_TOLERANCE * err:
            problems.append(f"{label}: mean_{name} {got!r} is {abs(got - want) / err:.2f} "
                            f"stderr from the closed form {want!r}")
    return problems


def _fee_row(row, fee, n_steps, label):
    problems = []
    if not _close(row["mean_fees"], fee * row["mean_volume"], FEE_REL_TOLERANCE):
        problems.append(f"{label}: mean_fees {row['mean_fees']!r} != fee * mean_volume")
    if not row["mean_events"] <= n_steps:
        problems.append(f"{label}: mean_events {row['mean_events']!r} > n_steps {n_steps}")
    return problems


def check_bundle(out, manifest, digests):
    """Problems with a sealed bundle's integrity and numbers; empty when it is right."""
    listed = {entry["path"]: entry["sha256"] for entry in manifest["outputs"]}
    on_disk = {name: d for name, d in digests.items() if name != "manifest.json"}
    if listed != on_disk:
        bad = sorted(n for n in set(listed) | set(on_disk) if listed.get(n) != on_disk.get(n))
        return [f"bundle files and manifest digests disagree on {bad}"]

    problems = []
    config = manifest["config"]
    command = manifest["command"]
    if command == ["simulate"] and config["process"] == "gbm":
        summary = json.loads((out / "summary.json").read_text())["summary"]
        if config["fee"] == 0.0:
            problems += _near_oracle(summary, config, "simulate")
        else:
            problems += _fee_row(summary, config["fee"], config["n_steps"], "simulate")
    elif command == ["sweep", "fee"]:
        baseline = json.loads((out / "baseline.json").read_text())
        problems += _near_oracle(baseline, config, "baseline")
        lines = (out / "rows.csv").read_text().splitlines()
        columns = lines[0].split(",")
        rows = [dict(zip(columns, map(float, line.split(",")))) for line in lines[1:]]
        for row in rows:
            problems += _fee_row(row, row["fee"], config["n_steps"], f"fee {row['fee']!r}")
        ratios = [row["volume_ratio"] for row in rows]
        if any(b > a for a, b in zip(ratios, ratios[1:])):
            problems.append(f"volume ratio rises with the fee: {ratios}")
    else:
        problems.append(f"no output check for command {command}")
    return problems


def main():
    spec = json.loads(Path(sys.argv[1]).read_text())
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    out = Path(spec["out"])
    t_start = time.monotonic()
    try:
        code = ammlab.cli.main(spec["argv"] + ["--out", str(out)])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    t_end = time.monotonic()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "t_setup": T_SETUP,
        "run_s": t_end - t_start,
        "peak_rss_mb": peak_kib / 1024.0,
        "exit_code": code,
        "problems": [],
    }
    if code != 0:
        result["problems"].append(f"cli exited with {code}")
    else:
        manifest = json.loads((out / "manifest.json").read_text())
        files = sorted(out.iterdir())
        result["digests"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        result["bundle_bytes"] = sum(p.stat().st_size for p in files)
        result["config"] = manifest["config"]
        result["command"] = manifest["command"]
        result["problems"] += check_bundle(out, manifest, result["digests"])
    if tracer is not None:
        layers = tracer.summary()
        for target, names in NEEDS.items():
            if target in tracer.missing:
                for name in names:
                    layers[name] = None
                    result.setdefault("missing", {})[name] = tracer.missing[target]
        result["layers"] = layers
        result["spans"] = tracer.spans
    import numpy
    import scipy

    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
