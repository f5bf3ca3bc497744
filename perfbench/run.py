"""hybridsem benchmark: time to a correct verdict on four CLI workloads.

    python3 perfbench/run.py --workload sim --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run it from the root of a checkout; the program is imported from src/.
Each workload run is every CLI call of the workload, each in a fresh
interpreter, and its answers are checked against the answer key in
workloads.py.

--trace 0 repeats untraced workload runs for --seconds and prints the
end-to-end metrics; times are scaled to a nominal machine speed (see
Gauge).  --trace 1 alternates untraced runs with runs under
tracer.py for --seconds and prints the per-layer metrics; every count
must repeat exactly across the traced runs, and any that does not is
printed as unsteady.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  NOTES.md says why the
workloads and metrics are what they are.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CLI = (str(BENCH_DIR / "child.py"),)
SETUP = ("-c", "from hybridsem.cli import build_parser; build_parser()")
SETUP_REPEATS = 11
MIN_RUNS = 3
MIN_TRACED_RUNS = 2
# Caps on every child process, set in the child only: a runaway call is
# killed and counted as failed instead of stalling the benchmark.
CPU_LIMIT_S = 60
MEMORY_LIMIT_BYTES = 1 << 30

# The reference loop's time at the nominal speed that reported times are
# scaled to (its typical time on the 2-CPU VM the bounds were set on).
REFERENCE_STEPS = 30_000
REFERENCE_NOMINAL_S = 0.13

END_TO_END = {
    "setup_s": "s",
    "verdict_s_p50": "s",
    "peak_rss_mb": "MB",
}

LAYERS = ("hts", "simulation", "relation", "discretize", "casestudy", "cli")
SPAN_TIMES = (
    "hts.generate", "simulation.config_graph", "simulation.sim_check", "simulation.splice",
    "simulation.compose", "simulation.well_nested", "simulation.fixpoint",
    "simulation.slice_closure", "simulation.canonical_key", "relation.window",
    "relation.config_related", "relation.timewise", "relation.state_related",
    "discretize.hts", "discretize.traces", "discretize.hypotheses", "discretize.relation",
    "discretize.milner", "casestudy.chain", "cli.emit",
)
SPAN_CALLS = (
    "hts.generate", "simulation.splice", "simulation.canonical_key", "relation.window",
    "relation.timewise", "relation.state_related",
)
COUNTS = (
    "hts.trajectories", "hts.truncated", "simulation.configs",
    "simulation.pairs.examined", "simulation.pairs.overlapping",
    "simulation.pairs.related", "simulation.pairs.distinct", "simulation.transfer.calls",
    "simulation.slice_closure.size", "simulation.gsim_pairs", "relation.roots.calls",
    "relation.roots.found", "discretize.hts.states", "discretize.hts.edges",
    "discretize.traces.count", "discretize.exists_related.calls",
    "discretize.relation.pairs", "cli.output_bytes",
)


def per_layer_units() -> dict:
    """Every per-layer metric with its unit, in report order."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({f"{span}.self_s": "s" for span in SPAN_TIMES})
    units.update({f"{span}.calls": "count" for span in SPAN_CALLS})
    units.update({name: "count" for name in COUNTS})
    units["cli.output_bytes"] = "bytes"
    units["simulation.pair_yield"] = "ratio"
    units.update({"trace.overhead_s": "s", "trace.unsteady": "count", "trace.absent": "count"})
    return units


def _limit_child():
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT_S, CPU_LIMIT_S + 1))
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))


class Runner:
    """Spawns capped child interpreters in a scratch directory of the
    checkout and waits for each one."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        # Counts depend on set iteration order (the greatest-simulation
        # loop short-circuits any() over a set), so fix string hashing.
        self.env["PYTHONHASHSEED"] = "0"

    def spawn(self, args):
        """Run one child; return (wall seconds, peak RSS in KiB as child.py
        reports it or 0, exit code, stdout)."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                env=self.env, cwd=ROOT, preexec_fn=_limit_child)
            proc.wait()
            wall = perf_counter() - t0
        lines = err_path.read_text(errors="replace").strip().splitlines()
        rss = 0
        if lines and lines[-1].startswith("peak_rss_kib "):
            rss = int(lines.pop().split()[1])
        if proc.returncode not in (0, 1):
            print(f"child exited {proc.returncode}: {' | '.join(lines[-3:])}", file=sys.stderr)
        return wall, rss, proc.returncode, out_path.read_bytes()

    def run(self, calls, prefix=CLI, gauge=None):
        """One workload run; returns (wall seconds, scaled seconds, peak
        RSS KiB, mismatches).  A gauge scales each call separately."""
        wall, scaled, rss, problems = 0.0, 0.0, 0, []
        for call in calls:
            dt, kib, code, out = self.spawn([*prefix, *call.args])
            wall += dt
            if gauge is not None:
                scaled += gauge.scale(dt)
            rss = max(rss, kib)
            try:
                doc = json.loads(out)
            except ValueError:
                problems.append(f"{call.args[0]}: exit {code}, output is not JSON")
                continue
            problems += [f"{call.args[0]}: {p}" for p in call.check(code, doc)]
        return wall, scaled, rss, problems


def reference_s() -> float:
    """Time of a fixed loop in this process that does what hybridsem
    spends its time on: building small Fractions and hashing tuples of
    them."""
    t0 = perf_counter()
    table = {}
    for i in range(REFERENCE_STEPS):
        key = (i % 8, Fraction(i % 2000, 7))
        table[key] = table.get(key, 0) + 1
    return perf_counter() - t0


class Gauge:
    """Scales wall times to the nominal machine speed.

    On a shared host the CPU speed drifts by a quarter or more within
    minutes, and every wall time moves with it.  The reference loop,
    timed before and after each measured child process, tracks that
    speed: a wall time w taken between reference times r0 and r1 is
    reported as w * REFERENCE_NOMINAL_S / ((r0 + r1) / 2).  The program cannot
    change the reference loop, so a slower or faster program still
    moves the scaled time in full.
    """

    def __init__(self):
        reference_s()  # the first loop in a process also pays for growing the heap
        self.last = reference_s()

    def scale(self, wall: float) -> float:
        now = reference_s()
        ref, self.last = (self.last + now) / 2, now
        return wall * REFERENCE_NOMINAL_S / ref


def tail_label(values) -> str:
    """Highest percentile with at least ten runs beyond it."""
    n = len(values)
    if n < 11:
        return f"n/a ({n} runs; a tail with 10 runs beyond needs at least 11)"
    ordered = sorted(values)
    return f"{ordered[n - 11]:.4f} s (p{100 * (n - 10) // n} of {n} runs)"


def measure(runner: Runner, calls, seconds: float):
    """Untraced runs for `seconds`; returns (metrics, attempted, failed, summary)."""
    runner.spawn(SETUP)  # writes bytecode caches and warms the file cache
    gauge = Gauge()
    setup = [gauge.scale(runner.spawn(SETUP)[0]) for _ in range(SETUP_REPEATS)]
    walls, scaled, rss, failed = [], [], 0, 0
    t0 = perf_counter()
    while len(walls) < MIN_RUNS or perf_counter() - t0 < seconds:
        wall, wall_scaled, kib, problems = runner.run(calls, gauge=gauge)
        walls.append(wall)
        scaled.append(wall_scaled)
        rss = max(rss, kib)
        if problems:
            failed += 1
            if failed == 1:
                print("wrong answer: " + "; ".join(problems), file=sys.stderr)
    metrics = {
        "setup_s": statistics.median(setup),
        "verdict_s_p50": statistics.median(scaled),
        "peak_rss_mb": rss / 1024,
    }
    summary = [
        f"  {'setup_s':<15}{metrics['setup_s']:.4f} s (median of {SETUP_REPEATS})",
        f"  {'verdict_s_p50':<15}{metrics['verdict_s_p50']:.4f} s (median of {len(walls)} runs;"
        f" unscaled wall {statistics.median(walls):.4f} s)",
        f"  {'verdict_s_tail':<15}{tail_label(scaled)}",
        f"  {'peak_rss_mb':<15}{metrics['peak_rss_mb']:.1f} MB",
        f"  {'failed_share':<15}{failed / len(walls):.3f} ({failed} of {len(walls)} runs)",
    ]
    return metrics, len(walls), failed, summary


def _merge(traces) -> dict:
    """Sum the spans and counts of one workload run's calls."""
    spans, counts, absent = {}, {}, set()
    for tr in traces:
        absent.update(tr["absent"])
        for key, value in tr["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for name, rec in tr["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "parents": {}})
            for key in ("calls", "total_s", "self_s"):
                acc[key] += rec[key]
            for parent, n in rec["parents"].items():
                acc["parents"][parent] = acc["parents"].get(parent, 0) + n
    return {"spans": spans, "counts": counts, "absent": sorted(absent)}


def _layer_values(trace) -> tuple:
    """(times, counts) of one traced workload run, by metric name."""
    spans, raw = trace["spans"], trace["counts"]
    times = {f"{layer}.self_s": sum(rec["self_s"] for name, rec in spans.items()
                                    if name.startswith(layer + "."))
             for layer in LAYERS}
    times.update({f"{s}.self_s": spans.get(s, {}).get("self_s", 0.0) for s in SPAN_TIMES})
    counts = {f"{s}.calls": spans.get(s, {}).get("calls", 0) for s in SPAN_CALLS}
    counts.update({name: raw.get(name, 0) for name in COUNTS})
    examined = counts["simulation.pairs.examined"]
    counts["simulation.pair_yield"] = (
        counts["simulation.pairs.overlapping"] / examined if examined else 0.0)
    return times, counts


def _span_table(trace) -> list:
    """Spans by self time; shares are of all traced self time, which
    leaves out the tracer's own counting."""
    spans = trace["spans"]
    whole = sum(rec["self_s"] for rec in spans.values()) or 1.0
    lines = [f"  {'span':<28}{'calls':>9}{'total_s':>10}{'self_s':>10}{'self%':>7}  parents"]
    for name, rec in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        parents = ",".join(f"{p}:{n}" for p, n in sorted(rec["parents"].items()))
        lines.append(f"  {name:<28}{rec['calls']:>9}{rec['total_s']:>10.3f}"
                     f"{rec['self_s']:>10.3f}{100 * rec['self_s'] / whole:>6.1f}%  {parents}")
    return lines


def trace(runner: Runner, calls, seconds: float):
    """Alternate untraced and traced runs for `seconds`; returns
    (metrics, attempted, failed, summary)."""
    runner.spawn(SETUP)
    trace_path = runner.workdir / "trace.json"
    prefix = (str(BENCH_DIR / "tracer.py"), str(trace_path), "--")
    plain, traced, samples, failed = [], [], [], 0
    t0 = perf_counter()
    while len(traced) < MIN_TRACED_RUNS or perf_counter() - t0 < seconds:
        wall, _, _, problems = runner.run(calls)
        plain.append(wall)
        parts, wall = [], 0.0
        for call in calls:
            trace_path.unlink(missing_ok=True)
            w, _, _, wrong = runner.run([call], prefix)
            wall += w
            problems += wrong
            if trace_path.exists():
                parts.append(json.loads(trace_path.read_text()))
            else:
                problems.append(f"{call.args[0]}: the tracer wrote no trace")
        traced.append(wall)
        if problems:
            failed += 1
            print("wrong answer: " + "; ".join(problems), file=sys.stderr)
        samples.append(_merge(parts))
    values = [_layer_values(s) for s in samples]
    metrics = {name: statistics.median(v[0][name] for v in values) for name in values[0][0]}
    unsteady = [name for name in values[0][1] if len({v[1][name] for v in values}) > 1]
    metrics.update(values[0][1])
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["trace.unsteady"] = len(unsteady)
    metrics["trace.absent"] = len(samples[0]["absent"])
    summary = _span_table(samples[-1])
    summary += [f"  absent (not traced): {name}" for name in samples[0]["absent"]]
    summary += [f"  unsteady count: {name} = {[v[1][name] for v in values]}"
                for name in unsteady]
    summary.append(f"  {len(traced)} traced and {len(plain)} untraced runs; "
                   f"overhead {metrics['trace.overhead_s']:+.3f} s")
    summary += [f"  {name:<36}{metrics[name]:.6g} {unit}"
                for name, unit in per_layer_units().items()]
    return metrics, len(traced), failed, summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hybridsem" / "cli.py").is_file():
        print(f"perfbench: no hybridsem sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    units = per_layer_units() if args.trace else END_TO_END
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        runner = Runner(workdir)
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            calls = workloads.build(name, args.seed, workdir)
            step = trace if args.trace else measure
            metrics, attempted, failed, summary = step(runner, calls, args.seconds)
            print(f"workload {name}, seed {args.seed}:")
            print("\n".join(summary), flush=True)
            result["attempted"] += attempted
            result["failed"] += failed
            result["correct"] = result["correct"] and failed == 0
            prefix = "" if len(names) == 1 else name + "."
            for key, unit in units.items():
                result["metrics"][prefix + key] = {"value": metrics[key], "unit": unit}
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run's directory is still there
    return 0


if __name__ == "__main__":
    sys.exit(main())
