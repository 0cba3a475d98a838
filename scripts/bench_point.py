#!/usr/bin/env python3
"""The committed benchmark points, BENCH_<workload>.json: record, gate, drift.

    python3 scripts/bench_point.py record <workload>
    python3 scripts/bench_point.py gate <workload> <perfbench log>...
    python3 scripts/bench_point.py drift <grid|mega> <repro summary>

Run from the repository root. The workloads are the four BENCHMARK.json
names: grid, mega, serve, corpus.

record  runs the command BENCHMARK.json names K = 5 times at seed 1,
        its `run_seconds` and `--trace 0`, pinned to cores 0 and 1 as
        CI pins its runs, and writes BENCH_<workload>.json: for every
        end-to-end metric the median, quartiles and each run's value,
        plus the median host speed and the git trees of the measured
        sources. For grid and mega it
        first runs `repro --grid/--mega-grid --json` and keeps that
        aggregate; the grid's is written before perfbench starts,
        because perfbench checks every grid pass against it.
gate    compares one or more perfbench runs against the committed point.
        Every run must be correct with no failed operation. The median
        of their ticks_per_s must lie within the tolerance of the
        committed median: for grid and mega the step fails outside it,
        for serve and corpus it warns. CI passes three runs for grid
        and mega, whose gate is hard, and one for serve and corpus.
        The tolerance is three quartile distances over the median, but
        at least the metric's BENCHMARK.json bound and at most 30%;
        GRID_GATE_TOLERANCE / MEGA_GATE_TOLERANCE override it.
drift   fails unless a `repro --json` summary's aggregate equals the
        committed point's on every key.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

WORKLOADS = ("grid", "mega", "serve", "corpus")
SEED = 1
K = 5
# The gated metric and the cap on its tolerance. The committed runs
# are taken back to back, so their spread leaves out how the host's
# speed drifts over longer spans: on the 2-core container the points
# were recorded on, the same tree read 1.10-1.12x its committed
# ticks_per_s medians 15 minutes later. A gate tighter than the
# benchmark's own regression bound would fail on that drift alone, so
# the bound is the floor.
GATED = "ticks_per_s"
MAX_TOLERANCE = 0.30
HARD_GATES = {"grid": "GRID_GATE_TOLERANCE", "mega": "MEGA_GATE_TOLERANCE"}
# perfbench's host-speed kernel spreads evenly over every core
# `available_parallelism` reports and the grid and mega sweeps do not,
# so its scaled ticks_per_s compares across hosts only at one core
# count: two, the container the points were recorded on. CI runs the
# gate's perfbench under the same pin.
PIN = ["taskset", "-c", "0,1"]
REPRO = ["cargo", "run", "--release", "--offline", "--quiet", "-p", "esafe-bench",
         "--bin", "repro", "--"]
REPRO_COMMAND = {"grid": "--grid", "mega": "--mega-grid"}


def fail(message):
    print(f"bench_point: {message}", file=sys.stderr)
    sys.exit(1)


def point_path(workload):
    return f"BENCH_{workload}.json"


def quartiles(values):
    """q1, median, q3 by linear interpolation between order statistics."""
    xs = sorted(values)

    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def source_trees():
    """The git tree of each directory perfbench builds from, as it is on
    disk (ignored files left out), through a throwaway index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))

        def git(*args):
            return subprocess.run(["git", *args], env=env, check=True,
                                  capture_output=True, text=True).stdout.strip()

        dirs = ("crates", "perfbench", "vendor")
        git("add", "-A", *dirs)
        return {d: git("write-tree", f"--prefix={d}/") for d in dirs}


def repro_aggregate(workload):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "summary.json")
        subprocess.run(REPRO + [REPRO_COMMAND[workload], "--json", out], check=True,
                       stdout=subprocess.DEVNULL)
        with open(out) as f:
            return json.load(f)["aggregate"]


def perfbench_run(command, workload, seconds):
    """One perfbench run: its end-to-end values and its host speed."""
    args = PIN + command + ["--workload", workload, "--seed", str(SEED),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    last = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or last.get("correct") is not True or last.get("failed") != 0:
        fail(f"{workload} run failed:\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    speed = next((float(m.group(1)) for line in lines
                  if (m := re.match(r"machine: host at ([0-9.]+)x", line))), None)
    if speed is None:
        fail(f"{workload} run printed no host speed")
    return last["metrics"], speed


def record(workload):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    trees = source_trees()
    aggregate = repro_aggregate(workload) if workload in REPRO_COMMAND else None
    path = point_path(workload)
    previous = open(path).read() if os.path.exists(path) else None
    if workload == "grid":
        with open(path, "w") as f:
            json.dump({"aggregate": aggregate}, f)
    try:
        results = []
        for i in range(K):
            print(f"{workload}: run {i + 1} of {K}", file=sys.stderr)
            results.append(perfbench_run(bench["command"], workload, seconds))
    except BaseException:
        if previous is not None:
            with open(path, "w") as f:
                f.write(previous)
        raise
    metrics = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [m[name]["value"] for m, _ in results]
        q1, median, q3 = quartiles(values)
        metrics[name] = {"unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                         "runs": values}
    point = {
        "workload": workload,
        "command": " ".join(bench["command"] + [
            "--workload", workload, "--seed", str(SEED), "--seconds", str(seconds),
            "--trace", "0"]),
        "seed": SEED,
        "run_seconds": seconds,
        "k": K,
        "host_speed": statistics.median(speed for _, speed in results),
        "tree": trees,
        "metrics": metrics,
    }
    if aggregate is not None:
        point["aggregate"] = aggregate
    with open(path, "w") as f:
        json.dump(point, f, indent=2)
        f.write("\n")
    print(f"wrote {path}", file=sys.stderr)


def tolerance(workload, committed):
    override = os.environ.get(HARD_GATES.get(workload, ""), "")
    if override:
        return float(override)
    with open("BENCHMARK.json") as f:
        bound = next(m["bound"] for m in json.load(f)["end_to_end"] if m["name"] == GATED)
    spread = 3 * (committed["q3"] - committed["q1"]) / committed["median"]
    return min(MAX_TOLERANCE, max(bound, spread))


def gate(workload, logs):
    with open(point_path(workload)) as f:
        point = json.load(f)
    runs = []
    for log in logs:
        with open(log) as f:
            lines = f.read().splitlines()
        last = json.loads(lines[-1]) if lines else {}
        if last.get("correct") is not True or last.get("failed") != 0:
            print(f"::error title=Benchmark {workload}::{log}: the run was not correct "
                  f"(\"correct\": {last.get('correct')}, \"failed\": {last.get('failed')})")
            sys.exit(1)
        runs.append(last["metrics"])
    for name, committed in point["metrics"].items():
        got = statistics.median(m[name]["value"] for m in runs)
        print(f"{workload} {name}: committed median {committed['median']:.6g} "
              f"(q1 {committed['q1']:.6g}, q3 {committed['q3']:.6g}, k {point['k']}) "
              f"-> median of {len(runs)} run(s) {got:.6g} ({got / committed['median']:.2f}x)")
    committed = point["metrics"][GATED]
    ratio = statistics.median(m[GATED]["value"] for m in runs) / committed["median"]
    tol = tolerance(workload, committed)
    if abs(ratio - 1) <= tol:
        print(f"{workload} {GATED} within ±{tol:.0%} of the committed median")
        return
    message = (f"the median {GATED} of {len(runs)} run(s) is {ratio:.2f}x the committed "
               f"{point_path(workload)} median "
               f"(tolerance ±{tol:.0%}). If the change is intentional, refresh the point "
               f"with `python3 scripts/bench_point.py record {workload}`")
    if workload in HARD_GATES:
        print(f"::error title=Benchmark gate {workload}::{message}; if the runner's "
              f"hardware shifted, set the {HARD_GATES[workload]} repository variable.")
        sys.exit(1)
    print(f"::warning title=Benchmark drift {workload}::{message} (warn-only).")


def drift(workload, summary):
    with open(point_path(workload)) as f:
        committed = json.load(f)["aggregate"]
    with open(summary) as f:
        got = json.load(f)["aggregate"]
    keys = sorted(k for k in committed.keys() | got.keys() if committed.get(k) != got.get(k))
    if keys:
        print(f"::error title={workload} aggregate drift::the aggregate differs from "
              f"{point_path(workload)} on {keys}: results changed, not just speed")
        sys.exit(1)
    print(f"{workload} aggregate equals {point_path(workload)} on all {len(committed)} keys")


def main(argv):
    usage = __doc__.split("\n\n")[1]
    if len(argv) < 2 or argv[1] not in WORKLOADS:
        fail(usage)
    command, workload, rest = argv[0], argv[1], argv[2:]
    if command == "record" and not rest:
        record(workload)
    elif command == "gate" and rest:
        gate(workload, rest)
    elif command == "drift" and len(rest) == 1 and workload in REPRO_COMMAND:
        drift(workload, rest[0])
    else:
        fail(usage)


if __name__ == "__main__":
    main(sys.argv[1:])
