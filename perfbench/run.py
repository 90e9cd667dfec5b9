#!/usr/bin/env python3
"""Benchmark runner for the interception-localization pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload pilot --seed 1 --seconds 20 --trace 0

It builds the `perfbench` package (its own Cargo workspace, depending on the
repository's crates by path) into `$CARGO_TARGET_DIR` (default
`.bench_build`), then:

* `--trace 0` repeats untraced end-to-end repetitions of the workload, one
  fresh `perfbench` process each, at `threads = nproc` for `--seconds`
  seconds after one discarded warm-up, and reports the medians of the
  end-to-end metrics;
* `--trace 1` runs the single-thread traced run (`perfbench-trace`) once
  and, for the rest of the time, alternates untraced 1-thread and
  nproc-thread repetitions, from which it measures scaling efficiency and
  tracing overhead; it reports the per-layer metrics.

Each repetition's record is printed as one JSON line stamped with the run
conditions; the last line is the result object. The result reads
`"correct": false` when a repetition's deterministic output differs from
another's, or the traced aggregate from the campaign API's. `attempted` and
`failed` are the fleet's probes and its verdicts that disagree with simulator
truth, counted once per run, so they depend on the seed alone. A failed build
or repetition ends the run with a non-zero exit and no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
REP_TIMEOUT_S = 170
MIN_REPS = 3


class BenchError(Exception):
    """The benchmark could not produce a trustworthy result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["pilot", "localize", "taxonomy"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    return parser.parse_args(argv)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise BenchError("build failed: " + " ".join(cmd))
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "perfbench-trace")


def git_commit():
    """The checkout's commit, read from `.git` at the root only (never a
    parent directory); `unknown` outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def rustc_version():
    try:
        return subprocess.run(["rustc", "--version"], capture_output=True, text=True,
                              timeout=60).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def nproc():
    return len(os.sched_getaffinity(0))


def run_json(cmd):
    """Runs one benchmark process to completion and parses its JSON line."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        raise BenchError("failed (%d): %s\n%s" % (done.returncode, " ".join(cmd), done.stderr))
    return json.loads(done.stdout.strip().splitlines()[-1])


class Runner:
    def __init__(self, args, bins):
        self.args = args
        self.e2e_bin, self.trace_bin = bins
        self.nproc = nproc()
        self.base = {
            "workload": args.workload,
            "seed": args.seed,
            "nproc": self.nproc,
            "git_commit": git_commit(),
            "rustc": rustc_version(),
        }

    def flags(self):
        return ["--workload", self.args.workload, "--seed", str(self.args.seed)]

    def stamp(self, kind, threads, warm, record):
        """Prints `record` stamped with the conditions it was taken under."""
        conditions = dict(self.base, kind=kind, threads=threads,
                          oversubscribed=threads > self.nproc,
                          cache="warm" if warm else "cold", fleet_size=record["fleet_size"])
        record = dict(record, conditions=conditions)
        print(json.dumps(record, sort_keys=True))
        return record

    def rep(self, threads, warm=True, telemetry=False):
        cmd = [self.e2e_bin] + self.flags() + ["--threads", str(threads)]
        if telemetry:
            cmd.append("--telemetry")
        record = run_json(cmd)
        kind = "e2e+telemetry" if telemetry else "e2e"
        return self.stamp(kind, threads, warm, record)

    def traced(self):
        record = run_json([self.trace_bin] + self.flags())
        return self.stamp("traced", 1, True, record)


def median(values):
    return statistics.median(values)


def same_output(records):
    """Whether every record carries the same deterministic output: the
    aggregate's digest, probes attempted and verdicts that disagree with
    simulator truth."""
    keys = {(r["probes"], r["errors"], r["digest"]) for r in records}
    if len(keys) != 1:
        print("perfbench: outputs differ between runs of the same inputs: %s" % sorted(keys),
              file=sys.stderr)
    return len(keys) == 1


def end_to_end(runner, seconds):
    threads = runner.nproc
    warmup = runner.rep(threads, warm=False)
    deadline = time.monotonic() + seconds
    reps = []
    while len(reps) < MIN_REPS or time.monotonic() < deadline:
        reps.append(runner.rep(threads))
    correct = same_output([warmup] + reps)
    metrics = {
        "setup_s": median([r["setup_ns"] / 1e9 for r in reps]),
        "wall_s": median([r["wall_ns"] / 1e9 for r in reps]),
        "probes_per_s": median([r["probes"] / (r["measure_ns"] / 1e9) for r in reps]),
        "cpu_us_per_probe": median([r["cpu_ns"] / 1e3 / r["probes"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_kb"] / 1024 for r in reps]),
    }
    units = {"setup_s": "s", "wall_s": "s", "probes_per_s": "probes/s",
             "cpu_us_per_probe": "us", "peak_rss_mb": "MB"}
    # Every repetition runs the same seeded fleet and is checked above to
    # give the same probes and verdict errors, so the fleet's probes are
    # counted once: how many repetitions fit in the time does not change
    # attempted or failed, and the same seed gives the same counts.
    attempted, failed = warmup["probes"], warmup["errors"]
    return {k: (v, units[k]) for k, v in metrics.items()}, attempted, failed, correct


def per_layer(runner, seconds):
    n = runner.nproc
    deadline = time.monotonic() + seconds
    warmup = runner.rep(n, warm=False)
    trace = runner.traced()
    single, parallel = [], []
    # Alternate which side runs first so drift in the host hits both.
    while len(single) < 2 or time.monotonic() < deadline:
        order = [1, n] if len(single) % 2 == 0 else [n, 1]
        for threads in order:
            (single if threads == 1 else parallel).append(runner.rep(threads))
    observed = [runner.rep(n, telemetry=True)] if runner.args.workload != "taxonomy" else []
    correct = same_output([warmup, trace] + single + parallel + observed)

    def rate(r):
        return r["probes"] / (r["measure_ns"] / 1e9)

    # Measured, never modelled: nproc workers' throughput against nproc
    # times one worker's, both untraced on this fleet, threads <= nproc.
    efficiency = median([rate(r) for r in parallel]) / (n * median([rate(r) for r in single]))
    untraced_ns = median([r["measure_ns"] / r["probes"] for r in single])
    traced_ns = trace["traced_ns"] / trace["probes"]
    # The scheduler's own per-probe latency when the campaign API takes
    # telemetry; the classification API does not, so taxonomy reports the
    # traced run's per-device wall time.
    latency = observed[0] if observed else trace
    metrics = {m["name"]: (m["value"], m["unit"]) for m in trace["metrics"]}
    metrics["atlas.campaign.efficiency"] = (efficiency, "ratio")
    metrics["atlas.campaign.probe_p50_us"] = (latency["probe_wall"]["p50_us"], "us")
    metrics["atlas.campaign.probe_p99_us"] = (latency["probe_wall"]["p99_us"], "us")
    metrics["atlas.campaign.probe_samples"] = (latency["probe_wall"]["samples"], "count")
    metrics["trace.overhead_share"] = ((traced_ns - untraced_ns) / untraced_ns, "ratio")
    return metrics, trace["probes"], trace["errors"], correct


def validate(metrics, spec, trace):
    """Every printed metric is declared in BENCHMARK.json with its unit,
    and every declared metric of this kind is printed."""
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: unit for name, (_, unit) in metrics.items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        wrong = sorted(k for k in set(printed) & set(declared) if printed[k] != declared[k])
        raise BenchError("metrics disagree with BENCHMARK.json: missing %s, undeclared %s, "
                         "unit mismatch %s" % (missing, extra, wrong))


def main(argv):
    args = parse_args(argv)
    if args.seconds <= 0:
        raise BenchError("--seconds must be positive")
    spec = load_spec()
    runner = Runner(args, build())
    if args.trace:
        metrics, attempted, failed, correct = per_layer(runner, args.seconds)
    else:
        metrics, attempted, failed, correct = end_to_end(runner, args.seconds)
    validate(metrics, spec, args.trace)
    for name, (value, unit) in metrics.items():
        print("%-40s %16.6f %s" % (name, value, unit))
    if not args.trace:
        # Not an end-to-end metric: it is 0 on most seeds of two workloads.
        # The traced run reports it per layer; every run carries it as
        # failed / attempted.
        print("%-40s %16.6f %s   (%d of %d probes)" % (
            "verdict_error_share", failed / attempted, "ratio", failed, attempted))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    try:
        main(sys.argv[1:])
    except (BenchError, OSError, ValueError, KeyError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        sys.exit(1)
