#!/usr/bin/env python3
"""Diff a fresh gbench_core run against the committed BENCH_core.json.

For every benchmark present in both runs, prints the baseline median
real time, the fresh median real time and their ratio (fresh / base;
above 1 is slower), then the geometric mean of the ratios. The medians
are gbench's "_median" aggregates. Both runs' host, CPU count and build type are
printed first: a ratio between different hosts or build types measures
the host as much as the code.

It reports and never gates: the exit status is 0 whatever the ratios,
and nonzero only when an input is missing or malformed.

The fresh run uses the settings scripts/run_all_experiments.sh --bench
makes BENCH_core.json with (--benchmark_min_time=0.2, aggregates only).

Usage (from the root of a checkout):

    scripts/compare_bench.py --binary build-bench/bench/gbench_core \\
        [--repetitions 5] [--baseline BENCH_core.json] [--out fresh.json]
"""

import argparse
import json
import math
import subprocess
import sys

NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def medians(doc):
    """Maps benchmark run name -> its "_median" aggregate real time in ns."""
    return {
        b["run_name"]: b["real_time"] * NS_PER_UNIT[b.get("time_unit", "ns")]
        for b in doc.get("benchmarks", [])
        if b.get("aggregate_name") == "median"
    }


def describe(doc):
    ctx = doc.get("context", {})
    return "host {} cpus {} build {}".format(
        ctx.get("host_name", "?"), ctx.get("num_cpus", "?"),
        ctx.get("build_type", ctx.get("library_build_type", "?")))


def run_fresh(args):
    cmd = [args.binary, "--benchmark_format=json",
           "--benchmark_repetitions={}".format(args.repetitions),
           "--benchmark_report_aggregates_only=true",
           "--benchmark_min_time=0.2"]
    print("running:", " ".join(cmd), file=sys.stderr)
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
    if args.out:
        with open(args.out, "w") as f:
            f.write(out.stdout)
    return json.loads(out.stdout)


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--binary", required=True, help="gbench_core to run")
    parser.add_argument("--baseline", default="BENCH_core.json")
    parser.add_argument("--repetitions", type=int, default=5)
    parser.add_argument("--out", help="also save the fresh run's JSON here")
    args = parser.parse_args(argv)

    with open(args.baseline) as f:
        base_doc = json.load(f)
    fresh_doc = run_fresh(args)

    base = medians(base_doc)
    fresh = medians(fresh_doc)
    common = [name for name in base if name in fresh]
    print("baseline:", args.baseline, "-", describe(base_doc))
    print("fresh:   ", args.binary, "-", describe(fresh_doc))
    if not common:
        print("no benchmark appears in both runs")
        return 0

    width = max(len(name) for name in common)
    print("\n{:<{w}}  {:>14}  {:>14}  {:>7}".format(
        "benchmark", "base ns", "fresh ns", "ratio", w=width))
    ratios = []
    for name in common:
        ratio = fresh[name] / base[name] if base[name] > 0 else float("nan")
        if ratio > 0 and math.isfinite(ratio):
            ratios.append(ratio)
        print("{:<{w}}  {:>14.1f}  {:>14.1f}  {:>7.3f}".format(
            name, base[name], fresh[name], ratio, w=width))
    if ratios:
        geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        print("\ngeometric mean ratio over {} benchmarks: {:.3f}".format(
            len(ratios), geomean))
    only_base = sorted(set(base) - set(fresh))
    only_fresh = sorted(set(fresh) - set(base))
    if only_base:
        print("only in the baseline:", ", ".join(only_base))
    if only_fresh:
        print("only in the fresh run:", ", ".join(only_fresh))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
