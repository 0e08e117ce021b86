#!/usr/bin/env python3
"""Compares two dsfbench result sets, metric by metric, workload by workload.

A result set is a directory of result-<workload>-seed<n>-trace<t>.json
files, as dsfbench writes them (by default to .bench_build/out), such as
the committed dsfbench/baseline. Report only: the exit code is 0
whatever the verdicts.

    python3 dsfbench/compare.py BASE_DIR NEW_DIR
    python3 dsfbench/compare.py BASE_DIR          # spreads of one set

For every end-to-end metric of every workload the comparison takes each
set's median and its spread (distance between the first and third
quartile, as a share of the median) and labels the pairing:

  unresolved  either set's spread is wider than the metric's bound in
              BENCHMARK.json, and not every NEW run beats every BASE run;
  worse       NEW's median is worse than BASE's by more than the bound;
  improved    NEW's median is better by more than BASE's spread and NEW
              wins at least nine tenths of the runs paired by seed (when
              the sets share seeds);
  unchanged   otherwise.

Per-layer and detail metrics have no bound: their medians and relative
change are listed without a label (positive = worse, by the per-layer
"better" of BENCHMARK.json; for detail metrics lower is better except
ops_per_s). With one set, each end-to-end metric's spread is shown
against its bound (steady when below a third of it), and each detail
metric's spread on its own.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_set(directory):
    """{(workload, section): {metric: {seed: value}}}."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "result-*.json"))):
        with open(path) as f:
            result = json.load(f)
        if not result.get("correct", False):
            print(f"warning: {path} failed its output checks",
                  file=sys.stderr)
        for section in ("end_to_end", "per_layer", "detail"):
            for name, m in result.get(section, {}).items():
                if m.get("samples", 1) == 0:
                    continue  # the workload never enters that layer
                key = (result["workload"], section)
                runs.setdefault(key, {}).setdefault(name, {})[
                    result["seed"]] = m["value"]
    return runs


def summary(values):
    values = sorted(v for v in values if v is not None)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, spread


def worse_by(base, new, better):
    """Relative change of new vs base, positive when new is worse."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def label(base_runs, new_runs, spec):
    bound = spec["bound"]
    better = spec["better"]
    b_med, b_spread = summary(base_runs.values())
    n_med, n_spread = summary(new_runs.values())
    worse = worse_by(b_med, n_med, better)

    def beats(n, b):
        return n < b if better == "lower" else n > b

    all_better = all(beats(n, b) for n in new_runs.values()
                     for b in base_runs.values())
    if max(b_spread, n_spread) > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "worse"
    else:
        paired = sorted(set(base_runs) & set(new_runs))
        wins = sum(beats(new_runs[s], base_runs[s]) for s in paired)
        enough_wins = not paired or wins >= 0.9 * len(paired)
        verdict = ("improved" if -worse > b_spread and enough_wins
                   else "unchanged")
    return b_med, b_spread, n_med, n_spread, worse, verdict


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--benchmark",
                        default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    specs = {m["name"]: m for m in benchmark["end_to_end"]}
    directions = {m["name"]: m["better"] for m in benchmark["per_layer"]}
    # Detail metrics are times or counts (lower is better) except one.
    directions["ops_per_s"] = "higher"

    base = load_set(args.base)
    if args.new is None:
        print(f"{'workload':10} {'metric':24} {'median':>14} {'spread':>8} "
              f"{'bound':>6}  verdict")
        for (workload, section), metrics in sorted(base.items()):
            if section != "end_to_end":
                continue
            for name, spec in specs.items():
                if name not in metrics:
                    continue
                med, spread = summary(metrics[name].values())
                bound = spec["bound"]
                verdict = ("steady" if spread < bound / 3 else
                           "within bound" if spread <= bound else "TOO WIDE")
                print(f"{workload:10} {name:24} {med:14.6g} {spread:8.4f} "
                      f"{bound:6.2f}  {verdict} (n={len(metrics[name])})")
        for (workload, section), metrics in sorted(base.items()):
            if section != "detail":
                continue
            for name, runs in sorted(metrics.items()):
                med, spread = summary(runs.values())
                shown = f"{spread:8.4f}" if med else f"{'-':>8}"
                print(f"{workload:10} {name:24} {med:14.6g} {shown} "
                      f"{'-':>6}  detail (n={len(runs)})")
        return 0

    new = load_set(args.new)
    print(f"{'workload':10} {'metric':36} {'base':>12} {'new':>12} "
          f"{'worse by':>9}  verdict")
    for key in sorted(set(base) | set(new)):
        workload, section = key
        b_metrics = base.get(key, {})
        n_metrics = new.get(key, {})
        for name in sorted(set(b_metrics) & set(n_metrics)):
            if section == "end_to_end" and name in specs:
                b_med, b_sp, n_med, n_sp, worse, verdict = label(
                    b_metrics[name], n_metrics[name], specs[name])
                verdict += f" (spread {b_sp:.3f}/{n_sp:.3f}, " \
                           f"bound {specs[name]['bound']})"
            else:
                b_med, _ = summary(b_metrics[name].values())
                n_med, _ = summary(n_metrics[name].values())
                better = directions.get(name, "lower")
                worse = worse_by(b_med, n_med, better)
                verdict = f"{section}, no bound ({better} is better)"
            print(f"{workload:10} {name:36} {b_med:12.6g} {n_med:12.6g} "
                  f"{worse:+9.3f}  {verdict}")
        for name in sorted(set(b_metrics) ^ set(n_metrics)):
            print(f"{workload:10} {name:36} only in "
                  f"{'base' if name in b_metrics else 'new'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
