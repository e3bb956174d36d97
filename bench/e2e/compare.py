#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark results.

    python3 bench/e2e/compare.py A/ B/ [--benchmark BENCHMARK.json]

A and B are directories of results files written by `run.sh --out DIR`
(searched recursively for the untraced runs' <workload>.results.json). A is
the baseline, B the change. Smoke and full-size runs are kept apart.
Runs are paired by seed (the k-th A run of a seed with the k-th B run of
it). For every workload and metric it prints each side's median and
quartiles, the fraction of pairs B wins (ties count for neither side), and
a verdict. For measured metrics:

  worse       B's median is worse than A's by more than the bound
  better      every B run beats every A run, or B wins at least 90 % of
              the pairs and the medians differ by more than A's IQR
  unresolved  neither, and a side's IQR / median exceeds the bound
  same        otherwise

Exact metrics (deterministic per seed, such as sign-off QoR) are compared
pair by pair: same when every pair is identical, better when no pair got
worse, worse otherwise.

Bounds come from BENCHMARK.json. A metric it does not list takes the
bound of its kind: timing metrics that of latency_ms_min and memory
metrics that of peak_rss_mb. Info metrics (how late a load generator ran)
are printed without a verdict. Quartiles follow statistics.quantiles, as
the benchmark's own output does. Exits 1 when any verdict is "worse" (a
higher error_rate counts as worse).
"""

import argparse
import json
import pathlib
import statistics
import sys

# The BENCHMARK.json metric whose bound a metric of each kind inherits.
KIND_REFERENCE = {"timing": "latency_ms_min", "memory": "peak_rss_mb"}
# Fields every results file the benchmark writes has.
RESULT_KEYS = ("workload", "seed", "trace", "smoke", "metrics")


def load_runs(directory):
    """{(workload, smoke): [results]} of the untraced runs, in seed order."""
    runs = {}
    for path in sorted(pathlib.Path(directory).rglob("*.results.json")):
        try:
            r = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as e:
            print(f"compare.py: skipping {path}: {e}", file=sys.stderr)
            continue
        if not isinstance(r, dict) or any(k not in r for k in RESULT_KEYS):
            print(f"compare.py: skipping {path}: not a results file",
                  file=sys.stderr)
            continue
        if r["trace"]:
            continue
        runs.setdefault((r["workload"], bool(r["smoke"])), []).append(r)
    for rs in runs.values():
        rs.sort(key=lambda r: r["seed"])
    return runs


def pair_by_seed(ra, rb):
    """(a, b) result pairs: the k-th run of each seed on both sides."""
    pairs, taken = [], {}
    for a in ra:
        seed = a["seed"]
        same = [b for b in rb if b["seed"] == seed]
        k = taken.get(seed, 0)
        if k < len(same):
            pairs.append((a, same[k]))
            taken[seed] = k + 1
    return pairs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def relative(delta, base):
    if base != 0:
        return delta / abs(base)
    return float("inf") if delta > 0 else 0.0


def measured_verdict(a, b, pairs, sign, bound):
    qa, qb = quartiles(a), quartiles(b)
    if relative(sign * (qb[1] - qa[1]), qa[1]) > bound:
        return "worse"
    if all(sign * (y - x) < 0 for x in a for y in b):
        return "better"
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if (pairs and wins / len(pairs) >= 0.9
            and abs(qb[1] - qa[1]) > qa[2] - qa[0]):
        return "better"
    spread = max(relative(qa[2] - qa[0], qa[1]), relative(qb[2] - qb[0], qb[1]))
    if spread > bound:
        return "unresolved"
    return "same"


def exact_verdict(pairs, sign):
    if not pairs:
        return "unresolved"
    if all(x == y for x, y in pairs):
        return "same"
    if all(sign * (y - x) <= 0 for x, y in pairs):
        return "better"
    return "worse"


def main():
    here = pathlib.Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="baseline results directory")
    parser.add_argument("b", help="change results directory")
    parser.add_argument("--benchmark", default=str(here.parent.parent /
                                                   "BENCHMARK.json"))
    args = parser.parse_args()

    try:
        bounds = {m["name"]: m["bound"] for m in json.loads(
            pathlib.Path(args.benchmark).read_text())["end_to_end"]}
    except (OSError, KeyError, json.JSONDecodeError) as e:
        sys.exit(f"compare.py: cannot read bounds from {args.benchmark}: {e}")

    side_a, side_b = load_runs(args.a), load_runs(args.b)
    failed = False
    print(f"{'workload':14} {'metric':20} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'wins':>5} {'bound':>6}  verdict")
    for key in sorted(set(side_a) & set(side_b)):
        ra, rb = side_a[key], side_b[key]
        run_pairs = pair_by_seed(ra, rb)
        workload = key[0] + (" (smoke)" if key[1] else "")
        for name, meta in ra[0]["metrics"].items():
            if not all(name in r["metrics"] for r in ra + rb):
                continue
            a = [r["metrics"][name]["value"] for r in ra]
            b = [r["metrics"][name]["value"] for r in rb]
            if any(v is None for v in a + b):
                continue
            pairs = [(x["metrics"][name]["value"], y["metrics"][name]["value"])
                     for x, y in run_pairs]
            sign = 1.0 if meta["better"] == "lower" else -1.0
            if meta["kind"] == "info":
                bound, verdict = float("nan"), "-"
            elif meta["kind"] == "exact":
                bound = 0.0
                verdict = exact_verdict(pairs, sign)
            else:
                bound = bounds.get(
                    name, bounds.get(KIND_REFERENCE.get(meta["kind"])))
                verdict = measured_verdict(a, b, pairs, sign, bound)
            wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
            win_frac = wins / len(pairs) if pairs else 0.0
            failed = failed or verdict == "worse"
            qa, qb = quartiles(a), quartiles(b)
            cell = "{:.5g} [{:.5g}, {:.5g}]"
            print(f"{workload:14} {name:20} "
                  f"{cell.format(qa[1], qa[0], qa[2]):>34} "
                  f"{cell.format(qb[1], qb[0], qb[2]):>34} "
                  f"{win_frac:5.2f} {bound:6.2f}  {verdict}")
    for key in sorted(set(side_a) ^ set(side_b)):
        print(f"{key[0]}: results on one side only", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
