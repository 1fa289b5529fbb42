#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics across seeds and runs.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --runs 5 --seconds 10
    python3 perfbench/steady.py --workloads remote_browse --runs 3

Runs every chosen workload ``2 × runs`` times, one fresh interpreter per
run and a new seed each time, as two interleaved sets (A, B, A, B, ...)
of the same code.  For each end-to-end metric it prints each set's
median and quartiles, the spread of all runs together (the distance
between the first and third quartile over the median, as
``statistics.quantiles(values, n=4)`` gives them), how far set B's
median moved from set A's, and the metric's bound from
``BENCHMARK.json`` when there is one.  ``!`` marks a spread above a
third of the bound, ``!!`` one above the bound.  The raw results go to
``perfbench/_out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import run as bench


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR over median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    first, __, third = statistics.quantiles(values, n=4)
    return median, first, third, (third - first) / median


def bounds() -> dict[str, float]:
    path = os.path.join(bench.ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set (two sets per workload)")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--seed", type=int, default=1000,
                        help="first seed; every run takes the next one")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    limits = bounds()
    results: dict[str, list[list[dict]]] = {w: [[], []] for w in workloads}
    seed = args.seed
    for index in range(args.runs):
        for half in (0, 1):
            for workload in workloads:
                result = bench.run_child(workload, seed, args.seconds, False)
                seed += 1
                results[workload][half].append(result)
                print(f"run {index} set {'AB'[half]} {workload} seed "
                      f"{result['seed']}: attempted {result['attempted']} "
                      f"failed {result['failed']} mismatches "
                      f"{result['mismatch_count']}", flush=True)
    out = os.path.join(bench.HERE, "_out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "steady.json"), "w") as handle:
        json.dump(results, handle)

    steady = True
    for workload in workloads:
        print(f"\n{workload}: {2 * args.runs} runs")
        print(f"  {'metric':28s} {'A median':>11s} {'A q1..q3':>23s} "
              f"{'B median':>11s} {'B q1..q3':>23s} {'spread':>7s} "
              f"{'B-A':>7s} {'bound':>6s}")
        sets = results[workload]
        failed = {result["failed"] / result["attempted"]
                  for half in sets for result in half}
        if len(failed) > 1 or any(result["mismatch_count"]
                                  for half in sets for result in half):
            steady = False
            print(f"  failed share differs or outputs mismatched: {failed}")
        for name, unit in bench.END_TO_END:
            a = [result["metrics"][name] for result in sets[0]]
            b = [result["metrics"][name] for result in sets[1]]
            a_med, a_q1, a_q3, __ = spread(a)
            b_med, b_q1, b_q3, __ = spread(b)
            __, ___, ____, both = spread(a + b)
            shift = (b_med - a_med) / a_med
            bound = limits.get(name)
            mark = ""
            if bound is not None and name != "setup_s":
                if both > bound:
                    mark, steady = "!!", False
                elif both > bound / 3:
                    mark = "!"
            print(f"  {name:28s} {a_med:11.5g} {a_q1:11.5g}..{a_q3:<11.5g}"
                  f" {b_med:11.5g} {b_q1:11.5g}..{b_q3:<11.5g} "
                  f"{both:7.3f} {shift:+7.3f} "
                  f"{'' if bound is None else bound:>6} {mark}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
