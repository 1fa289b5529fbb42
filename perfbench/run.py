#!/usr/bin/env python3
"""Workstation benchmark for the Neptune HAM.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload edit_local --seed 1 --seconds 10 --trace 0

Runs one workload in a fresh interpreter (``PYTHONPATH=src``, fixed
``PYTHONHASHSEED``), prints a table of every metric with its unit and,
as the last line, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` the workload runs twice -- untraced, then traced -- and
the metrics are the per-layer ones, plus the tracing overhead (the
untraced ``ops_per_s`` over the traced one).  A run whose outputs
differ from the benchmark's model exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("edit_local", "remote_browse", "history_browse")
HASH_SEED = "0"
#: Every child of one command must end within this many seconds.
DEADLINE_S = 170

#: (name, unit) of the end-to-end metrics, in print order.
END_TO_END = (
    ("ops_per_s", "1/s"), ("setup_s", "s"), ("checkin_p50_us", "us"),
    ("open_p50_us", "us"), ("refresh_p50_us", "us"), ("query_p50_us", "us"),
    ("checkpoint_s", "s"), ("reopen_s", "s"),
    ("store_bytes_per_user_byte", "ratio"), ("peak_rss_mb", "MB"),
)

#: (name, unit) of the per-layer metrics of a traced run.
PER_LAYER = (
    ("core.op_self_us", "us"),
    ("txn.commit_us", "us"), ("txn.writeset_apply_us", "us"),
    ("txn.lock_acquires_per_op", "count"), ("txn.lock_wait_us", "us"),
    ("codec.encode_us_per_op", "us"), ("codec.decode_us_per_op", "us"),
    ("codec.bytes_per_op", "B"), ("codec.checkpoint_s", "s"),
    ("codec.reopen_s", "s"),
    ("wal.append_us", "us"), ("wal.bytes_per_checkin", "B"),
    ("wal.appends_per_commit", "ratio"), ("wal.fsyncs", "count"),
    ("diff.us_per_checkin", "us"), ("delta.checkin_us", "us"),
    ("delta.get_us", "us"),
    ("cache.hit_ratio", "ratio"), ("cache.lookups", "count"),
    ("cache.evictions", "count"),
    ("cas.dedup_ratio", "ratio"),
    ("snapshot.write_s", "s"), ("snapshot.load_s", "s"),
    ("recovery.replay_s", "s"), ("recovery.records_replayed", "count"),
    ("query.plan_us", "us"), ("query.exec_us", "us"),
    ("planner.plans", "count"), ("planner.shape_full_scan", "count"),
    ("planner.shape_index_eq", "count"),
    ("planner.shape_index_intersect", "count"),
    ("planner.shape_index_union", "count"),
    ("planner.rows_scanned_per_query", "count"),
    ("traversal.us", "us"),
    ("rpc.client_us", "us"), ("rpc.server_op_us", "us"),
    ("rpc.wire_us", "us"), ("server.pipelined_depth", "count"),
    ("trace.overhead_ratio", "ratio"),
)


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              small: bool = False, timeout: float = DEADLINE_S) -> dict:
    """One workload in a fresh interpreter; returns its result dict.

    Raises ``RuntimeError`` when the child fails, prints no result or
    outlives ``timeout`` seconds.
    """
    work = os.path.join(HERE, "_work", f"{workload}-{seed}-{os.getpid()}"
                        f"-{int(trace)}")
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--workdir", work]
    if small:
        command.append("--small")
    if trace:
        out = os.path.join(HERE, "_out")
        os.makedirs(out, exist_ok=True)
        command += ["--spans", os.path.join(out, f"spans-{workload}.jsonl")]
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        done = subprocess.run(command, env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"{workload}: no result within "
                           f"{timeout:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: exit {done.returncode}\n"
                           f"{done.stderr.strip()[-4000:]}")
    return json.loads(lines[-1])


def _print_table(title: str, rows) -> None:
    print(title)
    for name, unit, value in rows:
        print(f"  {name:34s} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Neptune HAM workstation benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny graphs, for the self-tests")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        base = run_child(args.workload, args.seed, args.seconds, False,
                         args.small)
        traced = (run_child(args.workload, args.seed, args.seconds, True,
                            args.small, deadline - time.monotonic())
                  if args.trace else None)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    results = [base] + ([traced] if traced else [])
    correct = all(result["mismatch_count"] == 0 for result in results)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"operations {base['operations']}  attempted {base['attempted']}  "
          f"failed {base['failed']}")
    for result in results:
        for mismatch in result["mismatches"]:
            print(f"  MISMATCH: {mismatch}")
    _print_table("end to end", [
        (name, unit, base["metrics"][name]) for name, unit in END_TO_END])
    print("latencies (reference: samples, p50, p99)")
    reference = dict(base["reference"])
    steps = {name: reference.pop(name) for name in ("checkpoint_s",
                                                     "reopen_s")}
    for name, ref in reference.items():
        print(f"  {name:10s} n={ref['samples']:<6d} p50={ref['p50_us']:.1f} us"
              f"  p99={ref['p99_us']:.1f} us")
    for name, values in steps.items():
        print(f"  {name:12s} " + " ".join(f"{value:.3f}" for value in values))
    print("sizes  " + "  ".join(f"{key}={value}"
                                for key, value in base["sizes"].items()))
    print("wall s " + "  ".join(f"{key}={value:.2f}"
                                for key, value in base["phase_s"].items()))
    calibration = sorted(base["calibration_ms"])
    print(f"machine: fixed loop {calibration[len(calibration) // 2]:.2f} ms "
          f"median, {calibration[0]:.2f}..{calibration[-1]:.2f} ms "
          f"over {len(calibration)} phase changes")
    if traced:
        layers = dict(traced["layers"])
        layers["trace.overhead_ratio"] = (base["metrics"]["ops_per_s"]
                                          / traced["metrics"]["ops_per_s"])
        _print_table("per layer (traced run)", [
            (name, unit, layers[name]) for name, unit in PER_LAYER])
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER}
        outcome = traced
    else:
        metrics = {name: {"value": base["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END}
        outcome = base
    print(json.dumps({"correct": correct, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
