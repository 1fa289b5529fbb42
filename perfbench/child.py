"""Run one workload in this interpreter and print its result as JSON.

Started by ``run.py`` in a fresh interpreter per workload, because the
block cache and the counters are process-wide.  The last line of
standard output is one JSON object: the end-to-end metrics, the
per-layer metrics (traced runs), latency references and the output
check verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys


def per_layer(run, tracer) -> dict[str, float]:
    """The per-layer metrics of a traced run (see the README's table)."""
    from tracer import Totals

    totals = Totals(tracer.merged())
    timed = ("timed",)
    wire = ("timed", "probe")
    ops = run.attempted
    wire_ops = run.attempted + run.probe_calls
    layer = run.layer

    def mean_us(phases, *names, parent=None):
        calls = totals.calls(phases, *names, parent=parent)
        if not calls:
            return 0.0
        return totals.total_ns(phases, *names, parent=parent) / calls / 1e3

    def mean_s(phases, *names):
        return mean_us(phases, *names) / 1e6

    core = totals.names("core.")
    encode = ("codec.encode_value", "codec.record_encode",
              "codec.encode_message")
    decode = ("codec.decode_value", "codec.record_decode",
              "codec.frame_feed")
    rpc = totals.names("rpc.") - {"rpc.server_op"}
    rpc_calls = totals.calls(wire, *rpc)
    client_us = mean_us(wire, *rpc)
    server_us = (totals.total_ns(wire, "rpc.server_op") / rpc_calls / 1e3
                 if rpc_calls else 0.0)
    lookups = layer["cache.hits"] + layer["cache.misses"]
    plans = layer.get("planner.plans", 0)
    reopens = totals.calls(("reopen",), "snapshot.load_snapshot") or 1
    return {
        "core.op_self_us": totals.self_ns(timed, *core) / ops / 1e3,
        "txn.commit_us": mean_us(timed, "txn.commit"),
        "txn.writeset_apply_us": mean_us(timed, "txn.writeset_apply"),
        "txn.lock_acquires_per_op": layer["txn.lock_acquires"] / ops,
        "txn.lock_wait_us": totals.total_ns(timed, "txn.lock_acquire")
        / ops / 1e3,
        "codec.encode_us_per_op": totals.self_ns(wire, *encode)
        / wire_ops / 1e3,
        "codec.decode_us_per_op": totals.self_ns(wire, *decode)
        / wire_ops / 1e3,
        "codec.bytes_per_op": totals.size(wire, "codec.encode_value")
        / wire_ops,
        "codec.checkpoint_s": totals.self_ns(("checkpoint",), *encode)
        / max(1, len(run.checkpoint_s)) / 1e9,
        "codec.reopen_s": totals.self_ns(("reopen",), *decode)
        / max(1, len(run.reopen_s)) / 1e9,
        "wal.append_us": mean_us(timed, "wal.append", "wal.append_many"),
        "wal.bytes_per_checkin": run.wal_checkin_bytes / max(1, run.checkins),
        "wal.appends_per_commit": layer["wal.appends"]
        / max(1, run.write_commits),
        "wal.fsyncs": layer["wal.fsyncs"],
        "diff.us_per_checkin": totals.total_ns(
            timed, "diff.diff_bytes", parent="delta.check_in")
        / max(1, run.checkins) / 1e3,
        "delta.checkin_us": mean_us(timed, "delta.check_in"),
        "delta.get_us": mean_us(timed, "delta.get", "delta.get_exact"),
        "cache.hit_ratio": layer["cache.hits"] / lookups if lookups else 0.0,
        "cache.lookups": lookups,
        "cache.evictions": layer["cache.evictions"],
        "cas.dedup_ratio": layer["cas.dedup_ratio"],
        "snapshot.write_s": mean_s(("checkpoint",),
                                   "snapshot.append_snapshot"),
        "snapshot.load_s": mean_s(("reopen",), "snapshot.load_snapshot"),
        "recovery.replay_s": totals.total_ns(
            ("reopen",), "recovery.replay_log") / reopens / 1e9,
        "recovery.records_replayed": totals.size(
            ("reopen",), "recovery.replay_log") / reopens,
        "query.plan_us": mean_us(timed, "query.plan_query"),
        "query.exec_us": totals.self_ns(timed, "query.get_graph_query")
        / max(1, totals.calls(timed, "query.get_graph_query")) / 1e3,
        "planner.plans": plans,
        "planner.shape_full_scan": layer.get("planner.shape_full_scan", 0),
        "planner.shape_index_eq": layer.get("planner.shape_index_eq", 0),
        "planner.shape_index_intersect": layer.get(
            "planner.shape_index_intersect", 0),
        "planner.shape_index_union": layer.get("planner.shape_index_union",
                                               0),
        "planner.rows_scanned_per_query": layer.get(
            "planner.rows_scanned", 0) / plans if plans else 0.0,
        "traversal.us": mean_us(wire, "traversal.linearize_graph"),
        "rpc.client_us": client_us,
        "rpc.server_op_us": server_us,
        "rpc.wire_us": client_us - server_us,
        "server.pipelined_depth": layer.get("server.pipelined_depth", 0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)
    # One CPU for the whole process: with the interpreter lock only one
    # thread runs Python at a time anyway, and the remote workload's
    # thread hand-offs (client, server I/O loop, workers) otherwise cost
    # more or less depending on whether the threads share a core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    tracer = None
    if args.trace:
        from tracer import Tracer, instrument
        tracer = Tracer()
        instrument(tracer)
    import workloads

    run = workloads.Run(args.workload, args.seed, args.seconds, args.small,
                        tracer)
    run.workdir = args.workdir
    os.makedirs(run.workdir)
    try:
        workloads.WORKLOADS[args.workload](run)
        run.phase("end")
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "attempted": run.attempted,
        "failed": run.failed,
        "mismatches": run.mismatches[:20],
        "mismatch_count": len(run.mismatches),
        "operations": run.operations,
        "metrics": workloads.end_to_end(run),
        "reference": workloads.reference(run),
        "phase_s": run.phase_s,
        "calibration_ms": run.calibration,
        "sizes": {"store_bytes": run.store_bytes,
                  "user_bytes": run.user_bytes,
                  "checkins": run.checkins,
                  "write_commits": run.write_commits,
                  "checkpoints": len(run.checkpoint_s),
                  "reopens": len(run.reopen_s)},
    }
    if tracer is not None:
        result["layers"] = per_layer(run, tracer)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
