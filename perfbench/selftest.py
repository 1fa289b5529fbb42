#!/usr/bin/env python3
"""Fast self-tests of the benchmark, at small sizes.

Run from the root of a checkout::

    python3 perfbench/selftest.py

- the output checks catch a corrupted read and a corrupted difference
  script;
- a traced run emits spans for every listed layer and reports every
  per-layer metric;
- counts and sizes repeat exactly across two runs with the same seed.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run as bench  # noqa: E402

SEED = 7
SECONDS = 0.3


@functools.lru_cache(maxsize=None)
def child(workload: str, trace: bool, repeat: int) -> dict:
    """One small run in a fresh interpreter (cached per repeat)."""
    return bench.run_child(workload, SEED, SECONDS, trace, small=True)


def run_in_process(workload: str):
    """One small untraced run in this interpreter; returns the Run."""
    import workloads
    run = workloads.Run(workload, SEED, SECONDS, small=True)
    run.workdir = os.path.join(HERE, "_work", f"selftest-{os.getpid()}")
    os.makedirs(run.workdir)
    try:
        workloads.WORKLOADS[workload](run)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    return run


class ChecksCatchCorruption(unittest.TestCase):

    def test_corrupted_read_fails_the_run(self):
        from repro.core.ham import HAM
        original = HAM.__dict__["open_node"]
        calls = [0]

        def corrupting(self, *args, **kwargs):
            contents, points, values, current = original(
                self, *args, **kwargs)
            calls[0] += 1
            if calls[0] == 100:
                contents = contents[:-1] + bytes([contents[-1] ^ 1])
            return contents, points, values, current

        HAM.open_node = corrupting
        try:
            run = run_in_process("edit_local")
        finally:
            HAM.open_node = original
        self.assertGreaterEqual(calls[0], 100)
        self.assertEqual(len(run.mismatches), 1, run.mismatches)

    def test_corrupted_difference_script_fails_the_run(self):
        from repro.core.ham import HAM
        original = HAM.__dict__["get_node_differences"]

        def truncating(self, *args, **kwargs):
            return original(self, *args, **kwargs)[:-1]

        HAM.get_node_differences = truncating
        try:
            run = run_in_process("history_browse")
        finally:
            HAM.get_node_differences = original
        self.assertTrue(run.mismatches)
        self.assertTrue(all(m.startswith("differences")
                            for m in run.mismatches), run.mismatches)

    def test_clean_runs_pass(self):
        for workload in bench.WORKLOADS:
            result = child(workload, False, 0)
            self.assertEqual(result["mismatch_count"], 0, result["mismatches"])
            self.assertEqual(result["failed"], 0)


class TracedRun(unittest.TestCase):

    LAYERS = ("core.", "txn.", "codec.", "wal.", "diff.", "delta.",
              "cas.", "snapshot.", "recovery.", "query.", "traversal.",
              "rpc.")

    def test_every_layer_emits_spans(self):
        for workload in bench.WORKLOADS:
            child(workload, True, 0)
            path = os.path.join(HERE, "_out", f"spans-{workload}.jsonl")
            with open(path) as handle:
                rows = [json.loads(line) for line in handle]
            names = {row["name"] for row in rows if "name" in row}
            layers = self.LAYERS + (("cache.",) if workload != "edit_local"
                                    else ())
            for layer in layers:
                self.assertTrue(any(name.startswith(layer) for name in names),
                                f"{workload}: no {layer} spans")
            self.assertTrue(any("span" in row for row in rows))

    def test_every_per_layer_metric_is_reported(self):
        for workload in bench.WORKLOADS:
            layers = child(workload, True, 0)["layers"]
            for name, __ in bench.PER_LAYER:
                if name != "trace.overhead_ratio":  # needs both runs
                    self.assertIn(name, layers, workload)


class Repeatability(unittest.TestCase):

    #: Per-layer figures that are counts or sizes, not times.
    COUNTS = ("txn.lock_acquires_per_op", "codec.bytes_per_op",
              "wal.bytes_per_checkin", "wal.appends_per_commit",
              "wal.fsyncs", "cache.lookups", "cache.evictions",
              "cas.dedup_ratio", "recovery.records_replayed",
              "planner.plans", "planner.shape_full_scan",
              "planner.shape_index_eq", "planner.shape_index_intersect",
              "planner.shape_index_union", "planner.rows_scanned_per_query")

    @staticmethod
    def sample_counts(result: dict) -> dict:
        return {name: len(ref) if isinstance(ref, list) else ref["samples"]
                for name, ref in result["reference"].items()}

    def test_counts_and_sizes_repeat(self):
        for workload in bench.WORKLOADS:
            first, second = child(workload, False, 0), child(workload, False, 1)
            for key in ("attempted", "failed", "operations"):
                self.assertEqual(first[key], second[key], (workload, key))
            # store_bytes is left out: each graph draws a random
            # ProjectId, whose encoded length can differ by a byte.
            for key in ("user_bytes", "checkins", "write_commits",
                        "checkpoints", "reopens"):
                self.assertEqual(first["sizes"][key], second["sizes"][key],
                                 (workload, key))
            self.assertEqual(self.sample_counts(first),
                             self.sample_counts(second), workload)
            one, two = child(workload, True, 0), child(workload, True, 1)
            for name in self.COUNTS:
                self.assertEqual(one["layers"][name], two["layers"][name],
                                 (workload, name))


if __name__ == "__main__":
    unittest.main()
