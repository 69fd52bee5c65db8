#!/usr/bin/env python3
"""Self-test of the benchmark's statistics and metric code.

    python3 perfbench/test_stats.py
"""

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402


def synthetic_raw(workload="htap_serve", n_olap=1200, n_oltp=3000):
    """A raw result as perfbench writes it, with made-up samples."""
    profile = {str(q): {"queries": 2, "wall_ns": 2_000_000,
                        "slot_wall_ns": 8_000_000, "busy_ns": 6_000_000,
                        "merge_ns": 100_000, "morsels": 40, "batches": 300,
                        "code_batches": 30, "rows_in": 2_000_000,
                        "rows_out": 1_000_000, "chunks_scanned": 40,
                        "chunks_pruned": 2, "evicted_pruned": 1,
                        "archive_reloads": 3}
               for q in range(1, 23)}
    olap_q = [1 + i % 22 for i in range(n_olap)]
    return {
        "workload": workload, "seed": 7, "slots": 4, "exit_code": 0,
        "setup_s": [5.0, 4.0, 6.0], "dbgen_s": [1.0], "freeze_s": [3.0],
        "load_s": [0.8], "archive_s": [0.1], "timed_s": 20.0,
        "olap_q": olap_q, "olap_ns": [1_000_000 + i for i in range(n_olap)],
        "olap_queue_ns": [10] * n_olap,
        "olap_traced": [i % 2 for i in range(n_olap)],
        "runquery_q": olap_q, "runquery_ns": [900_000] * n_olap,
        "runquery_traced": [i % 2 for i in range(n_olap)],
        "olap_busy_ns": 10_000_000_000,
        "oltp_ns": [50_000 + i for i in range(n_oltp)],
        "oltp_queue_ns": [1_000] * n_oltp, "oltp_exec_ns": [40_000] * n_oltp,
        "oltp_traced": [0] * n_oltp, "oltp_busy_ns": 1_000_000_000,
        "txn_ns": {t: [1000, 2000, 3000] for t in run.TXN_TYPES},
        "lock_wait_ns": [100] * 50, "tick_ns": [5000] * 30,
        "outcomes": {"ok": n_olap + n_oltp}, "failures": [],
        "checksums": {str(q): "%016x" % q for q in range(1, 23)},
        "profile": profile,
        "data_bytes": [250e6], "rss_bytes": [500e6, 510e6],
        "values": {"hot_bytes": 60e6,
                   "frozen_bytes": 190e6, "summary_bytes": 1e6,
                   "uncompressed_bytes": 252e6,
                   "frozen_after_freeze_bytes": 146e6,
                   "serve_refused": 0, "scheduler_steals": 100,
                   "agg_peak_bytes": 5e6, "lifecycle_freezes": 1,
                   "lifecycle_archive_bytes": 30e6,
                   "lifecycle_frozen_bytes": 30e6,
                   "lifecycle_resident_bytes": 30e6},
    }


def benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        v = list(range(1, 101))
        self.assertEqual(stats.percentile(v, 50), 50)
        self.assertEqual(stats.percentile(v, 99), 99)
        self.assertEqual(stats.percentile(v, 100), 100)
        self.assertEqual(stats.percentile([], 50), 0.0)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.beyond(1000, 99.0), 10)
        self.assertEqual(stats.tail_percentile(999), 98.0)
        self.assertEqual(stats.tail_percentile(500), 98.0)
        self.assertEqual(stats.tail_percentile(499), 95.0)
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertIsNone(stats.tail_percentile(19))
        for n in (20, 57, 499, 500, 999, 1000, 12345):
            p = stats.tail_percentile(n)
            self.assertGreaterEqual(stats.beyond(n, p), stats.MIN_BEYOND)

    def test_p99_falls_back_when_too_few_samples(self):
        m = run.Metrics()
        run.timing(m, "olap", list(range(1000)), "")
        self.assertIn("p99,", m.notes["olap_p99_ms"])
        m = run.Metrics()
        run.timing(m, "olap", list(range(700)), "")
        self.assertIn("p98,", m.notes["olap_p99_ms"])


class FailRatioTest(unittest.TestCase):
    def test_refused_and_timed_out_count_as_failed(self):
        outcomes = {"ok": 8, "rejected": 1, "timed_out": 1}
        self.assertEqual(stats.tally(outcomes), (10, 2))
        self.assertAlmostEqual(stats.fail_ratio(outcomes), 0.2)

    def test_wrong_results_and_errors_count_as_failed(self):
        outcomes = {"ok": 6, "wrong": 1, "error": 1, "inconsistent": 1,
                    "shutdown": 1}
        self.assertEqual(stats.tally(outcomes), (10, 4))

    def test_end_to_end_ok_ratio(self):
        raw = synthetic_raw()
        raw["outcomes"] = {"ok": 90, "rejected": 5, "timed_out": 5}
        m = run.end_to_end(raw)
        self.assertAlmostEqual(m.values["ok_ratio"]["value"], 0.9)


class MetricNameTest(unittest.TestCase):
    def test_names_and_units_in_benchmark_json(self):
        b = benchmark_json()
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], r"^[A-Za-z0-9_.-]+$")
            self.assertTrue(stats.NAME_RE.match(m["name"]), m["name"])
            self.assertTrue(stats.UNIT_RE.match(m["unit"]), m["unit"])

    def test_check_metrics_flags_bad_names_and_units(self):
        bad = {"a b": {"value": 1.0, "unit": "ms"},
               "ok": {"value": 1.0},
               "nan": {"value": float("nan"), "unit": "ms"}}
        self.assertEqual(len(stats.check_metrics(bad)), 3)

    def test_every_end_to_end_metric_printed_with_unit(self):
        b = benchmark_json()
        for workload in run.WORKLOADS:
            m = run.end_to_end(synthetic_raw(workload))
            self.assertEqual(stats.check_metrics(m.values), [])
            self.assertEqual(stats.missing_end_to_end(m.values), [])
            for spec in b["end_to_end"]:
                self.assertEqual(m.values[spec["name"]]["unit"], spec["unit"])
            self.assertEqual(set(m.values), {s["name"] for s in b["end_to_end"]})

    def test_every_per_layer_metric_printed_with_unit(self):
        b = benchmark_json()
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "spans.jsonl")
            with open(path, "w") as f:
                f.write(json.dumps({"id": 1, "parent": 0, "req": 1,
                                    "name": "tpch.query", "start_ns": 0,
                                    "end_ns": 100}) + "\n")
            m, err = run.per_layer(synthetic_raw(), path)
        self.assertEqual(err, 0.0)
        self.assertEqual(stats.check_metrics(m.values), [])
        for spec in b["per_layer"]:
            self.assertEqual(m.values[spec["name"]]["unit"], spec["unit"])
        self.assertEqual(set(m.values), {s["name"] for s in b["per_layer"]})


class SpanTest(unittest.TestCase):
    def span(self, id_, parent, name, start, end):
        return {"id": id_, "parent": parent, "req": 1, "name": name,
                "start_ns": start, "end_ns": end}

    def test_self_time_subtracts_covered_children(self):
        spans = [self.span(1, 0, "tpch.query", 0, 100),
                 self.span(2, 1, "exec.pipeline", 10, 40),
                 self.span(3, 1, "exec.pipeline", 30, 60),  # overlaps 2
                 self.span(4, 2, "exec.merge", 35, 40)]
        selfs = stats.self_times(spans)
        self.assertEqual(selfs[1], 50)
        self.assertEqual(selfs[2], 25)
        self.assertEqual(selfs[4], 5)

    def test_subtree_sum(self):
        ok = [self.span(1, 0, "tpch.query", 0, 100),
              self.span(2, 1, "exec.pipeline", 10, 40),
              self.span(3, 1, "exec.pipeline", 40, 90)]
        self.assertEqual(
            stats.subtree_sum_error(ok, stats.self_times(ok), "tpch.query"), 0)
        overlapping = [self.span(1, 0, "tpch.query", 0, 100),
                       self.span(2, 1, "exec.pipeline", 0, 80),
                       self.span(3, 1, "exec.pipeline", 20, 100)]
        err = stats.subtree_sum_error(overlapping,
                                      stats.self_times(overlapping),
                                      "tpch.query")
        self.assertAlmostEqual(err, 0.6)


if __name__ == "__main__":
    unittest.main()
