#!/usr/bin/env python3
"""Tests of the benchmark's own harness; no build needed.

    python3 perfbench/test_harness.py
"""

import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import harness  # noqa: E402
import run  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


class TailRule(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        for n in range(1, 2500, 7):
            values = [float(i) for i in range(n)]
            found = harness.tail(values)
            if found is None:
                self.assertLess(harness.beyond(n, harness.TAIL_LADDER[0]), 10)
                continue
            p, v = found
            self.assertGreaterEqual(sum(1 for x in values if x > v), 10)
            higher = [q for q in harness.TAIL_LADDER if q > p]
            for q in higher:
                self.assertLess(harness.beyond(n, q), 10, (n, p, q))

    def test_known_counts(self):
        self.assertEqual(harness.tail(list(range(250)))[0], 96)
        self.assertEqual(harness.tail(list(range(100)))[0], 90)
        self.assertIsNone(harness.tail(list(range(99))))
        self.assertEqual(harness.tail(list(range(10000)))[0], 99.9)

    def test_fixed_tail_refuses_thin_tails(self):
        with self.assertRaises(ValueError):
            harness.fixed_tail(list(range(999)), 99)
        self.assertEqual(harness.fixed_tail(list(range(1000)), 99), 989)

    def test_percentile_is_nearest_rank(self):
        self.assertEqual(harness.percentile([5, 1, 3], 50), 3)
        self.assertEqual(harness.percentile(list(range(1, 101)), 95), 95)


class MedianCostRate(unittest.TestCase):
    def test_each_kind_is_charged_its_median(self):
        # 9 queries of median 1 ms and 1 write of 10 ms: 10 ops in 19 ms.
        queries = [0.0005, 0.001, 0.0015] * 3
        self.assertAlmostEqual(
            harness.median_cost_rate([queries, [0.010], []]), 10 / 0.019)

    def test_outliers_do_not_move_the_rate(self):
        steady = [0.001] * 99 + [0.002]
        burst = [0.001] * 99 + [1.0]
        self.assertEqual(harness.median_cost_rate([steady]),
                         harness.median_cost_rate([burst]))


class OpenLoop(unittest.TestCase):
    def schedule(self):
        """Ten events due every 10 ms. Event 2 applies a batch and stalls
        for 100 ms; the generator then runs late until it catches up."""
        due = [i * 0.010 for i in range(10)]
        cost = [0.001] * 10
        cost[2] = 0.100
        kind = [0, 0, 2, 0, 0, 1, 0, 0, 0, 1]
        start, end = [], []
        t = 0.0
        for d, c in zip(due, cost):
            t = max(t, d)  # never earlier than due, late after a stall
            start.append(t)
            t += c
            end.append(t)
        return due, start, end, kind

    def test_latency_runs_from_due_time(self):
        due, start, end, kind = self.schedule()
        ol = harness.open_loop(due, start, end, kind)
        # Batch at event 5 waited behind the stall: served = end - due,
        # not end - start.
        self.assertAlmostEqual(ol["served_s"][1], end[5] - due[5])
        self.assertGreater(ol["served_s"][1], end[5] - start[5] + 0.05)
        self.assertEqual(len(ol["served_s"]), 3)
        self.assertAlmostEqual(ol["reconverge_s"][0], 0.100)
        self.assertEqual(len(ol["batch_apply_s"]), 2)

    def test_generator_lateness_is_reported(self):
        due, start, end, kind = self.schedule()
        ol = harness.open_loop(due, start, end, kind)
        self.assertEqual(ol["late_s"][:3], [0.0, 0.0, 0.0])
        self.assertAlmostEqual(ol["late_s"][3], end[2] - due[3])
        self.assertTrue(all(x >= 0 for x in ol["late_s"]))
        # At the start of event 3 the stall has let events 3..9 fall due.
        self.assertEqual(ol["backlog_max"], 7)


class Spans(unittest.TestCase):
    def test_self_time_and_uncovered_share(self):
        spans = [
            ["harness.workload", 0.0, 10.0, -1],
            ["graph.load", 0.0, 1.0, 0],
            ["pagerank.run", 1.0, 9.0, 0],
            ["pagerank.pass", 1.0, 5.0, 2],
            ["obs.flush", 5.0, 8.5, 2],
        ]
        per_layer, uncovered, total = harness.span_summary(spans)
        self.assertAlmostEqual(per_layer["graph"], 1.0)
        self.assertAlmostEqual(per_layer["pagerank"], 4.5)
        self.assertAlmostEqual(per_layer["obs"], 3.5)
        self.assertAlmostEqual(total, 10.0)
        self.assertAlmostEqual(uncovered, 0.1)
        self.assertAlmostEqual(sum(per_layer.values()) + uncovered * total,
                               total)

    def test_untraced_windows_leave_the_traced_time(self):
        spans = [
            ["harness.workload", 0.0, 10.0, -1],
            ["search.query", 0.0, 2.0, 0],
            ["harness.untraced", 2.0, 6.0, 0],
            ["search.query", 6.0, 9.0, 0],
        ]
        per_layer, uncovered, total = harness.span_summary(spans)
        self.assertAlmostEqual(total, 6.0)
        self.assertAlmostEqual(per_layer["search"], 5.0)
        self.assertAlmostEqual(per_layer["harness"], 0.0)
        self.assertAlmostEqual(uncovered, 1.0 / 6.0)


class Overhead(unittest.TestCase):
    def test_ratio_of_medians(self):
        # Traced operations cost 1.1, untraced 1.0, with one slow outlier
        # on each side; windows of two operations alternate.
        recorded = [1, 1, 0, 0] * 5
        busy = [1.1, 1.1, 1.0, 1.0] * 5
        busy[0], busy[2] = 50.0, 40.0
        self.assertAlmostEqual(harness.overhead_ratio(busy, recorded), 1.1)

    def test_drift_over_the_run_hits_both_sides(self):
        # The host slows down 50% halfway; windows alternate, so the
        # ratio stays at the tracing cost.
        recorded, busy = [], []
        for w in range(20):
            traced = w % 2 == 0
            slow = 1.5 if w >= 10 else 1.0
            for _ in range(3):
                recorded.append(1.0 if traced else 0.0)
                busy.append(slow * (1.02 if traced else 1.0))
        self.assertAlmostEqual(harness.overhead_ratio(busy, recorded), 1.02)

    def test_needs_both_kinds_of_window(self):
        with self.assertRaises(ValueError):
            harness.overhead_ratio([1.0, 1.0], [1.0, 1.0])


def fake_raw(workload):
    """A minimal driver result carrying every sample and value name the
    harness reads for `workload`."""
    three = [1.0, 2.0, 3.0]
    samples, values = {"setup_s": three}, {}
    if workload in harness.RANK:
        for name in ("converge_s", "rank_messages", "rank_l1_error",
                     "sim_converge_s", "graph.load_s", "p2p.place_s",
                     "pagerank.construct_s", "pagerank.pass_s",
                     "pagerank.first_pass_s", "obs.flush_s",
                     "pagerank.passes", "pagerank.docs_recomputed",
                     "pagerank.local_updates",
                     "pagerank.busiest_peer_messages",
                     "pagerank.audit_repair_rounds", "pagerank.mass_ratio",
                     "net.hop_transmissions", "net.bytes", "net.parked",
                     "net.delivered_late", "net.outbox_peak",
                     "net.ip_cache_hits", "dht.route_lookups"):
            samples[name] = three
        samples["trace.recorded"] = [1.0, 0.0, 1.0]
        values["docs"] = 1000.0
    elif workload == "stream_ingest":
        n = 800
        due = [i / 400.0 for i in range(n)]
        samples.update({
            "stream.due_s": due,
            "stream.offer_start_s": due,
            "stream.offer_end_s": [d + 0.001 for d in due],
            "stream.offer_kind": [2.0 if i % 100 == 99 else
                                  1.0 if i % 2 else 0.0 for i in range(n)],
            "stream.reads_s": [0.0001] * n,
            "stream.topk_s": [0.0001 * (1 + i % 7) for i in range(2000)],
            "trace.recorded": [float(i // 16 % 2 == 0) for i in range(n)],
            "stream.seed_solve_s": three,
            "graph.load_s": three,
        })
        values.update({"staleness_mean": 1e-6, "stream.cascade_updates": 800.0,
                       "stream.events_applied": 800.0,
                       "stream.reconverge_cycles": 4.0,
                       "stream.topk_cache_hits": 390.0,
                       "stream.topk_recomputes": 10.0,
                       "stream.start_s": 0.0, "stream.end_s": 2.0})
    else:
        n = 2000
        samples.update({
            "search.query_s": [1e-4 * (1 + i % 9) for i in range(n)],
            "search.query_terms": [2.0 + i % 2 for i in range(n)],
            "search.query_after_write": [float(i % 10 == 0) for i in range(n)],
            "search.query_ids": [50.0] * n,
            "search.query_in_guard": [1.0] * n,
            "search.op_s": [1e-4 * (1 + i % 9) for i in range(n)],
            "trace.recorded": [float(i // 100 % 2 == 0) for i in range(n)],
            "core.insert_s": three, "core.delete_s": three,
            "core.write_messages": three, "core.build_s": three,
            "core.converge_s": three, "graph.load_s": three,
        })
    return {"samples": samples, "values": values, "peak_rss_bytes": 1e8,
            "spans": [["harness.workload", 0.0, 1.0, -1]]}


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_every_layer_metric_names_a_gated_metric_and_workloads(self):
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        workloads = {w["name"] for w in self.spec["workloads"]}
        names = [m["name"] for m in self.spec["per_layer"]]
        self.assertEqual(set(harness.LAYER_MOVES), set(names))
        for name in names:
            moves, most, least = harness.LAYER_MOVES[name]
            self.assertIn(moves, e2e, name)
            self.assertIn(most, workloads, name)
            self.assertIn(least, workloads, name)

    def test_printed_metrics_match_benchmark_json(self):
        for workload in harness.WORKLOADS:
            raw = fake_raw(workload)
            record = {"e2e": harness.e2e_metrics(workload, raw),
                      "layer": harness.layer_metrics(workload, raw)}
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                printed = json.loads(json.dumps(run.metrics_of(record, trace)))
                self.assertEqual(
                    [(k, m["unit"]) for k, m in printed.items()],
                    [(m["name"], m["unit"]) for m in self.spec[key]],
                    (workload, key))
                for k, m in printed.items():
                    self.assertIsInstance(m["value"], (int, float), (workload, k))
                    if not trace:  # end-to-end metrics are never 0
                        self.assertGreater(m["value"], 0, (workload, k))


if __name__ == "__main__":
    unittest.main()
