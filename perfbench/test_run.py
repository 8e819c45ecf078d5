"""Tests of the benchmark's statistics, digest comparison and metric tables.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import run


class TailTest(unittest.TestCase):
    def test_eleventh_largest_with_its_percentile(self):
        value, pct, n = run.tail(range(100))
        self.assertEqual((value, n), (89, 100))
        self.assertAlmostEqual(pct, 90.0)
        # Exactly ten samples lie beyond the chosen one.
        self.assertEqual(sum(1 for x in range(100) if x > value), 10)

    def test_percentile_moves_smoothly_with_sample_count(self):
        _, pct, _ = run.tail(range(4000))
        self.assertAlmostEqual(pct, 99.75)
        _, pct, _ = run.tail(range(11))
        self.assertAlmostEqual(pct, 100.0 / 11.0)

    def test_order_of_samples_does_not_matter(self):
        xs = [5.0, 1.0, 9.0, 3.0] * 10
        self.assertEqual(run.tail(xs), run.tail(sorted(xs)))

    def test_ties_count_as_beyond_only_when_strictly_greater(self):
        xs = [1.0] * 50 + [2.0] * 10
        self.assertEqual(run.tail(xs)[0], 1.0)
        xs = [1.0] * 50 + [2.0] * 11
        self.assertEqual(run.tail(xs)[0], 2.0)

    def test_too_few_samples_fall_back_to_the_maximum(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))
        with self.assertRaises(ValueError):
            run.tail([])


class SpreadTest(unittest.TestCase):
    def test_interquartile_share_of_median(self):
        self.assertAlmostEqual(run.spread(range(1, 11)), (8.25 - 2.75) / 5.5)
        self.assertEqual(run.spread([4.0]), 0.0)


class DigestTest(unittest.TestCase):
    def test_equal_maps_match(self):
        d = {"bare": "00ff", "sessions": "0a0b"}
        self.assertEqual(run.compare_digests(d, dict(d)), [])

    def test_changed_missing_and_extra_labels_all_reported(self):
        got = {"bare": "00ff", "tracer": "1234"}
        want = {"bare": "00fe", "sessions": "0a0b"}
        problems = run.compare_digests(got, want)
        self.assertEqual(len(problems), 3)
        self.assertTrue(any("bare" in p for p in problems))
        self.assertTrue(any("sessions" in p and "None" in p for p in problems))
        self.assertTrue(any("tracer" in p for p in problems))


class RecordsTest(unittest.TestCase):
    TEXT = "\n".join([
        "meta executor tasks",
        "meta msgs 1000",
        "meta loop_s 2.0",
        "sample step_ms 1.0",
        "sample step_ms 3.0",
        "sample step_ms 2.0",
        "sample setup_s 0.5",
        "sample rung.bare 10.0",
        "sample rung.sessions 12.5",
        "span p2p.send_ns 100 0 5",
        "layer nic.events 7",
        "digest all 00ff",
        "conserve wire_msgs.all 5 5",
        "fail panic: boom",
    ])

    def test_parse_and_metrics(self):
        rec = run.parse(self.TEXT)
        self.assertEqual(rec["digest"], {"all": "00ff"})
        self.assertEqual(rec["conserve"], [("wire_msgs.all", 5, 5)])
        self.assertEqual(rec["fail"], ["panic: boom"])
        e2e = run.end_to_end(rec, run.parse("meta peak_rss_mb 12.5"))
        self.assertEqual(set(e2e), set(run.END_TO_END))
        self.assertEqual(e2e["msgs_per_s"]["value"], 500.0)
        self.assertEqual(e2e["step_p50_ms"]["value"], 2.0)
        self.assertEqual(e2e["sim_comm_gain"]["value"], 1.0)
        self.assertEqual(e2e["peak_rss_mb"]["value"], 12.5)
        layers = run.per_layer(rec)
        self.assertEqual(set(layers), set(run.PER_LAYER))
        self.assertEqual(layers["core.hook_ns_per_msg"]["value"], 2.5)
        self.assertEqual(layers["p2p.send_ns.p50"]["value"], 100.0)
        self.assertEqual(layers["nic.events"]["value"], 7.0)
        # Layers this run did not cross read 0.
        self.assertEqual(layers["elastic.admit_ns"]["value"], 0.0)

    def test_runners_that_failed_early_still_give_every_metric(self):
        # A timed runner that died in its reference cycle and a verify
        # runner that never reached its peak-RSS record.
        rec = run.parse("meta executor tasks\nfail panic: boom")
        e2e = run.end_to_end(rec, run.parse("fail deadline"))
        self.assertEqual(set(e2e), set(run.END_TO_END))
        self.assertEqual(e2e["peak_rss_mb"]["value"], 0.0)
        self.assertEqual(e2e["msgs_per_s"]["value"], 0.0)
        self.assertEqual(set(run.per_layer(rec)), set(run.PER_LAYER))


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        path = Path(run.BENCH_DIR).parent / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("BENCHMARK.json not in this tree")
        spec = json.loads(path.read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
