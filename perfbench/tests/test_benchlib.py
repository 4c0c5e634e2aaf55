"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import benchlib as bl  # noqa: E402


def span(id_, parent, name, start, end, cell=None):
    return {"id": id_, "parent": parent, "name": name, "cell": cell,
            "start_ns": start, "end_ns": end}


def journal(workload, seed, drop=None, dup=None):
    lines = [json.dumps({"magic": "thrifty-barrier-sweep-journal",
                         "version": "x", "params": "p"})]
    seq = 0
    for app in range(bl.APPS):
        for config in range(bl.CONFIGS):
            for s in bl.seed_list(workload, seed):
                seq += 1
                key = {"app": f"A{app}", "config": f"C{config}",
                       "nodes": workload["nodes"], "seed": s, "faults": None}
                if seq == drop:
                    continue
                line = json.dumps({"seq": seq, "key": key, "outcome": {}})
                lines.append(line)
                if seq == dup:
                    lines.append(line)
    return "\n".join(lines) + "\n"


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(bl.reportable_percentile(19, 95))
        self.assertEqual(bl.reportable_percentile(20, 95), 50)
        self.assertEqual(bl.reportable_percentile(100, 95), 90)
        self.assertEqual(bl.reportable_percentile(199, 95), 90)
        self.assertEqual(bl.reportable_percentile(200, 95), 95)
        self.assertEqual(bl.reportable_percentile(1000, 95), 95)
        self.assertEqual(bl.reportable_percentile(1000, 100), 99)
        self.assertEqual(bl.reportable_percentile(10000, 100), 99.9)

    def test_tail_falls_back_when_samples_are_few(self):
        values = list(range(1, 101))
        self.assertEqual(bl.tail(values, 95), (90, 90))
        self.assertEqual(bl.tail(list(range(1, 201)), 95), (95, 190))
        self.assertEqual(bl.tail([3, 1, 2], 95), (None, 3))

    def test_nearest_rank(self):
        self.assertEqual(bl.percentile([5, 1, 4, 2, 3], 50), 3)
        self.assertEqual(bl.percentile([1, 2], 50), 1)
        self.assertEqual(bl.percentile([7], 95), 7)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            span(0, None, "probe.replay", 0, 100),
            span(1, 0, "harness.cell", 10, 60, cell=0),
            span(2, 1, "workloads.generate", 10, 20, cell=0),
            span(3, 1, "sim.Thrifty", 25, 55, cell=0),
            span(4, 0, "report.render", 70, 90),
        ]
        selfs = bl.self_times(spans)
        self.assertEqual(selfs, {0: 30, 1: 10, 2: 10, 3: 30, 4: 20})
        self.assertEqual(sum(selfs.values()), 100, "self times partition the root")

    def test_overlapping_children_count_once(self):
        spans = [
            span(0, None, "harness.run_cells", 0, 100),
            span(1, 0, "sim.Thrifty", 10, 50),
            span(2, 0, "sim.Ideal", 30, 70),
            span(3, 0, "sim.Ideal", 90, 120),
        ]
        self.assertEqual(bl.self_times(spans)[0], 100 - 60 - 10)

    def test_layers_of_one_tree_only(self):
        spans = [
            span(0, None, "probe.replay", 0, 1_000_000_000),
            span(1, 0, "harness.cell", 0, 600_000_000),
            span(2, 1, "harness.baseline", 0, 500_000_000),
            span(3, None, "harness.run_cells", 0, 9_000_000_000),
        ]
        layers = bl.layer_self_s(spans, 0)
        self.assertAlmostEqual(layers["sim"], 0.5)
        self.assertAlmostEqual(layers["harness"], 0.1)
        self.assertAlmostEqual(layers["probe"], 0.4)


class LayerMetrics(unittest.TestCase):
    COUNTERS = {"jobs": 1, "trace_generations": 1, "baseline_runs": 1,
                "cache_hits": 6, "episodes": 100, "flushed_lines": 50,
                "faults_injected": 0, "guard_recoveries": 0,
                "quarantine_entries": 0, "json_bytes": 900, "journal_bytes": 2000,
                "frame_bytes": 1800}

    def spans(self):
        ms = 1_000_000
        return [
            span(0, None, "probe.replay", 0, 100 * ms),
            span(1, 0, "harness.cell", 0, 40 * ms, cell=0),
            span(2, 1, "workloads.generate", 0, 10 * ms, cell=0),
            span(3, 1, "harness.baseline", 10 * ms, 30 * ms, cell=0),
            span(4, 1, "harness.hit", 30 * ms, 31 * ms, cell=0),
            span(5, 0, "harness.cell", 40 * ms, 90 * ms, cell=1),
            span(6, 5, "sim.Thrifty", 40 * ms, 89 * ms, cell=1),
            span(7, 0, "report.render", 90 * ms, 99 * ms),
            span(8, None, "harness.run_cells", 100 * ms, 195 * ms),
            span(9, None, "journal.append", 200 * ms, 201 * ms, cell=0),
            span(10, None, "journal.append", 201 * ms, 203 * ms, cell=1),
            span(11, None, "serve.lease", 210 * ms, 252 * ms, cell=0),
            span(12, None, "serve.lease", 252 * ms, 305 * ms, cell=1),
        ]

    def metrics(self, replays=1):
        one = bl.replay_metrics(self.spans(), self.COUNTERS, 0.08)
        return bl.layer_metrics([one] * replays)

    def test_every_per_layer_metric_is_published_in_order(self):
        self.assertEqual(list(self.metrics()), [n for n, _, _ in bl.PER_LAYER])

    def test_timings_pool_across_replays(self):
        one, many = self.metrics(), self.metrics(replays=3)
        self.assertEqual(many["harness.cell_samples"], 3 * one["harness.cell_samples"])
        self.assertEqual(many["journal.appends"], 6)
        self.assertEqual(many["trace.replay_s"], one["trace.replay_s"])
        self.assertEqual(many["sim.episodes"], one["sim.episodes"])

    def test_replay_wall_time_is_accounted_for(self):
        m = self.metrics()
        sims = sum(m[metric] for metric in bl.SIM_METRIC.values())
        parts = (m["workloads.trace_gen_s"] + sims + m["harness.self_s"]
                 + m["report.render_ms"] / 1e3 + m["trace.unaccounted_s"])
        self.assertAlmostEqual(parts, m["trace.replay_s"])
        self.assertAlmostEqual(m["sim.baseline_s"], 0.020)
        self.assertAlmostEqual(m["harness.self_s"], 0.009 + 0.001 + 0.001)
        self.assertAlmostEqual(m["trace.overhead_ratio"], 0.25)
        self.assertAlmostEqual(m["harness.sched_overhead_s"], 0.095 - 0.090)
        self.assertAlmostEqual(m["harness.cache_hit_ratio"], 0.75)
        self.assertEqual(m["journal.appends"], 2)
        self.assertEqual(m["journal.bytes_per_cell"], 1000)
        self.assertAlmostEqual(m["serve.lease_rt_ms_p50"], 2.0)
        self.assertEqual(m["serve.leases"], 2)
        self.assertEqual(m["serve.spawn_to_ready_ms"], 0, "no spawn spans: bypassed")


class OutputChecker(unittest.TestCase):
    with open(os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "refs", "paper64.txt"), "rb") as f:
        REF = f.read()

    def test_identical_stdout_passes(self):
        self.assertIsNone(bl.check_stdout(bytes(self.REF), self.REF))

    def test_one_corrupted_byte_is_rejected(self):
        for i in (0, len(self.REF) // 2, len(self.REF) - 1):
            bad = bytearray(self.REF)
            bad[i] ^= 0x01
            problem = bl.check_stdout(bytes(bad), self.REF)
            self.assertEqual(problem, f"stdout differs from the reference at byte {i}")

    def test_truncated_or_extended_stdout_is_rejected(self):
        self.assertIsNotNone(bl.check_stdout(self.REF[:-1], self.REF))
        self.assertIsNotNone(bl.check_stdout(self.REF + b"\n", self.REF))

    def test_complete_journal_passes(self):
        w = bl.WORKLOADS["fleet8"]
        self.assertIsNone(bl.check_journal(journal(w, 5), w, 5))

    def test_journal_missing_a_record_is_rejected(self):
        w = bl.WORKLOADS["fleet8"]
        problem = bl.check_journal(journal(w, 5, drop=17), w, 5)
        self.assertEqual(problem, f"journal holds {bl.cells_of(w) - 1} records "
                                  f"for {bl.cells_of(w)} cells")

    def test_journal_with_a_duplicate_or_foreign_record_is_rejected(self):
        w = bl.WORKLOADS["fleet8"]
        self.assertIsNotNone(bl.check_journal(journal(w, 5, dup=3), w, 5))
        self.assertIsNotNone(bl.check_journal(journal(w, 5), w, 6))
        self.assertIsNotNone(bl.check_journal("", w, 5))
        torn = journal(w, 5)[:-40] + "\n"
        self.assertIsNotNone(bl.check_journal(torn, w, 5))


class Parsing(unittest.TestCase):
    def test_fault_totals(self):
        text = ("app inject\n"
                "storm: 531108 faults injected, 148633 guard recoveries, "
                "63 quarantine entries, 0 failed cells\n")
        self.assertEqual(bl.fault_totals(text), (531108, 148633, 63))
        self.assertIsNone(bl.fault_totals("no totals here\n"))

    def test_sim_cycles_of_flat_reports_and_aggregates(self):
        flat = b'[{"app":"FFT","wall_time":10,"ledger":{}},{"wall_time":32}]'
        self.assertEqual(bl.sim_cycles_from_json(flat), 42)
        agg = b'[{"wall_time":{"count":4,"mean":2.5,"m2":0.0},"x":1}]'
        self.assertEqual(bl.sim_cycles_from_json(agg), 10)


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_metric_tables(self):
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(bl.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]],
            bl.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            bl.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
