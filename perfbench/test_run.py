#!/usr/bin/env python3
"""Tests of the benchmark's own reporting (no build, no driver run):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import io
import json
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def raw_result(workload, n_ops=120, trace=False):
    """A synthetic driver result: n_ops successful ops in window 0 (and, when
    traced, as many again in window 1)."""
    kinds = ("sweep", "ser", "psens") if workload == "serve_hot_reads" else (
        "op",)
    ops = [[kinds[i % len(kinds)], 1.0 + i, True, 0] for i in range(n_ops)]
    if trace:
        ops += [[kinds[i % len(kinds)], 1.5 + i, True, 1]
                for i in range(n_ops)]
    return {"workload": workload, "seed": 1, "threads": 4, "sites": 10,
            "gates": 8, "setup_s": [0.5, 0.4, 0.6], "window_s": [10.0, 5.0],
            "ops": ops, "peak_rss_mb": 100.0, "psens_abs_err": 0.02,
            "psens_abs_err_sites": 64, "failed_checks": 0, "failures": [],
            "counters": {"render.bytes": 9}}


def span(sid, parent, name, metric, ts, dur):
    return {"name": name, "ph": "X", "pid": 1, "tid": 0, "ts": ts, "dur": dur,
            "args": {"id": sid, "parent": parent, "op": 0, "metric": metric}}


class TailPercentileTest(unittest.TestCase):
    def test_reported_only_with_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(list(range(100)), 90), 89)
        self.assertIsNone(run.tail_percentile(list(range(99)), 90))

    def test_ties_at_the_percentile_do_not_count_as_beyond(self):
        samples = [1.0] * 95 + [2.0] * 5
        self.assertIsNone(run.tail_percentile(samples, 90))

    def test_small_and_empty_inputs(self):
        self.assertIsNone(run.tail_percentile([], 90))
        self.assertIsNone(run.tail_percentile([5.0] * 9, 50))
        self.assertEqual(run.tail_percentile(list(range(20)), 50), 9)

    def test_p90_row_is_na_below_threshold(self):
        rows = {r[0]: r for r in run.e2e_metrics(raw_result("edit_requery",
                                                            n_ops=12))}
        self.assertIsNone(rows["latency_ms_p90"][1])
        self.assertIsNotNone(rows["latency_ms_p50"][1])


class MetricNameTest(unittest.TestCase):
    def test_every_name_and_unit_is_well_formed(self):
        names = [*run.END_TO_END, *run.END_TO_END_EXTRA, *run.PER_LAYER,
                 *run.WORKLOADS]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        for unit in [*run.END_TO_END.values(), *run.PER_LAYER.values()]:
            self.assertRegex(unit, r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_benchmark_json_matches_the_code(self):
        spec_path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        spec = json.loads(spec_path.read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)


class PrintoutTest(unittest.TestCase):
    def test_table_lists_every_metric_with_unit_and_count(self):
        for workload in run.WORKLOADS:
            rows = run.e2e_metrics(raw_result(workload))
            text = run.format_table("header", rows)
            names = set(run.END_TO_END) | {"latency_ms_p90", "error_rate"}
            if workload == "serve_hot_reads":
                names |= {"sweep_req_ms_p50", "ser_req_ms_p50",
                          "psens_req_ms_p50"}
            for name in names:
                line = next(l for l in text.splitlines()
                            if l.split()[0] == name)
                _, _, unit, n = line.split()
                self.assertIn(unit, {*run.END_TO_END.values(),
                                     *run.END_TO_END_EXTRA.values()})
                self.assertGreater(int(n), 0)

    def test_result_line_holds_exactly_the_named_metrics(self):
        raw = raw_result("cold_bench_sweep")
        line = json.loads(run.result_line(raw, run.END_TO_END,
                                          run.e2e_metrics(raw)))
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(set(line["metrics"]), set(run.END_TO_END))
        self.assertTrue(line["correct"])
        self.assertEqual((line["attempted"], line["failed"]), (120, 0))

    def test_failures_make_the_run_incorrect(self):
        raw = raw_result("edit_requery")
        raw["ops"][3][2] = False
        raw["failures"] = ["op 3: mismatch"]
        line = json.loads(run.result_line(raw, run.END_TO_END,
                                          run.e2e_metrics(raw)))
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 1)

    def test_traced_printout_lists_every_per_layer_metric(self):
        raw = raw_result("cold_bench_sweep", trace=True)
        events = [span(1, 0, "op", "", 0, 1000),
                  span(2, 1, "load_netlist", "netlist.parse_ms", 0, 300),
                  span(3, 1, "Session::sweep_csv", "epp.cold_sweep_csv_ms",
                       300, 700)]
        rows = run.layer_metrics(raw, events)
        self.assertEqual([r[0] for r in rows], list(run.PER_LAYER))
        by_name = {r[0]: r for r in rows}
        self.assertAlmostEqual(by_name["netlist.parse_ms"][1], 0.3)
        self.assertEqual(by_name["render.bytes"][1], 9)
        self.assertAlmostEqual(by_name["trace.overhead_ms"][1], 0.5)
        line = json.loads(run.result_line(raw, run.PER_LAYER, rows))
        self.assertEqual(set(line["metrics"]), set(run.PER_LAYER))


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        events = [span(1, 0, "op", "", 0, 1000),
                  span(2, 1, "a", "", 100, 300),
                  span(3, 1, "b", "", 200, 300),  # overlaps a
                  span(4, 2, "c", "", 150, 50)]
        self_ms = {e["name"]: ms for e, ms in run.self_times(events)}
        self.assertAlmostEqual(self_ms["op"], 0.6)
        self.assertAlmostEqual(self_ms["a"], 0.25)
        self.assertAlmostEqual(self_ms["c"], 0.05)


class CommandLineTest(unittest.TestCase):
    def test_missing_sources_fail_without_a_result(self):
        saved = run.ROOT
        run.ROOT = Path("/nonexistent-sereep-root")
        try:
            out = io.StringIO()
            with redirect_stdout(out):
                code = run.main(["--workload", "edit_requery"])
        finally:
            run.ROOT = saved
        self.assertNotEqual(code, 0)
        self.assertEqual(out.getvalue(), "")


if __name__ == "__main__":
    unittest.main()
