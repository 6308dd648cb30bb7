#!/usr/bin/env python3
"""Tests for tools/bench_trajectory.py: the perf record's gate and its refusals."""
import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_trajectory as bt  # noqa: E402

BASE = {"sim_s_per_wall_s": 100.0, "setup_s": 1.0, "peak_rss_mib": 50.0,
        "interval_wall_ms_p50": 10.0, "interval_wall_ms_p99": 20.0,
        "slo_compliance_pct": 90.0, "be_fairness": 0.5}


def entry(label, host="cpu-a", extra=None, **metrics):
    return {"label": label, "workload": "node_mtat", "host": host, "nproc": 4, "workers": 1,
            "build_type": "RelWithDebInfo", "git_sha": "abc", "source_digest": "def",
            "digest": "0123", **(extra or {}), "metrics": {**BASE, **metrics}}


class Gate(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.path = Path(self.dir.name) / "trajectory.json"

    def tearDown(self):
        self.dir.cleanup()

    def run_tool(self, *argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return bt.main(list(argv))

    def check(self, *entries, text=None):
        self.path.write_text(json.dumps(list(entries)) if text is None else text)
        return self.run_tool("check", str(self.path))

    def test_improvement_passes(self):
        self.assertEqual(self.check(entry("a"), entry("b", sim_s_per_wall_s=150.0, setup_s=0.5)), 0)

    def test_regression_beyond_the_bound_fails_in_either_direction(self):
        self.assertEqual(self.check(entry("a"), entry("b", sim_s_per_wall_s=70.0)), 1)
        self.assertEqual(self.check(entry("a"), entry("b", peak_rss_mib=56.0)), 1)

    def test_dip_within_the_bound_passes(self):
        self.assertEqual(self.check(entry("a"), entry("b", sim_s_per_wall_s=80.0,
                                                      peak_rss_mib=54.0)), 0)

    def test_gated_against_the_best_earlier_entry_not_the_previous_one(self):
        trail = [entry("a"), entry("b", sim_s_per_wall_s=80.0)]
        self.assertEqual(self.check(*trail), 0)
        self.assertEqual(self.check(*trail, entry("c", sim_s_per_wall_s=74.0)), 1)

    def test_a_different_host_is_never_compared(self):
        self.assertEqual(self.check(entry("a"), entry("b", host="cpu-b", sim_s_per_wall_s=10.0)), 0)
        self.assertEqual(self.check(entry("a"), entry("b", host="cpu-b"),
                                    entry("c", host="cpu-b", sim_s_per_wall_s=10.0)), 1)

    def test_a_different_simd_level_or_lane_count_is_never_compared(self):
        avx512 = {"simd": "avx512f", "lanes": 3}
        for other in ({"simd": "avx2", "lanes": 3}, {"simd": "avx512f", "lanes": 0}):
            self.assertEqual(self.check(entry("a", extra=avx512),
                                        entry("b", extra=other, sim_s_per_wall_s=10.0)), 0)
            self.assertEqual(self.check(entry("a", extra=avx512), entry("b", extra=other),
                                        entry("c", extra=other, sim_s_per_wall_s=10.0)), 1)
        self.assertEqual(self.check(entry("a", extra=avx512),
                                    entry("b", extra=avx512, sim_s_per_wall_s=10.0)), 1)

    def test_an_entry_lacking_simd_and_lanes_is_gated_as_before(self):
        new = {"simd": "avx512f", "lanes": 3, "steal_s": [0.1, 2.5, 0.0]}
        # Old entries lack the fields: they match a new entry either way round.
        self.assertEqual(self.check(entry("a"), entry("b", extra=new, sim_s_per_wall_s=70.0)), 1)
        self.assertEqual(self.check(entry("a", extra=new), entry("b", sim_s_per_wall_s=70.0)), 1)
        self.assertEqual(self.check(entry("a"), entry("b", extra=new, sim_s_per_wall_s=150.0),
                                    entry("c", sim_s_per_wall_s=100.0)), 1)
        self.assertEqual(self.check(entry("a"), entry("b", extra=new)), 0)

    def test_malformed_later_fields_exit_2(self):
        for bad in ({"simd": 3}, {"lanes": "3"}, {"steal_s": 1.0}, {"steal_s": ["x"]},
                    {"steal": [1.0]}):
            self.assertEqual(self.check(entry("a"), entry("b", extra=bad)), 2, bad)

    def test_steal_is_the_cpu_lines_eighth_value_in_seconds(self):
        stat = ("cpu  3426471 651874 159871 6714619 1843 0 19060 117507 0 0\n"
                "cpu0 856617 162968 39967 1678654 460 0 4765 29376 0 0\n"
                "intr 12345 0 0\n")
        self.assertEqual(bt.steal_seconds(stat, 100), 1175.07)
        self.assertEqual(bt.steal_seconds(stat.replace(" 117507 ", " 0 "), 100), 0.0)
        with self.assertRaises(bt.Refused):
            bt.steal_seconds("cpu0 1 2 3 4 5 6 7 8\n", 100)
        with self.assertRaises(bt.Refused):
            bt.steal_seconds("cpu  1 2 3 4 5 6 7\n", 100)

    def test_malformed_input_exits_2(self):
        missing = entry("b")
        del missing["metrics"]["be_fairness"]
        extra = entry("b", perf_ops=1.0)
        self.assertEqual(self.check(entry("a"), missing), 2)
        self.assertEqual(self.check(entry("a"), extra), 2)
        self.assertEqual(self.check(entry("a"), entry("b", setup_s="fast")), 2)
        self.assertEqual(self.check(text='[{"label": '), 2)
        self.assertEqual(self.run_tool("check", str(self.path.with_name("absent.json"))), 2)
        self.assertEqual(self.run_tool("check"), 2)

    def test_zero_baseline(self):
        self.assertEqual(self.check(entry("a", slo_compliance_pct=0.0),
                                    entry("b", slo_compliance_pct=0.0)), 0)
        self.assertEqual(self.check(entry("a", setup_s=0.0), entry("b", setup_s=0.0)), 0)
        self.assertEqual(self.check(entry("a", setup_s=0.0), entry("b", setup_s=0.01)), 1)

    def test_record_refuses_a_result_that_is_not_correct_and_keeps_the_median(self):
        metrics = {k: {"value": v, "unit": "x"} for k, v in BASE.items()}
        manifest = {"git_sha": "abc", "config": {"workers": "1", "nproc": "4",
                                                 "build_type": "RelWithDebInfo",
                                                 "source_digest": "def"}}

        def fake(*runs):  # (correct, failed, sim_s_per_wall_s, digest) per run
            out = [["manifest " + json.dumps(manifest), f"digest node_mtat seed 1 {d}",
                    json.dumps({"correct": c, "attempted": 5, "failed": f, "metrics": {
                        **metrics, "sim_s_per_wall_s": {"value": v, "unit": "x"}}})]
                   for c, f, v, d in runs]
            return lambda workload: out.pop(0) if out else []

        saved = bt.run_benchmark, bt.TRAJECTORY
        bt.TRAJECTORY = self.path
        try:
            for runs in ([(False, 0, 100.0, "a")], [(True, 3, 100.0, "a")], [],
                         [(True, 0, 100.0, "a"), (True, 0, 100.0, "b"), (True, 0, 100.0, "a")]):
                bt.run_benchmark = fake(*runs)
                self.assertEqual(self.run_tool("record", "pr", "node_mtat"), 2)
                self.assertFalse(self.path.exists())
            bt.run_benchmark = fake((True, 0, 90.0, "a"), (True, 0, 120.0, "a"),
                                    (True, 0, 100.0, "a"))
            self.assertEqual(self.run_tool("record", "pr", "node_mtat"), 0)
            self.assertEqual(json.loads(self.path.read_text())[0]["metrics"], BASE)
            # A manifest that names its SIMD level and lanes puts both in the
            # entry; every run's steal is stored beside them.
            manifest.update({"simd": "avx2", "lanes": 3})
            steal = iter([5.0, 5.5, 6.0, 6.0, 6.0, 7.25])
            saved_steal = bt.host_steal
            bt.host_steal = lambda: next(steal)
            try:
                bt.run_benchmark = fake(*[(True, 0, 100.0, "a")] * 3)
                self.assertEqual(self.run_tool("record", "pr2", "node_mtat"), 0)
            finally:
                bt.host_steal = saved_steal
            recorded = json.loads(self.path.read_text())[1]
            self.assertEqual((recorded["simd"], recorded["lanes"]), ("avx2", 3))
            self.assertEqual(recorded["steal_s"], [0.5, 0.0, 1.25])
        finally:
            bt.run_benchmark, bt.TRAJECTORY = saved


if __name__ == "__main__":
    unittest.main()
