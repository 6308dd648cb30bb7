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


def entry(label, host="cpu-a", **metrics):
    return {"label": label, "workload": "node_mtat", "host": host, "nproc": 4, "workers": 1,
            "build_type": "RelWithDebInfo", "git_sha": "abc", "source_digest": "def",
            "digest": "0123", "metrics": {**BASE, **metrics}}


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
        finally:
            bt.run_benchmark, bt.TRAJECTORY = saved


if __name__ == "__main__":
    unittest.main()
