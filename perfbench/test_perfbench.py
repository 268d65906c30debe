#!/usr/bin/env python3
"""The benchmark's own test: minimal-size runs of every workload.

    python3 perfbench/test_perfbench.py

Checks that each workload prints every BENCHMARK.json metric with its unit in
both modes and passes its correctness gate, that a planted response
mismatch fails the gate, that a run at one seed repeats meta_train's Save
bytes, and that --all prints the ten headline metrics. Builds the
benchmark first (perfbench/run.py does), so the first call takes a minute.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("serve_fleet", "serve_monitored", "meta_train")


def run(*args):
    done = subprocess.run([sys.executable, RUN] + list(args),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=600, check=False)
    return done.returncode, done.stdout.splitlines()


def tiny(workload, trace, *extra):
    return run("--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", trace, "--tiny", *extra)


class PerfbenchTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            declared = json.load(f)
        cls.expected = {
            "0": {m["name"]: m["unit"] for m in declared["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in declared["per_layer"]},
        }

    def test_every_metric_with_unit(self):
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    code, lines = tiny(workload, trace)
                    self.assertEqual(code, 0)
                    result = json.loads(lines[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct",
                                                      "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {name: metric["unit"]
                             for name, metric in result["metrics"].items()}
                    self.assertEqual(units, self.expected[trace])
                    if trace == "0":
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_traced_run_confirms_the_workload_design(self):
        metrics = {}
        for workload in WORKLOADS:
            code, lines = tiny(workload, "1")
            self.assertEqual(code, 0)
            metrics[workload] = {name: m["value"] for name, m in
                                 json.loads(lines[-1])["metrics"].items()}
        fleet = metrics["serve_fleet"]
        monitored = metrics["serve_monitored"]
        meta = metrics["meta_train"]
        self.assertEqual(fleet["core.monitor_observe.busy_s"], 0)
        self.assertGreater(monitored["core.monitor_observe.busy_s"], 0)
        self.assertGreater(fleet["serve.state_save.calls"], 0)
        self.assertEqual(monitored["serve.state_save.calls"], 0)
        for name in ("ml.cv_mae.busy_s", "ml.forest_fit.busy_s"):
            self.assertGreater(meta[name], 0)
            self.assertEqual(fleet[name], 0)
            self.assertEqual(monitored[name], 0)
        for workload in WORKLOADS:
            self.assertGreater(metrics[workload]["trace.coverage"], 0)

    def test_planted_mismatch_fails_the_gate(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = tiny(workload, "0", "--plant-mismatch")
                self.assertNotEqual(code, 0)
                self.assertFalse(json.loads(lines[-1])["correct"])

    def test_meta_train_bytes_repeat_at_one_seed(self):
        digests = []
        for _ in range(2):
            code, lines = tiny("meta_train", "0")
            self.assertEqual(code, 0)
            report = [l for l in lines if l.startswith("perfbench-report ")]
            notes = json.loads(report[-1][len("perfbench-report "):])["notes"]
            digests.append([n for n in " ".join(notes).split()
                            if n.startswith("save_digest=")])
        self.assertEqual(len(digests[0]), 1)
        self.assertEqual(digests[0], digests[1])

    def test_all_prints_the_headline_metrics(self):
        code, lines = run("--all", "--seconds", "1", "--tiny")
        self.assertEqual(code, 0)
        table = "\n".join(lines)
        for name in ("rows_per_s [1/s]", "flush_p50_ms [ms]",
                     "flush_p99_ms [ms]", "train_s_p50 [s]",
                     "abs_err_p50 [acc]", "detect_delay_batches [batches]",
                     "false_alarm_rate [ratio]", "failed_ratio [ratio]",
                     "setup_s [s]", "peak_rss_mb [MiB]"):
            self.assertIn(name, table)


if __name__ == "__main__":
    unittest.main()
