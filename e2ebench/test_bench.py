"""Tests of the e2e benchmark itself.

Run from the repository root:

    python3 -m unittest discover -s e2ebench -p 'test_*.py'

The smoke tests build the benchmark on first use (a few minutes) and then
run each workload briefly in both trace modes.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Every metric the benchmark was specified to report.
END_TO_END = [
    "setup_s", "lstm_recipes_per_s", "roberta_recipes_per_s",
    "roberta_int8_recipes_per_s", "logreg_recipes_per_s", "goodput_ratio",
    "lstm_train_recipes_per_s",
    "roberta_train_recipes_per_s", "lstm_accuracy_pct", "roberta_accuracy_pct",
    "roberta_int8_accuracy_pct", "logreg_accuracy_pct", "peak_rss_mb",
]
# The serving latency percentiles are specified as end-to-end metrics but
# are reported by the traced run, unbounded (see README.md).
PER_LAYER = [
    "latency_p50_ms", "latency_p99_ms",
    "text.busy_s", "text.tokens_per_s", "text.intern_hit_ratio",
    "features.tfidf_busy_s", "features.encode_busy_s", "features.pad_ratio",
    "ml.predict_busy_s", "core.predict_busy_s.lstm",
    "core.predict_busy_s.roberta", "core.predict_busy_s.roberta_int8",
    "core.bucket_rows_mean", "core.worker_scaling", "nn.lstm.embedding_s",
    "nn.lstm.layer0_s", "nn.lstm.layer1_s", "nn.lstm.head_s",
    "nn.roberta.embedding_s", "nn.roberta.attention_s", "nn.roberta.ffn_s",
    "nn.roberta.layernorm_s", "nn.roberta.pooler_head_s", "nn.lstm.gflops",
    "nn.roberta.attention_gflops", "nn.roberta.ffn_gflops",
    "nn.replay_coverage", "linalg.gemm_peak_gflops",
    "linalg.gemm_calls_per_recipe", "linalg.gemm_flops_per_recipe",
    "linalg.int8_ops_per_recipe", "service.call_ms_p50", "service.call_ms_p99",
    "service.client_wait_ms_p99", "service.degraded_ratio",
    "service.shed_ratio", "service.deadline_ratio",
    "service.retries_per_request", "loadgen.lag_ms_p99", "train.forward_s",
    "train.backward_s", "train.optimizer_s", "train.steps",
    "util.threadpool_task_wait_ms_p99",
]
SMOKE_SECONDS = "2"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "e2ebench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", SMOKE_SECONDS,
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=1200)


class SpecTest(unittest.TestCase):
    def test_names_and_units_are_valid_and_unique(self):
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        for group in ("end_to_end", "per_layer"):
            names += [m["name"] for m in spec[group]]
            for m in spec[group]:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)))

    def test_every_specified_metric_is_listed(self):
        spec = load_spec()
        self.assertLessEqual(set(END_TO_END),
                             {m["name"] for m in spec["end_to_end"]})
        self.assertLessEqual(set(PER_LAYER),
                             {m["name"] for m in spec["per_layer"]})

    def test_bounds(self):
        spec = load_spec()
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        done = run_bench(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        lines = done.stdout.strip().split("\n")
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        failed_checks = [l for l in lines if l.startswith("# check") and
                         " FAIL " in l]
        self.assertTrue(result["correct"], failed_checks)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        spec = load_spec()
        group = spec["per_layer"] if trace else spec["end_to_end"]
        self.assertEqual(
            {n: m["unit"] for n, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in group})
        for name in PER_LAYER if trace else END_TO_END:
            self.assertIn(f"# metric {name} ", "\n".join(lines) + " ")
        return result

    def test_paper_untraced(self):
        self.check_run("paper", 0)

    def test_paper_traced(self):
        self.check_run("paper", 1)

    def test_long_untraced(self):
        self.check_run("long", 0)

    def test_long_traced(self):
        self.check_run("long", 1)

    def test_refuses_to_run_without_the_repository(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            done = run_bench("paper", 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
