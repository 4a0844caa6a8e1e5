"""Smoke tests for the benchmark itself, at tiny workload sizes.

    python3 bench/smoke.py            # from the repository root, ~1.5 minutes

They check that every metric is printed with its unit, that the gated
timings are the raw ones scaled by the calibration, that the output
checks catch a tampered daily CSV or manifest count, and that the
benchmark refuses to run without the emoscope sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _printed(lines, name, unit) -> bool:
    return any(line.startswith(f"{name} = ") and f" {unit} (median of " in line for line in lines)


class MetricsPrinted(unittest.TestCase):
    def _run(self, name, trace):
        out = run.run(ROOT, name, seed=5, seconds=0, trace=trace, small=True)
        result = out["result"]
        self.assertTrue(result["correct"], out["lines"])
        self.assertEqual(result["failed"], 0)
        expected = run.per_layer_metrics() if trace else list(run.END_TO_END)
        self.assertEqual(sorted(result["metrics"]), sorted(n for n, _ in expected))
        for metric, unit in expected:
            self.assertEqual(result["metrics"][metric]["unit"], unit)
        printed = list(expected)
        if not trace:
            commands = {c[0] for c in workloads.make(name, small=True).commands()}
            for metric, unit in run.PRINTED:
                if run.COMMAND_OF.get(metric, next(iter(commands))) not in commands:
                    continue
                # scan-wild is the only workload with generated inputs
                if metric == "harness_setup_s" and name != "scan-wild":
                    continue
                printed.append((metric, unit))
        for metric, unit in printed:
            self.assertTrue(_printed(out["lines"], metric, unit), f"{metric} [{unit}] not printed")
        json.dumps(result)
        return result

    def test_end_to_end_metrics_on_every_workload(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                metrics = self._run(name, trace=False)["metrics"]
                for metric, _ in run.END_TO_END:
                    self.assertGreater(metrics[metric]["value"], 0, metric)
                path = ROOT / ".bench_work" / "results" / f"BENCH_{name}-small-seed5-trace0.json"
                summary = json.loads(path.read_text(encoding="utf-8"))["metrics"]
                slowdown = summary["calibration_s"]["median"] / calibrate.REFERENCE_S
                self.assertAlmostEqual(metrics["posts_per_s"]["value"],
                                       summary["raw_posts_per_s"]["median"] * slowdown,
                                       delta=1e-9 * metrics["posts_per_s"]["value"])
                self.assertAlmostEqual(metrics["setup_s"]["value"],
                                       summary["raw_setup_s"]["median"] / slowdown,
                                       delta=1e-9 * metrics["setup_s"]["value"])

    def test_per_layer_metrics_on_every_workload(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                metrics = self._run(name, trace=True)["metrics"]
                self.assertGreater(metrics["corpus.stream_posts_s"]["value"], 0)
                self.assertGreater(metrics["synth.generate_corpus_s"]["value"], 0)
                # interpreter shutdown lies outside every span and weighs
                # more in tiny runs; run.py fails full-size runs under 0.9
                self.assertGreater(metrics["trace.span_coverage"]["value"], 0.8)
                if name == "validate-battery":
                    self.assertGreater(metrics["stats.permutation_test_dcca_s"]["value"], 0)
                if name == "scan-wild":
                    self.assertGreater(metrics["lexicon.report_match_s"]["value"], 0)
                    self.assertGreater(metrics["corpus.malformed"]["value"], 0)


class TamperedOutputsFail(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.ws = Path(cls.tmp.name) / "ws"
        cls.workload = workloads.make("scan-wild", small=True)
        runner = run.Runner(ROOT, Path(cls.tmp.name), time.perf_counter() + 120)

        def invoke(args):
            inv = runner.invoke(args, cwd=Path(cls.tmp.name))
            assert inv.code == 0, inv.stderr

        cls.workload.setup(invoke, cls.ws, seed=9)
        cls.workload.add_inputs(cls.ws, seed=9)
        inv = runner.invoke(["signal", "--config", str(cls.ws / "pipeline.ini")], cwd=cls.ws)
        assert inv.code == 0, inv.stderr
        cls.stdout = inv.stdout
        cls.pristine = Path(cls.tmp.name) / "pristine"
        shutil.copytree(cls.ws / "out", cls.pristine)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def setUp(self):
        shutil.rmtree(self.ws / "out")
        shutil.copytree(self.pristine, self.ws / "out")

    def test_untouched_outputs_pass(self):
        counts = self.workload.check("signal", self.ws, self.stdout)
        self.assertEqual(counts["records"], 100 * 15)

    def test_tampered_daily_csv_fails(self):
        path = self.ws / "out" / "daily_sadness_male.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        date, _, num, den = lines[5].split(",")
        lines[5] = f"{date},{(float(num) + 1) / float(den):.12g},{float(num) + 1:.12g},{den}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with self.assertRaises(checks.CheckFailed):
            self.workload.check("signal", self.ws, self.stdout)

    def test_tampered_manifest_count_fails(self):
        path = self.ws / "out" / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["counts"]["kept"] -= 1
        manifest["counts"]["filtered"] += 1
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with self.assertRaises(checks.CheckFailed):
            self.workload.check("signal", self.ws, self.stdout)

    def test_broken_bookkeeping_fails(self):
        with self.assertRaises(checks.CheckFailed):
            checks.check_bookkeeping(
                {"records": 10, "parsed": 9, "malformed": 1, "filtered": 2, "kept": 6}, "test")


class RefusesWithoutSources(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH_DIR, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            res = subprocess.run([sys.executable, "bench/run.py", "--workload", "scan-demo",
                                  "--seed", "1", "--seconds", "1", "--trace", "0"],
                                 cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(res.returncode, 0)
        self.assertNotIn('"correct"', res.stdout)


if __name__ == "__main__":
    unittest.main()
