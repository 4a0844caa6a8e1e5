"""emoscope benchmark: one workload, one seed, a closed loop with one client.

    python3 bench/run.py --workload scan-demo --seed 1 --seconds 28 --trace 0

Run from the repository root. The benchmark has emoscope build the
workload's workspace from the seed three times (set-up time is the median),
adds the benchmark's own generated inputs once where the workload has
them, then runs cycles of the workload's commands (`signal` and
`thirdperson`, or `validate`) for --seconds. Each invocation is a fresh
child process started with sys.executable and PYTHONPATH=src, timed from
spawn to exit, and its outputs are checked before the next one starts.
A fixed calibration task (calibrate.py) runs before every set-up, before
every cycle and after the last cycle; `posts_per_s` and `setup_s` are
scaled by the median of its times to the speed of a nominal quiet machine.

--trace 0 reports the end-to-end metrics. --trace 1 runs one untraced
reference cycle, then traced cycles that wrap each layer's public
functions from outside (see spantrace.py), and reports per-layer metrics
and the tracing overhead. Human-readable lines come first; the last line
of stdout is one JSON object. A results file with the environment, the
input and output digests and every sample goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import checks
import spantrace
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
RUN_BUDGET_S = 170.0  # every run must end within 180 s
# a full-size traced run must place this share of its wall time in named spans
MIN_SPAN_COVERAGE = 0.9

_CLI = "import sys; from emoscope.cli import main; sys.exit(main(sys.argv[1:]))"
_CLI_TRACED = "import sys, spantrace; sys.exit(spantrace.run_traced(sys.argv[1:]))"
_CALIBRATE = f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import calibrate; calibrate.work()"

# the result line; posts_per_s and setup_s are calibrated (see calibrate.py)
END_TO_END = (
    ("posts_per_s", "posts/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# printed and kept in the results file but not in the result line: raw
# wall-time figures, which drift with the machine by about as much as any
# usable bound, and harness_setup_s, which times the benchmark's own
# generator, which no program change can move
PRINTED = (
    ("signal_posts_per_s", "posts/s"),
    ("thirdperson_posts_per_s", "posts/s"),
    ("validate_s", "s"),
    ("raw_posts_per_s", "posts/s"),
    ("raw_setup_s", "s"),
    ("calibration_s", "s"),
    ("harness_setup_s", "s"),
)
# the printed figures that exist only on workloads running their command
COMMAND_OF = {"signal_posts_per_s": "signal", "thirdperson_posts_per_s": "thirdperson",
              "validate_s": "validate"}

# per-layer metric -> the span or counter it is read from
_SPAN_TOTALS = {
    "cli.import_s": "cli.import",
    "corpus.stream_posts_s": "corpus.stream_posts",
    "lexicon.tokenize_s": "lexicon.tokenize",
    "lexicon.match_mask_s": "lexicon.match_mask",
    "lexicon.report_match_s": "lexicon.report_match",
    "lexicon.contains_third_person_s": "lexicon.contains_third_person",
    "stats.permutation_test_pearson_s": "stats.permutation_test_pearson",
    "stats.permutation_test_dcca_s": "stats.permutation_test_dcca",
    "stats.dcca_s": "stats.dcca",
    "stats.correlate_s": "stats.correlate",
    "stats.lagged_regression_hac_s": "stats.lagged_regression_hac",
    "stats.kpss_s": "stats.kpss",
    "signals.stream_scores_s": "signals.stream_scores",
    "signals.weekly_align_s": "signals.weekly_align",
    "signals.gender_rescale_s": "signals.gender_rescale",
    "signals.write_csv_s": "signals.write_csv",
    "signals.load_survey_s": "signals.load_survey",
    "config.load_config_s": "config.load_config",
}
_SPAN_SELF = {
    "cli.main_self_s": "cli.main",
    "pipeline.build_signals_self_s": "pipeline.build_signals",
    "pipeline.thirdperson_rows_self_s": "pipeline.thirdperson_rows",
    "pipeline.run_validation_self_s": "pipeline.run_validation",
}
_COUNTERS = {
    "corpus.records": "corpus.records",
    "corpus.malformed": "corpus.malformed",
    "corpus.filtered": "corpus.filtered",
    "corpus.kept": "corpus.kept",
    "corpus.bytes_in": "corpus.bytes_in",
    "lexicon.tokens": "lexicon.tokens",
    "lexicon.matched_posts": "lexicon.matched_posts",
    "pipeline.rows": "pipeline.rows",
    "stats.permutations": "stats.permutations",
    "signals.score_records": "signals.score_records",
}
_SYNTH = {
    "synth.generate_corpus_s": "synth.generate_corpus",
    "synth.generate_scores_s": "synth.generate_scores",
    "synth.generate_survey_s": "synth.generate_survey",
}
LAYERS = ("cli", "config", "corpus", "lexicon", "signals", "stats", "pipeline", "synth")


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = [(name, "s") for name in _SPAN_TOTALS] + [(name, "s") for name in _SPAN_SELF]
    out += [(name, "bytes" if name == "corpus.bytes_in" else "count") for name in _COUNTERS]
    out += [("corpus.kept_ratio", "ratio"), ("pipeline.rows_computed_ratio", "ratio")]
    out += [(name, "s") for name in _SYNTH]
    out += [(f"{layer}.self_s", "s") for layer in LAYERS]
    out += [("trace.overhead_s", "s"), ("trace.span_coverage", "ratio")]
    return out


class RunFailed(Exception):
    """The run cannot go on (set-up failed or the time budget ran out)."""


@dataclass
class Invocation:
    args: list[str]
    code: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str
    trace: dict | None = None


@dataclass
class Sample:
    command: str
    inv: Invocation
    error: str | None = None


class Runner:
    """Starts one emoscope CLI child at a time and waits for it to end."""

    def __init__(self, root: Path, scratch: Path, deadline: float):
        self.root = root
        self.scratch = scratch
        self.deadline = deadline
        self.n = 0

    def invoke(self, args, cwd: Path, traced: bool = False, code: str | None = None) -> Invocation:
        self.n += 1
        out_path = self.scratch / f"child{self.n}.out"
        err_path = self.scratch / f"child{self.n}.err"
        spans_path = self.scratch / f"child{self.n}.spans"
        report_path = self.scratch / f"child{self.n}.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        if traced:
            env["PYTHONPATH"] += os.pathsep + str(BENCH_DIR)
            env[spantrace.SPANS_ENV] = str(spans_path)
        # through launch.py, which times the child and reads its peak RSS
        argv = [sys.executable, str(BENCH_DIR / "launch.py"), str(report_path),
                sys.executable, "-c", code or (_CLI_TRACED if traced else _CLI), *args]
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise RunFailed("time budget exhausted")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            # a session of its own, so that the watchdog stops the launcher
            # and emoscope together
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                    start_new_session=True)
            watchdog = threading.Timer(remaining, _kill_group, (proc.pid,))
            watchdog.start()
            try:
                proc.wait()
            finally:
                watchdog.cancel()
        if report_path.exists():
            report = json.loads(report_path.read_text(encoding="utf-8"))
            report_path.unlink()
        else:  # the launcher was killed
            report = {"code": proc.returncode, "wall_s": time.perf_counter() - t0, "maxrss_kb": 0}
        inv = Invocation(
            args=list(args), code=report["code"], wall_s=report["wall_s"],
            maxrss_mb=report["maxrss_kb"] / 1024.0,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )
        out_path.unlink()
        err_path.unlink()
        if traced and spans_path.exists():
            inv.trace = spantrace.summarize(spantrace.load(spans_path))
            spans_path.unlink()
        return inv


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # already ended


def quartiles(values) -> tuple[float, float, float]:
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def environment(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "orjson_importable": importlib.util.find_spec("orjson") is not None,
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root),
    }


def input_digests(ws: Path) -> dict[str, dict]:
    files = sorted(p for p in ws.rglob("*") if p.is_file() and "out" not in p.relative_to(ws).parts)
    return {str(p.relative_to(ws)): {"bytes": p.stat().st_size, "sha256": checks.sha256_file(p)}
            for p in files}


def _sum_traces(traces: list[dict]) -> dict:
    """Per-layer metrics of one cycle: sums over its traced invocations."""
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for tr in traces:
        for name, rec in tr["spans"].items():
            acc = spans.setdefault(name, {"total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += rec[key]
        for key, value in tr["counters"].items():
            counters[key] = counters.get(key, 0) + value
    metrics = {m: spans.get(s, {}).get("total_s", 0.0) for m, s in _SPAN_TOTALS.items()}
    metrics.update({m: spans.get(s, {}).get("self_s", 0.0) for m, s in _SPAN_SELF.items()})
    metrics.update({m: float(counters.get(c, 0)) for m, c in _COUNTERS.items()})
    records = counters.get("corpus.records", 0)
    metrics["corpus.kept_ratio"] = counters.get("corpus.kept", 0) / records if records else 0.0
    rows = counters.get("pipeline.rows", 0)
    metrics["pipeline.rows_computed_ratio"] = (
        counters.get("pipeline.rows_computed", 0) / rows if rows else 0.0)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(rec["self_s"] for name, rec in spans.items()
                                         if name.split(".", 1)[0] == layer)
    return metrics


def _share_lines(traces: list[Invocation]) -> list[str]:
    """Top self-time shares of each traced command's wall time."""
    lines = []
    for inv in traces:
        spans = inv.trace["spans"]
        ranked = sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])[:5]
        parts = ", ".join(f"{name} {rec['self_s'] / inv.wall_s:.0%}" for name, rec in ranked)
        lines.append(f"  share of {inv.args[0]} wall ({inv.wall_s:.2f} s): {parts}")
        after_import = inv.wall_s - spans["cli.import"]["total_s"]
        top = ranked[0][0] if ranked[0][0] != "cli.import" else ranked[1][0]
        lines.append(f"    {top} is {spans[top]['self_s'] / after_import:.0%} of the "
                     f"{after_import:.2f} s after import")
    return lines


class Bench:
    def __init__(self, root: Path, workload, seed: int, seconds: float, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.start = time.perf_counter()
        self.work = root / ".bench_work" / f"{workload.name}-seed{seed}-{os.getpid()}"
        self.ws = self.work / "ws"
        self.runner = Runner(root, self.work, self.start + RUN_BUDGET_S)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.setup_s: list[float] = []  # emoscope building the workspace
        self.harness_setup_s: list[float] = []  # the benchmark adding its inputs
        self.calibration_s: list[float] = []
        self.synth_traces: list[dict] = []
        self.inputs: dict | None = None
        self.samples: list[list[Sample]] = []  # one list per cycle
        self.reference: list[Sample] = []  # untraced cycle of a traced run
        self.digests: dict[str, dict[str, str]] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    # set-up ---------------------------------------------------------------

    def calibrate(self) -> None:
        """Time the calibration task once (untraced runs only)."""
        if self.trace:
            return
        inv = self.runner.invoke([], cwd=self.work, code=_CALIBRATE)
        if inv.code != 0:
            raise RunFailed(f"calibration exited {inv.code}: {inv.stderr.strip()[-300:]}")
        self.calibration_s.append(inv.wall_s)

    def _synth_invoke(self, args) -> None:
        inv = self.runner.invoke(args, cwd=self.work, traced=self.trace)
        if inv.code != 0:
            raise RunFailed(f"synth exited {inv.code}: {inv.stderr.strip()[-300:]}")
        if inv.trace is not None:
            self.synth_traces.append(inv.trace)

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        # compile and cache the package once so that no timed child pays for it
        warm = self.runner.invoke([], cwd=self.work, code="import emoscope.cli")
        if warm.code != 0:
            raise RunFailed(f"cannot import emoscope: {warm.stderr.strip()[-300:]}")
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.ws, ignore_errors=True)
            self.calibrate()
            self.attempted += 1
            t0 = time.perf_counter()
            self.workload.setup(self._synth_invoke, self.ws, self.seed)
            self.setup_s.append(time.perf_counter() - t0)
            inputs = input_digests(self.ws)
            if self.inputs is not None and inputs != self.inputs:
                self.fail("setup: the same seed produced different inputs")
            self.inputs = inputs
        t0 = time.perf_counter()
        if self.workload.add_inputs(self.ws, self.seed):
            self.harness_setup_s.append(time.perf_counter() - t0)
            self.inputs = input_digests(self.ws)

    # cycles ---------------------------------------------------------------

    def _run_command(self, args: tuple[str, ...], traced: bool) -> Sample:
        shutil.rmtree(self.ws / "out", ignore_errors=True)
        config = str(self.ws / "pipeline.ini")
        self.attempted += 1
        inv = self.runner.invoke([args[0], "--config", config, *args[1:]], cwd=self.ws,
                                 traced=traced)
        sample = Sample(command=args[0], inv=inv)
        try:
            if inv.code != 0:
                raise checks.CheckFailed(f"exit {inv.code}: {inv.stderr.strip()[-300:]}")
            self.workload.check(args[0], self.ws, inv.stdout)
            digests = checks.digest_outputs(self.ws / "out", self.ws)
            first = self.digests.setdefault(args[0], digests)
            if digests != first:
                raise checks.CheckFailed("outputs differ from the first cycle of this run")
        except checks.CheckFailed as err:
            sample.error = str(err)
            self.fail(f"{args[0]}: {err}")
        return sample

    def run_cycles(self) -> None:
        commands = self.workload.commands()
        if self.trace:
            self.reference = [self._run_command(c, traced=False) for c in commands]
        # start a cycle only if it should end within --seconds (the first
        # always runs), so a run's length does not depend on how far the
        # last cycle overshoots
        t0 = time.perf_counter()
        last = 0.0
        while not self.samples or time.perf_counter() - t0 + last <= self.seconds:
            start = time.perf_counter()
            self.calibrate()
            self.samples.append([self._run_command(c, traced=self.trace) for c in commands])
            last = time.perf_counter() - start
        self.calibrate()

    # metrics --------------------------------------------------------------

    def _good(self, command: str) -> list[Sample]:
        return [s for cycle in self.samples for s in cycle if s.command == command and not s.error]

    def end_to_end(self) -> dict[str, list[float]]:
        # every command reads the whole corpus once
        records = self.workload.records

        def throughput(command):
            return [records / s.inv.wall_s for s in self._good(command)]

        raw = [records * len(c) / sum(s.inv.wall_s for s in c)
               for c in self.samples if not any(s.error for s in c)]
        # above 1 while the machine runs slower than the nominal quiet one
        slowdown = statistics.median(self.calibration_s) / calibrate.REFERENCE_S
        return {
            "posts_per_s": [v * slowdown for v in raw],
            "peak_rss_mb": [max(s.inv.maxrss_mb for s in cycle) for cycle in self.samples],
            "setup_s": [v / slowdown for v in self.setup_s],
            "signal_posts_per_s": throughput("signal"),
            "thirdperson_posts_per_s": throughput("thirdperson"),
            "validate_s": [s.inv.wall_s for s in self._good("validate")],
            "raw_posts_per_s": raw,
            "raw_setup_s": list(self.setup_s),
            "calibration_s": list(self.calibration_s),
            "harness_setup_s": list(self.harness_setup_s),
        }

    def per_layer(self) -> dict[str, list[float]]:
        cycles = [_sum_traces([s.inv.trace for s in cycle if s.inv.trace]) for cycle in self.samples]
        values = {name: [c[name] for c in cycles] for name, _ in per_layer_metrics()
                  if name in cycles[0]}
        for name, span in _SYNTH.items():
            values[name] = [tr["spans"].get(span, {}).get("total_s", 0.0)
                            for tr in self.synth_traces]
        # synth runs only during set-up, so its self time comes from there
        values["synth.self_s"] = [_sum_traces([tr])["synth.self_s"] for tr in self.synth_traces]
        ref_wall = sum(s.inv.wall_s for s in self.reference)
        values["trace.overhead_s"] = [sum(s.inv.wall_s for s in cycle) - ref_wall
                                      for cycle in self.samples]
        # time in named spans: the root spans less the part of cli.main
        # that no layer span covers
        values["trace.span_coverage"] = [
            sum(s.inv.trace["root_s"] - s.inv.trace["spans"]["cli.main"]["self_s"]
                for s in cycle if s.inv.trace)
            / sum(s.inv.wall_s for s in cycle) for cycle in self.samples]
        return values


def _record_digests(root: Path, key: str, src: str, digests: dict) -> str | None:
    """Compare output digests with the last run of this workload and seed.
    Returns an error for a difference under the same code, a note otherwise."""
    path = root / ".bench_work" / "results" / "digests.json"
    known = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    previous = known.get(key)
    known[key] = {"src_sha256": src, "outputs": digests}
    path.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    if previous is None or previous["outputs"] == digests:
        return None
    if previous["src_sha256"] == src:
        return "error: outputs differ from an earlier run of the same code"
    return "note: outputs differ from the last run of other code (reported, not failed)"


def run(root: Path, name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Run one workload and return the result line plus the report text."""
    workload = workloads.make(name, small=small)
    bench = Bench(root, workload, seed, seconds, trace)
    lines = [f"workload {name} (seed {seed}, {seconds:g} s, trace {int(trace)}): {workload.why}"]
    env = environment(root)
    metric_units = per_layer_metrics() if trace else list(END_TO_END + PRINTED)
    values = {}
    try:
        try:
            bench.setup()
            bench.run_cycles()
        except RunFailed as err:
            bench.fail(str(err))
        if bench.samples:
            values = bench.per_layer() if trace else bench.end_to_end()
        if trace and not small and values:
            coverage = statistics.median(values["trace.span_coverage"])
            if coverage < MIN_SPAN_COVERAGE:
                bench.fail(f"trace: named spans cover {coverage:.1%} of the wall time, "
                           f"under {MIN_SPAN_COVERAGE:.0%}")
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    metrics = {}
    summary = {}
    for metric, unit in metric_units:
        samples = values.get(metric, [])
        if not samples and metric in dict(PRINTED):
            continue  # a command this workload does not run
        q1, med, q3 = quartiles(samples or [0.0])
        if metric not in dict(PRINTED):
            metrics[metric] = {"value": med, "unit": unit}
        summary[metric] = {"median": med, "q1": q1, "q3": q3, "n": len(samples),
                           "unit": unit, "samples": samples}
        lines.append(f"{metric} = {med:.6g} {unit} (median of {len(samples)}; "
                     f"q1 {q1:.6g}, q3 {q3:.6g})")
    failed_share = bench.failed / bench.attempted if bench.attempted else 1.0
    lines.append(f"failed_share = {failed_share:.6g} ratio ({bench.failed} of {bench.attempted} runs)")
    if trace and bench.samples:
        lines.extend(_share_lines([s.inv for s in bench.samples[-1] if s.inv.trace]))

    results_dir = root / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    key = f"{name}:{seed}:{'small' if small else 'full'}"
    note = _record_digests(root, key, env["src_sha256"], bench.digests) if bench.digests else None
    if note and note.startswith("error"):
        bench.fail(note)
    if note:
        lines.append(note)
    lines.extend(f"failure: {e}" for e in bench.errors)

    results = {
        "workload": name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": trace, "small": small, "environment": env, "inputs": bench.inputs,
        "output_sha256": bench.digests, "metrics": summary, "failed_share": failed_share,
        "attempted": bench.attempted, "failed": bench.failed, "errors": bench.errors,
    }
    suffix = f"{'small-' if small else ''}seed{seed}-trace{int(trace)}"
    (results_dir / f"BENCH_{name}-{suffix}.json").write_text(
        json.dumps(results, indent=1, sort_keys=True), encoding="utf-8")

    result = {"correct": bench.failed == 0, "attempted": max(bench.attempted, 1),
              "failed": bench.failed, "metrics": metrics}
    return {"result": result, "lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = BENCH_DIR.parent
    if not (root / "src" / "emoscope" / "cli.py").is_file():
        print(f"error: no emoscope sources under {root / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    out = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
