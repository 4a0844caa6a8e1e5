"""The three benchmark workloads: how each builds its workspace, which CLI
commands make up one cycle, and how each invocation's outputs are checked.

The scan workloads run `signal` then `thirdperson`; validate-battery runs
`validate`. Every command reads the whole corpus once, so posts per second
is defined on all three. The workspace shape decides which layer does the
work.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import checks
import wild

SYNTH_EMOTIONS = ("sadness", "anxiety", "positive")


@dataclass(frozen=True)
class SynthShape:
    days: int
    posts_per_day: int
    scores_per_day: int
    decoy_fraction: float


class SynthWorkload:
    """A workspace written by `emoscope synth` (demo lexicons, 20 filler words)."""

    def __init__(self, name: str, why: str, shape: SynthShape,
                 validate_args: tuple[str, ...] = (), report_rows: int = 0,
                 strict_report: bool = False, rmse_check: bool = False):
        self.name = name
        self.why = why
        self.shape = shape
        self.validate_args = validate_args
        self.report_rows = report_rows
        self.strict_report = strict_report
        self.rmse_check = rmse_check

    @property
    def records(self) -> int:
        return self.shape.days * self.shape.posts_per_day

    def commands(self) -> list[tuple[str, ...]]:
        if self.validate_args:
            return [("validate", *self.validate_args)]
        return [("signal",), ("thirdperson",)]

    def setup(self, invoke, ws: Path, seed: int) -> None:
        s = self.shape
        invoke(["synth", "--out", str(ws), "--days", str(s.days),
                "--posts-per-day", str(s.posts_per_day), "--scores-per-day", str(s.scores_per_day),
                "--decoy-fraction", repr(s.decoy_fraction), "--seed", str(seed),
                "--survey-seed", str(seed), "--score-seed", str(seed)])

    def add_inputs(self, ws: Path, seed: int) -> bool:
        return False  # emoscope synth wrote every input

    def expected_counts(self) -> dict:
        records = self.records
        filtered = int(round(self.shape.decoy_fraction * records))
        return {"records": records, "parsed": records, "malformed": 0,
                "filtered": filtered, "kept": records - filtered}

    def check(self, command: str, ws: Path, stdout: str) -> dict:
        out = ws / "out"
        expected = self.expected_counts()
        if command == "signal":
            counts = checks.check_signal(out, stdout, expected)
            if self.rmse_check:
                checks.check_daily_rmse(out, ws / "truth.csv", SYNTH_EMOTIONS)
            return counts
        if command == "thirdperson":
            return checks.check_thirdperson(out, stdout, expected)
        checks.check_report(out, self.report_rows, self.strict_report)
        return {}


class WildWorkload:
    """A workspace written by the benchmark's own generator with planted truth."""

    def __init__(self, name: str, why: str, shape: wild.WildShape):
        self.name = name
        self.why = why
        self.shape = shape
        self.truth: wild.WildTruth | None = None

    @property
    def records(self) -> int:
        return self.shape.days * self.shape.posts_per_day

    def commands(self) -> list[tuple[str, ...]]:
        return [("signal",), ("thirdperson",)]

    def setup(self, invoke, ws: Path, seed: int) -> None:
        # emoscope writes the lexicons, beside a one-week synth corpus that
        # the scan's input glob does not match
        invoke(["synth", "--out", str(ws), "--days", "7", "--posts-per-day", "1",
                "--scores-per-day", "1", "--seed", str(seed)])

    def add_inputs(self, ws: Path, seed: int) -> bool:
        """The benchmark's own corpus and config, written once after set-up."""
        self.truth = wild.generate(ws, seed, self.shape)
        return True

    def check(self, command: str, ws: Path, stdout: str) -> dict:
        out = ws / "out"
        truth = self.truth
        if command == "signal":
            counts = checks.check_signal(out, stdout, truth.counts)
            checks.check_daily_exact(out, truth.daily)
            return counts
        return checks.check_thirdperson(out, stdout, truth.counts, truth.thirdperson)


WHY = {
    "scan-demo": "emoscope synth corpus with 20 filler words and ~5 tokens per post: "
                 "corpus parsing and lexicon matching dominate, best case for a token memo",
    "scan-wild": "gzip corpus with 50k+ Zipf word types, URLs, report phrases, mixed "
                 "timestamps and bad lines: the same scan layers on realistic text",
    "validate-battery": "three years of days, 12 report rows at 10,000 permutations: the "
                        "DCCA permutation loop in stats dominates, the scan is small",
}


def make(name: str, small: bool = False):
    """The named workload; small=True shrinks it for the smoke tests."""
    if name == "scan-demo":
        shape = (SynthShape(100, 20, 5, 0.05) if small
                 else SynthShape(days=120, posts_per_day=1000, scores_per_day=200,
                                 decoy_fraction=0.05))
        return SynthWorkload(name, WHY[name], shape, rmse_check=not small)
    if name == "scan-wild":
        shape = (wild.WildShape(days=100, posts_per_day=15, vocabulary=2_000) if small
                 else wild.WildShape(days=100, posts_per_day=360, vocabulary=60_000))
        return WildWorkload(name, WHY[name], shape)
    if name == "validate-battery":
        shape = (SynthShape(140, 10, 5, 0.0) if small
                 else SynthShape(days=1092, posts_per_day=60, scores_per_day=20,
                                 decoy_fraction=0.0))
        perms = "1000" if small else "10000"
        return SynthWorkload(name, WHY[name], shape, ("--stratified", "--permutations", perms),
                             report_rows=12, strict_report=not small, rmse_check=False)
    raise KeyError(name)


NAMES = tuple(WHY)
