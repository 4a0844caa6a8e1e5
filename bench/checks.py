"""Output checks for every benchmark invocation.

Each check raises CheckFailed with a message naming the file and the
difference; the benchmark counts the invocation as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

P_COLUMNS = ("r1_p", "r2_p", "perm_p", "dcca_p", "beta_p")
STAT_COLUMNS = ("n1", "r1", "r1_lo", "r1_hi", "r1_p", "n2", "r2", "r2_lo", "r2_hi", "r2_p",
                "n_full", "perm_p", "dcca_rho", "dcca_p", "beta", "beta_p", "kpss_stat",
                "kpss_band")
# rescaled daily values must track the planted population prevalence this closely
DEMO_RMSE_BOUND = 0.03

_COUNTS_LINE = re.compile(r"^records=(\d+) (?:parsed=(\d+) )?malformed=(\d+) filtered=(\d+) kept=(\d+)$",
                          re.MULTILINE)


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _rows(path: Path) -> list[dict[str, str]]:
    _require(path.is_file(), f"missing output {path.name}")
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_bookkeeping(counts: dict, where: str) -> None:
    """records = parsed + malformed and parsed = kept + filtered."""
    records, malformed, filtered, kept = (counts[k] for k in ("records", "malformed", "filtered", "kept"))
    parsed = counts.get("parsed", records - malformed)
    _require(records == parsed + malformed,
             f"{where}: records {records} != parsed {parsed} + malformed {malformed}")
    _require(parsed == kept + filtered,
             f"{where}: parsed {parsed} != kept {kept} + filtered {filtered}")


def _check_expected(counts: dict, expected: dict | None, where: str) -> None:
    for key, want in (expected or {}).items():
        _require(counts.get(key) == want, f"{where}: {key} = {counts.get(key)}, expected {want}")


def stdout_counts(stdout: str) -> dict:
    """The `records=... kept=...` line that signal and thirdperson print."""
    match = _COUNTS_LINE.search(stdout)
    _require(match is not None, "no records=... line on stdout")
    records, parsed, malformed, filtered, kept = match.groups()
    counts = {"records": int(records), "malformed": int(malformed),
              "filtered": int(filtered), "kept": int(kept)}
    if parsed is not None:
        counts["parsed"] = int(parsed)
    return counts


def check_signal(out: Path, stdout: str, expected_counts: dict | None = None) -> dict:
    """Manifest bookkeeping, stdout agreement and expected counts; returns the counts."""
    manifest_path = out / "manifest.json"
    _require(manifest_path.is_file(), "missing output manifest.json")
    counts = json.loads(manifest_path.read_text(encoding="utf-8"))["counts"]
    check_bookkeeping(counts, "manifest.json")
    _check_expected(counts, expected_counts, "manifest.json")
    _require(stdout_counts(stdout) == counts, "stdout counts disagree with manifest.json")
    return counts


def check_thirdperson(out: Path, stdout: str, expected_counts: dict | None = None,
                      expected_rows: dict | None = None) -> dict:
    """Counts as for signal; every lexicon row splits exactly the kept posts."""
    counts = stdout_counts(stdout)
    check_bookkeeping(counts, "thirdperson stdout")
    # thirdperson prints no parsed count; the bookkeeping check covers it
    expected = {k: v for k, v in (expected_counts or {}).items() if k != "parsed"}
    _check_expected(counts, expected, "thirdperson stdout")
    rows = {row["label"]: row for row in _rows(out / "thirdperson.csv")}
    _require("all_posts" in rows and len(rows) > 1, "thirdperson.csv lacks rows")
    kept = counts["kept"]
    for label, row in rows.items():
        n = int(row["with_n"]) + (int(row["without_n"]) if label != "all_posts" else 0)
        _require(n == kept, f"thirdperson.csv {label}: with_n + without_n = {n}, kept = {kept}")
    for label, want in (expected_rows or {}).items():
        _require(label in rows, f"thirdperson.csv has no row {label}")
        row = rows[label]
        got = tuple(int(row[k]) for k in ("with_k", "with_n", "without_k", "without_n"))
        _require(got == tuple(want), f"thirdperson.csv {label}: {got}, planted {tuple(want)}")
    return counts


def check_daily_exact(out: Path, expected: dict) -> None:
    """Daily numerators and denominators equal the planted ones exactly."""
    for (signal, stratum), days in expected.items():
        path = out / f"daily_{signal}_{stratum}.csv"
        got = {}
        for row in _rows(path):
            num, den = float(row["numerator"]), float(row["denominator"])
            _require(math.isclose(float(row["value"]), num / den, rel_tol=1e-11, abs_tol=1e-15),
                     f"{path.name} {row['date']}: value {row['value']} != {num}/{den}")
            got[row["date"]] = (num, den)
        want = {d: (float(n), float(m)) for d, (n, m) in days.items()}
        if got != want:
            diff = sorted(set(got.items()) ^ set(want.items()))[:3]
            raise CheckFailed(f"{path.name}: daily counts differ from planted truth, e.g. {diff}")


def check_daily_rmse(out: Path, truth_csv: Path, signals, bound: float = DEMO_RMSE_BOUND) -> dict:
    """Rescaled daily series track the planted population prevalence."""
    truth: dict[tuple[str, str], float] = {}
    for row in _rows(truth_csv):
        truth[(row["emotion"], row["date"])] = float(row["population"])
    rmse = {}
    for signal in signals:
        rows = _rows(out / f"daily_{signal}_rescaled.csv")
        _require(rows, f"daily_{signal}_rescaled.csv is empty")
        err = [float(r["value"]) - truth[(signal, r["date"])] for r in rows]
        rmse[signal] = math.sqrt(sum(e * e for e in err) / len(err))
        _require(rmse[signal] <= bound,
                 f"daily_{signal}_rescaled.csv: RMSE {rmse[signal]:.4f} vs truth > {bound}")
    return rmse


def check_report(out: Path, n_rows: int, strict: bool) -> list[dict]:
    """Row count and p-values in (0, 1]; strict also forbids any skipped statistic."""
    rows = _rows(out / "report.csv")
    _require(len(rows) == n_rows, f"report.csv has {len(rows)} rows, expected {n_rows}")
    for i, row in enumerate(rows, 2):
        if strict:
            missing = [c for c in STAT_COLUMNS if not row[c]]
            _require(not missing and not row["notes"],
                     f"report.csv line {i}: skipped {missing} ({row['notes']})")
        for col in P_COLUMNS:
            if row[col]:
                p = float(row[col])
                _require(0.0 < p <= 1.0, f"report.csv line {i}: {col} = {p} outside (0, 1]")
    return rows


def digest_outputs(out: Path, workspace: Path) -> dict[str, str]:
    """sha256 of every output file, with the workspace path masked so that
    digests do not depend on where the workspace lives."""
    root = str(workspace.resolve()).encode()
    digests = {}
    for path in sorted(out.iterdir()):
        if path.is_file():
            digests[path.name] = hashlib.sha256(path.read_bytes().replace(root, b"<ws>")).hexdigest()
    return digests


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
