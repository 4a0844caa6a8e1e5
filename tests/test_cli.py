"""Subcommand flows, exit codes, and end-to-end recovery of planted effects."""

import csv
import errno
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import emoscope
from emoscope.cli import main
from emoscope.config import SCHEMA, config_text, format_ini, load_config

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthetic corpus big enough for the full battery, shared
    across this module's tests (none of them mutate it)."""
    root = tmp_path_factory.mktemp("ws")
    out = root / "data"
    assert main(["synth", "--out", str(out), "--days", "120", "--posts-per-day", "2000"]) == 0
    return out


def _read_report(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestSynth:
    def test_outputs_exist(self, workspace):
        for name in ("corpus.ndjson", "truth.csv", "survey.csv", "scores.ndjson", "pipeline.ini"):
            assert (workspace / name).exists()
        assert (workspace / "lexicons" / "sadness.txt").exists()

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        again = tmp_path / "again"
        assert main(["synth", "--out", str(again), "--days", "120", "--posts-per-day", "2000"]) == 0
        for name in ("corpus.ndjson", "truth.csv", "survey.csv", "scores.ndjson"):
            assert (again / name).read_bytes() == (workspace / name).read_bytes()

    def test_bad_emotion_spec(self, tmp_path):
        code = main(
            ["synth", "--out", str(tmp_path / "x"), "--emotion", "sadness"]
        )
        assert code == 1

    def test_bad_rate(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "x"), "--male-share", "2.0"]) == 1

    # Values numpy would refuse with a traceback, some after the corpus is
    # written; every count here is refused before any draw. A step change
    # that pushes a planted rate out of (0, 1) is refused after the draws
    # of the planted truth, before --out is made.
    @pytest.mark.parametrize("flags, named", [
        (["--seed", "-1"], "seed"),
        (["--survey-seed", "-1"], "--survey-seed"),
        (["--score-seed", "-1"], "--score-seed"),
        (["--score-noise", "nan"], "--score-noise"),
        (["--score-noise", "inf"], "--score-noise"),
        (["--start", "9999-12-01", "--days", "40"], "days"),
        (["--respondents", "100000000000000000000"], "--respondents"),
        (["--posts-per-day", "100000000000000000000"], "posts_per_day"),
        (["--scores-per-day", "100000000000000000000"], "--scores-per-day"),
        (["--step", "sadness=5:0.99"], "sadness: planted prevalence leaves (0, 1)"),
    ], ids=["seed", "survey-seed", "score-seed", "score-noise-nan", "score-noise-inf",
            "start-past-9999", "respondents", "posts-per-day", "scores-per-day", "step"])
    def test_bad_flag_refused_before_writing(self, tmp_path, capsys, flags, named):
        out = tmp_path / "x"
        assert main(["synth", "--out", str(out), "--days", "14", "--posts-per-day", "5",
                     *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err
        assert not out.exists()


class TestSignal:
    def test_writes_outputs(self, workspace, tmp_path):
        out = tmp_path / "sig"
        code = main(
            ["signal", "--config", str(workspace / "pipeline.ini"), "--output", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counts"]["records"] == 240_000
        assert manifest["counts"]["kept"] == 240_000
        assert manifest["counts"]["malformed"] == 0
        assert set(manifest["matched"]) >= {"sadness", "anxiety", "positive"}
        daily = out / "daily_sadness_rescaled.csv"
        assert daily.exists()
        with open(daily, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 120
        assert all(0.0 <= float(r["value"]) <= 1.0 for r in rows)

    def test_gender_mode_override(self, workspace, tmp_path):
        out = tmp_path / "sig"
        code = main(
            [
                "signal",
                "--config",
                str(workspace / "pipeline.ini"),
                "--output",
                str(out),
                "--gender-mode",
                "stratified",
            ]
        )
        assert code == 0
        assert (out / "daily_sadness_male.csv").exists()
        assert (out / "daily_sadness_female.csv").exists()
        assert not (out / "daily_sadness_rescaled.csv").exists()

    def test_rerun_identical(self, workspace, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(
                ["signal", "--config", str(workspace / "pipeline.ini"), "--output", str(out)]
            ) == 0
        for f in sorted(a.iterdir()):
            if f.name != "manifest.json":
                assert f.read_bytes() == (b / f.name).read_bytes()
        # the manifest's effective config names the output dir, and only it differs
        ma, mb = (json.loads((out / "manifest.json").read_text(encoding="utf-8")) for out in (a, b))
        assert ma["config"].pop("output") == {"dir": str(a)}
        assert mb["config"].pop("output") == {"dir": str(b)}
        assert ma == mb

    def test_relative_output_is_taken_from_the_working_directory(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["signal", "--config", str(workspace / "pipeline.ini"),
                     "--output", "runs/out"]) == 0
        out = (tmp_path / "runs" / "out").resolve()
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["output"] == {"dir": str(out)}
        assert capsys.readouterr().out.endswith(f" to {out}\n")


@pytest.fixture(scope="module")
def report(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("val")
    code = main(
        [
            "validate",
            "--config",
            str(workspace / "pipeline.ini"),
            "--output",
            str(out),
            "--plot-data",
        ]
    )
    assert code == 0
    return out


class TestValidate:
    def test_rows_follow_config_order(self, workspace, report):
        rows = _read_report(report / "report.csv")
        got = [(r["survey_emotion"], r["signal"]) for r in rows]
        assert got == [
            ("sadness", "sadness"),
            ("anxiety", "anxiety"),
            ("positive", "positive"),
            ("sadness", "score_sadness"),
            ("anxiety", "score_anxiety"),
            ("positive", "score_positive"),
        ]

    def test_recovers_planted_correlation(self, report):
        rows = {r["signal"]: r for r in _read_report(report / "report.csv")}
        for signal in ("sadness", "anxiety", "positive"):
            row = rows[signal]
            assert float(row["r1"]) > 0.5
            # no circular shift of the signal reaches the planted r: the floor 1/n
            assert float(row["perm_p"]) == pytest.approx(1 / int(row["n_full"]), rel=1e-3)
            assert float(row["dcca_rho"]) > 0.0
            assert float(row["beta"]) > 0.0
            assert float(row["beta_p"]) < 0.05
            assert row["kpss_band"] in ("p>0.1", "p>0.05")
            assert row["notes"] == ""
            assert int(row["n1"]) + int(row["n2"]) == int(row["n_full"])

    def test_report_csv_columns(self, report):
        header = (report / "report.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == (
            "survey_emotion,signal,stratum,n1,r1,r1_lo,r1_hi,r1_p,r1_sig,"
            "n2,r2,r2_lo,r2_hi,r2_p,r2_sig,n_full,perm_p,dcca_rho,dcca_p,dcca_sig,"
            "beta,beta_p,beta_sig,kpss_stat,kpss_band,notes"
        )

    def test_report_txt_table(self, report):
        text = (report / "report.txt").read_text()
        assert "pair" in text.splitlines()[0]
        assert "sadness / score_sadness" in text

    def test_plot_data(self, report):
        with open(report / "plot_data.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        periods = {r["period"] for r in rows}
        assert periods == {"historical", "prediction"}
        sad = [
            r
            for r in rows
            if r["signal"] == "sadness" and r["stratum"] == "rescaled"
        ]
        assert len(sad) == 17  # one row per anchor
        assert all(r["survey_percent"] for r in sad)

    def test_stratified_flag_adds_rows(self, workspace, tmp_path):
        out = tmp_path / "strat"
        code = main(
            [
                "validate",
                "--config",
                str(workspace / "pipeline.ini"),
                "--output",
                str(out),
                "--stratified",
            ]
        )
        assert code == 0
        strata = {
            (r["signal"], r["stratum"]) for r in _read_report(out / "report.csv")
        }
        assert ("sadness", "rescaled") in strata
        assert ("sadness", "male") in strata
        assert ("sadness", "female") in strata
        assert ("score_sadness", "all") in strata
        # score signals carry no gender attribute, so no per-gender rows
        assert ("score_sadness", "male") not in strata

    def test_retired_keys_and_flags_are_noted_and_ignored(self, workspace, report, tmp_path,
                                                          capsys):
        """`--permutations` and `--seed`, and the same keys in [validate],
        still run, with one stderr note each, to the same report."""
        ini = tmp_path / "retired.ini"  # the workspace's config, its paths absolute
        text = format_ini(config_text(load_config(workspace / "pipeline.ini")))
        ini.write_text(text.replace("[validate]\n", "[validate]\npermutations = 10\nseed = -1\n"),
                       encoding="utf-8")
        out = tmp_path / "retired"
        capsys.readouterr()
        assert main(["validate", "--config", str(ini), "--output", str(out), "--plot-data",
                     "--permutations", "lots", "--seed", "99"]) == 0
        shifts = "is retired and ignored: p-values come from circular shifts"
        assert capsys.readouterr().err == "".join(f"note: {where} {shifts}\n" for where in (
            "--permutations", "--seed", f"{ini}: [validate] permutations",
            f"{ini}: [validate] seed"))
        for name in ("report.csv", "report.txt", "plot_data.csv"):
            assert (out / name).read_bytes() == (report / name).read_bytes()


class TestValidateDegenerate:
    def _corpus_line(self, i, day, text):
        return (
            f'{{"id":"x{i}","created_at":"{day}T12:00:00Z","text":"{text}",'
            f'"author_gender":"male","author_followers":500,"is_retweet":false}}'
        )

    def _make_workspace(self, tmp_path, text="sad day"):
        lines = []
        k = 0
        days = [f"2020-06-{d:02d}" for d in range(1, 29)]
        for day in days:
            for _ in range(5):
                lines.append(self._corpus_line(k, day, text))
                k += 1
        (tmp_path / "c.ndjson").write_text("\n".join(lines) + "\n", encoding="utf-8")
        (tmp_path / "sad.txt").write_text("sad\n", encoding="utf-8")
        anchors = [f"2020-06-{d:02d}" for d in range(7, 29, 7)]
        survey = "date,emotion,percent\n" + "".join(
            f"{a},sad,{20 + i}\n" for i, a in enumerate(anchors)
        )
        (tmp_path / "survey.csv").write_text(survey, encoding="utf-8")
        (tmp_path / "pipeline.ini").write_text(
            "[corpus]\ninput = c.ndjson\n\n"
            "[lexicons]\nsadness = sad.txt\n\n"
            "[signals]\ngender_mode = agnostic\n\n"
            "[survey]\npath = survey.csv\npairs = sad:sadness\n\n"
            "[validate]\nsplit_date = 2020-06-21\n",
            encoding="utf-8",
        )
        return tmp_path

    def test_first_line_counts_records_as_signal_does(self, tmp_path, capsys):
        ws = self._make_workspace(tmp_path)
        with open(ws / "c.ndjson", "ab") as fh:
            fh.write(b'{"id": "broken"\n')
        ini = str(ws / "pipeline.ini")
        firsts = []
        for command in ("signal", "validate"):
            capsys.readouterr()
            assert main([command, "--config", ini]) == 0
            firsts.append(capsys.readouterr().out.splitlines()[0])
        assert firsts[0] == "records=141 parsed=140 malformed=1 filtered=0 kept=140"
        assert firsts[1] == firsts[0]

    @pytest.mark.parametrize("survey, error", [
        ("path = survey.csv", "no survey/signal pairs configured ([survey] pairs)"),
        ("path = gone.csv\npairs = sad:sadness", "survey file not found: {ws}/gone.csv"),
    ], ids=["no-pairs", "no-survey-file"])
    def test_bad_survey_config_is_refused_before_the_scan(self, tmp_path, capsys, survey, error):
        ws = self._make_workspace(tmp_path)
        ini = ws / "pipeline.ini"
        text = ini.read_text(encoding="utf-8")
        ini.write_text(text.replace("path = survey.csv\npairs = sad:sadness", survey),
                       encoding="utf-8")
        (ws / "c.ndjson").unlink()  # a scan would end in its own error
        assert main(["validate", "--config", str(ini), "--output", str(ws / "fresh")]) == 1
        out, err = capsys.readouterr()
        assert "records=" not in out
        assert err == f"config error: {error.format(ws=ws)}\n"
        assert not (ws / "fresh").exists()  # refused before any output, so no directory

    def test_constant_signal_is_skipped_not_fatal(self, tmp_path, capsys):
        ws = self._make_workspace(tmp_path)  # every post matches -> fraction 1.0
        code = main(["validate", "--config", str(ws / "pipeline.ini")])
        assert code == 0
        rows = _read_report(ws / "out" / "report.csv")
        assert len(rows) == 1
        assert "skipped" in capsys.readouterr().out
        assert rows[0]["notes"] != ""
        assert rows[0]["r1"] == ""

    def test_all_posts_filtered_is_data_error(self, tmp_path):
        ws = self._make_workspace(tmp_path)
        lines = [
            line.replace('"author_followers":500', '"author_followers":5')
            for line in (ws / "c.ndjson").read_text().splitlines()
        ]
        (ws / "c.ndjson").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["validate", "--config", str(ws / "pipeline.ini")]) == 2

    def test_short_periods_marked(self, tmp_path):
        ws = self._make_workspace(tmp_path, text="plain day")
        code = main(["validate", "--config", str(ws / "pipeline.ini")])
        assert code == 0
        row = _read_report(ws / "out" / "report.csv")[0]
        assert "too short" in row["notes"]


def _set_tz_offset(ini: Path, minutes: int) -> None:
    """Set tz_offset_minutes in the [corpus] section of a synth pipeline.ini."""
    text = ini.read_text(encoding="utf-8")
    assert "\ntz_offset_minutes = 0\n" in text
    ini.write_text(text.replace("\ntz_offset_minutes = 0\n", f"\ntz_offset_minutes = {minutes}\n"))


def _assert_exits_as_main(launch: list[str], tmp_path) -> None:
    """`python <launch> ...`, in a fresh interpreter, prints synth's usage
    and exits 1 on a missing config, with the code main() returns."""
    # the directory holding the imported package, ahead of the caller's path
    env = dict(os.environ)
    package_root = str(Path(emoscope.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)

    def emoscope_cli(*args):
        return subprocess.run([sys.executable, *launch, *args],
                              capture_output=True, text=True, timeout=60, env=env)

    proc = emoscope_cli("synth", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "--posts-per-day" in proc.stdout
    # main() returns here instead of argparse exiting: its code must
    # become the process exit status.
    proc = emoscope_cli("validate", "--config", str(tmp_path / "no.ini"))
    assert proc.returncode == 1, proc.stderr
    assert "config error" in proc.stderr


class TestExitCodes:
    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate"])  # missing --config
        assert exc.value.code == 1

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", "x", "--bogus"])
        assert exc.value.code == 1

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_config(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "no.ini")]) == 1

    def test_truncated_gzip_is_data_error(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        assert main(["synth", "--out", str(ws), "--days", "20", "--posts-per-day", "50",
                     "--gzip"]) == 0
        corpus = ws / "corpus.ndjson.gz"
        data = corpus.read_bytes()
        corpus.write_bytes(data[: len(data) // 2])
        capsys.readouterr()
        assert main(["signal", "--config", str(ws / "pipeline.ini")]) == 2
        err = capsys.readouterr().err
        assert f"{corpus}:" in err
        assert "truncated gzip stream" in err

    @pytest.mark.parametrize("argv", [
        ["signal", "--config", "{ws}/pipeline.ini", "--output", "{out}"],
        ["validate", "--plot-data", "--config", "{ws}/pipeline.ini", "--output", "{out}"],
        ["synth", "--out", "{out}", "--days", "30", "--posts-per-day", "10"],
        # the compressed corpus reaches the file only as the opener closes it
        ["synth", "--gzip", "--out", "{out}", "--days", "30", "--posts-per-day", "10"],
    ], ids=["signal", "validate", "synth", "synth-gzip"])
    def test_write_error_names_the_file(self, workspace, tmp_path, argv):
        """A write past the file-size limit, set in a child process only and
        with SIGXFSZ ignored so that the write fails with EFBIG, exits 2
        naming the file it cut short."""
        out = tmp_path / "out"
        script = (
            "import resource, signal, sys\n"
            "from emoscope.cli import main\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (1500, hard))\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = dict(os.environ)
        package_root = str(Path(emoscope.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", script, *(a.format(ws=workspace, out=out) for a in argv)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 2, proc.stderr
        reason = os.strerror(errno.EFBIG)
        named = re.fullmatch(rf"error: \[Errno {errno.EFBIG}\] {reason}: '(.+)'\n", proc.stderr)
        assert named, proc.stderr
        path = Path(named[1])
        assert path.parent == out and path.stat().st_size == 1500

    def _damaged_line_run(self, tmp_path, capsys, bad: bytes, tz_offset_minutes=0):
        """Insert `bad` as line 6 of a small synth corpus and run `signal`."""
        ws = tmp_path / "ws"
        assert main(["synth", "--out", str(ws), "--days", "20", "--posts-per-day", "50"]) == 0
        corpus = ws / "corpus.ndjson"
        lines = corpus.read_bytes().splitlines(keepends=True)
        lines.insert(5, bad + b"\n")
        corpus.write_bytes(b"".join(lines))
        ini = ws / "pipeline.ini"
        _set_tz_offset(ini, tz_offset_minutes)
        capsys.readouterr()
        assert main(["signal", "--config", str(ini)]) == 0
        assert "records=1001 parsed=1000 malformed=1 " in capsys.readouterr().out
        manifest = json.loads((ws / "out" / "manifest.json").read_text(encoding="utf-8"))
        return corpus, manifest["error_samples"]

    def test_invalid_utf8_line_is_one_malformed_record(self, tmp_path, capsys):
        bad = b'{"id": "x", "text": "caf\xff"}'
        corpus, samples = self._damaged_line_run(tmp_path, capsys, bad)
        assert samples == [f"{corpus}:6: invalid UTF-8 at byte 24 (invalid start byte)"]

    def test_deeply_nested_json_is_one_malformed_record(self, tmp_path, capsys):
        corpus, samples = self._damaged_line_run(tmp_path, capsys, b"[" * 200_000)
        assert samples == [f"{corpus}:6: invalid JSON (nesting too deep)"]

    @pytest.mark.parametrize(
        "stamp, tz", [("9999-12-31T23:00:00Z", 330), ("0001-01-01T23:59:59Z", -330)]
    )
    def test_stamp_a_day_from_the_calendar_end_is_one_malformed_record(
        self, tmp_path, capsys, stamp, tz
    ):
        # shifted by the offset, such a post would fall off the calendar
        bad = json.dumps(
            {"id": "x", "created_at": stamp, "text": "sad", "author_followers": 500}
        ).encode()
        corpus, samples = self._damaged_line_run(tmp_path, capsys, bad, tz)
        assert samples == [f"{corpus}:6: created_at {stamp!r} is out of range in UTC"]
        assert main(["thirdperson", "--config", str(tmp_path / "ws" / "pipeline.ini")]) == 0

    def test_tz_offset_beyond_a_day_is_config_error(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        assert main(["synth", "--out", str(ws), "--days", "20", "--posts-per-day", "50"]) == 0
        ini = ws / "pipeline.ini"
        _set_tz_offset(ini, 10**9)
        capsys.readouterr()
        assert main(["signal", "--config", str(ini)]) == 1
        assert "tz_offset_minutes must be within -1440..1440" in capsys.readouterr().err

    def test_survey_anchor_at_the_calendar_start_is_missing(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        assert main(["synth", "--out", str(ws), "--days", "140", "--posts-per-day", "20"]) == 0
        survey = ws / "survey.csv"
        header, *rows = survey.read_text(encoding="utf-8").splitlines()
        survey.write_text("\n".join([header, "0001-01-02,sadness,5.0", *rows]) + "\n")
        ini = str(ws / "pipeline.ini")
        assert main(["signal", "--config", ini]) == 0
        weekly = (ws / "out" / "weekly_sadness_rescaled.csv").read_text(encoding="utf-8")
        assert weekly.splitlines()[1] == "0001-01-02,,0"
        assert main(["validate", "--config", ini]) == 0

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        ini = tmp_path / "pipeline.ini"
        ini.write_bytes(b"[corpus]\ninput = caf\xe9.ndjson\n")
        for command in ("signal", "thirdperson", "validate"):
            assert main([command, "--config", str(ini)]) == 1
            assert capsys.readouterr().err.startswith(f"config error: {ini}: not UTF-8 text")

    @pytest.mark.parametrize(
        "key, value",
        [("week_length", "0"), ("week_offset", "-1"), ("tz_offset_minutes", "1441"),
         ("dcca_window", "3")],
    )
    def test_bounds_hold_for_every_command_and_flag(self, tmp_path, capsys, key, value):
        ws = tmp_path / "ws"
        assert main(["synth", "--out", str(ws), "--days", "20", "--posts-per-day", "5"]) == 0
        ini = ws / "pipeline.ini"
        text = ini.read_text(encoding="utf-8")
        (ws / "bad.ini").write_text(re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text))
        capsys.readouterr()
        for command in ("signal", "thirdperson", "validate"):
            assert main([command, "--config", str(ws / "bad.ini")]) == 1
            assert f"{key} must be " in capsys.readouterr().err
        [flag] = [row.flag for row in SCHEMA if row.key == key]
        if flag is not None:
            assert main(["validate", "--config", str(ini), f"--{flag}", value]) == 1
            assert f"{key} must be " in capsys.readouterr().err

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_console_script(self, tmp_path):
        """The `emoscope` entry point declared in pyproject.toml, run in a
        fresh interpreter the way pip's generated wrapper runs it."""
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["emoscope"]
        module, func = target.split(":")
        wrapper = (
            f"import sys; from {module} import {func}; "
            f"sys.argv[0] = 'emoscope'; sys.exit({func}())"
        )
        _assert_exits_as_main(["-c", wrapper], tmp_path)

    def test_module_entry_point(self, tmp_path):
        """`python -m emoscope.cli` runs the CLI, as the console script does."""
        _assert_exits_as_main(["-m", "emoscope.cli"], tmp_path)

    @pytest.mark.skipif(
        shutil.which("emoscope") is None, reason="emoscope console script not on PATH"
    )
    def test_installed_console_script(self):
        exe = shutil.which("emoscope")
        assert exe, "console script not installed"
        proc = subprocess.run(
            [exe, "synth", "--help"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert "--posts-per-day" in proc.stdout


class TestStartup:
    def test_scan_commands_never_load_scipy(self, tmp_path):
        """No command loads scipy: importing the CLI and running `signal`,
        `thirdperson`, `validate` and `auc` load none of it. The scan, in
        shards here, loads no process pool either: multiprocessing alone
        costs more peak memory than the benchmark's bound allows."""
        ws = tmp_path / "ws"
        assert main(["synth", "--out", str(ws), "--days", "60", "--posts-per-day", "20"]) == 0
        script = (
            "import sys\n"
            "from emoscope import corpus\n"
            "from emoscope.cli import main\n"
            "corpus._MIN_SHARD_BYTES = 1\n"
            "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')[:3]\n"
            "def pools(): return [m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules]\n"
            "assert loaded() == [], ('import', loaded())\n"
            "assert main(['signal', '--config', sys.argv[1]]) == 0\n"
            "assert loaded() == [], ('signal', loaded())\n"
            "assert pools() == [], ('signal', pools())\n"
            "assert main(['thirdperson', '--config', sys.argv[1]]) == 0\n"
            "assert loaded() == [], ('thirdperson', loaded())\n"
            "assert pools() == [], ('thirdperson', pools())\n"
            "assert main(['validate', '--config', sys.argv[1]]) == 0\n"
            "assert loaded() == [], ('validate', loaded())\n"
            "assert 'numpy.random' not in sys.modules, 'validate loaded numpy.random'\n"
            "assert main(['auc', '--scores', sys.argv[2], '--labels', sys.argv[3],\n"
            "             '--output', sys.argv[4]]) == 0\n"
            "assert loaded() == [], ('auc', loaded())\n"
        )
        labels = tmp_path / "labels.csv"
        with open(ws / "scores.ndjson", encoding="utf-8") as fh:
            ids = [json.loads(line)["id"] for line in fh][:40]
        labels.write_text(
            "id,emotion,label\n" + "".join(f"{i},sadness,{k % 2}\n" for k, i in enumerate(ids)),
            encoding="utf-8",
        )
        env = dict(os.environ)
        package_root = str(Path(emoscope.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(ws / "pipeline.ini"), str(ws / "scores.ndjson"),
             str(labels), str(tmp_path / "auc")],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr

    def test_scan_commands_never_load_numpy(self, tmp_path):
        """Importing the package and the CLI and running `signal` and
        `thirdperson`, their scans in shards, load no numpy: with numpy
        blocked they write the same bytes as with it available."""
        ws = tmp_path / "ws"
        assert main(["synth", "--out", str(ws), "--days", "60", "--posts-per-day", "20"]) == 0
        script = (
            "import sys\n"
            "if sys.argv[1] == 'blocked':\n"
            "    sys.modules['numpy'] = None  # any import of it raises ImportError\n"
            "import emoscope\n"
            "from emoscope import corpus\n"
            "from emoscope.cli import main\n"
            "corpus._MIN_SHARD_BYTES = 1\n"
            "corpus._usable_cpus = lambda: 3\n"
            "for command in ('signal', 'thirdperson'):\n"
            "    assert main([command, '--config', sys.argv[2], '--output', sys.argv[3]]) == 0\n"
            "assert sys.modules.get('numpy') is None, 'numpy loaded'\n"
        )
        env = dict(os.environ)
        package_root = str(Path(emoscope.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
        out = tmp_path / "out"
        runs = []
        for mode in ("blocked", "free"):
            proc = subprocess.run(
                [sys.executable, "-c", script, mode, str(ws / "pipeline.ini"), str(out)],
                capture_output=True, text=True, timeout=120, env=env,
            )
            assert proc.returncode == 0, (mode, proc.stderr)
            runs.append((proc.stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
            shutil.rmtree(out)
        assert "thirdperson.csv" in runs[0][1] and "manifest.json" in runs[0][1]
        assert runs[0] == runs[1]


class TestThirdPerson:
    def test_planted_pronoun_contrast(self, tmp_path, capsys):
        data = tmp_path / "data"
        code = main(
            [
                "synth",
                "--out",
                str(data),
                "--days",
                "10",
                "--posts-per-day",
                "5000",
                "--pronoun-rate",
                "0.1",
                "--pronoun-rate-emotional",
                "0.2",
            ]
        )
        assert code == 0
        out = tmp_path / "tp"
        code = main(
            [
                "thirdperson",
                "--config",
                str(data / "pipeline.ini"),
                "--output",
                str(out),
            ]
        )
        assert code == 0
        with open(out / "thirdperson.csv", newline="") as fh:
            rows = {r["label"]: r for r in csv.DictReader(fh)}
        assert float(rows["all_posts"]["frac_with"]) == pytest.approx(0.12, abs=0.02)
        for emotion in ("sadness", "anxiety", "positive"):
            row = rows[emotion]
            assert float(row["frac_with"]) == pytest.approx(0.2, abs=0.03)
            assert float(row["frac_without"]) == pytest.approx(0.1, abs=0.03)
            assert float(row["pct_difference"]) == pytest.approx(100.0, abs=35.0)
            assert float(row["p"]) < 0.0001

    def test_counts_mode_reproduces_published_table(self, tmp_path):
        counts = tmp_path / "counts.csv"
        n = 1_000_000
        with open(counts, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["label", "with_k", "with_n", "without_k", "without_n"])
            writer.writerow(["anxiety", round(0.293 * n), n, round(0.167 * n), n])
            writer.writerow(["sad", round(0.27 * n), n, round(0.1666 * n), n])
            writer.writerow(["positive", round(0.203 * n), n, round(0.15 * n), n])
        out = tmp_path / "tp"
        assert main(["thirdperson", "--counts", str(counts), "--output", str(out)]) == 0
        with open(out / "thirdperson.csv", newline="") as fh:
            rows = {r["label"]: r for r in csv.DictReader(fh)}
        assert float(rows["anxiety"]["pct_difference"]) == pytest.approx(75.4, abs=0.1)
        assert float(rows["sad"]["pct_difference"]) == pytest.approx(62.1, abs=0.1)
        assert float(rows["positive"]["pct_difference"]) == pytest.approx(35.3, abs=0.1)
        for row in rows.values():
            assert float(row["p"]) < 0.0001

    def test_counts_short_row_reads_missing_cells_as_empty(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text("with_k,with_n,without_k,without_n,label\n1,2,3,4\n", encoding="utf-8")
        out = tmp_path / "tp"
        assert main(["thirdperson", "--counts", str(counts), "--output", str(out)]) == 0
        with open(out / "thirdperson.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["label"] == ""
        assert (row["with_k"], row["with_n"], row["without_k"], row["without_n"]) == ("1", "2", "3", "4")
        assert capsys.readouterr().out.splitlines()[2].split() == [
            "0.5000", "0.7500", "-33.3%", "0.54(n.s.)"]

    @pytest.mark.parametrize("counts", ["-1,2,3,4", "1,-2,0,4", "1,2,3,-4", "3,2,3,4", "1,2,5,4"])
    def test_counts_outside_zero_to_n_are_refused(self, tmp_path, capsys, counts):
        path = tmp_path / "counts.csv"
        path.write_text(f"label,with_k,with_n,without_k,without_n\nsad,{counts}\n", encoding="utf-8")
        out = tmp_path / "tp"
        assert main(["thirdperson", "--counts", str(path), "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}:2: counts must satisfy 0 <= k <= n\n"
        assert not (out / "thirdperson.csv").exists()

    def test_counts_errors_name_the_physical_line(self, tmp_path, capsys):
        """A quoted label holding a newline spans lines 2-3; the bad row
        after it starts on line 4, past a blank line 5 too."""
        path = tmp_path / "counts.csv"
        head = 'label,with_k,with_n,without_k,without_n\n"multi\nline",1,2,3,4\n'
        for tail, line in (("sad,x,2,3,4\n", 4), ("sad,1,2,3,4\n\nbad,5,2,3,4\n", 6)):
            path.write_text(head + tail, encoding="utf-8")
            assert main(["thirdperson", "--counts", str(path), "--output", str(tmp_path)]) == 2
            assert capsys.readouterr().err.startswith(f"error: {path}:{line}: ")

    def test_requires_exactly_one_source(self, tmp_path):
        assert main(["thirdperson"]) == 1
        assert (
            main(["thirdperson", "--config", "a.ini", "--counts", "b.csv"]) == 1
        )


class TestAuc:
    def test_known_auc(self, tmp_path):
        scores = tmp_path / "s.ndjson"
        lines = [
            {"id": "a", "date": "2020-01-01", "scores": {"sad": 0.1}},
            {"id": "b", "date": "2020-01-01", "scores": {"sad": 0.4}},
            {"id": "c", "date": "2020-01-01", "scores": {"sad": 0.35}},
            {"id": "d", "date": "2020-01-01", "scores": {"sad": 0.8}},
        ]
        scores.write_text(
            "".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8"
        )
        labels = tmp_path / "l.csv"
        labels.write_text(
            "id,emotion,label\na,sad,0\nb,sad,0\nc,sad,1\nd,sad,1\n", encoding="utf-8"
        )
        out = tmp_path / "auc"
        assert main(
            ["auc", "--scores", str(scores), "--labels", str(labels), "--output", str(out)]
        ) == 0
        with open(out / "auc.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["emotion"] == "sad"
        assert float(rows[0]["auc"]) == pytest.approx(0.75)
        curve = (out / "roc_sad.csv").read_text().splitlines()
        assert curve[0] == "fpr,tpr,threshold"
        assert len(curve) > 2

    def test_labels_follow_the_csv_input_rules(self, tmp_path, capsys):
        """The labels file is read as the survey and --counts are: header
        names matched with case and surrounding spaces aside, in any
        order, rows of blank cells skipped, and a bad row or header a
        data error (exit 2) naming the file and the row's line."""
        scores = tmp_path / "s.ndjson"
        scores.write_text("".join(
            json.dumps({"id": i, "date": "2020-01-01", "scores": {"sad": v}}) + "\n"
            for i, v in (("a", 0.1), ("b", 0.4), ("c", 0.35), ("d", 0.8))), encoding="utf-8")
        labels = tmp_path / "l.csv"
        argv = ["auc", "--scores", str(scores), "--labels", str(labels),
                "--output", str(tmp_path / "auc")]
        rows = "0,a,sad\n0,b,sad\n , ,\n1,c,sad\n1,d,sad\n"
        labels.write_text(" Label,ID ,Emotion\n" + rows, encoding="utf-8")
        assert main(argv) == 0
        assert "sad: AUC = 0.7500 (n=4, missing scores=0)" in capsys.readouterr().out
        labels.write_text("label,id,emotion\n" + rows.replace("1,c", "x,c"), encoding="utf-8")
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {labels}:5: label must be 0 or 1, got 'x'\n"
        labels.write_text("label,post,emotion\n" + rows, encoding="utf-8")
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {labels}: header must name the columns emotion, id, label\n")

    def test_score_bookkeeping(self, tmp_path, capsys):
        # one broken line and one score outside [0, 1]: both are counted,
        # and the out-of-range score is not ranked
        scores = tmp_path / "s.ndjson"
        scores.write_text(
            '{"id": "a", "date": "2020-01-01", "scores": {"sad": 0.2}}\n'
            '{"id": "b", "date": "2020-01-01", "scores": {"sad": 0.9}}\n'
            '{"id": "c", "date": "2020-01-01", "scores": {"sad": 7}}\n'
            '{"id": "d", "date": \n',
            encoding="utf-8",
        )
        labels = tmp_path / "l.csv"
        labels.write_text("id,emotion,label\na,sad,0\nb,sad,1\nc,sad,1\n", encoding="utf-8")
        out = tmp_path / "auc"
        assert main(
            ["auc", "--scores", str(scores), "--labels", str(labels), "--output", str(out)]
        ) == 0
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[0] == "records=4 parsed=3 malformed=1 rejected_values=1 duplicate_ids=0"
        assert stdout[1] == "sad: AUC = 1.0000 (n=2, missing scores=1)"
        with open(out / "auc.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert (row["n"], row["missing_scores"]) == ("2", "1")

    def test_duplicate_ids_are_counted(self, tmp_path, capsys):
        # id a is scored twice: the repeat is counted and the last score ranks
        scores = tmp_path / "s.ndjson"
        scores.write_text(
            '{"id": "a", "date": "2020-01-01", "scores": {"sad": 0.9}}\n'
            '{"id": "b", "date": "2020-01-01", "scores": {"sad": 0.5}}\n'
            '{"id": "a", "date": "2020-01-02", "scores": {"sad": 0.1}}\n',
            encoding="utf-8",
        )
        labels = tmp_path / "l.csv"
        labels.write_text("id,emotion,label\na,sad,1\nb,sad,0\n", encoding="utf-8")
        assert main(
            ["auc", "--scores", str(scores), "--labels", str(labels),
             "--output", str(tmp_path / "auc")]
        ) == 0
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[0] == "records=3 parsed=3 malformed=0 rejected_values=0 duplicate_ids=1"
        assert stdout[1] == "sad: AUC = 0.0000 (n=2, missing scores=0)"

    def test_synth_scores_detect_high_days(self, workspace, tmp_path):
        # label each day by whether the planted sadness truth is above its
        # median; per-record noisy scores should separate the classes
        with open(workspace / "truth.csv", newline="") as fh:
            truth_rows = [r for r in csv.DictReader(fh) if r["emotion"] == "sadness"]
        pops = sorted(float(r["population"]) for r in truth_rows)
        median = pops[len(pops) // 2]
        day_label = {
            r["date"]: int(float(r["population"]) > median) for r in truth_rows
        }
        labels = tmp_path / "labels.csv"
        with open(labels, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "emotion", "label"])
            with open(workspace / "scores.ndjson", encoding="utf-8") as scores:
                for line in scores:
                    rec = json.loads(line)
                    writer.writerow([rec["id"], "sadness", day_label[rec["date"]]])
        out = tmp_path / "auc"
        code = main(
            [
                "auc",
                "--scores",
                str(workspace / "scores.ndjson"),
                "--labels",
                str(labels),
                "--output",
                str(out),
            ]
        )
        assert code == 0
        with open(out / "auc.csv", newline="") as fh:
            auc = float(next(iter(csv.DictReader(fh)))["auc"])
        assert 0.55 < auc <= 1.0

    def test_single_class_is_data_error(self, tmp_path):
        scores = tmp_path / "s.ndjson"
        scores.write_text(
            json.dumps({"id": "a", "date": "2020-01-01", "scores": {"sad": 0.5}}) + "\n",
            encoding="utf-8",
        )
        labels = tmp_path / "l.csv"
        labels.write_text("id,emotion,label\na,sad,1\n", encoding="utf-8")
        assert main(
            ["auc", "--scores", str(scores), "--labels", str(labels),
             "--output", str(tmp_path / "o")]
        ) == 2

    def test_unknown_emotion_requested(self, tmp_path):
        scores = tmp_path / "s.ndjson"
        scores.write_text(
            json.dumps({"id": "a", "date": "2020-01-01", "scores": {"sad": 0.5}}) + "\n",
            encoding="utf-8",
        )
        labels = tmp_path / "l.csv"
        labels.write_text("id,emotion,label\na,sad,1\n", encoding="utf-8")
        code = main(
            ["auc", "--scores", str(scores), "--labels", str(labels),
             "--emotions", "joy", "--output", str(tmp_path / "o")]
        )
        assert code == 1


# The bytes of every CSV the CLI writes, on one small workspace. Amplitude
# 0 plants constant rates, so truth.csv holds exact sums of its base rates
# rather than tanh values, whose last bit may depend on the CPU.
PINNED_CSV = {
    "out/auc/auc.csv": "f6f723f3581b3c47dcb30559c1eca48e72a2de5538986dfd6564ce28d021923b",
    "out/auc/roc_anxiety.csv": "78d28368a53658411a249a9c81af9d8c0e85829c2c621671136173c6fd3f5d1c",
    "out/auc/roc_sadness.csv": "807b50ed3224c0a964558380e58b5c2dba6ba771cad0507fa2d476d5e6440fd6",
    "out/counts/thirdperson.csv": "82687e6a4b57738bbf27cbcdcb7373dab37cb16cc64bd07ca4531ad230a5b187",
    "out/signal/daily_anxiety_rescaled.csv": "730d8aebdca2e9bdb3a31b7e7c2916797eb9e68ce92706631e5fc76128396c54",
    "out/signal/daily_positive_rescaled.csv": "48fe27795788b9b8489ed72057ba3f8c1063b7feac5ff6293efaac49a1d878c7",
    "out/signal/daily_sadness_rescaled.csv": "a911693b8d046079bf4e70d46e5a2cf5199daa9fcd7ae180e107a983b45e3266",
    "out/signal/daily_score_anxiety_all.csv": "0527464b33eff69a198a1a1426d60d53259073e8fb075633634de0d54f89f01d",
    "out/signal/daily_score_positive_all.csv": "edf627b9518ce7da8b04f57485af823a587b7951dab117d2ee168c19b8374be9",
    "out/signal/daily_score_sadness_all.csv": "610d701fbd78174b12fcdb58b2806ff9e037614eed4a085ce41eb91f59e36fbb",
    "out/signal/weekly_anxiety_rescaled.csv": "43a0a74da64466cd09a72c3fe796d9fed1186edb92325ca43c5d35b383b39776",
    "out/signal/weekly_positive_rescaled.csv": "d38bbcfe02ebed3e84c753723a4659d5857e84e5a58be082e690f694d8fa1017",
    "out/signal/weekly_sadness_rescaled.csv": "cbcde89b5c6208247fd75f85d607eadba9f225060438a1fab33a97ef4bc98d5e",
    "out/signal/weekly_score_anxiety_all.csv": "061f55cb8e171b8a4c63d9f546534a3d36ee9c35c8c59b1899066e239482534c",
    "out/signal/weekly_score_positive_all.csv": "dd1c2ad7d0876181777210fbb54295235065c7ea4685e891505c6967af0aa223",
    "out/signal/weekly_score_sadness_all.csv": "8ed6b7bfe893e979f668c89234d0f48afaac8073696f508a6657a74b50cf9829",
    "out/thirdperson/thirdperson.csv": "50b8bcd0da9d528d6d7b2317d6bc4badba652fd30ee578afb42d5199e25faf20",
    "out/validate/plot_data.csv": "cb45c1983e76dd953b4458c3aaaa49e094d2432150e2eadfff630639397dc3d0",
    "out/validate/report.csv": "c422297f673530a5df13ab6ccbf279b091262c1b6ba7720156a0092313e7d5cc",
    "ws/survey.csv": "2c3b6dbaec478ad6c115953e12b984ef7b2e1b5409a7456c029b09a69aacdc80",
    "ws/truth.csv": "eedb98a4763270f1bb2a1a9b4ec5b6c8160c1e0e3ad4dac26e62784b827f86b6",
}
# The text table of validate, the same rows formatted by format_report_table.
PINNED_TEXT = {
    "out/validate/report.txt": "3fab5535d68c32157a29f70c023117972f46c45eb8cdc6c35bd1745d48504fe9",
}


@pytest.fixture(scope="module")
def pinned_outputs(tmp_path_factory):
    """{relative path: sha256} of every CSV written by synth, signal,
    validate --plot-data, thirdperson (both modes) and auc, and of
    validate's report.txt."""
    root = tmp_path_factory.mktemp("pinned")
    ws, out = root / "ws", root / "out"
    assert main(["synth", "--out", str(ws), "--days", "175", "--posts-per-day", "6", "--seed", "3",
                 "--amplitude", "0", "--decoy-fraction", "0.1", "--scores-per-day", "3"]) == 0
    ini = str(ws / "pipeline.ini")
    assert main(["signal", "--config", ini, "--output", str(out / "signal")]) == 0
    assert main(["validate", "--config", ini, "--stratified", "--plot-data", "--output",
                 str(out / "validate")]) == 0
    assert main(["thirdperson", "--config", ini, "--output", str(out / "thirdperson")]) == 0
    counts = root / "counts.csv"
    counts.write_text("label,with_k,with_n,without_k,without_n\nsad,5,40,12,300\n"
                      "nomatch,0,0,3,10\nnorest,2,9,0,0\nsame,4,4,7,7\n", encoding="utf-8")
    assert main(["thirdperson", "--counts", str(counts), "--output", str(out / "counts")]) == 0
    labels = root / "labels.csv"
    with open(ws / "scores.ndjson", encoding="utf-8") as fh:
        ids = [json.loads(line)["id"] for line in fh][:60]
    labels.write_text("id,emotion,label\n" + "".join(
        f"{i},sadness,{k % 3 == 0:d}\n{i},anxiety,{k % 2:d}\n{i},positive,1\n"
        for k, i in enumerate(ids)), encoding="utf-8")
    assert main(["auc", "--scores", str(ws / "scores.ndjson"), "--labels", str(labels),
                 "--output", str(out / "auc")]) == 0
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted([*root.rglob("*.csv"), out / "validate" / "report.txt"])
        if path not in (counts, labels)
    }


def test_csv_output_bytes_pinned(pinned_outputs):
    assert pinned_outputs == {**PINNED_CSV, **PINNED_TEXT}


def _other_interpreters() -> list[str]:
    """pyenv's CPython versions from 3.11 on, other than this interpreter's."""
    pyenv = shutil.which("pyenv")
    if pyenv is None:
        return []
    listed = subprocess.run([pyenv, "versions", "--bare"], capture_output=True, text=True,
                            timeout=60).stdout.split()
    this = ".".join(map(str, sys.version_info[:3]))
    return [v for v in listed
            if (m := re.fullmatch(r"3\.(\d+)\.\d+", v)) and int(m[1]) >= 11 and v != this]


def test_other_interpreters_write_the_same_bytes(tmp_path):
    """`signal` and `thirdperson` under every other interpreter pyenv holds
    (chosen with PYENV_VERSION) print and write the same bytes as under
    this one. Each run writes to the same --output, moved aside after it,
    so even the output dir in manifest.json must match."""
    versions = _other_interpreters()
    if not versions:
        pytest.skip("no pyenv, or no other Python 3.11+ under it")
    ws = tmp_path / "ws"
    assert main(["synth", "--out", str(ws), "--days", "40", "--posts-per-day", "30"]) == 0
    env = dict(os.environ)
    package_root = str(Path(emoscope.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    out = tmp_path / "out"

    def run(python: list[str], version: str) -> tuple[list[str], dict[str, bytes]]:
        stdout = []
        for command in ("signal", "thirdperson"):
            proc = subprocess.run(
                [*python, "-m", "emoscope.cli", command, "--config", str(ws / "pipeline.ini"),
                 "--output", str(out)],
                capture_output=True, timeout=120, env=dict(env, PYENV_VERSION=version),
            )
            assert proc.returncode == 0, (version, command, proc.stderr)
            stdout.append(proc.stdout)
        written = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        out.rename(tmp_path / f"out-{version}")
        return stdout, written

    here = run([sys.executable], ".".join(map(str, sys.version_info[:3])))
    assert "manifest.json" in here[1] and "thirdperson.csv" in here[1]
    for version in versions:
        assert run(["pyenv", "exec", "python"], version) == here, version
