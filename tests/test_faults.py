"""Fault model of the NDJSON readers: whatever bytes a post or score file
holds, reading it ends as counted malformed lines or as a RecordError that
names the file and the line. Nothing else may escape."""

import contextlib
import csv
import gzip
import io
import json
import re
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from emoscope import corpus
from emoscope.cli import main
from emoscope.config import SCHEMA, expand_inputs, load_config
from emoscope.corpus import FilterConfig, StreamCounts, stream_posts
from emoscope.errors import RecordError
from emoscope.signals import ScoreCounts, stream_scores


def _dumps(rec, ascii_only):
    return json.dumps(rec, ensure_ascii=ascii_only).encode("utf-8")


POST = st.builds(
    _dumps,
    st.fixed_dictionaries(
        {
            "id": st.one_of(st.text(max_size=4), st.integers()),
            "created_at": st.sampled_from(
                ["2020-03-01T12:30:45Z", "2020-03-01T23:59:59+02:00",
                 "2020-03-01T00:00:00.250z", "2020-03-01 08:00:00", "yesterday", 5,
                 "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"]
            ),
            "text": st.text(max_size=20),
            "author_gender": st.sampled_from(["male", "female", "other"]),
            "author_followers": st.one_of(st.integers(-5, 200_000), st.floats(0, 1e6)),
            "is_retweet": st.one_of(st.booleans(), st.just("no")),
        }
    ),
    st.booleans(),
)
SCORE = st.builds(
    _dumps,
    st.fixed_dictionaries(
        {
            "id": st.integers(0, 99),
            "date": st.sampled_from(["2020-03-01", "2020-13-01", "03/01/2020"]),
            "scores": st.dictionaries(
                st.sampled_from(["sad", "joy"]),
                st.one_of(st.floats(allow_nan=True), st.text(max_size=2),
                          st.sampled_from([7, 10**400, -(10**400)])),
                max_size=2,
            ),
        }
    ),
    st.booleans(),
)
INVALID_UTF8 = st.builds(
    lambda head, bad, tail: head + bad + tail,
    st.binary(max_size=12),
    st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80abc", b"\xf4\x90\x80\x80"]),
    st.binary(max_size=12),
)
# beyond the decoder's recursion limit, and beyond the integer digit limit
EXTREME = st.sampled_from(
    [b"[" * 200_000, b'{"a":' * 50_000, b"[" * 5_000 + b"]" * 5_000, b'{"id": ' + b"7" * 5_000 + b"}"]
)
BLANK = st.sampled_from([b"", b"  ", b"\t\r", "\u3000".encode("utf-8")])
LINE = st.one_of(POST, SCORE, st.binary(max_size=40), INVALID_UTF8, EXTREME, BLANK)

# a .gz file cut at a fraction of its length, or one byte xor-ed at one
DAMAGE = st.one_of(
    st.none(),
    st.tuples(st.just("cut"), st.floats(0, 1)),
    st.tuples(st.just("flip"), st.floats(0, 1), st.integers(1, 255)),
)


def _damage(data: bytes, damage) -> bytes:
    if damage is None:
        return data
    at = min(int(damage[1] * len(data)), len(data) - 1)
    if damage[0] == "cut":
        return data[:at]
    return data[:at] + bytes([data[at] ^ damage[2]]) + data[at + 1 :]


def _records(data: bytes) -> int:
    """Non-blank lines, split at b'\\n' only; a line that is not UTF-8 is never blank."""
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    n = 0
    for line in lines:
        try:
            blank = line.decode("utf-8").isspace() or not line
        except UnicodeDecodeError:
            blank = False
        n += not blank
    return n


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(LINE, max_size=10),
    gz=st.booleans(),
    damage=DAMAGE,
    reader=st.sampled_from(["posts", "scores"]),
)
def test_any_bytes_end_as_malformed_lines_or_a_located_record_error(lines, gz, damage, reader):
    data = b"".join(line + b"\n" for line in lines)
    errors: list[RecordError] = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / ("input.ndjson.gz" if gz else "input.ndjson")
        path.write_bytes(_damage(gzip.compress(data, mtime=0), damage) if gz else data)
        if reader == "posts":
            counts = StreamCounts()
            stream = stream_posts([path], FilterConfig(), counts, errors.append)
        else:
            counts = ScoreCounts()
            stream = stream_scores(path, counts, errors.append)
        try:
            out = list(stream)
        except RecordError as err:
            # only a damaged .gz stops a stream, and the error says where
            assert gz and damage is not None
            assert err.source == str(path)
            assert isinstance(err.line_no, int) and err.line_no >= 1
            assert str(err).startswith(f"{path}:{err.line_no}: ")
            return

    assert counts.records == counts.parsed + counts.malformed
    assert counts.parsed == counts.kept + counts.dropped
    assert counts.kept == len(out)
    assert counts.malformed == len(errors)
    if reader == "scores":
        assert counts.dropped == 0
    for err in errors:
        assert str(err).startswith(f"{path}:{err.line_no}: ")
    if not gz or damage is None:
        assert counts.records == _records(data)


# The whole CLI on such bytes: `signal`, `thirdperson` and `validate` over
# one to three corpus files, the scan forced into shards (one process per
# shard group) and again in one process. Both runs must end alike, byte for
# byte. `validate` runs the synth config's 1,000 permutations, the fewest
# the config allows.


@pytest.fixture(scope="module")
def lexicon_workspace(tmp_path_factory):
    """Lexicons, scores and survey of a tiny synth run; corpora come per test."""
    ws = tmp_path_factory.mktemp("lexicons")
    args = ["synth", "--out", str(ws), "--days", "7", "--posts-per-day", "2",
            "--scores-per-day", "2"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0
    return ws


def _signal_ini(ws: Path, corpus_dir: Path) -> Path:
    """The synth pipeline.ini, reading corpus_dir/corpus-* and ws's other files."""
    text = (ws / "pipeline.ini").read_text(encoding="utf-8")
    text = text.replace("input = corpus.ndjson", f"input = {corpus_dir / 'corpus-*'}")
    for name in ("lexicons/", "scores.ndjson", "survey.csv"):
        text = text.replace(f" {name}", f" {ws}/{name}")
    ini = corpus_dir / "pipeline.ini"
    ini.write_text(text, encoding="utf-8")
    return ini


def _write_corpus(corpus_dir: Path, files) -> None:
    for i, (lines, gz, damage) in enumerate(files):
        data = b"".join(line + end for line, end in lines)
        path = corpus_dir / (f"corpus-{i}.ndjson" + (".gz" if gz else ""))
        path.write_bytes(_damage(gzip.compress(data, mtime=0), damage) if gz else data)


def _run(command: str, ini: Path, out: Path, sharded: bool):
    """(exit code, stdout, stderr, {file name: bytes}) of one command, its
    scan split into up to three shard groups or kept in one process."""
    with mock.patch.object(corpus, "_MIN_SHARD_BYTES", 1 if sharded else 1 << 62), \
            mock.patch.object(corpus, "_usable_cpus", lambda: 3), \
            contextlib.redirect_stdout(io.StringIO()) as std, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main([command, "--config", str(ini), "--output", str(out)])
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
    return code, std.getvalue(), err.getvalue(), files


def _stdout_counts(stdout: str) -> dict[str, int]:
    """The first line's records=... malformed=... counts."""
    return {k: int(v) for k, v in re.findall(r"(\w+)=(\d+)", stdout.partition("\n")[0])}


def _assert_same_runs(ini: Path, tmp: Path, command: str = "signal"):
    # one output dir for both runs: the manifest's effective config names it
    sharded = _run(command, ini, tmp / "out", sharded=True)
    shutil.rmtree(tmp / "out", ignore_errors=True)
    single = _run(command, ini, tmp / "out", sharded=False)
    assert sharded == single
    code, stdout, stderr, files = single
    assert code in (0, 1, 2)
    if code:
        assert stderr.startswith("config error: " if code == 1 else "error: ")
        return single
    if command == "signal":
        counts = json.loads(files["manifest.json"])["counts"]
    else:
        counts = _stdout_counts(stdout)
    parsed = counts["records"] - counts["malformed"]  # thirdperson prints no parsed=
    assert counts.get("parsed", parsed) == parsed == counts["kept"] + counts["filtered"]
    if command == "thirdperson":
        for row in csv.DictReader(io.StringIO(files["thirdperson.csv"].decode())):
            if row["label"] != "all_posts":  # the baseline row has no without_n
                assert int(row["with_n"]) + int(row["without_n"]) == counts["kept"]
    return single


def _post_line(i: int) -> bytes:
    """A post that the filter keeps, without its newline."""
    return json.dumps({"id": str(i), "created_at": f"2020-06-0{1 + i % 7}T12:00:00Z",
                       "text": "so sad and lonely" if i % 3 else "a fine day",
                       "author_gender": "male" if i % 2 else "female",
                       "author_followers": 500}).encode()


def _posts(ids) -> bytes:
    return b"".join(_post_line(i) + b"\n" for i in ids)


# half the lines are posts that the filter keeps, so that runs get past it
ENDING = st.sampled_from([b"\n", b"\r\n", b""])
CORPUS_FILE = st.tuples(
    st.lists(st.tuples(st.one_of(st.builds(_post_line, st.integers(0, 99)), LINE), ENDING),
             max_size=12),
    st.booleans(),  # gzip
    st.one_of(st.none(), DAMAGE),
)


@settings(max_examples=60, deadline=None)
@given(files=st.lists(CORPUS_FILE, min_size=1, max_size=3))
def test_signal_in_shards_ends_as_in_one_process(lexicon_workspace, files):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _write_corpus(tmp, files)
        _assert_same_runs(_signal_ini(lexicon_workspace, tmp), tmp)


@pytest.mark.parametrize("command", ["thirdperson", "validate"])
@settings(max_examples=30, deadline=None)
@given(files=st.lists(CORPUS_FILE, min_size=1, max_size=3))
def test_other_commands_in_shards_end_as_in_one_process(lexicon_workspace, command, files):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _write_corpus(tmp, files)
        code = _assert_same_runs(_signal_ini(lexicon_workspace, tmp), tmp, command)[0]
        event(f"{command} exit {code}")


def _groups(ini: Path) -> int:
    with mock.patch.object(corpus, "_MIN_SHARD_BYTES", 1), \
            mock.patch.object(corpus, "_usable_cpus", lambda: 3):
        return len(corpus.shard_groups(expand_inputs(load_config(ini)), 3))


class TestShardedSignal:
    """Deterministic cases of the property above, at the shard edges."""

    def test_invalid_utf8_line_across_a_cut(self, lexicon_workspace, tmp_path):
        bad = b'{"id": "x", "text": "' + b"\xff" * 3000 + b'"}\n'
        data = _posts(range(20)) + bad + _posts(range(10))
        (tmp_path / "corpus-0.ndjson").write_bytes(data)
        ini = _signal_ini(lexicon_workspace, tmp_path)
        assert _groups(ini) == 3  # the second cut falls inside the invalid line ...
        code, _, _, files = _assert_same_runs(ini, tmp_path)
        assert code == 0
        manifest = json.loads(files["manifest.json"])
        assert manifest["counts"]["malformed"] == 1
        # ... which is read once, under its own line number
        assert manifest["error_samples"] == [
            f"{tmp_path / 'corpus-0.ndjson'}:21: invalid UTF-8 at byte 21 (invalid start byte)"
        ]

    def test_damaged_gz_in_a_later_shard(self, lexicon_workspace, tmp_path):
        (tmp_path / "corpus-0.ndjson").write_bytes(_posts(range(60)))
        data = gzip.compress(_posts(range(30)), mtime=0)
        (tmp_path / "corpus-1.ndjson.gz").write_bytes(data[: len(data) // 2])
        ini = _signal_ini(lexicon_workspace, tmp_path)
        assert _groups(ini) == 3
        code, _, stderr, _ = _assert_same_runs(ini, tmp_path)
        assert code == 2
        assert stderr.startswith(f"error: {tmp_path / 'corpus-1.ndjson.gz'}:")
        assert "corrupt or truncated gzip stream" in stderr

    def test_error_samples_spread_over_shards(self, lexicon_workspace, tmp_path):
        lines = [_post_line(i) + b"\n" if i % 3 else b"{broken %d\n" % i for i in range(90)]
        (tmp_path / "corpus-0.ndjson").write_bytes(b"".join(lines))
        ini = _signal_ini(lexicon_workspace, tmp_path)
        assert _groups(ini) == 3
        code, _, _, files = _assert_same_runs(ini, tmp_path)
        assert code == 0
        manifest = json.loads(files["manifest.json"])
        assert manifest["counts"]["malformed"] == 30
        samples = manifest["error_samples"]
        assert len(samples) == 20
        assert [s.split(":")[1] for s in samples] == [str(1 + 3 * i) for i in range(20)]


# Config bytes: `signal`, `thirdperson` and `validate` on a mutated synth
# pipeline.ini end in exit 0, 1 or 2 with a message, never in a traceback.
# Outputs go to --output: a mutated [output] dir could name any directory.


@pytest.fixture(scope="module")
def config_workspace(tmp_path_factory):
    """A synth run with ten survey anchors, enough for validate to test."""
    ws = tmp_path_factory.mktemp("config")
    args = ["synth", "--out", str(ws), "--days", "70", "--posts-per-day", "4",
            "--scores-per-day", "2"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0
    return ws


KEYS = [(row.section, row.key) for row in SCHEMA if row.key is not None]
VALUE = st.one_of(
    st.sampled_from([b"", b"-1", b"0", b"10" + b"0" * 19, b"7" * 5_000, b"-" + b"9" * 5_000,
                     b"0001-01-02", b"9999-12-31", b"off", b"a:b, c", b"\xff\xfe"]),
    st.integers(-2_000, 2_000).map(lambda n: b"%d" % n),
    st.text(max_size=8).map(lambda t: t.encode("utf-8")),
    st.binary(max_size=6),
)
EDIT = st.one_of(
    st.tuples(st.just("value"), st.sampled_from(KEYS), VALUE),  # one key's value
    st.tuples(st.just("drop"), st.floats(0, 1)),  # one line, a section header included
    st.tuples(st.just("repeat"), st.floats(0, 1)),  # one line twice: a duplicate key or section
    st.tuples(st.just("bytes"), st.floats(0, 1), st.integers(0, 3), st.binary(max_size=4)),
)


def _edit(data: bytes, edit) -> bytes:
    lines = data.split(b"\n")
    if edit[0] == "value":
        (section, key), value = edit[1], edit[2]
        prefix = key.encode() + b" = "
        for i, line in enumerate(lines):
            if line.startswith(prefix):
                lines[i] = prefix + value
                return b"\n".join(lines)
        return data + b"\n[%s]\n%s%s\n" % (section.encode(), prefix, value)
    if edit[0] in ("drop", "repeat"):
        i = min(int(edit[1] * len(lines)), len(lines) - 1)
        lines[i:i + 1] = [] if edit[0] == "drop" else [lines[i]] * 2
        return b"\n".join(lines)
    at = int(edit[1] * len(data))  # "bytes": replace a few bytes at one position
    return data[:at] + edit[3] + data[at + edit[2]:]


def _small_permutations(data: bytes) -> bytes:
    """Cap a count above 2,000: a huge permutation count is a long run, not a fault."""
    def cap(match):
        try:
            small = int(match.group(2)) <= 2_000
        except ValueError:
            small = True
        return match.group(0) if small else match.group(1) + b"2000"
    return re.sub(rb"(?mi)^(permutations\s*[=:]\s*)([^\n]*)", cap, data)


@settings(max_examples=100, deadline=None)
@given(edits=st.lists(EDIT, min_size=1, max_size=4))
@example(edits=[("value", ("validate", "seed"), b"-1")])
@example(edits=[("value", ("signals", "week_length"), b"1" + b"0" * 20)])
@example(edits=[("value", ("signals", "week_offset"), b"1" + b"0" * 20)])
@example(edits=[("bytes", 0.5, 0, b"\xff")])
def test_any_config_bytes_end_in_an_exit_code(config_workspace, edits):
    data = (config_workspace / "pipeline.ini").read_bytes()
    for edit in edits:
        data = _edit(data, edit)
    ini = config_workspace / "mutated.ini"
    ini.write_bytes(_small_permutations(data))
    try:
        data.decode("utf-8")
        utf8 = True
    except UnicodeDecodeError:
        utf8 = False
    with tempfile.TemporaryDirectory() as tmp:
        for command in ("signal", "thirdperson", "validate"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main([command, "--config", str(ini), "--output", tmp])
            assert code in (0, 1, 2)
            event(f"{command} exit {code}")
            if code:
                assert err.getvalue().startswith("config error: " if code == 1 else "error: ")
                assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
            if not utf8:
                assert code == 1 and err.getvalue().startswith(f"config error: {ini}: not UTF-8")
