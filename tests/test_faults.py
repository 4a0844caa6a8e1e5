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
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from emoscope import corpus, pipeline
from emoscope.cli import main
from emoscope.config import SCHEMA, PipelineConfig, expand_inputs, load_config
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
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(corpus, "_MAX_ERROR_SAMPLES", sys.maxsize):
        path = Path(tmp) / ("input.ndjson.gz" if gz else "input.ndjson")
        path.write_bytes(_damage(gzip.compress(data, mtime=0), damage) if gz else data)
        if reader == "posts":
            counts = StreamCounts()
            stream = stream_posts([path], FilterConfig(), counts)
        else:
            counts = ScoreCounts()
            stream = stream_scores(path, counts)
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
    assert counts.malformed == len(counts.errors)
    if reader == "scores":
        assert counts.dropped == 0
    for err in counts.errors:
        assert str(err).startswith(f"{path}:{err.line_no}: ")
    if not gz or damage is None:
        assert counts.records == _records(data)


# The whole CLI on such bytes: `signal`, `thirdperson` and `validate` over
# one to three corpus files, the scan forced into shards (one process per
# shard group) and again in one process. Both runs must end alike, byte for
# byte. `validate` tests each report row against every circular shift of
# its signal.


@pytest.fixture(scope="module")
def lexicon_workspace(tmp_path_factory):
    """Lexicons, scores and survey of a tiny synth run; corpora come per test."""
    ws = tmp_path_factory.mktemp("lexicons")
    args = ["synth", "--out", str(ws), "--days", "7", "--posts-per-day", "2",
            "--scores-per-day", "2"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0
    return ws


def _signal_ini(ws: Path, corpus_dir: Path, scores: Path | None = None) -> Path:
    """The synth pipeline.ini, reading corpus_dir/corpus-*, the score file
    `scores` (ws's by default) and ws's other files."""
    text = (ws / "pipeline.ini").read_text(encoding="utf-8")
    text = text.replace("input = corpus.ndjson", f"input = {corpus_dir / 'corpus-*'}")
    text = text.replace("path = scores.ndjson", f"path = {scores or ws / 'scores.ndjson'}")
    for name in ("lexicons/", "survey.csv"):
        text = text.replace(f" {name}", f" {ws}/{name}")
    ini = corpus_dir / "pipeline.ini"
    ini.write_text(text, encoding="utf-8")
    return ini


def _write_corpus(corpus_dir: Path, files, stem: str = "corpus") -> list[Path]:
    paths = []
    for i, (lines, gz, damage) in enumerate(files):
        data = b"".join(line + end for line, end in lines)
        paths.append(corpus_dir / (f"{stem}-{i}.ndjson" + (".gz" if gz else "")))
        paths[-1].write_bytes(_damage(gzip.compress(data, mtime=0), damage) if gz else data)
    return paths


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
    parsed = counts["records"] - counts["malformed"]
    assert counts["parsed"] == parsed == counts["kept"] + counts["filtered"]
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

    def test_error_samples_list_the_corpus_before_the_score_file(self, lexicon_workspace,
                                                                   tmp_path):
        lines = [_post_line(i) + b"\n" if i % 6 else b"{broken %d\n" % i for i in range(60)]
        (tmp_path / "corpus-0.ndjson").write_bytes(b"".join(lines))
        scores = tmp_path / "scores.ndjson"
        scores.write_bytes(b"{broken\n" * 30 + _scores(range(10)))
        ini = _signal_ini(lexicon_workspace, tmp_path, scores)
        assert _groups(ini) == 3
        code, _, _, files = _assert_same_runs(ini, tmp_path)
        assert code == 0
        manifest = json.loads(files["manifest.json"])
        assert (manifest["counts"]["malformed"], manifest["score_counts"]["malformed"]) == (10, 30)
        # the first 20 of all: the corpus's 10, then the score file's first 10
        assert [tuple(s.split(":")[:2]) for s in manifest["error_samples"]] == [
            (str(tmp_path / "corpus-0.ndjson"), str(1 + 6 * i)) for i in range(10)
        ] + [(str(scores), str(n)) for n in range(1, 11)]


# The score file rides the same scan as one uncut shard after the corpus:
# whatever bytes it holds, `signal` and `validate` end alike in shards and
# in one process, and a damaged score file fails only after every check
# that a one-process run makes first.


def _score_line(i: int) -> bytes:
    """A valid score record of the synth emotions, without its newline."""
    value = i % 11 / 10
    scores = {"sadness": value, "anxiety": 1 - value, "positive": 0.5}
    return json.dumps({"id": i, "date": f"2020-06-0{1 + i % 7}", "scores": scores}).encode()


def _scores(ids) -> bytes:
    return b"".join(_score_line(i) + b"\n" for i in ids)


SCORE_FILE = st.tuples(
    st.lists(st.tuples(st.one_of(st.builds(_score_line, st.integers(0, 99)), LINE), ENDING),
             max_size=12),
    st.booleans(),  # gzip
    st.one_of(st.none(), DAMAGE),
)


@pytest.mark.parametrize("command", ["signal", "validate"])
@settings(max_examples=40, deadline=None)
@given(score_file=SCORE_FILE)
def test_score_file_in_shards_ends_as_in_one_process(lexicon_workspace, command, score_file):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "corpus-0.ndjson").write_bytes(_posts(range(40)))
        (scores,) = _write_corpus(tmp, [score_file], stem="scores")
        code, _, stderr, files = _assert_same_runs(_signal_ini(lexicon_workspace, tmp, scores),
                                                   tmp, command)
        event(f"{command} exit {code}")
        if code:
            assert stderr.startswith(f"error: {scores}:")  # only a damaged .gz ends the run
        elif command == "signal":
            counts = json.loads(files["manifest.json"])["score_counts"]
            assert counts["records"] == counts["parsed"] + counts["malformed"]
            assert counts["parsed"] == counts["kept"] and counts["filtered"] == 0
            lines, gz, damage = score_file
            if damage is None:
                data = b"".join(line + end for line, end in lines)
                assert counts["records"] == _records(data)


class TestScoreShard:
    """Deterministic cases of the score file in the scan."""

    def test_corpus_glob_that_matches_the_score_file(self, lexicon_workspace, tmp_path):
        (tmp_path / "corpus-0.ndjson").write_bytes(_posts(range(60)))
        scores = tmp_path / "corpus-scores.ndjson"
        scores.write_bytes(_scores(range(200)))
        ini = _signal_ini(lexicon_workspace, tmp_path, scores)
        inputs = expand_inputs(load_config(ini))
        assert inputs[-1] == scores
        score_shard = corpus.Shard(scores)
        with mock.patch.object(corpus, "_MIN_SHARD_BYTES", 1):
            groups = corpus.shard_groups([*inputs, score_shard], 3)
        shards = [shard for group in groups for shard in group if shard.path == scores]
        # read as posts, the file is cut; read as scores, it is one whole
        # shard, the very object given
        assert [shard is score_shard for shard in shards] == [False, False, True]
        # in one group, the file read as posts is a whole shard equal to the
        # score shard, but not it
        (group,) = corpus.shard_groups([*inputs, score_shard], 1)
        assert group[-2:] == [score_shard, score_shard] and group[-2] is not score_shard

        code, _, _, files = _assert_same_runs(ini, tmp_path)
        assert code == 0
        manifest = json.loads(files["manifest.json"])
        assert manifest["counts"]["malformed"] == 200  # no score line is a post
        assert manifest["score_counts"]["kept"] == 200
        # the score signals are those of a glob that misses the score file
        only_corpus = tmp_path / "only-corpus.ini"
        only_corpus.write_text(ini.read_text().replace("corpus-*", "corpus-0.ndjson"))
        _, _, _, alone = _run("signal", only_corpus, tmp_path / "alone", sharded=True)
        daily = [name for name in files if name.startswith("daily_score_")]
        assert len(daily) == 3
        assert all(files[name] == alone[name] for name in daily)

    def test_score_file_as_the_whole_corpus_of_a_group(self, tmp_path):
        """The corpus glob matches only the score file, whose lines are
        posts and scores at once. Cut into two groups, the first holds the
        file read as posts, a Shard equal to the score shard that starts
        the second, and reads it as posts all the same."""
        scores = tmp_path / "corpus-scores.ndjson"
        records = [{**json.loads(_post_line(i)), **json.loads(_score_line(i))} for i in range(60)]
        scores.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")
        # a path-like score_path, so that the two Shards compare equal
        cfg = PipelineConfig(inputs=(str(tmp_path / "corpus-*"),), score_path=scores,
                             score_emotions=("sadness",))
        with mock.patch.object(corpus, "_MIN_SHARD_BYTES", 1):
            groups = corpus.shard_groups([*expand_inputs(cfg), corpus.Shard(scores)], 2)
            assert groups == [[corpus.Shard(scores)], [corpus.Shard(scores)]]
            runs = []
            for cpus in (2, 1):
                with mock.patch.object(corpus, "_usable_cpus", lambda: cpus):
                    counts, table, _, (score_counts, means) = pipeline.scan_corpus(
                        cfg, None, pronouns=True, scores=True)
                runs.append((counts, table, score_counts, means))
        assert runs[0] == runs[1]
        assert (counts.kept, score_counts.kept) == (60, 60)

    def test_score_signals_only_do_not_read_the_corpus(self, lexicon_workspace, tmp_path):
        data = gzip.compress(_posts(range(30)), mtime=0)
        (tmp_path / "corpus-0.ndjson.gz").write_bytes(data[: len(data) // 2])  # read, it fails
        ini = tmp_path / "scores-only.ini"
        ini.write_text(f"[corpus]\ninput = {tmp_path / 'corpus-*'}\n\n"
                       f"[scores]\npath = {lexicon_workspace / 'scores.ndjson'}\n"
                       "emotions = sadness, anxiety\n", encoding="utf-8")
        code, _, _, files = _assert_same_runs(ini, tmp_path)
        assert code == 0
        manifest = json.loads(files["manifest.json"])
        assert manifest["counts"]["records"] == 0
        assert manifest["score_counts"]["kept"] == 14
        assert sorted(files) == ["daily_score_anxiety_all.csv", "daily_score_sadness_all.csv",
                                 "manifest.json"]

    @pytest.mark.parametrize("command", ["signal", "validate"])
    @pytest.mark.parametrize(
        "posts, score_file, error",
        [
            ("damaged", "damaged", "error: {tmp}/corpus-1.ndjson.gz:"),
            ("damaged", "missing", "config error: score file not found: {tmp}/scores.ndjson.gz"),
            ("filtered", "damaged", "error: {tmp}/scores.ndjson.gz:"),
            ("filtered", "missing", "config error: score file not found: {tmp}/scores.ndjson.gz"),
            ("filtered", "whole", "error: no posts left after filtering"),
            ("kept", "missing", "config error: score file not found: {tmp}/scores.ndjson.gz"),
            ("kept", "damaged", "error: {tmp}/scores.ndjson.gz:"),
        ],
    )
    def test_error_precedence(self, lexicon_workspace, tmp_path, command, posts, score_file,
                              error):
        """A missing score file is a config error, met before the scan;
        then the data errors in input order, the corpus's before the score
        file's; then no kept post."""
        corpus_data = _posts(range(60))
        if posts == "filtered":
            corpus_data = corpus_data.replace(b'"author_followers": 500', b'"author_followers": 5')
        (tmp_path / "corpus-0.ndjson").write_bytes(corpus_data)
        if posts == "damaged":
            data = gzip.compress(_posts(range(30)), mtime=0)
            (tmp_path / "corpus-1.ndjson.gz").write_bytes(data[: len(data) // 2])
        scores = tmp_path / "scores.ndjson.gz"
        if score_file != "missing":
            data = gzip.compress(_scores(range(100)), mtime=0)
            scores.write_bytes(data[: len(data) // 2] if score_file == "damaged" else data)
        code, _, stderr, _ = _assert_same_runs(_signal_ini(lexicon_workspace, tmp_path, scores),
                                               tmp_path, command)
        assert code == (1 if error.startswith("config") else 2)
        assert stderr.startswith(error.format(tmp=tmp_path))


@pytest.mark.parametrize("command", ["signal", "validate"])
@pytest.mark.parametrize("fault, error", [
    ("no score file", "config error: score file not found: {tmp}/scores.ndjson"),
    ("no survey", "config error: survey file not found: {tmp}/survey.csv"),
    ("bad survey", "error: {tmp}/survey.csv:2: bad percent 'bad'"),
])
def test_inputs_are_refused_before_the_scan(lexicon_workspace, tmp_path, command, fault, error):
    """A missing score file or survey, or a bad survey row, ends the run
    before the corpus is read: the corpus is a damaged .gz, which a scan
    would refuse with an error of its own, and no counts are printed."""
    data = gzip.compress(_posts(range(30)), mtime=0)
    (tmp_path / "corpus-0.ndjson.gz").write_bytes(data[: len(data) // 2])
    scores = tmp_path / "scores.ndjson"
    if fault != "no score file":
        scores.write_bytes(_scores(range(20)))
    if fault == "bad survey":
        (tmp_path / "survey.csv").write_text("date,emotion,percent\n2020-06-07,sadness,bad\n",
                                             encoding="utf-8")
    elif fault != "no survey":
        shutil.copy(lexicon_workspace / "survey.csv", tmp_path / "survey.csv")
    ini = _signal_ini(lexicon_workspace, tmp_path, scores)
    ini.write_text(ini.read_text(encoding="utf-8").replace(
        f"{lexicon_workspace}/survey.csv", f"{tmp_path}/survey.csv"), encoding="utf-8")
    code, stdout, stderr, _ = _assert_same_runs(ini, tmp_path, command)
    assert code == (1 if error.startswith("config") else 2)
    assert stderr == error.format(tmp=tmp_path) + "\n"
    assert "records=" not in stdout


# `auc` on arbitrary score and label bytes ends in exit 0, 1 or 2 with a
# one-line message, and a finished run's counts add up.

# the odd-numbered posts of a run of sad labels are the positives, so that
# a valid file has both classes
SAD_LABELS = st.integers(4, 10).map(lambda n: [b"%d,sad,%d" % (i, i % 2) for i in range(n)])
LABEL = st.builds(
    lambda i, emotion, label: b"%d,%s,%s" % (i, emotion, label),
    st.integers(0, 99),
    st.sampled_from([b"sad", b"joy", b" sad", b""]),
    st.sampled_from([b"0", b"1", b" 1", b"2", b""]),
)
LABELS = st.tuples(
    st.one_of(st.just(b"id,emotion,label"), st.just(b"id,emotion,label"),
              st.sampled_from([b"label,emotion,id", b"id,label", b"",
                               b"\xef\xbb\xbfid,emotion,label"])),
    st.one_of(SAD_LABELS,
              st.lists(st.one_of(LABEL, st.binary(max_size=12), INVALID_UTF8, BLANK), max_size=10)),
)
# valid scores for posts 0, 1, 2, ... in order
AUC_SCORES = st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=2, max_size=12).map(
    lambda values: [
        _dumps({"id": i, "date": "2020-03-01", "scores": {"sad": sad, "joy": joy}}, True)
        for i, (sad, joy) in enumerate(values)
    ]
)
_AUC_COUNTS = re.compile(
    r"records=(\d+) parsed=(\d+) malformed=(\d+) rejected_values=(\d+) duplicate_ids=(\d+)")


@settings(max_examples=150, deadline=None)
@given(
    score_lines=st.one_of(AUC_SCORES,
                          st.builds(list.__add__, AUC_SCORES, st.lists(LINE, max_size=6))),
    gz=st.booleans(),
    damage=DAMAGE,
    labels=LABELS,
    emotions=st.sampled_from([[], [], ["--emotions", "sad"], ["--emotions", "sad", "fear"]]),
)
@example(score_lines=[], gz=False, damage=None, labels=(b"label,emotion,id", [b"1"]), emotions=[])
@example(score_lines=[], gz=False, damage=None, labels=(b"id,emotion,label", [b"1,sad,\x001"]),
         emotions=[])
def test_auc_on_any_bytes_ends_in_an_exit_code(score_lines, gz, damage, labels, emotions):
    data = b"".join(line + b"\n" for line in score_lines)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        scores = tmp / ("scores.ndjson.gz" if gz else "scores.ndjson")
        scores.write_bytes(_damage(gzip.compress(data, mtime=0), damage) if gz else data)
        header, rows = labels
        label_bytes = b"".join(line + b"\n" for line in (header, *rows))
        (tmp / "labels.csv").write_bytes(label_bytes)
        with contextlib.redirect_stdout(io.StringIO()) as std, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["auc", "--scores", str(scores), "--labels", str(tmp / "labels.csv"),
                         "--output", str(tmp / "out"), *emotions])
        event(f"auc exit {code}")
        assert code in (0, 1, 2)
        try:
            label_bytes.decode("utf-8")
        except UnicodeDecodeError:  # the labels are read first
            assert code == 2 and err.getvalue().startswith(f"error: {tmp / 'labels.csv'}:")
        if code:
            assert err.getvalue().startswith("config error: " if code == 1 else "error: ")
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
            return
        assert err.getvalue() == ""
        stdout = std.getvalue().splitlines()
        records, parsed, malformed, _, _ = map(int, _AUC_COUNTS.fullmatch(stdout[0]).groups())
        assert records == parsed + malformed
        if not gz or damage is None:
            assert records == _records(data)
        with open(tmp / "out" / "auc.csv", newline="", encoding="utf-8") as fh:
            summary = list(csv.DictReader(fh))
        assert len(summary) == len(stdout) - 2  # the counts and the closing line
        for row in summary:
            assert int(row["n"]) == int(row["n_pos"]) + int(row["n_neg"])
            if row["auc"]:
                assert 0 <= float(row["auc"]) <= 1
                assert (tmp / "out" / f"roc_{row['emotion']}.csv").is_file()


@pytest.mark.parametrize(
    "data, where",
    [
        (b"id,emotion,label\n0,sad,0\n1,s\x86d,1\n", "3: invalid UTF-8 at byte 3 (invalid start byte)"),
        (b"id,emo\xc3", "1: invalid UTF-8 at byte 6 (unexpected end of data)"),
        (b"id,emotion,label\r\n0,sad,\xed\xa0\x80\r\n",
         "2: invalid UTF-8 at byte 6 (invalid continuation byte)"),
    ],
    ids=["third-line", "header", "crlf"],
)
def test_auc_names_a_labels_file_that_is_not_utf8(tmp_path, data, where):
    """Bytes that are not UTF-8 in the labels file are a data error naming
    the file, the line (1 plus the newlines before the bad byte) and the
    byte's offset in that line."""
    scores = tmp_path / "scores.ndjson"
    scores.write_bytes(b'{"id": 0, "date": "2020-03-01", "scores": {"sad": 0.5}}\n')
    labels = tmp_path / "labels.csv"
    labels.write_bytes(data)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["auc", "--scores", str(scores), "--labels", str(labels),
                     "--output", str(tmp_path / "out")])
    assert code == 2
    assert err.getvalue() == f"error: {labels}:{where}\n"


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
    if edit[0] == "bytes":  # replace a few bytes at one position
        at = int(edit[1] * len(data))
        return data[:at] + edit[3] + data[at + edit[2]:]
    i = min(int(edit[1] * len(lines)), len(lines) - 1)
    if edit[0] == "cell":  # one comma-separated cell of one line
        cells = lines[i].split(b",")
        cells[min(edit[2], len(cells) - 1)] = edit[3]
        lines[i] = b",".join(cells)
    else:
        lines[i:i + 1] = [] if edit[0] == "drop" else [lines[i]] * 2
    return b"\n".join(lines)


@settings(max_examples=100, deadline=None)
@given(edits=st.lists(EDIT, min_size=1, max_size=4))
@example(edits=[("value", ("validate", "dcca_window"), b"-1")])
@example(edits=[("value", ("signals", "week_length"), b"1" + b"0" * 20)])
@example(edits=[("value", ("signals", "week_offset"), b"1" + b"0" * 20)])
@example(edits=[("bytes", 0.5, 0, b"\xff")])
def test_any_config_bytes_end_in_an_exit_code(config_workspace, edits):
    data = (config_workspace / "pipeline.ini").read_bytes()
    for edit in edits:
        data = _edit(data, edit)
    ini = config_workspace / "mutated.ini"
    ini.write_bytes(data)
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


# Survey, lexicon and counts bytes: `validate` on a mutated survey, `signal`
# on a mutated lexicon and `thirdperson --counts` on any counts file end in
# exit 0, 1 or 2 with a one-line message. A file that is not UTF-8 is a data
# error naming its line.

CELL = st.one_of(VALUE, st.sampled_from([b"nan", b"1e999", b"100", b"sadness", b"a b", b"*",
                                         b'"a\nb"', b"x" * 200_000]))
FILE_EDIT = st.one_of(
    st.tuples(st.just("cell"), st.floats(0, 1), st.integers(0, 3), CELL),
    st.tuples(st.just("drop"), st.floats(0, 1)),
    st.tuples(st.just("repeat"), st.floats(0, 1)),
    st.tuples(st.just("bytes"), st.floats(0, 1), st.integers(0, 3), st.binary(max_size=4)),
)
# the faults these properties were written for: bytes that are not UTF-8,
# a NUL byte (read as data by csv), a field past csv's size limit (csv.Error)
FILE_FAULTS = [
    [("bytes", 0.5, 0, b"\xff")],
    [("bytes", 0.5, 0, b"\x00")],
    [("cell", 0.5, 1, b"x" * 200_000)],
]


def _assert_exit_code(argv, out, data: bytes, path: Path) -> int:
    """Run the CLI with --output `out`: exit 0, 1 or 2, a failure told in
    one line, and bytes at `path` that are not UTF-8 a data error naming
    the file."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main([*argv, "--output", str(out)])
    assert code in (0, 1, 2)
    event(f"{argv[0]} exit {code}")
    if code:
        assert err.getvalue().startswith("config error: " if code == 1 else "error: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        assert code == 2 and err.getvalue().startswith(f"error: {path}:")
    return code


def _edited(path: Path, edits) -> bytes:
    data = path.read_bytes()
    for edit in edits:
        data = _edit(data, edit)
    return data


def _config_reading(ws: Path, name: str, data: bytes, new_name: str) -> tuple[Path, Path]:
    """(config, input): `data` written to ws/new_name, and a copy of ws's
    pipeline.ini that reads it in place of its file `name`."""
    (ws / new_name).write_bytes(data)
    ini = ws / f"{new_name}.ini"
    ini.write_text((ws / "pipeline.ini").read_text(encoding="utf-8").replace(
        f" = {name}\n", f" = {new_name}\n"), encoding="utf-8")
    return ini, ws / new_name


@pytest.mark.parametrize(
    "command, name, data, where",
    [
        ("validate", "survey.csv", b"date,emotion,percent\n2020-06-07,sad\xffness,4\n",
         "2: invalid UTF-8 at byte 14 (invalid start byte)"),
        ("signal", "lexicons/sadness.txt", b"# terms\r\nsad\r\nlone\xc3ly\r\n",
         "3: invalid UTF-8 at byte 4 (invalid continuation byte)"),
    ],
    ids=["survey", "lexicon"],
)
def test_input_that_is_not_utf8_names_file_and_line(config_workspace, command, name, data, where):
    """A survey or lexicon that is not UTF-8 is a data error naming the
    file, the line and the byte's offset in that line, as for labels."""
    ini, path = _config_reading(config_workspace, name, data, "not-utf8-" + Path(name).name)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main([command, "--config", str(ini), "--output", tmp])
    assert code == 2
    assert err.getvalue() == f"error: {path}:{where}\n"


@settings(max_examples=60, deadline=None)
@given(edits=st.lists(FILE_EDIT, min_size=1, max_size=4))
@example(edits=FILE_FAULTS[0])
@example(edits=FILE_FAULTS[1])
@example(edits=FILE_FAULTS[2])
def test_any_survey_bytes_end_in_an_exit_code(config_workspace, edits):
    data = _edited(config_workspace / "survey.csv", edits)
    ini, survey = _config_reading(config_workspace, "survey.csv", data, "mutated-survey.csv")
    with tempfile.TemporaryDirectory() as tmp:
        _assert_exit_code(["validate", "--config", str(ini)], tmp, data, survey)


@settings(max_examples=60, deadline=None)
@given(edits=st.lists(FILE_EDIT, min_size=1, max_size=4))
@example(edits=FILE_FAULTS[0])
@example(edits=FILE_FAULTS[1])
@example(edits=FILE_FAULTS[2])
def test_any_lexicon_bytes_end_in_an_exit_code(config_workspace, edits):
    data = _edited(config_workspace / "lexicons" / "sadness.txt", edits)
    ini, lexicon = _config_reading(config_workspace, "lexicons/sadness.txt", data,
                                   "mutated-sadness.txt")
    with tempfile.TemporaryDirectory() as tmp:
        _assert_exit_code(["signal", "--config", str(ini)], tmp, data, lexicon)


COUNT = st.integers(-3, 50).map(lambda n: b"%d" % n)
ODD_COUNT = st.sampled_from([b"", b" 7", b"1e3", b"7" * 5_000, b"1" + b"0" * 400])
LABEL_CELL = st.sampled_from([b"sad", b"", b'"a,b"', "\u00e9".encode("utf-8")])
COUNT_ROW = st.builds(lambda label, counts: b",".join([label, *counts]),
                      LABEL_CELL, st.lists(COUNT, min_size=4, max_size=4))
# too few or too many cells, or cells that are not small integers
ODD_COUNT_ROW = st.builds(lambda label, counts: b",".join([label, *counts]),
                          LABEL_CELL, st.lists(st.one_of(COUNT, ODD_COUNT), min_size=3, max_size=5))
COUNTS_HEADER = st.sampled_from([
    b"label,with_k,with_n,without_k,without_n", b"label,with_k,with_n,without_k,without_n",
    b"with_k,with_n,without_k,without_n,label", b"label,with_k,with_n", b"",
    b"\xef\xbb\xbflabel,with_k,with_n,without_k,without_n",
])
PROPORTION_COLUMNS = ["label", "with_k", "with_n", "frac_with", "without_k", "without_n",
                      "frac_without", "pct_difference", "chi2", "p", "notes"]


@settings(max_examples=150, deadline=None)
@given(header=COUNTS_HEADER,
       rows=st.one_of(st.lists(COUNT_ROW, max_size=6), st.lists(st.one_of(
           COUNT_ROW, ODD_COUNT_ROW, st.binary(max_size=12), INVALID_UTF8, BLANK), max_size=8)))
@example(header=b"with_k,with_n,without_k,without_n,label", rows=[b"1,2,3,4"])  # label left None
@example(header=b"label,with_k,with_n,without_k,without_n", rows=[b"sad,1,2,3,4", b"s\xffd,1,2,3,4"])
@example(header=b"label,with_k,with_n,without_k,without_n", rows=[b"sad,1,2,\x003,4"])
@example(header=b"label,with_k,with_n,without_k,without_n", rows=[b"x" * 200_000 + b",1,2,3,4"])
@example(header=b"label,with_k,with_n,without_k,without_n", rows=[b"big,%d,1,3,4" % 10**400])
@example(header=b"label,with_k,with_n,without_k,without_n",
         rows=[b"big,%d,%d,1,%d" % ((10**400,) * 3)])  # a chi2 past float range
def test_any_counts_bytes_end_in_an_exit_code(header, rows):
    data = b"".join(line + b"\n" for line in (header, *rows))
    with tempfile.TemporaryDirectory() as tmp:
        counts, out = Path(tmp) / "counts.csv", Path(tmp) / "out"
        counts.write_bytes(data)
        if _assert_exit_code(["thirdperson", "--counts", str(counts)], out, data, counts):
            return
        with open(out / "thirdperson.csv", newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            written = list(reader)
        assert reader.fieldnames == PROPORTION_COLUMNS
        assert written
        for row in written:  # each cell under its own column
            k, n = int(row["with_k"]), int(row["with_n"])
            assert row["frac_with"] == ("" if n == 0 else format(k / n, ".6g"))


def test_counts_that_are_not_utf8_name_file_and_line(tmp_path):
    counts = tmp_path / "counts.csv"
    counts.write_bytes(b"label,with_k,with_n,without_k,without_n\nsa\xffd,1,2,3,4\n")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["thirdperson", "--counts", str(counts), "--output", str(tmp_path / "out")])
    assert code == 2
    assert err.getvalue() == f"error: {counts}:2: invalid UTF-8 at byte 2 (invalid start byte)\n"
