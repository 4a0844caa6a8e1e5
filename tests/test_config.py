"""INI config loading and PipelineConfig validation."""

import re
from datetime import date
from pathlib import Path

import pytest

from emoscope.config import (
    SCHEMA,
    PipelineConfig,
    config_text,
    expand_inputs,
    format_ini,
    load_config,
)
from emoscope.errors import ConfigError


def _write_config(tmp_path, body):
    (tmp_path / "corpus.ndjson").write_text("", encoding="utf-8")
    (tmp_path / "sad.txt").write_text("sad\n", encoding="utf-8")
    (tmp_path / "survey.csv").write_text("date,emotion,percent\n", encoding="utf-8")
    path = tmp_path / "pipeline.ini"
    path.write_text(body, encoding="utf-8")
    return path


MINIMAL = """\
[corpus]
input = corpus.ndjson

[lexicons]
sadness = sad.txt
"""


class TestLoadConfig:
    def test_minimal(self, tmp_path):
        cfg = load_config(_write_config(tmp_path, MINIMAL))
        assert cfg.lexicons == (("sadness", str(tmp_path / "sad.txt")),)
        assert cfg.inputs == (str(tmp_path / "corpus.ndjson"),)
        assert cfg.gender_mode == "rescaled"
        assert cfg.split_date == date(2020, 11, 1)
        assert cfg.dcca_window == 12

    def test_full_file(self, tmp_path):
        (tmp_path / "scores.ndjson").write_text("", encoding="utf-8")
        body = MINIMAL + (
            "\n[reports]\n"
            "emotions = sad, happy\n"
            "slot_gap = 2\n"
            "\n[scores]\n"
            "path = scores.ndjson\n"
            "emotions = sadness\n"
            "\n[survey]\n"
            "path = survey.csv\n"
            "pairs = sad:sadness, sad:report_sad, sad:score_sadness\n"
            "\n[signals]\n"
            "gender_mode = stratified\n"
            "week_length = 14\n"
            "\n[validate]\n"
            "split_date = 2020-06-01\n"
            "dcca_window = 8\n"
            "\n[output]\n"
            "dir = results\n"
        )
        cfg = load_config(_write_config(tmp_path, body))
        assert cfg.report_emotions == ("sad", "happy")
        assert cfg.templates.max_slot_gap == 2
        assert cfg.score_emotions == ("sadness",)
        assert cfg.pairs == (
            ("sad", "sadness"),
            ("sad", "report_sad"),
            ("sad", "score_sadness"),
        )
        assert cfg.gender_mode == "stratified"
        assert cfg.week_length == 14
        assert cfg.split_date == date(2020, 6, 1)
        assert cfg.dcca_window == 8
        assert cfg.output_dir == str(tmp_path / "results")

    def test_relative_paths_resolved_against_config_dir(self, tmp_path):
        sub = tmp_path / "nested"
        sub.mkdir()
        path = _write_config(sub, MINIMAL)
        cfg = load_config(path)
        assert cfg.inputs[0] == str(sub / "corpus.ndjson")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini")

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(_write_config(tmp_path, MINIMAL + "\n[extra]\nx = 1\n"))

    def test_unknown_key(self, tmp_path):
        body = MINIMAL.replace("input = corpus.ndjson", "input = corpus.ndjson\ntypo_key = 1")
        with pytest.raises(ConfigError, match="typo_key"):
            load_config(_write_config(tmp_path, body))

    def test_bad_int(self, tmp_path):
        body = MINIMAL + "\n[validate]\ndcca_window = lots\n"
        with pytest.raises(ConfigError, match="dcca_window"):
            load_config(_write_config(tmp_path, body))

    def test_retired_keys_are_noted_and_ignored(self, tmp_path, capsys):
        # the permutation count and seed no longer govern any output; a
        # file that gives them, in any form, loads as one without them
        body = MINIMAL + "\n[validate]\npermutations = lots\nseed = -1\n"
        path = _write_config(tmp_path, body)
        assert load_config(path) == load_config(_write_config(tmp_path, MINIMAL))
        shifts = "is retired and ignored: p-values come from circular shifts"
        assert capsys.readouterr().err == (f"note: {path}: [validate] permutations {shifts}\n"
                                           f"note: {path}: [validate] seed {shifts}\n")

    def test_bad_date(self, tmp_path):
        body = MINIMAL + "\n[validate]\nsplit_date = soon\n"
        with pytest.raises(ConfigError, match="split_date"):
            load_config(_write_config(tmp_path, body))

    def test_bad_pair_syntax(self, tmp_path):
        body = MINIMAL + "\n[survey]\npath = survey.csv\npairs = sadness\n"
        with pytest.raises(ConfigError, match="pairs"):
            load_config(_write_config(tmp_path, body))

    def test_pair_against_unknown_signal(self, tmp_path):
        body = MINIMAL + "\n[survey]\npath = survey.csv\npairs = sad:nope\n"
        with pytest.raises(ConfigError, match="unknown signal"):
            load_config(_write_config(tmp_path, body))

    def test_inline_comments(self, tmp_path):
        body = MINIMAL + "\n[signals]\nweek_length = 7  # days\n"
        cfg = load_config(_write_config(tmp_path, body))
        assert cfg.week_length == 7

    def test_report_adjectives_override(self, tmp_path):
        body = MINIMAL + (
            "\n[reports]\nemotions = sad\n"
            "\n[report_adjectives]\nsad = sad, down, blue\n"
        )
        cfg = load_config(_write_config(tmp_path, body))
        assert cfg.templates.emotion_terms["sad"] == ("sad", "down", "blue")

    def test_custom_templates(self, tmp_path):
        body = MINIMAL + "\n[reports]\nemotions = sad\ntemplates = i am _, im _\n"
        cfg = load_config(_write_config(tmp_path, body))
        assert cfg.templates.templates == ("i am _", "im _")

    def test_bad_template_rejected(self, tmp_path):
        body = MINIMAL + "\n[reports]\nemotions = sad\ntemplates = i am\n"
        with pytest.raises(ConfigError):
            load_config(_write_config(tmp_path, body))

    def test_not_utf8_names_the_file(self, tmp_path):
        path = _write_config(tmp_path, MINIMAL)
        path.write_bytes(path.read_bytes() + b"# caf\xe9\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            load_config(path)

    # MINIMAL's lines: 1 [corpus], 2 input, 3 blank, 4 [lexicons], 5 sadness
    @pytest.mark.parametrize(
        "body, message",
        [
            ("\x00" + MINIMAL, "line 1: expected a [section] header first"),
            ("input = x\n" + MINIMAL, "line 1: expected a [section] header first"),
            (MINIMAL + "[corpus]\n", "line 6: section [corpus] appears twice"),
            (MINIMAL + "sadness = sad.txt\n", "line 6: key 'sadness' appears twice in [lexicons]"),
            (MINIMAL + "\nnot a key\n", "line 7: neither a [section] header nor a `key = value` line"),
            (MINIMAL + "[output\n", "line 6: neither a [section] header nor a `key = value` line"),
        ],
    )
    def test_syntax_error_is_one_line(self, tmp_path, body, message):
        path = _write_config(tmp_path, body)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == f"{path}: {message}"

    def test_overrides_replace_the_file_and_keep_its_bounds(self, tmp_path):
        path = _write_config(tmp_path, MINIMAL + "\n[validate]\ndcca_window = 8\n")
        assert load_config(path, {"dcca_window": 16, "output_dir": "elsewhere"}).dcca_window == 16
        assert load_config(path, {"output_dir": "elsewhere"}).output_dir == "elsewhere"
        with pytest.raises(ConfigError, match="dcca_window must be >= 4, got 3"):
            load_config(path, {"dcca_window": 3})

    def test_effective_config_reads_back_equal(self, tmp_path):
        (tmp_path / "scores.ndjson").write_text("", encoding="utf-8")
        body = MINIMAL + (
            "\n[reports]\nemotions = sad\nslot_gap = 2\n"
            "\n[report_adjectives]\nsad = sad, down\nglum = glum\n"
            "\n[scores]\npath = scores.ndjson\nemotions = sadness\n"
            "\n[survey]\npath = survey.csv\npairs = sad:sadness, sad:report_sad\n"
            "\n[validate]\nsplit_date = 2020-06-01\ndcca_window = 8\n"
        )
        cfg = load_config(_write_config(tmp_path, body))
        text = config_text(cfg)
        assert [(s, k) for s, keys in text.items() for k in keys][:2] == [
            ("corpus", "input"), ("corpus", "min_followers")
        ]
        assert text["report_adjectives"]["glum"] == "glum"
        replay = tmp_path / "replay" / "pipeline.ini"
        replay.parent.mkdir()
        replay.write_text(format_ini(text), encoding="utf-8")
        assert load_config(replay) == cfg


def test_readme_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    (tmp_path / "lexicons").mkdir()
    for name in ("corpus.ndjson", "scores.ndjson"):
        (tmp_path / name).write_text("", encoding="utf-8")
    for name in ("sadness", "anxiety", "positive"):
        (tmp_path / "lexicons" / f"{name}.txt").write_text(f"{name}\n", encoding="utf-8")
    (tmp_path / "survey.csv").write_text("date,emotion,percent\n", encoding="utf-8")
    path = tmp_path / "pipeline.ini"
    path.write_text(blocks[0], encoding="utf-8")
    cfg = load_config(path)
    for referenced in (*cfg.inputs, *(p for _, p in cfg.lexicons), cfg.score_path, cfg.survey_path):
        assert Path(referenced).is_file(), referenced
    assert cfg.filter.exclude_retweets is True
    assert cfg.tz_offset_minutes == 0
    assert cfg.dcca_window == 12
    assert cfg.signal_names() == [
        "sadness", "anxiety", "positive", "report_sad", "score_sadness"
    ]
    assert cfg.pairs == (
        ("sadness", "sadness"), ("sadness", "score_sadness"), ("sadness", "report_sad")
    )
    assert cfg.templates.emotion_terms["sad"] == ("sad", "down", "blue")
    assert cfg.output_dir == str(tmp_path / "out")


def test_readme_documents_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    documented, section = set(), None
    for line in block.splitlines():
        if line.startswith("["):
            section = line[1 : line.index("]")]
        elif "=" in line:
            documented.add((section, line.partition("=")[0].strip()))
    free_form = {row.section for row in SCHEMA if row.key is None}
    assert {(s, k) for s, k in documented if s not in free_form} == {
        (row.section, row.key) for row in SCHEMA if row.key is not None
    }


class TestPipelineConfigValidate:
    def test_defaults_pass(self):
        PipelineConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gender_mode": "both"},
            {"week_length": 0},
            {"week_offset": -1},
            {"dcca_window": 3},
            {"tz_offset_minutes": 1441},
            {"tz_offset_minutes": -1441},
            {"lexicons": (("a", "x"), ("a", "y"))},
            {"score_emotions": ("sad",)},
            {"pairs": (("sad", "ghost"),)},
            {"pairs": (("sad", "report_sad"),)},  # a report signal not built
            {"pairs": (("sad", "score_sad"),)},  # a score signal not built
            {"gender_mode": "Rescaled"},  # modes are matched as written
            {"report_emotions": ("glum",)},
        ],
    )
    def test_rejections(self, kwargs):
        with pytest.raises(ConfigError):
            PipelineConfig(**kwargs).validate()

    @pytest.mark.parametrize("offset", [-1440, 0, 1440])
    def test_tz_offset_up_to_a_day(self, offset):
        PipelineConfig(tz_offset_minutes=offset).validate()

    def test_signal_names(self):
        cfg = PipelineConfig(
            lexicons=(("sadness", "a.txt"),),
            report_emotions=("sad",),
            score_path="s.ndjson",
            score_emotions=("fear",),
        )
        assert cfg.signal_names() == ["sadness", "report_sad", "score_fear"]


class TestExpandInputs:
    def test_glob_sorted(self, tmp_path):
        for name in ("b.ndjson", "a.ndjson"):
            (tmp_path / name).write_text("", encoding="utf-8")
        cfg = PipelineConfig(inputs=(str(tmp_path / "*.ndjson"),))
        assert [p.name for p in expand_inputs(cfg)] == ["a.ndjson", "b.ndjson"]

    def test_literal_path(self, tmp_path):
        p = tmp_path / "one.ndjson"
        p.write_text("", encoding="utf-8")
        cfg = PipelineConfig(inputs=(str(p),))
        assert expand_inputs(cfg) == [p]

    def test_no_match(self, tmp_path):
        cfg = PipelineConfig(inputs=(str(tmp_path / "none-*.ndjson"),))
        with pytest.raises(ConfigError):
            expand_inputs(cfg)

    def test_no_inputs(self):
        with pytest.raises(ConfigError):
            expand_inputs(PipelineConfig())

    @pytest.mark.parametrize("second", ["corpus.ndjson", "corpus*.ndjson", "./corpus.ndjson"])
    def test_a_file_two_patterns_match_is_refused(self, tmp_path, monkeypatch, second):
        # read twice, its posts would be counted twice
        (tmp_path / "corpus.ndjson").write_text("", encoding="utf-8")
        (tmp_path / "corpus-2.ndjson").write_text("", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        hit = "./corpus.ndjson" if second.startswith("./") else "corpus.ndjson"
        message = f"input file {hit} is matched by both 'corpus.ndjson' and {second!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            expand_inputs(PipelineConfig(inputs=("corpus.ndjson", second)))
        assert len(expand_inputs(PipelineConfig(inputs=("corpus.ndjson", "corpus-*")))) == 2
