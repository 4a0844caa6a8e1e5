"""Pipeline configuration: one INI-style file plus command-line overrides.

The config file is the run's provenance: everything that affects output
lives here, and relative paths resolve against the file's own directory
so a run directory can be archived and replayed as a unit.

SCHEMA is the file's one description. Parsing, the bounds that `validate`
checks, the CLI's override flags, the pipeline.ini that `synth` writes and
the effective config in the manifest all read it.
"""

from __future__ import annotations

import configparser
import glob as globlib
import sys
from dataclasses import dataclass, field, replace
from datetime import date
from operator import attrgetter
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

from .corpus import FilterConfig
from .errors import ConfigError, LexiconError
from .lexicon import ReportTemplateSet

GENDER_MODES = ("agnostic", "stratified", "rescaled")


@dataclass
class PipelineConfig:
    """Everything a signal/validate run needs, with paper-style defaults."""

    inputs: tuple[str, ...] = ()
    lexicons: tuple[tuple[str, str], ...] = ()  # (signal name, lexicon path)
    report_emotions: tuple[str, ...] = ()
    templates: ReportTemplateSet = field(default_factory=ReportTemplateSet)
    score_path: str | None = None
    score_emotions: tuple[str, ...] = ()
    survey_path: str | None = None
    pairs: tuple[tuple[str, str], ...] = ()  # (survey emotion, signal name)
    split_date: date = date(2020, 11, 1)
    gender_mode: str = "rescaled"
    filter: FilterConfig = field(default_factory=FilterConfig)
    tz_offset_minutes: int = 0
    week_length: int = 7
    week_offset: int = 0
    dcca_window: int = 12
    output_dir: str = "out"

    def validate(self) -> None:
        """The bounds of every SCHEMA row, then the checks across fields."""
        for row in SCHEMA:
            row.check(attrgetter(row.attr)(self))
        names = [name for name, _ in self.lexicons]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate lexicon signal names: {names}")
        unknown = [e for e in self.report_emotions if e not in self.templates.emotion_terms]
        if unknown:
            raise ConfigError(f"[reports] emotions {unknown} have no adjectives")
        if self.score_emotions and self.score_path is None:
            raise ConfigError("score emotions given but no score path")
        known = set(self.signal_names())
        for survey_emotion, signal in self.pairs:
            if signal not in known:
                raise ConfigError(
                    f"pair {survey_emotion}:{signal} references unknown signal "
                    f"{signal!r}; have {sorted(known)}"
                )

    def signal_names(self) -> list[str]:
        """All signal identities: lexicon names, then report_<emotion>,
        then score_<emotion>."""
        names = [name for name, _ in self.lexicons]
        names += [f"report_{e}" for e in self.report_emotions]
        names += [f"score_{e}" for e in self.score_emotions]
        return names


class Kind(NamedTuple):
    """How a value is read from INI text and written back as it.

    parse(raw, base) raises ValueError on bad text and resolves relative
    paths against base (kept as given when base is None); a None result
    reads the default instead. A free-form section is parsed and
    formatted as a whole, as a {name: text} dict of its entries.
    """

    noun: str  # completes "[section] key must be ..."
    parse: Callable[[object, Path | None], object]
    format: Callable[[object], object] = str


def _split_list(raw: str) -> list[str]:
    return raw.replace(",", " ").split()


def _path(raw: str, base: Path | None) -> str:
    raw = raw.strip()
    return raw if base is None or Path(raw).is_absolute() else str((base / raw).resolve())


def _bool(raw: str, base) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(raw) from None


def _pairs(raw: str, base) -> tuple[tuple[str, str], ...]:
    pairs = []
    for item in (p.strip() for p in raw.split(",")):
        if item:
            survey_emotion, colon, signal = item.partition(":")
            if not colon:
                raise ValueError(item)
            pairs.append((survey_emotion.strip(), signal.strip()))
    return tuple(pairs)


INT = Kind("an integer", lambda raw, base: int(raw))
BOOL = Kind("a boolean", _bool, lambda v: "true" if v else "false")
DATE = Kind("an ISO date", lambda raw, base: date.fromisoformat(raw.strip()), date.isoformat)
TEXT = Kind("text", lambda raw, base: raw.strip())
NAMES = Kind("a list of names", lambda raw, base: tuple(_split_list(raw)), ", ".join)
PATH = Kind("a path", lambda raw, base: _path(raw, base) if raw.strip() else None, lambda v: v or "")
PATHS = Kind(
    "a list of paths", lambda raw, base: tuple(_path(p, base) for p in _split_list(raw)), ", ".join
)
PAIRS = Kind("a list of survey_emotion:signal", _pairs, lambda v: ", ".join(f"{a}:{b}" for a, b in v))
TEMPLATES = Kind(
    "a comma-separated list of templates",
    lambda raw, base: tuple(t.strip() for t in raw.split(",") if t.strip()) or None,
    ", ".join,
)
LEXICON_PATHS = Kind(
    "name = path",
    lambda entries, base: tuple((name, _path(raw, base)) for name, raw in entries.items()),
    dict,
)
ADJECTIVES = Kind(
    "emotion = adjective list",
    lambda entries, base: {e: tuple(_split_list(raw)) for e, raw in entries.items()},
    lambda v: {e: ", ".join(adjectives) for e, adjectives in v.items()},
)


class Key(NamedTuple):
    """One row of SCHEMA: a config key and the PipelineConfig attribute it
    sets (filter.* and templates.* reach into those objects)."""

    section: str
    key: str | None  # None: a free-form section of `name = value` entries
    attr: str
    kind: Kind
    help: str
    lo: int | None = None  # inclusive bounds; hi only together with lo
    hi: int | None = None
    choices: tuple[str, ...] | None = None
    flag: str | None = None  # the command-line override, --<flag>

    @property
    def default(self):
        return attrgetter(self.attr)(_DEFAULTS)

    def check(self, value) -> None:
        if self.choices is not None and value not in self.choices:
            raise ConfigError(f"{self.key} must be one of {self.choices}, got {value!r}")
        if self.hi is not None and not self.lo <= value <= self.hi:
            raise ConfigError(f"{self.key} must be within {self.lo}..{self.hi}, got {value}")
        if self.lo is not None and value < self.lo:
            raise ConfigError(f"{self.key} must be >= {self.lo}, got {value}")


# Sections in file order, keys in section order. FilterConfig and
# ReportTemplateSet check their own values when they are built.
SCHEMA = (
    Key("corpus", "input", "inputs", PATHS, "comma-separated corpus paths or globs"),
    Key("corpus", "min_followers", "filter.min_followers", INT, "lowest author_followers kept"),
    Key("corpus", "max_followers", "filter.max_followers", INT, "highest author_followers kept"),
    Key("corpus", "exclude_retweets", "filter.exclude_retweets", BOOL, "drop retweets"),
    # a day at most: parsing keeps posts a day clear of the calendar's ends
    Key("corpus", "tz_offset_minutes", "tz_offset_minutes", INT,
        "minutes added to UTC before assigning posts to days", lo=-1440, hi=1440),
    Key("lexicons", None, "lexicons", LEXICON_PATHS, "one lexicon signal per name = path"),
    Key("reports", "emotions", "report_emotions", NAMES, "explicit-report signals to build"),
    Key("reports", "templates", "templates.templates", TEMPLATES, "report templates, one _ slot each"),
    Key("reports", "slot_gap", "templates.max_slot_gap", INT, "filler words allowed before the adjective"),
    Key("report_adjectives", None, "templates.emotion_terms", ADJECTIVES, "adjectives per report emotion"),
    Key("scores", "path", "score_path", PATH, "classifier score file"),
    Key("scores", "emotions", "score_emotions", NAMES, "score signals to build"),
    Key("survey", "path", "survey_path", PATH, "weekly survey CSV"),
    Key("survey", "pairs", "pairs", PAIRS, "survey_emotion:signal pairs to validate"),
    Key("signals", "gender_mode", "gender_mode", TEXT, "strata of each signal",
        choices=GENDER_MODES, flag="gender-mode"),
    Key("signals", "week_length", "week_length", INT, "days in the window ending at an anchor", lo=1),
    Key("signals", "week_offset", "week_offset", INT, "days the window ends before its anchor", lo=0),
    Key("validate", "split_date", "split_date", DATE, "first anchor of the prediction period",
        flag="split-date"),
    Key("validate", "dcca_window", "dcca_window", INT, "DCCA box size", lo=4, flag="dcca-window"),
    Key("output", "dir", "output_dir", PATH, "output directory", flag="output"),
)

_DEFAULTS = PipelineConfig()

# Keys that once set the permutation count and seed. The p-values now come
# from every circular shift, which needs neither, so a file or a command
# line that still gives one is read, told it is ignored, and run.
RETIRED = (("validate", "permutations"), ("validate", "seed"))


def retired_note(where: str) -> None:
    """Tell stderr that `where`, a retired key or flag, is ignored."""
    print(f"note: {where} is retired and ignored: p-values come from circular shifts",
          file=sys.stderr)


def _parse(row: Key, raw, base: Path | None):
    try:
        return row.kind.parse(raw, base)
    except ValueError:
        key = row.key or "entries"
        raise ConfigError(f"[{row.section}] {key} must be {row.kind.noun}, got {raw!r}") from None


def _syntax_error(err: configparser.Error) -> str:
    """configparser's error, which spans several lines and echoes the
    input, as `line N: reason` on one line."""
    if isinstance(err, configparser.DuplicateSectionError):
        reason = f"section [{err.section}] appears twice"
    elif isinstance(err, configparser.DuplicateOptionError):
        reason = f"key {err.option!r} appears twice in [{err.section}]"
    elif isinstance(err, configparser.MissingSectionHeaderError):
        reason = "expected a [section] header first"
    else:
        reason = "neither a [section] header nor a `key = value` line"
    lineno = getattr(err, "lineno", None) or err.errors[0][0]
    return f"line {lineno}: {reason}"


def load_config(path, overrides: Mapping[str, object] | None = None) -> PipelineConfig:
    """Parse and validate one INI config file (see README for the schema).

    overrides maps PipelineConfig attributes (SCHEMA's attr, as parsed
    values) to values that replace the file's before validation.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as err:
        raise ConfigError(f"{path}: {_syntax_error(err)}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text ({err.reason})") from None

    known: dict[str, set[str | None]] = {}
    for row in SCHEMA:
        known.setdefault(row.section, set()).add(row.key)
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"{path}: unknown section [{section}]; have {sorted(known)}")
        allowed = known[section]
        for key in parser[section]:
            if (section, key) in RETIRED:
                retired_note(f"{path}: [{section}] {key}")
            elif None not in allowed and key not in allowed:
                raise ConfigError(
                    f"{path}: unknown key {key!r} in [{section}]; have {sorted(allowed)}"
                )

    base = path.parent
    values: dict[str, object] = {}
    for row in SCHEMA:
        # a key left out reads as its default's text, so a default path
        # (the output dir) resolves next to the config file like a given one
        default = row.kind.format(row.default)
        if row.key is None:  # the file's entries add to or replace the default's
            section = parser[row.section] if parser.has_section(row.section) else {}
            raw = {**default, **section}
        else:
            raw = parser.get(row.section, row.key, fallback=default)
        value = _parse(row, raw, base)
        values[row.attr] = _parse(row, default, base) if value is None else value
    values.update(overrides or {})

    nested: dict[str, dict[str, object]] = {}  # filter.* and templates.*
    for attr in [a for a in values if "." in a]:
        head, _, tail = attr.partition(".")
        nested.setdefault(head, {})[tail] = values.pop(attr)
    try:
        cfg = PipelineConfig(
            **values, **{head: replace(getattr(_DEFAULTS, head), **kw) for head, kw in nested.items()}
        )
    except LexiconError as err:
        raise ConfigError(f"{path}: [reports] {err}") from None
    cfg.validate()
    return cfg


def config_text(cfg: PipelineConfig, sections=None) -> dict[str, dict[str, str]]:
    """cfg's value of every SCHEMA key as INI text, {section: {key: text}}
    in SCHEMA order; only the named sections when sections is given."""
    out: dict[str, dict[str, str]] = {}
    for row in SCHEMA:
        if sections is None or row.section in sections:
            text = row.kind.format(attrgetter(row.attr)(cfg))
            out.setdefault(row.section, {}).update(text if row.key is None else {row.key: text})
    return out


def format_ini(sections: Mapping[str, Mapping[str, str]]) -> str:
    """INI text of config_text's dict, which load_config reads back."""
    return "\n".join(
        f"[{name}]\n" + "".join(f"{key} = {text}\n" for key, text in keys.items())
        for name, keys in sections.items()
    )


def expand_inputs(cfg: PipelineConfig) -> list[Path]:
    """Expand input globs, each to a sorted file list. A pattern that
    matches nothing is an error, and so is a file (compared resolved) that
    two patterns match, whose posts would be counted twice."""
    if not cfg.inputs:
        raise ConfigError("no corpus inputs configured ([corpus] input)")
    files: list[Path] = []
    matched_by: dict[Path, str] = {}  # resolved file -> the pattern that matched it
    for pattern in cfg.inputs:
        hits = sorted(globlib.glob(pattern))
        if not hits:
            raise ConfigError(f"no input files match {pattern!r}")
        for hit in hits:
            path = Path(hit)
            key = path.resolve()
            if key in matched_by:
                raise ConfigError(
                    f"input file {hit} is matched by both {matched_by[key]!r} and {pattern!r}"
                )
            matched_by[key] = pattern
            files.append(path)
    return files
