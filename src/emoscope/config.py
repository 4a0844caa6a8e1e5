"""Pipeline configuration: one INI-style file plus command-line overrides.

The config file is the run's provenance: everything that affects output
lives here, and relative paths resolve against the file's own directory
so a run directory can be archived and replayed as a unit.
"""

from __future__ import annotations

import configparser
import glob as globlib
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

from .corpus import FilterConfig
from .errors import ConfigError, LexiconError
from .lexicon import DEFAULT_TEMPLATES, ReportTemplateSet, YOUGOV_EMOTIONS

GENDER_MODES = ("agnostic", "stratified", "rescaled")

DEFAULT_SPLIT_DATE = date(2020, 11, 1)
DEFAULT_PERMUTATIONS = 10_000
DEFAULT_DCCA_WINDOW = 12


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
    split_date: date = DEFAULT_SPLIT_DATE
    gender_mode: str = "rescaled"
    filter: FilterConfig = field(default_factory=FilterConfig)
    tz_offset_minutes: int = 0
    week_length: int = 7
    week_offset: int = 0
    permutations: int = DEFAULT_PERMUTATIONS
    seed: int = 1
    dcca_window: int = DEFAULT_DCCA_WINDOW
    output_dir: str = "out"

    def validate(self) -> None:
        if self.gender_mode not in GENDER_MODES:
            raise ConfigError(f"gender_mode must be one of {GENDER_MODES}, got {self.gender_mode!r}")
        # a day at most: parsing keeps posts a day clear of the calendar's ends
        if not -1440 <= self.tz_offset_minutes <= 1440:
            raise ConfigError(
                f"tz_offset_minutes must be within -1440..1440, got {self.tz_offset_minutes}"
            )
        if self.week_length < 1:
            raise ConfigError(f"week_length must be >= 1, got {self.week_length}")
        if self.week_offset < 0:
            raise ConfigError(f"week_offset must be >= 0, got {self.week_offset}")
        if self.permutations < 1:
            raise ConfigError(f"permutations must be >= 1, got {self.permutations}")
        if self.dcca_window < 4:
            raise ConfigError(f"dcca_window must be >= 4, got {self.dcca_window}")
        names = [name for name, _ in self.lexicons]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate lexicon signal names: {names}")
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


_KNOWN_KEYS = {
    "corpus": {"input", "min_followers", "max_followers", "exclude_retweets", "tz_offset_minutes"},
    "lexicons": None,  # free-form: name = path
    "reports": {"emotions", "templates", "slot_gap"},
    "report_adjectives": None,  # free-form: emotion = adjective list
    "scores": {"path", "emotions"},
    "survey": {"path", "pairs"},
    "signals": {"gender_mode", "week_length", "week_offset"},
    "validate": {"split_date", "permutations", "seed", "dcca_window"},
    "output": {"dir"},
}


def _split_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.replace(",", " ").split() if part.strip()]


def _get_int(section, key: str, default: int) -> int:
    raw = section.get(key)
    if raw is None:
        return default
    try:
        return int(raw.strip())
    except ValueError:
        raise ConfigError(f"[{section.name}] {key} must be an integer, got {raw!r}") from None


def _get_bool(section, key: str, default: bool) -> bool:
    raw = section.get(key)
    if raw is None:
        return default
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"[{section.name}] {key} must be a boolean, got {raw!r}")


def _get_date(section, key: str, default: date) -> date:
    raw = section.get(key)
    if raw is None:
        return default
    try:
        return date.fromisoformat(raw.strip())
    except ValueError:
        raise ConfigError(f"[{section.name}] {key} must be an ISO date, got {raw!r}") from None


def load_config(path) -> PipelineConfig:
    """Parse and validate one INI config file (see README for the schema)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as err:
        raise ConfigError(f"{path}: {err}") from None

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]; have {sorted(_KNOWN_KEYS)}")
        allowed = _KNOWN_KEYS[section]
        if allowed is not None:
            for key in parser[section]:
                if key not in allowed:
                    raise ConfigError(
                        f"{path}: unknown key {key!r} in [{section}]; have {sorted(allowed)}"
                    )

    base = path.parent

    def resolve(p: str) -> str:
        return str((base / p).resolve()) if not Path(p).is_absolute() else p

    cfg = PipelineConfig()

    if parser.has_section("corpus"):
        sec = parser["corpus"]
        raw_inputs = sec.get("input", "")
        cfg.inputs = tuple(resolve(p) for p in _split_list(raw_inputs))
        cfg.filter = FilterConfig(
            min_followers=_get_int(sec, "min_followers", cfg.filter.min_followers),
            max_followers=_get_int(sec, "max_followers", cfg.filter.max_followers),
            exclude_retweets=_get_bool(sec, "exclude_retweets", cfg.filter.exclude_retweets),
        )
        cfg.tz_offset_minutes = _get_int(sec, "tz_offset_minutes", 0)

    if parser.has_section("lexicons"):
        cfg.lexicons = tuple(
            (name, resolve(value.strip())) for name, value in parser["lexicons"].items()
        )

    if parser.has_section("reports"):
        sec = parser["reports"]
        emotions = tuple(_split_list(sec.get("emotions", "")))
        raw_templates = sec.get("templates")
        templates = (
            tuple(t.strip() for t in raw_templates.split(",") if t.strip())
            if raw_templates
            else DEFAULT_TEMPLATES
        )
        adjectives = {name: (name,) for name in YOUGOV_EMOTIONS}
        if parser.has_section("report_adjectives"):
            for emotion, value in parser["report_adjectives"].items():
                adjectives[emotion] = tuple(_split_list(value))
        try:
            cfg.templates = ReportTemplateSet(
                templates=templates,
                emotion_terms=adjectives,
                max_slot_gap=_get_int(sec, "slot_gap", 1),
            )
        except LexiconError as err:
            raise ConfigError(f"{path}: [reports] {err}") from None
        unknown = [e for e in emotions if e not in adjectives]
        if unknown:
            raise ConfigError(f"{path}: [reports] emotions {unknown} have no adjectives")
        cfg.report_emotions = emotions

    if parser.has_section("scores"):
        sec = parser["scores"]
        raw_path = sec.get("path")
        cfg.score_path = resolve(raw_path.strip()) if raw_path else None
        cfg.score_emotions = tuple(_split_list(sec.get("emotions", "")))

    if parser.has_section("survey"):
        sec = parser["survey"]
        raw_path = sec.get("path")
        cfg.survey_path = resolve(raw_path.strip()) if raw_path else None
        pairs = []
        for item in [p.strip() for p in sec.get("pairs", "").split(",") if p.strip()]:
            if ":" not in item:
                raise ConfigError(
                    f"{path}: [survey] pairs entries are survey_emotion:signal, got {item!r}"
                )
            survey_emotion, _, signal = item.partition(":")
            pairs.append((survey_emotion.strip(), signal.strip()))
        cfg.pairs = tuple(pairs)

    if parser.has_section("signals"):
        sec = parser["signals"]
        cfg.gender_mode = sec.get("gender_mode", cfg.gender_mode).strip()
        cfg.week_length = _get_int(sec, "week_length", cfg.week_length)
        cfg.week_offset = _get_int(sec, "week_offset", cfg.week_offset)

    if parser.has_section("validate"):
        sec = parser["validate"]
        cfg.split_date = _get_date(sec, "split_date", cfg.split_date)
        cfg.permutations = _get_int(sec, "permutations", cfg.permutations)
        cfg.seed = _get_int(sec, "seed", cfg.seed)
        cfg.dcca_window = _get_int(sec, "dcca_window", cfg.dcca_window)

    raw_dir = parser["output"].get("dir") if parser.has_section("output") else None
    # the default lands next to the config file, not in the process cwd
    cfg.output_dir = resolve((raw_dir or cfg.output_dir).strip())

    cfg.validate()
    return cfg


def expand_inputs(cfg: PipelineConfig) -> list[Path]:
    """Expand input globs to a sorted file list; nothing found is an error."""
    if not cfg.inputs:
        raise ConfigError("no corpus inputs configured ([corpus] input)")
    files: list[Path] = []
    for pattern in cfg.inputs:
        hits = sorted(globlib.glob(pattern))
        if not hits:
            raise ConfigError(f"no input files match {pattern!r}")
        files.extend(Path(h) for h in hits)
    return files
