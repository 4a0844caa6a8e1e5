"""Emotion macroscope toolkit.

Turns NDJSON social-media corpora into daily emotion time series (lexicon
matches, explicit first-person reports, classifier scores), aligns them to
weekly survey anchors, and runs a correlation/stationarity validation
battery against the survey. Includes a synthetic-corpus generator with
planted ground truth for end-to-end checks.

The names below are the API the README's "Python API" section lists;
everything else is reached through its submodule (emoscope.stats, ...).
"""

# Without bytecode caches (PYTHONDONTWRITEBYTECODE) every start compiles the
# sources below, and after each compile glibc may or may not give the top of
# the heap back, as a few bytes of layout (the length of the install path,
# say) decide: the peak RSS of a short command then moved by 0.4 MB between
# two copies of the same code. Freeing one 512 KiB block first raises
# glibc's dynamic mmap threshold to 512 KiB and its trim threshold to 1 MiB,
# which takes that chance out. The block comes from calloc and is never
# written, so it costs no resident memory; other allocators ignore it.
bytes(512 * 1024)

from .config import PipelineConfig, load_config
from .corpus import FilterConfig, Post, StreamCounts, stream_posts
from .errors import ConfigError, EmoscopeError
from .lexicon import load_lexicon, tokenize
from .pipeline import build_signals, run_validation, thirdperson_rows
from .signals import load_survey, weekly_align
from .stats import correlate, dcca, kpss, lagged_regression_hac, permutation_test, roc_auc
from .synth import SynthConfig, generate_corpus

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "EmoscopeError",
    "FilterConfig",
    "PipelineConfig",
    "Post",
    "StreamCounts",
    "SynthConfig",
    "build_signals",
    "correlate",
    "dcca",
    "generate_corpus",
    "kpss",
    "lagged_regression_hac",
    "load_config",
    "load_lexicon",
    "load_survey",
    "permutation_test",
    "roc_auc",
    "run_validation",
    "stream_posts",
    "thirdperson_rows",
    "tokenize",
    "weekly_align",
    "__version__",
]
