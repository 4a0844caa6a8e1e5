"""The public names exported by the package."""

import importlib
import re
from pathlib import Path

import emoscope

# The API the README's "Python API" section documents; the rest is reached
# through its submodule.
API = {
    "ConfigError", "EmoscopeError",
    "PipelineConfig", "load_config",
    "build_signals", "run_validation", "thirdperson_rows",
    "FilterConfig", "Post", "StreamCounts", "stream_posts",
    "load_lexicon", "tokenize",
    "load_survey", "weekly_align",
    "correlate", "dcca", "kpss", "lagged_regression_hac", "permutation_test", "roc_auc",
    "SynthConfig", "generate_corpus",
    "__version__",
}

# Reference code that only tests use; it lives in tests/oracles.py.
TEST_ONLY = {
    "daily_fraction",
    "daily_mean_score",
    "lexicon_predicate",
    "pronoun_predicate",
    "report_predicate",
    "matches_lexicon",
    "matches_explicit_report",
    "normal_cdf",
    "normal_quantile",
    "t_cdf",
    "chi2_sf",
    "post_record",
    "serialize_post",
    "filter_post",
}


def test_every_exported_name_imports():
    namespace: dict = {}
    exec("from emoscope import *", namespace)  # raises if a listed name is missing
    assert set(emoscope.__all__) <= set(namespace)
    assert len(set(emoscope.__all__)) == len(emoscope.__all__)


def test_test_only_code_is_not_exported():
    assert TEST_ONLY.isdisjoint(emoscope.__all__)
    assert not any(hasattr(emoscope, name) for name in TEST_ONLY)
    for module in ("corpus", "lexicon", "signals", "stats", "special", "pipeline"):
        leaked = TEST_ONLY & set(vars(importlib.import_module(f"emoscope.{module}")))
        assert leaked == set(), module


def test_exports_are_the_documented_api():
    assert set(emoscope.__all__) == API
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Python API\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"`(\w+)`", section)) >= API - {"__version__"}
