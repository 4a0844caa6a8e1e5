"""The public names exported by the package."""

import importlib

import emoscope

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
