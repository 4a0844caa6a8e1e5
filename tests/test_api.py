"""The public names exported by the package."""

import ast
import importlib
import re
from pathlib import Path

import emoscope
from emoscope.cli import main

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
    "post_day",
    "parse_post_record",
    "parse_score_record",
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


def test_every_definition_is_used_by_the_package_or_exported():
    """Each module-level function and class of the package is referenced by
    package code outside its own definition, or is public API: reference
    code that only tests use lives in tests/oracles.py."""
    defined, used = set(), set()
    for path in Path(emoscope.__file__).parent.glob("*.py"):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(stmt.name)
                names.discard(stmt.name)  # a recursive call is no use
            used |= names
    assert defined - used - set(emoscope.__all__) == set()


# Where the package may open a file for writing: errors.writing opens
# every output, and a forked child writes its result to the pipe fork_map
# gave it.
WRITERS = {("errors", "writing"), ("corpus", "_forked_child")}


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether `call` opens a file for writing: open, io.open, gzip.open or
    GzipFile with a mode that writes (or one not known until run time), or
    Path.write_text / write_bytes."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name not in ("open", "GzipFile"):
        return False
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                call.args[1] if len(call.args) > 1 else None)
    if mode is None:
        return False  # every opener's default mode reads
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return bool(set(mode.value) & set("wax+"))


def test_only_errors_writing_opens_files_for_writing():
    """errors.writing is the one place an output file is created, so the
    encoding, line ends, gzip header and error naming are set once."""
    found = set()  # (module, top-level definition, line)
    for path in Path(emoscope.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            found |= {(path.stem, getattr(top, "name", None), node.lineno)
                      for node in ast.walk(top)
                      if isinstance(node, ast.Call) and _opens_for_writing(node)}
    assert {(module, name) for module, name, _ in found} == WRITERS, sorted(found)


def test_exports_are_the_documented_api():
    assert set(emoscope.__all__) == API
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Python API\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"`(\w+)`", section)) >= API - {"__version__"}


def test_readme_python_example_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert main(["synth", "--out", str(tmp_path / "work"), "--days", "120",
                 "--posts-per-day", "20"]) == 0
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    cfg = emoscope.load_config(tmp_path / "work" / "pipeline.ini")
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(cfg.pairs) > 0  # one rescaled row per pair
    assert [line.split()[:2] for line in lines] == [list(pair) for pair in cfg.pairs]
