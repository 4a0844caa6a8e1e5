"""Span tracing for one emoscope CLI invocation, applied from outside.

The child side (`run_traced`) imports `emoscope.cli`, replaces the public
functions of each layer as `emoscope.pipeline` and `emoscope.cli` see them
with timing wrappers, runs `main`, and writes every span (name, start,
end, parent) plus a few counters to one file when `main` returns. Spans
are kept in flat arrays so that per-post calls stay cheap to record.

The parent side (`summarize`) turns such a file into per-name total and
self times. Nothing in `src/` is edited: the wrappers only rebind module
and class attributes inside the traced child process.

Stdlib only on the child side, so importing this module costs nothing
measurable before `cli.import` is timed.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import time
from array import array

from launch import T0_ENV  # launch.py sets it at the spawn

SPANS_ENV = "EMOSCOPE_BENCH_SPANS"

_MAGIC = b"SPAN1\n"


class Tracer:
    """In-memory span store; a span's parent is the span open when it began."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a finished span under the currently open one."""
        self.name_ids.append(self.name_id(name))
        self.parents.append(self.stack[-1])
        self.starts.append(start)
        self.ends.append(end)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """Time every call of fn as one span; after(result, args, kwargs)
        may update counters once the call returned."""
        nid = self.name_id(name)
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def wrap_generator(self, name: str, fn, on_item=None, on_done=None):
        """Time the work done inside a generator: one span per next() call.
        on_done(args, kwargs) runs once the generator is exhausted."""
        nid = self.name_id(name)
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def stepping():
                while True:
                    idx = len(starts)
                    name_ids.append(nid)
                    parents.append(stack[-1])
                    ends.append(0.0)
                    stack.append(idx)
                    starts.append(clock())
                    try:
                        item = next(inner)
                    except StopIteration:
                        break
                    finally:
                        ends[idx] = clock()
                        stack.pop()
                    if on_item is not None:
                        on_item(item)
                    yield item
                if on_done is not None:
                    on_done(args, kwargs)

            return stepping()

        return traced

    def dump(self, path) -> None:
        header = json.dumps({"names": self.names, "counters": self.counters}).encode()
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<qq", len(header), len(self.starts)))
            fh.write(header)
            self.name_ids.tofile(fh)
            self.parents.tofile(fh)
            self.starts.tofile(fh)
            self.ends.tofile(fh)


def _arg(args, kwargs, pos, key):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else None


def install(tracer: Tracer) -> None:
    """Rebind the public functions of every layer as pipeline and cli see them."""
    from emoscope import cli, pipeline

    w = tracer.wrap

    # corpus: time inside the stream, bookkeeping read once it is drained
    def corpus_done(args, kwargs):
        paths = _arg(args, kwargs, 0, "paths") or ()
        tracer.count("corpus.bytes_in", sum(os.path.getsize(p) for p in paths))
        counts = _arg(args, kwargs, 2, "counts")
        if counts is not None:
            tracer.count("corpus.records", counts.records)
            tracer.count("corpus.malformed", counts.malformed)
            tracer.count("corpus.filtered", counts.dropped)
            tracer.count("corpus.kept", counts.kept)

    pipeline.stream_posts = tracer.wrap_generator(
        "corpus.stream_posts", pipeline.stream_posts, on_done=corpus_done)

    # lexicon: per-post calls
    def count_tokens(result, args, kwargs):
        tracer.count("lexicon.tokens", len(result))

    def count_matched(result, args, kwargs):
        if result:
            tracer.count("lexicon.matched_posts")

    pipeline.tokenize = w("lexicon.tokenize", pipeline.tokenize, count_tokens)
    matcher_cls = pipeline.MultiLexiconMatcher
    matcher_cls.match_mask = w("lexicon.match_mask", matcher_cls.match_mask, count_matched)
    report_cls = pipeline.ExplicitReportMatcher
    report_cls.match = w("lexicon.report_match", report_cls.match)
    pipeline.contains_third_person = w(
        "lexicon.contains_third_person", pipeline.contains_third_person)

    # signals
    pipeline.stream_scores = tracer.wrap_generator(
        "signals.stream_scores", pipeline.stream_scores,
        on_item=lambda item: tracer.count("signals.score_records"))
    pipeline.weekly_align = w("signals.weekly_align", pipeline.weekly_align)
    pipeline.gender_rescale = w("signals.gender_rescale", pipeline.gender_rescale)
    pipeline.write_daily_csv = w("signals.write_csv", pipeline.write_daily_csv)
    pipeline.write_weekly_csv = w("signals.write_csv", pipeline.write_weekly_csv)
    pipeline.load_survey = w("signals.load_survey", pipeline.load_survey)

    # stats: the Pearson and DCCA permutation paths are told apart by
    # whether a custom statistic is passed
    pearson_perm = w("stats.permutation_test_pearson", pipeline.permutation_test)
    dcca_perm = w("stats.permutation_test_dcca", pipeline.permutation_test)

    def permutation_test(*args, **kwargs):
        tracer.count("stats.permutations", kwargs.get("n_perm", 10_000))
        if _arg(args, kwargs, 2, "statistic") is None:
            return pearson_perm(*args, **kwargs)
        return dcca_perm(*args, **kwargs)

    pipeline.permutation_test = permutation_test
    for name in ("dcca", "correlate", "lagged_regression_hac", "kpss"):
        setattr(pipeline, name, w(f"stats.{name}", getattr(pipeline, name)))

    # pipeline, as the CLI calls it
    def count_rows(rows, args, kwargs):
        tracer.count("pipeline.rows", len(rows))
        tracer.count("pipeline.rows_computed", sum(1 for row in rows if _row_complete(row)))

    cli.build_signals = w("pipeline.build_signals", cli.build_signals)
    cli.run_validation = w("pipeline.run_validation", cli.run_validation, count_rows)
    cli.thirdperson_rows = w("pipeline.thirdperson_rows", cli.thirdperson_rows)
    for name in ("write_signal_outputs", "write_manifest", "write_report_csv",
                 "format_report_table", "write_proportions_csv", "format_proportions_table"):
        setattr(cli, name, w(f"pipeline.{name}", getattr(cli, name)))

    # config and synth, as the CLI calls them
    cli.load_config = w("config.load_config", cli.load_config)
    for name in ("generate_corpus", "generate_scores", "generate_survey"):
        setattr(cli, name, w(f"synth.{name}", getattr(cli, name)))


_ROW_STATS = ("r1", "r2", "perm_p", "dcca_rho", "dcca_p", "beta", "beta_p", "kpss_stat")


def _row_complete(row) -> bool:
    return not row.notes and all(getattr(row, f) is not None for f in _ROW_STATS)


def run_traced(argv) -> int:
    """Child entry point: time the import, trace main(argv), dump spans."""
    t0 = float(os.environ[T0_ENV])
    out_path = os.environ[SPANS_ENV]
    tracer = Tracer()
    from emoscope.cli import main

    tracer.add_span("cli.import", t0, time.perf_counter())
    install(tracer)
    traced_main = tracer.wrap("cli.main", main)
    try:
        return traced_main(argv)
    finally:
        tracer.dump(out_path)


def load(path) -> dict:
    """Read a span file back into numpy arrays (parent side)."""
    import numpy as np

    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ValueError(f"{path}: not a span file")
        header_len, n = struct.unpack("<qq", fh.read(16))
        header = json.loads(fh.read(header_len))
        name_ids = np.fromfile(fh, dtype=np.int32, count=n)
        parents = np.fromfile(fh, dtype=np.int32, count=n)
        starts = np.fromfile(fh, dtype=np.float64, count=n)
        ends = np.fromfile(fh, dtype=np.float64, count=n)
    return {"names": header["names"], "counters": header["counters"], "name_ids": name_ids,
            "parents": parents, "starts": starts, "ends": ends}


def summarize(spans: dict) -> dict:
    """Per span name: calls, total seconds and self seconds (its duration
    minus the time its direct child spans cover), plus root coverage."""
    import numpy as np

    dur = spans["ends"] - spans["starts"]
    parents = spans["parents"]
    ids = spans["name_ids"]
    n_names = len(spans["names"])
    has_parent = parents >= 0
    child_time = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_time
    totals = np.bincount(ids, weights=dur, minlength=n_names)
    selfs = np.bincount(ids, weights=self_time, minlength=n_names)
    calls = np.bincount(ids, minlength=n_names)
    per_name = {
        name: {"calls": int(calls[i]), "total_s": float(totals[i]), "self_s": float(selfs[i])}
        for i, name in enumerate(spans["names"])
    }
    return {"spans": per_name, "root_s": float(dur[~has_parent].sum()),
            "counters": dict(spans["counters"]), "n_spans": int(len(dur))}


if __name__ == "__main__":
    sys.exit(run_traced(sys.argv[1:]))
