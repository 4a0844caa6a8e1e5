"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with `pytest tests/test_acceptance.py -v`; every criterion announces
PASS/FAIL on its own line (bypassing capture) with the measured figures,
so the log doubles as the acceptance record. Heavyweight fixtures (the
1.2M-post synthetic corpus) are built once and shared across criteria.
"""

import time
from contextlib import contextmanager
from datetime import date
from pathlib import Path

import numpy as np

from emoscope.corpus import stream_posts
from emoscope.lexicon import (
    DEMO_LEXICON_NAMES,
    MultiLexiconMatcher,
    demo_lexicon,
    tokenize,
)
from emoscope.signals import DailySignal, gender_rescale, weekly_align
from emoscope.stats import (
    chi2_two_proportions,
    correlation_p,
    dcca,
    fisher_ci,
    kpss,
    pearson,
    percent_difference,
    permutation_test,
    roc_auc,
    significance_marker,
)
from emoscope.synth import SynthConfig, generate_corpus, weekly_anchors


@contextmanager
def criterion(capsys, num: int, label: str):
    """Emit exactly one live PASS/FAIL line for the enclosed checks."""
    detail: dict = {}
    try:
        yield detail
    except BaseException as err:
        with capsys.disabled():
            print(f"\nACCEPTANCE {num:02d} FAIL  {label}: {err}")
        raise
    note = detail.get("note", "")
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d} PASS  {label}" + (f": {note}" if note else ""))


# Published intervals reproduced from their printed inputs (r, n).
# (r, lo, hi); historical n=71, prediction n=35.
TABLE_HISTORICAL = [
    (0.688, 0.542, 0.794),
    (0.636, 0.472, 0.757),
    (0.780, 0.668, 0.857),
    (0.793, 0.687, 0.866),
    (0.298, 0.069, 0.497),
    (0.576, 0.396, 0.713),
]
TABLE_PREDICTION = [
    (0.672, 0.437, 0.821),
    (0.653, 0.408, 0.810),
    (0.471, 0.163, 0.695),
    (0.295, -0.042, 0.572),
    (0.043, -0.295, 0.371),
    (0.551, 0.267, 0.747),
]
N_HISTORICAL, N_PREDICTION = 71, 35


def _ar1(rng: np.random.Generator, n: int, phi: float) -> np.ndarray:
    noise = rng.normal(size=n) * np.sqrt(1.0 - phi * phi)
    x = np.empty(n)
    x[0] = rng.normal()
    for t in range(1, n):
        x[t] = phi * x[t - 1] + noise[t]
    return x


def _rmse(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean((np.asarray(a) - np.asarray(b)) ** 2)))


# --- shared 1.2M-post corpus (criteria 6 and 10) ------------------------

_BIG: dict = {}

BIG_CFG = SynthConfig(
    days=120,
    posts_per_day=10_000,
    seed=1,
    start=date(2020, 6, 1),
    male_share=0.639,
    amplitude=0.025,
    phi=0.9,
    # per-gender prevalences differ by 100%, well past the 50% the
    # rescaling comparison requires
    prevalence={"sadness": (0.04, 0.08)},
)


def _big_corpus(tmp_path_factory) -> dict:
    if not _BIG:
        root = tmp_path_factory.mktemp("acceptance")
        path = root / "corpus.ndjson"
        t0 = time.perf_counter()
        truth = generate_corpus(BIG_CFG, path)
        _BIG.update(
            path=path, truth=truth, gen_seconds=time.perf_counter() - t0
        )
    return _BIG


# --- criteria ------------------------------------------------------------


def test_criterion_01_confidence_intervals(capsys):
    with criterion(capsys, 1, "all 12 printed intervals within 0.01/endpoint") as d:
        t0 = time.perf_counter()
        worst = 0.0
        for rows, n in ((TABLE_HISTORICAL, N_HISTORICAL), (TABLE_PREDICTION, N_PREDICTION)):
            for r, lo, hi in rows:
                got_lo, got_hi = fisher_ci(r, n)
                worst = max(worst, abs(got_lo - lo), abs(got_hi - hi))
                assert abs(got_lo - lo) <= 0.01, (r, n, got_lo, lo)
                assert abs(got_hi - hi) <= 0.01, (r, n, got_hi, hi)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.3f}s"
        d["note"] = f"worst endpoint error {worst:.5f}, {elapsed * 1e3:.1f} ms"


def test_criterion_02_significance_markers(capsys):
    with criterion(capsys, 2, "significance markers match the printed table") as d:
        p_dot = correlation_p(0.295, N_PREDICTION)
        assert 0.05 < p_dot < 0.1, p_dot
        assert significance_marker(p_dot) == "·"

        p_ns = correlation_p(0.043, N_PREDICTION)
        assert p_ns > 0.5, p_ns
        assert significance_marker(p_ns) == "(n.s.)"

        three_star = [(r, N_HISTORICAL) for r, _, _ in TABLE_HISTORICAL if r != 0.298]
        three_star += [(r, N_PREDICTION) for r in (0.672, 0.653, 0.551)]
        for r, n in three_star:
            p = correlation_p(r, n)
            assert p < 0.001, (r, n, p)
            assert significance_marker(p) == "***"
        d["note"] = (
            f"p(0.295)={p_dot:.4f}, p(0.043)={p_ns:.3f}, "
            f"{len(three_star)} three-star rows all p<0.001"
        )


def test_criterion_03_si_intervals(capsys):
    with criterion(capsys, 3, "full-period intervals at n=105 within 0.01") as d:
        cases = [(0.35, 0.17, 0.507), (0.794, 0.711, 0.855)]
        worst = 0.0
        for r, lo, hi in cases:
            got_lo, got_hi = fisher_ci(r, 105)
            worst = max(worst, abs(got_lo - lo), abs(got_hi - hi))
            assert abs(got_lo - lo) <= 0.01, (r, got_lo, lo)
            assert abs(got_hi - hi) <= 0.01, (r, got_hi, hi)
        d["note"] = f"worst endpoint error {worst:.5f}"


def test_criterion_04_pronoun_proportions(capsys):
    with criterion(capsys, 4, "third-person percent differences and chi-square") as d:
        # (share with pronouns %, share without %, printed % difference)
        rows = [(29.3, 16.7, 74.85), (27.0, 16.66, 62.12), (20.3, 15.0, 34.97)]
        n = 1_000_000
        diffs = []
        for p_with, p_without, printed in rows:
            got = percent_difference(p_with, p_without)
            diffs.append(got)
            assert abs(got - printed) <= 1.5, (p_with, p_without, got, printed)
            k1 = round(p_with / 100 * n)
            k2 = round(p_without / 100 * n)
            _, p = chi2_two_proportions(k1, n, k2, n)
            assert p < 0.0001, (p_with, p_without, p)
        d["note"] = (
            "differences "
            + "/".join(f"{x:.2f}%" for x in diffs)
            + f", chi-square p<0.0001 at n={n:,} per group"
        )


def _dcca_reference(x: np.ndarray, y: np.ndarray, window: int) -> float:
    """Slow literal implementation: integrate, detrend per box with polyfit."""
    px = np.cumsum(x - x.mean())
    py = np.cumsum(y - y.mean())
    t = np.arange(window, dtype=float)
    cov = varx = vary = 0.0
    for s in range(len(px) - window + 1):
        bx = px[s : s + window]
        by = py[s : s + window]
        rx = bx - np.polyval(np.polyfit(t, bx, 1), t)
        ry = by - np.polyval(np.polyfit(t, by, 1), t)
        cov += float(rx @ ry)
        varx += float(rx @ rx)
        vary += float(ry @ ry)
    return cov / np.sqrt(varx * vary)


def test_criterion_05_dcca_against_reference(capsys):
    with criterion(capsys, 5, "DCCA matches literal reference to 1e-9") as d:
        t0 = time.perf_counter()
        worst = 0.0
        for i in range(50):
            rng = np.random.default_rng(5000 + i)
            x = _ar1(rng, 120, 0.6)
            y = 0.5 * x + 0.5 * _ar1(rng, 120, 0.6)
            got = dcca(x, y, window=12).rho
            ref = _dcca_reference(x, y, 12)
            worst = max(worst, abs(got - ref))
            assert abs(got - ref) <= 1e-9, (i, got, ref)

        z = _ar1(np.random.default_rng(42), 120, 0.5)
        assert dcca(z, z, window=12).rho == 1.0
        assert dcca(z, -z, window=12).rho == -1.0
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        d["note"] = (
            f"50 AR(1) pairs, worst |diff| {worst:.2e}, "
            f"self/negated exactly +/-1, {elapsed:.2f}s"
        )


def test_criterion_06_planted_signal_recovery(capsys, tmp_path_factory):
    with criterion(capsys, 6, "rescaled weekly signal recovers planted truth") as d:
        big = _big_corpus(tmp_path_factory)
        t0 = time.perf_counter()
        truth = big["truth"]

        sad = demo_lexicon("sadness")
        matcher = MultiLexiconMatcher([sad])
        acc: dict = {}
        for post in stream_posts([big["path"]]):
            hit = matcher.match_mask(tokenize(post.text)) & 1
            row = acc.setdefault(post.timestamp.date(), [0, 0, 0, 0, 0, 0])
            g = post.author_gender.value
            if g == "male":
                row[1] += 1
                row[0] += hit
            elif g == "female":
                row[3] += 1
                row[2] += hit
            row[5] += 1
            row[4] += hit

        male = DailySignal.from_counts("m", {d_: (r[0], r[1]) for d_, r in acc.items()})
        female = DailySignal.from_counts("f", {d_: (r[2], r[3]) for d_, r in acc.items()})
        everyone = DailySignal.from_counts("all", {d_: (r[4], r[5]) for d_, r in acc.items()})
        rescaled = gender_rescale(male, female)

        anchors = weekly_anchors(BIG_CFG.start, BIG_CFG.days)
        weekly_rescaled = weekly_align(rescaled, anchors)
        weekly_everyone = weekly_align(everyone, anchors)
        planted = truth.weekly_population(anchors)["sadness"]
        got_rescaled = np.array([weekly_rescaled.values[a] for a in anchors])
        got_everyone = np.array([weekly_everyone.values[a] for a in anchors])

        r = pearson(got_rescaled, planted)
        rmse_rescaled = _rmse(got_rescaled, planted)
        rmse_raw = _rmse(got_everyone, planted)
        elapsed = big["gen_seconds"] + (time.perf_counter() - t0)

        assert r > 0.95, r
        assert rmse_rescaled < rmse_raw, (rmse_rescaled, rmse_raw)
        assert elapsed < 120.0, f"took {elapsed:.1f}s"
        d["note"] = (
            f"r={r:.4f} over {len(anchors)} weeks, RMSE {rmse_rescaled:.5f} "
            f"(rescaled) vs {rmse_raw:.5f} (raw mix), {elapsed:.1f}s incl. generation"
        )


def test_criterion_07_permutation_calibration(capsys):
    with criterion(capsys, 7, "permutation test calibrated on AR(1) nulls") as d:
        t0 = time.perf_counter()
        replicates, rejections = 500, 0
        for i in range(replicates):
            rng = np.random.default_rng(7000 + i)
            x = _ar1(rng, 70, 0.3)
            y = _ar1(rng, 70, 0.3)
            if permutation_test(x, y, n_perm=1000, seed=i) < 0.05:
                rejections += 1
        rate = rejections / replicates
        elapsed = time.perf_counter() - t0
        assert 0.02 <= rate <= 0.09, rate
        assert elapsed < 300.0, f"took {elapsed:.1f}s"
        d["note"] = (
            f"rejection rate {rate:.3f} at nominal 0.05 "
            f"({replicates} replicates, 1000 permutations, {elapsed:.1f}s)"
        )


def test_criterion_08_kpss_calibration(capsys):
    with criterion(capsys, 8, "KPSS separates white noise from random walks") as d:
        replicates = 500
        wn = sum(
            kpss(np.random.default_rng(8000 + i).normal(size=100)).statistic < 0.463
            for i in range(replicates)
        ) / replicates
        walk = sum(
            kpss(np.cumsum(np.random.default_rng(8100 + i).normal(size=400))).statistic
            > 0.739
            for i in range(replicates)
        ) / replicates
        # At n=100 the level test's automatic lag caps detection power well
        # below 0.9 for walks; recorded here, asserted at n=400.
        walk_short = sum(
            kpss(np.cumsum(np.random.default_rng(8100 + i).normal(size=100))).statistic
            > 0.739
            for i in range(replicates)
        ) / replicates
        assert wn >= 0.90, wn
        assert walk >= 0.90, walk
        d["note"] = (
            f"white noise n=100: {wn:.3f} below 0.463; random walk n=400: "
            f"{walk:.3f} above 0.739 (n=100 gives {walk_short:.3f}, underpowered)"
        )


def test_criterion_09_auc_equals_pairwise(capsys):
    with criterion(capsys, 9, "roc_auc equals exhaustive pairwise counting") as d:
        rng = np.random.default_rng(9000)
        checked = 0
        for _ in range(1000):
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[rng.integers(n)] ^= 1
            scores = rng.normal(size=n)
            if rng.random() < 0.5:
                scores = np.round(scores, 1)  # force ties

            wins = 0.0
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            for sp in pos:
                for sn in neg:
                    if sp > sn:
                        wins += 1.0
                    elif sp == sn:
                        wins += 0.5
            expect = wins / (len(pos) * len(neg))
            assert roc_auc(labels, scores) == expect, (labels, scores)
            checked += 1
        d["note"] = f"{checked} random instances (n<=50, with ties), all exactly equal"


def test_criterion_10_throughput(capsys, tmp_path_factory):
    with criterion(capsys, 10, "matching + daily aggregation >= 100k posts/s") as d:
        big = _big_corpus(tmp_path_factory)
        matcher = MultiLexiconMatcher([demo_lexicon(n) for n in DEMO_LEXICON_NAMES])
        sad_bit = 1 << matcher.names.index("sadness")

        counts: dict = {}
        timed = 0.0
        total = 0
        chunk: list = []
        wall0 = time.perf_counter()

        def flush() -> None:
            nonlocal timed, total
            t0 = time.perf_counter()
            for post in chunk:
                hit = matcher.match_mask(tokenize(post.text)) & sad_bit
                row = counts.setdefault(post.timestamp.date(), [0, 0])
                row[1] += 1
                if hit:
                    row[0] += 1
            timed += time.perf_counter() - t0
            total += len(chunk)
            chunk.clear()

        for post in stream_posts([big["path"]]):
            chunk.append(post)
            if len(chunk) >= 100_000:
                flush()
        flush()
        wall = time.perf_counter() - wall0

        rate = total / timed
        end_to_end = total / wall
        assert total >= 1_000_000, total
        assert rate >= 100_000, f"{rate:,.0f} posts/s"
        d["note"] = (
            f"{rate:,.0f} posts/s matching+aggregation on {total:,} posts "
            f"({end_to_end:,.0f} posts/s including NDJSON parsing)"
        )


def test_criterion_11_nonreproducible_stated(capsys):
    with criterion(capsys, 11, "limits of reproduction stated in README") as d:
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8"
        )
        lowered = text.lower()
        assert "not reproducible" in lowered
        assert "proprietary" in lowered
        assert "0.89" in text and "0.94" in text
        assert "classifier" in lowered
        d["note"] = (
            "README states raw-data correlations, DCCA/regression/stationarity "
            "values on those data, and classifier AUCs 0.89-0.94 are out of reach"
        )
