"""Statistics battery: frozen oracle values first, then invariants."""

import math
import os
import sys
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from emoscope import stats
from emoscope.errors import StatError
from emoscope.special import betainc, student_t_p
from emoscope.stats import (
    _DCCA_BLOCK,
    _average_ranks,
    _chi2_sf_1df,
    chi2_two_proportions,
    correlate,
    correlation_p,
    dcca,
    fisher_ci,
    kpss,
    kpss_lag,
    lagged_regression_hac,
    newey_west_lag,
    pearson,
    percent_difference,
    permutation_test,
    roc_auc,
    roc_curve,
    significance_marker,
)

# Published weekly-correlation table: six signal pairs, historical period
# n=71 anchors, prediction period n=35. Each row is (r, ci_low, ci_high).
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


class TestPearson:
    def test_perfect_and_reversed(self):
        assert pearson([1, 2, 3, 4], [2, 4, 6, 8]) == pytest.approx(1.0)
        assert pearson([1, 2, 3, 4], [8, 6, 4, 2]) == pytest.approx(-1.0)

    def test_half(self):
        assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=40), rng.normal(size=40)
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)

    def test_nan_pairs_dropped(self):
        x = [1.0, 2.0, np.nan, 4.0, 5.0]
        y = [2.0, 4.0, 6.0, 8.0, np.nan]
        assert pearson(x, y) == pytest.approx(1.0)

    def test_too_short(self):
        with pytest.raises(StatError):
            pearson([1, 2], [3, 4])

    def test_constant_series(self):
        with pytest.raises(StatError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_spread_that_underflows_when_squared(self):
        # not constant, but the centred squares of 1e-200 are 0.0; the
        # permutation test's kernel divided by that zero
        x, y = [0.0, 1e-200, 0.0, 2e-200], [1.0, 2.0, 3.0, 5.0]
        with pytest.raises(StatError, match="^correlation undefined: the centred sum of squares"):
            pearson(x, y)
        with pytest.raises(StatError, match="^permutation test undefined: the centred sum"):
            permutation_test([x], [y], [None])

    @pytest.mark.parametrize("n", [12, 30, 71])
    @pytest.mark.parametrize("value", [0.1, 0.7, 33.3])
    def test_constant_series_with_inexact_mean(self, value, n):
        x = np.full(n, value)
        assert (x - x.mean()).any()  # the mean rounds: the centred norm is not 0
        y = np.sin(np.arange(n))
        for a, b in ((x, y), (y, x)):
            with pytest.raises(StatError, match="constant series"):
                pearson(a, b)
            with pytest.raises(StatError, match="constant series"):
                correlate(a, b)

    def test_length_mismatch(self):
        with pytest.raises(StatError):
            pearson([1, 2, 3], [1, 2])

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=30),
        st.floats(0.1, 5.0),
        st.floats(-10.0, 10.0),
    )
    def test_affine_invariance(self, xs, scale, shift):
        x = np.asarray(xs)
        # needs a spread that survives squaring; ptp ~1e-209 underflows
        if np.ptp(x) < 1e-6:
            return
        y = np.linspace(-1.0, 2.0, len(x))
        assert pearson(scale * x + shift, y) == pytest.approx(pearson(x, y), abs=1e-9)


class TestFisherCI:
    @pytest.mark.parametrize("r,lo,hi", TABLE_HISTORICAL)
    def test_historical_intervals(self, r, lo, hi):
        got = fisher_ci(r, 71)
        assert got[0] == pytest.approx(lo, abs=0.01)
        assert got[1] == pytest.approx(hi, abs=0.01)

    @pytest.mark.parametrize("r,lo,hi", TABLE_PREDICTION)
    def test_prediction_intervals(self, r, lo, hi):
        got = fisher_ci(r, 35)
        assert got[0] == pytest.approx(lo, abs=0.01)
        assert got[1] == pytest.approx(hi, abs=0.01)

    @pytest.mark.parametrize(
        "r,lo,hi", [(0.35, 0.17, 0.507), (0.794, 0.711, 0.855)]
    )
    def test_full_period_intervals(self, r, lo, hi):
        got = fisher_ci(r, 105)
        assert got[0] == pytest.approx(lo, abs=0.01)
        assert got[1] == pytest.approx(hi, abs=0.01)

    def test_zero_r_symmetric(self):
        lo, hi = fisher_ci(0.0, 103)
        assert hi == pytest.approx(0.1935246647916799, abs=1e-12)
        assert lo == pytest.approx(-hi, abs=1e-15)

    def test_quantile_is_the_standard_librarys_to_the_bit(self):
        assert stats._Z975 == NormalDist().inv_cdf(0.975)
        assert stats._Z975 != 1.959963984540054  # the shortest 16 digits are another double
        # at n = 4 the half width is the quantile itself
        assert fisher_ci(0.0, 4) == (-math.tanh(stats._Z975), math.tanh(stats._Z975))

    def test_needs_four_points(self):
        with pytest.raises(StatError):
            fisher_ci(0.5, 3)

    def test_r_out_of_range(self):
        with pytest.raises(StatError):
            fisher_ci(1.5, 50)

    @given(st.floats(-0.999, 0.999), st.integers(5, 500))
    def test_contains_r_and_orders(self, r, n):
        lo, hi = fisher_ci(r, n)
        assert -1.0 < lo <= r <= hi < 1.0

    @given(st.floats(-0.99, 0.99), st.integers(5, 200))
    def test_shrinks_with_n(self, r, n):
        lo1, hi1 = fisher_ci(r, n)
        lo2, hi2 = fisher_ci(r, 4 * n)
        assert hi2 - lo2 < hi1 - lo1


class TestCorrelationP:
    @pytest.mark.parametrize(
        "r,n,expected",
        [
            (0.295, 35, 0.085363),
            (0.043, 35, 0.806251),
            (0.471, 35, 0.00429337),
            (0.298, 71, 0.0116011),
            (0.551, 35, 0.000603098),
        ],
    )
    def test_frozen_values(self, r, n, expected):
        assert correlation_p(r, n) == pytest.approx(expected, rel=1e-4)

    def test_marker_bands(self):
        assert significance_marker(correlation_p(0.295, 35)) == "·"
        assert significance_marker(correlation_p(0.043, 35)) == "(n.s.)"
        assert significance_marker(correlation_p(0.471, 35)) == "**"
        assert significance_marker(correlation_p(0.298, 71)) == "*"
        assert significance_marker(correlation_p(0.688, 71)) == "***"

    def test_zero_r(self):
        assert correlation_p(0.0, 40) == pytest.approx(1.0)

    @given(st.floats(0.01, 0.95), st.integers(5, 200))
    def test_symmetric_in_sign(self, r, n):
        assert correlation_p(r, n) == pytest.approx(correlation_p(-r, n), abs=1e-12)

    @given(st.floats(0.0, 0.9), st.integers(5, 100))
    def test_monotone_in_magnitude(self, r, n):
        assert correlation_p(r + 0.05, n) <= correlation_p(r, n) + 1e-12


class TestScipyReplacements:
    """The stdlib and numpy forms that stand in for scipy.special.stdtr,
    scipy.special.ndtri and scipy.stats.rankdata, against scipy itself."""

    def test_student_t_matches_stdtr(self):
        special = pytest.importorskip("scipy.special")
        ts = np.geomspace(1e-4, 1e3, 61)
        for df in list(range(1, 101)) + list(range(101, 2001, 19)) + [2000]:
            want = 2.0 * special.stdtr(df, -ts)
            for t, w in zip(ts.tolist(), want.tolist()):
                got = student_t_p(df, t)
                assert student_t_p(df, -t) == got
                if w < sys.float_info.min:  # scipy's tail has underflowed
                    assert got == 0.0, (df, t, w)
                else:
                    assert abs(got - w) <= 1e-11 * w, (df, t, got, w)

    @pytest.mark.parametrize("df, central", [
        (1, lambda t: 2.0 / math.pi * math.atan(t)),
        (2, lambda t: t / math.sqrt(2.0 + t * t)),
    ], ids=["df1", "df2"])
    def test_student_t_closed_forms_below_1e4(self, df, central):
        # scipy itself strays from the closed form here (3e-9 at df=1)
        for t in np.geomspace(1e-12, 1e-4, 41).tolist():
            t2 = t * t
            mass = betainc(0.5, df / 2.0, t2 / (df + t2), df / (df + t2))
            assert mass == pytest.approx(central(t), rel=1e-11, abs=0)
            assert student_t_p(df, t) == pytest.approx(1.0 - central(t), rel=1e-15)

    def test_student_t_edges(self):
        assert student_t_p(5, 0.0) == 1.0
        assert student_t_p(5, math.inf) == 0.0
        assert student_t_p(5, 1e200) == 0.0
        assert math.isnan(student_t_p(5, math.nan))

    def test_normal_quantile_matches_ndtri(self):
        special = pytest.importorskip("scipy.special")
        for p in np.linspace(0.5005, 0.9999, 2001).tolist():
            want = float(special.ndtri(p))
            assert NormalDist().inv_cdf(p) == pytest.approx(want, rel=4e-15)
        half = float(special.ndtri(0.975)) / math.sqrt(47)
        expected = (math.tanh(math.atanh(0.3) - half), math.tanh(math.atanh(0.3) + half))
        assert fisher_ci(0.3, 50) == pytest.approx(expected, rel=1e-13)

    def test_average_ranks_match_rankdata(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(12)
        for _ in range(2000):
            n = int(rng.integers(1, 80))
            values = rng.integers(0, int(rng.integers(1, 40)), size=n) * rng.choice([1.0, 0.25])
            assert np.array_equal(_average_ranks(values), stats.rankdata(values))
            labels = rng.integers(0, 2, size=n)
            if 0 < labels.sum() < n:
                ranks = stats.rankdata(values)
                npos = int(labels.sum())
                want = (ranks[labels == 1].sum() - npos * (npos + 1) / 2.0) / (npos * (n - npos))
                assert roc_auc(labels, values) == want


class TestCorrelate:
    def test_bundles_pieces(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=30)
        y = x + rng.normal(size=30)
        res = correlate(x, y)
        assert res.n == 30
        assert res.r == pytest.approx(pearson(x, y))
        assert (res.ci_low, res.ci_high) == pytest.approx(fisher_ci(res.r, 30))
        assert res.p == pytest.approx(correlation_p(res.r, 30))


def _pearson_p(x, y):
    """The Pearson p of a one-row shift test of x against y."""
    return permutation_test([x], [y], [None])[0][0]


class TestPermutationTest:
    def test_identity_hits_floor(self):
        x = np.arange(40.0)
        assert _pearson_p(x, x) == 1 / 40

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        x, y = rng.normal(size=25), rng.normal(size=25)
        assert permutation_test([x], [y], [8]) == permutation_test([x], [y], [8])

    def test_constant_rejected(self):
        with pytest.raises(StatError):
            _pearson_p([1, 1, 1, 1], [1, 2, 3, 4])

    def test_null_p_is_large(self):
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=60), rng.normal(size=60)
        assert _pearson_p(x, y) > 0.05

    @given(st.integers(0, 2**32 - 1), st.integers(3, 40))
    @settings(max_examples=25, deadline=None)
    def test_p_on_the_grid_of_shifts(self, seed, n):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=n), rng.normal(size=n)
        p = _pearson_p(x, y)
        hits = round(p * n) - 1
        assert p == (1 + hits) / n and 0 <= hits <= n - 1

    @given(st.integers(0, 2**32 - 1), st.integers(4, 40))
    @settings(max_examples=25, deadline=None)
    def test_p_in_unit_interval(self, seed, n):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=n), rng.normal(size=n)
        [row] = permutation_test([x], [y], [4])
        assert all(1 / n <= p <= 1.0 for p in row), row


def _ar1_pair(seed, n):
    rng = np.random.default_rng(seed)
    e, f = rng.normal(size=n), rng.normal(size=n)
    x, y = np.empty(n), np.empty(n)
    x[0], y[0] = e[0], f[0]
    for t in range(1, n):
        x[t] = 0.6 * x[t - 1] + e[t]
        y[t] = 0.6 * y[t - 1] + 0.3 * e[t] + f[t]
    return x, y


def _oracle_row(x, y, window):
    """The (Pearson p, DCCA p) of permutation_test's row, by the literal
    loop over shifts."""
    dcca_p = None if window is None else oracles.loop_permutation_p(x, y, oracles.dcca_rho(window))
    return oracles.loop_permutation_p(x, y, pearson), dcca_p


class TestPermutationEngine:
    """The chunked shift engine against the literal loop over np.roll:
    equal p."""

    @pytest.mark.parametrize(
        "window, n",
        [(None, 50), (12, 50), (None, 156), (12, 156), (None, 300), (28, 300)],
        ids=["pearson", "dcca", "pearson-n156", "dcca-n156", "pearson-n300", "dcca-n300"],
    )
    @pytest.mark.parametrize("seed", [3, 17])
    def test_matches_scalar_loop(self, window, n, seed):
        x, y = _ar1_pair(seed, n)
        assert permutation_test([x], [y], [window]) == [_oracle_row(x, y, window)]

    def test_random_rows_in_one_call_match_scalar_loop(self):
        rng = np.random.default_rng(30)
        pairs, windows = [], []
        for seed in range(30):
            n = int(rng.integers(12, 200))
            x, y = _ar1_pair(seed, n)
            pairs.append((x, 0.2 * x + y))
            windows.append([None, 4, 12][seed % 3])
        got = permutation_test([x for x, _ in pairs], [y for _, y in pairs], windows)
        assert got == [_oracle_row(x, y, w) for (x, y), w in zip(pairs, windows)]

    def test_antiperiodic_ties_count_as_hits(self):
        # x = (v, -v), so its shift by n/2 is -x: |r| and |dcca| there equal
        # the observed ones in exact arithmetic, and rounding in the
        # kernels, which centre on a mean that is not exactly 0, must not
        # lose that hit
        for seed in range(20):
            rng = np.random.default_rng(seed)
            v = rng.normal(size=10)
            x, y = np.concatenate([v, -v]), rng.normal(size=20)
            [(pearson_p, dcca_p)] = permutation_test([x], [y], [4])
            assert (pearson_p, dcca_p) == _oracle_row(x, y, 4)
            assert min(pearson_p, dcca_p) >= 2 / 20

    def test_theoretical_ties_count_as_hits(self):
        # x repeats with period 8, so its shifts by 8 and 16 are x itself:
        # both statistics there equal the observed ones in exact arithmetic,
        # and a chunk of many rows, rounded otherwise than the one observed
        # row, must not lose those two hits
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x, y = np.tile(rng.normal(size=8), 3), rng.normal(size=24)
            [(pearson_p, dcca_p)] = permutation_test([x], [y], [6])
            assert (pearson_p, dcca_p) == _oracle_row(x, y, 6)
            assert min(pearson_p, dcca_p) >= 3 / 24

    def test_integer_series_ties_match_scalar_loop(self):
        # the DCCA column on small-integer series, where shifts often tie
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.integers(0, 3, 20).astype(float)
            y = rng.integers(0, 3, 20).astype(float)
            if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
                continue
            assert permutation_test([x], [y], [5]) == [_oracle_row(x, y, 5)], seed

    def test_integer_series_ties_are_exact(self):
        # on integer series |r| of shift k reaches |r_obs| iff the integer
        # |n sum_i x_(i-k) y_i - sum x sum y| reaches its unshifted value;
        # r_obs is 0 in exact arithmetic on some of these, so a tolerance
        # relative to |r_obs| alone would lose ties that rounding splits
        n = 12
        for seed in range(200):
            rng = np.random.default_rng(seed)
            x, y = rng.integers(0, 3, n), rng.integers(0, 3, n)
            if np.ptp(x) == 0 or np.ptp(y) == 0:
                continue
            cov = [abs(n * int(np.roll(x, k) @ y) - int(x.sum()) * int(y.sum())) for k in range(n)]
            hits = sum(c >= cov[0] for c in cov[1:])
            x, y = x.astype(float), y.astype(float)
            assert _pearson_p(x, y) == (1 + hits) / n, seed
            assert oracles.loop_permutation_p(x, y, pearson) == (1 + hits) / n, seed

    @pytest.mark.parametrize("chunk_bytes", [1 << 10, 4 << 20], ids=["1KiB", "4MiB"])
    def test_p_does_not_depend_on_chunk_size(self, monkeypatch, chunk_bytes):
        pairs = [_weak_pair(seed, n) for seed, n in ((1, 60), (2, 156), (3, 400))]
        xs, ys, windows = [x for x, _ in pairs], [y for _, y in pairs], [12, 12, 28]
        default = permutation_test(xs, ys, windows)
        monkeypatch.setattr(stats, "_CHUNK_BYTES", chunk_bytes)
        assert permutation_test(xs, ys, windows) == default

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(4, 16),
        st.integers(0, 1_100),
        st.floats(-2.0, 2.0),
        st.floats(-1e3, 1e3),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_dcca_kernel_matches_dcca(self, seed, window, extra, log_scale, offset, walk):
        rng = np.random.default_rng(seed)
        n = min(window + extra, 1_100)
        x = rng.normal(size=n)
        if walk:
            x = np.cumsum(x)
        x = x * 10.0**log_scale + offset
        y = rng.normal(size=n)
        rows = stats._dcca_rows(x, y, window, {})
        X = np.stack([x] + [rng.permutation(x) for _ in range(4)])
        for got, row in zip(rows(X), X):
            assert abs(got - dcca(row, y, window=window).rho) <= 1e-10

    @pytest.mark.parametrize("window", [4, 12, 30])
    def test_dcca_kernel_row_slices(self, window):
        # the engine hands the kernel its shifts a chunk of rows at a time:
        # slices of 1 to 3 rows give what one product over all rows gives
        x, y = _ar1_pair(window, 120)
        X = np.stack([np.roll(x, k) for k in range(7)])
        whole = stats._dcca_rows(x, y, window, {})(X)
        for rows_per_slice in (1, 2, 3):
            rows = stats._dcca_rows(x, y, window, {})
            sliced = np.concatenate([rows(X[i : i + rows_per_slice])
                                     for i in range(0, len(X), rows_per_slice)])
            np.testing.assert_allclose(sliced, whole, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("window", [4, 12, 16])
    @pytest.mark.parametrize(
        "length",
        [lambda w, b: w, lambda w, b: b - 1, lambda w, b: b, lambda w, b: b + 1,
         lambda w, b: 2 * b + w, lambda w, b: 3 * b],
        ids=["window", "block-1", "block", "block+1", "2block+window", "3block"],
    )
    def test_dcca_kernel_block_seams(self, window, length):
        # the kernel sums its auto term over column blocks of _DCCA_BLOCK
        # observations: series as short as one box, series that end just
        # before, on and just after a block edge, two full blocks and a
        # partial third, and three full blocks, the last at the series' end
        # and so not the same matrix as the middle one
        n = length(window, _DCCA_BLOCK)
        rng = np.random.default_rng(n * 100 + window)
        x = np.cumsum(rng.normal(size=n)) * 10.0 + 300.0
        y = rng.normal(size=n)
        rows = stats._dcca_rows(x, y, window, {})
        X = np.stack([x] + [rng.permutation(x) for _ in range(6)])
        for got, row in zip(rows(X), X):
            assert abs(got - dcca(row, y, window=window).rho) <= 1e-10


def _weak_pair(seed, n, nan_at=()):
    """An AR(1) signal and a survey that follows it only weakly, with NaN
    weeks at `nan_at` in the signal (dropped as incomplete pairs)."""
    x, _ = _ar1_pair(seed, n)
    y = 0.1 * x + np.random.default_rng(seed + 1000).normal(size=n)
    x[list(nan_at)] = np.nan
    return x, y


def _assert_rows_equal_calls(pairs, windows):
    """One permutation_test call for all rows against one call per row:
    equal p, bit for bit. Returns the rows' p-values."""
    calls = [permutation_test([x], [y], [w])[0] for (x, y), w in zip(pairs, windows)]
    assert permutation_test([x for x, _ in pairs], [y for _, y in pairs], windows) == calls
    return calls


def _rows_per_chunk(monkeypatch, rows, n):
    """Make the engine evaluate the shifts of a series of n observations
    `rows` at a time."""
    monkeypatch.setattr(stats, "_CHUNK_BYTES", 8 * n * rows)


class TestPermutationBatch:
    """Many pairs in one `permutation_test` call against one call per
    pair: equal p, bit for bit."""

    def _rows(self):
        """Rows at n = 60, 58 (two NaN weeks) and 44 (a shorter series),
        with and without DCCA."""
        pairs = [_weak_pair(seed, 60, (5, 40) if seed % 3 == 1 else ()) for seed in range(6)]
        pairs += [_weak_pair(seed, 44) for seed in (6, 7)]
        return pairs, [12, None, 12, 12, None, None, 12, None]

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_each_p_equals_its_own_call(self, monkeypatch, rows):
        pairs, windows = self._rows()
        default = _assert_rows_equal_calls(pairs, windows)
        _rows_per_chunk(monkeypatch, rows, 60)
        assert _assert_rows_equal_calls(pairs, windows) == default

    def test_weak_signals_above_the_floor(self):
        pairs = [_weak_pair(seed, 60) for seed in range(6)]
        rows = _assert_rows_equal_calls(pairs, [12] * 6)
        p = [v for row in rows for v in row]
        assert sum(v > 5 / 60 for v in p) >= 8, p

    def test_mixed_n_in_one_call(self):
        nan_weeks = [(), (3,), (0, 17, 40), (5, 6, 7, 8, 59), (), (3,)]
        pairs = [_weak_pair(seed, 60, nan_at) for seed, nan_at in enumerate(nan_weeks)]
        for window in (None, 12):
            _assert_rows_equal_calls(pairs, [window] * 6)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_windows_mixed_at_one_n(self, monkeypatch, rows):
        # the DCCA band blocks are shared by the rows of a call and depend
        # on n and the window: rows of one n at windows 8 and 12, and rows
        # without DCCA between them
        _rows_per_chunk(monkeypatch, rows, 50)
        pairs = [_weak_pair(seed, 50) for seed in range(6)]
        windows = [8, None, 12, 12, None, 8]
        rows = _assert_rows_equal_calls(pairs, windows)
        assert [dcca_p is None for _, dcca_p in rows] == [w is None for w in windows]

    def test_one_row_and_no_rows(self):
        x, y = _weak_pair(1, 30)
        assert permutation_test([x], [y], [None]) == [_oracle_row(x, y, None)]
        assert permutation_test([], [], []) == []

    def test_batch_raises_what_a_call_raises(self):
        good = np.arange(6.0)
        for bad in ([1.0] * 6, [1.0, 2.0] + [np.nan] * 4):
            with pytest.raises(StatError) as called:
                permutation_test([bad], [good], [None])
            with pytest.raises(StatError) as batched:
                permutation_test([good, bad], [good, good], [None, None])
            assert str(batched.value) == str(called.value)
        with pytest.raises(StatError, match="one entry per row"):
            permutation_test([good, good], [good], [None, None])

    def test_statistics_must_match_the_rows(self):
        x, y = _weak_pair(1, 30)
        with pytest.raises(StatError, match="one entry per row"):
            permutation_test([x, x], [y, y], [None])

    def test_first_failing_row_in_input_order_raises(self):
        good, flat, short = np.arange(6.0), [1.0] * 6, [1.0, 2.0] + [np.nan] * 4
        for bad, message in (([flat, short], "constant series"), ([short, flat], "have 2")):
            with pytest.raises(StatError, match=message):
                permutation_test([good, *bad], [good] * 3, [None, 4, None])

    def test_runs_in_one_process(self, monkeypatch):
        # twelve rows of the validate-battery shape, 156 weeks at window 12
        monkeypatch.setattr(os, "fork", None)
        pairs = [_weak_pair(seed, 156) for seed in range(12)]
        rows = permutation_test([x for x, _ in pairs], [y for _, y in pairs], [12] * 12)
        assert len(rows) == 12 and all(dcca_p is not None for _, dcca_p in rows)

    def test_band_blocks_built_once_per_n_and_window(self, monkeypatch):
        built = []
        blocks = stats._dcca_blocks

        def counting_blocks(n, window):
            built.append((n, window))
            return blocks(n, window)

        monkeypatch.setattr(stats, "_dcca_blocks", counting_blocks)
        pairs, windows = self._rows()
        pairs.append(_weak_pair(9, 60))
        windows.append(8)
        _assert_rows_equal_calls(pairs, windows)
        # the per-row calls build each of their own once more
        assert sorted(set(built)) == [(44, 12), (60, 8), (60, 12)]
        assert len(built) == 3 + sum(w is not None for w in windows)


def _dcca_reference(x, y, window):
    """Independent slow oracle: polyfit per box, float accumulation."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    px = np.cumsum(x - x.mean())
    py = np.cumsum(y - y.mean())
    t = np.arange(window, dtype=float)
    fxy = fxx = fyy = 0.0
    boxes = 0
    for s in range(len(x) - window + 1):
        bx, by = px[s : s + window], py[s : s + window]
        rx = bx - np.polyval(np.polyfit(t, bx, 1), t)
        ry = by - np.polyval(np.polyfit(t, by, 1), t)
        fxy += float(rx @ ry)
        fxx += float(rx @ rx)
        fyy += float(ry @ ry)
        boxes += 1
    return (fxy / boxes) / math.sqrt((fxx / boxes) * (fyy / boxes))


class TestDcca:
    def test_identical_series_exactly_one(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=60)
        assert dcca(x, x, window=12).rho == 1.0
        assert dcca(x, -x, window=12).rho == -1.0

    def test_matches_reference(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            e, f = rng.normal(size=120), rng.normal(size=120)
            x = np.empty(120)
            y = np.empty(120)
            x[0], y[0] = e[0], f[0]
            for t in range(1, 120):
                x[t] = 0.6 * x[t - 1] + e[t]
                y[t] = 0.6 * y[t - 1] + 0.5 * e[t] + f[t]
            got = dcca(x, y, window=12).rho
            assert got == pytest.approx(_dcca_reference(x, y, 12), abs=1e-9)

    def test_single_box_is_pearson_of_detrended_profiles(self):
        rng = np.random.default_rng(21)
        x, y = rng.normal(size=30), rng.normal(size=30)
        n = len(x)
        t = np.arange(n, dtype=float)
        px = np.cumsum(x - x.mean())
        py = np.cumsum(y - y.mean())
        rx = px - np.polyval(np.polyfit(t, px, 1), t)
        ry = py - np.polyval(np.polyfit(t, py, 1), t)
        assert dcca(x, y, window=n).rho == pytest.approx(pearson(rx, ry), abs=1e-10)

    def test_affine_invariance(self):
        rng = np.random.default_rng(17)
        x, y = rng.normal(size=50), rng.normal(size=50)
        base = dcca(x, y, window=10).rho
        assert dcca(3.5 * x + 2.0, 0.25 * y - 7.0, window=10).rho == pytest.approx(
            base, abs=1e-12
        )

    def test_bounded(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            x, y = rng.normal(size=40), rng.normal(size=40)
            assert -1.0 <= dcca(x, y, window=8).rho <= 1.0

    def test_window_too_small(self):
        with pytest.raises(StatError):
            dcca(np.arange(20.0), np.arange(20.0), window=3)

    def test_series_shorter_than_window(self):
        with pytest.raises(StatError):
            dcca(np.arange(10.0), np.arange(10.0), window=12)


def _hc0_cov(design, resid):
    """White covariance, independent of the Bartlett-weighted code path."""
    bread = np.linalg.inv(design.T @ design)
    meat = design.T @ (design * (resid**2)[:, None])
    return bread @ meat @ bread


class TestLaggedRegressionHac:
    @staticmethod
    def _simulate(n=120, beta=0.6, gamma=0.3, seed=5):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n)
        y = np.zeros(n)
        for t in range(1, n):
            y[t] = beta * x[t] + gamma * y[t - 1] + 0.3 * rng.normal()
        return y, x

    def test_recovers_planted_coefficients(self):
        y, x = self._simulate()
        fit = lagged_regression_hac(y, x)
        assert fit.raw_beta == pytest.approx(0.6, abs=3 * fit.hac_se[1] + 0.1)
        assert fit.p_beta < 0.001
        assert fit.nobs == len(y) - 1
        assert len(fit.residuals) == len(y) - 1

    def test_perfect_fit(self):
        x = np.sin(np.arange(40) / 3.0)
        y = 2.0 + 1.5 * x
        fit = lagged_regression_hac(y, x)
        assert fit.raw_beta == pytest.approx(1.5, abs=1e-8)
        assert fit.raw_gamma == pytest.approx(0.0, abs=1e-8)
        assert fit.raw_alpha == pytest.approx(2.0, abs=1e-8)
        assert np.max(np.abs(fit.residuals)) < 1e-8

    def test_raw_coefficients_reproduce_fit(self):
        y, x = self._simulate(seed=8)
        fit = lagged_regression_hac(y, x)
        pred = fit.raw_alpha + fit.raw_beta * x[1:] + fit.raw_gamma * y[:-1]
        assert np.allclose(pred + fit.residuals * np.std(y, ddof=1), y[1:], atol=1e-10)

    def test_lag_zero_matches_white_covariance(self):
        y, x = self._simulate(seed=9, n=60)
        fit = lagged_regression_hac(y, x, lag=0)
        xs = (x - x.mean()) / np.std(x, ddof=1)
        ys = (y - y.mean()) / np.std(y, ddof=1)
        design = np.column_stack([np.ones(len(y) - 1), xs[1:], ys[:-1]])
        coef, *_ = np.linalg.lstsq(design, ys[1:], rcond=None)
        resid = ys[1:] - design @ coef
        want = np.sqrt(np.diag(_hc0_cov(design, resid)))
        assert fit.hac_se == pytest.approx(tuple(want), rel=1e-9)

    def test_default_lag_rule(self):
        assert newey_west_lag(100) == 4
        assert newey_west_lag(50) == 3
        assert newey_west_lag(10) == 2
        y, x = self._simulate(seed=10, n=101)
        assert lagged_regression_hac(y, x).lag == newey_west_lag(100)

    def test_too_short(self):
        with pytest.raises(StatError):
            lagged_regression_hac(np.arange(7.0), np.arange(7.0) ** 2)

    def test_constant_regressor(self):
        y = np.random.default_rng(1).normal(size=30)
        with pytest.raises(StatError):
            lagged_regression_hac(y, np.ones(30))

    def test_nonfinite_rejected(self):
        y, x = self._simulate(n=30)
        x[5] = np.nan
        with pytest.raises(StatError):
            lagged_regression_hac(y, x)


class TestKpss:
    # Oracle statistics computed once with statsmodels.tsa.stattools.kpss
    # (regression="c") on rng(42): 100 N(0,1) draws, then the cumsum of
    # the next 100 draws.
    WN_ORACLE = {4: 0.3168361812956888, 0: 0.3480337442466501, 5: 0.31546460032763834}
    RW_ORACLE = {4: 0.4569687026052817, 0: 1.7811921588649955, 5: 0.40372027071297084}

    @staticmethod
    def _series():
        rng = np.random.default_rng(42)
        wn = rng.normal(0, 1, 100)
        rw = np.cumsum(rng.normal(0, 1, 100))
        return wn, rw

    @pytest.mark.parametrize("lag", [0, 4, 5])
    def test_matches_oracle(self, lag):
        wn, rw = self._series()
        assert kpss(wn, lag=lag).statistic == pytest.approx(self.WN_ORACLE[lag], abs=1e-12)
        assert kpss(rw, lag=lag).statistic == pytest.approx(self.RW_ORACLE[lag], abs=1e-12)

    def test_default_lag_rule(self):
        assert kpss_lag(100) == 4
        assert kpss_lag(50) == 3
        assert kpss_lag(1000) == 7
        wn, _ = self._series()
        assert kpss(wn).lag == 4

    def test_verdict_bands(self):
        wn, _ = self._series()
        res = kpss(wn)
        assert res.verdict_band == "p>0.1"
        big_rw = np.cumsum(np.random.default_rng(3).normal(size=400))
        assert kpss(big_rw).verdict_band == "p<=0.01"

    def test_band_thresholds(self):
        # drive the statistic through each band with a scaled bridge shape
        wn, rw = self._series()
        assert kpss(rw, lag=0).verdict_band == "p<=0.01"
        assert kpss(rw, lag=4).verdict_band == "p>0.05"

    def test_too_short(self):
        with pytest.raises(StatError):
            kpss(np.arange(9.0))

    def test_constant_rejected(self):
        with pytest.raises(StatError):
            kpss(np.ones(20))

    def test_scale_invariance(self):
        wn, _ = self._series()
        assert kpss(wn * 17.0 + 3.0).statistic == pytest.approx(
            kpss(wn).statistic, rel=1e-12
        )


class TestChi2TwoProportions:
    def test_equal_proportions(self):
        stat, p = chi2_two_proportions(10, 20, 10, 20)
        assert stat == 0.0
        assert p == 1.0

    def test_extreme_example(self):
        stat, p = chi2_two_proportions(0, 10, 10, 10)
        assert stat == pytest.approx(20.0, abs=1e-12)
        assert p == pytest.approx(7.744216431044088e-06, rel=1e-9)

    @pytest.mark.parametrize("pct1,pct2", [(29.3, 16.7), (27.0, 16.66), (20.3, 15.0)])
    def test_large_sample_significance(self, pct1, pct2):
        n = 1_000_000
        k1, k2 = round(pct1 * n / 100), round(pct2 * n / 100)
        stat, p = chi2_two_proportions(k1, n, k2, n)
        assert p < 0.0001

    def test_symmetry(self):
        a = chi2_two_proportions(3, 17, 9, 23)
        b = chi2_two_proportions(9, 23, 3, 17)
        assert a == pytest.approx(b)

    def test_degenerate_margin(self):
        with pytest.raises(StatError):
            chi2_two_proportions(0, 10, 0, 10)
        with pytest.raises(StatError):
            chi2_two_proportions(10, 10, 10, 10)

    def test_invalid_counts(self):
        with pytest.raises(StatError):
            chi2_two_proportions(11, 10, 1, 10)
        with pytest.raises(StatError):
            chi2_two_proportions(-1, 10, 1, 10)

    @given(
        st.integers(0, 50), st.integers(1, 50), st.integers(0, 50), st.integers(1, 50)
    )
    def test_matches_expected_count_formula(self, k1, m1, k2, m2):
        n1, n2 = k1 + m1 + 1, k2 + m2 + 1
        k1, k2 = min(k1, n1), min(k2, n2)
        s = k1 + k2
        if s == 0 or s == n1 + n2:
            return
        stat, _ = chi2_two_proportions(k1, n1, k2, n2)
        expected = 0.0
        for k, n in ((k1, n1), (k2, n2)):
            for obs, margin in ((k, s), (n - k, n1 + n2 - s)):
                e = n * margin / (n1 + n2)
                expected += (obs - e) ** 2 / e
        assert stat == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_p_matches_scipy_chdtrc(self):
        """erfc(sqrt(s/2)) against scipy's chdtrc(1, s), up to and across
        the point near s=1425 where scipy's igamc underflows to 0."""
        special = pytest.importorskip("scipy.special")
        grid = np.concatenate([np.geomspace(1e-12, 1e3, 2001), np.linspace(1420, 1430, 2001)])
        zeros = 0
        for s in grid.tolist():
            got, want = _chi2_sf_1df(s), float(special.chdtrc(1, s))
            assert (got == 0.0) == (want == 0.0), s
            zeros += want == 0.0
            assert abs(got - want) <= 1e-12 * want, s
            assert format(got, ".4g") == format(want, ".4g"), s
        assert 0 < zeros < 2001  # the grid crosses the underflow edge


class TestPercentDifference:
    @pytest.mark.parametrize(
        "with_share,without_share,expected",
        [(29.3, 16.7, 75.4491), (27.0, 16.66, 62.0648), (20.3, 15.0, 35.3333)],
    )
    def test_frozen_values(self, with_share, without_share, expected):
        assert percent_difference(with_share, without_share) == pytest.approx(
            expected, abs=1e-4
        )

    def test_sign(self):
        assert percent_difference(1.0, 2.0) == pytest.approx(-50.0)

    def test_zero_baseline(self):
        with pytest.raises(StatError):
            percent_difference(1.0, 0.0)


def _auc_pairwise(labels, scores):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


class TestRocAuc:
    def test_classic_example(self):
        assert roc_auc([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8]) == pytest.approx(0.75)

    def test_perfect_and_reversed(self):
        assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0
        assert roc_auc([1, 1, 0, 0], [0.1, 0.2, 0.8, 0.9]) == 0.0

    def test_all_tied_scores(self):
        assert roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(StatError):
            roc_auc([1, 1, 1], [0.1, 0.2, 0.3])

    def test_nonbinary_rejected(self):
        with pytest.raises(StatError):
            roc_auc([0, 1, 2], [0.1, 0.2, 0.3])

    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 9)), min_size=2, max_size=50
        )
    )
    def test_matches_pairwise_counting(self, pairs):
        labels = [l for l, _ in pairs]
        if len(set(labels)) < 2:
            return
        scores = [s / 3.0 for _, s in pairs]
        assert roc_auc(labels, scores) == pytest.approx(
            _auc_pairwise(labels, scores), abs=1e-12
        )

    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.floats(-5, 5)), min_size=2, max_size=40
        )
    )
    def test_negated_scores_flip_auc(self, pairs):
        labels = [l for l, _ in pairs]
        if len(set(labels)) < 2:
            return
        scores = [s for _, s in pairs]
        a = roc_auc(labels, scores)
        b = roc_auc(labels, [-s for s in scores])
        assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_curve_shape(self):
        labels = [0, 0, 1, 1, 0, 1]
        scores = [0.1, 0.4, 0.35, 0.8, 0.35, 0.9]
        fpr, tpr, thresholds = roc_curve(labels, scores)
        assert fpr[0] == 0.0 and tpr[0] == 0.0 and math.isinf(thresholds[0])
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0
        assert np.all(np.diff(fpr) >= 0)
        assert np.all(np.diff(tpr) >= 0)
        assert np.all(np.diff(thresholds) < 0)

    def test_curve_collapses_tied_scores(self):
        fpr, tpr, thresholds = roc_curve([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5])
        assert len(fpr) == 2
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0


class TestSignificanceMarker:
    @pytest.mark.parametrize(
        "p,mark",
        [
            (0.0005, "***"),
            (0.005, "**"),
            (0.04, "*"),
            (0.09, "·"),
            (0.05, "·"),
            (0.2, "(n.s.)"),
            (1.0, "(n.s.)"),
        ],
    )
    def test_bands(self, p, mark):
        assert significance_marker(p) == mark

    def test_out_of_range(self):
        with pytest.raises(StatError):
            significance_marker(1.5)
