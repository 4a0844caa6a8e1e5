"""Validation statistics: correlation inference, circular-shift tests,
detrended cross-correlation, HAC-robust lagged regression, KPSS
stationarity, two-proportion comparison, and ROC analysis.

numpy and the standard library only: the normal quantile is a constant
equal to statistics.NormalDist's, the Student t tail comes from `special`,
the chi-square tail is math.erfc and the AUC ranks are numpy average ranks.
numpy and `special` are imported inside the functions that use them, so
the scan commands, which need neither, never load them; no command loads
`statistics`."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import StatError

if TYPE_CHECKING:
    import numpy as np


def _clean_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or len(x) != len(y):
        raise StatError("series must be one-dimensional and equally long")
    mask = np.isfinite(x) & np.isfinite(y)
    return x[mask], y[mask]


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation on pairwise-complete values."""
    x, y = _clean_pair(x, y)
    n = len(x)
    if n < 3:
        raise StatError(f"need at least 3 paired observations, have {n}")
    scale = _spread(x, y, "correlation")
    r = ((x - x.mean()) @ (y - y.mean())) / scale
    return float(min(1.0, max(-1.0, r)))


def _spread(x: np.ndarray, y: np.ndarray, what: str) -> float:
    """|xc| |yc| of the centred series, the denominator of r. Raises
    StatError where `what` is undefined: for a constant series (tested by
    its range, as a constant whose mean rounds has a nonzero norm), or for
    a product that is not a normal float, as when a spread of 1e-200
    squares to zero."""
    import numpy as np

    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise StatError(f"{what} undefined for a constant series")
    xc = x - x.mean()
    yc = y - y.mean()
    scale = math.sqrt(xc @ xc) * math.sqrt(yc @ yc)
    if scale < sys.float_info.min:
        raise StatError(f"{what} undefined: the centred sum of squares underflows")
    return scale


# The standard normal's 0.975 quantile, statistics.NormalDist().inv_cdf(0.975)
# to the bit: importing statistics for it would also load decimal and fractions.
_Z975 = 1.9599639845400536


def fisher_ci(r: float, n: int) -> tuple[float, float]:
    """95% confidence interval for a correlation via the atanh (Fisher z)
    transform."""
    if n < 4:
        raise StatError(f"interval needs n >= 4, have {n}")
    if abs(r) >= 1.0:
        raise StatError(f"interval undefined at |r| >= 1 (r={r})")
    z = math.atanh(r)
    half = _Z975 / math.sqrt(n - 3)
    return math.tanh(z - half), math.tanh(z + half)


def correlation_p(r: float, n: int) -> float:
    """Two-sided p-value for a correlation (t statistic with n-2 df)."""
    if n < 4:
        raise StatError(f"p-value needs n >= 4, have {n}")
    if abs(r) >= 1.0:
        raise StatError(f"p-value undefined at |r| >= 1 (r={r})")
    from .special import student_t_p  # not loaded by the scan commands

    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return student_t_p(n - 2, t)


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    n: int
    ci_low: float
    ci_high: float
    p: float


def correlate(x, y) -> CorrelationResult:
    """Pearson r with its 95% Fisher-z interval and two-sided p in one call."""
    x, y = _clean_pair(x, y)
    r = pearson(x, y)
    n = len(x)
    lo, hi = fisher_ci(r, n)
    return CorrelationResult(r=r, n=n, ci_low=lo, ci_high=hi, p=correlation_p(r, n))


# Bytes per (shifts x observations) work array. Small chunks keep the
# kernels' temporaries in cache and add little to peak memory; one chunk
# holds every shift of a series of up to 181 observations.
_CHUNK_BYTES = 256 << 10

# Relative tolerance for counting a shifted statistic as reaching the
# observed one (scipy.stats.permutation_test uses the same): arrangements
# whose statistics are equal in exact arithmetic, such as the shifts of a
# periodic series, must not fall below the observed value by rounding.
_TIE_RTOL = 100 * sys.float_info.epsilon


def _pearson_rows(x: np.ndarray, y: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Row kernel: Pearson r of every row of X (rearrangements of x) with
    y. Mean and norm of x do not change under rearrangement."""
    import numpy as np

    mu = x.mean()
    yc = y - y.mean()
    scale = math.sqrt(((x - mu) ** 2).sum()) * math.sqrt(yc @ yc)

    def rows(X: np.ndarray) -> np.ndarray:
        return ((X - mu) @ yc) / scale

    # the rounding error of r scales with the terms of its sum, not with r,
    # which is 0 when they cancel
    rows.magnitude = float(np.abs(x - mu) @ np.abs(yc)) / scale
    return rows


def permutation_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    """The observations a shift test of x against y runs on: the
    pairwise-complete values. Raises StatError where the test is
    undefined, for fewer than 3 pairs or where r is (see `_spread`)."""
    x, y = _clean_pair(x, y)
    n = len(x)
    if n < 3:
        raise StatError(f"need at least 3 paired observations, have {n}")
    _spread(x, y, "permutation test")
    return x, y


def _shift_hits(x: np.ndarray, kernels) -> list[int]:
    """Circular shifts k = 1..n-1 of x reaching each observed statistic,
    for kernels [(row kernel, bar), ...]. Row s of the windows of x twice
    over is x rolled by n - s, so rows 1..n-1 are the shifts, taken in
    chunks of _CHUNK_BYTES without copying x."""
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    n = len(x)
    shifts = sliding_window_view(np.concatenate([x, x]), n)
    per_chunk = max(1, _CHUNK_BYTES // (8 * n))
    hits = [0] * len(kernels)
    for s in range(1, n, per_chunk):
        X = shifts[s : min(s + per_chunk, n)]
        for j, (rows, bar) in enumerate(kernels):
            hits[j] += int(np.count_nonzero(np.abs(rows(X)) >= bar))
    return hits


def permutation_test(xs, ys, windows) -> list[tuple[float, float | None]]:
    """Two-sided circular-shift p-values of rows of series pairs: x rolled
    by every k = 1..n-1 while y stays fixed, so each series keeps its
    autocorrelation (the toroidal shift test; compare the surrogates of
    Theiler et al., Physica D 1992, and Ebisuzaki, J. Climate 1997).

    Row i tests xs[i] against ys[i] and gives (Pearson p, DCCA p at box
    size windows[i]); the DCCA p is None where windows[i] is None. n is
    the row's count of pairs left after dropping non-finite ones. p =
    (1 + hits) / n over the n - 1 shifts, the unshifted x counting as the
    one, so p is exact, deterministic and at least 1 / n. A shift is a hit
    when |stat| >= |obs| up to 100 machine epsilons relative to |obs|, or,
    for Pearson, to sum |xc_i yc_i| / (|xc| |yc|), so near-equal statistics
    (ties up to rounding) count as hits.

    Each statistic is evaluated in batches by a row kernel mapping a (k, n)
    array of shifted x to k statistics (`_pearson_rows`, `_dcca_rows`);
    the rows of one call share the DCCA band blocks of each (n, window).
    """
    if not len(xs) == len(ys) == len(windows):
        raise StatError("xs, ys and windows must hold one entry per row")
    bands: dict[tuple[int, int], list] = {}  # the DCCA band blocks by (n, window)
    p_values = []
    for a, b, window in zip(xs, ys, windows):
        a, b = permutation_pair(a, b)
        row_kernels = [_pearson_rows(a, b)]
        if window is not None:
            row_kernels.append(_dcca_rows(a, b, window, bands))
        kernels = []
        for rows in row_kernels:
            obs = abs(rows(a[None, :])[0])
            kernels.append((rows, obs - _TIE_RTOL * getattr(rows, "magnitude", obs)))
        p = [(1 + h) / len(a) for h in _shift_hits(a, kernels)]
        p_values.append((p[0], p[1] if len(p) == 2 else None))
    return p_values


@dataclass(frozen=True)
class DccaResult:
    rho: float
    window: int


def _box_residuals(profile: np.ndarray, window: int, t: np.ndarray, tt: float) -> np.ndarray:
    from numpy.lib.stride_tricks import sliding_window_view

    boxes = sliding_window_view(profile, window)
    centered = boxes - boxes.mean(axis=1, keepdims=True)
    slopes = (centered @ t) / tt
    return centered - slopes[:, None] * t[None, :]


def dcca(x, y, window: int = 12) -> DccaResult:
    """Detrended cross-correlation coefficient.

    Integrates the demeaned series, detrends every overlapping window
    (step 1) with a per-box least-squares line, and forms the ratio of
    the mean cross to auto detrended covariances. Identical inputs give
    exactly 1.0, negated inputs exactly -1.0.
    """
    import numpy as np

    if window < 4:
        raise StatError(f"window must be >= 4, got {window}")
    x, y = _clean_pair(x, y)
    n = len(x)
    if n < window:
        raise StatError(f"need at least window={window} observations, have {n}")
    profile_x = np.cumsum(x - x.mean())
    profile_y = np.cumsum(y - y.mean())
    t = np.arange(window, dtype=float)
    t -= t.mean()
    tt = float(t @ t)
    rx = _box_residuals(profile_x, window, t, tt)
    ry = _box_residuals(profile_y, window, t, tt)
    f2xy = (rx * ry).mean(axis=1).mean()
    f2xx = (rx * rx).mean(axis=1).mean()
    f2yy = (ry * ry).mean(axis=1).mean()
    if f2xx <= 0.0 or f2yy <= 0.0:
        raise StatError("zero detrended variance; dcca undefined")
    return DccaResult(rho=float(f2xy / math.sqrt(f2xx * f2yy)), window=window)


# Column-block width of the DCCA kernel's banded quadratic form (widened to
# the window when that is larger). 10,000 kernel rows (rearrangements of x;
# a shift test runs n - 1) at n=156, window 12, on a 2-vCPU host: widths
# 32-48 took 2.9 ms, 16 took 3.3 ms, 64 3.9 ms and 96 6.4 ms. At n=1100,
# window 16, the time falls to 45 ms by width 40 and stays flat beyond it.
_DCCA_BLOCK = 40


def _dcca_blocks(n: int, window: int) -> list[tuple[slice, slice, np.ndarray]]:
    """The band of M = sum_s E_s^T A E_s (E_s selects box s, A the box's
    detrended-variance form) cut into column blocks: (rows, cols, M[rows,
    cols]) with rows the cols widened by window - 1 on each side, outside
    which M is zero. Built box by box from A; the n x n M is never formed."""
    import numpy as np

    t = np.arange(window, dtype=float)
    t -= t.mean()
    L = np.tril(np.ones((window, window)))
    basis = np.column_stack([np.ones(window) / math.sqrt(window), t / math.sqrt(float(t @ t))])
    A = L.T @ (np.eye(window) - basis @ basis.T) @ L
    m, h, width = n - window + 1, window - 1, max(_DCCA_BLOCK, window)
    blocks, inner = [], None
    for i0 in range(0, n, width):
        i1 = min(i0 + width, n)
        j0, j1 = max(0, i0 - h), min(n, i1 + h)
        # a full block whose rows all lie inside the series meets a full set
        # of boxes, so it is the same matrix wherever it sits (M is Toeplitz
        # there): one copy serves every such block, for any n
        full = i0 >= h and i1 + h <= n and i1 - i0 == width
        if not (full and inner is not None):
            Mb = np.zeros((j1 - j0, i1 - i0))
            for s in range(j0, min(m, i1)):  # the boxes that reach the block's columns
                c0, c1 = max(s, i0), min(s + window, i1)
                Mb[s - j0 : s - j0 + window, c0 - i0 : c1 - i0] += A[:, c0 - s : c1 - s]
            if full:
                inner = Mb
        blocks.append((slice(j0, j1), slice(i0, i1), inner if full else Mb))
    return blocks


def _dcca_rows(
    x: np.ndarray, y: np.ndarray, window: int, bands: dict[tuple[int, int], list]
) -> Callable[[np.ndarray], np.ndarray]:
    """Row kernel: the dcca coefficient of every row of X (rearrangements
    of x) with y, without forming any box of a rearranged profile.

    With xc the centred row, P = cumsum(xc) its profile, ry y's box
    residuals and m = n - window + 1 boxes, the m * window * F2 sums are
    cross: sum_s P[s:s+w] . ry[s] = P . g with g[i] = sum_{s+j=i} ry[s,j],
           since ry[s] is orthogonal to 1 and t and so drops x's box trend;
           summed by parts, P . g = xc . G with G the reverse cumsum of g.
    auto:  sum_s |H L xc[s:s+w]|^2, L the box's cumsum and H the removal of
           its line, = xc^T M xc with M = sum_s E_s^T A E_s, A = (HL)^T HL.
           M is symmetric and banded (half-bandwidth window - 1), so the
           form is a sum over column blocks of matrix products of a slice
           of the chunk with a block of the band (`_dcca_blocks`, which
           depends on n and window only and is kept in `bands` by (n, window)).
    Both work on xc rather than on the profile, whose level cancels in
    the detrending and would cost digits on smooth series: a form built on
    cumulative sums of the profile is O(n) per row but drifted 2e-8 from
    `dcca` on a random-walk x (n=1061, window 4); this one stays within
    1e-12. It does about (_DCCA_BLOCK + 2 * window) * n multiply-adds per
    row, more than the 2 * window * n of a loop over lags, but in
    matrix products: at n=156 and window 12, 10,000 kernel rows took 2.9 ms
    against the lag loop's 10.3 ms, and 45 ms against 84 ms at n=1100,
    window 16 (a shift test runs n - 1 rows).
    """
    import numpy as np

    dcca(x, y, window)  # raises StatError where the coefficient is undefined
    n = len(y)
    m = n - window + 1
    t = np.arange(window, dtype=float)
    t -= t.mean()
    ry = _box_residuals(np.cumsum(y - y.mean()), window, t, float(t @ t))
    syy = float((ry * ry).sum())
    g = np.zeros(n)
    for j in range(window):
        g[j : j + m] += ry[:, j]
    G = np.cumsum(g[::-1])[::-1]
    if (n, window) not in bands:
        bands[n, window] = _dcca_blocks(n, window)
    blocks = bands[n, window]
    mu = x.mean()

    def rows(X: np.ndarray) -> np.ndarray:
        xc = X - mu
        auto = np.zeros(len(X))
        for r, c, Mb in blocks:
            auto += np.einsum("ki,ki->k", xc[:, r] @ Mb, xc[:, c])
        return (xc @ G) / np.sqrt(auto * syy)

    return rows


def newey_west_lag(n: int) -> int:
    """Automatic Bartlett truncation lag, floor(4 * (n/100)^(2/9))."""
    if n < 1:
        raise StatError(f"need n >= 1, got {n}")
    return int(math.floor(4.0 * (n / 100.0) ** (2.0 / 9.0)))


@dataclass(frozen=True)
class RegressionFit:
    """y_t ~ alpha + beta*x_t + gamma*y_{t-1} on standardized variables.

    Standard errors use the Newey-West (Bartlett kernel) covariance; the
    raw_* coefficients undo the standardization to original units.
    """

    alpha: float
    beta: float
    gamma: float
    hac_se: tuple[float, float, float]
    p_beta: float
    residuals: np.ndarray
    lag: int
    nobs: int
    raw_alpha: float
    raw_beta: float
    raw_gamma: float


def _newey_west_cov(design: np.ndarray, resid: np.ndarray, lag: int) -> np.ndarray:
    import numpy as np

    xe = design * resid[:, None]
    s = xe.T @ xe
    for j in range(1, lag + 1):
        w = 1.0 - j / (lag + 1.0)
        g = xe[j:].T @ xe[:-j]
        s = s + w * (g + g.T)
    bread = np.linalg.inv(design.T @ design)
    return bread @ s @ bread


def lagged_regression_hac(y, x, lag: int | None = None) -> RegressionFit:
    """Fit y on x with one autoregressive control and HAC errors.

    Both series are z-scored first, so beta is directly comparable
    across signals. The regression uses rows t = 2..n (one observation
    lost to the lag). lag=None selects the automatic truncation from the
    row count; lag=0 degrades to plain heteroskedasticity-robust errors.
    """
    import numpy as np

    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.ndim != 1 or x.ndim != 1 or len(y) != len(x):
        raise StatError("series must be one-dimensional and equally long")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise StatError("missing values must be resolved before the regression")
    m = len(y)
    if m < 8:
        raise StatError(f"need at least 8 aligned observations, have {m}")
    sx = float(x.std(ddof=1))
    sy = float(y.std(ddof=1))
    if sx == 0.0 or sy == 0.0:
        raise StatError("regression undefined for a constant series")
    mx = float(x.mean())
    my = float(y.mean())
    xs = (x - mx) / sx
    ys = (y - my) / sy

    design = np.column_stack([np.ones(m - 1), xs[1:], ys[:-1]])
    target = ys[1:]
    if np.linalg.matrix_rank(design) < 3:
        raise StatError("singular design matrix")
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ coef
    nobs = m - 1
    L = newey_west_lag(nobs) if lag is None else int(lag)
    if L < 0:
        raise StatError(f"lag must be >= 0, got {lag}")
    cov = _newey_west_cov(design, resid, L)
    se = np.sqrt(np.diag(cov))
    alpha, beta, gamma = (float(c) for c in coef)
    if se[1] > 0.0:
        from .special import student_t_p

        p_beta = student_t_p(nobs - 3, beta / float(se[1]))
    else:
        p_beta = 1.0 if beta == 0.0 else 0.0
    raw_beta = beta * sy / sx
    raw_alpha = my + sy * alpha - raw_beta * mx - gamma * my
    return RegressionFit(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        hac_se=tuple(float(s) for s in se),
        p_beta=p_beta,
        residuals=resid,
        lag=L,
        nobs=nobs,
        raw_alpha=float(raw_alpha),
        raw_beta=float(raw_beta),
        raw_gamma=gamma,
    )


KPSS_CRITICAL_VALUES = (
    (0.347, "p>0.1"),
    (0.463, "p>0.05"),
    (0.574, "p>0.025"),
    (0.739, "p>0.01"),
)


def kpss_lag(n: int) -> int:
    """Automatic Bartlett truncation lag, floor(4 * (n/100)^(1/4))."""
    if n < 1:
        raise StatError(f"need n >= 1, got {n}")
    return int(math.floor(4.0 * (n / 100.0) ** 0.25))


@dataclass(frozen=True)
class KpssResult:
    statistic: float
    lag: int
    verdict_band: str


def kpss(residuals, lag: int | None = None) -> KpssResult:
    """KPSS level-stationarity test; the null is stationarity, large
    statistics reject. The verdict is a band between tabulated critical
    values, not an exact p."""
    import numpy as np

    e = np.asarray(residuals, dtype=float)
    if e.ndim != 1:
        raise StatError("residuals must be one-dimensional")
    if not np.isfinite(e).all():
        raise StatError("residuals contain non-finite values")
    n = len(e)
    if n < 10:
        raise StatError(f"need at least 10 observations, have {n}")
    e = e - e.mean()
    if np.ptp(e) == 0.0:
        raise StatError("zero-variance residuals")
    L = kpss_lag(n) if lag is None else int(lag)
    if not 0 <= L < n:
        raise StatError(f"lag must be in [0, {n - 1}], got {lag}")
    partial = np.cumsum(e)
    numerator = float(partial @ partial) / (n * n)
    s2 = float(e @ e) / n
    for j in range(1, L + 1):
        s2 += 2.0 * (1.0 - j / (L + 1.0)) * float(e[j:] @ e[:-j]) / n
    if s2 <= 0.0:
        raise StatError("nonpositive long-run variance")
    statistic = numerator / s2
    band = "p<=0.01"
    for crit, label in KPSS_CRITICAL_VALUES:
        if statistic < crit:
            band = label
            break
    return KpssResult(statistic=float(statistic), lag=L, verdict_band=band)


def chi2_two_proportions(k1: int, n1: int, k2: int, n2: int) -> tuple[float, float]:
    """Pearson chi-square (1 df, no continuity correction) comparing two
    proportions k1/n1 and k2/n2. Returns (statistic, p)."""
    for k, n in ((k1, n1), (k2, n2)):
        if n <= 0:
            raise StatError("group sizes must be positive")
        if not 0 <= k <= n:
            raise StatError(f"counts must satisfy 0 <= k <= n, got k={k}, n={n}")
    successes = k1 + k2
    failures = (n1 - k1) + (n2 - k2)
    if successes == 0 or failures == 0:
        raise StatError("degenerate table: every outcome identical across both groups")
    total = n1 + n2
    delta = k1 * (n2 - k2) - k2 * (n1 - k1)
    statistic = float(total * delta * delta / (n1 * n2 * successes * failures))
    return statistic, _chi2_sf_1df(statistic)


# log(DBL_MAX), and lgamma(1/2): the terms of Cephes' igamc underflow test
_MAX_LOG = math.log(sys.float_info.max)
_LGAMMA_HALF = math.lgamma(0.5)


def _chi2_sf_1df(s: float) -> float:
    """Upper tail of chi-square with 1 df: P(X > s) = erfc(sqrt(s/2)).

    Flushed to 0.0 exactly where the Cephes igamc(1/2, s/2) behind
    scipy.special.chdtrc underflows, so that printed p-values match it.
    """
    x = s / 2.0
    if x > 0 and 0.5 * math.log(x) - x - _LGAMMA_HALF < -_MAX_LOG:
        return 0.0
    return math.erfc(math.sqrt(x))


def percent_difference(p_with: float, p_without: float) -> float:
    """Relative difference of two proportions in percent of the second."""
    if p_without <= 0.0:
        raise StatError("baseline proportion must be positive")
    return 100.0 * (p_with - p_without) / p_without


def _check_binary(labels, scores) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    if labels.ndim != 1 or labels.shape != scores.shape:
        raise StatError("labels and scores must be equally long 1-d sequences")
    if not np.isfinite(scores).all():
        raise StatError("scores contain non-finite values")
    uniq = set(np.unique(labels).tolist())
    if not uniq <= {0, 1, False, True}:
        raise StatError(f"labels must be binary, got values {sorted(uniq)}")
    return labels.astype(bool), scores


def roc_auc(labels, scores) -> float:
    """P(random positive outranks random negative); ties count 1/2.

    Rank-sum form of the Mann-Whitney statistic, identical to the
    pairwise definition including tie handling.
    """
    labels, scores = _check_binary(labels, scores)
    npos = int(labels.sum())
    nneg = len(labels) - npos
    if npos == 0 or nneg == 0:
        raise StatError("need at least one positive and one negative label")
    ranks = _average_ranks(scores)
    return float((ranks[labels].sum() - npos * (npos + 1) / 2.0) / (npos * nneg))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n, each tie group given the mean of the ranks it spans."""
    import numpy as np

    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.r_[True, ordered[1:] != ordered[:-1]]
    group = np.cumsum(starts) - 1
    bounds = np.r_[np.nonzero(starts)[0], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = 0.5 * (bounds[group] + bounds[group + 1] + 1)
    return ranks


def roc_curve(labels, scores) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ROC points (fpr, tpr, threshold), thresholds swept high to low.

    Starts at (0, 0) with an infinite threshold; equal scores collapse
    into one point, so the curve has one step per distinct score.
    """
    import numpy as np

    labels, scores = _check_binary(labels, scores)
    npos = int(labels.sum())
    nneg = len(labels) - npos
    if npos == 0 or nneg == 0:
        raise StatError("need at least one positive and one negative label")
    order = np.argsort(-scores, kind="stable")
    sorted_labels = labels[order]
    sorted_scores = scores[order]
    last = np.r_[np.nonzero(np.diff(sorted_scores))[0], len(sorted_scores) - 1]
    tp = np.cumsum(sorted_labels)[last]
    fp = last + 1 - tp
    fpr = np.r_[0.0, fp / nneg]
    tpr = np.r_[0.0, tp / npos]
    thresholds = np.r_[np.inf, sorted_scores[last]]
    return fpr, tpr, thresholds


SIGNIFICANCE_LEVELS = ((0.001, "***"), (0.01, "**"), (0.05, "*"), (0.1, "·"))


def significance_marker(p: float) -> str:
    """Star notation: *** p<0.001, ** p<0.01, * p<0.05, middle dot p<0.1,
    otherwise (n.s.)."""
    if not 0.0 <= p <= 1.0:
        raise StatError(f"p must be in [0,1], got {p}")
    for cut, mark in SIGNIFICANCE_LEVELS:
        if p < cut:
            return mark
    return "(n.s.)"
