"""Statistical primitives: Pearson r, Mann-Whitney U, Shannon entropy.

Sums use math.fsum (exactly rounded) so results do not depend on the order
in which samples are accumulated. ``entropy_comparison`` returns vectors over
the graphs' seed rows, NaN where a seed's entropy is undefined; the report
runs the U test on the defined values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UndefinedStatisticError
from .graph import FollowerGraph, RetweetGraph, count_matrix

# below this product of sample sizes the U distribution is enumerated exactly
EXACT_U_THRESHOLD = 400


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    p: float
    n: int


@dataclass(frozen=True)
class UTestResult:
    u_statistic: float
    p: float
    n1: int
    n2: int


def pearson(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Product-moment correlation with a two-sided t-transform p-value.

    Requires equal lengths >= 3, finite values, and nonzero variance on both
    sides; the p-value uses n - 2 degrees of freedom.
    """
    if len(x) != len(y):
        raise UndefinedStatisticError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise UndefinedStatisticError(f"need at least 3 pairs, got {n}")
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if not all(math.isfinite(v) for v in xs + ys):
        raise UndefinedStatisticError("non-finite value in input")
    dx = _unit_deviations(xs)
    dy = _unit_deviations(ys)
    sxy = math.fsum(a * b for a, b in zip(dx, dy))
    sxx = math.fsum(a * a for a in dx)
    syy = math.fsum(b * b for b in dy)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedStatisticError("zero variance: correlation undefined")
    r = sxy / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        p = 0.0
    else:
        # scipy.special alone: scipy.stats costs about a second to import,
        # and its t.sf(|t|, df) is this same stdtr(df, -|t|)
        from scipy.special import stdtr

        t = r * math.sqrt((n - 2) / (1.0 - r * r))
        p = 2.0 * float(stdtr(n - 2, -abs(t)))
    return CorrelationResult(r, min(p, 1.0), n)


def _unit_deviations(vs: list[float]) -> list[float]:
    """Deviations from the mean, scaled by a power of two to order one.

    The rounded mean can sit a whole spread away from the true one when the
    spread is a few ulps (e.g. 1 + 2**-52), so a second pass subtracts the
    mean of the first-pass deviations. r does not depend on scale, and a
    power-of-two factor is exact; it keeps squared deviations from
    underflowing into subnormals (spreads near 1e-154) or overflowing.
    """
    n = len(vs)
    m = math.fsum(vs) / n
    ds = [v - m for v in vs]
    c = math.fsum(ds) / n
    ds = [d - c for d in ds]
    e = math.frexp(max(abs(d) for d in ds))[1]
    return [math.ldexp(d, -e) for d in ds]


def _ranks2(pooled: Sequence[float]) -> list[int]:
    """Average ranks of the pooled sample, doubled so ties stay integral."""
    order = sorted(range(len(pooled)), key=lambda i: pooled[i])
    ranks2 = [0] * len(pooled)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        # average of ranks i+1..j+1, doubled: (i+1 + j+1)
        avg2 = i + j + 2
        for t in range(i, j + 1):
            ranks2[order[t]] = avg2
        i = j + 1
    return ranks2


def _exact_u_pvalue(ranks2: list[int], n1: int, u2_obs: int) -> float:
    """Two-sided exact p for the doubled U statistic via subset counting.

    Dynamic program over the pooled doubled ranks: table[c][s] counts the
    size-c subsets with doubled rank sum s. Counts are exact integers, so the
    resulting p equals full permutation enumeration.
    """
    n = len(ranks2)
    table: list[dict[int, int]] = [dict() for _ in range(n1 + 1)]
    table[0][0] = 1
    for r2 in ranks2:
        for c in range(min(n1, n) - 1, -1, -1):
            if not table[c]:
                continue
            nxt = table[c + 1]
            for s, cnt in table[c].items():
                key = s + r2
                nxt[key] = nxt.get(key, 0) + cnt
    counts = table[n1]
    n2 = n - n1
    # doubled U for a subset with doubled rank sum s: 2*U = s - n1*(n1+1)
    center2 = n1 * n2  # doubled distance origin: 2*(n1*n2/2)
    dev_obs = abs(u2_obs - center2)
    favorable = 0
    total_subsets = 0
    for s, cnt in counts.items():
        u2 = s - n1 * (n1 + 1)
        total_subsets += cnt
        if abs(u2 - center2) >= dev_obs:
            favorable += cnt
    return favorable / total_subsets


def _approx_u_pvalue(ranks2: list[int], n1: int, u: float) -> float:
    """Two-sided normal approximation with tie-corrected variance and a
    continuity correction."""
    n2 = len(ranks2) - n1
    n = n1 + n2
    tie_term = 0
    i = 0
    ranks_sorted = sorted(ranks2)
    while i < n:
        j = i
        while j + 1 < n and ranks_sorted[j + 1] == ranks_sorted[i]:
            j += 1
        size = j - i + 1
        tie_term += size**3 - size
        i = j + 1
    var = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1.0)))
    if var <= 0:
        return 1.0
    mean = n1 * n2 / 2.0
    z = (abs(u - mean) - 0.5) / math.sqrt(var)
    if z < 0:
        z = 0.0
    p = 2.0 * 0.5 * math.erfc(z / math.sqrt(2.0))
    return min(p, 1.0)


def mann_whitney_u(
    a: Sequence[float], b: Sequence[float], method: str = "auto"
) -> UTestResult:
    """Rank-sum U for sample ``a`` with a two-sided p-value.

    Ties share average ranks. With method="auto" the p-value is exact
    (subset-count enumeration of the permutation distribution) when
    n1*n2 <= EXACT_U_THRESHOLD and a tie-corrected, continuity-corrected
    normal approximation otherwise; "exact"/"approx" force one route.
    """
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        raise UndefinedStatisticError("both samples must be non-empty")
    pooled = [float(v) for v in a] + [float(v) for v in b]
    ranks2 = _ranks2(pooled)
    rank2_a = sum(ranks2[:n1])
    # U_a = R_a - n1*(n1+1)/2 counts pairs where a beats b (ties half);
    # doubled ranks keep everything integral until the final halving
    u2 = rank2_a - n1 * (n1 + 1)
    u = u2 / 2.0

    if method == "exact" or (method == "auto" and n1 * n2 <= EXACT_U_THRESHOLD):
        p = _exact_u_pvalue(ranks2, n1, u2)
    elif method in ("approx", "auto"):
        p = _approx_u_pvalue(ranks2, n1, u)
    else:
        raise UndefinedStatisticError(f"unknown method {method!r}")
    return UTestResult(u, p, n1, n2)


def shannon_entropy(values: Sequence[float], n_bins: int) -> float:
    """Entropy in bits of values binned into equal-width bins on [0,1].

    The last bin is right-closed so 1.0 lands in bin n_bins - 1.
    """
    if len(values) == 0:
        raise UndefinedStatisticError("entropy of an empty sample is undefined")
    if n_bins < 2:
        raise UndefinedStatisticError("need at least 2 bins")
    counts = [0] * n_bins
    for v in values:
        counts[_bin(v, n_bins)] += 1
    return _entropy_of_counts(counts, n_bins)


def _bin(value: float, n_bins: int) -> int:
    """Equal-width bin of a value in [0,1]; the last bin is right-closed."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise UndefinedStatisticError(f"value out of [0,1]: {value}")
    return min(int(value * n_bins), n_bins - 1)


def _entropy_of_counts(counts: list[int], n_bins: int) -> float:
    if n_bins < 2:
        raise UndefinedStatisticError("need at least 2 bins")
    total = sum(counts)
    return -math.fsum(
        (c / total) * math.log2(c / total) for c in counts if c > 0
    )


def entropy_comparison(
    fg: FollowerGraph,
    rg: RetweetGraph,
    m_s: np.ndarray,
    n_bins: int = 5,
    k: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per seed row, the entropy of its scored friends' moderacy under each graph kind.

    ``m_s`` holds each user id's moderacy, NaN when unscored. Returns the
    follower and the retweet entropy vectors, both NaN for a seed with fewer
    than 2 scored friends in either graph, and the two scored-friend counts.
    """
    # each seed row's bin counts are one product with a user x bin indicator
    width = max(n_bins, 1)
    scored = np.flatnonzero(~np.isnan(m_s))
    values = m_s[scored]
    if not ((values >= 0.0) & (values <= 1.0)).all():
        raise UndefinedStatisticError("value out of [0,1] in m_s")
    bins = np.minimum((values * width).astype(np.int64), width - 1)
    by_bin = count_matrix(scored, bins, (len(fg.names), width))
    counts_f = (fg.follow @ by_bin).toarray()
    counts_r = (rg.at_least(k) @ by_bin).toarray()
    n_f, n_r = counts_f.sum(axis=1), counts_r.sum(axis=1)

    entropy_f = np.full(len(fg.seeds), np.nan)
    entropy_r = np.full(len(fg.seeds), np.nan)
    for row in np.flatnonzero((n_f >= 2) & (n_r >= 2)).tolist():
        entropy_f[row] = _entropy_of_counts(counts_f[row].tolist(), n_bins)
        entropy_r[row] = _entropy_of_counts(counts_r[row].tolist(), n_bins)
    return entropy_f, entropy_r, n_f, n_r


def format_p(p: float) -> str:
    """Display convention for reports: exact small p-values collapse."""
    if p < 0.001:
        return "p<0.001"
    return f"p={p:.3g}"
