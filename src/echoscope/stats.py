"""Statistical primitives: Pearson r, Mann-Whitney U, Shannon entropy.

Sums use math.fsum (exactly rounded) so results do not depend on the order
in which samples are accumulated. ``entropy_comparison`` returns vectors over
the graphs' seed rows, NaN where a seed's entropy is undefined; the report
runs the U test on the defined values.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Sequence

import numpy as np

from .errors import UndefinedStatisticError
from .graph import FollowerGraph, RetweetGraph

# below this product of sample sizes the U distribution is enumerated exactly
EXACT_U_THRESHOLD = 400

_PI = Decimal("3.141592653589793238462643383279502884197")
# ln(Gamma(a + 1/2) / Gamma(a)) - ln(a) / 2 ~ sum num / den / a**j, (j, num, den) below;
# the next term is about -0.0128 / a**13, below 1e-22 from a = 40 on
_HALF_GAMMA_SERIES = ((1, -1, 8), (3, 1, 192), (5, -1, 640), (7, 17, 14336), (9, -31, 18432),
                      (11, 691, 180224))


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
        t = r * math.sqrt((n - 2) / (1.0 - r * r))
        p = student_t_two_sided(n - 2, t)
    return CorrelationResult(r, min(p, 1.0), n)


def student_t_two_sided(df: int, t: float) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom; 0.0 below the
    smallest normal float.

    This is I_x(a, 1/2) at x = df / (df + t²), a = df / 2: a continued
    fraction times x^a (1 - x)^(1/2) / (a B(a, 1/2)), the prefactor in log
    space so a deep tail does not underflow early; past (a + 1) / (a + 5/2),
    where the fraction converges slowly, 1 - I_(1-x)(1/2, a). For large a and
    x near 1 the fraction's terms cancel, losing about log10(a) digits, so it
    all runs in 40-digit decimals. The fraction stops once a step moves it by
    less than 1e-20, so the float returned is the exact tail rounded to
    nearest, unless the exact tail lies within about 1e-20 of a rounding tie.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        a, b = Decimal(df) / 2, Decimal(1) / 2
        tt = Decimal(t) ** 2
        x, y = df / (df + tt), tt / (df + tt)
        ln_front = a * x.ln() + b * y.ln() - _ln_beta_half(a)
        if x < (a + 1) / (a + b + 2):
            p = float((ln_front + (_beta_fraction(x, a, b) / a).ln()).exp())
        else:
            p = float(1 - ln_front.exp() * _beta_fraction(y, b, a) / b)
    return p if p >= sys.float_info.min else 0.0


def _ln_beta_half(a: Decimal) -> Decimal:
    """ln B(a, 1/2) = ln(sqrt(pi) Gamma(a) / Gamma(a + 1/2)), from the series
    at a + j >= 40 and B(z, 1/2) = B(z + 1, 1/2) (z + 1/2) / z."""
    steps = Decimal(1)
    while a < 40:
        steps *= (a + Decimal(1) / 2) / a
        a += 1
    series = sum(Decimal(num) / den / a**j for j, num, den in _HALF_GAMMA_SERIES)
    return (_PI.ln() - a.ln()) / 2 - series + steps.ln()


def _beta_fraction(x: Decimal, a: Decimal, b: Decimal) -> Decimal:
    """The continued fraction of I_x(a, b) (modified Lentz), for x below (a + 1) / (a + b + 2)."""
    c = one = Decimal(1)
    h = d = one / (one - (a + b) * x / (a + 1))
    for m in range(1, 10_000):
        for term in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = one / (one + term * d)
            c = one + term / c
            h *= d * c
        if abs(d * c - one) < Decimal("1e-20"):
            return h
    raise ArithmeticError(f"no convergence for I_{x}({a}, {b})")


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


def _ranks2(pooled: Sequence[float]) -> tuple[list[int], list[int]]:
    """Average ranks of the pooled sample, doubled so ties stay integral, and
    the tie groups' sizes in ascending value order. The group of ``size``
    values at 0-based sorted positions s..s+size-1 holds ranks s+1..s+size,
    whose doubled average is 2s + size + 1."""
    _, group, sizes = np.unique(pooled, return_inverse=True, return_counts=True)
    starts = np.cumsum(sizes) - sizes
    return (2 * starts + sizes + 1)[group].tolist(), sizes.tolist()


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


def _approx_u_pvalue(tie_sizes: list[int], n1: int, u: float) -> float:
    """Two-sided normal approximation with tie-corrected variance and a
    continuity correction."""
    n = sum(tie_sizes)
    n2 = n - n1
    tie_term = sum(size**3 - size for size in tie_sizes)
    var = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1.0)))
    if var <= 0:
        return 1.0
    mean = n1 * n2 / 2.0
    z = (abs(u - mean) - 0.5) / math.sqrt(var)
    if z < 0:
        z = 0.0
    p = 2.0 * 0.5 * math.erfc(z / math.sqrt(2.0))
    return min(p, 1.0)


def mann_whitney_u(a: Sequence[float], b: Sequence[float]) -> UTestResult:
    """Rank-sum U for sample ``a`` with a two-sided p-value.

    Ties share average ranks. The p-value is exact (subset-count enumeration
    of the permutation distribution) when n1*n2 <= EXACT_U_THRESHOLD and a
    tie-corrected, continuity-corrected normal approximation otherwise. A NaN
    or infinite value has no rank and raises UndefinedStatisticError.
    """
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        raise UndefinedStatisticError("both samples must be non-empty")
    pooled = [float(v) for v in a] + [float(v) for v in b]
    if not all(math.isfinite(v) for v in pooled):
        raise UndefinedStatisticError("non-finite value in input")
    ranks2, tie_sizes = _ranks2(pooled)
    rank2_a = sum(ranks2[:n1])
    # U_a = R_a - n1*(n1+1)/2 counts pairs where a beats b (ties half);
    # doubled ranks keep everything integral until the final halving
    u2 = rank2_a - n1 * (n1 + 1)
    u = u2 / 2.0

    if n1 * n2 <= EXACT_U_THRESHOLD:
        p = _exact_u_pvalue(ranks2, n1, u2)
    else:
        p = _approx_u_pvalue(tie_sizes, n1, u)
    return UTestResult(u, p, n1, n2)


def shannon_entropy(values: Sequence[float], n_bins: int) -> float:
    """Entropy in bits of values binned into equal-width bins on [0,1].

    The last bin is right-closed so 1.0 lands in bin n_bins - 1.
    """
    if len(values) == 0:
        raise UndefinedStatisticError("entropy of an empty sample is undefined")
    counts = np.bincount(_bins(np.asarray(values, dtype=np.float64), n_bins), minlength=n_bins)
    return _entropy_of_counts(counts.tolist())


def _bins(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Equal-width bins of values in [0,1]; the last bin is right-closed."""
    if n_bins < 2:
        raise UndefinedStatisticError("need at least 2 bins")
    inside = (values >= 0.0) & (values <= 1.0)
    if not inside.all():
        raise UndefinedStatisticError(f"value out of [0,1]: {values[~inside][0]}")
    return np.minimum((values * n_bins).astype(np.int64), n_bins - 1)


def _entropy_of_counts(counts: list[int]) -> float:
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
    # each seed row's bin counts, over each user's bin (-1 when unscored)
    scored = ~np.isnan(m_s)
    bins = np.full(m_s.size, -1)
    bins[scored] = _bins(m_s[scored], n_bins)
    counts_f = fg.follow.label_counts(bins, n_bins)
    counts_r = rg.at_least(k).label_counts(bins, n_bins)
    n_f, n_r = counts_f.sum(axis=1), counts_r.sum(axis=1)

    entropy_f = np.full(len(fg.seeds), np.nan)
    entropy_r = np.full(len(fg.seeds), np.nan)
    for row in np.flatnonzero((n_f >= 2) & (n_r >= 2)).tolist():
        entropy_f[row] = _entropy_of_counts(counts_f[row].tolist())
        entropy_r[row] = _entropy_of_counts(counts_r[row].tolist())
    return entropy_f, entropy_r, n_f, n_r


def format_p(p: float) -> str:
    """Display convention for reports: exact small p-values collapse."""
    if p < 0.001:
        return "p<0.001"
    return f"p={p:.3g}"
