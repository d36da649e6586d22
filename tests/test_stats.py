import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import betainc, betaln

from echoscope.errors import UndefinedStatisticError
from echoscope.graph import build_follower_graph, build_retweet_graph, user_space
from echoscope.ingest import FollowEdgeList
from echoscope.stats import (
    EXACT_U_THRESHOLD,
    _approx_u_pvalue,
    _exact_u_pvalue,
    _ranks2,
    entropy_comparison,
    format_p,
    mann_whitney_u,
    pearson,
    shannon_entropy,
    student_t_two_sided,
)
from conftest import from_events, per_id, rt, t_two_sided_reference


# ---------------------------------------------------------------- pearson


def pearson_oracle(x, y):
    """Direct-formula reference: numpy moments plus the betainc tail."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    dx = x - x.mean()
    dy = y - y.mean()
    r = float((dx * dy).sum() / math.sqrt((dx * dx).sum() * (dy * dy).sum()))
    if abs(r) >= 1.0:
        return r, 0.0
    t2 = r * r * (n - 2) / (1 - r * r)
    p = float(betainc((n - 2) / 2.0, 0.5, (n - 2) / ((n - 2) + t2)))
    return r, p


def test_perfect_correlations():
    assert pearson([1, 2, 3], [1, 2, 3]).r == 1.0
    assert pearson([1, 2, 3], [3, 2, 1]).r == -1.0
    assert pearson([1, 2, 3], [1, 2, 3]).p == 0.0


def test_pearson_matches_direct_formula_oracle():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(3, 40))
        x = rng.normal(size=n)
        y = rng.normal(size=n) + 0.3 * x
        got = pearson(x.tolist(), y.tolist())
        r_ref, p_ref = pearson_oracle(x, y)
        assert got.r == pytest.approx(r_ref, abs=1e-12)
        assert got.p == pytest.approx(p_ref, abs=1e-12)
        assert got.n == n


@pytest.mark.parametrize("n", [3, 4, 5, 10, 30, 100, 1000, 5000])
def test_pearson_p_equals_scipy_stats_t_sf(n):
    # the p-value the report wrote while it called scipy, to 1e-12 relative;
    # the tail is now computed here (student_t_two_sided)
    from scipy import stats

    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    noise = rng.normal(size=n)
    for rho in (-0.999, -0.9, -0.5, -0.1, 0.0, 0.02, 0.3, 0.7, 0.99):
        y = rho * x + math.sqrt(1 - rho * rho) * noise
        got = pearson(x.tolist(), y.tolist())
        t = got.r * math.sqrt((n - 2) / (1.0 - got.r * got.r))
        assert got.p == pytest.approx(min(2.0 * float(stats.t.sf(abs(t), n - 2)), 1.0), rel=1e-12)


# degrees of freedom on both sides of the series cut (a = df / 2 = 40) and of
# the 1e4 bound; |t| from 1e-9 to 1e300, past the underflow of every tail but df 1's
TAIL_DFS = [1, 2, 3, 4, 5, 9, 19, 20, 21, 79, 80, 81, 100, 333, 1000, 4999, 7672, 9999, 10_000,
            30_001, 100_000, 300_000, 1_000_000]
TAIL_TS = np.r_[np.geomspace(1e-9, 1e300, 140), np.linspace(0.05, 12.0, 40)].tolist()


def ln_tail_upper_bound(df, t):
    """An upper bound on ln P(T > |t|): I_x(a, 1/2) <= x^a (1 - x)^(-1/2) / (a B(a, 1/2))."""
    ln_t2 = 2 * math.log(abs(t))
    a, ln_s = df / 2, ln_t2 + math.log1p(df / t / t)  # ln(df + t²), t² may overflow
    ln_x, ln_y = math.log(df) - ln_s, ln_t2 - ln_s
    return a * ln_x - ln_y / 2 - math.log(a) - float(betaln(a, 0.5)) - math.log(2)


@pytest.mark.parametrize("df", TAIL_DFS)
def test_student_t_tail_matches_stdtr(df):
    # relative error at most 1e-12 up to df 1e4 and 1e-10 beyond, wherever
    # stdtr's own (one-sided) result is a normal float; exactly 0.0 wherever
    # the true tail is below 1e-320
    bound = 1e-12 if df <= 10_000 else 1e-10
    checked = zeros = 0
    for t in TAIL_TS:
        got, ref = student_t_two_sided(df, t), t_two_sided_reference(df, t)
        if ref / 2 >= sys.float_info.min:
            assert abs(got - ref) <= bound * ref, (t, got, ref)
            checked += 1
        elif ln_tail_upper_bound(df, t) < math.log(1e-320) - 1:
            assert got == 0.0, (t, got)
            zeros += 1
    assert checked >= 40
    assert zeros > 0 or df == 1  # at df 1 the tail is about 1 / (pi |t|), never below 1e-320


def test_student_t_tail_edges():
    for df in (1, 2, 7672):
        assert student_t_two_sided(df, 0.0) == 1.0
        assert student_t_two_sided(df, -2.5) == student_t_two_sided(df, 2.5)
    assert student_t_two_sided(7672, 40.0) == 0.0  # crit9's ms_vs_mef and ms_vs_mer read 0.0
    assert student_t_two_sided(10, 1e200) == 0.0
    assert 0.0 < student_t_two_sided(10, 3e30) < 1e-290  # a deep tail that is still normal


def test_pearson_errors():
    with pytest.raises(UndefinedStatisticError, match="mismatch"):
        pearson([1, 2, 3], [1, 2])
    with pytest.raises(UndefinedStatisticError, match="at least 3"):
        pearson([1, 2], [1, 2])
    with pytest.raises(UndefinedStatisticError, match="variance"):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(UndefinedStatisticError, match="finite"):
        pearson([1, 2, float("nan")], [1, 2, 3])


@given(
    st.lists(st.floats(-100, 100), min_size=4, max_size=30),
    st.floats(0.1, 50),
    st.floats(-10, 10),
)
# squaring these deviations underflows into subnormals unless they are rescaled
@example(xs=[0.0, 0.0, 0.0, 3.0461049016284914e-159], a=0.5, b=0.0)
# 1 + 2**-52 leaves a spread of one ulp, which the rounded mean swallows
@example(xs=[0.0, 0.0, 0.0, 2.220446049250313e-16], a=1.0, b=1.0)
@settings(max_examples=120, deadline=None)
def test_pearson_symmetry_and_affine_invariance(xs, a, b):
    rng = np.random.default_rng(len(xs))
    ys = (np.asarray(xs) * 0.5 + rng.normal(size=len(xs))).tolist()
    try:
        base = pearson(xs, ys)
    except UndefinedStatisticError:
        return
    assert pearson(ys, xs).r == pytest.approx(base.r, abs=1e-12)
    try:
        scaled = pearson([a * v + b for v in xs], ys)
    except UndefinedStatisticError:
        return  # the affine map collapsed a tiny spread to a constant
    assert scaled.r == pytest.approx(base.r, abs=1e-9)


# ---------------------------------------------------------------- mann-whitney


def u_and_p_by_enumeration(a, b):
    """Independent oracle: direct pair counting over every labeling."""
    pooled = list(a) + list(b)
    n1, n2 = len(a), len(b)

    def u_of(sample_a, sample_b):
        u = 0.0
        for x in sample_a:
            for y in sample_b:
                if x > y:
                    u += 1.0
                elif x == y:
                    u += 0.5
        return u

    u_obs = u_of(a, b)
    center = n1 * n2 / 2.0
    total = 0
    favorable = 0
    for picks in itertools.combinations(range(len(pooled)), n1):
        chosen = set(picks)
        sample_a = [pooled[i] for i in picks]
        sample_b = [pooled[i] for i in range(len(pooled)) if i not in chosen]
        total += 1
        if abs(u_of(sample_a, sample_b) - center) >= abs(u_obs - center) - 1e-12:
            favorable += 1
    return u_obs, favorable / total


def test_u_identical_samples():
    for n in (2, 4, 6):
        sample = list(range(n))
        result = mann_whitney_u(sample, list(sample))
        assert result.u_statistic == n * n / 2


def test_u_extreme_separation():
    a = [10, 11, 12]
    b = [1, 2, 3]
    assert mann_whitney_u(a, b).u_statistic == 9  # max for the first sample
    assert mann_whitney_u(b, a).u_statistic == 0


def test_exact_p_matches_enumeration_with_ties():
    rng = np.random.default_rng(23)
    for trial in range(60):
        n1 = int(rng.integers(1, 6))
        n2 = int(rng.integers(1, 6))
        a = rng.integers(0, 4, size=n1).tolist()  # small range forces ties
        b = rng.integers(0, 4, size=n2).tolist()
        got = mann_whitney_u(a, b)
        u_ref, p_ref = u_and_p_by_enumeration(a, b)
        assert got.u_statistic == pytest.approx(u_ref, abs=1e-12)
        assert got.p == pytest.approx(p_ref, abs=1e-9), (a, b)


@given(
    st.lists(st.integers(0, 8), min_size=1, max_size=12),
    st.lists(st.integers(0, 8), min_size=1, max_size=12),
)
@settings(max_examples=150, deadline=None)
def test_u_complement_identity(a, b):
    ua = mann_whitney_u(a, b).u_statistic
    ub = mann_whitney_u(b, a).u_statistic
    assert ua + ub == len(a) * len(b)
    assert 0 <= ua <= len(a) * len(b)


def test_exact_and_approx_agree_where_both_apply():
    # the two routes overlap where enumeration is still feasible
    # (n1*n2 <= 400) and the normal regime has set in; below ~14 per sample
    # the U distribution is too coarse (pmf peak > 0.01) for any continuous
    # approximation to track the exact p that closely
    rng = np.random.default_rng(31)
    for trial in range(80):
        n1 = int(rng.integers(14, 21))
        n2 = int(rng.integers(14, 21))
        if n1 * n2 > EXACT_U_THRESHOLD:
            continue
        a = rng.normal(size=n1).round(1).tolist()
        b = (rng.normal(size=n2) + rng.uniform(-1.5, 1.5)).round(1).tolist()
        ranks2, tie_sizes = _ranks2(a + b)
        u2 = sum(ranks2[:n1]) - n1 * (n1 + 1)
        exact = _exact_u_pvalue(ranks2, n1, u2)
        approx = _approx_u_pvalue(tie_sizes, n1, u2 / 2)
        assert mann_whitney_u(a, b).p == exact
        assert abs(exact - approx) < 0.01, (n1, n2, exact, approx)


def test_u_degenerate_all_tied():
    result = mann_whitney_u([5, 5, 5], [5, 5])
    assert result.p == 1.0
    big = mann_whitney_u([5.0] * 30, [5.0] * 30)
    assert big.p == 1.0


def test_u_errors():
    with pytest.raises(UndefinedStatisticError):
        mann_whitney_u([], [1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_u_refuses_non_finite_values(bad):
    # a NaN has no rank: sorting one in made U depend on the samples' order
    for a, b in (([3.0, bad], [1.0]), ([bad, 3.0], [1.0]), ([1.0], [bad, 3.0])):
        with pytest.raises(UndefinedStatisticError, match="non-finite"):
            mann_whitney_u(a, b)


@given(
    st.lists(
        st.one_of(st.sampled_from([-0.0, 0.0, 1.0, 2.5]), st.floats(-1e6, 1e6)),
        min_size=1,
        max_size=40,
    )
)
@example([7.0])
@example([2.5] * 5)
@example([0.0, -0.0, 1.0, -0.0])
@settings(max_examples=300, deadline=None)
def test_ranks2_matches_counting_definition(values):
    # doubled average rank = 2 * #less + #equal + 1; -0.0 ties with 0.0
    ranks2, tie_sizes = _ranks2(values)
    assert ranks2 == [
        2 * sum(w < v for w in values) + sum(w == v for w in values) + 1 for v in values
    ]
    assert tie_sizes == [sum(w == v for w in values) for v in sorted(set(values))]


# ---------------------------------------------------------------- entropy


def test_entropy_degenerate_and_uniform():
    assert shannon_entropy([0.1, 0.12, 0.15], 5) == 0.0
    assert shannon_entropy([0.1, 0.9], 2) == 1.0
    assert shannon_entropy([0.2, 0.2, 0.8, 0.8, 0.1, 0.9], 2) == 1.0


def test_entropy_three_one_split():
    # direct formula: -(3/4 log2 3/4 + 1/4 log2 1/4) = 0.8112781244591328
    values = [0.1, 0.15, 0.19, 0.9]
    assert shannon_entropy(values, 2) == pytest.approx(0.8112781244591328, abs=1e-12)


def test_entropy_right_closed_last_bin():
    assert shannon_entropy([1.0, 1.0], 5) == 0.0
    assert shannon_entropy([0.999999, 1.0], 5) == 0.0


def test_entropy_errors():
    with pytest.raises(UndefinedStatisticError):
        shannon_entropy([], 5)
    with pytest.raises(UndefinedStatisticError):
        shannon_entropy([0.5], 1)
    with pytest.raises(UndefinedStatisticError):
        shannon_entropy([1.5], 5)


@given(st.lists(st.floats(0, 1), min_size=1, max_size=60), st.integers(2, 8))
@settings(max_examples=200, deadline=None)
def test_entropy_bounded_and_permutation_invariant(values, bins):
    h = shannon_entropy(values, bins)
    assert 0.0 <= h <= math.log2(bins) + 1e-12
    assert shannon_entropy(list(reversed(values)), bins) == pytest.approx(h, abs=1e-12)


def test_entropy_maximized_by_uniform():
    uniform = [i / 5 + 0.1 for i in range(5)]
    skewed = [0.1, 0.1, 0.1, 0.1, 0.9]
    assert shannon_entropy(uniform, 5) > shannon_entropy(skewed, 5)


# ---------------------------------------------------------------- comparison


def test_entropy_comparison_subset_purity():
    # retweet friends are an ideologically pure subset of diverse friends
    edges = FollowEdgeList.from_pairs([("s", f"f{i}") for i in range(4)])
    log = from_events([rt("s", 1, "f0"), rt("s", 2, "f1")])
    space = user_space({"s"}, edges, log)
    fg, rg = build_follower_graph(space), build_retweet_graph(space)
    m_s = per_id(fg.names, {"f0": 0.9, "f1": 0.95, "f2": 0.1, "f3": 0.5})
    entropy_f, entropy_r, n_f, n_r = entropy_comparison(fg, rg, m_s, 5, 1)
    assert entropy_r[0] < entropy_f[0]
    assert (n_f.tolist(), n_r.tolist()) == ([4], [2])


def test_entropy_comparison_identical_sets_and_skips():
    edges = FollowEdgeList.from_pairs([("s", "a"), ("s", "b"), ("q", "a")])
    log = from_events([rt("s", 1, "a"), rt("s", 2, "b")])
    space = user_space({"s", "q"}, edges, log)
    fg, rg = build_follower_graph(space), build_retweet_graph(space)
    m_s = per_id(fg.names, {"a": 0.2, "b": 0.8})
    entropy_f, entropy_r, _, _ = entropy_comparison(fg, rg, m_s, 4, 1)
    assert fg.seeds == ["q", "s"]
    # q has one scored friend and no retweets: undefined
    assert np.isnan(entropy_f[0]) and np.isnan(entropy_r[0])
    assert entropy_f[1] == entropy_r[1]


def test_format_p():
    assert format_p(0.0005) == "p<0.001"
    assert format_p(0.04) == "p=0.04"
