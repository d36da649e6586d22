"""Acceptance suite: one test per criterion, one printed verdict line each.

Criteria 4-8 share a 20-run battery of the calibrated synthetic family
(n=2000 users, homophily length scale 0.2, attention bias 5; bias 0 for the
null battery). All seeds are fixed, so the verdicts are reproducible.
"""
import itertools
import math
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from conftest import graphs_of

from echoscope.ingest import write_domain_scores, write_events, write_follow_edges
from echoscope.moderacy import (
    CLASSES,
    HARDLINER,
    MODERATE,
    MetricsEngine,
    congruent_friend_fraction_diff,
    fold,
    minmax_normalize,
)
from echoscope.oracle import compare_with_oracle
from echoscope.stats import entropy_comparison, mann_whitney_u, pearson, shannon_entropy
from echoscope.synth import SynthConfig, generate

K_GRID = (1, 2, 5, 10)
BETA5_SEEDS = tuple(range(1000, 1020))
BETA0_SEEDS = tuple(range(2000, 2020))


def _criterion(name: str, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {name}: {detail}"


def family_config(beta: float, seed: int) -> SynthConfig:
    return SynthConfig(
        n_users=2000,
        n_domains=50,
        follow_homophily=0.2,
        base_follow_prob=0.02,
        attention_bias=beta,
        activity_rate=40.0,
        retweet_rate=100.0,
        duration=1_000_000,
        seed=seed,
    )


def battery_run(beta: float, seed: int) -> dict:
    t0 = time.perf_counter()
    bundle, _ = generate(family_config(beta, seed))
    fg, rg = graphs_of(bundle)
    engine = MetricsEngine(bundle, fg, rg)
    out: dict = {"k": {}}
    for k in K_GRID:
        mset = engine.metrics_at(k)
        paired = np.flatnonzero(~np.isnan(engine.m_s) & ~np.isnan(mset.delta))
        ms = engine.m_s[paired].tolist()
        deltas = mset.delta[paired].tolist()
        out["k"][k] = {
            "r_f": pearson(ms, mset.m_e_f[paired].tolist()).r,
            "r_r": pearson(ms, mset.m_e_r[paired].tolist()).r,
            "r_delta": pearson(deltas, ms).r,
            "mean_delta": statistics.fmean(deltas),
            "n": len(paired),
        }
    entropy_f, entropy_r, _, _ = entropy_comparison(fg, rg, engine.m_s, 5, 1)
    defined = ~np.isnan(entropy_f)
    out["entropy_f"] = statistics.fmean(entropy_f[defined].tolist())
    out["entropy_r"] = statistics.fmean(entropy_r[defined].tolist())
    out["entropy_p"] = mann_whitney_u(entropy_f[defined].tolist(), entropy_r[defined].tolist()).p
    frac_r, frac_n = congruent_friend_fraction_diff(fg, rg, engine.class_code, 1)
    diff = frac_r - frac_n
    own = engine.class_code[fg.seed_ids]
    for key, cls in (("cong_moderate", MODERATE), ("cong_hardliner", HARDLINER)):
        in_class = ~np.isnan(diff) & (own == CLASSES.index(cls))
        out[key] = statistics.fmean(diff[in_class].tolist())
    out["seconds"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def beta5_runs():
    return [battery_run(5.0, seed) for seed in BETA5_SEEDS]


@pytest.fixture(scope="module")
def beta0_runs():
    return [battery_run(0.0, seed) for seed in BETA0_SEEDS]


# ------------------------------------------------------------------ 1


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(424242)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        cfg = SynthConfig(
            n_users=int(rng.integers(10, 41)),
            n_domains=int(rng.integers(8, 25)),
            follow_homophily=float(rng.uniform(0.15, 0.5)),
            base_follow_prob=float(rng.uniform(0.1, 0.4)),
            attention_bias=float(rng.uniform(0.0, 6.0)),
            activity_rate=float(rng.uniform(3.0, 6.0)),
            retweet_rate=float(rng.uniform(1.0, 4.0)),
            duration=int(rng.integers(10_000, 200_000)),
            seed=int(rng.integers(0, 2**62)),
        )
        bundle, _ = generate(cfg)
        assert len(bundle.log) <= 1000, f"bundle {i} too large for the oracle"
        diff = compare_with_oracle(bundle, k=int(rng.integers(1, 4)))
        assert diff.ok(1e-12), f"bundle {i}: {diff}"
        worst = max(worst, diff.max_abs_diff)
    elapsed = time.perf_counter() - t0
    _criterion(
        "1 oracle equivalence",
        elapsed < 60.0,
        f"100 bundles, worst |diff| {worst:.2e} <= 1e-12, {elapsed:.1f}s < 60s",
    )


# ------------------------------------------------------------------ 2


def test_criterion_2_fold_normalize_algebra():
    rng = np.random.default_rng(31337)
    mus = rng.random(100_000)
    folded = []
    failures = 0
    for mu in mus.tolist():
        f = fold(mu)
        if f != fold(1.0 - mu) or not 0.5 <= f <= 1.0:
            failures += 1
        folded.append(f)
    normalized = minmax_normalize(np.array(folded)).tolist()
    order_in = sorted(range(len(folded)), key=lambda i: (folded[i], i))
    order_out = sorted(range(len(normalized)), key=lambda i: (normalized[i], i))
    rank_ok = order_in == order_out
    endpoint_ok = min(normalized) == 0.0 and max(normalized) == 1.0
    _criterion(
        "2 fold/normalize algebra",
        failures == 0 and rank_ok and endpoint_ok,
        f"{len(mus)} samples, {failures} fold failures, ranks {'kept' if rank_ok else 'BROKEN'}, "
        f"endpoints {'exact' if endpoint_ok else 'WRONG'}",
    )


# ------------------------------------------------------------------ 3


def _pearson_oracle(x, y):
    x = np.asarray(x)
    y = np.asarray(y)
    dx = x - x.mean()
    dy = y - y.mean()
    r = float((dx * dy).sum() / math.sqrt((dx * dx).sum() * (dy * dy).sum()))
    return r


def _u_p_enumeration(a, b):
    pooled = list(a) + list(b)
    n1, n2 = len(a), len(b)

    def u_of(sa, sb):
        return sum(1.0 if x > y else 0.5 if x == y else 0.0 for x in sa for y in sb)

    u_obs = u_of(a, b)
    center = n1 * n2 / 2.0
    favorable = total = 0
    for picks in itertools.combinations(range(len(pooled)), n1):
        chosen = set(picks)
        sa = [pooled[i] for i in picks]
        sb = [pooled[i] for i in range(len(pooled)) if i not in chosen]
        total += 1
        if abs(u_of(sa, sb) - center) >= abs(u_obs - center) - 1e-12:
            favorable += 1
    return u_obs, favorable / total


def test_criterion_3_statistical_primitives():
    rng = np.random.default_rng(2718)
    worst_r = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 50))
        x = rng.normal(size=n)
        y = rng.normal(size=n) + rng.uniform(-1, 1) * x
        got = pearson(x.tolist(), y.tolist())
        worst_r = max(worst_r, abs(got.r - _pearson_oracle(x, y)))
    pearson_ok = worst_r <= 1e-10

    worst_p = 0.0
    complement_ok = True
    for _ in range(150):
        n = int(rng.integers(1, 6))
        a = rng.integers(0, 4, size=n).tolist()
        b = rng.integers(0, 4, size=n).tolist()
        got = mann_whitney_u(a, b)
        u_ref, p_ref = _u_p_enumeration(a, b)
        worst_p = max(worst_p, abs(got.p - p_ref))
        if got.u_statistic + mann_whitney_u(b, a).u_statistic != n * n:
            complement_ok = False
    mwu_ok = worst_p <= 1e-9 and complement_ok

    bound_ok = True
    for _ in range(200):
        n_bins = int(rng.integers(2, 9))
        values = rng.random(int(rng.integers(1, 40))).tolist()
        if not shannon_entropy(values, n_bins) <= math.log2(n_bins) + 1e-12:
            bound_ok = False
    degenerate_ok = (
        shannon_entropy([0.1, 0.11, 0.12], 2) == 0.0
        and shannon_entropy([0.2, 0.8, 0.3, 0.7], 2) == 1.0
    )
    _criterion(
        "3 statistical primitives",
        pearson_ok and mwu_ok and bound_ok and degenerate_ok,
        f"pearson worst {worst_r:.1e} <= 1e-10; U-test worst {worst_p:.1e} <= 1e-9, "
        f"complement {'holds' if complement_ok else 'BROKEN'}; entropy bound "
        f"{'holds' if bound_ok else 'BROKEN'}, degenerate/uniform "
        f"{'exact' if degenerate_ok else 'WRONG'}",
    )


# ------------------------------------------------------------------ 4


def test_criterion_4_echo_chamber_ordering(beta5_runs):
    wins = sum(1 for r in beta5_runs if r["k"][1]["r_r"] > r["k"][1]["r_f"] > 0)
    slowest = max(r["seconds"] for r in beta5_runs)
    _criterion(
        "4 echo-chamber ordering",
        wins >= 19 and slowest < 60.0,
        f"r(m_s,m_e_r) > r(m_s,m_e_f) > 0 in {wins}/20 runs (need 19); "
        f"slowest run {slowest:.1f}s < 60s",
    )


# ------------------------------------------------------------------ 5


def test_criterion_5_bias_threshold_trend(beta5_runs):
    wins = 0
    for r in beta5_runs:
        rd = [r["k"][k]["r_delta"] for k in K_GRID]
        if rd[0] < 0 and all(rd[i + 1] <= rd[i] for i in range(len(rd) - 1)):
            wins += 1
    _criterion(
        "5 bias-threshold trend",
        wins >= 18,
        f"r(delta,m_s) negative at k=1 and non-increasing over {K_GRID} "
        f"in {wins}/20 runs (need 18)",
    )


# ------------------------------------------------------------------ 6


def test_criterion_6_null_model(beta0_runs):
    grand_mean = statistics.fmean(r["k"][1]["mean_delta"] for r in beta0_runs)
    slopes = []
    for r in beta0_runs:
        ys = [r["k"][k]["r_delta"] for k in K_GRID]
        xbar = statistics.fmean(K_GRID)
        ybar = statistics.fmean(ys)
        slopes.append(
            sum((x - xbar) * (y - ybar) for x, y in zip(K_GRID, ys))
            / sum((x - xbar) ** 2 for x in K_GRID)
        )
    t_stat = statistics.fmean(slopes) / (
        statistics.stdev(slopes) / math.sqrt(len(slopes))
    )
    t_crit = float(scipy_stats.t.ppf(0.05, len(slopes) - 1))
    not_negative = t_stat >= t_crit
    _criterion(
        "6 null model",
        abs(grand_mean) < 0.02 and not_negative,
        f"|mean delta| {abs(grand_mean):.5f} < 0.02; slope t={t_stat:+.2f} vs "
        f"one-sided crit {t_crit:.2f} at alpha=0.05 -> trend "
        f"{'absent' if not_negative else 'PRESENT'}",
    )


# ------------------------------------------------------------------ 7


def test_criterion_7_entropy_claim(beta5_runs):
    wins = sum(
        1
        for r in beta5_runs
        if r["entropy_p"] < 0.001 and r["entropy_r"] < r["entropy_f"]
    )
    _criterion(
        "7 entropy claim",
        wins >= 19,
        f"retweet-friend entropy below follower-friend entropy at p<0.001 "
        f"in {wins}/20 runs (need 19)",
    )


# ------------------------------------------------------------------ 8


def test_criterion_8_congruence_claim(beta5_runs):
    wins = sum(
        1
        for r in beta5_runs
        if r["cong_moderate"] > 0 and r["cong_hardliner"] > r["cong_moderate"]
    )
    _criterion(
        "8 congruence claim",
        wins >= 18,
        f"mean congruence diff positive for both classes and larger for "
        f"hardliners in {wins}/20 runs (need 18)",
    )


# ------------------------------------------------------------------ 9


def test_criterion_9_determinism_and_performance(tmp_path):
    cfg = SynthConfig(
        n_users=10_000,
        n_domains=100,
        follow_homophily=0.2,
        base_follow_prob=0.0315,
        attention_bias=5.0,
        activity_rate=6.2,
        retweet_rate=4.0,
        duration=1_000_000,
        seed=99,
    )
    bundle, _ = generate(cfg)
    assert bundle.edges.n_edges >= 1_000_000, bundle.edges.n_edges
    assert len(bundle.log) >= 95_000, len(bundle.log)
    data = tmp_path / "data"
    data.mkdir()
    write_domain_scores(bundle.scores, str(data / "scores.csv"))
    write_follow_edges(bundle.edges, str(data / "edges.csv"))
    write_events(bundle.log, str(data / "events.jsonl"))

    def run(threads: int, out: str) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable, "-m", "echoscope.cli", "report",
                "--scores", str(data / "scores.csv"),
                "--edges", str(data / "edges.csv"),
                "--events", str(data / "events.jsonl"),
                "--out", str(tmp_path / out),
                "--reps", "1000", "--baseline-users", "100",
                "--seed", "7", "--threads", str(threads), "--no-cache",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        return time.perf_counter() - t0

    t1 = run(1, "out1")
    t8 = run(8, "out8")
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    names = sorted(p.name for p in (tmp_path / "out1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "out8").iterdir())
    identical = all(
        (tmp_path / "out1" / n).read_bytes() == (tmp_path / "out8" / n).read_bytes()
        for n in names
    )
    _criterion(
        "9 determinism & performance",
        identical and t1 < 120.0 and t8 < 120.0 and peak_mb < 2048,
        f"{bundle.edges.n_edges} edges / {len(bundle.log)} events; byte-identical "
        f"across threads 1 and 8: {identical}; report {t1:.1f}s and {t8:.1f}s < 120s; "
        f"peak child RSS {peak_mb:.0f}MB < 2048MB",
    )
