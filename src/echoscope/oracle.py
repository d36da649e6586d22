"""Brute-force oracle: the engine's per-user metrics, recomputed by direct scans.

``score_weights`` likewise rebuilds ``sampled_scores.csv`` from the edge list
and the log. Each side of compare_with_oracle is one name-keyed map per metric. The oracle
adds every float over a set in sorted order, so its output does not depend
on the hash seed.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EchoscopeError
from .graph import (
    OVERLAP_ACCOUNT,
    OVERLAP_CONTENT,
    build_follower_graph,
    build_retweet_graph,
    fraction_friends_retweeted,
    overlap_vs_threshold,
    retweet_overlap,
    user_space,
)
from .ingest import DatasetBundle
from .moderacy import (
    FOLLOWER,
    RETWEET,
    MetricsEngine,
    class_names,
    congruent_friend_fraction_diff,
    exposure_class_fractions,
    friend_activity_comparison,
)
from .stats import entropy_comparison


def oracle_metrics(
    bundle: DatasetBundle,
    k: int = 1,
    n_bins: int = 5,
    unique_domains: bool = False,
    max_events: int = 1000,
) -> dict[str, dict[str, float | str]]:
    """Recompute every metric by direct scans; guard-railed to small bundles.

    Deliberately shares no code with the analysis modules: plain loops, dicts
    and sets only, so it can serve as an independent check. Returns metric
    name -> user (or overlap mode) -> value, a key left out where the metric
    is undefined; class labels are strings, every other value a float.
    """
    if len(bundle.log) > max_events:
        raise EchoscopeError(
            f"oracle guard rail: {len(bundle.log)} events exceed max_events={max_events}"
        )
    events = bundle.log.events
    scores = bundle.scores
    seeds = set(bundle.seeds)

    by_author: dict[str, list] = {}
    for ev in events:
        by_author.setdefault(ev.author, []).append(ev)

    # individual raw means over original tweets, and how many values each averages
    mu: dict[str, float] = {}
    domain_count: dict[str, float] = {}
    for author, evs in by_author.items():
        if unique_domains:
            seen = set()
            for ev in evs:
                if ev.kind == "original":
                    for d in ev.domains:
                        if d in scores:
                            seen.add(d)
            if seen:
                mu[author] = sum(scores[d] for d in sorted(seen)) / len(seen)
                domain_count[author] = float(len(seen))
        else:
            total, count = 0.0, 0
            for ev in evs:
                if ev.kind == "original":
                    for d in ev.domains:
                        if d in scores:
                            total += scores[d]
                            count += 1
            if count:
                mu[author] = total / count
                domain_count[author] = float(count)

    folded = {a: (m if m > 0.5 else 1.0 - m) for a, m in mu.items()}

    def normalize(mapping: dict) -> dict:
        if not mapping:
            return {}
        lo = min(mapping.values())
        hi = max(mapping.values())
        if hi == lo:
            return {key: 0.5 for key in mapping}
        return {key: (v - lo) / (hi - lo) for key, v in mapping.items()}

    m_s = normalize(folded)
    moderacy_class = {a: ("Moderate" if v <= 0.5 else "Hardliner") for a, v in m_s.items()}

    # friend sets from the raw edge list
    friends: dict[str, set[str]] = {s: set() for s in seeds}
    for follower, friend in bundle.edges.iter_edges():
        if follower in seeds:
            friends[follower].add(friend)

    # retweet weights from the raw event stream
    weights: dict[str, dict[str, int]] = {}
    for ev in events:
        if ev.kind == "retweet" and ev.author in seeds:
            row = weights.setdefault(ev.author, {})
            row[ev.original_author] = row.get(ev.original_author, 0) + 1

    def rt_friends(user: str) -> set[str]:
        return {v for v, w in weights.get(user, {}).items() if w >= k}

    def pool_mean(friend_set: set[str]):
        if unique_domains:
            seen = set()
            for fr in sorted(friend_set):
                for ev in by_author.get(fr, ()):
                    for d in ev.domains:
                        if d in scores:
                            seen.add(d)
            if not seen:
                return None
            return sum(scores[d] for d in sorted(seen)) / len(seen)
        total, count = 0.0, 0
        for fr in sorted(friend_set):
            for ev in by_author.get(fr, ()):
                for d in ev.domains:
                    if d in scores:
                        total += scores[d]
                        count += 1
        if count == 0:
            return None
        return total / count

    raw_exposure: dict[tuple[str, str], float] = {}
    for user in sorted(seeds):
        if user not in mu:
            continue
        for kind, fset in (("f", friends.get(user, set())), ("r", rt_friends(user))):
            if not fset:
                continue
            raw = pool_mean(fset)
            if raw is None:
                continue
            raw_exposure[(kind, user)] = raw if mu[user] > 0.5 else 1.0 - raw
    exposure_norm = normalize(raw_exposure)
    m_e_f = {u: v for (kind, u), v in exposure_norm.items() if kind == "f"}
    m_e_r = {u: v for (kind, u), v in exposure_norm.items() if kind == "r"}
    delta = {u: m_e_f[u] - m_e_r[u] for u in m_e_f if u in m_e_r}

    # per-occurrence classes in each seed's pool, for every seed (scored or
    # not) whose pool holds a scored occurrence
    fractions: dict[str, dict[str, float]] = {
        "frac_moderate_f": {}, "frac_hardline_f": {}, "frac_moderate_r": {}, "frac_hardline_r": {}
    }
    for user in sorted(seeds):
        for kind, fset in (("f", friends.get(user, set())), ("r", rt_friends(user))):
            n_mod, n_total = 0, 0
            for fr in fset:
                for ev in by_author.get(fr, ()):
                    for d in ev.domains:
                        if d in scores:
                            n_total += 1
                            s = scores[d]
                            if (s if s > 0.5 else 1.0 - s) <= 0.5:
                                n_mod += 1
            if n_total:
                fractions["frac_moderate_" + kind][user] = n_mod / n_total
                fractions["frac_hardline_" + kind][user] = (n_total - n_mod) / n_total

    frac_rt: dict[str, float] = {}
    overlap_account: dict[str, float] = {}
    overlap_content: dict[str, float] = {}
    for user in sorted(seeds):
        fset = friends.get(user, set())
        rset = rt_friends(user)
        if fset:
            frac_rt[user] = len(fset & rset) / len(fset)
        if rset:
            overlap_account[user] = len(rset & fset) / len(rset)
            num, den = 0, 0
            for ev in by_author.get(user, ()):
                if ev.kind == "retweet" and ev.original_author in rset:
                    den += 1
                    if ev.original_author in fset:
                        num += 1
            if den:
                overlap_content[user] = num / den

    # overlap-curve point at k: the mean over seeds whose overlap is defined,
    # added in sorted-seed order
    overlap_curve_mean: dict[str, float] = {}
    overlap_curve_n: dict[str, float] = {}
    for mode, per_user in (("account", overlap_account), ("content", overlap_content)):
        values = [per_user[u] for u in sorted(per_user)]
        overlap_curve_n[mode] = float(len(values))
        if values:
            overlap_curve_mean[mode] = sum(values) / len(values)

    # congruence: own-class share among scored retweeted vs not-retweeted friends
    cong_r: dict[str, float] = {}
    cong_n: dict[str, float] = {}
    cong_diff: dict[str, float] = {}
    for user in sorted(seeds):
        own = moderacy_class.get(user)
        if own is None:
            continue
        fset = friends.get(user, set())
        rset = rt_friends(user)
        r_classes = [moderacy_class[f] for f in sorted(fset) if f in rset and f in moderacy_class]
        n_classes = [
            moderacy_class[f] for f in sorted(fset) if f not in rset and f in moderacy_class
        ]
        if r_classes and n_classes:
            cong_r[user] = r_classes.count(own) / len(r_classes)
            cong_n[user] = n_classes.count(own) / len(n_classes)
            cong_diff[user] = cong_r[user] - cong_n[user]

    # activity: every followed account once, retweeted if any seed passed k
    followed: set[str] = set()
    retweeted_any: set[str] = set()
    for user in seeds:
        followed.update(friends.get(user, set()))
        retweeted_any.update(rt_friends(user))
    activity = {f: float(len(by_author.get(f, ()))) for f in followed}
    activity_retweeted = {f: (1.0 if f in retweeted_any else 0.0) for f in followed}
    activity_class = {f: moderacy_class[f] for f in followed if f in moderacy_class}

    def entropy(values: list[float]) -> float:
        counts = Counter(min(int(v * n_bins), n_bins - 1) for v in values)
        total = len(values)
        return -sum((c / total) * math.log2(c / total) for _, c in sorted(counts.items()))

    entropy_f: dict[str, float] = {}
    entropy_r: dict[str, float] = {}
    for user in sorted(seeds):
        f_vals = [m_s[v] for v in sorted(friends.get(user, set())) if v in m_s]
        r_vals = [m_s[v] for v in sorted(rt_friends(user)) if v in m_s]
        if len(f_vals) >= 2 and len(r_vals) >= 2:
            entropy_f[user] = entropy(f_vals)
            entropy_r[user] = entropy(r_vals)

    return {
        "mu": mu,
        "domain_count": domain_count,
        "m_s": m_s,
        "moderacy_class": moderacy_class,
        "m_e_f": m_e_f,
        "m_e_r": m_e_r,
        "delta": delta,
        "frac_friends_retweeted": frac_rt,
        "overlap_account": overlap_account,
        "overlap_content": overlap_content,
        **fractions,
        "entropy_f": entropy_f,
        "entropy_r": entropy_r,
        "frac_congruent_retweeted": cong_r,
        "frac_congruent_not_retweeted": cong_n,
        "congruence_diff": cong_diff,
        "activity": activity,
        "activity_retweeted": activity_retweeted,
        "activity_class": activity_class,
        "overlap_curve_mean": overlap_curve_mean,
        "overlap_curve_n": overlap_curve_n,
    }


def score_weights(bundle: DatasetBundle, m_s: dict[str, float]) -> list[tuple[str, float, int]]:
    """The rows of sampled_scores.csv, by plain loops: per source, per distinct
    score in ``m_s`` (scored user -> m_s) ascending, the summed weight of the
    users holding it; a row of weight 0 is left out.

    ``random_friend`` weights a user by the edges from seeds to it,
    ``random_retweet_friend`` by the retweets of it that seeds posted, and
    ``random_user`` by 1. Both indegrees are counted from the edge list and
    the log, so to check a window, restrict the bundle's log first.
    """
    seeds = set(bundle.seeds)
    follows = Counter(friend for follower, friend in bundle.edges.iter_edges() if follower in seeds)
    retweets = Counter(
        ev.original_author for ev in bundle.log.events if ev.kind == "retweet" and ev.author in seeds
    )
    rows = []
    for source, weight in (
        ("random_friend", follows),
        ("random_retweet_friend", retweets),
        ("random_user", dict.fromkeys(m_s, 1)),
    ):
        totals: dict[float, int] = {}
        for user, score in m_s.items():
            totals[score] = totals.get(score, 0) + weight.get(user, 0)
        rows += [(source, score, totals[score]) for score in sorted(totals) if totals[score]]
    return rows


@dataclass
class OracleDiff:
    """Outcome of an engine-vs-oracle comparison."""

    max_abs_diff: float
    worst_metric: str
    n_compared: int
    presence_mismatches: tuple[str, ...]
    class_mismatches: tuple[str, ...]

    def ok(self, tol: float = 1e-12) -> bool:
        return (
            not self.presence_mismatches
            and not self.class_mismatches
            and self.max_abs_diff <= tol
        )


def compare_with_oracle(
    bundle: DatasetBundle,
    k: int = 1,
    n_bins: int = 5,
    unique_domains: bool = False,
    max_events: int = 1000,
) -> OracleDiff:
    """Run the engine and the oracle on a bundle and diff every metric.

    To check a window, restrict the bundle's log first; both sides then see
    only its events.
    """
    oracle = oracle_metrics(bundle, k, n_bins, unique_domains, max_events)

    if not bundle.seeds and not bundle.log.events:
        # nothing to analyze on either route: vacuous agreement
        return OracleDiff(0.0, "none", 0, (), ())
    space = user_space(bundle.seeds, bundle.edges, bundle.log)
    fg = build_follower_graph(space)
    rg = build_retweet_graph(space)
    engine = MetricsEngine(bundle, fg, rg, unique_domains)
    metrics = engine.metrics_at(k)

    names, seeds = engine.names, fg.seeds

    def named(keys: Sequence[str], values) -> dict:
        """Values over ids (or seed rows) as a map from name, NaN and None left out."""
        pairs = zip(keys, np.asarray(values).tolist())
        return {key: v for key, v in pairs if v is not None and v == v}  # NaN != NaN

    defined_count = np.where(np.isnan(engine.mu), np.nan, engine.domain_count)
    engine_maps: dict[str, dict] = {
        "mu": named(names, engine.mu),
        "domain_count": named(names, defined_count),
        "m_s": named(names, engine.m_s),
        "moderacy_class": named(names, class_names(engine.class_code)),
        "m_e_f": named(names, metrics.m_e_f),
        "m_e_r": named(names, metrics.m_e_r),
        "delta": named(names, metrics.delta),
        "frac_friends_retweeted": named(seeds, fraction_friends_retweeted(fg, rg, k)),
    }
    for mode in (OVERLAP_ACCOUNT, OVERLAP_CONTENT):
        engine_maps["overlap_" + mode] = named(seeds, retweet_overlap(fg, rg, k, mode))
    for kind, tag in ((FOLLOWER, "f"), (RETWEET, "r")):
        frac_mod, frac_hard = exposure_class_fractions(engine, kind, k)
        engine_maps["frac_moderate_" + tag] = named(seeds, frac_mod)
        engine_maps["frac_hardline_" + tag] = named(seeds, frac_hard)
    entropy_f, entropy_r, _, _ = entropy_comparison(fg, rg, engine.m_s, n_bins, k)
    engine_maps["entropy_f"] = named(seeds, entropy_f)
    engine_maps["entropy_r"] = named(seeds, entropy_r)
    frac_r, frac_n = congruent_friend_fraction_diff(fg, rg, engine.class_code, k)
    engine_maps["frac_congruent_retweeted"] = named(seeds, frac_r)
    engine_maps["frac_congruent_not_retweeted"] = named(seeds, frac_n)
    engine_maps["congruence_diff"] = named(seeds, frac_r - frac_n)
    friends, activity, retweeted = friend_activity_comparison(engine, k)
    friend_names = [names[i] for i in friends.tolist()]
    engine_maps["activity"] = named(friend_names, activity.astype(np.float64))
    engine_maps["activity_retweeted"] = named(friend_names, retweeted.astype(np.float64))
    engine_maps["activity_class"] = named(friend_names, class_names(engine.class_code[friends]))
    engine_maps["overlap_curve_mean"] = {}
    engine_maps["overlap_curve_n"] = {}
    for mode in (OVERLAP_ACCOUNT, OVERLAP_CONTENT):
        ((_, mean, n_users),) = overlap_vs_threshold(fg, rg, [k], mode)
        engine_maps["overlap_curve_n"][mode] = float(n_users)
        if n_users:
            engine_maps["overlap_curve_mean"][mode] = mean

    # the oracle scores every author; the engine does too, via the same log
    presence_mismatches: list[str] = []
    class_mismatches: list[str] = []
    max_diff = 0.0
    worst = "none"
    n_compared = 0
    for name, engine_map in engine_maps.items():
        oracle_map = oracle[name]
        if set(engine_map) != set(oracle_map):
            missing = set(oracle_map) ^ set(engine_map)
            presence_mismatches.append(f"{name}: {sorted(missing)[:5]}")
            continue
        for user, value in engine_map.items():
            n_compared += 1
            if isinstance(value, str):
                if value != oracle_map[user]:
                    class_mismatches.append(f"{name}[{user}]")
                continue
            diff = abs(value - oracle_map[user])
            if diff > max_diff:
                max_diff = diff
                worst = f"{name}[{user}]"
    if len(friend_names) != len(engine_maps["activity"]):
        presence_mismatches.append("activity: a friend has more than one row")
    return OracleDiff(
        max_abs_diff=max_diff,
        worst_metric=worst,
        n_compared=n_compared,
        presence_mismatches=tuple(presence_mismatches),
        class_mismatches=tuple(class_mismatches),
    )
