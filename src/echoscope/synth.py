"""Synthetic datasets with planted ideology, homophily, and attention bias.

The generative model, all driven by counter-based substreams of one seed:

  ideology      x_u ~ Uniform(0,1) per user
  domains       planted scores snapped to the five-level scale {0,.25,.5,.75,1};
                the first five domains cover all levels so every slant is
                postable
  follow edges  i -> j with probability base_follow_prob * exp(-|x_i-x_j| / lambda);
                a user left friendless is linked to their ideologically
                nearest neighbor so every seed has a friend list
  activity      per-user lognormal multiplier; original counts are Poisson
  originals     each original embeds one URL whose domain score is a
                Gaussian perturbation of the author's ideology, clamped and
                snapped to the five levels
  retweets      a user retweets originals posted by their friends, choosing
                each candidate event with weight exp(-beta * |x_u - x_author|);
                beta = 0 is the uniform-attention null model. Retweet events
                carry the original's URL and a timestamp at or after it.

Also home to the brute-force verifier: oracle_metrics recomputes every
per-user metric (exposure class fractions, congruence and friend activity
included) and the overlap-curve points by direct scans over the bundle,
sharing no code with the analysis modules.
"""
from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import EchoscopeError, InfeasibleConfigError, InputFormatError
from .ingest import (
    DatasetBundle,
    DomainScoreTable,
    EventLog,
    FollowEdgeList,
    KIND_ORIGINAL,
    KIND_RETWEET,
    TweetEvent,
    atomic_open,
    read_key_values,
)
from .rng import substream

CONTENT_NOISE_SD = 0.1
ACTIVITY_LOGNORMAL_SIGMA = 1.0
SLANT_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class SynthConfig:
    n_users: int
    n_domains: int
    follow_homophily: float  # length scale of ideology distance in follow prob
    base_follow_prob: float
    attention_bias: float  # 0 = uniform attention over friend activity
    activity_rate: float  # mean originals per user
    retweet_rate: float  # mean retweets per user
    duration: int  # simulated seconds
    seed: int

    def __post_init__(self) -> None:
        if self.n_users < 1 or self.n_domains < 1 or self.duration < 1:
            raise InfeasibleConfigError("counts and duration must be >= 1")
        if not 0.0 <= self.base_follow_prob <= 1.0:
            raise InfeasibleConfigError("base_follow_prob must be in [0,1]")
        if self.follow_homophily <= 0:
            raise InfeasibleConfigError("follow_homophily must be > 0")
        if self.attention_bias < 0:
            raise InfeasibleConfigError("attention_bias must be >= 0")
        if self.activity_rate < 0 or self.retweet_rate < 0:
            raise InfeasibleConfigError("rates must be >= 0")

    @classmethod
    def from_file(cls, path: str) -> "SynthConfig":
        fields = {
            "n_users": int,
            "n_domains": int,
            "follow_homophily": float,
            "base_follow_prob": float,
            "attention_bias": float,
            "activity_rate": float,
            "retweet_rate": float,
            "duration": int,
            "seed": int,
        }
        values = read_key_values(path, fields)
        missing = sorted(set(fields) - set(values))
        if missing:
            raise InputFormatError(f"missing keys: {', '.join(missing)}", path=str(path))
        return cls(**values)


@dataclass
class GroundTruth:
    ideology: dict[str, float]
    domain_scores: dict[str, float]
    null_model: bool
    counters: dict[str, int]
    config: SynthConfig

    def to_json(self) -> str:
        payload = {
            "config": asdict(self.config),
            "null_model": self.null_model,
            "counters": self.counters,
            "ideology": self.ideology,
            "domain_scores": self.domain_scores,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _snap_level(values: np.ndarray) -> np.ndarray:
    return np.round(np.clip(values, 0.0, 1.0) * 4.0) / 4.0


def generate(config: SynthConfig) -> tuple[DatasetBundle, GroundTruth]:
    """Build a dataset bundle plus the planted ground truth."""
    n = config.n_users
    if n < 2:
        raise InfeasibleConfigError("need at least 2 users to guarantee friendships")
    if config.retweet_rate > 0 and config.activity_rate == 0:
        raise InfeasibleConfigError("retweets requested but nobody posts originals")

    users = [f"u{i:05d}" for i in range(n)]
    domains = [f"outlet{i:04d}.example" for i in range(config.n_domains)]

    ideology = substream(config.seed, "ideology").random(n)

    d_scores = _snap_level(substream(config.seed, "domain-scores").random(config.n_domains))
    for i, level in enumerate(SLANT_LEVELS[: min(5, config.n_domains)]):
        d_scores[i] = level
    by_level: dict[float, np.ndarray] = {
        level: np.flatnonzero(d_scores == level) for level in SLANT_LEVELS
    }
    # n_domains < 5 leaves some level empty; reroute to the nearest stocked one
    for level in SLANT_LEVELS:
        if by_level[level].size == 0:
            nearest = min(
                (lv for lv in SLANT_LEVELS if by_level[lv].size), key=lambda lv: abs(lv - level)
            )
            by_level[level] = by_level[nearest]

    activity_mult = substream(config.seed, "activity").lognormal(
        0.0, ACTIVITY_LOGNORMAL_SIGMA, n
    )
    mult_norm = activity_mult / math.exp(ACTIVITY_LOGNORMAL_SIGMA**2 / 2.0)

    # follow edges, one substream per follower row
    lam = config.follow_homophily
    edges: list[tuple[int, int]] = []
    for i in range(n):
        probs = config.base_follow_prob * np.exp(-np.abs(ideology[i] - ideology) / lam)
        draws = substream(config.seed, "follow", i).random(n)
        picks = np.flatnonzero(draws < probs)
        picks = picks[picks != i]
        if picks.size == 0:
            dist = np.abs(ideology - ideology[i])
            dist[i] = np.inf
            picks = np.array([int(np.argmin(dist))])
        edges.extend((i, int(j)) for j in picks.tolist())

    # phase 1: original tweets
    orig_author: list[int] = []
    orig_ts: list[int] = []
    orig_domain: list[int] = []
    for i in range(n):
        r = substream(config.seed, "originals", i)
        count = int(r.poisson(config.activity_rate * mult_norm[i]))
        if count == 0:
            continue
        ts = r.integers(0, config.duration, size=count)
        targets = _snap_level(ideology[i] + r.normal(0.0, CONTENT_NOISE_SD, size=count))
        for t, level in zip(ts.tolist(), targets.tolist()):
            bucket = by_level[level]
            pick = int(bucket[r.integers(0, bucket.size)])
            orig_author.append(i)
            orig_ts.append(int(t))
            orig_domain.append(pick)
    originals_by_author: dict[int, list[int]] = {}
    for pos, author in enumerate(orig_author):
        originals_by_author.setdefault(author, []).append(pos)

    friends_of: dict[int, list[int]] = {}
    for s, t in edges:
        friends_of.setdefault(s, []).append(t)

    # phase 2: retweets of friends' originals
    rt_author: list[int] = []
    rt_ts: list[int] = []
    rt_of: list[int] = []  # position into the originals arrays
    n_unfillable = 0
    for i in range(n):
        r = substream(config.seed, "retweets", i)
        count = int(r.poisson(config.retweet_rate * mult_norm[i]))
        if count == 0:
            continue
        candidates: list[int] = []
        for j in sorted(set(friends_of.get(i, ()))):
            candidates.extend(originals_by_author.get(j, ()))
        if not candidates:
            n_unfillable += count
            continue
        cand = np.asarray(candidates, dtype=np.int64)
        authors = np.asarray([orig_author[c] for c in candidates], dtype=np.int64)
        weights = np.exp(-config.attention_bias * np.abs(ideology[i] - ideology[authors]))
        probs = weights / weights.sum()
        chosen = r.choice(cand.size, size=count, replace=True, p=probs)
        starts = np.asarray([orig_ts[int(cand[c])] for c in chosen.tolist()], dtype=np.float64)
        offsets = np.floor(r.random(count) * (config.duration - starts)).astype(np.int64)
        for c, off in zip(chosen.tolist(), offsets.tolist()):
            pos = int(cand[c])
            rt_author.append(i)
            rt_ts.append(int(orig_ts[pos] + off))
            rt_of.append(pos)

    # assemble, ordering deterministically before ids are assigned
    records: list[tuple[int, int, int, int, int]] = []
    for pos in range(len(orig_author)):
        records.append((orig_ts[pos], orig_author[pos], 0, pos, pos))
    for idx in range(len(rt_author)):
        records.append((rt_ts[idx], rt_author[idx], 1, idx, rt_of[idx]))
    records.sort(key=lambda rec: (rec[0], rec[1], rec[2], rec[3]))

    events: list[TweetEvent] = []
    for serial, (ts, author, is_rt, _, orig_pos) in enumerate(records):
        domain = domains[orig_domain[orig_pos]]
        if is_rt:
            events.append(
                TweetEvent(
                    f"t{serial:09d}",
                    users[author],
                    ts,
                    KIND_RETWEET,
                    users[orig_author[orig_pos]],
                    (domain,),
                )
            )
        else:
            events.append(
                TweetEvent(f"t{serial:09d}", users[author], ts, KIND_ORIGINAL, None, (domain,))
            )

    bundle = DatasetBundle(
        scores=DomainScoreTable({d: float(s) for d, s in zip(domains, d_scores.tolist())}),
        edges=FollowEdgeList.from_pairs((users[s], users[t]) for s, t in edges),
        log=EventLog.from_events(events),
        seeds=frozenset(users),
    )
    truth = GroundTruth(
        ideology={u: float(x) for u, x in zip(users, ideology.tolist())},
        domain_scores={d: float(s) for d, s in zip(domains, d_scores.tolist())},
        null_model=config.attention_bias == 0.0,
        counters={
            "n_edges": bundle.edges.n_edges,
            "n_originals": len(orig_author),
            "n_retweets": len(rt_author),
            "n_unfillable_retweets": n_unfillable,
        },
        config=config,
    )
    return bundle, truth


def write_truth(truth: GroundTruth, path: str) -> None:
    with atomic_open(path) as fh:
        fh.write(truth.to_json() + "\n")


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


@dataclass
class OracleMetrics:
    """Naively recomputed per-user values; key absence means 'undefined'."""

    mu: dict[str, float]
    domain_count: dict[str, float]  # scored domain occurrences (or distinct domains) behind mu
    m_s: dict[str, float]
    moderacy_class: dict[str, str]
    m_e_f: dict[str, float]
    m_e_r: dict[str, float]
    delta: dict[str, float]
    frac_friends_retweeted: dict[str, float]
    overlap_account: dict[str, float]
    overlap_content: dict[str, float]
    entropy_f: dict[str, float]
    entropy_r: dict[str, float]
    frac_moderate_f: dict[str, float]
    frac_moderate_r: dict[str, float]
    frac_hardline_f: dict[str, float]
    frac_hardline_r: dict[str, float]
    frac_congruent_retweeted: dict[str, float]
    frac_congruent_not_retweeted: dict[str, float]
    congruence_diff: dict[str, float]
    activity: dict[str, float]  # per follower-graph friend: events posted
    activity_retweeted: dict[str, float]  # 1.0 when any seed retweeted them >= k times
    activity_class: dict[str, str]
    overlap_curve_mean: dict[str, float]  # per overlap mode, at k
    overlap_curve_n: dict[str, float]


def oracle_metrics(
    bundle: DatasetBundle,
    table: Optional[DomainScoreTable] = None,
    k: int = 1,
    n_bins: int = 5,
    unique_domains: bool = False,
    max_events: int = 1000,
) -> OracleMetrics:
    """Recompute every metric by direct scans; guard-railed to small bundles.

    Deliberately shares no code with the analysis modules: plain loops, dicts
    and sets only, so it can serve as an independent check.
    """
    events = bundle.log.events
    if len(events) > max_events:
        raise EchoscopeError(
            f"oracle guard rail: {len(events)} events exceed max_events={max_events}"
        )
    scores = (table or bundle.scores).scores
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
                mu[author] = sum(scores[d] for d in seen) / len(seen)
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
        "moderate_f": {}, "moderate_r": {}, "hardline_f": {}, "hardline_r": {}
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
                fractions["moderate_" + kind][user] = n_mod / n_total
                fractions["hardline_" + kind][user] = (n_total - n_mod) / n_total

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
        return -sum((c / total) * math.log2(c / total) for c in counts.values())

    entropy_f: dict[str, float] = {}
    entropy_r: dict[str, float] = {}
    for user in sorted(seeds):
        f_vals = [m_s[v] for v in friends.get(user, set()) if v in m_s]
        r_vals = [m_s[v] for v in rt_friends(user) if v in m_s]
        if len(f_vals) >= 2 and len(r_vals) >= 2:
            entropy_f[user] = entropy(f_vals)
            entropy_r[user] = entropy(r_vals)

    return OracleMetrics(
        mu=mu,
        domain_count=domain_count,
        m_s=m_s,
        moderacy_class=moderacy_class,
        m_e_f=m_e_f,
        m_e_r=m_e_r,
        delta=delta,
        frac_friends_retweeted=frac_rt,
        overlap_account=overlap_account,
        overlap_content=overlap_content,
        entropy_f=entropy_f,
        entropy_r=entropy_r,
        frac_moderate_f=fractions["moderate_f"],
        frac_moderate_r=fractions["moderate_r"],
        frac_hardline_f=fractions["hardline_f"],
        frac_hardline_r=fractions["hardline_r"],
        frac_congruent_retweeted=cong_r,
        frac_congruent_not_retweeted=cong_n,
        congruence_diff=cong_diff,
        activity=activity,
        activity_retweeted=activity_retweeted,
        activity_class=activity_class,
        overlap_curve_mean=overlap_curve_mean,
        overlap_curve_n=overlap_curve_n,
    )


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
    window: Optional[tuple[int, int]] = None,
    unique_domains: bool = False,
    max_events: int = 1000,
) -> OracleDiff:
    """Run the engine and the oracle on a bundle and diff every metric.

    A window restricts the log up front; both sides see only its events.
    """
    from . import graph as graph_mod
    from . import moderacy as mod
    from . import stats as stats_mod

    bundle = dataclasses.replace(bundle, log=bundle.log.restricted(window))
    oracle = oracle_metrics(bundle, None, k, n_bins, unique_domains, max_events)

    if not bundle.seeds and not bundle.log.events:
        # nothing to analyze on either route: vacuous agreement
        return OracleDiff(0.0, "none", 0, (), ())
    space = graph_mod.user_space(bundle.seeds, bundle.edges, bundle.log)
    fg = graph_mod.build_follower_graph(space)
    rg = graph_mod.build_retweet_graph(space)
    engine = mod.MetricsEngine(bundle, fg, rg, unique_domains)
    metrics = engine.metrics_at(k)

    def by_seed(values: np.ndarray) -> dict[str, float]:
        """A vector over the seed rows as a map from seed name, undefined values left out."""
        return {s: v for s, v in zip(fg.seeds, values.tolist()) if not math.isnan(v)}

    engine_maps: dict[str, dict[str, float]] = {
        "mu": {u: m.mu for u, m in metrics.by_user.items() if m.mu is not None},
        "domain_count": {
            u: float(m.domain_count) for u, m in metrics.by_user.items() if m.mu is not None
        },
        "m_s": {u: m.m_s for u, m in metrics.by_user.items() if m.m_s is not None},
        "m_e_f": {u: m.m_e_f for u, m in metrics.by_user.items() if m.m_e_f is not None},
        "m_e_r": {u: m.m_e_r for u, m in metrics.by_user.items() if m.m_e_r is not None},
        "delta": {u: m.delta for u, m in metrics.by_user.items() if m.delta is not None},
        "frac_friends_retweeted": by_seed(graph_mod.fraction_friends_retweeted(fg, rg, k)),
        "overlap_account": by_seed(graph_mod.retweet_overlap(fg, rg, k, graph_mod.OVERLAP_ACCOUNT)),
        "overlap_content": by_seed(graph_mod.retweet_overlap(fg, rg, k, graph_mod.OVERLAP_CONTENT)),
    }
    for kind, tag in ((mod.FOLLOWER, "f"), (mod.RETWEET, "r")):
        frac_mod, frac_hard = mod.exposure_class_fractions(engine, kind, k)
        engine_maps["frac_moderate_" + tag] = by_seed(frac_mod)
        engine_maps["frac_hardline_" + tag] = by_seed(frac_hard)
    entropy_f, entropy_r, _, _ = stats_mod.entropy_comparison(fg, rg, engine.m_s, n_bins, k)
    engine_maps["entropy_f"] = by_seed(entropy_f)
    engine_maps["entropy_r"] = by_seed(entropy_r)
    frac_r, frac_n = mod.congruent_friend_fraction_diff(fg, rg, engine.class_code, k)
    engine_maps["frac_congruent_retweeted"] = by_seed(frac_r)
    engine_maps["frac_congruent_not_retweeted"] = by_seed(frac_n)
    engine_maps["congruence_diff"] = by_seed(frac_r - frac_n)
    friends, activity, retweeted = mod.friend_activity_comparison(engine, k)
    friend_names = [fg.names[i] for i in friends.tolist()]
    engine_maps["activity"] = dict(zip(friend_names, map(float, activity.tolist())))
    engine_maps["activity_retweeted"] = dict(zip(friend_names, map(float, retweeted.tolist())))
    engine_maps["overlap_curve_mean"] = {}
    engine_maps["overlap_curve_n"] = {}
    for mode in (graph_mod.OVERLAP_ACCOUNT, graph_mod.OVERLAP_CONTENT):
        ((_, mean, n_users),) = graph_mod.overlap_vs_threshold(fg, rg, [k], mode)
        engine_maps["overlap_curve_n"][mode] = float(n_users)
        if n_users:
            engine_maps["overlap_curve_mean"][mode] = mean

    oracle_maps = {
        "mu": oracle.mu,
        "domain_count": oracle.domain_count,
        "m_s": oracle.m_s,
        "m_e_f": oracle.m_e_f,
        "m_e_r": oracle.m_e_r,
        "delta": oracle.delta,
        "frac_friends_retweeted": oracle.frac_friends_retweeted,
        "overlap_account": oracle.overlap_account,
        "overlap_content": oracle.overlap_content,
        "entropy_f": oracle.entropy_f,
        "entropy_r": oracle.entropy_r,
        "frac_moderate_f": oracle.frac_moderate_f,
        "frac_moderate_r": oracle.frac_moderate_r,
        "frac_hardline_f": oracle.frac_hardline_f,
        "frac_hardline_r": oracle.frac_hardline_r,
        "frac_congruent_retweeted": oracle.frac_congruent_retweeted,
        "frac_congruent_not_retweeted": oracle.frac_congruent_not_retweeted,
        "congruence_diff": oracle.congruence_diff,
        "activity": oracle.activity,
        "activity_retweeted": oracle.activity_retweeted,
        "overlap_curve_mean": oracle.overlap_curve_mean,
        "overlap_curve_n": oracle.overlap_curve_n,
    }
    # the oracle scores every author; the engine does too, via the same log
    presence_mismatches: list[str] = []
    class_mismatches: list[str] = []
    max_diff = 0.0
    worst = "none"
    n_compared = 0
    for name, engine_map in engine_maps.items():
        oracle_map = oracle_maps[name]
        if set(engine_map) != set(oracle_map):
            missing = set(oracle_map) ^ set(engine_map)
            presence_mismatches.append(f"{name}: {sorted(missing)[:5]}")
            continue
        for user, value in engine_map.items():
            diff = abs(value - oracle_map[user])
            n_compared += 1
            if diff > max_diff:
                max_diff = diff
                worst = f"{name}[{user}]"
    if len(friend_names) != len(engine_maps["activity"]):
        presence_mismatches.append("activity: a friend has more than one row")
    class_maps = (
        (
            "moderacy_class",
            {u: m.moderacy_class for u, m in metrics.by_user.items() if m.moderacy_class},
            oracle.moderacy_class,
        ),
        (
            "activity_class",
            {
                f: c
                for f, c in zip(friend_names, mod.class_names(engine.class_code[friends]))
                if c
            },
            oracle.activity_class,
        ),
    )
    for name, engine_classes, oracle_classes in class_maps:
        if set(engine_classes) != set(oracle_classes):
            presence_mismatches.append(f"{name}: key sets differ")
            continue
        for user, value in engine_classes.items():
            n_compared += 1
            if value != oracle_classes[user]:
                class_mismatches.append(f"{name}[{user}]")
    return OracleDiff(
        max_abs_diff=max_diff,
        worst_metric=worst,
        n_compared=n_compared,
        presence_mismatches=tuple(presence_mismatches),
        class_mismatches=tuple(class_mismatches),
    )
