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

The edge list is built by FollowEdgeList.from_pairs, as the edges.csv
reader's csv path builds it; the event log is assembled as columns by the
builder the events.jsonl parser uses.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import asdict, dataclass
from typing import get_type_hints

import numpy as np

from .errors import InfeasibleConfigError, InputFormatError
from .ingest import (
    DatasetBundle,
    FollowEdgeList,
    _EventColumns,
    read_key_values,
    write_json,
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
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise InfeasibleConfigError(f"{name} must be finite")
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
        fields = get_type_hints(cls)
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
    friends: list[np.ndarray] = []  # per user, unique and ascending
    for i in range(n):
        probs = config.base_follow_prob * np.exp(-np.abs(ideology[i] - ideology) / lam)
        draws = substream(config.seed, "follow", i).random(n)
        picks = np.flatnonzero(draws < probs)
        picks = picks[picks != i]
        if picks.size == 0:
            dist = np.abs(ideology - ideology[i])
            dist[i] = np.inf
            picks = np.array([int(np.argmin(dist))])
        friends.append(picks)
    # from_pairs interns each follower and then its friends, in row order
    edges = FollowEdgeList.from_pairs(
        (users[i], users[j]) for i, picks in enumerate(friends) for j in picks.tolist()
    )

    # phase 1: original tweets, appended in author order
    n_orig = np.zeros(n, dtype=np.int64)
    orig_ts = array("q")
    orig_domain: list[int] = []
    for i in range(n):
        r = substream(config.seed, "originals", i)
        count = int(r.poisson(config.activity_rate * mult_norm[i]))
        if count == 0:
            continue
        n_orig[i] = count
        orig_ts.frombytes(r.integers(0, config.duration, size=count).tobytes())
        targets = _snap_level(ideology[i] + r.normal(0.0, CONTENT_NOISE_SD, size=count))
        for level in targets.tolist():
            bucket = by_level[level]
            orig_domain.append(int(bucket[r.integers(0, bucket.size)]))
    n_originals = len(orig_ts)
    orig_start = np.cumsum(n_orig) - n_orig
    orig_ts = np.asarray(orig_ts, dtype=np.int64)

    # phase 2: retweets of friends' originals
    n_rt = np.zeros(n, dtype=np.int64)
    rt_ts = array("q")
    rt_of = array("q")  # position into the originals arrays
    n_unfillable = 0
    for i, followed in enumerate(friends):
        r = substream(config.seed, "retweets", i)
        count = int(r.poisson(config.retweet_rate * mult_norm[i]))
        if count == 0:
            continue
        sizes = n_orig[followed]
        total = int(sizes.sum())
        if total == 0:
            n_unfillable += count
            continue
        # the candidates: each friend's originals in turn, friends ascending
        cand = np.repeat(orig_start[followed] - np.cumsum(sizes) + sizes, sizes) + np.arange(total)
        authors = np.repeat(followed, sizes)
        weights = np.exp(-config.attention_bias * np.abs(ideology[i] - ideology[authors]))
        probs = weights / weights.sum()
        chosen = cand[r.choice(total, size=count, replace=True, p=probs)]
        starts = orig_ts[chosen].astype(np.float64)
        offsets = np.floor(r.random(count) * (config.duration - starts)).astype(np.int64)
        n_rt[i] = count
        rt_ts.frombytes((orig_ts[chosen] + offsets).tobytes())
        rt_of.frombytes(chosen.tobytes())

    # every event in (ts, author, is_retweet, index) order, its rank its tweet id:
    # the sort is stable, so tied events keep originals first, each kind by index
    n_retweets = len(rt_of)
    author = np.concatenate((np.repeat(np.arange(n), n_orig), np.repeat(np.arange(n), n_rt)))
    ts = np.concatenate((orig_ts, np.asarray(rt_ts, dtype=np.int64)))
    order = np.lexsort((author, ts))
    source = np.concatenate((np.arange(n_originals), np.asarray(rt_of, dtype=np.int64)))[order]
    cols = _EventColumns()
    cols.extend(
        [f"t{e:09d}" for e in range(order.size)],
        list(map(users.__getitem__, author[order].tolist())),
        ts[order],
        # a retweet's original author is its source's author; an original has none
        [users[a] if e >= n_originals else None
         for e, a in zip(order.tolist(), author[source].tolist())],
        # each event's one URL, by its host: the domain name, which the
        # columns resolve to itself and number in order of first appearance
        np.ones(order.size, dtype=np.int64),
        [domains[orig_domain[s]] for s in source.tolist()],
    )

    bundle = DatasetBundle(
        scores={d: float(s) for d, s in zip(domains, d_scores.tolist())},
        edges=edges,
        log=cols.log(),
        seeds=frozenset(users),
    )
    truth = GroundTruth(
        ideology={u: float(x) for u, x in zip(users, ideology.tolist())},
        domain_scores={d: float(s) for d, s in zip(domains, d_scores.tolist())},
        null_model=config.attention_bias == 0.0,
        counters={
            "n_edges": bundle.edges.n_edges,
            "n_originals": n_originals,
            "n_retweets": n_retweets,
            "n_unfillable_retweets": n_unfillable,
        },
        config=config,
    )
    return bundle, truth


def write_truth(truth: GroundTruth, path: str) -> None:
    write_json(asdict(truth), path)
