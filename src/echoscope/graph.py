"""Follower and retweet graph construction, overlap metrics, and sampling.

Both graphs are immutable once built. The retweet graph keeps per-edge
interaction counts so any threshold k can be applied as a view; raising k
always yields a subset of the edges at k-1.

Cache file layout (little-endian, version 1):

    offset  size  field
    0       8     magic b"ECHOGRF1"
    8       4     u32 format version
    12      4     u32 fingerprint length F
    16      F     fingerprint bytes (opaque, caller-supplied)
    --      4     u32 n_users, then per user: u32 byte length + utf-8 name
    --      follower section:
                  u32 n_seeds; per seed: u32 seed idx, u32 n_friends,
                  n_friends * u32 friend idx (ascending)
                  u32 n_indegree; per entry: u32 idx, u64 count
    --      retweet section:
                  u32 n_sources; per source: u32 src idx, u32 n_targets,
                  n_targets * (u32 target idx, u64 weight) (idx ascending)
                  u32 n_indegree; per entry: u32 idx, u64 count
"""
from __future__ import annotations

import contextlib
import logging
import os
import struct
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import EchoscopeError
from .ingest import EventLog, FollowEdgeList

OVERLAP_ACCOUNT = "account"
OVERLAP_CONTENT = "content"

CACHE_MAGIC = b"ECHOGRF1"
CACHE_VERSION = 1


@dataclass(frozen=True)
class FollowerGraph:
    """Seed -> friend adjacency plus in-sample indegree of every target."""

    adjacency: dict[str, frozenset[str]]
    indegree: dict[str, int]

    @property
    def n_seeds(self) -> int:
        return len(self.adjacency)

    def friends(self, user: str) -> frozenset[str]:
        return self.adjacency.get(user, frozenset())


@dataclass(frozen=True)
class RetweetGraph:
    """Seed -> retweeted account with interaction counts."""

    weighted_adjacency: dict[str, dict[str, int]]
    indegree: dict[str, int]

    def retweet_friends(self, user: str, k: int = 1) -> frozenset[str]:
        """Accounts this user retweeted at least k times."""
        weights = self.weighted_adjacency.get(user)
        if not weights:
            return frozenset()
        return frozenset(v for v, w in weights.items() if w >= k)

    def thresholded(self, k: int) -> dict[str, frozenset[str]]:
        out: dict[str, frozenset[str]] = {}
        for user, weights in self.weighted_adjacency.items():
            kept = frozenset(v for v, w in weights.items() if w >= k)
            if kept:
                out[user] = kept
        return out


@dataclass(frozen=True)
class OverlapPoint:
    k: int
    mean_overlap: float
    n_users: int


@dataclass(frozen=True)
class OverlapCurve:
    mode: str
    points: tuple[OverlapPoint, ...]


def build_follower_graph(edges: FollowEdgeList, seeds: Iterable[str]) -> FollowerGraph:
    """Adjacency restricted to seed sources; indegree over seed-sourced edges."""
    seed_set = frozenset(seeds)
    if not seed_set:
        raise EchoscopeError("seed set is empty")
    names = edges.names
    seed_mask = np.zeros(len(names), dtype=bool)
    for s in seed_set:
        idx = edges.index.get(s)
        if idx is not None:
            seed_mask[idx] = True
    keep = seed_mask[edges.src]
    src = edges.src[keep]
    dst = edges.dst[keep]

    adjacency: dict[str, set[str]] = {s: set() for s in seed_set}
    indegree: dict[str, int] = {}
    if src.size:
        order = np.argsort(src, kind="stable")
        src = src[order]
        dst = dst[order]
        bounds = np.flatnonzero(np.diff(src)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [src.size]))
        for lo, hi in zip(starts.tolist(), ends.tolist()):
            seed_name = names[src[lo]]
            adjacency[seed_name] = {names[i] for i in dst[lo:hi].tolist()}
        targets, counts = np.unique(dst, return_counts=True)
        indegree = {names[t]: int(c) for t, c in zip(targets.tolist(), counts.tolist())}
    frozen = {s: frozenset(v) for s, v in adjacency.items()}
    return FollowerGraph(frozen, indegree)


def build_retweet_graph(log: EventLog, seeds: Iterable[str]) -> RetweetGraph:
    """Count retweet interactions from seed authors to original authors."""
    seed_set = frozenset(seeds)
    weighted: dict[str, dict[str, int]] = {}
    indegree: dict[str, int] = {}
    for ev in log.events:
        if not ev.is_retweet or ev.author not in seed_set:
            continue
        row = weighted.setdefault(ev.author, {})
        row[ev.original_author] = row.get(ev.original_author, 0) + 1
        indegree[ev.original_author] = indegree.get(ev.original_author, 0) + 1
    return RetweetGraph(weighted, indegree)


def fraction_friends_retweeted(
    user: str, fg: FollowerGraph, rg: RetweetGraph, k: int = 1
) -> Optional[float]:
    """Share of a user's friends they retweeted at least k times."""
    friends = fg.friends(user)
    if not friends:
        return None
    rt_friends = rg.retweet_friends(user, k)
    return len(friends & rt_friends) / len(friends)


def retweet_overlap(
    user: str,
    fg: FollowerGraph,
    rg: RetweetGraph,
    k: int = 1,
    mode: str = OVERLAP_ACCOUNT,
    log: Optional[EventLog] = None,
) -> Optional[float]:
    """Overlap of retweet friends (at threshold k) with followed friends.

    Account mode counts retweeted accounts; content mode counts retweet
    events whose source account passes the threshold.
    """
    rt_friends = rg.retweet_friends(user, k)
    if not rt_friends:
        return None
    friends = fg.friends(user)
    if mode == OVERLAP_ACCOUNT:
        return len(rt_friends & friends) / len(rt_friends)
    if mode == OVERLAP_CONTENT:
        if log is None:
            raise EchoscopeError("content-mode overlap needs the event log")
        num = 0
        den = 0
        for ev in log.events_by(user):
            if ev.is_retweet and ev.original_author in rt_friends:
                den += 1
                if ev.original_author in friends:
                    num += 1
        if den == 0:
            return None
        return num / den
    raise EchoscopeError(f"unknown overlap mode {mode!r}")


def overlap_vs_threshold(
    fg: FollowerGraph,
    rg: RetweetGraph,
    log: EventLog,
    k_range: Iterable[int] = range(1, 11),
    mode: str = OVERLAP_ACCOUNT,
) -> OverlapCurve:
    """Mean per-user overlap at each threshold, over users still defined there."""
    ks = sorted(set(int(k) for k in k_range))
    users = sorted(rg.weighted_adjacency)
    points = []
    for k in ks:
        values = []
        for user in users:
            v = retweet_overlap(user, fg, rg, k, mode, log)
            if v is not None:
                values.append(v)
        if values:
            points.append(OverlapPoint(k, sum(values) / len(values), len(values)))
        else:
            points.append(OverlapPoint(k, float("nan"), 0))
    return OverlapCurve(mode, tuple(points))


def sample_friends_by_indegree(
    graph: FollowerGraph | RetweetGraph, n: int, rng: np.random.Generator
) -> list[str]:
    """n draws with replacement, probability proportional to indegree."""
    if n < 1:
        raise EchoscopeError("sample size must be >= 1")
    targets = sorted(graph.indegree)
    weights = np.array([graph.indegree[t] for t in targets], dtype=np.float64)
    total = weights.sum()
    if total <= 0:
        raise EchoscopeError("all indegrees are zero")
    idx = rng.choice(len(targets), size=n, replace=True, p=weights / total)
    return [targets[i] for i in idx.tolist()]


def random_friend_positions(
    user: str, n_friends: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Positions of a uniform draw without replacement from a user's friend list.

    size clamps to n_friends; drawing every friend (or none) consumes no
    randomness.
    """
    if size > n_friends:
        logging.getLogger(__name__).warning(
            "subset size %d exceeds %d friends of %s; clamping", size, n_friends, user
        )
        size = n_friends
    if size <= 0:
        return np.empty(0, dtype=np.int64)
    if size == n_friends:
        return np.arange(n_friends)
    return rng.choice(n_friends, size=size, replace=False)


def sample_random_friend_subset(
    user: str, fg: FollowerGraph, size: int, rng: np.random.Generator
) -> frozenset[str]:
    """Uniform sample of friends without replacement; size clamps to |friends|."""
    friends = sorted(fg.friends(user))
    idx = random_friend_positions(user, len(friends), size, rng)
    return frozenset(friends[i] for i in idx.tolist())


# ---------------------------------------------------------------------------
# binary cache
# ---------------------------------------------------------------------------


def _collect_names(fg: FollowerGraph, rg: RetweetGraph) -> list[str]:
    names: set[str] = set(fg.adjacency)
    for friends in fg.adjacency.values():
        names.update(friends)
    names.update(fg.indegree)
    for user, weights in rg.weighted_adjacency.items():
        names.add(user)
        names.update(weights)
    names.update(rg.indegree)
    return sorted(names)


def save_graph_cache(path: str, fg: FollowerGraph, rg: RetweetGraph, fingerprint: bytes) -> None:
    """Write the cache to a temporary file, then move it over ``path``.

    A run killed mid-write leaves at most a stray temporary file, never a
    partial cache under the real name.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            _write_cache(fh, fg, rg, fingerprint)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_cache(fh, fg: FollowerGraph, rg: RetweetGraph, fingerprint: bytes) -> None:
    names = _collect_names(fg, rg)
    index = {name: i for i, name in enumerate(names)}
    fh.write(CACHE_MAGIC)
    fh.write(struct.pack("<I", CACHE_VERSION))
    fh.write(struct.pack("<I", len(fingerprint)))
    fh.write(fingerprint)
    fh.write(struct.pack("<I", len(names)))
    for name in names:
        raw = name.encode("utf-8")
        fh.write(struct.pack("<I", len(raw)))
        fh.write(raw)

    fh.write(struct.pack("<I", len(fg.adjacency)))
    for seed in sorted(fg.adjacency):
        friend_idx = sorted(index[f] for f in fg.adjacency[seed])
        fh.write(struct.pack("<II", index[seed], len(friend_idx)))
        fh.write(np.asarray(friend_idx, dtype="<u4").tobytes())
    fh.write(struct.pack("<I", len(fg.indegree)))
    for name in sorted(fg.indegree):
        fh.write(struct.pack("<IQ", index[name], fg.indegree[name]))

    fh.write(struct.pack("<I", len(rg.weighted_adjacency)))
    for user in sorted(rg.weighted_adjacency):
        weights = rg.weighted_adjacency[user]
        fh.write(struct.pack("<II", index[user], len(weights)))
        for target in sorted(weights, key=lambda t: index[t]):
            fh.write(struct.pack("<IQ", index[target], weights[target]))
    fh.write(struct.pack("<I", len(rg.indegree)))
    for name in sorted(rg.indegree):
        fh.write(struct.pack("<IQ", index[name], rg.indegree[name]))


def load_graph_cache(path: str, fingerprint: bytes) -> Optional[tuple[FollowerGraph, RetweetGraph]]:
    """Load cached graphs; None when the file is missing, stale or unreadable.

    A truncated or corrupt file (a short read, a bad name encoding, an index
    out of range, trailing bytes) reads as a miss, so the caller rebuilds the
    graphs and overwrites it.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    try:
        return _parse_cache(data, fingerprint)
    except (struct.error, IndexError, UnicodeDecodeError, ValueError):
        return None


def _parse_cache(data: bytes, fingerprint: bytes) -> Optional[tuple[FollowerGraph, RetweetGraph]]:
    pos = 0

    def take(size: int) -> bytes:
        nonlocal pos
        if pos + size > len(data):
            raise ValueError("truncated cache file")
        pos += size
        return data[pos - size : pos]

    def read(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    if take(len(CACHE_MAGIC)) != CACHE_MAGIC:
        return None
    (version,) = read("<I")
    if version != CACHE_VERSION:
        return None
    (fp_len,) = read("<I")
    if take(fp_len) != fingerprint:
        return None

    (n_names,) = read("<I")
    names = []
    for _ in range(n_names):
        (ln,) = read("<I")
        names.append(take(ln).decode("utf-8"))

    (n_seeds,) = read("<I")
    adjacency: dict[str, frozenset[str]] = {}
    for _ in range(n_seeds):
        seed_idx, n_friends = read("<II")
        idx = np.frombuffer(take(4 * n_friends), dtype="<u4")
        adjacency[names[seed_idx]] = frozenset(names[i] for i in idx.tolist())
    (n_in,) = read("<I")
    f_indegree = {}
    for _ in range(n_in):
        idx, count = read("<IQ")
        f_indegree[names[idx]] = count

    (n_sources,) = read("<I")
    weighted: dict[str, dict[str, int]] = {}
    for _ in range(n_sources):
        src_idx, n_targets = read("<II")
        row = {}
        for _ in range(n_targets):
            t_idx, weight = read("<IQ")
            row[names[t_idx]] = weight
        weighted[names[src_idx]] = row
    (n_in,) = read("<I")
    r_indegree = {}
    for _ in range(n_in):
        idx, count = read("<IQ")
        r_indegree[names[idx]] = count
    if pos != len(data):
        raise ValueError("trailing bytes in cache file")

    return FollowerGraph(adjacency, f_indegree), RetweetGraph(weighted, r_indegree)
