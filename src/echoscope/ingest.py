"""Parsing, writing, and validation of the three input artifacts.

Formats (UTF-8 throughout):
  scores CSV   header ``domain,score``, score is a label or a decimal in [0,1]
  edges CSV    header ``follower,friend``
  events JSONL one object per line: id, author, ts, kind, orig_author, urls

Parsers are single-pass and keep memory proportional to their output; the
edge parser stores edges as index arrays so tens of millions of rows fit in
a small footprint.
"""
from __future__ import annotations

import contextlib
import csv
import json
import logging
import os
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import InputFormatError
from .psl import DEFAULT_SHORTENER_SKIP, SuffixRules, extract_pld, is_valid_pld

log = logging.getLogger(__name__)

KIND_ORIGINAL = "original"
KIND_RETWEET = "retweet"

# label -> score mapping for the five-level slant scale
LABEL_SCORES = {
    "left": 0.0,
    "left-center": 0.25,
    "center/least-biased": 0.5,
    "center": 0.5,
    "least-biased": 0.5,
    "right-center": 0.75,
    "right": 1.0,
}

SCORES_HEADER = ["domain", "score"]
EDGES_HEADER = ["follower", "friend"]


@dataclass(frozen=True)
class DomainScoreTable:
    """Registrable domain -> slant score in [0,1]."""

    scores: dict[str, float]

    def score(self, domain: str) -> Optional[float]:
        return self.scores.get(domain)

    def __len__(self) -> int:
        return len(self.scores)

    def __contains__(self, domain: str) -> bool:
        return domain in self.scores


@dataclass(frozen=True, slots=True)
class TweetEvent:
    tweet_id: str
    author: str
    timestamp: int
    kind: str
    original_author: Optional[str]
    domains: tuple[str, ...]

    @property
    def is_retweet(self) -> bool:
        return self.kind == KIND_RETWEET


class FollowEdgeList:
    """Deduplicated directed follower->friend edges in columnar form."""

    def __init__(
        self,
        names: list[str],
        src: np.ndarray,
        dst: np.ndarray,
        n_self_loops_dropped: int = 0,
        n_duplicates_dropped: int = 0,
        index: Optional[dict[str, int]] = None,
    ) -> None:
        self.names = names
        self.index = {name: i for i, name in enumerate(names)} if index is None else index
        self.src = src
        self.dst = dst
        self.n_self_loops_dropped = n_self_loops_dropped
        self.n_duplicates_dropped = n_duplicates_dropped

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "FollowEdgeList":
        """Intern (follower, friend) pairs in order of first appearance,
        dropping self-loops and duplicate edges."""
        names: list[str] = []
        index: dict[str, int] = {}
        src_buf = array("q")
        dst_buf = array("q")
        n_self = 0
        for follower, friend in pairs:
            if follower == friend:
                n_self += 1
                continue
            s = index.get(follower)
            if s is None:
                s = index[follower] = len(names)
                names.append(follower)
            d = index.get(friend)
            if d is None:
                d = index[friend] = len(names)
                names.append(friend)
            src_buf.append(s)
            dst_buf.append(d)
        src, dst, n_dup = _dedup_edges(src_buf, dst_buf)
        return cls(names, src, dst, n_self, n_dup, index)

    @property
    def n_edges(self) -> int:
        return int(self.src.size)

    @property
    def n_users(self) -> int:
        return len(self.names)

    def iter_edges(self) -> Iterator[tuple[str, str]]:
        names = self.names
        for s, d in zip(self.src.tolist(), self.dst.tolist()):
            yield names[s], names[d]

    def sources(self) -> frozenset[str]:
        uniq = np.unique(self.src)
        return frozenset(self.names[i] for i in uniq.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FollowEdgeList):
            return NotImplemented
        return set(self.iter_edges()) == set(other.iter_edges())

    def __repr__(self) -> str:
        return f"FollowEdgeList(n_users={self.n_users}, n_edges={self.n_edges})"


def _dedup_edges(src_buf, dst_buf) -> tuple[np.ndarray, np.ndarray, int]:
    if len(src_buf) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), 0
    src = np.asarray(src_buf, dtype=np.int64)
    dst = np.asarray(dst_buf, dtype=np.int64)
    packed = np.sort((src.astype(np.uint64) << np.uint64(32)) | dst.astype(np.uint64))
    # a sort and a neighbour comparison: np.unique hashes first, which is far slower here
    first = np.empty(packed.size, dtype=bool)
    first[0] = True
    np.not_equal(packed[1:], packed[:-1], out=first[1:])
    unique = packed[first]
    n_dup = int(packed.size - unique.size)
    src = (unique >> np.uint64(32)).astype(np.int64)
    dst = (unique & np.uint64(0xFFFFFFFF)).astype(np.int64)
    return src, dst, n_dup


@dataclass(frozen=True)
class EventLog:
    """Timestamp-ordered event sequence and its distinct authors, sorted."""

    events: tuple[TweetEvent, ...]
    authors: tuple[str, ...]
    n_urls_dropped: int = 0
    n_self_retweets_dropped: int = 0

    @classmethod
    def from_events(
        cls,
        events: Iterable[TweetEvent],
        n_urls_dropped: int = 0,
        n_self_retweets_dropped: int = 0,
    ) -> "EventLog":
        ordered = tuple(sorted(events, key=lambda e: (e.timestamp, e.tweet_id)))
        authors = tuple(sorted({ev.author for ev in ordered}))
        return cls(ordered, authors, n_urls_dropped, n_self_retweets_dropped)

    def __len__(self) -> int:
        return len(self.events)

    def restricted(self, window: Optional[tuple[int, int]]) -> "EventLog":
        """The events with lo <= timestamp <= hi; this log itself when window is None."""
        if window is None:
            return self
        lo, hi = window
        kept = [ev for ev in self.events if lo <= ev.timestamp <= hi]
        return EventLog.from_events(kept, self.n_urls_dropped, self.n_self_retweets_dropped)


@dataclass(frozen=True)
class DatasetBundle:
    scores: DomainScoreTable
    edges: FollowEdgeList
    log: EventLog
    seeds: frozenset[str]


@dataclass
class ValidationReport:
    seeds_without_friends: tuple[str, ...]
    dangling_retweet_authors: tuple[str, ...]
    n_dangling_retweets: int
    frac_events_with_scored_domain: float
    counters: dict[str, int]
    errors: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_json(self) -> str:
        payload = {
            "ok": self.ok,
            "errors": list(self.errors),
            "seeds_without_friends": list(self.seeds_without_friends),
            "dangling_retweet_authors": list(self.dangling_retweet_authors),
            "n_dangling_retweets": self.n_dangling_retweets,
            "frac_events_with_scored_domain": self.frac_events_with_scored_domain,
            "counters": self.counters,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# parsers
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _open_checked(path: str):
    """Open an input as UTF-8 text; a byte that is not UTF-8 is an input error."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise InputFormatError(f"cannot read file: {exc}", path=str(path)) from exc
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise _undecodable(path, exc) from None


def _undecodable(path: str, exc: UnicodeDecodeError) -> InputFormatError:
    """The error naming the first line that is not UTF-8; rereads the file."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as bad:
                return InputFormatError(
                    f"not valid UTF-8 ({bad.reason} at byte {bad.start} of the line)",
                    path=str(path),
                    line=lineno,
                )
    return InputFormatError(f"not valid UTF-8 ({exc.reason})", path=str(path))


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w"):
    """Write to a temporary file beside ``path``, then move it over ``path``.

    A write that fails or is killed leaves the previous file (or none) under
    the real name, and the temporary file is removed on failure.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _check_header(row: Optional[list[str]], expected: list[str], path: str) -> None:
    if row is None or [c.strip().lower() for c in row] != expected:
        raise InputFormatError(
            f"expected header {','.join(expected)!r}, got {row!r}", path=str(path), line=1
        )


def parse_domain_scores(path: str) -> DomainScoreTable:
    """Read the scores CSV; labels map to the five-level scale."""
    scores: dict[str, float] = {}
    with _open_checked(path) as fh:
        reader = csv.reader(fh)
        _check_header(next(reader, None), SCORES_HEADER, path)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise InputFormatError(
                    f"expected 2 fields, got {len(row)}", path=str(path), line=lineno
                )
            domain = row[0].strip().lower()
            if not is_valid_pld(domain):
                raise InputFormatError(
                    f"not a valid registrable domain: {row[0]!r}", path=str(path), line=lineno
                )
            if domain in scores:
                raise InputFormatError(
                    f"duplicate domain {domain!r}", path=str(path), line=lineno
                )
            raw = row[1].strip().lower()
            if raw in LABEL_SCORES:
                value = LABEL_SCORES[raw]
            else:
                try:
                    value = float(raw)
                except ValueError:
                    raise InputFormatError(
                        f"unknown label or score {row[1]!r}", path=str(path), line=lineno
                    ) from None
                if not 0.0 <= value <= 1.0:
                    raise InputFormatError(
                        f"score out of [0,1]: {value}", path=str(path), line=lineno
                    )
            scores[domain] = value
    if not scores:
        raise InputFormatError("score table is empty", path=str(path))
    return DomainScoreTable(scores)


def parse_follow_edges(path: str) -> FollowEdgeList:
    """Read the edges CSV into a deduplicated columnar edge list."""
    edges = FollowEdgeList.from_pairs(_edge_rows(path))
    if edges.n_self_loops_dropped:
        log.warning("dropped %d self-loop edges from %s", edges.n_self_loops_dropped, path)
    return edges


def _edge_rows(path: str) -> Iterator[tuple[str, str]]:
    """The edges CSV's (follower, friend) rows, each checked for shape."""
    with _open_checked(path) as fh:
        reader = csv.reader(fh)
        _check_header(next(reader, None), EDGES_HEADER, path)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2 or not row[0] or not row[1]:
                raise InputFormatError(
                    f"expected 2 non-empty fields, got {row!r}", path=str(path), line=lineno
                )
            yield row[0], row[1]


def parse_events(
    path: str,
    rules: Optional[SuffixRules] = None,
    skip_plds=DEFAULT_SHORTENER_SKIP,
) -> EventLog:
    """Read the events JSONL; URLs are reduced to registrable domains."""
    events: list[TweetEvent] = []
    n_urls_dropped = 0
    n_self_rts = 0
    with _open_checked(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputFormatError(
                    f"invalid JSON: {exc}", path=str(path), line=lineno
                ) from None
            if not isinstance(obj, dict):
                raise InputFormatError("record is not an object", path=str(path), line=lineno)
            try:
                tweet_id = str(obj["id"])
                author = str(obj["author"])
                ts = obj["ts"]
                kind = obj["kind"]
            except KeyError as exc:
                raise InputFormatError(
                    f"missing key {exc.args[0]!r}", path=str(path), line=lineno
                ) from None
            if (
                isinstance(ts, bool)
                or not isinstance(ts, (int, float))
                or ts < 0
                or (isinstance(ts, float) and not ts.is_integer())
            ):
                raise InputFormatError(
                    f"bad timestamp {ts!r}", path=str(path), line=lineno
                )
            if kind not in (KIND_ORIGINAL, KIND_RETWEET):
                raise InputFormatError(f"bad kind {kind!r}", path=str(path), line=lineno)
            orig_author = obj.get("orig_author")
            if kind == KIND_RETWEET:
                if not orig_author:
                    raise InputFormatError(
                        "retweet record lacks orig_author", path=str(path), line=lineno
                    )
                orig_author = str(orig_author)
                if orig_author == author:
                    n_self_rts += 1
                    continue
            else:
                orig_author = None
            urls = obj.get("urls", [])
            if not isinstance(urls, list):
                raise InputFormatError("urls must be an array", path=str(path), line=lineno)
            domains = []
            for url in urls:
                pld = extract_pld(url, rules=rules, skip_plds=skip_plds)
                if pld is None:
                    n_urls_dropped += 1
                else:
                    domains.append(pld)
            events.append(
                TweetEvent(tweet_id, author, int(ts), kind, orig_author, tuple(domains))
            )
    if n_self_rts:
        log.warning("dropped %d self-retweet records from %s", n_self_rts, path)
    return EventLog.from_events(events, n_urls_dropped, n_self_rts)


def load_dataset(
    scores_path: str,
    edges_path: str,
    events_path: str,
    seeds: Optional[Iterable[str]] = None,
) -> DatasetBundle:
    """Parse all three inputs; seeds default to the edge-list sources."""
    scores = parse_domain_scores(scores_path)
    edges = parse_follow_edges(edges_path)
    events = parse_events(events_path)
    seed_set = frozenset(seeds) if seeds is not None else edges.sources()
    return DatasetBundle(scores, edges, events, seed_set)


# ---------------------------------------------------------------------------
# writers (round-trip counterparts of the parsers)
# ---------------------------------------------------------------------------


def write_domain_scores(table: DomainScoreTable, path: str) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SCORES_HEADER)
        for domain in sorted(table.scores):
            writer.writerow([domain, repr(table.scores[domain])])


def write_follow_edges(edges: FollowEdgeList, path: str) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EDGES_HEADER)
        for follower, friend in edges.iter_edges():
            writer.writerow([follower, friend])


def write_events(logdata: EventLog, path: str) -> None:
    with atomic_open(path) as fh:
        for ev in logdata.events:
            obj: dict = {
                "id": ev.tweet_id,
                "author": ev.author,
                "ts": ev.timestamp,
                "kind": ev.kind,
            }
            if ev.original_author is not None:
                obj["orig_author"] = ev.original_author
            obj["urls"] = [f"http://{d}/" for d in ev.domains]
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate_dataset(bundle: DatasetBundle) -> ValidationReport:
    """Referential checks over a parsed bundle. Never mutates it."""
    sources = bundle.edges.sources()
    seeds_without = tuple(sorted(bundle.seeds - sources))

    authors_in_log = set(bundle.log.authors)
    dangling_authors: set[str] = set()
    n_dangling = 0
    n_retweets = 0
    n_scored_events = 0
    for ev in bundle.log.events:
        if ev.is_retweet:
            n_retweets += 1
            if ev.original_author not in authors_in_log:
                n_dangling += 1
                dangling_authors.add(ev.original_author)
        if any(d in bundle.scores for d in ev.domains):
            n_scored_events += 1
    n_events = len(bundle.log)
    frac_scored = n_scored_events / n_events if n_events else 0.0

    errors = tuple(f"seed has no outgoing edges: {u}" for u in seeds_without)
    counters = {
        "n_seeds": len(bundle.seeds),
        "n_users_in_edges": bundle.edges.n_users,
        "n_edges": bundle.edges.n_edges,
        "n_events": n_events,
        "n_retweets": n_retweets,
        "n_authors_in_log": len(authors_in_log),
        "n_scored_domains": len(bundle.scores),
        "n_self_loops_dropped": bundle.edges.n_self_loops_dropped,
        "n_duplicate_edges_dropped": bundle.edges.n_duplicates_dropped,
        "n_urls_dropped": bundle.log.n_urls_dropped,
        "n_self_retweets_dropped": bundle.log.n_self_retweets_dropped,
    }
    return ValidationReport(
        seeds_without_friends=seeds_without,
        dangling_retweet_authors=tuple(sorted(dangling_authors)),
        n_dangling_retweets=n_dangling,
        frac_events_with_scored_domain=frac_scored,
        counters=counters,
        errors=errors,
    )
