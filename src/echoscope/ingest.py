"""Parsing, writing, and validation of the three input artifacts.

Formats (UTF-8 throughout):
  scores CSV   header ``domain,score``, score is a label or a decimal in [0,1]
  edges CSV    header ``follower,friend``
  events JSONL one object per line: id, author, ts, kind, orig_author, urls

Parsers are single-pass and keep memory proportional to their output; the
edge parser stores edges as index arrays so tens of millions of rows fit in
a small footprint. The event parser fills columns (``EventLog``): interned
author and original-author ids, an int64 timestamp array, a retweet mask and
a CSR of interned domain ids, sorted once by (timestamp, tweet id). Each
distinct URL host is resolved to its registrable domain once. The analyses
read the columns; ``EventLog.events`` gives the same log as ``TweetEvent``
objects, built only when read. ``read_key_values`` reads the ``key = value``
config files of ``report --config`` and ``synth --config``.
"""
from __future__ import annotations

import contextlib
import csv
import json
import logging
import os
from array import array
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import InputFormatError
from .psl import DEFAULT_SHORTENER_SKIP, SuffixRules, _host_of, extract_pld, is_valid_pld

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

# the largest timestamp the int64 ts column holds
TS_MAX = 2**63 - 1

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


@dataclass(frozen=True, eq=False)
class EventLog:
    """The tweet log as columns, one row per event in (timestamp, tweet id) order.

    ``users`` is the sorted table of every author and retweeted account;
    ``author`` and ``orig_author`` (-1 for an original tweet) index it.
    ``ts`` holds the timestamps, ``retweet`` marks retweets and ``tweet_ids``
    the ids. Each event's registrable domains, in URL order, are
    ``domain_ids[domain_ptr[e]:domain_ptr[e + 1]]``, indices into ``domains``.
    The arrays are read-only.

    ``events`` is the same log as a tuple of ``TweetEvent``, built on first
    use for code that reads one event at a time (the oracle, writers, tests).
    """

    tweet_ids: np.ndarray
    users: tuple[str, ...]
    author: np.ndarray
    ts: np.ndarray
    retweet: np.ndarray
    orig_author: np.ndarray
    domains: tuple[str, ...]
    domain_ptr: np.ndarray
    domain_ids: np.ndarray
    n_urls_dropped: int = 0
    n_self_retweets_dropped: int = 0

    def __post_init__(self) -> None:
        for column in (self.tweet_ids, self.author, self.ts, self.retweet, self.orig_author,
                       self.domain_ptr, self.domain_ids):
            column.flags.writeable = False

    @classmethod
    def from_events(
        cls,
        events: Iterable[TweetEvent],
        n_urls_dropped: int = 0,
        n_self_retweets_dropped: int = 0,
    ) -> "EventLog":
        cols = _EventColumns()
        domain_id: dict[str, int] = {}
        for ev in events:
            cols.add(
                ev.tweet_id,
                ev.author,
                ev.timestamp,
                ev.kind == KIND_RETWEET,
                ev.original_author,
                [domain_id.setdefault(d, len(domain_id)) for d in ev.domains],
            )
        return cols.log(domain_id, n_urls_dropped, n_self_retweets_dropped)

    def __len__(self) -> int:
        return len(self.tweet_ids)

    @cached_property
    def authors(self) -> tuple[str, ...]:
        """The distinct authors, sorted."""
        users = self.users
        return tuple(users[a] for a in np.unique(self.author).tolist())

    @property
    def n_retweets(self) -> int:
        return int(np.count_nonzero(self.retweet))

    @cached_property
    def events(self) -> tuple[TweetEvent, ...]:
        users, domains = self.users, self.domains
        flat, ptr = self.domain_ids.tolist(), self.domain_ptr.tolist()
        return tuple(
            TweetEvent(
                tweet_id, users[a], t, KIND_RETWEET if rt else KIND_ORIGINAL,
                users[o] if o >= 0 else None, tuple(domains[d] for d in flat[lo:hi]),
            )
            for tweet_id, a, t, rt, o, lo, hi in zip(
                self.tweet_ids.tolist(), self.author.tolist(), self.ts.tolist(),
                self.retweet.tolist(), self.orig_author.tolist(), ptr, ptr[1:],
            )
        )

    def event_of_domain(self) -> np.ndarray:
        """The event row of each entry of ``domain_ids``."""
        return np.repeat(np.arange(len(self)), np.diff(self.domain_ptr))

    def take(self, rows: np.ndarray) -> "EventLog":
        """The events at ``rows``, in that order; the name tables are kept."""
        lengths = np.diff(self.domain_ptr)[rows]
        ptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=ptr[1:])
        # where each kept row's domain ids sit in this log's flat array
        at = np.repeat(self.domain_ptr[:-1][rows] - ptr[:-1], lengths) + np.arange(ptr[-1])
        return replace(
            self, tweet_ids=self.tweet_ids[rows], author=self.author[rows], ts=self.ts[rows],
            retweet=self.retweet[rows], orig_author=self.orig_author[rows],
            domain_ptr=ptr, domain_ids=self.domain_ids[at],
        )

    def restricted(self, window: Optional[tuple[int, int]]) -> "EventLog":
        """The events with lo <= timestamp <= hi; this log itself when window is None."""
        if window is None:
            return self
        lo, hi = window
        return self.take(np.flatnonzero((self.ts >= lo) & (self.ts <= hi)))


class _EventColumns:
    """Events collected one at a time, then sorted into an ``EventLog``."""

    def __init__(self) -> None:
        self.tweet_ids: list = []
        self.user_id: dict[str, int] = {}  # in order of first appearance
        self.author = array("q")
        self.ts = array("q")
        self.retweet = array("b")
        self.orig_author = array("q")
        self.domain_ptr = array("q", [0])
        self.domain_ids = array("q")

    def add(self, tweet_id, author, ts, is_retweet, orig_author, domain_ids) -> None:
        user_id = self.user_id
        self.tweet_ids.append(tweet_id)
        self.author.append(user_id.setdefault(author, len(user_id)))
        self.ts.append(ts)
        self.retweet.append(is_retweet)
        self.orig_author.append(
            -1 if orig_author is None else user_id.setdefault(orig_author, len(user_id))
        )
        self.domain_ids.extend(domain_ids)
        self.domain_ptr.append(len(self.domain_ids))

    def log(self, domains, n_urls_dropped: int, n_self_retweets_dropped: int) -> EventLog:
        """The collected events, users renumbered in sorted-name order.

        ``domains`` holds the domain names in id order (a list, or a dict keyed by them).
        """
        names = list(self.user_id)
        by_name = sorted(range(len(names)), key=names.__getitem__)
        rank = np.empty(len(names) + 1, dtype=np.int64)
        rank[by_name] = np.arange(len(names))
        rank[-1] = -1  # an absent original author stays -1
        tweet_ids = np.empty(len(self.tweet_ids), dtype=object)
        tweet_ids[:] = self.tweet_ids
        ts = np.frombuffer(self.ts, dtype=np.int64)
        unsorted = EventLog(
            tweet_ids,
            tuple(names[i] for i in by_name),
            rank[np.frombuffer(self.author, dtype=np.int64)],
            ts,
            np.frombuffer(self.retweet, dtype=np.int8).astype(bool),
            rank[np.frombuffer(self.orig_author, dtype=np.int64)],
            tuple(domains),
            np.frombuffer(self.domain_ptr, dtype=np.int64),
            np.frombuffer(self.domain_ids, dtype=np.int64),
            n_urls_dropped,
            n_self_retweets_dropped,
        )
        return unsorted.take(_time_order(ts, self.tweet_ids))


def _time_order(ts: np.ndarray, tweet_ids: list) -> np.ndarray:
    """The stable permutation that sorts events by (timestamp, tweet id)."""
    order = np.argsort(ts, kind="stable")
    ordered = ts[order]
    tied = np.flatnonzero(ordered[1:] == ordered[:-1])
    if tied.size:
        # runs of equal timestamps, each sorted by id; argsort kept input order
        starts = tied[np.concatenate(([True], tied[1:] != tied[:-1] + 1))]
        ends = tied[np.concatenate((tied[1:] != tied[:-1] + 1, [True]))] + 2
        for lo, hi in zip(starts.tolist(), ends.tolist()):
            order[lo:hi] = sorted(order[lo:hi].tolist(), key=tweet_ids.__getitem__)
    return order


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


def read_key_values(path: str, fields: dict[str, Callable[[str], object]]) -> dict[str, object]:
    """Read a ``key = value`` config file into the keys it sets.

    Blank lines and ``#`` comments are skipped; a later line overrides an
    earlier one. A key not in ``fields``, or a value that ``fields[key]``
    refuses with ValueError, is an input error at its ``path:line``.
    """
    values: dict[str, object] = {}
    with _open_checked(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InputFormatError("expected key=value", path=str(path), line=lineno)
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in fields:
                raise InputFormatError(f"unknown key {key!r}", path=str(path), line=lineno)
            try:
                values[key] = fields[key](value)
            except ValueError:
                raise InputFormatError(
                    f"bad value for {key}: {value!r}", path=str(path), line=lineno
                ) from None
    return values


def config_bool(text: str) -> bool:
    """A config switch: ``1/true/yes`` or ``0/false/no``, in any case."""
    word = text.lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


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
    """Read the events JSONL into columns; URLs are reduced to registrable domains.

    ``extract_pld`` reads a URL only through its host, so each distinct host
    is resolved once and its domain id reused for every URL on it.
    """
    cols = _EventColumns()
    add = cols.add
    domain_id: dict[str, int] = {}
    host_domain: dict[Optional[str], int] = {}  # host -> domain id, -1 for none
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
                or ts > TS_MAX
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
                if isinstance(url, str):
                    host = _host_of(url)
                    d = host_domain.get(host)
                    if d is None:
                        pld = extract_pld(url, rules=rules, skip_plds=skip_plds)
                        d = host_domain[host] = (
                            -1 if pld is None else domain_id.setdefault(pld, len(domain_id))
                        )
                    if d >= 0:
                        domains.append(d)
                        continue
                n_urls_dropped += 1
            add(tweet_id, author, int(ts), kind == KIND_RETWEET, orig_author, domains)
    if n_self_rts:
        log.warning("dropped %d self-retweet records from %s", n_self_rts, path)
    return cols.log(domain_id, n_urls_dropped, n_self_rts)


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

    log_data = bundle.log
    is_author = np.zeros(len(log_data.users) + 1, dtype=bool)  # the last slot is id -1
    is_author[log_data.author] = True
    dangling = log_data.retweet & ~is_author[log_data.orig_author]
    n_dangling = int(np.count_nonzero(dangling))
    dangling_ids = np.unique(log_data.orig_author[dangling]).tolist()
    scored_domain = np.array([d in bundle.scores for d in log_data.domains], dtype=bool)
    scored = scored_domain[log_data.domain_ids]
    n_events = len(log_data)
    n_scored_events = np.unique(log_data.event_of_domain()[scored]).size
    frac_scored = n_scored_events / n_events if n_events else 0.0

    errors = tuple(f"seed has no outgoing edges: {u}" for u in seeds_without)
    counters = {
        "n_seeds": len(bundle.seeds),
        "n_users_in_edges": bundle.edges.n_users,
        "n_edges": bundle.edges.n_edges,
        "n_events": n_events,
        "n_retweets": log_data.n_retweets,
        "n_authors_in_log": len(log_data.authors),
        "n_scored_domains": len(bundle.scores),
        "n_self_loops_dropped": bundle.edges.n_self_loops_dropped,
        "n_duplicate_edges_dropped": bundle.edges.n_duplicates_dropped,
        "n_urls_dropped": log_data.n_urls_dropped,
        "n_self_retweets_dropped": log_data.n_self_retweets_dropped,
    }
    return ValidationReport(
        seeds_without_friends=seeds_without,
        dangling_retweet_authors=tuple(log_data.users[i] for i in dangling_ids),
        n_dangling_retweets=n_dangling,
        frac_events_with_scored_domain=frac_scored,
        counters=counters,
        errors=errors,
    )
