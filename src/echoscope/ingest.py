"""Parsing, writing, and validation of the three input artifacts.

Formats (UTF-8 throughout; a leading byte-order mark is skipped):
  scores CSV   header ``domain,score``, score is a label or a decimal in [0,1]
  edges CSV    header ``follower,friend``
  events JSONL one object per line: id, author, ts, kind, orig_author, urls

Parsers keep memory proportional to their output; the edge parser stores
edges as index arrays so tens of millions of rows fit in a small footprint.
Each of the two line-based inputs is read one of two ways: in bulk, in
blocks of about ``BLOCK_CHARS`` characters cut after the last line end
(``_line_blocks``), or one line at a time by its reference reader
(``csv.reader`` for edges, ``json.loads`` for events). Both readings give
the same result and the same errors.

A plain edges block (no quote, no carriage return, each non-blank line two
non-empty fields around one comma) is split into fields with one call, its
self-loops dropped and its new names interned in bulk (``_add_fields``,
which ``FollowEdgeList.from_pairs`` shares). The first block that is not
plain, or an unfinished line longer than two fields csv allows, sends the
whole file through ``_csv_rows`` instead, so quoting rules are csv's.
``_csv_rows`` reads both CSV inputs, names each row's first file line in its
errors, and makes a csv fault an input error at that line. The score table
is a plain dict, domain -> score.

The event parser fills columns (``EventLog``): interned author and
original-author ids, an int64 timestamp array, a retweet mask and a CSR of
interned domain ids, sorted once by (timestamp, tweet id). A block wholly in
the compact shape ``write_events`` writes (``_CANONICAL_EVENT``) is read in
bulk: one regex pass takes its lines, each urls array as raw text, and
``_url_arrays`` checks the block's arrays together with string operations
(quotes pair up within each array, no backslash or control byte, each
distinct text between two strings a separator the grammar allows) and
splits their URLs out with one call; their hosts are found by one regex
pass and their users interned in bulk. Any other block is decoded by json
one line at a time, each line checked on its own at its own line number,
with the same result and the same errors; a byte that is not UTF-8 sends
the whole file down that per-line path, which decides which error comes
first. Each block is folded into the columns before the next is read. The
host memo is probed once per URL, and each distinct URL host is resolved to
its registrable domain once. The analyses read the columns;
``EventLog.events`` gives the same log as ``TweetEvent`` objects, built only
when read. ``read_key_values`` reads the ``key = value`` config files of
``report --config`` and ``synth --config``.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import logging
import os
import re
from array import array
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import chain, compress, count, islice, repeat
from operator import ne, not_
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import EchoscopeError, InputFormatError
from .psl import extract_pld, hosts_of, is_valid_pld

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

# characters per block of the bulk parses, and pairs per batch of
# ``FollowEdgeList.from_pairs``; on the benchmark's edge files, blocks of
# 2**18 parsed up to 10% slower and peaked 2-4 MiB higher
BLOCK_CHARS = 2**16


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
    ) -> None:
        self.names = names
        self.src = src
        self.dst = dst
        self.n_self_loops_dropped = n_self_loops_dropped
        self.n_duplicates_dropped = n_duplicates_dropped

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "FollowEdgeList":
        """Intern (follower, friend) pairs in order of first appearance,
        dropping self-loops and duplicate edges; ``BLOCK_CHARS`` pairs at a
        time, through the same interning as the edge parser."""
        pairs = iter(pairs)
        index: dict[str, int] = {}
        src_buf = array("q")
        dst_buf = array("q")
        n_self = 0
        while fields := list(chain.from_iterable(islice(pairs, BLOCK_CHARS))):
            n_self += _add_fields(fields, index, src_buf, dst_buf)
        src, dst, n_dup = _dedup_edges(src_buf, dst_buf)
        return cls(list(index), src, dst, n_self, n_dup)

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
    def from_events(cls, events: Iterable[TweetEvent]) -> "EventLog":
        events = list(events)
        domain_id: dict[str, int] = {}
        cols = _EventColumns()
        cols.extend(
            [ev.tweet_id for ev in events],
            [ev.author for ev in events],
            [ev.timestamp for ev in events],
            [ev.kind == KIND_RETWEET for ev in events],
            [ev.original_author for ev in events],
            [len(ev.domains) for ev in events],
            [domain_id.setdefault(d, len(domain_id)) for ev in events for d in ev.domains],
        )
        return cols.log(domain_id, 0, 0)

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
    """Events appended a batch at a time, then sorted into an ``EventLog``."""

    def __init__(self) -> None:
        self.tweet_ids: list = []
        self.user_id: dict[str, int] = {}  # in order of first appearance
        self.author = array("q")
        self.ts = array("q")
        self.retweet = array("b")
        self.orig_author = array("q")
        self.domain_ptr = array("q", [0])
        self.domain_ids = array("q")

    def extend(
        self, tweet_ids, authors, ts, retweet, orig_authors, domain_counts, domain_ids
    ) -> None:
        """Append a batch of events, one item each per column; an original
        author that is None or '' is none. ``domain_ids`` holds the batch's
        domain ids flat, ``domain_counts`` how many of them each event has."""
        user_id = self.user_id
        self.tweet_ids.extend(tweet_ids)
        self.author.frombytes(_intern(user_id, authors).tobytes())
        self.ts.frombytes(np.asarray(ts, dtype=np.int64).tobytes())
        self.retweet.extend(retweet)
        has_orig = list(map(bool, orig_authors))
        orig = np.full(len(has_orig), -1, dtype=np.int64)
        orig[has_orig] = _intern(user_id, list(compress(orig_authors, has_orig)))
        self.orig_author.frombytes(orig.tobytes())
        ptr = np.cumsum(domain_counts, dtype=np.int64) + self.domain_ptr[-1]
        self.domain_ptr.frombytes(ptr.tobytes())
        self.domain_ids.frombytes(np.asarray(domain_ids, dtype=np.int64).tobytes())

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
        as_read = EventLog(
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
        if _in_time_order(ts, self.tweet_ids):
            return as_read  # already in order: the columns are kept, not copied
        return as_read.take(_time_order(ts, self.tweet_ids))


def _in_time_order(ts: np.ndarray, tweet_ids: list) -> bool:
    """Whether the events are in strict (timestamp, tweet id) order, so
    that _time_order would give the identity; only tied pairs compare ids."""
    if np.any(ts[1:] < ts[:-1]):
        return False
    tied = np.flatnonzero(ts[1:] == ts[:-1]).tolist()
    return all(tweet_ids[i] < tweet_ids[i + 1] for i in tied)


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
    scores: dict[str, float]  # registrable domain -> slant score in [0,1]
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
    """Open an input as UTF-8 text, skipping a leading byte-order mark; a
    byte that is not UTF-8 is an input error."""
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
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


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w"):
    """Write to a temporary file beside ``path``, then move it over ``path``.

    A write that fails or is killed leaves the previous file (or none) under
    the real name, and the temporary file is removed on failure. A temporary
    file that cannot be made, or moved over ``path``, is an error that names
    ``path``; an error while writing is raised as it is.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        fh = open(tmp, mode, **text)
    except OSError as exc:
        raise EchoscopeError(f"{path}: cannot write file: {exc.strerror}") from None
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise EchoscopeError(f"{path}: cannot write file: {exc.strerror}") from None
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _check_header(row: Optional[list[str]], expected: list[str], path: str) -> None:
    if row is None or [c.strip().lower() for c in row] != expected:
        raise InputFormatError(
            f"expected header {','.join(expected)!r}, got {row!r}", path=str(path), line=1
        )


def _csv_rows(path: str, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """The rows of a CSV input after its header, blank rows skipped, each with
    the file line it starts on; a csv fault is an input error at that line."""
    lineno = 1
    with _open_checked(path) as fh:
        reader = csv.reader(fh)
        try:
            _check_header(next(reader, None), header, path)
            while True:
                lineno = reader.line_num + 1  # a quoted field may span lines
                row = next(reader, None)
                if row is None:
                    return
                if row:
                    yield lineno, row
        except csv.Error as exc:
            raise InputFormatError(str(exc), path=str(path), line=lineno) from None


def parse_domain_scores(path: str) -> dict[str, float]:
    """Read the scores CSV; labels map to the five-level scale."""
    scores: dict[str, float] = {}
    for lineno, row in _csv_rows(path, SCORES_HEADER):
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
            raise InputFormatError(f"duplicate domain {domain!r}", path=str(path), line=lineno)
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
    return scores


def parse_follow_edges(path: str) -> FollowEdgeList:
    """Read the edges CSV into a deduplicated columnar edge list.

    The file is read in blocks of plain ``follower,friend`` lines; the first
    block that is not plain sends the whole file through ``_csv_rows``
    instead, so quoting is csv's and every error names its file line.
    """
    edges = _parse_plain_edges(path)
    if edges is None:
        edges = FollowEdgeList.from_pairs(_edge_rows(path))
    if edges.n_self_loops_dropped:
        log.warning("dropped %d self-loop edges from %s", edges.n_self_loops_dropped, path)
    return edges


def _parse_plain_edges(path: str) -> Optional[FollowEdgeList]:
    """The edge list read a block of lines at a time, or None if csv must read the file."""
    index: dict[str, int] = {}  # name -> id, in order of first appearance
    src_buf = array("q")
    dst_buf = array("q")
    n_self = 0
    field_limit = csv.field_size_limit()
    with _open_checked(path) as fh:
        try:
            header = fh.readline()
            if not header or '"' in header or "\r" in header:
                return None
            try:
                head = next(csv.reader([header]))
            except csv.Error:
                return None  # a field longer than csv allows; _csv_rows reports it
            _check_header(head, EDGES_HEADER, path)
            # a line longer than two fields csv allows is left to csv too
            for block in _line_blocks(fh, 2 * field_limit + 1):
                fields = None if block is None else _plain_fields(block, field_limit)
                if fields is None:
                    return None
                n_self += _add_fields(fields, index, src_buf, dst_buf)
                del block, fields  # freed before the next block is read
        except UnicodeDecodeError:
            return None  # csv reads line by line, so it decides which error comes first
    src, dst, n_dup = _dedup_edges(src_buf, dst_buf)
    return FollowEdgeList(list(index), src, dst, n_self, n_dup)


def _line_blocks(fh, max_line: Optional[int] = None) -> Iterator[Optional[str]]:
    """The rest of ``fh`` in blocks of whole lines, read ``BLOCK_CHARS``
    characters at a time and each cut after its last line feed; a last line
    with no line end is given one. Once a line that no block has ended yet
    is longer than ``max_line``, yields None and stops."""
    head: list[str] = []  # the start of a line no block has ended yet
    for chunk in iter(partial(fh.read, BLOCK_CHARS), ""):
        cut = chunk.rfind("\n") + 1
        if cut:
            head.append(chunk[:cut])
            yield "".join(head)
            head, chunk = [], chunk[cut:]
        head.append(chunk)
        # head holds at most max_line // BLOCK_CHARS + 2 chunks here
        if max_line is not None and sum(map(len, head)) > max_line:
            yield None
            return
    last = "".join(head)
    if last:
        yield last + "\n"


def _add_fields(fields: list[str], index: dict[str, int], src_buf: array, dst_buf: array) -> int:
    """Append the follower and friend ids of flat ``follower, friend, ...``
    fields to ``src_buf`` and ``dst_buf``, interning new names in ``index``
    in order of first appearance; the number of self-loops dropped.

    Self-loops are dropped before any name is interned, and the temporaries
    are freed on return, before the next batch is read.
    """
    followers, friends = fields[0::2], fields[1::2]
    keep = list(map(ne, followers, friends))
    n_loops = 0
    if not all(keep):  # all() is about three times faster than count()
        n_loops = keep.count(False)
        fields = list(chain.from_iterable(compress(zip(followers, friends), keep)))
    ids = _intern(index, fields)
    src_buf.frombytes(ids[0::2].tobytes())
    dst_buf.frombytes(ids[1::2].tobytes())
    return n_loops


def _intern(index: dict[str, int], names: list[str]) -> np.ndarray:
    """The ids of ``names``, each new name added to ``index`` in order of first
    appearance; one dict probe per name, and only new names take more."""
    ids = np.fromiter(map(index.get, names, repeat(-1)), np.int64, len(names))
    new_at = np.flatnonzero(ids < 0).tolist()
    if new_at:
        new_names = list(map(names.__getitem__, new_at))
        index.update(zip(dict.fromkeys(new_names), count(len(index))))
        ids[new_at] = list(map(index.__getitem__, new_names))
    return ids


def _plain_fields(block: str, field_limit: int) -> Optional[list[str]]:
    """The fields of a block of whole lines, in order, if csv would read each
    non-blank line as exactly ``follower,friend``; otherwise None.

    A block is plain when it has no quote and no carriage return, and each
    line that is not blank has one comma between two fields that are neither
    empty nor longer than ``field_limit``. Blank lines are skipped, as csv
    skips them.
    """
    if '"' in block or "\r" in block:
        return None
    if block[:1] in ("", "\n") or "\n\n" in block:  # blank lines, or no line at all
        lines = list(filter(None, block.split("\n")))
        if not lines:
            return []
        block = "\n".join(lines) + "\n"
    raw = np.frombuffer(block.encode("utf-8"), dtype=np.uint8)  # "," and "\n" are single bytes
    at = np.flatnonzero((raw == 44) | (raw == 10))
    seps = raw[at]
    width = np.diff(at, prepend=-1) - 1  # in UTF-8 bytes, never fewer than characters
    if (
        (seps[0::2] != 44).any()
        or (seps[1::2] != 10).any()
        or width.min() < 1
        or width.max() > field_limit
    ):
        return None
    fields = block.replace("\n", ",").split(",")
    fields.pop()  # the empty string after the last "\n"
    return fields


def _edge_rows(path: str) -> Iterator[tuple[str, str]]:
    """The edges CSV's (follower, friend) rows, each checked for shape."""
    for lineno, row in _csv_rows(path, EDGES_HEADER):
        if len(row) != 2 or not row[0] or not row[1]:
            raise InputFormatError(
                f"expected 2 non-empty fields, got {row!r}", path=str(path), line=lineno
            )
        yield row[0], row[1]


# a JSON string that holds no escape and no control character, so that
# json reads its text as it stands
_PLAIN = r'[^"\\\x00-\x1f]'
# an event line in the shape ``write_events`` writes, its urls array aside;
# its groups are the id, the author, ts, a retweet's original author ('' for
# an original tweet) and the text inside the urls array, which
# ``_url_arrays`` checks
_CANONICAL_EVENT = re.compile(
    r'^\{{"id":"({s}*)","author":"({s}+)","ts":(0|[1-9][0-9]{{0,17}}),"kind":'
    r'"(?:original"(?:,"orig_author":"{s}*")?|retweet","orig_author":"({s}+)")'
    r',"urls":\[(.*)\]\}}$'.format(s=_PLAIN),
    re.M,
)
# the bytes a plain JSON string leaves out, but for the line end that joins
# the arrays ``_url_arrays`` reads; none is a byte of a longer UTF-8 character
_NOT_PLAIN = bytes(range(10)) + bytes(range(11, 32)) + b"\\"
# the text between two strings of urls arrays joined by line ends: a comma
# and nulls in one array, or the rest of one array, arrays of nulls alone and
# the start of another
_URL_GAP = re.compile(r",(?:null,)*|(?:,null)*\n(?:(?:null(?:,null)*)?\n)*(?:null,)*")


def _url_arrays(url_texts: list[str]) -> Optional[tuple[list[str], np.ndarray, int]]:
    """The URLs of urls arrays given by the text between their brackets, the
    index of the array that holds each URL, and the number of nulls; None
    unless each array holds only plain strings and nulls, the shape
    ``_CANONICAL_EVENT`` stands for.

    The arrays are checked together: their quotes pair up within each array,
    no byte is a backslash or a control character, and each distinct text
    between two strings is one the array grammar allows.
    """
    text = "\n".join(url_texts)
    parts = text.split('"')
    gaps = parts[0::2]  # the text around the strings
    ends = np.cumsum(np.fromiter(map(str.count, gaps, repeat("\n")), np.int64, len(gaps)))
    if len(parts) % 2 == 0 or ends[-1] != text.count("\n"):
        return None  # a string that runs on past its array: quotes pair up across arrays
    raw = text.encode()
    if len(raw.translate(None, _NOT_PLAIN)) != len(raw):
        return None
    # a line end before the first array and after the last, so that each gap
    # lies between strings or line ends
    gaps[0] = "\n" + gaps[0]
    gaps[-1] += "\n"
    if not all(map(_URL_GAP.fullmatch, set(gaps))):
        return None
    return parts[1::2], ends[:-1], "".join(gaps).count("null")


def parse_events(path: str) -> EventLog:
    """Read the events JSONL into columns; URLs are reduced to registrable domains.

    The file is read in blocks of whole lines. A block whose every line
    matches ``_CANONICAL_EVENT``, and whose urls arrays pass ``_url_arrays``,
    is folded into the columns in bulk; any other block is decoded by json a
    line at a time, each line checked on its own, so each error names its
    own line. A byte that is not UTF-8 sends the whole file through that
    per-line path, which decides which error comes first.
    """
    fold = _EventFold(path)
    with _open_checked(path) as fh:
        try:
            lineno = 1
            for block in _line_blocks(fh):
                lineno = fold.add_block(block, lineno)
        except UnicodeDecodeError:
            fh.seek(0)  # the byte-order mark is skipped again
            fold = _EventFold(path)
            fold.add_lines(fh, 1)
    if fold.n_self_rts:
        log.warning("dropped %d self-retweet records from %s", fold.n_self_rts, path)
    return fold.cols.log(fold.domain_id, fold.n_urls_dropped, fold.n_self_rts)


def _name(value, key: str, path: str, line: int) -> str:
    """An event's id or user name: a string as it is, or an integer as its
    decimal text; any other JSON value (a bool among them) is an input error."""
    if type(value) in (str, int):  # json gives these exact types
        return str(value)
    raise InputFormatError(f"bad {key} {value!r}", path=path, line=line)


# the memo's answer for a host it has not seen; a domain id is -1 or more
_UNSEEN = -2


class _EventFold:
    """Event lines folded into ``_EventColumns``, a batch at a time.

    ``extract_pld`` reads a URL only through its host, so each distinct host
    is resolved once and its domain id reused for every URL on it.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.cols = _EventColumns()
        self.domain_id: dict[str, int] = {}
        self.host_domain: dict[Optional[str], int] = {}  # host -> domain id, -1 for none
        self.n_urls_dropped = 0
        self.n_self_rts = 0

    def add_block(self, block: str, lineno: int) -> int:
        """Fold a block of whole lines that starts at file line ``lineno``;
        the file line after it."""
        # "\r\n" reads as "\n", as each line is stripped; "in" scans far faster than replace
        lines = block.replace("\r\n", "\n") if "\r" in block else block
        if "\r" not in lines:  # a lone "\r" ends a line too
            rows = _CANONICAL_EVENT.findall(lines)
            n_lines = lines.count("\n")
            if len(rows) == n_lines and self.add_rows(rows):
                return lineno + n_lines
        return self.add_lines(io.StringIO(block, newline=""), lineno)

    def add_rows(self, rows: list[tuple[str, ...]]) -> bool:
        """Fold canonical lines, given as the groups of ``_CANONICAL_EVENT``;
        False, with nothing folded, if ``_url_arrays`` refuses an array."""
        columns = list(zip(*rows))
        keep = list(map(ne, columns[1], columns[3]))  # an author is never '', so originals stay
        n_self_rts = keep.count(False)
        if n_self_rts:
            # a self-retweet is dropped, but json would still have read its array
            if _url_arrays(list(compress(columns[4], map(not_, keep)))) is None:
                return False
            columns = [list(compress(column, keep)) for column in columns]
        tweet_ids, authors, ts, orig_authors, url_texts = columns
        arrays = _url_arrays(url_texts)
        if arrays is None:
            return False
        self.n_self_rts += n_self_rts
        self.fold(tweet_ids, authors, list(map(int, ts)), orig_authors, *arrays)
        return True

    def add_lines(self, lines: Iterable[str], lineno: int) -> int:
        """Fold lines one at a time, each decoded by json and checked at its
        own file line, starting at ``lineno``; the file line after them."""
        path = self.path
        tweet_ids: list = []
        authors: list[str] = []
        timestamps: list[int] = []
        orig_authors: list[Optional[str]] = []
        urls: list[str] = []
        url_event: list[int] = []
        n_not_strings = 0
        last = lineno - 1
        for last, line in enumerate(lines, start=lineno):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # JSONDecodeError, an integer over the digit limit, or nesting too deep
                raise InputFormatError(f"invalid JSON: {exc}", path=path, line=last) from None
            if not isinstance(obj, dict):
                raise InputFormatError("record is not an object", path=path, line=last)
            try:
                tweet_id, author, ts, kind = obj["id"], obj["author"], obj["ts"], obj["kind"]
            except KeyError as exc:
                raise InputFormatError(
                    f"missing key {exc.args[0]!r}", path=path, line=last
                ) from None
            tweet_id = _name(tweet_id, "id", path, last)
            author = _name(author, "author", path, last)
            if (
                isinstance(ts, bool)
                or not isinstance(ts, (int, float))
                or ts < 0
                or (isinstance(ts, float) and not ts.is_integer())
                or ts > TS_MAX
            ):
                raise InputFormatError(f"bad timestamp {ts!r}", path=path, line=last)
            if kind not in (KIND_ORIGINAL, KIND_RETWEET):
                raise InputFormatError(f"bad kind {kind!r}", path=path, line=last)
            orig_author = obj.get("orig_author")
            if kind == KIND_RETWEET:
                if orig_author is None or orig_author == "":
                    raise InputFormatError(
                        "retweet record lacks orig_author", path=path, line=last
                    )
                orig_author = _name(orig_author, "orig_author", path, last)
                if orig_author == author:
                    self.n_self_rts += 1
                    continue
            else:
                orig_author = None
            event_urls = obj.get("urls", [])
            if not isinstance(event_urls, list):
                raise InputFormatError("urls must be an array", path=path, line=last)
            event = len(tweet_ids)
            tweet_ids.append(tweet_id)
            authors.append(author)
            timestamps.append(int(ts))
            orig_authors.append(orig_author)
            for url in event_urls:
                if isinstance(url, str):
                    urls.append(url)
                    url_event.append(event)
                else:
                    n_not_strings += 1
        self.fold(tweet_ids, authors, timestamps, orig_authors,
                  urls, np.array(url_event, dtype=np.int64), n_not_strings)
        return last + 1

    def fold(self, tweet_ids, authors, ts, orig_authors, urls, url_event, n_dropped) -> None:
        """Append events to the columns. ``urls`` are their string URLs, in
        order, ``url_event`` the event of each, and ``n_dropped`` the URL
        entries that were not strings; a URL with no registrable domain is
        dropped too."""
        domain = self.domain_ids(urls)
        kept = domain >= 0
        self.n_urls_dropped += n_dropped + len(urls) - int(np.count_nonzero(kept))
        self.cols.extend(
            tweet_ids, authors, ts, list(map(bool, orig_authors)), orig_authors,
            np.bincount(url_event[kept], minlength=len(tweet_ids)), domain[kept],
        )

    def domain_ids(self, urls: list[str]) -> np.ndarray:
        """The domain id of each URL, -1 for none; one memo probe per URL, and
        ``extract_pld`` is called once for each host new to the log, on one
        of its URLs."""
        hosts = hosts_of(urls)
        host_domain, domain_id = self.host_domain, self.domain_id
        ids = np.fromiter(map(host_domain.get, hosts, repeat(_UNSEEN)), np.int64, len(hosts))
        new_at = np.flatnonzero(ids == _UNSEEN).tolist()
        for at in new_at:
            host = hosts[at]
            if host not in host_domain:  # not an earlier URL of this batch either
                pld = extract_pld(urls[at])
                host_domain[host] = -1 if pld is None else domain_id.setdefault(pld, len(domain_id))
        ids[new_at] = list(map(host_domain.__getitem__, map(hosts.__getitem__, new_at)))
        return ids


def load_dataset(scores_path: str, edges_path: str, events_path: str) -> DatasetBundle:
    """Parse all three inputs; the seeds are the edge-list sources."""
    scores = parse_domain_scores(scores_path)
    edges = parse_follow_edges(edges_path)
    events = parse_events(events_path)
    return DatasetBundle(scores, edges, events, edges.sources())


# ---------------------------------------------------------------------------
# writers (round-trip counterparts of the parsers)
# ---------------------------------------------------------------------------


def write_domain_scores(scores: dict[str, float], path: str) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SCORES_HEADER)
        for domain in sorted(scores):
            writer.writerow([domain, repr(scores[domain])])


def write_follow_edges(edges: FollowEdgeList, path: str) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EDGES_HEADER)
        for follower, friend in edges.iter_edges():
            writer.writerow([follower, friend])


def write_events(logdata: EventLog, path: str) -> None:
    """Write the log in the compact shape ``parse_events`` reads in bulk:
    keys in a fixed order, no spaces, characters as they are. json escapes
    quotes, backslashes and control characters; a lone surrogate, which only
    a ``\\u`` escape can give, is written back as that escape."""
    with atomic_open(path, "wb") as fh:
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
            line = json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n"
            fh.write(line.encode("utf-8", "backslashreplace"))


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
