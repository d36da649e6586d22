"""Parsing, writing, and validation of the three input artifacts.

Formats (UTF-8 throughout; a leading byte-order mark is skipped):
  scores CSV   header ``domain,score``, score is a label or a decimal in [0,1]
  edges CSV    header ``follower,friend``
  events JSONL one object per line: id, author, ts, kind, orig_author, urls

Parsers keep memory proportional to their output. The edge list is a
sparse matrix: the parser interns names to ids, and ``count_matrix`` sorts
the (follower, friend) id pairs into a ``CSR`` with one entry per distinct
edge, so tens of millions of rows fit in a small footprint. ``CSR`` and
``count_matrix`` live here with the other data-model types; ``graph`` builds
the follower and retweet graphs with them, and the exposure index too.
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
original-author ids, an int64 timestamp array and a CSR of interned domain
ids, sorted once by (timestamp, tweet id). A row is a retweet exactly when it
has an original author; the retweet mask is derived from that column. A
block wholly in the compact shape ``write_events`` writes
(``_CANONICAL_EVENT``) is read in bulk: one regex pass takes its lines, each
urls array as raw text, and ``_url_arrays`` checks the block's arrays
together with string operations (quotes pair up within each array, no
backslash or control byte, each distinct text between two strings a
separator the grammar allows) and splits their URLs out with one call; their
hosts are found by one regex pass. Any other block is decoded by json one
line at a time, each line checked on its own at its own line number, with
the same result and the same errors; a byte that is not UTF-8 sends the
whole file down that per-line path, which decides which error comes first.
Either way a block's authors and original authors are interned in one pass,
its URLs' hosts in another, and the block is folded into the columns before
the next is read. The columns are the one place where a URL becomes a
domain: they keep one host table, and resolve each host new to it to its
registrable domain once, by ``extract_pld`` handed the host alone.
``synth`` builds its log through the same columns. ``EventLog.from_events``
writes its events as the lines ``write_events`` writes (``_event_line``) and
runs this reader on them, so the reader holds every rule of the format. The
analyses read the columns;
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


class CSR:
    """A sparse matrix of ``shape``: row i stores the columns
    ``indices[indptr[i]:indptr[i + 1]]``, strictly ascending, with the values
    ``data`` at the same positions."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                 shape: tuple[int, int]) -> None:
        self.indptr, self.indices, self.data, self.shape = indptr, indices, data, shape

    def entry_rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """Per row, the float sum of value * x[column], added in column order from 0."""
        terms = self.data * x[self.indices]
        return np.bincount(self.entry_rows(), weights=terms, minlength=self.shape[0])

    def label_counts(self, labels: np.ndarray, n_labels: int) -> np.ndarray:
        """A (rows, n_labels) array: per row, how many of its entries sit in a
        column of each label; a column labelled below 0 counts nowhere."""
        label = labels[self.indices]
        held = label >= 0
        cells = self.entry_rows()[held] * n_labels + label[held]
        return np.bincount(cells, minlength=self.shape[0] * n_labels).reshape(-1, n_labels)

    def kept(self, keep: np.ndarray, data: np.ndarray) -> "CSR":
        """The entries where ``keep`` is true, holding ``data`` instead of their values."""
        indptr = np.r_[0, np.cumsum(keep)][self.indptr]
        return CSR(indptr, self.indices[keep], data, self.shape)

    def multiply(self, other: "CSR") -> "CSR":
        """The entries both matrices store, holding the product of their values."""
        mine, theirs = (m.entry_rows() * m.shape[1] + m.indices for m in (self, other))
        at = np.searchsorted(theirs, mine)
        both = at < theirs.size
        both[both] = theirs[at[both]] == mine[both]
        return self.kept(both, self.data[both] * other.data[at[both]])

    def __eq__(self, other: object) -> bool:
        fields = ("indptr", "indices", "data")
        return self.shape == other.shape and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in fields
        )


def count_matrix(rows, cols, shape: tuple[int, int]) -> CSR:
    """Row x column occurrence counts, from the runs of sorted keys row * n_cols + col.

    Each temporary is freed once used, and the columns are derived in place
    from the keys, so above its inputs the build holds about three int64
    arrays of their length at most.
    """
    n_rows, n_cols = shape
    keys = np.asarray(rows, dtype=np.int64) * n_cols
    keys += cols
    keys.sort()
    # where each run of equal keys starts, and the end of the last run
    first = np.empty(keys.size + 1, dtype=bool)
    first[[0, -1]] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:-1])
    starts = np.flatnonzero(first)
    del first
    keys = keys[starts[:-1]]
    counts = np.diff(starts)
    del starts
    entry_rows = keys // n_cols
    indptr = np.searchsorted(entry_rows, np.arange(n_rows + 1))
    entry_rows *= n_cols
    keys -= entry_rows  # the column of each entry
    return CSR(indptr, keys, counts, shape)


class FollowEdgeList:
    """Directed follower->friend edges, each kept once, as a CSR.

    ``follow`` is the follower x friend matrix over ``names``: one entry of 1
    per distinct edge, columns ascending in each row. ``count_matrix`` builds
    it from the interned id columns ``src`` and ``dst``, which are not kept;
    its counts give ``n_duplicates_dropped``, and the values are then a
    read-only view of one int64, so no value array is stored.
    """

    def __init__(self, names: list[str], src, dst, n_self_loops_dropped: int = 0) -> None:
        self.names = names
        self.follow = count_matrix(src, dst, (len(names), len(names)))
        self.n_self_loops_dropped = n_self_loops_dropped
        self.n_duplicates_dropped = len(src) - self.n_edges
        self.follow.data = np.broadcast_to(np.int64(1), self.follow.indices.shape)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "FollowEdgeList":
        """Intern (follower, friend) pairs in order of first appearance,
        dropping self-loops and duplicate edges; ``BLOCK_CHARS`` pairs at a
        time, through the same interning as the edge parser."""
        pairs = iter(pairs)
        index: dict[str, int] = {}
        src_buf, dst_buf = array("q"), array("q")
        n_self = 0
        while fields := list(chain.from_iterable(islice(pairs, BLOCK_CHARS))):
            n_self += _add_fields(fields, index, src_buf, dst_buf)
        return cls(list(index), src_buf, dst_buf, n_self)

    @property
    def n_edges(self) -> int:
        return int(self.follow.indices.size)

    @property
    def n_users(self) -> int:
        return len(self.names)

    def iter_edges(self) -> Iterator[tuple[str, str]]:
        names = self.names
        for s, d in zip(self.follow.entry_rows().tolist(), self.follow.indices.tolist()):
            yield names[s], names[d]

    def sources(self) -> frozenset[str]:
        """The names with an outgoing edge: the rows that hold an entry."""
        ids = np.flatnonzero(np.diff(self.follow.indptr))
        return frozenset(self.names[i] for i in ids.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FollowEdgeList):
            return NotImplemented
        return set(self.iter_edges()) == set(other.iter_edges())

    def __repr__(self) -> str:
        return f"FollowEdgeList(n_users={self.n_users}, n_edges={self.n_edges})"


@dataclass(frozen=True, eq=False)
class EventLog:
    """The tweet log as columns, one row per event in (timestamp, tweet id) order.

    ``users`` is the sorted table of every author and retweeted account;
    ``author`` and ``orig_author`` (-1 for an original tweet) index it.
    ``ts`` holds the timestamps and ``tweet_ids`` the ids. ``retweet`` marks
    the rows with an original author; it is derived from ``orig_author``, not
    stored. Each event's registrable domains, in URL order, are
    ``domain_ids[domain_ptr[e]:domain_ptr[e + 1]]``, indices into ``domains``.
    The arrays are read-only.

    ``events`` is the same log as a tuple of ``TweetEvent``, built on first
    use for code that reads one event at a time (the oracle, writers, tests).
    """

    tweet_ids: np.ndarray
    users: tuple[str, ...]
    author: np.ndarray
    ts: np.ndarray
    orig_author: np.ndarray
    domains: tuple[str, ...]
    domain_ptr: np.ndarray
    domain_ids: np.ndarray
    n_urls_dropped: int = 0
    n_self_retweets_dropped: int = 0

    def __post_init__(self) -> None:
        for column in (self.tweet_ids, self.author, self.ts, self.orig_author,
                       self.domain_ptr, self.domain_ids):
            column.flags.writeable = False

    @classmethod
    def from_events(cls, events: Iterable[TweetEvent]) -> "EventLog":
        """The log ``parse_events`` reads from the file ``write_events``
        writes for ``events``: each event becomes its written line
        (``_event_line``, each domain the URL ``http://{domain}/``), and the
        lines go through the event reader, so every rule of the format is
        the reader's. An integer id or user reads as its decimal text, a
        self-retweet is dropped and counted, and a URL with no registrable
        domain is dropped and counted. A record the reader refuses raises
        its error, with the line but no path."""
        text = b"".join(map(_event_line, events)).decode("utf-8")
        fold = _EventFold(None)
        if text:
            fold.add_block(text, 1)
        return fold.cols.log()

    def __len__(self) -> int:
        return len(self.tweet_ids)

    @cached_property
    def authors(self) -> tuple[str, ...]:
        """The distinct authors, sorted."""
        users = self.users
        ids = np.flatnonzero(np.bincount(self.author, minlength=len(users)))
        return tuple(users[a] for a in ids.tolist())

    @cached_property
    def retweet(self) -> np.ndarray:
        """Whether each row is a retweet: whether it has an original author."""
        retweet = self.orig_author >= 0
        retweet.flags.writeable = False
        return retweet

    @property
    def n_retweets(self) -> int:
        return int(np.count_nonzero(self.retweet))

    @cached_property
    def events(self) -> tuple[TweetEvent, ...]:
        users, domains = self.users, self.domains
        flat, ptr = self.domain_ids.tolist(), self.domain_ptr.tolist()
        return tuple(
            TweetEvent(
                tweet_id, users[a], t, KIND_RETWEET if o >= 0 else KIND_ORIGINAL,
                users[o] if o >= 0 else None, tuple(domains[d] for d in flat[lo:hi]),
            )
            for tweet_id, a, t, o, lo, hi in zip(
                self.tweet_ids.tolist(), self.author.tolist(), self.ts.tolist(),
                self.orig_author.tolist(), ptr, ptr[1:],
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
            orig_author=self.orig_author[rows], domain_ptr=ptr, domain_ids=self.domain_ids[at],
        )

    def restricted(self, window: Optional[tuple[int, int]]) -> "EventLog":
        """The events with lo <= timestamp <= hi; this log itself when window is None."""
        if window is None:
            return self
        lo, hi = window
        return self.take(np.flatnonzero((self.ts >= lo) & (self.ts <= hi)))


class _EventColumns:
    """Events appended a batch at a time, then sorted into an ``EventLog``.

    The one place where a URL becomes a domain: each URL comes in as its
    host, hosts are interned in one table, and each host new to the table
    is resolved to its registrable domain once, by ``extract_pld``. Domains
    are numbered in order of first appearance, and only the domain ids of
    the URLs that have one are kept, so the columns hold no more than the
    log they make.

    ``n_urls_dropped`` counts those URLs and the URL entries a reader found
    not to be strings, which the reader adds; ``n_self_retweets_dropped``
    counts the self-retweets a reader dropped. Both pass to the log.
    """

    def __init__(self) -> None:
        self.tweet_ids: list = []
        self.user_id: dict[str, int] = {}  # in order of first appearance
        self.author = array("q")
        self.ts = array("q")
        self.orig_author = array("q")
        self.host_id: dict[Optional[str], int] = {}  # in order of first appearance
        self.host_domain = array("q")  # the domain id of each host, -1 for none
        self.domain_id: dict[str, int] = {}  # in order of first appearance
        self.domain_ptr = array("q", [0])
        self.domain_ids = array("q")
        self.n_urls_dropped = 0
        self.n_self_retweets_dropped = 0

    def extend(self, tweet_ids, authors, ts, orig_authors, url_counts, hosts) -> None:
        """Append a batch of events, one item each per column; an original
        author that is None or '' is none, and an event with one is a
        retweet. ``hosts`` holds the host of each of the batch's URLs flat,
        as ``hosts_of`` finds it (None for a URL with none), and
        ``url_counts`` how many of them each event has. A URL whose host has
        no registrable domain is dropped and counted in ``n_urls_dropped``.

        The authors and then the original authors are interned in one pass,
        so users are numbered in that order of first appearance; hosts are
        interned in another."""
        self.tweet_ids.extend(tweet_ids)
        has_orig = list(map(bool, orig_authors))
        n = len(has_orig)
        ids = _intern(self.user_id, [*authors, *compress(orig_authors, has_orig)])
        orig = np.full(n, -1, dtype=np.int64)
        orig[has_orig] = ids[n:]
        self.author.frombytes(ids[:n].tobytes())
        self.ts.frombytes(np.asarray(ts, dtype=np.int64).tobytes())
        self.orig_author.frombytes(orig.tobytes())
        n_hosts = len(self.host_domain)
        host = _intern(self.host_id, hosts)
        # the hosts new to the table, in id order
        for new in dict.fromkeys(map(hosts.__getitem__, np.flatnonzero(host >= n_hosts).tolist())):
            pld = extract_pld(None, new)
            self.host_domain.append(
                -1 if pld is None else self.domain_id.setdefault(pld, len(self.domain_id))
            )
        domain = np.frombuffer(self.host_domain, dtype=np.int64)[host]
        kept = domain >= 0
        n_kept = np.zeros(kept.size + 1, dtype=np.int64)  # the kept URLs before each URL
        np.cumsum(kept, out=n_kept[1:])
        self.n_urls_dropped += kept.size - int(n_kept[-1])
        ptr = n_kept[np.cumsum(url_counts, dtype=np.int64)] + self.domain_ptr[-1]
        self.domain_ptr.frombytes(ptr.tobytes())
        self.domain_ids.frombytes(domain[kept].tobytes())

    def log(self) -> EventLog:
        """The collected events, users renumbered in sorted-name order.

        The interning tables are dropped once their names are read, before
        the copies below, so the columns take no more batches after this."""
        names = list(self.user_id)
        domains = tuple(self.domain_id)
        del self.user_id, self.host_id, self.domain_id
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
            rank[np.frombuffer(self.orig_author, dtype=np.int64)],
            domains,
            np.frombuffer(self.domain_ptr, dtype=np.int64),
            np.frombuffer(self.domain_ids, dtype=np.int64),
            self.n_urls_dropped,
            self.n_self_retweets_dropped,
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
    src_buf, dst_buf = array("q"), array("q")
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
    return FollowEdgeList(list(index), src_buf, dst_buf, n_self)


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
    """The URLs of urls arrays given by the text between their brackets, how
    many each array holds, and the number of nulls; None unless each array
    holds only plain strings and nulls, the shape ``_CANONICAL_EVENT``
    stands for.

    The arrays are checked together: each holds an even number of quotes, so
    they pair up within it and its URL count is half of them, no byte is a
    backslash or a control character, and each distinct text between two
    strings is one the array grammar allows.
    """
    quotes = np.fromiter(map(str.count, url_texts, repeat('"')), np.int64, len(url_texts))
    if (quotes & 1).any():
        return None  # a string that runs on past its array
    text = "\n".join(url_texts)
    parts = text.split('"')
    gaps = parts[0::2]  # the text around the strings
    raw = text.encode()
    if len(raw.translate(None, _NOT_PLAIN)) != len(raw):
        return None
    # a line end before the first array and after the last, so that each gap
    # lies between strings or line ends
    gaps[0] = "\n" + gaps[0]
    gaps[-1] += "\n"
    if not all(map(_URL_GAP.fullmatch, set(gaps))):
        return None
    return parts[1::2], quotes >> 1, "".join(gaps).count("null")


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
    cols = fold.cols
    if cols.n_self_retweets_dropped:
        log.warning("dropped %d self-retweet records from %s", cols.n_self_retweets_dropped, path)
    return cols.log()


def _name(value, key: str, path: str, line: int) -> str:
    """An event's id or user name: a string as it is, or an integer as its
    decimal text; any other JSON value (a bool among them) is an input error."""
    if type(value) in (str, int):  # json gives these exact types
        return str(value)
    raise InputFormatError(f"bad {key} {value!r}", path=path, line=line)


class _EventFold:
    """Event lines folded into ``_EventColumns``, a batch at a time: the
    events' names and timestamps, and the hosts of their string URLs, which
    the columns resolve to domains. A URL entry that is not a string, and a
    self-retweet, is counted in the columns' drop counters."""

    def __init__(self, path: Optional[str]) -> None:
        self.path = path  # None: errors name the line alone
        self.cols = _EventColumns()

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
        urls, url_counts, n_nulls = arrays
        cols = self.cols
        cols.n_self_retweets_dropped += n_self_rts
        cols.n_urls_dropped += n_nulls
        cols.extend(
            tweet_ids, authors, list(map(int, ts)), orig_authors, url_counts, hosts_of(urls)
        )
        return True

    def add_lines(self, lines: Iterable[str], lineno: int) -> int:
        """Fold lines one at a time, each decoded by json and checked at its
        own file line, starting at ``lineno``; the file line after them."""
        path, cols = self.path, self.cols
        tweet_ids: list = []
        authors: list[str] = []
        timestamps: list[int] = []
        orig_authors: list[Optional[str]] = []
        url_counts: list[int] = []
        urls: list[str] = []
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
                    cols.n_self_retweets_dropped += 1
                    continue
            else:
                orig_author = None
            event_urls = obj.get("urls", [])
            if not isinstance(event_urls, list):
                raise InputFormatError("urls must be an array", path=path, line=last)
            strings = [url for url in event_urls if isinstance(url, str)]
            tweet_ids.append(tweet_id)
            authors.append(author)
            timestamps.append(int(ts))
            orig_authors.append(orig_author)
            url_counts.append(len(strings))
            urls += strings
            cols.n_urls_dropped += len(event_urls) - len(strings)
        cols.extend(tweet_ids, authors, timestamps, orig_authors, url_counts, hosts_of(urls))
        return last + 1


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


def _event_line(ev: TweetEvent) -> bytes:
    """The UTF-8 line of one event in the compact shape ``parse_events``
    reads in bulk: keys in a fixed order, no spaces, characters as they are,
    each domain as the URL ``http://{domain}/``. json escapes quotes,
    backslashes and control characters; a lone surrogate, which only a
    ``\\u`` escape can give, is written back as that escape."""
    obj: dict = {"id": ev.tweet_id, "author": ev.author, "ts": ev.timestamp, "kind": ev.kind}
    if ev.original_author is not None:
        obj["orig_author"] = ev.original_author
    obj["urls"] = [f"http://{d}/" for d in ev.domains]
    line = json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n"
    return line.encode("utf-8", "backslashreplace")


def write_events(logdata: EventLog, path: str) -> None:
    """Write the log one ``_event_line`` per event, the lines
    ``EventLog.from_events`` reads its events from."""
    with atomic_open(path, "wb") as fh:
        for ev in logdata.events:
            fh.write(_event_line(ev))


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
    n_users = len(log_data.users)
    dangling_ids = np.flatnonzero(np.bincount(log_data.orig_author[dangling], minlength=n_users))
    scored_domain = np.array([d in bundle.scores for d in log_data.domains], dtype=bool)
    scored = scored_domain[log_data.domain_ids]
    n_events = len(log_data)
    n_scored_events = np.count_nonzero(np.bincount(log_data.event_of_domain()[scored]))
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
        dangling_retweet_authors=tuple(log_data.users[i] for i in dangling_ids.tolist()),
        n_dangling_retweets=n_dangling,
        frac_events_with_scored_domain=frac_scored,
        counters=counters,
        errors=errors,
    )
