"""Follower and retweet graphs over one user-id space, overlap metrics, sampling.

A report numbers every user its inputs name once, in ``user_space``: the
seeds, every endpoint of an edge and every author and retweeted account of
the log, sorted by name, so an id's order is its name's order. Each input
table maps into that space with one name -> id lookup; the parsed edge list
is read from its own CSR. Both graphs are seed x user CSR matrices over
those ids, one row per seed in sorted order, columns ascending in each row:
``FollowerGraph.follow`` holds one entry of 1 per edge and
``RetweetGraph.retweets`` the number of times a seed retweeted an account.
The sparse type, ``CSR``, and ``count_matrix``, which builds every such
matrix from (row, column) pairs, live in ``ingest`` beside the edge list.
Threshold k is ``retweets >= k``, so raising k always keeps a subset of the
edges at k-1. A user's indegree is a column sum. The per-seed metrics below
are row operations on the two matrices and come back as vectors over the
seed rows, NaN where a seed's value is undefined; the moderacy engine pools
exposures over the same matrices and keeps every per-user value as a vector
over the same ids. A user with no entry in either graph and no tweet of its
own (say, an account only non-seeds retweeted) has an id but no defined
value, so no row names it.

A report saves both graphs to ``graphs.cache`` and never reads the file back;
``load_graph_cache`` is its reader, for tools that time or inspect it. Cache
file layout (little-endian, version 3): the magic b"ECHOGRF1", a u32 format
version, a u32 fingerprint length F, F fingerprint bytes (opaque,
caller-supplied), then eight arrays, each a u64 element count and the elements:

    u32  byte length of each name, in id order
    u8   the names' utf-8 bytes, concatenated
    u32  seed ids, ascending
    i64  follow indptr (n_seeds + 1)
    u32  follow indices (user ids, ascending per row); every value is 1,
         so none is stored
    i64  retweets indptr (n_seeds + 1)
    u32  retweets indices
    i64  retweets data (retweet counts)
"""
from __future__ import annotations

import logging
import math
import operator
import struct
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import EchoscopeError
from .ingest import CSR, EventLog, FollowEdgeList, atomic_open, count_matrix

OVERLAP_ACCOUNT = "account"
OVERLAP_CONTENT = "content"

# Work over many rows at once (set-of-domains pools, replayed subset draws)
# goes a block of rows at a time; a block spans at most this many cells,
# which keeps its temporaries to a few MiB.
POOL_BLOCK_CELLS = 1 << 18
# random_friend_positions_reps replays subsets of at most this many friends
REPLAY_MAX_SIZE = 32

CACHE_MAGIC = b"ECHOGRF1"
CACHE_VERSION = 3


class _SeedGraph:
    """A seed x user matrix: rows are the sorted ``seeds``, columns number ``names``.

    ``seed_ids`` holds each row's user id, ascending, so per-user vectors over
    ``names`` can be read per seed row.
    """

    def __init__(self, names: list[str], seed_ids: np.ndarray, matrix: CSR) -> None:
        self.names = names
        self.seed_ids = np.asarray(seed_ids, dtype=np.int64)
        self.seeds = [names[i] for i in self.seed_ids.tolist()]
        self.seed_row = {user: i for i, user in enumerate(self.seeds)}
        self.matrix = matrix

    def indegree(self) -> np.ndarray:
        """Per user id, the column sum: edges (or retweets) from any seed."""
        m = self.matrix
        return np.bincount(m.indices, weights=m.data, minlength=m.shape[1]).astype(m.data.dtype)

    def _targets(self, user: str, k: int) -> frozenset[str]:
        row = self.seed_row.get(user)
        if row is None:
            return frozenset()
        lo, hi = self.matrix.indptr[row], self.matrix.indptr[row + 1]
        cols = self.matrix.indices[lo:hi][self.matrix.data[lo:hi] >= k]
        return frozenset(self.names[i] for i in cols.tolist())

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        same_space = self.names == other.names and self.seeds == other.seeds
        return same_space and self.matrix == other.matrix


class FollowerGraph(_SeedGraph):
    """Seed -> friend edges: one entry of 1 per edge."""

    @property
    def follow(self) -> CSR:
        return self.matrix

    def friends(self, user: str) -> frozenset[str]:
        return self._targets(user, 1)


class RetweetGraph(_SeedGraph):
    """Seed -> retweeted account, holding the number of retweets."""

    @property
    def retweets(self) -> CSR:
        return self.matrix

    def retweet_friends(self, user: str, k: int = 1) -> frozenset[str]:
        """Accounts this user retweeted at least k times."""
        return self._targets(user, k)

    def at_least(self, k: int) -> CSR:
        """Seed x user matrix with a 1 where a seed retweeted an account at least k times."""
        keep = self.retweets.data >= k
        return self.retweets.kept(keep, np.ones(np.count_nonzero(keep), dtype=np.int64))


@dataclass(frozen=True, eq=False)
class UserSpace:
    """One report's user ids and the seeds' own edges and retweets on them.

    ``names`` holds every user the inputs name: the seeds, every endpoint of
    an edge and every author and retweeted account of the log, sorted, so an
    id's order is its name's order. ``seed_ids``, ascending, number the graph
    rows. ``follow_pairs`` holds the (seed row, user id) of every edge
    leaving a seed and ``retweet_pairs`` those of every retweet a seed posted.
    """

    names: list[str]
    seed_ids: np.ndarray
    follow_pairs: tuple[np.ndarray, np.ndarray]
    retweet_pairs: tuple[np.ndarray, np.ndarray]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.seed_ids), len(self.names)


def user_space(seeds: Iterable[str], edges: FollowEdgeList, log: EventLog) -> UserSpace:
    """Number every user the inputs name, once, and the seeds' edges and retweets."""
    seed_list = sorted(set(seeds))
    if not seed_list:
        raise EchoscopeError("seed set is empty")
    names = sorted(set(seed_list).union(edges.names, log.users))
    id_of = {name: i for i, name in enumerate(names)}
    edge_ids = np.array([id_of[name] for name in edges.names], dtype=np.int64)
    log_ids = np.array([id_of[name] for name in log.users], dtype=np.int64)
    seed_ids = np.array([id_of[seed] for seed in seed_list], dtype=np.int64)
    row_of = np.full(len(names), -1, dtype=np.int64)
    row_of[seed_ids] = np.arange(len(seed_list))

    def seed_pairs(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rows = row_of[src]
        keep = rows >= 0
        return rows[keep], dst[keep]

    follow = seed_pairs(edge_ids[edges.follow.entry_rows()], edge_ids[edges.follow.indices])
    retweet = seed_pairs(log_ids[log.author[log.retweet]], log_ids[log.orig_author[log.retweet]])
    return UserSpace(names, seed_ids, follow, retweet)


def build_follower_graph(space: UserSpace) -> FollowerGraph:
    """Edges leaving a seed, one entry of 1 per edge."""
    return FollowerGraph(space.names, space.seed_ids, count_matrix(*space.follow_pairs, space.shape))


def build_retweet_graph(space: UserSpace) -> RetweetGraph:
    """Retweet counts from each seed to the accounts it retweeted."""
    return RetweetGraph(space.names, space.seed_ids, count_matrix(*space.retweet_pairs, space.shape))


def check_same_space(fg: FollowerGraph, rg: RetweetGraph) -> None:
    """Refuse a graph pair whose rows or columns mean different users.

    Graphs built from one ``UserSpace`` always share it; the metrics engine
    checks pairs made any other way before it pools over them.
    """
    if fg.names != rg.names or fg.seeds != rg.seeds:
        raise EchoscopeError("the follower and retweet graphs must share one id space")


def _overlap_terms(
    fg: FollowerGraph, rg: RetweetGraph, ks: Iterable[int], mode: str
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per threshold k in ks, per seed row, over the accounts it retweeted at
    least k times: how many it follows and how many there are (account mode),
    or their retweets (content mode). The followed retweets are found once."""
    if mode not in (OVERLAP_ACCOUNT, OVERLAP_CONTENT):
        raise EchoscopeError(f"unknown overlap mode {mode!r}")
    content = mode == OVERLAP_CONTENT
    matrices = (rg.retweets.multiply(fg.follow), rg.retweets)
    for k in ks:
        kept = [(m.data >= k) * (m.data if content else 1) for m in matrices]
        yield tuple(np.diff(np.r_[0, np.cumsum(v)][m.indptr]) for v, m in zip(kept, matrices))


def ratios(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den elementwise, as floats; NaN where den is 0."""
    out = np.full(den.size, np.nan)
    np.divide(num, den, out=out, where=den > 0)
    return out


def left_sum(values: Iterable):
    """The values added left to right, starting from 0.

    This is what the builtin sum does through Python 3.11; from 3.12 it
    compensates float rounding, so its result would depend on the interpreter.
    """
    return reduce(operator.add, values, 0)


def fraction_friends_retweeted(fg: FollowerGraph, rg: RetweetGraph, k: int = 1) -> np.ndarray:
    """Per seed row, the share of its friends it retweeted at least k times; NaN when friendless."""
    ((n_followed, _),) = _overlap_terms(fg, rg, [k], OVERLAP_ACCOUNT)
    return ratios(n_followed, np.diff(fg.follow.indptr))


def retweet_overlap(
    fg: FollowerGraph, rg: RetweetGraph, k: int = 1, mode: str = OVERLAP_ACCOUNT
) -> np.ndarray:
    """Per seed row, the overlap of its retweet friends (at threshold k) with its followed friends.

    Account mode counts retweeted accounts; content mode counts retweets of
    those accounts. NaN for a seed without a retweet friend at k.
    """
    (terms,) = _overlap_terms(fg, rg, [k], mode)
    return ratios(*terms)


def overlap_vs_threshold(
    fg: FollowerGraph,
    rg: RetweetGraph,
    k_range: Iterable[int] = range(1, 11),
    mode: str = OVERLAP_ACCOUNT,
) -> list[tuple[int, float, int]]:
    """(k, mean overlap, seeds defined) per threshold; the mean is NaN when none is.

    The mean adds the defined seeds' overlaps left to right, in seed order.
    """
    points = []
    ks = sorted(set(int(k) for k in k_range))
    for k, terms in zip(ks, _overlap_terms(fg, rg, ks, mode)):
        overlap = ratios(*terms)
        values = overlap[~np.isnan(overlap)].tolist()
        points.append((k, left_sum(values) / len(values) if values else math.nan, len(values)))
    return points


def sample_friends_by_indegree(
    graph: FollowerGraph | RetweetGraph, n: int, rng: np.random.Generator
) -> np.ndarray:
    """User ids of n draws with replacement, probability proportional to indegree."""
    if n < 1:
        raise EchoscopeError("sample size must be >= 1")
    indegree = graph.indegree()
    targets = np.flatnonzero(indegree)
    if not targets.size:
        raise EchoscopeError("all indegrees are zero")
    weights = indegree[targets].astype(np.float64)
    return targets[rng.choice(targets.size, n, p=weights / weights.sum())]


def random_friend_positions_reps(
    user: str, n_friends: int, size: int, reps: int, rng: np.random.Generator
) -> np.ndarray:
    """A (reps, size) array of friend-list positions, each row a uniform draw
    without replacement from a user's n_friends friends.

    A size above n_friends clamps with one warning. Drawing every friend (or
    none) gives arange(size) in every row and consumes no randomness. Any
    other row is what rng.choice(n_friends, size, replace=False) draws, and
    rng ends in the state reps such calls leave. Small subsets on a Philox
    stream are replayed in bulk (_replay_choice); everything else, and any
    replay that meets a Lemire rejection, calls choice once per row from the
    state saved before.
    """
    if size > n_friends:
        logging.getLogger(__name__).warning(
            "subset size %d exceeds %d friends of %s; clamping", size, n_friends, user
        )
        size = n_friends
    out = np.empty((reps, max(size, 0)), dtype=np.int64)
    if size <= 0 or size == n_friends:
        out[:] = np.arange(out.shape[1])
        return out
    bitgen = rng.bit_generator
    saved = bitgen.state
    # a replay pays a few numpy calls per position and per earlier pick, a
    # choice call costs about two of them, so only small subsets drawn more
    # times than they have positions are replayed; numpy's tail-shuffle
    # branch is left to choice
    replay = (
        isinstance(bitgen, np.random.Philox)
        and size <= REPLAY_MAX_SIZE
        and reps > size
        and not (n_friends > 10000 and size > n_friends // 50)
    )
    if replay and _replay_choice(out, bitgen, saved, n_friends):
        return out
    bitgen.state = saved
    for row in out:
        row[:] = rng.choice(n_friends, size=size, replace=False)
    return out


def _replay_choice(out: np.ndarray, bitgen: np.random.Philox, state: dict, n: int) -> bool:
    """Fill out's rows with what Generator.choice(n, size, replace=False) draws.

    Each choice is Floyd's method over j = n-size .. n-1 (a draw equal to an
    earlier pick takes j instead) and then a Fisher-Yates shuffle over
    i = size-1 .. 1. Every bound goes through Lemire's multiply-shift on one
    32-bit half of a raw word, low half first, and the half left over carries
    to the next draw through the state's has_uint32/uinteger. The raw words
    are read and decoded a block of repetitions at a time. Returns False,
    with out partly filled, on a Lemire rejection (a low word below
    2**32 % bound), whose redraw the replay does not follow.
    """
    reps, size = out.shape
    lo = n - size
    bounds = np.r_[lo + 1 : n + 1, size:1:-1].astype(np.uint64)
    limits = (1 << 32) % bounds
    spare = state["uinteger"] if state["has_uint32"] else None
    high = None
    step = max(1, POOL_BLOCK_CELLS // bounds.size)
    for start in range(0, reps, step):
        block = out[start : start + step]
        count = len(block) * bounds.size
        words = bitgen.random_raw((count + (spare is None)) // 2)
        halves = np.asarray(words, dtype="<u8").view("<u4").astype(np.uint64)
        if spare is not None:
            halves = np.concatenate((np.array([spare], dtype=np.uint64), halves))
        spare = int(halves[count]) if halves.size > count else None
        if words.size:
            high = int(words[-1]) >> 32
        scaled = halves[:count].reshape(-1, bounds.size) * bounds
        if ((scaled & 0xFFFFFFFF) < limits).any():
            return False
        draws = (scaled >> 32).astype(np.int64).T
        picks = block.T
        for p in range(size):
            seen = (picks[:p] == draws[p]).any(axis=0)
            picks[p] = np.where(seen, lo + p, draws[p])
        flat = block.reshape(-1)
        rows = np.arange(0, flat.size, size)
        for i in range(size - 1, 0, -1):
            at = rows + draws[2 * size - 1 - i]
            held = flat[at]
            flat[at] = flat[rows + i]
            flat[rows + i] = held
    after = bitgen.state
    after["has_uint32"] = int(spare is not None)
    if high is not None:
        after["uinteger"] = high
    bitgen.state = after
    return True


def sample_random_friend_subset(
    user: str, fg: FollowerGraph, size: int, rng: np.random.Generator
) -> frozenset[str]:
    """Uniform sample of friends without replacement; size clamps to |friends|.

    One row of random_friend_positions_reps, so it makes the one choice call
    that row makes.
    """
    friends = sorted(fg.friends(user))
    idx = random_friend_positions_reps(user, len(friends), size, 1, rng)[0]
    return frozenset(friends[i] for i in idx.tolist())


# ---------------------------------------------------------------------------
# binary cache
# ---------------------------------------------------------------------------


def save_graph_cache(path: str, fg: FollowerGraph, rg: RetweetGraph, fingerprint: bytes) -> None:
    """Write the cache to a temporary file, then move it over ``path``.

    A run killed mid-write leaves at most a stray temporary file, never a
    partial cache under the real name.
    """
    with atomic_open(path, "wb") as fh:
        _write_cache(fh, fg, rg, fingerprint)


def _write_cache(fh, fg: FollowerGraph, rg: RetweetGraph, fingerprint: bytes) -> None:
    encoded = [name.encode("utf-8") for name in fg.names]
    fh.write(CACHE_MAGIC)
    fh.write(struct.pack("<II", CACHE_VERSION, len(fingerprint)))
    fh.write(fingerprint)
    arrays = (
        ([len(raw) for raw in encoded], "<u4"),
        (np.frombuffer(b"".join(encoded), dtype=np.uint8), "u1"),
        (fg.seed_ids, "<u4"),
        (fg.follow.indptr, "<i8"),
        (fg.follow.indices, "<u4"),
        (rg.retweets.indptr, "<i8"),
        (rg.retweets.indices, "<u4"),
        (rg.retweets.data, "<i8"),
    )
    for values, dtype in arrays:
        values = np.asarray(values, dtype=dtype)
        fh.write(struct.pack("<Q", values.size))
        fh.write(values.tobytes())


def load_graph_cache(path: str, fingerprint: bytes) -> Optional[tuple[FollowerGraph, RetweetGraph]]:
    """Load saved graphs; None when the file is missing, stale or unreadable.

    A file of another version, or a truncated or corrupt one (a short read, a
    bad name encoding, an index out of range, trailing bytes) reads as None.
    The report never calls this: it builds its graphs from its inputs.
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

    def array(dtype: str) -> np.ndarray:
        (count,) = struct.unpack("<Q", take(8))
        dt = np.dtype(dtype)
        return np.frombuffer(take(count * dt.itemsize), dtype=dt)

    if take(len(CACHE_MAGIC)) != CACHE_MAGIC:
        return None
    version, fp_len = struct.unpack("<II", take(8))
    if version != CACHE_VERSION or take(fp_len) != fingerprint:
        return None

    lengths = array("<u4").astype(np.int64)
    blob = array("u1").tobytes()
    if int(lengths.sum()) != len(blob):
        raise ValueError("name lengths do not match the name bytes")
    ends = np.cumsum(lengths).tolist()
    names = [blob[lo:hi].decode("utf-8") for lo, hi in zip([0] + ends[:-1], ends)]
    seed_ids = array("<u4").astype(np.int64)
    if seed_ids.size and ((np.diff(seed_ids) <= 0).any() or seed_ids[-1] >= len(names)):
        raise ValueError("seed ids do not strictly ascend below the name count")
    shape = (len(seed_ids), len(names))
    indptr, indices = array("<i8"), array("<u4")
    follow = _checked_csr(np.ones(indices.size, dtype=np.int64), indices, indptr, shape)
    indptr, indices = array("<i8"), array("<u4")
    retweets = _checked_csr(array("<i8"), indices, indptr, shape)
    if pos != len(data):
        raise ValueError("trailing bytes in cache file")
    return FollowerGraph(names, seed_ids, follow), RetweetGraph(names, seed_ids, retweets)


def _checked_csr(data, indices, indptr, shape) -> CSR:
    data, indices, indptr = (np.asarray(a, dtype=np.int64) for a in (data, indices, indptr))
    if indptr.size != shape[0] + 1 or indptr[0] != 0 or not indptr[-1] == indices.size == data.size:
        raise ValueError("row pointers do not delimit the entries")
    matrix = CSR(indptr, indices, data, shape)
    keys = matrix.entry_rows() * shape[1] + indices  # a falling pointer raises ValueError here
    if indices.max(initial=0) >= shape[1] or (np.diff(keys) <= 0).any():
        raise ValueError("columns are not strictly ascending in a row, below the user count")
    return matrix
