"""Moderacy scores: individual, exposure via either graph, and their bias.

Every per-user value is a vector indexed by the graphs' user ids (graph.py),
which number names in sorted order; NaN marks a value that is undefined.
MetricsEngine computes, once per report:
  mu         raw mean of domain scores over each user's original tweets
             (multiset of URL occurrences by default; a set-of-domains
             reading is available via unique_domains); NaN when unscored
  m_s        the folded mu (mu if mu > 0.5 else 1 - mu, a left/right
             extremity in [0.5, 1]) min-max normalized over scored users
  class_code index into CLASSES (m_s <= 0.5 is moderate), -1 when unscored

Exposure pools every scored domain occurrence posted by a seed's friends
under a graph kind (originals and retweets both land in a timeline), so
active friends weigh more. The fold branch for exposures reuses the seed's
OWN raw mu, and metrics_at(k) normalizes the two kinds jointly so their
difference (delta = m_e_f - m_e_r) is meaningful. Names appear only where
rows are written: the report's tables, and the oracle comparison's maps.

The per-seed analyses (class fractions, congruence) return vectors over the
graphs' seed rows, NaN where a seed's value is undefined; friend activity
returns the friends' user ids with their counts and retweeted flags, and the
random baseline one seed's moderate share. The report turns these into rows.

Every score sum is exactly rounded, the value math.fsum gives, so no mean
depends on the order of the events or of the friends. score_limbs writes
each score of the table as integer limbs, sums of limbs are integers below
2**53 and so exact in float64 in any order, and exact_sums rounds each row
of limb sums once. ExposureIndex keeps each user's totals as vectors over
the same ids, limb totals included. Multiset means pool those totals with
the graphs' seed x user CSR matrices (limb_products); set means mark each
pool's distinct domains in a dense block and add their limbs (set_sums).
Everything here sees the log it is given: a time window is applied
beforehand, with EventLog.restricted.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import EchoscopeError
# sample_random_friend_subset is not called here, but perfbench/tracer.py
# looks it up in this module, so it stays importable from here.
from .graph import (  # noqa: F401
    CSR,
    POOL_BLOCK_CELLS,
    FollowerGraph,
    RetweetGraph,
    check_same_space,
    count_matrix,
    left_sum,
    random_friend_positions_reps,
    ratios,
    sample_random_friend_subset,
)
from .ingest import DatasetBundle, EventLog

log = logging.getLogger(__name__)

MODERATE = "Moderate"
HARDLINER = "Hardliner"
CLASSES = (MODERATE, HARDLINER)  # indexed by class code

FOLLOWER = "follower"
RETWEET = "retweet"

LIMB_BITS = 21  # score sums add scores as integer limbs of this many bits


def fold(mu: float) -> float:
    """Reflect scores below the center: mu if mu > 0.5 else 1 - mu."""
    if not 0.0 <= mu <= 1.0:
        raise EchoscopeError(f"fold input out of [0,1]: {mu}")
    return mu if mu > 0.5 else 1.0 - mu


def classify(m_s: np.ndarray) -> np.ndarray:
    """Class codes into CLASSES: moderate iff m_s <= 0.5 (boundary inclusive), -1 for NaN."""
    m_s = np.asarray(m_s, dtype=np.float64)
    return np.where(np.isnan(m_s), -1, (m_s > 0.5).astype(np.int64))


def class_names(codes: np.ndarray) -> list[Optional[str]]:
    """The class name of each code; None for an unscored user (code -1)."""
    return [CLASSES[c] if c >= 0 else None for c in codes.tolist()]


def minmax_normalize(values: np.ndarray) -> np.ndarray:
    """Rescale values to [0,1]; a constant population maps to 0.5."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise EchoscopeError("cannot normalize an empty score array")
    lo, hi = values.min(), values.max()
    if hi == lo:
        log.warning("min-max range is degenerate (%g); mapping all to 0.5", lo)
        return np.full(values.size, 0.5)
    return (values - lo) / (hi - lo)


def score_limbs(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scores as integer limbs: score i is exactly sum_j limbs[i, j] * weights[j].

    Scores must be finite and non-negative. Each is written as an integer
    over one common power of two 2**L (float.as_integer_ratio) and cut into
    LIMB_BITS-bit limbs, so limb j weighs 2**(LIMB_BITS * j - L); limb
    columns that are zero for every score are dropped.
    """
    pairs = [s.as_integer_ratio() for s in scores.tolist()]
    shift = max((d.bit_length() - 1 for _, d in pairs), default=0)
    ints = [n << (shift - d.bit_length() + 1) for n, d in pairs]
    n_limbs = -(-max((i.bit_length() for i in ints), default=0) // LIMB_BITS)
    mask = (1 << LIMB_BITS) - 1
    limbs = np.array(
        [[(i >> (LIMB_BITS * j)) & mask for j in range(n_limbs)] for i in ints], dtype=np.int64
    ).reshape(len(ints), n_limbs)
    weights = np.ldexp(1.0, LIMB_BITS * np.arange(n_limbs) - shift)
    used = limbs.any(axis=0)
    return limbs[:, used], weights[used]


def limb_products(matrix: CSR, limbs: np.ndarray) -> np.ndarray:
    """``matrix @ limbs``, one product per limb column.

    With integer limbs and counts whose sums stay below 2**53 (limbs are
    below 2**21, a row holds fewer than 2**32 occurrences), every partial
    sum is an exact integer, so the products are exact in any order.
    """
    sums = np.zeros((matrix.shape[0], limbs.shape[1]))
    for j in range(limbs.shape[1]):
        sums[:, j] = matrix @ limbs[:, j]
    return sums


def exact_sums(limb_sums: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per row, the exactly rounded sum of ``limb_sums[i, j] * weights[j]``,
    the value math.fsum gives: limb sums below 2**53 times powers of two are
    exact terms, so math.fsum of them is the row's own math.fsum."""
    terms = limb_sums * weights
    if terms.shape[1] <= 1:
        return terms.sum(axis=1)  # a single exact term is its own correctly rounded sum
    return np.array([math.fsum(t) for t in terms.tolist()])


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions starts[i] .. starts[i] + lengths[i] - 1 for each i, concatenated."""
    ends = np.cumsum(lengths)
    spans = np.repeat(starts - ends + lengths, lengths)
    spans += np.arange(spans.size, dtype=spans.dtype)
    return spans


def set_sums(
    pools: CSR, items: CSR, limbs: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per pools row, the exactly rounded score sum over the distinct columns
    its users hold in ``items``, and their number.

    ``pools`` (row x user) and ``items`` (user x score, canonical) are CSR;
    only stored positions count. ``limbs``, ``weights`` come from score_limbs.
    A block of rows marks the distinct columns its users hold in a 0/1 block
    that spans only held columns; its product with the limbs and a column of
    ones is exact in any order, as in limb_products, and exact_sums rounds
    each row. The marker and the gathered columns stay within
    POOL_BLOCK_CELLS (a larger row goes alone).
    """
    sizes, n_users = np.diff(items.indptr), np.diff(pools.indptr)
    # a row's users are distinct, so its sum is at most items.nnz and fits sizes' own dtype
    gathered = np.zeros(pools.shape[0], dtype=np.int64)
    pooling = np.flatnonzero(n_users)
    gathered[pooling] = np.add.reduceat(
        sizes[pools.indices], pools.indptr[pooling], dtype=sizes.dtype
    )
    held = np.bincount(items.indices, minlength=items.shape[1]) > 0
    cols_of = np.take(np.cumsum(held, dtype=items.indices.dtype) - 1, items.indices)
    # per held column, its limbs and then a one that counts it
    with_count = np.c_[limbs, np.ones(items.shape[1])][held]
    width = with_count.shape[0]
    sums = np.zeros((pools.shape[0], with_count.shape[1]))
    active = np.flatnonzero(gathered)
    max_rows = POOL_BLOCK_CELLS // max(1, width)
    ends = np.r_[0, np.cumsum(gathered[active])]
    start = 0
    while start < active.size:
        fits = int(np.searchsorted(ends, ends[start] + POOL_BLOCK_CELLS, side="right")) - 1
        stop = max(start + 1, min(start + max_rows, fits))
        block = active[start:stop]
        users = pools.indices[_spans(pools.indptr[block], n_users[block])]
        cols = cols_of[_spans(items.indptr[users], sizes[users])]
        marker = np.zeros((block.size, width))
        at = np.repeat(np.arange(0, marker.size, width), gathered[block])
        at += cols
        marker.reshape(-1)[at] = 1
        sums[block] = marker @ with_count
        del marker, at  # freed before the next block builds its own
        start = stop
    totals = np.zeros(pools.shape[0])
    totals[active] = exact_sums(sums[active, :-1], weights)
    return totals, sums[:, -1].astype(np.int64)


class ExposureIndex:
    """Per-user totals over the event log, as vectors indexed by user id.

    Ids number ``names``, a sorted list that must hold every author of the
    log (the graphs' id space). ``domains`` and ``original_domains`` are
    user x domain occurrence counts (all events, originals only) over
    ``domain_scores``, whose scores are ``limbs`` weighted by ``weights``
    (score_limbs). Per id, ``limb_totals`` and ``score_count`` cover every
    scored domain occurrence the user posted, ``orig_limb_totals`` and
    ``orig_count`` original tweets only; ``moderate`` counts the occurrences
    whose folded score is moderate, and ``n_events`` counts events. A user
    without events has zero totals.
    """

    def __init__(
        self,
        log_data: EventLog,
        table: dict[str, float],
        names: Sequence[str],
    ) -> None:
        self.names = names
        self.id = {name: i for i, name in enumerate(self.names)}
        missing = set(log_data.authors).difference(self.id)
        if missing:
            raise EchoscopeError(
                f"{len(missing)} log author(s) have no user id, e.g. {min(missing)!r}"
            )
        domain_names = sorted(table)
        domain_id = {d: j for j, d in enumerate(domain_names)}
        self.domain_scores = np.array([table[d] for d in domain_names], dtype=np.float64)
        is_moderate = np.array([fold(s) <= 0.5 for s in self.domain_scores.tolist()], dtype=bool)
        self.limbs, self.weights = score_limbs(self.domain_scores)

        user_of = np.array([self.id.get(user, -1) for user in log_data.users], dtype=np.int64)
        user = user_of[log_data.author]
        table_id = np.array([domain_id.get(d, -1) for d in log_data.domains], dtype=np.int64)
        occ_domain = table_id[log_data.domain_ids]
        scored = occ_domain >= 0
        occ_event = log_data.event_of_domain()[scored]
        occ_domain = occ_domain[scored]
        occ_user = user[occ_event]
        occ_orig = ~log_data.retweet[occ_event]

        n = len(self.names)
        self.score_count = np.bincount(occ_user, minlength=n)
        self.moderate = np.bincount(occ_user[is_moderate[occ_domain]], minlength=n)
        self.orig_count = np.bincount(occ_user[occ_orig], minlength=n)
        self.n_events = np.bincount(user, minlength=n)
        shape = (n, len(domain_names))
        self.domains = count_matrix(occ_user, occ_domain, shape)
        self.original_domains = count_matrix(occ_user[occ_orig], occ_domain[occ_orig], shape)
        self.limb_totals = limb_products(self.domains, self.limbs)
        self.orig_limb_totals = limb_products(self.original_domains, self.limbs)

    def scored(self, author: str) -> tuple[float, int]:
        """The exactly rounded score total of an author's occurrences, and their number."""
        i = self.id.get(author)
        if i is None:
            return 0.0, 0
        return float(exact_sums(self.limb_totals[[i]], self.weights)[0]), int(self.score_count[i])

    def moderate_count(self, author: str) -> int:
        i = self.id.get(author)
        return 0 if i is None else int(self.moderate[i])

    def pool_means(self, pools: CSR, unique_domains: bool = False) -> np.ndarray:
        """Mean score of the content pooled by each row of a row x user matrix.

        NaN where a row pools nothing scored. Multiset means weigh every
        occurrence: each row pools its users' limb totals. Set means count
        each distinct domain once, from the domains set_sums marks per pool.
        Either way the sums are exactly rounded.
        """
        if not unique_domains:
            sums = exact_sums(limb_products(pools, self.limb_totals), self.weights)
            return ratios(sums, pools @ self.score_count)
        return self.set_means(pools, self.domains)

    def set_means(self, pools: CSR, items: CSR) -> np.ndarray:
        """Exact set mean over the domains each pools row's users hold in ``items``; NaN if none."""
        return ratios(*set_sums(pools, items, self.limbs, self.weights))


def friend_matrix(kind: str, fg: FollowerGraph, rg: RetweetGraph, k: int = 1) -> CSR:
    """Seed x user matrix whose row holds the friends a seed pools under a graph kind."""
    if kind == FOLLOWER:
        return fg.follow
    if kind == RETWEET:
        return rg.at_least(k)
    raise EchoscopeError(f"unknown graph kind {kind!r}")


def exposure_class_fractions(
    engine: "MetricsEngine", kind: str, k: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Per seed row, the moderate and the hardline share of the occurrences in its pool.

    Each occurrence is classified on its own: fold(score) then the standard
    class boundary, so only exactly-centrist domains count as moderate. Both
    are NaN for a seed whose pool holds no scored occurrence.
    """
    pools = friend_matrix(kind, engine.fg, engine.rg, k)
    n_total = pools @ engine.index.score_count
    n_mod = pools @ engine.index.moderate
    return ratios(n_mod, n_total), ratios(n_total - n_mod, n_total)


def random_baseline_fractions(
    engine: "MetricsEngine",
    user: str,
    reps: int,
    rng: np.random.Generator,
    k: int = 1,
) -> Optional[float]:
    """Moderate share of the pools of random friend subsets matched in size.

    Each repetition draws a uniform subset of follower-graph friends the size
    of the user's retweet-friend set and pools their content; the result
    averages the per-repetition shares (repetitions with empty pools are
    skipped). The hardline share is one minus it. None when the user has no
    friend, no retweet friend, or no repetition pooled anything.
    """
    row = engine.seed_row.get(user)
    if row is None:
        return None
    weights = engine.retweets.data[engine.retweets.indptr[row] : engine.retweets.indptr[row + 1]]
    size = int(np.count_nonzero(weights >= k))
    friends = engine.follow.indices[engine.follow.indptr[row] : engine.follow.indptr[row + 1]]
    if size == 0 or friends.size == 0 or reps < 1:
        return None
    # columns ascend in name order, so position i is the i-th friend by name
    counts = np.stack([engine.index.score_count[friends], engine.index.moderate[friends]])
    picks = random_friend_positions_reps(user, friends.size, size, reps, rng)
    n_total, n_mod = np.take(counts, picks, axis=1).sum(axis=2)
    pooled = n_total > 0
    if not pooled.any():
        return None
    # counts are far below 2**53, so float division rounds as int / int does
    shares = (n_mod[pooled] / n_total[pooled]).tolist()
    return left_sum(shares) / len(shares)


def friend_activity_comparison(
    engine: "MetricsEngine", k: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every follower-graph friend's user id, tweet count and retweeted flag.

    A friend counts as retweeted when any seed retweeted them at least k
    times. Each friend appears exactly once, in name order, regardless of how
    many seeds follow them.
    """
    friends = np.flatnonzero(engine.fg.indegree())
    retweeted = np.bincount(engine.rg.at_least(k).indices, minlength=len(engine.names))[friends] > 0
    return friends, engine.index.n_events[friends], retweeted


def congruent_friend_fraction_diff(
    fg: FollowerGraph,
    rg: RetweetGraph,
    class_code: np.ndarray,
    k: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Per seed row, the own-class share of its retweeted and of its not-retweeted friends.

    ``class_code`` holds each user id's index into CLASSES, -1 when
    unscored. A friend counts as retweeted when the seed retweeted them at
    least k times. Shares run over scored friends only; both are NaN for a
    seed that is unscored or has no scored friend in either partition.
    """
    followed = fg.follow.label_counts(class_code, len(CLASSES))
    retweeted = rg.at_least(k).multiply(fg.follow).label_counts(class_code, len(CLASSES))
    own = class_code[fg.seed_ids]
    rows = np.arange(own.size)
    n_r = retweeted.sum(axis=1)
    n_n = followed.sum(axis=1) - n_r
    # an unscored seed (-1) reads the last column here; it is left undefined below
    own_r = retweeted[rows, own]
    own_n = followed[rows, own] - own_r
    # a zero denominator leaves a seed undefined
    defined = (own >= 0) & (n_r > 0) & (n_n > 0)
    return ratios(own_r, n_r * defined), ratios(own_n, n_n * defined)


@dataclass
class MetricsSet:
    """Exposures at one retweet threshold, as vectors over the engine's user ids.

    ``m_e_f``, ``m_e_r`` and ``delta`` are NaN where undefined; only seeds
    with a mu and a scored pool have exposures.
    """

    engine: "MetricsEngine"
    m_e_f: np.ndarray
    m_e_r: np.ndarray
    delta: np.ndarray

    @cached_property
    def user_ids(self) -> np.ndarray:
        """The ids of every user with a defined value, ascending (name order)."""
        e = self.engine
        return np.flatnonzero(~(np.isnan(e.mu) & np.isnan(self.m_e_f) & np.isnan(self.m_e_r)))


class MetricsEngine:
    """Computes individual scores once and exposures per threshold.

    Individual moderacy is normalized over every scored author in the log
    (seeds and friends alike) so friend classes are defined for the
    congruence and entropy analyses. Exposure values are normalized jointly
    across both graph kinds, per threshold.

    ``mu``, ``m_s``, ``class_code`` and ``domain_count`` are vectors over
    the graphs' user ids (``names``), which the index shares. ``follow`` and
    ``retweets`` are the graphs' own seed x user matrices, rows in sorted
    seed order (``seeds``).
    """

    def __init__(
        self,
        bundle: DatasetBundle,
        fg: FollowerGraph,
        rg: RetweetGraph,
        unique_domains: bool = False,
    ) -> None:
        check_same_space(fg, rg)
        self.unique_domains = unique_domains
        self.fg, self.rg = fg, rg
        self.names = fg.names
        self.seeds, self.seed_row = fg.seeds, fg.seed_row
        self.follow, self.retweets = fg.follow, rg.retweets
        self.index = index = ExposureIndex(bundle.log, bundle.scores, fg.names)
        self.warnings: list[str] = []

        if unique_domains:
            self.domain_count = np.diff(index.original_domains.indptr)
            n = len(self.names)
            itself = CSR(np.arange(n + 1), np.arange(n), np.ones(n, dtype=np.int64), (n, n))
            self.mu = index.set_means(itself, index.original_domains)
        else:
            self.domain_count = index.orig_count
            self.mu = ratios(exact_sums(index.orig_limb_totals, index.weights), index.orig_count)
        scored = ~np.isnan(self.mu)
        self.m_s = np.full(len(self.names), np.nan)
        if scored.any():
            mu = self.mu[scored]
            folded = np.where(mu > 0.5, mu, 1.0 - mu)
            if folded.min() == folded.max():
                self.warnings.append("individual moderacy range is degenerate")
            self.m_s[scored] = minmax_normalize(folded)
        self.class_code = classify(self.m_s)
        self._raw_f: Optional[np.ndarray] = None

    def raw_exposures(self, kind: str, k: int = 1) -> np.ndarray:
        """Per user id, the seed's pool mean under a graph kind, folded by its own mu.

        NaN unless the user is a seed with a mu whose pool holds a scored
        occurrence.
        """
        pools = friend_matrix(kind, self.fg, self.rg, k)
        raw = self.index.pool_means(pools, self.unique_domains)
        own = self.mu[self.fg.seed_ids]
        folded = np.where(own > 0.5, raw, 1.0 - raw)
        folded[np.isnan(own)] = np.nan
        out = np.full(len(self.names), np.nan)
        out[self.fg.seed_ids] = folded
        return out

    def metrics_at(self, k: int) -> MetricsSet:
        """Exposures at threshold k, normalized jointly over both kinds' defined values."""
        if self._raw_f is None:
            # follower-side pools do not depend on the retweet threshold
            self._raw_f = self.raw_exposures(FOLLOWER, 1)
        raw = np.concatenate([self._raw_f, self.raw_exposures(RETWEET, k)])
        defined = ~np.isnan(raw)
        if defined.any():
            if raw[defined].min() == raw[defined].max():
                self.warnings.append(f"exposure range at k={k} is degenerate")
            raw[defined] = minmax_normalize(raw[defined])
        m_e_f, m_e_r = np.split(raw, 2)
        return MetricsSet(self, m_e_f, m_e_r, m_e_f - m_e_r)
