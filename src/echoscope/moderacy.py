"""Moderacy scores: individual, exposure via either graph, and their bias.

Score pipeline for a user u:
  mu(u)      raw mean of domain scores over u's original tweets (multiset of
             URL occurrences by default; a set-of-domains reading is available
             via unique_domains)
  folded     mu if mu > 0.5 else 1 - mu, collapsing left/right extremity into
             a single intensity in [0.5, 1]
  m_s(u)     folded value min-max normalized over all scored users

Exposure pools every scored domain occurrence posted by u's friends under a
graph kind (originals and retweets both land in a timeline), so active
friends weigh more. The fold branch for exposures reuses u's OWN raw mu, and
the two exposure kinds are normalized jointly so their difference
(delta = m_e_f - m_e_r) is meaningful.

Users carry the ids of the graphs' shared id space (graph.py), which number
names in sorted order. ExposureIndex keeps each user's totals as vectors
indexed by those ids, and MetricsEngine pools exposures straight over the
graphs' seed x user matrices, building none of its own, so a pool is a sparse
product. A CSR row lists its columns in ascending id order, so the product
adds friends in sorted-name order. Everything here sees the log it is given:
a time window is applied beforehand, with EventLog.restricted.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy import sparse

from .errors import EchoscopeError
# sample_random_friend_subset is not called here, but perfbench/tracer.py
# looks it up in this module, so it stays importable from here.
from .graph import (  # noqa: F401
    FollowerGraph,
    RetweetGraph,
    check_same_space,
    count_matrix,
    random_friend_positions,
    sample_random_friend_subset,
    user_categories,
)
from .ingest import DatasetBundle, DomainScoreTable, EventLog, KIND_ORIGINAL

log = logging.getLogger(__name__)

MODERATE = "Moderate"
HARDLINER = "Hardliner"

FOLLOWER = "follower"
RETWEET = "retweet"

# Set-of-domains pools are formed a block of seed rows at a time; a block
# spans at most this many (row, domain) cells, which keeps the product's
# temporaries to a few MiB however many domains the score table has.
POOL_BLOCK_CELLS = 1 << 18


def fold(mu: float) -> float:
    """Reflect scores below the center: mu if mu > 0.5 else 1 - mu."""
    if not 0.0 <= mu <= 1.0:
        raise EchoscopeError(f"fold input out of [0,1]: {mu}")
    return mu if mu > 0.5 else 1.0 - mu


def classify(m_s: float) -> str:
    """Moderate iff m_s <= 0.5 (boundary inclusive)."""
    return MODERATE if m_s <= 0.5 else HARDLINER


def raw_mean_score(domains: Iterable[str], table: DomainScoreTable) -> Optional[float]:
    """Mean score over scored occurrences; None when nothing is scored."""
    scored = [table.scores[d] for d in domains if d in table.scores]
    if not scored:
        return None
    return math.fsum(scored) / len(scored)


def minmax_normalize(scores: dict[str, float]) -> dict[str, float]:
    """Rescale values to [0,1]; a constant population maps to 0.5."""
    if not scores:
        raise EchoscopeError("cannot normalize an empty score map")
    lo = min(scores.values())
    hi = max(scores.values())
    if hi == lo:
        log.warning("min-max range is degenerate (%g); mapping all to 0.5", lo)
        return {u: 0.5 for u in scores}
    span = hi - lo
    return {u: (v - lo) / span for u, v in scores.items()}


@dataclass(frozen=True)
class UserMetrics:
    user: str
    mu: Optional[float]
    m_s: Optional[float]
    m_e_f: Optional[float]
    m_e_r: Optional[float]
    delta: Optional[float]
    domain_count: int
    moderacy_class: Optional[str]


@dataclass(frozen=True)
class ExposureProfile:
    user: str
    kind: str
    frac_moderate: float
    frac_hardline: float
    n_domain_occurrences: int


@dataclass(frozen=True)
class CongruenceDiff:
    user: str
    moderacy_class: str
    frac_congruent_retweeted: float
    frac_congruent_not_retweeted: float
    diff: float


@dataclass(frozen=True)
class ActivityRow:
    friend: str
    activity: int
    retweeted: bool
    moderacy_class: Optional[str]


def _fsum_row(matrix: sparse.csr_matrix, row: int, scores: np.ndarray) -> tuple[float, int]:
    """Exactly rounded score sum over a row's domain columns, and their number."""
    lo, hi = matrix.indptr[row], matrix.indptr[row + 1]
    return math.fsum(scores[matrix.indices[lo:hi]].tolist()), int(hi - lo)


class ExposureIndex:
    """Per-user totals over the event log, as vectors indexed by user id.

    Ids number ``names``, a sorted list that must hold every author of the
    log (the graphs' id space; by default the authors alone). Per id,
    ``score_sum`` and ``score_count`` cover every scored domain occurrence
    the user posted, ``moderate`` counts the occurrences whose
    folded score is moderate, ``orig_sum`` and ``orig_count`` cover original
    tweets only, and ``n_events`` counts events. ``domains`` and
    ``original_domains`` are user x domain incidence matrices (all events,
    originals only) over ``domain_scores``, for set-of-domains means. A user
    without events has zero totals.
    """

    def __init__(
        self,
        log_data: EventLog,
        table: DomainScoreTable,
        names: Optional[Sequence[str]] = None,
    ) -> None:
        self.authors = sorted(log_data.user_index)
        self.names = self.authors if names is None else names
        self.id = {name: i for i, name in enumerate(self.names)}
        missing = set(self.authors).difference(self.id)
        if missing:
            raise EchoscopeError(
                f"{len(missing)} log author(s) have no user id, e.g. {min(missing)!r}"
            )
        domain_names = sorted(table.scores)
        domain_id = {d: j for j, d in enumerate(domain_names)}
        self.domain_scores = np.array([table.scores[d] for d in domain_names], dtype=np.float64)
        is_moderate = np.array([fold(s) <= 0.5 for s in self.domain_scores.tolist()], dtype=bool)

        ev_user, ev_orig, occ_event, occ_domain = [], [], [], []
        for e, ev in enumerate(log_data.events):
            ev_user.append(self.id[ev.author])
            ev_orig.append(ev.kind == KIND_ORIGINAL)
            for d in ev.domains:
                j = domain_id.get(d)
                if j is not None:
                    occ_event.append(e)
                    occ_domain.append(j)
        user = np.asarray(ev_user, dtype=np.int64)
        orig = np.asarray(ev_orig, dtype=bool)
        occ_event = np.asarray(occ_event, dtype=np.int64)
        occ_domain = np.asarray(occ_domain, dtype=np.int64)
        occ_user = user[occ_event]
        occ_orig = orig[occ_event]

        # bincount adds in input order: each event's scores in URL order, then
        # each user's event sums in log order
        n = len(self.names)
        ev_sum = np.bincount(
            occ_event, weights=self.domain_scores[occ_domain], minlength=user.size
        )
        self.score_sum = np.bincount(user, weights=ev_sum, minlength=n)
        self.score_count = np.bincount(occ_user, minlength=n)
        self.moderate = np.bincount(occ_user[is_moderate[occ_domain]], minlength=n)
        self.orig_sum = np.bincount(user[orig], weights=ev_sum[orig], minlength=n)
        self.orig_count = np.bincount(occ_user[occ_orig], minlength=n)
        self.n_events = np.bincount(user, minlength=n)
        shape = (n, len(domain_names))
        self.domains = count_matrix(occ_user, occ_domain, shape)
        self.original_domains = count_matrix(occ_user[occ_orig], occ_domain[occ_orig], shape)

    def scored(self, author: str) -> tuple[float, int]:
        i = self.id.get(author)
        if i is None:
            return 0.0, 0
        return float(self.score_sum[i]), int(self.score_count[i])

    def moderate_count(self, author: str) -> int:
        i = self.id.get(author)
        return 0 if i is None else int(self.moderate[i])

    def original_totals(self, author: str, unique_domains: bool = False) -> tuple[float, int]:
        """Score total and count over original tweets: occurrences, or distinct domains."""
        i = self.id.get(author)
        if i is None:
            return 0.0, 0
        if not unique_domains:
            return float(self.orig_sum[i]), int(self.orig_count[i])
        return _fsum_row(self.original_domains, i, self.domain_scores)

    def pool_means(self, pools: sparse.csr_matrix, unique_domains: bool = False) -> np.ndarray:
        """Mean score of the content pooled by each row of a row x user matrix.

        NaN where a row pools nothing scored. Multiset means weigh every
        occurrence; set means count each distinct domain once and are exactly
        rounded.
        """
        out = np.full(pools.shape[0], np.nan)
        if not unique_domains:
            count = pools @ self.score_count
            np.divide(pools @ self.score_sum, count, out=out, where=count > 0)
            return out
        step = max(1, POOL_BLOCK_CELLS // max(1, self.domains.shape[1]))
        for start in range(0, pools.shape[0], step):
            # entries are occurrence counts, so every stored entry is positive
            block = pools[start : start + step] @ self.domains
            for r in range(block.shape[0]):
                total, count = _fsum_row(block, r, self.domain_scores)
                if count:
                    out[start + r] = total / count
        return out


def individual_moderacy(
    user: str,
    log_data: EventLog,
    table: DomainScoreTable,
    unique_domains: bool = False,
    index: Optional[ExposureIndex] = None,
) -> Optional[tuple[float, float]]:
    """(mu, folded) over the user's original tweets, or None if unscored."""
    if index is None:
        index = ExposureIndex(log_data, table)
    total, count = index.original_totals(user, unique_domains)
    if count == 0:
        return None
    mu = total / count
    return mu, fold(mu)


def _check_index(index: Optional[ExposureIndex], fg: FollowerGraph) -> None:
    if index is not None and index.names != fg.names:
        raise EchoscopeError("the index must number users as the graphs do")


def friend_matrix(kind: str, fg: FollowerGraph, rg: RetweetGraph, k: int = 1) -> sparse.csr_matrix:
    """Seed x user matrix whose row holds the friends a seed pools under a graph kind."""
    if kind == FOLLOWER:
        return fg.follow
    if kind == RETWEET:
        return rg.at_least(k)
    raise EchoscopeError(f"unknown graph kind {kind!r}")


def exposure_moderacy(
    user: str,
    kind: str,
    fg: FollowerGraph,
    rg: RetweetGraph,
    log_data: EventLog,
    table: DomainScoreTable,
    k: int = 1,
    unique_domains: bool = False,
    index: Optional[ExposureIndex] = None,
) -> Optional[tuple[float, float]]:
    """(raw pool mean, folded by the user's own mu branch), or None.

    None when the friend set is empty, the pool has no scored occurrence, or
    the user has no mu (the fold branch would be undefined). A given index
    must number users as the graphs do.
    """
    check_same_space(fg, rg)
    _check_index(index, fg)
    row = fg.seed_row.get(user)
    if row is None:
        return None
    pool = friend_matrix(kind, fg, rg, k)[row]
    if pool.nnz == 0:
        return None
    if index is None:
        index = ExposureIndex(log_data, table, fg.names)
    own = individual_moderacy(user, log_data, table, unique_domains, index)
    if own is None:
        return None
    raw = float(index.pool_means(pool, unique_domains)[0])
    if math.isnan(raw):
        return None
    return raw, (raw if own[0] > 0.5 else 1.0 - raw)


def exposure_delta(metrics: UserMetrics) -> Optional[float]:
    """m_e_f - m_e_r; absent when either exposure is absent."""
    if metrics.m_e_f is None or metrics.m_e_r is None:
        return None
    return metrics.m_e_f - metrics.m_e_r


def exposure_class_fractions(
    engine: "MetricsEngine", kind: str, k: int = 1
) -> dict[str, ExposureProfile]:
    """Share of moderate vs hardline occurrences in each seed's exposure pool.

    Each occurrence is classified on its own: fold(score) then the standard
    class boundary, so only exactly-centrist domains count as moderate. Seeds
    whose pool holds no scored occurrence are absent.
    """
    pools = friend_matrix(kind, engine.fg, engine.rg, k)
    n_total = pools @ engine.index.score_count
    n_mod = pools @ engine.index.moderate
    profiles = {}
    for row in np.flatnonzero(n_total).tolist():
        total, mod = int(n_total[row]), int(n_mod[row])
        user = engine.seeds[row]
        profiles[user] = ExposureProfile(user, kind, mod / total, (total - mod) / total, total)
    return profiles


def random_baseline_fractions(
    engine: "MetricsEngine",
    user: str,
    reps: int = 1000,
    rng: Optional[np.random.Generator] = None,
    k: int = 1,
) -> Optional[ExposureProfile]:
    """Class fractions from random friend subsets matched in size.

    Each repetition draws a uniform subset of follower-graph friends the size
    of the user's retweet-friend set and pools their content; the returned
    fractions average the per-repetition fractions (repetitions with empty
    pools are skipped).
    """
    if rng is None:
        raise EchoscopeError("random_baseline_fractions needs an explicit rng")
    row = engine.seed_row.get(user)
    if row is None:
        return None
    weights = engine.retweets.data[engine.retweets.indptr[row] : engine.retweets.indptr[row + 1]]
    size = int(np.count_nonzero(weights >= k))
    friends = engine.follow.indices[engine.follow.indptr[row] : engine.follow.indptr[row + 1]]
    if size == 0 or friends.size == 0:
        return None
    # columns ascend in name order, so position i is the i-th friend by name
    counts = np.stack([engine.index.score_count[friends], engine.index.moderate[friends]])
    frac_mod_sum = 0.0
    n_contributing = 0
    occurrences = 0
    for _ in range(reps):
        picked = random_friend_positions(user, friends.size, size, rng)
        n_total, n_mod = counts[:, picked].sum(axis=1).tolist()
        if n_total == 0:
            continue
        frac_mod_sum += n_mod / n_total
        n_contributing += 1
        occurrences += n_total
    if n_contributing == 0:
        return None
    frac_mod = frac_mod_sum / n_contributing
    return ExposureProfile(user, "baseline", frac_mod, 1.0 - frac_mod, occurrences)


def friend_activity_comparison(
    fg: FollowerGraph,
    rg: RetweetGraph,
    log_data: EventLog,
    class_by_user: Optional[dict[str, str]] = None,
    k: int = 1,
    index: Optional[ExposureIndex] = None,
    table: Optional[DomainScoreTable] = None,
) -> list[ActivityRow]:
    """Tweet counts of every follower-graph friend, split by retweeted-or-not.

    A friend counts as retweeted when any seed retweeted them at least k
    times. Each friend appears exactly once, in name order, regardless of how
    many seeds follow them. A given index must number users as the graphs do.
    """
    _check_index(index, fg)
    if index is None:
        if table is None:
            raise EchoscopeError("need an ExposureIndex or a score table")
        index = ExposureIndex(log_data, table, fg.names)
    class_by_user = class_by_user or {}
    friends = np.flatnonzero(fg.indegree())
    retweeted = rg.at_least(k).getnnz(axis=0)[friends] > 0
    return [
        ActivityRow(fg.names[i], n, rt, class_by_user.get(fg.names[i]))
        for i, n, rt in zip(
            friends.tolist(), index.n_events[friends].tolist(), retweeted.tolist()
        )
    ]


def congruent_friend_fraction_diff(
    fg: FollowerGraph,
    rg: RetweetGraph,
    class_by_user: dict[str, str],
    k: int = 1,
) -> dict[str, CongruenceDiff]:
    """Per seed, the own-class share of retweeted minus not-retweeted friends.

    A friend counts as retweeted when the seed retweeted them at least k
    times. Fractions run over scored friends only; a seed is absent when it
    is unscored or either partition has no scored friend.
    """
    column = {c: j for j, c in enumerate(sorted(set(class_by_user.values())))}
    by_class = user_categories(
        fg.names, {u: column[c] for u, c in class_by_user.items()}, len(column)
    )
    followed = (fg.follow @ by_class).toarray().tolist()
    retweeted = (fg.follow.multiply(rg.at_least(k)) @ by_class).toarray().tolist()
    diffs = {}
    for user, all_counts, rt_counts in zip(fg.seeds, followed, retweeted):
        own_class = class_by_user.get(user)
        n_r = sum(rt_counts)
        n_n = sum(all_counts) - n_r
        if own_class is None or n_r == 0 or n_n == 0:
            continue
        j = column[own_class]
        frac_r = rt_counts[j] / n_r
        frac_n = (all_counts[j] - rt_counts[j]) / n_n
        diffs[user] = CongruenceDiff(user, own_class, frac_r, frac_n, frac_r - frac_n)
    return diffs


@dataclass
class MetricsSet:
    """Per-user metrics at one retweet threshold plus shared score maps."""

    by_user: dict[str, UserMetrics]
    m_s_by_user: dict[str, float]
    class_by_user: dict[str, str]
    k: int
    warnings: tuple[str, ...] = ()


class MetricsEngine:
    """Computes individual scores once and exposures per threshold.

    Individual moderacy is normalized over every scored author in the log
    (seeds and friends alike) so friend classes are defined for the
    congruence and entropy analyses. Exposure values are normalized jointly
    across both graph kinds, per threshold.

    ``follow`` and ``retweets`` are the graphs' own seed x user matrices,
    rows in sorted seed order (``seeds``) and columns over the graphs' user
    ids, which the index shares.
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
        self.seeds, self.seed_row = fg.seeds, fg.seed_row
        self.follow, self.retweets = fg.follow, rg.retweets
        self.index = ExposureIndex(bundle.log, bundle.scores, fg.names)
        self.warnings: list[str] = []

        self.mu_by_user: dict[str, float] = {}
        self.domain_count: dict[str, int] = {}
        folded: dict[str, float] = {}
        for author in self.index.authors:
            total, count = self.index.original_totals(author, unique_domains)
            if count == 0:
                continue
            mu = total / count
            self.mu_by_user[author] = mu
            self.domain_count[author] = count
            folded[author] = fold(mu)
        if folded:
            values = set(folded.values())
            if len(values) == 1:
                self.warnings.append("individual moderacy range is degenerate")
            self.m_s_by_user = minmax_normalize(folded)
        else:
            self.m_s_by_user = {}
        self.class_by_user = {u: classify(v) for u, v in self.m_s_by_user.items()}
        self._seed_mu = np.array([self.mu_by_user.get(u, np.nan) for u in self.seeds])
        self._raw_f: Optional[dict[str, float]] = None

    def _raw_exposures(self, kind: str, k: int) -> dict[str, float]:
        """Raw pool mean, folded by the seed's own mu, for seeds with both defined."""
        pools = friend_matrix(kind, self.fg, self.rg, k)
        raw = self.index.pool_means(pools, self.unique_domains)
        folded = np.where(self._seed_mu > 0.5, raw, 1.0 - raw)
        rows = np.flatnonzero(~np.isnan(raw) & ~np.isnan(self._seed_mu))
        return {self.seeds[i]: v for i, v in zip(rows.tolist(), folded[rows].tolist())}

    def exposures_at(self, k: int) -> tuple[dict[str, float], dict[str, float]]:
        """Jointly normalized (m_e_f, m_e_r) maps for seed users at threshold k."""
        if self._raw_f is None:
            # follower-side pools do not depend on the retweet threshold
            self._raw_f = self._raw_exposures(FOLLOWER, 1)
        raw_f = self._raw_f
        raw_r = self._raw_exposures(RETWEET, k)
        combined: dict[tuple[str, str], float] = {}
        for user, v in raw_f.items():
            combined[(FOLLOWER, user)] = v
        for user, v in raw_r.items():
            combined[(RETWEET, user)] = v
        if not combined:
            return {}, {}
        if len(set(combined.values())) == 1:
            self.warnings.append(f"exposure range at k={k} is degenerate")
        normalized = minmax_normalize(combined)
        m_e_f = {user: normalized[(FOLLOWER, user)] for user in raw_f}
        m_e_r = {user: normalized[(RETWEET, user)] for user in raw_r}
        return m_e_f, m_e_r

    def metrics_at(self, k: int) -> MetricsSet:
        m_e_f, m_e_r = self.exposures_at(k)
        by_user: dict[str, UserMetrics] = {}
        users = sorted(set(self.mu_by_user) | set(m_e_f) | set(m_e_r))
        for user in users:
            mef = m_e_f.get(user)
            mer = m_e_r.get(user)
            delta = mef - mer if mef is not None and mer is not None else None
            by_user[user] = UserMetrics(
                user=user,
                mu=self.mu_by_user.get(user),
                m_s=self.m_s_by_user.get(user),
                m_e_f=mef,
                m_e_r=mer,
                delta=delta,
                domain_count=self.domain_count.get(user, 0),
                moderacy_class=self.class_by_user.get(user),
            )
        return MetricsSet(
            by_user=by_user,
            m_s_by_user=dict(self.m_s_by_user),
            class_by_user=dict(self.class_by_user),
            k=k,
            warnings=tuple(self.warnings),
        )
