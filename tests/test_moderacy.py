import dataclasses
import logging
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ev, from_events, graphs_of, make_bundle, per_id, rt
from echoscope import moderacy
from echoscope.errors import EchoscopeError
from echoscope.graph import (
    FollowerGraph,
    RetweetGraph,
    build_follower_graph,
    build_retweet_graph,
    count_matrix,
    left_sum,
    sample_random_friend_subset,
    user_space,
)
from echoscope.ingest import FollowEdgeList
from echoscope.moderacy import (
    CLASSES,
    FOLLOWER,
    HARDLINER,
    MODERATE,
    RETWEET,
    ExposureIndex,
    MetricsEngine,
    class_names,
    classify,
    congruent_friend_fraction_diff,
    exact_sums,
    exposure_class_fractions,
    fold,
    friend_activity_comparison,
    minmax_normalize,
    random_baseline_fractions,
    limb_products,
    score_limbs,
    set_sums,
)
from echoscope.report import RunConfig, build_report
from echoscope.rng import substream
from echoscope.synth import SynthConfig, generate


def engine_of(bundle, unique_domains=False):
    return MetricsEngine(bundle, *graphs_of(bundle), unique_domains)


def at(engine, values, name):
    """A per-id engine value, looked up by user name."""
    return values[engine.names.index(name)]


def class_codes(fg, classes):
    """Class codes over the graphs' ids from a name -> class map; -1 elsewhere."""
    return per_id(fg.names, {u: CLASSES.index(c) for u, c in classes.items()}, -1)


def pool_mean(engine, user, kind=FOLLOWER):
    """The raw mean score of a seed's pool under a graph kind at k=1."""
    pools = engine.follow if kind == FOLLOWER else engine.rg.at_least(1)
    return engine.index.pool_means(pools, engine.unique_domains)[engine.seed_row[user]]


# ---------------------------------------------------------------- fold/classify


def test_fold_examples():
    assert fold(0.25) == 0.75
    assert fold(0.5) == 0.5
    assert fold(0.8) == 0.8
    with pytest.raises(EchoscopeError):
        fold(1.2)
    with pytest.raises(EchoscopeError):
        fold(-0.1)


@given(st.floats(0, 1))
@settings(max_examples=500)
def test_fold_mirror_symmetry_is_exact(mu):
    assert fold(mu) == fold(1.0 - mu)
    assert 0.5 <= fold(mu) <= 1.0


def test_classify_boundary():
    codes = classify(np.array([0.5, 0.51, 0.0, 1.0, np.nan]))
    assert class_names(codes) == [MODERATE, HARDLINER, MODERATE, HARDLINER, None]


# ---------------------------------------------------------------- means/normalize


def test_minmax_endpoints_and_midpoint():
    out = minmax_normalize(np.array([0.5, 0.75, 1.0]))
    assert out.tolist() == [0.0, 0.5, 1.0]


def test_minmax_degenerate_maps_to_half(caplog):
    with caplog.at_level("WARNING"):
        out = minmax_normalize(np.array([0.7, 0.7]))
    assert out.tolist() == [0.5, 0.5]
    assert "degenerate" in caplog.text
    with pytest.raises(EchoscopeError):
        minmax_normalize(np.array([]))


@given(st.lists(st.floats(0.5, 1.0), min_size=2, max_size=50, unique=True))
@settings(max_examples=200)
def test_minmax_preserves_ranks(values):
    normalized = minmax_normalize(np.array(values)).tolist()
    order_in = sorted(range(len(values)), key=values.__getitem__)
    order_out = sorted(range(len(values)), key=normalized.__getitem__)
    assert order_in == order_out
    assert min(normalized) == 0.0
    assert max(normalized) == 1.0


# ---------------------------------------------------------------- individual


def test_individual_moderacy_uses_originals_only():
    table = {"a.x": 0.0, "b.x": 1.0}
    events = [
        ev("u", 1, domains=["a.x"]),
        rt("u", 2, "v", domains=["b.x", "b.x"]),
    ]
    engine = engine_of(make_bundle(table, [], events, seeds={"u"}))
    assert at(engine, engine.mu, "u") == 0.0
    assert fold(at(engine, engine.mu, "u")) == 1.0
    assert at(engine, engine.domain_count, "u") == 1
    # a retweets-only user has no individual score
    log_rt = [rt("u", 1, "v", domains=["a.x"])]
    engine = engine_of(make_bundle(table, [], log_rt, seeds={"u"}))
    assert math.isnan(at(engine, engine.mu, "u"))
    assert at(engine, engine.class_code, "u") == -1


def test_individual_moderacy_fixed_point():
    table = {"m.x": 0.5}
    events = [ev("u", 1, domains=["m.x"]), ev("u", 2, domains=["m.x"])]
    engine = engine_of(make_bundle(table, [], events, seeds={"u"}))
    assert at(engine, engine.mu, "u") == 0.5
    assert fold(at(engine, engine.mu, "u")) == 0.5


def test_individual_moderacy_window_and_unique():
    table = {"a.x": 0.0, "b.x": 1.0}
    events = [
        ev("u", 10, domains=["a.x", "a.x", "b.x"]),
        ev("u", 99, domains=["b.x"]),
    ]
    bundle = make_bundle(table, [], events, seeds={"u"})
    early = dataclasses.replace(bundle, log=bundle.log.restricted((0, 50)))
    assert len(early.log) == 1
    engine = engine_of(early)
    mu = at(engine, engine.mu, "u")
    assert mu == pytest.approx(1 / 3)
    assert fold(mu) == pytest.approx(2 / 3)
    unique = engine_of(early, unique_domains=True)
    assert at(unique, unique.mu, "u") == 0.5  # {a.x, b.x} as a set
    assert at(unique, unique.domain_count, "u") == 2
    full = engine_of(bundle)
    assert at(full, full.mu, "u") == 0.5


# ---------------------------------------------------------------- set sums

score_values = st.one_of(
    st.floats(0, 1), st.sampled_from([0.0, 1.0, 5e-324, 2.2250738585072014e-308, 0.1])
)


@given(st.data(), st.lists(score_values, min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_set_sums_equal_fsum_bit_for_bit(data, scores):
    n = len(scores)
    held = data.draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=1, max_size=8))
    counts = data.draw(st.lists(st.integers(1, 5), min_size=n * len(held), max_size=n * len(held)))
    dense = np.zeros((len(held), n), dtype=np.int64)
    for u, cols in enumerate(held):
        for c in cols:
            dense[u, c] = counts[u * n + c]
    pools = data.draw(st.lists(st.sets(st.integers(0, len(held) - 1)), max_size=8))
    pooled = np.zeros((len(pools), len(held)), dtype=np.int64)
    for r, users in enumerate(pools):
        pooled[r, sorted(users)] = 1
    table = np.array(scores)
    limbs = score_limbs(table)
    def csr(matrix):  # the stored positions of a dense matrix, which is all set_sums reads
        return count_matrix(*np.nonzero(matrix), matrix.shape)

    cells = data.draw(st.sampled_from([1, 3, n, 4 * n, moderacy.POOL_BLOCK_CELLS]))
    with mock.patch.object(moderacy, "POOL_BLOCK_CELLS", cells):
        # each user pooling itself reads its own row
        totals, sizes = set_sums(csr(np.eye(len(held))), csr(dense), *limbs)
        assert sizes.tolist() == [len(cols) for cols in held]
        for u, cols in enumerate(held):
            assert totals[u].hex() == math.fsum(table[sorted(cols)].tolist()).hex()
        totals, sizes = set_sums(csr(pooled), csr(dense), *limbs)
    for r, users in enumerate(pools):
        cols = set().union(*(held[u] for u in users))
        assert sizes[r] == len(cols)
        assert totals[r].hex() == math.fsum(table[sorted(cols)].tolist()).hex()
    # multiset sums: each user's limb totals count every occurrence
    rows, cols = np.nonzero(dense)
    times = dense[rows, cols]
    counted = count_matrix(np.repeat(rows, times), np.repeat(cols, times), dense.shape)
    user_limbs = limb_products(counted, limbs[0])
    pool_totals = exact_sums(limb_products(csr(pooled), user_limbs), limbs[1])
    for r, users in enumerate(pools):
        occurrences = np.repeat(table, dense[sorted(users)].sum(axis=0)).tolist()
        assert pool_totals[r].hex() == math.fsum(occurrences).hex()
    for u, total in enumerate(exact_sums(user_limbs, limbs[1]).tolist()):
        assert total.hex() == math.fsum(np.repeat(table, dense[u]).tolist()).hex()


def decimal_score_bundle():
    # decimal scores off the five-level scale: their sums depend on the order
    # of addition, which the five-level oracle bundles never exercise
    bundle, _ = generate(
        SynthConfig(
            n_users=40, n_domains=12, follow_homophily=0.3, base_follow_prob=0.2,
            attention_bias=2.0, activity_rate=5.0, retweet_rate=6.0,
            duration=10_000, seed=21,
        )
    )
    draw = random.Random(4)
    table = {d: round(draw.random(), draw.choice([1, 3, 7])) for d in bundle.scores}
    return dataclasses.replace(bundle, scores=table)


def check_unique_engine_against_fsum(bundle):
    """Assert mu and both kinds' raw set exposures equal an fsum reference bit
    for bit; returns how many reference pools a left-to-right sum gets wrong."""
    table = bundle.scores
    engine = engine_of(bundle, unique_domains=True)

    def scores_of(domains):
        return [table[d] for d in sorted(domains) if d in table]

    def set_mean(values):
        return math.fsum(values) / len(values) if values else math.nan

    events = bundle.log.events
    own = {u: set_mean(scores_of({d for e in events if e.author == u and not e.is_retweet
                                  for d in e.domains}))
           for u in engine.names}
    assert np.array_equal(engine.mu, per_id(engine.names, own), equal_nan=True)
    posted = {u: {d for e in events if e.author == u for d in e.domains} for u in engine.names}
    fg, rg = graphs_of(bundle)
    order_matters = 0
    for kind, friends_of in ((FOLLOWER, fg.friends), (RETWEET, lambda s: rg.retweet_friends(s, 1))):
        want = {}
        for seed in engine.seeds:
            values = scores_of(set().union(*(posted[f] for f in friends_of(seed))))
            order_matters += left_sum(values) != math.fsum(values)
            if values and not math.isnan(own[seed]):
                raw = set_mean(values)
                want[seed] = raw if own[seed] > 0.5 else 1.0 - raw
        assert np.array_equal(engine.raw_exposures(kind), per_id(engine.names, want), equal_nan=True)
    return order_matters


def test_unique_domain_engine_matches_fsum_reference():
    assert check_unique_engine_against_fsum(decimal_score_bundle()) > 0


@pytest.mark.parametrize("cells", ["one", "half", "n_domains", "five_rows"])
def test_unique_domain_engine_matches_fsum_reference_across_blocks(monkeypatch, cells):
    bundle = decimal_score_bundle()
    scored = sorted(bundle.scores)
    users = sorted(bundle.edges.names)
    # a seed without friends, a friend who posts nothing scored (followed
    # alone and among others), a seed with one friend, and a hub that follows
    # everyone and gathers every user's domains
    edges = [*bundle.edges.iter_edges(), ("z_one", users[0]), ("z_quiet_fan", "z_quiet"),
             (users[1], "z_quiet"), *(("z_hub", u) for u in users)]
    events = [*bundle.log.events,
              ev("z_lonely", 1, domains=[scored[0]]),
              ev("z_quiet", 2, domains=["unscored.example"]),
              ev("z_hub", 3, domains=[scored[1]]),
              ev("z_one", 4, domains=scored[:2]),
              ev("z_quiet_fan", 5, domains=[scored[2]])]
    seeds = bundle.seeds | {"z_lonely", "z_one", "z_hub", "z_quiet_fan"}
    # scored domains nobody posts, before and among the posted ones: the
    # marker spans only the posted columns, so each sits at another index there
    unposted = {"a-unposted.example": 0.3, "outlet0005-unposted.example": 0.123}
    bundle = make_bundle({**bundle.scores, **unposted}, edges, events, seeds)
    n = len(scored)
    bound = {"one": 1, "half": n // 2, "n_domains": n, "five_rows": 5 * n}[cells]
    monkeypatch.setattr(moderacy, "POOL_BLOCK_CELLS", bound)
    engine = engine_of(bundle, unique_domains=True)
    gathered = engine.follow @ np.diff(engine.index.domains.indptr)
    assert gathered.max() > bound
    assert check_unique_engine_against_fsum(bundle) > 0


# ---------------------------------------------------------------- exposure


def exposure_fixture():
    # u follows f; f posts one URL scored 0.25; u's own mean is 0.2
    scores = {"own.x": 0.2, "friend.x": 0.25}
    edges = [("u", "f")]
    events = [
        ev("u", 1, domains=["own.x"]),
        ev("f", 2, domains=["friend.x"]),
    ]
    return make_bundle(scores, edges, events)


def test_exposure_moderacy_fold_branch_uses_own_mu():
    engine = engine_of(exposure_fixture())
    assert pool_mean(engine, "u") == 0.25
    # mu(u)=0.2 <= 0.5, so folded = 1 - raw
    assert at(engine, engine.raw_exposures(FOLLOWER), "u") == 0.75


def test_exposure_requires_scored_user_and_nonempty_pool():
    scores = {"friend.x": 0.25}
    bundle = make_bundle(
        scores, [("u", "f")], [ev("f", 1, domains=["friend.x"])]
    )
    # u shared nothing scored: the fold branch is undefined
    engine = engine_of(bundle)
    assert pool_mean(engine, "u") == 0.25
    assert math.isnan(at(engine, engine.raw_exposures(FOLLOWER), "u"))
    assert math.isnan(at(engine, engine.metrics_at(1).m_e_f, "u"))
    # scored user whose friends shared nothing scored
    bundle2 = make_bundle(
        {"own.x": 0.3},
        [("u", "f")],
        [ev("u", 1, domains=["own.x"]), ev("f", 2, domains=["junk.x"])],
    )
    engine2 = engine_of(bundle2)
    assert math.isnan(at(engine2, engine2.raw_exposures(FOLLOWER), "u"))
    mset2 = engine2.metrics_at(1)
    assert engine2.names.index("u") in mset2.user_ids  # scored, but without exposures
    assert not math.isnan(at(engine2, engine2.mu, "u"))


def test_identical_friend_pools_give_identical_exposure():
    scores = {"own.x": 0.8, "a.x": 0.25, "b.x": 1.0}
    edges = [("u", "f1"), ("u", "f2")]
    events = [
        ev("u", 1, domains=["own.x"]),
        ev("f1", 2, domains=["a.x"]),
        ev("f2", 3, domains=["b.x"]),
        rt("u", 4, "f1"),
        rt("u", 5, "f2"),
    ]
    bundle = make_bundle(scores, edges, events)
    fg, rg = graphs_of(bundle)
    assert fg.friends("u") == rg.retweet_friends("u", 1)
    engine = MetricsEngine(bundle, fg, rg)
    assert pool_mean(engine, "u", FOLLOWER) == pool_mean(engine, "u", RETWEET)
    got_f = at(engine, engine.raw_exposures(FOLLOWER), "u")
    got_r = at(engine, engine.raw_exposures(RETWEET), "u")
    assert got_f == got_r == 0.625


def test_activity_weighting_brute_force_recount():
    # one loud friend (10 occurrences at 1.0), one quiet friend (1 at 0.0):
    # dropping the quiet one moves the mean by exactly 1/11 of the range
    scores = {"own.x": 0.9, "hot.x": 1.0, "cold.x": 0.0}
    events = [ev("u", 1, domains=["own.x"])]
    events += [ev("loud", 10 + i, domains=["hot.x"]) for i in range(10)]
    events += [ev("quiet", 30, domains=["cold.x"])]
    bundle = make_bundle(scores, [("u", "loud"), ("u", "quiet")], events)
    engine = engine_of(bundle)
    raw = pool_mean(engine, "u")
    pool = [1.0] * 10 + [0.0]
    assert raw == pytest.approx(sum(pool) / len(pool))
    assert at(engine, engine.raw_exposures(FOLLOWER), "u") == raw  # mu(u) = 0.9 > 0.5
    bundle_without = make_bundle(scores, [("u", "loud")], events)
    raw2 = pool_mean(engine_of(bundle_without), "u")  # quiet still has a column, as an author
    assert abs(raw2 - raw) == pytest.approx(1 / 11)


def test_exposure_delta_and_sign_flip():
    # u pools {f1, f2} but retweets f1; v follows and retweets f1; w retweets nobody
    scores = {"own.x": 0.2, "a.x": 0.0, "b.x": 1.0}
    edges = [("u", "f1"), ("u", "f2"), ("v", "f1"), ("w", "f2")]
    events = [ev(s, 1, domains=["own.x"]) for s in ("u", "v", "w")]
    events += [ev("f1", 2, domains=["a.x"]), ev("f2", 3, domains=["b.x"])]
    events += [rt("u", 4, "f1"), rt("v", 5, "f1")]
    engine = engine_of(make_bundle(scores, edges, events))
    mset = engine.metrics_at(1)
    # folded raw exposures 0.5 (u, f), 1.0 (u, r), 1.0 (v, f and r), 0.0 (w, f)
    assert at(engine, mset.m_e_f, "u") == 0.5
    assert at(engine, mset.delta, "u") == -0.5
    assert at(engine, mset.delta, "v") == 0.0
    assert at(engine, mset.m_e_f, "w") == 0.0
    assert math.isnan(at(engine, mset.delta, "w"))
    assert engine.names.index("w") in mset.user_ids  # w has a row, with no delta


def test_delta_negates_when_graph_roles_swap():
    scores = {"own.x": 0.1, "a.x": 0.0, "b.x": 0.5, "c.x": 1.0}
    edges = [("u", "f1"), ("u", "f2")]
    events = [
        ev("u", 1, domains=["own.x"]),
        ev("f1", 2, domains=["a.x"]),
        ev("f2", 3, domains=["c.x", "b.x"]),
        rt("u", 5, "f1"),
    ]
    bundle = make_bundle(scores, edges, events)
    fg, rg = graphs_of(bundle)
    engine = MetricsEngine(bundle, fg, rg)
    delta = at(engine, engine.metrics_at(1).delta, "u")
    # swapped-role engine: follower pool <- retweet friends and vice versa
    fg_swapped = FollowerGraph(fg.names, fg.seed_ids, rg.at_least(1))
    rg_swapped = RetweetGraph(rg.names, rg.seed_ids, fg.follow)
    assert fg_swapped.friends("u") == rg.retweet_friends("u", 1)
    assert rg_swapped.retweet_friends("u", 1) == fg.friends("u")
    engine2 = MetricsEngine(bundle, fg_swapped, rg_swapped)
    delta2 = at(engine2, engine2.metrics_at(1).delta, "u")
    assert delta2 == pytest.approx(-delta, abs=1e-12)


# ---------------------------------------------------------------- class fractions


def test_exposure_class_fractions_forced_by_fold():
    scores = {"own.x": 0.2, "l.x": 0.0, "r.x": 1.0, "m.x": 0.5}
    edges = [("u", "f")]
    events = [
        ev("u", 1, domains=["own.x"]),
        ev("f", 2, domains=["l.x", "l.x", "r.x"]),
    ]
    bundle = make_bundle(scores, edges, events)
    frac_mod, frac_hard = exposure_class_fractions(engine_of(bundle), FOLLOWER)
    # seed u is the only seed row; 0 and 1 both fold to 1.0
    assert (frac_mod.tolist(), frac_hard.tolist()) == ([0.0], [1.0])

    events_mid = [
        ev("u", 1, domains=["own.x"]),
        ev("f", 2, domains=["m.x", "m.x"]),
    ]
    bundle2 = make_bundle(scores, edges, events_mid)
    frac_mod, frac_hard = exposure_class_fractions(engine_of(bundle2), FOLLOWER)
    assert (frac_mod.tolist(), frac_hard.tolist()) == ([1.0], [0.0])


def test_class_fractions_empty_pool_absent():
    bundle = make_bundle({"m.x": 0.5}, [("u", "f")], [ev("u", 1, domains=["m.x"])])
    frac_mod, frac_hard = exposure_class_fractions(engine_of(bundle), FOLLOWER)
    assert np.isnan(frac_mod).all() and np.isnan(frac_hard).all()


# ---------------------------------------------------------------- baseline


def baseline_fixture():
    scores = {"own.x": 0.2, "a.x": 0.5, "b.x": 1.0}
    edges = [("u", "f1"), ("u", "f2")]
    events = [
        ev("u", 1, domains=["own.x"]),
        ev("f1", 2, domains=["a.x"]),
        ev("f2", 3, domains=["b.x"]),
        rt("u", 4, "f1"),
        rt("u", 5, "f2"),
    ]
    return make_bundle(scores, edges, events)


def test_baseline_forced_when_sizes_match():
    engine = engine_of(baseline_fixture())
    # |retweet friends| == |friends|, so every rep samples the full friend set
    frac = random_baseline_fractions(engine, "u", k=1, reps=7, rng=substream(3, "base"))
    full_mod, full_hard = exposure_class_fractions(engine, FOLLOWER)
    row = engine.seed_row["u"]
    assert frac == pytest.approx(full_mod[row], abs=1e-12)
    assert 1.0 - frac == pytest.approx(full_hard[row], abs=1e-12)


def test_baseline_single_rep_reproducible():
    engine = engine_of(baseline_fixture())
    one = random_baseline_fractions(engine, "u", reps=1, rng=substream(9, "b"))
    two = random_baseline_fractions(engine, "u", reps=1, rng=substream(9, "b"))
    assert one == two


def test_baseline_absent_without_retweet_friends():
    bundle = make_bundle(
        {"own.x": 0.2, "a.x": 0.5},
        [("u", "f1")],
        [ev("u", 1, domains=["own.x"]), ev("f1", 2, domains=["a.x"])],
    )
    engine = engine_of(bundle)
    assert random_baseline_fractions(engine, "u", reps=10, rng=substream(1, "x")) is None


def test_baseline_matches_per_friend_subset_loop():
    # reference: draw friend names with sample_random_friend_subset and pool
    # them through the scalar index accessors, from the same substreams
    bundle, _ = generate(
        SynthConfig(
            n_users=40, n_domains=10, follow_homophily=0.3, base_follow_prob=0.2,
            attention_bias=2.0, activity_rate=5.0, retweet_rate=6.0,
            duration=10_000, seed=12,
        )
    )
    engine = engine_of(bundle)
    fg, rg = graphs_of(bundle)
    n_checked = 0
    for user in sorted(bundle.seeds):
        size = len(rg.retweet_friends(user, 1))
        got = random_baseline_fractions(engine, user, reps=25, rng=substream(5, "b", user))
        if not size or not fg.friends(user):
            assert got is None
            continue
        assert got == subset_loop_baseline(engine, fg, user, size, 25, substream(5, "b", user))
        n_checked += 1
    assert n_checked > 20


def subset_loop_baseline(engine, fg, user, size, reps, rng):
    """The baseline from friend names drawn by sample_random_friend_subset, pooled
    through the scalar index accessors; None when no repetition pools anything."""
    fracs = []
    for _ in range(reps):
        subset = sample_random_friend_subset(user, fg, size, rng)
        n_total = sum(engine.index.scored(f)[1] for f in subset)
        n_mod = sum(engine.index.moderate_count(f) for f in subset)
        if n_total:
            fracs.append(n_mod / n_total)
    return left_sum(fracs) / len(fracs) if fracs else None


def test_report_baseline_matches_per_friend_subset_loop():
    # every eligible seed enters the baseline (baseline_users=0); each class's
    # baseline block is the left-to-right mean of the subset loop's values on
    # the report's own substreams, in seed order
    bundle, _ = generate(
        SynthConfig(
            n_users=60, n_domains=10, follow_homophily=0.3, base_follow_prob=0.2,
            attention_bias=2.0, activity_rate=5.0, retweet_rate=6.0,
            duration=10_000, seed=21,
        )
    )
    cfg = RunConfig("scores.csv", "edges.csv", "events.jsonl", "out", reps=40, seed=13)
    report = build_report(bundle, cfg)
    engine = engine_of(bundle)
    fg, rg = graphs_of(bundle)
    values = {cls: [] for cls in CLASSES}
    for row, user in enumerate(fg.seeds):
        code = engine.class_code[fg.seed_ids[row]]
        size = len(rg.retweet_friends(user, 1))
        if code < 0 or not size:
            continue
        rng = substream(cfg.seed, "baseline", user)
        value = subset_loop_baseline(engine, fg, user, size, cfg.reps, rng)
        if value is not None:
            values[CLASSES[code]].append(value)
    assert sum(map(len, values.values())) > 20
    for cls in CLASSES:
        got = report.sections["class_fractions"]["baseline"][cls]
        assert got["n_users"] == len(values[cls])
        if values[cls]:
            assert got["frac_moderate"] == left_sum(values[cls]) / len(values[cls])
            hard = [1.0 - v for v in values[cls]]
            assert got["frac_hardline"] == left_sum(hard) / len(hard)


def edge_case_baseline_fixture():
    # c retweets more accounts than it follows (the size clamps), e retweets
    # exactly its friends, z's friends post nothing scored, n draws subsets
    scores = {"l.x": 0.0, "m.x": 0.5, "r.x": 1.0}
    edges = [("c", "f1"), ("c", "f2"), ("e", "f1"), ("e", "f2"), ("e", "f3"),
             ("z", "q1"), ("z", "q2"), ("n", "f1"), ("n", "f2"), ("n", "f3"), ("n", "f4")]
    events = [
        ev("f1", 1, domains=["l.x"]),
        ev("f2", 2, domains=["m.x", "m.x"]),
        ev("f3", 3, domains=["r.x"]),
        ev("f4", 4, domains=["m.x", "l.x"]),
        ev("q1", 5, domains=["unscored.x"]),
        ev("q2", 6),
    ]
    retweets = {"c": ["f1", "f2", "f3", "f4"], "e": ["f1", "f2", "f3"], "z": ["q1"], "n": ["f1", "f2"]}
    for user, targets in retweets.items():
        events += [rt(user, 10, t) for t in targets]
    return make_bundle(scores, edges, events)


def test_baseline_clamped_equal_and_empty_pools_match_subset_loop():
    bundle = edge_case_baseline_fixture()
    engine = engine_of(bundle)
    fg, rg = graphs_of(bundle)
    got = {}
    for user in ("c", "e", "z", "n"):
        size = len(rg.retweet_friends(user, 1))
        got[user] = random_baseline_fractions(engine, user, reps=30, rng=substream(8, "b", user))
        assert got[user] == subset_loop_baseline(engine, fg, user, size, 30, substream(8, "b", user))
    full_mod = exposure_class_fractions(engine, FOLLOWER)[0]
    for user in ("c", "e"):  # every repetition pools the whole friend set
        assert got[user] == full_mod[engine.seed_row[user]]
    assert got["z"] is None
    assert got["n"] is not None


def test_baseline_clamp_warns_once_per_seed(caplog):
    bundle = edge_case_baseline_fixture()
    engine = engine_of(bundle)
    with caplog.at_level(logging.WARNING):
        frac = random_baseline_fractions(engine, "c", reps=5, rng=substream(2, "b"))
    clamps = [r for r in caplog.records if "clamping" in r.getMessage()]
    assert len(clamps) == 1
    assert "subset size 4 exceeds 2 friends of c" in clamps[0].getMessage()
    fg, _ = graphs_of(bundle)
    assert frac == subset_loop_baseline(engine, fg, "c", 4, 5, substream(2, "b"))


# ---------------------------------------------------------------- activity


def test_activity_counts_and_dedup():
    scores = {"m.x": 0.5}
    edges = [("s1", "f1"), ("s2", "f1"), ("s1", "f2")]
    events = [ev("f1", i, domains=["m.x"]) for i in range(5)]
    events += [rt("s1", 10, "f1"), rt("s2", 11, "f1")]
    bundle = make_bundle(scores, edges, events)
    engine = engine_of(bundle)
    friends, activity, retweeted = friend_activity_comparison(engine, 1)
    # one entry per friend despite two seeds
    assert [engine.names[i] for i in friends.tolist()] == ["f1", "f2"]
    assert activity.tolist() == [5, 0]
    assert retweeted.tolist() == [True, False]


def test_activity_window():
    scores = {"m.x": 0.5}
    bundle = make_bundle(
        scores,
        [("s", "f")],
        [ev("f", 10 * i, domains=["m.x"]) for i in range(5)],
    )
    early = dataclasses.replace(bundle, log=bundle.log.restricted((0, 20)))
    _, activity, _ = friend_activity_comparison(engine_of(early), 1)
    assert activity.tolist() == [3]
    _, activity, _ = friend_activity_comparison(engine_of(bundle), 1)
    assert activity.tolist() == [5]


# ---------------------------------------------------------------- congruence


def test_congruence_extremes_and_symmetry():
    classes = {
        "u": HARDLINER,
        "r1": HARDLINER,
        "r2": HARDLINER,
        "n1": MODERATE,
        "n2": MODERATE,
    }
    edges = [("u", f) for f in ("r1", "r2", "n1", "n2")]
    events = [rt("u", 1, "r1"), rt("u", 2, "r2")]
    bundle = make_bundle({"m.x": 0.5}, edges, events)
    fg, rg = graphs_of(bundle)
    frac_r, frac_n = congruent_friend_fraction_diff(fg, rg, class_codes(fg, classes), 1)
    assert (frac_r.tolist(), frac_n.tolist()) == ([1.0], [0.0])

    balanced = {
        "u": HARDLINER,
        "r1": HARDLINER,
        "r2": MODERATE,
        "n1": HARDLINER,
        "n2": MODERATE,
    }
    frac_r, frac_n = congruent_friend_fraction_diff(fg, rg, class_codes(fg, balanced), 1)
    assert (frac_r.tolist(), frac_n.tolist()) == ([0.5], [0.5])


def test_congruence_absent_cases():
    edges = [("u", "r1"), ("u", "n1")]
    events = [rt("u", 1, "r1")]
    bundle = make_bundle({"m.x": 0.5}, edges, events)
    fg, rg = graphs_of(bundle)
    # unscored user, then no scored friend in the not-retweeted partition
    for classes in ({"r1": MODERATE}, {"u": MODERATE, "r1": MODERATE}):
        fracs = congruent_friend_fraction_diff(fg, rg, class_codes(fg, classes), 1)
        assert np.isnan(fracs).all()


# ---------------------------------------------------------------- engine


def test_engine_normalizes_all_scored_users_together(tiny_bundle):
    fg, rg = graphs_of(tiny_bundle)
    engine = MetricsEngine(tiny_bundle, fg, rg)
    # friends f1..f3 are scored authors too, so they get m_s and classes
    scored = {name for name, v in zip(engine.names, engine.m_s.tolist()) if not math.isnan(v)}
    assert scored == {"s1", "s2", "f1", "f2", "f3"}
    assert np.nanmin(engine.m_s) == 0.0
    assert np.nanmax(engine.m_s) == 1.0
    mset = engine.metrics_at(1)
    assert engine.names.index("f2") in mset.user_ids
    assert math.isnan(at(engine, mset.m_e_f, "f2"))  # friends have no observed friend lists


def test_engine_window_restricts_everything():
    scores = {"a.x": 0.0, "b.x": 1.0, "own.x": 0.4}
    edges = [("u", "f")]
    events = [
        ev("u", 10, domains=["own.x"]),
        ev("f", 20, domains=["a.x"]),
        ev("f", 90, domains=["b.x"]),
    ]
    bundle = make_bundle(scores, edges, events)
    full = engine_of(bundle)
    early = dataclasses.replace(bundle, log=bundle.log.restricted((0, 50)))
    windowed = engine_of(early)
    assert full.index.scored("f") == (1.0, 2)
    assert windowed.index.scored("f") == (0.0, 1)
    assert pool_mean(full, "u") == 0.5
    assert pool_mean(windowed, "u") == 0.0


def test_graphs_and_index_from_another_id_space_refused():
    b = make_bundle(
        {"x.example": 0.2},
        [("u", "f")],
        [ev("u", 1, domains=["x.example"]), rt("u", 2, "g", domains=["x.example"])],
    )
    # each graph built over the users its own input names: {u, f} and {u, g}
    fg = build_follower_graph(user_space(b.seeds, b.edges, from_events([])))
    rg = build_retweet_graph(user_space(b.seeds, FollowEdgeList.from_pairs([]), b.log))
    with pytest.raises(EchoscopeError, match="one id space"):
        MetricsEngine(b, fg, rg)
    with pytest.raises(EchoscopeError, match="no user id"):
        ExposureIndex(b.log, b.scores, ["f", "g"])


def test_exposure_index_matches_event_scan(tiny_bundle):
    index = ExposureIndex(tiny_bundle.log, tiny_bundle.scores, tiny_bundle.log.authors)
    for author in tiny_bundle.log.authors:
        events = [e for e in tiny_bundle.log.events if e.author == author]
        expected = sum(
            tiny_bundle.scores[d]
            for e in events
            for d in e.domains
            if d in tiny_bundle.scores
        )
        total, count = index.scored(author)
        assert total == pytest.approx(expected, abs=1e-12)
        assert count == sum(
            1 for e in events for d in e.domains if d in tiny_bundle.scores
        )
        assert index.n_events[index.id[author]] == len(events)
