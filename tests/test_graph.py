import math
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ev, from_events, graphs_of, make_bundle, rt
from echoscope.errors import EchoscopeError
from echoscope.graph import (
    CACHE_MAGIC,
    OVERLAP_ACCOUNT,
    OVERLAP_CONTENT,
    build_follower_graph,
    build_retweet_graph,
    count_matrix,
    fraction_friends_retweeted,
    left_sum,
    load_graph_cache,
    overlap_vs_threshold,
    random_friend_positions_reps,
    retweet_overlap,
    sample_friends_by_indegree,
    sample_random_friend_subset,
    save_graph_cache,
    user_space,
)
from echoscope.ingest import FollowEdgeList
from echoscope.oracle import oracle_metrics
from echoscope.rng import substream
from echoscope.synth import SynthConfig, generate


# ---------------------------------------------------------------- CSR


def dense_of(m):
    out = np.zeros(m.shape, dtype=m.data.dtype)
    out[m.entry_rows(), m.indices] = m.data
    return out


def matrix_of(pairs, shape=(6, 8)):
    rows, cols = (np.array([pair[i] for pair in pairs], dtype=np.int64) for i in (0, 1))
    return rows, cols, count_matrix(rows, cols, shape)


PAIRS = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 7)), max_size=40)


@given(PAIRS, PAIRS, st.lists(st.floats(-1e3, 1e3), min_size=8, max_size=8),
       st.lists(st.integers(-1, 2), min_size=8, max_size=8))
@settings(max_examples=300, deadline=None)
def test_csr_operations_match_scipy_and_dense_arithmetic(pairs, other_pairs, x, labels):
    # scipy is the reference: count_matrix builds the arrays scipy's
    # csr_matrix holds after sum_duplicates, so graphs.cache keeps its bytes,
    # and a product adds each row's terms in the order scipy's csr_matvec does
    from scipy import sparse

    rows, cols, m = matrix_of(pairs)
    ref = sparse.csr_matrix((np.ones(rows.size, dtype=np.int64), (rows, cols)), shape=m.shape)
    ref.sum_duplicates()
    for mine, theirs in ((m.indptr, ref.indptr), (m.indices, ref.indices), (m.data, ref.data)):
        assert mine.tolist() == theirs.tolist()
    assert (m @ np.array(x)).tolist() == (ref @ np.array(x)).tolist()

    counts = np.zeros((6, 3), dtype=np.int64)
    for r, c in set(pairs):
        if labels[c] >= 0:
            counts[r, labels[c]] += 1
    assert m.label_counts(np.array(labels), 3).tolist() == counts.tolist()

    both = m.multiply(matrix_of(other_pairs)[2])
    ref_both = ref.multiply(sparse.csr_matrix(dense_of(matrix_of(other_pairs)[2]))).tocsr()
    for mine, theirs in ((both.indptr, ref_both.indptr), (both.indices, ref_both.indices),
                         (both.data, ref_both.data)):
        assert mine.tolist() == theirs.tolist()


def test_count_matrix_frees_its_temporaries():
    # above its inputs the build holds the sorted keys, the run starts and
    # the result, each freed once used: about three int64 words per pair
    # when the pairs are distinct, and never more than 4.5
    rng = np.random.default_rng(5)
    n_pairs, shape = 1_000_000, (10_000, 1_000_000)
    rows = rng.integers(0, shape[0], size=n_pairs)
    cols = rng.integers(0, shape[1], size=n_pairs)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        m = count_matrix(rows, cols, shape)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert m.data.sum() == n_pairs and m.indices.size > 0.99 * n_pairs
    assert peak <= 4.5 * 8 * n_pairs, f"{peak / (8 * n_pairs):.2f} int64 words per pair"


def edges_of(pairs):
    return FollowEdgeList.from_pairs(pairs)


def log_of(events):
    return from_events(events)


def graphs(pairs, events, seeds):
    """Follower and retweet graphs over one shared id space."""
    space = user_space(seeds, edges_of(pairs), log_of(events))
    return build_follower_graph(space), build_retweet_graph(space)


def follower_graph(pairs, seeds):
    return graphs(pairs, [], seeds)[0]


def retweet_graph(events, seeds):
    return graphs([], events, seeds)[1]


def indegrees(graph):
    """User -> indegree, for users with a nonzero one."""
    return {name: d for name, d in zip(graph.names, graph.indegree().tolist()) if d}


def weights_of(rg):
    """Seed -> {retweeted account: count}, for seeds that retweeted anyone."""
    m = rg.retweets
    out = {}
    for row, seed in enumerate(rg.seeds):
        lo, hi = m.indptr[row], m.indptr[row + 1]
        if hi > lo:
            cols, counts = m.indices[lo:hi].tolist(), m.data[lo:hi].tolist()
            out[seed] = {rg.names[c]: w for c, w in zip(cols, counts)}
    return out


# ---------------------------------------------------------------- builders


def test_follower_graph_restricted_to_seeds():
    fg = follower_graph([("s1", "a"), ("s1", "b"), ("x", "a")], {"s1"})
    assert fg.seeds == ["s1"]
    assert fg.friends("s1") == frozenset({"a", "b"})
    assert fg.friends("x") == frozenset()
    assert indegrees(fg) == {"a": 1, "b": 1}  # the x->a edge is outside the sample


def test_seed_without_edges_still_present():
    fg = follower_graph([("s1", "a")], {"s1", "s2"})
    assert fg.seeds == ["s1", "s2"]
    assert fg.friends("s2") == frozenset()


def test_user_space_numbers_every_named_user():
    pairs = [("s1", "a"), ("x", "b"), ("s2", "s1")]
    events = [
        ev("c", 1),
        rt("s1", 2, "a"),
        rt("y", 3, "ghost"),  # an account only a non-seed retweeted
        rt("x", 4, "ghost"),
    ]
    seeds = {"s1", "s2", "lonely"}
    edges, log = edges_of(pairs), log_of(events)
    space = user_space(seeds, edges, log)
    assert space.names == sorted(seeds | set(edges.names) | set(log.users))
    fg, rg = build_follower_graph(space), build_retweet_graph(space)
    assert fg.names == rg.names == space.names
    ghost = space.names.index("ghost")
    assert ghost not in fg.follow.indices and ghost not in rg.retweets.indices
    assert weights_of(rg) == {"s1": {"a": 1}}
    assert indegrees(fg) == {"a": 1, "s1": 1}  # the x->b edge is outside the sample


def test_empty_seed_set_rejected():
    with pytest.raises(EchoscopeError, match="empty"):
        user_space(set(), edges_of([("a", "b")]), log_of([]))


def test_retweet_weights_count_interactions():
    log = log_of(
        [rt("s", i, "A") for i in range(3)] + [rt("s", 9, "B")]
    )
    rg = build_retweet_graph(user_space({"s"}, edges_of([]), log))
    assert weights_of(rg) == {"s": {"A": 3, "B": 1}}
    assert indegrees(rg) == {"A": 3, "B": 1}
    assert rg.retweet_friends("s", 1) == frozenset({"A", "B"})
    assert rg.retweet_friends("s", 2) == frozenset({"A"})
    at_two = rg.at_least(2)
    assert [rg.names[c] for c in at_two.indices.tolist()] == ["A"]
    assert at_two.data.tolist() == [1]


def test_non_seed_retweets_ignored():
    rg = retweet_graph([rt("x", 1, "A")], {"s"})
    assert weights_of(rg) == {}
    assert rg.retweet_friends("s") == frozenset()


def test_threshold_nesting_property():
    rng = substream(11, "nesting")
    users = [f"u{i}" for i in range(6)]
    events = []
    for i in range(400):
        a, b = rng.choice(6, size=2, replace=False)
        events.append(rt(users[a], int(rng.integers(0, 1000)), users[b]))
    rg = retweet_graph(events, set(users))
    for k in range(1, 10):
        for user in users:
            assert rg.retweet_friends(user, k + 1) <= rg.retweet_friends(user, k)
        upper, lower = rg.at_least(k + 1), rg.at_least(k)
        assert upper.multiply(lower) == upper


def test_weight_equals_brute_force_recount():
    rng = substream(12, "recount")
    users = [f"u{i}" for i in range(8)]
    events = []
    for i in range(1000):
        a, b = rng.choice(8, size=2, replace=False)
        events.append(rt(users[a], int(rng.integers(0, 50)), users[b]))
    seeds = set(users[:5])
    rg = retweet_graph(events, seeds)
    for u in seeds:
        for v in set(e.original_author for e in events if e.author == u):
            expected = sum(
                1 for e in events if e.author == u and e.original_author == v
            )
            assert weights_of(rg).get(u, {}).get(v, 0) == expected
            assert v in rg.retweet_friends(u, expected)
            assert v not in rg.retweet_friends(u, expected + 1)


def test_rebuilds_are_identical():
    pairs = [("s1", "a"), ("s1", "b"), ("s2", "a")]
    events = [rt("s1", 1, "a"), rt("s2", 2, "b")]
    fg1, rg1 = graphs(pairs, events, {"s1", "s2"})
    fg2, rg2 = graphs(pairs, events, {"s1", "s2"})
    assert fg1 == fg2
    assert rg1 == rg2


# ---------------------------------------------------------------- overlaps


FIXTURE_EDGES = [("s", f"f{i}") for i in range(10)]


def fixture_graphs():
    # f0 retweeted twice (followed), ghost retweeted once (not followed)
    events = [rt("s", 1, "f0"), rt("s", 2, "f0"), rt("s", 3, "ghost")]
    return graphs(FIXTURE_EDGES, events, {"s"})


def test_fraction_friends_retweeted_examples():
    fg, rg = fixture_graphs()
    assert fraction_friends_retweeted(fg, rg, 1).tolist() == [0.1]
    # nothing retweeted at all
    fg_quiet, rg_empty = graphs(FIXTURE_EDGES, [], {"s"})
    assert fraction_friends_retweeted(fg_quiet, rg_empty, 1).tolist() == [0.0]
    # a seed with no friends is undefined
    fg2, rg2 = graphs(FIXTURE_EDGES, [rt("nobody", 1, "f0")], {"s", "nobody"})
    assert fg2.seeds == ["nobody", "s"]
    frac = fraction_friends_retweeted(fg2, rg2, 1)
    assert np.isnan(frac[0]) and frac[1] == 0.0


def test_overlap_modes_and_threshold_example():
    fg, rg = fixture_graphs()
    # k=1: retweet friends {f0, ghost} -> half followed; k=2: {f0} only
    assert retweet_overlap(fg, rg, 1, OVERLAP_ACCOUNT).tolist() == [0.5]
    assert retweet_overlap(fg, rg, 2, OVERLAP_ACCOUNT).tolist() == [1.0]
    # content mode: 2 of 3 retweet events point at a followed account
    assert retweet_overlap(fg, rg, 1, OVERLAP_CONTENT)[0] == pytest.approx(2 / 3)
    assert retweet_overlap(fg, rg, 2, OVERLAP_CONTENT).tolist() == [1.0]
    # no retweet friends at k=3
    assert np.isnan(retweet_overlap(fg, rg, 3, OVERLAP_ACCOUNT)).all()
    with pytest.raises(EchoscopeError, match="overlap mode"):
        retweet_overlap(fg, rg, 1, "sideways")


def test_overlap_all_or_none():
    pairs = [("s", "a"), ("s", "b")]
    fg, rg_all = graphs(pairs, [rt("s", 1, "a"), rt("s", 2, "b")], {"s"})
    for mode in (OVERLAP_ACCOUNT, OVERLAP_CONTENT):
        assert retweet_overlap(fg, rg_all, 1, mode).tolist() == [1.0]
    fg, rg_none = graphs(pairs, [rt("s", 1, "x")], {"s"})
    for mode in (OVERLAP_ACCOUNT, OVERLAP_CONTENT):
        assert retweet_overlap(fg, rg_none, 1, mode).tolist() == [0.0]


def test_overlap_curve_constant_when_single_followed_target():
    fg, rg = graphs([("s", "a")], [rt("s", i, "a") for i in range(10)], {"s"})
    points = overlap_vs_threshold(fg, rg, range(1, 11), OVERLAP_ACCOUNT)
    assert points == [(k, 1.0, 1) for k in range(1, 11)]


def test_overlap_curve_forced_step():
    fg, rg = fixture_graphs()
    assert overlap_vs_threshold(fg, rg, [1, 2], OVERLAP_ACCOUNT) == [(1, 0.5, 1), (2, 1.0, 1)]
    # k where no user qualifies gets an empty point
    ((k, mean, n_users),) = overlap_vs_threshold(fg, rg, [5], OVERLAP_ACCOUNT)
    assert k == 5 and np.isnan(mean) and n_users == 0


def test_overlap_curve_matches_oracle_at_every_threshold():
    bundle, _ = generate(
        SynthConfig(
            n_users=60, n_domains=10, follow_homophily=0.3, base_follow_prob=0.15,
            attention_bias=3.0, activity_rate=2.0, retweet_rate=6.0, duration=10_000, seed=5,
        )
    )
    # synth retweets followed accounts only; unfollowing a third of them
    # leaves overlaps between 0 and 1
    edges = [edge for i, edge in enumerate(bundle.edges.iter_edges()) if i % 3]
    bundle = make_bundle(bundle.scores, edges, bundle.log.events, bundle.seeds)
    fg, rg = graphs_of(bundle)
    k_top = int(rg.retweets.data.max()) + 1
    assert k_top > 3
    for mode in (OVERLAP_ACCOUNT, OVERLAP_CONTENT):
        points = overlap_vs_threshold(fg, rg, range(k_top, 0, -1), mode)
        assert [k for k, _, _ in points] == list(range(1, k_top + 1))
        for k, mean, n_users in points:
            oracle = oracle_metrics(bundle, k)
            per_seed = oracle["overlap_" + mode]
            assert n_users == oracle["overlap_curve_n"][mode] == len(per_seed)
            if n_users:
                # the oracle's own overlaps, added left to right in seed order
                values = [per_seed[seed] for seed in sorted(per_seed)]
                assert mean == left_sum(values) / len(values)
                assert mean == pytest.approx(oracle["overlap_curve_mean"][mode], rel=1e-12)
            else:
                assert math.isnan(mean) and mode not in oracle["overlap_curve_mean"]
        assert any(0 < mean < 1 for _, mean, _ in points)
    assert n_users == 0 and k == k_top


def test_left_sum_adds_left_to_right():
    # the exact sum is 1.0, but 1e16 + 1.0 rounds back to 1e16 when added in order
    values = [1e16, 1.0, -1e16]
    assert left_sum(values) == 0.0
    assert math.fsum(values) == 1.0
    assert left_sum([1.0, -1e16, 1e16]) == 0.0
    assert left_sum([-1e16, 1e16, 1.0]) == 1.0
    assert left_sum([2, 3]) == 5 and isinstance(left_sum([2, 3]), int)
    assert left_sum([]) == 0


# ---------------------------------------------------------------- sampling


def test_indegree_proportional_sampling_ratio():
    fg = follower_graph([("s1", "a"), ("s2", "a"), ("s3", "a"), ("s1", "b")], {"s1", "s2", "s3"})
    assert indegrees(fg) == {"a": 3, "b": 1}
    draws = [fg.names[i] for i in sample_friends_by_indegree(fg, 400_000, substream(5, "indeg"))]
    frac_a = draws.count("a") / len(draws)
    assert abs(frac_a - 0.75) < 0.01  # law of large numbers at n = 4e5


def test_indegree_sampling_single_target_and_errors():
    fg = follower_graph([("s1", "a")], {"s1"})
    drawn = sample_friends_by_indegree(fg, 50, substream(5, "one"))
    assert {fg.names[i] for i in drawn.tolist()} == {"a"}
    with pytest.raises(EchoscopeError, match=">= 1"):
        sample_friends_by_indegree(fg, 0, substream(5, "zero"))
    empty = follower_graph([("s1", "a")], {"zz"})
    with pytest.raises(EchoscopeError, match="indegree"):
        sample_friends_by_indegree(empty, 5, substream(5, "none"))


def test_friend_subset_edges_and_uniformity(caplog):
    fg = follower_graph([("s", f"f{i}") for i in range(5)], {"s"})
    rng = substream(9, "subset")
    assert sample_random_friend_subset("s", fg, 5, rng) == fg.friends("s")
    assert sample_random_friend_subset("s", fg, 0, rng) == frozenset()
    with caplog.at_level("WARNING"):
        clamped = sample_random_friend_subset("s", fg, 9, rng)
    assert clamped == fg.friends("s")
    assert "clamping" in caplog.text

    counts = {f"f{i}": 0 for i in range(5)}
    reps = 100_000
    for _ in range(reps):
        for friend in sample_random_friend_subset("s", fg, 2, rng):
            counts[friend] += 1
    for friend, count in counts.items():
        assert abs(count / reps - 0.4) < 0.01


def choice_rows(n, size, reps, rng):
    """The specification: reps consecutive Generator.choice draws, one row each."""
    return np.array([rng.choice(n, size, replace=False) for _ in range(reps)]).reshape(reps, size)


def assert_same_stream(a, b):
    """Both generators are in one state: the spare 32-bit half included."""
    np.testing.assert_equal(a.bit_generator.state, b.bit_generator.state)
    assert a.integers(0, 1000, dtype=np.uint32) == b.integers(0, 1000, dtype=np.uint32)
    assert a.random() == b.random()


def skipped(key, skip):
    """A substream after skip 32-bit draws, so an odd skip leaves a spare half."""
    rng = substream(key, "choice-replay")
    for _ in range(skip):
        rng.integers(0, 5, dtype=np.uint32)
    return rng


@st.composite
def choice_cases(draw):
    n = draw(st.integers(2, 20_000))
    # small subsets are replayed; any size reaches numpy's tail-shuffle branch
    size = draw(st.one_of(st.integers(1, min(n - 1, 40)), st.integers(1, n - 1)))
    return n, size, draw(st.integers(1, 40)), draw(st.integers(0, 2**32)), draw(st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(choice_cases())
def test_positions_reps_replays_choice(case):
    n, size, reps, key, skip = case
    want_rng, got_rng = skipped(key, skip), skipped(key, skip)
    want = choice_rows(n, size, reps, want_rng)
    got = random_friend_positions_reps("u", n, size, reps, got_rng)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    assert_same_stream(got_rng, want_rng)


class ChoiceCounter(np.random.Generator):
    """A Generator on a given bit generator that counts its choice calls."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.choice_calls = 0

    def choice(self, *args, **kwargs):
        self.choice_calls += 1
        return super().choice(*args, **kwargs)


def test_positions_reps_replay_makes_no_choice_call():
    want_rng, got_rng = skipped(3, 0), ChoiceCounter(skipped(3, 0).bit_generator)
    want = choice_rows(50, 5, 100, want_rng)
    np.testing.assert_array_equal(random_friend_positions_reps("u", 50, 5, 100, got_rng), want)
    assert got_rng.choice_calls == 0
    assert_same_stream(got_rng, want_rng)


@pytest.mark.parametrize("n, size", [(10, 4), (100, 7), (9, 1), (40, 32)])
def test_positions_reps_falls_back_on_lemire_rejection(n, size):
    # a spare half of 0 scales to a low word of 0, below 2**32 % (n - size + 1)
    # for every bound that is not a power of two, so the first draw is rejected
    want_rng, got_rng = skipped(5, 0), ChoiceCounter(skipped(5, 0).bit_generator)
    for rng in (want_rng, got_rng):
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, 0
        rng.bit_generator.state = state
    want = choice_rows(n, size, 50, want_rng)
    np.testing.assert_array_equal(random_friend_positions_reps("u", n, size, 50, got_rng), want)
    assert got_rng.choice_calls == 50
    assert_same_stream(got_rng, want_rng)


def test_positions_reps_odd_draw_count_keeps_the_spare_half():
    # 33 repetitions of 2 * 4 - 1 draws read 116 words and use one half of the last
    want_rng, got_rng = skipped(8, 0), ChoiceCounter(skipped(8, 0).bit_generator)
    want = choice_rows(30, 4, 33, want_rng)
    np.testing.assert_array_equal(random_friend_positions_reps("u", 30, 4, 33, got_rng), want)
    assert got_rng.choice_calls == 0
    assert got_rng.bit_generator.state["has_uint32"] == 1
    assert_same_stream(got_rng, want_rng)


def test_positions_reps_edges(caplog):
    # drawing every friend, none, or a size clamped to every friend draws nothing
    rng, untouched = substream(9, "edges"), substream(9, "edges")
    every = np.tile(np.arange(4), (3, 1))
    with caplog.at_level("WARNING"):
        clamped = random_friend_positions_reps("s", 4, 6, 3, rng)
    np.testing.assert_array_equal(clamped, every)
    assert sum("clamping" in r.getMessage() for r in caplog.records) == 1
    whole = random_friend_positions_reps("s", 4, 4, 3, rng)
    np.testing.assert_array_equal(whole, every)
    assert clamped.dtype == whole.dtype == np.int64
    assert random_friend_positions_reps("s", 4, 0, 3, rng).shape == (3, 0)
    assert_same_stream(rng, untouched)
    assert random_friend_positions_reps("s", 4, 2, 0, rng).shape == (0, 2)


# ---------------------------------------------------------------- cache


def test_cache_round_trip(tmp_path, tiny_bundle):
    fg, rg = graphs_of(tiny_bundle)
    path = tmp_path / "graphs.cache"
    save_graph_cache(str(path), fg, rg, b"fingerprint-1")
    loaded = load_graph_cache(str(path), b"fingerprint-1")
    assert loaded is not None
    fg2, rg2 = loaded
    assert fg2 == fg
    assert rg2 == rg
    for seed in fg.seeds:
        assert fg2.friends(seed) == fg.friends(seed)
        assert rg2.retweet_friends(seed) == rg.retweet_friends(seed)
    assert np.array_equal(fg2.indegree(), fg.indegree())
    assert np.array_equal(rg2.indegree(), rg.indegree())
    # cache writes are deterministic
    save_graph_cache(str(tmp_path / "again.cache"), fg, rg, b"fingerprint-1")
    assert (tmp_path / "again.cache").read_bytes() == path.read_bytes()


def test_cache_fingerprint_mismatch_and_garbage(tmp_path, tiny_bundle):
    fg, rg = graphs_of(tiny_bundle)
    path = tmp_path / "graphs.cache"
    save_graph_cache(str(path), fg, rg, b"fp-a")
    assert load_graph_cache(str(path), b"fp-b") is None
    assert load_graph_cache(str(tmp_path / "missing.cache"), b"fp-a") is None
    (tmp_path / "junk.cache").write_bytes(b"NOTACACHE")
    assert load_graph_cache(str(tmp_path / "junk.cache"), b"fp-a") is None


def test_cache_version_1_reads_as_miss(tmp_path, tiny_bundle):
    path = tmp_path / "graphs.cache"
    save_graph_cache(str(path), *graphs_of(tiny_bundle), b"fp")
    data = bytearray(path.read_bytes())
    assert load_graph_cache(str(path), b"fp") is not None
    # version 2 numbered a narrower id space, so its files read as a miss too
    for version in (1, 2):
        data[8:12] = struct.pack("<I", version)
        path.write_bytes(bytes(data))
        assert load_graph_cache(str(path), b"fp") is None
    # a version-1 header followed by the old per-seed records
    old = CACHE_MAGIC + struct.pack("<II", 1, 2) + b"fp" + struct.pack("<I", 0) * 4
    path.write_bytes(old)
    assert load_graph_cache(str(path), b"fp") is None


# ---------------------------------------------------------------- scaling


@pytest.mark.parametrize("sizes", [(10_000, 100_000, 1_000_000)])
def test_follower_build_scales_linearly(sizes):
    rng = np.random.default_rng(3)
    times = []
    for n_edges in sizes:
        n_users = max(1000, n_edges // 20)
        src = rng.integers(0, 1000, size=n_edges)  # seeds in the first 1000 ids
        dst = rng.integers(0, n_users, size=n_edges)
        names = [f"u{i}" for i in range(n_users)]
        packed = (src.astype(np.uint64) << np.uint64(32)) | dst.astype(np.uint64)
        unique = np.unique(packed)
        edges = FollowEdgeList(
            names,
            (unique >> np.uint64(32)).astype(np.int64),
            (unique & np.uint64(0xFFFFFFFF)).astype(np.int64),
        )
        seeds = set(names[:1000])
        t0 = time.perf_counter()
        fg = build_follower_graph(user_space(seeds, edges, log_of([])))
        times.append(time.perf_counter() - t0)
        assert len(fg.seeds) == 1000
    # generous linearity bounds: each 10x size step may cost at most 40x
    assert times[2] < 40 * max(times[1], 0.005)
    assert times[1] < 40 * max(times[0], 0.005)
    assert times[2] < 30.0
