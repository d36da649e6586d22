"""Engine-vs-oracle equivalence on small bundles, plus the negative control."""
import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import ev, make_bundle, rt
from echoscope.graph import build_follower_graph, build_retweet_graph, user_space
from echoscope.ingest import EventLog
import echoscope.moderacy as moderacy
from echoscope.moderacy import HARDLINER, MODERATE, MetricsEngine
from echoscope.oracle import compare_with_oracle, oracle_metrics
from echoscope.report import RunConfig, build_report, write_report
from echoscope.synth import SynthConfig, generate


def synth_bundle(seed, **overrides):
    base = dict(
        n_users=25,
        n_domains=15,
        follow_homophily=0.3,
        base_follow_prob=0.3,
        attention_bias=2.0,
        activity_rate=6.0,
        retweet_rate=4.0,
        duration=40_000,
        seed=seed,
    )
    base.update(overrides)
    bundle, _ = generate(SynthConfig(**base))
    return bundle


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2])
def test_engine_matches_oracle(seed, k):
    diff = compare_with_oracle(synth_bundle(seed), k=k)
    assert diff.ok(1e-12), diff
    assert diff.n_compared > 0


def test_engine_matches_oracle_unique_domains():
    diff = compare_with_oracle(synth_bundle(7), k=1, unique_domains=True)
    assert diff.ok(1e-12), diff


def off_grid(bundle):
    """The bundle with every third domain's score, in name order, moved off
    the 0.25 grid to 0.05 + 0.9 * score, so that its sums round."""
    scores = {
        domain: 0.05 + 0.9 * score if i % 3 == 2 else score
        for i, (domain, score) in enumerate(sorted(bundle.scores.items()))
    }
    return dataclasses.replace(bundle, scores=scores)


def engine_means(bundle, unique_domains):
    """The engine's mu, m_s, m_e_f and m_e_r at k=1, each a map from name
    with undefined values left out, as the oracle gives them."""
    space = user_space(bundle.seeds, bundle.edges, bundle.log)
    engine = MetricsEngine(
        bundle, build_follower_graph(space), build_retweet_graph(space), unique_domains
    )
    metrics = engine.metrics_at(1)
    vectors = {"mu": engine.mu, "m_s": engine.m_s, "m_e_f": metrics.m_e_f, "m_e_r": metrics.m_e_r}
    return {
        name: {user: v for user, v in zip(engine.names, values.tolist()) if v == v}
        for name, values in vectors.items()
    }


@pytest.mark.parametrize("unique_domains", [False, True])
@pytest.mark.parametrize("seed", [1, 2])
def test_oracle_means_equal_the_engine_exactly_off_the_grid(seed, unique_domains):
    # compared map by map: OracleDiff.ok takes one tolerance over every
    # metric, entropies and correlations included
    bundle = off_grid(synth_bundle(seed))
    oracle = oracle_metrics(bundle, unique_domains=unique_domains)
    for name, values in engine_means(bundle, unique_domains).items():
        assert values == oracle[name], name


def test_engine_matches_oracle_with_window():
    bundle = synth_bundle(9)
    early = dataclasses.replace(bundle, log=bundle.log.restricted((0, 20_000)))
    assert 0 < len(early.log) < len(bundle.log)
    diff = compare_with_oracle(early, k=1)
    assert diff.ok(1e-12), diff


def test_engine_matches_oracle_handmade_edge_cases():
    # unscored seeds, dangling retweets, friendless users, empty domains
    bundle = make_bundle(
        {"a.x": 0.0, "m.x": 0.5, "r.x": 1.0},
        [("s1", "f1"), ("s1", "f2"), ("s2", "f1"), ("f1", "s1")],
        [
            ev("t1", "s1", 1, domains=["a.x", "m.x"]),
            ev("t2", "f1", 2, domains=["r.x"]),
            ev("t3", "f2", 3, domains=[]),
            rt("t4", "s1", 4, "f1"),
            rt("t5", "s1", 5, "ghost"),
            rt("t6", "s2", 6, "f1", domains=["r.x"]),
            ev("t7", "s2", 7, domains=["unscored.x"]),
        ],
    )
    diff = compare_with_oracle(bundle, k=1)
    assert diff.ok(1e-12), diff


def test_empty_bundle_passes_vacuously():
    bundle = make_bundle({"a.x": 0.5}, [], [], seeds=set())
    diff = compare_with_oracle(bundle, k=1)
    assert diff.ok(1e-12)
    assert diff.n_compared == 0


def test_empty_log_only_structural_metrics_compared():
    bundle = make_bundle({"a.x": 0.5}, [("s1", "f1")], [])
    diff = compare_with_oracle(bundle, k=1)
    assert diff.ok(1e-12)
    # with no events only structure is defined: the friends-retweeted
    # fraction (0.0), f1's activity (0) and retweeted flag (no), and the
    # size (0) of each overlap-curve point
    assert diff.n_compared == 5


def mean_or_none(values):
    """Left-to-right mean of a plain list; None when it is empty."""
    return sum(values) / len(values) if values else None


def assert_close(got, want):
    if want is None:
        assert got is None
    else:
        assert got == pytest.approx(want, rel=0, abs=1e-12)


@pytest.mark.parametrize("unique_domains", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_report_means_match_oracle(seed, unique_domains, tmp_path):
    # the report-level means, recomputed with plain loops over the oracle's
    # per-seed (and per-friend) values, against the written report.json
    bundle = synth_bundle(seed, n_users=40, base_follow_prob=0.2, activity_rate=4.0)
    cfg = RunConfig(
        scores="unused", edges="unused", events="unused", out_dir=str(tmp_path),
        k_max=1, reps=5, unique_domains=unique_domains,
    )
    write_report(build_report(bundle, cfg), cfg.out_dir)
    report = json.loads((tmp_path / "report.json").read_text())
    oracle = oracle_metrics(bundle, k=1, n_bins=cfg.entropy_bins, unique_domains=unique_domains)
    seeds = sorted(bundle.seeds)
    classes = (MODERATE, HARDLINER)
    n_defined = 0

    for kind, frac_mod, frac_hard in (
        ("follower", oracle["frac_moderate_f"], oracle["frac_hardline_f"]),
        ("retweet", oracle["frac_moderate_r"], oracle["frac_hardline_r"]),
    ):
        for cls in classes:
            block = report["class_fractions"][kind][cls]
            users = [u for u in seeds if oracle["moderacy_class"].get(u) == cls and u in frac_mod]
            assert block["n_users"] == len(users)
            assert_close(block["frac_moderate"], mean_or_none([frac_mod[u] for u in users]))
            assert_close(block["frac_hardline"], mean_or_none([frac_hard[u] for u in users]))
            n_defined += len(users)

    entropy = report["entropy"]
    users = [u for u in seeds if u in oracle["entropy_f"]]
    assert entropy["n_users"] == len(users)
    assert entropy["n_skipped"] == len(seeds) - len(users)
    assert_close(entropy["mean_follower"], mean_or_none([oracle["entropy_f"][u] for u in users]))
    assert_close(entropy["mean_retweet"], mean_or_none([oracle["entropy_r"][u] for u in users]))
    n_defined += len(users)

    activity = report["activity"]
    friends = sorted(oracle["activity"])
    retweeted = [f for f in friends if oracle["activity_retweeted"][f]]
    not_retweeted = [f for f in friends if not oracle["activity_retweeted"][f]]
    assert activity["n_retweeted"] == len(retweeted)
    assert activity["n_not_retweeted"] == len(not_retweeted)
    assert_close(
        activity["mean_activity_retweeted"], mean_or_none([oracle["activity"][f] for f in retweeted])
    )
    assert_close(
        activity["mean_activity_not_retweeted"],
        mean_or_none([oracle["activity"][f] for f in not_retweeted]),
    )
    for cls in classes:
        acts = [oracle["activity"][f] for f in retweeted if oracle["activity_class"].get(f) == cls]
        assert activity["by_class"][cls]["n"] == len(acts)
        assert_close(activity["by_class"][cls]["mean_activity"], mean_or_none(acts))
    n_defined += len(friends)

    for cls in classes:
        block = report["congruence"][cls]
        users = [
            u for u in seeds if u in oracle["congruence_diff"] and oracle["moderacy_class"][u] == cls
        ]
        assert block["n"] == len(users)
        assert_close(block["mean_diff"], mean_or_none([oracle["congruence_diff"][u] for u in users]))
        if users:
            assert_close(
                block["mean_frac_retweeted"],
                mean_or_none([oracle["frac_congruent_retweeted"][u] for u in users]),
            )
            assert_close(
                block["mean_frac_not_retweeted"],
                mean_or_none([oracle["frac_congruent_not_retweeted"][u] for u in users]),
            )
        n_defined += len(users)
    assert n_defined > 0


def first_column(path):
    """A written CSV's first column, header left out."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [row[0] for row in list(csv.reader(fh))[1:]]


@pytest.mark.parametrize("unique_domains", [False, True])
@pytest.mark.parametrize("seed", [1, 5])
def test_report_row_sets_match_oracle(seed, unique_domains, tmp_path):
    # a strict seed subset, and non-seeds retweeting accounts no seed follows:
    # those accounts have ids in the report but no row in any table
    bundle = synth_bundle(seed, n_users=30, base_follow_prob=0.2)
    users = sorted(bundle.seeds)
    extra = [rt(f"x{i}", u, 10 + i, f"outsider{i % 3}") for i, u in enumerate(users[1::2])]
    log = EventLog.from_events(list(bundle.log.events) + extra)
    bundle = dataclasses.replace(bundle, log=log, seeds=frozenset(users[::2]))
    followed = {friend for seed, friend in bundle.edges.iter_edges() if seed in bundle.seeds}
    assert not followed & {"outsider0", "outsider1", "outsider2"}
    cfg = RunConfig(
        scores="unused", edges="unused", events="unused", out_dir=str(tmp_path),
        k_max=1, reps=5, unique_domains=unique_domains,
    )
    write_report(build_report(bundle, cfg), cfg.out_dir)
    oracle = oracle_metrics(bundle, k=1, n_bins=cfg.entropy_bins, unique_domains=unique_domains)
    expected = {
        "user_metrics.csv": set(oracle["mu"]) | set(oracle["m_e_f"]) | set(oracle["m_e_r"]),
        "delta_vs_ms_k1.csv": set(oracle["delta"]),
        "entropy.csv": set(oracle["entropy_f"]),
        "congruence.csv": set(oracle["congruence_diff"]),
        "overlap_user_k1.csv": (
            set(oracle["frac_friends_retweeted"])
            | set(oracle["overlap_account"])
            | set(oracle["overlap_content"])
        ),
        "activity.csv": set(oracle["activity"]),
    }
    for name, keys in expected.items():
        assert keys, name
        assert first_column(tmp_path / name) == sorted(keys), name


def test_corrupted_engine_fails_with_named_metric(monkeypatch):
    # negative control: sabotage the fold and the diff must name a culprit
    monkeypatch.setattr(moderacy, "fold", lambda mu: min(mu + 0.01, 1.0))
    diff = compare_with_oracle(synth_bundle(4), k=1)
    assert not diff.ok(1e-12)
    assert diff.worst_metric != "none" or diff.presence_mismatches


# prints a digest of every oracle value, each as its repr, in both pooling
# modes; scores off the five-level scale, whose sums depend on their order
ORACLE_DIGEST = """
import dataclasses, hashlib, json
from echoscope.oracle import oracle_metrics
from echoscope.synth import SynthConfig, generate
bundle, _ = generate(SynthConfig(
    n_users=120, n_domains=30, follow_homophily=0.3, base_follow_prob=0.08,
    attention_bias=2.0, activity_rate=8, retweet_rate=6, duration=100_000, seed=5,
))
domains = sorted(bundle.scores)
table = {d: (i * 0.37) % 1.0 for i, d in enumerate(domains)}
bundle = dataclasses.replace(bundle, scores=table)
maps = [oracle_metrics(bundle, unique_domains=u, max_events=5000) for u in (False, True)]
text = json.dumps([{n: {k: repr(v) for k, v in m.items()} for n, m in ms.items()} for ms in maps],
                  sort_keys=True)
print(hashlib.sha256(text.encode()).hexdigest())
"""


def test_oracle_values_do_not_depend_on_hash_seed():
    # the oracle adds over sets; in hash order its entropies and set-of-domains
    # means moved by an ulp from one interpreter to the next
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = set()
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", ORACLE_DIGEST], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        digests.add(result.stdout.strip())
    assert len(digests) == 1, digests


# Scores on the five-level scale add exactly, so engine and oracle agree to
# the last bit whatever order they pool in, and a degenerate (constant)
# range is degenerate on both sides.
LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)
DOMAINS = ("a.x", "b.x", "c.x")


@st.composite
def adversarial_bundles(draw):
    n_seeds = draw(st.integers(1, 6))
    users = [f"u{i}" for i in range(n_seeds + 3)]
    quiet = "zz-quiet"  # followed, never posts
    if draw(st.booleans()):
        level = draw(st.sampled_from(LEVELS))
        scores = {d: level for d in DOMAINS}
    else:
        scores = {d: draw(st.sampled_from(LEVELS)) for d in DOMAINS}
    seeds = users[:n_seeds]
    edges = []
    for seed in seeds:
        friends = draw(st.lists(st.sampled_from(users[1:] + [quiet]), max_size=4, unique=True))
        edges += [(seed, f) for f in friends if f != seed]
    events = []
    for author in users:
        others = [u for u in users if u != author]
        for _ in range(draw(st.integers(0, 3))):
            tid = f"t{len(events)}"
            ts = draw(st.integers(0, 5))  # narrow range: timestamp ties
            domains = draw(st.lists(st.sampled_from(DOMAINS + ("junk.x",)), max_size=3))
            if draw(st.booleans()):
                events.append(rt(tid, author, ts, draw(st.sampled_from(others)), domains))
            else:
                events.append(ev(tid, author, ts, domains=domains))
    return make_bundle(scores, edges, events, seeds=seeds)


@given(adversarial_bundles(), st.sampled_from([1, 2, 3, 99]), st.booleans())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_engine_matches_oracle_on_adversarial_bundles(bundle, k, unique_domains):
    # covers friendless seeds, friends without events or without a scored
    # domain, constant score tables, and k above every retweet weight
    diff = compare_with_oracle(bundle, k=k, unique_domains=unique_domains)
    assert diff.ok(1e-12), diff
