import hashlib
import math
import statistics

import numpy as np
import pytest

from conftest import ev, graphs_of, make_bundle
from echoscope.errors import EchoscopeError, InfeasibleConfigError, InputFormatError
from echoscope.ingest import validate_dataset, write_domain_scores, write_events, write_follow_edges
from echoscope.moderacy import MetricsEngine
from echoscope.oracle import oracle_metrics
from echoscope.stats import pearson
from echoscope.synth import SLANT_LEVELS, SynthConfig, generate, write_truth


def small_config(**overrides):
    base = dict(
        n_users=30,
        n_domains=12,
        follow_homophily=0.25,
        base_follow_prob=0.25,
        attention_bias=3.0,
        activity_rate=6.0,
        retweet_rate=4.0,
        duration=50_000,
        seed=11,
    )
    base.update(overrides)
    return SynthConfig(**base)


def test_same_seed_same_bundle_and_files(tmp_path):
    b1, t1 = generate(small_config())
    b2, t2 = generate(small_config())
    assert b1.log.events == b2.log.events
    assert b1.edges == b2.edges
    assert b1.scores == b2.scores
    assert t1.ideology == t2.ideology

    for i, bundle in enumerate((b1, b2)):
        write_domain_scores(bundle.scores, str(tmp_path / f"s{i}.csv"))
        write_follow_edges(bundle.edges, str(tmp_path / f"e{i}.csv"))
        write_events(bundle.log, str(tmp_path / f"v{i}.jsonl"))
    for stem in ("s", "e", "v"):
        ext = "csv" if stem != "v" else "jsonl"
        assert (tmp_path / f"{stem}0.{ext}").read_bytes() == (tmp_path / f"{stem}1.{ext}").read_bytes()


def test_different_seeds_differ():
    b1, _ = generate(small_config(seed=1))
    b2, _ = generate(small_config(seed=2))
    assert b1.log.events != b2.log.events


def test_generated_bundles_validate_cleanly():
    for seed in (3, 4, 5):
        bundle, _ = generate(small_config(seed=seed))
        report = validate_dataset(bundle)
        assert report.ok, report.errors
        assert report.n_dangling_retweets == 0


def test_domain_scores_snap_to_levels_and_cover_them():
    bundle, truth = generate(small_config())
    values = set(bundle.scores.values())
    assert values <= set(SLANT_LEVELS)
    assert values == set(SLANT_LEVELS)  # first five domains force coverage
    assert truth.domain_scores == bundle.scores


def test_retweets_point_at_friends_originals():
    bundle, _ = generate(small_config())
    friends = {}
    for follower, friend in bundle.edges.iter_edges():
        friends.setdefault(follower, set()).add(friend)
    originals = {}
    for e in bundle.log.events:
        if not e.is_retweet:
            originals.setdefault(e.author, []).append(e)
    n_retweets = 0
    for e in bundle.log.events:
        if e.is_retweet:
            n_retweets += 1
            assert e.original_author in friends[e.author]
            sources = originals[e.original_author]
            assert any(
                o.timestamp <= e.timestamp and o.domains == e.domains for o in sources
            )
    assert n_retweets > 0


def test_null_model_flag():
    _, truth = generate(small_config(attention_bias=0.0))
    assert truth.null_model
    _, truth = generate(small_config(attention_bias=2.0))
    assert not truth.null_model


def test_truth_sidecar_round_trip(tmp_path):
    import json

    bundle, truth = generate(small_config())
    write_truth(truth, str(tmp_path / "truth.json"))
    loaded = json.loads((tmp_path / "truth.json").read_text())
    assert loaded["null_model"] == truth.null_model
    assert loaded["ideology"] == truth.ideology
    assert loaded["config"]["n_users"] == 30


def test_infeasible_configs():
    with pytest.raises(InfeasibleConfigError):
        generate(small_config(n_users=1))
    with pytest.raises(InfeasibleConfigError):
        generate(small_config(activity_rate=0.0, retweet_rate=2.0))
    with pytest.raises(InfeasibleConfigError):
        SynthConfig(**{**small_config().__dict__, "base_follow_prob": 1.5})
    with pytest.raises(InfeasibleConfigError):
        SynthConfig(**{**small_config().__dict__, "follow_homophily": 0.0})
    with pytest.raises(InfeasibleConfigError):
        SynthConfig(**{**small_config().__dict__, "attention_bias": -1.0})
    # NaN and +-inf in any float field: NaN passes the range checks, and
    # unchecked, NaN weights fail inside numpy, an inf rate overflows the
    # Poisson draw and a NaN length scale silently drops every drawn edge
    for field in ("follow_homophily", "base_follow_prob", "attention_bias",
                  "activity_rate", "retweet_rate"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(InfeasibleConfigError, match=f"{field} must be finite"):
                SynthConfig(**{**small_config().__dict__, field: value})


# sha256 of scores.csv, edges.csv, events.jsonl and truth.json per config
@pytest.mark.parametrize(
    "overrides, digests",
    [
        # n_domains < 5 reroutes empty levels; base_follow_prob 0 sends every
        # user to the nearest-neighbour fallback; 85 retweets are unfillable
        (
            dict(n_users=40, n_domains=3, follow_homophily=0.3, base_follow_prob=0.0,
                 attention_bias=2.0, activity_rate=0.4, retweet_rate=3.0, duration=5, seed=7),
            ("adae1000eeb8c7e9a64c66b4cfeb2cbf0f724c117751bada6eb6be8aa6d5f785",
             "258f475c889cfe59282b395c6ed12abb6e4e3ed24caf139135756e3faeeb3f76",
             "d0895134c464c0e8cbb5168ba18e7f5ea18f53db509280277255bf97fbea220e",
             "85632f121cbb5a817311dfcdf0f495e069f4720bba43037d9fbf1d295bed6d37"),
        ),
        # 418 events tie another on (timestamp, author), so the event order
        # rests on all four keys: timestamp, author, kind and index
        (
            dict(n_users=60, n_domains=12, follow_homophily=0.25, base_follow_prob=0.2,
                 attention_bias=0.0, activity_rate=6.0, retweet_rate=4.0, duration=4, seed=8),
            ("220de51b8a58b27c47c9bfb83c9112c93074a9e935ca80d99d4ad91029eb112d",
             "8d87b376bf201cb27df81f5839de72905d0ed0ec613686d4d7cd5ba268e41349",
             "0c86e452a7132e83c6f1428cd8dee7a9dd78e03838467f135b566fd847eedcc9",
             "6eebb2dfdfbc6e5a53bf5bcd5408ec559018da2e7f03b1ce9dbf5a0e9d505f1b"),
        ),
    ],
    ids=["rerouted-fallback-unfillable", "tied-timestamps"],
)
def test_generated_files_match_pinned_digests(tmp_path, overrides, digests):
    bundle, truth = generate(SynthConfig(**overrides))
    write_domain_scores(bundle.scores, str(tmp_path / "scores.csv"))
    write_follow_edges(bundle.edges, str(tmp_path / "edges.csv"))
    write_events(bundle.log, str(tmp_path / "events.jsonl"))
    write_truth(truth, str(tmp_path / "truth.json"))
    names = ("scores.csv", "edges.csv", "events.jsonl", "truth.json")
    fresh = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names)
    assert fresh == digests


def test_config_file_parsing(tmp_path):
    path = tmp_path / "synth.cfg"
    path.write_text(
        "# synthetic family\n"
        "n_users = 30\nn_domains = 12\nfollow_homophily = 0.25\n"
        "base_follow_prob = 0.25\nattention_bias = 3.0\nactivity_rate = 6.0\n"
        "retweet_rate = 4.0\nduration = 50000\nseed = 11\n"
    )
    assert SynthConfig.from_file(str(path)) == small_config()
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_users = 30\n")
    with pytest.raises(InputFormatError, match="missing"):
        SynthConfig.from_file(str(bad))
    bad2 = tmp_path / "bad2.cfg"
    bad2.write_text("nonsense\n")
    with pytest.raises(InputFormatError, match="key=value"):
        SynthConfig.from_file(str(bad2))
    bad3 = tmp_path / "bad3.cfg"
    bad3.write_text("n_users = lots\n")
    with pytest.raises(InputFormatError, match="bad value"):
        SynthConfig.from_file(str(bad3))


def test_every_seed_has_a_friend_even_at_tiny_follow_prob():
    bundle, _ = generate(small_config(base_follow_prob=0.0001, seed=8))
    fg, _ = graphs_of(bundle)
    assert all(len(fg.friends(seed)) >= 1 for seed in fg.seeds)


# ---------------------------------------------------------------- oracle basics


def test_oracle_guard_rail():
    bundle, _ = generate(small_config(activity_rate=20.0, retweet_rate=20.0))
    with pytest.raises(EchoscopeError, match="guard rail"):
        oracle_metrics(bundle, max_events=10)
    # the refusal reads the log's length, not its per-event view
    assert "events" not in bundle.log.__dict__


def test_oracle_empty_log():
    bundle = make_bundle({"a.example": 0.5}, [("s1", "f1")], [])
    result = oracle_metrics(bundle)
    assert result["mu"] == {}
    assert result["m_e_f"] == {}
    assert result["entropy_f"] == {}


def test_oracle_single_user_bundle():
    bundle = make_bundle(
        {"a.example": 0.25},
        [],
        [ev("t1", "u", 1, domains=["a.example"])],
        seeds={"u"},
    )
    result = oracle_metrics(bundle)
    assert result["mu"] == {"u": 0.25}
    assert result["m_s"] == {"u": 0.5}  # single-user population is degenerate
    assert result["m_e_f"] == {}
    assert result["m_e_r"] == {}


def test_homophily_off_kills_echo_chamber():
    # with an effectively infinite length scale, following ignores ideology
    # and exposure pools are a global mix: no m_s ~ m_e_f correlation
    cfg = SynthConfig(
        n_users=600,
        n_domains=25,
        follow_homophily=1e9,
        base_follow_prob=0.05,
        attention_bias=0.0,
        activity_rate=15.0,
        retweet_rate=10.0,
        duration=200_000,
        seed=77,
    )
    bundle, _ = generate(cfg)
    mset = MetricsEngine(bundle, *graphs_of(bundle)).metrics_at(1)
    m_s = mset.engine.m_s
    paired = ~np.isnan(m_s) & ~np.isnan(mset.m_e_f)
    r = pearson(m_s[paired].tolist(), mset.m_e_f[paired].tolist()).r
    assert abs(r) < 0.15, r


# ---------------------------------------------------------------- attention trend


def test_attention_bias_raises_retweet_follower_correlation_gap():
    """Trend check: the r_retweet - r_follower gap must not shrink as the
    attention kernel sharpens, over betas {0, 1, 3, 5} with 20 seeds each."""

    def gap(beta, seed):
        cfg = SynthConfig(
            n_users=250,
            n_domains=25,
            follow_homophily=0.2,
            base_follow_prob=0.1,
            attention_bias=beta,
            activity_rate=20.0,
            retweet_rate=50.0,
            duration=200_000,
            seed=seed,
        )
        bundle, _ = generate(cfg)
        mset = MetricsEngine(bundle, *graphs_of(bundle)).metrics_at(1)
        paired = ~np.isnan(mset.engine.m_s) & ~np.isnan(mset.delta)
        ms = mset.engine.m_s[paired].tolist()
        return (
            pearson(ms, mset.m_e_r[paired].tolist()).r
            - pearson(ms, mset.m_e_f[paired].tolist()).r
        )

    betas = (0.0, 1.0, 3.0, 5.0)
    mean_gaps = [
        statistics.fmean(gap(beta, 500 + s) for s in range(20)) for beta in betas
    ]
    # regression slope of the mean gap on beta is positive, and the endpoints
    # are ordered: sharper attention widens the echo-chamber gap
    xbar = statistics.fmean(betas)
    ybar = statistics.fmean(mean_gaps)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(betas, mean_gaps)) / sum(
        (x - xbar) ** 2 for x in betas
    )
    assert slope > 0, mean_gaps
    assert mean_gaps[-1] > mean_gaps[0], mean_gaps
