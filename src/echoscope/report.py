"""Dataset-level report assembly and plot-ready file emission.

Given one bundle and a run configuration this produces report.json plus a
plot-ready CSV for each analysis output. Every byte written is a pure function of
(inputs, semantic config, seed): worker counts, cache usage, and output
locations never leak into file contents.
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from . import __version__
from .errors import EchoscopeError, UndefinedStatisticError
from .graph import (
    OVERLAP_ACCOUNT,
    OVERLAP_CONTENT,
    FollowerGraph,
    RetweetGraph,
    build_follower_graph,
    build_retweet_graph,
    load_graph_cache,
    overlap_vs_threshold,
    retweet_overlap,
    fraction_friends_retweeted,
    sample_friends_by_indegree,
    save_graph_cache,
    user_space,
)
from .ingest import DatasetBundle, atomic_open, load_dataset
from .moderacy import (
    FOLLOWER,
    HARDLINER,
    MODERATE,
    RETWEET,
    MetricsEngine,
    UserMetrics,
    class_names,
    congruent_friend_fraction_diff,
    exposure_class_fractions,
    friend_activity_comparison,
    random_baseline_fractions,
)
from .rng import substream
from .stats import entropy_comparison, format_p, mann_whitney_u, pearson

OVERLAP_BOTH = "both"
USER_METRICS_HEADER = ["user", "mu", "m_s", "m_e_f", "m_e_r", "delta", "class", "domain_count"]


@dataclass
class RunConfig:
    scores: str
    edges: str
    events: str
    out_dir: str
    k_min: int = 1
    k_max: int = 10
    entropy_bins: int = 5
    reps: int = 1000
    baseline_users: int = 0  # 0 = every eligible user
    window: Optional[tuple[int, int]] = None
    seed: int = 1
    overlap_mode: str = OVERLAP_BOTH
    unique_domains: bool = False
    threads: int = 1  # accepted and validated; the report runs single-threaded
    no_cache: bool = False
    heatmap_bins: int = 25
    sample_n: int = 500000

    def __post_init__(self) -> None:
        if self.k_min < 1 or self.k_max < self.k_min:
            raise EchoscopeError("need 1 <= k_min <= k_max")
        if self.reps < 1:
            raise EchoscopeError("reps must be >= 1")
        if self.overlap_mode not in (OVERLAP_ACCOUNT, OVERLAP_CONTENT, OVERLAP_BOTH):
            raise EchoscopeError(f"unknown overlap mode {self.overlap_mode!r}")
        if self.threads < 1:
            raise EchoscopeError("threads must be >= 1")

    def k_range(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def overlap_modes(self) -> tuple[str, ...]:
        if self.overlap_mode == OVERLAP_BOTH:
            return (OVERLAP_ACCOUNT, OVERLAP_CONTENT)
        return (self.overlap_mode,)

    def semantic_dict(self) -> dict:
        """Config fields that influence output bytes (not how they are made)."""
        return {
            "k_min": self.k_min,
            "k_max": self.k_max,
            "entropy_bins": self.entropy_bins,
            "reps": self.reps,
            "baseline_users": self.baseline_users,
            "window": list(self.window) if self.window else None,
            "seed": self.seed,
            "overlap_mode": self.overlap_mode,
            "unique_domains": self.unique_domains,
            "heatmap_bins": self.heatmap_bins,
            "sample_n": self.sample_n,
        }

    def config_hash(self) -> str:
        canon = json.dumps(self.semantic_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def _jfloat(value):
    if value is None:
        return None
    value = float(value)
    if math.isnan(value):
        return None
    return value


def _write_csv(path: Path, header: list[str], rows: Iterable[Iterable]) -> None:
    with atomic_open(str(path)) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _corr_block(xs: list[float], ys: list[float]) -> dict:
    try:
        result = pearson(xs, ys)
    except UndefinedStatisticError as exc:
        return {"r": None, "p": None, "p_display": None, "n": len(xs), "note": str(exc)}
    return {
        "r": _jfloat(result.r),
        "p": _jfloat(result.p),
        "p_display": format_p(result.p),
        "n": result.n,
    }


def _utest_block(a: list, b: list) -> Optional[dict]:
    if not a or not b:
        return None
    result = mann_whitney_u(a, b)
    return {
        "u": _jfloat(result.u_statistic),
        "p": _jfloat(result.p),
        "p_display": format_p(result.p),
        "n1": result.n1,
        "n2": result.n2,
    }


@dataclass
class ReportBundle:
    """Everything the report run produced, ready for serialization."""

    meta: dict
    counts: dict
    correlations: dict
    class_fractions: dict
    entropy: dict
    overlap_curves: list[dict]
    activity: dict
    congruence: dict
    markers: list[str]
    warnings: list[str]
    user_metrics: dict[str, UserMetrics] = field(repr=False, default_factory=dict)
    delta_tables: dict[int, list[tuple[str, float, float]]] = field(repr=False, default_factory=dict)
    entropy_rows: list[tuple] = field(repr=False, default_factory=list)
    activity_rows: list[tuple] = field(repr=False, default_factory=list)
    congruence_rows: list[tuple] = field(repr=False, default_factory=list)
    overlap_user_rows: list[tuple] = field(repr=False, default_factory=list)
    class_fraction_rows: list[tuple] = field(repr=False, default_factory=list)
    heatmaps: dict[str, np.ndarray] = field(repr=False, default_factory=dict)
    sampled_rows: list[tuple] = field(repr=False, default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "meta": self.meta,
            "counts": self.counts,
            "correlations": self.correlations,
            "class_fractions": self.class_fractions,
            "entropy": self.entropy,
            "overlap_curves": self.overlap_curves,
            "activity": self.activity,
            "congruence": self.congruence,
            "markers": self.markers,
            "warnings": self.warnings,
        }


def graph_fingerprint(cfg: RunConfig) -> bytes:
    digest = hashlib.sha256()
    digest.update(b"echoscope-graph-cache-v1\x00")
    digest.update(_sha256_file(cfg.edges).encode())
    digest.update(_sha256_file(cfg.events).encode())
    digest.update(repr(cfg.window).encode())
    return digest.digest()


def build_graphs(
    bundle: DatasetBundle, cfg: RunConfig, cache_path: Optional[Path] = None
) -> tuple[FollowerGraph, RetweetGraph]:
    fingerprint = None
    if cache_path is not None and not cfg.no_cache:
        fingerprint = graph_fingerprint(cfg)
        cached = load_graph_cache(str(cache_path), fingerprint)
        if cached is not None:
            return cached
    space = user_space(bundle.seeds, bundle.edges, bundle.log)
    fg = build_follower_graph(space)
    rg = build_retweet_graph(space)
    if cache_path is not None and not cfg.no_cache:
        save_graph_cache(str(cache_path), fg, rg, fingerprint)
    return fg, rg


def build_report(
    bundle: DatasetBundle,
    cfg: RunConfig,
    input_meta: Optional[dict] = None,
    cache_path: Optional[Path] = None,
) -> ReportBundle:
    """Run the full analysis pipeline over one bundle.

    The event log is restricted to cfg.window here, once, before anything is
    built from it; graphs go through the cache at cache_path when given.
    """
    markers: list[str] = []
    bundle = dataclasses.replace(bundle, log=bundle.log.restricted(cfg.window))
    if cfg.window is not None and len(bundle.log) == 0:
        markers.append("window excludes every event")
    fg, rg = build_graphs(bundle, cfg, cache_path)

    engine = MetricsEngine(bundle, fg, rg, unique_domains=cfg.unique_domains)
    scored = ~np.isnan(engine.m_s)
    if not scored.any():
        markers.append("no scored users")

    # per-threshold exposures, correlations, and bias tables; ids ascend in
    # name order, so every list below is in user order
    correlations: dict = {}
    delta_tables: dict[int, list[tuple[str, float, float]]] = {}
    metrics_k1 = None
    for k in cfg.k_range():
        mset = engine.metrics_at(k)
        if k == 1:
            metrics_k1 = mset
        paired = np.flatnonzero(scored & ~np.isnan(mset.delta))
        ms = engine.m_s[paired].tolist()
        deltas = mset.delta[paired].tolist()
        correlations[str(k)] = {
            "n_paired": len(paired),
            "ms_vs_mef": _corr_block(ms, mset.m_e_f[paired].tolist()),
            "ms_vs_mer": _corr_block(ms, mset.m_e_r[paired].tolist()),
            "delta_vs_ms": _corr_block(deltas, ms),
        }
        delta_tables[k] = list(zip([fg.names[i] for i in paired.tolist()], ms, deltas))
    if metrics_k1 is None:
        metrics_k1 = engine.metrics_at(1)

    # overlap structure
    overlap_curves = []
    overlap_user_rows = []
    for mode in cfg.overlap_modes():
        curve = overlap_vs_threshold(fg, rg, cfg.k_range(), mode)
        overlap_curves.append(
            {
                "mode": mode,
                "points": [
                    {
                        "k": p.k,
                        "mean_overlap": _jfloat(p.mean_overlap),
                        "n_users": p.n_users,
                    }
                    for p in curve.points
                ],
            }
        )
    frac_by_user = fraction_friends_retweeted(fg, rg, 1)
    overlap_by_mode = [
        retweet_overlap(fg, rg, 1, mode) for mode in (OVERLAP_ACCOUNT, OVERLAP_CONTENT)
    ]
    for user in sorted(bundle.seeds):
        row = [user, frac_by_user.get(user)]
        for by_user in overlap_by_mode:
            row.append(by_user.get(user))
        if any(v is not None for v in row[1:]):
            overlap_user_rows.append(tuple(row))

    # exposure class fractions per kind plus the random baseline
    seed_class = dict(zip(fg.seeds, class_names(engine.class_code[fg.seed_ids])))
    profile_rows: list[tuple] = []
    fractions_by_kind: dict[str, dict[str, list]] = {
        FOLLOWER: {MODERATE: [], HARDLINER: []},
        RETWEET: {MODERATE: [], HARDLINER: []},
        "baseline": {MODERATE: [], HARDLINER: []},
    }
    for kind in (FOLLOWER, RETWEET):
        profiles = exposure_class_fractions(engine, kind, 1)
        for user, ucls in seed_class.items():
            if ucls is not None and user in profiles:
                fractions_by_kind[kind][ucls].append(profiles[user])

    n_retweeted = np.diff(rg.retweets.indptr).tolist()
    baseline_candidates = [
        u
        for (u, ucls), n in zip(seed_class.items(), n_retweeted)
        if ucls is not None and n
    ]
    if cfg.baseline_users and len(baseline_candidates) > cfg.baseline_users:
        picker = substream(cfg.seed, "baseline-user-cap")
        chosen = picker.choice(
            len(baseline_candidates), size=cfg.baseline_users, replace=False
        )
        baseline_candidates = [baseline_candidates[i] for i in sorted(chosen.tolist())]

    for user in baseline_candidates:
        rng = substream(cfg.seed, "baseline", user)
        profile = random_baseline_fractions(engine, user, cfg.reps, rng, 1)
        if profile is not None:
            fractions_by_kind["baseline"][seed_class[user]].append(profile)

    class_fractions: dict = {}
    for kind, by_class in fractions_by_kind.items():
        class_fractions[kind] = {}
        for ucls, profiles in by_class.items():
            if profiles:
                class_fractions[kind][ucls] = {
                    "frac_moderate": _jfloat(
                        sum(p.frac_moderate for p in profiles) / len(profiles)
                    ),
                    "frac_hardline": _jfloat(
                        sum(p.frac_hardline for p in profiles) / len(profiles)
                    ),
                    "n_users": len(profiles),
                }
            else:
                class_fractions[kind][ucls] = {
                    "frac_moderate": None,
                    "frac_hardline": None,
                    "n_users": 0,
                }
            block = class_fractions[kind][ucls]
            profile_rows.append(
                (kind, ucls, block["frac_moderate"], block["frac_hardline"], block["n_users"])
            )

    # entropy of friend moderacy
    prof_f, prof_r, entropy_test, n_skipped = entropy_comparison(
        bundle.seeds, fg, rg, engine.m_s, cfg.entropy_bins, 1
    )
    entropy_rows = [
        (pf.user, pf.entropy, pr.entropy, pf.n_friends_scored, pr.n_friends_scored)
        for pf, pr in zip(prof_f, prof_r)
    ]
    entropy_section = {
        "n_bins": cfg.entropy_bins,
        "n_users": len(prof_f),
        "n_skipped": n_skipped,
        "mean_follower": _jfloat(
            sum(p.entropy for p in prof_f) / len(prof_f) if prof_f else None
        ),
        "mean_retweet": _jfloat(
            sum(p.entropy for p in prof_r) / len(prof_r) if prof_r else None
        ),
        "utest": None
        if entropy_test is None
        else {
            "u": _jfloat(entropy_test.u_statistic),
            "p": _jfloat(entropy_test.p),
            "p_display": format_p(entropy_test.p),
            "n1": entropy_test.n1,
            "n2": entropy_test.n2,
        },
    }
    if not prof_f:
        markers.append("entropy comparison has no eligible users")

    # activity of retweeted vs not-retweeted friends
    activity_rows_data = friend_activity_comparison(engine, 1)
    retweeted_acts = [r.activity for r in activity_rows_data if r.retweeted]
    not_retweeted_acts = [r.activity for r in activity_rows_data if not r.retweeted]
    by_class_acts = {
        MODERATE: [
            r.activity for r in activity_rows_data if r.retweeted and r.moderacy_class == MODERATE
        ],
        HARDLINER: [
            r.activity
            for r in activity_rows_data
            if r.retweeted and r.moderacy_class == HARDLINER
        ],
    }
    activity_section = {
        "n_retweeted": len(retweeted_acts),
        "n_not_retweeted": len(not_retweeted_acts),
        "mean_activity_retweeted": _jfloat(
            sum(retweeted_acts) / len(retweeted_acts) if retweeted_acts else None
        ),
        "mean_activity_not_retweeted": _jfloat(
            sum(not_retweeted_acts) / len(not_retweeted_acts) if not_retweeted_acts else None
        ),
        "utest": _utest_block(retweeted_acts, not_retweeted_acts),
        "by_class": {
            ucls: {
                "n": len(acts),
                "mean_activity": _jfloat(sum(acts) / len(acts) if acts else None),
            }
            for ucls, acts in by_class_acts.items()
        },
        "class_utest": _utest_block(by_class_acts[MODERATE], by_class_acts[HARDLINER]),
    }
    activity_rows = [
        (r.friend, r.activity, int(r.retweeted), r.moderacy_class) for r in activity_rows_data
    ]

    # congruence of retweeted vs not-retweeted friends
    congruence_rows = []
    cong_by_class: dict[str, list] = {MODERATE: [], HARDLINER: []}
    for user, diff in congruent_friend_fraction_diff(fg, rg, engine.class_code, 1).items():
        cong_by_class[diff.moderacy_class].append(diff)
        congruence_rows.append(
            (
                user,
                diff.moderacy_class,
                diff.frac_congruent_retweeted,
                diff.frac_congruent_not_retweeted,
                diff.diff,
            )
        )
    congruence_section = {}
    for ucls, diffs in cong_by_class.items():
        if diffs:
            congruence_section[ucls] = {
                "n": len(diffs),
                "mean_diff": _jfloat(sum(d.diff for d in diffs) / len(diffs)),
                "mean_frac_retweeted": _jfloat(
                    sum(d.frac_congruent_retweeted for d in diffs) / len(diffs)
                ),
                "mean_frac_not_retweeted": _jfloat(
                    sum(d.frac_congruent_not_retweeted for d in diffs) / len(diffs)
                ),
                "utest": _utest_block(
                    [d.frac_congruent_retweeted for d in diffs],
                    [d.frac_congruent_not_retweeted for d in diffs],
                ),
            }
        else:
            congruence_section[ucls] = {"n": 0, "mean_diff": None}

    # indegree-proportional friend samples and the uniform random-user draw
    sampled_rows: list[tuple] = []
    sample_counts = {"n_requested": cfg.sample_n}
    # one float object per user, shared by every row that samples them
    m_s_objects = np.array(engine.m_s.tolist(), dtype=object)
    for source, graph_obj in (("random_friend", fg), ("random_retweet_friend", rg)):
        n_scored = 0
        if graph_obj.indegree().any():
            drawn = sample_friends_by_indegree(
                graph_obj, cfg.sample_n, substream(cfg.seed, "indegree-sample", source)
            )
            scores = m_s_objects[drawn[scored[drawn]]].tolist()
            sampled_rows.extend((source, score) for score in scores)
            n_scored = len(scores)
        sample_counts[source] = {"n_scored": n_scored}
    uniform = substream(cfg.seed, "random-user-scores").random(cfg.sample_n)
    sampled_rows.extend(("random_user", float(v)) for v in uniform.tolist())
    sample_counts["random_user"] = {"n_scored": cfg.sample_n}

    # heatmaps of m_s vs exposure at k=1
    heatmaps = {}
    for kind, m_e in ((FOLLOWER, metrics_k1.m_e_f), (RETWEET, metrics_k1.m_e_r)):
        both = scored & ~np.isnan(m_e)
        counts, _, _ = np.histogram2d(
            engine.m_s[both], m_e[both], bins=cfg.heatmap_bins, range=[[0.0, 1.0], [0.0, 1.0]]
        )
        heatmaps[kind] = counts.astype(np.int64)

    n_retweets = sum(1 for ev in bundle.log.events if ev.is_retweet)
    counts_section = {
        "n_seeds": len(bundle.seeds),
        "n_users_in_edges": bundle.edges.n_users,
        "n_edges": bundle.edges.n_edges,
        "n_events": len(bundle.log),
        "n_retweets": n_retweets,
        "n_scored_users": int(scored.sum()),
        "n_users_with_metrics": len(metrics_k1.by_user),
        "n_baseline_users": len(baseline_candidates),
    }

    meta = {
        "tool": "echoscope",
        "version": __version__,
        "config": cfg.semantic_dict(),
        "config_hash": cfg.config_hash(),
        "inputs": input_meta or {},
    }
    return ReportBundle(
        meta=meta,
        counts=counts_section,
        correlations=correlations,
        class_fractions=class_fractions,
        entropy=entropy_section,
        overlap_curves=overlap_curves,
        activity=activity_section,
        congruence=congruence_section,
        markers=markers,
        warnings=sorted(set(engine.warnings)),
        user_metrics=metrics_k1.by_user,
        delta_tables=delta_tables,
        entropy_rows=entropy_rows,
        activity_rows=activity_rows,
        congruence_rows=congruence_rows,
        overlap_user_rows=overlap_user_rows,
        class_fraction_rows=profile_rows,
        heatmaps=heatmaps,
        sampled_rows=sampled_rows,
    )


def write_report(report: ReportBundle, out_dir: str) -> list[str]:
    """Write report.json and the CSV companions; returns the file names.

    Each file is written under a temporary name and then moved into place,
    so a failed or killed run never leaves a partial file under a real name.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    path = out / "report.json"
    with atomic_open(str(path)) as fh:
        fh.write(json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
    written.append(path.name)

    rows = []
    for user in sorted(report.user_metrics):
        m = report.user_metrics[user]
        rows.append(
            (user, m.mu, m.m_s, m.m_e_f, m.m_e_r, m.delta, m.moderacy_class, m.domain_count)
        )
    _write_csv(out / "user_metrics.csv", USER_METRICS_HEADER, rows)
    written.append("user_metrics.csv")

    curve_rows = []
    for curve in report.overlap_curves:
        for point in curve["points"]:
            curve_rows.append(
                (curve["mode"], point["k"], point["mean_overlap"], point["n_users"])
            )
    _write_csv(out / "overlap_curve.csv", ["mode", "k", "mean_overlap", "n_users"], curve_rows)
    written.append("overlap_curve.csv")

    _write_csv(
        out / "overlap_user_k1.csv",
        ["user", "fraction_friends_retweeted", "overlap_account", "overlap_content"],
        report.overlap_user_rows,
    )
    written.append("overlap_user_k1.csv")

    for kind, name in ((FOLLOWER, "echo_heatmap_f.csv"), (RETWEET, "echo_heatmap_r.csv")):
        grid = report.heatmaps.get(kind)
        heat_rows = []
        if grid is not None:
            n = grid.shape[0]
            for i in range(n):
                for j in range(n):
                    heat_rows.append((i, j, int(grid[i, j])))
        _write_csv(out / name, ["ms_bin", "me_bin", "count"], heat_rows)
        written.append(name)

    _write_csv(
        out / "class_fractions.csv",
        ["kind", "user_class", "frac_moderate", "frac_hardline", "n_users"],
        report.class_fraction_rows,
    )
    written.append("class_fractions.csv")

    _write_csv(
        out / "entropy.csv",
        ["user", "entropy_follower", "entropy_retweet", "n_friends_scored_f", "n_friends_scored_r"],
        report.entropy_rows,
    )
    written.append("entropy.csv")

    for k in sorted(report.delta_tables):
        name = f"delta_vs_ms_k{k}.csv"
        _write_csv(out / name, ["user", "m_s", "delta"], report.delta_tables[k])
        written.append(name)

    _write_csv(
        out / "activity.csv",
        ["friend", "activity", "retweeted", "friend_class"],
        report.activity_rows,
    )
    written.append("activity.csv")

    _write_csv(
        out / "congruence.csv",
        ["user", "user_class", "frac_congruent_retweeted", "frac_congruent_not_retweeted", "diff"],
        report.congruence_rows,
    )
    written.append("congruence.csv")

    _write_csv(out / "sampled_scores.csv", ["source", "score"], report.sampled_rows)
    written.append("sampled_scores.csv")
    return written


def run_report(cfg: RunConfig) -> ReportBundle:
    """Load inputs, build graphs (cached unless disabled), write everything."""
    bundle = load_dataset(cfg.scores, cfg.edges, cfg.events)
    # content hashes only: the same inputs at another path give the same bytes
    input_meta = {
        name: {"sha256": _sha256_file(path)}
        for name, path in (
            ("scores", cfg.scores),
            ("edges", cfg.edges),
            ("events", cfg.events),
        )
    }
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = build_report(bundle, cfg, input_meta, out / "graphs.cache")
    write_report(report, cfg.out_dir)
    return report
