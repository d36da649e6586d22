"""Dataset-level report assembly and plot-ready file emission.

Given one bundle and a run configuration, ``build_report`` produces a
``ReportBundle``: the report.json object (``sections``) and one table per
plot-ready CSV (``tables``: file name -> header and columns, in write order).
The analyses hand back per-seed values as vectors over the graphs' seed rows
(sorted seeds, NaN where a value is undefined) and per-user values as
vectors over user ids; each table's columns are those vectors, indexed where
they are computed, and every mean in report.json adds its values left to
right in seed (or user) order. ``write_report`` writes report.json, then
every table, formatting a column at a time and writing blocks of rows.

Every byte written is a pure function of (inputs, semantic config, seed):
worker counts, cache usage, and output locations never leak into file
contents.
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import logging
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

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
    left_sum,
    sample_friends_by_indegree,  # unused here; perfbench/tracer.py wraps this name
    save_graph_cache,
    user_space,
)
from .ingest import DatasetBundle, atomic_open, load_dataset
from .moderacy import (
    CLASSES,
    FOLLOWER,
    HARDLINER,
    MODERATE,
    RETWEET,
    MetricsEngine,
    class_names,
    congruent_friend_fraction_diff,
    exposure_class_fractions,
    friend_activity_comparison,
    random_baseline_fractions,
)
from .rng import substream
from .stats import entropy_comparison, format_p, mann_whitney_u, pearson

log = logging.getLogger(__name__)

OVERLAP_BOTH = "both"
BLOCK_ROWS = 1 << 16  # rows formatted and written per write call
_CSV_SPECIAL = (",", '"', "\r", "\n")  # csv may quote a field holding one of these


# RunConfig fields that name files or say how the work is run; every other
# field shapes the output and enters semantic_dict and the config hash
NON_SEMANTIC_FIELDS = frozenset({"scores", "edges", "events", "out_dir", "no_cache"})


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
    no_cache: bool = False
    heatmap_bins: int = 25

    def __post_init__(self) -> None:
        if self.k_min < 1 or self.k_max < self.k_min:
            raise EchoscopeError("need 1 <= k_min <= k_max")
        if self.reps < 1:
            raise EchoscopeError("reps must be >= 1")
        if self.overlap_mode not in (OVERLAP_ACCOUNT, OVERLAP_CONTENT, OVERLAP_BOTH):
            raise EchoscopeError(f"unknown overlap mode {self.overlap_mode!r}")
        if self.entropy_bins < 2:
            raise EchoscopeError("entropy_bins must be >= 2")
        if self.baseline_users < 0:
            raise EchoscopeError("baseline_users must be >= 0")
        if self.heatmap_bins < 1:
            raise EchoscopeError("heatmap_bins must be >= 1")

    def k_range(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def overlap_modes(self) -> tuple[str, ...]:
        if self.overlap_mode == OVERLAP_BOTH:
            return (OVERLAP_ACCOUNT, OVERLAP_CONTENT)
        return (self.overlap_mode,)

    def semantic_dict(self) -> dict:
        """Config fields that influence output bytes (not how they are made)."""
        return {k: v for k, v in dataclasses.asdict(self).items() if k not in NON_SEMANTIC_FIELDS}

    def config_hash(self) -> str:
        canon = json.dumps(self.semantic_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _jfloat(value):
    value = float(value)
    if math.isnan(value):
        return None
    return value


@dataclass(frozen=True)
class Take:
    """A table column whose cells are ``values[ids]``: each block formats
    the values its rows name, and a value no row names is not formatted."""

    values: "Column"
    ids: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


# A float64 array writes each value's repr and NaN as an empty field, an int
# array each value's str; a list holds strings, None (an empty field) or
# numbers.
Column = Union[np.ndarray, list, Take]
Table = tuple[list[str], list[Column]]  # a CSV's header and columns


def _cell(value) -> str:
    """One list cell as text: None and NaN are empty, a float is its repr."""
    if value is None:
        return ""
    if isinstance(value, float):  # np.float64 too, whose own repr reads np.float64(...)
        return "" if math.isnan(value) else float.__repr__(value)
    return str(value)


def _is_text(column: Column) -> bool:
    """Whether a column's cells may hold characters that csv quotes."""
    if isinstance(column, Take):
        return _is_text(column.values)
    return not (isinstance(column, np.ndarray) and column.dtype.kind in "biuf")


def _text(values: Union[np.ndarray, Iterable]) -> list[str]:
    """An array's cells, or the values of a list or iterator, as unquoted text."""
    if not _is_text(values):
        if values.dtype.kind != "f":
            return list(map(str, values.tolist()))
        cells = list(map(repr, values.tolist()))
        for i in np.flatnonzero(np.isnan(values)).tolist():
            cells[i] = ""
        return cells
    return [_cell(v) for v in values]


def _pick(values: Column, ids: np.ndarray) -> Union[np.ndarray, Iterable]:
    """The values at ``ids``: an array for an array, else an iterator."""
    if isinstance(values, np.ndarray):
        return values[ids]
    return map(values.__getitem__, ids.tolist())


def _blocks(column: Column, n_rows: int) -> Iterator[list[str]]:
    """A column's text, BLOCK_ROWS cells at a time, so the text held at once
    is one block's, not the table's."""
    for lo in range(0, n_rows, BLOCK_ROWS):
        if isinstance(column, Take):
            yield _text(_pick(column.values, column.ids[lo : lo + BLOCK_ROWS]))
        else:
            yield _text(column[lo : lo + BLOCK_ROWS])


def _plain(cells: list[str]) -> bool:
    """Whether csv writes every one of these cells as it is."""
    joined = "".join(cells)
    return not any(ch in joined for ch in _CSV_SPECIAL)


def _write_csv(path: Path, header: list[str], columns: list[Column]) -> None:
    """Write a header and columns as csv.writer(lineterminator="\\n") would.

    Blocks of plain rows are joined directly, in well under half the time
    csv.writer takes for them. A block with a cell csv may quote, or a table
    of one column (csv quotes a lone empty field), goes through csv.writer,
    so the quoting rules stay csv's own.
    """
    lengths = {len(column) for column in columns}
    if len(header) != len(columns) or len(lengths) > 1:
        raise ValueError(f"{path.name}: {len(header)} names for column lengths {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    text_columns = [i for i, column in enumerate(columns) if _is_text(column)]
    with atomic_open(str(path)) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for cells in zip(*(_blocks(column, n_rows) for column in columns)):
            if len(cells) == 1 or not all(_plain(cells[i]) for i in text_columns):
                writer.writerows(zip(*cells))
            else:
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
            del cells  # not held while the next block is formatted


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
    """Everything a report run produced, ready to write.

    ``sections`` is the report.json object; ``tables`` maps each CSV's file
    name to its header and columns (see ``Column``), in the order the files
    are written.
    """

    sections: dict
    tables: dict[str, Table] = field(repr=False)


def graph_fingerprint(cfg: RunConfig, input_meta: Optional[dict] = None) -> bytes:
    """The graph cache key: the edges' and events' content hashes, then the window.

    The hashes are read from ``input_meta`` when given (``run_report`` has
    just recorded them there), else from the files.
    """
    digest = hashlib.sha256()
    digest.update(b"echoscope-graph-cache-v1\x00")
    for name in ("edges", "events"):
        sha = input_meta[name]["sha256"] if input_meta else _sha256_file(getattr(cfg, name))
        digest.update(sha.encode())
    digest.update(repr(cfg.window).encode())
    return digest.digest()


def build_graphs(
    bundle: DatasetBundle,
    cfg: RunConfig,
    cache_path: Optional[Path] = None,
    input_meta: Optional[dict] = None,
) -> tuple[FollowerGraph, RetweetGraph]:
    fingerprint = None
    if cache_path is not None and not cfg.no_cache:
        fingerprint = graph_fingerprint(cfg, input_meta)
        cached = load_graph_cache(str(cache_path), fingerprint)
        if cached is not None:
            return cached
    space = user_space(bundle.seeds, bundle.edges, bundle.log)
    fg = build_follower_graph(space)
    rg = build_retweet_graph(space)
    if cache_path is not None and not cfg.no_cache:
        save_graph_cache(str(cache_path), fg, rg, fingerprint)
    return fg, rg


def _columns(rows: list[tuple], width: int) -> list[list]:
    """A small table's row tuples as its columns."""
    return [list(column) for column in zip(*rows)] or [[] for _ in range(width)]


def _mean(values: list) -> Optional[float]:
    """The left-to-right mean of a list; None when it is empty."""
    return _jfloat(left_sum(values) / len(values)) if values else None


def build_report(
    bundle: DatasetBundle,
    cfg: RunConfig,
    input_meta: Optional[dict] = None,
    cache_path: Optional[Path] = None,
) -> ReportBundle:
    """Run the full analysis pipeline over one bundle.

    The event log is restricted to cfg.window here, once, before anything is
    built from it; graphs go through the cache at cache_path when given. The
    bundle is let go once the engine is built, so the parsed inputs are freed
    when the caller holds no other reference to them.
    """
    markers: list[str] = []
    bundle = dataclasses.replace(bundle, log=bundle.log.restricted(cfg.window))
    if cfg.window is not None and len(bundle.log) == 0:
        markers.append("window excludes every event")
    counts_section = {
        "n_seeds": len(bundle.seeds),
        "n_users_in_edges": bundle.edges.n_users,
        "n_edges": bundle.edges.n_edges,
        "n_events": len(bundle.log),
        "n_retweets": bundle.log.n_retweets,
    }
    fg, rg = build_graphs(bundle, cfg, cache_path, input_meta)

    engine = MetricsEngine(bundle, fg, rg, unique_domains=cfg.unique_domains)
    del bundle
    scored = ~np.isnan(engine.m_s)
    if not scored.any():
        markers.append("no scored users")
    seed_codes = engine.class_code[fg.seed_ids]
    tables: dict[str, Table] = {}

    # per-threshold exposures, correlations, and bias tables; ids ascend in
    # name order, so every list below is in user order
    correlations: dict = {}
    delta_tables: dict[str, Table] = {}
    metrics_k1 = engine.metrics_at(1)
    for k in cfg.k_range():
        mset = metrics_k1 if k == 1 else engine.metrics_at(k)
        paired = np.flatnonzero(scored & ~np.isnan(mset.delta))
        ms = engine.m_s[paired].tolist()
        deltas = mset.delta[paired].tolist()
        correlations[str(k)] = {
            "n_paired": len(paired),
            "ms_vs_mef": _corr_block(ms, mset.m_e_f[paired].tolist()),
            "ms_vs_mer": _corr_block(ms, mset.m_e_r[paired].tolist()),
            "delta_vs_ms": _corr_block(deltas, ms),
        }
        delta_tables[f"delta_vs_ms_k{k}.csv"] = (
            ["user", "m_s", "delta"],
            [Take(fg.names, paired), engine.m_s[paired], mset.delta[paired]],
        )
    user_ids = metrics_k1.user_ids
    per_user = (engine.mu, engine.m_s, metrics_k1.m_e_f, metrics_k1.m_e_r, metrics_k1.delta)
    tables["user_metrics.csv"] = (
        ["user", "mu", "m_s", "m_e_f", "m_e_r", "delta", "class", "domain_count"],
        [
            Take(fg.names, user_ids),
            *(values[user_ids] for values in per_user),
            class_names(engine.class_code[user_ids]),
            engine.domain_count[user_ids],
        ],
    )

    # overlap structure
    overlap_curves = []
    curve_rows = []
    for mode in cfg.overlap_modes():
        points = overlap_vs_threshold(fg, rg, cfg.k_range(), mode)
        curve_rows += [(mode, *point) for point in points]
        overlap_curves.append(
            {
                "mode": mode,
                "points": [
                    {"k": k, "mean_overlap": _jfloat(mean), "n_users": n}
                    for k, mean, n in points
                ],
            }
        )
    tables["overlap_curve.csv"] = (
        ["mode", "k", "mean_overlap", "n_users"],
        _columns(curve_rows, 4),
    )
    per_seed = np.column_stack(
        [fraction_friends_retweeted(fg, rg, 1)]
        + [retweet_overlap(fg, rg, 1, mode) for mode in (OVERLAP_ACCOUNT, OVERLAP_CONTENT)]
    )
    seed_rows = np.flatnonzero(~np.isnan(per_seed).all(axis=1))
    tables["overlap_user_k1.csv"] = (
        ["user", "fraction_friends_retweeted", "overlap_account", "overlap_content"],
        [Take(fg.seeds, seed_rows), *per_seed[seed_rows].T],
    )

    # heatmaps of m_s vs exposure at k=1
    n = cfg.heatmap_bins
    for tag, m_e in (("f", metrics_k1.m_e_f), ("r", metrics_k1.m_e_r)):
        both = scored & ~np.isnan(m_e)
        counts, _, _ = np.histogram2d(
            engine.m_s[both], m_e[both], bins=n, range=[[0.0, 1.0], [0.0, 1.0]]
        )
        cells = np.arange(n * n)
        tables[f"echo_heatmap_{tag}.csv"] = (
            ["ms_bin", "me_bin", "count"],
            [cells // n, cells % n, counts.astype(np.int64).ravel()],
        )

    # exposure class fractions per kind plus the random baseline
    fractions = {kind: exposure_class_fractions(engine, kind, 1) for kind in (FOLLOWER, RETWEET)}
    n_retweeted = np.diff(rg.retweets.indptr)
    candidates = np.flatnonzero((seed_codes >= 0) & (n_retweeted > 0))
    if cfg.baseline_users and len(candidates) > cfg.baseline_users:
        picker = substream(cfg.seed, "baseline-user-cap")
        chosen = picker.choice(len(candidates), size=cfg.baseline_users, replace=False)
        candidates = candidates[np.sort(chosen)]
    baseline = np.full(len(fg.seeds), np.nan)
    for row in candidates.tolist():
        user = fg.seeds[row]
        rng = substream(cfg.seed, "baseline", user)
        frac = random_baseline_fractions(engine, user, cfg.reps, rng, 1)
        if frac is not None:
            baseline[row] = frac
    fractions["baseline"] = (baseline, 1.0 - baseline)

    class_fractions: dict = {}
    class_rows = []
    for kind, (frac_mod, frac_hard) in fractions.items():
        class_fractions[kind] = {}
        for code, ucls in enumerate(CLASSES):
            in_class = (seed_codes == code) & ~np.isnan(frac_mod)
            mods = frac_mod[in_class].tolist()
            block = {
                "frac_moderate": _mean(mods),
                "frac_hardline": _mean(frac_hard[in_class].tolist()),
                "n_users": len(mods),
            }
            class_fractions[kind][ucls] = block
            class_rows.append((kind, ucls, *block.values()))
    tables["class_fractions.csv"] = (
        ["kind", "user_class", "frac_moderate", "frac_hardline", "n_users"],
        _columns(class_rows, 5),
    )

    # entropy of friend moderacy
    entropy_f, entropy_r, n_f, n_r = entropy_comparison(fg, rg, engine.m_s, cfg.entropy_bins, 1)
    rows = np.flatnonzero(~np.isnan(entropy_f))
    ent_f, ent_r = entropy_f[rows].tolist(), entropy_r[rows].tolist()
    entropy_section = {
        "n_bins": cfg.entropy_bins,
        "n_users": len(ent_f),
        "n_skipped": len(fg.seeds) - len(ent_f),
        "mean_follower": _mean(ent_f),
        "mean_retweet": _mean(ent_r),
        "utest": _utest_block(ent_f, ent_r),
    }
    if not ent_f:
        markers.append("entropy comparison has no eligible users")
    tables["entropy.csv"] = (
        ["user", "entropy_follower", "entropy_retweet", "n_friends_scored_f", "n_friends_scored_r"],
        [Take(fg.seeds, rows), entropy_f[rows], entropy_r[rows], n_f[rows], n_r[rows]],
    )
    tables.update(delta_tables)

    # activity of retweeted vs not-retweeted friends
    friends, activity, retweeted = friend_activity_comparison(engine, 1)
    friend_codes = engine.class_code[friends]
    retweeted_acts = activity[retweeted].tolist()
    not_retweeted_acts = activity[~retweeted].tolist()
    by_class_acts = {
        ucls: activity[retweeted & (friend_codes == code)].tolist()
        for code, ucls in enumerate(CLASSES)
    }
    activity_section = {
        "n_retweeted": len(retweeted_acts),
        "n_not_retweeted": len(not_retweeted_acts),
        "mean_activity_retweeted": _mean(retweeted_acts),
        "mean_activity_not_retweeted": _mean(not_retweeted_acts),
        "utest": _utest_block(retweeted_acts, not_retweeted_acts),
        "by_class": {
            ucls: {"n": len(acts), "mean_activity": _mean(acts)}
            for ucls, acts in by_class_acts.items()
        },
        "class_utest": _utest_block(by_class_acts[MODERATE], by_class_acts[HARDLINER]),
    }
    tables["activity.csv"] = (
        ["friend", "activity", "retweeted", "friend_class"],
        [Take(fg.names, friends), activity, retweeted.astype(np.int64), class_names(friend_codes)],
    )

    # congruence of retweeted vs not-retweeted friends
    frac_r, frac_n = congruent_friend_fraction_diff(fg, rg, engine.class_code, 1)
    diff = frac_r - frac_n
    defined = ~np.isnan(frac_r)
    congruence_section = {}
    for code, ucls in enumerate(CLASSES):
        in_class = defined & (seed_codes == code)
        diffs = diff[in_class].tolist()
        if diffs:
            fracs_r, fracs_n = frac_r[in_class].tolist(), frac_n[in_class].tolist()
            congruence_section[ucls] = {
                "n": len(diffs),
                "mean_diff": _mean(diffs),
                "mean_frac_retweeted": _mean(fracs_r),
                "mean_frac_not_retweeted": _mean(fracs_n),
                "utest": _utest_block(fracs_r, fracs_n),
            }
        else:
            congruence_section[ucls] = {"n": 0, "mean_diff": None}
    rows = np.flatnonzero(defined)
    tables["congruence.csv"] = (
        ["user", "user_class", "frac_congruent_retweeted", "frac_congruent_not_retweeted", "diff"],
        [
            Take(fg.seeds, rows),
            class_names(seed_codes[rows]),
            *(values[rows] for values in (frac_r, frac_n, diff)),
        ],
    )

    # each source's m_s distribution, exactly: per distinct score among the
    # scored users, the follower-graph indegree, the retweet-graph indegree or
    # the number of users that carries it; a weight of 0 gets no row
    scores, score_ids = np.unique(engine.m_s[scored], return_inverse=True)
    weights = np.stack(
        [
            np.bincount(score_ids, weights=graph_obj.indegree()[scored], minlength=len(scores))
            for graph_obj in (fg, rg)
        ]
        + [np.bincount(score_ids, minlength=len(scores))]
    ).astype(np.int64)
    source_ids, rows = np.nonzero(weights)  # by source, then ascending score
    tables["sampled_scores.csv"] = (
        ["source", "score", "weight"],
        [
            Take(["random_friend", "random_retweet_friend", "random_user"], source_ids),
            Take(scores, rows),
            weights[source_ids, rows],
        ],
    )

    counts_section.update(
        n_scored_users=int(scored.sum()),
        n_users_with_metrics=len(user_ids),
        n_baseline_users=len(candidates),
    )

    meta = {
        "tool": "echoscope",
        "version": __version__,
        "config": cfg.semantic_dict(),
        "config_hash": cfg.config_hash(),
        "inputs": input_meta or {},
    }
    sections = {
        "meta": meta,
        "counts": counts_section,
        "correlations": correlations,
        "class_fractions": class_fractions,
        "entropy": entropy_section,
        "overlap_curves": overlap_curves,
        "activity": activity_section,
        "congruence": congruence_section,
        "markers": markers,
        "warnings": sorted(set(engine.warnings)),
    }
    return ReportBundle(sections, tables)


# the name of a per-threshold table, k >= 1
_DELTA_TABLE_RE = re.compile(r"delta_vs_ms_k[1-9][0-9]*\.csv")


def write_report(report: ReportBundle, out_dir: str) -> list[str]:
    """Write report.json and the CSV tables into the existing directory
    ``out_dir``; returns the file names.

    Each file is written under a temporary name and then moved into place,
    so a failed or killed run never leaves a partial file under a real name.
    A per-threshold table that an earlier run left for a k this run does not
    use is removed, so the directory holds only this run's files; no other
    file is touched.
    """
    out = Path(out_dir)
    with atomic_open(str(out / "report.json")) as fh:
        fh.write(json.dumps(report.sections, indent=2, sort_keys=True) + "\n")
    for name, (header, columns) in report.tables.items():
        _write_csv(out / name, header, columns)
    for path in sorted(out.iterdir()):
        stale = _DELTA_TABLE_RE.fullmatch(path.name) and path.name not in report.tables
        if stale and path.is_file():
            path.unlink()
            log.info("removed %s: this run has no threshold k for it", path)
    return ["report.json", *report.tables]


def run_report(cfg: RunConfig) -> ReportBundle:
    """Load inputs, build graphs (cached unless disabled), write everything
    into the existing directory ``cfg.out_dir``.

    The parsed inputs are passed on without a name here, so ``build_report``
    holds the only reference and can let them go once its engine is built.
    They are parsed before the files are hashed, so a missing or unreadable
    input is reported by the parser.
    """
    report = build_report(
        load_dataset(cfg.scores, cfg.edges, cfg.events),
        cfg,
        # content hashes only: the same inputs at another path give the same bytes
        {
            name: {"sha256": _sha256_file(path)}
            for name, path in (
                ("scores", cfg.scores),
                ("edges", cfg.edges),
                ("events", cfg.events),
            )
        },
        Path(cfg.out_dir) / "graphs.cache",
    )
    write_report(report, cfg.out_dir)
    return report
