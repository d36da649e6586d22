"""Workload definitions and their cached, seed-determined inputs.

Each workload names one ``echoscope`` CLI invocation and a generator for its
three input files. Inputs are generated outside the timed region and cached
under the work directory, keyed by workload, scale, seed and generator
version, so the program under test only ever sees the generated files.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import urllog

# bump when a generator changes what it writes for a given seed
GENERATOR_VERSION = 2
INPUT_FILES = ("scores.csv", "edges.csv", "events.jsonl")
KEEP_INPUT_SETS = 12  # per workload; older sets are evicted


def _synth_config(**overrides):
    from echoscope.synth import SynthConfig

    base = dict(
        n_users=10_000, n_domains=100, follow_homophily=0.2, base_follow_prob=0.0315,
        attention_bias=5.0, activity_rate=6.2, retweet_rate=4.0, duration=1_000_000,
    )
    base.update(overrides)
    return SynthConfig(**base)


# full-scale overrides first, tiny (self-test) overrides second
SYNTH_SCALES = {
    "crit9": ({}, dict(n_users=400, base_follow_prob=0.05)),
    "unique_sets": (
        dict(n_users=6_000, n_domains=2_000, base_follow_prob=0.05, activity_rate=10.0,
             retweet_rate=6.0),
        dict(n_users=300, n_domains=200, base_follow_prob=0.08, activity_rate=10.0,
             retweet_rate=6.0),
    ),
}


def _make_synth(name: str, seed: int, scale: str, out_dir: Path) -> dict:
    from echoscope.ingest import write_domain_scores, write_events, write_follow_edges
    from echoscope.synth import generate

    overrides = SYNTH_SCALES[name][0 if scale == "full" else 1]
    bundle, _ = generate(_synth_config(seed=seed, **overrides))
    write_domain_scores(bundle.scores, str(out_dir / "scores.csv"))
    write_follow_edges(bundle.edges, str(out_dir / "edges.csv"))
    write_events(bundle.log, str(out_dir / "events.jsonl"))
    counts = {
        "n_seeds": len(bundle.edges.sources()),
        "n_users_in_edges": bundle.edges.n_users,
        "n_edges": bundle.edges.n_edges,
        "n_events": len(bundle.log),
        "n_retweets": sum(1 for ev in bundle.log.events if ev.is_retweet),
    }
    return {"counts": counts, "records": counts["n_edges"] + counts["n_events"]}


def _make_urllog(name: str, seed: int, scale: str, out_dir: Path) -> dict:
    return urllog.generate(urllog.FULL if scale == "full" else urllog.TINY, seed, out_dir)


REPORT_FILES = frozenset(
    ["report.json", "user_metrics.csv", "overlap_curve.csv", "overlap_user_k1.csv",
     "echo_heatmap_f.csv", "echo_heatmap_r.csv", "class_fractions.csv", "entropy.csv",
     "activity.csv", "congruence.csv", "sampled_scores.csv", "graphs.cache"]
    + [f"delta_vs_ms_k{k}.csv" for k in range(1, 11)]
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # echoscope subcommand: "report" or "validate"
    default_seed: int
    flags: dict[str, tuple[str, ...]]  # extra CLI flags per scale
    make: Callable[[str, int, str, Path], dict]
    sources: tuple[str, ...]  # program files the generator depends on

    @property
    def expected_files(self) -> frozenset[str]:
        return REPORT_FILES if self.command == "report" else frozenset(["validate.json"])

    def argv(self, input_dir: Path, out_dir: Path, scale: str) -> list[str]:
        files = [str(input_dir / name) for name in INPUT_FILES]
        args = [self.command, "--scores", files[0], "--edges", files[1], "--events", files[2]]
        out = out_dir if self.command == "report" else out_dir / "validate.json"
        return args + ["--out", str(out), *self.flags[scale]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "crit9",
            "the ROADMAP-fixed criterion-9 report; no stage takes more than about a quarter of the time",
            "report", 99,
            {"full": ("--reps", "1000", "--baseline-users", "100", "--seed", "7"),
             "tiny": ("--reps", "20", "--baseline-users", "10", "--seed", "7")},
            _make_synth, ("synth.py", "ingest.py"),
        ),
        Workload(
            "unique_sets",
            "set-semantics exposures over 2,000 domains dominate; baseline and write are small",
            "report", 2024,
            {"full": ("--unique-domains", "--reps", "200", "--baseline-users", "50", "--sample-n", "10000"),
             "tiny": ("--unique-domains", "--reps", "20", "--baseline-users", "5", "--sample-n", "500")},
            _make_synth, ("synth.py", "ingest.py"),
        ),
        Workload(
            "ingest_urls",
            "validate on a URL-heavy log with ~70k distinct hosts; exercises ingest and psl only",
            "validate", 1,
            {"full": (), "tiny": ()},
            _make_urllog, (),
        ),
    )
}


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def inputs_for(w: Workload, seed: int, scale: str, work: Path, src: Path) -> tuple[Path, dict]:
    """Directory holding the workload's inputs for ``seed``, generating it if needed.

    Returns the directory and its metadata: what the generator knows the
    program must report, plus the size and sha256 of each input file.
    """
    key = hashlib.sha256(f"v{GENERATOR_VERSION}".encode())
    for name in w.sources:
        key.update((src / "echoscope" / name).read_bytes())
    root = work / "inputs"
    target = root / f"{w.name}-{scale}-s{seed}-{key.hexdigest()[:12]}"
    meta_path = target / "meta.json"
    if meta_path.exists():
        meta_path.touch()  # recency for eviction
        return target, json.loads(meta_path.read_text())

    partial = target.with_name(target.name + ".partial")
    shutil.rmtree(partial, ignore_errors=True)
    partial.mkdir(parents=True)
    meta = w.make(w.name, seed, scale, partial)
    meta["files"] = {}
    for name in INPUT_FILES:
        with open(partial / name, "rb") as fh:
            os.fsync(fh.fileno())  # no write-back of fresh inputs during the timed runs
        meta["files"][name] = {"bytes": (partial / name).stat().st_size, "sha256": sha256_file(partial / name)}
    (partial / "meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True))
    shutil.rmtree(target, ignore_errors=True)
    partial.rename(target)

    siblings = sorted(
        (p for p in root.glob(f"{w.name}-*") if (p / "meta.json").exists()),
        key=lambda p: (p / "meta.json").stat().st_mtime,
    )
    for old in siblings[:-KEEP_INPUT_SETS]:
        shutil.rmtree(old, ignore_errors=True)
    return target, meta
