"""Traced in-process run of one echoscope CLI invocation, and its layer metrics.

Run as a child process::

    python3 perfbench/tracer.py TRACE_JSON -- <echoscope CLI arguments>

It imports ``echoscope.cli`` (timing the import), wraps public functions at
the module attributes their callers actually use, runs ``cli.main`` once,
then reads the graph cache the run wrote back through ``load_graph_cache``.
Coarse boundaries get spans (name, start, end, parent); hot calls get
count-only wrappers, so no file of the program changes. Spans stay in memory
and are written to TRACE_JSON at the end. ``layer_metrics`` turns that file
into the per-layer metrics, including self times.
"""
from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute) -> span name. Each target is the name its caller
# looks up at call time, e.g. report.py calls the build_follower_graph it
# imported into its own namespace.
SPANS = {
    ("echoscope.cli", "load_dataset"): "ingest.load",
    ("echoscope.report", "load_dataset"): "ingest.load",
    ("echoscope.ingest", "parse_domain_scores"): "ingest.parse_scores",
    ("echoscope.ingest", "parse_follow_edges"): "ingest.parse_edges",
    ("echoscope.ingest", "parse_events"): "ingest.parse_events",
    ("echoscope.cli", "validate_dataset"): "ingest.validate",
    ("echoscope.cli", "run_report"): "report.run",
    ("echoscope.report", "build_graphs"): "graph.build_graphs",
    ("echoscope.report", "load_graph_cache"): "graph.cache_probe",
    ("echoscope.report", "build_follower_graph"): "graph.build_follower",
    ("echoscope.report", "build_retweet_graph"): "graph.build_retweet",
    ("echoscope.report", "save_graph_cache"): "graph.cache_save",
    ("echoscope.report", "build_report"): "report.build",
    ("echoscope.moderacy.MetricsEngine", "__init__"): "moderacy.engine_init",
    ("echoscope.moderacy.MetricsEngine", "metrics_at"): "moderacy.exposures",
    ("echoscope.report", "overlap_vs_threshold"): "graph.overlap",
    ("echoscope.report", "fraction_friends_retweeted"): "graph.overlap",
    ("echoscope.report", "retweet_overlap"): "graph.overlap",
    ("echoscope.report", "exposure_class_fractions"): "moderacy.class_fractions",
    ("echoscope.report", "random_baseline_fractions"): "moderacy.baseline",
    ("echoscope.report", "friend_activity_comparison"): "moderacy.activity",
    ("echoscope.report", "congruent_friend_fraction_diff"): "moderacy.congruence",
    ("echoscope.report", "entropy_comparison"): "stats.entropy",
    ("echoscope.report", "pearson"): "stats.tests",
    ("echoscope.report", "mann_whitney_u"): "stats.tests",
    ("echoscope.stats", "mann_whitney_u"): "stats.tests",
    ("echoscope.report", "sample_friends_by_indegree"): "graph.sample",
    ("echoscope.report", "write_report"): "report.write",
}
# hot calls: counted only
COUNTS = {
    ("echoscope.moderacy.ExposureIndex", "scored"): "moderacy.index_queries",
    ("echoscope.moderacy.ExposureIndex", "moderate_count"): "moderacy.index_queries",
    ("echoscope.graph.FollowerGraph", "friends"): "graph.friend_set_calls",
    ("echoscope.graph.RetweetGraph", "retweet_friends"): "graph.friend_set_calls",
    ("echoscope.moderacy", "sample_random_friend_subset"): "moderacy.baseline_draws",
    ("echoscope.report", "substream"): "rng.substreams",
    ("echoscope.report", "pearson"): "stats.test_calls",
    ("echoscope.report", "mann_whitney_u"): "stats.test_calls",
    ("echoscope.stats", "mann_whitney_u"): "stats.test_calls",
}

# per-layer metric -> unit, in report order
LAYER_UNITS = {
    "cli.import_s": "s",
    "ingest.parse_edges_s": "s",
    "ingest.parse_events_s": "s",
    "ingest.validate_s": "s",
    "ingest.edges_kept": "count",
    "ingest.edges_dup_dropped": "count",
    "ingest.self_loops_dropped": "count",
    "ingest.events_kept": "count",
    "ingest.self_retweets_dropped": "count",
    "ingest.urls_dropped": "count",
    "ingest.rss_mb": "MiB",
    "psl.extract_calls": "count",
    "psl.distinct_hosts": "count",
    "psl.novel_host_ratio": "ratio",
    "psl.extract_s": "s",
    "graph.build_follower_s": "s",
    "graph.build_retweet_s": "s",
    "graph.overlap_s": "s",
    "graph.sample_s": "s",
    "graph.cache_save_s": "s",
    "graph.cache_load_s": "s",
    "graph.cache_bytes": "B",
    "graph.friend_set_calls": "count",
    "moderacy.engine_init_s": "s",
    "moderacy.exposures_s": "s",
    "moderacy.class_fractions_s": "s",
    "moderacy.baseline_s": "s",
    "moderacy.activity_s": "s",
    "moderacy.congruence_s": "s",
    "moderacy.index_queries": "count",
    "moderacy.baseline_draws": "count",
    "stats.entropy_s": "s",
    "stats.tests_s": "s",
    "stats.test_calls": "count",
    "rng.substreams": "count",
    "report.build_s": "s",
    "report.self_s": "s",
    "report.write_s": "s",
    "report.bytes_written": "B",
    "report.rows_written": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.values: dict[str, float] = {"psl.extract_s": 0.0}
        self.hosts: set[str] = set()
        self.config = None  # the RunConfig a report run used

    def span(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, time.perf_counter(), None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = time.perf_counter()

        return wrapper

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for table, make in ((SPANS, self.span), (COUNTS, self.count)):
            for (owner, attr), name in table.items():
                target = _resolve(owner)
                setattr(target, attr, make(name, getattr(target, attr)))
        self._wrap("echoscope.ingest", "extract_pld", self._timed_extract)
        self._wrap("echoscope.psl.SuffixRules", "registrable_domain", self._seen_host)
        self._wrap("echoscope.cli", "load_dataset", self._record_ingest)
        self._wrap("echoscope.report", "load_dataset", self._record_ingest)
        self._wrap("echoscope.cli", "run_report", self._keep_config)

    @staticmethod
    def _wrap(owner: str, attr: str, make) -> None:
        target = _resolve(owner)
        fn = getattr(target, attr)
        setattr(target, attr, functools.wraps(fn)(make(fn)))

    def _timed_extract(self, extract):
        counts, values = self.counts, self.values

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return extract(*args, **kwargs)
            finally:
                values["psl.extract_s"] += time.perf_counter() - t0
                counts["psl.extract_calls"] += 1

        return wrapper

    def _seen_host(self, registrable):
        hosts = self.hosts

        def wrapper(rules, host):
            hosts.add(host)
            return registrable(rules, host)

        return wrapper

    def _record_ingest(self, load):
        def wrapper(*args, **kwargs):
            bundle = load(*args, **kwargs)
            self.values.update({
                "ingest.edges_kept": bundle.edges.n_edges,
                "ingest.edges_dup_dropped": bundle.edges.n_duplicates_dropped,
                "ingest.self_loops_dropped": bundle.edges.n_self_loops_dropped,
                "ingest.events_kept": len(bundle.log),
                "ingest.self_retweets_dropped": bundle.log.n_self_retweets_dropped,
                "ingest.urls_dropped": bundle.log.n_urls_dropped,
                "ingest.rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            })
            return bundle

        return wrapper

    def _keep_config(self, run_report):
        def wrapper(cfg):
            self.config = cfg
            return run_report(cfg)

        return wrapper

    def reload_cache(self) -> None:
        """Time the cache read path once, on the file this run just wrote."""
        if self.config is None:
            return
        from echoscope.graph import load_graph_cache
        from echoscope.report import graph_fingerprint

        path = Path(self.config.out_dir) / "graphs.cache"
        fingerprint = graph_fingerprint(self.config)
        t0 = time.perf_counter()
        graphs = load_graph_cache(str(path), fingerprint)
        self.values["graph.cache_load_s"] = time.perf_counter() - t0
        if graphs is None:
            raise RuntimeError(f"{path} did not load back")
        self.values["graph.cache_bytes"] = path.stat().st_size

    def dump(self, path: str) -> None:
        self.values["psl.distinct_hosts"] = len(self.hosts)
        payload = {"spans": self.spans, "counts": dict(self.counts), "values": self.values}
        Path(path).write_text(json.dumps(payload, separators=(",", ":")))


def _resolve(owner: str):
    """A module, or a class when the last dotted part is capitalised."""
    head, _, last = owner.rpartition(".")
    if last[0].isupper():
        return getattr(importlib.import_module(head), last)
    return importlib.import_module(owner)


def span_totals(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Total and self time per span name.

    A span nested directly in one of its own name is not counted twice in
    the total; self time is a span's duration minus its direct children's.
    """
    child_time = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for i, (name, parent, start, end) in enumerate(spans):
        if parent < 0 or spans[parent][0] != name:
            total[name] += end - start
        own[name] += end - start - child_time[i]
    return total, own


def layer_metrics(trace: dict, out_dir: Path, overhead_s: float) -> dict[str, float]:
    """Every metric in LAYER_UNITS; layers the run never entered read 0."""
    total, own = span_totals(trace["spans"])
    metrics = {name: 0.0 if unit == "s" else 0 for name, unit in LAYER_UNITS.items()}
    for name in LAYER_UNITS:
        if name.endswith("_s") and name[:-2] in total:
            metrics[name] = total[name[:-2]]
    metrics.update((k, v) for k, v in trace["counts"].items() if k in LAYER_UNITS)
    metrics.update(trace["values"])
    metrics["report.self_s"] = own.get("report.build", 0.0)
    calls = metrics["psl.extract_calls"]
    metrics["psl.novel_host_ratio"] = metrics["psl.distinct_hosts"] / calls if calls else 0.0
    if "report.write" in total:
        files = [p for p in out_dir.iterdir() if p.name != "graphs.cache"]
        metrics["report.bytes_written"] = sum(p.stat().st_size for p in files)
        metrics["report.rows_written"] = sum(
            p.read_bytes().count(b"\n") - 1 for p in files if p.suffix == ".csv"
        )
    metrics["trace.overhead_s"] = overhead_s
    return metrics


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit("usage: tracer.py TRACE_JSON -- <echoscope arguments>")
    trace_path, cli_args = argv[0], argv[2:]
    t0 = time.perf_counter()
    import echoscope.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.values["cli.import_s"] = import_s
    tracer.install()
    rc = tracer.span("cli.main", echoscope.cli.main)(cli_args)
    if rc == 0:
        tracer.reload_cache()
    tracer.dump(trace_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
