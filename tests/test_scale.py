"""Large-scale parse tests: a follower file at real-crawl size must stay
inside a 2 GB memory budget, and a two-million-line event log inside
``EVENT_RSS_BOUND_MB``. Run explicitly with `pytest -m slow`."""
import subprocess
import sys
import textwrap

import numpy as np
import pytest

N_EDGES = 17_000_000
N_USERS = 4_000_000
N_SEEDS = 5_600


@pytest.mark.slow
def test_seventeen_million_edges_within_two_gigabytes(tmp_path):
    path = tmp_path / "edges.csv"
    rng = np.random.default_rng(8)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("follower,friend\n")
        chunk = 1_000_000
        remaining = N_EDGES
        while remaining > 0:
            size = min(chunk, remaining)
            src = rng.integers(0, N_SEEDS, size=size)
            dst = rng.integers(0, N_USERS, size=size)
            fh.writelines(
                f"s{a},u{b}\n" for a, b in zip(src.tolist(), dst.tolist())
            )
            remaining -= size

    script = textwrap.dedent(
        f"""
        import resource
        import time
        from echoscope.ingest import parse_follow_edges
        start = time.perf_counter()
        edges = parse_follow_edges({str(path)!r})
        parse_s = time.perf_counter() - start
        assert edges.n_edges > {N_EDGES} * 0.9, edges.n_edges
        print("edges", edges.n_edges)
        print("parse_s", parse_s)
        print("rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=1800
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    values = dict(line.split() for line in proc.stdout.strip().splitlines())
    print(f"parse_s {float(values['parse_s']):.2f} rss_mb {float(values['rss_mb']):.0f}")
    assert float(values["rss_mb"]) < 2048, values


N_EVENTS = 2_000_000
# the child's peak RSS was 443 MiB with a parser that read one line at a
# time and 445 MiB with the block reader (2-vCPU host, Python 3.11.7, numpy
# 2.4); the bound leaves about a quarter of headroom over both
EVENT_RSS_BOUND_MB = 560


@pytest.mark.slow
def test_two_million_event_lines_within_memory_bound(tmp_path):
    path = tmp_path / "events.jsonl"
    rng = np.random.default_rng(9)
    chunk = 250_000
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, N_EVENTS, chunk):
            authors = rng.integers(0, 50_000, size=chunk).tolist()
            origs = rng.integers(0, 50_000, size=chunk).tolist()
            retweets = (rng.random(chunk) < 0.4).tolist()
            domains = rng.integers(0, 2_000, size=chunk).tolist()
            fh.writelines(
                f'{{"id":"t{start + i}","author":"u{a}","ts":{start + i},"kind":"retweet",'
                f'"orig_author":"u{o}","urls":["https://www.d{d}.example/a/{i}"]}}\n'
                if rt else
                f'{{"id":"t{start + i}","author":"u{a}","ts":{start + i},"kind":"original",'
                f'"urls":["http://d{d}.example/",null]}}\n'
                for i, a, o, rt, d in zip(range(chunk), authors, origs, retweets, domains)
            )

    script = textwrap.dedent(
        f"""
        import resource
        import time
        from echoscope.ingest import parse_events
        start = time.perf_counter()
        log = parse_events({str(path)!r})
        parse_s = time.perf_counter() - start
        assert len(log) + log.n_self_retweets_dropped == {N_EVENTS}, len(log)
        print("events", len(log))
        print("parse_s", parse_s)
        print("rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=1800
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    values = dict(line.split() for line in proc.stdout.strip().splitlines())
    print(f"parse_s {float(values['parse_s']):.2f} rss_mb {float(values['rss_mb']):.0f}")
    assert float(values["rss_mb"]) < EVENT_RSS_BOUND_MB, values
