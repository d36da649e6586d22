"""Large-scale parse test: a follower file at real-crawl size must stay
inside a 2 GB memory budget. Run explicitly with `pytest -m slow`."""
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
