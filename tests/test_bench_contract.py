"""The program names and outputs the benchmark in perfbench/ relies on.

perfbench/tracer.py wraps functions at the module attributes their callers
use and reloads the graph cache a run wrote; perfbench/workloads.py builds
its inputs with the synthetic generator and the ingest writers. A change that
drops or renames one of those names fails here instead of in the benchmark.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads


def test_tracer_runs_a_tiny_report(workloads, tmp_path):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    meta = workloads._make_synth("crit9", 7, "tiny", inputs)
    assert meta["records"] == meta["counts"]["n_edges"] + meta["counts"]["n_events"]
    assert meta["counts"]["n_retweets"] > 0

    crit9 = workloads.WORKLOADS["crit9"]
    out = tmp_path / "out"
    trace_path = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]))
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracer.py"), str(trace_path), "--",
         *crit9.argv(inputs, out, "tiny")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr

    trace = json.loads(trace_path.read_text())
    names = {span[0] for span in trace["spans"]}
    assert {"report.build", "report.write", "graph.cache_save"} <= names
    # the tracer reloaded the cache with graph_fingerprint(cfg)
    assert trace["values"]["graph.cache_bytes"] == (out / "graphs.cache").stat().st_size
    assert "graph.cache_load_s" in trace["values"]

    assert {p.name for p in out.iterdir()} == crit9.expected_files
    report = json.loads((out / "report.json").read_text())
    for key, value in meta["counts"].items():
        assert report["counts"][key] == value, key


def test_tracer_runs_a_tiny_validate(workloads, tmp_path):
    # the traced validate reaches load_dataset and validate_dataset through
    # the names echoscope.cli holds at load time
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    meta = workloads._make_urllog("ingest_urls", 1, "tiny", inputs)

    ingest_urls = workloads.WORKLOADS["ingest_urls"]
    out = tmp_path / "out"
    out.mkdir()
    trace_path = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]))
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracer.py"), str(trace_path), "--",
         *ingest_urls.argv(inputs, out, "tiny")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr

    trace = json.loads(trace_path.read_text())
    names = {span[0] for span in trace["spans"]}
    assert {"ingest.load", "ingest.validate", "ingest.parse_events"} <= names
    assert trace["values"]["ingest.events_kept"] == meta["counters"]["n_events"]

    assert {p.name for p in out.iterdir()} == ingest_urls.expected_files
    payload = json.loads((out / "validate.json").read_text())
    assert payload["counters"] == meta["counters"]
