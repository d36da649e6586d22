import dataclasses
import json
import os

import pytest

from conftest import ev, make_bundle, rt
from echoscope.errors import EchoscopeError
from echoscope.report import RunConfig, build_report, write_report


def run_config(tmp_path, **overrides):
    base = dict(
        scores="unused", edges="unused", events="unused",
        out_dir=str(tmp_path / "out"),
        k_min=1, k_max=3, reps=10, sample_n=50, seed=3,
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture
def rich_bundle():
    scores = {"l.x": 0.0, "lc.x": 0.25, "m.x": 0.5, "rc.x": 0.75, "r.x": 1.0}
    users = ["s1", "s2", "s3", "f1", "f2", "f3"]
    edges = [
        ("s1", "f1"), ("s1", "f2"), ("s2", "f2"), ("s2", "f3"),
        ("s3", "f1"), ("s3", "f3"), ("s1", "s2"), ("s2", "s1"), ("s3", "s1"),
    ]
    events = []
    t = 0
    for author, domain in [
        ("s1", "l.x"), ("s1", "lc.x"), ("s2", "m.x"), ("s3", "r.x"),
        ("f1", "l.x"), ("f1", "lc.x"), ("f2", "m.x"), ("f3", "r.x"), ("f3", "rc.x"),
    ]:
        t += 10
        events.append(ev(f"o{t}", author, t, domains=[domain]))
    for author, orig in [("s1", "f1"), ("s1", "f1"), ("s2", "f2"), ("s3", "f3")]:
        t += 10
        events.append(rt(f"r{t}", author, t, orig))
    return make_bundle(scores, edges, events)


def test_build_report_sections(rich_bundle, tmp_path):
    cfg = run_config(tmp_path)
    report = build_report(rich_bundle, cfg)
    sections, tables = report.sections, report.tables
    assert set(sections["correlations"]) == {"1", "2", "3"}
    assert {c["mode"] for c in sections["overlap_curves"]} == {"account", "content"}
    assert set(sections["class_fractions"]) == {"follower", "retweet", "baseline"}
    for kind in sections["class_fractions"].values():
        assert set(kind) == {"Moderate", "Hardliner"}
    header, cells = tables["echo_heatmap_f.csv"]
    assert header == ["ms_bin", "me_bin", "count"]
    assert [cell[:2] for cell in cells] == [(i, j) for i in range(25) for j in range(25)]
    header, users = tables["user_metrics.csv"]
    m_s, m_e_f = header.index("m_s"), header.index("m_e_f")
    n_with_both = sum(1 for row in users if row[m_s] is not None and row[m_e_f] is not None)
    assert sum(cell[2] for cell in cells) == n_with_both
    sources = {row[0] for row in tables["sampled_scores.csv"][1]}
    assert "random_user" in sources and "random_friend" in sources
    assert sections["meta"]["config_hash"] == cfg.config_hash()


def test_write_report_files(rich_bundle, tmp_path):
    cfg = run_config(tmp_path)
    report = build_report(rich_bundle, cfg)
    names = write_report(report, cfg.out_dir)
    expected = {
        "report.json", "user_metrics.csv", "overlap_curve.csv", "overlap_user_k1.csv",
        "echo_heatmap_f.csv", "echo_heatmap_r.csv", "class_fractions.csv",
        "entropy.csv", "activity.csv", "congruence.csv", "sampled_scores.csv",
        "delta_vs_ms_k1.csv", "delta_vs_ms_k2.csv", "delta_vs_ms_k3.csv",
    }
    assert set(names) == expected
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["counts"]["n_seeds"] == 3  # seeds are the edge-list sources
    heat = (tmp_path / "out" / "echo_heatmap_f.csv").read_text().splitlines()
    assert heat[0] == "ms_bin,me_bin,count"
    assert len(heat) == 1 + 25 * 25


def test_config_hash_ignores_execution_knobs(tmp_path):
    a = run_config(tmp_path, threads=1, no_cache=False, out_dir=str(tmp_path / "a"))
    b = run_config(tmp_path, threads=8, no_cache=True, out_dir=str(tmp_path / "b"))
    assert a.config_hash() == b.config_hash()
    c = run_config(tmp_path, seed=4)
    assert c.config_hash() != a.config_hash()


def test_run_config_validation(tmp_path):
    with pytest.raises(EchoscopeError):
        run_config(tmp_path, k_min=0)
    with pytest.raises(EchoscopeError):
        run_config(tmp_path, k_max=0)
    with pytest.raises(EchoscopeError):
        run_config(tmp_path, reps=0)
    with pytest.raises(EchoscopeError):
        run_config(tmp_path, overlap_mode="sideways")
    with pytest.raises(EchoscopeError):
        run_config(tmp_path, threads=0)
    for field, value in (
        ("heatmap_bins", 0),
        ("heatmap_bins", -3),
        ("baseline_users", -1),
        ("entropy_bins", 1),
        ("sample_n", 0),
    ):
        with pytest.raises(EchoscopeError, match=field):
            run_config(tmp_path, **{field: value})


def test_report_on_empty_window(rich_bundle, tmp_path):
    cfg = run_config(tmp_path, window=(10**9, 10**9 + 1))
    report = build_report(rich_bundle, cfg)
    sections = report.sections
    assert "window excludes every event" in sections["markers"]
    assert "no scored users" in sections["markers"]
    assert sections["correlations"]["1"]["n_paired"] == 0
    assert sections["correlations"]["1"]["ms_vs_mef"]["r"] is None
    write_report(report, cfg.out_dir)  # must not raise


def test_baseline_user_cap(rich_bundle, tmp_path):
    cfg = run_config(tmp_path, baseline_users=1)
    report = build_report(rich_bundle, cfg)
    assert report.sections["counts"]["n_baseline_users"] == 1
    full = build_report(rich_bundle, run_config(tmp_path))
    assert full.sections["counts"]["n_baseline_users"] > 1


def test_single_overlap_mode(rich_bundle, tmp_path):
    cfg = run_config(tmp_path, overlap_mode="account")
    report = build_report(rich_bundle, cfg)
    assert [c["mode"] for c in report.sections["overlap_curves"]] == ["account"]
    assert {row[0] for row in report.tables["overlap_curve.csv"][1]} == {"account"}


class Unprintable:
    def __str__(self):
        raise RuntimeError("cannot format this value")


def test_write_report_replaces_each_file_atomically(rich_bundle, tmp_path):
    report = build_report(rich_bundle, run_config(tmp_path))
    header, rows = report.tables["sampled_scores.csv"]
    assert len(rows) > 20
    tables = dict(report.tables)
    bad_row = ("random_user", Unprintable())
    tables["sampled_scores.csv"] = (header, rows[:10] + [bad_row] + rows[10:])
    broken = dataclasses.replace(report, tables=tables)
    # over a complete earlier report: every file keeps its complete old bytes
    out = tmp_path / "again"
    write_report(report, str(out))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    with pytest.raises(RuntimeError, match="cannot format"):
        write_report(broken, str(out))
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # into a fresh directory: the failing file never appears under its name
    fresh = tmp_path / "fresh"
    with pytest.raises(RuntimeError, match="cannot format"):
        write_report(broken, str(fresh))
    names = os.listdir(fresh)
    assert "sampled_scores.csv" not in names
    assert "report.json" in names
    assert not any(name.endswith(".tmp") for name in names)
