import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ev, graphs_of, make_bundle, rt, t_two_sided_reference, two_pass_r
from echoscope import ingest
from echoscope import report as report_module
from echoscope.cli import main
from echoscope.errors import EchoscopeError
from echoscope.graph import build_follower_graph, build_retweet_graph, user_space
from echoscope.ingest import load_dataset, write_domain_scores, write_events, write_follow_edges
from echoscope.moderacy import MetricsEngine
from echoscope.oracle import oracle_metrics, score_weights
from echoscope.report import RunConfig, _mean, _write_csv, build_report, write_report
from echoscope.synth import SynthConfig, generate


def run_config(tmp_path, **overrides):
    base = dict(
        scores="unused", edges="unused", events="unused",
        out_dir=str(tmp_path / "out"),
        k_min=1, k_max=3, reps=10, seed=3,
    )
    base.update(overrides)
    return RunConfig(**base)


def values(column) -> list:
    """A table column's cell values, in row order."""
    return column.tolist() if isinstance(column, np.ndarray) else list(column)


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
    header, (ms_bin, me_bin, count) = tables["echo_heatmap_f.csv"]
    assert header == ["ms_bin", "me_bin", "count"]
    bins = list(zip(values(ms_bin), values(me_bin)))
    assert bins == [(i, j) for i in range(25) for j in range(25)]
    header, columns = tables["user_metrics.csv"]
    m_s, m_e_f = (values(columns[header.index(name)]) for name in ("m_s", "m_e_f"))
    n_with_both = sum(1 for a, b in zip(m_s, m_e_f) if not math.isnan(a) and not math.isnan(b))
    assert sum(values(count)) == n_with_both
    sources = set(values(tables["sampled_scores.csv"][1][0]))
    assert "random_user" in sources and "random_friend" in sources
    assert sections["meta"]["config_hash"] == cfg.config_hash()


def test_write_report_files(rich_bundle, tmp_path):
    cfg = run_config(tmp_path)
    report = build_report(rich_bundle, cfg)
    os.mkdir(cfg.out_dir)  # the report command makes it
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


def test_run_report_lets_the_parsed_inputs_go_before_writing(rich_bundle, tmp_path, monkeypatch):
    data = tmp_path / "data"
    data.mkdir()
    write_domain_scores(rich_bundle.scores, str(data / "scores.csv"))
    write_follow_edges(rich_bundle.edges, str(data / "edges.csv"))
    write_events(rich_bundle.log, str(data / "events.jsonl"))
    cfg = run_config(
        tmp_path, scores=str(data / "scores.csv"), edges=str(data / "edges.csv"),
        events=str(data / "events.jsonl"),
    )
    os.mkdir(cfg.out_dir)
    load, write = report_module.load_dataset, report_module.write_report
    edges, alive = [], []

    def loading(*paths):
        bundle = load(*paths)
        edges.append(weakref.ref(bundle.edges))
        return bundle

    def writing(report, out_dir):
        alive.append(edges[-1]() is not None)
        return write(report, out_dir)

    monkeypatch.setattr(report_module, "load_dataset", loading)
    monkeypatch.setattr(report_module, "write_report", writing)
    for _ in range(2):  # the second run writes into the first run's directory
        report_module.run_report(cfg)
    assert alive == [False, False]


def test_report_means_add_left_to_right():
    # Python 3.12's sum would give 0.25 here; left to right, 1e16 + 1.0 rounds to 1e16
    assert _mean([1e16, 1.0, -1e16, 0.0]) == 0.0
    assert _mean([3, 4]) == 3.5
    assert _mean([]) is None


def test_config_hash_ignores_execution_knobs(tmp_path):
    a = run_config(tmp_path, no_cache=False, out_dir=str(tmp_path / "a"))
    b = run_config(tmp_path, no_cache=True, out_dir=str(tmp_path / "b"))
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
    for field, value in (
        ("heatmap_bins", 0),
        ("heatmap_bins", -3),
        ("baseline_users", -1),
        ("entropy_bins", 1),
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
    assert len(report.tables["sampled_scores.csv"][1][0]) == 0  # no scored user, no row
    os.mkdir(cfg.out_dir)
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
    assert set(values(report.tables["overlap_curve.csv"][1][0])) == {"account"}


@pytest.mark.parametrize("broken_file", ["echo_heatmap_f.csv", "report.json"])
def test_write_report_replaces_each_file_atomically(rich_bundle, tmp_path, monkeypatch, broken_file):
    report = build_report(rich_bundle, run_config(tmp_path))
    table = "echo_heatmap_f.csv"
    header, columns = report.tables[table]
    cells = [values(column) for column in columns]
    assert len(cells[0]) > 20
    opened, partial = [], []
    real_open = ingest.atomic_open

    @contextlib.contextmanager
    def noting(path):
        with real_open(path) as fh:
            opened.append(fh)
            yield fh

    class Unprintable:
        def __str__(self):
            # the table's temporary file already holds its header
            fh = opened[-1]
            fh.flush()
            partial.append((Path(fh.name).name, Path(fh.name).read_text()))
            raise RuntimeError("cannot format this value")

    if broken_file == table:
        tables = dict(report.tables)
        tables[table] = (
            header,
            [column[:10] + [cell] + column[10:] for column, cell in zip(cells, [0, 0, Unprintable()])],
        )
        broken = dataclasses.replace(report, tables=tables)
        fault, message = RuntimeError, "cannot format"
    else:  # a report.json section that json cannot serialize
        broken = dataclasses.replace(report, sections={**report.sections, "markers": [object()]})
        fault, message = TypeError, "not JSON serializable"
    monkeypatch.setattr(ingest, "atomic_open", noting)
    # over a complete earlier report: every file keeps its complete old bytes
    out = tmp_path / "again"
    out.mkdir()
    write_report(report, str(out))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    with pytest.raises(fault, match=message):
        write_report(broken, str(out))
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # into a fresh directory: the failing file never appears under its name
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    with pytest.raises(fault, match=message):
        write_report(broken, str(fresh))
    names = os.listdir(fresh)
    assert table not in names
    assert not any(name.endswith(".tmp") for name in names)
    if broken_file == "report.json":  # the first file written: nothing follows it
        assert names == []
    else:
        assert "report.json" in names
        assert len(partial) == 2
        for tmp_name, text in partial:
            assert tmp_name.startswith(table) and tmp_name.endswith(".tmp")
            assert text == ",".join(header) + "\n"


def _fmt(value) -> str:
    """The row writer's cell format, kept as the column writer's reference."""
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def reference_csv(header: list[str], columns: list) -> bytes:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in zip(*(values(column) for column in columns)):
        writer.writerow([_fmt(v) for v in row])
    return out.getvalue().encode("utf-8")


SPECIAL_FLOATS = [math.nan, 0.0, -0.0, math.inf, -math.inf, 1e-05, 1e16, 5e-324]
texts = st.text(
    st.sampled_from([",", '"', "\r", "\n", " ", "a", "0", "\u00e9", "\u2028"]), max_size=5
)
cells = {
    "float": st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
    "int": st.integers(-(2**63), 2**63 - 1),
    "text": st.one_of(st.none(), texts, st.text(max_size=4)),
}
cells["mixed"] = st.one_of(st.none(), texts, cells["float"], st.integers(-(10**30), 10**30))


@st.composite
def plain_columns(draw, n_rows: int):
    kind = draw(st.sampled_from(sorted(cells)))
    column = draw(st.lists(cells[kind], min_size=n_rows, max_size=n_rows))
    if kind in ("float", "int"):
        return np.array(column, dtype=np.float64 if kind == "float" else np.int64)
    return column


@st.composite
def table_columns(draw, n_rows: int):
    """A column of any cells, or one value in every row; a repeated text may
    be one that csv must quote."""
    if draw(st.booleans()):
        return draw(plain_columns(n_rows))
    value = draw(plain_columns(1))
    return np.repeat(value, n_rows) if isinstance(value, np.ndarray) else value * n_rows


@st.composite
def tables(draw):
    n_rows = draw(st.integers(0, 12))
    width = draw(st.integers(1, 8))
    header = draw(st.lists(texts, min_size=width, max_size=width))
    return header, [draw(table_columns(n_rows)) for _ in range(width)]


@given(tables())
@settings(max_examples=400, deadline=None)
def test_column_writer_matches_row_writer(table):
    header, columns = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        _write_csv(path, header, columns)
        assert path.read_bytes() == reference_csv(header, columns)


def test_column_writer_sampled_scores_shape(tmp_path):
    # sampled_scores.csv's columns as build_report makes them: source names
    # taken by id, scores picked from the distinct m_s, int weights
    sources = ["random_friend", "random_retweet_friend", "random_user"]
    source_ids = np.repeat(np.arange(3), [3, 2, 4])
    distinct = np.array([1e-05, 0.25, 0.5, math.nan])
    rows = np.array([0, 1, 3, 1, 2, 0, 1, 2, 3])
    weights = np.array([7, 1, 2**40, 3, 5, 1, 1, 1, 1], dtype=np.int64)
    columns = [report_module._at(sources, source_ids), distinct[rows], weights]
    path = tmp_path / "t.csv"
    _write_csv(path, ["source", "score", "weight"], columns)
    assert path.read_bytes() == reference_csv(["source", "score", "weight"], columns)
    assert path.read_text().splitlines() == [
        "source,score,weight",
        "random_friend,1e-05,7",
        "random_friend,0.25,1",
        f"random_friend,,{2**40}",
        "random_retweet_friend,0.25,3",
        "random_retweet_friend,0.5,5",
        "random_user,1e-05,1",
        "random_user,0.25,1",
        "random_user,0.5,1",
        "random_user,,1",
    ]


def test_column_writer_writes_a_user_sized_table_exactly(tmp_path):
    # one row per user, as in the per-user tables: distinct floats taken in a
    # shuffled order with NaNs scattered among them, ints and listed names
    n_rows = 10_000
    rng = np.random.default_rng(0)
    floats = rng.random(n_rows)
    floats[rng.choice(n_rows, 300, replace=False)] = math.nan
    ids = rng.permutation(n_rows)
    names = report_module._at([f"user{i}" for i in range(n_rows)], ids)
    columns = [names, floats[ids], ids.astype(np.int64), floats[ids].tolist()]
    path = tmp_path / "t.csv"
    _write_csv(path, ["user", "f", "i", "listed"], columns)
    assert path.read_bytes() == reference_csv(["user", "f", "i", "listed"], columns)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == n_rows
    for row, i in zip(rows, ids.tolist()):
        want = "" if math.isnan(floats[i]) else repr(float(floats[i]))
        assert row == [f"user{i}", want, str(i), want]


def test_column_writer_keeps_csv_quirks(tmp_path):
    # a bare \r is not quoted under lineterminator="\n"; a lone empty field is
    path = tmp_path / "t.csv"
    _write_csv(path, ["a", "b"], [["x\ry", "q,"], ["", 'say "hi"']])
    assert path.read_bytes() == b'a,b\nx\ry,\n"q,","say ""hi"""\n'
    _write_csv(path, ["only"], [["", None, "z"]])
    assert path.read_bytes() == b'only\n""\n""\nz\n'


def test_column_writer_never_writes_numpy_scalar_reprs(tmp_path):
    path = tmp_path / "t.csv"
    columns = [
        np.array([0.5, np.nan, -0.0]),
        np.array([3, -4, 2**62], dtype=np.int64),
        [np.float64(0.5), np.int64(7), np.float64("nan")],
    ]
    _write_csv(path, ["f", "i", "listed"], columns)
    text = path.read_text()
    assert "np." not in text
    rows = ["f,i,listed", "0.5,3,0.5", ",-4,7", f"-0.0,{2**62},"]
    assert text == "\n".join(rows) + "\n"


def test_column_writer_refuses_ragged_tables(tmp_path):
    with pytest.raises(ValueError):
        _write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2], [1]])
    with pytest.raises(ValueError):
        _write_csv(tmp_path / "t.csv", ["a"], [[1], [2]])


# ---------------------------------------------------------------- correlation oracle

# tests/test_golden.py's dataset, and perfbench's crit9 workload at its tiny scale
GOLDEN_SYNTH = SynthConfig(
    n_users=120, n_domains=30, follow_homophily=0.3, base_follow_prob=0.08, attention_bias=2.0,
    activity_rate=8, retweet_rate=6, duration=100_000, seed=5,
)
CRIT9_TINY_SYNTH = SynthConfig(
    n_users=400, n_domains=100, follow_homophily=0.2, base_follow_prob=0.05, attention_bias=5.0,
    activity_rate=6.2, retweet_rate=4.0, duration=1_000_000, seed=7,
)


@pytest.mark.parametrize("synth, flags", [
    (GOLDEN_SYNTH, ["--reps", "20", "--sample-n", "200"]),
    (GOLDEN_SYNTH, ["--reps", "20", "--sample-n", "200",
                    "--unique-domains", "--window", "20000..80000", "--k-max", "3"]),
    (CRIT9_TINY_SYNTH, ["--reps", "20", "--baseline-users", "10", "--seed", "7"]),
], ids=["golden", "golden-unique-window", "crit9-tiny"])
def test_written_correlations_match_a_two_pass_loop_and_stdtr(tmp_path, synth, flags):
    """Every correlations block of a written report.json: r within 1e-12 of a
    plain two-pass loop over the pairs the report correlated, p within 1e-12
    relative of 2 * stdtr(n - 2, -|t|) at the written r, and exactly 0.0 where
    stdtr's tail is 0.0. The delta and m_s pairs are the ones
    delta_vs_ms_k*.csv holds."""
    bundle, _ = generate(synth)
    paths = [str(tmp_path / name) for name in ("scores.csv", "edges.csv", "events.jsonl")]
    write_domain_scores(bundle.scores, paths[0])
    write_follow_edges(bundle.edges, paths[1])
    write_events(bundle.log, paths[2])
    out = tmp_path / "out"
    inputs = ["--scores", paths[0], "--edges", paths[1], "--events", paths[2]]
    assert main(["report", *inputs, *flags, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())

    config = report["meta"]["config"]
    loaded = load_dataset(*paths)
    window = tuple(config["window"]) if config["window"] else None
    loaded = dataclasses.replace(loaded, log=loaded.log.restricted(window))
    space = user_space(loaded.seeds, loaded.edges, loaded.log)
    engine = MetricsEngine(
        loaded, build_follower_graph(space), build_retweet_graph(space), config["unique_domains"]
    )
    checked = 0
    for k, blocks in report["correlations"].items():
        mset = engine.metrics_at(int(k))
        paired = np.flatnonzero(~np.isnan(engine.m_s) & ~np.isnan(mset.delta))
        ms, delta = engine.m_s[paired].tolist(), mset.delta[paired].tolist()
        with open(out / f"delta_vs_ms_k{k}.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows == [[engine.names[i], repr(m), repr(d)] for i, m, d in zip(paired, ms, delta)]
        assert blocks["n_paired"] == len(paired)
        pairs = {
            "ms_vs_mef": (ms, mset.m_e_f[paired].tolist()),
            "ms_vs_mer": (ms, mset.m_e_r[paired].tolist()),
            "delta_vs_ms": (delta, ms),
        }
        for name, (xs, ys) in pairs.items():
            block = blocks[name]
            assert block["n"] == len(xs)
            if block["r"] is None:
                assert len(xs) < 3 or len(set(xs)) == 1 or len(set(ys)) == 1, block
                continue
            r = block["r"]
            assert abs(r - two_pass_r(xs, ys)) <= 1e-12, (k, name)
            if abs(r) == 1.0:
                assert block["p"] == 0.0
                continue
            df = len(xs) - 2
            reference = min(t_two_sided_reference(df, r * math.sqrt(df / (1.0 - r * r))), 1.0)
            if reference == 0.0:
                assert block["p"] == 0.0, (k, name)
            elif reference / 2 >= sys.float_info.min:
                assert abs(block["p"] - reference) <= 1e-12 * reference, (k, name)
            checked += 1
    assert checked >= 9


# ---------------------------------------------------------------- sampled_scores.csv


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("window", [None, (20_000, 80_000)], ids=["all", "window"])
def test_score_weights_sum_to_each_sources_scored_total(tmp_path, monkeypatch, window):
    """Per source the weights add up to that graph's indegree over the scored
    users (random_user: their number), each source's scores ascend strictly,
    no weight is 0, and no substream is drawn for the table."""
    keys = []
    substream = report_module.substream

    def recording(seed, *parts):
        keys.append(parts[0])
        return substream(seed, *parts)

    monkeypatch.setattr(report_module, "substream", recording)
    bundle, _ = generate(GOLDEN_SYNTH)
    cfg = run_config(tmp_path, window=window)
    report = build_report(bundle, cfg)
    os.mkdir(cfg.out_dir)
    write_report(report, cfg.out_dir)
    header, *rows = read_rows(Path(cfg.out_dir) / "sampled_scores.csv")
    assert header == ["source", "score", "weight"]

    bundle = dataclasses.replace(bundle, log=bundle.log.restricted(window))
    fg, rg = graphs_of(bundle)
    scored = ~np.isnan(MetricsEngine(bundle, fg, rg).m_s)
    totals = {
        "random_friend": int(fg.indegree()[scored].sum()),
        "random_retweet_friend": int(rg.indegree()[scored].sum()),
        "random_user": report.sections["counts"]["n_scored_users"],
    }
    assert all(totals.values())
    assert [source for source, _, _ in rows] == sorted(
        (source for source, _, _ in rows), key=list(totals).index
    )
    for source, total in totals.items():
        pairs = [(float(score), int(weight)) for name, score, weight in rows if name == source]
        assert sum(weight for _, weight in pairs) == total, source
        scores = [score for score, _ in pairs]
        assert all(a < b for a, b in zip(scores, scores[1:])), source
        assert min(weight for _, weight in pairs) > 0, source
    assert "baseline" in keys
    assert not {"indegree-sample", "random-user-scores"} & set(keys)


@pytest.mark.parametrize("synth, flags", [
    (GOLDEN_SYNTH, ["--reps", "5"]),
    (GOLDEN_SYNTH, ["--reps", "5", "--unique-domains"]),
    (GOLDEN_SYNTH, ["--reps", "5", "--window", "20000..80000"]),
    (CRIT9_TINY_SYNTH, ["--reps", "5", "--baseline-users", "10", "--seed", "7"]),
], ids=["golden", "golden-unique", "golden-window", "crit9-tiny"])
def test_written_score_weights_match_the_oracle_loop(tmp_path, synth, flags):
    """Every row of a written sampled_scores.csv equals ``oracle.score_weights``
    over the (window-restricted) inputs and the m_s that user_metrics.csv
    writes; those m_s are the oracle's own within 1e-12."""
    bundle, _ = generate(synth)
    paths = [str(tmp_path / name) for name in ("scores.csv", "edges.csv", "events.jsonl")]
    write_domain_scores(bundle.scores, paths[0])
    write_follow_edges(bundle.edges, paths[1])
    write_events(bundle.log, paths[2])
    out = tmp_path / "out"
    inputs = ["--scores", paths[0], "--edges", paths[1], "--events", paths[2]]
    assert main(["report", *inputs, *flags, "--out", str(out)]) == 0
    config = json.loads((out / "report.json").read_text())["meta"]["config"]

    loaded = load_dataset(*paths)
    window = tuple(config["window"]) if config["window"] else None
    loaded = dataclasses.replace(loaded, log=loaded.log.restricted(window))
    header, *metrics = read_rows(out / "user_metrics.csv")
    at = header.index("m_s")
    m_s = {row[0]: float(row[at]) for row in metrics if row[at]}
    oracle = oracle_metrics(
        loaded, unique_domains=config["unique_domains"], max_events=len(loaded.log)
    )["m_s"]
    assert set(m_s) == set(oracle)
    assert max(abs(m_s[user] - oracle[user]) for user in m_s) <= 1e-12

    want = [[source, repr(score), str(weight)] for source, score, weight in score_weights(loaded, m_s)]
    assert {row[0] for row in want} == {"random_friend", "random_retweet_friend", "random_user"}
    assert read_rows(out / "sampled_scores.csv") == [["source", "score", "weight"], *want]
