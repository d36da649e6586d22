import dataclasses
import json
import logging
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import echoscope.report as report_mod
from echoscope.cli import REPORT_OPTIONS, _build_run_config, build_parser, main
from echoscope.graph import CACHE_MAGIC, load_graph_cache
from echoscope.ingest import write_domain_scores, write_events, write_follow_edges
from echoscope.synth import SynthConfig, generate

SYNTH_CFG = (
    "n_users = 25\nn_domains = 12\nfollow_homophily = 0.3\n"
    "base_follow_prob = 0.3\nattention_bias = 2.0\nactivity_rate = 6.0\n"
    "retweet_rate = 4.0\nduration = 40000\nseed = 5\n"
)


@pytest.fixture
def dataset_dir(tmp_path):
    bundle, _ = generate(
        SynthConfig(
            n_users=25, n_domains=12, follow_homophily=0.3, base_follow_prob=0.3,
            attention_bias=2.0, activity_rate=6.0, retweet_rate=4.0,
            duration=40_000, seed=5,
        )
    )
    d = tmp_path / "data"
    d.mkdir()
    write_domain_scores(bundle.scores, str(d / "scores.csv"))
    write_follow_edges(bundle.edges, str(d / "edges.csv"))
    write_events(bundle.log, str(d / "events.jsonl"))
    return d


def inputs(d):
    return [
        "--scores", str(d / "scores.csv"),
        "--edges", str(d / "edges.csv"),
        "--events", str(d / "events.jsonl"),
    ]


# ---------------------------------------------------------------- validate


def test_validate_clean_bundle_exit_zero(dataset_dir, capsys):
    assert main(["validate", *inputs(dataset_dir)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"]
    assert payload["counters"]["n_events"] > 0


def test_validate_missing_file_exit_two(dataset_dir, capsys):
    rc = main([
        "validate",
        "--scores", str(dataset_dir / "nope.csv"),
        "--edges", str(dataset_dir / "edges.csv"),
        "--events", str(dataset_dir / "events.jsonl"),
    ])
    assert rc == 2


def test_validate_malformed_csv_exit_two(tmp_path, dataset_dir):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,header\n")
    rc = main([
        "validate",
        "--scores", str(bad),
        "--edges", str(dataset_dir / "edges.csv"),
        "--events", str(dataset_dir / "events.jsonl"),
    ])
    assert rc == 2


def test_validate_dangling_retweets_warn_but_pass(tmp_path, capsys):
    (tmp_path / "scores.csv").write_text("domain,score\na.example,left\n")
    (tmp_path / "edges.csv").write_text("follower,friend\ns1,f1\n")
    (tmp_path / "events.jsonl").write_text(
        json.dumps({"id": "t1", "author": "s1", "ts": 1, "kind": "retweet",
                    "orig_author": "ghost", "urls": []}) + "\n"
    )
    assert main(["validate", *inputs(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_dangling_retweets"] == 1


def corrupt_line(dataset_dir, tmp_path, name, lineno):
    """A copy of the bundle whose file ``name`` has a 0xff byte in line ``lineno``."""
    copy = tmp_path / "corrupt"
    copy.mkdir()
    for other in ("scores.csv", "edges.csv", "events.jsonl"):
        (copy / other).write_bytes((dataset_dir / other).read_bytes())
    lines = (copy / name).read_bytes().splitlines(keepends=True)
    lines[lineno - 1] = lines[lineno - 1][:3] + b"\xff" + lines[lineno - 1][3:]
    (copy / name).write_bytes(b"".join(lines))
    return copy


@pytest.mark.parametrize(
    "name, lineno", [("scores.csv", 2), ("edges.csv", 5), ("events.jsonl", 3)]
)
def test_validate_non_utf8_input_exit_two(dataset_dir, tmp_path, capsys, name, lineno):
    copy = corrupt_line(dataset_dir, tmp_path, name, lineno)
    assert main(["validate", *inputs(copy)]) == 2
    err = capsys.readouterr().err
    assert f"{copy / name}:{lineno}: not valid UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, lineno", [("scores.csv", 3), ("edges.csv", 3), ("edges.csv", 1)])
def test_validate_field_over_csv_limit_exit_two(
    dataset_dir, tmp_path, capsys, caplog, name, lineno
):
    # csv refuses a field longer than csv.field_size_limit(), 131,072 characters
    copy = tmp_path / "long_field"
    shutil.copytree(dataset_dir, copy)
    lines = (copy / name).read_text().splitlines(keepends=True)
    lines[lineno - 1] = "x" * 140_000 + "," + lines[lineno - 1]
    (copy / name).write_text("".join(lines))
    assert main(["validate", *inputs(copy)]) == 2
    err = capsys.readouterr().err
    assert f"{copy / name}:{lineno}: field larger than field limit" in err
    assert "Traceback" not in err + caplog.text


@pytest.mark.parametrize("ts", ["100000000000000000000000", "9223372036854775808", "1e23"])
def test_validate_timestamp_beyond_int64_exit_two(dataset_dir, tmp_path, capsys, ts):
    copy = tmp_path / "big_ts"
    shutil.copytree(dataset_dir, copy)
    lines = (copy / "events.jsonl").read_text().splitlines(keepends=True)
    lines[2], n = re.subn(r'"ts":\d+', f'"ts":{ts}', lines[2])
    assert n == 1
    (copy / "events.jsonl").write_text("".join(lines))
    assert main(["validate", *inputs(copy)]) == 2
    err = capsys.readouterr().err
    assert f"{copy / 'events.jsonl'}:3: bad timestamp" in err
    assert "error:" in err
    assert "Traceback" not in err


UNDECODABLE_LINES = {
    "int over the digit limit": ('{"id": "t", "ts": %s}' % ("7" * 4301), "Exceeds the limit"),
    "nesting too deep": ("[" * 200_000, "maximum recursion depth exceeded"),
}


@pytest.mark.parametrize("case", sorted(UNDECODABLE_LINES))
@pytest.mark.parametrize("command", ["validate", "report"])
def test_event_line_json_cannot_decode_exit_two(
    dataset_dir, tmp_path, capsys, caplog, command, case
):
    line, message = UNDECODABLE_LINES[case]
    copy = tmp_path / "undecodable"
    shutil.copytree(dataset_dir, copy)
    lines = (copy / "events.jsonl").read_text().splitlines(keepends=True)
    lines[2] = line + "\n"
    (copy / "events.jsonl").write_text("".join(lines))
    assert main([command, *inputs(copy), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{copy / 'events.jsonl'}:3: invalid JSON: {message}" in err
    assert "Traceback" not in err + caplog.text


def test_validate_report_to_file(dataset_dir, tmp_path):
    out = tmp_path / "validation.json"
    assert main(["validate", *inputs(dataset_dir), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["ok"]


# ---------------------------------------------------------------- synth


def test_synth_deterministic_bytes(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(SYNTH_CFG)
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    for name in ("scores.csv", "edges.csv", "events.jsonl", "truth.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_synth_seed_override_and_null_flag(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(SYNTH_CFG.replace("attention_bias = 2.0", "attention_bias = 0.0"))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "n"), "--seed", "77"]) == 0
    truth = json.loads((tmp_path / "n" / "truth.json").read_text())
    assert truth["null_model"] is True
    assert truth["config"]["seed"] == 77


def test_synth_infeasible_config_exit_two(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(SYNTH_CFG.replace("n_users = 25", "n_users = 1"))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize(
    "line", ["attention_bias = nan", "activity_rate = inf", "follow_homophily = inf"]
)
def test_synth_non_finite_config_exit_two(tmp_path, capsys, line):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(SYNTH_CFG + line + "\n")
    out = tmp_path / "x"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{line.split()[0]} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "fault, message",
    [
        (b"n_users = lots", "bad value for n_users: 'lots'"),
        (b"nusers = 30", "unknown key 'nusers'"),
        (b"# caf\xe9", "not valid UTF-8"),
    ],
    ids=["bad-value", "unknown-key", "not-utf8"],
)
def test_synth_config_faults_exit_two(tmp_path, capsys, caplog, fault, message):
    cfg = tmp_path / "synth.cfg"
    cfg.write_bytes(SYNTH_CFG.encode() + fault + b"\n")
    out = tmp_path / "x"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {cfg}:10: {message}" in err
    assert "Traceback" not in err + caplog.text
    assert not out.exists()


# ---------------------------------------------------------------- report


def report_args(dataset_dir, out, extra=()):
    return ["report", *inputs(dataset_dir), "--out", str(out), "--reps", "20",
            "--sample-n", "500", *extra]


def test_report_outputs_and_determinism(dataset_dir, tmp_path):
    rc = main(report_args(dataset_dir, tmp_path / "o1", ["--seed", "3"]))
    assert rc == 0
    rc = main(report_args(dataset_dir, tmp_path / "o2", ["--seed", "3"]))
    assert rc == 0
    names1 = sorted(os.listdir(tmp_path / "o1"))
    assert sorted(os.listdir(tmp_path / "o2")) == names1
    for name in names1:
        assert (tmp_path / "o1" / name).read_bytes() == (tmp_path / "o2" / name).read_bytes(), name
    # ten bias tables for the default threshold range
    ks = [n for n in names1 if n.startswith("delta_vs_ms_k")]
    assert len(ks) == 10
    report = json.loads((tmp_path / "o1" / "report.json").read_text())
    assert set(report["correlations"]) == {str(k) for k in range(1, 11)}
    assert report["meta"]["config_hash"]
    header = (tmp_path / "o1" / "user_metrics.csv").read_text().splitlines()[0]
    assert header == "user,mu,m_s,m_e_f,m_e_r,delta,class,domain_count"


def test_report_seed_changes_baseline(dataset_dir, tmp_path):
    main(report_args(dataset_dir, tmp_path / "o1", ["--seed", "3"]))
    main(report_args(dataset_dir, tmp_path / "o2", ["--seed", "4"]))
    r1 = json.loads((tmp_path / "o1" / "report.json").read_text())
    r2 = json.loads((tmp_path / "o2" / "report.json").read_text())
    assert r1["meta"]["config_hash"] != r2["meta"]["config_hash"]


def test_report_window_excluding_everything(dataset_dir, tmp_path):
    rc = main(report_args(dataset_dir, tmp_path / "w", ["--window", "900000..900001"]))
    assert rc == 0
    report = json.loads((tmp_path / "w" / "report.json").read_text())
    assert "window excludes every event" in report["markers"]
    assert report["counts"]["n_events"] == 0


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--window", "junk"),
        ("--heatmap-bins", "0"),
        ("--heatmap-bins", "-3"),
        ("--baseline-users", "-1"),
        ("--entropy-bins", "1"),
    ],
    ids=[
        "window-junk", "heatmap-bins-0", "heatmap-bins-minus-3", "baseline-users-minus-1",
        "entropy-bins-1",
    ],
)
def test_report_bad_window_exit_two(dataset_dir, tmp_path, capsys, caplog, flag, value):
    # refused while the run config is built, before any input is read
    out = tmp_path / "w"
    assert main(report_args(dataset_dir, out, [flag, value])) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err + caplog.text
    assert not out.exists()


@pytest.mark.parametrize("name", ["scores.csv", "edges.csv", "events.jsonl"])
def test_report_missing_input_file_exit_two(dataset_dir, tmp_path, capsys, caplog, name):
    (dataset_dir / name).unlink()
    assert main(report_args(dataset_dir, tmp_path / "m")) == 2
    err = capsys.readouterr().err
    assert f"error: {dataset_dir / name}: cannot read file" in err
    assert "Traceback" not in err + caplog.text


def test_report_and_validate_build_no_event_objects(dataset_dir, tmp_path, monkeypatch):
    # both commands read the log's columns; the per-event view stays unbuilt
    from echoscope import ingest

    def refuse(*args, **kwargs):
        raise AssertionError("an event object was built")

    monkeypatch.setattr(ingest, "TweetEvent", refuse)
    monkeypatch.setattr(ingest.EventLog, "events", property(refuse))
    assert main(["validate", *inputs(dataset_dir)]) == 0
    assert main(report_args(dataset_dir, tmp_path / "r")) == 0
    assert main(report_args(dataset_dir, tmp_path / "w", ["--window", "0..20000"])) == 0
    assert (tmp_path / "w" / "report.json").exists()


def report_config(dataset_dir, tmp_path, extra=b""):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(
        f"scores = {dataset_dir/'scores.csv'}\n"
        f"edges = {dataset_dir/'edges.csv'}\n"
        f"events = {dataset_dir/'events.jsonl'}\n"
        f"out = {tmp_path/'from_file'}\n".encode()
        + extra
    )
    return cfg


def test_report_config_file_with_flag_overrides(dataset_dir, tmp_path):
    cfg = report_config(dataset_dir, tmp_path, b"k_max = 3\nreps = 10\nsample_n = 100\n")
    assert main(["report", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "from_file" / "report.json").read_text())
    assert set(report["correlations"]) == {"1", "2", "3"}
    # flags beat the file
    assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "ovr"),
                 "--k-max", "2"]) == 0
    report = json.loads((tmp_path / "ovr" / "report.json").read_text())
    assert set(report["correlations"]) == {"1", "2"}


@pytest.mark.parametrize(
    "fault, message",
    [
        (b"k_max = abc", "bad value for k_max: 'abc'"),
        (b"unique_domains = maybe", "bad value for unique_domains: 'maybe'"),
        (b"no_cache = nope", "bad value for no_cache: 'nope'"),
        (b"kmax = 3", "unknown key 'kmax'"),
        (b"reps 10", "expected key=value"),
        (b"# caf\xe9", "not valid UTF-8"),
        (b"window = junk", "bad value for window: 'junk'"),
        (b"window = 5..1", "bad value for window: '5..1'"),
        (b"overlap_mode = bogus", "bad value for overlap_mode: 'bogus'"),
    ],
    ids=[
        "bad-int", "bad-bool", "bad-bool-no-cache", "unknown-key", "no-equals", "not-utf8",
        "window-junk", "window-empty", "overlap-mode-bogus",
    ],
)
def test_report_config_faults_exit_two(dataset_dir, tmp_path, capsys, caplog, fault, message):
    # refused while the run config is built, before any input is read
    cfg = report_config(dataset_dir, tmp_path, fault + b"\n")
    assert main(["report", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"error: {cfg}:5: {message}" in err
    assert "Traceback" not in err + caplog.text
    assert not (tmp_path / "from_file").exists()


@pytest.mark.parametrize(
    "word, value",
    [("1", True), ("TRUE", True), ("yes", True), ("0", False), ("False", False), ("no", False)],
)
def test_report_config_bool_words(dataset_dir, tmp_path, word, value):
    cfg = report_config(dataset_dir, tmp_path, f"unique_domains = {word}\nno_cache = {word}\n".encode())
    run = _build_run_config(build_parser().parse_args(["report", "--config", str(cfg)]))
    assert (run.unique_domains, run.no_cache) == (value, value)
    # a switch given as a flag beats the file
    run = _build_run_config(build_parser().parse_args(["report", "--config", str(cfg), "--no-cache"]))
    assert (run.unique_domains, run.no_cache) == (value, True)


# a value for each report option, as text; every one differs from the default
OPTION_TEXTS = {
    "scores": "s.csv", "edges": "e.csv", "events": "ev.jsonl", "out": "o", "k_min": "2",
    "k_max": "3", "entropy_bins": "4", "reps": "7", "baseline_users": "5", "seed": "11",
    "window": "10..20", "overlap_mode": "content", "unique_domains": "yes", "threads": "3",
    "no_cache": "true", "heatmap_bins": "6", "sample_n": "9",
}


@pytest.mark.parametrize("key", list(REPORT_OPTIONS))
def test_each_report_option_sets_one_field_alike_by_flag_and_by_file(tmp_path, key):
    assert set(OPTION_TEXTS) == set(REPORT_OPTIONS)
    cfg = tmp_path / "base.cfg"
    cfg.write_text("scores = a.csv\nedges = b.csv\nevents = c.jsonl\nout = d\n")
    with_key = tmp_path / "with_key.cfg"
    with_key.write_text(cfg.read_text() + f"{key} = {OPTION_TEXTS[key]}\n")
    flag = ["--" + key.replace("_", "-")]
    if REPORT_OPTIONS[key][1].get("action") != "store_true":
        flag.append(OPTION_TEXTS[key])

    def run_config(argv):
        return dataclasses.asdict(_build_run_config(build_parser().parse_args(["report", *argv])))

    base = run_config(["--config", str(cfg)])
    by_file = run_config(["--config", str(with_key)])
    by_flag = run_config(["--config", str(cfg), *flag])
    assert by_flag == by_file
    field = "out_dir" if key == "out" else key
    changed = {name for name, value in by_file.items() if value != base[name]}
    no_field = ("threads", "sample_n")  # accepted, with no effect
    assert changed == (set() if key in no_field else {field})


def test_report_missing_inputs_exit_two(tmp_path):
    assert main(["report", "--out", str(tmp_path / "x")]) == 2


def test_report_cache_reused_and_bypassed(dataset_dir, tmp_path):
    out = tmp_path / "c1"
    main(report_args(dataset_dir, out))
    cache = out / "graphs.cache"
    written = cache.read_bytes()
    os.utime(cache, ns=(0, 0))
    main(report_args(dataset_dir, out))  # second run builds its graphs and rewrites the cache
    assert cache.stat().st_mtime_ns != 0
    assert cache.read_bytes() == written
    out2 = tmp_path / "c2"
    main(report_args(dataset_dir, out2, ["--no-cache"]))
    assert not (out2 / "graphs.cache").exists()
    # cached and cache-less runs agree byte for byte
    assert (out / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_report_hashes_each_input_once(dataset_dir, tmp_path, monkeypatch):
    hashed, saved = [], []
    sha256_file, save_cache = report_mod._sha256_file, report_mod.save_graph_cache
    monkeypatch.setattr(
        report_mod, "_sha256_file", lambda path: hashed.append(path) or sha256_file(path)
    )
    monkeypatch.setattr(
        report_mod, "save_graph_cache", lambda *args: saved.append(args) or save_cache(*args)
    )
    out = tmp_path / "h"
    assert main(report_args(dataset_dir, out)) == 0
    assert len(hashed) == 3 and len(saved) == 1
    first = read_outputs(out)
    hashed.clear()
    assert main(report_args(dataset_dir, out)) == 0
    assert len(hashed) == 3
    assert len(saved) == 2  # one save per run
    assert read_outputs(out) == first


def read_outputs(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_report_recovers_from_truncated_cache(dataset_dir, tmp_path):
    clean = tmp_path / "clean"
    assert main(report_args(dataset_dir, clean)) == 0
    expected = read_outputs(clean)
    cache = expected["graphs.cache"]
    out = tmp_path / "rerun"
    # inside the header fields, then about 40 cuts spread over the rest
    offsets = {0, 1, 7, 8, 12, 16, len(cache) - 1}
    offsets.update(range(0, len(cache), len(cache) // 40 + 1))
    for cut in sorted(offsets):
        out.mkdir(exist_ok=True)
        (out / "graphs.cache").write_bytes(cache[:cut])
        assert main(report_args(dataset_dir, out)) == 0, cut
        assert read_outputs(out) == expected, cut


def seed_id_span(cache):
    """Where a graphs.cache holds its seed ids, how many there are, and how
    many names."""
    pos = len(CACHE_MAGIC)
    _, fp_len = struct.unpack_from("<II", cache, pos)
    pos += 8 + fp_len
    (n_names,) = struct.unpack_from("<Q", cache, pos)
    pos += 8 + 4 * n_names  # the name lengths
    (n_bytes,) = struct.unpack_from("<Q", cache, pos)
    pos += 8 + n_bytes  # the names
    (n_seeds,) = struct.unpack_from("<Q", cache, pos)
    return pos + 8, n_seeds, n_names


@pytest.mark.parametrize("fault", ["swapped", "repeated", "out of range"])
def test_report_treats_bad_cache_seed_ids_as_a_miss(dataset_dir, tmp_path, fault):
    clean = tmp_path / "clean"
    assert main(report_args(dataset_dir, clean)) == 0
    expected = read_outputs(clean)
    cache = bytearray(expected["graphs.cache"])
    at, n_seeds, n_names = seed_id_span(cache)
    ids = np.frombuffer(cache, dtype="<u4", count=n_seeds, offset=at).copy()
    if fault == "swapped":
        ids[[0, 1]] = ids[[1, 0]]
    elif fault == "repeated":
        ids[1] = ids[0]
    else:
        ids[-1] = n_names
    cache[at:at + ids.nbytes] = ids.tobytes()
    out = tmp_path / "rerun"
    out.mkdir()
    (out / "graphs.cache").write_bytes(bytes(cache))
    assert main(report_args(dataset_dir, out)) == 0
    assert read_outputs(out) == expected


def test_report_never_reads_a_cache_that_still_loads(dataset_dir, tmp_path):
    # a structurally valid graphs.cache with an intact fingerprint but one
    # follow edge moved within its row: the run must build its own graphs
    clean = tmp_path / "clean"
    assert main(report_args(dataset_dir, clean)) == 0
    expected = read_outputs(clean)
    cache = bytearray(expected["graphs.cache"])
    at, n_seeds, n_names = seed_id_span(cache)
    indptr_at = at + 4 * n_seeds + 8
    indptr = np.frombuffer(cache, dtype="<i8", count=n_seeds + 1, offset=indptr_at)
    indices_at = indptr_at + indptr.nbytes + 8
    indices = np.frombuffer(cache, dtype="<u4", count=int(indptr[-1]), offset=indices_at).copy()
    # a row's last friend moves to the next user id, so the row still ascends
    row_last = indptr[1:][np.diff(indptr) > 0] - 1
    indices[row_last[indices[row_last] + 1 < n_names][0]] += 1
    cache[indices_at:indices_at + indices.nbytes] = indices.tobytes()
    fp_len = struct.unpack_from("<I", cache, len(CACHE_MAGIC) + 4)[0]
    fingerprint = bytes(cache[len(CACHE_MAGIC) + 8:len(CACHE_MAGIC) + 8 + fp_len])
    out = tmp_path / "rerun"
    out.mkdir()
    (out / "graphs.cache").write_bytes(bytes(cache))
    fg, _ = load_graph_cache(str(out / "graphs.cache"), fingerprint)
    assert fg.follow.indices.tolist() == indices.tolist()
    assert main(report_args(dataset_dir, out)) == 0
    assert read_outputs(out) == expected


def test_report_runs_without_the_cache_reader(dataset_dir, tmp_path, monkeypatch):
    def unreadable(*args):
        raise AssertionError("a report read graphs.cache")

    monkeypatch.setattr(report_mod, "load_graph_cache", unreadable)
    out = tmp_path / "out"
    assert main(report_args(dataset_dir, out)) == 0
    first = read_outputs(out)
    assert "graphs.cache" in first
    assert main(report_args(dataset_dir, out)) == 0
    assert read_outputs(out) == first


def test_report_removes_tables_of_thresholds_it_does_not_use(dataset_dir, tmp_path, caplog):
    clean = tmp_path / "clean"
    assert main(report_args(dataset_dir, clean, ["--k-max", "3"])) == 0
    out = tmp_path / "rerun"
    assert main(report_args(dataset_dir, out, ["--k-max", "10"])) == 0
    caplog.set_level(logging.INFO, logger="echoscope.report")
    assert main(report_args(dataset_dir, out, ["--k-max", "3"])) == 0
    diff = subprocess.run(["diff", "-r", str(clean), str(out)], capture_output=True, text=True)
    assert (diff.returncode, diff.stdout) == (0, "")
    removed = [r.getMessage() for r in caplog.records if r.name == "echoscope.report"]
    assert removed == [
        f"removed {out / f'delta_vs_ms_k{k}.csv'}: this run has no threshold k for it"
        for k in (10, 4, 5, 6, 7, 8, 9)
    ]


def test_report_leaves_files_it_never_writes(dataset_dir, tmp_path):
    out = tmp_path / "out"
    (out / "delta_vs_ms_k7.csv").mkdir(parents=True)
    mine = ["notes.txt", "delta_vs_ms_k0.csv", "delta_vs_ms_k04.csv", "delta_vs_ms_k5.csv.bak",
            "delta_vs_ms_kx.csv", "Delta_vs_ms_k6.csv"]
    for name in mine:
        (out / name).write_text(name)
    assert main(report_args(dataset_dir, out, ["--k-max", "3"])) == 0
    for name in mine:
        assert (out / name).read_text() == name
    assert (out / "delta_vs_ms_k7.csv").is_dir()
    assert (out / "delta_vs_ms_k3.csv").is_file()


def test_report_window_is_part_of_the_cache_key(dataset_dir, tmp_path):
    window = ["--window", "0..20000"]
    clean = tmp_path / "clean"
    assert main(report_args(dataset_dir, clean, window)) == 0
    out = tmp_path / "rerun"
    assert main(report_args(dataset_dir, out)) == 0  # caches the unwindowed graphs
    assert main(report_args(dataset_dir, out, window)) == 0
    assert read_outputs(out) == read_outputs(clean)


def test_report_bytes_do_not_depend_on_input_paths(dataset_dir, tmp_path):
    outputs = []
    for where in ("a", "deeper/b"):
        copy = tmp_path / where / "inputs"
        copy.mkdir(parents=True)
        for name in ("scores.csv", "edges.csv", "events.jsonl"):
            (copy / name).write_bytes((dataset_dir / name).read_bytes())
        assert main(report_args(copy, tmp_path / where / "out")) == 0
        outputs.append(read_outputs(tmp_path / where / "out"))
    assert outputs[0] == outputs[1]
    assert "path" not in json.dumps(json.loads(outputs[0]["report.json"])["meta"]["inputs"])


def test_report_threads_do_not_change_bytes(dataset_dir, tmp_path):
    main(report_args(dataset_dir, tmp_path / "t1", ["--threads", "1"]))
    main(report_args(dataset_dir, tmp_path / "t4", ["--threads", "4"]))
    for name in sorted(os.listdir(tmp_path / "t1")):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t4" / name).read_bytes(), name


def test_report_sample_n_does_not_change_bytes(dataset_dir, tmp_path):
    # sampled_scores.csv holds exact weights, so --sample-n and the sample_n
    # key are accepted and ignored
    base = ["report", *inputs(dataset_dir), "--reps", "20"]
    assert main([*base, "--out", str(tmp_path / "without")]) == 0
    assert main([*base, "--sample-n", "7", "--out", str(tmp_path / "flag")]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sample_n = 7\n")
    assert main([*base, "--config", str(cfg), "--out", str(tmp_path / "file")]) == 0
    without = read_outputs(tmp_path / "without")
    assert read_outputs(tmp_path / "flag") == without
    assert read_outputs(tmp_path / "file") == without


# ---------------------------------------------------------------- oracle-check


def test_oracle_check_passes_on_synthetic(dataset_dir, capsys):
    assert main(["oracle-check", *inputs(dataset_dir)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"]
    assert payload["n_compared"] > 0
    assert payload["max_abs_diff"] <= 1e-12


def test_oracle_check_guard_rail(dataset_dir):
    assert main(["oracle-check", *inputs(dataset_dir), "--max-events", "3"]) == 2


def test_oracle_check_out_file(dataset_dir, tmp_path):
    out = tmp_path / "diff.json"
    assert main(["oracle-check", *inputs(dataset_dir), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["ok"]
    # the file records what was compared, so two different checks never write the same bytes
    flags = ["--k", "2", "--entropy-bins", "4", "--unique-domains", "--max-events", "900"]
    assert main(["oracle-check", *inputs(dataset_dir), *flags, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    settings = {key: payload[key] for key in ("k", "entropy_bins", "unique_domains", "max_events")}
    assert settings == {"k": 2, "entropy_bins": 4, "unique_domains": True, "max_events": 900}


@pytest.mark.parametrize(
    "flags",
    [
        ["--k", "0"],
        ["--k", "-3"],
        ["--entropy-bins", "1"],
        ["--max-events", "-1"],
        ["--tolerance", "-1"],
        ["--tolerance", "nan"],
        ["--tolerance", "inf"],
    ],
)
def test_oracle_check_rejects_out_of_range_arguments(tmp_path, capsys, flags):
    # the inputs do not exist: the arguments are refused before any is read
    missing = tmp_path / "missing"
    out = tmp_path / "diff.json"
    rc = main(["oracle-check", *inputs(missing), *flags, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: " + flags[0] in err
    assert "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------- outputs


@pytest.mark.parametrize("command, out", [
    ("report", "file"),
    ("report", "file/sub"),
    ("validate", "nodir/x.json"),
    ("validate", "dir"),
    ("synth", "file"),
    ("oracle-check", "nodir/diff.json"),
])
def test_an_out_that_cannot_be_written_exits_two(dataset_dir, tmp_path, capsys, command, out):
    (tmp_path / "file").write_text("kept\n")
    (tmp_path / "dir").mkdir()
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(SYNTH_CFG)
    args = ["--config", str(cfg)] if command == "synth" else inputs(dataset_dir)
    if command == "report":
        args += ["--reps", "5", "--k-max", "1"]
    target = tmp_path / out
    assert main([command, *args, "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert f"error: {target}: cannot write " in err
    assert "Traceback" not in err
    assert (tmp_path / "file").read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "dir", "file", "synth.cfg"]
    assert list((tmp_path / "dir").iterdir()) == []


def test_log_level_env(dataset_dir, monkeypatch, capsys):
    monkeypatch.setenv("ECHOSCOPE_LOG", "DEBUG")
    assert main(["validate", *inputs(dataset_dir)]) == 0


# ---------------------------------------------------------------- start-up

# runs one command in a fresh interpreter, then prints its exit code and the
# numpy and scipy modules it loaded
IMPORT_PROBE = """
import json, sys
from echoscope.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:
    rc = exc.code
print(json.dumps([rc, sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))]))
"""


def src_env(**extra):
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **extra)


def loaded_modules(argv, expect_rc=0):
    """The numpy and scipy modules one command loads, by top-level package."""
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *argv], env=src_env(), capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    rc, modules = json.loads(result.stdout.splitlines()[-1])
    assert rc == expect_rc, result.stderr
    return {top: [m for m in modules if m.split(".")[0] == top] for top in ("numpy", "scipy")}


@pytest.mark.parametrize("argv, expect_rc", [
    (["--help"], 0),
    (["report", "--scores", "x.csv"], 2),  # missing --edges, --events, --out
    (["report", "--scores", "s", "--edges", "e", "--events", "v", "--out", "o", "--window", "9..1"], 2),
], ids=["help", "missing-options", "empty-window"])
def test_help_and_usage_errors_load_neither_numpy_nor_scipy(argv, expect_rc):
    assert loaded_modules(argv, expect_rc) == {"numpy": [], "scipy": []}


@pytest.mark.parametrize("command", ["validate", "synth"])
def test_commands_without_scipy_never_import_it(dataset_dir, tmp_path, command):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(SYNTH_CFG)
    argv = {
        "validate": ["validate", *inputs(dataset_dir), "--out", str(tmp_path / "v.json")],
        "synth": ["synth", "--config", str(cfg), "--out", str(tmp_path / "s")],
    }[command]
    modules = loaded_modules(argv)
    assert "numpy" in modules["numpy"]
    assert modules["scipy"] == []


@pytest.mark.parametrize("command", ["report", "oracle-check"])
def test_report_and_oracle_check_load_no_scipy(dataset_dir, tmp_path, command):
    argv = {
        "report": report_args(dataset_dir, tmp_path / "r"),
        "oracle-check": ["oracle-check", *inputs(dataset_dir), "--out", str(tmp_path / "o.json")],
    }[command]
    modules = loaded_modules(argv)
    assert "numpy" in modules["numpy"]
    assert modules["scipy"] == []


def test_commands_call_the_names_the_tracer_wraps(dataset_dir, tmp_path, monkeypatch):
    # perfbench/tracer.py replaces these attributes of echoscope.cli before
    # main runs, so each command must look them up there at call time
    import echoscope.cli as cli

    calls = []

    def spy(name):
        real = getattr(cli, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(cli, name, wrapper)

    for name in ("load_dataset", "validate_dataset", "run_report"):
        spy(name)
    assert main(["validate", *inputs(dataset_dir)]) == 0
    assert calls == ["load_dataset", "validate_dataset"]
    calls.clear()
    assert main(report_args(dataset_dir, tmp_path / "r", ["--k-max", "1"])) == 0
    assert calls == ["run_report"]  # the report loads its inputs itself
    assert (tmp_path / "r" / "report.json").exists()


@pytest.mark.parametrize("value, shows_info", [
    ("basic_format", False),  # an attribute of logging, but a format string
    ("verbose", False),
    ("", False),
    ("info", True),
])
def test_a_log_level_that_names_no_level_means_warning(tmp_path, value, shows_info):
    # a subprocess, because basicConfig ignores its level once pytest has set up logging
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(SYNTH_CFG)
    result = subprocess.run(
        [sys.executable, "-m", "echoscope.cli", "synth", "--config", str(cfg), "--out", str(tmp_path / "s")],
        env=src_env(ECHOSCOPE_LOG=value), capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert ("INFO " in result.stderr) == shows_info  # synth logs one INFO line


def test_an_input_error_is_one_line_on_stderr(tmp_path):
    # a subprocess, so the default log level and handler are the program's own
    env = src_env()
    env.pop("ECHOSCOPE_LOG", None)
    argv = ["report", "--scores", "s.csv", "--edges", "e.csv", "--events", "v.jsonl",
            "--out", str(tmp_path / "out"), "--k-min", "0"]
    result = subprocess.run(
        [sys.executable, "-m", "echoscope.cli", *argv], env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 2
    assert result.stderr == "error: need 1 <= k_min <= k_max\n"


@pytest.mark.parametrize("command", ["validate", "oracle-check"])
def test_a_closed_stdout_exits_one_without_a_traceback(dataset_dir, command):
    # a subprocess whose stdout is a pipe with no reader left before the
    # payload is printed, as under `| head -c 1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "echoscope.cli", command, *inputs(dataset_dir)],
            env=src_env(), stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=300,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert "internal error" not in result.stderr
