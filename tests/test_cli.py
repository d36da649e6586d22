import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import echoscope.report as report_mod
from echoscope.cli import _build_run_config, build_parser, main
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
        ("--sample-n", "0"),
    ],
    ids=[
        "window-junk", "heatmap-bins-0", "heatmap-bins-minus-3", "baseline-users-minus-1",
        "entropy-bins-1", "sample-n-0",
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
    ],
    ids=["bad-int", "bad-bool", "bad-bool-no-cache", "unknown-key", "no-equals", "not-utf8"],
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


def test_report_missing_inputs_exit_two(tmp_path):
    assert main(["report", "--out", str(tmp_path / "x")]) == 2


def test_report_cache_reused_and_bypassed(dataset_dir, tmp_path):
    out = tmp_path / "c1"
    main(report_args(dataset_dir, out))
    cache = out / "graphs.cache"
    assert cache.exists()
    stamp = cache.stat().st_mtime_ns
    main(report_args(dataset_dir, out))  # second run loads the cache
    assert cache.stat().st_mtime_ns == stamp
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
    assert len(saved) == 1  # the second run loaded the cache instead of writing it
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


def test_log_level_env(dataset_dir, monkeypatch, capsys):
    monkeypatch.setenv("ECHOSCOPE_LOG", "DEBUG")
    assert main(["validate", *inputs(dataset_dir)]) == 0


# ---------------------------------------------------------------- start-up

# runs one command in a fresh interpreter, then prints its exit code and the
# scipy modules it loaded
IMPORT_PROBE = """
import json, sys
from echoscope.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:
    rc = exc.code
print(json.dumps([rc, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def loaded_modules(argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *argv], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    rc, modules = json.loads(result.stdout.splitlines()[-1])
    assert rc == 0, result.stderr
    return modules


@pytest.mark.parametrize("command", ["help", "validate", "synth"])
def test_commands_without_scipy_never_import_it(dataset_dir, tmp_path, command):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(SYNTH_CFG)
    argv = {
        "help": ["--help"],
        "validate": ["validate", *inputs(dataset_dir), "--out", str(tmp_path / "v.json")],
        "synth": ["synth", "--config", str(cfg), "--out", str(tmp_path / "s")],
    }[command]
    assert loaded_modules(argv) == []


def test_report_imports_no_scipy_stats(dataset_dir, tmp_path):
    modules = loaded_modules(report_args(dataset_dir, tmp_path / "r"))
    assert "scipy.special" in modules
    assert not [m for m in modules if m == "scipy.stats" or m.startswith("scipy.stats.")]
