"""Whole reports over inputs that differ only in form.

Each case rewrites one input of a small synthetic bundle in a form the
README says reads the same, runs ``report`` on both, and compares every
output: the CSVs byte for byte, and report.json apart from ``meta.inputs``
(the input hashes). ``graphs.cache`` is left out: its fingerprint hashes
the input bytes.
"""
import csv
import json
from functools import partial

import pytest

from echoscope import ingest
from echoscope.cli import main
from echoscope.ingest import write_domain_scores, write_events, write_follow_edges
from echoscope.synth import SynthConfig, generate


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    bundle, _ = generate(
        SynthConfig(
            n_users=80, n_domains=20, follow_homophily=0.3, base_follow_prob=0.1,
            attention_bias=2.0, activity_rate=6.0, retweet_rate=4.0,
            duration=50_000, seed=5,
        )
    )
    d = tmp_path_factory.mktemp("forms") / "plain"
    d.mkdir()
    write_domain_scores(bundle.scores, str(d / "scores.csv"))
    write_follow_edges(bundle.edges, str(d / "edges.csv"))
    write_events(bundle.log, str(d / "events.jsonl"))
    return d


def redumped_events(src, dst):
    """Each event line through json.dumps's default separators, keys reversed."""
    with open(src, encoding="utf-8") as fin, open(dst, "w", encoding="utf-8") as fout:
        for line in fin:
            obj = json.loads(line)
            fout.write(json.dumps(dict(reversed(list(obj.items())))) + "\n")
    assert not ingest._CANONICAL_EVENT.findall(dst.read_text())  # the per-line reader reads it


# urls array entries that have no domain: not a string, a link shortener,
# not a URL, and a bare IP address
NO_DOMAIN = [None, "http://bit.ly/x", "not a url", "http://192.0.2.1/"]


def padded_urls(src, dst, separators):
    """Each event's URLs spelled ``HTTPS://WWW.<domain>:443/a?b#c``, the same
    domain, and padded with the first one to four ``NO_DOMAIN`` entries, so
    that arrays differ in length: the real URLs after the padding on even
    lines and before it on odd ones. Written with ``separators``: the compact
    ones send every block to the bulk reader, json's default ones to the
    per-line reader."""
    with open(src, encoding="utf-8") as fin, open(dst, "w", encoding="utf-8") as fout:
        for i, line in enumerate(fin):
            obj = json.loads(line)
            urls = [
                f"HTTPS://WWW.{url.removeprefix('http://').removesuffix('/')}:443/a?b#c"
                for url in obj["urls"]
            ]
            padding = NO_DOMAIN[: 1 + i % 4]
            obj["urls"] = padding + urls if i % 2 == 0 else urls + padding
            fout.write(json.dumps(obj, ensure_ascii=False, separators=separators) + "\n")
    text = dst.read_text(encoding="utf-8")
    rows = ingest._CANONICAL_EVENT.findall(text)
    if separators == (",", ":"):  # the bulk reader takes every line
        assert len(rows) == text.count("\n")
        assert ingest._url_arrays([row[4] for row in rows]) is not None
    else:
        assert not rows


def quoted_edges(src, dst):
    """Every field quoted, CRLF line ends and a byte-order mark."""
    with open(src, encoding="utf-8", newline="") as fin:
        rows = list(csv.reader(fin))
    with open(dst, "w", encoding="utf-8-sig", newline="") as fout:
        csv.writer(fout, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(rows)
    assert ingest._parse_plain_edges(str(dst)) is None  # csv reads it


def report_outputs(data, out):
    argv = [
        "report", "--scores", str(data / "scores.csv"), "--edges", str(data / "edges.csv"),
        "--events", str(data / "events.jsonl"), "--out", str(out),
        "--reps", "20", "--baseline-users", "10", "--seed", "7",
    ]
    assert main(argv) == 0
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "graphs.cache"}
    sections = json.loads(files.pop("report.json"))
    del sections["meta"]["inputs"]
    return sections, files


@pytest.mark.parametrize("name, rewrite", [
    ("events.jsonl", redumped_events),
    ("events.jsonl", partial(padded_urls, separators=(",", ":"))),
    ("events.jsonl", partial(padded_urls, separators=(", ", ": "))),
    ("edges.csv", quoted_edges),
], ids=["events-redumped-keys-reversed", "events-padded-urls-compact",
        "events-padded-urls-spaced", "edges-quoted-crlf-bom"])
def test_report_is_the_same_over_input_forms(bundle_dir, tmp_path, name, rewrite):
    other = tmp_path / "other"
    other.mkdir()
    for each in ("scores.csv", "edges.csv", "events.jsonl"):
        if each != name:
            (other / each).write_bytes((bundle_dir / each).read_bytes())
    rewrite(bundle_dir / name, other / name)
    assert (other / name).read_bytes() != (bundle_dir / name).read_bytes()
    expected = report_outputs(bundle_dir, tmp_path / "plain_out")
    assert report_outputs(other, tmp_path / "other_out") == expected
