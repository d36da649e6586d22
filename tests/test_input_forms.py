"""Whole reports over inputs that differ only in form.

Each case rewrites one or two inputs of a small synthetic bundle in a form
the README says reads the same, runs ``report`` on both, and compares every
output: the CSVs byte for byte, and report.json apart from ``meta.inputs``
(the input hashes). ``graphs.cache`` is left out: its fingerprint hashes
the input bytes. Integer ids are compared against their decimal text on a
copy of the bundle with decimal names. A ``--window`` that covers every
event is compared with no window, and the same input bytes under other
file names in another directory with the originals, every byte of every
output file, ``graphs.cache`` included.
"""
import csv
import json
import random
from functools import partial
from itertools import groupby
from operator import itemgetter

import pytest

from echoscope import ingest
from echoscope.cli import main
from echoscope.ingest import write_domain_scores, write_events, write_follow_edges
from echoscope.synth import SynthConfig, generate


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    # every event at time 0 or 1: two long runs of tied events, so that
    # reordering ties reorders most of each user's events
    bundle, _ = generate(
        SynthConfig(
            n_users=80, n_domains=20, follow_homophily=0.3, base_follow_prob=0.1,
            attention_bias=2.0, activity_rate=6.0, retweet_rate=4.0,
            duration=2, seed=5,
        )
    )
    d = tmp_path_factory.mktemp("forms") / "plain"
    d.mkdir()
    # every third domain's score off the binary grid, so that a user's score
    # sum depends on the order its events are added in
    scores = {
        domain: 0.05 + 0.9 * score if i % 3 == 2 else score
        for i, (domain, score) in enumerate(sorted(bundle.scores.items()))
    }
    write_domain_scores(scores, str(d / "scores.csv"))
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


COMPACT, SPACED = (",", ":"), (", ", ": ")


def assert_read_by(text, separators):
    """The bulk reader takes every line written with the compact separators,
    and the per-line reader every line written with json's default ones."""
    rows = ingest._CANONICAL_EVENT.findall(text)
    if separators == COMPACT:
        assert len(rows) == text.count("\n")
        assert ingest._url_arrays([row[3] for row in rows]) is not None
    else:
        assert not rows


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
    assert_read_by(dst.read_text(encoding="utf-8"), separators)


def self_retweets(src, dst, separators):
    """After every fifth event, a self-retweet by its author with a new id,
    its time and its URLs, which both readers drop; every line written with
    ``separators``."""
    with open(src, encoding="utf-8") as fin, open(dst, "w", encoding="utf-8") as fout:
        for i, line in enumerate(fin):
            obj = json.loads(line)
            records = [obj]
            if i % 5 == 0:
                author = obj["author"]
                records.append({"id": f"self{i}", "author": author, "ts": obj["ts"],
                                "kind": "retweet", "orig_author": author, "urls": obj["urls"]})
            for record in records:
                fout.write(json.dumps(record, ensure_ascii=False, separators=separators) + "\n")
    assert_read_by(dst.read_text(encoding="utf-8"), separators)


def quoted_edges(src, dst):
    """Every field quoted, CRLF line ends and a byte-order mark."""
    with open(src, encoding="utf-8", newline="") as fin:
        rows = list(csv.reader(fin))
    with open(dst, "w", encoding="utf-8-sig", newline="") as fout:
        csv.writer(fout, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(rows)
    assert ingest._parse_plain_edges(str(dst)) is None  # csv reads it


def self_loops(src, dst, quoted):
    """Every fifth user's self-loop added after the first line that names it,
    which both readers drop: written plain (the bulk reader reads it), or
    with every field quoted and CRLF line ends (csv reads it)."""
    with open(src, encoding="utf-8", newline="") as fin:
        header, *rows = csv.reader(fin)
    seen, lines = set(), [header]
    for row in rows:
        lines.append(row)
        for name in row:
            if name not in seen:
                seen.add(name)
                if len(seen) % 5 == 0:
                    lines.append([name, name])
    form = dict(quoting=csv.QUOTE_ALL, lineterminator="\r\n") if quoted else dict(lineterminator="\n")
    with open(dst, "w", encoding="utf-8", newline="") as fout:
        csv.writer(fout, **form).writerows(lines)
    assert (ingest._parse_plain_edges(str(dst)) is None) == quoted


def shuffled_lines(src, dst, n_header=0, repeated=0.0):
    """The lines after the first ``n_header`` in a fixed random order, with
    about a ``repeated`` share of them written a second time."""
    lines = src.read_bytes().splitlines(keepends=True)
    head, body = lines[:n_header], lines[n_header:]
    rng = random.Random(11)
    body += rng.sample(body, round(len(body) * repeated))
    rng.shuffle(body)
    dst.write_bytes(b"".join(head + body))


def ties_reordered(src, dst):
    """The events of each run of equal timestamps in a fixed random order,
    and each tweet id ``t<n>`` renamed ``t<999999999 - n>``, so that tied
    events sort by id against their order in ``src``. ``src`` is in time
    order, as ``write_events`` writes a synthetic log."""
    with open(src, encoding="utf-8") as fin:
        records = [json.loads(line) for line in fin]
    rng = random.Random(11)
    with open(dst, "w", encoding="utf-8") as fout:
        for _, run in groupby(records, key=itemgetter("ts")):
            run = list(run)
            rng.shuffle(run)
            for obj in run:
                obj["id"] = f"t{999_999_999 - int(obj['id'][1:]):09d}"
                fout.write(json.dumps(obj, separators=COMPACT) + "\n")
    assert_read_by(dst.read_text(encoding="utf-8"), COMPACT)


# each score level under the labels that name it, each label in two cases
LABELS = {
    0.0: ["left", "LEFT"],
    0.25: ["left-center", "Left-Center"],
    0.5: ["center", "least-biased", "center/least-biased", "Center", "Least-Biased"],
    0.75: ["right-center", "RIGHT-CENTER"],
    1.0: ["right", "Right"],
}


def labelled_scores(src, dst):
    """Each decimal score that is a level written as a label for it, the
    labels of a level taken in turn."""
    with open(src, encoding="utf-8", newline="") as fin:
        header, *rows = csv.reader(fin)
    turn = {level: 0 for level in LABELS}
    with open(dst, "w", encoding="utf-8", newline="") as fout:
        writer = csv.writer(fout, lineterminator="\n")
        writer.writerow(header)
        for domain, score in rows:
            level = float(score)
            if level in LABELS:
                score = LABELS[level][turn[level] % len(LABELS[level])]
                turn[level] += 1
            writer.writerow([domain, score])
    assert turn.keys() == LABELS.keys() and all(turn.values())  # every label is read


def renamed(src_dir, dst_dir, as_integers):
    """The bundle with each user and tweet id renamed to the decimal text of
    its number (``u00012`` to ``12``, ``t000000034`` to ``34``), so that
    text order and number order differ. The events write ``id``,
    ``author`` and ``orig_author`` as JSON integers when ``as_integers``, and
    as strings in the shape ``write_events`` writes otherwise."""
    dst_dir.mkdir()
    number = int if as_integers else (lambda name: str(int(name)))
    (dst_dir / "scores.csv").write_bytes((src_dir / "scores.csv").read_bytes())
    with open(src_dir / "edges.csv", encoding="utf-8", newline="") as fin:
        header, *rows = csv.reader(fin)
    with open(dst_dir / "edges.csv", "w", encoding="utf-8", newline="") as fout:
        writer = csv.writer(fout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([str(int(name[1:])) for name in row] for row in rows)
    with open(src_dir / "events.jsonl", encoding="utf-8") as fin, \
            open(dst_dir / "events.jsonl", "w", encoding="utf-8") as fout:
        for line in fin:
            obj = json.loads(line)
            for key in ("id", "author", "orig_author"):
                if key in obj:
                    obj[key] = number(obj[key][1:])
            fout.write(json.dumps(obj, separators=(",", ":")) + "\n")
    rows = ingest._CANONICAL_EVENT.findall((dst_dir / "events.jsonl").read_text())
    assert not rows if as_integers else rows  # integers go to the per-line reader


INPUTS = ("scores.csv", "edges.csv", "events.jsonl")


def report_files(paths, out, *flags):
    """Every output file of ``report`` over the scores, edges and events at
    ``paths``, by name."""
    argv = ["report", "--out", str(out), "--reps", "20", "--baseline-users", "10", "--seed", "7"]
    for flag, path in zip(("--scores", "--edges", "--events"), paths):
        argv += [flag, str(path)]
    assert main([*argv, *flags]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def report_outputs(data, out, *flags):
    """report.json without ``meta.inputs``, and the CSVs."""
    files = report_files([data / name for name in INPUTS], out, *flags)
    del files["graphs.cache"]
    sections = json.loads(files.pop("report.json"))
    del sections["meta"]["inputs"]
    return sections, files


@pytest.mark.parametrize("rewrites", [
    {"events.jsonl": redumped_events},
    {"events.jsonl": partial(padded_urls, separators=COMPACT)},
    {"events.jsonl": partial(padded_urls, separators=SPACED)},
    {"edges.csv": quoted_edges},
    # event ids are unique, so only the edge lines repeat
    {"edges.csv": partial(shuffled_lines, n_header=1, repeated=0.1),
     "events.jsonl": shuffled_lines},
    {"events.jsonl": ties_reordered},
    {"scores.csv": labelled_scores},
    {"edges.csv": partial(self_loops, quoted=False),
     "events.jsonl": partial(self_retweets, separators=COMPACT)},
    {"edges.csv": partial(self_loops, quoted=True),
     "events.jsonl": partial(self_retweets, separators=SPACED)},
], ids=["events-redumped-keys-reversed", "events-padded-urls-compact",
        "events-padded-urls-spaced", "edges-quoted-crlf-bom",
        "edges-repeated-and-lines-shuffled", "tied-events-reordered-ids-flipped",
        "scores-as-labels",
        "self-loops-and-self-retweets-bulk", "self-loops-and-self-retweets-per-line"])
def test_report_is_the_same_over_input_forms(bundle_dir, tmp_path, rewrites):
    other = tmp_path / "other"
    other.mkdir()
    for name in INPUTS:
        if name in rewrites:
            rewrites[name](bundle_dir / name, other / name)
            assert (other / name).read_bytes() != (bundle_dir / name).read_bytes()
        else:
            (other / name).write_bytes((bundle_dir / name).read_bytes())
    expected = report_outputs(bundle_dir, tmp_path / "plain_out")
    assert report_outputs(other, tmp_path / "other_out") == expected


def test_report_reads_integer_ids_as_their_decimal_text(bundle_dir, tmp_path):
    renamed(bundle_dir, tmp_path / "text", as_integers=False)
    renamed(bundle_dir, tmp_path / "ints", as_integers=True)
    expected = report_outputs(tmp_path / "text", tmp_path / "text_out")
    assert report_outputs(tmp_path / "ints", tmp_path / "ints_out") == expected


def test_report_is_the_same_under_a_window_that_covers_every_event(bundle_dir, tmp_path):
    lines = (bundle_dir / "events.jsonl").read_text(encoding="utf-8").splitlines()
    ts = [json.loads(line)["ts"] for line in lines]
    expected_sections, expected_files = report_outputs(bundle_dir, tmp_path / "all")
    sections, files = report_outputs(
        bundle_dir, tmp_path / "window", "--window", f"{min(ts)}..{max(ts)}"
    )
    assert files == expected_files
    for meta in (sections["meta"], expected_sections["meta"]):
        del meta["config"], meta["config_hash"]
    assert sections == expected_sections


def test_report_bytes_do_not_depend_on_input_names(bundle_dir, tmp_path):
    elsewhere = tmp_path / "elsewhere" / "deeper"
    elsewhere.mkdir(parents=True)
    paths = [elsewhere / name for name in ("s.txt", "follows.tsv", "log.json")]
    for name, path in zip(INPUTS, paths):
        path.write_bytes((bundle_dir / name).read_bytes())
    expected = report_files([bundle_dir / name for name in INPUTS], tmp_path / "out")
    assert {"report.json", "graphs.cache"} <= expected.keys()
    assert report_files(paths, tmp_path / "elsewhere" / "out") == expected
