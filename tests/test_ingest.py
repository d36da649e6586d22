import csv
import io
import json
import random
from dataclasses import FrozenInstanceError, fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ev, make_bundle, rt
from echoscope import ingest, psl
from echoscope.errors import EchoscopeError, InputFormatError
from echoscope.ingest import (
    KIND_ORIGINAL,
    KIND_RETWEET,
    TS_MAX,
    EventLog,
    FollowEdgeList,
    TweetEvent,
    parse_domain_scores,
    parse_events,
    parse_follow_edges,
    validate_dataset,
    write_domain_scores,
    write_events,
    write_follow_edges,
)
from echoscope.psl import _host_of, extract_pld, hosts_of


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- scores


def test_labels_map_to_five_levels(tmp_path):
    path = write(
        tmp_path / "scores.csv",
        "domain,score\n"
        "a.example,left-center\n"
        "b.example,right\n"
        "c.example,0.5\n"
        "d.example,left\n"
        "e.example,center/least-biased\n"
        "f.example,right-center\n"
        "g.example,Least-Biased\n",
    )
    table = parse_domain_scores(path)
    assert table["a.example"] == 0.25
    assert table["b.example"] == 1.0
    assert table["c.example"] == 0.5
    assert table["d.example"] == 0.0
    assert table["e.example"] == 0.5
    assert table["f.example"] == 0.75
    assert table["g.example"] == 0.5


def test_duplicate_domain_rejected_with_line_number(tmp_path):
    path = write(tmp_path / "s.csv", "domain,score\na.example,left\na.example,right\n")
    with pytest.raises(InputFormatError) as err:
        parse_domain_scores(path)
    assert ":3" in str(err.value)
    assert "duplicate" in str(err.value)


def test_unknown_label_and_out_of_range(tmp_path):
    with pytest.raises(InputFormatError, match="unknown label"):
        parse_domain_scores(write(tmp_path / "a.csv", "domain,score\nx.example,very-left\n"))
    with pytest.raises(InputFormatError, match="out of"):
        parse_domain_scores(write(tmp_path / "b.csv", "domain,score\nx.example,1.5\n"))


def test_scores_header_required_and_nonempty(tmp_path):
    with pytest.raises(InputFormatError, match="header"):
        parse_domain_scores(write(tmp_path / "a.csv", "a.example,left\n"))
    with pytest.raises(InputFormatError, match="empty"):
        parse_domain_scores(write(tmp_path / "b.csv", "domain,score\n"))
    with pytest.raises(InputFormatError, match="cannot read"):
        parse_domain_scores(str(tmp_path / "missing.csv"))


def test_invalid_domain_rejected(tmp_path):
    with pytest.raises(InputFormatError, match="registrable"):
        parse_domain_scores(write(tmp_path / "a.csv", "domain,score\nnodot,left\n"))


def test_a_quoted_domain_label_may_not_end_in_a_newline(tmp_path):
    path = write_raw(tmp_path / "s.csv", 'domain,score\na.example,left\n"abc\n.com",right\n')
    with pytest.raises(InputFormatError) as err:
        parse_domain_scores(path)
    assert str(err.value) == f"{path}:3: not a valid registrable domain: 'abc\\n.com'"


# ---------------------------------------------------------------- edges


def test_duplicate_edges_collapse(tmp_path):
    path = write(tmp_path / "e.csv", "follower,friend\nu1,u2\nu1,u2\n")
    edges = parse_follow_edges(path)
    assert list(edges.iter_edges()) == [("u1", "u2")]
    assert edges.n_duplicates_dropped == 1


def test_self_loops_dropped_with_counter(tmp_path):
    path = write(tmp_path / "e.csv", "follower,friend\nu1,u1\n")
    edges = parse_follow_edges(path)
    assert edges.n_edges == 0
    assert edges.n_self_loops_dropped == 1


def test_malformed_edge_row_reports_line(tmp_path):
    path = write(tmp_path / "e.csv", "follower,friend\nu1,u2\nonlyone\n")
    with pytest.raises(InputFormatError) as err:
        parse_follow_edges(path)
    assert ":3" in str(err.value)


def test_edge_sources(tmp_path):
    path = write(tmp_path / "e.csv", "follower,friend\na,b\nb,c\na,c\n")
    assert parse_follow_edges(path).sources() == {"a", "b"}


def reference_edges(path):
    """The edges CSV read one ``csv.reader`` row at a time: the specification
    the block parser must match."""
    return FollowEdgeList.from_pairs(ingest._edge_rows(path))


def edge_outcome(parse, path):
    """What a parser makes of a file: its names, each edge's follower and
    friend ids (the rows and columns of its entries) and its counters, or its
    error text."""
    try:
        edges = parse(path)
    except InputFormatError as exc:
        return str(exc)
    if edges is None:
        return None
    return (edges.names, edges.follow.entry_rows().tolist(), edges.follow.indices.tolist(),
            edges.n_self_loops_dropped, edges.n_duplicates_dropped)


def write_raw(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return str(path)


def block_parser_reads_alone(text):
    """Whether ``text`` needs no csv: its header line has no quote or carriage
    return and, unless it is a wrong header, which the block parser reports
    itself, each later line is blank or two non-empty fields around one comma."""
    head, newline, body = text.removeprefix("\ufeff").partition("\n")
    if not head + newline or '"' in head or "\r" in head:
        return False
    if [c.strip().lower() for c in head.split(",")] != ["follower", "friend"]:
        return True
    if '"' in body or "\r" in body:
        return False
    return all(not line or (line.count(",") == 1 and all(line.split(",")))
               for line in body.split("\n"))


PLAIN_BODY = "".join(f"u{i},u{i + 1}\n" for i in range(30))
# each file's bad row, and the file line it starts on, line breaks inside
# quoted names counted
LATE_ERRORS = {
    "one field": (PLAIN_BODY + "u1,u2\nu7\nu3,u4\n", 33),
    "three fields": (PLAIN_BODY + "u1,u2,u3\n", 32),
    "empty field": (PLAIN_BODY + "u1,u2\nu3,\n", 33),
    "quoted newline": (PLAIN_BODY + '"u\n1",u2\n\nu3,"u\n\n4"\nu5\n', 38),
    "crlf": (PLAIN_BODY.replace("\n", "\r\n") + "u1,u2\r\nu3\r\n", 33),
    "no final newline": (PLAIN_BODY + "u1,u2\nu3", 33),
}


@pytest.mark.parametrize("case", sorted(LATE_ERRORS))
def test_errors_after_the_first_block_are_csvs(tmp_path, monkeypatch, case):
    monkeypatch.setattr(ingest, "BLOCK_CHARS", 5)
    text, line = LATE_ERRORS[case]
    path = write_raw(tmp_path / "e.csv", "follower,friend\n" + text)
    expected = edge_outcome(reference_edges, path)
    assert expected.startswith(f"{path}:{line}: expected 2 non-empty fields")
    assert edge_outcome(parse_follow_edges, path) == expected


def test_a_bad_row_before_a_bad_byte_is_reported_first(tmp_path):
    # csv decodes the file as it reads lines, so the bad row on line 3 is
    # found before the byte that is not UTF-8, 30 kB further on
    path = tmp_path / "e.csv"
    path.write_bytes(b"follower,friend\nu1,u2\nu3\n" + b"u4,u5\n" * 5000 + b"u\xff,u6\n")
    expected = edge_outcome(reference_edges, str(path))
    assert expected.startswith(f"{path}:3: expected 2 non-empty fields")
    assert edge_outcome(parse_follow_edges, str(path)) == expected


@pytest.mark.parametrize("parse, text, line", [
    (parse_follow_edges, 'follower,friend\n"a\nb",c\nd,e\nf\n', 5),
    (parse_follow_edges, 'follower,friend\n"a\nb",c\n"x\ny"\n', 4),
    (parse_domain_scores, 'domain,score\na.example,"\n0.5"\nb.example,left\nc\n', 5),
    (parse_domain_scores, 'domain,score\na.example,"\n0.5"\n"b.\nexample",left\n', 4),
], ids=["edges-after", "edges-spanning", "scores-after", "scores-spanning"])
def test_a_bad_row_is_reported_at_the_file_line_it_starts_on(tmp_path, parse, text, line):
    # the row before it, or the bad row itself, has a quoted line break
    path = write_raw(tmp_path / "in.csv", text)
    with pytest.raises(InputFormatError) as err:
        parse(path)
    assert str(err.value).startswith(f"{path}:{line}: ")


def test_a_field_csv_would_refuse_is_left_to_csv(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "BLOCK_CHARS", 7)
    limit = csv.field_size_limit()
    try:
        csv.field_size_limit(8)
        path = write(tmp_path / "e.csv", "follower,friend\nabcdefgh,b\n")
        assert edge_outcome(ingest._parse_plain_edges, path) == (["abcdefgh", "b"], [0], [1], 0, 0)
        write(tmp_path / "e.csv", "follower,friend\nabcdefghi,b\n")
        assert ingest._parse_plain_edges(path) is None
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize("last, plain", [
    ("abcdefgh,abcdefgh", True),  # 17 characters: two fields csv allows and a comma
    ("abcdefgh,abcdefghi", False),
    ("x" * 40, False),
])
def test_an_unfinished_line_past_two_fields_is_left_to_csv(tmp_path, monkeypatch, last, plain):
    monkeypatch.setattr(ingest, "BLOCK_CHARS", 4)
    limit = csv.field_size_limit()
    try:
        csv.field_size_limit(8)
        path = write_raw(tmp_path / "e.csv", "follower,friend\nab,cd\n" + last)  # no line end
        expected = edge_outcome(reference_edges, path)
        assert edge_outcome(parse_follow_edges, path) == expected
        alone = edge_outcome(ingest._parse_plain_edges, path)
        assert alone == (expected if plain else None)
    finally:
        csv.field_size_limit(limit)


def test_line_blocks_stop_at_an_unfinished_line_past_the_bound(monkeypatch):
    monkeypatch.setattr(ingest, "BLOCK_CHARS", 4)
    assert list(ingest._line_blocks(io.StringIO("ab\n" + "x" * 17))) == ["ab\n", "x" * 17 + "\n"]
    assert list(ingest._line_blocks(io.StringIO("ab\n" + "x" * 17), 17)) == ["ab\n", "x" * 17 + "\n"]
    # the rest of the file is never read
    text = io.StringIO("ab\n" + "x" * 30 + "\n" + "y" * 100)
    assert list(ingest._line_blocks(text, 17)) == ["ab\n", None]
    assert text.tell() == 6 * 4  # the sixth read leaves 21 characters of a line unfinished


EDGE_NAME = st.sampled_from(["a", "b", "c", "ab", " a", "b ", "é", "名前", "x\x00y", "\ufeff"])
PLAIN_EDGE_LINE = st.one_of(st.builds("{},{}".format, EDGE_NAME, EDGE_NAME), st.just(""))
ODD_EDGE_LINE = st.sampled_from([
    "a", "a,b,c", ",b", "a,", ",", " ", '"a",b', '"a,b",c', '"a\nb",c', '"a""b",c',
    'a,"b', 'a"b,c', "a\rb,c", "a,b\r", "\r", '"a\r\nb",c',
])
EDGE_FILE = st.builds(
    lambda bom, head, lines, odd, newline, last: (
        bom + newline.join([head] + _with_odd_lines(lines, odd)) + last * newline
    ),
    st.sampled_from(["", "\ufeff"]),
    st.sampled_from(["follower,friend", "Follower , FRIEND", "follower,friend,x", "follower",
                     '"follower",friend', ""]),
    st.lists(PLAIN_EDGE_LINE, max_size=40),
    st.lists(st.tuples(st.integers(0, 40), ODD_EDGE_LINE), max_size=2),
    st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]),
    st.booleans(),
)


def _with_odd_lines(lines, odd):
    lines = list(lines)
    for at, line in odd:
        lines.insert(at, line)
    return lines


@given(EDGE_FILE, st.integers(1, 64))
@settings(max_examples=400, deadline=None)
def test_block_parser_matches_csv_reference(tmp_path_factory, text, block_chars):
    path = write_raw(tmp_path_factory.mktemp("edges") / "e.csv", text)
    with mock.patch.object(ingest, "BLOCK_CHARS", block_chars):
        expected = edge_outcome(reference_edges, path)
        assert edge_outcome(parse_follow_edges, path) == expected
        alone = edge_outcome(ingest._parse_plain_edges, path)
    assert alone == (expected if block_parser_reads_alone(text) else None)


# ---------------------------------------------------------------- events


def event_line(**kw):
    return json.dumps(kw)


def test_urls_normalized_to_plds(tmp_path):
    path = write(
        tmp_path / "ev.jsonl",
        event_line(id="t1", author="u1", ts=5, kind="original", urls=["http://A.Example/x?q=1"])
        + "\n",
    )
    log = parse_events(path)
    assert log.events[0].domains == ("a.example",)


def test_a_url_host_label_may_not_end_in_a_newline(tmp_path):
    urls = ["http://news.abc\n.com/x", "http://a.example/"]
    line = event_line(id="t1", author="u1", ts=5, kind="original", urls=urls)
    path = write(tmp_path / "ev.jsonl", line + "\n")
    log = parse_events(path)
    assert (log.domains, log.n_urls_dropped) == (("a.example",), 1)


def test_unresolvable_urls_dropped_with_counter(tmp_path):
    path = write(
        tmp_path / "ev.jsonl",
        event_line(
            id="t1", author="u1", ts=5, kind="original",
            urls=["http://bit.ly/x", "not a url", "http://ok.example/a"],
        )
        + "\n",
    )
    log = parse_events(path)
    assert log.events[0].domains == ("ok.example",)
    assert log.n_urls_dropped == 2


def test_retweet_requires_original_author(tmp_path):
    path = write(tmp_path / "ev.jsonl", event_line(id="t1", author="u1", ts=5, kind="retweet") + "\n")
    with pytest.raises(InputFormatError, match="orig_author"):
        parse_events(path)


def test_self_retweets_dropped_with_counter(tmp_path):
    path = write(
        tmp_path / "ev.jsonl",
        event_line(id="t1", author="u1", ts=5, kind="retweet", orig_author="u1") + "\n",
    )
    log = parse_events(path)
    assert len(log) == 0
    assert log.n_self_retweets_dropped == 1


def test_events_sorted_with_tweet_id_tiebreak(tmp_path):
    lines = [
        event_line(id="t3", author="u1", ts=30, kind="original", urls=[]),
        event_line(id="t1", author="u1", ts=10, kind="original", urls=[]),
        event_line(id="b", author="u2", ts=20, kind="original", urls=[]),
        event_line(id="a", author="u3", ts=20, kind="original", urls=[]),
    ]
    path = write(tmp_path / "ev.jsonl", "\n".join(lines) + "\n")
    log = parse_events(path)
    assert [e.tweet_id for e in log.events] == ["t1", "a", "b", "t3"]
    assert log.authors == ("u1", "u2", "u3")


def parse_counting_sorts(path):
    """The parsed log, and how many times the parse had to reorder events."""
    with mock.patch.object(ingest, "_time_order", wraps=ingest._time_order) as order:
        log = parse_events(path)
    return log, order.call_count


def test_an_ordered_log_and_a_shuffled_copy_parse_alike(tmp_path):
    urls = [[], ["http://a.example/x"], ["http://b.example/", "http://a.example/y"]]
    lines = [
        event_line(id=f"t{i:03d}", author=f"u{i % 7}", ts=i // 3, kind="original",
                   urls=urls[i % 3])
        if i % 4 else
        event_line(id=f"t{i:03d}", author=f"u{i % 5}", ts=i // 3, kind="retweet",
                   orig_author=f"u{i % 7}", urls=urls[i % 3])
        for i in range(60)
    ]
    ordered = write(tmp_path / "ordered.jsonl", "\n".join(lines) + "\n")
    random.Random(4).shuffle(lines)
    shuffled = write(tmp_path / "shuffled.jsonl", "\n".join(lines) + "\n")
    log, n_sorts = parse_counting_sorts(ordered)
    again, n_resorts = parse_counting_sorts(shuffled)
    assert (n_sorts, n_resorts) == (0, 1)  # the ordered columns are kept as read
    assert log.events == again.events
    assert (log.users, log.n_urls_dropped) == (again.users, again.n_urls_dropped)
    assert not log.ts.flags.writeable


@pytest.mark.parametrize("ts, ids, ordered", [
    ([], [], True),
    ([7], ["t1"], True),
    ([1, 2, 2, 3], ["z", "a", "b", "a"], True),
    ([5, 5], ["t10", "t9"], True),
    ([5, 5], ["t9", "t10"], False),  # ids compare as text, not as numbers
    ([5, 5], ["a", "a"], False),  # equal ids are not strictly ordered
    ([1, 3, 2, 4], ["a", "b", "c", "d"], False),
])
def test_in_time_order_compares_the_ids_of_tied_events(ts, ids, ordered):
    assert ingest._in_time_order(np.array(ts, dtype=np.int64), ids) is ordered


def test_tied_events_out_of_id_order_are_reordered(tmp_path):
    lines = [event_line(id=i, author="u1", ts=5, kind="original", urls=[]) for i in ("t9", "t10")]
    log, n_sorts = parse_counting_sorts(write(tmp_path / "ev.jsonl", "\n".join(lines) + "\n"))
    assert n_sorts == 1
    assert [e.tweet_id for e in log.events] == ["t10", "t9"]


def name_text(value, key, path, lineno):
    """An id or user name: a string, or an integer (not a bool) as its
    decimal text; any other value is refused."""
    if type(value) is str:
        return value
    if type(value) is int:
        return str(value)
    raise InputFormatError(f"bad {key} {value!r}", path=path, line=lineno)


def reference_parse(path, file_order=False):
    """The events JSONL read one ``TweetEvent`` per line, then sorted (unless
    ``file_order``): the plain-loop specification the columnar parser must
    match."""
    events = []
    n_urls_dropped = 0
    n_self_rts = 0
    with open(path, encoding="utf-8-sig", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputFormatError(f"invalid JSON: {exc}", path=path, line=lineno) from None
            if not isinstance(obj, dict):
                raise InputFormatError("record is not an object", path=path, line=lineno)
            try:
                tweet_id, author = obj["id"], obj["author"]
                ts, kind = obj["ts"], obj["kind"]
            except KeyError as exc:
                raise InputFormatError(
                    f"missing key {exc.args[0]!r}", path=path, line=lineno
                ) from None
            tweet_id = name_text(tweet_id, "id", path, lineno)
            author = name_text(author, "author", path, lineno)
            if (
                isinstance(ts, bool)
                or not isinstance(ts, (int, float))
                or ts < 0
                or (isinstance(ts, float) and not ts.is_integer())
                or ts > TS_MAX
            ):
                raise InputFormatError(f"bad timestamp {ts!r}", path=path, line=lineno)
            if kind not in (KIND_ORIGINAL, KIND_RETWEET):
                raise InputFormatError(f"bad kind {kind!r}", path=path, line=lineno)
            orig_author = obj.get("orig_author")
            if kind == KIND_RETWEET:
                if orig_author in (None, ""):
                    raise InputFormatError(
                        "retweet record lacks orig_author", path=path, line=lineno
                    )
                orig_author = name_text(orig_author, "orig_author", path, lineno)
                if orig_author == author:
                    n_self_rts += 1
                    continue
            else:
                orig_author = None
            urls = obj.get("urls", [])
            if not isinstance(urls, list):
                raise InputFormatError("urls must be an array", path=path, line=lineno)
            domains = []
            for url in urls:
                pld = extract_pld(url)
                if pld is None:
                    n_urls_dropped += 1
                else:
                    domains.append(pld)
            events.append(TweetEvent(tweet_id, author, int(ts), kind, orig_author, tuple(domains)))
    if not file_order:
        events.sort(key=lambda e: (e.timestamp, e.tweet_id))
    return events, n_urls_dropped, n_self_rts


BAD_RECORDS = [
    ('{"id": "t1", "author": "u1", "ts": -5, "kind": "original"}', "bad timestamp"),
    ('{"id": "t1", "author": "u1", "ts": 5.5, "kind": "original"}', "bad timestamp"),
    ('{"id": "t1", "author": "u1", "ts": true, "kind": "original"}', "bad timestamp"),
    ('{"id": "t1", "author": "u1", "ts": "5", "kind": "original"}', "bad timestamp"),
    ('{"id": "t1", "author": "u1", "ts": 9223372036854775808, "kind": "original"}',
     "bad timestamp"),
    ('{"id": "t1", "author": "u1", "ts": 1e23, "kind": "original"}', "bad timestamp"),
    ('{"id": "t1", "author": "u1", "ts": 5, "kind": "quote"}', "bad kind"),
    ('{"id": "t1", "author": "u1", "ts": 5}', "missing key 'kind'"),
    ('{"author": "u1", "ts": 5, "kind": "original"}', "missing key 'id'"),
    ("not json", "invalid JSON"),
    ("[1, 2]", "record is not an object"),
    ('{"id": "t1", "author": "u1", "ts": 5, "kind": "retweet"}', "retweet record lacks orig_author"),
    ('{"id": "t1", "author": "u1", "ts": 5, "kind": "original", "urls": "x"}',
     "urls must be an array"),
    ('{"id": null, "author": null, "ts": 5, "kind": "original"}', "bad id None"),
    ('{"id": 1.5, "author": "u1", "ts": 5, "kind": "original"}', "bad id 1.5"),
    ('{"id": "t1", "author": true, "ts": 5, "kind": "original"}', "bad author True"),
    ('{"id": "t1", "author": ["u1"], "ts": 5, "kind": "original"}', "bad author ['u1']"),
    ('{"id": "t1", "author": "u1", "ts": 5, "kind": "retweet", "orig_author": {"x": 1}}',
     "bad orig_author {'x': 1}"),
    ('{"id": "t1", "author": "u1", "ts": 5, "kind": "retweet", "orig_author": false}',
     "bad orig_author False"),
]


def test_bad_event_records(tmp_path):
    # two good lines and a blank one first, so each error must name line 4
    good = event_line(id="t0", author="u0", ts=1, kind="original", urls=["http://a.example/"])
    path = str(tmp_path / "ev.jsonl")
    for bad, message in BAD_RECORDS:
        write(tmp_path / "ev.jsonl", f"{good}\n{good}\n\n{bad}\n{good}\n")
        with pytest.raises(InputFormatError) as err:
            parse_events(path)
        assert f"ev.jsonl:4: {message}" in str(err.value)
        with pytest.raises(InputFormatError) as ref:
            reference_parse(path)
        assert str(err.value) == str(ref.value)


def test_timestamp_at_int64_max_accepted(tmp_path):
    path = write(
        tmp_path / "ev.jsonl",
        event_line(id="t1", author="u1", ts=TS_MAX, kind="original", urls=[]) + "\n",
    )
    assert parse_events(path).events[0].timestamp == TS_MAX


HOSTS = [
    "news.example.com", "News.Example.COM", "example.co.uk", "www.example.co.uk",
    "a.example", "A.EXAMPLE.", "bit.ly", "sub.t.co", "192.0.2.1", "[2001:db8::1]",
    "localhost", "exa mple.com", "foo.123", "..com", "co.uk", "x.www.ck",
]
URL_TEXT = st.builds(
    "{}{}{}{}{}".format,
    st.sampled_from(["", "http://", "HTTPS://", "ftp://"]),
    st.sampled_from(["", "user:pw@", "me@"]),
    st.sampled_from(HOSTS),
    st.sampled_from(["", ":8080", ":x", "."]),
    st.sampled_from(["", "/", "/a/b", "?q=1", "#frag", "/p?q=a/b"]),
)
URL = st.one_of(
    URL_TEXT,
    URL_TEXT.map(lambda u: f"  {u} "),
    st.sampled_from(["", "   ", "not a url", "javascript:void(0)"]),
    st.none(),
    st.integers(),
    st.lists(st.just("http://a.example/"), max_size=1),
)
USERS = ["u0", "u1", "u2", "u3"]
RECORD = st.fixed_dictionaries(
    {
        "id": st.one_of(st.sampled_from(["t1", "t2", "t10", "a", "B", "7"]), st.integers(-1, 12)),
        "author": st.one_of(st.sampled_from(USERS), st.integers(0, 1)),
        "ts": st.one_of(st.integers(0, 6), st.integers(0, 6).map(float),
                        st.just(TS_MAX), st.just(2.0**62)),
        "kind": st.sampled_from([KIND_ORIGINAL, KIND_RETWEET]),
        "orig_author": st.sampled_from(USERS + ["ghost", 0]),
    },
    optional={"urls": st.lists(URL, max_size=5)},
)
LINE = st.one_of(RECORD.map(json.dumps), st.sampled_from(["", "   ", "\t"]))


@given(st.lists(LINE, max_size=25))
@settings(max_examples=300, deadline=None)
def test_columns_match_per_line_reference(tmp_path_factory, lines):
    path = str(tmp_path_factory.mktemp("log") / "ev.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    expected, n_urls_dropped, n_self_rts = reference_parse(path)
    log = parse_events(path)
    assert log.events == tuple(expected)
    assert log.n_urls_dropped == n_urls_dropped
    assert log.n_self_retweets_dropped == n_self_rts
    assert log.authors == tuple(sorted({e.author for e in expected}))
    assert log.n_retweets == sum(e.is_retweet for e in expected)
    backwards = expected[::-1]
    assert EventLog.from_events(backwards).events == tuple(
        sorted(backwards, key=lambda e: (e.timestamp, e.tweet_id))
    )
    # a window keeps the order and the domains of the events inside it
    kept = log.restricted((2, 4))
    assert kept.events == tuple(e for e in expected if 2 <= e.timestamp <= 4)
    assert kept.authors == tuple(sorted({e.author for e in kept.events}))


@pytest.mark.parametrize("orig", [None, ""])
def test_from_events_refuses_a_retweet_without_an_original_author(orig):
    # the parsers refuse such a record with the same message; stored, it
    # would carry orig_author -1 and fail validate_dataset later
    with pytest.raises(InputFormatError, match="^retweet record lacks orig_author$"):
        EventLog.from_events([ev("t0", "u", 0), rt("t1", "v", 1, orig)])
    assert EventLog.from_events([rt("t1", "v", 1, "u")]).orig_author.tolist() == [0]


def write_event_lines(path, events):
    """``events`` written one json line each, with json's default separators
    (so the per-line reader reads them), each domain as ``http://{domain}/``."""
    lines = [
        event_line(id=e.tweet_id, author=e.author, ts=e.timestamp, kind=e.kind,
                   **({} if e.original_author is None else {"orig_author": e.original_author}),
                   urls=[f"http://{d}/" for d in e.domains])
        for e in events
    ]
    return write(path, "\n".join(lines) + "\n")


@pytest.mark.parametrize("events", [
    # an original that names an original author: the parsers ignore that name
    [ev("t0", "u", 0, orig="ghost", domains=["a.example"]), rt("t1", "v", 1, "u")],
    # a self-retweet is dropped and counted; "w", named only there, gets no id
    [ev("t0", "u", 0), rt("t1", "w", 1, "w", domains=["w.example"]), rt("t2", "v", 2, "u")],
    # domains the parser would never give: each is read as the URL written
    # for it, so one is folded to its registrable domain and three are dropped
    [ev("t0", "u", 0, domains=["www.Example.com", "co.uk", "bit.ly"]),
     rt("t1", "v", 1, "u", domains=["192.0.2.1", "example.org"])],
    # the parser reads an integer id as its decimal text, which sorts among the strings
    [ev("t", "u", 1, domains=["a.example"]), ev(5, "u", 1), ev(40, "v", 0)],
    # and an integer user too, author or original author
    [ev("t0", 12, 0), rt("t1", "v", 1, 12), rt("t2", 7, 2, "v")],
    [ev("t0", "u", 0), ev("t1", "u", -5)],
    [ev("t0", "u", 0), ev("t1", "u", 1, kind="quote")],
], ids=["original-naming-an-author", "self-retweet", "domains-the-parser-would-not-give",
        "int-id-tied-with-a-string-id", "int-author", "negative-timestamp", "kind-quote"])
def test_from_events_reads_what_parse_events_reads(tmp_path, events):
    # every column and counter alike, or the same error at the same line;
    # from_events names no path
    path = write_event_lines(tmp_path / "ev.jsonl", events)
    try:
        log = EventLog.from_events(events)
    except InputFormatError as exc:
        assert exc.path is None
        outcome = f"{path}:{exc.line}: {exc}"
    else:
        outcome = log_outcome(lambda _: log, path)
    assert outcome == log_outcome(parse_events, path)


def test_retweet_flag_is_derived_and_read_only():
    log = EventLog.from_events(
        [ev("t0", "u", 0), rt("t1", "v", 1, "u"), rt("t2", "u", 2, "w"), ev("t3", "w", 3)]
    )
    assert "retweet" not in {field.name for field in fields(EventLog)}
    taken = log.take(np.array([3, 1, 0]))
    assert taken.retweet.tolist() == [False, True, False]
    assert log.restricted((1, 2)).retweet.tolist() == [True, True]
    for part in (log, taken, log.restricted((1, 2)), log.restricted((5, 9))):
        assert part.retweet.tolist() == (part.orig_author >= 0).tolist()
        assert part.n_retweets == int(np.count_nonzero(part.orig_author >= 0))
        with pytest.raises(ValueError, match="read-only"):
            part.retweet[:] = True
        with pytest.raises(FrozenInstanceError):
            part.retweet = np.ones(len(part), dtype=bool)


@pytest.mark.parametrize("separators", [(",", ":"), (", ", ": ")])  # bulk, and json per line
@pytest.mark.parametrize("block_chars", [ingest.BLOCK_CHARS, 300])
def test_each_url_host_is_found_once(tmp_path, monkeypatch, separators, block_chars):
    # upper-case schemes fall outside hosts_of's pattern, so each URL's host
    # is found by _host_of; extract_pld is handed each distinct host once,
    # however many blocks it comes back in
    monkeypatch.setattr(ingest, "BLOCK_CHARS", block_chars)
    n_hosts = 5
    lines = [
        json.dumps({"id": f"t{i:02d}", "author": "u", "ts": i, "kind": KIND_ORIGINAL,
                    "urls": [f"HTTP://News{i % n_hosts}.example/{i}", f"HTTPS://a.example/{i}"]},
                   separators=separators)
        for i in range(12)
    ]
    path = write(tmp_path / "ev.jsonl", "\n".join(lines) + "\n")
    assert bool(ingest._CANONICAL_EVENT.fullmatch(lines[0])) == (separators == (",", ":"))
    host_calls = []
    extract_calls = []
    monkeypatch.setattr(psl, "_host_of", lambda url: host_calls.append(url) or _host_of(url))
    monkeypatch.setattr(
        ingest, "extract_pld", lambda *args: extract_calls.append(args) or extract_pld(*args)
    )
    log = parse_events(path)
    # in blocks of 300 characters, news0.example's second line is in a later block than its first
    assert (len("\n".join(lines[: n_hosts + 1])) > block_chars) == (block_chars == 300)
    assert sorted(host_calls) == sorted(url for line in lines for url in json.loads(line)["urls"])
    assert sorted(args[1] for args in extract_calls) == sorted(
        [f"news{h}.example" for h in range(n_hosts)] + ["a.example"]
    )
    assert log.domains == (
        "news0.example", "a.example", *(f"news{h}.example" for h in range(1, n_hosts))
    )


def log_outcome(parse, path):
    """Every column of the log a parser reads, its domain table and both
    counters; or the text of its first input error."""
    try:
        log = parse(path)
    except InputFormatError as exc:
        return str(exc)
    columns = (log.tweet_ids, log.author, log.ts, log.retweet, log.orig_author,
               log.domain_ptr, log.domain_ids)
    return (log.users, log.domains, *(c.tolist() for c in columns),
            log.n_urls_dropped, log.n_self_retweets_dropped)


def reference_log(path):
    """``reference_parse``'s events as a log, put straight into the columns
    (not through either reader): each domain as the host of
    ``http://{domain}/``, numbered in the order the file names them."""
    events, n_urls_dropped, n_self_rts = reference_parse(path, file_order=True)
    cols = ingest._EventColumns()
    cols.extend(
        [e.tweet_id for e in events], [e.author for e in events], [e.timestamp for e in events],
        [e.original_author for e in events], [len(e.domains) for e in events],
        hosts_of([f"http://{d}/" for e in events for d in e.domains]),
    )
    return replace(cols.log(), n_urls_dropped=n_urls_dropped, n_self_retweets_dropped=n_self_rts)


# mostly names json writes as they stand, sometimes text it must escape
# (with ensure_ascii, all non-ASCII too)
EVENT_TEXT = st.text(st.sampled_from(
    ["a", "b", "0", " ", ".", "é", "名", "\u2028", "\x85", "\x7f", '"', "\\", "\n", "\t"]
), max_size=3)
PLAIN_NAME = st.sampled_from(["u0", "u1", "u2", "u3", "é", "a\u2028b", "x\x85", "t 1"])


def mostly(common, rare, one_in):
    """``common``, but ``rare`` once in about ``one_in`` draws."""
    return st.integers(1, one_in).flatmap(lambda i: rare if i == one_in else common)


EVENT_NAME = mostly(PLAIN_NAME, EVENT_TEXT, 12)
EVENT_URL = mostly(st.one_of(URL_TEXT, st.none()), st.sampled_from([
    "http://news.abc\n.com/x", "http://a.example/\u2028", "HTTP://\u212a.example/",
    "http://x.example:8080/", 'http://b.example/"q"', "null", "", 0,
]), 6)
EVENT_TS = mostly(st.integers(0, 4), st.sampled_from([10**18 - 1, TS_MAX, 3.0]), 8)


@st.composite
def canonical_events(draw):
    """An event line as ``write_events`` writes it: its keys in that order,
    no spaces. Some values and keys send the line to json instead."""
    author = draw(EVENT_NAME)
    obj = {"id": draw(EVENT_NAME), "author": author, "ts": draw(EVENT_TS)}
    obj["kind"] = draw(st.sampled_from([KIND_ORIGINAL, KIND_RETWEET]))
    orig = draw(st.one_of(EVENT_NAME, EVENT_NAME, st.just(author)))  # or a self-retweet
    # a retweet names its original author; an original now and then names one too
    if (obj["kind"] == KIND_RETWEET) != (draw(st.integers(1, 32)) == 32):
        obj["orig_author"] = orig
    obj["urls"] = draw(st.lists(EVENT_URL, max_size=4))
    odd_key = st.sampled_from([',"lang":"en"', ',"urls":[]', ',"id":"d"'])
    extra = draw(mostly(st.just(""), odd_key, 12))
    line = json.dumps(obj, separators=(",", ":"), ensure_ascii=draw(st.integers(1, 6)) == 6)
    return line[:-1] + extra + "}"


def with_urls_text(line, text):
    """``line`` with ``text`` inside its urls array, and nothing after it."""
    return line[: line.rindex('"urls":[')] + '"urls":[' + text + "]}"


# urls array texts at the edge of what the bulk check takes: quotes that do
# not pair up, separators the grammar refuses, values that are not strings or
# null, escapes and control characters, and "]}" inside the array
URL_ARRAY_TEXTS = [
    '"a', '"a","b', '"""', '"a"""',
    '"a",,"b"', ",,", ',"a"', '"a",', ",", "null,", ",null", "null,,null",
    'null"a"', '"a"null', "nul", "nulll", '"a",nul', "null null",
    "[]", '"a",[]', '["a"]', "1", '"a",1', " ", '"a", "b"', ' "a"', '"a" ',
    '"a\\b"', '"a\\"b"', '"a\\\\b"', '"\\u00e9"', '"a\tb"', '"a\x01b"', '"a\x1fb"',
    '"\x7f\u00e9"',
    '"a]}"', '"]}","b"', '"a"]},"x":["b"', '"a"]}',
    "null", "null,null", "", '""', '"",null,""', '"http://a.example/",null',
]
# two lines whose arrays each hold one quote: read together, they would pair up
SPANNING_PAIR = ('"http://x.example/', 'a"')
# a canonical line, or now and then one with an edge-case array or two lines
# with the spanning pair (the two as one item, joined by "\n")
CANONICAL_LINE = mostly(canonical_events(), st.one_of(
    st.builds(with_urls_text, canonical_events(), st.sampled_from(URL_ARRAY_TEXTS)),
    st.builds(lambda first, second: "\n".join(map(with_urls_text, (first, second), SPANNING_PAIR)),
              canonical_events(), canonical_events()),
), 16)


# lines that are not canonical but read well
ODD_EVENT_LINE = st.one_of(
    st.sampled_from(["", "   ", "\t", "\x85", "\u2028"]),  # blank once stripped
    canonical_events().map(lambda line: f"  {line} "),
    canonical_events().map(lambda line: json.dumps(json.loads(line))),  # ", " separators
    canonical_events().map(lambda line: line + "\r"),
)
# lines that json or a check refuses
BAD_EVENT_LINE = st.one_of(
    canonical_events().map(lambda line: "\ufeff" + line),  # a byte-order mark past the start
    canonical_events().map(lambda line: line.replace('"ts":', '"ts":-', 1)),
    canonical_events().map(lambda line: line.replace('"ts":', '"ts":0', 1)),
    canonical_events().map(lambda line: line.replace(',"author"', '\r,"author"', 1)),
    st.sampled_from([
        "not json", "[1]", '{"id":"t","author":"u","ts":1,"kind":"quote","urls":[]}',
        '{"id":"t","author":"u","ts":1,"kind":"retweet","orig_author":"","urls":[]}',
        '{"id":"t","author":"u","ts":1,"kind":"original","urls":"x"}',
        '{"id":null,"author":"u","ts":1,"kind":"original","urls":[]}',
        '{"id":"t","author":true,"ts":1,"kind":"original","urls":[]}',
        '{"id":"t","author":["u"],"ts":1,"kind":"original","urls":[]}',
        '{"id":"t","author":"u","ts":1,"kind":"retweet","orig_author":{"x":1},"urls":[]}',
    ]),
)
EVENT_FILE = st.builds(
    lambda lines, odd, bad, newline, last: (
        newline.join(_with_odd_lines(_with_odd_lines(lines, odd), bad)) + last * newline
    ),
    st.lists(CANONICAL_LINE, max_size=30),
    st.lists(st.tuples(st.integers(0, 30), ODD_EVENT_LINE), max_size=3),
    mostly(st.just([]), st.lists(st.tuples(st.integers(0, 33), BAD_EVENT_LINE), min_size=1,
                                 max_size=2), 5),
    mostly(st.just("\n"), st.just("\r\n"), 8),
    st.booleans(),
)


@given(EVENT_FILE, st.integers(1, 400))
@settings(max_examples=400, deadline=None)
def test_block_reader_matches_per_line_reference(tmp_path_factory, text, block_chars):
    path = write_raw(tmp_path_factory.mktemp("log") / "ev.jsonl", text)
    expected = log_outcome(reference_log, path)
    with mock.patch.object(ingest, "BLOCK_CHARS", block_chars):
        assert log_outcome(parse_events, path) == expected


EDGE_CASE_LINES = [
    '{"id":"t","author":"u","ts":0,"kind":"retweet","orig_author":"","urls":[]}',
    '{"id":"t","author":"u","ts":0,"kind":"original","orig_author":"","urls":[]}',
    '{"id":"t","author":"","ts":0,"kind":"retweet","orig_author":"","urls":[]}',
    '{"id":"t","author":"","ts":0,"kind":"original","urls":[]}',
    '{"id":"t","author":"u","ts":0,"kind":"retweet","orig_author":"u","urls":["http://a.example/"]}',
    '{"id":"t","author":"u","ts":00,"kind":"original","urls":[]}',
    '{"id":"t","author":"u","ts":-0,"kind":"original","urls":[]}',
    '{"id":"t","author":"u","ts":9223372036854775807,"kind":"original","urls":[]}',
    '{"id":"t","author":"u","ts":9223372036854775808,"kind":"original","urls":[]}',
    '{"id":"t","author":"u","ts":999999999999999999,"kind":"original","urls":[null,"",null]}',
    '{"id":"t","author":"u","ts":1,"kind":"original","urls":["http://A.example/x","null",null]}',
    '{"id":"t","author":"u","ts":1,"kind":"original","urls":["http://a.example/\\"x"]}',
    '{"id":"t","author":"u","ts":1,"kind":"original","urls":[1]}',
    '{"id":"t","author":"u","ts":1,"kind":"Original","urls":[]}',
    # an id or a user is a string or an integer (its decimal text), nothing else
    '{"id":7,"author":12,"ts":1,"kind":"retweet","orig_author":-3,"urls":["http://a.example/"]}',
    '{"id":"t","author":"u","ts":1,"kind":"retweet","orig_author":0,"urls":[]}',
    '{"id":"t","author":"12","ts":1,"kind":"retweet","orig_author":12,"urls":[]}',
    '{"id":"t","author":"u","ts":1,"kind":"original","orig_author":null,"urls":[]}',
    '{"id":null,"author":null,"ts":1,"kind":"original","urls":[]}',
    '{"id":1.0,"author":"u","ts":1,"kind":"original","urls":[]}',
    '{"id":"t","author":true,"ts":1,"kind":"original","urls":[]}',
    '{"id":"t","author":"u","ts":1,"kind":"retweet","orig_author":{"x":1},"urls":[]}',
    '{"id":"t","author":"u","ts":1,"kind":"retweet","orig_author":false,"urls":[]}',
    *(with_urls_text('{"id":"t","author":"u","ts":1,"kind":"original","urls":[]}', text)
      for text in URL_ARRAY_TEXTS),
    # a self-retweet is dropped, but only once json has read its line
    with_urls_text('{"id":"t","author":"u","ts":1,"kind":"retweet","orig_author":"u","urls":[]}',
                   '"a",,"b"'),
    "\n".join(  # "\n" stands for the file's line end
        with_urls_text('{"id":"t%d","author":"u","ts":1,"kind":"original","urls":[]}' % i, text)
        for i, text in enumerate(SPANNING_PAIR)
    ),
]


@pytest.mark.parametrize("line", EDGE_CASE_LINES)
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("block_chars", [7, 400, ingest.BLOCK_CHARS])
@pytest.mark.parametrize("mixed", [False, True])
def test_lines_at_the_edge_of_the_canonical_shape(tmp_path, line, newline, block_chars, mixed):
    good = '{"id":"g%d","author":"u%d","ts":%d,"kind":"original","urls":["http://b%d.example/"]}'
    lines = [good % (i, i, i, i) for i in range(4)]
    if mixed:  # a line json reads but the canonical shape does not take
        lines[3] = json.dumps(json.loads(lines[3]))
    text = newline.join(lines[:2] + [line.replace("\n", newline)] + lines[2:]) + newline
    path = write_raw(tmp_path / "ev.jsonl", text)
    expected = log_outcome(reference_log, path)
    with mock.patch.object(ingest, "BLOCK_CHARS", block_chars):
        assert log_outcome(parse_events, path) == expected


# ---------------------------------------------------------------- round trips


def test_parse_write_parse_idempotent(tmp_path):
    scores_path = write(
        tmp_path / "s.csv", "domain,score\na.example,left-center\nb.example,0.125\n"
    )
    edges_path = write(tmp_path / "e.csv", "follower,friend\nu1,u2\nu2,u3\nu1,u1\n")
    events_path = write(
        tmp_path / "ev.jsonl",
        "\n".join(
            [
                event_line(id="t2", author="u1", ts=9, kind="original",
                           urls=["http://a.example/x"]),
                event_line(id="t1", author="u2", ts=3, kind="retweet", orig_author="u3",
                           urls=["http://b.example/y", "junk"]),
            ]
        )
        + "\n",
    )
    table = parse_domain_scores(scores_path)
    edges = parse_follow_edges(edges_path)
    log = parse_events(events_path)

    write_domain_scores(table, str(tmp_path / "s2.csv"))
    write_follow_edges(edges, str(tmp_path / "e2.csv"))
    write_events(log, str(tmp_path / "ev2.jsonl"))

    assert parse_domain_scores(str(tmp_path / "s2.csv")) == table
    assert parse_follow_edges(str(tmp_path / "e2.csv")) == edges
    log2 = parse_events(str(tmp_path / "ev2.jsonl"))
    assert log2.events == log.events
    assert log2.authors == log.authors


def test_write_events_writes_characters_as_they_are(tmp_path):
    path = write_raw(tmp_path / "ev.jsonl", "".join(
        event_line(id=tweet_id, author=author, ts=ts, kind=KIND_RETWEET, orig_author=orig,
                   urls=["http://a.example/"]) + "\n"
        for tweet_id, author, ts, orig in [
            ("t1", "josé", 1, "名前"), ("t2", "a\u2028b", 2, "x\x85\x7f"),
            ("t3", 'q"\\', 3, "tab\t"), ("t4", "\ud800", 4, "é"),
        ]
    ))
    log = parse_events(path)
    write_events(log, str(tmp_path / "ev2.jsonl"))
    written = (tmp_path / "ev2.jsonl").read_text(encoding="utf-8")
    assert '"author":"josé","ts":1,"kind":"retweet","orig_author":"名前"' in written
    assert '"author":"\\ud800"' in written  # the one character UTF-8 cannot carry
    lines = written.split("\n")
    assert lines.pop() == ""
    canonical = [ingest._CANONICAL_EVENT.fullmatch(line) is not None for line in lines]
    assert canonical == [True, True, False, False]  # json escapes '"', "\\", "\t" and "\ud800"
    assert parse_events(str(tmp_path / "ev2.jsonl")).events == log.events


def test_write_events_failure_leaves_previous_file(tmp_path):
    path = tmp_path / "events.jsonl"
    write_events(EventLog.from_events([ev("t0", "u", 0)]), str(path))
    before = path.read_bytes()
    # the second event's id cannot be serialised, so the write fails after
    # the first line; from_events would refuse that id, so it is put in after
    log = EventLog.from_events([ev("t1", "u", 1), ev("t2", "u", 2)])
    broken = replace(log, tweet_ids=np.array(["t1", object()], dtype=object))
    with pytest.raises(TypeError):
        write_events(broken, str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["events.jsonl"]
    path.unlink()
    with pytest.raises(TypeError):
        write_events(broken, str(path))
    assert list(tmp_path.iterdir()) == []


def test_atomic_open_names_a_path_it_cannot_write(tmp_path):
    with pytest.raises(EchoscopeError) as err:
        with ingest.atomic_open(str(tmp_path / "nodir" / "x")):
            pass
    assert str(err.value) == f"{tmp_path}/nodir/x: cannot write file: No such file or directory"
    # an error while writing is raised as it is, and the temporary file goes
    with pytest.raises(OSError, match="disk full"):
        with ingest.atomic_open(str(tmp_path / "x")):
            raise OSError("disk full")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- validation


def test_validate_closed_bundle(tiny_bundle):
    report = validate_dataset(tiny_bundle)
    assert report.ok
    assert report.n_dangling_retweets == 0
    assert report.seeds_without_friends == ()
    assert report.frac_events_with_scored_domain == 1.0


def test_validate_flags_friendless_seed():
    bundle = make_bundle(
        {"a.example": 0.5},
        [("s1", "f1")],
        [ev("t1", "s1", 1, domains=["a.example"])],
        seeds={"s1", "s2"},
    )
    report = validate_dataset(bundle)
    assert not report.ok
    assert report.seeds_without_friends == ("s2",)


def test_validate_counts_dangling_retweets():
    bundle = make_bundle(
        {"a.example": 0.5},
        [("s1", "f1")],
        [rt("t1", "s1", 1, "ghost", domains=["a.example"])],
    )
    report = validate_dataset(bundle)
    assert report.ok  # dangling retweets are warnings, not errors
    assert report.n_dangling_retweets == 1
    assert report.dangling_retweet_authors == ("ghost",)


def test_validate_scored_fraction():
    bundle = make_bundle(
        {"a.example": 0.5},
        [("s1", "f1")],
        [
            ev("t1", "s1", 1, domains=["a.example"]),
            ev("t2", "s1", 2, domains=["unscored.example"]),
            ev("t3", "f1", 3, domains=[]),
            ev("t4", "f1", 4, domains=["a.example", "unscored.example"]),
        ],
    )
    assert validate_dataset(bundle).frac_events_with_scored_domain == 0.5


# distinct ids are counted with np.bincount; np.unique is the reference
NAMES = st.sampled_from(["a", "b", "c", "d", "e"])
LOGGED_EVENT = st.tuples(
    NAMES, st.one_of(st.none(), NAMES),
    st.lists(st.sampled_from(["a.example", "b.example", "c.example"]), max_size=3),
)


@given(st.lists(st.tuples(NAMES, NAMES), max_size=20))
@example([])
@example([("a", "b")])
@settings(max_examples=100, deadline=None)
def test_edge_sources_match_unique(pairs):
    edges = FollowEdgeList.from_pairs(pairs)
    rows = np.unique(edges.follow.entry_rows())
    assert edges.sources() == {edges.names[i] for i in rows.tolist()}


@given(st.lists(LOGGED_EVENT, max_size=20))
@example([])
@example([("a", None, ["a.example"])])
@example([("a", "b", [])])
@settings(max_examples=200, deadline=None)
def test_authors_and_validation_counts_match_unique(events):
    log_events = [
        ev(f"t{i:02d}", author, i, domains=domains) if orig is None
        else rt(f"t{i:02d}", author, i, orig, domains=domains)
        for i, (author, orig, domains) in enumerate(events)
    ]
    bundle = make_bundle({"a.example": 0.5, "b.example": 1.0}, [("a", "b")], log_events)
    log = bundle.log
    assert log.authors == tuple(log.users[a] for a in np.unique(log.author).tolist())
    report = validate_dataset(bundle)
    is_author = np.isin(log.orig_author, log.author)
    dangling = np.unique(log.orig_author[log.retweet & ~is_author]).tolist()
    assert report.dangling_retweet_authors == tuple(log.users[i] for i in dangling)
    scored = np.array([d in bundle.scores for d in log.domains], dtype=bool)[log.domain_ids]
    n_scored = np.unique(log.event_of_domain()[scored]).size
    assert report.frac_events_with_scored_domain == (n_scored / len(log) if len(log) else 0.0)


def per_pair_edges(pairs):
    """The edge list built a pair at a time: each self-loop dropped, each
    name numbered on first appearance, then the edges sorted and deduplicated."""
    names, index, edges, n_self = [], {}, [], 0
    for follower, friend in pairs:
        if follower == friend:
            n_self += 1
            continue
        for name in (follower, friend):
            if name not in index:
                index[name] = len(names)
                names.append(name)
        edges.append((index[follower], index[friend]))
    unique = sorted(set(edges))
    return (names, [s for s, _ in unique], [d for _, d in unique], n_self,
            len(edges) - len(unique))


# "x,y" must be quoted, so a file that names it is read by csv
EDGE_NAMES = st.sampled_from(["a", "b", "c", "d", "x,y"])


def edges_csv(path, pairs):
    """An edges CSV of ``pairs`` as csv.writer writes it."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([("follower", "friend"), *pairs])
    return write(path, text.getvalue())


@pytest.mark.parametrize("block_chars", [3, ingest.BLOCK_CHARS])
def test_from_pairs_matches_parser(tmp_path, monkeypatch, block_chars):
    monkeypatch.setattr(ingest, "BLOCK_CHARS", block_chars)  # pairs per batch

    def check(pairs):
        built = FollowEdgeList.from_pairs(iter(pairs))
        path = edges_csv(tmp_path / "e.csv", pairs)
        expected = per_pair_edges(pairs)
        assert edge_outcome(lambda _: built, path) == expected
        assert edge_outcome(parse_follow_edges, path) == expected
        assert built == parse_follow_edges(path)
        assert built.follow.data.tolist() == [1] * built.n_edges
        return expected

    # drawn lists: repeats, self-loops, names seen only in self-loops
    @given(st.lists(st.tuples(EDGE_NAMES, EDGE_NAMES), max_size=24))
    @example([])
    @example([("a", "a"), ("b", "c"), ("b", "c"), ("d", "d"), ("c", "b")])
    @settings(max_examples=100, deadline=None)
    def drawn(pairs):
        check(pairs)

    drawn()
    pairs = [(f"u{i % 97}", f"u{i * 7 % 101}") for i in range(2 * block_chars + 5)]
    # self-loops on both sides of the first batch boundary, and one of a
    # name seen only in the next batch
    pairs[block_chars - 1] = ("a", "a")
    pairs[block_chars] = ("b", "b")
    pairs[block_chars + 1] = ("b", "u0")
    pairs[-1] = pairs[1]
    expected = check(pairs)
    assert expected[3] >= 2 and expected[4] >= 1  # self-loops and duplicates were dropped
    assert "a" not in expected[0] and "b" in expected[0]


def test_scores_with_a_byte_order_mark(tmp_path):
    path = write(tmp_path / "s.csv", "\ufeffdomain,score\na.example,left\n")
    assert parse_domain_scores(path) == {"a.example": 0.0}


@pytest.mark.parametrize("row", ["u1,u2", '"u1",u2'])  # the block parser, and csv
def test_edges_with_a_byte_order_mark(tmp_path, row):
    edges = parse_follow_edges(write(tmp_path / "e.csv", f"\ufefffollower,friend\n{row}\n"))
    follow = edges.follow
    assert (edges.names, follow.entry_rows().tolist(), follow.indices.tolist()) == (
        ["u1", "u2"], [0], [1])


def test_events_with_a_byte_order_mark(tmp_path):
    line = event_line(id="t1", author="u1", ts=5, kind="original", urls=["http://a.example/"])
    log = parse_events(write(tmp_path / "ev.jsonl", "\ufeff" + line + "\n"))
    assert [(e.author, e.domains) for e in log.events] == [("u1", ("a.example",))]
