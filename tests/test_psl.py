import json
from importlib import resources

from hypothesis import example, given, settings
from hypothesis import strategies as st

from echoscope.ingest import parse_events
from echoscope.psl import (
    DEFAULT_SHORTENER_SKIP,
    SuffixRules,
    _host_of,
    default_rules,
    extract_pld,
    hosts_of,
    is_valid_pld,
)


def test_registrable_domain_under_known_suffix():
    # co.uk is a rule in the bundled snapshot, so the registrable level is
    # one label above it
    assert extract_pld("https://www.news.example.co.uk/a") == "example.co.uk"
    assert extract_pld("http://example.co.uk") == "example.co.uk"


def test_not_a_url_returns_none():
    assert extract_pld("not a url") is None
    assert extract_pld("") is None
    assert extract_pld("   ") is None


def test_ip_literals_return_none():
    assert extract_pld("http://192.0.2.1/x") is None
    assert extract_pld("http://[2001:db8::1]/x") is None
    assert extract_pld("http://10.0.0.300/") is None


def test_scheme_port_userinfo_query_stripping():
    assert extract_pld("HTTPS://user:pw@News.Example.COM:8080/path?q=1#frag") == "example.com"
    assert extract_pld("example.com/path") == "example.com"
    assert extract_pld("http://example.com.") == "example.com"


def test_bare_public_suffix_has_no_registrable_domain():
    assert extract_pld("http://co.uk/") is None
    assert extract_pld("http://com/") is None


def test_unknown_tld_falls_back_to_rightmost_label():
    assert extract_pld("http://a.example/x") == "a.example"
    assert extract_pld("http://deep.sub.a.example/x") == "a.example"


def test_wildcard_and_exception_rules():
    rules = default_rules()
    # *.ck makes any single label under ck a public suffix, except www.ck
    assert rules.registrable_domain("foo.bar.ck") == "foo.bar.ck"
    assert rules.registrable_domain("bar.ck") is None
    assert rules.registrable_domain("www.ck") == "www.ck"
    assert rules.registrable_domain("x.www.ck") == "www.ck"


def test_one_label_exception_rule_leaves_the_last_label():
    # "!ab" makes ab's public suffix empty, so ab itself is registrable
    rules = SuffixRules(["!ab"])
    assert rules.public_suffix("x.ab") == ""
    assert rules.registrable_domain("x.ab") == "ab"
    assert rules.registrable_domain("y.x.ab") == "ab"
    assert rules.registrable_domain("ab") == "ab"


def test_shortener_skip_list():
    assert "bit.ly" in DEFAULT_SHORTENER_SKIP
    assert extract_pld("http://bit.ly/abc123") is None
    assert extract_pld("https://sub.bit.ly/abc") is None
    # the skip list, not the suffix rules, is what drops it
    assert default_rules().registrable_domain("bit.ly") == "bit.ly"


def test_numeric_or_malformed_labels():
    assert extract_pld("http://foo.123/") is None
    assert extract_pld("http://exa mple.com/") is None
    assert extract_pld("http://..com/") is None
    assert extract_pld(None) is None  # type: ignore[arg-type]


def test_a_label_may_not_end_in_a_newline():
    assert not is_valid_pld("abc\n.com")
    assert not is_valid_pld("abc.com\n")
    assert is_valid_pld("abc.com")


def test_snapshot_carries_a_version():
    assert default_rules().version == "1"


def test_rules_parse_ignores_comments_and_blanks():
    rules = SuffixRules(["// comment", "", "com", "*.zz", "!ok.zz"])
    assert rules.registrable_domain("a.b.com") == "b.com"
    assert rules.registrable_domain("x.y.zz") == "x.y.zz"
    assert rules.registrable_domain("deep.ok.zz") == "ok.zz"


@given(st.text(max_size=80))
@settings(max_examples=300, deadline=None)
def test_extract_pld_is_total_and_stable(url):
    # never raises, and a successful extraction is a fixed point
    result = extract_pld(url)
    if result is not None:
        assert is_valid_pld(result)
        assert extract_pld(f"http://{result}/") == result


@given(st.text(max_size=80))
@settings(max_examples=200, deadline=None)
def test_extract_pld_is_deterministic(url):
    assert extract_pld(url) == extract_pld(url)


# URL spellings around a host: scheme, userinfo, port, trailing dot, path,
# case and padding all vary while the host may stay the same
HOST = st.one_of(
    st.sampled_from([
        "news.example.com", "example.co.uk", "other.co.uk", "co.uk", "a.example",
        "bit.ly", "sub.t.co", "192.0.2.1", "[2001:db8::1]", "localhost", "foo.123",
        "x.www.ck", "exa mple.com",
    ]),
    st.from_regex(r"[a-zA-Z0-9_.-]{1,12}", fullmatch=True),
)
SPELLED_URL = st.builds(
    "{}{}{}{}{}{}{}".format,
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from(["", "http://", "HTTPS://", "x://"]),
    st.sampled_from(["", "user:pw@", "a@b@"]),
    HOST,
    st.sampled_from(["", ".", "..", ":80", ":8080", ":", ":x"]),
    st.sampled_from(["", "/", "/A/b", "?q=1", "#f", "/x:1@y"]),
    st.sampled_from(["", " "]),
).map(lambda u: u.upper() if len(u) % 3 == 0 else u)
ANY_URL = st.one_of(SPELLED_URL, st.text(max_size=40))


@given(st.lists(ANY_URL, min_size=2, max_size=30))
@settings(max_examples=300, deadline=None)
def test_urls_with_one_host_share_one_pld(urls):
    # parse_events resolves each host once: sound only if the host decides
    seen = {}
    for url in urls:
        pld = extract_pld(url)
        assert seen.setdefault(_host_of(url), pld) == pld


@given(st.lists(st.lists(st.one_of(ANY_URL, st.none(), st.integers()), max_size=6), max_size=12))
@settings(max_examples=200, deadline=None)
def test_memoised_extraction_matches_each_url(tmp_path_factory, url_lists):
    path = tmp_path_factory.mktemp("urls") / "ev.jsonl"
    path.write_text(
        "".join(
            json.dumps({"id": f"t{i:03d}", "author": "u", "ts": i, "kind": "original", "urls": urls})
            + "\n"
            for i, urls in enumerate(url_lists)
        ),
        encoding="utf-8",
    )
    log = parse_events(str(path))
    per_url = [[extract_pld(url) for url in urls] for urls in url_lists]
    assert [ev.domains for ev in log.events] == [
        tuple(pld for pld in plds if pld is not None) for plds in per_url
    ]
    assert log.n_urls_dropped == sum(pld is None for plds in per_url for pld in plds)


# URLs of the shape hosts_of's regex takes, and spellings just outside it
REGEX_URL = st.builds(
    "{}{}{}{}{}".format,
    st.sampled_from(["http://", "HTTPS://", "ftp://", "", "h-t://", " http://", "x:"]),
    st.sampled_from(["", "", "me@"]),
    st.one_of(HOST, st.sampled_from([
        "\u212a.example", "\u0130.example", "a\u2028.example", "a.example.", "a..b", "-",
        "_x.Example",
    ])),
    st.sampled_from(["", "", ":80", ":", ".", "\r", " ", "\x85"]),
    st.sampled_from(["", "/", "/a b", "?q=1", "#f", "/\u2028", "/\r"]),
)


@given(st.lists(st.one_of(REGEX_URL, REGEX_URL, ANY_URL), max_size=12))
@settings(max_examples=400, deadline=None)
def test_hosts_of_matches_host_of(urls):
    assert hosts_of(urls) == [_host_of(url) for url in urls]


def test_hosts_of_a_url_with_a_line_end():
    urls = ["http://a.example/x\ny", "http://news.abc\n.com/", "HTTP://B.example"]
    assert hosts_of(urls) == ["a.example", "news.abc\n.com", "b.example"]
    assert hosts_of([]) == []


def reference_public_suffix(rules, host):
    """``SuffixRules.public_suffix`` as a scan of every tail of the host, from
    the longest: the specification the bounded lookup must match."""
    exact = {line for line in rules if not line.startswith(("!", "*."))}
    wildcard = {line[2:] for line in rules if line.startswith("*.")}
    exception = {line[1:] for line in rules if line.startswith("!")}
    labels = host.split(".")
    best = labels[-1]  # implicit "*" rule
    best_len = 1
    for i in range(len(labels)):
        candidate = ".".join(labels[i:])
        n = len(labels) - i
        if candidate in exception:
            return ".".join(labels[i + 1 :])
        if candidate in exact and n > best_len:
            best, best_len = candidate, n
        if n >= 2:
            rest = ".".join(labels[i + 1 :])
            if rest in wildcard and n > best_len:
                best, best_len = candidate, n
    return best


def reference_registrable_domain(rules, host):
    suffix = reference_public_suffix(rules, host)
    if host == suffix:
        return None
    if not suffix:  # a one-label exception rule leaves an empty suffix
        return host.rsplit(".", 1)[-1]
    prefix = host[: -(len(suffix) + 1)]
    return prefix.rsplit(".", 1)[-1] + "." + suffix


# few label names, so that rules overlap each other and the hosts
RULE = st.builds(
    "{}{}".format,
    st.sampled_from(["", "*.", "!"]),
    st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=4).map(".".join),
)
RULE_HOST = st.lists(st.sampled_from(["a", "b", "c", "d", ""]), max_size=6).map(".".join)


@given(st.lists(RULE, max_size=12), st.lists(RULE_HOST, min_size=1, max_size=8))
@settings(max_examples=500, deadline=None)
# an exception rule of one label: its public suffix is empty, so the host's
# last label is the registrable domain
@example(rules=["!ab"], hosts=["x.ab", "ab", "y.x.ab"])
def test_bounded_lookup_matches_a_scan_of_every_tail(rules, hosts):
    table = SuffixRules(rules)
    for host in hosts:
        assert table.public_suffix(host) == reference_public_suffix(rules, host)
        assert table.registrable_domain(host) == reference_registrable_domain(rules, host)


def test_bounded_lookup_on_the_bundled_snapshot():
    rules = [
        line.strip() for line in resources.files("echoscope")
        .joinpath("data/public_suffix_snapshot.dat").read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("//")
    ]
    table = default_rules()
    for host in ["www.ck", "x.www.ck", "a.b.ck", "news.example.co.uk", "co.uk", "uk", "",
                 "a..co.uk", "x.y.z.example.com.au", "deep.sub.a.example"]:
        assert table.public_suffix(host) == reference_public_suffix(rules, host)
        assert table.registrable_domain(host) == reference_registrable_domain(rules, host)


# ``is_valid_pld``, ``extract_pld`` and ``SuffixRules.registrable_domain`` as
# they were written before their host pattern, label pattern and one-``rfind``
# cut: the reference the faster forms must match on every string
_NAME_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789_-."
SNAPSHOT_RULES = [
    line.strip() for line in resources.files("echoscope")
    .joinpath("data/public_suffix_snapshot.dat").read_text(encoding="utf-8").splitlines()
    if line.strip() and not line.startswith("//")
]


def reference_is_valid_pld(value):
    return (
        isinstance(value, str)
        and "." in value
        and not value.strip(_NAME_CHARS)
        and ".." not in value
        and value[0] != "."
        and value[-1] != "."
        and not value.rpartition(".")[2].isdigit()
    )


def reference_extract_pld(url):
    if not isinstance(url, str):
        return None
    host = _host_of(url)
    if host is None or not reference_is_valid_pld(host):
        return None
    pld = reference_registrable_domain(SNAPSHOT_RULES, host)
    if pld is None or pld in DEFAULT_SHORTENER_SKIP:
        return None
    return pld


# URL spellings that the host pattern takes, and each way of falling outside
# it: case, padding, ports, userinfo, IPv6 and IPv4 hosts, trailing dots,
# line ends and non-ASCII letters
PLD_URL = st.builds(
    "{}{}{}{}{}{}{}".format,
    st.sampled_from(["", " ", "\t", "\n"]),
    st.sampled_from(["", "http://", "https://", "HTTP://", "x://", "ftp://", "h-t://"]),
    st.sampled_from(["", "", "user:pw@", "a@b@"]),
    st.one_of(HOST, st.sampled_from([
        "10.0.0.1", "10.0.0.300", "[::1]", "\u212a.example", "\u0130.example",
        "b\u00fccher.example", "news.\u00e9xample.com", "a\n.example", "ok.www.ck",
    ])),
    st.sampled_from(["", "", ".", "..", ":80", ":", ":x", "\n", "\r", "\x85"]),
    st.sampled_from(["", "", "/", "/A/b", "?q=1", "#f", "/x\ny", "\n/x", "/\u2028"]),
    st.sampled_from(["", "", " ", "\n"]),
).map(lambda u: u.upper() if len(u) % 4 == 0 else u)


@given(st.one_of(PLD_URL, PLD_URL, st.text(max_size=40)))
@settings(max_examples=1000, deadline=None)
def test_extract_pld_matches_the_reference(url):
    assert extract_pld(url) == reference_extract_pld(url)


@given(st.one_of(PLD_URL, ANY_URL))
@settings(max_examples=1000, deadline=None)
def test_extract_pld_takes_the_host_hosts_of_found(url):
    # parse_events hands over the host it found rather than have it found again
    assert extract_pld(url, hosts_of([url])[0]) == extract_pld(url)


LABELISH = st.text(alphabet="ab09_-.\n\u00e9A ", max_size=12)


@given(st.one_of(LABELISH, st.text(max_size=20), HOST, st.none(), st.integers()))
@settings(max_examples=1000, deadline=None)
def test_is_valid_pld_matches_the_reference(value):
    assert is_valid_pld(value) is reference_is_valid_pld(value)
