"""Registrable-domain extraction against a bundled public-suffix snapshot.

The snapshot ships with the package (data/public_suffix_snapshot.dat) and is
never fetched from the network, so extraction results are reproducible.
Matching follows the standard rule semantics: exception rules beat wildcard
and normal rules, the longest normal/wildcard match wins, and hosts whose
suffix is unknown fall back to the implicit "*" rule (rightmost label).
``SuffixRules`` keeps one table, rule -> kind bits, and the label count of
its deepest rule, so a lookup reads only that many tails of the host, each a
slice of the host string.

A URL's host is found by ``_host_of``, or for many URLs at once by
``hosts_of`` with one pattern (``_URL_HOST_RE``); ``extract_pld`` takes the
host so found, and finds it itself only when it is not given.
"""
from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources
from itertools import compress, count
from operator import not_
from typing import FrozenSet, Optional

# Link shorteners and redirectors whose hosts say nothing about the content
# they point at. Resolving redirects would need network I/O, so these map to
# "no domain" instead.
DEFAULT_SHORTENER_SKIP: FrozenSet[str] = frozenset(
    {
        "bit.ly",
        "t.co",
        "tinyurl.com",
        "goo.gl",
        "ow.ly",
        "is.gd",
        "buff.ly",
        "j.mp",
        "dlvr.it",
        "ift.tt",
        "fb.me",
        "wp.me",
        "trib.al",
        "tl.gd",
        "po.st",
        "shar.es",
        "dld.bz",
    }
)


# the kinds of rule, as bits of ``SuffixRules``' table
_EXACT, _WILDCARD, _EXCEPTION = 1, 2, 4


class SuffixRules:
    """Parsed public-suffix rules supporting registrable-domain lookup.

    ``_rules`` maps each rule's labels (after ``*.`` or ``!``) to the kinds of
    rule they form; ``_depth`` is the label count of the deepest match a rule
    can make, a wildcard counting its ``*``. A tail of the host with more
    labels than that matches no rule, so lookups never build one.
    """

    def __init__(self, lines) -> None:
        self._rules: dict[str, int] = {}
        self._depth = 1
        self.version: Optional[str] = None
        for raw in lines:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("//"):
                if "version:" in line and self.version is None:
                    self.version = line.split("version:", 1)[1].strip()
                continue
            if line.startswith("!"):
                key, kind, depth = line[1:], _EXCEPTION, 0
            elif line.startswith("*."):
                key, kind, depth = line[2:], _WILDCARD, 1
            else:
                key, kind, depth = line, _EXACT, 0
            self._rules[key] = self._rules.get(key, 0) | kind
            self._depth = max(self._depth, depth + key.count(".") + 1)

    def public_suffix(self, host: str) -> str:
        """Longest matching suffix of ``host`` per the rule set."""
        kind_of = self._rules.get
        best = exception = None
        below, below_kind = "", 0  # the tail one label shorter, and its kinds of rule
        end = len(host)
        for n in range(self._depth):  # the tail of n + 1 labels, shortest first
            dot = host.rfind(".", 0, end)
            tail = host[dot + 1 :]
            kind = kind_of(tail, 0)
            if kind & _EXCEPTION:
                exception = below  # the exception rule minus its leftmost label
            elif not n or kind & _EXACT or below_kind & _WILDCARD:
                best = tail  # at first the implicit "*" rule, then the longest match
            if dot < 0:
                break
            below, below_kind, end = tail, kind, dot
        return best if exception is None else exception

    def registrable_domain(self, host: str) -> Optional[str]:
        """Public suffix plus one label, or None if host is itself a suffix."""
        suffix = self.public_suffix(host)
        if host == suffix:
            return None
        if not suffix:  # a one-label exception rule: its suffix is empty
            return host[host.rfind(".") + 1 :]
        end = len(host) - len(suffix) - 1  # where the suffix's dot sits
        return host[host.rfind(".", 0, end) + 1 : end] + "." + suffix


@lru_cache(maxsize=1)
def default_rules() -> SuffixRules:
    text = (
        resources.files("echoscope")
        .joinpath("data/public_suffix_snapshot.dat")
        .read_text(encoding="utf-8")
    )
    return SuffixRules(text.splitlines())


def _host_of(url: str) -> Optional[str]:
    s = url.strip().lower()
    if not s:
        return None
    if "://" in s:
        s = s.split("://", 1)[1]
    for cut in "/?#":
        idx = s.find(cut)
        if idx >= 0:
            s = s[:idx]
    if "@" in s:
        s = s.rsplit("@", 1)[1]
    if s.startswith("["):  # IPv6 literal
        return None
    if ":" in s:
        head, _, tail = s.rpartition(":")
        if tail.isdigit():
            s = head
        else:
            return None
    s = s.rstrip(".")
    if not s:
        return None
    return s


# the host of a URL of the usual lowercase shape: a scheme, "://", the host
# and then "/", "?", "#" or the end; '' for a URL of any other shape
_URL_HOST_RE = re.compile(r"^(?:[a-z]+://([a-z0-9_.-]*[a-z0-9_-])(?=[/?#]|$))?.*$", re.M)


def hosts_of(urls: list[str]) -> list[Optional[str]]:
    """``[_host_of(url) for url in urls]``: one regex pass over the URLs
    joined by line ends, and ``_host_of`` for each URL it does not take."""
    text = "\n".join(urls)
    if not urls or text.count("\n") != len(urls) - 1:  # a URL holds a line end
        return list(map(_host_of, urls))
    hosts = _URL_HOST_RE.findall(text)
    for at in list(compress(count(), map(not_, hosts))):
        hosts[at] = _host_of(urls[at])
    return hosts


def extract_pld(url: str, host: Optional[str] = None) -> Optional[str]:
    """Registrable domain of ``url``, or None when one cannot be determined.

    ``host``, when given, is ``_host_of(url)`` as a caller has already found
    it (``hosts_of`` finds it for many URLs at once); otherwise it is found
    here. Never raises: bare IPs, hosts on the shortener skip list, and
    anything unparseable all map to None.
    """
    if host is None and isinstance(url, str):
        host = _host_of(url)
    if host is None or not is_valid_pld(host):
        return None
    pld = default_rules().registrable_domain(host)
    if pld is None or pld in DEFAULT_SHORTENER_SKIP:
        return None
    return pld


# two or more dotted labels of [a-z0-9_-], the last not all digits
_PLD_RE = re.compile(r"(?:[a-z0-9_-]+\.)+[0-9]*[a-z_-][a-z0-9_-]*")


def is_valid_pld(value: str) -> bool:
    """Cheap structural check: two or more dotted labels of ``[a-z0-9_-]``, the
    last not all digits (so no IPv4 address passes)."""
    return isinstance(value, str) and _PLD_RE.fullmatch(value) is not None
