"""Registrable-domain extraction against a bundled public-suffix snapshot.

The snapshot ships with the package (data/public_suffix_snapshot.dat) and is
never fetched from the network, so extraction results are reproducible.
Matching follows the standard rule semantics: exception rules beat wildcard
and normal rules, the longest normal/wildcard match wins, and hosts whose
suffix is unknown fall back to the implicit "*" rule (rightmost label).
"""
from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources
from typing import FrozenSet, Optional

# matched with fullmatch: "$" would also match before a final newline
_LABEL_RE = re.compile(r"[a-z0-9_-]+")
_IPV4_RE = re.compile(r"\d{1,3}(\.\d{1,3}){3}")

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


class SuffixRules:
    """Parsed public-suffix rules supporting registrable-domain lookup."""

    def __init__(self, lines) -> None:
        self._exact: set[str] = set()
        self._wildcard: set[str] = set()  # stored as the suffix after "*."
        self._exception: set[str] = set()
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
                self._exception.add(line[1:])
            elif line.startswith("*."):
                self._wildcard.add(line[2:])
            else:
                self._exact.add(line)

    def public_suffix(self, host: str) -> str:
        """Longest matching suffix of ``host`` per the rule set."""
        labels = host.split(".")
        best = labels[-1]  # implicit "*" rule
        best_len = 1
        for i in range(len(labels)):
            candidate = ".".join(labels[i:])
            n = len(labels) - i
            if candidate in self._exception:
                # the suffix is the exception rule minus its leftmost label
                return ".".join(labels[i + 1 :])
            if candidate in self._exact and n > best_len:
                best, best_len = candidate, n
            if n >= 2:
                rest = ".".join(labels[i + 1 :])
                if rest in self._wildcard and n > best_len:
                    best, best_len = candidate, n
        return best

    def registrable_domain(self, host: str) -> Optional[str]:
        """Public suffix plus one label, or None if host is itself a suffix."""
        suffix = self.public_suffix(host)
        if host == suffix:
            return None
        prefix = host[: -(len(suffix) + 1)]
        return prefix.rsplit(".", 1)[-1] + "." + suffix


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
    return [host or _host_of(url) for host, url in zip(_URL_HOST_RE.findall(text), urls)]


def extract_pld(url: str, skip_plds: FrozenSet[str] = DEFAULT_SHORTENER_SKIP) -> Optional[str]:
    """Registrable domain of ``url``, or None when one cannot be determined.

    Never raises: bare IPs, hosts on the shortener skip list, and anything
    unparseable all map to None.
    """
    if not isinstance(url, str):
        return None
    host = _host_of(url)
    if host is None:
        return None
    labels = host.split(".")
    if len(labels) < 2:
        return None
    if _IPV4_RE.fullmatch(host) or labels[-1].isdigit():
        return None
    for label in labels:
        if not _LABEL_RE.fullmatch(label):
            return None
    pld = default_rules().registrable_domain(host)
    if pld is None or pld in skip_plds:
        return None
    return pld


def is_valid_pld(value: str) -> bool:
    """Cheap structural check: lowercase dotted name with no URL syntax."""
    if not isinstance(value, str) or not value:
        return False
    if "." not in value:
        return False
    labels = value.split(".")
    if labels[-1].isdigit():
        return False
    return all(_LABEL_RE.fullmatch(label) for label in labels)
