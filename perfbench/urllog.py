"""Generator for the ``ingest_urls`` workload: a URL-heavy tweet log.

``echoscope synth`` only writes ``http://<domain>/`` URLs, so it cannot
exercise host parsing and public-suffix lookup the way real logs do. This
generator builds a log from the seed alone, with no echoscope import:

* events carry 0-4 URLs (mean ~1.45); 40% are retweets, a small share of
  them self-retweets, and ~1% of retweets point at one of 200 accounts that
  never post (dangling), so the dangling set barely varies with the seed;
* 8% of URLs are shortener links, 2% bare IPs and 1% junk; the rest are
  real hosts Zipf-drawn from outlets x subdomains x suffixes (multi-label
  suffixes such as ``co.uk``, ``com.au`` and ``ac.jp`` included), which
  gives ~70k distinct hosts at full scale, about 12% of all URLs;
* the edge list has duplicate rows and self-loops, and the score table
  mixes slant labels and decimals.

Because every URL's registrable domain is known by construction, the
generator also returns the exact counters ``echoscope validate`` must
report, for any seed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SUFFIXES = ("com", "org", "net", "co.uk", "com.au", "ac.jp", "de", "fr", "co.jp", "com.br", "org.uk", "news")
SUBDOMAINS = ("", "www", "m", "news", "edition", "amp", "mobile", "blogs", "live", "video", "en", "static")
SHORTENERS = ("bit.ly", "t.co", "tinyurl.com", "goo.gl", "ow.ly", "buff.ly", "dlvr.it", "ift.tt")
# every one of these must map to "no domain" in echoscope.psl.extract_pld
JUNK = ("", "not a url", "http://localhost/x", "javascript:void(0)", "http://[2001:db8::1]/a",
        "http://bad host.com/", None)
LABELS = ("left", "left-center", "center", "least-biased", "right-center", "right")
SECTIONS = ("politics", "world", "us", "opinion", "business", "health", "science", "sport")
SYLLABLES = ("ka", "lo", "mi", "ter", "van", "dor", "es", "ul", "ri", "pa", "zen", "qua",
             "bel", "cor", "di", "fo", "gan", "hi", "jo", "ku", "mer", "no", "ost", "pri")
URLS_PER_EVENT_P = (0.28, 0.30, 0.20, 0.13, 0.09)
T0 = 1_500_000_000


@dataclass(frozen=True)
class UrlLogConfig:
    n_events: int = 400_000
    n_users: int = 20_000
    n_edges: int = 150_000
    n_scored: int = 7_200
    n_outlets: int = 3_000
    n_external: int = 200  # retweeted accounts that never post in the log
    retweet_share: float = 0.40
    self_retweet_share: float = 0.005
    dangling_share: float = 0.01
    shortener_share: float = 0.08
    ip_share: float = 0.02
    junk_share: float = 0.01
    zipf_s: float = 1.11
    dup_edge_share: float = 0.01
    self_loop_share: float = 0.003
    duration: int = 30 * 86_400


FULL = UrlLogConfig()
TINY = UrlLogConfig(n_events=3_000, n_users=400, n_edges=2_000, n_scored=150, n_outlets=60, n_external=10)


def _outlet_names(rng: np.random.Generator, n: int) -> list[str]:
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < n:
        parts = rng.choice(len(SYLLABLES), size=int(rng.integers(2, 4)))
        name = "".join(SYLLABLES[i] for i in parts.tolist())
        if rng.random() < 0.15:
            name += "-" + SECTIONS[int(rng.integers(len(SECTIONS)))]
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def generate(cfg: UrlLogConfig, seed: int, out_dir: Path) -> dict:
    """Write scores.csv, edges.csv and events.jsonl; return what validate must say."""
    rng = np.random.default_rng([seed, 0x0_1E5_7])
    outlets = _outlet_names(rng, cfg.n_outlets)
    n_sub, n_suf = len(SUBDOMAINS), len(SUFFIXES)

    # scored registrable domains: outlet x suffix pairs, labels and decimals mixed
    pld_ids = np.sort(rng.choice(cfg.n_outlets * n_suf, size=cfg.n_scored, replace=False))
    scored = {f"{outlets[i // n_suf]}.{SUFFIXES[i % n_suf]}" for i in pld_ids.tolist()}
    with open(out_dir / "scores.csv", "w", encoding="utf-8") as fh:
        fh.write("domain,score\n")
        for domain in sorted(scored):
            if rng.random() < 0.5:
                fh.write(f"{domain},{LABELS[int(rng.integers(len(LABELS)))]}\n")
            else:
                fh.write(f"{domain},{rng.random():.4f}\n")

    # follow edges, with duplicate rows and self-loops
    popularity = rng.lognormal(0.0, 1.0, cfg.n_users)
    popularity /= popularity.sum()
    n_dup = int(cfg.n_edges * cfg.dup_edge_share)
    n_loop = int(cfg.n_edges * cfg.self_loop_share)
    n_base = cfg.n_edges - n_dup - n_loop
    src = rng.integers(cfg.n_users, size=n_base)
    dst = rng.choice(cfg.n_users, size=n_base, p=popularity)
    pick = rng.integers(n_base, size=n_dup)
    loops = rng.integers(cfg.n_users, size=n_loop)
    src = np.concatenate([src, src[pick], loops])
    dst = np.concatenate([dst, dst[pick], loops])
    order = rng.permutation(src.size)
    src, dst = src[order], dst[order]
    with open(out_dir / "edges.csv", "w", encoding="utf-8") as fh:
        fh.write("follower,friend\n")
        fh.writelines(f"u{s},u{d}\n" for s, d in zip(src.tolist(), dst.tolist()))
    keep = src != dst
    pairs = np.unique(src[keep].astype(np.int64) * cfg.n_users + dst[keep])

    # events; every user posts at least once, so only external accounts dangle
    n = cfg.n_events
    authors = rng.permutation(
        np.concatenate([np.arange(cfg.n_users), rng.choice(cfg.n_users, size=n - cfg.n_users, p=popularity)])
    )
    is_rt = rng.random(n) < cfg.retweet_share
    orig = rng.choice(cfg.n_users, size=n, p=popularity)
    roll = rng.random(n)
    self_rt = is_rt & (roll < cfg.self_retweet_share)
    orig[self_rt] = authors[self_rt]
    external = is_rt & (roll >= 1.0 - cfg.dangling_share)
    orig[external] = cfg.n_users + rng.integers(cfg.n_external, size=int(external.sum()))
    self_rt = is_rt & (orig == authors)
    ts = np.sort(T0 + rng.integers(cfg.duration, size=n))
    n_urls = rng.choice(len(URLS_PER_EVENT_P), size=n, p=URLS_PER_EVENT_P)

    total_urls = int(n_urls.sum())
    kind_roll = rng.random(total_urls)
    junk = kind_roll < cfg.junk_share
    ip = (kind_roll >= cfg.junk_share) & (kind_roll < cfg.junk_share + cfg.ip_share)
    short = (kind_roll >= cfg.junk_share + cfg.ip_share) & (
        kind_roll < cfg.junk_share + cfg.ip_share + cfg.shortener_share
    )
    n_combos = cfg.n_outlets * n_sub * n_suf
    cdf = np.cumsum(np.arange(1, n_combos + 1, dtype=np.float64) ** -cfg.zipf_s)
    ranks = np.searchsorted(cdf, rng.random(total_urls) * cdf[-1], side="right")
    combos = rng.permutation(n_combos)[np.minimum(ranks, n_combos - 1)]
    url_extra = rng.integers(1 << 30, size=total_urls)

    urls: list = []
    url_pld: list = []  # registrable domain each URL must map to, or None
    for i, (c, x) in enumerate(zip(combos.tolist(), url_extra.tolist())):
        if junk[i]:
            urls.append(JUNK[x % len(JUNK)])
            url_pld.append(None)
        elif ip[i]:
            urls.append(f"http://{10 + x % 200}.{x % 251}.{x % 241}.{1 + x % 250}/item/{x}")
            url_pld.append(None)
        elif short[i]:
            urls.append(f"https://{SHORTENERS[x % len(SHORTENERS)]}/{x:x}")
            url_pld.append(None)
        else:
            outlet = outlets[c // (n_sub * n_suf)]
            sub = SUBDOMAINS[(c // n_suf) % n_sub]
            pld = f"{outlet}.{SUFFIXES[c % n_suf]}"
            host = f"{sub}.{pld}" if sub else pld
            scheme = "https" if x & 1 else "http"
            query = "?utm_source=twitter&utm_medium=social" if x % 3 == 0 else ""
            urls.append(f"{scheme}://{host}/{SECTIONS[x % len(SECTIONS)]}/{2010 + x % 13}/story-{x}{query}")
            url_pld.append(pld)

    kept_authors: set[int] = set()
    n_scored_events = 0
    with open(out_dir / "events.jsonl", "w", encoding="utf-8") as fh:
        pos = 0
        for i in range(n):
            k = int(n_urls[i])
            obj = {"id": f"t{i}", "author": f"u{authors[i]}", "ts": int(ts[i])}
            if is_rt[i]:
                obj["kind"] = "retweet"
                o = int(orig[i])
                obj["orig_author"] = f"u{o}" if o < cfg.n_users else f"x{o - cfg.n_users}"
            else:
                obj["kind"] = "original"
            obj["urls"] = urls[pos:pos + k]
            if not self_rt[i]:
                kept_authors.add(int(authors[i]))
                if any(p in scored for p in url_pld[pos:pos + k] if p is not None):
                    n_scored_events += 1
            pos += k
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")

    kept = ~self_rt
    kept_rt = is_rt & kept
    dangling_orig = orig[kept_rt & ~np.isin(orig, np.fromiter(kept_authors, dtype=np.int64))]
    n_events = int(kept.sum())
    url_event = np.repeat(np.arange(n), n_urls)
    dropped = np.array([p is None for p in url_pld], dtype=bool)
    counters = {
        "n_seeds": int(np.unique(pairs // cfg.n_users).size),
        "n_users_in_edges": int(np.unique(np.concatenate([src[keep], dst[keep]])).size),
        "n_edges": int(pairs.size),
        "n_events": n_events,
        "n_retweets": int(kept_rt.sum()),
        "n_authors_in_log": len(kept_authors),
        "n_scored_domains": len(scored),
        "n_self_loops_dropped": int((~keep).sum()),
        "n_duplicate_edges_dropped": int(keep.sum() - pairs.size),
        "n_urls_dropped": int((dropped & kept[url_event]).sum()),
        "n_self_retweets_dropped": int(self_rt.sum()),
    }
    return {
        "counters": counters,
        "n_dangling_retweets": int(dangling_orig.size),
        "n_dangling_authors": int(np.unique(dangling_orig).size),
        "frac_events_with_scored_domain": n_scored_events / n_events if n_events else 0.0,
        "records": int(src.size) + n,
    }
