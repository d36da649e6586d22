import math
from itertools import count

import numpy as np
import pytest

from echoscope.graph import build_follower_graph, build_retweet_graph, user_space
from echoscope.ingest import (
    DatasetBundle,
    FollowEdgeList,
    KIND_ORIGINAL,
    KIND_RETWEET,
    TweetEvent,
    _event_line,
    _EventFold,
)


def ev(author, ts, kind=KIND_ORIGINAL, orig=None, domains=()):
    return TweetEvent(author, ts, kind, orig, tuple(domains))


def rt(author, ts, orig, domains=()):
    return TweetEvent(author, ts, KIND_RETWEET, orig, tuple(domains))


def from_events(events):
    """The log ``parse_events`` reads from the file ``write_events`` writes
    for ``events``: each event becomes its written line (``_event_line``,
    each domain the URL ``http://{domain}/``), and the lines go through the
    event reader, so every rule of the format is the reader's. An integer
    user reads as its decimal text, a self-retweet is dropped and counted,
    and a URL with no registrable domain is dropped and counted. A record
    the reader refuses raises its error, with the line but no path."""
    text = b"".join(map(_event_line, count(), events)).decode("utf-8")
    fold = _EventFold(None)
    if text:
        fold.add_block(text, 1)
    return fold.cols.log()


def make_bundle(scores, edges, events, seeds=None):
    """Assemble an in-memory bundle from plain literals."""
    edge_list = FollowEdgeList.from_pairs(edges)
    log = from_events(events)
    if seeds is None:
        seeds = edge_list.sources()
    return DatasetBundle(dict(scores), edge_list, log, frozenset(seeds))


def graphs_of(bundle):
    """The bundle's follower and retweet graphs over one shared id space."""
    space = user_space(bundle.seeds, bundle.edges, bundle.log)
    return build_follower_graph(space), build_retweet_graph(space)


def per_id(names, by_name, fill=np.nan):
    """A vector over the id space ``names``: the given values, ``fill`` elsewhere."""
    return np.array([by_name.get(name, fill) for name in names])


@pytest.fixture
def tiny_bundle():
    """Two seeds, three friends, a handful of scored events."""
    scores = {"left.example": 0.0, "mid.example": 0.5, "right.example": 1.0}
    edges = [("s1", "f1"), ("s1", "f2"), ("s2", "f2"), ("s2", "f3")]
    events = [
        ev("s1", 10, domains=["left.example"]),
        ev("s2", 20, domains=["right.example"]),
        ev("f1", 30, domains=["left.example"]),
        ev("f2", 40, domains=["mid.example"]),
        ev("f3", 50, domains=["right.example"]),
        rt("s1", 60, "f1", domains=["left.example"]),
        rt("s2", 70, "f3", domains=["right.example"]),
    ]
    return make_bundle(scores, edges, events)


def two_pass_r(xs, ys):
    """Pearson's r by the textbook two passes: the means, then the sums of products."""
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def t_two_sided_reference(df, t):
    """2 * scipy.special.stdtr(df, -|t|): the two-sided Student t p-value.

    At df 1 and |t| below 1e-2 stdtr itself drifts from the exact value, by
    3e-9 relative at |t| = 1e-8, so there the exact (2 / pi) atan(1 / |t|)
    stands in.
    """
    from scipy.special import stdtr

    if df == 1 and abs(t) < 1e-2:
        return 2 / math.pi * math.atan2(1.0, abs(t))
    return 2.0 * float(stdtr(df, -abs(t)))
