"""Deterministic counter-based random streams.

Every stochastic operation gets its own Philox substream derived from the
master seed plus a stream label (operation name, user id, ...). Philox is a
counter-based generator, so substreams are independent of thread scheduling
and of the order in which they are created.

Python's builtin hash() is salted per process; the key derivation below uses
FNV-1a and a splitmix64 finalizer so the same (seed, parts) always maps to
the same stream on every machine.
"""
from __future__ import annotations

from typing import Union

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

StreamPart = Union[int, str, bytes]

# the master seeds: _to_bytes keeps an int's low 64 bits, so a seed outside
# this range would give the streams of a seed inside it
SEED_RANGE = range(2**64)


def _to_bytes(part: StreamPart) -> bytes:
    if isinstance(part, bytes):
        return part
    if isinstance(part, int):
        return (part & _MASK64).to_bytes(8, "little")
    return str(part).encode("utf-8")


def _fnv1a(data: bytes, h: int = _FNV_OFFSET) -> int:
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def substream_key(master_seed: int, *parts: StreamPart) -> np.ndarray:
    """128-bit Philox key for (master_seed, parts), stable across platforms."""
    h = _fnv1a(_to_bytes(master_seed))
    for part in parts:
        h = _fnv1a(_to_bytes(part), h)
        # length separator so ("ab","c") != ("a","bc")
        h = _fnv1a(b"\x1f", h)
    k0 = _splitmix64(h)
    k1 = _splitmix64(k0 ^ 0xA5A5A5A5A5A5A5A5)
    return np.array([k0, k1], dtype=np.uint64)


def substream(master_seed: int, *parts: StreamPart) -> np.random.Generator:
    """A Generator seeded only by (master_seed, parts)."""
    return np.random.Generator(np.random.Philox(key=substream_key(master_seed, *parts)))
