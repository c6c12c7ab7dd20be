"""Reproducible randomness for all sampling in this package.

Generator pinning: every stream is numpy's Philox bit generator (Philox-4x64
with 10 rounds, counter-based).  A stream is identified by a 64-bit user seed
plus a 64-bit stream label; its key is ``seed XOR splitmix64(label)``, mixed
for many labels in one array pass.  Replay is bit-identical for a fixed
(seed, label) on every platform, and distinct labels (trial batches, S-box
components, Monte-Carlo runs) get statistically independent substreams.

:func:`key_rows` is the one reader of these streams.  Draw i of a stream
below 2^bits is its key i: the i-th 32-bit half (low half first) of the raw
words shifted right by 32 - bits when bits <= 32, else word i shifted right
by 64 - bits.  Philox is counter-based (Salmon et al., SC'11): each counter
value gives a block of 4 words, so key i is read from its block's counter on.

numpy's ``Generator(Philox(key)).integers(0, 2^bits)`` gives the same keys
and is the tests' reference.  Below a power of two it is Lemire's
multiply-shift (Lemire 2019), the high bits of u * 2^bits for a 32-bit u
when bits <= 32 and a 64-bit u otherwise, and it never rejects: it rejects
only when the product's low half is below (2^w - 2^bits) mod 2^bits = 0 for
word width w.  The sampler's bound is 2^bits: sum W^2 = 4^n = 2^(2n) by
Parseval.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError

_MASK64 = (1 << 64) - 1


def splitmix64(x: np.ndarray | int) -> np.ndarray:
    """The splitmix64 mixer, a 64-bit bijection, on each entry of a uint64
    array; array arithmetic wraps mod 2^64 silently (a scalar's would warn)."""
    x = np.array(x, dtype=np.uint64, ndmin=1) + 0x9E3779B97F4A7C15
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB
    return x ^ (x >> 31)


def _check_seeds(seeds: Sequence[int]):
    """Refuse a seed outside 0..2^64 - 1, which would alias one inside it."""
    if len(seeds) and not (0 <= min(seeds) and max(seeds) <= _MASK64):
        bad = next(seed for seed in seeds if not 0 <= seed <= _MASK64)
        raise ValueError(f"seed {bad} is outside 0..2^64 - 1")


def stream_key(seed: int, labels: np.ndarray) -> np.ndarray:
    """Philox keys of substreams ``labels`` of ``seed``, as a uint64 array."""
    _check_seeds([seed])
    return int(seed) ^ splitmix64(labels)


def key_rows(seeds: Sequence[int], label: int, count: int, bits: int, rows: int,
             first: int = 0) -> Iterator[tuple[int, np.ndarray]]:
    """(start, keys) for each ``rows`` seeds from seeds[start]: row i of
    ``keys`` holds keys ``first`` to ``first + count - 1`` below 2^bits of
    substream (seeds[start + i], label), as described above, uint32 for
    bits <= 32 and uint64 above.  One bit generator is moved to each seed's
    key at the counter of key ``first``'s block through one reused state
    dict; the block's keys before ``first`` are read and dropped.  Every
    seed must lie in 0..2^64 - 1, and ``first`` and ``count`` must be
    nonnegative."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    if first < 0:
        raise ValueError("first must be nonnegative")
    _check_seeds(seeds)
    halves = bits <= 32
    block, skip = divmod(first, 8 if halves else 4)
    words = (skip + count + 1) // 2 if halves else skip + count
    if words > np.iinfo(np.intp).max // 8:  # 8-byte words: numpy's largest array holds fewer
        raise CapacityError(f"l={count} draws exceed the largest array of one run's keys")
    bit_generator = np.random.Philox(key=0)
    mix = int(splitmix64(label)[0])
    state = {  # the block's counter, empty output buffer, no buffered 32-bit half
        "bit_generator": "Philox", "state": {"counter": [block, 0, 0, 0], "key": [0, 0]},
        "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    for start in range(0, len(seeds), rows):
        batch = seeds[start : start + rows]
        keys = np.empty((len(batch), words), dtype="<u8")
        for i, seed in enumerate(batch):
            state["state"]["key"][0] = int(seed) ^ mix
            bit_generator.state = state
            keys[i] = bit_generator.random_raw(words)
        if halves:
            keys = keys.view("<u4")[:, skip : skip + count] >> (32 - bits)
        else:
            keys = keys[:, skip:]
            keys >>= 64 - bits  # in place: each batch-sized temporary adds to peak RSS
        yield start, keys
