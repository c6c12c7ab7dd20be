"""Reproducible randomness for all sampling in this package.

Generator pinning: every stream is numpy's Philox bit generator
(Philox-4x64 with 10 rounds, counter-based) wrapped in
``numpy.random.Generator``.  A stream is identified by a 64-bit user seed
plus a 64-bit stream label; its key is ``seed XOR splitmix64(label)``.
Draw i of a stream is the i-th output of that generator, so replay is
bit-identical for a fixed (seed, label) on every platform, and distinct
labels (trial batches, S-box components, Monte-Carlo runs) get
statistically independent substreams.

Philox is counter-based (Salmon et al., SC'11): :func:`key_rows` moves one
bit generator to another key at counter 0, several times faster than a new
one, and reads the keys of many substreams a batch of rows at a time.

Bounded integers below a power of two need no rejection.  numpy's
``integers`` below 2^k is Lemire's multiply-shift (Lemire 2019, "Fast random
integer generation in an interval"): the high k bits of u * 2^k for a 32-bit
u when k <= 32 and a 64-bit u otherwise, rejected only when the low half of
that product is below (2^w - 2^k) mod 2^k for word width w, which is 0.  The
sampler's bound is 2^bits: sum W^2 = 4^n = 2^(2n) by Parseval for the
spectral source, 2^53 for the statevector source.  Its draw i is the i-th
32-bit half (low half first) of the raw words shifted right by 32 - bits
when bits <= 32, else word i shifted right by 64 - bits.  At 2^53 that is
``word >> 11``, the word that ``random()`` scales by 2^-53 into its float.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One step of the splitmix64 mixer; a 64-bit bijection."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def stream_key(seed: int, label: int = 0) -> int:
    """Philox key for substream ``label`` of ``seed``."""
    return (int(seed) & _MASK64) ^ splitmix64(int(label))


def generator(seed: int, label: int = 0) -> np.random.Generator:
    """Fresh, deterministic generator for the given substream."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, label)))


def key_rows(seeds: Sequence[int], label: int, count: int, bits: int,
             rows: int) -> Iterator[tuple[int, np.ndarray]]:
    """(start, keys) for each ``rows`` seeds from seeds[start]: row i of
    ``keys`` holds the first ``count`` integers below 2^bits of
    ``generator(seeds[start + i], label)``, read from raw Philox words as
    described above, uint32 for bits <= 32 and uint64 above.  One bit
    generator is moved to each seed's key at counter 0 through one reused
    state dict."""
    halves = bits <= 32
    words = (count + 1) // 2 if halves else count
    if words > np.iinfo(np.intp).max // 8:  # 8-byte words: numpy's largest array holds fewer
        raise CapacityError(f"l={count} draws exceed the largest array of one run's keys")
    bit_generator = np.random.Philox(key=0)
    mix = splitmix64(int(label))
    state = {  # counter 0, empty output buffer, no buffered 32-bit half
        "bit_generator": "Philox", "state": {"counter": [0] * 4, "key": [0, 0]},
        "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    for start in range(0, len(seeds), rows):
        batch = seeds[start : start + rows]
        keys = np.empty((len(batch), words), dtype="<u8")
        for i, seed in enumerate(batch):
            state["state"]["key"][0] = (int(seed) & _MASK64) ^ mix
            bit_generator.state = state
            keys[i] = bit_generator.random_raw(words)
        if halves:
            keys = keys.view("<u4")[:, :count] >> (32 - bits)
        else:
            keys >>= 64 - bits  # in place: each batch-sized temporary adds to peak RSS
        yield start, keys
