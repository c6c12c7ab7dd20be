"""Reproducible randomness for all sampling in this package.

Generator pinning: every stream is numpy's Philox bit generator
(Philox-4x64 with 10 rounds, counter-based) wrapped in
``numpy.random.Generator``.  A stream is identified by a 64-bit user seed
plus a 64-bit stream label; its key is ``seed XOR splitmix64(label)``.
Draw i of a stream is the i-th output of that generator, so replay is
bit-identical for a fixed (seed, label) on every platform, and distinct
labels (trial batches, S-box components, Monte-Carlo runs) get
statistically independent substreams.

Philox is counter-based (Salmon et al., SC'11), so moving one generator to
another key and counter 0 starts another substream: :func:`rekey` does
that in a few microseconds, where a new generator costs several times more.
"""

from __future__ import annotations

import numpy as np

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


def rekey(gen: np.random.Generator, seed: int, label: int = 0) -> np.random.Generator:
    """Move a Philox generator to substream (seed, label) and return it.

    Key, counter, output buffer and the buffered half-word of the 32-bit
    paths are all reset, so the outputs from here on equal those of
    ``generator(seed, label)``, whatever ``gen`` drew before.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([stream_key(seed, label), 0], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen
