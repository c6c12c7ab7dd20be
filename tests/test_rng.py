import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walshgl import rng

from conftest import key_matrix
from reference import generator, splitmix64_output

SEEDS = st.integers(min_value=0, max_value=(1 << 64) - 1)
LABELS = st.integers(min_value=0, max_value=(1 << 16) - 1)

# Draw kinds of the sampler for 1 <= n <= 16: integers below sum W^2 = 4^n
# take numpy's 32-bit paths for n <= 16 (bound <= 2^32, with n = 16 the
# unrejected full-range one) and the 64-bit path for n = 17..24.  random()
# reads 53-bit keys, an odd width above 32 that no sampler uses.
DRAWS = {
    "integers-32bit": lambda g, k, n: g.integers(0, 4**n, size=k, dtype=np.uint64),
    "integers-64bit": lambda g, k, n: g.integers(
        0, 4 ** min(n + 16, 24), size=k, dtype=np.uint64
    ),
    "random": lambda g, k, n: g.random(size=k),
}


# The key width each draw kind reads off the raw words at a given n.
BITS = {"integers-32bit": lambda n: 2 * n, "integers-64bit": lambda n: 2 * min(n + 16, 24),
        "random": lambda n: 53}


# SplitMix64's first three outputs from state 0 (Steele, Lea and Flood 2014).
# Output k + 1 mixes k + 1 golden gammas, so it is the mixer at k gammas.
GAMMA = 0x9E3779B97F4A7C15
SPLITMIX64_FROM_0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@pytest.mark.parametrize("mixer", [rng.splitmix64, splitmix64_output], ids=["rng", "reference"])
def test_splitmix64_gives_the_published_outputs(mixer):
    """``rng.key_rows`` mixes its labels with ``rng.splitmix64`` and the
    reference generator with its own: both are pinned to the published
    sequence, so neither can drift with the other."""
    states = [k * GAMMA % (1 << 64) for k in range(3)]
    assert [mixer(state) for state in states] == SPLITMIX64_FROM_0


# Entries every mixed array holds: both ends of the range and multiples of
# the golden gamma, the states whose outputs are pinned above.
EDGES = [0, (1 << 64) - 1, *(k * GAMMA % (1 << 64) for k in range(1, 4))]


@given(values=st.lists(SEEDS, max_size=40),
       seed=st.one_of(st.sampled_from([0, (1 << 64) - 1]), SEEDS))
@example(values=[], seed=0)
@example(values=[], seed=(1 << 64) - 1)
@settings(max_examples=100, deadline=None)
def test_mixer_over_arrays_equals_the_reference_at_every_entry(values, seed):
    """``rng.splitmix64`` mixes a whole uint64 array, wrapping mod 2^64, and
    ``rng.stream_key`` XORs one seed into every mixed label: entry by entry,
    each equals the reference's one-state SplitMix64."""
    labels = np.array(EDGES + values, dtype=np.uint64)
    mixed = rng.splitmix64(labels)
    assert mixed.dtype == np.uint64
    assert mixed.tolist() == [splitmix64_output(label) for label in labels.tolist()]
    keys = rng.stream_key(seed, labels)
    assert keys.dtype == np.uint64
    assert keys.tolist() == [seed ^ splitmix64_output(label) for label in labels.tolist()]


class TestRekey:
    """``rng.key_rows`` moves one bit generator from seed to seed; each row
    must equal a fresh ``reference.generator(seed, label)``."""

    @pytest.mark.parametrize("kind", sorted(DRAWS))
    @given(
        seeds=st.lists(SEEDS, min_size=1, max_size=6),
        label=LABELS,
        n=st.integers(min_value=1, max_value=16),
        count=st.integers(min_value=1, max_value=64),
        rows=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=80, deadline=None)
    def test_rekeyed_equals_fresh(self, kind, seeds, label, n, count, rows):
        keys = key_matrix(seeds, label, count + 3, BITS[kind](n), rows)
        assert keys.shape == (len(seeds), count + 3)
        for row, seed in zip(keys, seeds):
            fresh = generator(seed, label)
            # a second call continues the same substream
            expected = np.concatenate([DRAWS[kind](fresh, k, n) for k in (count, 3)])
            assert np.array_equal(row * 2.0**-53 if kind == "random" else row, expected)

    @given(
        label=LABELS,
        seeds=st.lists(SEEDS, min_size=1, max_size=6),
        bits=st.sampled_from([32, 64]),
        count=st.integers(min_value=1, max_value=16),
        rows=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=80, deadline=None)
    def test_reused_state_dict_equals_fresh(self, label, seeds, bits, count, rows):
        # One key_rows call, its one state dict reused for every seed of every
        # batch; at 32 and 64 bits the keys are the raw words themselves.
        keys = key_matrix(seeds, label, count, bits, rows)
        for row, seed in zip(keys, seeds):
            raw = generator(seed, label).bit_generator.random_raw
            expected = raw((count + 1) // 2).view("<u4")[:count] if bits == 32 else raw(count)
            assert np.array_equal(row, expected)

    def test_odd_32bit_draw_then_rekey(self):
        # An odd count of 32-bit keys uses half of its last 64-bit word; the
        # next row starts on its own substream, not on the unused half.
        seeds = [1, 1, 3]
        for rows in (1, 2, 3):
            keys = key_matrix(seeds, 2, 9, 4, rows)
            for row, seed in zip(keys, seeds):
                expected = generator(seed, 2).integers(0, 16, size=9, dtype=np.uint64)
                assert np.array_equal(row, expected)


class TestSeedRange:
    """A seed outside 0..2^64 - 1 would alias one inside it; the stream refuses it."""

    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**70)])
    def test_stream_key_refuses(self, seed):
        with pytest.raises(ValueError, match=rf"^seed {seed} is outside 0\.\.2\^64 - 1$"):
            rng.stream_key(seed, 3)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_key_rows_refuses_before_the_first_row(self, seed):
        # one check over the whole list: no row is read when any seed is out of range
        with pytest.raises(ValueError, match=rf"^seed {seed} is outside"):
            next(rng.key_rows([0, 1, 2, seed], 0, 4, 8, 1))

    @pytest.mark.parametrize("first,count,message", [
        (-3, 5, "^first must be nonnegative$"), (0, -1, "^count must be nonnegative$"),
    ])
    def test_key_rows_refuses_negative_positions(self, first, count, message):
        with pytest.raises(ValueError, match=message):
            next(rng.key_rows([1], 0, count, 8, 1, first))
