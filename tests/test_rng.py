import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walshgl import rng

SEEDS = st.integers(min_value=0, max_value=(1 << 64) - 1)
LABELS = st.integers(min_value=0, max_value=(1 << 16) - 1)

# Draw kinds of the sampler for 1 <= n <= 16: integers below sum W^2 = 4^n
# take numpy's 32-bit paths for n <= 16 (bound <= 2^32, with n = 16 the
# unrejected full-range one) and the 64-bit path for n = 17..24.
DRAWS = {
    "integers-32bit": lambda g, k, n: g.integers(0, 4**n, size=k, dtype=np.uint64),
    "integers-64bit": lambda g, k, n: g.integers(
        0, 4 ** min(n + 16, 24), size=k, dtype=np.uint64
    ),
    "random": lambda g, k, n: g.random(size=k),
}


class TestRekey:
    @pytest.mark.parametrize("kind", sorted(DRAWS))
    @given(
        old=st.tuples(SEEDS, LABELS),
        new=st.tuples(SEEDS, LABELS),
        n=st.integers(min_value=1, max_value=16),
        before=st.integers(min_value=0, max_value=9),
        count=st.integers(min_value=1, max_value=64),
        before_kind=st.sampled_from(sorted(DRAWS)),
    )
    @settings(max_examples=80, deadline=None)
    def test_rekeyed_equals_fresh(self, kind, old, new, n, before, count, before_kind):
        rekey = rng.Rekeyer(new[1])
        gen = np.random.Generator(rekey.bit_generator)
        gen.bit_generator.state = rng.generator(*old).bit_generator.state
        DRAWS[before_kind](gen, before, n)  # a partial draw leaves buffered state
        assert rekey(new[0]) is gen.bit_generator
        fresh = rng.generator(*new)
        for k in (count, 3):  # a second call continues the same substream
            assert np.array_equal(DRAWS[kind](gen, k, n), DRAWS[kind](fresh, k, n))

    @given(
        label=LABELS,
        steps=st.lists(
            st.tuples(
                SEEDS,
                st.sampled_from(sorted(DRAWS)),
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=1, max_value=16),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_reused_state_dict_equals_fresh(self, label, steps):
        # One Rekeyer, its one state dict reused for every seed; each step
        # leaves a partial draw of some kind behind before the next re-key.
        rekey = rng.Rekeyer(label)
        gen = np.random.Generator(rekey.bit_generator)
        for seed, kind, before, n in steps:
            rekey(seed)
            fresh = rng.generator(seed, label)
            assert np.array_equal(DRAWS[kind](gen, 5, n), DRAWS[kind](fresh, 5, n))
            assert np.array_equal(
                rekey.bit_generator.random_raw(3), fresh.bit_generator.random_raw(3)
            )
            DRAWS[kind](gen, before, n)

    def test_odd_32bit_draw_then_rekey(self):
        # One 32-bit draw leaves half of a 64-bit Philox output buffered.
        rekey = rng.Rekeyer(2)
        gen = np.random.Generator(rekey(1))
        gen.integers(0, 16, size=1, dtype=np.uint64)
        assert gen.bit_generator.state["has_uint32"] == 1
        rekey(1)
        assert np.array_equal(
            gen.integers(0, 16, size=9, dtype=np.uint64),
            rng.generator(1, 2).integers(0, 16, size=9, dtype=np.uint64),
        )
