import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from walshgl import (
    BooleanFunction,
    CapacityError,
    VectorialFunction,
    circuit_sampler,
    dj_state,
    fwht,
    qwt_bf_state,
    spectra,
)
from walshgl import qsim, rng
from walshgl.rng import generator
from walshgl.qsim import (
    MAX_STATE_QUBITS,
    SPECTRAL,
    QuantumState,
    Sampler,
    apply_hadamard,
    apply_uip,
    apply_xor_oracle,
)

from conftest import linear_function, planted_function, random_function, random_vectorial
from reference import dj_amplitudes, probabilities

ATOL = 1e-10


class TestQuantumState:
    def test_basis_construction(self):
        st = QuantumState.basis((2, 1), (0b10, 1))
        assert st.amplitudes[0b101] == 1.0
        assert np.linalg.norm(st.amplitudes) == 1.0

    def test_register_marginal(self):
        st = QuantumState.basis((2, 2), (0b01, 0b11))
        assert st.register_marginal(0).tolist() == [0, 1, 0, 0]
        assert st.register_marginal(1).tolist() == [0, 0, 0, 1]

    def test_capacity(self):
        with pytest.raises(CapacityError):
            QuantumState.basis((MAX_STATE_QUBITS + 1,), (0,))

    def test_capacity_checked_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                QuantumState.basis((MAX_STATE_QUBITS + 1,), (0,))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10  # the 2^16 complex amplitudes would take 1 MiB

    def test_amplitudes_readonly(self):
        st = QuantumState.basis((2,), (0,))
        with pytest.raises(ValueError):
            st.amplitudes[0] = 0


class TestGates:
    def test_hadamard_single_qubit(self):
        st = apply_hadamard(QuantumState.basis((1,), (0,)), 0)
        assert np.allclose(st.amplitudes, [2**-0.5, 2**-0.5], atol=ATOL)
        st = apply_hadamard(QuantumState.basis((1,), (1,)), 0)
        assert np.allclose(st.amplitudes, [2**-0.5, -(2**-0.5)], atol=ATOL)

    def test_hadamard_is_involution_and_unitary(self):
        rng = np.random.default_rng(1)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        st = QuantumState((3, 1), amps)
        once = apply_hadamard(st, 0)
        assert abs(np.linalg.norm(once.amplitudes) - 1.0) < ATOL
        twice = apply_hadamard(once, 0)
        assert np.allclose(twice.amplitudes, st.amplitudes, atol=ATOL)

    def test_xor_oracle_permutes_basis(self):
        f = BooleanFunction(2, [0, 1, 1, 0])
        st = QuantumState.basis((2, 1), (0b01, 0))
        out = apply_xor_oracle(st, 0, 1, f.bits)
        assert out.amplitudes[0b011] == 1.0  # ancilla flipped since f(01)=1

    def test_xor_oracle_shape_checks(self):
        st = QuantumState.basis((2, 1), (0, 0))
        with pytest.raises(ValueError):
            apply_xor_oracle(st, 0, 0, np.zeros(4, dtype=np.uint8))
        with pytest.raises(ValueError):
            apply_xor_oracle(st, 0, 1, np.zeros(3, dtype=np.uint8))
        with pytest.raises(ValueError):
            apply_xor_oracle(st, 0, 1, np.full(4, 2, dtype=np.uint8))


class TestUip:
    def _basis(self, m, y, b, anc=0):
        return QuantumState.basis((1, m, m, 1), (0, y, b, anc))

    def test_zero_y_or_zero_b_is_identity(self):
        for y, b in [(0, 0b11), (0b10, 0), (0, 0)]:
            st = self._basis(2, y, b)
            out = apply_uip(st, (1, 2, 3))
            assert np.array_equal(out.amplitudes, st.amplitudes)

    def test_m1_full_phase(self):
        st = self._basis(1, 1, 1)
        out = apply_uip(st, (1, 2, 3))
        assert np.allclose(out.amplitudes, -st.amplitudes, atol=ATOL)

    def test_exhaustive_m3_phases(self):
        for y in range(8):
            for b in range(8):
                st = QuantumState.basis((3, 3, 1), (y, b, 1))
                out = apply_uip(st, (0, 1, 2))
                expected = (-1) ** (bin(y & b).count("1") & 1)
                idx = np.argmax(np.abs(st.amplitudes))
                assert out.amplitudes[idx] == expected

    def test_diagonal_and_unitary(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=2**5) + 1j * rng.normal(size=2**5)
        amps /= np.linalg.norm(amps)
        st = QuantumState((1, 2, 2), amps.copy())
        out = apply_uip(st, (1, 2, 0))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < ATOL
        assert np.allclose(np.abs(out.amplitudes), np.abs(st.amplitudes), atol=ATOL)

    def test_register_shape_mismatch(self):
        st = QuantumState.basis((1, 2, 3, 1), (0, 0, 0, 0))
        with pytest.raises(ValueError):
            apply_uip(st, (1, 2, 3))
        st = QuantumState.basis((1, 2, 2, 2), (0, 0, 0, 0))
        with pytest.raises(ValueError):
            apply_uip(st, (1, 2, 3))


class TestDjState:
    def test_constant_zero_points_at_zero(self):
        st = dj_state(BooleanFunction(3, [0] * 8))
        amps = dj_amplitudes(st)
        assert np.allclose(amps, np.eye(8)[0], atol=ATOL)

    def test_example1_amplitudes(self, example1):
        amps = dj_amplitudes(dj_state(example1))
        expected = fwht(example1).coeffs / 2**example1.n
        assert np.allclose(amps, expected, atol=ATOL)
        assert abs(amps[0b1001] - 0.5) < ATOL
        assert abs(amps[0b1011] + 0.5) < ATOL

    def test_amplitudes_equal_scaled_spectrum(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            f = random_function(n, rng)
            amps = dj_amplitudes(dj_state(f))
            assert np.allclose(amps, fwht(f).coeffs / 2**f.n, atol=ATOL)

    def test_norm_preserved_through_circuit(self):
        rng = np.random.default_rng(23)
        f = random_function(6, rng)
        st = QuantumState.basis((f.n, 1), (0, 1))
        for step in (
            lambda s: apply_hadamard(s, 0),
            lambda s: apply_hadamard(s, 1),
            lambda s: apply_xor_oracle(s, 0, 1, f.bits),
            lambda s: apply_hadamard(s, 0),
        ):
            st = step(st)
            assert abs(np.linalg.norm(st.amplitudes) - 1.0) < ATOL

    def test_capacity(self):
        f = BooleanFunction(15, np.zeros(1 << 15, dtype=np.uint8))
        with pytest.raises(CapacityError):
            dj_state(f)


class TestQwtState:
    def test_identity_unit_mask_is_point_mass(self, identity_sbox3):
        marg = qwt_bf_state(identity_sbox3, 0b100).register_marginal(0)
        assert np.allclose(marg, np.eye(8)[0b100], atol=ATOL)

    def test_linear_sbox_b11(self):
        F = VectorialFunction(2, 2, [0, 1, 2, 3])
        marg = qwt_bf_state(F, 0b11).register_marginal(0)
        expected = probabilities(next(spectra(F, [0b11])))
        assert np.allclose(marg, expected, atol=ATOL)

    def test_marginal_matches_spectra(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            F = random_vectorial(3, 2, rng)
            for b in range(1, 4):
                marg = qwt_bf_state(F, b).register_marginal(0)
                expected = probabilities(next(spectra(F, [b])))
                assert np.allclose(marg, expected, atol=ATOL)

    def test_value_register_disentangled(self):
        rng = np.random.default_rng(31)
        F = random_vectorial(3, 2, rng)
        st = qwt_bf_state(F, 0b10)
        assert np.allclose(st.register_marginal(1), np.eye(4)[0], atol=ATOL)

    def test_norm(self, nonlinear_sbox3):
        st = qwt_bf_state(nonlinear_sbox3, 0b101)
        assert abs(np.linalg.norm(st.amplitudes) - 1.0) < ATOL

    def test_capacity(self):
        F = VectorialFunction(10, 3, np.zeros(1 << 10, dtype=np.uint32))
        with pytest.raises(CapacityError):
            qwt_bf_state(F, 1)  # 10 + 6 + 1 = 17 qubits


class TestSampling:
    def test_linear_always_yields_mask(self):
        f = linear_function(6, 0b101101)
        for mode in ("spectral", "statevector"):
            draws = circuit_sampler(f, None, mode).draw(generator(9), 500)
            assert np.all(draws == 0b101101)

    def test_example1_support_only_heavy(self, example1):
        sampler = circuit_sampler(example1, None, SPECTRAL)
        draws = set(sampler.draw(generator(4), 5000).tolist())
        assert draws == {0b1001, 0b1100, 0b1110, 0b1011}

    def test_zero_probability_unreachable_spectral(self):
        rng = np.random.default_rng(37)
        f = random_function(5, rng)
        support = {a for a in range(32) if fwht(f)[a] != 0}
        sampler = circuit_sampler(f, None, SPECTRAL)
        assert set(sampler.draw(generator(2), 20000).tolist()) <= support

    def test_seed_determinism_both_modes(self, example1):
        for mode in ("spectral", "statevector"):
            a = circuit_sampler(example1, None, mode).draw(generator(77), 200)
            b = circuit_sampler(example1, None, mode).draw(generator(77), 200)
            assert np.array_equal(a, b)

    def test_chunking_does_not_change_the_stream(self, example1):
        one = circuit_sampler(example1, None, SPECTRAL).draw(generator(5), 100)
        sampler, stream = circuit_sampler(example1, None, SPECTRAL), generator(5)
        parts = [sampler.draw(stream, k) for k in (1, 9, 40, 50)]
        assert np.array_equal(one, np.concatenate(parts))

    def test_streams_sharing_a_sampler_stay_independent(self):
        spectrum = next(spectra(random_vectorial(5, 3, np.random.default_rng(53)), [6]))
        sampler = Sampler.from_spectrum(spectrum)
        keys = ((3, 6), (4, 6), (3, 0))
        streams = [generator(seed, label) for seed, label in keys]
        chunks = [[sampler.draw(s, k) for s in streams] for k in (1, 50, 249)]  # interleaved
        for i, (seed, label) in enumerate(keys):
            alone = Sampler.from_spectrum(spectrum).draw(generator(seed, label), 300)
            assert np.array_equal(np.concatenate([c[i] for c in chunks]), alone)
        assert not sampler.cum.flags.writeable

    def test_tv_to_exact_on_random_n6(self):
        rng = np.random.default_rng(47)
        f = random_function(6, rng)
        p = probabilities(fwht(f))
        draws = circuit_sampler(f, None, SPECTRAL).draw(generator(13), 100_000)
        counts = np.bincount(draws.astype(np.int64), minlength=64)
        tv = 0.5 * np.abs(counts / 100_000 - p).sum()
        assert tv <= 0.02

    def test_statevector_matches_spectral_distribution(self):
        rng = np.random.default_rng(41)
        f = random_function(4, rng)
        p = probabilities(fwht(f))
        draws = circuit_sampler(f, None, "statevector").draw(generator(11), 100_000)
        counts = np.bincount(draws.astype(np.int64), minlength=16)
        expected = p * 100_000
        keep = expected >= 5
        obs = np.append(counts[keep], counts[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
        if exp[-1] == 0:
            obs, exp = obs[:-1], exp[:-1]
        result = scipy_stats.chisquare(obs, exp)
        assert result.pvalue >= 1e-3

    def test_qwt_sampling_identity(self, identity_sbox3):
        for b in range(1, 8):
            draw = circuit_sampler(identity_sbox3, b, SPECTRAL).draw(generator(3), 1)
            assert draw.tolist() == [b]

    def test_qwt_zero_mask_degenerate(self, identity_sbox3):
        draws = circuit_sampler(identity_sbox3, 0, SPECTRAL).draw(generator(1), 50)
        assert np.all(draws == 0)

    def test_qwt_mode_equivalence_tv(self):
        rng = np.random.default_rng(43)
        F = random_vectorial(3, 2, rng)
        b = 0b11
        p = probabilities(next(spectra(F, [b])))
        out = {}
        for mode in ("spectral", "statevector"):
            draws = circuit_sampler(F, b, mode).draw(generator(19), 10_000)
            out[mode] = np.bincount(draws.astype(np.int64), minlength=8) / 10_000
        tv = 0.5 * np.abs(out["spectral"] - out["statevector"]).sum()
        assert tv <= 0.05
        assert 0.5 * np.abs(out["spectral"] - p).sum() <= 0.05

    def test_stream_metadata(self, example1):
        sampler = circuit_sampler(example1, None, "spectral")
        assert (sampler.n, sampler.bits) == (4, 8)

    def test_invalid_mode_rejected(self, example1):
        with pytest.raises(ValueError):
            circuit_sampler(example1, None, "exact")

    def test_corrupt_spectrum_rejected(self):
        from walshgl.walsh import WalshSpectrum

        bogus = WalshSpectrum(2, np.array([4, 2, 0, 0], dtype=np.int64))
        with pytest.raises(ValueError):
            Sampler.from_spectrum(bogus)

    @pytest.mark.parametrize("table", [[4, 8, 16], [1, 2, 3, 5], [0, 0], [2, 3, 5, 7, 11, 13, 17, 19]])
    def test_table_length_and_end_must_be_powers_of_two(self, table):
        with pytest.raises(ValueError, match="must be powers of two"):
            Sampler(np.array(table, dtype=np.uint64))

    def test_callers_table_is_neither_frozen_nor_aliased(self):
        table = np.array([1, 2], dtype=np.uint64)
        sampler = Sampler(table)
        assert table.flags.writeable and not sampler.cum.flags.writeable
        table[0] = 0
        assert sampler.cum.tolist() == [1, 2]
        frozen = sampler.cum
        assert Sampler(frozen).cum is frozen  # a read-only table is kept, not copied

    def test_negative_count_rejected(self, example1):
        with pytest.raises(ValueError, match="count must be nonnegative"):
            circuit_sampler(example1, None, SPECTRAL).draw(generator(1), -1)


SEEDS = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5)


class TestBatchKeys:
    """Sampler.keys reads raw Philox words; they must equal the keys that
    integers / random give on a fresh substream (see walshgl.rng)."""

    @given(
        n=st.integers(1, 24),
        seeds=SEEDS,
        label=st.integers(0, 2**16 - 1),
        count=st.integers(1, 40),
        source=st.sampled_from(["spectral", "statevector"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_keys_equal_integers_and_random(self, n, seeds, label, count, source):
        # keys reads only bits; this one-entry table ends at 2^bits
        bits = 2 * n if source == "spectral" else 53
        sampler = Sampler(np.array([1 << bits], dtype=np.uint64))
        assert sampler.bits == bits
        keys = sampler.keys(seeds, rng.Rekeyer(label), count)
        assert keys.shape == (len(seeds), count)
        for row, seed in zip(keys, seeds):
            expected = rng.generator(seed, label).integers(0, 1 << bits, size=count,
                                                          dtype=np.uint64)
            assert np.array_equal(row, expected)
            if source == "statevector":  # the words that random() scales by 2^-53
                floats = rng.generator(seed, label).random(size=count)
                assert np.array_equal(row * 2.0**-53, floats)

    @given(
        probs=st.lists(st.floats(0, 1) | st.sampled_from([0.0, 1.0, 2.0**-53, 1 / 3]),
                       min_size=1, max_size=64),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_statevector_integer_table_matches_float_table(self, probs, data):
        """Integer key k picks the outcome that the float k * 2^-53 picks in
        the normalized float cumulative table, at every table boundary too."""
        size = 1 << (len(probs) - 1).bit_length()
        probs = np.resize(np.array(probs), size)
        assume(probs.sum() > 0)
        sampler = Sampler.from_probabilities(probs)
        cum = np.cumsum(probs)
        cum /= cum[-1]
        assert sampler.cum[-1] == 1 << 53
        edges = sampler.cum.astype(np.int64)
        keys = np.concatenate([edges - 1, edges, edges + 1,
                               data.draw(st.lists(st.integers(0, 2**53 - 1), max_size=20))])
        keys = np.unique(np.clip(keys, 0, 2**53 - 1)).astype(np.uint64)
        assert np.array_equal(np.searchsorted(sampler.cum, keys, side="right"),
                              np.searchsorted(cum, keys * 2.0**-53, side="right"))

    @pytest.mark.parametrize("n", [15, 16, 17])  # 2n = 30, 32 (full 32-bit range), 34
    @pytest.mark.parametrize("count", [1, 2, 585])
    def test_word_width_edges(self, n, count):
        sampler = Sampler(np.array([4**n], dtype=np.uint64))
        keys = sampler.keys([7, 2**64 - 1], rng.Rekeyer(3), count)
        for row, seed in zip(keys, [7, 2**64 - 1]):
            expected = rng.generator(seed, 3).integers(0, 4**n, size=count, dtype=np.uint64)
            assert np.array_equal(row, expected)


def _per_seed_counts(sampler, seeds, label, count, threshold):
    """(run, a, hits) rows from np.unique over each seed's own stream."""
    rows = []
    for run, seed in enumerate(seeds):
        draws = sampler.draw(generator(seed, label), count)
        values, hits = np.unique(draws, return_counts=True)
        rows += [(run, a, h) for a, h in zip(values.tolist(), hits.tolist()) if h >= threshold]
    return rows


class TestCountRuns:
    @given(
        shape=st.one_of(
            st.tuples(st.integers(1, 10), st.none()),
            st.tuples(st.integers(1, 4), st.integers(1, 4)),
            # sorted path only: 32-bit halves up to n = 16, 64-bit words above
            st.tuples(st.integers(11, 18), st.none()),
        ),
        table_seed=st.integers(0, 2**32 - 1),
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=7),
        count=st.integers(1, 60),
        cut=st.floats(0, 1),
        mode=st.sampled_from(["spectral", "statevector"]),
        table=st.booleans(),
        batch=st.sampled_from(["1", "l", "3l+1", "default"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_batches_equal_per_seed_streams(
        self, shape, table_seed, seeds, count, cut, mode, table, batch
    ):
        n, m = shape
        assume(mode == "spectral" or n < MAX_STATE_QUBITS)
        seeds = seeds[:2] if n > 10 else seeds
        table_rng = np.random.default_rng(table_seed)
        if n > 10:  # one planted heavy outcome with S(w0) anywhere in (0, 1]
            w0, d = table_seed % (1 << n), table_seed % (1 << (n - 1))
            target, b = planted_function(n, w0, d, table_seed), None
        elif m is None:
            target, b = random_function(n, table_rng), None
        else:
            target, b = random_vectorial(n, m, table_rng), 1 + table_seed % ((1 << m) - 1)
        sampler = qsim.circuit_sampler(target, b, mode, None)
        # the default table rule, or none: _LUT_LIMIT 0 forces the sorted path
        limit = ("_LUT_LIMIT", 4**8 if table else 0)
        threshold = 1 + int(cut * (count - 1))
        label = 0 if b is None else b
        size = {"1": 1, "l": count, "3l+1": 3 * count + 1, "default": qsim._DRAW_BATCH}[batch]
        with mock.patch.object(qsim, "_DRAW_BATCH", size), mock.patch.object(qsim, *limit):
            lut = sampler.lookup_table()
            run, a, hits = sampler.count_runs(seeds, label, count, threshold)
        assert (lut is not None) == (table and mode == "spectral" and n <= 8)
        got = list(zip(run.tolist(), a.tolist(), hits.tolist()))
        assert got == _per_seed_counts(sampler, seeds, label, count, threshold)

    @pytest.mark.parametrize("threshold", [1, 2, 3, 7])
    def test_strided_probes_find_every_run_of_threshold(self, threshold):
        """Row 2j holds one outcome repeated `threshold` times from place j
        of the sorted row; row 2j + 1 repeats it once less.  Every other
        outcome is drawn once, and each row starts at a lower outcome than
        the row before it, so the batch is sorted only once offset by row."""
        t = threshold
        sampler = Sampler(np.arange(1, 257, dtype=np.uint64) * 256)
        length, rows, expected = 4 * t + 3, [], []
        for j in range(t):
            for row_hits in (t, t - 1):
                top = 255 - 8 * len(rows) - length  # outcomes top .. top + length - 1
                heavy = top + j
                cells = np.r_[np.arange(top, heavy), [heavy] * row_hits,
                              np.arange(heavy + 1, top + length - row_hits + 1)]
                # a key at the first key of its outcome's cell, except the
                # last of each run, which is at the cell's last key
                keys = cells * 256
                keys[np.r_[cells[1:] != cells[:-1], True]] += 255
                rows.append(keys)
                values, hits = np.unique(cells, return_counts=True)
                expected += [(len(rows) - 1, v, h) for v, h in zip(values.tolist(), hits.tolist())
                             if h >= t]
        keys = np.array(rows, dtype=np.uint64)[:, ::-1].copy()  # _count sorts each row
        run, a, hits = sampler._count(keys, t, None)
        assert list(zip(run.tolist(), a.tolist(), hits.tolist())) == expected
        if t > 1:  # the runs of `threshold` are listed, the shorter ones are not
            assert [(r, h) for r, _, h in expected] == [(2 * j, t) for j in range(t)]

    def test_statevector_batch_past_the_row_cap(self):
        """At bits = 53, run * 2^53 + cum[a] fits in 64 bits for fewer than
        2^11 runs; with one draw per run the default batch would hold 2^14
        runs."""
        probs = qsim.dj_state(random_function(3, np.random.default_rng(4))).register_marginal(0)
        sampler = Sampler.from_probabilities(probs)
        seeds = list(range(5000, 5000 + (1 << 11) + 300))
        for count in (1, 4):
            assert qsim._DRAW_BATCH // count > 1 << 11
            run, a, hits = sampler.count_runs(seeds, 9, count, 1)
            got = list(zip(run.tolist(), a.tolist(), hits.tolist()))
            assert got == _per_seed_counts(sampler, seeds, 9, count, 1)

    @pytest.mark.parametrize("count", [1, 8])
    def test_statevector_full_batch_counts_the_top_outcome(self, count):
        """Every draw is outcome 2, whose upper key bound cum[2] = 2^53 is the
        table's end, and every draw count up to 8 fills a batch to its row
        cap: the last row of each full batch still counts outcome 2."""
        sampler = Sampler.from_probabilities(np.array([0.0, 0.0, 1.0, 0.0]))
        assert int(sampler.cum[2]) == 1 << 53
        assert qsim._DRAW_BATCH // count >= 1 << 11
        seeds = list(range(2 * (1 << 11) + 5))
        run, a, hits = sampler.count_runs(seeds, 3, count, 1)
        got = list(zip(run.tolist(), a.tolist(), hits.tolist()))
        assert got == [(r, 2, count) for r in range(len(seeds))]
        assert got == _per_seed_counts(sampler, seeds, 3, count, 1)

    @pytest.mark.parametrize("table", [False, True])
    def test_threshold_below_one_counts_as_one(self, table):
        sampler = Sampler.from_spectrum(fwht(random_function(5, np.random.default_rng(2))))
        with mock.patch.object(qsim, "_LUT_LIMIT", 4**8 if table else 0):
            assert (sampler.lookup_table() is not None) == table
            runs = [sampler.count_runs([3, 4], 1, 10, t) for t in (1, 0, -5)]
        assert runs[0][0].size > 0
        for other in runs[1:]:
            assert all(np.array_equal(x, y) for x, y in zip(runs[0], other))

    def test_lookup_table_is_the_inverse_cdf(self):
        sampler = Sampler.from_spectrum(fwht(random_function(6, np.random.default_rng(5))))
        keys = np.arange(4**6, dtype=np.uint64)
        lut = sampler.lookup_table()
        assert np.array_equal(lut, np.searchsorted(sampler.cum, keys, side="right"))

    def test_lookup_table_limits(self):
        edge = Sampler.from_spectrum(fwht(random_function(8, np.random.default_rng(5))))
        assert edge.lookup_table().shape == (4**8,)  # 4^8 == _LUT_LIMIT
        big = Sampler.from_spectrum(fwht(random_function(9, np.random.default_rng(5))))
        assert big.lookup_table() is None
        probs = qsim.dj_state(random_function(4, np.random.default_rng(5))).register_marginal(0)
        assert Sampler.from_probabilities(probs).lookup_table() is None

    @pytest.mark.parametrize("batch", [1 << 12, 1 << 14])
    def test_batch_workspace_is_bounded(self, batch):
        """1000 runs of one draw at n=8, through the 128 KiB lookup table:
        unbatched, the int64 counters alone would take runs * 2^n * 8 =
        2 MB.  Past the table, the peak stays within one batch's counters
        (8 bytes per draw slot) and its small arrays, plus 64 KiB for the
        per-batch results and fixed costs."""
        sampler = Sampler.from_spectrum(fwht(random_function(8, np.random.default_rng(9))))
        seeds = list(range(1000))
        bound = 2 * 4**8 + 12 * batch + (1 << 16)
        assert len(seeds) * (1 << 8) * 8 > 4 * (bound - 2 * 4**8)
        with mock.patch.object(qsim, "_DRAW_BATCH", batch):
            assert sampler.lookup_table() is not None
            tracemalloc.start()
            try:
                run, _, hits = sampler.count_runs(seeds, 0, 1, 1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert run.tolist() == list(range(1000)) and hits.tolist() == [1] * 1000
        assert peak <= bound
