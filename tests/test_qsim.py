import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from walshgl import (
    BitVector,
    BooleanFunction,
    CapacityError,
    VectorialFunction,
    circuit_sampler,
    dj_state,
    fwht,
    qwt_bf_state,
    spectra,
)
from walshgl import qsim
from walshgl.qsim import (
    MAX_STATE_QUBITS,
    SPECTRAL,
    STATEVECTOR,
    QuantumState,
    Sampler,
    apply_hadamard,
    apply_uip,
    apply_xor_oracle,
)
from walshgl.cli import main
from walshgl.walsh import WalshSpectrum

from conftest import (
    EXAMPLE1_ANF, key_matrix, linear_function, planted_function, random_function,
    random_vectorial,
)
from reference import cumulative_weights, dj_amplitudes, generator, outcomes, probabilities

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

    @pytest.mark.parametrize("build,message", [
        (lambda: QuantumState((2, 0), np.zeros(4)),
         r"^register widths must be positive, got \(2, 0\)$"),
        (lambda: QuantumState((2,), np.zeros(3)),
         r"^amplitude vector must have length 2\^2, got \(3,\)$"),
        (lambda: QuantumState.basis((2, 1), (0,)), r"^one value per register required$"),
        (lambda: QuantumState.basis((2, 1), (4, 0)), r"^register value 4 does not fit in 2 qubits$"),
        (lambda: QuantumState.basis((2, 1), (0, 0)).register(2),
         r"^no register 2 in a 2-register state$"),
        (lambda: QuantumState.basis((2, 1), (0, 0)).register(-1),
         r"^no register -1 in a 2-register state$"),
    ], ids=["nonpositive-width", "amplitude-length", "value-count", "value-too-wide",
            "unknown-register", "negative-register"])
    def test_malformed_state_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    # Each use of a register index: (k registers in its state, the call at index r).
    REGISTER_USES = {
        "marginal": (2, lambda r: QuantumState.basis((2, 1), (0, 0)).register_marginal(r)),
        # |x>|F(x)>|ancilla> with F(x) = x
        "xor-src": (3, lambda r: apply_xor_oracle(
            QuantumState.basis((2, 2, 1), (0, 0, 0)), r, 1, np.arange(4))),
        "xor-dst": (3, lambda r: apply_xor_oracle(
            QuantumState.basis((2, 2, 1), (0, 0, 0)), 0, r, np.arange(4))),
        "uip-y": (4, lambda r: apply_uip(QuantumState.basis((1, 2, 2, 1), (0, 0, 0, 1)), (r, 2, 3))),
        "uip-b": (4, lambda r: apply_uip(QuantumState.basis((1, 2, 2, 1), (0, 0, 0, 1)), (1, r, 3))),
        "uip-ancilla": (4, lambda r: apply_uip(
            QuantumState.basis((1, 2, 2, 1), (0, 0, 0, 1)), (1, 2, r))),
    }

    @pytest.mark.parametrize("past_end", [True, False], ids=["index-k", "index-minus-1"])
    @pytest.mark.parametrize("use", sorted(REGISTER_USES))
    def test_unknown_register_rejected(self, use, past_end):
        k, call = self.REGISTER_USES[use]
        r = k if past_end else -1
        with pytest.raises(ValueError, match=rf"^no register {r} in a {k}-register state$"):
            call(r)

    def test_register_layout(self):
        n, m = 3, 2
        state = QuantumState.basis((n, m, m, 1), (0, 0, 0, 1))
        assert [state.register(r) for r in range(4)] == [
            (n, 2 * m + 1), (m, m + 1), (m, 1), (1, 0)
        ]


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
        for table in (np.full(4, 2, dtype=np.uint8), np.array([0, -1, 0, 0]),
                      np.array([0, 0, 0, -(1 << 40)])):
            with pytest.raises(ValueError, match="oracle table values must fit in 1 qubits"):
                apply_xor_oracle(st, 0, 1, table)


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


class TestComponentMask:
    """A mask that does not fit its target is one ValueError, whichever
    source draws: a Boolean function takes b=None, an S-box an output mask."""

    MISMATCH = r"^component mask b=(5|None) does not fit (BooleanFunction|VectorialFunction) input"

    @pytest.mark.parametrize("mode", ["spectral", "statevector"])
    @pytest.mark.parametrize("sbox", [False, True], ids=["boolean-with-b", "sbox-without-b"])
    def test_mismatch_raises_value_error(self, mode, sbox, example1, identity_sbox3):
        target, b = (identity_sbox3, None) if sbox else (example1, 5)
        source = {"spectral": lambda: next(spectra(target, [b])),
                  "statevector": lambda: qsim.circuit_state(target, b)}[mode]
        for call in (lambda: circuit_sampler(target, b, mode), source):
            with pytest.raises(ValueError, match=self.MISMATCH):
                call()

    def test_dj_state_on_sbox_raises_value_error(self, identity_sbox3):
        with pytest.raises(ValueError, match=self.MISMATCH):
            dj_state(identity_sbox3)

    def test_fitting_masks_still_run(self, example1, identity_sbox3):
        assert qsim.circuit_state(example1, None).register_widths == (4, 1)
        assert qsim.circuit_state(identity_sbox3, 0).register_widths == (3, 3, 3, 1)
        assert next(spectra(identity_sbox3, [BitVector(3, 5)]))[0] == 0


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


def _wrapping_spectrum(n: int, count: int) -> WalshSpectrum:
    """``count`` coefficients of 2^n, the rest 0: squares summing to count * 4^n."""
    coeffs = np.zeros(1 << n, dtype=np.int32)
    coeffs[:count] = 1 << n
    return WalshSpectrum(n, coeffs)


class TestSampling:
    def test_linear_always_yields_mask(self):
        f = linear_function(6, 0b101101)
        for mode in ("spectral", "statevector"):
            draws = circuit_sampler(f, None, mode).draw(9, 0, 500)
            assert np.all(draws == 0b101101)

    def test_example1_support_only_heavy(self, example1):
        sampler = circuit_sampler(example1, None, SPECTRAL)
        draws = set(sampler.draw(4, 0, 5000).tolist())
        assert draws == {0b1001, 0b1100, 0b1110, 0b1011}

    def test_zero_probability_unreachable_spectral(self):
        rng = np.random.default_rng(37)
        f = random_function(5, rng)
        support = {a for a in range(32) if fwht(f)[a] != 0}
        sampler = circuit_sampler(f, None, SPECTRAL)
        assert set(sampler.draw(2, 0, 20000).tolist()) <= support

    def test_seed_determinism_both_modes(self, example1):
        for mode in ("spectral", "statevector"):
            sampler = circuit_sampler(example1, None, mode)
            a = sampler.draw(77, 0, 200)
            b = circuit_sampler(example1, None, mode).draw(77, 0, 200)
            assert np.array_equal(a, b)
            assert np.array_equal(a, outcomes(sampler, 77, 0, 200))

    def test_chunking_does_not_change_the_stream(self, example1):
        sampler = circuit_sampler(example1, None, SPECTRAL)
        firsts = (0, 1, 10, 50)
        parts = [sampler.draw(5, first, k) for first, k in zip(firsts, (1, 9, 40, 50))]
        assert np.array_equal(outcomes(sampler, 5, 0, 100), np.concatenate(parts))

    def test_streams_sharing_a_sampler_stay_independent(self):
        spectrum = next(spectra(random_vectorial(5, 3, np.random.default_rng(53)), [6]))
        sampler = Sampler(spectrum)
        seeds = (3, 4, 2**64 - 1)
        chunks = [[sampler.draw(seed, first, k) for seed in seeds]  # interleaved
                  for first, k in ((0, 1), (1, 50), (51, 249))]
        for i, seed in enumerate(seeds):
            alone = outcomes(Sampler(spectrum), seed, 0, 300)
            assert np.array_equal(np.concatenate([c[i] for c in chunks]), alone)
        assert sampler.weights is spectrum.coeffs and not sampler.weights.flags.writeable

    def test_tv_to_exact_on_random_n6(self):
        rng = np.random.default_rng(47)
        f = random_function(6, rng)
        p = probabilities(fwht(f))
        draws = circuit_sampler(f, None, SPECTRAL).draw(13, 0, 100_000)
        counts = np.bincount(draws.astype(np.int64), minlength=64)
        tv = 0.5 * np.abs(counts / 100_000 - p).sum()
        assert tv <= 0.02

    def test_statevector_matches_spectral_distribution(self):
        rng = np.random.default_rng(41)
        f = random_function(4, rng)
        p = probabilities(fwht(f))
        draws = circuit_sampler(f, None, "statevector").draw(11, 0, 100_000)
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
            draw = circuit_sampler(identity_sbox3, b, SPECTRAL).draw(3, 0, 1)
            assert draw.tolist() == [b]

    def test_qwt_zero_mask_degenerate(self, identity_sbox3):
        draws = circuit_sampler(identity_sbox3, 0, SPECTRAL).draw(1, 0, 50)
        assert np.all(draws == 0)

    def test_qwt_mode_equivalence_tv(self):
        rng = np.random.default_rng(43)
        F = random_vectorial(3, 2, rng)
        b = 0b11
        p = probabilities(next(spectra(F, [b])))
        out = {}
        for mode in ("spectral", "statevector"):
            draws = circuit_sampler(F, b, mode).draw(19, 0, 10_000)
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
        bogus = WalshSpectrum(2, np.array([4, 2, 0, 0], dtype=np.int64))
        with pytest.raises(ValueError):
            Sampler(bogus)

    @pytest.mark.parametrize("table", [[2, 2, 2], [1, 1, 1, 2], [0, 0], [2, 1, 1, 1, 1, 1, 1, 1]])
    def test_table_length_and_end_must_be_powers_of_two(self, table):
        """The table's length, the spectrum's coefficient count, must be 2^n
        (not 3), and its last entry, the sum of their squares, 4^n (not 7, 0
        or 11)."""
        n = (len(table) - 1).bit_length()
        with pytest.raises(ValueError, match="needs 4 coefficients|violate Parseval"):
            Sampler(WalshSpectrum(n, np.array(table, dtype=np.int32)))

    @pytest.mark.parametrize("weights, message", [
        # raw weights, which a uint64 table would wrap (-1 to 2^64 - 1) or cast (1.0 to 1)
        (partial(np.array, [-1, 2]), "must be a WalshSpectrum, got ndarray"),
        (partial(np.array, [1.0, 1.0]), "must be a WalshSpectrum, got ndarray"),
        # 2^20 + 1 squares of 4^22 sum to 2^64 + 4^22, which wraps to exactly 4^22
        (partial(_wrapping_spectrum, 22, (1 << 20) + 1), r"sum to 18446761665895596032, not 4\^22;"),
        # all 2^22 squares of 4^22 sum to 2^66, which wraps to 0
        (partial(_wrapping_spectrum, 22, 1 << 22), r"sum to 73786976294838206464, not 4\^22;"),
    ])
    def test_weights_that_a_uint64_sum_would_wrap_are_refused(self, weights, message):
        """The sampler takes only a spectrum, and reports the exact sum of its
        squares, 2^64 per wrap of its uint64 block ends included.  ``weights``
        builds the input when the case runs, not when it is collected."""
        with pytest.raises((TypeError, ValueError), match=message):
            Sampler(weights())

    def test_spectrum_that_wraps_to_4_to_the_n_is_refused_in_bounded_memory(self):
        """At n = 22, 2^20 + 1 coefficients of 2^22 are a spectrum, but their
        squares sum to 2^64 + 4^22, which a uint64 total wraps to exactly
        4^22.  The block ends fall there, and the sampler refuses the
        spectrum, through the public ``circuit_sampler`` too, before it sizes
        a guide from the wrapped ends: its largest array is the 4 MiB of ends."""
        n = 22
        spectrum = _wrapping_spectrum(n, (1 << 20) + 1)
        target = BooleanFunction(n, np.zeros(1 << n, dtype=np.uint8))
        tracemalloc.start()
        try:
            for build in (lambda: Sampler(spectrum),
                          lambda: circuit_sampler(target, None, SPECTRAL, spectrum)):
                with pytest.raises(ValueError, match="violate Parseval"):
                    build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20

    def test_coefficients_that_square_past_2_to_the_64_never_reach_a_sampler(self):
        """Four W = -2^31 square to 2^64, which a uint64 total wraps to 0, and
        with 1, 1, 0, 0 it would end at 2: the spectrum refuses them first."""
        coeffs = np.array([-(2**31)] * 4 + [1, 1, 0, 0], dtype=np.int32)
        target = BooleanFunction(3, np.zeros(8, dtype=np.uint8))
        for build in (lambda: Sampler(WalshSpectrum(3, coeffs)),
                      lambda: circuit_sampler(target, None, SPECTRAL, WalshSpectrum(3, coeffs))):
            with pytest.raises(ValueError, match=r"^a coefficient lies outside \[-2\^3, 2\^3\]$"):
                build()

    def test_callers_table_is_neither_frozen_nor_aliased(self):
        table = np.array([2, 0], dtype=np.int32)  # the coefficients of the table [4, 4]
        spectrum = WalshSpectrum(1, table)
        sampler = Sampler(spectrum)
        assert table.flags.writeable and not sampler.weights.flags.writeable
        table[0] = 0
        assert sampler.weights.tolist() == [2, 0]
        assert cumulative_weights(sampler).tolist() == [4, 4]
        assert sampler.weights is spectrum.coeffs  # read-only coefficients are kept, not copied

    def test_negative_count_rejected(self, example1):
        with pytest.raises(ValueError, match="count must be nonnegative"):
            circuit_sampler(example1, None, SPECTRAL).draw(1, 0, -1)

    def test_negative_first_rejected(self, example1):
        with pytest.raises(ValueError, match="^first must be nonnegative$"):
            circuit_sampler(example1, None, SPECTRAL).draw(1, -3, 5)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, example1, seed):
        sampler = circuit_sampler(example1, None, SPECTRAL)
        with pytest.raises(ValueError, match=rf"^seed {seed} is outside 0\.\.2\^64 - 1$"):
            sampler.draw(seed, 0, 10)
        with pytest.raises(ValueError, match=rf"^seed {seed} is outside"):
            sampler.count_runs([0, 1, seed], 0, 10, 1)
        for edge in (0, 2**64 - 1):  # the range's ends draw as before
            assert np.array_equal(sampler.draw(edge, 0, 10),
                                  outcomes(sampler, edge, 0, 10))


class TestStatevectorSpectrum:
    """The statevector source reads |W| = rint(sqrt(P(a)) * 2^n) off the
    simulated marginal of register 0 and samples it as a spectrum."""

    @given(
        # Deutsch-Jozsa on n + 1 <= 15 qubits, or the multi-output circuit on n + 2m + 1 <= 15
        shape=st.one_of(
            st.tuples(st.integers(1, 14), st.none()),
            st.integers(1, 12).flatmap(
                lambda n: st.tuples(st.just(n), st.integers(1, (14 - n) // 2))),
        ),
        seed=st.integers(0, 2**32 - 1),
        constant=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_rounded_marginal_equals_the_butterflys_magnitudes(self, shape, seed, constant):
        n, m = shape
        rng = np.random.default_rng(seed)
        if m is None:
            target, b = random_function(n, rng), None
            if constant:  # all of 4^n on outcome 0
                target = BooleanFunction(n, np.full(1 << n, seed & 1, dtype=np.uint8))
        else:
            target, b = random_vectorial(n, m, rng), seed % (1 << m)
            if constant:
                target = VectorialFunction(n, m, np.full(1 << n, target.table[0]))
        scaled = np.sqrt(qsim.circuit_state(target, b).register_marginal(0)) * (1 << n)
        exact = np.abs(next(spectra(target, [b])).coeffs)
        assert np.array_equal(np.rint(scaled), exact)
        assert np.abs(scaled - exact).max() < qsim._ROUNDING_MARGIN / 1000
        sampler = circuit_sampler(target, b, STATEVECTOR)
        assert np.array_equal(sampler.weights, exact) and sampler.bits == 2 * n

    @pytest.mark.parametrize("move, message", [
        (1.01, r"^a simulated \|W\| lies 0\.0399 from an integer, past the rounding margin 1e-06$"),
        (81 / 64, r"^coefficient weights violate Parseval: their squares sum to 273, not 4\^4; "
                  r"corrupt spectrum$"),
    ], ids=["one-percent", "next-integer"])
    def test_perturbed_marginal_is_refused_before_any_draw(self, example1, capsys, move,
                                                           message):
        """P(1001) = 1/4 of EXAMPLE1 moved by 1% puts |W| = 8 at 8.04, off the
        integers; moved to 81/256, |W| rounds to 9 and the squares sum past
        4^4.  Either way no key is read, and ``sample`` exits 2."""
        marginal = QuantumState.register_marginal

        def moved(state, reg):
            probs = marginal(state, reg).copy()
            probs[0b1001] *= move
            return probs

        with mock.patch.object(QuantumState, "register_marginal", moved), \
                mock.patch.object(qsim.rng, "key_rows", side_effect=AssertionError("drew")):
            with pytest.raises(ValueError, match=message):
                circuit_sampler(example1, None, STATEVECTOR)
            assert main(["sample", "--anf", EXAMPLE1_ANF, "--mode", "statevector"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("walshgl: error: ")


SEEDS = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5)


class TestBatchKeys:
    """``rng.key_rows`` reads raw Philox words; they must equal the keys that
    integers / random give on a fresh substream (see walshgl.rng)."""

    @given(
        n=st.integers(1, 24),
        seeds=SEEDS,
        label=st.integers(0, 2**16 - 1),
        count=st.integers(1, 40),
        width=st.sampled_from(["sampler", "random"]),
        rows=st.integers(1, 6),
    )
    @settings(max_examples=150, deadline=None)
    def test_keys_equal_integers_and_random(self, n, seeds, label, count, width, rows):
        # a sampler at n reads 2n bits; 53 bits are the words that random() scales by 2^-53
        bits = 2 * n if width == "sampler" else 53
        keys = key_matrix(seeds, label, count, bits, rows)
        assert keys.shape == (len(seeds), count)
        for row, seed in zip(keys, seeds):
            expected = generator(seed, label).integers(0, 1 << bits, size=count, dtype=np.uint64)
            assert np.array_equal(row, expected)
            if width == "random":
                floats = generator(seed, label).random(size=count)
                assert np.array_equal(row * 2.0**-53, floats)

    @given(
        bits=st.integers(2, 53),
        source=st.sampled_from(["spectral", "statevector"]),
        seeds=SEEDS,
        label=st.integers(0, 2**64 - 1),
        first=st.integers(0, 200),
        count=st.integers(1, 60),
        rows=st.integers(1, 6),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_offset_reads_equal_integers(self, bits, source, seeds, label, first, count, rows,
                                         data):
        """Keys ``first`` to ``first + count - 1``, and the outcomes that
        ``Sampler.draw(seed, first, count)`` picks, are those entries of
        numpy's ``integers`` and of the reference outcomes."""
        keys = key_matrix(seeds, label, count, bits, rows, first)
        assert keys.shape == (len(seeds), count)
        for row, seed in zip(keys, seeds):
            expected = generator(seed, label).integers(0, 1 << bits, size=first + count,
                                                       dtype=np.uint64)
            assert np.array_equal(row, expected[first:])
        # a sampler of either source; n = 17 reads its keys from whole 64-bit words
        n = data.draw(st.integers(1, 10) | st.just(17) if source == SPECTRAL else st.integers(1, 10))
        target = random_function(n, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
        sampler = circuit_sampler(target, None, source)
        for seed in seeds:
            expected = outcomes(sampler, seed, 0, first + count)[first:]
            assert np.array_equal(sampler.draw(seed, first, count), expected)

    @pytest.mark.parametrize("n", [15, 16, 17])  # 2n = 30, 32 (full 32-bit range), 34
    @pytest.mark.parametrize("count", [1, 2, 585])
    def test_word_width_edges(self, n, count):
        for rows in (1, 2):  # the keys of a sampler at n, below 4^n
            keys = key_matrix([7, 2**64 - 1], 3, count, 2 * n, rows)
            for row, seed in zip(keys, [7, 2**64 - 1]):
                expected = generator(seed, 3).integers(0, 4**n, size=count, dtype=np.uint64)
                assert np.array_equal(row, expected)


def _per_seed_counts(sampler, seeds, label, count, threshold):
    """(run, a, hits) rows from np.unique over each seed's own stream."""
    rows = []
    for run, seed in enumerate(seeds):
        draws = outcomes(sampler, seed, label, count)
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
        assert (lut is not None) == (table and n <= 8)
        got = list(zip(run.tolist(), a.tolist(), hits.tolist()))
        assert got == _per_seed_counts(sampler, seeds, label, count, threshold)

    @pytest.mark.parametrize("threshold", [1, 2, 3, 7])
    def test_strided_probes_find_every_run_of_threshold(self, threshold):
        """Row 2j holds one outcome repeated `threshold` times from place j
        of the sorted row; row 2j + 1 repeats it once less.  Every other
        outcome is drawn once, and each row starts at a lower outcome than
        the row before it, so the batch is sorted only once offset by row."""
        t = threshold
        # |W| = 16 everywhere (a bent function at n = 8): the table 256, 512, .., 2^16
        sampler = Sampler(WalshSpectrum(8, np.full(256, 16, dtype=np.int32)))
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

    @pytest.mark.parametrize("count", [1, 8])
    def test_statevector_full_batch_counts_the_top_outcome(self, count):
        """Every draw is outcome 2 of the linear function 2.x, whose upper key
        bound cum[2] = 4^2 is the table's end.  Two full batches of runs on the
        sorted path, and a part of one, each end on a row that still counts it."""
        sampler = circuit_sampler(linear_function(2, 0b10), None, STATEVECTOR)
        assert int(cumulative_weights(sampler)[2]) == 1 << sampler.bits
        batch = 1 << 11
        seeds = list(range(2 * (batch // count) + 5))
        with mock.patch.object(qsim, "_DRAW_BATCH", batch), mock.patch.object(qsim, "_LUT_LIMIT", 0):
            run, a, hits = sampler.count_runs(seeds, 3, count, 1)
        got = list(zip(run.tolist(), a.tolist(), hits.tolist()))
        assert got == [(r, 2, count) for r in range(len(seeds))]
        assert got == _per_seed_counts(sampler, seeds, 3, count, 1)

    @pytest.mark.parametrize("table", [False, True])
    def test_threshold_below_one_counts_as_one(self, table):
        sampler = Sampler(fwht(random_function(5, np.random.default_rng(2))))
        with mock.patch.object(qsim, "_LUT_LIMIT", 4**8 if table else 0):
            assert (sampler.lookup_table() is not None) == table
            runs = [sampler.count_runs([3, 4], 1, 10, t) for t in (1, 0, -5)]
        assert runs[0][0].size > 0
        for other in runs[1:]:
            assert all(np.array_equal(x, y) for x, y in zip(runs[0], other))

    @pytest.mark.parametrize("n", [3, 10], ids=["table", "sorted"])
    def test_no_seeds_count_three_empty_arrays(self, n):
        sampler = Sampler(fwht(random_function(n, np.random.default_rng(3))))
        assert (sampler.lookup_table() is not None) == (n == 3)
        run, a, hits = sampler.count_runs([], 0, 10, 2)
        for part in (run, a, hits):
            assert part.shape == (0,) and part.dtype == np.intp

    @pytest.mark.parametrize("n, mode", [(3, "spectral"), (10, "spectral"), (10, "statevector")],
                             ids=["table", "sorted", "statevector"])
    def test_zero_draws_count_three_empty_arrays(self, n, mode):
        sampler = circuit_sampler(random_function(n, np.random.default_rng(3)), None, mode)
        assert (sampler.lookup_table() is not None) == (n == 3)
        run, a, hits = sampler.count_runs([1, 2], 0, 0, 1)
        for part in (run, a, hits):
            assert part.shape == (0,) and part.dtype == np.intp
        assert sampler.draw(1, 5, 0).shape == (0,)

    def test_lookup_table_is_the_inverse_cdf(self):
        sampler = Sampler(fwht(random_function(6, np.random.default_rng(5))))
        keys = np.arange(4**6, dtype=np.uint64)
        lut = sampler.lookup_table()
        table = cumulative_weights(sampler)
        assert np.array_equal(lut, np.searchsorted(table, keys, side="right"))

    def test_lookup_table_limits(self):
        edge = Sampler(fwht(random_function(8, np.random.default_rng(5))))
        assert edge.lookup_table().shape == (4**8,)  # 4^8 == _LUT_LIMIT
        big = Sampler(fwht(random_function(9, np.random.default_rng(5))))
        assert big.lookup_table() is None
        f = random_function(4, np.random.default_rng(5))  # the same table from either source
        assert np.array_equal(circuit_sampler(f, None, STATEVECTOR).lookup_table(),
                              circuit_sampler(f, None, SPECTRAL).lookup_table())

    @pytest.mark.parametrize("batch", [1 << 12, 1 << 14])
    def test_batch_workspace_is_bounded(self, batch):
        """1000 runs of one draw at n=8, through the 128 KiB lookup table:
        unbatched, the int64 counters alone would take runs * 2^n * 8 =
        2 MB.  Past the table, the peak stays within one batch's counters
        (8 bytes per draw slot) and its small arrays, plus 64 KiB for the
        per-batch results and fixed costs."""
        sampler = Sampler(fwht(random_function(8, np.random.default_rng(9))))
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


def _spectral_sampler(n: int, kind: str, seed: int) -> Sampler:
    """A sampler on the spectrum of an n-variable function: random, constant
    (one outcome holds 4^n), or depending on only its j lowest or highest
    variables (whole blocks of zero weight, or one weight per block)."""
    rng_ = np.random.default_rng(seed)
    j = seed % (n + 1)
    bits = {"random": lambda: rng_.integers(0, 2, 1 << n, dtype=np.uint8),
            "constant": lambda: np.full(1 << n, seed & 1, dtype=np.uint8),
            "low": lambda: np.tile(rng_.integers(0, 2, 1 << j, dtype=np.uint8), 1 << (n - j)),
            "high": lambda: np.repeat(rng_.integers(0, 2, 1 << j, dtype=np.uint8), 1 << (n - j)),
            }[kind]()
    return Sampler(fwht(BooleanFunction(n, bits)))


class TestLocate:
    """``Sampler.locate`` against ``searchsorted`` over the whole cumulative
    table, which the sampler no longer holds."""

    @given(
        n=st.integers(1, 16),
        kind=st.sampled_from(["random", "constant", "low", "high", "statevector"]),
        seed=st.integers(0, 2**16),
        k=st.integers(0, 17),
        chunk=st.sampled_from([1, 24, 1 << 16]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_locate_equals_searchsorted_over_the_whole_table(self, n, kind, seed, k, chunk, data):
        if kind == "statevector" or chunk < 1 << 10:  # a pass per weight would take seconds
            n = min(n, 10)
        with mock.patch.object(qsim, "_BLOCK_BITS", k), \
                mock.patch.object(qsim, "_LOCATE_CHUNK", chunk):
            sampler = (circuit_sampler(random_function(n, np.random.default_rng(seed)), None,
                                       STATEVECTOR) if kind == "statevector"
                       else _spectral_sampler(n, kind, seed))
            table = cumulative_weights(sampler)
            top = (1 << sampler.bits) - 1
            # the first, the last and 64 random block ends and outcome ends
            picks = np.random.default_rng(seed).integers(0, 1 << n, 64)
            ends = table[(picks | ((1 << min(k, n)) - 1)).tolist() + [-1]]
            cuts = table[np.r_[0, picks, -1]].astype(np.int64)
            keys = np.concatenate([
                ends.astype(np.int64) + np.array([[-1], [0], [1]]), cuts, cuts - 1, [0, top],
                data.draw(st.lists(st.integers(0, top), max_size=50)),
            ], axis=None)
            keys = np.unique(np.clip(keys, 0, top)).astype(np.uint64)
            a, lo, hi = sampler.locate(keys)
            assert np.array_equal(sampler.draw(seed, 3, 40), outcomes(sampler, seed, 0, 43)[3:])
            # every sign flipped: the same squares, and the same sampler
            twin = Sampler(WalshSpectrum(n, -sampler.weights))
            assert (twin.n, twin.bits) == (sampler.n, sampler.bits)
            assert all(map(np.array_equal, twin.locate(keys), (a, lo, hi)))
        want = np.searchsorted(table, keys, side="right")
        assert a.dtype == np.intp and np.array_equal(a, want)
        assert np.array_equal(hi, table[want])
        assert np.array_equal(lo, np.where(want > 0, table[want - 1], 0))
        assert np.all(lo <= keys) and np.all(keys < hi)  # never a zero-weight outcome

    def test_locate_keeps_the_keys_shape(self):
        sampler = Sampler(fwht(random_function(6, np.random.default_rng(8))))
        keys = np.random.default_rng(9).integers(0, 4**6, (3, 5), dtype=np.uint64)
        a, lo, hi = sampler.locate(keys)
        assert a.shape == lo.shape == hi.shape == (3, 5)
        assert np.array_equal(a, sampler.locate(keys.ravel())[0].reshape(3, 5))
        assert np.array_equal(sampler.locate(keys.astype(np.uint32))[1], lo)

    def test_no_table_of_2_to_the_n_words(self):
        """The sampler and one count at n = 18 stay far below the 8 * 2^n
        bytes (2 MiB) of a uint64 cumulative table: at most 2^(n+1) bytes and
        512 KiB for one pass of squares, the guide's build and a batch of keys."""
        n = 18
        spectrum = fwht(planted_function(n, 0x2A5A5, 1 << 15, 18))
        tracemalloc.start()
        try:
            sampler = Sampler(spectrum)
            run, a, hits = sampler.count_runs(list(range(20)), 0, 6136, 96)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert set(a.tolist()) == {0x2A5A5} and run.tolist() == list(range(20))
        assert peak <= (1 << (n + 1)) + (1 << 19) < 8 << n
