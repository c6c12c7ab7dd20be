import csv
import hashlib
import io
import itertools
import math
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walshgl import (
    BitVector,
    BooleanFunction,
    VectorialFunction,
    fwht,
    heavy_set_exact,
    parse_anf,
    read_spectrum_binary,
    spectra,
    spectrum_to_csv,
    write_spectrum_binary,
)
from walshgl import MAX_N, CapacityError, derive_params, save_truth_table, search, walsh
from walshgl.cli import main
from walshgl.qsim import Sampler
from walshgl.walsh import WalshSpectrum, _fwht_packed, threshold_count, top_coefficients

from conftest import (EXAMPLE1_SPECTRUM, linear_function, planted_function, random_function,
                      random_vectorial)
from reference import (component, cumulative_weights, linear_approximation_table,
                       walsh_coefficient_naive)


def brute_force_spectrum(f: BooleanFunction) -> list[int]:
    """Definition-level oracle: no numpy, no butterfly."""
    out = []
    bits = f.bits.tolist()
    for a in range(1 << f.n):
        total = 0
        for x in range(1 << f.n):
            total += (-1) ** ((bin(a & x).count("1") & 1) ^ bits[x])
        out.append(total)
    return out


def butterfly_reference(arr: np.ndarray):
    """One full pass over the array per level, with a fresh temporary."""
    h = 1
    while h < arr.shape[0]:
        view = arr.reshape(-1, 2 * h)
        left, right = view[:, :h], view[:, h:]
        diff = left - right
        left += right
        right[:] = diff
        h *= 2


def reference_butterfly_int64(bits: np.ndarray) -> np.ndarray:
    """The spectrum of ``bits`` by the per-level butterfly in int64."""
    arr = 1 - 2 * bits.astype(np.int64)
    butterfly_reference(arr)
    return arr


class TestNaiveCoefficient:
    def test_constant_zero(self):
        f = BooleanFunction(3, [0] * 8)
        assert walsh_coefficient_naive(f, 0) == 8

    def test_example1_published_values(self, example1):
        assert walsh_coefficient_naive(example1, 0b1001) == 8
        assert walsh_coefficient_naive(example1, 0b1011) == -8

    def test_linear_is_a_delta(self):
        f = linear_function(5, 0b10110)
        for b in range(32):
            assert walsh_coefficient_naive(f, b) == (32 if b == 0b10110 else 0)

    def test_matches_definition_oracle(self):
        rng = np.random.default_rng(21)
        f = random_function(4, rng)
        expected = brute_force_spectrum(f)
        for a in range(16):
            assert walsh_coefficient_naive(f, a) == expected[a]


class TestFwht:
    def test_example1_exactly_four_nonzero(self, example1):
        spec = fwht(example1)
        for a in range(16):
            assert spec[a] == EXAMPLE1_SPECTRUM.get(a, 0)

    def test_constant_one_n3(self):
        spec = fwht(BooleanFunction(3, [1] * 8))
        assert spec.coeffs.tolist() == [-8, 0, 0, 0, 0, 0, 0, 0]

    def test_agrees_with_naive_on_random_functions(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            f = random_function(n, rng)
            spec = fwht(f)
            for a in range(1 << n):
                assert spec[a] == walsh_coefficient_naive(f, a)

    def test_butterfly_is_involution_up_to_scaling(self):
        """The spectrum transformed again is 2^n times the function's signs."""
        f = random_function(6, np.random.default_rng(8))
        twice = fwht(f).coeffs.astype(np.int64)
        butterfly_reference(twice)
        assert np.array_equal(twice, 64 * (1 - 2 * f.bits.astype(np.int64)))

    @given(st.integers(min_value=1, max_value=8), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_parseval_exact(self, n, pyrandom):
        rng = np.random.default_rng(pyrandom.getrandbits(32))
        spec = fwht(random_function(n, rng))
        assert spec.parseval_sum() == 4**n

    @given(
        st.integers(min_value=1, max_value=8),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_affine_shift(self, n, pyrandom):
        rng = np.random.default_rng(pyrandom.getrandbits(32))
        f = random_function(n, rng)
        c = int(rng.integers(0, 1 << n))
        d = int(rng.integers(0, 2))
        g = BooleanFunction(n, f.bits ^ linear_function(n, c).bits ^ d)
        sf, sg = fwht(f), fwht(g)
        for a in range(1 << n):
            assert sg[a] == (-1) ** d * sf[a ^ c]

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=13),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_blocked_butterfly_equals_per_level_loop(self, n, log_block, seed):
        rng = np.random.default_rng(seed)
        f = random_function(n, rng)
        with mock.patch.object(walsh, "_FWHT_BLOCK", 1 << log_block):
            got = _fwht_packed(f.packed, n)
            spec = fwht(f)
        assert got.dtype == np.int32 and not got.flags.writeable
        assert np.array_equal(got, reference_butterfly_int64(f.bits))
        assert np.array_equal(spec.coeffs, got)
        for a in rng.integers(0, 1 << n, size=3).tolist():
            assert spec[a] == walsh_coefficient_naive(f, a)

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=13),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_equal_one_dimensional_transform(self, k, rows, log_block, seed):
        """A (rows, bytes) array of packed truth tables is transformed row by
        row, also when a span of the block size holds several rows or ends
        inside the last one."""
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(rows, 1 << k), dtype=np.uint8)
        packed = np.packbits(bits, axis=1)
        with mock.patch.object(walsh, "_FWHT_BLOCK", 1 << log_block):
            one_by_one = [_fwht_packed(row, k) for row in packed]
            got = _fwht_packed(packed, k)
        assert got.shape == (rows, 1 << k)
        for row, alone, want in zip(got, one_by_one, bits):
            assert np.array_equal(row, reference_butterfly_int64(want))
            assert np.array_equal(alone, row)

    def test_rows_need_not_be_c_contiguous(self):
        """The kernel reads its input and writes a fresh array, so a strided
        view is transformed as its contiguous copy is."""
        packed = np.packbits(np.random.default_rng(4).integers(0, 2, (8, 32), dtype=np.uint8), axis=1)
        strided = packed.T.copy().T
        assert not strided.flags.c_contiguous
        assert np.array_equal(_fwht_packed(strided, 5), _fwht_packed(packed, 5))

    def test_parity_bound_and_magnitude(self):
        rng = np.random.default_rng(13)
        spec = fwht(random_function(6, rng))
        for a in range(64):
            w = spec[a]
            assert abs(w) <= 64
            assert w % 2 == 0


class TestComponentSpectrum:
    def test_identity_linear_component(self, identity_sbox3):
        spec = next(spectra(identity_sbox3, [0b010]))
        assert spec[0b010] == 8
        assert np.count_nonzero(spec.coeffs) == 1

    def test_zero_mask(self, identity_sbox3):
        spec = next(spectra(identity_sbox3, [0]))
        assert spec[0] == 8
        assert np.count_nonzero(spec.coeffs) == 1

    def test_lat_matches_naive_double_loop(self, nonlinear_sbox3):
        lat = linear_approximation_table(nonlinear_sbox3)
        table = nonlinear_sbox3.table
        for a in range(8):
            for b in range(8):
                total = 0
                for x in range(8):
                    sign = (bin(a & x).count("1") + bin(b & int(table[x])).count("1")) & 1
                    total += -1 if sign else 1
                assert lat[a, b] == total

    def test_aes_component_one_max_magnitude(self, aes_sbox):
        spec = next(spectra(aes_sbox, [0x01]))
        assert int(np.max(np.abs(spec.coeffs))) == 32
        # cross-check the extremal entry against the direct sum
        a = int(np.argmax(np.abs(spec.coeffs)))
        assert walsh_coefficient_naive(component(aes_sbox, 0x01), a) == spec[a]


    def test_aes_lat_bytes(self, aes_sbox):
        # digest of the int64 C-order LAT as computed one component at a time
        lat = linear_approximation_table(aes_sbox)
        assert lat.dtype == np.int64 and lat.shape == (256, 256)
        digest = hashlib.sha256(lat.tobytes(order="C")).hexdigest()
        assert digest == "94c9dc2882f6aafd0edd1a4a0eeeef56ca7d36b93d5ca7743d3deeaa16a886a7"


def check_spectra(F: VectorialFunction, masks: list, rng: np.random.Generator):
    """``spectra`` equals fwht of each component, in the order of ``masks``,
    and two of its coefficients per component equal the direct sum."""
    got = list(spectra(F, masks))
    assert len(got) == len(masks)
    for b, spectrum in zip(masks, got):
        boolean = component(F, b)
        assert np.array_equal(spectrum.coeffs, fwht(boolean).coeffs)
        for a in rng.integers(0, 1 << F.n, size=2).tolist():
            assert spectrum[a] == walsh_coefficient_naive(boolean, a)


class TestSpectra:
    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=16),
        st.lists(st.tuples(st.integers(min_value=0, max_value=2**16 - 1), st.booleans()),
                 max_size=40),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(10, 16, [(0xFFFF, False), (0x8100, True), (0x0100, False), (0x00FF, True), (0, False)],
             16)
    @settings(max_examples=60, deadline=None)
    def test_equals_fwht_of_each_component(self, n, m, draws, seed):
        """Masks in any order, repeated, 0 included, some as BitVectors; at
        n = 10 a batch holds 16 rows, so 40 masks span three batches.  Each
        drawn value is taken mod 2^m; from m = 9 on, a component's parity
        reads both bytes of each ``table & b``, which the explicit m = 16
        case always checks."""
        rng = np.random.default_rng(seed)
        F = random_vectorial(n, m, rng)
        masks = [BitVector(m, v % (1 << m)) if as_bits else v % (1 << m) for v, as_bits in draws]
        check_spectra(F, masks, rng)

    @pytest.mark.parametrize("n", [14, 15])
    def test_one_row_per_batch_from_n14(self, n, monkeypatch):
        shapes = []
        original = walsh._fwht_packed

        def recorded(packed, n):
            shapes.append(packed.shape[:-1] + (1 << n,))
            return original(packed, n)

        monkeypatch.setattr(walsh, "_fwht_packed", recorded)
        rng = np.random.default_rng(n)
        check_spectra(random_vectorial(n, 2, rng), [3, 0, BitVector(2, 1)], rng)
        # three batches of one row each, then the reference fwht of each component
        assert shapes == [(1, 1 << n)] * 3 + [(1 << n,)] * 3

    def test_one_row_at_n18_peaks_at_8_bytes_per_value(self):
        """The table is uint16, so the three temporaries of ``parity(table &
        b)`` hold 6 bytes per value; with a uint32 table one row at n = 18,
        m = 16 peaked at 12 bytes per value under tracemalloc."""
        n = 18
        F = random_vectorial(n, 16, np.random.default_rng(n))
        tracemalloc.start()
        try:
            (spectrum,) = spectra(F, [0xBEEF])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert spectrum.coeffs.shape == (1 << n,)
        assert peak <= 8 << n

    def test_boolean_target_is_its_own_spectrum(self, example1):
        (spectrum,) = spectra(example1, [None])
        assert np.array_equal(spectrum.coeffs, fwht(example1).coeffs)

    def test_mask_checked(self, identity_sbox3):
        with pytest.raises(ValueError):
            list(spectra(identity_sbox3, [8]))
        with pytest.raises(ValueError):
            list(spectra(identity_sbox3, [BitVector(2, 1)]))


class TestHeavySet:
    def test_example1_at_04(self, example1):
        heavy = heavy_set_exact(fwht(example1), "0.4")
        assert {v.value for v in heavy} == set(EXAMPLE1_SPECTRUM)

    def test_example1_at_06_empty(self, example1):
        assert heavy_set_exact(fwht(example1), "0.6") == set()

    def test_boundary_is_closed(self, example1):
        # |S| = 1/2 exactly must be included at epsilon = 1/2.
        heavy = heavy_set_exact(fwht(example1), Fraction(1, 2))
        assert {v.value for v in heavy} == set(EXAMPLE1_SPECTRUM)

    def test_float_epsilon_is_taken_exactly(self, example1):
        # float 0.5 is the dyadic 1/2, so the boundary still matches.
        heavy = heavy_set_exact(fwht(example1), 0.5)
        assert len(heavy) == 4

    def test_threshold_count_rounding(self):
        assert threshold_count(4, Fraction(2, 5)) == 7  # 6.4 -> 7
        assert threshold_count(4, Fraction(1, 2)) == 8  # exact
        assert threshold_count(3, Fraction(1, 1)) == 8

    @given(
        st.integers(min_value=1, max_value=8),
        st.fractions(min_value=Fraction(1, 10), max_value=1),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_parseval_counting_bound(self, n, eps, pyrandom):
        rng = np.random.default_rng(pyrandom.getrandbits(32))
        heavy = heavy_set_exact(fwht(random_function(n, rng)), eps)
        assert len(heavy) <= 1 / (eps * eps)

    @given(
        n=st.integers(min_value=1, max_value=8),
        eps=st.fractions(min_value=Fraction(1, 300), max_value=1),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_signed_comparison_equals_abs_rule(self, n, eps, data):
        """Coefficients at +-T and +-(T - 1) sit on both sides of the cut."""
        t = threshold_count(n, eps)
        near = st.sampled_from([t, -t, t - 1, 1 - t])
        coeffs = data.draw(st.lists(near | st.integers(-(1 << n), 1 << n),
                                    min_size=1 << n, max_size=1 << n))
        heavy = heavy_set_exact(WalshSpectrum(n, np.array(coeffs)), eps)
        assert {v.value for v in heavy} == set(np.flatnonzero(np.abs(coeffs) >= t).tolist())

    def test_epsilon_range_validated(self, example1):
        spec = fwht(example1)
        for bad in (0, -0.5, 1.5):
            with pytest.raises(ValueError):
                heavy_set_exact(spec, bad)


class TestAsEpsilon:
    @given(st.floats(min_value=5e-324, max_value=1))
    def test_float_strings_parse_exactly(self, x):
        assert walsh.as_epsilon(repr(x)) == Fraction(repr(x))

    def test_decimals_past_the_int_digit_limit_parse_exactly(self):
        zeros = "0" * 5000
        assert walsh.as_epsilon("0.4" + zeros) == Fraction(2, 5)
        assert walsh.as_epsilon("0.4" + zeros + "1") == Fraction(4 * 10**5001 + 1, 10**5002)

    def test_ratio_strings_parse(self):
        assert walsh.as_epsilon("2/5") == walsh.as_epsilon("0.4") == Fraction(2, 5)

    def test_ratios_past_the_int_digit_limit_parse_exactly(self):
        zeros = "0" * 5000
        assert walsh.as_epsilon(f"2{zeros}/5{zeros}") == Fraction(2, 5)
        assert walsh.as_epsilon(f" -2_0/-5{zeros} ") == Fraction(4, 10**5000)

    @pytest.mark.parametrize("value", ["2/0", "0/0", "-2/5", "5/2", "2/x", "/5", "1/2/3"])
    def test_ratio_outside_the_range_or_not_integers(self, value):
        with pytest.raises(ValueError, match=r"must be in \(0, 1\], got " + re.escape(value)):
            walsh.as_epsilon(value)

    @pytest.mark.parametrize("value,error,message", [
        ("1e-10000000", CapacityError, "epsilon=1e-10000000 is below the smallest positive float"),
        ("1e+10000000", ValueError, r"must be in \(0, 1\], got 1e\+10000000"),
        ("-1e-10000000", ValueError, "must be in"),
        ("0e-10000000", ValueError, "must be in"),
        ("0_0e-400", ValueError, "must be in"),  # zero, written with an underscore
        ("nan", ValueError, "must be in"),
    ])
    def test_beyond_the_float_range_without_the_exact_parse(self, value, error, message):
        with mock.patch.object(walsh, "Fraction", side_effect=AssertionError("exact parse")):
            with pytest.raises(error, match=message):
                walsh.as_epsilon(value)

    def test_not_a_number(self):
        with pytest.raises(ValueError, match=r"^Invalid literal for Fraction: 'abc'$"):
            walsh.as_epsilon("abc")

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_float_infinity_and_nan_are_out_of_range(self, value):
        with pytest.raises(ValueError, match=rf"^epsilon must be in \(0, 1\], got {value}$"):
            walsh.as_epsilon(value)


class TestExports:
    def test_csv_rows(self, example1):
        buf = io.BytesIO()
        spectrum_to_csv(fwht(example1), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == b"index,bitstring,W,S"
        assert len(lines) == 17
        assert b"9,1001,8,0.5" in lines
        assert b"11,1011,-8,-0.5" in lines

    def test_binary_roundtrip(self, tmp_path, example1):
        spec = fwht(example1)
        path = tmp_path / "spec.bin"
        with open(path, "wb") as out:
            write_spectrum_binary(spec, out)
        back = read_spectrum_binary(path)
        assert back.n == spec.n
        assert np.array_equal(back.coeffs, spec.coeffs)
        assert path.stat().st_size == 4 + 16 * 8

    def test_binary_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x02\x00\x00\x00" + b"\x00" * 7)
        with pytest.raises(ValueError):
            read_spectrum_binary(path)

    def test_binary_rejects_truncated_header(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"\x02\x00\x00")
        with pytest.raises(ValueError, match="truncated spectrum dump"):
            read_spectrum_binary(path)

    def test_binary_rejects_parseval_violation(self, tmp_path):
        # well-formed n=2 dump whose sum W^2 = 20, not 4^2 = 16
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"\x02\x00\x00\x00" + np.array([4, 2, 0, 0], dtype="<i8").tobytes())
        with pytest.raises(ValueError, match="Parseval"):
            read_spectrum_binary(path)

    @pytest.mark.parametrize("coeffs", [[2**32, 2], [2, -(2**32)], [3, 0], [0, -3]])
    def test_binary_rejects_coefficient_outside_range(self, tmp_path, coeffs):
        # [2^32, 2] passed Parseval when the uint64 square of 2^32 wrapped to 0
        path = tmp_path / "wide-coefficient.bin"
        path.write_bytes(b"\x01\x00\x00\x00" + np.array(coeffs, dtype="<i8").tobytes())
        with pytest.raises(ValueError, match=r"wide-coefficient\.bin: a coefficient lies outside"):
            read_spectrum_binary(path)

    @pytest.mark.parametrize("n", [0, 25, 2**32 - 1])
    def test_binary_header_outside_max_n(self, tmp_path, n):
        path = tmp_path / "wide.bin"
        path.write_bytes(n.to_bytes(4, "little") + b"\x00" * 64)
        with pytest.raises(CapacityError, match=f"outside 1..{MAX_N}"):
            read_spectrum_binary(path)

    def test_binary_rejects_trailing_bytes(self, tmp_path, example1):
        path = tmp_path / "long.bin"
        with open(path, "wb") as out:
            write_spectrum_binary(fwht(example1), out)
            out.write(b"\x00")
        with pytest.raises(ValueError, match="expected 128 coefficient bytes"):
            read_spectrum_binary(path)

    def test_binary_dump_holds_no_copy(self, tmp_path):
        """Writing adds no 2^n * 8-byte copy; reading holds one array plus
        the Parseval check's chunks."""
        spec = fwht(random_function(16, np.random.default_rng(3)))
        path = tmp_path / "s.bin"
        tracemalloc.start()
        try:
            with open(path, "wb") as out:
                write_spectrum_binary(spec, out)
            _, write_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            back = read_spectrum_binary(path)
            _, read_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.coeffs, spec.coeffs)
        assert write_peak < spec.coeffs.nbytes // 4
        assert read_peak < 2 * spec.coeffs.nbytes

    def test_csv_export_memory_is_a_few_chunks(self, tmp_path):
        """The one-point function at n = 20 ties every W but W(0) at +-2, so
        the tail table has 2^18 + 1 int32 slots.  Beside them the export
        holds about four chunk-sized arrays: the row matrix, its NUL mask,
        the bytes kept and the gathered tails; a 2^n int64 temporary (8 MiB)
        would not fit."""
        spec = spectrum_of_kind("one-point", 20, 1, 0)
        row = len("1048575,") + 20 + len(f",{(1 << 20) - 2},{((1 << 20) - 2) / 2**20!r}\n")
        with open(tmp_path / "s.csv", "wb") as out:
            tracemalloc.start()
            try:
                spectrum_to_csv(spec, out)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        lines = (tmp_path / "s.csv").read_bytes().splitlines()
        assert len(lines) == (1 << 20) + 1
        for a in (0, 1, (1 << 20) - 1):
            W = spec[a]
            assert lines[a + 1] == f"{a},{a:020b},{W},{W / 2**20!r}".encode()
        assert peak < 4 * walsh._CSV_CHUNK * row + 4 * ((1 << 18) + 1)

    def test_top_coefficients_order(self, example1):
        top = top_coefficients(fwht(example1), 5)
        assert [(v.value, w) for v, w in top[:4]] == [
            (9, 8),
            (11, -8),
            (12, 8),
            (14, 8),
        ]
        assert top[4][1] == 0

    def test_top_coefficients_hold_one_magnitude_copy(self):
        """One 2^n int64 copy of |W| beside the spectrum, plus the 2^n-byte
        candidate mask."""
        spec = fwht(random_function(20, np.random.default_rng(20)))
        tracemalloc.start()
        try:
            top = top_coefficients(spec, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [(int(a), w) for a, w in top] == top_coefficients_reference(spec, 8)
        assert peak <= 1.3 * spec.coeffs.nbytes

    @pytest.mark.parametrize("kind", ["constant", "one-point"])
    def test_top_coefficients_scan_only_the_ties_they_need(self, kind):
        """The constant function ties 2^n - 1 coefficients at 0 and the
        one-point function ties them at +-2: the ranking takes the first k - 1
        of them, not all 2^n."""
        spec = spectrum_of_kind(kind, 20, 1, 0)
        tracemalloc.start()
        try:
            top = top_coefficients(spec, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [(int(a), w) for a, w in top] == top_coefficients_reference(spec, 8)
        assert peak < 1.5 * spec.coeffs.nbytes

    def test_spectrum_shape_validated(self):
        with pytest.raises(ValueError):
            WalshSpectrum(3, np.zeros(7, dtype=np.int64))

    @pytest.mark.parametrize("n, value", [(1, 3), (1, -3), (4, 17), (4, -17), (1, 2**31)])
    def test_spectrum_refuses_coefficient_outside_range(self, n, value):
        coeffs = np.zeros(1 << n, dtype=np.int64)
        coeffs[-1] = value
        with pytest.raises(ValueError, match=rf"a coefficient lies outside \[-2\^{n}, 2\^{n}\]"):
            WalshSpectrum(n, coeffs)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.int32, np.int8])
    def test_spectrum_holds_int32_up_to_two_to_the_n(self, dtype):
        coeffs = np.array([4, 0, 0, 0], dtype=dtype)
        spec = WalshSpectrum(2, coeffs)
        assert spec.coeffs.dtype == np.int32 and not spec.coeffs.flags.writeable
        assert spec.coeffs.tolist() == [4, 0, 0, 0] and spec.parseval_sum() == 16
        assert coeffs.flags.writeable  # the caller's array is neither frozen nor aliased
        assert WalshSpectrum(2, [-4, 0, 0, 0]).coeffs.tolist() == [-4, 0, 0, 0]

    def test_spectrum_refuses_non_integers(self):
        with pytest.raises(ValueError, match="must be integers"):
            WalshSpectrum(1, np.array([2.0, 0.0]))


def tied_spectrum(n: int, distinct: int, seed: int) -> WalshSpectrum:
    """2^n integer coefficients drawn from a pool of ``distinct`` values in
    [-2^n, 2^n], so that most of them tie.  Parseval is not enforced."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(-(1 << n), (1 << n) + 1, size=distinct)
    return WalshSpectrum(n, rng.choice(pool, size=1 << n))


def top_coefficients_reference(spectrum: WalshSpectrum, k: int) -> list[tuple[int, int]]:
    """Full lexsort: larger |W| first, then the smaller encoding."""
    coeffs = spectrum.coeffs
    order = np.lexsort((np.arange(coeffs.shape[0]), -np.abs(coeffs)))
    return [(int(a), int(coeffs[a])) for a in order[:k]]


def spectrum_of_kind(kind: str, n: int, distinct: int, seed: int) -> WalshSpectrum:
    """A spectrum whose tails stress the CSV's tail table: ``tied_spectrum``,
    the constant function (W(0) = 2^n, every other W = 0), a one-point
    function at the last mask (W(0) = 2^n - 2, every other W = +-2), or
    values drawn from -2^n, -1, 0, 1 and 2^n."""
    scale = 1 << n
    if kind == "tied":
        return tied_spectrum(n, distinct, seed)
    if kind == "extremes":
        rng = np.random.default_rng(seed)
        return WalshSpectrum(n, rng.choice([-scale, -1, 0, 1, scale], size=scale))
    bits = np.zeros(scale, dtype=np.uint8)
    bits[-1] = kind == "one-point"
    return fwht(BooleanFunction(n, bits))


def csv_reference(spectrum: WalshSpectrum) -> str:
    """One csv.writer row per mask."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "bitstring", "W", "S"])
    scale = 1 << spectrum.n
    for a in range(scale):
        w = int(spectrum.coeffs[a])
        writer.writerow([a, format(a, f"0{spectrum.n}b"), w, repr(w / scale)])
    return buf.getvalue()


class TestExportsMatchReferences:
    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_top_coefficients_equal_full_sort(self, n, distinct, seed):
        spec = tied_spectrum(n, distinct, seed)
        size = 1 << n
        for k in range(-size - 1, size + 2):
            got = [(int(a), w) for a, w in top_coefficients(spec, k)]
            assert got == top_coefficients_reference(spec, k), k

    @given(
        st.integers(min_value=1, max_value=12),
        st.sampled_from(["tied", "constant", "one-point", "extremes"]),
        st.integers(min_value=1, max_value=40),
        st.sampled_from([1, 3, 5, 64, 10_000, 16_000, 64_000, 1 << 16]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_csv_equals_csv_writer(self, n, kind, distinct, chunk, seed):
        """Chunks of 10^4 rows repeat 4 low digits and 4 low bits, of
        16,000 rows 3 and 7, of 64,000 rows 3 and 9, and of one row none."""
        spec = spectrum_of_kind(kind, n, distinct, seed)
        buf = io.BytesIO()
        with mock.patch.object(walsh, "_CSV_CHUNK", chunk):
            spectrum_to_csv(spec, buf)
        # Compare row by row: a diff of two whole CSVs would be computed on
        # every failing example hypothesis tries while shrinking.
        rows = itertools.zip_longest(
            buf.getvalue().splitlines(keepends=True),
            csv_reference(spec).encode().splitlines(keepends=True),
        )
        assert next((pair for pair in rows if pair[0] != pair[1]), None) is None

    def test_csv_index_at_every_power_of_ten(self):
        """Each index below 10^k keeps only its last k digit columns; the
        rows on both sides of every 10^k at n = 20 show that rule."""
        n = 20
        spec = fwht(random_function(n, np.random.default_rng(20)))
        buf = io.BytesIO()
        spectrum_to_csv(spec, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        assert lines[0] == b"index,bitstring,W,S\n" and len(lines) == (1 << n) + 1
        for i in [0, *(10**k + d for k in range(1, 7) for d in (-1, 0)), (1 << n) - 1]:
            W = spec[i]
            assert lines[i + 1] == f"{i},{i:0{n}b},{W},{W / 2**n!r}\n".encode(), i

    @pytest.mark.parametrize(
        "n, chunks",
        [(1, [1, 2]), (14, [10_000, 1 << 16]), (17, [10_000, 64_000, 100_000, 1 << 16])],
    )
    def test_csv_across_index_widths(self, n, chunks):
        """Indices gain a digit at each 10^k, where a row keeps one more of
        its zero-padded digit columns.  Chunks of 10^4 or 10^5 rows put a
        chunk boundary right at 10^4 or 10^5; with 2^16 rows both fall
        inside a chunk, and 64,000 rows end the last chunk part-way through
        a run of 10^3.  At n = 1 the low half of the bitstring is empty."""
        rng = np.random.default_rng(n)
        scale = 1 << n
        coeffs = rng.integers(-scale, scale + 1, size=scale)
        # small |W| print S in exponent form; +-2^n and 0 give the shortest rows;
        # every special lies within +-2^n (12 is 2 at n = 1)
        special = rng.random(scale) < 0.2
        small = min(12, scale)
        coeffs[special] = rng.choice([-scale, -small, -1, 0, 1, small, scale], size=special.sum())
        spec = WalshSpectrum(n, coeffs)
        expected = csv_reference(spec).encode().splitlines(keepends=True)
        for chunk in chunks:
            buf = io.BytesIO()
            with mock.patch.object(walsh, "_CSV_CHUNK", chunk):
                spectrum_to_csv(spec, buf)
            rows = itertools.zip_longest(buf.getvalue().splitlines(keepends=True), expected)
            assert next((pair for pair in rows if pair[0] != pair[1]), None) is None, chunk


class TestHalfWidthSpectra:
    """int32 coefficients equal the int64 butterfly's, and |W| = 2^n, whose
    square overflows int32 and uint32 from n = 16, passes every site that
    squares, compares, divides or writes a coefficient."""

    @given(
        st.integers(min_value=1, max_value=16),
        st.sampled_from(["random", "zero", "one"]),
        st.integers(min_value=0, max_value=17),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_fwht_equals_int64_reference(self, n, kind, log_block, seed):
        """The constant functions reach W(0) = +-2^n; a block below the 8
        values of a byte is taken as 8."""
        bits = {"random": random_function(n, np.random.default_rng(seed)).bits,
                "zero": np.zeros(1 << n, dtype=np.uint8),
                "one": np.ones(1 << n, dtype=np.uint8)}[kind]
        with mock.patch.object(walsh, "_FWHT_BLOCK", 1 << log_block):
            spec = fwht(BooleanFunction(n, bits))
        assert spec.coeffs.dtype == np.int32
        assert np.array_equal(spec.coeffs, reference_butterfly_int64(bits))

    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=4),
        st.booleans(),
        st.integers(min_value=0, max_value=17),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_spectra_batches_equal_int64_reference(self, n, m, constant, log_block, seed):
        """Every component, b = 0 (W(0) = 2^n) included, of a random or a
        constant S-box, whose components b . v = 1 have W(0) = -2^n; the
        patched block sizes give one row per batch up to many."""
        rng = np.random.default_rng(seed)
        F = random_vectorial(n, m, rng)
        if constant:
            F = VectorialFunction(n, m, np.full(1 << n, F.table[0]))
        masks = list(range(1 << m))
        with mock.patch.object(walsh, "_FWHT_BLOCK", 1 << log_block):
            got = list(spectra(F, masks))
        for b, spec in zip(masks, got):
            assert spec.coeffs.dtype == np.int32
            assert np.array_equal(spec.coeffs, reference_butterfly_int64(component(F, b).bits))

    @pytest.mark.parametrize("kind", ["zero", "one", "planted"])
    def test_widest_coefficients_at_n17(self, tmp_path, capsys, kind):
        """W(0) = +-2^17 of the constant functions and W(a) = 2^17 - 2^14 of
        a planted function through the Parseval sum, the sampler table, the
        oracle search, the top line, the CSV and the dump."""
        n = 17
        a, w = {"zero": (0, 1 << n), "one": (0, -(1 << n)),
                "planted": (0x1A5A5, (1 << n) - (1 << 14))}[kind]
        f = {"zero": BooleanFunction(n, np.zeros(1 << n, dtype=np.uint8)),
             "one": BooleanFunction(n, np.ones(1 << n, dtype=np.uint8)),
             "planted": planted_function(n, a, 1 << 13, 17)}[kind]
        spec = fwht(f)
        assert spec.coeffs.dtype == np.int32 and spec[a] == w
        assert spec.parseval_sum() == 4**n
        sampler = Sampler(spec)
        assert int(cumulative_weights(sampler)[-1]) == 4**n
        assert sampler.locate(np.array([4**n - 1], dtype=np.uint64))[2].tolist() == [4**n]
        assert heavy_set_exact(spec, Fraction(abs(w), 1 << n)) == {BitVector(n, a)}

        result, report = search(f, derive_params("0.8", 0.5), 21, oracle=True)
        assert [(e.a, e.exact_s) for e in result.entries] == [(BitVector(n, a), w / 2**n)]
        assert report.complete and report.sound
        assert [e.exact_s for e in result.entries] == [{"zero": 1.0, "one": -1.0,
                                                       "planted": 0.875}[kind]]

        tt, out = tmp_path / "f.tt", tmp_path / "s.csv"
        save_truth_table(f, tt)
        assert main(["spectrum", "--tt", str(tt), "--out", str(out), "--top", "1"]) == 0
        top = [line for line in capsys.readouterr().out.splitlines() if line.startswith("top")]
        assert top == [f"top |S|: {a:017b}  W={w}  S={w / 2**n!r}"]
        with open(out) as fh:
            lines = fh.readlines()
        assert lines[1] == f"0,{0:017b},{spec[0]},{spec[0] / 2**n!r}\n"
        assert lines[a + 1] == f"{a},{a:017b},{w},{w / 2**n!r}\n"

        path = tmp_path / "s.bin"
        with open(path, "wb") as fh:
            write_spectrum_binary(spec, fh)
        assert np.fromfile(path, "<i8", offset=4)[a] == w
        back = read_spectrum_binary(path)
        assert back.coeffs.dtype == np.int32 and np.array_equal(back.coeffs, spec.coeffs)


class TestStageEdges:
    """Each int8 and int16 stage of ``_fwht_packed`` stops before a level
    could overflow it: after k levels |W| <= 2^k, and only the constant
    functions reach W(0) = +-2^k."""

    @pytest.mark.parametrize("n", [6, 7, 14, 15])
    @pytest.mark.parametrize("log_block", [0, 16])
    def test_constant_functions_reach_each_stage_edge(self, n, log_block):
        """W(0) = +-2^n reaches 64 and 128 (int8 holds 6 levels) and 16384
        and 32768 (int16 holds 14)."""
        with mock.patch.object(walsh, "_FWHT_BLOCK", 1 << log_block):
            for value, sign in ((0, 1), (1, -1)):
                f = BooleanFunction(n, np.full(1 << n, value, dtype=np.uint8))
                spec = fwht(f)
                assert spec[0] == sign << n
                assert np.count_nonzero(spec.coeffs) == 1
                (batch,) = spectra(VectorialFunction(n, 1, np.full(1 << n, value)), [1])
                assert np.array_equal(batch.coeffs, spec.coeffs)
