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
from hypothesis import given, settings
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
from walshgl import MAX_N, CapacityError, walsh
from walshgl.walsh import WalshSpectrum, fwht_inplace, threshold_count, top_coefficients

from conftest import EXAMPLE1_SPECTRUM, linear_function, random_function, random_vectorial
from reference import component, linear_approximation_table, walsh_coefficient_naive


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
        rng = np.random.default_rng(8)
        arr = 1 - 2 * rng.integers(0, 2, size=64).astype(np.int64)
        twice = arr.copy()
        fwht_inplace(twice)
        fwht_inplace(twice)
        assert np.array_equal(twice, 64 * arr)

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
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=13),
        st.sampled_from([1, 8, 1 << 13]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_blocked_butterfly_equals_per_level_loop(self, n, log_block, short, seed):
        rng = np.random.default_rng(seed)
        arr = rng.integers(-(1 << 20), 1 << 20, size=1 << n)
        expected = arr.copy()
        butterfly_reference(expected)
        with mock.patch.object(walsh, "_FWHT_BLOCK", 1 << log_block), \
                mock.patch.object(walsh, "_FWHT_SHORT", short):
            fwht_inplace(arr)
            assert arr.dtype == np.int64
            assert np.array_equal(arr, expected)
            if n:  # a Boolean function needs n >= 1
                f = random_function(n, rng)
                spec = fwht(f)
                for a in rng.integers(0, 1 << n, size=3).tolist():
                    assert spec[a] == walsh_coefficient_naive(f, a)

    @given(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=13),
        st.sampled_from([1, 8, 1 << 13]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_equal_one_dimensional_transform(self, k, rows, log_block, short, seed):
        """A (rows, 2^k) array is transformed row by row, also when a span
        of the block size holds several rows or ends inside the last one."""
        rng = np.random.default_rng(seed)
        arr = rng.integers(-(1 << 20), 1 << 20, size=(rows, 1 << k))
        expected = arr.copy()
        for row in expected:
            butterfly_reference(row)
        with mock.patch.object(walsh, "_FWHT_BLOCK", 1 << log_block), \
                mock.patch.object(walsh, "_FWHT_SHORT", short):
            one_by_one = arr.copy()
            for row in one_by_one:
                fwht_inplace(row)
            fwht_inplace(arr)
        assert np.array_equal(arr, expected)
        assert np.array_equal(one_by_one, expected)

    def test_rows_must_be_c_contiguous(self):
        arr = np.ones((8, 4), dtype=np.int64).T
        with pytest.raises(ValueError, match="C-contiguous"):
            fwht_inplace(arr)
        assert np.array_equal(arr, np.ones((4, 8)))

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
        st.integers(min_value=1, max_value=4),
        st.data(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_fwht_of_each_component(self, n, m, data, seed):
        """Masks in any order, repeated, 0 included, some as BitVectors; at
        n = 10 a batch holds 16 rows, so 40 masks span three batches."""
        rng = np.random.default_rng(seed)
        F = random_vectorial(n, m, rng)
        mask = st.integers(min_value=0, max_value=(1 << m) - 1)
        masks = data.draw(st.lists(mask | mask.map(lambda v: BitVector(m, v)), max_size=40))
        check_spectra(F, masks, rng)

    @pytest.mark.parametrize("n", [14, 15])
    def test_one_row_per_batch_from_n14(self, n, monkeypatch):
        shapes = []
        original = walsh.fwht_inplace

        def recorded(arr):
            shapes.append(arr.shape)
            original(arr)

        monkeypatch.setattr(walsh, "fwht_inplace", recorded)
        rng = np.random.default_rng(n)
        check_spectra(random_vectorial(n, 2, rng), [3, 0, BitVector(2, 1)], rng)
        # three batches of one row each, then the reference fwht of each component
        assert shapes == [(1, 1 << n)] * 3 + [(1 << n,)] * 3

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

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_float_infinity_and_nan_are_out_of_range(self, value):
        with pytest.raises(ValueError, match=rf"^epsilon must be in \(0, 1\], got {value}$"):
            walsh.as_epsilon(value)


class TestExports:
    def test_csv_rows(self, example1):
        buf = io.StringIO()
        spectrum_to_csv(fwht(example1), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "index,bitstring,W,S"
        assert len(lines) == 17
        assert "9,1001,8,0.5" in lines
        assert "11,1011,-8,-0.5" in lines

    def test_binary_roundtrip(self, tmp_path, example1):
        spec = fwht(example1)
        path = tmp_path / "spec.bin"
        write_spectrum_binary(spec, path)
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

    @pytest.mark.parametrize("n", [0, 25, 2**32 - 1])
    def test_binary_header_outside_max_n(self, tmp_path, n):
        path = tmp_path / "wide.bin"
        path.write_bytes(n.to_bytes(4, "little") + b"\x00" * 64)
        with pytest.raises(CapacityError, match=f"outside 1..{MAX_N}"):
            read_spectrum_binary(path)

    def test_binary_rejects_trailing_bytes(self, tmp_path, example1):
        path = tmp_path / "long.bin"
        write_spectrum_binary(fwht(example1), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="expected 128 coefficient bytes"):
            read_spectrum_binary(path)

    def test_binary_dump_holds_no_copy(self, tmp_path):
        """Writing adds no 2^n * 8-byte copy; reading holds one array plus
        the Parseval check's chunks."""
        spec = fwht(random_function(16, np.random.default_rng(3)))
        path = tmp_path / "s.bin"
        tracemalloc.start()
        try:
            write_spectrum_binary(spec, path)
            _, write_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            back = read_spectrum_binary(path)
            _, read_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.coeffs, spec.coeffs)
        assert write_peak < spec.coeffs.nbytes // 4
        assert read_peak < 2 * spec.coeffs.nbytes

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

    def test_spectrum_shape_validated(self):
        with pytest.raises(ValueError):
            WalshSpectrum(3, np.zeros(7, dtype=np.int64))


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
        st.integers(min_value=1, max_value=40),
        st.sampled_from([1, 3, 5, 64, 1 << 16]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_csv_equals_csv_writer(self, n, distinct, chunk, seed):
        spec = tied_spectrum(n, distinct, seed)
        buf = io.StringIO()
        with mock.patch.object(walsh, "_CSV_CHUNK", chunk):
            spectrum_to_csv(spec, buf)
        # Compare row by row: a diff of two whole CSVs would be computed on
        # every failing example hypothesis tries while shrinking.
        rows = itertools.zip_longest(
            buf.getvalue().splitlines(keepends=True),
            csv_reference(spec).splitlines(keepends=True),
        )
        assert next((pair for pair in rows if pair[0] != pair[1]), None) is None

    @pytest.mark.parametrize(
        "n, chunks",
        [(1, [1, 2]), (14, [10_000, 1 << 16]), (17, [10_000, 100_000, 1 << 16])],
    )
    def test_csv_across_index_widths(self, n, chunks):
        """Indices gain a digit at 10^4, where they split into a high part and
        four low digits, and again at 10^5.  Chunks of 10^4 or 10^5 rows put
        a chunk boundary right there; with 2^16 rows both fall inside a
        chunk.  At n = 1 the low half of the bitstring is empty."""
        rng = np.random.default_rng(n)
        scale = 1 << n
        coeffs = rng.integers(-scale, scale + 1, size=scale)
        # small |W| print S in exponent form; +-2^n and 0 give the shortest rows
        special = rng.random(scale) < 0.2
        coeffs[special] = rng.choice([-scale, -12, -1, 0, 1, 12, scale], size=special.sum())
        spec = WalshSpectrum(n, coeffs)
        expected = csv_reference(spec).splitlines(keepends=True)
        for chunk in chunks:
            buf = io.StringIO()
            with mock.patch.object(walsh, "_CSV_CHUNK", chunk):
                spectrum_to_csv(spec, buf)
            rows = itertools.zip_longest(buf.getvalue().splitlines(keepends=True), expected)
            assert next((pair for pair in rows if pair[0] != pair[1]), None) is None, chunk
