import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walshgl import (
    BitVector,
    BooleanFunction,
    CapacityError,
    ParseError,
    VectorialFunction,
    load_sbox,
    load_truth_table,
    parse_anf,
    parse_sbox,
    parse_truth_table,
    save_sbox,
    save_truth_table,
    serialize_truth_table,
)
from walshgl.boolfn import (
    _HEX_NIBBLE, MAX_N, _check_n, _digit_table, _mobius_packed, _tokenize_anf, parity,
    read_integer, write_digits,
)

from conftest import EXAMPLE1_ANF, random_function
from reference import anf_monomials, bit_parity, component, mobius_transform, serialize_anf


class TestBitVector:
    def test_msb_first_encoding(self):
        # "1001" reads left to right as (x1, x2, x3, x4); x1 is the MSB.
        v = BitVector.parse("1001")
        assert v.n == 4
        assert v.value == 9
        assert tuple(v.value >> (v.n - 1 - i) & 1 for i in range(v.n)) == (1, 0, 0, 1)
        assert str(v) == "1001"

    @given(st.integers(min_value=1, max_value=16), st.data())
    def test_encode_decode_roundtrip(self, n, data):
        value = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        v = BitVector(n, value)
        assert BitVector.parse(str(v)) == v
        assert int(v) == value

    def test_hex_parse(self):
        assert BitVector.parse("0x9", n=4) == BitVector(4, 9)
        with pytest.raises(ParseError):
            BitVector.parse("0x9")  # needs a length

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BitVector(3, 8)
        with pytest.raises(ValueError):
            BitVector(0, 0)
        with pytest.raises(ParseError):
            BitVector.parse("10a1")

    def test_invalid_hex_rejected(self):
        with pytest.raises(ParseError, match=r"^invalid hex bit vector '0xzz'$"):
            BitVector.parse("0xzz", n=4)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ParseError, match=r"^bit vector '101' has length 3, expected 4$"):
            BitVector.parse("101", n=4)


# ASCII, Arabic-Indic and full-width decimal digits; int() reads all three
SCRIPTS = ["0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
           "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19"]
# int() strips these but \x1c-\x1f, which str.isspace() also counts
SPACES = " \t\n\v\f\r\x1c\x1f\x85\xa0\u3000"


def in_script(digits: str, script: str) -> str:
    return digits.translate(str.maketrans("0123456789", script))


@st.composite
def integer_like_texts(draw):
    """Text near the shape of an int() literal: whitespace, signs, digits of
    three scripts and underscores, single or doubled, now and then with one
    stray character."""
    groups = draw(st.lists(st.text(st.sampled_from("".join(SCRIPTS)), max_size=6),
                           min_size=1, max_size=3))
    spaces = st.text(st.sampled_from(SPACES), max_size=2)
    text = (draw(spaces) + draw(st.sampled_from(["", "+", "-", "+-", "_"]))
            + draw(st.sampled_from(["_", "__"])).join(groups) + draw(spaces))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from("x.e/ \x00\u00b2")) + text[at:]
    return text


def int_or_none(text: str) -> int | None:
    try:
        return int(text)
    except ValueError:
        return None


class TestReadInteger:
    @given(st.one_of(integer_like_texts(), st.text(max_size=8)))
    @example("\x1c5")
    @example("5\x85")
    def test_reads_what_int_reads(self, text):
        assert read_integer(text) == int_or_none(text)

    @given(st.integers(-(10**4300) + 1, 10**4300 - 1), st.sampled_from(SCRIPTS),
           st.sampled_from(["", "+"]), st.text(st.sampled_from(SPACES[:6]), max_size=2))
    @settings(max_examples=50)
    def test_literals_up_to_the_int_digit_limit(self, value, script, plus, space):
        text = space + ("-" if value < 0 else plus) + in_script(str(abs(value)), script) + space
        assert int(text) == value
        assert read_integer(text) == value

    @given(st.integers(1, 9), st.integers(4300, 6000), st.sampled_from(SCRIPTS))
    @settings(max_examples=20)
    def test_exact_past_the_int_digit_limit(self, head, zeros, script):
        text = f" -{in_script(str(head) + '0' * zeros, script)}_0 "
        assert int_or_none(text) is None
        assert read_integer(text) == -head * 10 ** (zeros + 1)


class TestWriteBitstrings:
    @given(st.integers(1, MAX_N).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), min_size=1))
    ))
    @example((1, [0, 1, 1]))  # the low half is empty
    def test_rows_equal_bitvector_strings(self, case):
        n, values = case
        rows = np.full((len(values), n + 2), ord("|"), dtype=np.uint8)
        write_digits(rows[:, 1:-1], np.array(values), 2)  # a column view, as the callers pass
        lines = [row.tobytes().decode("ascii") for row in rows]
        assert lines == [f"|{BitVector(n, v)}|" for v in values]

    @given(st.integers(1, 8).flatmap(
        lambda width: st.tuples(st.just(width),
                                st.lists(st.integers(0, 10**width - 1), min_size=1))
    ))
    @example((1, [0, 9]))  # the low half is empty
    @example((8, [0, 9_999, 10_000, 99_999_999]))  # the halves' edges at n = 24's width
    def test_rows_equal_zero_padded_decimals(self, case):
        width, values = case
        rows = np.full((len(values), width + 2), ord("|"), dtype=np.uint8)
        write_digits(rows[:, 1:-1], np.array(values), 10)
        lines = [row.tobytes().decode("ascii") for row in rows]
        assert lines == [f"|{v:0{width}d}|" for v in values]

    @pytest.mark.parametrize("base, width", [(2, 12), (10, 4)])
    def test_digit_table_is_built_once_and_read_only(self, base, width):
        table = _digit_table(base, width)
        assert _digit_table(base, width) is table
        assert table.shape == (base**width, width) and not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = ord("1")
        assert table[0].tobytes() == b"0" * width


class TestParseAnf:
    def test_example1_point_values(self):
        f = parse_anf(EXAMPLE1_ANF)
        assert f.n == 4
        assert f.bits[BitVector.parse("1000").value] == 1
        assert f.bits[BitVector.parse("0110").value] == 0

    def test_constant_one_any_n(self):
        for n in (1, 3, 6):
            f = parse_anf("1", n=n)
            assert f.bits.tolist() == [1] * (1 << n)

    def test_and_gate(self):
        f = parse_anf("x1*x2", n=2)
        assert f.bits.tolist() == [0, 0, 0, 1]

    def test_n_inferred_from_largest_index(self):
        assert parse_anf("x3").n == 3
        assert parse_anf("x3", n=5).n == 5

    def test_duplicate_monomials_cancel(self):
        assert parse_anf("x1+x1", n=1).bits.tolist() == [0, 0]
        assert parse_anf("x1+x2+x1", n=2) == parse_anf("x2", n=2)

    def test_repeated_variable_is_idempotent(self):
        assert parse_anf("x1*x1", n=1) == parse_anf("x1", n=1)

    def test_zero_constant(self):
        assert parse_anf("0", n=2).bits.tolist() == [0, 0, 0, 0]

    def test_whitespace_tolerated(self):
        assert parse_anf(" x1 + x2 * x3 ") == parse_anf("x1+x2*x3")

    @pytest.mark.parametrize(
        "text",
        ["", "x1+", "*x1", "x1**x2", "x1 x2", "1*x2", "x0", "x25", "y1", "x1+@"],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(ParseError):
            parse_anf(text)

    def test_error_position_reported(self):
        with pytest.raises(ParseError) as exc:
            parse_anf("x1+&x2")
        assert exc.value.position == 4

    def test_constant_needs_n(self):
        with pytest.raises(ParseError):
            parse_anf("1")

    def test_n_override_too_small(self):
        with pytest.raises(ParseError):
            parse_anf("x4", n=3)


class TestAnfRoundTrip:
    def test_example1_serialization(self):
        f = parse_anf(EXAMPLE1_ANF)
        assert serialize_anf(f) == EXAMPLE1_ANF

    def test_zero_function(self):
        z = BooleanFunction(2, [0, 0, 0, 0])
        assert serialize_anf(z) == "0"
        assert parse_anf("0", n=2) == z

    @given(st.integers(min_value=1, max_value=10), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_parse_serialize_identity(self, n, pyrandom):
        rng = np.random.default_rng(pyrandom.getrandbits(32))
        f = random_function(n, rng)
        assert parse_anf(serialize_anf(f), n=n) == f

    def test_mobius_is_involution(self):
        rng = np.random.default_rng(7)
        f = random_function(6, rng)
        assert np.array_equal(mobius_transform(mobius_transform(f.bits)), f.bits)

    def test_anf_monomials_match_example(self):
        f = parse_anf(EXAMPLE1_ANF)
        assert sorted(anf_monomials(f)) == sorted([0b1000, 0b0100, 0b0110, 0b0011])


class TestTruthTableHex:
    def test_single_point(self):
        f = parse_truth_table("8", 2)
        assert f.bits.tolist() == [1, 0, 0, 0]

    def test_xor_of_two(self):
        f = parse_truth_table("6", 2)
        g = parse_anf("x1+x2")
        assert f == g

    def test_roundtrip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            h = "".join(rng.choice(list("0123456789abcdef"), size=64))
            assert serialize_truth_table(parse_truth_table(h, 8)) == h

    def test_n1(self):
        f = parse_truth_table("4", 1)  # bits 01, padded with two zeros
        assert f.bits.tolist() == [0, 1]
        assert serialize_truth_table(f) == "4"

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_truth_table("88", 2)  # too long
        with pytest.raises(ParseError):
            parse_truth_table("8g", 3)
        with pytest.raises(ParseError):
            parse_truth_table("5", 1)  # nonzero padding


def serialize_reference(f):
    """The per-nibble rule: bits zero-padded to a multiple of 4, one hex
    digit per 4 bits, MSB first."""
    bits = f.bits.tolist()
    bits += [0] * (-len(bits) % 4)
    return "".join(
        format(8 * bits[i] + 4 * bits[i + 1] + 2 * bits[i + 2] + bits[i + 3], "x")
        for i in range(0, len(bits), 4)
    )


class TestSerializeMatchesNibbleRule:
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), density=st.floats(0, 1))
    @settings(max_examples=150, deadline=None)
    def test_random_tables(self, n, seed, density):
        rng = np.random.default_rng(seed)
        f = BooleanFunction(n, (rng.random(1 << n) < density).astype(np.uint8))
        text = serialize_truth_table(f)
        assert text == serialize_reference(f)
        assert parse_truth_table(text, n) == f


class TestParseSbox:
    def test_identity(self):
        F = parse_sbox("0 1 2 3 4 5 6 7", 3, 3)
        assert F.table.tolist() == list(range(8))

    def test_commas_and_hex(self):
        F = parse_sbox("0,1,3,0x2", 2, 2)
        assert F.table[BitVector.parse("10").value] == 3

    def test_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_sbox("0 1 2", 2, 2)

    def test_value_out_of_range(self):
        with pytest.raises(ParseError) as exc:
            parse_sbox("0 1 2 4", 2, 2)
        assert "index 3" in str(exc.value)

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_sbox("0 1 two 3", 2, 2)

    def test_bad_hex_token(self):
        with pytest.raises(ParseError, match=r"^invalid integer '0xzz' at value 2$"):
            parse_sbox("0 1 0xzz 3", 2, 2)

    def test_decimal_past_the_int_digit_limit_is_out_of_range(self):
        long = "1" + "0" * 5000
        with pytest.raises(ParseError) as exc:
            parse_sbox(f"0 {long}", 1, 4)
        assert str(exc.value) == f"value {long} at index 1 not in [0, 2^4)"


class TestParity:
    @pytest.mark.parametrize("dtype", [np.uint16, np.uint32, np.uint64])
    def test_every_value_below_2_16_equals_shift_xor(self, dtype):
        """Components hand ``parity`` uint16 values, ``apply_uip`` uint64;
        uint32 is checked too.  A table read at the low byte alone is wrong
        from 256 on."""
        values = np.arange(1 << 16, dtype=dtype)
        got = parity(values)
        assert got.dtype == np.uint8
        assert np.array_equal(got, bit_parity(values))


class TestComponent:
    def test_zero_mask_gives_zero_function(self):
        rng = np.random.default_rng(5)
        F = VectorialFunction(3, 3, rng.integers(0, 8, size=8))
        assert component(F, 0).bits.tolist() == [0] * 8

    def test_identity_unit_vectors_project_coordinates(self):
        F = VectorialFunction(3, 3, list(range(8)))
        for i in range(3):
            b = BitVector(3, 1 << (2 - i))  # e_{i+1}
            comp = component(F, b)
            for x in range(8):
                assert comp.bits[x] == (x >> (2 - i)) & 1

    def test_all_ones_mask_is_entry_parity(self):
        rng = np.random.default_rng(9)
        table = rng.integers(0, 8, size=8)
        F = VectorialFunction(3, 3, table)
        comp = component(F, BitVector.parse("111"))
        for x in range(8):
            assert comp.bits[x] == bin(int(table[x])).count("1") % 2

    def test_length_mismatch(self):
        F = VectorialFunction(3, 3, list(range(8)))
        with pytest.raises(ValueError):
            component(F, BitVector.parse("11"))

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_component_is_linear_in_mask(self, n, m, pyrandom):
        rng = np.random.default_rng(pyrandom.getrandbits(32))
        F = VectorialFunction(n, m, rng.integers(0, 1 << m, size=1 << n))
        b1 = int(rng.integers(0, 1 << m))
        b2 = int(rng.integers(0, 1 << m))
        lhs = component(F, b1 ^ b2).bits
        rhs = component(F, b1).bits ^ component(F, b2).bits
        assert np.array_equal(lhs, rhs)


class TestTypesAndFiles:
    def test_truth_table_length_enforced(self):
        with pytest.raises(ValueError):
            BooleanFunction(2, [0, 1, 0])

    @pytest.mark.parametrize("value", [-1, 2**40])
    def test_out_of_range_entries_raise_value_error(self, value):
        # checked before narrowing, so neither wraps nor overflows the cast
        with pytest.raises(ValueError, match="0 or 1"):
            BooleanFunction(1, [value, 0])
        with pytest.raises(ValueError, match=f"index 0 is {value}, not in"):
            VectorialFunction(2, 2, [value, 0, 0, 0])
        with pytest.raises(ValueError, match=f"index 2 is {value}, not in"):
            VectorialFunction(2, 2, np.array([0, 1, value, 3]))

    @pytest.mark.parametrize("dtype", [np.float64, np.float16, np.complex128])
    def test_float_tables_are_refused_not_truncated(self, dtype):
        """A fraction would be dropped by the narrowing; a whole-valued float
        table is refused too, by its dtype."""
        message = f"must be integers, got {np.dtype(dtype)}"
        with pytest.raises(ValueError, match=message):
            BooleanFunction(1, np.array([0.5, 1], dtype=dtype))
        with pytest.raises(ValueError, match=message):
            BooleanFunction(1, np.array([0, 1], dtype=dtype))
        with pytest.raises(ValueError, match=message):
            VectorialFunction(2, 2, np.array([1, 2.5, 0, 3], dtype=dtype))

    def test_wrong_table_length(self):
        with pytest.raises(
            ValueError, match=r"^lookup table must have exactly 2\^3 = 8 entries, got \(7,\)$"
        ):
            VectorialFunction(3, 2, [0] * 7)

    def test_capacity_caps(self):
        with pytest.raises(CapacityError):
            BooleanFunction(25, np.zeros(2, dtype=np.uint8))
        with pytest.raises(CapacityError):
            VectorialFunction(2, 17, [0, 0, 0, 0])

    def test_evaluation_is_pure_and_bits_readonly(self):
        f = parse_anf("x1*x2", n=2)
        assert [f.bits[3], f.bits[3], f.bits[3]] == [1, 1, 1]
        with pytest.raises(ValueError):
            f.bits[0] = 1

    def test_tt_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        f = random_function(5, rng)
        path = tmp_path / "f.tt"
        save_truth_table(f, path)
        assert load_truth_table(path) == f

    def test_sbox_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        F = VectorialFunction(4, 3, rng.integers(0, 8, size=16))
        path = tmp_path / "F.sbox"
        save_sbox(F, path)
        assert load_sbox(path) == F

    def test_malformed_headers(self, tmp_path):
        bad_tt = tmp_path / "bad.tt"
        bad_tt.write_text("m=4\ndead\n")
        with pytest.raises(ParseError):
            load_truth_table(bad_tt)
        bad_sbox = tmp_path / "bad.sbox"
        bad_sbox.write_text("n=2\n0 1 2 3\n")
        with pytest.raises(ParseError):
            load_sbox(bad_sbox)

    def test_aes_sbox_fixture(self, aes_sbox):
        assert (aes_sbox.n, aes_sbox.m) == (8, 8)
        assert aes_sbox.table[0x00] == 0x63
        assert aes_sbox.table[0x53] == 0xED


def anf_reference(monomials: list[str], n: int) -> np.ndarray:
    """Truth table by the per-monomial rule: XOR-cancel duplicate masks, then
    XOR in each surviving monomial's indicator (idx & mask) == mask."""
    parity_count: dict[int, int] = {}
    for mono in monomials:
        if mono == "0":
            continue
        mask = 0
        if mono != "1":
            for var in mono.split("*"):
                mask |= 1 << (n - int(var[1:]))
        parity_count[mask] = parity_count.get(mask, 0) ^ 1
    idx = np.arange(1 << n, dtype=np.uint32)
    bits = np.zeros(1 << n, dtype=np.uint8)
    for mask, keep in parity_count.items():
        if keep:
            bits ^= (idx & np.uint32(mask)) == np.uint32(mask)
    return bits


@st.composite
def anf_monomial_lists(draw):
    """(n, monomials): products may repeat a variable, the list may repeat a
    monomial, and the constants 1 and 0 occur."""
    n = draw(st.integers(min_value=1, max_value=10))
    product = st.lists(st.integers(min_value=1, max_value=n), min_size=1, max_size=4).map(
        lambda vs: "*".join(f"x{v}" for v in vs)
    )
    pool = draw(st.lists(st.one_of(st.sampled_from(["0", "1"]), product), min_size=1, max_size=8))
    monomials = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=24))
    return n, monomials


class TestAnfMatchesMonomialRule:
    @given(anf_monomial_lists())
    @settings(max_examples=150, deadline=None)
    def test_parse_anf_equals_per_monomial_rule(self, case):
        n, monomials = case
        f = parse_anf(" + ".join(monomials), n=n)
        assert np.array_equal(f.bits, anf_reference(monomials, n))


def parse_anf_reference(text: str, n: int | None = None) -> BooleanFunction:
    """``parse_anf`` as a hand-written four-state machine: the parser the
    transition table replaced, kept verbatim as the reference for its
    values, messages and positions."""
    tokens = list(_tokenize_anf(text))
    if not tokens:
        raise ParseError("empty ANF expression", position=1)

    monomials: list[tuple[tuple[int, ...], int]] = []  # (sorted var indices, pos)
    max_index = 0
    expect = "monomial"
    current: list[int] = []
    current_pos = 0
    current_const: str | None = None

    def flush():
        nonlocal current, current_const
        if current_const is None:
            monomials.append((tuple(sorted(set(current))), current_pos))
        elif current_const == "1":
            monomials.append(((), current_pos))
        # "0" contributes nothing
        current = []
        current_const = None

    for kind, lexeme, pos in tokens:
        if expect == "monomial":
            current_pos = pos
            if kind == "var":
                idx = int(lexeme)
                if idx == 0 or idx > MAX_N:
                    raise ParseError(
                        f"variable index {idx} outside 1..{MAX_N}", position=pos
                    )
                current = [idx]
                max_index = max(max_index, idx)
                expect = "after_factor"
            elif kind == "const":
                current_const = lexeme
                expect = "after_const"
            else:
                raise ParseError(f"expected a monomial, got {lexeme!r}", position=pos)
        elif expect == "after_factor":
            if kind == "*":
                expect = "factor"
            elif kind == "+":
                flush()
                expect = "monomial"
            else:
                raise ParseError(f"expected '+' or '*', got {lexeme!r}", position=pos)
        elif expect == "after_const":
            if kind == "+":
                flush()
                expect = "monomial"
            else:
                raise ParseError(
                    "constant monomials cannot be multiplied", position=pos
                )
        elif expect == "factor":
            if kind != "var":
                raise ParseError("expected a variable after '*'", position=pos)
            idx = int(lexeme)
            if idx == 0 or idx > MAX_N:
                raise ParseError(f"variable index {idx} outside 1..{MAX_N}", position=pos)
            current.append(idx)
            max_index = max(max_index, idx)
            expect = "after_factor"

    if expect in ("monomial", "factor"):
        raise ParseError("expression ends with a dangling operator", position=len(text))
    flush()

    if n is None:
        if max_index == 0:
            raise ParseError(
                "cannot infer variable count from a constant expression; pass n"
            )
        n = max_index
    if max_index > n:
        raise ParseError(f"variable x{max_index} exceeds declared n={n}")
    _check_n(n)

    # XOR-cancel duplicate monomials into the ANF coefficients, then take
    # the truth table with one (self-inverse) Moebius transform.
    coeffs = np.zeros(1 << n, dtype=np.uint8)
    for vars_, _pos in monomials:
        mask = 0
        for idx in vars_:
            mask |= 1 << (n - idx)
        coeffs[mask] ^= 1
    return BooleanFunction(n, mobius_transform(coeffs))


# Token fragments: in- and out-of-range variables, variables spelled with
# Arabic-Indic and full-width digits, constants, operators, Unicode
# whitespace, and characters the tokenizer rejects (a superscript digit
# passes str.isdigit but not the regex's \d).
ANF_FRAGMENTS = [
    "x1", "x2", "x3", "x12", "x0", "x25", "x99", "x\u0661", "x1\u0662", "x\uff13",
    "0", "1", "01", "7", "\u00b2", "\uff11", "+", "*", "*", "+",
    " ", "\t", "\u3000", "\u00a0", "\x1c", "x", "&", "y",
]


def anf_outcome(parse, text: str, n: int | None):
    """(n, packed bits), or the exception's type, message and position."""
    try:
        f = parse(text, n)
    except (ParseError, CapacityError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return f.n, f.packed.tobytes()


class TestAnfMatchesStateMachine:
    @given(
        st.lists(st.sampled_from(ANF_FRAGMENTS), max_size=12).map("".join),
        st.one_of(st.none(), st.integers(min_value=0, max_value=12), st.just(25)),
    )
    @settings(max_examples=400, deadline=None)
    def test_random_token_strings(self, text, n):
        assert anf_outcome(parse_anf, text, n) == anf_outcome(parse_anf_reference, text, n)

    @pytest.mark.parametrize("text", ["x1+x2*x3", "1+x1*x1", "0", "x1 x2", "x1+*", "x0*",
                                      "1*x1", "x2+0+1", "x\u0661+x\uff13*x2", "x1+x25"])
    def test_fixed_strings(self, text):
        for n in (None, 0, 3, 25):
            assert anf_outcome(parse_anf, text, n) == anf_outcome(parse_anf_reference, text, n)


def truth_table_reference(hex_text: str, n: int) -> np.ndarray:
    """Bits by the per-character rule: length first, then the first
    character outside 0-9a-fA-F, then ``int(c, 16)`` per digit and zero
    padding beyond 2^n."""
    _check_n(n)
    text = hex_text.strip()
    nbits = 1 << n
    expected = (nbits + 3) // 4
    if len(text) != expected:
        raise ParseError(f"hex truth table for n={n} needs {expected} digits, got {len(text)}")
    for i, c in enumerate(text):
        if c not in "0123456789abcdefABCDEF":
            raise ParseError(f"non-hex character {c!r}", position=i + 1)
    bits = [(int(c, 16) >> shift) & 1 for c in text for shift in (3, 2, 1, 0)]
    if any(bits[nbits:]):
        raise ParseError("padding bits beyond 2^n must be zero")
    return np.array(bits[:nbits], dtype=np.uint8)


def outcome(parse, text: str, n: int):
    """The bits, or the exception's type, message and position."""
    try:
        return parse(text, n).tolist()
    except ParseError as exc:
        return type(exc), str(exc), exc.position


# Not hex: letters past f, whitespace, "?" (what a non-ASCII character
# encodes to under "replace"), a non-ASCII letter, a full-width digit that
# int(c, 16) accepts, a lone surrogate and NUL.
BAD_HEX = list("ghijklmnopqrstuvwxyzGXZ \t\n?") + ["\u00e9", "\uff18", "\ud800", "\x00"]


@st.composite
def hex_lines(draw, bad: bool):
    """(n, line): a hex line of the right length in mixed case; with ``bad``,
    one to three of its characters are replaced by non-hex ones."""
    n = draw(st.integers(min_value=1, max_value=10))
    size = ((1 << n) + 3) // 4
    chars = draw(st.lists(st.sampled_from("0123456789abcdefABCDEF"), min_size=size, max_size=size))
    if bad:
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            chars[draw(st.integers(0, len(chars) - 1))] = draw(st.sampled_from(BAD_HEX))
    return n, "".join(chars)


def parsed_bits(text: str, n: int) -> np.ndarray:
    return parse_truth_table(text, n).bits


class TestTruthTableMatchesCharacterRule:
    @given(hex_lines(bad=False))
    @settings(max_examples=150, deadline=None)
    def test_valid_lines(self, case):
        n, line = case
        assert outcome(parsed_bits, line, n) == outcome(truth_table_reference, line, n)

    @given(hex_lines(bad=True))
    @settings(max_examples=300, deadline=None)
    def test_bad_characters(self, case):
        n, line = case
        assert outcome(parsed_bits, line, n) == outcome(truth_table_reference, line, n)

    @pytest.mark.parametrize("bad", BAD_HEX)
    def test_bad_character_at_each_position(self, bad):
        for position in range(1, 9):
            line = "0123abcd"[: position - 1] + bad + "Cd89eF0"[: 8 - position]
            assert outcome(parsed_bits, line, 5) == outcome(truth_table_reference, line, 5)

    def test_padding_at_n1_n2(self):
        for n in (1, 2):
            for digit in "0123456789abcdefABCDEF":
                assert outcome(parsed_bits, digit, n) == outcome(truth_table_reference, digit, n)
        # n=1 reads the top two bits of its digit and n=2 all four
        assert [d for d in "0123456789abcdef" if isinstance(outcome(parsed_bits, d, 1), list)] \
            == list("048c")
        assert all(isinstance(outcome(parsed_bits, d, 2), list) for d in "0123456789abcdef")


def unpacked_parse(hex_text: str, n: int) -> BooleanFunction:
    """The parse by one byte per value: each nibble unpacked to four bits,
    the padding checked on the bits, and the bits packed again by the
    public constructor."""
    n = _check_n(n)
    text = hex_text.strip()
    nbits = 1 << n
    expected = (nbits + 3) // 4
    if len(text) != expected:
        raise ParseError(f"hex truth table for n={n} needs {expected} digits, got {len(text)}")
    nibbles = _HEX_NIBBLE[np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)]
    bad = np.flatnonzero(nibbles > 15)
    if bad.size:
        i = int(bad[0])
        raise ParseError(f"non-hex character {text[i]!r}", position=i + 1)
    bits = np.unpackbits(nibbles[:, None] << 4, axis=1, count=4).reshape(-1)
    if bits[nbits:].any():
        raise ParseError("padding bits beyond 2^n must be zero")
    return BooleanFunction(n, bits[:nbits])


def parse_outcome(parse, text: str, n: int):
    """The function with its hash, or the exception's type, message and
    position."""
    try:
        f = parse(text, n)
    except ParseError as exc:
        return type(exc), str(exc), exc.position
    return f, hash(f)


class TestPackedParseMatchesUnpackedPath:
    """``parse_truth_table`` packs pairs of hex digits straight into bytes;
    it gives the unpacked path's function (equal and with an equal hash)
    or its error, message and position alike."""

    @given(
        st.integers(min_value=1, max_value=12),
        st.sampled_from([0, 0, 0, -1, 1, 2]),
        st.integers(min_value=0, max_value=3),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_lines(self, n, extra, bad, data):
        """Lines of the right length or one or two digits off, with up to
        three non-hex characters, ASCII or not."""
        size = max(((1 << n) + 3) // 4 + extra, 0)
        hexdigit = st.sampled_from("0123456789abcdefABCDEF")
        chars = data.draw(st.lists(hexdigit, min_size=size, max_size=size))
        for _ in range(bad if chars else 0):
            chars[data.draw(st.integers(0, len(chars) - 1))] = data.draw(st.sampled_from(BAD_HEX))
        line = "".join(chars)
        assert parse_outcome(parse_truth_table, line, n) == parse_outcome(unpacked_parse, line, n)

    def test_padding_at_n1_n2(self):
        for n in (1, 2):
            for digit in "0123456789abcdefABCDEF":
                got = parse_outcome(parse_truth_table, digit, n)
                assert got == parse_outcome(unpacked_parse, digit, n)
                assert isinstance(got[0], BooleanFunction) == (n == 2 or digit in "048cC")

    def test_packed_bytes_are_the_public_constructors(self):
        """Equal functions share one byte string, padding zero included."""
        for n in (1, 2, 3, 4):
            for value in range(1 << (1 << n)):
                bits = [(value >> (((1 << n) - 1) - x)) & 1 for x in range(1 << n)]
                text = format(value << (-(1 << n) % 4), f"0{((1 << n) + 3) // 4}x")
                f = parse_truth_table(text, n)
                assert f.packed.tobytes() == BooleanFunction(n, bits).packed.tobytes()
                assert not f.packed.flags.writeable

    def test_private_constructor_refuses_bad_bytes(self):
        ok = BooleanFunction._from_packed(1, np.array([0x40], dtype=np.uint8))
        assert ok == BooleanFunction(1, [0, 1])
        for n, packed in ((1, [0x50]), (2, [0x00, 0x00]), (3, []), (4, [0x12])):
            with pytest.raises(ValueError, match="wrong length or padding"):
                BooleanFunction._from_packed(n, np.array(packed, dtype=np.uint8))


class TestPackedMobius:
    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_equals_unpacked_transform(self, n, seed, density):
        """The byte table and the XOR of byte blocks give the packed bytes of
        the one-byte-per-value transform, padding zero at n = 1 and 2, and
        applied twice return the input."""
        coeffs = (np.random.default_rng(seed).random(1 << n) < density).astype(np.uint8)
        packed = np.packbits(coeffs)
        once = _mobius_packed(packed, n)
        assert np.array_equal(once, np.packbits(mobius_transform(coeffs)))
        assert np.array_equal(_mobius_packed(once, n), packed)
        assert np.array_equal(packed, np.packbits(coeffs))  # the input is not written
