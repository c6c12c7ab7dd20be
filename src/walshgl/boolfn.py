"""Single- and multi-output Boolean functions as bit-packed truth tables.

Encoding convention, used everywhere in this package: the assignment
(x1, ..., xn) corresponds to the integer with x1 in the MOST significant
bit, so the string "1001" means x1=1, x2=0, x3=0, x4=1 and encodes to 9.
Truth tables are indexed by that encoding.  All types here are immutable
after construction and safe to share between threads.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import CapacityError, ParseError

MAX_N = 24
MAX_M = 16


_BYTE_PARITY = np.array([bin(v).count("1") & 1 for v in range(256)], dtype=np.uint8)


def parity(values: np.ndarray) -> np.ndarray:
    """Elementwise bit parity, as uint8, of unsigned values below 2^16: the
    parity of the byte that XORs their two bytes, read from a table."""
    return _BYTE_PARITY[(values ^ (values >> 8)) & 0xFF]


@dataclass(frozen=True)
class BitVector:
    """An element of F_2^n with the canonical MSB-first integer encoding."""

    n: int
    value: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"bit vector length must be >= 1, got {self.n}")
        if not 0 <= self.value < (1 << self.n):
            raise ValueError(
                f"value {self.value} does not fit in {self.n} bits"
            )

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> "BitVector":
        """Parse "1001" (binary, length fixes n) or "0x9" (hex, needs n)."""
        text = text.strip()
        if text.lower().startswith("0x"):
            if n is None:
                raise ParseError("hex bit vector needs an explicit length")
            try:
                value = int(text, 16)
            except ValueError:
                raise ParseError(f"invalid hex bit vector {text!r}") from None
            return cls(n, value)
        if not text or any(c not in "01" for c in text):
            raise ParseError(f"invalid bit vector {text!r}: expected 0/1 string or 0x-hex")
        if n is not None and n != len(text):
            raise ParseError(f"bit vector {text!r} has length {len(text)}, expected {n}")
        return cls(len(text), int(text, 2))

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return format(self.value, f"0{self.n}b")


@functools.lru_cache(maxsize=None)
def _digit_table(base: int, width: int) -> np.ndarray:
    """Row v: the ASCII digits of v in ``base`` <= 10, zero-padded to
    ``width``, for every v < base^width.  Built once per (base, width) and
    read-only, since every later call shares it."""
    digits = np.indices((base,) * width, dtype=np.uint8).reshape(width, base**width)
    table = np.ascontiguousarray(digits.T) + ord("0")
    table.setflags(write=False)
    return table


def write_digits(out: np.ndarray, values: np.ndarray, base: int):
    """Fill row i of the (len(values), width) uint8 matrix ``out`` with the
    digits of values[i] < base^width in ``base``, most significant first and
    zero-padded (in base 2, its MSB-first bitstring): one row of a table of
    its high ceil(width/2) digits, then one of its low floor(width/2)."""
    low = out.shape[1] // 2
    high = out.shape[1] - low
    quotient, remainder = np.divmod(values, base**low)
    out[:, :high] = np.take(_digit_table(base, high), quotient, axis=0)
    out[:, high:] = np.take(_digit_table(base, low), remainder, axis=0)


def _outside(arr: np.ndarray, bound: int) -> bool:
    """Whether any entry lies outside [0, bound), checked before the array
    is narrowed so that no entry can wrap around; one pass for unsigned
    input, two otherwise."""
    if arr.max(initial=0) >= bound:
        return True
    return arr.dtype.kind not in "ub" and arr.min(initial=0) < 0


def _readonly(arr: np.ndarray) -> np.ndarray:
    """A read-only array equal to ``arr``; a writeable one is copied first,
    so a caller's array is never frozen or aliased."""
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


def _check_n(n: int | Decimal) -> int:
    if not 1 <= n <= MAX_N:
        raise CapacityError(f"variable count n={n} outside supported range 1..{MAX_N}")
    return int(n)


def _check_m(m: int | Decimal) -> int:
    if not 1 <= m <= MAX_M:
        raise CapacityError(f"output count m={m} outside supported range 1..{MAX_M}")
    return int(m)


class BooleanFunction:
    """An n-variable Boolean function f: F_2^n -> F_2, stored bit-packed."""

    __slots__ = ("n", "_packed")

    def __init__(self, n: int, bits: Sequence[int] | np.ndarray):
        _check_n(n)
        arr = np.asarray(bits)
        if arr.shape != (1 << n,):
            raise ValueError(
                f"truth table must have exactly 2^{n} = {1 << n} entries, got {arr.shape}"
            )
        if _outside(arr, 2):
            raise ValueError("truth table entries must be 0 or 1")
        packed = np.packbits(arr.astype(np.uint8, copy=False), bitorder="big")
        packed.setflags(write=False)
        self.n = n
        self._packed = packed

    @classmethod
    def _from_packed(cls, n: int, packed: np.ndarray) -> "BooleanFunction":
        """From its MSB-first packed bytes, kept read-only; the bits past
        2^n must be zero, as ``np.packbits`` pads them, so that ``==`` and
        ``hash`` see one byte string per function."""
        if packed.shape != (max((1 << n) // 8, 1),) or packed[-1] & (0xFF >> (1 << n)):
            raise ValueError(f"packed truth table for n={n} has the wrong length or padding")
        f = cls.__new__(cls)
        f.n, f._packed = n, _readonly(packed)
        return f

    @property
    def bits(self) -> np.ndarray:
        """Unpacked truth table, entry encode(x) = f(x).  Fresh read-only array."""
        out = np.unpackbits(self._packed, bitorder="big")[: 1 << self.n]
        out.setflags(write=False)
        return out

    @property
    def packed(self) -> np.ndarray:
        return self._packed

    def __eq__(self, other) -> bool:
        if not isinstance(other, BooleanFunction):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._packed, other._packed)

    def __hash__(self) -> int:
        return hash((self.n, self._packed.tobytes()))

    def __repr__(self) -> str:
        return f"BooleanFunction(n={self.n}, tt={serialize_truth_table(self)!r})"


class VectorialFunction:
    """A multi-output function F: F_2^n -> F_2^m given by its lookup table."""

    __slots__ = ("n", "m", "_table")

    def __init__(self, n: int, m: int, table: Sequence[int] | np.ndarray):
        _check_n(n)
        _check_m(m)
        arr = np.asarray(table)
        if arr.shape != (1 << n,):
            raise ValueError(
                f"lookup table must have exactly 2^{n} = {1 << n} entries, got {arr.shape}"
            )
        if _outside(arr, 1 << m):
            bad = int(np.argmax((arr < 0) | (arr >= (1 << m))))
            raise ValueError(f"table entry at index {bad} is {arr[bad]}, not in [0, 2^{m})")
        self.n = n
        self.m = m
        self._table = _readonly(arr.astype(np.uint32, copy=False))

    @property
    def table(self) -> np.ndarray:
        return self._table

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorialFunction):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and np.array_equal(self._table, other._table)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.m, self._table.tobytes()))

    def __repr__(self) -> str:
        return f"VectorialFunction(n={self.n}, m={self.m})"


def _as_mask(b: BitVector | int | None, target: BooleanFunction | VectorialFunction) -> int | None:
    """Component mask b of ``target`` as an int: an output mask of an S-box,
    None for a Boolean function, which is its own only component."""
    if (b is None) != isinstance(target, BooleanFunction):
        raise ValueError(f"component mask b={b} does not fit {type(target).__name__}"
                         " input: an S-box needs an output mask, a Boolean function None")
    if b is None:
        return None
    if isinstance(b, BitVector):
        if b.n != target.m:
            raise ValueError(f"b has length {b.n}, expected {target.m}")
        return b.value
    b = int(b)
    if not 0 <= b < (1 << target.m):
        raise ValueError(f"b={b} does not fit in {target.m} bits")
    return b


# --- ANF ----------------------------------------------------------------

_VAR_RE = re.compile(r"x(\d+)")


def _tokenize_anf(text: str):
    """Yield (kind, lexeme, 1-based position) tokens."""
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+*":
            yield c, c, i + 1
            i += 1
            continue
        if c in "01" and not text[i + 1 : i + 2].isdigit():
            yield "const", c, i + 1
            i += 1
            continue
        m = _VAR_RE.match(text, i)
        if m:
            yield "var", m.group(1), i + 1
            i = m.end()
            continue
        raise ParseError(f"unexpected character {c!r}", position=i + 1)


# The ANF grammar: state -> token kind -> next state.  A token whose kind is
# missing from its state's row is an error with that state's message.
_ANF_NEXT = {
    "monomial": {"var": "product", "const": "constant"},
    "product": {"*": "factor", "+": "monomial"},
    "constant": {"+": "monomial"},
    "factor": {"var": "product"},
}
_ANF_ERROR = {
    "monomial": "expected a monomial, got {!r}",
    "product": "expected '+' or '*', got {!r}",
    "constant": "constant monomials cannot be multiplied",
    "factor": "expected a variable after '*'",
}


def parse_anf(text: str, n: int | None = None) -> BooleanFunction:
    """Build a function from an ANF expression like "x1+x2+x2*x3+x3*x4".

    A monomial is the constant "1" (or "0", the empty polynomial) or a
    '*'-separated product of variables x1..x24.  n defaults to the largest
    variable index that appears.  Repeated monomials cancel over F_2.
    """
    tokens = list(_tokenize_anf(text))
    if not tokens:
        raise ParseError("empty ANF expression", position=1)

    monomials: list[list[int]] = []  # variable indices of each monomial; [] is "1"
    state = "monomial"
    for kind, lexeme, pos in tokens:
        if kind not in _ANF_NEXT[state]:
            raise ParseError(_ANF_ERROR[state].format(lexeme), position=pos)
        if state == "monomial":
            monomials.append([])
        if kind == "var":
            idx = read_integer(lexeme)
            if not 1 <= idx <= MAX_N:
                raise ParseError(f"variable index {idx} outside 1..{MAX_N}", position=pos)
            monomials[-1].append(int(idx))
        elif lexeme == "0":  # the constant 0 contributes nothing
            monomials.pop()
        state = _ANF_NEXT[state][kind]
    if state in ("monomial", "factor"):
        raise ParseError("expression ends with a dangling operator", position=len(text))

    max_index = max((max(vars_) for vars_ in monomials if vars_), default=0)
    if n is None:
        if max_index == 0:
            raise ParseError(
                "cannot infer variable count from a constant expression; pass n"
            )
        n = max_index
    if max_index > n:
        raise ParseError(f"variable x{max_index} exceeds declared n={n}")
    _check_n(n)

    # XOR-cancel duplicate monomials into the packed ANF coefficients, then
    # take the truth table with one (self-inverse) Moebius transform.
    packed = np.zeros(max((1 << n) // 8, 1), dtype=np.uint8)
    for vars_ in monomials:
        u = sum(1 << (n - idx) for idx in set(vars_))
        packed[u >> 3] ^= 0x80 >> (u & 7)
    return BooleanFunction._from_packed(n, _mobius_packed(packed, n))


def _byte_mobius() -> np.ndarray:
    """Entry v: the byte whose bits, MSB first, are the Moebius transform
    of v's 8 bits."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    for h in (1, 2, 4):
        pairs = bits.reshape(256, -1, 2, h)
        pairs[:, :, 1] ^= pairs[:, :, 0]
    return np.packbits(bits, axis=1)[:, 0]


_BYTE_MOBIUS = _byte_mobius()


def _mobius_packed(packed: np.ndarray, n: int) -> np.ndarray:
    """The self-inverse Moebius transform (XOR butterfly) of a packed truth
    table of 2^n values, as a fresh array: levels h = 1, 2, 4 by the
    256-entry ``_BYTE_MOBIUS``, each later level by XOR of byte blocks h/8
    apart, read as words of up to 8 bytes that tile them."""
    out = _BYTE_MOBIUS[packed]
    if n < 3:  # outputs past the first 2^n read only padding; zero them again
        out &= 0xFF ^ (0xFF >> (1 << n))
    step = 1  # bytes between the halves of a level
    while step < out.size:
        width = min(step, 8)
        pairs = out.view(f"u{width}").reshape(-1, 2, step // width)
        pairs[:, 1] ^= pairs[:, 0]
        step *= 2
    return out


# --- truth table hex format ----------------------------------------------


_HEX_NIBBLE = np.full(256, 0xFF, dtype=np.uint8)  # ASCII byte -> nibble, 0xFF if not hex
_HEX_NIBBLE[np.frombuffer(b"0123456789abcdef", dtype=np.uint8)] = np.arange(16)
_HEX_NIBBLE[np.frombuffer(b"ABCDEF", dtype=np.uint8)] = np.arange(10, 16)


def parse_truth_table(hex_text: str, n: int) -> BooleanFunction:
    """Decode a hex truth table: first hex digit holds f at indices 0..3,
    most significant bit of each nibble first."""
    n = _check_n(n)
    text = hex_text.strip()
    nbits = 1 << n
    expected = (nbits + 3) // 4
    if len(text) != expected:
        raise ParseError(
            f"hex truth table for n={n} needs {expected} digits, got {len(text)}"
        )
    # "replace" turns each non-ASCII character into one invalid byte, so byte
    # positions stay character positions.
    nibbles = _HEX_NIBBLE[np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)]
    bad = np.flatnonzero(nibbles > 15)
    if bad.size:
        i = int(bad[0])
        raise ParseError(f"non-hex character {text[i]!r}", position=i + 1)
    packed = nibbles[0::2] << 4  # one byte per pair of digits; n < 3 has one digit
    packed[: nibbles.size // 2] |= nibbles[1::2]
    if packed[-1] & (0xFF >> nbits):
        raise ParseError("padding bits beyond 2^n must be zero")
    return BooleanFunction._from_packed(n, packed)


def serialize_truth_table(f: BooleanFunction) -> str:
    """One hex digit per 4 bits, MSB first, the last digit zero-padded: the
    packed bytes in hex, less the last digit when 2^n / 4 < 1 byte."""
    return f.packed.tobytes().hex()[: ((1 << f.n) + 3) // 4]


# --- S-box listing --------------------------------------------------------


def parse_sbox(text: str, n: int, m: int) -> VectorialFunction:
    """Parse whitespace/comma-separated integers (decimal or 0x-hex) into a
    lookup table, listed in integer-encoding input order."""
    n, m = _check_n(n), _check_m(m)  # before 1 << n and 1 << m
    tokens = text.replace(",", " ").split()
    if len(tokens) != 1 << n:
        raise ParseError(
            f"S-box for n={n} needs {1 << n} values, got {len(tokens)}"
        )
    values = []
    for i, tok in enumerate(tokens):
        try:
            v = int(tok, 16) if tok.lower().startswith("0x") else read_integer(tok)
        except ValueError:  # not hex digits
            v = None
        if v is None:
            raise ParseError(f"invalid integer {tok!r} at value {i}")
        if not 0 <= v < (1 << m):
            raise ParseError(f"value {v} at index {i} not in [0, 2^{m})")
        values.append(int(v))
    return VectorialFunction(n, m, values)


# --- file formats ---------------------------------------------------------

_TT_HEADER_RE = re.compile(r"^n=(\d+)$")
_SBOX_HEADER_RE = re.compile(r"^n=(\d+)\s+m=(\d+)$")
# int()'s base-10 literal: whitespace but \x1c-\x1f, which str.isspace() counts
# and int() refuses; a sign; digits of any script, single underscores between
_INTEGER_RE = re.compile(r"[^\S\x1c-\x1f]*([+-]?\d+(?:_\d+)*)[^\S\x1c-\x1f]*")


def read_integer(text: str) -> Decimal | None:
    """The exact value of a base-10 ``int()`` literal of any length, or None
    for any other text.  int() refuses over 4300 digits and is quadratic in
    them, so callers judge the range on the Decimal and convert only then."""
    match = _INTEGER_RE.fullmatch(text)
    return None if match is None else Decimal(match[1].replace("_", ""))


def load_truth_table(path: str | Path) -> BooleanFunction:
    """Read a .tt file: header line ``n=<int>``, then one hex line."""
    lines = [ln.strip() for ln in Path(path).read_bytes().decode().splitlines() if ln.strip()]
    if len(lines) != 2:
        raise ParseError(f"{path}: expected a header line and one hex line")
    m = _TT_HEADER_RE.match(lines[0])
    if not m:
        raise ParseError(f"{path}: malformed header {lines[0]!r}, expected n=<int>")
    return parse_truth_table(lines[1], read_integer(m.group(1)))


def save_truth_table(f: BooleanFunction, path: str | Path):
    Path(path).write_bytes(f"n={f.n}\n{serialize_truth_table(f)}\n".encode())


def load_sbox(path: str | Path) -> VectorialFunction:
    """Read a .sbox file: header ``n=<int> m=<int>``, then 2^n integers."""
    lines = [ln.strip() for ln in Path(path).read_bytes().decode().splitlines() if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty S-box file")
    m = _SBOX_HEADER_RE.match(lines[0])
    if not m:
        raise ParseError(
            f"{path}: malformed header {lines[0]!r}, expected n=<int> m=<int>"
        )
    return parse_sbox(" ".join(lines[1:]), *map(read_integer, m.groups()))


def save_sbox(F: VectorialFunction, path: str | Path):
    body = "\n".join(
        " ".join(str(int(v)) for v in F.table[i : i + 16])
        for i in range(0, 1 << F.n, 16)
    )
    Path(path).write_bytes(f"n={F.n} m={F.m}\n{body}\n".encode())
