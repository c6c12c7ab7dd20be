"""Exact Walsh spectra in integer arithmetic.

Coefficients are kept as integers W(a) = 2^n * S(a) so that Parseval and
every threshold comparison are exact; the correlation S(a) in [-1, 1]
appears only at API boundaries.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .boolfn import (
    MAX_N, BitVector, BooleanFunction, VectorialFunction, _as_mask, _readonly, parity,
    read_integer, write_digits,
)
from .errors import CapacityError


def as_epsilon(value: float | int | str | Fraction) -> Fraction:
    """Exact rational view of a threshold epsilon, checked to lie in (0, 1].

    Strings parse as decimals or ratios ("0.4", "2/5") and are exact;
    floats convert to the dyadic rational they actually represent.  A float
    or a decimal whose float is 0, infinite or NaN is judged before the
    exact parse (minutes on 1e-10000000); a decimal in (0, 1) whose float
    is 0 is a ``CapacityError``.
    The two sides of a ratio are ``boolfn.read_integer`` literals, judged
    before they are converted to int.
    """
    exact = value
    if isinstance(value, str) and "/" in value:
        p, q = map(read_integer, value.split("/", 1))
        if p is None or q is None or not (0 < p <= q or q <= p < 0):  # p/q in (0, 1]
            raise ValueError(f"epsilon must be in (0, 1], got {value}")
        exact = Fraction(int(p), int(q))
    elif isinstance(value, (str, float)):
        try:  # Fraction(str) refuses over 4300 digits, as int() does; Decimal takes any
            rough, exact = float(value), Decimal(value)
        except ValueError:  # not a number: Fraction(str) below says so
            rough = 1.0
        if not 0 < abs(rough) < math.inf:
            if rough == 0 and exact > 0:  # a finite decimal, so never a NaN
                raise CapacityError(f"epsilon={value} is below the smallest positive float")
            raise ValueError(f"epsilon must be in (0, 1], got {value}")
    eps = Fraction(exact)
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {value}")
    return eps


def _narrow(values: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Integer ``values`` as int32, written into ``out`` when it is given,
    after refusing any value outside [-2^n, 2^n].  Every |W| <= 2^n <= 2^24
    fits; unchecked, the narrowing would wrap (2^32 to 0)."""
    if values.dtype.kind not in "iu":
        raise ValueError(f"coefficients must be integers, got {values.dtype}")
    if int(values.min()) < -(1 << n) or int(values.max()) > 1 << n:
        raise ValueError(f"a coefficient lies outside [-2^{n}, 2^{n}]")
    if out is None:
        return values.astype(np.int32, copy=False)
    out[...] = values
    return out


@dataclass(frozen=True)
class WalshSpectrum:
    """All 2^n integer coefficients W(a) of one Boolean function, held as
    read-only int32.  Any integer array is taken whose values lie in
    [-2^n, 2^n]; every product of them widens first."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs)
        if arr.shape != (1 << self.n,):
            raise ValueError(
                f"spectrum for n={self.n} needs {1 << self.n} coefficients"
            )
        narrow = _narrow(arr, self.n)
        if narrow is not arr:  # a fresh int32 copy that nothing else holds
            narrow.setflags(write=False)
        object.__setattr__(self, "coeffs", _readonly(narrow))

    def __getitem__(self, a: int | BitVector) -> int:
        return int(self.coeffs[int(a)])

    def parseval_sum(self) -> int:
        """Sum of W(a)^2 as an exact Python integer (equals 4^n)."""
        chunks = _widened(self.coeffs, np.uint64)  # W^2 <= 2^48: no 2^n temporary
        return sum(int(np.sum(np.multiply(w, w, out=w), dtype=np.uint64)) for w in chunks)


def _widened(coeffs: np.ndarray, dtype: str | type) -> Iterator[np.ndarray]:
    """2^n ``coeffs`` 2^12 at a time, each chunk copied into one reused
    ``dtype`` buffer (32 KiB of 64-bit words)."""
    buf = np.empty(min(coeffs.shape[0], 1 << 12), dtype=dtype)
    for part in coeffs.reshape(-1, buf.shape[0]):
        buf[...] = part
        yield buf


_FWHT_BLOCK = 1 << 16  # values per cache block: 256 KiB of int32, well inside L2


def _sign_spectra() -> list[np.ndarray]:
    """Table k, for k = 0..3: row v holds the spectrum of the 2^k signs
    (-1)^x of v's 2^k bits, MSB first, as int8.  Each table doubles the
    last one: row (hi, lo) is (hi + lo, hi - lo)."""
    tables = [np.array([[1], [-1]], dtype=np.int8)]
    while len(tables) < 4:
        hi, lo = tables[-1][:, None], tables[-1][None, :]
        tables.append(np.concatenate((hi + lo, hi - lo), axis=2).reshape(len(hi) ** 2, -1))
    return tables


_SIGN_SPECTRA = _sign_spectra()
_BYTE_SPECTRA = _SIGN_SPECTRA[3]  # 256 x 8 int8 (2 KiB): levels h = 1, 2, 4 of a packed byte


def _butterfly(left: np.ndarray, right: np.ndarray, scratch: np.ndarray):
    """(left, right) <- (left + right, left - right), through ``scratch``."""
    np.subtract(left, right, out=scratch)
    left += right
    right[...] = scratch


def _levels(arr: np.ndarray, h: int, stop: int, scratch: np.ndarray):
    """Butterfly levels h, 2h, ... below ``stop`` on each length-2h run of
    ``arr``, through a byte buffer ``scratch`` of at least arr.nbytes / 2."""
    while h < stop:
        pairs = arr.reshape(-1, 2, h)
        _butterfly(pairs[:, 0], pairs[:, 1], scratch.view(arr.dtype)[: arr.size // 2].reshape(-1, h))
        h *= 2


def _fwht_packed(packed: np.ndarray, n: int) -> np.ndarray:
    """Spectra of packed truth tables: each row of the uint8 ``packed`` (its
    last axis) holds the 2^n values of one function, MSB first, as
    ``BooleanFunction.packed`` does.  Returns read-only int32 of shape
    ``packed.shape[:-1] + (2^n,)``.

    The 256-row ``_BYTE_SPECTRA`` does levels h = 1, 2, 4 of each byte.
    After k levels |W| <= 2^k, so int8 holds the levels h < 2^6 exactly,
    int16 those h < 2^14 and int32 the rest.  Each span of at most
    ``_FWHT_BLOCK`` values, whole rows or part of one, runs all its levels
    below the block size before the next span is touched, one stage per
    dtype in a reused buffer.  Each stage holds the index bits of its own
    levels outermost, so that every level pairs runs of many values rather
    than of h; the copy that widens a stage's result regroups the bits for
    the next one, the last into encoding order.  Each remaining level then
    pairs half-blocks h apart.  The result streams through memory once for
    all the levels below the block size and once per level above it (Fino &
    Algazi 1976, factored WHT forms).
    """
    size = 1 << n
    out = np.empty(packed.shape[:-1] + (size,), dtype=np.int32)
    if n < 3:  # the 2^n values are the high bits of one byte
        out[...] = _SIGN_SPECTRA[n][packed[..., 0] >> (8 - size)]
        out.setflags(write=False)
        return out
    flat, data = out.reshape(-1), packed.reshape(-1)
    span = min(flat.size, max(_FWHT_BLOCK, 8))
    block = min(size, span)
    # a, b and c values of a block's index bits 3..5 (int8), 6..13 (int16)
    # and 14 up (int32); bits 0..2 are the 8 values of a byte
    a = min(block, 1 << 6) // 8
    b = min(block, 1 << 14) // (8 * a)
    c = block // (8 * a * b)
    int8, int16 = np.empty(span, dtype=np.int8), np.empty(span, dtype=np.int16)
    scratch = np.empty(2 * span, dtype=np.uint8)  # half a span of int32
    for start in range(0, flat.size, span):
        chunk = flat[start : start + span]  # the last may hold fewer rows
        narrow, medium = int8[: chunk.size], int16[: chunk.size]
        order = data[start // 8 : (start + chunk.size) // 8].reshape(-1, c, b, a)
        np.take(_BYTE_SPECTRA, order.transpose(0, 3, 1, 2), axis=0,
                out=narrow.reshape(-1, a, c, b, 8), mode="clip")
        _levels(narrow, block // a, block, scratch)
        medium.reshape(-1, b, c, a, 8)[...] = narrow.reshape(-1, a, c, b, 8).transpose(0, 3, 2, 1, 4)
        _levels(medium, block // b, block, scratch)
        chunk.reshape(-1, c, b, 8 * a)[...] = medium.reshape(-1, b, c, 8 * a).transpose(0, 2, 1, 3)
        _levels(chunk, block // c, block, scratch)
    half = scratch.view(np.int32)
    h = block
    while h < size:
        for row in out.reshape(-1, 2, h):
            for j in range(0, h, half.size):
                _butterfly(row[0, j : j + half.size], row[1, j : j + half.size], half)
        h *= 2
    out.setflags(write=False)
    return out


def fwht(f: BooleanFunction) -> WalshSpectrum:
    """Full spectrum via the divide-and-conquer butterfly, n*2^n integer ops."""
    return WalshSpectrum(f.n, _fwht_packed(f.packed, f.n))


def spectra(
    target: BooleanFunction | VectorialFunction, bs: Iterable[BitVector | int | None]
) -> Iterator[WalshSpectrum]:
    """Spectrum of each listed component of a target, in order, computed as
    it is read: the Boolean function itself (b is None), else the component
    b . F of an S-box.  S-box components are packed rows of the parities
    of ``table & b``, transformed together, a batch of at most
    ``_FWHT_BLOCK // 4`` coefficients at a time (one row from n = 14).
    A batch's parities peak at three uint16 arrays, 6 bytes per value
    (tracemalloc): about 200 KiB up to n = 14, 1.5 MiB at n = 18, 96 MiB at n = 24.
    """
    masks = [_as_mask(b, target) for b in bs]
    if isinstance(target, BooleanFunction):
        yield from (fwht(target) for _ in masks)
        return
    masks = np.array(masks, dtype=np.uint16)
    rows = max((_FWHT_BLOCK // 4) >> target.n, 1)
    for i in range(0, masks.shape[0], rows):
        packed = np.packbits(parity(target.table & masks[i : i + rows, None]), axis=1)
        yield from (WalshSpectrum(target.n, row) for row in _fwht_packed(packed, target.n))


def threshold_count(n: int, epsilon: Fraction) -> int:
    """Smallest integer T with T >= epsilon * 2^n, exactly.

    An integer |W| satisfies |W| >= epsilon * 2^n iff |W| >= T, so closed
    rational thresholds reduce to one integer comparison.
    """
    return math.ceil(epsilon * (1 << n))


def heavy_set_exact(
    spectrum: WalshSpectrum, epsilon: float | str | Fraction
) -> set[BitVector]:
    """All a with |S(a)| >= epsilon, resolved in exact rational arithmetic."""
    # T as an int64 compares exactly with int32 coefficients under numpy 1.x's
    # value-based casting and numpy 2's NEP 50 alike; one bool mask at a time
    # (T >= 1, so the two sides never meet), no np.abs
    threshold = np.int64(threshold_count(spectrum.n, as_epsilon(epsilon)))
    positive = np.flatnonzero(spectrum.coeffs >= threshold)
    negative = np.flatnonzero(spectrum.coeffs <= -threshold)
    return {BitVector(spectrum.n, int(a)) for side in (positive, negative) for a in side}


_TIE_SCAN = 1 << 16  # |W| per step of top_coefficients' scan for ties at the cut


def top_coefficients(spectrum: WalshSpectrum, k: int = 8) -> list[tuple[BitVector, int]]:
    """The k largest coefficients by |W|, ties broken by encoding.

    ``k`` counts like a slice bound: k <= 0 drops the last -k of the full
    ranking, k >= 2^n keeps all of it.  Only k coefficients are sorted: the
    fewer than k strictly larger than the k-th largest |W|, then as many
    that tie with it as the ranking still needs, the first in encoding
    order, from a scan of ``_TIE_SCAN`` at a time that stops once it has
    them (the constant function ties 2^n - 1 coefficients at 0).
    """
    size = spectrum.coeffs.shape[0]
    k = len(range(size)[:k])
    if k == 0:
        return []
    # the one 2^n copy, partitioned, then refilled: |W| <= 2^24 never wraps in
    # int32, and every W leaves as a Python int
    magnitude = np.abs(spectrum.coeffs)
    magnitude.partition(size - k)
    cut = magnitude[size - k]
    candidates = [np.flatnonzero(np.abs(spectrum.coeffs, out=magnitude) > cut)]
    need = k - candidates[0].shape[0]
    for start in range(0, size, _TIE_SCAN):
        ties = np.flatnonzero(magnitude[start : start + _TIE_SCAN] == cut)[:need]
        candidates.append(ties + start)
        need -= ties.shape[0]
        if need == 0:
            break
    chosen = np.concatenate(candidates)
    order = chosen[np.lexsort((chosen, -magnitude[chosen]))]
    return [(BitVector(spectrum.n, int(a)), int(spectrum.coeffs[a])) for a in order]


# --- export formats --------------------------------------------------------

# Rows per pass: 2^7 * 5^3, so every chunk repeats its indices' low 3 digits
# and low 7 bits.  The chunk's matrix, its mask and the bytes kept (about
# 0.8 MB each at n = 20) bound the export's extra memory, with the tail table;
# chunks of 64,000 rows ran no faster and took 10 MB more peak RSS.
_CSV_CHUNK = 16_000


def _csv_tails(spectrum: WalshSpectrum) -> tuple[int, int, np.ndarray, np.ndarray]:
    """(lo, s, rank, table): the tail ``,W,S\\n`` of a coefficient W is row
    rank[(W - lo) >> s] of the uint8 ``table``, each row padded with NULs to
    the longest tail.

    lo is the least W and 2^s the largest power of two dividing every
    W - lo: s is the lowest bit on which two W differ, read from the AND
    and the OR of all W.  ``rank`` holds one int32 per slot from lo to the
    largest W, and numbers the slots that occur from 1 (row 0 of ``table``
    is never read), so each distinct W is formatted once per export.  Every
    W of a true spectrum with n >= 2 has one residue mod 4, so rank holds
    at most about 0.36 * 2^n entries.
    """
    coeffs, scale = spectrum.coeffs, 1 << spectrum.n
    lo, hi = int(coeffs.min()), int(coeffs.max())
    varying = int(np.bitwise_or.reduce(coeffs)) ^ int(np.bitwise_and.reduce(coeffs))
    s = (varying & -varying).bit_length() - 1 if varying else 0
    rank = np.zeros(((hi - lo) >> s) + 1, dtype=np.int32)
    slots = np.empty(min(scale, _CSV_CHUNK), dtype=np.int32)
    for start in range(0, scale, slots.shape[0]):
        rank[_slots(coeffs[start : start + slots.shape[0]], lo, s, slots)] = 1
    ws = lo + (np.flatnonzero(rank) << s)
    np.cumsum(rank, out=rank)
    tails = [f",{w},{w / scale!r}\n" for w in ws.tolist()]  # Python ints
    width = max(map(len, tails))
    padded = "".join(t.ljust(width, "\0") for t in ["", *tails]).encode()
    return lo, s, rank, np.frombuffer(padded, dtype=np.uint8).reshape(-1, width)


def _slots(part: np.ndarray, lo: int, s: int, buf: np.ndarray) -> np.ndarray:
    """(part - lo) >> s, in the head of the int32 ``buf``."""
    slot = np.subtract(part, lo, out=buf[: part.shape[0]])
    return np.right_shift(slot, s, out=slot)


def _cells(block: np.ndarray) -> np.ndarray:
    """The rows of a uint8 matrix whose rows are contiguous, as one void
    item each, so that a copy moves each row whole instead of looping over
    its few bytes."""
    return block.view(np.dtype((np.void, block.shape[1])))[:, 0]


def _write_runs(out: np.ndarray, first: int, run: int, last: int, base: int):
    """Row i of the uint8 matrix ``out`` gets the digits of (first + i) // run
    in ``base``, clamped to last // run.  That value is the same for each
    run of ``run`` rows, so only the head of each run is formatted, and a
    broadcast fills the run."""
    if out.shape[1] == 0:
        return
    heads = np.arange(first // run, first // run + out.shape[0] // run)
    head_digits = np.empty((heads.shape[0], out.shape[1]), dtype=np.uint8)
    write_digits(head_digits, np.minimum(heads, last // run), base)
    _cells(out).reshape(-1, run)[...] = _cells(head_digits)[:, None]


def spectrum_to_csv(spectrum: WalshSpectrum, out: IO[bytes]):
    """Rows ``index,bitstring,W,S`` for every mask, in encoding order, written
    to the binary stream ``out``.

    The bytes are those of ``csv.writer`` with a ``\\n`` terminator (no field
    ever needs quoting).  Each chunk of ``_CSV_CHUNK`` rows is one uint8
    matrix of fixed-width fields padded with NUL bytes; one boolean mask
    drops the NULs, and the rest goes to ``out.write`` as it is.  The
    matrix is allocated once per export and reused for every chunk:

    - the index: its decimal digits, zero-padded to the width of 2^n - 1; a
      row below 10^k then loses its first ``digits - k`` columns to NUL;
    - ``,`` and the bitstring, in base 2;
    - ``,W,S\\n``, a row of the table ``_csv_tails`` builds once per export.

    With 10^d and 2^b the largest powers of 10 and 2 dividing the chunk's
    row count, every chunk repeats the low d digits and the low b bits of
    its indices: those columns and the ``,`` are written once per export,
    and ``_write_runs`` formats only the heads of the other columns' runs.
    """
    n = spectrum.n
    scale = 1 << n
    lo, s, rank, tails = _csv_tails(spectrum)
    digits = len(str(scale - 1))
    tail_at = digits + 1 + n  # after the index, "," and the bitstring
    size = min(scale, _CSV_CHUNK)
    d = len(str(size)) - len(str(size).rstrip("0"))  # 10^d and 2^b divide size
    b = (size & -size).bit_length() - 1
    work = np.empty((size, tail_at + tails.shape[1]), dtype=np.uint8)
    keep = np.empty(work.shape, dtype=bool)
    slots = np.empty(size, dtype=np.int32)
    gathered = np.empty((size, tails.shape[1]), dtype=np.uint8)
    offsets = np.arange(size)
    low_digits = work[:, digits - d : digits]
    write_digits(low_digits, offsets % 10**d, 10)
    work[:, digits] = ord(",")
    write_digits(work[:, tail_at - b : tail_at], offsets % (1 << b), 2)
    out.write(b"index,bitstring,W,S\n")
    for start in range(0, scale, size):
        stop = min(start + size, scale)
        _write_runs(work[:, : digits - d], start, 10**d, scale - 1, 10)
        _write_runs(work[:, digits + 1 : tail_at - b], start, 1 << b, scale - 1, 2)
        rows = work[: stop - start]
        for k in range(len(str(start)), digits):
            # a row below 10^k loses its first digits - k columns
            rows[: min(stop, 10**k) - start, : digits - k] = 0
        ranks = rank[_slots(spectrum.coeffs[start:stop], lo, s, slots)]
        np.take(tails, ranks, axis=0, out=gathered[: stop - start], mode="clip")
        _cells(rows[:, tail_at:])[...] = _cells(gathered[: stop - start])
        mask = np.not_equal(rows, 0, out=keep[: stop - start])
        out.write(rows[mask])
        if start == 0 and d > 1:  # the NULs of the rows below 10^(d - 1) were static digits
            write_digits(low_digits, offsets % 10**d, 10)


_BINARY_HEADER = struct.Struct("<I")


def write_spectrum_binary(spectrum: WalshSpectrum, out: IO[bytes]):
    """Compact dump to the binary stream ``out``: little-endian uint32 n,
    then 2^n little-endian int64, widened a chunk at a time (no 2^n int64
    copy)."""
    out.write(_BINARY_HEADER.pack(spectrum.n))
    for wide in _widened(spectrum.coeffs, "<i8"):
        out.write(wide.data)


def read_spectrum_binary(path: str | Path) -> WalshSpectrum:
    """A dump of ``write_spectrum_binary``, read 2^12 int64 at a time, each
    chunk range-checked and narrowed into one int32 array, then
    Parseval-checked."""
    with open(path, "rb") as fh:
        header = fh.read(_BINARY_HEADER.size)
        if len(header) < _BINARY_HEADER.size:
            raise ValueError(f"{path}: truncated spectrum dump")
        (n,) = _BINARY_HEADER.unpack(header)
        if not 1 <= n <= MAX_N:
            raise CapacityError(f"{path}: header n={n} outside 1..{MAX_N}")
        coeffs = np.empty(1 << n, dtype=np.int32)
        wide = np.empty(min(1 << n, 1 << 12), dtype="<i8")
        for part in coeffs.reshape(-1, wide.shape[0]):
            if fh.readinto(wide) != wide.nbytes:
                raise ValueError(f"{path}: expected {8 << n} coefficient bytes")
            try:  # refused before the narrowing can wrap
                _narrow(wide, n, part)
            except ValueError as err:
                raise ValueError(f"{path}: {err}") from None
        if fh.read(1):
            raise ValueError(f"{path}: expected {8 << n} coefficient bytes")
    coeffs.setflags(write=False)  # read-only int32: WalshSpectrum keeps it without a copy
    spectrum = WalshSpectrum(n, coeffs)
    if spectrum.parseval_sum() != 4**n:
        raise ValueError(f"{path}: coefficients violate Parseval (sum W^2 != 4^{n})")
    return spectrum
