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
    MAX_N, BitVector, BooleanFunction, VectorialFunction, _as_mask, _readonly, parity_u64,
    read_integer, write_bitstrings,
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


@dataclass(frozen=True)
class WalshSpectrum:
    """All 2^n integer coefficients W(a) of one Boolean function."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.int64)
        if arr.shape != (1 << self.n,):
            raise ValueError(
                f"spectrum for n={self.n} needs {1 << self.n} coefficients"
            )
        object.__setattr__(self, "coeffs", _readonly(arr))

    def __getitem__(self, a: int | BitVector) -> int:
        return int(self.coeffs[int(a)])

    def squared_weights(self) -> np.ndarray:
        """Exact integer numerators W(a)^2 of P(a) over the common
        denominator 4^n, in a fresh array the caller may overwrite."""
        w = self.coeffs.astype(np.uint64)
        return np.multiply(w, w, out=w)

    def parseval_sum(self) -> int:
        """Sum of W(a)^2 as an exact Python integer (equals 4^n)."""
        total = 0
        for i in range(0, self.coeffs.shape[0], 1 << 14):  # no 2^n temporary
            w = self.coeffs[i : i + (1 << 14)].astype(np.uint64)
            total += int(np.sum(np.multiply(w, w, out=w), dtype=np.uint64))
        return total


_FWHT_BLOCK = 1 << 15  # elements per cache block: 256 KiB of int64, well inside L2
_FWHT_SHORT = 8  # below this stride a level runs one 1-D pass per offset


def _butterfly(left: np.ndarray, right: np.ndarray, scratch: np.ndarray):
    """(left, right) <- (left + right, left - right), through ``scratch``."""
    np.subtract(left, right, out=scratch)
    left += right
    right[...] = scratch


def fwht_inplace(arr: np.ndarray):
    """In-place Walsh-Hadamard butterfly on each length-2^k row (the last
    axis) of a C-contiguous integer array.

    Every level with stride h < ``_FWHT_BLOCK`` runs inside one contiguous
    span of at most ``_FWHT_BLOCK`` elements, whole rows or part of one,
    before the next span is touched; each remaining level then pairs
    half-blocks h apart.  All levels share one scratch of half a span.  The array streams
    through memory once for all the levels below the block size and once
    per level above it (Fino & Algazi 1976, factored WHT forms).
    """
    if arr.ndim > 1 and not arr.flags.c_contiguous:  # reshape(-1) would transform a copy
        raise ValueError("fwht_inplace needs a 1-D or C-contiguous array")
    size = arr.shape[-1]
    flat = arr.reshape(-1)
    block = min(size, _FWHT_BLOCK)
    span = min(arr.size, _FWHT_BLOCK)
    half = max(span // 2, 1)
    scratch = np.empty(half, dtype=arr.dtype)
    for start in range(0, arr.size, span):
        chunk = flat[start : start + span]
        h = 1
        while h < block:
            pairs = chunk.reshape(-1, 2, h)
            if h < _FWHT_SHORT:  # rows of h elements are too short for numpy's inner loop
                for k in range(h):
                    _butterfly(pairs[:, 0, k], pairs[:, 1, k], scratch[: pairs.shape[0]])
            else:
                _butterfly(pairs[:, 0], pairs[:, 1], scratch[: pairs.shape[0] * h].reshape(-1, h))
            h *= 2
    h = block
    while h < size:
        pairs = arr.reshape(-1, 2, h)
        for row in pairs:
            for j in range(0, h, half):
                _butterfly(row[0, j : j + half], row[1, j : j + half], scratch)
        h *= 2


def _signs(bits: np.ndarray) -> np.ndarray:
    """(-1)^bits as a fresh int64 array, built in place: no second temporary."""
    signs = bits.astype(np.int64)
    signs *= -2
    signs += 1
    return signs


def fwht(f: BooleanFunction) -> WalshSpectrum:
    """Full spectrum via the divide-and-conquer butterfly, n*2^n integer ops."""
    arr = _signs(f.bits)
    fwht_inplace(arr)
    arr.setflags(write=False)  # hand over ownership, skip the defensive copy
    return WalshSpectrum(f.n, arr)


def spectra(
    target: BooleanFunction | VectorialFunction, bs: Iterable[BitVector | int | None]
) -> Iterator[WalshSpectrum]:
    """Spectrum of each listed component of a target, in order, computed as
    it is read: the Boolean function itself (b is None), else the component
    b . F of an S-box.  S-box components are built as +-1 rows straight from
    the parities of ``table & b`` and transformed together, a batch of at
    most ``_FWHT_BLOCK // 2`` coefficients at a time (one row from n = 14).
    """
    if isinstance(target, BooleanFunction):
        yield from (fwht(target) for _ in bs)
        return
    masks = np.array([_as_mask(b, target.m, "b") for b in bs], dtype=np.uint32)
    rows = max((_FWHT_BLOCK // 2) >> target.n, 1)
    for i in range(0, masks.shape[0], rows):
        batch = _signs(parity_u64(target.table & masks[i : i + rows, None]))
        fwht_inplace(batch)
        batch.setflags(write=False)  # each row is handed over without a copy
        yield from (WalshSpectrum(target.n, row) for row in batch)


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
    threshold = threshold_count(spectrum.n, as_epsilon(epsilon))
    heavy = spectrum.coeffs >= threshold  # two bool masks, not a 2^n int64 np.abs
    heavy |= spectrum.coeffs <= -threshold
    return {BitVector(spectrum.n, int(a)) for a in np.flatnonzero(heavy)}


def top_coefficients(spectrum: WalshSpectrum, k: int = 8) -> list[tuple[BitVector, int]]:
    """The k largest coefficients by |W|, ties broken by encoding.

    ``k`` counts like a slice bound: k <= 0 drops the last -k of the full
    ranking, k >= 2^n keeps all of it.  Only the coefficients at least as
    large as the k-th largest |W| are sorted.
    """
    size = spectrum.coeffs.shape[0]
    k = len(range(size)[:k])
    if k == 0:
        return []
    magnitude = np.abs(spectrum.coeffs)  # the one 2^n copy: partitioned, then refilled
    magnitude.partition(size - k)
    cut = magnitude[size - k]
    candidates = np.flatnonzero(np.abs(spectrum.coeffs, out=magnitude) >= cut)
    order = candidates[np.lexsort((candidates, -magnitude[candidates]))[:k]]
    return [(BitVector(spectrum.n, int(a)), int(spectrum.coeffs[a])) for a in order]


# --- export formats --------------------------------------------------------

_CSV_CHUNK = 1 << 16  # rows assembled per pass; bounds the export's extra memory
# Rows per translate and write: 2^10 rows of at most 69 bytes stay below
# glibc's default 128 KiB mmap threshold, so the bytes and str of each write
# reuse heap memory instead of taking fresh pages (and minor faults) each time.
_CSV_WRITE = 1 << 10
_REPR_MAX = 24  # longest repr of a float: "-d." + 16 digits + "e-XXX"


def _decimal_table(count: int, width: int) -> np.ndarray:
    """ASCII digits of 0..count-1 as a (count, width) uint8 matrix, each
    row right-aligned with NUL bytes in place of leading zeros."""
    powers = 10 ** np.arange(width - 1, -1, -1)
    table = (np.arange(count)[:, None] // powers % 10 + ord("0")).astype(np.uint8)
    table[:, :-1][np.logical_and.accumulate(table[:, :-1] == ord("0"), axis=1)] = 0
    return table


def spectrum_to_csv(spectrum: WalshSpectrum, out: IO[str]):
    """Rows ``index,bitstring,W,S`` for every mask, in encoding order.

    The bytes are those of ``csv.writer`` with a ``\\n`` terminator (no field
    ever needs quoting).  Each chunk of rows is one uint8 matrix of
    fixed-width fields padded with NUL bytes, written ``_CSV_WRITE`` rows at
    a time with the NULs deleted.  Each field is one ``np.take`` from a
    table:

    - the index: ``i // 10^4`` right-aligned (blank when 0), then
      ``i % 10^4`` as four digits, or right-aligned when i < 10^4;
    - ``,`` and the bitstring, from ``boolfn.write_bitstrings``;
    - ``,W,S\\n``, formatted once per distinct W in the chunk.

    The matrix is allocated once per export and reused for every chunk.
    """
    n = spectrum.n
    scale = 1 << n
    digits = len(str(scale - 1))
    split = max(digits - 4, 0)  # columns of i // 10^4
    head = _decimal_table((scale - 1) // 10_000 + 1, split)
    head[0] = 0
    lead = _decimal_table(10_000, 4)[:, split - digits :]
    full = lead | ord("0")  # NUL | "0" is "0": four digits with leading zeros
    tail_at = digits + 1 + n  # after the index, "," and the bitstring
    tail_max = len(f",{-scale},,\n") + _REPR_MAX
    work = np.empty(min(scale, _CSV_CHUNK) * (tail_at + tail_max), dtype=np.uint8)
    out.write("index,bitstring,W,S\n")
    for start in range(0, scale, _CSV_CHUNK):
        stop = min(start + _CSV_CHUNK, scale)
        ws, tail_of = np.unique(spectrum.coeffs[start:stop], return_inverse=True)
        tails = [f",{w},{w / scale!r}\n" for w in ws.tolist()]
        width = max(map(len, tails))
        padded = "".join(t.ljust(width, "\0") for t in tails).encode()
        tail_table = np.frombuffer(padded, dtype=np.uint8).reshape(-1, width)
        rows = work[: (stop - start) * (tail_at + width)].reshape(stop - start, tail_at + width)
        index = np.arange(start, stop)
        q, r = np.divmod(index, 10_000)
        rows[:, :split] = np.take(head, q, axis=0)
        rows[:, split:digits] = np.take(full, r, axis=0)
        below = max(min(stop, 10_000) - start, 0)  # rows with no digits above 10^4
        rows[:below, split:digits] = np.take(lead, r[:below], axis=0)
        rows[:, digits] = ord(",")
        write_bitstrings(rows[:, digits + 1 : tail_at], index)
        rows[:, tail_at:] = np.take(tail_table, tail_of, axis=0)
        for i in range(0, stop - start, _CSV_WRITE):
            out.write(rows[i : i + _CSV_WRITE].tobytes().translate(None, b"\0").decode("ascii"))


_BINARY_HEADER = struct.Struct("<I")


def write_spectrum_binary(spectrum: WalshSpectrum, path: str | Path):
    """Compact dump: little-endian uint32 n, then 2^n little-endian int64."""
    with open(path, "wb") as fh:
        fh.write(_BINARY_HEADER.pack(spectrum.n))
        fh.write(spectrum.coeffs.astype("<i8", copy=False).data)  # no copy on little-endian


def read_spectrum_binary(path: str | Path) -> WalshSpectrum:
    with open(path, "rb") as fh:
        header = fh.read(_BINARY_HEADER.size)
        if len(header) < _BINARY_HEADER.size:
            raise ValueError(f"{path}: truncated spectrum dump")
        (n,) = _BINARY_HEADER.unpack(header)
        if not 1 <= n <= MAX_N:
            raise CapacityError(f"{path}: header n={n} outside 1..{MAX_N}")
        coeffs = np.empty(1 << n, dtype="<i8")
        if fh.readinto(coeffs) != coeffs.nbytes or fh.read(1):
            raise ValueError(f"{path}: expected {coeffs.nbytes} coefficient bytes")
    coeffs.setflags(write=False)  # read-only int64: WalshSpectrum keeps it without a copy
    spectrum = WalshSpectrum(n, coeffs)
    if spectrum.parseval_sum() != 4**n:
        raise ValueError(f"{path}: coefficients violate Parseval (sum W^2 != 4^{n})")
    return spectrum
