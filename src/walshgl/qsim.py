"""State-vector simulation of the Hadamard/oracle sampling circuits.

The simulator keeps the ancilla explicit: the single-output circuit acts on
n+1 qubits (input register plus phase-kickback ancilla), the multi-output
circuit on n+2m+1 qubits across four registers.  Basis-state indices
concatenate the registers most-significant-first, matching the encoding
convention in :mod:`walshgl.boolfn`; :meth:`QuantumState.register` is the
one reader of that layout.

Measurement outcomes can also be drawn from the exact spectral distribution
P(w) = S(w)^2 without building a state vector.  ``Sampler(spectrum)`` draws
from an int32 spectrum: the butterfly's (``walsh.spectra``) for the spectral
source, the :func:`measured_spectrum` of a :func:`circuit_state` for the
statevector one, |W| = sqrt(P(w)) * 2^n rounded.  Keys are inverted through the
exact integer cumulative W^2, kept at the end of each block of outcomes and
summed within a block per key, so both sources draw the same outcomes for a
seed, and an outcome with a zero coefficient can never be drawn.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import rng
from .boolfn import (BitVector, BooleanFunction, VectorialFunction, _as_mask, _outside, _readonly,
                     parity)
from .errors import CapacityError
from .walsh import _SIGN_SPECTRA, WalshSpectrum, _butterfly

MAX_STATE_QUBITS = 15

SPECTRAL = "spectral"
STATEVECTOR = "statevector"
MODES = (SPECTRAL, STATEVECTOR)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _check_qubits(total: int):
    if total > MAX_STATE_QUBITS:
        raise CapacityError(f"{total} qubits exceed the state-vector limit of {MAX_STATE_QUBITS}")


class QuantumState:
    """Pure state over consecutive qubit registers."""

    __slots__ = ("register_widths", "amplitudes")

    def __init__(self, register_widths: Sequence[int], amplitudes: np.ndarray):
        widths = tuple(int(w) for w in register_widths)
        if any(w < 1 for w in widths):
            raise ValueError(f"register widths must be positive, got {widths}")
        total = sum(widths)
        _check_qubits(total)
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.shape != (1 << total,):
            raise ValueError(
                f"amplitude vector must have length 2^{total}, got {amps.shape}"
            )
        self.register_widths = widths
        self.amplitudes = _readonly(amps)

    @classmethod
    def basis(cls, register_widths: Sequence[int], values: Sequence[int]) -> "QuantumState":
        """Computational basis state |v1>|v2>...|vk>."""
        widths = tuple(int(w) for w in register_widths)
        _check_qubits(sum(widths))  # before the 2^q allocation
        if len(values) != len(widths):
            raise ValueError("one value per register required")
        index = 0
        for w, v in zip(widths, values):
            v = int(v)
            if not 0 <= v < (1 << w):
                raise ValueError(f"register value {v} does not fit in {w} qubits")
            index = (index << w) | v
        amps = np.zeros(1 << sum(widths), dtype=np.complex128)
        amps[index] = 1.0
        return cls(widths, amps)

    def register(self, reg: int) -> tuple[int, int]:
        """(width, shift) of register ``reg``: its qubit count and the bit
        shift of its least significant qubit.  Every gate and measurement
        reads the layout through this one method."""
        widths = self.register_widths
        if not 0 <= reg < len(widths):
            raise ValueError(f"no register {reg} in a {len(widths)}-register state")
        return widths[reg], sum(widths[reg + 1 :])

    def register_marginal(self, reg: int) -> np.ndarray:
        """Probability of each outcome when measuring one register."""
        w, shift = self.register(reg)
        return (np.abs(self.amplitudes) ** 2).reshape(-1, 1 << w, 1 << shift).sum(axis=(0, 2))


def apply_hadamard(state: QuantumState, reg: int) -> QuantumState:
    """Hadamard on every qubit of one register: per qubit, the Walsh
    butterfly on its two half-cubes, then the vector times 1/sqrt(2)."""
    w, shift = state.register(reg)
    top = sum(state.register_widths) - shift  # qubits from the MSB to reg's lowest
    amps = state.amplitudes.copy()
    scratch = np.empty(amps.shape[0] // 2, dtype=amps.dtype)
    for g in range(top - 1, top - 1 - w, -1):  # g qubits above this one
        cube = amps.reshape(1 << g, 2, -1)
        _butterfly(cube[:, 0], cube[:, 1], scratch.reshape(1 << g, -1))
        amps *= _INV_SQRT2
    return QuantumState(state.register_widths, amps)


def apply_xor_oracle(
    state: QuantumState, src: int, dst: int, table: np.ndarray
) -> QuantumState:
    """|x>_src |y>_dst -> |x>_src |y XOR table[x]>_dst."""
    (src_w, src_shift), (dst_w, dst_shift) = state.register(src), state.register(dst)
    if src == dst:
        raise ValueError("source and destination registers must differ")
    table = np.asarray(table)
    if table.shape != (1 << src_w,):
        raise ValueError(f"oracle table must have 2^{src_w} entries")
    if _outside(table, 1 << dst_w):
        raise ValueError(f"oracle table values must fit in {dst_w} qubits")
    idx = np.arange(state.amplitudes.shape[0], dtype=np.uint32)
    x = (idx >> np.uint32(src_shift)) & np.uint32((1 << src_w) - 1)
    flips = table.astype(np.uint32)[x] << np.uint32(dst_shift)
    # XOR permutations are involutions, so gathering at idx^flips applies it.
    return QuantumState(state.register_widths, state.amplitudes[idx ^ flips])


def apply_uip(state: QuantumState, regs: tuple[int, int, int] = (1, 2, 3)) -> QuantumState:
    """Inner-product phase: basis state picks up (-1)^(y.b) where y and b
    are the first two named registers, the +-1 of ``walsh._SIGN_SPECTRA[0]``.

    Diagonal in the computational basis; the third named register must be
    the 1-qubit ancilla that holds the |-> component at the point of use.
    """
    (wy, shift_y), (wb, shift_b), (w_anc, _) = map(state.register, regs)
    if wy != wb:
        raise ValueError(f"inner-product registers must match: {wy} vs {wb} qubits")
    if w_anc != 1:
        raise ValueError("ancilla register must be a single qubit")
    idx = np.arange(state.amplitudes.shape[0], dtype=np.uint64)
    y = (idx >> np.uint64(shift_y)) & np.uint64((1 << wy) - 1)
    b = (idx >> np.uint64(shift_b)) & np.uint64((1 << wb) - 1)
    signs = _SIGN_SPECTRA[0][parity(y & b), 0]
    return QuantumState(state.register_widths, state.amplitudes * signs)


# --- circuits ---------------------------------------------------------------


def dj_state(f: BooleanFunction) -> QuantumState:
    """Final pre-measurement state of the Deutsch-Jozsa circuit on f.

    Registers (n, 1); with the ancilla factored as (|0>-|1>)/sqrt(2), the
    coefficient of |w> equals S(w).
    """
    _as_mask(None, f)
    state = QuantumState.basis((f.n, 1), (0, 1))
    state = apply_hadamard(state, 0)
    state = apply_hadamard(state, 1)
    state = apply_xor_oracle(state, 0, 1, f.bits)
    return apply_hadamard(state, 0)


def qwt_bf_state(F: VectorialFunction, b: BitVector | int) -> QuantumState:
    """Final state of the multi-output circuit for the component mask b.

    Registers (n, m, m, 1) holding |x>|value>|b>|ancilla>.  The phase
    oracle for x -> b.F(x) is realized as compute / inner-product phase /
    uncompute: writing F(x) into the value register, kicking back the
    (-1)^(b.F(x)) phase, then XOR-ing F(x) out again.  The uncompute step
    is what disentangles the value register; without it the branches
    |F(x)> would decohere the final interference and the first register
    would NOT measure as S_{b.F}(a)^2.  After it, the first register's
    marginal equals S_{b.F}(a)^2 exactly.
    """
    b = _as_mask(b, F)
    state = QuantumState.basis((F.n, F.m, F.m, 1), (0, 0, b, 1))
    state = apply_hadamard(state, 0)
    state = apply_hadamard(state, 3)
    state = apply_xor_oracle(state, 0, 1, F.table)
    state = apply_uip(state, (1, 2, 3))
    state = apply_xor_oracle(state, 0, 1, F.table)
    return apply_hadamard(state, 0)


def circuit_state(
    target: BooleanFunction | VectorialFunction, b: BitVector | int | None
) -> QuantumState:
    """Final state of the Deutsch-Jozsa circuit on ``target`` (b None) or of
    the multi-output circuit for its component b."""
    return dj_state(target) if _as_mask(b, target) is None else qwt_bf_state(target, b)


# --- measurement sampling ----------------------------------------------------


_DRAW_BATCH = 1 << 14  # draws per batch of runs, unless one run is longer; also table counters
_LUT_LIMIT = 4**8  # most keys in a lookup table (n <= 8): 128 KiB of uint16
_BLOCK_BITS = 3  # outcomes per Sampler block, log2: 2 draws no faster, 4 draws 1.4x slower
_LOCATE_CHUNK = 1 << 15  # weights summed or gathered per pass in Sampler: 256 KiB as uint64
# Farthest a simulated |W| may lie from an integer: its float error is at most
# about 3e-9 (3.8e-11 measured), and a 1% move of a nonzero P(a) moves |W| by 0.005.
_ROUNDING_MARGIN = 1e-6


def measured_spectrum(state: QuantumState) -> WalshSpectrum:
    """The spectrum that register 0 of a circuit's final ``state`` measures:
    |W| = rint(sqrt(P(a)) * 2^n) off its marginal, refused when any lies more
    than ``_ROUNDING_MARGIN`` from an integer.  A sampler only squares, so it
    draws from this what it draws from the exact spectrum."""
    n, _ = state.register(0)
    scaled = np.sqrt(state.register_marginal(0)) * (1 << n)
    spectrum = WalshSpectrum(n, np.rint(scaled).astype(np.int32))
    worst = float(np.abs(scaled - spectrum.coeffs).max())
    if worst > _ROUNDING_MARGIN:
        raise ValueError(f"a simulated |W| lies {worst:.3g} from an integer, past the"
                         f" rounding margin {_ROUNDING_MARGIN:g}")
    return spectrum


class Sampler:
    """Read-only inverse CDF of a spectrum's 2^n outcomes over the keys [0,
    2^bits), bits = 2n: key k picks the a with cum[a - 1] <= k < cum[a], cum
    being the cumulative W^2 of the int32 coefficients held as ``weights``.
    Of cum, only the uint64 end of each block of 2^``_BLOCK_BITS`` outcomes is
    kept, with a guide from a key's top bits to its block, and :meth:`locate`
    sums one block per key for the rest (indexed search: Chen & Asau 1974;
    Devroye 1986, III.2).  A block sums to at most 8 * 4^24 = 2^51, so each
    wrap of 2^64 shows as a fall of the ends: the last end plus 2^64 per fall
    is the exact sum of the squares, which must be 4^n."""

    __slots__ = ("n", "bits", "weights", "_ends", "_guide")

    def __init__(self, spectrum: WalshSpectrum):
        if not isinstance(spectrum, WalshSpectrum):
            raise TypeError(f"Sampler input must be a WalshSpectrum, got {type(spectrum).__name__}")
        self.n, self.bits, self.weights = spectrum.n, 2 * spectrum.n, spectrum.coeffs
        rows = self._blocks()
        ends = np.zeros(len(rows) + 1, dtype=np.uint64)  # cum before each block, then the total
        step = max(1, _LOCATE_CHUNK // rows.shape[1])
        for start in range(0, len(rows), step):  # a chunk at a time: no 2^n temporary
            chunk = rows[start : start + step].T  # squared into rows of contiguous columns
            self._weights_of(chunk, np.empty(chunk.shape, dtype=np.uint64)).sum(
                axis=0, out=ends[start + 1 : start + 1 + chunk.shape[1]])
        np.cumsum(ends, out=ends)
        total = int(ends[-1]) + (int(np.count_nonzero(ends[1:] < ends[:-1])) << 64)
        if total != 1 << self.bits:
            raise ValueError(f"coefficient weights violate Parseval: their squares sum to "
                             f"{total}, not 4^{self.n}; corrupt spectrum")
        self._ends = ends
        # The guide (Chen & Asau): entry i is the block of key i * 2^shift, one
        # entry per block.  Block b's keys start at ends[b], so it is the entry
        # of each i from ceil(ends[b] / 2^shift) to the next block's first.
        shift = self.bits - len(rows).bit_length() + 1
        self._guide = np.empty(len(rows), dtype=np.int32)
        for start in range(0, len(rows), step):
            edge = ends[start : start + step + 1] + np.uint64((1 << shift) - 1)
            edge = (edge >> np.uint64(shift)).astype(np.intp)
            self._guide[edge[0] : edge[-1]] = np.repeat(
                np.arange(start, start + len(edge) - 1, dtype=np.int32), np.diff(edge))

    def _blocks(self) -> np.ndarray:
        """``weights`` as one row per block."""
        return self.weights.reshape(-1, 1 << min(_BLOCK_BITS, self.n))

    def _weights_of(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out`` (uint64 or intp) set to the squares of ``values``, entries
        of ``weights``."""
        out[...] = values  # a negative W wraps modulo 2^64, and its square is still exact
        return np.multiply(out, out, out=out)

    def locate(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, cum[a - 1], cum[a]) for keys below 2^bits, each in the keys'
        shape: the outcome a that each key picks (intp) and a's key range
        (uint64; cum[a - 1] is 0 for a = 0).  The guide entry of a key's top
        bits, plus at most one step, finds most keys' blocks, and
        ``searchsorted`` over the block ends the rest; then each key's block
        of weights is gathered, squared and summed from the block's start, in
        2^``_BLOCK_BITS`` + 1 words a key, so callers pass a bounded number."""
        rows = self._blocks()
        width = rows.shape[1]
        u = np.ravel(keys).astype(np.uint64)
        blk = self._guide[u >> np.uint64(self.bits - len(self._guide).bit_length() + 1)]
        blk += self._ends[blk + 1] <= u
        late = np.flatnonzero(self._ends[blk + 1] <= u)
        if late.size:
            blk[late] = np.searchsorted(self._ends, u[late], side="right") - 1
        # Row c, column i: cum before outcome c of key i's block (row width: its end).
        prefix = np.empty((width + 1, len(u)), dtype=np.uint64)
        prefix[0] = self._ends[blk]
        self._weights_of(rows[blk].T, prefix[1:])
        np.cumsum(prefix, axis=0, out=prefix)
        c = (prefix <= u).sum(axis=0)  # 1..width: prefix[0] <= u < prefix[width]
        at = c * len(u) + np.arange(len(u))
        found = blk * width + c - 1, prefix.ravel()[at - len(u)], prefix.ravel()[at]
        return tuple(part.reshape(np.shape(keys)) for part in found)

    def draw(self, seed: int, first: int, count: int) -> np.ndarray:
        """Encoded outcomes ``first`` to ``first + count - 1`` of substream
        (seed, 0), the stream of ``sample``, located ``_LOCATE_CHUNK`` block
        weights at a time."""
        ((_, keys),) = rng.key_rows([seed], 0, count, self.bits, 1, first)
        out = np.empty(count, dtype=np.uint64)
        step = max(1, _LOCATE_CHUNK // self._blocks().shape[1])
        for start in range(0, count, step):
            out[start : start + step] = self.locate(keys[0, start : start + step])[0]
        return out

    def lookup_table(self) -> np.ndarray | None:
        """Key k's outcome for every key k < 2^bits, each w repeated by its
        weight (Chen & Asau 1974), when 2^bits is at most ``_LUT_LIMIT``.
        None otherwise.  Timed per search with its build included
        (BENCH_pr7.json), the table was at most 0.1 ms slower than the sorted
        count at n <= 8 (one outlier aside), whatever the number of draws,
        and up to 4 ms faster with many runs; at n = 9 and 10 the sorted count
        won most cases."""
        if 1 << self.bits > _LUT_LIMIT:
            return None
        weights = self._weights_of(self.weights, np.empty(1 << self.n, dtype=np.intp))
        return np.repeat(np.arange(1 << self.n, dtype=np.uint16), weights)

    def count_runs(self, seeds: Sequence[int], label: int, count: int,
                   threshold: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (run, a, hits) with hits >= ``threshold`` (at least 1), hits
        being how often a is among the first ``count`` outcomes drawn from
        substream (seeds[run], label): three intp arrays ordered by run, then
        a.  Runs are drawn and counted a batch at a time.  A batch holds at
        most ``_DRAW_BATCH`` draws, or one whole run when ``count`` is larger
        (its keys then grow with ``count``; see "Runs of any l in bounded
        memory" in ROADMAP.md).  With a lookup table it holds at most
        ``_DRAW_BATCH`` counters.  With at most 2^14 runs and bits = 2n <= 48,
        each run * 2^bits + cum[a] <= (run + 1) * 2^bits fits in 64 bits."""
        threshold = max(threshold, 1)
        lut = self.lookup_table()
        rows = max(1, _DRAW_BATCH // max(count, 1 if lut is None else 1 << self.n))
        parts = [(np.empty(0, dtype=np.intp),) * 3]  # three empty arrays for no seeds
        for start, keys in rng.key_rows(seeds, label, count, self.bits, rows):
            run, a, hits = self._count(keys, threshold, lut)
            parts.append((run + start, a, hits))
        return tuple(np.concatenate(p) for p in zip(*parts))

    def _count(self, keys: np.ndarray, threshold: int,
               lut: np.ndarray | None) -> tuple[np.ndarray, ...]:
        """(row, a, hits) with hits >= ``threshold`` >= 1 in one batch of keys."""
        if lut is not None:  # count the cells row * 2^n + a
            offsets = (np.arange(keys.shape[0]) << self.n)[:, None]
            cells = (lut[keys] + offsets).ravel()
            counts = np.bincount(cells, minlength=len(offsets) << self.n)
            cells = np.flatnonzero(counts >= threshold)
            return cells >> self.n, cells & ((1 << self.n) - 1), counts[cells]
        # An outcome drawn `threshold` times fills that many consecutive
        # places of its sorted row, so a probe every `threshold` places
        # lands in it; only the probed outcomes, about count / threshold per
        # row (2/eps^2 for a search, whatever n is), are counted.
        keys.sort(axis=1)
        probed, lo, hi = self.locate(keys[:, ::threshold])
        new = np.ones(probed.shape, dtype=bool)  # first probe of its outcome in a row
        np.not_equal(probed[:, 1:], probed[:, :-1], out=new[:, 1:])
        row, a = new.nonzero()[0], probed[new]
        # Each row's keys lie in [row * 2^bits, (row + 1) * 2^bits): one sorted array.
        offsets = np.arange(keys.shape[0], dtype=np.uint64) << np.uint64(self.bits)
        flat = np.add(keys, offsets[:, None], out=keys if keys.dtype == np.uint64 else None)
        bounds = np.stack((lo[new], hi[new]))  # a's keys: cum[a - 1] <= key < cum[a]
        bounds += offsets[row]
        first, end = np.searchsorted(flat.ravel(), bounds)
        hits = end - first
        keep = hits >= threshold
        return row[keep], a[keep], hits[keep]
