"""State-vector simulation of the Hadamard/oracle sampling circuits.

The simulator keeps the ancilla explicit: the single-output circuit acts on
n+1 qubits (input register plus phase-kickback ancilla), the multi-output
circuit on n+2m+1 qubits across four registers.  Basis-state indices
concatenate the registers most-significant-first, matching the encoding
convention in :mod:`walshgl.boolfn`.

Measurement outcomes can also be drawn from the exact spectral distribution
P(w) = S(w)^2 without building a state vector; both sources are identically
distributed and invert integer keys through an integer cumulative table.
The spectral table is exact, so an outcome with a zero coefficient can never
be drawn.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import rng
from .boolfn import BitVector, BooleanFunction, VectorialFunction, _as_mask, _readonly, parity_u64
from .errors import CapacityError
from .walsh import WalshSpectrum, spectra

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

    @property
    def num_qubits(self) -> int:
        return sum(self.register_widths)

    def register_shift(self, reg: int) -> int:
        """Bit shift of register ``reg``'s least significant qubit."""
        widths = self.register_widths
        if not 0 <= reg < len(widths):
            raise ValueError(f"no register {reg} in a {len(widths)}-register state")
        return sum(widths[reg + 1 :])

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def register_marginal(self, reg: int) -> np.ndarray:
        """Probability of each outcome when measuring one register."""
        w = self.register_widths[reg]
        pre = sum(self.register_widths[:reg])
        post = self.num_qubits - pre - w
        cube = self.probabilities().reshape(1 << pre, 1 << w, 1 << post)
        return cube.sum(axis=(0, 2))


def apply_hadamard(state: QuantumState, reg: int) -> QuantumState:
    """Hadamard on every qubit of one register."""
    total = state.num_qubits
    shift = state.register_shift(reg)
    width = state.register_widths[reg]
    amps = state.amplitudes.copy()
    for q in range(width):
        g = total - 1 - (shift + q)  # global position from the MSB
        cube = amps.reshape(1 << g, 2, -1)
        top = cube[:, 0, :].copy()
        bottom = cube[:, 1, :].copy()
        cube[:, 0, :] = (top + bottom) * _INV_SQRT2
        cube[:, 1, :] = (top - bottom) * _INV_SQRT2
    return QuantumState(state.register_widths, amps)


def apply_xor_oracle(
    state: QuantumState, src: int, dst: int, table: np.ndarray
) -> QuantumState:
    """|x>_src |y>_dst -> |x>_src |y XOR table[x]>_dst."""
    if src == dst:
        raise ValueError("source and destination registers must differ")
    src_w = state.register_widths[src]
    dst_w = state.register_widths[dst]
    table = np.asarray(table)
    if table.shape != (1 << src_w,):
        raise ValueError(f"oracle table must have 2^{src_w} entries")
    if table.max(initial=0) >= (1 << dst_w):
        raise ValueError(f"oracle table values must fit in {dst_w} qubits")
    idx = np.arange(state.amplitudes.shape[0], dtype=np.uint32)
    x = (idx >> np.uint32(state.register_shift(src))) & np.uint32((1 << src_w) - 1)
    flips = table.astype(np.uint32)[x] << np.uint32(state.register_shift(dst))
    # XOR permutations are involutions, so gathering at idx^flips applies it.
    return QuantumState(state.register_widths, state.amplitudes[idx ^ flips])


def apply_uip(state: QuantumState, regs: tuple[int, int, int] = (1, 2, 3)) -> QuantumState:
    """Inner-product phase: basis state picks up (-1)^(y.b) where y and b
    are the first two named registers.

    Diagonal in the computational basis; the third named register must be
    the 1-qubit ancilla that holds the |-> component at the point of use.
    """
    ry, rb, ranc = regs
    wy = state.register_widths[ry]
    wb = state.register_widths[rb]
    if wy != wb:
        raise ValueError(f"inner-product registers must match: {wy} vs {wb} qubits")
    if state.register_widths[ranc] != 1:
        raise ValueError("ancilla register must be a single qubit")
    idx = np.arange(state.amplitudes.shape[0], dtype=np.uint64)
    y = (idx >> np.uint64(state.register_shift(ry))) & np.uint64((1 << wy) - 1)
    b = (idx >> np.uint64(state.register_shift(rb))) & np.uint64((1 << wb) - 1)
    signs = 1.0 - 2.0 * parity_u64(y & b).astype(np.float64)
    return QuantumState(state.register_widths, state.amplitudes * signs)


# --- circuits ---------------------------------------------------------------


def dj_state(f: BooleanFunction) -> QuantumState:
    """Final pre-measurement state of the Deutsch-Jozsa circuit on f.

    Registers (n, 1); with the ancilla factored as (|0>-|1>)/sqrt(2), the
    coefficient of |w> equals S(w).
    """
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
    b = _as_mask(b, F.m, "b")
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
    return dj_state(target) if b is None else qwt_bf_state(target, b)


# --- measurement sampling ----------------------------------------------------


_DRAW_BATCH = 1 << 14  # draws per batch of runs, unless one run is longer; also table counters
_LUT_LIMIT = 4**8  # most keys in a lookup table (n <= 8): 128 KiB of uint16


class Sampler:
    """Read-only inverse-CDF table of one circuit's 2^n outcomes: cumulative
    integer weights over the key space [0, 2^bits), W(w)^2 over 4^n,
    Parseval-checked (bits = 2n), or the cumulative marginal scaled to 2^53
    and rounded up (bits = 53).  The table's length and last entry fix n and bits."""

    __slots__ = ("n", "cum", "bits")

    def __init__(self, cum: np.ndarray):
        size, total = len(cum), int(cum[-1])
        if size.bit_count() != 1 or total.bit_count() != 1:
            raise ValueError(f"table length {size} and last entry {total} must be powers of two")
        self.n, self.bits = size.bit_length() - 1, total.bit_length() - 1
        self.cum = _readonly(cum)

    @classmethod
    def from_spectrum(cls, spectrum: WalshSpectrum) -> "Sampler":
        weights = spectrum.squared_weights()
        cum = np.cumsum(weights, out=weights)  # one 2^n uint64 array, not two
        if int(cum[-1]) != 4**spectrum.n:
            raise ValueError("coefficient weights violate Parseval; corrupt spectrum")
        cum.setflags(write=False)  # hand over ownership, skip the defensive copy
        return cls(cum)

    @classmethod
    def from_probabilities(cls, probs: np.ndarray) -> "Sampler":
        """For an integer key k, cum[c] <= k * 2^-53 exactly when
        ceil(cum[c] * 2^53) <= k, so key k picks the outcome that the float
        k * 2^-53 of ``random()`` picks in the float cumulative table."""
        cum = np.cumsum(probs, dtype=np.float64)
        cum /= cum[-1]
        table = np.ceil(cum * 2.0**53).astype(np.uint64)
        table.setflags(write=False)
        return cls(table)

    def draw(self, generator: np.random.Generator, count: int) -> np.ndarray:
        """The next ``count`` encoded outcomes of ``generator``, which is
        ``rng.generator(seed, label)`` for substream (seed, label)."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        keys = generator.integers(0, 1 << self.bits, size=count, dtype=np.uint64)
        return np.searchsorted(self.cum, keys, side="right").astype(np.uint64)

    def keys(self, seeds: Sequence[int], rekey: rng.Rekeyer, count: int) -> np.ndarray:
        """Row i: the first ``count`` keys of ``rng.generator(seeds[i], label)``
        for ``rekey``'s label, from raw Philox words (see :mod:`walshgl.rng`):
        uint32 for bits <= 32, uint64 above."""
        halves = self.bits <= 32
        words = (count + 1) // 2 if halves else count
        if words > np.iinfo(np.intp).max // 8:  # 8-byte words: numpy's largest array holds fewer
            raise CapacityError(f"l={count} draws exceed the largest array of one run's keys")
        raw = np.empty((len(seeds), words), dtype="<u8")
        for row, seed in zip(raw, seeds):
            row[:] = rekey(seed).random_raw(words)
        if halves:
            return raw.view("<u4")[:, :count] >> (32 - self.bits)
        raw >>= 64 - self.bits  # in place: each batch-sized temporary adds to peak RSS
        return raw

    def lookup_table(self) -> np.ndarray | None:
        """Key k's outcome for every key k < 2^bits, each w repeated
        cum[w] - cum[w-1] times (Chen & Asau 1974), when 2^bits is at most
        ``_LUT_LIMIT``.  None otherwise."""
        if 1 << self.bits > _LUT_LIMIT:
            return None
        weights = np.diff(self.cum, prepend=np.uint64(0)).astype(np.intp)
        return np.repeat(np.arange(1 << self.n, dtype=np.uint16), weights)

    def count_runs(self, seeds: Sequence[int], label: int, count: int,
                   threshold: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (run, a, hits) with hits >= ``threshold`` (at least 1), hits
        being how often a is among the first ``count`` outcomes drawn from
        ``rng.generator(seeds[run], label)``: three intp arrays ordered by run, then
        a.  Runs are drawn and counted a batch at a time.  A batch holds at
        most ``_DRAW_BATCH`` draws, or one whole run when ``count`` is larger
        (its keys then grow with ``count``; see "Runs of any l in bounded
        memory" in ROADMAP.md).  With a lookup table it holds at most
        ``_DRAW_BATCH`` counters.  It holds fewer than 2^(64 - bits) runs, so
        that run * 2^bits + cum[a] <= (run + 1) * 2^bits fits in 64 bits."""
        threshold = max(threshold, 1)
        lut = self.lookup_table()
        rows = max(1, _DRAW_BATCH // (count if lut is None else max(count, 1 << self.n)))
        rows = min(rows, (1 << (64 - self.bits)) - 1)
        rekey = rng.Rekeyer(label)
        parts = []
        for start in range(0, len(seeds), rows):
            keys = self.keys(seeds[start : start + rows], rekey, count)
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
        # lands in it; only the probed outcomes are counted.
        keys.sort(axis=1)
        probed = np.searchsorted(self.cum, keys[:, ::threshold], side="right")
        new = np.ones(probed.shape, dtype=bool)  # first probe of its outcome in a row
        np.not_equal(probed[:, 1:], probed[:, :-1], out=new[:, 1:])
        row, a = new.nonzero()[0], probed[new]
        # Each row's keys lie in [row * 2^bits, (row + 1) * 2^bits): one sorted array.
        offsets = np.arange(keys.shape[0], dtype=np.uint64) << np.uint64(self.bits)
        flat = np.add(keys, offsets[:, None], out=keys if keys.dtype == np.uint64 else None)
        bounds = self.cum[np.stack((a - 1, a))]  # a's keys: cum[a - 1] <= key < cum[a]
        bounds[0, a == 0] = 0
        bounds += offsets[row]
        first, end = np.searchsorted(flat.ravel(), bounds)
        hits = end - first
        keep = hits >= threshold
        return row[keep], a[keep], hits[keep]


def circuit_sampler(
    target: BooleanFunction | VectorialFunction, b: BitVector | int | None, mode: str,
    spectrum: WalshSpectrum | None = None,
) -> Sampler:
    """Sampler of the circuit in :func:`circuit_state`, drawing a with
    probability S_{b.F}(a)^2.  The spectral source uses ``spectrum``, that
    component's exact spectrum, when the caller holds it and computes it
    otherwise; the statevector source simulates."""
    if mode == SPECTRAL:
        if spectrum is None:
            spectrum = next(spectra(target, [b]))
        return Sampler.from_spectrum(spectrum)
    if mode == STATEVECTOR:
        return Sampler.from_probabilities(circuit_state(target, b).register_marginal(0))
    raise ValueError(f"unknown sampling mode {mode!r}; use one of {MODES}")
