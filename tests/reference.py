"""Reference implementations that the tests compare walshgl against.

Each one computes its value by a route of its own: a coefficient by direct
summation rather than the butterfly, a component table from one parity per
entry, a distribution distance over raw counts, an ANF string read back from
the Moebius transform, draws from numpy's own bounded integers rather than
raw Philox words.  Kept outside the package, they cannot share its bugs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

import numpy as np

from walshgl import BitVector, BooleanFunction, VectorialFunction
from walshgl.boolfn import _as_mask, parity_u64
from walshgl.qsim import _INV_SQRT2, QuantumState, Sampler
from walshgl.rng import stream_key
from walshgl.walsh import WalshSpectrum, as_epsilon, spectra


def generator(seed: int, label: int = 0) -> np.random.Generator:
    """numpy's generator on substream (seed, label); its ``integers`` below
    2^bits are the keys that ``rng.key_rows`` reads from raw words."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, label)))


def cumulative_weights(sampler: Sampler) -> np.ndarray:
    """The sampler's whole uint64 inverse-CDF table, cum[a] = the sum of W^2
    over outcomes 0..a, built from its coefficients alone."""
    weights = sampler.weights.astype(np.uint64)
    return np.cumsum(weights * weights)


def outcomes(sampler: Sampler, seed: int, label: int, count: int) -> np.ndarray:
    """The first ``count`` encoded outcomes of substream (seed, label):
    ``integers`` keys inverted through the sampler's whole cumulative table."""
    keys = generator(seed, label).integers(0, 1 << sampler.bits, size=count, dtype=np.uint64)
    return np.searchsorted(cumulative_weights(sampler), keys, side="right").astype(np.uint64)


def walsh_coefficient_naive(f: BooleanFunction, a: int | BitVector) -> int:
    """W(a) by direct summation over all 2^n inputs (the reference oracle,
    independent of the butterfly)."""
    a = int(a)
    if not 0 <= a < (1 << f.n):
        raise ValueError(f"mask {a} out of range for n={f.n}")
    idx = np.arange(1 << f.n, dtype=np.uint64)
    chi = parity_u64(idx & np.uint64(a)).astype(np.int64)
    signs = 1 - 2 * f.bits.astype(np.int64)
    return int(np.sum(signs * (1 - 2 * chi)))


def component(F: VectorialFunction, b: BitVector | int) -> BooleanFunction:
    """The Boolean component x -> b . F(x) for an output mask b."""
    b = _as_mask(b, F)
    return BooleanFunction(F.n, parity_u64(F.table & np.uint32(b)))


def linear_approximation_table(F: VectorialFunction) -> np.ndarray:
    """LAT[a, b] = W_{b.F}(a) for all masks, shape (2^n, 2^m), as int64."""
    lat = np.column_stack([spectrum.coeffs for spectrum in spectra(F, range(1 << F.m))])
    return lat.astype(np.int64)


def probabilities(spectrum: WalshSpectrum) -> np.ndarray:
    """Measurement distribution P(a) = S(a)^2; sums to 1 by Parseval."""
    s = spectrum.coeffs / float(1 << spectrum.n)
    return s * s


def distribution_distance(
    empirical: Mapping[BitVector | int, int] | np.ndarray, exact: WalshSpectrum
) -> float:
    """Total-variation distance between normalized counts and P(w) = S(w)^2."""
    size = 1 << exact.n
    if isinstance(empirical, np.ndarray):
        counts = empirical.astype(np.float64)
        if counts.shape != (size,):
            raise ValueError(f"count table must have length {size}")
    else:
        counts = np.zeros(size, dtype=np.float64)
        for key, c in empirical.items():
            counts[int(key)] += c
    total = counts.sum()
    if total <= 0:
        raise ValueError("empirical distribution has no observations")
    return float(0.5 * np.abs(counts / total - probabilities(exact)).sum())


def hoeffding_failure_bound(l: int, epsilon: float | str | Fraction) -> float:
    """Per-candidate failure probability bound exp(-l * epsilon^4 / 8)."""
    if l < 1:
        raise ValueError(f"sample count l must be >= 1, got {l}")
    return math.exp(-l * float(as_epsilon(epsilon)) ** 4 / 8.0)


def dj_amplitudes(state: QuantumState) -> np.ndarray:
    """Coefficients of |w> (x) |-> for a state whose last register is the
    1-qubit ancilla."""
    if state.register_widths[-1] != 1:
        raise ValueError("last register must be the 1-qubit ancilla")
    pairs = state.amplitudes.reshape(-1, 2)
    return (pairs[:, 0] - pairs[:, 1]) * _INV_SQRT2


def mobius_transform(bits: np.ndarray) -> np.ndarray:
    """ANF coefficients of a truth table (self-inverse XOR butterfly), one
    byte per value."""
    a = np.array(bits, dtype=np.uint8)
    size = a.shape[0]
    h = 1
    while h < size:
        view = a.reshape(-1, 2 * h)
        view[:, h:] ^= view[:, :h]
        h *= 2
    return a


def anf_monomials(f: BooleanFunction) -> list[int]:
    """Encoded monomial masks with nonzero ANF coefficient, ascending."""
    coeffs = mobius_transform(f.bits)
    return [int(u) for u in np.nonzero(coeffs)[0]]


def serialize_anf(f: BooleanFunction) -> str:
    """Canonical ANF string; inverse of parse_anf up to function equality."""
    terms = []
    for mask in anf_monomials(f):
        if mask == 0:
            terms.append(((), "1"))
            continue
        vars_ = tuple(i for i in range(1, f.n + 1) if (mask >> (f.n - i)) & 1)
        terms.append((vars_, "*".join(f"x{i}" for i in vars_)))
    if not terms:
        return "0"
    terms.sort(key=lambda t: t[0])
    return "+".join(text for _vars, text in terms)
