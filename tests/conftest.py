from pathlib import Path

import numpy as np
import pytest

from walshgl import BooleanFunction, VectorialFunction, load_sbox, parse_anf, rng, spectra
from walshgl.qsim import STATEVECTOR, circuit_state, measured_spectrum

from reference import bit_parity

DATA = Path(__file__).parent / "data"

# The four nonzero coefficients of the reference quartic, W = 2^4 * S.
EXAMPLE1_ANF = "x1+x2+x2*x3+x3*x4"
EXAMPLE1_SPECTRUM = {0b1001: 8, 0b1100: 8, 0b1110: 8, 0b1011: -8}

# 3-bit permutation with a flat +-4 spectrum on every nonzero component.
NONLINEAR_SBOX3 = (0, 1, 3, 6, 7, 4, 5, 2)


def random_function(n: int, rng: np.random.Generator) -> BooleanFunction:
    return BooleanFunction(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))


def random_vectorial(n: int, m: int, rng: np.random.Generator) -> VectorialFunction:
    return VectorialFunction(n, m, rng.integers(0, 1 << m, size=1 << n))


def key_matrix(seeds, label, count, bits, rows, first=0):
    """All rows of ``rng.key_rows``, checking that batch i starts at seed i * rows."""
    batches = list(rng.key_rows(seeds, label, count, bits, rows, first))
    assert [start for start, _ in batches] == list(range(0, len(seeds), rows))
    return np.concatenate([keys for _, keys in batches])


def source_spectrum(target, b, mode: str):
    """The spectrum that sampling ``mode`` draws component b of ``target``
    from: measured off the simulated circuit, or the butterfly's."""
    if mode == STATEVECTOR:
        return measured_spectrum(circuit_state(target, b))
    return next(spectra(target, [b]))


def linear_function(n: int, a: int) -> BooleanFunction:
    idx = np.arange(1 << n)
    return BooleanFunction(n, bit_parity(idx & a))


def planted_function(n: int, w0: int, disagreements: int, seed: int) -> BooleanFunction:
    """w0.x flipped on a random size-d subset: W(w0) = 2^n - 2d exactly."""
    rng = np.random.default_rng(seed)
    bits = np.zeros(1 << n, dtype=np.uint8)
    idx = np.arange(1 << n)
    bits[:] = bit_parity(idx & w0)
    flip = rng.choice(1 << n, size=disagreements, replace=False)
    bits[flip] ^= 1
    return BooleanFunction(n, bits)


@pytest.fixture
def example1() -> BooleanFunction:
    return parse_anf(EXAMPLE1_ANF)


@pytest.fixture
def identity_sbox3() -> VectorialFunction:
    return VectorialFunction(3, 3, list(range(8)))


@pytest.fixture
def nonlinear_sbox3() -> VectorialFunction:
    return VectorialFunction(3, 3, NONLINEAR_SBOX3)


@pytest.fixture(scope="session")
def aes_sbox() -> VectorialFunction:
    return load_sbox(DATA / "aes_sbox.sbox")
