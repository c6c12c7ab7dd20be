"""Acceptance suite: one test per release criterion, each at its stated
tolerance.  Run with ``pytest -s tests/test_acceptance.py`` to see the
per-criterion PASS lines.
"""

import math
import time
from fractions import Fraction

import numpy as np

from walshgl import (
    BitVector,
    Sampler,
    derive_params,
    dj_state,
    fwht,
    monte_carlo,
    parse_anf,
    qwt_bf_state,
    search,
    spectra,
)

from conftest import (
    EXAMPLE1_ANF,
    EXAMPLE1_SPECTRUM,
    NONLINEAR_SBOX3,
    linear_function,
    planted_function,
    random_function,
    random_vectorial,
)
from reference import dj_amplitudes, hoeffding_failure_bound, probabilities, walsh_coefficient_naive

from walshgl import VectorialFunction


def _report(k: int, text: str):
    print(f"[criterion {k}] PASS - {text}")


def test_criterion_1_fwht_equals_naive_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        f = random_function(n, rng)
        spec = fwht(f)
        for a in range(1 << n):
            assert spec[a] == walsh_coefficient_naive(f, a)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget is 5s"
    _report(1, f"fwht == naive sum on 200 random functions ({checked} coefficients, {elapsed:.2f}s)")


def test_criterion_2_example1_golden_values():
    f = parse_anf(EXAMPLE1_ANF)
    spec = fwht(f)
    scale = 1 << 4
    assert spec[0b1001] / 2**4 == 0.5
    assert spec[0b1100] / 2**4 == 0.5
    assert spec[0b1110] / 2**4 == 0.5
    assert spec[0b1011] / 2**4 == -0.5
    zeros = [a for a in range(scale) if a not in EXAMPLE1_SPECTRUM]
    assert len(zeros) == 12
    assert all(spec[a] == 0 for a in zeros)
    # Parseval forces the zero set: 4 * (1/2)^2 = 1 exactly
    assert spec.parseval_sum() == 4**4
    _report(2, "golden spectrum of the reference quartic, bit order pinned")


def test_criterion_3_circuit_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        f = random_function(n, rng)
        amps = dj_amplitudes(dj_state(f))
        assert np.allclose(amps, fwht(f).coeffs / 2**f.n, atol=1e-10)
    pairs = 0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        F = random_vectorial(n, m, rng)
        for b in range(1, 1 << m):
            marginal = qwt_bf_state(F, b).register_marginal(0)
            expected = probabilities(next(spectra(F, [b])))
            assert np.allclose(marginal, expected, atol=1e-10)
            pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget is 30s"
    _report(3, f"50 single-output states and {pairs} component marginals at 1e-10 ({elapsed:.2f}s)")


def test_criterion_4_bernstein_vazirani_exact():
    checked = 0
    for n in range(1, 11):
        for a in range(1 << n):
            f = linear_function(n, a)
            draws = Sampler(fwht(f)).draw((n << 16) | a, 0, 1000)
            assert np.all(draws == a), f"n={n}, a={a:0{n}b} produced a wrong draw"
            checked += 1
    _report(4, f"1000 draws returned the mask exactly for all {checked} linear functions, n <= 10")


def test_criterion_5_sampling_distribution():
    f = parse_anf(EXAMPLE1_ANF)
    spec = fwht(f)
    draws = Sampler(spec).draw(1005, 0, 100_000)
    counts = np.bincount(draws.astype(np.int64), minlength=16)
    for a in EXAMPLE1_SPECTRUM:
        freq = counts[a] / 100_000
        assert abs(freq - 0.25) <= 0.01, f"frequency of {a:04b} was {freq}"
    tv = 0.5 * np.abs(counts / 100_000 - probabilities(spec)).sum()
    assert tv <= 0.02
    _report(5, f"heavy frequencies within 0.25 +- 0.01, TV = {tv:.4f} <= 0.02")


def test_criterion_6_algorithm1_end_to_end():
    # Each heavy vector has P = 1/4, so its count is Bin(937, 1/4) with
    # mean 234; the exact miss tail P(count < 75) is ~7e-42 per vector
    # (scipy.stats.binom.cdf(74, 937, 0.25)), i.e. unobservable across
    # 200 seeds, and zero-probability vectors cannot be drawn at all in
    # spectral mode.  Set equality is therefore deterministic here.
    start = time.perf_counter()
    f = parse_anf(EXAMPLE1_ANF)
    params = derive_params("0.4", 0.05)
    assert params.l == 937
    expected = set(EXAMPLE1_SPECTRUM)
    for seed in range(200):
        result = search(f, params, seed=seed)[0]
        assert {e.a.value for e in result.entries} == expected, f"seed {seed}"
        assert result.queries == 937
    # query count is a function of (epsilon, delta) only, never of n
    per_n = {
        search(linear_function(n, (1 << n) - 1), params, seed=n)[0].queries
        for n in range(4, 13)
    }
    assert per_n == {937}
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget is 10s"
    _report(6, f"exact heavy set and 937 queries across 200 seeds; constant queries for n in 4..12 ({elapsed:.2f}s)")


def test_criterion_7_theorem1_statistical_guarantee():
    # planted coefficient just above the threshold: W = 52/128 = 0.40625
    w0 = BitVector(7, 0b0110101)
    f = planted_function(7, w0.value, 38, seed=1234)
    spec = fwht(f)
    assert spec[w0] == 52 and abs(spec[w0] / 2**7) >= 0.4
    report = monte_carlo(f, derive_params("0.4", 0.05), runs=200, base_seed=7, w0=w0)
    gate = 0.05 + 3 * math.sqrt(0.05 * 0.95 / 200)
    assert report.gate_threshold == gate
    assert report.completeness_rate <= gate
    assert report.soundness_failures == 0, "a run emitted a vector with |S| < eps/2"
    assert report.passed
    _report(
        7,
        f"completeness failure rate {report.completeness_rate:.3f} <= {gate:.3f}, "
        f"soundness clean in all 200 runs",
    )


def test_criterion_8_algorithm2_end_to_end():
    # identity S-box: every component is linear
    identity = VectorialFunction(3, 3, list(range(8)))
    params = derive_params("0.9", 0.1)
    result = search(identity, params, seed=42)[0]
    assert {(e.a, e.b) for e in result.entries} == {(BitVector(3, b), BitVector(3, b)) for b in range(1, 8)}
    assert result.queries == 7 * params.l

    # nonlinear fixture: expected set from a definition-level LAT loop
    F = VectorialFunction(3, 3, NONLINEAR_SBOX3)
    eps = Fraction("0.45")  # spectrum values are 0 and +-0.5; 0.45 is off-boundary
    expected = set()
    for b in range(1, 8):
        for a in range(8):
            total = sum(
                1 - 2 * ((bin(a & x).count("1") + bin(b & NONLINEAR_SBOX3[x]).count("1")) & 1)
                for x in range(8)
            )
            if Fraction(abs(total), 8) >= eps:
                expected.add((BitVector(3, a), BitVector(3, b)))
    result = search(F, derive_params(eps, 0.05), seed=43)[0]
    assert {(e.a, e.b) for e in result.entries} == expected
    assert len(expected) == 28
    _report(8, "identity S-box gives {(b,b)} with l*(2^m-1) queries; nonlinear S-box matches the exact LAT heavy set")


def test_criterion_9_parameter_formulas():
    p = derive_params(1, 1 / math.e)
    assert (p.l, p.s) == (8, Fraction(4))
    for eps_i in range(1, 21):
        for delta_j in range(1, 21):
            eps = Fraction(eps_i, 20)
            delta = delta_j / 21
            params = derive_params(eps, delta)
            assert hoeffding_failure_bound(params.l, eps) <= delta + 1e-12
    _report(9, "derive_params(1, 1/e) = (l=8, s=4); Hoeffding bound <= delta on the 20x20 grid")
