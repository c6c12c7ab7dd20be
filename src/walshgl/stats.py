"""Hoeffding-bound helpers and Monte-Carlo validation of the accuracy
guarantees.

The guarantee under test is per designated vector: over many independent
runs, the fraction where a fixed heavy w0 misses the output list must stay
within delta (plus binomial slack for finite run counts).  The
all-heavy-vectors-simultaneously failure rate is reported alongside but
never gated; the per-candidate bound does not union-bound over candidates
unless strict confidence is requested at parameter-derivation time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from . import rng
from .boolfn import BitVector, BooleanFunction, VectorialFunction
from .gl import GLParams, _search_runs, derive_params
from .qsim import SPECTRAL
from .walsh import WalshSpectrum, as_epsilon


def hoeffding_failure_bound(l: int, epsilon: float | str | Fraction) -> float:
    """Per-candidate failure probability bound exp(-l * epsilon^4 / 8)."""
    if l < 1:
        raise ValueError(f"sample count l must be >= 1, got {l}")
    return math.exp(-l * float(as_epsilon(epsilon)) ** 4 / 8.0)


def binomial_interval(failures: int, runs: int, z: float = 3.0) -> tuple[float, float]:
    """z-sigma normal-approximation interval around an empirical rate."""
    rate = failures / runs
    half = z * math.sqrt(rate * (1.0 - rate) / runs)
    return (max(0.0, rate - half), min(1.0, rate + half))


@dataclass(frozen=True)
class TrialReport:
    """Outcome of repeated independent algorithm runs on one fixture."""

    fixture: str
    runs: int
    params: GLParams
    designated: str | None
    completeness_vacuous: bool
    completeness_ok: tuple[bool, ...]
    soundness_ok: tuple[bool, ...]
    simultaneous_ok: tuple[bool, ...]

    @property
    def completeness_failures(self) -> int:
        return self.runs - sum(self.completeness_ok)

    @property
    def soundness_failures(self) -> int:
        return self.runs - sum(self.soundness_ok)

    @property
    def simultaneous_failures(self) -> int:
        return self.runs - sum(self.simultaneous_ok)

    @property
    def completeness_rate(self) -> float:
        return self.completeness_failures / self.runs

    @property
    def soundness_rate(self) -> float:
        return self.soundness_failures / self.runs

    @property
    def gate_threshold(self) -> float:
        """delta plus three-sigma binomial slack for this run count."""
        d = self.params.delta
        return d + 3.0 * math.sqrt(d * (1.0 - d) / self.runs)

    @property
    def passed(self) -> bool:
        """Gated checks only: designated completeness and soundness rates."""
        gate = self.gate_threshold
        return self.completeness_rate <= gate and self.soundness_rate <= gate

    def to_json_dict(self) -> dict:
        return {
            "fixture": self.fixture,
            "runs": self.runs,
            "params": self.params.to_json_dict(),
            "designated": self.designated,
            "completeness_vacuous": self.completeness_vacuous,
            "completeness": self._rates(self.completeness_ok),
            "soundness": self._rates(self.soundness_ok),
            "simultaneous_ungated": self._rates(self.simultaneous_ok),
            "gate_threshold": self.gate_threshold,
            "passed": self.passed,
            "per_run": {
                "completeness_ok": list(self.completeness_ok),
                "soundness_ok": list(self.soundness_ok),
                "simultaneous_ok": list(self.simultaneous_ok),
            },
        }

    def _rates(self, ok: tuple[bool, ...]) -> dict:
        """Failures, failure rate and its interval from one check's per-run outcomes."""
        failures = self.runs - sum(ok)
        return {
            "failures": failures,
            "rate": failures / self.runs,
            "interval": list(binomial_interval(failures, self.runs)),
        }


def monte_carlo(
    target: BooleanFunction | VectorialFunction,
    epsilon: float | str | Fraction,
    delta: float,
    runs: int,
    base_seed: int,
    w0: BitVector | tuple[BitVector, BitVector] | None = None,
    mode: str = SPECTRAL,
    fixture: str = "",
    params: GLParams | None = None,
) -> TrialReport:
    """Empirical failure rates of Algorithm 1 on a Boolean function or
    Algorithm 2 on an S-box.

    Per run: completeness is judged for one designated heavy w0 (given, or
    the largest-|S| heavy vector; vacuous if nothing reaches epsilon) and
    soundness for every emitted vector.  On an S-box w0 is an (a, b) pair.
    ``params`` overrides the derived (l, s), e.g. to demonstrate that a
    corrupted threshold gets flagged.  Run r searches with seed
    stream_key(base_seed, r), building each component's spectrum and
    sampler once for all runs; every draw matches a ``gl.search`` call
    with that seed.
    """
    if runs < 100:
        raise ValueError(f"need at least 100 runs for a meaningful rate, got {runs}")
    eps = as_epsilon(epsilon)
    if params is None:
        params = derive_params(eps, delta)
    seeds = [rng.stream_key(base_seed, r) for r in range(runs)]
    heavy, found, violated = _search_runs(target, params, seeds, mode, eps)
    names = [name for _, name in heavy]
    if w0 is None:
        # largest |W|; min keeps the first of equals, the smallest (b, a)
        w0 = min(heavy, key=lambda h: -abs(h[0]), default=(0, None))[1]
    elif w0 not in names:
        raise ValueError(f"designated w0={w0} is not epsilon-heavy")
    designated = np.ones(runs, dtype=bool) if w0 is None else found[:, names.index(w0)]
    sbox = isinstance(target, VectorialFunction)
    if not fixture:
        fixture = f"n={target.n} m={target.m} sbox" if sbox else f"n={target.n} boolean"
    if w0 is not None:
        w0 = f"a={w0[0]} b={w0[1]}" if sbox else str(w0)
    return TrialReport(
        fixture=fixture,
        runs=runs,
        params=params,
        designated=w0,
        completeness_vacuous=w0 is None,
        completeness_ok=tuple(designated.tolist()),
        soundness_ok=tuple((~violated).tolist()),
        simultaneous_ok=tuple(found.all(axis=1).tolist()),
    )


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
    return float(0.5 * np.abs(counts / total - exact.probabilities()).sum())
