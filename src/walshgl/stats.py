"""Monte-Carlo validation of the accuracy guarantees.

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

import numpy as np

from . import rng
from .boolfn import BitVector, BooleanFunction, VectorialFunction
from .errors import CapacityError
from .gl import GLParams, _search_runs
from .qsim import SPECTRAL


def binomial_interval(failures: int, runs: int) -> tuple[float, float]:
    """Three-sigma normal-approximation interval around an empirical rate."""
    rate = failures / runs
    half = 3.0 * math.sqrt(rate * (1.0 - rate) / runs)
    return (max(0.0, rate - half), min(1.0, rate + half))


@dataclass(frozen=True)
class TrialReport:
    """Outcome of repeated independent algorithm runs on one fixture: the
    per-run outcomes, from which ``runs`` and every count and rate are read."""

    fixture: str
    params: GLParams
    designated: str | None
    completeness_ok: tuple[bool, ...]
    soundness_ok: tuple[bool, ...]
    simultaneous_ok: tuple[bool, ...]

    @property
    def runs(self) -> int:
        return len(self.completeness_ok)

    @property
    def completeness_failures(self) -> int:
        return self.runs - sum(self.completeness_ok)

    @property
    def soundness_failures(self) -> int:
        return self.runs - sum(self.soundness_ok)

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
            "completeness_vacuous": self.designated is None,
            "completeness": self._rates(self.completeness_failures),
            "soundness": self._rates(self.soundness_failures),
            "simultaneous_ungated": self._rates(self.runs - sum(self.simultaneous_ok)),
            "gate_threshold": self.gate_threshold,
            "passed": self.passed,
            "per_run": {
                "completeness_ok": list(self.completeness_ok),
                "soundness_ok": list(self.soundness_ok),
                "simultaneous_ok": list(self.simultaneous_ok),
            },
        }

    def _rates(self, failures: int) -> dict:
        """One check's failure count, failure rate and its interval."""
        return {
            "failures": failures,
            "rate": failures / self.runs,
            "interval": list(binomial_interval(failures, self.runs)),
        }


def monte_carlo(
    target: BooleanFunction | VectorialFunction,
    params: GLParams,
    runs: int,
    base_seed: int,
    w0: BitVector | tuple[BitVector, BitVector] | None = None,
    mode: str = SPECTRAL,
) -> TrialReport:
    """Empirical failure rates of Algorithm 1 on a Boolean function or
    Algorithm 2 on an S-box.

    Per run, at params.epsilon: completeness is judged for one designated
    heavy w0 (given, or the largest-|S| heavy vector; vacuous if nothing
    reaches epsilon) and soundness for every emitted vector.  On an S-box
    w0 is an (a, b) pair.  Run r searches with seed
    base_seed XOR splitmix64(r), every run's seed from one array pass, and
    each component's spectrum and sampler are built once for all runs;
    every draw matches a ``gl.search`` call with that seed.
    """
    if runs < 100:
        raise ValueError(f"need at least 100 runs for a meaningful rate, got {runs}")
    if runs > np.iinfo(np.intp).max // 8:  # 8-byte keys: numpy's largest array holds fewer
        raise CapacityError(f"runs={runs} exceeds the largest array of run keys")
    seeds = rng.stream_key(base_seed, np.arange(runs, dtype=np.uint64)).tolist()
    heavy, found, violated = _search_runs(target, params, seeds, mode)
    names = [name for _, name in heavy]
    if w0 is None:
        # largest |W|; min keeps the first of equals, the smallest (b, a)
        w0 = min(heavy, key=lambda h: -abs(h[0]), default=(0, None))[1]
    elif w0 not in names:
        raise ValueError(f"designated w0={w0} is not epsilon-heavy")
    designated = np.ones(runs, dtype=bool) if w0 is None else found[:, names.index(w0)]
    sbox = isinstance(target, VectorialFunction)
    if w0 is not None:
        w0 = f"a={w0[0]} b={w0[1]}" if sbox else str(w0)
    return TrialReport(
        fixture=f"n={target.n} m={target.m} sbox" if sbox else f"n={target.n} boolean",
        params=params,
        designated=w0,
        completeness_ok=tuple(designated.tolist()),
        soundness_ok=tuple((~violated).tolist()),
        simultaneous_ok=tuple(found.all(axis=1).tolist()),
    )

