"""Heavy-coefficient search by repeated circuit sampling.

Both algorithms draw l outcomes per distribution, count repeats, and keep
every outcome seen at least ceil(s) times, where

    l = ceil(8 * ln(1/delta) / epsilon^4),    s = epsilon^2 * l / 2.

The logarithm is the NATURAL log: the per-candidate failure probability is
Hoeffding-bounded by exp(-2l(epsilon^2/4)^2) = exp(-l*epsilon^4/8), and
solving that <= delta for l forces base e.  A first observation of an
outcome counts as 1, and the threshold comparison is the closed
``count >= ceil(s)``, which can only strengthen the |S| >= epsilon/2
property of emitted vectors.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import groupby
from operator import attrgetter
from typing import IO, Iterable, Sequence

import numpy as np

from .boolfn import BitVector, BooleanFunction, VectorialFunction
from .qsim import SPECTRAL, circuit_sampler
from .walsh import WalshSpectrum, as_fraction, heavy_set_exact, spectrum_of, threshold_count


@dataclass(frozen=True)
class GLParams:
    """Sampling parameters (epsilon, delta, l, s).

    ``delta`` is the per-candidate failure budget actually used by the
    formulas; with strict confidence it is the requested budget divided by
    the Parseval candidate bound floor(4/epsilon^2).
    """

    epsilon: Fraction
    delta: float
    l: int
    s: Fraction

    def __post_init__(self):
        if not 0 < self.epsilon <= 1:
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.l < 1:
            raise ValueError("sample count l must be positive")
        if not 0 < self.s <= self.l:
            raise ValueError("threshold s must satisfy 0 < s <= l")

    @property
    def count_threshold(self) -> int:
        """ceil(s): the closed integer cut applied to final counts."""
        return -((-self.s.numerator) // self.s.denominator)

    def to_json_dict(self) -> dict:
        return {
            "epsilon": float(self.epsilon),
            "delta": self.delta,
            "l": self.l,
            "s": float(self.s),
        }


def derive_params(
    epsilon: float | str | Fraction,
    delta: float,
    strict_confidence: bool = False,
) -> GLParams:
    """l and s from (epsilon, delta); natural log, l rounded up.

    ``strict_confidence`` divides delta by floor(4/epsilon^2) so the
    per-candidate bound union-bounds over every possible |S| >= epsilon/2
    candidate simultaneously.
    """
    eps = as_fraction(epsilon)
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {eps}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if strict_confidence:
        delta = delta / math.floor(4 / (eps * eps))
    l = max(1, math.ceil(8.0 * math.log(1.0 / delta) / float(eps**4)))
    s = eps * eps * l / 2
    return GLParams(epsilon=eps, delta=delta, l=l, s=s)


@dataclass(frozen=True)
class HeavyEntry:
    """One emitted vector with its sample count.

    ``b`` is None for Algorithm 1 results; ``exact_s`` is the oracle
    annotation S(a) (or S_{b.F}(a)) when available.
    """

    a: BitVector
    b: BitVector | None
    count: int
    exact_s: float | None = None


@dataclass(frozen=True)
class HeavyList:
    """Output of one algorithm run: entries sorted by (b, a) encoding."""

    params: GLParams
    entries: tuple[HeavyEntry, ...]
    queries: int
    seed: int
    mode: str

    def vectors(self) -> set[BitVector]:
        return {e.a for e in self.entries}

    def pairs(self) -> set[tuple[BitVector, BitVector]]:
        return {(e.a, e.b) for e in self.entries if e.b is not None}

    def to_json_dict(self) -> dict:
        entries = []
        for e in self.entries:
            record: dict = {"a": str(e.a)}
            if e.b is not None:
                record["b"] = str(e.b)
            record["count"] = e.count
            if e.exact_s is not None:
                record["exact_S"] = e.exact_s
            entries.append(record)
        return {
            "params": self.params.to_json_dict(),
            "entries": entries,
            "queries": self.queries,
            "seed": self.seed,
        }

    def write_json(self, out: IO[str]):
        json.dump(self.to_json_dict(), out, indent=2)
        out.write("\n")


# --- one pass per component ------------------------------------------------
# A Boolean function is a target with the single component b = None, drawn
# from Philox label 0; an S-box has the components b = 1..2^m-1, component
# b drawn from label b.  Only _components tells the two kinds apart.


def _components(target: BooleanFunction | VectorialFunction) -> list[BitVector | None]:
    if isinstance(target, VectorialFunction):
        return [BitVector(target.m, b) for b in range(1, 1 << target.m)]
    return [None]


def _annotate(entries: Iterable[HeavyEntry], spectrum: WalshSpectrum) -> list[HeavyEntry]:
    return [HeavyEntry(e.a, e.b, e.count, spectrum.s(e.a)) for e in entries]


class _Oracle:
    """One component's exact spectrum, its vectors with |S| >= epsilon and
    the integer cut for |S| >= epsilon/2."""

    def __init__(self, spectrum: WalshSpectrum, b: BitVector | None, epsilon: Fraction):
        self.spectrum, self.b = spectrum, b
        self.heavy = sorted(heavy_set_exact(spectrum, epsilon), key=int)
        self.cut = threshold_count(spectrum.n, epsilon / 2)

    def name(self, a: BitVector):
        return a if self.b is None else (a, self.b)

    def check(self, entries: list[HeavyEntry]) -> tuple[list, list]:
        """(heavy vectors not listed, listed vectors below epsilon/2)."""
        listed = {e.a for e in entries}
        missing = [self.name(a) for a in self.heavy if a not in listed]
        violators = [self.name(e.a) for e in entries if abs(self.spectrum[e.a]) < self.cut]
        return missing, violators


@dataclass
class _Run:
    """One run's outcome, summed over the components of a target."""

    entries: list = field(default_factory=list)
    queries: int = 0
    missing: list = field(default_factory=list)
    violators: list = field(default_factory=list)


_DRAW_BATCH = 1 << 14  # draws per Sampler.draw_sorted call; bounds a batch's memory


def _search_component(
    target: BooleanFunction | VectorialFunction, b: BitVector | None, params: GLParams,
    seeds: Sequence[int], mode: str, epsilon: Fraction | None, runs: list[_Run],
) -> list[tuple[int, object]]:
    """Search component b once per seed, adding to ``runs``.  Its exact
    spectrum (only given an ``epsilon``) and its sampler are built once and
    shared by every run.  Returns the heavy vectors as (W, name) pairs.

    Runs are counted a batch at a time: each run's l draws come sorted, so
    one run-length pass over the batch gives every (run, a, count), in
    ascending a within a run."""
    spectrum = None if epsilon is None else spectrum_of(target, b)
    oracle = None if spectrum is None else _Oracle(spectrum, b, epsilon)
    sampler = circuit_sampler(target, b, mode, spectrum)
    label = 0 if b is None else b.value
    l, threshold = params.l, params.count_threshold
    rows = max(1, _DRAW_BATCH // l)
    for start in range(0, len(seeds), rows):
        draws = sampler.draw_sorted(seeds[start : start + rows], label, l).ravel()
        first = np.empty(draws.size, dtype=bool)  # where a run of equal draws starts
        np.not_equal(draws[1:], draws[:-1], out=first[1:])
        first[::l] = True  # and where each row starts, index 0 included
        starts = np.flatnonzero(first)
        counts = np.diff(starts, append=draws.size)
        keep = counts >= threshold
        starts, counts = starts[keep], counts[keep]
        bounds = np.searchsorted(starts, np.arange(0, draws.size + 1, l)).tolist()
        values, counts = draws[starts].tolist(), counts.tolist()
        for run, lo, hi in zip(runs[start : start + rows], bounds, bounds[1:]):
            entries = [
                HeavyEntry(a=BitVector(sampler.n, v), b=b, count=c)
                for v, c in zip(values[lo:hi], counts[lo:hi])
            ]
            run.queries += l
            if oracle is not None:
                entries = _annotate(entries, spectrum)
                missing, violators = oracle.check(entries)
                run.missing += missing
                run.violators += violators
            run.entries += entries
    return [] if oracle is None else [(spectrum[a], oracle.name(a)) for a in oracle.heavy]


def _search_runs(
    target: BooleanFunction | VectorialFunction, params: GLParams, seeds: Sequence[int],
    mode: str, epsilon: Fraction | None,
) -> tuple[list[tuple[int, object]], list[_Run]]:
    """One run per seed, a component at a time so that one component
    spectrum is held at once; entries come out sorted by (b, a)."""
    heavy, runs = [], [_Run() for _ in seeds]
    for b in _components(target):
        heavy += _search_component(target, b, params, seeds, mode, epsilon, runs)
    return heavy, runs


def search(
    target: BooleanFunction | VectorialFunction, params: GLParams, seed: int, mode: str,
    oracle: bool,
) -> tuple[HeavyList, VerificationReport | None]:
    """Algorithm 1 on a Boolean function, Algorithm 2 on an S-box.  With
    ``oracle`` the entries get exact_s and are verified at params.epsilon,
    all from one spectrum per component; without it the report is None."""
    _, (run,) = _search_runs(target, params, [seed], mode, params.epsilon if oracle else None)
    result = HeavyList(params, tuple(run.entries), run.queries, int(seed), mode)
    return result, _report(run.missing, run.violators) if oracle else None


def run_algorithm1(
    f: BooleanFunction, params: GLParams, seed: int, mode: str = SPECTRAL
) -> HeavyList:
    """Sample the single-output circuit l times and keep the frequent
    outcomes; exactly l oracle queries."""
    return search(f, params, seed, mode, False)[0]


def run_algorithm2(
    F: VectorialFunction, params: GLParams, seed: int, mode: str = SPECTRAL
) -> HeavyList:
    """Run the counting loop independently for every nonzero output mask b.

    Counters are keyed by the pair (a, b) and reset between components:
    the accuracy guarantee is per (a, b), and pooling counts across b would
    mix distributions.  Total queries: l * (2^m - 1).
    """
    return search(F, params, seed, mode, False)[0]


def annotate_with_oracle(
    result: HeavyList, target: BooleanFunction | VectorialFunction
) -> HeavyList:
    """Fill each entry's exact_s from the exact transform of its component."""
    entries = []
    for b, group in groupby(result.entries, key=attrgetter("b")):
        entries += _annotate(group, spectrum_of(target, b))
    return replace(result, entries=tuple(entries))


@dataclass(frozen=True)
class VerificationReport:
    """Exact-oracle check of one result list.

    ``complete``: every vector with |S| >= epsilon made it into the list.
    ``sound``: every listed vector has |S| >= epsilon/2.
    Offenders are reported as vectors a for a Boolean target and as
    (a, b) pairs for an S-box.
    """

    complete: bool
    sound: bool
    missing: tuple
    violators: tuple

    def ok(self) -> bool:
        return self.complete and self.sound


def _report(missing: list, violators: list) -> VerificationReport:
    return VerificationReport(
        complete=not missing,
        sound=not violators,
        missing=tuple(missing),
        violators=tuple(violators),
    )


def verify_against_oracle(
    target: BooleanFunction | VectorialFunction,
    result: HeavyList,
    epsilon: float | str | Fraction,
) -> VerificationReport:
    """Compare a run's output against the exact spectrum at threshold
    epsilon (completeness) and epsilon/2 (soundness)."""
    eps = as_fraction(epsilon)
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {eps}")
    listed = defaultdict(list)
    for e in result.entries:
        listed[e.b].append(e)
    missing, violators = [], []
    for b in _components(target):
        m, v = _Oracle(spectrum_of(target, b), b, eps).check(listed[b])
        missing += m
        violators += v
    return _report(missing, violators)
