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

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .boolfn import BitVector, BooleanFunction, VectorialFunction
from .errors import CapacityError
from .qsim import MODES, SPECTRAL, STATEVECTOR, Sampler, circuit_state, measured_spectrum
from .walsh import WalshSpectrum, as_epsilon, heavy_set_exact, spectra, threshold_count


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
        as_epsilon(self.epsilon)
        _check_delta(self.delta)
        if self.l < 1:
            raise ValueError("sample count l must be positive")
        if not 0 < self.s <= self.l:
            raise ValueError("threshold s must satisfy 0 < s <= l")

    @property
    def count_threshold(self) -> int:
        """ceil(s): the closed integer cut applied to final counts."""
        return math.ceil(self.s)

    def to_json_dict(self) -> dict:
        return {
            "epsilon": float(self.epsilon),
            "delta": self.delta,
            "l": self.l,
            "s": float(self.s),
        }


def _check_delta(delta: float | str) -> float:
    """delta as a float in (0, 1).  A decimal string whose float
    underflows to 0 is a ``CapacityError``."""
    value = float(delta)
    if value == 0 and isinstance(delta, str) and Decimal(delta) > 0:
        raise CapacityError(f"delta={delta} is below the smallest positive float")
    if not 0 < value < 1:
        raise ValueError(f"delta must be in (0, 1), got {value}")
    return value


def derive_params(
    epsilon: float | str | Fraction,
    delta: float | str,
    strict_confidence: bool = False,
) -> GLParams:
    """l and s from (epsilon, delta); natural log, l rounded up.

    ``strict_confidence`` divides delta by floor(4/epsilon^2) so the
    per-candidate bound union-bounds over every possible |S| >= epsilon/2
    candidate simultaneously.  An l too large for a float is a
    ``CapacityError``.
    """
    delta = _check_delta(delta)
    eps = as_epsilon(epsilon)
    eps4 = float(eps**4)  # 0.0 for epsilon below about 1.25e-81
    if strict_confidence and eps4:
        delta = delta / math.floor(4 / (eps * eps))
    bound = math.inf
    if eps4 and delta:
        inverse = 1.0 / delta  # inf below about 5.6e-309, where -log(delta) is still finite
        bound = 8.0 * (math.log(inverse) if inverse < math.inf else -math.log(delta)) / eps4
    if not math.isfinite(bound):
        raise CapacityError(f"l = 8 ln(1/delta)/eps^4 is not finite at epsilon={epsilon}")
    l = max(1, math.ceil(bound))
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


# --- one pass per component ------------------------------------------------
# A Boolean function is a target with the single component b = None, drawn
# from Philox label 0; an S-box has the components b = 1..2^m-1, component
# b drawn from label b.


def _components(target: BooleanFunction | VectorialFunction) -> list[BitVector | None]:
    if isinstance(target, VectorialFunction):
        return [BitVector(target.m, b) for b in range(1, 1 << target.m)]
    return [None]


class _Oracle:
    """One component's exact spectrum, its vectors with |S| >= epsilon in
    ascending order and the integer cut for |S| >= epsilon/2."""

    def __init__(self, spectrum: WalshSpectrum, b: BitVector | None, epsilon: Fraction):
        self.spectrum, self.b = spectrum, b
        self.heavy = np.array(sorted(map(int, heavy_set_exact(spectrum, epsilon))), dtype=np.intp)
        self.cut = threshold_count(spectrum.n, epsilon / 2)

    def names(self, a: np.ndarray) -> list:
        vectors = [BitVector(self.spectrum.n, v) for v in a.tolist()]
        return vectors if self.b is None else [(v, self.b) for v in vectors]

    def verdicts(self, run: np.ndarray, a: np.ndarray, runs: int) -> tuple[np.ndarray, np.ndarray]:
        """(found, low) for the listed pairs (run[i], a[i]): found[r, j] says
        that run r listed heavy[j], low[i] that a[i] is below epsilon/2."""
        found = np.zeros((runs, self.heavy.size), dtype=bool)
        hit = np.isin(a, self.heavy)
        found[run[hit], np.searchsorted(self.heavy, a[hit])] = True
        return found, np.abs(self.spectrum.coeffs[a].astype(np.int64)) < self.cut

    def offenders(self, a: np.ndarray) -> tuple[list, list]:
        """(heavy vectors not listed, listed vectors below epsilon/2) for one
        run that listed ``a``."""
        found, low = self.verdicts(np.zeros_like(a), a, 1)
        return self.names(self.heavy[~found[0]]), self.names(a[low])


def _search_components(
    target: BooleanFunction | VectorialFunction, params: GLParams, seeds: Sequence[int],
    mode: str, oracle: bool,
) -> Iterator[tuple]:
    """Search each component once per seed, holding one batch of component
    spectra (see ``walsh.spectra``) at a time.  Yields (b, oracle, run, a,
    hits), the arrays as ``Sampler.count_runs`` gives them; the oracle at
    params.epsilon (None unless ``oracle``) and the sampler are built once
    and shared by every run.  The spectral source samples the exact spectrum
    that the oracle reads, the statevector source ``qsim.measured_spectrum``
    of the component's simulated circuit."""
    if mode not in MODES:
        raise ValueError(f"unknown sampling mode {mode!r}; use one of {MODES}")
    bs = _components(target)
    # the statevector source without an oracle reads no exact spectrum
    exact = spectra(target, bs) if oracle or mode != STATEVECTOR else repeat(None)
    for b, spectrum in zip(bs, exact):
        checked = _Oracle(spectrum, b, params.epsilon) if oracle else None
        if mode == STATEVECTOR:
            spectrum = measured_spectrum(circuit_state(target, b))
        sampler = Sampler(spectrum)
        label = 0 if b is None else b.value
        yield b, checked, *sampler.count_runs(seeds, label, params.l, params.count_threshold)


def _search_runs(
    target: BooleanFunction | VectorialFunction, params: GLParams, seeds: Sequence[int],
    mode: str,
) -> tuple[list[tuple[int, object]], np.ndarray, np.ndarray]:
    """One run per seed, judged at params.epsilon and held as arrays: the
    heavy vectors as (W, name) pairs, components in order; found[r, j],
    whether run r listed heavy vector j; violated[r], whether it listed one
    below epsilon/2."""
    heavy, found, violated = [], [], np.zeros(len(seeds), dtype=bool)
    for _, oracle, run, a, _ in _search_components(target, params, seeds, mode, True):
        listed, low = oracle.verdicts(run, a, len(seeds))
        heavy += zip(oracle.spectrum.coeffs[oracle.heavy].tolist(), oracle.names(oracle.heavy))
        found.append(listed)
        violated[run[low]] = True
    return heavy, np.hstack(found), violated


def search(
    target: BooleanFunction | VectorialFunction, params: GLParams, seed: int,
    mode: str = SPECTRAL, oracle: bool = False,
) -> tuple[HeavyList, VerificationReport | None]:
    """Algorithm 1 on a Boolean function, Algorithm 2 on an S-box; entries
    sorted by (b, a).  Algorithm 2 runs the counting loop independently for
    every nonzero output mask b: counters are keyed by the pair (a, b) and
    reset between components, since the accuracy guarantee is per (a, b)
    and pooling counts across b would mix distributions.  Total queries:
    l for a Boolean function, l * (2^m - 1) for an S-box.

    With ``oracle`` the entries get exact_s and are verified at
    params.epsilon, all from one spectrum per component; without it the
    report is None."""
    entries, offenders, queries = [], [], 0
    for b, checked, _, a, hits in _search_components(target, params, [seed], mode, oracle):
        queries += params.l
        if checked is None:
            exact = [None] * a.size
        else:
            exact = (checked.spectrum.coeffs[a].astype(np.int64) / (1 << target.n)).tolist()
            offenders.append(checked.offenders(a))
        vectors = [BitVector(target.n, v) for v in a.tolist()]
        entries += map(HeavyEntry, vectors, repeat(b), hits.tolist(), exact)
    result = HeavyList(params, tuple(entries), queries, int(seed))
    return result, _report(offenders) if oracle else None


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


def _report(offenders: Iterable[tuple[list, list]]) -> VerificationReport:
    """One report from the (missing, violators) of every component."""
    missing, violators = [], []
    for m, v in offenders:
        missing += m
        violators += v
    return VerificationReport(
        complete=not missing,
        sound=not violators,
        missing=tuple(missing),
        violators=tuple(violators),
    )


def verify_against_oracle(
    target: BooleanFunction | VectorialFunction,
    result: HeavyList,
) -> VerificationReport:
    """Compare a run's output against the exact spectrum at its own
    params.epsilon (completeness) and epsilon/2 (soundness).  An entry whose
    b is not a component of the target or whose a is not n bits names no
    vector of it and is a ``ValueError``."""
    bs = _components(target)
    listed = {b: [] for b in bs}
    for e in result.entries:
        if e.b not in listed or e.a.n != target.n:
            raise ValueError(f"entry a={e.a} b={e.b} names no vector of the target")
        listed[e.b].append(int(e.a))
    return _report(
        _Oracle(spectrum, b, result.params.epsilon).offenders(np.array(listed[b], dtype=np.intp))
        for b, spectrum in zip(bs, spectra(target, bs))
    )
