"""The four benchmark workloads: seeded inputs, CLI arguments and checks.

Every input is generated here from the benchmark seed; the program gets
only the generated files and its argv.  The checks do not trust the code
under test: expected values come from how the inputs were built (a planted
coefficient) or from the benchmark's own arithmetic (its own Moebius
transform, butterfly and AES table), never from ``walshgl``.

Why each workload, what it stresses and what it bypasses:

gl-tt22
    ``gl --tt`` on a planted n=22 function with S(w0) = 1/2.  One huge
    target: a 32 MiB int64 butterfly, well past L2, computed three times
    (run, annotate, verify), plus the hex parse and a 4M-entry cumsum, but
    only 6,136 draws.  Bypasses the component path and the CSV export.
mc1-tt18
    ``verify --tt`` on a planted n=18 function, 200 runs.  The
    single-output Monte-Carlo loop: a 2 MiB butterfly recomputed 201 times
    and a sampler built per run.  Its cache regime differs from gl-tt22's,
    which separates a faster kernel from fewer kernel calls.
mc2-aes
    ``verify --sbox`` on the AES S-box, 100 runs.  25,755 tiny component
    builds and transforms, 25,500 Philox generators and 14.9M draws: cost
    is per-call Python overhead plus draw volume.  Bypasses the large-n
    butterfly.
spectrum-anf20
    ``spectrum --anf`` on a random cubic ANF with 1,024 monomials at n=20,
    CSV to a file.  The exact half only: ANF parse, one butterfly and a
    52 MB CSV export.  Bypasses the sampler, so sampler changes must leave
    it flat.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

NAMES = ("gl-tt22", "mc1-tt18", "mc2-aes", "spectrum-anf20")
AES_SBOX = Path("tests/data/aes_sbox.sbox")


@dataclass(frozen=True)
class Output:
    code: int
    stdout: bytes
    stderr: bytes
    out_file: bytes | None


@dataclass
class Workload:
    name: str
    argv: list[str]  # arguments after ``walshgl``
    warm_argv: list[str]  # the excluded warm-up job: same subcommand, small input
    out_path: Path | None  # file the job writes through --out
    check: Callable[[Output], list[str]]  # problems found; empty means correct
    corrupt: Callable[[Output], Output]  # a wrong output the check must reject
    butterfly_n: int  # largest transform size in the job


# --- the benchmark's own arithmetic -------------------------------------------


def _parity(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint32)
    for shift in (16, 8, 4, 2, 1):
        x ^= x >> np.uint32(shift)
    return (x & np.uint32(1)).astype(np.uint8)


def _butterfly(signs: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform of a +-1 vector, written independently of
    ``walshgl.walsh``."""
    w = signs.astype(np.int64)
    h = 1
    while h < w.shape[0]:
        pairs = w.reshape(-1, 2, h)
        top = pairs[:, 0, :] + pairs[:, 1, :]
        pairs[:, 1, :] = pairs[:, 0, :] - pairs[:, 1, :]
        pairs[:, 0, :] = top
        h *= 2
    return w


def _sample_count(eps: float, delta: float) -> int:
    return math.ceil(8 * math.log(1 / delta) / eps**4)


def _bits(v: int, n: int) -> str:
    return format(v, f"0{n}b")


# --- inputs ---------------------------------------------------------------------


def planted_truth_table(n: int, rng: np.random.Generator, path: Path) -> str:
    """Write x -> w0.x with exactly 2^(n-2) outputs flipped, so W(w0) is
    2^n - 2*2^(n-2) = 2^(n-1) and S(w0) = 1/2 exactly.  Returns w0."""
    w0 = int(rng.integers(0, 1 << n))
    bits = _parity(np.arange(1 << n, dtype=np.uint32) & np.uint32(w0))
    bits[rng.choice(1 << n, size=1 << (n - 2), replace=False)] ^= 1
    path.write_text(f"n={n}\n{np.packbits(bits).tobytes().hex()}\n")
    return _bits(w0, n)


def random_cubic_anf(n: int, terms: int, rng: np.random.Generator) -> list[tuple[int, ...]]:
    """``terms`` distinct degree-3 monomials over x1..xn, in random order."""
    cubes = list(itertools.combinations(range(1, n + 1), 3))
    return [cubes[int(k)] for k in rng.choice(len(cubes), size=terms, replace=False)]


def anf_spectrum(n: int, monomials: list[tuple[int, ...]]) -> np.ndarray:
    """W of the ANF: coefficients -> truth table by the Moebius butterfly,
    then the Walsh butterfly.  x1 is the most significant bit."""
    coeffs = np.zeros(1 << n, dtype=np.uint8)
    for mono in monomials:
        coeffs[sum(1 << (n - i) for i in mono)] ^= 1
    h = 1
    while h < coeffs.shape[0]:
        view = coeffs.reshape(-1, 2 * h)
        view[:, h:] ^= view[:, :h]
        h *= 2
    return _butterfly(1 - 2 * coeffs.astype(np.int64))


def read_sbox(path: Path) -> np.ndarray:
    """Values of an n=8 .sbox file (header line, then 256 integers)."""
    tokens = path.read_text().split("\n", 1)[1].replace(",", " ").split()
    return np.array([int(t, 0) for t in tokens], dtype=np.uint32)


def max_abs_walsh(table: np.ndarray) -> int:
    """Largest |W_{b.F}(a)| over all a and nonzero b of an 8-bit S-box, by
    a dense +-1 Hadamard matrix product."""
    idx = np.arange(256, dtype=np.uint32)
    hadamard = 1 - 2 * _parity(idx[:, None] & idx[None, :]).astype(np.int64)
    components = 1 - 2 * _parity(table[:, None] & idx[None, 1:]).astype(np.int64)
    return int(np.abs(hadamard @ components).max())


# --- checks -----------------------------------------------------------------------


def _json(out: Output, problems: list[str]):
    try:
        doc = json.loads(out.stdout)
    except ValueError:
        doc = None
    if not isinstance(doc, dict):
        problems.append("stdout is not a JSON object")
        return None
    return doc


def _check_gl(w0: str, l: int, threshold: int, seed: int):
    def check(out: Output) -> list[str]:
        problems = [] if out.code == 0 else [f"exit code {out.code}"]
        doc = _json(out, problems)
        if doc is not None:
            entries = doc.get("entries")
            if (
                not isinstance(entries, list)
                or [e.get("a") for e in entries] != [w0]
                or entries[0].get("exact_S") != 0.5
                or not entries[0].get("count", 0) >= threshold
            ):
                problems.append(f"entries are not exactly [{w0}] with S=0.5")
            if doc.get("queries") != l or doc.get("params", {}).get("l") != l:
                problems.append(f"queries or l differ from {l}")
            if doc.get("seed") != seed:
                problems.append("seed not echoed")
        if out.stderr.decode().splitlines()[-1:] != ["oracle verdict: complete=True sound=True"]:
            problems.append("oracle verdict is not complete=True sound=True")
        return problems

    def corrupt(out: Output) -> Output:  # drop the one entry
        doc = json.loads(out.stdout)
        doc["entries"] = doc["entries"][1:]
        return replace(out, stdout=(json.dumps(doc, indent=2) + "\n").encode())

    return check, corrupt


def _check_verify(runs: int, designated: str | None):
    def check(out: Output) -> list[str]:
        problems = [] if out.code == 0 else [f"exit code {out.code}"]
        doc = _json(out, problems)
        if doc is not None:
            if doc.get("runs") != runs or doc.get("passed") is not True:
                problems.append("report did not pass")
            for gate in ("completeness", "soundness"):
                if doc.get(gate, {}).get("failures") != 0:
                    problems.append(f"{gate} failures are not 0")
                per_run = doc.get("per_run", {}).get(f"{gate}_ok")
                if per_run != [True] * runs:
                    problems.append(f"per-run {gate} is not {runs} passes")
            if doc.get("designated") != designated:
                problems.append(f"designated is not {designated}")
            if doc.get("completeness_vacuous") is not (designated is None):
                problems.append("completeness_vacuous is wrong")
        if not re.search(
            rf"^runs={runs} completeness_failures=0 soundness_failures=0 .* passed=True$",
            out.stderr.decode(),
            re.M,
        ):
            problems.append("summary line does not report a pass")
        return problems

    def corrupt(out: Output) -> Output:  # drop one per-run entry
        doc = json.loads(out.stdout)
        doc["per_run"]["completeness_ok"].pop()
        return replace(out, stdout=(json.dumps(doc, indent=2) + "\n").encode())

    return check, corrupt


def _check_spectrum(n: int, spectrum: np.ndarray, rows: list[int]):
    scale = 1 << n

    def row(a: int, w: int) -> bytes:
        return f"{a},{_bits(a, n)},{w},{w / scale!r}".encode()

    order = np.lexsort((np.arange(scale), -np.abs(spectrum)))[:8]
    summary = [f"parseval: sum W^2 = {4**n} (ok, expected {4**n})"] + [
        f"top |S|: {_bits(int(a), n)}  W={int(spectrum[a])}  S={int(spectrum[a]) / scale!r}"
        for a in order
    ]

    def check(out: Output) -> list[str]:
        problems = [] if out.code == 0 else [f"exit code {out.code}"]
        if out.stdout.decode().splitlines() != summary:
            problems.append("parseval or top-coefficient summary differs")
        lines = (out.out_file or b"").split(b"\n")
        if len(lines) != scale + 2 or lines[0] != b"index,bitstring,W,S" or lines[-1] != b"":
            problems.append(f"CSV does not have 2^{n}+1 rows")
        elif any(lines[a + 1] != row(a, int(spectrum[a])) for a in rows):
            problems.append("a sampled CSV row differs from the independent W")
        return problems

    def corrupt(out: Output) -> Output:  # change one W
        a, w = rows[0], int(spectrum[rows[0]])
        good, bad = (b"\n" + row(a, v) + b"\n" for v in (w, w + 4))
        return replace(out, out_file=out.out_file.replace(good, bad, 1))

    return check, corrupt


# --- workloads ----------------------------------------------------------------------


def _anf(monomials: list[tuple[int, ...]]) -> str:
    return "+".join("*".join(f"x{i}" for i in mono) for mono in monomials)


def build(name: str, seed: int, work: Path) -> Workload:
    """Generate the inputs of ``name`` for ``seed`` under ``work``.

    The warm-up job runs the same subcommand on a small input: it compiles
    and caches the bytecode and touches every code path, at a small
    fraction of a measured job's cost.
    """
    rng = np.random.default_rng([seed, NAMES.index(name)])
    if name in ("gl-tt22", "mc1-tt18"):
        n = 22 if name == "gl-tt22" else 18
        path, warm = work / f"planted{n}.tt", work / "warm.tt"
        w0 = planted_truth_table(n, rng, path)
        planted_truth_table(10, rng, warm)
        eps, delta = 0.25, 0.05
        if name == "gl-tt22":
            l = _sample_count(eps, delta)
            check, corrupt = _check_gl(w0, l, math.ceil(eps * eps * l / 2), seed)
            command = ["gl"]
        else:
            check, corrupt = _check_verify(200, w0)
            command = ["verify", "--runs", "200"]
        params = ["--eps", str(eps), "--delta", str(delta), "--seed", str(seed)]
        return Workload(name, [*command, "--tt", str(path), *params],
                        [*command, "--tt", str(warm), *params], None, check, corrupt, n)
    if name == "mc2-aes":
        eps = 0.45
        table = read_sbox(AES_SBOX)
        # No (a, b) of AES reaches |S| >= eps, so nothing is designated and
        # completeness is vacuous; soundness is what the runs check.
        if max_abs_walsh(table) >= eps * 256:
            raise ValueError(f"{AES_SBOX} is not the AES S-box")
        check, corrupt = _check_verify(100, None)
        warm = work / "aes_low4.sbox"  # 15 components instead of 255
        warm.write_text("n=8 m=4\n" + " ".join(str(v & 15) for v in table) + "\n")
        params = ["--eps", str(eps), "--delta", "0.05", "--runs", "100", "--seed", str(seed)]
        return Workload(name, ["verify", "--sbox", str(AES_SBOX), *params],
                        ["verify", "--sbox", str(warm), *params], None, check, corrupt, 8)
    if name == "spectrum-anf20":
        n = 20
        monomials = random_cubic_anf(n, 1024, rng)
        rows = sorted({0, (1 << n) - 1, *(int(a) for a in rng.integers(0, 1 << n, size=62))})
        check, corrupt = _check_spectrum(n, anf_spectrum(n, monomials), rows)
        out_path = work / "spectrum.csv"
        argv = ["spectrum", "--anf", _anf(monomials), "--n", str(n), "--out", str(out_path)]
        warm = ["spectrum", "--anf", _anf(random_cubic_anf(12, 64, rng)), "--n", "12",
                "--out", str(work / "warm.csv")]
        return Workload(name, argv, warm, out_path, check, corrupt, n)
    raise ValueError(f"unknown workload {name!r}")
