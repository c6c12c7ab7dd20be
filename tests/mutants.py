"""Mutation gate: each entry replaces one exact snippet of ``src/walshgl`` in
a copy of ``src/`` and names the tests that must fail on that copy.

Run from anywhere as ``python tests/mutants.py``; it needs only the standard
library and the test dependencies, and pytest does not collect it.  Each
killer runs alone against the copy and must exit with pytest's code 1
(collected and failed; 0 means the mutant survived, 4 or 5 that the test id
is missing).  The script exits 1 naming every survivor.  Mutants that no
test can kill, since they change no result, are declared in ``EQUIVALENT``
with the reason and not run.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "walshgl"
GOLDEN = "tests/test_golden.py::test_cli_output_matches_golden_bytes"
STARTUP = "tests/test_startup.py::test_unset_variable_caps_the_pool_and_is_removed"

# (file in src/walshgl, exact snippet, its replacement, the tests that must fail on the copy)
MUTANTS = [
    # boolfn.parity without the fold of the high byte
    ("boolfn.py", "(values ^ (values >> 8)) & 0xFF", "values & 0xFF",
     ["tests/test_boolfn.py::TestParity::test_every_value_below_2_16_equals_shift_xor",
      f"{GOLDEN}[spectrum-s12-b]"]),
    # monte_carlo's run labels shifted by one
    ("stats.py", "np.arange(runs, dtype=np.uint64)", "np.arange(1, runs + 1, dtype=np.uint64)",
     [f"{GOLDEN}[{case}]" for case in ("verify-planted17", "verify-example1-statevector",
                                       "verify-sbox3-statevector", "verify-sbox3-20000-maxseed")]),
    # measured_spectrum without its rounding margin
    ("qsim.py", "if worst > _ROUNDING_MARGIN:", "if False:",
     ["tests/test_qsim.py::TestStatevectorSpectrum::"
      "test_perturbed_marginal_is_refused_before_any_draw[one-percent]"]),
    # apply_uip's phases all negated: a global sign, which only the amplitude dump shows
    ("qsim.py", "_SIGN_SPECTRA[0][parity(y & b), 0]", "_SIGN_SPECTRA[0][1 - parity(y & b), 0]",
     [f"{GOLDEN}[sample-sbox3-dump-b5]", f"{GOLDEN}[sample-sbox3-dump-b7]"]),
    # VerificationReport always complete, always sound
    ("gl.py", "return not self.missing", "return True",
     ["tests/test_gl.py::TestVerifyAgainstOracle::test_missing_vector_reported"]),
    ("gl.py", "return not self.violators", "return True",
     ["tests/test_gl.py::TestVerifyAgainstOracle::test_adversarial_zero_vector_flagged"]),
    # the verify JSON's completeness_vacuous inverted
    ("stats.py", "self.designated is None", "self.designated is not None",
     [f"{GOLDEN}[verify-planted17]", f"{GOLDEN}[verify-sbox3-statevector]"]),
    # _narrow without its range check: 2^32 would wrap to 0
    ("walsh.py", "if int(values.min()) < -(1 << n) or int(values.max()) > 1 << n:", "if False:",
     ["tests/test_walsh.py::TestExports::test_spectrum_refuses_coefficient_outside_range"]),
    # Sampler without its Parseval check, and without the falls of its wrapped ends
    ("qsim.py", "if total != 1 << self.bits:", "if False:",
     ["tests/test_qsim.py::TestSampling::"
      "test_spectrum_that_wraps_to_4_to_the_n_is_refused_in_bounded_memory"]),
    ("qsim.py", "(int(np.count_nonzero(ends[1:] < ends[:-1])) << 64)", "0",
     ["tests/test_qsim.py::TestSampling::"
      "test_spectrum_that_wraps_to_4_to_the_n_is_refused_in_bounded_memory"]),
    # _fwht_packed's int8 stage one level too long: 2^7 overflows int8
    ("walsh.py", "a = min(block, 1 << 6) // 8", "a = min(block, 1 << 7) // 8",
     ["tests/test_walsh.py::TestStageEdges"]),
    # the OpenBLAS guard: the variable left set, set over the caller's value,
    # never set, and a cap of 64 (the last two only show on two or more cores)
    ("__init__.py", 'del os.environ["OPENBLAS_NUM_THREADS"]', "pass", [STARTUP]),
    ("__init__.py", '_cap = "OPENBLAS_NUM_THREADS" not in os.environ', "_cap = True",
     ["tests/test_startup.py::test_explicit_variable_wins"]),
    ("__init__.py", '_cap = "OPENBLAS_NUM_THREADS" not in os.environ', "_cap = False", [STARTUP]),
    ("__init__.py", 'os.environ["OPENBLAS_NUM_THREADS"] = "1"',
     'os.environ["OPENBLAS_NUM_THREADS"] = "64"', [STARTUP]),
    # load_sbox decoding in the locale's encoding
    ("boolfn.py", "read_bytes().decode().splitlines() if ln.strip()]\n    if not lines:",
     "read_text().splitlines() if ln.strip()]\n    if not lines:",
     ["tests/test_cli.py::TestEntryPoint::test_input_files_decode_as_utf8_in_every_locale[sbox]"]),
]

# (file in src/walshgl, exact snippet, its replacement, why no test can kill it)
EQUIVALENT = [
    ("qsim.py", "blk += self._ends[blk + 1] <= u", "blk += self._ends[blk + 1] < u",
     "a key equal to its block's end then takes no step, and the searchsorted fallback,"
     " which takes every key whose block ends at or below it, finds its block"),
]


def survivors(name: str, snippet: str, replacement: str, killers: list[str]) -> list[str]:
    """The killers that do not fail on a copy of ``src/`` with the snippet replaced."""
    text = (SRC / name).read_text()
    if text.count(snippet) != 1:
        return [f"{name} holds {snippet!r} {text.count(snippet)} times, not once"]
    with tempfile.TemporaryDirectory() as copy:
        shutil.copytree(ROOT / "src", f"{copy}/src")
        Path(f"{copy}/src/walshgl/{name}").write_text(text.replace(snippet, replacement))
        env = {**os.environ, "PYTHONPATH": f"{copy}/src"}
        # the copy is the walshgl that gets imported, and it holds the mutant
        module = "walshgl." + name[: -len(".py")]
        check = (f"import {module} as m; assert m.__file__.startswith({copy!r})"
                 f" and {snippet!r} not in open(m.__file__).read(), m.__file__")
        subprocess.run([sys.executable, "-c", check], env=env, cwd=ROOT, check=True)
        left = []
        for test in killers:
            rc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                                 "no:cacheprovider", test], env=env, cwd=ROOT).returncode
            if rc != 1:
                left.append(f"{test} exits {rc}")
        return left


def main() -> int:
    failed = []
    for name, snippet, replacement, killers in MUTANTS:
        left = survivors(name, snippet, replacement, killers)
        label = f"{name}: {snippet!r} -> {replacement!r}"
        print(f"{label}: {'SURVIVES' if left else 'killed by every named test'}")
        failed += [f"{label}: {reason}" for reason in left]
    for name, snippet, replacement, reason in EQUIVALENT:
        print(f"{name}: {snippet!r} -> {replacement!r}: declared equivalent, not run: {reason}")
    for line in failed:
        print(f"survivor: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
