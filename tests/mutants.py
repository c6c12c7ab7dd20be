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
    # the sampler's squares in uint32, and parseval_sum's in int32: W^2 = 4^n wraps from n = 16
    ("qsim.py", "np.empty(chunk.shape, dtype=np.uint64)", "np.empty(chunk.shape, dtype=np.uint32)",
     [f"{GOLDEN}[verify-planted17]"]),
    ("walsh.py", "_widened(self.coeffs, np.uint64)", "_widened(self.coeffs, np.int32)",
     [f"{GOLDEN}[spectrum-tt17-bin]"]),
    # Sampler.locate: a key at a prefix taken as below it, the fallback's block one
    # early, keys at their guided block's end not sent to the fallback, and the
    # guide's edges rounded down instead of up
    ("qsim.py", "(prefix <= u)", "(prefix < u)",
     ["tests/test_acceptance.py::test_criterion_4_bernstein_vazirani_exact"]),
    ("qsim.py", 'side="right"', 'side="left"', [f"{GOLDEN}[gl-s12]"]),
    ("qsim.py", "late = np.flatnonzero(self._ends[blk + 1] <= u)",
     "late = np.flatnonzero(self._ends[blk + 1] < u)", [f"{GOLDEN}[gl-s12]"]),
    ("qsim.py", "edge = ends[start : start + step + 1] + np.uint64((1 << shift) - 1)",
     "edge = ends[start : start + step + 1]", [f"{GOLDEN}[sample-aes-b]"]),
    # _fwht_packed's int16 stage one level too long (2^15 overflows int16), and
    # each of its three regroupings of the index bits transposed wrongly
    ("walsh.py", "b = min(block, 1 << 14) // (8 * a)", "b = min(block, 1 << 15) // (8 * a)",
     ["tests/test_walsh.py::TestHalfWidthSpectra::test_widest_coefficients_at_n17[zero]"]),
    ("walsh.py", "order.transpose(0, 3, 1, 2)", "order.transpose(0, 3, 2, 1)",
     ["tests/test_acceptance.py::test_criterion_1_fwht_equals_naive_oracle"]),
    ("walsh.py", "b, 8).transpose(0, 3, 2, 1, 4)", "b, 8).transpose(0, 2, 3, 1, 4)",
     ["tests/test_acceptance.py::test_criterion_1_fwht_equals_naive_oracle"]),
    ("walsh.py", "medium.reshape(-1, b, c, 8 * a)", "medium.reshape(-1, c, b, 8 * a)",
     ["tests/test_acceptance.py::test_criterion_1_fwht_equals_naive_oracle"]),
    # the CSV: a row below 10^k keeps one zero digit too many, the tail table is
    # one byte too narrow, and the first chunk's zeroed low digits are not restored
    ("walsh.py", "range(len(str(start)), digits)", "range(len(str(start)) + 1, digits)",
     ["tests/test_cli.py::TestSpectrumCommand::test_example1_csv"]),
    ("walsh.py", "width = max(map(len, tails))", "width = -1 + max(map(len, tails))",
     ["tests/test_cli.py::TestSpectrumCommand::test_example1_csv"]),
    ("walsh.py", "if start == 0 and d > 1:", "if False:", [f"{GOLDEN}[spectrum-anf17-csv]"]),
    # measured_spectrum with a rounding margin of 0.25 and without its square root,
    # and the ASCII fallback of _binary_out handing bytes to a text stdout
    ("qsim.py", "_ROUNDING_MARGIN = 1e-6", "_ROUNDING_MARGIN = 0.25",
     ["tests/test_qsim.py::TestStatevectorSpectrum::"
      "test_perturbed_marginal_is_refused_before_any_draw[one-percent]"]),
    ("qsim.py", "scaled = np.sqrt(state.register_marginal(0)) * (1 << n)",
     "scaled = state.register_marginal(0) * (1 << n)",
     ["tests/test_cli.py::TestSampleCommand::test_chunked_dump_equals_one_line_per_amplitude[1]"]),
    ("cli.py", "nullcontext(SimpleNamespace(write=lambda data:"
     ' text.write(bytes(data).decode("ascii"))))', "nullcontext(text)",
     ["tests/test_cli.py::TestEntryPoint::test_text_stdout_gets_the_bytes_of_out[spectrum-n1]"]),
    # the exact half's selections: heavy_set_exact without its negative scan, the
    # ranking's ties broken by the larger encoding, the top lines' bitstrings unpadded
    ("walsh.py", "np.sort(np.concatenate((positive, negative)))", "np.sort(positive)",
     [f"{GOLDEN}[verify-example1-statevector]",
      "tests/test_walsh.py::TestHeavySet::test_example1_at_04"]),
    ("walsh.py", "np.lexsort((chosen,", "np.lexsort((-chosen,", [f"{GOLDEN}[spectrum-anf17-bin]"]),
    ("cli.py", "{a:0{spectrum.n}b}", "{a:b}", [f"{GOLDEN}[spectrum-anf17-bin]"]),
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
