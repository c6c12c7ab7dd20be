"""Mutation gate: each entry replaces one exact snippet of ``src/walshgl`` in
a copy of ``src/`` and names the tests that must fail on that copy.

Run from anywhere as ``python tests/mutants.py``; it needs only the standard
library and the test dependencies, and pytest does not collect it.  Each
killer runs alone against the copy and must exit with pytest's code 1
(collected and failed; 0 means the mutant survived, 4 or 5 that the test id
is missing).  The script exits 1 naming every survivor.
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
    for line in failed:
        print(f"survivor: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
