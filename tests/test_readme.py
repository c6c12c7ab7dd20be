"""Every ```python block of README.md runs, each in a fresh namespace, and
every ``walshgl`` line of its CLI block exits 0.  The package exports the
library surface that README describes, and none of the reference oracles
in ``tests/reference.py``."""

import importlib
import pkgutil
import re
import shlex
import shutil
import types
from pathlib import Path

import pytest

import walshgl
from walshgl.cli import main

import reference
from conftest import DATA

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
CLI_LINES = re.search(r"^## CLI\n\n```sh\n(.*?)^```$", TEXT, re.M | re.S)[1].splitlines()


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_block_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})


def test_readme_has_cli_lines():
    assert CLI_LINES and all(line.startswith("walshgl ") for line in CLI_LINES)


@pytest.mark.parametrize("line", CLI_LINES, ids=[f"line{i}" for i in range(len(CLI_LINES))])
def test_cli_line_runs(line, tmp_path, monkeypatch, capsys):
    shutil.copy(DATA / "aes_sbox.sbox", tmp_path / "sbox.sbox")
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line, comments=True)[1:]) == 0


LIBRARY = {
    # boolfn
    "MAX_M", "MAX_N", "BitVector", "BooleanFunction", "VectorialFunction", "load_sbox",
    "load_truth_table", "parse_anf", "parse_sbox", "parse_truth_table", "save_sbox",
    "save_truth_table", "serialize_truth_table",
    # errors
    "CapacityError", "ParseError",
    # gl
    "GLParams", "HeavyEntry", "HeavyList", "VerificationReport", "derive_params", "search",
    "verify_against_oracle",
    # qsim
    "QuantumState", "Sampler", "apply_hadamard", "apply_uip", "apply_xor_oracle", "dj_state",
    "measured_spectrum", "qwt_bf_state",
    # stats
    "TrialReport", "monte_carlo",
    # walsh
    "WalshSpectrum", "fwht", "heavy_set_exact", "read_spectrum_binary", "spectra",
    "spectrum_to_csv", "write_spectrum_binary",
}
ORACLES = {name for name, value in vars(reference).items()
           if isinstance(value, types.FunctionType) and value.__module__ == "reference"}


def test_package_exports_the_library_surface():
    exported = {name for name, value in vars(walshgl).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == LIBRARY


def test_reference_oracles_are_not_in_the_package():
    assert "walsh_coefficient_naive" in ORACLES
    modules = [walshgl] + [importlib.import_module(f"walshgl.{info.name}")
                           for info in pkgutil.iter_modules(walshgl.__path__)]
    for module in modules:
        assert not ORACLES & set(vars(module)), module.__name__
    for name in ORACLES:
        assert not re.search(rf"`{name}`|\b{name}\(", TEXT), name
