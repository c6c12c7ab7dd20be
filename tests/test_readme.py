"""Every ```python block of README.md runs, each in a fresh namespace, and
every ``walshgl`` line of its CLI block exits 0."""

import re
import shlex
import shutil
from pathlib import Path

import pytest

from walshgl.cli import main

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
