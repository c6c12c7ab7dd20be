import builtins
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from walshgl import (
    BooleanFunction,
    VectorialFunction,
    parse_anf,
    read_spectrum_binary,
    save_sbox,
    save_truth_table,
    serialize_truth_table,
)
from walshgl import walsh
from walshgl.cli import main
from walshgl.gl import GLParams
from walshgl.stats import TrialReport

from conftest import DATA, EXAMPLE1_ANF, NONLINEAR_SBOX3
from reference import outcomes

ID3_SBOX = "n=3 m=3\n0 1 2 3 4 5 6 7\n"
GL_ARGV = ["gl", "--anf", EXAMPLE1_ANF, "--eps", "0.4", "--delta", "0.05", "--seed", "7"]
VERIFY_ARGV = ["verify", "--anf", EXAMPLE1_ANF, "--eps", "0.5", "--delta", "0.1", "--runs", "100",
               "--seed", "11"]
LONG = "1" * 5000  # more digits than int() parses


@pytest.fixture
def id3_path(tmp_path):
    path = tmp_path / "id3.sbox"
    path.write_text(ID3_SBOX)
    return str(path)


@pytest.fixture
def fwht_calls(monkeypatch):
    """The row length of every row the butterfly transforms, one entry per
    row, whether it came alone or in a batch of components."""
    original = walsh._fwht_packed
    calls = []

    def counted(packed, n):
        calls.extend([1 << n] * (packed.size // packed.shape[-1]))
        return original(packed, n)

    monkeypatch.setattr(walsh, "_fwht_packed", counted)
    return calls


class TestSpectrumCommand:
    def test_example1_csv(self, capsys):
        assert main(["spectrum", "--anf", EXAMPLE1_ANF]) == 0
        out = capsys.readouterr()
        lines = out.out.splitlines()
        assert lines[0] == "index,bitstring,W,S"
        assert "9,1001,8,0.5" in lines
        assert "11,1011,-8,-0.5" in lines
        assert "parseval: sum W^2 = 256 (ok, expected 256)" in out.err

    def test_constant_zero_tt_single_nonzero_row(self, tmp_path, capsys):
        f = parse_anf("0", n=3)
        path = tmp_path / "constant0.tt"
        save_truth_table(f, path)
        assert main(["spectrum", "--tt", str(path)]) == 0
        rows = [
            line for line in capsys.readouterr().out.splitlines()[1:]
            if line.split(",")[2] != "0"
        ]
        assert rows == ["0,000,8,1.0"]

    def test_sbox_component_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "aes_b01.csv"
        code = main([
            "spectrum",
            "--sbox", str(DATA / "aes_sbox.sbox"),
            "--b", "0x01",
            "--out", str(out_path),
            "--top", "3",
        ])
        assert code == 0
        echoed = capsys.readouterr().out
        assert "parseval: sum W^2 = 65536 (ok, expected 65536)" in echoed
        assert echoed.count("top |S|:") == 3
        assert "W=32" in echoed or "W=-32" in echoed
        assert out_path.read_text().splitlines()[0] == "index,bitstring,W,S"

    def test_binary_format(self, tmp_path):
        out_path = tmp_path / "e1.bin"
        assert main(["spectrum", "--anf", EXAMPLE1_ANF, "--format", "bin",
                     "--out", str(out_path)]) == 0
        spec = read_spectrum_binary(out_path)
        assert spec.n == 4 and spec[0b1001] == 8

    def test_sbox_without_mask_is_usage_error(self, id3_path, capsys):
        assert main(["spectrum", "--sbox", id3_path]) == 2
        assert "--b" in capsys.readouterr().err

    def test_binary_needs_out(self, fwht_calls, capsys):
        assert main(["spectrum", "--anf", "x1", "--format", "bin"]) == 2
        assert "--out" in capsys.readouterr().err
        assert fwht_calls == []  # rejected before any row is transformed

    def test_mask_on_boolean_input_is_usage_error(self, capsys):
        assert main(["spectrum", "--anf", "x1+x2", "--b", "0x1"]) == 2
        assert "--b applies only to --sbox input" in capsys.readouterr().err

    def test_anf_parse_error_names_position(self, capsys):
        assert main(["spectrum", "--anf", "x1+&"]) == 2
        assert "position 4" in capsys.readouterr().err

    @pytest.mark.parametrize("index", ["99", LONG], ids=["99", "5000-digits"])
    def test_anf_index_out_of_range(self, index, capsys):
        assert main(["spectrum", "--anf", f"x{index}"]) == 2
        assert capsys.readouterr().err == (
            f"walshgl: parse error: variable index {index} outside 1..24 (at position 1)\n"
        )


class TestInputFlags:
    @pytest.fixture
    def n3_paths(self, tmp_path):
        tt, sbox = tmp_path / "n3.tt", tmp_path / "n3.sbox"
        save_truth_table(parse_anf("x1+x2*x3"), tt)
        sbox.write_text(ID3_SBOX)
        return {"--tt": str(tt), "--sbox": str(sbox)}

    @pytest.mark.parametrize("flag", ["--tt", "--sbox"])
    @pytest.mark.parametrize("command", [
        ["spectrum"],
        ["gl", "--eps", "0.5", "--delta", "0.1"],
    ], ids=["spectrum", "gl"])
    def test_n_on_file_input_is_usage_error(self, command, flag, n3_paths, capsys):
        assert main([*command, flag, n3_paths[flag], "--n", "7"]) == 2
        captured = capsys.readouterr()
        assert "--n applies only to --anf input" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--tt", "--sbox"])
    def test_n_rejected_before_the_file_is_read(self, flag, tmp_path, capsys):
        missing = str(tmp_path / "absent")
        assert main(["spectrum", flag, missing, "--n", "7"]) == 2
        assert "--n applies only to --anf input" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["spectrum", "--tt", str(tmp_path / "absent.tt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("walshgl: error: ") and "absent.tt" in err

    def test_tt_with_a_third_line_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "three.tt"
        path.write_text("n=2\n6\n6\n")
        assert main(["spectrum", "--tt", str(path)]) == 2
        assert "expected a header line and one hex line" in capsys.readouterr().err

    def test_sbox_value_past_the_int_digit_limit_is_out_of_range(self, tmp_path, capsys):
        path = tmp_path / "long.sbox"
        long = "1" + "0" * 5000
        path.write_text(f"n=1 m=4\n0 {long}\n")
        assert main(["spectrum", "--sbox", str(path), "--b", "0x1"]) == 2
        assert capsys.readouterr().err == (
            f"walshgl: parse error: value {long} at index 1 not in [0, 2^4)\n"
        )

    def test_empty_sbox_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "empty.sbox"
        path.write_text("\n \n")
        assert main(["spectrum", "--sbox", str(path), "--b", "1"]) == 2
        assert "empty S-box file" in capsys.readouterr().err

    @pytest.mark.parametrize("name,header,message", [
        ("f.tt", "n=99", "variable count n=99 outside supported range 1..24"),
        ("f.tt", f"n={LONG}", f"variable count n={LONG} outside supported range 1..24"),
        ("f.sbox", "n=99 m=1", "variable count n=99 outside supported range 1..24"),
        ("f.sbox", "n=99999999999 m=1",
         "variable count n=99999999999 outside supported range 1..24"),
        ("f.sbox", f"n={LONG} m=1", f"variable count n={LONG} outside supported range 1..24"),
        ("f.sbox", "n=1 m=99999999999",
         "output count m=99999999999 outside supported range 1..16"),
        ("f.sbox", f"n=1 m={LONG}", f"output count m={LONG} outside supported range 1..16"),
    ], ids=["tt-n99", "tt-n-5000-digits", "sbox-n99", "sbox-n-11-digits", "sbox-n-5000-digits",
            "sbox-m-11-digits", "sbox-m-5000-digits"])
    def test_header_out_of_range_is_capacity_error(self, name, header, message, tmp_path, capsys):
        path = tmp_path / name
        path.write_text(f"{header}\n0 1\n")
        flag = ["--tt", str(path)] if name.endswith(".tt") else ["--sbox", str(path), "--b", "1"]
        assert main(["spectrum", *flag]) == 3
        assert capsys.readouterr().err == f"walshgl: capacity: {message}\n"


class TestRangeChecks:
    """Each range rule has one owner: epsilon and delta in ``gl``, the run
    floor in ``stats.monte_carlo``, the seed where ``--seed`` is parsed."""

    @pytest.mark.parametrize("command", ["gl", "verify"])
    @pytest.mark.parametrize("flag,value,expected", [
        ("--eps", "1.5", "epsilon must be in (0, 1], got 1.5"),
        ("--eps", "0", "epsilon must be in (0, 1], got 0"),
        ("--delta", "1.0", "delta must be in (0, 1), got 1.0"),
        ("--delta", "0", "delta must be in (0, 1), got 0.0"),
        ("--eps", "2/0", "epsilon must be in (0, 1], got 2/0"),
        ("--eps", "0/0", "epsilon must be in (0, 1], got 0/0"),
        ("--eps", "2/x", "epsilon must be in (0, 1], got 2/x"),
    ])
    def test_param_out_of_range(self, command, flag, value, expected, tmp_path, capsys):
        params = {"--eps": "0.5", "--delta": "0.1", flag: value}
        out = tmp_path / "out.json"
        assert main([command, "--anf", "x1", *sum(params.items(), ()), "--out", str(out)]) == 2
        assert expected in capsys.readouterr().err
        assert not out.exists()

    def test_range_checked_before_the_cap(self, monkeypatch, capsys):
        monkeypatch.setenv("WALSHGL_MAX_N", "3")
        assert main(["verify", "--anf", EXAMPLE1_ANF, "--eps", "1.5", "--delta", "0.1"]) == 2
        assert main(["verify", "--anf", EXAMPLE1_ANF, "--eps", "0.5", "--delta", "0.1",
                     "--runs", "50"]) == 4  # the run floor is checked after the cap
        assert main(["verify", "--anf", EXAMPLE1_ANF, "--eps", "1e-100", "--delta", "0.1"]) == 3

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64), "abc", "1.5"])
    @pytest.mark.parametrize("command", [
        ["sample", "--draws", "5"],
        ["gl", "--eps", "0.5", "--delta", "0.1"],
        ["verify", "--eps", "0.5", "--delta", "0.1", "--runs", "100"],
    ], ids=["sample", "gl", "verify"])
    def test_seed_outside_64_bits_is_usage_error(self, command, seed, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*command, "--anf", "x1+x2+x3", "--seed", seed, "--out", str(out)])
        assert exc.value.code == 2
        assert f"argument --seed: must be an integer in 0..2^64 - 1, got '{seed}'" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_largest_seed_runs(self, capsys):
        seed = str((1 << 64) - 1)
        assert main(["sample", "--anf", "x1+x2+x3", "--draws", "5", "--seed", seed]) == 0
        assert capsys.readouterr().out.splitlines() == ["111"] * 5
        assert main(["gl", "--anf", "x1+x2+x3", "--eps", "0.5", "--delta", "0.1",
                     "--seed", seed]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == (1 << 64) - 1


class TestSampleCommand:
    def test_linear_draws_equal_mask(self, capsys):
        assert main(["sample", "--anf", "x1+x3", "--draws", "20", "--seed", "5"]) == 0
        draws = capsys.readouterr().out.split()
        assert draws == ["101"] * 20

    def test_seeded_output_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        argv = ["sample", "--anf", EXAMPLE1_ANF, "--draws", "50", "--seed", "31337"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_modes_agree_on_point_mass(self, capsys):
        for mode in ("spectral", "statevector"):
            assert main(["sample", "--anf", "x2", "--draws", "5", "--seed", "1",
                         "--mode", mode]) == 0
        chunks = capsys.readouterr().out.split()
        assert chunks == ["01"] * 10

    def test_amplitude_dump(self, tmp_path):
        dump = tmp_path / "amps.csv"
        assert main(["sample", "--anf", "x1", "--mode", "statevector",
                     "--dump-amplitudes", str(dump), "--seed", "2"]) == 0
        lines = dump.read_text().splitlines()
        assert lines[0] == "index,re,im"
        assert len(lines) == 1 + 4  # n=1 plus ancilla: 2^2 amplitudes

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    def test_chunked_dump_equals_one_line_per_amplitude(self, chunk, tmp_path, monkeypatch):
        """The draws go out ``_SAMPLE_CHUNK`` at a time; the dump beside
        them is one write, so neither depends on the chunk size."""
        from walshgl import cli, qsim

        anf = "x1*x2+x3*x4*x5+x2"
        argv = ["sample", "--anf", anf, "--mode", "statevector", "--draws", "20",
                "--seed", "4"]
        unchunked = tmp_path / "draws-default.txt"
        assert main(argv + ["--out", str(unchunked)]) == 0

        monkeypatch.setattr(cli, "_SAMPLE_CHUNK", chunk)
        dump, draws = tmp_path / "amps.csv", tmp_path / "draws.txt"
        assert main(argv + ["--out", str(draws), "--dump-amplitudes", str(dump)]) == 0
        assert draws.read_bytes() == unchunked.read_bytes()
        amps = qsim.circuit_state(parse_anf(anf), None).amplitudes
        expected = "".join(
            f"{i},{float(a.real)!r},{float(a.imag)!r}\n" for i, a in enumerate(amps)
        )
        assert dump.read_text() == "index,re,im\n" + expected

    def test_widest_dump_equals_one_line_per_amplitude(self, tmp_path):
        """An n = 14 ANF runs on 15 qubits, the most the simulator allows:
        the dump's 2^15 + 1 lines go out in one write."""
        from walshgl import qsim

        dump = tmp_path / "amps.csv"
        anf = "x1*x2+x3*x4*x5+x2+x6*x14"
        assert main(["sample", "--anf", anf, "--mode", "statevector", "--draws", "1",
                     "--dump-amplitudes", str(dump)]) == 0
        amps = qsim.circuit_state(parse_anf(anf), None).amplitudes
        assert amps.shape == (1 << qsim.MAX_STATE_QUBITS,)
        expected = "".join(
            f"{i},{float(a.real)!r},{float(a.imag)!r}\n" for i, a in enumerate(amps)
        )
        assert dump.read_text() == "index,re,im\n" + expected

    def test_zero_draws_is_usage_error(self, capsys):
        assert main(["sample", "--anf", "x1+x2", "--draws", "0"]) == 2
        assert "--draws must be positive, got 0" in capsys.readouterr().err

    def test_amplitude_dump_requires_statevector(self, capsys):
        assert main(["sample", "--anf", "x1", "--dump-amplitudes", "x.csv"]) == 2

    def test_empty_dump_path_is_usage_error(self, capsys):
        """An empty ``--dump-amplitudes`` asks for a dump, as an empty
        ``--out`` asks for a file: exit 2 before any draw is written."""
        assert main(["sample", "--anf", "x1+x2", "--mode", "statevector",
                     "--dump-amplitudes", ""]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("walshgl: ")

    def test_mask_on_boolean_input_is_usage_error(self, capsys):
        assert main(["sample", "--anf", "x1+x2", "--b", "0x1"]) == 2
        assert "--b applies only to --sbox input" in capsys.readouterr().err

    def test_sbox_sampling(self, id3_path, capsys):
        assert main(["sample", "--sbox", id3_path, "--b", "110", "--draws", "7"]) == 0
        assert capsys.readouterr().out.split() == ["110"] * 7

    @pytest.mark.parametrize("anf", ["x1", "x1*x2+x3", "x1*x5+x2*x3*x4+x17"])
    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    def test_chunked_output_equals_one_line_per_draw(self, anf, chunk, monkeypatch, capsys):
        from walshgl import cli, qsim

        monkeypatch.setattr(cli, "_SAMPLE_CHUNK", chunk)
        assert main(["sample", "--anf", anf, "--draws", "50", "--seed", "9"]) == 0
        f = parse_anf(anf)
        draws = outcomes(qsim.Sampler(walsh.fwht(f)), 9, 0, 50)
        assert capsys.readouterr().out == "".join(format(int(v), f"0{f.n}b") + "\n" for v in draws)


class TestGlCommand:
    def test_example1_json(self, tmp_path, capsys):
        out = tmp_path / "heavy.json"
        code = main(["gl", "--anf", EXAMPLE1_ANF, "--eps", "0.4", "--delta", "0.05",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["queries"] == 937
        assert doc["params"]["l"] == 937
        assert [e["a"] for e in doc["entries"]] == ["1001", "1011", "1100", "1110"]
        assert all("exact_S" in e for e in doc["entries"])
        echoed = capsys.readouterr().out
        assert "l=937" in echoed and "queries=937" in echoed
        assert "oracle verdict: complete=True sound=True" in echoed

    def test_byte_identical_across_runs(self, tmp_path):
        argv = ["gl", "--anf", EXAMPLE1_ANF, "--eps", "0.4", "--delta", "0.05",
                "--seed", "99"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_identity_sbox(self, id3_path, tmp_path):
        out = tmp_path / "id3.json"
        code = main(["gl", "--sbox", id3_path, "--eps", "0.9", "--delta", "0.1",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["entries"]) == 7
        assert all(e["a"] == e["b"] for e in doc["entries"])
        assert doc["queries"] == 7 * doc["params"]["l"]

    def test_csv_format(self, capsys):
        assert main(["gl", "--anf", EXAMPLE1_ANF, "--eps", "0.4", "--delta", "0.05",
                     "--seed", "7", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "a,b,count,exact_S"
        assert len(lines) == 5
        assert lines[1].startswith("1001,,")

    def test_long_exact_eps_runs_as_its_value(self, capsys):
        argv = ["gl", "--anf", "x1", "--delta", "0.5", "--eps"]
        assert main([*argv, "0.4"]) == 0
        short = capsys.readouterr()
        assert main([*argv, "0.4" + "0" * 5000]) == 0
        assert capsys.readouterr() == short

    def test_long_ratio_eps_runs_as_its_value(self, capsys):
        argv = ["gl", "--anf", "x1", "--delta", "0.5", "--eps"]
        assert main([*argv, "0.4"]) == 0
        short = capsys.readouterr()
        zeros = "0" * 5000
        assert main([*argv, f"2{zeros}/5{zeros}"]) == 0
        assert capsys.readouterr() == short
        # 2/5e5000 is below every float: l is not finite, not an int() digit-limit error,
        # and the message quotes epsilon as given, not as the float 0.0
        assert main([*argv, f"2/5{zeros}"]) == 3
        err = capsys.readouterr().err
        message = f"l = 8 ln(1/delta)/eps^4 is not finite at epsilon=2/5{zeros}"
        assert err == f"walshgl: capacity: {message}\n"

    def test_eps_out_of_range(self, capsys):
        assert main(["gl", "--anf", "x1", "--eps", "1.5", "--delta", "0.1"]) == 2
        assert "(0, 1]" in capsys.readouterr().err

    def test_delta_out_of_range(self, capsys):
        assert main(["gl", "--anf", "x1", "--eps", "0.5", "--delta", "1.0"]) == 2
        assert "(0, 1)" in capsys.readouterr().err

    def test_strict_confidence_increases_l(self, capsys):
        argv = ["gl", "--anf", EXAMPLE1_ANF, "--eps", "0.4", "--delta", "0.05",
                "--seed", "7", "--format", "json"]
        assert main(argv) == 0
        loose = json.loads(capsys.readouterr().out)
        assert main(argv + ["--strict-confidence"]) == 0
        strict = json.loads(capsys.readouterr().out)
        assert loose["params"]["l"] == 937
        assert strict["params"]["l"] > loose["params"]["l"]
        assert strict["params"]["delta"] == 0.05 / 25


class TestVerifyCommand:
    def test_example1_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--anf", EXAMPLE1_ANF, "--eps", "0.4",
                     "--delta", "0.05", "--seed", "11", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert doc["runs"] == 200
        assert "passed=True" in capsys.readouterr().out

    def test_runs_below_minimum(self, capsys):
        assert main(["verify", "--anf", "x1", "--eps", "0.5", "--delta", "0.1",
                     "--runs", "50"]) == 2

    def test_sbox_verification(self, id3_path):
        assert main(["verify", "--sbox", id3_path, "--eps", "0.9", "--delta", "0.1",
                     "--runs", "100", "--seed", "3"]) == 0

    def test_statistical_failure_exits_5(self, monkeypatch, tmp_path):
        from walshgl import cli as climod
        from fractions import Fraction

        failing = TrialReport(
            fixture="stub",
            params=GLParams(Fraction(1, 2), 0.05, 100, Fraction(10)),
            designated="0001",
            completeness_ok=(False,) * 60 + (True,) * 40,
            soundness_ok=(True,) * 100,
            simultaneous_ok=(True,) * 100,
        )
        monkeypatch.setattr(
            climod.stats, "monte_carlo", lambda *a, **k: failing
        )
        out = tmp_path / "r.json"
        code = main(["verify", "--anf", "x1", "--eps", "0.5", "--delta", "0.05",
                     "--out", str(out)])
        assert code == 5
        assert json.loads(out.read_text())["passed"] is False  # report still written


class TestCapacityAndEnv:
    def test_env_lowers_cap(self, monkeypatch, capsys):
        monkeypatch.setenv("WALSHGL_MAX_N", "3")
        assert main(["spectrum", "--anf", EXAMPLE1_ANF]) == 3
        assert "cap" in capsys.readouterr().err

    def test_env_cannot_raise_cap(self, monkeypatch):
        monkeypatch.setenv("WALSHGL_MAX_N", "99")
        assert main(["spectrum", "--anf", "x1+x2"]) == 0

    def test_env_invalid_value(self, monkeypatch, capsys):
        monkeypatch.setenv("WALSHGL_MAX_N", "many")
        assert main(["spectrum", "--anf", "x1"]) == 2

    def test_env_past_the_int_digit_limit_leaves_the_cap(self, monkeypatch, capsys):
        assert main(["spectrum", "--anf", "x1+x2"]) == 0
        unset = capsys.readouterr()
        monkeypatch.setenv("WALSHGL_MAX_N", "1" + "0" * 5000)
        assert main(["spectrum", "--anf", "x1+x2"]) == 0
        assert capsys.readouterr() == unset

    def test_env_zero_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("WALSHGL_MAX_N", "0")
        assert main(["spectrum", "--anf", "x1"]) == 2
        assert "WALSHGL_MAX_N must be positive, got 0" in capsys.readouterr().err

    def test_verify_over_cap_exits_4_before_any_search(self, monkeypatch, fwht_calls, capsys):
        from walshgl import cli as climod

        monkeypatch.setenv("WALSHGL_MAX_N", "3")
        monkeypatch.setattr(climod.stats, "monte_carlo", None)  # any search would fail
        assert main(["verify", "--anf", EXAMPLE1_ANF, "--eps", "0.4", "--delta", "0.05"]) == 4
        assert "n=4 exceeds the exact-transform cap of 3" in capsys.readouterr().err
        assert fwht_calls == []

    def test_statevector_gl_with_lowered_cap_exits_4(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("WALSHGL_MAX_N", "4")
        f = parse_anf("x1+x6", n=6)
        path = tmp_path / "f6.tt"
        save_truth_table(f, path)
        out = tmp_path / "heavy.json"
        code = main(["gl", "--tt", str(path), "--eps", "0.9", "--delta", "0.1",
                     "--mode", "statevector", "--seed", "1", "--out", str(out)])
        assert code == 4
        doc = json.loads(out.read_text())  # results written despite exit 4
        assert [e["a"] for e in doc["entries"]] == ["100001"]
        assert "exact_S" not in doc["entries"][0]

    def test_statevector_gl_over_cap_writes_the_list_and_only_the_error(
            self, monkeypatch, tmp_path, capsys):
        """Exit 4 writes the unverified list, to stdout or ``--out``, and no
        summary: stderr holds the error line alone."""
        monkeypatch.setenv("WALSHGL_MAX_N", "3")
        argv = ["gl", "--anf", EXAMPLE1_ANF, "--eps", "0.5", "--delta", "0.1",
                "--mode", "statevector"]
        assert main(argv) == 4
        listed, err = capsys.readouterr()
        assert err == "walshgl: infeasible verification: n=4 exceeds the exact-transform cap of 3\n"
        out = tmp_path / "heavy.json"
        assert main(argv + ["--out", str(out)]) == 4
        assert capsys.readouterr() == ("", err)
        assert out.read_text() == listed
        doc = json.loads(listed)
        assert doc["entries"] and all("exact_S" not in e for e in doc["entries"])

    def test_tiny_eps_exits_3(self, capsys):
        assert main(["gl", "--anf", "x1+x2", "--eps", "1e-100", "--delta", "0.5"]) == 3
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("eps,code,message", [
        ("1e-10000000", 3, "capacity: epsilon=1e-10000000 is below the smallest positive float"),
        ("1e+10000000", 2, "error: epsilon must be in (0, 1], got 1e+10000000"),
    ])
    def test_huge_eps_exponent_fails_fast(self, eps, code, message, capsys):
        # the exact parse of 1e-10000000 alone takes minutes
        start = time.perf_counter()
        assert main(["gl", "--anf", "x1", "--eps", eps, "--delta", "0.5"]) == code
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == f"walshgl: {message}\n"

    def test_delta_in_the_subnormal_range_runs(self, capsys):
        # 1/delta overflows to inf here; l = ceil(8 * 713.1 / 0.9^4)
        assert main(["gl", "--anf", "x1", "--eps", "0.9", "--delta", "1e-310"]) == 0
        assert json.loads(capsys.readouterr().out)["params"]["l"] == 8704

    def test_delta_below_every_float_exits_3(self, capsys):
        assert main(["gl", "--anf", "x1", "--eps", "0.9", "--delta", "1e-400"]) == 3
        assert capsys.readouterr().err == (
            "walshgl: capacity: delta=1e-400 is below the smallest positive float\n"
        )

    @pytest.mark.parametrize("runs", [10**12, 10**20])
    def test_runs_past_capacity_exit_3_fast(self, runs):
        import resource

        def limit_address_space():  # runs in the child only
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        argv = ["verify", "--anf", "x1+x2", "--eps", "0.9", "--delta", "0.4", "--runs", str(runs)]
        timed = ("import sys, time; from walshgl.cli import main; start = time.perf_counter();"
                 f" code = main({argv!r}); print(time.perf_counter() - start); sys.exit(code)")
        proc = subprocess.run(
            [sys.executable, "-c", timed],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=limit_address_space,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("walshgl: capacity: ")
        assert "Traceback" not in proc.stderr
        assert float(proc.stdout) < 1.0

    @pytest.mark.parametrize("command", ["gl", "verify"])
    @pytest.mark.parametrize("mode", ["spectral", "statevector"])
    @pytest.mark.parametrize("eps", ["3e-5", "1e-5"])
    def test_keys_past_the_largest_array_exit_3_fast(self, command, mode, eps, capsys):
        # one run's raw words need more than numpy's largest array: refused before allocating
        start = time.perf_counter()
        argv = [command, "--anf", "x1+x2", "--eps", eps, "--delta", "0.5", "--mode", mode]
        assert main(argv) == 3
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("walshgl: capacity: l=")
        assert err.endswith(" draws exceed the largest array of one run's keys\n")

    def test_unallocatable_l_exits_3_without_traceback(self):
        # l = 2,772,588,722,240 draws: numpy cannot allocate the 20.2 TiB of keys
        import resource

        def limit_address_space():  # runs in the child only
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "walshgl.cli", "gl", "--anf", "x1+x2",
             "--eps", "0.001", "--delta", "0.5"],
            capture_output=True,
            text=True,
            preexec_fn=limit_address_space,
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("walshgl: capacity: out of memory: ")

    def test_memory_error_exits_3(self, monkeypatch, capsys):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 128. MiB")

        monkeypatch.setattr(walsh, "spectra", exhausted)
        assert main(["spectrum", "--anf", "x1+x2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "walshgl: capacity: out of memory: Unable to allocate 128. MiB\n"

    def test_spectral_gl_with_lowered_cap_exits_3(self, monkeypatch, tmp_path):
        monkeypatch.setenv("WALSHGL_MAX_N", "4")
        f = parse_anf("x1+x6", n=6)
        path = tmp_path / "f6.tt"
        save_truth_table(f, path)
        assert main(["gl", "--tt", str(path), "--eps", "0.9", "--delta", "0.1"]) == 3

    @pytest.mark.parametrize("command", ["gl", "verify"])
    def test_statevector_past_the_qubit_limit_exits_3_before_any_transform(
            self, command, monkeypatch, capsys):
        """The circuit is simulated before the exact spectrum is read, so a
        circuit of 16 qubits is refused without a butterfly."""
        from walshgl import gl as glmod

        def spectra(target, bs):  # computed as it is read, as walsh.spectra is
            raise AssertionError("an exact spectrum was read")
            yield

        monkeypatch.setattr(glmod, "spectra", spectra)
        assert main([command, "--anf", "x1+x15", "--n", "15", "--eps", "0.5", "--delta", "0.5",
                     "--mode", "statevector"]) == 3
        assert capsys.readouterr().err == (
            "walshgl: capacity: 16 qubits exceed the state-vector limit of 15\n")


class TestOutRefusedBeforeTheWork:
    """An ``--out`` or ``--dump-amplitudes`` path that open() would refuse,
    a directory or a file in a missing directory, exits 2 with open()'s
    error before the command's work: every transform, search, Monte-Carlo
    run, simulation and sampler build fails here."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        from walshgl import cli as climod

        for module, name in ((climod.walsh, "spectra"), (climod.glmod, "search"),
                             (climod.stats, "monte_carlo"), (climod.qsim, "circuit_state"),
                             (climod.qsim, "Sampler")):
            monkeypatch.setattr(module, name, None)

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--anf", EXAMPLE1_ANF, "--out"],
        ["sample", "--anf", EXAMPLE1_ANF, "--out"],
        ["sample", "--anf", EXAMPLE1_ANF, "--mode", "statevector", "--dump-amplitudes"],
        ["gl", "--anf", EXAMPLE1_ANF, "--eps", "0.4", "--delta", "0.05", "--out"],
        ["verify", "--anf", EXAMPLE1_ANF, "--eps", "0.4", "--delta", "0.05", "--out"],
    ], ids=["spectrum", "sample", "sample-dump", "gl", "verify"])
    @pytest.mark.parametrize("name", ["", "/missing/out", "/missing/", "/afile/"],
                             ids=["directory", "missing-directory", "missing-slash", "file-slash"])
    def test_unusable_path_exits_2_before_the_work(self, argv, name, tmp_path, capsys):
        """A name ending in a separator is a directory to open(), whether it
        names nothing or a file."""
        if name == "/afile/":
            (tmp_path / "afile").write_bytes(b"kept")
        before = os.listdir(tmp_path)
        path = str(tmp_path) + name
        with pytest.raises(OSError) as refused:
            open(path, "wb")
        assert main(argv + [path]) == 2
        assert capsys.readouterr() == ("", f"walshgl: error: {refused.value}\n")
        assert os.listdir(tmp_path) == before  # nothing created
        assert name != "/afile/" or (tmp_path / "afile").read_bytes() == b"kept"


class TestTransformCount:
    """One exact transform per component per job, however many stages or
    Monte-Carlo runs read it.  ``fwht_calls`` holds one entry per row the
    butterfly transforms."""

    @pytest.fixture
    def sbox3_path(self, tmp_path):
        path = tmp_path / "sbox3.sbox"
        save_sbox(VectorialFunction(3, 3, NONLINEAR_SBOX3), path)
        return str(path)

    def test_gl_boolean_one_transform(self, fwht_calls, capsys):
        assert main(["gl", "--anf", EXAMPLE1_ANF, "--eps", "0.4", "--delta", "0.05"]) == 0
        assert len(fwht_calls) == 1

    def test_gl_sbox_one_transform_per_component(self, fwht_calls, sbox3_path, capsys):
        assert main(["gl", "--sbox", sbox3_path, "--eps", "0.5", "--delta", "0.1"]) == 0
        assert len(fwht_calls) == 7

    def test_verify_boolean_one_transform_for_all_runs(self, fwht_calls, capsys):
        assert main(["verify", "--anf", EXAMPLE1_ANF, "--eps", "0.4", "--delta", "0.05",
                     "--runs", "100"]) == 0
        assert len(fwht_calls) == 1

    def test_verify_sbox_one_transform_per_component(self, fwht_calls, sbox3_path, capsys):
        assert main(["verify", "--sbox", sbox3_path, "--eps", "0.5", "--delta", "0.1",
                     "--runs", "100"]) == 0
        assert len(fwht_calls) == 7

    def test_statevector_beyond_cap_no_transform(self, fwht_calls, monkeypatch, capsys):
        monkeypatch.setenv("WALSHGL_MAX_N", "3")
        assert main(["gl", "--anf", EXAMPLE1_ANF, "--eps", "0.4", "--delta", "0.05",
                     "--mode", "statevector"]) == 4
        assert fwht_calls == []


class TestEntryPoint:
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--anf", "x1"],
        ["spectrum", "--anf", "x1*x2+x3*x4*x5+x2", "--n", "15"],
        ["sample", "--anf", EXAMPLE1_ANF, "--draws", "100", "--seed", "3"],
        ["sample", "--anf", EXAMPLE1_ANF, "--draws", "100", "--seed", "3", "--mode", "statevector"],
        GL_ARGV,
        GL_ARGV + ["--format", "csv"],
        VERIFY_ARGV,
    ], ids=["spectrum-n1", "spectrum-n15", "sample", "sample-statevector", "gl-json", "gl-csv",
            "verify"])
    def test_text_stdout_gets_the_bytes_of_out(self, argv, tmp_path):
        """A ``StringIO`` stdout, as under ``redirect_stdout``, has no byte
        stream: it gets the text of exactly the bytes that ``--out`` holds."""
        out = tmp_path / "out"
        with redirect_stdout(io.StringIO()) as text, redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        with redirect_stdout(io.StringIO()):
            assert main(argv + ["--out", str(out)]) == 0
        assert text.getvalue().encode("ascii") == out.read_bytes()

    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "walshgl.cli", "spectrum", "--anf", "x1+x2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "index,bitstring,W,S" in proc.stdout

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "walshgl.cli", "gl", "--anf", "x1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2  # missing required --eps/--delta

    @pytest.mark.parametrize("text, flags", [
        ("n=1 m=2\n\u0661 0\n", ["--sbox", "{}", "--b", "0x1"]),
        ("n=\u0662\n9\n", ["--tt", "{}"]),
    ], ids=["sbox", "tt"])
    def test_input_files_decode_as_utf8_in_every_locale(self, text, flags, tmp_path):
        """The Arabic-Indic digits one and two are UTF-8 bytes that the C
        locale's ASCII cannot decode; a file that holds one reads the same
        under C.UTF-8 and under C without UTF-8 mode or locale coercion."""
        path = tmp_path / "input"
        path.write_bytes(text.encode())
        src = Path(importlib.util.find_spec("walshgl").origin).parent.parent  # this session's
        runs = []
        for locale in ({"LC_ALL": "C.UTF-8"},
                       {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}):
            env = {**os.environ, **locale,
                   "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run(
                [sys.executable, "-m", "walshgl.cli", "spectrum", *(a.format(path) for a in flags)],
                env=env, capture_output=True, timeout=60,
            )
            runs.append((proc.returncode, proc.stdout, proc.stderr))
        assert runs[0][0] == 0, runs[0]
        assert runs[1] == runs[0]


class TestLineEndings:
    """Every result is written as bytes, so a platform whose text mode ends
    lines with ``\\r\\n`` writes the same files as one that keeps ``\\n``."""

    @pytest.fixture
    def crlf_open(self, monkeypatch):
        """Text-mode writes through ``open`` (``io.open`` too, which pathlib
        calls) end lines with ``\\r\\n``, as on Windows."""
        real_open = builtins.open

        def crlf(file, mode="r", buffering=-1, encoding=None, errors=None, newline=None, *rest,
                 **kwargs):
            if "b" not in mode and not set(mode).isdisjoint("wax+"):
                newline = "\r\n"
            return real_open(file, mode, buffering, encoding, errors, newline, *rest, **kwargs)

        def patch():
            monkeypatch.setattr(builtins, "open", crlf)
            monkeypatch.setattr(io, "open", crlf)

        return patch

    @pytest.mark.parametrize("argv", [
        GL_ARGV,
        GL_ARGV + ["--format", "csv"],
        VERIFY_ARGV,
        ["sample", "--anf", EXAMPLE1_ANF, "--draws", "100", "--seed", "3", "--mode", "statevector",
         "--dump-amplitudes", "DUMP"],
        ["spectrum", "--anf", EXAMPLE1_ANF],
        ["spectrum", "--anf", EXAMPLE1_ANF, "--format", "bin"],
    ], ids=["gl-json", "gl-csv", "verify", "sample-dump", "spectrum-csv", "spectrum-bin"])
    def test_crlf_text_mode_leaves_every_file_unchanged(self, argv, crlf_open, tmp_path, capsys):
        files = {}
        for run in ("plain", "crlf"):
            if run == "crlf":
                crlf_open()
                probe = tmp_path / "probe"
                probe.write_text("\n")
                assert probe.read_bytes() == b"\r\n"  # the patch takes effect
            folder = tmp_path / run
            folder.mkdir()
            paths = [str(folder / "dump") if arg == "DUMP" else arg for arg in argv]
            assert main([*paths, "--out", str(folder / "out")]) == 0
            files[run] = {path.name: path.read_bytes() for path in folder.iterdir()}
        assert sorted(files["plain"]) == sorted(["out", *(["dump"] if "DUMP" in argv else [])])
        assert files["crlf"] == files["plain"]

    def test_crlf_text_mode_leaves_saved_inputs_unchanged(self, crlf_open, tmp_path):
        def saved():
            save_truth_table(parse_anf(EXAMPLE1_ANF), tmp_path / "f.tt")
            save_sbox(VectorialFunction(5, 3, list(range(8)) * 4), tmp_path / "f.sbox")
            return [(tmp_path / name).read_bytes() for name in ("f.tt", "f.sbox")]

        plain = saved()
        crlf_open()
        assert saved() == plain
        assert plain[1].count(b"\n") == 3  # a header and two lines of 16 values


def pick(rnd: random.Random, valid: list[str], invalid: list[str]) -> str:
    """A valid value nine times in ten, else an invalid one."""
    return rnd.choice(invalid if invalid and rnd.random() < 0.1 else valid)


def input_flags(rnd: random.Random, with_b: bool) -> tuple[list[str], str | None, int]:
    """An input flag, the text of its file (None for ANF) and its n <= 10:
    mostly well formed, sometimes broken in one of the ways each format can be.
    An S-box gets ``--b`` when the subcommand takes it (``with_b``)."""
    kind = rnd.choice(["--anf", "--tt", "--sbox"])
    if kind == "--anf":
        n = rnd.randint(1, 10)
        monomials = [rnd.sample(range(1, n + 1), rnd.randint(0, min(n, 3)))
                     for _ in range(rnd.randint(1, 5))]
        anf = "+".join("*".join(f"x{i}" for i in sorted(m)) or "1" for m in monomials)
        anf = pick(rnd, [anf], ["0", "x1+&", "x0", "x25", "", f"{anf}+x{LONG}"])
        flags = [kind, anf]
        if rnd.random() < 0.2:
            flags += ["--n", pick(rnd, ["10", str(n)], ["1", "0", "25"])]
        # the target's n: --n, else the highest variable of the expression
        used = max(max(m, default=1) for m in monomials)
        return flags, None, int(flags[-1]) if len(flags) > 2 else used
    n = rnd.randint(1, 10 if kind == "--tt" else 6)
    if kind == "--tt":
        bits = np.array([rnd.getrandbits(1) for _ in range(1 << n)], dtype=np.uint8)
        digits = serialize_truth_table(BooleanFunction(n, bits))
        text = pick(rnd, [f"n={n}\n{digits}\n"], [
            f"n={n}\n{digits[:-1]}\n", f"n={n}\n{digits}g\n", f"n={n}\n{digits}\n{digits}\n",
            f"n=x\n{digits}\n", f"n=99\n{digits}\n", f"n={LONG}\n{digits}\n", "",
        ])
        return [kind, "INPUT"], text, n
    m = rnd.randint(1, 3)
    body = " ".join(str(rnd.randrange(1 << m)) for _ in range(1 << n))
    text = pick(rnd, [f"n={n} m={m}\n{body}\n"], [
        f"n={n} m={m}\n{body} {1 << m}\n", f"n={n} m={m}\n{body} 0\n",
        f"n={n} m={m}\n{body}x\n", f"n={n}\n{body}\n", f"n={n} m=99\n{body}\n", "",
    ])
    b = rnd.randrange(1, 1 << m) if m > 1 else 1
    mask = pick(rnd, [format(b, f"0{m}b"), f"0x{b:x}"], ["0", "0x0", "1" * (m + 1), "0xzz"])
    return [kind, "INPUT"] + (["--b", mask] if with_b == (rnd.random() < 0.95) else []), text, n


# The valid and the invalid values of each flag but the input ones.
FLAG_VALUES = {
    "--eps": (["0.4", "0.5", "0.9", "1", "2/5"], ["0", "1.5", "abc", "1e-100"]),
    "--delta": (["0.05", "0.1", "0.5", "0.9"], ["0", "1", "x"]),
    "--seed": (["0", "7", str((1 << 64) - 1)], ["-1", "1.5"]),
    "--mode": (["spectral", "statevector"], ["quantum"]),
    "--runs": (["100", "150"], ["50", "0", "x"]),
    "--draws": (["1", "100", "1000"], ["0", "-3", "x"]),
    "--top": (["0", "3", "8", "-1", "100000"], ["x"]),
    "--out": (["OUT"], ["DIR"]),
}
# The flags each subcommand takes; any other is a usage error, drawn now and then.
COMMAND_FLAGS = {
    "spectrum": ["--top", "--format", "--out"],
    "sample": ["--seed", "--mode", "--draws", "--out"],
    "gl": ["--eps", "--delta", "--seed", "--mode", "--format", "--out"],
    "verify": ["--eps", "--delta", "--seed", "--mode", "--runs", "--out"],
}
FORMATS = {"spectrum": ["csv", "bin"], "gl": ["json", "csv"]}


def command_line(rnd: random.Random) -> tuple[list[str], str | None, int]:
    """A command line of any subcommand, the text of its input file and its n."""
    command = rnd.choice(sorted(COMMAND_FLAGS))
    argv, text, n = input_flags(rnd, command in ("spectrum", "sample"))
    flags = [flag for flag in COMMAND_FLAGS[command]
             if rnd.random() < (0.97 if flag in ("--eps", "--delta") else 0.9)]
    if rnd.random() < 0.05:
        flags.append(rnd.choice([*FLAG_VALUES, "--format", "--b", "--n"]))
    for flag in flags:
        if flag == "--format":
            value = pick(rnd, FORMATS.get(command, ["csv"]), ["json", "bin", "txt"])
        else:
            value = pick(rnd, *FLAG_VALUES.get(flag, (["1"], [])))
        argv += [flag, value]
    return [command, *argv], text, n


class TestGeneratedCommandLines:
    """Whole command lines, generated: every exit code is in the contract,
    every error message starts with ``walshgl: ``, and every success repeats
    byte for byte and gives the same bytes under either sampling mode.  A
    share of them run with ``WALSHGL_MAX_N`` below n, where the exact half
    exits 3 and a statevector ``gl`` writes its list and exits 4."""

    @staticmethod
    def run(argv: list[str], folder) -> tuple:
        """Exit code, stdout bytes, stderr text and ``--out`` bytes of one run;
        the code is "usage" when argparse exits, which must be with 2."""
        out = folder / "out"
        out.unlink(missing_ok=True)
        argv = [{"INPUT": str(folder / "input"), "OUT": str(out), "DIR": str(folder)}.get(a, a)
                for a in argv]
        stdout, stderr = io.TextIOWrapper(io.BytesIO(), newline="\n"), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv
                code = "usage"
        stdout.flush()
        return code, stdout.buffer.getvalue(), stderr.getvalue(), (
            out.read_bytes() if out.exists() else None
        )

    @seed(20261020)
    @settings(max_examples=150, deadline=None, database=None)
    @given(case_seed=st.integers(0, 2**64 - 1))
    def test_exit_codes_and_bytes(self, case_seed, tmp_path_factory):
        rnd = random.Random(case_seed)
        argv, text, n = command_line(rnd)
        cap = {"WALSHGL_MAX_N": str(rnd.randrange(1, n))} if n > 1 and rnd.random() < 0.3 else {}
        folder = tmp_path_factory.getbasetemp() / "generated"
        folder.mkdir(exist_ok=True)
        if text is not None:
            (folder / "input").write_bytes(text.encode())
        # set and restored within the example: hypothesis reruns no fixture between examples
        with mock.patch.dict(os.environ, cap):
            first = self.run(argv, folder)
            code, _, err, _ = first
            assert code in (0, 2, 3, 4, 5, "usage"), argv
            assert "Traceback" not in err
            if code in (2, 3, 4):
                assert err.startswith("walshgl: "), (argv, err)
            if code == "usage":
                assert "error: " in err
            if code != 0:
                return
            assert self.run(argv, folder) == first, argv
            if argv[0] == "spectrum":
                return
            modes = [value for flag, value in zip(argv, argv[1:]) if flag == "--mode"]
            other = {"spectral": "statevector",
                     "statevector": "spectral"}[(modes or ["spectral"])[-1]]
            twin = self.run([*argv, "--mode", other], folder)  # argparse keeps the last --mode
            if twin[0] == 0:
                assert twin == first, argv
