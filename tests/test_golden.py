"""Golden CLI outputs: exact stdout and ``--out`` bytes for fixed seeds.

The digests were taken from the implementation that still had separate
Boolean and S-box code paths; any change to a fixed-seed stream, a count,
an annotation or the output formatting shows up here, even when two runs
of the same build agree with each other.

The ``spectrum`` digests were taken at commit fd62c64, whose ``parse_anf``
XORed one mask per monomial and whose ``spectrum_to_csv`` wrote one
``csv.writer`` row at a time, before either was rewritten.  The n=17 CSV
has 2^17 rows, so it spans more than one export chunk, and its S column
holds negative, zero and fractional values.

The ``sample`` digests and ``verify-planted17`` were taken at commit
b618cee, which drew every run through ``SampleStream.draw_encoded`` with a
new Philox generator, counted it with ``np.unique`` and wrote one sample
line at a time.  The planted n=17 function has W(w0) = 2^16, so the
spectral draws take the ``integers`` path for bounds above 2^32, and about
one run in ten misses w0, which pins the per-run pattern of the draws.

The statevector source hands the sampler the |W| it reads off the
simulated marginal, so every ``--mode statevector`` case draws the spectral
stream: its digests are those of the same argv with ``--mode spectral``,
taken at commit d4e84a0, before the statevector source changed (the dump's
stdout is that of the same argv without the dump).  On the S-box, 6 of the
100 ``verify`` runs fail completeness, so the per-run flags pin the
draws of every run; on EXAMPLE1 all 200 runs are complete.
``test_statevector_twins_equal_spectral_bytes`` compares each statevector
case with its spectral twin directly.

The amplitude file of ``sample-example1-dump`` and ``spectrum-tt17-bin``
were taken at commit 93b7023, which wrote the amplitude dump one line per
amplitude, decoded a ``.tt`` hex line one character at a time and ran the
butterfly as one full pass over the array per level.  The n=17 binary dump
holds all 2^17 coefficients, so it pins the hex decoder and a butterfly
longer than one cache block.  That commit wrote each amplitude part as the
``repr`` of a numpy scalar, which is ``0.5`` under numpy 1.x but
``np.float64(0.5)`` under numpy 2; the dump digest is of its numpy 1.x
bytes (its numpy 2 output with every ``np.float64(x)`` replaced by ``x``),
which the dump now writes under either numpy.

The amplitude files of ``sample-sbox3-dump-b5`` and ``sample-sbox3-dump-b7``
were taken at commit c7c88f5, whose ``apply_uip`` multiplied by an int32
+-1 built from each parity bit rather than reading it from
``walsh._SIGN_SPECTRA``.  Each holds the 2^10 amplitudes of the
multi-output circuit on the nonlinear 3-bit S-box, signed zeros included:
negating the odd-parity amplitudes in place of the multiply turns
``542,-0.0,0.0`` into ``542,0.0,0.0`` and fails both, so they pin the
phase rule of every branch of the circuit.

``spectrum-s12-b`` and ``gl-s12`` were taken at commit fcd0ade, whose
components and inner-product phase took each parity by six shift-xor passes
over uint64 rather than from a byte table.  Their S-box has n = 10 and
m = 12, so every ``table & b`` spans two bytes (AES has m = 8): a parity
that reads only the low byte changes both.

``verify-sbox3-20000-maxseed`` was taken at commit d3eaf79, which keyed
each Monte-Carlo run by its own call of a Python-int splitmix64 rather than
mixing all run labels in one uint64 array pass.  Its base seed is 2^64 - 1,
the widest, so each run's key is the complement of its mixed label, and
2,024 of its 20,000 runs fail completeness, which pins the per-run flags.

``gl-aes`` was taken at commit d850acf, which built each S-box component
as a packed ``BooleanFunction`` and transformed it alone.  Its 14,033
entries carry ``exact_S``, so it pins all 255 component spectra through
the search, the annotation and the verification.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest

from walshgl import VectorialFunction, qsim, save_sbox, save_truth_table
from walshgl.cli import main

from conftest import DATA, EXAMPLE1_ANF, NONLINEAR_SBOX3, planted_function

ANF17 = "1+x1*x2*x3+x2*x4*x5+x6*x7+x8*x9*x10+x11+x12*x13*x14*x15+x16*x17+x1*x17+x3*x9*x13"
E1_GL = ["gl", "--anf", EXAMPLE1_ANF, "--eps", "0.4", "--delta", "0.05", "--seed", "7"]
E1_SAMPLE = ["sample", "--anf", EXAMPLE1_ANF, "--draws", "1000", "--seed", "7"]
S12 = ["--sbox", "{s12}"]
SBOX3_DUMP = ["sample", "--sbox", "{sbox3}", "--b", "0x5", "--mode", "statevector", "--draws",
              "10", "--seed", "7", "--dump-amplitudes", "{out}"]

# name -> (argv, stdout sha256, --out sha256 or None when stdout carries the result).
# "{sbox3}" and "{id3}" stand for the nonlinear and identity 3-bit S-box files,
# "{tt17}" for the planted n=17 truth table, "{s12}" for the n=10, m=12 S-box
# x -> (x * 0x9E37 + (x >> 3)) mod 2^12, and "{out}" for the file whose
# digest is the third field when the command writes it without ``--out``.
GOLDEN = {
    "gl-example1-json": (
        E1_GL,
        "71aaf7dca5c18cff9773d72bb621523ba93ac70302471333a989be5473c6f999",
        "1f4ae34d60c3e520a728e9a76abd734217bdef412c28bd814707fea5e92bef9e",
    ),
    "gl-example1-csv": (
        E1_GL + ["--format", "csv"],
        "3cd39bf9b81e2b13db2420bc2be205b86cfba8144797be885f0bf71abb27b020",
        None,
    ),
    "gl-sbox3": (
        ["gl", "--sbox", "{sbox3}", "--eps", "0.5", "--delta", "0.1", "--seed", "7"],
        "83a994b3dd3644bf2cb62830f378ad30424b52b09c6acb871c6461816751d7ec",
        "5212f408d829f6d94160750606e651138845bbfcd497863ca55b974f43fd6df9",
    ),
    "gl-example1-statevector": (
        E1_GL + ["--mode", "statevector"],
        "71aaf7dca5c18cff9773d72bb621523ba93ac70302471333a989be5473c6f999",
        "1f4ae34d60c3e520a728e9a76abd734217bdef412c28bd814707fea5e92bef9e",
    ),
    "verify-example1": (
        ["verify", "--anf", EXAMPLE1_ANF, "--eps", "0.4", "--delta", "0.05", "--seed", "11"],
        "885ad133a644674ca47fa84b1ccf418acdd8dd49db27613766fbaf5be4934a4b",
        "1fd25c013782e4cc27cc75fafcb745466e456ac53ea6a106485a67463898be60",
    ),
    "verify-id3": (
        ["verify", "--sbox", "{id3}", "--eps", "0.9", "--delta", "0.1", "--runs", "100",
         "--seed", "3"],
        "c420e7db41646b46ac1fb4cdc1b00077e0fa0640ca42aa034babc06c657077b9",
        "0da4bf727475c0cf2a3c78b8bdc6bb43a4fa6ad41a265770cd652aba219dfb22",
    ),
    "spectrum-anf17-csv": (
        ["spectrum", "--anf", ANF17],
        "9e6794bcae1f673f0bd24657eab7157c6383900c684717e4d77fd6e974d0c613",
        "708379b2b25b9aabe06eb1352eae8ae08ccbdc509f9d82c18b7771d01b7f1ab9",
    ),
    "spectrum-anf17-bin": (
        ["spectrum", "--anf", ANF17, "--format", "bin"],
        "9e6794bcae1f673f0bd24657eab7157c6383900c684717e4d77fd6e974d0c613",
        "4601b514a0628f4e085ecbf28f41758c6f17ab00612368dc1c78674b3d0df30c",
    ),
    "spectrum-aes-b": (
        ["spectrum", "--sbox", str(DATA / "aes_sbox.sbox"), "--b", "0x1b"],
        "42deec5462da923588f1044c9eb73f17619dd48c65221c615acd7d551799a073",
        None,
    ),
    "spectrum-example1-top-all": (
        ["spectrum", "--anf", EXAMPLE1_ANF, "--top", "20"],
        "a29490a94affd068c17af3ecfb43c604ddbed90deb16cfa8ab8f5f8443393ef8",
        "5d3426a764b683cc3f51cd3f610c8c7268ffbe79ce580ac2fc4906deba998445",
    ),
    "sample-example1-spectral": (
        E1_SAMPLE,
        "1ef5e566cc2139cbdadb0a5b4fca7c085aabc3624443f8fc07df0c5fa25a2906",
        None,
    ),
    "sample-example1-statevector": (
        E1_SAMPLE + ["--mode", "statevector"],
        "1ef5e566cc2139cbdadb0a5b4fca7c085aabc3624443f8fc07df0c5fa25a2906",
        None,
    ),
    "sample-sbox3-b": (
        ["sample", "--sbox", "{sbox3}", "--b", "0x5", "--draws", "1000", "--seed", "7"],
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "558292fe5016b5c0e147eb512f8f3502e9314b8b1cf31207a1e668c4bf9a6746",
    ),
    "sample-aes-b": (
        ["sample", "--sbox", str(DATA / "aes_sbox.sbox"), "--b", "0x1b", "--draws", "1000",
         "--seed", "7"],
        "dec0a78c46284456d24fc75dd34d2f524919d6948e211a0a2d6f4b19df92a9d5",
        None,
    ),
    "sample-example1-dump": (
        E1_SAMPLE + ["--mode", "statevector", "--dump-amplitudes", "{out}"],
        "1ef5e566cc2139cbdadb0a5b4fca7c085aabc3624443f8fc07df0c5fa25a2906",
        "46167ba5ad00c012f40a135c6831646a3b60f0bc1e96fdba5dff85d3fc59ebf8",
    ),
    "sample-sbox3-dump-b5": (
        SBOX3_DUMP,
        "6fdb2efd986dfb79faab92e67514c3ff5081288229a6b198829294edfc0e4122",
        "05a22405f9ed9df7085b180e4a397075582c5ee8900b3aa9be3f73eb2472f763",
    ),
    "sample-sbox3-dump-b7": (
        ["0x7" if a == "0x5" else a for a in SBOX3_DUMP],
        "4a282f1e4bc55de17e78cabb39a5a22a8beaf7a9918b5ae1a3d779883168e48c",
        "fc23d774b7b7283d1b46606e39ec74caaf4f15137e0781bcf509bc80dde477a5",
    ),
    "spectrum-tt17-bin": (
        ["spectrum", "--tt", "{tt17}", "--format", "bin"],
        "d5ab0ce0fdbf2da38ed3e1d91aa262674e0035618aeab8417138d3e94496a8d8",
        "20ac748e2e2466421fb08e6c9d10df2a082922f90088ce8237ebc4c55fdc0f65",
    ),
    "verify-example1-statevector": (
        ["verify", "--anf", EXAMPLE1_ANF, "--eps", "0.5", "--delta", "0.5", "--seed", "11",
         "--mode", "statevector"],
        "d02fe04c7d7862fe0e8f8e1002004f1a9ef35b37581b20c23e0df044a35fda63",
        "8ff68390ac4105eea45e8b046639e3a8e0872dfee064faa4b00198380ed0cbe7",
    ),
    "verify-sbox3-statevector": (
        ["verify", "--sbox", "{sbox3}", "--eps", "0.5", "--delta", "0.9", "--runs", "100",
         "--seed", "3", "--mode", "statevector"],
        "99602c7765c1dcc027d21e6d5d4d13425136762c4a90fe49451a2a138286c038",
        "8cd76c6f818d9c971e9466a606acb88e6a22030d4059caa881a2320cf6b4fce2",
    ),
    "spectrum-s12-b": (
        ["spectrum", *S12, "--b", "0xfff"],
        "c47507edd3b82c4289bf524b69c7bc3080dc677b8119e602068e987a5e0bd8e1",
        None,
    ),
    "gl-s12": (
        ["gl", *S12, "--eps", "0.5", "--delta", "0.5", "--seed", "7"],
        "021f200929b37e8ff0b173bf17d0f61a39b7307d1e69dfc87f9212750d94c4f4",
        "95829ad9f97595b025a9838cf6adee293c7de84c5628baae82b870cd7aabcccc",
    ),
    "gl-aes": (
        ["gl", "--sbox", str(DATA / "aes_sbox.sbox"), "--eps", "0.125", "--delta", "0.5",
         "--seed", "3"],
        "6e4a95a04eb299209c225b24c3a3e31bb568315cd87f4e3f02f55ae93fbad688",
        "c3ead1458a9387887c807f43b7bc383f7899e4580efe93213a8aace4714627e4",
    ),
    "verify-sbox3-20000-maxseed": (
        ["verify", "--sbox", "{sbox3}", "--eps", "0.5", "--delta", "0.9", "--runs", "20000",
         "--seed", str((1 << 64) - 1)],
        "44155aa5ea9268ebb9f687013f6684195273bb31bb080cf157507ac0967b6232",
        "99a6b8e16c8a18807643b81088d90a8f8a4f068337ca5fadc0ed0b43ee73e22c",
    ),
    "verify-planted17": (
        ["verify", "--tt", "{tt17}", "--eps", "0.5", "--delta", "0.9", "--runs", "100",
         "--seed", "5"],
        "16939a62e9d86de0d15574923a8e5c0e760226388f1a613b421d64f4673d1758",
        "9619a3fca1a370b702d60629aced1b7e1b6f1bf77a7fdd8f9e0fe8e4aa232b5f",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv, tmp_path, capsys) -> tuple[int, str, str, bytes | None]:
    """Exit code, stdout, stderr and the ``{out}`` file's bytes (None when
    the command writes none) of one GOLDEN argv, run in process."""
    sbox3, id3 = tmp_path / "sbox3.sbox", tmp_path / "id3.sbox"
    save_sbox(VectorialFunction(3, 3, NONLINEAR_SBOX3), sbox3)
    save_sbox(VectorialFunction(3, 3, list(range(8))), id3)
    tt17 = tmp_path / "planted17.tt"
    save_truth_table(planted_function(17, 0b10110011100011010, 1 << 15, 17), tt17)
    s12, x = tmp_path / "s12.sbox", np.arange(1 << 10)
    save_sbox(VectorialFunction(10, 12, (x * 0x9E37 + (x >> 3)) % 4096), s12)
    out = tmp_path / "out"
    argv = [a.format(sbox3=sbox3, id3=id3, tt17=tt17, s12=s12, out=out) for a in argv]
    code = main(argv)
    stdout, stderr = capsys.readouterr()
    return code, stdout, stderr, out.read_bytes() if out.exists() else None


def _with_out(argv, out_sha):
    return argv + ["--out", "{out}"] if out_sha is not None and "{out}" not in argv else argv


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden_bytes(name, tmp_path, capsys):
    argv, stdout_sha, out_sha = GOLDEN[name]
    code, stdout, _, out = _run(_with_out(argv, out_sha), tmp_path, capsys)
    assert code == 0
    assert _sha256(stdout.encode()) == stdout_sha
    if out_sha is not None:
        assert _sha256(out) == out_sha


@pytest.mark.parametrize("name", sorted(k for k, v in GOLDEN.items() if "statevector" in v[0]))
def test_statevector_twins_equal_spectral_bytes(name, tmp_path, capsys):
    """Each statevector case gives the exit code, stdout, stderr and
    ``--out`` bytes of its argv with ``--mode spectral``: the simulated
    circuit draws what the butterfly's spectrum draws.  The amplitude dump
    has no spectral twin, so that case's twin drops it."""
    argv, _, out_sha = GOLDEN[name]
    argv = _with_out(argv, out_sha)
    twin = ["spectral" if a == "statevector" else a for a in argv]
    if "--dump-amplitudes" in twin:
        at = twin.index("--dump-amplitudes")
        twin = twin[:at] + twin[at + 2 :]
    (tmp_path / "statevector").mkdir()
    (tmp_path / "spectral").mkdir()
    state = _run(argv, tmp_path / "statevector", capsys)
    spectral = _run(twin, tmp_path / "spectral", capsys)
    if "--dump-amplitudes" in argv:
        state = state[:3] + (None,)
    assert state == spectral


@pytest.mark.parametrize("name", ["sample-example1-dump", "sample-sbox3-dump-b5"])
def test_dump_job_simulates_its_circuit_once(name, tmp_path, capsys):
    """A ``--dump-amplitudes`` job simulates its circuit once and hands that
    one state to the dump and to the sampler, with the golden bytes."""
    argv, stdout_sha, out_sha = GOLDEN[name]
    with mock.patch.object(qsim, "dj_state", wraps=qsim.dj_state) as dj, \
            mock.patch.object(qsim, "qwt_bf_state", wraps=qsim.qwt_bf_state) as qwt:
        code, stdout, _, out = _run(argv, tmp_path, capsys)
    assert (dj.call_count, qwt.call_count) == ((1, 0) if "--anf" in argv else (0, 1))
    assert code == 0
    assert _sha256(stdout.encode()) == stdout_sha and _sha256(out) == out_sha
