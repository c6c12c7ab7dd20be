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

The two statevector ``verify`` digests were taken at commit b762b74, whose
statevector sampler drew float keys with ``random()`` and inverted them in
a float cumulative table.  Their parameters leave some runs incomplete (1
of 200 on EXAMPLE1, 13 of 100 on the S-box), so the per-run flags pin the
statevector draws of every run.

``sample-example1-dump`` and ``spectrum-tt17-bin`` were taken at commit
93b7023, which wrote the amplitude dump one line per amplitude, decoded a
``.tt`` hex line one character at a time and ran the butterfly as one full
pass over the array per level.  The n=17 binary dump holds all 2^17
coefficients, so it pins the hex decoder and a butterfly longer than one
cache block.  That commit wrote each amplitude part as the ``repr`` of a
numpy scalar, which is ``0.5`` under numpy 1.x but ``np.float64(0.5)``
under numpy 2; the dump digest is of its numpy 1.x bytes (its numpy 2
output with every ``np.float64(x)`` replaced by ``x``), which the dump now
writes under either numpy.

``gl-aes`` was taken at commit d850acf, which built each S-box component
as a packed ``BooleanFunction`` and transformed it alone.  Its 14,033
entries carry ``exact_S``, so it pins all 255 component spectra through
the search, the annotation and the verification.
"""

import hashlib

import pytest

from walshgl import VectorialFunction, save_sbox, save_truth_table
from walshgl.cli import main

from conftest import DATA, EXAMPLE1_ANF, NONLINEAR_SBOX3, planted_function

ANF17 = "1+x1*x2*x3+x2*x4*x5+x6*x7+x8*x9*x10+x11+x12*x13*x14*x15+x16*x17+x1*x17+x3*x9*x13"
E1_GL = ["gl", "--anf", EXAMPLE1_ANF, "--eps", "0.4", "--delta", "0.05", "--seed", "7"]
E1_SAMPLE = ["sample", "--anf", EXAMPLE1_ANF, "--draws", "1000", "--seed", "7"]

# name -> (argv, stdout sha256, --out sha256 or None when stdout carries the result).
# "{sbox3}" and "{id3}" stand for the nonlinear and identity 3-bit S-box files,
# "{tt17}" for the planted n=17 truth table, and "{out}" for the file whose
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
        "6f832950eac4b9f51f8f1b42b82ce13e83d54640e8c0ddbba00a4b814fb626e0",
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
        "1d1f9fd2a5243c8cbb79e1cb4d68d207a3b3098f21b14b33e6c13b52cbd5c7a4",
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
        "1d1f9fd2a5243c8cbb79e1cb4d68d207a3b3098f21b14b33e6c13b52cbd5c7a4",
        "46167ba5ad00c012f40a135c6831646a3b60f0bc1e96fdba5dff85d3fc59ebf8",
    ),
    "spectrum-tt17-bin": (
        ["spectrum", "--tt", "{tt17}", "--format", "bin"],
        "d5ab0ce0fdbf2da38ed3e1d91aa262674e0035618aeab8417138d3e94496a8d8",
        "20ac748e2e2466421fb08e6c9d10df2a082922f90088ce8237ebc4c55fdc0f65",
    ),
    "verify-example1-statevector": (
        ["verify", "--anf", EXAMPLE1_ANF, "--eps", "0.5", "--delta", "0.5", "--seed", "11",
         "--mode", "statevector"],
        "2e0fdcd8285b0935322b5a2a361cab9f4b962972978b7f0c4853e3b705d7348c",
        "7da55d518e1ef969dc200dc7aaf71cbb34e3d15f6fa52d0486963d3eeecd5e8e",
    ),
    "verify-sbox3-statevector": (
        ["verify", "--sbox", "{sbox3}", "--eps", "0.5", "--delta", "0.9", "--runs", "100",
         "--seed", "3", "--mode", "statevector"],
        "97dd94c3fe8a1ee6e5b887ff8240fd0526e910006d7820790362576093fbb2bd",
        "63137a4d2ac7b7bd7796d04bad2f6d2a6e92dffb15e22773cdea8763b2e4266c",
    ),
    "gl-aes": (
        ["gl", "--sbox", str(DATA / "aes_sbox.sbox"), "--eps", "0.125", "--delta", "0.5",
         "--seed", "3"],
        "6e4a95a04eb299209c225b24c3a3e31bb568315cd87f4e3f02f55ae93fbad688",
        "c3ead1458a9387887c807f43b7bc383f7899e4580efe93213a8aace4714627e4",
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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden_bytes(name, tmp_path, capsys):
    argv, stdout_sha, out_sha = GOLDEN[name]
    sbox3, id3 = tmp_path / "sbox3.sbox", tmp_path / "id3.sbox"
    save_sbox(VectorialFunction(3, 3, NONLINEAR_SBOX3), sbox3)
    save_sbox(VectorialFunction(3, 3, list(range(8))), id3)
    tt17 = tmp_path / "planted17.tt"
    save_truth_table(planted_function(17, 0b10110011100011010, 1 << 15, 17), tt17)
    out = tmp_path / "out"
    if out_sha is not None and "{out}" not in argv:
        argv = argv + ["--out", "{out}"]
    argv = [a.format(sbox3=sbox3, id3=id3, tt17=tt17, out=out) for a in argv]

    assert main(argv) == 0
    assert _sha256(capsys.readouterr().out.encode()) == stdout_sha
    if out_sha is not None:
        assert _sha256(out.read_bytes()) == out_sha
