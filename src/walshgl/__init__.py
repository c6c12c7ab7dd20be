"""Walsh spectra of Boolean functions and heavy-coefficient search by
simulated quantum sampling, validated against an exact integer oracle."""

import os

# walshgl calls no BLAS routine, so numpy's OpenBLAS is loaded without its
# worker threads: the cap holds only while this import loads numpy, only if
# the variable is unset, and not at all if numpy was imported first.
_cap = "OPENBLAS_NUM_THREADS" not in os.environ
if _cap:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy
finally:
    if _cap:
        del os.environ["OPENBLAS_NUM_THREADS"]
del _cap, numpy, os

from .boolfn import (
    MAX_M,
    MAX_N,
    BitVector,
    BooleanFunction,
    VectorialFunction,
    load_sbox,
    load_truth_table,
    parse_anf,
    parse_sbox,
    parse_truth_table,
    save_sbox,
    save_truth_table,
    serialize_truth_table,
)
from .errors import CapacityError, ParseError
from .gl import (
    GLParams,
    HeavyEntry,
    HeavyList,
    VerificationReport,
    derive_params,
    search,
    verify_against_oracle,
)
from .qsim import (
    QuantumState,
    Sampler,
    apply_hadamard,
    apply_uip,
    apply_xor_oracle,
    dj_state,
    measured_spectrum,
    qwt_bf_state,
)
from .stats import TrialReport, monte_carlo
from .walsh import (
    WalshSpectrum,
    fwht,
    heavy_set_exact,
    read_spectrum_binary,
    spectra,
    spectrum_to_csv,
    write_spectrum_binary,
)

__version__ = "0.1.0"
