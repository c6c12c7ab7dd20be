"""Walsh spectra of Boolean functions and heavy-coefficient search by
simulated quantum sampling, validated against an exact integer oracle."""

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
    serialize_anf,
    serialize_truth_table,
)
from .errors import CapacityError, ParseError
from .gl import (
    GLParams,
    HeavyEntry,
    HeavyList,
    VerificationReport,
    derive_params,
    run_algorithm1,
    run_algorithm2,
    verify_against_oracle,
)
from .qsim import (
    QuantumState,
    SampleStream,
    apply_hadamard,
    apply_uip,
    apply_xor_oracle,
    dj_amplitudes,
    dj_sample,
    dj_sample_stream,
    dj_state,
    qwt_bf_sample,
    qwt_bf_sample_stream,
    qwt_bf_state,
)
from .stats import (
    TrialReport,
    distribution_distance,
    hoeffding_failure_bound,
    monte_carlo_theorem1,
    monte_carlo_theorem2,
)
from .walsh import (
    WalshSpectrum,
    component_spectrum,
    fwht,
    heavy_set_exact,
    linear_approximation_table,
    read_spectrum_binary,
    spectra,
    spectrum_to_csv,
    walsh_coefficient_naive,
    write_spectrum_binary,
)

__version__ = "0.1.0"
