import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as scipy_stats

from walshgl import (
    BitVector,
    BooleanFunction,
    CapacityError,
    derive_params,
    fwht,
    monte_carlo,
    parse_anf,
)
from walshgl.gl import GLParams
from walshgl.stats import binomial_interval

from conftest import linear_function, planted_function
from reference import distribution_distance, hoeffding_failure_bound


class TestHoeffdingBound:
    def test_direct_value(self):
        assert hoeffding_failure_bound(8, 1) == pytest.approx(math.exp(-1))

    def test_inverse_of_derivation(self):
        # with l = 8 ln(1/delta) / eps^4 taken exactly, the bound returns delta
        assert hoeffding_failure_bound(8, 1) == pytest.approx(1 / math.e, rel=1e-12)
        l = 8 * math.log(1 / 0.2) / 0.5**4
        assert hoeffding_failure_bound(l, 0.5) == pytest.approx(0.2, rel=1e-9)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            hoeffding_failure_bound(0, 0.5)
        with pytest.raises(ValueError):
            hoeffding_failure_bound(10, 0)

    def test_derived_params_meet_delta_grid(self):
        # ceiling on l only helps, so the bound must sit at or under delta
        for eps_i in range(1, 21):
            for delta_j in range(1, 21):
                eps = Fraction(eps_i, 20)
                delta = delta_j / 21
                p = derive_params(eps, delta)
                assert hoeffding_failure_bound(p.l, eps) <= delta + 1e-12


class TestDistributionDistance:
    def test_point_mass_zero_distance(self):
        f = linear_function(3, 0b101)
        counts = np.zeros(8)
        counts[0b101] = 1000
        assert distribution_distance(counts, fwht(f)) == 0.0

    def test_hand_value_two_of_four(self):
        # P uniform on 4 points; empirical uniform on 2 of them:
        # 0.5 * (2*|0.5-0.25| + 2*|0-0.25|) = 0.5
        f = parse_anf("x1*x2", n=2)
        counts = {0b00: 500, 0b01: 500}
        assert distribution_distance(counts, fwht(f)) == pytest.approx(0.5)

    def test_hand_value_skewed_point_mass(self):
        # indicator of one input: W(0) = 6, W(a != 0) = -2, so
        # P = (9/16, 1/16 * 7); point mass on 0 gives
        # TV = 0.5 * (|1 - 9/16| + 7 * 1/16) = 7/16
        f = BooleanFunction(3, [1, 0, 0, 0, 0, 0, 0, 0])
        spec = fwht(f)
        assert spec.coeffs.tolist() == [6, -2, -2, -2, -2, -2, -2, -2]
        counts = {0b000: 1234}
        assert distribution_distance(counts, spec) == pytest.approx(7 / 16)

    def test_large_sample_converges(self, example1):
        from walshgl import Sampler

        draws = Sampler(fwht(example1)).draw(31, 0, 100_000)
        counts = np.bincount(draws.astype(np.int64), minlength=16)
        assert distribution_distance(counts, fwht(example1)) <= 0.02

    def test_empty_rejected(self, example1):
        with pytest.raises(ValueError):
            distribution_distance(np.zeros(16), fwht(example1))

    def test_mapping_with_bitvectors(self, example1):
        counts = {BitVector(4, 0b1001): 3, BitVector(4, 0b1100): 1}
        tv = distribution_distance(counts, fwht(example1))
        assert 0 < tv < 1


class TestBinomialInterval:
    def test_ordering_and_clipping(self):
        low, high = binomial_interval(3, 100)
        assert 0 <= low <= 3 / 100 <= high <= 1
        assert binomial_interval(0, 50) == (0.0, 0.0)

    def test_quadrupling_runs_halves_width(self):
        low1, high1 = binomial_interval(10, 100)
        low2, high2 = binomial_interval(40, 400)
        assert (high2 - low2) == pytest.approx((high1 - low1) / 2)


class TestMonteCarloTheorem1:
    def test_example1_gated_acceptance(self, example1):
        rep = monte_carlo(example1, derive_params("0.4", 0.05), runs=200, base_seed=11)
        assert rep.designated == "1001"  # largest |S|, smallest encoding
        assert rep.completeness_rate <= rep.gate_threshold
        assert rep.soundness_failures == 0
        assert rep.passed

    def test_linear_never_fails(self):
        f = linear_function(6, 0b110101)
        rep = monte_carlo(f, derive_params("0.9", 0.1), runs=100, base_seed=5)
        assert rep.completeness_failures == 0
        assert rep.soundness_failures == 0
        assert rep.simultaneous_ok.count(False) == 0

    def test_tiny_l_constant_function(self):
        # eps=1, delta=0.5: l = ceil(8 ln 2) = 6, s = 3; point mass never misses
        f = BooleanFunction(3, [0] * 8)
        rep = monte_carlo(f, derive_params(1, 0.5), runs=100, base_seed=2)
        assert rep.params.l == 6 and rep.params.s == 3
        assert rep.completeness_failures == 0

    def test_spread_spectrum_rate_matches_binomial_tail(self):
        # AND gate: P = 1/4 on each of four outcomes. At eps=0.5, delta=0.5
        # the designated vector misses iff Bin(l, 1/4) < ceil(s).
        f = parse_anf("x1*x2", n=2)
        rep = monte_carlo(f, derive_params("0.5", 0.5), runs=200, base_seed=3)
        p_fail = scipy_stats.binom.cdf(rep.params.count_threshold - 1, rep.params.l, 0.25)
        slack = 3 * math.sqrt(p_fail * (1 - p_fail) / 200)
        assert rep.completeness_rate <= p_fail + slack
        assert rep.completeness_rate <= rep.gate_threshold
        assert rep.passed

    def test_vacuous_when_nothing_is_heavy(self, example1):
        rep = monte_carlo(example1, derive_params("0.9", 0.1), runs=100, base_seed=7)
        assert rep.completeness_vacuous
        assert rep.designated is None
        assert rep.completeness_failures == 0

    def test_explicit_w0_validated(self, example1):
        with pytest.raises(ValueError):
            monte_carlo(
                example1, derive_params("0.4", 0.05), runs=100, base_seed=1, w0=BitVector(4, 0)
            )

    def test_minimum_runs_enforced(self, example1):
        with pytest.raises(ValueError):
            monte_carlo(example1, derive_params("0.4", 0.05), runs=50, base_seed=1)

    @pytest.mark.parametrize("base_seed", [-1, 2**64])
    def test_base_seed_outside_64_bits_refused(self, example1, base_seed):
        with pytest.raises(ValueError, match=rf"^seed {base_seed} is outside 0\.\.2\^64 - 1$"):
            monte_carlo(example1, derive_params("0.4", 0.05), runs=100, base_seed=base_seed)

    def test_runs_past_the_largest_array(self, example1):
        runs = 10**20
        with pytest.raises(CapacityError, match=rf"^runs={runs} exceeds the largest array of run keys$"):
            monte_carlo(example1, derive_params("0.4", 0.05), runs=runs, base_seed=1)

    @pytest.mark.parametrize("epsilon", ["0", "-0.25", "1.5"])
    def test_epsilon_checked_with_explicit_params(self, example1, identity_sbox3, epsilon):
        # the judged epsilon is the params' own, so an out-of-range one is
        # refused before any run, whether derived or set on explicit params
        params = derive_params("0.4", 0.05)
        for target in (example1, identity_sbox3):
            with pytest.raises(ValueError, match="epsilon"):
                monte_carlo(
                    target,
                    dataclasses.replace(params, epsilon=Fraction(epsilon)),
                    runs=100,
                    base_seed=1,
                )
            with pytest.raises(ValueError, match="epsilon"):
                monte_carlo(target, derive_params(epsilon, 0.05), runs=100, base_seed=1)

    def test_corrupted_threshold_is_flagged(self):
        # planted S just below eps/2; halving s makes it cross the count cut
        f = planted_function(7, 0b1011001, 49, seed=60)
        assert fwht(f)[0b1011001] == 30  # S = 0.234375 < 0.25
        honest = derive_params("0.5", 0.05)
        corrupted = GLParams(honest.epsilon, honest.delta, honest.l, honest.s / 2)
        bad = monte_carlo(f, corrupted, runs=200, base_seed=77)
        assert bad.soundness_failures > 0
        assert not bad.passed
        good = monte_carlo(f, derive_params("0.5", 0.05), runs=200, base_seed=77)
        assert good.soundness_failures == 0
        assert good.passed

    def test_determinism(self, example1):
        a = monte_carlo(example1, derive_params("0.4", 0.05), runs=100, base_seed=9)
        b = monte_carlo(example1, derive_params("0.4", 0.05), runs=100, base_seed=9)
        assert a == b


class TestMonteCarloTheorem2:
    def test_identity_sbox_never_fails(self, identity_sbox3):
        rep = monte_carlo(identity_sbox3, derive_params("0.9", 0.1), runs=100, base_seed=13)
        assert rep.completeness_failures == 0
        assert rep.soundness_failures == 0
        assert rep.simultaneous_ok.count(False) == 0
        assert rep.designated is not None and rep.passed

    def test_nonlinear_sbox_gated(self, nonlinear_sbox3):
        rep = monte_carlo(nonlinear_sbox3, derive_params("0.45", 0.05), runs=100, base_seed=19)
        assert rep.completeness_rate <= rep.gate_threshold
        assert rep.soundness_failures == 0
        assert rep.passed


class TestDesignatedVector:
    """An explicit w0 is named in the report as the target's own kind of
    heavy vector: a bitstring on a Boolean function, an (a, b) pair on an
    S-box; anything else is not epsilon-heavy."""

    def test_boolean_vector_named_by_bitstring(self, example1):
        rep = monte_carlo(example1, derive_params("0.4", 0.05), runs=100, base_seed=4, w0=BitVector(4, 0b1100))
        assert rep.designated == "1100"  # the default would be "1001"
        assert rep.fixture == "n=4 boolean"

    def test_sbox_pair_named_by_a_and_b(self, identity_sbox3):
        pair = (BitVector(3, 0b010), BitVector(3, 0b010))
        rep = monte_carlo(identity_sbox3, derive_params("0.9", 0.1), runs=100, base_seed=4, w0=pair)
        assert rep.designated == "a=010 b=010"  # the default would be "a=001 b=001"
        assert rep.fixture == "n=3 m=3 sbox"
        assert rep.completeness_failures == 0

    @pytest.mark.parametrize("w0", [
        (BitVector(3, 0b001), BitVector(3, 0b010)),  # S = 0 on component 010
        BitVector(3, 0b001),  # a bare vector names no component
    ], ids=["pair", "bare-vector"])
    def test_sbox_rejects_non_heavy_designation(self, identity_sbox3, w0):
        with pytest.raises(ValueError, match=r"^designated w0=.* is not epsilon-heavy$"):
            monte_carlo(identity_sbox3, derive_params("0.9", 0.1), runs=100, base_seed=4, w0=w0)

    def test_boolean_rejects_a_pair(self, example1):
        pair = (BitVector(4, 0b1001), BitVector(1, 1))
        with pytest.raises(ValueError, match=r"^designated w0=.* is not epsilon-heavy$"):
            monte_carlo(example1, derive_params("0.4", 0.05), runs=100, base_seed=4, w0=pair)


class TestTrialReport:
    @pytest.fixture
    def report(self, example1):
        return monte_carlo(example1, derive_params("0.4", 0.05), runs=100, base_seed=21)

    def test_gate_threshold_formula(self, report):
        d = report.params.delta
        assert report.gate_threshold == pytest.approx(d + 3 * math.sqrt(d * (1 - d) / 100))

    def test_json_fields(self, report):
        doc = report.to_json_dict()
        for key in (
            "fixture",
            "runs",
            "params",
            "designated",
            "completeness_vacuous",
            "completeness",
            "soundness",
            "simultaneous_ungated",
            "gate_threshold",
            "passed",
            "per_run",
        ):
            assert key in doc
        assert doc["runs"] == 100
        lo, hi = doc["completeness"]["interval"]
        assert lo <= doc["completeness"]["rate"] <= hi
        assert len(doc["per_run"]["completeness_ok"]) == 100
