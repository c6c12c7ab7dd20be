import dataclasses
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walshgl import (
    BitVector,
    BooleanFunction,
    CapacityError,
    GLParams,
    HeavyEntry,
    HeavyList,
    Sampler,
    VectorialFunction,
    derive_params,
    fwht,
    search,
    verify_against_oracle,
)

from walshgl import gl, qsim, walsh

from conftest import (
    EXAMPLE1_SPECTRUM,
    linear_function,
    planted_function,
    random_function,
    random_vectorial,
    source_spectrum,
)
from reference import outcomes


class TestDeriveParams:
    def test_unit_epsilon_inverse_e(self):
        p = derive_params(1, 1 / math.e)
        assert (p.l, p.s) == (8, Fraction(4))
        assert p.count_threshold == 4

    def test_example_04_005(self):
        p = derive_params("0.4", 0.05)
        assert p.l == 937
        assert p.s == Fraction(1874, 25)  # 74.96 exactly
        assert float(p.s) == 74.96
        assert p.count_threshold == 75

    def test_degenerate_confidence_keeps_one_sample(self):
        p = derive_params(1, 0.9999999)
        assert p.l >= 1
        assert p.s > 0

    def test_invariants(self):
        for eps, delta in [("0.3", 0.01), ("0.9", 0.2), (1, 0.5)]:
            p = derive_params(eps, delta)
            expected_l = math.ceil(8 * math.log(1 / delta) / float(Fraction(eps) ** 4))
            assert p.l == expected_l
            assert p.s == Fraction(eps) ** 2 * p.l / 2
            assert 0 < p.s <= p.l

    def test_range_validation(self):
        for eps, delta in [(0, 0.1), (1.5, 0.1), ("0.4", 0), ("0.4", 1)]:
            with pytest.raises(ValueError):
                derive_params(eps, delta)

    @pytest.mark.parametrize("eps", [math.inf, -math.inf, math.nan])
    def test_float_infinity_and_nan_epsilon_are_out_of_range(self, eps):
        with pytest.raises(ValueError, match=rf"^epsilon must be in \(0, 1\], got {eps}$"):
            derive_params(eps, 0.5)

    def test_strict_confidence_divides_delta(self):
        loose = derive_params("0.4", 0.05)
        strict = derive_params("0.4", 0.05, strict_confidence=True)
        # floor(4 / 0.16) = 25 candidates at the Parseval bound
        assert strict.delta == 0.05 / 25
        assert strict.l > loose.l
        assert strict.l == math.ceil(8 * math.log(25 / 0.05) / float(Fraction("0.4") ** 4))

    @pytest.mark.parametrize(
        "eps, delta, strict",
        [
            ("1e-100", 0.5, False),  # float(eps^4) is 0.0
            ("1e-80", 0.5, False),  # float(eps^4) is subnormal and l overflows
            ("1e-100", 0.5, True),
            ("1e-80", 0.5, True),
            ("1e-200", 0.5, True),  # floor(4/eps^2) is beyond a float
            ("1e-60", 1e-300, True),  # the divided delta underflows to 0.0
        ],
    )
    def test_tiny_epsilon_is_a_capacity_error(self, eps, delta, strict):
        with pytest.raises(CapacityError, match="not finite"):
            derive_params(eps, delta, strict_confidence=strict)

    @pytest.mark.parametrize("delta", [1e-310, 5e-324, "1e-310"], ids=["float", "smallest", "text"])
    def test_delta_whose_inverse_overflows(self, delta):
        # 1/delta is inf, so l takes -log(delta), which is finite for every positive float
        assert derive_params("0.9", delta).l == math.ceil(8 * -math.log(float(delta)) / 0.9**4)

    def test_delta_text_below_every_float_is_a_capacity_error(self):
        with pytest.raises(CapacityError, match="delta=1e-400 is below the smallest positive float"):
            derive_params("0.9", "1e-400")
        with pytest.raises(ValueError, match=r"delta must be in \(0, 1\), got -0.0"):
            derive_params("0.9", "-1e-400")

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GLParams(Fraction(1, 2), 0.1, 0, Fraction(1))
        with pytest.raises(ValueError):
            GLParams(Fraction(1, 2), 0.1, 4, Fraction(5))
        for epsilon in ("0", "-0.25", "1.5"):
            with pytest.raises(ValueError, match="epsilon"):
                GLParams(Fraction(epsilon), 0.05, 937, Fraction(937, 2))


class TestAlgorithm1:
    def test_example1_recovers_heavy_set(self, example1):
        p = derive_params("0.4", 0.05)
        for seed in (0, 1, 2, 7, 1234):
            result = search(example1, p, seed=seed)[0]
            assert {e.a.value for e in result.entries} == set(EXAMPLE1_SPECTRUM)
            assert result.queries == 937

    @pytest.mark.parametrize("mode", ["spectral", "statevector"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_refused(self, example1, nonlinear_sbox3, seed, mode):
        p = derive_params("0.5", 0.1)
        for target in (example1, nonlinear_sbox3):
            with pytest.raises(ValueError, match=rf"^seed {seed} is outside 0\.\.2\^64 - 1$"):
                search(target, p, seed=seed, mode=mode)
            assert search(target, p, seed=2**64 - 1, mode=mode)[0].seed == 2**64 - 1

    def test_linear_point_mass(self):
        f = linear_function(5, 0b10011)
        p = derive_params("0.9", 0.1)
        result = search(f, p, seed=3)[0]
        assert [e.a.value for e in result.entries] == [0b10011]
        assert result.entries[0].count == p.l

    def test_constant_zero(self):
        f = BooleanFunction(4, [0] * 16)
        result = search(f, derive_params("0.5", 0.1), seed=5)[0]
        assert [e.a.value for e in result.entries] == [0]

    def test_determinism(self, example1):
        p = derive_params("0.4", 0.05)
        r1 = search(example1, p, seed=99)[0]
        r2 = search(example1, p, seed=99)[0]
        assert r1 == r2

    def test_mode_recorded_and_statevector_works(self, example1):
        p = derive_params("0.4", 0.05)
        result = search(example1, p, seed=6, mode="statevector")[0]
        assert {e.a.value for e in result.entries} == set(EXAMPLE1_SPECTRUM)

    def test_raising_threshold_shrinks_list(self, example1):
        p = derive_params("0.4", 0.05)
        tighter = GLParams(p.epsilon, p.delta, p.l, p.s * 3)
        loose = search(example1, p, seed=42)[0]
        tight = search(example1, tighter, seed=42)[0]
        assert {e.a for e in tight.entries} <= {e.a for e in loose.entries}

    def test_spectral_never_emits_zero_coefficient(self):
        rng = np.random.default_rng(51)
        f = random_function(5, rng)
        spec = fwht(f)
        weak = derive_params("0.2", 0.9)  # small l, permissive threshold
        result = search(f, weak, seed=8)[0]
        for e in result.entries:
            assert spec[e.a] != 0

    def test_query_accounting_instrumented(self, example1, monkeypatch):
        from walshgl import rng

        calls = {"draws": 0}
        original = rng.key_rows

        def counting(seeds, label, count, bits, rows):
            for start, keys in original(seeds, label, count, bits, rows):
                calls["draws"] += keys.size
                yield start, keys

        monkeypatch.setattr(rng, "key_rows", counting)
        p = derive_params("0.4", 0.05)
        result = search(example1, p, seed=1)[0]
        assert calls["draws"] == p.l == result.queries


class TestAlgorithm2:
    def test_identity_sbox(self, identity_sbox3):
        p = derive_params("0.9", 0.1)
        result = search(identity_sbox3, p, seed=1)[0]
        assert {(e.a, e.b) for e in result.entries} == {
            (BitVector(3, b), BitVector(3, b)) for b in range(1, 8)
        }
        assert result.queries == 7 * p.l

    def test_smallest_instance(self):
        F = VectorialFunction(1, 1, [0, 1])
        p = derive_params(1, 1 / math.e)
        result = search(F, p, seed=123)[0]
        assert {(e.a, e.b) for e in result.entries} == {(BitVector(1, 1), BitVector(1, 1))}
        assert result.queries == p.l == 8

    def test_nonlinear_sbox_matches_exact_lat(self, nonlinear_sbox3):
        # Expected set computed with a plain double loop, not the butterfly.
        table = nonlinear_sbox3.table
        expected = set()
        for b in range(1, 8):
            for a in range(8):
                total = sum(
                    1 - 2 * ((bin(a & x).count("1") + bin(b & int(table[x])).count("1")) & 1)
                    for x in range(8)
                )
                if abs(total) / 8 >= 0.45:
                    expected.add((BitVector(3, a), BitVector(3, b)))
        assert len(expected) == 28
        result = search(nonlinear_sbox3, derive_params("0.45", 0.05), seed=17)[0]
        assert {(e.a, e.b) for e in result.entries} == expected

    def test_entries_sorted_by_b_then_a(self, identity_sbox3):
        result = search(identity_sbox3, derive_params("0.9", 0.1), seed=2)[0]
        keys = [(e.b.value, e.a.value) for e in result.entries]
        assert keys == sorted(keys)

    def test_determinism(self, nonlinear_sbox3):
        p = derive_params("0.45", 0.05)
        assert search(nonlinear_sbox3, p, seed=5)[0] == search(nonlinear_sbox3, p, seed=5)[0]

    def test_query_count_scales_with_components(self):
        F = VectorialFunction(2, 2, [3, 0, 2, 1])
        p = derive_params("0.5", 0.2)
        result = search(F, p, seed=4)[0]
        assert result.queries == 3 * p.l


class TestQueryCountIndependentOfN:
    def test_constant_queries_across_n(self):
        p = derive_params("0.6", 0.1)
        seen = set()
        for n in range(4, 13):
            f = linear_function(n, (1 << n) - 1)
            result = search(f, p, seed=n)[0]
            seen.add(result.queries)
        assert seen == {p.l}


class TestVerifyAgainstOracle:
    def test_example1_run_verifies(self, example1):
        result = search(example1, derive_params("0.4", 0.05), seed=7)[0]
        report = verify_against_oracle(example1, result)
        assert report.complete and report.sound
        assert report.missing == () and report.violators == ()

    def test_empty_list_vacuously_complete(self, example1):
        p = derive_params("0.6", 0.05)
        result = search(example1, p, seed=3)[0]
        report = verify_against_oracle(example1, result)
        assert report.complete  # no coefficient reaches 0.6

    def test_adversarial_zero_vector_flagged(self, example1):
        result = search(example1, derive_params("0.4", 0.05), seed=1)[0]
        bogus = HeavyEntry(a=BitVector(4, 0b0001), b=None, count=100)  # W = 0
        tampered = HeavyList(
            params=result.params,
            entries=result.entries + (bogus,),
            queries=result.queries,
            seed=result.seed,
        )
        report = verify_against_oracle(example1, tampered)
        assert not report.sound
        assert BitVector(4, 0b0001) in report.violators
        assert report.complete  # completeness unaffected

    def test_missing_vector_reported(self, example1):
        result = search(example1, derive_params("0.4", 0.05), seed=1)[0]
        pruned = HeavyList(
            params=result.params,
            entries=tuple(e for e in result.entries if e.a.value != 0b1001),
            queries=result.queries,
            seed=result.seed,
        )
        report = verify_against_oracle(example1, pruned)
        assert not report.complete
        assert report.missing == (BitVector(4, 0b1001),)

    def test_vectorial_verification(self, identity_sbox3):
        result = search(identity_sbox3, derive_params("0.9", 0.1), seed=1)[0]
        report = verify_against_oracle(identity_sbox3, result)
        assert report.complete and report.sound

    def test_vectorial_soundness_half_threshold(self, nonlinear_sbox3):
        # every nonzero LAT entry is +-4, |S| = 0.5 >= 0.45/2, so any
        # emitted pair is sound even at a low count threshold
        weak = derive_params("0.45", 0.9)
        result = search(nonlinear_sbox3, weak, seed=9)[0]
        report = verify_against_oracle(nonlinear_sbox3, result)
        assert report.sound


    @pytest.mark.parametrize("a,b", [
        ("001", "000"), ("001", "00011"), ("000", None), ("101000", "001"), ("01", "001"),
    ], ids=["zero-b", "wide-b", "no-b", "wide-a", "narrow-a"])
    def test_sbox_entry_naming_no_vector_refused(self, nonlinear_sbox3, a, b):
        self._refused(nonlinear_sbox3, a, b)

    @pytest.mark.parametrize("a,b", [("0001", "001"), ("00", None), ("00001", None)],
                             ids=["with-b", "narrow-a", "wide-a"])
    def test_boolean_entry_naming_no_vector_refused(self, example1, a, b):
        self._refused(example1, a, b)

    @staticmethod
    def _refused(target, a, b):
        result = search(target, derive_params("0.45", 0.05), seed=17)[0]
        stray = HeavyEntry(BitVector.parse(a), None if b is None else BitVector.parse(b), 100)
        tampered = dataclasses.replace(result, entries=result.entries + (stray,))
        with pytest.raises(ValueError, match=rf"^entry a={a} b={b} names no vector of the target$"):
            verify_against_oracle(target, tampered)


class TestAnnotationAndExport:
    def test_annotate_boolean(self, example1):
        annotated = gl.search(example1, derive_params("0.4", 0.05), 7, "spectral", True)[0]
        for e in annotated.entries:
            assert e.exact_s == EXAMPLE1_SPECTRUM[e.a.value] / 16

    def test_annotate_vectorial(self, identity_sbox3):
        annotated = gl.search(identity_sbox3, derive_params("0.9", 0.1), 1, "spectral", True)[0]
        assert all(e.exact_s == 1.0 for e in annotated.entries)

    def test_json_schema(self, example1):
        result = gl.search(example1, derive_params("0.4", 0.05), 7, "spectral", True)[0]
        doc = result.to_json_dict()
        assert set(doc) == {"params", "entries", "queries", "seed"}
        assert doc["params"] == {"epsilon": 0.4, "delta": 0.05, "l": 937, "s": 74.96}
        assert doc["queries"] == 937 and doc["seed"] == 7
        assert len(doc["entries"]) == 4
        entry = doc["entries"][0]
        assert set(entry) == {"a", "count", "exact_S"}
        assert entry["a"] == "1001"
        assert json.dumps(doc)  # serializable

    def test_json_pairs_include_b(self, identity_sbox3):
        result = search(identity_sbox3, derive_params("0.9", 0.1), seed=1)[0]
        doc = result.to_json_dict()
        assert all(set(e) == {"a", "b", "count"} for e in doc["entries"])
        assert doc["entries"][0]["b"] == "001"


def _per_run_reference(target, params, seed, mode):
    """The count-and-threshold rule one run at a time: np.unique over the
    stream's l draws, kept at ceil(s), then checked against the spectrum."""
    entries, missing, violators, queries = [], [], [], 0
    for b in gl._components(target):
        spectrum = next(walsh.spectra(target, [b]))
        sampler = Sampler(source_spectrum(target, b, mode))
        draws = outcomes(sampler, seed, 0 if b is None else b.value, params.l)
        values, counts = np.unique(draws, return_counts=True)
        queries += params.l
        listed = []
        for v, c in zip(values.tolist(), counts.tolist()):
            if c >= params.count_threshold:
                a = BitVector(target.n, v)
                listed.append(a)
                entries.append((a, b, c, spectrum[a] / 2**target.n))
        name = (lambda a: a) if b is None else (lambda a: (a, b))
        scale = 1 << target.n
        missing += [
            name(BitVector(target.n, a)) for a in range(scale)
            if Fraction(abs(int(spectrum.coeffs[a])), scale) >= params.epsilon
            and BitVector(target.n, a) not in listed
        ]
        violators += [
            name(a) for a in listed if Fraction(abs(spectrum[a]), scale) < params.epsilon / 2
        ]
    return entries, queries, missing, violators


class TestBatchedSearch:
    @given(
        shape=st.one_of(
            st.tuples(st.integers(1, 8), st.none()),
            st.tuples(st.integers(1, 4), st.integers(1, 4)),
        ),
        table_seed=st.integers(0, 2**32 - 1),
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=7),
        eps=st.sampled_from(["0.3", "0.5", "0.7", "1"]),
        delta=st.sampled_from([0.05, 0.3, 0.9]),
        mode=st.sampled_from(["spectral", "statevector"]),
        batch=st.sampled_from(["1", "l", "3l+1"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_batches_equal_per_run_rule(self, shape, table_seed, seeds, eps, delta, mode, batch):
        n, m = shape
        table_rng = np.random.default_rng(table_seed)
        target = (
            random_function(n, table_rng) if m is None else random_vectorial(n, m, table_rng)
        )
        params = derive_params(eps, delta)
        size = {"1": 1, "l": params.l, "3l+1": 3 * params.l + 1}[batch]
        with mock.patch.object(qsim, "_DRAW_BATCH", size):
            heavy, found, violated = gl._search_runs(target, params, seeds, mode)
            searched = [gl.search(target, params, seed, mode, True) for seed in seeds]
        names = [name for _, name in heavy]
        for r, (seed, (result, report)) in enumerate(zip(seeds, searched)):
            entries, queries, missing, violators = _per_run_reference(target, params, seed, mode)
            assert [(e.a, e.b, e.count, e.exact_s) for e in result.entries] == entries
            assert result.queries == queries
            assert list(report.missing) == missing
            assert list(report.violators) == violators
            assert [name for name, hit in zip(names, found[r]) if not hit] == missing
            assert violated[r] == bool(violators)


class TestVerifierMatchesSearch:
    @given(
        shape=st.one_of(
            st.tuples(st.integers(1, 8), st.none()),
            st.tuples(st.integers(1, 4), st.integers(1, 4)),
        ),
        table_seed=st.integers(0, 2**32 - 1),
        planted=st.booleans(),
        seed=st.integers(0, 2**64 - 1),
        eps=st.sampled_from(["0.3", "0.5", "0.7", "1"]),
        delta=st.sampled_from([0.05, 0.3, 0.9]),
        mode=st.sampled_from(["spectral", "statevector"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_post_hoc_verdict_equals_search(
        self, shape, table_seed, planted, seed, eps, delta, mode
    ):
        n, m = shape
        table_rng = np.random.default_rng(table_seed)
        if m is not None:
            target = random_vectorial(n, m, table_rng)
        elif planted:  # one coefficient anywhere in [-1, 1], the rest small
            w0, d = (int(v) for v in table_rng.integers(0, 1 << n, size=2))
            target = planted_function(n, w0, d, table_seed)
        else:
            target = random_function(n, table_rng)
        result, report = gl.search(target, derive_params(eps, delta), seed, mode, True)
        assert verify_against_oracle(target, result) == report
        bs = gl._components(target)
        exact = dict(zip(bs, walsh.spectra(target, bs)))
        for e in result.entries:
            assert e.exact_s == exact[e.b].coeffs[int(e.a)] / (1 << target.n)
