"""Salted hashing: frozen digest oracles, determinism, avalanche, domain
separation."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from phtlink.model import QuasiIdentifierSet
from phtlink.pseudonym import (
    DIGEST_HEX_LENGTH,
    SALT_LENGTH,
    PseudonymVector,
    Salt,
    generate_salt,
    pseudonymize,
)

QID = QuasiIdentifierSet("6211AB", "12", "F", "1960-03-15")
ZERO_SALT = Salt(b"\x00" * 32, "run-zero")

# Frozen oracle values, computed with a standalone SHA-512 run over the
# documented preimages "PHT-COMPOSITE|6211AB|12|F|1960-03-15|" + 32 zero
# bytes and "PHT-FIELD-0|6211AB|" + 32 zero bytes.
ORACLE_COMPOSITE_ZERO_SALT = (
    "c64b0fdb1e6b78e52a1f0fdb0848ef657b572f47950a9e0f6d7688f7dc3a4b8a"
    "7d1ee0e1617a3b006661d43dfcededd57ff15eae2b933c16b672d1f778a14104"
)
ORACLE_FIELD0_ZERO_SALT = (
    "a6c9c405526e3f139f7dd59b2b2f80a96935451d07703d3568742802ab80fe5f"
    "206507a9df35da482117d831b901dfd7c1a05e78ad4a500755cc5b7ce4a90fee"
)


def qids(n, seed=0):
    from phtlink.synth import SyntheticPopulationSpec, generate_population

    large, _, _ = generate_population(
        SyntheticPopulationSpec(
            n_large=n, n_small=0, overlap_fraction=0.0, perturbation_rate=0.0, seed=seed
        )
    )
    return [r.qid for r in large.rows]


class TestSalt:
    def test_length_is_32_bytes(self):
        assert len(generate_salt("run-1").bytes) == SALT_LENGTH == 32

    def test_two_calls_differ(self):
        assert generate_salt("run-1").bytes != generate_salt("run-1").bytes

    def test_empty_run_id_rejected(self):
        with pytest.raises(ValueError):
            generate_salt("")

    def test_short_salt_rejected(self):
        with pytest.raises(ValueError):
            Salt(b"\x00" * 15, "run-1")


class TestPseudonymize:
    def test_frozen_zero_salt_oracle(self):
        vec = pseudonymize(QID, ZERO_SALT)
        assert vec.composite == ORACLE_COMPOSITE_ZERO_SALT
        assert vec.per_field[0] == ORACLE_FIELD0_ZERO_SALT

    def test_digest_shape(self):
        vec = pseudonymize(QID, ZERO_SALT)
        assert len(vec.composite) == DIGEST_HEX_LENGTH
        assert all(len(d) == DIGEST_HEX_LENGTH for d in vec.per_field)
        assert vec.composite not in vec.per_field

    def test_two_stations_same_salt_agree(self):
        salt = generate_salt("run-1")
        station_one = pseudonymize(QID, salt)
        station_two = pseudonymize(QID, Salt(salt.bytes, salt.run_id))
        assert station_one == station_two

    def test_two_salts_change_all_five_digests(self):
        salt_a, salt_b = Salt(b"\x01" * 32, "r"), Salt(b"\x02" * 32, "r")
        va, vb = pseudonymize(QID, salt_a), pseudonymize(QID, salt_b)
        assert va.composite != vb.composite
        assert all(x != y for x, y in zip(va.per_field, vb.per_field))
        # independent recomputation from the documented preimage layout
        for salt, vec in ((salt_a, va), (salt_b, vb)):
            expected = hashlib.sha512(
                b"PHT-COMPOSITE|6211AB|12|F|1960-03-15|" + salt.bytes
            ).hexdigest()
            assert vec.composite == expected

    def test_avalanche_per_field(self):
        base = pseudonymize(QID, ZERO_SALT)
        variants = [
            QuasiIdentifierSet("6211AC", "12", "F", "1960-03-15"),
            QuasiIdentifierSet("6211AB", "13", "F", "1960-03-15"),
            QuasiIdentifierSet("6211AB", "12", "M", "1960-03-15"),
            QuasiIdentifierSet("6211AB", "12", "F", "1960-03-16"),
        ]
        for i, variant in enumerate(variants):
            vec = pseudonymize(variant, ZERO_SALT)
            assert vec.composite != base.composite
            assert vec.per_field[i] != base.per_field[i]
            for j in range(4):
                if j != i:
                    assert vec.per_field[j] == base.per_field[j]

    def test_domain_separation_prefixes(self):
        # equal value strings in different field positions can never collide
        salt = b"\x07" * 32
        assert (
            hashlib.sha512(b"PHT-FIELD-0|12|" + salt).hexdigest()
            != hashlib.sha512(b"PHT-FIELD-1|12|" + salt).hexdigest()
        )

    def test_per_field_digests_pairwise_distinct(self):
        salt = generate_salt("run-1")
        for qid in qids(50):
            vec = pseudonymize(qid, salt)
            assert len(set(vec.per_field)) == 4
            assert vec.composite not in vec.per_field

    @given(st.binary(min_size=32, max_size=32), st.binary(min_size=32, max_size=32))
    @settings(max_examples=30)
    def test_determinism_pure_function_of_inputs(self, raw_a, raw_b):
        va = pseudonymize(QID, Salt(raw_a, "r"))
        vb = pseudonymize(QID, Salt(raw_b, "r"))
        assert (va == vb) == (raw_a == raw_b)


class TestPseudonymVector:
    def test_wrong_digest_length_rejected(self):
        with pytest.raises(ValueError):
            PseudonymVector(composite="ab", per_field=("ab",) * 4)

    def test_wrong_arity_rejected(self):
        good = "0" * 128
        with pytest.raises(ValueError):
            PseudonymVector(composite=good, per_field=(good,) * 3)

    def test_per_field_only_and_composite_only_accepted(self):
        good = "0" * 128
        assert PseudonymVector(good).per_field == ()
        assert PseudonymVector(None, (good,) * 4).composite is None

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            PseudonymVector(None, ())

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_per_field_arity_other_than_four_rejected_without_composite(self, n):
        with pytest.raises(ValueError):
            PseudonymVector(None, ("0" * 128,) * n)

    def test_short_per_field_digest_rejected_without_composite(self):
        with pytest.raises(ValueError):
            PseudonymVector(None, ("0" * 128,) * 3 + ("0" * 127,))


class TestModeScopedPseudonyms:
    def test_exact_mode_computes_the_composite_only(self):
        vec = pseudonymize(QID, ZERO_SALT, "exact")
        assert vec.composite == ORACLE_COMPOSITE_ZERO_SALT
        assert vec.per_field == ()

    def test_probabilistic_mode_computes_the_per_field_digests_only(self):
        vec = pseudonymize(QID, ZERO_SALT, "probabilistic")
        assert vec.composite is None
        assert vec.per_field[0] == ORACLE_FIELD0_ZERO_SALT

    def test_each_mode_is_the_matching_part_of_the_full_vector(self):
        salt = generate_salt("run-1")
        for qid in qids(20, seed=3):
            full = pseudonymize(qid, salt)
            assert pseudonymize(qid, salt, "exact") == PseudonymVector(full.composite)
            assert pseudonymize(qid, salt, "probabilistic") == PseudonymVector(
                None, full.per_field
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            pseudonymize(QID, ZERO_SALT, "fuzzy")
