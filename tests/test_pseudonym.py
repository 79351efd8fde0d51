"""Salted hashing: frozen digest oracles, determinism, avalanche, domain
separation."""

import hashlib
import platform

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import per_row_digests
from phtlink import linkage, pseudonym
from phtlink.model import QuasiIdentifierSet
from phtlink.pseudonym import (
    CHUNK_ROWS,
    DIGEST_HEX_LENGTH,
    LINKAGE_MODES,
    SALT_LENGTH,
    PseudonymVector,
    Salt,
    generate_salt,
    pseudonymize,
    pseudonymize_columns,
)

QID = QuasiIdentifierSet("6211AB", "12", "F", "1960-03-15")
ZERO_SALT = Salt(b"\x00" * 32, "run-zero")

# Frozen oracle values: the first 32 bytes of a standalone SHA-512 run over
# the documented preimages "PHT-COMPOSITE|6211AB|12|F|1960-03-15|" + 32 zero
# bytes and "PHT-FIELD-0|6211AB|" + 32 zero bytes.
ORACLE_COMPOSITE_ZERO_SALT = "c64b0fdb1e6b78e52a1f0fdb0848ef657b572f47950a9e0f6d7688f7dc3a4b8a"
ORACLE_FIELD0_ZERO_SALT = "a6c9c405526e3f139f7dd59b2b2f80a96935451d07703d3568742802ab80fe5f"


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
            ).hexdigest()[:64]
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
            hashlib.sha512(b"PHT-FIELD-0|12|" + salt).hexdigest()[:64]
            != hashlib.sha512(b"PHT-FIELD-1|12|" + salt).hexdigest()[:64]
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
        good = "0" * DIGEST_HEX_LENGTH
        with pytest.raises(ValueError):
            PseudonymVector(composite=good, per_field=(good,) * 3)

    def test_per_field_only_and_composite_only_accepted(self):
        good = "0" * DIGEST_HEX_LENGTH
        assert PseudonymVector(good).per_field == ()
        assert PseudonymVector(None, (good,) * 4).composite is None

    def test_whole_sha512_hex_digest_rejected(self):
        whole = hashlib.sha512(b"PHT-COMPOSITE|").hexdigest()
        with pytest.raises(ValueError, match=f"{DIGEST_HEX_LENGTH} hex"):
            PseudonymVector(whole)
        with pytest.raises(ValueError, match=f"{DIGEST_HEX_LENGTH}-hex"):
            PseudonymVector(None, (whole,) * 4)

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            PseudonymVector(None, ())

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_per_field_arity_other_than_four_rejected_without_composite(self, n):
        with pytest.raises(ValueError):
            PseudonymVector(None, ("0" * DIGEST_HEX_LENGTH,) * n)

    def test_short_per_field_digest_rejected_without_composite(self):
        good = "0" * DIGEST_HEX_LENGTH
        with pytest.raises(ValueError):
            PseudonymVector(None, (good,) * 3 + (good[1:],))


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


@st.composite
def _repetitive_qids(draw):
    """QID lists whose fields each take one of a few values, so most rows
    repeat a value an earlier row already carried."""
    pools = [draw(st.lists(st.text(max_size=6), min_size=1, max_size=3, unique=True))
             for _ in range(4)]
    rows = draw(st.lists(st.tuples(*(st.sampled_from(pool) for pool in pools)), max_size=40))
    return [QuasiIdentifierSet(*row) for row in rows]


class TestBatchPseudonyms:
    @settings(max_examples=100, deadline=None)
    @given(qids=_repetitive_qids(), salt=st.binary(min_size=16, max_size=48))
    def test_batch_composites_are_the_per_row_reference_composites(self, qids, salt):
        salt = Salt(salt, "run-1")
        digests, fields = pseudonymize_columns(qids, salt, "exact")
        assert fields is None and digests.shape == (len(qids), 1)
        hexes = [pseudonymize(qid, salt, "exact").composite for qid in qids]
        assert digests.tobytes() == bytes.fromhex("".join(hexes))

    @settings(max_examples=100, deadline=None)
    @given(qids=_repetitive_qids(), salt=st.binary(min_size=16, max_size=48), data=st.data())
    def test_batch_field_codes_are_the_per_row_reference_digests(self, qids, salt, data):
        salt = Salt(salt, "run-1")
        vectors = [pseudonymize(qid, salt, "probabilistic") for qid in qids]
        digests, fields = pseudonymize_columns(qids, salt, "probabilistic")
        assert digests.shape == (len(qids), 0)
        # expanded through its index, each dictionary gives every row's reference digest
        rows = per_row_digests(fields)
        assert rows.tobytes() == bytes.fromhex("".join(d for vec in vectors for d in vec.per_field))
        # a dictionary is the distinct reference digests, in first-row order
        for k, dictionary in enumerate(fields.dictionaries):
            distinct = dict.fromkeys(vec.per_field[k] for vec in vectors)
            assert dictionary.tobytes() == bytes.fromhex("".join(distinct))
        # split into two sides, the codes are those _codes gives over the rows
        # themselves, A's rows first, as linkage coded per-row digest columns
        cut = data.draw(st.integers(0, len(qids)))
        fields_a = pseudonymize_columns(qids[:cut], salt, "probabilistic")[1]
        fields_b = pseudonymize_columns(qids[cut:], salt, "probabilistic")[1]
        oracle = np.stack([linkage._codes(rows[:, k]) for k in range(4)])
        assert np.array_equal(linkage._field_codes(fields_a, fields_b), oracle)

    def test_zero_rows_give_empty_digest_parts(self):
        digests, fields = pseudonymize_columns([], ZERO_SALT, "exact")
        assert digests.shape == (0, 1) and fields is None
        digests, fields = pseudonymize_columns([], ZERO_SALT, "probabilistic")
        assert digests.shape == (0, 0) and [i.shape for i in fields.index] == [(0,)] * 4
        assert [len(d) for d in fields.dictionaries] == [0] * 4

    @pytest.mark.parametrize("mode", ["fuzzy", None])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ValueError):
            pseudonymize_columns([QID], ZERO_SALT, mode)


def _distinct_qids(n):
    """n QID sets whose zip code, house number and date of birth are each
    distinct, so those fields' dictionaries hold n entries."""
    return [QuasiIdentifierSet(f"Z{i}", str(i), "FM"[i % 2], f"D{i}") for i in range(n)]


def _reference(qids, salt, mode):
    """pseudonymize_columns's bytes, from the per-row reference on
    hashlib.sha512: the composites, or each row's four per-field digests."""
    vectors = [pseudonymize(qid, salt, mode) for qid in qids]
    if mode == "exact":
        return bytes.fromhex("".join(vec.composite for vec in vectors))
    return bytes.fromhex("".join(d for vec in vectors for d in vec.per_field))


def _batch(qids, salt, mode):
    digests, fields = pseudonymize_columns(qids, salt, mode)
    return digests.tobytes() if mode == "exact" else per_row_digests(fields).tobytes()


class TestBatchHashLoop:
    """The batch hashes CHUNK_ROWS preimages at a time through the built-in
    SHA-512 and cuts each chunk's digests in numpy."""

    @pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    @pytest.mark.parametrize("mode", LINKAGE_MODES)
    def test_batch_is_the_reference_around_the_chunk_size(self, mode, n):
        salt = Salt(bytes(range(32)), "run-1")
        qids = _distinct_qids(n)
        assert _batch(qids, salt, mode) == _reference(qids, salt, mode)

    @pytest.mark.parametrize("mode", LINKAGE_MODES)
    def test_hashlib_fallback_gives_the_same_bytes(self, mode, monkeypatch):
        salt = Salt(b"\x09" * 32, "run-1")
        n = CHUNK_ROWS + 1
        qids = _distinct_qids(n)
        built_in = _batch(qids, salt, mode)
        calls = []

        def openssl(preimage):
            calls.append(preimage)
            return hashlib.sha512(preimage)

        monkeypatch.setattr(pseudonym, "BATCH_SHA512", openssl)
        assert _batch(qids, salt, mode) == built_in
        # one call per composite, or per distinct value of each field: n zip
        # codes, house numbers and dates of birth, two genders
        assert len(calls) == {"exact": n, "probabilistic": 3 * n + 2}[mode]

    @pytest.mark.skipif(platform.python_implementation() != "CPython",
                        reason="the built-in SHA-512 modules are CPython's")
    def test_cpython_hashes_with_its_built_in_sha512(self):
        # a silent fall back to hashlib.sha512 gives the same bytes, slower on 3.10 and 3.11
        assert pseudonym.BATCH_SHA512.__module__ in ("_sha512", "_sha2")
