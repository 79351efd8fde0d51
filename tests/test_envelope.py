"""Seal/open roundtrips, tamper detection, failure-phase attribution."""

import os
from dataclasses import replace

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings, strategies as st

from conftest import (
    HPKE, WRAP_INFO, key_ids_package, make_scenario, previous_format_package, unwrap_content_key,
)
from phtlink.analysis import table_to_csv
from phtlink.encoding import b64encode, canonical_json_bytes
from phtlink.envelope import (
    SealedPackage,
    derive_salt,
    generate_encryption_keypair,
    generate_signing_keys,
    open_package,
    seal,
)
from phtlink.errors import (
    DecodeError,
    DecryptionFailure,
    InnerSignatureFailure,
    OuterIntegrityFailure,
    PhtError,
    RunMismatch,
)
from phtlink.manifest import sign_manifest
from phtlink.network import run_network
from phtlink.pseudonym import SALT_LENGTH
from phtlink.stations import flip_bit
from phtlink.synth import generate_vertical_demo

RUN = "run-0001"


@pytest.fixture(scope="module")
def keys():
    return generate_encryption_keypair(RUN), generate_signing_keys(RUN)


def sealed(keys, plaintext=b"payload bytes", run=RUN, sender="A"):
    kp, sk = keys
    return seal(plaintext, run, sender, kp.public_only(), sk)


class TestKeyGeneration:
    def test_fresh_keys_per_run(self):
        one, two = generate_encryption_keypair("r1"), generate_encryption_keypair("r1")
        assert one.key_id != two.key_id
        assert one.public_encryption_key != two.public_encryption_key
        s_one, s_two = generate_signing_keys("r1"), generate_signing_keys("r1")
        assert s_one.key_id != s_two.key_id
        assert s_one.verification_key != s_two.verification_key


class TestSealOpen:
    def test_roundtrip(self, keys):
        kp, sk = keys
        pkg = sealed(keys)
        assert open_package(pkg, kp, sk.verification_key) == b"payload bytes"

    @given(st.binary(min_size=0, max_size=4096))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, plaintext):
        kp, sk = generate_encryption_keypair(RUN), generate_signing_keys(RUN)
        pkg = seal(plaintext, RUN, "A", kp.public_only(), sk)
        assert open_package(pkg, kp, sk.verification_key, expected_run_id=RUN) == plaintext

    def test_roundtrip_large_payload(self, keys):
        kp, sk = keys
        blob = os.urandom(1024 * 1024)
        pkg = seal(blob, RUN, "A", kp.public_only(), sk)
        assert open_package(pkg, kp, sk.verification_key) == blob

    def test_randomized_encryption(self, keys):
        one, two = sealed(keys), sealed(keys)
        assert one.ciphertext != two.ciphertext
        assert one.wrapped_content_key != two.wrapped_content_key

    def test_ciphertext_not_shorter_than_plaintext(self, keys):
        plaintext = b"x" * 1000
        assert len(sealed(keys, plaintext).ciphertext) >= len(plaintext)

    def test_run_scoped_keys_rejected_for_other_run(self, keys):
        kp, sk = keys
        with pytest.raises(RunMismatch):
            seal(b"x", "run-other", "A", kp.public_only(), sk)

    def test_static_keys_usable_for_any_run(self):
        kp, sk = generate_encryption_keypair(), generate_signing_keys()
        pkg = seal(b"x", "whatever", "A", kp.public_only(), sk)
        assert open_package(pkg, kp, sk.verification_key) == b"x"


class TestFailureAttribution:
    def test_ciphertext_bit_flip_is_outer_failure(self, keys):
        kp, sk = keys
        pkg = sealed(keys)
        for bit in (0, 5, len(pkg.ciphertext) * 8 - 1):
            broken = replace(pkg, ciphertext=flip_bit(pkg.ciphertext, bit))
            with pytest.raises(OuterIntegrityFailure):
                open_package(broken, kp, sk.verification_key)

    def test_tag_bit_flip_is_outer_failure(self, keys):
        kp, sk = keys
        pkg = sealed(keys)
        broken = replace(pkg, outer_auth_tag=flip_bit(pkg.outer_auth_tag, 3))
        with pytest.raises(OuterIntegrityFailure):
            open_package(broken, kp, sk.verification_key)

    def test_header_tamper_is_outer_failure(self, keys):
        kp, sk = keys
        pkg = sealed(keys)
        broken = replace(pkg, sender_station_id="B")
        with pytest.raises(OuterIntegrityFailure):
            open_package(broken, kp, sk.verification_key)

    def test_wrapped_key_tamper_is_decryption_failure(self, keys):
        kp, sk = keys
        pkg = sealed(keys)
        broken = replace(
            pkg, wrapped_content_key=flip_bit(pkg.wrapped_content_key, 300)
        )
        with pytest.raises(DecryptionFailure):
            open_package(broken, kp, sk.verification_key)

    def test_wrong_private_key_is_decryption_failure(self, keys):
        _, sk = keys
        pkg = sealed(keys)
        other = generate_encryption_keypair(RUN)
        with pytest.raises(DecryptionFailure):
            open_package(pkg, other, sk.verification_key)

    def test_wrong_verification_key_is_inner_failure(self, keys):
        kp, _ = keys
        pkg = sealed(keys)
        other = generate_signing_keys(RUN)
        with pytest.raises(InnerSignatureFailure):
            open_package(pkg, kp, other.verification_key)

    def test_replay_into_other_run_is_inner_failure(self):
        kp, sk = generate_encryption_keypair(), generate_signing_keys()
        pkg = seal(b"x", "run-old", "A", kp.public_only(), sk)
        with pytest.raises(InnerSignatureFailure):
            open_package(pkg, kp, sk.verification_key, expected_run_id="run-new")

    def test_no_partial_plaintext_on_failure(self, keys):
        kp, sk = keys
        pkg = sealed(keys, b"secret " * 100)
        failures = 0
        for bit in range(0, 512, 7):
            broken = replace(pkg, ciphertext=flip_bit(pkg.ciphertext, bit))
            try:
                open_package(broken, kp, sk.verification_key)
            except PhtError:
                failures += 1
        assert failures == len(range(0, 512, 7))


class TestHpkeWrap:
    """The content key travels wrapped by standard HPKE (RFC 9180), so a
    package opens with any implementation of it and AES-256-GCM."""

    def test_standard_hpke_and_aes_gcm_open_a_package(self, keys):
        kp, _ = keys
        pkg = sealed(keys, b"interop")
        assert len(pkg.wrapped_content_key) == 92
        unwrapped = unwrap_content_key(pkg, kp)
        content_key, data_nonce = unwrapped[:32], unwrapped[32:]
        aad = canonical_json_bytes(pkg.header())
        inner = AESGCM(content_key).decrypt(data_nonce, pkg.ciphertext + pkg.outer_auth_tag, aad)
        assert inner[:-64] == b"interop"

    def test_wrap_of_the_wrong_length_is_decryption_failure(self, keys):
        """Anyone holding the recipient's public key can HPKE-seal anything
        to it: a wrap of other than a 32-byte key and 12-byte nonce is refused."""
        kp, sk = keys
        public = X25519PublicKey.from_public_bytes(kp.public_encryption_key)
        pkg = replace(sealed(keys), wrapped_content_key=HPKE.encrypt(bytes(40), public, WRAP_INFO))
        with pytest.raises(DecryptionFailure, match="wrong length"):
            open_package(pkg, kp, sk.verification_key)

    def test_previous_format_package_is_a_decode_error(self, keys):
        kp, _ = keys
        old = previous_format_package(sealed(keys), kp)
        assert len(old.wrapped_content_key) == 104
        with pytest.raises(DecodeError):
            SealedPackage.from_bytes(old.to_bytes())


class TestPackageEncoding:
    def test_bytes_roundtrip(self, keys):
        pkg = sealed(keys)
        assert SealedPackage.from_bytes(pkg.to_bytes()) == pkg

    def test_no_private_material_in_encoding(self, keys):
        kp, sk = keys
        from phtlink.encoding import b64encode

        data = sealed(keys).to_bytes()
        for secret in (kp.private_decryption_key, sk.signing_key):
            assert secret not in data
            assert b64encode(secret).encode() not in data
            assert secret.hex().encode() not in data

    def test_header_fields_visible(self, keys):
        pkg = sealed(keys)
        header = pkg.header()
        assert header["sender_station_id"] == "A"
        assert header["run_id"] == RUN
        assert header["algorithms"]["aead"] == "AES-256-GCM"

    def test_binary_layout_header_is_the_aad_bytes(self, keys):
        from phtlink.encoding import canonical_json_bytes

        pkg = sealed(keys)
        data = pkg.to_bytes()
        header = canonical_json_bytes(pkg.header())
        assert data[:4] == len(header).to_bytes(4, "big")
        assert data[4 : 4 + len(header)] == header
        rest = data[4 + len(header) :]
        n_key = int.from_bytes(rest[:2], "big")
        assert rest[2 : 2 + n_key] == pkg.wrapped_content_key
        rest = rest[2 + n_key :]
        assert rest[:2] == (16).to_bytes(2, "big")
        assert rest[2:18] == pkg.outer_auth_tag
        assert rest[18:] == pkg.ciphertext

    def test_every_truncation_is_a_decode_error(self, keys):
        data = sealed(keys).to_bytes()
        header_len = int.from_bytes(data[:4], "big")
        # the ciphertext runs to the end of the buffer, so only cuts before it fail
        for cut in range(4 + header_len + 2 + 92 + 2 + 16):
            with pytest.raises(DecodeError):
                SealedPackage.from_bytes(data[:cut])

    def test_every_length_bit_flip_is_a_decode_error(self, keys):
        data = sealed(keys).to_bytes()
        header_len = int.from_bytes(data[:4], "big")
        key_at = 4 + header_len
        tag_at = key_at + 2 + 92
        length_bits = [*range(0, 32), *range(key_at * 8, key_at * 8 + 16),
                       *range(tag_at * 8, tag_at * 8 + 16)]
        for bit in length_bits:
            with pytest.raises(DecodeError):
                SealedPackage.from_bytes(flip_bit(data, bit))

    def test_bad_header_json_is_a_decode_error(self, keys):
        data = sealed(keys).to_bytes()
        header_len = int.from_bytes(data[:4], "big")
        for header in (b"[]", b"{}", b'{"key_ids":"ab","run_id":"r","sender_station_id":"A"}',
                       b"\xff" * 4):
            body = len(header).to_bytes(4, "big") + header + data[4 + header_len :]
            with pytest.raises(DecodeError):
                SealedPackage.from_bytes(body)


    @pytest.mark.parametrize("rewrite", [
        lambda header: {**header, "algorithms": {**header["algorithms"], "aead": "ROT13"}},
        lambda header: {**header, "note": "x"},
        lambda header: {key: header[key] for key in header if key != "algorithms"},
    ], ids=["rot13", "extra-key", "no-algorithms"])
    def test_header_other_than_the_sealed_one_is_a_decode_error(self, keys, rewrite):
        import json

        from phtlink.encoding import canonical_json_bytes

        data = sealed(keys).to_bytes()
        header_len = int.from_bytes(data[:4], "big")
        header = canonical_json_bytes(rewrite(json.loads(data[4 : 4 + header_len])))
        with pytest.raises(DecodeError):
            SealedPackage.from_bytes(len(header).to_bytes(4, "big") + header
                                     + data[4 + header_len :])

    def test_non_canonical_header_spacing_is_a_decode_error(self, keys):
        """The header bytes are the AAD: they must be the very bytes seal wrote."""
        import json

        data = sealed(keys).to_bytes()
        header_len = int.from_bytes(data[:4], "big")
        spaced = json.dumps(json.loads(data[4 : 4 + header_len]), sort_keys=True).encode()
        assert spaced != data[4 : 4 + header_len]
        with pytest.raises(DecodeError):
            SealedPackage.from_bytes(len(spaced).to_bytes(4, "big") + spaced
                                     + data[4 + header_len :])

    def test_header_holds_the_sender_the_run_and_the_algorithms_only(self, keys):
        import json

        data = sealed(keys).to_bytes()
        header = json.loads(data[4 : 4 + int.from_bytes(data[:4], "big")])
        assert sorted(header) == ["algorithms", "run_id", "sender_station_id"]

    def test_previous_format_header_naming_key_ids_is_a_decode_error(self, keys):
        kp, sk = keys
        old = key_ids_package(sealed(keys), kp, (kp.key_id, sk.key_id))
        # a package the previous format would open: its AAD names the key ids
        assert open_package(old, kp, sk.verification_key) == b"payload bytes"
        with pytest.raises(DecodeError, match="unknown SealedPackage key 'key_ids'"):
            SealedPackage.from_bytes(old.to_bytes())


class TestKeyIds:
    """Every key id is scope:kind: and the first 8 hex digits of SHA-256
    over the public key, so a key read back from its PEM keeps its id."""

    def test_id_is_derived_from_the_public_key(self):
        import hashlib

        kp, sk = generate_encryption_keypair("r1"), generate_signing_keys()
        assert kp.key_id == "r1:enc:" + hashlib.sha256(kp.public_encryption_key).hexdigest()[:8]
        assert sk.key_id == "static:sig:" + hashlib.sha256(sk.verification_key).hexdigest()[:8]

    def test_pem_roundtrip_keeps_the_static_key_id(self):
        from phtlink.envelope import (
            derive_key_id,
            encryption_keypair_from_pem,
            encryption_keypair_to_pem,
            public_key_from_pem,
            signing_keys_from_pem,
            signing_keys_to_pem,
        )

        kp, sk = generate_encryption_keypair(), generate_signing_keys()
        enc_private, enc_public = encryption_keypair_to_pem(kp)
        assert encryption_keypair_from_pem(enc_private) == kp
        assert derive_key_id(public_key_from_pem(enc_public), "enc") == kp.key_id
        assert signing_keys_from_pem(signing_keys_to_pem(sk)[0]) == sk

    @pytest.mark.parametrize("kind", ["encryption", "signing"])
    def test_encrypted_private_key_pem_is_refused_as_a_bad_key(self, kind):
        from cryptography.hazmat.primitives import serialization

        from phtlink.envelope import (
            encryption_keypair_from_pem,
            encryption_keypair_to_pem,
            signing_keys_from_pem,
            signing_keys_to_pem,
        )

        if kind == "encryption":
            plain = encryption_keypair_to_pem(generate_encryption_keypair())[0]
            load = encryption_keypair_from_pem
        else:
            plain = signing_keys_to_pem(generate_signing_keys())[0]
            load = signing_keys_from_pem
        encrypted = serialization.load_pem_private_key(plain, password=None).private_bytes(
            serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8,
            serialization.BestAvailableEncryption(b"secret"),
        )
        with pytest.raises(ValueError, match="encrypted private keys are not supported"):
            load(encrypted)


class TestDerivedSalt:
    """Each data station derives the run's salt from its own key and its
    peer's public key; the salt itself never travels."""

    @staticmethod
    def scenario():
        return make_scenario(*generate_vertical_demo(60, 20, seed=5))

    @staticmethod
    def derived(scn, station=0, manifest=None):
        """The salt station ``station`` of ``scn`` derives for ``manifest``."""
        manifest = manifest or scn.manifest
        config = scn.setup.stations[station]
        (peer_key,) = config.peer_encryption_keys.values()
        return derive_salt(config.enc_keys, peer_key, manifest.run_id, manifest.signable_bytes())

    def test_both_stations_derive_the_same_salt(self):
        scn = self.scenario()
        salt_a, salt_b = self.derived(scn, 0), self.derived(scn, 1)
        assert salt_a == salt_b
        assert len(salt_a.bytes) == SALT_LENGTH and salt_a.run_id == scn.manifest.run_id
        assert salt_a.check == salt_b.check and salt_a.check not in salt_a.bytes.hex()

    def test_salt_changes_with_the_run_id(self):
        one, two = generate_encryption_keypair(), generate_encryption_keypair()
        manifest = b"the same signed manifest"
        salts = {derive_salt(one, two.public_only(), run, manifest).bytes for run in ("r1", "r2")}
        assert len(salts) == 2

    def test_salt_changes_with_a_signed_manifest_field(self):
        scn = self.scenario()
        later = sign_manifest(replace(scn.manifest, expiry="2098-01-01T00:00:00Z"), scn.anchor)
        assert self.derived(scn).bytes != self.derived(scn, manifest=later).bytes
        assert self.derived(scn, 1, later) == self.derived(scn, 0, later)

    def test_key_bound_to_another_run_is_refused(self):
        bound, static = generate_encryption_keypair("run-other"), generate_encryption_keypair()
        for own, peer in ((bound, static), (static, bound)):
            with pytest.raises(RunMismatch):
                derive_salt(own, peer.public_only(), RUN, b"manifest")

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_salt_never_reaches_the_tse_or_a_result_file(self, tmp_path, transport):
        scn = self.scenario()
        salt = self.derived(scn).bytes
        out = run_network(scn.setup, transport=transport, tse_timeout=5.0, run_timeout=30.0)
        assert out.completed
        (tmp_path / "result.json").write_bytes(out.result_bytes)
        for t, table in enumerate(out.result.tables):
            (tmp_path / f"table_{t}.csv").write_text(table_to_csv(table))
        blobs = [*out.received_bytes["TSE"], *(f.read_bytes() for f in tmp_path.iterdir())]
        assert len(blobs) >= 4
        for needle in (salt, b64encode(salt).encode(), salt.hex().encode()):
            assert not any(needle in blob for blob in blobs)
