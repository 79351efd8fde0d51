"""u estimation, Fellegi-Sunter weights, link modes, one-to-one assignment,
merge semantics. Probabilistic output is checked against the independent
all-pairs oracle from conftest."""

import dataclasses
import hashlib
import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_force_u, oracle_link, pseudonymized
from phtlink import linkage
from phtlink.errors import (
    CandidateBudgetExceeded,
    DegenerateParams,
    MissingPseudonyms,
    SchemaCollision,
)
from phtlink.linkage import (
    LinkageParams,
    LinkResult,
    estimate_u,
    link,
    merge,
    score_pair,
)
from phtlink.model import (
    QID_FIELDS, Record, dataset_from_bytes, dataset_to_bytes, hex_field_codes, make_dataset,
)
from phtlink.pseudonym import (
    DIGEST_DTYPE, DIGEST_HEX_LENGTH, PseudonymVector, Salt, generate_salt,
)
from phtlink.synth import SyntheticPopulationSpec, generate_population

# frozen hand-derived weights for m=0.9, u=0.1
ALL_AGREE_WEIGHT = 12.679700005769249  # 4 * log2(9)
THREE_AGREE_WEIGHT = 6.339850002884624  # 3 * log2(9) + log2(1/9)


def fake_vec(zip_v="z1", house_v="h1", gender_v="F", dob_v="d1"):
    """Pseudonym vector with digests derived from short labels; equal labels
    give equal digests, which is all linkage looks at. A digest is the last
    DIGEST_DTYPE.itemsize bytes of a SHA-512, so it ends where the SHA-512 does."""
    def digest(prefix, value):
        return hashlib.sha512(f"{prefix}|{value}".encode()).hexdigest()[-DIGEST_HEX_LENGTH:]

    return PseudonymVector(
        composite=digest("comp", f"{zip_v}{house_v}{gender_v}{dob_v}"),
        per_field=(
            digest("f0", zip_v),
            digest("f1", house_v),
            digest("f2", gender_v),
            digest("f3", dob_v),
        ),
    )


def pseudo_dataset(station_id, vectors, variable="age", base_value=40):
    rows = [
        Record(payload={variable: base_value + i}, pseudonym=v)
        for i, v in enumerate(vectors)
    ]
    return make_dataset(station_id, ((variable, "numeric"),), rows)


def synthetic_pair(seed, n_large=60, n_small=40, overlap=0.5, perturbation=0.1):
    large, small, truth = generate_population(
        SyntheticPopulationSpec(
            n_large=n_large,
            n_small=n_small,
            overlap_fraction=overlap,
            perturbation_rate=perturbation,
            seed=seed,
        )
    )
    salt = Salt(hashlib.sha512(str(seed).encode()).digest()[:32], "run-t")
    return pseudonymized(large, salt), pseudonymized(small, salt)


class TestEstimateU:
    def test_uniform_binary_field_gives_half(self):
        side = [fake_vec(gender_v="F"), fake_vec(gender_v="M")]
        u = estimate_u(side, list(side))
        assert u[2] == 0.5

    def test_degenerate_single_value_clamped(self):
        side = [fake_vec(zip_v="same") for _ in range(5)]
        u = estimate_u(side, side)
        assert u[0] == 1.0 - 1e-9

    def test_empty_side_rejected(self):
        # the refusal itself, not a numpy reduction over an empty array
        for side_a, side_b in (([], [fake_vec()]), ([fake_vec()], [])):
            with pytest.raises(ValueError, match="non-empty"):
                estimate_u(side_a, side_b)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_brute_force_cross_pair_fraction(self, seed):
        ds_a, ds_b = synthetic_pair(seed)
        pa = [r.pseudonym for r in ds_a.rows]
        pb = [r.pseudonym for r in ds_b.rows]
        u = estimate_u(pa, pb)
        brute = brute_force_u(pa, pb)
        for got, want in zip(u, brute):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestScorePair:
    def params(self, m=0.9, u=0.1):
        return LinkageParams(m=(m,) * 4, u=(u,) * 4, t_upper=8.0, t_lower=0.0)

    def test_equal_m_u_gives_zero_weight(self):
        scored = score_pair(fake_vec(), fake_vec(), self.params(m=0.5, u=0.5))
        assert scored.weight == 0.0

    def test_all_agree_weight(self):
        scored = score_pair(fake_vec(), fake_vec(), self.params())
        assert scored.agreement == (1, 1, 1, 1)
        assert scored.weight == pytest.approx(ALL_AGREE_WEIGHT, rel=1e-12)
        assert scored.match_class == "Match"

    def test_three_agree_one_disagree_weight(self):
        scored = score_pair(fake_vec(), fake_vec(dob_v="other"), self.params())
        assert scored.agreement == (1, 1, 1, 0)
        assert scored.weight == pytest.approx(THREE_AGREE_WEIGHT, rel=1e-12)

    def test_symmetry(self):
        pa, pb = fake_vec(), fake_vec(house_v="h9", dob_v="d9")
        one = score_pair(pa, pb, self.params())
        two = score_pair(pb, pa, self.params())
        assert one.agreement == two.agreement
        assert one.weight == two.weight

    @given(
        m=st.tuples(*[st.floats(0.55, 0.99)] * 4),
        u=st.tuples(*[st.floats(0.01, 0.5)] * 4),
        bits=st.tuples(*[st.booleans()] * 4),
        flip=st.integers(0, 3),
    )
    @settings(max_examples=80)
    def test_monotonicity_flipping_agreement_up_increases_weight(self, m, u, bits, flip):
        params = LinkageParams(m=m, u=u)
        values = ["a" if b else f"dis{i}" for i, b in enumerate(bits)]
        base = fake_vec(*values)
        ref = fake_vec("a", "a", "a", "a")
        low = dataclasses.replace(params, u=u)
        before = score_pair(ref, base, low)
        if bits[flip]:
            return  # already agreeing; nothing to flip up
        raised_values = list(values)
        raised_values[flip] = "a"
        after = score_pair(ref, fake_vec(*raised_values), low)
        assert after.weight > before.weight


class TestLinkExact:
    def test_recovers_ground_truth_without_perturbation(self):
        large, small, truth = generate_population(
            SyntheticPopulationSpec(
                n_large=150, n_small=60, overlap_fraction=0.7,
                perturbation_rate=0.0, seed=11,
            )
        )
        salt = generate_salt("run-x")
        result = link(
            pseudonymized(large, salt), pseudonymized(small, salt),
            LinkageParams(mode="exact"),
        )
        assert set(result.pairs) == set(truth.pairs)
        assert len(result.unmatched_b) == 60 - len(truth)

    def test_collisions_excluded_and_audited(self):
        shared, other = fake_vec(zip_v="dup"), fake_vec(zip_v="solo")
        ds_a = pseudo_dataset("A", [shared, shared, other])
        ds_b = pseudo_dataset("B", [shared, other], variable="income")
        result = link(ds_a, ds_b, LinkageParams(mode="exact"))
        assert result.pairs == ((2, 1),)
        assert result.audit["composite_collisions_a"] == 1
        assert result.audit["records_excluded_by_collision"] == 3
        assert set(result.unmatched_a) == {0, 1}

    def test_requires_pseudonyms(self):
        plain = make_dataset("A", (("age", "numeric"),), [Record(payload={"age": 1})])
        with pytest.raises(MissingPseudonyms):
            link(plain, plain, LinkageParams(mode="exact"))


class TestLinkProbabilistic:
    def resolved_params(self, ds_a, ds_b, **overrides):
        u = estimate_u(
            [r.pseudonym for r in ds_a.rows], [r.pseudonym for r in ds_b.rows]
        )
        base = dict(mode="probabilistic", u=u, blocking_fields=())
        base.update(overrides)
        return LinkageParams(**base)

    @pytest.mark.parametrize("seed", [5, 6, 7, 8])
    def test_matches_brute_force_oracle(self, seed):
        ds_a, ds_b = synthetic_pair(seed, n_large=80, n_small=50, perturbation=0.15)
        params = self.resolved_params(ds_a, ds_b)
        result = link(ds_a, ds_b, params)
        expected = oracle_link(
            [r.pseudonym for r in ds_a.rows],
            [r.pseudonym for r in ds_b.rows],
            params,
        )
        assert list(result.pairs) == expected

    def test_higher_weight_wins_one_to_one(self):
        target = fake_vec()
        close = fake_vec(dob_v="off")  # 3 of 4 agree
        ds_a = pseudo_dataset("A", [target])
        ds_b = pseudo_dataset("B", [close, target], variable="income")
        params = LinkageParams(
            mode="probabilistic", m=(0.9,) * 4, u=(0.1,) * 4,
            t_upper=6.0, blocking_fields=(),
        )
        result = link(ds_a, ds_b, params)
        assert result.pairs == ((0, 1),)
        assert result.unmatched_b == (0,)

    def test_degenerate_params_rejected(self):
        ds_a, ds_b = synthetic_pair(1)
        with pytest.raises(DegenerateParams):
            link(ds_a, ds_b, LinkageParams(
                mode="probabilistic", m=(0.5,) * 4, u=(0.9,) * 4, blocking_fields=()
            ))

    def test_blocking_reduces_candidates(self):
        ds_a, ds_b = synthetic_pair(2, perturbation=0.0)
        blocked = link(ds_a, ds_b, LinkageParams(blocking_fields=("date_of_birth",)))
        unblocked = link(ds_a, ds_b, dataclasses.replace(
            LinkageParams(), blocking_fields=()
        ))
        assert blocked.audit["n_candidates"] <= unblocked.audit["n_candidates"]

    def test_deterministic(self):
        ds_a, ds_b = synthetic_pair(3)
        params = self.resolved_params(ds_a, ds_b)
        assert link(ds_a, ds_b, params) == link(ds_a, ds_b, params)

    def test_raising_threshold_never_adds_pairs(self):
        ds_a, ds_b = synthetic_pair(4, perturbation=0.2)
        params = self.resolved_params(ds_a, ds_b)
        previous = None
        for t_upper in (2.0, 6.0, 10.0, 14.0):
            result = link(ds_a, ds_b, dataclasses.replace(params, t_upper=t_upper))
            accepted = set(result.pairs)
            if previous is not None:
                assert accepted <= previous
            previous = accepted

    def test_audit_records_u_and_classes(self):
        ds_a, ds_b = synthetic_pair(9)
        result = link(ds_a, ds_b, LinkageParams(blocking_fields=()))
        assert result.audit["u_estimated"] is True
        assert len(result.audit["u"]) == 4
        assert set(result.audit["class_counts"]) == {"match", "possible", "non_match"}


# rows of per-field labels from a 2- or 3-letter alphabet: many agreements,
# tied weights and repeated blocks
_small_labels = st.integers(2, 3).flatmap(
    lambda size: st.lists(
        st.tuples(*[st.sampled_from("abc"[:size])] * 4), min_size=1, max_size=7
    )
)


class TestChunkedScoring:
    """The array scorer, with chunks small enough that a block spans several
    chunks, chunks start inside a block and some blocks hold no B rows, still
    gives the oracle's pairs and class counts."""

    @pytest.mark.parametrize("chunk", [1, 3, linkage.CHUNK_CANDIDATES])
    @given(
        labels_a=_small_labels,
        labels_b=_small_labels,
        blocking=st.lists(st.sampled_from(QID_FIELDS), unique=True, max_size=4),
        u=st.tuples(*[st.floats(0.01, 0.9)] * 4),
        t_upper=st.floats(-4.0, 12.0),
        gap=st.floats(0.0, 6.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_on_blocked_pairs(self, chunk, labels_a, labels_b, blocking,
                                             u, t_upper, gap):
        vecs_a = [fake_vec(*row) for row in labels_a]
        vecs_b = [fake_vec(*row) for row in labels_b]
        params = LinkageParams(u=u, t_upper=t_upper, t_lower=t_upper - gap,
                               blocking_fields=tuple(blocking))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linkage, "CHUNK_CANDIDATES", chunk)
            result = link(pseudo_dataset("A", vecs_a),
                          pseudo_dataset("B", vecs_b, "income"), params)
        assert list(result.pairs) == oracle_link(vecs_a, vecs_b, params, blocking)

        blocking_idx = [QID_FIELDS.index(name) for name in blocking]
        names = {"Match": "match", "Possible": "possible", "NonMatch": "non_match"}
        expected = {"match": 0, "possible": 0, "non_match": 0}
        for va in vecs_a:
            for vb in vecs_b:
                if all(va.per_field[k] == vb.per_field[k] for k in blocking_idx):
                    expected[names[score_pair(va, vb, params).match_class]] += 1
        assert result.audit["class_counts"] == expected
        assert result.audit["n_candidates"] == sum(expected.values())


class TestCandidateBudget:
    """Past MAX_CANDIDATES link refuses before it scores a pair."""

    def test_over_budget_raises_naming_count_and_limit(self, monkeypatch):
        ds_a, ds_b = synthetic_pair(2)
        params = LinkageParams(blocking_fields=())
        n_candidates = len(ds_a.rows) * len(ds_b.rows)
        monkeypatch.setattr(linkage, "MAX_CANDIDATES", n_candidates)
        assert link(ds_a, ds_b, params).audit["n_candidates"] == n_candidates
        monkeypatch.setattr(linkage, "MAX_CANDIDATES", n_candidates - 1)
        with pytest.raises(CandidateBudgetExceeded) as caught:
            link(ds_a, ds_b, params)
        assert (caught.value.candidates, caught.value.limit) == (n_candidates, n_candidates - 1)
        assert str(n_candidates) in str(caught.value)
        assert str(n_candidates - 1) in str(caught.value)


class TestModeScopedInput:
    """link() needs only the digest part its mode uses, and refuses an
    extract that lacks it."""

    @staticmethod
    def _scoped(vectors, keep):
        return [
            PseudonymVector(v.composite) if keep == "composite" else PseudonymVector(None, v.per_field)
            for v in vectors
        ]

    def test_exact_links_composite_only_extracts(self):
        vecs = [fake_vec(zip_v=str(i)) for i in range(4)]
        full = link(pseudo_dataset("A", vecs), pseudo_dataset("B", vecs[1:], "income"),
                    LinkageParams(mode="exact"))
        scoped = self._scoped(vecs, "composite")
        got = link(pseudo_dataset("A", scoped), pseudo_dataset("B", scoped[1:], "income"),
                   LinkageParams(mode="exact"))
        assert got == full

    def test_probabilistic_links_per_field_only_extracts(self):
        ds_a, ds_b = synthetic_pair(6)
        params = LinkageParams(blocking_fields=("gender",))
        full = link(ds_a, ds_b, params)
        scoped = [
            dataclasses.replace(ds, rows=[
                Record(payload=r.payload, pseudonym=PseudonymVector(None, r.pseudonym.per_field))
                for r in ds.rows
            ])
            for ds in (ds_a, ds_b)
        ]
        assert link(*scoped, params) == full

    @pytest.mark.parametrize("mode, keep", [("probabilistic", "composite"), ("exact", "per_field")])
    def test_missing_part_raises(self, mode, keep):
        vecs = self._scoped([fake_vec(), fake_vec(zip_v="z2")], keep)
        with pytest.raises(MissingPseudonyms):
            link(pseudo_dataset("A", vecs), pseudo_dataset("B", vecs, "income"),
                 LinkageParams(mode=mode, blocking_fields=()))

    @pytest.mark.parametrize("u", [None, (0.1,) * 4])
    def test_empty_input_audit(self, u):
        empty = make_dataset("B", (("income", "numeric"),), [])
        result = link(pseudo_dataset("A", [fake_vec()]), empty, LinkageParams(u=u))
        assert result.pairs == () and result.unmatched_a == (0,)
        assert result.audit == {
            "mode": "probabilistic",
            "n_candidates": 0,
            "class_counts": {"match": 0, "possible": 0, "non_match": 0},
            "t_upper": 8.0,
            "t_lower": 0.0,
            "m": [0.95, 0.95, 0.98, 0.97],
            "u": list(u) if u is not None else None,
            "u_estimated": False,
            "blocking_fields": ["date_of_birth"],
        }


class TestMerge:
    def test_union_payload(self):
        va = fake_vec()
        ds_a = make_dataset("A", (("age", "numeric"),),
                            [Record(payload={"age": 52}, pseudonym=va)])
        ds_b = make_dataset("B", (("income", "numeric"),),
                            [Record(payload={"income": 30000}, pseudonym=va)])
        merged = merge(LinkResult(((0, 0),), (), ()), ds_a, ds_b)
        assert merged.payload == [[52], [30000]]
        assert merged.variable_names() == ("age", "income")
        assert merged.parts == () and merged.digests.shape == (1, 0)

    def test_empty_result_keeps_full_schema(self):
        ds_a = pseudo_dataset("A", [fake_vec()])
        ds_b = pseudo_dataset("B", [fake_vec()], variable="income")
        merged = merge(LinkResult((), (0,), (0,)), ds_a, ds_b)
        assert merged.n_rows == 0 and merged.payload == [[], []]
        assert merged.variable_names() == ("age", "income")

    def test_collision_prefixed_with_station_ids(self):
        va = fake_vec()
        ds_a = make_dataset("A", (("status", "categorical"),),
                            [Record(payload={"status": "x"}, pseudonym=va)])
        ds_b = make_dataset("B", (("status", "categorical"),),
                            [Record(payload={"status": "y"}, pseudonym=va)])
        merged = merge(LinkResult(((0, 0),), (), ()), ds_a, ds_b)
        assert merged.variable_names() == ("A.status", "B.status")
        assert merged.payload == [["x"], ["y"]]

    def test_unresolvable_collision_raises(self):
        va = fake_vec()
        ds_a = make_dataset("S", (("status", "categorical"),),
                            [Record(payload={"status": "x"}, pseudonym=va)])
        ds_b = make_dataset("S", (("status", "categorical"),),
                            [Record(payload={"status": "y"}, pseudonym=va)])
        with pytest.raises(SchemaCollision):
            merge(LinkResult(((0, 0),), (), ()), ds_a, ds_b)


def _result_digest(result):
    """SHA-256 of a LinkResult's canonical JSON: pairs, unmatched and audit."""
    doc = {
        "pairs": [list(p) for p in result.pairs],
        "unmatched_a": list(result.unmatched_a),
        "unmatched_b": list(result.unmatched_b),
        "audit": result.audit,
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(blob.encode()).hexdigest()


# SHA-256 of link()'s canonical output on 600x60 populations at 5% perturbation
PINNED_LINK_RESULTS = {
    "gender": "e1997c563f97319c6903f9e9130a3f31ba91dcd033102f427fe0d455f0e0a6fd",
    "date_of_birth": "ae27bf338ab93e31ad7952395bbe71bb67e52adbe2bc223995984b6a0b9e2aca",
    "unblocked": "92a67f1bc4a361f58d73a28e6ff66626de5bb39226b0269720b436ce2d2cfa45",
    "explicit_u": "0d84ab3c20c75a723c4bcf3c92471087b1db82df634783dc5ab054833d800af3",
}


class TestLinkPinned:
    """link()'s full output on seeded populations, pinned so that a rewrite
    of the scoring loop cannot move a pair, a count or a weight."""

    CASES = {
        "gender": LinkageParams(blocking_fields=("gender",)),
        "date_of_birth": LinkageParams(blocking_fields=("date_of_birth",)),
        "unblocked": LinkageParams(blocking_fields=()),
        "explicit_u": LinkageParams(
            u=(0.02, 0.05, 0.5, 0.004), t_upper=6.0, t_lower=-2.0,
            blocking_fields=("zip_code", "gender"),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_link_result_pinned(self, case):
        ds_a, ds_b = synthetic_pair(17, n_large=600, n_small=60, overlap=0.5,
                                    perturbation=0.05)
        result = link(ds_a, ds_b, self.CASES[case])
        assert result.pairs, "a pin over an empty result pins nothing"
        assert _result_digest(result) == PINNED_LINK_RESULTS[case]

    @pytest.mark.parametrize("bits", list(itertools.product((0, 1), repeat=4)))
    def test_each_agreement_pattern_joins_iff_match(self, bits):
        params = LinkageParams(
            m=(0.95, 0.95, 0.98, 0.97), u=(0.01, 0.1, 0.5, 0.001),
            t_upper=8.0, t_lower=0.0, blocking_fields=(),
        )
        va = fake_vec("a", "a", "a", "a")
        vb = fake_vec(*("a" if bit else "b" for bit in bits))
        scored = score_pair(va, vb, params)
        assert scored.agreement == bits
        result = link(pseudo_dataset("A", [va]), pseudo_dataset("B", [vb], "income"), params)
        assert (result.pairs == ((0, 0),)) == (scored.match_class == "Match")
        assert result.audit["n_candidates"] == 1
        expected = {"match": 0, "possible": 0, "non_match": 0}
        expected[{"Match": "match", "Possible": "possible", "NonMatch": "non_match"}[
            scored.match_class]] = 1
        assert result.audit["class_counts"] == expected


class TestExactLinkPinned:
    """The exact join's full output, pinned on composites repeated within A,
    within B and on both sides, and with either side empty."""

    # each label is one composite; the digest of "n704"'s ends in a NUL byte
    LABELS_A = ("n704", "dupA", "m1", "dupA", "dupAB", "onlyA", "dupAB", "dupB", "twiceA", "twiceA")
    LABELS_B = ("dupB", "m1", "dupAB", "onlyB", "dupA", "dupB", "n704", "dupAB")

    @staticmethod
    def _side(station_id, labels):
        return pseudo_dataset(station_id, [fake_vec(zip_v=label) for label in labels])

    def test_collisions_pinned(self):
        assert fake_vec(zip_v="n704").composite.endswith("00")
        result = link(self._side("A", self.LABELS_A), self._side("B", self.LABELS_B),
                      LinkageParams(mode="exact"))
        assert result == LinkResult(
            pairs=((0, 6), (2, 1)),
            unmatched_a=(1, 3, 4, 5, 6, 7, 8, 9),
            unmatched_b=(0, 2, 3, 4, 5, 7),
            audit={
                "mode": "exact",
                "composite_collisions_a": 3,
                "composite_collisions_b": 2,
                "records_excluded_by_collision": 10,
                "class_counts": {"match": 2, "possible": 0, "non_match": 0},
            },
        )
        assert all(type(x) is int for pair in result.pairs for x in pair)
        assert all(type(v) is int for k, v in result.audit.items() if k.startswith(("comp", "rec")))

    @pytest.mark.parametrize("empty", ["A", "B"])
    def test_empty_side_pinned(self, empty):
        labels = {"A": self.LABELS_A, "B": self.LABELS_B}
        labels[empty] = ()
        result = link(self._side("A", labels["A"]), self._side("B", labels["B"]),
                      LinkageParams(mode="exact"))
        assert result == LinkResult(
            pairs=(),
            unmatched_a=tuple(range(len(labels["A"]))),
            unmatched_b=tuple(range(len(labels["B"]))),
            audit={
                "mode": "exact",
                "composite_collisions_a": 0 if empty == "A" else 3,
                "composite_collisions_b": 0 if empty == "B" else 2,
                "records_excluded_by_collision": 0,
                "class_counts": {"match": 0, "possible": 0, "non_match": 0},
            },
        )


# SHA-256 of the merged body after linking TestLinkPinned's populations. The
# pins moved once, when the body header gained its "salt_check" key: the
# bodies are the earlier ones with exactly ',"salt_check":""' added to the
# header JSON and its length prefix. They moved again when integer payload
# columns became coded: the bodies are the earlier ones with the header's
# age and income arrays replaced by the markers "u1" and "u2", and those
# values appended as little-endian uint8 and uint16; activity, a float, and
# status stay JSON arrays. They moved once more when the header lost its
# "station_id" and "descriptor" keys: the bodies are the earlier ones with
# those two keys deleted from the header JSON, which was written again in
# canonical form, and its length prefix rewritten, with struct and json alone.
PINNED_MERGED_BODIES = {
    "exact": "a41455c977512ed3003b3f7d14518cb564c3af09b56e8ec0e6e6997f5472451a",
    "probabilistic": "bae9f4ac154edf0360635bf60ed0cfd8ba1c8fa023a711d923bf958e294f712d",
}


class TestMergePinned:
    @pytest.mark.parametrize("mode", sorted(PINNED_MERGED_BODIES))
    def test_merged_body_pinned(self, mode):
        ds_a, ds_b = synthetic_pair(17, n_large=600, n_small=60, overlap=0.5,
                                    perturbation=0.05)
        params = LinkageParams(mode=mode, blocking_fields=("gender",))
        merged = merge(link(ds_a, ds_b, params), ds_a, ds_b)
        assert merged.n_rows > 0
        body = dataset_to_bytes(merged)
        assert hashlib.sha256(body).hexdigest() == PINNED_MERGED_BODIES[mode]


class TestLinkAfterBodyRoundTrip:
    """Linking what the TSE decodes gives what linking the station's
    datasets gives."""

    @pytest.mark.parametrize("mode", ["exact", "probabilistic"])
    def test_link_unchanged_by_body_roundtrip(self, mode):
        ds_a, ds_b = synthetic_pair(17, n_large=600, n_small=60, overlap=0.5,
                                    perturbation=0.05)
        params = LinkageParams(mode=mode, blocking_fields=("gender",))
        decoded = [dataset_from_bytes(dataset_to_bytes(ds), ds.station_id) for ds in (ds_a, ds_b)]
        result = link(*decoded, params)
        assert result.pairs
        assert result == link(ds_a, ds_b, params)


class TestBudgetBeforeEstimate:
    def test_refused_run_never_estimates_u(self, monkeypatch):
        ds_a, ds_b = synthetic_pair(2)
        params = LinkageParams(blocking_fields=())
        calls, real = [], linkage._estimate_u
        monkeypatch.setattr(linkage, "_estimate_u", lambda *a: calls.append(1) or real(*a))
        link(ds_a, ds_b, params)
        assert calls == [1]  # the spy sees the estimate an accepted run makes
        monkeypatch.setattr(linkage, "MAX_CANDIDATES", 1)
        with pytest.raises(CandidateBudgetExceeded):
            link(ds_a, ds_b, params)
        assert calls == [1]


def _class_counts(vecs_a, vecs_b, params, blocking):
    """Class counts over every cross pair that agrees on the blocking fields,
    each pair scored alone by score_pair."""
    blocking_idx = [QID_FIELDS.index(name) for name in blocking]
    names = {"Match": "match", "Possible": "possible", "NonMatch": "non_match"}
    counts = {"match": 0, "possible": 0, "non_match": 0}
    for va in vecs_a:
        for vb in vecs_b:
            if all(va.per_field[k] == vb.per_field[k] for k in blocking_idx):
                counts[names[score_pair(va, vb, params).match_class]] += 1
    return counts


class TestPasses:
    """Only candidates that can be Match or Possible are scored, one join per
    minimal field set; NonMatch is what the passes leave of the blocking
    count."""

    def test_all_non_match_scores_nothing(self, monkeypatch):
        ds_a, ds_b = synthetic_pair(17, n_large=600, n_small=60, overlap=0.5,
                                    perturbation=0.05)
        params = LinkageParams(t_upper=1000.0, t_lower=1000.0, blocking_fields=("gender",))
        scored = []
        real = linkage._score
        monkeypatch.setattr(linkage, "_score", lambda *a: scored.append(1) or real(*a))
        result = link(ds_a, ds_b, params)
        assert scored == []
        n_candidates = result.audit["n_candidates"]
        assert n_candidates == sum(
            ra.pseudonym.per_field[2] == rb.pseudonym.per_field[2]
            for ra in ds_a.rows for rb in ds_b.rows
        )
        assert result.pairs == ()
        assert result.audit["class_counts"] == {
            "match": 0, "possible": 0, "non_match": n_candidates,
        }

    def test_blocking_only_pattern_possible_is_one_blocking_pass(self):
        ds_a, ds_b = synthetic_pair(5, n_large=80, n_small=50, perturbation=0.15)
        vecs_a = [r.pseudonym for r in ds_a.rows]
        vecs_b = [r.pseudonym for r in ds_b.rows]
        blocking = ("gender",)
        params = LinkageParams(u=estimate_u(vecs_a, vecs_b), t_upper=6.0, t_lower=-100.0,
                               blocking_fields=blocking)
        _, classes = linkage._pattern_table(params)
        assert classes[0b0010] == "Possible"  # agrees on gender alone
        assert linkage._passes(classes, frozenset({2})) == [frozenset({2})]
        result = link(ds_a, ds_b, params)
        assert list(result.pairs) == oracle_link(vecs_a, vecs_b, params, blocking)
        assert result.audit["class_counts"] == _class_counts(vecs_a, vecs_b, params, blocking)

    @pytest.mark.parametrize("chunk", [1, linkage.CHUNK_CANDIDATES])
    @given(
        labels_a=_small_labels,
        labels_b=_small_labels,
        blocking=st.lists(st.sampled_from(QID_FIELDS), unique=True, max_size=4),
        m=st.tuples(*[st.floats(0.3, 0.999)] * 4),
        u=st.tuples(*[st.floats(0.001, 0.7)] * 4),
        t_upper=st.floats(-4.0, 16.0),
        gap=st.floats(0.0, 12.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle_as_m_and_u_vary(self, chunk, labels_a, labels_b, blocking,
                                            m, u, t_upper, gap):
        vecs_a = [fake_vec(*row) for row in labels_a]
        vecs_b = [fake_vec(*row) for row in labels_b]
        params = LinkageParams(m=m, u=u, t_upper=t_upper, t_lower=t_upper - gap,
                               blocking_fields=tuple(blocking))
        ds_a, ds_b = pseudo_dataset("A", vecs_a), pseudo_dataset("B", vecs_b, "income")
        if any(mi <= ui for mi, ui in zip(m, u)):
            with pytest.raises(DegenerateParams):
                link(ds_a, ds_b, params)
            return
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linkage, "CHUNK_CANDIDATES", chunk)
            result = link(ds_a, ds_b, params)
        assert list(result.pairs) == oracle_link(vecs_a, vecs_b, params, blocking)
        expected = _class_counts(vecs_a, vecs_b, params, blocking)
        assert result.audit["class_counts"] == expected
        assert result.audit["n_candidates"] == sum(expected.values())


class TestJoinKey:
    """A pass's arithmetic key stays exact where the product of its fields'
    radices passes what int64 holds."""

    # largest code per field; the radix is one more
    @pytest.mark.parametrize("maxima", [
        (2**31, 2**31 + 7),  # product just past 2**62, still fits
        (2**21 - 1, 2**21 - 1, 2**21 - 1),  # product exactly 2**63, fits
        (2**40, 2**40, 2**40, 2**40),  # re-densified at every field after the first
        (2**62, 2, 2**40),  # the first field alone nearly fills int64
    ])
    def test_key_agrees_with_densified_join(self, maxima):
        rng = np.random.default_rng(len(maxima))
        n_a, n_b = 40, 30
        fields = list(range(len(maxima)))
        codes = np.zeros((4, n_a + n_b), np.int64)
        for k, top in enumerate(maxima):
            # three values per field, so rows agree on some fields and not others
            codes[k] = rng.choice(np.array([0, top // 2, top], np.int64), n_a + n_b)
            codes[k, 0] = top
        assert math.prod(top + 1 for top in maxima) > 2**62
        key = linkage._join_key(codes, fields)
        dense = np.unique(codes[fields].T, axis=0, return_inverse=True)[1].ravel()
        # the key sorts like the fields' codes, so it densifies to np.unique's rows
        assert np.array_equal(np.unique(key, return_inverse=True)[1].ravel(), dense)

        lo, sizes, order_b = linkage._join(codes, n_a, fields)
        joined = {
            (a, int(b))
            for a in range(n_a)
            for b in order_b[lo[a]:lo[a] + sizes[a]]
        }
        assert joined == {
            (a, b) for a in range(n_a) for b in range(n_b) if dense[a] == dense[n_a + b]
        }


class TestDigestPrefixCodes:
    """Digests are coded by their first 8 bytes; unequal digests that share
    those bytes still get distinct codes."""

    @staticmethod
    def _digest(prefix: bytes, label: str) -> str:
        return (prefix + hashlib.sha512(label.encode()).digest()[8:DIGEST_DTYPE.itemsize]).hex()

    def test_codes_split_a_shared_prefix(self):
        shared, other = b"\xab" * 8, b"\x01" * 8
        digests = np.array([bytes.fromhex(self._digest(p, label)) for p, label in
                            [(shared, "x"), (shared, "y"), (other, "z"), (shared, "x")]],
                           dtype=DIGEST_DTYPE)
        assert linkage._codes(digests).tolist() == [0, 1, 2, 0]

    def test_probabilistic_mode_never_agrees_on_a_shared_prefix(self):
        prefix = b"\xcd" * 8

        def vec(*labels):
            return PseudonymVector(None, tuple(self._digest(prefix, f"{k}|{label}")
                                               for k, label in enumerate(labels)))

        vecs_a = [vec("a", "a", "a", "a"), vec("b", "a", "b", "a")]
        vecs_b = [vec("a", "b", "a", "a"), vec("c", "a", "b", "a"), vec("a", "a", "a", "a")]
        codes = linkage._field_codes(*(hex_field_codes([v.per_field for v in vecs])
                                       for vecs in (vecs_a, vecs_b)))
        # field 0 holds a, b | a, c, a: three digests, all sharing their first 8 bytes
        assert codes[0].tolist() == [0, 1, 0, 2, 0]
        # only all four fields agreeing is a Match: B row 1 would be one if b and c merged
        params = LinkageParams(m=(0.9,) * 4, u=(0.1,) * 4, t_upper=10.0, t_lower=-1.0,
                               blocking_fields=())
        result = link(pseudo_dataset("A", vecs_a), pseudo_dataset("B", vecs_b, "income"), params)
        assert list(result.pairs) == oracle_link(vecs_a, vecs_b, params) == [(0, 2)]
        assert result.audit["class_counts"] == _class_counts(vecs_a, vecs_b, params, ())

    def test_exact_mode_pairs_only_equal_composites(self):
        prefix = b"\x00" * 8

        def vec(label):
            return PseudonymVector(self._digest(prefix, label))

        result = link(pseudo_dataset("A", [vec("x"), vec("y")]),
                      pseudo_dataset("B", [vec("z"), vec("y"), vec("w")], "income"),
                      LinkageParams(mode="exact"))
        assert result.pairs == ((1, 1),)
        assert result.audit["composite_collisions_a"] == 0
        assert result.audit["composite_collisions_b"] == 0
        assert result.audit["records_excluded_by_collision"] == 0


def _counter_u(pseudos_a, pseudos_b):
    """u as a Counter over each side's per-field digests, summed in the order
    A's values first occur: the reference estimate_u must equal bit for bit."""
    out = []
    for k in range(4):
        freq_a = Counter(p.per_field[k] for p in pseudos_a)
        freq_b = Counter(p.per_field[k] for p in pseudos_b)
        u_k = sum(
            (count_a / len(pseudos_a)) * (freq_b[value] / len(pseudos_b))
            for value, count_a in freq_a.items()
            if value in freq_b
        )
        out.append(min(max(u_k, linkage.U_CLAMP), 1.0 - linkage.U_CLAMP))
    return tuple(out)


class TestEstimateUBitIdentical:
    @given(
        labels_a=st.lists(st.tuples(*[st.sampled_from("abcdefg")] * 4), min_size=1, max_size=40),
        labels_b=st.lists(st.tuples(*[st.sampled_from("abcdefg")] * 4), min_size=1, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_counter_reference(self, labels_a, labels_b):
        vecs_a = [fake_vec(*row) for row in labels_a]
        vecs_b = [fake_vec(*row) for row in labels_b]
        assert estimate_u(vecs_a, vecs_b) == _counter_u(vecs_a, vecs_b)

    def test_equals_counter_reference_on_population(self):
        ds_a, ds_b = synthetic_pair(17, n_large=600, n_small=60, overlap=0.5,
                                    perturbation=0.05)
        vecs_a = [r.pseudonym for r in ds_a.rows]
        vecs_b = [r.pseudonym for r in ds_b.rows]
        assert estimate_u(vecs_a, vecs_b) == _counter_u(vecs_a, vecs_b)
