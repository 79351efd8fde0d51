"""Record linkage over pseudonym vectors.

Two modes:

* exact: join on the composite digest. Composites that occur more than once
  on either side are ambiguous; those records are excluded and counted in the
  audit block rather than guessed at.
* probabilistic: Fellegi-Sunter scoring over the four per-field digests.
  A pair's log2 likelihood-ratio weight, from per-field agreement
  probabilities m (among true matches) and u (among non-matches), depends
  only on which fields agree, so each of the 16 agreement patterns is
  weighed and classified against two thresholds once per call and every
  candidate pair looks its pattern up. Only Match-class pairs are kept, so
  memory grows with them rather than with the candidates; they are reduced
  to a one-to-one assignment greedily in descending weight.

u can be supplied or estimated from the data as the chance-agreement rate
of a random cross pair, computed from per-field digest frequencies.

Each mode reads only its own part of a pseudonym vector, and a dataset whose
rows lack that part raises MissingPseudonyms.

Everything here is deterministic: ties break on (index_a, index_b), so a
fixed pair of datasets and params always yields the same LinkResult.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field, replace

from .encoding import is_number, require_strings
from .errors import DegenerateParams, MissingPseudonyms, SchemaCollision
from .model import QID_FIELDS, Dataset, DatasetDescriptor, Record
from .pseudonym import LINKAGE_MODES, PseudonymVector

U_CLAMP = 1e-9

MATCH = "Match"
POSSIBLE = "Possible"
NON_MATCH = "NonMatch"


@dataclass(frozen=True)
class LinkageParams:
    """Parameters for one linkage pass.

    m and u are per-field probabilities ordered like QID_FIELDS. u may be
    None, in which case link() estimates it from the data. blocking_fields
    name the fields whose digests must agree exactly before a pair is scored;
    an empty tuple scores every cross pair.
    """

    mode: str = "probabilistic"  # "exact" | "probabilistic"
    m: tuple[float, float, float, float] = (0.95, 0.95, 0.98, 0.97)
    u: tuple[float, float, float, float] | None = None
    t_upper: float = 8.0
    t_lower: float = 0.0
    blocking_fields: tuple[str, ...] = ("date_of_birth",)

    def validate(self) -> None:
        if self.mode not in LINKAGE_MODES:
            raise ValueError(f"unknown linkage mode {self.mode!r}")
        # Fellegi-Sunter log weights need 0 < m, u < 1
        for name in ("m", "u") if self.u is not None else ("m",):
            probs = getattr(self, name)
            if not (
                isinstance(probs, tuple)
                and len(probs) == len(QID_FIELDS)
                and all(is_number(p) and 0 < p < 1 for p in probs)
            ):
                raise ValueError(
                    f"{name} must be {len(QID_FIELDS)} numbers strictly between 0 and 1, "
                    f"not {probs!r}"
                )
        if not (is_number(self.t_upper) and is_number(self.t_lower)):
            raise ValueError("t_upper and t_lower must be numbers")
        if self.t_upper < self.t_lower:
            raise ValueError("t_upper must be >= t_lower")
        require_strings("blocking_fields", self.blocking_fields)
        for name in self.blocking_fields:
            if name not in QID_FIELDS:
                raise ValueError(f"unknown blocking field {name!r}")


@dataclass(frozen=True)
class ScoredPair:
    index_a: int
    index_b: int
    agreement: tuple[int, int, int, int]
    weight: float
    match_class: str


@dataclass(frozen=True)
class LinkResult:
    pairs: tuple[tuple[int, int], ...]
    unmatched_a: tuple[int, ...]
    unmatched_b: tuple[int, ...]
    audit: dict = field(default_factory=dict)


def _pseudonyms(ds: Dataset, mode: str) -> list[PseudonymVector]:
    """Every row's vector, which must carry the part ``mode`` links on."""
    part = "composite" if mode == "exact" else "per_field"
    vectors = []
    for i, row in enumerate(ds.rows):
        if row.pseudonym is None:
            raise MissingPseudonyms(f"{ds.station_id} row {i} has no pseudonym vector")
        if not getattr(row.pseudonym, part):
            raise MissingPseudonyms(f"{ds.station_id} row {i} has no {part} for {mode} linkage")
        vectors.append(row.pseudonym)
    return vectors


def estimate_u(
    pseudos_a: list[PseudonymVector], pseudos_b: list[PseudonymVector]
) -> tuple[float, float, float, float]:
    """Chance-agreement probability per field for a random cross pair.

    u_i = sum over digest values v of fA_i(v) * fB_i(v), where f are the
    relative frequencies of per-field digests; clamped away from 0 and 1 so
    the log weights stay finite.
    """
    if not pseudos_a or not pseudos_b:
        raise ValueError("u estimation needs non-empty datasets on both sides")
    n_a, n_b = len(pseudos_a), len(pseudos_b)
    out = []
    for i in range(4):
        freq_a = Counter(p.per_field[i] for p in pseudos_a)
        freq_b = Counter(p.per_field[i] for p in pseudos_b)
        u_i = sum(
            (count_a / n_a) * (freq_b[value] / n_b)
            for value, count_a in freq_a.items()
            if value in freq_b
        )
        out.append(min(max(u_i, U_CLAMP), 1.0 - U_CLAMP))
    return tuple(out)


def field_weights(
    params: LinkageParams,
) -> tuple[tuple[float, float, float, float], tuple[float, float, float, float]]:
    """(agreement, disagreement) log2 weight per field."""
    if params.u is None:
        raise ValueError("params.u must be resolved before scoring")
    agree = tuple(math.log2(m / u) for m, u in zip(params.m, params.u))
    disagree = tuple(
        math.log2((1.0 - m) / (1.0 - u)) for m, u in zip(params.m, params.u)
    )
    return agree, disagree


def _weigh(agreement: tuple[int, ...], params: LinkageParams, weights) -> tuple[float, str]:
    """Weight and class of one agreement vector; weights from field_weights."""
    agree_w, disagree_w = weights
    weight = sum(agree_w[i] if agreement[i] else disagree_w[i] for i in range(4))
    if weight >= params.t_upper:
        return weight, MATCH
    if weight <= params.t_lower:
        return weight, NON_MATCH
    return weight, POSSIBLE


def score_pair(
    pa: PseudonymVector,
    pb: PseudonymVector,
    params: LinkageParams,
    index_a: int = -1,
    index_b: int = -1,
) -> ScoredPair:
    """Score one candidate pair; class comes from the two thresholds."""
    agreement = tuple(
        int(pa.per_field[i] == pb.per_field[i]) for i in range(4)
    )
    weight, match_class = _weigh(agreement, params, field_weights(params))
    return ScoredPair(index_a, index_b, agreement, weight, match_class)


def _link_exact(
    pseudos_a: list[PseudonymVector], pseudos_b: list[PseudonymVector]
) -> tuple[list[tuple[int, int]], dict]:
    comps_a = [p.composite for p in pseudos_a]
    comps_b = [p.composite for p in pseudos_b]
    count_a, count_b = Counter(comps_a), Counter(comps_b)
    # the index of a composite's last occurrence; its only one when unique
    index_a = {comp: i for i, comp in enumerate(comps_a)}
    index_b = {comp: j for j, comp in enumerate(comps_b)}

    pairs = []
    excluded = 0
    for comp, n_a in count_a.items():
        n_b = count_b.get(comp)
        if n_b is None:
            continue
        if n_a == 1 and n_b == 1:
            pairs.append((index_a[comp], index_b[comp]))
        else:
            excluded += n_a + n_b
    pairs.sort()
    audit = {
        "mode": "exact",
        "composite_collisions_a": sum(1 for n in count_a.values() if n > 1),
        "composite_collisions_b": sum(1 for n in count_b.values() if n > 1),
        "records_excluded_by_collision": excluded,
        "class_counts": {"match": len(pairs), "possible": 0, "non_match": 0},
    }
    return pairs, audit


def _link_probabilistic(
    pseudos_a: list[PseudonymVector],
    pseudos_b: list[PseudonymVector],
    params: LinkageParams,
) -> tuple[list[tuple[int, int]], dict]:
    counts = dict.fromkeys((MATCH, POSSIBLE, NON_MATCH), 0)
    pairs: list[tuple[int, int]] = []
    # with an empty side there is nothing to estimate u from, or to score
    estimated = params.u is None and bool(pseudos_a) and bool(pseudos_b)
    resolved = replace(params, u=estimate_u(pseudos_a, pseudos_b)) if estimated else params
    if pseudos_a and pseudos_b:
        for i in range(4):
            if resolved.m[i] <= resolved.u[i]:
                raise DegenerateParams(
                    f"m <= u on field {QID_FIELDS[i]} "
                    f"({resolved.m[i]} <= {resolved.u[i]})"
                )
        # a pair's weight depends only on its agreement vector: 16 of them
        weights = field_weights(resolved)
        table = {
            bits: _weigh(bits, resolved, weights)
            for bits in itertools.product((False, True), repeat=4)
        }
        blocking = tuple(QID_FIELDS.index(f) for f in params.blocking_fields)
        buckets: dict[tuple, list[tuple]] = {}
        for j, p in enumerate(pseudos_b):
            key = tuple(p.per_field[k] for k in blocking)
            buckets.setdefault(key, []).append((j, *p.per_field))

        match_pairs: list[tuple[float, int, int]] = []
        for i, p in enumerate(pseudos_a):
            f0, f1, f2, f3 = p.per_field
            for j, g0, g1, g2, g3 in buckets.get(tuple(p.per_field[k] for k in blocking), ()):
                weight, match_class = table[f0 == g0, f1 == g1, f2 == g2, f3 == g3]
                counts[match_class] += 1
                if match_class == MATCH:
                    match_pairs.append((-weight, i, j))

        match_pairs.sort()
        used_a: set[int] = set()
        used_b: set[int] = set()
        for _, i, j in match_pairs:
            if i in used_a or j in used_b:
                continue
            used_a.add(i)
            used_b.add(j)
            pairs.append((i, j))
        pairs.sort()
    audit = {
        "mode": "probabilistic",
        "n_candidates": sum(counts.values()),
        "class_counts": {
            "match": counts[MATCH],
            "possible": counts[POSSIBLE],
            "non_match": counts[NON_MATCH],
        },
        "t_upper": resolved.t_upper,
        "t_lower": resolved.t_lower,
        "m": list(resolved.m),
        "u": list(resolved.u) if resolved.u is not None else None,
        "u_estimated": estimated,
        "blocking_fields": list(params.blocking_fields),
    }
    return pairs, audit


def link(ds_a: Dataset, ds_b: Dataset, params: LinkageParams) -> LinkResult:
    """Link two pseudonymized datasets.

    Probabilistic mode resolves u (estimating it when unset), requires
    m_i > u_i on every field, scores candidates surviving the blocking pass,
    and keeps Match-class pairs under a one-to-one constraint: descending
    weight, ties by (index_a, index_b).
    """
    params.validate()
    pseudos_a = _pseudonyms(ds_a, params.mode)
    pseudos_b = _pseudonyms(ds_b, params.mode)

    if params.mode == "exact":
        pairs, audit = _link_exact(pseudos_a, pseudos_b)
    else:
        pairs, audit = _link_probabilistic(pseudos_a, pseudos_b, params)

    matched_a = {i for i, _ in pairs}
    matched_b = {j for _, j in pairs}
    return LinkResult(
        pairs=tuple(pairs),
        unmatched_a=tuple(i for i in range(len(pseudos_a)) if i not in matched_a),
        unmatched_b=tuple(j for j in range(len(pseudos_b)) if j not in matched_b),
        audit=audit,
    )


def merge(result: LinkResult, ds_a: Dataset, ds_b: Dataset) -> Dataset:
    """One row per accepted pair with the union of payload variables.

    Colliding variable names get station-id prefixes on both sides; pseudonym
    columns are dropped entirely, they have no further use after assignment.
    """
    names_a = ds_a.variable_names()
    names_b = ds_b.variable_names()
    collisions = set(names_a) & set(names_b)

    def out_name(station_id: str, name: str) -> str:
        return f"{station_id}.{name}" if name in collisions else name

    schema = []
    for name, vtype in ds_a.schema:
        schema.append((out_name(ds_a.station_id, name), vtype))
    for name, vtype in ds_b.schema:
        schema.append((out_name(ds_b.station_id, name), vtype))
    out_names = [n for n, _ in schema]
    if len(out_names) != len(set(out_names)):
        raise SchemaCollision(f"merged schema still collides: {sorted(out_names)}")

    rows = []
    for i, j in result.pairs:
        payload: dict[str, object] = {}
        for name in names_a:
            payload[out_name(ds_a.station_id, name)] = ds_a.rows[i].payload[name]
        for name in names_b:
            payload[out_name(ds_b.station_id, name)] = ds_b.rows[j].payload[name]
        rows.append(Record(payload=payload))

    merged = Dataset(
        station_id=f"{ds_a.station_id}+{ds_b.station_id}",
        schema=tuple(schema),
        rows=rows,
        descriptor=DatasetDescriptor(
            source="merged",
            extracted_at=max(
                ds_a.descriptor.extracted_at, ds_b.descriptor.extracted_at
            ),
            row_count=len(rows),
        ),
    )
    merged.validate()
    return merged
