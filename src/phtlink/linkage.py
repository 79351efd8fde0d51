"""Record linkage over pseudonym vectors.

Two modes:

* exact: join on the composite digest. Composites that occur more than once
  on either side are ambiguous; those records are excluded and counted in the
  audit block rather than guessed at.
* probabilistic: Fellegi-Sunter scoring over the four per-field digests.
  A pair's log2 likelihood-ratio weight, from per-field agreement
  probabilities m (among true matches) and u (among non-matches), depends
  only on which fields agree, so each of the 16 agreement patterns is
  weighed and classified against two thresholds once per call. Rows get a
  block id from their blocking-field codes; with B sorted by block, each A
  row's candidates are one range of B, so the candidate count is known
  before any pair is built. Past MAX_CANDIDATES link raises
  CandidateBudgetExceeded, before it estimates u. Otherwise candidates are scored as numpy arrays,
  CHUNK_CANDIDATES at a time: the four field comparisons form a pattern
  index into the 16-entry tables. Only Match-class pairs are kept, so
  memory grows with them rather than with the candidates; they are reduced
  to a one-to-one assignment greedily in descending weight.

u can be supplied or estimated from the data as the chance-agreement rate
of a random cross pair, computed from per-field digest frequencies.

link and merge read datasets as Columns (a Dataset of Records is converted
first): the exact join sorts the composite digest column, and probabilistic
linkage codes each per-field digest column as integers, equal where the
digests are equal. Each mode reads only its own digest part, and a dataset
whose rows lack that part raises MissingPseudonyms.

Everything here is deterministic: ties break on (index_a, index_b), so a
fixed pair of datasets and params always yields the same LinkResult.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .encoding import check_types
from .errors import (
    CandidateBudgetExceeded,
    DegenerateParams,
    MissingPseudonyms,
    SchemaCollision,
)
from .model import DIGEST_DTYPE, QID_FIELDS, Columns, Dataset, DatasetDescriptor, to_columns
from .pseudonym import LINKAGE_MODES, PseudonymVector

U_CLAMP = 1e-9

#: Candidate pairs scored per array pass. It bounds the scorer's temporaries,
#: so memory stays flat however many candidates blocking leaves.
CHUNK_CANDIDATES = 2**12
#: Most candidate pairs one probabilistic link scores, about 7 s of scoring;
#: past it link raises CandidateBudgetExceeded before it builds any pair.
MAX_CANDIDATES = 10**8

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
        check_types(self)
        if self.mode not in LINKAGE_MODES:
            raise ValueError(f"unknown linkage mode {self.mode!r}")
        # Fellegi-Sunter log weights need 0 < m, u < 1
        for name in ("m", "u") if self.u is not None else ("m",):
            probs = getattr(self, name)
            if not all(0 < p < 1 for p in probs):
                raise ValueError(f"{name} must lie strictly between 0 and 1, not {probs!r}")
        if self.t_upper < self.t_lower:
            raise ValueError("t_upper must be >= t_lower")
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


def _digests(cols: Columns, mode: str) -> np.ndarray:
    """The digest part ``mode`` links on: composites (rows,) for exact
    linkage, per-field digests (rows, 4) for probabilistic linkage."""
    part = "composite" if mode == "exact" else "per_field"
    if part in cols.parts:
        return cols.digests[:, 0] if mode == "exact" else cols.digests[:, -4:]
    if cols.n_rows:
        raise MissingPseudonyms(f"{cols.station_id} rows have no {part} for {mode} linkage")
    return np.empty((0,) if mode == "exact" else (0, 4), DIGEST_DTYPE)


def _field_codes(per_field_a: np.ndarray, per_field_b: np.ndarray) -> np.ndarray:
    """Per-field integer codes, (4, rows of A then rows of B): two digests of
    a field get equal codes exactly when they are equal. A field's codes are
    one contiguous row, so gathering them by candidate stays cheap."""
    codes = np.empty((4, len(per_field_a) + len(per_field_b)), dtype=np.int64)
    for k in range(4):
        both = np.concatenate((per_field_a[:, k], per_field_b[:, k]))
        codes[k] = np.unique(both, return_inverse=True)[1]
    return codes


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
    fields = [list(zip(*(p.per_field for p in side))) for side in (pseudos_a, pseudos_b)]
    return _estimate_u(*fields)


def _estimate_u(fields_a: list, fields_b: list) -> tuple[float, float, float, float]:
    """estimate_u over the four per-field value columns of each side."""
    n_a, n_b = len(fields_a[0]), len(fields_b[0])
    out = []
    for column_a, column_b in zip(fields_a, fields_b):
        freq_a, freq_b = Counter(column_a), Counter(column_b)
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


def _pattern_table(params: LinkageParams) -> tuple[np.ndarray, list[str]]:
    """Weight and class of each of the 16 agreement patterns. Field k adds
    2**(3 - k) to a pattern's index when it agrees, the order of
    itertools.product. Each pattern is weighed by _weigh, as score_pair weighs
    one pair, so a candidate's weight is bit-identical to score_pair's."""
    weights = field_weights(params)
    table = [
        _weigh(bits, params, weights) for bits in itertools.product((False, True), repeat=4)
    ]
    return np.array([weight for weight, _ in table]), [c for _, c in table]


def _block_ids(codes: np.ndarray, blocking: list[int]) -> np.ndarray:
    """Dense block id for each row (each column of ``codes``): equal exactly
    when the rows agree on every blocking field. Without blocking fields every
    row is in block 0."""
    ids = np.zeros(codes.shape[1], np.int64)
    for k in blocking:
        column = codes[k]
        # ids and codes are below the row count, so the pair key stays below
        # its square; re-densifying after each field keeps it there
        ids = np.unique(ids * (int(column.max()) + 1) + column, return_inverse=True)[1]
    return ids


def _link_exact(comp_a: np.ndarray, comp_b: np.ndarray) -> tuple[list[tuple[int, int]], dict]:
    keys_a, first_a, count_a = np.unique(comp_a, return_index=True, return_counts=True)
    keys_b, first_b, count_b = np.unique(comp_b, return_index=True, return_counts=True)
    _, in_a, in_b = np.intersect1d(keys_a, keys_b, assume_unique=True, return_indices=True)
    # a composite in both, but repeated on either side, excludes all its records
    unique = (count_a[in_a] == 1) & (count_b[in_b] == 1)
    pairs = sorted(zip(first_a[in_a[unique]].tolist(), first_b[in_b[unique]].tolist()))
    excluded = count_a[in_a[~unique]].sum() + count_b[in_b[~unique]].sum()
    audit = {
        "mode": "exact",
        "composite_collisions_a": int((count_a > 1).sum()),
        "composite_collisions_b": int((count_b > 1).sum()),
        "records_excluded_by_collision": int(excluded),
        "class_counts": {"match": len(pairs), "possible": 0, "non_match": 0},
    }
    return pairs, audit


def _link_probabilistic(
    per_field_a: np.ndarray, per_field_b: np.ndarray, params: LinkageParams
) -> tuple[list[tuple[int, int]], dict]:
    n_a = len(per_field_a)
    counts = dict.fromkeys((MATCH, POSSIBLE, NON_MATCH), 0)
    pairs: list[tuple[int, int]] = []
    resolved, estimated = params, False
    # with an empty side there is nothing to estimate u from, or to score
    if n_a and len(per_field_b):
        codes = _field_codes(per_field_a, per_field_b)
        codes_a, codes_b = codes[:, :n_a], codes[:, n_a:]
        # B in block order: A row r's candidates are B's [lo[r], lo[r] + sizes[r])
        blocks = _block_ids(codes, [QID_FIELDS.index(f) for f in params.blocking_fields])
        block_a, block_b = blocks[:n_a], blocks[n_a:]
        order_b = np.argsort(block_b)
        block_b = block_b[order_b]
        lo = np.searchsorted(block_b, block_a, "left")
        sizes = np.searchsorted(block_b, block_a, "right") - lo
        total = int(sizes.sum())
        if total > MAX_CANDIDATES:
            raise CandidateBudgetExceeded(total, MAX_CANDIDATES)
        if params.u is None:
            u = _estimate_u(codes_a.tolist(), codes_b.tolist())
            resolved, estimated = replace(params, u=u), True
        for i in range(4):
            if resolved.m[i] <= resolved.u[i]:
                raise DegenerateParams(
                    f"m <= u on field {QID_FIELDS[i]} "
                    f"({resolved.m[i]} <= {resolved.u[i]})"
                )
        weights, classes = _pattern_table(resolved)
        is_match = np.array([c == MATCH for c in classes])
        codes_b = codes_b[:, order_b]

        # candidates in A-row order are numbered 0..total-1; A row r holds
        # [starts[r], starts[r] + sizes[r]), scored CHUNK_CANDIDATES at a time
        starts = np.cumsum(sizes) - sizes
        pattern_counts = np.zeros(16, np.int64)
        # (weight, A row, B row) per Match-class candidate, one entry per chunk;
        # the empty first entry lets the concatenation below see no matches
        matches = [(np.empty(0), np.empty(0, np.intp), np.empty(0, np.intp))]
        for first in range(0, total, CHUNK_CANDIDATES):
            last = min(first + CHUNK_CANDIDATES, total)
            rows = np.arange(
                np.searchsorted(starts, first, "right") - 1,
                np.searchsorted(starts, last, "left"),
            )
            take = np.minimum(starts[rows] + sizes[rows], last) - np.maximum(starts[rows], first)
            pos = np.arange(first, last) + np.repeat(lo[rows] - starts[rows], take)
            # field 0 ends in the pattern's high bit, as in _pattern_table
            pattern = np.zeros(last - first, np.uint8)
            for k in range(4):
                pattern <<= 1
                pattern |= np.repeat(codes_a[k, rows], take) == codes_b[k, pos]
            pattern_counts += np.bincount(pattern, minlength=16)
            keep = is_match[pattern]
            matches.append(
                (weights[pattern[keep]], np.repeat(rows, take)[keep], order_b[pos[keep]])
            )
        for match_class, count in zip(classes, pattern_counts.tolist()):
            counts[match_class] += count

        w, i, j = (np.concatenate(part) for part in zip(*matches))
        order = np.lexsort((j, i, -w))
        used_a: set[int] = set()
        used_b: set[int] = set()
        for a, b in zip(i[order].tolist(), j[order].tolist()):
            if a in used_a or b in used_b:
                continue
            used_a.add(a)
            used_b.add(b)
            pairs.append((a, b))
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


def _unmatched(n_rows: int, matched: list[int]) -> tuple[int, ...]:
    free = np.ones(n_rows, dtype=bool)
    free[matched] = False
    return tuple(np.flatnonzero(free).tolist())


def link(ds_a: Dataset | Columns, ds_b: Dataset | Columns, params: LinkageParams) -> LinkResult:
    """Link two pseudonymized datasets.

    Probabilistic mode resolves u (estimating it when unset), requires
    m_i > u_i on every field, scores candidates surviving the blocking pass,
    and keeps Match-class pairs under a one-to-one constraint: descending
    weight, ties by (index_a, index_b).
    """
    params.validate()
    cols_a, cols_b = to_columns(ds_a), to_columns(ds_b)
    digests_a, digests_b = _digests(cols_a, params.mode), _digests(cols_b, params.mode)
    if params.mode == "exact":
        pairs, audit = _link_exact(digests_a, digests_b)
    else:
        pairs, audit = _link_probabilistic(digests_a, digests_b, params)
    return LinkResult(
        pairs=tuple(pairs),
        unmatched_a=_unmatched(cols_a.n_rows, [i for i, _ in pairs]),
        unmatched_b=_unmatched(cols_b.n_rows, [j for _, j in pairs]),
        audit=audit,
    )


def merge(result: LinkResult, ds_a: Dataset | Columns, ds_b: Dataset | Columns) -> Columns:
    """One row per accepted pair with the union of payload variables.

    Colliding variable names get station-id prefixes on both sides; pseudonym
    columns are dropped entirely, they have no further use after assignment.
    """
    cols_a, cols_b = to_columns(ds_a), to_columns(ds_b)
    collisions = set(cols_a.variable_names()) & set(cols_b.variable_names())
    schema = tuple(
        (f"{cols.station_id}.{name}" if name in collisions else name, vtype)
        for cols in (cols_a, cols_b)
        for name, vtype in cols.schema
    )
    out_names = [n for n, _ in schema]
    if len(out_names) != len(set(out_names)):
        raise SchemaCollision(f"merged schema still collides: {sorted(out_names)}")

    rows_a = [i for i, _ in result.pairs]
    rows_b = [j for _, j in result.pairs]
    extracted_at = max(cols_a.descriptor.extracted_at, cols_b.descriptor.extracted_at)
    merged = Columns(
        f"{cols_a.station_id}+{cols_b.station_id}",
        schema,
        DatasetDescriptor("merged", extracted_at, len(rows_a)),
        [[column[i] for i in rows_a] for column in cols_a.payload]
        + [[column[j] for j in rows_b] for column in cols_b.payload],
        digests=np.empty((len(rows_a), 0), DIGEST_DTYPE),
    )
    merged.validate()
    return merged
