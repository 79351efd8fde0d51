"""Record linkage over pseudonym vectors.

Two modes:

* exact: join on the composite digest. Composites that occur more than once
  on either side are ambiguous; those records are excluded and counted in the
  audit block rather than guessed at.
* probabilistic: Fellegi-Sunter scoring over the four per-field digests.
  A pair's log2 likelihood-ratio weight, from per-field agreement
  probabilities m (among true matches) and u (among non-matches), depends
  only on which fields agree, so each of the 16 agreement patterns is
  weighed and classified against two thresholds once per call. A join on
  the blocking fields sorts B by key, so each A row's candidates are one
  range of B and the candidate count is known before any pair is built.
  Past MAX_CANDIDATES link raises CandidateBudgetExceeded, before it
  estimates u. Otherwise only the candidates that can be Match or Possible
  are scored. Each minimal field set that such a pattern agrees on is a
  pass: a join of A to B on that set, which holds the blocking fields. A
  candidate is counted in the first pass whose set it agrees on, and the
  blocking candidates no pass counted are NonMatch. A pass is scored as
  numpy arrays, CHUNK_CANDIDATES at a time: the four field comparisons form
  a pattern index into the 16-entry tables. Only Match-class pairs are
  kept, so memory grows with them rather than with the candidates; they
  are reduced to a one-to-one assignment greedily in descending weight.

u can be supplied or estimated from the data as the chance-agreement rate
of a random cross pair, computed from per-field digest frequencies.

link and merge read datasets as Columns (a Dataset of Records is converted
first). Each mode codes its digests as integers, equal where the digests
are equal, by sorting the digests' first 8 bytes as one integer: the exact
join codes the composite column and counts the codes per side, and
probabilistic linkage codes each field over A's and B's dictionaries alone
(model.FieldCodes), gathers the row codes through the indexes, and joins
and compares those. Each mode reads only its own digest part, and a
dataset whose rows lack that part raises MissingPseudonyms.

Everything here is deterministic: ties break on (index_a, index_b), so a
fixed pair of datasets and params always yields the same LinkResult.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .encoding import check_types
from .errors import (
    CandidateBudgetExceeded,
    DegenerateParams,
    MissingPseudonyms,
    SchemaCollision,
)
from .model import (
    DIGEST_DTYPE, QID_FIELDS, Columns, Dataset, FieldCodes,
    hex_field_codes, to_columns,
)
from .pseudonym import LINKAGE_MODES, PseudonymVector

U_CLAMP = 1e-9

#: Candidates a pass scores per array step. It bounds the scorer's
#: temporaries, so memory stays flat however many candidates a pass joins.
CHUNK_CANDIDATES = 2**12
#: Most candidate pairs blocking may leave in one probabilistic link; past
#: it link raises CandidateBudgetExceeded before it estimates u or builds a
#: pair. It bounds the blocking count, not the pairs the passes score; all
#: of them are scored only when a pattern agreeing on nothing but the
#: blocking fields is Possible.
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


def _digests(cols: Columns, mode: str) -> np.ndarray | FieldCodes:
    """The digest part ``mode`` links on: composites (rows,) for exact
    linkage, the dictionary-coded per-field digests for probabilistic
    linkage."""
    if mode == "exact" and "composite" in cols.parts:
        return cols.digests[:, 0]
    if mode != "exact" and cols.fields is not None:
        return cols.fields
    if cols.n_rows:
        part = "composite" if mode == "exact" else "per-field digests"
        raise MissingPseudonyms(f"{cols.station_id} rows have no {part} for {mode} linkage")
    return np.empty(0, DIGEST_DTYPE) if mode == "exact" else hex_field_codes([])


def _codes(digests: np.ndarray) -> np.ndarray:
    """Integer code per digest of a (rows,) DIGEST_DTYPE column: equal
    exactly when the digests are equal, and numbered in order of each
    digest's first row. Each digest is read as big-endian 8-byte words, as
    many as its dtype holds (4 for a 32-byte digest). Rows are sorted by
    their first word, and neighbours that tie there must hold equal
    digests; if two unequal digests share that word, the whole digests are
    sorted instead."""
    if not len(digests):
        return np.empty(0, np.int64)
    n_words = digests.dtype.itemsize // 8
    words = np.ascontiguousarray(digests).view(">u8").reshape(len(digests), n_words)
    order = np.argsort(words[:, 0].astype(np.uint64))
    prefix = words[order, 0]
    same = prefix[1:] == prefix[:-1]
    if (words[order[1:][same]] != words[order[:-1][same]]).any():
        order = np.argsort(digests)
        same = digests[order[1:]] == digests[order[:-1]]
    # groups of equal digests in sorted order, ranked by their first row
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    rank = np.empty(len(starts), np.int64)
    rank[np.argsort(np.minimum.reduceat(order, starts))] = np.arange(len(starts))
    codes = np.empty(len(order), np.int64)
    codes[order] = np.repeat(rank, np.diff(starts, append=len(order)))
    return codes


def _field_codes(fields_a: FieldCodes, fields_b: FieldCodes) -> np.ndarray:
    """Per-field integer codes, (4, rows of A then rows of B): two digests of
    a field get equal codes exactly when they are equal. A field is coded
    over A's dictionary then B's, and each row takes its entry's code. A
    dictionary is in first-row order, so the codes number a field's digests
    by first row, A's rows first, as _codes over the rows themselves would.
    A field's codes are one contiguous row, so gathering them by candidate
    stays cheap."""
    n_a = fields_a.n_rows
    codes = np.empty((4, n_a + fields_b.n_rows), dtype=np.int64)
    for k, (dict_a, dict_b) in enumerate(zip(fields_a.dictionaries, fields_b.dictionaries)):
        entry_codes = _codes(np.concatenate((dict_a, dict_b)))
        codes[k, :n_a] = entry_codes[:len(dict_a)][fields_a.index[k]]
        codes[k, n_a:] = entry_codes[len(dict_a):][fields_b.index[k]]
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
    codes = _field_codes(*(hex_field_codes([p.per_field for p in side])
                           for side in (pseudos_a, pseudos_b)))
    return _estimate_u(codes[:, :len(pseudos_a)], codes[:, len(pseudos_a):])


def _estimate_u(codes_a: np.ndarray, codes_b: np.ndarray) -> tuple[float, float, float, float]:
    """estimate_u over the (4, rows) field codes of each side. _field_codes
    numbers a field's values by first row, A's rows first, so summing the
    terms by ascending code sums them in the order A's values first occur:
    the order, and so the last bit, of a sum over a Counter of A's values."""
    n_a, n_b = codes_a.shape[1], codes_b.shape[1]
    out = []
    for column_a, column_b in zip(codes_a, codes_b):
        size = int(max(column_a.max(), column_b.max())) + 1
        count_a = np.bincount(column_a, minlength=size)
        count_b = np.bincount(column_b, minlength=size)
        both = (count_a > 0) & (count_b > 0)
        u_i = sum(((count_a[both] / n_a) * (count_b[both] / n_b)).tolist())
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


def _join_key(codes: np.ndarray, fields) -> np.ndarray:
    """One int64 key per row (per column of ``codes``, whose codes are >= 0),
    equal exactly when the rows agree on every field in ``fields``. The key is
    the rows' codes read as digits, each in base its field's largest code + 1,
    so it sorts like the codes. It is re-densified before a digit more could
    overflow int64, which keeps it exact while the row count times a field's
    largest code stays below 2**63, as it does for _field_codes's codes.
    Without fields every row has key 0."""
    key = np.zeros(codes.shape[1], np.int64)
    bound = 1  # every key lies in [0, bound)
    for k in sorted(fields):
        radix = int(codes[k].max()) + 1
        if bound * radix > 2**63:
            key = np.unique(key, return_inverse=True)[1].astype(np.int64)
            bound = int(key.max()) + 1
        key = key * radix + codes[k]
        bound *= radix
    return key


def _join(codes: np.ndarray, n_a: int, fields) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, sizes, order_b): with B in ``order_b``, A row r's partners, the B
    rows that agree with it on every field in ``fields``, are B's
    [lo[r], lo[r] + sizes[r])."""
    key = _join_key(codes, fields)
    key_a, key_b = key[:n_a], key[n_a:]
    order_b = np.argsort(key_b)
    key_b = key_b[order_b]
    # searchsorted is several times faster when the keys it looks up are sorted
    order_a = np.argsort(key_a)
    lo, hi = np.empty(n_a, np.intp), np.empty(n_a, np.intp)
    lo[order_a] = np.searchsorted(key_b, key_a[order_a], "left")
    hi[order_a] = np.searchsorted(key_b, key_a[order_a], "right")
    return lo, hi - lo, order_b


def _link_exact(comp_a: np.ndarray, comp_b: np.ndarray) -> tuple[list[tuple[int, int]], dict]:
    n_a = len(comp_a)
    codes = _codes(np.concatenate((comp_a, comp_b)))
    size = int(codes.max()) + 1 if len(codes) else 0
    count_a = np.bincount(codes[:n_a], minlength=size)
    count_b = np.bincount(codes[n_a:], minlength=size)
    # the one B row of each composite that occurs once in B
    row_b = np.zeros(size, np.int64)
    row_b[codes[n_a:]] = np.arange(len(comp_b))
    # a composite in both, but repeated on either side, excludes all its records
    both = (count_a > 0) & (count_b > 0)
    unique = both & (count_a == 1) & (count_b == 1)
    rows_a = np.flatnonzero(unique[codes[:n_a]])
    pairs = list(zip(rows_a.tolist(), row_b[codes[rows_a]].tolist()))
    excluded = (count_a + count_b)[both & ~unique].sum()
    audit = {
        "mode": "exact",
        "composite_collisions_a": int((count_a > 1).sum()),
        "composite_collisions_b": int((count_b > 1).sum()),
        "records_excluded_by_collision": int(excluded),
        "class_counts": {"match": len(pairs), "possible": 0, "non_match": 0},
    }
    return pairs, audit


#: The fields each of the 16 agreement patterns agrees on: field k is bit
#: 3 - k of a pattern, as in _pattern_table.
_AGREED = tuple(frozenset(k for k in range(4) if p >> (3 - k) & 1) for p in range(16))


def _passes(classes: list[str], blocking: frozenset[int]) -> list[frozenset[int]]:
    """The field sets that candidates able to be Match or Possible agree on,
    minimal under inclusion. A candidate agrees on every blocking field, so
    each set holds them, and every candidate whose class is not NonMatch
    agrees on at least one set."""
    sets = {
        _AGREED[p] for p in range(16) if classes[p] != NON_MATCH and blocking <= _AGREED[p]
    }
    return sorted((s for s in sets if not any(t < s for t in sets)), key=sorted)


def _score(codes_a: np.ndarray, codes_b: np.ndarray, join):
    """(A rows, B rows, agreement pattern) of a join's candidates, in A-row
    order, CHUNK_CANDIDATES candidates at a time."""
    lo, sizes, order_b = join
    codes_b = codes_b[:, order_b]
    # candidates are numbered 0..total-1; A row r holds [starts[r], starts[r] + sizes[r])
    starts = np.cumsum(sizes) - sizes
    total = int(sizes.sum())
    for first in range(0, total, CHUNK_CANDIDATES):
        last = min(first + CHUNK_CANDIDATES, total)
        rows = np.arange(
            np.searchsorted(starts, first, "right") - 1,
            np.searchsorted(starts, last, "left"),
        )
        take = np.minimum(starts[rows] + sizes[rows], last) - np.maximum(starts[rows], first)
        rows_a = np.repeat(rows, take)
        pos = np.arange(first, last) + np.repeat(lo[rows] - starts[rows], take)
        # field 0 ends in the pattern's high bit, as in _pattern_table
        pattern = np.zeros(last - first, np.uint8)
        for k in range(4):
            pattern <<= 1
            pattern |= codes_a[k, rows_a] == codes_b[k, pos]
        yield rows_a, order_b[pos], pattern


def _link_probabilistic(
    fields_a: FieldCodes, fields_b: FieldCodes, params: LinkageParams
) -> tuple[list[tuple[int, int]], dict]:
    n_a = fields_a.n_rows
    counts = dict.fromkeys((MATCH, POSSIBLE, NON_MATCH), 0)
    pairs: list[tuple[int, int]] = []
    resolved, estimated = params, False
    # with an empty side there is nothing to estimate u from, or to score
    if n_a and fields_b.n_rows:
        codes = _field_codes(fields_a, fields_b)
        codes_a, codes_b = codes[:, :n_a], codes[:, n_a:]
        blocking = frozenset(QID_FIELDS.index(f) for f in params.blocking_fields)
        blocked = _join(codes, n_a, blocking)
        total = int(blocked[1].sum())
        if total > MAX_CANDIDATES:
            raise CandidateBudgetExceeded(total, MAX_CANDIDATES)
        if params.u is None:
            u = _estimate_u(codes_a, codes_b)
            resolved, estimated = replace(params, u=u), True
        for i in range(4):
            if resolved.m[i] <= resolved.u[i]:
                raise DegenerateParams(
                    f"m <= u on field {QID_FIELDS[i]} "
                    f"({resolved.m[i]} <= {resolved.u[i]})"
                )
        weights, classes = _pattern_table(resolved)
        is_match = np.array([c == MATCH for c in classes])

        # each pass joins A to B on one of the sets; a candidate is counted,
        # and kept if it is a Match, in the first pass whose set it agrees on
        passes = _passes(classes, blocking)
        pattern_counts = np.zeros(16, np.int64)
        # (weight, A row, B row) per Match-class candidate, one entry per chunk;
        # the empty first entry lets the concatenation below see no matches
        matches = [(np.empty(0), np.empty(0, np.intp), np.empty(0, np.intp))]
        for index, fields in enumerate(passes):
            owns = np.array([
                fields <= agreed and not any(e <= agreed for e in passes[:index])
                for agreed in _AGREED
            ])
            join = blocked if fields == blocking else _join(codes, n_a, fields)
            for rows_a, rows_b, pattern in _score(codes_a, codes_b, join):
                counted = owns[pattern]
                pattern_counts += np.bincount(pattern[counted], minlength=16)
                keep = counted & is_match[pattern]
                matches.append((weights[pattern[keep]], rows_a[keep], rows_b[keep]))
        for match_class, count in zip(classes, pattern_counts.tolist()):
            counts[match_class] += count
        # a NonMatch candidate is scored only where a pass happens to join it
        counts[NON_MATCH] = total - counts[MATCH] - counts[POSSIBLE]

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


def _gather(column: list | np.ndarray, rows: list[int]) -> list:
    """The values of ``column`` at ``rows``, as a list of Python values: a
    coded column's are read out of its view with ``.tolist()``."""
    if isinstance(column, np.ndarray):
        return column[np.array(rows, np.intp)].tolist()
    return [column[i] for i in rows]


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
    merged = Columns(
        f"{cols_a.station_id}+{cols_b.station_id}",
        schema,
        [_gather(column, rows_a) for column in cols_a.payload]
        + [_gather(column, rows_b) for column in cols_b.payload],
        digests=np.empty((len(rows_a), 0), DIGEST_DTYPE),
    )
    merged.validate()
    return merged
