"""Analysis over the merged dataset plus mandatory output checking.

Results never leave as row-level data: the supported analyses are grouped
aggregates (descriptive statistics, crosstabs, binned associations), and
every table passes through validate() before release. Validation suppresses
any cell computed from fewer than k_min records and applies secondary
suppression to crosstabs so a suppressed cell cannot be recovered from
released marginals by subtraction. Descriptive statistics release no
minimum or maximum: each is one record's exact value.
"""

from __future__ import annotations

import bisect
import copy
import io
import math
from dataclasses import asdict, dataclass, field

from .encoding import block_from_dict, canonical_json_bytes, check_types
from .errors import BinBudgetExceeded, TypeMismatch, UnknownVariable
from .model import Columns, Dataset

TOTAL_LABEL = "(all)"

KIND_DESCRIPTIVE = "descriptive"
KIND_CROSSTAB = "crosstab"
KIND_BINNED = "binned_association"
#: Most bins a binned association's bin_width may ask for; past it the
#: analysis raises BinBudgetExceeded before it builds any edge.
MAX_BINS = 10**5


@dataclass(frozen=True)
class AnalysisSpec:
    """What to compute: declared in the train manifest, immutable after signing."""

    kind: str
    variables: tuple[str, ...]
    bin_width: float | None = None
    bin_edges: tuple[float, ...] | None = None

    def validate(self) -> None:
        check_types(self)
        if self.kind not in (KIND_DESCRIPTIVE, KIND_CROSSTAB, KIND_BINNED):
            raise ValueError(f"unknown analysis kind {self.kind!r}")
        if not 1 <= len(self.variables) <= 2:
            raise ValueError("analysis takes 1 or 2 variables")
        if self.kind in (KIND_CROSSTAB, KIND_BINNED) and len(self.variables) != 2:
            raise ValueError(f"{self.kind} takes exactly 2 variables")
        if self.kind == KIND_BINNED:
            if (self.bin_width is None) == (self.bin_edges is None):
                raise ValueError("binned_association needs bin_width or bin_edges")
            if self.bin_width is not None and self.bin_width <= 0:
                raise ValueError("bin_width must be positive")
            if self.bin_edges is not None:
                if len(self.bin_edges) < 2 or any(
                    a >= b for a, b in zip(self.bin_edges, self.bin_edges[1:])
                ):
                    raise ValueError("bin_edges must be strictly increasing")


@dataclass(frozen=True)
class DisclosurePolicy:
    k_min: int = 10
    suppress_marker: str = "*"

    def validate(self) -> None:
        check_types(self)
        if self.k_min < 1:
            raise ValueError(f"k_min must be >= 1, not {self.k_min}")
        # a released cell is told from a suppressed one by its type
        if not self.suppress_marker:
            raise ValueError("suppress_marker must not be empty")


@dataclass
class ResultTable:
    """Long-form named table: key fields label the group, value fields hold
    the statistics ('count' always first). Cells may carry the suppression
    marker after validation."""

    name: str
    key_fields: tuple[str, ...]
    value_fields: tuple[str, ...]
    rows: list[dict]
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RawResult:
    tables: list[ResultTable]
    audit: dict = field(default_factory=dict)


@dataclass
class ValidatedResult:
    tables: list[ResultTable]
    audit: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_canonical_json(self) -> bytes:
        return canonical_json_bytes(self.to_dict())

    @classmethod
    def from_dict(cls, doc: dict) -> "ValidatedResult":
        """Strict inverse of to_dict: an unknown or missing key, or a table
        field of the wrong type, is a ValueError."""
        return block_from_dict(cls, doc, tables=lambda tables: [
            check_types(block_from_dict(ResultTable, t)) for t in tables
        ])


def _require_numeric(types: dict[str, str], name: str) -> None:
    if name not in types:
        raise UnknownVariable(name)
    if types[name] != "numeric":
        raise TypeMismatch(f"{name} is {types[name]}, expected numeric")


def _require_categorical(types: dict[str, str], name: str) -> None:
    if name not in types:
        raise UnknownVariable(name)
    if types[name] == "numeric":
        raise TypeMismatch(f"{name} is numeric, expected categorical")


def _descriptive(merged: Dataset | Columns, spec: AnalysisSpec) -> ResultTable:
    types = dict(merged.schema)
    rows = []
    for name in spec.variables:
        _require_numeric(types, name)
        values = [float(v) for v in merged.payload_column(name)]
        n = len(values)
        row: dict = {"variable": name, "count": n}
        if n == 0:
            row.update({"mean": None, "stddev": None})
        else:
            mean = sum(values) / n
            row["mean"] = mean
            row["stddev"] = (
                math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
                if n > 1
                else None
            )
        rows.append(row)
    return ResultTable(
        name="descriptive",
        key_fields=("variable",),
        value_fields=("count", "mean", "stddev"),
        rows=rows,
        meta={"kind": KIND_DESCRIPTIVE},
    )


def _crosstab(merged: Dataset | Columns, spec: AnalysisSpec) -> ResultTable:
    types = dict(merged.schema)
    var_r, var_c = spec.variables
    _require_categorical(types, var_r)
    _require_categorical(types, var_c)
    col_r = [str(v) for v in merged.payload_column(var_r)]
    col_c = [str(v) for v in merged.payload_column(var_c)]
    row_values = sorted(set(col_r))
    col_values = sorted(set(col_c))

    counts: dict[tuple[str, str], int] = {}
    for r, c in zip(col_r, col_c):
        counts[(r, c)] = counts.get((r, c), 0) + 1

    rows = []
    for r in row_values:
        for c in col_values:
            rows.append({var_r: r, var_c: c, "count": counts.get((r, c), 0)})
        rows.append({var_r: r, var_c: TOTAL_LABEL, "count": col_r.count(r)})
    for c in col_values:
        rows.append({var_r: TOTAL_LABEL, var_c: c, "count": col_c.count(c)})
    rows.append({var_r: TOTAL_LABEL, var_c: TOTAL_LABEL, "count": len(col_r)})

    return ResultTable(
        name=f"crosstab_{var_r}_x_{var_c}",
        key_fields=(var_r, var_c),
        value_fields=("count",),
        rows=rows,
        meta={
            "kind": KIND_CROSSTAB,
            "row_field": var_r,
            "col_field": var_c,
            "row_values": row_values,
            "col_values": col_values,
            "total_label": TOTAL_LABEL,
        },
    )


def _bin_label(lo: float, hi: float) -> str:
    def fmt(x: float) -> str:
        return str(int(x)) if float(x).is_integer() else str(x)

    return f"[{fmt(lo)},{fmt(hi)})"


def _edges_for(values: list[float], spec: AnalysisSpec) -> list[float]:
    if spec.bin_edges is not None:
        return list(spec.bin_edges)
    if not values:
        return []
    width = float(spec.bin_width)
    low, high = min(values), max(values)
    # a width under twice the float spacing at the values could leave an
    # edge where it is, so the loop below would never reach the top
    if (high - low) / width > MAX_BINS or width < 2 * math.ulp(max(abs(low), abs(high))):
        raise BinBudgetExceeded(width, MAX_BINS)
    start = math.floor(low / width) * width
    edges = [start]
    while edges[-1] <= high:
        edges.append(edges[-1] + width)
    return edges


def _binned_association(merged: Dataset | Columns, spec: AnalysisSpec) -> ResultTable:
    types = dict(merged.schema)
    var_x, var_y = spec.variables
    _require_numeric(types, var_x)
    _require_numeric(types, var_y)
    xs = [float(v) for v in merged.payload_column(var_x)]
    ys = [float(v) for v in merged.payload_column(var_y)]
    edges = _edges_for(xs, spec)

    mean_field = f"mean_{var_y}"
    rows = []
    out_of_range = 0
    if edges:
        sums = [0.0] * (len(edges) - 1)
        counts = [0] * (len(edges) - 1)
        for x, y in zip(xs, ys):
            if x < edges[0] or x >= edges[-1]:
                out_of_range += 1
                continue
            k = bisect.bisect_right(edges, x) - 1
            sums[k] += y
            counts[k] += 1
        for k in range(len(counts)):
            rows.append(
                {
                    "bin": _bin_label(edges[k], edges[k + 1]),
                    "count": counts[k],
                    mean_field: (sums[k] / counts[k]) if counts[k] else None,
                }
            )
    else:
        out_of_range = len(xs)

    return ResultTable(
        name=f"binned_{var_x}_x_{var_y}",
        key_fields=("bin",),
        value_fields=("count", mean_field),
        rows=rows,
        meta={
            "kind": KIND_BINNED,
            "x": var_x,
            "y": var_y,
            "bin_edges": edges,
            "out_of_range": out_of_range,
        },
    )


def run_analysis(merged: Dataset | Columns, spec: AnalysisSpec) -> RawResult:
    """Run the declared analysis over the merged dataset."""
    spec.validate()
    if spec.kind == KIND_DESCRIPTIVE:
        table = _descriptive(merged, spec)
    elif spec.kind == KIND_CROSSTAB:
        table = _crosstab(merged, spec)
    else:
        table = _binned_association(merged, spec)
    return RawResult(
        tables=[table],
        audit={"kind": spec.kind, "input_rows": merged.n_rows},
    )


# ---------------------------------------------------------------------------
# Disclosure control
# ---------------------------------------------------------------------------

def _is_suppressed(value) -> bool:
    return isinstance(value, str)


def _suppress_row(row: dict, value_fields: tuple[str, ...], marker: str) -> None:
    for name in value_fields:
        row[name] = marker


def _crosstab_matrix(table: ResultTable) -> dict[tuple[str, str], dict]:
    meta = table.meta
    index = {}
    for row in table.rows:
        index[(row[meta["row_field"]], row[meta["col_field"]])] = row
    return index


def _secondary_suppress_crosstab(table: ResultTable, marker: str) -> None:
    """Suppress extra cells until no line allows recovery by subtraction.

    A line is any row or column of the crosstab, including the marginal
    row/column, together with its own total. If the total is released and
    exactly one other cell on the line is suppressed, that cell equals the
    total minus the released cells; the smallest released cell on the line is
    suppressed as well (or the total itself when the line has nothing left).
    """
    meta = table.meta
    cells = _crosstab_matrix(table)
    row_values = list(meta["row_values"]) + [TOTAL_LABEL]
    col_values = list(meta["col_values"]) + [TOTAL_LABEL]

    lines: list[tuple[list[tuple[str, str]], tuple[str, str]]] = []
    for r in row_values:
        lines.append(([(r, c) for c in meta["col_values"]], (r, TOTAL_LABEL)))
    for c in col_values:
        lines.append(([(r, c) for r in meta["row_values"]], (TOTAL_LABEL, c)))

    changed = True
    while changed:
        changed = False
        for interior, total_coord in lines:
            total_row = cells[total_coord]
            if _is_suppressed(total_row["count"]):
                continue
            suppressed = [c for c in interior if _is_suppressed(cells[c]["count"])]
            if len(suppressed) != 1:
                continue
            released = [c for c in interior if not _is_suppressed(cells[c]["count"])]
            if released:
                victim = min(released, key=lambda c: (cells[c]["count"], c))
                cells[victim]["count"] = marker
            else:
                total_row["count"] = marker
            changed = True


def validate(raw: RawResult, policy: DisclosurePolicy) -> ValidatedResult:
    """Apply the disclosure policy; always succeeds by suppressing.

    Any group with fewer than k_min underlying records loses all its
    statistics (the count included). Cells already carrying a marker are
    left alone, so validation is idempotent.
    """
    policy.validate()
    marker = policy.suppress_marker
    tables = copy.deepcopy(raw.tables)

    for table in tables:
        for row in table.rows:
            count = row["count"]
            if not _is_suppressed(count) and count < policy.k_min:
                _suppress_row(row, table.value_fields, marker)
        if table.meta.get("kind") == KIND_CROSSTAB:
            _secondary_suppress_crosstab(table, marker)

    suppressed_cells = []
    released_counts = 0
    for table in tables:
        for row in table.rows:
            key = [str(row[k]) for k in table.key_fields]
            if _is_suppressed(row["count"]):
                suppressed_cells.append({"table": table.name, "cell": key})
            else:
                released_counts += 1

    audit = dict(raw.audit)
    audit["disclosure"] = {
        "k_min": policy.k_min,
        "suppress_marker": marker,
        "suppressed_cells": suppressed_cells,
        "cells_released": released_counts,
    }
    return ValidatedResult(tables=tables, audit=audit)


def table_to_csv(table: ResultTable) -> str:
    """Plot-ready CSV rendering of one table."""
    import csv as _csv

    buf = io.StringIO()
    writer = _csv.writer(buf)
    header = list(table.key_fields) + list(table.value_fields)
    writer.writerow(header)
    for row in table.rows:
        writer.writerow([row[name] if row[name] is not None else "" for name in header])
    return buf.getvalue()
