"""Analysis kinds and disclosure control: suppression floor, no released
extremes, secondary suppression, idempotence."""

import pytest

from conftest import assert_no_subtraction_recovery, released_counts
from phtlink.analysis import (
    AnalysisSpec,
    DisclosurePolicy,
    RawResult,
    ValidatedResult,
    run_analysis,
    table_to_csv,
    validate,
)
from phtlink.errors import BinBudgetExceeded, TypeMismatch, UnknownVariable
from phtlink.model import Record, make_dataset


def merged_dataset(rows, schema=(("age", "numeric"), ("income", "numeric"))):
    return make_dataset("A+B", schema, [Record(payload=dict(r)) for r in rows])


def categorical_dataset(rows):
    return merged_dataset(
        rows, schema=(("gender_like", "categorical"), ("status", "categorical"))
    )


class TestRunAnalysis:
    def test_binned_association_two_rows(self):
        merged = merged_dataset([{"age": 52, "income": 30000}, {"age": 53, "income": 34000}])
        raw = run_analysis(
            merged, AnalysisSpec("binned_association", ("age", "income"), bin_width=10)
        )
        table = raw.tables[0]
        rows = {r["bin"]: r for r in table.rows}
        assert rows["[50,60)"]["count"] == 2
        assert rows["[50,60)"]["mean_income"] == 32000
        assert table.meta["bin_edges"] == [50, 60]
        assert table.meta["x"] == "age" and table.meta["y"] == "income"

    @pytest.mark.parametrize("ages, width", [
        ((40,), 1e-300),  # 40 + 1e-300 == 40: an edge that never moves
        ((0, 100), 1e-300),
        ((0, 100), 1e-6),  # 10^8 edges
    ])
    def test_bin_width_past_the_bin_budget_is_refused(self, ages, width):
        merged = merged_dataset([{"age": a, "income": 1} for a in ages])
        spec = AnalysisSpec("binned_association", ("age", "income"), bin_width=width)
        spec.validate()
        with pytest.raises(BinBudgetExceeded):
            run_analysis(merged, spec)

    def test_bin_budget_keeps_the_widths_it_allows(self):
        merged = merged_dataset([{"age": a, "income": 1} for a in (0.0, 99.9)])
        spec = AnalysisSpec("binned_association", ("age", "income"), bin_width=0.001)
        expected = [0.0]  # each edge is the last plus the width, as before the budget
        while expected[-1] <= 99.9:
            expected.append(expected[-1] + 0.001)
        assert run_analysis(merged, spec).tables[0].meta["bin_edges"] == expected

    def test_binned_explicit_edges_and_out_of_range(self):
        merged = merged_dataset(
            [{"age": 45, "income": 100}, {"age": 90, "income": 200}]
        )
        raw = run_analysis(
            merged,
            AnalysisSpec("binned_association", ("age", "income"), bin_edges=(40, 50, 60)),
        )
        assert raw.tables[0].meta["out_of_range"] == 1
        assert [r["bin"] for r in raw.tables[0].rows] == ["[40,50)", "[50,60)"]

    def test_descriptive_empty_dataset(self):
        raw = run_analysis(merged_dataset([]), AnalysisSpec("descriptive", ("age",)))
        row = raw.tables[0].rows[0]
        assert row["count"] == 0
        assert row["mean"] is None and row["stddev"] is None

    def test_descriptive_statistics(self):
        merged = merged_dataset(
            [{"age": a, "income": 0} for a in (40, 50, 60)]
        )
        row = run_analysis(merged, AnalysisSpec("descriptive", ("age",))).tables[0].rows[0]
        assert row == {"variable": "age", "count": 3, "mean": 50, "stddev": 10}
        # a minimum or maximum is one record's exact value: never computed
        assert "min" not in row and "max" not in row

    def test_descriptive_of_categorical_rejected(self):
        merged = categorical_dataset([{"gender_like": "F", "status": "low"}])
        with pytest.raises(TypeMismatch):
            run_analysis(merged, AnalysisSpec("descriptive", ("status",)))

    def test_unknown_variable_rejected(self):
        with pytest.raises(UnknownVariable):
            run_analysis(merged_dataset([]), AnalysisSpec("descriptive", ("zzz",)))

    def test_crosstab_hand_enumeration(self):
        merged = categorical_dataset(
            [
                {"gender_like": "F", "status": "low"},
                {"gender_like": "F", "status": "high"},
                {"gender_like": "M", "status": "low"},
            ]
        )
        raw = run_analysis(merged, AnalysisSpec("crosstab", ("gender_like", "status")))
        cells = {
            (r["gender_like"], r["status"]): r["count"] for r in raw.tables[0].rows
        }
        assert cells[("F", "low")] == 1 and cells[("F", "high")] == 1
        assert cells[("M", "low")] == 1 and cells[("M", "high")] == 0
        assert cells[("F", "(all)")] == 2 and cells[("(all)", "low")] == 2
        assert cells[("(all)", "(all)")] == 3

    def test_crosstab_of_numeric_rejected(self):
        with pytest.raises(TypeMismatch):
            run_analysis(merged_dataset([]), AnalysisSpec("crosstab", ("age", "income")))

    @pytest.mark.parametrize("bad", [
        AnalysisSpec("descriptive", ()),
        AnalysisSpec("crosstab", ("a",)),
        AnalysisSpec("binned_association", ("a", "b")),
        AnalysisSpec("binned_association", ("a", "b"), bin_width=0),
        AnalysisSpec("binned_association", ("a", "b"), bin_edges=(1, 1)),
        AnalysisSpec("nonsense", ("a",)),
    ])
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            bad.validate()


def binned_raw(counts, k=1):
    """Raw binned table with the given per-bin counts."""
    rows = []
    for i, n in enumerate(counts):
        rows.extend({"age": 40 + 10 * i + (j % 10), "income": 1000 * i} for j in range(n))
    merged = merged_dataset(rows)
    return run_analysis(
        merged, AnalysisSpec("binned_association", ("age", "income"), bin_width=10)
    )


class TestValidate:
    def test_small_bin_fully_suppressed(self):
        raw = binned_raw([3, 12])
        out = validate(raw, DisclosurePolicy(k_min=10))
        rows = {r["bin"]: r for r in out.tables[0].rows}
        assert rows["[40,50)"]["count"] == "*"
        assert rows["[40,50)"]["mean_income"] == "*"
        assert rows["[50,60)"]["count"] == 12

    def test_k_min_one_is_identity_on_released_stats(self):
        raw = binned_raw([3, 12])
        out = validate(raw, DisclosurePolicy(k_min=1))
        assert out.tables[0].rows == raw.tables[0].rows

    def test_everything_below_floor_leaves_only_markers(self):
        raw = binned_raw([2, 3, 4])
        out = validate(raw, DisclosurePolicy(k_min=10))
        table = out.tables[0]
        assert all(r["count"] == "*" for r in table.rows)
        listed = {tuple(c["cell"]) for c in out.audit["disclosure"]["suppressed_cells"]}
        assert listed == {(r["bin"],) for r in table.rows}

    def test_released_count_floor(self):
        raw = binned_raw([1, 4, 9, 11, 25])
        for k in (2, 5, 10):
            out = validate(raw, DisclosurePolicy(k_min=k))
            for table in out.tables:
                assert all(c >= k for c in released_counts(table))

    def test_min_max_suppressed_for_single_record_groups(self):
        # descriptive releases no extremes at all, whatever the group's size
        merged = merged_dataset([{"age": 77, "income": 1}])
        raw = run_analysis(merged, AnalysisSpec("descriptive", ("age",)))
        out = validate(raw, DisclosurePolicy(k_min=1))
        table = out.tables[0]
        assert table.value_fields == ("count", "mean", "stddev")
        assert table.rows[0] == {"variable": "age", "count": 1, "mean": 77, "stddev": None}

    def test_idempotent(self):
        raw = binned_raw([3, 4, 12, 20])
        policy = DisclosurePolicy(k_min=5)
        once = validate(raw, policy)
        twice = validate(RawResult(tables=once.tables, audit=once.audit), policy)
        assert [t.rows for t in twice.tables] == [t.rows for t in once.tables]

    def test_custom_marker(self):
        raw = binned_raw([1])
        out = validate(raw, DisclosurePolicy(k_min=5, suppress_marker="<hidden>"))
        assert out.tables[0].rows[0]["count"] == "<hidden>"


class TestSecondarySuppression:
    def crosstab_out(self, rows, k):
        merged = categorical_dataset(rows)
        raw = run_analysis(merged, AnalysisSpec("crosstab", ("gender_like", "status")))
        return validate(raw, DisclosurePolicy(k_min=k))

    def test_single_low_cell_cannot_be_recovered(self):
        rows = (
            [{"gender_like": "F", "status": "low"}] * 1
            + [{"gender_like": "F", "status": "high"}] * 8
            + [{"gender_like": "M", "status": "low"}] * 9
            + [{"gender_like": "M", "status": "high"}] * 7
        )
        out = self.crosstab_out(rows, k=2)
        table = out.tables[0]
        cells = {
            (r["gender_like"], r["status"]): r["count"] for r in table.rows
        }
        assert cells[("F", "low")] == "*"
        # at least one more interior cell went down with it
        suppressed = [c for c, v in cells.items() if v == "*"]
        assert len(suppressed) >= 2
        assert_no_subtraction_recovery(table)

    def test_single_column_crosstab_suppresses_total(self):
        rows = (
            [{"gender_like": "F", "status": "only"}] * 1
            + [{"gender_like": "M", "status": "only"}] * 9
        )
        out = self.crosstab_out(rows, k=2)
        table = out.tables[0]
        cells = {(r["gender_like"], r["status"]): r["count"] for r in table.rows}
        assert cells[("F", "only")] == "*"
        # the F row total equals the lone interior cell; it must not leak
        assert cells[("F", "(all)")] == "*"
        assert_no_subtraction_recovery(table)

    def test_cell_suppressed_to_protect_another_takes_its_row_total(self):
        # r0 is below the floor; r1 goes down with it to protect r0 in the
        # column, and then r1's row total would give r1 away, so it goes too
        rows = [{"gender_like": g, "status": "only"}
                for g, n in (("r0", 3), ("r1", 20), ("r2", 25)) for _ in range(n)]
        table = self.crosstab_out(rows, k=5).tables[0]
        cells = {(r["gender_like"], r["status"]): r["count"] for r in table.rows}
        assert cells == {
            ("r0", "only"): "*", ("r0", "(all)"): "*",
            ("r1", "only"): "*", ("r1", "(all)"): "*",
            ("r2", "only"): 25, ("r2", "(all)"): 25,
            ("(all)", "only"): 48, ("(all)", "(all)"): 48,
        }
        assert_no_subtraction_recovery(table)

    def test_line_whose_lone_cell_carries_a_marker_loses_its_total(self):
        # validate leaves a marker it is given alone: r1's lone cell is
        # suppressed, so its released row total would give the cell away
        rows = [{"gender_like": g, "status": "only"}
                for g, n in (("r1", 20), ("r2", 25)) for _ in range(n)]
        raw = run_analysis(categorical_dataset(rows),
                           AnalysisSpec("crosstab", ("gender_like", "status")))
        (cell,) = [r for r in raw.tables[0].rows
                   if (r["gender_like"], r["status"]) == ("r1", "only")]
        cell["count"] = "*"
        table = validate(raw, DisclosurePolicy(k_min=5)).tables[0]
        cells = {(r["gender_like"], r["status"]): r["count"] for r in table.rows}
        assert cells[("r1", "(all)")] == "*"
        assert_no_subtraction_recovery(table)

    def test_zero_cells_are_suppressed_not_released(self):
        rows = (
            [{"gender_like": "F", "status": "low"}] * 5
            + [{"gender_like": "M", "status": "high"}] * 5
        )
        out = self.crosstab_out(rows, k=2)
        for count in released_counts(out.tables[0]):
            assert count >= 2
        assert_no_subtraction_recovery(out.tables[0])


class TestCsvRendering:
    def test_markers_and_values(self):
        raw = binned_raw([1, 12])
        out = validate(raw, DisclosurePolicy(k_min=5))
        text = table_to_csv(out.tables[0])
        lines = text.strip().splitlines()
        assert lines[0] == "bin,count,mean_income"
        assert lines[1] == '"[40,50)",*,*'


class TestResultDict:
    """ValidatedResult.from_dict is the strict inverse of to_dict."""

    def result(self):
        return validate(binned_raw([1, 12]), DisclosurePolicy(k_min=5))

    def test_roundtrip_keeps_rows_a_list(self):
        result = self.result()
        back = ValidatedResult.from_dict(result.to_dict())
        assert back == result
        assert isinstance(back.tables[0].rows, list)
        assert back.tables[0].key_fields == ("bin",)

    @pytest.mark.parametrize("where", ["result", "table"])
    def test_unknown_key_raises_value_error(self, where):
        doc = self.result().to_dict()
        (doc if where == "result" else doc["tables"][0])["x"] = 1
        with pytest.raises(ValueError, match="'x'"):
            ValidatedResult.from_dict(doc)

    def test_missing_table_key_raises_value_error(self):
        doc = self.result().to_dict()
        del doc["tables"][0]["name"]
        with pytest.raises(ValueError, match="name"):
            ValidatedResult.from_dict(doc)
