"""Properties of the columnar table core and the column-backed lineage."""

from __future__ import annotations

import io

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from featurespace.errors import ValidationError
from featurespace.lineage import lineage_to_data
from featurespace.pipeline import _apply_step, invert, run
from featurespace.table import (
    DataTable,
    check_cell,
    parse_cell,
    read_table_csv,
    write_table_csv,
)
from featurespace.transforms import EXACT_KINDS, KERNELS

from _tables import tables_equal
from strategies import fitted_pipelines, schemas, tables

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)
SMALL_TABLES = schemas().flatmap(lambda schema: tables(schema, min_rows=2, max_rows=12))

# A cell value each dtype rejects, and CSV text each dtype rejects. Numeric and
# boolean texts fail while parsing; a label text fails validation.
BAD_CELL = {"numeric": "not a number", "boolean": 1, "categorical": "no-such-label",
            "ordinal": "no-such-label"}
BAD_TEXT = {"numeric": "abc", "boolean": "yes", "categorical": "no-such-label",
            "ordinal": "no-such-label"}


def _csv_text(table: DataTable) -> str:
    out = io.StringIO()
    write_table_csv(table, out)
    return out.getvalue()


def _error(fn) -> str:
    try:
        fn()
    except ValidationError as exc:
        return str(exc)
    raise AssertionError("expected a ValidationError")


@PROPERTY_SETTINGS
@given(schemas().flatmap(lambda schema: tables(schema, missing=0.2)))
def test_rows_and_csv_round_trip(table):
    again = DataTable(table.schema, table.rows)
    assert again == table
    assert tables_equal(again, table)
    assert again.num_rows == len(table.rows)
    for i, name in enumerate(table.schema.names):
        assert table.column(name) == tuple(row[i] for row in table.rows)
    parsed = read_table_csv(io.StringIO(_csv_text(table)), table.schema)
    assert parsed == table


@PROPERTY_SETTINGS
@given(fitted_pipelines(missing=0.3, direction="to_interpretable", kinds=EXACT_KINDS,
                        first=("impute_flagged",)))
def test_lineage_length_matches_its_expansions(pair):
    """Imputation gives rows whose lineage differs from the column's."""
    fitted, table = pair
    result = run(fitted, table)
    entries = lineage_to_data(result.lineage)
    assert len(result.lineage) == len(entries)
    assert all(0 <= e["row"] < table.num_rows for e in entries)


@PROPERTY_SETTINGS
@given(fitted_pipelines())
def test_steps_carry_what_they_do_not_produce_unchanged(pair):
    """Why a step validates only its produced columns: every other output
    spec is the input spec of the same name. Of the produced columns, it
    validates exactly the numeric ones."""
    for fstep in pair[0].steps:
        names = fstep.output_schema.names
        for spec in fstep.output_schema.features:
            if spec.name not in fstep.produced:
                assert spec == fstep.input_schema.feature(spec.name)
        numeric = [name for name in names if name in fstep.produced
                   and fstep.output_schema.feature(name).dtype == "numeric"]
        assert [names[i] for i in fstep.validated] == numeric


def _unvalidated_columns_pass(fitted, table: DataTable) -> tuple[set[str], DataTable]:
    """Run ``fitted`` over ``table`` step by step, requiring every cell of
    each produced column a step leaves out of validation (each non-numeric
    one) to pass ``check_cell``. Returns the kinds that produced such a
    column, and the output table."""
    kinds, current = set(), table
    for number, fstep in enumerate(fitted.steps, 1):
        kernel = KERNELS[fstep.step.kind]
        columns, _ = kernel.apply(current, fstep.prepared)
        for name, column in zip(fstep.produced, columns):
            spec = fstep.output_schema.feature(name)
            if spec.dtype != "numeric":
                assert len(column) == current.num_rows
                for cell in column:
                    check_cell(cell, spec)
                kinds.add(fstep.step.kind)
        current, _ = _apply_step(fstep, number, current)
    return kinds, current


# Every kind that produces labels or booleans, and the features they read.
LABEL_KINDS = ("statistical_bin", "semantic_bin", "abstract_concept", "hierarchy_rollup",
               "one_hot_encode", "one_hot_decode", "render_statement", "impute_flagged")
LABEL_SCHEMAS = schemas(["numeric"] * 4 + ["categorical", "boolean"])


@PROPERTY_SETTINGS
@given(fitted_pipelines(LABEL_SCHEMAS, missing=0.3, direction="to_interpretable",
                        kinds=EXACT_KINDS, first=LABEL_KINDS + ("impute_flagged",)),
       fitted_pipelines(LABEL_SCHEMAS, missing=0.3, direction="to_interpretable",
                        kinds=EXACT_KINDS, first=("render_statement", "render_statement")))
def test_unvalidated_produced_columns_pass_validation(labelled, rendered):
    """Every label and boolean cell a step produces, which the pipeline
    does not validate, passes ``check_cell``: over random fitted
    pipelines of every kind that produces one, and random input tables with
    MISSING cells."""
    imputed = [fstep.input_schema.feature(fstep.step.config["feature"])
               for fstep in labelled[0].steps if fstep.step.kind == "impute_flagged"]
    assume(any(spec.categories and spec.derived_from for spec in imputed))  # a produced label
    kinds, _ = _unvalidated_columns_pass(*labelled)
    assert kinds >= set(LABEL_KINDS)
    # Statements are read back by the inverse of an exact pipeline.
    fitted, table = rendered
    _, out = _unvalidated_columns_pass(fitted, table)
    kinds, _ = _unvalidated_columns_pass(invert(fitted), out)
    assert "unrender_statement" in kinds


def _two_positions(data, table: DataTable) -> list[tuple[int, int]]:
    width = len(table.schema.features)
    cells = st.lists(st.integers(0, table.num_rows * width - 1), min_size=2, max_size=2,
                     unique=True)
    return [divmod(cell, width) for cell in data.draw(cells)]


@PROPERTY_SETTINGS
@given(SMALL_TABLES, st.data())
def test_first_bad_cell_is_reported_row_major(table, data):
    features = table.schema.features
    positions = sorted(_two_positions(data, table))
    rows = [list(row) for row in table.rows]
    for r, c in positions:
        rows[r][c] = BAD_CELL[features[c].dtype]
    r, c = positions[0]
    expected = f"row {r}: " + _error(lambda: check_cell(rows[r][c], features[c]))
    assert _error(lambda: DataTable(table.schema, rows)) == expected


@PROPERTY_SETTINGS
@given(SMALL_TABLES, st.data())
def test_csv_reports_the_first_bad_cell_in_file_order(table, data):
    features = table.schema.features
    lines = _csv_text(table).splitlines()
    grid = [line.split(",") for line in lines[1:]]  # generated labels hold no commas
    positions = sorted(_two_positions(data, table))
    for r, c in positions:
        grid[r][c] = BAD_TEXT[features[c].dtype]
    text = "\n".join([lines[0], *(",".join(fields) for fields in grid)]) + "\n"
    # Each cell is checked where it is parsed, so the first bad cell in
    # row-major order wins, whether it fails to parse or is an undeclared label.
    r, c = positions[0]
    message = _error(lambda: check_cell(parse_cell(grid[r][c], features[c]), features[c]))
    got = _error(lambda: read_table_csv(io.StringIO(text), table.schema))
    assert got == f"row {r}: {message}"
