"""Typed tables, MISSING semantics, and CSV serialization."""

from __future__ import annotations

import io
import random

import pytest

from featurespace.errors import ValidationError
from featurespace.schema import FeatureSpec, SchemaManifest
from featurespace.table import (
    MISSING,
    DataTable,
    check_cell,
    read_table_csv,
    render_cell,
    write_table_csv,
)

from _generators import random_schema, random_table
from _tables import tables_equal


def simple_schema():
    return SchemaManifest(features=(
        FeatureSpec("n", "numeric"),
        FeatureSpec("c", "categorical", categories=("a", "b")),
        FeatureSpec("f", "boolean"),
    ))


def test_cells_conform_or_are_missing():
    schema = simple_schema()
    DataTable(schema, ((1.5, "a", True), (MISSING, MISSING, MISSING)))
    with pytest.raises(ValidationError, match="expected number"):
        DataTable(schema, (("oops", "a", True),))
    with pytest.raises(ValidationError, match="not in declared categories"):
        DataTable(schema, ((1.0, "z", True),))
    with pytest.raises(ValidationError, match="expected boolean"):
        DataTable(schema, ((1.0, "a", 1),))


def test_bool_is_not_a_number():
    schema = SchemaManifest(features=(FeatureSpec("n", "numeric"),))
    with pytest.raises(ValidationError):
        DataTable(schema, ((True,),))


def test_non_finite_numbers_rejected():
    schema = SchemaManifest(features=(FeatureSpec("n", "numeric"),))
    with pytest.raises(ValidationError, match="non-finite"):
        DataTable(schema, ((float("nan"),),))


def test_row_width_checked():
    with pytest.raises(ValidationError, match="expected 3 cells"):
        DataTable(simple_schema(), ((1.0, "a"),))


def test_csv_round_trip_preserves_cells():
    rng = random.Random(11)
    for _ in range(20):
        table = random_table(rng)
        buf = io.StringIO()
        write_table_csv(table, buf)
        back = read_table_csv(io.StringIO(buf.getvalue()), table.schema)
        assert tables_equal(table, back)


def test_csv_booleans_and_missing_rendering():
    table = DataTable(simple_schema(), ((3, "a", True), (MISSING, "b", False)))
    buf = io.StringIO()
    write_table_csv(table, buf)
    assert buf.getvalue() == "n,c,f\n3,a,TRUE\n,b,FALSE\n"


def test_csv_header_must_match_exactly():
    schema = simple_schema()
    with pytest.raises(ValidationError, match="missing manifest columns"):
        read_table_csv(io.StringIO("n,c\n1,a\n"), schema)
    with pytest.raises(ValidationError, match="exactly and in order"):
        read_table_csv(io.StringIO("c,n,f\na,1,TRUE\n"), schema)


def test_csv_strict_boolean_tokens():
    schema = SchemaManifest(features=(FeatureSpec("f", "boolean"),))
    with pytest.raises(ValidationError, match="TRUE or FALSE"):
        read_table_csv(io.StringIO("f\ntrue\n"), schema)


def test_display_format_applies_to_numeric_columns():
    schema = SchemaManifest(features=(FeatureSpec("n", "numeric"),))
    table = DataTable(schema, ((0.784485,), (-2.865776,)))
    buf = io.StringIO()
    write_table_csv(table, buf, {"n": ".3g"})
    assert buf.getvalue() == "n\n0.784\n-2.87\n"


def test_render_cell_shortest_round_trip():
    assert render_cell(453) == "453"
    assert render_cell(0.1) == "0.1"
    assert render_cell(MISSING) == ""
    assert render_cell(True) == "TRUE"


def test_column_accessor():
    table = DataTable(simple_schema(), ((1, "a", True), (2, "b", False)))
    assert table.column("n") == (1, 2)
    with pytest.raises(ValidationError):
        table.column("nope")


def test_an_integer_beyond_the_float_range_is_not_a_number():
    spec = FeatureSpec("x", "numeric")
    schema = SchemaManifest((spec,))
    with pytest.raises(ValidationError, match="feature 'x': non-finite value"):
        check_cell(10**400, spec)
    with pytest.raises(ValidationError, match="row 1: feature 'x': non-finite value"):
        DataTable(schema, ((1,), (10**400,)))
    for text in ("1" + "0" * 400, "-" + "9" * 5000):
        with pytest.raises(ValidationError, match="row 1: feature 'x': non-finite value"):
            read_table_csv(io.StringIO(f"x\n2\n{text}\n"), schema)
    long_seven = "0" * 400 + "7"  # long, but finite: still an integer
    assert read_table_csv(io.StringIO(f"x\n{long_seven}\n"), schema).values("x") == [7]
