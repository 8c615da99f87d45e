"""Typed tables, MISSING semantics, and CSV serialization."""

from __future__ import annotations

import csv
import io
from contextlib import contextmanager
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featurespace import table as table_module
from featurespace.cli import main
from featurespace.errors import ValidationError
from featurespace.schema import FeatureSpec, SchemaManifest, open_input
from featurespace.table import (
    MISSING,
    DataTable,
    check_cell,
    read_table_chunks,
    read_table_csv,
    render_cell,
    write_table_csv,
)

from _fitted_documents import DATA, DEMO, ROWS
from _reference_table import reference_read_table_csv
from _tables import tables_equal
from strategies import schemas, tables


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


@settings(max_examples=20, deadline=None)
@given(schemas().flatmap(tables))
def test_csv_round_trip_preserves_cells(table):
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


def test_csv_blank_last_line_is_not_a_row():
    schema = simple_schema()
    assert read_table_csv(io.StringIO("n,c,f\n1,a,TRUE\n\n"), schema).num_rows == 1
    for text in ("n,c,f\n1,a,TRUE\n\n2,b,FALSE\n", "n,c,f\n1,a,TRUE\n\n\n"):
        with pytest.raises(ValidationError, match="^row 1: expected 3 fields, got 0$"):
            read_table_csv(io.StringIO(text), schema)


def test_csv_without_columns_has_a_blank_line_per_row():
    table = read_table_csv(io.StringIO("\n\n\n\n"), SchemaManifest(()))
    assert table.num_rows == 3
    buf = io.StringIO()
    write_table_csv(table, buf)
    assert buf.getvalue() == "\n\n\n\n"


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


# A cell that no parser of its dtype accepts.
_BAD_CELL = {"numeric": "x", "boolean": "yes", "categorical": "zz", "ordinal": "zz"}


def _read(read, text: str, schema: SchemaManifest):
    """The table ``read`` returns, or the text of the ValidationError it raises."""
    try:
        return read(io.StringIO(text), schema)
    except ValidationError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_chunked_read_matches_the_whole_file_reader(data):
    """Tables of 0-4 chunks, the last one full or not, with any of a bad
    cell, a ragged row, an inner blank line and a blank last line: the
    chunked reader returns the reference reader's table, or its error. The
    chunks it joins start at rows 0, k, 2k, ..., hold 1 to k rows of the
    reference table each and share the schema that was read with."""
    schema = data.draw(schemas())
    chunk = data.draw(st.integers(1, 4), label="chunk rows")
    full_chunks = data.draw(st.integers(0, 3))
    num_rows = full_chunks * chunk + data.draw(st.just(0) | st.integers(0, chunk - 1))
    table = data.draw(tables(schema, min_rows=num_rows, max_rows=num_rows))
    buf = io.StringIO()
    write_table_csv(table, buf)
    header, *rows = csv.reader(io.StringIO(buf.getvalue()))
    position = st.integers(0, max(len(rows) - 1, 0))
    if rows and data.draw(st.booleans(), label="bad cell"):
        r, c = data.draw(position), data.draw(st.integers(0, len(header) - 1))
        rows[r][c] = _BAD_CELL[schema.features[c].dtype]
    if rows and data.draw(st.booleans(), label="ragged row"):
        r = data.draw(position)
        rows[r] = rows[r][:-1] if data.draw(st.booleans()) else rows[r] + ["1"]
    if rows and data.draw(st.booleans(), label="inner blank line"):
        rows.insert(data.draw(position), [])
    if data.draw(st.booleans(), label="blank last line"):
        rows.append([])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    want = _read(reference_read_table_csv, buf.getvalue(), schema)
    pairs = []
    with patch.object(table_module, "_CHUNK_ROWS", chunk):
        got = _read(read_table_csv, buf.getvalue(), schema)
        try:
            pairs.extend(read_table_chunks(io.StringIO(buf.getvalue()), schema))
        except ValidationError:  # the chunks above the error are yielded
            pass
    assert [first for first, _ in pairs] == list(range(0, chunk * len(pairs), chunk))
    assert all(0 < part.num_rows <= chunk and part.schema is schema for _, part in pairs)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, DataTable), got
        assert got == want
        assert [list(map(type, c)) for c in got.columns] == \
            [list(map(type, c)) for c in want.columns]
        assert sum(part.num_rows for _, part in pairs) == want.num_rows
        for first, part in pairs:
            assert part.columns == tuple(c[first:first + part.num_rows] for c in want.columns)


@pytest.mark.parametrize("full_chunks", [1, 2])
def test_full_chunks_then_a_blank_last_line(full_chunks):
    num_rows = full_chunks * table_module._CHUNK_ROWS  # 1,024 or 2,048
    text = "n,c,f\n" + "1,a,TRUE\n" * num_rows + "\n"
    assert read_table_csv(io.StringIO(text), simple_schema()).num_rows == num_rows


def test_a_ragged_row_in_the_second_chunk_is_numbered_from_the_first():
    first = table_module._CHUNK_ROWS  # 1,024
    text = "n,c,f\n" + "1,a,TRUE\n" * first + "1,a\n" + "1,a,TRUE\n" * 5
    with pytest.raises(ValidationError, match=f"^row {first}: expected 3 fields, got 2$"):
        read_table_csv(io.StringIO(text), simple_schema())


def test_a_chunk_is_read_only_when_it_is_taken(tmp_path, monkeypatch):
    """The first chunk of a file whose later bytes are not UTF-8 is read
    whole; the fault is reached only by taking the chunks after it, and
    closing the generator early closes the file."""
    path = tmp_path / "data.csv"
    path.write_bytes(b"n,c,f\n" + b"1,a,TRUE\n" * 3000 + b"\xff\n")
    handles = []

    @contextmanager
    def recording_open_input(source, what):
        with open_input(source, what) as handle:
            handles.append(handle)
            yield handle

    monkeypatch.setattr(table_module, "open_input", recording_open_input)
    chunks = read_table_chunks(path, simple_schema())
    assert handles == []  # nothing is opened before the first chunk is asked for
    first, table = next(chunks)
    assert (first, table.num_rows) == (0, table_module._CHUNK_ROWS)
    chunks.close()
    assert handles[0].closed
    with pytest.raises(ValidationError, match="cannot read data file .*'utf-8' codec"):
        list(read_table_chunks(path, simple_schema()))
    assert handles[1].closed


def test_runs_check_only_numeric_columns_a_column_at_a_time(tmp_path, monkeypatch):
    """Reading the covertype rows, fitting, running and writing both demo
    pipelines with lineage, and mapping every contribution fixture check
    only numeric columns whole: no run takes the per-cell path of a label or
    boolean column."""
    dtypes = []
    column_passes = table_module._column_passes

    def counting(values, spec):
        dtypes.append(spec.dtype)
        return column_passes(values, spec)

    monkeypatch.setattr(table_module, "_column_passes", counting)
    for name in ("model_ready", "interpretable"):
        assert main(["transform", "--fit", "--pipeline", str(DEMO / f"pipeline_{name}.yaml"),
                     "--data", str(ROWS), "--out", str(tmp_path / f"{name}.csv"),
                     "--lineage", str(tmp_path / f"{name}_lineage.json")]) == 0
    for name in ("model_ready", "interpretable", "learned"):
        assert main(["explain-map", "--pipeline", str(DATA / f"covertype_300_{name}.fitted.json"),
                     "--contribs", str(DATA / f"covertype_300_contribs_{name}.csv"),
                     "--out", str(tmp_path / f"explain_{name}.csv")]) == 0
    assert dtypes and set(dtypes) == {"numeric"}
