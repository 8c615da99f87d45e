"""One object per category: every present label cell of a table read from
CSV, or produced by ``run``, is one of its spec's ``categories`` objects, so
a column of N rows holds its categories' strings, not N copies of them."""

from __future__ import annotations

import io
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featurespace import table as table_module
from featurespace.pipeline import load_fitted, run, save_fitted
from featurespace.table import MISSING, DataTable, read_table_chunks, read_table_csv, write_table_csv

from _fitted_documents import DATA, NAMES, ROWS
from strategies import fitted_pipelines, schemas, tables


def _foreign_cells(table: DataTable) -> list[tuple[str, int]]:
    """(feature, row) of each present label cell that is not one of its
    spec's category objects, though it may equal one."""
    return [(spec.name, r) for spec, column in zip(table.schema.features, table.columns)
            if spec.categories for r, cell in enumerate(column)
            if cell is not MISSING and not any(cell is c for c in spec.categories)]


def _csv_text(table: DataTable) -> str:
    out = io.StringIO()
    write_table_csv(table, out)
    return out.getvalue()


@settings(max_examples=100, deadline=None)
@given(schemas().flatmap(lambda schema: tables(schema, missing=0.2, min_rows=0)),
       st.integers(1, 4))
def test_read_label_cells_are_category_objects(table, chunk):
    text = _csv_text(table)
    with patch.object(table_module, "_CHUNK_ROWS", chunk):
        chunks = [part for _, part in read_table_chunks(io.StringIO(text), table.schema)]
    assert sum(part.num_rows for part in chunks) == table.num_rows
    for part in chunks:
        assert _foreign_cells(part) == []


@pytest.fixture(scope="module")
def document_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("documents")


@settings(max_examples=100, deadline=None)
@given(fitted_pipelines())
def test_run_label_cells_are_category_objects(document_dir, pair):
    """In memory, and as the CLI runs it: the fitted document saved and
    loaded again, which gives each label in a config its own string, and the
    rows read from CSV with the loaded input schema."""
    fitted, table = pair
    assert _foreign_cells(run(fitted, table).table) == []
    path = document_dir / "fitted.json"
    save_fitted(fitted, path)
    loaded = load_fitted(path)
    rows = read_table_csv(io.StringIO(_csv_text(table)), loaded.input_schema)
    assert _foreign_cells(run(loaded, rows).table) == []


@pytest.mark.parametrize("name", NAMES)
def test_demo_label_columns_hold_one_object_per_category(name):
    """``hierarchy_rollup``'s ``Soil Geologic Zone`` once held one string per
    mapping entry, four objects for its two categories."""
    fitted = load_fitted(DATA / f"covertype_300_{name}.fitted.json")
    table = read_table_csv(ROWS, fitted.input_schema)
    for result in (table, run(fitted, table).table):
        for spec, column in zip(result.schema.features, result.columns):
            if spec.categories:
                objects = {id(cell) for cell in column if cell is not MISSING}
                assert len(objects) <= len(spec.categories), spec.name
