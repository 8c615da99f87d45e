"""Reference CSV reader: the whole file is read before any of it is parsed,
and cells are parsed and checked one by one in row order, so the first bad
cell in the file is reported, whatever its kind. ``read_table_csv`` and the
join of ``read_table_chunks`` read, parse and check a chunk of rows at a
time; tests require them to return the table this reader returns, or to
raise a ValidationError with the same text."""

from __future__ import annotations

import csv

from featurespace.errors import ValidationError
from featurespace.schema import open_input
from featurespace.table import DataTable, check_cell, parse_cell


def reference_read_table_csv(source, schema) -> DataTable:
    with open_input(source, "data file") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValidationError("data file is empty (missing header row)")
        if tuple(header) != schema.names:
            missing = [n for n in schema.names if n not in header]
            if missing:
                raise ValidationError(f"data header is missing manifest columns: {missing}")
            raise ValidationError(
                f"data header must match manifest feature names exactly and in order; "
                f"got {header}, expected {list(schema.names)}")
        raw = list(reader)
    width = len(schema.names)
    if width and raw and not raw[-1]:
        del raw[-1]
    rows = []
    for r, fields in enumerate(raw):
        if len(fields) != width:
            raise ValidationError(f"row {r}: expected {width} fields, got {len(fields)}")
        rows.append([])
        try:
            for text, spec in zip(fields, schema.features):
                rows[-1].append(parse_cell(text, spec))
                check_cell(rows[-1][-1], spec)
        except ValidationError as exc:
            raise ValidationError(f"row {r}: {exc}") from None
    return DataTable(schema, rows)
