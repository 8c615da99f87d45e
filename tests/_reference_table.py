"""Reference CSV reader: the whole file is read before any of it is parsed,
and cells are parsed one by one in row order. ``read_table_csv`` reads and
parses a chunk of rows at a time; tests require it to return the table this
reader returns, or to raise a ValidationError with the same text."""

from __future__ import annotations

import csv

from featurespace.errors import ValidationError
from featurespace.schema import open_input
from featurespace.table import DataTable, parse_cell


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
        try:
            rows.append([parse_cell(text, spec) for text, spec in zip(fields, schema.features)])
        except ValidationError as exc:
            raise ValidationError(f"row {r}: {exc}") from None
    columns = [list(c) for c in zip(*rows)] if rows else [[] for _ in range(width)]
    return DataTable.from_columns(schema, columns, len(rows), schema.label_positions)
