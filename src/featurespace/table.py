"""Typed tabular data aligned to a schema manifest, with CSV serialization.

MISSING is an explicit cell state, never a sentinel number or empty label, so
imputation transforms can detect it unambiguously. A CSV file is read and
written ``_CHUNK_ROWS`` rows at a time, and each cell is checked where it is
parsed: ``read_table_chunks`` yields valid tables of one chunk each, and
``read_table_csv`` joins them. A label cell read is one of its feature's
category objects, so a column holds one string per category, not per row.
"""

from __future__ import annotations

import csv
import math
import re
from itertools import islice, repeat
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .errors import ValidationError
from .schema import FeatureSpec, SchemaManifest, csv_line, open_input, open_outputs


class _MissingType:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "MISSING"

    def __bool__(self):
        return False


MISSING = _MissingType()

_INT_RE = re.compile(r"[+-]?\d+$")
_NUMERIC_TYPES = frozenset({int, float, _MissingType})
_SHORT_NUMBER = 300  # characters; an integer literal this short is below 1e300


def check_cell(cell, spec: FeatureSpec) -> None:
    """Raise unless the cell conforms to the feature's dtype (or is MISSING)."""
    if cell is MISSING:
        return
    if spec.dtype == "boolean":
        if not isinstance(cell, bool):
            raise ValidationError(f"feature {spec.name!r}: expected boolean, got {cell!r}")
    elif spec.dtype == "numeric":
        if isinstance(cell, bool) or not isinstance(cell, (int, float)):
            raise ValidationError(f"feature {spec.name!r}: expected number, got {cell!r}")
        try:
            finite = math.isfinite(cell)
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise ValidationError(f"feature {spec.name!r}: non-finite value {cell!r}")
    else:  # categorical / ordinal
        if not isinstance(cell, str):
            raise ValidationError(f"feature {spec.name!r}: expected category label, got {cell!r}")
        if cell not in spec.category_objects:
            raise ValidationError(
                f"feature {spec.name!r}: label {cell!r} not in declared categories")


class CellError(ValidationError):
    """A cell that its feature's dtype rejects, found in a table being
    built: the text is ``row R: <reason>``, ``row`` is R and ``reason`` the
    error ``check_cell`` raised."""

    def __init__(self, row: int, reason: ValidationError):
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason


def _column_passes(values: list, spec: FeatureSpec) -> bool:
    """Whole-column fast check: True guarantees ``check_cell`` accepts every
    cell. False only means some cell needs ``check_cell`` to decide, as each
    cell of a label or boolean column does."""
    if spec.dtype == "numeric":
        types = set(map(type, values))
        if not types <= _NUMERIC_TYPES:
            return False
        numbers = values if _MissingType not in types else \
            [v for v in values if v is not MISSING]
        try:
            return all(map(math.isfinite, numbers))
        except OverflowError:  # an integer beyond the float range
            return False
    return False


class DataTable:
    """Immutable typed columns aligned to a schema manifest.

    Cells are stored as one list per feature, in schema order (``columns``).
    ``DataTable(schema, rows)`` builds from row sequences and validates every
    cell; ``from_columns`` builds from column lists and validates only the
    columns it is told are not already known to be valid, none for the CSV
    reader, which checks each cell as it parses it. A numeric column is
    checked whole, a label or boolean column cell by cell. Column lists may be
    shared between tables and must never be mutated. ``rows`` is derived on
    first use. In a table read from CSV or produced by ``run``, each present
    label cell is one of its spec's ``categories`` objects.
    """

    def __init__(self, schema: SchemaManifest, rows: Iterable[Sequence]):
        rows = [tuple(row) for row in rows]
        width = len(schema.features)
        for r, row in enumerate(rows):
            if len(row) != width:
                DataTable(schema, rows[:r])  # cells above a ragged row are reported first
                raise ValidationError(f"row {r}: expected {width} cells, got {len(row)}")
        columns = [list(c) for c in zip(*rows)] if rows else [[] for _ in range(width)]
        self._set(schema, columns, len(rows))
        self.__post_init__(range(width))

    @classmethod
    def from_columns(cls, schema: SchemaManifest, columns: Sequence[list],
                     num_rows: int, validate: Iterable[int] | None = None) -> DataTable:
        """Table over the given column lists, validating the columns at the
        positions in ``validate`` (every column by default)."""
        table = cls.__new__(cls)
        table._set(schema, columns, num_rows)
        table.__post_init__(range(len(columns)) if validate is None else validate)
        return table

    def _set(self, schema: SchemaManifest, columns: Sequence[list], num_rows: int) -> None:
        self.__dict__.update({"schema": schema, "columns": tuple(columns),
                              "num_rows": num_rows, "_rows": None})

    def __post_init__(self, validate: Iterable[int]) -> None:
        """Validate the columns at the positions in ``validate``.

        Only the numeric columns pass a whole-column check; the others are
        scanned cell by cell, row-major, so the error names the same first
        offending cell as a row-by-row scan would.
        """
        features = self.schema.features
        suspect = []
        for i in validate:
            column, spec = self.columns[i], features[i]
            if len(column) != self.num_rows:
                raise ValidationError(
                    f"feature {spec.name!r}: expected {self.num_rows} cells, got {len(column)}")
            if not _column_passes(column, spec):
                suspect.append(i)
        if not suspect:
            return
        for r in range(self.num_rows):
            for i in suspect:
                try:
                    check_cell(self.columns[i][r], features[i])
                except ValidationError as exc:
                    raise CellError(r, exc) from None

    def __setattr__(self, name, value):
        raise AttributeError(f"DataTable is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, DataTable):
            return NotImplemented
        return (self.schema == other.schema and self.num_rows == other.num_rows
                and self.columns == other.columns)

    def __repr__(self):
        return f"DataTable({len(self.columns)} columns x {self.num_rows} rows)"

    @property
    def rows(self) -> tuple[tuple[object, ...], ...]:
        if self._rows is None:
            rows = tuple(zip(*self.columns)) if self.columns else ((),) * self.num_rows
            object.__setattr__(self, "_rows", rows)
        return self._rows

    def values(self, name: str) -> list:
        """The stored column list for ``name``; read it, never mutate it."""
        return self.columns[self.schema.index(name)]

    def column(self, name: str) -> tuple:
        return tuple(self.values(name))


# ---------------------------------------------------------------------------
# CSV format: header row must match the manifest feature names exactly and in
# order; an empty field is MISSING; booleans are rendered TRUE / FALSE.

def parse_cell(text: str, spec: FeatureSpec):
    if text == "":
        return MISSING
    if spec.dtype == "boolean":
        if text == "TRUE":
            return True
        if text == "FALSE":
            return False
        raise ValidationError(
            f"feature {spec.name!r}: boolean cells must be TRUE or FALSE, got {text!r}")
    if spec.dtype == "numeric":
        try:
            value = float(text)
        except ValueError:
            raise ValidationError(
                f"feature {spec.name!r}: cannot parse number from {text!r}") from None
        if not math.isfinite(value):
            raise ValidationError(f"feature {spec.name!r}: non-finite value {text!r}")
        try:
            return int(text) if _INT_RE.match(text) else value
        except ValueError:  # more digits than int() converts, as leading zeros can give
            raise ValidationError(f"feature {spec.name!r}: integer of {len(text)} "
                                  "characters has too many digits to read") from None
    return text


_BOOLEAN_TEXT = {"": MISSING, "TRUE": True, "FALSE": False}


def _parse_column(texts: Sequence[str], spec: FeatureSpec) -> list:
    """``parse_cell`` over a whole column, every cell of it checked; raises
    if a cell is bad (``_parse_rows`` finds which). A label is its category's
    own object (``FeatureSpec.category_objects``), not the text csv made."""
    if spec.dtype == "numeric":
        joined = "".join(texts)  # a cell is no longer than the column's text
        if len(joined) > _SHORT_NUMBER and max(map(len, texts)) > _SHORT_NUMBER:
            return [parse_cell(t, spec) for t in texts]  # may pass the float range
        # A column of decimal digits and signs where int() takes every cell
        # is all ``[+-]?\d+``, which parse_cell reads as int() too.
        if joined.replace("-", "").replace("+", "").isdecimal():
            try:
                return list(map(int, texts))
            except ValueError:  # an empty cell, or a sign out of place
                pass
        # isdecimal() accepts exactly the unsigned texts _INT_RE reads as ints.
        return [int(t) if t.isdecimal() else parse_cell(t, spec) for t in texts]
    if spec.dtype == "boolean":
        try:
            return [_BOOLEAN_TEXT[t] for t in texts]
        except KeyError:
            return [parse_cell(t, spec) for t in texts]
    labels = spec.category_objects
    try:
        return [labels[t] if t else MISSING for t in texts]  # "" is MISSING
    except KeyError:
        raise ValidationError(
            f"feature {spec.name!r}: a label not in declared categories") from None


def render_cell(cell, display_format: str | None = None) -> str:
    if cell is MISSING:
        return ""
    if isinstance(cell, bool):
        return "TRUE" if cell else "FALSE"
    if isinstance(cell, (int, float)):
        if display_format:
            return format(cell, display_format)
        return repr(cell) if isinstance(cell, float) else str(cell)
    return str(cell)


# The ASCII characters for which csv.writer quotes a field. They are asked of
# csv rather than listed, because they need not be the same on every Python:
# 3.11, for one, leaves "\r" unquoted when the terminator is "\n". No other
# character can be special to the excel dialect.
_QUOTED_CHARS = "".join(c for c in map(chr, range(128)) if csv_line([c]) != c)
_QUOTED_RE = re.compile("[" + re.escape(_QUOTED_CHARS) + "]")
_ONE_EMPTY_FIELD = csv_line([""])  # a row of one empty field is written quoted
_CHUNK_ROWS = 1024  # rows read, rendered and written at a time


def _quote_column(cells: list) -> list:
    """The column's cells as csv.writer writes them (QUOTE_MINIMAL, doubled
    quote characters); the column is scanned once and is returned as it is
    when no cell needs quoting."""
    if not _QUOTED_RE.search("".join(cells)):
        return cells
    return ['"' + c.replace('"', '""') + '"' if _QUOTED_RE.search(c) else c for c in cells]


def _written_column(values: list, spec: FeatureSpec, formats: Mapping[str, str]) -> list:
    """``render_cell`` over a validated column, with the display format that
    ``formats`` gives its feature, as csv.writer writes the cells: the
    quoting rule of ``write_table_csv``, dispatched once on the dtype instead
    of once per cell."""
    if spec.dtype == "boolean":
        return ["" if v is MISSING else "TRUE" if v else "FALSE" for v in values]
    if spec.dtype == "numeric":
        display_format = formats.get(spec.name)
        if display_format:
            try:
                cells = list(map(format, values, repeat(display_format)))
            except TypeError:  # a MISSING cell, which takes no format spec
                cells = ["" if v is MISSING else format(v, display_format) for v in values]
            return _quote_column(cells)
        return ["" if v is MISSING else repr(v) if isinstance(v, float) else str(v)
                for v in values]
    labels = spec.csv_labels
    return ["" if v is MISSING else labels[v] for v in values]


def read_table_csv(source: str | Path | IO[str], schema: SchemaManifest) -> DataTable:
    """The table in a CSV file or handle, from the tables ``read_table_chunks``
    yields as they arrive, so a read holds the text of one chunk. An input of
    one chunk is that chunk's table. Otherwise each later chunk's columns
    extend the first chunk's lists, and one table is built over them."""
    first = None
    num_rows = 0
    for _, chunk in read_table_chunks(source, schema):
        if first is None:
            first = chunk
        else:  # the first chunk's lists grow, so its table is not returned
            for column, values in zip(first.columns, chunk.columns):
                column.extend(values)
        num_rows += chunk.num_rows
        del chunk  # its column lists, before the next chunk is parsed
    if first is None:  # a header and no rows
        return DataTable.from_columns(schema, [[] for _ in schema.names], 0, validate=())
    if num_rows == first.num_rows:
        return first
    return DataTable.from_columns(schema, first.columns, num_rows, validate=())


def read_table_chunks(source: str | Path | IO[str],
                      schema: SchemaManifest) -> Iterator[tuple[int, DataTable]]:
    """The rows of a CSV file or handle as ``(first_row, table)`` pairs of at
    most ``_CHUNK_ROWS`` rows, each table valid on its own: every cell is
    checked as it is parsed. With one column or more, an empty last line (a
    blank line before the end of the file) is not a row; with none, every row
    is an empty line.

    A chunk is read only once the one before it is taken. An error names the
    first bad cell or ragged row in file order; one of the file itself (a
    byte that is not UTF-8, a field over ``csv.field_size_limit()``) is
    raised when its chunk is read. Closing the generator closes a file it
    opened.
    """
    width = len(schema.names)
    first_row = 0
    with open_input(source, "data file") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError("data file is empty (missing header row)") from None
        if tuple(header) != schema.names:
            missing = [n for n in schema.names if n not in header]
            if missing:
                raise ValidationError(f"data header is missing manifest columns: {missing}")
            raise ValidationError(
                f"data header must match manifest feature names exactly and in order; "
                f"got {header}, expected {list(schema.names)}")
        while chunk := list(islice(reader, _CHUNK_ROWS)):
            ragged = None if set(map(len, chunk)) == {width} else \
                next(r for r, fields in enumerate(chunk) if len(fields) != width)
            body = chunk if ragged is None else chunk[:ragged]
            columns = _parse_rows(body, schema, first_row)
            if ragged is not None and not (  # an empty last line is not a row
                    ragged == len(chunk) - 1 and not chunk[ragged] and next(reader, None) is None):
                raise ValidationError(f"row {first_row + ragged}: "
                                      f"expected {width} fields, got {len(chunk[ragged])}")
            if body:
                yield first_row, DataTable.from_columns(schema, columns, len(body), validate=())
            first_row += len(body)
            del chunk, body, columns  # before the next chunk is read


def _parse_rows(body: list, schema: SchemaManifest, first_row: int) -> list[list]:
    """The checked columns of rows of one field per feature, numbered from
    ``first_row``; an error names the row-major first bad cell."""
    try:
        return [_parse_column(t, spec) for t, spec in zip(zip(*body), schema.features)]
    except ValidationError:
        for r, fields in enumerate(body, first_row):  # find the row-major first bad cell
            try:
                for text, spec in zip(fields, schema.features):
                    check_cell(parse_cell(text, spec), spec)
            except ValidationError as exc:
                raise ValidationError(f"row {r}: {exc}") from None
        raise


def write_table_csv(table: DataTable, target: str | Path | IO[str],
                    display_formats: Mapping[str, str] | None = None) -> None:
    """Write CSV with stable byte-for-byte output, the bytes ``csv.writer``
    writes (minimal quoting, ``\\n`` line ends). A path is replaced only once
    every row is written (``schema.open_outputs``).

    ``display_formats`` maps feature names to Python format specs (e.g. ".3g")
    for golden-matched numeric columns; everything else uses shortest
    round-trip rendering.

    Quoting is decided per column from its dtype. A numeric column without a
    display format and a boolean column are never quoted: ``repr``/``str`` of
    a finite number, ``TRUE``/``FALSE`` and the empty field hold no character
    csv quotes. A label column writes each cell as its category's fixed CSV
    text (``FeatureSpec.csv_labels``), and MISSING as the empty field. Only a
    formatted numeric column is scanned for characters to quote, since a
    format spec's fill character can be any.

    Rows are rendered and written ``_CHUNK_ROWS`` at a time, the header with
    the first: a display format that fails on a later chunk leaves the
    earlier chunks written to a handle.
    """
    formats = display_formats or {}
    lines = [table.schema.csv_header]
    with open_outputs(target) as (handle,):
        for start in range(0, max(table.num_rows, 1), _CHUNK_ROWS):  # one at least, for the header
            stop = start + _CHUNK_ROWS
            rendered = []
            for values, spec in zip(table.columns, table.schema.features):
                try:
                    rendered.append(_written_column(values[start:stop], spec, formats))
                except ValueError as exc:  # a format spec that does not fit the cells
                    raise ValidationError(f"column {spec.name!r}: display format "
                                          f"{formats[spec.name]!r}: {exc}") from None
            if not rendered:  # each row is an empty line
                lines += [""] * (min(stop, table.num_rows) - start)
            elif len(rendered) == 1:
                lines += [cell or _ONE_EMPTY_FIELD for cell in rendered[0]]
            else:
                lines += map(",".join, zip(*rendered))
            lines.append("")
            handle.write("\n".join(lines))
            lines = []
