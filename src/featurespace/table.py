"""Typed tabular data aligned to a schema manifest, with CSV serialization.

MISSING is an explicit cell state, never a sentinel number or empty label, so
imputation transforms can detect it unambiguously.
"""

from __future__ import annotations

import csv
import math
import re
from contextlib import nullcontext
from itertools import islice, repeat
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

from .errors import ValidationError
from .schema import FeatureSpec, SchemaManifest, csv_line, open_input


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

Cell = "int | float | str | bool | _MissingType"

_INT_RE = re.compile(r"[+-]?\d+$")
_INT_COLUMN_RE = re.compile(r"[0-9+-]*")
_NUMERIC_TYPES = frozenset({int, float, _MissingType})
_BOOLEAN_TYPES = frozenset({bool, _MissingType})
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
        if cell not in (spec.categories or ()):
            raise ValidationError(
                f"feature {spec.name!r}: label {cell!r} not in declared categories")


def _column_passes(values: list, spec: FeatureSpec) -> bool:
    """Whole-column fast check: True guarantees ``check_cell`` accepts every
    cell. False only means some cell needs ``check_cell`` to decide."""
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
    if spec.dtype == "boolean":
        return set(map(type, values)) <= _BOOLEAN_TYPES
    try:
        labels = set(values)
    except TypeError:  # an unhashable cell
        return False
    labels.discard(MISSING)
    return labels <= spec.category_set


class DataTable:
    """Immutable typed columns aligned to a schema manifest.

    Cells are stored as one list per feature, in schema order (``columns``).
    ``DataTable(schema, rows)`` builds from row sequences and validates every
    cell; ``from_columns`` builds from column lists and validates only the
    columns it is told are not already known to be valid. Column lists may be
    shared between tables and must never be mutated. ``rows`` is derived on
    first use.
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
                     num_rows: int, unchecked: Iterable[int] | None = None) -> DataTable:
        """Table over the given column lists, validating the columns at the
        positions in ``unchecked`` (every column by default)."""
        table = cls.__new__(cls)
        table._set(schema, columns, num_rows)
        table.__post_init__(range(len(columns)) if unchecked is None else unchecked)
        return table

    def _set(self, schema: SchemaManifest, columns: Sequence[list], num_rows: int) -> None:
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "columns", tuple(columns))
        object.__setattr__(self, "num_rows", num_rows)
        object.__setattr__(self, "_rows", None)

    def __post_init__(self, unchecked: Iterable[int]) -> None:
        """Validate the columns at the positions in ``unchecked``.

        Each column gets a whole-column check; only columns that fail it are
        rescanned cell by cell, row-major, so the error names the same first
        offending cell as a row-by-row scan would.
        """
        features = self.schema.features
        suspect = []
        for i in unchecked:
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
                    raise ValidationError(f"row {r}: {exc}") from None

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
        return int(text) if _INT_RE.match(text) else value
    return text


_BOOLEAN_TEXT = {"": MISSING, "TRUE": True, "FALSE": False}


def _parse_column(texts: Sequence[str], spec: FeatureSpec) -> list:
    """``parse_cell`` over a whole column; raises on the first bad cell.
    Numeric and boolean columns come out valid: only labels need checking."""
    if spec.dtype == "numeric":
        if max(map(len, texts), default=0) > _SHORT_NUMBER:  # may pass the float range
            return [parse_cell(t, spec) for t in texts]
        # A column of ASCII digits and signs where int() takes every cell is
        # all ``[+-]?[0-9]+``, which parse_cell reads as int() too.
        if _INT_COLUMN_RE.fullmatch("".join(texts)):
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
    return [t if t != "" else MISSING for t in texts]


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
_CHUNK_ROWS = 4096


def _quote_column(cells: list) -> list:
    """The column's cells as csv.writer writes them (QUOTE_MINIMAL, doubled
    quote characters); the column is scanned once and is returned as it is
    when no cell needs quoting."""
    if not _QUOTED_RE.search("".join(cells)):
        return cells
    return ['"' + c.replace('"', '""') + '"' if _QUOTED_RE.search(c) else c for c in cells]


def _written_column(values: list, spec: FeatureSpec, display_format: str | None) -> list:
    """``render_cell`` over a validated column, as csv.writer writes the
    cells: the quoting rule of ``write_table_csv``, dispatched once on the
    dtype instead of once per cell."""
    if spec.dtype == "boolean":
        return ["" if v is MISSING else "TRUE" if v else "FALSE" for v in values]
    if spec.dtype == "numeric":
        if display_format:
            return _quote_column(["" if v is MISSING else format(v, display_format)
                                  for v in values])
        return ["" if v is MISSING else repr(v) if isinstance(v, float) else str(v)
                for v in values]
    labels = spec.csv_labels
    return ["" if v is MISSING else labels[v] for v in values]


def read_table_csv(source: str | Path | IO[str], schema: SchemaManifest) -> DataTable:
    """The table in a CSV file or handle. With one column or more, an empty
    last line (a blank line before the end of the file) is not a row; with
    none, every row is an empty line."""
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
        raw = list(reader)
    width = len(schema.names)
    if width and raw and not raw[-1]:
        del raw[-1]
    ragged = next((r for r, fields in enumerate(raw) if len(fields) != width), None)
    body = raw if ragged is None else raw[:ragged]
    texts = list(zip(*body)) if body else [()] * width
    try:
        columns = [_parse_column(t, spec) for t, spec in zip(texts, schema.features)]
    except ValidationError:
        for r, fields in enumerate(body):  # find the row-major first parse error
            try:
                for text, spec in zip(fields, schema.features):
                    parse_cell(text, spec)
            except ValidationError as exc:
                raise ValidationError(f"row {r}: {exc}") from None
        raise
    if ragged is not None:
        raise ValidationError(
            f"row {ragged}: expected {width} fields, got {len(raw[ragged])}")
    return DataTable.from_columns(schema, columns, len(body), schema.label_positions)


def write_table_csv(table: DataTable, target: str | Path | IO[str],
                    display_formats: Mapping[str, str] | None = None) -> None:
    """Write CSV with stable byte-for-byte output, the bytes ``csv.writer``
    writes (minimal quoting, ``\\n`` line ends).

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
    """
    formats = display_formats or {}
    rendered = []
    for values, spec in zip(table.columns, table.schema.features):
        try:
            rendered.append(_written_column(values, spec, formats.get(spec.name)))
        except ValueError as exc:  # a format spec that does not fit the cells
            raise ValidationError(f"column {spec.name!r}: display format "
                                  f"{formats[spec.name]!r}: {exc}") from None
    if not rendered:  # each row is an empty line
        lines = repeat("", table.num_rows)
    elif len(rendered) == 1:
        lines = (cell or _ONE_EMPTY_FIELD for cell in rendered[0])
    else:
        lines = map(",".join, zip(*rendered))
    # Every cell is rendered before a path is opened, so a failed render leaves no file.
    with (open(target, "w", newline="", encoding="utf-8") if isinstance(target, (str, Path))
          else nullcontext(target)) as handle:
        handle.write(table.schema.csv_header + "\n")
        while chunk := list(islice(lines, _CHUNK_ROWS)):
            chunk.append("")
            handle.write("\n".join(chunk))
