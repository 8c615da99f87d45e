"""Lineage: where each produced column's cells came from.

A run records lineage once per produced column, as a ``ColumnLineage``:
one origin for every row, plus the rows that carry their own.
``lineage_to_data`` expands a run's ``Lineage`` into one JSON-ready entry per
produced cell, the form ``transform --lineage`` writes. It renders each
column record's entry once and copies it for every row the record covers;
the entries of one record share its origin's ``inputs`` or ``window`` tuple.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Union


@dataclass(frozen=True)
class Imputed:
    strategy: str


@dataclass(frozen=True)
class Computed:
    formula: str
    inputs: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))


@dataclass(frozen=True)
class RawLinked:
    """A cell linked to the slice ``[start, stop)`` of a raw series;
    ``window`` is that pair as a tuple."""

    series_id: str
    start: int
    stop: int
    window: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "window", (self.start, self.stop))


Origin = Union[Imputed, Computed, RawLinked]

_NO_EXCEPTIONS: Mapping[int, Origin] = MappingProxyType({})


@dataclass(frozen=True)
class ColumnLineage:
    """Where one produced column's cells came from, recorded once per column.

    Every row has ``origin``, except the rows in ``exceptions``, which carry
    their own. With ``origin`` None only the exception rows have a record.
    A record without exceptions, as a fitted step prepares it for all of its
    runs, has a read-only empty ``exceptions``.
    """

    feature: str
    origin: Origin | None
    exceptions: Mapping[int, Origin] = field(default_factory=lambda: _NO_EXCEPTIONS)


class Lineage:
    """The column lineage of a run: for each step, the number of rows it ran
    on and its ``ColumnLineage`` list. Its length is the number of entries
    ``lineage_to_data`` gives, counted from the column records."""

    def __init__(self, steps: Iterable[tuple[int, Sequence[ColumnLineage]]] = ()):
        self._steps = tuple((num_rows, tuple(columns)) for num_rows, columns in steps)

    def __len__(self) -> int:
        return sum(len(column.exceptions) if column.origin is None else num_rows
                   for num_rows, columns in self._steps for column in columns)

    def __repr__(self):
        return f"Lineage({len(self)} records)"


def _fields(feature: str, origin: Origin) -> dict:
    """The entry of a cell of ``feature`` with ``origin``, at row 0. ``row``
    is its first key, so ``dict(entry, row=r)`` is row ``r``'s entry with the
    keys in the same order."""
    if isinstance(origin, Computed):
        return {"row": 0, "feature": feature, "origin": "computed",
                "formula": origin.formula, "inputs": origin.inputs}
    if isinstance(origin, Imputed):
        return {"row": 0, "feature": feature, "origin": "imputed",
                "strategy": origin.strategy}
    return {"row": 0, "feature": feature, "origin": "raw_linked",
            "series_id": origin.series_id, "window": origin.window}


def lineage_to_data(lineage: Lineage) -> list[dict]:
    """One JSON-ready dict per produced cell of a run: step order, then row
    order, then the step's column order. ``inputs`` and ``window`` are the
    origin's tuples, which ``json.dumps`` writes as arrays.

    Each column record's entry is rendered once. Between the rows where some
    column of the step has an exception, every row's entries are copies of
    those entries with the row set; only the exception rows are looked up
    cell by cell.
    """
    entries: list[dict] = []
    for num_rows, columns in lineage._steps:
        fields = [None if column.origin is None else _fields(column.feature, column.origin)
                  for column in columns]
        common = [entry for entry in fields if entry is not None]
        start = 0
        for r in sorted({r for column in columns for r in column.exceptions}):
            entries += [dict(entry, row=i) for i in range(start, r) for entry in common]
            for column, entry in zip(columns, fields):
                origin = column.exceptions.get(r)
                if origin is not None:
                    entries.append(dict(_fields(column.feature, origin), row=r))
                elif entry is not None:
                    entries.append(dict(entry, row=r))
            start = r + 1
        entries += [dict(entry, row=i) for i in range(start, num_rows) for entry in common]
    return entries
