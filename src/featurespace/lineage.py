"""Lineage: where each produced column's cells came from.

A run records lineage once per produced column, as a ``ColumnLineage``:
one origin for every row, plus the rows that carry their own. An origin is
the schema's own record, a ``DerivedFrom`` or a ``RawSource``, or ``Imputed``.
A fitted step records each feature it builds once (``FittedStep.lineage``);
a kernel's ``apply`` records only the features it rewrites in place.
``lineage_to_data`` expands a run's ``Lineage`` into one JSON-ready entry per
produced cell, the form ``transform --lineage`` writes (``write_lineage_json``).
It renders each column record's entry once and copies it for every row the
record covers; the entries of one record share its origin's ``inputs`` or
``window`` tuple.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import IO, Union

from .schema import DerivedFrom, RawSource


@dataclass(frozen=True)
class Imputed:
    strategy: str


Origin = Union[DerivedFrom, Imputed, RawSource]

_NO_EXCEPTIONS: Mapping[int, Origin] = MappingProxyType({})


@dataclass(frozen=True)
class ColumnLineage:
    """Where one produced column's cells came from, recorded once per column.

    Every row has ``origin`` (the produced spec's own ``derived_from``, a
    ``RawSource`` or an ``Imputed``), except the rows in ``exceptions``,
    which carry their own. With ``origin`` None only the exception rows
    have a record. A record without exceptions, as a fitted step makes it
    for all of its runs, has a read-only empty ``exceptions``.
    """

    feature: str
    origin: Origin | None
    exceptions: Mapping[int, Origin] = field(default_factory=lambda: _NO_EXCEPTIONS)


class Lineage:
    """The column lineage of a run: for each step, the number of rows it ran
    on and its ``ColumnLineage`` list. Its length is the number of entries
    ``lineage_to_data`` gives, counted from the column records."""

    def __init__(self, steps: Iterable[tuple[int, Sequence[ColumnLineage]]] = ()):
        self._steps = tuple([(num_rows, tuple(columns)) for num_rows, columns in steps])

    def __len__(self) -> int:
        return sum(len(column.exceptions) if column.origin is None else num_rows
                   for num_rows, columns in self._steps for column in columns)

    def __repr__(self):
        return f"Lineage({len(self)} records)"


def _fields(feature: str, origin: Origin) -> dict:
    """The entry of a cell of ``feature`` with ``origin``, at row 0. ``row``
    is its first key, so ``dict(entry, row=r)`` is row ``r``'s entry with the
    keys in the same order."""
    if isinstance(origin, DerivedFrom):
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


def write_lineage_json(lineage: Lineage, handle: IO[str]) -> None:
    """Write ``lineage_to_data(lineage)`` to ``handle`` as JSON indented by
    two spaces, then a line end: the file ``transform --lineage`` writes.
    ``json.dump`` streams it, so no string of the whole file is built."""
    json.dump(lineage_to_data(lineage), handle, indent=2)
    handle.write("\n")
