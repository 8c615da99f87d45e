"""Lineage: where each produced column's cells came from.

A run records lineage once per produced column, as a ``ColumnLineage``:
one origin for every row, plus the rows that carry their own.
``lineage_to_data`` expands a run's ``Lineage`` into one JSON-ready entry per
produced cell, the form ``transform --lineage`` writes.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
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
    series_id: str
    start: int
    stop: int


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

    def _cells(self) -> Iterator[tuple[int, str, Origin]]:
        """(row, feature, origin) of every entry: step order, then row order,
        then the step's column order."""
        for num_rows, columns in self._steps:
            for r in range(num_rows):
                for column in columns:
                    origin = column.exceptions.get(r, column.origin)
                    if origin is not None:
                        yield r, column.feature, origin

    def __len__(self) -> int:
        return sum(len(column.exceptions) if column.origin is None else num_rows
                   for num_rows, columns in self._steps for column in columns)

    def __repr__(self):
        return f"Lineage({len(self)} records)"


def _entry(row: int, feature: str, origin: Origin) -> dict:
    if isinstance(origin, Computed):
        return {"row": row, "feature": feature, "origin": "computed",
                "formula": origin.formula, "inputs": list(origin.inputs)}
    if isinstance(origin, Imputed):
        return {"row": row, "feature": feature, "origin": "imputed",
                "strategy": origin.strategy}
    return {"row": row, "feature": feature, "origin": "raw_linked",
            "series_id": origin.series_id, "window": [origin.start, origin.stop]}


def lineage_to_data(lineage: Lineage) -> list[dict]:
    """One JSON-ready dict per produced cell of a run."""
    return [_entry(*cell) for cell in lineage._cells()]
