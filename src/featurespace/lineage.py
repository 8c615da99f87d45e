"""Lineage records: where each produced cell value came from."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import islice
from typing import Union


@dataclass(frozen=True)
class Observed:
    """Value taken directly from collected data."""


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


Origin = Union[Observed, Imputed, Computed, RawLinked]

_ORIGIN_KINDS = {Observed: "observed", Imputed: "imputed",
                 Computed: "computed", RawLinked: "raw_linked"}


def origin_kind(origin: Origin) -> str:
    return _ORIGIN_KINDS[type(origin)]


@dataclass(frozen=True)
class LineageRecord:
    row_index: int
    feature: str
    origin: Origin


@dataclass(frozen=True)
class ColumnLineage:
    """Where one produced column's cells came from, recorded once per column.

    Every row has ``origin``, except the rows in ``exceptions``, which carry
    their own. With ``origin`` None only the exception rows have a record.
    """

    feature: str
    origin: Origin | None
    exceptions: Mapping[int, Origin] = field(default_factory=dict)


class Lineage(Sequence):
    """Read-only sequence of the per-cell ``LineageRecord``s of a run.

    It is backed by column records: for each step, the number of rows it ran
    on and its ``ColumnLineage`` list. Records come in step order, then row
    order, then the step's column order. Length is computed from the column
    records; iteration and indexing build records on demand.
    """

    def __init__(self, steps: Iterable[tuple[int, Sequence[ColumnLineage]]] = ()):
        self._steps = tuple((num_rows, tuple(columns)) for num_rows, columns in steps)

    def _cells(self) -> Iterator[tuple[int, str, Origin]]:
        """(row, feature, origin) of every record, without building records."""
        for num_rows, columns in self._steps:
            for r in range(num_rows):
                for column in columns:
                    origin = column.exceptions.get(r, column.origin)
                    if origin is not None:
                        yield r, column.feature, origin

    def __iter__(self) -> Iterator[LineageRecord]:
        return (LineageRecord(*cell) for cell in self._cells())

    def __len__(self) -> int:
        return sum(len(column.exceptions) if column.origin is None else num_rows
                   for num_rows, columns in self._steps for column in columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        size = len(self)
        position = index + size if index < 0 else index
        if not 0 <= position < size:
            raise IndexError("lineage index out of range")
        return next(islice(self, position, None))

    def __eq__(self, other):
        if not isinstance(other, (Lineage, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"Lineage({len(self)} records)"


def _entry(row: int, feature: str, origin: Origin) -> dict:
    entry: dict = {"row": row, "feature": feature, "origin": origin_kind(origin)}
    if isinstance(origin, Imputed):
        entry["strategy"] = origin.strategy
    elif isinstance(origin, Computed):
        entry["formula"] = origin.formula
        entry["inputs"] = list(origin.inputs)
    elif isinstance(origin, RawLinked):
        entry["series_id"] = origin.series_id
        entry["window"] = [origin.start, origin.stop]
    return entry


def lineage_to_data(records: Iterable[LineageRecord]) -> list[dict]:
    """One JSON-ready dict per record; a ``Lineage`` expands straight from
    its column records."""
    if isinstance(records, Lineage):
        return [_entry(*cell) for cell in records._cells()]
    return [_entry(rec.row_index, rec.feature, rec.origin) for rec in records]
