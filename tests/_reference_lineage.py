"""Reference lineage expansion: one entry per produced cell, looked up cell by
cell from the column records. ``lineage_to_data`` renders each record's
entry once and copies it row by row; tests require it to give these entries,
in this order, and the same JSON text."""

from __future__ import annotations

from featurespace.lineage import Imputed, Lineage
from featurespace.schema import DerivedFrom


def _cells(lineage: Lineage):
    """(row, feature, origin) of every entry: step order, then row order,
    then the step's column order."""
    for num_rows, columns in lineage._steps:
        for r in range(num_rows):
            for column in columns:
                origin = column.exceptions.get(r, column.origin)
                if origin is not None:
                    yield r, column.feature, origin


def _entry(row, feature, origin) -> dict:
    if isinstance(origin, DerivedFrom):
        return {"row": row, "feature": feature, "origin": "computed",
                "formula": origin.formula, "inputs": tuple(origin.inputs)}
    if isinstance(origin, Imputed):
        return {"row": row, "feature": feature, "origin": "imputed",
                "strategy": origin.strategy}
    return {"row": row, "feature": feature, "origin": "raw_linked",
            "series_id": origin.series_id, "window": tuple(origin.window)}


def reference_entries(lineage: Lineage) -> list[dict]:
    return [_entry(*cell) for cell in _cells(lineage)]
