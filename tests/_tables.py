"""Table comparison shared by the round-trip and inversion tests."""

from __future__ import annotations

from featurespace.table import MISSING, DataTable


def tables_equal(a: DataTable, b: DataTable, numeric_tol: float = 0.0) -> bool:
    """Cell-level equality; numeric cells compare within ``numeric_tol``."""
    if a.schema.names != b.schema.names or a.num_rows != b.num_rows:
        return False
    for column_a, column_b in zip(a.columns, b.columns):
        for x, y in zip(column_a, column_b):
            if x is MISSING or y is MISSING:
                if x is not y:
                    return False
            elif isinstance(x, bool) or isinstance(y, bool):
                if x is not y:
                    return False
            elif isinstance(x, (int, float)) and isinstance(y, (int, float)):
                if abs(x - y) > numeric_tol:
                    return False
            elif x != y:
                return False
    return True
