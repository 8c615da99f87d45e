"""Output checks. Each returns a list of failure messages; empty means correct.

A failed check marks its operation as failed, which feeds the run's
``failed`` count. The checks read the outputs the library wrote (CSV text,
lineage entries, mapped vectors), not its internal state, so they keep
holding when the internals are rewritten.
"""

from __future__ import annotations

import csv
import math

CONSERVATION_TOLERANCE = 1e-9


def golden_failures(output_text: str, golden_header: list[str],
                    golden_rows: list[list[str]], positions: tuple[int, ...],
                    label: str) -> list[str]:
    """The output rows at ``positions`` must equal the golden rows on every
    golden column. ``positions[i]`` holds golden row ``i``."""
    lines = output_text.split("\n")
    header = next(csv.reader([lines[0]]))
    column_of = {name: i for i, name in enumerate(header)}
    lost = [name for name in golden_header if name not in column_of]
    if lost:
        return [f"{label}: output lost golden columns {lost}"]
    failures = []
    for i, pos in enumerate(positions):
        if pos + 1 >= len(lines):
            failures.append(f"{label}: golden row {i + 1} (data row {pos}) is missing")
            continue
        produced = next(csv.reader([lines[pos + 1]]))
        wrong = [name for c, name in enumerate(golden_header)
                 if column_of[name] >= len(produced)
                 or produced[column_of[name]] != golden_rows[i][c]]
        if wrong:
            failures.append(
                f"{label}: golden row {i + 1} (data row {pos}) differs on {wrong}")
    return failures


def row_count_failures(rows_in: int, rows_in_table: int, output_text: str,
                       label: str) -> list[str]:
    """Rows out must equal rows in, both in the result table and in the CSV."""
    failures = []
    if rows_in_table != rows_in:
        failures.append(f"{label}: result table has {rows_in_table} rows for {rows_in} in")
    written = output_text.count("\n") - 1
    if written != rows_in:
        failures.append(f"{label}: wrote {written} data rows for {rows_in} in")
    return failures


def new_features_per_row(fitted) -> int:
    """Cells each row gains across the pipeline: one per feature a step adds."""
    return sum(len(set(fstep.output_schema.names) - set(fstep.input_schema.names))
               for fstep in fitted.steps)


def lineage_count_failures(entries: list, rows: int, per_row: int, imputed: int,
                           label: str) -> list[str]:
    """One lineage entry per produced cell: every added feature of every row,
    plus every imputed cell."""
    expected = rows * per_row + imputed
    imputed_seen = sum(1 for e in entries if e.get("origin") == "imputed")
    failures = []
    if len(entries) != expected:
        failures.append(f"{label}: {len(entries)} lineage entries for {expected} "
                        f"produced cells ({rows} rows x {per_row} + {imputed} imputed)")
    if imputed_seen != imputed:
        failures.append(f"{label}: {imputed_seen} imputed lineage entries for "
                        f"{imputed} missing cells")
    return failures


def mapped_file_failures(n_in: int, output_text: str, label: str) -> list[str]:
    """The written contribution file has one row per vector read."""
    written = output_text.count("\n") - 1
    if written != n_in:
        return [f"{label}: wrote {written} mapped vectors for {n_in} read"]
    return []


def conservation_failures(before, after, exposed, check, label: str, r: int) -> list[str]:
    """The mapped vector keeps the source total (recomputed here, independently
    of the library), and the library's own conservation check passed."""
    failures = []
    if not check.passed:
        failures.append(f"{label}: vector {r}: conservation_check failed, "
                        f"delta {check.delta!r}")
    total = math.fsum(before)
    delta = abs(total - math.fsum([*after, *exposed.values()]))
    if delta > CONSERVATION_TOLERANCE * max(1.0, abs(total)):
        failures.append(f"{label}: vector {r}: mapped total differs by {delta!r}")
    return failures
