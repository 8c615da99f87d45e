"""Properties of the columnar table core and the column-backed lineage."""

from __future__ import annotations

import io
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from featurespace.errors import ValidationError
from featurespace.lineage import lineage_to_data
from featurespace.pipeline import _apply_step, as_fitted, compose, fit, run
from featurespace.table import (
    MISSING,
    DataTable,
    _column_passes,
    check_cell,
    parse_cell,
    read_table_csv,
    write_table_csv,
)
from featurespace.transforms import KERNELS, TransformStep

from _generators import random_exact_pipeline, random_schema, random_table
from _tables import tables_equal

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

# A cell value each dtype rejects, and CSV text each dtype rejects. Numeric and
# boolean texts fail while parsing; a categorical text fails validation.
BAD_CELL = {"numeric": "not a number", "boolean": 1, "categorical": "no-such-label"}
BAD_TEXT = {"numeric": "abc", "boolean": "yes", "categorical": "no-such-label"}


def _csv_text(table: DataTable) -> str:
    out = io.StringIO()
    write_table_csv(table, out)
    return out.getvalue()


def _error(fn) -> str:
    try:
        fn()
    except ValidationError as exc:
        return str(exc)
    raise AssertionError("expected a ValidationError")


@PROPERTY_SETTINGS
@given(SEEDS)
def test_rows_and_csv_round_trip(seed):
    rng = random.Random(seed)
    table = random_table(rng, missing_rate=0.2)
    again = DataTable(table.schema, table.rows)
    assert again == table
    assert tables_equal(again, table)
    assert again.num_rows == len(table.rows)
    for i, name in enumerate(table.schema.names):
        assert table.column(name) == tuple(row[i] for row in table.rows)
    parsed = read_table_csv(io.StringIO(_csv_text(table)), table.schema)
    assert parsed == table


@PROPERTY_SETTINGS
@given(SEEDS)
def test_lineage_length_matches_its_expansions(seed):
    rng = random.Random(seed)
    schema = random_schema(rng)
    table = random_table(rng, schema, missing_rate=0.3)
    steps = list(random_exact_pipeline(rng, schema).steps)
    numerics = [f.name for f in schema.features if f.dtype == "numeric"]
    if numerics:  # imputation gives rows whose lineage differs from the column's
        steps.insert(0, TransformStep("impute_flagged", {
            "feature": rng.choice(numerics), "strategy": "constant", "constant": 0}))
    result = run(fit(compose(steps, schema, "to_interpretable"), table), table)
    entries = lineage_to_data(result.lineage)
    assert len(result.lineage) == len(entries)
    assert all(0 <= e["row"] < table.num_rows for e in entries)


@PROPERTY_SETTINGS
@given(SEEDS)
def test_steps_carry_what_they_do_not_produce_unchanged(seed):
    """Why a step validates only its produced columns: every other output
    spec is the input spec of the same name. Of the produced columns, it
    validates those its kernel does not declare valid by construction, and
    every numeric one."""
    rng = random.Random(seed)
    schema = random_schema(rng)
    pipeline = random_exact_pipeline(rng, schema)
    steps = list(pipeline.steps)
    numerics = [f.name for f in pipeline.output_schema.features if f.dtype == "numeric"]
    if numerics:  # lossy kinds too: one keeps its input and one replaces it
        feature = rng.choice(numerics)
        steps += [
            TransformStep("impute_flagged", {"feature": feature, "strategy": "constant",
                                             "constant": 0}),
            TransformStep("semantic_bin", {"feature": feature, "boundaries": [0.0],
                                           "labels": ["low", "high"], "target": "binned",
                                           "keep_original": rng.random() < 0.5}),
        ]
    for fstep in as_fitted(compose(steps, schema, "to_interpretable")).steps:
        names = fstep.output_schema.names
        for spec in fstep.output_schema.features:
            if spec.name not in fstep.produced:
                assert spec == fstep.input_schema.feature(spec.name)
        valid = set(KERNELS[fstep.step.kind].valid_by_construction(fstep.config))
        checked = {names[i] for i in fstep.unchecked}
        assert list(fstep.unchecked) == sorted(fstep.unchecked)
        assert checked | valid == set(fstep.produced) and not checked & valid
        assert all(fstep.output_schema.feature(name).dtype != "numeric" for name in valid)


def _constructed_steps(rng: random.Random, numerics: list[str],
                       feature: str) -> list[TransformStep]:
    """Steps over numeric features of each kind that declares columns valid
    by construction, beside the one-hot steps of ``random_exact_pipeline``:
    imputation flags, both binnings (``feature`` has a range to fit) and a
    labeled concept of each built-in formula."""
    return [
        TransformStep("impute_flagged", {"feature": feature, "strategy": "constant",
                                         "constant": 0, "flag_name": "imputed"}),
        TransformStep("statistical_bin", {"feature": feature, "bins": rng.randint(1, 4),
                                          "target": "stat", "keep_original": True}),
        TransformStep("semantic_bin", {"feature": rng.choice(numerics),
                                       "boundaries": sorted(rng.sample(range(-500, 500), 2)),
                                       "labels": ["low", "mid", "high"], "target": "sem",
                                       "keep_original": True}),
        TransformStep("abstract_concept", {
            "inputs": rng.sample(numerics, rng.randint(1, len(numerics))),
            "formula": rng.choice(["sum", "mean", "euclidean_floor"]),
            "labeling": {"boundaries": [0.0, 300.0], "labels": ["L", "M", "H"]},
            "target": "concept", "keep_inputs": True}),
    ]


@PROPERTY_SETTINGS
@given(SEEDS)
def test_columns_valid_by_construction_pass_validation(seed):
    """Every produced column a step leaves out of validation passes the
    whole-column check, over random fitted pipelines and random input
    tables with MISSING cells."""
    rng = random.Random(seed)
    schema = random_schema(rng, 4, ["numeric", "numeric", "categorical",
                                    rng.choice(["numeric", "categorical", "boolean"])])
    table = random_table(rng, schema, missing_rate=0.3)
    # Exact steps keep the numeric features' names and their MISSING cells.
    numerics = [f.name for f in schema.features if f.dtype == "numeric"]
    ranged = [n for n in numerics if len(set(table.values(n)) - {MISSING}) >= 2]
    if not ranged:
        return  # no feature has a bin range to fit
    steps = list(random_exact_pipeline(rng, schema).steps)
    steps += _constructed_steps(rng, numerics, rng.choice(ranged))
    fitted = fit(compose(steps, schema, "to_interpretable"), table)
    current, skipped = table, 0
    for number, fstep in enumerate(fitted.steps, 1):
        kernel = KERNELS[fstep.step.kind]
        columns, _ = kernel.apply(current, fstep.prepared)
        valid = kernel.valid_by_construction(fstep.config)
        for name, column in zip(fstep.produced, columns):
            if name in valid:
                assert len(column) == current.num_rows
                assert _column_passes(column, fstep.output_schema.feature(name))
                skipped += 1
        current, _ = _apply_step(kernel, fstep, number, current)
    assert skipped >= 4


def _two_positions(rng: random.Random, table: DataTable):
    cells = [(r, c) for r in range(table.num_rows) for c in range(len(table.schema.features))]
    return rng.sample(cells, 2)


@PROPERTY_SETTINGS
@given(SEEDS)
def test_first_bad_cell_is_reported_row_major(seed):
    rng = random.Random(seed)
    table = random_table(rng, n_rows=rng.randint(2, 12))
    features = table.schema.features
    positions = sorted(_two_positions(rng, table))
    rows = [list(row) for row in table.rows]
    for r, c in positions:
        rows[r][c] = BAD_CELL[features[c].dtype]
    r, c = positions[0]
    expected = f"row {r}: " + _error(lambda: check_cell(rows[r][c], features[c]))
    assert _error(lambda: DataTable(table.schema, rows)) == expected


@PROPERTY_SETTINGS
@given(SEEDS)
def test_csv_reports_the_first_bad_cell_with_parse_errors_first(seed):
    rng = random.Random(seed)
    table = random_table(rng, n_rows=rng.randint(2, 12))
    features = table.schema.features
    lines = _csv_text(table).splitlines()
    grid = [line.split(",") for line in lines[1:]]  # generated labels hold no commas
    positions = sorted(_two_positions(rng, table))
    for r, c in positions:
        grid[r][c] = BAD_TEXT[features[c].dtype]
    text = "\n".join([lines[0], *(",".join(fields) for fields in grid)]) + "\n"
    # Every cell is parsed before any is validated, so a parse error anywhere
    # wins over a validation error; within each class the first row-major wins.
    parse_errors = [(r, c) for r, c in positions if features[c].dtype != "categorical"]
    r, c = (parse_errors or positions)[0]
    if parse_errors:
        message = _error(lambda: parse_cell(grid[r][c], features[c]))
    else:
        message = _error(lambda: check_cell(grid[r][c], features[c]))
    got = _error(lambda: read_table_csv(io.StringIO(text), table.schema))
    assert got == f"row {r}: {message}"
