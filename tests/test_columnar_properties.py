"""Properties of the columnar table core and the column-backed lineage."""

from __future__ import annotations

import io
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from featurespace.errors import ValidationError
from featurespace.lineage import lineage_to_data
from featurespace.pipeline import _apply_step, as_fitted, compose, fit, invert, run
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
    validates exactly the numeric ones."""
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
        numeric = [name for name in names if name in fstep.produced
                   and fstep.output_schema.feature(name).dtype == "numeric"]
        assert [names[i] for i in fstep.unchecked] == numeric


def _unvalidated_columns_pass(fitted, table: DataTable) -> tuple[set[str], DataTable]:
    """Run ``fitted`` over ``table`` step by step, requiring every produced
    column a step leaves out of validation (each non-numeric one) to pass the
    whole-column check. Returns the kinds that produced such a column, and
    the output table."""
    kinds, current = set(), table
    for number, fstep in enumerate(fitted.steps, 1):
        kernel = KERNELS[fstep.step.kind]
        columns, _ = kernel.apply(current, fstep.prepared)
        for name, column in zip(fstep.produced, columns):
            spec = fstep.output_schema.feature(name)
            if spec.dtype != "numeric":
                assert len(column) == current.num_rows
                assert _column_passes(column, spec), (fstep.step.kind, name)
                kinds.add(fstep.step.kind)
        current, _ = _apply_step(kernel, fstep, number, current)
    return kinds, current


def _label_steps(rng: random.Random, table: DataTable, ranged: str) -> list[TransformStep]:
    """Steps of every lossy kind and both one-hot kinds that produce labels or
    booleans, over features ``col0``-``col5`` of dtypes numeric, numeric,
    categorical and three booleans (``ranged`` is a numeric one with a range
    to fit). Imputation by constant and by forward fill each run on a
    categorical and a boolean feature."""
    categories = table.schema.feature("col2").categories
    mapping = {c: rng.choice(["P", "Q"]) for c in categories}
    parents = list(dict.fromkeys(mapping[c] for c in categories))
    fill = rng.sample(["constant", "forward_fill"], 2)

    def impute(feature, strategy, constant):
        return TransformStep("impute_flagged", {
            "feature": feature, "strategy": strategy, "flag_name": f"{feature} imputed",
            "constant": constant if strategy == "constant" else None})

    return [
        TransformStep("statistical_bin", {"feature": ranged, "bins": rng.randint(1, 4),
                                          "target": "stat", "keep_original": True}),
        TransformStep("semantic_bin", {"feature": rng.choice(["col0", "col1"]),
                                       "boundaries": sorted(rng.sample(range(-500, 500), 2)),
                                       "labels": ["low", "mid", "high"], "target": "sem",
                                       "keep_original": True}),
        TransformStep("abstract_concept", {
            "inputs": rng.sample(["col0", "col1"], rng.randint(1, 2)),
            "formula": rng.choice(["sum", "mean", "euclidean_floor"]),
            "labeling": {"boundaries": [0.0, 300.0], "labels": ["L", "M", "H"]},
            "target": "concept", "keep_inputs": True}),
        TransformStep("hierarchy_rollup", {"feature": "col2", "mapping": mapping,
                                           "target": "rolled", "keep_original": True}),
        TransformStep("one_hot_encode", {"feature": "col2"}),
        TransformStep("one_hot_decode", {
            "group": [f"col2 {c}" for c in categories], "target": "decoded",
            "categories": list(categories), "zero_hot": "missing"}),
        TransformStep("render_statement", {"feature": "col4"}),
        impute("rolled", fill[0], rng.choice(parents)),
        impute("decoded", fill[1], rng.choice(categories)),
        impute("col3", fill[0], rng.random() < 0.5),
        impute("col5", fill[1], rng.random() < 0.5),
    ]


@PROPERTY_SETTINGS
@given(SEEDS)
def test_unvalidated_produced_columns_pass_validation(seed):
    """Every label and boolean column a step produces, which the pipeline
    does not validate, passes the whole-column check: over random fitted
    pipelines of every kind that produces one, and random input tables with
    MISSING cells."""
    rng = random.Random(seed)
    schema = random_schema(rng, 6, ["numeric", "numeric", "categorical",
                                    "boolean", "boolean", "boolean"])
    # A first row with no MISSING cell gives forward fill a value to carry.
    rows = random_table(rng, schema, n_rows=1, missing_rate=0).rows
    table = DataTable(schema, rows + random_table(rng, schema, missing_rate=0.3).rows)
    ranged = [n for n in ("col0", "col1") if len(set(table.values(n)) - {MISSING}) >= 2]
    if not ranged:
        return  # no feature has a bin range to fit
    steps = _label_steps(rng, table, rng.choice(ranged))
    planned = compose(steps, schema, "to_interpretable").output_schema
    steps += random_exact_pipeline(rng, planned).steps
    kinds, _ = _unvalidated_columns_pass(fit(compose(steps, schema, "to_interpretable"),
                                             table), table)
    assert kinds >= {"statistical_bin", "semantic_bin", "abstract_concept",
                     "hierarchy_rollup", "one_hot_encode", "one_hot_decode",
                     "render_statement", "impute_flagged"}
    # Statements are read back by the inverse of an exact pipeline.
    exact = [TransformStep("render_statement", {"feature": name})
             for name in ("col2", "col3")]
    planned = compose(exact, schema, "to_interpretable").output_schema
    exact += random_exact_pipeline(rng, planned).steps
    fitted = as_fitted(compose(exact, schema, "to_interpretable"))
    _, out = _unvalidated_columns_pass(fitted, table)
    kinds, _ = _unvalidated_columns_pass(invert(fitted), out)
    assert "unrender_statement" in kinds


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
