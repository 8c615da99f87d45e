"""``lineage_to_data`` against the per-cell reference expansion kept in
``_reference_lineage``: the same entries in the same order, the same JSON
text, and ``inputs``/``window`` shared with the origin that every entry of a
column record points to."""

from __future__ import annotations

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from featurespace.lineage import (
    ColumnLineage,
    Computed,
    Imputed,
    Lineage,
    RawLinked,
    lineage_to_data,
)
from featurespace.pipeline import compose, fit, run
from featurespace.schema import FeatureSpec, RawSource, SchemaManifest
from featurespace.table import MISSING, DataTable
from featurespace.transforms import TransformStep

from _generators import BASE_PROPS, random_exact_pipeline, random_schema, random_table
from _reference_lineage import reference_entries

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

FEATURES = st.sampled_from(["a", "b", 'q"uote', "new\nline", "é"])
ORIGINS = st.one_of(
    st.builds(Computed, st.sampled_from(["sum", "one_hot_encode", "a + b"]),
              st.lists(FEATURES, max_size=3)),
    st.builds(Imputed, st.sampled_from(["mean", "constant", "forward_fill"])),
    st.builds(RawLinked, st.sampled_from(["pulse-p7", "s"]), st.integers(0, 5),
              st.integers(6, 20)),
)


@st.composite
def lineages(draw) -> Lineage:
    """0-4 steps of 0-8 rows, each with 0-3 column records: any origin or
    none, and exceptions at any rows of the step."""
    steps = []
    for _ in range(draw(st.integers(0, 4))):
        num_rows = draw(st.integers(0, 8))
        columns = []
        for _ in range(draw(st.integers(0, 3))):
            feature, origin = draw(FEATURES), draw(st.none() | ORIGINS)
            exceptions = draw(st.dictionaries(st.integers(0, num_rows - 1), ORIGINS)) \
                if num_rows else {}
            columns.append(ColumnLineage(feature, origin, exceptions) if exceptions
                           else ColumnLineage(feature, origin))
        steps.append((num_rows, columns))
    return Lineage(steps)


def _assert_matches_reference(lineage: Lineage) -> list[dict]:
    entries = lineage_to_data(lineage)
    expected = reference_entries(lineage)
    assert entries == expected
    assert json.dumps(entries, indent=2) == json.dumps(expected, indent=2)  # and key order
    assert len(lineage) == len(entries)
    origins = [origin for _, columns in lineage._steps for column in columns
               for origin in (column.origin, *column.exceptions.values())]
    shared = {id(o.inputs) for o in origins if isinstance(o, Computed)} | \
        {id(o.window) for o in origins if isinstance(o, RawLinked)}
    for entry in entries:
        for key in ("inputs", "window"):
            if key in entry:
                assert id(entry[key]) in shared
    return entries


@PROPERTY_SETTINGS
@given(lineages())
def test_entries_match_the_per_cell_reference(lineage):
    _assert_matches_reference(lineage)


PULSE = FeatureSpec("pulse", "numeric", raw_source=RawSource("pulse-p7", (0, 10)),
                    properties=BASE_PROPS, observed=True)


@PROPERTY_SETTINGS
@given(SEEDS)
def test_pipeline_lineage_matches_the_per_cell_reference(seed):
    """Random pipelines: a ``link_raw`` step, exact steps (one-hot gives
    several columns per step) and an ``impute_flagged`` step of each
    strategy (exception rows, and a record whose origin is None), run on
    tables with MISSING cells and on a table of no rows."""
    rng = random.Random(seed)
    base = random_schema(rng)
    schema = SchemaManifest((PULSE, *base.features), space_tag="original")
    table = random_table(rng, schema, missing_rate=0.3)
    steps = [TransformStep("link_raw", {"feature": "pulse",
                                        "series": [float(i) for i in range(12)]})]
    steps += random_exact_pipeline(rng, schema).steps
    numerics = [f for f in compose(steps, schema, "to_interpretable").output_schema.features
                if f.dtype == "numeric"]
    feature = rng.choice(numerics).name
    strategy = rng.choice(["mean", "constant", "forward_fill"])
    cells = table.values(feature)  # no step before moves a numeric column's MISSING cells
    if strategy == "mean" and all(v is MISSING for v in cells) or \
            strategy == "forward_fill" and cells[0] is MISSING:
        strategy = "constant"
    config = {"feature": feature, "strategy": strategy}
    if strategy == "constant":
        config["constant"] = rng.choice([0, -1.5])
    steps.append(TransformStep("impute_flagged", config))
    fitted = fit(compose(steps, schema, "to_interpretable"), table)
    entries = _assert_matches_reference(run(fitted, table).lineage)
    assert any(e["origin"] == "raw_linked" for e in entries) == (table.num_rows > 0)
    empty = run(fitted, DataTable(schema, ()))
    assert _assert_matches_reference(empty.lineage) == []
