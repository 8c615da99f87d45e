"""``lineage_to_data`` against the per-cell reference expansion kept in
``_reference_lineage``: the same entries in the same order, the same JSON
text, and ``inputs``/``window`` shared with the origin that every entry of a
column record points to."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featurespace.lineage import ColumnLineage, Imputed, Lineage, lineage_to_data
from featurespace.pipeline import _apply_step, run
from featurespace.schema import DerivedFrom, FeatureSpec, RawSource, SchemaManifest
from featurespace.table import DataTable
from featurespace.transforms import EXACT_KINDS, TRANSFORM_KINDS

from _reference_lineage import reference_entries
from strategies import BASE_PROPS, fitted_pipelines, schemas

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)

FEATURES = st.sampled_from(["a", "b", 'q"uote', "new\nline", "é"])
ORIGINS = st.one_of(
    st.builds(DerivedFrom, st.lists(FEATURES, min_size=1, max_size=3),
              st.sampled_from(["sum", "one_hot_encode", "a + b"])),
    st.builds(Imputed, st.sampled_from(["mean", "constant", "forward_fill"])),
    st.builds(RawSource, st.sampled_from(["pulse-p7", "s"]),
              st.tuples(st.integers(0, 5), st.integers(6, 20))),
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
    shared = {id(o.inputs) for o in origins if isinstance(o, DerivedFrom)} | \
        {id(o.window) for o in origins if isinstance(o, RawSource)}
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
@given(fitted_pipelines(schemas().map(lambda base: SchemaManifest((PULSE, *base.features))),
                        missing=0.3, direction="to_interpretable", kinds=EXACT_KINDS,
                        first=("link_raw", "impute_flagged")))
def test_pipeline_lineage_matches_the_per_cell_reference(pair):
    """Random pipelines: a ``link_raw`` step, an ``impute_flagged`` step of
    any strategy (exception rows, and a record whose origin is None) and
    exact steps (one-hot gives several columns per step), run on tables with
    MISSING cells and on a table of no rows."""
    fitted, table = pair
    entries = _assert_matches_reference(run(fitted, table).lineage)
    assert any(e["origin"] == "raw_linked" for e in entries) == (table.num_rows > 0)
    empty = run(fitted, DataTable(fitted.input_schema, ()))
    assert _assert_matches_reference(empty.lineage) == []


@PROPERTY_SETTINGS
@given(fitted_pipelines(schemas().map(lambda base: SchemaManifest((PULSE, *base.features))),
                        missing=0.3, first=("link_raw",)))
def test_run_origins_are_the_schema_records(pair):
    """Random pipelines of every kind that start with a ``link_raw`` step: the
    one record of each feature a step builds has no exceptions, and its origin
    is the output spec's own ``derived_from``, the same object; a ``link_raw``
    record is the ``RawSource`` of the step's series and window."""
    fitted, table = pair
    steps = run(fitted, table).lineage._steps
    assert len(steps) == len(fitted.steps)
    for fstep, (_, columns) in zip(fitted.steps, steps):
        records = {column.feature: column for column in columns}
        for spec in fstep.kernel.plan(fstep.input_schema, fstep.config).built:
            record = records[spec.name]
            assert record.origin is fstep.output_schema.feature(spec.name).derived_from
            assert not record.exceptions
        if fstep.step.kind == "link_raw":
            cfg = fstep.config
            assert [column.origin for column in columns] == \
                [RawSource(cfg["series_id"], cfg["window"])]


@pytest.mark.parametrize("kind", TRANSFORM_KINDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_a_kernel_records_only_the_features_it_rewrites(kind, data):
    """Random pipelines that start with a step of ``kind``: every kernel's
    ``apply`` returns one record per feature its step rewrites, in the plan's
    order, and none for a step that rewrites nothing; the fitted step records
    the features it builds (``test_run_origins_are_the_schema_records``).
    PCA rejects a MISSING input by design, so its tables are drawn without."""
    first = ("render_statement", kind) if kind == "unrender_statement" else (kind,)
    fitted, table = data.draw(fitted_pipelines(
        schemas(["numeric", "categorical", "boolean", "one_hot"]),
        missing=0.0 if kind == "pca_project" else 0.1, first=first))
    for number, fstep in enumerate(fitted.steps, 1):
        _, records = fstep.kernel.apply(table, fstep.prepared)
        plan = fstep.kernel.plan(fstep.input_schema, fstep.config)
        assert [record.feature for record in records] == list(plan.rewritten)
        table, _ = _apply_step(fstep, number, table)
