"""Transform kernels: golden examples, error paths, and properties."""

from __future__ import annotations

import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings

from featurespace import transforms
from featurespace.errors import KernelError, ValidationError
from featurespace.lineage import lineage_to_data
from featurespace.pipeline import FittedStep, compose, fit, load_fitted, run, save_fitted
from featurespace.properties import PropertySet
from featurespace.schema import FeatureSpec, RawSource, SchemaManifest, Wording
from featurespace.table import MISSING, DataTable
from featurespace.transforms import (
    KERNELS,
    TransformStep,
    pca_redistribution_weights,
    render_value,
    unrender_value,
)

from _tables import tables_equal
from strategies import BASE_PROPS, schemas, tables


def apply_step(step: TransformStep, table: DataTable):
    pipeline = compose([step], table.schema, "to_interpretable")
    return run(fit(pipeline, table), table)


def area_schema():
    return SchemaManifest(features=(
        FeatureSpec("Wilderness area", "categorical",
                    categories=("Rawah", "Neota", "Comache Peak", "Cache la Poudre"),
                    properties=BASE_PROPS),
    ))


# -- one_hot_encode ----------------------------------------------------------

def test_one_hot_encode_forest_cover_row():
    table = DataTable(area_schema(), (("Comache Peak",),))
    step = TransformStep("one_hot_encode", {"feature": "Wilderness area",
                                            "name_template": "Area {category}"})
    result = apply_step(step, table)
    assert result.output_schema.names == (
        "Area Rawah", "Area Neota", "Area Comache Peak", "Area Cache la Poudre")
    assert result.table.rows[0] == (False, False, True, False)


def test_one_hot_encode_single_category():
    schema = SchemaManifest(features=(
        FeatureSpec("only", "categorical", categories=("just this",)),))
    table = DataTable(schema, (("just this",), (MISSING,)))
    result = apply_step(TransformStep("one_hot_encode", {"feature": "only"}), table)
    assert result.table.rows[0] == (True,)
    assert result.table.rows[1] == (MISSING,)


@settings(max_examples=10, deadline=None)
@given(tables(SchemaManifest(features=(FeatureSpec("c", "categorical", categories=("x", "y", "z"),
                                                   properties=BASE_PROPS),)),
              missing=0.2, min_rows=40, max_rows=40))
def test_one_hot_exactly_one_true_for_non_missing(table):
    assume({row[0] is MISSING for row in table.rows} == {False, True})
    result = apply_step(TransformStep("one_hot_encode", {"feature": "c"}), table)
    for before, after in zip(table.rows, result.table.rows):
        if before[0] is MISSING:
            assert all(cell is MISSING for cell in after)
        else:
            assert sum(1 for cell in after if cell is True) == 1


def test_one_hot_encode_requires_categorical():
    schema = SchemaManifest(features=(FeatureSpec("n", "numeric"),))
    table_schema = schema
    with pytest.raises(ValidationError, match="must be categorical"):
        compose([TransformStep("one_hot_encode", {"feature": "n"})],
                table_schema, "to_interpretable")
    with pytest.raises(ValidationError, match="unknown feature"):
        compose([TransformStep("one_hot_encode", {"feature": "ghost"})],
                table_schema, "to_interpretable")


@pytest.mark.parametrize("kind, config, message", [
    ("one_hot_encode", {"feature": "n"}, "feature 'n' must be categorical, is numeric"),
    ("hierarchy_rollup", {"feature": "n", "mapping": {}},
     "feature 'n' must be categorical or ordinal, is numeric"),
    ("standardize", {"feature": "c"}, "feature 'c' must be numeric, is categorical"),
    ("pca_project", {"inputs": ["n", "c"], "components": 1},
     "feature 'c' must be numeric, is categorical"),
])
def test_an_input_of_another_dtype_names_the_dtypes_its_kind_reads(kind, config, message):
    schema = SchemaManifest(features=(FeatureSpec("n", "numeric"),
                                      FeatureSpec("c", "categorical", categories=("a",))))
    with pytest.raises(ValidationError) as raised:
        compose([TransformStep(kind, config)], schema, "to_interpretable")
    assert str(raised.value) == f"step 1 ({kind}): {message}"


# -- one_hot_decode ----------------------------------------------------------

def decode_step(**overrides):
    cfg = {
        "group": ["Area Rawah", "Area Neota", "Area Comache Peak",
                  "Area Cache la Poudre"],
        "target": "Wilderness area",
        "categories": ["Rawah", "Neota", "Comache Peak", "Cache la Poudre"],
    }
    cfg.update(overrides)
    return TransformStep("one_hot_decode", cfg)


def boolean_group_schema():
    return SchemaManifest(features=tuple(
        FeatureSpec(name, "boolean", properties=BASE_PROPS)
        for name in ("Area Rawah", "Area Neota", "Area Comache Peak",
                     "Area Cache la Poudre")
    ))


def test_one_hot_decode_forest_cover_row():
    table = DataTable(boolean_group_schema(), ((False, False, True, False),))
    result = apply_step(decode_step(), table)
    assert result.table.rows[0] == ("Comache Peak",)
    assert result.output_schema.feature("Wilderness area").categories == (
        "Rawah", "Neota", "Comache Peak", "Cache la Poudre")


def test_one_hot_decode_single_indicator():
    schema = SchemaManifest(features=(FeatureSpec("flag", "boolean"),))
    table = DataTable(schema, ((True,),))
    step = TransformStep("one_hot_decode", {"group": ["flag"], "target": "which",
                                            "categories": ["only"]})
    assert apply_step(step, table).table.rows[0] == ("only",)


def test_one_hot_decode_rejects_two_trues():
    table = DataTable(boolean_group_schema(), ((True, True, False, False),))
    with pytest.raises(KernelError, match="ill-formed one-hot"):
        apply_step(decode_step(), table)


def test_one_hot_decode_zero_hot_defaults_to_error():
    table = DataTable(boolean_group_schema(), ((False, False, False, False),))
    with pytest.raises(KernelError, match="zero indicators"):
        apply_step(decode_step(), table)
    result = apply_step(decode_step(zero_hot="missing"), table)
    assert result.table.rows[0] == (MISSING,)


def test_one_hot_decode_all_missing_row_stays_missing():
    table = DataTable(boolean_group_schema(), ((MISSING,) * 4,))
    assert apply_step(decode_step(), table).table.rows[0] == (MISSING,)


@settings(max_examples=30, deadline=None)
@given(schemas(["categorical"]).flatmap(lambda schema: tables(schema, missing=0.15)))
def test_one_hot_round_trip_random_tables(table):
    spec = table.schema.features[0]
    encoded = apply_step(TransformStep("one_hot_encode", {"feature": spec.name}), table)
    step = TransformStep("one_hot_decode", {
        "group": list(encoded.output_schema.names),
        "target": spec.name,
        "categories": list(spec.categories),
    })
    decoded = apply_step(step, encoded.table)
    assert tables_equal(decoded.table, table)


@pytest.mark.parametrize("own", [
    {},
    {"unit": 5, "description": "Area", "wording": {"value": "in {value}"},
     "observed": True},
])
def test_one_hot_decode_own_keys_normalize_as_their_restore(own):
    kernel = KERNELS["one_hot_decode"]
    schema = boolean_group_schema()
    config = decode_step(**own).config
    restore = {"dtype": "categorical",
               **{k: config.pop(k) for k in ("categories", *own)}}
    by_keys = kernel.normalize(decode_step(**own).config, schema)
    assert by_keys == kernel.normalize({**config, "restore": restore}, schema)
    if own:
        assert by_keys["restore"]["unit"] == "5"  # as a manifest reads it


# -- standardize / unstandardize ---------------------------------------------

def elevation_table(*values):
    schema = SchemaManifest(features=(
        FeatureSpec("Elevation", "numeric", unit="m", properties=BASE_PROPS),))
    return DataTable(schema, tuple((v,) for v in values))


def test_standardize_forest_cover_value():
    table = elevation_table(3123)
    step = TransformStep("standardize", {"feature": "Elevation",
                                         "mean": 2959.36, "scale": 279.98})
    result = apply_step(step, table)
    assert result.table.rows[0][0] == pytest.approx(0.584, abs=1e-3)


def test_standardize_centering():
    result = apply_step(TransformStep("standardize", {
        "feature": "Elevation", "mean": 100.0, "scale": 5.0}), elevation_table(100.0))
    assert result.table.rows[0][0] == 0.0


def test_standardize_missing_passes_through():
    table = elevation_table(10.0)
    table = DataTable(table.schema, ((MISSING,), (10.0,)))
    result = apply_step(TransformStep("standardize", {
        "feature": "Elevation", "mean": 0.0, "scale": 1.0}), table)
    assert result.table.rows[0][0] is MISSING


def test_standardize_round_trip_within_1e9():
    rng = random.Random(31)
    for _ in range(50):
        x = rng.uniform(-1e4, 1e4)
        mean = rng.uniform(-100, 100)
        scale = rng.uniform(0.1, 50)
        table = elevation_table(x)
        fwd = apply_step(TransformStep("standardize", {
            "feature": "Elevation", "mean": mean, "scale": scale}), table)
        back = apply_step(TransformStep("unstandardize", {
            "feature": "Elevation", "mean": mean, "scale": scale}), fwd.table)
        assert back.table.rows[0][0] == pytest.approx(x, abs=1e-9)


@pytest.mark.parametrize("own", [{}, {"unit": 5, "description": "Height"}])
def test_unstandardize_own_keys_normalize_as_their_restore(own):
    kernel = KERNELS["unstandardize"]
    schema = elevation_table(1.0).schema
    config = {"feature": "Elevation", "mean": 1.0, "scale": 2.0}
    by_keys = kernel.normalize({**config, **own}, schema)
    by_restore = kernel.normalize({**config, "restore": {"dtype": "numeric", **own}},
                                  schema)
    assert by_keys == by_restore
    if own:
        assert by_keys["restore"] == {"dtype": "numeric", "description": "Height",
                                      "unit": "5"}


@pytest.mark.parametrize("step, schema, keys", [
    (decode_step(unit="m", description="Area",
                 restore={"dtype": "categorical", "categories": ["w", "x", "y", "z"]}),
     boolean_group_schema(), "categories, description, unit"),
    (TransformStep("unstandardize", {"feature": "Elevation", "mean": 1.0, "scale": 2.0,
                                     "unit": "m", "description": "Height",
                                     "restore": {"dtype": "numeric"}}),
     elevation_table(1.0).schema, "description, unit"),
], ids=["one_hot_decode", "unstandardize"])
def test_restore_beside_its_own_keys_is_refused(step, schema, keys):
    """A step gives its restore keys at top level or in ``restore``; given
    both, neither is dropped silently."""
    with pytest.raises(ValidationError, match="^" + re.escape(
            f"step 1 ({step.kind}): give restore or {keys}, not both") + "$"):
        compose([step], schema, "to_interpretable")


def test_standardize_rejects_bad_scale():
    with pytest.raises(ValidationError, match="scale"):
        compose([TransformStep("standardize", {
            "feature": "Elevation", "mean": 0.0, "scale": 0.0})],
            elevation_table(1.0).schema, "to_interpretable")


def test_standardize_fit_uses_population_std():
    values = [3179.0, 3123.0, 2157.0]
    table = elevation_table(*values)
    pipeline = compose([TransformStep("standardize", {"feature": "Elevation"})],
                       table.schema, "to_interpretable")
    fitted = fit(pipeline, table)
    mean = sum(values) / len(values)
    scale = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
    state = fitted.steps[0].fit_state
    assert state["mean"] == pytest.approx(mean, abs=1e-9)
    assert state["scale"] == pytest.approx(scale, abs=1e-9)


def test_standardize_fit_fails_on_constant_or_empty_column():
    pipeline_steps = [TransformStep("standardize", {"feature": "Elevation"})]
    constant = elevation_table(5.0, 5.0)
    with pytest.raises(KernelError, match="constant"):
        fit(compose(pipeline_steps, constant.schema, "to_interpretable"), constant)
    empty = DataTable(constant.schema, ((MISSING,), (MISSING,)))
    with pytest.raises(KernelError, match="no observed values"):
        fit(compose(pipeline_steps, empty.schema, "to_interpretable"), empty)


# -- statistical_bin ----------------------------------------------------------

def bin_step(**overrides):
    cfg = {"feature": "Elevation", "bins": 3, "min": 1859, "max": 3858,
           "labels": ["Low", "Medium", "High"]}
    cfg.update(overrides)
    return TransformStep("statistical_bin", cfg)


def test_statistical_bin_forest_cover_labels():
    result = apply_step(bin_step(), elevation_table(2157, 3179, 3123))
    assert [row[0] for row in result.table.rows] == [
        "Low (1859m-2525m)", "Medium (2525m-3192m)", "Medium (2525m-3192m)"]


def test_statistical_bin_boundaries():
    result = apply_step(bin_step(), elevation_table(1859, 3858))
    assert result.table.rows[0][0].startswith("Low")
    assert result.table.rows[1][0].startswith("High")


def test_statistical_bin_out_of_range():
    with pytest.raises(KernelError, match="outside bin range"):
        apply_step(bin_step(), elevation_table(1858))


def test_statistical_bin_overflowing_edges_rejected():
    table = elevation_table(2000)
    with pytest.raises(ValidationError, match="overflow"):
        compose([bin_step(min=-6e307, max=1000)], table.schema, "to_interpretable")
    huge = elevation_table(-6e307, 1000)
    pipeline = compose([bin_step(min=None, max=None)], huge.schema, "to_interpretable")
    with pytest.raises(KernelError, match="overflow"):
        fit(pipeline, huge)


def test_statistical_bin_fit_edges_closed_form():
    values = [10.0, 30.0, 20.0, 40.0]
    table = elevation_table(*values)
    pipeline = compose([bin_step(min=None, max=None, bins=4,
                                 labels=["a", "b", "c", "d"])],
                       table.schema, "to_interpretable")
    fitted = fit(pipeline, table)
    state = fitted.steps[0].fit_state
    assert state["min"] == 10.0 and state["max"] == 40.0
    expected = tuple(10.0 + i * (40.0 - 10.0) / 4 for i in range(5))
    assert state["edges"] == expected


def test_a_fit_state_read_from_a_document_is_checked_once(monkeypatch):
    """Loading the ``learned`` document checks the fit state of each of its
    four learning steps once; a ``statistical_bin`` state drops its edges and
    goes through the checks of every kind."""
    calls = []
    check = transforms._check_fit_state

    def counting(kernel, cfg, fit_state, keys):
        calls.append(kernel.kind)
        check(kernel, cfg, fit_state, keys)

    monkeypatch.setattr(transforms, "_check_fit_state", counting)
    fitted = load_fitted(Path(__file__).parent / "data" / "covertype_300_learned.fitted.json")
    assert calls == [fstep.step.kind for fstep in fitted.steps if fstep.fit_state is not None]
    assert calls == ["impute_flagged", "statistical_bin", "standardize", "pca_project"]


def test_statistical_bin_monotone_in_label_order():
    rng = random.Random(17)
    result_labels = []
    values = sorted(rng.uniform(1859, 3858) for _ in range(100))
    result = apply_step(bin_step(), elevation_table(*values))
    order = {label: i for i, label in enumerate(
        result.output_schema.feature("Elevation").categories)}
    result_labels = [order[row[0]] for row in result.table.rows]
    assert result_labels == sorted(result_labels)


def test_statistical_bin_missing_passes_through():
    schema = elevation_table(1.0).schema
    table = DataTable(schema, ((MISSING,), (2000,)))
    assert apply_step(bin_step(), table).table.rows[0][0] is MISSING


# -- semantic_bin --------------------------------------------------------------

def zone_step(**overrides):
    cfg = {"feature": "Elevation",
           "boundaries": [1830, 2440, 3050, 3500],
           "labels": ["Plains", "Foothills", "Montane", "Subalpine", "Alpine"],
           "target": "Elevation Zone"}
    cfg.update(overrides)
    return TransformStep("semantic_bin", cfg)


def test_semantic_bin_forest_cover_zones():
    result = apply_step(zone_step(), elevation_table(3179, 2157, 3123))
    assert [row[0] for row in result.table.rows] == [
        "Subalpine", "Foothills", "Subalpine"]


def test_semantic_bin_two_bins():
    schema = elevation_table(1.0).schema
    step = TransformStep("semantic_bin", {"feature": "Elevation",
                                          "boundaries": [10],
                                          "labels": ["below", "above"]})
    result = apply_step(step, DataTable(schema, ((5,), (10,), (15,))))
    assert [row[0] for row in result.table.rows] == ["below", "above", "above"]


def test_semantic_bin_rejects_bad_boundaries():
    with pytest.raises(ValidationError, match="strictly increasing"):
        compose([zone_step(boundaries=[3, 2, 1])],
                elevation_table(1.0).schema, "to_interpretable")


def test_semantic_bin_monotone():
    rng = random.Random(41)
    values = sorted(rng.uniform(1000, 4000) for _ in range(100))
    result = apply_step(zone_step(), elevation_table(*values))
    order = {label: i for i, label in enumerate(
        result.output_schema.feature("Elevation Zone").categories)}
    labels = [order[row[0]] for row in result.table.rows]
    assert labels == sorted(labels)


# -- impute_flagged -------------------------------------------------------------

def test_impute_present_value_keeps_value_flag_false():
    result = apply_step(TransformStep("impute_flagged", {
        "feature": "Elevation", "strategy": "mean"}), elevation_table(3179, 2000))
    assert result.table.rows[0] == (3179, False)
    assert result.output_schema.names == ("Elevation", "Elevation Flag")


def test_impute_constant_zero():
    schema = elevation_table(1.0).schema
    table = DataTable(schema, ((MISSING,),))
    result = apply_step(TransformStep("impute_flagged", {
        "feature": "Elevation", "strategy": "constant", "constant": 0}), table)
    assert result.table.rows[0] == (0, True)


@settings(max_examples=25, deadline=None)
@given(tables(elevation_table(1.0).schema, missing=0.3, min_rows=2, max_rows=40))
def test_impute_flag_count_matches_missing_count(table):
    assume(not all(row[0] is MISSING for row in table.rows))
    missing = sum(1 for row in table.rows if row[0] is MISSING)
    result = apply_step(TransformStep("impute_flagged", {
        "feature": "Elevation", "strategy": "mean"}), table)
    flags = [row[1] for row in result.table.rows]
    assert sum(flags) == missing
    assert not any(row[0] is MISSING for row in result.table.rows)
    imputed = [e for e in lineage_to_data(result.lineage)
               if e["feature"] == "Elevation" and e["origin"] == "imputed"]
    assert len(imputed) == missing


def test_impute_mean_is_fitted_not_recomputed_per_batch(tmp_path):
    schema = elevation_table(1.0).schema
    step = TransformStep("impute_flagged", {"feature": "Elevation", "strategy": "mean"})
    fit_table = DataTable(schema, ((3000,), (MISSING,), (2000,), (2600,)))
    fitted = fit(compose([step], schema, "to_interpretable"), fit_table)
    mean = (3000 + 2000 + 2600) / 3
    assert fitted.steps[0].fit_state["mean"] == mean
    path = tmp_path / "fitted.json"
    save_fitted(fitted, path)
    lone = DataTable(schema, ((MISSING,),))
    batch = DataTable(schema, ((MISSING,), (1.0,), (9999,), (MISSING,)))
    for pipeline in (fitted, load_fitted(path)):
        assert run(pipeline, lone).table.rows == ((mean, True),)
        assert run(pipeline, batch).table.rows[0] == (mean, True)


def test_impute_mean_without_fit_state_is_a_validation_error():
    schema = elevation_table(1.0).schema
    step = TransformStep("impute_flagged", {"feature": "Elevation", "strategy": "mean",
                                            "constant": None, "flag_name": "Elevation Flag"})
    output = compose([step], schema, "to_interpretable").output_schema
    unfitted = FittedStep(step, None, schema, output, ("Elevation", "Elevation Flag"))
    assert unfitted.prepared is None  # a step that still needs fitting is never run
    with pytest.raises(ValidationError, match="mean strategy is not fitted"):
        KERNELS["impute_flagged"].check_learned(step.config, {}, schema)


def test_impute_mean_needs_observed_values():
    table = DataTable(elevation_table(1.0).schema, ((MISSING,), (MISSING,)))
    with pytest.raises(KernelError, match="entirely missing"):
        apply_step(TransformStep("impute_flagged", {
            "feature": "Elevation", "strategy": "mean"}), table)


def test_impute_forward_fill():
    table = DataTable(elevation_table(1.0).schema, ((7,), (MISSING,), (9,)))
    result = apply_step(TransformStep("impute_flagged", {
        "feature": "Elevation", "strategy": "forward_fill"}), table)
    assert [row[0] for row in result.table.rows] == [7, 7, 9]
    bad = DataTable(elevation_table(1.0).schema, ((MISSING,), (1,)))
    with pytest.raises(KernelError, match="no preceding value"):
        apply_step(TransformStep("impute_flagged", {
            "feature": "Elevation", "strategy": "forward_fill"}), bad)


# -- aggregate_numeric -----------------------------------------------------------

def distance_schema():
    return SchemaManifest(features=(
        FeatureSpec("h", "numeric", properties=BASE_PROPS),
        FeatureSpec("v", "numeric", properties=BASE_PROPS),
    ))


def agg_step(formula="euclidean_floor", **overrides):
    cfg = {"inputs": ["h", "v"], "formula": formula, "target": "distance"}
    cfg.update(overrides)
    return TransformStep("aggregate_numeric", cfg)


def test_euclidean_floor_forest_cover_rows():
    table = DataTable(distance_schema(), ((450, 56), (218, 21), (85, 10)))
    result = apply_step(agg_step(), table)
    assert [row[0] for row in result.table.rows] == [453, 219, 85]


def test_euclidean_floor_origin():
    table = DataTable(distance_schema(), ((0, 0),))
    assert apply_step(agg_step(), table).table.rows[0][0] == 0


def test_euclidean_floor_matches_isqrt_oracle_small_grid():
    table_schema = distance_schema()
    rows = [(h, v) for h in range(-60, 61, 3) for v in range(-60, 61, 3)]
    result = apply_step(agg_step(), DataTable(table_schema, tuple(rows)))
    for (h, v), row in zip(rows, result.table.rows):
        assert row[0] == math.isqrt(h * h + v * v)


def test_sum_matches_columnwise_oracle():
    rng = random.Random(3)
    rows = tuple((rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(50))
    table = DataTable(distance_schema(), rows)
    result = apply_step(agg_step(formula="sum"), table)
    for (h, v), row in zip(rows, result.table.rows):
        assert row[0] == pytest.approx(h + v, abs=1e-12)


def test_missing_inputs_propagate():
    table = DataTable(distance_schema(), ((MISSING, 3),))
    assert apply_step(agg_step(), table).table.rows[0][0] is MISSING


def test_expression_formula_and_unknown_reference():
    table = DataTable(distance_schema(), ((3, 4),))
    result = apply_step(agg_step(formula={"expr": "floor(sqrt(h*h + v*v))"}), table)
    assert result.table.rows[0][0] == 5
    with pytest.raises(ValidationError, match="unknown feature 'w'"):
        compose([agg_step(formula={"expr": "h + w"})], table.schema,
                "to_interpretable")


def test_keep_inputs_appends_target():
    table = DataTable(distance_schema(), ((3, 4),))
    result = apply_step(agg_step(keep_inputs=True), table)
    assert result.output_schema.names == ("h", "v", "distance")
    assert result.table.rows[0] == (3, 4, 5)


# -- hierarchy_rollup -------------------------------------------------------------

def soil_schema():
    return SchemaManifest(features=(
        FeatureSpec("Soil Type", "categorical",
                    categories=("granite family", "till family"),
                    properties=BASE_PROPS),))


def test_hierarchy_rollup_soil_zones():
    table = DataTable(soil_schema(), (("granite family",), ("till family",)))
    step = TransformStep("hierarchy_rollup", {
        "feature": "Soil Type",
        "target": "Soil Geologic Zone",
        "mapping": {"granite family": "igneous and metamorphic",
                    "till family": "glacial"},
    })
    result = apply_step(step, table)
    assert [row[0] for row in result.table.rows] == [
        "igneous and metamorphic", "glacial"]


def test_hierarchy_identity_mapping():
    table = DataTable(soil_schema(), (("granite family",),))
    step = TransformStep("hierarchy_rollup", {
        "feature": "Soil Type", "target": "Soil Copy",
        "mapping": {"granite family": "granite family",
                    "till family": "till family"}})
    result = apply_step(step, table)
    assert result.table.rows[0][0] == "granite family"
    assert result.output_schema.names == ("Soil Copy",)


def test_hierarchy_unmapped_category_rejected():
    with pytest.raises(ValidationError, match="missing from mapping"):
        compose([TransformStep("hierarchy_rollup", {
            "feature": "Soil Type", "target": "zone",
            "mapping": {"granite family": "igneous"}})],
            soil_schema(), "to_interpretable")


# -- abstract_concept ---------------------------------------------------------------

def hillshade_schema():
    return SchemaManifest(features=(
        FeatureSpec("Hillshade 9am", "numeric", properties=BASE_PROPS),
        FeatureSpec("Hillshade Noon", "numeric", properties=BASE_PROPS),
        FeatureSpec("Hillshade 3pm", "numeric", properties=BASE_PROPS),
    ))


def light_step():
    return TransformStep("abstract_concept", {
        "inputs": ["Hillshade 9am", "Hillshade Noon", "Hillshade 3pm"],
        "formula": "sum",
        "labeling": {"boundaries": [550], "labels": ["Medium", "High"]},
        "target": "Light Level",
    })


def test_abstract_concept_light_levels():
    table = DataTable(hillshade_schema(), ((210, 131, 103), (156, 231, 211)))
    result = apply_step(light_step(), table)
    assert [row[0] for row in result.table.rows] == ["Medium", "High"]
    spec = result.output_schema.feature("Light Level")
    assert spec.properties.abstract_concept


def test_abstract_concept_all_zero_first_label():
    table = DataTable(hillshade_schema(), ((0, 0, 0),))
    assert apply_step(light_step(), table).table.rows[0][0] == "Medium"


def test_abstract_concept_without_labeling_is_numeric():
    table = DataTable(hillshade_schema(), ((1, 2, 3),))
    step = TransformStep("abstract_concept", {
        "inputs": ["Hillshade 9am", "Hillshade Noon", "Hillshade 3pm"],
        "formula": "sum", "target": "total"})
    result = apply_step(step, table)
    assert result.table.rows[0][0] == 6
    assert result.output_schema.feature("total").dtype == "numeric"


# -- render_statement / unrender_statement --------------------------------------------

def siblings_spec():
    return FeatureSpec("child has siblings", "boolean",
                       wording=Wording(positive_statement="the child has siblings",
                                       negative_statement="the child has no siblings"),
                       properties=BASE_PROPS)


def test_render_boolean_statements():
    spec = siblings_spec()
    assert render_value(spec, False) == "the child has no siblings"
    assert render_value(spec, True) == "the child has siblings"


def test_render_categorical_value_phrase():
    spec = FeatureSpec("gender", "categorical", categories=("FEMALE", "MALE"),
                       wording=Wording(value_phrase="gender -> {value}"))
    assert render_value(spec, "FEMALE") == "gender -> FEMALE"


def test_render_numeric_with_unit():
    spec = FeatureSpec("Elevation", "numeric", unit="m")
    assert render_value(spec, 3179) == "Elevation: 3179 m"


def test_unrender_inverts_render():
    spec = siblings_spec()
    for value in (True, False):
        assert unrender_value(spec, render_value(spec, value)) is value


def test_render_statement_step_and_inverse():
    schema = SchemaManifest(features=(siblings_spec(),))
    table = DataTable(schema, ((False,), (True,), (MISSING,)))
    result = apply_step(TransformStep("render_statement",
                                      {"feature": "child has siblings"}), table)
    assert result.table.rows[0][0] == "the child has no siblings"
    assert result.table.rows[2][0] is MISSING
    assert result.output_schema.names == ("child has siblings Statement",)
    assert result.output_schema.features[0].properties.human_worded


def test_render_statement_requires_templates():
    schema = SchemaManifest(features=(FeatureSpec("b", "boolean"),))
    with pytest.raises(ValidationError):
        compose([TransformStep("render_statement", {"feature": "b"})],
                schema, "to_interpretable")


def test_unrender_statement_requires_a_feature_without_wording():
    """A worded feature holds values, which the inverse could not word again."""
    spec = FeatureSpec("s", "categorical", categories=("on", "off"),
                       wording=Wording(value_phrase="{value}"))
    step = TransformStep("unrender_statement", {"feature": "s", "target": "t", "restore": {
        "dtype": "categorical", "categories": ["on", "off"], "wording": {"value": "{value}"}}})
    with pytest.raises(ValidationError, match="feature 's' must hold rendered statements$"):
        compose([step], SchemaManifest(features=(spec,)), "to_interpretable")


def test_render_statement_requires_distinct_statements():
    spec = FeatureSpec("b", "boolean",
                       wording=Wording(positive_statement="same",
                                       negative_statement="same"))
    schema = SchemaManifest(features=(spec,))
    with pytest.raises(ValidationError, match="distinct"):
        compose([TransformStep("render_statement", {"feature": "b"})],
                schema, "to_interpretable")


# -- pca_project -------------------------------------------------------------------

def test_pca_two_point_hand_oracle():
    schema = SchemaManifest(features=(
        FeatureSpec("x", "numeric", properties=BASE_PROPS),
        FeatureSpec("y", "numeric", properties=BASE_PROPS),
    ))
    table = DataTable(schema, ((0.0, 0.0), (2.0, 2.0)))
    step = TransformStep("pca_project", {"inputs": ["x", "y"], "components": 1})
    result = apply_step(step, table)
    root2 = math.sqrt(2.0)
    assert result.table.rows[0][0] == pytest.approx(-root2, abs=1e-12)
    assert result.table.rows[1][0] == pytest.approx(root2, abs=1e-12)
    assert result.output_schema.names == ("PCA 1",)
    assert not result.output_schema.features[0].properties.readable


def pca_reconstruct(component_rows, means, loadings):
    """Map component values back to the input space (lossy unless full rank)."""
    return [tuple(means[i] + sum(row[k] * loadings[i][k] for k in range(len(row)))
                  for i in range(len(means)))
            for row in component_rows]


def test_pca_full_rank_reconstruction():
    rng = random.Random(9)
    schema = SchemaManifest(features=tuple(
        FeatureSpec(f"n{i}", "numeric", properties=BASE_PROPS) for i in range(3)))
    rows = tuple(tuple(rng.uniform(-5, 5) for _ in range(3)) for _ in range(20))
    table = DataTable(schema, rows)
    step = TransformStep("pca_project", {"inputs": ["n0", "n1", "n2"],
                                         "components": 3})
    pipeline = compose([step], schema, "to_interpretable")
    fitted = fit(pipeline, table)
    result = run(fitted, table)
    state = fitted.steps[0].fit_state
    rebuilt = pca_reconstruct(result.table.rows, state["means"], state["loadings"])
    for original, back in zip(rows, rebuilt):
        for a, b in zip(original, back):
            assert abs(a - b) <= 1e-9


def test_pca_rejects_missing_and_degenerate_rank():
    schema = SchemaManifest(features=(
        FeatureSpec("x", "numeric", properties=BASE_PROPS),
        FeatureSpec("y", "numeric", properties=BASE_PROPS),
    ))
    step = TransformStep("pca_project", {"inputs": ["x", "y"], "components": 2})
    with_missing = DataTable(schema, ((1.0, 2.0), (MISSING, 0.0)))
    with pytest.raises(KernelError, match="MISSING"):
        fit(compose([step], schema, "to_interpretable"), with_missing)
    rank_one = DataTable(schema, ((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)))
    with pytest.raises(KernelError, match="rank"):
        fit(compose([step], schema, "to_interpretable"), rank_one)


def test_pca_fit_names_the_first_input_holding_a_missing_cell():
    """In ``inputs`` order, not schema or row order: z is listed first and
    its MISSING cell is in the last row."""
    schema = SchemaManifest(features=tuple(
        FeatureSpec(name, "numeric", properties=BASE_PROPS) for name in ("x", "y", "z")))
    step = TransformStep("pca_project", {"inputs": ["z", "y", "x"], "components": 1})
    table = DataTable(schema, ((1.0, MISSING, 3.0), (MISSING, 0.0, 1.0), (2.0, 1.0, MISSING)))
    with pytest.raises(KernelError) as raised:
        fit(compose([step], schema, "to_interpretable"), table)
    assert str(raised.value) == ("step 1 (pca_project): column 'z' contains "
                                 "MISSING values; impute first")
    assert raised.value.step_number == 1


def test_pca_redistribution_weights_sum_to_one():
    rng = random.Random(77)
    loadings = [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(5)]
    weights = pca_redistribution_weights(loadings)
    for component in weights:
        assert sum(component) == pytest.approx(1.0, abs=1e-12)
        assert all(w >= 0 for w in component)


# -- link_raw -----------------------------------------------------------------------

def pulse_schema():
    return SchemaManifest(features=(
        FeatureSpec("MEAN(pulse)", "numeric",
                    raw_source=RawSource("pulse-p7", (0, 10)),
                    derived_from=None, observed=True,
                    properties=PropertySet(readable=True, trackable=True)),))


def test_link_raw_emits_lineage_and_keeps_values():
    series = [float(60 + i) for i in range(12)]
    window_mean = sum(series[0:10]) / 10
    table = DataTable(pulse_schema(), ((window_mean,), (window_mean,)))
    result = apply_step(TransformStep("link_raw", {"feature": "MEAN(pulse)",
                                                   "series": series}), table)
    assert result.table.rows == table.rows
    linked = [e for e in lineage_to_data(result.lineage) if e["origin"] == "raw_linked"]
    assert len(linked) == 2
    assert linked[0]["series_id"] == "pulse-p7"
    assert linked[0]["window"] == (0, 10)
    # simulatability: recomputing over the linked slice recovers the feature
    for row in table.rows:
        slice_mean = sum(series[0:10]) / 10
        assert abs(row[0] - slice_mean) <= 1e-9


def test_link_raw_full_window():
    table = DataTable(pulse_schema(), ((2.0,),))
    step = TransformStep("link_raw", {"feature": "MEAN(pulse)", "window": [0, 3],
                                      "series": [1.0, 2.0, 3.0]})
    result = apply_step(step, table)
    assert lineage_to_data(result.lineage)[-1]["window"] == (0, 3)


def test_link_raw_errors():
    table = DataTable(pulse_schema(), ((1.0,),))
    with pytest.raises(KernelError, match="unknown series"):
        apply_step(TransformStep("link_raw", {"feature": "MEAN(pulse)"}), table)
    with pytest.raises(KernelError, match="outside series"):
        apply_step(TransformStep("link_raw", {"feature": "MEAN(pulse)",
                                              "series": [1.0, 2.0]}), table)
    for window, message in (([0, 2.5], "window must be an integer, got 2.5"),
                            ([1], r"window must be \[start, stop\], got \[1\]")):
        with pytest.raises(ValidationError, match=message):
            compose([TransformStep("link_raw", {"feature": "MEAN(pulse)", "window": window})],
                    pulse_schema(), "to_interpretable")
    no_source = SchemaManifest(features=(FeatureSpec("plain", "numeric"),))
    with pytest.raises(ValidationError, match="raw_source"):
        compose([TransformStep("link_raw", {"feature": "plain"})],
                no_source, "to_interpretable")
    # A step that names its series and window, as the inverse of a link does,
    # needs none: a later step may have replaced the feature that had one.
    compose([TransformStep("link_raw", {"feature": "plain", "series_id": "s", "window": [0, 1]})],
            no_source, "to_interpretable")


def test_kernels_are_pure():
    rng = random.Random(55)
    table = DataTable(distance_schema(),
                      tuple((rng.uniform(0, 50), rng.uniform(0, 50))
                            for _ in range(10)))
    first = apply_step(agg_step(), table)
    second = apply_step(agg_step(), table)
    assert first.table.rows == second.table.rows


# -- lists in a config --------------------------------------------------------------

LISTS_SCHEMA = SchemaManifest(features=(
    FeatureSpec("x", "numeric", raw_source=RawSource("s", (0, 2))),
    FeatureSpec("y", "numeric"),
    FeatureSpec("c", "categorical", categories=("p", "q")),
    FeatureSpec("b", "boolean")))
SUM = {"inputs": ["x"], "formula": "sum", "target": "t"}
PCA = {"inputs": ["x", "y"], "components": 1, "means": [0, 0], "loadings": [[1.0], [0.0]]}


@pytest.mark.parametrize("kind, config", [
    ("statistical_bin", {"feature": "x", "bins": 2, "labels": "LH"}),
    ("semantic_bin", {"feature": "x", "boundaries": [0, 1.5], "labels": "LMH"}),
    ("semantic_bin", {"feature": "x", "boundaries": 5, "labels": ["a", "b"]}),
    ("one_hot_encode", {"feature": "c", "names": "PQ"}),
    ("one_hot_decode", {"group": "b", "target": "t", "categories": ["on"]}),
    ("aggregate_numeric", {**SUM, "inputs": "x"}),
    ("abstract_concept", {**SUM, "inputs": "x"}),
    ("abstract_concept", {**SUM, "labeling": {"boundaries": [0], "labels": "LH"}}),
    ("abstract_concept", {**SUM, "labeling": {"boundaries": 0, "labels": ["L", "H"]}}),
    ("pca_project", {**PCA, "inputs": "x"}),
    ("pca_project", {**PCA, "means": 0}),
    ("pca_project", {**PCA, "loadings": "ab"}),
    ("pca_project", {**PCA, "loadings": [1.0, 0.0]}),
    ("link_raw", {"feature": "x", "series": "12"}),
])
def test_a_config_list_given_as_a_scalar_is_rejected(kind, config):
    with pytest.raises(ValidationError, match=rf"^step 1 \({kind}\): [a-z ]+ must be a "
                                              "list, got "):
        compose([TransformStep(kind, config)], LISTS_SCHEMA, "to_interpretable")
