"""Pipeline composition, fitting, running, inversion, and propagation."""

from __future__ import annotations

import random

import pytest

from featurespace.errors import KernelError, ValidationError
from featurespace.lineage import lineage_to_data
from featurespace.pipeline import (
    InversionRefusal,
    as_fitted,
    compose,
    fit,
    invert,
    load_fitted,
    load_pipeline,
    run,
    save_fitted,
)
from featurespace.schema import FeatureSpec, SchemaManifest, serialize_manifest
from featurespace.table import MISSING, DataTable
from featurespace.transforms import EXACT_KINDS, KERNELS, Standardize, TransformStep

from _generators import BASE_PROPS, random_exact_pipeline, random_schema, random_table
from _tables import tables_equal


def one_hot_area_schema():
    return SchemaManifest(features=tuple(
        FeatureSpec(name, "boolean", properties=BASE_PROPS)
        for name in ("Area Rawah", "Area Neota", "Area Comache Peak",
                     "Area Cache la Poudre")
    ))


def area_decode_step(**overrides):
    cfg = {
        "group": ["Area Rawah", "Area Neota", "Area Comache Peak",
                  "Area Cache la Poudre"],
        "target": "Wilderness area",
        "categories": ["Rawah", "Neota", "Comache Peak", "Cache la Poudre"],
        "wording": {"value": "wilderness area is {value}"},
    }
    cfg.update(overrides)
    return TransformStep("one_hot_decode", cfg)


def test_compose_decode_produces_categorical_output():
    pipeline = compose([area_decode_step()], one_hot_area_schema(),
                       "to_interpretable")
    assert "Wilderness area" in pipeline.output_schema
    assert pipeline.output_schema.space_tag == "interpretable"


def test_compose_empty_is_identity():
    schema = one_hot_area_schema()
    pipeline = compose([], schema, "to_interpretable")
    assert pipeline.output_schema == schema
    fitted = as_fitted(pipeline)
    table = DataTable(schema, ((True, False, False, False),))
    result = run(fitted, table)
    assert result.table.rows == table.rows
    assert result.fidelity_notes == ()
    assert len(result.lineage) == 0
    assert lineage_to_data(result.lineage) == []


def test_compose_dangling_reference_names_the_step():
    schema = SchemaManifest(features=(
        FeatureSpec("Elevation", "numeric", properties=BASE_PROPS),))
    step = TransformStep("standardize", {"feature": "Elevatoin",
                                         "mean": 0.0, "scale": 1.0})
    with pytest.raises(ValidationError, match=r"step 1 \(standardize\).*Elevatoin"):
        compose([step], schema, "to_interpretable")


def test_fit_standardize_matches_single_pass_oracle():
    rng = random.Random(2)
    schema = SchemaManifest(features=(
        FeatureSpec("x", "numeric", properties=BASE_PROPS),))
    values = [rng.uniform(-100, 100) for _ in range(200)]
    table = DataTable(schema, tuple((v,) for v in values))
    pipeline = compose([TransformStep("standardize", {"feature": "x"})],
                       schema, "to_model_ready")
    fitted = fit(pipeline, table)
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    state = fitted.steps[0].fit_state
    assert abs(state["mean"] - mean) <= 1e-9
    assert abs(state["scale"] - variance ** 0.5) <= 1e-9


def test_fit_without_fittable_steps_is_identity():
    schema = one_hot_area_schema()
    table = DataTable(schema, ((False, True, False, False),))
    pipeline = compose([area_decode_step()], schema, "to_interpretable")
    fitted = fit(pipeline, table)
    assert all(fs.fit_state is None for fs in fitted.steps)
    assert run(fitted, table).table.rows[0] == ("Neota",)


def test_run_fidelity_notes_mark_lossy_steps():
    schema = SchemaManifest(features=(
        FeatureSpec("x", "numeric", properties=BASE_PROPS),))
    table = DataTable(schema, ((1.0,), (2.0,), (3.0,)))
    step = TransformStep("statistical_bin", {"feature": "x", "bins": 2,
                                             "labels": ["lo", "hi"]})
    result = run(fit(compose([step], schema, "to_interpretable"), table), table)
    assert len(result.fidelity_notes) == 1
    assert "statistical_bin" in result.fidelity_notes[0]


def test_run_wraps_kernel_errors_with_step_and_row():
    schema = SchemaManifest(features=(
        FeatureSpec("x", "numeric", properties=BASE_PROPS),))
    step = TransformStep("statistical_bin", {"feature": "x", "bins": 2,
                                             "min": 0, "max": 1,
                                             "labels": ["lo", "hi"]})
    fitted = as_fitted(compose([step], schema, "to_interpretable"))
    table = DataTable(schema, ((0.5,), (5.0,)))
    with pytest.raises(KernelError) as err:
        run(fitted, table)
    assert err.value.step_number == 1
    assert err.value.row_index == 1
    assert "step 1 (statistical_bin)" in str(err.value)


def test_run_rejects_a_wrong_typed_produced_cell(monkeypatch):
    schema = SchemaManifest(features=(
        FeatureSpec("x", "numeric", properties=BASE_PROPS),))
    step = TransformStep("standardize", {"feature": "x", "mean": 0.0, "scale": 1.0,
                                         "target": "z"})
    fitted = as_fitted(compose([step], schema, "to_model_ready"))
    apply = Standardize.apply

    def corrupt(self, table, cfg):
        columns, lineage = apply(self, table, cfg)
        return [[columns[0][0], "oops", *columns[0][2:]]], lineage

    monkeypatch.setattr(Standardize, "apply", corrupt)
    table = DataTable(schema, ((1.0,), (2.0,), (3.0,)))
    with pytest.raises(KernelError, match="^step 1 \\(standardize\\): row 1: feature 'z': "
                                          "expected number, got 'oops'$") as err:
        run(fitted, table)
    assert err.value.step_number == 1


def test_invert_reverses_step_order():
    schema = SchemaManifest(features=(
        FeatureSpec("c", "categorical", categories=("a", "b"),
                    properties=BASE_PROPS),
        FeatureSpec("x", "numeric", properties=BASE_PROPS),
    ))
    steps = [TransformStep("one_hot_encode", {"feature": "c"}),
             TransformStep("standardize", {"feature": "x", "mean": 1.0,
                                           "scale": 2.0})]
    fitted = as_fitted(compose(steps, schema, "to_model_ready"))
    inverse = invert(fitted)
    assert [fs.step.kind for fs in inverse.steps] == ["unstandardize",
                                                      "one_hot_decode"]
    assert inverse.direction == "to_interpretable"


def test_invert_refuses_lossy_pipelines():
    schema = SchemaManifest(features=(
        FeatureSpec("x", "numeric", properties=BASE_PROPS),))
    steps = [TransformStep("semantic_bin", {"feature": "x", "boundaries": [0],
                                            "labels": ["neg", "pos"]})]
    fitted = as_fitted(compose(steps, schema, "to_interpretable"))
    refusal = invert(fitted)
    assert isinstance(refusal, InversionRefusal)
    assert refusal.non_invertible == ((1, "semantic_bin"),)
    assert "semantic_bin" in refusal.message


def test_a_kind_is_exact_iff_its_kernel_has_an_inverse():
    assert EXACT_KINDS == ("one_hot_encode", "one_hot_decode", "standardize",
                           "unstandardize", "render_statement", "unrender_statement",
                           "link_raw")
    for kind, kernel in KERNELS.items():
        assert (kind in EXACT_KINDS) == callable(kernel.inverse), kind


def test_fidelity_notes_empty_iff_invertible():
    rng = random.Random(19)
    for _ in range(20):
        schema = random_schema(rng)
        pipeline = random_exact_pipeline(rng, schema)
        table = random_table(rng, schema, missing_rate=0.1)
        fitted = fit(pipeline, table)
        result = run(fitted, table)
        inverted = invert(fitted)
        if result.fidelity_notes:
            assert isinstance(inverted, InversionRefusal)
        else:
            assert not isinstance(inverted, InversionRefusal)


def test_round_trip_identity_on_random_exact_pipelines():
    rng = random.Random(101)
    for _ in range(50):
        schema = random_schema(rng)
        pipeline = random_exact_pipeline(rng, schema)
        table = random_table(rng, schema, missing_rate=0.1)
        fitted = fit(pipeline, table)
        forward = run(fitted, table)
        inverse = invert(fitted)
        assert not isinstance(inverse, InversionRefusal)
        back = run(inverse, forward.table)
        assert tables_equal(back.table, table, numeric_tol=1e-9)


def test_double_inversion_restores_step_signatures():
    rng = random.Random(202)
    for _ in range(25):
        schema = random_schema(rng)
        pipeline = random_exact_pipeline(rng, schema)
        table = random_table(rng, schema, missing_rate=0.05)
        fitted = fit(pipeline, table)
        twice = invert(invert(fitted))
        assert [fs.signature() for fs in twice.steps] == \
               [fs.signature() for fs in fitted.steps]


def test_static_output_schema_matches_run_output():
    rng = random.Random(303)
    for _ in range(25):
        schema = random_schema(rng)
        pipeline = random_exact_pipeline(rng, schema)
        table = random_table(rng, schema, missing_rate=0.1)
        fitted = fit(pipeline, table)
        result = run(fitted, table)
        assert result.output_schema == fitted.output_schema
        assert result.table.schema == fitted.output_schema


def test_lineage_covers_every_changed_cell():
    schema = SchemaManifest(features=(
        FeatureSpec("x", "numeric", properties=BASE_PROPS),
        FeatureSpec("y", "numeric", properties=BASE_PROPS),
    ))
    table = DataTable(schema, ((1.0, 2.0), (MISSING, 3.0)))
    steps = [TransformStep("impute_flagged", {"feature": "x", "strategy": "mean"}),
             TransformStep("standardize", {"feature": "y", "mean": 0.0,
                                           "scale": 2.0})]
    result = run(fit(compose(steps, schema, "to_model_ready"), table), table)
    covered = {(e["row"], e["feature"]) for e in lineage_to_data(result.lineage)
               if e["origin"] in ("imputed", "computed")}
    out = result.table
    for r, row in enumerate(out.rows):
        for name in out.schema.names:
            if name in schema:
                before = table.rows[r][schema.index(name)]
                after = row[out.schema.index(name)]
                changed = not (before is after or before == after)
            else:
                changed = True
            if changed:
                assert (r, name) in covered


def test_propagate_decode_sets_human_worded_and_readable():
    fitted = as_fitted(compose([area_decode_step()], one_hot_area_schema(),
                               "to_interpretable"))
    manifest = fitted.output_schema
    spec = manifest.feature("Wilderness area")
    assert spec.properties.human_worded
    assert spec.properties.readable


def test_propagate_standardize_sets_model_ready_and_compatible():
    schema = SchemaManifest(features=(
        FeatureSpec("x", "numeric",
                    properties=BASE_PROPS.with_flags(model_compatible=False)),))
    step = TransformStep("standardize", {"feature": "x", "mean": 0.0, "scale": 1.0})
    fitted = as_fitted(compose([step], schema, "to_model_ready"))
    spec = fitted.output_schema.feature("x")
    assert spec.properties.model_ready
    assert spec.properties.model_compatible  # via closure


def test_propagate_rejects_contradictory_overrides():
    schema = one_hot_area_schema()
    step = area_decode_step()
    bad = TransformStep(step.kind, step.config,
                        {"Wilderness area": {"human_worded": True,
                                             "readable": False}})
    with pytest.raises(ValidationError, match="readable=false"):
        compose([bad], schema, "to_interpretable")


def test_property_delta_must_name_produced_features():
    step = area_decode_step()
    bad = TransformStep(step.kind, step.config, {"ghost": {"readable": True}})
    with pytest.raises(ValidationError, match="does not produce"):
        compose([bad], one_hot_area_schema(), "to_interpretable")


@pytest.mark.parametrize("flags, message", [
    ({"meaningful": "false"}, "meaningful must be true or false"),
    ({"bogus": True}, r"unknown flags: \['bogus'\]"),
], ids=["quoted_false", "unknown_flag"])
def test_property_delta_flags_are_checked_on_the_step(flags, message):
    """A step built in Python gets the checks a document's step gets."""
    step = area_decode_step()
    with pytest.raises(ValidationError, match=message):
        TransformStep(step.kind, step.config, {"Wilderness area": flags})


def test_fitted_document_round_trip(tmp_path):
    rng = random.Random(404)
    schema = random_schema(rng, dtypes=["numeric", "categorical", "boolean"])
    table = random_table(rng, schema, missing_rate=0.0)
    steps = [TransformStep("standardize", {"feature": "col0"}),
             TransformStep("one_hot_encode", {"feature": "col1"})]
    fitted = fit(compose(steps, schema, "to_model_ready"), table)
    path = tmp_path / "pipeline.fitted.json"
    save_fitted(fitted, path)
    loaded = load_fitted(path)
    assert [fs.signature() for fs in loaded.steps] == \
           [fs.signature() for fs in fitted.steps]
    assert loaded.output_schema == fitted.output_schema
    result_a = run(fitted, table)
    result_b = run(loaded, table)
    assert tables_equal(result_a.table, result_b.table)


def test_pipeline_document_loading(tmp_path):
    manifest_path = tmp_path / "m.yaml"
    schema = SchemaManifest(features=(
        FeatureSpec("x", "numeric", properties=BASE_PROPS),))
    manifest_path.write_text(serialize_manifest(schema), encoding="utf-8")
    doc = """
input_manifest: m.yaml
direction: to_model_ready
steps:
  - kind: standardize
    config: {feature: x, mean: 0.0, scale: 2.0}
"""
    pipeline_path = tmp_path / "p.yaml"
    pipeline_path.write_text(doc, encoding="utf-8")
    pipeline = load_pipeline(pipeline_path)
    assert pipeline.direction == "to_model_ready"
    assert pipeline.steps[0].config["scale"] == 2.0
    bad = tmp_path / "bad.yaml"
    bad.write_text(doc + "mystery: 1\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="mystery"):
        load_pipeline(bad)


def test_run_requires_matching_table():
    schema = SchemaManifest(features=(
        FeatureSpec("x", "numeric", properties=BASE_PROPS),))
    other = SchemaManifest(features=(
        FeatureSpec("y", "numeric", properties=BASE_PROPS),))
    fitted = as_fitted(compose([], schema, "to_interpretable"))
    with pytest.raises(ValidationError, match="missing pipeline input columns"):
        run(fitted, DataTable(other, ((1.0,),)))
