"""Contribution remapping: grouping rules, conservation, partition audits."""

from __future__ import annotations

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featurespace.errors import MappingError, ValidationError
from featurespace.explain import (
    ContributionVector,
    conservation_check,
    map_contributions,
    mapping_plan,
    read_contributions,
    write_contributions,
)
from featurespace.pipeline import as_fitted, compose, fit
from featurespace.schema import FeatureSpec, SchemaManifest
from featurespace.table import DataTable
from featurespace.transforms import KERNELS, Kernel, TransformStep

from strategies import BASE_PROPS, contributions, fitted_pipelines
from test_transforms import boolean_group_schema, decode_step


def vector_for(schema, values, base=None):
    return ContributionVector(schema=schema, values=tuple(values), base_value=base)


def by_name(vector):
    return dict(zip(vector.schema.names, vector.values))


def decode_pipeline():
    return as_fitted(compose([decode_step()], boolean_group_schema(), "to_interpretable"))


def test_every_kernel_has_a_contribution_rule():
    def lacking(direction):
        return {kind for kind, kernel in KERNELS.items()
                if getattr(type(kernel), direction) is getattr(Kernel, direction)}

    no_forward, no_reverse = lacking("forward_rule"), lacking("reverse_rule")
    assert not no_forward & no_reverse
    assert no_forward == {"one_hot_encode", "pca_project"}
    assert no_reverse == {"one_hot_decode", "aggregate_numeric", "abstract_concept"}


def test_one_hot_group_contributions_sum():
    fitted = decode_pipeline()
    contrib = vector_for(fitted.input_schema, [0.10, 0.05, -0.20, 0.00])
    result = map_contributions(fitted, contrib)
    assert result.vector.schema.names == ("Wilderness area",)
    assert result.vector.values[0] == pytest.approx(-0.05, abs=1e-12)
    assert conservation_check(contrib, result.vector).passed


def test_identity_rename_preserves_value():
    schema = SchemaManifest(features=(
        FeatureSpec("Elevation Standardized", "numeric", properties=BASE_PROPS),))
    step = TransformStep("unstandardize", {
        "feature": "Elevation Standardized", "mean": 2959.36, "scale": 279.98,
        "target": "Elevation"})
    fitted = as_fitted(compose([step], schema, "to_interpretable"))
    result = map_contributions(fitted, vector_for(schema, [0.42]))
    assert by_name(result.vector) == {"Elevation": 0.42}


def test_composite_contributions_sum_and_conserve():
    schema = SchemaManifest(features=(
        FeatureSpec("h", "numeric", properties=BASE_PROPS),
        FeatureSpec("v", "numeric", properties=BASE_PROPS),
    ))
    step = TransformStep("aggregate_numeric", {
        "inputs": ["h", "v"], "formula": "euclidean_floor",
        "target": "Distance from Hydrology"})
    fitted = as_fitted(compose([step], schema, "to_interpretable"))
    contrib = vector_for(schema, [0.3, -0.1])
    result = map_contributions(fitted, contrib)
    assert by_name(result.vector)["Distance from Hydrology"] == pytest.approx(0.2)
    assert conservation_check(contrib, result.vector).passed


def test_base_value_passes_through():
    fitted = decode_pipeline()
    contrib = vector_for(fitted.input_schema, [0.1, 0.2, 0.3, 0.4], base=1.5)
    assert map_contributions(fitted, contrib).vector.base_value == 1.5


def test_reverse_mapping_over_encode_and_flag():
    schema = SchemaManifest(features=(
        FeatureSpec("c", "categorical", categories=("a", "b"),
                    properties=BASE_PROPS),
        FeatureSpec("x", "numeric", properties=BASE_PROPS),
    ))
    steps = [TransformStep("one_hot_encode", {"feature": "c"}),
             TransformStep("impute_flagged", {"feature": "x", "strategy": "mean"})]
    table = DataTable(schema, (("a", 1.0), ("b", 2.0)))
    fitted = fit(compose(steps, schema, "to_model_ready"), table)
    model_schema = fitted.output_schema
    assert model_schema.names == ("c a", "c b", "x", "x Flag")
    contrib = vector_for(model_schema, [0.1, 0.2, 0.3, 0.05])
    result = map_contributions(fitted, contrib)
    assert by_name(result.vector) == pytest.approx({"c": 0.3, "x": 0.35})
    assert conservation_check(contrib, result.vector).passed

    exposed = map_contributions(fitted, contrib, expose_flags=True)
    assert by_name(exposed.vector) == pytest.approx({"c": 0.3, "x": 0.3})
    assert exposed.exposed_flags == {"x Flag": 0.05}
    check = conservation_check(contrib, exposed.vector,
                               extra_after=sum(exposed.exposed_flags.values()))
    assert check.passed


def test_pca_redistribution_conserves_and_notes():
    rng = random.Random(6)
    schema = SchemaManifest(features=tuple(
        FeatureSpec(f"n{i}", "numeric", properties=BASE_PROPS) for i in range(3)))
    table = DataTable(schema, tuple(
        tuple(rng.uniform(-5, 5) for _ in range(3)) for _ in range(10)))
    step = TransformStep("pca_project", {"inputs": ["n0", "n1", "n2"],
                                         "components": 2})
    fitted = fit(compose([step], schema, "to_model_ready"), table)
    contrib = vector_for(fitted.output_schema, [0.7, -0.2])
    result = map_contributions(fitted, contrib)
    assert conservation_check(contrib, result.vector).passed
    assert any("squared" in note for note in result.fidelity_notes)
    assert set(by_name(result.vector)) == {"n0", "n1", "n2"}


def test_partition_audit_counts_every_feature_once():
    fitted = decode_pipeline()
    contrib = vector_for(fitted.input_schema, [0.1, 0.2, 0.3, 0.4])
    result = map_contributions(fitted, contrib)
    for _, counts in result.partition_audit:
        assert set(counts.values()) == {1}


def test_schema_mismatch_rejected():
    fitted = decode_pipeline()
    wrong = SchemaManifest(features=(FeatureSpec("other", "numeric"),))
    with pytest.raises(MappingError, match="does not align"):
        map_contributions(fitted, vector_for(wrong, [1.0]))


def test_forward_mapping_over_encode_is_refused():
    schema = SchemaManifest(features=(
        FeatureSpec("c", "categorical", categories=("a", "b"),
                    properties=BASE_PROPS),))
    step = TransformStep("one_hot_encode", {"feature": "c"})
    fitted = as_fitted(compose([step], schema, "to_interpretable"))
    with pytest.raises(MappingError, match="no contribution rule"):
        map_contributions(fitted, vector_for(schema, [0.5]))


def test_non_finite_contributions_rejected():
    schema = SchemaManifest(features=(FeatureSpec("x", "numeric"),))
    with pytest.raises(ValidationError, match="not finite"):
        vector_for(schema, [float("nan")])


def test_conservation_check_detects_perturbation():
    schema = SchemaManifest(features=(
        FeatureSpec("a", "numeric"), FeatureSpec("b", "numeric")))
    before = vector_for(schema, [0.5, 0.5])
    same = vector_for(schema, [0.6, 0.4])
    assert conservation_check(before, same).passed
    off = vector_for(schema, [0.5, 0.501])
    result = conservation_check(before, off)
    assert not result.passed
    assert result.delta == pytest.approx(1e-3, rel=1e-6)


def test_contribution_csv_round_trip():
    schema = SchemaManifest(features=(
        FeatureSpec("a", "numeric"), FeatureSpec("b", "numeric")))
    vectors = [vector_for(schema, [0.125, -2.5], base=0.75),
               vector_for(schema, [1e-9, 3.25], base=0.5)]
    buf = io.StringIO()
    write_contributions(vectors, buf)
    back = read_contributions(io.StringIO(buf.getvalue()), schema)
    assert back == vectors
    with pytest.raises(MappingError, match="does not match"):
        read_contributions(io.StringIO("x,y\n1,2\n"), schema)


def test_contribution_csv_blank_last_line_is_not_a_row():
    schema = SchemaManifest(features=(FeatureSpec("a", "numeric"),))
    assert read_contributions(io.StringIO("a\n1.0\n\n"), schema) == \
        [vector_for(schema, [1.0])]
    for text in ("a\n1.0\n\n2.0\n", "a\n1.0\n\n\n"):
        with pytest.raises(ValidationError, match="^contribution row 1: expected 1 fields$"):
            read_contributions(io.StringIO(text), schema)


@pytest.mark.parametrize("row, message", [
    ("inf,1.0,0.5", "contribution row 1: contribution for 'a' is not finite: inf"),
    ("1.0,nan,inf", "contribution row 1: contribution for 'b' is not finite: nan"),
    ("1.0,2.0,-inf", "contribution row 1: base value is not finite: -inf"),
    ("1.0,x,0.5", "contribution row 1: could not convert string to float: 'x'"),
])
def test_contribution_csv_rejects_a_non_finite_or_non_numeric_row(row, message):
    schema = SchemaManifest(features=(
        FeatureSpec("a", "numeric"), FeatureSpec("b", "numeric")))
    text = f"a,b,__base__\n1.0,2.0,0.5\n{row}\n"
    with pytest.raises(ValidationError) as info:
        read_contributions(io.StringIO(text), schema)
    assert str(info.value) == message


def test_contribution_csv_reads_finite_values_whose_sum_overflows():
    schema = SchemaManifest(features=(
        FeatureSpec("a", "numeric"), FeatureSpec("b", "numeric")))
    text = "a,b,__base__\n1.7e308,1.7e308,1.7e308\n"
    assert read_contributions(io.StringIO(text), schema) == \
        [vector_for(schema, [1.7e308, 1.7e308], base=1.7e308)]


# -- randomized conservation over mixed pipelines ------------------------------

@settings(max_examples=120, deadline=None)
@given(fitted_pipelines(mappable=True), st.data())
def test_randomized_conservation_and_partition(pair, data):
    fitted = pair[0]
    contrib = data.draw(contributions(mapping_plan(fitted).expected))
    result = map_contributions(fitted, contrib)
    assert conservation_check(contrib, result.vector).passed
    for _, counts in result.partition_audit:
        assert set(counts.values()) <= {1}
