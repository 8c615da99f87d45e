"""Contribution remapping: grouping rules, conservation, partition audits."""

from __future__ import annotations

import io
import random

import pytest

from featurespace.errors import MappingError, ValidationError
from featurespace.explain import (
    ContributionVector,
    conservation_check,
    map_contributions,
    read_contributions,
    write_contributions,
)
from featurespace.pipeline import as_fitted, compose, fit, run
from featurespace.schema import FeatureSpec, SchemaManifest
from featurespace.table import DataTable
from featurespace.transforms import KERNELS, Kernel, TransformStep

from _generators import BASE_PROPS, random_table


def vector_for(schema, values, base=None):
    return ContributionVector(schema=schema, values=tuple(values), base_value=base)


def area_group_schema():
    return SchemaManifest(features=tuple(
        FeatureSpec(name, "boolean", properties=BASE_PROPS)
        for name in ("Area Rawah", "Area Neota", "Area Comache Peak",
                     "Area Cache la Poudre")
    ))


def decode_pipeline():
    step = TransformStep("one_hot_decode", {
        "group": ["Area Rawah", "Area Neota", "Area Comache Peak",
                  "Area Cache la Poudre"],
        "target": "Wilderness area",
        "categories": ["Rawah", "Neota", "Comache Peak", "Cache la Poudre"],
    })
    return as_fitted(compose([step], area_group_schema(), "to_interpretable"))


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
    assert result.vector.as_dict() == {"Elevation": 0.42}


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
    assert result.vector.as_dict()["Distance from Hydrology"] == pytest.approx(0.2)
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
    assert result.vector.as_dict() == pytest.approx({"c": 0.3, "x": 0.35})
    assert conservation_check(contrib, result.vector).passed

    exposed = map_contributions(fitted, contrib, expose_flags=True)
    assert exposed.vector.as_dict() == pytest.approx({"c": 0.3, "x": 0.3})
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
    assert set(result.vector.as_dict()) == {"n0", "n1", "n2"}


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


# -- randomized conservation over mixed pipelines ------------------------------

def random_model_ready_case(rng: random.Random):
    """(fitted to_model_ready pipeline, vector on its output schema)."""
    n_num = rng.randint(2, 4)
    features = [FeatureSpec("cat", "categorical",
                            categories=("a", "b", "c"), properties=BASE_PROPS)]
    features += [FeatureSpec(f"n{i}", "numeric", properties=BASE_PROPS)
                 for i in range(n_num)]
    schema = SchemaManifest(features=tuple(features))
    table = random_table(rng, schema, n_rows=rng.randint(6, 15),
                         missing_rate=0.2)
    steps = [TransformStep("one_hot_encode", {"feature": "cat"})]
    for i in range(n_num):
        steps.append(TransformStep("impute_flagged",
                                   {"feature": f"n{i}", "strategy": "constant",
                                    "constant": 0}))
    if rng.random() < 0.7:
        steps.append(TransformStep("pca_project", {
            "inputs": [f"n{i}" for i in range(min(2, n_num))] if n_num == 2
            else [f"n{i}" for i in range(n_num)],
            "components": 2}))
    if rng.random() < 0.5:
        steps.append(TransformStep("statistical_bin", {
            "feature": "PCA 1" if any(s.kind == "pca_project" for s in steps)
            else f"n{n_num - 1}",
            "bins": 3, "labels": ["lo", "mid", "hi"]}))
    fitted = fit(compose(steps, schema, "to_model_ready"), table)
    values = [rng.uniform(-1, 1) for _ in fitted.output_schema.names]
    return fitted, vector_for(fitted.output_schema, values)


def random_interpretable_case(rng: random.Random):
    """(fitted to_interpretable pipeline, vector on its input schema)."""
    features = [
        FeatureSpec("g a", "boolean", properties=BASE_PROPS),
        FeatureSpec("g b", "boolean", properties=BASE_PROPS),
        FeatureSpec("h", "numeric", properties=BASE_PROPS),
        FeatureSpec("v", "numeric", properties=BASE_PROPS),
        FeatureSpec("z", "numeric", properties=BASE_PROPS),
    ]
    schema = SchemaManifest(features=tuple(features))
    rows = []
    for _ in range(rng.randint(5, 12)):
        first = rng.random() < 0.5
        rows.append((first, not first, rng.uniform(-9, 9), rng.uniform(-9, 9),
                     rng.uniform(-9, 9)))
    table = DataTable(schema, tuple(rows))
    steps = [TransformStep("one_hot_decode", {
        "group": ["g a", "g b"], "target": "g", "categories": ["a", "b"]})]
    if rng.random() < 0.6:
        steps.append(TransformStep("aggregate_numeric", {
            "inputs": ["h", "v"], "formula": rng.choice(["sum", "mean"]),
            "target": "combined"}))
    if rng.random() < 0.6:
        steps.append(TransformStep("abstract_concept", {
            "inputs": ["z"], "formula": "sum",
            "labeling": {"boundaries": [0], "labels": ["neg", "pos"]},
            "target": "sign of z"}))
    else:
        steps.append(TransformStep("semantic_bin", {
            "feature": "z", "boundaries": [0], "labels": ["neg", "pos"]}))
    fitted = fit(compose(steps, schema, "to_interpretable"), table)
    values = [rng.uniform(-1, 1) for _ in schema.names]
    return fitted, vector_for(schema, values)


def test_randomized_conservation_and_partition():
    rng = random.Random(321)
    for trial in range(120):
        if trial % 2 == 0:
            fitted, contrib = random_model_ready_case(rng)
        else:
            fitted, contrib = random_interpretable_case(rng)
        result = map_contributions(fitted, contrib)
        assert conservation_check(contrib, result.vector).passed
        for _, counts in result.partition_audit:
            assert set(counts.values()) <= {1}
