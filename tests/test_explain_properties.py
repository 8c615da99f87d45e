"""Properties of the compiled contribution-mapping plans and their cache."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from featurespace.errors import KernelError, ValidationError
from featurespace.explain import conservation_check, map_contributions, mapping_plan
from featurespace.pipeline import as_fitted, compose, fit
from featurespace.schema import FeatureSpec, SchemaManifest
from featurespace.table import DataTable
from featurespace.transforms import TransformStep

from _generators import BASE_PROPS
from _reference_mapping import reference_map
from test_explain import random_interpretable_case, random_model_ready_case, vector_for

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


def case(seed: int, large: bool = True):
    """A fitted pipeline and vectors on its model-ready side, from a seed. With
    ``large``, values include signed zeros and cancelling +-1e12 terms."""
    rng = random.Random(seed)
    build = random_model_ready_case if seed % 2 == 0 else random_interpretable_case
    try:
        fitted, contrib = build(rng)
    except KernelError:
        reject()
    choices = (0.0, -0.0, 1e12, -1e12) if large else (0.0, -0.0)
    vectors = [contrib]
    for _ in range(3):
        values = [rng.choice(choices) if rng.random() < 0.3 else rng.gauss(0.0, 1.0)
                  for _ in contrib.values]
        vectors.append(vector_for(contrib.schema, values, rng.choice((None, -0.0, 0.5))))
    return fitted, vectors


def outcome(map_fn, fitted, vector, expose_flags):
    """Everything a mapping returns, as text, or the error it raised."""
    try:
        result = map_fn(fitted, vector, expose_flags)
    except ValidationError as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr((result.vector.schema.names, result.vector.values,
                 result.vector.base_value, result.fidelity_notes,
                 dict(result.exposed_flags),
                 [(number, dict(counts)) for number, counts in result.partition_audit]))


@PROPERTY_SETTINGS
@given(SEEDS)
def test_used_pipeline_maps_like_a_fresh_one_and_the_reference(seed):
    used, vectors = case(seed)
    for vector in vectors:
        for flags in (False, True):
            map_contributions(used, vector, flags)
    for vector in vectors:
        for flags in (True, False):
            fresh, _ = case(seed)
            assert fresh.mapping_plans == {}
            expected = outcome(reference_map, fresh, vector, flags)
            assert outcome(map_contributions, fresh, vector, flags) == expected
            assert outcome(map_contributions, used, vector, flags) == expected


@PROPERTY_SETTINGS
@given(SEEDS)
def test_alternating_expose_flags_keep_separate_plans(seed):
    fitted, vectors = case(seed)
    for i, vector in enumerate(vectors * 2):
        flags = i % 2 == 0
        assert outcome(map_contributions, fitted, vector, flags) == \
            outcome(reference_map, fitted, vector, flags)
    assert mapping_plan(fitted, True) is not mapping_plan(fitted, False)


def pca_pipeline(rng: random.Random):
    schema = SchemaManifest(features=tuple(
        FeatureSpec(f"n{i}", "numeric", properties=BASE_PROPS) for i in range(3)))
    table = DataTable(schema, tuple(
        tuple(rng.uniform(-5, 5) for _ in range(3)) for _ in range(8)))
    step = TransformStep("pca_project", {"inputs": ["n0", "n1", "n2"], "components": 2})
    return fit(compose([step], schema, "to_model_ready"), table)


@PROPERTY_SETTINGS
@given(SEEDS)
def test_pipelines_with_different_loadings_never_share_a_plan(seed):
    rng = random.Random(seed)
    first, second = pca_pipeline(rng), pca_pipeline(rng)
    if first.steps[0].fit_state["loadings"] == second.steps[0].fit_state["loadings"]:
        reject()
    vector = vector_for(first.output_schema, [rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)])
    for fitted in (first, second, first, second):
        assert outcome(map_contributions, fitted, vector, False) == \
            outcome(reference_map, fitted, vector, False)
    assert mapping_plan(first) is not mapping_plan(second)
    for _ in range(4):
        # Each pipeline is dropped before the next is built, so object ids recur.
        fitted = pca_pipeline(rng)
        assert outcome(map_contributions, fitted, vector, False) == \
            outcome(reference_map, fitted, vector, False)
        del fitted


def encode_forward():
    schema = SchemaManifest(features=(
        FeatureSpec("c", "categorical", categories=("a", "b"), properties=BASE_PROPS),))
    return as_fitted(compose([TransformStep("one_hot_encode", {"feature": "c"})],
                             schema, "to_interpretable"))


def zero_loadings():
    schema = SchemaManifest(features=tuple(
        FeatureSpec(name, "numeric", properties=BASE_PROPS) for name in ("a", "b")))
    step = TransformStep("pca_project", {"inputs": ["a", "b"], "components": 1,
                                         "means": [0.0, 0.0],
                                         "loadings": [[0.0], [0.0]]})
    return as_fitted(compose([step], schema, "to_model_ready"))


@pytest.mark.parametrize("build, message", [
    (encode_forward, "no contribution rule in the forward direction"),
    (zero_loadings, "zero loadings"),
])
def test_unmappable_pipeline_raises_on_every_call(build, message):
    fitted = build()
    side = fitted.input_schema if fitted.direction == "to_interpretable" \
        else fitted.output_schema
    vector = vector_for(side, [0.5] * len(side.names))
    expected = outcome(reference_map, fitted, vector, False)
    assert message in expected
    for _ in range(3):
        assert outcome(map_contributions, fitted, vector, False) == expected
    wrong = vector_for(SchemaManifest(features=(FeatureSpec("other", "numeric"),)), [1.0])
    assert "does not align" in outcome(map_contributions, fitted, wrong, False)


@PROPERTY_SETTINGS
@given(SEEDS)
def test_conservation_and_all_ones_partition_audit(seed):
    fitted, vectors = case(seed, large=False)
    for vector in vectors:
        for flags in (False, True):
            result = map_contributions(fitted, vector, flags)
            check = conservation_check(vector, result.vector,
                                       extra_after=sum(result.exposed_flags.values()))
            assert check.passed
            assert result.partition_audit
            for _, counts in result.partition_audit:
                assert set(counts.values()) == {1}
