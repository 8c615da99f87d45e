"""Properties of the compiled contribution-mapping plans and their cache."""

from __future__ import annotations

import copy
import dataclasses
import io
import math
import random
import re

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from featurespace.errors import KernelError, ValidationError
from featurespace.explain import (
    conservation_check,
    map_batch,
    map_contributions,
    mapping_plan,
    read_contributions,
    write_contributions,
)
from featurespace.pipeline import as_fitted, compose, fit, load_fitted
from featurespace.schema import FeatureSpec, SchemaManifest
from featurespace.transforms import TransformStep, sum_in_order

from _fitted_documents import DATA
from _reference_mapping import reference_map
from strategies import BASE_PROPS, contributions, fitted_pipelines, pipelines, schemas, tables
from test_explain import vector_for

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def cases(draw, large: bool = True):
    """A fitted pipeline and vectors on its model-ready side: one of values in
    [-1, 1], and three with a base value. With ``large``, their values include
    signed zeros, cancelling +-1e12 terms and +-1.7e308 terms whose sums can
    overflow."""
    fitted, _ = draw(fitted_pipelines(mappable=True))
    side = mapping_plan(copy.copy(fitted)).expected  # a copy: the drawn one has no plan
    special = (0.0, -0.0, 1e12, -1e12, 1.7e308, -1.7e308) if large else (0.0, -0.0)
    return fitted, [draw(contributions(side))] + [
        draw(contributions(side, 3.0, special, (None, -0.0, 0.5))) for _ in range(3)]


def outcome(map_fn, fitted, vector, expose_flags):
    """Everything a mapping returns, as text, or the error it raised."""
    try:
        result = map_fn(fitted, vector, expose_flags)
    except ValidationError as exc:
        return f"{type(exc).__name__}: {exc}"
    assert {type(v) for v in result.vector.values} <= {float}
    return repr((result.vector.schema.names, result.vector.values,
                 result.vector.base_value, result.fidelity_notes,
                 dict(result.exposed_flags),
                 [(number, dict(counts)) for number, counts in result.partition_audit]))


@PROPERTY_SETTINGS
@given(cases())
def test_used_pipeline_maps_like_a_fresh_one_and_the_reference(case):
    used, vectors = case
    for vector in vectors:
        for flags in (False, True):
            outcome(map_contributions, used, vector, flags)
    for vector in vectors:
        for flags in (True, False):
            fresh = copy.copy(used)  # the same steps, with no plan compiled
            assert fresh.mapping_plans == {}
            expected = outcome(reference_map, fresh, vector, flags)
            assert outcome(map_contributions, fresh, vector, flags) == expected
            assert outcome(map_contributions, used, vector, flags) == expected


@PROPERTY_SETTINGS
@given(cases())
def test_alternating_expose_flags_keep_separate_plans(case):
    fitted, vectors = case
    for i, vector in enumerate(vectors * 2):
        flags = i % 2 == 0
        assert outcome(map_contributions, fitted, vector, flags) == \
            outcome(reference_map, fitted, vector, flags)
    assert mapping_plan(fitted, True) is not mapping_plan(fitted, False)


# A PCA step of two or three inputs whose loadings ``fit`` learns.
PCA_PIPELINES = schemas(["numeric"] * 3).flatmap(lambda schema: pipelines(
    schema, direction="to_model_ready", min_steps=0, max_steps=0, first=("pca_project",)
)).filter(lambda pipeline: pipeline.steps[0].config["loadings"] is None
          and len(pipeline.steps[0].config["inputs"]) > 1)


@PROPERTY_SETTINGS
@given(PCA_PIPELINES, st.data())
def test_pipelines_with_different_loadings_never_share_a_plan(pipeline, data):
    def pca_pipeline(table):  # the drawn step, fitted on ``table``
        try:
            return fit(pipeline, table)
        except KernelError:  # a table of lower rank than the components
            reject()

    drawn = [data.draw(tables(pipeline.input_schema, missing=0.0)) for _ in range(6)]
    first, second = pca_pipeline(drawn[0]), pca_pipeline(drawn[1])
    if first.steps[0].config["loadings"] == second.steps[0].config["loadings"]:
        reject()
    vector = data.draw(contributions(first.output_schema))
    for fitted in (first, second, first, second):
        assert outcome(map_contributions, fitted, vector, False) == \
            outcome(reference_map, fitted, vector, False)
    assert mapping_plan(first) is not mapping_plan(second)
    for table in drawn[2:]:
        # The tables are drawn first and each pipeline is dropped before the
        # next is fitted, so object ids recur.
        fitted = pca_pipeline(table)
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
    # The plan is compiled before the vector's alignment is checked.
    wrong = vector_for(SchemaManifest(features=(FeatureSpec("other", "numeric"),)), [1.0])
    assert outcome(map_contributions, fitted, wrong, False) == expected


@PROPERTY_SETTINGS
@given(cases(large=False))
def test_conservation_and_all_ones_partition_audit(case):
    fitted, vectors = case
    for vector in vectors:
        for flags in (False, True):
            result = map_contributions(fitted, vector, flags)
            check = conservation_check(vector, result.vector,
                                       extra_after=sum(result.exposed_flags.values()))
            assert check.passed
            assert result.partition_audit
            for _, counts in result.partition_audit:
                assert set(counts.values()) == {1}


def test_overflow_maps_like_the_reference():
    """A sum that overflows fails as the reference fails; finite values whose
    total overflows still map."""
    schema = SchemaManifest(features=(
        FeatureSpec("g a", "boolean", properties=BASE_PROPS),
        FeatureSpec("g b", "boolean", properties=BASE_PROPS),
        FeatureSpec("h", "numeric", properties=BASE_PROPS)))
    step = TransformStep("one_hot_decode", {"group": ["g a", "g b"], "target": "g",
                                            "categories": ["a", "b"]})
    fitted = as_fitted(compose([step], schema, "to_interpretable"))
    for values, error in (((1.7e308, 1.7e308, 0.0), True),
                          ((-1.7e308, -1.7e308, 0.0), True),
                          ((1.7e308, 0.0, 1.7e308), False)):
        vector = vector_for(schema, values)
        expected = outcome(reference_map, fitted, vector, False)
        assert expected.startswith("ValidationError: contribution for 'g' is not finite") \
            is error
        assert outcome(map_contributions, fitted, vector, False) == expected


def wide_encode(rng: random.Random):
    categories = tuple(f"k{i}" for i in range(5_000))
    schema = SchemaManifest(features=(FeatureSpec("c", "categorical", categories=categories,
                                                  properties=BASE_PROPS),))
    return as_fitted(compose([TransformStep("one_hot_encode", {"feature": "c"})],
                             schema, "to_model_ready"))


def wide_pca(rng: random.Random):
    inputs = [f"n{i}" for i in range(240)]
    schema = SchemaManifest(features=tuple(
        FeatureSpec(name, "numeric", properties=BASE_PROPS) for name in inputs))
    components = 25
    step = TransformStep("pca_project", {
        "inputs": inputs, "components": components, "means": [0.0] * len(inputs),
        "loadings": [[rng.gauss(0.0, 1.0) for _ in range(components)] for _ in inputs]})
    return as_fitted(compose([step], schema, "to_model_ready"))


@pytest.mark.parametrize("build", [wide_encode, wide_pca])
def test_wide_plans_map_like_the_reference(build):
    """Thousands of terms in one sum, or thousands of statements in all."""
    rng = random.Random(11)
    fitted = build(rng)
    side = fitted.output_schema
    for choices in ((0.0, -0.0, 1e12, -1e12), (1.7e308,)):
        values = [rng.choice(choices) if rng.random() < 0.3 else rng.gauss(0.0, 1.0)
                  for _ in side.names]
        vector = vector_for(side, values, 0.5)
        assert outcome(map_contributions, fitted, vector, False) == \
            outcome(reference_map, fitted, vector, False)


HOSTILE = ('x") or __import__("os").getcwd() or ("', "it's \"quoted\"", "new\nline",
           "__import__", "back\\slash", "1e308", "_f1")


def hostile_pipeline():
    """Every name the plan sees comes from ``HOSTILE``: features, categories,
    an imputation flag and PCA components."""
    category, number, flag, first, second = (HOSTILE[0], HOSTILE[1], HOSTILE[2],
                                              HOSTILE[3], HOSTILE[4])
    schema = SchemaManifest(features=(
        FeatureSpec(category, "categorical", categories=(HOSTILE[5], HOSTILE[6]),
                    properties=BASE_PROPS),
        FeatureSpec(number, "numeric", properties=BASE_PROPS),
        FeatureSpec(first, "numeric", properties=BASE_PROPS),
        FeatureSpec(second, "numeric", properties=BASE_PROPS),
    ))
    steps = [
        TransformStep("one_hot_encode", {"feature": category}),
        TransformStep("impute_flagged", {"feature": number, "strategy": "constant",
                                         "constant": 0, "flag_name": flag}),
        TransformStep("pca_project", {"inputs": [first, second], "components": 2,
                                      "means": [0.0, 0.0],
                                      "loadings": [[0.6, -0.8], [0.8, 0.6]],
                                      "name_template": '") # {i}'}),
    ]
    return as_fitted(compose(steps, schema, "to_model_ready"))


def test_hostile_names_map_like_the_reference_and_stay_out_of_the_source():
    fitted = hostile_pipeline()
    rng = random.Random(5)
    side = fitted.output_schema
    vector = vector_for(side, [rng.gauss(0.0, 1.0) for _ in side.names], -0.0)
    names = {*fitted.input_schema.names, *side.names}
    assert HOSTILE[2] in side.names
    for flags in (False, True):
        assert outcome(map_contributions, fitted, vector, flags) == \
            outcome(reference_map, fitted, vector, flags)
        source = mapping_plan(fitted, flags).source
        assert re.fullmatch(r"[\w\s.,:=+*()\[\]]*", source)
        assert source.count("return") == 1
        for name in names:
            assert name not in source
    assert set(map_contributions(fitted, vector, True).exposed_flags) == {HOSTILE[2]}


def same_float(a, b) -> bool:
    """``a`` and ``b`` are the same number of the same type, down to the
    sign of a zero or an infinity, and NaN is the same as NaN."""
    return (type(a) is type(b) and repr(a) == repr(b)
            and math.copysign(1.0, a) == math.copysign(1.0, b))


def built_vectors(fitted, vectors):
    """``vectors``, and vectors built from them every other way: read back
    from their CSV, mapped (with and without exposed flags) and through
    ``dataclasses.replace`` with reversed values or a new base value."""
    built = list(vectors)
    text = io.StringIO()
    write_contributions(vectors, text)
    built += read_contributions(io.StringIO(text.getvalue()), vectors[0].schema)
    for vector in vectors:
        for flags in (False, True):
            try:
                built.append(map_contributions(fitted, vector, flags).vector)
            except ValidationError:
                pass  # a mapped value overflowed
        built.append(dataclasses.replace(vector, values=vector.values[::-1]))
        built.append(dataclasses.replace(vector, base_value=-0.0))
    return built


@PROPERTY_SETTINGS
@given(cases())
def test_cached_total_is_the_sum_in_order_and_is_no_part_of_equality(case):
    fitted, vectors = case
    for vector in built_vectors(fitted, vectors):
        assert same_float(vector.total(), sum_in_order(vector.values))
        twin = dataclasses.replace(vector)
        object.__setattr__(twin, "_total", math.nan)
        assert twin == vector and hash(twin) == hash(vector) and repr(twin) == repr(vector)
        assert "_total" not in repr(vector)


@PROPERTY_SETTINGS
@given(cases())
def test_conservation_check_reads_totals_like_the_reference(case):
    """The check's result is the one recomputed from the reference mapping's
    values: it passes iff both totals are finite and within tolerance."""
    fitted, vectors = case
    for vector in vectors:
        for flags in (False, True):
            try:
                expected = reference_map(fitted, vector, flags)
            except ValidationError:
                continue
            before = sum_in_order(vector.values)
            after = (sum_in_order(expected.vector.values)
                     + sum_in_order(expected.exposed_flags.values()))
            delta = abs(before - after)
            tolerance = 1e-9 * max(1.0, abs(before))
            checkable = math.isfinite(before) and math.isfinite(after)
            result = map_contributions(fitted, vector, flags)
            check = conservation_check(vector, result.vector,
                                       sum_in_order(result.exposed_flags.values()))
            assert check.checkable is checkable
            assert check.passed is (checkable and delta <= tolerance)
            assert same_float(check.delta, delta)
            assert same_float(check.tolerance, tolerance)


def _row(vector, flags, check) -> str:
    """One mapped row as text: the vector down to its total's bits, the
    exposed flags and the conservation check."""
    return repr((vector.schema.names, vector.values, vector.base_value, vector.total(),
                 dict(flags), check))


def batch_outcome(fitted, vectors, expose_flags):
    """``map_batch``'s rows and failed row, or the error it raised."""
    try:
        batch = map_batch(fitted, vectors, expose_flags)
    except ValidationError as exc:
        return f"{type(exc).__name__}: {exc}"
    assert len(batch.vectors) == len(batch.exposed_flags) == len(batch.checks)
    return [_row(*row) for row in zip(batch.vectors, batch.exposed_flags,
                                      batch.checks)], batch.failed_row


def loop_outcome(fitted, vectors, expose_flags):
    """The same, from ``map_contributions`` and ``conservation_check`` called
    vector by vector up to the first check that fails, as ``explain-map``
    called them before ``map_batch``."""
    rows = []
    try:
        for vector in vectors:
            result = map_contributions(fitted, vector, expose_flags)
            check = conservation_check(vector, result.vector,
                                       extra_after=sum_in_order(result.exposed_flags.values()))
            rows.append(_row(result.vector, result.exposed_flags, check))
            if not check.passed:
                return rows, len(rows) - 1
    except ValidationError as exc:
        return f"{type(exc).__name__}: {exc}"
    return rows, None


@PROPERTY_SETTINGS
@given(st.booleans().flatmap(cases), st.booleans(), st.integers(0, 4))
def test_map_batch_gives_what_mapping_vector_by_vector_gives(case, expose_flags, violated):
    """With row ``violated`` (none when 4) made to break conservation: its
    first mapped value gets 1.0 more, which fails the check of a vector of
    small values."""
    fitted, vectors = case
    plan = mapping_plan(fitted, expose_flags)
    forced = violated < len(vectors) and plan.function is not None and plan.final.names
    if forced:
        function = plan.function

        def violating(vector):
            result = function(vector)
            if vector is not vectors[violated]:
                return result
            values = result.vector.values
            changed = dataclasses.replace(result.vector, values=(values[0] + 1.0, *values[1:]))
            return dataclasses.replace(result, vector=changed)

        fitted.mapping_plans[expose_flags] = dataclasses.replace(plan, function=violating)
    expected = loop_outcome(fitted, vectors, expose_flags)
    assert batch_outcome(fitted, vectors, expose_flags) == expected
    if forced and max((abs(value) for vector in vectors for value in vector.values),
                      default=0.0) <= 3.0:
        assert expected[1] == violated


def test_exposed_flags_are_a_new_dict_on_every_call():
    """Mutating one result's ``exposed_flags`` leaves every later call's
    result unchanged, whether or not the plan exposes a flag."""
    for name, flags in (("model_ready", False), ("model_ready", True),
                        ("learned", False), ("learned", True)):
        fitted = load_fitted(DATA / f"covertype_300_{name}.fitted.json")
        vectors = read_contributions(DATA / f"covertype_300_contribs_{name}.csv",
                                     fitted.output_schema)[:3]
        first = map_contributions(fitted, vectors[0], flags).exposed_flags
        expected = [dict(map_contributions(fitted, vector, flags).exposed_flags)
                    for vector in vectors]
        assert bool(first) is (name == "learned" and flags)
        assert first == expected[0]
        first.clear()
        first["stray"] = 1.0
        for vector, exposed in zip(vectors, expected):
            assert map_contributions(fitted, vector, flags).exposed_flags == exposed
