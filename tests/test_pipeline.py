"""Pipeline composition, fitting, running, inversion, and propagation, over
hand-built pipelines and pipelines drawn from all 14 kinds."""

from __future__ import annotations

import json
import random
import re
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, Phase, find, given, settings
from hypothesis import strategies as st

from featurespace.errors import FeatureSpaceError, KernelError, MappingError, ValidationError
from featurespace.explain import conservation_check, map_contributions, mapping_plan
from featurespace.lineage import lineage_to_data
from featurespace.pipeline import (
    DIRECTIONS,
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
from featurespace.schema import (
    FeatureSpec,
    RawSource,
    SchemaManifest,
    Wording,
    serialize_manifest,
)
from featurespace.table import MISSING, DataTable
from featurespace.transforms import (
    EXACT_KINDS,
    KERNELS,
    TRANSFORM_KINDS,
    Kernel,
    Rewrite,
    Standardize,
    TransformStep,
    kernel_for,
    sum_in_order,
)

from _tables import tables_equal
from strategies import (
    BASE_PROPS,
    MAPPABLE,
    contributions,
    fitted_pipelines,
    pipelines,
    schemas,
    tables,
)
from test_transforms import boolean_group_schema, decode_step

EXACT_PIPELINES = fitted_pipelines(direction="to_interpretable", kinds=EXACT_KINDS)


def signature(fstep):
    """A step's kind, config with its fit state but no display format (a
    presentation key an inverse drops), and property delta, as plain JSON
    values."""
    config = {k: v for k, v in fstep.config.items() if k != "display_format"}
    return json.loads(json.dumps([fstep.step.kind, config, fstep.step.property_delta]))


def area_decode_step(**overrides):
    return decode_step(wording={"value": "wilderness area is {value}"}, **overrides)


def test_compose_decode_produces_categorical_output():
    pipeline = compose([area_decode_step()], boolean_group_schema(),
                       "to_interpretable")
    assert "Wilderness area" in pipeline.output_schema
    assert pipeline.output_schema.space_tag == "interpretable"


def test_compose_empty_is_identity():
    schema = boolean_group_schema()
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


COLLISION_SCHEMA = SchemaManifest(features=(
    FeatureSpec("n", "numeric", properties=BASE_PROPS),
    FeatureSpec("m", "numeric", properties=BASE_PROPS),
    FeatureSpec("PCA 1", "numeric", properties=BASE_PROPS),
    FeatureSpec("c", "categorical", categories=("x", "y"), properties=BASE_PROPS,
                wording=Wording(value_phrase="c is {value}")),
    FeatureSpec("s", "categorical", categories=("c is x", "c is y"), properties=BASE_PROPS),
    FeatureSpec("g1", "boolean", properties=BASE_PROPS),
    FeatureSpec("g2", "boolean", properties=BASE_PROPS),
))
STATEMENTS = {"dtype": "categorical", "categories": ["x", "y"],
              "wording": {"value": "c is {value}"}}
SCALED = {"feature": "n", "mean": 0.0, "scale": 1.0}


@pytest.mark.parametrize("kind, config, name", [
    ("one_hot_encode", {"feature": "c", "names": ["n", "z"]}, "n"),
    ("one_hot_decode", {"group": ["g1", "g2"], "target": "n", "categories": ["x", "y"]}, "n"),
    ("impute_flagged", {"feature": "n", "strategy": "constant", "constant": 0.0,
                        "flag_name": "m"}, "m"),
    ("aggregate_numeric", {"inputs": ["n"], "formula": "sum", "target": "m"}, "m"),
    ("abstract_concept", {"inputs": ["n"], "formula": "sum", "target": "m"}, "m"),
    ("render_statement", {"feature": "c", "target": "n"}, "n"),
    ("unrender_statement", {"feature": "s", "target": "n", "restore": STATEMENTS}, "n"),
    ("pca_project", {"inputs": ["n", "m"], "components": 1}, "PCA 1"),
    ("standardize", {**SCALED, "target": "m"}, "m"),
    ("unstandardize", {**SCALED, "target": "m"}, "m"),
    ("statistical_bin", {"feature": "n", "bins": 2, "min": 0.0, "max": 1.0,
                         "target": "m"}, "m"),
    ("semantic_bin", {"feature": "n", "boundaries": [0.0], "labels": ["lo", "hi"],
                      "target": "m"}, "m"),
    ("hierarchy_rollup", {"feature": "c", "mapping": {"x": "p", "y": "p"}, "target": "n"}, "n"),
])
def test_an_output_named_like_a_kept_feature_fails_to_compose(kind, config, name):
    """The step's output schema is the one check of the names it produces."""
    message = f"step 1 ({kind}): duplicate feature name {name!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        compose([TransformStep(kind, config)], COLLISION_SCHEMA, "to_interpretable")


@pytest.mark.parametrize("kind", TRANSFORM_KINDS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_the_pipeline_checks_the_config_keys_each_kernel_declares(kind, data):
    """A step of ``kind`` with a key its kernel does not declare fails to
    compose, and every normalized config holds declared keys only: the
    pipeline, not the kernel, checks them."""
    first = ("render_statement", kind) if kind == "unrender_statement" else (kind,)
    fitted, _ = data.draw(fitted_pipelines(schemas(["numeric", "categorical", "boolean",
                                                    "one_hot"]), missing=0.0, first=first))
    for fstep in fitted.steps:
        assert set(fstep.step.config) <= set(kernel_for(fstep.step.kind).keys)
    fstep = fitted.steps[len(first) - 1]
    step = TransformStep(kind, {**fstep.step.config, "zz": 1})
    message = f"step 1 ({kind}): config: unknown keys ['zz']"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        compose([step], fstep.input_schema, fitted.direction)


ONCE_SCHEMA = SchemaManifest(features=(
    FeatureSpec("x", "numeric", properties=BASE_PROPS, raw_source=RawSource("s", (0, 2))),
    FeatureSpec("y", "numeric", properties=BASE_PROPS),
    FeatureSpec("c", "categorical", categories=("p", "q"), properties=BASE_PROPS),
    FeatureSpec("b", "boolean", properties=BASE_PROPS),
))
FILL_Y = TransformStep("impute_flagged", {"feature": "y", "strategy": "constant",
                                          "constant": 0.0})
# Per kind: a config that fails to compose as step 2, and its error after the prefix.
BAD_CONFIGS = {
    "one_hot_encode": ({"feature": "c", "name_template": "{category}{zz}"},
                       "name_template '{category}{zz}' cannot be formatted (KeyError: 'zz')"),
    "one_hot_decode": ({"group": ["b"], "target": "t",
                        "restore": {"dtype": "categorical", "categories": ["on"], "zz": 1}},
                       "restore: unknown keys ['zz']"),
    "standardize": ({"feature": "x", "mean": 0.0},
                    "configure mean and scale together or neither"),
    "unstandardize": ({"feature": "x", "mean": 0.0, "scale": -1.0},
                      "scale must be > 0, got -1.0"),
    "statistical_bin": ({"feature": "x", "bins": 2, "wording": {"zz": "t"}},
                        "wording: unknown keys ['zz']"),
    "semantic_bin": ({"feature": "x", "boundaries": [1.0, 0.0], "labels": ["a", "b", "c"]},
                     "boundaries must be non-empty and strictly increasing"),
    "impute_flagged": ({"feature": "x", "strategy": "median"}, "unknown strategy 'median'"),
    "aggregate_numeric": ({"inputs": ["x"], "formula": "max", "target": "t"},
                          "unknown formula 'max'; use euclidean_floor, sum, mean, "
                          "or {'expr': ...}"),
    "abstract_concept": ({"inputs": ["x"], "formula": "sum", "target": "t",
                          "labeling": {"boundaries": [0.0], "labels": ["L", "H"], "zz": 1}},
                         "labeling: unknown keys ['zz']"),
    "hierarchy_rollup": ({"feature": "c", "mapping": {"p": "P"}},
                         "categories missing from mapping: ['q']"),
    "render_statement": ({"feature": "x"},
                         "only boolean and categorical features can be rendered as a column "
                         "('x' is numeric); use render_value for numerics"),
    "unrender_statement": ({"feature": "c", "target": "t"},
                           "missing required config key 'restore'"),
    "pca_project": ({"inputs": ["x", "y"], "components": 1, "name_template": "PCA"},
                    "name_template needs an {i} placeholder"),
    "link_raw": ({"feature": "y"}, "feature 'y' does not declare a raw_source"),
}
# Per kind whose ``fit`` can reject its data: a config, the x column it
# rejects and the error after the prefix.
BAD_FITS = {
    "standardize": ({"feature": "x"}, [MISSING, MISSING],
                    "column 'x' has no observed values"),
    "statistical_bin": ({"feature": "x", "bins": 2}, [1.0, 1.0],
                        "column 'x' has a degenerate range"),
    "impute_flagged": ({"feature": "x", "strategy": "mean"}, [MISSING, MISSING],
                       "column 'x' is entirely missing; mean strategy has nothing to average"),
    "pca_project": ({"inputs": ["x", "y"], "components": 1}, [1.0],
                    "need at least 2 rows to fit"),
}
# Per kind without a contribution rule in some direction: a config that
# composes as step 2.
NO_RULE_CONFIGS = {
    "one_hot_encode": {"feature": "c"},
    "one_hot_decode": {"group": ["b"], "target": "t",
                       "restore": {"dtype": "categorical", "categories": ["on"]}},
    "aggregate_numeric": {"inputs": ["x", "y"], "formula": "sum", "target": "t"},
    "abstract_concept": {"inputs": ["x", "y"], "formula": "sum", "target": "t"},
    "pca_project": {"inputs": ["x", "y"], "components": 1, "means": [0.0, 0.0],
                    "loadings": [[1.0], [1.0]]},
}
NO_RULE = {
    "to_interpretable": "no contribution rule in the forward direction; map against the "
                        "pipeline that produced the model-ready schema instead",
    "to_model_ready": "no contribution rule in the reverse direction",
}
# Per kind whose ``apply`` can fail on one row of valid cells: a config that
# composes as step 2, the rows it fails on, the failing row and the kernel's
# message. (``hierarchy_rollup`` maps every declared category.)
ROW_FAILS = {
    "one_hot_decode": ({"group": ["b"], "target": "t",
                        "restore": {"dtype": "categorical", "categories": ["on"]}},
                       [(1.0, 1.0, "p", True), (1.0, 1.0, "p", False)], 1,
                       "zero indicators TRUE in one-hot group ['b']"),
    "statistical_bin": ({"feature": "x", "bins": 2, "min": 0.0, "max": 1.0},
                        [(0.5, 1.0, "p", True), (5.0, 1.0, "p", True)], 1,
                        "value 5.0 of 'x' outside bin range [0.0, 1.0]"),
    "impute_flagged": ({"feature": "x", "strategy": "forward_fill"},
                       [(MISSING, 1.0, "p", True), (1.0, 1.0, "p", True)], 0,
                       "forward_fill has no preceding value for 'x'"),
    "aggregate_numeric": ({"inputs": ["x", "y"], "formula": {"expr": "x / y"}, "target": "t"},
                          [(1.0, 1.0, "p", True), (1.0, 0.0, "p", True)], 1,
                          "division by zero in expression"),
    "abstract_concept": ({"inputs": ["x", "y"], "formula": "euclidean_floor", "target": "t"},
                         [(1.0, 1.0, "p", True), (1e200, 1.0, "p", True)], 1,
                         "cannot convert float infinity to integer"),
    "unrender_statement": ({"feature": "c", "target": "t", "restore": {
                               "dtype": "categorical", "categories": ["on"],
                               "wording": {"value": "is {value}"}}},
                           [(1.0, 1.0, "p", True)], 0,
                           "statement 'p' does not match any template"),
    "pca_project": ({"inputs": ["x", "y"], "components": 1, "means": [0.0, 0.0],
                     "loadings": [[1.0], [1.0]]},
                    [(1.0, 1.0, "p", True), (MISSING, 1.0, "p", True)], 1,
                    "MISSING value in PCA inputs; impute first"),
}


def _said_of_step_2(exc, kind, message):
    """``exc`` names step 2 and its kind once, before ``message``."""
    prefix = f"step 2 ({kind}): "
    text = str(exc)
    assert text.startswith(prefix) and not text[len(prefix):].startswith(kind), text
    assert text == prefix + message


@pytest.mark.parametrize("kind", TRANSFORM_KINDS)
def test_every_error_names_the_step_and_its_kind_once(kind, monkeypatch):
    """The pipeline names a step and its kind, and the row of a row's error;
    the kernel's text names none of them: in composing, fitting, running and
    mapping contributions."""
    assert (kind in BAD_FITS) == (type(KERNELS[kind]).fit is not Kernel.fit)
    config, message = BAD_CONFIGS[kind]
    with pytest.raises(ValidationError) as raised:
        compose([FILL_Y, TransformStep(kind, config)], ONCE_SCHEMA, "to_interpretable")
    _said_of_step_2(raised.value, kind, message)
    if kind in BAD_FITS:
        config, column, message = BAD_FITS[kind]
        pipeline = compose([FILL_Y, TransformStep(kind, config)], ONCE_SCHEMA,
                           "to_interpretable")
        table = DataTable(ONCE_SCHEMA, tuple((x, 1.0, "p", True) for x in column))
        with pytest.raises(KernelError) as raised:
            fit(pipeline, table)
        _said_of_step_2(raised.value, kind, message)
    if kind == "link_raw":
        fitted = as_fitted(compose([FILL_Y, TransformStep(kind, {
            "feature": "x", "series_id": "other"})], ONCE_SCHEMA, "to_interpretable"))
        with pytest.raises(KernelError) as raised:
            run(fitted, DataTable(ONCE_SCHEMA, ((1.0, 1.0, "p", True),)))
        _said_of_step_2(raised.value, kind, "unknown series 'other'")
    if kind in ROW_FAILS:
        config, rows, row, message = ROW_FAILS[kind]
        fitted = as_fitted(compose([FILL_Y, TransformStep(kind, config)], ONCE_SCHEMA,
                                   "to_interpretable"))
        table = DataTable(ONCE_SCHEMA, tuple(rows))
        filled = run(as_fitted(compose([FILL_Y], ONCE_SCHEMA, "to_interpretable")), table)
        fstep = fitted.steps[1]
        with pytest.raises(KernelError) as raised:
            fstep.kernel.apply(filled.table, fstep.prepared)
        assert (str(raised.value), raised.value.row_index) == (message, row)
        with pytest.raises(KernelError) as raised:
            run(fitted, table)
        _said_of_step_2(raised.value, kind, f"row {row}: {message}")
        assert re.findall(r"row \d+: ", str(raised.value)) == [f"row {row}: "]
        assert (raised.value.row_index, raised.value.step_number) == (row, 2)
    unmapped = [direction for direction in DIRECTIONS if kind not in MAPPABLE[direction]]
    assert (kind in NO_RULE_CONFIGS) == bool(unmapped)
    for direction in unmapped:
        fitted = as_fitted(compose([FILL_Y, TransformStep(kind, NO_RULE_CONFIGS[kind])],
                                   ONCE_SCHEMA, direction))
        with pytest.raises(ValidationError) as raised:
            mapping_plan(fitted)
        _said_of_step_2(raised.value, kind, NO_RULE[direction])
    if kind == "pca_project":  # an error of the rule itself
        config = {**NO_RULE_CONFIGS[kind], "loadings": [[0.0], [0.0]]}
        fitted = as_fitted(compose([FILL_Y, TransformStep(kind, config)], ONCE_SCHEMA,
                                   "to_model_ready"))
        with pytest.raises(ValidationError) as raised:
            mapping_plan(fitted)
        assert type(raised.value) is ValidationError
        _said_of_step_2(raised.value, kind, "PCA component 1 has zero loadings")
    if kind == "semantic_bin":  # a rule that leaves a built feature unwritten
        monkeypatch.setattr(KERNELS[kind], "forward_rule", lambda fstep, flags: Rewrite({}))
        config = {"feature": "x", "boundaries": [0.0], "labels": ["lo", "hi"], "target": "t"}
        fitted = as_fitted(compose([FILL_Y, TransformStep(kind, config)], ONCE_SCHEMA,
                                   "to_interpretable"))
        with pytest.raises(MappingError) as raised:
            mapping_plan(fitted)
        assert type(raised.value) is MappingError
        _said_of_step_2(raised.value, kind, "feature 't' appeared without a mapping rule")


def test_an_unknown_kind_names_its_step():
    """A kind with no kernel is said of its step, as every error of a step is."""
    with pytest.raises(ValidationError) as raised:
        compose([FILL_Y, TransformStep("bogus")], ONCE_SCHEMA, "to_interpretable")
    _said_of_step_2(raised.value, "bogus", "unknown transform kind")


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
    schema = boolean_group_schema()
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


def test_an_overflowed_produced_cell_carries_its_row():
    schema = SchemaManifest(features=(
        FeatureSpec("x", "numeric", properties=BASE_PROPS),
        FeatureSpec("y", "numeric", properties=BASE_PROPS),))
    step = TransformStep("aggregate_numeric", {"inputs": ["x", "y"], "formula": "sum",
                                               "target": "t"})
    fitted = as_fitted(compose([step], schema, "to_interpretable"))
    table = DataTable(schema, ((1.0, 1.0), (1e308, 1e308)))
    with pytest.raises(KernelError) as err:
        run(fitted, table)
    assert str(err.value) == ("step 1 (aggregate_numeric): row 1: feature 't': "
                              "non-finite value inf")
    assert (err.value.row_index, err.value.step_number) == (1, 1)


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


@settings(max_examples=50, deadline=None)
@given(EXACT_PIPELINES)
def test_round_trip_identity_on_exact_pipelines(pair):
    fitted, table = pair
    forward = run(fitted, table)
    inverse = invert(fitted)
    assert not isinstance(inverse, InversionRefusal)
    back = run(inverse, forward.table)
    assert tables_equal(back.table, table, numeric_tol=1e-9)


@settings(max_examples=25, deadline=None)
@given(EXACT_PIPELINES)
def test_double_inversion_restores_step_signatures(pair):
    fitted, _ = pair
    twice = invert(invert(fitted))
    assert list(map(signature, twice.steps)) == list(map(signature, fitted.steps))


@settings(max_examples=25, deadline=None)
@given(EXACT_PIPELINES)
def test_static_output_schema_matches_run_output(pair):
    fitted, table = pair
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
    fitted = as_fitted(compose([area_decode_step()], boolean_group_schema(),
                               "to_interpretable"))
    manifest = fitted.output_schema
    spec = manifest.feature("Wilderness area")
    assert spec.properties.human_worded
    assert spec.properties.readable


def test_propagate_standardize_sets_model_ready_and_compatible():
    schema = SchemaManifest(features=(
        FeatureSpec("x", "numeric",
                    properties=replace(BASE_PROPS, model_compatible=False)),))
    step = TransformStep("standardize", {"feature": "x", "mean": 0.0, "scale": 1.0})
    fitted = as_fitted(compose([step], schema, "to_model_ready"))
    spec = fitted.output_schema.feature("x")
    assert spec.properties.model_ready
    assert spec.properties.model_compatible  # via closure


def test_propagate_rejects_contradictory_overrides():
    schema = boolean_group_schema()
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
        compose([bad], boolean_group_schema(), "to_interpretable")


@pytest.mark.parametrize("flags, message", [
    ({"meaningful": "false"}, "meaningful must be true or false"),
    ({"bogus": True}, r"unknown flags: \['bogus'\]"),
], ids=["quoted_false", "unknown_flag"])
def test_property_delta_flags_are_checked_on_the_step(flags, message):
    """A step built in Python gets the checks a document's step gets."""
    step = area_decode_step()
    with pytest.raises(ValidationError, match=message):
        TransformStep(step.kind, step.config, {"Wilderness area": flags})


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # one file, rewritten
@given(fitted_pipelines(schemas(["numeric", "categorical", "boolean"]), missing=0.0,
                        direction="to_model_ready", min_steps=0, max_steps=0,
                        first=("standardize", "one_hot_encode")))
def test_fitted_document_round_trip(tmp_path, pair):
    fitted, table = pair
    path = tmp_path / "pipeline.fitted.json"
    save_fitted(fitted, path)
    loaded = load_fitted(path)
    assert list(map(signature, loaded.steps)) == list(map(signature, fitted.steps))
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


def test_each_loader_takes_the_documents_it_can_use(tmp_path):
    """``load_fitted`` takes a fitted document, or a pipeline document whose
    every step is configured (``as_fitted``); ``load_pipeline`` takes only a
    pipeline document. Each error names the path."""
    schema = SchemaManifest(features=(FeatureSpec("x", "numeric", properties=BASE_PROPS),))
    (tmp_path / "m.yaml").write_text(serialize_manifest(schema), encoding="utf-8")
    configured, unfitted, saved = (tmp_path / name for name in ("c.yaml", "u.yaml", "f.json"))
    for path, config in ((configured, "{feature: x, mean: 0.0, scale: 2.0}"),
                         (unfitted, "{feature: x}")):
        path.write_text("input_manifest: m.yaml\ndirection: to_model_ready\nsteps:\n"
                        f"  - kind: standardize\n    config: {config}\n", encoding="utf-8")
    fitted = load_fitted(configured)
    assert list(map(signature, fitted.steps)) == list(
        map(signature, as_fitted(load_pipeline(configured)).steps))
    save_fitted(fitted, saved)
    assert list(map(signature, load_fitted(saved).steps)) == list(map(signature, fitted.steps))
    with pytest.raises(ValidationError, match=f"^{re.escape(str(saved))}: fit takes a "
                                              "pipeline document, not a fitted one$"):
        load_pipeline(saved)
    with pytest.raises(ValidationError, match="^" + re.escape(
            f"{unfitted}: step 1 (standardize): requires fitting; call fit() with data") + "$"):
        load_fitted(unfitted)


def _columns(*specs) -> SchemaManifest:
    """A schema of ``(name, dtype)`` or ``(name, dtype, categories)`` specs."""
    return SchemaManifest(features=tuple(
        FeatureSpec(name, dtype, categories=rest[0] if rest else None, properties=BASE_PROPS)
        for name, dtype, *rest in specs))


@pytest.mark.parametrize("call", [fit, run], ids=["fit", "run"])
@pytest.mark.parametrize("columns, message", [
    (_columns(("y", "numeric")), "table is missing pipeline input columns: ['a', 'b', 'c']"),
    (_columns(("b", "numeric"), ("a", "numeric"), ("c", "categorical", ("p", "q"))),
     "table columns ['b', 'a', 'c'] do not match pipeline input ['a', 'b', 'c']"),
    (_columns(("a", "numeric"), ("b", "boolean"), ("c", "categorical", ("p", "q"))),
     "column 'b': dtype boolean does not match pipeline input dtype numeric"),
    (_columns(("a", "numeric"), ("b", "numeric"), ("c", "categorical", ("p", "r"))),
     "column 'c': categories do not match the pipeline input schema"),
], ids=["missing", "reordered", "dtype", "categories"])
def test_run_requires_matching_table(call, columns, message):
    """``fit`` and ``run`` take only a table of the pipeline's input columns,
    in order, each of its dtype and categories."""
    pipeline = compose([], _columns(("a", "numeric"), ("b", "numeric"),
                                    ("c", "categorical", ("p", "q"))), "to_interpretable")
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call(as_fitted(pipeline) if call is run else pipeline, DataTable(columns, ()))


# -- pipelines drawn from all 14 kinds --------------------------------------------

@pytest.mark.parametrize("direction", DIRECTIONS)
def test_each_kind_is_drawn_in_each_direction_it_maps(direction):
    """Between them, the drawn mappable pipelines in a direction have a step
    of every kind with a contribution rule in it; every kind has one in some
    direction (``test_every_kernel_has_a_contribution_rule``)."""
    seen = set()

    def all_seen(pipeline) -> bool:
        seen.update(step.kind for step in pipeline.steps)
        return seen >= set(MAPPABLE[direction])

    drawn = schemas().flatmap(lambda schema: pipelines(schema, direction=direction,
                                                       mappable=True))
    find(drawn, all_seen, settings=settings(max_examples=2000, database=None,
                                            phases=[Phase.generate]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_call_succeeds_or_fails_cleanly(data):
    """Fitted on one table and run on another, a pipeline succeeds or raises
    a ``FeatureSpaceError``; it has fidelity notes iff it does not invert, and
    an exact one gives its table back within 1e-9; a mapped vector with finite
    totals keeps its total within the tolerance."""
    fitted, table = data.draw(fitted_pipelines(mappable=data.draw(st.booleans())))
    try:
        run(fitted, data.draw(tables(fitted.input_schema)))
    except FeatureSpaceError:
        pass
    inverse, result = invert(fitted), run(fitted, table)
    assert bool(result.fidelity_notes) is isinstance(inverse, InversionRefusal)
    if not isinstance(inverse, InversionRefusal):
        back = run(inverse, result.table)
        assert tables_equal(back.table, table, numeric_tol=1e-9)
    flags = data.draw(st.booleans())
    side = (fitted.input_schema if fitted.direction == "to_interpretable"
            else fitted.output_schema)
    vector = data.draw(contributions(side, 1e3))
    try:
        result = map_contributions(fitted, vector, flags)
    except FeatureSpaceError:
        return
    check = conservation_check(vector, result.vector, sum_in_order(result.exposed_flags.values()))
    assert check.passed or not check.checkable
