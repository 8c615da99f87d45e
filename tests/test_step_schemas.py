"""The schema flow, step by step: where each step puts the features it
produces, and which taxonomy flags they carry.

``tests/data/step_schemas.json`` was written by ``step_schemas_text`` while
each kernel still laid out its own output schema and gave its produced specs
their flags. For every step of the four ``covertype_300_*.fitted.json``
documents and of both demo pipelines as composed, it holds the step's output
schema (``manifest_to_data``: names, order, flags, ``derived_from`` and the
space tag) and the names of the features the step produces, in order.
Regenerate it only for an intended change of the schema flow::

    PYTHONPATH=src:tests python -c "import test_step_schemas as t; \\
        open('tests/data/step_schemas.json', 'w').write(t.step_schemas_text())"
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from featurespace import demo
from featurespace.errors import ValidationError
from featurespace.pipeline import _build, load_fitted, load_pipeline
from featurespace.properties import PROPERTY_NAMES, PropertySet, implication_closure
from featurespace.schema import SchemaManifest, manifest_to_data
from featurespace.transforms import TransformStep

from strategies import fitted_pipelines, schemas

DATA = Path(__file__).parent / "data"
DEMO = Path(demo.__file__).parent
FITTED = ("model_ready", "interpretable", "learned", "exact_inverse")
DEMOS = ("model_ready", "interpretable")


def _steps(fitted_steps) -> list[dict]:
    return [{"kind": fstep.step.kind,
             "output_schema": manifest_to_data(fstep.output_schema),
             "produced": list(fstep.produced)} for fstep in fitted_steps]


def step_schemas_text() -> str:
    """The fixture's text: each pipeline's steps, by pipeline."""
    data = {f"covertype_300_{name}.fitted.json":
            _steps(load_fitted(DATA / f"covertype_300_{name}.fitted.json").steps)
            for name in FITTED}
    for name in DEMOS:
        pipeline = load_pipeline(DEMO / f"pipeline_{name}.yaml")
        fitted_steps, _ = _build(pipeline.steps, pipeline.input_schema, pipeline.direction, None)
        data[f"demo/pipeline_{name}.yaml"] = _steps(fitted_steps)
    return json.dumps(data, indent=2) + "\n"


def test_step_schemas_match_the_fixture():
    assert step_schemas_text() == (DATA / "step_schemas.json").read_text(encoding="utf-8")


FLAG_SETS = st.lists(st.sampled_from(PROPERTY_NAMES), max_size=4).map(
    lambda names: implication_closure(PropertySet.from_names(names)))
OVERRIDES = st.dictionaries(st.sampled_from(PROPERTY_NAMES), st.booleans(), max_size=2)


@st.composite
def flagged_schemas(draw):
    """A drawn schema whose features carry drawn flags, so that the inputs of
    a step need not share them."""
    schema = draw(schemas())
    return SchemaManifest(tuple(replace(spec, properties=draw(FLAG_SETS))
                                for spec in schema.features))


@settings(max_examples=100, deadline=None)
@given(fitted_pipelines(schema=flagged_schemas()), st.data())
def test_produced_flags_are_the_closure_of_their_base_delta_and_override(drawn, data):
    """A built feature's flags are the closure of the flags its
    ``derived_from`` inputs share, the kernel's delta and the step's
    override; a rewritten feature's start from its own flags."""
    fitted, _ = drawn
    steps = [TransformStep(fstep.step.kind, fstep.step.config,
                           {name: data.draw(OVERRIDES) for name in fstep.produced})
             for fstep in fitted.steps]
    try:
        fitted_steps, _ = _build(steps, fitted.input_schema, fitted.direction,
                                 [fstep.fit_state for fstep in fitted.steps],
                                 require_params=True)
    except ValidationError as exc:  # a false override that the closure sets again
        assert "violates an implication after closure" in str(exc)
        reject()
    for fstep in fitted_steps:
        before, after = fstep.input_schema, fstep.output_schema
        rewritten = fstep.kernel.plan(before, fstep.config).rewritten
        for name in fstep.produced:
            spec = after.feature(name)
            inputs = (name,) if name in rewritten else spec.derived_from.inputs
            flags = {flag: all(getattr(before.feature(n).properties, flag) for n in inputs)
                     for flag in PROPERTY_NAMES}
            flags.update(fstep.kernel.delta_for(spec))
            flags.update(fstep.step.property_delta[name])
            assert spec.properties == implication_closure(PropertySet(**flags),
                                                          before.extra_implications)
