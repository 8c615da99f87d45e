"""Fuzzed documents fail cleanly: loading a fitted document, or composing
and fitting a pipeline document, then running it and writing the result
either succeeds or raises ``ValidationError`` or ``KernelError``, never
anything else."""

from __future__ import annotations

import copy
import io
import json
import re

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from featurespace import demo
from featurespace.errors import KernelError, ValidationError
from featurespace.pipeline import fit, load_fitted, pipeline_from_doc, run
from featurespace.properties import PROPERTY_NAMES
from featurespace.table import read_table_csv, write_table_csv

from _fitted_documents import DEMO, LEARNED_STEPS, NAMES, ROWS, fitted_document

NUMBERS = st.one_of(st.integers(-10**6, 10**6), st.floats())
VALUES = st.one_of(
    st.none(), st.booleans(), NUMBERS, st.text(max_size=6),
    st.lists(NUMBERS, max_size=6),
    st.lists(st.lists(NUMBERS, max_size=3), max_size=6),
    st.dictionaries(st.text(max_size=4), NUMBERS, max_size=2),
)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("fitted")
    docs = {name: fitted_document(name, workdir) for name in NAMES}
    schema = load_fitted(workdir / "learned.fitted.json").input_schema
    return workdir, docs, read_table_csv(ROWS, schema)


def _mutate(data, value):
    """A replacement for ``value``: a fresh value, or for a list, the list
    shortened, lengthened or with one element replaced."""
    if isinstance(value, list) and value and data.draw(st.booleans()):
        value = list(value)
        i = data.draw(st.integers(0, len(value) - 1))
        how = data.draw(st.sampled_from(["drop", "repeat", "replace"]))
        if how == "drop":
            del value[i]
        elif how == "repeat":
            value.append(value[i])
        else:
            value[i] = _mutate(data, value[i])
        return value
    return data.draw(VALUES)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fuzzed_fitted_documents_fail_cleanly(documents, data):
    workdir, docs, table = documents
    doc = json.loads(json.dumps(docs[data.draw(st.sampled_from(NAMES))]))
    step = data.draw(st.sampled_from(doc["steps"]))
    section = data.draw(st.sampled_from(["config", "fit_state"]))
    if step[section] is None:
        step[section] = {}
    fields = step[section]
    key = data.draw(st.sampled_from(sorted(fields) + ["mean", "min", "edges", "means"]))
    if key in fields and data.draw(st.booleans()):
        del fields[key]
    else:
        fields[key] = _mutate(data, fields.get(key))
    path = workdir / "fuzzed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        run(load_fitted(path), table)
    except (ValidationError, KernelError):
        pass


FORMATS = st.one_of(st.sampled_from([".3g", ".2f", "d", "x", "%", ",", "zz", ""]),
                    st.text(max_size=4), NUMBERS, st.none())


@pytest.fixture(scope="module")
def pipeline_documents():
    docs = {name: yaml.safe_load((DEMO / f"pipeline_{name}.yaml").read_text(encoding="utf-8"))
            for name in NAMES if name != "learned"}
    docs["learned"] = yaml.safe_load(LEARNED_STEPS)
    schema = demo.original_manifest()
    table = read_table_csv(ROWS, schema)
    produced = {name: [fstep.produced for fstep in
                       fit(pipeline_from_doc(doc, schema), table).steps]
                for name, doc in docs.items()}
    return docs, produced, schema, table


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fuzzed_pipeline_documents_fail_cleanly(pipeline_documents, data):
    """Also: a property flag set to anything but true or false is rejected
    with the step named, never read as its truth value."""
    docs, produced, schema, table = pipeline_documents
    name = data.draw(st.sampled_from(NAMES))
    doc = copy.deepcopy(docs[name])
    i = data.draw(st.integers(0, len(doc["steps"]) - 1))
    step = doc["steps"][i]
    target = data.draw(st.sampled_from(
        ["config", "property_delta", "display_format", "config value", "property flag"]))
    if target == "property flag":
        value = data.draw(st.one_of(st.booleans(), VALUES))
        feature = data.draw(st.sampled_from(produced[name][i]))
        step["property_delta"] = {feature: {data.draw(st.sampled_from(PROPERTY_NAMES)): value}}
        if not isinstance(value, bool):
            named = re.escape(f"step {i + 1} ({step['kind']}): property_delta {feature!r}: ")
            with pytest.raises(ValidationError, match=f"^{named}"):
                pipeline_from_doc(doc, schema)
            return
    elif target == "display_format":
        step["config"]["display_format"] = data.draw(FORMATS)
    elif target == "config value":
        key = data.draw(st.sampled_from(sorted(step["config"])))
        step["config"][key] = _mutate(data, step["config"][key])
    else:
        step[target] = data.draw(VALUES)
    try:
        fitted = fit(pipeline_from_doc(doc, schema), table)
        result = run(fitted, table)
        write_table_csv(result.table, io.StringIO(), fitted.display_formats())
    except (ValidationError, KernelError):
        pass
