"""Feature specs, manifests, the document format, and schema diffs."""

from __future__ import annotations

import csv
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featurespace.errors import MappingError, ValidationError
from featurespace.properties import IMPLICATIONS, PROPERTY_NAMES, PropertySet, implication_closure
from featurespace.schema import (
    DerivedFrom,
    FeatureSpec,
    RawSource,
    SchemaManifest,
    Wording,
    feature_from_data,
    feature_to_data,
    manifest_to_data,
    open_input,
    open_outputs,
    parse_manifest,
    serialize_manifest,
    shown,
)
from featurespace.table import CellError

from strategies import schemas

ELEVATION_DOC = """
space_tag: original
features:
  - name: Elevation
    dtype: numeric
    unit: m
    description: Elevation in meters
    properties: [readable, understandable]
"""


def test_parse_elevation_manifest():
    manifest = parse_manifest(ELEVATION_DOC)
    spec = manifest.feature("Elevation")
    assert spec.dtype == "numeric"
    assert spec.unit == "m"
    assert spec.description == "Elevation in meters"
    assert spec.properties.readable and spec.properties.understandable


def test_duplicate_feature_names_rejected():
    doc = """
space_tag: original
features:
  - {name: Age, dtype: numeric}
  - {name: Age, dtype: numeric}
"""
    with pytest.raises(ValidationError, match="duplicate"):
        parse_manifest(doc)


def test_categorical_requires_categories():
    doc = """
space_tag: original
features:
  - {name: Color, dtype: categorical, categories: []}
"""
    with pytest.raises(ValidationError, match="categor"):
        parse_manifest(doc)


def test_unknown_keys_rejected():
    doc = """
space_tag: original
surprise: 1
features: []
"""
    with pytest.raises(ValidationError, match="surprise"):
        parse_manifest(doc)
    doc = """
space_tag: original
features:
  - {name: Age, dtype: numeric, extra_key: 1}
"""
    with pytest.raises(ValidationError, match="extra_key"):
        parse_manifest(doc)


def test_malformed_document_is_a_parse_error():
    with pytest.raises(ValidationError, match="parse error"):
        parse_manifest("features: [unclosed")


def test_implication_violation_rejected_at_parse():
    doc = """
space_tag: original
features:
  - {name: X, dtype: numeric, properties: {human_worded: true}}
"""
    with pytest.raises(ValidationError, match="human_worded=>readable"):
        parse_manifest(doc)


def test_simulatable_needs_a_source():
    with pytest.raises(ValidationError, match="simulatable"):
        FeatureSpec("X", "numeric",
                    properties=PropertySet(simulatable=True, trackable=True))
    # observed fields may declare simulatable directly
    FeatureSpec("X", "numeric", observed=True,
                properties=PropertySet(simulatable=True, trackable=True))


def test_model_ready_tag_requires_model_compatible():
    spec = FeatureSpec("X", "numeric")
    with pytest.raises(ValidationError, match="model_compatible"):
        SchemaManifest(features=(spec,), space_tag="model_ready")


def test_value_phrase_needs_placeholder():
    with pytest.raises(ValidationError, match="placeholder"):
        Wording(value_phrase="no placeholder here")


@pytest.mark.parametrize("window", [(0.9, 2.5), (True, 2), ("0", 2), (1,)])
def test_raw_source_window_is_checked_not_coerced(window):
    with pytest.raises(ValidationError, match="raw_source window"):
        RawSource("s", window)
    assert RawSource("s", [0, 2]).window == (0, 2)


@settings(max_examples=25, deadline=None)
@given(schemas())
def test_manifest_round_trip_random(manifest):
    assert parse_manifest(serialize_manifest(manifest)) == manifest


def test_manifest_round_trip_covertype_demo():
    from featurespace import demo
    manifest = demo.original_manifest()
    assert parse_manifest(serialize_manifest(manifest)) == manifest
    assert manifest_to_data(manifest)["space_tag"] == "original"


def test_extension_implications_enforced_per_feature():
    doc = """
space_tag: original
implications:
  - [understandable, readable]
features:
  - {name: X, dtype: numeric, properties: [understandable]}
"""
    with pytest.raises(ValidationError, match="understandable=>readable"):
        parse_manifest(doc)
    ok = parse_manifest(doc.replace("[understandable]", "[understandable, readable]"))
    assert ok.extra_implications == (("understandable", "readable"),)


TEXT = st.text(max_size=8)
NAMES = st.text(min_size=1, max_size=8)


@st.composite
def feature_specs(draw):
    """Valid specs of every dtype, with every optional field drawn."""
    dtype = draw(st.sampled_from(["numeric", "categorical", "boolean", "ordinal"]))
    categories = None
    if dtype in ("categorical", "ordinal"):
        categories = tuple(draw(st.lists(NAMES, min_size=1, max_size=4, unique=True)))
    wording = draw(st.none() | st.builds(
        Wording, st.none() | TEXT, st.none() | TEXT,
        st.none() | TEXT.map(lambda t: t + "{value}")))
    flags = draw(st.lists(st.sampled_from(PROPERTY_NAMES), unique=True))
    raw_source = None
    if draw(st.booleans()):
        start = draw(st.integers(0, 10))
        raw_source = RawSource(draw(NAMES), (start, start + draw(st.integers(1, 10))))
    derived = draw(st.none() | st.builds(DerivedFrom, st.lists(NAMES, min_size=1, max_size=3),
                                         TEXT))
    observed = draw(st.booleans())
    properties = implication_closure(PropertySet.from_names(flags))
    if properties.simulatable and not (raw_source or derived or observed):
        observed = True
    return FeatureSpec(draw(NAMES), dtype, description=draw(TEXT),
                       unit=draw(st.none() | TEXT), categories=categories,
                       wording=wording, properties=properties, raw_source=raw_source,
                       derived_from=derived, observed=observed)


@settings(max_examples=200, deadline=None)
@given(feature_specs())
def test_feature_data_round_trips(spec):
    assert feature_from_data(feature_to_data(spec), "feature") == spec


def implication_oracle(features, extra) -> str | None:
    """The error of checking every spec against the base and the extra
    edges, at the first spec that violates one; None when none does."""
    edges = IMPLICATIONS + tuple(extra)
    for spec in features:
        flags = spec.properties.flags()
        violated = [f"{tail}=>{head}" for tail, head in edges if flags[tail] and not flags[head]]
        if violated:
            return f"feature {spec.name!r}: property implications violated: {', '.join(violated)}"
    return None


@settings(max_examples=200, deadline=None)
@given(st.lists(feature_specs(), max_size=4, unique_by=lambda spec: spec.name),
       st.lists(st.tuples(st.sampled_from(PROPERTY_NAMES), st.sampled_from(PROPERTY_NAMES)),
                max_size=3))
def test_a_manifest_accepts_what_the_implication_oracle_accepts(features, extra):
    """A manifest checks its specs against its own edges only, as each spec
    met the base edges when it was built; it accepts and rejects as checking
    every edge would, with the same message."""
    expected = implication_oracle(features, extra)
    if expected is None:
        SchemaManifest(tuple(features), extra_implications=tuple(extra))
    else:
        with pytest.raises(ValidationError) as info:
            SchemaManifest(tuple(features), extra_implications=tuple(extra))
        assert str(info.value) == expected


# What YAML and JSON documents hold. Text leaves out quotes and backslashes,
# so that a long text cut before its ``repr`` starts as the whole one does.
document_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters(blacklist_characters="'\"\\"), max_size=250),
    lambda inner: st.lists(inner, max_size=8) | st.tuples(inner) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4), inner, max_size=5),
    max_leaves=60)


@settings(max_examples=300, deadline=None)
@given(document_values)
def test_shown_is_repr_cut_to_its_first_200_characters(value):
    expected = repr(value)
    assert shown(value) == (expected if len(expected) <= 200 else expected[:200] + "...")


def test_shown_writes_a_value_that_holds_itself_as_repr_does():
    items: list = [1]
    items.append(items)
    mapping: dict = {"a": items}
    mapping["b"] = mapping
    assert shown(items) == repr(items) == "[1, [...]]"
    assert shown(mapping) == repr(mapping)
    assert shown((items,)) == repr((items,))


# -- open handles pass through --------------------------------------------------
# A path is opened, wrapped and replaced (tests/test_cli.py); an open handle is
# the caller's: these pin that the helpers neither close it nor change an error.

PASS_THROUGH = {
    "open_input": lambda handle: open_input(handle, "data file"),
    "open_outputs": lambda handle: open_outputs(handle),
    "open_outputs with None": lambda handle: open_outputs(None, handle, None),
}
ERRORS = {
    "OSError": lambda: OSError(2, "No such file"),
    "UnicodeDecodeError": lambda: UnicodeDecodeError("utf-8", b"\xff", 0, 1, "bad"),
    "csv.Error": lambda: csv.Error("field larger than field limit"),
    "ValidationError": lambda: ValidationError("row 0: bad"),
    "KeyboardInterrupt": KeyboardInterrupt,
}


def test_an_open_handle_is_yielded_itself_and_left_open():
    handle = io.StringIO("a,b\n")
    with open_input(handle, "data file") as opened:
        assert opened is handle
    with open_outputs(handle) as (opened,):
        assert opened is handle
    with open_outputs(None, handle, None) as (before, opened, after):
        assert before is None and opened is handle and after is None
    assert not handle.closed
    assert handle.getvalue() == "a,b\n"


@pytest.mark.parametrize("error", ERRORS)
@pytest.mark.parametrize("name", PASS_THROUGH)
def test_an_error_in_the_block_of_an_open_handle_propagates_unchanged(name, error):
    handle, raising = io.StringIO(), ERRORS[error]()
    with pytest.raises(type(raising)) as raised:
        with PASS_THROUGH[name](handle):
            raise raising
    assert raised.value is raising
    assert raised.value.__cause__ is None and raised.value.__context__ is None
    assert not handle.closed


CONTENT_ERRORS = {
    "ValidationError": lambda: ValidationError("row 0: bad"),
    "MappingError": lambda: MappingError("contribution header does not match"),
    "CellError": lambda: CellError(3, ValidationError("bad")),
}


@pytest.mark.parametrize("error", CONTENT_ERRORS)
def test_an_error_in_the_block_of_a_path_names_the_path(tmp_path, error):
    """The error itself is raised again, its type and fields kept, with the
    path before its text; a file opened within names itself after it."""
    outer, inner = tmp_path / "outer.yaml", tmp_path / "inner.csv"
    outer.write_text("a\n", encoding="utf-8")
    inner.write_text("a\n", encoding="utf-8")
    raising = CONTENT_ERRORS[error]()
    text = str(raising)
    with pytest.raises(type(raising)) as raised:
        with open_input(outer, "pipeline") as handle, open_input(inner, "data file"):
            raise raising
    assert raised.value is raising
    assert str(raised.value) == f"{outer}: {inner}: {text}"
    assert getattr(raised.value, "row", None) == (3 if isinstance(raising, CellError) else None)
    assert handle.closed
