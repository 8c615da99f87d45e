"""Feature specs, manifests, the document format, and schema diffs."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featurespace.errors import ValidationError
from featurespace.properties import PROPERTY_NAMES, PropertySet, implication_closure
from featurespace.schema import (
    DerivedFrom,
    FeatureSpec,
    RawSource,
    SchemaManifest,
    Wording,
    feature_from_data,
    feature_to_data,
    manifest_to_data,
    parse_manifest,
    serialize_manifest,
)

from _generators import random_schema

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


def test_manifest_round_trip_random():
    rng = random.Random(7)
    for _ in range(25):
        manifest = random_schema(rng)
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
