"""Taxonomy flags and implication rules."""

from __future__ import annotations

from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featurespace.errors import ValidationError
from featurespace.properties import (
    IMPLICATIONS,
    PROPERTY_NAMES,
    PropertySet,
    format_edge,
    implication_closure,
    validate_property_set,
)
from featurespace.schema import FeatureSpec, SchemaManifest


def closure_oracle(p: PropertySet, edges=IMPLICATIONS) -> PropertySet:
    """Independent fixpoint: repeatedly add heads for satisfied tails."""
    true = set(p.true_names())
    while True:
        added = {head for tail, head in edges if tail in true and head not in true}
        if not added:
            return PropertySet.from_names(true)
        true |= added


def all_property_sets():
    for bits in product([False, True], repeat=len(PROPERTY_NAMES)):
        yield PropertySet(**dict(zip(PROPERTY_NAMES, bits)))


def test_human_worded_requires_readable():
    p = PropertySet(human_worded=True)
    assert validate_property_set(p) == (("human_worded", "readable"),)


def test_all_false_is_coherent():
    assert validate_property_set(PropertySet()) == ()


def test_simulatable_with_trackable_is_coherent():
    p = PropertySet(simulatable=True, trackable=True)
    assert validate_property_set(p) == ()


def test_closure_adds_readable_for_human_worded():
    p = implication_closure(PropertySet(human_worded=True))
    assert p == PropertySet(human_worded=True, readable=True)


def test_closure_adds_model_compatible_for_model_ready():
    p = implication_closure(PropertySet(model_ready=True))
    assert p == PropertySet(model_ready=True, model_compatible=True)


def test_closure_matches_oracle_exhaustively():
    for p in all_property_sets():
        assert implication_closure(p) == closure_oracle(p)


def test_closure_idempotent_exhaustively():
    for p in all_property_sets():
        once = implication_closure(p)
        assert implication_closure(once) == once


def test_closure_extensive_and_monotone():
    sets = list(all_property_sets())
    for p in sets:
        assert set(p.true_names()) <= set(implication_closure(p).true_names())
    # monotonicity over comparable pairs: p vs p with one extra flag
    for p in sets:
        closed = implication_closure(p)
        for name in PROPERTY_NAMES:
            if not p.has(name):
                bigger = implication_closure(replace(p, **{name: True}))
                assert set(closed.true_names()) <= set(bigger.true_names())


def test_valid_iff_fixed_point():
    for p in all_property_sets():
        ok = validate_property_set(p) == ()
        assert ok == (implication_closure(p) == p)


def test_closure_of_a_closed_set_is_the_set_itself():
    """Planning closes every produced feature's flags; one that no edge
    changes is not built again."""
    for p in all_property_sets():
        assert (implication_closure(p) is p) == (validate_property_set(p) == ())


def test_extra_implications_extend_the_edge_set():
    extra = [("understandable", "readable")]
    p = PropertySet(understandable=True)
    assert validate_property_set(p) == ()  # not enforced by default
    assert validate_property_set(p, extra) == (("understandable", "readable"),)
    assert implication_closure(p, extra).readable


def test_unknown_flag_rejected():
    with pytest.raises(ValidationError):
        PropertySet.from_names(["made_up"])
    with pytest.raises(ValidationError):
        validate_property_set(PropertySet(), [("nope", "readable")])


def test_format_edge():
    assert format_edge(("human_worded", "readable")) == "human_worded=>readable"


FLAG_NAMES = st.lists(st.sampled_from(PROPERTY_NAMES), max_size=5)
EDGES = st.lists(st.tuples(st.sampled_from(PROPERTY_NAMES), st.sampled_from(PROPERTY_NAMES)),
                 max_size=3)


@settings(max_examples=200, deadline=None)
@given(EDGES, st.lists(st.tuples(FLAG_NAMES, st.booleans()), min_size=1, max_size=4))
def test_every_spec_of_a_manifest_is_its_own_closure(extra, drawn):
    """A manifest holds a spec only if the spec's flags are their own closure
    over the manifest's implications, so ``audit`` reads them as they are.
    Each drawn flag set is closed first or not, as its boolean says."""
    flag_sets = [implication_closure(PropertySet.from_names(names), extra) if closed
                 else PropertySet.from_names(names) for names, closed in drawn]
    try:
        manifest = SchemaManifest(tuple(
            FeatureSpec(f"f{i}", "numeric", properties=flags, observed=True)
            for i, flags in enumerate(flag_sets)), extra_implications=tuple(extra))
    except ValidationError:
        assert any(implication_closure(flags, extra) != flags for flags in flag_sets)
        return
    for spec in manifest.features:
        assert implication_closure(spec.properties, manifest.extra_implications) \
            == spec.properties
