"""Persona profiles, manifest audits, and gap-closing suggestions."""

from __future__ import annotations

from dataclasses import replace

import pytest

from featurespace import demo
from featurespace.errors import ValidationError
from featurespace.planner import (
    audit,
    load_persona,
    make_persona,
    required_properties,
    suggest_transforms,
)
from featurespace.properties import PropertySet, implication_closure
from featurespace.schema import DerivedFrom, FeatureSpec, SchemaManifest


def test_decision_maker_profile():
    props = required_properties("decision_maker")
    assert props == PropertySet(meaningful=True, understandable=True,
                                human_worded=True, readable=True)


def test_developer_profile_closure_adds_nothing_new():
    props = required_properties("developer")
    assert props == PropertySet(predictive=True, model_compatible=True,
                                model_ready=True)


def test_ethicist_mirrors_decision_maker_plus_trackable():
    assert required_properties("ethicist") == \
        replace(required_properties("decision_maker"), trackable=True)
    assert required_properties("impacted_user") == required_properties("ethicist")


def test_unknown_persona_kind_rejected():
    with pytest.raises(ValidationError, match="unknown persona"):
        required_properties("stakeholder")
    with pytest.raises(ValidationError, match="unknown persona"):
        make_persona("stakeholder")


def test_required_properties_are_closed():
    for kind in ("developer", "theorist", "ethicist", "decision_maker",
                 "impacted_user"):
        props = required_properties(kind)
        assert implication_closure(props) == props


def test_audit_covertype_model_ready_as_decision_maker():
    report = audit(demo.model_ready_manifest(), make_persona("decision_maker"))
    kinds = {s.kind for s in report.suggestions}
    assert {"one_hot_decode", "unstandardize", "semantic_bin"} <= kinds
    assert report.total_gaps > 0
    # one-hot lineage triggers the avoid warning for decision makers
    assert any("one_hot_encode" in w for w in report.warnings)


def test_audit_fully_satisfied_manifest_is_clean():
    spec = FeatureSpec(
        "Age", "numeric", unit="years",
        properties=implication_closure(PropertySet(
            meaningful=True, understandable=True, human_worded=True,
            readable=True)))
    report = audit(SchemaManifest(features=(spec,)), make_persona("decision_maker"))
    assert report.gaps == ()
    assert report.suggestions == ()


def test_audit_suggests_link_raw_for_simulatable_gap():
    spec = FeatureSpec(
        "mean(heart rate)", "numeric",
        derived_from=DerivedFrom(("heart rate",), "mean"),
        properties=PropertySet(readable=True, trackable=True))
    persona = make_persona("ethicist",
                           required=["simulatable"])
    report = audit(SchemaManifest(features=(spec,)), persona)
    assert any(s.kind == "link_raw" for s in report.suggestions)


def test_suggest_meaningful_requires_selection():
    spec = FeatureSpec("x", "numeric")
    suggestions = suggest_transforms("meaningful", spec)
    assert len(suggestions) == 1
    assert suggestions[0].kind is None
    assert "feature selection" in suggestions[0].rationale


def test_suggest_trackable_on_unflagged_imputation():
    spec = FeatureSpec("x", "numeric",
                       derived_from=DerivedFrom(("x raw",), "imputed"))
    suggestions = suggest_transforms("trackable", spec)
    assert [s.kind for s in suggestions] == ["impute_flagged"]


def test_suggest_human_worded_on_grouped_boolean():
    spec = FeatureSpec("Area Rawah", "boolean",
                       derived_from=DerivedFrom(("Wilderness area",),
                                                "one_hot_encode"),
                       properties=PropertySet(readable=True))
    kinds = [s.kind for s in suggest_transforms("human_worded", spec)]
    assert kinds == ["render_statement", "one_hot_decode"]


def test_suggest_understandable_from_lineage():
    std = FeatureSpec("x std", "numeric",
                      derived_from=DerivedFrom(("x",), "standardize"))
    assert [s.kind for s in suggest_transforms("understandable", std)] == \
        ["unstandardize"]
    binned = FeatureSpec("x bins", "ordinal", categories=("a", "b"),
                         derived_from=DerivedFrom(("x",), "statistical_bin"))
    assert [s.kind for s in suggest_transforms("understandable", binned)] == \
        ["semantic_bin"]


def test_unknown_gap_rejected():
    with pytest.raises(ValidationError, match="unknown property gap"):
        suggest_transforms("shiny", FeatureSpec("x", "numeric"))


def test_audit_deterministic_and_idempotent():
    manifest = demo.model_ready_manifest()
    persona = make_persona("decision_maker")
    first = audit(manifest, persona)
    second = audit(manifest, persona)
    assert first == second


def test_related_numerics_suggest_abstraction():
    features = tuple(
        FeatureSpec(f"Hillshade {t}", "numeric",
                    properties=PropertySet(readable=True), observed=True)
        for t in ("9am", "Noon", "3pm"))
    report = audit(SchemaManifest(features=features),
                   make_persona("decision_maker"))
    grouped = [s for s in report.suggestions if s.kind == "abstract_concept"]
    assert len(grouped) == 1
    assert "Hillshade 9am" in grouped[0].feature


def test_require_any_mode():
    spec = FeatureSpec("x", "numeric",
                       properties=PropertySet(readable=True))
    persona = make_persona("decision_maker", require_all=False)
    report = audit(SchemaManifest(features=(spec,)), persona)
    assert report.gaps == ()  # readable alone satisfies any-one-of


def test_persona_config_document(tmp_path):
    path = tmp_path / "persona.yaml"
    path.write_text(
        "kind: decision_maker\nrequired: [understandable, readable]\n"
        "avoid: [one_hot_encode]\n", encoding="utf-8")
    persona = load_persona(path)
    assert persona.required == PropertySet(understandable=True, readable=True)
    assert persona.avoid == ("one_hot_encode",)
    assert load_persona("theorist").kind == "theorist"
    with pytest.raises(ValidationError, match="neither a builtin"):
        load_persona("nonexistent-persona")


def test_audit_report_serialization():
    report = audit(demo.model_ready_manifest(), make_persona("decision_maker"))
    data = report.to_data()
    assert data["persona"] == "decision_maker"
    assert data["total_gaps"] == report.total_gaps
    text = report.format_text()
    assert "one_hot_decode" in text


def test_theorist_gaps_reference_model_space_only():
    manifest = SchemaManifest(features=(
        FeatureSpec("Age", "numeric",
                    properties=PropertySet(readable=True, understandable=True)),))
    report = audit(manifest, make_persona("theorist"))
    model_side = {"predictive", "model_compatible", "model_ready"}
    for gap in report.gaps:
        assert set(gap.missing) <= model_side
