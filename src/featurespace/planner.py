"""Persona-driven audits: which interpretability properties a feature set is
missing for a given audience, and which transforms would close the gaps."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .errors import ValidationError
from .properties import PROPERTY_NAMES, PropertySet, implication_closure
from .schema import (
    FeatureSpec,
    SchemaManifest,
    document_bool,
    document_list,
    document_mapping,
    open_input,
    read_yaml,
)

PERSONA_KINDS = ("developer", "theorist", "ethicist", "decision_maker", "impacted_user")

_MODEL_SIDE = ("predictive", "model_compatible", "model_ready")
_DECISION_SIDE = ("meaningful", "understandable", "human_worded", "readable")

# Default property profiles per persona; configuration can override them.
DEFAULT_REQUIRED: dict[str, tuple[str, ...]] = {
    "developer": _MODEL_SIDE,
    "theorist": _MODEL_SIDE,
    "decision_maker": _DECISION_SIDE,
    "ethicist": _DECISION_SIDE + ("trackable",),
    "impacted_user": _DECISION_SIDE + ("trackable",),
}

# Transform kinds (as lineage formula descriptors) each persona should avoid;
# "imputed" marks an unflagged imputation. Hits produce warnings, never errors.
DEFAULT_AVOID: dict[str, tuple[str, ...]] = {
    "developer": (),
    "theorist": (),
    "decision_maker": ("one_hot_encode", "imputed"),
    "ethicist": ("one_hot_encode", "imputed"),
    "impacted_user": ("one_hot_encode", "imputed"),
}


@dataclass(frozen=True)
class Persona:
    """An explanation-user archetype with its required-property profile.

    ``require_all`` toggles whether every required property must be present
    (default) or any one of them suffices.
    """

    kind: str
    required: PropertySet
    avoid: tuple[str, ...] = ()
    require_all: bool = True

    def __post_init__(self):
        object.__setattr__(self, "avoid", tuple(self.avoid))
        closed = implication_closure(self.required)
        if closed != self.required:
            raise ValidationError(
                f"persona {self.kind!r}: required properties must be implication-closed")


def required_properties(kind: str) -> PropertySet:
    """Closure of the persona's default property profile."""
    if kind not in PERSONA_KINDS:
        raise ValidationError(f"unknown persona kind {kind!r}")
    return implication_closure(PropertySet.from_names(DEFAULT_REQUIRED[kind]))


def make_persona(kind: str, required=None, avoid=None, require_all: bool = True) -> Persona:
    if kind not in PERSONA_KINDS:
        raise ValidationError(f"unknown persona kind {kind!r}")
    if required is None:
        props = required_properties(kind)
    else:
        props = implication_closure(PropertySet.from_names(required))
    return Persona(
        kind=kind,
        required=props,
        avoid=tuple(avoid) if avoid is not None else DEFAULT_AVOID[kind],
        require_all=require_all,
    )


_PERSONA_KEYS = {"kind", "required", "avoid", "require_all"}


def load_persona(name_or_path: str | Path) -> Persona:
    """Resolve a builtin persona name, or load a persona config document."""
    name = str(name_or_path)
    if name in PERSONA_KINDS and not Path(name).exists():
        return make_persona(name)
    path = Path(name_or_path)
    if not path.exists():
        raise ValidationError(
            f"persona {name!r} is neither a builtin kind {list(PERSONA_KINDS)} "
            "nor an existing config file")
    with open_input(path, "persona") as handle:
        doc = document_mapping(read_yaml(handle.read(), "persona"), "persona config",
                               _PERSONA_KEYS, required=("kind",))
        # An absent or null list keeps the kind's default.
        required, avoid = doc.get("required"), doc.get("avoid")
        return make_persona(
            str(doc["kind"]),
            required=None if required is None else document_list(required, "required"),
            avoid=None if avoid is None else document_list(avoid, "avoid"),
            require_all=document_bool(doc.get("require_all", True), "require_all"),
        )


@dataclass(frozen=True)
class Suggestion:
    """A transform (or a note, when kind is None) that could close a gap."""

    feature: str
    kind: str | None
    rationale: str


@dataclass(frozen=True)
class GapEntry:
    feature: str
    missing: tuple[str, ...]


@dataclass(frozen=True)
class AuditReport:
    persona: Persona
    gaps: tuple[GapEntry, ...]
    suggestions: tuple[Suggestion, ...]
    warnings: tuple[str, ...] = ()

    @property
    def total_gaps(self) -> int:
        return sum(len(g.missing) for g in self.gaps)

    def to_data(self) -> dict[str, Any]:
        return {
            "persona": self.persona.kind,
            "required": list(self.persona.required.true_names()),
            "gaps": [{"feature": g.feature, "missing": list(g.missing)} for g in self.gaps],
            "suggestions": [
                {"feature": s.feature, "transform": s.kind, "rationale": s.rationale}
                for s in self.suggestions
            ],
            "warnings": list(self.warnings),
            "total_gaps": self.total_gaps,
        }

    def format_text(self) -> str:
        lines = [f"persona: {self.persona.kind}",
                 f"required: {', '.join(self.persona.required.true_names())}"]
        if not self.gaps:
            lines.append("gaps: none")
        else:
            lines.append(f"gaps ({self.total_gaps} across {len(self.gaps)} features):")
            for gap in self.gaps:
                lines.append(f"  {gap.feature}: missing {', '.join(gap.missing)}")
        if self.suggestions:
            lines.append("suggestions:")
            for s in self.suggestions:
                kind = s.kind or "note"
                lines.append(f"  {s.feature}: {kind} ({s.rationale})")
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        return "\n".join(lines) + "\n"


def _produced_by(spec: FeatureSpec) -> str | None:
    return spec.derived_from.formula if spec.derived_from is not None else None


def _has_value_wording(spec: FeatureSpec) -> bool:
    return spec.wording is not None and spec.wording.value_phrase is not None


def _has_statement_wording(spec: FeatureSpec) -> bool:
    return (spec.wording is not None
            and spec.wording.positive_statement is not None
            and spec.wording.negative_statement is not None)


def suggest_transforms(gap: str, spec: FeatureSpec) -> tuple[Suggestion, ...]:
    """Deterministic, ordered remedies for one missing property on one feature.

    Empty when nothing but feature selection can help (e.g. meaningful).
    """
    if gap not in PROPERTY_NAMES:
        raise ValidationError(f"unknown property gap {gap!r}")
    produced = _produced_by(spec)
    name = spec.name
    out: list[Suggestion] = []
    if gap in ("meaningful", "predictive"):
        out.append(Suggestion(name, None,
                              f"{gap} requires feature selection, not a transform"))
    elif gap == "readable":
        if produced == "one_hot_encode":
            out.append(Suggestion(name, "one_hot_decode",
                                  "collapse the one-hot group back to its category"))
        elif spec.dtype == "boolean" and not _has_statement_wording(spec):
            out.append(Suggestion(name, "render_statement",
                                  "add statement wording templates, then render"))
    elif gap == "human_worded":
        if spec.dtype == "boolean" and not _has_statement_wording(spec):
            out.append(Suggestion(name, "render_statement",
                                  "wording templates needed before statements can be rendered"))
        elif spec.dtype == "numeric" and not _has_value_wording(spec):
            out.append(Suggestion(name, "render_statement",
                                  "value wording template needed for natural display"))
        elif _has_statement_wording(spec) or _has_value_wording(spec):
            out.append(Suggestion(name, "render_statement",
                                  "render values through the declared wording templates"))
        if produced == "one_hot_encode":
            out.append(Suggestion(name, "one_hot_decode",
                                  "grouped indicators read naturally as one categorical value"))
    elif gap == "understandable":
        if produced == "standardize":
            out.append(Suggestion(name, "unstandardize",
                                  "display the value on its original real-world scale"))
        elif produced == "statistical_bin":
            out.append(Suggestion(name, "semantic_bin",
                                  "replace uniform-width bins with domain-meaningful ones"))
    elif gap in ("model_ready", "model_compatible"):
        if spec.dtype in ("categorical", "ordinal"):
            out.append(Suggestion(name, "one_hot_encode",
                                  "encode categories for models that need numeric inputs"))
        elif spec.dtype == "numeric":
            out.append(Suggestion(name, "standardize",
                                  "scale the column to the model's expected range"))
    elif gap == "trackable":
        if produced == "imputed":
            out.append(Suggestion(name, "impute_flagged",
                                  "flag imputed cells so synthetic values are distinguishable"))
        elif spec.derived_from is not None:
            out.append(Suggestion(name, "link_raw",
                                  "link the derived value back to its raw series"))
    elif gap == "simulatable":
        out.append(Suggestion(name, "link_raw",
                              "link to the raw series so the value can be recomputed"))
    elif gap == "abstract_concept":
        out.append(Suggestion(name, "abstract_concept",
                              "combine related measures into a domain concept"))
    return tuple(out)


def audit(manifest: SchemaManifest, persona: Persona) -> AuditReport:
    """Per-feature property gaps, transform suggestions, and avoid warnings.

    Deterministic: features in manifest order, gaps in taxonomy order.
    """
    required = persona.required.true_names()
    gaps: list[GapEntry] = []
    suggestions: list[Suggestion] = []
    seen: set[tuple[str, str | None]] = set()
    warnings: list[str] = []
    for spec in manifest.features:
        # A manifest holds only specs that meet its implications: each spec's
        # flags are their own closure.
        missing = tuple(p for p in required if not getattr(spec.properties, p))
        if missing and not persona.require_all and len(missing) < len(required):
            missing = ()  # any-one-of mode: a single present property suffices
        if missing:
            gaps.append(GapEntry(feature=spec.name, missing=missing))
            for gap in missing:
                for suggestion in suggest_transforms(gap, spec):
                    key = (suggestion.feature, suggestion.kind)
                    if key not in seen:
                        seen.add(key)
                        suggestions.append(suggestion)
        produced = _produced_by(spec)
        if produced is not None and produced in persona.avoid:
            warnings.append(
                f"feature {spec.name!r} was produced by {produced}, which "
                f"{persona.kind} explanations should avoid")
    suggestions.extend(_related_numeric_suggestions(manifest, gaps, seen))
    return AuditReport(persona=persona, gaps=tuple(gaps),
                       suggestions=tuple(suggestions), warnings=tuple(warnings))


def _related_numeric_suggestions(manifest: SchemaManifest,
                                 gaps: list[GapEntry],
                                 seen: set) -> list[Suggestion]:
    """Groups of related primitive numerics with interpretability gaps invite
    aggregation into one concept."""
    gapped = {g.feature: set(g.missing) for g in gaps}
    groups: dict[str, list[str]] = {}
    for spec in manifest.features:
        if spec.dtype != "numeric" or spec.derived_from is not None:
            continue
        prefix = spec.name.split()[0]
        groups.setdefault(prefix, []).append(spec.name)
    out = []
    for prefix, members in groups.items():
        if len(members) < 2:
            continue
        relevant = any("understandable" in gapped.get(m, ()) or
                       "abstract_concept" in gapped.get(m, ()) for m in members)
        if not relevant:
            continue
        feature = ", ".join(members)
        key = (feature, "abstract_concept")
        if key not in seen:
            seen.add(key)
            out.append(Suggestion(feature, "abstract_concept",
                                  f"combine the related {prefix} measures into one concept"))
    return out
