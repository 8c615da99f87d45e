"""Feature specifications, schema manifests, and the manifest document format."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Mapping

import yaml
from yaml.composer import Composer
from yaml.constructor import SafeConstructor
from yaml.resolver import Resolver

from .errors import ValidationError
from .properties import (
    PROPERTY_NAMES,
    Edge,
    PropertySet,
    format_edge,
    validate_property_set,
)

DTYPES = ("numeric", "categorical", "boolean", "ordinal")
SPACE_TAGS = ("original", "model_ready", "interpretable")


@dataclass(frozen=True)
class Wording:
    """Templates for rendering a feature value as natural language.

    ``value_phrase`` must contain the ``{value}`` placeholder.
    """

    positive_statement: str | None = None
    negative_statement: str | None = None
    value_phrase: str | None = None

    def __post_init__(self):
        if self.value_phrase is not None and "{value}" not in self.value_phrase:
            raise ValidationError("value_phrase must contain the {value} placeholder")


@dataclass(frozen=True)
class RawSource:
    """Pointer from a feature to the raw series it was computed from."""

    series_id: str
    window: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "window", document_window(self.window, "raw_source window"))
        start, stop = self.window
        if start < 0 or stop <= start:
            raise ValidationError(f"raw_source window must satisfy 0 <= start < stop, got {self.window}")


@dataclass(frozen=True)
class DerivedFrom:
    """Derivation record: parent feature names plus a formula descriptor."""

    inputs: tuple[str, ...]
    formula: str

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if not self.inputs:
            raise ValidationError("derived_from requires at least one input feature")


def _needs_categories(dtype: str) -> bool:
    return dtype in ("categorical", "ordinal")


@dataclass(frozen=True)
class FeatureSpec:
    """Everything declared about one feature: identity, domain, wording,
    interpretability flags, and lineage hooks."""

    name: str
    dtype: str
    description: str = ""
    unit: str | None = None
    categories: tuple[str, ...] | None = None
    wording: Wording | None = None
    properties: PropertySet = field(default_factory=PropertySet)
    raw_source: RawSource | None = None
    derived_from: DerivedFrom | None = None
    observed: bool = False

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError("feature name must be a non-empty string")
        if self.dtype not in DTYPES:
            raise ValidationError(f"feature {self.name!r}: unknown dtype {self.dtype!r}")
        if self.categories is not None:
            object.__setattr__(self, "categories", tuple(self.categories))
        if _needs_categories(self.dtype):
            if not self.categories:
                raise ValidationError(
                    f"feature {self.name!r}: dtype {self.dtype} requires a non-empty category list")
            if any(not isinstance(c, str) or not c for c in self.categories):
                raise ValidationError(f"feature {self.name!r}: categories must be non-empty strings")
            if len(set(self.categories)) != len(self.categories):
                raise ValidationError(f"feature {self.name!r}: duplicate category labels")
        elif self.categories is not None:
            raise ValidationError(f"feature {self.name!r}: dtype {self.dtype} does not take categories")
        violated = validate_property_set(self.properties)
        if violated:
            edges = ", ".join(format_edge(e) for e in violated)
            raise ValidationError(f"feature {self.name!r}: property implications violated: {edges}")
        if (self.properties.simulatable and self.derived_from is None
                and self.raw_source is None and not self.observed):
            raise ValidationError(
                f"feature {self.name!r}: simulatable requires derived_from, raw_source, "
                "or the observed flag")


@dataclass(frozen=True)
class SchemaManifest:
    """An ordered set of feature specifications tagged with its feature space."""

    features: tuple[FeatureSpec, ...]
    space_tag: str = "original"
    extra_implications: tuple[Edge, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        object.__setattr__(self, "extra_implications",
                           tuple((t, h) for t, h in self.extra_implications))
        if self.space_tag not in SPACE_TAGS:
            raise ValidationError(f"unknown space_tag {self.space_tag!r}")
        names = [f.name for f in self.features]
        seen: set[str] = set()
        for name in names:
            if name in seen:
                raise ValidationError(f"duplicate feature name {name!r}")
            seen.add(name)
        for spec in self.features:
            violated = validate_property_set(spec.properties, self.extra_implications)
            if violated:
                edges = ", ".join(format_edge(e) for e in violated)
                raise ValidationError(
                    f"feature {spec.name!r}: property implications violated: {edges}")
        if self.space_tag == "model_ready":
            bad = [f.name for f in self.features if not f.properties.model_compatible]
            if bad:
                raise ValidationError(
                    f"space_tag=model_ready requires model_compatible on every feature; "
                    f"missing on: {bad}")

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {f.name: i for i, f in enumerate(self.features)}

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValidationError(f"unknown feature {name!r}") from None

    def feature(self, name: str) -> FeatureSpec:
        return self.features[self.index(name)]


# ---------------------------------------------------------------------------
# Manifest document format (YAML): top-level `space_tag`, `features`, and an
# optional `implications` extension section. Unknown keys are rejected.

_TOP_KEYS = {"space_tag", "features", "implications"}
_FEATURE_KEYS = {"name", "description", "dtype", "unit", "categories", "wording",
                 "properties", "raw_source", "derived_from", "observed"}
_WORDING_KEYS = {"positive", "negative", "value"}
_RAW_SOURCE_KEYS = {"series_id", "window"}
_DERIVED_KEYS = {"inputs", "formula"}


def document_bool(value: Any, where: str) -> bool:
    """A document's boolean, which must be ``true`` or ``false`` as written."""
    if not isinstance(value, bool):
        raise ValidationError(f"{where} must be true or false, got {value!r}")
    return value


def document_int(value: Any, where: str) -> int:
    """A document's integer; a float or a boolean is not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{where} must be an integer, got {value!r}")
    return value


def document_number(value: Any, where: str) -> float:
    """A document's finite number, as a float; a boolean or a string is not
    coerced."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ValidationError(f"{where} must be a finite number, got {value!r}")


def document_text(value: Any, where: str) -> str:
    """A document's optional text, such as a description; null reads as
    absent (``""``) and any other non-string is not coerced."""
    if value is None:
        return ""
    if not isinstance(value, str):
        raise ValidationError(f"{where} must be a string, got {value!r}")
    return value


def document_window(value: Any, where: str) -> tuple[int, int]:
    """A document's ``[start, stop]`` pair of integers."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValidationError(f"{where} must be [start, stop], got {value!r}")
    return document_int(value[0], where), document_int(value[1], where)


def _reject_unknown(mapping: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ValidationError(f"{where}: unknown keys {unknown}")


def _names(value: Any, where: str) -> tuple[str, ...]:
    """A document's list of names, each read as text."""
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{where} must be a list, got {value!r}")
    return tuple(str(n) for n in value)


def _parse_properties(data: Any, where: str) -> PropertySet:
    if data is None:
        return PropertySet()
    if isinstance(data, list):
        return PropertySet.from_names(data)
    if isinstance(data, Mapping):
        _reject_unknown(data, set(PROPERTY_NAMES), where)
        return PropertySet(**{k: document_bool(v, f"{where}: {k}") for k, v in data.items()})
    raise ValidationError(f"{where}: properties must be a mapping or a list of flag names")


def parse_wording_data(data: Any, where: str = "wording") -> Wording | None:
    if data is None:
        return None
    if not isinstance(data, Mapping):
        raise ValidationError(f"{where}: wording must be a mapping")
    _reject_unknown(data, _WORDING_KEYS, where)
    for key, template in data.items():
        if template is not None and not isinstance(template, str):
            raise ValidationError(f"{where}: {key} must be a string, got {template!r}")
    return Wording(
        positive_statement=data.get("positive"),
        negative_statement=data.get("negative"),
        value_phrase=data.get("value"),
    )


def feature_from_data(data: Any, where: str) -> FeatureSpec:
    """A feature spec from its document entry, one item of a manifest's
    ``features``; errors name the entry as ``where``."""
    if not isinstance(data, Mapping):
        raise ValidationError(f"{where} must be a mapping")
    _reject_unknown(data, _FEATURE_KEYS, where)
    for key in ("name", "dtype"):
        if key not in data:
            raise ValidationError(f"{where}: missing required key {key!r}")
    raw_source = None
    if data.get("raw_source") is not None:
        rs = data["raw_source"]
        if not isinstance(rs, Mapping):
            raise ValidationError(f"{where}: raw_source must be a mapping")
        _reject_unknown(rs, _RAW_SOURCE_KEYS, f"{where}.raw_source")
        if "series_id" not in rs or "window" not in rs:
            raise ValidationError(f"{where}: raw_source needs series_id and window")
        raw_source = RawSource(series_id=str(rs["series_id"]),
                               window=document_window(rs["window"], f"{where}.raw_source: window"))
    derived = None
    if data.get("derived_from") is not None:
        df = data["derived_from"]
        if not isinstance(df, Mapping):
            raise ValidationError(f"{where}: derived_from must be a mapping")
        _reject_unknown(df, _DERIVED_KEYS, f"{where}.derived_from")
        if "inputs" not in df or "formula" not in df:
            raise ValidationError(f"{where}: derived_from needs inputs and formula")
        derived = DerivedFrom(inputs=_names(df["inputs"], f"{where}.derived_from: inputs"),
                              formula=str(df["formula"]))
    categories = data.get("categories")
    return FeatureSpec(
        name=str(data["name"]),
        dtype=str(data["dtype"]),
        description=document_text(data.get("description"), f"{where}: description"),
        unit=None if data.get("unit") is None else str(data["unit"]),
        categories=None if categories is None else _names(categories, f"{where}: categories"),
        wording=parse_wording_data(data.get("wording"), f"{where}.wording"),
        properties=_parse_properties(data.get("properties"), f"{where}.properties"),
        raw_source=raw_source,
        derived_from=derived,
        observed=document_bool(data.get("observed", False), f"{where}: observed"),
    )


def manifest_from_data(data: Any) -> SchemaManifest:
    """Build a manifest from an already-parsed document structure."""
    if not isinstance(data, Mapping):
        raise ValidationError("manifest document must be a mapping")
    _reject_unknown(data, _TOP_KEYS, "manifest")
    if "space_tag" not in data or "features" not in data:
        raise ValidationError("manifest needs top-level space_tag and features")
    features_data = data["features"]
    if not isinstance(features_data, list):
        raise ValidationError("manifest: features must be a list")
    features = tuple(feature_from_data(f, f"features[{i}]") for i, f in enumerate(features_data))
    implications = data.get("implications") or []
    if not isinstance(implications, list):
        raise ValidationError("manifest: implications must be a list of [tail, head] pairs")
    extra = []
    for pair in implications:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValidationError("manifest: each implication must be a [tail, head] pair")
        extra.append((str(pair[0]), str(pair[1])))
    return SchemaManifest(features=features, space_tag=str(data["space_tag"]),
                          extra_implications=tuple(extra))


try:
    from yaml.cyaml import CParser
except ImportError:  # PyYAML built without libyaml
    _LIBYAML_LOADER = None
else:
    class _LibyamlLoader(Composer, CParser, SafeConstructor, Resolver):
        """``yaml.SafeLoader`` with libyaml's scanner and parser. Composing
        stays PyYAML's Python code, so deep nesting raises ``RecursionError``
        as it does with ``SafeLoader``: ``yaml.CSafeLoader`` composes in C
        and overflows the C stack on 100,000 nested block sequences."""

        def __init__(self, stream):
            CParser.__init__(self, stream)
            Composer.__init__(self)
            SafeConstructor.__init__(self)
            Resolver.__init__(self)

    _LIBYAML_LOADER = _LibyamlLoader

# The constructs load_yaml's docstring lists, where libyaml reads text differently.
_PYYAML_ONLY = re.compile(r"[!\t]|.\ufeff|[|>][-+0-9]*#", re.DOTALL)


def load_yaml(text: str) -> Any:
    """``yaml.safe_load(text)``: the same data, or the same exception.

    Scans and parses with libyaml, several times faster than PyYAML's
    Python parser, except where the two are known to read text differently.
    Text containing any of these goes to ``yaml.safe_load`` instead:

    - ``!``: an empty node tagged ``!`` is None to PyYAML and ``''`` to
      libyaml.
    - A tab: PyYAML rejects one after a plain scalar (``a\\t``); libyaml
      accepts it.
    - U+FEFF after the first character: PyYAML keeps it; libyaml drops it.
    - A block-scalar header followed directly by ``#`` (``|#``, ``>-#``):
      PyYAML rejects it; libyaml accepts it.

    Any exception from the libyaml path also re-parses with ``safe_load``,
    so every error is PyYAML's own: libyaml's path raises ``IndexError`` on
    ``!!int |#|}`` and ``UnicodeEncodeError`` on a lone surrogate, where
    PyYAML raises ``yaml.YAMLError``. Without libyaml, ``safe_load`` does
    everything. Both parsers raise ``RecursionError`` on nesting near
    Python's recursion limit, about 490 levels from a shallow stack; the
    libyaml path's limit is up to four levels deeper.
    """
    if _LIBYAML_LOADER is not None and not _PYYAML_ONLY.search(text):
        try:
            return yaml.load(text, Loader=_LIBYAML_LOADER)
        except Exception:  # re-parsed below, so the error raised is PyYAML's
            pass
    return yaml.safe_load(text)


def read_yaml(text: str, what: str) -> Any:
    """``load_yaml(text)`` for a document reader: every way the text can fail
    to load is a ValidationError saying ``what`` failed to parse.

    Besides ``yaml.YAMLError``, PyYAML's constructors raise ``ValueError``,
    ``KeyError``, ``IndexError`` or ``AttributeError`` on a scalar they cannot
    build (``!!int 0x``, ``!!timestamp abc``, ``!!bool ''``), and composing
    raises ``RecursionError`` on deep nesting.
    """
    try:
        return load_yaml(text)
    except yaml.YAMLError as exc:
        raise ValidationError(f"{what} parse error: {exc}") from exc
    except RecursionError:
        raise ValidationError(f"{what} parse error: nested too deeply") from None
    except (ValueError, LookupError, AttributeError) as exc:
        raise ValidationError(
            f"{what} parse error: cannot construct a value "
            f"({type(exc).__name__}: {exc})") from exc


def parse_manifest(text: str) -> SchemaManifest:
    """Parse a manifest document; raises ValidationError on malformed input."""
    return manifest_from_data(read_yaml(text, "manifest"))


def load_manifest(path: str | Path) -> SchemaManifest:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read manifest {path}: {exc}") from exc
    try:
        return parse_manifest(text)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def wording_to_data(w: Wording) -> dict[str, str]:
    out = {}
    if w.positive_statement is not None:
        out["positive"] = w.positive_statement
    if w.negative_statement is not None:
        out["negative"] = w.negative_statement
    if w.value_phrase is not None:
        out["value"] = w.value_phrase
    return out


def feature_to_data(spec: FeatureSpec) -> dict[str, Any]:
    """The document entry of one feature, as ``feature_from_data`` reads it;
    unset fields are left out."""
    item: dict[str, Any] = {"name": spec.name, "dtype": spec.dtype}
    if spec.description:
        item["description"] = spec.description
    if spec.unit is not None:
        item["unit"] = spec.unit
    if spec.categories is not None:
        item["categories"] = list(spec.categories)
    if spec.wording is not None:
        item["wording"] = wording_to_data(spec.wording)
    true_flags = spec.properties.true_names()
    if true_flags:
        item["properties"] = list(true_flags)
    if spec.raw_source is not None:
        item["raw_source"] = {"series_id": spec.raw_source.series_id,
                              "window": list(spec.raw_source.window)}
    if spec.derived_from is not None:
        item["derived_from"] = {"inputs": list(spec.derived_from.inputs),
                                "formula": spec.derived_from.formula}
    if spec.observed:
        item["observed"] = True
    return item


def manifest_to_data(manifest: SchemaManifest) -> dict[str, Any]:
    data: dict[str, Any] = {"space_tag": manifest.space_tag,
                            "features": [feature_to_data(f) for f in manifest.features]}
    if manifest.extra_implications:
        data["implications"] = [list(e) for e in manifest.extra_implications]
    return data


def serialize_manifest(manifest: SchemaManifest) -> str:
    return yaml.safe_dump(manifest_to_data(manifest), sort_keys=False,
                          allow_unicode=True, default_flow_style=False)
