"""Feature specifications, schema manifests, and the manifest document format.

A spec and a manifest also keep, computed once, what every table of theirs
shares: the CSV text of the header and of each category, and which columns
hold labels."""

from __future__ import annotations

import csv
import io
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import IO, Any, Iterable, Iterator, Mapping, Sequence

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


def csv_line(values: Sequence[str]) -> str:
    """The line ``csv.writer`` writes for ``values``, without its terminator."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(values)
    return buffer.getvalue()[:-1]


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

    def __getstate__(self):
        # A copy or a pickle keeps the fields; the cached properties below
        # are derived again when used.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def category_set(self) -> frozenset[str]:
        """The declared categories, as a set (empty without categories)."""
        return frozenset(self.categories or ())

    @cached_property
    def csv_labels(self) -> Mapping[str, str]:
        """Each declared category as a CSV field, quoted as ``csv.writer``
        quotes it; read-only."""
        return MappingProxyType({c: csv_line([c]) for c in self.categories or ()})


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

    @cached_property
    def label_positions(self) -> tuple[int, ...]:
        """Positions of the features with categories: the columns whose
        parsed CSV text still needs validating."""
        return tuple(i for i, f in enumerate(self.features) if f.categories is not None)

    @cached_property
    def csv_header(self) -> str:
        """The CSV header line of a table of this schema, without its terminator."""
        return csv_line(self.names)

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


# A number in exponent form: YAML 1.1 reads it as a float only with a dot in
# the mantissa and a sign in the exponent, as in ``1.0e-3``; ``1e-3`` is text.
_EXPONENT_RE = re.compile(r"([-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+))([eE])([-+]?)([0-9]+)")


def document_number(value: Any, where: str) -> float:
    """A document's finite number, as a float; a boolean or a string is not
    coerced. A string that YAML 1.1 took for text but that reads as a finite
    number gets the spelling that YAML reads as a float in the message."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    hint = ""
    match = _EXPONENT_RE.fullmatch(value) if isinstance(value, str) else None
    if match and math.isfinite(float(value)):
        mantissa, e, sign, digits = match.groups()
        spelled = (mantissa + ("" if "." in mantissa else ".0")
                   + e + (sign or "+") + digits)
        if spelled != value:
            hint = f" (YAML 1.1 reads {value} as text; write {spelled})"
    raise ValidationError(f"{where} must be a finite number, got {value!r}{hint}")


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


def document_mapping(value: Any, where: str, keys: Iterable[str] | None,
                     required: Iterable[str] = (),
                     unknown: str = "{where}: unknown keys {names}") -> Mapping[str, Any]:
    """A document's mapping, such as a section or one entry of a list; null
    reads as empty. Keys outside ``keys`` are rejected unless ``keys`` is
    None, and each ``required`` key must be present.

    Unknown keys are listed sorted by their text, so keys of several types
    (YAML reads ``1:`` as an integer) never fail to compare. ``unknown`` is
    the error's text, formatted with ``where`` and the list as ``names``.
    """
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ValidationError(f"{where} must be a mapping")
    if keys is not None:
        names = sorted(set(value).difference(keys), key=str)
        if names:
            raise ValidationError(unknown.format(where=where, names=names))
    for key in required:
        if key not in value:
            raise ValidationError(f"{where}: missing required key {key!r}")
    return value


def document_list(value: Any, where: str) -> tuple[str, ...]:
    """A document's list of names, such as categories or property flags,
    each item read as text; null reads as empty. Any other value that is not
    a list is rejected."""
    if value is None:
        return ()
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{where} must be a list, got {value!r}")
    return tuple(str(n) for n in value)


@contextmanager
def open_input(source: str | Path | IO[str], what: str) -> Iterator[IO[str]]:
    """``source`` open for reading: an open handle passes through unchanged,
    and a path is opened as UTF-8 with or without a byte-order mark, its line
    ends left as written (``csv`` needs them so; YAML and JSON read
    ``\\r\\n`` as a line break). An ``OSError`` or ``UnicodeDecodeError`` while
    opening or reading a path is a ValidationError naming ``what``."""
    if not isinstance(source, (str, Path)):
        yield source
        return
    try:
        with open(source, encoding="utf-8-sig", newline="") as handle:
            yield handle
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} {source}: {exc}") from exc


def _parse_properties(data: Any, where: str) -> PropertySet:
    if isinstance(data, list):
        return PropertySet.from_names(document_list(data, where))
    flags = document_mapping(data, where, PROPERTY_NAMES)
    return PropertySet(**{k: document_bool(v, f"{where}: {k}") for k, v in flags.items()})


def parse_wording_data(data: Any, where: str = "wording") -> Wording | None:
    if data is None:
        return None
    data = document_mapping(data, where, _WORDING_KEYS)
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
    data = document_mapping(data, where, _FEATURE_KEYS, required=("name", "dtype"))
    raw_source = None
    if data.get("raw_source") is not None:
        rs = document_mapping(data["raw_source"], f"{where}.raw_source", _RAW_SOURCE_KEYS,
                              required=("series_id", "window"))
        raw_source = RawSource(series_id=str(rs["series_id"]),
                               window=document_window(rs["window"], f"{where}.raw_source: window"))
    derived = None
    if data.get("derived_from") is not None:
        df = document_mapping(data["derived_from"], f"{where}.derived_from", _DERIVED_KEYS,
                              required=("inputs", "formula"))
        derived = DerivedFrom(inputs=document_list(df["inputs"], f"{where}.derived_from: inputs"),
                              formula=str(df["formula"]))
    categories = data.get("categories")
    return FeatureSpec(
        name=str(data["name"]),
        dtype=str(data["dtype"]),
        description=document_text(data.get("description"), f"{where}: description"),
        unit=None if data.get("unit") is None else str(data["unit"]),
        categories=None if categories is None else document_list(categories,
                                                                 f"{where}: categories"),
        wording=parse_wording_data(data.get("wording"), f"{where}.wording"),
        properties=_parse_properties(data.get("properties"), f"{where}.properties"),
        raw_source=raw_source,
        derived_from=derived,
        observed=document_bool(data.get("observed", False), f"{where}: observed"),
    )


def manifest_from_data(data: Any) -> SchemaManifest:
    """Build a manifest from an already-parsed document structure."""
    data = document_mapping(data, "manifest", _TOP_KEYS, required=("space_tag", "features"))
    features_data = data["features"]
    if not isinstance(features_data, list):
        raise ValidationError("manifest: features must be a list")
    features = tuple(feature_from_data(f, f"features[{i}]") for i, f in enumerate(features_data))
    implications = data.get("implications")
    if implications is None:
        implications = []
    elif not isinstance(implications, list):
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
    with open_input(path, "manifest") as handle:
        text = handle.read()
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
