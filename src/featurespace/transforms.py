"""Transform kernels between the model-ready and interpretable feature spaces.

Each transform kind is one ``Kernel`` subclass, and everything the package
knows about the kind lives on it: the config it accepts, what it does to the
properties of the features it produces, which parameters ``fit`` learns, the
output-schema plan, the column computation, the inverse (only an exact kind
has one), and how additive contributions cross a step of the kind. ``plan``,
``prepare``, ``inverse`` and the contribution rules read one config: a fitted
step's ``config``, the configured values with the learned ones filled in.
``prepare`` turns a fitted step into what ``apply`` needs besides the rows,
once per step, so a run does only per-row work. A kernel computes only the
columns it produces; the pipeline carries every other column over by
reference, and validates only the produced numeric columns, because labels
and booleans come from the output spec or from validated inputs. The seven
kinds that derive one feature from one share ``_OneToOne``'s ``plan``,
``prepare`` and ``apply``, and give only the produced spec's fields and
column function.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import repeat
from operator import add, mul, truediv
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import KernelError, ValidationError
from .expressions import evaluate, expression_names, parse_expression
from .lineage import ColumnLineage, Computed, Imputed, RawLinked
from .properties import PROPERTY_NAMES, PropertySet
from .schema import (
    DerivedFrom,
    FeatureSpec,
    SchemaManifest,
    document_bool,
    document_int,
    document_mapping,
    document_number,
    document_text,
    document_window,
    feature_from_data,
    feature_to_data,
    parse_wording_data,
    wording_to_data,
)
from .table import MISSING, DataTable, check_cell

if TYPE_CHECKING:
    from .pipeline import FittedStep


@dataclass(frozen=True)
class TransformStep:
    """A configured transform: kind, kind-specific config, and optional
    per-output-feature property overrides, each a known flag set to a
    boolean."""

    kind: str
    config: Mapping[str, Any] = field(default_factory=dict)
    property_delta: Mapping[str, Mapping[str, bool]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "config", dict(document_mapping(self.config, "config", None)))
        delta = {}
        for feature, flags in document_mapping(self.property_delta, "property_delta",
                                               None).items():
            flags = document_mapping(flags, f"property_delta {feature!r}", PROPERTY_NAMES,
                                     unknown="property_delta references unknown flags: {names}")
            for flag, value in flags.items():
                document_bool(value, f"property_delta {feature!r}: {flag}")
            delta[str(feature)] = dict(flags)
        object.__setattr__(self, "property_delta", delta)


@dataclass(frozen=True)
class PlanResult:
    """Static output of a kernel: the full feature list after the step, and
    the names of the features it produces, in the order ``apply`` returns
    their columns. Each produced spec's ``derived_from`` names its inputs."""

    features: tuple[FeatureSpec, ...]
    produced: tuple[str, ...]


# ---------------------------------------------------------------------------
# config helpers

_UNKNOWN_CONFIG = "{where}: unknown config keys {names}"


def _req(cfg: Mapping, key: str, kind: str):
    if key not in cfg or cfg[key] is None:
        raise ValidationError(f"{kind}: missing required config key {key!r}")
    return cfg[key]


def _number(value, kind: str, key: str) -> float:
    return document_number(value, f"{kind}: {key}")


def _numbers(values, kind: str, key: str) -> tuple[float, ...]:
    return tuple(_number(v, kind, key) for v in values)


def _display_format(cfg: Mapping, kind: str) -> str | None:
    """The configured numeric format spec, checked before any cell is written."""
    spec = cfg.get("display_format")
    if spec is None:
        return None
    if isinstance(spec, str):
        for sample in (0, 0.0):
            try:
                format(sample, spec)
                return spec
            except ValueError:
                pass
    raise ValidationError(f"{kind}: display_format {spec!r} is not a numeric format spec")


def _check_fit_state(kernel: Kernel, cfg: Mapping, fit_state: Any,
                     keys: Sequence[str]) -> None:
    document_mapping(fit_state, "fit_state", keys)
    if not kernel.requires_fit(cfg):
        raise ValidationError("fit_state must be null for a step that is not fitted")


def _tuples(value):
    """``value`` with its JSON lists read as tuples, as ``normalize`` returns them."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _feature_of(schema: SchemaManifest, name: str, kind: str) -> FeatureSpec:
    if name not in schema:
        raise ValidationError(f"{kind}: unknown feature {name!r}")
    return schema.feature(name)


def _numeric_feature(schema: SchemaManifest, name: str, kind: str) -> FeatureSpec:
    spec = _feature_of(schema, name, kind)
    if spec.dtype != "numeric":
        raise ValidationError(f"{kind}: feature {name!r} must be numeric, is {spec.dtype}")
    return spec


def _check_new_names(names: Sequence[str], schema: SchemaManifest,
                     removed: set[str], kind: str) -> None:
    surviving = set(schema.names) - removed
    for name in names:
        if name in surviving:
            raise ValidationError(f"{kind}: output feature {name!r} collides with an existing feature")
    if len(set(names)) != len(names):
        raise ValidationError(f"{kind}: duplicate output feature names {list(names)}")


_STRUCTURAL_KEYS = ("dtype", "description", "unit", "categories", "wording", "observed")


def structural_data(spec: FeatureSpec) -> dict[str, Any]:
    """The presentation part of a spec's document entry (``feature_to_data``):
    what an exact inverse's ``restore`` holds to give a feature back its
    dtype, categories, wording, unit and description.

    Properties, derived_from and raw_source are set by the step that
    restores the feature, and are left out. Each key is also the name of the
    ``FeatureSpec`` field it holds.
    """
    return {k: v for k, v in feature_to_data(spec).items() if k in _STRUCTURAL_KEYS}


def _restore(cfg: Mapping, target: str, kind: str, dtypes: tuple[str, ...]) -> dict[str, Any]:
    """The step's ``restore``, checked as the document entry of feature
    ``target`` and normalized to ``structural_data``. A step without one
    gives the restore keys of its own config, and the dtype ``dtypes[0]``."""
    data = cfg.get("restore")
    if data is None:
        data = {"dtype": dtypes[0],
                **{k: cfg[k] for k in _STRUCTURAL_KEYS if cfg.get(k) is not None}}
    data = document_mapping(data, f"{kind}.restore", _STRUCTURAL_KEYS, unknown=_UNKNOWN_CONFIG)
    restore = structural_data(feature_from_data({**data, "name": target}, f"{kind}.restore"))
    if restore["dtype"] not in dtypes:
        raise ValidationError(f"{kind}: restored dtype must be {' or '.join(dtypes)}")
    return restore


def _restored_fields(restore: Mapping[str, Any]) -> dict[str, Any]:
    """The ``FeatureSpec`` fields a normalized ``restore`` holds."""
    spec = feature_from_data({**restore, "name": "restore"}, "restore")
    return {key: getattr(spec, key) for key in _STRUCTURAL_KEYS}


def _base_properties(schema: SchemaManifest, inputs: Sequence[str]) -> PropertySet:
    props = schema.feature(inputs[0]).properties
    for name in inputs[1:]:
        props = props.intersect(schema.feature(name).properties)
    return props


def _replace_features(schema: SchemaManifest, remove: Sequence[str],
                      new_specs: Sequence[FeatureSpec],
                      keep: bool = False) -> tuple[FeatureSpec, ...]:
    """The features after a step: ``new_specs`` take the place of the first
    removed feature, or go last when the step keeps its inputs."""
    if keep:
        return schema.features + tuple(new_specs)
    at = min(schema.index(name) for name in remove)
    removed = set(remove)
    kept = tuple(spec for spec in schema.features if spec.name not in removed)
    return kept[:at] + tuple(new_specs) + kept[at:]


def _target(cfg: Mapping, feature: str, schema: SchemaManifest, kind: str) -> tuple[str, bool]:
    """Output name and ``keep_original`` of a step that derives one feature
    from ``feature``."""
    keep = document_bool(cfg.get("keep_original", False), f"{kind}: keep_original")
    target = str(cfg.get("target") or feature)
    if keep and target == feature:
        raise ValidationError(f"{kind}: keep_original requires a distinct target name")
    if target != feature:
        _check_new_names([target], schema, set() if keep else {feature}, kind)
    return target, keep


def _wording_cfg(cfg: Mapping, kind: str) -> dict | None:
    wording = parse_wording_data(cfg.get("wording"), f"{kind}.wording")
    return None if wording is None else wording_to_data(wording)


# ---------------------------------------------------------------------------
# kernels

class Kernel:
    """One transform kind. A kernel declares:

    - ``delta``: the property flags set on every feature the step produces
      (``delta_for`` when they depend on the produced feature);
    - ``learned``: the config keys ``fit`` fills in, kept under the same
      names in the step's fit state;
    - ``normalize``: the checked config, also applied to learned values;
    - ``fit``: the fit state (a dict of learned parameters) from the data the
      step sees;
    - ``plan``: the output schema and the names of the produced features;
    - ``prepare``: what ``apply`` reads besides the table, from a fitted step;
    - ``apply``: the produced columns and their lineage;
    - ``inverse``: the step that undoes this one, defined only by an exact
      kind; a kind whose ``inverse`` is None is lossy;
    - ``forward_rule`` / ``reverse_rule``: how additive contributions cross
      the step toward the interpretable space.

    ``plan`` and ``inverse`` take one config, ``cfg``: the normalized config
    with the fit state's values filled in, as a fitted step's ``config``
    holds it. ``prepare`` and the rules read that ``config`` from the step.

    ``prepare`` runs once per fitted step, when the step is built, and the
    step keeps its result as ``prepared``. It holds everything a run needs
    that the rows do not change: the kind's constants (bin edges and labels,
    PCA weights, a parsed formula, lookup maps) and the lineage records of
    columns whose every row has one origin. Values ``plan`` already decided,
    such as bin labels, produced names and ``derived_from``, are read from
    the step's output schema. ``apply`` stays the one per-step call of a run,
    the call a tracer wraps, and does only per-row work; the prepared state is
    shared by every run of the step and is never mutated.

    Every label and boolean ``apply`` produces comes from the output spec or
    from validated input cells, so only arithmetic can leave a produced
    column's domain (an overflow to ``inf``). The pipeline validates the
    produced columns whose output spec is numeric, and no others.
    """

    kind: str = ""
    delta: Mapping[str, bool] = {}
    learned: tuple[str, ...] = ()
    inverse: Callable[[Mapping, SchemaManifest], TransformStep] | None = None

    def normalize(self, cfg: Mapping, schema: SchemaManifest) -> dict:
        raise NotImplementedError

    def delta_for(self, out_spec: FeatureSpec) -> Mapping[str, bool]:
        return self.delta

    def requires_fit(self, cfg: Mapping) -> bool:
        return bool(self.learned) and cfg[self.learned[0]] is None

    def fit(self, table: DataTable, cfg: Mapping) -> dict | None:
        return None

    def check_learned(self, cfg: Mapping, fit_state: Any,
                      schema: SchemaManifest) -> dict:
        """The fit state a step keeps for ``fit_state`` read from a document:
        only the learned keys, each put through the checks of configured
        values and required to be numbers already."""
        _check_fit_state(self, cfg, fit_state, self.learned)
        if fit_state.get(self.learned[0]) is None:
            raise ValidationError(
                f"{self.kind}: not fitted and no {'/'.join(self.learned)} configured")
        merged = {**cfg, **{key: fit_state.get(key) for key in self.learned}}
        checked = self.normalize(merged, schema)
        for key in self.learned:
            if checked[key] != _tuples(merged[key]):
                raise ValidationError(f"{self.kind}: fitted {key} is not a number: "
                                      f"{merged[key]!r}")
        return {key: checked[key] for key in self.learned}

    def plan(self, schema: SchemaManifest, cfg: Mapping) -> PlanResult:
        raise NotImplementedError

    def prepare(self, fstep: FittedStep) -> Any:
        """What ``apply`` reads besides the table, for a fitted step: its
        row-independent state, computed once. Immutable, as every run of the
        step shares it."""
        raise NotImplementedError

    def apply(self, table: DataTable,
              prepared: Any) -> tuple[list[list], Sequence[ColumnLineage]]:
        """Compute the produced columns from the table's columns and the
        step's ``prepared`` state alone: everything a run needs is in the
        fitted step.

        Returns one list of cells per produced feature, in ``plan(...).produced``
        order, and the lineage of those columns: one ``ColumnLineage`` per
        produced feature that has a record, in the order each row's entries
        are listed. Input columns are read, never mutated.
        """
        raise NotImplementedError

    def forward_rule(self, fstep: FittedStep, expose_flags: bool) -> Rewrite | None:
        """How contributions cross a to_interpretable step of this kind, from
        its inputs to its outputs; ``None`` when no rule exists."""
        return None

    def reverse_rule(self, fstep: FittedStep, expose_flags: bool) -> Rewrite | None:
        """How contributions cross back over a to_model_ready step of this
        kind, from its outputs to its inputs; ``None`` when no rule exists."""
        return None


class _OneToOne(Kernel):
    """A kind that derives one feature, ``target``, from one, ``feature``.

    The produced spec takes the input's properties and place (or goes last
    when the step has ``keep_original``), and its lineage names the kind. A
    subclass gives only:

    - ``_out_fields(spec, cfg)``: the produced spec's own fields, beside its
      name, properties and ``derived_from``, from the input spec;
    - ``_column(fstep)``: the function from the input column to the produced
      column, with the step's constants bound.

    Contributions follow the feature, unless the step keeps its original.
    """

    def _out_fields(self, spec: FeatureSpec, cfg: Mapping) -> dict[str, Any]:
        raise NotImplementedError

    def _column(self, fstep: FittedStep) -> Callable[[list], list]:
        raise NotImplementedError

    def plan(self, schema, cfg):
        feature, target = cfg["feature"], cfg["target"]
        spec = schema.feature(feature)
        out = FeatureSpec(name=target, properties=spec.properties,
                          derived_from=DerivedFrom((feature,), self.kind),
                          **self._out_fields(spec, cfg))
        return PlanResult(_replace_features(schema, [feature], (out,),
                                            cfg.get("keep_original", False)), (target,))

    def prepare(self, fstep):
        return fstep.config["feature"], self._column(fstep), _computed(fstep)

    def apply(self, table, prepared):
        feature, column, lineage = prepared
        return [column(table.values(feature))], lineage

    def forward_rule(self, fstep, expose_flags):
        cfg = fstep.config
        source, target = cfg["feature"], cfg["target"]
        if cfg.get("keep_original"):
            return Rewrite({target: ZERO})  # derived display feature; source keeps its share
        return Rewrite({target: ("copy", source)}, (source,))

    def reverse_rule(self, fstep, expose_flags):
        cfg = fstep.config
        source, target = cfg["feature"], cfg["target"]
        if cfg.get("keep_original"):
            # The derived feature's share folds back into its source.
            return Rewrite({source: ("add", source, target)}, (source, target))
        return Rewrite({source: ("copy", target)}, (target,))


def sum_in_order(values: Iterable):
    """``values`` added left to right to 0, one rounding per addition;
    integers add exactly. Every float accumulation in the package makes
    these additions in this order, so its last bits do not depend on the
    Python version: ``sum()`` compensates rounding from 3.12. Most go through
    this function; the column path of the built-in formulas
    (``_formula_columns``) makes the same additions a column at a time."""
    return reduce(add, values, 0)


def _non_missing(values) -> list:
    return [v for v in values if v is not MISSING]


def _label_bins(values: list, boundaries: Sequence[float], labels: Sequence[str]) -> list:
    return [MISSING if v is MISSING else labels[bisect.bisect_right(boundaries, v)]
            for v in values]


def _lookup(mapping: Mapping, unknown: str) -> Callable[[list], list]:
    """The column function that maps each present cell through ``mapping``;
    the first cell it lacks raises ``unknown``, formatted with the cell as
    ``value``."""
    def column(values):
        for r, value in enumerate(values):
            if value is not MISSING and value not in mapping:
                raise KernelError(f"row {r}: " + unknown.format(value=value), row_index=r)
        return [MISSING if v is MISSING else mapping[v] for v in values]

    return column


def _computed(fstep: FittedStep, names: Sequence[str] | None = None
              ) -> tuple[ColumnLineage, ...]:
    """The lineage of produced columns whose every row is computed, one
    record per name (every produced feature by default): the origin is what
    ``plan`` put in the feature's ``derived_from``."""
    records = []
    for name in fstep.produced if names is None else names:
        derived = fstep.output_schema.feature(name).derived_from
        records.append(ColumnLineage(name, Computed(derived.formula, derived.inputs)))
    return tuple(records)


class OneHotEncode(Kernel):
    kind = "one_hot_encode"
    delta = {"model_compatible": True, "model_ready": True, "human_worded": False}

    def normalize(self, cfg, schema):
        document_mapping(cfg, self.kind, {"feature", "name_template", "names"},
                         unknown=_UNKNOWN_CONFIG)
        feature = str(_req(cfg, "feature", self.kind))
        spec = _feature_of(schema, feature, self.kind)
        if spec.dtype != "categorical":
            raise ValidationError(
                f"{self.kind}: feature {feature!r} must be categorical, is {spec.dtype}")
        categories = spec.categories or ()
        if cfg.get("names") is not None:
            names = tuple(str(n) for n in cfg["names"])
            if len(names) != len(categories):
                raise ValidationError(
                    f"{self.kind}: names must match category count "
                    f"({len(names)} != {len(categories)})")
        else:
            template = str(cfg.get("name_template") or "{feature} {category}")
            if "{category}" not in template:
                raise ValidationError(f"{self.kind}: name_template needs a {{category}} placeholder")
            names = tuple(template.format(feature=feature, category=c) for c in categories)
        _check_new_names(names, schema, {feature}, self.kind)
        return {"feature": feature, "names": names}

    def plan(self, schema, cfg):
        feature = cfg["feature"]
        spec = schema.feature(feature)
        base = spec.properties
        new_specs = tuple(
            FeatureSpec(
                name=name,
                dtype="boolean",
                description=f"{feature} is {category}",
                properties=base,
                derived_from=DerivedFrom((feature,), self.kind),
            )
            for name, category in zip(cfg["names"], spec.categories)
        )
        return PlanResult(_replace_features(schema, [feature], new_specs), cfg["names"])

    def prepare(self, fstep):
        feature = fstep.config["feature"]
        return feature, fstep.input_schema.feature(feature).categories, _computed(fstep)

    def apply(self, table, prepared):
        feature, categories, lineage = prepared
        values = table.values(feature)
        return [[MISSING if v is MISSING else v == c for v in values]
                for c in categories], lineage

    def inverse(self, cfg, input_schema):
        spec = input_schema.feature(cfg["feature"])
        return TransformStep("one_hot_decode", {
            "group": cfg["names"],
            "target": cfg["feature"],
            "restore": structural_data(spec),
            "zero_hot": "error",
        })

    def reverse_rule(self, fstep, expose_flags):
        cfg = fstep.config
        return Rewrite({cfg["feature"]: ("sum", tuple(cfg["names"]))}, tuple(cfg["names"]))


class OneHotDecode(Kernel):
    kind = "one_hot_decode"
    delta = {"model_ready": False}

    def delta_for(self, out_spec):
        if out_spec.wording is not None and out_spec.wording.value_phrase is not None:
            return {**self.delta, "human_worded": True}
        return self.delta

    def normalize(self, cfg, schema):
        document_mapping(cfg, self.kind, {"group", "target", "categories", "wording", "unit",
                                          "description", "observed", "restore", "zero_hot"},
                         unknown=_UNKNOWN_CONFIG)
        group = tuple(str(n) for n in _req(cfg, "group", self.kind))
        if not group:
            raise ValidationError(f"{self.kind}: group must be non-empty")
        for name in group:
            spec = _feature_of(schema, name, self.kind)
            if spec.dtype != "boolean":
                raise ValidationError(
                    f"{self.kind}: group feature {name!r} must be boolean, is {spec.dtype}")
        target = str(_req(cfg, "target", self.kind))
        restore = _restore(cfg, target, self.kind, ("categorical",))
        categories = restore["categories"]
        if len(categories) != len(group):
            raise ValidationError(
                f"{self.kind}: category count must equal group size "
                f"({len(categories)} != {len(group)})")
        zero_hot = str(cfg.get("zero_hot") or "error")
        if zero_hot not in ("error", "missing"):
            raise ValidationError(f"{self.kind}: zero_hot must be 'error' or 'missing'")
        _check_new_names([target], schema, set(group), self.kind)
        return {"group": group, "target": target, "restore": restore, "zero_hot": zero_hot}

    def plan(self, schema, cfg):
        group = cfg["group"]
        base = _base_properties(schema, group)
        spec = FeatureSpec(name=cfg["target"], properties=base,
                           derived_from=DerivedFrom(group, self.kind),
                           **_restored_fields(cfg["restore"]))
        return PlanResult(_replace_features(schema, group, (spec,)), (cfg["target"],))

    def prepare(self, fstep):
        cfg = fstep.config
        return cfg["group"], cfg["restore"]["categories"], cfg["zero_hot"], _computed(fstep)

    def apply(self, table, prepared):
        group, categories, zero_hot, lineage = prepared
        decoded = []
        for r, cells in enumerate(zip(*(table.values(n) for n in group))):
            missing = [c is MISSING for c in cells]
            if all(missing):
                value = MISSING
            elif any(missing):
                raise KernelError(
                    f"row {r}: one-hot group {list(group)} mixes MISSING and present cells",
                    row_index=r)
            else:
                trues = [i for i, c in enumerate(cells) if c]
                if len(trues) == 1:
                    value = categories[trues[0]]
                elif len(trues) > 1:
                    raise KernelError(
                        f"row {r}: ill-formed one-hot ({len(trues)} indicators TRUE)",
                        row_index=r)
                elif zero_hot == "missing":
                    value = MISSING
                else:
                    raise KernelError(
                        f"row {r}: zero indicators TRUE in one-hot group {list(group)}",
                        row_index=r)
            decoded.append(value)
        return [decoded], lineage

    def inverse(self, cfg, input_schema):
        return TransformStep("one_hot_encode", {
            "feature": cfg["target"],
            "names": cfg["group"],
        })

    def forward_rule(self, fstep, expose_flags):
        cfg = fstep.config
        return Rewrite({cfg["target"]: ("sum", tuple(cfg["group"]))}, tuple(cfg["group"]))


class Standardize(_OneToOne):
    kind = "standardize"
    delta = {"model_ready": True, "understandable": False, "human_worded": False}
    learned = ("mean", "scale")

    def normalize(self, cfg, schema):
        document_mapping(cfg, self.kind, {"feature", "mean", "scale", "target", "display_format"},
                         unknown=_UNKNOWN_CONFIG)
        feature = str(_req(cfg, "feature", self.kind))
        _numeric_feature(schema, feature, self.kind)
        mean, scale = cfg.get("mean"), cfg.get("scale")
        if (mean is None) != (scale is None):
            raise ValidationError(f"{self.kind}: configure mean and scale together or neither")
        if scale is not None:
            mean, scale = _number(mean, self.kind, "mean"), _number(scale, self.kind, "scale")
            if scale <= 0:
                raise ValidationError(f"{self.kind}: scale must be > 0, got {scale}")
        target, _ = _target(cfg, feature, schema, self.kind)
        return {
            "feature": feature,
            "mean": mean,
            "scale": scale,
            "target": target,
            "display_format": _display_format(cfg, self.kind),
        }

    def fit(self, table, cfg):
        values = _non_missing(table.values(cfg["feature"]))
        if not values:
            raise KernelError(f"{self.kind}: column {cfg['feature']!r} has no observed values")
        mean = sum_in_order(values) / len(values)
        variance = sum_in_order((v - mean) ** 2 for v in values) / len(values)
        scale = math.sqrt(variance)
        if scale <= 0:
            raise KernelError(f"{self.kind}: column {cfg['feature']!r} is constant (scale 0)")
        return {"mean": mean, "scale": scale}

    def _out_fields(self, spec, cfg):
        return {"dtype": "numeric",
                "description": spec.description and f"Standardized {spec.description}" or ""}

    def _column(self, fstep):
        mean, scale = fstep.config["mean"], fstep.config["scale"]
        return lambda values: [v if v is MISSING else (v - mean) / scale for v in values]

    def inverse(self, cfg, input_schema):
        return TransformStep("unstandardize", {
            "feature": cfg["target"],
            "mean": cfg["mean"],
            "scale": cfg["scale"],
            "target": cfg["feature"],
            "restore": structural_data(input_schema.feature(cfg["feature"])),
        })


class Unstandardize(_OneToOne):
    kind = "unstandardize"
    delta = {"understandable": True, "model_ready": False}

    def normalize(self, cfg, schema):
        document_mapping(cfg, self.kind, {"feature", "mean", "scale", "target", "restore", "unit",
                                          "description", "display_format"},
                         unknown=_UNKNOWN_CONFIG)
        feature = str(_req(cfg, "feature", self.kind))
        _numeric_feature(schema, feature, self.kind)
        mean = _number(_req(cfg, "mean", self.kind), self.kind, "mean")
        scale = _number(_req(cfg, "scale", self.kind), self.kind, "scale")
        if scale <= 0:
            raise ValidationError(f"{self.kind}: scale must be > 0, got {scale}")
        target, _ = _target(cfg, feature, schema, self.kind)
        return {"feature": feature, "mean": mean, "scale": scale, "target": target,
                "restore": _restore(cfg, target, self.kind, ("numeric",)),
                "display_format": _display_format(cfg, self.kind)}

    def _out_fields(self, spec, cfg):
        return _restored_fields(cfg["restore"])

    def _column(self, fstep):
        mean, scale = fstep.config["mean"], fstep.config["scale"]
        return lambda values: [v if v is MISSING else v * scale + mean for v in values]

    def inverse(self, cfg, input_schema):
        return TransformStep("standardize", {
            "feature": cfg["target"],
            "mean": cfg["mean"],
            "scale": cfg["scale"],
            "target": cfg["feature"],
            "display_format": None,
        })


def _round_edge(value: float) -> int:
    return int(round(value))


def _bin_labels(labels: Sequence[str], edges: Sequence[float], unit: str | None) -> tuple[str, ...]:
    suffix = unit or ""
    return tuple(
        f"{label} ({_round_edge(edges[i])}{suffix}-{_round_edge(edges[i + 1])}{suffix})"
        for i, label in enumerate(labels)
    )


class StatisticalBin(_OneToOne):
    kind = "statistical_bin"
    delta = {"model_ready": True, "understandable": False}
    learned = ("min", "max")

    def normalize(self, cfg, schema):
        document_mapping(cfg, self.kind, {"feature", "bins", "min", "max", "labels", "target",
                                          "keep_original", "wording"},
                         unknown=_UNKNOWN_CONFIG)
        feature = str(_req(cfg, "feature", self.kind))
        _numeric_feature(schema, feature, self.kind)
        bins = document_int(_req(cfg, "bins", self.kind), f"{self.kind}: bins")
        if bins < 1:
            raise ValidationError(f"{self.kind}: bins must be >= 1")
        lo, hi = cfg.get("min"), cfg.get("max")
        if (lo is None) != (hi is None):
            raise ValidationError(f"{self.kind}: configure min and max together or neither")
        if lo is not None:
            lo, hi = _number(lo, self.kind, "min"), _number(hi, self.kind, "max")
            if lo >= hi:
                raise ValidationError(f"{self.kind}: min must be < max")
            if not self._finite_edges({"min": lo, "max": hi, "bins": bins}):
                raise ValidationError(f"{self.kind}: bin edges of [{lo}, {hi}] overflow")
        labels = cfg.get("labels")
        if labels is None:
            labels = tuple(f"Bin {i + 1}" for i in range(bins))
        else:
            labels = tuple(str(x) for x in labels)
        if len(labels) != bins:
            raise ValidationError(f"{self.kind}: need exactly {bins} labels, got {len(labels)}")
        target, keep = _target(cfg, feature, schema, self.kind)
        return {
            "feature": feature, "bins": bins, "min": lo, "max": hi,
            "labels": labels, "target": target, "keep_original": keep,
            "wording": _wording_cfg(cfg, self.kind),
        }

    def fit(self, table, cfg):
        values = _non_missing(table.values(cfg["feature"]))
        if not values:
            raise KernelError(f"{self.kind}: column {cfg['feature']!r} has no observed values")
        lo, hi = float(min(values)), float(max(values))
        if lo >= hi:
            raise KernelError(f"{self.kind}: column {cfg['feature']!r} has a degenerate range")
        if not self._finite_edges({**cfg, "min": lo, "max": hi}):
            raise KernelError(f"{self.kind}: bin edges of column {cfg['feature']!r} overflow")
        return {"min": lo, "max": hi, "edges": self._edges({**cfg, "min": lo, "max": hi})}

    def check_learned(self, cfg, fit_state, schema):
        _check_fit_state(self, cfg, fit_state, (*self.learned, "edges"))
        state = super().check_learned(
            cfg, {k: v for k, v in fit_state.items() if k != "edges"}, schema)
        edges = self._edges({**cfg, **state})
        if _tuples(fit_state.get("edges")) != edges:
            raise ValidationError(f"{self.kind}: fitted edges do not match min, max and bins")
        return {**state, "edges": edges}

    @staticmethod
    def _edges(cfg) -> tuple[float, ...]:
        lo, hi, bins = cfg["min"], cfg["max"], cfg["bins"]
        return tuple(lo + i * (hi - lo) / bins for i in range(bins + 1))

    @classmethod
    def _finite_edges(cls, cfg) -> bool:
        """Whether every edge is finite: a range near the float limits
        overflows ``i * (max - min)``."""
        return all(map(math.isfinite, cls._edges(cfg)))

    def _out_fields(self, spec, cfg):
        # The labels are provisional until min and max are learned.
        categories = cfg["labels"] if cfg["min"] is None else \
            _bin_labels(cfg["labels"], self._edges(cfg), spec.unit)
        return {"dtype": "ordinal", "description": f"Uniform-width bins for {spec.name}",
                "categories": categories, "wording": parse_wording_data(cfg["wording"])}

    def _column(self, fstep):
        cfg = fstep.config
        feature, lo, hi = cfg["feature"], cfg["min"], cfg["max"]
        # In [lo, hi], the bin is the count of inner edges at or below the
        # value: the first edge is lo, and a value at the last edge stays in
        # the top bin.
        inner = self._edges(cfg)[1:-1]
        labels = fstep.output_schema.feature(cfg["target"]).categories

        def column(values):
            present = _non_missing(values)
            if present and (min(present) < lo or max(present) > hi):
                for r, value in enumerate(values):  # the error names the first bad row
                    if value is not MISSING and (value < lo or value > hi):
                        raise KernelError(
                            f"row {r}: value {value!r} of {feature!r} outside bin range "
                            f"[{lo}, {hi}]", row_index=r)
            return _label_bins(values, inner, labels)

        return column


class SemanticBin(_OneToOne):
    kind = "semantic_bin"
    delta = {"understandable": True}

    def normalize(self, cfg, schema):
        document_mapping(cfg, self.kind, {"feature", "boundaries", "labels", "target",
                                          "keep_original", "wording"},
                         unknown=_UNKNOWN_CONFIG)
        feature = str(_req(cfg, "feature", self.kind))
        _numeric_feature(schema, feature, self.kind)
        boundaries = _numbers(_req(cfg, "boundaries", self.kind), self.kind, "boundaries")
        if not boundaries:
            raise ValidationError(f"{self.kind}: boundaries must be non-empty")
        if any(a >= b for a, b in zip(boundaries, boundaries[1:])):
            raise ValidationError(f"{self.kind}: boundaries must be strictly increasing")
        labels = tuple(str(x) for x in _req(cfg, "labels", self.kind))
        if len(labels) != len(boundaries) + 1:
            raise ValidationError(
                f"{self.kind}: need {len(boundaries) + 1} labels, got {len(labels)}")
        target, keep = _target(cfg, feature, schema, self.kind)
        return {"feature": feature, "boundaries": boundaries, "labels": labels,
                "target": target, "keep_original": keep,
                "wording": _wording_cfg(cfg, self.kind)}

    def _out_fields(self, spec, cfg):
        return {"dtype": "ordinal", "description": f"Semantic bins for {spec.name}",
                "categories": cfg["labels"], "wording": parse_wording_data(cfg["wording"])}

    def _column(self, fstep):
        boundaries = fstep.config["boundaries"]
        labels = fstep.output_schema.feature(fstep.config["target"]).categories
        return lambda values: _label_bins(values, boundaries, labels)


class ImputeFlagged(Kernel):
    kind = "impute_flagged"
    delta = {"trackable": True}

    def normalize(self, cfg, schema):
        document_mapping(cfg, self.kind, {"feature", "strategy", "constant", "flag_name"},
                         unknown=_UNKNOWN_CONFIG)
        feature = str(_req(cfg, "feature", self.kind))
        spec = _feature_of(schema, feature, self.kind)
        strategy = str(_req(cfg, "strategy", self.kind))
        if strategy not in ("mean", "constant", "forward_fill"):
            raise ValidationError(f"{self.kind}: unknown strategy {strategy!r}")
        if strategy == "mean" and spec.dtype != "numeric":
            raise ValidationError(
                f"{self.kind}: mean strategy requires a numeric feature, "
                f"{feature!r} is {spec.dtype}")
        constant = cfg.get("constant")
        if strategy == "constant":
            if constant is None:
                raise ValidationError(f"{self.kind}: constant strategy needs a constant value")
            check_cell(constant, spec)
        flag_name = str(cfg.get("flag_name") or f"{feature} Flag")
        _check_new_names([flag_name], schema, set(), self.kind)
        return {"feature": feature, "strategy": strategy, "constant": constant,
                "flag_name": flag_name}

    def requires_fit(self, cfg):
        return cfg["strategy"] == "mean"

    def fit(self, table, cfg):
        observed = _non_missing(table.values(cfg["feature"]))
        if not observed:
            raise KernelError(
                f"{self.kind}: column {cfg['feature']!r} is entirely missing; "
                "mean strategy has nothing to average")
        return {"mean": sum_in_order(observed) / len(observed)}

    def check_learned(self, cfg, fit_state, schema):
        _check_fit_state(self, cfg, fit_state, ("mean",))
        if fit_state.get("mean") is None:
            raise ValidationError(f"{self.kind}: mean strategy is not fitted")
        check_cell(fit_state["mean"], schema.feature(cfg["feature"]))
        return {"mean": fit_state["mean"]}

    def plan(self, schema, cfg):
        feature = cfg["feature"]
        flag = FeatureSpec(
            name=cfg["flag_name"],
            dtype="boolean",
            description=f"TRUE where {feature} was imputed",
            properties=schema.feature(feature).properties,
            derived_from=DerivedFrom((feature,), self.kind),
        )
        return PlanResult(schema.features + (flag,), (feature, cfg["flag_name"]))

    def prepare(self, fstep):
        cfg = fstep.config
        strategy = cfg["strategy"]
        if strategy == "mean" and cfg.get("mean") is None:
            raise ValidationError(f"{self.kind}: mean strategy is not fitted")
        fill_value = cfg["mean"] if strategy == "mean" else cfg["constant"]
        return (cfg["feature"], strategy, fill_value, Imputed(strategy),
                _computed(fstep, (cfg["flag_name"],)))

    def apply(self, table, prepared):
        feature, strategy, fill_value, origin, flag_lineage = prepared
        values = table.values(feature)
        flags = [v is MISSING for v in values]
        if strategy == "forward_fill":
            filled = []
            previous = None
            for r, value in enumerate(values):
                if value is MISSING:
                    if previous is None:
                        raise KernelError(
                            f"row {r}: forward_fill has no preceding value for {feature!r}",
                            row_index=r)
                    value = previous
                filled.append(value)
                previous = value
        else:
            filled = [fill_value if v is MISSING else v for v in values]
        imputed = dict.fromkeys((r for r, flag in enumerate(flags) if flag), origin)
        return [filled, flags], (ColumnLineage(feature, None, imputed), *flag_lineage)

    def forward_rule(self, fstep, expose_flags):
        return Rewrite({fstep.config["flag_name"]: ZERO})  # the flag is new; no share yet

    def reverse_rule(self, fstep, expose_flags):
        cfg = fstep.config
        feature, flag = cfg["feature"], cfg["flag_name"]
        if expose_flags:
            return Rewrite({feature: ("copy", feature)}, (feature, flag), exposed=(flag,))
        return Rewrite({feature: ("add", feature, flag)}, (feature, flag))


def _formula_normalized(formula, inputs: tuple[str, ...], kind: str):
    if isinstance(formula, str):
        if formula in ("euclidean_floor", "sum", "mean"):
            return formula
        raise ValidationError(
            f"{kind}: unknown formula {formula!r}; use euclidean_floor, sum, mean, "
            "or {'expr': ...}")
    if isinstance(formula, Mapping) and set(formula) == {"expr"}:
        expr = str(formula["expr"])
        ast = parse_expression(expr)
        unknown = sorted(expression_names(ast) - set(inputs))
        if unknown:
            raise ValidationError(
                f"{kind}: expression references unknown feature {unknown[0]!r}")
        return {"expr": expr}
    raise ValidationError(f"{kind}: formula must be a name or {{'expr': ...}}")


def _formula_descriptor(formula) -> str:
    return formula if isinstance(formula, str) else formula["expr"]


def _formula_function(formula, inputs: tuple[str, ...]):
    """The formula as a function of one row's input values."""
    if formula == "euclidean_floor":
        return lambda values: math.floor(math.sqrt(sum_in_order(v * v for v in values)))
    if formula == "sum":
        return sum_in_order
    if formula == "mean":
        return lambda values: sum_in_order(values) / len(values)
    ast = parse_expression(formula["expr"])
    return lambda values: evaluate(ast, dict(zip(inputs, values)))


def _column_sum(columns: Iterable[Iterable]) -> list:
    """Each row's cells of one or more columns added left to right to 0:
    the additions ``sum_in_order`` makes on the row, in the same order."""
    total = repeat(0)
    for column in columns:
        total = list(map(add, total, column))
    return total


def _formula_rows(on_row: Callable, columns: list[list]) -> list:
    """``on_row`` over each row of the input columns: MISSING where the row
    has a MISSING input, and a ``KernelError`` naming the first row whose
    result overflows."""
    column = []
    for r, values in enumerate(zip(*columns)):
        if MISSING in values:
            column.append(MISSING)
            continue
        try:
            column.append(on_row(values))
        except (KernelError, OverflowError) as exc:  # floor() of an infinite result
            raise KernelError(f"row {r}: {exc}", row_index=r) from None
    return column


def _formula_columns(formula, on_row: Callable) -> Callable[[list[list]], list]:
    """The formula over whole input columns. A built-in formula gives each
    cell the same operations, in the same order, as its row function
    ``on_row``; a MISSING cell raises ``TypeError``, and a result beyond the
    float range ``OverflowError``. An expression is evaluated row by row."""
    if formula == "euclidean_floor":
        return lambda columns: list(map(math.floor, map(math.sqrt, _column_sum(
            [map(mul, column, column) for column in columns]))))
    if formula == "sum":
        return _column_sum
    if formula == "mean":
        return lambda columns: list(map(truediv, _column_sum(columns), repeat(len(columns))))
    return partial(_formula_rows, on_row)


class AggregateNumeric(Kernel):
    kind = "aggregate_numeric"
    delta = {"understandable": True, "trackable": True}

    _KEYS = {"inputs", "formula", "target", "keep_inputs", "wording",
             "display_format", "unit", "description"}

    def normalize(self, cfg, schema):
        document_mapping(cfg, self.kind, self._KEYS, unknown=_UNKNOWN_CONFIG)
        inputs = tuple(str(n) for n in _req(cfg, "inputs", self.kind))
        if not inputs:
            raise ValidationError(f"{self.kind}: inputs must be non-empty")
        for name in inputs:
            _numeric_feature(schema, name, self.kind)
        formula = _formula_normalized(_req(cfg, "formula", self.kind), inputs, self.kind)
        target = str(_req(cfg, "target", self.kind))
        keep = document_bool(cfg.get("keep_inputs", False), f"{self.kind}: keep_inputs")
        _check_new_names([target], schema, set() if keep else set(inputs), self.kind)
        return {"inputs": inputs, "formula": formula, "target": target,
                "keep_inputs": keep, "wording": _wording_cfg(cfg, self.kind),
                "display_format": _display_format(cfg, self.kind),
                "unit": None if cfg.get("unit") is None else str(cfg["unit"]),
                "description": document_text(cfg.get("description"),
                                             f"{self.kind}: description")}

    def _out_spec(self, schema, cfg) -> FeatureSpec:
        return FeatureSpec(
            name=cfg["target"],
            dtype="numeric",
            description=cfg["description"],
            unit=cfg["unit"],
            wording=parse_wording_data(cfg["wording"]),
            properties=_base_properties(schema, cfg["inputs"]),
            derived_from=DerivedFrom(cfg["inputs"], _formula_descriptor(cfg["formula"])),
        )

    def plan(self, schema, cfg):
        features = _replace_features(schema, cfg["inputs"], (self._out_spec(schema, cfg),),
                                     cfg["keep_inputs"])
        return PlanResult(features, (cfg["target"],))

    def _labeling(self, fstep: FittedStep) -> tuple[tuple[float, ...], tuple[str, ...]] | None:
        """The boundaries and labels that name each result; None keeps the number."""
        return None

    def prepare(self, fstep):
        cfg = fstep.config
        on_row = _formula_function(cfg["formula"], cfg["inputs"])
        return (cfg["inputs"], _formula_columns(cfg["formula"], on_row), on_row,
                self._labeling(fstep), _computed(fstep))

    def apply(self, table, prepared):
        inputs, on_columns, on_row, labeling, lineage = prepared
        columns = [table.values(n) for n in inputs]
        try:
            column = on_columns(columns)
        except (TypeError, OverflowError):  # a MISSING cell, or an overflow to name by row
            column = _formula_rows(on_row, columns)
        if labeling is not None:
            column = _label_bins(column, *labeling)
        return [column], lineage

    def forward_rule(self, fstep, expose_flags):
        cfg = fstep.config
        if cfg["keep_inputs"]:
            return Rewrite({cfg["target"]: ZERO})
        return Rewrite({cfg["target"]: ("sum", tuple(cfg["inputs"]))}, tuple(cfg["inputs"]))


class AbstractConcept(AggregateNumeric):
    kind = "abstract_concept"
    delta = {"abstract_concept": True, "trackable": True}

    _KEYS = AggregateNumeric._KEYS | {"labeling"}

    def normalize(self, cfg, schema):
        labeling = cfg.get("labeling")
        base = super().normalize({k: v for k, v in cfg.items() if k != "labeling"}, schema)
        if labeling is not None:
            labeling = document_mapping(labeling, f"{self.kind}: labeling",
                                        ("boundaries", "labels"), unknown=_UNKNOWN_CONFIG)
            boundaries = _numbers(_req(labeling, "boundaries", self.kind), self.kind,
                                  "labeling boundaries")
            if any(a >= b for a, b in zip(boundaries, boundaries[1:])) or not boundaries:
                raise ValidationError(f"{self.kind}: labeling boundaries must be strictly increasing")
            labels = tuple(str(x) for x in _req(labeling, "labels", self.kind))
            if len(labels) != len(boundaries) + 1:
                raise ValidationError(
                    f"{self.kind}: labeling needs {len(boundaries) + 1} labels, got {len(labels)}")
            labeling = {"boundaries": boundaries, "labels": labels}
        base["labeling"] = labeling
        return base

    def _out_spec(self, schema, cfg) -> FeatureSpec:
        spec = super()._out_spec(schema, cfg)
        if cfg["labeling"] is None:
            return spec
        return FeatureSpec(
            name=spec.name,
            dtype="ordinal",
            description=spec.description,
            categories=cfg["labeling"]["labels"],
            wording=spec.wording,
            properties=spec.properties,
            derived_from=spec.derived_from,
        )

    def _labeling(self, fstep):
        cfg = fstep.config
        if cfg["labeling"] is None:
            return None
        return (cfg["labeling"]["boundaries"],
                fstep.output_schema.feature(cfg["target"]).categories)


class HierarchyRollup(_OneToOne):
    kind = "hierarchy_rollup"
    delta = {"understandable": True}

    def normalize(self, cfg, schema):
        document_mapping(cfg, self.kind, {"feature", "mapping", "target", "keep_original",
                                          "wording", "description"},
                         unknown=_UNKNOWN_CONFIG)
        feature = str(_req(cfg, "feature", self.kind))
        spec = _feature_of(schema, feature, self.kind)
        if spec.dtype not in ("categorical", "ordinal"):
            raise ValidationError(
                f"{self.kind}: feature {feature!r} must be categorical, is {spec.dtype}")
        where = f"{self.kind}: mapping"
        mapping = {str(k): str(v) for k, v in
                   document_mapping(_req(cfg, "mapping", self.kind), where, None).items()}
        declared = set(spec.categories or ())
        unmapped = sorted(declared - set(mapping))
        if unmapped:
            raise ValidationError(f"{self.kind}: categories missing from mapping: {unmapped}")
        document_mapping(mapping, where, declared,
                         unknown="{where} keys not in declared categories: {names}")
        target, keep = _target(cfg, feature, schema, self.kind)
        return {"feature": feature, "mapping": mapping, "target": target,
                "keep_original": keep, "wording": _wording_cfg(cfg, self.kind),
                "description": document_text(cfg.get("description"),
                                             f"{self.kind}: description")}

    def _out_fields(self, spec, cfg):
        parents = tuple(dict.fromkeys(cfg["mapping"][c] for c in spec.categories))
        return {"dtype": "categorical", "description": cfg["description"],
                "categories": parents, "wording": parse_wording_data(cfg["wording"])}

    def _column(self, fstep):
        return _lookup(fstep.config["mapping"], "unmapped category {value!r}")


class RenderStatement(_OneToOne):
    kind = "render_statement"
    delta = {"human_worded": True}

    def normalize(self, cfg, schema):
        document_mapping(cfg, self.kind, {"feature", "target"},
                         unknown=_UNKNOWN_CONFIG)
        feature = str(_req(cfg, "feature", self.kind))
        spec = _feature_of(schema, feature, self.kind)
        if spec.dtype not in ("boolean", "categorical", "ordinal"):
            raise ValidationError(
                f"{self.kind}: only boolean and categorical features can be rendered "
                f"as a column ({feature!r} is {spec.dtype}); use render_value for numerics")
        rendered = rendered_categories(spec)
        if len(set(rendered)) != len(rendered):
            raise ValidationError(
                f"{self.kind}: wording templates for {feature!r} do not produce "
                "distinct statements; rendering would not be invertible")
        target = str(cfg.get("target") or f"{feature} Statement")
        _check_new_names([target], schema, {feature}, self.kind)
        return {"feature": feature, "target": target}

    def _out_fields(self, spec, cfg):
        return {"dtype": "categorical", "description": spec.description,
                "categories": rendered_categories(spec)}

    def _column(self, fstep):
        cfg = fstep.config
        spec = fstep.input_schema.feature(cfg["feature"])
        statements = dict(zip(_domain_values(spec),
                              fstep.output_schema.feature(cfg["target"]).categories))
        return lambda values: [MISSING if v is MISSING else statements[v] for v in values]

    def inverse(self, cfg, input_schema):
        return TransformStep("unrender_statement", {
            "feature": cfg["target"],
            "target": cfg["feature"],
            "restore": structural_data(input_schema.feature(cfg["feature"])),
        })


class UnrenderStatement(_OneToOne):
    kind = "unrender_statement"
    delta = {"human_worded": False}

    def normalize(self, cfg, schema):
        document_mapping(cfg, self.kind, {"feature", "target", "restore"},
                         unknown=_UNKNOWN_CONFIG)
        feature = str(_req(cfg, "feature", self.kind))
        spec = _feature_of(schema, feature, self.kind)
        if spec.dtype not in ("categorical", "ordinal"):
            raise ValidationError(f"{self.kind}: feature {feature!r} must hold rendered statements")
        target = str(_req(cfg, "target", self.kind))
        _req(cfg, "restore", self.kind)
        restore = _restore(cfg, target, self.kind, ("boolean", "categorical", "ordinal"))
        if "wording" not in restore:
            raise ValidationError(f"{self.kind}: restore must carry the wording templates")
        _check_new_names([target], schema, {feature}, self.kind)
        return {"feature": feature, "target": target, "restore": restore}

    def _out_fields(self, spec, cfg):
        return _restored_fields(cfg["restore"])

    def _column(self, fstep):
        restored = fstep.output_schema.feature(fstep.config["target"])
        reverse = dict(zip(rendered_categories(restored), _domain_values(restored)))
        return _lookup(reverse, "statement {value!r} does not match any template")

    def inverse(self, cfg, input_schema):
        return TransformStep("render_statement", {
            "feature": cfg["target"],
            "target": cfg["feature"],
        })


class PcaProject(Kernel):
    kind = "pca_project"
    delta = {"readable": False, "human_worded": False, "understandable": False,
             "model_ready": True}
    learned = ("means", "loadings")

    def normalize(self, cfg, schema):
        document_mapping(cfg, self.kind, {"inputs", "components", "means", "loadings",
                                          "name_template", "display_format"},
                         unknown=_UNKNOWN_CONFIG)
        inputs = tuple(str(n) for n in _req(cfg, "inputs", self.kind))
        if not inputs:
            raise ValidationError(f"{self.kind}: inputs must be non-empty")
        for name in inputs:
            _numeric_feature(schema, name, self.kind)
        components = document_int(_req(cfg, "components", self.kind),
                                  f"{self.kind}: components")
        if components < 1 or components > len(inputs):
            raise ValidationError(
                f"{self.kind}: components must be in [1, {len(inputs)}], got {components}")
        means, loadings = cfg.get("means"), cfg.get("loadings")
        if (means is None) != (loadings is None):
            raise ValidationError(f"{self.kind}: configure means and loadings together or neither")
        if loadings is not None:
            loadings = tuple(_numbers(row, self.kind, "loadings") for row in loadings)
            means = _numbers(means, self.kind, "means")
            if len(means) != len(inputs) or len(loadings) != len(inputs) or \
                    any(len(row) != components for row in loadings):
                raise ValidationError(
                    f"{self.kind}: loadings must be (inputs x components) and means per input")
        template = str(cfg.get("name_template") or "PCA {i}")
        if "{i}" not in template:
            raise ValidationError(f"{self.kind}: name_template needs an {{i}} placeholder")
        names = tuple(template.format(i=i + 1) for i in range(components))
        _check_new_names(names, schema, set(inputs), self.kind)
        return {"inputs": inputs, "components": components,
                "means": means, "loadings": loadings,
                "name_template": template, "display_format": _display_format(cfg, self.kind)}

    def fit(self, table, cfg):
        inputs = cfg["inputs"]
        columns = [table.values(name) for name in inputs]
        for name, column in zip(inputs, columns):
            if MISSING in column:
                raise KernelError(
                    f"{self.kind}: column {name!r} contains MISSING values; impute first")
        data = np.array(columns, dtype=float).T
        if data.shape[0] < 2:
            raise KernelError(f"{self.kind}: need at least 2 rows to fit")
        means = data.mean(axis=0)
        centered = data - means
        cov = centered.T @ centered / data.shape[0]
        eigenvalues, eigenvectors = np.linalg.eigh(cov)
        order = np.argsort(eigenvalues)[::-1]
        eigenvalues = eigenvalues[order]
        eigenvectors = eigenvectors[:, order]
        top = max(float(eigenvalues[0]), 0.0)
        rank = int(np.sum(eigenvalues > top * 1e-10)) if top > 0 else 0
        if rank < cfg["components"]:
            raise KernelError(
                f"{self.kind}: covariance rank {rank} < requested components "
                f"{cfg['components']}")
        vectors = eigenvectors[:, :cfg["components"]].copy()
        for k in range(vectors.shape[1]):
            nonzero = np.nonzero(np.abs(vectors[:, k]) > 1e-12)[0]
            if nonzero.size and vectors[nonzero[0], k] < 0:
                vectors[:, k] = -vectors[:, k]
        return {"means": tuple(float(m) for m in means),
                "loadings": tuple(tuple(float(v) for v in row) for row in vectors)}

    def _names(self, cfg) -> tuple[str, ...]:
        return tuple(cfg["name_template"].format(i=i + 1) for i in range(cfg["components"]))

    def plan(self, schema, cfg):
        inputs = cfg["inputs"]
        base = _base_properties(schema, inputs)
        names = self._names(cfg)
        new_specs = tuple(
            FeatureSpec(
                name=name,
                dtype="numeric",
                description=f"Feature {i + 1} from PCA",
                properties=base,
                derived_from=DerivedFrom(inputs, self.kind),
            )
            for i, name in enumerate(names)
        )
        return PlanResult(_replace_features(schema, inputs, new_specs), names)

    def prepare(self, fstep):
        cfg = fstep.config
        # Means as a column (input, 1) and loadings as (input, component, 1),
        # to broadcast against the (input, row) array of the input columns.
        means = np.array(cfg["means"], dtype=float)[:, None]
        weights = np.array(cfg["loadings"], dtype=float)[:, :, None]
        means.flags.writeable = weights.flags.writeable = False
        return cfg["inputs"], means, weights, _computed(fstep)

    def apply(self, table, prepared):
        inputs, means, weights, lineage = prepared
        columns = [table.values(name) for name in inputs]
        first = [column.index(MISSING) for column in columns if MISSING in column]
        if first:
            r = min(first)
            raise KernelError(f"row {r}: MISSING value in PCA inputs; impute first",
                              row_index=r)
        # Each cell is 0, plus, input by input, (value - mean) * loading.
        # Elementwise float64 subtract, multiply and add are the same single
        # IEEE operations Python floats do, so adding the inputs' product
        # arrays in input order gives each cell the bits of a per-row loop. A
        # reduction (``@``, ``np.sum``) may reassociate the sum and is not used.
        centered = np.array(columns, dtype=float) - means
        return sum_in_order(weights * centered[:, None, :]).tolist(), lineage

    def reverse_rule(self, fstep, expose_flags):
        cfg = fstep.config
        weights = pca_redistribution_weights(cfg["loadings"])
        ops = {input_name: ("weighted", tuple((comp, weights[k][i])
                                              for k, comp in enumerate(fstep.produced)))
               for i, input_name in enumerate(cfg["inputs"])}
        return Rewrite(ops, fstep.produced, note=PCA_NOTE)


class LinkRaw(Kernel):
    kind = "link_raw"
    delta = {"trackable": True}

    def normalize(self, cfg, schema):
        document_mapping(cfg, self.kind, {"feature", "series_id", "window", "series"},
                         unknown=_UNKNOWN_CONFIG)
        feature = str(_req(cfg, "feature", self.kind))
        spec = _feature_of(schema, feature, self.kind)
        if spec.raw_source is None:
            raise ValidationError(
                f"{self.kind}: feature {feature!r} does not declare a raw_source")
        series_id = str(cfg.get("series_id") or spec.raw_source.series_id)
        window = document_window(cfg.get("window") or spec.raw_source.window,
                                 f"{self.kind}: window")
        if window[0] < 0 or window[1] <= window[0]:
            raise ValidationError(f"{self.kind}: window must satisfy 0 <= start < stop")
        series = cfg.get("series")
        if series is not None:
            series = _numbers(series, self.kind, "series")
        return {"feature": feature, "series_id": series_id, "window": window,
                "series": series}

    def plan(self, schema, cfg):
        return PlanResult(schema.features, (cfg["feature"],))

    def prepare(self, fstep):
        """The feature, the error every run of the step raises (None when
        the window lies in the series) and the feature's lineage."""
        cfg = fstep.config
        series, series_id, feature = cfg["series"], cfg["series_id"], cfg["feature"]
        start, stop = cfg["window"]
        error = None
        if series is None:
            error = f"{self.kind}: unknown series {series_id!r}"
        elif stop > len(series):
            error = (f"{self.kind}: window [{start}, {stop}) outside series "
                     f"{series_id!r} of length {len(series)}")
        return feature, error, (ColumnLineage(feature, RawLinked(series_id, start, stop)),)

    def apply(self, table, prepared):
        feature, error, lineage = prepared
        if error is not None:
            raise KernelError(error)
        return [table.values(feature)], lineage

    def inverse(self, cfg, input_schema):
        # Identity on data; linking again in the other direction is harmless.
        return TransformStep(self.kind, dict(cfg))

    def forward_rule(self, fstep, expose_flags):
        return Rewrite({})

    def reverse_rule(self, fstep, expose_flags):
        return Rewrite({})


KERNELS: dict[str, Kernel] = {k.kind: k for k in (
    OneHotEncode(), OneHotDecode(), Standardize(), Unstandardize(),
    StatisticalBin(), SemanticBin(), ImputeFlagged(), AggregateNumeric(),
    AbstractConcept(), HierarchyRollup(), RenderStatement(), UnrenderStatement(),
    PcaProject(), LinkRaw(),
)}

TRANSFORM_KINDS = tuple(KERNELS)
EXACT_KINDS = tuple(k for k, v in KERNELS.items() if v.inverse is not None)


def kernel_for(kind: str) -> Kernel:
    if kind not in KERNELS:
        raise ValidationError(f"unknown transform kind {kind!r}")
    return KERNELS[kind]


# ---------------------------------------------------------------------------
# value-level statement rendering

def _domain_values(spec: FeatureSpec):
    if spec.dtype == "boolean":
        return (True, False)
    return spec.categories or ()


def rendered_categories(spec: FeatureSpec) -> tuple[str, ...]:
    return tuple(render_value(spec, v) for v in _domain_values(spec))


def render_value(spec: FeatureSpec, value) -> str:
    """Render one cell as a human-worded statement using the spec's templates.

    Booleans map to the positive/negative statements, categories substitute
    into the value phrase, and numerics render as "<name>: <value> <unit>".
    """
    from .table import render_cell

    if value is MISSING:
        raise ValidationError(f"feature {spec.name!r}: cannot render a MISSING value")
    if spec.dtype == "boolean":
        if not isinstance(value, bool):
            raise ValidationError(f"feature {spec.name!r}: expected boolean, got {value!r}")
        wording = spec.wording
        if wording is None or wording.positive_statement is None \
                or wording.negative_statement is None:
            raise ValidationError(
                f"feature {spec.name!r}: boolean rendering needs positive and "
                "negative statement templates")
        return wording.positive_statement if value else wording.negative_statement
    if spec.dtype in ("categorical", "ordinal"):
        if spec.wording is None or spec.wording.value_phrase is None:
            raise ValidationError(
                f"feature {spec.name!r}: categorical rendering needs a value phrase template")
        return spec.wording.value_phrase.format(value=value)
    text = render_cell(value)
    return f"{spec.name}: {text} {spec.unit}" if spec.unit else f"{spec.name}: {text}"


def unrender_value(spec: FeatureSpec, text: str):
    """Exact inverse of render_value for boolean/categorical specs."""
    for value in _domain_values(spec):
        if render_value(spec, value) == text:
            return value
    raise ValidationError(
        f"feature {spec.name!r}: statement {text!r} does not match any template")


# ---------------------------------------------------------------------------
# contribution rules and the PCA weights they share with tests

@dataclass(frozen=True)
class Rewrite:
    """One rule application. ``ops`` gives the features the rule writes, each
    as ``("copy", name)``, ``("sum", names)`` (added in order to 0.0),
    ``("add", a, b)`` or ``("weighted", ((name, weight), ...))`` (products
    added in order to 0.0); every other feature of the step's far side passes
    through unchanged. ``consumed`` lists each near-side feature the rule uses
    up, ``exposed`` the imputation flags it moves out of the vector."""

    ops: Mapping[str, tuple]
    consumed: tuple[str, ...] = ()
    exposed: tuple[str, ...] = ()
    note: str | None = None


ZERO = ("sum", ())
PCA_NOTE = ("pca_project: contributions redistributed to inputs by squared "
            "loadings; this is an approximation and lowers explanation fidelity")


def pca_redistribution_weights(loadings: Sequence[Sequence[float]]) -> tuple[tuple[float, ...], ...]:
    """Per-component convex weights over inputs, proportional to squared loadings.

    weights[k][i] is the share of component k attributed to input i; each
    component's weights sum to 1.
    """
    n_inputs = len(loadings)
    n_components = len(loadings[0]) if n_inputs else 0
    out = []
    for k in range(n_components):
        try:
            squares = [loadings[i][k] ** 2 for i in range(n_inputs)]
            total = sum_in_order(squares)
        except OverflowError:
            total = math.inf
        if total <= 0:
            raise ValidationError(f"PCA component {k + 1} has zero loadings")
        if total == math.inf:
            raise ValidationError(f"PCA component {k + 1}: squared loadings overflow")
        out.append(tuple(s / total for s in squares))
    return tuple(out)
