"""Transform kernels between the model-ready and interpretable feature spaces.

Each transform kind is one ``Kernel`` subclass, and everything the package
knows about the kind lives on it: the config it accepts, what it does to the
properties of the features it produces, which parameters ``fit`` learns, the
features it builds, the column computation, the inverse (only an exact kind
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
column function. The pipeline places each produced spec in the output
schema, gives it its flags and records its lineage; a kernel records only
the lineage of the features it rewrites in place. Every kind reads the input
features its config names through ``_input`` (``_numeric_inputs`` for a
list of numeric ``inputs``). A kernel's messages say only its kind's facts:
the pipeline names the step, its kind and the failing row.
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
from .lineage import ColumnLineage, Imputed
from .properties import PROPERTY_NAMES
from .schema import (
    DerivedFrom,
    FeatureSpec,
    RawSource,
    SchemaManifest,
    document_bool,
    document_int,
    document_list,
    document_mapping,
    document_number,
    document_text,
    document_window,
    feature_from_data,
    feature_to_data,
    parse_wording_data,
    wording_to_data,
)
from .table import MISSING, DataTable, check_cell, render_cell

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
    """What a step builds, as its kernel plans it:

    - ``built``: the specs of the new features, each without flags and with
      a ``derived_from`` that names its inputs;
    - ``consumed``: the input features whose place they take; empty when
      the step keeps its inputs, and the new features then go last;
    - ``rewritten``: the input features whose columns the step recomputes
      in place.

    ``apply`` returns the rewritten columns, then the built ones. The
    pipeline lays out the output schema and sets the produced flags."""

    built: tuple[FeatureSpec, ...]
    consumed: tuple[str, ...] = ()
    rewritten: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# config helpers

def _req(cfg: Mapping, key: str):
    if key not in cfg or cfg[key] is None:
        raise ValidationError(f"missing required config key {key!r}")
    return cfg[key]


def _numbers(values, key: str) -> tuple[float, ...]:
    return document_list(values, key, lambda v: document_number(v, key))


def _display_format(cfg: Mapping) -> str | None:
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
    raise ValidationError(f"display_format {spec!r} is not a numeric format spec")


def _format_template(template: str, where: str, **fields) -> str:
    """``template`` with ``fields`` put in. A template that names another
    field, or a field that fails to format, is an error naming ``where`` and
    the template."""
    try:
        return template.format(**fields)
    except (LookupError, AttributeError, TypeError, ValueError) as exc:
        raise ValidationError(f"{where} {template!r} cannot be formatted "
                              f"({type(exc).__name__}: {exc})") from None


def _check_fit_state(kernel: Kernel, cfg: Mapping, fit_state: Any,
                     keys: Sequence[str]) -> None:
    document_mapping(fit_state, "fit_state", keys)
    if not kernel.requires_fit(cfg):
        raise ValidationError("fit_state must be null for a step that is not fitted")


def _tuples(value):
    """``value`` with its JSON lists read as tuples, as ``normalize`` returns them."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _input(schema: SchemaManifest, name: Any, *dtypes: str) -> tuple[str, FeatureSpec]:
    """The input feature a config names, and its spec, whose dtype must be
    one of ``dtypes`` when any are given."""
    name = str(name)
    spec = schema.feature(name)
    if dtypes and spec.dtype not in dtypes:
        raise ValidationError(
            f"feature {name!r} must be {' or '.join(dtypes)}, is {spec.dtype}")
    return name, spec


def _numeric_inputs(cfg: Mapping, schema: SchemaManifest) -> tuple[str, ...]:
    """The config's ``inputs``: a non-empty list of numeric features."""
    inputs = document_list(_req(cfg, "inputs"), "inputs")
    if not inputs:
        raise ValidationError("inputs must be non-empty")
    for name in inputs:
        _input(schema, name, "numeric")
    return inputs


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


def _restore(cfg: Mapping, target: str, dtypes: tuple[str, ...]) -> dict[str, Any]:
    """The step's ``restore``, checked as the document entry of feature
    ``target`` and normalized to ``structural_data``. A step without one
    gives the restore keys of its own config, and the dtype ``dtypes[0]``;
    a step may not give both."""
    data = cfg.get("restore")
    own = sorted(k for k in _STRUCTURAL_KEYS if cfg.get(k) is not None)
    if data is None:
        data = {"dtype": dtypes[0], **{k: cfg[k] for k in own}}
    elif own:
        raise ValidationError(f"give restore or {', '.join(own)}, not both")
    data = document_mapping(data, "restore", _STRUCTURAL_KEYS)
    restore = structural_data(feature_from_data({**data, "name": target}, "restore"))
    if restore["dtype"] not in dtypes:
        raise ValidationError(f"restored dtype must be {' or '.join(dtypes)}")
    return restore


def _restored_fields(restore: Mapping[str, Any]) -> dict[str, Any]:
    """The ``FeatureSpec`` fields a normalized ``restore`` holds."""
    spec = feature_from_data({**restore, "name": "restore"}, "restore")
    return {key: getattr(spec, key) for key in _STRUCTURAL_KEYS}


def _target(cfg: Mapping, feature: str) -> tuple[str, bool]:
    """Output name and ``keep_original`` of a step that derives one feature
    from ``feature``."""
    keep = document_bool(cfg.get("keep_original", False), "keep_original")
    target = str(cfg.get("target") or feature)
    if keep and target == feature:
        raise ValidationError("keep_original requires a distinct target name")
    return target, keep


def _wording_cfg(cfg: Mapping) -> dict | None:
    wording = parse_wording_data(cfg.get("wording"))
    return None if wording is None else wording_to_data(wording)


# ---------------------------------------------------------------------------
# kernels

class Kernel:
    """One transform kind. A kernel declares:

    - ``keys``: the top-level config keys the kind accepts, which the
      pipeline checks before ``normalize`` (a nested mapping, such as a
      ``restore``, is checked by the kind);
    - ``delta``: the property flags set on every feature the step produces
      (``delta_for`` when they depend on the produced feature);
    - ``learned``: the config keys ``fit`` fills in, kept under the same
      names in the step's fit state;
    - ``normalize``: the checked config, as JSON data (tuples for lists),
      also applied to learned values;
    - ``fit``: the fit state (a dict of learned parameters) from the data the
      step sees;
    - ``plan``: what the step builds (``PlanResult``); the pipeline places
      the produced specs, gives them their flags, and builds the output
      schema, its one check that no name collides;
    - ``prepare``: what ``apply`` reads besides the table, from a fitted step;
    - ``apply``: the produced columns, and the lineage of those it rewrites;
    - ``inverse``: the step that undoes this one, defined only by a kind
      that can be exact; ``exact``: whether a step with a given config is,
      which is never so for a kind whose ``inverse`` is None;
    - ``forward_rule`` / ``reverse_rule``: how additive contributions cross
      the step toward the interpretable space.

    ``plan``, ``inverse`` and ``exact`` take one config, ``cfg``: the
    normalized config with the fit state's values filled in, as a fitted
    step's ``config`` holds it. ``prepare`` and the rules read that
    ``config`` from the step.

    ``prepare`` runs once per fitted step, when the step is built, and the
    step keeps its result as ``prepared``. It holds everything a run needs
    that the rows do not change: the kind's constants (bin edges and labels,
    PCA weights, a parsed formula, lookup maps), but no lineage. Values
    ``plan`` already decided, such as bin labels, produced names and
    ``derived_from``, are read from the step's output schema. ``apply`` stays
    the one per-step call of a run, the call a tracer wraps, and does only
    per-row work; the prepared state is shared by every run of the step and
    is never mutated.

    Every label and boolean ``apply`` produces comes from the output spec or
    from validated input cells, so only arithmetic can leave a produced
    column's domain (an overflow to ``inf``). The pipeline validates the
    produced columns whose output spec is numeric, and no others.

    A kernel's messages name neither the step, nor its kind, nor the row,
    and a nested value by its own key (``restore``). An error of one row
    carries it as ``KernelError.row_index``; the pipeline prefixes
    ``step N (kind): `` and, for a row, ``row R: ``.
    """

    kind: str = ""
    keys: tuple[str, ...] = ()
    delta: Mapping[str, bool] = {}
    learned: tuple[str, ...] = ()
    inverse: Callable[[Mapping, SchemaManifest], TransformStep] | None = None

    def normalize(self, cfg: Mapping, schema: SchemaManifest) -> dict:
        raise NotImplementedError

    def delta_for(self, out_spec: FeatureSpec) -> Mapping[str, bool]:
        return self.delta

    def exact(self, cfg: Mapping) -> bool:
        return self.inverse is not None

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
                f"not fitted and no {'/'.join(self.learned)} configured")
        merged = {**cfg, **{key: fit_state.get(key) for key in self.learned}}
        checked = self.normalize(merged, schema)
        for key in self.learned:
            if checked[key] != _tuples(merged[key]):
                raise ValidationError(f"fitted {key} is not a number: "
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

        Returns a pair, which a tracer that wraps ``apply`` unpacks: one list
        of cells per produced feature, in the step's ``produced`` order
        (rewritten, then built), and one ``ColumnLineage`` per rewritten
        feature, in that order; the fitted step records the built ones.
        Input columns are read, never mutated. A row that cannot be computed
        raises ``KernelError`` with the row as ``row_index``, not in the text.
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

    The produced spec consumes its input unless the step has
    ``keep_original``, and its lineage names the kind; the pipeline places
    it and gives it its flags. A subclass gives only:

    - ``_out_fields(spec, cfg)``: the produced spec's own fields, beside its
      name and ``derived_from``, from the input spec;
    - ``_column(fstep)``: the function from the input column to the produced
      column, with the step's constants bound.

    Contributions follow the feature, unless the step keeps its original.
    """

    def _out_fields(self, spec: FeatureSpec, cfg: Mapping) -> dict[str, Any]:
        raise NotImplementedError

    def _column(self, fstep: FittedStep) -> Callable[[list], list]:
        raise NotImplementedError

    def plan(self, schema, cfg):
        feature = cfg["feature"]
        out = FeatureSpec(name=cfg["target"], derived_from=DerivedFrom((feature,), self.kind),
                          **self._out_fields(schema.feature(feature), cfg))
        return PlanResult((out,), () if cfg.get("keep_original") else (feature,))

    def prepare(self, fstep):
        return fstep.config["feature"], self._column(fstep)

    def apply(self, table, prepared):
        feature, column = prepared
        return [column(table.values(feature))], ()

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
    (``_formula_columns``) and ``pca_project``'s apply make the same
    additions a column at a time."""
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
                raise KernelError(unknown.format(value=value), row_index=r)
        return [MISSING if v is MISSING else mapping[v] for v in values]

    return column


class OneHotEncode(Kernel):
    kind = "one_hot_encode"
    delta = {"model_compatible": True, "model_ready": True, "human_worded": False}
    keys = ("feature", "name_template", "names")

    def normalize(self, cfg, schema):
        feature, spec = _input(schema, _req(cfg, "feature"), "categorical")
        categories = spec.categories or ()
        if cfg.get("names") is not None:
            names = document_list(cfg["names"], "names")
            if len(names) != len(categories):
                raise ValidationError(
                    "names must match category count "
                    f"({len(names)} != {len(categories)})")
        else:
            template = str(cfg.get("name_template") or "{feature} {category}")
            if "{category}" not in template:
                raise ValidationError(f"name_template needs a {{category}} placeholder")
            names = tuple(_format_template(template, "name_template",
                                           feature=feature, category=c) for c in categories)
        return {"feature": feature, "names": names}

    def plan(self, schema, cfg):
        feature = cfg["feature"]
        return PlanResult(tuple(
            FeatureSpec(name=name, dtype="boolean", description=f"{feature} is {category}",
                        derived_from=DerivedFrom((feature,), self.kind))
            for name, category in zip(cfg["names"], schema.feature(feature).categories)
        ), (feature,))

    def prepare(self, fstep):
        feature = fstep.config["feature"]
        return feature, fstep.input_schema.feature(feature).categories

    def apply(self, table, prepared):
        feature, categories = prepared
        values = table.values(feature)
        return [[MISSING if v is MISSING else v == c for v in values]
                for c in categories], ()

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
    keys = ("group", "target", "categories", "wording", "unit", "description", "observed",
            "restore", "zero_hot")

    def delta_for(self, out_spec):
        if out_spec.wording is not None and out_spec.wording.value_phrase is not None:
            return {**self.delta, "human_worded": True}
        return self.delta

    def normalize(self, cfg, schema):
        group = document_list(_req(cfg, "group"), "group")
        if not group:
            raise ValidationError("group must be non-empty")
        for name in group:
            spec = schema.feature(name)
            if spec.dtype != "boolean":
                raise ValidationError(
                    f"group feature {name!r} must be boolean, is {spec.dtype}")
        target = str(_req(cfg, "target"))
        restore = _restore(cfg, target, ("categorical",))
        categories = restore["categories"]
        if len(categories) != len(group):
            raise ValidationError(
                "category count must equal group size "
                f"({len(categories)} != {len(group)})")
        zero_hot = str(cfg.get("zero_hot") or "error")
        if zero_hot not in ("error", "missing"):
            raise ValidationError("zero_hot must be 'error' or 'missing'")
        return {"group": group, "target": target, "restore": restore, "zero_hot": zero_hot}

    def plan(self, schema, cfg):
        group = cfg["group"]
        out = FeatureSpec(name=cfg["target"], derived_from=DerivedFrom(group, self.kind),
                          **_restored_fields(cfg["restore"]))
        return PlanResult((out,), group)

    def prepare(self, fstep):
        cfg = fstep.config
        return cfg["group"], cfg["restore"]["categories"], cfg["zero_hot"]

    def apply(self, table, prepared):
        group, categories, zero_hot = prepared
        decoded = []
        for r, cells in enumerate(zip(*(table.values(n) for n in group))):
            missing = [c is MISSING for c in cells]
            if all(missing):
                value = MISSING
            elif any(missing):
                raise KernelError(f"one-hot group {list(group)} mixes MISSING and present cells",
                                  row_index=r)
            else:
                trues = [i for i, c in enumerate(cells) if c]
                if len(trues) == 1:
                    value = categories[trues[0]]
                elif len(trues) > 1:
                    raise KernelError(f"ill-formed one-hot ({len(trues)} indicators TRUE)",
                                      row_index=r)
                elif zero_hot == "missing":
                    value = MISSING
                else:
                    raise KernelError(f"zero indicators TRUE in one-hot group {list(group)}",
                                      row_index=r)
            decoded.append(value)
        return [decoded], ()

    def exact(self, cfg):  # a zero-hot row decodes to MISSING, which encodes as all MISSING
        return cfg["zero_hot"] == "error"

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
    keys = ("feature", "mean", "scale", "target", "display_format")

    def normalize(self, cfg, schema):
        feature, _ = _input(schema, _req(cfg, "feature"), "numeric")
        mean, scale = cfg.get("mean"), cfg.get("scale")
        if (mean is None) != (scale is None):
            raise ValidationError("configure mean and scale together or neither")
        if scale is not None:
            mean, scale = document_number(mean, "mean"), document_number(scale, "scale")
            if scale <= 0:
                raise ValidationError(f"scale must be > 0, got {scale}")
        target, _ = _target(cfg, feature)
        return {
            "feature": feature,
            "mean": mean,
            "scale": scale,
            "target": target,
            "display_format": _display_format(cfg),
        }

    def fit(self, table, cfg):
        values = _non_missing(table.values(cfg["feature"]))
        if not values:
            raise KernelError(f"column {cfg['feature']!r} has no observed values")
        mean = sum_in_order(values) / len(values)
        variance = sum_in_order((v - mean) ** 2 for v in values) / len(values)
        scale = math.sqrt(variance)
        if not math.isfinite(scale):  # as it is wherever the mean is not finite
            raise OverflowError("scale beyond the float range")
        if scale <= 0:
            raise KernelError(f"column {cfg['feature']!r} is constant (scale 0)")
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
    keys = ("feature", "mean", "scale", "target", "restore", "unit", "description",
            "display_format")

    def normalize(self, cfg, schema):
        feature, _ = _input(schema, _req(cfg, "feature"), "numeric")
        mean = document_number(_req(cfg, "mean"), "mean")
        scale = document_number(_req(cfg, "scale"), "scale")
        if scale <= 0:
            raise ValidationError(f"scale must be > 0, got {scale}")
        target, _ = _target(cfg, feature)
        return {"feature": feature, "mean": mean, "scale": scale, "target": target,
                "restore": _restore(cfg, target, ("numeric",)),
                "display_format": _display_format(cfg)}

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


MAX_BINS = 10_000


def _boundaries_and_labels(cfg: Mapping,
                           prefix: str = "") -> tuple[tuple[float, ...], tuple[str, ...]]:
    """A binning's ``boundaries``, non-empty and strictly increasing, and its
    ``labels``, one per bin; errors call them ``{prefix}boundaries``/``labels``."""
    boundaries = _numbers(_req(cfg, "boundaries"), f"{prefix}boundaries")
    if not boundaries or any(a >= b for a, b in zip(boundaries, boundaries[1:])):
        raise ValidationError(
            f"{prefix}boundaries must be non-empty and strictly increasing")
    labels = document_list(_req(cfg, "labels"), f"{prefix}labels")
    if len(labels) != len(boundaries) + 1:
        raise ValidationError(
            f"need {len(boundaries) + 1} {prefix}labels, got {len(labels)}")
    return boundaries, labels


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
    keys = ("feature", "bins", "min", "max", "labels", "target", "keep_original", "wording")

    def normalize(self, cfg, schema):
        feature, _ = _input(schema, _req(cfg, "feature"), "numeric")
        bins = document_int(_req(cfg, "bins"), "bins")
        if bins < 1:
            raise ValidationError("bins must be >= 1")
        if bins > MAX_BINS:  # every bin gets an edge and a label
            raise ValidationError(f"bins must be <= {MAX_BINS}")
        lo, hi = cfg.get("min"), cfg.get("max")
        if (lo is None) != (hi is None):
            raise ValidationError("configure min and max together or neither")
        if lo is not None:
            lo, hi = document_number(lo, "min"), document_number(hi, "max")
            if lo >= hi:
                raise ValidationError("min must be < max")
            if not self._finite_edges({"min": lo, "max": hi, "bins": bins}):
                raise ValidationError(f"bin edges of [{lo}, {hi}] overflow")
        labels = cfg.get("labels")
        if labels is None:
            labels = tuple(f"Bin {i + 1}" for i in range(bins))
        else:
            labels = document_list(labels, "labels")
        if len(labels) != bins:
            raise ValidationError(f"need exactly {bins} labels, got {len(labels)}")
        target, keep = _target(cfg, feature)
        return {
            "feature": feature, "bins": bins, "min": lo, "max": hi,
            "labels": labels, "target": target, "keep_original": keep,
            "wording": _wording_cfg(cfg),
        }

    def fit(self, table, cfg):
        values = _non_missing(table.values(cfg["feature"]))
        if not values:
            raise KernelError(f"column {cfg['feature']!r} has no observed values")
        lo, hi = float(min(values)), float(max(values))
        if lo >= hi:
            raise KernelError(f"column {cfg['feature']!r} has a degenerate range")
        if not self._finite_edges({**cfg, "min": lo, "max": hi}):
            raise KernelError(f"bin edges of column {cfg['feature']!r} overflow")
        return {"min": lo, "max": hi, "edges": self._edges({**cfg, "min": lo, "max": hi})}

    def check_learned(self, cfg, fit_state, schema):
        state = dict(document_mapping(fit_state, "fit_state", None))
        fitted_edges = state.pop("edges", None)
        state = super().check_learned(cfg, state, schema)
        edges = self._edges({**cfg, **state})
        if _tuples(fitted_edges) != edges:
            raise ValidationError("fitted edges do not match min, max and bins")
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
                for r, value in enumerate(values):  # the error is of the first bad row
                    if value is not MISSING and (value < lo or value > hi):
                        raise KernelError(f"value {value!r} of {feature!r} outside bin "
                                          f"range [{lo}, {hi}]", row_index=r)
            return _label_bins(values, inner, labels)

        return column


class SemanticBin(_OneToOne):
    kind = "semantic_bin"
    delta = {"understandable": True}
    keys = ("feature", "boundaries", "labels", "target", "keep_original", "wording")

    def normalize(self, cfg, schema):
        feature, _ = _input(schema, _req(cfg, "feature"), "numeric")
        boundaries, labels = _boundaries_and_labels(cfg)
        target, keep = _target(cfg, feature)
        return {"feature": feature, "boundaries": boundaries, "labels": labels,
                "target": target, "keep_original": keep,
                "wording": _wording_cfg(cfg)}

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
    keys = ("feature", "strategy", "constant", "flag_name")

    def normalize(self, cfg, schema):
        feature, spec = _input(schema, _req(cfg, "feature"))
        strategy = str(_req(cfg, "strategy"))
        if strategy not in ("mean", "constant", "forward_fill"):
            raise ValidationError(f"unknown strategy {strategy!r}")
        if strategy == "mean" and spec.dtype != "numeric":
            raise ValidationError(
                "mean strategy requires a numeric feature, "
                f"{feature!r} is {spec.dtype}")
        constant = cfg.get("constant")
        if strategy == "constant":
            if constant is None:
                raise ValidationError("constant strategy needs a constant value")
            check_cell(constant, spec)
        flag_name = str(cfg.get("flag_name") or f"{feature} Flag")
        return {"feature": feature, "strategy": strategy, "constant": constant,
                "flag_name": flag_name}

    def requires_fit(self, cfg):
        return cfg["strategy"] == "mean"

    def fit(self, table, cfg):
        observed = _non_missing(table.values(cfg["feature"]))
        if not observed:
            raise KernelError(
                f"column {cfg['feature']!r} is entirely missing; "
                "mean strategy has nothing to average")
        mean = sum_in_order(observed) / len(observed)
        if not math.isfinite(mean):
            raise OverflowError("mean beyond the float range")
        return {"mean": mean}

    def check_learned(self, cfg, fit_state, schema):
        _check_fit_state(self, cfg, fit_state, ("mean",))
        if fit_state.get("mean") is None:
            raise ValidationError("mean strategy is not fitted")
        check_cell(fit_state["mean"], schema.feature(cfg["feature"]))
        return {"mean": fit_state["mean"]}

    def plan(self, schema, cfg):
        feature = cfg["feature"]
        flag = FeatureSpec(name=cfg["flag_name"], dtype="boolean",
                           description=f"TRUE where {feature} was imputed",
                           derived_from=DerivedFrom((feature,), self.kind))
        return PlanResult((flag,), rewritten=(feature,))

    def prepare(self, fstep):
        cfg = fstep.config
        strategy = cfg["strategy"]
        fill_value = cfg["mean"] if strategy == "mean" else cfg["constant"]
        labels = fstep.input_schema.feature(cfg["feature"]).category_objects
        return cfg["feature"], strategy, labels.get(fill_value, fill_value), Imputed(strategy)

    def apply(self, table, prepared):
        feature, strategy, fill_value, origin = prepared
        values = table.values(feature)
        flags = [v is MISSING for v in values]
        if strategy == "forward_fill":
            filled = []
            previous = None
            for r, value in enumerate(values):
                if value is MISSING:
                    if previous is None:
                        raise KernelError(f"forward_fill has no preceding value for {feature!r}",
                                          row_index=r)
                    value = previous
                filled.append(value)
                previous = value
        else:
            filled = [fill_value if v is MISSING else v for v in values]
        imputed = dict.fromkeys((r for r, flag in enumerate(flags) if flag), origin)
        return [filled, flags], (ColumnLineage(feature, None, imputed),)

    def forward_rule(self, fstep, expose_flags):
        return Rewrite({fstep.config["flag_name"]: ZERO})  # the flag is new; no share yet

    def reverse_rule(self, fstep, expose_flags):
        cfg = fstep.config
        feature, flag = cfg["feature"], cfg["flag_name"]
        if expose_flags:
            return Rewrite({feature: ("copy", feature)}, (feature, flag), exposed=(flag,))
        return Rewrite({feature: ("add", feature, flag)}, (feature, flag))


def _formula_normalized(formula, inputs: tuple[str, ...]):
    if isinstance(formula, str):
        if formula in ("euclidean_floor", "sum", "mean"):
            return formula
        raise ValidationError(
            f"unknown formula {formula!r}; use euclidean_floor, sum, mean, "
            "or {'expr': ...}")
    if isinstance(formula, Mapping) and set(formula) == {"expr"}:
        expr = str(formula["expr"])
        unknown = sorted(expression_names(parse_expression(expr)) - set(inputs))
        if unknown:
            raise ValidationError(
                f"expression references unknown feature {unknown[0]!r}")
        return {"expr": expr}
    raise ValidationError(f"formula must be a name or {{'expr': ...}}")


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
    program = parse_expression(formula["expr"])
    return lambda values: evaluate(program, dict(zip(inputs, values)))


def _column_sum(columns: Iterable[Iterable]) -> list:
    """Each row's cells of one or more columns added left to right to 0:
    the additions ``sum_in_order`` makes on the row, in the same order."""
    total = repeat(0)
    for column in columns:
        total = list(map(add, total, column))
    return total


def _formula_rows(on_row: Callable, columns: list[list]) -> list:
    """``on_row`` over each row of the input columns: MISSING where the row
    has a MISSING input, and a ``KernelError`` at the first row whose result
    overflows or fails."""
    column = []
    for r, values in enumerate(zip(*columns)):
        if MISSING in values:
            column.append(MISSING)
            continue
        try:
            column.append(on_row(values))
        except (KernelError, OverflowError) as exc:  # e.g. euclidean_floor of an infinite sum
            raise KernelError(str(exc), row_index=r) from None
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

    keys = ("inputs", "formula", "target", "keep_inputs", "wording", "display_format", "unit",
            "description")

    def normalize(self, cfg, schema):
        inputs = _numeric_inputs(cfg, schema)
        formula = _formula_normalized(_req(cfg, "formula"), inputs)
        target = str(_req(cfg, "target"))
        keep = document_bool(cfg.get("keep_inputs", False), "keep_inputs")
        return {"inputs": inputs, "formula": formula, "target": target,
                "keep_inputs": keep, "wording": _wording_cfg(cfg),
                "display_format": _display_format(cfg),
                "unit": None if cfg.get("unit") is None else str(cfg["unit"]),
                "description": document_text(cfg.get("description"),
                                             "description")}

    def _value_fields(self, cfg) -> dict[str, Any]:
        """The produced spec's dtype and the fields that go with it."""
        return {"dtype": "numeric", "unit": cfg["unit"]}

    def plan(self, schema, cfg):
        out = FeatureSpec(name=cfg["target"], description=cfg["description"],
                          wording=parse_wording_data(cfg["wording"]),
                          derived_from=DerivedFrom(cfg["inputs"],
                                                   _formula_descriptor(cfg["formula"])),
                          **self._value_fields(cfg))
        return PlanResult((out,), () if cfg["keep_inputs"] else cfg["inputs"])

    def _labeling(self, fstep: FittedStep) -> tuple[tuple[float, ...], tuple[str, ...]] | None:
        """The boundaries and labels that name each result; None keeps the number."""
        return None

    def prepare(self, fstep):
        cfg = fstep.config
        on_row = _formula_function(cfg["formula"], cfg["inputs"])
        return (cfg["inputs"], _formula_columns(cfg["formula"], on_row), on_row,
                self._labeling(fstep))

    def apply(self, table, prepared):
        inputs, on_columns, on_row, labeling = prepared
        columns = [table.values(n) for n in inputs]
        try:
            column = on_columns(columns)
        except (TypeError, OverflowError):  # a MISSING cell, or an overflow to name by row
            column = _formula_rows(on_row, columns)
        if labeling is not None:
            column = _label_bins(column, *labeling)
        return [column], ()

    def forward_rule(self, fstep, expose_flags):
        cfg = fstep.config
        if cfg["keep_inputs"]:
            return Rewrite({cfg["target"]: ZERO})
        return Rewrite({cfg["target"]: ("sum", tuple(cfg["inputs"]))}, tuple(cfg["inputs"]))


class AbstractConcept(AggregateNumeric):
    kind = "abstract_concept"
    delta = {"abstract_concept": True, "trackable": True}

    keys = (*AggregateNumeric.keys, "labeling")

    def normalize(self, cfg, schema):
        labeling = cfg.get("labeling")
        base = super().normalize(cfg, schema)
        if labeling is not None:
            labeling = document_mapping(labeling, "labeling",
                                        ("boundaries", "labels"))
            boundaries, labels = _boundaries_and_labels(labeling, "labeling ")
            labeling = {"boundaries": boundaries, "labels": labels}
        base["labeling"] = labeling
        return base

    def _value_fields(self, cfg):
        if cfg["labeling"] is None:
            return super()._value_fields(cfg)
        return {"dtype": "ordinal", "categories": cfg["labeling"]["labels"]}

    def _labeling(self, fstep):
        cfg = fstep.config
        if cfg["labeling"] is None:
            return None
        return (cfg["labeling"]["boundaries"],
                fstep.output_schema.feature(cfg["target"]).categories)


class HierarchyRollup(_OneToOne):
    kind = "hierarchy_rollup"
    delta = {"understandable": True}
    keys = ("feature", "mapping", "target", "keep_original", "wording", "description")

    def normalize(self, cfg, schema):
        feature, spec = _input(schema, _req(cfg, "feature"), "categorical", "ordinal")
        mapping = {str(k): str(v) for k, v in
                   document_mapping(_req(cfg, "mapping"), "mapping", None).items()}
        declared = set(spec.categories or ())
        unmapped = sorted(declared - set(mapping))
        if unmapped:
            raise ValidationError(f"categories missing from mapping: {unmapped}")
        document_mapping(mapping, "mapping", declared,
                         unknown="{where} keys not in declared categories: {names}")
        target, keep = _target(cfg, feature)
        return {"feature": feature, "mapping": mapping, "target": target,
                "keep_original": keep, "wording": _wording_cfg(cfg),
                "description": document_text(cfg.get("description"),
                                             "description")}

    def _out_fields(self, spec, cfg):
        parents = tuple(dict.fromkeys(cfg["mapping"][c] for c in spec.categories))
        return {"dtype": "categorical", "description": cfg["description"],
                "categories": parents, "wording": parse_wording_data(cfg["wording"])}

    def _column(self, fstep):
        parents = fstep.output_schema.feature(fstep.config["target"]).category_objects
        mapping = {child: parents[parent] for child, parent in fstep.config["mapping"].items()}
        return _lookup(mapping, "unmapped category {value!r}")


class RenderStatement(_OneToOne):
    kind = "render_statement"
    delta = {"human_worded": True}
    keys = ("feature", "target")

    def normalize(self, cfg, schema):
        feature, spec = _input(schema, _req(cfg, "feature"))
        if spec.dtype not in ("boolean", "categorical", "ordinal"):
            raise ValidationError(
                "only boolean and categorical features can be rendered "
                f"as a column ({feature!r} is {spec.dtype}); use render_value for numerics")
        rendered = rendered_categories(spec)
        if len(set(rendered)) != len(rendered):
            raise ValidationError(
                f"wording templates for {feature!r} do not produce "
                "distinct statements; rendering would not be invertible")
        target = str(cfg.get("target") or f"{feature} Statement")
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
    keys = ("feature", "target", "restore")

    def normalize(self, cfg, schema):
        feature, spec = _input(schema, _req(cfg, "feature"))
        # A feature with a wording template holds the values it renders; a
        # statement feature, as render_statement makes one, has none.
        if spec.dtype not in ("categorical", "ordinal") or spec.wording is not None:
            raise ValidationError(f"feature {feature!r} must hold rendered statements")
        target = str(_req(cfg, "target"))
        _req(cfg, "restore")
        restore = _restore(cfg, target, ("boolean", "categorical", "ordinal"))
        if "wording" not in restore:
            raise ValidationError("restore must carry the wording templates")
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
    keys = ("inputs", "components", "means", "loadings", "name_template", "display_format")

    def normalize(self, cfg, schema):
        inputs = _numeric_inputs(cfg, schema)
        components = document_int(_req(cfg, "components"),
                                  "components")
        if components < 1 or components > len(inputs):
            raise ValidationError(
                f"components must be in [1, {len(inputs)}], got {components}")
        means, loadings = cfg.get("means"), cfg.get("loadings")
        if (means is None) != (loadings is None):
            raise ValidationError("configure means and loadings together or neither")
        if loadings is not None:
            loadings = document_list(loadings, "loadings",
                                     lambda row: _numbers(row, "loadings"))
            means = _numbers(means, "means")
            if len(means) != len(inputs) or len(loadings) != len(inputs) or \
                    any(len(row) != components for row in loadings):
                raise ValidationError(
                    "loadings must be (inputs x components) and means per input")
        template = str(cfg.get("name_template") or "PCA {i}")
        if "{i}" not in template:
            raise ValidationError(f"name_template needs an {{i}} placeholder")
        return {"inputs": inputs, "components": components,
                "means": means, "loadings": loadings,
                "name_template": template, "display_format": _display_format(cfg)}

    def fit(self, table, cfg):
        inputs = cfg["inputs"]
        columns = [table.values(name) for name in inputs]
        try:
            data = np.array(columns, dtype=float).T
        except TypeError:  # a MISSING cell, the only cell float() refuses
            name = next(name for name, column in zip(inputs, columns) if MISSING in column)
            raise KernelError(f"column {name!r} contains MISSING values; "
                              "impute first") from None
        if data.shape[0] < 2:
            raise KernelError("need at least 2 rows to fit")
        with np.errstate(all="ignore"):  # an overflow is raised below, not warned of
            means = data.mean(axis=0)
            centered = data - means
            cov = centered.T @ centered / data.shape[0]
        if not np.isfinite(cov).all():  # as it is wherever a mean is not finite
            raise OverflowError("covariance beyond the float range")
        eigenvalues, eigenvectors = np.linalg.eigh(cov)
        order = np.argsort(eigenvalues)[::-1]
        eigenvalues = eigenvalues[order]
        eigenvectors = eigenvectors[:, order]
        top = max(float(eigenvalues[0]), 0.0)
        rank = int(np.sum(eigenvalues > top * 1e-10)) if top > 0 else 0
        if rank < cfg["components"]:
            raise KernelError(
                f"covariance rank {rank} < requested components "
                f"{cfg['components']}")
        vectors = eigenvectors[:, :cfg["components"]].copy()
        for k in range(vectors.shape[1]):
            nonzero = np.nonzero(np.abs(vectors[:, k]) > 1e-12)[0]
            if nonzero.size and vectors[nonzero[0], k] < 0:
                vectors[:, k] = -vectors[:, k]
        return {"means": tuple(float(m) for m in means),
                "loadings": tuple(tuple(float(v) for v in row) for row in vectors)}

    def _names(self, cfg) -> tuple[str, ...]:
        return tuple(_format_template(cfg["name_template"], "name_template", i=i + 1)
                     for i in range(cfg["components"]))

    def plan(self, schema, cfg):
        inputs = cfg["inputs"]
        return PlanResult(tuple(
            FeatureSpec(name=name, dtype="numeric", description=f"Feature {i + 1} from PCA",
                        derived_from=DerivedFrom(inputs, self.kind))
            for i, name in enumerate(self._names(cfg))
        ), inputs)

    def prepare(self, fstep):
        cfg = fstep.config
        # The inputs' positions in a table of the step's input schema; means
        # as a column (input, 1) and loadings as (input, component, 1), to
        # broadcast against the (input, row) array of the input columns.
        positions = tuple(map(fstep.input_schema.index, cfg["inputs"]))
        means = np.array(cfg["means"], dtype=float)[:, None]
        weights = np.array(cfg["loadings"], dtype=float)[:, :, None]
        means.flags.writeable = weights.flags.writeable = False
        return positions, means, weights

    def apply(self, table, prepared):
        positions, means, weights = prepared
        columns = [table.columns[i] for i in positions]
        try:
            centered = np.array(columns, dtype=float)
        except TypeError:  # a MISSING cell, the only cell float() refuses
            r = min(column.index(MISSING) for column in columns if MISSING in column)
            raise KernelError("MISSING value in PCA inputs; impute first", row_index=r) from None
        # Each cell is 0, plus, input by input, (value - mean) * loading.
        # Elementwise float64 subtract, multiply and add are the same single
        # IEEE operations Python floats do. ``accumulate`` adds the inputs'
        # product arrays in place, one after another in input order. That sum
        # differs from 0 + the first product + the others only where every
        # product is -0.0 (-0.0 against 0.0), which ``+ 0`` mends; so each
        # cell gets the additions of ``sum_in_order`` and the bits of a
        # per-row loop. A reduction (``@``, ``np.sum``) may reassociate the
        # sum and is not used. An overflow is left to the pipeline's check
        # of the produced column, which names its row, so NumPy does not warn.
        with np.errstate(all="ignore"):
            centered -= means
            products = weights * centered[:, None, :]
            del centered  # each array is freed once read, before the cells' floats are made
            total = np.add.accumulate(products, axis=0, out=products)[-1] + 0
            del products
        return total.tolist(), ()

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
    keys = ("feature", "series_id", "window", "series")

    def normalize(self, cfg, schema):
        feature, spec = _input(schema, _req(cfg, "feature"))
        source = spec.raw_source
        # A step that names its series and window needs no raw_source: the
        # inverse of a link whose feature a later step replaced reads neither.
        if source is None and not (cfg.get("series_id") and cfg.get("window")):
            raise ValidationError(
                f"feature {feature!r} does not declare a raw_source")
        series_id = str(cfg.get("series_id") or source.series_id)
        window = document_window(cfg.get("window") or source.window, "window")
        if window[0] < 0 or window[1] <= window[0]:
            raise ValidationError("window must satisfy 0 <= start < stop")
        series = cfg.get("series")
        if series is not None:
            series = _numbers(series, "series")
        return {"feature": feature, "series_id": series_id, "window": window,
                "series": series}

    def plan(self, schema, cfg):
        return PlanResult((), rewritten=(cfg["feature"],))

    def prepare(self, fstep):
        """The feature, the error every run of the step raises (None when
        the window lies in the series) and the feature's lineage."""
        cfg = fstep.config
        series, series_id, feature = cfg["series"], cfg["series_id"], cfg["feature"]
        start, stop = cfg["window"]
        error = None
        if series is None:
            error = f"unknown series {series_id!r}"
        elif stop > len(series):
            error = (f"window [{start}, {stop}) outside series "
                     f"{series_id!r} of length {len(series)}")
        return feature, error, (ColumnLineage(feature, RawSource(series_id, (start, stop))),)

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
EXACT_KINDS = tuple(k for k, v in KERNELS.items() if v.inverse is not None)  # can be exact


def kernel_for(kind: str) -> Kernel:
    if kind not in KERNELS:
        raise ValidationError("unknown transform kind")
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
        return _format_template(spec.wording.value_phrase, f"feature {spec.name!r}: wording value",
                                value=value)
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
