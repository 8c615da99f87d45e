"""Directed pipelines of transform steps between feature spaces.

A pipeline composes steps over a statically-checked schema flow, fits
data-dependent parameters, runs tables through the kernels while accumulating
lineage and fidelity notes, and inverts itself when every step is exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import reduce
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Mapping, Sequence

from .errors import KernelError, ValidationError
from .lineage import ColumnLineage, Lineage
from .properties import PropertySet, implication_closure
from .schema import (
    SchemaManifest,
    document_mapping,
    load_manifest,
    manifest_from_data,
    manifest_to_data,
    open_input,
    open_outputs,
    read_yaml,
)
from .table import CellError, DataTable
from .transforms import Kernel, TransformStep, kernel_for

DIRECTIONS = ("to_model_ready", "to_interpretable")
_FLIP = {"to_model_ready": "to_interpretable", "to_interpretable": "to_model_ready"}
_TARGET_SPACE = {"to_model_ready": "model_ready", "to_interpretable": "interpretable"}


def _in_step(number: int, kind: str, message: Any) -> str:
    """``message`` said of step ``number`` (``kind``), and of its row when
    ``message`` is an error with a ``row_index``: the one naming of a step
    and a row in errors."""
    row = getattr(message, "row_index", None)
    at = "" if row is None else f"row {row}: "
    return f"step {number} ({kind}): {at}{message}"


def _with_fit_state(config: Mapping[str, Any],
                    fit_state: Mapping[str, Any] | None) -> dict[str, Any]:
    return {**config, **fit_state} if fit_state else dict(config)


@dataclass(frozen=True)
class FittedStep:
    """One step with its fit state (the kernel's learned parameters, by name),
    resolved input/output schemas, and the names of the features it produces,
    in the kernel's order.

    ``config`` is what the kernel reads: the step's normalized config with
    the fit state's values filled in. ``save_fitted`` writes ``step.config``
    and ``fit_state`` apart.

    ``pick`` and ``validated`` are the step's column plan, fixed by the
    schemas: ``pick`` takes the tuple of the input columns followed by the
    produced columns to the tuple of the output columns (an ``itemgetter``
    of their positions in it), and ``validated`` holds the output
    positions of the produced columns whose spec is numeric, the only ones
    validated: arithmetic can overflow to ``inf``, but a kernel takes every
    label and boolean it produces from its output spec or from validated
    inputs. Every other output column keeps its input spec, so its cells are
    valid already.

    ``kernel`` is the step kind's kernel object, kept so that a run needs no
    lookup by kind; its ``apply`` is looked up on it at each call, so a
    wrapper put on the kernel after the step was built is called.
    ``prepared`` is the kernel's ``prepare`` of the step: everything a run of
    the step reads besides the rows, computed here once and shared, never
    mutated, by every run. A run passes it to the kernel's ``apply``, which
    stays the step's one call per run. A step that still needs fitting is
    never run and has nothing prepared (None). ``lineage`` holds a record
    per produced feature, made here once, whose origin is the output spec's
    ``derived_from``: the lineage of each feature the step builds.
    """

    step: TransformStep
    fit_state: Mapping[str, Any] | None
    input_schema: SchemaManifest
    output_schema: SchemaManifest
    produced: tuple[str, ...]
    config: dict[str, Any] = field(init=False, repr=False, compare=False)
    pick: Callable[[tuple], tuple] = field(init=False, repr=False, compare=False)
    validated: tuple[int, ...] = field(init=False, repr=False, compare=False)
    kernel: Kernel = field(init=False, repr=False, compare=False)
    prepared: Any = field(init=False, repr=False, compare=False)
    lineage: tuple[ColumnLineage, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "config", _with_fit_state(self.step.config, self.fit_state))
        kernel = kernel_for(self.step.kind)
        object.__setattr__(self, "kernel", kernel)
        width = len(self.input_schema.features)
        made = {name: width + k for k, name in enumerate(self.produced)}
        sources = [made[name] if name in made else self.input_schema.index(name)
                   for name in self.output_schema.names]
        # An itemgetter of one position returns that item, not a tuple of it.
        object.__setattr__(self, "pick", itemgetter(*sources) if len(sources) > 1 else
                           lambda pool: tuple(pool[s] for s in sources))
        object.__setattr__(self, "validated", tuple(
            i for i, spec in enumerate(self.output_schema.features)
            if spec.name in made and spec.dtype == "numeric"))
        unfitted = self.fit_state is None and kernel.requires_fit(self.step.config)
        object.__setattr__(self, "prepared", None if unfitted else kernel.prepare(self))
        object.__setattr__(self, "lineage", tuple(ColumnLineage(
            name, self.output_schema.feature(name).derived_from) for name in self.produced))

    def __reduce__(self):
        # ``prepared`` holds functions: a copy or an unpickled step prepares anew.
        return FittedStep, (self.step, self.fit_state, self.input_schema,
                            self.output_schema, self.produced)


@dataclass(frozen=True)
class Pipeline:
    """Composed but not necessarily fitted pipeline; schemas are static."""

    steps: tuple[TransformStep, ...]
    input_schema: SchemaManifest
    direction: str
    output_schema: SchemaManifest


@dataclass(frozen=True)
class FittedPipeline:
    """A pipeline whose every step is fitted. The lossy steps (``lossy``, each
    as its number and kind), their ``fidelity_notes`` and the display formats
    are the same for every run, and are worked out here once."""

    steps: tuple[FittedStep, ...]
    input_schema: SchemaManifest
    direction: str
    output_schema: SchemaManifest
    # Contribution-mapping plans, compiled on first use by
    # ``explain.mapping_plan`` and keyed by ``expose_flags``.
    mapping_plans: dict = field(default_factory=dict, init=False, repr=False,
                                compare=False)
    lossy: tuple[tuple[int, str], ...] = field(init=False, repr=False, compare=False)
    fidelity_notes: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _display_formats: Mapping[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lossy", tuple(
            (number, fstep.step.kind) for number, fstep in enumerate(self.steps, 1)
            if not fstep.kernel.exact(fstep.config)))
        object.__setattr__(self, "fidelity_notes", tuple(
            _in_step(number, kind, "lossy transform; inverse not offered")
            for number, kind in self.lossy))
        formats: dict[str, str] = {}
        for fstep in self.steps:
            surviving = set(fstep.output_schema.names)
            formats = {k: v for k, v in formats.items() if k in surviving}
            fmt = fstep.config.get("display_format")
            if fmt:
                for name in fstep.produced:
                    formats[name] = fmt
        object.__setattr__(self, "_display_formats", MappingProxyType(formats))

    def __reduce__(self):
        # What a run reads is worked out anew, and mapping plans on first use.
        return FittedPipeline, (self.steps, self.input_schema, self.direction,
                                self.output_schema)

    def display_formats(self) -> Mapping[str, str]:
        """Per-feature numeric display formats declared by the steps, as a
        read-only mapping that every call returns."""
        return self._display_formats


@dataclass(frozen=True)
class RunResult:
    table: DataTable
    output_schema: SchemaManifest
    lineage: Lineage
    fidelity_notes: tuple[str, ...]


@dataclass(frozen=True)
class InversionRefusal:
    """Returned (never raised) when a pipeline contains non-exact steps."""

    non_invertible: tuple[tuple[int, str], ...]

    @property
    def message(self) -> str:
        steps = ", ".join(f"step {n} ({kind})" for n, kind in self.non_invertible)
        return f"pipeline is not invertible; non-exact steps: {steps}"


def _final_properties(base: PropertySet, delta: Mapping[str, bool], out_spec,
                      overrides: Mapping[str, bool],
                      extra_implications) -> PropertySet:
    closed = implication_closure(replace(base, **{**delta, **overrides}), extra_implications)
    for name, value in overrides.items():
        if value is False and closed.has(name):
            raise ValidationError(
                f"property override {name}=false on {out_spec.name!r} violates an "
                "implication after closure")
    return closed


def _plan_step(kernel: Kernel, step: TransformStep, state: Mapping[str, Any] | None,
               schema: SchemaManifest, step_number: int,
               final_space: str | None) -> FittedStep:
    """The fitted step of normalized ``step`` with fit state ``state`` over
    ``schema``; errors name the step and its kind, as only the pipeline does
    (``_in_step``). The one place that lays out a step's output schema and
    sets its produced flags: the built features take the place of the first
    feature they consume, or go last, and a feature's flags start from those
    its ``derived_from`` inputs share (a rewritten feature's from its own),
    then take the kernel's delta, the step's overrides and the closure. The
    output schema is the one check of the names and features the step produces."""
    try:
        plan = kernel.plan(schema, _with_fit_state(step.config, state))
        produced = (*plan.rewritten, *(spec.name for spec in plan.built))
        document_mapping(step.property_delta, "property_delta", produced,
                         unknown="property_delta names features this step does not "
                                 "produce: {names}")
        kept = [(spec, spec.properties) for spec in schema.features
                if spec.name not in plan.consumed]
        at = min(map(schema.index, plan.consumed), default=len(kept))
        built = [(spec, reduce(PropertySet.intersect, [
            schema.feature(name).properties for name in spec.derived_from.inputs]))
            for spec in plan.built]
        specs = tuple(
            replace(spec, properties=_final_properties(
                base, kernel.delta_for(spec), spec, step.property_delta.get(spec.name, {}),
                schema.extra_implications))
            if spec.name in produced else spec
            for spec, base in (*kept[:at], *built, *kept[at:]))
        space = final_space or "original"
        if space == "model_ready" and not all(s.properties.model_compatible for s in specs):
            space = "original"  # the flow did not reach model-ready space
        out_schema = SchemaManifest(specs, space, schema.extra_implications)
        return FittedStep(step, state, schema, out_schema, produced)
    except ValidationError as exc:
        raise ValidationError(_in_step(step_number, step.kind, exc)) from None


def _build(steps: Sequence[TransformStep], input_schema: SchemaManifest,
           direction: str,
           fit_states: Sequence[Any] | None,
           fit_table: DataTable | None = None,
           require_params: bool = False):
    """Shared schema-flow planner for compose / fit / as_fitted / load_document.

    With a fit table, a step is applied to it only when a later step needs
    fitting, just before that step's ``fit``; the steps after the last one
    that learns never see the fit rows.
    """
    if direction not in DIRECTIONS:
        raise ValidationError(f"unknown pipeline direction {direction!r}")
    fitted: list[FittedStep] = []
    schema = input_schema
    table = fit_table
    pending: list[tuple[FittedStep, int]] = []  # not yet applied to table
    states = list(fit_states) if fit_states is not None else [None] * len(steps)
    for number, (step, state) in enumerate(zip(steps, states), 1):
        try:
            kernel = kernel_for(step.kind)
            document_mapping(step.config, "config", kernel.keys)
            cfg = kernel.normalize(step.config, schema)
            if state is not None:
                state = kernel.check_learned(cfg, state, schema)
        except (ValidationError, TypeError, ValueError) as exc:
            raise ValidationError(_in_step(number, step.kind, exc)) from None
        if kernel.requires_fit(cfg) and state is None:
            if table is not None:
                for args in pending:
                    table, _ = _apply_step(*args, table)
                pending.clear()
                try:
                    # A learned state is checked like one read from a document.
                    state = kernel.check_learned(cfg, kernel.fit(table, cfg), schema)
                except (KernelError, ValidationError) as exc:
                    raise KernelError(_in_step(number, step.kind, exc),
                                      row_index=getattr(exc, "row_index", None),
                                      step_number=number) from None
                except OverflowError:  # a learned value beyond the float range
                    raise KernelError(_in_step(number, step.kind, "fitting overflows "
                                               "the float range"), step_number=number) from None
            elif require_params:
                raise ValidationError(
                    _in_step(number, step.kind, "requires fitting; call fit() with data"))
        final_space = _TARGET_SPACE[direction] if number == len(steps) else None
        fstep = _plan_step(kernel, TransformStep(step.kind, cfg, step.property_delta), state,
                           schema, number, final_space)
        if table is not None:
            pending.append((fstep, number))
        fitted.append(fstep)
        schema = fstep.output_schema
    return tuple(fitted), schema


def compose(steps: Sequence[TransformStep], input_schema: SchemaManifest,
            direction: str) -> Pipeline:
    """Statically check the schema flow and return the composed pipeline.

    Errors name the offending step: dangling feature references, name
    collisions, invalid configs, or property overrides that violate the
    taxonomy implications.
    """
    fitted, output_schema = _build(steps, input_schema, direction, None)
    return Pipeline(tuple(fstep.step for fstep in fitted), input_schema, direction,
                    output_schema)


def fit(pipeline: Pipeline, table: DataTable) -> FittedPipeline:
    """Populate every data-dependent step, fitting each on the table as the
    steps before it transform it.

    The table flows only as far as the last step that learns: the steps after
    it are not applied, so rows that only they would reject pass ``fit`` and
    are rejected by ``run``.
    """
    _check_table_matches(table, pipeline.input_schema)
    fitted, output_schema = _build(pipeline.steps, pipeline.input_schema,
                                   pipeline.direction, None, fit_table=table)
    return FittedPipeline(fitted, pipeline.input_schema, pipeline.direction,
                          output_schema)


def as_fitted(pipeline: Pipeline) -> FittedPipeline:
    """Treat a parameter-complete pipeline as fitted without seeing data."""
    fitted, output_schema = _build(pipeline.steps, pipeline.input_schema,
                                   pipeline.direction, None, require_params=True)
    return FittedPipeline(fitted, pipeline.input_schema, pipeline.direction,
                          output_schema)


def _check_table_matches(table: DataTable, schema: SchemaManifest) -> None:
    if table.schema is schema:  # as read_table_csv builds it for this schema
        return
    if table.schema.names != schema.names:
        missing = [n for n in schema.names if n not in set(table.schema.names)]
        if missing:
            raise ValidationError(f"table is missing pipeline input columns: {missing}")
        raise ValidationError(
            f"table columns {list(table.schema.names)} do not match pipeline input "
            f"{list(schema.names)}")
    for got, want in zip(table.schema.features, schema.features):
        if got.dtype != want.dtype:
            raise ValidationError(
                f"column {want.name!r}: dtype {got.dtype} does not match pipeline "
                f"input dtype {want.dtype}")
        if got.categories != want.categories:
            raise ValidationError(
                f"column {want.name!r}: categories do not match the pipeline input schema")


def _apply_step(fstep: FittedStep, number: int, table: DataTable):
    """Next table and its lineage: the kernel's records of the features it
    rewrites, which come first in ``produced``, then the step's of the rest.
    Only the produced columns are computed; every other column is carried
    over by reference, and only those at ``validated`` are validated. An
    error of the kernel, or of a produced cell (arithmetic that overflowed to
    infinity), is one ``KernelError`` that names the step and its row once."""
    try:
        columns, records = fstep.kernel.apply(table, fstep.prepared)
        if len(columns) != len(fstep.produced):
            raise ValueError(_in_step(number, fstep.step.kind, f"kernel returned "
                                      f"{len(columns)} columns for {len(fstep.produced)} "
                                      "features"))
        out = DataTable.from_columns(fstep.output_schema, fstep.pick((*table.columns, *columns)),
                                     table.num_rows, fstep.validated)
    except (KernelError, ValidationError) as exc:
        if isinstance(exc, CellError):  # its row, named once as a kernel's is
            exc = KernelError(str(exc.reason), row_index=exc.row)
        raise KernelError(_in_step(number, fstep.step.kind, exc),
                          row_index=getattr(exc, "row_index", None), step_number=number) from None
    return out, (*records, *fstep.lineage[len(records):])


def run(fitted: FittedPipeline, table: DataTable) -> RunResult:
    """Apply every fitted step; accumulate lineage. The lossy-step warnings
    are the pipeline's ``fidelity_notes``."""
    _check_table_matches(table, fitted.input_schema)
    num_rows = table.num_rows
    lineage = []
    for number, fstep in enumerate(fitted.steps, 1):
        table, columns = _apply_step(fstep, number, table)
        lineage.append((num_rows, columns))
    return RunResult(table, fitted.output_schema, Lineage(lineage), fitted.fidelity_notes)


def invert(fitted: FittedPipeline) -> FittedPipeline | InversionRefusal:
    """Reverse an exact pipeline; refusal (a value, not an error) otherwise.

    Lossy pipelines are runnable but never invertible; no partial inverse is
    offered because silently dropping steps would bias downstream explanations.
    """
    if fitted.lossy:
        return InversionRefusal(non_invertible=fitted.lossy)
    inverse_raw = [
        fstep.kernel.inverse(fstep.config, fstep.input_schema)
        for fstep in reversed(fitted.steps)
    ]
    direction = _FLIP[fitted.direction]
    inverse_steps, output_schema = _build(inverse_raw, fitted.output_schema,
                                          direction, None, require_params=True)
    return FittedPipeline(
        steps=inverse_steps,
        input_schema=fitted.output_schema,
        direction=direction,
        output_schema=output_schema,
    )


# ---------------------------------------------------------------------------
# documents

_PIPELINE_KEYS = {"input_manifest", "direction", "steps"}
_STEP_KEYS = {"kind", "config", "property_delta"}
_FITTED_KEYS = {"document", "direction", "input_manifest", "steps"}
FITTED_DOCUMENT = "fitted_pipeline"


def _steps_from_data(data: Any, keys=_STEP_KEYS) -> tuple[list[TransformStep], list[Any]]:
    """The steps of a document's ``steps`` list (null reads as empty) and
    each step's ``fit_state``. An error names the step as every step error
    does: ``step N: `` for the step's own mapping, ``step N (kind): `` for
    its config and property delta (``_in_step``)."""
    if data is None:
        data = []
    if not isinstance(data, list):
        raise ValidationError("steps must be a list")
    steps, states = [], []
    for number, item in enumerate(data, 1):
        item = document_mapping(item, f"step {number}", keys, required=("kind",))
        kind = str(item["kind"])
        try:
            steps.append(TransformStep(kind, item.get("config"), item.get("property_delta")))
        except ValidationError as exc:
            raise ValidationError(_in_step(number, kind, exc)) from None
        states.append(item.get("fit_state"))
    return steps, states


def pipeline_from_doc(doc: Any, input_schema: SchemaManifest) -> Pipeline:
    doc = document_mapping(doc, "pipeline document", _PIPELINE_KEYS, required=("direction",))
    steps, _ = _steps_from_data(doc.get("steps"))
    return compose(steps, input_schema, str(doc["direction"]))


def save_fitted(fitted: FittedPipeline, path: str | Path) -> None:
    """Serialize with per-step numeric parameters at full precision; a step's
    config, property delta and fit state are JSON data as they are."""
    doc = {
        "document": FITTED_DOCUMENT,
        "direction": fitted.direction,
        "input_manifest": manifest_to_data(fitted.input_schema),
        "steps": [
            {
                "kind": fstep.step.kind,
                "config": fstep.step.config,
                "property_delta": fstep.step.property_delta,
                "fit_state": fstep.fit_state,
            }
            for fstep in fitted.steps
        ],
    }
    with open_outputs(path) as (handle,):
        handle.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _json_document(text: str) -> Any:
    """``text`` read as JSON. Text that is not JSON raises ``JSONDecodeError``;
    JSON with an integer of more digits than ``int()`` reads, or nested past
    the parser's recursion limit, is a fitted document that cannot be read,
    never a pipeline document for YAML."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        raise ValidationError("fitted pipeline document: an integer has too many "
                              "digits to read") from None
    except RecursionError:
        raise ValidationError("fitted pipeline document: nested too deeply") from None


def load_pipeline(path: str | Path) -> Pipeline:
    """The pipeline of a pipeline document (``load_document``), to be fitted.
    A fitted document is built, then refused: ``fit`` takes a pipeline
    document."""
    pipeline = load_document(path)
    if isinstance(pipeline, FittedPipeline):
        raise ValidationError(f"{path}: fit takes a pipeline document, not a fitted one")
    return pipeline


def load_fitted(path: str | Path) -> FittedPipeline:
    """The fitted pipeline of a document (``load_document``): a fitted
    document's own, or ``as_fitted`` of a pipeline document whose every step
    is configured. Every error names the path."""
    pipeline = load_document(path)
    if isinstance(pipeline, FittedPipeline):
        return pipeline
    try:
        return as_fitted(pipeline)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def load_document(path: str | Path) -> Pipeline | FittedPipeline:
    """The pipeline of a fitted pipeline document (JSON), or else of a
    pipeline document (YAML), whose ``input_manifest`` resolves relative to
    it; the file is read and parsed once. It is parsed and built while
    ``schema.open_input`` holds it open, so every error of its content, a
    step's included, names the path, and a manifest's names both files."""
    path = Path(path)
    with open_input(path, "pipeline") as handle:
        text = handle.read()
        try:
            doc = _json_document(text)
        except json.JSONDecodeError:
            doc = None
        if isinstance(doc, Mapping) and doc.get("document") == FITTED_DOCUMENT:
            return _fitted_from_doc(doc)
        doc = document_mapping(read_yaml(text, "pipeline"), "pipeline document", None,
                               required=("input_manifest",))
        manifest = doc["input_manifest"]
        if not isinstance(manifest, str):
            raise ValidationError("input_manifest must be the path of a manifest file")
        return pipeline_from_doc(doc, load_manifest(path.parent / manifest))


def _fitted_from_doc(doc: Mapping) -> FittedPipeline:
    doc = document_mapping(doc, "fitted pipeline document", _FITTED_KEYS,
                           required=("input_manifest",))
    try:
        schema = manifest_from_data(doc["input_manifest"])
    except ValidationError as exc:
        raise ValidationError(f"input_manifest: {exc}") from None
    steps, states = _steps_from_data(doc.get("steps"), _STEP_KEYS | {"fit_state"})
    direction = str(doc.get("direction"))
    fitted_steps, output_schema = _build(steps, schema, direction, states,
                                         require_params=True)
    return FittedPipeline(fitted_steps, schema, direction, output_schema)
