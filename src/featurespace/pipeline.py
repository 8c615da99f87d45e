"""Directed pipelines of transform steps between feature spaces.

A pipeline composes steps over a statically-checked schema flow, fits
data-dependent parameters, runs tables through the kernels while accumulating
lineage and fidelity notes, and inverts itself when every step is exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping, Sequence

from .errors import KernelError, ValidationError
from .lineage import Lineage
from .properties import PropertySet, implication_closure
from .schema import (
    SchemaManifest,
    document_mapping,
    load_manifest,
    manifest_from_data,
    manifest_to_data,
    open_input,
    read_yaml,
)
from .table import DataTable
from .transforms import Kernel, TransformStep, kernel_for

DIRECTIONS = ("to_model_ready", "to_interpretable")
_FLIP = {"to_model_ready": "to_interpretable", "to_interpretable": "to_model_ready"}
_TARGET_SPACE = {"to_model_ready": "model_ready", "to_interpretable": "interpretable"}


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

    ``sources`` and ``unchecked`` are the step's column plan, fixed by the
    schemas: output column ``i`` is entry ``sources[i]`` of the input columns
    followed by the produced columns, and ``unchecked`` holds the output
    positions of the produced columns whose spec is numeric, the only ones
    validated: arithmetic can overflow to ``inf``, but a kernel takes every
    label and boolean it produces from its output spec or from validated
    inputs. Every other output column keeps its input spec, so its cells are
    valid already.

    ``prepared`` is the kernel's ``prepare`` of the step: everything a run of
    the step reads besides the rows, computed here once and shared, never
    mutated, by every run. A run passes it to the kernel's ``apply``, which
    stays the step's one call per run. A step that still needs fitting is
    never run and has nothing prepared (None).
    """

    step: TransformStep
    fit_state: Mapping[str, Any] | None
    input_schema: SchemaManifest
    output_schema: SchemaManifest
    produced: tuple[str, ...]
    config: dict[str, Any] = field(init=False, repr=False, compare=False)
    sources: tuple[int, ...] = field(init=False, repr=False, compare=False)
    unchecked: tuple[int, ...] = field(init=False, repr=False, compare=False)
    prepared: Any = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "config", _with_fit_state(self.step.config, self.fit_state))
        kernel = kernel_for(self.step.kind)
        width = len(self.input_schema.features)
        made = {name: width + k for k, name in enumerate(self.produced)}
        object.__setattr__(self, "sources", tuple(
            made[name] if name in made else self.input_schema.index(name)
            for name in self.output_schema.names))
        object.__setattr__(self, "unchecked", tuple(
            i for i, spec in enumerate(self.output_schema.features)
            if spec.name in made and spec.dtype == "numeric"))
        unfitted = self.fit_state is None and kernel.requires_fit(self.step.config)
        object.__setattr__(self, "prepared", None if unfitted else kernel.prepare(self))

    def __reduce__(self):
        # ``prepared`` holds functions: a copy or an unpickled step prepares anew.
        return FittedStep, (self.step, self.fit_state, self.input_schema,
                            self.output_schema, self.produced)

    def signature(self):
        """Step identity with fit parameters folded in.

        Presentation-only keys (display_format) are excluded so that inversion
        round-trips compare equal.
        """
        cfg = {k: v for k, v in self.config.items() if k != "display_format"}
        return (self.step.kind, _to_plain(cfg), _to_plain(self.step.property_delta))


@dataclass(frozen=True)
class Pipeline:
    """Composed but not necessarily fitted pipeline; schemas are static."""

    steps: tuple[TransformStep, ...]
    input_schema: SchemaManifest
    direction: str
    output_schema: SchemaManifest


@dataclass(frozen=True)
class FittedPipeline:
    """A pipeline whose every step is fitted. ``fidelity_notes`` (one per
    lossy step) and the display formats are the same for every run, and are
    worked out here once."""

    steps: tuple[FittedStep, ...]
    input_schema: SchemaManifest
    direction: str
    output_schema: SchemaManifest
    # Contribution-mapping plans, compiled on first use by
    # ``explain.mapping_plan`` and keyed by ``expose_flags``.
    mapping_plans: dict = field(default_factory=dict, init=False, repr=False,
                                compare=False)
    fidelity_notes: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _display_formats: Mapping[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "fidelity_notes", tuple(
            f"step {number} ({fstep.step.kind}): lossy transform; inverse not offered"
            for number, fstep in enumerate(self.steps, 1)
            if kernel_for(fstep.step.kind).inverse is None))
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


def _to_plain(value):
    if isinstance(value, Mapping):
        return {str(k): _to_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_plain(v) for v in value]
    return value


def _final_properties(delta: Mapping[str, bool], out_spec,
                      overrides: Mapping[str, bool],
                      extra_implications) -> PropertySet:
    flags = out_spec.properties.flags()
    flags.update(delta)
    flags.update(overrides)
    closed = implication_closure(PropertySet(**flags), extra_implications)
    for name, value in overrides.items():
        if value is False and closed.has(name):
            raise ValidationError(
                f"property override {name}=false on {out_spec.name!r} violates an "
                "implication after closure")
    return closed


def _plan_step(kernel: Kernel, step: TransformStep, cfg: Mapping[str, Any],
               schema: SchemaManifest, step_number: int,
               final_space: str | None) -> tuple[SchemaManifest, tuple[str, ...]]:
    """Output schema of one step and the names it produces; errors name the
    step."""
    try:
        plan = kernel.plan(schema, cfg)
        produced = plan.produced
        document_mapping(step.property_delta, "property_delta", produced,
                         unknown="property_delta names features this step does not "
                                 "produce: {names}")
        specs = tuple(
            replace(spec, properties=_final_properties(
                kernel.delta_for(spec), spec, step.property_delta.get(spec.name, {}),
                schema.extra_implications))
            if spec.name in produced else spec
            for spec in plan.features)
        try:
            return SchemaManifest(specs, final_space or "original",
                                  schema.extra_implications), produced
        except ValidationError:
            if final_space != "model_ready":
                raise
        # The flow did not reach model-ready space (some feature is not
        # model-compatible); the output keeps the neutral tag.
        return SchemaManifest(specs, "original", schema.extra_implications), produced
    except ValidationError as exc:
        raise ValidationError(f"step {step_number} ({step.kind}): {exc}") from None


def _build(steps: Sequence[TransformStep], input_schema: SchemaManifest,
           direction: str,
           fit_states: Sequence[Any] | None,
           fit_table: DataTable | None = None,
           require_params: bool = False):
    """Shared schema-flow planner for compose / fit / as_fitted / load_fitted.

    With a fit table, a step is applied to it only when a later step needs
    fitting, just before that step's ``fit``; the steps after the last one
    that learns never see the fit rows.
    """
    if direction not in DIRECTIONS:
        raise ValidationError(f"unknown pipeline direction {direction!r}")
    normalized: list[TransformStep] = []
    fitted: list[FittedStep] = []
    schema = input_schema
    table = fit_table
    pending: list[tuple[Kernel, FittedStep, int]] = []  # not yet applied to table
    states = list(fit_states) if fit_states is not None else [None] * len(steps)
    if len(states) != len(steps):
        raise ValidationError("fit state count does not match step count")
    last = len(steps) - 1
    for i, step in enumerate(steps):
        number = i + 1
        kernel = kernel_for(step.kind)
        state = states[i]
        try:
            cfg = kernel.normalize(step.config, schema)
            if state is not None:
                state = kernel.check_learned(cfg, state, schema)
        except (ValidationError, TypeError, ValueError) as exc:
            raise ValidationError(f"step {number} ({step.kind}): {exc}") from None
        norm = TransformStep(step.kind, cfg, step.property_delta)
        if kernel.requires_fit(cfg) and state is None:
            if table is not None:
                for args in pending:
                    table, _ = _apply_step(*args, table)
                pending.clear()
                try:
                    # A learned state is checked like one read from a document.
                    state = kernel.check_learned(cfg, kernel.fit(table, cfg), schema)
                except (KernelError, ValidationError) as exc:
                    raise KernelError(f"step {number} ({step.kind}): {exc}",
                                      row_index=getattr(exc, "row_index", None),
                                      step_number=number) from None
                except OverflowError:  # e.g. a squared deviation beyond the float range
                    raise KernelError(f"step {number} ({step.kind}): fitting overflows "
                                      "the float range", step_number=number) from None
            elif require_params:
                raise ValidationError(
                    f"step {number} ({step.kind}): requires fitting; call fit() with data")
        final_space = _TARGET_SPACE[direction] if i == last else None
        out_schema, produced = _plan_step(kernel, norm, _with_fit_state(cfg, state), schema,
                                          number, final_space)
        try:
            fstep = FittedStep(norm, state, schema, out_schema, produced)
        except ValidationError as exc:
            raise ValidationError(f"step {number} ({step.kind}): {exc}") from None
        if table is not None:
            pending.append((kernel, fstep, number))
        fitted.append(fstep)
        normalized.append(norm)
        schema = out_schema
    return tuple(normalized), tuple(fitted), schema


def compose(steps: Sequence[TransformStep], input_schema: SchemaManifest,
            direction: str) -> Pipeline:
    """Statically check the schema flow and return the composed pipeline.

    Errors name the offending step: dangling feature references, name
    collisions, invalid configs, or property overrides that violate the
    taxonomy implications.
    """
    normalized, _, output_schema = _build(steps, input_schema, direction, None)
    return Pipeline(normalized, input_schema, direction, output_schema)


def fit(pipeline: Pipeline, table: DataTable) -> FittedPipeline:
    """Populate every data-dependent step, fitting each on the table as the
    steps before it transform it.

    The table flows only as far as the last step that learns: the steps after
    it are not applied, so rows that only they would reject pass ``fit`` and
    are rejected by ``run``.
    """
    _check_table_matches(table, pipeline.input_schema)
    _, fitted, output_schema = _build(pipeline.steps, pipeline.input_schema,
                                      pipeline.direction, None, fit_table=table)
    return FittedPipeline(fitted, pipeline.input_schema, pipeline.direction,
                          output_schema)


def as_fitted(pipeline: Pipeline) -> FittedPipeline:
    """Treat a parameter-complete pipeline as fitted without seeing data."""
    _, fitted, output_schema = _build(pipeline.steps, pipeline.input_schema,
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


def _apply_step(kernel: Kernel, fstep: FittedStep, number: int, table: DataTable):
    """Next table and the step's column lineage. Only the produced columns
    are computed; every other column is carried over by reference, and only
    the columns in the step's ``unchecked`` plan are validated."""
    try:
        columns, lineage = kernel.apply(table, fstep.prepared)
    except KernelError as exc:
        raise KernelError(f"step {number} ({fstep.step.kind}): {exc}",
                          row_index=exc.row_index, step_number=number) from None
    if len(columns) != len(fstep.produced):
        raise ValueError(f"step {number} ({fstep.step.kind}): kernel returned "
                         f"{len(columns)} columns for {len(fstep.produced)} features")
    pool = (*table.columns, *columns)
    try:
        out = DataTable.from_columns(fstep.output_schema, [pool[s] for s in fstep.sources],
                                     table.num_rows, fstep.unchecked)
    except ValidationError as exc:  # e.g. arithmetic that overflowed to infinity
        raise KernelError(f"step {number} ({fstep.step.kind}): {exc}",
                          step_number=number) from None
    return out, lineage


def run(fitted: FittedPipeline, table: DataTable) -> RunResult:
    """Apply every fitted step; accumulate lineage. The lossy-step warnings
    are the pipeline's ``fidelity_notes``."""
    _check_table_matches(table, fitted.input_schema)
    lineage = []
    current = table
    for number, fstep in enumerate(fitted.steps, 1):
        current, columns = _apply_step(kernel_for(fstep.step.kind), fstep, number, current)
        lineage.append((table.num_rows, columns))
    return RunResult(table=current, output_schema=fitted.output_schema,
                     lineage=Lineage(lineage), fidelity_notes=fitted.fidelity_notes)


def invert(fitted: FittedPipeline) -> FittedPipeline | InversionRefusal:
    """Reverse an exact pipeline; refusal (a value, not an error) otherwise.

    Lossy pipelines are runnable but never invertible; no partial inverse is
    offered because silently dropping steps would bias downstream explanations.
    """
    non_exact = tuple(
        (i + 1, fstep.step.kind)
        for i, fstep in enumerate(fitted.steps)
        if kernel_for(fstep.step.kind).inverse is None
    )
    if non_exact:
        return InversionRefusal(non_invertible=non_exact)
    inverse_raw = [
        kernel_for(fstep.step.kind).inverse(fstep.config, fstep.input_schema)
        for fstep in reversed(fitted.steps)
    ]
    direction = _FLIP[fitted.direction]
    _, inverse_steps, output_schema = _build(inverse_raw, fitted.output_schema,
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


def _steps_from_data(data: Any, where: str,
                     keys=_STEP_KEYS) -> tuple[list[TransformStep], list[Any]]:
    """The steps of a document's ``steps`` list (null reads as empty) and
    each step's ``fit_state``; errors name the step as ``where: steps[i]``."""
    if data is None:
        data = []
    if not isinstance(data, list):
        raise ValidationError(f"{where}: steps must be a list")
    steps, states = [], []
    for i, item in enumerate(data):
        at = f"{where}: steps[{i}]"
        item = document_mapping(item, at, keys, required=("kind",))
        try:
            steps.append(TransformStep(str(item["kind"]), item.get("config"),
                                       item.get("property_delta")))
        except ValidationError as exc:
            raise ValidationError(f"{at} {exc}") from None
        states.append(item.get("fit_state"))
    return steps, states


def pipeline_from_doc(doc: Any, input_schema: SchemaManifest) -> Pipeline:
    doc = document_mapping(doc, "pipeline document", _PIPELINE_KEYS, required=("direction",))
    steps, _ = _steps_from_data(doc.get("steps"), "pipeline document")
    return compose(steps, input_schema, str(doc["direction"]))


def _read_document(path: Path) -> str:
    with open_input(path, "pipeline") as handle:
        return handle.read()


def load_pipeline(path: str | Path) -> Pipeline:
    """Load a pipeline document; input_manifest resolves relative to it."""
    path = Path(path)
    return _pipeline_from_text(_read_document(path), path)


def _pipeline_from_text(text: str, path: Path) -> Pipeline:
    doc = document_mapping(read_yaml(text, f"{path}: pipeline"), f"{path}: pipeline document",
                           None, required=("input_manifest",))
    manifest = doc["input_manifest"]
    if not isinstance(manifest, str):
        # A fitted document holds the manifest itself, as a mapping.
        hint = (" (fit takes a pipeline document, not a fitted one)"
                if _is_fitted_document(doc) else "")
        raise ValidationError(f"{path}: input_manifest must be the path of a manifest file{hint}")
    schema = load_manifest(path.parent / manifest)
    try:
        return pipeline_from_doc(doc, schema)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def save_fitted(fitted: FittedPipeline, path: str | Path) -> None:
    """Serialize with per-step numeric parameters at full precision."""
    doc = {
        "document": FITTED_DOCUMENT,
        "direction": fitted.direction,
        "input_manifest": manifest_to_data(fitted.input_schema),
        "steps": [
            {
                "kind": fstep.step.kind,
                "config": _to_plain(fstep.step.config),
                "property_delta": _to_plain(fstep.step.property_delta),
                "fit_state": _to_plain(fstep.fit_state),
            }
            for fstep in fitted.steps
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def load_fitted(path: str | Path) -> FittedPipeline:
    path = Path(path)
    try:
        doc = json.loads(_read_document(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: fitted pipeline parse error: {exc}") from exc
    if not _is_fitted_document(doc):
        raise ValidationError(f"{path}: not a fitted pipeline document")
    return _fitted_from_doc(doc, path)


def load_document(path: str | Path) -> Pipeline | FittedPipeline:
    """Load a fitted pipeline document, or else a pipeline document, reading
    and parsing the file once."""
    path = Path(path)
    text = _read_document(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if _is_fitted_document(doc):
        return _fitted_from_doc(doc, path)
    return _pipeline_from_text(text, path)


def _is_fitted_document(doc: Any) -> bool:
    return isinstance(doc, Mapping) and doc.get("document") == FITTED_DOCUMENT


def _fitted_from_doc(doc: Mapping, path: Path) -> FittedPipeline:
    where = f"{path}: fitted pipeline document"
    doc = document_mapping(doc, where, _FITTED_KEYS, required=("input_manifest",))
    try:
        schema = manifest_from_data(doc["input_manifest"])
    except ValidationError as exc:
        raise ValidationError(f"{path}: input_manifest: {exc}") from None
    steps, states = _steps_from_data(doc.get("steps"), where, _STEP_KEYS | {"fit_state"})
    direction = str(doc.get("direction"))
    _, fitted_steps, output_schema = _build(steps, schema, direction, states,
                                            require_params=True)
    return FittedPipeline(fitted_steps, schema, direction, output_schema)
