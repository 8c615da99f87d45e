"""Directed pipelines of transform steps between feature spaces.

A pipeline composes steps over a statically-checked schema flow, fits
data-dependent parameters, runs tables through the kernels while accumulating
lineage and fidelity notes, and inverts itself when every step is exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

from .errors import KernelError, ValidationError
from .lineage import Lineage
from .properties import PropertySet, implication_closure
from .schema import (
    SchemaManifest,
    load_manifest,
    manifest_from_data,
    manifest_to_data,
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
    positions of the produced columns, the only ones validated. Every other
    output column keeps its input spec, so its cells are valid already.
    """

    step: TransformStep
    fit_state: Mapping[str, Any] | None
    input_schema: SchemaManifest
    output_schema: SchemaManifest
    produced: tuple[str, ...]
    config: dict[str, Any] = field(init=False, repr=False, compare=False)
    sources: tuple[int, ...] = field(init=False, repr=False, compare=False)
    unchecked: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "config", _with_fit_state(self.step.config, self.fit_state))
        width = len(self.input_schema.features)
        made = {name: width + k for k, name in enumerate(self.produced)}
        names = self.output_schema.names
        object.__setattr__(self, "sources", tuple(
            made[name] if name in made else self.input_schema.index(name) for name in names))
        object.__setattr__(self, "unchecked", tuple(
            i for i, name in enumerate(names) if name in made))

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
    steps: tuple[FittedStep, ...]
    input_schema: SchemaManifest
    direction: str
    output_schema: SchemaManifest
    # Contribution-mapping plans, compiled on first use by
    # ``explain.mapping_plan`` and keyed by ``expose_flags``.
    mapping_plans: dict = field(default_factory=dict, init=False, repr=False,
                                compare=False)

    def display_formats(self) -> dict[str, str]:
        """Per-feature numeric display formats declared by the steps."""
        formats: dict[str, str] = {}
        for fstep in self.steps:
            surviving = set(fstep.output_schema.names)
            formats = {k: v for k, v in formats.items() if k in surviving}
            fmt = fstep.config.get("display_format")
            if fmt:
                for name in fstep.produced:
                    formats[name] = fmt
        return formats


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
        stray = sorted(set(step.property_delta) - set(produced))
        if stray:
            raise ValidationError(
                f"property_delta names features this step does not produce: {stray}")
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
                    state = kernel.fit(table, cfg)
                except KernelError as exc:
                    raise KernelError(f"step {number} ({step.kind}): {exc}",
                                      row_index=exc.row_index, step_number=number) from None
            elif require_params:
                raise ValidationError(
                    f"step {number} ({step.kind}): requires fitting; call fit() with data")
        final_space = _TARGET_SPACE[direction] if i == last else None
        out_schema, produced = _plan_step(kernel, norm, _with_fit_state(cfg, state), schema,
                                          number, final_space)
        fstep = FittedStep(norm, state, schema, out_schema, produced)
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
        columns, lineage = kernel.apply(table, fstep.config)
    except KernelError as exc:
        raise KernelError(f"step {number} ({fstep.step.kind}): {exc}",
                          row_index=exc.row_index, step_number=number) from None
    if len(columns) != len(fstep.produced):
        raise ValueError(f"step {number} ({fstep.step.kind}): kernel returned "
                         f"{len(columns)} columns for {len(fstep.produced)} features")
    pool = (*table.columns, *columns)
    return DataTable.from_columns(fstep.output_schema, [pool[s] for s in fstep.sources],
                                  table.num_rows, fstep.unchecked), lineage


def run(fitted: FittedPipeline, table: DataTable) -> RunResult:
    """Apply every fitted step; accumulate lineage and lossy-step warnings."""
    _check_table_matches(table, fitted.input_schema)
    lineage = []
    notes: list[str] = []
    current = table
    for number, fstep in enumerate(fitted.steps, 1):
        kernel = kernel_for(fstep.step.kind)
        current, columns = _apply_step(kernel, fstep, number, current)
        lineage.append((table.num_rows, columns))
        if kernel.invertible in ("lossy", "none"):
            notes.append(f"step {number} ({fstep.step.kind}): lossy transform; "
                         "inverse not offered")
    return RunResult(table=current, output_schema=fitted.output_schema,
                     lineage=Lineage(lineage), fidelity_notes=tuple(notes))


def invert(fitted: FittedPipeline) -> FittedPipeline | InversionRefusal:
    """Reverse an exact pipeline; refusal (a value, not an error) otherwise.

    Lossy pipelines are runnable but never invertible; no partial inverse is
    offered because silently dropping steps would bias downstream explanations.
    """
    non_exact = tuple(
        (i + 1, fstep.step.kind)
        for i, fstep in enumerate(fitted.steps)
        if kernel_for(fstep.step.kind).invertible != "exact"
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
FITTED_DOCUMENT = "fitted_pipeline"


def _steps_from_data(data: Any) -> list[TransformStep]:
    if not isinstance(data, list):
        raise ValidationError("pipeline document: steps must be a list")
    steps = []
    for i, item in enumerate(data):
        if not isinstance(item, Mapping):
            raise ValidationError(f"pipeline document: steps[{i}] must be a mapping")
        unknown = sorted(set(item) - _STEP_KEYS)
        if unknown:
            raise ValidationError(f"pipeline document: steps[{i}] unknown keys {unknown}")
        if "kind" not in item:
            raise ValidationError(f"pipeline document: steps[{i}] missing kind")
        config = item.get("config") or {}
        if not isinstance(config, Mapping):
            raise ValidationError(f"pipeline document: steps[{i}] config must be a mapping")
        try:
            steps.append(TransformStep(str(item["kind"]), config,
                                       item.get("property_delta") or {}))
        except ValidationError as exc:
            raise ValidationError(f"pipeline document: steps[{i}] {exc}") from None
    return steps


def pipeline_from_doc(doc: Any, input_schema: SchemaManifest) -> Pipeline:
    if not isinstance(doc, Mapping):
        raise ValidationError("pipeline document must be a mapping")
    unknown = sorted(set(doc) - _PIPELINE_KEYS)
    if unknown:
        raise ValidationError(f"pipeline document: unknown keys {unknown}")
    if "direction" not in doc:
        raise ValidationError("pipeline document: missing direction")
    return compose(_steps_from_data(doc.get("steps") or []), input_schema,
                   str(doc["direction"]))


def _read_document(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read pipeline {path}: {exc}") from exc


def load_pipeline(path: str | Path) -> Pipeline:
    """Load a pipeline document; input_manifest resolves relative to it."""
    path = Path(path)
    return _pipeline_from_text(_read_document(path), path)


def _pipeline_from_text(text: str, path: Path) -> Pipeline:
    doc = read_yaml(text, f"{path}: pipeline")
    if not isinstance(doc, Mapping):
        raise ValidationError(f"{path}: pipeline document must be a mapping")
    if "input_manifest" not in doc:
        raise ValidationError(f"{path}: pipeline document needs input_manifest")
    manifest_path = Path(str(doc["input_manifest"]))
    if not manifest_path.is_absolute():
        manifest_path = path.parent / manifest_path
    schema = load_manifest(manifest_path)
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
    if "input_manifest" not in doc:
        raise ValidationError(f"{path}: fitted pipeline document needs input_manifest")
    try:
        schema = manifest_from_data(doc["input_manifest"])
    except ValidationError as exc:
        raise ValidationError(f"{path}: input_manifest: {exc}") from None
    raw_steps = doc.get("steps") or []
    if not isinstance(raw_steps, list):
        raise ValidationError(f"{path}: steps must be a list")
    states = []
    for i, item in enumerate(raw_steps):
        if not isinstance(item, Mapping):
            raise ValidationError(f"{path}: steps[{i}] must be a mapping")
        states.append(item.get("fit_state"))
    steps = _steps_from_data([
        {k: v for k, v in item.items() if k != "fit_state"} for item in raw_steps
    ])
    direction = str(doc.get("direction"))
    _, fitted_steps, output_schema = _build(steps, schema, direction, states,
                                            require_params=True)
    return FittedPipeline(fitted_steps, schema, direction, output_schema)

