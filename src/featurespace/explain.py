"""Remap additive per-feature contribution vectors across a fitted pipeline.

Contribution vectors are produced externally (e.g. by a Shapley-value tool)
against the model-ready schema; this module carries them into the
interpretable schema while preserving the total contribution. Mapping walks a
``to_interpretable`` pipeline forward, or a ``to_model_ready`` pipeline in
reverse; either way the vector starts on the model-ready side.

How contributions cross one step is known by the step's kernel: its
``forward_rule`` or ``reverse_rule`` returns a ``Rewrite`` that writes each
output feature as a copy, a sum from 0.0, a two-term add or a weighted sum
from 0.0 of near-side features (PCA's weights are its redistribution weights).
Nothing about a mapping depends on the vector's values except the arithmetic,
so each ``(FittedPipeline, expose_flags)`` pair is compiled once, on first
use, into a ``MappingPlan`` stored on the fitted pipeline. The plan caches the
expected and final schemas, each step's rewrite as index operations over
slots, which slots feed exposed imputation flags, the static partition audit
and fidelity notes, and the error of a pipeline that cannot be mapped. Per
vector, mapping is the alignment check and list arithmetic over those
operations.

The operations keep each step's own summation order instead of folding the
pipeline into one contribution matrix: a fused ``C @ M`` would reassociate
the sums, so mapped values, and the conservation deltas computed from them,
would change in their last bits.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import IO, Mapping, Sequence

from .errors import MappingError, ValidationError
from .pipeline import FittedPipeline
from .schema import SchemaManifest
from .transforms import Rewrite, kernel_for, sum_in_order

CONSERVATION_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ContributionVector:
    """Per-feature additive explanation for one row, aligned to a schema."""

    schema: SchemaManifest
    values: tuple[float, ...]
    base_value: float | None = None

    def __post_init__(self):
        values = tuple(map(float, self.values))
        object.__setattr__(self, "values", values)
        if len(values) != len(self.schema.features):
            raise ValidationError(
                f"contribution vector has {len(values)} values for "
                f"{len(self.schema.features)} features")
        if not all(map(math.isfinite, values)):
            for name, value in zip(self.schema.names, values):
                if not math.isfinite(value):
                    raise ValidationError(f"contribution for {name!r} is not finite: {value!r}")
        if self.base_value is not None:
            base = float(self.base_value)
            if not math.isfinite(base):
                raise ValidationError(f"base value is not finite: {self.base_value!r}")
            object.__setattr__(self, "base_value", base)

    def total(self) -> float:
        return sum_in_order(self.values)

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.schema.names, self.values))


@dataclass(frozen=True)
class MappedContributions:
    vector: ContributionVector
    fidelity_notes: tuple[str, ...]
    exposed_flags: Mapping[str, float] = field(default_factory=dict)
    partition_audit: tuple[tuple[int, Mapping[str, int]], ...] = ()


@dataclass(frozen=True)
class ConservationResult:
    passed: bool
    delta: float
    tolerance: float


def conservation_check(before: ContributionVector,
                       after: ContributionVector,
                       extra_after: float = 0.0) -> ConservationResult:
    """Pass iff the total contribution is preserved within a relative 1e-9.

    ``extra_after`` accounts for contributions carried outside the vector
    (exposed imputation flags).
    """
    total_before = before.total()
    delta = abs(total_before - (after.total() + extra_after))
    tolerance = CONSERVATION_TOLERANCE * max(1.0, abs(total_before))
    return ConservationResult(passed=delta <= tolerance, delta=delta,
                              tolerance=tolerance)


# ---------------------------------------------------------------------------
# compiled plans

@dataclass(frozen=True)
class StepOps:
    """One step over slot indices: ``copy_from`` gives each output slot's
    source slot (a placeholder where a later operation writes the slot);
    ``sums``, ``adds`` and ``weighted`` write ``(slot, ...)``; ``exposed``
    reads ``(flag, slot)`` before the step."""

    copy_from: tuple[int, ...]
    sums: tuple[tuple[int, tuple[int, ...]], ...]
    adds: tuple[tuple[int, int, int], ...]
    weighted: tuple[tuple[int, tuple[tuple[int, float], ...]], ...]
    exposed: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class MappingPlan:
    """Everything about mapping through one fitted pipeline that does not
    depend on a vector's values. ``error`` is set when the pipeline cannot be
    mapped; it is raised afresh on every call."""

    expected: SchemaManifest
    final: SchemaManifest
    steps: tuple[StepOps, ...]
    fidelity_notes: tuple[str, ...]
    partition_audit: tuple[tuple[int, Mapping[str, int]], ...]
    error: ValidationError | None = None


def _compile_step(rewrite: Rewrite, near: SchemaManifest, far: SchemaManifest,
                  label: str) -> tuple[StepOps, dict[str, int]]:
    """Slot operations from ``near`` (the vector before the step) to ``far``,
    and each near-side feature's consumption count."""
    slot = {name: i for i, name in enumerate(near.names)}
    counts = dict.fromkeys(near.names, 0)
    for name in rewrite.consumed:
        counts[name] += 1
    copy_from, sums, adds, weighted = [], [], [], []
    for out, name in enumerate(far.names):
        op = rewrite.ops.get(name)
        if op is None:
            if name not in slot:
                raise MappingError(f"feature {name!r} appeared without a mapping rule")
            counts[name] += 1
            op = ("copy", name)
        tag = op[0]
        copy_from.append(slot[op[1]] if tag == "copy" else 0)
        if tag == "sum":
            sums.append((out, tuple(slot[n] for n in op[1])))
        elif tag == "add":
            adds.append((out, slot[op[1]], slot[op[2]]))
        elif tag == "weighted":
            weighted.append((out, tuple((slot[n], w) for n, w in op[1])))
    bad = {name: c for name, c in counts.items() if c != 1}
    if bad:
        raise MappingError(f"{label}: contribution partition violated "
                           f"(consumption counts {bad})")
    ops = StepOps(tuple(copy_from), tuple(sums), tuple(adds), tuple(weighted),
                  tuple((flag, slot[flag]) for flag in rewrite.exposed))
    return ops, counts


def _compile(fitted: FittedPipeline, expose_flags: bool) -> MappingPlan:
    numbered = tuple(enumerate(fitted.steps, start=1))
    forward = fitted.direction == "to_interpretable"
    if forward:
        expected, final, order = fitted.input_schema, fitted.output_schema, numbered
    else:
        expected, final = fitted.output_schema, fitted.input_schema
        order = tuple(reversed(numbered))
    steps, notes, audit = [], [], []
    try:
        for number, fstep in order:
            kind = fstep.step.kind
            kernel = kernel_for(kind)
            if forward:
                rewrite = kernel.forward_rule(fstep, expose_flags)
                near, far = fstep.input_schema, fstep.output_schema
            else:
                rewrite = kernel.reverse_rule(fstep, expose_flags)
                near, far = fstep.output_schema, fstep.input_schema
            if rewrite is None:
                raise MappingError(
                    f"step ({kind}) has no contribution rule in the forward direction; "
                    "map against the pipeline that produced the model-ready schema instead"
                    if forward else
                    f"step ({kind}) has no contribution rule in the reverse direction")
            ops, counts = _compile_step(rewrite, near, far, f"step {number} ({kind})")
            steps.append(ops)
            if rewrite.note is not None:
                notes.append(rewrite.note)
            audit.append((number, MappingProxyType(counts)))
    except ValidationError as exc:
        return MappingPlan(expected, final, (), (), (), error=exc.with_traceback(None))
    return MappingPlan(expected, final, tuple(steps), tuple(notes), tuple(audit))


def mapping_plan(fitted: FittedPipeline, expose_flags: bool = False) -> MappingPlan:
    """The compiled plan for ``fitted``, built on first use and kept on the
    fitted pipeline (which is immutable) for later calls."""
    key = bool(expose_flags)
    plan = fitted.mapping_plans.get(key)
    if plan is None:
        plan = fitted.mapping_plans[key] = _compile(fitted, key)
    return plan


def map_contributions(fitted: FittedPipeline, contrib: ContributionVector,
                      expose_flags: bool = False) -> MappedContributions:
    """Map a model-ready contribution vector onto the interpretable schema.

    Every source feature must be consumed by exactly one rule application;
    dropped or double-counted features raise MappingError. The base value
    passes through unchanged.
    """
    plan = mapping_plan(fitted, expose_flags)
    expected = plan.expected.names
    if contrib.schema.names != expected:
        raise MappingError(
            "contribution vector does not align with the pipeline's model-ready "
            f"schema: got {list(contrib.schema.names)}, expected {list(expected)}")
    if plan.error is not None:
        raise type(plan.error)(*plan.error.args)
    values = contrib.values
    exposed: dict[str, float] = {}
    for step in plan.steps:
        for flag, i in step.exposed:
            exposed[flag] = exposed.get(flag, 0.0) + values[i]
        out = [values[i] for i in step.copy_from]
        for slot, indices in step.sums:
            total = 0.0
            for i in indices:
                total += values[i]
            out[slot] = total
        for slot, i, j in step.adds:
            out[slot] = values[i] + values[j]
        for slot, terms in step.weighted:
            total = 0.0
            for i, weight in terms:
                total += values[i] * weight
            out[slot] = total
        values = out
    vector = ContributionVector(plan.final, tuple(values), contrib.base_value)
    return MappedContributions(vector=vector, fidelity_notes=plan.fidelity_notes,
                               exposed_flags=exposed,
                               partition_audit=plan.partition_audit)


# ---------------------------------------------------------------------------
# contribution CSV: header is the schema's feature names, plus an optional
# trailing __base__ column; one row per explained instance.

BASE_COLUMN = "__base__"
_CHUNK_VECTORS = 4096


def read_contributions(source: str | Path | IO[str],
                       schema: SchemaManifest) -> list[ContributionVector]:
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            handle = path.open(newline="", encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"cannot read contributions {path}: {exc}") from exc
        with handle:
            try:
                return read_contributions(handle, schema)
            except UnicodeDecodeError as exc:
                raise ValidationError(f"cannot read contributions {path}: {exc}") from exc
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("contribution file is empty (missing header)") from None
    has_base = bool(header) and header[-1] == BASE_COLUMN
    names = tuple(header[:-1] if has_base else header)
    if names != schema.names:
        raise MappingError(
            f"contribution header {list(names)} does not match schema features "
            f"{list(schema.names)}")
    vectors = []
    for r, raw in enumerate(reader):
        expected = len(names) + (1 if has_base else 0)
        if len(raw) != expected:
            raise ValidationError(f"contribution row {r}: expected {expected} fields")
        try:
            numbers = [float(x) for x in raw]
        except ValueError as exc:
            raise ValidationError(f"contribution row {r}: {exc}") from None
        base = numbers.pop() if has_base else None
        try:
            vectors.append(ContributionVector(schema=schema, values=tuple(numbers),
                                              base_value=base))
        except ValidationError as exc:
            raise ValidationError(f"contribution row {r}: {exc}") from None
    return vectors


def write_contributions(vectors: Sequence[ContributionVector],
                        target: str | Path | IO[str]) -> None:
    if isinstance(target, (str, Path)):
        with Path(target).open("w", newline="", encoding="utf-8") as handle:
            write_contributions(vectors, handle)
        return
    if not vectors:
        raise ValidationError("no contribution vectors to write")
    schema = vectors[0].schema
    names = schema.names
    has_base = any(v.base_value is not None for v in vectors)
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(list(names) + ([BASE_COLUMN] if has_base else []))
    # Values and base are finite floats (``__post_init__``), whose repr never
    # needs quoting, so each row is its fields joined with commas, as
    # csv.writer would write them.
    for start in range(0, len(vectors), _CHUNK_VECTORS):
        lines = []
        for vector in vectors[start:start + _CHUNK_VECTORS]:
            if vector.schema.names != names:
                target.write("".join(lines))
                raise ValidationError("contribution vectors disagree on their schema")
            fields = vector.values
            if has_base:
                fields += (0.0 if vector.base_value is None else vector.base_value,)
            lines.append(",".join(map(repr, fields)) + "\n")
        target.write("".join(lines))
