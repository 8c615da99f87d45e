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
expected and final schemas, the static partition audit and fidelity notes,
and one generated Python function that does the whole mapping of one vector.
A pipeline that cannot be mapped has no plan: compiling it raises its error,
naming the step, on every call and before any vector is looked at. Per
vector, mapping is the plan lookup, the alignment check and one call of that
function. The function carries the values across every step, adds the final
values in ``sum_in_order``'s order and builds the mapped vector with
``_vector``, the one check that a vector is finite, which keeps the total for
``conservation_check``.

The function is straight-line code that keeps each step's own summation
order: a copy is a local passed on, and a sum starts from 0.0 and adds one
term per statement. Folding the pipeline into one contribution matrix would
do less work, but a fused ``C @ M`` would reassociate the sums, so mapped
values, and the conservation deltas computed from them, would change in their
last bits. A sum written as one chained expression would keep the order too,
but the compiler recurses once per ``+``, so a chain over a few thousand terms
raises ``RecursionError``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields
from itertools import count
from math import isfinite
from pathlib import Path
from types import MappingProxyType
from typing import IO, Callable, Mapping, Sequence

from .errors import MappingError, ValidationError
from .pipeline import FittedPipeline, _in_step
from .schema import FeatureSpec, SchemaManifest, open_input
from .table import DataTable, write_table_csv
from .transforms import Rewrite, sum_in_order

CONSERVATION_TOLERANCE = 1e-9


def _builder(cls) -> Callable:
    """A function that takes the values of ``cls``'s fields in order and
    returns the instance, without ``__init__`` or ``__post_init__``: one slot
    setter call per field, in generated straight-line code. The caller
    vouches for the values."""
    names = [f.name for f in fields(cls)]
    args = [f"a{i}" for i in range(len(names))]
    namespace = {"new": object.__new__, "cls": cls}
    lines = [f"def build({', '.join(args)}):", "    self = new(cls)"]
    for i, (name, arg) in enumerate(zip(names, args)):
        namespace[f"set{i}"] = getattr(cls, name).__set__
        lines.append(f"    set{i}(self, {arg})")
    lines.append("    return self\n")
    exec(compile("\n".join(lines), f"<build {cls.__name__}>", "exec"), namespace)
    return namespace["build"]


@dataclass(frozen=True, slots=True)
class ContributionVector:
    """Per-feature additive explanation for one row, aligned to a schema.

    The values are finite floats, and so is the base value if given.
    ``total()`` is ``sum_in_order(values)``: it is computed once, by the pass
    that proves the values finite, and kept in ``_total``, a field that is no
    ``__init__`` argument and that ``==``, ``hash`` and ``repr`` ignore. The
    values may be finite while their total is not."""

    schema: SchemaManifest
    values: tuple[float, ...]
    base_value: float | None = None
    _total: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = tuple(map(float, self.values))
        object.__setattr__(self, "values", values)
        if len(values) != len(self.schema.features):
            raise ValidationError(
                f"contribution vector has {len(values)} values for "
                f"{len(self.schema.features)} features")
        total = sum_in_order(values)
        if not isfinite(total):
            for name, value in zip(self.schema.names, values):
                if not isfinite(value):
                    raise ValidationError(f"contribution for {name!r} is not finite: {value!r}")
        object.__setattr__(self, "_total", total)
        if self.base_value is not None:
            base = float(self.base_value)
            if not isfinite(base):
                raise ValidationError(f"base value is not finite: {self.base_value!r}")
            object.__setattr__(self, "base_value", base)

    def total(self) -> float:
        return self._total


_new_vector = _builder(ContributionVector)


def _vector(schema: SchemaManifest, values: tuple[float, ...], base: float | None,
            total: float) -> ContributionVector:
    """``ContributionVector(schema, values, base)`` for ``values`` a tuple of
    floats of the schema's width, ``total`` their ``sum_in_order`` and
    ``base`` a float or None. A finite total proves every value finite (an
    infinity or a NaN among the terms makes the total one too), so with a
    finite base the constructor's float pass is skipped and ``total`` kept.
    Otherwise the constructor runs: it raises its own error, or builds the
    vector when only the total overflowed."""
    if isfinite(total) and (base is None or isfinite(base)):
        return _new_vector(schema, values, base, total)
    return ContributionVector(schema, values, base)


@dataclass(frozen=True, slots=True)
class MappedContributions:
    """A mapped vector, with the plan's fidelity notes and partition audit.
    ``exposed_flags`` holds each exposed imputation flag's contribution,
    which the vector does not carry; it is a new dict on each call."""

    vector: ContributionVector
    fidelity_notes: tuple[str, ...]
    exposed_flags: Mapping[str, float] = field(default_factory=dict)
    partition_audit: tuple[tuple[int, Mapping[str, int]], ...] = ()


_new_mapped = _builder(MappedContributions)


@dataclass(frozen=True, slots=True)
class ConservationResult:
    """``checkable`` is False when a total is not finite: the delta and
    tolerance then say nothing, and the check does not pass."""

    passed: bool
    delta: float
    tolerance: float
    checkable: bool = True


_new_result = _builder(ConservationResult)


def conservation_check(before: ContributionVector,
                       after: ContributionVector,
                       extra_after: float = 0.0) -> ConservationResult:
    """Pass iff the total contribution is preserved within a relative 1e-9.

    ``extra_after`` accounts for contributions carried outside the vector
    (exposed imputation flags). The totals are the ones each vector keeps
    (``ContributionVector.total``); when the total before or after mapping
    is not finite, the check is not ``checkable`` and does not pass.
    """
    total_before = before._total
    total_after = after._total + extra_after
    delta = abs(total_before - total_after)
    scale = abs(total_before)  # max(1.0, scale), NaN included
    tolerance = CONSERVATION_TOLERANCE * (scale if scale > 1.0 else 1.0)
    checkable = isfinite(total_before) and isfinite(total_after)
    return _new_result(checkable and delta <= tolerance, delta, tolerance, checkable)


# ---------------------------------------------------------------------------
# compiled plans

@dataclass(frozen=True)
class MappingPlan:
    """Everything about mapping through one fitted pipeline that does not
    depend on a vector's values. Only a pipeline that can be mapped has one.

    ``function(vector)`` takes a ``ContributionVector`` aligned to
    ``expected`` and returns its ``MappedContributions``: the final vector
    with the input's base value, the plan's notes and audit, and a new dict
    of each exposed flag's contribution. It raises ``ValidationError`` when a
    mapped value is not finite. ``source`` is its text: unrolled statements,
    one per term of each sum, over locals that hold the slots' values, then
    one addition per final value for the total and the one ``return``, of
    the result. Flag names, weights, the final schema, the notes, the audit
    and the builders are bound in the function's namespace, so the text holds
    no feature name or number from the pipeline."""

    expected: SchemaManifest
    final: SchemaManifest
    function: Callable[[ContributionVector], MappedContributions]
    source: str = field(repr=False)
    fidelity_notes: tuple[str, ...] = ()
    partition_audit: tuple[tuple[int, Mapping[str, int]], ...] = ()


class _Source:
    """The text of a generated mapping function and the namespace it runs in.
    Locals ``a0, a1, ...`` each hold one value; ``inputs`` are the ones that
    hold the input vector's."""

    def __init__(self, width: int):
        self.inputs = [f"a{i}" for i in range(width)]
        self.numbers = count(width)
        self.lines = ["def _map(v):"]
        if width:
            self.statement("".join(f"{name}, " for name in self.inputs) + "= v.values")
        self.statement("x = new_dict()")
        self.namespace: dict = {"__builtins__": {}, "new_dict": dict, "vector": _vector,
                                "new_mapped": _new_mapped}

    def statement(self, text: str) -> None:
        self.lines.append("    " + text)

    def local(self, expression: str) -> str:
        name = f"a{next(self.numbers)}"
        self.statement(f"{name} = {expression}")
        return name

    def bind(self, prefix: str, value) -> str:
        name = f"_{prefix}{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def function(self, held: Sequence[str], final: SchemaManifest,
                 notes: tuple[str, ...], audit: tuple) -> tuple[Callable, str]:
        # The total makes sum_in_order's additions, so it keeps their bits.
        self.statement("c = (" + "".join(f"{name}, " for name in held) + ")")
        self.statement("t = 0")
        for name in held:
            self.statement(f"t += {name}")
        self.namespace.update(final=final, notes=notes, audit=audit)
        self.statement("return new_mapped(vector(final, c, v.base_value, t), notes, x, audit)")
        source = "\n".join(self.lines) + "\n"
        # The text holds only generated identifiers and the constants 0 and 0.0.
        exec(compile(source, "<mapping plan>", "exec"), self.namespace)
        return self.namespace["_map"], source


def _compile_step(rewrite: Rewrite, near: SchemaManifest, far: SchemaManifest,
                  held: list[str], code: _Source) -> tuple[list[str], dict[str, int]]:
    """Writes to ``code`` the statements that carry a vector from ``near``
    (the vector before the step, whose values are in the locals ``held``) to
    ``far``; returns the locals that hold the far-side values and each
    near-side feature's consumption count."""
    slot = {name: i for i, name in enumerate(near.names)}
    counts = dict.fromkeys(near.names, 0)
    for name in rewrite.consumed:
        counts[name] += 1
    for flag in rewrite.exposed:
        key = code.bind("f", flag)
        code.statement(f"x[{key}] = x.get({key}, 0.0) + {held[slot[flag]]}")
    out = []
    for name in far.names:
        op = rewrite.ops.get(name)
        if op is None:
            if name not in slot:
                raise MappingError(f"feature {name!r} appeared without a mapping rule")
            counts[name] += 1
            op = ("copy", name)
        tag = op[0]
        if tag == "copy":
            out.append(held[slot[op[1]]])
        elif tag == "add":
            out.append(code.local(f"{held[slot[op[1]]]} + {held[slot[op[2]]]}"))
        else:
            total = code.local("0.0")
            if tag == "sum":
                for n in op[1]:
                    code.statement(f"{total} += {held[slot[n]]}")
            else:
                for n, weight in op[1]:
                    code.statement(f"{total} += {held[slot[n]]} * {code.bind('w', weight)}")
            out.append(total)
    return out, counts


def _compile(fitted: FittedPipeline, expose_flags: bool) -> MappingPlan:
    numbered = tuple(enumerate(fitted.steps, start=1))
    forward = fitted.direction == "to_interpretable"
    if forward:
        expected, final, order = fitted.input_schema, fitted.output_schema, numbered
    else:
        expected, final = fitted.output_schema, fitted.input_schema
        order = tuple(reversed(numbered))
    code = _Source(len(expected.names))
    held = code.inputs
    notes, audit = [], []
    for number, fstep in order:
        try:
            if forward:
                rewrite = fstep.kernel.forward_rule(fstep, expose_flags)
                near, far = fstep.input_schema, fstep.output_schema
            else:
                rewrite = fstep.kernel.reverse_rule(fstep, expose_flags)
                near, far = fstep.output_schema, fstep.input_schema
            if rewrite is None:
                raise MappingError(
                    "no contribution rule in the forward direction; map against the "
                    "pipeline that produced the model-ready schema instead"
                    if forward else "no contribution rule in the reverse direction")
            held, counts = _compile_step(rewrite, near, far, held, code)
            bad = {name: c for name, c in counts.items() if c != 1}
            if bad:
                raise MappingError(f"contribution partition violated (consumption counts {bad})")
        except ValidationError as exc:  # the one naming of the step that cannot be mapped
            raise type(exc)(_in_step(number, fstep.step.kind, exc)) from None
        if rewrite.note is not None:
            notes.append(rewrite.note)
        audit.append((number, MappingProxyType(counts)))
    notes, audit = tuple(notes), tuple(audit)
    function, source = code.function(held, final, notes, audit)
    return MappingPlan(expected, final, function, source, notes, audit)


def mapping_plan(fitted: FittedPipeline, expose_flags: bool = False) -> MappingPlan:
    """The compiled plan for ``fitted``, built on first use and kept on the
    fitted pipeline (which is immutable) for later calls. A pipeline that
    cannot be mapped raises its error, naming the step, and keeps nothing, so
    every call raises it anew."""
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
    passes through unchanged. The plan lookup raises the error of a pipeline
    that cannot be mapped, before the vector's alignment is checked; after
    the alignment check, the plan's ``function`` does all the work, in one
    call.
    """
    # mapping_plan's cache read inline, as this runs once per vector
    plan = (fitted.mapping_plans.get(True if expose_flags else False)
            or mapping_plan(fitted, expose_flags))
    names, expected = contrib.schema.names, plan.expected.names
    if names is not expected and names != expected:
        raise MappingError(
            "contribution vector does not align with the pipeline's model-ready "
            f"schema: got {list(names)}, expected {list(expected)}")
    return plan.function(contrib)


@dataclass(frozen=True)
class MappedBatch:
    """What ``map_batch`` gives, row by row: each mapped vector, the
    contributions of its exposed flags and its conservation check. The rows
    end with ``failed_row``, the first whose check does not pass, or with
    the last vector when ``failed_row`` is None."""

    vectors: tuple[ContributionVector, ...]
    exposed_flags: tuple[Mapping[str, float], ...]
    checks: tuple[ConservationResult, ...]
    failed_row: int | None


def map_batch(fitted: FittedPipeline, vectors: Sequence[ContributionVector],
              expose_flags: bool = False) -> MappedBatch:
    """Map each vector with ``map_contributions`` and check that it keeps
    its total (``conservation_check``, the exposed flags' contributions
    counted as carried outside the vector), stopping at the first row whose
    check does not pass. An error of mapping propagates as it is raised."""
    mapped, flags, checks = [], [], []
    failed = None
    for r, vector in enumerate(vectors):
        result = map_contributions(fitted, vector, expose_flags)
        extra = sum_in_order(result.exposed_flags.values())
        check = conservation_check(vector, result.vector, extra_after=extra)
        mapped.append(result.vector)
        flags.append(result.exposed_flags)
        checks.append(check)
        if not check.passed:
            failed = r
            break
    return MappedBatch(tuple(mapped), tuple(flags), tuple(checks), failed)


# ---------------------------------------------------------------------------
# contribution CSV: header is the schema's feature names, plus an optional
# trailing __base__ column; one row per explained instance. Values are written
# as a numeric table (``repr`` of each float), so there is one CSV writer.

BASE_COLUMN = "__base__"


def read_contributions(source: str | Path | IO[str],
                       schema: SchemaManifest) -> list[ContributionVector]:
    """The vectors in a contribution CSV file or handle. With one column or
    more, an empty last line (a blank line before the end of the file) is not
    a row."""
    with open_input(source, "contributions") as handle:
        reader = csv.reader(handle)
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
        expected = len(names) + (1 if has_base else 0)
        for r, raw in enumerate(reader):
            if len(raw) != expected:
                if not raw and next(reader, None) is None:
                    break
                raise ValidationError(f"contribution row {r}: expected {expected} fields")
            try:
                numbers = tuple(map(float, raw))
            except ValueError as exc:
                raise ValidationError(f"contribution row {r}: {exc}") from None
            values, base = (numbers[:-1], numbers[-1]) if has_base else (numbers, None)
            try:
                vectors.append(_vector(schema, values, base, sum_in_order(values)))
            except ValidationError as exc:
                raise ValidationError(f"contribution row {r}: {exc}") from None
    return vectors


def write_contributions(vectors: Sequence[ContributionVector],
                        target: str | Path | IO[str]) -> None:
    """Write the vectors as a contribution CSV with ``write_table_csv``. They
    must be there and share one schema, with no ``__base__`` feature when a
    vector has a base; a path is replaced only once the whole CSV is written."""
    if not vectors:
        raise ValidationError("no contribution vectors to write")
    names = vectors[0].schema.names
    if any(vector.schema.names != names for vector in vectors):
        raise ValidationError("contribution vectors disagree on their schema")
    columns = [list(column) for column in zip(*(vector.values for vector in vectors))]
    if any(vector.base_value is not None for vector in vectors):
        names += (BASE_COLUMN,)
        columns.append([0.0 if v.base_value is None else v.base_value for v in vectors])
    schema = SchemaManifest(tuple(FeatureSpec(name, "numeric") for name in names))
    write_table_csv(DataTable.from_columns(schema, columns, len(vectors), ()), target)
