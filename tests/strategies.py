"""Hypothesis strategies for schemas, tables, contribution vectors and
pipelines of all 14 transform kinds: the one place the tests decide which
kinds may follow a schema. Each feature, table, vector and step reads its
choices from one drawn byte string, a tenth of the cost of a draw a choice;
bytes shrink toward 0: a numeric feature, a present cell, the first kind.

- ``schemas(dtypes=None)``: observed features of ``dtypes``, or of 1-5 of
  ``DTYPES``; ``one_hot`` is a group of booleans, one TRUE in a table row.
- ``tables(schema, missing=0.1, min_rows=5, max_rows=25)``: valid rows, each
  cell MISSING with probability about ``missing``.
- ``pipelines(schema, kinds=TRANSFORM_KINDS, direction=None, ...)``: a step
  of each kind of ``first``, then 1-5 steps, each of a kind of ``kinds``
  whose inputs the schema before it offers and, with ``mappable``, that has
  a contribution rule in the direction. A kind that learns comes unfitted or
  fitted, its parameters configured as a fitted document holds them. When
  every kind of ``kinds`` can be exact (``EXACT_KINDS``), every step drawn
  is: a ``one_hot_decode`` then keeps ``zero_hot: error``.
- ``fitted_pipelines(schema=None, missing=0.1, ...)``: a pipeline fitted on
  a drawn table and run on it once, with the table. A draw that ``fit`` or
  the run rejects with a ``KernelError`` (a constant column to standardize,
  a MISSING cell in a PCA input) is assumed away and counted as the event
  ``rejected: fit <kind>`` (or ``run``) of ``--hypothesis-show-statistics``.
"""

from __future__ import annotations

from functools import partial
from itertools import count

from hypothesis import event, reject
from hypothesis import strategies as st

from featurespace.errors import KernelError
from featurespace.explain import ContributionVector
from featurespace.pipeline import DIRECTIONS, Pipeline, compose, fit, run
from featurespace.properties import PropertySet
from featurespace.schema import DerivedFrom, FeatureSpec, RawSource, SchemaManifest, Wording
from featurespace.table import MISSING, DataTable
from featurespace.transforms import EXACT_KINDS, KERNELS, TRANSFORM_KINDS, Kernel, TransformStep

BASE_PROPS = PropertySet(readable=True, model_compatible=True, meaningful=True)
DTYPES = ("numeric", "categorical", "boolean", "numeric", "ordinal", "one_hot")
# The kinds whose contributions cross a step in each direction.
MAPPABLE = {direction: tuple(kind for kind, kernel in KERNELS.items()
                             if getattr(type(kernel), rule) is not getattr(Kernel, rule))
            for direction, rule in (("to_interpretable", "forward_rule"),
                                    ("to_model_ready", "reverse_rule"))}
# The features a step of each kind may read; the other kinds read numbers.
_READS = {
    "one_hot_encode": lambda spec: spec.dtype == "categorical",
    "hierarchy_rollup": lambda spec: spec.categories is not None,
    "impute_flagged": lambda spec: True,
    "unrender_statement": lambda spec: spec.categories and spec.wording is None,  # statements
    "render_statement": lambda spec: spec.wording is not None and (
        spec.wording.value_phrase if spec.categories else spec.dtype == "boolean"
        and spec.wording.positive_statement and spec.wording.negative_statement),
    "link_raw": lambda spec: spec.raw_source is not None,
}


def _numeric(spec: FeatureSpec) -> bool:
    return spec.dtype == "numeric"


def _chooser(data: bytes):
    """``pick(options)``: the option that the next of the drawn bytes names;
    past their end, the first."""
    remaining = iter(data)
    return lambda options: options[next(remaining, 0) % len(options)]


def _some(pick, options) -> list:
    """1-3 items of ``options`` in a row."""
    start = pick(range(len(options)))
    return list(options[start:start + 1 + pick(range(3))])


@st.composite
def schemas(draw, dtypes=None):
    """Two bytes a feature: its dtype, unless ``dtypes`` gives them, and its
    options."""
    data = draw(st.binary(min_size=2, max_size=10) if dtypes is None
                else st.binary(min_size=2 * len(dtypes), max_size=2 * len(dtypes)))
    dtypes = dtypes or [DTYPES[b % len(DTYPES)] for b in data[:len(data) // 2]]
    features = []
    for i, (dtype, option) in enumerate(zip(dtypes, data[len(data) // 2:])):
        name, spec = f"col{i}", {"properties": BASE_PROPS, "observed": True}
        labels = tuple(f"k{j}" for j in range(2 + option % 4))
        if dtype == "numeric":
            source = RawSource(name, (0, option % 7)) if option % 7 else None
            features.append(FeatureSpec(name, dtype, unit="m" if option & 8 else None,
                                        raw_source=source, **spec))
        elif dtype == "boolean":
            wording = Wording(f"{name} is on", f"{name} is off")
            features.append(FeatureSpec(name, dtype, wording=wording, **spec))
        elif dtype == "one_hot":
            features += [FeatureSpec(f"{name} {label}", "boolean", **spec,
                                     derived_from=DerivedFrom((name,), "one_hot_encode"))
                         for label in labels]
        else:
            wording = Wording(value_phrase=f"{name} is {{value}}")
            features.append(FeatureSpec(name, dtype, categories=labels, wording=wording, **spec))
    return SchemaManifest(tuple(features))


def _groups(schema: SchemaManifest) -> dict[DerivedFrom, list[str]]:
    """The one-hot groups: the booleans that one ``one_hot_encode`` produced."""
    groups: dict[DerivedFrom, list[str]] = {}
    for spec in schema.features:
        if spec.dtype == "boolean" and spec.derived_from is not None \
                and spec.derived_from.formula == "one_hot_encode":
            groups.setdefault(spec.derived_from, []).append(spec.name)
    return groups


@st.composite
def tables(draw, schema, missing=0.1, min_rows=5, max_rows=25):
    """Two bytes a cell: its value, to which the row number is added, and in
    the second byte whether it is MISSING."""
    n, width = draw(st.integers(min_rows, max_rows)), len(schema.features)
    data = draw(st.binary(min_size=2 * n * width, max_size=2 * n * width))
    hot = {name: (names[0], k, len(names)) for names in _groups(schema).values()
           for k, name in enumerate(names)}
    rows = []
    for r in range(n):
        row, chosen = [], {}
        for c, spec in enumerate(schema.features):
            cell = data[2 * (r * width + c):2 * (r * width + c + 1)]
            absent = cell[1] >= 256 * (1 - missing)
            value = int.from_bytes(cell, "big", signed=True)
            if spec.name in hot:  # the group's first cell decides the row
                first, k, size = hot[spec.name]
                if k == 0:
                    chosen[first] = MISSING if absent else (value + r) % size
                row.append(chosen[first] if chosen[first] is MISSING else chosen[first] == k)
            elif absent:
                row.append(MISSING)
            elif spec.dtype == "numeric":
                number = value * 1000 / 2**15 + r
                row.append(round(number) if value % 3 == 0 else number)
            else:
                labels = spec.categories or (False, True)
                row.append(labels[(value + r) % len(labels)])
        rows.append(tuple(row))
    return DataTable(schema, tuple(rows))


@st.composite
def contributions(draw, schema, scale=1.0, special=(), bases=(None,)):
    """Three bytes a value: a number in [-scale, scale), or, for about one
    value in three, one of ``special``; then a byte for the base value."""
    width = len(schema.features)
    data = draw(st.binary(min_size=3 * width + 1, max_size=3 * width + 1))
    values = [special[cell[0] // 3 % len(special)] if special and cell[0] % 3 == 2
              else int.from_bytes(cell[1:], "big", signed=True) * scale / 2**15
              for cell in (data[i:i + 3] for i in range(0, 3 * width, 3))]
    return ContributionVector(schema, tuple(values), bases[data[-1] % len(bases)])


def _inputs(schema: SchemaManifest, provisional: set) -> dict[str, list]:
    """What a step of each kind may read: features, or one-hot groups. No
    step reads a group member alone, nor a ``provisional`` feature: the
    labels of a bin whose range ``fit`` learns change when it does."""
    groups = list(_groups(schema).values())
    skipped = provisional.union(*groups)
    readable = [spec for spec in schema.features if spec.name not in skipped]
    return {kind: groups if kind == "one_hot_decode" else
            list(filter(_READS.get(kind, _numeric), readable)) for kind in TRANSFORM_KINDS}


def _config(pick, kind: str, options: list, fresh, exact: bool) -> dict:
    """The config of a step of ``kind`` that reads one of ``options``, with
    its choices made by ``pick``; ``fresh()`` gives a name no feature has.
    With ``exact``, a kind that can be exact is."""
    if kind == "one_hot_decode":
        group, target = pick(options), fresh()
        return {"group": group, "target": target, "wording": {"value": f"{target} is {{value}}"},
                "categories": [f"{target} {k}" for k in range(len(group))],
                "zero_hot": "error" if exact else pick(("error", "missing"))}
    if kind in ("aggregate_numeric", "abstract_concept", "pca_project"):
        names = _some(pick, [spec.name for spec in options])
        if kind == "pca_project":
            components = 1 + pick(range(len(names)))
            config = {"inputs": names, "components": components,
                      "name_template": f"{fresh()} {{i}}"}
            if pick((False, True)):  # configured, as a fitted document holds them
                config["means"] = [pick((0.0, 12.5, -3.75, 41.3)) for _ in names]
                config["loadings"] = [[pick((1.0, -1.0, 0.5)) for _ in range(components)]
                                      for _ in names]
            return config
        expr = {"expr": " - ".join(f"`{name}` * 2" for name in names)}
        config = {"inputs": names, "target": fresh(), "keep_inputs": pick((False, True)),
                  "formula": pick(("sum", "mean", "euclidean_floor", expr))}
        if kind == "abstract_concept":  # a concept names its values
            config["labeling"] = {"boundaries": [0.0, 300.0], "labels": ["L", "M", "H"]}
        return config
    spec = pick(options)
    feature = spec.name
    if kind == "impute_flagged":
        strategy = pick(("constant", "forward_fill", "mean")[:3 if _numeric(spec) else 2])
        constant = pick(spec.categories or {"numeric": (0, -1.5)}.get(spec.dtype, (False, True)))
        return {"feature": feature, "strategy": strategy, "flag_name": fresh(),
                "constant": constant if strategy == "constant" else None}
    if kind == "link_raw":
        length = spec.raw_source.window[1] + pick(range(3))
        return {"feature": feature, "series": [float(i) for i in range(length)]}
    if kind in ("one_hot_encode", "render_statement"):
        return {"feature": feature}
    if kind == "unrender_statement":  # to labels that render as themselves
        return {"feature": feature, "target": fresh(), "restore": {
            "dtype": "categorical", "categories": list(spec.categories),
            "wording": {"value": "{value}"}}}
    config = {"feature": feature, "target": pick((feature, fresh()))}
    if kind in ("statistical_bin", "semantic_bin", "hierarchy_rollup"):
        config["keep_original"] = config["target"] != feature and pick((False, True))
        config["wording"] = {"value": f"{config['target']} is {{value}}"}
    if kind == "unstandardize" or kind == "standardize" and pick((False, True)):
        config["mean"], config["scale"] = pick((0.0, 12.5, -41.3)), pick((1.0, 0.5, 9.25, 0.83))
    elif kind == "statistical_bin":
        config["bins"] = pick((1, 2, 3, 4))
        if pick((False, True)):  # a configured range, which the data may leave
            config["min"], config["max"] = pick(((-1e9, 1e9), (-1e3, 1e3)))
    elif kind == "semantic_bin":
        config["boundaries"] = _some(pick, range(-500, 501, 50))
        config["labels"] = [f"{config['target']} {k}"
                            for k in range(len(config["boundaries"]) + 1)]
    elif kind == "hierarchy_rollup":
        config["mapping"] = {label: pick(("P", "Q")) for label in spec.categories}
    return config


@st.composite
def pipelines(draw, schema, kinds=TRANSFORM_KINDS, direction=None, mappable=False,
              min_steps=1, max_steps=5, first=()):
    # A byte for the direction, one for the number of steps, then 16 a step.
    data = draw(st.binary(min_size=2 + 16 * (len(first) + max_steps),
                          max_size=2 + 16 * (len(first) + max_steps)))
    direction = direction or DIRECTIONS[data[0] % 2]
    exact = set(kinds) <= set(EXACT_KINDS)
    if mappable:
        kinds = tuple(kind for kind in kinds if kind in MAPPABLE[direction])
    unused = (name for name in map("t{}".format, count()) if name not in schema)
    fresh = partial(next, unused)

    steps, current, provisional = [], schema, set()
    for i in range(len(first) + min_steps + data[1] % (max_steps - min_steps + 1)):
        inputs = _inputs(current, provisional)
        offered = {kind: inputs[kind] for kind in (first[i:i + 1] or kinds) if inputs[kind]}
        if not offered:
            break
        pick = _chooser(data[2 + 16 * i:2 + 16 * (i + 1)])
        kind = pick(tuple(offered))
        config = _config(pick, kind, offered[kind], fresh, exact)
        if kind == "statistical_bin" and "min" not in config:
            provisional.add(config["target"])
        # Composed on the schema before it, a step plans as in the whole
        # pipeline, and the last one gives the output schema its space.
        step = compose([TransformStep(kind, config)], current, direction)
        steps.append(step.steps[0])
        current = step.output_schema
    if len(steps) < len(first) + min_steps:
        reject()
    return Pipeline(tuple(steps), schema, direction, current)


@st.composite
def fitted_pipelines(draw, schema=None, missing=0.1, min_rows=5, max_rows=25, **options):
    schema = draw(schemas() if schema is None else schema)
    table = draw(tables(schema, missing, min_rows, max_rows))
    pipeline = draw(pipelines(schema, **options))
    call = "fit"
    try:
        fitted = fit(pipeline, table)
        call = "run"
        run(fitted, table)
    except KernelError as exc:
        kind = pipeline.steps[exc.step_number - 1].kind if exc.step_number else "?"
        event(f"rejected: {call} {kind}")
        reject()
    return fitted, table
