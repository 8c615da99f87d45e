"""Column-at-a-time paths against cell-at-a-time references kept here: the
table and contribution CSV writers against ``csv.writer``, the numeric column parse against
``parse_cell``, PCA projection against a left-to-right Python loop (bit for
bit), statistical binning against a row scan, the built-in formulas of
``aggregate_numeric`` and ``abstract_concept`` against their row function
(bit for bit, error for error), and the left-to-right float sum against a
Python loop."""

from __future__ import annotations

import bisect
import csv
import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from featurespace.errors import KernelError, ValidationError
from featurespace.explain import ContributionVector, write_contributions
from featurespace.pipeline import FittedStep, as_fitted, compose
from featurespace.properties import PropertySet
from featurespace.schema import FeatureSpec, SchemaManifest
from featurespace.table import (
    MISSING,
    DataTable,
    parse_cell,
    read_table_csv,
    render_cell,
    write_table_csv,
)
from featurespace.transforms import KERNELS, TransformStep, _formula_function, sum_in_order

PROPS = PropertySet(readable=True, model_compatible=True, meaningful=True)
PROPERTY_SETTINGS = settings(max_examples=200, deadline=None)


def _schema(*specs: FeatureSpec) -> SchemaManifest:
    return SchemaManifest(features=specs, space_tag="original")


def _numeric(name: str) -> FeatureSpec:
    return FeatureSpec(name, "numeric", properties=PROPS, observed=True)


def _fitted_step(kind: str, config: dict, schema: SchemaManifest) -> FittedStep:
    """The one step of a parameter-complete pipeline over ``schema``; its
    ``prepared`` is what the kernel's ``apply`` reads."""
    return as_fitted(compose([TransformStep(kind, config)], schema, "to_model_ready")).steps[0]


# ---------------------------------------------------------------------------
# write_table_csv

def reference_csv(table: DataTable, display_formats=None) -> str:
    """One ``csv.writer`` row per table row, each cell through ``render_cell``."""
    formats = display_formats or {}
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(table.schema.names)
    for row in table.rows:
        writer.writerow([render_cell(cell, formats.get(name))
                         for cell, name in zip(row, table.schema.names)])
    return out.getvalue()


SPECIAL = st.text(alphabet=["a", ",", '"', "\n", "\r", " ", "\t", "é", "'"],
                  min_size=1, max_size=4)
NUMBERS = st.one_of(st.integers(min_value=-10**20, max_value=10**20),
                    st.floats(allow_nan=False, allow_infinity=False))
# Formatted numeric columns are the only ones the writer scans for characters
# to quote: a fill character can be any, as in the last three.
FORMATS = st.sampled_from([None, ",", ".3f", ",.2f", "+.3g", '"<8', ",>9.2f", "\n^7"])


@st.composite
def tables(draw):
    """A table of 0-4 columns of every dtype and 0-6 rows, labels and names
    full of the characters csv quotes, and a display format per numeric column."""
    n_cols = draw(st.integers(0, 4))
    n_rows = draw(st.integers(0, 6))
    names = draw(st.lists(SPECIAL, min_size=n_cols, max_size=n_cols, unique=True))
    specs, columns, formats = [], [], {}
    for name in names:
        dtype = draw(st.sampled_from(["numeric", "boolean", "categorical"]))
        if dtype == "numeric":
            spec = _numeric(name)
            cells = st.one_of(NUMBERS, st.just(MISSING))
            fmt = draw(FORMATS)
            if fmt is not None:
                formats[name] = fmt
        elif dtype == "boolean":
            spec = FeatureSpec(name, "boolean", properties=PROPS, observed=True)
            cells = st.sampled_from([True, False, MISSING])
        else:
            labels = draw(st.lists(SPECIAL, min_size=1, max_size=4, unique=True))
            spec = FeatureSpec(name, "categorical", categories=tuple(labels),
                               properties=PROPS, observed=True)
            cells = st.sampled_from([*labels, MISSING])
        specs.append(spec)
        columns.append(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)))
    table = DataTable.from_columns(_schema(*specs), columns, n_rows)
    return table, formats


@PROPERTY_SETTINGS
@given(tables())
def test_write_table_csv_matches_csv_writer(case):
    table, formats = case
    out = io.StringIO()
    write_table_csv(table, out, formats)
    assert out.getvalue() == reference_csv(table, formats)


@pytest.mark.parametrize("cells", [
    [MISSING, "a", MISSING],           # one column: an empty cell is written ""
    ["\r", "a\rb", "\r\n", "a,b", 'a"b', "a\nb"],
])
def test_one_column_csv_matches_csv_writer(cells):
    labels = sorted({c for c in cells if c is not MISSING})
    spec = FeatureSpec("x", "categorical", categories=tuple(labels), properties=PROPS)
    table = DataTable.from_columns(_schema(spec), [cells], len(cells))
    out = io.StringIO()
    write_table_csv(table, out)
    assert out.getvalue() == reference_csv(table)


def test_chunked_csv_matches_csv_writer():
    rows = 10_000  # more than one chunk of lines
    label = FeatureSpec("label", "categorical", categories=("a,b", "c"), properties=PROPS)
    table = DataTable.from_columns(
        _schema(_numeric("n"), label),
        [[r * 0.5 for r in range(rows)], ["a,b" if r % 3 else "c" for r in range(rows)]], rows)
    out = io.StringIO()
    write_table_csv(table, out)
    assert out.getvalue() == reference_csv(table)


def reference_contributions_csv(vectors) -> str:
    """Each vector's values, and its base value if any vector has one, as a
    list of reprs through ``csv.writer``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    has_base = any(v.base_value is not None for v in vectors)
    writer.writerow(list(vectors[0].schema.names) + (["__base__"] if has_base else []))
    for vector in vectors:
        row = [repr(v) for v in vector.values]
        if has_base:
            row.append(repr(vector.base_value if vector.base_value is not None else 0.0))
        writer.writerow(row)
    return out.getvalue()


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# A Python caller may pass any finite number as the base value.
BASE_VALUES = st.one_of(st.none(), FINITE, st.integers(-2**70, 2**70),
                        st.fractions(min_value=-10**6, max_value=10**6))


@st.composite
def contribution_vectors(draw):
    schema = _schema(*map(_numeric, draw(st.lists(SPECIAL, max_size=3, unique=True))))
    width = len(schema.features)
    return [ContributionVector(schema, tuple(draw(st.lists(FINITE, min_size=width,
                                                           max_size=width))),
                               draw(BASE_VALUES))
            for _ in range(draw(st.integers(1, 5)))]


@PROPERTY_SETTINGS
@given(contribution_vectors())
def test_write_contributions_matches_csv_writer(vectors):
    out = io.StringIO()
    write_contributions(vectors, out)
    assert out.getvalue() == reference_contributions_csv(vectors)


def test_base_value_is_stored_and_written_as_a_float():
    schema = _schema(_numeric("a"))
    vectors = [ContributionVector(schema, (1.0,), Fraction(1, 2)),
               ContributionVector(schema, (2.0,), 3)]
    assert [v.base_value for v in vectors] == [0.5, 3.0]
    out = io.StringIO()
    write_contributions(vectors, out)
    assert out.getvalue() == "a,__base__\n1.0,0.5\n2.0,3.0\n"


def test_write_contributions_rejects_a_vector_of_another_schema():
    first, other = _schema(_numeric("a")), _schema(_numeric("b"))
    vectors = [ContributionVector(first, (1.0,)), ContributionVector(first, (2.0,)),
               ContributionVector(other, (3.0,))]
    out = io.StringIO()
    with pytest.raises(ValidationError, match="disagree on their schema"):
        write_contributions(vectors, out)
    assert out.getvalue() == ""  # checked before anything is written


# ---------------------------------------------------------------------------
# numeric column parse

NUMBER_TEXTS = st.one_of(
    st.sampled_from(["+5", "-0", " 5", "5 ", "1_0", "٣", "", "+", "-", "1-2",
                     "+-5", "007", "0", str(2**63), str(-2**63 - 1), str(10**30),
                     "1e3", "-0.0", "inf", "nan", "abc"]),
    st.integers().map(str),
    st.text(alphabet="0123456789+-", max_size=4),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)


def _per_cell(texts: list[str], spec: FeatureSpec):
    """Parsed cells, or the message of the first cell ``parse_cell`` rejects."""
    cells = []
    for r, text in enumerate(texts):
        try:
            cells.append(parse_cell(text, spec))
        except ValidationError as exc:
            return f"row {r}: {exc}"
    return cells


@PROPERTY_SETTINGS
@given(st.lists(NUMBER_TEXTS, max_size=8))
@example(["1", "+5", "-0", str(2**64)])     # every cell an int literal
@example(["1", ""])                          # a MISSING cell
@example(["1", "1_0"])                       # int() takes it; parse_cell reads 10.0
@example(["٣", "2"])                    # a non-ASCII decimal digit
@example(["5", "+"])                         # digits and signs that are not ints
def test_numeric_column_parse_matches_parse_cell(texts):
    spec = _numeric("n")
    schema = _schema(spec, FeatureSpec("k", "categorical", categories=("x",),
                                       properties=PROPS))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(schema.names)
    writer.writerows([text, "x"] for text in texts)
    expected = _per_cell(texts, spec)
    try:
        table = read_table_csv(io.StringIO(out.getvalue()), schema)
    except ValidationError as exc:
        assert str(exc) == expected
        return
    parsed = table.columns[0]
    assert [(type(v), repr(v)) for v in parsed] == [(type(v), repr(v)) for v in expected]


# ---------------------------------------------------------------------------
# PcaProject.apply

def reference_projection(columns, means, loadings, components):
    """Each cell 0.0 plus centered value times loading, input by input."""
    projected = []
    for k in range(components):
        column = []
        for row in zip(*columns):
            total = 0.0
            for value, mean, weights in zip(row, means, loadings):
                total += (value - mean) * weights[k]
            column.append(total)
        projected.append(column)
    return projected


def _bits(column) -> list[int]:
    return np.array(column, dtype=float).view(np.uint64).tolist()


PCA_VALUES = st.one_of(
    st.integers(min_value=-2**60, max_value=2**60),
    st.sampled_from([2**53 + 1, -(2**53) - 1, 2**60 + 3, 0, -0.0, 0.0, 1e12, -1e12]),
    st.floats(min_value=-1e12, max_value=1e12),
)
PCA_WEIGHTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                        st.floats(min_value=-1.0, max_value=1.0))


@st.composite
def pca_cases(draw):
    n_inputs = draw(st.integers(1, 4))
    components = draw(st.integers(1, n_inputs))
    n_rows = draw(st.integers(0, 10))
    columns = [draw(st.lists(PCA_VALUES, min_size=n_rows, max_size=n_rows))
               for _ in range(n_inputs)]
    means = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1e12, -1e12]),
                                    st.floats(min_value=-1e12, max_value=1e12)),
                          min_size=n_inputs, max_size=n_inputs))
    loadings = [draw(st.lists(PCA_WEIGHTS, min_size=components, max_size=components))
                for _ in range(n_inputs)]
    return columns, means, loadings, components


@PROPERTY_SETTINGS
@given(pca_cases())
@example(([[0.0, 1.0]], [0.0], [[-1.0]], 1))            # 0.0 * -1.0 is -0.0
@example(([[0, 0], [0, 0]], [0.0, 0.0], [[-0.0], [-0.0]], 1))
@example(([[2**53 + 1], [1e12]], [1.0, -1e12], [[1.0], [1.0]], 1))
def test_pca_apply_matches_left_to_right_loop(case):
    columns, means, loadings, components = case
    names = tuple(f"x{i}" for i in range(len(columns)))
    schema = _schema(*map(_numeric, names))
    table = DataTable.from_columns(schema, columns, len(columns[0]))
    fstep = _fitted_step("pca_project", {"inputs": list(names), "components": components,
                                         "means": means, "loadings": loadings}, schema)
    cfg = fstep.config
    projected, _ = KERNELS["pca_project"].apply(table, fstep.prepared)
    expected = reference_projection(columns, cfg["means"], cfg["loadings"], components)
    assert [type(v) for c in projected for v in c] == [float] * (components * table.num_rows)
    assert list(map(_bits, projected)) == list(map(_bits, expected))


def test_pca_apply_names_the_first_missing_row():
    schema = _schema(_numeric("a"), _numeric("b"))
    table = DataTable.from_columns(schema, [[1, 2, MISSING], [1, MISSING, 3]], 3)
    fstep = _fitted_step("pca_project", {"inputs": ["a", "b"], "components": 1,
                                         "means": [0, 0], "loadings": [[1], [0]]}, schema)
    with pytest.raises(KernelError, match="row 1: MISSING value in PCA inputs") as info:
        KERNELS["pca_project"].apply(table, fstep.prepared)
    assert info.value.row_index == 1


# ---------------------------------------------------------------------------
# StatisticalBin

def reference_bins(values, cfg, categories):
    """The row scan: the first value outside [min, max] fails, then each value
    takes the last edge at or below it, clamped to the bins."""
    lo, hi, bins = cfg["min"], cfg["max"], cfg["bins"]
    for r, value in enumerate(values):
        if value is not MISSING and (value < lo or value > hi):
            return r
    edges = [lo + i * (hi - lo) / bins for i in range(bins + 1)]
    return [MISSING if v is MISSING
            else categories[min(max(bisect.bisect_right(edges, v) - 1, 0), bins - 1)]
            for v in values]


@st.composite
def bin_cases(draw):
    lo = draw(st.one_of(st.integers(-1000, 1000),
                        st.floats(min_value=-1e6, max_value=1e6)))
    width = draw(st.one_of(st.integers(1, 1000), st.floats(min_value=1e-9, max_value=1e6)))
    hi = lo + width
    if not hi > lo:
        hi = lo + 1
    bins = draw(st.integers(1, 7))
    edges = [lo + i * (hi - lo) / bins for i in range(bins + 1)]
    inside = st.one_of(st.sampled_from([lo, hi, *edges]), st.floats(min_value=lo, max_value=hi))
    outside = st.sampled_from([lo - 1, hi + 1, lo - 1e-9 * abs(lo) - 1e-9, hi * 2 + 1])
    value = st.one_of(inside, inside, inside, outside, st.just(MISSING))
    return lo, hi, bins, draw(st.lists(value, max_size=12))


@PROPERTY_SETTINGS
@given(bin_cases())
@example((0, 3, 3, [0, 1, 2, 3, MISSING]))             # min, every edge, max
@example((0.0, 1.0, 3, [1 / 3, 2 / 3, 1.0, 0.0]))
@example((0, 3, 3, [1, MISSING, 4, -1]))               # row 2 is the first bad row
def test_statistical_bin_matches_row_scan(case):
    lo, hi, bins, values = case
    schema = _schema(_numeric("v"))
    table = DataTable.from_columns(schema, [values], len(values))
    kernel = KERNELS["statistical_bin"]
    fstep = _fitted_step("statistical_bin", {"feature": "v", "bins": bins, "min": lo, "max": hi},
                         schema)
    cfg = fstep.config
    categories = fstep.output_schema.feature("v").categories
    expected = reference_bins(values, cfg, categories)
    if isinstance(expected, int):
        with pytest.raises(KernelError, match=f"^row {expected}: value ") as info:
            kernel.apply(table, fstep.prepared)
        assert info.value.row_index == expected
        return
    columns, _ = kernel.apply(table, fstep.prepared)
    assert columns == [expected]


# ---------------------------------------------------------------------------
# built-in formulas of aggregate_numeric and abstract_concept

def reference_formula(formula, inputs, columns, labeling=None):
    """The row loop over ``_formula_function``: MISSING where a row has a
    MISSING input, each other row's result (named by ``labeling``, when
    given), and the first row whose result overflows named in the error."""
    on_row = _formula_function(formula, inputs)
    column = []
    for r, values in enumerate(zip(*columns)):
        if MISSING in values:
            column.append(MISSING)
            continue
        try:
            value = on_row(values)
        except OverflowError as exc:
            raise KernelError(f"row {r}: {exc}", row_index=r) from None
        if labeling is not None:
            value = labeling["labels"][bisect.bisect_right(labeling["boundaries"], value)]
        column.append(value)
    return column


def _exact(column) -> list[str]:
    """Each cell's type and exact value: ``float.hex`` keeps the sign of a zero."""
    return [f"{type(v).__name__} {v.hex() if isinstance(v, float) else repr(v)}"
            for v in column]


def _outcome(compute):
    try:
        return _exact(compute())
    except KernelError as exc:
        return str(exc), exc.row_index


# Integers past 2**53 add exactly; their squares, and float squares past
# 1e154, leave the float range, so euclidean_floor overflows. Sums of the
# sampled floats depend on the order of the additions.
FORMULA_CELLS = st.one_of(st.integers(min_value=-2**1023, max_value=2**1023),
                          st.integers(min_value=-10, max_value=10),
                          st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from([1e16, -1e16, 1.0, 0.1, -0.0]))
LABELING = {"boundaries": [-1.0, 0.0, 1e6], "labels": ["a", "b", "c", "d"]}


@st.composite
def formula_cases(draw):
    kind = draw(st.sampled_from(["aggregate_numeric", "abstract_concept"]))
    formula = draw(st.sampled_from(["sum", "mean", "euclidean_floor"]))
    labeled = kind == "abstract_concept" and draw(st.booleans())
    n_inputs, n_rows = draw(st.integers(1, 3)), draw(st.integers(0, 6))
    cells = FORMULA_CELLS | st.just(MISSING) if draw(st.booleans()) else FORMULA_CELLS
    columns = [draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
               for _ in range(n_inputs)]
    return kind, formula, labeled, columns


@PROPERTY_SETTINGS
@given(formula_cases())
@example(("aggregate_numeric", "sum", False, [[-0.0, 0.0], [-0.0, -0.0]]))
@example(("aggregate_numeric", "mean", False, [[-0.0], [-0.0]]))
@example(("aggregate_numeric", "sum", False, [[2**53, 2**60 + 1], [1, 0.5]]))
@example(("aggregate_numeric", "sum", False, [[1e16], [-1e16], [1.0]]))  # 1.0 in this order
@example(("aggregate_numeric", "sum", False, [[1e308], [1e308]]))  # inf, no error here
@example(("aggregate_numeric", "euclidean_floor", False, [[3, 1e200], [4, 0]]))
@example(("abstract_concept", "euclidean_floor", True, [[MISSING, 1e200], [1, 2]]))
@example(("abstract_concept", "euclidean_floor", False, [[1e200, MISSING], [1, 2]]))
@example(("aggregate_numeric", "euclidean_floor", False, [[2**600]]))  # int beyond floats
@example(("abstract_concept", "mean", True, [[1, MISSING, -7.5], [2, 3, 1e7]]))
def test_formula_columns_match_the_row_function(case):
    kind, formula, labeled, columns = case
    names = [f"x{i}" for i in range(len(columns))]
    schema = _schema(*map(_numeric, names))
    table = DataTable.from_columns(schema, columns, len(columns[0]))
    config = {"inputs": names, "formula": formula, "target": "t"}
    if labeled:
        config["labeling"] = LABELING
    fstep = _fitted_step(kind, config, schema)
    got = _outcome(lambda: KERNELS[kind].apply(table, fstep.prepared)[0][0])
    expected = _outcome(lambda: reference_formula(formula, tuple(names), columns,
                                                  LABELING if labeled else None))
    assert got == expected


# ---------------------------------------------------------------------------
# float sums

def _left_to_right(values):
    total = 0
    for value in values:
        total = total + value
    return total


CANCELLING = [1e16, 1.0, -1e16]  # 0.0 left to right; 1.0 with compensation


@given(values=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                 st.integers(min_value=-2**70, max_value=2**70))))
@example(values=CANCELLING)
@example(values=[-0.0])
@example(values=[2**63, 1.5, 2**64 + 1])
def test_sum_in_order_is_left_to_right(values):
    assert repr(sum_in_order(values)) == repr(_left_to_right(values))


def test_float_accumulations_add_left_to_right():
    """Each float accumulation in the package gives the left-to-right result
    on a column where compensated summation (``sum()`` from 3.12) differs."""
    names = ("a", "b", "c")
    schema = _schema(*map(_numeric, names))
    column = DataTable.from_columns(_schema(_numeric("v")), [CANCELLING], 3)
    fit = KERNELS["standardize"].fit(column, {"feature": "v"})
    assert fit == {"mean": 0.0,
                   "scale": math.sqrt(_left_to_right(v * v for v in CANCELLING) / 3)}
    assert KERNELS["impute_flagged"].fit(column, {"feature": "v"}) == {"mean": 0.0}
    row = DataTable.from_columns(schema, [[v] for v in CANCELLING], 1)
    for formula in ("sum", "mean"):
        fstep = _fitted_step("aggregate_numeric", {"inputs": list(names), "formula": formula,
                                                   "target": "t"}, schema)
        assert KERNELS["aggregate_numeric"].apply(row, fstep.prepared)[0] == [[0.0]]
    assert ContributionVector(schema, tuple(CANCELLING)).total() == 0.0
