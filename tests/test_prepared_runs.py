"""A fitted step prepares what its runs read once, and every run shares it.

These tests pin what that must not change: a row's output and lineage do not
depend on which rows share its batch (ROADMAP aim 3), runs of different
pipelines in one process do not see each other's state, and nothing a run or
call returns can change a later run.
"""

from __future__ import annotations

import copy
import io
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featurespace.lineage import Imputed, lineage_to_data
from featurespace.pipeline import FittedPipeline, as_fitted, load_fitted, run
from featurespace.table import read_table_csv, write_table_csv
from featurespace.transforms import KERNELS

from _generators import random_exact_pipeline, random_schema, random_table

DATA = Path(__file__).parent / "data"
ROWS = DATA / "covertype_300.csv"
# Each fitted document over the 300 rows: both demos, and the pipeline that
# learns a parameter of every learned kind. No step imputes by forward fill,
# the one batch-scoped strategy.
DOCUMENTS = ("model_ready", "interpretable", "learned")


def _lines(text: str) -> tuple[str, list[str]]:
    """The header line and the data lines of a CSV text with no line breaks
    inside fields."""
    header, *lines = text.splitlines(keepends=True)
    return header, lines


def _transform(fitted: FittedPipeline, text: str) -> tuple[str, list[dict]]:
    """Read, run and write, as ``featurespace transform`` does: the output
    CSV and the lineage entries."""
    result = run(fitted, read_table_csv(io.StringIO(text), fitted.input_schema))
    out = io.StringIO()
    write_table_csv(result.table, out, fitted.display_formats())
    return out.getvalue(), lineage_to_data(result.lineage)


def _by_row(entries: list[dict], shift: int = 0) -> dict[int, list[dict]]:
    """Lineage entries grouped by row, in their order, with rows moved by
    ``shift``. A run lists its entries step by step, so only the order within
    a row is the same for a batch and for the whole table."""
    rows: dict[int, list[dict]] = {}
    for entry in entries:
        rows.setdefault(entry["row"] + shift, []).append({**entry, "row": entry["row"] + shift})
    return rows


class _Case:
    """A fitted pipeline, its input CSV and the output of one whole-table run."""

    def __init__(self, fitted: FittedPipeline, text: str):
        self.fitted = fitted
        self.header, self.lines = _lines(text)
        self.whole_csv, entries = _transform(fitted, text)
        self.whole_lineage = _by_row(entries)
        self.out_header, _ = _lines(self.whole_csv)


@pytest.fixture(scope="module")
def documents() -> list[_Case]:
    cases = []
    for name in DOCUMENTS:
        fitted = load_fitted(DATA / f"covertype_300_{name}.fitted.json")
        cases.append(_Case(fitted, ROWS.read_text(encoding="utf-8")))
    return cases


def _generated(seed: int) -> _Case:
    """An exact pipeline of ``tests/_generators.py`` over a seeded random table."""
    rng = random.Random(seed)
    schema = random_schema(rng)
    table = random_table(rng, schema, n_rows=rng.randint(0, 30), missing_rate=0.1)
    fitted = as_fitted(random_exact_pipeline(rng, schema))
    out = io.StringIO()
    write_table_csv(table, out)
    return _Case(fitted, out.getvalue())


@st.composite
def cuts(draw, rows: int) -> list[tuple[int, int]]:
    """The pieces ``[start, stop)`` of ``rows`` rows cut at random points;
    empty pieces included."""
    points = sorted(draw(st.lists(st.integers(0, rows), max_size=6)))
    bounds = [0, *points, rows]
    return list(zip(bounds, bounds[1:]))


def _check_pieces(case: _Case, pieces: list[tuple[int, int]], outputs: list) -> None:
    body, lineage = [], {}
    for (start, _), (csv_text, entries) in zip(pieces, outputs):
        header, lines = _lines(csv_text)
        assert header == case.out_header
        body.extend(lines)
        lineage.update(_by_row(entries, start))
    assert case.out_header + "".join(body) == case.whole_csv
    assert lineage == case.whole_lineage


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_batches_give_the_whole_table_run(documents, data):
    """Two pipelines run their pieces interleaved in one process; each
    pipeline's pieces give the bytes and lineage of its whole-table run."""
    pool = documents + [_generated(data.draw(st.integers(0, 2**32 - 1), label="seed"))]
    first, second = data.draw(st.permutations(pool))[:2]
    runs = [(case, data.draw(cuts(len(case.lines)))) for case in (first, second)]
    outputs = {id(case): [] for case, _ in runs}
    for turn in range(max(len(pieces) for _, pieces in runs)):
        for case, pieces in runs:
            if turn < len(pieces):
                start, stop = pieces[turn]
                text = case.header + "".join(case.lines[start:stop])
                outputs[id(case)].append(_transform(case.fitted, text))
    for case, pieces in runs:
        _check_pieces(case, pieces, outputs[id(case)])


def _step_inputs(fitted: FittedPipeline, table) -> list:
    """The table each step of ``fitted`` reads, from running the steps before it."""
    tables = []
    for i, fstep in enumerate(fitted.steps):
        before = FittedPipeline(fitted.steps[:i], fitted.input_schema, fitted.direction,
                                fstep.input_schema)
        tables.append(run(before, table).table)
    return tables


@pytest.mark.parametrize("name", DOCUMENTS)
def test_what_a_run_returns_cannot_change_a_later_run(name):
    fitted = load_fitted(DATA / f"covertype_300_{name}.fitted.json")
    text = ROWS.read_text(encoding="utf-8")
    before = _transform(fitted, text)

    formats = fitted.display_formats()
    assert formats is fitted.display_formats()
    with pytest.raises(TypeError):
        formats["PCA 1"] = "d"
    table = read_table_csv(io.StringIO(text), fitted.input_schema)
    for fstep, step_input in zip(fitted.steps, _step_inputs(fitted, table)):
        columns, records = KERNELS[fstep.step.kind].apply(step_input, fstep.prepared)
        for record in records:
            if record.origin is not None:  # a record every run of the step reuses
                with pytest.raises(TypeError):
                    record.exceptions[0] = Imputed("mean")
            else:  # this run's own imputed rows
                record.exceptions.clear()
        for column in columns:
            column.reverse()
        for spec in fstep.output_schema.features:
            with pytest.raises(TypeError):
                spec.csv_labels["x"] = "y"
    result = run(fitted, table)
    for column in result.table.columns:
        column.clear()

    assert _transform(fitted, text) == before


@pytest.mark.parametrize("name", DOCUMENTS)
def test_copies_and_pickles_run_like_the_original(name):
    fitted = load_fitted(DATA / f"covertype_300_{name}.fitted.json")
    text = ROWS.read_text(encoding="utf-8")
    before = _transform(fitted, text)
    for again in (copy.deepcopy(fitted), pickle.loads(pickle.dumps(fitted))):
        assert again == fitted
        assert _transform(again, text) == before
