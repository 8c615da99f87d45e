"""Byte-identity regression over a 300-row covertype table.

``tests/data/covertype_300.csv`` holds 300 seeded covertype rows (the bundled
sample tiled and perturbed) with 20 MISSING Elevation cells and 7 MISSING
Wilderness area cells. The expected files beside it were written by
``featurespace transform --fit`` with the row-tuple table core that preceded
the columnar one; the CLI must keep reproducing them byte for byte.

``covertype_300_contribs_{name}.csv`` hold 300 seeded contribution vectors on
the model-ready side of each demo pipeline (``contribution_csv`` below). Every
tenth row mixes ``0.0`` and ``-0.0``, and every fifth carries a cancelling
``+-1e12`` pair plus a large residual, so the mapped bits depend on summation
order and on signed zeros; the residual keeps the total far enough from zero
that each row passes the relative 1e-9 conservation check. The
``covertype_300_explain_{name}.csv`` files and their ``.fidelity.txt``
sidecars were written by ``featurespace explain-map`` through each demo
pipeline fitted on ``covertype_300.csv``, with the per-vector dict walk that
preceded the compiled mapping plan. ``covertype_300_contribs_learned.csv`` holds
300 such vectors on the model-ready side of the fitted ``learned`` document, and
``covertype_300_explain_learned_flags.csv`` and its sidecar were written by
``featurespace explain-map --expose-flags`` through that document, with the
per-step slot loop that preceded the generated mapping functions: the
``impute_flagged`` reverse rule moves the flag's contribution out of the vector
into one sidecar note per row.

``covertype_300_{name}.fitted.json`` hold ``featurespace fit`` of both demo
pipelines and of the ``learned`` pipeline in ``_fitted_documents.py`` on
``covertype_300.csv``, written while ``fit`` still applied every step to the
fit rows: stopping after the last step that learns must not change what is
learned.

``covertype_300_{name}.schema.yaml`` hold ``serialize_manifest`` of the
output schema of each pipeline in ``_fitted_documents.py`` fitted on
``covertype_300.csv``, and of the inverse of ``exact``, written before the
kernels read one merged config: every field of every produced spec is pinned.
Together they cover every transform kind except ``link_raw``.
"""

from __future__ import annotations

import csv
import io
import json
import random
from pathlib import Path

import pytest

from featurespace import demo
from featurespace.cli import main
from featurespace.pipeline import fit, invert, load_fitted, load_pipeline, run
from featurespace.schema import serialize_manifest
from featurespace.table import read_table_csv

from _fitted_documents import NAMES, ROWS, pipeline_path
from _reference_lineage import reference_entries

DATA = Path(__file__).parent / "data"
DEMO = Path(demo.__file__).parent
DEMOS = ["model_ready", "interpretable"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_transform_is_byte_identical(tmp_path, name):
    out = tmp_path / "out.csv"
    lineage = tmp_path / "lineage.json"
    code = main(["transform", "--fit",
                 "--pipeline", str(DEMO / f"pipeline_{name}.yaml"),
                 "--data", str(DATA / "covertype_300.csv"),
                 "--out", str(out), "--lineage", str(lineage)])
    assert code == 0
    assert out.read_bytes() == (DATA / f"covertype_300_{name}.csv").read_bytes()
    if name == "interpretable":
        expected = DATA / "covertype_300_interpretable_lineage.json"
        assert lineage.read_bytes() == expected.read_bytes()
    else:
        pipeline = load_pipeline(DEMO / f"pipeline_{name}.yaml")
        table = read_table_csv(DATA / "covertype_300.csv", pipeline.input_schema)
        entries = reference_entries(run(fit(pipeline, table), table).lineage)
        assert lineage.read_text("utf-8") == json.dumps(entries, indent=2) + "\n"


@pytest.mark.parametrize("name", NAMES)
def test_fitted_document_is_byte_identical(tmp_path, name):
    out = tmp_path / "fitted.json"
    assert main(["fit", "--pipeline", str(pipeline_path(name, tmp_path)),
                 "--data", str(ROWS), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"covertype_300_{name}.fitted.json").read_bytes()


@pytest.mark.parametrize("name", [*NAMES, "exact", "exact_inverse"])
def test_output_schema_is_byte_identical(tmp_path, name):
    base = name.removesuffix("_inverse")
    pipeline = load_pipeline(pipeline_path(base, tmp_path))
    fitted = fit(pipeline, read_table_csv(ROWS, pipeline.input_schema))
    if name != base:
        fitted = invert(fitted)
    expected = DATA / f"covertype_300_{name}.schema.yaml"
    assert serialize_manifest(fitted.output_schema).encode("utf-8") == expected.read_bytes()


def contribution_csv(seed: int, names: tuple[str, ...], n_rows: int = 300) -> str:
    """Seeded contribution vectors over ``names`` plus a ``__base__`` column."""
    rng = random.Random(seed)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([*names, "__base__"])
    for r in range(n_rows):
        values = [rng.gauss(0.0, 0.4) for _ in names]
        base = rng.uniform(-1.0, 1.0)
        if r % 10 == 3:
            values = [rng.choice((0.0, -0.0, v)) for v in values]
            base = rng.choice((0.0, -0.0))
        elif r % 5 == 4:
            plus, minus, residual = rng.sample(range(len(names)), 3)
            scale = rng.choice((1.0, 1.5, 3.25))
            values[plus] = 1e12 * scale
            values[minus] = -1e12 * scale
            values[residual] = rng.choice((-1.0, 1.0)) * rng.uniform(1e7, 1e8)
        writer.writerow([repr(v) for v in values] + [repr(base)])
    return out.getvalue()


def model_side_names(name: str) -> tuple[str, ...]:
    pipeline = load_pipeline(DEMO / f"pipeline_{name}.yaml")
    side = (pipeline.input_schema if pipeline.direction == "to_interpretable"
            else pipeline.output_schema)
    return side.names


@pytest.mark.parametrize("seed,name", enumerate(DEMOS, start=300))
def test_contribution_fixture_regenerates(seed, name):
    expected = (DATA / f"covertype_300_contribs_{name}.csv").read_text(encoding="utf-8")
    assert contribution_csv(seed, model_side_names(name)) == expected


def test_learned_contribution_fixture_regenerates():
    names = load_fitted(DATA / "covertype_300_learned.fitted.json").output_schema.names
    expected = (DATA / "covertype_300_contribs_learned.csv").read_text(encoding="utf-8")
    assert contribution_csv(302, names) == expected


@pytest.mark.parametrize("name", DEMOS)
def test_demo_explain_map_is_byte_identical(tmp_path, name):
    fitted = tmp_path / "fitted.json"
    assert main(["fit", "--pipeline", str(DEMO / f"pipeline_{name}.yaml"),
                 "--data", str(DATA / "covertype_300.csv"),
                 "--out", str(fitted)]) == 0
    out = tmp_path / "mapped.csv"
    assert main(["explain-map", "--pipeline", str(fitted),
                 "--contribs", str(DATA / f"covertype_300_contribs_{name}.csv"),
                 "--out", str(out)]) == 0
    expected = DATA / f"covertype_300_explain_{name}.csv"
    assert out.read_bytes() == expected.read_bytes()
    sidecar = Path(str(out) + ".fidelity.txt")
    assert sidecar.read_bytes() == Path(str(expected) + ".fidelity.txt").read_bytes()


def test_learned_explain_map_with_exposed_flags_is_byte_identical(tmp_path):
    out = tmp_path / "mapped.csv"
    assert main(["explain-map", "--expose-flags",
                 "--pipeline", str(DATA / "covertype_300_learned.fitted.json"),
                 "--contribs", str(DATA / "covertype_300_contribs_learned.csv"),
                 "--out", str(out)]) == 0
    expected = DATA / "covertype_300_explain_learned_flags.csv"
    assert out.read_bytes() == expected.read_bytes()
    sidecar = Path(str(expected) + ".fidelity.txt")
    assert Path(str(out) + ".fidelity.txt").read_bytes() == sidecar.read_bytes()
    assert "row 299: exposed flag contribution Elevation Flag = " in \
        sidecar.read_text(encoding="utf-8")
