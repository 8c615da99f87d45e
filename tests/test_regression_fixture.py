"""Byte-identity regression over a 300-row covertype table.

``tests/data/covertype_300.csv`` holds 300 seeded covertype rows (the bundled
sample tiled and perturbed) with 20 MISSING Elevation cells and 7 MISSING
Wilderness area cells. The expected files beside it were written by
``featurespace transform --fit`` with the row-tuple table core that preceded
the columnar one; the CLI must keep reproducing them byte for byte.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from featurespace import demo
from featurespace.cli import main

DATA = Path(__file__).parent / "data"
DEMO = Path(demo.__file__).parent


@pytest.mark.parametrize("name", ["model_ready", "interpretable"])
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
