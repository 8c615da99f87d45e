"""Fitted pipeline documents over ``tests/data/covertype_300.csv``, for tests
that corrupt them.

Besides the two demo pipelines, ``learned`` fits every kind of learned
parameter: an ``impute_flagged`` mean (step 1), ``statistical_bin`` min, max
and edges (step 2), ``standardize`` mean and scale (step 3) and
``pca_project`` means and loadings (step 4). ``exact`` learns nothing and
inverts exactly: ``render_statement``, a configured ``standardize`` and
``one_hot_encode``.
"""

from __future__ import annotations

import json
from pathlib import Path

from featurespace import demo
from featurespace.pipeline import fit, load_pipeline, save_fitted
from featurespace.table import read_table_csv

DATA = Path(__file__).parent / "data"
ROWS = DATA / "covertype_300.csv"
DEMO = Path(demo.__file__).parent
NAMES = ("model_ready", "interpretable", "learned")

LEARNED_STEPS = """
direction: to_model_ready
steps:
  - kind: impute_flagged
    config: {feature: Elevation, strategy: mean}
  - kind: statistical_bin
    config: {feature: Elevation, bins: 3, target: Elevation Range, keep_original: true}
  - kind: standardize
    config: {feature: Elevation}
  - kind: pca_project
    config:
      inputs:
        - Horizontal Distance To Hydrology
        - Vertical Distance To Hydrology
        - Hillshade 9am
        - Hillshade Noon
        - Hillshade 3pm
      components: 2
"""

EXACT_STEPS = """
direction: to_model_ready
steps:
  - kind: render_statement
    config: {feature: Wilderness area}
  - kind: standardize
    config: {feature: Elevation, mean: 2750.0, scale: 250.0, display_format: ".4f"}
  - kind: one_hot_encode
    config: {feature: Soil Type}
"""
WRITTEN = {"learned": LEARNED_STEPS, "exact": EXACT_STEPS}


def pipeline_path(name: str, workdir: Path) -> Path:
    """The pipeline document of ``name``; ``learned`` and ``exact`` are
    written to ``workdir``."""
    if name not in WRITTEN:
        return DEMO / f"pipeline_{name}.yaml"
    path = workdir / f"{name}.yaml"
    manifest = json.dumps(str(DEMO / "covertype_original.yaml"))
    path.write_text(f"input_manifest: {manifest}\n{WRITTEN[name]}", encoding="utf-8")
    return path


def fitted_document(name: str, workdir: Path) -> dict:
    """Pipeline ``name`` fitted on the 300 rows, as ``featurespace fit`` writes it."""
    pipeline = load_pipeline(pipeline_path(name, workdir))
    out = workdir / f"{name}.fitted.json"
    save_fitted(fit(pipeline, read_table_csv(ROWS, pipeline.input_schema)), out)
    return json.loads(out.read_text(encoding="utf-8"))


def step_of(doc: dict, kind: str) -> dict:
    """The first step of ``kind`` in a fitted document."""
    return next(step for step in doc["steps"] if step["kind"] == kind)
