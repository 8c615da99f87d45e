"""Bundled Forest Cover demonstration: a 3-row sample, its manifests, both
pipeline documents, and golden outputs for offline verification."""

from __future__ import annotations

import csv
import io
from importlib import resources

from ..pipeline import Pipeline, pipeline_from_doc
from ..schema import SchemaManifest, parse_manifest, read_yaml
from ..table import DataTable, read_table_csv

# Full-dataset Elevation statistics used by the bundled pipelines; the
# demo-covertype command re-derives them when pointed at the complete dataset.
ELEVATION_MEAN = 2959.36
ELEVATION_SCALE = 279.98
ELEVATION_MIN = 1859.0
ELEVATION_MAX = 3858.0


def read_text(name: str) -> str:
    return resources.files(__package__).joinpath(name).read_text(encoding="utf-8")


def original_manifest() -> SchemaManifest:
    return parse_manifest(read_text("covertype_original.yaml"))


def model_ready_manifest() -> SchemaManifest:
    return parse_manifest(read_text("covertype_model_ready.yaml"))


def sample_table() -> DataTable:
    return read_table_csv(io.StringIO(read_text("covertype_sample.csv")),
                          original_manifest())


def _pipeline(name: str) -> Pipeline:
    return pipeline_from_doc(read_yaml(read_text(name), f"{name}: pipeline"),
                             original_manifest())


def model_ready_pipeline() -> Pipeline:
    return _pipeline("pipeline_model_ready.yaml")


def interpretable_pipeline() -> Pipeline:
    return _pipeline("pipeline_interpretable.yaml")


def golden_grid(name: str) -> tuple[list[str], list[list[str]]]:
    """Golden CSV as raw strings: (header, rows)."""
    rows = list(csv.reader(io.StringIO(read_text(name))))
    return rows[0], rows[1:]
