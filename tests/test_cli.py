"""CLI subcommands and the exit-code contract."""

from __future__ import annotations

import csv
import json
import os
import re
import stat
import warnings
from functools import reduce
from operator import add
from pathlib import Path

import pytest
import yaml

from featurespace import cli
from featurespace.cli import main
from featurespace.errors import ValidationError
from featurespace.expressions import MAX_DEPTH
from featurespace.pipeline import load_fitted
from featurespace.table import read_table_csv
from featurespace.transforms import MAX_BINS

from _fitted_documents import DATA, ROWS, fitted_document, step_of

ORIGINAL_MANIFEST = """
space_tag: original
features:
  - name: Wilderness area
    dtype: categorical
    categories: [Rawah, Neota, Comache Peak, Cache la Poudre]
    properties: [readable, understandable, meaningful, model_compatible]
  - name: Elevation
    dtype: numeric
    unit: m
    properties: [readable, understandable, meaningful, model_compatible]
"""

ENCODE_PIPELINE = """
input_manifest: original.yaml
direction: to_model_ready
steps:
  - kind: one_hot_encode
    config:
      feature: Wilderness area
      name_template: "Area {category}"
  - kind: standardize
    config: {feature: Elevation, mean: 2959.36, scale: 279.98}
"""

@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "original.yaml").write_text(ORIGINAL_MANIFEST, encoding="utf-8")
    (tmp_path / "pipeline.yaml").write_text(ENCODE_PIPELINE, encoding="utf-8")
    data = "Wilderness area,Elevation\n" \
           "Comache Peak,3179\nComache Peak,3123\nRawah,2157\n"
    (tmp_path / "data.csv").write_text(data, encoding="utf-8")
    return tmp_path


def read_rows(path: Path):
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def test_transform_and_idempotent_outputs(workspace):
    out = workspace / "out.csv"
    lineage = workspace / "lineage.json"
    report = workspace / "report.txt"
    argv = ["transform", "--pipeline", str(workspace / "pipeline.yaml"),
            "--data", str(workspace / "data.csv"), "--out", str(out),
            "--lineage", str(lineage), "--report", str(report)]
    assert main(argv) == 0
    first = out.read_bytes()
    rows = read_rows(out)
    assert rows[0] == ["Area Rawah", "Area Neota", "Area Comache Peak",
                       "Area Cache la Poudre", "Elevation"]
    assert rows[1][2] == "TRUE"
    assert json.loads(lineage.read_text())
    assert "exact" in report.read_text()
    assert main(argv) == 0
    assert out.read_bytes() == first  # byte-identical rerun


def test_transform_identity_pipeline(workspace):
    doc = "input_manifest: original.yaml\ndirection: to_interpretable\nsteps: []\n"
    (workspace / "identity.yaml").write_text(doc, encoding="utf-8")
    out = workspace / "same.csv"
    assert main(["transform", "--pipeline", str(workspace / "identity.yaml"),
                 "--data", str(workspace / "data.csv"), "--out", str(out)]) == 0
    assert read_rows(out) == read_rows(workspace / "data.csv")


def test_transform_missing_column_exits_1(workspace, capsys):
    (workspace / "short.csv").write_text("Wilderness area\nRawah\n",
                                         encoding="utf-8")
    code = main(["transform", "--pipeline", str(workspace / "pipeline.yaml"),
                 "--data", str(workspace / "short.csv"),
                 "--out", str(workspace / "x.csv")])
    assert code == 1
    assert "Elevation" in capsys.readouterr().err


def test_transform_nonexistent_path_exits_1(workspace):
    assert main(["transform", "--pipeline", str(workspace / "pipeline.yaml"),
                 "--data", str(workspace / "nope.csv"),
                 "--out", str(workspace / "x.csv")]) == 1


def test_kernel_runtime_error_exits_2(workspace):
    doc = """
input_manifest: original.yaml
direction: to_model_ready
steps:
  - kind: statistical_bin
    config: {feature: Elevation, bins: 2, min: 0, max: 100, labels: [lo, hi]}
"""
    (workspace / "bin.yaml").write_text(doc, encoding="utf-8")
    code = main(["transform", "--pipeline", str(workspace / "bin.yaml"),
                 "--data", str(workspace / "data.csv"),
                 "--out", str(workspace / "x.csv")])
    assert code == 2


def test_transform_unfitted_impute_mean_exits_1(workspace, capsys):
    doc = """
input_manifest: original.yaml
direction: to_interpretable
steps:
  - kind: impute_flagged
    config: {feature: Elevation, strategy: mean}
"""
    (workspace / "impute.yaml").write_text(doc, encoding="utf-8")
    code = main(["transform", "--pipeline", str(workspace / "impute.yaml"),
                 "--data", str(workspace / "data.csv"),
                 "--out", str(workspace / "x.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert "requires fitting" in err
    assert "Traceback" not in err


def test_fit_then_transform_with_fitted_document(workspace):
    doc = """
input_manifest: original.yaml
direction: to_model_ready
steps:
  - kind: standardize
    config: {feature: Elevation}
  - kind: one_hot_encode
    config: {feature: Wilderness area}
"""
    (workspace / "fitme.yaml").write_text(doc, encoding="utf-8")
    fitted_path = workspace / "fitme.fitted.json"
    assert main(["fit", "--pipeline", str(workspace / "fitme.yaml"),
                 "--data", str(workspace / "data.csv"),
                 "--out", str(fitted_path)]) == 0
    doc_data = json.loads(fitted_path.read_text())
    assert doc_data["document"] == "fitted_pipeline"
    assert doc_data["steps"][0]["fit_state"]["mean"] == pytest.approx(2819.6667,
                                                                      abs=1e-3)
    out = workspace / "fitted_out.csv"
    assert main(["transform", "--pipeline", str(fitted_path),
                 "--data", str(workspace / "data.csv"), "--out", str(out)]) == 0
    assert len(read_rows(out)) == 4


def _drop_manifest(doc):
    del doc["input_manifest"]


def _unknown_fit_state_key(doc):
    doc["steps"][0]["fit_state"]["median"] = 1.0


def _steps_not_a_list(doc):
    doc["steps"] = {"kind": "standardize"}


@pytest.mark.parametrize("corrupt, field", [
    (_drop_manifest, "input_manifest"),
    (_unknown_fit_state_key, "median"),
    (_steps_not_a_list, "steps"),
])
def test_malformed_fitted_document_exits_1(workspace, capsys, corrupt, field):
    fitted_path = workspace / "fitted.json"
    assert main(["fit", "--pipeline", str(workspace / "pipeline.yaml"),
                 "--data", str(workspace / "data.csv"), "--out", str(fitted_path)]) == 0
    doc = json.loads(fitted_path.read_text())
    doc["steps"][0]["fit_state"] = {"mean": 1.0, "scale": 2.0}
    corrupt(doc)
    fitted_path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    code = main(["transform", "--pipeline", str(fitted_path),
                 "--data", str(workspace / "data.csv"),
                 "--out", str(workspace / "out.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert field in err
    assert "Traceback" not in err


def _corrupted_document(workspace, document, corrupt):
    """The workspace pipeline as a YAML pipeline or a fitted document, with
    ``corrupt`` applied to its standardize step (step 2)."""
    if document == "fitted":
        path = workspace / "fitted.json"
        assert main(["fit", "--pipeline", str(workspace / "pipeline.yaml"),
                     "--data", str(workspace / "data.csv"), "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
    else:
        path = workspace / "corrupted.yaml"
        doc = yaml.safe_load(ENCODE_PIPELINE)
    corrupt(doc["steps"][1])
    path.write_text(json.dumps(doc), encoding="utf-8")  # JSON is also YAML
    return path


def _transform_fails_cleanly(workspace, capsys, path, *messages):
    capsys.readouterr()
    code = main(["transform", "--pipeline", str(path),
                 "--data", str(workspace / "data.csv"),
                 "--out", str(workspace / "out.csv")])
    err = capsys.readouterr().err
    assert code == 1
    for message in messages:
        assert message in err
    assert "Traceback" not in err


def _config_not_a_mapping(step):
    step["config"] = [1, 2]


def _delta_not_a_mapping(step):
    step["property_delta"] = ["Elevation"]


def _delta_entry_not_a_mapping(step):
    step["property_delta"] = {"Elevation": 5}


@pytest.mark.parametrize("document", ["pipeline", "fitted"])
@pytest.mark.parametrize("corrupt, field", [
    (_config_not_a_mapping, "config"),
    (_delta_not_a_mapping, "property_delta"),
    (_delta_entry_not_a_mapping, "property_delta"),
], ids=["config", "property_delta", "property_delta_entry"])
def test_malformed_step_exits_1(workspace, capsys, document, corrupt, field):
    path = _corrupted_document(workspace, document, corrupt)
    _transform_fails_cleanly(workspace, capsys, path,
                             f"error: {path}: step 2 (standardize): {field}")


@pytest.mark.parametrize("document", ["pipeline", "fitted"])
@pytest.mark.parametrize("value", ["false", "no", 1, None])
def test_non_boolean_property_flag_exits_1(workspace, capsys, document, value):
    def corrupt(step):
        step["property_delta"] = {"Elevation": {"meaningful": value}}

    path = _corrupted_document(workspace, document, corrupt)
    _transform_fails_cleanly(workspace, capsys, path,
                             f"error: {path}: step 2 (standardize): property_delta 'Elevation': ")


LEARN_THEN_BIN = """
input_manifest: original.yaml
direction: to_model_ready
steps:
  - kind: statistical_bin
    config: {feature: Elevation, bins: 2, target: Elevation Range, keep_original: true}
  - kind: statistical_bin
    config: {feature: Elevation, bins: 2, min: 2000, max: 3150, target: Elevation Band}
"""


def test_fit_stops_at_the_last_learning_step(workspace, capsys):
    """Row 0 (Elevation 3179) is outside the configured bins of step 2, which
    follows the last learning step: fit never applies step 2, run does."""
    (workspace / "learn_then_bin.yaml").write_text(LEARN_THEN_BIN, encoding="utf-8")
    fitted_path = workspace / "learn_then_bin.fitted.json"
    assert main(["fit", "--pipeline", str(workspace / "learn_then_bin.yaml"),
                 "--data", str(workspace / "data.csv"), "--out", str(fitted_path)]) == 0
    capsys.readouterr()
    code = main(["transform", "--pipeline", str(fitted_path),
                 "--data", str(workspace / "data.csv"),
                 "--out", str(workspace / "out.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert "step 2 (statistical_bin)" in err
    assert "row 0" in err
    assert "Traceback" not in err


def test_transform_fit_reads_the_data_once(workspace, monkeypatch):
    paths = []

    def counting(source, schema):
        paths.append(source)
        return read_table_csv(source, schema)

    monkeypatch.setattr(cli, "read_table_csv", counting)
    assert main(["transform", "--fit", "--pipeline", str(workspace / "pipeline.yaml"),
                 "--data", str(workspace / "data.csv"),
                 "--out", str(workspace / "out.csv")]) == 0
    assert paths == [str(workspace / "data.csv")]


@pytest.mark.parametrize("document", ["pipeline", "fitted"])
@pytest.mark.parametrize("spec, message", [
    ("zz", "display_format 'zz'"),
    (3, "display_format 3"),
    ("d", "column 'Elevation'"),  # an int spec on a float column fails when written
])
def test_bad_display_format_exits_1(workspace, capsys, document, spec, message):
    def corrupt(step):
        step["config"]["display_format"] = spec

    path = _corrupted_document(workspace, document, corrupt)
    _transform_fails_cleanly(workspace, capsys, path, message)


def test_invert_roundtrip_through_cli(workspace):
    encoded = workspace / "encoded.csv"
    assert main(["transform", "--pipeline", str(workspace / "pipeline.yaml"),
                 "--data", str(workspace / "data.csv"),
                 "--out", str(encoded)]) == 0
    inverse_path = workspace / "inverse.json"
    assert main(["invert", "--pipeline", str(workspace / "pipeline.yaml"),
                 "--out", str(inverse_path)]) == 0
    restored = workspace / "restored.csv"
    assert main(["transform", "--pipeline", str(inverse_path),
                 "--data", str(encoded), "--out", str(restored)]) == 0
    original = read_rows(workspace / "data.csv")
    back = read_rows(restored)
    assert back[0] == original[0]
    for row_a, row_b in zip(original[1:], back[1:]):
        assert row_a[0] == row_b[0]
        assert float(row_a[1]) == pytest.approx(float(row_b[1]), abs=1e-9)


def test_invert_lossy_exits_3(workspace, capsys):
    doc = """
input_manifest: original.yaml
direction: to_interpretable
steps:
  - kind: semantic_bin
    config: {feature: Elevation, boundaries: [2500], labels: [low, high]}
"""
    (workspace / "lossy.yaml").write_text(doc, encoding="utf-8")
    code = main(["invert", "--pipeline", str(workspace / "lossy.yaml"),
                 "--out", str(workspace / "inv.json")])
    assert code == 3
    assert "semantic_bin" in capsys.readouterr().err


def test_double_inversion_restores_pipeline(workspace):
    inverse_path = workspace / "inverse.json"
    main(["invert", "--pipeline", str(workspace / "pipeline.yaml"),
          "--out", str(inverse_path)])
    twice = workspace / "twice.json"
    assert main(["invert", "--pipeline", str(inverse_path),
                 "--out", str(twice)]) == 0
    kinds = [s["kind"] for s in json.loads(twice.read_text())["steps"]]
    assert kinds == ["one_hot_encode", "standardize"]


def test_explain_map_groups_and_conserves(workspace):
    contribs = workspace / "contribs.csv"
    header = ("Area Rawah,Area Neota,Area Comache Peak,Area Cache la Poudre,"
              "Elevation,__base__")
    contribs.write_text(
        f"{header}\n0.10,0.05,-0.20,0.00,0.42,1.5\n0.0,0.0,0.0,0.0,0.0,1.5\n",
        encoding="utf-8")
    out = workspace / "mapped.csv"
    code = main(["explain-map", "--pipeline", str(workspace / "pipeline.yaml"),
                 "--contribs", str(contribs), "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert rows[0] == ["Wilderness area", "Elevation", "__base__"]
    values = dict(zip(rows[0], rows[1]))
    assert float(values["Wilderness area"]) == pytest.approx(-0.05)
    assert float(values["Elevation"]) == pytest.approx(0.42)
    assert Path(str(out) + ".fidelity.txt").exists()


def test_explain_map_rejects_non_finite(workspace, capsys):
    contribs = workspace / "bad.csv"
    contribs.write_text(
        "Area Rawah,Area Neota,Area Comache Peak,Area Cache la Poudre,Elevation\n"
        "nan,0,0,0,0\n", encoding="utf-8")
    code = main(["explain-map", "--pipeline", str(workspace / "pipeline.yaml"),
                 "--contribs", str(contribs), "--out", str(workspace / "m.csv")])
    assert code == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("large", [
    {0: 1.7e308, 1: 1.7e308},
    {0: 1.7e308, 3: 1.7e308, 4: -1.7e308},
    {3: 1.7e308, 7: -1.7e308, 11: 1.7e308},
], ids=["both_totals", "source_total", "mapped_total"])
def test_explain_map_total_beyond_the_float_range_exits_4(tmp_path, capsys, large):
    """Finite contributions whose total overflows are read and mapped, but
    their conservation cannot be checked: exit 4, saying so."""
    _explain_map_one_row_fails(tmp_path, capsys, large, 4,
                               "conservation cannot be checked on row 0: a contribution "
                               "total is not finite")


def test_explain_map_of_a_violated_conservation_exits_4(tmp_path, capsys):
    """Contributions of 1e16 and -1e16 beside 1.0: rounding in the mapping
    moves the total by more than the tolerance."""
    _explain_map_one_row_fails(tmp_path, capsys, {0: 1e16, 1: -1e16, 2: 1.0}, 4,
                               "conservation violated on row 0: delta 0.375 exceeds 1e-09\n")


def test_explain_map_of_no_rows_exits_1(tmp_path, capsys):
    _explain_map_one_row_fails(tmp_path, capsys, None, 1,
                               f"error: {tmp_path / 'contribs.csv'}: no contribution rows\n")


def test_explain_map_mapped_value_beyond_the_float_range_exits_1(tmp_path, capsys):
    """Two finite soil indicators whose mapped sum overflows: the mapped
    vector cannot be built, exit 1 naming the interpretable feature."""
    _explain_map_one_row_fails(tmp_path, capsys, {7: 1.7e308, 8: 1.7e308}, 1,
                               "error: contribution for 'Soil Type' is not finite: inf")


def _explain_map_one_row_fails(tmp_path, capsys, large, code, message):
    """One model-ready contribution row, 0.0 but for the ``large`` values by
    position (no row for None), through the model-ready fixture: exit
    ``code`` with ``message``, and no output."""
    with open(DATA / "covertype_300_contribs_model_ready.csv", encoding="utf-8") as handle:
        header = next(csv.reader(handle))
    rows = [] if large is None else [
        [repr(large.get(i, 0.0)) for i in range(len(header) - 1)] + ["0.5"]]
    contribs = tmp_path / "contribs.csv"
    with open(contribs, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows([header, *rows])
    out = tmp_path / "mapped.csv"
    stdout = _fails_cleanly(["explain-map", "--pipeline",
                             str(DATA / "covertype_300_model_ready.fitted.json"),
                             "--contribs", str(contribs), "--out", str(out)],
                            capsys, code, message)
    assert "mapped" not in stdout
    assert sorted(path.name for path in tmp_path.iterdir()) == ["contribs.csv"]


def test_audit_command(workspace, capsys):
    out = workspace / "report.json"
    code = main(["audit", "--manifest", str(workspace / "original.yaml"),
                 "--persona", "decision_maker", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["persona"] == "decision_maker"
    assert main(["audit", "--manifest", str(workspace / "original.yaml"),
                 "--persona", "not-a-persona", "--out", str(out)]) == 1


def test_audit_error_shows_a_bounded_part_of_a_large_value(workspace, capsys):
    """A description that YAML aliases expand to 6**7 strings (seven levels,
    each listing the one below six times) is a clean exit 1 whose message
    shows only the start of the value."""
    inner = "[ab, ab, ab, ab, ab, ab]"
    for name in "abcdef":
        inner = f"[&{name} {inner}" + f", *{name}" * 5 + "]"
    manifest = workspace / "aliases.yaml"
    manifest.write_text("space_tag: original\nfeatures:\n  - name: A\n    dtype: numeric\n"
                        f"    description: {inner}\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["audit", "--manifest", str(manifest), "--persona", "decision_maker",
                 "--out", str(workspace / "report.json")]) == 1
    err = capsys.readouterr().err
    assert "description must be a string, got [[[[[[['ab', 'ab'" in err
    assert len(err.encode()) < 1000 and "Traceback" not in err
    assert not (workspace / "report.json").exists()


def test_demo_covertype_passes(tmp_path, capsys):
    assert main(["demo-covertype", "--out", str(tmp_path / "demo")]) == 0
    captured = capsys.readouterr().out
    assert captured.count("PASS") == 6
    assert "FAIL" not in captured


def test_demo_covertype_missing_data_exits_1(tmp_path):
    assert main(["demo-covertype", "--data", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "demo")]) == 1


@pytest.mark.parametrize("content, message", [
    (b"Slope,Elevation\n1,3000\n\n2,\n3,3100\n", None),  # a blank line is skipped
    (b"\xff\xfeElevation\n", "cannot read data file"),
    (b"Elevation\n3000\nabc\n",
     "error: {data}: row 1: feature 'Elevation': cannot parse number from 'abc'\n"),
    (b"Aspect,Elevation\n1,2000\n2\n3,2200\n",
     "error: {data}: row 1: expected 2 fields or more, got 1\n"),
    (b"Elevation\n3000\n3000\n", "constant"),
    (b"Elevation\n\n", "no observed values"),
    (b"Slope,Elevation\n1,\n2,\n", "error: {data}: column 'Elevation' has no observed values\n"),
    (b"Elevation\n3000\n" + b"0" * 5000 + b"2724\n",  # more digits than int() reads
     "error: {data}: row 1: feature 'Elevation': integer of 5004 characters "
     "has too many digits to read\n"),
    (b"Elevation\n1e200\n-1e200\n", "error: {data}: fitting overflows the float range\n"),
], ids=["stats_differ", "not_utf8", "bad_cell", "short_row", "constant", "empty",
        "all_cells_empty", "long_integer", "overflow"])
def test_demo_covertype_data_exits_1(tmp_path, capsys, content, message):
    data = tmp_path / "covtype.csv"
    data.write_bytes(content)
    assert main(["demo-covertype", "--data", str(data),
                 "--out", str(tmp_path / "demo")]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if message is None:
        assert captured.out.count("PASS") == 6  # the golden rows
        assert captured.out.count("FAIL") == 4
        assert "elevation mean: 3050.00" in captured.out
        assert "elevation scale: 50.00" in captured.out
    else:
        assert message.format(data=data) in captured.err


def _short_loadings(doc):
    step_of(doc, "pca_project")["fit_state"]["loadings"].pop()  # 4 rows, 5 inputs


def _short_edges(doc):
    step_of(doc, "statistical_bin")["fit_state"]["edges"].pop()


def _min_above_max(doc):
    state = step_of(doc, "statistical_bin")["fit_state"]
    state["min"], state["max"] = state["max"], state["min"]


def _mean_without_scale(doc):
    del step_of(doc, "standardize")["fit_state"]["scale"]


def _stray_pca_mean(doc):
    step_of(doc, "pca_project")["fit_state"]["mean"] = 0.0


def _nan_in_pca_means(doc):
    step_of(doc, "pca_project")["fit_state"]["means"][0] = float("nan")


def _nan_configured_scale(doc):
    step_of(doc, "standardize")["config"]["scale"] = float("nan")


def _fit_state_on_configured_step(doc):
    step_of(doc, "standardize")["fit_state"] = {"mean": 0.0, "scale": 1.0}


def _unfitted_impute_mean(doc):
    step_of(doc, "impute_flagged")["fit_state"] = {}


@pytest.mark.parametrize("name, corrupt, message", [
    ("model_ready", _short_loadings, "step 4 (pca_project)"),
    ("learned", _short_edges, "step 2 (statistical_bin)"),
    ("learned", _min_above_max, "min must be < max"),
    ("learned", _mean_without_scale, "mean and scale together"),
    ("learned", _stray_pca_mean, "unknown keys ['mean']"),
    ("learned", _nan_in_pca_means, "means must be a finite number"),
    ("model_ready", _nan_configured_scale, "scale must be a finite number"),
    ("model_ready", _fit_state_on_configured_step, "fit_state must be null"),
    ("learned", _unfitted_impute_mean,
     "step 1 (impute_flagged): mean strategy is not fitted"),
], ids=["pca_loadings", "bin_edges", "bin_min_max", "standardize_scale",
        "pca_stray_key", "pca_nan_mean", "configured_nan_scale",
        "configured_with_fit_state", "impute_mean_unfitted"])
def test_malformed_learned_values_exit_1(tmp_path, capsys, name, corrupt, message):
    doc = fitted_document(name, tmp_path)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(doc), encoding="utf-8")
    contribs = tmp_path / "contribs.csv"
    with contribs.open("w", newline="", encoding="utf-8") as handle:
        names = load_fitted(good).output_schema.names
        csv.writer(handle).writerows([names, [0.5] * len(names)])
    corrupt(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    for path, code in ((good, 0), (bad, 1)):
        for argv in (["transform", "--data", str(ROWS)],
                     ["explain-map", "--contribs", str(contribs)]):
            capsys.readouterr()
            assert main(argv + ["--pipeline", str(path),
                                "--out", str(tmp_path / "out.csv")]) == code
            err = capsys.readouterr().err
            assert (message in err) == (code == 1)
            assert "Traceback" not in err


NOT_UTF8 = b"\xff\xfe" + "Elevation\n".encode("utf-16-le")


@pytest.mark.parametrize("command, options, bad", [
    ("transform", ("--pipeline", "--data"), "--pipeline"),
    ("transform", ("--pipeline", "--data"), "--data"),
    ("fit", ("--pipeline", "--data"), "--pipeline"),
    ("explain-map", ("--pipeline", "--contribs"), "--contribs"),
    ("audit", ("--manifest", "--persona"), "--manifest"),
    ("audit", ("--manifest", "--persona"), "--persona"),
])
def test_non_utf8_input_exits_1(workspace, capsys, command, options, bad):
    _bad_input_exits_1(workspace, capsys, command, options, bad, NOT_UTF8)


# A field beyond csv's default limit of 131,072 characters.
LONG_FIELD = b"1" * 200_001 + b"\n"


@pytest.mark.parametrize("command, options, bad", [
    ("fit", ("--pipeline", "--data"), "--data"),
    ("transform", ("--pipeline", "--data"), "--data"),
    ("explain-map", ("--pipeline", "--contribs"), "--contribs"),
    ("demo-covertype", ("--data",), "--data"),
])
def test_a_field_beyond_the_csv_limit_exits_1(workspace, capsys, command, options, bad):
    err = _bad_input_exits_1(workspace, capsys, command, options, bad, LONG_FIELD)
    assert "field larger than field limit" in err


@pytest.mark.parametrize("first, fault, message", [
    (b"Rawah,x", b"\xff", "feature 'Elevation': cannot parse number from 'x'"),
    (b"Rawah,x", b"1" * 200_001, "feature 'Elevation': cannot parse number from 'x'"),
    (b"Nowhere,2157", b"\xff",
     "feature 'Wilderness area': label 'Nowhere' not in declared categories"),
], ids=["not_utf8", "long_field", "bad_label_not_utf8"])
def test_a_bad_cell_is_reported_before_a_fault_of_a_later_chunk(workspace, capsys, first,
                                                                 fault, message):
    """The data is read a chunk of rows at a time, each cell checked as it is
    parsed, and nothing after the chunk of the first bad row: a fault of the
    file itself thousands of rows further down is never reached, whether the
    bad cell fails to parse or holds an undeclared label."""
    data = workspace / "data.csv"
    data.write_bytes(b"Wilderness area,Elevation\n" + first + b"\n" + b"Rawah,2157\n" * 3000
                     + b"Rawah," + fault + b"\n")
    assert main(["transform", "--pipeline", str(workspace / "pipeline.yaml"),
                 "--data", str(data), "--out", str(workspace / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {data}: row 0: {message}\n"


WHAT = {"--pipeline": "pipeline", "--data": "data file", "--contribs": "contributions",
        "--manifest": "manifest"}


@pytest.mark.parametrize("command, options, bad", [
    ("fit", ("--pipeline", "--data"), "--pipeline"),
    ("fit", ("--pipeline", "--data"), "--data"),
    ("transform", ("--pipeline", "--data"), "--pipeline"),
    ("transform", ("--pipeline", "--data"), "--data"),
    ("invert", ("--pipeline",), "--pipeline"),
    ("explain-map", ("--pipeline", "--contribs"), "--pipeline"),
    ("explain-map", ("--pipeline", "--contribs"), "--contribs"),
    ("audit", ("--manifest", "--persona"), "--manifest"),
    ("demo-covertype", ("--data",), "--data"),
])
def test_a_missing_input_is_reported_once(workspace, capsys, command, options, bad):
    """A missing input is reported by the reader that opens it, in one line
    that names the file once, and no output is written. ``demo-covertype``
    writes its golden outputs before it reads ``--data``."""
    err = _bad_input_exits_1(workspace, capsys, command, options, bad, None)
    assert err == (f"error: cannot read {WHAT[bad]} {workspace / 'bad.txt'}: "
                   "No such file or directory\n")
    inputs = ["contribs.csv", "data.csv", "original.yaml", "persona.yaml", "pipeline.yaml"]
    if command == "demo-covertype":
        assert sorted(path.name for path in (workspace / "out").iterdir()) == [
            "covertype_interpretable.csv", "covertype_model_ready.csv"]
        inputs.append("out")
    assert sorted(path.name for path in workspace.iterdir()) == sorted(inputs)


def _bogus_step(workspace):
    """``transform`` of the model-ready fixture with step 2's kind ``bogus``."""
    doc = json.loads((DATA / "covertype_300_model_ready.fitted.json").read_text("utf-8"))
    doc["steps"][1]["kind"] = "bogus"
    path = workspace / "bogus.fitted.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return (["transform", "--pipeline", str(path), "--data", str(ROWS)],
            f"{path}: step 2 (bogus): unknown transform kind")


def _unfitted(command, *options):
    """``command`` of the workspace pipeline with its standardize step
    unfitted, and the workspace data for each of ``options``."""
    def argv_for(workspace):
        path = workspace / "unfitted.yaml"
        path.write_text(ENCODE_PIPELINE.replace(", mean: 2959.36, scale: 279.98", ""),
                        encoding="utf-8")
        argv = [command, "--pipeline", str(path)]
        for option in options:
            argv += [option, str(workspace / "data.csv")]
        return argv, f"{path}: step 2 (standardize): requires fitting; call fit() with data"
    return argv_for


def _manifest_of_pipeline(workspace, manifest):
    """``fit`` of the workspace pipeline over a manifest of text ``manifest``
    (None for no manifest file)."""
    (workspace / "original.yaml").unlink()
    if manifest is not None:
        (workspace / "original.yaml").write_text(manifest, encoding="utf-8")
    return ["fit", "--pipeline", str(workspace / "pipeline.yaml"),
            "--data", str(workspace / "data.csv")]


def _contribution_row(workspace):
    (workspace / "contribs.csv").write_text(
        "Area Rawah,Area Neota,Area Comache Peak,Area Cache la Poudre,Elevation\n"
        "abc,0.0,0.0,0.0,0.0\n", encoding="utf-8")
    return (["explain-map", "--pipeline", str(workspace / "pipeline.yaml"),
             "--contribs", str(workspace / "contribs.csv")],
            f"{workspace / 'contribs.csv'}: contribution row 0: could not convert string "
            "to float: 'abc'")


@pytest.mark.parametrize("argv_for", [
    _bogus_step,
    _unfitted("transform", "--data"),
    _unfitted("invert"),
    _unfitted("explain-map", "--contribs"),
    lambda w: (_audit(w, persona="kind: bogus\n"),
               f"{w / 'persona.yaml'}: unknown persona kind 'bogus'"),
    lambda w: (_audit(w, persona="kind: developer\nrequired: [zz]\n"),
               f"{w / 'persona.yaml'}: unknown property flags: ['zz']"),
    lambda w: (_manifest_of_pipeline(w, ORIGINAL_MANIFEST + "1: x\n"),
               f"{w / 'pipeline.yaml'}: {w / 'original.yaml'}: manifest: unknown keys [1]"),
    lambda w: (_manifest_of_pipeline(w, None),
               f"{w / 'pipeline.yaml'}: cannot read manifest {w / 'original.yaml'}: "
               "No such file or directory"),
    _contribution_row,
], ids=["fitted_step", "unfitted_transform", "unfitted_invert", "unfitted_explain_map",
        "persona_kind", "persona_flags", "manifest_of_pipeline", "missing_manifest_of_pipeline",
        "contribution_row"])
def test_an_error_of_an_input_names_its_file(workspace, capsys, argv_for):
    """An error of a file's content is named by the file, once, whatever
    reads it; a manifest read for a pipeline document is named after it."""
    argv, message = argv_for(workspace)
    capsys.readouterr()
    assert main(argv + ["--out", str(workspace / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workspace / "out").exists()


def _encode_to_interpretable(workspace, contribs: str) -> list[str]:
    """``explain-map`` argv for a ``to_interpretable`` pipeline whose step 1
    is ``one_hot_encode``, which has no forward contribution rule, over a
    contribution file of ``contribs``."""
    (workspace / "encode.yaml").write_text(
        ENCODE_PIPELINE.replace("to_model_ready", "to_interpretable"), encoding="utf-8")
    (workspace / "contribs.csv").write_text(contribs, encoding="utf-8")
    return ["explain-map", "--pipeline", str(workspace / "encode.yaml"),
            "--contribs", str(workspace / "contribs.csv"), "--out", str(workspace / "out.csv")]


@pytest.mark.parametrize("contribs", [
    "Wilderness area,Elevation\n",
    "Wilderness area,Elevation\nRawah,0.5\n",
], ids=["header_only", "malformed_row_0"])
def test_explain_map_reports_the_pipeline_before_the_file(workspace, capsys, contribs):
    """A pipeline that cannot be mapped is reported, naming its step, before
    the contribution file is read."""
    argv = _encode_to_interpretable(workspace, contribs)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: step 1 (one_hot_encode): no contribution rule in the forward direction; "
        "map against the pipeline that produced the model-ready schema instead\n")
    assert not (workspace / "out.csv").exists()


def _bad_input_exits_1(workspace, capsys, command, options, bad,
                       content: bytes | None) -> str:
    """``command`` with valid inputs for ``options`` but ``bad``, a file of
    ``content`` (or no file for None), exits 1 naming that file, with no
    traceback; returns stderr."""
    inputs = {"--pipeline": workspace / "pipeline.yaml", "--data": workspace / "data.csv",
              "--contribs": workspace / "contribs.csv",
              "--manifest": workspace / "original.yaml",
              "--persona": workspace / "persona.yaml"}
    inputs["--contribs"].write_text(
        "Area Rawah,Area Neota,Area Comache Peak,Area Cache la Poudre,Elevation\n"
        "0.1,0.0,0.0,0.0,0.2\n", encoding="utf-8")
    inputs["--persona"].write_text("kind: developer\n", encoding="utf-8")
    inputs[bad] = workspace / "bad.txt"
    if content is not None:
        inputs[bad].write_bytes(content)
    argv = [command, "--out", str(workspace / "out")]
    for option in options:
        argv += [option, str(inputs[option])]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert str(inputs[bad]) in err
    assert "Traceback" not in err
    return err


def _steps(workspace, *steps):
    """``transform --fit`` argv for a pipeline of ``steps`` over ``original.yaml``."""
    path = workspace / "step.yaml"
    path.write_text(yaml.safe_dump({"input_manifest": "original.yaml",
                                    "direction": "to_interpretable", "steps": list(steps)}),
                    encoding="utf-8")
    return ["transform", "--fit", "--pipeline", str(path),
            "--data", str(workspace / "data.csv")]


def _one_step(workspace, kind, config, property_delta=None):
    """``transform --fit`` argv for a one-step pipeline over ``original.yaml``."""
    step = {"kind": kind, "config": config}
    if property_delta is not None:
        step["property_delta"] = property_delta
    return _steps(workspace, step)


ZONES = {"feature": "Elevation", "boundaries": [3000], "labels": ["Low", "High"],
         "target": "Zone"}


def test_unknown_property_flag_names_the_step(workspace, capsys):
    argv = _one_step(workspace, "semantic_bin", ZONES, {"Zone": {"bogus": True}})
    assert main(argv + ["--out", str(workspace / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {workspace / 'step.yaml'}: step 1 (semantic_bin): property_delta "
                   "references unknown flags: ['bogus']\n")
    assert "Traceback" not in err


def _audit(workspace, manifest=ORIGINAL_MANIFEST, persona="kind: developer\n"):
    (workspace / "audited.yaml").write_text(manifest, encoding="utf-8")
    (workspace / "persona.yaml").write_text(persona, encoding="utf-8")
    return ["audit", "--manifest", str(workspace / "audited.yaml"),
            "--persona", str(workspace / "persona.yaml")]


FIRST_FLAGS = "properties: [readable, understandable, meaningful, model_compatible]"
HEIGHT = {"inputs": ["Elevation"], "formula": "sum", "target": "Height"}
REGIONS = {"feature": "Wilderness area", "target": "Region",
           "mapping": {"Rawah": "North", "Neota": "North", "Comache Peak": "South",
                       "Cache la Poudre": "South"}}


def _fitted_mean_true(workspace):
    doc = fitted_document("learned", workspace)
    step_of(doc, "standardize")["fit_state"]["mean"] = True
    path = workspace / "bad.fitted.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return ["transform", "--pipeline", str(path), "--data", str(ROWS)]


@pytest.mark.parametrize("argv_for, key", [
    (lambda w: _one_step(w, "semantic_bin", {**ZONES, "keep_original": "false"}),
     "step 1 (semantic_bin): keep_original must be true or false, got 'false'"),
    (lambda w: _one_step(w, "aggregate_numeric", {
        "inputs": ["Elevation"], "formula": "sum", "target": "Height",
        "keep_inputs": "false"}),
     "step 1 (aggregate_numeric): keep_inputs must be true or false, got 'false'"),
    (lambda w: _one_step(w, "statistical_bin", {"feature": "Elevation", "bins": 2.5,
                                                "target": "Band"}),
     "step 1 (statistical_bin): bins must be an integer, got 2.5"),
    (lambda w: _one_step(w, "statistical_bin", {"feature": "Elevation", "bins": True,
                                                "target": "Band"}),
     "step 1 (statistical_bin): bins must be an integer, got True"),
    (lambda w: _one_step(w, "pca_project", {"inputs": ["Elevation"], "components": 1.9}),
     "step 1 (pca_project): components must be an integer, got 1.9"),
    (lambda w: _audit(w, ORIGINAL_MANIFEST.replace(
        FIRST_FLAGS, "properties: {readable: true, meaningful: 'false'}", 1)),
     "features[0].properties: meaningful must be true or false, got 'false'"),
    (lambda w: _audit(w, ORIGINAL_MANIFEST.replace(
        FIRST_FLAGS, FIRST_FLAGS + "\n    observed: 'false'", 1)),
     "features[0]: observed must be true or false, got 'false'"),
    (lambda w: _audit(w, ORIGINAL_MANIFEST.replace(
        FIRST_FLAGS, FIRST_FLAGS + "\n    raw_source: {series_id: s, window: [0.9, 2.5]}", 1)),
     "features[0].raw_source: window must be an integer, got 0.9"),
    (lambda w: _audit(w, ORIGINAL_MANIFEST.replace(
        FIRST_FLAGS, FIRST_FLAGS + "\n    raw_source: {series_id: s, window: [1]}", 1)),
     "features[0].raw_source: window must be [start, stop], got [1]"),
    (lambda w: _audit(w, persona="kind: developer\nrequire_all: 'false'\n"),
     "require_all must be true or false, got 'false'"),
    (_fitted_mean_true, "step 3 (standardize): mean must be a finite number, got True"),
    (lambda w: _audit(w, ORIGINAL_MANIFEST.replace(
        FIRST_FLAGS, FIRST_FLAGS + "\n    description: 5", 1)),
     "features[0]: description must be a string, got 5"),
    (lambda w: _one_step(w, "aggregate_numeric", {**HEIGHT, "description": ["tall"]}),
     "step 1 (aggregate_numeric): description must be a string, got ['tall']"),
    (lambda w: _one_step(w, "hierarchy_rollup", {**REGIONS, "description": False}),
     "step 1 (hierarchy_rollup): description must be a string, got False"),
    (lambda w: _audit(w, ORIGINAL_MANIFEST.replace(
        "categories: [Rawah, Neota, Comache Peak, Cache la Poudre]", "categories: 5", 1)),
     "features[0]: categories must be a list, got 5"),
    (lambda w: _audit(w, ORIGINAL_MANIFEST.replace(
        FIRST_FLAGS, FIRST_FLAGS + "\n    derived_from: {inputs: 5, formula: f}", 1)),
     "features[0].derived_from: inputs must be a list, got 5"),
], ids=["keep_original", "keep_inputs", "bins_float", "bins_bool", "components_float",
        "manifest_property", "manifest_observed", "window_float", "window_short",
        "persona_require_all",
        "fitted_mean_bool", "manifest_description", "aggregate_description",
        "rollup_description", "manifest_categories", "manifest_derived_inputs"])
def test_document_scalars_are_checked_not_coerced(workspace, capsys, argv_for, key):
    argv = argv_for(workspace)
    capsys.readouterr()
    assert main(argv + ["--out", str(workspace / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind, config, target", [
    ("aggregate_numeric", HEIGHT, "Height"),
    ("abstract_concept", HEIGHT, "Height"),
    ("hierarchy_rollup", REGIONS, "Region"),
])
def test_null_description_reads_as_absent(workspace, kind, config, target):
    (workspace / "original.yaml").write_text(
        ORIGINAL_MANIFEST.replace("unit: m", "unit: m\n    description: null", 1),
        encoding="utf-8")
    argv = _one_step(workspace, kind, {**config, "description": None})
    fitted_path = workspace / "fitted.json"
    assert main(["fit"] + argv[2:] + ["--out", str(fitted_path)]) == 0
    fitted = load_fitted(fitted_path)
    assert fitted.input_schema.feature("Elevation").description == ""
    assert fitted.output_schema.feature(target).description == ""
    assert "None" not in fitted_path.read_text(encoding="utf-8")


UNLOADABLE_YAML = {
    "int_tag": ("features: !!int 0x\n", "cannot construct a value (ValueError"),
    "timestamp_tag": ("steps: !!timestamp abc\n", "cannot construct a value (AttributeError"),
    "deep_nesting": ("- " * 2000 + "a\n", "nested too deeply"),
}


@pytest.mark.parametrize("case", sorted(UNLOADABLE_YAML))
@pytest.mark.parametrize("reader", ["manifest", "pipeline", "persona"])
def test_unloadable_yaml_exits_1(workspace, capsys, reader, case):
    text, message = UNLOADABLE_YAML[case]
    if reader == "pipeline":
        bad = workspace / "pipeline.yaml"
        bad.write_text(text, encoding="utf-8")
        argv = ["transform", "--pipeline", str(bad), "--data", str(workspace / "data.csv")]
    else:
        argv = _audit(workspace, **{reader: text})
        bad = workspace / ("audited.yaml" if reader == "manifest" else "persona.yaml")
    assert main(argv + ["--out", str(workspace / "out")]) == 1
    err = capsys.readouterr().err
    assert f"{bad}: {reader} parse error: {message}" in err
    assert "Traceback" not in err


def test_a_data_integer_of_too_many_digits_exits_1(workspace, capsys):
    """5,000 leading zeros make a finite number that int() refuses to read."""
    (workspace / "data.csv").write_text(
        "Wilderness area,Elevation\nRawah,2157\nRawah," + "0" * 5000 + "2724\n",
        encoding="utf-8")
    argv = ["transform", "--pipeline", str(workspace / "pipeline.yaml"), "--fit",
            "--data", str(workspace / "data.csv"), "--out", str(workspace / "out.csv")]
    _fails_cleanly(argv, capsys, 1, f"error: {workspace / 'data.csv'}: row 1: feature "
                   "'Elevation': integer of 5004 characters has too many digits to read")
    assert not (workspace / "out.csv").exists()


@pytest.mark.parametrize("command", ["transform", "invert", "explain-map"])
def test_a_document_integer_of_too_many_digits_exits_1(tmp_path, capsys, command):
    doc = json.loads((DATA / "covertype_300_model_ready.fitted.json").read_text("utf-8"))
    step_of(doc, "statistical_bin")["config"]["bins"] = "BINS"  # json writes no such int
    path = tmp_path / "fitted.json"
    path.write_text(json.dumps(doc).replace('"BINS"', "1" * 5001), encoding="utf-8")
    inputs = {"transform": ["--data", str(ROWS)], "invert": [],
              "explain-map": ["--contribs", str(DATA / "covertype_300_contribs_model_ready.csv")]}
    argv = [command, "--pipeline", str(path), *inputs[command], "--out", str(tmp_path / "out")]
    message = f"{path}: fitted pipeline document: an integer has too many digits to read"
    err = _fails_cleanly(argv, capsys, 1, f"error: {message}\n")
    assert "sys.set_int_max_str_digits" not in err
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load_fitted(path)


@pytest.mark.parametrize("command", ["transform", "invert", "explain-map"])
def test_a_deeply_nested_document_exits_1(tmp_path, capsys, command):
    """JSON nested past the parser's recursion limit is a fitted document
    that cannot be read, as YAML nested so deep is a pipeline one."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000, encoding="utf-8")
    inputs = {"transform": ["--data", str(ROWS)], "invert": [],
              "explain-map": ["--contribs", str(DATA / "covertype_300_contribs_model_ready.csv")]}
    argv = [command, "--pipeline", str(path), *inputs[command], "--out", str(tmp_path / "out")]
    _fails_cleanly(argv, capsys, 1,
                   f"error: {path}: fitted pipeline document: nested too deeply\n")
    assert not (tmp_path / "out").exists()


def _expression_argv(workspace, expr):
    """``transform --fit`` argv for ``expr`` as an ``aggregate_numeric`` formula over
    ``a`` and ``b``, on three rows whose sums round."""
    (workspace / "original.yaml").write_text(TWO_NUMBERS_MANIFEST, encoding="utf-8")
    (workspace / "data.csv").write_text("a,b\n0.1,0.7\n1e16,1.0\n-0.3,3.3\n", encoding="utf-8")
    return _one_step(workspace, "aggregate_numeric",
                     {"inputs": ["a", "b"], "formula": {"expr": expr}, "target": "t"})


@pytest.mark.parametrize("expr", [
    "(" * 3_000 + "a" + ")" * 3_000,
    "-" * 5_000 + "a",
    " + ".join(["a"] * 20_000),
    "sqrt(" * (MAX_DEPTH + 1) + "a" + ")" * (MAX_DEPTH + 1),
], ids=["parentheses", "unary_minus", "chain", "calls"])
def test_an_expression_nested_too_deeply_exits_1(workspace, capsys, expr):
    argv = _expression_argv(workspace, expr) + ["--out", str(workspace / "out.csv")]
    _fails_cleanly(argv, capsys, 1,
                   f"{workspace / 'step.yaml'}: step 1 (aggregate_numeric): expression: "
                   "nested too deeply\n")
    assert not (workspace / "out.csv").exists()


@pytest.mark.parametrize("terms", [970, MAX_DEPTH + 1])
def test_a_long_expression_chain_runs_left_to_right(workspace, terms):
    """A chain of ``terms`` terms is ``terms - 1`` levels deep; each row's
    result has the bits of the additions made in order."""
    expr = " + ".join(["a", *["b"] * (terms - 1)])
    out = workspace / "out.csv"
    assert main(_expression_argv(workspace, expr) + ["--out", str(out)]) == 0
    expected = [reduce(add, [b] * (terms - 1), a)
                for a, b in ((0.1, 0.7), (1e16, 1.0), (-0.3, 3.3))]
    assert [float(row[-1]) for row in read_rows(out)[1:]] == expected


AREA_PHRASE = ORIGINAL_MANIFEST.replace(
    FIRST_FLAGS, FIRST_FLAGS + "\n    wording: {value: 'area {value} {x}'}", 1)


def _template_argv(workspace, kind, config, manifest):
    """``fit`` argv for a step of ``kind`` after one that adds the areas' regions."""
    (workspace / "original.yaml").write_text(manifest, encoding="utf-8")
    argv = _steps(workspace, {"kind": "hierarchy_rollup", "config": {
        **REGIONS, "keep_original": True, "wording": {"value": "region {value} {0}"}}},
                  {"kind": kind, "config": config})
    return ["fit", *argv[2:]]


@pytest.mark.parametrize("kind, config, manifest, message", [
    ("one_hot_encode", {"feature": "Wilderness area", "name_template": "{category} {0}"},
     ORIGINAL_MANIFEST, "name_template '{category} {0}' cannot be formatted "
                        "(IndexError: "),
    ("one_hot_encode", {"feature": "Wilderness area", "name_template": "{category}{bogus}"},
     ORIGINAL_MANIFEST, "name_template '{category}{bogus}' cannot be formatted "
                        "(KeyError: 'bogus')"),
    ("one_hot_encode", {"feature": "Wilderness area",
                        "name_template": "{category} {category.bogus}"},
     ORIGINAL_MANIFEST, "name_template '{category} {category.bogus}' cannot be "
                        "formatted (AttributeError: 'str' object has no attribute 'bogus')"),
    ("pca_project", {"inputs": ["Elevation"], "components": 1, "name_template": "{i} {x}"},
     ORIGINAL_MANIFEST, "name_template '{i} {x}' cannot be formatted "
                        "(KeyError: 'x')"),
    ("pca_project", {"inputs": ["Elevation"], "components": 1, "name_template": "{i.bogus}{i}"},
     ORIGINAL_MANIFEST, "name_template '{i.bogus}{i}' cannot be formatted "
                        "(AttributeError: 'int' object has no attribute 'bogus')"),
    ("render_statement", {"feature": "Region"}, ORIGINAL_MANIFEST,
     "feature 'Region': wording value 'region {value} {0}' cannot be formatted (IndexError: "),
    ("render_statement", {"feature": "Wilderness area"}, AREA_PHRASE,
     "feature 'Wilderness area': wording value 'area {value} {x}' cannot be formatted "
     "(KeyError: 'x')"),
], ids=["encode_index", "encode_key", "encode_attribute", "pca_key", "pca_attribute",
        "step_value_phrase", "manifest_value_phrase"])
def test_a_template_that_cannot_be_formatted_exits_1(workspace, capsys, kind, config,
                                                      manifest, message):
    out = workspace / "fitted.json"
    _fails_cleanly(_template_argv(workspace, kind, config, manifest) + ["--out", str(out)],
                   capsys, 1, f"{workspace / 'step.yaml'}: step 2 ({kind}): {message}")
    assert not out.exists()


def _too_many_bins_fitted(workspace):
    """``transform`` argv for the learned fitted document with one bin over
    ``MAX_BINS``, its edges those of the new count."""
    doc = fitted_document("learned", workspace)
    step = step_of(doc, "statistical_bin")
    bins = step["config"]["bins"] = MAX_BINS + 1
    step["config"]["labels"] = None
    lo, hi = step["fit_state"]["min"], step["fit_state"]["max"]
    step["fit_state"]["edges"] = [lo + i * (hi - lo) / bins for i in range(bins + 1)]
    path = workspace / "bins.fitted.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return ["transform", "--pipeline", str(path), "--data", str(ROWS)], "step 2"


def _too_many_bins_pipeline(workspace):
    """``fit`` argv for a one-step pipeline of ``MAX_BINS + 1`` bins."""
    argv = _one_step(workspace, "statistical_bin",
                     {"feature": "Elevation", "bins": MAX_BINS + 1, "target": "Range"})
    return ["fit", *argv[2:]], "step 1"


@pytest.mark.parametrize("argv_for", [_too_many_bins_pipeline, _too_many_bins_fitted],
                         ids=["fit", "transform_fitted"])
def test_more_bins_than_the_cap_exits_1(workspace, capsys, argv_for):
    """Every bin gets an edge and a label before any other check, so
    ``bins`` is capped where it is read."""
    argv, step = argv_for(workspace)
    _fails_cleanly(argv + ["--out", str(workspace / "out")], capsys, 1,
                   f"{step} (statistical_bin): bins must be <= "
                   f"{MAX_BINS}\n")
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("text", ["", "null\n", "# nothing\n"], ids=["empty", "null", "comment"])
def test_an_empty_pipeline_document_exits_1(workspace, capsys, text):
    (workspace / "pipeline.yaml").write_text(text, encoding="utf-8")
    argv = ["transform", "--pipeline", str(workspace / "pipeline.yaml"),
            "--data", str(workspace / "data.csv"), "--out", str(workspace / "out.csv")]
    _fails_cleanly(argv, capsys, 1, f"error: {workspace / 'pipeline.yaml'}: pipeline document: "
                   "missing required key 'input_manifest'")
    _fails_cleanly(["fit", *argv[1:]], capsys, 1, "missing required key 'input_manifest'")


def _fails_cleanly(argv, capsys, code, *messages):
    capsys.readouterr()
    assert main(argv) == code
    out, err = capsys.readouterr()
    for message in messages:
        assert message in err
    assert "Traceback" not in err
    return out


def test_aggregate_overflow_exits_2(workspace, capsys):
    (workspace / "data.csv").write_text("Wilderness area,Elevation\nRawah,3000\nRawah,1e200\n",
                                        encoding="utf-8")
    argv = _one_step(workspace, "aggregate_numeric", {
        "inputs": ["Elevation"], "formula": "euclidean_floor", "target": "Height"})
    _fails_cleanly(argv + ["--out", str(workspace / "out.csv")], capsys, 2,
                   "step 1 (aggregate_numeric): row 1:")


TWO_NUMBERS_MANIFEST = """
space_tag: original
features:
  - name: a
    dtype: numeric
    properties: [readable, understandable, meaningful, model_compatible]
  - name: b
    dtype: numeric
    properties: [readable, understandable, meaningful, model_compatible]
"""


@pytest.mark.parametrize("formula, message", [
    ("sum", "feature 't': non-finite value inf"),
    ({"expr": "a * b"}, "feature 't': non-finite value inf"),
    ({"expr": "floor(a * b - a * b)"}, "floor of non-finite value nan"),
    ({"expr": "floor(a * b)"}, "floor of non-finite value inf"),
], ids=["sum", "expr", "floor_nan", "floor_inf"])
def test_overflow_to_infinity_exits_2(workspace, capsys, formula, message):
    (workspace / "original.yaml").write_text(TWO_NUMBERS_MANIFEST, encoding="utf-8")
    (workspace / "data.csv").write_text("a,b\n1.0,2.0\n1e308,1e308\n", encoding="utf-8")
    argv = _one_step(workspace, "aggregate_numeric", {
        "inputs": ["a", "b"], "formula": formula, "target": "t"})
    _fails_cleanly(argv + ["--out", str(workspace / "out.csv")], capsys, 2,
                   "kernel error: step 1 (aggregate_numeric): row 1: " + message)
    assert not (workspace / "out.csv").exists()


@pytest.mark.parametrize("kind, config, column", [
    ("standardize", {"feature": "a"}, ["1.5e308", "1.4e308"]),
    ("impute_flagged", {"feature": "a", "strategy": "mean"}, ["1.5e308", "1.4e308", ""]),
    ("standardize", {"feature": "a"}, ["1e200", "-1e200"]),
    ("pca_project", {"inputs": ["a", "b"], "components": 1}, ["1e200", "-1e200"]),
], ids=["infinite_state", "infinite_mean", "overflow", "pca_project"])
def test_fit_beyond_the_float_range_exits_2(workspace, capsys, kind, config, column):
    """A mean, scale or covariance that fitting learns beyond the float
    range is exit 2 with one message, and no NumPy warning (which the CLI
    would print to stderr)."""
    (workspace / "original.yaml").write_text(TWO_NUMBERS_MANIFEST, encoding="utf-8")
    rows = [f"{value},1.0" for value in column]
    (workspace / "data.csv").write_text("\n".join(["a,b", *rows]) + "\n", encoding="utf-8")
    out = workspace / "fitted.json"
    # ``fit`` with the --pipeline and --data options of the ``transform --fit`` argv.
    argv = ["fit", *_one_step(workspace, kind, config)[2:], "--out", str(out)]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert capsys.readouterr().err == (f"kernel error: step 1 ({kind}): "
                                       "fitting overflows the float range\n")
    assert [str(warning.message) for warning in caught] == []
    assert not out.exists()


@pytest.mark.parametrize("loadings", [{0: 1e200}, {0: 1e154, 1: 1e154}],
                         ids=["square", "sum_of_squares"])
def test_pca_loadings_whose_squares_overflow_exit_1(tmp_path, capsys, loadings):
    doc = json.loads((DATA / "covertype_300_model_ready.fitted.json").read_text("utf-8"))
    for row, value in loadings.items():
        step_of(doc, "pca_project")["fit_state"]["loadings"][row][0] = value
    path = tmp_path / "fitted.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    _fails_cleanly(["explain-map", "--pipeline", str(path),
                    "--contribs", str(DATA / "covertype_300_contribs_model_ready.csv"),
                    "--out", str(tmp_path / "out.csv")],
                   capsys, 1, "error: step 4 (pca_project): PCA component 1: squared loadings overflow")


def test_pca_projection_overflow_prints_only_the_kernel_error(tmp_path, capsys):
    """Four PCA inputs of one row at 1.7e308 overflow its first component:
    exit 2 with the kernel error as the one line on stderr, and no
    floating-point warning (which the CLI would print to stderr)."""
    with open(ROWS, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header, row = next(reader), next(reader)
    row[1:5] = ["1.7e308"] * 4  # the first four of the five PCA inputs
    data = tmp_path / "data.csv"
    with open(data, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows([header, row])
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["transform", "--pipeline",
                     str(DATA / "covertype_300_model_ready.fitted.json"),
                     "--data", str(data), "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == ("kernel error: step 4 (pca_project): row 0: "
                                       "feature 'PCA 1': non-finite value inf\n")
    assert [str(warning.message) for warning in caught] == []


def test_exponent_without_a_dot_names_the_yaml_spelling(workspace, capsys):
    pipeline = workspace / "pipeline.yaml"
    argv = ["transform", "--pipeline", str(pipeline), "--data", str(workspace / "data.csv"),
            "--out", str(workspace / "out.csv")]
    pipeline.write_text(ENCODE_PIPELINE.replace("scale: 279.98", "scale: 1e-3"),
                        encoding="utf-8")
    _fails_cleanly(argv, capsys, 1, "scale must be a finite number, got '1e-3' "
                                    "(YAML 1.1 reads 1e-3 as text; write 1.0e-3)")
    pipeline.write_text(ENCODE_PIPELINE.replace("scale: 279.98", "scale: 1.0e-3"),
                        encoding="utf-8")
    assert main(argv) == 0


def test_integer_beyond_the_float_range_exits_1(workspace, capsys):
    huge = "1" + "0" * 400
    (workspace / "data.csv").write_text(f"Wilderness area,Elevation\nRawah,3000\nRawah,{huge}\n",
                                        encoding="utf-8")
    argv = _one_step(workspace, "standardize", {"feature": "Elevation", "target": "z"})
    _fails_cleanly(argv + ["--out", str(workspace / "out.csv")], capsys, 1,
                   "row 1: feature 'Elevation': non-finite value")


@pytest.mark.parametrize("wording, key", [
    ("{value: 5}", "value must be a string, got 5"),
    ("{positive: 5}", "positive must be a string, got 5"),
])
def test_non_text_wording_exits_1(workspace, capsys, wording, key):
    manifest = ORIGINAL_MANIFEST.replace(FIRST_FLAGS, FIRST_FLAGS + f"\n    wording: {wording}", 1)
    _fails_cleanly(_audit(workspace, manifest) + ["--out", str(workspace / "out.json")],
                   capsys, 1, f"features[0].wording: {key}")


@pytest.mark.parametrize("kind, config, message", [
    ("hierarchy_rollup", {**REGIONS, "mapping": {**REGIONS["mapping"], "Rawah": ""}},
     "step 1 (hierarchy_rollup): feature 'Region': categories must be non-empty strings"),
    ("semantic_bin", {**ZONES, "labels": ["a", "a"]},
     "step 1 (semantic_bin): feature 'Zone': duplicate category labels"),
    ("bogus", {}, "step.yaml: step 1 (bogus): unknown transform kind"),
])
def test_plan_errors_name_the_step(workspace, capsys, kind, config, message):
    _fails_cleanly(_one_step(workspace, kind, config) + ["--out", str(workspace / "o.csv")],
                   capsys, 1, message)


AREAS = ["Rawah", "Neota", "Comache Peak", "Cache la Poudre"]


@pytest.mark.parametrize("restore, message", [
    ({"dtype": "categorical", "categories": AREAS, "bogus": 1},
     "restore: unknown keys ['bogus']"),
    ({"dtype": "categorical", "categories": ["a", "a"]},
     "feature 'g': duplicate category labels"),
    ({"dtype": "categorical", "categories": AREAS, "observed": "yes"},
     "restore: observed must be true or false, got 'yes'"),
], ids=["unknown_key", "duplicate_categories", "observed_text"])
def test_malformed_restore_names_the_step(workspace, capsys, restore, message):
    argv = _steps(workspace,
                  {"kind": "one_hot_encode", "config": {"feature": "Wilderness area",
                                                        "name_template": "A {category}"}},
                  {"kind": "one_hot_decode", "config": {
                      "group": [f"A {area}" for area in AREAS], "target": "g",
                      "restore": restore}})
    _fails_cleanly(argv + ["--out", str(workspace / "o.csv")], capsys, 1,
                   f"step 2 (one_hot_decode): {message}")


def test_zero_hot_missing_decode_is_lossy(workspace, capsys):
    """A zero-hot row decodes to MISSING, which encodes back as all MISSING:
    such a step gets a lossy note, and ``invert`` refuses it."""
    argv = _steps(workspace,
                  {"kind": "one_hot_encode", "config": {"feature": "Wilderness area",
                                                        "name_template": "A {category}"}},
                  {"kind": "one_hot_decode", "config": {
                      "group": [f"A {area}" for area in AREAS], "target": "g",
                      "categories": AREAS, "zero_hot": "missing"}})
    report = workspace / "report.txt"
    assert main(argv + ["--out", str(workspace / "o.csv"), "--report", str(report)]) == 0
    note = "step 2 (one_hot_decode): lossy transform; inverse not offered"
    assert report.read_text(encoding="utf-8") == note + "\n"
    _fails_cleanly(["invert", "--pipeline", str(workspace / "step.yaml"),
                    "--out", str(workspace / "inverse.json")], capsys, 3,
                   "non-exact steps: step 2 (one_hot_decode)")
    assert not (workspace / "inverse.json").exists()


def _explain_map_argv(workspace, out):
    contribs = workspace / "contribs.csv"
    contribs.write_text("Area Rawah,Area Neota,Area Comache Peak,Area Cache la Poudre,"
                        "Elevation\n0.1,0,0,0,0.4\n", encoding="utf-8")
    return ["explain-map", "--pipeline", str(workspace / "pipeline.yaml"),
            "--contribs", str(contribs), "--out", str(out)]


OLD_OUTPUT = b"an output of an earlier run\n"


def _old(path):
    path.write_bytes(OLD_OUTPUT)
    return path


def _sidecar_is_a_directory(workspace):
    (workspace / "mapped.csv.fidelity.txt").mkdir()
    return _explain_map_argv(workspace, workspace / "mapped.csv"), "mapped.csv.fidelity.txt"


def _old_mapped_csv_and_sidecar_is_a_directory(workspace):
    _old(workspace / "mapped.csv")
    return _sidecar_is_a_directory(workspace)


def _transform_argv(workspace, *extra):
    return ["transform", "--pipeline", str(workspace / "pipeline.yaml"),
            "--data", str(workspace / "data.csv"), *extra]


@pytest.mark.parametrize("argv_for", [
    lambda w: (_transform_argv(w, "--out", str(w / "gone" / "o.csv")), "gone"),
    lambda w: (_transform_argv(w, "--out", str(w / "o.csv"),
                               "--lineage", str(w / "gone" / "l.json")), "gone"),
    lambda w: (_transform_argv(w, "--out", str(_old(w / "o.csv")), "--lineage",
                               str(w / "l.json"), "--report", str(w / "gone" / "r.txt")), "gone"),
    lambda w: (["fit", "--pipeline", str(w / "pipeline.yaml"), "--data", str(w / "data.csv"),
                "--out", str(w / "gone" / "f.json")], "gone"),
    lambda w: (["audit", "--manifest", str(w / "original.yaml"), "--persona", "developer",
                "--out", str(w / "gone" / "a.json")], "gone"),
    lambda w: (["invert", "--pipeline", str(w / "pipeline.yaml"),
                "--out", str(w / "gone" / "i.json")], "gone"),
    lambda w: (["demo-covertype", "--out", str(w / "data.csv" / "demo")], "data.csv/demo"),
    lambda w: (_explain_map_argv(w, w / "gone" / "m.csv"), "gone"),
    _sidecar_is_a_directory,
    _old_mapped_csv_and_sidecar_is_a_directory,
], ids=["transform_out", "transform_lineage", "transform_report", "fit_out", "audit_out",
        "invert_out", "demo_out", "explain_map_out", "explain_map_sidecar",
        "explain_map_old_csv"])
def test_unwritable_output_exits_1(workspace, capsys, argv_for):
    argv, path = argv_for(workspace)
    outputs = [argv[i + 1] for i, option in enumerate(argv)
               if option in ("--out", "--lineage", "--report")]
    if argv[0] == "explain-map":
        outputs.append(outputs[0] + ".fidelity.txt")
    before = {output: Path(output).read_bytes() for output in outputs if Path(output).is_file()}
    unwritable = next(output for output in outputs if output.startswith(str(workspace / path)))
    out = _fails_cleanly(argv, capsys, 1, "error: cannot write output: [Errno ",
                         f": '{unwritable}'\n")
    # An output cannot be written, so the command writes none: no new file,
    # no temporary file, an earlier run's output intact, and no line saying
    # where it wrote.
    for output in outputs:
        if output in before:
            assert Path(output).read_bytes() == before[output]
        else:
            assert not Path(output).is_file()
    assert not list(workspace.rglob("*.tmp"))
    assert "->" not in out and "written to" not in out and "transformed" not in out


def _transformed(workspace):
    reference = workspace / "reference.csv"
    assert main(_transform_argv(workspace, "--out", str(reference))) == 0
    return reference.read_bytes()


def _out_is_a_device(workspace):
    report = workspace / "r.txt"
    replace = os.replace

    def replace_but_not_the_device(source, target):
        # An opener that moved a file onto the device would, run as root,
        # replace the system's /dev/null; fail the test instead.
        assert os.path.realpath(target) != os.path.realpath(os.devnull)
        replace(source, target)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "replace", replace_but_not_the_device)
        assert main(_transform_argv(workspace, "--out", os.devnull, "--lineage", os.devnull,
                                    "--report", str(report))) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert report.read_text(encoding="utf-8") == "no fidelity loss: every step is exact\n"


def _out_is_a_symlink(workspace):
    link, file = workspace / "link.csv", _old(workspace / "file.csv")
    link.symlink_to(file)
    assert main(_transform_argv(workspace, "--out", str(link))) == 0
    assert link.is_symlink() and link.resolve() == file.resolve()
    assert file.read_bytes() == _transformed(workspace)


def _new_output_mode(workspace):
    umask = os.umask(0o027)
    try:
        assert main(_transform_argv(workspace, "--out", str(workspace / "o.csv"))) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE((workspace / "o.csv").stat().st_mode) == 0o666 & ~0o027


def _existing_output_mode(workspace):
    out = _old(workspace / "o.csv")
    out.chmod(0o604)
    assert main(_transform_argv(workspace, "--out", str(out))) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o604
    assert out.read_bytes() == _transformed(workspace)


def _out_is_the_data(workspace):
    expected = _transformed(workspace)
    assert main(_transform_argv(workspace, "--out", str(workspace / "data.csv"))) == 0
    assert (workspace / "data.csv").read_bytes() == expected


@pytest.mark.parametrize("case", [
    _out_is_a_device, _out_is_a_symlink, _new_output_mode, _existing_output_mode,
    _out_is_the_data,
], ids=["dev_null", "symlink", "new_mode", "existing_mode", "out_is_data"])
def test_output_written_where_open_would_write_it(workspace, case):
    case(workspace)


def _report_links_to_out(workspace):
    out, report = _old(workspace / "x"), workspace / "r.txt"
    report.symlink_to(out)
    return "--out", out, "--lineage", workspace / "l.json", "--report", report


@pytest.mark.parametrize("outputs", [
    lambda w: ("--out", w / "x", "--lineage", w / "x"),
    lambda w: ("--out", w / "x", "--report", f"{w}/./x"),
    _report_links_to_out,
], ids=["out_is_lineage", "out_is_report", "report_links_to_out"])
def test_two_outputs_that_name_one_file_exit_1(workspace, capsys, outputs):
    """Each output file is moved into place once written, so a second output
    of the same file would replace the first: the command is refused before
    any output is opened, and nothing is written."""
    outputs = [str(o) for o in outputs(workspace)]
    before = {path: path.read_bytes() for path in workspace.iterdir() if path.is_file()}
    out = _fails_cleanly(_transform_argv(workspace, *outputs), capsys, 1,
                         f"error: outputs {outputs[1]} and {outputs[-1]} are the same file\n")
    assert {path: path.read_bytes() for path in workspace.iterdir() if path.is_file()} == before
    assert "written to" not in out and "transformed" not in out


BOM = b"\xef\xbb\xbf"

# How a spreadsheet or an editor may save a file; each reads as the original.
SAVED_AS = {
    "bom": lambda raw: BOM + raw,
    "trailing_blank_line": lambda raw: raw + b"\n",
    "bom_crlf_blank_line": lambda raw: BOM + raw.replace(b"\n", b"\r\n") + b"\r\n",
}


@pytest.mark.parametrize("saved_as", sorted(SAVED_AS))
def test_saved_data_file_transforms_like_the_original(tmp_path, saved_as):
    data = tmp_path / "rows.csv"
    data.write_bytes(SAVED_AS[saved_as](ROWS.read_bytes()))
    out = tmp_path / "out.csv"
    assert main(["transform", "--pipeline", str(DATA / "covertype_300_model_ready.fitted.json"),
                 "--data", str(data), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "covertype_300_model_ready.csv").read_bytes()


@pytest.mark.parametrize("saved_as", sorted(SAVED_AS))
def test_saved_contribution_file_maps_like_the_original(tmp_path, saved_as):
    contribs = tmp_path / "contribs.csv"
    contribs.write_bytes(
        SAVED_AS[saved_as]((DATA / "covertype_300_contribs_learned.csv").read_bytes()))
    out = tmp_path / "mapped.csv"
    assert main(["explain-map", "--expose-flags",
                 "--pipeline", str(DATA / "covertype_300_learned.fitted.json"),
                 "--contribs", str(contribs), "--out", str(out)]) == 0
    expected = DATA / "covertype_300_explain_learned_flags.csv"
    for produced, pinned in ((out, expected), (f"{out}.fidelity.txt", f"{expected}.fidelity.txt")):
        assert Path(produced).read_bytes() == Path(pinned).read_bytes()


def test_fitted_document_with_a_bom_loads(tmp_path):
    doc = tmp_path / "bom.fitted.json"
    doc.write_bytes(BOM + (DATA / "covertype_300_model_ready.fitted.json").read_bytes())
    out = tmp_path / "out.csv"
    assert main(["transform", "--pipeline", str(doc), "--data", str(ROWS),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "covertype_300_model_ready.csv").read_bytes()


# Each of these was once a TypeError traceback, or read as empty, instead of exit 1.
@pytest.mark.parametrize("argv_for, message", [
    (lambda w: _audit(w, ORIGINAL_MANIFEST.replace(
        FIRST_FLAGS, FIRST_FLAGS + "\n    1: x\n    b: y", 1)),
     "features[0]: unknown keys [1, 'b']"),
    (lambda w: _audit(w, ORIGINAL_MANIFEST.replace(
        FIRST_FLAGS, FIRST_FLAGS + "\n    wording: {1: x, zz: y}", 1)),
     "features[0].wording: unknown keys [1, 'zz']"),
    (lambda w: _audit(w, ORIGINAL_MANIFEST.replace(FIRST_FLAGS, "properties: [1, zz]", 1)),
     "unknown property flags: ['1', 'zz']"),
    (lambda w: _audit(w, ORIGINAL_MANIFEST.replace(FIRST_FLAGS, "properties: [[a]]", 1)),
     "unknown property flags: [\"['a']\"]"),
    (lambda w: _audit(w, persona="kind: developer\n1: x\nz: y\n"),
     "persona config: unknown keys [1, 'z']"),
    (lambda w: _audit(w, persona="kind: developer\nrequired: [1, zz]\n"),
     "unknown property flags: ['1', 'zz']"),
    (lambda w: _audit(w, persona="kind: developer\nrequired: 5\n"),
     "persona.yaml: required must be a list, got 5"),
    (lambda w: _audit(w, persona="kind: developer\navoid: 5\n"),
     "persona.yaml: avoid must be a list, got 5"),
    (lambda w: _audit(w, persona="kind: developer\nrequired: [[a]]\n"),
     "unknown property flags: [\"['a']\"]"),
    (lambda w: _audit(w, ORIGINAL_MANIFEST + "implications: 0\n"),
     "implications must be a list"),
    (lambda w: _audit(w, ORIGINAL_MANIFEST + "implications: [[bogus, readable]]\n"),
     "implication references unknown property: bogus=>readable"),
    (lambda w: _audit(w, "space_tag: original\nfeatures: []\n"
                         "implications: [[bogus, readable]]\n"),
     "implication references unknown property: bogus=>readable"),
    (lambda w: _audit(w, ORIGINAL_MANIFEST + "1: x\nzz: y\n"), "manifest: unknown keys [1, 'zz']"),
    (lambda w: _one_step(w, "standardize", {"feature": "Elevation", 1: "x", "zz": "y"}),
     "step 1 (standardize): config: unknown keys [1, 'zz']"),
    (lambda w: _one_step(w, "standardize", {"feature": "Elevation"},
                         {"Elevation": {1: True, "zz": True}}),
     "step.yaml: step 1 (standardize): property_delta references unknown flags: [1, 'zz']"),
    (lambda w: _one_step(w, "standardize", 0),
     "step.yaml: step 1 (standardize): config must be a mapping"),
    (lambda w: _one_step(w, "standardize", {"feature": "Elevation"}, 0),
     "step.yaml: step 1 (standardize): property_delta must be a mapping"),
], ids=["feature_key", "wording_key", "property_list", "property_nested_list", "persona_key",
        "persona_required", "persona_required_5", "persona_avoid_5", "persona_required_nested",
        "implications_0", "implication_flag", "implication_flag_no_features",
        "manifest_key", "config_key",
        "property_delta_flag", "config_0", "property_delta_0"])
def test_malformed_document_value_exits_1(workspace, capsys, argv_for, message):
    _fails_cleanly(argv_for(workspace) + ["--out", str(workspace / "out")], capsys, 1, message)


@pytest.mark.parametrize("tail, message", [
    ("steps: 0\n", "pipeline.yaml: steps must be a list"),
    ("steps: []\n1: x\nzz: y\n", "pipeline document: unknown keys [1, 'zz']"),
], ids=["steps_0", "top_level_keys"])
def test_malformed_pipeline_top_level_exits_1(workspace, capsys, tail, message):
    (workspace / "pipeline.yaml").write_text(
        ENCODE_PIPELINE[:ENCODE_PIPELINE.index("steps:")] + tail, encoding="utf-8")
    _fails_cleanly(_transform_argv(workspace, "--out", str(workspace / "o.csv")), capsys, 1,
                   message)


def test_fit_on_a_fitted_document_says_so(tmp_path, capsys):
    path = DATA / "covertype_300_model_ready.fitted.json"
    _fails_cleanly(["fit", "--pipeline", str(path), "--data", str(ROWS),
                    "--out", str(tmp_path / "f.json")], capsys, 1,
                   f"error: {path}: fit takes a pipeline document, not a fitted one\n")


def test_failed_write_leaves_no_file(workspace, capsys):
    argv = _one_step(workspace, "standardize", {"feature": "Elevation",
                                                "target": "Elevation Standardized",
                                                "display_format": "d"})
    out = workspace / "out.csv"
    _fails_cleanly(argv + ["--out", str(out)], capsys, 1,
                   "column 'Elevation Standardized': display format 'd'")
    assert not out.exists()
