"""CLI subcommands and the exit-code contract."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest
import yaml

from featurespace import cli
from featurespace.cli import main
from featurespace.pipeline import load_fitted
from featurespace.table import read_table_csv

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

DATA_CSV = """Elevation,Wilderness area
3179,Comache Peak
3123,Comache Peak
2157,Rawah
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
    ``corrupt`` applied to its standardize step (steps[1])."""
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
    _transform_fails_cleanly(workspace, capsys, path, "steps[1]", field)


@pytest.mark.parametrize("document", ["pipeline", "fitted"])
@pytest.mark.parametrize("value", ["false", "no", 1, None])
def test_non_boolean_property_flag_exits_1(workspace, capsys, document, value):
    def corrupt(step):
        step["property_delta"] = {"Elevation": {"meaningful": value}}

    path = _corrupted_document(workspace, document, corrupt)
    _transform_fails_cleanly(workspace, capsys, path, "steps[1]", "property_delta")


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


def test_audit_command(workspace, capsys):
    out = workspace / "report.json"
    code = main(["audit", "--manifest", str(workspace / "original.yaml"),
                 "--persona", "decision_maker", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["persona"] == "decision_maker"
    assert main(["audit", "--manifest", str(workspace / "original.yaml"),
                 "--persona", "not-a-persona", "--out", str(out)]) == 1


def test_demo_covertype_passes(tmp_path, capsys):
    assert main(["demo-covertype", "--out", str(tmp_path / "demo")]) == 0
    captured = capsys.readouterr().out
    assert captured.count("PASS") == 6
    assert "FAIL" not in captured


def test_demo_covertype_missing_data_exits_1(tmp_path):
    assert main(["demo-covertype", "--data", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "demo")]) == 1


@pytest.mark.parametrize("content, message", [
    (b"Slope,Elevation\n1,3000\n2,\n3,3100\n", None),
    (b"\xff\xfeElevation\n", "cannot read data file"),
    (b"Elevation\n3000\nabc\n", "cannot parse number from 'abc'"),
    (b"Elevation\n3000\n3000\n", "constant"),
    (b"Elevation\n\n", "no observed values"),
], ids=["stats_differ", "not_utf8", "bad_cell", "constant", "empty"])
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
        assert message in captured.err


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


@pytest.mark.parametrize("name, corrupt, message", [
    ("model_ready", _short_loadings, "step 4 (pca_project)"),
    ("learned", _short_edges, "step 2 (statistical_bin)"),
    ("learned", _min_above_max, "min must be < max"),
    ("learned", _mean_without_scale, "mean and scale together"),
    ("learned", _stray_pca_mean, "unknown keys ['mean']"),
    ("learned", _nan_in_pca_means, "means must be a finite number"),
    ("model_ready", _nan_configured_scale, "scale must be a finite number"),
    ("model_ready", _fit_state_on_configured_step, "fit_state must be null"),
], ids=["pca_loadings", "bin_edges", "bin_min_max", "standardize_scale",
        "pca_stray_key", "pca_nan_mean", "configured_nan_scale",
        "configured_with_fit_state"])
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
    inputs = {"--pipeline": workspace / "pipeline.yaml", "--data": workspace / "data.csv",
              "--contribs": workspace / "contribs.csv",
              "--manifest": workspace / "original.yaml",
              "--persona": workspace / "persona.yaml"}
    inputs["--contribs"].write_text(
        "Area Rawah,Area Neota,Area Comache Peak,Area Cache la Poudre,Elevation\n"
        "0.1,0.0,0.0,0.0,0.2\n", encoding="utf-8")
    inputs["--persona"].write_text("kind: developer\n", encoding="utf-8")
    inputs[bad] = workspace / "bad.txt"
    inputs[bad].write_bytes(NOT_UTF8)
    argv = [command, "--out", str(workspace / "out")]
    for option in options:
        argv += [option, str(inputs[option])]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert str(inputs[bad]) in err
    assert "Traceback" not in err


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
    assert "steps[0] property_delta references unknown flags: ['bogus']" in err
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
     "semantic_bin: keep_original must be true or false, got 'false'"),
    (lambda w: _one_step(w, "aggregate_numeric", {
        "inputs": ["Elevation"], "formula": "sum", "target": "Height",
        "keep_inputs": "false"}),
     "aggregate_numeric: keep_inputs must be true or false, got 'false'"),
    (lambda w: _one_step(w, "statistical_bin", {"feature": "Elevation", "bins": 2.5,
                                                "target": "Band"}),
     "statistical_bin: bins must be an integer, got 2.5"),
    (lambda w: _one_step(w, "statistical_bin", {"feature": "Elevation", "bins": True,
                                                "target": "Band"}),
     "statistical_bin: bins must be an integer, got True"),
    (lambda w: _one_step(w, "pca_project", {"inputs": ["Elevation"], "components": 1.9}),
     "pca_project: components must be an integer, got 1.9"),
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
    (_fitted_mean_true, "standardize: mean must be a finite number, got True"),
    (lambda w: _audit(w, ORIGINAL_MANIFEST.replace(
        FIRST_FLAGS, FIRST_FLAGS + "\n    description: 5", 1)),
     "features[0]: description must be a string, got 5"),
    (lambda w: _one_step(w, "aggregate_numeric", {**HEIGHT, "description": ["tall"]}),
     "aggregate_numeric: description must be a string, got ['tall']"),
    (lambda w: _one_step(w, "hierarchy_rollup", {**REGIONS, "description": False}),
     "hierarchy_rollup: description must be a string, got False"),
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


def _fails_cleanly(argv, capsys, code, *messages):
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    for message in messages:
        assert message in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("formula", ["sum", {"expr": "a * b"}], ids=["sum", "expr"])
def test_overflow_to_infinity_exits_2(workspace, capsys, formula):
    (workspace / "original.yaml").write_text(TWO_NUMBERS_MANIFEST, encoding="utf-8")
    (workspace / "data.csv").write_text("a,b\n1.0,2.0\n1e308,1e308\n", encoding="utf-8")
    argv = _one_step(workspace, "aggregate_numeric", {
        "inputs": ["a", "b"], "formula": formula, "target": "t"})
    _fails_cleanly(argv + ["--out", str(workspace / "out.csv")], capsys, 2,
                   "kernel error: step 1 (aggregate_numeric): row 1: "
                   "feature 't': non-finite value inf")
    assert not (workspace / "out.csv").exists()


@pytest.mark.parametrize("kind, config, column, message", [
    ("standardize", {"feature": "a"}, ["1.5e308", "1.4e308"],
     "step 1 (standardize): standardize: mean must be a finite number, got inf"),
    ("impute_flagged", {"feature": "a", "strategy": "mean"}, ["1.5e308", "1.4e308", ""],
     "step 1 (impute_flagged): feature 'a': non-finite value inf"),
    ("standardize", {"feature": "a"}, ["1e200", "-1e200"],
     "step 1 (standardize): fitting overflows the float range"),
], ids=["infinite_state", "infinite_mean", "overflow"])
def test_fit_beyond_the_float_range_exits_2(workspace, capsys, kind, config, column, message):
    (workspace / "original.yaml").write_text(TWO_NUMBERS_MANIFEST, encoding="utf-8")
    rows = [f"{value},1.0" for value in column]
    (workspace / "data.csv").write_text("\n".join(["a,b", *rows]) + "\n", encoding="utf-8")
    out = workspace / "fitted.json"
    # ``fit`` with the --pipeline and --data options of the ``transform --fit`` argv.
    argv = ["fit", *_one_step(workspace, kind, config)[2:], "--out", str(out)]
    _fails_cleanly(argv, capsys, 2, "kernel error: " + message)
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
                   capsys, 1, "error: PCA component 1: squared loadings overflow")


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
])
def test_plan_errors_name_the_step(workspace, capsys, kind, config, message):
    _fails_cleanly(_one_step(workspace, kind, config) + ["--out", str(workspace / "o.csv")],
                   capsys, 1, message)


AREAS = ["Rawah", "Neota", "Comache Peak", "Cache la Poudre"]


@pytest.mark.parametrize("restore, message", [
    ({"dtype": "categorical", "categories": AREAS, "bogus": 1},
     "one_hot_decode.restore: unknown config keys ['bogus']"),
    ({"dtype": "categorical", "categories": ["a", "a"]},
     "feature 'g': duplicate category labels"),
    ({"dtype": "categorical", "categories": AREAS, "observed": "yes"},
     "one_hot_decode.restore: observed must be true or false, got 'yes'"),
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


def _explain_map_argv(workspace, out):
    contribs = workspace / "contribs.csv"
    contribs.write_text("Area Rawah,Area Neota,Area Comache Peak,Area Cache la Poudre,"
                        "Elevation\n0.1,0,0,0,0.4\n", encoding="utf-8")
    return ["explain-map", "--pipeline", str(workspace / "pipeline.yaml"),
            "--contribs", str(contribs), "--out", str(out)]


def _sidecar_is_a_directory(workspace):
    (workspace / "mapped.csv.fidelity.txt").mkdir()
    return _explain_map_argv(workspace, workspace / "mapped.csv"), "mapped.csv.fidelity.txt"


def _transform_argv(workspace, *extra):
    return ["transform", "--pipeline", str(workspace / "pipeline.yaml"),
            "--data", str(workspace / "data.csv"), *extra]


@pytest.mark.parametrize("argv_for", [
    lambda w: (_transform_argv(w, "--out", str(w / "gone" / "o.csv")), "gone"),
    lambda w: (_transform_argv(w, "--out", str(w / "o.csv"),
                               "--lineage", str(w / "gone" / "l.json")), "gone"),
    lambda w: (["fit", "--pipeline", str(w / "pipeline.yaml"), "--data", str(w / "data.csv"),
                "--out", str(w / "gone" / "f.json")], "gone"),
    lambda w: (["audit", "--manifest", str(w / "original.yaml"), "--persona", "developer",
                "--out", str(w / "gone" / "a.json")], "gone"),
    lambda w: (["invert", "--pipeline", str(w / "pipeline.yaml"),
                "--out", str(w / "gone" / "i.json")], "gone"),
    lambda w: (["demo-covertype", "--out", str(w / "data.csv" / "demo")], "data.csv/demo"),
    lambda w: (_explain_map_argv(w, w / "gone" / "m.csv"), "gone"),
    _sidecar_is_a_directory,
], ids=["transform_out", "transform_lineage", "fit_out", "audit_out", "invert_out",
        "demo_out", "explain_map_out", "explain_map_sidecar"])
def test_unwritable_output_exits_1(workspace, capsys, argv_for):
    argv, path = argv_for(workspace)
    _fails_cleanly(argv, capsys, 1, str(workspace / path))


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
    (lambda w: _audit(w, ORIGINAL_MANIFEST + "1: x\nzz: y\n"), "manifest: unknown keys [1, 'zz']"),
    (lambda w: _one_step(w, "standardize", {"feature": "Elevation", 1: "x", "zz": "y"}),
     "standardize: unknown config keys [1, 'zz']"),
    (lambda w: _one_step(w, "standardize", {"feature": "Elevation"},
                         {"Elevation": {1: True, "zz": True}}),
     "steps[0] property_delta references unknown flags: [1, 'zz']"),
    (lambda w: _one_step(w, "standardize", 0), "steps[0] config must be a mapping"),
    (lambda w: _one_step(w, "standardize", {"feature": "Elevation"}, 0),
     "steps[0] property_delta must be a mapping"),
], ids=["feature_key", "wording_key", "property_list", "property_nested_list", "persona_key",
        "persona_required", "persona_required_5", "persona_avoid_5", "persona_required_nested",
        "implications_0", "manifest_key", "config_key",
        "property_delta_flag", "config_0", "property_delta_0"])
def test_malformed_document_value_exits_1(workspace, capsys, argv_for, message):
    _fails_cleanly(argv_for(workspace) + ["--out", str(workspace / "out")], capsys, 1, message)


@pytest.mark.parametrize("tail, message", [
    ("steps: 0\n", "pipeline document: steps must be a list"),
    ("steps: []\n1: x\nzz: y\n", "pipeline document: unknown keys [1, 'zz']"),
], ids=["steps_0", "top_level_keys"])
def test_malformed_pipeline_top_level_exits_1(workspace, capsys, tail, message):
    (workspace / "pipeline.yaml").write_text(
        ENCODE_PIPELINE[:ENCODE_PIPELINE.index("steps:")] + tail, encoding="utf-8")
    _fails_cleanly(_transform_argv(workspace, "--out", str(workspace / "o.csv")), capsys, 1,
                   message)


def test_fit_on_a_fitted_document_says_so(tmp_path, capsys):
    _fails_cleanly(["fit", "--pipeline", str(DATA / "covertype_300_model_ready.fitted.json"),
                    "--data", str(ROWS), "--out", str(tmp_path / "f.json")], capsys, 1,
                   "input_manifest must be the path of a manifest file (fit takes a "
                   "pipeline document, not a fitted one)")


def test_failed_write_leaves_no_file(workspace, capsys):
    argv = _one_step(workspace, "standardize", {"feature": "Elevation",
                                                "target": "Elevation Standardized",
                                                "display_format": "d"})
    out = workspace / "out.csv"
    _fails_cleanly(argv + ["--out", str(out)], capsys, 1,
                   "column 'Elevation Standardized': display format 'd'")
    assert not out.exists()
