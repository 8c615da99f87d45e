"""Documents at the boundary: every mapping of a manifest, pipeline, persona or
fitted document rejects a key it does not know, whatever the key's type, and
a document saved with Windows line ends or a byte-order mark reads as the
original."""

from __future__ import annotations

import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from featurespace.cli import main
from featurespace.pipeline import load_fitted, load_pipeline
from featurespace.planner import load_persona
from featurespace.schema import load_manifest

from _fitted_documents import DATA, DEMO, ROWS

PERSONA = {"kind": "ethicist", "required": ["readable", "trackable"],
           "avoid": ["one_hot_encode"], "require_all": True}

# name: (document, file it is written to, argv that reads it)
DOCUMENTS = {
    "manifest": (
        yaml.safe_load((DEMO / "covertype_original.yaml").read_text(encoding="utf-8")),
        "manifest.yaml", ["audit", "--manifest", "{dir}/manifest.yaml", "--persona", "developer"]),
    "persona": (
        PERSONA, "persona.yaml",
        ["audit", "--manifest", "{dir}/covertype_original.yaml",
         "--persona", "{dir}/persona.yaml"]),
    **{f"pipeline_{name}": (
        yaml.safe_load((DEMO / f"pipeline_{name}.yaml").read_text(encoding="utf-8")),
        "pipeline.yaml", ["fit", "--pipeline", "{dir}/pipeline.yaml", "--data", str(ROWS)])
       for name in ("model_ready", "interpretable")},
    **{f"fitted_{name}": (
        json.loads((DATA / f"covertype_300_{name}.fitted.json").read_text(encoding="utf-8")),
        "fitted.json", ["transform", "--pipeline", "{dir}/fitted.json", "--data", str(ROWS)])
       for name in ("model_ready", "interpretable", "learned")},
}

# No document has a key that starts with "zz" or is not text.
KEYS = st.one_of(st.integers(), st.floats(), st.booleans(), st.none(),
                 st.text(max_size=4).map(lambda text: "zz" + text))
VALUES = st.one_of(st.none(), st.integers(), st.text(max_size=4),
                   st.dictionaries(st.text(max_size=4), st.integers(), max_size=2))


def _mappings(node) -> list[dict]:
    """Every mapping in a document, the document itself first."""
    found = [node] if isinstance(node, dict) else []
    if isinstance(node, (dict, list)):
        for child in node.values() if isinstance(node, dict) else node:
            found += _mappings(child)
    return found


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("documents")
    shutil.copy(DEMO / "covertype_original.yaml", path)
    return path


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_key_added_to_any_mapping_exits_1(workdir, data):
    name = data.draw(st.sampled_from(sorted(DOCUMENTS)))
    document, filename, argv = DOCUMENTS[name]
    document = json.loads(json.dumps(document))
    mapping = data.draw(st.sampled_from(_mappings(document)))
    mapping[data.draw(KEYS)] = data.draw(VALUES)
    text = (json.dumps(document) if filename.endswith(".json")  # a JSON key is text
            else yaml.safe_dump(document, sort_keys=False))
    (workdir / filename).write_text(text, encoding="utf-8")
    argv = [arg.format(dir=workdir) for arg in argv] + ["--out", str(workdir / "out")]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        assert main(argv) == 1  # a traceback would be an uncaught exception
    assert err.getvalue().startswith("error: ")


SAVED_AS = {
    "crlf": lambda raw: raw.replace(b"\n", b"\r\n"),
    "bom_crlf": lambda raw: b"\xef\xbb\xbf" + raw.replace(b"\n", b"\r\n"),
}


@pytest.mark.parametrize("saved_as", sorted(SAVED_AS))
@pytest.mark.parametrize("load, original", [
    (load_pipeline, DEMO / "pipeline_interpretable.yaml"),
    (load_manifest, DEMO / "covertype_original.yaml"),
    (load_fitted, DATA / "covertype_300_learned.fitted.json"),
    (load_persona, None),
], ids=["pipeline", "manifest", "fitted", "persona"])
def test_saved_document_loads_as_the_original(tmp_path, load, original, saved_as):
    if original is None:
        original = tmp_path / "persona.yaml"
        original.write_text(yaml.safe_dump(PERSONA), encoding="utf-8")
    saved = tmp_path / f"saved{original.suffix}"
    saved.write_bytes(SAVED_AS[saved_as](original.read_bytes()))
    shutil.copy(DEMO / "covertype_original.yaml", tmp_path)
    assert b"\r\n" in saved.read_bytes()
    assert load(saved) == load(original)
