"""``schema.load_yaml`` against ``yaml.safe_load``: the same data or the same error,
with libyaml and without it."""

from __future__ import annotations

from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from featurespace import schema
from featurespace.pipeline import load_pipeline
from featurespace.schema import load_yaml

DEMO_DIR = Path(schema.__file__).parent / "demo"
DATA_DIR = Path(__file__).parent / "data"
DOCUMENTS = sorted(DEMO_DIR.glob("*.yaml")) + sorted(DATA_DIR.glob("*.yaml"))

# YAML's indicators, tags, anchors, directives and line breaks, the scalars
# the resolver types, and the characters where readers differ: tab, CR, NEL,
# NBSP, U+FEFF, line and paragraph separators, control, astral and lone
# surrogate characters.
TOKENS = [
    "-", "- ", "?", "? ", ":", ": ", ",", "[", "]", "{", "}", "#", " #", "&", "*",
    "!", "|", ">", "'", '"', "%", "@", "`", "\\", "|-", "|+", ">-", ">+", "|2", ">1-",
    "!!", "!!str ", "!!int ", "!!float ", "!!bool ", "!!null ", "!!map ", "!!seq ",
    "!!set ", "!!omap ", "!!binary ", "!!timestamp ", "!local ", "!e!x ",
    "!<tag:yaml.org,2002:str> ",
    "&a ", "*a", "&b ", "*b", "<<: ",
    "%YAML 1.1\n", "%YAML 1.2\n", "%TAG !e! tag:example.com,2000:\n", "%FOO bar\n",
    "---", "--- ", "...", "...\n",
    " ", "  ", "\n", "\t", "\r", "\r\n", "\x85", "\xa0", "\ufeff", "\u2028", "\u2029",
    "a", "key", "0", "1", "-1", "0x1F", "0o17", "017", "1.5", "1e3", ".5", ".inf",
    "-.inf", ".nan", "1_000", "190:20:30", "~", "null", "Null", "true", "False", "yes",
    "on", "off", "2001-12-14", "2001-12-14t21:59:43.10-05:00", "=", "\\x41", "\\u263a",
    "\U0001F600", "\U00010000", "\x00", "\x01", "\x07", "\x1b", "\x7f", "\x80", "\x9f",
    "\ud800", "\udfff", "\ufffe", "\uffff",
]
TEXTS = st.lists(st.one_of(st.sampled_from(TOKENS), st.characters()), max_size=40).map("".join)


def _outcome(load, text):
    """The data ``load`` returns, or the type and message of what it raises."""
    try:
        return "data", repr(load(text))
    except Exception as exc:  # compared, so an unexpected type fails the test
        return type(exc), str(exc)


@settings(max_examples=2000, deadline=None)
@given(TEXTS)
@example("!")                # an empty node tagged ! is None, not ''
@example("a: !\n")
@example("\n\ufeffa")        # U+FEFF after position 0 is kept
@example("a\ufeffb")
@example("a\t")              # a tab after a plain scalar is an error
@example("a: |#\n x")        # a block-scalar header followed by # is an error
@example(">-#\n")
@example("!!int |#|}")       # libyaml's path raises IndexError here
@example("a: \ud800")        # and UnicodeEncodeError on a lone surrogate
@example("\ufeffa: 1")
def test_load_yaml_matches_safe_load(text):
    expected = _outcome(yaml.safe_load, text)
    assert _outcome(load_yaml, text) == expected


def test_deep_nesting_raises_recursion_error_not_a_crash():
    # yaml.CSafeLoader composes in C and overflows the C stack here.
    text = "- " * 100_000 + "a"
    with pytest.raises(RecursionError):
        load_yaml(text)


@pytest.mark.skipif(schema._LIBYAML_LOADER is None, reason="PyYAML built without libyaml")
def test_bundled_documents_take_the_libyaml_path(monkeypatch):
    def refuse(text):
        raise AssertionError("parsed with PyYAML's Python parser")

    monkeypatch.setattr(yaml, "safe_load", refuse)
    for path in DOCUMENTS:
        load_yaml(path.read_text(encoding="utf-8"))


def test_without_libyaml_every_document_reads_alike(monkeypatch):
    texts = [path.read_text(encoding="utf-8") for path in DOCUMENTS]
    pipeline_paths = [DEMO_DIR / "pipeline_model_ready.yaml",
                      DEMO_DIR / "pipeline_interpretable.yaml"]
    data = [load_yaml(text) for text in texts]
    pipelines = [load_pipeline(path) for path in pipeline_paths]
    monkeypatch.setattr(schema, "_LIBYAML_LOADER", None)
    assert [load_yaml(text) for text in texts] == data
    assert data == [yaml.safe_load(text) for text in texts]
    for path, pipeline in zip(pipeline_paths, pipelines):
        again = load_pipeline(path)
        assert again.input_schema == pipeline.input_schema
        assert again.steps == pipeline.steps
        assert again.output_schema == pipeline.output_schema
