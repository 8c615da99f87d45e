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


def _loaders(monkeypatch) -> list:
    """The loader of each ``yaml.load`` call from now on, ``safe_load``'s
    ``SafeLoader`` included."""
    used, load = [], yaml.load

    def spy(stream, Loader):
        used.append(Loader)
        return load(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", spy)
    return used


needs_libyaml = pytest.mark.skipif(schema._LIBYAML_LOADER is None,
                                   reason="PyYAML built without libyaml")
C_LOADER = getattr(yaml, "CSafeLoader", None)  # None without libyaml


@needs_libyaml
def test_bundled_documents_take_the_libyaml_path(monkeypatch):
    """The package's own documents compose in C; every document of the
    tests' data parses with libyaml, but the larger manifests have more
    than ``_C_COMPOSER_DEPTH`` indicator characters and compose in Python."""
    used = _loaders(monkeypatch)
    for path in DOCUMENTS:
        used.clear()
        load_yaml(path.read_text(encoding="utf-8"))
        assert used in ([C_LOADER], [schema._LIBYAML_LOADER]), path
        if path.parent == DEMO_DIR:
            assert used == [C_LOADER], path


def _nested_mappings(depth: int) -> str:
    """Mappings of one key each nested ``depth`` levels deep, around a scalar."""
    return "".join(f"{'  ' * i}k{i}:\n" for i in range(depth - 1)) + "  " * (depth - 1) + "a"


# Texts whose depth, and one more than their count of indicator characters,
# is just under the C composer's bound or at it; and a text of two levels
# with more indicator characters than the bound.
BOUND = schema._C_COMPOSER_DEPTH
BOUNDARY_TEXTS = {
    "block_sequences_under": ("- " * (BOUND - 2) + "a", C_LOADER),
    "block_sequences_at": ("- " * (BOUND - 1) + "a", schema._LIBYAML_LOADER),
    "flow_sequences_under": ("[" * (BOUND - 2) + "a" + "]" * (BOUND - 2), C_LOADER),
    "flow_sequences_at": ("[" * (BOUND - 1) + "a" + "]" * (BOUND - 1), schema._LIBYAML_LOADER),
    "mappings_under": (_nested_mappings(BOUND - 1), C_LOADER),
    "mappings_at": (_nested_mappings(BOUND), schema._LIBYAML_LOADER),
    "shallow_many_indicators": ("".join(f"- k-{i}: a-b:c ? d\n" for i in range(BOUND)),
                                schema._LIBYAML_LOADER),
}


@needs_libyaml
@pytest.mark.parametrize("name", BOUNDARY_TEXTS)
def test_texts_at_the_c_composer_bound_load_as_safe_load_does(monkeypatch, name):
    text, loader = BOUNDARY_TEXTS[name]
    expected = _outcome(yaml.safe_load, text)
    used = _loaders(monkeypatch)
    assert _outcome(load_yaml, text) == expected
    assert used == [loader]


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
