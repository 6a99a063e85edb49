"""``rdl``'s JSON artifacts against ``json.dumps(indent=2, sort_keys=True)``.

``cli._indented`` hands each flat list or dict, and each list of non-empty
flat rows, to the C encoder in one call, and splits the rows at their
boundaries.  Its output must equal the pure-Python encoder's byte for byte
on any document with str keys: nested and empty dicts and lists, tuples,
rows that are empty or hold bools and None, strings with non-ASCII, quote,
control and row-boundary characters, huge and negative ints, -0.0, NaN and
the infinities.
"""

import json
import math

from hypothesis import given, settings, strategies as st

from ramseydensity.cli import _indented, _write_json

TRICKY = ['"', "\\", "\x00\x1f\x7f", "é", " ", "😀", "],\n  [", "]]", "[", ": "]

texts = st.text(max_size=8) | st.sampled_from(TRICKY)
scalars = (st.none() | st.booleans() | st.integers() | st.integers(-10 ** 60, 10 ** 60)
           | st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf]) | texts)
rows = st.lists(st.lists(st.integers() | st.booleans() | st.none(), max_size=4), max_size=6)
documents = st.recursive(
    scalars | rows,
    lambda kids: (st.lists(kids, max_size=5) | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(texts, kids, max_size=5)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(documents)
def test_document_bytes_equal_the_pure_python_encoder(doc):
    assert _indented(doc, "\n") == json.dumps(doc, indent=2, sort_keys=True)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(texts, st.lists(scalars, min_size=1, max_size=4), max_size=4),
       st.dictionaries(texts, documents, max_size=4))
def test_artifact_bytes_equal_the_pure_python_encoder(tmp_path_factory, config, payload):
    path = tmp_path_factory.mktemp("json") / "doc.json"
    meta = {"command": "mfmc", "config": config, "seed": -3, "version": "0.1.0"}
    _write_json(str(path), meta, payload)
    want = json.dumps({"meta": meta, **payload}, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == want.encode()


def test_rows_and_flat_lists_of_a_certificate():
    # the shape of an rdl mfmc artifact: h is rows of ints, Z a flat list
    doc = {"D": 5, "h": [[0, 7, 2], [1, 7, 1], [3, 9, 2]], "Z": [7, 9],
           "empty": [], "nested": {"rows": [[True, None], [-0.0]], "none": {}}}
    assert _indented(doc, "\n") == json.dumps(doc, indent=2, sort_keys=True)
