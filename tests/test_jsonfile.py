"""The JSON writer: its bytes are ``json.dumps(doc, sort_keys=True,
indent=2)``'s and a newline, for any document and for the ensemble and
aggregate files."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbens import EmbeddingConfig, TrainConfig, build_aggregate, fit_ensemble, parse_kb
from kbens.jsonfile import dumps, rows

STORES = Path(__file__).resolve().parent.parent / "tools" / "stores"

SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-05, 1e22, math.inf, -math.inf, math.nan]
FLOATS = st.floats() | st.sampled_from(SPECIAL_FLOATS)
# Escapes, a non-ASCII letter, a CJK name, a C0 control, a surrogate pair.
TEXT = st.text() | st.sampled_from(['"', "\\", "é", "知识", "\x01", "\U0001f600", ""])


class Block:
    """An array, with or without row names, in a generated document."""

    def __init__(self, array, names):
        self.array, self.names = array, names


@st.composite
def blocks(draw):
    count, width = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    floating = draw(st.booleans())
    numbers = FLOATS if floating else st.integers(-2**63, 2**63 - 1)
    values = draw(st.lists(numbers, min_size=count * width, max_size=count * width))
    array = np.array(values, dtype=np.float64 if floating else np.int64).reshape(count, width)
    names = draw(st.none() | st.lists(TEXT, min_size=count, max_size=count, unique=True))
    return Block(array, names)


SCALARS = st.none() | st.booleans() | st.integers(-2**64, 2**64) | FLOATS | TEXT
DOCS = st.recursive(
    SCALARS | blocks(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=20,
)


def with_blocks(doc, block):
    """``doc`` with each :class:`Block` replaced by ``block(array, names)``."""
    if isinstance(doc, Block):
        return block(doc.array, doc.names)
    if isinstance(doc, list):
        return [with_blocks(item, block) for item in doc]
    if isinstance(doc, dict):
        return {key: with_blocks(item, block) for key, item in doc.items()}
    return doc


def as_lists(array, names):
    return array.tolist() if names is None else dict(zip(names, array.tolist()))


def reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(DOCS)
def test_writes_the_bytes_of_json_dumps(doc):
    assert dumps(with_blocks(doc, rows)) == reference(with_blocks(doc, as_lists))


@pytest.mark.parametrize("doc", [
    {}, [], {"": [[]]}, [[[], {}]], 2**64, -2**64, True, False, None, {"k": (1, 2.5)},
    {1: "a", 2.5: "b", math.inf: "c"}, {False: 0}, {None: 0}, {"é\"\\": ["知识\x01"]},
    [-0.0, 5e-324, 1e16, 1e-05, math.inf, -math.inf, math.nan],
], ids=repr)
def test_edge_documents(doc):
    assert dumps(doc) == reference(doc)


@pytest.mark.parametrize("doc", [{"a": object()}, [{1, 2}], {(): 1}, np.float32(1.0)])
def test_what_json_cannot_write_raises_type_error(doc):
    with pytest.raises(TypeError):
        json.dumps(doc)
    with pytest.raises(TypeError):
        dumps(doc)


@pytest.mark.parametrize("array", [np.zeros(3), np.zeros((1, 1, 1)), np.array([[True]])])
def test_rows_are_a_2d_block_of_numbers(array):
    with pytest.raises(TypeError, match="2-D array of numbers"):
        rows(array)


def test_rows_keep_python_spellings_and_write_json_ones():
    block = rows(np.array([[math.inf, -math.inf], [math.nan, 1.5]]))
    assert block.numbers == ["inf", "-inf", "nan", "1.5"] and not block.finite
    assert dumps(block) == "[\n  [\n    Infinity,\n    -Infinity\n  ],\n  [\n    NaN,\n    1.5\n  ]\n]\n"


@pytest.mark.parametrize("store, dimension, members, tolerance", [
    ("friends", 1, 32, 1e-6), ("wide", 2, 8, 1e-6), ("chain", 1, 32, 1e-2),
])
def test_ensemble_and_aggregate_files(store, dimension, members, tolerance):
    kb = parse_kb((STORES / f"{store}.kb").read_text(encoding="utf-8"))
    ens = fit_ensemble(kb, EmbeddingConfig(dimension=dimension), TrainConfig(), 7, members)
    assert ens.to_json() == reference(ens.to_doc())
    agg = build_aggregate(ens, dedup_tolerance=tolerance)
    assert agg.to_json() == reference(agg.to_doc())
