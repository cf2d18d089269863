"""The JSON writer: its bytes are ``json.dumps(doc, sort_keys=True,
indent=2)``'s and a newline, for any document and for the ensemble and
aggregate files."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kbens import (
    AggregateModel, Embedding, EmbeddingConfig, Ensemble, FitReport, KnowledgeBase, TrainConfig,
    build_aggregate, fit_ensemble, parse_kb,
)
from kbens.jsonfile import Field, Records, dumps, scalar, spelled

from conftest import hand_made_ensemble

STORES = Path(__file__).resolve().parent.parent / "tools" / "stores"

SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-05, 1e22, math.inf, -math.inf, math.nan]
FLOATS = st.floats() | st.sampled_from(SPECIAL_FLOATS)
# Escapes, a non-ASCII letter, a CJK name, a C0 control, a surrogate pair.
TEXT = st.text() | st.sampled_from(['"', "\\", "é", "知识", "\x01", "\U0001f600", ""])
SCALARS = st.none() | st.booleans() | st.integers(-2**64, 2**64) | FLOATS | TEXT


# Names a template must escape (its braces, and what another template
# language would use), JSON escapes and non-ASCII names, and any other.
MEMBER_NAMES = st.sampled_from(
    ["{", "}", "{}", "{0}", "{{x}}", "%", "%s", '"', "\\", "é", "知识", "\U0001f600", "a{b}%\"\\c"]
) | st.text(max_size=4)


class Block:
    """Records of one layout, with or without names, in a generated document."""

    def __init__(self, layout, records, names):
        self.layout, self.records, self.names = layout, records, names


def filled(layout, record):
    """``layout`` with each :class:`Field` replaced by its value in ``record``."""
    if isinstance(layout, Field):
        return record[layout.index]
    if isinstance(layout, list):
        return [filled(item, record) for item in layout]
    if isinstance(layout, dict):
        return {key: filled(item, record) for key, item in layout.items()}
    return layout


@st.composite
def blocks(draw):
    width, count = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    leaves = SCALARS | st.builds(Field, st.integers(0, width - 1)) if width else SCALARS
    layout = draw(st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=3) | st.dictionaries(TEXT, children, max_size=3),
        max_leaves=8,
    ))
    records = draw(st.lists(st.lists(SCALARS, min_size=width, max_size=width),
                            min_size=count, max_size=count))
    names = draw(st.none() | st.lists(MEMBER_NAMES | TEXT, min_size=count, max_size=count, unique=True))
    return Block(layout, records, names)


DOCS = st.recursive(
    SCALARS | blocks(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=20,
)


def with_blocks(doc, block):
    """``doc`` with each :class:`Block` replaced by ``block(it)``."""
    if isinstance(doc, Block):
        return block(doc)
    if isinstance(doc, list):
        return [with_blocks(item, block) for item in doc]
    if isinstance(doc, dict):
        return {key: with_blocks(item, block) for key, item in doc.items()}
    return doc


def as_records(block):
    values = [[scalar(v) for v in record] for record in block.records]
    return Records(block.layout, values, block.names)


def as_documents(block):
    docs = [filled(block.layout, record) for record in block.records]
    return docs if block.names is None else dict(zip(block.names, docs))


def reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(DOCS)
@example({"m": [Block({"a": [Field(0), {"}": Field(1)}], "b": "{0}"}, [[1, "{0}"], [None, 2.5]], ["{", "}"]),
                Block([Field(0), [Field(0)]], [["x"], [math.nan], [-0.0], [True]], ["{0}", "%", '"', "\\"]),
                Block(Field(0), [], []), Block({"k": []}, [], None), Block({}, [[], []], None)]})
def test_writes_the_bytes_of_json_dumps(doc):
    assert dumps(with_blocks(doc, as_records)) == reference(with_blocks(doc, as_documents))


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


def lone_cloud(cloud, members=1):
    """A hand-built aggregate of one entity ``e`` whose cloud is ``cloud``."""
    member = Embedding(("e",), (), np.zeros((1, 2)), np.zeros((0, 2)), EmbeddingConfig(dimension=2), 0)
    return AggregateModel(tuple(range(members)), hand_made_ensemble([member]), {"e": cloud}, {},
                          {"e": 0.0})


@pytest.mark.parametrize("array", [np.zeros(3), np.zeros((1, 1, 1)), np.array([[True]])])
def test_rows_are_a_2d_block_of_numbers(array):
    # A cloud is written as one block of rows, so it must be a 2-D float array.
    with pytest.raises(ValueError, match="^the cloud of 'e' must be a float array"):
        lone_cloud(array)


def test_rows_keep_python_spellings_and_write_json_ones():
    agg = lone_cloud(np.array([[math.inf, -math.inf], [math.nan, 1.5]]), members=2)
    assert spelled(agg.entity_clouds["e"]) == ["inf", "-inf", "nan", "1.5"]
    assert agg.clouds_tsv() == "e\t0\tinf\t-inf\ne\t1\tnan\t1.5\n"
    assert agg.to_json() == reference(agg.to_doc())
    assert ('"e": [\n      [\n        Infinity,\n        -Infinity\n      ],\n'
            '      [\n        NaN,\n        1.5\n      ]\n    ]') in agg.to_json()


def test_spelled_numbers_are_reprs_in_row_major_order():
    assert spelled(np.array([[math.inf, -math.inf], [math.nan, -0.0]])) == ["inf", "-inf", "nan", "-0.0"]
    assert spelled([np.array([[5e-324, 1e16]]), np.array([[1e-05, 1e22]])]) == [
        "5e-324", "1e+16", "1e-05", "1e+22"]
    assert spelled(np.array([[-3, 2**62]])) == ["-3", str(2**62)]
    assert spelled(np.zeros((0, 2))) == []


@pytest.mark.parametrize("store, dimension, members, tolerance", [
    ("friends", 1, 32, 1e-6), ("wide", 2, 8, 1e-6), ("chain", 1, 32, 1e-2),
])
def test_ensemble_and_aggregate_files(store, dimension, members, tolerance):
    kb = parse_kb((STORES / f"{store}.kb").read_text(encoding="utf-8"))
    ens = fit_ensemble(kb, EmbeddingConfig(dimension=dimension), TrainConfig(), 7, members)
    assert ens.to_json() == reference(ens.to_doc())
    agg = build_aggregate(ens, dedup_tolerance=tolerance)
    assert agg.to_json() == reference(agg.to_doc())


SEEDS = st.sampled_from([0, -1, -2**63, 2**63 - 1, 2**63, 2**64, 2**64 + 5]) | st.integers(-2**70, 2**70)


@settings(max_examples=150, deadline=None)
@given(
    names=st.lists(MEMBER_NAMES, max_size=6, unique=True),
    split=st.integers(0, 6),
    d=st.integers(1, 4),
    seeds=st.lists(SEEDS, min_size=1, max_size=3, unique=True) | st.lists(SEEDS, min_size=32,
                                                                      max_size=32, unique=True),
    scale=st.sampled_from([1.0, 1e-300, 1e300]),
)
@example(names=["{0}", "}", "%s", '"', "\\", "é"], split=3, d=2, seeds=[-1, 2**63], scale=1.0)
@example(names=[], split=0, d=1, seeds=[7], scale=1.0)
def test_ensemble_file_is_json_dumps_of_its_document(names, split, d, seeds, scale):
    # The names keep the order drawn, so a member's rows are not in key order.
    entities, relations = tuple(names[:split]), tuple(names[split:])
    rng = np.random.default_rng(len(names) + 7 * d + len(seeds))
    config = EmbeddingConfig(dimension=d)
    members = [Embedding(entities, relations, rng.normal(size=(len(entities), d)) * scale,
                         rng.normal(size=(len(relations), d)) * scale, config, seed)
               for seed in seeds]
    reports = [FitReport(float(rng.uniform(0.0, 1e-4)), int(rng.integers(0, 5000)), True, seed)
               for seed in seeds]
    ens = Ensemble(members, "digest \"{0}\" %s", reports)
    assert ens.to_json() == reference(ens.to_doc())


@pytest.mark.parametrize("d", [1, 4])
def test_file_of_the_empty_store(d):
    kb = KnowledgeBase((), (), ())
    ens = fit_ensemble(kb, EmbeddingConfig(dimension=d), TrainConfig(), -3, 4)
    assert ens.to_json() == reference(ens.to_doc())
    assert '"entities": {},' in ens.to_json()


def test_records_of_a_layout():
    layout = {"b": [Field(1), "{0}"], "a": Field(0), "%": {"}": Field(1)}}
    doc = dumps([Records(layout, [["1", "true"], ['"x"', "null"]]), Records(layout, [])])
    assert doc == reference([[{"%": {"}": True}, "a": 1, "b": [True, "{0}"]},
                              {"%": {"}": None}, "a": "x", "b": [None, "{0}"]}], []])
