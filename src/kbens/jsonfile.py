"""The one home of the layout of the JSON files kbens writes: the ensemble
file and the aggregate file.

:func:`dumps` returns exactly ``json.dumps(doc, sort_keys=True, indent=2)``
plus a newline: keys sorted, a two-space indent, ``encode_basestring_ascii``
escapes, ``true`` / ``false`` / ``null``, ``int.__repr__``, and
``float.__repr__`` with ``NaN`` / ``Infinity`` / ``-Infinity``.  With an
indent, the standard encoder of CPython 3.13 and earlier runs in pure
Python, one call per number; here documents that share one layout (the
ensemble's members, its reports, the aggregate's clouds of one kind) are a
:class:`Records` value, laid out from one template of that layout and
filled with each record's values, whose numbers :func:`spelled` formats in
one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

import numpy as np

_INDENT = "  "

# float.__repr__'s spellings of the non-finite numbers, and JSON's.
_CONSTANTS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@dataclass(frozen=True)
class Field:
    """Where a :class:`Records` layout takes each record's ``index``-th value."""

    index: int


@dataclass(frozen=True)
class Records:
    """The JSON array of documents that share one ``layout`` or, with
    ``names``, the object mapping each name to its document, keys sorted: a
    document with a :class:`Field` wherever a record has a value of its
    own.  ``values`` holds each record's values, already spelled as JSON
    (:func:`scalar`, or the ``repr`` of a finite float)."""

    layout: object
    values: Sequence[Sequence[str]]
    names: Optional[Sequence[str]] = None


def spelled(array: object) -> list[str]:
    """Every number of an array, row-major, as ``repr`` spells it (``inf``
    and ``nan`` too, as a TSV writes them): one ``tolist`` and one ``repr``
    pass."""
    return list(map(repr, np.ravel(array).tolist()))


def dumps(doc: object) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, byte for byte,
    where ``doc`` may also hold :class:`Records` values."""
    out: list[str] = []
    _encode(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _encode(value: object, newline: str, out: list[str]) -> None:
    # ``newline`` is a line break and the indentation of the line ``value``
    # starts on.  A template's fields and lists come first: a template is
    # mostly those.
    if isinstance(value, Field):
        out.append(f"\x00{value.index}\x01")
    elif isinstance(value, (list, tuple)) and value:
        inner = newline + _INDENT
        for i, item in enumerate(value):
            out.append(("," if i else "[") + inner)
            _encode(item, inner, out)
        out.append(newline + "]")
    elif isinstance(value, Records):
        out.append(_records(value, newline))
    elif isinstance(value, dict) and value:
        inner = newline + _INDENT
        for i, (key, item) in enumerate(sorted(value.items())):
            out.append(("," if i else "{") + inner + encode_basestring_ascii(_key(key)) + ": ")
            _encode(item, inner, out)
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        out.append("[]")
    elif isinstance(value, dict):
        out.append("{}")
    else:
        out.append(scalar(value))


def scalar(value: object) -> str:
    """A string's, number's, boolean's or ``None``'s JSON text, as
    :func:`dumps` writes it."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _CONSTANTS.get(text, text)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key(key: object) -> str:
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return scalar(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _records(records: Records, newline: str) -> str:
    brackets = "[]" if records.names is None else "{}"
    if not records.values:
        return brackets
    inner = newline + _INDENT
    fill = _template(records.layout, inner).format
    items = [fill(*v) for v in records.values]
    if records.names is not None:
        items = [encode_basestring_ascii(name) + ": " + item
                 for name, item in sorted(zip(records.names, items))]
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _template(layout: object, newline: str) -> str:
    # ``layout`` as _encode writes it, as a str.format template: every brace
    # doubled, then each field's mark, between two control characters that
    # encode_basestring_ascii escapes in every string and key, made its
    # numbered replacement field.
    out: list[str] = []
    _encode(layout, newline, out)
    text = "".join(out).replace("{", "{{").replace("}", "}}")
    return text.replace("\x00", "{").replace("\x01", "}")
