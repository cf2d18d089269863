"""The one home of the layout of the JSON files kbens writes: the ensemble
file and the aggregate file.

:func:`dumps` returns exactly ``json.dumps(doc, sort_keys=True, indent=2)``
plus a newline: keys sorted, a two-space indent, ``encode_basestring_ascii``
escapes, ``true`` / ``false`` / ``null``, ``int.__repr__``, and
``float.__repr__`` with ``NaN`` / ``Infinity`` / ``-Infinity``.  With an
indent, the standard encoder of CPython 3.13 and earlier runs in pure
Python, one call per number; here a block of coordinates is a
:class:`Rows` value, whose numbers :func:`rows` formats in one pass and
whose rows are laid out from one template per row width.
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
class Rows:
    """A 2-D block of numbers, written as the JSON array of its rows or,
    with ``names``, as the object mapping each name to its row.  ``numbers``
    holds each number's ``repr``, row-major, with Python's ``inf`` / ``nan``
    spellings (a TSV writes them as they are); ``shape`` is the row count and
    the row width; ``finite`` says whether every number is finite, so that
    only a block with ``inf`` or ``nan`` is respelled for JSON."""

    numbers: list[str]
    shape: tuple[int, int]
    names: Optional[Sequence[str]] = None
    finite: bool = True


def rows(array: np.ndarray, names: Optional[Sequence[str]] = None) -> Rows:
    """Format every number of a 2-D integer or float array at once: one
    ``tolist`` and one ``repr`` pass."""
    array = np.asarray(array)
    if array.ndim != 2 or array.dtype.kind not in "fiu":
        raise TypeError(f"rows must be a 2-D array of numbers, not {array.dtype} {array.shape}")
    numbers = list(map(repr, array.ravel().tolist()))
    return Rows(numbers, array.shape, names, bool(np.isfinite(array).all()))


def dumps(doc: object) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, byte for byte,
    where ``doc`` may also hold :class:`Rows` values."""
    out: list[str] = []
    _encode(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _encode(value: object, newline: str, out: list[str]) -> None:
    # ``newline`` is a line break and the indentation of the line ``value`` starts on.
    inner = newline + _INDENT
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, Rows):
        out.append(_rows(value, newline))
    elif isinstance(value, (list, tuple)) and value:
        for i, item in enumerate(value):
            out.append(("," if i else "[") + inner)
            _encode(item, inner, out)
        out.append(newline + "]")
    elif isinstance(value, dict) and value:
        for i, (key, item) in enumerate(sorted(value.items())):
            out.append(("," if i else "{") + inner + encode_basestring_ascii(_key(key)) + ": ")
            _encode(item, inner, out)
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        out.append("[]")
    elif isinstance(value, dict):
        out.append("{}")
    else:
        out.append(_scalar(value))


def _scalar(value: object) -> str:
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
        return _scalar(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _rows(block: Rows, newline: str) -> str:
    count, width = block.shape
    inner = newline + _INDENT
    if width:
        numbers = iter(block.numbers if block.finite else
                       [_CONSTANTS.get(s, s) for s in block.numbers])
        line = "," + inner + _INDENT
        template = "[" + line[1:] + line.join(["{}"] * width) + inner + "]"
        items = list(map(template.format, *[numbers] * width))
    else:
        items = ["[]"] * count
    brackets = "[]"
    if block.names is not None:
        brackets = "{}"
        items = [encode_basestring_ascii(name) + ": " + item
                 for name, item in sorted(zip(block.names, items))]
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]
