"""The one writer of the package's JSON documents and CSV tables.

The bytes are the standard library's: a document is what
``json.dumps(doc, indent=2, default=float)`` writes for it with every ndarray
as its ``tolist()``, and a table is what ``csv.writer`` writes for the header
and for each row's cells as ``format(v, ".17g")``.  Float arrays are
rendered a row at a time through one precomputed ``%``-template instead of
value by value: ``%r`` is the ``float.__repr__`` that json spells finite
floats with, and ``%.17g`` is the formatting ``format(v, ".17g")`` does,
``nan`` and ``inf`` included.  In JSON an array that is empty, not of a float
dtype or not all finite goes through json itself, which spells ``NaN`` and
``Infinity`` its own way.
"""
from __future__ import annotations

import csv
import json
from typing import Sequence

import numpy as np

# what an array the template renders stands for in the stdlib's text: the
# string "\x00", which json spells "\u0000" (ASCII output escapes it)
_HELD = "\x00"
_MARK = json.dumps(_HELD)
# CSV rows formatted per write: the text of a whole table is never held at
# once (a 3001-row trajectory as one string raised the peak RSS by 1.9 MB)
_BLOCK = 256


def _plain(obj):
    """json's fallback for what it cannot encode: arrays as nested lists,
    anything else (numpy integers, bools) as float."""
    return obj.tolist() if isinstance(obj, np.ndarray) else float(obj)


def _bracket(items: list[str], indent: int) -> str:
    """A JSON list of already rendered items at indent=2, its opening bracket
    on a line indented by ``indent`` spaces."""
    inner = "\n" + " " * (indent + 2)
    return "[" + inner + ("," + inner).join(items) + "\n" + " " * indent + "]"


def _template(shape: tuple, indent: int) -> str:
    """One sub-array of the given shape, with a ``%r`` slot per value."""
    if not shape:
        return "%r"
    return _bracket([_template(shape[1:], indent + 2)] * shape[0], indent)


def _render(arr: np.ndarray, indent: int) -> str:
    row = _template(arr.shape[1:], indent + 2)
    return _bracket(
        [row % tuple(r) for r in arr.reshape(len(arr), -1).tolist()], indent
    )


def dumps(doc) -> str:
    """``json.dumps(doc, indent=2, default=float)``, ndarrays as nested lists."""
    held = []

    def hold(obj):
        if (
            isinstance(obj, np.ndarray)
            and obj.dtype.kind == "f"
            and obj.ndim
            and obj.size
            and np.isfinite(obj).all()
        ):
            held.append(obj)
            return _HELD
        return _plain(obj)

    pieces = json.dumps(doc, indent=2, default=hold).split(_MARK)
    if len(pieces) != len(held) + 1:  # a string of the document spells the mark
        return json.dumps(doc, indent=2, default=_plain)
    out = [pieces[0]]
    for arr, after in zip(held, pieces[1:]):
        # the array opens on the mark's line and closes at that line's indent
        line = out[-1][out[-1].rfind("\n") + 1:]
        out += [_render(arr, len(line) - len(line.lstrip(" "))), after]
    return "".join(out)


def write_table(path, header: Sequence[str], table: np.ndarray) -> None:
    """A CSV file: the header, then one row per row of the 2-D float table."""
    row = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(table), _BLOCK):
            block = table[start:start + _BLOCK].tolist()
            fh.write("".join([row % tuple(r) for r in block]))
