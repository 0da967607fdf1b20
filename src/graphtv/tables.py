"""Text formats of the pipeline files: CSV tables and canonical JSON.

Every table and JSON file the package reads or writes goes through here.
Tables are comma-separated lines, numbers written with 17 significant
digits so a float64 survives a write/read round trip exactly.  A writer
formats each row with one ``%`` format; a reader parses the rows with
numpy's C reader (:func:`read_array`) and reads the file again row by row
(:func:`read_rows`) only to name the line of an error or to convert the
cells only Python accepts.  JSON is canonical (sorted keys, indent 2,
trailing newline), so identical content gives identical bytes, and
strict: a missing value is ``null``, never ``NaN``.
"""

import json
import warnings

import numpy as np

from .errors import ParseError

# a float with 17 significant digits: enough to round-trip any float64
_FLOAT = "%.17g"


def fmt(x):
    """One float cell, formatted as :data:`_FLOAT`."""
    return _FLOAT % float(x)


def write_table(path, header, lines):
    """Write the ``header`` cells, then each of ``lines``, already joined.

    The whole text is joined in memory and written at once.
    """
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([",".join(header), *lines]) + "\n")


def read_array(fh, dtype, ndmin):
    """numpy's C reader (``np.loadtxt``) on the rest of an open file.

    Returns None where the reader raises ValueError, and an empty array,
    without a warning, for a file with no data rows.  Its integer parser
    takes a strict subset of what ``int`` takes, and its float parser
    rounds as ``float`` does.
    """
    try:
        with warnings.catch_warnings():
            # the callers' row loops report an empty file
            warnings.filterwarnings(
                "ignore", "loadtxt: input contained no data", UserWarning
            )
            return np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=ndmin)
    except ValueError:
        return None


def read_rows(fh):
    """Yield ``(lineno, cells)`` for each non-blank line of an open file.

    ``lineno`` is 1-based and counts blank lines; cells are the stripped
    line split on commas.
    """
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if line:
            yield lineno, line.split(",")


def convert_cells(converters, cells, lineno):
    """Convert each cell by its converter, pairing the two sequences in order.

    A ValueError of a converter becomes a :class:`ParseError` at ``lineno``.
    """
    try:
        return [convert(c) for convert, c in zip(converters, cells)]
    except ValueError as exc:
        raise ParseError(str(exc), line=lineno) from exc


def json_text(doc):
    """Canonical JSON text of ``doc``; NaN and Inf raise ValueError."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path, doc):
    """Write :func:`json_text` of ``doc`` to ``path``, untouched if that raises."""
    text = json_text(doc)
    with open(path, "w") as fh:
        fh.write(text)
