"""Text formats of the pipeline files: CSV tables and canonical JSON.

Every table and JSON file the package reads or writes goes through here.
Tables are comma-separated lines, numbers written with 17 significant
digits so a float64 survives a write/read round trip exactly.  JSON is
canonical (sorted keys, indent 2, trailing newline), so identical
content gives identical bytes, and strict: a missing value is ``null``,
never ``NaN``.
"""

import json

from .errors import ParseError


def fmt(x):
    """A float with 17 significant digits: enough to round-trip any float64."""
    return format(float(x), ".17g")


def write_table(path, header, rows):
    """Write the ``header`` cells, then one line per row of cell strings.

    The whole text is joined in memory and written at once.
    """
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([",".join(header), *map(",".join, rows)]) + "\n")


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
