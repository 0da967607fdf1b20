"""Table readers and writers against their row-by-row and per-cell references.

The readers parse with numpy's C reader and fall back to a Python row loop;
the tests draw texts that take either path and assert the same values, or
the same error type, message and line, as the row loop alone.  The writers
format a row at a time and must give the bytes of per-cell formatting.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphtv.datasets import (
    load_features_csv,
    load_labels_csv,
    write_features_csv,
    write_labels_csv,
)
from graphtv.errors import NonFiniteError, ParseError
from graphtv.solver import Prediction, read_scores_csv, write_scores_csv
from oracles import (
    reference_load_labels_csv,
    reference_read_scores_csv,
    reference_write_features_csv,
    reference_write_labels_csv,
    reference_write_scores_csv,
)

BEYOND_INT64 = "99999999999999999999"
# integer cells ``int`` reads and numpy may not, cells neither reads, and
# ids out of range
ODD_INTS = [" 1 ", "+1", "-0", "1.0", "1_0", "0x1", "1e3", "\u0661", "",
            BEYOND_INT64, "-" + BEYOND_INT64, "9223372036854775807", "-3"]
ODD_SCORES = ["nan", "inf", "-inf", "1e400", "-0.0", "1_0", "\u0661", "x", ""]


def file_bytes(draw, lines):
    """``lines`` joined with drawn line endings, sometimes after a BOM."""
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    bom = "\ufeff" if draw(st.integers(0, 7)) == 0 else ""
    return (bom + text).encode("utf-8")


def blank(draw):
    """One line in six is blank or whitespace only."""
    return draw(st.integers(0, 5)) == 0


def odd_int(draw, cell):
    """``cell`` unchanged most of the time, else one of its odd spellings."""
    if draw(st.integers(0, 7)):
        return cell
    return draw(st.sampled_from(
        [f"+{cell}", f" {cell} ", f"0{cell}", f"{cell}.0", f"{cell}_0", *ODD_INTS]
    ))


@st.composite
def labels_texts(draw):
    """A labels CSV as bytes, mostly well-formed, 0 to 4 rows."""
    lines = [draw(st.sampled_from(
        ["node,class"] * 6 + [" node,class ", "node, class", "", "class,node"]
    ))]
    for _ in range(draw(st.integers(0, 4))):
        if blank(draw):
            lines.append(draw(st.sampled_from(["", "   "])))
            continue
        width = 2 if draw(st.integers(0, 7)) else draw(st.sampled_from([1, 3]))
        ids = draw(st.lists(st.integers(0, 99).map(str),
                            min_size=width, max_size=width))
        lines.append(",".join(odd_int(draw, c) for c in ids))
    return file_bytes(draw, lines)


def implied(cells):
    """The label and tie cells a row of score cells implies, if it does."""
    try:
        prediction = Prediction([[float(c) for c in cells]])
    except (ValueError, NonFiniteError):
        return "0", "0"
    return str(prediction.labels[0]), str(int(prediction.tie_flag[0]))


@st.composite
def scores_texts(draw):
    """A scores CSV as bytes, mostly well-formed, 0 to 4 rows."""
    n_classes = draw(st.integers(2, 3))
    head = ",".join(
        ["node", *(f"score_{k}" for k in range(n_classes)), "label", "tie"]
    )
    lines = [head if draw(st.integers(0, 7)) else draw(st.sampled_from(
        ["", " " + head, head.replace("score_0", "score_1"), "node,score_0,label,tie"]
    ))]
    # small integers make ties
    number = st.one_of(st.floats(-1e6, 1e6).map(repr), st.integers(-2, 2).map(str))
    cell = st.integers(0, 11).flatmap(
        lambda i: st.sampled_from(ODD_SCORES) if i == 0 else number
    )
    for i in range(draw(st.integers(0, 4))):
        if blank(draw):
            lines.append(draw(st.sampled_from(["", "  "])))
            continue
        scores = draw(st.lists(cell, min_size=n_classes, max_size=n_classes))
        node = str(i) if draw(st.integers(0, 5)) else str(i + 1)  # out of order
        label, tie = implied(scores)
        if draw(st.integers(0, 9)) == 0:
            label = str(1 - int(label))
        if draw(st.integers(0, 9)) == 0:
            tie = str(1 - int(tie))
        cells = [odd_int(draw, node), *scores, odd_int(draw, label), odd_int(draw, tie)]
        if draw(st.integers(0, 15)) == 0:
            cells.pop()
        pad = draw(st.sampled_from(["", " "]))
        lines.append(",".join(pad + c + pad for c in cells))
    return file_bytes(draw, lines)


def outcome(read, path):
    """The arrays a reader returns, or the type, message and line it raises."""
    try:
        result = read(path)
    except ParseError as exc:
        return type(exc), str(exc), exc.line
    if isinstance(result, Prediction):
        result = (result.scores.view(np.int64), result.labels, result.tie_flag)
    return [(a.dtype.str, a.shape, a.tolist()) for a in result]  # sign bits too


@settings(max_examples=300, deadline=None)
@given(data=labels_texts())
@example(data=b"node,class\n0,1\n" + BEYOND_INT64.encode() + b",0\n")
@example(data=b"node,class\n")
@example(data=b"node,class\r\n\xef\xbc\x91,1\r\n")
def test_labels_csv_matches_row_by_row_reader(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("csv") / "l.csv"
    path.write_bytes(data)
    assert outcome(load_labels_csv, path) == outcome(reference_load_labels_csv, path)


@settings(max_examples=300, deadline=None)
@given(data=scores_texts())
@example(data=b"node,score_0,score_1,label,tie\n0,1e400,0,0,0\n")
@example(data=b"node,score_0,score_1,label,tie\n0,1,1,0,1\n1,2,1,0,0\n")
@example(data=b"node,score_0,score_1,label,tie\n0,1,1,0,1\n1,1,1,0,0\n")
def test_scores_csv_matches_row_by_row_reader(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("csv") / "s.csv"
    path.write_bytes(data)
    assert outcome(read_scores_csv, path) == outcome(reference_read_scores_csv, path)


# floats whose 17-digit text is easy to get wrong; the extremes only in rows
# of equal scores, where a score gap cannot overflow
SMALL = [-0.0, 0.0, 5e-324, -5e-324, 1.0, -3.0, 2.0**53, 1e16, 0.1]
EXTREME = [1.7976931348623157e308, -1.7976931348623157e308]


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def written(tmp_path_factory, write, reference, *args):
    """The bytes of ``write`` and ``reference`` on ``args``, and the path of
    the first."""
    base = tmp_path_factory.mktemp("out")
    fast, ref = base / "fast.csv", base / "ref.csv"
    write(fast, *args)
    reference(ref, *args)
    return fast.read_bytes(), ref.read_bytes(), fast


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 4).flatmap(lambda d: st.lists(
    st.lists(st.one_of(st.sampled_from(SMALL + EXTREME), st.floats(allow_nan=False,
             allow_infinity=False)), min_size=d, max_size=d),
    min_size=2, max_size=6,
)))
def test_features_writer_matches_per_cell_writer(tmp_path_factory, rows):
    values = np.array(rows)
    fast, ref, path = written(tmp_path_factory, write_features_csv,
                              reference_write_features_csv, values)
    assert fast == ref
    assert same_bits(load_features_csv(path).values, values)


@st.composite
def id_columns(draw):
    """Two id columns as one numpy integer dtype, or as Python lists."""
    dtype = draw(st.sampled_from([None, np.int8, np.uint8, np.int32, np.int64,
                                  np.uint64]))
    top = np.iinfo(np.int64 if dtype is None else dtype).max
    size = draw(st.integers(1, 6))
    ids = st.lists(st.integers(0, min(top, np.iinfo(np.int64).max)),
                   min_size=size, max_size=size)
    nodes, classes = draw(ids), draw(ids)
    if dtype is None:
        return nodes, classes
    return np.array(nodes, dtype=dtype), np.array(classes, dtype=dtype)


@settings(max_examples=100, deadline=None)
@given(columns=id_columns())
def test_labels_writer_matches_per_cell_writer(tmp_path_factory, columns):
    fast, ref, path = written(tmp_path_factory, write_labels_csv,
                              reference_write_labels_csv, *columns)
    assert fast == ref
    nodes, classes = load_labels_csv(path)
    assert nodes.tolist() == list(map(int, columns[0]))
    assert classes.tolist() == list(map(int, columns[1]))


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(2, 4).flatmap(lambda n_classes: st.lists(
    st.one_of(
        st.lists(st.one_of(st.sampled_from(SMALL), st.floats(-1e300, 1e300)),
                 min_size=n_classes, max_size=n_classes),
        st.sampled_from(SMALL + EXTREME).map(lambda x: [x] * n_classes),
    ),
    min_size=1, max_size=6,
)))
def test_scores_writer_matches_per_cell_writer(tmp_path_factory, rows):
    prediction = Prediction(rows)
    fast, ref, path = written(tmp_path_factory, write_scores_csv,
                              reference_write_scores_csv, prediction)
    assert fast == ref
    back = read_scores_csv(path)
    assert same_bits(back.scores, prediction.scores)
    assert np.array_equal(back.labels, prediction.labels)
    assert np.array_equal(back.tie_flag, prediction.tie_flag)
