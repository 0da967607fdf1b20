"""Generators, partitioning, and CSV ingestion."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from graphtv import make_partition, synth_sbm, synth_two_moons
from graphtv.datasets import (
    load_features_csv,
    load_labels_csv,
    truth_from_pairs,
    write_features_csv,
    write_labels_csv,
)
from graphtv.errors import (
    FractionTooSmallError,
    GenerationFailedError,
    ParseError,
    ShapeMismatchError,
)
from graphtv.graph import FeatureMatrix
from oracles import dense_sbm, reference_load_features_csv


# ------------------------------------------------------------------- moons


def test_two_moons_noiseless_geometry():
    feats, truth = synth_two_moons(4, 0.0, 0)
    assert truth.tolist() == [0, 0, 1, 1]
    pts = feats.values
    # moon 0 lies on the unit circle at the origin, moon 1 on the unit
    # circle at (1, 0.5)
    assert np.linalg.norm(pts[:2], axis=1) == pytest.approx([1.0, 1.0])
    assert np.linalg.norm(pts[2:] - np.array([1.0, 0.5]), axis=1) == pytest.approx(
        [1.0, 1.0]
    )


def test_two_moons_balance_and_determinism():
    feats_a, truth = synth_two_moons(500, 0.1, 12)
    assert np.bincount(truth).tolist() == [250, 250]
    feats_b, _ = synth_two_moons(500, 0.1, 12)
    assert np.array_equal(feats_a.values, feats_b.values)
    feats_c, _ = synth_two_moons(500, 0.1, 13)
    assert not np.array_equal(feats_a.values, feats_c.values)


def test_two_moons_validation():
    with pytest.raises(ValueError, match="even"):
        synth_two_moons(5, 0.1, 0)
    with pytest.raises(ValueError):
        synth_two_moons(2, 0.1, 0)
    with pytest.raises(ValueError, match="noise"):
        synth_two_moons(10, -0.5, 0)


# --------------------------------------------------------------------- sbm


def test_sbm_extremes():
    graph, truth = synth_sbm((3, 3), 1.0, 0.0, 0)
    assert truth.tolist() == [0, 0, 0, 1, 1, 1]
    dense = graph.csr.toarray()
    assert np.all(dense[:3, :3] + np.eye(3) == 1.0)  # within-block complete
    assert np.all(dense[:3, 3:] == 0.0)  # across-block empty
    assert connected_components(graph.csr, directed=False)[0] == 2

    complete, _ = synth_sbm((3, 3), 1.0, 1.0, 0)
    assert complete.num_edges == 15
    assert connected_components(complete.csr, directed=False)[0] == 1


def test_sbm_deterministic_per_seed():
    a, _ = synth_sbm((20, 20), 0.5, 0.02, 7)
    b, _ = synth_sbm((20, 20), 0.5, 0.02, 7)
    assert np.array_equal(a.csr.toarray(), b.csr.toarray())
    c, _ = synth_sbm((20, 20), 0.5, 0.02, 8)
    assert not np.array_equal(a.csr.toarray(), c.csr.toarray())


def test_sbm_validation_names_parameter():
    with pytest.raises(ValueError, match="p_out"):
        synth_sbm((5, 5), 0.5, 1.5, 0)
    with pytest.raises(ValueError, match="p_in"):
        synth_sbm((5, 5), -0.1, 0.0, 0)
    with pytest.raises(ValueError):
        synth_sbm((1, 5), 0.5, 0.1, 0)


def test_sbm_gives_up_when_isolated_nodes_persist():
    with pytest.raises(GenerationFailedError):
        synth_sbm((2, 2), 0.01, 0.0, 3)


@pytest.mark.parametrize(
    "sizes, p_in, p_out, seed",
    [
        ((20, 20), 0.5, 0.02, 7),
        ((2, 2), 0.3, 0.1, 1),  # the 11th attempt is the first isolate-free one
        ((3, 3), 1.0, 0.0, 0),
        ((3, 3), 1.0, 1.0, 0),
        ((4, 5), 0.0, 1.0, 2),
        ((7, 3, 12), 0.6, 0.05, 4),
    ],
)
def test_sbm_matches_dense_oracle_exactly(sizes, p_in, p_out, seed):
    graph, truth = synth_sbm(sizes, p_in, p_out, seed)
    oracle, oracle_truth = dense_sbm(sizes, p_in, p_out, seed)
    assert np.array_equal(graph.csr.indptr, oracle.csr.indptr)
    assert np.array_equal(graph.csr.indices, oracle.csr.indices)
    assert np.array_equal(graph.csr.data, oracle.csr.data)
    assert np.array_equal(graph.degrees, oracle.degrees)
    assert np.array_equal(truth, oracle_truth)


def test_sbm_resampled_draw_continues_the_stream():
    assert dense_sbm((2, 2), 0.3, 0.1, 1, max_attempts=10) is None
    assert dense_sbm((2, 2), 0.3, 0.1, 1, max_attempts=11) is not None


def test_sbm_memory_stays_below_one_dense_matrix():
    n = 4000
    tracemalloc.start()
    try:
        synth_sbm((1500, 1500, 1000), 0.05, 0.005, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


# --------------------------------------------------------------- partition


def test_partition_stratification_floor():
    truth = np.array([0] * 50 + [1] * 50)
    cons, part = make_partition(truth, 2, 0.02, 0)
    assert cons.n_labeled == 2
    assert all(len(ix) == 1 for ix in cons.labeled)
    assert part.eval_indices.size == 98
    assert not part.degenerate


def test_partition_full_fraction_is_degenerate_not_error():
    truth = np.array([0, 0, 1, 1])
    cons, part = make_partition(truth, 2, 1.0, 0)
    assert cons.n_labeled == 4
    assert part.eval_indices.size == 0
    assert part.degenerate


def test_partition_seeds_move_but_counts_hold():
    truth = np.array([0] * 40 + [1] * 30 + [2] * 30)
    cons_a, _ = make_partition(truth, 3, 0.1, 1)
    cons_b, _ = make_partition(truth, 3, 0.1, 2)
    counts_a = [len(ix) for ix in cons_a.labeled]
    counts_b = [len(ix) for ix in cons_b.labeled]
    assert counts_a == counts_b == [4, 3, 3]
    assert any(
        set(a.tolist()) != set(b.tolist())
        for a, b in zip(cons_a.labeled, cons_b.labeled)
    )


def test_partition_respects_class_membership():
    truth = np.array([0] * 10 + [1] * 10 + [2] * 10)
    cons, part = make_partition(truth, 3, 0.2, 5)
    for k, idx in enumerate(cons.labeled):
        assert np.all(truth[idx] == k)
    # eval set is exactly the complement of the seeds
    seeds = np.concatenate(cons.labeled)
    assert set(seeds.tolist()) | set(part.eval_indices.tolist()) == set(range(30))
    assert not set(seeds.tolist()) & set(part.eval_indices.tolist())


def test_partition_too_small_fraction():
    truth = np.array([0] * 50 + [1] * 50)
    with pytest.raises(FractionTooSmallError):
        make_partition(truth, 2, 0.001, 0)
    with pytest.raises(ValueError):
        make_partition(truth, 2, 0.0, 0)
    with pytest.raises(ValueError):
        make_partition(truth, 2, 1.5, 0)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_per=st.integers(2, 40),
    n_classes=st.integers(2, 4),
    fraction=st.floats(0.01, 1.0),
)
def test_partition_properties(seed, n_per, n_classes, fraction):
    assume(fraction * n_per >= 1.0)  # keep away from FractionTooSmall
    truth = np.repeat(np.arange(n_classes), n_per)
    cons, part = make_partition(truth, n_classes, fraction, seed)
    assert all(len(ix) >= 1 for ix in cons.labeled)
    seeds = np.concatenate(cons.labeled)
    assert np.unique(seeds).size == seeds.size
    assert part.eval_indices.size == truth.size - seeds.size


# --------------------------------------------------------------------- csv


def test_features_roundtrip_exact(tmp_path, rng):
    values = rng.normal(size=(23, 4)) * rng.uniform(1e-8, 1e8)
    path = tmp_path / "f.csv"
    write_features_csv(path, FeatureMatrix(values))
    back = load_features_csv(path)
    assert np.array_equal(back.values, values)  # 17 sig digits round-trip


def test_features_csv_header_optional(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("#x0,x1\n1.0,2.0\n3.0,4.0\n")
    assert load_features_csv(path).values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    bare = tmp_path / "bare.csv"
    bare.write_text("1.0,2.0\n3.0,4.0\n")
    assert load_features_csv(bare).values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize("text", [
    "#x0,x1\n1.0,2.0\n3.0,4.0\n",
    "1.0,2.0\n3.0,4.0\n",
    "1_0,2.0\n3.0,4.0\n",  # only the row loop reads 1_0
])
def test_features_csv_skips_a_byte_order_mark(tmp_path, text):
    # spreadsheet tools write UTF-8 with a leading byte order mark
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    expected = load_features_csv(plain).values
    assert np.array_equal(load_features_csv(marked).values, expected)


def test_features_csv_errors_carry_line_numbers(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\nx,4.0\n")
    with pytest.raises(ParseError) as info:
        load_features_csv(bad)
    assert info.value.line == 2

    nan = tmp_path / "nan.csv"
    nan.write_text("1.0,2.0\n3.0,NaN\n")
    with pytest.raises(ParseError, match="not finite") as info:
        load_features_csv(nan)
    assert info.value.line == 2

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ShapeMismatchError):
        load_features_csv(ragged)


# cells only Python's float reads, cells it reads as non-finite, and cells
# no reader takes
ODD_CELLS = ["nan", "inf", "1e400", "-0.0", "1_0", "\u0661\u0662", "", "#5"]


@st.composite
def feature_texts(draw):
    """A features CSV as bytes: mostly well-formed, with every oddity mixed in."""
    number = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-99, 99).map(str),
    )
    # one cell in twelve is odd, so many texts take the fast path
    cell = st.integers(0, 11).flatmap(
        lambda i: st.sampled_from(ODD_CELLS) if i == 0 else number
    )
    width = draw(st.integers(1, 3))
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["#x0,x1", "  #x0", "#"])))
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "   "])))
            continue
        ragged = draw(st.integers(0, 7)) == 0
        cells = draw(st.lists(cell, min_size=1, max_size=4) if ragged
                     else st.lists(cell, min_size=width, max_size=width))
        pad = draw(st.sampled_from(["", " "]))
        lines.append(",".join(pad + c + pad for c in cells))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    bom = "\ufeff" if draw(st.integers(0, 7)) == 0 else ""
    return (bom + text).encode("utf-8")


def read_outcome(reader, path):
    """The values a reader returns, or the type, message and line it raises."""
    try:
        values = reader(path).values
    except (ValueError, ParseError, ShapeMismatchError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return values.shape, values.view(np.int64).tolist()  # sign bits included


@settings(max_examples=300, deadline=None)
@given(data=feature_texts())
def test_features_csv_matches_row_by_row_reader(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert read_outcome(load_features_csv, path) == read_outcome(
            reference_load_features_csv, path
        )


def test_features_csv_header_only_raises_without_warning(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("#x0,x1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="no data rows") as info:
            load_features_csv(path)
    assert info.value.line == 1


def test_labels_roundtrip_and_validation(tmp_path):
    path = tmp_path / "l.csv"
    write_labels_csv(path, [0, 1, 2], [1, 0, 1])
    nodes, classes = load_labels_csv(path)
    assert nodes.tolist() == [0, 1, 2]
    assert classes.tolist() == [1, 0, 1]

    noheader = tmp_path / "noheader.csv"
    noheader.write_text("0,1\n")
    with pytest.raises(ParseError) as info:
        load_labels_csv(noheader)
    assert info.value.line == 1

    blank = tmp_path / "blank.csv"
    blank.write_text("\nnode,class\n0,1\n")
    with pytest.raises(ParseError) as info:
        load_labels_csv(blank)
    assert info.value.line == 1

    badrow = tmp_path / "badrow.csv"
    badrow.write_text("node,class\n0,1\none,2\n")
    with pytest.raises(ParseError) as info:
        load_labels_csv(badrow)
    assert info.value.line == 3


def test_labels_csv_skips_a_byte_order_mark(tmp_path):
    marked = tmp_path / "marked.csv"
    marked.write_text("node,class\n0,1\n2,0\n", encoding="utf-8-sig")
    nodes, classes = load_labels_csv(marked)
    assert nodes.tolist() == [0, 2]
    assert classes.tolist() == [1, 0]


def test_truth_from_pairs_must_cover_every_node():
    assert truth_from_pairs([1, 0, 2], [1, 0, 1], 3).tolist() == [0, 1, 1]
    with pytest.raises(ShapeMismatchError):
        truth_from_pairs([0, 1, 1], [0, 1, 1], 3)  # duplicate node
    with pytest.raises(ShapeMismatchError):
        truth_from_pairs([0, 1], [0, 1], 3)  # missing node
