import io

import numpy as np
import pytest

from edgewalk.errors import ConfigError, ParseError, ValidationError
from edgewalk.graph import (
    load_edge_labels,
    load_edge_list,
    load_node_labels,
    split_labeled_edges,
)

from helpers import labeled_sets
from oracles import has_edge, neighbors, write_edge_list


def labeled(label_set):
    return labeled_sets(label_set.owners, label_set.targets)


def unlabeled(g, label_set):
    return set(range(g.num_edges)) - set(label_set.owners.tolist())


def test_basic_load():
    g = load_edge_list(["a b", "b c"])
    assert g.num_nodes == 3
    assert g.num_edges == 2
    b = g.index["b"]
    assert sorted(neighbors(g, b).tolist()) == [g.index["a"], g.index["c"]]


def test_reversed_duplicate_collapses():
    g = load_edge_list(["a b", "b a"])
    assert g.num_nodes == 2
    assert g.num_edges == 1


def test_duplicate_line_collapses():
    g = load_edge_list(["a b", "a b", "c a"])
    assert g.num_edges == 2


def test_self_loop_rejected():
    with pytest.raises(ValidationError):
        load_edge_list(["a a"])


def test_malformed_line_reports_number():
    with pytest.raises(ParseError, match="line 3"):
        load_edge_list(["a b", "", "a b c"])


def test_comments_and_blanks_skipped():
    g = load_edge_list(["# header", "", "a b", "   ", "# trailing"])
    assert g.num_edges == 1


def test_first_seen_interning_order():
    g = load_edge_list(["x y", "y z", "w x"])
    assert g.ids == ("x", "y", "z", "w")
    assert g.index == {"x": 0, "y": 1, "z": 2, "w": 3}


def test_adjacency_sorted_and_unique():
    lines = ["a b", "a c", "a d", "c a", "b d", "d c"]
    g = load_edge_list(lines)
    brute = {v: set() for v in range(g.num_nodes)}
    for u, v in g.edges.tolist():
        brute[u].add(v)
        brute[v].add(u)
    for v in range(g.num_nodes):
        nbrs = neighbors(g, v).tolist()
        assert nbrs == sorted(set(nbrs))
        assert v not in nbrs
        assert set(nbrs) == brute[v]
    assert g.adj_indptr[-1] == 2 * g.num_edges


def test_round_trip():
    lines = ["a b", "b c", "c a", "c d"]
    g = load_edge_list(lines)
    buf = io.StringIO()
    write_edge_list(g, buf)
    g2 = load_edge_list(io.StringIO(buf.getvalue()))
    assert g.ids == g2.ids
    assert np.array_equal(g.edges, g2.edges)
    assert np.array_equal(g.adj_indptr, g2.adj_indptr)
    assert np.array_equal(g.adj_indices, g2.adj_indices)


def test_degrees_and_has_edge():
    g = load_edge_list(["a b", "b c"])
    assert g.degrees.tolist() == [1, 2, 1]
    assert has_edge(g, g.index["a"], g.index["b"])
    assert has_edge(g, g.index["b"], g.index["a"])
    assert not has_edge(g, g.index["a"], g.index["c"])


# edge labels ---------------------------------------------------------------


def edge_number(g, a, b):
    """The row of ``g.edges`` that joins nodes ``a`` and ``b``."""
    return g.edges.tolist().index(sorted([g.index[a], g.index[b]]))


def two_edge_graph():
    return load_edge_list(["a b", "b c"])


def test_edge_labels_basic():
    g = two_edge_graph()
    labels = load_edge_labels(["a b t1,t2"], g)
    assert labels.num_labels == 2
    assert labels.labels == ("t1", "t2")
    edge_ab = edge_number(g, "a", "b")
    assert labeled(labels) == {edge_ab: frozenset({0, 1})}
    assert unlabeled(g, labels) == {edge_number(g, "c", "b")}


def test_edge_labels_empty_stream():
    g = two_edge_graph()
    labels = load_edge_labels([], g)
    assert labels.num_labels == 0
    assert labeled(labels) == {}
    assert unlabeled(g, labels) == frozenset(range(g.num_edges))


def test_edge_labels_non_edge_rejected():
    g = load_edge_list(["a b"])
    with pytest.raises(ValidationError):
        load_edge_labels(["a c t1"], g)


def test_edge_labels_unknown_node_rejected():
    g = load_edge_list(["a b"])
    with pytest.raises(ValidationError):
        load_edge_labels(["a z t1"], g)


def test_edge_labels_union_across_lines():
    g = two_edge_graph()
    labels = load_edge_labels(["a b t1", "b a t2", "a b t1"], g)
    (label_set,) = labeled(labels).values()
    assert label_set == frozenset({0, 1})


def test_edge_labels_empty_label_rejected():
    g = two_edge_graph()
    with pytest.raises(ValidationError):
        load_edge_labels(["a b t1,,t2"], g)


def test_edge_labels_partition_invariant():
    g = load_edge_list(["a b", "b c", "c d", "d a", "a c"])
    labels = load_edge_labels(["a b x", "c d y,z"], g)
    assert set(labeled(labels)) | unlabeled(g, labels) == set(range(g.num_edges))
    assert set(labeled(labels)) & unlabeled(g, labels) == set()
    assert len(labeled(labels)) + len(unlabeled(g, labels)) == g.num_edges


def test_label_sets_are_sorted_multi_hot_arrays():
    g = load_edge_list(["a b", "b c", "c d", "d a", "a c"])
    labels = load_edge_labels(["c d y,z", "a b x", "a c z"], g)
    assert labels.owners.dtype == np.int64 and labels.targets.dtype == bool
    assert labels.owners.tolist() == sorted(labels.owners.tolist())
    assert labels.targets.shape == (3, 3) == (labels.num_labeled, labels.num_labels)
    assert labels.targets.any(axis=1).all()
    node_set, _ = load_node_labels(["d q", "a p,q"], g.index)
    assert node_set.owners.tolist() == sorted(node_set.owners.tolist())
    assert node_set.targets.dtype == bool
    assert node_set.targets.shape == (2, node_set.num_labels)


# split ----------------------------------------------------------------------


def ten_labeled_edges():
    lines = [f"a{i} b{i}" for i in range(10)]
    g = load_edge_list(lines)
    return load_edge_labels([f"a{i} b{i} t{i % 3}" for i in range(10)], g)


def test_split_sizes():
    labels = ten_labeled_edges()
    train, val = split_labeled_edges(labels, 0.9, seed=7)
    assert train.num_labeled == 9
    assert val.num_labeled == 1


def test_split_full_fraction_gives_empty_validation():
    labels = ten_labeled_edges()
    train, val = split_labeled_edges(labels, 1.0, seed=7)
    assert train.num_labeled == 10
    assert val.num_labeled == 0


def test_split_deterministic():
    labels = ten_labeled_edges()
    a = split_labeled_edges(labels, 0.7, seed=13)
    b = split_labeled_edges(labels, 0.7, seed=13)
    assert labeled(a[0]) == labeled(b[0])
    assert labeled(a[1]) == labeled(b[1])


def test_split_is_partition():
    labels = ten_labeled_edges()
    train, val = split_labeled_edges(labels, 0.6, seed=3)
    assert set(labeled(train)) | set(labeled(val)) == set(labeled(labels))
    assert set(labeled(train)) & set(labeled(val)) == set()
    for half in (train, val):
        assert half.labels == labels.labels
        assert labeled(half).items() <= labeled(labels).items()


def test_split_bad_fraction():
    labels = ten_labeled_edges()
    for frac in (0.0, -0.1, 1.5):
        with pytest.raises(ConfigError):
            split_labeled_edges(labels, frac, seed=1)


def test_split_empty_set_rejected():
    g = load_edge_list(["a b"])
    labels = load_edge_labels([], g)
    with pytest.raises(ValidationError):
        split_labeled_edges(labels, 0.5, seed=1)


# node labels ----------------------------------------------------------------


def test_node_labels_basic():
    g = two_edge_graph()
    label_set, skipped = load_node_labels(["a red", "b red,blue"], g.index)
    assert skipped == []
    assert label_set.labels == ("red", "blue")
    node_sets = labeled_sets(label_set.owners, label_set.targets)
    assert node_sets[g.index["a"]] == frozenset({0})
    assert node_sets[g.index["b"]] == frozenset({0, 1})


def test_node_labels_unknown_node_error_and_skip():
    g = two_edge_graph()
    with pytest.raises(ValidationError):
        load_node_labels(["zz red"], g.index)
    label_set, skipped = load_node_labels(["zz red", "a red"], g.index, on_missing="skip")
    assert skipped == ["zz"]
    assert label_set.num_labeled == 1
