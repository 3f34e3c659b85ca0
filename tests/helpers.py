"""Shared fixtures-in-function-form and label-format converters for the tests."""

import io

import numpy as np

from edgewalk.graph import load_edge_labels, load_edge_list, load_node_labels
from edgewalk.synth import generate_planted_partition, write_dataset


def dataset_streams(dataset):
    e, el, nl = io.StringIO(), io.StringIO(), io.StringIO()
    write_dataset(dataset, e, el, nl)
    return e.getvalue(), el.getvalue(), nl.getvalue()


def load_synth(dataset):
    """Round a generated dataset through the text formats and loaders."""
    e, el, nl = dataset_streams(dataset)
    graph = load_edge_list(io.StringIO(e))
    labeled = load_edge_labels(io.StringIO(el), graph)
    node_labels, _ = load_node_labels(io.StringIO(nl), graph.index)
    return graph, labeled, node_labels


def toy_community_inputs(seed=0, communities=3, size=10, p_in=0.5, p_out=0.05,
                         label_fraction=0.8):
    dataset = generate_planted_partition(communities, size, p_in, p_out,
                                         label_fraction, seed)
    return load_synth(dataset)


def multi_hot(label_sets, width):
    """Bool (len(label_sets), width) matrix marking each row's label indices."""
    out = np.zeros((len(label_sets), width), dtype=bool)
    for row, labels in enumerate(label_sets):
        out[row, sorted(labels)] = True
    return out


def label_sets(matrix):
    """The label-index set of each row of a multi-hot matrix."""
    return [frozenset(np.flatnonzero(row).tolist()) for row in matrix]


def labeled_sets(keys, matrix):
    """``{key: frozenset of label indices}`` for parallel keys and multi-hot rows."""
    return dict(zip(np.asarray(keys).tolist(), label_sets(matrix)))
