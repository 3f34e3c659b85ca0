"""Shared fixtures-in-function-form and label-format converters for the tests."""

import io

import numpy as np
from hypothesis import strategies as st

from edgewalk.graph import load_edge_labels, load_edge_list, load_node_labels
from edgewalk.synth import generate_planted_partition, write_dataset

# Node ids as the graph loaders make them: no character that str.split() splits on.
node_id = st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=6)
# Signed zeros, the smallest subnormal, the largest negative normal and values
# near the top of each float width.
EDGE_VALUES = {np.float64: [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300],
               np.float32: [-0.0, 0.0, 1e-45, -1.1754942e-38, 3.4028235e38, -3.4028235e38]}


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
