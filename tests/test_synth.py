import numpy as np
import pytest

from edgewalk.errors import ConfigError
from edgewalk.synth import generate_planted_partition

from helpers import dataset_streams, load_synth
from oracles import neighbors


def test_shape_and_vocabularies():
    ds = generate_planted_partition(4, 50, 0.2, 0.01, label_fraction=0.1, seed=0)
    graph, labeled, node_labels = load_synth(ds)
    assert graph.num_nodes == 200
    assert node_labels.num_labels == 4
    assert labeled.num_labels == 5  # four community relations plus the bridge label
    assert labeled.num_labeled == int(np.ceil(0.1 * graph.num_edges))


def test_full_label_fraction_labels_everything():
    ds = generate_planted_partition(3, 10, 0.5, 0.05, label_fraction=1.0, seed=1)
    graph, labeled, _ = load_synth(ds)
    assert labeled.num_labeled == graph.num_edges
    assert labeled.owners.tolist() == list(range(graph.num_edges))  # none unlabeled


def test_deterministic_files():
    a = dataset_streams(generate_planted_partition(3, 8, 0.5, 0.05, 0.5, seed=9))
    b = dataset_streams(generate_planted_partition(3, 8, 0.5, 0.05, 0.5, seed=9))
    assert a == b
    c = dataset_streams(generate_planted_partition(3, 8, 0.5, 0.05, 0.5, seed=10))
    assert a != c


def test_connected_output():
    for seed in range(5):
        ds = generate_planted_partition(4, 10, 0.4, 0.02, 0.3, seed=seed)
        graph, _, _ = load_synth(ds)
        assert (graph.degrees >= 1).all()
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for n in neighbors(graph, v):
                if int(n) not in seen:
                    seen.add(int(n))
                    frontier.append(int(n))
        assert len(seen) == graph.num_nodes


def test_edge_labels_reflect_communities():
    ds = generate_planted_partition(3, 12, 0.5, 0.05, 1.0, seed=2)
    size = 12
    for (u, v), label in zip(ds.edges, ds.edge_labels):
        cu, cv = u // size, v // size
        if cu == cv:
            assert label == f"relation_{cu}"
        else:
            assert label == "bridge"
    assert ds.node_labels[0] == "community_0"
    assert ds.node_labels[-1] == "community_2"


def test_unreachable_connectivity_errors_out():
    # Cross-community probability this small never yields a connected graph,
    # so every retry fails and the generator gives up.
    with pytest.raises(Exception, match="connected"):
        generate_planted_partition(2, 6, 0.9, 1e-12, 0.5, seed=0)


def test_parameter_validation():
    with pytest.raises(ConfigError):
        generate_planted_partition(1, 10, 0.5, 0.05, 0.5, seed=0)
    with pytest.raises(ConfigError):
        generate_planted_partition(3, 3, 0.5, 0.05, 0.5, seed=0)
    with pytest.raises(ConfigError):
        generate_planted_partition(3, 10, 0.05, 0.5, 0.5, seed=0)  # p_in <= p_out
    with pytest.raises(ConfigError):
        generate_planted_partition(3, 10, 0.5, 0.05, 0.0, seed=0)
