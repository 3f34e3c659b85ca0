import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph

from edgewalk import synth
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


def scipy_connected(num_nodes, edges):
    adj = scipy.sparse.coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                                  shape=(num_nodes, num_nodes))
    return scipy.sparse.csgraph.connected_components(adj, directed=False,
                                                     return_labels=False) == 1


def test_connected_matches_scipy_on_random_graphs():
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        edges = rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))
        expected = scipy_connected(n, edges)
        assert synth._connected(n, edges) == expected, (n, edges.tolist())
        seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("num_nodes, edges, expected", [
    (1, [], True),
    (3, [], False),
    (2, [[0, 1]], True),
    (4, [[0, 1], [1, 2]], False),           # node 3 isolated
    (5, [[1, 2], [2, 3], [3, 4]], False),   # node 0 isolated
    (4, [[2, 3], [0, 1], [1, 3]], True),
])
def test_connected_small_cases(num_nodes, edges, expected):
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    assert scipy_connected(num_nodes, edges) == expected
    assert synth._connected(num_nodes, edges) == expected


@pytest.mark.parametrize("permuted", [False, True], ids=["sorted", "permuted"])
@pytest.mark.parametrize("cut", [False, True], ids=["uncut", "cut"])
def test_connected_long_path(permuted, cut):
    n = 20_000
    order = np.random.default_rng(1).permutation(n) if permuted else np.arange(n)
    path = np.column_stack([order[:-1], order[1:]])
    if cut:
        path = np.delete(path, n // 3, axis=0)
    edges = np.sort(path, axis=1)
    assert scipy_connected(n, edges) == (not cut)
    assert synth._connected(n, edges) == (not cut)


@pytest.mark.parametrize("block", [1, 3, 7, 2**18])
def test_pair_blocks_follow_triu_indices(monkeypatch, block):
    monkeypatch.setattr(synth, "BLOCK_PAIRS", block)
    for n in (2, 5, 8, 13):
        blocks = list(synth._pair_blocks(n))
        assert all(len(u) == len(v) <= block for u, v in blocks)
        u, v = (np.concatenate(part) for part in zip(*blocks))
        iu, ju = np.triu_indices(n, k=1)
        assert u.tolist() == iu.tolist() and v.tolist() == ju.tolist()


@pytest.mark.parametrize("args", [(4, 10, 0.4, 0.02, 0.3, 0), (3, 8, 0.5, 0.05, 0.5, 6)])
def test_block_size_leaves_output_unchanged(monkeypatch, args):
    calls = []
    connected = synth._connected

    def spy(num_nodes, edges):
        calls.append(connected(num_nodes, edges))
        return calls[-1]

    monkeypatch.setattr(synth, "_connected", spy)
    default = dataset_streams(generate_planted_partition(*args))
    assert calls == [False, True]  # the first draw is disconnected: the retry runs too
    monkeypatch.setattr(synth, "BLOCK_PAIRS", 3)
    assert dataset_streams(generate_planted_partition(*args)) == default


def test_memory_check_counts_nodes_and_one_block(monkeypatch):
    # Just too little memory for a table of all 2,000 x 1,999 / 2 node pairs.
    monkeypatch.setattr("edgewalk.errors.MEMORY_BYTES", 8 * (2000 * 1999 // 2) - 1)
    assert len(generate_planted_partition(10, 200, 0.05, 0.002, 0.1, seed=7).node_names) == 2000
    monkeypatch.setattr("edgewalk.errors.MEMORY_BYTES", 8 * synth.BLOCK_PAIRS)
    with pytest.raises(ConfigError, match="needs more memory"):
        generate_planted_partition(10, 200, 0.05, 0.002, 0.1, seed=7)
