"""Planted-partition test-bed generator.

Nodes split into equal communities; node pairs inside a community are
connected with probability p_in, pairs across communities with p_out.
Every node is labeled with its community. Intra-community edges carry that
community's relation label, cross edges a shared "bridge" label, and only
a configurable fraction of the edge labels is kept (the rest of the edges
stay unlabeled). Regenerates with derived seeds until connected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import ConfigError, ValidationError, check_allocatable

MAX_ATTEMPTS = 20  # connectivity retries before giving up


@dataclass(frozen=True)
class SynthDataset:
    node_names: tuple[str, ...]
    edges: np.ndarray              # (E, 2) int node indices, lexicographic
    node_labels: tuple[str, ...]   # per node
    edge_labels: tuple[str, ...]   # per edge
    labeled_edges: np.ndarray      # indices of the edges whose labels are kept
    seed: int


def _connected(num_nodes: int, edges: np.ndarray) -> bool:
    if num_nodes == 0:
        return False
    adj = scipy.sparse.coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                                  shape=(num_nodes, num_nodes))
    return scipy.sparse.csgraph.connected_components(adj, directed=False, return_labels=False) == 1


def generate_planted_partition(communities: int, community_size: int, p_in: float,
                               p_out: float, label_fraction: float, seed: int) -> SynthDataset:
    if communities < 2:
        raise ConfigError(f"need at least 2 communities, got {communities}")
    if community_size < 4:
        raise ConfigError(f"need at least 4 nodes per community, got {community_size}")
    if not 0.0 < p_out < p_in <= 1.0:
        raise ConfigError(f"require p_in > p_out > 0, got p_in={p_in}, p_out={p_out}")
    if not 0.0 < label_fraction <= 1.0:
        raise ConfigError(f"label_fraction must be in (0, 1], got {label_fraction}")

    n = communities * community_size
    check_allocatable("node-pair table", n * (n - 1) // 2)
    membership = np.repeat(np.arange(communities), community_size)
    iu, ju = np.triu_indices(n, k=1)
    same = membership[iu] == membership[ju]
    p = np.where(same, p_in, p_out)

    for attempt in range(MAX_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
        keep = rng.random(len(iu)) < p
        edges = np.column_stack([iu[keep], ju[keep]])
        if not _connected(n, edges):
            continue
        edge_labels = tuple(
            f"relation_{membership[u]}" if membership[u] == membership[v] else "bridge"
            for u, v in edges
        )
        n_keep = math.ceil(label_fraction * len(edges))
        labeled = np.sort(rng.permutation(len(edges))[:n_keep])
        return SynthDataset(
            node_names=tuple(f"n{i}" for i in range(n)),
            edges=edges,
            node_labels=tuple(f"community_{c}" for c in membership),
            edge_labels=edge_labels,
            labeled_edges=labeled,
            seed=seed,
        )
    raise ValidationError(
        f"no connected graph in {MAX_ATTEMPTS} attempts; raise p_in/p_out or sizes")


def write_dataset(dataset: SynthDataset, edges_stream, edge_labels_stream,
                  node_labels_stream) -> None:
    names = dataset.node_names
    for u, v in dataset.edges:
        edges_stream.write(f"{names[u]} {names[v]}\n")
    for e in dataset.labeled_edges:
        u, v = dataset.edges[e]
        edge_labels_stream.write(f"{names[u]} {names[v]} {dataset.edge_labels[e]}\n")
    for i, name in enumerate(names):
        node_labels_stream.write(f"{name} {dataset.node_labels[i]}\n")
