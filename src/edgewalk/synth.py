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

from .errors import ConfigError, ValidationError, check_allocatable

MAX_ATTEMPTS = 20  # connectivity retries before giving up
BLOCK_PAIRS = 2**18  # node pairs drawn at once; bounds the generator's memory


@dataclass(frozen=True)
class SynthDataset:
    node_names: tuple[str, ...]
    edges: np.ndarray              # (E, 2) int node indices, lexicographic
    node_labels: tuple[str, ...]   # per node
    edge_labels: tuple[str, ...]   # per edge
    labeled_edges: np.ndarray      # indices of the edges whose labels are kept
    seed: int


def _connected(num_nodes: int, edges: np.ndarray) -> bool:
    """Min-label hooking: each edge hooks the larger root of its ends to the smaller,
    then pointers jump to roots, until no edge joins two roots; one root means connected."""
    root = np.arange(num_nodes)
    u, v = edges[:, 0], edges[:, 1]
    while not np.array_equal(ru := root[u], rv := root[v]):
        np.minimum.at(root, ru, rv)
        np.minimum.at(root, rv, ru)
        while not np.array_equal(root, jumped := root[root]):
            root = jumped
    return num_nodes > 0 and not root.any()


def _pair_blocks(n: int):
    """``np.triu_indices(n, k=1)`` in order, as ``(u, v)`` blocks of at most BLOCK_PAIRS pairs."""
    rows = np.arange(n + 1)
    bounds = rows * (2 * n - rows - 1) // 2  # row u holds pairs bounds[u]:bounds[u + 1]
    for start in range(0, bounds[n], BLOCK_PAIRS):
        stop = min(start + BLOCK_PAIRS, bounds[n])
        block = rows[np.searchsorted(bounds, start, "right") - 1:np.searchsorted(bounds, stop)]
        counts = np.minimum(bounds[block + 1], stop) - np.maximum(bounds[block], start)
        yield (np.repeat(block, counts),
               np.arange(start, stop) - np.repeat(bounds[block] - block - 1, counts))


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
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")

    n = communities * community_size
    # About 24 8-byte items per node (arrays and name strings), 6 per pair of a block.
    check_allocatable("node arrays and a block of node pairs", 24 * n + 6 * BLOCK_PAIRS)
    membership = np.repeat(np.arange(communities), community_size)

    for attempt in range(MAX_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
        # Float64 draws are the same stream in blocks as in one call.
        kept = []
        for u, v in _pair_blocks(n):
            keep = rng.random(len(u)) < np.where(membership[u] == membership[v], p_in, p_out)
            kept.append(np.column_stack([u[keep], v[keep]]))
        edges = np.concatenate(kept)
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
