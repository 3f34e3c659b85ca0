"""Seeded sparse planted-partition sampler for graphs too large for
``edgewalk synth``.

``edgewalk.synth.generate_planted_partition`` enumerates all n(n-1)/2 node
pairs with ``np.triu_indices``, which needs O(n^2) memory: about 3.2 GB of
index arrays alone at 20,000 nodes. This sampler draws the same random graph
model in O(edges) memory. Per community block it draws the edge count from
the binomial law of G(n, p) and then that many distinct pairs uniformly,
which is the same distribution as flipping one coin per pair. Like the
package's generator it retries with derived seeds until the graph is
connected, names nodes ``n<i>``, labels every node with its community, gives
intra-community edges the label ``relation_<c>`` and cross edges ``bridge``,
and keeps a fraction of the edge labels.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


def _distinct_pairs(rng, count, draw):
    """``count`` distinct canonical pairs from ``draw(rng, size)`` by rejection."""
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < count:
        u, v = draw(rng, 2 * (count - len(keys)) + 16)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        ok = lo != hi
        keys = np.unique(np.concatenate([keys, lo[ok] * (1 << 32) + hi[ok]]))
    # np.unique sorted the keys; pick ``count`` of them uniformly.
    keys = rng.choice(keys, size=count, replace=False) if len(keys) > count else keys
    return np.sort(keys)


def sample_edges(communities: int, community_size: int, p_in: float, p_out: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Edges of one planted-partition draw as a sorted (E, 2) int64 array."""
    n = communities * community_size
    blocks = []
    intra_pairs = community_size * (community_size - 1) // 2
    for c in range(communities):
        base = c * community_size

        def draw_in(r, size, base=base):
            return (base + r.integers(0, community_size, size),
                    base + r.integers(0, community_size, size))

        blocks.append(_distinct_pairs(rng, int(rng.binomial(intra_pairs, p_in)), draw_in))

    cross_pairs = n * (n - 1) // 2 - communities * intra_pairs

    def draw_out(r, size):
        u = r.integers(0, n, size)
        v = r.integers(0, n, size)
        same = u // community_size == v // community_size
        return u[~same], v[~same]

    blocks.append(_distinct_pairs(rng, int(rng.binomial(cross_pairs, p_out)), draw_out))
    keys = np.sort(np.concatenate(blocks))
    return np.column_stack([keys >> 32, keys & 0xFFFFFFFF])


def _connected(n: int, edges: np.ndarray) -> bool:
    if len(np.unique(edges)) != n:
        return False
    adj = coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    return connected_components(adj, directed=False)[0] == 1


def write_planted_partition(out_dir, communities: int, community_size: int, p_in: float,
                            p_out: float, label_fraction: float, seed: int,
                            max_attempts: int = 20) -> int:
    """Write ``graph.edges``, ``graph.edge_labels`` and ``graph.node_labels``
    under ``out_dir``; returns the edge count."""
    n = communities * community_size
    for attempt in range(max_attempts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
        edges = sample_edges(communities, community_size, p_in, p_out, rng)
        if _connected(n, edges):
            break
    else:
        raise RuntimeError(f"no connected graph in {max_attempts} attempts")
    comm = edges // community_size
    n_keep = math.ceil(label_fraction * len(edges))
    labeled = np.sort(rng.permutation(len(edges))[:n_keep])
    with open(out_dir / "graph.edges", "w") as fh:
        fh.writelines(f"n{u} n{v}\n" for u, v in edges.tolist())
    with open(out_dir / "graph.edge_labels", "w") as fh:
        for e in labeled.tolist():
            (u, v), (cu, cv) = edges[e].tolist(), comm[e].tolist()
            fh.write(f"n{u} n{v} {f'relation_{cu}' if cu == cv else 'bridge'}\n")
    with open(out_dir / "graph.node_labels", "w") as fh:
        fh.writelines(f"n{i} community_{i // community_size}\n" for i in range(n))
    return len(edges)
