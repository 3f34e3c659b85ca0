"""Random-walk corpus generation and (center, context) pair streaming.

Walks are uniform first-order random walks: each step moves to a uniformly
random neighbor of the current node. Every node starts the same number of
walks, and all walks advance in lockstep on one generator seeded by
``SeedSequence(seed)``: step by step, one uniform per walk in row order,
so a corpus is a function of (graph, walks per node, length, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, ParseError, ValidationError
from .graph import Graph


@dataclass(frozen=True)
class WalkCorpus:
    """A fixed batch of equal-length walks, ``walks_per_node`` per start node."""

    walks: np.ndarray  # (num_walks, walk_length) int64 node indices
    walks_per_node: int
    walk_length: int
    seed: int

    @property
    def num_walks(self) -> int:
        return len(self.walks)

    def pair_capacity(self, window: int) -> int:
        """Total ordered (center, context) pairs the corpus contains."""
        return self.num_walks * _pairs_per_walk(self.walk_length, window)


def _pairs_per_walk(length: int, window: int) -> int:
    return sum(min(i + window, length - 1) - max(i - window, 0) for i in range(length))


def generate_walks(graph: Graph, walks_per_node: int, walk_length: int, seed: int) -> WalkCorpus:
    """Start ``walks_per_node`` uniform random walks of ``walk_length`` nodes
    from every node of ``graph``.

    Walk (v, k) is row ``v * walks_per_node + k`` of the result. Step ``s``
    draws ``u = rng.random(num_walks)``, one float per row in row order, and
    moves each walk to neighbor ``floor(u * degree)`` of its current node.
    """
    if walks_per_node < 1:
        raise ConfigError(f"walks_per_node must be >= 1, got {walks_per_node}")
    if walk_length < 2:
        raise ConfigError(f"walk_length must be >= 2, got {walk_length}")
    degrees = graph.degrees
    if graph.num_nodes == 0 or (degrees == 0).any():
        raise ValidationError("walk generation requires every node to have degree >= 1")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    walks = np.empty((graph.num_nodes * walks_per_node, walk_length), dtype=np.int64)
    cur = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), walks_per_node)
    walks[:, 0] = cur
    for step in range(1, walk_length):
        u = rng.random(len(walks))
        cur = graph.adj_indices[graph.adj_indptr[cur] + (u * degrees[cur]).astype(np.int64)]
        walks[:, step] = cur
    walks.setflags(write=False)
    return WalkCorpus(walks=walks, walks_per_node=walks_per_node, walk_length=walk_length, seed=seed)


def sample_pair_batch(
    corpus: WalkCorpus, window: int, batch_size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``batch_size`` (center, context) pairs from the corpus.

    Walks are sampled uniformly, then a center position uniformly within
    the walk, then a context offset uniformly among the valid window
    positions. Successive calls advance ``rng``. Returns an
    (batch_size, 2) int64 array of [center, context] rows.
    """
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    if corpus.num_walks == 0:
        raise ValidationError("cannot sample pairs from an empty corpus")
    length = corpus.walk_length
    walk_idx = rng.integers(0, corpus.num_walks, size=batch_size)
    pos = rng.integers(0, length, size=batch_size)
    lo = np.maximum(pos - window, 0)
    hi = np.minimum(pos + window, length - 1)
    offset = rng.integers(0, hi - lo)  # context slots excluding the center
    ctx = lo + offset
    ctx += ctx >= pos  # skip over the center position itself
    batch = np.empty((batch_size, 2), dtype=np.int64)
    batch[:, 0] = corpus.walks[walk_idx, pos]
    batch[:, 1] = corpus.walks[walk_idx, ctx]
    return batch


def write_walks(corpus: WalkCorpus, graph: Graph, stream) -> None:
    """Dump the corpus, one walk per line of space-separated external ids."""
    stream.write(
        f"# walks_per_node={corpus.walks_per_node} "
        f"walk_length={corpus.walk_length} seed={corpus.seed}\n"
    )
    ids = graph.ids
    for row in corpus.walks:
        stream.write(" ".join(ids[v] for v in row) + "\n")


def read_walks(lines: Iterable[str], graph: Graph) -> WalkCorpus:
    """Load a walk corpus dumped by :func:`write_walks`.

    The header comment is optional; without it, walks_per_node is inferred
    from the row count and the recorded seed is -1 (unknown provenance).
    Row ``v * walks_per_node + k`` must start at node ``v``, so a short or
    reordered file is a :class:`ParseError`.
    """
    walks_per_node = -1
    seed = -1
    rows: list[list[int]] = []
    header_keys = ("walks_per_node=", "walk_length=", "seed=")
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if all(key in line for key in header_keys):
                try:
                    parts = dict(p.split("=", 1) for p in line[1:].split())
                    walks_per_node = int(parts["walks_per_node"])
                    seed = int(parts["seed"])
                except (KeyError, ValueError):
                    raise ParseError(f"bad walk file header {line!r}") from None
            continue
        try:
            rows.append([graph.index[token] for token in line.split()])
        except KeyError as exc:
            raise ValidationError(f"walk file names unknown node {exc.args[0]!r}") from None
    if not rows:
        raise ParseError("walk file holds no walks")
    length = len(rows[0])
    if any(len(r) != length for r in rows):
        raise ParseError("walk file mixes walk lengths")
    if walks_per_node < 0:
        walks_per_node = len(rows) // graph.num_nodes
    walks = np.asarray(rows, dtype=np.int64)
    starts = np.repeat(np.arange(graph.num_nodes), walks_per_node)
    if len(walks) != len(starts) or (walks[:, 0] != starts).any():
        raise ParseError(f"walk file is not {walks_per_node} walks per node in node order "
                         f"({len(walks)} walks for {graph.num_nodes} nodes)")
    walks.setflags(write=False)
    return WalkCorpus(walks=walks, walks_per_node=walks_per_node, walk_length=length, seed=seed)
