"""Trainable parameters: embedding tables, lazy sparse Adam, checkpoints.

The optimizer is plain Adam (beta1=0.9, beta2=0.999, eps=1e-8) applied
lazily: embedding rows that a batch did not touch keep their first/second
moment accumulators undecayed. On a fully dense gradient this reduces to
ordinary dense Adam. One ``step`` call increments the shared step counter
once, whatever mix of blocks the gradient covers.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericsError, ParseError, ValidationError, check_allocatable

# Bytes of one row buffer of the Adam step. Each optimizer makes its buffers
# once and reuses them on every step, so a step allocates no row-sized
# temporaries, and a block of this size stays in cache.
BLOCK_BYTES = 64 * 1024


@dataclass
class EmbeddingTables:
    """Center and context embedding matrices, one row per node."""

    center: np.ndarray
    context: np.ndarray

    @property
    def dim(self) -> int:
        return self.center.shape[1]


def init_embeddings(node_count: int, dim: int, seed: int, dtype=np.float64) -> EmbeddingTables:
    """Center rows uniform in [-0.5/dim, 0.5/dim], context rows zero."""
    if dim < 1:
        raise ConfigError(f"dim must be >= 1, got {dim}")
    check_allocatable("embedding table", node_count, dim)
    rng = np.random.default_rng(seed)
    bound = 0.5 / dim
    center = rng.uniform(-bound, bound, size=(node_count, dim)).astype(dtype, copy=False)
    context = np.zeros((node_count, dim), dtype=dtype)
    return EmbeddingTables(center=center, context=context)


@dataclass
class SparseGrad:
    """Gradients of one batch: touched embedding rows plus dense MLP grads.

    Row index arrays are unique within one instance. Any group may be
    absent (None) when the batch did not touch it.
    """

    center_rows: np.ndarray | None = None
    center_grads: np.ndarray | None = None
    context_rows: np.ndarray | None = None
    context_grads: np.ndarray | None = None
    mlp_weight_grads: list[np.ndarray] | None = None
    mlp_bias_grads: list[np.ndarray] | None = None


def accumulate_rows(rows: np.ndarray, grads: np.ndarray, weights: np.ndarray | None = None,
                    sources: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sum duplicate row contributions; returns (unique_rows, summed_grads).

    Contribution ``i`` to row ``rows[i]`` is ``grads[i]``, or
    ``weights[i] * grads[sources[i]]`` when ``weights`` and ``sources`` are
    given. Each sum starts from zero and adds the row's contributions in
    order of appearance, so it equals ``np.add.at`` into zeros bit for bit.
    """
    from scipy.sparse import _sparsetools    # imported on use: only training loads scipy

    if (weights is None) != (sources is None):
        raise ValidationError("weights and sources must be given together")
    if sources is None:
        weights, sources = np.ones(len(rows), dtype=grads.dtype), np.arange(len(rows))
    order = np.argsort(rows, kind="stable")
    ordered = rows[order]
    first = np.flatnonzero(np.diff(ordered, prepend=ordered[:1] - 1))  # each run's start
    # One CSR row per distinct row index, holding its contributions in order.
    # scipy's kernel behind ``csr_matrix(...) @ grads``, called without building
    # the matrix, adds them into zeros in that order.
    sums = np.zeros((len(first), grads.shape[1]), dtype=np.result_type(weights, grads))
    _sparsetools.csr_matvecs(
        len(first), len(grads), grads.shape[1], np.append(first, len(rows)), sources[order],
        weights[order], grads.ravel(), sums.ravel())
    return ordered[first], sums


class AdamOptimizer:
    """Lazy sparse Adam over the embedding tables and optional MLP params."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, tables: EmbeddingTables, mlp=None, lr: float = 0.01):
        self.tables = tables
        self.mlp = mlp
        self.lr = lr
        self.t = 0
        # (state name, name in errors, parameter) per block, in checkpoint order.
        named = [("center", "center", tables.center), ("context", "context", tables.context)]
        if mlp is not None:
            labels = [f"mlp.weights[{k}]" for k in range(len(mlp.weights))] + \
                     [f"mlp.biases[{k}]" for k in range(len(mlp.biases))]
            named += [(f"mlp{i}", label, p)
                      for i, (label, p) in enumerate(zip(labels, mlp.weights + mlp.biases))]
        self._blocks = [(name, label, p, np.zeros_like(p), np.zeros_like(p))
                        for name, label, p in named]
        self._buffers: dict[tuple, list[np.ndarray]] = {}

    def _update_rows(self, param, m, v, rows, grads, bc1, bc2, block):
        """Adam on rows ``rows`` of ``param`` and its moments ``m`` and ``v``, or
        on all of them when ``rows`` is None."""
        if not np.isfinite(grads).all():
            raise NumericsError(f"non-finite gradient in parameter block {block!r}")
        if rows is None:  # in place, a bias as one row
            param, m, v, grads = np.atleast_2d(param, m, v, grads)
        # The rows go through in blocks. Given rows are gathered into buffers
        # made on the first step and scattered back: one gather and one
        # scatter per array and block. The moment sums run in the gradient's
        # dtype (``scaled``) and round into the table's; the step is taken in
        # the table's dtype from the rounded moments.
        key = (param.dtype, grads.dtype, param.shape[1])
        if key not in self._buffers:
            scaled = np.result_type(grads.dtype, 1.0)
            width = param.shape[1] * max(param.dtype.itemsize, scaled.itemsize)
            shape = (max(1, BLOCK_BYTES // width), param.shape[1])
            self._buffers[key] = [np.empty(shape, param.dtype) for _ in range(5)] + \
                                 [np.empty(shape, scaled)]
        buffers = self._buffers[key]
        size = len(buffers[0])
        for start in range(0, len(grads), size):
            part = slice(start, start + size)
            g = grads[part]
            step, denom, scaled = (b[:len(g)] for b in buffers[3:])
            if rows is None:
                m_rows, v_rows, p_rows = m[part], v[part], param[part]
            else:
                # "wrap" reads what m[at] reads for rows in range; with
                # ``out``, the default mode would gather into a copy first.
                at = rows[part]
                m_rows, v_rows, p_rows = (b[:len(g)] for b in buffers[:3])
                np.take(m, at, axis=0, out=m_rows, mode="wrap")
                np.take(v, at, axis=0, out=v_rows, mode="wrap")
                np.take(param, at, axis=0, out=p_rows, mode="wrap")
            np.multiply(g, 1.0 - self.beta1, out=scaled)
            m_rows *= self.beta1
            np.add(m_rows, scaled, out=m_rows)
            np.multiply(g, 1.0 - self.beta2, out=scaled)
            scaled *= g
            v_rows *= self.beta2
            np.add(v_rows, scaled, out=v_rows)
            np.divide(m_rows, bc1, out=step)
            step *= self.lr
            np.divide(v_rows, bc2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            step /= denom
            p_rows -= step
            if rows is not None:
                m[at], v[at], param[at] = m_rows, v_rows, p_rows

    def step(self, grad: SparseGrad) -> None:
        """Apply one Adam update; the step counter advances exactly once."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        updates = [(grad.center_rows, grad.center_grads), (grad.context_rows, grad.context_grads)]
        if grad.mlp_weight_grads is not None:
            if self.mlp is None:
                raise ConfigError("MLP gradients supplied but optimizer holds no MLP")
            updates += [(None, g) for g in grad.mlp_weight_grads + grad.mlp_bias_grads]
        for (_, label, param, m, v), (rows, grads) in zip(self._blocks, updates):
            if grads is not None:
                self._update_rows(param, m, v, rows, grads, bc1, bc2, label)

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {f"adam_{moment}_{name}": array for name, _, _, m, v in self._blocks
                for moment, array in (("m", m), ("v", v))}


# ---------------------------------------------------------------------------
# Checkpoint file format (binary, versioned):
#   bytes 0..7   magic b"EWCHKPT1"
#   bytes 8..11  uint32 little-endian: byte length of the JSON header
#   JSON header  {"config": {...}, "config_hash": "...", "ids": [...],
#                 "adam_t": int, "embeddings_sha256": "..." or null,
#                 "arrays": [{"name", "shape", "dtype"}, ...]}
#   raw array data, C order, in the header's "arrays" order, "center" first
# The zip-free layout keeps byte output identical across reruns.
# "embeddings_sha256" is the digest of the embedding file written with the
# checkpoint, whose text is the center table: ``load_center`` reads the table
# from here when that file is the one being scored. Nothing in the package
# reads the other arrays; the tests hold a reader of the whole file.
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"EWCHKPT1"


def config_hash(config_dict: dict) -> str:
    blob = json.dumps(config_dict, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def save_checkpoint(path, tables: EmbeddingTables, mlp, optimizer: AdamOptimizer,
                    config_dict: dict, ids, embeddings_sha256: str | None = None) -> None:
    arrays: list[tuple[str, np.ndarray]] = [("center", tables.center), ("context", tables.context)]
    if mlp is not None:
        for i, w in enumerate(mlp.weights):
            arrays.append((f"mlp_w{i}", w))
        for i, b in enumerate(mlp.biases):
            arrays.append((f"mlp_b{i}", b))
    for name, arr in optimizer.state_arrays().items():
        arrays.append((name, arr))

    header = {
        "config": config_dict,
        "config_hash": config_hash(config_dict),
        "ids": list(ids),
        "adam_t": optimizer.t,
        "embeddings_sha256": embeddings_sha256,
        "arrays": [{"name": n, "shape": list(a.shape), "dtype": str(a.dtype)} for n, a in arrays],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        # Each array's own buffer, not a copy: the writes add no peak memory.
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr).data)


def _read_exact(fh, size: int, path) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise ParseError(f"{path}: truncated checkpoint")
    return data


def _read_header(fh, path) -> dict:
    """Check the magic and parse the JSON header; ``fh`` is left at the first array."""
    magic = fh.read(8)
    if magic != CHECKPOINT_MAGIC:
        raise ParseError(f"{path}: not an edgewalk checkpoint (bad magic {magic!r})")
    (header_len,) = struct.unpack("<I", _read_exact(fh, 4, path))
    if header_len > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ParseError(f"{path}: truncated checkpoint")  # before reserving header_len bytes
    try:
        header = json.loads(_read_exact(fh, header_len, path))
    except ValueError:
        raise ParseError(f"{path}: checkpoint header is not JSON") from None
    if not isinstance(header, dict):
        raise ParseError(f"{path}: checkpoint header is not a JSON object")
    return header


def load_center(path, embeddings_sha256: str) -> tuple[list[str], np.ndarray]:
    """Node ids and center table, widened to float64, of the checkpoint at
    ``path`` when its header records ``embeddings_sha256``.

    That digest is of the embedding file written with the checkpoint, whose
    ``%.17g`` text parses to exactly these values, so the result equals
    ``read_embeddings`` of that file bit for bit. Only the header and the
    first array are read. A file that is not such a checkpoint, that records
    another digest or none, or whose table holds a non-finite value (which
    ``read_embeddings`` refuses) raises ParseError.
    """
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        if header.get("embeddings_sha256") != embeddings_sha256:
            raise ParseError(f"{path}: not written with this embedding file")
        # The digest pins the text, not this header: check that the header
        # names a center table with one row per id before reading one.
        ids, arrays = header.get("ids"), header.get("arrays")
        meta = arrays[0] if isinstance(arrays, list) and arrays else None
        meta = meta if isinstance(meta, dict) else {}
        shape = meta.get("shape")
        if not (isinstance(ids, list) and set(map(type, ids)) <= {str}
                and meta.get("name") == "center" and meta.get("dtype") in ("float64", "float32")
                and isinstance(shape, list) and len(shape) == 2 and shape[0] == len(ids)
                and type(shape[1]) is int and shape[1] >= 0):
            raise ParseError(f"{path}: checkpoint header has no center table for its ids")
        rows, dim = shape
        dtype = np.dtype(meta["dtype"])
        if os.fstat(fh.fileno()).st_size - fh.tell() < rows * dim * dtype.itemsize:
            raise ParseError(f"{path}: truncated checkpoint")
        center = np.fromfile(fh, dtype=dtype, count=rows * dim)
    if not np.isfinite(center).all():
        raise ParseError(f"{path}: center table holds a non-finite value")
    return ids, center.reshape(rows, dim).astype(np.float64, copy=False)
