"""Edge-label prediction loss: concatenated endpoint embeddings through a
small feed-forward classifier, multi-label binary cross-entropy.

Edge vectors are built from the center table only, with endpoints in
canonical (low index, high index) order so the undirected edge (u, v) and
(v, u) compose identically. Hidden layers use ReLU, the output layer a
per-label sigmoid. Gradients flow into the classifier parameters and into
the endpoint rows of the center table; the context table is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError, check_allocatable
from .params import EmbeddingTables, SparseGrad, accumulate_rows

PROB_FLOOR = 1e-12  # predicted probabilities are clamped to [floor, 1 - floor]


@dataclass
class MlpParams:
    """Weights[k] has shape (fan_out, fan_in); one hidden layer by default."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


def init_mlp(input_dim: int, hidden_dim: int, output_dim: int,
             rng: np.random.Generator, dtype=np.float64) -> MlpParams:
    """Glorot-uniform weights, zero biases."""
    sizes = [input_dim, hidden_dim, output_dim]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        check_allocatable("classifier layer", fan_out, fan_in)
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)).astype(dtype))
        biases.append(np.zeros(fan_out, dtype=dtype))
    return MlpParams(weights=weights, biases=biases)


def compose_batch(edges: np.ndarray, tables: EmbeddingTables) -> tuple[np.ndarray, np.ndarray]:
    """Edge vectors for an (N, 2) index array; returns (vectors, canonical edges)."""
    edges = np.asarray(edges)
    canon = np.sort(edges, axis=1)
    x = np.concatenate([tables.center[canon[:, 0]], tables.center[canon[:, 1]]], axis=1)
    return x, canon


def mlp_forward(x: np.ndarray, params: MlpParams) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass; returns per-label probabilities and cached activations.

    ``x`` is an (N, input_dim) batch. The cache holds the input of every
    layer (post-activation), for the backward pass.
    """
    from scipy.special import expit    # imported on use: only training loads scipy

    h, cache = x, [x]
    depth = len(params.weights)
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w.T + b
        if not np.isfinite(z).all():
            raise NumericsError(f"non-finite activation at classifier layer {k}")
        h = expit(z) if k == depth - 1 else np.maximum(z, 0.0)
        cache.append(h)
    return h, cache


def _clamped_bce(y: np.ndarray, y_hat: np.ndarray) -> np.ndarray:
    """Cross-entropy with probabilities clamped to [floor, 1 - floor], summed
    over the last (label) axis.

    The upper clamp is ``1 - floor`` in ``y_hat``'s dtype but never 1 itself,
    where ``log1p(-p)`` is infinite: float32 rounds ``1 - floor`` to 1, so
    float32 predictions clamp to the largest float32 below 1.
    """
    kind = y_hat.dtype.type
    top = min(kind(1.0 - PROB_FLOOR), np.nextafter(kind(1.0), kind(0.0)))
    p = np.clip(y_hat, PROB_FLOOR, top)
    return -(y * np.log(p) + (1.0 - y) * np.log1p(-p)).sum(axis=-1)


def relational_loss(edges: np.ndarray, targets: np.ndarray, tables: EmbeddingTables,
                    params: MlpParams) -> float:
    """Mean per-edge cross-entropy of a batch (forward only)."""
    x, _ = compose_batch(edges, tables)
    y_hat, _ = mlp_forward(x, params)
    return float(_clamped_bce(np.asarray(targets, dtype=np.float64), y_hat).mean())


def relational_backward(edges: np.ndarray, targets: np.ndarray, tables: EmbeddingTables,
                        params: MlpParams) -> tuple[float, SparseGrad]:
    """(loss, gradients): the mean batch cross-entropy and its exact gradients.

    Gradients cover every classifier weight and bias and the endpoint rows
    of the center table (through the concatenation); the context table gets
    no gradient.
    """
    edges = np.asarray(edges)
    if len(edges) == 0:
        raise ValidationError("relational batch must be non-empty")
    targets = np.asarray(targets, dtype=np.float64)
    x, canon = compose_batch(edges, tables)
    y_hat, cache = mlp_forward(x, params)
    n = len(edges)
    loss = float(_clamped_bce(targets, y_hat).mean())

    # Sigmoid + cross-entropy collapse to (y_hat - y) at the output layer.
    delta = (y_hat - targets) / n
    weight_grads: list[np.ndarray] = [None] * len(params.weights)
    bias_grads: list[np.ndarray] = [None] * len(params.biases)
    for k in range(len(params.weights) - 1, -1, -1):
        h_in = cache[k]
        weight_grads[k] = delta.T @ h_in
        bias_grads[k] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ params.weights[k]) * (cache[k] > 0.0)
    d_x = delta @ params.weights[0]  # (N, 2d): gradient w.r.t. the edge vectors

    dim = tables.dim
    rows = np.concatenate([canon[:, 0], canon[:, 1]])
    row_grads = np.concatenate([d_x[:, :dim], d_x[:, dim:]])
    center_rows, center_grads = accumulate_rows(rows, row_grads)

    return loss, SparseGrad(
        center_rows=center_rows,
        center_grads=center_grads,
        mlp_weight_grads=weight_grads,
        mlp_bias_grads=bias_grads,
    )
