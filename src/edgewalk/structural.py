"""Skip-gram structural loss with negative sampling.

A (center v, context u) pair contributes

    -log sigmoid(c_v . q_u) - sum_k log sigmoid(-c_v . q_{n_k})

where c is the center table, q the context table, and the K negatives n_k
are drawn from a degree^power noise distribution, redrawn whenever they
collide with the pair's own context. The batch loss is the mean over
pairs, and gradients are exact analytic gradients of that mean.

Log-sigmoid terms are evaluated with ``numerics.softplus`` and the logistic
function with scipy's expit, so no score magnitude can produce an infinity.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ValidationError
from .numerics import softplus
from .params import EmbeddingTables, SparseGrad, accumulate_rows


class NoiseDistribution:
    """Negative-sampling distribution with weight proportional to degree**power."""

    def __init__(self, degrees: np.ndarray, power: float = 0.75):
        degrees = np.asarray(degrees, dtype=np.float64)
        if (degrees < 0).any():
            raise ConfigError("degrees must be non-negative")
        weights = degrees ** power
        total = weights.sum()
        if total <= 0:
            raise ConfigError("noise distribution needs at least one positive-degree node")
        self.probs = weights / total
        self._cumulative = np.cumsum(self.probs)
        self._cumulative[-1] = 1.0  # guard the tail against rounding

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return np.searchsorted(self._cumulative, rng.random(size), side="right")


def sample_negatives(
    contexts: np.ndarray, k: int, noise: NoiseDistribution, rng: np.random.Generator
) -> np.ndarray:
    """Draw k negatives per pair, redrawing any that equal the pair's context."""
    if k < 1:
        raise ConfigError(f"negative count must be >= 1, got {k}")
    negs = noise.sample(rng, (len(contexts), k))
    for _ in range(100):
        clash = negs == contexts[:, None]
        n_clash = int(clash.sum())
        if n_clash == 0:
            return negs
        negs[clash] = noise.sample(rng, n_clash)
    raise ValidationError("negative sampling failed to avoid the positive context")


def loss_and_grads(
    pairs: np.ndarray, negatives: np.ndarray, tables: EmbeddingTables
) -> tuple[float, SparseGrad]:
    """Negative-sampling loss and exact gradients for fixed negatives.

    ``pairs`` is (N, 2) [center, context]; ``negatives`` is (N, K).
    Kept separate from the sampling step so gradients can be checked by
    finite differences against the very same function.
    """
    from scipy.special import expit    # imported on use: only training loads scipy

    centers = np.asarray(pairs)[:, 0]
    contexts = np.asarray(pairs)[:, 1]
    n = len(centers)
    c = tables.center[centers]            # (N, d)
    q_pos = tables.context[contexts]      # (N, d)
    q_neg = tables.context[negatives]     # (N, K, d)

    pos_scores = np.einsum("nd,nd->n", c, q_pos)
    neg_scores = np.einsum("nd,nkd->nk", c, q_neg)
    loss = (softplus(-pos_scores).sum() + softplus(neg_scores).sum()) / n

    d_pos = (expit(pos_scores) - 1.0) / n     # (N,)
    d_neg = expit(neg_scores) / n             # (N, K)

    g_center = d_pos[:, None] * q_pos + np.einsum("nk,nkd->nd", d_neg, q_neg)
    center_rows, center_grads = accumulate_rows(centers, g_center)
    # Context rows get d_pos * c (positives), then d_neg * c (negatives,
    # pair-major), summed from the weights without an (N * K, d) array.
    pair = np.arange(n)
    context_rows, context_grads = accumulate_rows(
        np.concatenate([contexts, negatives.ravel()]), c,
        weights=np.concatenate([d_pos, d_neg.ravel()]),
        sources=np.concatenate([pair, np.repeat(pair, negatives.shape[1])]))

    return float(loss), SparseGrad(
        center_rows=center_rows,
        center_grads=center_grads,
        context_rows=context_rows,
        context_grads=context_grads,
    )

