import math

import numpy as np
import pytest
from scipy import stats

from edgewalk.graph import load_edge_list
from edgewalk.params import AdamOptimizer, EmbeddingTables
from edgewalk.structural import (
    NoiseDistribution,
    loss_and_grads,
    sample_negatives,
)
from edgewalk.walks import generate_walks, sample_pair_batch

from oracles import (
    finite_difference,
    relative_error,
    scatter_rows,
    softmax_distribution,
    softmax_prob,
)


def random_tables(rng, num_nodes, dim, scale=0.8):
    return EmbeddingTables(
        center=rng.normal(scale=scale, size=(num_nodes, dim)),
        context=rng.normal(scale=scale, size=(num_nodes, dim)),
    )


def random_instance(rng):
    num_nodes = int(rng.integers(3, 9))
    dim = int(rng.integers(2, 6))
    batch = int(rng.integers(1, 6))
    k = int(rng.integers(1, 5))
    tables = random_tables(rng, num_nodes, dim)
    pairs = rng.integers(0, num_nodes, size=(batch, 2))
    negatives = np.empty((batch, k), dtype=np.int64)
    for i in range(batch):
        allowed = [u for u in range(num_nodes) if u != pairs[i, 1]]
        negatives[i] = rng.choice(allowed, size=k, replace=True)
    return tables, pairs, negatives


# softmax reference path -------------------------------------------------------


def test_softmax_uniform_on_zero_tables():
    tables = EmbeddingTables(center=np.zeros((4, 3)), context=np.zeros((4, 3)))
    for u in range(4):
        for v in range(4):
            assert softmax_prob(u, v, tables) == pytest.approx(0.25)


def test_softmax_normalizes():
    rng = np.random.default_rng(0)
    tables = random_tables(rng, 7, 4)
    for v in range(7):
        assert softmax_distribution(v, tables).sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_hand_value():
    # Scores (2, 0, 0) against center node 0 -> (e^2, 1, 1) / (e^2 + 2).
    center = np.array([[1.0], [0.0], [0.0]])
    context = np.array([[2.0], [0.0], [0.0]])
    tables = EmbeddingTables(center=center, context=context)
    expected = np.exp([2.0, 0.0, 0.0])
    expected = expected / expected.sum()
    for u in range(3):
        assert softmax_prob(u, 0, tables) == pytest.approx(expected[u], rel=1e-14)


# noise distribution -----------------------------------------------------------


def test_noise_distribution_proportional_to_degree_power():
    degrees = np.array([1, 2, 4, 8])
    noise = NoiseDistribution(degrees, power=0.75)
    expected = degrees**0.75 / (degrees**0.75).sum()
    np.testing.assert_allclose(noise.probs, expected)
    assert (noise.probs > 0).all()


def test_noise_sampling_frequencies():
    degrees = np.array([1, 3, 9])
    noise = NoiseDistribution(degrees, power=0.75)
    rng = np.random.default_rng(4)
    draws = noise.sample(rng, 200_000)
    freq = np.bincount(draws, minlength=3) / len(draws)
    np.testing.assert_allclose(freq, noise.probs, atol=5e-3)


def test_negatives_avoid_positive_context():
    noise = NoiseDistribution(np.array([5, 5]), power=0.75)
    rng = np.random.default_rng(8)
    contexts = np.zeros(64, dtype=np.int64)  # positive context is node 0
    negs = sample_negatives(contexts, k=3, noise=noise, rng=rng)
    assert (negs == 1).all()


def test_negatives_avoid_context_generic():
    rng = np.random.default_rng(9)
    noise = NoiseDistribution(np.arange(1, 11), power=0.75)
    contexts = rng.integers(0, 10, size=500)
    negs = sample_negatives(contexts, k=5, noise=noise, rng=rng)
    assert not (negs == contexts[:, None]).any()


# loss values ------------------------------------------------------------------


def test_zero_tables_loss_is_k_plus_one_ln2():
    tables = EmbeddingTables(center=np.zeros((4, 6)), context=np.zeros((4, 6)))
    pairs = np.array([[0, 1]])
    negatives = np.array([[2, 3, 2, 3, 2]])  # K = 5
    loss, _ = loss_and_grads(pairs, negatives, tables)
    assert loss == pytest.approx(6 * math.log(2), rel=1e-14)


def test_loss_nonnegative_and_rows_confined():
    rng = np.random.default_rng(14)
    for _ in range(30):
        tables, pairs, negatives = random_instance(rng)
        loss, grad = loss_and_grads(pairs, negatives, tables)
        assert loss >= 0.0
        allowed_ctx = set(pairs[:, 1].tolist()) | set(negatives.ravel().tolist())
        assert set(grad.center_rows.tolist()) <= set(pairs[:, 0].tolist())
        assert set(grad.context_rows.tolist()) <= allowed_ctx
        assert len(set(grad.center_rows.tolist())) == len(grad.center_rows)
        assert len(set(grad.context_rows.tolist())) == len(grad.context_rows)


def test_role_asymmetry():
    # Pair (0, 1) with negatives that exclude node 0: center grads touch only
    # row 0, context grads only rows {1} plus the negatives, never row 0.
    rng = np.random.default_rng(3)
    tables = random_tables(rng, 5, 3)
    pairs = np.array([[0, 1]])
    negatives = np.array([[2, 4]])
    _, grad = loss_and_grads(pairs, negatives, tables)
    assert grad.center_rows.tolist() == [0]
    assert set(grad.context_rows.tolist()) == {1, 2, 4}
    assert 0 not in grad.context_rows


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(77)
    for _ in range(100):
        tables, pairs, negatives = random_instance(rng)
        _, grad = loss_and_grads(pairs, negatives, tables)
        dense_center = scatter_rows(grad.center_rows, grad.center_grads,
                                    tables.center.shape)
        dense_context = scatter_rows(grad.context_rows, grad.context_grads,
                                     tables.context.shape)
        fd_center, fd_context = finite_difference(
            lambda: loss_and_grads(pairs, negatives, tables)[0],
            [tables.center, tables.context],
        )
        assert relative_error(dense_center, fd_center) <= 1e-6
        assert relative_error(dense_context, fd_context) <= 1e-6


def test_repeated_steps_decrease_loss():
    # Fixed single pair, fixed negatives, Adam at the default rate: the loss
    # must fall strictly for at least ten consecutive steps.
    from edgewalk.params import init_embeddings

    tables = init_embeddings(5, 8, seed=2)
    opt = AdamOptimizer(tables, lr=0.01)
    pairs = np.array([[0, 1]])
    negatives = np.array([[2, 3]])
    losses = []
    for _ in range(12):
        loss, grad = loss_and_grads(pairs, negatives, tables)
        losses.append(loss)
        opt.step(grad)
    for before, after in zip(losses, losses[1:]):
        assert after < before


def test_negative_sampling_loss_end_to_end():
    rng = np.random.default_rng(5)
    tables = random_tables(rng, 6, 4)
    noise = NoiseDistribution(np.ones(6), power=0.75)
    pairs = rng.integers(0, 6, size=(10, 2))
    negatives = sample_negatives(pairs[:, 1], 3, noise, rng)
    loss, _ = loss_and_grads(pairs, negatives, tables)
    assert negatives.shape == (10, 3)
    assert not (negatives == pairs[:, 1][:, None]).any()
    assert loss >= 0.0
    # Determinism: same rng state, same outcome.
    negs_a = sample_negatives(pairs[:, 1], 3, noise, np.random.default_rng(123))
    negs_b = sample_negatives(pairs[:, 1], 3, noise, np.random.default_rng(123))
    loss_a, _ = loss_and_grads(pairs, negs_a, tables)
    loss_b, _ = loss_and_grads(pairs, negs_b, tables)
    assert loss_a == loss_b
    assert np.array_equal(negs_a, negs_b)


def test_full_softmax_and_sampled_loss_fall_together():
    # A small graph trained with negative sampling: the exact softmax loss
    # and the sampled loss, probed at checkpoints, should fall in step.
    g = load_edge_list(
        ["a b", "b c", "c a", "c d", "d e", "e f", "f d", "f a"]
    )
    corpus = generate_walks(g, 10, 8, seed=1)
    from edgewalk.params import init_embeddings

    tables = init_embeddings(g.num_nodes, 8, seed=4)
    noise = NoiseDistribution(g.degrees, 0.75)
    opt = AdamOptimizer(tables, lr=0.01)
    pair_rng = np.random.default_rng(6)
    neg_rng = np.random.default_rng(7)
    eval_pairs = sample_pair_batch(corpus, 3, 120, np.random.default_rng(8))
    eval_negs = sample_negatives(eval_pairs[:, 1], 4, noise, np.random.default_rng(9))

    softmax_losses, sampled_losses = [], []
    for step in range(400):
        batch = sample_pair_batch(corpus, 3, 40, pair_rng)
        negatives = sample_negatives(batch[:, 1], 4, noise, neg_rng)
        _, grads = loss_and_grads(batch, negatives, tables)
        opt.step(grads)
        if step % 40 == 0:
            sampled, _ = loss_and_grads(eval_pairs, eval_negs, tables)
            sampled_losses.append(sampled)
            exact = -np.mean([
                math.log(softmax_prob(int(u), int(v), tables))
                for v, u in eval_pairs
            ])
            softmax_losses.append(exact)
    rho, _ = stats.spearmanr(softmax_losses, sampled_losses)
    assert rho > 0.9
