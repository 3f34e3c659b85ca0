import math

import numpy as np
import pytest

from edgewalk.errors import ValidationError
from edgewalk.params import AdamOptimizer, EmbeddingTables, init_embeddings
from edgewalk.relational import (
    MlpParams,
    bce_loss,
    compose_batch,
    init_mlp,
    mlp_forward,
    relational_backward,
    relational_loss,
)

from oracles import compose_edge_embedding, finite_difference, relative_error, scatter_rows


def random_tables(rng, num_nodes, dim, scale=0.6):
    return EmbeddingTables(
        center=rng.normal(scale=scale, size=(num_nodes, dim)),
        context=rng.normal(scale=scale, size=(num_nodes, dim)),
    )


def random_setup(rng, num_nodes=4, dim=3, hidden=4, labels=3, batch=2):
    tables = random_tables(rng, num_nodes, dim)
    mlp = init_mlp(2 * dim, hidden, labels, rng)
    edges = np.empty((batch, 2), dtype=np.int64)
    for i in range(batch):
        edges[i] = rng.choice(num_nodes, size=2, replace=False)
    targets = (rng.random((batch, labels)) < 0.5).astype(float)
    return tables, mlp, edges, targets


def hidden_preactivations(edges, tables, mlp):
    x, _ = compose_batch(edges, tables)
    return x @ mlp.weights[0].T + mlp.biases[0]


# composition -----------------------------------------------------------------


def test_compose_concatenates():
    tables = EmbeddingTables(center=np.array([[1.0, 2.0], [3.0, 4.0]]),
                             context=np.zeros((2, 2)))
    assert compose_edge_embedding(0, 1, tables).tolist() == [1.0, 2.0, 3.0, 4.0]
    assert compose_batch(np.array([[1, 0]]), tables)[0].tolist() == [[1.0, 2.0, 3.0, 4.0]]


def test_compose_symmetric():
    rng = np.random.default_rng(0)
    tables = random_tables(rng, 6, 4)
    for u in range(6):
        for v in range(6):
            if u != v:
                assert np.array_equal(compose_edge_embedding(u, v, tables),
                                      compose_edge_embedding(v, u, tables))
    pairs = np.array([(u, v) for u in range(6) for v in range(6) if u != v])
    forward, _ = compose_batch(pairs, tables)
    backward, _ = compose_batch(pairs[:, ::-1], tables)
    assert np.array_equal(forward, backward)


def test_compose_length_default_dim():
    tables = init_embeddings(3, 128, seed=0)
    assert compose_edge_embedding(0, 2, tables).shape == (256,)
    assert compose_batch(np.array([[0, 2], [2, 1]]), tables)[0].shape == (2, 256)


# forward ----------------------------------------------------------------------


def test_zero_mlp_outputs_half():
    mlp = MlpParams(weights=[np.zeros((4, 6)), np.zeros((3, 4))],
                    biases=[np.zeros(4), np.zeros(3)])
    y, _ = mlp_forward(np.zeros(6), mlp)
    np.testing.assert_allclose(y, 0.5)


def test_relu_kills_negative_input():
    mlp = MlpParams(weights=[np.array([[1.0]]), np.array([[1.0]])],
                    biases=[np.zeros(1), np.zeros(1)])
    y, _ = mlp_forward(np.array([-3.0]), mlp)
    assert y[0] == pytest.approx(0.5)


def test_forward_output_in_open_interval():
    rng = np.random.default_rng(1)
    mlp = init_mlp(6, 5, 4, rng)
    for _ in range(20):
        y, _ = mlp_forward(rng.normal(size=6), mlp)
        assert ((y > 0) & (y < 1)).all()


# bce -------------------------------------------------------------------------


def test_bce_hand_values():
    assert bce_loss([1.0, 0.0], [0.5, 0.5]) == pytest.approx(2 * math.log(2), rel=1e-14)
    assert bce_loss([1.0], [0.9]) == pytest.approx(-math.log(0.9), rel=1e-12)


def test_bce_perfect_prediction_limit():
    assert bce_loss([1.0, 0.0], [1.0, 0.0]) == pytest.approx(0.0, abs=1e-10)


def test_bce_finite_for_extreme_predictions():
    assert math.isfinite(bce_loss([1.0], [0.0]))
    assert math.isfinite(bce_loss([0.0], [1.0]))


def test_bce_length_mismatch():
    with pytest.raises(ValidationError):
        bce_loss([1.0, 0.0], [0.5])


# backward ---------------------------------------------------------------------


def test_zero_network_output_bias_gradient():
    # All-zero weights, all-one targets: y_hat = 0.5, so the output bias
    # gradient is (0.5 - 1) = -0.5 per label.
    dim, labels = 3, 4
    tables = EmbeddingTables(center=np.random.default_rng(0).normal(size=(4, dim)),
                             context=np.zeros((4, dim)))
    mlp = MlpParams(weights=[np.zeros((5, 2 * dim)), np.zeros((labels, 5))],
                    biases=[np.zeros(5), np.zeros(labels)])
    edges = np.array([[0, 1]])
    targets = np.ones((1, labels))
    result = relational_backward(edges, targets, tables, mlp)
    np.testing.assert_allclose(result.grads.mlp_bias_grads[-1], -0.5)


def test_duplicated_edge_equals_single_edge_gradient():
    rng = np.random.default_rng(2)
    tables, mlp, _, _ = random_setup(rng)
    edges1 = np.array([[0, 1]])
    targets1 = np.array([[1.0, 0.0, 1.0]])
    edges2 = np.repeat(edges1, 2, axis=0)
    targets2 = np.repeat(targets1, 2, axis=0)
    r1 = relational_backward(edges1, targets1, tables, mlp)
    r2 = relational_backward(edges2, targets2, tables, mlp)
    assert r1.loss == pytest.approx(r2.loss, rel=1e-14)
    np.testing.assert_allclose(r1.grads.center_grads, r2.grads.center_grads, atol=1e-15)
    for a, b in zip(r1.grads.mlp_weight_grads, r2.grads.mlp_weight_grads):
        np.testing.assert_allclose(a, b, atol=1e-15)


def test_endpoint_order_invariance():
    rng = np.random.default_rng(3)
    tables, mlp, _, _ = random_setup(rng)
    targets = np.array([[1.0, 0.0, 0.0]])
    fwd = relational_backward(np.array([[0, 2]]), targets, tables, mlp)
    rev = relational_backward(np.array([[2, 0]]), targets, tables, mlp)
    assert fwd.loss == rev.loss
    np.testing.assert_array_equal(fwd.grads.center_rows, rev.grads.center_rows)
    np.testing.assert_array_equal(fwd.grads.center_grads, rev.grads.center_grads)


def test_gradient_rows_confined_to_endpoints_and_no_context():
    rng = np.random.default_rng(4)
    tables, mlp, edges, targets = random_setup(rng, batch=3)
    result = relational_backward(edges, targets, tables, mlp)
    assert set(result.grads.center_rows.tolist()) <= set(edges.ravel().tolist())
    assert result.grads.context_rows is None


def test_empty_batch_rejected():
    rng = np.random.default_rng(5)
    tables, mlp, _, _ = random_setup(rng)
    with pytest.raises(ValidationError):
        relational_backward(np.empty((0, 2), dtype=int), np.empty((0, 3)), tables, mlp)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 100:
        tables, mlp, edges, targets = random_setup(
            rng,
            num_nodes=int(rng.integers(3, 7)),
            dim=int(rng.integers(2, 5)),
            hidden=int(rng.integers(2, 6)),
            labels=int(rng.integers(1, 5)),
            batch=int(rng.integers(1, 4)),
        )
        # A ReLU kink within finite-difference reach would invalidate the
        # oracle; redraw those rare instances.
        if np.abs(hidden_preactivations(edges, tables, mlp)).min() < 1e-3:
            continue
        checked += 1
        result = relational_backward(edges, targets, tables, mlp)
        dense_center = scatter_rows(result.grads.center_rows, result.grads.center_grads,
                                    tables.center.shape)
        arrays = [tables.center] + mlp.weights + mlp.biases
        fd = finite_difference(lambda: relational_loss(edges, targets, tables, mlp),
                               arrays)
        assert relative_error(dense_center, fd[0]) <= 1e-6
        analytic = result.grads.mlp_weight_grads + result.grads.mlp_bias_grads
        for a, f in zip(analytic, fd[1:]):
            assert relative_error(a, f) <= 1e-6


def test_non_finite_activation_aborts():
    from edgewalk.errors import NumericsError

    mlp = MlpParams(weights=[np.full((2, 2), np.inf), np.ones((1, 2))],
                    biases=[np.zeros(2), np.zeros(1)])
    with pytest.raises(NumericsError, match="layer 0"):
        mlp_forward(np.ones(2), mlp)


def test_overfit_ten_disjoint_edges():
    # Ten edges with ten disjoint single labels must be nearly perfectly
    # separable after a couple thousand relational-only steps.
    rng = np.random.default_rng(12)
    num_nodes, dim, labels = 20, 6, 10
    tables = EmbeddingTables(center=rng.normal(scale=0.1, size=(num_nodes, dim)),
                             context=np.zeros((num_nodes, dim)))
    mlp = init_mlp(2 * dim, 16, labels, rng)
    edges = np.array([[2 * i, 2 * i + 1] for i in range(10)])
    targets = np.eye(10)
    opt = AdamOptimizer(tables, mlp=mlp, lr=0.01)
    for _ in range(2000):
        result = relational_backward(edges, targets, tables, mlp)
        opt.step(result.grads)
    x, _ = compose_batch(edges, tables)
    y_hat, _ = mlp_forward(x, mlp)
    accuracy = ((y_hat > 0.5) == targets.astype(bool)).mean()
    assert accuracy >= 0.99
