import io
import math

import numpy as np
import pytest

from edgewalk.errors import ConfigError
from edgewalk.graph import load_edge_list
from edgewalk.params import AdamOptimizer, save_checkpoint
from edgewalk.training import (
    EarlyStopTracker,
    TrainConfig,
    schedule_counts,
    train,
)

from helpers import toy_community_inputs
from oracles import accumulate_rows_reference, combined_loss, update_rows_reference


def small_config(**overrides):
    base = dict(
        lambda_=0.8,
        batches_per_round=10,
        structural_batch=40,
        relational_batch=40,
        walks_per_node=3,
        walk_length=6,
        window=3,
        dim=8,
        negatives=3,
        hidden=8,
        lr=0.01,
        early_stop_window=5,
        max_rounds=12,
        unsupervised_rounds=2,
        validation_fraction=0.1,
        seed=7,
    )
    base.update(overrides)
    return TrainConfig(**base)


# config ----------------------------------------------------------------------


def test_default_hyperparameters():
    cfg = TrainConfig()
    assert cfg.lambda_ == 0.8
    assert cfg.structural_batch == 400
    assert cfg.relational_batch == 400
    assert cfg.dim == 128
    assert cfg.walks_per_node == 80
    assert cfg.walk_length == 10
    assert cfg.window == 10
    assert cfg.lr == 0.01
    assert cfg.early_stop_window == 5
    cfg.validate()


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        TrainConfig(lambda_=1.5).validate()
    with pytest.raises(ConfigError):
        TrainConfig(walk_length=1).validate()
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(validation_fraction=1.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(dtype="float16").validate()
    with pytest.raises(ConfigError):
        TrainConfig(seed=-1).validate()
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            TrainConfig(lr=bad).validate()
        with pytest.raises(ConfigError):
            TrainConfig(noise_power=bad).validate()


def test_config_round_trip_and_unknown_keys():
    cfg = small_config()
    again = TrainConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"walk_speed": 3})


def test_config_field_types():
    assert TrainConfig.from_dict({"lambda_": 1, "lr": 0.5}).lambda_ == 1  # int for float
    for bad in ({"dim": "x"}, {"dim": 2.0}, {"dim": True}, {"lr": None},
                {"regenerate_walks": 0}, {"dtype": 32}):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict(bad)


# schedule --------------------------------------------------------------------


def test_schedule_counts_default_mix():
    assert schedule_counts(10, 0.8) == (2, 8)


def test_schedule_counts_boundaries():
    assert schedule_counts(13, 0.0) == (13, 0)
    assert schedule_counts(13, 1.0) == (0, 13)


def test_schedule_counts_round_half_up():
    # (1 - 0.5) * 5 = 2.5 rounds up: remainder goes to the relational side.
    assert schedule_counts(5, 0.5) == (3, 2)


def test_schedule_counts_total_preserved_and_monotone():
    for total in (1, 7, 50):
        previous = total + 1
        for lam in np.linspace(0, 1, 21):
            n_s, n_r = schedule_counts(total, float(lam))
            assert n_s + n_r == total
            assert 0 <= n_s <= total
            assert n_s <= previous
            previous = n_s
        assert schedule_counts(total, 1.0)[0] == 0


def test_combined_loss():
    assert combined_loss(2.0, 4.0, 0.5) == pytest.approx(3.0)
    assert combined_loss(2.0, 4.0, 0.0) == 2.0
    assert combined_loss(2.0, 4.0, 1.0) == 4.0


# early stop ------------------------------------------------------------------


def test_early_stop_fires_after_window_and_not_before():
    tracker = EarlyStopTracker(window=5)
    sequence = [3.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]
    fired_at = None
    for i, loss in enumerate(sequence, 1):
        if tracker.update(loss):
            fired_at = i
            break
    assert fired_at == 7


def test_early_stop_not_fired_below_window():
    tracker = EarlyStopTracker(window=5)
    for loss in [3.0, 2.0, 2.0, 2.0, 2.0, 2.0]:
        assert not tracker.update(loss)


def test_early_stop_never_fires_on_decreasing_losses():
    tracker = EarlyStopTracker(window=5)
    for loss in np.linspace(10, 1, 50):
        assert not tracker.update(float(loss))


def test_early_stop_counter_resets_on_new_best():
    tracker = EarlyStopTracker(window=3)
    for loss in [5.0, 4.0, 4.0, 4.0, 3.0, 3.0, 3.0]:
        assert not tracker.update(loss)
    assert tracker.update(3.0)


# train -----------------------------------------------------------------------


def test_train_deterministic_bitwise():
    graph, labeled, _ = toy_community_inputs(seed=1)
    cfg = small_config(max_rounds=4)
    a = train(graph, labeled, cfg)
    b = train(graph, labeled, cfg)
    assert np.array_equal(a.tables.center, b.tables.center)
    assert np.array_equal(a.tables.context, b.tables.context)
    for w1, w2 in zip(a.mlp.weights, b.mlp.weights):
        assert np.array_equal(w1, w2)
    assert [r.validation_loss for r in a.report.rounds] == \
           [r.validation_loss for r in b.report.rounds]


def test_train_seed_changes_output():
    graph, labeled, _ = toy_community_inputs(seed=1)
    a = train(graph, labeled, small_config(max_rounds=2))
    b = train(graph, labeled, small_config(max_rounds=2, seed=8))
    assert not np.array_equal(a.tables.center, b.tables.center)


def test_round_structure_advances_adam_t():
    graph, labeled, _ = toy_community_inputs(seed=2)
    cfg = small_config(max_rounds=3, early_stop_window=50)
    result = train(graph, labeled, cfg)
    n_s, n_r = schedule_counts(cfg.batches_per_round, cfg.lambda_)
    assert result.optimizer.t == len(result.report.rounds) * (n_s + n_r)
    assert len(result.report.rounds) == 3


def test_lambda_zero_never_touches_relational_code(monkeypatch):
    graph, labeled, _ = toy_community_inputs(seed=3)
    cfg = small_config(lambda_=0.0, unsupervised_rounds=2)
    plain = train(graph, labeled, cfg)

    def boom(*args, **kwargs):
        raise AssertionError("relational path reached with lambda = 0")

    monkeypatch.setattr("edgewalk.relational.init_mlp", boom)
    monkeypatch.setattr("edgewalk.relational.relational_backward", boom)
    monkeypatch.setattr("edgewalk.relational.relational_loss", boom)
    stubbed = train(graph, labeled, cfg)

    assert np.array_equal(plain.tables.center, stubbed.tables.center)
    assert np.array_equal(plain.tables.context, stubbed.tables.context)
    assert plain.mlp is None and stubbed.mlp is None


def test_lambda_zero_budget_and_report_shape():
    graph, labeled, _ = toy_community_inputs(seed=3)
    cfg = small_config(lambda_=0.0, unsupervised_rounds=2, structural_batch=64)
    result = train(graph, labeled, cfg)
    assert result.report.stop_reason == "max_rounds"
    assert len(result.report.rounds) == 2
    capacity = graph.num_nodes * cfg.walks_per_node * sum(
        min(i + cfg.window, cfg.walk_length - 1) - max(i - cfg.window, 0)
        for i in range(cfg.walk_length)
    )
    per_round = math.ceil(capacity / cfg.structural_batch)
    assert result.optimizer.t == 2 * per_round
    for stats in result.report.rounds:
        assert math.isnan(stats.relational_loss)
        assert math.isnan(stats.validation_loss)


def test_lambda_positive_requires_labels():
    graph, _, _ = toy_community_inputs(seed=4)
    with pytest.raises(ConfigError):
        train(graph, None, small_config())


def test_lambda_one_runs_without_structural_steps():
    graph, labeled, _ = toy_community_inputs(seed=4)
    cfg = small_config(lambda_=1.0, max_rounds=3, early_stop_window=50)
    result = train(graph, labeled, cfg)
    assert result.optimizer.t == 3 * cfg.batches_per_round
    for stats in result.report.rounds:
        assert math.isnan(stats.structural_loss)
        assert math.isfinite(stats.relational_loss)


def test_validation_loss_improves_on_learnable_toy():
    graph, labeled, _ = toy_community_inputs(seed=5)
    cfg = small_config(max_rounds=40)
    result = train(graph, labeled, cfg)
    rounds = result.report.rounds
    assert rounds[-1].validation_loss <= rounds[0].validation_loss
    assert result.report.stop_reason in ("early_stop", "max_rounds")


def test_early_stop_eventually_fires():
    graph, labeled, _ = toy_community_inputs(seed=6)
    cfg = small_config(max_rounds=200, early_stop_window=3)
    result = train(graph, labeled, cfg)
    assert result.report.stop_reason == "early_stop"
    assert len(result.report.rounds) < 200


def test_empty_validation_falls_back_to_train_loss():
    graph, labeled, _ = toy_community_inputs(seed=7)
    cfg = small_config(validation_fraction=0.0, max_rounds=3, early_stop_window=50)
    result = train(graph, labeled, cfg)
    for stats in result.report.rounds:
        assert stats.validation_loss == stats.relational_loss


def test_report_file_shape():
    graph, labeled, _ = toy_community_inputs(seed=8)
    result = train(graph, labeled, small_config(max_rounds=2, early_stop_window=50))
    buf = io.StringIO()
    result.report.write(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("# round")
    assert len(lines) == 1 + len(result.report.rounds)
    fields = lines[1].split()
    assert len(fields) == 5
    assert int(fields[0]) == 1


def test_float32_option():
    graph, labeled, _ = toy_community_inputs(seed=9)
    cfg = small_config(max_rounds=2, dtype="float32")
    result = train(graph, labeled, cfg)
    assert result.tables.center.dtype == np.float32


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_divergence_raises_numerics_error():
    from edgewalk.errors import NumericsError

    graph, labeled, _ = toy_community_inputs(seed=2)
    cfg = small_config(lr=1e200, max_rounds=4)
    with pytest.raises(NumericsError, match="non-finite|diverged"):
        train(graph, labeled, cfg)


def test_corpus_regeneration_changes_result():
    lines = ["a b", "b c", "c d", "d a"]
    graph = load_edge_list(lines)
    cfg = small_config(lambda_=0.0, unsupervised_rounds=3, walks_per_node=2,
                       walk_length=4, window=2, structural_batch=16)
    moving = train(graph, None, cfg)
    frozen_cfg = small_config(lambda_=0.0, unsupervised_rounds=3, walks_per_node=2,
                              walk_length=4, window=2, structural_batch=16,
                              regenerate_walks=False)
    frozen = train(graph, None, frozen_cfg)
    assert not np.array_equal(moving.tables.center, frozen.tables.center)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("lambda_", [0.8, 0.0])
def test_step_matches_reference_formulas_bytes(tmp_path, monkeypatch, lambda_, dtype):
    # A run through the plain reference row sums and Adam row update must
    # give the same checkpoint bytes as the vectorized ones.
    graph, labeled, _ = toy_community_inputs(seed=4)
    config = small_config(lambda_=lambda_, dtype=dtype, max_rounds=4)

    def checkpoint(name):
        result = train(graph, labeled if lambda_ > 0 else None, config)
        path = tmp_path / name
        save_checkpoint(path, result.tables, result.mlp, result.optimizer, config.to_dict(),
                        graph.ids)
        return path.read_bytes()

    fast = checkpoint("fast.bin")
    monkeypatch.setattr("edgewalk.structural.accumulate_rows", accumulate_rows_reference)
    monkeypatch.setattr("edgewalk.relational.accumulate_rows", accumulate_rows_reference)
    monkeypatch.setattr(AdamOptimizer, "_update_rows", update_rows_reference)
    assert checkpoint("reference.bin") == fast
