"""Tests of the benchmark harness itself (not of edgewalk).

    python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import numpy as np
import pytest

import layers
from run import check_embeddings
from sparse_synth import sample_edges, write_planted_partition
from spans import Tracer, check_name, self_times, summarize, tail_percentile

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_summarize_reports_median_tail_and_n():
    stats = summarize([float(v) for v in range(1, 101)])  # 1..100
    assert stats["median"] == 50.5
    assert stats["tail_pct"] == 90.0
    assert stats["tail"] == 90.0  # nearest rank: exactly 10 samples lie beyond it
    assert stats["n"] == 100
    assert summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "tail_pct": None, "tail": None,
                                          "n": 3}


def test_self_time_subtracts_nested_children_once():
    spans = [
        (0, -1, "outer", 0.0, 10.0),
        (1, 0, "a", 1.0, 3.0),
        (2, 1, "a.inner", 1.5, 2.5),   # grandchild: already inside "a"
        (3, 0, "b", 5.0, 9.0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 2.0 - 4.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(4.0)


def test_tracer_records_parents_and_self_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("m.inner", lambda: None)

    def body():
        inner()
        inner()
        return 7

    outer = tracer.wrap("m.outer", body)
    assert outer() == 7
    (o, _, name, start, end), first, second = tracer.spans
    assert name == "m.outer" and first[1] == o and second[1] == o
    assert self_times(tracer.spans)[o] == pytest.approx((end - start) - 2.0)


@pytest.mark.parametrize("name", ["pipeline_s", "graph.load_edge_list.s", "a-b.c_d", "9x"])
def test_metric_name_accepted(name):
    assert check_name(name) == name


@pytest.mark.parametrize("name", ["", ".lead", "_lead", "has space", "unit/s", "x" * 65,
                                  "quote'", "é"])
def test_metric_name_rejected(name):
    with pytest.raises(ValueError):
        check_name(name)


def test_declared_metric_names_are_valid_and_unique():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        check_name(name)
    assert [m["name"] for m in declared["per_layer"]] == [m for m, _, _ in layers.LAYER_METRICS]


def test_sparse_sampler_is_seeded_and_canonical(tmp_path):
    a = sample_edges(5, 40, 0.2, 0.01, np.random.default_rng(3))
    b = sample_edges(5, 40, 0.2, 0.01, np.random.default_rng(3))
    assert np.array_equal(a, b)
    assert (a[:, 0] < a[:, 1]).all()
    assert len({tuple(e) for e in a.tolist()}) == len(a)
    intra = (a[:, 0] // 40) == (a[:, 1] // 40)
    assert intra.sum() > 3 * (~intra).sum()  # expected 780 intra, 160 cross edges

    edges = write_planted_partition(tmp_path, 5, 40, 0.2, 0.01, 0.1, seed=3)
    lines = (tmp_path / "graph.edges").read_text().splitlines()
    assert len(lines) == edges
    assert len((tmp_path / "graph.node_labels").read_text().splitlines()) == 200
    assert len((tmp_path / "graph.edge_labels").read_text().splitlines()) == -(-edges // 10)


@pytest.mark.parametrize("body, problem", [
    ("a 1 2\nb 3 4\n", None),
    ("a 1 2\nb 3 nan\n", "non-finite"),
    ("a 1 2\nb 3\n", "numbers"),
    ("a 1 2\nb 3 x\n", "numbers"),
    ("a 1 2\n", "1 rows"),
])
def test_check_embeddings(tmp_path, body, problem):
    path = tmp_path / "embeddings.vec"
    path.write_text("2 2\n" + body)
    found = check_embeddings(path, nodes=2, dim=2)
    assert found is None if problem is None else problem in found
    assert check_embeddings(path, nodes=3, dim=2).startswith("embeddings.vec header")
