import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from edgewalk.errors import ParseError
from edgewalk.graph import load_edge_list
from edgewalk.walks import WalkCorpus, generate_walks, read_walks, sample_pair_batch, write_walks

from oracles import extract_pairs, walks_reference


def path_graph():
    return load_edge_list(["a b"])


def triangle():
    return load_edge_list(["a b", "b c", "c a"])


def star(leaves=4):
    return load_edge_list([f"hub leaf{i}" for i in range(leaves)])


def random_connected_graph(rng, num_nodes, extra_edges):
    """A random spanning tree plus ``extra_edges`` random chords."""
    lines = [f"n{v} n{rng.integers(v)}" for v in range(1, num_nodes)]
    chords = rng.integers(num_nodes, size=(extra_edges, 2))
    lines += [f"n{u} n{v}" for u, v in chords if u != v]
    return load_edge_list(lines)


def one_walk_corpus(walk):
    return WalkCorpus(walks=np.array([walk], dtype=np.int64), walks_per_node=1,
                      walk_length=len(walk), seed=0)


def assert_sampler_draws_within(walk, window, pairs):
    batch = sample_pair_batch(one_walk_corpus(walk), window, 200, np.random.default_rng(0))
    assert set(map(tuple, batch.tolist())) <= set(pairs)


def test_degree_one_chain_forced():
    g = path_graph()
    corpus = generate_walks(g, walks_per_node=1, walk_length=3, seed=11)
    a = g.index["a"]
    b = g.index["b"]
    assert corpus.walks[a].tolist() == [a, b, a]
    assert corpus.walks[b].tolist() == [b, a, b]


def test_corpus_shape_and_edge_validity():
    g = triangle()
    corpus = generate_walks(g, walks_per_node=2, walk_length=10, seed=5)
    assert corpus.num_walks == 6
    assert corpus.walks.shape == (6, 10)
    for walk in corpus.walks:
        for u, v in zip(walk, walk[1:]):
            assert g.has_edge(int(u), int(v))


def test_star_alternates_through_hub():
    g = star()
    hub = g.index["hub"]
    corpus = generate_walks(g, walks_per_node=1, walk_length=4, seed=3)
    for leaf_name in ("leaf0", "leaf1", "leaf2", "leaf3"):
        walk = corpus.walks[g.index[leaf_name]]
        assert walk[0] == g.index[leaf_name]
        assert walk[1] == hub and walk[3] == hub


def test_walks_deterministic_per_seed():
    g = triangle()
    a = generate_walks(g, 3, 8, seed=42)
    b = generate_walks(g, 3, 8, seed=42)
    c = generate_walks(g, 3, 8, seed=43)
    assert np.array_equal(a.walks, b.walks)
    assert not np.array_equal(a.walks, c.walks)


@pytest.mark.parametrize("seed", range(4))
def test_walks_match_reference_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    num_nodes = int(rng.integers(5, 40))
    g = random_connected_graph(rng, num_nodes, extra_edges=int(rng.integers(0, 3 * num_nodes)))
    corpus = generate_walks(g, walks_per_node=3, walk_length=9, seed=seed)
    assert np.array_equal(corpus.walks, walks_reference(g, 3, 9, seed))


@pytest.mark.parametrize("make_graph", [path_graph, star])
def test_walks_match_reference_on_chain_and_star(make_graph):
    g = make_graph()
    corpus = generate_walks(g, walks_per_node=4, walk_length=6, seed=17)
    assert np.array_equal(corpus.walks, walks_reference(g, 4, 6, 17))


def test_walk_rows_start_at_their_node():
    g = random_connected_graph(np.random.default_rng(5), 12, extra_edges=10)
    corpus = generate_walks(g, walks_per_node=5, walk_length=4, seed=8)
    assert np.array_equal(corpus.walks[:, 0], np.repeat(np.arange(g.num_nodes), 5))


def test_next_step_uniform_over_neighbors():
    # Hub of a 5-leaf star: step frequencies should pass a chi-squared test.
    g = star(leaves=5)
    corpus = generate_walks(g, walks_per_node=10_000, walk_length=2, seed=0)
    hub = g.index["hub"]
    seconds = corpus.walks[hub * 10_000 : (hub + 1) * 10_000, 1]
    counts = np.bincount(seconds, minlength=g.num_nodes)
    counts = counts[counts > 0]
    assert len(counts) == 5
    _, p = stats.chisquare(counts)
    assert p > 0.01


# extract_pairs ---------------------------------------------------------------


def test_extract_pairs_window_one():
    assert extract_pairs([0, 1, 2], 1) == [(0, 1), (1, 0), (1, 2), (2, 1)]
    assert one_walk_corpus([0, 1, 2]).pair_capacity(1) == 4
    assert_sampler_draws_within([0, 1, 2], 1, extract_pairs([0, 1, 2], 1))


def test_extract_pairs_window_two():
    pairs = extract_pairs([0, 1, 2], 2)
    assert len(pairs) == 6
    assert set(pairs) == {(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)}
    assert one_walk_corpus([0, 1, 2]).pair_capacity(2) == len(pairs)
    assert_sampler_draws_within([0, 1, 2], 2, pairs)


@given(length=st.integers(2, 12), window=st.integers(1, 15))
def test_extract_pairs_matches_brute_force(length, window):
    walk = list(range(length))
    expected = [
        (i, j)
        for i in range(length)
        for j in range(length)
        if j != i and abs(i - j) <= window
    ]
    assert extract_pairs(walk, window) == expected
    if window >= length - 1:
        assert len(expected) == length * (length - 1)
    assert one_walk_corpus(walk).pair_capacity(window) == len(expected)
    assert_sampler_draws_within(walk, window, expected)


@given(length=st.integers(2, 12), window=st.integers(1, 15))
def test_pair_count_formula(length, window):
    walk = list(range(length))
    formula = sum(
        min(i + window, length - 1) - max(i - window, 0) for i in range(length)
    )
    assert len(extract_pairs(walk, window)) == formula
    assert one_walk_corpus(walk).pair_capacity(window) == len(extract_pairs(walk, window))


def test_pair_capacity_matches_enumeration():
    g = triangle()
    corpus = generate_walks(g, 2, 7, seed=1)
    window = 3
    total = sum(len(extract_pairs(walk, window)) for walk in corpus.walks)
    assert corpus.pair_capacity(window) == total


# sample_pair_batch -----------------------------------------------------------


def test_sample_batch_size_and_support():
    g = path_graph()
    corpus = generate_walks(g, 1, 2, seed=9)
    rng = np.random.default_rng(0)
    batch = sample_pair_batch(corpus, window=1, batch_size=4, rng=rng)
    assert batch.shape == (4, 2)
    a, b = g.index["a"], g.index["b"]
    for center, ctx in batch.tolist():
        assert (center, ctx) in {(a, b), (b, a)}


def test_sample_batch_exact_count():
    g = triangle()
    corpus = generate_walks(g, 4, 10, seed=2)
    rng = np.random.default_rng(1)
    batch = sample_pair_batch(corpus, window=10, batch_size=400, rng=rng)
    assert len(batch) == 400


def test_sample_batch_pairs_are_window_pairs():
    g = triangle()
    corpus = generate_walks(g, 4, 6, seed=2)
    window = 2
    valid = set()
    for walk in corpus.walks:
        valid.update(extract_pairs(walk, window))
    rng = np.random.default_rng(3)
    batch = sample_pair_batch(corpus, window, 500, rng)
    assert set(map(tuple, batch.tolist())) <= valid


def test_sampler_stream_advances_and_resets():
    g = triangle()
    corpus = generate_walks(g, 4, 10, seed=2)
    rng = np.random.default_rng(7)
    first = sample_pair_batch(corpus, 3, 50, rng)
    second = sample_pair_batch(corpus, 3, 50, rng)
    assert not np.array_equal(first, second)
    rng2 = np.random.default_rng(7)
    again = sample_pair_batch(corpus, 3, 50, rng2)
    assert np.array_equal(first, again)


# corpus file round trip ------------------------------------------------------


def test_walk_file_round_trip():
    g = triangle()
    corpus = generate_walks(g, 2, 5, seed=21)
    buf = io.StringIO()
    write_walks(corpus, g, buf)
    loaded = read_walks(io.StringIO(buf.getvalue()), g)
    assert np.array_equal(corpus.walks, loaded.walks)
    assert loaded.walks_per_node == 2
    assert loaded.walk_length == 5
    assert loaded.seed == 21


def test_walk_file_without_header_infers_layout():
    g = triangle()
    corpus = generate_walks(g, 2, 4, seed=6)
    buf = io.StringIO()
    write_walks(corpus, g, buf)
    rows = buf.getvalue().splitlines()[1:]
    loaded = read_walks(rows, g)
    assert loaded.walks_per_node == 2 and loaded.seed == -1
    assert np.array_equal(loaded.walks, corpus.walks)
    for bad in (rows[:-1], rows[2:] + rows[:2]):
        with pytest.raises(ParseError):
            read_walks(bad, g)


def test_walk_file_unknown_node():
    g = triangle()
    with pytest.raises(Exception):
        read_walks(io.StringIO("a b zz\n"), g)
