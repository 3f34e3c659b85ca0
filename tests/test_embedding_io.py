"""The embedding writer against the line-at-a-time reference in ``oracles``:
the same bytes for every table, in memory that does not grow with it."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgewalk.embedding_io import write_embeddings

from helpers import EDGE_VALUES, node_id
from oracles import write_embeddings_by_line

WRITER = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                  suppress_health_check=[HealthCheck.too_slow])


def written(writer, ids, matrix):
    buf = io.StringIO()
    writer(buf, ids, matrix)
    return buf.getvalue()


def assert_same_text(ids, matrix):
    assert written(write_embeddings, ids, matrix) == written(write_embeddings_by_line, ids,
                                                             matrix)


# The ends of the decades the tables print, and a few neighbours on each side.
DECADE_ENDS = []
for end in (1e-4, 1e-3, 0.01, 0.1, 1.0):
    for way in (0.0, 2.0):
        value = end
        for _ in range(4):
            DECADE_ENDS += [value, -value]
            value = float(np.nextafter(value, way))
# N / 2^k is exactly half-way between two 17-digit decimals when k = 17 - X,
# X = floor(log10 x): k = 18..21 over the decades below 1.
ties = st.builds(lambda n, k: (2 * n + 1) / 2.0**k, st.integers(0, 2**20), st.integers(18, 21))
non_ascii_id = st.sampled_from(["é", "节点", "𝔵ß", "Ωmega"])


@WRITER
@given(st.sampled_from([np.float64, np.float32]), st.data())
def test_writer_matches_reference(dtype, data):
    rows = data.draw(st.integers(0, 6))
    dim = data.draw(st.integers(0, 5))
    finite = st.floats(width=np.finfo(dtype).bits, allow_nan=False, allow_infinity=False)
    values = st.one_of(st.sampled_from(EDGE_VALUES[dtype]), finite,
                       st.sampled_from(DECADE_ENDS), ties)
    matrix = np.array(data.draw(st.lists(values, min_size=rows * dim, max_size=rows * dim)),
                      dtype=dtype).reshape(rows, dim)
    ids = data.draw(st.lists(node_id | non_ascii_id, min_size=rows, max_size=rows))
    assert_same_text(ids, matrix)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_empty_tables_match_reference(shape):
    assert_same_text(["é", "b", "c"][:shape[0]], np.zeros(shape))


def test_non_finite_values_match_reference():
    assert_same_text(["a", "b"], np.array([[np.nan, np.inf, 0.5], [-np.inf, -0.0, -np.nan]]))


def test_every_tie_below_one_matches_reference():
    values = []
    for decade in (-1, -2, -3, -4):
        k = 17 - decade
        halves = np.arange(1, 2**k, 2) / 2.0**k
        values.append(halves[(halves >= 10.0**decade) & (halves < 10.0 ** (decade + 1))])
    values = np.concatenate(values)
    values = values[: values.size // 64 * 64].reshape(-1, 64)
    ids = [str(i) for i in range(values.shape[0])]
    assert_same_text(ids, values)
    assert_same_text(ids, -values)


def test_million_uniform_values_match_reference():
    rng = np.random.default_rng(15)
    matrix = rng.uniform(1e-4, 1.0, size=(10_000, 100)) * rng.choice([-1.0, 1.0], (10_000, 100))
    assert_same_text([f"n{i}" for i in range(10_000)], matrix)


class Sink:
    """A stream that drops what it is given."""

    def write(self, text):
        return len(text)


def writer_peak(rows):
    """The writer's traced peak on a rows x 64 table made before tracing starts."""
    matrix = np.random.default_rng(0).normal(size=(rows, 64)) * 0.1
    ids = [str(i) for i in range(rows)]
    tracemalloc.start()
    try:
        write_embeddings(Sink(), ids, matrix)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_memory_does_not_grow_with_the_table():
    small, large = writer_peak(1_000), writer_peak(20_000)  # 0.5 MB and 10 MB of values
    assert large < 1.1 * small
