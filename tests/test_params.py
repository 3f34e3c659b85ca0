import hashlib
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgewalk import params
from edgewalk.embedding_io import read_embeddings, write_embeddings
from edgewalk.errors import NumericsError, ParseError, ValidationError
from edgewalk.params import (
    AdamOptimizer,
    EmbeddingTables,
    SparseGrad,
    accumulate_rows,
    init_embeddings,
    load_center,
    save_checkpoint,
)
from edgewalk.relational import MlpParams

from helpers import EDGE_VALUES, node_id
from oracles import (accumulate_rows_csr_product, accumulate_rows_reference, load_checkpoint,
                     update_rows_reference)


def dense_adam_reference(params, grads, steps_state):
    """Textbook dense Adam step, kept independent of the package's optimizer."""
    lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
    m, v, t = steps_state
    t += 1
    m = beta1 * m + (1 - beta1) * grads
    v = beta2 * v + (1 - beta2) * grads**2
    m_hat = m / (1 - beta1**t)
    v_hat = v / (1 - beta2**t)
    params = params - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, (m, v, t)


def single_row_tables(value=0.0, dim=1):
    center = np.full((1, dim), value, dtype=np.float64)
    context = np.zeros((1, dim), dtype=np.float64)
    return EmbeddingTables(center=center, context=context)


def test_init_embeddings_ranges():
    tables = init_embeddings(3, 128, seed=0)
    assert tables.center.shape == (3, 128)
    assert tables.context.shape == (3, 128)
    assert np.abs(tables.center).max() <= 0.5 / 128
    assert not np.any(tables.context)


def test_init_embeddings_deterministic():
    a = init_embeddings(5, 16, seed=9)
    b = init_embeddings(5, 16, seed=9)
    assert np.array_equal(a.center, b.center)
    c = init_embeddings(5, 16, seed=10)
    assert not np.array_equal(a.center, c.center)


def test_first_adam_step_hand_value():
    # One scalar parameter at 0, gradient 2: first step lands at
    # -lr * g / (|g| + eps) which is -0.01 up to the epsilon slack.
    tables = single_row_tables(0.0)
    opt = AdamOptimizer(tables, lr=0.01)
    grad = SparseGrad(center_rows=np.array([0]), center_grads=np.array([[2.0]]))
    opt.step(grad)
    expected = -0.01 * 2.0 / (2.0 + 1e-8)
    assert tables.center[0, 0] == pytest.approx(expected, abs=1e-15)
    assert abs(tables.center[0, 0] - (-0.01)) < 1e-8
    assert opt.t == 1


def test_zero_gradient_leaves_params_and_advances_t():
    tables = init_embeddings(4, 3, seed=1)
    before = tables.center.copy()
    opt = AdamOptimizer(tables)
    grad = SparseGrad(center_rows=np.arange(4), center_grads=np.zeros((4, 3)))
    opt.step(grad)
    assert np.array_equal(tables.center, before)
    assert opt.t == 1


def test_step_negation_symmetry():
    # Parameters start at 0 so the post-step value IS the applied delta.
    g = np.array([[0.3, -1.7, 2.4]])
    deltas = []
    for sign in (1.0, -1.0):
        tables = single_row_tables(0.0, dim=3)
        opt = AdamOptimizer(tables, lr=0.01)
        opt.step(SparseGrad(center_rows=np.array([0]), center_grads=sign * g))
        deltas.append(tables.center[0].copy())
    assert np.array_equal(deltas[0], -deltas[1])


def test_step_magnitude_bounded():
    rng = np.random.default_rng(5)
    tables = single_row_tables(0.0, dim=8)
    opt = AdamOptimizer(tables, lr=0.01)
    g = rng.normal(size=(1, 8)) * 100
    opt.step(SparseGrad(center_rows=np.array([0]), center_grads=g))
    assert np.abs(tables.center).max() <= 0.01 * (1 + 1e-6)
    # Constant-sign gradients keep every later step inside the bound too.
    prev = tables.center.copy()
    for _ in range(20):
        opt.step(SparseGrad(center_rows=np.array([0]), center_grads=g))
        assert np.abs(tables.center - prev).max() <= 0.01 * (1 + 1e-6)
        prev = tables.center.copy()


def test_lazy_adam_equals_dense_adam_on_dense_gradients():
    rng = np.random.default_rng(11)
    tables = EmbeddingTables(center=rng.normal(size=(5, 1)), context=np.zeros((5, 1)))
    ref = tables.center.copy().ravel()
    state = (np.zeros(5), np.zeros(5), 0)
    opt = AdamOptimizer(tables, lr=0.01)
    for _ in range(25):
        g = rng.normal(size=5)
        ref, state = dense_adam_reference(ref, g, state)
        opt.step(SparseGrad(center_rows=np.arange(5), center_grads=g.reshape(5, 1)))
        np.testing.assert_allclose(tables.center.ravel(), ref, rtol=0, atol=1e-12)


def test_lazy_rows_keep_stale_moments():
    # A step that only touches row 1 must leave row 0's moments and value alone.
    tables = EmbeddingTables(center=np.zeros((2, 1)), context=np.zeros((2, 1)))
    opt = AdamOptimizer(tables, lr=0.01)
    opt.step(SparseGrad(center_rows=np.array([0]), center_grads=np.array([[1.0]])))
    m0 = opt.state_arrays()["adam_m_center"][0, 0]
    v0 = opt.state_arrays()["adam_v_center"][0, 0]
    p0 = tables.center[0, 0]
    assert m0 != 0.0 and v0 != 0.0
    opt.step(SparseGrad(center_rows=np.array([1]), center_grads=np.array([[5.0]])))
    assert opt.state_arrays()["adam_m_center"][0, 0] == m0
    assert opt.state_arrays()["adam_v_center"][0, 0] == v0
    assert tables.center[0, 0] == p0
    assert opt.t == 2


def test_non_finite_gradient_names_block():
    tables = single_row_tables()
    opt = AdamOptimizer(tables)
    bad = SparseGrad(center_rows=np.array([0]), center_grads=np.array([[np.nan]]))
    with pytest.raises(NumericsError, match="center"):
        opt.step(bad)


def test_accumulate_rows_sums_duplicates():
    rows = np.array([3, 1, 3, 1, 2])
    grads = np.array([[1.0], [2.0], [10.0], [20.0], [5.0]])
    unique, acc = accumulate_rows(rows, grads)
    assert unique.tolist() == [1, 2, 3]
    assert acc.ravel().tolist() == [22.0, 5.0, 11.0]
    assert len(set(unique.tolist())) == len(unique)


@pytest.mark.parametrize("given", ["weights", "sources"])
def test_accumulate_rows_needs_weights_and_sources_together(given):
    rows = np.array([0, 1, 0])
    extra = {given: np.ones(3)} if given == "weights" else {given: np.arange(3)}
    with pytest.raises(ValidationError, match="together"):
        accumulate_rows(rows, np.ones((3, 2)), **extra)


# the step, byte for byte against the reference formulas ------------------------

ROW_CASES = {
    "duplicates": lambda rng: rng.integers(0, 7, size=300),
    "all_unique": lambda rng: rng.permutation(500)[:200],
    "single": lambda rng: np.array([4]),
    "empty": lambda rng: np.zeros(0, dtype=np.int64),
}


def with_signed_zeros(grads):
    grads = grads.copy()
    grads.flat[::7] = -0.0
    return grads


def assert_same_bytes(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case", sorted(ROW_CASES))
def test_accumulate_rows_matches_reference_bytes(case, dtype):
    rng = np.random.default_rng(3)
    rows = ROW_CASES[case](rng)
    grads = rng.normal(size=(len(rows), 5)).astype(dtype)
    for g in (grads, with_signed_zeros(grads)):
        assert_same_bytes(accumulate_rows(rows, g), accumulate_rows_reference(rows, g))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case", sorted(ROW_CASES))
def test_weighted_accumulate_rows_matches_reference_bytes(case, dtype):
    # Contribution i is weights[i] * table[sources[i]], sources repeating.
    rng = np.random.default_rng(4)
    rows = ROW_CASES[case](rng)
    table = with_signed_zeros(rng.normal(size=(9, 5)).astype(dtype))
    weights = rng.normal(size=len(rows)).astype(dtype)
    sources = rng.integers(0, len(table), size=len(rows))
    assert_same_bytes(accumulate_rows(rows, table, weights=weights, sources=sources),
                      accumulate_rows_reference(rows, table, weights=weights, sources=sources))


@pytest.mark.parametrize("weights_dtype", [None, np.float64, np.float32])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case", sorted(ROW_CASES))
def test_accumulate_rows_kernel_matches_public_csr_product(case, dtype, weights_dtype):
    # accumulate_rows calls scipy's private CSR kernel; a scipy that moves or
    # changes it must fail here rather than fall back to a slower route.
    rng = np.random.default_rng(5)
    rows = ROW_CASES[case](rng)
    table = with_signed_zeros(rng.normal(size=(max(len(rows), 9), 5)).astype(dtype))
    extra = {} if weights_dtype is None else {
        "weights": rng.normal(size=len(rows)).astype(weights_dtype),
        "sources": rng.integers(0, len(table), size=len(rows))}
    grads = table if extra else table[:len(rows)]
    assert_same_bytes(accumulate_rows(rows, grads, **extra),
                      accumulate_rows_csr_product(rows, grads, **extra))


def block_bytes(rows, table_dtype, grad_dtype, width):
    """The ``BLOCK_BYTES`` that gives the Adam step blocks of ``rows`` rows."""
    return rows * width * max(np.dtype(table_dtype).itemsize, np.dtype(grad_dtype).itemsize)


DTYPE_PAIRS = [(np.float64, np.float64), (np.float32, np.float32), (np.float32, np.float64)]


def check_update_rows_bytes(case, table_dtype, grad_dtype, block_rows):
    """Eight updates against the reference formulas, byte for byte; odd steps
    carry signed-zero gradients. The row cases update rows of a 30 x 6 table;
    "weight" (a Fortran-ordered 30 x 6 array) and "bias" (6 values) are updated
    whole, with ``rows`` None. The step works in blocks of ``block_rows`` rows."""
    rng = np.random.default_rng(5)
    if case == "weight":
        start = rng.normal(size=(6, 30)).T
    elif case == "bias":
        start = rng.normal(size=6)
    else:
        start = rng.normal(size=(30, 6))
    start = start.astype(table_dtype)  # keeps the Fortran order
    # (param, m, v) for the kernel and for the reference.
    arrays = [[np.copy(start), np.zeros_like(start), np.zeros_like(start)] for _ in range(2)]
    fast, ref = (AdamOptimizer(single_row_tables(), lr=0.05) for _ in range(2))
    for t in range(1, 9):
        rows = {"many": np.sort(rng.permutation(30)[:12]), "single": np.array([t]),
                "empty": np.zeros(0, dtype=np.int64)}.get(case)
        shape = start.shape if rows is None else (len(rows), 6)
        grads = (rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)).astype(grad_dtype)
        if t % 2:
            grads = with_signed_zeros(grads)
        bc1, bc2 = 1.0 - fast.beta1 ** t, 1.0 - fast.beta2 ** t
        fast._update_rows(*arrays[0], rows, grads, bc1, bc2, "center")
        update_rows_reference(ref, *arrays[1], rows, grads, bc1, bc2, "center")
        assert_same_bytes(*arrays)
    (buffer, *_), = fast._buffers.values()
    assert len(buffer) == block_rows


ROW_UPDATE_CASES = ["many", "single", "empty", "weight", "bias"]


@pytest.mark.parametrize("table_dtype, grad_dtype", DTYPE_PAIRS)
@pytest.mark.parametrize("case", ROW_UPDATE_CASES)
def test_update_rows_matches_reference_bytes(case, table_dtype, grad_dtype):
    # float64 gradients into float32 tables are what the relational loss
    # hands a float32 run. The default block holds all rows of a step.
    check_update_rows_bytes(case, table_dtype, grad_dtype,
                            params.BLOCK_BYTES // block_bytes(1, table_dtype, grad_dtype, 6))


@pytest.mark.parametrize("block_rows", [1, 5])
@pytest.mark.parametrize("table_dtype, grad_dtype", DTYPE_PAIRS)
@pytest.mark.parametrize("case", ROW_UPDATE_CASES)
def test_update_rows_in_blocks_matches_reference_bytes(case, table_dtype, grad_dtype,
                                                       block_rows, monkeypatch):
    # Blocks of 1 and 5 rows split the 12 rows of "many" into 12 and 3 blocks,
    # and the 30 rows of "weight" into 30 and 6.
    monkeypatch.setattr(params, "BLOCK_BYTES", block_bytes(block_rows, table_dtype,
                                                           grad_dtype, 6))
    check_update_rows_bytes(case, table_dtype, grad_dtype, block_rows)


@pytest.mark.parametrize("table_dtype, grad_dtype", DTYPE_PAIRS)
def test_step_on_classifier_matches_reference_bytes(table_dtype, grad_dtype):
    # Every classifier weight (one Fortran-ordered) and bias takes the
    # reference formula's step over the whole array, as embedding rows do.
    rng = np.random.default_rng(8)
    weights = [rng.normal(size=(4, 6)), rng.normal(size=(4, 2)).T]
    biases = [rng.normal(size=4), rng.normal(size=2)]
    mlp = MlpParams(weights=[w.astype(table_dtype) for w in weights],
                    biases=[b.astype(table_dtype) for b in biases])
    opt = AdamOptimizer(single_row_tables(), mlp=mlp, lr=0.05)
    want = [[np.copy(p), np.zeros_like(p), np.zeros_like(p)] for p in mlp.weights + mlp.biases]
    for t in range(1, 9):
        grads = [(rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 3)).astype(grad_dtype)
                 for p, _, _ in want]
        if t % 2:
            grads = [with_signed_zeros(g) for g in grads]
        opt.step(SparseGrad(mlp_weight_grads=grads[:2], mlp_bias_grads=grads[2:]))
        bc1, bc2 = 1.0 - opt.beta1 ** t, 1.0 - opt.beta2 ** t
        for (p, m, v), g in zip(want, grads):
            update_rows_reference(opt, p, m, v, None, g, bc1, bc2, "mlp")
        state = opt.state_arrays()
        assert_same_bytes(mlp.weights + mlp.biases, [p for p, _, _ in want])
        assert_same_bytes([state[f"adam_{k}_mlp{i}"] for i in range(4) for k in "mv"],
                          [a for _, m, v in want for a in (m, v)])
    assert list(state) == ["adam_m_center", "adam_v_center", "adam_m_context", "adam_v_context",
                           *(f"adam_{k}_mlp{i}" for i in range(4) for k in "mv")]
    assert not np.any(opt.tables.center) and not np.any(state["adam_m_center"])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_gradient_in_last_block_changes_nothing(bad, monkeypatch):
    monkeypatch.setattr(params, "BLOCK_BYTES", block_bytes(5, np.float64, np.float64, 4))
    rng = np.random.default_rng(6)
    tables = EmbeddingTables(center=rng.normal(size=(20, 4)), context=rng.normal(size=(20, 4)))
    opt = AdamOptimizer(tables, lr=0.05)
    rows = np.arange(0, 20, 2)  # 10 rows: blocks of 5 and 5
    for _ in range(3):
        opt.step(SparseGrad(center_rows=rows, center_grads=rng.normal(size=(10, 4)),
                            context_rows=rows, context_grads=rng.normal(size=(10, 4))))
    before = [a.copy() for a in (tables.center, tables.context, *opt.state_arrays().values())]
    grads = rng.normal(size=(10, 4))
    grads[-1, 2] = bad
    with pytest.raises(NumericsError, match="center"):
        opt.step(SparseGrad(center_rows=rows, center_grads=grads,
                            context_rows=rows, context_grads=rng.normal(size=(10, 4))))
    assert_same_bytes([tables.center, tables.context, *opt.state_arrays().values()], before)


# checkpoint ------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    tables = EmbeddingTables(center=rng.normal(size=(4, 3)),
                             context=rng.normal(size=(4, 3)))
    mlp = MlpParams(weights=[rng.normal(size=(2, 6)), rng.normal(size=(3, 2))],
                    biases=[rng.normal(size=2), rng.normal(size=3)])
    opt = AdamOptimizer(tables, mlp=mlp, lr=0.01)
    opt.step(SparseGrad(center_rows=np.array([1]), center_grads=rng.normal(size=(1, 3))))
    path = tmp_path / "model.ckpt"
    config = {"dim": 3, "seed": 4}
    save_checkpoint(path, tables, mlp, opt, config, ids=["a", "b", "c", "d"])

    ckpt = load_checkpoint(path)
    np.testing.assert_array_equal(ckpt.center, tables.center)
    np.testing.assert_array_equal(ckpt.context, tables.context)
    assert len(ckpt.mlp_weights) == 2 and len(ckpt.mlp_biases) == 2
    np.testing.assert_array_equal(ckpt.mlp_weights[0], mlp.weights[0])
    assert ckpt.adam_t == 1
    assert ckpt.config == config
    assert ckpt.ids == ["a", "b", "c", "d"]
    np.testing.assert_array_equal(ckpt.adam["adam_m_center"], opt.state_arrays()["adam_m_center"])


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(ParseError):
        load_checkpoint(path)


def test_checkpoint_bytes_deterministic(tmp_path):
    tables = init_embeddings(3, 4, seed=0)
    opt = AdamOptimizer(tables)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, tables, None, opt, {"seed": 0}, ids=["x", "y", "z"])
    save_checkpoint(p2, tables, None, opt, {"seed": 0}, ids=["x", "y", "z"])
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_body_is_each_array_in_c_order(tmp_path):
    rng = np.random.default_rng(5)
    tables = EmbeddingTables(center=rng.normal(size=(4, 3)).astype(np.float32),
                             context=rng.normal(size=(4, 3)).astype(np.float32))
    # A transposed (Fortran-ordered) weight goes out in C order all the same.
    mlp = MlpParams(weights=[rng.normal(size=(6, 2)).T], biases=[rng.normal(size=2)])
    opt = AdamOptimizer(tables, mlp=mlp)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, tables, mlp, opt, {"seed": 0}, ids=["a", "b", "c", "d"])
    arrays = [tables.center, tables.context, *mlp.weights, *mlp.biases,
              *opt.state_arrays().values()]
    blob = path.read_bytes()
    header_end = 12 + int.from_bytes(blob[8:12], "little")
    assert blob[header_end:] == b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def test_checkpoint_truncated(tmp_path):
    tables = init_embeddings(3, 4, seed=0)
    full = tmp_path / "full.ckpt"
    save_checkpoint(full, tables, None, AdamOptimizer(tables), {"seed": 0}, ids=["x", "y", "z"])
    blob = full.read_bytes()
    header_end = 12 + int.from_bytes(blob[8:12], "little")
    cut = tmp_path / "cut.ckpt"
    # Inside the length field, the JSON header, the first array and the last array.
    for size in (10, 20, header_end + 8, len(blob) - 1):
        cut.write_bytes(blob[:size])
        with pytest.raises(ParseError, match="truncated"):
            load_checkpoint(cut)


# the center table read for evaluate ---------------------------------------------

CENTER = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                  suppress_health_check=[HealthCheck.too_slow])


def write_with_checkpoint(directory, ids, center, record_digest=True):
    """embeddings.vec and checkpoint.bin as ``train`` writes them; returns their paths
    and the embedding file's sha256."""
    vec, ckpt = directory / "embeddings.vec", directory / "checkpoint.bin"
    with open(vec, "w") as fh:
        write_embeddings(fh, ids, center)
    digest = hashlib.sha256(vec.read_bytes()).hexdigest()
    tables = EmbeddingTables(center=center, context=np.zeros_like(center))
    save_checkpoint(ckpt, tables, None, AdamOptimizer(tables), {"seed": 0}, ids,
                    digest if record_digest else None)
    return vec, ckpt, digest


@CENTER
@given(st.sampled_from([np.float64, np.float32]), st.data())
def test_center_from_checkpoint_equals_text_bit_for_bit(dtype, data):
    rows = data.draw(st.integers(1, 6))
    dim = data.draw(st.integers(1, 5))
    finite = st.floats(width=np.finfo(dtype).bits, allow_nan=False, allow_infinity=False)
    values = st.one_of(st.sampled_from(EDGE_VALUES[dtype]), finite)
    center = np.array(data.draw(st.lists(values, min_size=rows * dim, max_size=rows * dim)),
                      dtype=dtype).reshape(rows, dim)
    ids = data.draw(st.lists(node_id, min_size=rows, max_size=rows))
    with tempfile.TemporaryDirectory() as tmp:
        vec, ckpt, digest = write_with_checkpoint(Path(tmp), ids, center)
        got_ids, got = load_center(ckpt, digest)
        with open(vec) as fh:
            want_ids, want = read_embeddings(fh)
    assert got_ids == want_ids == ids
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def test_center_needs_the_recorded_digest(tmp_path):
    vec, ckpt, digest = write_with_checkpoint(tmp_path, ["a", "b"], np.eye(2))
    with pytest.raises(ParseError, match="not written with this embedding file"):
        load_center(ckpt, "0" * 64)
    write_with_checkpoint(tmp_path, ["a", "b"], np.eye(2), record_digest=False)
    with pytest.raises(ParseError, match="not written with this embedding file"):
        load_center(ckpt, digest)


json_value = st.recursive(st.none() | st.booleans() | st.integers(-1, 4) | st.text(max_size=3)
                          | st.sampled_from(["center", "float32", "int8"]),
                          lambda inner: st.lists(inner, max_size=3)
                          | st.dictionaries(st.sampled_from(["name", "shape", "dtype"]), inner,
                                            max_size=3),
                          max_leaves=6)


def header_with(field, value):
    """A center table's header entries with ``field`` (or none) set to ``value``."""
    meta = {"name": "center", "shape": [2, 3], "dtype": "float64"}
    header = {"embeddings_sha256": "d", "ids": ["a", "b"], "arrays": [meta]}
    if field in ("ids", "arrays"):
        header[field] = value
    elif field in ("rows", "dim"):
        meta["shape"][field == "dim"] = value
    elif field is not None:
        meta[field] = value
    return header


@CENTER
@given(st.sampled_from(["ids", "arrays", "name", "shape", "rows", "dim", "dtype", None]),
       json_value, st.binary(min_size=40, max_size=56))  # a 2 x 3 float64 table is 48 bytes
def test_any_header_with_the_digest_loads_or_is_a_parse_error(field, value, body):
    header = json.dumps(header_with(field, value)).encode()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.bin"
        path.write_bytes(params.CHECKPOINT_MAGIC + struct.pack("<I", len(header)) + header
                         + body)
        try:
            ids, center = load_center(path, "d")
        except ParseError:
            return
    assert center.dtype == np.float64 and center.shape[0] == len(ids)
