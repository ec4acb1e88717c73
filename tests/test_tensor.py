import gc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mmfnd import tensor as T
from mmfnd.rng import Rng

import reference_ops as R
from gradcheck import weighted_sum


def t(x):
    return T.Tensor(np.asarray(x, dtype=np.float64))


# ---------------------------------------------------------------------------
# forward examples
# ---------------------------------------------------------------------------


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    eye = np.eye(2)
    np.testing.assert_array_equal(T.matmul(t(eye), t(a)).data, a)
    np.testing.assert_array_equal(T.matmul(t(a), t(eye)).data, a)


def test_matmul_by_hand():
    out = T.matmul(t([[1.0, 2.0]]), t([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_matmul_shape_mismatch_names_shapes():
    with pytest.raises(T.ShapeError) as exc:
        T.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))
    assert "(2, 3)" in str(exc.value)


def test_array_operands_are_constants_and_products_fold_leading_axes():
    """A plain-array operand is no parent and gets no gradient; the other
    operand's gradient is the same as with a Tensor there. Leading axes fold
    into one product that equals the per-row one."""
    gen = Rng(17).stream("array-operand")
    bag, x = gen.normal(size=(2, 3, 4)), gen.normal(size=(2, 5, 3))
    emb_data, w_data = gen.normal(size=(4, 2)), gen.normal(size=(2, 3))
    grads = {}
    for const in (True, False):
        emb, w = T.Param("emb", emb_data), T.Param("w", w_data)
        prod = T.matmul(bag if const else t(bag), emb)
        dense = T.matvec(w, x if const else t(x))
        assert (prod._parents == (emb,) and dense._parents == (w,)) == const
        np.testing.assert_allclose(prod.data, np.einsum("bik,kj->bij", bag, emb_data), rtol=1e-14)
        np.testing.assert_allclose(dense.data, np.einsum("jk,bik->bij", w_data, x), rtol=1e-14)
        R.tsum(prod).backward()
        R.tsum(dense).backward()
        grads[const] = (emb.grad, w.grad)
    for got, want in zip(grads[True], grads[False]):
        np.testing.assert_array_equal(got, want)


def test_param_operands_get_gradients_with_the_tensor_class_rebound(monkeypatch):
    """A stage tracer rebinds ``Tensor`` to a subclass; a Param is then no
    instance of it, and must still count as a variable operand."""

    class Traced(T.Tensor):
        __slots__ = ()

    monkeypatch.setattr(T, "Tensor", Traced)
    a, w, x = T.Param("a", np.ones((2, 3))), T.Param("w", np.ones((2, 3))), T.Param("x", np.ones((4, 3)))
    R.tsum(T.matmul(a, T.Param("b", np.ones((3, 2))))).backward()
    R.tsum(T.matvec(w, x)).backward()
    np.testing.assert_array_equal(a.grad, np.full((2, 3), 2.0))
    np.testing.assert_array_equal(x.grad, np.full((4, 3), 2.0))


def test_softmax_symmetry_and_stability():
    out = T.softmax_rows(t([[0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[0.5, 0.5]])
    big = T.softmax_rows(t([[1000.0, 0.0]]))
    assert np.all(np.isfinite(big.data))
    np.testing.assert_allclose(big.data, [[1.0, 0.0]], atol=1e-300)


def test_softmax_against_high_precision_oracle():
    # independent arbitrary-precision evaluation of exp(x_i)/sum exp(x_j)
    import mpmath

    mpmath.mp.dps = 50
    xs = [1.0, 2.0, 3.0]
    es = [mpmath.e ** x for x in xs]
    total = sum(es)
    expected = [float(e / total) for e in es]
    out = T.softmax_rows(t([xs]))
    np.testing.assert_allclose(out.data[0], expected, rtol=1e-14)


def test_l2_normalize_345():
    out = T.l2_normalize(t([3.0, 4.0]))
    np.testing.assert_allclose(out.data, [0.6, 0.8])


def test_l2_normalize_zero_vector_rejected():
    with pytest.raises(T.DegenerateInputError):
        T.l2_normalize(t([0.0, 0.0]))


def test_mean_pool_by_hand():
    out = T.mean_pool(t([[1.0, 3.0], [5.0, 7.0]]), axis=0)
    np.testing.assert_array_equal(out.data, [3.0, 5.0])


def test_concat_layout():
    out = T.concat([t([1.0, 2.0]), t([3.0])])
    np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])


def test_masked_softmax_zeroes_masked_entries_and_empty_rows():
    mask = np.array([[True, True, False], [False, False, False]])
    out = T.softmax(np.array([[0.0, 0.0, 50.0], [1.0, 2.0, 3.0]]), mask)
    np.testing.assert_array_equal(out, [[0.5, 0.5, 0.0], [0.0, 0.0, 0.0]])


def test_rank1_max_pool_equals_column_max_of_outer_product():
    gen = Rng(7).stream("rank1")
    u, v = gen.normal(size=(3, 5)), gen.normal(size=(3, 4))
    v[0, 1] = 0.0
    out = T.rank1_max_pool(t(u), t(v))
    expected = (u[:, :, None] * v[:, None, :]).max(axis=1)
    np.testing.assert_array_equal(out.data, expected)


def _attention_oracle(u, v, c):
    """softmax(c u v^T) @ v for one pair of vectors, in 50-digit arithmetic."""
    import mpmath

    with mpmath.workdps(50):
        out = []
        for ui in u:
            w = [mpmath.e ** (mpmath.mpf(c) * mpmath.mpf(ui) * mpmath.mpf(vj)) for vj in v]
            out.append(float(sum(wj * mpmath.mpf(vj) for wj, vj in zip(w, v)) / sum(w)))
        return out


def test_rank1_attention_against_high_precision_oracle():
    gen = Rng(8).stream("rank1-attention")
    u, v = gen.normal(size=(2, 4)) * 3.0, gen.normal(size=(2, 5))
    u[0, 1] = 0.0
    out = T.rank1_attention(t(u), t(v), 0.5)
    for b in range(2):
        np.testing.assert_allclose(out.data[b], _attention_oracle(u[b], v[b], 0.5), rtol=1e-13, atol=1e-15)


def test_rank1_attention_of_a_zero_query_is_the_mean_value():
    v = np.array([[1.0, -2.0, 4.0, 0.5], [3.0, 3.0, -1.0, 7.0]])
    out = T.rank1_attention(t(np.zeros((2, 3))), t(v), 2.0)
    np.testing.assert_allclose(out.data, np.repeat(v.mean(axis=1, keepdims=True), 3, axis=1), atol=1e-15)


def test_rank1_attention_extreme_logits_stay_finite_and_warning_free():
    """|c u_i v_j| up to 1e4: rows collapse onto the value at the peak logit."""
    u = t([[100.0, -100.0, 1e-3, 0.0]])
    v = np.array([[-10.0, 3.0, 10.0]])
    p = T.Param("v", v)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = T.rank1_attention(u, p, 10.0)
        R.tsum(out).backward()
        probs = T.rank1_softmax(u.data, v, 10.0)
    assert np.all(np.isfinite(out.data)) and np.all(np.isfinite(p.grad)) and np.all(np.isfinite(probs))
    np.testing.assert_allclose(out.data[0, :2], [10.0, -10.0], atol=1e-12)
    np.testing.assert_allclose(out.data[0, 3], v.mean(), atol=1e-12)


def test_rank1_softmax_is_softmax_of_scaled_outer_product():
    gen = Rng(9).stream("rank1-softmax")
    u, v = gen.normal(size=(2, 4)), gen.normal(size=(2, 3))
    logits = 0.5 * u[:, :, None] * v[:, None, :]
    expected = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(T.rank1_softmax(u, v, 0.5), expected, atol=1e-15)


def test_rank1_attention_gradient_at_zero_and_mixed_sign_queries():
    gen = Rng(10).stream("rank1-attention-grad")
    u = np.array([[0.0, -1.3, 0.8, 0.0, 2.1], [1.1, 0.0, -0.4, -2.2, 0.0]])
    _check_op(lambda ts: T.rank1_attention(ts[0], ts[1], 0.7), [u, gen.normal(size=(2, 4))])


def _unit_rows(gen, b, d):
    x = gen.normal(size=(b, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@pytest.mark.parametrize("b,d", [(8, 64), (1, 256)])
def test_rank1_attention_series_against_high_precision_oracle(b, d):
    """Unit-norm inputs at the model's scale 1/sqrt(d), above the logit floor:
    the power-series path, checked row by row against 50-digit softmax."""
    gen = Rng(12).stream("rank1-series", d)
    u, v = _unit_rows(gen, b, d), _unit_rows(gen, b, d)
    c = 1.0 / np.sqrt(d)
    assert T._series_order(u, v, c) is not None
    out = T.rank1_attention(t(u), t(v), c)
    for k in range(b):
        # the largest and smallest query entries and a few others
        rows = np.unique(np.r_[np.argmax(u[k]), np.argmin(u[k]), gen.integers(0, d, size=6)])
        np.testing.assert_allclose(out.data[k, rows], _attention_oracle(u[k, rows], v[k], c), rtol=1e-13, atol=1e-16)


def test_rank1_attention_series_gradient_matches_finite_differences():
    """Entries of magnitude 0.3-1.7 at c = 0.3 put the radius near 1, the
    highest series order, with exact zeros in the query."""
    gen = Rng(13).stream("rank1-series-grad")
    u, v = (gen.uniform(0.3, 1.7, size=(8, 64)) * gen.choice([-1.0, 1.0], size=(8, 64)) for _ in range(2))
    u[:, ::7] = 0.0
    assert T._series_order(u, v, 0.3) >= 15
    _check_op(lambda ts: T.rank1_attention(ts[0], ts[1], 0.3), [u, v])


def _attention_and_gradients(u, v, c):
    pu, pv = T.Param("u", u), T.Param("v", v)
    out = T.rank1_attention(pu, pv, c)
    weighted_sum(out, np.linspace(0.5, 1.5, out.data.size).reshape(out.data.shape)).backward()
    return out.data, pu.grad, pv.grad


@pytest.mark.parametrize("radius", [0.0, 1.0 - 1e-9, 1.0 + 1e-9])
def test_rank1_attention_series_and_exp_paths_agree_at_the_radius_limit(radius, monkeypatch):
    """Just inside r = 1 the series runs, just outside the exp path does;
    forward and gradients agree with the exp path on the same inputs."""
    gen = Rng(14).stream("rank1-series-edge")
    u, v = gen.uniform(-1.0, 1.0, size=(8, 64)), gen.uniform(-1.0, 1.0, size=(8, 64))
    u /= np.abs(u).max()
    v /= np.abs(v).max()
    c = max(radius, 0.5)
    u *= radius / c  # max|u| max|v| c = radius
    assert (T._series_order(u, v, c) is not None) == (radius <= 1.0)
    series = _attention_and_gradients(u, v, c)
    monkeypatch.setattr(T, "_SERIES_MIN_LOGITS", np.inf)
    exp = _attention_and_gradients(u, v, c)
    for got, want in zip(series, exp):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(series[0], np.einsum("bij,bj->bi", T.rank1_softmax(u, v, c), v), rtol=1e-13, atol=1e-15)


def test_rank1_attention_memory_stays_below_a_quarter_of_one_attention_map():
    """Forward and backward at (32, 256) on unit vectors allocate nothing of
    the (32, 256, 256) size: the peak stays below a quarter of one map."""
    import tracemalloc

    gen = Rng(15).stream("rank1-memory")
    u, v = T.Param("u", _unit_rows(gen, 32, 256)), T.Param("v", _unit_rows(gen, 32, 256))
    tracemalloc.start()
    try:
        R.tsum(T.rank1_attention(u, v, 1.0 / 16.0)).backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 256 * 256 * 8 / 4


def test_sigmoid_extremes_finite():
    out = T.sigmoid(t([-1000.0, 0.0, 1000.0]))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data[1], 0.5)


def test_sigmoid_is_bit_identical_to_the_three_exp_formula():
    extremes = [-0.0, 0.0, 1e-300, -1e-300, 36.7, -36.7]
    x = np.concatenate([np.linspace(-800.0, 800.0, 1601), extremes, Rng(16).stream("sigmoid").normal(size=500) * 5])
    old = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    np.testing.assert_array_equal(T.sigmoid(t(x)).data, old)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 6)),
        elements=st.floats(-1e3, 1e3, allow_nan=False),
    )
)
def test_softmax_rows_sum_to_one(x):
    p = T.softmax_rows(t(x)).data
    assert np.all(p >= 0.0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(2, 8),
        elements=st.floats(-100.0, 100.0, allow_nan=False),
    ).filter(lambda v: np.linalg.norm(v) > 1e-6)
)
def test_l2_normalize_unit_norm(v):
    out = T.l2_normalize(t(v))
    np.testing.assert_allclose(np.linalg.norm(out.data), 1.0, atol=1e-12)


def test_param_registry_reset():
    reg = T.ParamRegistry([("w", np.ones((2, 2))), ("b", np.zeros(3))])
    p, q = reg["w"], reg["b"]
    loss = R.tsum(T.matmul(p, p))
    loss.backward()
    assert np.any(p.grad != 0.0)
    reg.reset_gradients()
    assert np.all(p.grad == 0.0)
    assert np.all(q.grad == 0.0)
    # no backward afterwards: grads stay exactly zero
    assert p.grad.sum() == 0.0


def test_registry_rejects_duplicate_names():
    with pytest.raises(ValueError):
        T.ParamRegistry([("w", np.ones(2)), ("w", np.ones(2))])


def test_gradients_accumulate_across_backwards():
    p = T.Param("p", np.array(2.0))
    T.affine(p, 3.0, 0.0).backward()
    T.affine(p, 3.0, 0.0).backward()
    assert p.grad == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# backward vs central finite differences, per operation
# ---------------------------------------------------------------------------


def _numeric_grad(f, arrs, h=1e-6):
    grads = [np.zeros_like(a) for a in arrs]
    for a, g in zip(arrs, grads):
        flat, gflat = a.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
    return grads


def _check_op(build, arrs, rtol=1e-6):
    """build(tensors) -> output tensor; loss is a fixed weighted sum."""
    tens = [T.Tensor(a) for a in arrs]
    out = build(tens)
    w = np.linspace(0.5, 1.5, out.data.size).reshape(out.data.shape)

    def loss_value():
        o = build([T.Tensor(a) for a in arrs])
        return float((o.data * w).sum())

    loss = weighted_sum(out, w)
    loss.backward()
    numeric = _numeric_grad(loss_value, arrs)
    for ten, num in zip(tens, numeric):
        denom = np.maximum(1.0, np.abs(ten.grad))
        assert np.max(np.abs(ten.grad - num) / denom) < rtol


MASK = np.array([[True, True, False, True], [False, False, False, False], [True, False, False, False]])
POOL_WEIGHTS = np.array([1.0 / 3.0, 1.0, 1.0])
POSITIVE = np.array([True, False, True])
SUM_WEIGHTS = np.linspace(-1.0, 2.0, 12).reshape(3, 4)

OP_CASES = [
    ("matmul", lambda ts: T.matmul(ts[0], ts[1]), [(3, 4), (4, 2)]),
    ("matmul_batched", lambda ts: T.matmul(ts[0], ts[1]), [(2, 3, 4), (4, 2)]),
    ("matvec", lambda ts: T.matvec(ts[0], ts[1]), [(3, 4), (4,)]),
    ("matvec_batched_bias", lambda ts: T.matvec(ts[0], ts[1], ts[2]), [(3, 4), (2, 5, 4), (3,)]),
    ("bmv", lambda ts: R.bmv(ts[0], ts[1]), [(2, 3, 4), (2, 4)]),
    ("transpose", lambda ts: R.transpose(ts[0]), [(3, 4)]),
    ("transpose_batched", lambda ts: R.transpose(ts[0]), [(2, 3, 4)]),
    ("add", lambda ts: T.add(ts[0], ts[1]), [(3, 2), (3, 2)]),
    ("mul", lambda ts: R.mul(ts[0], ts[1]), [(4,), (4,)]),
    ("affine", lambda ts: T.affine(ts[0], -2.5, 0.75), [(3, 2)]),
    ("affine_array", lambda ts: T.affine(ts[0], np.array([1.0, -1.0, 2.0]), 0.5), [(3,)]),
    ("scale_rows", lambda ts: R.scale_rows(ts[0], ts[1]), [(3, 4), (3,)]),
    ("scale_rows_batched", lambda ts: R.scale_rows(ts[0], ts[1]), [(2, 3, 4), (2, 3)]),
    ("relu", lambda ts: T.relu(ts[0]), [(3, 4)]),
    ("sigmoid", lambda ts: T.sigmoid(ts[0]), [(3, 4)]),
    ("softmax_rows", lambda ts: T.softmax_rows(ts[0]), [(3, 4)]),
    ("softmax_rows_masked", lambda ts: R.masked_softmax_rows(ts[0], MASK), [(3, 4)]),
    ("rank1_attention", lambda ts: T.rank1_attention(ts[0], ts[1], 0.7), [(2, 4), (2, 3)]),
    ("l2_normalize", lambda ts: T.l2_normalize(ts[0]), [(5,)]),
    ("l2_normalize_rows", lambda ts: T.l2_normalize(ts[0]), [(3, 5)]),
    ("mean_pool_0", lambda ts: T.mean_pool(ts[0], 0), [(3, 4)]),
    ("mean_pool_1", lambda ts: T.mean_pool(ts[0], 1), [(3, 4)]),
    ("mean_pool_vector", lambda ts: T.mean_pool(ts[0], 0), [(5,)]),
    ("rank1_max_pool", lambda ts: T.rank1_max_pool(ts[0], ts[1]), [(2, 4), (2, 5)]),
    ("concat", lambda ts: T.concat(list(ts)), [(3,), (2,), (4,)]),
    ("concat_rows", lambda ts: T.concat(list(ts)), [(2, 3), (2, 1)]),
    ("stack_rows", lambda ts: T.stack_rows(list(ts)), [(4,), (4,), (4,)]),
    ("stack_matrices", lambda ts: T.stack_rows(list(ts)), [(2, 3), (2, 3)]),
    ("gated_concat", lambda ts: T.gated_concat(list(ts[:3]), ts[3]), [(2, 4), (2, 4), (2, 4), (2, 3)]),
    ("attention_pool", lambda ts: T.attention_pool(ts[0], ts[1], MASK, POOL_WEIGHTS), [(3, 5), (3, 4, 5)]),
    ("infonce", lambda ts: T.infonce(ts[0], ts[1], 0.7, 1e-12)[0], [(4, 3), (4, 3)]),
    ("binary_nll", lambda ts: T.binary_nll(T.softmax_rows(ts[0]), 1, POSITIVE, 1e-12), [(3, 2)]),
    ("tsum", lambda ts: R.tsum(ts[0]), [(3, 4)]),
    ("weighted_sum", lambda ts: weighted_sum(ts[0], SUM_WEIGHTS), [(3, 4)]),
]


@pytest.mark.parametrize("name,build,shapes", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_op_gradients_match_finite_differences(name, build, shapes):
    # >= 4 random instances per op keeps the whole suite past 100 instances
    for trial in range(4):
        gen = Rng(1234 + trial).stream("opgrad", name)
        arrs = [gen.uniform(0.3, 1.7, size=s) * gen.choice([-1.0, 1.0], size=s) for s in shapes]
        _check_op(build, arrs)


def test_backward_requires_scalar():
    with pytest.raises(T.ShapeError):
        t([1.0, 2.0]).backward()


def test_backward_unlinks_the_graph_so_refcounting_frees_it():
    """No cyclic garbage: with the collector off, an intermediate node's
    array is freed by the sweep itself, while the loss is still held."""
    p = T.Param("p", np.array([[1.0, 2.0], [3.0, 4.0]]))
    gc.disable()
    try:
        hidden = T.softmax_rows(T.matmul(p, p))
        alive = weakref.ref(hidden.data)
        loss = R.tsum(hidden)
        del hidden
        loss.backward()
        assert alive() is None
    finally:
        gc.enable()
    assert np.any(p.grad != 0.0)

