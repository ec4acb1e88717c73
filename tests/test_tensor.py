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


def test_concat_and_take_at_act_on_the_last_axis():
    out = T.concat([t([[1.0, 2.0], [4.0, 5.0]]), t([[3.0], [6.0]])])
    np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    np.testing.assert_array_equal(T.take_at(out, 1).data, [2.0, 5.0])


def test_masked_softmax_zeroes_masked_entries_and_empty_rows():
    mask = np.array([[True, True, False], [False, False, False]])
    out = T.softmax_rows(t([[0.0, 0.0, 50.0], [1.0, 2.0, 3.0]]), mask)
    np.testing.assert_array_equal(out.data, [[0.5, 0.5, 0.0], [0.0, 0.0, 0.0]])


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
        T.tsum(out).backward()
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


def test_sigmoid_extremes_finite():
    out = T.sigmoid(t([-1000.0, 0.0, 1000.0]))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data[1], 0.5)


def test_clip_bounds():
    out = T.clip(t([-1.0, 0.5, 2.0]), 0.0, 1.0)
    np.testing.assert_array_equal(out.data, [0.0, 0.5, 1.0])


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
    reg = T.ParamRegistry()
    p = reg.register("w", np.ones((2, 2)))
    q = reg.register("b", np.zeros(3))
    loss = T.tsum(T.matmul(p, p))
    loss.backward()
    assert np.any(p.grad != 0.0)
    reg.reset_gradients()
    assert np.all(p.grad == 0.0)
    assert np.all(q.grad == 0.0)
    # no backward afterwards: grads stay exactly zero
    assert p.grad.sum() == 0.0


def test_registry_rejects_duplicate_names():
    reg = T.ParamRegistry()
    reg.register("w", np.ones(2))
    with pytest.raises(ValueError):
        reg.register("w", np.ones(2))


def test_gradients_accumulate_across_backwards():
    p = T.Param("p", np.array(2.0))
    T.scale(p, 3.0).backward()
    T.scale(p, 3.0).backward()
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

    loss = T.tsum(T.mul(out, T.Tensor(w)))
    loss.backward()
    numeric = _numeric_grad(loss_value, arrs)
    for ten, num in zip(tens, numeric):
        denom = np.maximum(1.0, np.abs(ten.grad))
        assert np.max(np.abs(ten.grad - num) / denom) < rtol


MASK = np.array([[True, True, False, True], [False, False, False, False], [True, False, False, False]])

OP_CASES = [
    ("matmul", lambda ts: T.matmul(ts[0], ts[1]), [(3, 4), (4, 2)]),
    ("matmul_batched", lambda ts: T.matmul(ts[0], ts[1]), [(2, 3, 4), (4, 2)]),
    ("matvec", lambda ts: T.matvec(ts[0], ts[1]), [(3, 4), (4,)]),
    ("matvec_batched_bias", lambda ts: T.matvec(ts[0], ts[1], ts[2]), [(3, 4), (2, 5, 4), (3,)]),
    ("bmv", lambda ts: T.bmv(ts[0], ts[1]), [(2, 3, 4), (2, 4)]),
    ("transpose", lambda ts: T.transpose(ts[0]), [(3, 4)]),
    ("transpose_batched", lambda ts: T.transpose(ts[0]), [(2, 3, 4)]),
    ("add", lambda ts: T.add(ts[0], ts[1]), [(3, 2), (3, 2)]),
    ("mul", lambda ts: T.mul(ts[0], ts[1]), [(4,), (4,)]),
    ("affine", lambda ts: T.affine(ts[0], -2.5, 0.75), [(3, 2)]),
    ("affine_array", lambda ts: T.affine(ts[0], np.array([1.0, -1.0, 2.0]), 0.5), [(3,)]),
    ("scale_rows", lambda ts: T.scale_rows(ts[0], ts[1]), [(3, 4), (3,)]),
    ("scale_rows_batched", lambda ts: T.scale_rows(ts[0], ts[1]), [(2, 3, 4), (2, 3)]),
    ("relu", lambda ts: T.relu(ts[0]), [(3, 4)]),
    ("sigmoid", lambda ts: T.sigmoid(ts[0]), [(3, 4)]),
    ("log", lambda ts: T.log(T.affine(ts[0], 0.25, 3.0)), [(3, 2)]),
    ("clip_interior", lambda ts: T.clip(ts[0], -50.0, 50.0), [(3, 2)]),
    ("softmax_rows", lambda ts: T.softmax_rows(ts[0]), [(3, 4)]),
    ("softmax_rows_masked", lambda ts: T.softmax_rows(ts[0], MASK), [(3, 4)]),
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
    ("take_at", lambda ts: T.take_at(ts[0], 2), [(5,)]),
    ("take_at_rows", lambda ts: T.take_at(ts[0], 1), [(3, 2)]),
    ("take_diag", lambda ts: T.take_diag(ts[0]), [(4, 4)]),
    ("tsum", lambda ts: T.tsum(ts[0]), [(3, 4)]),
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
        loss = T.tsum(hidden)
        del hidden
        loss.backward()
        assert alive() is None
    finally:
        gc.enable()
    assert np.any(p.grad != 0.0)


def test_release_frees_a_graph_without_backward():
    p = T.Param("p", np.ones((2, 2)))
    gc.disable()
    try:
        out = T.sigmoid(T.matmul(p, p))
        alive = weakref.ref(out._parents[0].data)
        T.release(out)
        del out
        assert alive() is None
    finally:
        gc.enable()
