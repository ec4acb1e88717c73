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
    np.testing.assert_array_equal(T.matmul(eye, t(a), [(2,)])[0].data, a)
    np.testing.assert_array_equal(T.matmul(a, t(eye), [(2,)])[0].data, a)


def test_matmul_by_hand():
    (out,) = T.matmul(np.array([[1.0, 2.0]]), t([[3.0], [4.0]]), [(1,)])
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_matmul_shape_mismatch_names_shapes():
    with pytest.raises(T.ShapeError) as exc:
        T.matmul(np.ones((2, 3)), t(np.ones((2, 3))), [(2,)])
    assert "(2, 3)" in str(exc.value)


def test_array_operands_are_constants_and_products_fold_leading_axes():
    """A plain-array operand is no parent and gets no gradient; the other
    operand's gradient is the same as with a Tensor there. Leading axes fold
    into one product that equals the per-row one: for ``matvec`` those of
    x, for ``matmul`` those of a block shape."""
    gen = Rng(17).stream("array-operand")
    bag, x = gen.normal(size=(2, 3, 4)), gen.normal(size=(2, 5, 3))
    emb_data, w_data = gen.normal(size=(4, 2)), gen.normal(size=(2, 3))
    grads = {}
    for const in (True, False):
        w = T.Param("w", w_data)
        dense = T.matvec(w, x if const else t(x))
        assert (dense._parents == (w,)) == const
        np.testing.assert_allclose(dense.data, np.einsum("jk,bik->bij", w_data, x), rtol=1e-14)
        R.tsum(dense).backward()
        grads[const] = w.grad
    np.testing.assert_array_equal(grads[True], grads[False])
    emb = T.Param("emb", emb_data)
    (prod,) = T.matmul(bag.reshape(6, 4), emb, [(2, 3)])
    assert prod._parents == (emb,)
    np.testing.assert_allclose(prod.data, np.einsum("bik,kj->bij", bag, emb_data), rtol=1e-14)
    R.tsum(prod).backward()
    np.testing.assert_allclose(emb.grad, np.einsum("bik,bij->kj", bag, np.ones((2, 3, 2))), rtol=1e-14)


@pytest.mark.parametrize("d", [64, 256])
def test_matmul_blocks_equal_the_products_of_each_block_alone(d):
    """One product split into row blocks of 7 or more rows, the sizes a
    training batch makes, gives each block, and each block's gradient of
    the table, the bits of that block's own product. (BLAS may sum a one-
    or two-row product in another order.)"""
    gen = Rng(18).stream("matmul-blocks", d)
    leads = [(32,), (32, 2), (7,), (64,)]
    bag = gen.uniform(size=(32 + 64 + 7 + 64, 121))
    emb_data = gen.normal(size=(121, d))
    emb = T.Param("emb", emb_data)
    blocks = T.matmul(bag, emb, leads)
    np.testing.assert_array_equal(np.concatenate([b.reshape(-1, d) for b in T.matmul(bag, emb_data, leads)]),
                                  bag @ emb_data)
    start = 0
    for lead, block in zip(leads, blocks):
        rows = bag[start:start + int(np.prod(lead))].reshape(lead + (121,))
        start += rows.size // 121
        alone = T.Param("alone", emb_data)
        (want,) = T.matmul(rows.reshape(-1, 121), alone, [lead])
        assert block._parents == (emb,) and block.data.tobytes() == want.data.tobytes()
        g = gen.normal(size=want.data.shape)
        emb.grad[...] = 0.0
        weighted_sum(block, g).backward()
        weighted_sum(want, g).backward()
        assert emb.grad.tobytes() == alone.grad.tobytes()


def test_matmul_blocks_must_split_the_rows_of_a_constant():
    emb = T.Param("emb", np.ones((3, 2)))
    with pytest.raises(T.ShapeError, match=r"\[\(2,\), \(3,\)\]"):
        T.matmul(np.ones((4, 3)), emb, [(2,), (3,)])
    with pytest.raises(T.ShapeError, match=r"\(2, 2, 3\)"):
        T.matmul(np.ones((2, 2, 3)), emb, [(2,), (2,)])


def test_param_operands_get_gradients_with_the_tensor_class_rebound(monkeypatch):
    """A stage tracer rebinds ``Tensor`` to a subclass; a Param is then no
    instance of it, and must still count as a variable operand."""

    class Traced(T.Tensor):
        __slots__ = ()

    monkeypatch.setattr(T, "Tensor", Traced)
    b, w, x = T.Param("b", np.ones((3, 2))), T.Param("w", np.ones((2, 3))), T.Param("x", np.ones((4, 3)))
    R.tsum(T.matmul(np.ones((2, 3)), b, [(2,)])[0]).backward()
    R.tsum(T.matvec(w, x)).backward()
    np.testing.assert_array_equal(b.grad, np.full((3, 2), 2.0))
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


def test_mean_parts_by_hand():
    out = T.mean_parts([t([1.0, 3.0]), t([5.0, 7.0])])
    np.testing.assert_array_equal(out.data, [3.0, 5.0])


def test_mean_parts_rejects_unequal_shapes():
    with pytest.raises(T.ShapeError, match=r"\(2,\).*\(3,\)"):
        T.mean_parts([t([1.0, 2.0]), t([1.0, 2.0, 3.0])])


def test_gated_concat_with_plain_unit_gates_is_the_concatenation():
    """Plain gates are a constant: the node's parents are the parts only,
    unit gates give np.concatenate to the bit, and each part's gradient is
    its slice of the output gradient."""
    gen = Rng(21).stream("unit-gates")
    arrays = [gen.normal(size=(3, 4)) for _ in range(3)]
    parts = [T.Param(f"p{i}", a) for i, a in enumerate(arrays)]
    out = T.gated_concat(parts, np.ones((3, 3)))
    assert out._parents == tuple(parts)
    assert out.data.tobytes() == np.concatenate(arrays, axis=-1).tobytes()
    g = gen.normal(size=(3, 12))
    weighted_sum(out, g).backward()
    for i, p in enumerate(parts):
        assert p.grad.tobytes() == g[:, 4 * i:4 * (i + 1)].tobytes()


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
    u, v = gen.normal(size=(2, 4)), gen.normal(size=(2, 4))
    u *= 1.4 / np.abs(u).max()  # radius 0.5 * 1.4 * 1.4 = 0.98
    v *= 1.4 / np.abs(v).max()
    u[0, 1] = 0.0
    out = T.rank1_attention(t(u), t(v), 0.5)[0]
    for b in range(2):
        np.testing.assert_allclose(out.data[b], _attention_oracle(u[b], v[b], 0.5), rtol=1e-13, atol=1e-15)


def test_rank1_attention_of_a_zero_query_is_the_mean_value():
    v = np.array([[1.0, -2.0, 4.0, 0.5], [3.0, 3.0, -1.0, 7.0]])
    out = T.rank1_attention(t(np.zeros((2, 4))), t(v), 2.0)[0]
    np.testing.assert_allclose(out.data, np.repeat(v.mean(axis=1, keepdims=True), 4, axis=1), atol=1e-15)


def test_rank1_attention_extreme_logits_stay_finite_and_warning_free():
    """|c u_i v_j| up to 1, the largest radius the op takes: the top
    series order, finite and warning-free, and a zero query still gets
    the mean value."""
    u = t([[10.0, -10.0, 1e-3, 0.0]])
    v = np.array([[-0.1, 0.03, 0.1, -0.05]])
    p = T.Param("v", v)
    assert T._series_order(u.data, v, 1.0) == 18
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = T.rank1_attention(u, p, 1.0)[0]
        R.tsum(out).backward()
    assert np.all(np.isfinite(out.data)) and np.all(np.isfinite(p.grad))
    np.testing.assert_allclose(out.data[0, :2], [_attention_oracle(row, v[0], 1.0)[0] for row in ([10.0], [-10.0])], rtol=1e-13)
    np.testing.assert_allclose(out.data[0, 3], v.mean(), atol=1e-15)


def test_rank1_attention_gradient_at_zero_and_mixed_sign_queries():
    gen = Rng(10).stream("rank1-attention-grad")
    u = np.array([[0.0, -1.3, 0.8, 0.0, 2.1], [1.1, 0.0, -0.4, -2.2, 0.0]])
    v = gen.normal(size=(2, 5))
    v *= 0.6 / np.abs(v).max()  # radius 0.7 * 2.2 * 0.6 = 0.924
    _check_op(lambda ts: T.rank1_attention(ts[0], ts[1], 0.7)[0], [u, v])


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
    out = T.rank1_attention(t(u), t(v), c)[0]
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
    _check_op(lambda ts: T.rank1_attention(ts[0], ts[1], 0.3)[0], [u, v])


def _attention_and_gradients(u, v, c):
    pu, pv = T.Param("u", u), T.Param("v", v)
    out = T.rank1_attention(pu, pv, c)[0]
    weighted_sum(out, np.linspace(0.5, 1.5, out.data.size).reshape(out.data.shape)).backward()
    return out.data, pu.grad, pv.grad


def _exp_attention_and_gradients(u, v, c):
    """``_attention_and_gradients`` through the exponentiated (B, n, m) map:
    with p the row softmax and y the output, d y_i / d u_i is
    c (E_p[v^2] - y_i^2) and d y_i / d v_j is p_ij (1 + c u_i (v_j - y_i))."""
    g = np.linspace(0.5, 1.5, u.size).reshape(u.shape)
    p = T.softmax(c * (u[:, :, None] * v[:, None, :]))
    y = np.einsum("bij,bj->bi", p, v)
    gu = g * c * (np.einsum("bij,bj->bi", p, v * v) - y * y)
    gv = np.einsum("bi,bij->bj", g, p * (1.0 + c * u[:, :, None] * (v[:, None, :] - y[:, :, None])))
    return y, gu, gv


@pytest.mark.parametrize("radius", [0.0, 1.0 - 1e-9, 1.0])
def test_rank1_attention_series_and_exp_paths_agree_at_the_radius_limit(radius):
    """From r = 0 (order 0) up to r = 1 (order 18), the series' forward and
    gradients agree with those of the exponentiated map on the same inputs."""
    gen = Rng(14).stream("rank1-series-edge")
    u, v = gen.uniform(-1.0, 1.0, size=(8, 64)), gen.uniform(-1.0, 1.0, size=(8, 64))
    u /= np.abs(u).max()
    v /= np.abs(v).max()
    c = max(radius, 0.5)
    u *= radius / c  # max|u| max|v| c = radius
    assert T._series_order(u, v, c) == (0 if radius == 0.0 else 18)
    series = _attention_and_gradients(u, v, c)
    exp = _exp_attention_and_gradients(u, v, c)
    for got, want in zip(series, exp):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


def test_rank1_attention_at_radius_one_matches_the_oracle():
    """r = 1 exactly: the top order, 18, the last row of the series tables."""
    gen = Rng(16).stream("rank1-radius-one")
    u, v = gen.uniform(-1.0, 1.0, size=(2, 6)), gen.uniform(-1.0, 1.0, size=(2, 6))
    u /= np.abs(u).max()
    v /= np.abs(v).max()
    assert T._series_order(u, v, 1.0) == 18 == len(T._INV_FACT) - 1
    out = T.rank1_attention(t(u), t(v), 1.0)[0]
    for b in range(2):
        np.testing.assert_allclose(out.data[b], _attention_oracle(u[b], v[b], 1.0), rtol=1e-13, atol=1e-15)


def test_rank1_attention_rejects_a_radius_above_one_naming_it():
    u, v = np.array([[1.0 + 1e-9, -0.5]]), np.array([[1.0, 0.25]])
    for operands in ((u, v), (t(u), T.Param("v", v)), (v, u)):
        with pytest.raises(T.DegenerateInputError, match=r"r = 1\.000000001"):
            T.rank1_attention(*operands, 1.0)


@pytest.mark.parametrize("u_shape,v_shape", [((2, 4), (2, 3)), ((2, 4), (3, 4)), ((4,), (4,))])
def test_rank1_attention_rejects_operands_other_than_two_of_one_2d_shape_naming_both(u_shape, v_shape):
    for operands in ((np.zeros(u_shape), np.zeros(v_shape)), (t(np.zeros(u_shape)), T.Param("v", np.zeros(v_shape)))):
        with pytest.raises(T.ShapeError) as exc:
            T.rank1_attention(*operands, 0.5)
        assert str(u_shape) in str(exc.value) and str(v_shape) in str(exc.value)


def _one_direction(u, v, c, k):
    """u attending over v alone, through one ``_series_moments`` problem."""
    sums = T._series_moments(c * u[None], v[None], k)[0][0]
    return sums[..., 1] / sums[..., 0]


@pytest.mark.parametrize("b,d", [(1, 64), (32, 64), (32, 256)])
def test_rank1_attention_pair_equals_each_direction_alone_and_the_oracle(b, d):
    """Unit vectors at the model's scale: the stacked pass gives each
    direction the bits of that direction computed alone at the pair's order,
    on plain arrays and on the tape, and each matches 50-digit softmax."""
    gen = Rng(19).stream("rank1-pair", b, d)
    u, v = _unit_rows(gen, b, d), _unit_rows(gen, b, d)
    c = 1.0 / np.sqrt(d)
    k = T._series_order(u, v, c)
    assert k == T._series_order(v, u, c)
    plain = T.rank1_attention(u, v, c)
    taped = T.rank1_attention(t(u), t(v), c)
    for got, on_tape, (x, y) in zip(plain, taped, ((u, v), (v, u))):
        want = _one_direction(x, y, c, k)
        assert got.tobytes() == on_tape.data.tobytes() == want.tobytes()
        rows = np.unique(np.r_[np.argmax(x[0]), np.argmin(x[0]), gen.integers(0, d, size=4)])
        np.testing.assert_allclose(got[0, rows], _attention_oracle(x[0, rows], y[0], c), rtol=1e-13, atol=1e-16)


def test_rank1_attention_pair_backward_matches_the_exponentiated_map():
    """Each direction's node, on two batch shapes, gets the gradients of the
    exponentiated map, and a loss on both directions gets their sum."""
    gen = Rng(20).stream("rank1-pair-grad")
    for shape in ((4, 5), (2, 3)):
        u, v = gen.uniform(-1.0, 1.0, size=shape), gen.uniform(-1.0, 1.0, size=shape)
        c = 0.9
        y_u, gu_u, gv_u = _exp_attention_and_gradients(u, v, c)
        y_v, gv_v, gu_v = _exp_attention_and_gradients(v, u, c)
        pu, pv = T.Param("u", u), T.Param("v", v)
        out_u, out_v = T.rank1_attention(pu, pv, c)
        ramps = [np.linspace(0.5, 1.5, x.size).reshape(x.shape) for x in (u, v)]
        T.add(weighted_sum(out_u, ramps[0]), weighted_sum(out_v, ramps[1])).backward()
        for got, want in ((out_u.data, y_u), (out_v.data, y_v), (pu.grad, gu_u + gu_v), (pv.grad, gv_u + gv_v)):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


def test_rank1_attention_passes_non_finite_operands_to_the_output():
    """A NaN or inf radius takes the top order, so a non-finite query entry
    poisons its own output entry and a non-finite value poisons them all."""
    u, v = np.array([[0.5, np.nan, -0.25]]), np.array([[1.0, 0.25, -0.5]])
    assert T._series_order(u, v, 1.0) == 18
    with np.errstate(invalid="ignore", over="ignore"):
        out = T.rank1_attention(u, v, 1.0)[0]
        assert np.isnan(out[0, 1]) and np.all(np.isfinite(out[0, [0, 2]]))
        u[0, 1], v[0, 1] = 0.75, np.inf
        assert T._series_order(u, v, 1.0) == 18
        assert not np.any(np.isfinite(T.rank1_attention(u, v, 1.0)[0]))


def test_rank1_attention_memory_stays_below_a_quarter_of_one_attention_map():
    """Forward and backward at (32, 256) on unit vectors allocate nothing of
    the (32, 256, 256) size: the peak stays below a quarter of one map."""
    import tracemalloc

    gen = Rng(15).stream("rank1-memory")
    u, v = T.Param("u", _unit_rows(gen, 32, 256)), T.Param("v", _unit_rows(gen, 32, 256))
    tracemalloc.start()
    try:
        R.tsum(T.rank1_attention(u, v, 1.0 / 16.0)[0]).backward()
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
    loss = R.tsum(T.matvec(p, p))
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
BLOCK_BAG = np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.25, 0.0, 0.75], [1.0, 0.0, 0.0]])
PLAIN_GATES = np.array([[0.5, 1.0, -2.0], [1.5, 0.25, 3.0]])

OP_CASES = [
    ("matmul", lambda ts: T.matmul(BLOCK_BAG, ts[0], [(4,)])[0], [(3, 2)]),
    ("matmul_batched", lambda ts: T.matmul(BLOCK_BAG, ts[0], [(2, 2)])[0], [(3, 2)]),
    # unit gates: the blocks side by side, so each block's backward meets its own weights
    ("matmul_blocks", lambda ts: T.gated_concat(T.matmul(BLOCK_BAG, ts[0], [(2,), (2,)]), np.ones((2, 2))), [(3, 2)]),
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
    ("rank1_attention", lambda ts: T.rank1_attention(ts[0], ts[1], 0.3)[0], [(3, 5), (3, 5)]),
    ("rank1_attention_back", lambda ts: T.rank1_attention(ts[0], ts[1], 0.3)[1], [(3, 5), (3, 5)]),
    ("rank1_attention_pair_u", lambda ts: T.rank1_attention(ts[0], ts[1], 0.3)[0], [(2, 4), (2, 4)]),
    ("rank1_attention_pair_v", lambda ts: T.rank1_attention(ts[0], ts[1], 0.3)[1], [(2, 4), (2, 4)]),
    ("rank1_attention_pair_sum", lambda ts: T.add(*T.rank1_attention(ts[0], ts[1], 0.3)), [(2, 4), (2, 4)]),
    ("l2_normalize", lambda ts: T.l2_normalize(ts[0]), [(5,)]),
    ("l2_normalize_rows", lambda ts: T.l2_normalize(ts[0]), [(3, 5)]),
    ("mean_parts", lambda ts: T.mean_parts(list(ts)), [(4,), (4,), (4,)]),
    ("mean_parts_matrices", lambda ts: T.mean_parts(list(ts)), [(2, 3), (2, 3)]),
    ("rank1_max_pool", lambda ts: T.rank1_max_pool(ts[0], ts[1]), [(2, 4), (2, 5)]),
    # the plain concatenation, as ``fuse.fuse`` runs it without learned gates
    ("concat", lambda ts: T.gated_concat(list(ts), np.ones(3)), [(4,), (4,), (4,)]),
    ("concat_rows", lambda ts: T.gated_concat(list(ts), np.ones((2, 2))), [(2, 3), (2, 3)]),
    ("gated_concat", lambda ts: T.gated_concat(list(ts[:3]), ts[3]), [(2, 4), (2, 4), (2, 4), (2, 3)]),
    ("gated_concat_plain_gates", lambda ts: T.gated_concat(list(ts), PLAIN_GATES), [(2, 4), (2, 4), (2, 4)]),
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


# built through the test-side references or a loss head, which is tape-only
TAPE_ONLY_CASES = {
    "bmv", "transpose", "transpose_batched", "mul", "scale_rows", "scale_rows_batched",
    "softmax_rows_masked", "infonce", "binary_nll", "tsum", "weighted_sum",
}
PLAIN_CASES = [c for c in OP_CASES if c[0] not in TAPE_ONLY_CASES]


@pytest.mark.parametrize("name,build,shapes", PLAIN_CASES, ids=[c[0] for c in PLAIN_CASES])
def test_ops_pass_plain_arrays_through(name, build, shapes, monkeypatch):
    """On plain arrays an op returns a plain array, the same bits as its tape
    output, and makes no node, with ``Tensor`` rebound to a counting
    subclass as the stage tracer rebinds it."""
    gen = Rng(4321).stream("plain", name)
    arrs = [gen.uniform(0.3, 1.7, size=s) * gen.choice([-1.0, 1.0], size=s) for s in shapes]
    want = build([T.Tensor(a) for a in arrs]).data
    base, made = T.Tensor, [0]

    class Counted(base):
        __slots__ = ()

        def __init__(self, data, parents=()):
            base.__init__(self, data, parents)
            made[0] += 1

    monkeypatch.setattr(T, "Tensor", Counted)
    got = build(arrs)
    assert isinstance(got, np.ndarray) and made[0] == 0
    assert np.array_equal(got, want)


def test_zero_d_plain_operands_build_no_node(monkeypatch):
    """A ufunc on 0-d operands returns a numpy scalar, not an array; an op
    given one still counts it as plain and makes no node."""
    base, made = T.Tensor, [0]

    class Counted(base):
        __slots__ = ()

        def __init__(self, data, parents=()):
            base.__init__(self, data, parents)
            made[0] += 1

    monkeypatch.setattr(T, "Tensor", Counted)
    s = T.mean_parts([np.array(1.0), np.array(2.0)])
    total = T.add(s, s)
    assert isinstance(total, np.generic)
    out = T.sigmoid(T.relu(total))
    assert made[0] == 0 and not isinstance(out, T.Tensor)
    assert out == pytest.approx(1.0 / (1.0 + np.exp(-3.0)))


def test_backward_requires_scalar():
    with pytest.raises(T.ShapeError):
        t([1.0, 2.0]).backward()


def test_backward_unlinks_the_graph_so_refcounting_frees_it():
    """No cyclic garbage: with the collector off, an intermediate node's
    array is freed by the sweep itself, while the loss is still held."""
    p = T.Param("p", np.array([[1.0, 2.0], [3.0, 4.0]]))
    gc.disable()
    try:
        hidden = T.softmax_rows(T.matvec(p, p))
        alive = weakref.ref(hidden.data)
        loss = R.tsum(hidden)
        del hidden
        loss.backward()
        assert alive() is None
    finally:
        gc.enable()
    assert np.any(p.grad != 0.0)

