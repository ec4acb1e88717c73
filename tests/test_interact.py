import math

import numpy as np
import pytest

from mmfnd import interact
from mmfnd import tensor as T
from mmfnd.rng import Rng
from mmfnd.tensor import ShapeError

from gradcheck import finite_diff_check, weighted_sum


def test_cross_attention_basis_example():
    m = T.Tensor(np.array([[1.0, 0.0]]))
    f_tv, f_vt = interact.cross_attention(m, m)
    s = 1.0 / math.sqrt(2.0)
    top = math.exp(s) / (math.exp(s) + 1.0)  # about 0.6698
    np.testing.assert_allclose(f_tv.data, [[[top, 1 - top], [0.5, 0.5]]], atol=1e-12)
    np.testing.assert_allclose(f_tv.data[0, 0], [0.6698, 0.3302], atol=5e-5)
    np.testing.assert_array_equal(f_tv.data, f_vt.data)  # symmetric inputs


def test_cross_attention_zero_vector_gives_uniform_rows():
    m_t = T.Tensor(np.array([[0.3, -0.4, 0.5]]))
    zero = T.Tensor(np.zeros((1, 3)))
    f_tv, _ = interact.cross_attention(m_t, zero)
    np.testing.assert_allclose(f_tv.data, np.full((1, 3, 3), 1.0 / 3.0), atol=1e-12)


def test_cross_attention_swap_symmetry():
    gen = Rng(41).stream("xattn-swap")
    m_t = T.Tensor(gen.normal(size=(3, 5)))
    m_v = T.Tensor(gen.normal(size=(3, 5)))
    f_tv, f_vt = interact.cross_attention(m_t, m_v)
    g_vt, g_tv = interact.cross_attention(m_v, m_t)
    np.testing.assert_array_equal(f_vt.data, g_vt.data)
    np.testing.assert_array_equal(f_tv.data, g_tv.data)


def test_cross_attention_rows_stochastic():
    gen = Rng(42).stream("xattn-rows")
    for _ in range(5):
        f_tv, f_vt = interact.cross_attention(
            T.Tensor(gen.normal(size=(10, 6))), T.Tensor(gen.normal(size=(10, 6)))
        )
        for f in (f_tv, f_vt):
            assert np.all(f.data >= 0)
            np.testing.assert_allclose(f.data.sum(axis=2), 1.0, atol=1e-9)


def test_cross_attention_divisor_is_exactly_sqrt_d():
    gen = Rng(43).stream("xattn-div")
    for d in (2, 4, 8):
        m_t = gen.normal(size=d)
        m_v = gen.normal(size=d)
        f_tv, _ = interact.cross_attention(T.Tensor(m_t[None]), T.Tensor(m_v[None]))
        # log-odds within a row recover the scaled logit differences
        for i in range(d):
            got = math.log(f_tv.data[0, i, 0] / f_tv.data[0, i, 1])
            expected = (m_t[i] * m_v[0] - m_t[i] * m_v[1]) / math.sqrt(d)
            assert got == pytest.approx(expected, abs=1e-9)


def test_modality_update_identity_and_uniform():
    """Attention over a constant vector returns it unchanged; a zero query
    attends uniformly, so it returns the other modality's mean."""
    gen = Rng(44).stream("update")
    m_t = gen.normal(size=(2, 4))
    const = np.array([[1.5] * 4, [-0.25] * 4])
    out_v, out_t = interact.modality_update(T.Tensor(m_t), T.Tensor(const))
    np.testing.assert_allclose(out_v.data, const, atol=1e-15)
    out_v, out_t = interact.modality_update(T.Tensor(np.zeros((2, 4))), T.Tensor(m_t))
    np.testing.assert_allclose(out_v.data, np.repeat(m_t.mean(axis=1, keepdims=True), 4, axis=1), atol=1e-12)
    np.testing.assert_array_equal(out_t.data, np.zeros((2, 4)))


def test_modality_update_matches_double_loop():
    """Each output entry is a row of the cross-attention map times the
    other modality's vector, summed term by term."""
    gen = Rng(45).stream("update-oracle")
    m_t = gen.normal(size=(2, 5))
    m_v = gen.normal(size=(2, 5))
    f_tv, f_vt = interact.cross_attention(T.Tensor(m_t), T.Tensor(m_v))
    out_v, out_t = interact.modality_update(T.Tensor(m_t), T.Tensor(m_v))
    for b in range(2):
        expected_v = [sum(f_tv.data[b][i][j] * m_v[b][j] for j in range(5)) for i in range(5)]
        expected_t = [sum(f_vt.data[b][i][j] * m_t[b][j] for j in range(5)) for i in range(5)]
        np.testing.assert_allclose(out_v.data[b], expected_v, atol=1e-12)
        np.testing.assert_allclose(out_t.data[b], expected_t, atol=1e-12)


def test_modality_update_equals_cross_attention_maps_times_values():
    """Large logits (the exp path) and, above the logit floor, unit vectors
    like the aligned ones the model attends over (the power-series path)."""
    gen = Rng(51).stream("update-maps")
    large = (gen.normal(size=(6, 32)) * 4.0, gen.normal(size=(6, 32)) * 4.0)
    unit = gen.normal(size=(2, 8, 64))
    unit /= np.linalg.norm(unit, axis=-1, keepdims=True)
    assert T._series_order(*large, 1.0 / np.sqrt(32)) is None
    assert T._series_order(unit[0], unit[1], 1.0 / 8.0) is not None
    for m_t, m_v in (large, tuple(unit)):
        f_tv, f_vt = interact.cross_attention(T.Tensor(m_t), T.Tensor(m_v))
        out_v, out_t = interact.modality_update(T.Tensor(m_t), T.Tensor(m_v))
        np.testing.assert_allclose(out_v.data, np.einsum("bij,bj->bi", f_tv.data, m_v), rtol=0, atol=1e-12)
        np.testing.assert_allclose(out_t.data, np.einsum("bij,bj->bi", f_vt.data, m_t), rtol=0, atol=1e-12)


def test_cross_attention_maps_are_off_the_tape():
    m = T.Param("m", np.ones((1, 3)))
    f_tv, f_vt = interact.cross_attention(m, m)
    assert f_tv._parents == () and f_vt._parents == ()


def test_modality_update_rejects_unequal_shapes():
    with pytest.raises(ShapeError):
        interact.modality_update(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 4))))


def _mlp_params(gen, d, identity=False):
    if identity:
        return (
            T.Param("w1", np.eye(d)),
            T.Param("b1", np.zeros(d)),
            T.Param("w2", np.eye(d)),
            T.Param("b2", np.zeros(d)),
        )
    return (
        T.Param("w1", gen.normal(size=(d, d))),
        T.Param("b1", gen.normal(size=d)),
        T.Param("w2", gen.normal(size=(d, d))),
        T.Param("b2", gen.normal(size=d)),
    )


def test_interaction_feature_basis_outer_and_column_max():
    gen = Rng(46).stream("ifeat-basis")
    w1, b1, w2, b2 = _mlp_params(gen, 2, identity=True)
    out = interact.interaction_feature(
        T.Tensor(np.array([[1.0, 0.0]])), T.Tensor(np.array([[0.0, 2.0]])), w1, b1, w2, b2
    )
    # interaction matrix [[0,2],[0,0]], column max [0,2], identity MLP keeps it
    np.testing.assert_array_equal(out.data, [[0.0, 2.0]])


def test_interaction_feature_zero_vector_propagates_to_bias_path():
    gen = Rng(47).stream("ifeat-zero")
    w1, b1, w2, b2 = _mlp_params(gen, 3)
    out = interact.interaction_feature(
        T.Tensor(np.zeros((1, 3))), T.Tensor(gen.normal(size=(1, 3))), w1, b1, w2, b2
    )
    expected = w2.data @ np.maximum(b1.data, 0.0) + b2.data
    np.testing.assert_allclose(out.data, [expected], atol=1e-12)


def _oracle_interaction(m_f_v, m_f_t, w1, b1, w2, b2):
    d = len(m_f_v)
    m_f = [[m_f_v[i] * m_f_t[j] for j in range(d)] for i in range(d)]
    pooled = [max(m_f[i][j] for i in range(d)) for j in range(d)]
    hidden = [max(0.0, sum(w1[r][k] * pooled[k] for k in range(d)) + b1[r]) for r in range(d)]
    return [sum(w2[r][k] * hidden[k] for k in range(d)) + b2[r] for r in range(d)]


def test_interaction_feature_matches_step_by_step_oracle():
    gen = Rng(48).stream("ifeat-oracle")
    for _ in range(10):
        d = 4
        w1, b1, w2, b2 = _mlp_params(gen, d)
        m_f_v = gen.normal(size=(3, d))
        m_f_t = gen.normal(size=(3, d))
        out = interact.interaction_feature(T.Tensor(m_f_v), T.Tensor(m_f_t), w1, b1, w2, b2)
        for b in range(3):
            expected = _oracle_interaction(
                m_f_v[b].tolist(), m_f_t[b].tolist(), w1.data.tolist(), b1.data.tolist(),
                w2.data.tolist(), b2.data.tolist(),
            )
            np.testing.assert_allclose(out.data[b], expected, atol=1e-12)


def test_interaction_matrix_is_rank_one():
    gen = Rng(49).stream("ifeat-rank")
    m_t = T.Tensor(gen.normal(size=(10, 5)))
    m_v = T.Tensor(gen.normal(size=(10, 5)))
    m_f_v, m_f_t = interact.modality_update(m_t, m_v)
    for u, v in zip(m_f_v.data, m_f_t.data):
        singular = np.linalg.svd(np.outer(u, v), compute_uv=False)
        assert singular[1] < 1e-9


def test_interaction_gradcheck_end_to_end():
    gen = Rng(50).stream("ifeat-grad")
    d = 4
    w1, b1, w2, b2 = _mlp_params(gen, d)
    m_t = T.Param("m_t", gen.normal(size=(2, d)))
    m_v = T.Param("m_v", gen.normal(size=(2, d)))
    weights = gen.normal(size=(2, d))

    def f():
        m_f_v, m_f_t = interact.modality_update(m_t, m_v)
        r_f = interact.interaction_feature(m_f_v, m_f_t, w1, b1, w2, b2)
        return weighted_sum(r_f, weights)

    assert finite_diff_check(f, [w1, b1, w2, b2, m_t, m_v]).max_rel_err < 1e-4
