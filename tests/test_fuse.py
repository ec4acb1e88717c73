import math

import numpy as np
import pytest

from mmfnd import fuse
from mmfnd import tensor as T
from mmfnd.rng import Rng

from gradcheck import finite_diff_check, weighted_sum


def _features(gen, d, k=3, batch=2):
    return [T.Tensor(gen.normal(size=(batch, d))) for _ in range(k)]


def test_gates_are_half_with_zero_weights():
    gen = Rng(61).stream("gates-zero")
    gates = fuse.adaptive_weights(
        _features(gen, 5), T.Param("w_g", np.zeros((3, 5))), T.Param("b_g", np.zeros(3))
    )
    np.testing.assert_allclose(gates.data, [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]])


def test_identical_features_pool_to_themselves():
    x = np.array([[0.4, -1.2, 0.7]])
    feats = [T.Tensor(x.copy()) for _ in range(3)]
    gates = fuse.adaptive_weights(feats, T.Param("w_g", np.eye(3)), T.Param("b_g", np.zeros(3)))
    np.testing.assert_allclose(gates.data, 1.0 / (1.0 + np.exp(-x)), atol=1e-12)


def _oracle_gates(feats, w_g, b_g):
    k, d = len(feats), len(feats[0])
    pooled = [sum(feats[i][j] for i in range(k)) / k for j in range(d)]
    pre = [sum(w_g[r][j] * pooled[j] for j in range(d)) + b_g[r] for r in range(k)]
    return [1.0 / (1.0 + math.exp(-v)) for v in pre]


def test_gates_match_brute_force_oracle():
    gen = Rng(62).stream("gates-oracle")
    for _ in range(10):
        d = 4
        feats = gen.normal(size=(3, d))
        w_g = gen.normal(size=(3, d))
        b_g = gen.normal(size=3)
        gates = fuse.adaptive_weights(
            [T.Tensor(f[None]) for f in feats], T.Param("w_g", w_g), T.Param("b_g", b_g)
        )
        expected = _oracle_gates(feats.tolist(), w_g.tolist(), b_g.tolist())
        np.testing.assert_allclose(gates.data, [expected], atol=1e-12)
        assert np.all(gates.data > 0) and np.all(gates.data < 1)


def test_fuse_without_gates_is_plain_concatenation():
    gen = Rng(63).stream("fuse-plain")
    feats = _features(gen, 4)
    out = fuse.fuse(feats, None)
    np.testing.assert_array_equal(out.data, np.concatenate([f.data for f in feats], axis=1))


def test_fuse_zero_gates_annihilate():
    gen = Rng(64).stream("fuse-zero")
    out = fuse.fuse(_features(gen, 4), T.Tensor(np.zeros((2, 3))))
    np.testing.assert_array_equal(out.data, np.zeros((2, 12)))


def test_fuse_slice_layout_is_pinned():
    gen = Rng(65).stream("fuse-slice")
    feats = _features(gen, 4)
    gates = T.Tensor(np.array([[0.25, 0.5, 0.75], [1.0, 2.0, 4.0]]))
    out = fuse.fuse(feats, gates)
    np.testing.assert_array_equal(out.data[0, 0:4], 0.25 * feats[0].data[0])
    np.testing.assert_array_equal(out.data[0, 4:8], 0.5 * feats[1].data[0])
    np.testing.assert_array_equal(out.data[0, 8:12], 0.75 * feats[2].data[0])
    second = [scale * f.data[1] for scale, f in zip((1.0, 2.0, 4.0), feats)]
    np.testing.assert_array_equal(out.data[1], np.concatenate(second))


def _classifier_params(gen, d, n_in, zero=False):
    make = (lambda s: np.zeros(s)) if zero else (lambda s: gen.normal(size=s))
    return (
        T.Param("w_c1", make((d, n_in))),
        T.Param("b_c1", make(d)),
        T.Param("w_c2", make((2, d))),
        T.Param("b_c2", make(2)),
    )


def test_classify_zero_weights_ties_to_real():
    gen = Rng(66).stream("clf-zero")
    w1, b1, w2, b2 = _classifier_params(gen, 4, 12, zero=True)
    probs, labels = fuse.classify(T.Tensor(gen.normal(size=(2, 12))), w1, b1, w2, b2)
    np.testing.assert_allclose(probs.data, [[0.5, 0.5], [0.5, 0.5]])
    assert labels.tolist() == [fuse.REAL, fuse.REAL]


def test_classify_probs_sum_to_one():
    gen = Rng(67).stream("clf-sum")
    w1, b1, w2, b2 = _classifier_params(gen, 4, 8)
    for _ in range(100):
        probs, labels = fuse.classify(T.Tensor(gen.normal(size=(10, 8))), w1, b1, w2, b2)
        assert np.all(np.abs(probs.data.sum(axis=1) - 1.0) < 1e-9)
        assert labels.tolist() == np.argmax(probs.data, axis=1).tolist()


def test_classify_gradcheck():
    gen = Rng(68).stream("clf-grad")
    w1, b1, w2, b2 = _classifier_params(gen, 4, 8)
    x = gen.normal(size=(3, 8))

    def f():
        probs, _ = fuse.classify(T.Tensor(x), w1, b1, w2, b2)
        return fuse.detection_loss(probs, [1, 0, 1])

    assert finite_diff_check(f, [w1, b1, w2, b2]).max_rel_err < 1e-4


def test_detection_loss_uniform_prediction():
    probs = T.Tensor(np.array([[0.5, 0.5]]))
    assert fuse.detection_loss(probs, [0]).item() == pytest.approx(math.log(2.0), abs=1e-12)
    assert fuse.detection_loss(probs, [1]).item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_detection_loss_perfect_prediction_is_zero():
    loss = fuse.detection_loss(T.Tensor(np.array([[0.0, 1.0]])), [1])
    assert loss.item() == pytest.approx(0.0, abs=1e-9)
    assert loss.item() > 0.0  # clamped probability never exactly matches the label


def test_detection_loss_confident_mistake():
    loss = fuse.detection_loss(T.Tensor(np.array([[0.1, 0.9]])), [0])
    assert loss.item() == pytest.approx(-math.log(0.1), abs=1e-12)
    # the batch loss is the mean over items
    pair = fuse.detection_loss(T.Tensor(np.array([[0.1, 0.9], [0.5, 0.5]])), [0, 1])
    assert pair.item() == pytest.approx(0.5 * (-math.log(0.1) + math.log(2.0)), abs=1e-12)


def test_detection_loss_nonnegative_and_finite():
    gen = Rng(69).stream("loss-pos")
    for _ in range(200):
        p = float(gen.uniform(0.0, 1.0))
        probs = T.Tensor(np.array([[1.0 - p, p]]))
        for y in (0, 1):
            loss = fuse.detection_loss(probs, [y]).item()
            assert loss > 0.0 and math.isfinite(loss)


def test_total_loss_is_plain_sum_at_unit_weight():
    zero = T.Tensor(np.array(0.0))
    assert fuse.total_loss(zero, zero, 1.0).item() == 0.0
    a = T.Tensor(np.array(0.3))
    b = T.Tensor(np.array(0.7))
    assert fuse.total_loss(a, b, 1.0).item() == pytest.approx(1.0, abs=1e-15)
    assert fuse.total_loss(a, b, lambda_c=0.5).item() == pytest.approx(0.85, abs=1e-15)


def test_gated_fuse_gradcheck():
    gen = Rng(70).stream("fuse-grad")
    feats = [T.Param(f"f{i}", gen.normal(size=(2, 3))) for i in range(3)]
    gates = T.Param("gates", gen.uniform(0.1, 0.9, size=(2, 3)))
    weights = gen.normal(size=(2, 9))

    def f():
        return weighted_sum(fuse.fuse(feats, gates), weights)

    assert finite_diff_check(f, feats + [gates]).max_rel_err < 1e-6


def _oracle_detection(probs, labels):
    # plain-python mean cross-entropy of the clamped fake-class probability
    total = 0.0
    for row, y in zip(probs, labels):
        p = min(max(row[fuse.FAKE], fuse.PROB_CLAMP), 1.0 - fuse.PROB_CLAMP)
        total += -math.log(p if y == fuse.FAKE else 1.0 - p)
    return total / len(probs)


def test_detection_loss_matches_brute_force_oracle_with_clamped_rows():
    """Rows 0-3 hold probabilities outside the clamp; they count at the
    clamp and pass no gradient. The others get d/dp of -log p (fake) or
    -log(1 - p) (real), over n, in the fake column only."""
    gen = Rng(71).stream("loss-oracle")
    fake = gen.uniform(0.01, 0.99, size=10)
    fake[:4] = [0.0, 1.0, 1e-13, 1.0 - 1e-13]
    labels = [1, 0, 1, 0] + [int(v) for v in gen.integers(0, 2, size=6)]
    probs = T.Param("probs", np.stack([1.0 - fake, fake], axis=1))
    loss = fuse.detection_loss(probs, labels)
    assert loss.item() == pytest.approx(_oracle_detection(probs.data.tolist(), labels), abs=1e-12)
    loss.backward()
    expected = [
        0.0 if k < 4 else (-1.0 / p if y == fuse.FAKE else 1.0 / (1.0 - p)) / len(labels)
        for k, (p, y) in enumerate(zip(fake, labels))
    ]
    np.testing.assert_allclose(probs.grad[:, fuse.FAKE], expected, rtol=1e-13, atol=0)
    assert np.all(probs.grad[:, fuse.REAL] == 0.0)


def test_detection_loss_gradcheck_through_the_clamp():
    # rows 0 and 3 lie outside [0, 1] by more than the step, so they stay clamped
    probs = T.Param("probs", np.array([[1.5, -0.5], [0.3, 0.7], [0.6, 0.4], [-0.5, 1.5]]))
    report = finite_diff_check(lambda: fuse.detection_loss(probs, [1, 0, 1, 0]), [probs])
    assert report.max_rel_err < 1e-6
    assert np.all(probs.grad[[0, 3]] == 0.0)
