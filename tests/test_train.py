import math

import numpy as np
import pytest

from mmfnd import data
from mmfnd import tensor as T
from mmfnd.train import Adam, TrainConfig, TrainingDiverged, train


def test_adam_steps_match_hand_computation():
    p = T.Param("p", np.array([1.0, -2.0]))
    opt = Adam([p], lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    g1, g2 = np.array([0.5, -0.25]), np.array([-1.0, 0.5])
    p.grad[...] = g1
    opt.step()
    # step 1: bias-corrected moments are g and g^2, so the step is lr * g / (|g| + eps)
    expected = np.array([1.0, -2.0]) - 0.1 * g1 / (np.abs(g1) + 1e-8)
    np.testing.assert_allclose(p.data, expected, rtol=0, atol=1e-15)
    p.grad[...] = g2
    opt.step()
    m = (0.9 * 0.1 * g1 + 0.1 * g2) / (1.0 - 0.9 ** 2)
    v = (0.999 * 0.001 * g1 ** 2 + 0.001 * g2 ** 2) / (1.0 - 0.999 ** 2)
    expected = expected - 0.1 * m / (np.sqrt(v) + 1e-8)
    np.testing.assert_allclose(p.data, expected, rtol=0, atol=1e-15)
    assert opt.t == 2


def _tiny_dataset(bad_id=None):
    gen = np.random.default_rng(0)
    items = [
        data.NewsItem(id=f"n{k}", text=f"alpha beta word{k}", image=gen.normal(size=4), label=k % 2)
        for k in range(4)
    ]
    for item in items:
        if item.id == bad_id:
            item.image = np.full(4, np.inf)
    return data.Dataset(items, "train", "test")


def test_non_finite_loss_raises_training_diverged_naming_the_batch():
    cfg = TrainConfig(d=4, d_raw=4, batch=4, epochs=2, max_len=8)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(TrainingDiverged) as exc:
            train(cfg, _tiny_dataset(bad_id="n2"))
    assert exc.value.epoch == 0
    assert sorted(exc.value.batch_ids) == ["n0", "n1", "n2", "n3"]
    assert "n2" in str(exc.value)
    assert not math.isfinite(exc.value.parts["total"])


def test_finite_training_returns_a_curve_per_epoch():
    cfg = TrainConfig(d=4, d_raw=4, batch=2, epochs=3, max_len=8)
    result = train(cfg, _tiny_dataset())
    assert [s.epoch for s in result.curve] == [0, 1, 2]
    assert all(math.isfinite(s.total) for s in result.curve)
