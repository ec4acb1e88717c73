import math

import numpy as np
import pytest

from mmfnd import data
from mmfnd import tensor as T
from mmfnd.model import Model
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


def test_in_place_adam_is_bit_identical_to_the_textbook_formula():
    gen = np.random.default_rng(3)
    start = [gen.normal(size=(3, 4)), gen.normal(size=5)]
    params = [T.Param(f"p{k}", a.copy()) for k, a in enumerate(start)]
    opt = Adam(params, lr=0.01, beta1=0.8, beta2=0.99, eps=1e-6)
    ref = [a.copy() for a in start]
    m = [np.zeros_like(a) for a in start]
    v = [np.zeros_like(a) for a in start]
    for step in range(1, 4):
        grads = [gen.normal(size=a.shape) for a in start]
        for p, g in zip(params, grads):
            p.grad[...] = g
        opt.step()
        for k, g in enumerate(grads):
            m[k] *= 0.8
            m[k] += (1.0 - 0.8) * g
            v[k] *= 0.99
            v[k] += (1.0 - 0.99) * g * g
            ref[k] -= 0.01 * (m[k] / (1.0 - 0.8 ** step)) / (np.sqrt(v[k] / (1.0 - 0.99 ** step)) + 1e-6)
        for p, r in zip(params, ref):
            np.testing.assert_array_equal(p.data, r)


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


def test_non_finite_gradient_raises_before_the_adam_step(monkeypatch):
    """A finite loss whose backward leaves NaN in w_c1 and w_c2 on the
    second batch: the error names w_c1 (first in registry order) and the
    batch, and only the first batch's step was applied."""
    original_loss = Model.batch_loss
    calls = {"loss": 0, "step": 0}

    def poisoned_loss(self, batch, diagnostics=None):
        loss, parts = original_loss(self, batch, diagnostics)
        calls["loss"] += 1
        if calls["loss"] < 2:
            return loss, parts
        out = T.affine(loss, 1.0, 0.0)

        def _backward():
            loss.grad += out.grad
            self.w_c1.grad[0, 0] = np.nan
            self.w_c2.grad[1, 1] = np.inf

        out._backward = _backward
        return out, parts

    original_step = Adam.step

    def counted_step(self):
        calls["step"] += 1
        original_step(self)

    monkeypatch.setattr(Model, "batch_loss", poisoned_loss)
    monkeypatch.setattr(Adam, "step", counted_step)
    cfg = TrainConfig(d=4, d_raw=4, batch=2, epochs=2, max_len=8)
    with pytest.raises(TrainingDiverged) as exc:
        train(cfg, _tiny_dataset())
    assert exc.value.param == "w_c1"
    assert "'w_c1'" in str(exc.value) and "w_c2" not in str(exc.value)
    assert exc.value.epoch == 0
    assert len(exc.value.batch_ids) == 2
    assert all(i in str(exc.value) for i in exc.value.batch_ids)
    assert math.isfinite(exc.value.parts["total"])
    assert calls["step"] == 1
