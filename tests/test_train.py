import math

import numpy as np
import pytest

from mmfnd import data, encoders, metrics
from mmfnd import tensor as T
from mmfnd.errors import ConfigError
from mmfnd.model import Model, ModelConfig
from mmfnd.rng import Rng
from mmfnd.train import _ADAM_BLOCK, Adam, TrainConfig, TrainingDiverged, build_vocabulary, train


def test_train_config_extends_the_model_config():
    assert TrainConfig().model_config() == ModelConfig()
    cfg = TrainConfig(d=16, d_raw=32, tau=0.5, batch=4, epochs=2, seed=9, ablation="no_E")
    assert cfg.model_config() == ModelConfig(d=16, d_raw=32, tau=0.5, ablation="no_E")
    assert set(cfg.to_dict()) == {
        "d", "d_raw", "tau", "lambda_c", "batch", "epochs", "lr", "beta1", "beta2", "eps",
        "seed", "max_len", "ablation",
    }
    assert cfg.to_dict()["batch"] == 4 and cfg.to_dict()["d"] == 16


@pytest.mark.parametrize("field, value", [
    ("d", math.nan), ("max_len", math.inf),
    ("tau", math.nan), ("tau", math.inf), ("lambda_c", math.nan), ("lambda_c", math.inf),
    ("lr", math.nan), ("lr", math.inf), ("eps", math.nan), ("eps", math.inf),
    ("beta1", math.nan), ("beta2", math.inf), ("epochs", math.inf), ("batch", math.nan),
    ("tau", "0.07"), ("lr", None), ("lambda_c", True), ("beta1", "0.9"),
])
def test_non_finite_hyperparameters_are_rejected_naming_the_field(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be .*, got {value!r}$"):
        TrainConfig(**{field: value}).validate()


@pytest.mark.parametrize("field, value", [
    ("d", 8.0), ("d_raw", True), ("max_len", True), ("batch", 2.5), ("epochs", 1.5), ("seed", 1.5),
    ("seed", False), ("d", "8"),
])
def test_non_integer_sizes_counts_and_seeds_are_rejected_naming_the_field(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be an integer, got {value!r}$"):
        TrainConfig(**{field: value}).validate()


def test_numpy_integer_sizes_counts_and_seeds_pass_validation():
    fields = ("d", "d_raw", "max_len", "batch", "epochs", "seed")
    TrainConfig(**{name: np.int64(4) for name in fields}).validate()


@pytest.mark.parametrize("label", [2, None, True, np.False_, 0.5, -1])
def test_train_rejects_a_label_other_than_0_or_1_naming_the_item(label):
    """Before the first step: the loss would count such an item as real."""
    ds = data.synth_generate(20, 10, 1, 8).train
    ds.items[3].label = label
    with pytest.raises(ConfigError, match=rf"{ds.provenance}.*{ds.items[3].id!r} has label {label!r}"):
        train(TrainConfig(d=8, d_raw=8, batch=4, epochs=1), ds)


@pytest.mark.parametrize("field", ["image_vec", "text_vec"])
def test_a_zero_input_row_names_its_items_and_field(field):
    """A zero image or text vector projects to zero while the shared-space
    bias is still zero, and a zero vector has no unit direction. Items 1
    and 3 both fall in seed 0's first batch, before any step moves the
    bias. A trained model scores such an item."""
    art = data.synth_generate(64, 10, 1)
    for item in (art.train.items[1], art.train.items[3]):
        if field == "image_vec":
            item.image = np.zeros_like(item.image)
        else:
            item.text_vec = np.zeros(8)
    named = ", ".join(f"item {item.id!r} \\({field}\\)" for item in art.train.items[1:4:2])
    with pytest.raises(T.DegenerateInputError, match=f"^{named}: the shared-space projection is a zero vector$"):
        train(TrainConfig(d=8, epochs=1, batch=32), art.train)

    model = train(TrainConfig(d=8, epochs=1, batch=32), data.synth_generate(64, 10, 1).train).model
    pred = model.predict(model.featurize(art.train.items[1]))
    assert np.isfinite(pred.probs).all() and pred.label in (0, 1)


def test_adam_steps_match_hand_computation():
    reg = T.ParamRegistry([("p", np.array([1.0, -2.0]))])
    p = reg["p"]
    opt = Adam(reg, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
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
    reg = T.ParamRegistry((f"p{k}", a) for k, a in enumerate(start))
    params = list(reg)
    opt = Adam(reg, lr=0.01, beta1=0.8, beta2=0.99, eps=1e-6)
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


def test_adam_blocks_match_the_textbook_formula_across_block_boundaries():
    gen = np.random.default_rng(5)
    start = [gen.normal(size=(70, 1000)), gen.normal(size=7)]
    reg = T.ParamRegistry((f"p{k}", a) for k, a in enumerate(start))
    assert reg.data.size > 2 * _ADAM_BLOCK
    opt = Adam(reg, lr=0.01, beta1=0.8, beta2=0.99, eps=1e-6)
    ref = [a.copy() for a in start]
    m = [np.zeros_like(a) for a in start]
    v = [np.zeros_like(a) for a in start]
    for step in range(1, 4):
        grads = [gen.normal(size=a.shape) for a in start]
        for p, g in zip(reg, grads):
            p.grad[...] = g
        opt.step()
        for k, g in enumerate(grads):
            m[k] *= 0.8
            m[k] += (1.0 - 0.8) * g
            v[k] *= 0.99
            v[k] += (1.0 - 0.99) * g * g
            ref[k] -= 0.01 * (m[k] / (1.0 - 0.8 ** step)) / (np.sqrt(v[k] / (1.0 - 0.99 ** step)) + 1e-6)
        for p, r in zip(reg, ref):
            np.testing.assert_array_equal(p.data, r)


def _assert_params_are_views_of_the_registry(model):
    reg, start = model.params, 0
    for p in reg:
        end = start + p.data.size
        assert np.shares_memory(p.data, reg.data) and np.shares_memory(p.grad, reg.grad)
        assert p.data.base is reg.data and p.grad.base is reg.grad
        np.testing.assert_array_equal(p.data.reshape(-1), reg.data[start:end])
        np.testing.assert_array_equal(p.grad.reshape(-1), reg.grad[start:end])
        start = end
    assert start == reg.data.size == reg.grad.size


def test_parameters_stay_views_of_the_flat_buffers(tmp_path):
    """After initialization, a load and a training run, every parameter's
    data and gradient are views into the registry's two flat arrays, in
    registry order, so no step rebound them."""
    cfg = TrainConfig(d=4, d_raw=4, batch=2, epochs=2, max_len=8)
    ds = _tiny_dataset()
    fresh = Model.initialize(cfg.model_config(), build_vocabulary(ds, True), Rng(0))
    _assert_params_are_views_of_the_registry(fresh)
    trained = train(cfg, ds).model
    _assert_params_are_views_of_the_registry(trained)
    assert np.any(trained.params.grad != 0.0)
    trained.save(tmp_path / "model.npz")
    loaded = Model.load(tmp_path / "model.npz")
    _assert_params_are_views_of_the_registry(loaded)
    np.testing.assert_array_equal(loaded.params.data, trained.params.data)


def _tiny_dataset(bad_id=None):
    gen = np.random.default_rng(0)
    items = [
        data.NewsItem(id=f"n{k}", text=f"alpha beta word{k}", image=gen.normal(size=4), label=k % 2)
        for k in range(4)
    ]
    for item in items:
        if item.id == bad_id:
            item.image = np.full(4, np.finfo(np.float64).max)  # finite, but overflows in the forward pass
    return data.Dataset(items, "train", "test")


def test_training_on_an_empty_dataset_names_the_dataset():
    empty = data.Dataset([], "train", "empty.jsonl")
    with pytest.raises(ConfigError, match="training dataset 'empty.jsonl' is empty"):
        train(TrainConfig(d=4, d_raw=4, batch=2, epochs=1, max_len=8), empty)


@pytest.mark.parametrize("ablation", ["none", "no_A", "no_E"])
def test_contrastive_training_rejects_single_item_batches_naming_the_field(ablation):
    with pytest.raises(ConfigError, match="^batch must be at least 2 when the contrastive loss is on, got 1$"):
        train(TrainConfig(d=4, d_raw=4, batch=1, epochs=1, max_len=8, ablation=ablation), _tiny_dataset())


def test_single_item_batches_train_without_the_contrastive_loss():
    result = train(TrainConfig(d=4, d_raw=4, batch=1, epochs=1, max_len=8, ablation="no_M"), _tiny_dataset())
    assert result.curve[0].contrastive == 0.0


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
            self.params["w_c1"].grad[0, 0] = np.nan
            self.params["w_c2"].grad[1, 1] = np.inf

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


def test_non_finite_last_gradient_coordinate_names_the_last_parameter(monkeypatch):
    """A NaN in the last coordinate of the flat gradient buffer is found,
    and the error names the parameter that holds it."""
    original_loss = Model.batch_loss
    names = []

    def poisoned_loss(self, batch, diagnostics=None):
        loss, parts = original_loss(self, batch, diagnostics)
        out = T.affine(loss, 1.0, 0.0)
        last = list(self.params)[-1]
        names.append(last.name)

        def _backward():
            loss.grad += out.grad
            last.grad.reshape(-1)[-1] = np.nan

        out._backward = _backward
        return out, parts

    monkeypatch.setattr(Model, "batch_loss", poisoned_loss)
    with pytest.raises(TrainingDiverged) as exc:
        train(TrainConfig(d=4, d_raw=4, batch=2, epochs=1, max_len=8), _tiny_dataset())
    assert exc.value.param == names[0] == "b_c2"
    assert exc.value.epoch == 0


def test_items_with_vectors_train_and_evaluate_from_jsonl(tmp_path):
    """Items read back from a JSONL file with text and description vectors
    train and evaluate, and the vectors reach the features unchanged."""
    gen = np.random.default_rng(2)
    items = _tiny_dataset().items
    for k, item in enumerate(items):
        item.text_vec = gen.normal(size=4) if k % 2 else None
        item.desc_vecs = gen.normal(size=(k % 3, 4)) if k % 3 else None
    path = tmp_path / "vectors.jsonl"
    data.save_jsonl(path, data.Dataset(items, "train", "test"))
    loaded = data.load_jsonl(path)
    result = train(TrainConfig(d=4, d_raw=4, batch=2, epochs=2, max_len=8), loaded)
    assert all(math.isfinite(s.total) for s in result.curve)
    feats = [result.model.featurize(item) for item in loaded.items]
    np.testing.assert_array_equal(feats[1].text, items[1].text_vec)
    np.testing.assert_array_equal(feats[2].descs[1], items[2].desc_vecs[1])
    assert metrics.evaluate(result.model, loaded).n_items == 4


def test_build_vocabulary_tokenizes_each_distinct_text_once(monkeypatch):
    calls = []
    tokenize = encoders.tokenize
    monkeypatch.setattr(encoders, "tokenize", lambda text: calls.append(text) or tokenize(text))
    items = [
        data.NewsItem(id=f"i{k}", text=f"post {k}", label=k % 2, descriptions=["A shared description."], image=np.zeros(2))
        for k in range(3)
    ]
    vocab = build_vocabulary(data.Dataset(items, "train", "test"), include_descriptions=True)
    assert sorted(calls) == ["A shared description.", "post 0", "post 1", "post 2"]
    assert vocab.tokens == ["0", "1", "2", "a", "description", "post", "shared"]


def _logged_training_run(monkeypatch, cfg, ds):
    """The result of ``train`` and, in call order, one ("step", len(batch))
    event per ``Model.batch_loss`` call and one ("epoch", stats) event per
    ``progress`` call: the two hooks a step timer reads."""
    events, batch_loss = [], Model.batch_loss

    def logged(self, batch, diagnostics=None):
        events.append(("step", len(batch)))
        return batch_loss(self, batch, diagnostics)

    monkeypatch.setattr(Model, "batch_loss", logged)
    result = train(cfg, ds, progress=lambda stats: events.append(("epoch", stats)))
    return result, events


def test_progress_gets_each_epochs_stats_in_order_after_its_last_step(monkeypatch):
    result, events = _logged_training_run(
        monkeypatch, TrainConfig(d=8, d_raw=8, batch=6, epochs=3), data.synth_generate(20, 10, 1, 8).train
    )
    epochs = [stats for kind, stats in events if kind == "epoch"]
    assert len(epochs) == len(result.curve) == 3
    assert all(seen is kept for seen, kept in zip(epochs, result.curve))
    assert [stats.epoch for stats in epochs] == [0, 1, 2]
    assert events[-1][0] == "epoch"


def test_each_batch_loss_call_gets_a_batch_as_long_as_its_step(monkeypatch):
    """A step's item count is ``len(batch)``: per epoch the counts add up to
    the dataset, and every step but the last takes ``cfg.batch`` items."""
    ds = data.synth_generate(20, 10, 1, 8).train
    cfg = TrainConfig(d=8, d_raw=8, batch=6, epochs=2)
    _, events = _logged_training_run(monkeypatch, cfg, ds)
    per_epoch, steps = [], []
    for kind, value in events:
        if kind == "step":
            steps.append(value)
        else:
            per_epoch.append(steps)
            steps = []
    assert steps == [] and len(per_epoch) == cfg.epochs
    for lens in per_epoch:
        assert sum(lens) == len(ds) == 20
        assert lens[:-1] == [cfg.batch] * (len(lens) - 1) and 0 < lens[-1] <= cfg.batch
    assert per_epoch[0] == [6, 6, 6, 2]
