import json
import math
import time

import numpy as np
import pytest

from mmfnd import fuse
from mmfnd import tensor as T
from mmfnd.data import NewsItem
from mmfnd.encoders import EmptyTextError
from mmfnd.errors import ConfigError
from mmfnd.gradcheck import finite_diff_check
from mmfnd.model import ABLATIONS, ItemFeatures, Model, ModelConfig, build_gradcheck_problem
from mmfnd.rng import Rng


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(d=0).validate()
    with pytest.raises(ConfigError):
        ModelConfig(tau=0.0).validate()
    with pytest.raises(ConfigError):
        ModelConfig(ablation="bogus").validate()


def test_full_model_gradcheck_every_parameter():
    model, feats = build_gradcheck_problem(d=8, n_items=4, n_desc=2)
    started = time.monotonic()
    report = finite_diff_check(lambda: model.batch_loss(feats)[0], list(model.params))
    elapsed = time.monotonic() - started
    assert set(report.per_param) == set(model.params.names())
    assert report.max_rel_err < 1e-4, report.per_param
    assert elapsed < 60.0


@pytest.mark.parametrize("ablation", ["no_A", "no_M", "no_E"])
def test_ablation_variants_gradcheck(ablation):
    model, feats = build_gradcheck_problem(d=6, n_items=3, n_desc=1, ablation=ablation)
    report = finite_diff_check(lambda: model.batch_loss(feats)[0], list(model.params))
    assert report.max_rel_err < 1e-4, report.per_param


def test_parameter_sets_follow_ablation():
    names = {}
    for mode in ABLATIONS:
        model, _ = build_gradcheck_problem(d=6, n_items=2, ablation=mode)
        names[mode] = set(model.params.names())
    assert "w_g" in names["none"] and "w_g" not in names["no_A"]
    assert "w_st" in names["none"] and "w_st" not in names["no_M"]
    assert "w_d" in names["none"] and "w_d" not in names["no_E"]
    assert "w_df" not in names["no_E"]
    # two-channel fusion shrinks the gate and classifier input widths
    no_m, _ = build_gradcheck_problem(d=6, n_items=2, ablation="no_M")
    assert no_m.params["w_g"].data.shape == (2, 6)
    assert no_m.params["w_c1"].data.shape == (6, 12)


def test_embedding_table_is_shared_between_text_and_descriptions():
    model, feats = build_gradcheck_problem(d=6, n_items=2, n_desc=2)
    assert model.emb is model.params["emb"]
    loss, _ = model.batch_loss(feats)
    model.params.reset_gradients()
    loss.backward()
    assert np.any(model.emb.grad != 0.0)


def test_no_A_fused_vector_equals_all_ones_gates():
    model, feats = build_gradcheck_problem(d=6, n_items=2, ablation="no_A")
    trace = model.forward(feats)
    assert trace.gates is None
    explicit = fuse.fuse(trace.features, T.Tensor(np.ones((len(feats), len(trace.features)))))
    np.testing.assert_array_equal(trace.fused.data, explicit.data)


def test_no_M_drops_contrastive_term_and_interaction():
    model, feats = build_gradcheck_problem(d=6, n_items=3, ablation="no_M")
    trace = model.forward(feats)
    assert trace.r_f is None and trace.e_t is None
    loss, parts = model.batch_loss(feats)
    assert parts["contrastive"] == 0.0
    assert parts["total"] == pytest.approx(parts["detection"], abs=1e-15)
    assert len(trace.features) == 2


def test_no_E_never_reads_descriptions():
    model, feats = build_gradcheck_problem(d=6, n_items=2, ablation="no_E")
    assert all(not f.desc_seqs and not f.desc_vecs for f in feats)
    trace = model.forward(feats)
    assert trace.m_d is None
    np.testing.assert_allclose(
        trace.r_t_enh.data, trace.r_t.data @ model.params["w_t"].data.T, atol=1e-12
    )


def test_zero_description_item_in_full_model_bypasses_enhancement():
    model, feats = build_gradcheck_problem(d=6, n_items=2, n_desc=0)
    trace = model.forward(feats)
    assert trace.m_d is None
    np.testing.assert_allclose(
        trace.r_t_enh.data, trace.r_t.data @ model.params["w_t"].data.T, atol=1e-12
    )
    # next to an item that has descriptions, the bypass is still exact
    _, described = build_gradcheck_problem(d=6, n_items=2, n_desc=2)
    mixed = model.forward([feats[0], described[1]])
    assert mixed.m_d is not None
    np.testing.assert_array_equal(mixed.r_t_enh.data[0], trace.r_t_enh.data[0])


def test_batch_loss_matches_independent_recomputation():
    model, feats = build_gradcheck_problem(d=8, n_items=4, n_desc=2)
    loss, parts = model.batch_loss(feats)
    traces = [model.forward([f]) for f in feats]
    # independent reduction: binary cross-entropy means plus InfoNCE on the stacks
    bce = []
    for tr, f in zip(traces, feats):
        p = min(max(tr.probs.data[0, 1], 1e-12), 1.0 - 1e-12)
        bce.append(-math.log(p) if f.label == 1 else -math.log(1.0 - p))
    e_t = np.concatenate([tr.e_t.data for tr in traces])
    e_v = np.concatenate([tr.e_v.data for tr in traces])

    def infonce(a, b):
        logits = (a @ b.T) / model.config.tau
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        return float(-np.log(np.diag(p)).mean())

    expected = np.mean(bce) + 0.5 * (infonce(e_v, e_t) + infonce(e_t, e_v))
    assert float(loss.data) == pytest.approx(expected, abs=1e-10)
    assert parts["total"] == pytest.approx(parts["detection"] + parts["contrastive"], abs=1e-12)


def test_model_is_deterministic():
    a, feats_a = build_gradcheck_problem(d=6, n_items=3, seed=99)
    b, feats_b = build_gradcheck_problem(d=6, n_items=3, seed=99)
    for name in a.params.names():
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
    np.testing.assert_array_equal(a.forward(feats_a).probs.data, b.forward(feats_b).probs.data)


def test_predict_exposes_gates_and_distribution():
    model, feats = build_gradcheck_problem(d=6, n_items=2)
    pred = model.predict(feats[0])
    assert pred.probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert pred.label in (0, 1)
    assert pred.gates is not None and len(pred.gates) == 3
    assert all(0.0 < g < 1.0 for g in pred.gates)


def test_save_load_roundtrip(tmp_path):
    model, feats = build_gradcheck_problem(d=6, n_items=2)
    path = tmp_path / "model.npz"
    model.save(path)
    loaded = Model.load(path)
    assert loaded.config == model.config
    assert loaded.vocab.tokens == model.vocab.tokens
    for name in model.params.names():
        np.testing.assert_array_equal(loaded.params[name].data, model.params[name].data)
    np.testing.assert_array_equal(loaded.forward(feats).probs.data, model.forward(feats).probs.data)


def _item(item_id, d_raw, text="tok1 tok2", descriptions=("tok3",), **vectors):
    vectors.setdefault("image", np.linspace(-1.0, 1.0, d_raw))
    return NewsItem(id=item_id, text=text, label=1, descriptions=list(descriptions), **vectors)


def test_featurize_uses_precomputed_vectors():
    model, _ = build_gradcheck_problem(d=6)
    item = _item("x", 6, text_vec=np.full(6, 2.0), desc_vecs=np.full((1, 6), 3.0))
    feats = model.featurize(item)
    np.testing.assert_array_equal(feats.image, item.image)
    np.testing.assert_array_equal(feats.text_vec, np.full(6, 2.0))
    assert feats.text_seq is None
    assert len(feats.desc_vecs) == 1 and not feats.desc_seqs
    trace = model.forward([feats])
    assert trace.probs.data.shape == (1, 2)


@pytest.mark.parametrize(
    "field,vectors",
    [
        ("image_vec", dict(image=np.ones(5))),
        ("text_vec", dict(text_vec=np.ones(7))),
        ("desc_vecs", dict(desc_vecs=np.ones((2, 4)))),
    ],
)
def test_featurize_rejects_wrong_precomputed_width_naming_item_and_field(field, vectors):
    model, _ = build_gradcheck_problem(d=6)
    with pytest.raises(ConfigError, match=f"'bad-7'.*{field}"):
        model.featurize(_item("bad-7", 6, **vectors))


def test_featurize_rejects_wrong_image_width():
    model, _ = build_gradcheck_problem(d=6)
    with pytest.raises(ConfigError, match="'x'.*image"):
        model.featurize(_item("x", 9))


@pytest.mark.parametrize(
    "text,descriptions,field",
    [("!!! ???", ["tok3"], "text"), ("tok1", ["tok3", "tok4", "--"], "desc_sentences\\[2\\]")],
    ids=["text", "desc_sentences"],
)
def test_featurize_rejects_a_text_without_word_tokens_naming_item_and_field(text, descriptions, field):
    model, _ = build_gradcheck_problem(d=6)
    with pytest.raises(EmptyTextError, match=f"item 'x': {field} has no word tokens"):
        model.featurize(_item("x", 6, text=text, descriptions=descriptions))


def test_featurize_skips_the_token_check_for_a_field_with_vectors():
    model, _ = build_gradcheck_problem(d=6)
    item = _item("x", 6, text="!!!", descriptions=["?"], text_vec=np.ones(6), desc_vecs=np.ones((1, 6)))
    feats = model.featurize(item)
    assert feats.text_seq is None and not feats.desc_seqs


def test_predict_batch_matches_item_by_item_predict():
    model, _ = build_gradcheck_problem(d=6)
    gen = Rng(3).stream("mixed")
    items = [_item(f"i{k}", 6, descriptions=["tok1 tok4", "tok5"][: k % 3]) for k in range(5)]
    items[1].text_vec = gen.normal(size=6)
    items[3].desc_vecs = gen.normal(size=(1, 6))
    feats = [model.featurize(item) for item in items]
    assert feats[1].text_seq is None and feats[3].desc_vecs and not feats[3].desc_seqs
    batched = model.predict_batch(feats)
    for f, got in zip(feats, batched):
        single = model.predict(f)
        np.testing.assert_allclose(got.probs, single.probs, rtol=0, atol=1e-12)
        assert got.label == single.label
        np.testing.assert_allclose(got.gates, single.gates, rtol=0, atol=1e-12)


def test_predict_leaves_no_cyclic_garbage():
    import gc
    import weakref

    model, feats = build_gradcheck_problem(d=6, n_items=3)
    seen = []
    forward = model.forward

    def spy(batch):
        trace = forward(batch)
        seen.append(weakref.ref(trace.fused.data))
        return trace

    model.forward = spy
    gc.disable()
    try:
        trace = model.forward(feats)
        del trace
        assert seen[0]() is not None  # a linked graph is a reference cycle
        preds = model.predict_batch(feats)
        assert seen[1]() is None
    finally:
        gc.enable()
    assert len(preds) == 3


def _saved(tmp_path, edit):
    model, _ = build_gradcheck_problem(d=6, n_items=2)
    path = tmp_path / "model.npz"
    model.save(path)
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    edit(arrays)
    np.savez(path, **arrays)
    return path


def test_load_names_a_missing_parameter(tmp_path):
    path = _saved(tmp_path, lambda a: a.pop("param/w_d"))
    with pytest.raises(ConfigError, match="missing \\['w_d'\\]"):
        Model.load(path)


def test_load_names_an_unexpected_parameter(tmp_path):
    path = _saved(tmp_path, lambda a: a.update({"param/w_extra": np.zeros(3)}))
    with pytest.raises(ConfigError, match="unexpected \\['w_extra'\\]"):
        Model.load(path)


def _set_meta(arrays, edit):
    meta = json.loads(str(arrays["__meta__"]))
    edit(meta)
    arrays["__meta__"] = json.dumps(meta)


def _set_config(arrays, **changes):
    _set_meta(arrays, lambda meta: meta["config"].update(changes))


@pytest.mark.parametrize("edit, key", [
    (lambda a: _set_config(a, dropout=0.1), "'dropout'"),
    (lambda a: _set_config(a, d="6"), "'d'"),
    (lambda a: a.pop("__meta__"), "'__meta__'"),
    (lambda a: a.update(__meta__="{not json"), "'__meta__'"),
    (lambda a: a.update(__meta__="[1, 2]"), "'__meta__'"),
    (lambda a: _set_meta(a, lambda m: m.pop("config")), "'config'"),
    (lambda a: _set_meta(a, lambda m: m.pop("vocab")), "'vocab'"),
    (lambda a: _set_meta(a, lambda m: m.update(config=[1])), "'config'"),
    (lambda a: _set_meta(a, lambda m: m.update(vocab="tok0")), "'vocab'"),
    (lambda a: _set_meta(a, lambda m: m.update(vocab=["tok0", 1])), "'vocab'"),
], ids=[
    "unknown_key", "string_d", "no_meta", "meta_not_json", "meta_not_object", "no_config",
    "no_vocab", "config_not_object", "vocab_not_list", "vocab_not_strings",
])
def test_load_names_file_and_key_of_a_broken_checkpoint(tmp_path, edit, key):
    path = _saved(tmp_path, edit)
    with pytest.raises(ConfigError) as err:
        Model.load(path)
    assert str(path) in str(err.value) and key in str(err.value)


def test_load_draws_no_random_weights(tmp_path, monkeypatch):
    path = _saved(tmp_path, lambda a: None)

    def no_draws(*args):
        raise AssertionError("load must not draw initial weights")

    monkeypatch.setattr(Rng, "stream", no_draws)
    assert Model.load(path).params["w_t"].data.shape == (6, 6)


def test_training_tape_holds_no_attention_map():
    """Cross-modal attention is fused: no node of a training batch's tape
    holds a (B, d, d) array, so none gets a (B, d, d) gradient either."""
    model, feats = build_gradcheck_problem(d=8, n_items=4, n_desc=2)
    loss, _ = model.batch_loss(feats)
    shapes = {node.data.shape for node in T._topo_order(loss)}
    assert (4, 8) in shapes
    assert not [s for s in shapes if s[-2:] == (8, 8) and len(s) > 2]
