import json
import math
import re
import time

import numpy as np
import pytest

from mmfnd import encoders as enc
from mmfnd import fuse, interact
from mmfnd import tensor as T
from mmfnd.data import NewsItem
from mmfnd.encoders import EmptyTextError, TokenSequence, Vocabulary
from mmfnd.errors import ConfigError
from mmfnd.model import ABLATIONS, ItemFeatures, Model, ModelConfig
from mmfnd.rng import Rng

from gradcheck import build_gradcheck_problem, finite_diff_check
from test_batched_equivalence import CASES as BATCHED_CASES
from test_batched_equivalence import reference_problem


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
    loss, _ = model.batch_loss(feats)
    model.params.reset_gradients()
    loss.backward()
    assert np.any(model.params["emb"].grad != 0.0)


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
    assert all(not f.descs for f in feats)
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
    np.testing.assert_array_equal(feats.text, np.full(6, 2.0))
    assert len(feats.descs) == 1
    np.testing.assert_array_equal(feats.descs[0], np.full(6, 3.0))
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["image_vec", "text_vec", "desc_vecs"])
def test_featurize_rejects_a_non_finite_vector_naming_item_and_field(field, bad):
    model, _ = build_gradcheck_problem(d=6)
    vec = np.linspace(-1.0, 1.0, 6)
    vec[2] = bad
    vectors = {
        "image_vec": dict(image=vec),
        "text_vec": dict(text_vec=vec),
        "desc_vecs": dict(desc_vecs=np.stack([np.ones(6), vec])),
    }[field]
    name = {"desc_vecs": "desc_vecs\\[1\\]"}.get(field, field)  # the row that holds the value
    with pytest.raises(ConfigError, match=f"item 'bad-7': {name} has a non-finite value"):
        model.featurize(_item("bad-7", 6, **vectors))


def test_featurize_names_the_description_vector_row_of_a_wrong_width():
    model, _ = build_gradcheck_problem(d=6)
    item = _item("bad-7", 6, desc_vecs=[np.ones(6), np.ones(6), np.ones(4)])
    message = "item 'bad-7': desc_vecs[2] has shape (4,), expected (6,)"
    with pytest.raises(ConfigError, match=re.escape(message)):
        model.featurize(item)


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
    assert isinstance(feats.text, np.ndarray) and all(isinstance(s, np.ndarray) for s in feats.descs)


def test_featurize_tokenizes_each_distinct_description_once(monkeypatch):
    """Items that share a description sentence share its tokens: it is
    tokenized once per model, and each item's text once per item."""
    model, _ = build_gradcheck_problem(d=6)
    calls, original = [], enc.tokenize

    def counting(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(enc, "tokenize", counting)
    feats = [model.featurize(_item(f"i{k}", 6, text=f"tok{k + 1}", descriptions=["tok3 tok4"])) for k in range(3)]
    assert calls.count("tok3 tok4") == 1
    assert [calls.count(f"tok{k + 1}") for k in range(3)] == [1, 1, 1]
    assert feats[0].descs[0] is feats[1].descs[0] is feats[2].descs[0]


def test_a_description_without_word_tokens_raises_on_every_item_that_holds_it():
    model, _ = build_gradcheck_problem(d=6)
    for item_id, descriptions, field in (("a", ["tok3", "--"], 1), ("b", ["--"], 0)):
        with pytest.raises(EmptyTextError, match=f"item '{item_id}': desc_sentences\\[{field}\\] has no word tokens"):
            model.featurize(_item(item_id, 6, descriptions=descriptions))


def test_predict_batch_matches_item_by_item_predict():
    model, _ = build_gradcheck_problem(d=6)
    gen = Rng(3).stream("mixed")
    items = [_item(f"i{k}", 6, descriptions=["tok1 tok4", "tok5"][: k % 3]) for k in range(5)]
    items[1].text_vec = gen.normal(size=6)
    items[3].desc_vecs = gen.normal(size=(1, 6))
    feats = [model.featurize(item) for item in items]
    assert isinstance(feats[1].text, np.ndarray)
    assert len(feats[3].descs) == 1 and isinstance(feats[3].descs[0], np.ndarray)
    batched = model.predict_batch(feats)
    for i, f in enumerate(feats):
        single = model.predict(f)
        np.testing.assert_allclose(batched.probs[i], single.probs, rtol=0, atol=1e-12)
        assert batched.labels[i] == single.label
        np.testing.assert_allclose(batched.gates[i], single.gates, rtol=0, atol=1e-12)


def test_predict_batch_builds_no_tape_node_and_leaves_no_cyclic_garbage(monkeypatch):
    """Scoring runs on plain arrays: with ``mmfnd.tensor.Tensor`` rebound to
    a counting subclass, as the benchmark's stage tracer does, it makes no
    node, and with the collector off it leaves nothing for it to collect.
    The tape forward, by contrast, counts its nodes and leaves a cycle."""
    import gc

    model, feats = build_gradcheck_problem(d=6, n_items=3)
    base, made = T.Tensor, [0]

    class Counted(base):
        __slots__ = ()

        def __init__(self, data, parents=()):
            base.__init__(self, data, parents)
            made[0] += 1

    monkeypatch.setattr(T, "Tensor", Counted)
    gc.collect()
    gc.disable()
    try:
        model.forward(feats)
        assert made[0] > 0
        assert gc.collect() > 0  # a linked tape is a reference cycle
        made[0] = 0
        preds = model.predict_batch(feats)
        assert made[0] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert preds.probs.shape == (3, 2)


def _assert_scores_equal_the_tape_forward(model, feats):
    """Every field of the scoring ``Trace`` is a plain array with the tape
    forward's bits, or None where the tape's is."""
    trace = model.forward(feats)
    scores = model.predict_batch(feats)
    for name in ("r_t", "m_d", "r_t_enh", "e_t", "e_v", "r_f", "gates", "fused", "probs"):
        tape, plain = getattr(trace, name), getattr(scores, name)
        assert (tape is None) == (plain is None), name
        if tape is not None:
            assert type(plain) is np.ndarray and np.array_equal(plain, tape.data), name
    assert len(scores.features) == len(trace.features)
    assert all(np.array_equal(p, t.data) for p, t in zip(scores.features, trace.features))
    assert np.array_equal(scores.labels, trace.labels)


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_predict_is_row_0_of_a_one_item_predict_batch(ablation):
    model, feats = build_gradcheck_problem(d=6, n_items=2, ablation=ablation)
    for f in feats:
        scores, pred = model.predict_batch([f]), model.predict(f)
        assert pred.probs.tobytes() == scores.probs[0].tobytes()
        assert type(pred.label) is int and pred.label == scores.labels[0]
        if scores.gates is None:
            assert pred.gates is None
        else:
            assert pred.gates == tuple(scores.gates[0].tolist())


@pytest.mark.parametrize("run", ["predict_batch", "batch_loss", "forward"])
def test_an_empty_batch_raises_config_error(run):
    model, _ = build_gradcheck_problem(d=6, n_items=2)
    with pytest.raises(ConfigError, match="empty batch"):
        getattr(model, run)([])


@pytest.mark.parametrize("case", BATCHED_CASES)
def test_predict_batch_is_bit_identical_to_the_tape_forward(case):
    """The four ablations and the ragged batch of token, precomputed and
    padded slots score to the same bits as ``Model.forward``."""
    _assert_scores_equal_the_tape_forward(*reference_problem(case))


def test_predict_batch_is_bit_identical_with_every_parameter_nonzero():
    """A fresh model's biases are zero, so a score that skipped one would
    still match; here every parameter is drawn at random."""
    model, feats = build_gradcheck_problem(d=6, n_items=3, n_desc=2)
    model.params.data[:] = Rng(8).stream("params").normal(size=model.params.data.size)
    _assert_scores_equal_the_tape_forward(model, feats)


@pytest.mark.parametrize("n_items", [8, 1])
def test_predict_batch_is_bit_identical_at_d64(n_items):
    """At the default width, a batch and a single item score to the tape
    forward's bits, both attention directions summing a low-order series."""
    model, feats = build_gradcheck_problem(d=64, n_items=n_items)
    trace = model.forward(feats)
    e_t, e_v = trace.e_t.data, trace.e_v.data
    c = interact.logit_scale(e_t, e_v)
    assert T._series_order(e_t, e_v, c) <= 8 and T._series_order(e_v, e_t, c) <= 8
    _assert_scores_equal_the_tape_forward(model, feats)


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_chunked_scores_match_item_by_item_predict_at_d64(ablation):
    """``predict_batch`` over chunks of 1, 7 and 64 items gives per-item
    ``predict``'s labels, and its probabilities to 1e-12. Bit equality is
    not asked for: BLAS sums a row of a product in a different order when
    the call has one or two rows than when it has dozens."""
    model, feats = build_gradcheck_problem(d=64, n_items=128, ablation=ablation)
    single = [model.predict(f) for f in feats]
    for size in (1, 7, 64):
        chunks = [model.predict_batch(feats[i:i + size]) for i in range(0, len(feats), size)]
        assert np.concatenate([c.labels for c in chunks]).tolist() == [p.label for p in single]
        probs = np.concatenate([c.probs for c in chunks])
        np.testing.assert_allclose(probs, [p.probs for p in single], rtol=0, atol=1e-12)


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


def test_load_names_file_and_parameter_of_a_wrong_shape(tmp_path):
    path = _saved(tmp_path, lambda a: a.update({"param/w_t": a["param/w_t"][:, :5]}))
    message = f"{path}: parameter w_t has shape (6, 5), expected (6, 6)"
    with pytest.raises(ConfigError, match=re.escape(message)):
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
    (lambda a: a.update(__meta__=np.array([{"config": {}}], dtype=object)), "'__meta__'"),
    (lambda a: a.update({"param/w_d": np.array([None, 1.0], dtype=object)}), "'param/w_d'"),
], ids=[
    "unknown_key", "string_d", "no_meta", "meta_not_json", "meta_not_object", "no_config",
    "no_vocab", "config_not_object", "vocab_not_list", "vocab_not_strings",
    "meta_object_array", "param_object_array",
])
def test_load_names_file_and_key_of_a_broken_checkpoint(tmp_path, edit, key):
    path = _saved(tmp_path, edit)
    with pytest.raises(ConfigError) as err:
        Model.load(path)
    assert str(path) in str(err.value) and key in str(err.value)


def test_load_rejects_a_checkpoint_whose_config_holds_nan(tmp_path):
    path = _saved(tmp_path, lambda a: _set_config(a, tau=math.nan))
    with pytest.raises(ConfigError) as err:
        Model.load(path)
    assert str(path) in str(err.value) and "tau must be positive, got nan" in str(err.value)


@pytest.mark.parametrize("kind", ["text", "empty", "truncated_zip", "npy"])
def test_load_names_a_file_that_is_not_an_npz_archive(tmp_path, kind):
    path = _saved(tmp_path, lambda a: None)
    whole = path.read_bytes()
    with open(path, "wb") as fh:
        if kind == "npy":
            np.save(fh, np.zeros(3))
        else:
            fh.write({"text": b"not a checkpoint\n", "empty": b"", "truncated_zip": whole[:40]}[kind])
    with pytest.raises(ConfigError, match=re.escape(f"{path}: not an .npz archive")):
        Model.load(path)


def test_load_of_a_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        Model.load(tmp_path / "absent.npz")


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


# Tape nodes of one default-config training batch: 4 encoder nodes (the
# text and the description rows of one bag product, one node each, and the
# image and description projections), the text projection, 4 in
# enrichment, 5 in alignment, 6 in interaction (both attention directions
# of one kernel pass, one node each) and 11 in fusion and the losses (the
# channel mean, the gated concatenation and each loss head one node each).
DEFAULT_BATCH_NODES = 31


@pytest.mark.parametrize(
    "case,nodes", [("none", 31), ("no_A", 28), ("no_M", 18), ("no_E", 26), ("ragged", 33)]
)
def test_reference_problems_build_the_pinned_nodes_and_no_constant_leaf(case, nodes):
    """On the batched-equivalence problems, every node of the tape but the
    Params has parents: precomputed text and description vectors enter as
    constants, so no leaf is built for them and none gets a gradient."""
    model, feats = reference_problem(case)
    loss, _ = model.batch_loss(feats)
    tape = [node for node in T._topo_order(loss) if not isinstance(node, T.Param)]
    assert len(tape) == nodes
    assert all(node._parents for node in tape)


def _default_config_batch(n_items=6):
    """A model at the default ModelConfig and a batch of token items, some
    with descriptions and one without."""
    vocab = Vocabulary([f"tok{i}" for i in range(13)])  # 14 rows: no other axis has that size
    model = Model.initialize(ModelConfig(), vocab, Rng(3))
    gen = Rng(3).stream("default-batch")

    def tokens():
        return TokenSequence(ids=[int(i) for i in gen.integers(1, len(vocab), size=5)])

    feats = [
        ItemFeatures(
            item_id=f"i{k}", label=k % 2, image=gen.normal(size=model.config.d_raw),
            text=tokens(), descs=[tokens() for _ in range(k % 3)],
        )
        for k in range(n_items)
    ]
    return model, feats


def _record_tensors(monkeypatch):
    """Rebind ``mmfnd.tensor.Tensor`` to a subclass that records every node
    it makes, as the benchmark's stage tracer does; Params stay instances
    of the original class."""
    created = []
    base = T.Tensor

    class Recorded(base):
        __slots__ = ()

        def __init__(self, data, parents=()):
            base.__init__(self, data, parents)
            created.append(self)

    monkeypatch.setattr(T, "Tensor", Recorded)
    return created


def test_default_training_batch_builds_at_most_the_pinned_node_count(monkeypatch):
    model, feats = _default_config_batch()
    created = _record_tensors(monkeypatch)
    model.batch_loss(feats)
    assert len(created) <= DEFAULT_BATCH_NODES


def test_no_bag_of_ids_or_stacked_image_array_is_a_node(monkeypatch):
    """Constant inputs enter as plain arrays: every node made for a batch of
    token items has parents, and none has the vocabulary's or d_raw's width."""
    model, feats = _default_config_batch()
    created = _record_tensors(monkeypatch)
    model.batch_loss(feats)
    assert all(node._parents for node in created)
    widths = {node.data.shape[-1:] for node in created}
    assert (len(model.vocab),) not in widths and (model.config.d_raw,) not in widths


def test_rebinding_the_tensor_class_leaves_every_gradient_unchanged(monkeypatch):
    model, feats = _default_config_batch()
    grads = []
    for rebind in (False, True):
        if rebind:
            _record_tensors(monkeypatch)
        model.params.reset_gradients()
        model.batch_loss(feats)[0].backward()
        grads.append(model.params.grad.copy())
    assert np.any(model.params["emb"].grad != 0.0)
    np.testing.assert_array_equal(grads[1], grads[0])


@pytest.mark.parametrize("run", ["predict", "batch_loss"])
def test_a_forward_runs_one_embedding_product_and_one_attention_kernel_pass(run, monkeypatch):
    """Text and description slots share one bag of ids, so one product with
    the table, and both attention directions share one series pass."""
    model, feats = _default_config_batch()
    counts = {"bag_of_ids": 0, "_series_moments": 0}
    for module, name in ((enc, "bag_of_ids"), (T, "_series_moments")):

        def counting(*args, original=getattr(module, name), name=name):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counting)
    if run == "predict":
        assert feats[1].descs
        model.predict(feats[1])
    else:
        model.batch_loss(feats)
    assert counts == {"bag_of_ids": 1, "_series_moments": 1}
