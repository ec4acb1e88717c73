import json

import numpy as np
import pytest

from mmfnd import data
from mmfnd import encoders as enc
from mmfnd import enrich
from mmfnd import tensor as T
from mmfnd.errors import DataFormatError
from mmfnd.rng import Rng

from gradcheck import finite_diff_check, weighted_sum


def test_tokenize_lowercases_and_splits_punctuation():
    assert enc.tokenize("Hello, World!  It's 2-fold.") == ["hello", "world", "it", "s", "2", "fold"]


def test_tokenize_splits_before_lowercasing_like_gazetteer_titles():
    # "İ".lower() is "i" plus a combining dot, which is not a word character
    text = "Talks in İstanbul today"
    assert enc.tokenize(text) == list(enrich._title_key(text))
    assert enc.tokenize(text) == ["talks", "in", "i\u0307stanbul", "today"]


def test_vocabulary_is_deterministic_and_reserves_oov():
    v1 = enc.Vocabulary.build(["b a", "c a"])
    v2 = enc.Vocabulary.build(["c a", "b a"])
    assert v1.tokens == v2.tokens == ["a", "b", "c"]
    assert v1.id_of["a"] == 1
    seq = v1.encode("a zzz b", max_len=5)
    assert seq.ids == [1, enc.OOV_ID, 2]


def test_encode_truncates_to_max_len():
    v = enc.Vocabulary.build(["a b c d e"])
    seq = v.encode("a b c d e", max_len=3)
    assert seq.ids == [1, 2, 3]


def _identity_params(d, vocab_size):
    emb = T.Param("emb", np.zeros((vocab_size, d)))
    proj = T.Param("w", np.eye(d))
    return emb, proj


def _encode_text(emb, proj, seqs):
    """The model's text path: mean-pooled token rows, then the projection."""
    return T.matvec(proj, enc.embed_rows(emb, [(seqs, (len(seqs),))])[0])


def test_encode_text_identity_weights_single_token():
    emb, proj = _identity_params(3, 4)
    emb.data[2] = [5.0, 6.0, 7.0]
    seq = enc.TokenSequence(ids=[2])
    out = _encode_text(emb, proj, [seq])
    np.testing.assert_array_equal(out.data, [[5.0, 6.0, 7.0]])


def test_encode_text_mean_pools_two_tokens():
    emb, proj = _identity_params(2, 4)
    emb.data[1] = [2.0, 0.0]
    emb.data[3] = [0.0, 4.0]
    seq = enc.TokenSequence(ids=[1, 3])
    out = _encode_text(emb, proj, [seq])
    np.testing.assert_array_equal(out.data, [[1.0, 2.0]])


def test_all_padding_sequence_rejected():
    emb, proj = _identity_params(2, 4)
    seq = enc.TokenSequence(ids=[])
    with pytest.raises(enc.EmptyTextError):
        _encode_text(emb, proj, [seq])


def test_bag_of_ids_counts_repeats_and_leaves_empty_slots_zero():
    seq = enc.TokenSequence(ids=[3, 1, 3])
    bag = enc.bag_of_ids([seq, None], 5)
    np.testing.assert_allclose(bag, [[0.0, 1 / 3, 0.0, 2 / 3, 0.0], [0.0] * 5], atol=1e-15)


@pytest.mark.parametrize("ids,slot,bad", [([1, 5], 1, 5), ([-1], 1, -1), ([4, 9, 7], 1, 9)])
def test_bag_of_ids_rejects_an_out_of_range_id_naming_its_slot(ids, slot, bad):
    seqs = [enc.TokenSequence(ids=[0, 4]), enc.TokenSequence(ids=ids), None]
    with pytest.raises(ValueError, match=f"^slot {slot}: token id {bad} is outside \\[0, 5\\)$"):
        enc.bag_of_ids(seqs, 5)


def test_embed_rows_mixes_token_precomputed_and_padding_slots():
    emb, _ = _identity_params(2, 4)
    emb.data[1] = [2.0, 0.0]
    slots = [enc.TokenSequence(ids=[1]), np.array([7.0, 8.0]), None, None]
    (out,) = enc.embed_rows(emb, [(slots, (2, 2))])
    np.testing.assert_array_equal(out.data, [[[2.0, 0.0], [7.0, 8.0]], [[0.0, 0.0], [0.0, 0.0]]])


def test_embed_rows_takes_precomputed_vectors_as_constants():
    """All slots precomputed: a plain array, no node. Mixed with token
    slots: one node over the pooled embedding, with the vectors as offset."""
    emb, _ = _identity_params(2, 4)
    emb.data[1] = [2.0, 0.0]
    pre = [np.array([7.0, 8.0]), np.array([1.0, -1.0])]
    (out,) = enc.embed_rows(emb, [(pre, (2,))])
    assert isinstance(out, np.ndarray)
    np.testing.assert_array_equal(out, pre)
    (mixed,) = enc.embed_rows(emb, [([enc.TokenSequence(ids=[1]), pre[0]], (2,))])
    assert len(mixed._parents) == 1 and mixed._parents[0]._parents == (emb,)
    np.testing.assert_array_equal(mixed.data, [[2.0, 0.0], pre[0]])


def test_embed_rows_serves_a_ragged_batch_with_one_bag_and_one_product(monkeypatch):
    """Text slots and padded description slots, mixing token, precomputed
    and padding slots, take one ``bag_of_ids`` and one product with the
    table: one node per group over it, plus one offset node per group that
    holds a precomputed vector. The rows equal those of each group alone."""
    gen = Rng(21).stream("ragged-embed")
    emb = T.Param("emb", gen.normal(size=(6, 3)))
    text = [enc.TokenSequence(ids=[1, 2]), gen.normal(size=3), enc.TokenSequence(ids=[5])]
    descs = [enc.TokenSequence(ids=[3]), None, gen.normal(size=3), None, enc.TokenSequence(ids=[4, 4, 1]), None]
    groups = [(text, (3,)), (descs, (3, 2))]
    alone = [enc.embed_rows(emb.data, [group])[0] for group in groups]
    bags, original = [], enc.bag_of_ids

    def counting(seqs, vocab_size):
        bags.append(len(seqs))
        return original(seqs, vocab_size)

    monkeypatch.setattr(enc, "bag_of_ids", counting)
    rows = enc.embed_rows(emb, groups)
    assert bags == [9]
    products = [row._parents[0] for row in rows]
    assert all(len(row._parents) == 1 for row in rows) and [p._parents for p in products] == [(emb,), (emb,)]
    for got, want in zip(rows, alone):
        np.testing.assert_allclose(got.data, want, rtol=1e-14, atol=0.0)
    np.testing.assert_array_equal(rows[1].data[1, 1], 0.0)
    np.testing.assert_array_equal(rows[1].data[1, 0], descs[2])


def test_embed_rows_gives_no_node_to_a_group_without_a_token_slot():
    emb = T.Param("emb", np.arange(8.0).reshape(4, 2))
    pre = np.array([7.0, 8.0])
    text, descs = enc.embed_rows(emb, [([pre], (1,)), ([enc.TokenSequence(ids=[3]), None], (1, 2))])
    assert isinstance(text, np.ndarray) and descs._parents == (emb,)
    np.testing.assert_array_equal(text, [pre])
    np.testing.assert_array_equal(descs.data, [[[6.0, 7.0], [0.0, 0.0]]])
    assert enc.embed_rows(emb, [([None], (1,))]) == [None]


def test_encode_image_basis_extraction():
    w = T.Param("w_vf", np.array([[1.0, 9.0], [2.0, 8.0], [3.0, 7.0]]))
    out = enc.encode_image(w, T.Tensor(np.array([[1.0, 0.0], [0.0, 0.0]])))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])


def test_encode_image_dim_mismatch():
    w = T.Param("w_vf", np.ones((3, 2)))
    with pytest.raises(T.ShapeError):
        enc.encode_image(w, T.Tensor(np.ones((1, 5))))


def test_encoders_deterministic():
    gen = Rng(5).stream("enc")
    emb = T.Param("emb", gen.normal(size=(6, 4)))
    proj = T.Param("w", gen.normal(size=(4, 4)))
    seq = enc.TokenSequence(ids=[1, 2, 5])
    a = _encode_text(emb, proj, [seq]).data
    b = _encode_text(emb, proj, [seq]).data
    np.testing.assert_array_equal(a, b)


def test_gradcheck_through_text_and_image_encoders():
    gen = Rng(9).stream("enc-grad")
    emb = T.Param("emb", gen.normal(size=(6, 4)))
    w_tf = T.Param("w_tf", gen.normal(size=(4, 4)))
    w_vf = T.Param("w_vf", gen.normal(size=(4, 3)))
    w_df = T.Param("w_df", gen.normal(size=(4, 4)))
    seqs = [
        enc.TokenSequence(ids=[1, 2, 2, 5]),
        enc.TokenSequence(ids=[3]),
    ]
    img = T.Tensor(gen.normal(size=(2, 3)))
    weights = gen.normal(size=(2, 4))
    desc_slots = [seqs[1], None, seqs[0], gen.normal(size=4)]
    desc_weights = gen.normal(size=(2, 2, 4))

    def f():
        text_rows, desc_rows = enc.embed_rows(emb, [(seqs, (2,)), (desc_slots, (2, 2))])
        r_t = T.matvec(w_tf, text_rows)
        r_v = enc.encode_image(w_vf, img)
        m_d = enc.encode_description(w_df, desc_rows)
        return T.add(
            weighted_sum(T.add(r_t, r_v), weights),
            weighted_sum(m_d, desc_weights),
        )

    report = finite_diff_check(f, [emb, w_tf, w_vf, w_df])
    assert report.max_rel_err < 1e-4


# ---------------------------------------------------------------------------
# precomputed encoder inputs: image_vec, text_vec and desc_vecs in the news JSONL
# ---------------------------------------------------------------------------


def _news_line(item_id, **vectors):
    obj = {"id": item_id, "text": "some text", "label": 0, "image_vec": [1.0, 2.0]}
    obj.update(vectors)
    return json.dumps(obj)


def _news_file(tmp_path, lines):
    path = tmp_path / "news.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_precomputed_single_item_roundtrip(tmp_path):
    path = tmp_path / "news.jsonl"
    item = data.NewsItem(id="a", text="some text", image=np.arange(4, dtype=np.float64), label=1)
    data.save_jsonl(path, data.Dataset([item], "train", "test"))
    assert set(json.loads(path.read_text())) == {"id", "text", "image_vec", "label"}
    loaded = data.load_jsonl(path)
    assert [got.id for got in loaded.items] == ["a"]
    np.testing.assert_array_equal(loaded.items[0].image, item.image)
    assert loaded.items[0].text_vec is None
    assert loaded.items[0].desc_vecs is None


def test_precomputed_missing_field_names_it(tmp_path, caplog):
    no_image = json.dumps({"id": "b", "text": "some text", "label": 0, "text_vec": [1.0, 2.0]})
    path = _news_file(tmp_path, [_news_line("a", text_vec=[1.0, 2.0]), no_image])
    with caplog.at_level("WARNING"):
        loaded = data.load_jsonl(path)
    assert [item.id for item in loaded.items] == ["a"] and loaded.skipped == 1
    assert any("image_vec" in rec.message for rec in caplog.records)


def test_precomputed_malformed_line_number(tmp_path):
    path = _news_file(tmp_path, [_news_line("a", text_vec=[1.0, 2.0]), "not json"])
    with pytest.raises(DataFormatError, match="line 2"):
        data.load_jsonl(path)


def test_precomputed_dimension_inconsistency(tmp_path):
    path = _news_file(tmp_path, [_news_line("a", text_vec=[1.0, 2.0]), _news_line("b", text_vec=[1.0])])
    with pytest.raises(DataFormatError, match="line 2: text_vec has length 1, expected 2"):
        data.load_jsonl(path)


@pytest.mark.parametrize("field", ["image_vec", "text_vec", "desc_vecs"])
def test_precomputed_non_finite_value_names_line_and_field(tmp_path, field):
    value = [[1.0, 2.0], [float("inf"), 0.0]] if field == "desc_vecs" else [1.0, float("nan")]
    path = _news_file(tmp_path, [_news_line("a"), _news_line("b", **{field: value})])
    with pytest.raises(DataFormatError, match=f"line 2: {field} has a non-finite value"):
        data.load_jsonl(path)


def test_precomputed_duplicate_id(tmp_path):
    path = _news_file(tmp_path, [_news_line("a", text_vec=[1.0]), _news_line("a", text_vec=[2.0])])
    with pytest.raises(DataFormatError, match="duplicate"):
        data.load_jsonl(path)


def test_precomputed_hundred_items_bit_exact(tmp_path):
    gen = Rng(3).stream("vectors")
    items = [
        data.NewsItem(
            id=f"item-{k}", text=f"word{k} text", image=gen.normal(size=8), label=k % 2,
            text_vec=gen.normal(size=6) if k % 2 else None,
            desc_vecs=gen.normal(size=(k % 3, 6)) if k % 3 else None,
        )
        for k in range(100)
    ]
    path = tmp_path / "vectors.jsonl"
    data.save_jsonl(path, data.Dataset(items, "train", "test"))
    loaded = data.load_jsonl(path)
    assert [item.id for item in loaded.items] == [item.id for item in items]
    for want, got in zip(items, loaded.items):
        for name in ("image", "text_vec", "desc_vecs"):
            if getattr(want, name) is None:
                assert getattr(got, name) is None
            else:
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
